"""Layer spans recorded from outside the library.

The tracer replaces a library function by a thin wrapper at every name
through which the function is looked up: the defining module, each
module that imported it with ``from .x import f``, and the package
namespace.  Methods are wrapped once on their class, which covers every
name the class is reached by.  While an op is open, each wrapped call
records a span (name, start, end, parent, op id); when the op closes, the
spans are folded into per-layer totals and dropped.

A span's self time is its duration minus the durations of its direct
children, so the self times of one op (its root span included) add up
to the op's duration.
"""

from __future__ import annotations

import functools
import sys
import time

ROOT = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self._open: list[int] = []
        self.op = None
        self.busy_s = 0.0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.child_calls: dict[tuple[str, str], int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._enter(ROOT)

    def end_op(self) -> None:
        # Closes the root span, and any span an exception left open (a
        # RecursionError can strike before a wrapper's own exit runs).
        now = time.perf_counter()
        for idx in self._open:
            self.spans[idx][2] = now
        self._open = []
        self.op = None
        self._fold()

    def _fold(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
                key = (spans[parent][0], name)
                self.child_calls[key] = self.child_calls.get(key, 0) + 1
        for i, (name, start, end, _, _) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.busy_s += spans[0][2] - spans[0][1]
        self.spans = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # --------------------------------------------------------- wrapping

    def _wrapper(self, name: str, fn, post):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if post is not None:
                post(self, args, kwargs, result)
            return result
        return traced

    def wrap_function(self, name: str, fn, prefixes: tuple[str, ...], post=None) -> int:
        """Wrap fn at every module attribute bound to it; returns how many."""
        wrapper = self._wrapper(name, fn, post)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(prefixes):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise LookupError(f"{name}: function is bound at no module name")
        return hits

    def wrap_method(self, name: str, cls, attr: str, post=None) -> None:
        fn = vars(cls)[attr]
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(name, fn, post))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
