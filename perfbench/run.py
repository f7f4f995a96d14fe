"""semicover benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload poly-lifts --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
inputs are built from the seed, five times, and the median build time is
``setup_s``.  The load is a closed loop with one client: ops run one at a
time, in ``seconds // round_s`` rounds over the workload's inputs (at
least one).  Every op is checked after it is timed; a wrong answer, or an
answer that differs between rounds, makes the result ``"correct": false``
and the exit code 1.  Ops that raise count as failed, by exception type.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` half as many rounds run untraced and then again traced, and
the result holds the per-layer metrics (see metrics.py).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import layers
import metrics
import workloads
from gen import digest
from speed import REF_S, Speed
from tracer import Tracer
from workloads import Wrong

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 5
OP_DEADLINE_S = 10.0
PINS = os.path.join(HERE, "pins.json")


class OpDeadline(Exception):
    """An op ran longer than OP_DEADLINE_S."""


def _alarm(signum, frame):
    raise OpDeadline(f"op exceeded {OP_DEADLINE_S} s")


@dataclass
class Record:
    start: float
    latency_s: float
    error: str | None = None     # exception type, when the op raised
    answer: bool | None = None
    wrong: str | None = None     # why the answer is wrong, when it is

    @property
    def ok(self) -> bool:
        return self.error is None and self.wrong is None


def fresh_import():
    """Import semicover from scratch, so set-up includes its import time."""
    for name in [m for m in sys.modules if m == "semicover" or m.startswith("semicover.")]:
        del sys.modules[name]
    return importlib.import_module("semicover")


def set_up(name: str, seed: int, speed: Speed):
    """Build the workload SETUP_REPEATS times; returns it and the median
    build time, scaled to the reference speed."""
    times = []
    speed.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](fresh_import(), seed)
        t1 = time.perf_counter()
        speed.probe()
        times.append((t1 - t0) * speed.scale(t0, t1))
    return wl, statistics.median(times)


def run_op(op, op_id: int, tracer=None) -> Record:
    if tracer is not None:
        tracer.begin_op(op_id)
    result = error = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        result = op.run()
    except Exception as e:  # every failure is counted by type, never fatal
        error = type(e).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    rec = Record(t0, time.perf_counter() - t0, error)
    if tracer is not None:
        tracer.end_op()
    if error is None:
        try:
            rec.answer = op.check(result)
        except Wrong as e:
            rec.wrong = str(e)
    return rec


def measure(ops, rounds: int, speed: Speed, tracer=None) -> list[list[Record]]:
    out = []
    for _ in range(rounds):
        out.append([])
        for i, op in enumerate(ops):
            speed.probe_if_due()
            out[-1].append(run_op(op, i, tracer))
    speed.probe()
    return out


def end_to_end(rounds: list[list[Record]], setup_s: float, speed: Speed | None,
               ) -> dict[str, float]:
    """Throughput and latency from each op's median over rounds, scaled to
    the reference speed (see speed.py); unscaled when speed is None."""
    scaled = lambda r: r.latency_s * (speed.scale(r.start, r.start + r.latency_s)
                                      if speed else 1.0)
    per_op = [(statistics.median(scaled(r) for r in recs), all(r.ok for r in recs))
              for recs in zip(*rounds)]
    done = sorted(t * 1000 for t, ok in per_op if ok)
    busy = sum(t for t, _ in per_op)
    if len(done) > 1:
        p50 = statistics.median(done)
        p95 = statistics.quantiles(done, n=20, method="inclusive")[18]
    else:
        p50 = p95 = done[0] if done else 0.0
    return {
        "ops_per_s": len(done) / busy if busy else 0.0,
        "op_p50_ms": p50,
        "op_p95_ms": p95,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def problems(wl, rounds: list[list[Record]], seed: int) -> list[str]:
    """Wrong answers, answers that change between rounds, pin mismatches."""
    out = []
    first = rounds[0]
    for rnd in rounds:
        for op, rec, ref in zip(wl.ops, rnd, first):
            if rec.wrong:
                out.append(f"{op.kind}: {rec.wrong}")
            elif (rec.error, rec.answer) != (ref.error, ref.answer):
                out.append(f"{op.kind}: answer changed between rounds")
    with open(PINS) as f:
        pins = json.load(f).get(wl.name, {})
    got = pin_digest(wl, first)
    want = pins.get(str(seed))
    print(f"pinned answers digest {got} "
          + ("(no pin recorded for this seed)" if want is None
             else "matches the pin" if want == got else f"DIFFERS from the pin {want}"))
    if want is not None and want != got:
        out.append(f"pinned answers digest {got} differs from {want}")
    return out


def pin_digest(wl, first: list[Record]) -> str:
    return digest(f"{i}:{rec.error or rec.answer}" for i, (op, rec)
                  in enumerate(zip(wl.ops, first)) if op.pinned)


def describe_inputs(wl, first: list[Record]) -> dict[str, float]:
    """Print the input properties; return those that are per-layer metrics."""
    sizes = sorted(op.darts for op in wl.ops)
    answers = [r.answer for r in first if r.answer is not None]
    hist: dict[str, int] = {}
    for d in sizes:
        exp = 0 if d < 1 else len(str(d)) - 1
        key = f"[1e{exp},1e{exp + 1})"
        hist[key] = hist.get(key, 0) + 1
    print(f"inputs digest {digest(op.desc for op in wl.ops)}: {len(wl.ops)} ops per round")
    print("darts per op histogram " + ", ".join(f"{k}: {v}" for k, v in hist.items()))
    yes_share = sum(answers) / len(answers) if answers else 0.0
    print(f"yes share {yes_share:.3f} of {len(answers)} yes/no answers")
    for key, value in wl.facts.items():
        print(f"{key} {value:.4f}")
    return {
        "input.yes_share": yes_share,
        "input.darts_p50": statistics.median(sizes),
        "input.darts_max": sizes[-1],
        **wl.facts,
    }


def run_probes(wl) -> tuple[dict[str, float], list[str]]:
    errors = 0
    out = []
    for i, op in enumerate(wl.probes):
        rec = run_op(op, i)
        outcome = rec.error or rec.wrong or f"answer {rec.answer}"
        print(f"probe {op.kind}: {outcome} after {rec.latency_s:.3f} s")
        errors += rec.error == "RecursionError"
        if rec.wrong:
            out.append(f"probe {op.kind}: {rec.wrong}")
    return {"probes.recursion_errors": errors, "probes.attempted": len(wl.probes)}, out


def classes_per_s(wl, records: list[list[Record]]) -> float:
    classes = busy = 0.0
    for rnd in records:
        for op, rec in zip(wl.ops, rnd):
            if op.classes and rec.ok:
                classes += op.classes
                busy += rec.latency_s
    return classes / busy if busy else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semicover", "__init__.py")):
        print(f"semicover sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    speed = Speed()
    wl, setup_s = set_up(args.workload, args.seed, speed)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    gc.collect()
    gc.freeze()     # the inputs stay alive all run; keep them out of GC passes
    n_rounds = max(1, int(args.seconds // wl.round_s))
    if args.trace:
        n_rounds = max(1, n_rounds // 2)
    t0 = time.perf_counter()
    rounds = measure(wl.ops, n_rounds, speed)
    measured_s = time.perf_counter() - t0
    bad = problems(wl, rounds, args.seed)
    facts = describe_inputs(wl, rounds[0])
    probe_facts, probe_bad = run_probes(wl)
    bad += probe_bad
    flat = [r for rnd in rounds for r in rnd]

    if args.trace:
        tr = Tracer()
        layers.install(tr)
        try:
            traced = measure(wl.ops, n_rounds, speed, tr)
        finally:
            tr.uninstall()
        flat_t = [r for rnd in traced for r in rnd]
        for op, u, t in zip(wl.ops * len(rounds), flat, flat_t):
            if (u.error, u.answer, u.wrong) != (t.error, t.answer, t.wrong):
                bad.append(f"{op.kind}: traced answer differs from untraced")
        untraced_busy = sum(r.latency_s for r in flat)
        scaled_busy = lambda recs: sum(r.latency_s * speed.scale(r.start, r.start + r.latency_s)
                                       for r in recs)
        values = {
            **layers.per_layer(tr), **facts, **probe_facts,
            "generate.classes_per_s": classes_per_s(wl, rounds),
            "trace.untraced_busy_s": untraced_busy,
            "trace.overhead_ratio": scaled_busy(flat_t) / scaled_busy(flat) - 1,
            "ops.attempted": len(flat),
            "ops.failed_ratio": sum(not r.ok for r in flat) / len(flat),
        }
        table = [(n, u) for n, u, _, _ in metrics.PER_LAYER]
    else:
        values = end_to_end(rounds, setup_s, speed)
        raw = end_to_end(rounds, setup_s, None)
        print(f"unscaled: {raw['ops_per_s']:.4g} ops/s, p50 {raw['op_p50_ms']:.4g} ms, "
              f"p95 {raw['op_p95_ms']:.4g} ms; probe loop median "
              f"{statistics.median(speed.took) * 1000:.3f} ms, reference "
              f"{REF_S * 1000:.3f} ms")
        table = [(n, u) for n, u, _, _ in metrics.END_TO_END]

    failures: dict[str, int] = {}
    for r in flat:
        if not r.ok:
            key = r.error or "wrong answer"
            failures[key] = failures.get(key, 0) + 1
    print(f"{len(rounds)} rounds of {len(wl.ops)} ops in {measured_s:.1f} s, "
          f"busy {sum(r.latency_s for r in flat):.1f} s, failures by type {failures or 'none'}")
    for line in bad[:20]:
        print(f"WRONG {line}")
    for name, unit in table:
        print(f"{name} {values[name]} {unit}")
    print(json.dumps({
        "correct": not bad,
        "attempted": len(flat),
        "failed": sum(not r.ok for r in flat),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
