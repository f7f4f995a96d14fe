"""Compare two base graphs by which simple graphs cover them.

Base A is stronger than base B when every connected simple graph covering
A also covers B.  That is checked exhaustively up to a vertex bound:
candidates are connected d-regular simple graphs (d the degree of A),
streamed one isomorphism class at a time in increasing order, so the
first failure is a minimum-order counterexample.  Each candidate is
decided as it is generated, in the calling process: generation is most
of the work, so deciding elsewhere could save little of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

# find_cover is unused here but stays bound: perfbench's tracer wraps it at this name.
from .cover import DartMapping, find_cover  # noqa: F401
from .dichotomy import decide_colored
from .generate import connected_regular_graphs
from .graph import Graph, is_connected, is_regular


class UnsupportedBase(ValueError):
    """The base graph is outside what the enumeration can handle."""


def _check_base(a: Graph) -> int:
    if a.n == 0 or not is_connected(a):
        raise UnsupportedBase("base graph must be connected and nonempty")
    if not is_regular(a):
        raise UnsupportedBase("base graph must be regular")
    return a.degree(0)


def _candidates(a: Graph, n_max: int) -> Iterator[Graph]:
    d = _check_base(a)
    return (g for n in range(1, n_max + 1) if n % a.n == 0
            for g in connected_regular_graphs(n, d))


def enumerate_simple_covers(a: Graph, n_max: int) -> Iterator[Graph]:
    """Connected simple graphs covering a, one per class, by vertex count."""
    for g in _candidates(a, n_max):
        if decide_colored(g, a).answer:
            yield g


@dataclass(frozen=True)
class StrongerReport:
    """Outcome of an exhaustive stronger-than check up to n_max vertices."""

    stronger: bool
    n_max: int
    generated: int
    covers_found: int
    counterexample: Graph | None = None
    witness: DartMapping | None = None

    def as_json(self) -> dict:
        out = {
            "stronger": self.stronger,
            "n_max": self.n_max,
            "generated": self.generated,
            "covers_found": self.covers_found,
        }
        if self.counterexample is not None:
            out["counterexample_order"] = self.counterexample.n
        return out


def check_stronger(a: Graph, b: Graph, n_max: int, jobs: int = 1) -> StrongerReport:
    """Does every connected simple cover of a (up to n_max) also cover b?

    Each candidate is decided onto a as it is generated, and onto b only
    when it covers a; the first that covers a but not b is returned as
    the counterexample, with its cover onto a as the witness.  jobs
    accepts only 1.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    if b.n == 0 or not is_connected(b):
        raise UnsupportedBase("target graph must be connected and nonempty")
    generated = 0
    covers = 0
    for g in _candidates(a, n_max):
        generated += 1
        wa = decide_colored(g, a).witness
        if wa is None:
            continue
        covers += 1
        if not decide_colored(g, b).answer:
            return StrongerReport(False, n_max, generated, covers,
                                  counterexample=g, witness=wa)
    return StrongerReport(True, n_max, generated, covers)


def check_equivalent(a: Graph, b: Graph, n_max: int) -> tuple[StrongerReport, StrongerReport]:
    """Stronger-than in both directions; equivalent when both verify."""
    return check_stronger(a, b, n_max), check_stronger(b, a, n_max)
