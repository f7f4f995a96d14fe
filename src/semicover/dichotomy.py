"""Complexity classification of connected targets with at most two vertices.

Every connected colored target on one or two vertices defines a covering
problem that is either polynomial or NP-complete, decided piece by piece
over its color classes.  The case split lives in one place,
deciders.dichotomy_table, which gives each piece a verdict, a rule and a
decider.  classify reads that table and adds one header rule per case.
decide_colored is the one place that picks an algorithm for a connected
target: the polynomial decider of the case, handed the rows it has
already read, or bounded exact search for every other target.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import find_cover
from .deciders import (Verdict, decide_colored_one_vertex,
                       decide_two_vertex_nonregular,
                       decide_two_vertex_regular_2sat, dichotomy_table)
from .graph import Graph, is_connected


class OutOfScope(ValueError):
    """The target is outside the classified domain."""


@dataclass(frozen=True)
class Classification:
    verdict: str  # "P" | "NP-complete"
    rules: tuple[str, ...]
    pieces: dict[str, str]

    @property
    def polynomial(self) -> bool:
        return self.verdict == "P"


def classify(h: Graph) -> Classification:
    """P or NP-complete for the covering problem onto connected h.

    One vertex: polynomial iff every color class is (directed classes
    always are).  Two distinguishable vertices: the vertex map is forced
    and each side reduces to the one-vertex test.  Two indistinguishable
    vertices: the side choice is a 2-SAT instance iff every class stays
    inside the polynomial two-vertex families.  The rules after the first
    are the rows of dichotomy_table.
    """
    if h.n == 0 or h.n > 2:
        raise OutOfScope(f"{h.n} vertices")
    if not is_connected(h):
        raise OutOfScope("disconnected target")
    rows = dichotomy_table(h)
    if h.n == 1:
        header = "target has one vertex: polynomial iff every color class is"
    elif rows[-1].key is None:
        header = ("target vertices are distinguishable by color or dart "
                  "type signature: the vertex map is forced")
    else:
        header = "target is regular on two vertices: the side choice reduces to 2-SAT"
    verdict = "P" if all(r.verdict == "P" for r in rows) else "NP-complete"
    return Classification(verdict, (header, *(r.rule for r in rows)),
                          {r.key: r.verdict for r in rows if r.key is not None})


def decide_colored(g: Graph, h: Graph, *, budget: int | None = None) -> Verdict:
    """Cover g onto the connected target h.

    A target on one or two vertices whose dichotomy_table rows are all P
    goes to the decider of its case with those rows: one vertex, a forced
    vertex map (a last row with key None) or 2-SAT.  Every other target,
    the empty one included, falls back to exact search under the dart
    budget.  A disconnected target raises ValueError.
    """
    if h.n == 2 and not is_connected(h):
        raise OutOfScope("disconnected target")
    if h.n in (1, 2):
        rows = dichotomy_table(h)
        if all(r.verdict == "P" for r in rows):
            if h.n == 1:
                return decide_colored_one_vertex(g, h, rows)
            if rows[-1].key is None:
                return decide_two_vertex_nonregular(g, h, rows)
            return decide_two_vertex_regular_2sat(g, h, rows)
    f = find_cover(g, h, budget=budget)
    return Verdict(f is not None, "brute-force-fallback", f)
