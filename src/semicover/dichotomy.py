"""Complexity classification of connected targets with at most two vertices.

Every connected colored target on one or two vertices defines a covering
problem that is either polynomial or NP-complete, decided piece by piece
over its color classes.  The case split lives in one place,
deciders.dichotomy_table, which gives each piece a verdict, a rule and a
decider.  The table is part of the target's plan, built on the
target's first use and kept on the target, so classify and every
decision onto one target object read one table.  classify adds one
header rule per case.  decide_colored is the one gate for a connected
target: it picks the decider of the plan's route, handed the plan, which
searches the sides when only their choice is hard, or bounded exact
search, checks the side search's dart budget, and re-checks every yes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import OutOfScope, _check_budget, find_cover, verify_cover
from .deciders import (Verdict, _decider_plan, decide_colored_one_vertex,
                       decide_two_vertex_nonregular, decide_two_vertex_regular_2sat)
from .graph import Graph, _planned


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
    inside the polynomial two-vertex families, and NP-complete otherwise.
    The rules after the first are the rows of dichotomy_table.  A target
    on no or more than two vertices raises OutOfScope here, and a
    disconnected one raises it from the plan builder, _decider_plan.
    """
    if h.n == 0 or h.n > 2:
        raise OutOfScope(f"{h.n} vertices")
    rows = _planned(h, _decider_plan).rows
    verdict = "P" if all(r.verdict == "P" for r in rows) else "NP-complete"
    if h.n == 1:
        header = "target has one vertex: polynomial iff every color class is"
    elif rows[-1].key is None:
        header = ("target vertices are distinguishable by color or dart "
                  "type signature: the vertex map is forced")
    elif verdict == "P":
        header = "target is regular on two vertices: the side choice reduces to 2-SAT"
    else:
        header = "target is regular on two vertices: the side choice is NP-complete"
    return Classification(verdict, (header, *(r.rule for r in rows)),
                          {r.key: r.verdict for r in rows if r.key is not None})


def decide_colored(g: Graph, h: Graph, *, budget: int | None = None) -> Verdict:
    """Cover g onto the connected target h.

    A target on one or two vertices whose dichotomy_table rows are each
    P or tagged "side-search" goes to the decider of its case with its
    plan: one vertex, a forced vertex map (a last row with key None) or
    two vertices that agree.  Only _pair_row tags a row "side-search";
    then the decider branches on the sides and maps the darts in
    polynomial time at each leaf, once the dart budget has passed g.
    Every other target, the empty one included, falls back to exact
    search under the same budget.  Here every yes, from any route, is
    re-checked with verify_cover (RuntimeError when it fails).  A
    disconnected target raises OutOfScope, a ValueError, from the plan
    builder that reads it first (_decider_plan or cover._search_plan); a
    connected one is checked once, when its plan is built.
    """
    plan = _planned(h, _decider_plan) if h.n in (1, 2) else None
    if plan is None or plan.route is None:
        f = find_cover(g, h, budget=budget)
        v, by = Verdict(f is not None, "brute-force-fallback", f), "exact search"
    else:
        if plan.method == "side-search":
            _check_budget(g, budget)
        if plan.route == "one vertex":
            v = decide_colored_one_vertex(g, h, plan)
        elif plan.route == "forced":
            v = decide_two_vertex_nonregular(g, h, plan)
        else:
            v = decide_two_vertex_regular_2sat(g, h, plan)
        by = "decider"
    bad = v.answer and verify_cover(g, h, v.witness)
    if bad:
        raise RuntimeError(f"{by} produced a bad witness: {bad[0]}")
    return v
