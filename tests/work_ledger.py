"""The work ledger: deterministic work counts of fixed inputs, with bounds.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src:tests python tests/work_ledger.py

Each row of ROWS is an exact call sequence, whose last call util's
generation_work or decide_work counts, and an inclusive (lo, hi) bound
per bounded counter.  The script prints every count, each bound after
its count, and exits 1 when a count is outside its bound; tier-1 checks
the bounded rows (test_work_ledger.py).
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple

from semicover.build import (build_F, build_W, complete, complete_bipartite, gen_binpacking,
                             petersen)
from semicover.disconnected import decide
from semicover.generate import connected_regular_graphs, connected_simple_graphs
from semicover.graph import disjoint_union
from util import decide_work, generation_work, random_lift


Row = namedtuple("Row", "name work bounds")


def _cubic():
    return (disjoint_union([complete(4), petersen(), complete(4), complete_bipartite(3, 3)]),
            disjoint_union([build_F(3, 0), build_F(1, 1)]))


def _w_lift():
    w = build_W(1, 1, 1, 1, 1)
    return random_lift(w, 8, random.Random(8)), w


def _decided(make, semantics, before=None, **kwargs):
    """decide_work on make(), after one decide(..., **before) if before is given."""
    def work():
        g, h = make()
        if before is not None:
            decide(g, h, semantics, **before)
        return decide_work(g, h, semantics, **kwargs)
    return work


def _twice(name, make, semantics):
    """Two unbounded rows: decide with witness on a fresh target, and again."""
    return [Row(f"{name}, first", _decided(make, semantics, want_witness=True), {}),
            Row(f"{name}, again", _decided(make, semantics, before={"want_witness": True},
                                           want_witness=True), {})]


ROWS = [
    Row("connected_simple_graphs(7)", lambda: generation_work(lambda: connected_simple_graphs(7)),
        {"certificates": (0, 463), "graphs": (853, 853), "attachment_sets": (1, 2140),
         "classes": (853, 853)}),
    Row("connected_simple_graphs(8)", lambda: generation_work(lambda: connected_simple_graphs(8)),
        {"certificates": (0, 4414), "attachment_sets": (1, 30280), "classes": (11117, 11117)}),
    Row("connected_regular_graphs(12, 3)",
        lambda: generation_work(lambda: connected_regular_graphs(12, 3)),
        {"certificates": (0, 86), "first_leaves": (0, 219), "directed_searches": (0, 692),
         "refinements": (0, 2924), "twin_prefix_choices": (1, 6648), "classes": (85, 85)}),
    Row("connected_regular_graphs(10, 4)",
        lambda: generation_work(lambda: connected_regular_graphs(10, 4)),
        {"certificates": (0, 289), "first_leaves": (0, 266), "directed_searches": (0, 339),
         "refinements": (0, 4202), "twin_prefix_choices": (1, 3757), "classes": (59, 59)}),
    # decide builds one source Graph per class of components and splits the
    # source once; onto a target it has decided before it builds no target
    # Graph, no plan and no target split
    Row("binpacking [3,3,3,5,5] onto 3 bins, lbhom, first",
        _decided(lambda: gen_binpacking([3, 3, 3, 5, 5], 3), "lbhom"),
        {"graphs": (0, 3), "splits": (2, 2), "decide_colored": (1, 1)}),
    Row("binpacking [3,3,3,5,5] onto 3 bins, lbhom, again",
        _decided(lambda: gen_binpacking([3, 3, 3, 5, 5], 3), "lbhom", before={}),
        {"graphs": (2, 2), "plans": (0, 0), "splits": (1, 1), "decide_colored": (1, 1),
         "whole_source": (1, 1), "verify_cover": (1, 1)}),
    # the whole source onto each target class, then three classes onto F(3,0);
    # a check per yes (F(1,1), K4 and K3,3 onto F(3,0)) and the stitched one
    Row("cubic union onto F(3,0)+F(1,1), surjective with witness after one without",
        _decided(_cubic, "surjective", before={}, want_witness=True),
        {"graphs": (3, 3), "plans": (0, 0), "splits": (1, 1), "decide_colored": (5, 5),
         "whole_source": (2, 2), "verify_cover": (4, 4)}),
    *_twice("binpacking [3,3,3,5,5] onto 3 bins, equitable",
            lambda: gen_binpacking([3, 3, 3, 5, 5], 3), "equitable"),
    *_twice("binpacking of 12 items onto 3 bins, equitable",
            lambda: gen_binpacking([4, 7, 2, 9, 5, 3, 8, 6, 1, 10, 5, 6], 3), "equitable"),
    *_twice("cubic union onto F(3,0)+F(1,1), surjective", _cubic, "surjective"),
    # connected onto connected: no split (test_connected_inputs_are_not_split)
    *_twice("W(1,1,1,1,1) lift, k = 8, seed 8, lbhom", _w_lift, "lbhom"),
]


def _shown(bound: tuple[int, int]) -> str:
    lo, hi = bound
    return f"== {hi}" if lo == hi else f"<= {hi}" if lo == 0 else f"in {lo}..{hi}"


def broken(row: Row, counts: dict[str, int]) -> list[str]:
    """Each count of row outside its bound, with the bound."""
    return [f"{key} {counts[key]} outside {_shown((lo, hi))}"
            for key, (lo, hi) in row.bounds.items() if not lo <= counts[key] <= hi]


def main() -> int:
    status = 0
    for row in ROWS:
        counts = row.work()
        print(f"{row.name}: " + ", ".join(
            f"{key} {n}" + (f" ({_shown(row.bounds[key])})" if key in row.bounds else "")
            for key, n in counts.items()))
        for problem in broken(row, counts):
            print(f"  BROKEN: {problem}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
