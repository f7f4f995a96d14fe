"""decide_colored against the voltage-lift oracle on every connected
multigraph with at most eight darts.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src:tests python tests/oracle_sweep.py

The targets are util.connected_multigraphs(8), one per isomorphism
class, semi-edges, loops and parallel edges included.  For each target h
and each fold k = 2, 3, util.lift_oracle builds every permutation voltage
lift of h (util.voltage_lifts), checks each against its projection with
verify_cover, and keeps one connected lift per canon._certificate.  Each
class must answer yes with a verified witness, and each class with two
far ends swapped (util.switched, seeds 0-3), when still connected, must
answer yes exactly when it is isomorphic to a lift.  Tier-1 runs the same
law, with the same seeds, on the targets with at most six darts.

The counts are printed and pinned nowhere: they show how many lifts,
classes and switched lifts a change was held against, and how the
classes split over the routes of decide_colored.  The script prints each
disagreement and exits 1 when there is one.
"""

from __future__ import annotations

import sys
import time

from util import connected_multigraphs, lift_oracle

MAX_DARTS = 8
FOLDS = (2, 3)
SEEDS = range(4)


def main() -> int:
    start = time.perf_counter()
    targets = connected_multigraphs(MAX_DARTS)
    counts, wrong = lift_oracle(targets, FOLDS, SEEDS)
    print(f"targets with at most {MAX_DARTS} darts {len(targets)}, folds {list(FOLDS)}, "
          f"switch seeds {list(SEEDS)}")
    for key in sorted(counts):
        print(f"{key:26} {counts[key]}")
    print(f"{'disagreements':26} {len(wrong)}")
    for line in wrong:
        print(line, file=sys.stderr)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
