"""Digests of classify and decide_colored over the small-target corpus.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src:tests python tests/corpus_digest.py

The corpus is test_dichotomy.small_targets(5): every connected target on
one or two vertices with at most five links of the corpus link types.
Two sha256 digests are printed, one over classify's verdict, rules and
pieces per target, and one over decide_colored's answer and method on h
onto itself, on a seeded 2-fold lift of h and on a perturbed copy of that
lift.  A refactor that leaves both digests unchanged gives the same
classifications, answers and method tags on the corpus.  Witnesses are
not digested, since they may change with the order of the work; every
yes witness is checked with verify_cover(check_fibers=True) instead.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time

from semicover.cover import verify_cover
from semicover.dichotomy import classify, decide_colored
from test_dichotomy import small_targets
from util import perturb, random_lift

MAX_LINKS = 5
SEED = 20231


def main() -> int:
    start = time.perf_counter()
    rng = random.Random(SEED)
    classified = hashlib.sha256()
    decided = hashlib.sha256()
    targets = calls = yes = 0
    for h in small_targets(MAX_LINKS):
        targets += 1
        c = classify(h)
        classified.update(repr((c.verdict, c.rules, sorted(c.pieces.items()))).encode())
        lift = random_lift(h, 2, rng)
        for g in (h, lift, perturb(lift, rng)):
            v = decide_colored(g, h)
            decided.update(repr((v.answer, v.method)).encode())
            calls += 1
            if v.answer:
                yes += 1
                bad = verify_cover(g, h, v.witness, check_fibers=True)
                if bad:
                    print(f"bad witness on {h.links} <- {g.links}: {bad[0]}", file=sys.stderr)
                    return 1
    print(f"targets {targets}, decide_colored calls {calls}, yes {yes}")
    print(f"classify       {classified.hexdigest()}")
    print(f"decide_colored {decided.hexdigest()}")
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
