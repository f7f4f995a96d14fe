"""Digests of classify and decide_colored over the small-target corpus.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src:tests python tests/corpus_digest.py

The corpus is test_dichotomy.small_targets(5): every connected target on
one or two vertices with at most five links of the corpus link types.
Five sha256 digests are printed.  The first is over classify's verdict,
rules and pieces per target, the second over decide_colored's answer and
method on h onto itself, on a seeded 2-fold lift of h and on a perturbed
copy of that lift, and the third over those answers alone.  A refactor
that leaves the first two unchanged gives the same classifications,
answers and method tags on the corpus; a change that routes targets to
another algorithm moves the second digest but must leave the third
where it was.  Every yes witness is checked with
verify_cover(check_fibers=True).

The fourth digest is over every yes witness (dart_map, vertex_map).  It
has no pin and does not affect the exit status, since witnesses may
change with the order of the work.  A refactor that claims the same
witnesses runs this script on the parent commit and on the change and
compares the two witness digests.

The fifth digest is over the reason of every no, also unpinned: a
change that refutes in another order moves it while the answers and
methods stay.  Compare it between parent and change the same way.

The script exits 1 when a witness fails or a pinned digest differs from
its pin below.  A change that alters a pinned digest on purpose updates
the pin and says why in CHANGES.md.
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
PINS = {
    "classify": "34afdff2f835336d2d182930a32391665297e8ed0eaf863b0721c3e573b76695",
    "decide_colored": "3afab9c5a80083d4c0f4ccbf61eb0a7fd7695f07cb0db12b2ef0598709fa57bd",
    "answers": "836374e78d8bc100e0f122be8c6dd7071458ba2228c2454884308ca04fbb0f9a",
}


def main() -> int:
    start = time.perf_counter()
    rng = random.Random(SEED)
    classified = hashlib.sha256()
    decided = hashlib.sha256()
    answered = hashlib.sha256()
    witnessed = hashlib.sha256()
    reasoned = hashlib.sha256()
    targets = calls = yes = 0
    for h in small_targets(MAX_LINKS):
        targets += 1
        c = classify(h)
        classified.update(repr((c.verdict, c.rules, sorted(c.pieces.items()))).encode())
        lift = random_lift(h, 2, rng)
        for g in (h, lift, perturb(lift, rng)):
            v = decide_colored(g, h)
            decided.update(repr((v.answer, v.method)).encode())
            answered.update(repr(v.answer).encode())
            calls += 1
            if v.answer:
                yes += 1
                witnessed.update(repr((v.witness.dart_map, v.witness.vertex_map)).encode())
                bad = verify_cover(g, h, v.witness, check_fibers=True)
                if bad:
                    print(f"bad witness on {h.links} <- {g.links}: {bad[0]}", file=sys.stderr)
                    return 1
            else:
                reasoned.update(repr(v.reason).encode())
    print(f"targets {targets}, decide_colored calls {calls}, yes {yes}")
    status = 0
    for name, digest in (("classify", classified), ("decide_colored", decided),
                         ("answers", answered)):
        print(f"{name:14} {digest.hexdigest()}")
        if digest.hexdigest() != PINS[name]:
            print(f"{name} digest differs from its pin {PINS[name]}", file=sys.stderr)
            status = 1
    print(f"{'witnesses':14} {witnessed.hexdigest()}")
    print(f"{'reasons':14} {reasoned.hexdigest()}")
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
