"""Digests of classify, decide_colored and decide over the small-target corpus.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src:tests python tests/corpus_digest.py

The corpus is test_dichotomy.small_targets(5): every connected target on
one or two vertices with at most five links of the corpus link types.
Seven sha256 digests are printed.  The first is over classify's verdict,
rules and pieces per target, the second over decide_colored's answer and
method on h onto itself, on a seeded 2-fold lift of h and on a perturbed
copy of that lift, and the third over those answers alone.  A refactor
that leaves the first two unchanged gives the same classifications,
answers and method tags on the corpus; a change that routes targets to
another algorithm moves the second digest but must leave the third
where it was.  Every yes witness is checked with
verify_cover(check_fibers=True).

The fourth digest is over decide on seeded disjoint unions, under all
three semantics with want_witness: answer, sigma, reason, the witness
maps and the fiber profile.  Each target is a union of two or three
corpus targets, with repeats; each source is a union of lifts and
perturbed lifts of them and of repeated copies, so that component
classes repeat on both sides.  It is pinned like the first three, and
its yes witnesses are checked the same way.  The fifth digest is over
the same calls' (semantics, answer) alone, and is pinned too: a change
that only takes another path to the same answers (say, the equitable
DP placing components in another order) moves the fourth digest but
must leave the fifth where it was.

The sixth digest is over every yes witness of decide_colored (dart_map,
vertex_map).  It has no pin and does not affect the exit status, since
witnesses may change with the order of the work.  A refactor that
claims the same witnesses runs this script on the parent commit and on
the change and compares the two witness digests.

The seventh digest is over the reason of every no of decide_colored, also
unpinned: a change that refutes in another order moves it while the
answers and methods stay.  Compare it between parent and change the
same way.

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
from semicover.disconnected import decide
from semicover.graph import disjoint_union
from test_dichotomy import small_targets
from util import perturb, random_lift

MAX_LINKS = 5
SEED = 20231
UNIONS = 200
PINS = {
    "classify": "34afdff2f835336d2d182930a32391665297e8ed0eaf863b0721c3e573b76695",
    "decide_colored": "3afab9c5a80083d4c0f4ccbf61eb0a7fd7695f07cb0db12b2ef0598709fa57bd",
    "answers": "836374e78d8bc100e0f122be8c6dd7071458ba2228c2454884308ca04fbb0f9a",
    "decide": "958c3d4397fc78b6097c49b45d3780a3d024d80bac11618dcc88d1a7848a5e59",
    "decide_answers": "d5954b510890075c48a379c16eb4e8dd71a386a4bd4a73b4f70d1242924d72f9",
}


def decide_unions(corpus: list, digest, answers) -> int:
    """Feed decide's results on UNIONS seeded disjoint unions to digest,
    and (semantics, answer) alone to answers; return the number of yes
    witnesses, each checked with verify_cover."""
    rng = random.Random(SEED)
    yes = 0
    for _ in range(UNIONS):
        targets = [rng.choice(corpus) for _ in range(rng.randrange(2, 4))]
        if rng.random() < 0.3:
            targets[-1] = targets[0]
        pieces = []
        if rng.random() < 0.4:  # one k-fold lift of each target: often equitable
            k = rng.randrange(1, 4)
            pieces = [random_lift(t, k, rng) for t in targets]
            rng.shuffle(pieces)
        for _ in range(0 if pieces else rng.randrange(2, 6)):
            roll = rng.random()
            if pieces and roll < 0.3:
                pieces.append(rng.choice(pieces))
            else:
                lift = random_lift(rng.choice(targets), rng.randrange(1, 4), rng)
                pieces.append(perturb(lift, rng) if roll > 0.8 else lift)
        g, h = disjoint_union(pieces), disjoint_union(targets)
        for semantics in ("lbhom", "surjective", "equitable"):
            d = decide(g, h, semantics, want_witness=True)
            w = d.witness
            digest.update(repr((d.answer, d.sigma, d.reason, w and (w.dart_map, w.vertex_map),
                                d.fiber_profile)).encode())
            answers.update(repr((semantics, d.answer)).encode())
            if w is not None:
                yes += 1
                bad = verify_cover(g, h, w, check_fibers=True)
                if bad:
                    raise AssertionError(f"bad decide witness on {h.links} <- {g.links}: {bad[0]}")
    return yes


def main() -> int:
    start = time.perf_counter()
    rng = random.Random(SEED)
    classified = hashlib.sha256()
    decided = hashlib.sha256()
    answered = hashlib.sha256()
    witnessed = hashlib.sha256()
    reasoned = hashlib.sha256()
    targets = calls = yes = 0
    corpus = []
    for h in small_targets(MAX_LINKS):
        targets += 1
        corpus.append(h)
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
    unions = hashlib.sha256()
    union_answers = hashlib.sha256()
    try:
        decide_yes = decide_unions(corpus, unions, union_answers)
    except AssertionError as e:
        print(e, file=sys.stderr)
        return 1
    print(f"targets {targets}, decide_colored calls {calls}, yes {yes}")
    print(f"unions {UNIONS}, decide calls {3 * UNIONS}, yes {decide_yes}")
    status = 0
    for name, digest in (("classify", classified), ("decide_colored", decided),
                         ("answers", answered), ("decide", unions),
                         ("decide_answers", union_answers)):
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
