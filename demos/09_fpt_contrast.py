"""Surjective against equitable covers as the number of target components grows.

The paper notes that surjective and equitable covers of disconnected
graphs differ in parameterized complexity.  Both are decided over the
covering pattern, the bipartite graph of which source component covers
which target component.  A surjective cover needs one bipartite matching
over the pattern.  An equitable cover must also make every target vertex
fiber the same size, and bin packing reduces to it (gen_binpacking: item
sizes become cycle lengths, bins become one-loop vertices), which is
W[1]-hard in the number of bins.  The equitable decider is a dynamic
program over the fills of the bins, exponential in their number.

The sweep takes q = 2..14 bins with 3 seeded items of size 1..12 per bin
and decides both semantics with a witness.  Each yes witness is checked
with verify_cover; the script exits 1 if one fails.

    python demos/09_fpt_contrast.py
"""

import random
import sys
import time

from semicover import decide, gen_binpacking, verify_cover

SEED = 1


def seeded_items(bins: int, rng: random.Random) -> list[int]:
    """3 items per bin, sizes 1..12, redrawn until their sum splits evenly."""
    xs = [rng.randint(1, 12) for _ in range(3 * bins)]
    while sum(xs) % bins:
        xs[rng.randrange(len(xs))] = rng.randint(1, 12)
    return xs


def timed_decide(g, h, semantics: str):
    """The decision, with a witness on a yes, and its wall time in ms."""
    start = time.perf_counter()
    d = decide(g, h, semantics, want_witness=True)
    return d, 1000 * (time.perf_counter() - start)


def witness_ok(g, h, d) -> bool:
    """Whether a yes decision's witness is a cover of the right kind."""
    bad = verify_cover(g, h, d.witness, require_surjective=d.semantics == "surjective",
                       check_fibers=True)
    fibers = [0] * h.n
    for v in d.witness.vertex_map:
        fibers[v] += 1
    return not bad and (d.semantics != "equitable" or len(set(fibers)) == 1)


def main() -> int:
    print(f"{'bins':>4} {'items':>5} {'pairs':>5}   {'surjective':>16}   {'equitable':>16}")
    failed = 0
    for q in range(2, 15):
        xs = seeded_items(q, random.Random(SEED))
        g, h = gen_binpacking(xs, q)
        row = []
        for semantics in ("surjective", "equitable"):
            d, ms = timed_decide(g, h, semantics)
            if d.answer and not witness_ok(g, h, d):
                print(f"q={q}: {semantics} witness fails verification", file=sys.stderr)
                failed += 1
            row.append(f"{'yes' if d.answer else 'no':>7} {ms:7.1f} ms")
        print(f"{q:>4} {len(xs):>5} {len(d.pattern.edges):>5}   {row[0]}   {row[1]}")
    print("\nEvery item covers every bin, so the pattern is complete bipartite and")
    print("surjectivity is one matching; the equitable DP's work grows with the")
    print("number of bins, as bin packing is W[1]-hard in that parameter.")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
