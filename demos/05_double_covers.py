"""Canonical double covers and what they remember.

The double cover G x K2 doubles every vertex and joins the two copies
crosswise; a loop becomes a pair of parallel edges, a semi-edge becomes
an honest edge between the copies.  The result is always bipartite and
loopless, and a bipartite source covers G exactly when it covers the
double cover.
"""

from semicover import (GraphBuilder, build_F, cycle, decide, double_cover,
                       is_bipartite, is_simple, petersen, verify_cover)

from _stdout import run_demo


def main():
    pet = petersen()
    d, proj = double_cover(pet)
    print(f"Petersen doubled: {d.n} vertices, {d.n_links} edges,")
    print(f"  bipartite={is_bipartite(d)}, simple={is_simple(d)},")
    print(f"  projection verified: {verify_cover(d, pet, proj) == []}")
    print("  (this 20-vertex graph is the Desargues graph)")

    b = GraphBuilder()
    v = b.add_vertex()
    b.add_semi(v)
    b.add_loop(v)
    g = b.build()
    d, _ = double_cover(g)
    print(f"\nsemi+loop vertex doubles to {d.n} vertices and "
          f"{d.n_links} parallel edges,")
    print(f"  the triple bond, bipartite={is_bipartite(d)}")

    loop = build_F(0, 1)
    dloop, _ = double_cover(loop)
    print("\nTransfer: for bipartite sources, covering H and covering")
    print("its double are the same question.  H = one loop, HxK2 = digon.")
    for name, src in (("C4", cycle(4)), ("C6", cycle(6)), ("C5", cycle(5))):
        left = decide(src, loop, "lbhom").answer
        right = decide(src, dloop, "lbhom").answer
        note = "" if left == right else "   <- odd cycle, equivalence breaks"
        print(f"  {name}: covers H = {left}, covers HxK2 = {right}{note}")


if __name__ == "__main__":
    run_demo(main)
