"""Tour of the dart model and exact cover search.

A graph here is a set of darts grouped into links: a link of size two is
an edge (two vertices) or a loop (one vertex twice), a link of size one
is a semi-edge, a dangling half.  Degree counts darts, so a loop adds 2
and a semi-edge adds 1.  G covers H when a dart map restricts to a
bijection at every vertex and sends links onto links.
"""

from semicover import (GraphBuilder, build_F, complete, find_cover,
                       petersen, serialize_graph, verify_cover)

from _stdout import run_demo


def main():
    b = GraphBuilder()
    v = b.add_vertex()
    b.add_semi(v)
    b.add_loop(v)
    h = b.build()
    print("A one-vertex target, one semi-edge plus one loop (degree 3):")
    print(serialize_graph(h))

    pet = petersen()
    w = find_cover(pet, h)
    print(f"Petersen covers it: {w is not None}")
    print(f"  vertex fibers all map to v0: {set(w.vertex_map) == {0}}")
    print(f"  violations found by the checker: {verify_cover(pet, h, w)}")

    f30 = build_F(3, 0)
    print("\nThe same question against three semi-edges on one vertex:")
    print(f"  Petersen covers F(3,0): {find_cover(pet, f30) is not None}")
    print("  (a cover onto F(3,0) is exactly a proper 3-edge-coloring,")
    print("   and the Petersen graph famously has none)")

    k4 = complete(4)
    for target in (h, f30):
        w = find_cover(k4, target)
        assert w is not None and verify_cover(k4, target, w) == []
    print("\nK4 covers both targets, witnesses re-checked. ok")


if __name__ == "__main__":
    run_demo(main)
