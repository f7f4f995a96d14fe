"""Two-vertex targets and the semi-edge collapse.

W(k, m, l, p, q) is two vertices joined by l parallel edges (bars), with
k semi-edges and m loops on one side, q and p on the other.  Bipartite
bar targets fall to regular bipartite decomposition; distinguishable
vertices split the problem per side; the regular symmetric case becomes
a 2-SAT over which fiber each vertex joins.  When that choice is
NP-complete but each side alone is polynomial, as for W(1,1,1,1,1), an
exact search branches on the fibers and maps the darts at each leaf.
"""

from semicover import (GraphBuilder, build_W, cycle, decide_colored, path,
                       type_signature, verify_cover)

from _stdout import run_demo


def show(name, g, h):
    v = decide_colored(g, h)
    print(f"{name:>22}: {'yes' if v.answer else 'no '}  via {v.method}")
    if v.answer:
        assert verify_cover(g, h, v.witness) == []
    return v


def w11111_lift(k, switch=False):
    """A k-fold cover of W(1,1,1,1,1), k even: the bar lifts to k edges
    across, each loop to a k-cycle and each semi-edge to k/2 edges in its
    fiber.  switch swaps the far ends of the first bar and of a cycle
    edge, which keeps every vertex's type signature."""
    b = GraphBuilder()
    a = [b.add_vertex() for _ in range(k)]
    c = [b.add_vertex() for _ in range(k)]
    edges = []
    for i in range(k):
        edges += [(a[i], c[i]), (a[i], a[(i + 1) % k]), (c[i], c[(i + 1) % k])]
    for i in range(0, k, 2):
        edges += [(a[i], a[i + 1]), (c[i], c[i + 1])]
    if switch:
        (u, w), (x, y) = edges[0], edges[4]
        edges[0], edges[4] = (u, y), (x, w)
    for e in edges:
        b.add_edge(*e)
    return b.build()


def main():
    bars2 = build_W(0, 0, 2, 0, 0)
    print("W(0,0,2), a double bar, is covered by even cycles only:")
    show("C6", cycle(6), bars2)
    show("C5", cycle(5), bars2)

    print("\nW(1,0,1,0,1) is a bar with a semi-edge at each end.")
    print("An edge of the source")
    print("may collapse onto a semi-edge of the target when both of its")
    print("ends map to the same vertex, so the path on 4 vertices with")
    print("semi-edge tips covers it even though it has 3 real edges:")
    w = build_W(1, 0, 1, 0, 1)
    p4 = path(4, semi_ends=True)
    show("path(4, semi tips)", p4, w)
    show("path(3, semi tips)", path(3, semi_ends=True), w)
    print("  degree sequences match either way; the collapse is what")
    print("  the local bijection permits, not a relaxation.")

    print("\nType signatures are what covers preserve per vertex:")
    sig_g = {type_signature(p4, v) for v in range(p4.n)}
    sig_h = {type_signature(w, v) for v in range(w.n)}
    print(f"  source signatures form a subset of target's: {sig_g <= sig_h}")

    print("\nW(1,1,1,1,1) is NP-complete: choosing each vertex's fiber is")
    print("the hard part, while each fiber alone is F(1,1), a matching.")
    print("The side search branches on fibers only, forcing the rest by")
    print("the crossing counts (one bar per vertex), and maps the darts of")
    print("each full choice in polynomial time:")
    w5 = build_W(1, 1, 1, 1, 1)
    show("8-fold lift", w11111_lift(8), w5)
    show("switched copy", w11111_lift(8, switch=True), w5)


if __name__ == "__main__":
    run_demo(main)
