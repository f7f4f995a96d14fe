"""Constructors for the named graph families and derived graphs."""

from __future__ import annotations

from itertools import chain

from .cover import DartMapping
from .graph import Graph, GraphBuilder, disjoint_union


def build_F(b: int, c: int) -> Graph:
    """One vertex with b semi-edges and c loops."""
    if b < 0 or c < 0:
        raise ValueError("negative multiplicity")
    gb = GraphBuilder()
    v = gb.add_vertex()
    for _ in range(b):
        gb.add_semi(v)
    for _ in range(c):
        gb.add_loop(v)
    return gb.build()


def build_W(k: int, m: int, l: int, p: int, q: int) -> Graph:
    """Two vertices: k semis and m loops at one, q semis and p loops at the
    other, joined by l parallel edges.  l must be positive; for l = 0 use a
    disjoint union of one-vertex graphs instead."""
    if l < 1:
        raise ValueError("the two-vertex family needs at least one connecting edge")
    if min(k, m, p, q) < 0:
        raise ValueError("negative multiplicity")
    gb = GraphBuilder()
    a = gb.add_vertex()
    b = gb.add_vertex()
    for _ in range(k):
        gb.add_semi(a)
    for _ in range(m):
        gb.add_loop(a)
    for _ in range(l):
        gb.add_edge(a, b)
    for _ in range(p):
        gb.add_loop(b)
    for _ in range(q):
        gb.add_semi(b)
    return gb.build()


def build_WD(m: int, l: int, m2: int) -> Graph:
    """Directed two-vertex family: m loops at one vertex, m2 at the other,
    l edges in each direction.  Direction is encoded by the ordered dart
    color pair (1, 2), so this builder emits colored darts by necessity."""
    if l < 1:
        raise ValueError("the directed two-vertex family needs connecting edges")
    if min(m, m2) < 0:
        raise ValueError("negative multiplicity")
    gb = GraphBuilder()
    a = gb.add_vertex()
    b = gb.add_vertex()
    for _ in range(m):
        gb.add_loop(a, (1, 2))
    for _ in range(l):
        gb.add_edge(a, b, (1, 2))
    for _ in range(l):
        gb.add_edge(b, a, (1, 2))
    for _ in range(m2):
        gb.add_loop(b, (1, 2))
    return gb.build()


def cycle(n: int) -> Graph:
    """Cycle on n vertices; cycle(1) is a loop, cycle(2) a double edge."""
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    gb = GraphBuilder()
    vs = [gb.add_vertex() for _ in range(n)]
    if n == 1:
        gb.add_loop(vs[0])
    else:
        for i in range(n):
            gb.add_edge(vs[i], vs[(i + 1) % n])
    return gb.build()


def path(n: int, *, semi_ends: bool = False) -> Graph:
    """Path on n vertices, optionally closed off by semi-edges at both ends."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    gb = GraphBuilder()
    vs = [gb.add_vertex() for _ in range(n)]
    if semi_ends:
        gb.add_semi(vs[0])
    for i in range(n - 1):
        gb.add_edge(vs[i], vs[i + 1])
    if semi_ends:
        gb.add_semi(vs[-1])
    return gb.build()


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("complete graph needs a non-negative size")
    gb = GraphBuilder()
    vs = [gb.add_vertex() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gb.add_edge(vs[i], vs[j])
    return gb.build()


def complete_bipartite(a: int, b: int) -> Graph:
    if min(a, b) < 0:
        raise ValueError("complete bipartite graph needs non-negative sides")
    gb = GraphBuilder()
    left = [gb.add_vertex() for _ in range(a)]
    right = [gb.add_vertex() for _ in range(b)]
    for u in left:
        for w in right:
            gb.add_edge(u, w)
    return gb.build()


def petersen() -> Graph:
    """Outer 5-cycle, inner 5-cycle at step two, joined by spokes."""
    gb = GraphBuilder()
    vs = [gb.add_vertex() for _ in range(10)]
    for i in range(5):
        gb.add_edge(vs[i], vs[(i + 1) % 5])
    for i in range(5):
        gb.add_edge(vs[i], vs[i + 5])
    for i in range(5):
        gb.add_edge(vs[5 + i], vs[5 + (i + 2) % 5])
    return gb.build()


def double_cover(g: Graph) -> tuple[Graph, DartMapping]:
    """Canonical bipartite double: two sheets, links crossing between them.

    Dart d becomes darts 2d and 2d+1, vertex u becomes 2u and 2u+1.  Dart
    2d and the sheet-1 copy of d's mate, 2 mate(d) + 1, form one edge, and
    the edges are numbered dart by dart in the order of g's links.  So a
    semi-edge {d} becomes the edge {2d, 2d+1} and a loop or edge {d, d'}
    becomes the two edges {2d, 2d'+1} and {2d', 2d+1}.  The result has no
    loops and no semi-edges, and projecting both copies of a dart back onto
    it is a 2-fold covering of g.  Colors are inherited.
    """
    link_of = [0] * (2 * g.n_darts)
    for l, d in enumerate(chain.from_iterable(g.links)):
        link_of[2 * d] = link_of[2 * g.mate[d] + 1] = l
    g2 = Graph(2 * g.n, [2 * v + s for v in g.vertex_of for s in (0, 1)], link_of,
               [c for c in g.dart_color for _ in (0, 1)],
               [c for c in g.vertex_color for _ in (0, 1)],
               [f"{name}_{sheet}" for name in g.names for sheet in "ab"])
    proj = DartMapping(tuple(d // 2 for d in range(2 * g.n_darts)),
                       tuple(u // 2 for u in range(2 * g.n)))
    return g2, proj


def gen_binpacking(xs: list[int], bins: int) -> tuple[Graph, Graph]:
    """Bin packing as a covering instance: can cycles of the given lengths
    be distributed over `bins` loop vertices with equal total length?  The
    target is a disjoint union of one-loop vertices; equal fiber sizes over
    its components encode equal bin loads."""
    if bins < 1 or not xs or any(x < 1 for x in xs):
        raise ValueError("need at least one positive size and one bin")
    g = disjoint_union([cycle(x) for x in xs])
    h = disjoint_union([build_F(0, 1) for _ in range(bins)])
    return g, h
