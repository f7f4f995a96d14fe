"""Standard constructions: families, named graphs, double cover, reductions."""

import random

import pytest

from semicover.build import (build_F, build_W, build_WD, complete,
                             complete_bipartite, cycle, double_cover,
                             gen_binpacking, path, petersen)
from semicover.canon import isomorphic
from semicover.cover import find_cover, verify_cover
from semicover.graph import (EDGE, LOOP, SEMI, components, disjoint_union,
                             is_bipartite, is_connected, is_regular, is_simple)
from util import assert_cover_ok, connected_multigraphs, random_graph


def kinds(g):
    return sorted(g.link_kind(l) for l in range(g.n_links))


def test_build_f():
    g = build_F(2, 3)
    assert g.n == 1
    assert kinds(g).count(SEMI) == 2
    assert kinds(g).count(LOOP) == 3
    assert g.degree(0) == 8
    assert build_F(0, 0).n_darts == 0
    with pytest.raises(ValueError, match="negative multiplicity"):
        build_F(-1, 0)


def test_build_w():
    g = build_W(1, 2, 3, 4, 5)
    assert g.n == 2
    # vertex 0: 1 semi + 2 loops + 3 bars; vertex 1: 5 semis + 4 loops + 3 bars
    assert g.degree(0) == 1 + 4 + 3
    assert g.degree(1) == 5 + 8 + 3
    assert kinds(g).count(EDGE) == 3
    with pytest.raises(ValueError, match="negative multiplicity"):
        build_W(0, 0, 1, -1, 0)


def test_build_wd():
    g = build_WD(2, 1, 1)
    assert g.n == 2
    # directed loops appear as ordinary loops with an ordered color pair
    loops = [l for l in range(g.n_links) if g.link_kind(l) == LOOP]
    bars = [l for l in range(g.n_links) if g.link_kind(l) == EDGE]
    assert len(loops) == 3 and len(bars) == 2
    colorsets = {tuple(sorted(g.dart_color[d] for d in g.links[l]))
                 for l in range(g.n_links)}
    assert colorsets == {(1, 2)}
    with pytest.raises(ValueError, match="needs connecting edges"):
        build_WD(0, 0, 0)
    with pytest.raises(ValueError, match="negative multiplicity"):
        build_WD(-1, 1, 0)


def test_cycles_paths():
    assert cycle(1).n_links == 1 and cycle(1).link_kind(0) == LOOP
    assert cycle(2).n_links == 2 and kinds(cycle(2)) == [EDGE, EDGE]
    c6 = cycle(6)
    assert c6.n == 6 and is_regular(c6) and is_connected(c6)
    p3 = path(3)
    assert p3.n_links == 2
    assert path(1, semi_ends=True).n_links in (1, 2)
    with pytest.raises(ValueError):
        cycle(0)
    with pytest.raises(ValueError, match="path needs at least one vertex"):
        path(0)


def test_complete_graphs():
    k5 = complete(5)
    assert k5.n_links == 10 and is_simple(k5)
    k23 = complete_bipartite(2, 3)
    assert is_bipartite(k23)
    assert sorted(k23.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
    for bad in (lambda: complete(-2), lambda: complete_bipartite(-1, 2),
                lambda: complete_bipartite(2, -1)):
        with pytest.raises(ValueError):
            bad()


def test_petersen_structure():
    p = petersen()
    assert p.n == 10 and p.n_links == 15
    assert is_simple(p) and is_regular(p) and is_connected(p)
    assert not is_bipartite(p)
    # girth 5: no cover of C3 or C4 structure needed; simplest check is that
    # the complement of edges among any neighborhood is total (no triangles)
    adj = [set() for _ in range(10)]
    for l in range(p.n_links):
        u, w = p.link_ends(l)
        adj[u].add(w)
        adj[w].add(u)
    assert all(not (adj[u] & adj[w]) for u in range(10) for w in adj[u])


def test_double_cover_is_cover():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 5), rng.randrange(0, 6),
                         colors=(0, 1))
        g2, f = double_cover(g)
        assert g2.n == 2 * g.n
        assert verify_cover(g2, g, f, check_fibers=True) == []


def _per_link_double_cover(g):
    """double_cover's arrays as they were built before darts knew their
    mates: one loop over g's links, a semi-edge {d} becomes the edge
    {2d, 2d+1} and a loop or edge {d, d'} the edges {2d, 2d'+1} and
    {2d', 2d+1}, in this order."""
    vertex_of = [0] * (2 * g.n_darts)
    link_of = [0] * (2 * g.n_darts)
    dart_color = [0] * (2 * g.n_darts)
    for d in range(g.n_darts):
        for s in (0, 1):
            vertex_of[2 * d + s] = 2 * g.vertex_of[d] + s
            dart_color[2 * d + s] = g.dart_color[d]
    nl = 0
    for l in range(g.n_links):
        cell = g.links[l]
        if len(cell) == 1:
            d = cell[0]
            link_of[2 * d] = link_of[2 * d + 1] = nl
            nl += 1
        else:
            d, d2 = cell
            link_of[2 * d] = link_of[2 * d2 + 1] = nl
            nl += 1
            link_of[2 * d2] = link_of[2 * d + 1] = nl
            nl += 1
    vertex_color = [g.vertex_color[u // 2] for u in range(2 * g.n)]
    names = [f"{g.names[u // 2]}_{'ab'[u % 2]}" for u in range(2 * g.n)]
    proj = (tuple(d // 2 for d in range(2 * g.n_darts)), tuple(u // 2 for u in range(2 * g.n)))
    return (tuple(vertex_of), tuple(link_of), tuple(dart_color), tuple(vertex_color),
            tuple(names), proj)


def test_double_cover_matches_per_link_reference():
    rng = random.Random(17)
    graphs = list(connected_multigraphs(8))
    graphs += [random_graph(rng, rng.randrange(1, 6), rng.randrange(0, 9), colors=(0, 1, 2))
               for _ in range(200)]
    for g in graphs:
        g2, f = double_cover(g)
        got = (g2.vertex_of, g2.link_of, g2.dart_color, g2.vertex_color, g2.names,
               (f.dart_map, f.vertex_map))
        assert got == _per_link_double_cover(g)


def test_double_cover_no_loops_semis():
    g = build_F(2, 2)
    g2, f = double_cover(g)
    assert kinds(g2).count(LOOP) == 0
    assert kinds(g2).count(SEMI) == 0
    assert_cover_ok(g2, g, f, check_fibers=True)
    # loops become edges between the two layers, semis become one edge
    assert g2.n == 2


def test_double_cover_bipartite_splits():
    # the double cover of a bipartite graph is two disjoint copies
    c6 = cycle(6)
    g2, _ = double_cover(c6)
    comps = components(g2)
    assert len(comps) == 2
    assert all(isomorphic(c.graph, c6) for c in comps)

    # nonbipartite connected graph lifts to a connected double cover
    c5 = cycle(5)
    h2, _ = double_cover(c5)
    assert is_connected(h2)
    assert isomorphic(h2, cycle(10))


def test_double_cover_cover_transfer():
    # G' bipartite: G' covers G iff G' covers the double cover, spot cases
    c12, c6, c3 = cycle(12), cycle(6), cycle(3)
    c3x2, _ = double_cover(c3)
    assert find_cover(c6, c3) is not None
    assert find_cover(c6, c3x2) is not None
    assert find_cover(c12, c3x2) is not None
    k33 = complete_bipartite(3, 3)
    k4 = complete(4)
    k4x2, _ = double_cover(k4)
    got_direct = find_cover(k33, k4)
    got_lifted = find_cover(k33, k4x2)
    assert (got_direct is None) and (got_lifted is None)


def test_binpacking_shapes():
    g, h = gen_binpacking([2, 3, 2], 2)
    gc = components(g)
    assert sorted(c.graph.n for c in gc) == [2, 2, 3]
    assert all(is_regular(c.graph) and c.graph.degree(0) == 2 for c in gc)
    hc = components(h)
    assert len(hc) == 2
    assert all(c.graph.n == 1 for c in hc)
    assert all(kinds(c.graph) == [LOOP] for c in hc)


def test_binpacking_rejects_bad_input():
    with pytest.raises(ValueError):
        gen_binpacking([], 2)
    with pytest.raises(ValueError):
        gen_binpacking([0, 2], 2)
    with pytest.raises(ValueError):
        gen_binpacking([1, 2], 0)
