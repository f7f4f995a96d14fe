"""Isomorphism testing and canonical deduplication."""

import random

from semicover.build import build_F, complete, cycle, petersen
from semicover.canon import CanonicalSet, isomorphic
from semicover.graph import GraphBuilder, disjoint_union
from util import random_graph


def shuffled_copy(g, rng):
    """Rebuild g under a random vertex relabeling."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    gb = GraphBuilder()
    order = sorted(range(g.n), key=lambda v: perm[v])
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        gb.add_vertex(color=g.vertex_color[v])
    links = list(range(g.n_links))
    rng.shuffle(links)
    for l in links:
        ds = g.links[l]
        if len(ds) == 1:
            gb.add_semi(pos[g.vertex_of[ds[0]]], color=g.dart_color[ds[0]])
        else:
            u, w = g.vertex_of[ds[0]], g.vertex_of[ds[1]]
            cols = (g.dart_color[ds[0]], g.dart_color[ds[1]])
            if u == w:
                gb.add_loop(pos[u], colors=cols)
            else:
                gb.add_edge(pos[u], pos[w], colors=cols)
    return gb.build()


def test_isomorphic_relabelings():
    rng = random.Random(3)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(1, 7), rng.randrange(0, 9),
                         colors=(0, 1))
        assert isomorphic(g, shuffled_copy(g, rng))


def test_non_isomorphic_same_degrees():
    # both 2-regular on 6 vertices
    c6 = cycle(6)
    two_triangles = disjoint_union([cycle(3), cycle(3)])
    assert not isomorphic(c6, two_triangles)


def test_colors_matter():
    gb = GraphBuilder()
    a, b = gb.add_vertex(), gb.add_vertex()
    gb.add_edge(a, b, colors=(1, 2))
    g1 = gb.build()
    gb = GraphBuilder()
    a, b = gb.add_vertex(), gb.add_vertex()
    gb.add_edge(a, b, colors=(1, 1))
    g2 = gb.build()
    assert not isomorphic(g1, g2)

    gb = GraphBuilder()
    gb.add_vertex(color=7)
    g3 = gb.build()
    gb = GraphBuilder()
    gb.add_vertex()
    g4 = gb.build()
    assert not isomorphic(g3, g4)


def test_semis_loops_distinguished():
    gb = GraphBuilder()
    a = gb.add_vertex()
    gb.add_semi(a)
    gb.add_semi(a)
    two_semis = gb.build()
    one_loop = build_F(0, 1)
    assert two_semis.degree(0) == one_loop.degree(0) == 2
    assert not isomorphic(two_semis, one_loop)


def test_regular_pairs():
    assert not isomorphic(petersen(), complete(4))
    p2 = shuffled_copy(petersen(), random.Random(9))
    assert isomorphic(petersen(), p2)


def test_canonical_set_counts():
    rng = random.Random(5)
    cs = CanonicalSet()
    base = [cycle(4), cycle(5), complete(4), build_F(2, 1), petersen()]
    added = 0
    for g in base:
        if cs.add(g):
            added += 1
    assert added == 5 and len(cs) == 5
    for g in base:
        for _ in range(3):
            assert not cs.add(shuffled_copy(g, rng))
    assert len(cs) == 5
    assert sorted(x.n for x in cs) == sorted(g.n for g in base)
