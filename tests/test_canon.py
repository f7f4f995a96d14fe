"""Isomorphism testing and canonical deduplication."""

import gc
import random

import networkx as nx
import pytest

from semicover import generate
from semicover.build import build_F, complete, complete_bipartite, cycle, petersen
from semicover.canon import (CanonicalSet, _certificate, _first_leaf, _mask_certificate,
                             _mask_state, _reaches, isomorphic)
from semicover.generate import _from_masks, _masks, connected_simple_graphs
from semicover.graph import Graph, GraphBuilder, disjoint_union
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


def cube():
    gb = GraphBuilder()
    for _ in range(8):
        gb.add_vertex()
    for u in range(8):
        for bit in (1, 2, 4):
            if u < u ^ bit:
                gb.add_edge(u, u ^ bit)
    return gb.build()


def triple_edge_square():
    gb = GraphBuilder()
    for _ in range(4):
        gb.add_vertex()
    for u in range(4):
        for _ in range(3):
            gb.add_edge(u, (u + 1) % 4)
    return gb.build()


# vertex-transitive or nearly so: the search leans on automorphism pruning
SYMMETRIC = [complete(6), complete_bipartite(3, 3), cube(), petersen(),
             disjoint_union([cycle(3), cycle(3)]), build_F(0, 3), triple_edge_square()]


def test_isomorphic_relabelings():
    rng = random.Random(3)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(1, 7), rng.randrange(0, 9),
                         colors=(0, 1))
        assert isomorphic(g, shuffled_copy(g, rng))
    for g in SYMMETRIC:
        for _ in range(3):
            assert isomorphic(g, shuffled_copy(g, rng))
    for i, g in enumerate(SYMMETRIC):
        for h in SYMMETRIC[i + 1:]:
            assert not isomorphic(g, h)


def test_twins_and_components_keep_the_search_small():
    # Without twin pruning a star costs about n^2 refinements, and without
    # the split into components a union of triangles about as many.
    rng = random.Random(4)
    for g in (complete_bipartite(1, 300), complete_bipartite(2, 100),
              disjoint_union([cycle(3)] * 300)):
        assert isomorphic(g, shuffled_copy(g, rng))
    assert not isomorphic(disjoint_union([cycle(3)] * 300),
                          disjoint_union([cycle(3)] * 298 + [cycle(6)]))


def incidence_graph(g):
    """g as a plain labelled graph: vertex, dart and link nodes, with the
    vertex color, the dart color and the link size as labels."""
    x = nx.Graph()
    for v in range(g.n):
        x.add_node(("v", v), label=("v", g.vertex_color[v]))
    for l, ds in enumerate(g.links):
        x.add_node(("l", l), label=("l", len(ds)))
    for d in range(g.n_darts):
        x.add_node(("d", d), label=("d", g.dart_color[d]))
        x.add_edge(("d", d), ("v", g.vertex_of[d]))
        x.add_edge(("d", d), ("l", g.link_of[d]))
    return x


def nx_isomorphic(g1, g2):
    return nx.is_isomorphic(incidence_graph(g1), incidence_graph(g2),
                            node_match=lambda a, b: a["label"] == b["label"])


def colored_multigraph(rng):
    """Random multigraph with loops, semi-edges, parallel edges and colored
    vertices and darts."""
    n = rng.randrange(1, 8)
    g = random_graph(rng, n, rng.randrange(0, 2 * n + 3), colors=(0, 1))
    return Graph(g.n, g.vertex_of, g.link_of, g.dart_color,
                 [rng.choice((0, 0, 1)) for _ in range(g.n)])


def nudged_copy(g, rng):
    """g with one dart moved to another vertex or given another color."""
    d = rng.randrange(g.n_darts)
    vertex_of, dart_color = list(g.vertex_of), list(g.dart_color)
    if g.n > 1 and rng.random() < 0.5:
        vertex_of[d] = rng.choice([v for v in range(g.n) if v != vertex_of[d]])
    else:
        dart_color[d] = rng.choice([c for c in (0, 1, 2) if c != dart_color[d]])
    return Graph(g.n, vertex_of, g.link_of, dart_color, g.vertex_color)


def test_isomorphic_matches_networkx():
    rng = random.Random(17)
    same = differ = 0
    for _ in range(300):
        g = colored_multigraph(rng)
        h = shuffled_copy(g, rng)
        if g.n_darts and rng.random() < 0.6:
            h = shuffled_copy(nudged_copy(g, rng), rng)
        want = nx_isomorphic(g, h)
        assert isomorphic(g, h) == want, (g.links, h.links)
        same += want
        differ += not want
    assert same > 100 and differ > 100


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


def test_canonical_set_keeps_first_representatives_in_order():
    rng = random.Random(8)
    cs = CanonicalSet()
    firsts = []
    for g in SYMMETRIC + [cycle(6), petersen()]:
        copies = [g] + [shuffled_copy(g, rng) for _ in range(2)]
        rng.shuffle(copies)
        new = [cs.add(c) for c in copies]
        if any(new):
            assert new == [True, False, False]
            firsts.append(copies[0])
        else:
            assert not any(new)
    assert len(firsts) == len(SYMMETRIC) + 1
    assert all(a is b for a, b in zip(cs, firsts)) and len(list(cs)) == len(firsts)


def relabelled(masks, perm):
    """The neighbour bitmasks of the graph with vertex v renamed perm[v]."""
    out = [0] * len(masks)
    for v, m in enumerate(masks):
        out[perm[v]] = sum(1 << perm[w] for w in range(len(masks)) if m >> w & 1)
    return out


def random_connected_masks(rng, n):
    """A random spanning tree on n vertices plus random extra edges."""
    masks = [0] * n
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    if n > 1:
        edges += [rng.sample(range(n), 2) for _ in range(rng.randrange(2 * n))]
    for u, w in edges:
        masks[u] |= 1 << w
        masks[w] |= 1 << u
    return masks


def test_mask_certificate_matches_graph_certificate():
    rng = random.Random(11)
    cases = [_masks(g) for n in range(1, 7) for g in connected_simple_graphs(n)]
    cases += [random_connected_masks(rng, rng.randrange(1, 11)) for _ in range(300)]
    for masks in cases:
        perm = list(range(len(masks)))
        rng.shuffle(perm)
        cert = _mask_certificate(masks)[0]
        assert cert == _certificate(_from_masks(len(masks), masks)), masks
        assert _mask_certificate(relabelled(masks, perm))[0] == cert, masks
    with pytest.raises(ValueError):
        _mask_certificate([0, 0])


def with_twin(masks, v, closed):
    """The masks with one more vertex, an open or closed twin of v."""
    n = len(masks)
    twin = masks[v] | (1 << v if closed else 0)
    return [m | (twin >> w & 1) << n for w, m in enumerate(masks)] + [twin]


def test_canonical_labelling_gives_one_adjacency_per_class():
    rng = random.Random(12)
    for _ in range(300):
        masks = random_connected_masks(rng, rng.randrange(1, 11))
        cert, _, label = _mask_certificate(masks)
        assert sorted(label) == list(range(len(masks)))
        canonical = relabelled(masks, label)
        for _ in range(3):
            perm = list(range(len(masks)))
            rng.shuffle(perm)
            copy = relabelled(masks, perm)
            got, _, copy_label = _mask_certificate(copy)
            assert got == cert
            assert relabelled(copy, copy_label) == canonical, masks


def test_mask_certificate_generates_the_automorphism_group():
    # canonical augmentation in connected_simple_graphs reads orbits from
    # these generators: a proper subgroup would drop or repeat classes
    rng = random.Random(13)
    cases = [_masks(g) for g in (complete(6), complete_bipartite(3, 3), cube(),
                                 petersen(), cycle(7))]
    for _ in range(150):
        masks = random_connected_masks(rng, rng.randrange(1, 9))
        cases.append(masks)
        if 1 < len(masks) < 8:
            cases.append(with_twin(masks, rng.randrange(len(masks)), rng.random() < 0.5))
    for masks in cases:
        n = len(masks)
        gens = _mask_certificate(masks)[1]
        assert all(relabelled(masks, gam) == masks for gam in gens)
        group = {tuple(range(n))}
        todo = list(group)
        while todo:
            p = todo.pop()
            for gam in gens:
                q = tuple(gam[x] for x in p)
                if q not in group:
                    group.add(q)
                    todo.append(q)
        x = nx.Graph([(u, w) for u in range(n) for w in range(u) if masks[u] >> w & 1])
        x.add_nodes_from(range(n))
        want = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(x, x).isomorphisms_iter())
        assert len(group) == want, masks


def test_reaches_decides_isomorphism(monkeypatch):
    # generation skips a state when _reaches finds the first leaf of an
    # earlier state with the same root invariant: a false hit loses a class,
    # and a false miss costs certificates, which no output of generation shows
    rng = random.Random(14)
    cases = [_masks(g) for g in (complete(5), complete_bipartite(3, 3), cube(), petersen(),
                                 cycle(9))]
    cases += [random_connected_masks(rng, rng.randrange(1, 11)) for _ in range(300)]
    for masks in cases:
        perm = list(range(len(masks)))
        rng.shuffle(perm)
        traces = _first_leaf(_mask_state(masks)[1])
        assert _reaches(_mask_state(relabelled(masks, perm))[1], traces), masks

    states = {}
    real = generate._mask_state

    def recorded(masks):
        states.setdefault(tuple(masks), None)
        return real(masks)

    monkeypatch.setattr(generate, "_mask_state", recorded)
    generate.connected_regular_graphs(9, 4)
    generate.connected_regular_graphs(10, 4)
    buckets = {}
    for masks in states:
        root, state = _mask_state(list(masks))
        buckets.setdefault(root, []).append((state, _mask_certificate(list(masks))[0]))
    hits = misses = 0
    for members in buckets.values():
        for state, cert in members[:4]:
            traces = _first_leaf(state)
            for other, other_cert in members:
                got = _reaches(other, traces)
                assert got == (other_cert == cert)
                hits += got
                misses += not got
    assert hits > 1500 and misses > 1000, (hits, misses)


def unreachable_after(call):
    """The objects that only the cyclic gc frees after call: a certificate
    or a generator run that leaves a reference cycle behind counts them."""
    gc.collect()
    gc.disable()
    try:
        call()
    finally:
        found = gc.collect()
        gc.enable()
    return found


def test_certificates_leave_no_reference_cycles():
    masks = _masks(petersen())
    assert unreachable_after(lambda: _mask_certificate(masks)) == 0
    assert unreachable_after(lambda: _certificate(petersen())) == 0
    assert unreachable_after(lambda: generate.connected_regular_graphs(10, 3)) == 0
    assert unreachable_after(lambda: generate.connected_regular_graphs(8, 4)) == 0
