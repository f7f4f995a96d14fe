"""Matching, edge splitting and 2-factor machinery."""

import random

import networkx as nx

from semicover.build import build_F, complete, cycle, path, petersen
from semicover.dichotomy import decide_colored
from semicover.graph import EDGE, LOOP, SEMI, GraphBuilder
from semicover.matching import (exact_link_cover, konig_split, kuhn_matching,
                                two_factor_orientations)
from util import (assert_cover_ok, perturb, random_graph, random_lift,
                  reference_konig_split)


def test_kuhn_basic():
    links = [(i, j, 3 * i + j) for i in range(3) for j in range(3)]
    m = kuhn_matching(3, 3, links)
    assert all(x is not None for x in m)
    rights = [links[x][1] for x in m]
    assert sorted(rights) == [0, 1, 2]


def test_kuhn_partial_when_unsaturable():
    # three lefts into two rights: at most two get matched
    m = kuhn_matching(3, 2, [(0, 0, 0), (1, 0, 1), (1, 1, 2), (2, 1, 3)])
    assert sum(x is not None for x in m) == 2
    m2 = kuhn_matching(2, 2, [(0, 0, 0), (1, 0, 1), (1, 1, 2)])
    assert all(x is not None for x in m2)


def test_kuhn_parallel_links_keep_identity():
    links = [(0, 0, 7), (0, 0, 9)]
    m = kuhn_matching(1, 1, links)
    assert m[0] in (7, 9)


def _kuhn_recursive(n_left, n_right, links):
    """kuhn_matching with its augmenting search written recursively: the
    reference whose matchings the iterative search must reproduce."""
    adj = [[] for _ in range(n_left)]
    for u, w, lid in links:
        adj[u].append((w, lid))
    match_right = [None] * n_right

    def augment(u, seen):
        for w, lid in adj[u]:
            if seen[w]:
                continue
            seen[w] = True
            if match_right[w] is None or augment(match_right[w][0], seen):
                match_right[w] = (u, lid)
                return True
        return False

    for u in range(n_left):
        augment(u, [False] * n_right)
    match_left = [None] * n_left
    for w, entry in enumerate(match_right):
        if entry is not None:
            match_left[entry[0]] = entry[1]
    return match_left


def test_kuhn_matches_recursive_reference():
    rng = random.Random(17)
    for trial in range(600):
        n_left = rng.randrange(1, 60 if trial % 10 == 0 else 12)
        n_right = rng.randrange(1, n_left + 3)
        ids = list(range(rng.randrange(3 * n_left + 1)))
        rng.shuffle(ids)
        links = [(rng.randrange(n_left), rng.randrange(n_right), lid) for lid in ids]
        assert kuhn_matching(n_left, n_right, links) == \
            _kuhn_recursive(n_left, n_right, links)


def test_deep_augmenting_paths_need_no_recursion():
    # Splitting this lift's 2-factors walks augmenting paths longer than
    # the interpreter's default recursion limit.
    h = build_F(1, 2)
    g = random_lift(h, 1500, random.Random(1))
    verdict = decide_colored(g, h)
    assert verdict.answer
    assert_cover_ok(g, h, verdict.witness)


def test_konig_split_k33():
    links = [(i, j, 3 * i + j) for i in range(3) for j in range(3)]
    parts = konig_split(3, 3, links, 3)
    assert parts is not None and len(parts) == 3
    seen = set()
    for part in parts:
        assert len(part) == 3
        assert sorted(u for u, _, _ in part) == [0, 1, 2]
        assert sorted(w for _, w, _ in part) == [0, 1, 2]
        seen.update(lid for _, _, lid in part)
    assert len(seen) == 9


def test_konig_split_rejects_irregular():
    links = [(0, 0, 0), (0, 1, 1), (1, 0, 2)]
    assert konig_split(2, 2, links, 2) is None
    # unequal sides: no perfect matching, even with no links to match
    assert konig_split(2, 1, [(0, 0, 0), (1, 0, 1)], 1) is None
    assert konig_split(2, 1, [], 0) is None


def test_konig_split_parallel():
    # double edge between single pair: 2-regular, two matchings
    links = [(0, 0, 0), (0, 0, 1)]
    parts = konig_split(1, 1, links, 2)
    assert parts is not None
    assert sorted(p[0][2] for p in parts) == [0, 1]


def test_konig_split_matches_kuhn_per_matching_reference():
    """konig_split takes what k - 1 Kuhn searches leave as the last
    matching; the split is the one a k-th search gives, on seeded
    k-regular bipartite multigraphs with shuffled links and link ids."""
    rng = random.Random(31)
    for k in (1, 2, 3, 4):
        for _ in range(40):
            n = rng.randrange(1, 8)
            links = []
            for _ in range(k):
                perm = list(range(n))
                rng.shuffle(perm)
                links += [(u, w) for u, w in enumerate(perm)]
            rng.shuffle(links)
            ids = rng.sample(range(10 * len(links)), len(links))
            links = [(u, w, i) for (u, w), i in zip(links, ids)]
            split = konig_split(n, n, links, k)
            assert split == reference_konig_split(n, n, links, k)
            assert len(split) == k
            assert all(sorted(u for u, _, _ in m) == list(range(n)) for m in split)
            assert all(sorted(w for _, w, _ in m) == list(range(n)) for m in split)


def test_exact_link_cover_cycles():
    assert exact_link_cover(cycle(6)) is not None
    assert exact_link_cover(cycle(5)) is None
    assert exact_link_cover(cycle(4)) is not None


def cover_counts(g, chosen):
    counts = [0] * g.n
    for l in chosen:
        for d in g.links[l]:
            counts[g.vertex_of[d]] += 1
    return counts


def test_exact_link_cover_semis():
    # C5 plus one semi-edge: the semi covers its vertex, edges the rest
    gb = GraphBuilder()
    vs = [gb.add_vertex() for _ in range(5)]
    for i in range(5):
        gb.add_edge(vs[i], vs[(i + 1) % 5])
    gb.add_semi(vs[0])
    g = gb.build()
    chosen = exact_link_cover(g)
    assert chosen is not None
    assert cover_counts(g, chosen) == [1] * g.n


def test_exact_link_cover_force_all_semis():
    # two semis at one vertex cannot both be used
    gb = GraphBuilder()
    a = gb.add_vertex()
    gb.add_semi(a)
    gb.add_semi(a)
    g = gb.build()
    assert exact_link_cover(g) is None

    # odd interior: semis cover the ends, middle vertex is stranded
    assert exact_link_cover(path(3, semi_ends=True)) is None

    # even interior: semis at the ends plus the middle edge
    p4 = path(4, semi_ends=True)
    chosen = exact_link_cover(p4)
    assert chosen is not None
    assert cover_counts(p4, chosen) == [1] * 4
    assert sorted(len(p4.links[l]) for l in chosen) == [1, 1, 2]


def test_loops_unusable_in_link_cover():
    gb = GraphBuilder()
    a = gb.add_vertex()
    gb.add_loop(a)
    g = gb.build()
    assert exact_link_cover(g) is None


def check_factors(g, factors, c, link_ids=None):
    """Each factor is a list of (out, in) arcs of link mates in which every
    vertex is once a tail and once a head; together they use every listed
    link once."""
    assert factors is not None and len(factors) == c
    used = []
    for fac in factors:
        assert sorted(g.vertex_of[out] for out, _ in fac) == list(range(g.n))
        assert sorted(g.vertex_of[inn] for _, inn in fac) == list(range(g.n))
        for out, inn in fac:
            assert g.mate[out] == inn
            used.append(g.link_of[out])
    assert sorted(used) == sorted(range(g.n_links) if link_ids is None else link_ids)


def test_two_factor_cycle():
    c5 = cycle(5)
    check_factors(c5, two_factor_orientations(c5), 1)


def test_two_factor_k5():
    k5 = complete(5)
    check_factors(k5, two_factor_orientations(k5), 2)


def test_two_factor_loops_and_multiedges():
    gb = GraphBuilder()
    a = gb.add_vertex()
    gb.add_loop(a)
    gb.add_loop(a)
    g = gb.build()
    check_factors(g, two_factor_orientations(g), 2)

    gb = GraphBuilder()
    a, b = gb.add_vertex(), gb.add_vertex()
    gb.add_loop(a)
    gb.add_loop(b)
    gb.add_edge(a, b)
    gb.add_edge(a, b)
    g2 = gb.build()
    check_factors(g2, two_factor_orientations(g2), 2)


def test_two_factors_of_listed_links_only():
    # The F(1,c) path: the links left after an exact link cover split into
    # c 2-factors, and the cover's links appear in none of them.
    rng = random.Random(5)
    for g, c in [(petersen(), 1), (random_lift(build_F(1, 1), 12, rng), 1),
                 (random_lift(build_F(1, 2), 15, rng), 2)]:
        cover = set(exact_link_cover(g))
        rest = [l for l in range(g.n_links) if l not in cover]
        assert cover and rest
        check_factors(g, two_factor_orientations(g, rest), c, rest)
    # C4 less one of its links is a path: no 2-factor
    assert two_factor_orientations(cycle(4), [0, 1, 2]) is None


def test_two_factor_odd_degree_rejected():
    assert two_factor_orientations(complete(4)) is None  # 3-regular
    assert two_factor_orientations(path(3)) is None      # not regular
    gb = GraphBuilder()
    a = gb.add_vertex()
    gb.add_semi(a)
    gb.add_semi(a)
    assert two_factor_orientations(gb.build()) is None   # semis excluded


def test_eulerian_balance_regression():
    # triple edge plus a loop at each end: 5 is odd, so extend to the
    # balanced variant with loops contributing 2 everywhere
    gb = GraphBuilder()
    a, b = gb.add_vertex(), gb.add_vertex()
    gb.add_loop(a)
    gb.add_loop(b)
    gb.add_edge(a, b)
    gb.add_edge(a, b)
    g = gb.build()
    factors = two_factor_orientations(g)
    check_factors(g, factors, 2)


def test_random_regular_two_factors():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(3, 7)
        c = rng.randrange(1, 3)
        # a 2c-regular multigraph: union of c random cycle covers
        gb = GraphBuilder()
        vs = [gb.add_vertex() for _ in range(n)]
        for _ in range(c):
            perm = list(range(n))
            rng.shuffle(perm)
            seen = [False] * n
            for s in range(n):
                if seen[s]:
                    continue
                cyc = [s]
                seen[s] = True
                t = perm[s]
                while t != s:
                    cyc.append(t)
                    seen[t] = True
                    t = perm[t]
                if len(cyc) == 1:
                    gb.add_loop(vs[cyc[0]])
                else:
                    for i, u in enumerate(cyc):
                        w = cyc[(i + 1) % len(cyc)]
                        gb.add_edge(vs[u], vs[w])
        g = gb.build()
        factors = two_factor_orientations(g)
        assert factors is not None, "2c-regular multigraph must split"
        assert len(factors) == c


def _reference_cover_exists(g):
    """Whether an exact link cover exists, decided with networkx's weighted
    blossom as a cardinality oracle: the reference for exact_link_cover."""
    semis = [0] * g.n
    choice = {}
    for l in range(g.n_links):
        if g.link_kind(l) == SEMI:
            semis[g.vertex_of[g.links[l][0]]] += 1
        elif g.link_kind(l) == EDGE:
            u, w = g.link_ends(l)
            choice.setdefault((min(u, w), max(u, w)), l)
    if max(semis, default=0) > 1:
        return False
    need = {v for v in range(g.n) if not semis[v]}
    gx = nx.Graph()
    gx.add_nodes_from(sorted(need))
    gx.add_edges_from(uw for uw in sorted(choice) if set(uw) <= need)
    return 2 * len(nx.max_weight_matching(gx, maxcardinality=True)) == len(need)


def _check_against_reference(g):
    chosen = exact_link_cover(g)
    assert (chosen is not None) == _reference_cover_exists(g)
    if chosen is None:
        return
    assert chosen == sorted(set(chosen))
    assert all(g.link_kind(l) != LOOP for l in chosen)
    assert cover_counts(g, chosen) == [1] * g.n
    assert all(l in chosen for l in range(g.n_links) if g.link_kind(l) == SEMI)


def test_exact_link_cover_matches_networkx_on_all_small_graphs():
    # Every graph on at most 5 vertices, up to isomorphism, with a
    # semi-edge at each vertex of every subset.
    for gx in nx.graph_atlas_g():
        n = gx.number_of_nodes()
        if n > 5:
            break
        for semis in range(1 << n):
            gb = GraphBuilder()
            for v in range(n):
                gb.add_vertex()
                if semis >> v & 1:
                    gb.add_semi(v)
            for u, w in gx.edges():
                gb.add_edge(u, w)
            _check_against_reference(gb.build())


def test_exact_link_cover_matches_networkx_on_random_multigraphs():
    rng = random.Random(23)
    for trial in range(1000):
        if trial % 2:
            g = random_graph(rng, rng.randrange(1, 41), rng.randrange(0, 80))
        else:
            g = random_lift(build_F(1, rng.randrange(2)), rng.randrange(1, 40), rng)
            if trial % 4:
                g = perturb(g, rng)
        _check_against_reference(g)
