"""Acceptance gate: the package's headline laws at desk scale.

Each test reproduces one verifiable claim end to end: regularity
characterizations over exhaustive graph pools, snark behavior, the three
disconnected semantics, equitable dynamic programming against brute force,
bin packing, double cover transfer, stronger-than evidence, the complexity
table, and decider/search equivalence under fuzz.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from semicover.build import (build_F, build_W, build_WD, complete, cycle,
                             double_cover, gen_binpacking, petersen)
from semicover.canon import isomorphic
from semicover.cover import find_cover
from semicover.dichotomy import classify, decide_colored
from semicover.disconnected import (CoveringPattern, build_pattern, decide,
                                    decide_equitable)
from semicover.generate import (connected_regular_graphs,
                                connected_simple_graphs)
from semicover.graph import (LOOP, GraphBuilder, components, disjoint_union,
                             is_connected)
from semicover.stronger import (check_equivalent, check_stronger,
                                enumerate_simple_covers)
from util import (assert_cover_ok, connected_multigraphs, edge_colorable,
                  has_perfect_matching_brute, partition_oracle, perturb,
                  random_graph, random_lift, two_colorable)


@pytest.fixture(scope="module")
def simple_pool():
    """All connected simple graphs with 1..8 vertices, plus build seconds."""
    t0 = time.monotonic()
    pool = {n: connected_simple_graphs(n) for n in range(1, 9)}
    return pool, time.monotonic() - t0


@pytest.fixture(scope="module")
def bipartite_pool(simple_pool):
    pool, _ = simple_pool
    return {n: [g for g in graphs if two_colorable(g)]
            for n, graphs in pool.items()}


@pytest.fixture(scope="module")
def cubic_pool():
    return [g for n in (4, 6, 8, 10)
            for g in connected_regular_graphs(n, 3)]


def regular(g, d):
    return g.n > 0 and all(g.degree(v) == d for v in range(g.n))


def random_connected_simple(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        gb = GraphBuilder()
        for _ in range(n):
            gb.add_vertex()
        m = rng.randrange(n - 1, 2 * n + 1)
        for u, v in rng.sample(pairs, m):
            gb.add_edge(u, v)
        g = gb.build()
        if is_connected(g):
            return g


def test_regularity_characterizations(simple_pool):
    """find_cover against the three regularity laws, exhaustively.

    Exhaustive over all connected simple graphs with at most 8 vertices;
    at 9 and 10 vertices over every regular graph whose degree any target
    allows (the laws force 1-, 2-, 3-, 5- or 7-regularity), plus sampled
    non-regular graphs where every answer must be no.
    """
    pool, gen_seconds = simple_pool
    t0 = time.monotonic()
    targets = ([("semis", k, build_F(k, 0)) for k in range(4)]
               + [("semi+loops", k, build_F(1, k)) for k in range(4)]
               + [("bars", k, build_W(0, 0, k, 0, 0)) for k in (1, 2, 3)])

    def predicate(g, kind, k):
        if kind == "semis":
            return regular(g, k) and edge_colorable(g, k)
        if kind == "semi+loops":
            return regular(g, 2 * k + 1) and has_perfect_matching_brute(g)
        return regular(g, k) and two_colorable(g)

    graphs = [g for n in range(1, 9) for g in pool[n]]
    exhaustive = len(graphs)
    for n in (9, 10):
        for d in (1, 2, 3, 5, 7):
            graphs.extend(connected_regular_graphs(n, d))
    rng = random.Random(97)
    sampled = [random_connected_simple(rng, rng.randrange(9, 11))
               for _ in range(120)]
    graphs.extend(g for g in sampled
                  if len({g.degree(v) for v in range(g.n)}) > 1)

    checked = 0
    for g in graphs:
        degs = {g.degree(v) for v in range(g.n)}
        for kind, k, h in targets:
            want = predicate(g, kind, k)
            got = find_cover(g, h) is not None
            assert got == want, (kind, k, g.n, sorted(degs))
            checked += 1
    elapsed = gen_seconds + time.monotonic() - t0
    assert exhaustive == 12113
    assert checked >= 130000
    assert elapsed < 600


def test_snark_witness():
    t0 = time.monotonic()
    pet, k4 = petersen(), complete(4)
    w = find_cover(pet, build_F(1, 1))
    assert w is not None
    assert_cover_ok(pet, build_F(1, 1), w)
    assert find_cover(pet, build_F(3, 0)) is None
    for h in (build_F(1, 1), build_F(3, 0)):
        w = find_cover(k4, h)
        assert w is not None
        assert_cover_ok(k4, h, w)
    assert time.monotonic() - t0 < 1.0


def test_disconnected_semantics_triple():
    t0 = time.monotonic()
    g = disjoint_union([cycle(3), cycle(4)])
    h = disjoint_union([build_F(0, 1), build_F(2, 0)])
    lb = decide(g, h, "lbhom", want_witness=True)
    assert lb.answer
    assert_cover_ok(g, h, lb.witness)
    sj = decide(g, h, "surjective", want_witness=True)
    assert sj.answer
    assert_cover_ok(g, h, sj.witness, require_surjective=True)
    assert all(v >= 1 for v in sj.fiber_profile.values())
    eq = decide(g, h, "equitable")
    assert not eq.answer
    assert "fiber size" in eq.reason
    assert time.monotonic() - t0 < 1.0


def test_cubic_union_law(cubic_pool):
    """Unions of cubic graphs versus the two-target union: the answer is
    exactly "every component has a perfect matching"."""
    rng = random.Random(11)
    h = disjoint_union([build_F(3, 0), build_F(1, 1)])
    pet = next(g for g in cubic_pool if isomorphic(g, petersen()))
    checked = 0
    for trial in range(210):
        comps = [cubic_pool[rng.randrange(len(cubic_pool))]
                 for _ in range(rng.randrange(1, 5))]
        if trial % 6 == 0:
            comps.append(pet)
        g = disjoint_union(comps)
        want = all(has_perfect_matching_brute(c.graph)
                   for c in components(g))
        got = decide(g, h, "lbhom").answer
        assert got == want, [c.n for c in comps]
        checked += 1
    assert checked >= 200


def brute_sigma_enumeration(pattern, n_g, n_h):
    if n_h == 0:
        return n_g == 0
    if n_g % n_h:
        return False
    k = n_g // n_h
    choices = pattern.neighbor_lists()
    if not all(choices):
        return False
    for combo in itertools.product(*choices):
        fill = [0] * pattern.q
        for i, j in enumerate(combo):
            fill[j] += pattern.edges[(i, j)]
        if all(f == k for f in fill):
            return True
    return False


def test_equitable_dp_versus_enumeration():
    rng = random.Random(29)
    done = 0
    while done < 100:
        q = rng.randrange(1, 4)
        sizes_h = [rng.randrange(1, 5) for _ in range(q)]
        edges = {}
        if rng.random() < 0.5:
            k = rng.randrange(1, 13)
            built = []
            for j in range(q):
                rest = k
                while rest:
                    r = rng.randrange(1, rest + 1)
                    built.append((r * sizes_h[j], j, r))
                    rest -= r
            if len(built) > 8:
                continue
            rng.shuffle(built)
            sizes_g = [sz for sz, _, _ in built]
            edges = {(i, j): r for i, (_, j, r) in enumerate(built)}
        else:
            sizes_g = [rng.randrange(1, 13)
                       for _ in range(rng.randrange(1, 9))]
        p = len(sizes_g)
        for i in range(p):
            for j in range(q):
                if (i, j) not in edges and sizes_g[i] % sizes_h[j] == 0 \
                        and rng.random() < 0.5:
                    edges[(i, j)] = sizes_g[i] // sizes_h[j]
        n_g, n_h = sum(sizes_g), sum(sizes_h)
        if n_g % n_h == 0 and n_g // n_h > 12:
            continue
        equitable_agrees(CoveringPattern(tuple(sizes_g), tuple(sizes_h), edges))
        done += 1
    # 3-4 targets of one size whose columns are equal in runs: the DP keeps
    # one state per multiset of fills within a run
    done = 0
    while done < 60:
        q = rng.randrange(3, 5)
        size = rng.randrange(1, 3)
        run_of = sorted(rng.randrange(2) for _ in range(q))
        # planted: each target's fill k split into parts, one source per part
        k = rng.randrange(1, 5)
        built = []
        for j in range(q):
            rest = k
            while rest:
                r = rng.randrange(1, rest + 1)
                built.append((r * size, run_of[j]))
                rest -= r
        if len(built) > 7:
            continue
        if rng.random() < 0.3:
            built[0] = (size * rng.randrange(1, 5), None)
        rng.shuffle(built)
        sizes_g = [sz for sz, _ in built]
        home = [run for _, run in built]
        edges = {}
        for i, sz in enumerate(sizes_g):
            for run in set(run_of):
                if run == home[i] or rng.random() < 0.5:
                    edges.update({(i, j): sz // size for j in range(q) if run_of[j] == run})
        equitable_agrees(CoveringPattern(tuple(sizes_g), (size,) * q, edges))
        done += 1


def equitable_agrees(pattern):
    n_g, n_h = sum(pattern.sizes_g), sum(pattern.sizes_h)
    got, sigma, _ = decide_equitable(pattern, n_g, n_h)
    assert got == brute_sigma_enumeration(pattern, n_g, n_h)
    if got:
        fill = [0] * pattern.q
        for i, j in enumerate(sigma):
            fill[j] += pattern.edges[(i, j)]
        assert set(fill) == {n_g // n_h}


def compositions(total, max_parts):
    def rec(rest, parts_left):
        if rest == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for x in range(1, rest + 1):
            for tail in rec(rest - x, parts_left - 1):
                yield (x,) + tail
    for s in range(1, total + 1):
        yield from rec(s, max_parts)


def binpacking_agrees(xs, q):
    g, h = gen_binpacking(list(xs), q)
    pattern, _, _ = build_pattern(g, h)
    got, sigma, _ = decide_equitable(pattern, g.n, h.n)
    assert got == partition_oracle(list(xs), q), (xs, q)
    if got:
        fill = [0] * pattern.q
        for i, j in enumerate(sigma):
            fill[j] += pattern.edges[(i, j)]
        assert set(fill) == {g.n // h.n}


def test_binpacking_equitable_sweep():
    """Exhaustive over all compositions into at most 3 parts with total
    at most 30, times 1..3 bins; random wider instances on top."""
    checked = 0
    for xs in compositions(30, 3):
        for q in (1, 2, 3):
            binpacking_agrees(xs, q)
            checked += 1
    assert checked >= 10000
    rng = random.Random(83)
    extra = 0
    while extra < 300:
        xs = [rng.randrange(1, 10) for _ in range(rng.randrange(4, 7))]
        if sum(xs) > 30:
            continue
        binpacking_agrees(xs, rng.randrange(2, 4))
        extra += 1


def bipartite_unions(by_n, budget=8):
    """Every disconnected bipartite simple graph with at most budget
    vertices, as multisets of connected pieces."""
    sizes = sorted(n for n in by_n if by_n[n])
    out = []

    def rec(size_floor, index_floor, left, acc):
        if len(acc) >= 2:
            out.append(disjoint_union(list(acc)))
        for s in sizes:
            if s < size_floor or s > left:
                continue
            start = index_floor if s == size_floor else 0
            for i in range(start, len(by_n[s])):
                acc.append(by_n[s][i])
                rec(s, i, left - s, acc)
                acc.pop()

    rec(1, 0, budget, [])
    return out


def test_double_cover_laws(bipartite_pool):
    pool = connected_multigraphs(8)
    assert len(pool) == 183
    doubles = []
    for g in pool:
        g2, proj = double_cover(g)
        assert_cover_ok(g2, g, proj)
        assert set(Counter(proj.vertex_map).values()) == {2}
        assert all(len(g2.links[l]) == 2 for l in range(g2.n_links))
        assert all(g2.link_kind(l) != LOOP for l in range(g2.n_links))
        assert two_colorable(g2)
        doubles.append(g2)

    conn = [g for n in range(1, 9) for g in bipartite_pool[n]]
    assert len(conn) == 254
    sources = conn + bipartite_unions(bipartite_pool)
    mismatches = 0
    for g, g2 in zip(pool, doubles):
        for gp in sources:
            left = decide(gp, g, "lbhom").answer
            right = decide(gp, g2, "lbhom").answer
            mismatches += left != right
    assert mismatches == 0


def test_stronger_evidence():
    t0 = time.monotonic()
    rep = check_stronger(build_F(2, 0), build_F(0, 1), 10)
    assert rep.stronger
    assert rep.covers_found == 4

    fwd, back = check_equivalent(build_W(0, 0, 2, 0, 0), build_F(2, 0), 10)
    assert fwd.stronger and back.stronger
    for base in (build_W(0, 0, 2, 0, 0), build_F(2, 0)):
        covers = list(enumerate_simple_covers(base, 10))
        assert [g.n for g in covers] == [4, 6, 8, 10]
        for g in covers:
            assert regular(g, 2)

    rep = check_stronger(build_F(1, 1), build_F(3, 0), 10)
    assert not rep.stronger
    assert rep.counterexample.n == 10
    assert isomorphic(rep.counterexample, petersen())
    assert_cover_ok(rep.counterexample, build_F(1, 1), rep.witness)
    assert time.monotonic() - t0 < 300


def test_complexity_table():
    t0 = time.monotonic()
    for h in ([build_F(0, c) for c in range(4)]
              + [build_F(1, c) for c in range(4)]
              + [build_F(2, 0)]
              + [build_W(0, 0, k, 0, 0) for k in (1, 2, 3)]):
        assert classify(h).verdict == "P"

    hard = {
        "F(2,1)": (build_F(2, 1), ">= 2"),
        "F(3,0)": (build_F(3, 0), ">= 2"),
        "W(1,1,1,1,1)": (build_W(1, 1, 1, 1, 1), "k+2m+l"),
        "WD(1,2,1)": (build_WD(1, 2, 1), "m+l"),
        "W(2,2,2,1,1)": (build_W(2, 2, 2, 1, 1), "F(2,2)"),
    }
    for name, (h, needle) in hard.items():
        cls = classify(h)
        assert cls.verdict == "NP-complete", name
        fired = [r for r in cls.rules if "NP-complete" in r]
        assert fired, name
        assert any(needle in r and ">= 3" in r for r in fired), (name, fired)
    assert time.monotonic() - t0 < 1.0


POLY_FAMILIES = [
    ("loop", build_F(0, 1)),
    ("two-loops", build_F(0, 2)),
    ("semi", build_F(1, 0)),
    ("semi+loop", build_F(1, 1)),
    ("semi+two-loops", build_F(1, 2)),
    ("two-semis", build_F(2, 0)),
    ("two-bars", build_W(0, 0, 2, 0, 0)),
    ("three-bars", build_W(0, 0, 3, 0, 0)),
    ("semi-bar", build_W(1, 0, 1, 0, 1)),
    ("directed-pair", build_WD(1, 1, 1)),
]


def directed_loop_target():
    b = GraphBuilder()
    b.add_vertex()
    b.add_loop(0, colors=(1, 2))
    b.add_semi(0, color=3)
    return b.build()


def fuzz_source(h, rng):
    kmax = max(1, 16 // max(1, h.n_darts))
    roll = rng.random()
    if roll < 0.4:
        return random_lift(h, rng.randrange(1, kmax + 1), rng)
    if roll < 0.75:
        return perturb(random_lift(h, rng.randrange(1, kmax + 1), rng), rng)
    palette = tuple(sorted({h.dart_color[d]
                            for d in range(h.n_darts)})) or (0,)
    while True:
        g = random_graph(rng, rng.randrange(1, 7), rng.randrange(0, 8),
                         colors=palette)
        if g.n_darts <= 16:
            return g


def test_poly_deciders_match_search():
    rng = random.Random(101)
    for name, h in POLY_FAMILIES + [("directed-loop", directed_loop_target())]:
        yes = no = 0
        for _ in range(1000):
            g = fuzz_source(h, rng)
            v = decide_colored(g, h)
            assert v.method != "brute-force-fallback", name
            want = find_cover(g, h) is not None
            assert v.answer == want, (name, g.links)
            if v.answer:
                assert_cover_ok(g, h, v.witness)
                yes += 1
            else:
                no += 1
        assert yes >= 25 and no >= 25, (name, yes, no)
