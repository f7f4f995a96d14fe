"""Disconnected-target pipeline: patterns, three semantics, stitching."""

import itertools
import random
import sys
import time

import pytest

import semicover.disconnected
from semicover.build import (build_F, build_W, complete, complete_bipartite, cycle,
                             gen_binpacking, path, petersen)
from semicover.cover import ResourceLimit, verify_cover
from semicover.dichotomy import decide_colored
from semicover.disconnected import (CoveringPattern, build_pattern, decide,
                                    decide_equitable, decide_lbhom, decide_surjective,
                                    max_bipartite_matching)
from semicover.graph import GraphBuilder, components, disjoint_union, is_connected
from util import (arrays, assert_cover_ok, decide_work, partition_oracle, perturb,
                  random_graph, random_lift, reference_build_pattern, reference_equitable,
                  renamed)


def union_of_cycles(lengths):
    return disjoint_union([cycle(n) for n in lengths])


def one_vertex_targets(specs):
    return disjoint_union([build_F(b, c) for b, c in specs])


def brute_equitable(pattern, n_g, n_h):
    """Try every component assignment; fibers must all hit n_g / n_h."""
    if n_h == 0:
        return n_g == 0
    if n_g % n_h:
        return False
    k = n_g // n_h
    choices = pattern.neighbor_lists()
    if any(not c for c in choices):
        return False
    for combo in itertools.product(*choices):
        fill = [0] * pattern.q
        for i, j in enumerate(combo):
            fill[j] += pattern.edges[(i, j)]
        if all(f == k for f in fill):
            return True
    return False


def test_pattern_worked_example():
    g = union_of_cycles([3, 4, 6])
    h = one_vertex_targets([(0, 1), (2, 0)])
    pattern, comps_g, comps_h = build_pattern(g, h)
    assert pattern.sizes_g == (3, 4, 6)
    assert pattern.sizes_h == (1, 1)
    assert pattern.edges == {(0, 0): 3, (1, 0): 4, (1, 1): 4,
                             (2, 0): 6, (2, 1): 6}
    for (i, j), w in pattern.witnesses.items():
        assert_cover_ok(comps_g[i].graph, comps_h[j].graph, w)


def test_pattern_weights_are_size_ratios():
    rng = random.Random(31)
    for _ in range(30):
        g = union_of_cycles([rng.randrange(1, 7)
                             for _ in range(rng.randrange(1, 4))])
        h = one_vertex_targets([random.Random(rng.random()).choice(
            [(0, 1), (2, 0), (0, 2)]) for _ in range(rng.randrange(1, 3))])
        pattern, _, _ = build_pattern(g, h)
        for (i, j), r in pattern.edges.items():
            assert r * pattern.sizes_h[j] == pattern.sizes_g[i]
            assert r >= 1


def test_three_semantics_on_mixed_union():
    g = union_of_cycles([3, 4])
    h = one_vertex_targets([(0, 1), (2, 0)])
    assert decide(g, h, "lbhom").answer
    assert decide(g, h, "surjective").answer
    assert not decide(g, h, "equitable").answer


def test_surjective_needs_matching():
    g = union_of_cycles([3, 5])
    h = one_vertex_targets([(0, 1), (2, 0)])
    assert decide(g, h, "lbhom").answer
    d = decide(g, h, "surjective")
    assert not d.answer
    assert "matching" in d.reason


def test_equitable_partition_flavor():
    g = union_of_cycles([2, 2, 4])
    h = one_vertex_targets([(0, 1), (0, 1)])
    d = decide(g, h, "equitable", want_witness=True)
    assert d.answer
    assert set(d.fiber_profile.values()) == {4}
    g2 = union_of_cycles([3, 5])
    assert not decide(g2, h, "equitable").answer


def test_equitable_witness_with_repeated_target_names():
    # Fibres are checked per target vertex, not per name: two of the three
    # target vertices share the name "x".
    b = GraphBuilder()
    for name in "xxz":
        b.add_loop(b.add_vertex(name=name))
    h = b.build()
    g = union_of_cycles([2, 2, 2])
    d = decide(g, h, "equitable", want_witness=True)
    assert d.answer
    assert_cover_ok(g, h, d.witness)
    assert d.fiber_profile == {"x": 4, "z": 2}


def test_unknown_semantics_rejected():
    with pytest.raises(ValueError):
        decide(cycle(3), build_F(0, 1), "bijective")


def test_empty_graph_conventions():
    empty = GraphBuilder().build()
    h = one_vertex_targets([(0, 1), (2, 0)])
    assert decide(empty, h, "lbhom").answer
    assert not decide(empty, h, "surjective").answer
    assert not decide(empty, h, "equitable").answer
    assert decide(empty, empty, "lbhom").answer
    assert decide(empty, empty, "surjective").answer
    assert decide(empty, empty, "equitable").answer
    assert not decide(cycle(3), empty, "lbhom").answer
    d = decide(cycle(3), empty, "equitable")
    assert (d.answer, d.reason) == (False, "target has no vertices")


def test_isolated_source_component_blocks_lbhom():
    g = union_of_cycles([3, 4])
    h = one_vertex_targets([(2, 0)])
    d = decide(g, h, "lbhom")
    assert not d.answer
    assert "g0" in d.reason


def test_witness_stitching_across_components():
    g = union_of_cycles([4, 6])
    h = one_vertex_targets([(0, 1), (2, 0)])
    for semantics in ("lbhom", "surjective"):
        d = decide(g, h, semantics, want_witness=True)
        assert d.answer
        assert_cover_ok(g, h, d.witness)
        assert sorted(d.fiber_profile) == sorted(h.names)
    d = decide(union_of_cycles([2, 3, 5]), one_vertex_targets([(0, 1), (0, 1)]),
               "equitable", want_witness=True)
    assert d.answer
    assert set(d.fiber_profile.values()) == {5}
    assert d.sigma is not None and len(d.sigma) == 3


def test_two_vertex_components_use_poly_deciders():
    g = disjoint_union([cycle(4), cycle(6), path(2, semi_ends=True)])
    h = disjoint_union([build_W(0, 0, 2, 0, 0), build_W(1, 0, 1, 0, 1)])
    pattern, _, _ = build_pattern(g, h)
    assert (0, 0) in pattern.edges and (1, 0) in pattern.edges
    assert (2, 1) in pattern.edges
    assert (2, 0) not in pattern.edges
    d = decide(g, h, "surjective", want_witness=True)
    assert d.answer
    assert_cover_ok(g, h, d.witness)


def test_matching_is_deterministic():
    g = union_of_cycles([4, 4, 4])
    h = one_vertex_targets([(0, 1), (2, 0)])
    pattern, _, _ = build_pattern(g, h)
    first = max_bipartite_matching(pattern)
    for _ in range(5):
        assert max_bipartite_matching(pattern) == first


def test_semantics_implication_chain_and_brute_fuzz():
    rng = random.Random(47)
    specs = [(0, 1), (2, 0), (0, 2), (1, 0), (1, 1)]
    stats = [0, 0, 0]
    for _ in range(150):
        g = union_of_cycles([rng.randrange(1, 7)
                             for _ in range(rng.randrange(1, 5))])
        h = one_vertex_targets([specs[rng.randrange(len(specs))]
                                for _ in range(rng.randrange(1, 4))])
        pattern, _, _ = build_pattern(g, h)
        lb, _, _ = decide_lbhom(pattern)
        sj, _, _ = decide_surjective(pattern)
        eq, sigma, _ = decide_equitable(pattern, g.n, h.n)
        assert not (eq and not sj)
        assert not (sj and not lb)
        assert eq == brute_equitable(pattern, g.n, h.n)
        if eq:
            fill = [0] * pattern.q
            for i, j in enumerate(sigma):
                fill[j] += pattern.edges[(i, j)]
            assert set(fill) == {g.n // h.n}
        stats[0] += lb
        stats[1] += sj
        stats[2] += eq
    assert stats[0] > stats[1] > stats[2] > 5


def reference_pattern(g, h):
    """The per-pair path: one decide_colored call for every divisible pair."""
    comps_g, comps_h = components(g), components(h)
    pattern = CoveringPattern(tuple(c.graph.n for c in comps_g),
                              tuple(c.graph.n for c in comps_h))
    for i, cg in enumerate(comps_g):
        for j, ch in enumerate(comps_h):
            if cg.graph.n % ch.graph.n == 0:
                w = decide_colored(cg.graph, ch.graph).witness
                if w is not None:
                    pattern.edges[(i, j)] = cg.graph.n // ch.graph.n
                    pattern.witnesses[(i, j)] = w
    return pattern


REFERENCE_DECIDERS = {
    "lbhom": lambda pattern, g, h: decide_lbhom(pattern),
    "surjective": lambda pattern, g, h: decide_surjective(pattern),
    "equitable": lambda pattern, g, h: decide_equitable(pattern, g.n, h.n),
}


def colored_c4(dart_colors=(0,) * 8, vertex_colors=(0,) * 4, names="abcd"):
    b = GraphBuilder()
    vs = [b.add_vertex(color=c, name=nm) for c, nm in zip(vertex_colors, names)]
    for k in range(4):
        b.add_edge(vs[k], vs[(k + 1) % 4], colors=dart_colors[2 * k:2 * k + 2])
    return b.build()


def shared_pattern_cases():
    rng = random.Random(53)
    for _ in range(12):
        q = rng.randrange(2, 5)
        xs = [rng.randrange(1, 7) for _ in range(rng.randrange(3, 9))]
        yield gen_binpacking(xs, q)
    cubic = [complete(4), petersen(), random_lift(build_F(3, 0), 4, rng),
             random_lift(build_F(1, 1), 6, rng),
             random_lift(build_W(0, 0, 3, 0, 0), 3, rng)]
    cubic_targets = [[build_F(3, 0), build_F(1, 1)],
                     [build_W(0, 0, 3, 0, 0), build_F(1, 1)],
                     [build_F(1, 1), build_F(1, 1), build_F(3, 0)]]
    for _ in range(8):
        g = disjoint_union([rng.choice(cubic) for _ in range(rng.randrange(2, 7))])
        yield g, disjoint_union(rng.choice(cubic_targets))
    cycles = [cycle(n) for n in (2, 3, 4, 6)]
    for _ in range(6):
        g = disjoint_union([rng.choice(cycles) for _ in range(rng.randrange(2, 7))])
        yield g, one_vertex_targets([(0, 1), (2, 0), (0, 1)])
    yield colour_and_name_case()


def colour_and_name_case():
    """Components that differ only in dart colours or only in vertex colours
    are different questions; one that differs only in names is the same."""
    plain = colored_c4()
    g = disjoint_union([plain, colored_c4(dart_colors=(1,) * 8),
                        colored_c4(vertex_colors=(1, 0, 0, 0)),
                        colored_c4(names="wxyz"), plain])
    b = GraphBuilder()
    b.add_loop(b.add_vertex(), colors=(1, 1))
    return g, disjoint_union([build_F(0, 1), b.build(), build_W(0, 0, 2, 0, 0)])


def test_shared_pattern_matches_per_pair_reference():
    for g, h in shared_pattern_cases():
        pattern, _, _ = build_pattern(g, h)
        ref = reference_pattern(g, h)
        assert pattern.edges == ref.edges
        assert pattern.witnesses == ref.witnesses
        assert pattern.neighbor_lists() == [
            sorted(j for (a, j) in ref.edges if a == i) for i in range(ref.p)]
        for semantics, reference in REFERENCE_DECIDERS.items():
            want, sigma, _ = reference(ref, g, h)
            d = decide(g, h, semantics, want_witness=True)
            assert (d.answer, d.sigma) == (want, sigma), semantics
            if d.answer:
                assert_cover_ok(g, h, d.witness)


def test_colours_split_classes_and_names_do_not():
    pattern, _, _ = build_pattern(*colour_and_name_case())
    # g0..g4: plain, dart-coloured, vertex-coloured, renamed, plain;
    # h0: F(0,1), h1: F(0,1) with dart colour 1, h2: W(0,0,2,0,0)
    assert {i for (i, j) in pattern.edges if j == 0} == {0, 3, 4}
    assert {i for (i, j) in pattern.edges if j == 1} == {1}
    assert {i for (i, j) in pattern.edges if j == 2} == {0, 3, 4}
    assert pattern.witnesses[(0, 0)] is pattern.witnesses[(3, 0)]
    assert pattern.witnesses[(0, 0)] is pattern.witnesses[(4, 0)]


def test_one_decide_colored_call_per_distinct_pair(monkeypatch):
    """One call on the whole source per target class, and where it says
    no, one more per distinct (source class, target class) pair."""
    calls = []

    def counted(g, h, **kwargs):
        calls.append((g.n, h.n))
        return decide_colored(g, h, **kwargs)
    monkeypatch.setattr(semicover.disconnected, "decide_colored", counted)
    pattern, _, _ = build_pattern(*gen_binpacking([3, 3, 3, 5, 5], 3))
    assert calls == [(19, 1)]
    assert len(pattern.edges) == 15
    # Petersen's graph covers F(1,1) but not F(3,0): the whole source
    # says no onto F(3,0), which then takes one call per source class
    calls.clear()
    g = disjoint_union([complete(4), petersen(), complete(4), complete_bipartite(3, 3)])
    pattern, _, _ = build_pattern(g, disjoint_union([build_F(3, 0), build_F(1, 1)]))
    assert calls == [(24, 1), (24, 1), (4, 1), (10, 1), (6, 1)]
    assert sorted(pattern.edges) == [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
    # C3 fails the divisibility filter of the two-vertex target: no
    # whole-source call onto it, and C3 is not tried against it
    calls.clear()
    pattern, _, _ = build_pattern(disjoint_union([cycle(3), cycle(4)]),
                                  disjoint_union([build_F(0, 1), build_W(0, 0, 2, 0, 0)]))
    assert calls == [(7, 1), (4, 2)]
    assert sorted(pattern.edges) == [(0, 0), (1, 0), (1, 1)]


def split_cases():
    """Seeded unions onto unions of two to four small connected targets,
    with vertex and dart colors, loops, semi-edges and parallel links: the
    sources hold lifts of the targets, repeated copies, random multigraphs
    and isolated vertices, and names repeat on both sides.  Each comes
    with a dart budget, None for these.  Then sources of lifts of one
    target t onto t and a second target, so that the whole source covers
    t: as they are, with a perturbed lift added (often one class fails t),
    and with a budget one dart below the largest component's and one
    above it; every second t has three vertices, so that the budget
    bounds its exact search."""
    rng = random.Random(227)
    for _ in range(80):
        targets = []
        while len(targets) < rng.randrange(2, 5):
            t = renamed(random_graph(rng, rng.randrange(1, 4), rng.randrange(4), colors=(0, 1)),
                        rng)
            if is_connected(t):
                targets.append(t)
        targets.append(rng.choice(targets))
        pieces = []
        for _ in range(rng.randrange(1, 7)):
            roll = rng.random()
            if pieces and roll < 0.3:
                pieces.append(rng.choice(pieces))
            elif roll < 0.8:
                pieces.append(random_lift(rng.choice(targets), rng.randrange(1, 4), rng))
            else:
                pieces.append(random_graph(rng, rng.randrange(1, 4), rng.randrange(4),
                                           colors=(0, 1)))
        yield (renamed(disjoint_union(pieces), rng, recolor=False),
               renamed(disjoint_union(targets), rng, recolor=False), None)
    rng = random.Random(228)
    targets = [t for t in (renamed(random_graph(rng, rng.randrange(1, 4), rng.randrange(4),
                                                colors=(0, 1)), rng) for _ in range(200))
               if is_connected(t)]
    searched = [t for t in targets if t.n == 3]     # exact search, under the budget
    for i in range(40):
        t = rng.choice(searched if i % 2 else targets)
        h = disjoint_union([t, rng.choice(targets), t])
        pieces = [random_lift(t, rng.randrange(1, 4), rng) for _ in range(rng.randrange(2, 5))]
        g = disjoint_union(pieces)
        yield g, h, None
        yield disjoint_union(pieces + [perturb(rng.choice(pieces), rng)]), h, None
        most = max(c.graph.n_darts for c in components(g))
        yield g, h, most - 1
        yield g, h, most + 1


def _built(build, g, h, budget):
    """build(g, h, budget=budget), or the ResourceLimit message."""
    try:
        return build(g, h, budget=budget)
    except ResourceLimit as e:
        return str(e)


def test_build_pattern_matches_reference_split():
    """build_pattern, with one split pass, one Graph per class and one
    call on the whole source per target class, gives the sizes, edges and
    witnesses, and the component ids and arrays, of the reference that
    builds every component and decides every class pair (tests/util.py),
    or the ResourceLimit of the same component pair."""
    edges = limits = 0
    # target components that every source class covers, or all but one
    whole = one_fails = 0
    for g, h, budget in split_cases():
        for _ in range(2):  # the second call reads h's split from its plan
            got = _built(build_pattern, g, h, budget)
            want = _built(reference_build_pattern, g, h, budget)
            if isinstance(want, str):
                assert got == want
                limits += 1
                continue
            (pattern, comps_g, comps_h), (ref, ref_g, ref_h) = got, want
            assert (pattern.sizes_g, pattern.sizes_h) == (ref.sizes_g, ref.sizes_h)
            assert pattern.edges == ref.edges
            assert pattern.witnesses == ref.witnesses
            for comps, ref_comps in ((comps_g, ref_g), (comps_h, ref_h)):
                assert [(c.vertex_ids, c.dart_ids, arrays(c.graph)) for c in comps] == [
                    (c.vertex_ids, c.dart_ids, arrays(c.graph)) for c in ref_comps]
        if isinstance(want, str):
            continue
        edges += len(pattern.edges)
        classes = {arrays(c.graph) for c in comps_g}
        for j, n in enumerate(pattern.sizes_h):
            if len(classes) > 1 and all(m % n == 0 for m in pattern.sizes_g):
                failed = {arrays(c.graph) for i, c in enumerate(comps_g)
                          if (i, j) not in pattern.edges}
                whole += not failed
                one_fails += len(failed) == 1
    assert edges > 150 and limits > 20 and whole > 100 and one_fails > 30, (
        edges, limits, whole, one_fails)



def test_connected_inputs_are_not_split():
    """A connected source onto a connected target is labelled, not split:
    decide makes no graph._split pass under any semantics, on the first
    call onto a target or again."""
    for make_h, g in ((lambda: build_W(1, 1, 1, 1, 1),
                       random_lift(build_W(1, 1, 1, 1, 1), 8, random.Random(8))),
                      (lambda: build_F(0, 1), cycle(6))):
        assert is_connected(g)
        for semantics in ("lbhom", "surjective", "equitable"):
            h = make_h()
            first = decide_work(g, h, semantics, want_witness=True)
            again = decide_work(g, h, semantics, want_witness=True)
            assert first["splits"] == again["splits"] == 0, (h.links, semantics)
            assert first["decide_colored"] == again["decide_colored"] == 1
            assert again["plans"] == 0


def test_decide_keeps_no_reference_to_the_target():
    """A target's plan holds its split but nothing that refers to it,
    whether it is connected or not."""
    for g, h in ((cycle(6), build_F(0, 1)), gen_binpacking([3, 3, 3, 5, 5], 3),
                 (disjoint_union([complete(4), petersen()]),
                  disjoint_union([build_F(3, 0), build_F(1, 1)]))):
        before = sys.getrefcount(h)
        for semantics in ("lbhom", "surjective", "equitable"):
            decide(g, h, semantics, want_witness=True)
        assert sys.getrefcount(h) == before


def test_build_pattern_returns_fresh_lists():
    """Mutating the component lists build_pattern returns does not
    change the next call, although h keeps its split."""
    def values(comps):
        return [(c.vertex_ids, c.dart_ids, arrays(c.graph)) for c in comps]
    for g, h in (gen_binpacking([3, 3, 5], 3), (cycle(4), build_F(0, 1))):
        pattern, comps_g, comps_h = build_pattern(g, h)
        want = values(comps_g), values(comps_h)
        comps_g.clear()
        comps_h.reverse()
        comps_h.append(comps_h[0])
        again, comps_g, comps_h = build_pattern(g, h)
        assert again == pattern and (values(comps_g), values(comps_h)) == want


def test_resource_limit_names_the_first_pair():
    g = disjoint_union([cycle(4), complete(4), complete(4)])
    h = disjoint_union([build_F(0, 1), complete(4)])
    # a four-vertex target has no polynomial decider: C4 fits the budget,
    # the first K4 does not, and the second K4 is never tried
    with pytest.raises(ResourceLimit, match=r"component pair \(1,1\)"):
        build_pattern(g, h, budget=10)


def test_many_repeated_components_decide_quickly():
    g = disjoint_union([cycle(3)] * 200)
    h = disjoint_union([build_F(0, 1)] * 200)
    for semantics in ("lbhom", "surjective"):
        start = time.perf_counter()
        d = decide(g, h, semantics, want_witness=True)
        assert time.perf_counter() - start < 2.0, semantics
        assert d.answer


def random_pattern(rng, q, shape):
    """A CoveringPattern on q target components with a planted equitable
    assignment, sometimes spoiled.  Targets in one group have equal sizes
    and equal columns.  shape "equal": up to three groups of size-1 or
    size-2 targets; "distinct": one target per group, all columns
    distinct; "mixed": groups of sizes 1-3, so one source weighs
    differently in different groups."""
    if shape == "distinct":
        group_of = list(range(q))
    else:
        cuts = sorted(rng.sample(range(1, q), min(q - 1, rng.randrange(3))))
        group_of = [sum(j >= c for c in cuts) for j in range(q)]
    size_of = [rng.choice((1, 2) if shape == "equal" else (1, 2, 3))
               for _ in range(group_of[-1] + 1)]
    sizes_h = [size_of[g] for g in group_of]
    k = rng.randrange(1, 6)
    planted = []
    for j in range(q):
        rest = k
        while rest:
            r = rng.randrange(1, rest + 1)
            planted.append((r * sizes_h[j], group_of[j]))
            rest -= r
    rng.shuffle(planted)
    if len(planted) > 9:
        return None
    if rng.random() < 0.3:
        planted[rng.randrange(len(planted))] = (rng.randrange(1, 7), None)
    edges = {}
    for i, (sz, home) in enumerate(planted):
        for g, s in enumerate(size_of):
            if sz % s == 0 and (g == home or rng.random() < 0.4):
                edges.update({(i, j): sz // s for j in range(q) if group_of[j] == g})
    pattern = CoveringPattern(tuple(sz for sz, _ in planted), tuple(sizes_h), edges)
    columns = {tuple(edges.get((i, j)) for i in range(pattern.p)) for j in range(q)}
    if shape == "distinct" and len(columns) < q:
        return None
    return pattern


def permuted_sources(pattern, perm):
    """pattern with its source component perm[i] renumbered i."""
    new = {old: i for i, old in enumerate(perm)}
    return CoveringPattern(tuple(pattern.sizes_g[old] for old in perm), pattern.sizes_h,
                           {(new[i], j): r for (i, j), r in pattern.edges.items()})


def test_equitable_matches_reference_dp():
    """The grouped DP against the DP over unsorted fill vectors.  The DP
    places the largest source component first, ties by index, so each
    pattern is also decided with its sources reversed, in ascending size
    and shuffled: renumbering the sources may change sigma, never the
    answer."""
    rng = random.Random(61)
    shuffler = random.Random(67)
    answers = []
    unequal_targets = 0
    for q in range(1, 7):
        for shape in ("equal", "distinct", "mixed"):
            done = 0
            while done < 15:
                pattern = random_pattern(rng, q, shape)
                if pattern is None:
                    continue
                n_g, n_h = sum(pattern.sizes_g), sum(pattern.sizes_h)
                expected = reference_equitable(pattern, n_g, n_h)[0]
                firsts = list(range(pattern.p))
                for perm in (firsts, firsts[::-1], sorted(firsts, key=pattern.sizes_g.__getitem__),
                             shuffler.sample(firsts, len(firsts))):
                    renumbered = permuted_sources(pattern, perm)
                    got, sigma, _ = decide_equitable(renumbered, n_g, n_h)
                    assert got == expected, (q, shape, perm, pattern)
                    if got:
                        assert all((i, j) in renumbered.edges for i, j in enumerate(sigma))
                        fill = [0] * q
                        for i, j in enumerate(sigma):
                            fill[j] += renumbered.edges[(i, j)]
                        assert fill == [n_g // n_h] * q
                answers.append(expected)
                unequal_targets += len(set(pattern.sizes_h)) > 1
                done += 1
    assert 50 < sum(answers) < len(answers) - 50
    assert unequal_targets > 50


def seeded_binpacking(bins, items, seed):
    rng = random.Random(seed)
    xs = [rng.randint(1, 12) for _ in range(items)]
    while sum(xs) % bins:
        xs[rng.randrange(items)] = rng.randint(1, 12)
    return xs


@pytest.mark.parametrize("bins", [6, 8])
def test_equitable_binpacking_with_many_bins(bins):
    # on a 2-vCPU VM, the DP over unsorted fill vectors took 11.8 s and
    # 487 MB at 6 bins, and ran out of memory under a 3 GB limit at 8 bins
    xs = seeded_binpacking(bins, 3 * bins, 1)
    g, h = gen_binpacking(xs, bins)
    d = decide(g, h, "equitable", want_witness=True)
    assert d.answer == partition_oracle(xs, bins)
    if d.answer:
        assert verify_cover(g, h, d.witness, check_fibers=True) == []
        assert set(d.fiber_profile.values()) == {sum(xs) // bins}


@pytest.mark.parametrize("bins", [12, 14])
def test_equitable_binpacking_within_a_small_state_cap(monkeypatch, bins):
    # Taking the largest component first keeps 4,658 and 10,270 states
    # here; in index order the DP passed the default cap of 1,000,000.
    monkeypatch.setattr(semicover.disconnected, "EQUITABLE_STATE_CAP", 20_000)
    xs = seeded_binpacking(bins, 3 * bins, 1)
    g, h = gen_binpacking(xs, bins)
    d = decide(g, h, "equitable", want_witness=True)
    assert d.answer
    assert verify_cover(g, h, d.witness, check_fibers=True) == []
    assert set(d.fiber_profile.values()) == {sum(xs) // bins}


def test_equitable_state_cap(monkeypatch):
    monkeypatch.setattr(semicover.disconnected, "EQUITABLE_STATE_CAP", 20)
    g, h = gen_binpacking(seeded_binpacking(4, 12, 1), 4)
    with pytest.raises(ResourceLimit, match=r"keeps \d+ states at source component g\d+, "
                                            r"over the cap of 20"):
        decide(g, h, "equitable")
