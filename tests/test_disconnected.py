"""Disconnected-target pipeline: patterns, three semantics, stitching."""

import itertools
import random

import pytest

from semicover.build import build_F, build_W, cycle, path
from semicover.disconnected import (build_pattern, decide, decide_equitable,
                                    decide_lbhom, decide_surjective,
                                    max_bipartite_matching)
from semicover.graph import GraphBuilder, disjoint_union
from util import assert_cover_ok


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
    choices = [pattern.neighbors(i) for i in range(pattern.p)]
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
