"""Covering projection verification and exhaustive search."""

import random

import pytest

from semicover.build import build_F, build_W, complete, cycle, double_cover, path, petersen
from semicover.cover import (DartMapping, ResourceLimit, find_cover, verify_cover,
                             witness_json)
from semicover.graph import GraphBuilder, disjoint_union
from util import assert_cover_ok, brute_cover_exists, perturb, random_graph, random_lift


def test_identity_cover():
    g = petersen()
    ident = DartMapping(tuple(range(g.n_darts)), tuple(range(g.n)))
    assert verify_cover(g, g, ident) == []


def test_verify_rejects_broken_mapping():
    c4, f01 = cycle(4), build_F(0, 1)
    f = find_cover(c4, f01)
    assert f is not None
    assert_cover_ok(c4, f01, f)
    # corrupt one dart image: no longer a local bijection
    dm = list(f.dart_map)
    dm[0] = 1 - dm[0] if dm[0] in (0, 1) else 0
    bad = DartMapping(tuple(dm), f.vertex_map)
    assert verify_cover(c4, f01, bad) != []


def test_semi_to_semi_only():
    # a loop cannot land on a semi-edge: its two darts need distinct images
    one_loop = build_F(0, 1)
    two_semis = build_F(2, 0)
    assert find_cover(one_loop, two_semis) is None
    # but an edge can collapse onto a loop
    gb = GraphBuilder()
    a, b = gb.add_vertex(), gb.add_vertex()
    gb.add_edge(a, b)
    gb.add_edge(a, b)
    g = gb.build()
    assert find_cover(g, one_loop) is not None


def test_cycle_covers():
    f01, f20 = build_F(0, 1), build_F(2, 0)
    for n in range(3, 9):
        c = cycle(n)
        assert find_cover(c, f01) is not None
        got = find_cover(c, f20)
        assert (got is not None) == (n % 2 == 0)
    # cycles cover shorter cycles exactly on divisibility
    assert find_cover(cycle(6), cycle(3)) is not None
    assert find_cover(cycle(6), cycle(4)) is None
    assert find_cover(cycle(9), cycle(3)) is not None


def test_open_paths_cover_two_semis():
    f20 = build_F(2, 0)
    for n in range(1, 7):
        p = path(n, semi_ends=True)
        f = find_cover(p, f20)
        assert f is not None
        assert_cover_ok(p, f20, f)


def test_known_cubic_targets():
    f11, f30 = build_F(1, 1), build_F(3, 0)
    k4, pet = complete(4), petersen()
    assert find_cover(k4, f11) is not None
    assert find_cover(k4, f30) is not None
    assert find_cover(pet, f11) is not None
    assert find_cover(pet, f30) is None


def test_fiber_and_surjective_flags():
    g = disjoint_union([cycle(3), cycle(3)])
    h = cycle(3)
    f = find_cover(g, h)
    assert f is not None
    assert verify_cover(g, h, f, require_surjective=True) == []
    assert verify_cover(g, h, f, check_fibers=True) == []

    # one triangle covering a disjoint pair's component is not surjective
    g2 = cycle(3)
    h2 = h
    f2 = find_cover(g2, h2)
    assert verify_cover(g2, h2, f2, require_surjective=True) == []

    w = build_W(0, 0, 2, 0, 0)
    c6 = cycle(6)
    f3 = find_cover(c6, w)
    assert f3 is not None
    assert verify_cover(c6, w, f3, check_fibers=True) == []


def test_budget_raises():
    with pytest.raises(ResourceLimit):
        find_cover(petersen(), build_F(1, 1), budget=3)


def test_disconnected_target_rejected():
    h = disjoint_union([build_F(0, 1), build_F(2, 0)])
    with pytest.raises(ValueError):
        find_cover(cycle(4), h)


def test_empty_graphs():
    empty = GraphBuilder().build()
    assert find_cover(empty, empty) is not None
    assert find_cover(empty, build_F(0, 1)) is not None  # vacuous
    assert find_cover(build_F(0, 1), empty) is None


def test_find_cover_vs_brute_oracle():
    rng = random.Random(17)
    agree = 0
    for _ in range(250):
        g = random_graph(rng, rng.randrange(1, 4), rng.randrange(0, 5))
        h = random_graph(rng, 1 if rng.random() < 0.6 else 2, rng.randrange(1, 4))
        from semicover.graph import is_connected
        if not is_connected(h):
            continue
        got = find_cover(g, h)
        want = brute_cover_exists(g, h)
        assert (got is not None) == want, (g, h)
        if got is not None:
            assert_cover_ok(g, h, got)
        agree += 1
    assert agree > 150


def test_random_lifts_always_cover():
    rng = random.Random(23)
    for _ in range(60):
        h = random_graph(rng, rng.randrange(1, 3), rng.randrange(1, 4),
                         colors=(0, 1))
        from semicover.graph import is_connected
        if not is_connected(h):
            continue
        k = rng.randrange(1, 4)
        g = random_lift(h, k, rng)
        f = find_cover(g, h)
        assert f is not None
        assert_cover_ok(g, h, f)


def test_transitivity_of_covering():
    # G covers H and H covers K implies G covers K: check via double covers
    rng = random.Random(31)
    for _ in range(25):
        k = random_graph(rng, rng.randrange(1, 3), rng.randrange(1, 4))
        from semicover.graph import is_connected
        if not is_connected(k):
            continue
        h = random_lift(k, 2, rng)
        from semicover.graph import components
        if not is_connected(h):
            continue
        g = random_lift(h, 2, rng)
        comps = components(g)
        # every component of g covers k
        for c in comps:
            assert find_cover(c.graph, k) is not None


def test_witness_json_shape():
    c4, f01 = cycle(4), build_F(0, 1)
    f = find_cover(c4, f01)
    data = witness_json(c4, f01, f)
    assert len(data["vertex_map"]) == 4
    assert len(data["dart_map"]) == 8
    assert sum(data["fiber_sizes"].values()) == 4
