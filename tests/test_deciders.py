"""Polynomial deciders against canned families and the exact search."""

import random

import pytest

from semicover import deciders
from semicover.build import build_F, build_W, build_WD, complete, cycle, path, petersen
from semicover.cover import find_cover
from semicover.dichotomy import decide_colored
from semicover.graph import LOOP, GraphBuilder, components, disjoint_union, induced_link_subgraph
from semicover.matching import exact_link_cover
from test_dichotomy import barred_pair
from util import assert_cover_ok, perturb, random_graph, random_lift

METHODS = {"regularity", "matching", "2-factor", "bipartite-decomposition",
           "2-SAT", "brute-force-fallback"}


def check_verdict(v, g, h):
    assert v.method in METHODS
    if v.answer:
        assert v.witness is not None
        assert_cover_ok(g, h, v.witness)


# ------------------------------------------------------------- one vertex

def test_one_loop_takes_any_cycle():
    for n in range(1, 8):
        v = decide_colored(cycle(n), build_F(0, 1))
        check_verdict(v, cycle(n), build_F(0, 1))
        assert v.answer


def test_one_loop_rejects_paths():
    for n in range(2, 6):
        assert not decide_colored(path(n), build_F(0, 1)).answer


def test_one_semi_is_perfect_matching():
    yes = decide_colored(path(2), build_F(1, 0))
    check_verdict(yes, path(2), build_F(1, 0))
    assert yes.answer
    assert not decide_colored(path(3), build_F(1, 0)).answer


def test_semi_plus_loop_on_cubic_graphs():
    for g in (complete(4), petersen()):
        v = decide_colored(g, build_F(1, 1))
        check_verdict(v, g, build_F(1, 1))
        assert v.answer
        assert v.method == "matching"


def test_two_semis_wants_even_cycles():
    f20 = build_F(2, 0)
    assert decide_colored(cycle(4), f20).answer
    assert decide_colored(cycle(6), f20).answer
    assert not decide_colored(cycle(3), f20).answer
    assert not decide_colored(cycle(5), f20).answer
    v = decide_colored(path(4, semi_ends=True), f20)
    check_verdict(v, path(4, semi_ends=True), build_F(2, 0))
    assert v.answer


def test_two_loops_needs_two_factor_split():
    v = decide_colored(complete(5), build_F(0, 2))
    check_verdict(v, complete(5), build_F(0, 2))
    assert v.answer
    assert v.method == "2-factor"
    assert not decide_colored(cycle(5), build_F(0, 2)).answer


def test_hard_families_raise():
    g = complete(4)
    # the front door falls back to exact search on both
    v = decide_colored(g, build_F(3, 0))
    assert v.answer and v.method == "brute-force-fallback"
    check_verdict(v, g, build_F(3, 0))
    v = decide_colored(g, build_F(2, 1))
    assert not v.answer and v.method == "brute-force-fallback"


def test_empty_source_is_vacuous_yes():
    empty = GraphBuilder().build()
    assert decide_colored(empty, build_F(0, 1)).answer
    assert decide_colored(empty, build_W(0, 0, 2, 0, 0)).answer
    assert decide_colored(empty, build_F(1, 1)).answer


# ----------------------------------------------------------------- bars

def test_bars_on_cycles():
    w2 = build_W(0, 0, 2, 0, 0)
    assert decide_colored(cycle(4), w2).answer
    assert decide_colored(cycle(6), w2).answer
    assert not decide_colored(cycle(3), w2).answer
    assert not decide_colored(cycle(5), w2).answer


def test_bars_on_cubic_graphs():
    from semicover.build import complete_bipartite
    k33 = complete_bipartite(3, 3)
    w3 = build_W(0, 0, 3, 0, 0)
    v = decide_colored(k33, w3)
    check_verdict(v, k33, w3)
    assert v.answer
    assert not decide_colored(complete(4), w3).answer
    assert not decide_colored(petersen(), w3).answer


def test_bars_degree_mismatch():
    assert not decide_colored(cycle(4), build_W(0, 0, 3, 0, 0)).answer
    # two vertices without bars are a disconnected target
    with pytest.raises(ValueError):
        decide_colored(cycle(4), disjoint_union([build_F(0, 0), build_F(0, 0)]))


# ------------------------------------------------------- colored targets

def directed_cycle(n, flip=()):
    b = GraphBuilder()
    for _ in range(n):
        b.add_vertex()
    for i in range(n):
        colors = (2, 1) if i in flip else (1, 2)
        if n == 1:
            b.add_loop(0, colors=colors)
        else:
            b.add_edge(i, (i + 1) % n, colors=colors)
    return b.build()


def one_vertex_directed_loop():
    b = GraphBuilder()
    b.add_vertex()
    b.add_loop(0, colors=(1, 2))
    return b.build()


def test_directed_loop_takes_consistent_orientations():
    h = one_vertex_directed_loop()
    for n in (1, 2, 3, 5):
        g = directed_cycle(n)
        v = decide_colored(g, h)
        check_verdict(v, g, h)
        assert v.answer


def test_directed_loop_rejects_flipped_edge():
    h = one_vertex_directed_loop()
    assert not decide_colored(directed_cycle(4, flip=(1,)), h).answer


def test_colored_classes_decided_independently():
    b = GraphBuilder()
    b.add_vertex()
    b.add_loop(0, colors=(1, 1))
    b.add_semi(0, color=2)
    h = b.build()
    rng = random.Random(5)
    for k in (1, 2, 3):
        g = random_lift(h, k, rng)
        v = decide_colored(g, h)
        check_verdict(v, g, h)
        assert v.answer


def test_colored_signature_mismatch_is_no():
    b = GraphBuilder()
    b.add_vertex()
    b.add_loop(0, colors=(1, 1))
    b.add_semi(0, color=2)
    h = b.build()
    g = cycle(4)
    assert not decide_colored(g, h).answer


# ------------------------------------------------- two-vertex, separated

def test_separated_sides_forced_by_degree():
    h = build_W(1, 0, 1, 0, 0)
    b = GraphBuilder()
    b.add_vertex()
    b.add_vertex()
    b.add_edge(0, 1)
    b.add_semi(0)
    g = b.build()
    v = decide_colored(g, h)
    check_verdict(v, g, h)
    assert v.answer
    assert not decide_colored(path(2), h).answer


def test_separated_lifts_cover():
    rng = random.Random(11)
    targets = [build_W(1, 0, 1, 0, 0), build_W(2, 0, 1, 0, 0),
               build_W(0, 1, 1, 0, 0), build_W(1, 0, 2, 0, 0)]
    for h in targets:
        for k in (1, 2, 3):
            g = random_lift(h, k, rng)
            v = decide_colored(g, h)
            check_verdict(v, g, h)
            assert v.answer, (h.n_links, k)


# --------------------------------------------------- two-vertex, regular

def test_two_bars_takes_even_cycles():
    h = build_W(0, 0, 2, 0, 0)
    for n in (4, 6, 8):
        v = decide_colored(cycle(n), h)
        check_verdict(v, cycle(n), h)
        assert v.answer
    for n in (3, 5, 7):
        assert not decide_colored(cycle(n), h).answer


def test_semi_bar_target():
    h = build_W(1, 0, 1, 0, 1)
    g = path(2, semi_ends=True)
    v = decide_colored(g, h)
    check_verdict(v, g, h)
    assert v.answer
    # interior edges may collapse onto the semi when both ends share a side
    g4 = path(4, semi_ends=True)
    v4 = decide_colored(g4, h)
    check_verdict(v4, g4, h)
    assert v4.answer
    assert not decide_colored(cycle(3), h).answer
    assert not decide_colored(path(3, semi_ends=True), h).answer


def test_directed_target_small():
    h = build_WD(1, 1, 1)
    rng = random.Random(23)
    for k in (1, 2, 3):
        g = random_lift(h, k, rng)
        v = decide_colored(g, h)
        check_verdict(v, g, h)
        assert v.answer


def two_semis_beside_a_loop():
    """A colour-1 bar whose ends carry two colour-0 semi-edges and one
    colour-0 loop: the colour-0 component of the first end covers neither
    F(0,1) side of barred_pair(0, 1, 0, 1)."""
    b = GraphBuilder()
    b.add_vertex()
    b.add_vertex()
    b.add_edge(0, 1, colors=(1, 1))
    b.add_semi(0)
    b.add_semi(0)
    b.add_loop(1)
    return b.build()


# one source per reason the 2-SAT path refutes a cover, with its target
REFUTED = [
    ("a link of a bars-only class does not cross", path(2, semi_ends=True),
     build_W(0, 0, 2, 0, 0)),
    ("no link at a vertex can cross", build_F(2, 0), build_W(1, 0, 1, 0, 1)),
    ("a vertex would have to differ from itself", cycle(2), build_W(1, 0, 1, 0, 1)),
    ("class component covers neither side", two_semis_beside_a_loop(),
     barred_pair(0, 1, 0, 1)),
    ("2-SAT unsatisfiable", cycle(3), build_W(0, 0, 2, 0, 0)),
]


@pytest.mark.parametrize("reason, g, h", REFUTED, ids=[r for r, _, _ in REFUTED])
def test_two_sat_refutation_reasons(reason, g, h):
    v = decide_colored(g, h)
    assert (v.answer, v.method, v.reason) == (False, "2-SAT", reason)
    assert find_cover(g, h) is None


@pytest.mark.parametrize("h, per_component", [
    (barred_pair(1, 0, 1, 0), 1),   # F(1,0) beside F(1,0): one piece
    (barred_pair(2, 0, 0, 1), 2),   # F(2,0) beside F(0,1): two pieces
])
def test_bar_free_class_solves_each_component_once_per_piece(monkeypatch, h, per_component):
    g = random_lift(h, 5, random.Random(7))
    calls, before_mapping = [], []
    decide_f, map_sides = deciders._decide_f, deciders._map_sides
    monkeypatch.setattr(deciders, "_decide_f", lambda *a: calls.append(a) or decide_f(*a))
    monkeypatch.setattr(deciders, "_map_sides",
                        lambda *a: before_mapping.append(len(calls)) or map_sides(*a))
    v = decide_colored(g, h)
    check_verdict(v, g, h)
    assert v.answer and v.method == "2-SAT"
    class_0, _ = induced_link_subgraph(g, frozenset({0}))
    assert before_mapping == [per_component * len(components(class_0))]


def test_hard_two_vertex_raises():
    h1 = build_W(1, 1, 1, 1, 1)
    h2 = build_WD(1, 2, 1)
    # NP-complete targets go to exact search, which finds the identity
    for h in (h1, h2):
        v = decide_colored(h, h)
        assert v.answer and v.method == "brute-force-fallback"
        check_verdict(v, h, h)
    assert not decide_colored(cycle(4), h1).answer


# ------------------------------------------------------ perfect matching

def test_general_perfect_matching():
    assert exact_link_cover(cycle(6)) is not None
    assert exact_link_cover(cycle(5)) is None
    b = GraphBuilder()
    for _ in range(5):
        b.add_vertex()
    for i in range(5):
        b.add_edge(i, (i + 1) % 5)
    b.add_semi(0)
    g = b.build()
    cover = exact_link_cover(g)
    assert cover is not None
    counts = [0] * g.n
    for l in cover:
        assert g.link_kind(l) != LOOP
        for d in g.links[l]:
            counts[g.vertex_of[d]] += 1
    assert counts == [1] * g.n


# ------------------------------------------------------------------ fuzz

def test_one_vertex_fuzz_against_search():
    rng = random.Random(71)
    families = [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    hits = 0
    for trial in range(220):
        b, c = families[trial % len(families)]
        h = build_F(b, c)
        roll = rng.random()
        if roll < 0.45:
            g = random_lift(h, rng.randrange(1, 4), rng)
        elif roll < 0.7:
            g = perturb(random_lift(h, rng.randrange(1, 4), rng), rng)
        else:
            g = random_graph(rng, rng.randrange(1, 6), rng.randrange(0, 7),
                             semis=rng.random() < 0.5)
        if g.n_darts > 16:
            continue
        v = decide_colored(g, h)
        check_verdict(v, g, h)
        expect = find_cover(g, h) is not None
        assert v.answer == expect, (b, c, g.links)
        hits += v.answer
    assert hits > 40


def test_two_vertex_fuzz_against_search():
    rng = random.Random(72)
    targets = [build_W(0, 0, 2, 0, 0), build_W(0, 0, 3, 0, 0),
               build_W(1, 0, 1, 0, 1), build_WD(1, 1, 1),
               build_W(1, 0, 1, 0, 0), build_W(0, 1, 1, 0, 0)]
    hits = 0
    for trial in range(180):
        h = targets[trial % len(targets)]
        if rng.random() < 0.6:
            g = random_lift(h, rng.randrange(1, 4), rng)
        else:
            g = perturb(random_lift(h, rng.randrange(1, 3), rng), rng)
        if g.n_darts > 16:
            continue
        v = decide_colored(g, h)
        check_verdict(v, g, h)
        expect = find_cover(g, h) is not None
        assert v.answer == expect
        hits += v.answer
    assert hits > 40


def test_disjoint_sources_still_decide():
    g = disjoint_union([cycle(3), cycle(4)])
    assert decide_colored(g, build_F(0, 1)).answer
    assert not decide_colored(g, build_F(2, 0)).answer
    g2 = disjoint_union([cycle(4), cycle(6)])
    assert decide_colored(g2, build_W(0, 0, 2, 0, 0)).answer
