"""Polynomial deciders against canned families and the exact search."""

import random
import time

import pytest

from semicover import deciders, graph
from semicover.build import build_F, build_W, build_WD, complete, cycle, path, petersen
from semicover.cover import DartMapping, find_cover
from semicover.dichotomy import classify, decide_colored
from semicover.graph import (LOOP, GraphBuilder, components, disjoint_union,
                             induced_link_subgraph, is_connected, type_signature)
from semicover.matching import exact_link_cover
from semicover.twosat import lit, neg, two_sat_solve
from test_dichotomy import barred_pair, small_targets
from util import (assert_cover_ok, connected_multigraphs, perturb, random_graph, random_lift,
                  reference_f20_darts, switched as _switch)

METHODS = {"regularity", "matching", "2-factor", "bipartite-decomposition",
           "2-SAT", "brute-force-fallback", "side-search"}


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


def crossed_pair(ends):
    """Two vertices joined by a bar of color 1; ends[v] gives vertex v's
    (semis, loops) in color 0 and then in color 2."""
    b = GraphBuilder()
    b.add_vertex()
    b.add_vertex()
    b.add_edge(0, 1, colors=(1, 1))
    for v, per_color in enumerate(ends):
        for color, (semis, loops) in zip((0, 2), per_color):
            for _ in range(semis):
                b.add_semi(v, color=color)
            for _ in range(loops):
                b.add_loop(v, colors=(color, color))
    return b.build()


# F(2,0) at vertex 0 and F(0,1) at vertex 1 in color 0, the other way in color 2
CROSSED = crossed_pair((((2, 0), (0, 1)), ((0, 1), (2, 0))))


@pytest.mark.parametrize("g, h, vertex_map, reason", [
    # vertex 0, the lowest of its parity component, has the loop: its unit says side 1
    (barred_pair(0, 1, 2, 0), barred_pair(2, 0, 0, 1), (1, 0), ""),
    # the same in a second parity component, whose lowest vertex is 2
    (disjoint_union([barred_pair(2, 0, 0, 1), barred_pair(0, 1, 2, 0)]),
     barred_pair(2, 0, 0, 1), (0, 1, 1, 0), ""),
    # both ends of the bar have the loop: their units clash
    (barred_pair(0, 1, 0, 1), barred_pair(2, 0, 0, 1), None, "2-SAT unsatisfiable"),
    # vertex 0 has loops in both classes, whose F(0,1) pieces lie on opposite sides
    (crossed_pair((((0, 1), (0, 1)), ((2, 0), (2, 0)))), CROSSED, None, "2-SAT unsatisfiable"),
], ids=["unit-flips-the-root", "unit-flips-a-later-root", "units-clash-across-a-bar",
        "units-clash-at-a-vertex"])
def test_units_fix_the_sides_of_a_parity_component(g, h, vertex_map, reason):
    v = decide_colored(g, h)
    assert (v.answer, v.method, v.reason) == (vertex_map is not None, "2-SAT", reason)
    if v.answer:
        assert v.witness.vertex_map == vertex_map
        assert_cover_ok(g, h, v.witness, check_fibers=True)
    else:
        assert find_cover(g, h) is None


def _parity_system(rng, n):
    """A random system of side equalities, inequalities and units on n
    vertices, as _parity_solve's adjacency and units and as 2-SAT clauses
    (variable v true for side 0)."""
    adj = [[] for _ in range(n)]
    units, clauses = [], []
    for _ in range(rng.randrange(2 * n)):
        u, w, p = rng.randrange(n), rng.randrange(n), rng.randrange(2)
        adj[u].append((w, p))
        adj[w].append((u, p))
        x = lit(w) if p else neg(lit(w))
        clauses += [(lit(u), x), (neg(lit(u)), neg(x))]
    for _ in range(rng.randrange(3)):
        v, s = rng.randrange(n), rng.randrange(2)
        units.append((v, s))
        clauses.append((lit(v, s == 0),) * 2)
    return adj, units, clauses


def test_parity_solve_matches_two_sat():
    """_parity_solve agrees with two_sat_solve on satisfiability, and each
    solution it returns satisfies every clause."""
    rng = random.Random(101)
    solved = 0
    for _ in range(1500):
        n = rng.randrange(1, 10)
        adj, units, clauses = _parity_system(rng, n)
        side = graph._parity_solve(adj, units)
        assert (side is None) == (two_sat_solve(n, clauses) is None), (adj, units)
        if side is not None:
            solved += 1
            assert all(side[v] in (0, 1) for v in range(n))
            assert all((side[a // 2] == 0) != (a & 1) or (side[b // 2] == 0) != (b & 1)
                       for a, b in clauses)
    assert 300 < solved < 1200


def _parity_targets():
    """Corpus targets on two vertices of one type signature whose rows are
    all P: decide_colored gives them to _choose_sides."""
    for h in small_targets(5):
        if h.n == 2 and type_signature(h, 0) == type_signature(h, 1) and all(
                r.verdict == "P" for r in deciders.dichotomy_table(h)[1]):
            yield h


def test_parity_sides_match_exact_search():
    """On every corpus target that takes the parity path, decide_colored
    answers as find_cover does on h, on seeded lifts (k <= 3), on lifts
    with a link rewired and on lifts with two far ends swapped (_switch);
    every yes passes verify_cover with its fibres checked."""
    rng = random.Random(102)
    cases, answers, reasons = 0, set(), set()
    for h in _parity_targets():
        sources = [h]
        for k in (1, 2, 3):
            lift = random_lift(h, k, rng)
            sources += [lift, perturb(lift, rng), _switch(lift, rng)]
        for g in sources:
            v = decide_colored(g, h)
            assert v.method in ("2-SAT", "regularity"), h.links
            assert v.answer == (find_cover(g, h) is not None), (h.links, g.links)
            if v.answer:
                assert_cover_ok(g, h, v.witness, check_fibers=True)
            answers.add(v.answer)
            reasons.add(v.reason)
            cases += 1
    assert cases > 500 and answers == {False, True}
    assert "2-SAT unsatisfiable" in reasons


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


def _colorset_buckets(h):
    """The class grouping that the (lower, higher) pairs replaced, in
    bucket form: links keyed by their set of dart colors, loops and bars
    led by the dart of the minimum color, a bar stored as (dart at vertex
    0, dart at vertex 1) under its direction: 0 when monochromatic, else
    the vertex of its minimum-colored dart."""
    stay, cross = {}, {}
    for cell in h.links:
        cs = frozenset(h.dart_color[d] for d in cell)
        cls = (min(cs), max(cs))
        led = cell if h.dart_color[cell[0]] == min(cs) else cell[::-1]
        u, w = h.vertex_of[led[0]], h.vertex_of[led[-1]]
        if u == w:
            stay.setdefault((cls, u), []).append(led)
        else:
            direction = u if len(cs) == 2 else 0
            cross.setdefault((cls, direction, 1 - direction), []).append(
                led if u == 0 else led[::-1])
    return stay, cross


def test_class_pairs_match_colorset_reference():
    rng = random.Random(83)
    targets = list(small_targets(5))
    targets += [random_graph(rng, rng.choice((1, 2)), rng.randrange(0, 9), colors=range(4))
                for _ in range(300)]
    directed = 0
    for h in targets:
        stay, cross = deciders._buckets(h, range(h.n))
        assert (stay, cross) == _colorset_buckets(h), h.links
        table_stay = deciders.dichotomy_table(h)[0][0]
        assert table_stay == stay and list(table_stay) == sorted(stay)
        directed += any(lo != hi for (lo, hi), *_ in (*stay, *cross))
    assert directed > 100
    # sources: each link's class and lead, read from the buckets of g with
    # every vertex on side 0, and the darts of each class against the
    # subgraph the 2-SAT decider used to build per class
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 7), rng.randrange(0, 14), colors=range(4))
        darts, leads = {}, {}
        for cell in g.links:
            cs = frozenset(g.dart_color[d] for d in cell)
            led = cell if g.dart_color[cell[0]] == min(cs) else cell[::-1]
            leads.setdefault(((min(cs), max(cs)), 0), []).append(led)
            darts.setdefault((min(cs), max(cs)), []).extend(cell)
        assert deciders._buckets(g, [0] * g.n) == (leads, {})
        order = sorted({frozenset(pair) for pair in darts}, key=sorted)
        assert [(min(cs), max(cs)) for cs in order] == sorted(darts)
        for cs in order:
            assert graph.induced_link_subgraph(g, cs)[1] == tuple(sorted(darts[min(cs), max(cs)]))


@pytest.mark.parametrize("h", [build_F(1, 1), build_W(1, 0, 1, 0, 0), barred_pair(1, 0, 1, 0)],
                         ids=["one-vertex", "forced", "2-SAT"])
def test_one_piece_table_per_decision(monkeypatch, h):
    calls = []
    buckets = deciders._buckets

    def counted(t, side):  # the buckets of h, not those of the sources
        if t is h:
            calls.append(t)
        return buckets(t, side)

    monkeypatch.setattr(deciders, "_buckets", counted)

    def induced_link_subgraph(*a):
        raise AssertionError("the decider builds class subgraphs itself")

    monkeypatch.setattr(graph, "induced_link_subgraph", induced_link_subgraph)
    assert not hasattr(deciders, "induced_link_subgraph")
    g = random_lift(h, 6, random.Random(5))
    for source in (g, perturb(g, random.Random(6))):
        v = decide_colored(source, h)
        check_verdict(v, source, h)
        assert v.method != "brute-force-fallback"
    classify(h)
    assert calls == [h]  # h's plan is built on its first use and kept on it


def _any_map_targets():
    """3- and 4-vertex targets whose type signatures tell every vertex
    apart and whose stay buckets are each a polynomial one-vertex piece."""
    rng = random.Random(89)
    pool = [h for h in connected_multigraphs(8) if h.n in (3, 4)]
    pool += [random_graph(rng, rng.choice((3, 4)), rng.randrange(3, 9), colors=range(3))
             for _ in range(600)]
    for h in pool:
        if not is_connected(h) or len({type_signature(h, v) for v in range(h.n)}) < h.n:
            continue
        stay, _ = deciders._buckets(h, range(h.n))
        if all(deciders._vertex_row(cls, cells, "").verdict == "P"
               for (cls, _), cells in stay.items()):
            yield h


def test_map_sides_takes_any_vertex_map():
    """With the vertex map forced by type signatures, _map_sides maps the
    darts onto a target on three or four vertices exactly when a cover
    exists, and every map it returns is a cover.  Sources are lifts, lifts
    with a link rewired, and lifts with two far ends swapped (_switch)."""
    rng = random.Random(90)
    targets = yes = 0
    for h in _any_map_targets():
        targets += 1
        buckets = deciders._buckets(h, range(h.n))
        sides = {type_signature(h, s): s for s in range(h.n)}
        for k in (1, 2, 3, 4):
            lift = random_lift(h, k, rng)
            for g in (lift, perturb(lift, rng), _switch(lift, rng)):
                side = [sides.get(type_signature(g, u)) for u in range(g.n)]
                found = None if None in side else deciders._map_sides(g, buckets, side)
                assert (found is not None) == (find_cover(g, h) is not None), (h.links, g.links)
                if found is not None:
                    f = DartMapping(tuple(found[d] for d in range(g.n_darts)), tuple(side))
                    assert_cover_ok(g, h, f, check_fibers=True)
                    yes += 1
    assert targets > 100 and yes > 400


def test_signature_no_names_the_first_unmatched_vertex():
    """A no at the type signatures names the lowest vertex whose type
    signature no target vertex has, as matching sorted signatures did:
    on lifts of corpus targets, perturbed, and beside seeded multigraphs
    of degree up to 40 whose dart types the target may lack."""
    rng = random.Random(229)
    named = 0
    for i, h in enumerate(small_targets(4)):
        if i % 5 or graph._planned(h, deciders._decider_plan).route is None:
            continue
        sigs = {type_signature(h, w) for w in range(h.n)}
        lift = random_lift(h, rng.randrange(1, 4), rng)
        noise = random_graph(rng, rng.randrange(1, 3), rng.randrange(21), colors=(0, 1, 2))
        for g in (lift, perturb(lift, rng), disjoint_union([lift, noise]),
                  disjoint_union([noise, lift])):
            first = next((u for u in range(g.n) if type_signature(g, u) not in sigs), None)
            v = decide_colored(g, h)
            if first is None:
                assert not v.reason.startswith("no target vertex has the type signature")
            else:
                assert (v.answer, v.reason) == (
                    False, f"no target vertex has the type signature of vertex {first}")
                named += 1
    assert named > 800


def test_hard_two_vertex_raises():
    h1 = build_W(1, 1, 1, 1, 1)
    h2 = build_WD(1, 2, 1)
    # NP-complete targets with polynomial stays go to the side search,
    # which finds the identity
    for h in (h1, h2):
        v = decide_colored(h, h)
        assert v.answer and v.method == "side-search"
        check_verdict(v, h, h)
    assert not decide_colored(cycle(4), h1).answer


# ------------------------------------------------------------ side search

def _side_searched(h):
    """h has two vertices of one type signature and an NP-complete row,
    and its stay buckets are each a polynomial one-vertex piece."""
    if h.n != 2 or type_signature(h, 0) != type_signature(h, 1):
        return False
    (stay, _), rows = deciders.dichotomy_table(h)
    return any(r.verdict != "P" for r in rows) and all(
        deciders._vertex_row(cls, cells, "").verdict == "P" for (cls, _), cells in stay.items())


def _side_search_targets():
    return [h for h in small_targets(5) if _side_searched(h)]


def test_side_search_rows_mark_exactly_the_qualifying_targets():
    qualifying = 0
    for h in small_targets(5):
        rows = deciders.dichotomy_table(h)[1]
        routed = any(r.verdict != "P" for r in rows) and all(
            r.method == "side-search" for r in rows if r.verdict != "P")
        assert routed == _side_searched(h), h.links
        qualifying += routed
    assert qualifying == 44


def test_side_search_matches_exact_search():
    """On every qualifying corpus target, the side search answers as
    find_cover does on h, on seeded lifts (k <= 4), on lifts with a link
    rewired and on lifts with two far ends swapped (_switch)."""
    rng = random.Random(98)
    cases = yes = 0
    for h in _side_search_targets():
        sources = [h]
        for k in (1, 2, 3, 4):
            lift = random_lift(h, k, rng)
            sources += [lift, perturb(lift, rng), _switch(lift, rng)]
        for g in sources:
            v = decide_colored(g, h)
            assert v.method == "side-search", h.links
            assert v.answer == (find_cover(g, h) is not None), (h.links, g.links)
            if v.answer:
                assert_cover_ok(g, h, v.witness, check_fibers=True)
                yes += 1
            cases += 1
    assert cases == 44 * 13 and 250 < yes < cases


def test_side_search_answers_large_lifts_at_once():
    h = build_W(1, 1, 1, 1, 1)
    for seed in range(1, 7):
        g = random_lift(h, 200, random.Random(seed))
        t0 = time.monotonic()
        v = decide_colored(g, h)
        assert time.monotonic() - t0 < 1.0, seed
        assert v.answer and v.method == "side-search"
        assert_cover_ok(g, h, v.witness, check_fibers=True)
    # the stack of choice points is a list: no RecursionError at depth 1,000
    h = build_W(1, 0, 2, 0, 1)
    g = random_lift(h, 500, random.Random(1))
    v = decide_colored(g, h)
    assert v.answer and v.method == "side-search"
    assert_cover_ok(g, h, v.witness, check_fibers=True)


def test_connected_sources_are_not_split(monkeypatch):
    """components() of a connected source is the source itself with
    identity ids, so the side search decides seeded connected lifts of
    W(1,1,1,1,1) and WD(1,2,1), and switched ones, without a _split pass."""
    splits = []
    split = graph._split

    def counted(*args):
        splits.append(args)
        return split(*args)
    monkeypatch.setattr(graph, "_split", counted)
    rng = random.Random(61)
    answers = []
    for h in (build_W(1, 1, 1, 1, 1), build_WD(1, 2, 1)):
        for k in (4, 6, 8, 8, 12):
            lift = random_lift(h, k, rng)
            for g in (lift, _switch(lift, rng)):
                if not is_connected(g):
                    continue
                (comp,) = components(g)
                assert comp.graph is g and comp.vertex_ids == tuple(range(g.n))
                assert comp.dart_ids == tuple(range(g.n_darts))
                v = decide_colored(g, h)
                assert v.method == "side-search"
                answers.append(v.answer)
    assert splits == [] and len(answers) > 12 and True in answers and False in answers


def _unit_target():
    """W(1,1,1,1,1) in color 0 beside F(2,0) at vertex 0 and F(0,1) at
    vertex 1 in color 1: a class without bars next to an NP-complete one."""
    b = GraphBuilder()
    b.add_vertex()
    b.add_vertex()
    b.add_edge(0, 1)
    for v in (0, 1):
        b.add_semi(v)
        b.add_loop(v)
    b.add_semi(0, color=1)
    b.add_semi(0, color=1)
    b.add_loop(1, colors=(1, 1))
    return b.build()


def _one_sided(g):
    """The color-1 components of g that cover F(2,0) or F(0,1) but not
    both: a path between two semi-edges, or an odd cycle (a loop too)."""
    sub, _ = graph.induced_link_subgraph(g, frozenset({1}))
    count = 0
    for comp in components(sub):
        c = comp.graph
        if any(c.degree(v) != 2 for v in range(c.n)):
            continue
        semis = sum(c.link_kind(l) == graph.SEMI for l in range(c.n_links))
        count += semis == 2 or (semis == 0 and c.n % 2 == 1)
    return count


def test_side_search_propagates_units():
    """On a side-search target with a color class that has no bars, each
    component of that class covering one side only is a unit that the
    search sets before it branches.  The answers equal find_cover's on
    seeded lifts (k <= 4), on lifts with a link rewired and on lifts with
    two far ends swapped (_switch); every answer is tagged "side-search",
    every yes passes verify_cover with its fibres checked and every no
    gives a reason."""
    h = _unit_target()
    rows = deciders.dichotomy_table(h)[1]
    assert [r.verdict for r in rows] == ["NP-complete", "P"] and rows[0].method == "side-search"
    rng = random.Random(103)
    cases = yes = units = 0
    for _ in range(12):
        for k in (1, 2, 3, 4):
            lift = random_lift(h, k, rng)
            for g in (lift, perturb(lift, rng), _switch(lift, rng)):
                v = decide_colored(g, h)
                assert v.method == "side-search", g.links
                assert v.answer == (find_cover(g, h) is not None), g.links
                assert v.answer or v.reason, g.links
                if v.answer:
                    assert_cover_ok(g, h, v.witness, check_fibers=True)
                    yes += 1
                cases += 1
                units += _one_sided(g)
    assert 60 < yes < cases and units > 100
    for k in (8, 64, 200):
        lift = random_lift(h, k, random.Random(k))
        for g in (lift, _switch(lift, random.Random(k))):
            t0 = time.monotonic()
            v = decide_colored(g, h)
            assert time.monotonic() - t0 < 1.0, k
            assert v.method == "side-search" and (v.answer or g is not lift)
            assert v.answer or v.reason, k
            if v.answer:
                assert_cover_ok(g, h, v.witness, check_fibers=True)


def _two_regular_piece(rng):
    """A 2-regular graph of a few components, its vertex ids shuffled:
    cycles (a loop, two parallel edges, longer) and paths between two
    semi-edges (one vertex with two semi-edges, longer)."""
    comps = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 5))]
    ids = rng.sample(range(sum(comps)), sum(comps))
    b = GraphBuilder()
    for _ in ids:
        b.add_vertex()
    at = 0
    for size in comps:
        vs = ids[at:at + size]
        at += size
        if rng.random() < 0.5:
            if size == 1:
                b.add_loop(vs[0])
            else:
                for i, u in enumerate(vs):
                    b.add_edge(u, vs[(i + 1) % size])
        else:
            b.add_semi(vs[0])
            for u, w in zip(vs, vs[1:]):
                b.add_edge(u, w)
            b.add_semi(vs[-1])
    return b.build()


def test_f20_darts_match_the_reference_coloring():
    """The F(2,0) branch of _decide_f, a call of _parity_solve, gives the
    same dart map as the dart 2-coloring it replaced, or None with it, on
    seeded 2-regular pieces with loops, semi-edges and several components."""
    cells = deciders.dichotomy_table(build_F(2, 0))[0][0][(0, 0), 0]
    semis = deciders._semis_loops(cells)[0]
    rng = random.Random(104)
    found = 0
    for _ in range(400):
        g = _two_regular_piece(rng)
        want = reference_f20_darts(g, semis)
        assert deciders._decide_f(g, cells) == want, g.links
        found += want is not None
    assert 100 < found < 300


# ------------------------------------------------------ perfect matching

def test_f10_piece_maps_every_dart_without_a_matching(monkeypatch):
    """On F(1,0) every vertex has one dart, so exact_link_cover would put
    every link in the cover: _decide_f maps each dart to the semi-edge
    without running it, and refuses every other degree."""
    cells = deciders.dichotomy_table(build_F(1, 0))[0][0][(0, 0), 0]

    def no_matching(*a):
        raise AssertionError("an F(1,0) piece needs no matching")

    monkeypatch.setattr(deciders, "exact_link_cover", no_matching)
    rng = random.Random(97)
    ones = 0
    for trial in range(300):
        n = rng.randrange(1, 12)
        if trial % 2:
            g = random_graph(rng, n, rng.randrange(0, 2 * n))
        else:
            order = rng.sample(range(n), n)
            pairs = rng.randrange(n // 2 + 1)
            b = GraphBuilder()
            for _ in range(n):
                b.add_vertex()
            for i in range(pairs):
                b.add_edge(order[2 * i], order[2 * i + 1])
            for v in order[2 * pairs:]:
                b.add_semi(v)
            g = b.build()
        want = None
        if all(g.degree(v) == 1 for v in range(g.n)):
            cover = exact_link_cover(g)
            assert sorted(cover) == list(range(g.n_links))
            want = {d: cells[0][0] for l in cover for d in g.links[l]}
            ones += 1
        assert deciders._decide_f(g, cells) == want, g.links
    assert ones > 150


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
