"""Complexity classification and the colored dispatch decider."""

import itertools
import math
import pickle
import random
import sys

import pytest

import semicover.dichotomy
from semicover.build import build_F, build_W, build_WD, complete, cycle, path
from semicover.canon import _certificate
from semicover.cover import ResourceLimit, find_cover
from semicover.dichotomy import Classification, OutOfScope, classify, decide_colored
from semicover.graph import GraphBuilder, disjoint_union
from util import (arrays, assert_cover_ok, connected_multigraphs, lift_oracle, perturb,
                  random_lift, voltage_lifts)

POLY_TARGETS = ([build_F(0, c) for c in range(4)]
                + [build_F(1, c) for c in range(3)]
                + [build_F(2, 0)]
                + [build_W(0, 0, k, 0, 0) for k in (1, 2, 3)])


def barred_pair(k, m, q, p):
    """Two vertices joined by a bar of color 1, with k semis and m loops at
    one and q semis and p loops at the other in color 0."""
    b = GraphBuilder()
    b.add_vertex()
    b.add_vertex()
    b.add_edge(0, 1, colors=(1, 1))
    for v, semis, loops in ((0, k, m), (1, q, p)):
        for _ in range(semis):
            b.add_semi(v)
        for _ in range(loops):
            b.add_loop(v)
    return b.build()


# the last two are regular targets whose color-0 class has no bars
HARD_TARGETS = [build_F(2, 1), build_F(3, 0), build_W(1, 1, 1, 1, 1),
                build_WD(1, 2, 1), build_W(2, 2, 2, 1, 1),
                barred_pair(1, 1, 3, 0), barred_pair(2, 1, 2, 1)]


def test_polynomial_table():
    for h in POLY_TARGETS:
        cls = classify(h)
        assert cls.polynomial, h.links
        assert cls.verdict == "P"
        assert all(v == "P" for v in cls.pieces.values())
        assert "NP-complete" not in cls.rules[0]


def test_hard_table():
    for h in HARD_TARGETS:
        cls = classify(h)
        assert not cls.polynomial, h.links
        assert cls.verdict == "NP-complete"
        assert any(v == "NP-complete" for v in cls.pieces.values())
        # the header of a regular two-vertex target says its side choice is hard
        assert "2-SAT" not in cls.rules[0]


def test_rules_cite_inequalities():
    cls = classify(build_F(2, 1))
    joined = " ".join(cls.rules)
    assert "F(2,1)" in joined and ">= 2" in joined and ">= 3" in joined
    cls = classify(build_W(1, 1, 1, 1, 1))
    joined = " ".join(cls.rules)
    assert "k+2m+l" in joined and ">= 3" in joined
    cls = classify(build_WD(1, 2, 1))
    joined = " ".join(cls.rules)
    assert "m+l" in joined and ">= 3" in joined


def test_nonregular_hard_side():
    cls = classify(build_W(2, 2, 2, 1, 1))
    assert not cls.polynomial
    joined = " ".join(cls.rules)
    assert "F(2,2)" in joined and "NP-complete" in joined
    assert cls.pieces.get("vertex 1 color 0") == "P"
    assert cls.pieces.get("vertex 0 color 0") == "NP-complete"


def test_disconnected_targets_fail_alike():
    # one error from whichever plan reads the target first (the decider
    # plan on two vertices, the search plan beyond), on a repeated call too,
    # as a disconnected target keeps no plan
    targets = [disjoint_union([build_F(0, 1), build_F(2, 0)]),
               disjoint_union([build_F(1, 0), build_W(0, 0, 1, 0, 0)]),
               disjoint_union([build_W(0, 0, 1, 0, 0), build_W(0, 0, 2, 0, 0)])]
    for h in targets:
        calls = [lambda: decide_colored(cycle(4), h), lambda: find_cover(cycle(4), h)]
        if h.n == 2:
            calls.append(lambda: classify(h))
        for call in calls:
            for _ in range(2):
                with pytest.raises(OutOfScope, match="^disconnected target$"):
                    call()
    assert [h.n for h in targets] == [2, 3, 4]


def test_classify_scope():
    with pytest.raises(OutOfScope):
        classify(cycle(3))
    with pytest.raises(OutOfScope):
        classify(GraphBuilder().build())
    with pytest.raises(OutOfScope):
        classify(disjoint_union([build_F(0, 1), build_F(0, 1)]))


def test_decide_colored_dispatch_methods():
    v = decide_colored(cycle(4), build_F(0, 1))
    assert v.answer and v.method != "brute-force-fallback"
    v = decide_colored(cycle(4), build_W(0, 0, 2, 0, 0))
    assert v.answer and v.method == "2-SAT"
    v = decide_colored(path(2), build_W(1, 0, 1, 0, 0))
    assert v.method != "brute-force-fallback"
    v = decide_colored(build_F(3, 0), build_F(3, 0))
    assert v.answer and v.method == "brute-force-fallback"


def test_decide_colored_fuzz_against_search():
    rng = random.Random(59)
    targets = POLY_TARGETS[1:] + HARD_TARGETS[:2]
    hits = 0
    for trial in range(200):
        h = targets[trial % len(targets)]
        if rng.random() < 0.55:
            g = random_lift(h, rng.randrange(1, 4), rng)
        else:
            g = perturb(random_lift(h, rng.randrange(1, 3), rng), rng)
        if g.n_darts > 14:
            continue
        v = decide_colored(g, h)
        expect = find_cover(g, h) is not None
        assert v.answer == expect
        if v.answer:
            assert_cover_ok(g, h, v.witness)
            hits += 1
    assert hits > 50


def test_decide_colored_scope_and_budget():
    from semicover.cover import ResourceLimit
    v = decide_colored(cycle(6), cycle(3))
    assert v.answer and v.method == "brute-force-fallback"
    assert_cover_ok(cycle(6), cycle(3), v.witness)
    with pytest.raises(ValueError):
        decide_colored(cycle(3), disjoint_union([cycle(3), cycle(3)]))
    with pytest.raises(ValueError):
        decide_colored(cycle(3), disjoint_union([build_F(0, 1), build_F(0, 1)]))
    big = random_lift(build_F(3, 0), 6, random.Random(2))
    with pytest.raises(ResourceLimit):
        decide_colored(big, build_F(3, 0), budget=10)


# Link types of the small-target corpus: semis and loops in mono colours 0
# and 1 at either vertex, directed loops of the colour pair (1, 2), bars in
# mono colours, and directed bars in both directions.
VERTEX_LINKS = [(kind, c) for kind in ("semi", "loop") for c in (0, 1)] + [("loop", (1, 2))]
BAR_LINKS = [("bar", 0), ("bar", 1), ("bar", (1, 2)), ("bar", (2, 1))]


def _small_target(n, links):
    b = GraphBuilder()
    for _ in range(n):
        b.add_vertex()
    for kind, c, *at in links:
        cols = c if isinstance(c, tuple) else (c, c)
        if kind == "semi":
            b.add_semi(at[0], color=c)
        elif kind == "loop":
            b.add_loop(at[0], colors=cols)
        else:
            b.add_edge(0, 1, colors=cols)
    return b.build()


def small_targets(max_links):
    """Every connected target on one or two vertices with at most
    max_links links drawn from the corpus link types."""
    one = [t + (0,) for t in VERTEX_LINKS]
    two = [t + (v,) for v in (0, 1) for t in VERTEX_LINKS] + BAR_LINKS
    for size in range(max_links + 1):
        for links in itertools.combinations_with_replacement(one, size):
            yield _small_target(1, links)
        for links in itertools.combinations_with_replacement(two, size):
            if any(kind == "bar" for kind, *_ in links):
                yield _small_target(2, links)


def test_classify_agrees_with_deciders_on_small_targets():
    rng = random.Random(61)
    seen = poly = 0
    for h in small_targets(4):
        seen += 1
        cls = classify(h)
        method = decide_colored(h, h).method
        assert cls.polynomial == (method not in ("brute-force-fallback", "side-search")), h.links
        if not cls.polynomial:
            continue
        poly += 1
        lift = random_lift(h, 2, rng)
        for g in (lift, perturb(lift, rng)):
            v = decide_colored(g, h)
            assert v.answer == (find_cover(g, h) is not None), (h.links, g.links)
            if v.answer:
                assert_cover_ok(g, h, v.witness)
        # a 3-fold lift puts three source vertices over each target vertex
        g = random_lift(h, 3, rng)
        v = decide_colored(g, h)
        assert v.answer, (h.links, g.links)
        assert_cover_ok(g, h, v.witness)
    assert seen > 1000 and 0 < poly < seen


def test_target_plan_is_kept_on_the_target():
    """A target's plan lives on the target alone: deciding, searching and
    classifying leave its reference count as it was, so nothing else holds
    it.  A target that carries a plan survives a pickle round-trip and
    decides the same."""
    for h in (build_F(1, 1), build_F(2, 1), build_W(1, 1, 1, 1, 1), build_WD(1, 2, 1),
              barred_pair(1, 0, 1, 0)):
        g = random_lift(h, 3, random.Random(4))
        before = sys.getrefcount(h)
        verdict, cover, classification = decide_colored(g, h), find_cover(g, h), classify(h)
        assert sys.getrefcount(h) == before
        copy = pickle.loads(pickle.dumps(h))
        assert copy._plan.keys() == h._plan.keys()
        again = decide_colored(g, copy)
        assert (again.answer, again.method, again.witness) == (
            verdict.answer, verdict.method, verdict.witness)
        assert find_cover(g, copy) == cover and classify(copy) == classification


def _gate_cases():
    """(route, yes instance, no instance, the wrapper it reaches) per route."""
    lift = lambda h: (random_lift(h, 3, random.Random(5)), h)
    return [("one vertex", (cycle(4), build_F(0, 1)), (cycle(3), build_F(1, 0)),
             "decide_colored_one_vertex"),
            ("forced", lift(build_W(1, 0, 1, 0, 0)), (cycle(4), build_W(1, 0, 1, 0, 0)),
             "decide_two_vertex_nonregular"),
            ("2-SAT", lift(build_W(0, 0, 2, 0, 0)), (complete(4), build_W(0, 0, 2, 0, 0)),
             "decide_two_vertex_regular_2sat"),
            ("side-search", lift(build_W(1, 1, 1, 1, 1)), (cycle(4), build_W(1, 1, 1, 1, 1)),
             "decide_two_vertex_regular_2sat"),
            ("exact search", (complete(4), build_F(3, 0)), (cycle(6), build_F(3, 0)),
             "find_cover")]


def test_decide_colored_is_the_one_gate(monkeypatch):
    """decide_colored re-checks a yes from every route with its one
    verify_cover call, makes no such call on a no, and checks the dart
    budget of the side search before any decider runs.  The deciders
    own neither check."""
    from semicover import deciders
    assert not hasattr(deciders, "verify_cover") and not hasattr(deciders, "_check_budget")
    for route, (g, h), (g_no, h_no), wrapper in _gate_cases():
        reached, original = [], getattr(semicover.dichotomy, wrapper)
        monkeypatch.setattr(semicover.dichotomy, wrapper,
                            lambda *a, f=original, **k: reached.append(a) or f(*a, **k))
        v = decide_colored(g, h)
        assert v.answer and len(reached) == 1, route
        assert (v.method == "side-search") == (route == "side-search"), route
        calls = []
        monkeypatch.setattr(semicover.dichotomy, "verify_cover",
                            lambda *a, **k: calls.append(a) or ["a violation"])
        by = "exact search" if route == "exact search" else "decider"
        with pytest.raises(RuntimeError, match=f"^{by} produced a bad witness: a violation"):
            decide_colored(g, h)
        assert len(calls) == 1, route
        assert not decide_colored(g_no, h_no).answer and len(calls) == 1, route
        monkeypatch.undo()
    (_, (g, h), _, wrapper), = [c for c in _gate_cases() if c[0] == "side-search"]
    ran = []
    monkeypatch.setattr(semicover.dichotomy, wrapper, lambda *a, **k: ran.append(a))
    with pytest.raises(ResourceLimit, match="exceeds the search budget"):
        decide_colored(g, h, budget=g.n_darts - 1)
    assert ran == []


def test_voltage_lifts_are_every_labelled_lift():
    """The oracle on its own: one fibre point gives h itself, and the
    labelled lifts number (k!)^beta * I(k)^s, beta the cycle rank of the
    edges and loops and s the semi-edges; each verifies with its
    projection (lift_oracle checks that)."""
    involutions = {1: 1, 2: 2, 3: 4}
    for h in connected_multigraphs(6):
        ((g, f),) = voltage_lifts(h, 1)
        assert arrays(g) == arrays(h) and _certificate(g) == _certificate(h)
        assert f.dart_map == tuple(range(h.n_darts)) and f.vertex_map == tuple(range(h.n))
        semis = sum(len(cell) == 1 for cell in h.links)
        beta = h.n_links - semis - (h.n - 1)
        for k in (2, 3):
            lifts = sum(1 for _ in voltage_lifts(h, k))
            assert lifts == math.factorial(k) ** beta * involutions[k] ** semis, h.links


def test_decide_colored_agrees_with_the_voltage_lift_oracle():
    """Over every connected multigraph with at most 6 darts at k = 2 and
    3: every lift verifies with its projection, every connected class
    answers yes with a verified witness, and every connected switched
    lift (seeds 0-3) answers yes exactly when it is isomorphic to a
    lift.  The classes reach all five routes of decide_colored.  The
    same law holds on the colored corpus targets with at most 6 darts
    whose two vertices agree, where the uncolored pool reaches the 2-SAT
    route with few classes."""
    counts, wrong = lift_oracle(connected_multigraphs(6))
    assert wrong == []
    assert counts["lifts"] == 10_622 and counts["switched noes"] > 0
    for route in ("one vertex", "forced", "2-SAT", "side-search", "exact"):
        assert counts[f"classes, {route}"] > 0, route
    agree = {}
    for h in small_targets(5):    # a bar and four semi-edges: six darts
        if h.n_darts <= 6 and len(set(h.dart_color)) > 1 and classify(h).rules[0] == (
                "target is regular on two vertices: the side choice reduces to 2-SAT"):
            agree.setdefault(_certificate(h), h)
    counts, wrong = lift_oracle(agree.values())
    assert wrong == []
    assert counts["classes"] == counts["classes, 2-SAT"] > 100 and counts["switched noes"] > 0
