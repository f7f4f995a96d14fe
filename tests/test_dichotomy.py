"""Complexity classification and the colored dispatch decider."""

import itertools
import random

import pytest

from semicover.build import build_F, build_W, build_WD, cycle, path
from semicover.cover import find_cover
from semicover.dichotomy import Classification, OutOfScope, classify, decide_colored
from semicover.graph import GraphBuilder, disjoint_union
from util import assert_cover_ok, perturb, random_lift

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


def test_hard_table():
    for h in HARD_TARGETS:
        cls = classify(h)
        assert not cls.polynomial, h.links
        assert cls.verdict == "NP-complete"
        assert any(v == "NP-complete" for v in cls.pieces.values())


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
        assert cls.polynomial == (decide_colored(h, h).method != "brute-force-fallback"), h.links
        if not cls.polynomial:
            continue
        poly += 1
        lift = random_lift(h, 2, rng)
        for g in (lift, perturb(lift, rng)):
            v = decide_colored(g, h)
            assert v.answer == (find_cover(g, h) is not None), (h.links, g.links)
            if v.answer:
                assert_cover_ok(g, h, v.witness)
    assert seen > 1000 and 0 < poly < seen
