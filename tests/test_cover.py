"""Covering projection verification and exhaustive search."""

import random
import time

import pytest

from semicover.build import (build_F, build_W, build_WD, complete, cycle, double_cover,
                             path, petersen)
from semicover.cover import (DartMapping, ResourceLimit, find_cover, verify_cover,
                             witness_json)
from semicover.dichotomy import decide_colored
from semicover.graph import EDGE, GraphBuilder, disjoint_union, is_connected, parse_graph
from util import (assert_cover_ok, brute_cover_exists, perturb, random_graph, random_lift,
                  recursive_search, reference_verify_cover)


def test_identity_cover():
    g = petersen()
    ident = DartMapping(tuple(range(g.n_darts)), tuple(range(g.n)))
    assert verify_cover(g, g, ident) == []


LOOP = "vertex a\nloop a"                   # darts 0, 1
SEMIS = "vertex a\nsemi a\nsemi a"          # darts 0, 1
EDGE_AB = "vertex a\nvertex b\nedge a b"    # dart 0 at a, dart 1 at b

# Each row starts from the identity cover of a graph onto itself and breaks
# it once, in the mapping or in the target: (source, target, dart map,
# vertex map, require_surjective, violation kinds, words of one detail).
BROKEN_COVERS = [
    (LOOP, LOOP, (0,), (0,), False, {"shape"}, "arity"),
    (LOOP, LOOP, (0, 2), (0,), False, {"shape"}, "dart 1 maps outside"),
    (LOOP, LOOP, (0, 1), (1,), False, {"shape"}, "vertex 0 maps outside"),
    (EDGE_AB, EDGE_AB, (0, 1), (0, 0), False, {"not-local-bijection"}, "away from"),
    (SEMIS, SEMIS, (0, 0), (0,), False, {"not-local-bijection"}, "repeat"),
    (LOOP, LOOP + "\nsemi a", (0, 1), (0,), False, {"not-local-bijection"},
     "vertex 0 has 2 darts, image 0 has 3"),
    (LOOP, "vertex a color=1\nloop a", (0, 1), (0,), False, {"vertex-color-mismatch"},
     "vertex 0"),
    (LOOP, "vertex a\nloop a colors=0,1", (0, 1), (0,), False, {"color-mismatch"},
     "dart 1"),
    (SEMIS, LOOP, (0, 1), (0,), False, {"link-broken"}, "semi-edge 0 maps to a non-semi"),
    (EDGE_AB, EDGE_AB, (0, 0), (0, 0), False, {"link-broken"},
     "link 0 collapses onto a non-semi dart"),
    (LOOP, SEMIS, (0, 0), (0,), False, {"not-local-bijection", "link-broken"},
     "loop 0 collapses onto a semi-edge"),
    (LOOP, SEMIS, (0, 1), (0,), False, {"link-broken"}, "across two target links"),
    (LOOP, LOOP + "\nvertex b\nloop b", (0, 1), (0,), True, {"not-surjective"},
     "target dart is not hit"),
    (LOOP, LOOP + "\nvertex b", (0, 1), (0,), True, {"not-surjective"},
     "target vertex is not hit"),
]


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
    for g_text, h_text, dm, vm, surj, kinds, words in BROKEN_COVERS:
        g = parse_graph(g_text)
        assert verify_cover(g, g, DartMapping(tuple(range(g.n_darts)), tuple(range(g.n)))) == []
        found = verify_cover(g, parse_graph(h_text), DartMapping(dm, vm),
                             require_surjective=surj)
        assert {v.kind for v in found} == kinds, (h_text, dm, vm, found)
        assert any(words in v.detail for v in found), (h_text, dm, vm, found)


def _corrupted(g, h, f, rng):
    """f, and f broken once each way: one dart moved, two darts swapped,
    one vertex remapped, one dart mapped out of range, the arity changed."""
    dm, vm = f.dart_map, f.vertex_map

    def put(seq, i, x):
        seq = list(seq)
        seq[i] = x
        return tuple(seq)

    out = [f]
    if dm:
        d = rng.randrange(len(dm))
        out.append(DartMapping(put(dm, d, rng.randrange(h.n_darts)), vm))
        out.append(DartMapping(put(dm, d, rng.choice((-1, h.n_darts, h.n_darts + 3))), vm))
        d1, d2 = rng.sample(range(len(dm)), 2) if len(dm) > 1 else (d, d)
        out.append(DartMapping(put(put(dm, d1, dm[d2]), d2, dm[d1]), vm))
        out.append(DartMapping(dm[:-1], vm))
    out.append(DartMapping(dm, put(vm, rng.randrange(len(vm)), rng.randrange(h.n))))
    out.append(DartMapping(dm + (0,), vm))
    out.append(DartMapping(dm, vm + (0,)))
    return out


def test_verify_matches_reference_on_corrupted_witnesses():
    rng = random.Random(53)
    colored = parse_graph("vertex a color=1\nvertex b\nedge a b colors=1,2\n"
                          "loop a colors=0,0\nsemi b color=3\nsemi b color=3")
    uneven = parse_graph("vertex a\nvertex b\nedge a b\nsemi a\nloop b")
    targets = [build_F(1, 0), build_F(1, 2), build_F(0, 2), build_F(2, 0), build_F(2, 1),
               build_W(1, 0, 1, 0, 1), build_W(0, 1, 2, 1, 0), build_WD(1, 1, 1), cycle(3),
               colored, uneven]
    kinds = set()
    for h in targets:
        for k in (1, 2, 3, 5):
            g = random_lift(h, k, rng)
            v = decide_colored(g, h)
            assert v.answer, (h.links, k)
            for f in _corrupted(g, h, v.witness, rng):
                for surjective in (False, True):
                    for fibers in (False, True):
                        got = verify_cover(g, h, f, require_surjective=surjective,
                                           check_fibers=fibers)
                        assert got == reference_verify_cover(
                            g, h, f, require_surjective=surjective, check_fibers=fibers)
                        kinds.update(x.kind for x in got)
    assert kinds == {"shape", "not-local-bijection", "vertex-color-mismatch", "color-mismatch",
                     "link-broken", "not-surjective"}


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


def _flower_snark(m):
    """J_m (m odd): star i has centre a_i and leaves b_i, c_i, d_i; the b_i
    form an m-cycle and the c_i and d_i together one 2m-cycle."""
    gb = GraphBuilder()
    a, b, c, d = ([gb.add_vertex() for _ in range(m)] for _ in range(4))
    for i in range(m):
        j = (i + 1) % m
        for u, w in ((a[i], b[i]), (a[i], c[i]), (a[i], d[i]), (b[i], b[j])):
            gb.add_edge(u, w)
        gb.add_edge(c[i], c[j] if j else d[0])
        gb.add_edge(d[i], d[j] if j else c[0])
    return gb.build()


def test_known_cubic_targets():
    f11, f30 = build_F(1, 1), build_F(3, 0)
    k4, pet = complete(4), petersen()
    assert find_cover(k4, f11) is not None
    assert find_cover(k4, f30) is not None
    assert find_cover(pet, f11) is not None
    assert find_cover(pet, f30) is None
    for m in (5, 7, 9, 11):     # snarks: no 3-edge-colouring
        assert find_cover(_flower_snark(m), f30) is None, m


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


def test_long_cycle_onto_one_loop_needs_no_deep_stack():
    g, h = cycle(2000), build_F(0, 1)
    f = find_cover(g, h)
    assert f is not None
    assert_cover_ok(g, h, f, check_fibers=True)


def test_large_lift_of_np_target_needs_no_deep_stack():
    h = build_W(1, 0, 2, 0, 1)
    g = random_lift(h, 500, random.Random(1))
    f = find_cover(g, h)  # decide_colored sends this target to the side search
    assert f is not None
    assert_cover_ok(g, h, f, check_fibers=True)


def _swap_ends(g, rng):
    """g with the second ends of two edges exchanged where that keeps every
    vertex's type signature; the cover often breaks."""
    edges = [g.links[l] for l in range(g.n_links) if g.link_kind(l) == EDGE]
    for _ in range(10 if len(edges) > 1 else 0):
        (a, b), (c, d) = rng.sample(edges, 2)
        if g.dart_color[a] == g.dart_color[c] and g.dart_color[b] == g.dart_color[d]:
            break
    else:
        return g
    gb = GraphBuilder()
    for v in range(g.n):
        gb.add_vertex(color=g.vertex_color[v])
    for cell in [cell for cell in g.links if cell not in ((a, b), (c, d))] + [(a, d), (c, b)]:
        x, y = cell[0], cell[-1]
        u, w = g.vertex_of[x], g.vertex_of[y]
        if x == y:
            gb.add_semi(u, color=g.dart_color[x])
        elif u == w:
            gb.add_loop(u, colors=(g.dart_color[x], g.dart_color[y]))
        else:
            gb.add_edge(u, w, colors=(g.dart_color[x], g.dart_color[y]))
    return gb.build()


def _random_source(h, k, rng):
    """A random graph with k copies of every target vertex's colour and dart
    types, the stubs joined at random among those of one link colour set."""
    gb = GraphBuilder()
    stubs = {}
    for w in range(h.n):
        for _ in range(k):
            v = gb.add_vertex(color=h.vertex_color[w])
            for e in h.darts_at[w]:
                colorset = frozenset(h.dart_color[d] for d in h.links[h.link_of[e]])
                stubs.setdefault(colorset, []).append((h.dart_color[e], v))
    for group in stubs.values():
        rng.shuffle(group)
        group.sort(key=lambda stub: stub[0])    # a two-colour set: one colour per half
        if len(group) % 2:                      # only a one-colour set can be odd
            c, v = group.pop()
            gb.add_semi(v, color=c)
        half = len(group) // 2
        for (c1, u), (c2, w) in zip(group[:half], group[half:]):
            if u == w:
                gb.add_loop(u, colors=(c1, c2))
            else:
                gb.add_edge(u, w, colors=(c1, c2))
    return gb.build()


def _search_corpus(rng):
    """Seeded (source, target) pairs: lifts, lifts with a link rewired or two
    edge ends swapped, unions of lifts, and random sources, over random
    small targets and named ones.  The last targets have bundles of
    interchangeable links (parallel edges, loops and semi-edges at one
    vertex), where find_cover skips symmetric options; their lifts stay
    at k <= 2 so that the unpruned reference stays fast."""
    targets = [petersen(), complete(4), build_W(1, 1, 1, 1, 1), build_WD(1, 2, 1),
               build_F(2, 1)]
    while len(targets) < 45:
        colors = (0,) if len(targets) % 2 else (0, 1)
        h = random_graph(rng, rng.randrange(1, 5), rng.randrange(1, 5), colors=colors)
        if is_connected(h):
            targets.append(h)
    bundles = [build_F(2, 2), build_F(3, 1), build_F(2, 3), build_F(3, 0),
               parse_graph("vertex a\nvertex b" + "\nedge a b" * 3),
               parse_graph("vertex a\nvertex b\nedge a b\nloop a\nloop a\nsemi b")]
    plan = [(h, 2, 2) if h.n > 4 else (h, 4, 3) for h in targets] + [(h, 4, 2) for h in bundles]
    for h, reps, max_k in plan:
        for _ in range(reps):
            k = rng.randrange(1, max_k + 1)
            g = random_lift(h, k, rng)
            yield g, h
            yield perturb(g, rng), h
            yield _swap_ends(g, rng), h
            yield disjoint_union([g, random_lift(h, 1, rng), perturb(g, rng)]), h
            yield random_graph(rng, h.n * k, rng.randrange(1, 2 * h.n * k + 2)), h
            yield _random_source(h, k, rng), h


def test_search_matches_recursive_reference():
    yes = total = 0
    for g, h in _search_corpus(random.Random(41)):
        got = find_cover(g, h)
        assert got == recursive_search(g, h), (g, h)
        if got is not None:
            assert_cover_ok(g, h, got)
            yes += 1
        total += 1
    assert total > 500 and yes > 100


def test_interchangeable_target_links_are_tried_once_at_the_anchor():
    """A no-instance onto F(2,3).  A search that does not skip
    interchangeable target links tries every ordering of the two
    semi-edges, the three loops and their reversals here, for seconds."""
    g = parse_graph("vertex v0\nvertex v1\nvertex v2\nloop v1\nloop v1\n"
                    + "edge v0 v1\n" * 2 + "edge v0 v2\n" * 6 + "edge v1 v2\n" * 2)
    t0 = time.monotonic()
    assert find_cover(g, build_F(2, 3)) is None
    assert time.monotonic() - t0 < 1.0
