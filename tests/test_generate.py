"""Exhaustive generators: counts, output invariants, no duplicates."""

import hashlib
import random
from itertools import combinations

from semicover import generate
from semicover.canon import CanonicalSet, isomorphic
from semicover.generate import connected_regular_graphs, connected_simple_graphs
from semicover.graph import is_connected, is_simple, serialize_graph
from util import (reference_connected_simple_graphs, reference_prefix_choices,
                  reference_regular_connected_search)

REGULAR_COUNTS = {
    (1, 0): 1, (2, 0): 0, (3, 0): 0,
    (2, 1): 1, (3, 1): 0, (4, 1): 0,
    (3, 2): 1, (4, 2): 1, (7, 2): 1,
    (4, 3): 1, (5, 3): 0, (6, 3): 2, (8, 3): 5, (10, 3): 19,
    (5, 4): 1, (6, 4): 1, (7, 4): 2, (8, 4): 6, (9, 4): 16,
    (6, 5): 1, (8, 5): 3,
    (10, 7): 5,
    (3, 3): 0, (2, 2): 0, (5, 5): 0,
}

# past the range that test_output_order_is_pinned covers: OEIS A002851, A006820
LARGE_REGULAR_COUNTS = {(14, 3): 509, (11, 4): 265}

# OEIS A001349
SIMPLE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def test_regular_counts():
    for (n, d), want in REGULAR_COUNTS.items():
        got = connected_regular_graphs(n, d)
        assert len(got) == want, (n, d, len(got))


def test_regular_counts_past_the_pinned_range():
    for (n, d), want in LARGE_REGULAR_COUNTS.items():
        assert len(connected_regular_graphs(n, d)) == want, (n, d)


def test_regular_search_matches_the_leaf_deduplicated_reference():
    # lists, not sets: one key set shared by all depths finds every class
    # but moves some of them later in the search
    cases = ([(n, 3) for n in range(4, 13, 2)] + [(n, 4) for n in range(5, 11)]
             + [(6, 5), (8, 5)])
    for n, d in cases:
        got = [generate._masks(g) for g in generate._regular_connected_search(n, d)]
        assert got == reference_regular_connected_search(n, d), (n, d)


def test_regular_outputs_are_what_they_claim():
    for n, d in [(6, 3), (8, 3), (7, 4), (8, 5), (10, 7)]:
        out = connected_regular_graphs(n, d)
        for g in out:
            assert g.n == n
            assert is_simple(g)
            assert is_connected(g)
            assert all(g.degree(v) == d for v in range(g.n))
        seen = CanonicalSet()
        for g in out:
            assert seen.add(g), "duplicate isomorphism class"


def test_simple_counts():
    for n, want in SIMPLE_COUNTS.items():
        out = connected_simple_graphs(n)
        certs = {generate._mask_certificate(generate._masks(g))[0] for g in out}
        assert len(out) == len(certs) == want, n


def test_simple_generation_matches_the_orbit_pruned_reference():
    # the same classes; each is kept as a different candidate, so the lists differ
    for n in range(1, 8):
        got = {generate._mask_certificate(generate._masks(g))[0]
               for g in connected_simple_graphs(n)}
        want = {generate._mask_certificate(m)[0] for m in reference_connected_simple_graphs(n)}
        assert got == want, n


def test_simple_outputs_are_what_they_claim():
    for n in range(1, 6):
        out = connected_simple_graphs(n)
        for g in out:
            assert g.n == n
            assert is_simple(g)
            assert is_connected(g)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert not isomorphic(out[i], out[j])


def test_degree_sum_parity_gives_empty():
    assert connected_regular_graphs(5, 3) == []
    assert connected_regular_graphs(7, 3) == []
    assert connected_regular_graphs(9, 5) == []


def test_no_vertices_or_a_negative_degree_gives_empty():
    assert connected_regular_graphs(0, 3) == []
    assert connected_regular_graphs(4, -1) == []
    assert connected_simple_graphs(0) == []


def test_complete_graphs_appear():
    for n in (4, 5, 6):
        out = connected_regular_graphs(n, n - 1)
        assert len(out) == 1
        g = out[0]
        assert g.n_links == n * (n - 1) // 2


def _digest(graphs) -> str:
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(serialize_graph(g).encode())
    return digest.hexdigest()


def test_output_order_is_pinned():
    # which representative comes first, and where, is part of the output:
    # StrongerReport.generated counts the candidates before a counterexample
    graphs = [g for n in range(4, 13, 2) for g in connected_regular_graphs(n, 3)]
    graphs += [g for n in range(5, 10) for g in connected_regular_graphs(n, 4)]
    assert _digest(graphs) == ("05fd555e8401b269ee017e7e8166ddea"
                               "886676c129aa3fe2b5aebc865fdb1e0b")


def test_simple_output_order_is_pinned():
    graphs = [g for n in range(1, 8) for g in connected_simple_graphs(n)]
    assert _digest(graphs) == ("81892a54a2ce6731e37380654db3bd62"
                               "5128dc6bd5fd3b761161479f3a6aae99")




def test_prefix_choices_match_the_recursive_reference():
    # lists and order: the regular search tries the choices in this order
    rng = random.Random(35)
    for _ in range(300):
        groups, w = [], 0
        for _ in range(rng.randrange(5)):
            size = rng.randrange(1, 5)
            groups.append(list(range(w, w + size)))
            w += size
        rng.shuffle(groups)
        for take in range(w + 2):
            got = generate._prefix_choices(groups, take)
            assert got == reference_prefix_choices(groups, take), (groups, take)


def _group(k: int, gens: list[list[int]]) -> list[tuple[int, ...]]:
    """Every permutation of range(k) that gens generate, by closure."""
    group, todo = {tuple(range(k))}, [tuple(range(k))]
    while todo:
        p = todo.pop()
        for gam in gens:
            q = tuple(gam[w] for w in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return list(group)


def test_orbit_firsts_yield_the_first_subset_of_each_orbit():
    rng = random.Random(35)
    cases = []
    for k in range(1, 7):
        cases += [(k, []), (k, [list(range(k))])]
        for _ in range(6):
            perms = [rng.sample(range(k), k) for _ in range(rng.randrange(1, 4))]
            cases.append((k, perms))
    for k, gens in cases:
        group = _group(k, gens)
        for top in range(k + 1):
            want, seen = [], set()
            for r in range(1, top + 1):
                for subset in combinations(range(k), r):
                    if frozenset(subset) not in seen:
                        seen |= {frozenset(p[w] for w in subset) for p in group}
                        want.append(sum(1 << w for w in subset))
            assert list(generate._orbit_firsts(k, gens, top)) == want, (k, gens, top)
