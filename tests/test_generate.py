"""Exhaustive generators: counts, output invariants, no duplicates."""

import hashlib

from semicover import generate
from semicover.canon import CanonicalSet, isomorphic
from semicover.generate import connected_regular_graphs, connected_simple_graphs
from semicover.graph import is_connected, is_simple, serialize_graph

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

SIMPLE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_regular_counts():
    for (n, d), want in REGULAR_COUNTS.items():
        got = connected_regular_graphs(n, d)
        assert len(got) == want, (n, d, len(got))


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
        assert len(connected_simple_graphs(n)) == want, n


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


def test_complete_graphs_appear():
    for n in (4, 5, 6):
        out = connected_regular_graphs(n, n - 1)
        assert len(out) == 1
        g = out[0]
        assert g.n_links == n * (n - 1) // 2


def test_output_order_is_pinned():
    # which representative comes first, and where, is part of the output:
    # StrongerReport.generated counts the candidates before a counterexample
    graphs = [g for n in range(1, 8) for g in connected_simple_graphs(n)]
    graphs += [g for n in range(4, 13, 2) for g in connected_regular_graphs(n, 3)]
    graphs += [g for n in range(5, 10) for g in connected_regular_graphs(n, 4)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(serialize_graph(g).encode())
    assert digest.hexdigest() == ("4f8ff364a7ee1ca937c0598f65ba0778"
                                  "80da0423376c404106258270c8abbf8c")


def test_simple_generation_certifies_one_subset_per_orbit(monkeypatch):
    # 7,815 candidates without orbit pruning; 4,159 with the full groups
    calls = {"certificate": 0, "graph": 0}
    certificate, build = generate._mask_certificate, generate._from_masks

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(generate, "_mask_certificate", counted("certificate", certificate))
    monkeypatch.setattr(generate, "_from_masks", counted("graph", build))
    out = connected_simple_graphs(7)
    assert calls["certificate"] <= 4159
    assert calls["graph"] == len(out) == 853
