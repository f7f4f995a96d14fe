"""Tests of the benchmark itself: tracer, oracles, generators, metric table.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def deadline_handler():
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def _sample(wl, limit: int):
    """Every k-th op of the workload, at most `limit` of them."""
    step = max(1, len(wl.ops) // limit)
    return wl.ops[::step][:limit]


def test_tracer_wraps_every_lookup_name_and_restores():
    sc = run.fresh_import()
    import networkx
    import semicover.canon
    import semicover.cover
    import semicover.deciders
    import semicover.dichotomy
    import semicover.disconnected
    import semicover.generate
    import semicover.graph
    import semicover.matching
    import semicover.stronger
    names = [
        (semicover.deciders, "konig_split"), (semicover.matching, "konig_split"),
        (semicover.dichotomy, "find_cover"), (semicover.cover, "find_cover"),
        (semicover.stronger, "find_cover"), (semicover.disconnected, "find_cover"),
        (semicover.disconnected, "decide_colored"), (sc, "decide_colored"),
        (semicover.disconnected, "kuhn_matching"), (networkx, "max_weight_matching"),
    ]
    before = {(m.__name__, a): getattr(m, a) for m, a in names}
    init, add = semicover.graph.Graph.__init__, semicover.canon.CanonicalSet.add
    tr = Tracer()
    layers.install(tr)
    try:
        for m, a in names:
            assert getattr(m, a) is not before[(m.__name__, a)], (m.__name__, a)
        assert semicover.deciders.konig_split is semicover.matching.konig_split
        assert semicover.generate.CanonicalSet.add is not add
        assert semicover.graph.Graph.__init__ is not init
    finally:
        tr.uninstall()
    for m, a in names:
        assert getattr(m, a) is before[(m.__name__, a)]
    assert semicover.graph.Graph.__init__ is init
    assert semicover.canon.CanonicalSet.add is add


@pytest.mark.parametrize("name", ["poly-lifts", "np-search", "components"])
def test_traced_answers_match_and_self_times_add_up(name):
    wl = workloads.WORKLOADS[name](run.fresh_import(), 3)
    ops = _sample(wl, 40)
    plain = run.measure(ops, 1, Speed())[0]
    tr = Tracer()
    layers.install(tr)
    try:
        traced = run.measure(ops, 1, Speed(), tr)[0]
    finally:
        tr.uninstall()
    assert all(r.ok for r in plain)
    assert [(r.error, r.answer) for r in plain] == [(r.error, r.answer) for r in traced]
    assert sum(tr.self_s.values()) == pytest.approx(tr.busy_s, rel=1e-9)
    assert tr.calls["op"] == len(ops)
    assert tr.busy_s == pytest.approx(sum(r.latency_s for r in traced), rel=0.1)


def test_tracer_closes_spans_left_open():
    tr = Tracer()

    def inner():
        raise RecursionError("deep")

    wrapped = tr._wrapper("layer", inner, None)
    tr.begin_op(0)
    with pytest.raises(RecursionError):
        wrapped()
    tr._enter("stuck")      # as if the wrapper's exit could not run
    tr.end_op()
    assert tr.calls == {"op": 1, "layer": 1, "stuck": 1}
    assert sum(tr.self_s.values()) == pytest.approx(tr.busy_s)
    assert tr.op is None and not tr._open


def test_same_seed_same_inputs():
    for name in ("poly-lifts", "np-search", "components"):
        a = workloads.WORKLOADS[name](run.fresh_import(), 7)
        b = workloads.WORKLOADS[name](run.fresh_import(), 7)
        c = workloads.WORKLOADS[name](run.fresh_import(), 8)
        digest = lambda wl: gen.digest(op.desc for op in wl.ops)
        assert digest(a) == digest(b) != digest(c)


def test_generated_graphs():
    sc = run.fresh_import()
    rng = random.Random(5)
    for n in (4, 16, 64):
        edges = gen.cubic_edges(n, rng)
        assert len(edges) == 3 * n // 2
        assert oracles.regular_simple_connected(gen.cubic_graph_from(sc, n, edges), n, 3)
    for m in (5, 7):
        g = gen.flower_snark(sc, m)
        assert oracles.regular_simple_connected(g, 4 * m, 3)
        assert not oracles.three_edge_colorable(g.n, oracles.simple_edges(g))
    h = sc.build_W(1, 0, 1, 0, 1)
    g = gen.random_lift(sc, h, 50, rng)
    assert g.n == 100 and sc.find_cover(g, h) is not None
    g2 = gen.two_switch(sc, g, rng)
    assert sorted(map(len, g2.darts_at)) == sorted(map(len, g.darts_at))
    assert gen.graph_text(g2) != gen.graph_text(g)
    assert gen.graph_text(sc.parse_graph(gen.graph_text(g))) == gen.graph_text(g)


def test_oracles():
    sc = run.fresh_import()
    assert oracles.partition_oracle([3, 3, 2, 2, 2], 2)
    assert not oracles.partition_oracle([5, 1, 1, 1], 2)
    assert not oracles.partition_oracle([1, 2], 2)
    pet = sc.petersen()
    assert oracles.is_petersen(pet)
    pet_edges = oracles.simple_edges(pet)
    assert oracles.has_perfect_matching(10, pet_edges)
    assert not oracles.three_edge_colorable(10, pet_edges)
    assert not oracles.is_bipartite(10, pet_edges)
    cube = [(i, j) for i in range(8) for j in range(i + 1, 8) if bin(i ^ j).count("1") == 1]
    assert oracles.is_bipartite(8, cube) and oracles.three_edge_colorable(8, cube)
    assert oracles.girth(8, cube) == 4
    assert not oracles.is_petersen(gen.flower_snark(sc, 5))


def test_enumerate_checks_reject_wrong_outcomes():
    sc = run.fresh_import()
    wl = workloads.WORKLOADS["enumerate"](sc, 0)
    simple = next(op for op in wl.ops if op.desc == "connected_simple_graphs")
    check = workloads._generation_check(dict(list(oracles.CONNECTED_SIMPLE.items())[:5]), None)
    lists = [sc.connected_simple_graphs(n) for n in range(1, 6)]
    assert check(lists) is None
    with pytest.raises(workloads.Wrong):
        check(lists[:-1] + [lists[-1][:-1]])
    with pytest.raises(workloads.Wrong):
        check(lists[:-1] + [lists[-1][:-1] + [sc.cycle(4)]])
    assert simple.classes == 996
    stronger = [op for op in wl.ops if op.kind.startswith("check_stronger")]
    rep = stronger[0].run()
    assert stronger[0].check(rep) is False
    with pytest.raises(workloads.Wrong):
        stronger[1].check(rep)


def test_bench_json_matches_metric_table():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        assert json.load(f) == metrics.bench_json()
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name, busy_layer", [("components", "disconnected.pairs_tried"),
                                              ("np-search", "cover.find_cover.calls")])
def test_traced_run_reports_every_per_layer_metric(name, busy_layer):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "2", "--seconds", "1", "--trace", "1"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in metrics.PER_LAYER}
    assert result["metrics"][busy_layer]["value"] > 0
