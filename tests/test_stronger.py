"""Stronger-than checks over exhaustively generated simple covers."""

import pytest

from semicover.build import build_F, build_W, cycle, path
from semicover.cover import find_cover
from semicover import stronger
from semicover.graph import disjoint_union
from semicover.stronger import (StrongerReport, UnsupportedBase,
                                check_equivalent, check_stronger,
                                enumerate_simple_covers)
from util import assert_cover_ok


def test_two_semis_stronger_than_loop():
    report = check_stronger(build_F(2, 0), build_F(0, 1), 8)
    assert report.stronger
    assert report.covers_found == 3
    assert report.counterexample is None


def test_loop_not_stronger_than_two_semis():
    report = check_stronger(build_F(0, 1), build_F(2, 0), 8)
    assert not report.stronger
    assert report.counterexample is not None
    assert report.counterexample.n == 3
    assert_cover_ok(report.counterexample, build_F(0, 1), report.witness)
    assert report.as_json()["counterexample_order"] == 3


def test_covers_of_two_semis_are_even_cycles():
    got = list(enumerate_simple_covers(build_F(2, 0), 8))
    assert [g.n for g in got] == [4, 6, 8]
    for g in got:
        assert all(g.degree(v) == 2 for v in range(g.n))


def test_semi_loop_versus_three_semis():
    a, b = build_F(1, 1), build_F(3, 0)
    report = check_stronger(a, b, 10)
    assert not report.stronger
    ce = report.counterexample
    assert ce is not None and ce.n == 10
    assert find_cover(ce, a) is not None
    assert find_cover(ce, b) is None
    back = check_stronger(b, a, 10)
    assert back.stronger
    assert back.covers_found == 25


def test_equivalence_of_bars_and_two_semis():
    fwd, back = check_equivalent(build_W(0, 0, 2, 0, 0), build_F(2, 0), 8)
    assert fwd.stronger and back.stronger
    assert fwd.covers_found == back.covers_found == 3


def test_counterexample_is_minimum_order():
    report = check_stronger(build_F(0, 1), build_F(2, 0), 9)
    assert report.counterexample.n == 3
    assert report.generated <= 2


def test_divisibility_prunes_candidates():
    a = build_W(0, 0, 2, 0, 0)
    orders = {g.n for g in enumerate_simple_covers(a, 9)}
    assert orders == {4, 6, 8}


def test_unsupported_bases():
    with pytest.raises(UnsupportedBase):
        check_stronger(path(3), build_F(0, 1), 6)
    with pytest.raises(UnsupportedBase):
        check_stronger(disjoint_union([cycle(3), cycle(4)]), build_F(0, 1), 6)
    from semicover.graph import GraphBuilder
    with pytest.raises(UnsupportedBase):
        check_stronger(GraphBuilder().build(), build_F(0, 1), 6)
    # a disconnected b is refused before any candidate is generated,
    # whatever n_max is and however many components b has
    for k, n_max in ((3, 3), (3, 4), (2, 3)):
        with pytest.raises(UnsupportedBase):
            check_stronger(build_F(3, 0), disjoint_union([build_F(0, 1)] * k), n_max)


def test_parallel_jobs_agree():
    a, b = build_F(1, 1), build_F(3, 0)
    seq = check_stronger(a, b, 8, jobs=1)
    par = check_stronger(a, b, 8, jobs=2)
    assert seq.stronger == par.stronger
    assert seq.generated == par.generated
    assert seq.covers_found == par.covers_found
    seq2 = check_stronger(build_F(2, 0), build_F(0, 1), 8, jobs=2)
    assert seq2.stronger and seq2.covers_found == 3


def test_jobs_capped_at_cpu_count(monkeypatch):
    # Pool starts its workers at once; a fake one records the count and starts none
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks, chunksize=1):
            return map(func, tasks)

    monkeypatch.setattr(stronger.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(stronger.os, "cpu_count", lambda: 2)
    report = check_stronger(build_F(2, 0), build_F(0, 1), 8, jobs=100_000)
    assert started == [2] and report.stronger and report.covers_found == 3
    monkeypatch.setattr(stronger.os, "cpu_count", lambda: None)
    check_stronger(build_F(2, 0), build_F(0, 1), 8, jobs=100_000)
    assert started == [2]  # one CPU: no pool at all
