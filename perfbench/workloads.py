"""The benchmark's workloads: seeded inputs, the op each one becomes, and
the check of its answer.

An op's ``run`` is the only timed part: it calls the library's public
entry points through the package object ``sc``, looked up at call time so
that a tracer can wrap them.  ``check`` runs afterwards, untimed and
untraced; it returns the op's yes/no answer (None when the op has none)
and raises ``Wrong`` when the answer or its witness is wrong.  Every yes
witness is re-checked with ``verify_cover(..., check_fibers=True)``.

Answers whose truth is not known independently (rewired lifts, random
cubic graphs onto F(3,0)) are marked ``pinned``; run.py compares their
digest with the one recorded for the seed in ``pins.json``.

``probes`` are inputs on which the library is known to fail at the time
the benchmark was written (``RecursionError``).  They run once per run,
outside the measured loop, so the defect stays visible without making a
measured op fail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import gen
import oracles


class Wrong(Exception):
    """The library gave a wrong answer or an invalid witness."""


@dataclass
class Op:
    kind: str
    darts: int
    run: Callable[[], object]
    check: Callable[[object], bool | None]
    desc: str
    pinned: bool = False
    classes: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Nominal wall seconds of one round, checks included, on a 2-core x86
    # VM.  A run makes seconds // round_s rounds, so each op is timed
    # several times, spread over the whole run.
    round_s: float
    probes: list[Op] = field(default_factory=list)
    # Input properties reported as per-layer metrics; only components has
    # component pairs, so elsewhere the shares are 0.
    facts: dict[str, float] = field(default_factory=lambda: dict.fromkeys(
        ("disconnected.repeat_pair_share", "disconnected.repeat_pair_share.binpacking",
         "disconnected.repeat_pair_share.cubic"), 0.0))


def _verify(sc, g, h, f, **kw) -> None:
    if f is None:
        raise Wrong("a yes answer came without a witness")
    bad = sc.verify_cover(g, h, f, check_fibers=True, **kw)
    if bad:
        raise Wrong(f"witness fails verification: {bad[0]}")


def _verdict_check(sc, expected: bool | None):
    """Check of an op returning (g, h, Verdict)."""
    def check(res) -> bool:
        g, h, verdict = res
        if expected is not None and verdict.answer != expected:
            raise Wrong(f"answer {verdict.answer}, expected {expected}")
        if verdict.answer:
            _verify(sc, g, h, verdict.witness)
        return verdict.answer
    return check


def _mapping_check(sc, expected: bool | None):
    """Check of an op returning (g, h, DartMapping or None)."""
    def check(res) -> bool:
        g, h, f = res
        if expected is not None and (f is not None) != expected:
            raise Wrong(f"answer {f is not None}, expected {expected}")
        if f is not None:
            _verify(sc, g, h, f)
        return f is not None
    return check


# ----------------------------------------------------------- poly-lifts

def _directed_loop(sc):
    b = sc.GraphBuilder()
    b.add_vertex()
    b.add_loop(0, colors=(1, 2))
    b.add_semi(0, color=3)
    return b.build()


# (name, constructor, largest source in darts).  Targets with one semi-edge
# go through networkx blossom, whose time grows fastest (F(1,0) at 1e4 darts
# takes about 9 s), so they stop at 2e3-3e3 darts; that also keeps F(1,2)
# below the depth at which the recursive Kuhn matching exceeds the
# interpreter's recursion limit (about 7e3 darts; see the probe below).
POLY_TARGETS = [
    ("F(0,1)", lambda sc: sc.build_F(0, 1), 1e4),
    ("F(0,2)", lambda sc: sc.build_F(0, 2), 1e4),
    ("F(1,0)", lambda sc: sc.build_F(1, 0), 2e3),
    ("F(1,1)", lambda sc: sc.build_F(1, 1), 3e3),
    ("F(1,2)", lambda sc: sc.build_F(1, 2), 3e3),
    ("F(2,0)", lambda sc: sc.build_F(2, 0), 1e4),
    ("W(0,0,2,0,0)", lambda sc: sc.build_W(0, 0, 2, 0, 0), 1e4),
    ("W(0,0,3,0,0)", lambda sc: sc.build_W(0, 0, 3, 0, 0), 1e4),
    ("W(1,0,1,0,1)", lambda sc: sc.build_W(1, 0, 1, 0, 1), 1e4),
    ("WD(1,1,1)", lambda sc: sc.build_WD(1, 1, 1), 1e4),
    ("directed-loop", _directed_loop, 3e3),
]
# Lifts in POLY_TIERS log-spaced size tiers per target; every other tier
# also yields a rewired copy, so yes answers are two thirds of the ops.
POLY_TIERS = 8
POLY_MIN_DARTS = 100


def _tier_darts(rng: random.Random, tier: int, tiers: int, lo: float, hi: float) -> float:
    """A size in the tier-th of `tiers` log-spaced tiers of [lo, hi],
    jittered by up to 5% either way."""
    a, b = math.log10(lo), math.log10(hi)
    centre = a + (b - a) * (tier + 0.5) / tiers
    return 10 ** (centre + rng.uniform(-0.02, 0.02))


def _decide_text(sc, gtext: str, htext: str):
    g = sc.parse_graph(gtext)
    h = sc.parse_graph(htext)
    return g, h, sc.decide_colored(g, h)


def poly_lifts(sc, seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for name, make, cap in POLY_TARGETS:
        h = make(sc)
        htext = gen.graph_text(h)
        for tier in range(POLY_TIERS):
            k = max(1, round(_tier_darts(rng, tier, POLY_TIERS, POLY_MIN_DARTS, cap)
                             / h.n_darts))
            g = gen.random_lift(sc, h, k, rng)
            sources = [("lift", g, True)]
            if tier % 2:
                sources.append(("rewired", gen.rewire(sc, g, rng), None))
            for kind, src, expected in sources:
                text = gen.graph_text(src)
                ops.append(Op(f"{kind} {name}", src.n_darts,
                              lambda t=text, ht=htext: _decide_text(sc, t, ht),
                              _verdict_check(sc, expected), text + htext,
                              pinned=expected is None))
    h = sc.build_F(1, 2)
    g = gen.random_lift(sc, h, 1500, random.Random(1))
    text, htext = gen.graph_text(g), gen.graph_text(h)
    probes = [Op("lift F(1,2) k=1500", g.n_darts,
                 lambda: _decide_text(sc, text, htext),
                 _verdict_check(sc, True), text + htext)]
    return Workload("poly-lifts", ops, 4.0, probes)


# ------------------------------------------------------------ np-search

# Search time is heavy-tailed: a W(1,1,1,1,1) lift at k=24 has taken 10 s,
# and one cubic graph on 32 vertices in 150 took half a second.  The sizes
# here stay where a single op rarely costs more than a few tens of
# milliseconds, and there are many of them, so the total does not hinge on
# a few unlucky draws.
CUBIC_ORDERS = (16, 20, 24, 28)
CUBIC_REPS = 80
SNARKS = (5, 7)
# (name, constructor, fold numbers of yes lifts, fold numbers of rewired lifts)
NP_LIFTS = [
    ("F(2,1)", lambda sc: sc.build_F(2, 1), (8, 10, 12), (6, 8)),
    ("W(1,1,1,1,1)", lambda sc: sc.build_W(1, 1, 1, 1, 1), (6, 8), (4, 5)),
    ("WD(1,2,1)", lambda sc: sc.build_WD(1, 2, 1), (8, 12), (5, 6)),
]
NP_LIFT_REPS = 100


def _find(sc, g, h):
    return g, h, sc.find_cover(g, h)


def _decide(sc, g, h):
    return g, h, sc.decide_colored(g, h)


def np_search(sc, seed: int) -> Workload:
    rng = random.Random(seed)
    f30 = sc.build_F(3, 0)
    ops = []
    for n in CUBIC_ORDERS:
        for _ in range(CUBIC_REPS):
            g = gen.cubic_graph(sc, n, rng)
            ops.append(Op(f"cubic n={n}", g.n_darts, lambda g=g: _find(sc, g, f30),
                          _mapping_check(sc, None), gen.graph_text(g), pinned=True))
    for m in SNARKS:
        g = gen.flower_snark(sc, m)
        ops.append(Op(f"snark J{m}", g.n_darts, lambda g=g: _find(sc, g, f30),
                      _mapping_check(sc, False), gen.graph_text(g)))
    for name, make, yes_ks, rewired_ks in NP_LIFTS:
        h = make(sc)
        for _ in range(NP_LIFT_REPS):
            for kind, ks in (("lift", yes_ks), ("rewired", rewired_ks)):
                for k in ks:
                    g = gen.random_lift(sc, h, k, rng)
                    expected = True
                    if kind == "rewired":
                        g = gen.two_switch(sc, g, rng)
                        expected = None
                    ops.append(Op(f"{kind} {name}", g.n_darts,
                                  lambda g=g, h=h: _decide(sc, g, h),
                                  _verdict_check(sc, expected), gen.graph_text(g),
                                  pinned=expected is None))
    cyc, f01 = sc.cycle(2000), sc.build_F(0, 1)
    w = sc.build_W(1, 0, 2, 0, 1)
    lift = gen.random_lift(sc, w, 500, random.Random(1))
    probes = [
        Op("find_cover cycle(2000) onto F(0,1)", cyc.n_darts,
           lambda: _find(sc, cyc, f01), _mapping_check(sc, True), ""),
        Op("lift W(1,0,2,0,1) k=500", lift.n_darts,
           lambda: _decide(sc, lift, w), _verdict_check(sc, True), ""),
    ]
    return Workload("np-search", ops, 3.0, probes)


# ----------------------------------------------------------- components

BIN_OPS = 315
CUBIC_UNION_OPS = 312
CUBIC_UNION_ORDERS = (4, 6, 8, 10)
CUBIC_POOL = 40


def _classify(sc, reps: list, g) -> int:
    """Index of g's isomorphism class among reps, appending a new class."""
    for i, r in enumerate(reps):
        if r.n == g.n and sc.isomorphic(r, g):
            return i
    reps.append(g)
    return len(reps) - 1


def _repeats(keys: list) -> int:
    return len(keys) - len(set(keys))


def _decide_union(sc, g, h, semantics: str):
    return g, h, sc.decide(g, h, semantics, want_witness=True)


def _decision_check(sc, expected: bool, semantics: str, equal_fibers: bool):
    def check(res) -> bool:
        g, h, decision = res
        if decision.answer != expected:
            raise Wrong(f"{semantics} answer {decision.answer}, expected {expected}")
        if decision.answer:
            _verify(sc, g, h, decision.witness,
                    require_surjective=semantics == "surjective")
            if equal_fibers:
                sizes = [0] * h.n
                for w in decision.witness.vertex_map:
                    sizes[w] += 1
                if len(set(sizes)) != 1:
                    raise Wrong(f"equitable witness has fibers {sizes}")
        return decision.answer
    return check


def components(sc, seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    pairs = {"binpacking": [0, 0], "cubic": [0, 0]}   # [repeated, tried]
    # Item counts 6-12 and bin counts 2-4 are stratified, not drawn, so the
    # mix of easy and hard instances is the same for every seed.
    for i in range(BIN_OPS):
        q = 2 + i // 7 % 3
        xs = [rng.randint(1, 12) for _ in range(6 + i % 7)]
        while sum(xs) % q:
            xs[rng.randrange(len(xs))] = rng.randint(1, 12)
        g, h = sc.gen_binpacking(xs, q)
        # every cycle divides onto every one-vertex bin, and all bins are alike
        keys = [x for x in xs for _ in range(q)]
        pairs["binpacking"][0] += _repeats(keys)
        pairs["binpacking"][1] += len(keys)
        ops.append(Op(f"binpacking q={q}", g.n_darts,
                      lambda g=g, h=h: _decide_union(sc, g, h, "equitable"),
                      _decision_check(sc, oracles.partition_oracle(xs, q),
                                      "equitable", True),
                      f"{xs} {q}"))

    # Cubic unions draw their components from a pool of pairing-model
    # graphs, classified up to isomorphism here, outside the timed region.
    # Per pool graph: 3-edge-colourable, bipartite, has a perfect matching,
    # i.e. covers F(3,0), W(0,0,3,0,0), F(1,1).
    pool, reps = [], []
    for _ in range(CUBIC_POOL):
        n = rng.choice(CUBIC_UNION_ORDERS)
        edges = gen.cubic_edges(n, rng)
        c = gen.cubic_graph_from(sc, n, edges)
        pool.append((c, _classify(sc, reps, c),
                     (oracles.three_edge_colorable(n, edges), oracles.is_bipartite(n, edges),
                      oracles.has_perfect_matching(n, edges))))
    # (name, target components, which pool property each component needs)
    targets = [
        ("F(3,0)+F(1,1)", [sc.build_F(3, 0), sc.build_F(1, 1)], (0, 2)),
        ("W(0,0,3,0,0)+F(1,1)", [sc.build_W(0, 0, 3, 0, 0), sc.build_F(1, 1)], (1, 2)),
    ]
    for op_index in range(CUBIC_UNION_OPS):
        tname, hcomps, props = targets[op_index % 2]
        semantics = ("lbhom", "surjective")[(op_index // 2) % 2]
        picks = [pool[rng.randrange(CUBIC_POOL)] for _ in range(1 + op_index // 4 % 6)]
        comps = [c for c, _, _ in picks]
        classes = [cls for _, cls, _ in picks]
        ok = [[covers[p] for p in props] for _, _, covers in picks]
        g = sc.disjoint_union(comps)
        h = sc.disjoint_union(hcomps)
        if semantics == "lbhom":
            expected = all(any(row) for row in ok)
        else:
            expected = all(any(row) for row in ok) and any(
                ok[i][0] and ok[j][1] for i in range(len(ok)) for j in range(len(ok))
                if i != j)
        keys = [(cls, j) for cls in classes for j in range(len(hcomps))]
        pairs["cubic"][0] += _repeats(keys)
        pairs["cubic"][1] += len(keys)
        ops.append(Op(f"{semantics} onto {tname}", g.n_darts,
                      lambda g=g, h=h, s=semantics: _decide_union(sc, g, h, s),
                      _decision_check(sc, expected, semantics, False),
                      gen.graph_text(g) + tname + semantics))
    facts = {
        "disconnected.repeat_pair_share.binpacking":
            pairs["binpacking"][0] / pairs["binpacking"][1],
        "disconnected.repeat_pair_share.cubic": pairs["cubic"][0] / pairs["cubic"][1],
        "disconnected.repeat_pair_share":
            (pairs["binpacking"][0] + pairs["cubic"][0])
            / (pairs["binpacking"][1] + pairs["cubic"][1]),
    }
    return Workload("components", ops, 4.5, facts=facts)


# ------------------------------------------------------------ enumerate

def _generate(sc, orders, d: int | None) -> list:
    """One generation call per order; the class lists, in order."""
    if d is None:
        return [sc.connected_simple_graphs(n) for n in orders]
    return [sc.connected_regular_graphs(n, d) for n in orders]


def _generation_check(table: dict[int, int], d: int | None):
    def check(lists) -> None:
        for (n, want), graphs in zip(table.items(), lists):
            if len(graphs) != want:
                raise Wrong(f"{len(graphs)} classes on {n} vertices, expected {want}")
            for g in graphs:
                if not oracles.regular_simple_connected(g, n, d):
                    raise Wrong(f"an emitted graph is not a connected simple graph "
                                f"on {n} vertices" + (f" of degree {d}" if d else ""))
        return None
    return check


# (base A, base B, vertex bound, stronger?, candidates generated, covers of A).
# F(1,1) > F(3,0) fails first at the Petersen graph; 112 and 26 are the
# connected cubic graphs on at most 12 and quartic on at most 9 vertices;
# 9 are the bipartite ones among the 112 (OEIS A006823).  The covers of
# F(3,0) and F(2,1) are pinned as the library counted them.
STRONGER_CASES = [
    ("F(1,1)", "F(3,0)", 12, False, 14, 14),
    ("F(3,0)", "F(1,1)", 12, True, 112, 105),
    ("W(0,0,3,0,0)", "F(3,0)", 12, True, 112, 9),
    ("F(2,1)", "F(0,2)", 9, True, 26, 7),
]


def _base(sc, name: str):
    args = [int(x) for x in name[name.index("(") + 1:-1].split(",")]
    return sc.build_F(*args) if name.startswith("F") else sc.build_W(*args)


def _stronger_check(sc, a, case):
    _, _, _, stronger, generated, covers = case

    def check(rep) -> bool:
        got = (rep.stronger, rep.generated, rep.covers_found)
        if got != (stronger, generated, covers):
            raise Wrong(f"stronger/generated/covers {got}, "
                        f"expected {(stronger, generated, covers)}")
        if not stronger:
            if not oracles.is_petersen(rep.counterexample):
                raise Wrong("the counterexample is not the Petersen graph")
            _verify(sc, rep.counterexample, a, rep.witness)
        return rep.stronger
    return check


def enumerate_(sc, seed: int) -> Workload:
    """Generation sweeps and stronger-than checks; the inputs do not depend
    on the seed.  A sweep is one op, so that every op lasts long enough
    (0.2-3 s) to average over the host's speed drift."""
    ops = []
    for d, table in ((None, oracles.CONNECTED_SIMPLE), (3, oracles.CONNECTED_CUBIC),
                     (4, oracles.CONNECTED_QUARTIC)):
        label = ("connected_simple_graphs" if d is None
                 else f"connected_regular_graphs d={d}")
        ops.append(Op(f"{label} n<={max(table)}", 0,
                      lambda orders=tuple(table), d=d: _generate(sc, orders, d),
                      _generation_check(table, d), label, classes=sum(table.values())))
    for case in STRONGER_CASES:
        a, b = _base(sc, case[0]), _base(sc, case[1])
        ops.append(Op(f"check_stronger {case[0]}>{case[1]}", a.n_darts,
                      lambda a=a, b=b, n=case[2]: sc.check_stronger(a, b, n, jobs=1),
                      _stronger_check(sc, a, case), repr(case)))
    return Workload("enumerate", ops, 9.0)


WORKLOADS = {
    "poly-lifts": poly_lifts,
    "np-search": np_search,
    "components": components,
    "enumerate": enumerate_,
}
