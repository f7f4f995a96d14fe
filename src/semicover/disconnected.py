"""Covers onto disconnected targets under three semantics.

A mapping whose restriction to every source component is a covering of
some target component is a locally bijective homomorphism (lbhom); asking
additionally for surjectivity, or for all target vertex fibers to share
one size, gives the surjective and equitable variants.  All three reduce
to questions about the covering pattern: the bipartite graph recording
which source component covers which target component, weighted by the
vertex-count ratio.  graph.components gives equal components one shared
Graph, which keys their class.  One dichotomy.decide_colored call per
target class, on the whole source, answers every source class at once
when it says yes; on a no, one call per class pair picks the algorithm
and gives the pairs' witness.  h keeps its split.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

# find_cover is unused here but stays bound: perfbench's tracer wraps it at this name.
from .cover import (DartMapping, ResourceLimit, _fiber_sizes, find_cover,  # noqa: F401
                    verify_cover)
from .dichotomy import decide_colored
from .graph import Component, Graph, _planned, components
from .matching import kuhn_matching

# decide_equitable's bound on the states it keeps over all levels
EQUITABLE_STATE_CAP = 1_000_000


@dataclass
class CoveringPattern:
    """Which source components cover which target components.

    edges maps (i, j) to r_ij = |V(G_i)| / |V(H_j)|; witnesses holds one
    component-level DartMapping per edge.  Edges whose source components
    and whose target components have equal labelled structure share one
    witness object; it is valid for each of them, being in
    component-local ids.
    """
    sizes_g: tuple[int, ...]
    sizes_h: tuple[int, ...]
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    witnesses: dict[tuple[int, int], DartMapping] = field(default_factory=dict)

    @property
    def p(self) -> int:
        return len(self.sizes_g)

    @property
    def q(self) -> int:
        return len(self.sizes_h)

    def neighbor_lists(self) -> list[list[int]]:
        """Each source component's target components, ascending, in one pass."""
        out: list[list[int]] = [[] for _ in range(self.p)]
        for i, j in sorted(self.edges):
            out[i].append(j)
        return out

    def as_json(self) -> dict:
        return {
            "nodes": {"g": list(self.sizes_g), "h": list(self.sizes_h)},
            "edges": sorted([i, j] for (i, j) in self.edges),
            "weights": {f"{i},{j}": r for (i, j), r in sorted(self.edges.items())},
        }


@dataclass
class Decision:
    semantics: str  # "lbhom" | "surjective" | "equitable"
    answer: bool
    pattern: CoveringPattern
    sigma: tuple[int, ...] | None = None
    fiber_profile: dict[str, int] | None = None
    witness: DartMapping | None = None
    reason: str = ""

    def as_json(self) -> dict:
        out = {
            "semantics": self.semantics,
            "answer": self.answer,
            "sigma": list(self.sigma) if self.sigma is not None else None,
            "pattern": self.pattern.as_json(),
        }
        if self.fiber_profile is not None:
            out["fiber_profile"] = self.fiber_profile
        if self.reason:
            out["reason"] = self.reason
        return out


def _target_classes(h: Graph) -> tuple[Component, ...]:
    """components of a disconnected target, for graph._planned; () for a
    connected h, whose one component is h itself."""
    comps = components(h)
    return tuple(comps) if len(comps) > 1 else ()


def build_pattern(g: Graph, h: Graph, *, budget: int | None = None,
                  ) -> tuple[CoveringPattern, list[Component], list[Component]]:
    """Resolve all component-vs-component cover queries with decide_colored.

    Every target component is connected and non-empty, so decide_colored
    answers each pair: by a polynomial decider where one applies, by exact
    search under the dart budget elsewhere.  Pairs failing the
    divisibility filter are skipped outright.  Equal components share one
    Graph (graph.components), which keys their class, and equal pairs
    share one witness.  h's classes are kept in h's plan, for every later
    call onto h.

    A source covers a target component exactly when each of its
    components does, and every route of decide_colored treats the
    components apart and in id order.  So when the source has two or more
    classes, each target class is first decided once on the whole source
    g, if every source class passes its divisibility filter and has at
    most budget darts (the call then needs no budget).  On a yes, each
    source class's witness is the whole one restricted to the class's
    first member, the same map a call on that member alone gives.  On a
    no, or when a condition fails, decide_colored runs once per (source
    class, target class), under the budget.
    """
    comps_g = components(g)
    comps_h = _planned(h, _target_classes) or components(h)
    pattern = CoveringPattern(tuple(c.graph.n for c in comps_g),
                              tuple(c.graph.n for c in comps_h))
    decided: dict[tuple[Graph, Graph], DartMapping | None] = {}
    firsts: dict[Graph, Component] = {}      # each source class's first member
    for c in comps_g:
        firsts.setdefault(c.graph, c)
    if len(firsts) > 1 and (budget is None or all(gc.n_darts <= budget for gc in firsts)):
        for hc in dict.fromkeys(c.graph for c in comps_h):
            if any(gc.n % hc.n for gc in firsts):
                continue
            w = decide_colored(g, hc).witness
            if w is not None:
                for gc, c in firsts.items():
                    decided[gc, hc] = DartMapping(
                        tuple(map(w.dart_map.__getitem__, c.dart_ids)),
                        tuple(map(w.vertex_map.__getitem__, c.vertex_ids)))
    for i, cg in enumerate(comps_g):
        for j, ch in enumerate(comps_h):
            if cg.graph.n % ch.graph.n != 0:
                continue
            pair = (cg.graph, ch.graph)
            if pair not in decided:
                try:
                    decided[pair] = decide_colored(cg.graph, ch.graph, budget=budget).witness
                except ResourceLimit as e:
                    raise ResourceLimit(f"component pair ({i},{j}): {e}") from e
            w = decided[pair]
            if w is not None:
                pattern.edges[(i, j)] = cg.graph.n // ch.graph.n
                pattern.witnesses[(i, j)] = w
    return pattern, comps_g, list(comps_h)


def max_bipartite_matching(pattern: CoveringPattern) -> dict[int, int]:
    """Maximum matching over pattern edges, as {g_i: h_j}; deterministic."""
    ordered = sorted(pattern.edges)
    links = [(i, j, idx) for idx, (i, j) in enumerate(ordered)]
    match = kuhn_matching(pattern.p, max(pattern.q, 1), links)
    return {i: ordered[lid][1] for i, lid in enumerate(match) if lid is not None}


def decide_lbhom(pattern: CoveringPattern) -> tuple[bool, tuple[int, ...] | None, str]:
    """Yes iff no source component is isolated in the pattern."""
    sigma = []
    for i, nb in enumerate(pattern.neighbor_lists()):
        if not nb:
            return False, None, f"component g{i} covers no target component"
        sigma.append(nb[0])
    return True, tuple(sigma), ""


def decide_surjective(pattern: CoveringPattern) -> tuple[bool, tuple[int, ...] | None, str]:
    """Yes iff no isolated source component and the pattern has a matching
    hitting every target component."""
    ok, sigma, why = decide_lbhom(pattern)
    if not ok:
        return False, None, why
    match = max_bipartite_matching(pattern)
    if len(match) < pattern.q:
        return False, None, (f"pattern matching has size {len(match)} < "
                             f"{pattern.q} target components")
    out = list(sigma)
    for i, j in match.items():
        out[i] = j
    return True, tuple(out), ""


def decide_equitable(pattern: CoveringPattern, n_g: int, n_h: int,
                     ) -> tuple[bool, tuple[int, ...] | None, str]:
    """Yes iff the components split so every target vertex fiber equals
    k = n_g / n_h.

    Dynamic program over the fills of the target components, one level
    per source component.  Target components whose pattern columns are
    equal (the same weight r_ij, or the same missing edge, for every
    source component i) form a group and are interchangeable, so a state
    keeps the fills of each group in ascending order: one state per
    multiset of fills, not per permutation.  From a state, source
    component i tries one column per (group, fill value), the first of a
    run of equal fills, and the raised fill moves right to its sorted
    place.  Each state records its parent and the (group, fill) of the
    move; sigma is rebuilt forward, sending component i to the
    lowest-indexed target component of the recorded group whose current
    fill is the recorded fill.  The real fills are a permutation of the
    state's within each group, so that component exists.

    The levels take the source components largest first: by decreasing
    vertex count, ties by index.  As r_ij = |V(G_i)| / |V(H_j)|, that is
    decreasing weight in every column, so the large components cut the
    fills down before the small ones spread them over many multisets.
    The order is exact: the fill multisets reachable once all p
    components are placed do not depend on the order they are added in,
    so neither does the answer.  Only the recorded path can change, and
    with it sigma and, on a no, the component the reason names (always
    by its own index g{i}).  The problem contains bin packing, so the
    state count can grow exponentially in the number of target
    components: once the states kept over all levels exceed
    EQUITABLE_STATE_CAP, ResourceLimit is raised.
    """
    if n_h == 0:
        if n_g == 0:
            return True, (), ""
        return False, None, "target has no vertices"
    if n_g % n_h != 0 or n_g // n_h < 1:
        return False, None, f"fiber size {n_g}/{n_h} is not a positive integer"
    k = n_g // n_h
    p, q, edges = pattern.p, pattern.q, pattern.edges
    columns: dict[tuple[int | None, ...], list[int]] = {}
    for j in range(q):
        columns.setdefault(tuple(edges.get((i, j)) for i in range(p)), []).append(j)
    groups = list(columns.values())
    # moves[i]: (group, first slot, end slot, r_ij) per group that source
    # component i reaches; a state's slots s..e-1 hold the group's fills
    moves: list[list[tuple[int, int, int, int]]] = [[] for _ in range(p)]
    s = 0
    for g, (col, members) in enumerate(columns.items()):
        for i, r in enumerate(col):
            if r is not None:
                moves[i].append((g, s, s + len(members), r))
        s += len(members)
    order = sorted(range(p), key=lambda i: -pattern.sizes_g[i])
    levels: list[dict[tuple[int, ...], tuple[tuple[int, ...], int, int] | None]]
    levels = [{(0,) * q: None}]
    kept = 1
    for i in order:
        nxt: dict[tuple[int, ...], tuple[tuple[int, ...], int, int]] = {}
        for state in levels[-1]:
            for g, s, e, r in moves[i]:
                last = -1
                for t in range(s, e):
                    f = state[t]
                    if f == last:
                        continue
                    if f + r > k:
                        break
                    last = f
                    u = bisect_right(state, f + r, t + 1, e)
                    new = state[:t] + state[t + 1:u] + (f + r,) + state[u:]
                    if new not in nxt:
                        nxt[new] = (state, g, f)
            if kept + len(nxt) > EQUITABLE_STATE_CAP:
                raise ResourceLimit(
                    f"equitable DP keeps {kept + len(nxt)} states at source "
                    f"component g{i}, over the cap of {EQUITABLE_STATE_CAP}")
        if not nxt:
            return False, None, f"no feasible assignment for component g{i}"
        kept += len(nxt)
        levels.append(nxt)
    # every fill stays <= k, and the last level's fills, weighted by the
    # target component sizes, sum to n_g = k * n_h: it holds only (k,) * q
    state = (k,) * q
    steps = []
    for level in reversed(levels[1:]):
        state, g, f = level[state]
        steps.append((g, f))
    fill = [0] * q
    sigma = [0] * p
    for i, (g, f) in zip(order, reversed(steps)):
        j = next(j for j in groups[g] if fill[j] == f)
        fill[j] += edges[(i, j)]
        sigma[i] = j
    return True, tuple(sigma), ""


def _stitch(pattern: CoveringPattern, comps_g: list[Component],
            comps_h: list[Component], sigma: tuple[int, ...], g: Graph) -> DartMapping:
    dart_map = [0] * g.n_darts
    vertex_map = [0] * g.n
    for i, j in enumerate(sigma):
        w = pattern.witnesses[(i, j)]
        cg, ch = comps_g[i], comps_h[j]
        for d_local, hd_local in enumerate(w.dart_map):
            dart_map[cg.dart_ids[d_local]] = ch.dart_ids[hd_local]
        for v_local, hv_local in enumerate(w.vertex_map):
            vertex_map[cg.vertex_ids[v_local]] = ch.vertex_ids[hv_local]
    return DartMapping(tuple(dart_map), tuple(vertex_map))


def decide(g: Graph, h: Graph, semantics: str = "lbhom", *,
           want_witness: bool = False, budget: int | None = None) -> Decision:
    """Top-level pipeline: components, pattern, semantic decision, witness.

    semantics is "lbhom", "surjective" or "equitable".  With want_witness,
    the per-component witnesses are stitched into one global mapping and
    re-verified (surjectivity and fiber equality included where they apply).
    """
    if semantics not in ("lbhom", "surjective", "equitable"):
        raise ValueError(f"unknown semantics {semantics!r}")
    pattern, comps_g, comps_h = build_pattern(g, h, budget=budget)
    if semantics == "lbhom":
        ok, sigma, why = decide_lbhom(pattern)
    elif semantics == "surjective":
        ok, sigma, why = decide_surjective(pattern)
    else:
        ok, sigma, why = decide_equitable(pattern, g.n, h.n)
    decision = Decision(semantics, ok, pattern, sigma, reason=why)
    if ok and want_witness:
        f = _stitch(pattern, comps_g, comps_h, sigma, g)
        bad = verify_cover(g, h, f, require_surjective=(semantics == "surjective"))
        if bad:
            raise RuntimeError(f"stitched witness failed verification: {bad[0]}")
        fibers = [0] * h.n
        for hv in f.vertex_map:
            fibers[hv] += 1
        if semantics == "equitable" and len(set(fibers)) > 1:
            raise RuntimeError("equitable witness has unequal fibers")
        decision.fiber_profile = _fiber_sizes(h, f)
        decision.witness = f
    return decision
