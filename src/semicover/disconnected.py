"""Covers onto disconnected targets under three semantics.

A mapping whose restriction to every source component is a covering of
some target component is a locally bijective homomorphism (lbhom); asking
additionally for surjectivity, or for all target vertex fibers to share
one size, gives the surjective and equitable variants.  All three reduce
to questions about the covering pattern: the bipartite graph recording
which source component covers which target component, weighted by the
vertex-count ratio.  Each distinct component-vs-component question is
one call of dichotomy.decide_colored, which picks the algorithm;
components with equal labelled structure share that call and its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# find_cover is unused here but stays bound: perfbench's tracer wraps it at this name.
from .cover import (DartMapping, ResourceLimit, _fiber_sizes, find_cover,  # noqa: F401
                    verify_cover)
from .dichotomy import decide_colored
from .graph import Component, Graph, components
from .matching import kuhn_matching


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


def _labelled(c: Component) -> tuple:
    """Everything a decider reads of a component; names are left out."""
    g = c.graph
    return g.n, g.vertex_of, g.link_of, g.dart_color, g.vertex_color


def build_pattern(g: Graph, h: Graph, *, budget: int | None = None,
                  ) -> tuple[CoveringPattern, list[Component], list[Component]]:
    """Resolve all component-vs-component cover queries with decide_colored.

    Every target component is connected and non-empty, so decide_colored
    answers each pair: by a polynomial decider where one applies, by exact
    search under the dart budget elsewhere.  Pairs failing the
    divisibility filter are skipped outright.  Components with equal
    labelled structure form one class, and decide_colored runs once per
    (source class, target class); equal pairs share its witness.
    """
    comps_g = components(g)
    comps_h = components(h)
    pattern = CoveringPattern(tuple(c.graph.n for c in comps_g),
                              tuple(c.graph.n for c in comps_h))
    classes: dict[tuple, int] = {}
    class_g = [classes.setdefault(_labelled(c), len(classes)) for c in comps_g]
    class_h = [classes.setdefault(_labelled(c), len(classes)) for c in comps_h]
    decided: dict[tuple[int, int], DartMapping | None] = {}
    for i, cg in enumerate(comps_g):
        for j, ch in enumerate(comps_h):
            if cg.graph.n % ch.graph.n != 0:
                continue
            pair = (class_g[i], class_h[j])
            if pair not in decided:
                try:
                    decided[pair] = decide_colored(cg.graph, ch.graph, budget=budget).witness
                except ResourceLimit as e:
                    raise ResourceLimit(f"component pair ({i},{j}): {e}") from e
            w = decided[pair]
            if w is not None:
                pattern.edges[(i, j)] = cg.graph.n // ch.graph.n
                pattern.witnesses[(i, j)] = w
    return pattern, comps_g, comps_h


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

    Sparse dynamic program over per-target fill vectors: state maps each
    target component to the summed weight assigned so far (capped at k),
    with parent pointers for the assignment.
    """
    if n_h == 0:
        if n_g == 0:
            return True, (), ""
        return False, None, "target has no vertices"
    if n_g % n_h != 0 or n_g // n_h < 1:
        return False, None, f"fiber size {n_g}/{n_h} is not a positive integer"
    k = n_g // n_h
    q = pattern.q
    start = (0,) * q
    levels: list[dict[tuple[int, ...], tuple[tuple[int, ...] | None, int]]]
    levels = [{start: (None, -1)}]
    for i, nb in enumerate(pattern.neighbor_lists()):
        nxt: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        choices = [(j, pattern.edges[(i, j)]) for j in nb]
        for state in levels[i]:
            for j, r in choices:
                if state[j] + r > k:
                    continue
                new = state[:j] + (state[j] + r,) + state[j + 1:]
                if new not in nxt:
                    nxt[new] = (state, j)
        if not nxt:
            return False, None, f"no feasible assignment for component g{i}"
        levels.append(nxt)
    goal = (k,) * q
    if goal not in levels[pattern.p]:
        return False, None, f"no assignment fills every target fiber to {k}"
    sigma = [0] * pattern.p
    state = goal
    for i in range(pattern.p - 1, -1, -1):
        prev, j = levels[i + 1][state]
        sigma[i] = j
        state = prev
    return True, tuple(sigma), ""


def _stitch(pattern: CoveringPattern, comps_g: list[Component],
            comps_h: list[Component], sigma: tuple[int, ...],
            g: Graph, h: Graph) -> DartMapping:
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
    if ok and sigma is not None and want_witness:
        f = _stitch(pattern, comps_g, comps_h, sigma, g, h)
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
