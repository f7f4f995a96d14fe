"""Isomorphism testing and deduplication for dart multigraphs.

Color refinement produces a canonical vertex partition that is comparable
across graphs; exact isomorphism is decided by backtracking inside the
refined classes.  Initial colors fold in each vertex's distance profile,
which splits regular graphs that plain degree refinement cannot.  A
CanonicalSet buckets graphs by their refinement invariant and keeps one
representative per isomorphism class.
"""

from __future__ import annotations

from .graph import LOOP, SEMI, Graph, _KIND_RANK


def _distance_profile(g: Graph, v: int) -> tuple[int, ...]:
    dist = [-1] * g.n
    dist[v] = 0
    queue = [v]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for d in g.darts_at[u]:
            p = g.partner(d)
            if p is None:
                continue
            w = g.vertex_of[p]
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return tuple(sorted(g.n if x < 0 else x for x in dist))


def _initial_coloring(g: Graph) -> list[int]:
    raw = [(g.vertex_color[v], g.degree(v), _distance_profile(g, v))
           for v in range(g.n)]
    idx = {k: i for i, k in enumerate(sorted(set(raw)))}
    return [idx[r] for r in raw]


def _refine(g: Graph, coloring: list[int]) -> tuple[list[int], tuple]:
    """Refine to a stable partition; class ids are canonical across graphs."""
    while True:
        feats = []
        for v in range(g.n):
            inc = []
            for d in g.darts_at[v]:
                l = g.link_of[d]
                p = g.partner(d)
                if p is None:
                    other = -2
                elif g.vertex_of[p] == v:
                    other = -1
                else:
                    other = coloring[g.vertex_of[p]]
                cols = tuple(sorted(g.dart_color[x] for x in g.links[l]))
                inc.append((g.dart_color[d], _KIND_RANK[g.link_kind(l)], cols, other))
            feats.append((coloring[v], g.vertex_color[v], tuple(sorted(inc))))
        idx = {f: i for i, f in enumerate(sorted(set(feats)))}
        new = [idx[f] for f in feats]
        if new == coloring:
            return new, tuple(sorted(feats))
        coloring = new


def _match_profiles(g: Graph):
    """Per-vertex loop/semi profile and per-pair edge profile, computed once."""
    selfp = []
    for v in range(g.n):
        links = set(g.link_of[d] for d in g.darts_at[v])
        semis = sorted(g.dart_color[g.links[l][0]]
                       for l in links if g.link_kind(l) == SEMI)
        loops = sorted(tuple(sorted(g.dart_color[d] for d in g.links[l]))
                       for l in links if g.link_kind(l) == LOOP)
        selfp.append((tuple(semis), tuple(loops)))
    raw: list[dict[int, list]] = [{} for _ in range(g.n)]
    for ds in g.links:
        if len(ds) == 2:
            d1, d2 = ds
            u, w = g.vertex_of[d1], g.vertex_of[d2]
            if u != w:
                raw[u].setdefault(w, []).append((g.dart_color[d1], g.dart_color[d2]))
                raw[w].setdefault(u, []).append((g.dart_color[d2], g.dart_color[d1]))
    edgep = [{w: tuple(sorted(lst)) for w, lst in row.items()} for row in raw]
    return selfp, edgep


def _search(g1: Graph, g2: Graph, c1, c2, prof1, prof2) -> bool:
    selfp1, edgep1 = prof1
    selfp2, edgep2 = prof2
    by_class: dict[int, list[int]] = {}
    for v in range(g2.n):
        by_class.setdefault(c2[v], []).append(v)

    # Match g1 vertices in an order that keeps the partial map connected
    # where possible, which makes the edge-profile checks bite early.
    order: list[int] = []
    seen = [False] * g1.n
    for start in range(g1.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop()
            order.append(u)
            for w in edgep1[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)

    mapping: dict[int, int] = {}
    used = [False] * g2.n
    empty: tuple = ()

    def place(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        spu = selfp1[u]
        epu = edgep1[u]
        for v in by_class.get(c1[u], ()):
            if used[v] or spu != selfp2[v]:
                continue
            epv = edgep2[v]
            ok = True
            for u2, v2 in mapping.items():
                if epu.get(u2, empty) != epv.get(v2, empty):
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                if place(i + 1):
                    return True
                del mapping[u]
                used[v] = False
        return False

    return place(0)


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism of dart multigraphs, colors included."""
    if g1.n != g2.n or g1.n_darts != g2.n_darts or g1.n_links != g2.n_links:
        return False
    c1, f1 = _refine(g1, _initial_coloring(g1))
    c2, f2 = _refine(g2, _initial_coloring(g2))
    if f1 != f2:
        return False
    return _search(g1, g2, c1, c2, _match_profiles(g1), _match_profiles(g2))


class CanonicalSet:
    """Collects graphs up to isomorphism; add() reports whether g was new."""

    def __init__(self) -> None:
        self._buckets: dict[tuple, list[tuple]] = {}
        self.count = 0

    def add(self, g: Graph) -> bool:
        coloring, feats = _refine(g, _initial_coloring(g))
        key = (g.n, g.n_darts, g.n_links, feats)
        bucket = self._buckets.setdefault(key, [])
        prof = _match_profiles(g)
        for other, oc, oprof in bucket:
            if _search(g, other, coloring, oc, prof, oprof):
                return False
        bucket.append((g, coloring, prof))
        self.count += 1
        return True

    def __iter__(self):
        for bucket in self._buckets.values():
            for g, _, _ in bucket:
                yield g

    def __len__(self) -> int:
        return self.count
