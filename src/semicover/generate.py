"""Exhaustive generation of small simple graphs, one per isomorphism class.

Regular graphs come from a breadth-first-labeled backtracking search:
vertex 0's neighbors are exactly 1..d, later vertices are discovered in
consecutive label order, and every vertex is completed before the next
one starts.  Twin candidates (vertices interchangeable in the partial
graph) are only ever picked as a prefix of their group, which cuts the
search without losing classes; leftover duplicates are removed by
canonical comparison.  General connected graphs are grown by vertex
augmentation: every connected graph on n vertices arises from a
connected one on n-1 by attaching a non-cut vertex.
"""

from __future__ import annotations

from itertools import combinations

from .build import cycle
from .canon import CanonicalSet
from .graph import Graph, GraphBuilder, is_connected


def _from_masks(n: int, adjm: list[int]) -> Graph:
    b = GraphBuilder()
    for _ in range(n):
        b.add_vertex()
    for u in range(n):
        m = adjm[u] >> (u + 1)
        w = u + 1
        while m:
            if m & 1:
                b.add_edge(u, w)
            m >>= 1
            w += 1
    return b.build()


def _prefix_choices(groups: list[list[int]], take: int) -> list[list[int]]:
    """Subsets of size `take` using only prefixes of each twin group."""
    out: list[list[int]] = []

    def rec(i: int, left: int, acc: list[int]):
        if left == 0:
            out.append(list(acc))
            return
        if i == len(groups):
            return
        rest = sum(len(g) for g in groups[i + 1:])
        grp = groups[i]
        for c in range(min(left, len(grp)), -1, -1):
            if left - c <= rest:
                rec(i + 1, left - c, acc + grp[:c])

    rec(0, take, [])
    return out


def _regular_connected_search(n: int, d: int) -> list[Graph]:
    found = CanonicalSet()
    out: list[Graph] = []
    adjm = [0] * n
    deg = [0] * n
    for w in range(1, d + 1):
        adjm[0] |= 1 << w
        adjm[w] |= 1
        deg[0] += 1
        deg[w] += 1

    def feasible(u: int, labeled: int) -> bool:
        # every open vertex must still reach degree d inside its window
        window = labeled - u - 2
        fresh = n - labeled
        slack = 0
        for w in range(u + 1, labeled):
            r = d - deg[w]
            slack += r
            inside = (adjm[w] >> (u + 1)) & ((1 << (labeled - u - 1)) - 1)
            if r > window - inside.bit_count() + fresh:
                return False
        slack += (n - labeled) * d
        return slack % 2 == 0

    def rec(u: int, labeled: int):
        if u == n:
            g = _from_masks(n, adjm)
            if found.add(g):
                out.append(g)
            return
        if u >= labeled:
            return
        need = d - deg[u]
        if need < 0 or need > (n - 1 - u):
            return
        old = [w for w in range(u + 1, labeled)
               if deg[w] < d and not (adjm[u] >> w) & 1]
        # twin groups: open twins share adjm, closed twins share adjm|self
        groups: list[list[int]] = []
        for w in old:
            for grp in groups:
                v = grp[0]
                if adjm[v] == adjm[w] or (adjm[v] | (1 << v)) == (adjm[w] | (1 << w)):
                    grp.append(w)
                    break
            else:
                groups.append([w])
        for t in range(min(need, n - labeled), -1, -1):
            fresh = list(range(labeled, labeled + t))
            for chosen in _prefix_choices(groups, need - t):
                nbrs = chosen + fresh
                for w in nbrs:
                    adjm[u] |= 1 << w
                    adjm[w] |= 1 << u
                    deg[u] += 1
                    deg[w] += 1
                if feasible(u, labeled + t):
                    rec(u + 1, labeled + t)
                for w in nbrs:
                    adjm[u] &= ~(1 << w)
                    adjm[w] &= ~(1 << u)
                    deg[u] -= 1
                    deg[w] -= 1

    rec(1, d + 1)
    return out


def _all_regular_graphs(n: int, d: int) -> list[Graph]:
    """All d-regular graphs on n vertices, connected or not, one per class."""
    if d == 0:
        return [_from_masks(n, [0] * n)]
    pieces: dict[int, list[Graph]] = {
        k: connected_regular_graphs(k, d) for k in range(1, n + 1)
    }

    out: list[Graph] = []

    # multisets of components, ordered by size desc then index desc
    def rec(rest: int, size_cap: int, idx_cap: int, acc: list[Graph]):
        if rest == 0:
            masks = [0] * n
            base = 0
            for g in acc:
                for u in range(g.n):
                    for dd in g.darts_at[u]:
                        masks[base + u] |= 1 << (base + g.vertex_of[g.partner(dd)])
                base += g.n
            out.append(_from_masks(n, masks))
            return
        for k in range(min(rest, size_cap), 0, -1):
            cap = idx_cap if k == size_cap else len(pieces[k])
            for i in range(cap):
                rec(rest - k, k, i + 1, acc + [pieces[k][i]])

    rec(n, n, len(pieces[n]), [])
    return out


def connected_regular_graphs(n: int, d: int) -> list[Graph]:
    """All connected simple d-regular graphs on n vertices, one per class."""
    if n < 1 or d < 0:
        return []
    if d == 0:
        return [_from_masks(1, [0])] if n == 1 else []
    if n <= d or (n * d) % 2:
        return []
    if d == 1:
        return [_from_masks(2, [2, 1])] if n == 2 else []
    if d == 2:
        return [] if n < 3 else [cycle(n)]
    if d >= 4 and n - 1 - d < d:
        # complement search is shallower; complement preserves iso classes
        comp = _all_regular_graphs(n, n - 1 - d)
        full = (1 << n) - 1
        out = []
        for g in comp:
            masks = [full & ~(1 << u) for u in range(n)]
            for u in range(g.n):
                for dd in g.darts_at[u]:
                    masks[u] &= ~(1 << g.vertex_of[g.partner(dd)])
            cand = _from_masks(n, masks)
            if is_connected(cand):
                out.append(cand)
        return out
    return _regular_connected_search(n, d)


def connected_simple_graphs(n: int) -> list[Graph]:
    """All connected simple graphs on n vertices, one per class."""
    if n < 1:
        return []
    level = [_from_masks(1, [0])]
    for size in range(2, n + 1):
        grown = CanonicalSet()
        nxt: list[Graph] = []
        for g in level:
            base = [0] * size
            for u in range(g.n):
                for dd in g.darts_at[u]:
                    base[u] |= 1 << g.vertex_of[g.partner(dd)]
            verts = list(range(g.n))
            for r in range(1, g.n + 1):
                for subset in combinations(verts, r):
                    adj = list(base)
                    adj.append(0)
                    for w in subset:
                        adj[g.n] |= 1 << w
                        adj[w] |= 1 << g.n
                    cand = _from_masks(size, adj)
                    if grown.add(cand):
                        nxt.append(cand)
        level = nxt
    return level
