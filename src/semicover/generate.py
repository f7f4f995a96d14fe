"""Exhaustive generation of small simple graphs, one per isomorphism class.

Candidates are neighbour bitmasks, deduplicated by the certificate that
canon computes straight from the masks; a Graph is built only for the
first candidate of each class.  Regular graphs come from a
breadth-first-labeled backtracking search: vertex 0's neighbors are
exactly 1..d, later vertices are discovered in consecutive label order,
and every vertex is completed before the next one starts.  Twin
candidates (vertices interchangeable in the partial graph) are only ever
picked as a prefix of their group, which cuts the search without losing
classes; the leaves are then deduplicated.  General connected graphs are
grown by vertex augmentation: every connected graph on n vertices arises
from a connected one on n-1 by attaching a non-cut vertex.  Attachment
sets in one orbit of the parent's automorphisms (those the certificate
search found) give isomorphic graphs, so only the first of each orbit is
tried (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998).  Each generator returns the first graph it built of each class, in
the order the classes were found.
"""

from __future__ import annotations

from itertools import combinations

from .build import cycle
# CanonicalSet is unused here but stays bound: perfbench's tracer wraps it at this name.
from .canon import CanonicalSet, _mask_certificate  # noqa: F401
from .graph import Graph, is_connected


def _from_masks(n: int, adjm: list[int]) -> Graph:
    """The simple graph with these neighbour bitmasks; edge (u, w), u < w,
    in (u, w) order, is link l with darts 2l at u and 2l + 1 at w."""
    vertex_of: list[int] = []
    for u in range(n):
        m = adjm[u] >> (u + 1)
        w = u + 1
        while m:
            if m & 1:
                vertex_of += (u, w)
            m >>= 1
            w += 1
    return Graph(n, vertex_of, [d >> 1 for d in range(len(vertex_of))])


def _masks(g: Graph) -> list[int]:
    """The neighbours of each vertex of the simple graph g, as bitmasks."""
    return [sum(1 << g.vertex_of[g.mate[d]] for d in ds) for ds in g.darts_at]


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
    found: dict[tuple, list[int]] = {}     # certificate -> masks of its first leaf
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
            found.setdefault(_mask_certificate(adjm)[0], list(adjm))
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
    return [_from_masks(n, adj) for adj in found.values()]


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
            masks: list[int] = []
            for g in acc:
                masks += [m << len(masks) for m in _masks(g)]
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
        full = (1 << n) - 1
        complements = (_from_masks(n, [full & ~(1 << u | m) for u, m in enumerate(_masks(g))])
                       for g in _all_regular_graphs(n, n - 1 - d))
        return [g for g in complements if is_connected(g)]
    return _regular_connected_search(n, d)


def _orbit_firsts(k: int, gens: list[list[int]]):
    """The nonempty subsets of range(k) as bitmasks, by size and then in
    combinations order, that come first in their orbit under gens."""
    seen: set[int] = set()
    for r in range(1, k + 1):
        for subset in combinations(range(k), r):
            s = sum(1 << w for w in subset)
            if s in seen:
                continue
            seen.add(s)
            todo = [s]
            while todo:
                t = todo.pop()
                for gam in gens:
                    image = sum(1 << gam[w] for w in range(k) if t >> w & 1)
                    if image not in seen:
                        seen.add(image)
                        todo.append(image)
            yield s


def connected_simple_graphs(n: int) -> list[Graph]:
    """All connected simple graphs on n vertices, one per class."""
    if n < 1:
        return []
    level: list[tuple[list[int], list[list[int]]]] = [([0], [])]   # (masks, automorphisms)
    for k in range(1, n):
        grown: dict[tuple, tuple] = {}
        for base, gens in level:
            # Subsets in one orbit of base's automorphisms give isomorphic
            # graphs, so only the first of each can be a class's first.
            for s in _orbit_firsts(k, gens):
                adj = [m | (s >> w & 1) << k for w, m in enumerate(base)] + [s]
                cert, auts = _mask_certificate(adj)
                grown.setdefault(cert, (adj, auts))
        level = list(grown.values())
    return [_from_masks(n, adj) for adj, _ in level]
