"""Independent answers the benchmark checks the library against.

None of these call the library's decision code: they are small
brute-force searches over the graph's own arrays, published counts, and
outcomes of the ``stronger`` checks that are known from the literature.
"""

from __future__ import annotations

# Connected graphs on n vertices (OEIS A001349), connected cubic graphs on
# n vertices (A002851) and connected quartic graphs (A006820).
CONNECTED_SIMPLE = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CONNECTED_CUBIC = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}
CONNECTED_QUARTIC = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16}


def partition_oracle(xs: list[int], q: int) -> bool:
    """Can the multiset xs be split into q parts of equal sum?"""
    total = sum(xs)
    if q < 1 or total % q:
        return False
    cap = total // q
    items = sorted(xs, reverse=True)
    if items[0] > cap:
        return False
    fills = [0] * q

    def place(i: int) -> bool:
        if i == len(items):
            return True
        tried = set()
        for j in range(q):
            if fills[j] in tried or fills[j] + items[i] > cap:
                continue
            tried.add(fills[j])
            fills[j] += items[i]
            if place(i + 1):
                return True
            fills[j] -= items[i]
        return False

    return place(0)


def simple_edges(g) -> list[tuple[int, int]] | None:
    """Edge list of g, or None when g has a loop, semi-edge or repeated edge."""
    edges = set()
    for ds in g.links:
        if len(ds) != 2:
            return None
        u, w = sorted(g.vertex_of[d] for d in ds)
        if u == w or (u, w) in edges:
            return None
        edges.add((u, w))
    return sorted(edges)


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    return adj


def is_connected(n: int, edges) -> bool:
    if n == 0:
        return True
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_bipartite(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def has_perfect_matching(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    mate = [-1] * n

    def extend() -> bool:
        u = next((v for v in range(n) if mate[v] < 0), None)
        if u is None:
            return True
        for w in adj[u]:
            if mate[w] < 0:
                mate[u], mate[w] = w, u
                if extend():
                    return True
                mate[u] = mate[w] = -1
        return False

    return extend()


def three_edge_colorable(n: int, edges) -> bool:
    colors = [-1] * len(edges)
    at = [set() for _ in range(n)]

    def paint(i: int) -> bool:
        if i == len(edges):
            return True
        u, w = edges[i]
        for c in range(3):
            if c in at[u] or c in at[w]:
                continue
            at[u].add(c)
            at[w].add(c)
            colors[i] = c
            if paint(i + 1):
                return True
            at[u].discard(c)
            at[w].discard(c)
        return False

    return paint(0)


def girth(n: int, edges) -> int:
    adj = adjacency(n, edges)
    best = n + 1
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = [s]
        for u in queue:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def is_petersen(g) -> bool:
    """The Petersen graph is the only cubic graph on 10 vertices of girth 5."""
    edges = simple_edges(g)
    if edges is None or g.n != 10 or len(edges) != 15:
        return False
    if any(len(a) != 3 for a in adjacency(10, edges)):
        return False
    return girth(10, edges) == 5


def regular_simple_connected(g, n: int, d: int | None) -> bool:
    """g is a connected simple graph on n vertices, d-regular when d is set."""
    edges = simple_edges(g)
    if edges is None or g.n != n or not is_connected(n, edges):
        return False
    return d is None or all(len(a) == d for a in adjacency(n, edges))
