"""Seeded input generators for the benchmark.

Everything here is driven by a ``random.Random`` the caller seeds, so one
seed always gives the same graphs.  The library, passed in as the package
object ``sc``, is used only to hold the graphs (``sc.GraphBuilder``); no
decision code runs here.
"""

from __future__ import annotations

import hashlib
import random


def random_lift(sc, h, k: int, rng: random.Random):
    """A random k-fold cover of h, built fiber by fiber.

    Same rule as the test-suite helper: a semi-edge lifts to a mix of
    semi-edges and matching edges inside its fiber, a loop to loops and
    cycles of a random permutation, an edge to a random bijection between
    two fibers.  The result covers h by construction.
    """
    gb = sc.GraphBuilder()
    fiber = [[gb.add_vertex(color=h.vertex_color[v]) for _ in range(k)]
             for v in range(h.n)]
    for ds in h.links:
        if len(ds) == 1:
            d = ds[0]
            v = h.vertex_of[d]
            col = h.dart_color[d]
            idx = list(range(k))
            rng.shuffle(idx)
            while idx:
                if len(idx) >= 2 and rng.random() < 0.6:
                    a = idx.pop()
                    b = idx.pop()
                    gb.add_edge(fiber[v][a], fiber[v][b], colors=(col, col))
                else:
                    gb.add_semi(fiber[v][idx.pop()], color=col)
            continue
        d1, d2 = ds
        u, w = h.vertex_of[d1], h.vertex_of[d2]
        c1, c2 = h.dart_color[d1], h.dart_color[d2]
        perm = list(range(k))
        rng.shuffle(perm)
        if u != w:
            for a in range(k):
                gb.add_edge(fiber[u][a], fiber[w][perm[a]], colors=(c1, c2))
            continue
        seen = [False] * k
        for s in range(k):
            if seen[s]:
                continue
            cyc = [s]
            seen[s] = True
            t = perm[s]
            while t != s:
                cyc.append(t)
                seen[t] = True
                t = perm[t]
            if len(cyc) == 1:
                gb.add_loop(fiber[u][s], colors=(c1, c2))
            else:
                for i, a in enumerate(cyc):
                    gb.add_edge(fiber[u][a], fiber[u][cyc[(i + 1) % len(cyc)]],
                                colors=(c1, c2))
    return gb.build()


def rewire(sc, g, rng: random.Random):
    """Rebuild g with one random link moved to random ends (test-suite rule)."""
    gb = sc.GraphBuilder()
    for v in range(g.n):
        gb.add_vertex(color=g.vertex_color[v])
    victim = rng.randrange(g.n_links) if g.n_links else None
    for l, ds in enumerate(g.links):
        cols = tuple(g.dart_color[d] for d in ds)
        if l == victim and g.n > 1:
            ends = [rng.randrange(g.n) for _ in ds]
        else:
            ends = [g.vertex_of[d] for d in ds]
        if len(ds) == 1:
            gb.add_semi(ends[0], color=cols[0])
        elif ends[0] == ends[1]:
            gb.add_loop(ends[0], colors=cols)
        else:
            gb.add_edge(ends[0], ends[1], colors=cols)
    return gb.build()


def cubic_graph_from(sc, n: int, edges):
    """The simple graph on n vertices with the given edge list."""
    gb = sc.GraphBuilder()
    for _ in range(n):
        gb.add_vertex()
    for u, w in edges:
        gb.add_edge(u, w)
    return gb.build()


def two_switch(sc, g, rng: random.Random):
    """Rebuild g with two edges re-paired, keeping every vertex's darts.

    Edges u1-u2 and w1-w2 with matching dart colours and four distinct
    ends become u1-w2 and w1-u2, so degrees and dart colours stay and only
    a search can tell whether the result still covers the target.
    """
    edges = [l for l, ds in enumerate(g.links)
             if len(ds) == 2 and g.vertex_of[ds[0]] != g.vertex_of[ds[1]]]
    new_ends = {}
    for _ in range(1000):
        a, b = rng.sample(edges, 2)
        (d1, d2), (e1, e2) = g.links[a], g.links[b]
        if rng.random() < 0.5:
            e1, e2 = e2, e1
        ends = {g.vertex_of[x] for x in (d1, d2, e1, e2)}
        if len(ends) == 4 and g.dart_color[d1] == g.dart_color[e1] \
                and g.dart_color[d2] == g.dart_color[e2]:
            new_ends = {a: (d1, e2), b: (e1, d2)}
            break
    gb = sc.GraphBuilder()
    for v in range(g.n):
        gb.add_vertex(color=g.vertex_color[v])
    for l, ds in enumerate(g.links):
        ds = new_ends.get(l, ds)
        cols = tuple(g.dart_color[d] for d in ds)
        ends = [g.vertex_of[d] for d in ds]
        if len(ds) == 1:
            gb.add_semi(ends[0], color=cols[0])
        elif ends[0] == ends[1]:
            gb.add_loop(ends[0], colors=cols)
        else:
            gb.add_edge(ends[0], ends[1], colors=cols)
    return gb.build()


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def cubic_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a random connected simple cubic graph (pairing model).

    Three points per vertex are paired uniformly at random; pairings with
    a loop, a repeated edge or more than one component are redrawn.
    """
    if n < 4 or n % 2:
        raise ValueError("a cubic graph needs an even order of at least 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, w = sorted(points[i:i + 2])
            if u == w or (u, w) in edges:
                break
            edges.add((u, w))
        else:
            edges = sorted(edges)
            if _connected(n, edges):
                return edges


def cubic_graph(sc, n: int, rng: random.Random):
    return cubic_graph_from(sc, n, cubic_edges(n, rng))


def flower_snark_edges(m: int) -> list[tuple[int, int]]:
    """Flower snark J_m (m odd): 4m vertices, no 3-edge-colouring.

    Star i has centre a_i and leaves b_i, c_i, d_i; the b_i form an m-cycle
    and the c_i and d_i together form one 2m-cycle.
    """
    a = lambda i: 4 * (i % m)
    b = lambda i: 4 * (i % m) + 1
    c = lambda i: 4 * (i % m) + 2
    d = lambda i: 4 * (i % m) + 3
    edges = []
    for i in range(m):
        edges += [(a(i), b(i)), (a(i), c(i)), (a(i), d(i)), (b(i), b(i + 1))]
        edges.append((c(i), c(i + 1)) if i < m - 1 else (c(i), d(0)))
        edges.append((d(i), d(i + 1)) if i < m - 1 else (d(i), c(0)))
    return edges


def flower_snark(sc, m: int):
    return cubic_graph_from(sc, 4 * m, flower_snark_edges(m))


def graph_text(g) -> str:
    """The graph-file text of g, in the format ``parse_graph`` reads."""
    lines = []
    for v in range(g.n):
        c = g.vertex_color[v]
        lines.append(f"vertex v{v}" + (f" color={c}" if c else ""))
    for ds in g.links:
        cols = [g.dart_color[d] for d in ds]
        ends = [g.vertex_of[d] for d in ds]
        if len(ds) == 1:
            lines.append(f"semi v{ends[0]}" + (f" color={cols[0]}" if cols[0] else ""))
            continue
        suffix = f" colors={cols[0]},{cols[1]}" if any(cols) else ""
        if ends[0] == ends[1]:
            lines.append(f"loop v{ends[0]}{suffix}")
        else:
            lines.append(f"edge v{ends[0]} v{ends[1]}{suffix}")
    return "\n".join(lines) + "\n"


def digest(parts) -> str:
    """Short stable digest of an iterable of strings."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
