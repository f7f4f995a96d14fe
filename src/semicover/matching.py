"""Matching and factorization helpers used by the polynomial deciders.

Bipartite matchings are computed by augmenting paths over explicit link
lists, so parallel links keep their identity.  General graphs go through
an in-package cardinality blossom search (Edmonds, "Paths, trees, and
flowers", 1965) after a greedy warm start.  Regular multigraphs are split
into spanning factors by Eulerian orientation plus repeated perfect
matchings.
"""

from __future__ import annotations

from .graph import EDGE, SEMI, Graph


def kuhn_matching(n_left: int, n_right: int,
                  links: list[tuple[int, int, int]]) -> list[int | None]:
    """Maximum bipartite matching over identified links.

    links are (left, right, link_id) triples.  Returns, per left vertex,
    the matched link id or None.  Deterministic: left vertices are
    processed in order and links in list order.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_left)]
    for u, w, lid in links:
        adj[u].append((w, lid))
    match_right: list[tuple[int, int] | None] = [None] * n_right
    seen_by = [-1] * n_right    # the root whose search last visited w
    for root in range(n_left):
        # Depth-first search for an augmenting path with an explicit stack:
        # stack[i] is a left vertex with its remaining links, via[i] the
        # (right, link) that stack[i] is trying through stack[i + 1].
        stack = [(root, iter(adj[root]))]
        via: list[tuple[int, int]] = []
        while stack:
            u, rest = stack[-1]
            for w, lid in rest:
                if seen_by[w] != root:
                    seen_by[w] = root
                    break
            else:
                stack.pop()
                if via:
                    via.pop()
                continue
            if match_right[w] is None:
                match_right[w] = (u, lid)
                for (x, _), (y, yid) in zip(stack, via):
                    match_right[y] = (x, yid)
                break
            via.append((w, lid))
            nxt = match_right[w][0]
            stack.append((nxt, iter(adj[nxt])))
    match_left: list[int | None] = [None] * n_left
    for w, entry in enumerate(match_right):
        if entry is not None:
            match_left[entry[0]] = entry[1]
    return match_left


def konig_split(n_left: int, n_right: int, links: list[tuple[int, int, int]],
                k: int) -> list[list[tuple[int, int, int]]] | None:
    """Split a k-regular bipartite multigraph into k perfect matchings.

    Returns k lists of (left, right, link_id) or None if the input is not
    k-regular bipartite (then no split exists).
    """
    if n_left != n_right:
        return None
    deg_l = [0] * n_left
    deg_r = [0] * n_right
    for u, w, _ in links:
        deg_l[u] += 1
        deg_r[w] += 1
    if any(d != k for d in deg_l) or any(d != k for d in deg_r):
        return None
    remaining = list(links)
    out = []
    for _ in range(k):
        match_left = kuhn_matching(n_left, n_right, remaining)
        if any(m is None for m in match_left):
            return None
        chosen = {m for m in match_left}
        matching = [t for t in remaining if t[2] in chosen]
        remaining = [t for t in remaining if t[2] not in chosen]
        out.append(matching)
    return out


def exact_link_cover(g: Graph) -> list[int] | None:
    """Every semi-edge plus edges covering each remaining vertex exactly once.

    This is the exact preimage shape of a single target semi-edge: every
    semi-edge of g is in the cover, so a vertex carrying two semi-edges is
    infeasible, and the vertices without semi-edges need a perfect
    matching among themselves.  Loops are unusable.
    """
    semis_at: list[list[int]] = [[] for _ in range(g.n)]
    for l in range(g.n_links):
        if g.link_kind(l) == SEMI:
            semis_at[g.vertex_of[g.links[l][0]]].append(l)
    if any(len(s) > 1 for s in semis_at):
        return None

    needy = [not s for s in semis_at]
    choice: dict[tuple[int, int], int] = {}   # lowest link id per vertex pair
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for l in range(g.n_links):
        if g.link_kind(l) == EDGE:
            u, w = sorted(g.link_ends(l))
            if (u, w) not in choice and needy[u] and needy[w]:
                choice[(u, w)] = l
                adj[u].append(w)
                adj[w].append(u)
    mate = _cardinality_matching(adj, [v for v in range(g.n) if needy[v]])
    if mate is None:
        return None
    return sorted([choice[(u, w)] for u, w in enumerate(mate) if u < w]
                  + [s[0] for s in semis_at if s])


def _cardinality_matching(adj: list[list[int]], need: list[int]) -> list[int] | None:
    """A matching that saturates every vertex in `need`, or None.

    Returns mate[v] (-1 when v is exposed).  Every edge of adj joins two
    vertices of `need`.  After a greedy warm start, each exposed vertex of
    `need` gets one Edmonds search for an augmenting path; by Berge's
    theorem a failed search means no perfect matching of `need` exists.
    """
    n = len(adj)
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            for w in adj[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    for root in need:
        if mate[root] < 0 and not _blossom_search(root, adj, mate, parent,
                                                  base, outer):
            return None
    return mate


def _blossom_search(root: int, adj: list[list[int]], mate: list[int],
                    parent: list[int], base: list[int], outer: list[bool]) -> bool:
    """One Edmonds search from the exposed vertex root, updating mate.

    parent, base and outer are scratch arrays, all at their rest values
    (-1, identity, False) on entry and again on return.  parent[v] of an
    inner vertex is the outer vertex it was reached from; blossom
    contraction also sets it on outer vertices inside a blossom, so that
    parent and mate trace an even alternating path from every outer vertex
    back to the root.
    """
    outer[root] = True
    tree = [root]        # every vertex whose scratch entries were touched
    queue = [root]
    start = -1           # the exposed end of the augmenting path, once found
    for v in queue:
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if outer[w]:
                # v-w closes an odd cycle.  b is the first base shared by
                # the tree paths of v and w to the root; the cycle through b
                # contracts into one blossom with base b.
                seen = set()
                a = v
                while True:
                    a = base[a]
                    seen.add(a)
                    if a == root:
                        break
                    a = parent[mate[a]]
                b = w
                while base[b] not in seen:
                    b = parent[mate[base[b]]]
                b = base[b]
                merged: set[int] = set()
                for x, child in ((v, w), (w, v)):
                    while base[x] != b:
                        merged.add(base[x])
                        merged.add(base[mate[x]])
                        parent[x] = child
                        child = mate[x]
                        x = parent[child]
                for x in tree:
                    if base[x] in merged:
                        base[x] = b
                        if not outer[x]:
                            outer[x] = True
                            queue.append(x)
            elif parent[w] < 0:
                parent[w] = v
                tree.append(w)
                if mate[w] < 0:
                    start = w
                    break
                x = mate[w]
                outer[x] = True
                tree.append(x)
                queue.append(x)
        if start >= 0:
            break
    while start >= 0:
        p = parent[start]
        nxt = mate[p]
        mate[start], mate[p] = p, start
        start = nxt
    for x in tree:
        parent[x] = -1
        base[x] = x
        outer[x] = False
    return mate[root] >= 0


def eulerian_orientation(g: Graph, link_ids: list[int]) -> dict[int, tuple[int, int]]:
    """Orient each listed link as (out_dart, in_dart), balanced per vertex.

    The listed links must induce even degree everywhere (loops and parallel
    edges allowed, semi-edges not).  Closed walks are peeled off greedily;
    orienting along them keeps in-degree equal to out-degree.
    """
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for l in link_ids:
        for d in g.links[l]:
            incident[g.vertex_of[d]].append(d)
    for lst in incident:
        lst.sort()
    ptr = [0] * g.n
    used: set[int] = set()
    orient: dict[int, tuple[int, int]] = {}
    for start in range(g.n):
        while True:
            while ptr[start] < len(incident[start]) and \
                    g.link_of[incident[start][ptr[start]]] in used:
                ptr[start] += 1
            if ptr[start] >= len(incident[start]):
                break
            v = start
            while True:
                while ptr[v] < len(incident[v]) and g.link_of[incident[v][ptr[v]]] in used:
                    ptr[v] += 1
                if ptr[v] >= len(incident[v]):
                    break
                d = incident[v][ptr[v]]
                l = g.link_of[d]
                used.add(l)
                d2 = g.partner(d)
                orient[l] = (d, d2)
                v = g.vertex_of[d2]
    return orient


def two_factor_orientations(g: Graph, link_ids: list[int] | None = None,
                            ) -> list[dict[int, tuple[int, int]]] | None:
    """Split a 2c-regular loop-allowing multigraph into c oriented 2-factors.

    Each factor maps every vertex to its (out_dart, in_dart) pair.  Returns
    None when the links do not induce a 2c-regular semi-free graph.
    """
    if link_ids is None:
        link_ids = list(range(g.n_links))
    if any(g.link_kind(l) == SEMI for l in link_ids):
        return None
    deg = [0] * g.n
    for l in link_ids:
        for v in g.link_ends(l):
            deg[v] += 1
    degs = set(deg)
    if len(degs) > 1 or (degs and (degs.pop() % 2)):
        return None
    c = (deg[0] // 2) if g.n else 0
    if c == 0:
        return [] if not link_ids else None
    orient = eulerian_orientation(g, link_ids)
    triples = [(g.vertex_of[out], g.vertex_of[inn], l)
               for l, (out, inn) in sorted(orient.items())]
    split = konig_split(g.n, g.n, triples, c)
    if split is None:
        return None
    factors = []
    for matching in split:
        factor: dict[int, tuple[int, int]] = {}
        for u, w, l in matching:
            out, inn = orient[l]
            factor[u] = (out, factor[u][1]) if u in factor else (out, -1)
            factor[w] = (factor[w][0], inn) if w in factor else (-1, inn)
        factors.append(factor)
    return factors
