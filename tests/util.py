"""Shared test helpers: random instances and independent brute-force oracles.

The oracles here deliberately avoid the library's search and matching
code so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from functools import cache
from itertools import permutations, product
from typing import Iterator

from semicover.cover import CoverViolation, DartMapping, ResourceLimit, _fiber_violations
from semicover.graph import (EDGE, LOOP, SEMI, Component, Graph, GraphBuilder,
                             GraphFormatError, _colors, _subgraph, components, type_signature)


def random_graph(rng: random.Random, n: int, m: int, colors=(0,),
                 semis: bool = True, loops: bool = True) -> Graph:
    """Random multigraph with n vertices and m links."""
    gb = GraphBuilder()
    for _ in range(n):
        gb.add_vertex()
    for _ in range(m):
        roll = rng.random()
        if semis and roll < 0.2:
            gb.add_semi(rng.randrange(n), color=rng.choice(colors))
        elif loops and roll < 0.4:
            gb.add_loop(rng.randrange(n),
                        colors=(rng.choice(colors), rng.choice(colors)))
        else:
            u = rng.randrange(n)
            w = rng.randrange(n)
            if u == w:
                if loops:
                    gb.add_loop(u, colors=(rng.choice(colors), rng.choice(colors)))
                else:
                    gb.add_semi(u, color=rng.choice(colors))
            else:
                gb.add_edge(u, w, colors=(rng.choice(colors), rng.choice(colors)))
    return gb.build()


def random_lift(h: Graph, k: int, rng: random.Random) -> Graph:
    """A random k-fold cover of h, built fiber by fiber.

    Semi-edges lift to a mix of semi-edges and matching edges inside the
    fiber, loops lift to loops and cycles, edges lift to a bijection
    between the two fibers.  The result covers h by construction.
    """
    gb = GraphBuilder()
    fiber: list[list[int]] = []
    for v in range(h.n):
        fiber.append([gb.add_vertex(color=h.vertex_color[v]) for _ in range(k)])
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
        else:
            d1, d2 = ds
            u, w = h.vertex_of[d1], h.vertex_of[d2]
            c1, c2 = h.dart_color[d1], h.dart_color[d2]
            perm = list(range(k))
            rng.shuffle(perm)
            if u == w:
                # permutation cycles: fixed points become loops
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
                            b = cyc[(i + 1) % len(cyc)]
                            gb.add_edge(fiber[u][a], fiber[u][b], colors=(c1, c2))
            else:
                for a in range(k):
                    gb.add_edge(fiber[u][a], fiber[w][perm[a]], colors=(c1, c2))
    return gb.build()


def random_cubic(n: int, rng: random.Random) -> Graph:
    """A random simple cubic graph on n vertices (pairing model): three
    points per vertex are paired uniformly at random, and a pairing with
    a loop or a repeated edge is drawn again."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(u, w), max(u, w)) for u, w in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(u != w for u, w in edges):
            gb = GraphBuilder()
            for _ in range(n):
                gb.add_vertex()
            for u, w in sorted(edges):
                gb.add_edge(u, w)
            return gb.build()


def perturb(g: Graph, rng: random.Random) -> Graph:
    """Rebuild g with one random link rewired; often breaks cover structure."""
    gb = GraphBuilder()
    for v in range(g.n):
        gb.add_vertex(color=g.vertex_color[v])
    links = list(range(g.n_links))
    victim = rng.choice(links) if links else None
    for l in links:
        ds = g.links[l]
        cols = tuple(g.dart_color[d] for d in ds)
        if l == victim and g.n > 1:
            ends = [rng.randrange(g.n) for _ in ds]
            if len(ds) == 1:
                gb.add_semi(ends[0], color=cols[0])
            elif ends[0] == ends[1]:
                gb.add_loop(ends[0], colors=(cols[0], cols[1]))
            else:
                gb.add_edge(ends[0], ends[1], colors=(cols[0], cols[1]))
        elif len(ds) == 1:
            gb.add_semi(g.vertex_of[ds[0]], color=cols[0])
        elif g.vertex_of[ds[0]] == g.vertex_of[ds[1]]:
            gb.add_loop(g.vertex_of[ds[0]], colors=(cols[0], cols[1]))
        else:
            gb.add_edge(g.vertex_of[ds[0]], g.vertex_of[ds[1]],
                        colors=(cols[0], cols[1]))
    return gb.build()


def switched(g: Graph, rng: random.Random) -> Graph:
    """g with the far ends of two links of the same dart colors swapped:
    every vertex keeps its type signature, yet g may stop being a cover."""
    by_colors = {}
    for cell in g.links:
        if len(cell) == 2:
            by_colors.setdefault(tuple(g.dart_color[d] for d in cell), []).append(cell)
    pool = [cells for cells in by_colors.values() if len(cells) > 1]
    swap = {}
    if pool:
        x, y = rng.sample(rng.choice(pool), 2)
        swap = {x: y, y: x}
    b = GraphBuilder()
    for v in range(g.n):
        b.add_vertex(color=g.vertex_color[v])
    for cell in g.links:
        colors = tuple(g.dart_color[d] for d in cell)
        ends = [g.vertex_of[d] for d in (cell[0], swap.get(cell, cell)[-1])]
        if len(cell) == 1:
            b.add_semi(ends[0], color=colors[0])
        elif ends[0] == ends[1]:
            b.add_loop(ends[0], colors=colors)
        else:
            b.add_edge(*ends, colors=colors)
    return b.build()


def voltage_lifts(h: Graph, k: int) -> Iterator[tuple[Graph, DartMapping]]:
    """Every permutation voltage lift of the connected h with fibre
    range(k), labelled, each with its projection onto h.  Every k-fold
    cover of h is isomorphic to one of them (Gross & Tucker, Discrete
    Math. 18, 1977), so a connected g on k * h.n vertices covers h
    exactly when it is isomorphic to a connected lift.

    The edges of a spanning tree of h get the identity; every other edge
    and every loop gets each permutation p of the fibre, and every
    semi-edge each involution.  Dart d of h at fibre point i is lift dart
    d * k + i, at vertex (vertex_of[d], i); with first dart a and last
    dart b of its link, dart (a, i) pairs with dart (b, p[i]).  So a
    loop's fixed points lift to loops and its other cycles to cycles of
    edges, and a semi-edge's fixed points to semi-edges and its 2-cycles
    to edges.  Only Graph is shared with the library: no search, no
    matching and no plan.  There are (k!)^beta * I(k)^s lifts, for beta
    the cycle rank of h's edges and loops, s its semi-edges and I(k) the
    involutions of k points.
    """
    root = list(range(h.n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v
    free = []   # the links with a voltage: all but the spanning tree's
    for cell in h.links:
        ra, rb = find(h.vertex_of[cell[0]]), find(h.vertex_of[cell[-1]])
        if ra != rb:
            root[ra] = rb
        else:
            free.append(cell)
    perms = list(permutations(range(k)))
    involutions = [p for p in perms if all(p[p[i]] == i for i in range(k))]
    nd = h.n_darts * k
    vertex_of = [h.vertex_of[d // k] * k + d % k for d in range(nd)]
    dart_color = [h.dart_color[d // k] for d in range(nd)]
    vertex_color = [h.vertex_color[v // k] for v in range(h.n * k)]
    projection = DartMapping(tuple(d // k for d in range(nd)),
                             tuple(v // k for v in range(h.n * k)))
    identity = tuple(range(k))
    for voltages in product(*(involutions if len(cell) == 1 else perms for cell in free)):
        voltage = dict(zip(free, voltages))
        link_of = [-1] * nd
        links = 0
        for cell in h.links:
            p = voltage.get(cell, identity)
            for i in range(k):
                x = cell[0] * k + i
                if link_of[x] < 0:
                    link_of[x] = link_of[cell[-1] * k + p[i]] = links
                    links += 1
        yield Graph(h.n * k, vertex_of, link_of, dart_color, vertex_color), projection


def _reaches_all(g: Graph) -> bool:
    """g is connected: a search from vertex 0 over mates reaches every vertex."""
    seen, stack = {0}, [0]
    for u in stack:
        for d in g.darts_at[u]:
            if (w := g.vertex_of[g.mate[d]]) not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertex ids permuted at random; darts and links keep theirs."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    colors = [0] * g.n
    for v, p in enumerate(perm):
        colors[p] = g.vertex_color[v]
    return Graph(g.n, [perm[v] for v in g.vertex_of], g.link_of, g.dart_color, colors)


def lift_oracle(targets, ks=(2, 3), seeds=range(4)) -> tuple[Counter, list[str]]:
    """decide_colored against voltage_lifts, on every connected target
    given and every fold k in ks.

    Every labelled lift must pass verify_cover with its projection, and
    the connected ones fall into classes by canon._certificate.  Each
    class must answer yes with a witness that passes verify_cover with
    fibres checked.  Each class switched once per seed (switched), when
    still connected, must answer yes exactly when its certificate is a
    class's.  Lifts number their vertices fibre by fibre, so vertex 0
    always lies over target vertex 0; what is decided gets its vertex ids
    shuffled first, or a decider that defaults vertex 0 to target vertex
    0 would pass by luck.  Returns the counts (lifts, classes, switched lifts, noes
    among them, and classes per route of the target) and one line per
    disagreement.
    """
    from semicover.canon import _certificate
    from semicover.cover import verify_cover
    from semicover.deciders import _decider_plan
    from semicover.dichotomy import decide_colored
    from semicover.graph import _planned
    counts: Counter = Counter()
    wrong: list[str] = []
    rng = random.Random(0)
    for t, h in enumerate(targets):
        plan = _planned(h, _decider_plan) if h.n <= 2 else None
        route = ("exact" if plan is None or plan.route is None else
                 "side-search" if plan.method == "side-search" else
                 "2-SAT" if plan.route == "agree" else plan.route)
        for k in ks:
            classes: dict[tuple, Graph] = {}
            for g, f in voltage_lifts(h, k):
                counts["lifts"] += 1
                if verify_cover(g, h, f, check_fibers=True):
                    wrong.append(f"target {t}, k = {k}: a lift fails its projection")
                if _reaches_all(g):
                    classes.setdefault(_certificate(g), g)
            counts["classes"] += len(classes)
            counts[f"classes, {route}"] += len(classes)
            for lift in classes.values():
                g = _relabelled(lift, rng)
                v = decide_colored(g, h)
                if not v.answer or verify_cover(g, h, v.witness, check_fibers=True):
                    wrong.append(f"target {t}, k = {k}: a lift got no verified yes")
                for seed in seeds:
                    s = switched(lift, random.Random(seed))
                    if not _reaches_all(s):
                        continue
                    expect = _certificate(s) in classes
                    counts["switched"] += 1
                    counts["switched noes"] += not expect
                    if decide_colored(_relabelled(s, rng), h).answer != expect:
                        wrong.append(f"target {t}, k = {k}, seed {seed}: "
                                     f"switched lift answered {not expect}")
    return counts, wrong


def brute_cover_exists(g: Graph, h: Graph) -> bool:
    """Exponential covering check: all vertex maps, all dart bijections.

    Independent of the library's search; only for very small graphs.
    """
    if g.n == 0:
        return True
    if h.n == 0:
        return False

    hlink_of = h.link_of

    def dart_maps_ok(assign: dict[int, int]) -> bool:
        for ds in g.links:
            if len(ds) == 1:
                ld = hlink_of[assign[ds[0]]]
                if len(h.links[ld]) != 1:
                    return False
            else:
                # image must be a whole link: a 2-dart link, or an edge
                # collapsing both darts onto one semi-edge
                a, b = assign[ds[0]], assign[ds[1]]
                if a == b:
                    if len(h.links[hlink_of[a]]) != 1:
                        return False
                elif hlink_of[a] != hlink_of[b]:
                    return False
        return True

    for vmap in product(range(h.n), repeat=g.n):
        if any(g.vertex_color[v] != h.vertex_color[vmap[v]] for v in range(g.n)):
            continue
        if any(len(g.darts_at[v]) != len(h.darts_at[vmap[v]]) for v in range(g.n)):
            continue
        per_vertex = []
        ok = True
        for v in range(g.n):
            gs = g.darts_at[v]
            hs = h.darts_at[vmap[v]]
            opts = [dict(zip(gs, pi)) for pi in permutations(hs)
                    if all(g.dart_color[a] == h.dart_color[b]
                           for a, b in zip(gs, pi))]
            if not opts:
                ok = False
                break
            per_vertex.append(opts)
        if not ok:
            continue
        for combo in product(*per_vertex):
            assign: dict[int, int] = {}
            for m in combo:
                assign.update(m)
            if dart_maps_ok(assign):
                return True
    return False


def edge_colorable(g: Graph, k: int) -> bool:
    """Proper k-edge-coloring of a simple graph, by backtracking."""
    edges = []
    for l, ds in enumerate(g.links):
        if len(ds) != 2 or g.vertex_of[ds[0]] == g.vertex_of[ds[1]]:
            return False  # loops and semis never color properly
        edges.append((g.vertex_of[ds[0]], g.vertex_of[ds[1]]))
    used = [set() for _ in range(g.n)]

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        u, w = edges[i]
        for c in range(k):
            if c not in used[u] and c not in used[w]:
                used[u].add(c)
                used[w].add(c)
                if rec(i + 1):
                    return True
                used[u].remove(c)
                used[w].remove(c)
        return False

    return rec(0)


def has_perfect_matching_brute(g: Graph) -> bool:
    """Backtracking perfect matching over the edges of a simple graph."""
    if g.n % 2:
        return False
    adj = [set() for _ in range(g.n)]
    for ds in g.links:
        if len(ds) == 2:
            u, w = g.vertex_of[ds[0]], g.vertex_of[ds[1]]
            if u != w:
                adj[u].add(w)
                adj[w].add(u)
    covered = [False] * g.n

    def rec() -> bool:
        try:
            v = covered.index(False)
        except ValueError:
            return True
        covered[v] = True
        for w in sorted(adj[v]):
            if not covered[w]:
                covered[w] = True
                if rec():
                    return True
                covered[w] = False
        covered[v] = False
        return False

    return rec()


def two_colorable(g: Graph) -> bool:
    """Independent bipartiteness check by BFS 2-coloring."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for d in g.darts_at[u]:
                p = g.mate[d]
                if p == d:
                    continue
                w = g.vertex_of[p]
                if w == u:
                    return False
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def partition_oracle(xs: list[int], q: int) -> bool:
    """Can the multiset xs be split into q parts of equal sum?"""
    total = sum(xs)
    if q < 1 or total % q:
        return False
    cap = total // q
    items = sorted(xs, reverse=True)
    if items and items[0] > cap:
        return False
    fills = [0] * q

    def rec(i: int) -> bool:
        if i == len(items):
            return True
        seen = set()
        for j in range(q):
            if fills[j] in seen:
                continue
            seen.add(fills[j])
            if fills[j] + items[i] <= cap:
                fills[j] += items[i]
                if rec(i + 1):
                    return True
                fills[j] -= items[i]
        return False

    return rec(0)


# The sparse equitable DP over full fill vectors that kept every
# permutation of the fills of interchangeable target components, kept as
# the reference for semicover.disconnected.decide_equitable.
def reference_equitable(pattern: CoveringPattern, n_g: int, n_h: int,
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


# The split that ran one Kuhn search per matching, the last included,
# kept as the reference for semicover.matching.konig_split.
def reference_konig_split(n_left: int, n_right: int, links: list[tuple[int, int, int]],
                          k: int) -> list[list[tuple[int, int, int]]] | None:
    """Split a k-regular bipartite multigraph into k perfect matchings,
    or None when it is not k-regular."""
    from semicover.matching import kuhn_matching

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


@cache
def connected_multigraphs(max_darts: int) -> tuple[Graph, ...]:
    """All connected multigraphs with at most max_darts darts, one per
    isomorphism class.  Semi-edges, loops and parallel edges included.
    Cached, since several tests walk the same pool; hence a tuple."""
    from semicover.canon import CanonicalSet
    from semicover.graph import is_connected

    out: list[Graph] = []
    seen = CanonicalSet()
    for n in range(1, max_darts // 2 + 2):
        slots = ([("s", v) for v in range(n)]
                 + [("l", v) for v in range(n)]
                 + [("e", u, v) for u in range(n) for v in range(u + 1, n)])
        counts = [0] * len(slots)

        def emit() -> None:
            gb = GraphBuilder()
            for _ in range(n):
                gb.add_vertex()
            for slot, c in zip(slots, counts):
                for _ in range(c):
                    if slot[0] == "s":
                        gb.add_semi(slot[1])
                    elif slot[0] == "l":
                        gb.add_loop(slot[1])
                    else:
                        gb.add_edge(slot[1], slot[2])
            g = gb.build()
            if is_connected(g) and seen.add(g):
                out.append(g)

        def rec(i: int, budget: int) -> None:
            if i == len(slots):
                emit()
                return
            weight = 1 if slots[i][0] == "s" else 2
            c = 0
            while c * weight <= budget:
                counts[i] = c
                rec(i + 1, budget - c * weight)
                c += 1
            counts[i] = 0

        rec(0, max_darts)
    return tuple(out)


def assert_cover_ok(g: Graph, h: Graph, f, **kw) -> None:
    from semicover.cover import verify_cover
    bad = verify_cover(g, h, f, **kw)
    assert bad == [], f"witness violations: {bad}"


def recursive_search(g: Graph, h: Graph) -> DartMapping | None:
    """The exact search as a recursion per dart, kept as the reference that
    cover.find_cover must agree with: same first cover, or None for both.

    Components are anchored at their lowest vertex and candidate target
    darts are tried in increasing id.  It has no symmetry pruning, on
    purpose: find_cover skips interchangeable target links at each anchor,
    and must still find the cover this search finds first.  The recursion
    depth grows with the source, and interchangeable links multiply the
    work, so only use it on small inputs.
    """
    if h.n == 0:
        return DartMapping((), ()) if g.n == 0 else None
    if g.n == 0:
        # The empty mapping is locally bijective everywhere, vacuously.
        return DartMapping((), ())

    comps = components(g)
    for comp in comps:
        if len(comp.vertex_ids) % h.n != 0:
            return None
    h_sigs = {}
    for w in range(h.n):
        h_sigs.setdefault(type_signature(h, w), []).append(w)
    anchor_cands = []
    for u in range(g.n):
        anchor_cands.append(h_sigs.get(type_signature(g, u), []))
        if not anchor_cands[u]:
            return None

    fv = [-1] * g.n
    fd = [-1] * g.n_darts
    used = [0] * g.n
    pending: list[int] = []

    def assign_dart(d: int, e: int, trail: list) -> bool:
        u = g.vertex_of[d]
        bit = 1 << e
        if used[u] & bit or fd[d] != -1:
            return False
        if g.dart_color[d] != h.dart_color[e]:
            return False
        fd[d] = e
        used[u] |= bit
        trail.append((0, d, u, bit))
        l = g.link_of[d]
        cell = g.links[l]
        hl = h.link_of[e]
        hcell = h.links[hl]
        if len(cell) == 1:
            return len(hcell) == 1
        d2 = cell[1] if cell[0] == d else cell[0]
        if g.link_kind(l) == LOOP:
            if len(hcell) != 2 or h.vertex_of[hcell[0]] != h.vertex_of[hcell[1]]:
                return False
            e2 = hcell[1] if hcell[0] == e else hcell[0]
            if fd[d2] != -1:
                return fd[d2] == e2
            return assign_dart(d2, e2, trail)
        # ordinary edge: image link is a semi-edge, a loop, or an edge
        u2 = g.vertex_of[d2]
        if len(hcell) == 1:
            e2 = e
        else:
            e2 = hcell[1] if hcell[0] == e else hcell[0]
        w2 = h.vertex_of[e2]
        if fv[u2] == -1:
            if w2 not in anchor_cands[u2]:
                return False
            fv[u2] = w2
            trail.append((1, u2, 0, 0))
            pending.extend(g.darts_at[u2])
        elif fv[u2] != w2:
            return False
        if fd[d2] != -1:
            return fd[d2] == e2
        return assign_dart(d2, e2, trail)

    def undo(trail: list, plen: int) -> None:
        del pending[plen:]
        for tag, x, u, bit in reversed(trail):
            if tag == 0:
                fd[x] = -1
                used[u] ^= bit
            else:
                fv[x] = -1

    def solve(pi: int, ci: int) -> bool:
        while pi < len(pending) and fd[pending[pi]] != -1:
            pi += 1
        if pi < len(pending):
            d = pending[pi]
            w = fv[g.vertex_of[d]]
            for e in h.darts_at[w]:
                if g.dart_color[d] != h.dart_color[e]:
                    continue
                gk = g.link_kind(g.link_of[d])
                hk = h.link_kind(h.link_of[e])
                if gk == SEMI and hk != SEMI:
                    continue
                if gk == LOOP and hk != LOOP:
                    continue
                plen = len(pending)
                trail: list = []
                if assign_dart(d, e, trail) and solve(pi, ci):
                    return True     # keep the assignment: it is the cover
                undo(trail, plen)
            return False
        if ci == len(comps):
            return True
        a = comps[ci].vertex_ids[0]
        for w in anchor_cands[a]:
            plen = len(pending)
            fv[a] = w
            pending.extend(g.darts_at[a])
            if solve(pi, ci + 1):
                return True
            del pending[plen:]
            fv[a] = -1
        return False

    return DartMapping(tuple(fd), tuple(fv)) if solve(0, 0) else None


# The parser that made one GraphBuilder call per line and left the graph
# rules to the builder, kept as the reference for semicover.graph.parse_graph.
def reference_parse_graph(text: str) -> Graph:
    """Parse the line-based graph format through GraphBuilder."""
    b = GraphBuilder()
    ids: dict[str, int] = {}
    try:
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            kw, args = toks[0], toks[1:]
            if kw == "vertex":
                if not args or len(args) > 2:
                    raise ValueError("vertex takes an id and an optional color")
                if args[0] in ids:
                    raise ValueError(f"duplicate vertex {args[0]!r}")
                c = _colors(args[1], 1)[0] if len(args) == 2 else 0
                ids[args[0]] = b.add_vertex(c, args[0])
            elif kw == "edge":
                if len(args) not in (2, 3):
                    raise ValueError("edge takes two vertices and optional colors")
                b.add_edge(ids[args[0]], ids[args[1]],
                           _colors(args[2], 2) if len(args) == 3 else (0, 0))
            elif kw == "loop":
                if len(args) not in (1, 2):
                    raise ValueError("loop takes one vertex and optional colors")
                b.add_loop(ids[args[0]], _colors(args[1], 2) if len(args) == 2 else (0, 0))
            elif kw == "semi":
                if len(args) not in (1, 2):
                    raise ValueError("semi takes one vertex and an optional color")
                b.add_semi(ids[args[0]], _colors(args[1], 1)[0] if len(args) == 2 else 0)
            else:
                raise ValueError(f"unknown directive {kw!r}")
    except KeyError as e:  # ids[...] of an undeclared vertex
        raise GraphFormatError(ln, f"reference to undeclared vertex {e.args[0]!r}") from None
    except ValueError as e:
        raise GraphFormatError(ln, str(e)) from None
    return b.build()


# verify_cover as it was before its one pass over the darts: a loop per
# vertex over its darts' images, one per dart colour and one per link.
# Kept verbatim as the reference for semicover.cover.verify_cover.
def reference_verify_cover(g: Graph, h: Graph, f: DartMapping, *,
                           require_surjective: bool = False,
                           check_fibers: bool = False) -> list[CoverViolation]:
    """Check that f is a covering projection from g to h.

    Returns all violations found (empty list means f is a cover).  With
    require_surjective, every dart and vertex of h must be hit.  With
    check_fibers, the per-link preimage shapes are verified as well; they
    are implied by the local conditions, so this is a redundant self-check.
    """
    out: list[CoverViolation] = []
    dart_map, vertex_map = f.dart_map, f.vertex_map
    nd, n = h.n_darts, h.n
    if len(dart_map) != g.n_darts or len(vertex_map) != g.n:
        return [CoverViolation("shape", "mapping arity does not match the graphs")]
    for d, e in enumerate(dart_map):
        if not 0 <= e < nd:
            return [CoverViolation("shape", f"dart {d} maps outside the target ({e})")]
    for u, w in enumerate(vertex_map):
        if not 0 <= w < n:
            return [CoverViolation("shape", f"vertex {u} maps outside the target ({w})")]

    h_vertex_of, h_darts_at = h.vertex_of, h.darts_at
    g_vertex_color, h_vertex_color = g.vertex_color, h.vertex_color
    for u, darts in enumerate(g.darts_at):
        w = vertex_map[u]
        images = [dart_map[d] for d in darts]
        for d, e in zip(darts, images):
            if h_vertex_of[e] != w:
                out.append(CoverViolation(
                    "not-local-bijection",
                    f"dart {d} at vertex {u} maps to dart {e} away from image vertex {w}"))
        if len(set(images)) != len(images):
            out.append(CoverViolation(
                "not-local-bijection", f"dart images at vertex {u} repeat"))
        elif len(images) != (degree := len(h_darts_at[w])):
            out.append(CoverViolation(
                "not-local-bijection",
                f"vertex {u} has {len(images)} darts, image {w} has {degree}"))
        if g_vertex_color[u] != h_vertex_color[w]:
            out.append(CoverViolation(
                "vertex-color-mismatch", f"vertex {u} color differs from image {w}"))

    g_dart_color, h_dart_color = g.dart_color, h.dart_color
    for d, e in enumerate(dart_map):
        if g_dart_color[d] != h_dart_color[e]:
            out.append(CoverViolation("color-mismatch", f"dart {d} changes color"))

    # a target dart is on a semi-edge exactly when it is its own mate
    h_link_of, h_mate, link_kind = h.link_of, h.mate, g.link_kind
    for l, cell in enumerate(g.links):
        if len(cell) == 1:
            e = dart_map[cell[0]]
            if h_mate[e] != e:
                out.append(CoverViolation(
                    "link-broken", f"semi-edge {l} maps to a non-semi link"))
        else:
            a, b = dart_map[cell[0]], dart_map[cell[1]]
            if a == b:
                if h_mate[a] != a:
                    out.append(CoverViolation(
                        "link-broken", f"link {l} collapses onto a non-semi dart"))
                elif link_kind(l) == LOOP:
                    out.append(CoverViolation(
                        "link-broken", f"loop {l} collapses onto a semi-edge"))
            elif h_link_of[a] != h_link_of[b]:
                out.append(CoverViolation(
                    "link-broken", f"link {l} maps across two target links"))

    if require_surjective:
        if set(dart_map) != set(range(nd)):
            out.append(CoverViolation("not-surjective", "some target dart is not hit"))
        if set(vertex_map) != set(range(n)):
            out.append(CoverViolation("not-surjective", "some target vertex is not hit"))

    if check_fibers and not out:
        out.extend(_fiber_violations(g, h, f))
    return out


# The BFS 2-coloring that semicover.graph.is_bipartite ran before it went
# through graph._parity_solve, kept as its reference.
def reference_is_bipartite(g: Graph) -> bool:
    """2-colorability of the edge structure; any loop or semi-edge fails."""
    for l in range(g.n_links):
        if g.link_kind(l) != EDGE:
            return False
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for d in g.darts_at[u]:
                w = g.vertex_of[g.mate[d]]
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


# The dart 2-coloring that the F(2,0) branch of semicover.deciders._decide_f
# ran before it went through graph._parity_solve, kept as its reference.
def reference_f20_darts(g: Graph, semis: list[int]) -> dict[int, int] | None:
    """Map the darts of a 2-regular g onto the two semi darts of F(2,0) so
    that link mates agree and the two darts at a vertex differ, or None."""
    val: dict[int, int] = {}
    for start in range(g.n_darts):
        if start in val:
            continue
        val[start] = 0
        stack = [start]
        while stack:
            d = stack.pop()
            for x, want in ((g.mate[d], val[d]),
                            (sum(g.darts_at[g.vertex_of[d]]) - d, 1 - val[d])):
                if x not in val:
                    val[x] = want
                    stack.append(x)
                elif val[x] != want:
                    return None
    return {d: semis[v] for d, v in val.items()}


# semicover.generate._prefix_choices as it was written first, a recursion
# that cuts length tuples which cannot sum to take.  Kept as the reference
# whose lists, in order, the generator's choices must reproduce.
def reference_prefix_choices(groups: list[list[int]], take: int) -> list[list[int]]:
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


# semicover.generate._regular_connected_search as it was before it skipped
# states whose partial graph it had already expanded: the same breadth-first
# labelled search with twin-prefix pruning, deduplicated only at the leaves.
# Kept as the reference that the pruned search must match, order included.
def reference_regular_connected_search(n: int, d: int) -> list[list[int]]:
    """The neighbour bitmasks of the first leaf of each class of connected
    d-regular graphs on n vertices, in the order the search finds them."""
    from semicover.canon import _mask_certificate

    found: dict[tuple, list[int]] = {}
    adjm = [0] * n
    deg = [0] * n
    for w in range(1, d + 1):
        adjm[0] |= 1 << w
        adjm[w] |= 1
        deg[0] += 1
        deg[w] += 1

    def feasible(u: int, labeled: int) -> bool:
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
            for chosen in reference_prefix_choices(groups, need - t):
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
    return list(found.values())


# semicover.generate.connected_simple_graphs as it was before canonical
# augmentation: one attachment set per orbit of the parent's automorphisms,
# every candidate certified, the first candidate of each class kept.
# Kept as the reference whose classes the generator must reproduce.
def reference_connected_simple_graphs(n: int) -> list[list[int]]:
    """The neighbour bitmasks of one connected simple graph on n vertices
    per class, each the first candidate of its class."""
    from semicover.canon import _mask_certificate
    from semicover.generate import _orbit_firsts

    if n < 1:
        return []
    level: list[tuple[list[int], list[list[int]]]] = [([0], [])]
    for k in range(1, n):
        grown: dict[tuple, tuple] = {}
        for base, gens in level:
            for s in _orbit_firsts(k, gens, k):
                adj = [m | (s >> w & 1) << k for w, m in enumerate(base)] + [s]
                cert, auts, _ = _mask_certificate(adj)
                grown.setdefault(cert, (adj, auts))
        level = list(grown.values())
    return [adj for adj, _ in level]


def renamed(g: Graph, rng: random.Random, recolor: bool = True) -> Graph:
    """g with vertex names "a" and "b" at random, so that names repeat,
    and with recolor also random vertex colors 0-1."""
    colors = [rng.randrange(2) for _ in range(g.n)] if recolor else g.vertex_color
    return Graph(g.n, g.vertex_of, g.link_of, g.dart_color, colors,
                 [rng.choice("ab") for _ in range(g.n)])


def reference_components(g: Graph) -> list[Component]:
    """The components as they were built before graph._split: a BFS
    labelling, then one _subgraph call per component."""
    label = [-1] * g.n
    for start in range(g.n):
        if label[start] < 0:
            label[start] = start
            queue = [start]
            for u in queue:
                for d in g.darts_at[u]:
                    w = g.vertex_of[g.mate[d]]
                    if label[w] < 0:
                        label[w] = start
                        queue.append(w)
    out = []
    for r in sorted(set(label)):
        verts = [v for v in range(g.n) if label[v] == r]
        darts = [d for d in range(g.n_darts) if label[g.vertex_of[d]] == r]
        out.append(Component(_subgraph(g, verts, darts), tuple(verts), tuple(darts)))
    return out


def reference_refinements(g: Graph, path: list[int]) -> list[set[frozenset[int]]]:
    """The stable partitions of colour refinement on connected g, as sets
    of cells: at the root, then after individualising each vertex of path
    in turn.  The root partition puts two vertices together when they
    have equal self keys (colour, sorted semi-edge colours, sorted loop
    colour pairs), dart counts and sorted BFS distances to all vertices.
    A round splits each cell by the Counter of (label, cell) over a
    vertex's distinct neighbours, where a neighbour's label is the sorted
    dart-colour pairs of the parallel edges to it, until no cell splits."""
    n, vo, dc = g.n, g.vertex_of, g.dart_color
    bundles: list[dict[int, list]] = [{} for _ in range(n)]
    semis: list[list[int]] = [[] for _ in range(n)]
    loops: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ds in g.links:
        u = vo[ds[0]]
        if len(ds) == 1:
            semis[u].append(dc[ds[0]])
        elif u == vo[ds[1]]:
            loops[u].append(tuple(sorted((dc[ds[0]], dc[ds[1]]))))
        else:
            for a, b in (ds, ds[::-1]):
                bundles[vo[a]].setdefault(vo[b], []).append((dc[a], dc[b]))
    labelled = [[(w, tuple(sorted(ps))) for w, ps in row.items()] for row in bundles]

    def distances(v: int) -> tuple:
        dist = {v: 0}
        queue = [v]
        for u in queue:
            for w, _ in labelled[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return tuple(sorted(dist.values()))

    def refined(colour: list) -> list[int]:
        while True:
            sigs = [(colour[v], frozenset(Counter((lab, colour[w]) for w, lab in row).items()))
                    for v, row in enumerate(labelled)]
            ids: dict = {}
            new = [ids.setdefault(sig, len(ids)) for sig in sigs]
            if len(ids) == len(set(colour)):
                return new
            colour = new

    def cells(colour: list[int]) -> set[frozenset[int]]:
        return {frozenset(v for v in range(n) if colour[v] == c) for c in set(colour)}

    colour = refined([(g.vertex_color[v], tuple(sorted(semis[v])), tuple(sorted(loops[v])),
                       len(g.darts_at[v]), distances(v)) for v in range(n)])
    out = [cells(colour)]
    for v in path:
        colour = refined([(colour[u], u == v) for u in range(n)])
        out.append(cells(colour))
    return out


def arrays(g: Graph) -> tuple:
    """All a decider reads of a graph: everything but the names."""
    return g.n, g.vertex_of, g.link_of, g.dart_color, g.vertex_color


def reference_build_pattern(g: Graph, h: Graph, *, budget: int | None = None):
    """build_pattern as it was before graph._split: a Graph per component
    (reference_components), classes keyed by arrays, and one
    decide_colored call per (source class, target class), a
    ResourceLimit naming the component pair it was raised at."""
    from semicover.dichotomy import decide_colored
    from semicover.disconnected import CoveringPattern
    comps_g, comps_h = reference_components(g), reference_components(h)
    pattern = CoveringPattern(tuple(c.graph.n for c in comps_g),
                              tuple(c.graph.n for c in comps_h))
    classes: dict[tuple, int] = {}
    class_g = [classes.setdefault(arrays(c.graph), len(classes)) for c in comps_g]
    class_h = [classes.setdefault(arrays(c.graph), len(classes)) for c in comps_h]
    decided: dict[tuple[int, int], DartMapping | None] = {}
    for i, cg in enumerate(comps_g):
        for j, ch in enumerate(comps_h):
            if cg.graph.n % ch.graph.n == 0:
                pair = class_g[i], class_h[j]
                if pair not in decided:
                    try:
                        decided[pair] = decide_colored(cg.graph, ch.graph,
                                                       budget=budget).witness
                    except ResourceLimit as e:
                        raise ResourceLimit(f"component pair ({i},{j}): {e}") from e
                if decided[pair] is not None:
                    pattern.edges[(i, j)] = cg.graph.n // ch.graph.n
                    pattern.witnesses[(i, j)] = decided[pair]
    return pattern, comps_g, comps_h


def _counted(run, wraps):
    """run(), with owner.name replaced by wrap(owner.name) for each
    (owner, name, wrap) in wraps, in owner and in every semicover module
    that binds the same function, and restored afterwards."""
    swaps = []
    for owner, name, wrap in wraps:
        fn = getattr(owner, name)
        swaps += [(m, name, fn, wrap(fn)) for m in [owner] + [
            m for m in list(sys.modules.values()) if m is not owner
            and getattr(m, "__name__", "").startswith("semicover") and getattr(m, name, None) is fn]]
    for m, name, _, counted in swaps:
        setattr(m, name, counted)
    try:
        return run()
    finally:
        for m, name, fn, _ in swaps:
            setattr(m, name, fn)


def _calls(counts: dict[str, int], key: str, weigh=None):
    """A wrap that adds weigh(*args) (1 without weigh) to counts[key] per call."""
    def wrap(fn):
        def counted(*args, **kw):
            counts[key] += 1 if weigh is None else weigh(*args, **kw)
            return fn(*args, **kw)
        return counted
    return wrap


def _items(counts: dict[str, int], key: str):
    """A wrap that adds the number of items a call returns or yields to
    counts[key], and returns them as a list."""
    def wrap(fn):
        def counted(*args):
            out = list(fn(*args))
            counts[key] += len(out)
            return out
        return counted
    return wrap


def decide_work(g: Graph, h: Graph, semantics: str = "lbhom", **kwargs) -> dict[str, int]:
    """Run decide(g, h, semantics) and count its work: Graph
    constructions, plan parts built (graph._planned calls that find the
    part missing), graph._split passes, build_pattern's decide_colored
    calls, those of them whose source is all of g ("whole_source"), and
    verify_cover calls, the stitched check included."""
    from semicover import cover, disconnected, graph
    counts = dict.fromkeys(("graphs", "plans", "splits", "decide_colored", "whole_source",
                            "verify_cover"), 0)
    _counted(lambda: disconnected.decide(g, h, semantics, **kwargs), [
        (Graph, "__init__", _calls(counts, "graphs")),
        (graph, "_planned", _calls(counts, "plans", lambda target, build: (
            target._plan is None or build not in target._plan))),
        (graph, "_split", _calls(counts, "splits")),
        (disconnected, "decide_colored", lambda fn: _calls(counts, "decide_colored")(
            _calls(counts, "whole_source", lambda source, *_, **__: source is g)(fn))),
        (cover, "verify_cover", _calls(counts, "verify_cover"))])
    return counts


def generation_work(run) -> dict[str, int]:
    """Call run(), a generator call, and count its work: certificates,
    first leaves and directed searches (canon._mask_certificate,
    _first_leaf, _reaches), roots (canon._mask_state calls, those inside
    _mask_certificate included), canon._refine calls, Graph constructions,
    attachment sets (generate._orbit_firsts items), twin-prefix choices
    (generate._prefix_choices items) and the classes run returns."""
    from semicover import canon, generate
    counts = dict.fromkeys(("certificates", "first_leaves", "directed_searches", "roots",
                            "refinements", "graphs", "attachment_sets", "twin_prefix_choices"), 0)
    counts["classes"] = len(_counted(run, [
        (canon, "_mask_certificate", _calls(counts, "certificates")),
        (canon, "_first_leaf", _calls(counts, "first_leaves")),
        (canon, "_reaches", _calls(counts, "directed_searches")),
        (canon, "_mask_state", _calls(counts, "roots")),
        (canon, "_refine", _calls(counts, "refinements")),
        (Graph, "__init__", _calls(counts, "graphs")),
        (generate, "_orbit_firsts", _items(counts, "attachment_sets")),
        (generate, "_prefix_choices", _items(counts, "twin_prefix_choices"))]))
    return counts
