"""Shared test helpers: random instances and independent brute-force oracles.

The oracles here deliberately avoid the library's search and matching
code so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import permutations, product

from semicover.cover import CoverViolation, DartMapping
from semicover.graph import (EDGE, LOOP, SEMI, Graph, GraphBuilder, GraphFormatError,
                             _colors, components, type_signature)


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


# verify_cover as it read every property and array through g, h and f in
# its loops, kept as the reference for semicover.cover.verify_cover.
def reference_verify_cover(g: Graph, h: Graph, f: DartMapping, *,
                           require_surjective: bool = False,
                           check_fibers: bool = False) -> list[CoverViolation]:
    """All violations of f as a covering projection from g to h."""
    from semicover.cover import _fiber_violations

    out: list[CoverViolation] = []
    if len(f.dart_map) != g.n_darts or len(f.vertex_map) != g.n:
        return [CoverViolation("shape", "mapping arity does not match the graphs")]
    for d, e in enumerate(f.dart_map):
        if not 0 <= e < h.n_darts:
            return [CoverViolation("shape", f"dart {d} maps outside the target ({e})")]
    for u, w in enumerate(f.vertex_map):
        if not 0 <= w < h.n:
            return [CoverViolation("shape", f"vertex {u} maps outside the target ({w})")]

    for u in range(g.n):
        w = f.vertex_map[u]
        images = [f.dart_map[d] for d in g.darts_at[u]]
        for d, e in zip(g.darts_at[u], images):
            if h.vertex_of[e] != w:
                out.append(CoverViolation(
                    "not-local-bijection",
                    f"dart {d} at vertex {u} maps to dart {e} away from image vertex {w}"))
        if len(set(images)) != len(images):
            out.append(CoverViolation(
                "not-local-bijection", f"dart images at vertex {u} repeat"))
        elif len(images) != h.degree(w):
            out.append(CoverViolation(
                "not-local-bijection",
                f"vertex {u} has {len(images)} darts, image {w} has {h.degree(w)}"))
        if g.vertex_color[u] != h.vertex_color[w]:
            out.append(CoverViolation(
                "vertex-color-mismatch", f"vertex {u} color differs from image {w}"))

    for d in range(g.n_darts):
        if g.dart_color[d] != h.dart_color[f.dart_map[d]]:
            out.append(CoverViolation("color-mismatch", f"dart {d} changes color"))

    for l in range(g.n_links):
        cell = g.links[l]
        imgs = [f.dart_map[d] for d in cell]
        if len(cell) == 1:
            if len(h.links[h.link_of[imgs[0]]]) != 1:
                out.append(CoverViolation(
                    "link-broken", f"semi-edge {l} maps to a non-semi link"))
        else:
            a, b = imgs
            if a == b:
                if len(h.links[h.link_of[a]]) != 1:
                    out.append(CoverViolation(
                        "link-broken", f"link {l} collapses onto a non-semi dart"))
                elif g.link_kind(l) == LOOP:
                    out.append(CoverViolation(
                        "link-broken", f"loop {l} collapses onto a semi-edge"))
            elif h.link_of[a] != h.link_of[b]:
                out.append(CoverViolation(
                    "link-broken", f"link {l} maps across two target links"))

    if require_surjective:
        if set(f.dart_map) != set(range(h.n_darts)):
            out.append(CoverViolation("not-surjective", "some target dart is not hit"))
        if set(f.vertex_map) != set(range(h.n)):
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
