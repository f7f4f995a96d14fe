"""Covering projections between dart multigraphs.

A covering projection maps darts to darts so that the restriction to each
vertex is a bijection onto the image vertex's darts and every link maps
onto a link.  Consequences used here: a semi-edge of the source maps to a
semi-edge, a loop maps to a loop, and an ordinary edge maps to an edge, a
loop, or collapses onto a semi-edge (both darts to the same image dart).
Colors, when present, must be preserved on darts and on vertices.
find_cover returns the first cover of a deterministic backtracking search,
one flat loop over an explicit stack of choice points whose options come
from a table kept in the target's plan, so no source is too deep for it;
dichotomy.decide_colored calls it for every target without a polynomial
decider.  At each component's anchor it skips a target link that swapping
parallel links, or reversing a loop, maps onto one tried without a cover.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import (EDGE, LOOP, SEMI, Graph, _component_labels, _planned, _signatures,
                    _type_weights, is_connected)


class ResourceLimit(RuntimeError):
    """Raised when an exact search would exceed its configured budget."""


class OutOfScope(ValueError):
    """The target is outside the classified domain."""


@dataclass(frozen=True)
class DartMapping:
    """A total dart map together with the induced vertex map.

    The vertex map is determined by the dart map on every vertex that has
    darts; it is carried explicitly so isolated vertices have an image too.
    """
    dart_map: tuple[int, ...]
    vertex_map: tuple[int, ...]


@dataclass(frozen=True)
class CoverViolation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def verify_cover(g: Graph, h: Graph, f: DartMapping, *,
                 require_surjective: bool = False,
                 check_fibers: bool = False) -> list[CoverViolation]:
    """Check that f is a covering projection from g to h.

    Returns all violations found (empty list means f is a cover).  With
    require_surjective, every dart and vertex of h must be hit.  With
    check_fibers, the per-link preimage shapes are verified as well; they
    are implied by the local conditions, so this is a redundant self-check.

    One pass over the darts checks each dart's image vertex, colour and
    mate, and one over the vertices each vertex's degree and colour; one
    set of (vertex, image) keys finds the vertices whose dart images
    repeat.  A dart's mate must map onto its image's mate, which a link
    collapsed onto a semi-edge meets too, unless the link is a loop.  The
    violations are reported per vertex (darts away from the image vertex,
    repeats or degree, colour), then per dart colour, then per link.
    """
    dart_map, vertex_map = f.dart_map, f.vertex_map
    nd, n = h.n_darts, h.n
    if len(dart_map) != g.n_darts or len(vertex_map) != g.n:
        return [CoverViolation("shape", "mapping arity does not match the graphs")]
    for kind, seq, top in (("dart", dart_map, nd), ("vertex", vertex_map, n)):
        if seq and not (0 <= min(seq) and max(seq) < top):
            i = next(i for i, x in enumerate(seq) if not 0 <= x < top)
            return [CoverViolation("shape", f"{kind} {i} maps outside the target ({seq[i]})")]

    # (place, violation), place ordering the report: (u, 0, d), (u, 1) and
    # (u, 2) at vertex u, (g.n, d) for dart colours and (g.n + 1, l) for links
    found: list[tuple[tuple[int, ...], CoverViolation]] = []
    g_vertex_of, g_mate, g_dart_color = g.vertex_of, g.mate, g.dart_color
    h_vertex_of, h_mate, h_dart_color = h.vertex_of, h.mate, h.dart_color
    for d, e in enumerate(dart_map):
        u = g_vertex_of[d]
        if h_vertex_of[e] != vertex_map[u]:
            found.append(((u, 0, d), CoverViolation(
                "not-local-bijection", f"dart {d} at vertex {u} maps to dart {e} "
                f"away from image vertex {vertex_map[u]}")))
        if g_dart_color[d] != h_dart_color[e]:
            found.append(((g.n, d), CoverViolation("color-mismatch", f"dart {d} changes color")))
        m = g_mate[d]
        b = dart_map[m]
        if h_mate[e] != b and d <= m:
            l = g.link_of[d]
            found.append(((g.n + 1, l), CoverViolation("link-broken",
                f"semi-edge {l} maps to a non-semi link" if d == m else
                f"link {l} collapses onto a non-semi dart" if e == b else
                f"link {l} maps across two target links")))
        elif e == b and d < m and g_vertex_of[m] == u:
            l = g.link_of[d]
            found.append(((g.n + 1, l), CoverViolation(
                "link-broken", f"loop {l} collapses onto a semi-edge")))

    repeated = set() if len(set(zip(g_vertex_of, dart_map))) == len(dart_map) else {
        u for (u, _), c in Counter(zip(g_vertex_of, dart_map)).items() if c > 1}
    g_vertex_color, h_vertex_color, h_darts_at = g.vertex_color, h.vertex_color, h.darts_at
    for u, (w, darts) in enumerate(zip(vertex_map, g.darts_at)):
        if u in repeated:
            found.append(((u, 1), CoverViolation(
                "not-local-bijection", f"dart images at vertex {u} repeat")))
        elif len(darts) != (degree := len(h_darts_at[w])):
            found.append(((u, 1), CoverViolation(
                "not-local-bijection",
                f"vertex {u} has {len(darts)} darts, image {w} has {degree}")))
        if g_vertex_color[u] != h_vertex_color[w]:
            found.append(((u, 2), CoverViolation(
                "vertex-color-mismatch", f"vertex {u} color differs from image {w}")))

    out = [v for _, v in sorted(found, key=lambda x: x[0])]
    if require_surjective:
        if len(set(dart_map)) != nd:
            out.append(CoverViolation("not-surjective", "some target dart is not hit"))
        if len(set(vertex_map)) != n:
            out.append(CoverViolation("not-surjective", "some target vertex is not hit"))

    if check_fibers and not out:
        out.extend(_fiber_violations(g, h, f))
    return out


def _fiber_violations(g: Graph, h: Graph, f: DartMapping) -> list[CoverViolation]:
    """Per-link preimage shapes: matchings over edges, cycles over loops,
    semi-and-edge unions over semi-edges, each spanning the vertex fibers."""
    out = []
    fibers: dict[int, list[int]] = {w: [] for w in range(h.n)}
    for u, w in enumerate(f.vertex_map):
        fibers[w].append(u)
    pre: dict[int, list[int]] = {hl: [] for hl in range(h.n_links)}
    for l in range(g.n_links):
        pre[h.link_of[f.dart_map[g.links[l][0]]]].append(l)
    for hl, ls in pre.items():
        kind = h.link_kind(hl)
        cover_count: dict[int, int] = {}
        for l in ls:
            for v in g.link_ends(l):
                cover_count[v] = cover_count.get(v, 0) + 1
        if kind == EDGE:
            want = set(fibers[h.link_ends(hl)[0]]) | set(fibers[h.link_ends(hl)[1]])
            if any(g.link_kind(l) != EDGE for l in ls) or \
               any(cover_count.get(v, 0) != 1 for v in want) or set(cover_count) != want:
                out.append(CoverViolation("fiber", f"edge {hl} preimage is not a spanning matching"))
        elif kind == LOOP:
            want = set(fibers[h.link_ends(hl)[0]])
            if any(g.link_kind(l) == SEMI for l in ls) or \
               any(cover_count.get(v, 0) != 2 for v in want) or set(cover_count) != want:
                out.append(CoverViolation("fiber", f"loop {hl} preimage is not a union of cycles"))
        else:
            want = set(fibers[h.link_ends(hl)[0]])
            if any(g.link_kind(l) == LOOP for l in ls) or \
               any(cover_count.get(v, 0) != 1 for v in want) or set(cover_count) != want:
                out.append(CoverViolation("fiber", f"semi-edge {hl} preimage is not semis plus a matching"))
    return out


def _fiber_sizes(h: Graph, f: DartMapping) -> dict[str, int]:
    """The number of source vertices over each target vertex name, in name
    order of first appearance; vertices that share a name are summed."""
    fibers = dict.fromkeys(h.names, 0)
    for w in f.vertex_map:
        fibers[h.names[w]] += 1
    return fibers


def witness_json(g: Graph, h: Graph, f: DartMapping) -> dict:
    """The witness as JSON, with its fiber sizes by target vertex name."""
    return {
        "vertex_map": list(f.vertex_map),
        "dart_map": list(f.dart_map),
        "fiber_sizes": _fiber_sizes(h, f),
    }


def _check_budget(g: Graph, budget: int | None) -> None:
    """Raise ResourceLimit before a search on more darts than budget."""
    if budget is not None and g.n_darts > budget:
        raise ResourceLimit(f"{g.n_darts} darts exceeds the search budget {budget}")


def _search_plan(h: Graph) -> tuple:
    """What find_cover takes from the target h alone, for _planned: the
    type weights and the vertices of each signature code, the option table,
    the twin and bits arrays, and the semi-edge count of each dart colour.
    A row that is empty at every target vertex is None.  A disconnected h
    raises OutOfScope, and as nothing is kept, so does every later use."""
    if not is_connected(h):
        raise OutOfScope("disconnected target")
    weights = _type_weights(h)
    sigs: dict = {}
    for w, key in enumerate(_signatures(h, weights)):
        sigs.setdefault(key, []).append(w)
    kinds = [h._kinds[l] for l in h.link_of]
    table = {(c, k): [[e for e in h.darts_at[w] if h.dart_color[e] == c and k in (EDGE, kinds[e])]
                      for w in range(h.n)]
             for c in set(h.dart_color) for k in (SEMI, LOOP, EDGE)}
    table = {key: rows if any(rows) else None for key, rows in table.items()}
    # twin[e]: the next lower dart at e's vertex with the same colours, mate vertex
    # and link kind (a semi-edge is its own mate); bits[e]: e's link, whose mate at
    # another vertex never shows in used
    twin = [-1] * h.n_darts
    last: dict[tuple, int] = {}
    for e, m in enumerate(h.mate):
        key = (h.vertex_of[e], h.vertex_of[m], h.dart_color[e], h.dart_color[m], e == m)
        twin[e] = last.get(key, -1)
        last[key] = e
    bits = [1 << e | 1 << m for e, m in enumerate(h.mate)]
    semis = Counter(h.dart_color[e] for e, m in enumerate(h.mate) if e == m)
    return weights, sigs, table, twin, bits, semis


def find_cover(g: Graph, h: Graph, *, budget: int | None = None) -> DartMapping | None:
    """First covering projection from g onto the connected target h, if any.

    The optional budget bounds the dart count of g; exceeding it raises
    ResourceLimit rather than starting a search that may not finish.  A
    disconnected h raises OutOfScope from _search_plan.

    What depends on h alone is built once and kept in h's plan
    (_search_plan).  Before any search, each component of g needs fibres
    of one size m = |component| / h.n, and per dart colour c its S_c
    semi-edges and h's B_c need S_c = B_c * m (mod 2), and S_c >= B_c for
    odd m: a target semi-edge takes one dart of each of the m vertices over
    its vertex, from semi-edges or from edges collapsed in pairs.  And every
    dart needs an option: a source loop onto a target with no loop of its
    colour, or a semi-edge onto one with no such semi-edge, is a no.

    The search is one loop over an explicit stack of choice points, so the
    depth of the source costs heap, not Python stack.  A choice point picks
    the image of one source dart from a row of the plan's option table:
    per (dart colour, link kind), the darts of each target vertex in
    increasing id that it may land on (a semi-edge or loop only on its own
    kind, an edge on any link).  Choosing a dart e for d also maps d's mate
    onto e's mate, so an edge onto a semi-edge collapses, and fixes the
    image of every vertex reached for the first time.  The trail holds d
    for a mapped dart and ~u for a vertex image, so backtracking can undo
    each.  A choice point reads its frame once and tries its options in
    one inner loop: each try undoes the trail to the frame's mark, then
    skips a taken dart with one bit test.  A point out of options is
    popped without undoing, since the next try of a shallower point
    undoes down to its own mark; an empty stack means no cover.  A
    component is anchored at its lowest vertex, whose first dart takes
    the rows of the candidate vertices in order.  Components share
    nothing, so a finished one is final and a component that has no cover
    ends the search.  The order is deterministic, so the cover found is
    reproducible.

    At the anchor a target dart is dropped when it has a lower twin (a
    parallel link, or the loop reversed, with the same colours) and neither
    link is touched yet: the anchor's darts come first, so the links touched
    are those of its images, and swapping the two links is an automorphism
    of h that fixes the map so far and carries the dart's subtree onto the
    twin's, tried first without a cover.  Only subtrees without a cover
    go, so the cover found does not move.
    """
    weights, sigs, table, twin, bits, h_semis = _planned(h, _search_plan)
    _check_budget(g, budget)
    if h.n == 0:
        return DartMapping((), ()) if g.n == 0 else None
    labels = _component_labels(g)
    sizes = Counter(labels)
    if any(size % h.n for size in sizes.values()):
        return None
    vertex_of, mate, color, darts_at = g.vertex_of, g.mate, g.dart_color, g.darts_at
    semis = Counter((labels[vertex_of[d]], color[d]) for d, m in enumerate(mate) if d == m)
    for label, c in {*semis, *((label, c) for label in sizes for c in h_semis)}:
        s, b, m = semis[label, c], h_semis[c], sizes[label] // h.n
        if (s - b * m) % 2 or m % 2 and s < b:
            return None
    cands = list(map(sigs.get, _signatures(g, weights)))
    if None in cands:
        return None
    # every dart colour of g is one of h's, since its vertex has a target's signature
    opts = [table[c, g._kinds[l]] for c, l in zip(color, g.link_of)]
    if None in opts:        # a dart that no target dart can take
        return None
    h_vertex_of, h_mate, h_color = h.vertex_of, h.mate, h.dart_color

    fv = [-1] * g.n
    fd = [-1] * g.n_darts
    used = [0] * g.n            # bitmask of the target darts taken at each vertex
    trail: list[int] = []       # d for a mapped dart, ~u for a vertex image
    pending: list[int] = []     # darts of the reached vertices, in reaching order
    stack: list[tuple] = []     # (dart, untried options, trail len, pending len, pi)
    anchor = pi = 0
    while True:
        while pi < len(pending) and fd[pending[pi]] != -1:
            pi += 1
        if pi < len(pending):
            d = pending[pi]
            u = vertex_of[d]
            options = opts[d][fv[u]]
            if u == anchor:     # drop a twin of a tried dart whose two links are untouched
                taken = used[u]
                options = [e for e in options
                           if twin[e] < 0 or taken & (bits[e] | bits[twin[e]])]
        else:
            while anchor < g.n and fv[anchor] != -1:
                anchor += 1
            if anchor == g.n:
                return DartMapping(tuple(fd), tuple(fv))
            stack.clear()       # the finished components share nothing with the rest
            if not darts_at[anchor]:
                fv[anchor] = cands[anchor][0]
                continue
            d = darts_at[anchor][0]
            options = [e for w in cands[anchor] for e in opts[d][w] if twin[e] < 0]
        stack.append((d, iter(options), len(trail), len(pending), pi))
        while stack:
            d0, untried, t, p, pi = stack[-1]
            u0 = vertex_of[d0]
            for e in untried:
                while len(trail) > t:
                    x = trail.pop()
                    if x < 0:
                        fv[~x] = -1
                    else:
                        used[vertex_of[x]] ^= 1 << fd[x]
                        fd[x] = -1
                del pending[p:]
                # e is in d0's row, so only the anchor's vertex is new and
                # only a taken e can clash; d0's mate is checked in full
                if used[u0] >> e & 1:
                    continue
                if fv[u0] == -1:
                    fv[u0] = h_vertex_of[e]
                    trail.append(~u0)
                    pending.extend(darts_at[u0])
                fd[d0] = e
                used[u0] |= 1 << e
                trail.append(d0)
                d = mate[d0]
                if fd[d] != -1:     # a semi-edge
                    break
                e = h_mate[e]
                u, w = vertex_of[d], h_vertex_of[e]
                if fv[u] == -1 and w in cands[u]:
                    fv[u] = w
                    trail.append(~u)
                    pending.extend(darts_at[u])
                if fv[u] != w or used[u] >> e & 1 or color[d] != h_color[e]:
                    continue
                fd[d] = e
                used[u] |= 1 << e
                trail.append(d)
                break
            else:       # out of options: the next try of a shallower frame undoes
                stack.pop()
                continue
            break
        else:
            return None
