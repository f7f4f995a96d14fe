"""Covering projections between dart multigraphs.

A covering projection maps darts to darts so that the restriction to each
vertex is a bijection onto the image vertex's darts and every link maps
onto a link.  Consequences used here: a semi-edge of the source maps to a
semi-edge, a loop maps to a loop, and an ordinary edge maps to an edge, a
loop, or collapses onto a semi-edge (both darts to the same image dart).
Colors, when present, must be preserved on darts and on vertices.
find_cover returns the first cover of a deterministic backtracking search,
one loop over an explicit stack of choice points whose options come from a
table built once per call, so no source is too deep for it;
dichotomy.decide_colored calls it for every target without a polynomial
decider.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import (EDGE, LOOP, SEMI, Graph, _component_labels, is_connected,
                    type_signature)


class ResourceLimit(RuntimeError):
    """Raised when an exact search would exceed its configured budget."""


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


def find_cover(g: Graph, h: Graph, *, budget: int | None = None) -> DartMapping | None:
    """First covering projection from g onto the connected target h, if any.

    The optional budget bounds the dart count of g; exceeding it raises
    ResourceLimit rather than starting a search that may not finish.

    The search is one loop over an explicit stack of choice points, so the
    depth of the source costs heap, not Python stack.  A choice point picks
    the image of one source dart from a row of an option table built once:
    per (dart colour, link kind), the darts of each target vertex in
    increasing id that it may land on (a semi-edge or loop only on its own
    kind, an edge on any link).  Choosing a dart e for d also maps d's mate
    onto e's mate, so an edge onto a semi-edge collapses, and fixes the
    image of every vertex reached for the first time; the trail records
    each of these so backtracking can undo them.  A component is anchored
    at its lowest vertex, whose first dart takes the rows of the candidate
    vertices in order.  Components share nothing, so a finished one is
    final and a component that has no cover ends the search.  The order is
    deterministic, so the cover found is reproducible.
    """
    if not is_connected(h):
        raise ValueError("target must be connected")
    _check_budget(g, budget)
    if h.n == 0:
        return DartMapping((), ()) if g.n == 0 else None
    if any(size % h.n for size in Counter(_component_labels(g)).values()):
        return None
    h_sigs: dict = {}
    for w in range(h.n):
        h_sigs.setdefault(type_signature(h, w), []).append(w)
    cands = [h_sigs.get(type_signature(g, u)) for u in range(g.n)]
    if None in cands:
        return None
    kinds = {(g.dart_color[d], g.link_kind(g.link_of[d])) for d in range(g.n_darts)}
    table = {(c, k): [[e for e in h.darts_at[w] if h.dart_color[e] == c
                       and k in (EDGE, h.link_kind(h.link_of[e]))] for w in range(h.n)]
             for c, k in kinds}
    opts = [table[g.dart_color[d], g.link_kind(g.link_of[d])] for d in range(g.n_darts)]

    fv = [-1] * g.n
    fd = [-1] * g.n_darts
    used = [0] * g.n            # bitmask of the target darts taken at each vertex
    trail: list[tuple[int, int, int]] = []  # (vertex, dart or -1, target dart or vertex)
    pending: list[int] = []     # darts of the reached vertices, in reaching order

    def assign(d: int, e: int) -> bool:
        u, w = g.vertex_of[d], h.vertex_of[e]
        if fv[u] == -1 and w in cands[u]:
            fv[u] = w
            trail.append((u, -1, w))
            pending.extend(g.darts_at[u])
        if fv[u] != w or used[u] >> e & 1 or g.dart_color[d] != h.dart_color[e]:
            return False
        fd[d] = e
        used[u] |= 1 << e
        trail.append((u, d, e))
        d2 = g.mate[d]
        if fd[d2] != -1:
            return True         # a semi-edge, or the mate that called us
        return assign(d2, h.mate[e])

    stack: list[tuple] = []     # (dart, untried options, trail len, pending len, pi)
    anchor = pi = 0
    while True:
        while pi < len(pending) and fd[pending[pi]] != -1:
            pi += 1
        if pi < len(pending):
            d = pending[pi]
            options = opts[d][fv[g.vertex_of[d]]]
        else:
            while anchor < g.n and fv[anchor] != -1:
                anchor += 1
            if anchor == g.n:
                return DartMapping(tuple(fd), tuple(fv))
            stack.clear()       # the finished components share nothing with the rest
            if not g.darts_at[anchor]:
                fv[anchor] = cands[anchor][0]
                continue
            d = g.darts_at[anchor][0]
            options = [e for w in cands[anchor] for e in opts[d][w]]
        stack.append((d, iter(options), len(trail), len(pending), pi))
        while stack:
            d, untried, t, p, pi = stack[-1]
            while len(trail) > t:
                u, x, e = trail.pop()
                if x == -1:
                    fv[u] = -1
                else:
                    fd[x] = -1
                    used[u] ^= 1 << e
            del pending[p:]
            e = next(untried, -1)
            if e == -1:
                stack.pop()
            elif assign(d, e):
                break
        else:
            return None

