"""Covering projections between dart multigraphs.

A covering projection maps darts to darts so that the restriction to each
vertex is a bijection onto the image vertex's darts and every link maps
onto a link.  Consequences used here: a semi-edge of the source maps to a
semi-edge, a loop maps to a loop, and an ordinary edge maps to an edge, a
loop, or collapses onto a semi-edge (both darts to the same image dart).
Colors, when present, must be preserved on darts and on vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import EDGE, LOOP, SEMI, Graph, components, type_signature


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


def witness_json(g: Graph, h: Graph, f: DartMapping) -> dict:
    """The witness as JSON, with the number of source vertices over each
    target vertex."""
    fibers = [0] * h.n
    for w in f.vertex_map:
        fibers[w] += 1
    return {
        "vertex_map": list(f.vertex_map),
        "dart_map": list(f.dart_map),
        "fiber_sizes": {h.names[w]: c for w, c in enumerate(fibers)},
    }


def _search(g: Graph, h: Graph, max_count: int | None) -> list[DartMapping]:
    """Backtracking search for covering projections onto a connected target.

    Deterministic: components are anchored at their lowest vertex and
    candidate target darts are tried in increasing id, so the first cover
    found (and the enumeration order) is reproducible.
    """
    if h.n == 0:
        return [DartMapping((), ())] if g.n == 0 else []
    if g.n == 0:
        # The empty mapping is locally bijective everywhere, vacuously.
        return [DartMapping((), ())]

    comps = components(g)
    for comp in comps:
        if len(comp.vertex_ids) % h.n != 0:
            return []
    h_sigs = {}
    for w in range(h.n):
        h_sigs.setdefault(type_signature(h, w), []).append(w)
    anchor_cands = []
    for u in range(g.n):
        anchor_cands.append(h_sigs.get(type_signature(g, u), []))
        if not anchor_cands[u]:
            return []

    fv = [-1] * g.n
    fd = [-1] * g.n_darts
    used = [0] * g.n
    pending: list[int] = []
    results: list[DartMapping] = []

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
                if assign_dart(d, e, trail):
                    if solve(pi, ci):
                        undo(trail, plen)
                        return True
                undo(trail, plen)
            return False
        if ci == len(comps):
            results.append(DartMapping(tuple(fd), tuple(fv)))
            return max_count is not None and len(results) >= max_count
        a = comps[ci].vertex_ids[0]
        for w in anchor_cands[a]:
            plen = len(pending)
            fv[a] = w
            pending.extend(g.darts_at[a])
            stop = solve(pi, ci + 1)
            del pending[plen:]
            fv[a] = -1
            if stop:
                return True
        return False

    solve(0, 0)
    return results


def find_cover(g: Graph, h: Graph, *, budget: int | None = None) -> DartMapping | None:
    """First covering projection from g onto the connected target h, if any.

    The optional budget bounds the dart count of g; exceeding it raises
    ResourceLimit rather than starting a search that may not finish.
    """
    if h.n > 0 and len(components(h)) != 1:
        raise ValueError("target must be connected")
    if budget is not None and g.n_darts > budget:
        raise ResourceLimit(f"{g.n_darts} darts exceeds the search budget {budget}")
    found = _search(g, h, 1)
    return found[0] if found else None


def enumerate_covers(g: Graph, h: Graph, limit: int | None = None) -> list[DartMapping]:
    """All covering projections from g onto connected h, in search order."""
    if h.n > 0 and len(components(h)) != 1:
        raise ValueError("target must be connected")
    return _search(g, h, limit)
