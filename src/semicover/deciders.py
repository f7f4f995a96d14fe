"""Polynomial-time deciders for covers onto small target families.

Each decider answers "does g cover the target" for a family where the
question reduces to matchings, factorizations, or 2-SAT, and produces a
dart-level witness on yes.  Targets outside the implemented polynomial
families raise UnsupportedFamily; callers fall back to exact search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cover import DartMapping, verify_cover
from .graph import (EDGE, LOOP, SEMI, Graph, components, induced_link_subgraph,
                    induced_vertex_subgraph, type_signature)
from .matching import exact_link_cover, konig_split, two_factor_orientations
from .twosat import lit, neg, two_sat_solve


class UnsupportedFamily(ValueError):
    """The target is outside the implemented polynomial families."""


_TAG_RANK = {"regularity": 0, "matching": 1, "2-factor": 2,
             "bipartite-decomposition": 3, "2-SAT": 4,
             "brute-force-fallback": 5}


def _max_tag(*tags: str) -> str:
    return max(tags, key=_TAG_RANK.__getitem__)


def _f_tag(b: int, c: int) -> str:
    if b == 1:
        return "matching"
    if b == 0 and c >= 1:
        return "2-factor"
    return "regularity"


@dataclass(frozen=True)
class Verdict:
    answer: bool
    method: str
    witness: DartMapping | None = None
    reason: str = ""


def _stitched(g: Graph, h: Graph, dart_map: dict[int, int],
              vertex_map: list[int], method: str) -> Verdict:
    f = DartMapping(tuple(dart_map[d] for d in range(g.n_darts)), tuple(vertex_map))
    bad = verify_cover(g, h, f)
    if bad:
        raise RuntimeError(f"decider produced a bad witness: {bad[0]}")
    return Verdict(True, method, f)


# ---------------------------------------------------------------- one vertex

def _f_layout(h: Graph, link_ids, at_vertex: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Semi dart ids and loop dart pairs of an F-shaped piece, sorted."""
    semis = []
    loops = []
    for l in sorted(link_ids):
        if h.link_kind(l) == SEMI and h.vertex_of[h.links[l][0]] == at_vertex:
            semis.append(h.links[l][0])
        elif h.link_kind(l) == LOOP and h.vertex_of[h.links[l][0]] == at_vertex:
            loops.append(tuple(h.links[l]))
    return semis, loops


def _decide_f(g: Graph, semis: list[int], loops: list[tuple[int, int]],
              ) -> dict[int, int] | None:
    """Dart assignment of g onto a one-vertex target with the given semi
    darts and loop dart pairs, or None.  Supported families: no semis, one
    semi, and two semis without loops."""
    b, c = len(semis), len(loops)
    if not (b <= 1 or (b, c) == (2, 0)):
        raise UnsupportedFamily(f"one-vertex target with {b} semis and {c} loops")
    if g.n == 0:
        return {}
    if any(g.degree(v) != b + 2 * c for v in range(g.n)):
        return None
    if b + 2 * c == 0:
        return {} if g.n_darts == 0 else None

    if b == 0:
        if any(g.link_kind(l) == SEMI for l in range(g.n_links)):
            return None
        factors = two_factor_orientations(g)
        if factors is None or len(factors) != c:
            return None
        out: dict[int, int] = {}
        for t, factor in enumerate(factors):
            for v, (o, i) in factor.items():
                out[o] = loops[t][0]
                out[i] = loops[t][1]
        return out

    if b == 1:
        # The target's one semi-edge pulls back to all semi-edges of g plus
        # a perfect matching of the semi-free vertices; what remains is
        # 2c-regular and semi-free, hence splits into c spanning 2-factors.
        m = exact_link_cover(g, force_all_semis=True)
        if m is None:
            return None
        used = set(m)
        rest = [l for l in range(g.n_links) if l not in used]
        factors = two_factor_orientations(g, rest)
        if factors is None or len(factors) != c:
            return None
        out = {}
        for l in m:
            for d in g.links[l]:
                out[d] = semis[0]
        for t, factor in enumerate(factors):
            for v, (o, i) in factor.items():
                out[o] = loops[t][0]
                out[i] = loops[t][1]
        return out

    # b == 2, c == 0: loops cannot map onto semi-edges, so components are
    # even cycles or semi-ended open paths; both amount to 2-coloring the
    # darts so that link mates agree and vertex mates differ.
    if any(g.link_kind(l) == LOOP for l in range(g.n_links)):
        return None
    val: dict[int, int] = {}
    for start in range(g.n_darts):
        if start in val:
            continue
        val[start] = 0
        stack = [start]
        while stack:
            d = stack.pop()
            mates = [(p, val[d]) for p in [g.partner(d)] if p is not None]
            u = g.vertex_of[d]
            other = [x for x in g.darts_at[u] if x != d]
            mates.extend((x, 1 - val[d]) for x in other)
            for x, want in mates:
                if x in val:
                    if val[x] != want:
                        return None
                else:
                    val[x] = want
                    stack.append(x)
    return {d: semis[v] for d, v in val.items()}


def decide_one_vertex(g: Graph, b: int, c: int) -> Verdict:
    """Does g cover the one-vertex graph with b semi-edges and c loops?"""
    from .build import build_F
    target = build_F(b, c)
    semis, loops = _f_layout(target, range(target.n_links), 0)
    tag = _f_tag(b, c)
    out = _decide_f(g, semis, loops)
    if out is None:
        return Verdict(False, tag)
    return _stitched(g, target, out, [0] * g.n, tag)


# ------------------------------------------------------- bars only, 2 sides

def _decide_bars(g: Graph, side: list[int], bars: list[tuple[int, int]],
                 links: list[int] | None = None) -> dict[int, int] | None:
    """Map g's edges onto parallel bars given a fixed side assignment.

    bars are (dart at target vertex 0, dart at target vertex 1) pairs; side
    gives the target vertex per g vertex.  Every listed link must cross.
    """
    k = len(bars)
    if links is None:
        links = list(range(g.n_links))
    left = sorted(v for v in range(g.n) if side[v] == 0)
    right = sorted(v for v in range(g.n) if side[v] == 1)
    li = {v: i for i, v in enumerate(left)}
    ri = {v: i for i, v in enumerate(right)}
    triples = []
    for l in links:
        if g.link_kind(l) != EDGE:
            return None
        u, w = g.link_ends(l)
        if side[u] == side[w]:
            return None
        if side[u] == 1:
            u, w = w, u
        triples.append((li[u], ri[w], l))
    split = konig_split(len(left), len(right), triples, k)
    if split is None:
        return None
    out: dict[int, int] = {}
    for t, matching in enumerate(split):
        for _, _, l in matching:
            d1, d2 = g.links[l]
            if side[g.vertex_of[d1]] == 1:
                d1, d2 = d2, d1
            out[d1] = bars[t][0]
            out[d2] = bars[t][1]
    return out


def decide_bipartite_bars(g: Graph, k: int) -> Verdict:
    """Does g cover two vertices joined by k parallel edges?  Equivalent to
    g being k-regular and bipartite with no loops or semi-edges."""
    from .build import build_W
    if k < 1:
        raise ValueError("need at least one bar")
    target = build_W(0, 0, k, 0, 0)
    bars = [tuple(target.links[l]) for l in range(target.n_links)]
    if g.n == 0:
        return _stitched(g, target, {}, [], "bipartite-decomposition")
    if any(g.link_kind(l) != EDGE for l in range(g.n_links)):
        return Verdict(False, "bipartite-decomposition")
    if any(g.degree(v) != k for v in range(g.n)):
        return Verdict(False, "bipartite-decomposition")
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for d in g.darts_at[u]:
                w = g.vertex_of[g.partner(d)]
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return Verdict(False, "bipartite-decomposition")
    out = _decide_bars(g, side, bars)
    if out is None:
        return Verdict(False, "bipartite-decomposition")
    return _stitched(g, target, out, side, "bipartite-decomposition")


# ------------------------------------------------ colored one-vertex target

def _class_links(g: Graph) -> dict[frozenset, list[int]]:
    out: dict[frozenset, list[int]] = {}
    for l in range(g.n_links):
        out.setdefault(g.link_colorset(l), []).append(l)
    return out


def _directed_loops(g: Graph, links: list[int], i: int,
                    loop_targets: list[tuple[int, int]]) -> dict[int, int] | None:
    """Map a bicolored link class onto m directed loops at one vertex.

    loop_targets are (i-dart, j-dart) pairs.  Always solvable when every
    vertex has m outgoing (color i) and m incoming darts in the class.
    """
    m = len(loop_targets)
    outdeg = [0] * g.n
    indeg = [0] * g.n
    triples = []
    for l in links:
        cell = g.links[l]
        if len(cell) != 2:
            return None
        di = cell[0] if g.dart_color[cell[0]] == i else cell[1]
        dj = cell[1] if di == cell[0] else cell[0]
        if g.dart_color[di] != i or g.dart_color[dj] == i:
            return None
        u, w = g.vertex_of[di], g.vertex_of[dj]
        outdeg[u] += 1
        indeg[w] += 1
        triples.append((u, w, l))
    if any(d != m for d in outdeg) or any(d != m for d in indeg):
        return None
    split = konig_split(g.n, g.n, sorted(triples), m)
    if split is None:
        return None
    out: dict[int, int] = {}
    for t, matching in enumerate(split):
        for _, _, l in matching:
            cell = g.links[l]
            di = cell[0] if g.dart_color[cell[0]] == i else cell[1]
            dj = cell[1] if di == cell[0] else cell[0]
            out[di] = loop_targets[t][0]
            out[dj] = loop_targets[t][1]
    return out


def decide_colored_one_vertex(g: Graph, h: Graph) -> Verdict:
    """Cover g onto a one-vertex colored target, class by class.

    Monochromatic classes go through the one-vertex families (raising
    UnsupportedFamily outside them); bicolored classes are directed loop
    sets and are always polynomial.
    """
    if h.n != 1:
        raise ValueError("target must have one vertex")
    method = "regularity"
    if g.n == 0:
        return _stitched(g, h, {}, [], method)
    sig = type_signature(h, 0)
    if any(type_signature(g, u) != sig for u in range(g.n)):
        return Verdict(False, method)
    g_classes = _class_links(g)
    h_classes = _class_links(h)
    if set(g_classes) - set(h_classes):
        return Verdict(False, method)
    dart_map: dict[int, int] = {}
    for cs in sorted(h_classes, key=sorted):
        links = h_classes[cs]
        sub, sub_darts = induced_link_subgraph(g, lambda x, cs=cs: x == cs)
        if len(cs) == 1:
            semis, loops = _f_layout(h, links, 0)
            method = _max_tag(method, _f_tag(len(semis), len(loops)))
            part = _decide_f(sub, semis, loops)
        else:
            method = _max_tag(method, "bipartite-decomposition")
            i = min(cs)
            loop_targets = []
            for l in sorted(links):
                if h.link_kind(l) != LOOP:
                    return Verdict(False, method)
                cell = h.links[l]
                di = cell[0] if h.dart_color[cell[0]] == i else cell[1]
                dj = cell[1] if di == cell[0] else cell[0]
                loop_targets.append((di, dj))
            part = _directed_loops(sub, list(range(sub.n_links)), i, loop_targets)
        if part is None:
            return Verdict(False, method)
        for sd, td in part.items():
            dart_map[sub_darts[sd]] = td
    return _stitched(g, h, dart_map, [0] * g.n, method)


# ------------------------------------------- two vertices, separable target

def decide_two_vertex_nonregular(g: Graph, h: Graph) -> Verdict:
    """Cover g onto a connected two-vertex target whose vertices differ in
    color or in per-type dart counts.  The separation forces the vertex map,
    after which each side is a one-vertex problem and each bar class is a
    regular bipartite splitting."""
    if h.n != 2:
        raise ValueError("target must have two vertices")
    sig0, sig1 = type_signature(h, 0), type_signature(h, 1)
    if sig0 == sig1:
        raise ValueError("target vertices are indistinguishable, use the 2-SAT decider")
    if not any(h.link_kind(l) == EDGE for l in range(h.n_links)):
        raise ValueError("target is disconnected, use the disconnected pipeline")
    method = "regularity"
    if g.n == 0:
        return _stitched(g, h, {}, [], method)
    side = []
    for u in range(g.n):
        s = type_signature(g, u)
        if s == sig0:
            side.append(0)
        elif s == sig1:
            side.append(1)
        else:
            return Verdict(False, method)

    dart_map: dict[int, int] = {}
    for s in (0, 1):
        verts = [v for v in range(g.n) if side[v] == s]
        sub, sub_verts, sub_darts = induced_vertex_subgraph(g, verts)
        hsub, _, hsub_darts = induced_vertex_subgraph(h, [s])
        if hsub.n_darts == 0 and sub.n_darts == 0:
            continue
        part, tag = _one_vertex_piecewise(sub, hsub, hsub_darts)
        method = _max_tag(method, tag)
        if part is None:
            return Verdict(False, method)
        for sd, td in part.items():
            dart_map[sub_darts[sd]] = td

    # Bar classes: group crossing edges by the ordered dart colors seen from
    # side 0 and match each group's multiplicity with a matching split.
    h_bars: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for l in range(h.n_links):
        if h.link_kind(l) != EDGE:
            continue
        d1, d2 = h.links[l]
        if h.vertex_of[d1] == 1:
            d1, d2 = d2, d1
        h_bars.setdefault((h.dart_color[d1], h.dart_color[d2]), []).append((d1, d2))
    g_cross: dict[tuple[int, int], list[int]] = {}
    for l in range(g.n_links):
        if g.link_kind(l) != EDGE:
            continue
        u, w = g.link_ends(l)
        if side[u] == side[w]:
            continue
        d1, d2 = g.links[l]
        if side[g.vertex_of[d1]] == 1:
            d1, d2 = d2, d1
        g_cross.setdefault((g.dart_color[d1], g.dart_color[d2]), []).append(l)
    if set(g_cross) - set(h_bars):
        return Verdict(False, method)
    for key in sorted(h_bars):
        method = _max_tag(method, "bipartite-decomposition")
        part = _decide_bars(g, side, sorted(h_bars[key]), sorted(g_cross.get(key, [])))
        if part is None:
            return Verdict(False, method)
        dart_map.update(part)
    return _stitched(g, h, dart_map, side, method)


def _one_vertex_piecewise(g: Graph, h: Graph, h_darts: tuple[int, ...],
                          ) -> tuple[dict[int, int] | None, str]:
    """decide_colored_one_vertex against a one-vertex piece of a larger
    target, translating witness darts back through h_darts."""
    v = decide_colored_one_vertex(g, h)
    if not v.answer:
        return None, v.method
    return {d: h_darts[v.witness.dart_map[d]] for d in range(g.n_darts)}, v.method


# ------------------------------------------ two vertices, regular, by 2-SAT

@dataclass
class _MonoPiece:
    color: int
    semis: tuple[list[int], list[int]]
    loops: tuple[list[tuple[int, int]], list[tuple[int, int]]]
    bars: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class _BiPiece:
    lo: int
    hi: int
    loops: tuple[list[tuple[int, int]], list[tuple[int, int]]]
    bars_fwd: list[tuple[int, int]] = field(default_factory=list)
    bars_bwd: list[tuple[int, int]] = field(default_factory=list)


def _h_pieces(h: Graph) -> list[_MonoPiece | _BiPiece]:
    pieces = []
    for cs in sorted(_class_links(h), key=sorted):
        links = sorted(_class_links(h)[cs])
        if len(cs) == 1:
            i = min(cs)
            semis0, loops0 = _f_layout(h, links, 0)
            semis1, loops1 = _f_layout(h, links, 1)
            piece = _MonoPiece(i, (semis0, semis1), (loops0, loops1))
            for l in links:
                if h.link_kind(l) == EDGE:
                    d1, d2 = h.links[l]
                    if h.vertex_of[d1] == 1:
                        d1, d2 = d2, d1
                    piece.bars.append((d1, d2))
        else:
            i, j = min(cs), max(cs)
            piece = _BiPiece(i, j, ([], []))
            for l in links:
                cell = h.links[l]
                di = cell[0] if h.dart_color[cell[0]] == i else cell[1]
                dj = cell[1] if di == cell[0] else cell[0]
                if h.link_kind(l) == LOOP:
                    piece.loops[h.vertex_of[di]].append((di, dj))
                else:
                    if h.vertex_of[di] == 0:
                        piece.bars_fwd.append((di, dj))
                    else:
                        piece.bars_bwd.append((di, dj))
        pieces.append(piece)
    return pieces


def decide_two_vertex_regular_2sat(g: Graph, h: Graph) -> Verdict:
    """Cover g onto a connected two-vertex target whose vertices agree in
    color and per-type dart counts.

    The vertex map is the only freedom: one boolean per g vertex (true
    means target vertex 0).  Each color class contributes clauses that are
    necessary and sufficient for the class to map, provided every class is
    one of the polynomial shapes; others raise UnsupportedFamily.
    """
    if h.n != 2:
        raise ValueError("target must have two vertices")
    sig = type_signature(h, 0)
    if sig != type_signature(h, 1):
        raise ValueError("target vertices are distinguishable, use the separated decider")
    if not any(h.link_kind(l) == EDGE for l in range(h.n_links)):
        raise ValueError("target is disconnected, use the disconnected pipeline")
    method = "2-SAT"
    if g.n == 0:
        return _stitched(g, h, {}, [], "regularity")
    if any(type_signature(g, u) != sig for u in range(g.n)):
        return Verdict(False, "regularity")
    g_classes = _class_links(g)
    h_classes = _class_links(h)
    if set(g_classes) - set(h_classes):
        return Verdict(False, method)

    clauses: list[tuple[int, int]] = []
    plans: list[tuple] = []

    def equal(u, w):
        clauses.append((neg(lit(u)), lit(w)))
        clauses.append((lit(u), neg(lit(w))))

    def differ(u, w):
        if u == w:
            return False
        clauses.append((lit(u), lit(w)))
        clauses.append((neg(lit(u)), neg(lit(w))))
        return True

    for piece in _h_pieces(h):
        if isinstance(piece, _MonoPiece):
            cs = frozenset([piece.color])
        else:
            cs = frozenset([piece.lo, piece.hi])
        sub, sub_darts = induced_link_subgraph(g, lambda x, cs=cs: x == cs)
        glinks = [(l, sub.link_kind(l), sub.link_ends(l)) for l in range(sub.n_links)]

        if isinstance(piece, _MonoPiece):
            t = len(piece.semis[0]) + 2 * len(piece.loops[0])
            ell = len(piece.bars)
            if t == 0 and ell == 0:
                continue
            if ell >= 1 and t == 0:
                for l, kind, ends in glinks:
                    if kind != EDGE or not differ(*ends):
                        return Verdict(False, method, reason="bars-only class broken")
                plans.append(("bars", piece, sub, sub_darts))
            elif ell == 0:
                for l, kind, ends in glinks:
                    if kind == EDGE:
                        equal(*ends)
                sides = []
                for comp in components(sub):
                    ok = [
                        _decide_f(comp.graph, piece.semis[s], piece.loops[s])
                        for s in (0, 1)
                    ]
                    if ok[0] is None and ok[1] is None:
                        return Verdict(False, method, reason="class component covers neither side")
                    rep = comp.vertex_ids[0]
                    if ok[1] is None:
                        clauses.append((lit(rep), lit(rep)))
                    elif ok[0] is None:
                        clauses.append((neg(lit(rep)), neg(lit(rep))))
                    sides.append((comp, ok))
                plans.append(("split", piece, sub, sub_darts, sides))
            elif ell == 1 and t == 1 and not piece.loops[0] and not piece.loops[1]:
                # one semi-edge and one bar at each vertex: every g vertex
                # needs one link acting as the semi and one as the bar, and
                # an edge acts as the bar exactly when it crosses sides.
                for l, kind, ends in glinks:
                    if kind == LOOP:
                        return Verdict(False, method, reason="loop in a loopless class")
                for u in range(sub.n):
                    inc = []
                    for d in sub.darts_at[u]:
                        l = sub.link_of[d]
                        if sub.link_kind(l) == SEMI:
                            inc.append(None)
                        else:
                            p = sub.partner(d)
                            inc.append(sub.vertex_of[p])
                    if len(inc) != 2:
                        return Verdict(False, method)
                    a, b = inc
                    if a is None and b is None:
                        return Verdict(False, method, reason="two semis at one vertex")
                    elif a is None or b is None:
                        z = a if b is None else b
                        if not differ(u, z):
                            return Verdict(False, method)
                    else:
                        if not differ(a, b):
                            return Verdict(False, method)
                plans.append(("semibar", piece, sub, sub_darts))
            else:
                raise UnsupportedFamily(
                    f"two-vertex class of color {piece.color}: degree {t} with {ell} bars")
        else:
            m = len(piece.loops[0])
            ell = len(piece.bars_fwd)
            if m != len(piece.loops[1]) or ell != len(piece.bars_bwd):
                raise UnsupportedFamily("unbalanced directed class")
            if m == 0 and ell == 0:
                continue
            if ell == 0:
                for l, kind, ends in glinks:
                    if kind == SEMI:
                        return Verdict(False, method)
                    if kind == EDGE:
                        equal(*ends)
                plans.append(("diloops", piece, sub, sub_darts))
            elif m == 0:
                for l, kind, ends in glinks:
                    if kind != EDGE or not differ(*ends):
                        return Verdict(False, method, reason="directed bars-only class broken")
                plans.append(("dibars", piece, sub, sub_darts))
            elif m == 1 and ell == 1:
                for direction in (0, 1):  # 0: constrain out-links, 1: in-links
                    color = piece.lo if direction == 0 else piece.hi
                    for u in range(sub.n):
                        ends = []
                        for d in sub.darts_at[u]:
                            if sub.dart_color[d] != color:
                                continue
                            p = sub.partner(d)
                            if p is None:
                                return Verdict(False, method)
                            ends.append(sub.vertex_of[p])
                        if len(ends) != 2:
                            return Verdict(False, method)
                        a, b = ends
                        if a == u and b == u:
                            return Verdict(False, method, reason="two directed loops at one vertex")
                        elif a == u or b == u:
                            z = b if a == u else a
                            if not differ(u, z):
                                return Verdict(False, method)
                        else:
                            if not differ(a, b):
                                return Verdict(False, method)
                plans.append(("diloopbar", piece, sub, sub_darts))
            else:
                raise UnsupportedFamily(
                    f"directed class ({piece.lo},{piece.hi}): {m} loops with {ell} bars each way")

    assignment = two_sat_solve(g.n, clauses)
    if assignment is None:
        return Verdict(False, method, reason="2-SAT unsatisfiable")
    side = [0 if x else 1 for x in assignment]

    dart_map: dict[int, int] = {}
    for plan in plans:
        kind = plan[0]
        if kind == "bars":
            _, piece, sub, sub_darts = plan
            part = _decide_bars(sub, side, piece.bars)
        elif kind == "dibars":
            _, piece, sub, sub_darts = plan
            part = _bidir_bars(sub, side, piece)
        elif kind == "diloops":
            _, piece, sub, sub_darts = plan
            part = _diloops_by_side(sub, side, piece)
        elif kind == "semibar":
            _, piece, sub, sub_darts = plan
            part = _semibar_assign(sub, side, piece)
        elif kind == "diloopbar":
            _, piece, sub, sub_darts = plan
            part = _diloopbar_assign(sub, side, piece)
        else:  # split
            _, piece, sub, sub_darts, sides = plan
            part = {}
            for comp, ok in sides:
                s = side[comp.vertex_ids[0]]
                w = ok[s]
                if w is None:
                    part = None
                    break
                for cd, td in w.items():
                    part[comp.dart_ids[cd]] = td
        if part is None:
            raise RuntimeError("satisfying assignment failed witness expansion")
        for sd, td in part.items():
            dart_map[sub_darts[sd]] = td
    return _stitched(g, h, dart_map, side, method)


def _bidir_bars(sub: Graph, side: list[int], piece: _BiPiece) -> dict[int, int] | None:
    """Directed bars-only class: split each direction separately."""
    out: dict[int, int] = {}
    for fwd in (True, False):
        links = []
        for l in range(sub.n_links):
            cell = sub.links[l]
            di = cell[0] if sub.dart_color[cell[0]] == piece.lo else cell[1]
            if (side[sub.vertex_of[di]] == 0) == fwd:
                links.append(l)
        bars = piece.bars_fwd if fwd else piece.bars_bwd
        oriented = []
        for l in links:
            cell = sub.links[l]
            di = cell[0] if sub.dart_color[cell[0]] == piece.lo else cell[1]
            dj = cell[1] if di == cell[0] else cell[0]
            oriented.append((l, di, dj))
        sidemap = side if fwd else [1 - s for s in side]
        part = _split_oriented(sub, sidemap, oriented,
                               [(b[0], b[1]) for b in bars])
        if part is None:
            return None
        out.update(part)
    return out


def _split_oriented(sub: Graph, side: list[int], oriented: list[tuple[int, int, int]],
                    targets: list[tuple[int, int]]) -> dict[int, int] | None:
    """konig_split wrapper mapping (link, tail dart, head dart) triples onto
    target (tail dart, head dart) pairs; tails sit on side 0."""
    k = len(targets)
    left = sorted(v for v in range(sub.n) if side[v] == 0)
    right = sorted(v for v in range(sub.n) if side[v] == 1)
    li = {v: i for i, v in enumerate(left)}
    ri = {v: i for i, v in enumerate(right)}
    triples = []
    for l, di, dj in oriented:
        u, w = sub.vertex_of[di], sub.vertex_of[dj]
        if side[u] != 0 or side[w] != 1:
            return None
        triples.append((li[u], ri[w], l))
    split = konig_split(len(left), len(right), sorted(triples), k)
    if split is None:
        return None
    by_link = {l: (di, dj) for l, di, dj in oriented}
    out = {}
    for t, matching in enumerate(split):
        for _, _, l in matching:
            di, dj = by_link[l]
            out[di] = targets[t][0]
            out[dj] = targets[t][1]
    return out


def _diloops_by_side(sub: Graph, side: list[int], piece: _BiPiece) -> dict[int, int] | None:
    """Directed loops-only class: every link stays on one side."""
    out: dict[int, int] = {}
    for s in (0, 1):
        verts = [v for v in range(sub.n) if side[v] == s]
        if not verts:
            continue
        gsub, _, dids = induced_vertex_subgraph(sub, verts)
        part = _directed_loops(gsub, list(range(gsub.n_links)), piece.lo, piece.loops[s])
        if part is None:
            return None
        for d, td in part.items():
            out[dids[d]] = td
    return out


def _semibar_assign(sub: Graph, side: list[int], piece: _MonoPiece) -> dict[int, int] | None:
    semi = (piece.semis[0][0], piece.semis[1][0])
    bar = piece.bars[0]
    out: dict[int, int] = {}
    for l in range(sub.n_links):
        cell = sub.links[l]
        if len(cell) == 1:
            out[cell[0]] = semi[side[sub.vertex_of[cell[0]]]]
        else:
            u, w = sub.link_ends(l)
            if side[u] == side[w]:
                for d in cell:
                    out[d] = semi[side[u]]
            else:
                d1, d2 = cell
                if side[sub.vertex_of[d1]] == 1:
                    d1, d2 = d2, d1
                out[d1] = bar[0]
                out[d2] = bar[1]
    return out


def _diloopbar_assign(sub: Graph, side: list[int], piece: _BiPiece) -> dict[int, int] | None:
    loop = (piece.loops[0][0], piece.loops[1][0])
    fwd = piece.bars_fwd[0]
    bwd = piece.bars_bwd[0]
    out: dict[int, int] = {}
    for l in range(sub.n_links):
        cell = sub.links[l]
        di = cell[0] if sub.dart_color[cell[0]] == piece.lo else cell[1]
        dj = cell[1] if di == cell[0] else cell[0]
        u, w = sub.vertex_of[di], sub.vertex_of[dj]
        if side[u] == side[w]:
            out[di] = loop[side[u]][0]
            out[dj] = loop[side[u]][1]
        elif side[u] == 0:
            out[di] = fwd[0]
            out[dj] = fwd[1]
        else:
            out[di] = bwd[0]
            out[dj] = bwd[1]
    return out
