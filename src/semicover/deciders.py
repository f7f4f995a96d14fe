"""The P/NP-complete table for connected targets on at most two vertices,
and the polynomial-time deciders it drives.

dichotomy_table splits a target into its color-class pieces and gives one
row per piece: verdict, the rule that fired, the method tag, and the kind
of decider that handles the piece.  A one-vertex piece is F(b,c); on two
vertices that agree in color and type signature a piece is W(k,m,l,p,q),
WD(m,l,m) or a pair of one-vertex pieces.  dichotomy.classify reads the
rows; the three deciders below dispatch on their kinds and produce a
dart-level witness on yes.  A row that says NP-complete makes the deciders
raise UnsupportedFamily; callers fall back to exact search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


# ------------------------------------------------------------ the table

@dataclass
class _Piece:
    """The links of one color class of a target, as target dart ids.

    Loops and bars are (dart, dart) pairs led by the lower-colored dart;
    a monochromatic bar is led by its dart at vertex 0 and sits in
    bars[0], a bicolored bar sits in bars[s] when its lead is at vertex s.
    """
    colors: frozenset[int]
    semis: tuple[list[int], list[int]]
    loops: tuple[list[tuple[int, int]], list[tuple[int, int]]]
    bars: tuple[list[tuple[int, int]], list[tuple[int, int]]]


def _class_links(g: Graph) -> dict[frozenset, list[int]]:
    out: dict[frozenset, list[int]] = {}
    for l in range(g.n_links):
        out.setdefault(g.link_colorset(l), []).append(l)
    return out


def _lead(g: Graph, l: int, lo: int) -> tuple[int, int]:
    """The darts of a two-dart link, the one of color lo first."""
    cell = g.links[l]
    return cell if g.dart_color[cell[0]] == lo else cell[::-1]


def _h_pieces(h: Graph) -> list[_Piece]:
    classes = _class_links(h)
    pieces = []
    for cs in sorted(classes, key=sorted):
        lo = min(cs)
        p = _Piece(cs, ([], []), ([], []), ([], []))
        for l in classes[cs]:
            cell = h.links[l]
            if len(cell) == 1:
                p.semis[h.vertex_of[cell[0]]].append(cell[0])
                continue
            di, dj = _lead(h, l, lo)
            u, w = h.vertex_of[di], h.vertex_of[dj]
            if u == w:
                p.loops[u].append((di, dj))
            elif len(cs) == 1:
                p.bars[0].append((di, dj) if u == 0 else (dj, di))
            else:
                p.bars[u].append((di, dj))
        pieces.append(p)
    return pieces


class Row(NamedTuple):
    """One row of the dichotomy table."""
    key: str | None        # name in Classification.pieces; None for a rule on the whole target
    verdict: str           # "P" | "NP-complete"
    rule: str
    method: str            # Verdict.method of the decider
    kind: str              # the decider that handles the piece, or "NP"
    piece: _Piece | None = None
    side: int = 0          # target vertex of a one-vertex piece


def _class_name(p: _Piece) -> str:
    if len(p.colors) == 1:
        return f"color {min(p.colors)}"
    return f"colors ({min(p.colors)},{max(p.colors)})"


def _np(key: str, rule: str) -> Row:
    return Row(key, "NP-complete", rule, "brute-force-fallback", "NP")


def _vertex_row(p: _Piece, s: int, key: str) -> Row:
    """The piece of p at target vertex s, alone: F(b,c) or directed loops."""
    if len(p.colors) == 2:
        return Row(key, "P", f"{key}: directed loops at one vertex are always polynomial",
                   "bipartite-decomposition", "directed loops", p, s)
    b, c = len(p.semis[s]), len(p.loops[s])
    if b <= 1 or (b, c) == (2, 0):
        method = "matching" if b == 1 else "2-factor" if b == 0 and c else "regularity"
        return Row(key, "P", f"{key}: F({b},{c}) is polynomial ({b} <= 1 or ({b},{c}) = (2,0))",
                   method, "F-piece", p, s)
    return _np(key, f"{key}: F({b},{c}) is NP-complete ({b} >= 2 and {b}+{c} = {b + c} >= 3)")


def _pair_row(p: _Piece) -> Row:
    """A piece of a target whose two vertices agree: its 2-SAT constraint."""
    key = _class_name(p)
    ell = len(p.bars[0])
    if len(p.colors) == 2:
        m = len(p.loops[0])
        if ell == 0:
            return Row(key, "P", f"{key}: directed loops with no cross edges: polynomial",
                       "2-SAT", "diloops", p)
        if m == 0:
            return Row(key, "P", f"{key}: WD(0,{ell},0) directed bars only: polynomial (m = 0)",
                       "2-SAT", "dibars", p)
        if m + ell <= 2:
            return Row(key, "P", f"{key}: WD(1,1,1): polynomial (m+l = 2 < 3)",
                       "2-SAT", "diloopbar", p)
        return _np(key, f"{key}: WD({m},{ell},{m}) is NP-complete (l = {ell} >= 1, "
                        f"m = {m} > 0 and m+l = {m + ell} >= 3)")
    k, m = len(p.semis[0]), len(p.loops[0])
    q, qp = len(p.semis[1]), len(p.loops[1])
    t = k + 2 * m
    if ell == 0:
        split = f"{key}: F({k},{m})+F({q},{qp}) with no bars"
        if k <= 1 and q <= 1:
            return Row(key, "P", f"{split}: polynomial (each component has at most one "
                                 "semi-edge)", "2-SAT", "split", p)
        if t == 2:
            return Row(key, "P", f"{split}: polynomial (degree two)", "2-SAT", "split", p)
        return _np(key, f"{split} is NP-complete (a component has {max(k, q)} >= 2 "
                        f"semi-edges and degree {t} >= 3)")
    if t == 0:
        return Row(key, "P", f"{key}: W(0,0,{ell},0,0) bars only: polynomial (k+2m = 0)",
                   "2-SAT", "bars", p)
    if t + ell <= 2:
        return Row(key, "P", f"{key}: W({k},{m},{ell},{qp},{q}): polynomial "
                             f"(k+2m+l = {t + ell} < 3)", "2-SAT", "semibar", p)
    return _np(key, f"{key}: W({k},{m},{ell},{qp},{q}) is NP-complete (l = {ell} >= 1, "
                    f"k+2m = q+2p = {t} > 0 and k+2m+l = {t + ell} >= 3)")


def dichotomy_table(h: Graph) -> list[Row]:
    """One row per color-class piece of a connected target h on one or two
    vertices, in class order.

    One vertex: each class is F(b,c) or a set of directed loops.  Two
    vertices that differ in color or type signature: the vertex map is
    forced, so each side's classes are one-vertex pieces, and a last row
    covers the cross edges.  Two vertices that agree: each class
    constrains the side choice (see decide_two_vertex_regular_2sat).
    """
    pieces = _h_pieces(h)
    if h.n == 1:
        return [_vertex_row(p, 0, _class_name(p)) for p in pieces]
    if type_signature(h, 0) != type_signature(h, 1):
        rows = [_vertex_row(p, s, f"vertex {s} {_class_name(p)}")
                for p in pieces for s in (0, 1) if p.semis[s] or p.loops[s]]
        rows.append(Row(None, "P", "cross edges split by color pair into regular bipartite "
                                   "multigraphs: polynomial",
                        "bipartite-decomposition", "cross bars"))
        return rows
    return [_pair_row(p) for p in pieces]


def _polynomial_table(h: Graph) -> list[Row]:
    rows = dichotomy_table(h)
    for r in rows:
        if r.kind == "NP":
            raise UnsupportedFamily(r.rule)
    return rows


# ------------------------------------------------------ one-vertex pieces

def _decide_f(g: Graph, semis: list[int], loops: list[tuple[int, int]],
              ) -> dict[int, int] | None:
    """Dart assignment of g onto a one-vertex target with the given semi
    darts and loop dart pairs, or None.  The target is a polynomial F(b,c):
    b <= 1, or b = 2 and c = 0."""
    b, c = len(semis), len(loops)
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


def _directed_loops(g: Graph, i: int,
                    loop_targets: list[tuple[int, int]]) -> dict[int, int] | None:
    """Map a bicolored link class onto m directed loops at one vertex.

    loop_targets are (i-dart, j-dart) pairs.  Always solvable when every
    vertex has m outgoing (color i) and m incoming darts in the class.
    """
    m = len(loop_targets)
    outdeg = [0] * g.n
    indeg = [0] * g.n
    triples = []
    for l in range(g.n_links):
        if len(g.links[l]) != 2:
            return None
        di, dj = _lead(g, l, i)
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
            di, dj = _lead(g, l, i)
            out[di], out[dj] = loop_targets[t]
    return out


def _cover_pieces(g: Graph, rows: list[Row], method: str,
                  ) -> tuple[dict[int, int] | None, str]:
    """Map g onto the one-vertex pieces in rows, class by class; the dart
    map, or None, and the running method tag."""
    dart_map: dict[int, int] = {}
    for r in rows:
        method = _max_tag(method, r.method)
        sub, sub_darts = induced_link_subgraph(g, lambda x, cs=r.piece.colors: x == cs)
        if r.kind == "F-piece":
            part = _decide_f(sub, r.piece.semis[r.side], r.piece.loops[r.side])
        else:
            part = _directed_loops(sub, min(r.piece.colors), r.piece.loops[r.side])
        if part is None:
            return None, method
        for sd, td in part.items():
            dart_map[sub_darts[sd]] = td
    return dart_map, method


def decide_colored_one_vertex(g: Graph, h: Graph) -> Verdict:
    """Cover g onto a one-vertex colored target, class by class."""
    if h.n != 1:
        raise ValueError("target must have one vertex")
    method = "regularity"
    if g.n == 0:
        return _stitched(g, h, {}, [], method)
    sig = type_signature(h, 0)
    if any(type_signature(g, u) != sig for u in range(g.n)):
        return Verdict(False, method)
    dart_map, method = _cover_pieces(g, _polynomial_table(h), method)
    if dart_map is None:
        return Verdict(False, method)
    return _stitched(g, h, dart_map, [0] * g.n, method)


# ------------------------------------------- two vertices, separable target

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

    rows = _polynomial_table(h)
    dart_map: dict[int, int] = {}
    for s in (0, 1):
        verts = [v for v in range(g.n) if side[v] == s]
        if not verts:
            continue
        sub, _, sub_darts = induced_vertex_subgraph(g, verts)
        sig = type_signature(induced_vertex_subgraph(h, [s])[0], 0)
        if any(type_signature(sub, u) != sig for u in range(sub.n)):
            return Verdict(False, method)
        part, method = _cover_pieces(sub, [r for r in rows if r.side == s and r.piece],
                                     method)
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
    method = _max_tag(method, rows[-1].method)
    for key in sorted(h_bars):
        part = _decide_bars(g, side, sorted(h_bars[key]), sorted(g_cross.get(key, [])))
        if part is None:
            return Verdict(False, method)
        dart_map.update(part)
    return _stitched(g, h, dart_map, side, method)


# ------------------------------------------ two vertices, regular, by 2-SAT

class _Refuted(Exception):
    """A class constraint has no solution; the message says why."""


def _equal(clauses: list, u: int, w: int) -> None:
    clauses.append((neg(lit(u)), lit(w)))
    clauses.append((lit(u), neg(lit(w))))


def _differ(clauses: list, u: int, w: int) -> None:
    if u == w:
        raise _Refuted("a vertex would have to differ from itself")
    clauses.append((lit(u), lit(w)))
    clauses.append((neg(lit(u)), neg(lit(w))))


def _all_stay(sub: Graph, clauses: list) -> None:
    for l in range(sub.n_links):
        if sub.link_kind(l) == EDGE:
            _equal(clauses, *sub.link_ends(l))


def _all_cross(sub: Graph, clauses: list) -> None:
    for l in range(sub.n_links):
        if sub.link_kind(l) != EDGE:
            raise _Refuted("a link of a bars-only class does not cross")
        _differ(clauses, *sub.link_ends(l))


def _one_crosses(sub: Graph, clauses: list, colors) -> None:
    """At every vertex, of the two darts of each listed color, exactly one
    lies on a crossing edge; the other is on a semi-edge or loop, or on an
    edge that stays on the vertex's side."""
    for c in colors:
        for u in range(sub.n):
            a, b = (u if (p := sub.partner(d)) is None else sub.vertex_of[p]
                    for d in sub.darts_at[u] if sub.dart_color[d] == c)
            if a == u and b == u:
                raise _Refuted("no link at a vertex can cross")
            if a == u or b == u:
                _differ(clauses, u, b if a == u else a)
            else:
                _differ(clauses, a, b)


def _sat_split(sub: Graph, p: _Piece, clauses: list):
    """No bars: each component stays on one side and covers that side's
    one-vertex piece."""
    _all_stay(sub, clauses)
    sides = []
    for comp in components(sub):
        ok = [_decide_f(comp.graph, p.semis[s], p.loops[s]) for s in (0, 1)]
        if ok[0] is None and ok[1] is None:
            raise _Refuted("class component covers neither side")
        rep = comp.vertex_ids[0]
        if ok[1] is None:
            clauses.append((lit(rep), lit(rep)))
        elif ok[0] is None:
            clauses.append((neg(lit(rep)), neg(lit(rep))))
        sides.append((comp, ok))

    def assign(side):
        out = {}
        for comp, ok in sides:
            w = ok[side[comp.vertex_ids[0]]]
            if w is None:
                return None
            for cd, td in w.items():
                out[comp.dart_ids[cd]] = td
        return out
    return assign


def _sat_bars(sub: Graph, p: _Piece, clauses: list):
    _all_cross(sub, clauses)
    return lambda side: _decide_bars(sub, side, p.bars[0])


def _sat_semibar(sub: Graph, p: _Piece, clauses: list):
    """One semi-edge and one bar at each vertex: every g vertex needs one
    link acting as the semi and one as the bar, and an edge acts as the
    bar exactly when it crosses sides."""
    _one_crosses(sub, clauses, p.colors)
    semi, bar = (p.semis[0][0], p.semis[1][0]), p.bars[0][0]

    def assign(side):
        out = {}
        for l in range(sub.n_links):
            cell = sub.links[l]
            if len(cell) == 1:
                out[cell[0]] = semi[side[sub.vertex_of[cell[0]]]]
                continue
            u, w = sub.link_ends(l)
            if side[u] == side[w]:
                for d in cell:
                    out[d] = semi[side[u]]
            else:
                d1, d2 = cell if side[u] == 0 else cell[::-1]
                out[d1], out[d2] = bar
        return out
    return assign


def _sat_diloops(sub: Graph, p: _Piece, clauses: list):
    """Directed loops only: every link stays on one side."""
    _all_stay(sub, clauses)

    def assign(side):
        out: dict[int, int] = {}
        for s in (0, 1):
            verts = [v for v in range(sub.n) if side[v] == s]
            if not verts:
                continue
            gsub, _, dids = induced_vertex_subgraph(sub, verts)
            part = _directed_loops(gsub, min(p.colors), p.loops[s])
            if part is None:
                return None
            for d, td in part.items():
                out[dids[d]] = td
        return out
    return assign


def _sat_dibars(sub: Graph, p: _Piece, clauses: list):
    """Directed bars only: each direction splits into perfect matchings
    on its own."""
    _all_cross(sub, clauses)
    lo = min(p.colors)
    # a backward bar, read from vertex 0, is (higher dart, lower dart)
    bwd = [(dj, di) for di, dj in p.bars[1]]

    def assign(side):
        by_dir: tuple[list[int], list[int]] = ([], [])
        for l in range(sub.n_links):
            by_dir[side[sub.vertex_of[_lead(sub, l, lo)[0]]]].append(l)
        fwd_part = _decide_bars(sub, side, p.bars[0], by_dir[0])
        bwd_part = _decide_bars(sub, side, bwd, by_dir[1])
        if fwd_part is None or bwd_part is None:
            return None
        return {**fwd_part, **bwd_part}
    return assign


def _sat_diloopbar(sub: Graph, p: _Piece, clauses: list):
    """WD(1,1,1): at each vertex one out-link and one in-link cross."""
    lo = min(p.colors)
    _one_crosses(sub, clauses, sorted(p.colors))
    loop = (p.loops[0][0], p.loops[1][0])

    def assign(side):
        out = {}
        for l in range(sub.n_links):
            di, dj = _lead(sub, l, lo)
            u, w = side[sub.vertex_of[di]], side[sub.vertex_of[dj]]
            out[di], out[dj] = loop[u] if u == w else p.bars[u][0]
        return out
    return assign


_SAT_KINDS = {"split": _sat_split, "bars": _sat_bars, "semibar": _sat_semibar,
              "diloops": _sat_diloops, "dibars": _sat_dibars,
              "diloopbar": _sat_diloopbar}


def decide_two_vertex_regular_2sat(g: Graph, h: Graph) -> Verdict:
    """Cover g onto a connected two-vertex target whose vertices agree in
    color and per-type dart counts.

    The vertex map is the only freedom: one boolean per g vertex (true
    means target vertex 0).  Each color class contributes clauses that are
    necessary and sufficient for the class to map, and keeps an assigner
    that maps the class's darts once the sides are known.
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

    clauses: list[tuple[int, int]] = []
    assigners = []
    try:
        for r in _polynomial_table(h):
            sub, sub_darts = induced_link_subgraph(g, lambda x, cs=r.piece.colors: x == cs)
            assigners.append((sub_darts, _SAT_KINDS[r.kind](sub, r.piece, clauses)))
    except _Refuted as no:
        return Verdict(False, method, reason=str(no))

    assignment = two_sat_solve(g.n, clauses)
    if assignment is None:
        return Verdict(False, method, reason="2-SAT unsatisfiable")
    side = [0 if x else 1 for x in assignment]
    dart_map: dict[int, int] = {}
    for sub_darts, assign in assigners:
        part = assign(side)
        if part is None:
            raise RuntimeError("satisfying assignment failed witness expansion")
        for sd, td in part.items():
            dart_map[sub_darts[sd]] = td
    return _stitched(g, h, dart_map, side, method)
