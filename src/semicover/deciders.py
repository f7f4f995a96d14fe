"""The P/NP-complete table for connected targets on at most two vertices,
and the polynomial-time decider it drives.

A link's color class is the pair (lower dart color, higher dart color),
read by _lead; a semi-edge of color c is in (c, c), and a class is
directed when its colors differ.  dichotomy_table splits a target into
its class pieces and gives one row per piece: verdict, the rule that
fired and the method tag.  A one-vertex piece is F(b,c); on two vertices
that agree in color and type signature a piece is W(k,m,l,p,q),
WD(m,l,m) or a pair of one-vertex pieces.  dichotomy.classify reads the
rows, and dichotomy.decide_colored hands a target whose rows are all P
to the decider with its pieces.  NP rows never reach it: decide_colored
runs exact search on those targets.

The decider only finds the side, the target vertex of each source
vertex: type signatures fix it, or 2-SAT solves one crossing-count rule
per dart type (_side_clauses).  _map_sides then maps the darts class by
class.  Each regular bipartite piece (directed loops at a vertex, bars
between the vertices) goes through one König routine, _konig_onto, which
sends perfect matching t onto the t-th target link; the oriented
2-factors of F(b,c) go onto its loops the same way (_onto).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .cover import DartMapping, verify_cover
from .graph import EDGE, Graph, _subgraph, components, type_signature
from .matching import exact_link_cover, konig_split, two_factor_orientations
from .twosat import lit, neg, two_sat_solve

_TAG_RANK = {"regularity": 0, "matching": 1, "2-factor": 2,
             "bipartite-decomposition": 3, "2-SAT": 4,
             "brute-force-fallback": 5}


@dataclass(frozen=True)
class Verdict:
    """A decider's answer.

    method names the algorithm behind the answer.  A no is tagged
    "regularity" when the type signatures alone rule the cover out;
    any other no of a polynomial decider carries its case's tag, the
    highest method among the target's rows.
    """
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

    colors is the class (lo, hi).  Loops are (dart, dart) pairs led by the
    lower-colored dart.  Bars are (dart at vertex 0, dart at vertex 1)
    pairs in bars[direction]: a monochromatic bar has direction 0, a
    directed bar the vertex of its lower-colored dart.
    """
    colors: tuple[int, int]
    semis: tuple[list[int], list[int]]
    loops: tuple[list[tuple[int, int]], list[tuple[int, int]]]
    bars: tuple[list[tuple[int, int]], list[tuple[int, int]]]


def _lead(g: Graph, cell: tuple[int, ...]) -> tuple[tuple[int, int], tuple[int, ...]]:
    """A link cell's class (lo, hi), and its darts with the lo-colored first."""
    lo, hi = g.dart_color[cell[0]], g.dart_color[cell[-1]]
    return ((lo, hi), cell) if lo <= hi else ((hi, lo), cell[::-1])


def _h_pieces(h: Graph) -> list[_Piece]:
    pieces: dict[tuple[int, int], _Piece] = {}
    for cell in h.links:
        (lo, hi), led = _lead(h, cell)
        p = pieces.setdefault((lo, hi), _Piece((lo, hi), ([], []), ([], []), ([], [])))
        u, w = h.vertex_of[led[0]], h.vertex_of[led[-1]]
        if len(led) == 1:
            p.semis[u].append(led[0])
        elif u == w:
            p.loops[u].append(led)
        else:
            p.bars[u if lo != hi else 0].append(led if u == 0 else led[::-1])
    return [pieces[cls] for cls in sorted(pieces)]


class Row(NamedTuple):
    """One row of the dichotomy table."""
    key: str | None        # name in Classification.pieces; None for a rule on the whole target
    verdict: str           # "P" | "NP-complete"
    rule: str
    method: str            # Verdict.method of the decider


def _class_name(p: _Piece) -> str:
    lo, hi = p.colors
    return f"color {lo}" if lo == hi else f"colors ({lo},{hi})"


def _np(key: str, rule: str) -> Row:
    return Row(key, "NP-complete", rule, "brute-force-fallback")


def _sat(key: str, rule: str) -> Row:
    return Row(key, "P", rule, "2-SAT")


def _vertex_row(p: _Piece, s: int, key: str) -> Row:
    """The piece of p at target vertex s, alone: F(b,c) or directed loops."""
    if p.colors[0] != p.colors[1]:
        return Row(key, "P", f"{key}: directed loops at one vertex are always polynomial",
                   "bipartite-decomposition")
    b, c = len(p.semis[s]), len(p.loops[s])
    if b <= 1 or (b, c) == (2, 0):
        method = "matching" if b == 1 else "2-factor" if b == 0 and c else "regularity"
        return Row(key, "P", f"{key}: F({b},{c}) is polynomial ({b} <= 1 or ({b},{c}) = (2,0))",
                   method)
    return _np(key, f"{key}: F({b},{c}) is NP-complete ({b} >= 2 and {b}+{c} = {b + c} >= 3)")


def _pair_row(p: _Piece) -> Row:
    """A piece of a target whose two vertices agree: its 2-SAT constraint."""
    key = _class_name(p)
    ell = len(p.bars[0])
    if p.colors[0] != p.colors[1]:
        m = len(p.loops[0])
        if ell == 0:
            return _sat(key, f"{key}: directed loops with no cross edges: polynomial")
        if m == 0:
            return _sat(key, f"{key}: WD(0,{ell},0) directed bars only: polynomial (m = 0)")
        if m + ell <= 2:
            return _sat(key, f"{key}: WD(1,1,1): polynomial (m+l = 2 < 3)")
        return _np(key, f"{key}: WD({m},{ell},{m}) is NP-complete (l = {ell} >= 1, "
                        f"m = {m} > 0 and m+l = {m + ell} >= 3)")
    k, m = len(p.semis[0]), len(p.loops[0])
    q, qp = len(p.semis[1]), len(p.loops[1])
    t = k + 2 * m
    if ell == 0:
        split = f"{key}: F({k},{m})+F({q},{qp}) with no bars"
        if k <= 1 and q <= 1:
            return _sat(key, f"{split}: polynomial (each component has at most one semi-edge)")
        if t == 2:
            return _sat(key, f"{split}: polynomial (degree two)")
        return _np(key, f"{split} is NP-complete (a component has {max(k, q)} >= 2 "
                        f"semi-edges and degree {t} >= 3)")
    if t == 0:
        return _sat(key, f"{key}: W(0,0,{ell},0,0) bars only: polynomial (k+2m = 0)")
    if t + ell <= 2:
        return _sat(key, f"{key}: W({k},{m},{ell},{qp},{q}): polynomial (k+2m+l = {t + ell} < 3)")
    return _np(key, f"{key}: W({k},{m},{ell},{qp},{q}) is NP-complete (l = {ell} >= 1, "
                    f"k+2m = q+2p = {t} > 0 and k+2m+l = {t + ell} >= 3)")


def dichotomy_table(h: Graph) -> tuple[list[_Piece], list[Row]]:
    """The color-class pieces of a connected target h on one or two
    vertices, in class order, and the rows of the table for them.

    One vertex: each class is F(b,c) or a set of directed loops.  Two
    vertices that differ in color or type signature: the vertex map is
    forced, so each side's classes are one-vertex pieces, and a keyless
    last row covers the cross edges.  Two vertices that agree: each class
    constrains the side choice through its crossing counts (_side_clauses).
    """
    pieces = _h_pieces(h)
    if h.n == 1:
        return pieces, [_vertex_row(p, 0, _class_name(p)) for p in pieces]
    if type_signature(h, 0) != type_signature(h, 1):
        rows = [_vertex_row(p, s, f"vertex {s} {_class_name(p)}")
                for p in pieces for s in (0, 1) if p.semis[s] or p.loops[s]]
        rows.append(Row(None, "P", "cross edges split by color pair into regular bipartite "
                                   "multigraphs: polynomial", "bipartite-decomposition"))
        return pieces, rows
    return pieces, [_pair_row(p) for p in pieces]


# ------------------------------------------------------ one-vertex pieces

def _onto(matchings: list[list[tuple[int, int]]],
          targets: list[tuple[int, int]]) -> dict[int, int]:
    """Both darts of every arc in matching t go onto the dart pair targets[t]."""
    return {d: td for arcs, pair in zip(matchings, targets)
            for arc in arcs for d, td in zip(arc, pair)}


def _konig_onto(g: Graph, arcs: list[tuple[int, int]], tails: Sequence[int],
                heads: Sequence[int], targets: list[tuple[int, int]],
                ) -> dict[int, int] | None:
    """Map oriented links of g onto parallel target links, or None.

    arcs are (tail dart, head dart) pairs whose tail vertices lie in tails
    and head vertices in heads.  They must form a len(targets)-regular
    bipartite multigraph, which konig_split cuts into perfect matchings in
    the order of arcs; matching t goes onto targets[t].
    """
    at_tail = {v: i for i, v in enumerate(tails)}
    at_head = {v: i for i, v in enumerate(heads)}
    split = konig_split(len(tails), len(heads),
                        [(at_tail[g.vertex_of[a]], at_head[g.vertex_of[b]], i)
                         for i, (a, b) in enumerate(arcs)], len(targets))
    if split is None:
        return None
    return _onto([[arcs[i] for _, _, i in matching] for matching in split], targets)


def _decide_f(g: Graph, semis: list[int], loops: list[tuple[int, int]],
              ) -> dict[int, int] | None:
    """Dart assignment of g onto a one-vertex target with the given semi
    darts and loop dart pairs, or None.  The target is a polynomial F(b,c):
    b <= 1, or b = 2 and c = 0."""
    b, c = len(semis), len(loops)
    if any(g.degree(v) != b + 2 * c for v in range(g.n)):
        return None

    if b <= 1:
        # A target semi-edge pulls back to all semi-edges of g plus a
        # perfect matching of the semi-free vertices; what remains is
        # 2c-regular and semi-free, hence splits into c spanning 2-factors.
        m = exact_link_cover(g) if b else []
        if m is None:
            return None
        used = set(m)
        factors = two_factor_orientations(g, [l for l in range(g.n_links) if l not in used])
        if factors is None:
            return None
        out = _onto(factors, loops)
        out.update((d, semis[0]) for l in m for d in g.links[l])
        return out

    # b == 2, c == 0: 2-color the darts so that link mates agree and the
    # two darts at a vertex differ; the two darts of a loop do both.
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


# ------------------------------------------------ darts, once sides are fixed

def _map_sides(g: Graph, pieces: list[_Piece], side: list[int]) -> dict[int, int] | None:
    """Map g's darts onto the target pieces once side gives the target
    vertex of every g vertex, or None.  Every g vertex must have the type
    signature of its side.

    A link of g stays on one side or crosses.  The links of a
    monochromatic class that stay on side s form a one-vertex problem onto
    the class's semis and loops at s.  Every other piece is regular
    bipartite and goes through _konig_onto: a bicolored class's staying
    links, led by the lower-colored dart, onto its directed loops at s;
    and a class's crossing links, one direction at a time, onto its bars.
    A bicolored link's direction is the side of its lower-colored dart.
    """
    stay: dict[tuple[tuple[int, int], int], list[tuple[int, ...]]] = {}
    cross: dict[tuple[tuple[int, int], int], list[tuple[int, ...]]] = {}
    for cell in g.links:
        (lo, hi), led = _lead(g, cell)
        s = side[g.vertex_of[cell[0]]]
        if side[g.vertex_of[cell[-1]]] == s:
            stay.setdefault(((lo, hi), s), []).append(led)
        else:
            direction = side[g.vertex_of[led[0]]] if lo != hi else 0
            cross.setdefault(((lo, hi), direction), []).append(cell if s == 0 else cell[::-1])
    verts = [[v for v, s in enumerate(side) if s == t] for t in (0, 1)]
    out: dict[int, int] = {}
    for p in pieces:
        for s in (0, 1):
            cells = stay.get((p.colors, s), [])
            if not (cells or p.semis[s] or p.loops[s]):
                continue
            if p.colors[0] == p.colors[1]:
                darts = sorted(d for cell in cells for d in cell)
                part = _decide_f(_subgraph(g, verts[s], darts), p.semis[s], p.loops[s])
                if part is not None:
                    part = {darts[sd]: td for sd, td in part.items()}
            else:
                # by tail, head, then link: the split, and so the witness, follows this order
                arcs = sorted(cells, key=lambda arc: (g.vertex_of[arc[0]], g.vertex_of[arc[1]]))
                part = _konig_onto(g, arcs, verts[s], verts[s], p.loops[s])
            if part is None:
                return None
            out.update(part)
        for direction in (0, 1):
            arcs = cross.get((p.colors, direction), [])
            if p.bars[direction] or arcs:
                part = _konig_onto(g, arcs, verts[0], verts[1], p.bars[direction])
                if part is None:
                    return None
                out.update(part)
    return out


# ------------------------------------------------------- the sides, by 2-SAT

class _Refuted(Exception):
    """No choice of sides lets every color class map; the message says why."""


def _differ(clauses: list, u: int, w: int, differ: bool = True) -> None:
    """Clauses for side(u) != side(w), or for side(u) == side(w) when not
    differ.  The variable of a g vertex is true for target vertex 0."""
    if differ and u == w:
        raise _Refuted("a vertex would have to differ from itself")
    x = lit(w) if differ else neg(lit(w))
    clauses += ((lit(u), x), (neg(lit(u)), neg(x)))


def _side_clauses(g: Graph, h: Graph, pieces: list[_Piece], clauses: list) -> None:
    """Append the 2-SAT clauses on the sides of g's vertices, or raise
    _Refuted; h has two vertices of every g vertex's type signature.

    Of the D darts of a dart type (dart color, mate color) at target
    vertex 0, X lie on bars, so exactly X of the D darts of that type at a
    g vertex lie on crossing links.  The table lets a type through when
    X = 0 (an edge keeps its ends on one side), X = D (every link is an
    edge whose ends differ) or D = 2 (the far ends of the two darts
    differ, a link that cannot cross counting as the vertex itself).
    Each component of a monochromatic class without bars must also cover
    the one-vertex piece of its side, solved once per distinct piece.
    """
    types: dict[tuple[int, int], list[int]] = {}
    for d in h.darts_at[0]:
        dx = types.setdefault((h.dart_color[d], h.dart_color[h.mate[d]]), [0, 0])
        dx[0] += 1
        dx[1] += h.link_kind(h.link_of[d]) == EDGE
    c = g.dart_color
    first: dict[tuple[int, int, int], int] = {}  # far end of a type's first dart
    darts: dict[tuple[int, int], list[int]] = {}  # of each class, from the same pass
    for cell in g.links:
        darts.setdefault(_lead(g, cell)[0], []).extend(cell)
        dd, x = types[c[cell[0]], c[g.mate[cell[0]]]]
        ends = [g.vertex_of[d] for d in cell]
        if 0 < x < dd:
            for d, u, w in zip(cell, ends, ends[::-1]):
                a = first.pop(key := (u, c[d], c[g.mate[d]]), None)
                if a is None:
                    first[key] = w
                elif a == w == u:
                    raise _Refuted("no link at a vertex can cross")
                else:
                    _differ(clauses, a, w)
        elif ends[0] != ends[-1]:
            _differ(clauses, *ends, x == dd)
        elif x:
            raise _Refuted("a link of a bars-only class does not cross")
    for p in pieces:
        if p.colors[0] != p.colors[1] or p.bars[0]:
            continue
        sub = _subgraph(g, range(g.n), sorted(darts.get(p.colors, ())))
        same = (len(p.semis[0]), len(p.loops[0])) == (len(p.semis[1]), len(p.loops[1]))
        for comp in components(sub):
            ok0 = _decide_f(comp.graph, p.semis[0], p.loops[0]) is not None
            ok1 = ok0 if same else _decide_f(comp.graph, p.semis[1], p.loops[1]) is not None
            if not (ok0 or ok1):
                raise _Refuted("class component covers neither side")
            if ok0 != ok1:
                clauses.append((lit(comp.vertex_ids[0], ok0),) * 2)


def _decide(g: Graph, h: Graph, pieces: list[_Piece], rows: list[Row]) -> Verdict:
    """Cover g onto a target on one or two vertices whose rows are all P.

    A g vertex may only map onto a target vertex of its type signature.
    When the signatures tell h's vertices apart that fixes the sides;
    otherwise 2-SAT chooses them over _side_clauses, which are necessary
    and sufficient for every class to map.  _map_sides then maps the
    darts; the method is the highest tag among the rows.
    """
    if g.n == 0:
        return _stitched(g, h, {}, [], "regularity")
    sides = {type_signature(h, s): s for s in range(h.n)}
    side = []
    for u in range(g.n):  # stop at the first vertex no target vertex matches
        side.append(sides.get(type_signature(g, u)))
        if side[-1] is None:
            return Verdict(False, "regularity")
    method = max((r.method for r in rows), key=_TAG_RANK.__getitem__, default="regularity")
    forced = len(sides) == h.n
    if not forced:
        clauses: list[tuple[int, int]] = []
        try:
            _side_clauses(g, h, pieces, clauses)
        except _Refuted as no:
            return Verdict(False, method, reason=str(no))
        assignment = two_sat_solve(g.n, clauses)
        if assignment is None:
            return Verdict(False, method, reason="2-SAT unsatisfiable")
        side = [0 if x else 1 for x in assignment]
    dart_map = _map_sides(g, pieces, side)
    if dart_map is None:
        if not forced:
            raise RuntimeError("satisfying assignment failed witness expansion")
        return Verdict(False, method)
    return _stitched(g, h, dart_map, side, method)


# decide_colored calls the decider by case under these names, which perfbench times apart
def decide_colored_one_vertex(g: Graph, h: Graph, pieces: list[_Piece],
                              rows: list[Row]) -> Verdict:
    """Cover g onto a one-vertex colored target, class by class."""
    return _decide(g, h, pieces, rows)


def decide_two_vertex_nonregular(g: Graph, h: Graph, pieces: list[_Piece],
                                 rows: list[Row]) -> Verdict:
    """Cover g onto a two-vertex target whose type signatures differ."""
    return _decide(g, h, pieces, rows)


def decide_two_vertex_regular_2sat(g: Graph, h: Graph, pieces: list[_Piece],
                                   rows: list[Row]) -> Verdict:
    """Cover g onto a two-vertex target whose type signatures agree."""
    return _decide(g, h, pieces, rows)
