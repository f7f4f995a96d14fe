"""The P/NP-complete table for connected targets on at most two vertices,
and the decider it drives.

A link's color class is the pair (lower dart color, higher dart color),
read by _buckets; a semi-edge of color c is in (c, c), and a class is
directed when its colors differ.  _buckets sorts the links of target and
source alike into pieces by class and by the sides of their ends.
dichotomy_table buckets a target by its own vertex ids and gives one row
per piece: verdict, the rule that fired and the method tag.  A one-vertex
piece is F(b,c); on two vertices that agree in color and type signature
a class is W(k,m,l,p,q), WD(m,l,m) or a pair of one-vertex pieces.
dichotomy.classify reads the rows; decide_colored hands a target whose
rows are each P or tagged "side-search" to the decider with its
buckets, and the rest to exact search.

The decider only finds the side, the target vertex of each source
vertex: type signatures fix it, or _choose_sides applies one
crossing-count rule per dart type (_dart_types).  On a target whose rows
are all P the rules make a 2-SAT instance with only parity clauses (two
sides equal, or differ) and unit clauses, which one BFS per component
solves (graph._parity_solve).  On two vertices that agree, a W or WD
class is NP-complete through the side choice alone when its stay
buckets are polynomial one-vertex pieces; its row is then tagged
"side-search", some of its dart types count crossings beyond parity,
and _choose_sides searches the sides under the same clauses and counts.
_map_sides buckets the source under any such vertex map and maps each
bucket onto the target's of the same key.
Each regular bipartite piece (directed loops at a vertex, links between
two vertices) goes through one König routine, _konig_onto, which sends
perfect matching t onto the t-th target link; the oriented 2-factors of
F(b,c) go onto its loops the same way (_onto).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .cover import DartMapping, _check_budget, verify_cover
from .graph import EDGE, Graph, _parity_solve, _subgraph, components, type_signature
from .matching import exact_link_cover, konig_split, two_factor_orientations

_TAG_RANK = {"regularity": 0, "matching": 1, "2-factor": 2,
             "bipartite-decomposition": 3, "2-SAT": 4, "side-search": 5}


@dataclass(frozen=True)
class Verdict:
    """A decider's answer.

    method names the algorithm behind the answer: the highest method
    among the target's rows.  A no is tagged "regularity" when the type
    signatures alone rule the cover out, except on a target with a
    "side-search" row, where every answer, yes or no, is tagged
    "side-search".  reason says why the decider answered no: the vertex
    whose type signature no target vertex has, a color class that does
    not map once type signatures fix the sides, or the side constraint,
    unit or component that refuted every choice of sides.
    """
    answer: bool
    method: str
    witness: DartMapping | None = None
    reason: str = ""


def _stitched(g: Graph, h: Graph, dart_map: dict[int, int],
              vertex_map: list[int], method: str) -> Verdict:
    f = DartMapping(tuple(map(dart_map.__getitem__, range(g.n_darts))), tuple(vertex_map))
    bad = verify_cover(g, h, f)
    if bad:
        raise RuntimeError(f"decider produced a bad witness: {bad[0]}")
    return Verdict(True, method, f)


# ------------------------------------------------------------ the table

_Buckets = tuple[dict[tuple, list[tuple[int, ...]]], dict[tuple, list[tuple[int, ...]]]]


def _buckets(g: Graph, side: Sequence[int]) -> _Buckets:
    """g's links by color class and side, once side gives each vertex's
    side: a target's own vertex ids, or a vertex map of a source.

    A link's class is (lo, hi), its lower and higher dart color, and the
    link is led by its lo-colored dart (its first when the colors agree).
    stay[(class, s)] lists the links with both ends on side s, led.
    cross[(class, a, b)] lists those between sides a and b as (dart on
    the lower side, dart on the higher side); a is the side of the
    lower-colored dart, or the lower side if monochromatic.
    """
    stay: dict[tuple, list[tuple[int, ...]]] = {}
    cross: dict[tuple, list[tuple[int, ...]]] = {}
    c, vertex_of = g.dart_color, g.vertex_of
    for cell in g.links:
        lo, hi = c[cell[0]], c[cell[-1]]
        cls, led = ((lo, hi), cell) if lo <= hi else ((hi, lo), cell[::-1])
        a, b = side[vertex_of[led[0]]], side[vertex_of[led[-1]]]
        if a == b:
            stay.setdefault((cls, a), []).append(led)
        else:
            key = (cls, a, b) if cls[0] != cls[1] or a < b else (cls, b, a)
            cross.setdefault(key, []).append(led if a < b else led[::-1])
    return stay, cross


def _semis_loops(cells: list[tuple[int, ...]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """A monochromatic stay bucket as F(b,c): its b semi darts and c loops."""
    return [c[0] for c in cells if len(c) == 1], [c for c in cells if len(c) == 2]


class Row(NamedTuple):
    """One row of the dichotomy table."""
    key: str | None        # name in Classification.pieces; None for a rule on the whole target
    verdict: str           # "P" | "NP-complete"
    rule: str
    method: str            # Verdict.method of the decider


def _class_name(cls: tuple[int, int]) -> str:
    lo, hi = cls
    return f"color {lo}" if lo == hi else f"colors ({lo},{hi})"


def _np(key: str, rule: str, method: str = "brute-force-fallback") -> Row:
    return Row(key, "NP-complete", rule, method)


def _sat(key: str, rule: str) -> Row:
    return Row(key, "P", rule, "2-SAT")


def _f_polynomial(b: int, c: int) -> bool:
    return b <= 1 or (b, c) == (2, 0)


def _vertex_row(cls: tuple[int, int], cells: list[tuple[int, ...]], key: str) -> Row:
    """A stay bucket of class cls at one vertex, alone: F(b,c) or directed loops."""
    if cls[0] != cls[1]:
        return Row(key, "P", f"{key}: directed loops at one vertex are always polynomial",
                   "bipartite-decomposition")
    b, c = map(len, _semis_loops(cells))
    if _f_polynomial(b, c):
        method = "matching" if b == 1 else "2-factor" if b == 0 and c else "regularity"
        return Row(key, "P", f"{key}: F({b},{c}) is polynomial ({b} <= 1 or ({b},{c}) = (2,0))",
                   method)
    return _np(key, f"{key}: F({b},{c}) is NP-complete ({b} >= 2 and {b}+{c} = {b + c} >= 3)")


def _pair_row(cls: tuple[int, int], stay: dict, cross: dict) -> Row:
    """A class of a target whose two vertices agree: its 2-SAT constraint."""
    key = _class_name(cls)
    ell = len(cross.get((cls, 0, 1), ()))
    if cls[0] != cls[1]:
        m = len(stay.get((cls, 0), ()))
        if ell == 0:
            return _sat(key, f"{key}: directed loops with no cross edges: polynomial")
        if m == 0:
            return _sat(key, f"{key}: WD(0,{ell},0) directed bars only: polynomial (m = 0)")
        if m + ell <= 2:
            return _sat(key, f"{key}: WD(1,1,1): polynomial (m+l = 2 < 3)")
        return _np(key, f"{key}: WD({m},{ell},{m}) is NP-complete (l = {ell} >= 1, "
                        f"m = {m} > 0 and m+l = {m + ell} >= 3)", "side-search")
    k, m = map(len, _semis_loops(stay.get((cls, 0), [])))
    q, qp = map(len, _semis_loops(stay.get((cls, 1), [])))
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
                    f"k+2m = q+2p = {t} > 0 and k+2m+l = {t + ell} >= 3)",
               "side-search" if _f_polynomial(k, m) and _f_polynomial(q, qp)
               else "brute-force-fallback")


def dichotomy_table(h: Graph) -> tuple[_Buckets, list[Row]]:
    """The link buckets of a connected target h on one or two vertices,
    by its own vertex ids, and the rows of the table, in class order.

    One vertex: each class is F(b,c) or a set of directed loops.  Two
    vertices that differ in color or type signature: the vertex map is
    forced, so each stay bucket is a one-vertex piece, and a keyless last
    row covers the cross buckets.  Two vertices that agree: each class
    constrains the side choice through its crossing counts (_choose_sides).
    """
    stay, cross = _buckets(h, range(h.n))
    stay = dict(sorted(stay.items()))  # class order, for the rows and _choose_sides
    if h.n == 1:
        return (stay, cross), [_vertex_row(cls, cells, _class_name(cls))
                               for (cls, _), cells in stay.items()]
    if type_signature(h, 0) != type_signature(h, 1):
        rows = [_vertex_row(cls, cells, f"vertex {s} {_class_name(cls)}")
                for (cls, s), cells in stay.items()]
        rows.append(Row(None, "P", "cross edges split by color pair into regular bipartite "
                                   "multigraphs: polynomial", "bipartite-decomposition"))
        return (stay, cross), rows
    classes = sorted({key[0] for key in (*stay, *cross)})
    return (stay, cross), [_pair_row(cls, stay, cross) for cls in classes]


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


def _decide_f(g: Graph, cells: list[tuple[int, ...]]) -> dict[int, int] | None:
    """Dart assignment of g onto a one-vertex target whose links are the
    monochromatic stay bucket cells, or None.  The target is a polynomial
    F(b,c): b <= 1, or b = 2 and c = 0."""
    semis, loops = _semis_loops(cells)
    b, c = len(semis), len(loops)
    degree = b + 2 * c
    if any(len(darts) != degree for darts in g.darts_at):
        return None

    if (b, c) == (1, 0):
        # every vertex has one dart, so every link is in the cover
        return dict.fromkeys(range(g.n_darts), semis[0])
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
    sibling = [0] * g.n_darts
    for d, e in g.darts_at:
        sibling[d], sibling[e] = e, d
    val = _parity_solve([[(m, 0), (sibling[d], 1)] for d, m in enumerate(g.mate)], [])
    return None if val is None else {d: semis[v] for d, v in enumerate(val)}


# ------------------------------------------------ darts, once sides are fixed

def _map_sides(g: Graph, buckets: _Buckets, side: Sequence[int]) -> dict[int, int] | None:
    """Map g's darts onto the target buckets once side gives the target
    vertex of every g vertex, or None.  Every g vertex must have the type
    signature of its side.

    Each target bucket takes the bucket of g of the same key; a g link
    under no target key leaves some bucket short, since every g vertex
    has the dart types of its side.  A monochromatic stay bucket is a
    one-vertex problem (_decide_f); every other bucket is regular
    bipartite and goes through _konig_onto: a directed stay bucket onto
    its directed loops, a cross bucket onto the links between its sides.
    """
    stay, cross = _buckets(g, side)
    h_stay, h_cross = buckets
    verts = {t: [v for v, s in enumerate(side) if s == t] for t in set(side)}
    out: dict[int, int] = {}
    for key, targets in h_stay.items():
        (lo, hi), s = key
        cells, on_s = stay.get(key, []), verts.get(s, [])
        if lo == hi:
            darts = sorted(d for cell in cells for d in cell)
            part = _decide_f(_subgraph(g, on_s, darts), targets)
            if part is not None:
                part = {darts[sd]: td for sd, td in part.items()}
        else:
            # by tail, head, then link: the split, and so the witness, follows this order
            arcs = sorted(cells, key=lambda arc: (g.vertex_of[arc[0]], g.vertex_of[arc[1]]))
            part = _konig_onto(g, arcs, on_s, on_s, targets)
        if part is None:
            return None
        out.update(part)
    for key, targets in h_cross.items():
        _, a, b = key
        part = _konig_onto(g, cross.get(key, []), verts.get(min(a, b), []),
                           verts.get(max(a, b), []), targets)
        if part is None:
            return None
        out.update(part)
    return out


# ------------------------------------------------------------ the sides

class _Refuted(Exception):
    """No choice of sides lets every color class map; the message says why."""


def _dart_types(h: Graph) -> dict[tuple[int, int], tuple[int, int]]:
    """(D, X) per dart type (dart color, mate color) at target vertex 0:
    its D darts there, X of them on bars.  Vertex 1 has the same counts
    when the two vertices agree in type signature."""
    types: dict[tuple[int, int], tuple[int, int]] = {}
    for d in h.darts_at[0]:
        dd, x = types.get(t := (h.dart_color[d], h.dart_color[h.mate[d]]), (0, 0))
        types[t] = dd + 1, x + (h.link_kind(h.link_of[d]) == EDGE)
    return types


def _choose_sides(g: Graph, h: Graph, buckets: _Buckets,
                  ) -> tuple[list[int], dict[int, int]]:
    """The side of every g vertex and g's darts mapped under them, or raise
    _Refuted.  h has two vertices of every g vertex's type signature.

    Of the D darts of a dart type (dart color, mate color) at target
    vertex 0, X lie on bars, so exactly X of the D darts of that type at a
    g vertex lie on crossing links.  A type with X = 0 (an edge keeps its
    ends on one side), X = D (every link is an edge whose ends differ) or
    D = 2 (the far ends of the two darts differ, a link that cannot cross
    counting as the vertex itself) gives parity edges.  Each component of
    a monochromatic class without bars must also cover the class's stay
    bucket at its side, solved once per distinct bucket; one that covers
    a single side is a unit.  When the rows are all P every type is of
    these kinds, the constraints are necessary and sufficient for every
    class to map, and _parity_solve solves them.

    Any other type (0 < X < D, D > 2) is a counting rule, and the sides
    are searched: component by component in BFS order, over an explicit
    stack of choice points, side 0 before side 1.  The units are set
    first.  Every assignment propagates the parity edges, and the
    counting rules at the vertex and at each neighbour: once a count is
    met, the free far ends of the type are forced.  At a
    component's leaf _map_sides maps its darts; a component that maps is
    final.  A unit that clashes with the side constraints, or a
    component that no sides map, refutes; the reason names its vertex.
    """
    types = _dart_types(h)
    counting = [(t, x) for t, (dd, x) in types.items() if dd > 2 and 0 < x < dd]
    c, mate, vertex_of = g.dart_color, g.mate, g.vertex_of
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    # per vertex: (crossings wanted, stays allowed, far ends) of each counting type
    rules: list[list[tuple[int, int, list[int]]]] = []
    # far end of the first dart of a D = 2 type at u; empty again after
    # each vertex, since such a type has two darts at every vertex
    first: dict[tuple[int, int], int] = {}
    for u, darts in enumerate(g.darts_at):
        far: dict[tuple[int, int], list[int]] = {}
        for d in darts:
            dd, x = types[t := (c[d], c[mate[d]])]
            w = vertex_of[mate[d]]
            if 0 < x < dd:
                if dd > 2:
                    if w != u:
                        far.setdefault(t, []).append(w)
                elif (a := first.pop(t, None)) is None:
                    first[t] = w
                elif a == w == u:
                    raise _Refuted("no link at a vertex can cross")
                elif a == w:
                    raise _Refuted("a vertex would have to differ from itself")
                else:
                    adj[a].append((w, 1))
                    adj[w].append((a, 1))
            elif w != u:
                adj[u].append((w, x == dd))
            elif x:
                raise _Refuted("a link of a bars-only class does not cross")
        rules.append([])
        for t, x in counting:
            ws = far.get(t, [])
            if len(ws) < x:
                raise _Refuted("semi-edges and loops cannot cross")
            rules[u].append((x, len(ws) - x, ws))
    stay, cross = buckets
    units: list[tuple[int, int]] = []
    for (cls, s), cells in stay.items():
        if s or cls[0] != cls[1] or (cls, 0, 1) in cross:
            continue
        col = cls[0]
        sub = _subgraph(g, range(g.n), [d for d in range(g.n_darts)
                                        if c[d] == col and c[mate[d]] == col])
        same = sorted(map(len, cells)) == sorted(map(len, stay[cls, 1]))
        for comp in components(sub):
            ok0 = _decide_f(comp.graph, cells) is not None
            ok1 = ok0 if same else _decide_f(comp.graph, stay[cls, 1]) is not None
            if not (ok0 or ok1):
                raise _Refuted("class component covers neither side")
            if ok0 != ok1:
                units.append((comp.vertex_ids[0], int(ok1)))
    if not counting:
        side = _parity_solve(adj, units)
        if side is None:
            raise _Refuted("2-SAT unsatisfiable")
        dart_map = _map_sides(g, buckets, side)
        if dart_map is None:
            raise RuntimeError("satisfying assignment failed witness expansion")
        return side, dart_map

    nbrs = [sorted({w for d in darts if (w := vertex_of[mate[d]]) != u})
            for u, darts in enumerate(g.darts_at)]
    side = [-1] * g.n
    trail: list[int] = []   # vertices in the order they got a side
    queue: list[int] = []   # of those, the ones not yet propagated

    def settle(v: int, s: int) -> None:
        side[v] = s
        trail.append(v)
        queue.append(v)

    def counts_hold(x: int) -> bool:
        s = side[x]
        for cross, stay, ws in rules[x]:
            for w in ws:
                if side[w] == s:
                    stay -= 1
                elif side[w] >= 0:
                    cross -= 1
            if cross < 0 or stay < 0:
                return False
            if cross == 0 or stay == 0:
                for w in ws:
                    if side[w] < 0:
                        settle(w, s if cross == 0 else 1 - s)
        return True

    def propagate() -> bool:
        while queue:
            v = queue.pop()
            s = side[v]
            for w, p in adj[v]:
                if side[w] < 0:
                    settle(w, s ^ p)
                elif side[w] != s ^ p:
                    queue.clear()
                    return False
            for x in (v, *nbrs[v]):
                if side[x] >= 0 and not counts_hold(x):
                    queue.clear()
                    return False
        return True

    for v, s in units:
        if side[v] < 0:
            settle(v, s)
        if side[v] != s or not propagate():
            raise _Refuted(f"the unit side {s} of vertex {v} clashes with the side constraints")
    dart_map: dict[int, int] = {}
    for comp in components(g):
        order = [comp.vertex_ids[0]]
        seen = set(order)
        for v in order:
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        trail.clear()       # the units and the finished components are final
        stack: list[tuple[int, Iterator[int], int]] = []  # (position, untried sides, trail len)
        pos = 0
        while True:
            while pos < len(order) and side[order[pos]] >= 0:
                pos += 1
            if pos < len(order):
                stack.append((pos, iter((0, 1)), len(trail)))
            else:
                part = _map_sides(comp.graph, buckets, [side[v] for v in comp.vertex_ids])
                if part is not None:
                    dart_map.update((comp.dart_ids[d], e) for d, e in part.items())
                    break
            while stack:
                pos, untried, t = stack[-1]
                for v in trail[t:]:
                    side[v] = -1
                del trail[t:]
                s = next(untried, -1)
                if s == -1:
                    stack.pop()
                else:
                    settle(order[pos], s)
                    if propagate():
                        break
            else:
                raise _Refuted(f"no sides map the component of vertex {comp.vertex_ids[0]}")
    return side, dart_map


def _decide(g: Graph, h: Graph, buckets: _Buckets, rows: list[Row], *,
            budget: int | None = None) -> Verdict:
    """Cover g onto a target on one or two vertices whose rows are each P
    or tagged "side-search".

    A g vertex may only map onto a target vertex of its type signature.
    When the signatures tell h's vertices apart that fixes the sides, and
    _map_sides maps the darts; otherwise _choose_sides chooses the sides
    and maps the darts, and a no from one of its refutations carries the
    reason.  The method is the highest tag among the rows: "2-SAT" on two
    vertices that agree, "side-search" when a row is NP-complete.  Then
    every answer is tagged "side-search", and the budget bounds g's dart
    count as in find_cover (_check_budget) before any other work.
    """
    method = max((r.method for r in rows), key=_TAG_RANK.__getitem__, default="regularity")
    searched = method == "side-search"
    if searched:
        _check_budget(g, budget)
    plain = method if searched else "regularity"  # the tag when type signatures decide
    if g.n == 0:
        return _stitched(g, h, {}, [], plain)
    sides = {type_signature(h, s): s for s in range(h.n)}
    # type_signature of each g vertex, from one (dart color, mate color) list
    c, vertex_color = g.dart_color, g.vertex_color
    types = list(zip(c, map(c.__getitem__, g.mate)))
    side = []
    for u, darts in enumerate(g.darts_at):  # stop at the first vertex no target vertex matches
        side.append(sides.get((vertex_color[u], tuple(sorted(map(types.__getitem__, darts))))))
        if side[-1] is None:
            return Verdict(False, plain,
                           reason=f"no target vertex has the type signature of vertex {u}")
    if len(sides) == h.n:
        dart_map = _map_sides(g, buckets, side)
    else:
        try:
            side, dart_map = _choose_sides(g, h, buckets)
        except _Refuted as no:
            return Verdict(False, method, reason=str(no))
    if dart_map is None:
        return Verdict(False, method, reason="a color class does not map")
    return _stitched(g, h, dart_map, side, method)


# decide_colored calls the decider by case under these names, which perfbench times apart
def decide_colored_one_vertex(g: Graph, h: Graph, buckets: _Buckets,
                              rows: list[Row]) -> Verdict:
    """Cover g onto a one-vertex colored target, class by class."""
    return _decide(g, h, buckets, rows)


def decide_two_vertex_nonregular(g: Graph, h: Graph, buckets: _Buckets,
                                 rows: list[Row]) -> Verdict:
    """Cover g onto a two-vertex target whose type signatures differ."""
    return _decide(g, h, buckets, rows)


def decide_two_vertex_regular_2sat(g: Graph, h: Graph, buckets: _Buckets,
                                   rows: list[Row], *, budget: int | None = None) -> Verdict:
    """Cover g onto a two-vertex target whose type signatures agree."""
    return _decide(g, h, buckets, rows, budget=budget)
