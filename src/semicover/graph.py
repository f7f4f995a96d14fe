"""Dart-based multigraphs with loops, semi-edges, and dart/vertex colors.

A graph is a finite set of darts (half-edges) with two partitions on top:
one into vertices (cells of any size, empty cells allowed for isolated
vertices) and one into links (cells of size one or two).  A one-dart link
is a semi-edge, a two-dart link inside a single vertex is a loop, and a
two-dart link across two vertices is an ordinary edge.  The degree of a
vertex is the number of darts in it, so a loop contributes two.  The
links are also an involution on the darts, ``Graph.mate``: the other dart
of a dart's link, and a semi-edge's dart is its own mate (the dart
formalism of Malnič, Nedela and Škoviera, Europ. J. Combin. 21, 2000).

Input is checked where it enters, by each of the two ways in.
:class:`GraphBuilder` checks the graph rules (known end vertices,
non-negative colors, two distinct ends for an edge) on each call and
rejects a bad argument before it changes anything.  :func:`parse_graph`
fills the dart arrays straight from the text and checks, on each line,
its syntax and the same graph rules with the builder's messages; it
reports every error with its line number.  :func:`serialize_graph`
writes the same format back.  ``Graph(...)`` itself trusts its arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Callable, Iterable, Sequence, TypeVar

SEMI = "semi"
LOOP = "loop"
EDGE = "edge"

_KIND_RANK = {SEMI: 0, LOOP: 1, EDGE: 2}
# the color token of a link of one dart and of two: prefix, its form in
# messages, and the token itself; a color is ASCII, since int() alone also
# takes "+3", "1_0" and non-ASCII digits
_COLOR_TOKEN = {1: ("color=", "color=<n>", re.compile(r"color=(-?[0-9]+)")),
                2: ("colors=", "colors=<i>,<j>", re.compile(r"colors=(-?[0-9]+),(-?[0-9]+)"))}


class Graph:
    """Immutable multigraph in dart representation.

    Darts and vertices are dense integer ids.  ``vertex_of[d]`` and
    ``link_of[d]`` place dart ``d`` in its vertex and link cell, and
    ``mate[d]`` is the other dart of that link; the fixed points of
    ``mate`` are exactly the darts of semi-edges.  Instances
    are built with :class:`GraphBuilder`, :func:`parse_graph`, or the
    constructors in :mod:`semicover.build`; treat them as frozen.  The
    constructor does not check its arrays: every dart must name a vertex
    in ``range(n)`` and a link, and every link needs one or two darts.
    """

    __slots__ = ("n", "vertex_of", "link_of", "dart_color", "vertex_color",
                 "names", "darts_at", "links", "mate", "_kinds", "_plan")

    def __init__(self, n: int, vertex_of: Sequence[int], link_of: Sequence[int],
                 dart_color: Sequence[int] | None = None,
                 vertex_color: Sequence[int] | None = None,
                 names: Sequence[str] | None = None):
        self.n = n
        self.vertex_of = vertex_of = tuple(vertex_of)
        self.link_of = link_of = tuple(link_of)
        nd = len(vertex_of)
        self.dart_color = tuple(dart_color) if dart_color is not None else (0,) * nd
        self.vertex_color = tuple(vertex_color) if vertex_color is not None else (0,) * n
        self.names = tuple(names) if names is not None else tuple(f"v{i}" for i in range(n))
        # one pass: each dart joins its vertex, and the second dart of a
        # link pairs with the first, found in the first-dart table
        darts_at: list[list[int]] = [[] for _ in range(n)]
        first = [-1] * (max(link_of, default=-1) + 1)
        mate = list(range(nd))
        for d, l in enumerate(link_of):
            darts_at[vertex_of[d]].append(d)
            a = first[l]
            if a < 0:
                first[l] = d
            else:
                mate[a] = d
                mate[d] = a
        self.darts_at = tuple(map(tuple, darts_at))
        self.links = tuple([(a,) if a == mate[a] else (a, mate[a]) for a in first])
        self.mate = tuple(mate)
        self._kinds = tuple([SEMI if a == (b := mate[a]) else
                             LOOP if vertex_of[a] == vertex_of[b] else EDGE for a in first])
        self._plan: dict | None = None  # see _planned

    @property
    def n_darts(self) -> int:
        return len(self.vertex_of)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def degree(self, v: int) -> int:
        return len(self.darts_at[v])

    def link_kind(self, l: int) -> str:
        return self._kinds[l]

    def link_ends(self, l: int) -> tuple[int, ...]:
        return tuple(self.vertex_of[d] for d in self.links[l])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, darts={self.n_darts}, links={self.n_links})"


class GraphBuilder:
    """Accumulates vertices and links, then freezes into a Graph.

    Each call checks its own arguments (known end vertices, one
    non-negative color per dart, two distinct ends for an edge) before it
    changes anything, so a rejected call leaves the builder as it was and
    every built graph is valid.  parse_graph does not go through the
    builder: it checks the same rules on each line, with the same
    messages, and adds the line number.
    """

    def __init__(self) -> None:
        self._vertex_color: list[int] = []
        self._names: list[str] = []
        self._vertex_of: list[int] = []
        self._link_of: list[int] = []
        self._dart_color: list[int] = []
        self._n_links = 0

    def add_vertex(self, color: int = 0, name: str | None = None) -> int:
        if color < 0:
            raise ValueError(f"negative color {color}")
        v = len(self._vertex_color)
        self._vertex_color.append(color)
        self._names.append(name if name is not None else f"v{v}")
        return v

    def _check(self, v: int, color: int) -> None:
        if not 0 <= v < len(self._vertex_color):
            raise ValueError(f"unknown vertex {v}")
        if color < 0:
            raise ValueError(f"negative color {color}")

    def _link(self, u: int, v: int, colors: tuple[int, int]) -> int:
        """Add the link of a dart at u and one at v, colored in order."""
        if len(colors) != 2:
            raise ValueError(f"expected two dart colors, got {tuple(colors)}")
        cu, cv = colors
        self._check(u, cu)
        self._check(v, cv)
        l = self._n_links
        self._n_links += 1
        self._vertex_of.append(u)
        self._vertex_of.append(v)
        self._link_of.append(l)
        self._link_of.append(l)
        self._dart_color.append(cu)
        self._dart_color.append(cv)
        return l

    def add_edge(self, u: int, v: int, colors: tuple[int, int] = (0, 0)) -> int:
        if u == v:
            raise ValueError("edge endpoints coincide; use a loop")
        return self._link(u, v, colors)

    def add_loop(self, v: int, colors: tuple[int, int] = (0, 0)) -> int:
        return self._link(v, v, colors)

    def add_semi(self, v: int, color: int = 0) -> int:
        self._check(v, color)
        l = self._n_links
        self._n_links += 1
        self._vertex_of.append(v)
        self._link_of.append(l)
        self._dart_color.append(color)
        return l

    def build(self) -> Graph:
        return Graph(len(self._vertex_color), self._vertex_of, self._link_of,
                     self._dart_color, self._vertex_color, self._names)


_T = TypeVar("_T")


def _planned(g: Graph, build: Callable[[Graph], _T]) -> _T:
    """build(g), built the first time g is used as a target and kept in
    g's plan, one part per builder (the decider and search plans, the
    split of a disconnected g), so that it is freed with g.  No part
    refers to g, so nothing but g's users keeps g alive."""
    plan = g._plan
    if plan is None:
        plan = g._plan = {}
    part = plan.get(build)
    if part is None:
        part = plan[build] = build(g)
    return part


def type_signature(g: Graph, v: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex color together with the sorted (dart color, mate color)
    types of the darts at v.

    A dart's type is its color and the color set of its link, and the
    color of its mate says the same.  Any covering projection preserves,
    per vertex, the count of darts of each type, so equal type signatures
    are a necessary condition for one vertex to map onto another.  Only
    their equality is meaningful.
    """
    c = g.dart_color
    return g.vertex_color[v], tuple(sorted((c[d], c[g.mate[d]]) for d in g.darts_at[v]))


def _type_weights(h: Graph) -> tuple[dict[tuple[int, int], int], int]:
    """The weight _signatures sums per dart type of h, and for any other.
    With D one more than h's largest degree and T types, type f weighs
    D**f + D**T: base-D field f counts its darts and field T all darts;
    any other type weighs D**(T+1).  Codes below D**(T+1), h's among them,
    are exact, so a vertex of any degree and one of h get equal codes
    exactly when their type signatures are equal."""
    c = h.dart_color
    types = dict.fromkeys(zip(c, map(c.__getitem__, h.mate)))
    base = max(map(len, h.darts_at), default=0) + 1
    top = base ** len(types)
    return {t: base ** f + top for f, t in enumerate(types)}, top * base


def _signatures(g: Graph, weights: tuple) -> list[tuple[int, int]]:
    """Each vertex's color and the sum of its darts' weights of a target
    (_type_weights), in one pass over the darts."""
    weight, lack = weights
    c = g.dart_color
    code = [0] * g.n
    for v, x in zip(g.vertex_of, map(weight.get, zip(c, map(c.__getitem__, g.mate)),
                                     repeat(lack))):
        code[v] += x
    return list(zip(g.vertex_color, code))


def is_simple(g: Graph) -> bool:
    """No loops, no semi-edges, no repeated edges."""
    seen = set()
    for l in range(g.n_links):
        if g.link_kind(l) != EDGE:
            return False
        ends = tuple(sorted(g.link_ends(l)))
        if ends in seen:
            return False
        seen.add(ends)
    return True


def is_regular(g: Graph) -> bool:
    degs = {g.degree(v) for v in range(g.n)}
    return len(degs) <= 1


def is_connected(g: Graph) -> bool:
    return max(_component_labels(g), default=0) == 0


def is_bipartite(g: Graph) -> bool:
    """2-colorability of the edge structure; any loop or semi-edge fails,
    since it joins a vertex to itself."""
    return _parity_solve([[(g.vertex_of[g.mate[d]], 1) for d in darts]
                          for darts in g.darts_at], []) is not None


def _parity_solve(adj: list[list[tuple[int, int]]],
                  units: list[tuple[int, int]]) -> list[int] | None:
    """Sides 0/1 of the vertices of adj, or None when none fit.

    adj[u] lists (w, p) for side(u) ^ side(w) = p, each constraint from
    both ends; units are (v, s) for side(v) = s.  This is 2-SAT with only
    parity and unit clauses, so one BFS per component of adj solves it:
    from its first unit if it has one, else from its lowest vertex at
    side 0.  An odd cycle, or a unit that disagrees, has no solution.
    """
    side = [-1] * len(adj)
    for r, s in chain(units, ((v, 0) for v in range(len(adj)))):
        if side[r] >= 0:
            continue
        side[r] = s
        queue = [r]
        for u in queue:
            su = side[u]
            for w, p in adj[u]:
                if side[w] < 0:
                    side[w] = su ^ p
                    queue.append(w)
                elif side[w] != su ^ p:
                    return None
    if any(side[v] != s for v, s in units):
        return None
    return side


@dataclass(frozen=True)
class Component:
    """One connected component with maps back to the original ids.  graph
    may be shared with equal components (see components); vertex_ids
    name the component's own vertices in the original graph."""
    graph: Graph
    vertex_ids: tuple[int, ...]
    dart_ids: tuple[int, ...]


def _component_labels(g: Graph) -> list[int]:
    """Each vertex's component, named by the component's smallest vertex."""
    darts_at, vertex_of, mate = g.darts_at, g.vertex_of, g.mate
    label = [-1] * g.n
    for start in range(g.n):
        if label[start] != -1:
            continue
        label[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for d in darts_at[u]:
                w = vertex_of[mate[d]]
                if label[w] == -1:
                    label[w] = start
                    stack.append(w)
    return label


def _split(g: Graph, label: list[int],
           ) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple]]:
    """Each component's vertex ids, dart ids and arrays (n, vertex_of,
    link_of, dart_color, vertex_color) as _subgraph numbers them (links in
    the order of their ids), in one pass each over vertices, links, darts.
    label is g's _component_labels."""
    vertex_of, link_of, dart_color = g.vertex_of, g.link_of, g.dart_color
    vertex_color = g.vertex_color
    verts: dict[int, list[int]] = {}    # by smallest vertex
    for v, r in enumerate(label):
        verts.setdefault(r, []).append(v)
    darts: dict[int, list[int]] = {r: [] for r in verts}
    for d, v in enumerate(vertex_of):
        darts[label[v]].append(d)
    at = {r: count().__next__ for r in verts}
    local = [at[r]() for r in label]    # each vertex's id in its component
    at = {r: count().__next__ for r in verts}
    lid = [at[label[vertex_of[cell[0]]]]() for cell in g.links]     # and each link's
    return [(tuple(vs), tuple(ds), (len(vs), tuple([local[vertex_of[d]] for d in ds]),
                                    tuple([lid[link_of[d]] for d in ds]),
                                    tuple([dart_color[d] for d in ds]),
                                    tuple([vertex_color[v] for v in vs])))
            for vs, ds in zip(verts.values(), darts.values())]


def components(g: Graph) -> list[Component]:
    """Connected components, ordered by smallest original vertex id.

    Isolated vertices form their own single-vertex components.  A
    connected g is its own component, with identity ids, and is not split.
    Otherwise components with equal arrays (_split), all a decider reads,
    share one Graph, built once and without names: vertex_ids name each
    member's vertices through g.
    """
    label = _component_labels(g)
    if max(label, default=-1) == 0:
        return [Component(g, tuple(range(g.n)), tuple(range(g.n_darts)))]
    split = _split(g, label)
    graphs = {arrays: Graph(*arrays) for arrays in dict.fromkeys(a for _, _, a in split)}
    return [Component(graphs[arrays], vs, ds) for vs, ds, arrays in split]


def _subgraph(g: Graph, verts: Sequence[int], darts: Sequence[int]) -> Graph:
    """The graph on the given vertices and darts of g, renumbered in the
    order given; links keep the order of their original ids."""
    vmap = {v: i for i, v in enumerate(verts)}
    links = sorted({g.link_of[d] for d in darts})
    lmap = {l: i for i, l in enumerate(links)}
    return Graph(len(verts),
                 [vmap[g.vertex_of[d]] for d in darts],
                 [lmap[g.link_of[d]] for d in darts],
                 [g.dart_color[d] for d in darts],
                 [g.vertex_color[v] for v in verts],
                 [g.names[v] for v in verts])


def induced_link_subgraph(g: Graph, colors: frozenset[int],
                          ) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph keeping all vertices and the links whose dart color set is
    exactly ``colors``; also the original dart id for each new dart."""
    keep = [frozenset(g.dart_color[d] for d in cell) == colors for cell in g.links]
    darts = [d for d in range(g.n_darts) if keep[g.link_of[d]]]
    return _subgraph(g, range(g.n), darts), tuple(darts)


def induced_vertex_subgraph(g: Graph, vertices: Iterable[int],
                            ) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Subgraph on a vertex subset, keeping links with every end inside it:
    a dart stays when its own vertex and its mate's vertex are inside."""
    verts = sorted(set(vertices))
    vset = set(verts)
    darts = [d for d, v in enumerate(g.vertex_of) if v in vset and g.vertex_of[g.mate[d]] in vset]
    return _subgraph(g, verts, darts), tuple(verts), tuple(darts)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union; vertex, dart, and link ids are shifted in order."""
    vertex_of: list[int] = []
    link_of: list[int] = []
    dart_color: list[int] = []
    vertex_color: list[int] = []
    names: list[str] = []
    voff = loff = 0
    for idx, g in enumerate(graphs):
        vertex_of.extend(v + voff for v in g.vertex_of)
        link_of.extend(l + loff for l in g.link_of)
        dart_color.extend(g.dart_color)
        vertex_color.extend(g.vertex_color)
        names.extend(f"g{idx}_{nm}" if len(graphs) > 1 else nm for nm in g.names)
        voff += g.n
        loff += g.n_links
    return Graph(voff, vertex_of, link_of, dart_color, vertex_color, names)


class GraphFormatError(ValueError):
    """Raised on graph text that is malformed or breaks a graph rule;
    carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph format.

    Lines are ``vertex <id> [color=<n>]``, ``edge <u> <v> [colors=<i>,<j>]``,
    ``loop <u> [colors=<i>,<j>]``, and ``semi <u> [color=<i>]``, where a
    color is an ASCII integer.  Blank lines and ``#`` comments are ignored.
    Vertices must be declared before use.

    Each line is checked as it is read and goes straight into the dart
    arrays: first its syntax (directive, arity, vertex names, color
    tokens), then the graph rules that :class:`GraphBuilder` checks per
    call, with the builder's messages (an edge joins two vertices, colors
    are non-negative).  On a line that breaks several, an undeclared
    vertex comes first, then a bad color token, then coinciding edge
    ends, then a negative color.  Every error is raised as
    :class:`GraphFormatError` with its line.
    """
    ids: dict[str, int] = {}
    names: list[str] = []
    vertex_color: list[int] = []
    vertex_of: list[int] = []
    link_of: list[int] = []
    dart_color: list[int] = []
    n_links = 0
    try:
        for ln, raw in enumerate(text.splitlines(), start=1):
            if "#" in raw:
                raw = raw[:raw.index("#")]
            toks = raw.split()
            if not toks:
                continue
            kw = toks[0]
            n_args = len(toks) - 1
            if kw == "edge":
                if n_args != 2 and n_args != 3:
                    raise ValueError("edge takes two vertices and optional colors")
                u = ids[toks[1]]
                v = ids[toks[2]]
                cu, cv = _colors(toks[3], 2) if n_args == 3 else (0, 0)
                if u == v:
                    raise ValueError("edge endpoints coincide; use a loop")
            elif kw == "vertex":
                if n_args != 1 and n_args != 2:
                    raise ValueError("vertex takes an id and an optional color")
                name = toks[1]
                if name in ids:
                    raise ValueError(f"duplicate vertex {name!r}")
                c = _colors(toks[2], 1)[0] if n_args == 2 else 0
                if c < 0:
                    raise ValueError(f"negative color {c}")
                ids[name] = len(names)
                names.append(name)
                vertex_color.append(c)
                continue
            elif kw == "loop":
                if n_args != 1 and n_args != 2:
                    raise ValueError("loop takes one vertex and optional colors")
                u = v = ids[toks[1]]
                cu, cv = _colors(toks[2], 2) if n_args == 2 else (0, 0)
            elif kw == "semi":
                if n_args != 1 and n_args != 2:
                    raise ValueError("semi takes one vertex and an optional color")
                u = ids[toks[1]]
                c = _colors(toks[2], 1)[0] if n_args == 2 else 0
                if c < 0:
                    raise ValueError(f"negative color {c}")
                vertex_of.append(u)
                link_of.append(n_links)
                dart_color.append(c)
                n_links += 1
                continue
            else:
                raise ValueError(f"unknown directive {kw!r}")
            # an edge or a loop: a dart at u and one at v, colored in order
            if cu < 0:
                raise ValueError(f"negative color {cu}")
            if cv < 0:
                raise ValueError(f"negative color {cv}")
            vertex_of += (u, v)
            link_of += (n_links, n_links)
            dart_color += (cu, cv)
            n_links += 1
    except KeyError as e:  # ids[...] of an undeclared vertex
        raise GraphFormatError(ln, f"reference to undeclared vertex {e.args[0]!r}") from None
    except ValueError as e:
        raise GraphFormatError(ln, str(e)) from None
    return Graph(len(names), vertex_of, link_of, dart_color, vertex_color, names)


def _colors(tok: str, count: int) -> tuple[int, ...]:
    """The integers of a color token of one or two darts, each ASCII
    ``-?[0-9]+``; their sign is checked by the caller."""
    prefix, form, pattern = _COLOR_TOKEN[count]
    m = pattern.fullmatch(tok)
    if m is not None:
        return tuple(map(int, m.groups()))
    if not tok.startswith(prefix) or tok.count(",") != count - 1:
        raise ValueError(f"expected {form}, got {tok!r}")
    raise ValueError(f"bad color in {tok!r}")


def serialize_graph(g: Graph) -> str:
    """Canonical text form: vertices in id order, links in kind/endpoint order.

    parse_graph(serialize_graph(g)) rebuilds the same graph up to dart
    renumbering, and serialization of the reparse is byte-identical.
    Raises ValueError when a vertex name is empty, contains whitespace or
    ``#``, or repeats, since the text could not say which vertex is meant.
    """
    seen: set[str] = set()
    for v, name in enumerate(g.names):
        if name.split() != [name] or "#" in name:
            raise ValueError(f"vertex {v}: name {name!r} is empty or holds whitespace or '#'")
        if name in seen:
            raise ValueError(f"vertex {v}: name {name!r} repeats")
        seen.add(name)
    lines = []
    for v in range(g.n):
        c = g.vertex_color[v]
        lines.append(f"vertex {g.names[v]}" + (f" color={c}" if c else ""))
    recs = []
    for l, cell in enumerate(g.links):
        kind = g.link_kind(l)
        # a link is read from its lower (vertex, color) end, so a loop's colors ascend
        a, b = cell[0], cell[-1]
        u, cu, w, cw = g.vertex_of[a], g.dart_color[a], g.vertex_of[b], g.dart_color[b]
        if (w, cw) < (u, cu):
            u, cu, w, cw = w, cw, u, cu
        line = f"edge {g.names[u]} {g.names[w]}" if kind == EDGE else f"{kind} {g.names[u]}"
        if kind == SEMI and cu:
            line += f" color={cu}"
        elif kind != SEMI and (cu or cw):
            line += f" colors={cu},{cw}"
        recs.append((_KIND_RANK[kind], u, w, cu, cw, line))
    lines.extend(rec[-1] for rec in sorted(recs))
    return "\n".join(lines) + "\n" if lines else ""
