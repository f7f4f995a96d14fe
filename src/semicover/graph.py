"""Dart-based multigraphs with loops, semi-edges, and dart/vertex colors.

A graph is a finite set of darts (half-edges) with two partitions on top:
one into vertices (cells of any size, empty cells allowed for isolated
vertices) and one into links (cells of size one or two).  A one-dart link
is a semi-edge, a two-dart link inside a single vertex is a loop, and a
two-dart link across two vertices is an ordinary edge.  The degree of a
vertex is the number of darts in it, so a loop contributes two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

SEMI = "semi"
LOOP = "loop"
EDGE = "edge"

_KIND_RANK = {SEMI: 0, LOOP: 1, EDGE: 2}


class Graph:
    """Immutable multigraph in dart representation.

    Darts and vertices are dense integer ids.  ``vertex_of[d]`` and
    ``link_of[d]`` place dart ``d`` in its vertex and link cell.  Instances
    are built with :class:`GraphBuilder`, :func:`parse_graph`, or the
    constructors in :mod:`semicover.build`; treat them as frozen.
    """

    __slots__ = ("n", "vertex_of", "link_of", "dart_color", "vertex_color",
                 "names", "darts_at", "links", "_kinds")

    def __init__(self, n: int, vertex_of: Sequence[int], link_of: Sequence[int],
                 dart_color: Sequence[int] | None = None,
                 vertex_color: Sequence[int] | None = None,
                 names: Sequence[str] | None = None):
        self.n = n
        self.vertex_of = tuple(vertex_of)
        self.link_of = tuple(link_of)
        nd = len(self.vertex_of)
        self.dart_color = tuple(dart_color) if dart_color is not None else (0,) * nd
        self.vertex_color = tuple(vertex_color) if vertex_color is not None else (0,) * n
        self.names = tuple(names) if names is not None else tuple(f"v{i}" for i in range(n))
        darts_at: list[list[int]] = [[] for _ in range(n)]
        for d, v in enumerate(self.vertex_of):
            if 0 <= v < n:
                darts_at[v].append(d)
        self.darts_at = tuple(tuple(ds) for ds in darts_at)
        n_links = max(self.link_of, default=-1) + 1
        cells: list[list[int]] = [[] for _ in range(n_links)]
        for d, l in enumerate(self.link_of):
            if 0 <= l < n_links:
                cells[l].append(d)
        self.links = tuple(tuple(c) for c in cells)
        kinds = []
        for c in self.links:
            if len(c) == 1:
                kinds.append(SEMI)
            elif len(c) == 2 and self.vertex_of[c[0]] == self.vertex_of[c[1]]:
                kinds.append(LOOP)
            else:
                kinds.append(EDGE)
        self._kinds = tuple(kinds)

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

    def partner(self, d: int) -> int | None:
        """The other dart of d's link, or None for a semi-edge."""
        cell = self.links[self.link_of[d]]
        if len(cell) == 1:
            return None
        return cell[1] if cell[0] == d else cell[0]

    def link_colorset(self, l: int) -> frozenset[int]:
        return frozenset(self.dart_color[d] for d in self.links[l])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, darts={self.n_darts}, links={self.n_links})"


class GraphBuilder:
    """Accumulates vertices and links, then freezes into a Graph."""

    def __init__(self) -> None:
        self._vertex_color: list[int] = []
        self._names: list[str] = []
        self._vertex_of: list[int] = []
        self._link_of: list[int] = []
        self._dart_color: list[int] = []
        self._n_links = 0

    def add_vertex(self, color: int = 0, name: str | None = None) -> int:
        v = len(self._vertex_color)
        self._vertex_color.append(color)
        self._names.append(name if name is not None else f"v{v}")
        return v

    def _dart(self, v: int, link: int, color: int) -> None:
        if not 0 <= v < len(self._vertex_color):
            raise ValueError(f"unknown vertex {v}")
        self._vertex_of.append(v)
        self._link_of.append(link)
        self._dart_color.append(color)

    def add_edge(self, u: int, v: int, colors: tuple[int, int] = (0, 0)) -> int:
        if u == v:
            raise ValueError("use add_loop for a link on a single vertex")
        l = self._n_links
        self._n_links += 1
        self._dart(u, l, colors[0])
        self._dart(v, l, colors[1])
        return l

    def add_loop(self, v: int, colors: tuple[int, int] = (0, 0)) -> int:
        l = self._n_links
        self._n_links += 1
        self._dart(v, l, colors[0])
        self._dart(v, l, colors[1])
        return l

    def add_semi(self, v: int, color: int = 0) -> int:
        l = self._n_links
        self._n_links += 1
        self._dart(v, l, color)
        return l

    def build(self) -> Graph:
        g = Graph(len(self._vertex_color), self._vertex_of, self._link_of,
                  self._dart_color, self._vertex_color, self._names)
        bad = validate(g)
        if bad:
            raise ValueError(f"builder produced invalid graph: {bad[0]}")
        return g


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate(g: Graph) -> list[Violation]:
    """Structural invariant check. Returns an empty list for a valid graph."""
    out: list[Violation] = []
    nd = g.n_darts
    if len(g.link_of) != nd:
        out.append(Violation("partition", "vertex_of and link_of length mismatch"))
        return out
    if len(g.dart_color) != nd:
        out.append(Violation("partition", "dart_color length mismatch"))
    if len(g.vertex_color) != g.n or len(g.names) != g.n:
        out.append(Violation("partition", "vertex attribute length mismatch"))
    for d, v in enumerate(g.vertex_of):
        if not 0 <= v < g.n:
            out.append(Violation("partition", f"dart {d} assigned to no vertex ({v})"))
    seen_links = set()
    for d, l in enumerate(g.link_of):
        if not 0 <= l < g.n_links:
            out.append(Violation("partition", f"dart {d} assigned to no link ({l})"))
        else:
            seen_links.add(l)
    for l, cell in enumerate(g.links):
        if len(cell) not in (1, 2):
            out.append(Violation("link-arity", f"link {l} has {len(cell)} darts"))
    if len(seen_links) != g.n_links:
        out.append(Violation("link-arity", "empty link cell"))
    for c in g.dart_color + g.vertex_color:
        if c < 0:
            out.append(Violation("color", f"negative color {c}"))
            break
    return out


def type_signature(g: Graph, v: int) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Vertex color together with the sorted (dart color, link color set)
    types of the darts at v.

    Any covering projection preserves, per vertex, the count of darts of
    each (dart color, link color set) type, so equal type signatures are a
    necessary condition for one vertex to map onto another.
    """
    feats = sorted((g.dart_color[d], tuple(sorted(g.link_colorset(g.link_of[d]))))
                   for d in g.darts_at[v])
    return g.vertex_color[v], tuple(feats)


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
    return len(components(g)) <= 1


def is_bipartite(g: Graph) -> bool:
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
                w = g.vertex_of[g.partner(d)]
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


@dataclass(frozen=True)
class Component:
    """One connected component with maps back to the original ids."""
    graph: Graph
    vertex_ids: tuple[int, ...]
    dart_ids: tuple[int, ...]


def components(g: Graph) -> list[Component]:
    """Connected components, ordered by smallest original vertex id.

    Isolated vertices form their own single-vertex components.
    """
    comp = [-1] * g.n
    order: list[list[int]] = []
    for start in range(g.n):
        if comp[start] != -1:
            continue
        cid = len(order)
        comp[start] = cid
        verts = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for d in g.darts_at[u]:
                p = g.partner(d)
                if p is None:
                    continue
                w = g.vertex_of[p]
                if comp[w] == -1:
                    comp[w] = cid
                    verts.append(w)
                    stack.append(w)
        order.append(sorted(verts))
    out = []
    for verts in order:
        darts = sorted(d for v in verts for d in g.darts_at[v])
        out.append(Component(_subgraph(g, verts, darts), tuple(verts), tuple(darts)))
    return out


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


def induced_link_subgraph(g: Graph, colors: Callable[[frozenset[int]], bool] | Iterable[int],
                          ) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph keeping all vertices and the links whose dart color set is selected.

    ``colors`` is either a collection of colors (a link is kept when its
    color set is a subset) or a predicate on the link's color frozenset.
    Returns the subgraph and the original dart id for each new dart.
    """
    if callable(colors):
        keep = colors
    else:
        allowed = frozenset(colors)
        keep = lambda cs: cs <= allowed
    darts = [d for d in range(g.n_darts) if keep(g.link_colorset(g.link_of[d]))]
    return _subgraph(g, range(g.n), darts), tuple(darts)


def induced_vertex_subgraph(g: Graph, vertices: Iterable[int],
                            ) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Subgraph on a vertex subset, keeping links with every end inside it."""
    verts = sorted(set(vertices))
    vset = set(verts)
    darts = []
    for d in range(g.n_darts):
        l = g.link_of[d]
        if all(e in vset for e in g.link_ends(l)):
            darts.append(d)
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
    """Raised on malformed graph text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph format.

    Lines are ``vertex <id> [color=<n>]``, ``edge <u> <v> [colors=<i>,<j>]``,
    ``loop <u> [colors=<i>,<j>]``, and ``semi <u> [color=<i>]``.  Blank lines
    and ``#`` comments are ignored.  Vertices must be declared before use.
    """
    b = GraphBuilder()
    ids: dict[str, int] = {}

    def vertex(tok: str, ln: int) -> int:
        if tok not in ids:
            raise GraphFormatError(ln, f"reference to undeclared vertex {tok!r}")
        return ids[tok]

    def color(tok: str, ln: int) -> int:
        if not tok.startswith("color="):
            raise GraphFormatError(ln, f"expected color=<n>, got {tok!r}")
        try:
            return int(tok[len("color="):])
        except ValueError:
            raise GraphFormatError(ln, f"bad color in {tok!r}") from None

    def colorpair(tok: str, ln: int) -> tuple[int, int]:
        if not tok.startswith("colors="):
            raise GraphFormatError(ln, f"expected colors=<i>,<j>, got {tok!r}")
        parts = tok[len("colors="):].split(",")
        if len(parts) != 2:
            raise GraphFormatError(ln, f"expected two colors in {tok!r}")
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(ln, f"bad color in {tok!r}") from None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw, args = toks[0], toks[1:]
        if kw == "vertex":
            if not args or len(args) > 2:
                raise GraphFormatError(ln, "vertex takes an id and an optional color")
            if args[0] in ids:
                raise GraphFormatError(ln, f"duplicate vertex {args[0]!r}")
            c = color(args[1], ln) if len(args) == 2 else 0
            ids[args[0]] = b.add_vertex(c, args[0])
        elif kw == "edge":
            if len(args) not in (2, 3):
                raise GraphFormatError(ln, "edge takes two vertices and optional colors")
            u, v = vertex(args[0], ln), vertex(args[1], ln)
            if u == v:
                raise GraphFormatError(ln, "edge endpoints coincide, use loop")
            cols = colorpair(args[2], ln) if len(args) == 3 else (0, 0)
            b.add_edge(u, v, cols)
        elif kw == "loop":
            if len(args) not in (1, 2):
                raise GraphFormatError(ln, "loop takes one vertex and optional colors")
            cols = colorpair(args[1], ln) if len(args) == 2 else (0, 0)
            b.add_loop(vertex(args[0], ln), cols)
        elif kw == "semi":
            if len(args) not in (1, 2):
                raise GraphFormatError(ln, "semi takes one vertex and an optional color")
            c = color(args[1], ln) if len(args) == 2 else 0
            b.add_semi(vertex(args[0], ln), c)
        else:
            raise GraphFormatError(ln, f"unknown directive {kw!r}")
    return b.build()


def serialize_graph(g: Graph) -> str:
    """Canonical text form: vertices in id order, links in kind/endpoint order.

    parse_graph(serialize_graph(g)) rebuilds the same graph up to dart
    renumbering, and serialization of the reparse is byte-identical.
    """
    lines = []
    for v in range(g.n):
        c = g.vertex_color[v]
        lines.append(f"vertex {g.names[v]}" + (f" color={c}" if c else ""))
    recs = []
    for l in range(g.n_links):
        kind = g.link_kind(l)
        cell = g.links[l]
        if kind == SEMI:
            d = cell[0]
            v = g.vertex_of[d]
            recs.append((_KIND_RANK[kind], (v,), (g.dart_color[d],)))
        elif kind == LOOP:
            v = g.vertex_of[cell[0]]
            cols = tuple(sorted(g.dart_color[d] for d in cell))
            recs.append((_KIND_RANK[kind], (v,), cols))
        else:
            (d1, d2) = cell
            u, w = g.vertex_of[d1], g.vertex_of[d2]
            cu, cw = g.dart_color[d1], g.dart_color[d2]
            if (w, cw) < (u, cu):
                u, w, cu, cw = w, u, cw, cu
            recs.append((_KIND_RANK[kind], (u, w), (cu, cw)))
    for rank, verts, cols in sorted(recs):
        if rank == _KIND_RANK[SEMI]:
            lines.append(f"semi {g.names[verts[0]]}" + (f" color={cols[0]}" if cols[0] else ""))
        elif rank == _KIND_RANK[LOOP]:
            suffix = f" colors={cols[0]},{cols[1]}" if any(cols) else ""
            lines.append(f"loop {g.names[verts[0]]}" + suffix)
        else:
            suffix = f" colors={cols[0]},{cols[1]}" if any(cols) else ""
            lines.append(f"edge {g.names[verts[0]]} {g.names[verts[1]]}" + suffix)
    return "\n".join(lines) + "\n" if lines else ""
