"""Canonical certificates, isomorphism testing and deduplication for dart
multigraphs.  Two graphs share a certificate exactly when they are
isomorphic, colors included.  It comes from individualisation-refinement
(McKay & Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60,
2014) on vertices: a vertex's self key is its color, the sorted colors of
its semi-edges and the sorted color pairs of its loops, and each neighbour
is labelled with the sorted dart-color pairs of the parallel edges to it.
The initial coloring sorts by self key, degree and distance profile (which
splits regular graphs early).  Refinement splits cells by each vertex's
count of neighbours per (label, cell) until no cell splits; a round is one
loop over the graph's arcs, listed once per root.  The search
individualises each vertex of the first non-singleton cell in turn, prunes
by refinement trace, by twins and by automorphisms found from equal
leaves, and keeps the best leaf.

A Graph and the neighbour bitmasks of a connected simple graph are two
ways into one core (initial coloring, distances, refinement), and give
equal certificates for equal graphs.  The mask entry, which generation
uses, also returns the automorphisms the search found, one permutation
per pair of equal leaves and one swap per pruned twin, which together
generate the automorphism group, and the canonical labelling, the best
leaf's coloring: renaming each vertex by it gives the same masks for
every graph of the class.  A caller that has built a root state (the
regular generator, to bucket a state by its root invariant) passes it to
_mask_certificate, as to _certificate, and the root is not built again.

A repeated graph needs no certificate, only a test against one stored
graph.  _first_leaf records the traces along the search's first path, and
_reaches searches another graph's tree for a leaf with those traces,
entering only children whose trace matches at their depth.  Equal leaf
traces are equal labelled adjacency, so a hit is an isomorphism; and since
refinement and the choice of target cell (_cell) read only colors, an
isomorphic graph's tree holds the image of the stored path, so a miss
means the two are not isomorphic.
"""

from itertools import groupby

from .graph import Graph, components

_PLAIN = (0, (), ())    # self key of a vertex of color 0 with no semi-edge or loop
_EDGE = ((0, 0),)       # label of a single edge with dart colors 0 and 0


def _root(g: Graph):
    """The invariant of g's refined initial coloring (label table, sorted
    initial keys, trace) and the search state, None if g is disconnected."""
    n, vo, dc = g.n, g.vertex_of, g.dart_color
    semis: list[list[int]] = [[] for _ in range(n)]
    loops: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    pairs: list[dict[int, list]] = [{} for _ in range(n)]
    for ds in g.links:
        u, ca = vo[ds[0]], dc[ds[0]]
        if len(ds) == 1:
            semis[u].append(ca)
            continue
        w, cb = vo[ds[1]], dc[ds[1]]
        if u == w:
            loops[u].append((min(ca, cb), max(ca, cb)))
        else:
            pairs[u].setdefault(w, []).append((ca, cb))
            pairs[w].setdefault(u, []).append((cb, ca))
    labels = [{w: tuple(sorted(ps)) for w, ps in row.items()} for row in pairs]
    table = tuple(sorted({lab for row in labels for lab in row.values()}))
    offset = {lab: i * n for i, lab in enumerate(table)}
    nbrs = [[(w, offset[lab]) for w, lab in row.items()] for row in labels]
    selves = [(g.vertex_color[v], tuple(sorted(semis[v])), tuple(sorted(loops[v])))
              for v in range(n)]
    return _core(table, nbrs, selves, [len(ds) for ds in g.darts_at])


def _core(table: tuple, nbrs: list[list], selves: list, degrees: list[int]):
    """The root invariant and search state from the sorted label table,
    each vertex's (neighbour, label rank * n) pairs, self key and dart count."""
    # A vertex's code adds 2 ** (label rank * n + color) per neighbour; as a
    # color is the first position of its cell, the count for one cell and
    # label (at most the cell's size k) fits in its k bits: codes are exact.
    # The arcs (vertex, neighbour, label rank * n), one per ordered pair of
    # adjacent vertices, are listed once per root, so that each round of
    # _refine, at the root and at every node of the search, is one loop
    # over them; _distances and _best_leaf's twin test read nbrs.
    n = len(nbrs)
    arcs = [(v, w, x) for v, nb in enumerate(nbrs) for w, x in nb]
    prof = (nbrs, arcs, [1 << i for i in range(n * len(table))])
    dist = _distances(nbrs)
    raw = [(selves[v], degrees[v], tuple(dist[v])) for v in range(n)]
    col, start = _positions(raw)
    col, trace = _refine(prof, col, len(start))
    state = (prof, col, trace) if n == 0 or dist[0][-1] == n else None
    return (table, tuple(sorted(raw)), trace), state


def _distances(nbrs: list[list]) -> list[list[int]]:
    """Distance profiles: for each vertex, the number of vertices within
    distance 0, 1, 2, ... of it, up to the largest eccentricity."""
    ball = [1 << v for v in range(len(nbrs))]
    out: list[list[int]] = [[1] for _ in nbrs]
    while True:
        grown = []
        for nb, b in zip(nbrs, ball):
            for w, _ in nb:
                b |= ball[w]
            grown.append(b)
        if grown == ball:
            return out
        ball = grown
        for sizes, b in zip(out, ball):
            sizes.append(b.bit_count())


def _positions(keys: list) -> tuple[list[int], dict]:
    """Each vertex's cell, named by its first position when the vertices
    are sorted by key, and the first position of each key, in key order."""
    start: dict = {}
    for i, k in enumerate(sorted(keys)):
        start.setdefault(k, i)
    return [start[k] for k in keys], start


def _refine(prof, col: list[int], cells: int):
    """Split the cells of col by neighbour colors until it is equitable.  The
    trace is the sorted distinct vertex signatures, one per cell; for a
    discrete coloring it is the labelled adjacency."""
    _, arcs, power = prof
    top = len(power)
    while True:
        # a code is below 2 ** top, so adding it to the shifted color is an or
        sigs = [c << top for c in col]
        for v, w, x in arcs:
            sigs[v] += power[col[w] + x]
        new, start = _positions(sigs)
        if len(start) == cells:
            return col, tuple(start)
        col, cells = new, len(start)


def _cell(c: list[int]):
    """The target cell of coloring c, the first non-singleton one: its
    color (its first position) and its vertices.  The rule reads only
    colors, so an isomorphism carries one graph's target cell onto the
    other's; _best_leaf, _first_leaf and _reaches all branch on it."""
    n = len(c)
    starts = sorted(set(c)) + [n]
    s = next(p for p, q in zip(starts, starts[1:]) if q - p > 1)
    return s, [v for v in range(n) if c[v] == s]


def _child(prof, c: list[int], s: int, v: int, cells: int):
    """The refined coloring and trace after individualising v, of cell s,
    in c, which has this many cells."""
    return _refine(prof, [s + 1 if p == s and u != v else p for u, p in enumerate(c)],
                   cells + 1)


def _best_leaf(prof, col: list[int], trace: tuple) -> tuple:
    """The adjacency of the best leaf below col (the trace of a discrete
    coloring), the automorphisms found from equal leaves, the twin swaps
    pruned, as vertex pairs, and the best leaf's coloring, which gives each
    vertex its canonical label.  Leaves compare by the traces along their
    paths."""
    n = len(col)
    best: list = []                     # traces, coloring and path of the best leaf
    gens: list[list[int]] = []          # automorphisms found from equal leaves
    swaps: list[tuple[int, int]] = []   # twin swaps, kept out of the orbits below
    adj = [dict(nb) for nb in prof[0]]

    def twins(u: int, v: int) -> bool:
        """Whether swapping u and v, of one cell, is an automorphism."""
        a, b = dict(adj[u]), dict(adj[v])
        return a.pop(v, None) == b.pop(u, None) and a == b

    def visit(c: list[int], path: list[int], traces: tuple):
        """Search below c, reached by individualising path; returns the
        depth to jump back to when the rest of a subtree is redundant."""
        if len(traces[-1]) == n:
            if best and traces == best[0]:
                # An automorphism maps the best leaf onto this one and fixes
                # the common prefix of their paths; the rest of this subtree
                # is the image of one already searched.
                order = sorted(range(n), key=c.__getitem__)
                gens.append([order[p] for p in best[1]])
                return next(i for i, (u, v) in enumerate(zip(path, best[2])) if u != v)
            if not best or traces > best[0]:
                best[:] = traces, c, path
            return None
        s, cell = _cell(c)
        orbit = list(range(n))          # orbit labels under the automorphisms fixing path
        known = 0
        done: list[int] = []
        for v in cell:
            if done:
                for gam in gens[known:]:
                    if all(gam[p] == p for p in path):
                        for u in range(n):
                            a, b = orbit[u], orbit[gam[u]]
                            if a != b:
                                orbit = [a if o == b else o for o in orbit]
                known = len(gens)
                if orbit[v] in {orbit[u] for u in done}:
                    continue
                twin = next((u for u in done if twins(u, v)), None)
                if twin is not None:
                    swaps.append((twin, v))
                    continue
            done.append(v)
            child, t = _child(prof, c, s, v, len(traces[-1]))
            tr = traces + (t,)
            if best and tr < best[0][:len(tr)]:
                continue
            jump = visit(child, path + [v], tr)
            if jump is not None and jump < len(path):
                return jump
        return None

    visit(col, [], (trace,))
    del visit   # it refers to itself; without this its state lives on until a gc pass
    return best[0][-1], gens, swaps, best[1]


def _first_leaf(state) -> tuple:
    """The traces along the search's first path from the root of state,
    (prof, coloring, trace): each step individualises the first vertex of
    the target cell, down to a discrete coloring."""
    prof, c, t = state
    traces = [t]
    while len(t) < len(c):
        s, cell = _cell(c)
        c, t = _child(prof, c, s, cell[0], len(t))
        traces.append(t)
    return tuple(traces)


def _reaches(state, traces: tuple) -> bool:
    """Whether some leaf of state's search has these traces along its path:
    a depth-first search that enters only the children whose trace equals
    the one at their depth.  Equal leaf traces are equal labelled
    adjacency, so True means the graph is isomorphic to the one traces
    came from (by _first_leaf); and an isomorphic graph's search holds the
    image of that path, as refinement and _cell are equivariant, so the
    answer is exact."""
    prof, col, trace = state
    if trace != traces[0]:
        return False
    if len(traces) == 1:
        return True

    def frame(c: list[int]) -> tuple:
        """c, its target cell and an iterator over the cell's vertices."""
        s, cell = _cell(c)
        return c, s, iter(cell)

    stack = [frame(col)]
    while stack:
        c, s, untried = stack[-1]
        i = len(stack)
        for v in untried:
            child, t = _child(prof, c, s, v, len(traces[i - 1]))
            if t == traces[i]:
                if i + 1 == len(traces):
                    return True
                stack.append(frame(child))
                break
        else:
            stack.pop()
    return False


def _certificate(g: Graph, root: tuple | None = None) -> tuple:
    """The label table, the sorted self keys (run-length coded) and the best
    leaf; for a disconnected graph, its components' sorted certificates."""
    (table, keys, _), state = root or _root(g)
    if state is None:
        return (tuple(sorted(_certificate(c.graph) for c in components(g))),)
    return table, _run_lengths(keys), _best_leaf(*state)[0]


def _run_lengths(keys: tuple) -> tuple:
    """The self keys of sorted initial keys, run-length coded."""
    return tuple((k, len(list(r))) for k, r in groupby(key[0] for key in keys))


def _mask_state(masks: list[int]) -> tuple[tuple, tuple]:
    """The root invariant (label table, sorted initial keys, trace) and the
    search state of the connected simple graph with these neighbour
    bitmasks.  The root is read from the masks alone: every self key is
    _PLAIN and every neighbour label _EDGE."""
    n = len(masks)
    nbrs: list[list[tuple[int, int]]] = []
    for m in masks:
        nb = []
        while m:
            low = m & -m
            nb.append((low.bit_length() - 1, 0))
            m ^= low
        nbrs.append(nb)
    root, state = _core((_EDGE,) if any(masks) else (), nbrs, [_PLAIN] * n,
                        [m.bit_count() for m in masks])
    if state is None:
        raise ValueError("a mask certificate needs a connected graph")
    return root, state


def _mask_certificate(masks: list[int],
                      root: tuple | None = None) -> tuple[tuple, list[list[int]], list[int]]:
    """The certificate of the connected simple graph with these neighbour
    bitmasks, equal to _certificate of that graph built as a Graph,
    generators of its automorphism group, as vertex permutations, and its
    canonical labelling: renaming each vertex v to label[v] gives the same
    masks for every graph with this certificate.  root, when given, is
    _mask_state(masks), already built by the caller."""
    (table, keys, _), state = root or _mask_state(masks)
    leaf, gens, swaps, label = _best_leaf(*state)
    for u, v in swaps:
        gam = list(range(len(masks)))
        gam[u], gam[v] = v, u
        gens.append(gam)
    return (table, _run_lengths(keys), leaf), gens, label


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism of dart multigraphs, colors included: equal sizes
    and root invariants, then equal certificates."""
    if g1.n != g2.n or g1.n_darts != g2.n_darts or g1.n_links != g2.n_links:
        return False
    root1, root2 = _root(g1), _root(g2)
    return root1[0] == root2[0] and _certificate(g1, root1) == _certificate(g2, root2)


class CanonicalSet:
    """Graphs up to isomorphism: the first representative of each class,
    in insertion order.  add() reports whether g was new."""

    def __init__(self) -> None:
        self._reps: dict[tuple, Graph] = {}

    def add(self, g: Graph) -> bool:
        cert = _certificate(g)
        new = cert not in self._reps
        self._reps.setdefault(cert, g)
        return new

    def __iter__(self):
        return iter(self._reps.values())

    def __len__(self) -> int:
        return len(self._reps)
