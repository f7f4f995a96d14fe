"""Exhaustive generation of small simple graphs, one per isomorphism class.

Candidates are neighbour bitmasks, certified by canon straight from the
masks; a Graph is built only for the graph kept for each class.  Regular
graphs come from a breadth-first-labeled backtracking search: vertex 0's
neighbors are exactly 1..d, later vertices are discovered in consecutive
label order, and every vertex is completed before the next one starts.
Twin candidates (vertices interchangeable in the partial graph) are only
ever picked as a prefix of their group, which cuts the search without
losing classes.  Each node up to depth n // 2, and each leaf, is skipped
when an earlier node of its depth has an isomorphic partial graph, since
that node already reached every class below it; at the leaves this keeps
one graph per class.  Nodes are bucketed by depth and canon's root
invariant.  A bucket that has held one class compares a new node with its
first one by canon._reaches, a directed search for the first node's first
leaf, and needs no certificate; only a bucket that turns out to hold two
classes certifies its nodes, as a failed directed search is exhaustive.
Both tests are exact, so the same nodes are skipped as with certificates.
General connected graphs are grown by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): every
connected graph on n vertices arises from a connected one on n-1 by
attaching a non-cut vertex.  From each parent, one attachment set per
orbit of the parent's automorphisms is tried, and a candidate is kept
only when its new vertex is in the orbit of its canonical deletion
vertex: the non-cut vertex of least (degree, sorted neighbour degrees),
ties going to the one that comes first in the canonical labelling.  Only
tied candidates, and the kept ones whose automorphisms the next level
needs, are certified.  The regular search returns the first graph it
built of each class, in the order the classes were found; the simple
generator returns the kept candidates, parent by parent.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence

from .build import cycle
# CanonicalSet is unused here but stays bound: perfbench's tracer wraps it at this name.
from .canon import CanonicalSet  # noqa: F401
from .canon import _first_leaf, _mask_certificate, _mask_state, _reaches
from .graph import Graph, is_connected


def _from_masks(n: int, adjm: list[int]) -> Graph:
    """The simple graph with these neighbour bitmasks; edge (u, w), u < w,
    in (u, w) order, is link l with darts 2l at u and 2l + 1 at w."""
    vertex_of: list[int] = []
    for u in range(n):
        m = adjm[u] >> (u + 1)
        w = u + 1
        while m:
            if m & 1:
                vertex_of += (u, w)
            m >>= 1
            w += 1
    return Graph(n, vertex_of, [d >> 1 for d in range(len(vertex_of))])


def _masks(g: Graph) -> list[int]:
    """The neighbours of each vertex of the simple graph g, as bitmasks."""
    return [sum(1 << g.vertex_of[g.mate[d]] for d in ds) for ds in g.darts_at]


def _prefix_choices(groups: list[list[int]], take: int) -> list[list[int]]:
    """The subsets of size take that use only a prefix of each twin group,
    by prefix lengths in lexicographic order, each length longest first."""
    return [[w for grp, c in zip(groups, cs) for w in grp[:c]]
            for cs in product(*(range(len(grp), -1, -1) for grp in groups))
            if sum(cs) == take]


def _regular_connected_search(n: int, d: int) -> list[Graph]:
    """The connected d-regular graphs on n vertices, one per class, each
    the first leaf of its class in search order.

    A node at depth u has completed vertices 0..u-1; its state is the
    partial graph S on the vertices labelled so far.  The classes of the
    leaves below a node depend only on S up to isomorphism, so a node whose
    S is isomorphic to one already expanded at the same depth is skipped:
    the earlier node's subtree, searched first, already holds a leaf of
    each class the later one would reach.  The code relies on three things:

    - S is connected, as _mask_state requires: each vertex is labelled
      when it is first attached, breadth first.
    - The depth is part of the key: a node whose vertex u already has
      full degree passes the same S to its child, and keys without the
      depth would skip the child as a copy of its parent.
    - Only depths u <= n // 2 and the leaves are keyed.  Past the middle
      most states are distinct, and there a certificate per node cost
      more than it saved when measured on cubic and quartic searches.

    seen buckets the keyed states by (depth, root invariant); isomorphic
    states share a bucket.  A bucket first holds its first state's masks
    and _first_leaf traces: a state whose bucket is new is expanded with
    no certificate, and a later one is skipped exactly when _reaches finds
    that leaf in its search tree, which decides isomorphism.  When a state
    misses, the bucket holds two classes and becomes the set of its states'
    certificates, the first state's included, and later states are tested
    by certificate: a second miss would cost another exhaustive directed
    search, and quartic partial states share root invariants often.
    """
    # (depth, root invariant) -> the first state's (masks, first-leaf traces),
    # or the certificates of its states once it holds two classes
    seen: dict[tuple, tuple | set] = {}
    leaves: list[list[int]] = []
    adjm = [0] * n
    deg = [0] * n
    for w in range(1, d + 1):
        adjm[0] |= 1 << w
        adjm[w] |= 1
        deg[0] += 1
        deg[w] += 1

    def feasible(u: int, labeled: int) -> bool:
        # every open vertex must still reach degree d inside its window
        window = labeled - u - 2
        fresh = n - labeled
        slack = 0
        for w in range(u + 1, labeled):
            r = d - deg[w]
            slack += r
            inside = (adjm[w] >> (u + 1)) & ((1 << (labeled - u - 1)) - 1)
            if r > window - inside.bit_count() + fresh:
                return False
        slack += (n - labeled) * d
        return slack % 2 == 0

    def new_state(u: int, masks: list[int]) -> bool:
        """Whether no state isomorphic to masks was seen at depth u; if so,
        it is recorded."""
        root, state = _mask_state(masks)
        key = (u, root)
        kept = seen.get(key)
        if kept is None:
            seen[key] = masks, _first_leaf(state)
            return True
        if isinstance(kept, tuple):
            if _reaches(state, kept[1]):
                return False
            kept = seen[key] = {_mask_certificate(kept[0])[0]}
        cert = _mask_certificate(masks)[0]
        if cert in kept:
            return False
        kept.add(cert)
        return True

    def rec(u: int, labeled: int):
        if labeled <= u < n:
            return
        if (u == n or u <= n // 2) and not new_state(u, adjm[:labeled]):
            return
        if u == n:
            leaves.append(list(adjm))
            return
        need = d - deg[u]
        if need < 0 or need > (n - 1 - u):
            return
        old = [w for w in range(u + 1, labeled)
               if deg[w] < d and not (adjm[u] >> w) & 1]
        # twin groups: open twins share adjm, closed twins share adjm|self
        groups: list[list[int]] = []
        for w in old:
            for grp in groups:
                v = grp[0]
                if adjm[v] == adjm[w] or (adjm[v] | (1 << v)) == (adjm[w] | (1 << w)):
                    grp.append(w)
                    break
            else:
                groups.append([w])
        for t in range(min(need, n - labeled), -1, -1):
            fresh = list(range(labeled, labeled + t))
            for chosen in _prefix_choices(groups, need - t):
                nbrs = chosen + fresh
                for w in nbrs:
                    adjm[u] |= 1 << w
                    adjm[w] |= 1 << u
                    deg[u] += 1
                    deg[w] += 1
                if feasible(u, labeled + t):
                    rec(u + 1, labeled + t)
                for w in nbrs:
                    adjm[u] &= ~(1 << w)
                    adjm[w] &= ~(1 << u)
                    deg[u] -= 1
                    deg[w] -= 1

    rec(1, d + 1)
    del rec, seen   # rec refers to itself; free both before the leaves are built
    return [_from_masks(n, adj) for adj in leaves]


def _all_regular_graphs(n: int, d: int) -> list[Graph]:
    """All d-regular graphs on n vertices, connected or not, one per class."""
    if d == 0:
        return [_from_masks(n, [0] * n)]
    pieces: dict[int, list[Graph]] = {
        k: connected_regular_graphs(k, d) for k in range(1, n + 1)
    }

    out: list[Graph] = []

    # multisets of components, ordered by size desc then index desc
    def rec(rest: int, size_cap: int, idx_cap: int, acc: list[Graph]):
        if rest == 0:
            masks: list[int] = []
            for g in acc:
                masks += [m << len(masks) for m in _masks(g)]
            out.append(_from_masks(n, masks))
            return
        for k in range(min(rest, size_cap), 0, -1):
            cap = idx_cap if k == size_cap else len(pieces[k])
            for i in range(cap):
                rec(rest - k, k, i + 1, acc + [pieces[k][i]])

    rec(n, n, len(pieces[n]), [])
    del rec     # it refers to itself; without this pieces lives on until a gc pass
    return out


def connected_regular_graphs(n: int, d: int) -> list[Graph]:
    """All connected simple d-regular graphs on n vertices, one per class."""
    if n < 1 or d < 0:
        return []
    if d == 0:
        return [_from_masks(1, [0])] if n == 1 else []
    if n <= d or (n * d) % 2:
        return []
    if d == 1:
        return [_from_masks(2, [2, 1])] if n == 2 else []
    if d == 2:
        return [] if n < 3 else [cycle(n)]
    if d >= 4 and n - 1 - d < d:
        # complement search is shallower; complement preserves iso classes
        full = (1 << n) - 1
        complements = (_from_masks(n, [full & ~(1 << u | m) for u, m in enumerate(_masks(g))])
                       for g in _all_regular_graphs(n, n - 1 - d))
        return [g for g in complements if is_connected(g)]
    return _regular_connected_search(n, d)


def _orbit(subset: Sequence[int], bits: int, gens: list[list[int]],
           seen: set[int]) -> set[int]:
    """seen, with the orbit of the vertex set subset (whose bitmask is
    bits) under the group that gens generate added to it as bitmasks.  The
    walk stops at sets already in seen, so seen must hold all of this
    orbit or none of it.  Both orbit questions of canonical augmentation
    walk here: the attachment-set orbits of _orbit_firsts, and the
    one-vertex orbit of connected_simple_graphs' deletion test."""
    seen.add(bits)
    queue = [subset]
    for t in queue:
        for gam in gens:
            image = [gam[w] for w in t]
            b = sum([1 << w for w in image])
            if b not in seen:
                seen.add(b)
                queue.append(image)
    return seen


def _orbit_firsts(k: int, gens: list[list[int]], top: int):
    """The nonempty subsets of range(k) of at most top elements as
    bitmasks, by size and then in combinations order, that come first in
    their orbit under gens; each one yielded marks its whole orbit seen."""
    seen: set[int] = set()
    for r in range(1, top + 1):
        for subset in combinations(range(k), r):
            s = sum([1 << w for w in subset])
            if s not in seen:
                _orbit(subset, s, gens, seen)
                yield s


def _non_cut(masks: list[int], v: int) -> bool:
    """Whether the graph with these neighbour bitmasks stays connected
    when v is removed."""
    rest = ((1 << len(masks)) - 1) & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen == rest


def _neighbour_degrees(masks: list[int], deg: list[int], v: int) -> list[int]:
    """The degrees of v's neighbours, sorted."""
    m, out = masks[v], []
    while m:
        low = m & -m
        out.append(deg[low.bit_length() - 1])
        m ^= low
    out.sort()
    return out


def _deletion_ties(masks: list[int], k: int) -> list[int] | None:
    """None when some non-cut vertex has a smaller deletion key, (degree,
    sorted neighbour degrees), than k; else the non-cut vertices other than
    k whose key equals k's."""
    deg = [m.bit_count() for m in masks]
    mine = None
    ties = []
    for v in range(k):
        if deg[v] > deg[k]:
            continue
        tie = deg[v] == deg[k]
        if tie:
            if mine is None:
                mine = _neighbour_degrees(masks, deg, k)
            theirs = _neighbour_degrees(masks, deg, v)
            if theirs > mine:
                continue
            tie = theirs == mine
        if _non_cut(masks, v):
            if not tie:
                return None
            ties.append(v)
    return ties


def connected_simple_graphs(n: int) -> list[Graph]:
    """All connected simple graphs on n vertices, one per class, parent
    by parent.

    A candidate B + k is kept when k lies in the automorphism orbit of m,
    its canonical deletion vertex.  Every class has a kept candidate, as
    deleting m leaves a connected graph of the level below.  Two kept
    candidates of one class are isomorphic by a map fixing k, so they have
    one parent and attachment sets in one orbit of its automorphisms, so
    they are one candidate.  Orbits are read from the automorphisms that
    _mask_certificate found, so this relies on them generating the whole
    group.  A candidate that a non-cut vertex beats on the deletion key is
    dropped, and one whose k alone has the least key is kept, without a
    certificate; below the last level a kept candidate is still certified,
    since the next level needs its automorphisms.
    """
    if n < 1:
        return []
    level: list[tuple[list[int], list[list[int]]]] = [([0], [])]   # (masks, automorphisms)
    for k in range(1, n):
        grown = []
        for base, gens in level:
            # A non-cut vertex v of base stays non-cut when k joins two or
            # more vertices and gains at most one edge, so a larger set
            # would give v a smaller deletion key than k.
            top = min([k] + [m.bit_count() + 1 for v, m in enumerate(base)
                             if _non_cut(base, v)])
            for s in _orbit_firsts(k, gens, top):
                adj = [m | (s >> w & 1) << k for w, m in enumerate(base)] + [s]
                ties = _deletion_ties(adj, k)
                if ties is None:
                    continue
                auts: list[list[int]] = []
                if ties or k < n - 1:
                    _, auts, label = _mask_certificate(adj)
                    m = min(ties + [k], key=label.__getitem__)
                    if m != k and 1 << k not in _orbit((m,), 1 << m, auts, set()):
                        continue
                grown.append((adj, auts))
        level = grown
    return [_from_masks(n, adj) for adj, _ in level]
