"""Dart model basics: builder, accessors, predicates, subgraphs, text format."""

import hashlib
import random
from collections import Counter

import pytest

from semicover.build import (build_F, build_W, build_WD, complete, complete_bipartite, cycle,
                             path, petersen)
from semicover.graph import (EDGE, LOOP, SEMI, Graph, GraphBuilder, GraphFormatError,
                             _signatures, _split, _subgraph, _type_weights, components,
                             disjoint_union, induced_link_subgraph, induced_vertex_subgraph,
                             is_bipartite, is_connected, is_regular, is_simple,
                             parse_graph, serialize_graph, type_signature)
from util import (arrays, random_graph, random_lift, reference_components,
                  reference_is_bipartite, reference_parse_graph, renamed)


def test_builder_and_degrees():
    gb = GraphBuilder()
    a = gb.add_vertex()
    b = gb.add_vertex(color=2, name="right")
    gb.add_semi(a, color=5)
    gb.add_loop(a)
    gb.add_edge(a, b)
    g = gb.build()
    assert g.n == 2
    assert g.n_darts == 5
    assert g.n_links == 3
    assert g.degree(0) == 4  # semi 1 + loop 2 + edge 1
    assert g.degree(1) == 1
    assert g.vertex_color == (0, 2)
    assert g.names[1] == "right"
    kinds = sorted(g.link_kind(l) for l in range(g.n_links))
    assert kinds == sorted([SEMI, LOOP, EDGE])


def test_mate_and_link_ends():
    g = build_F(1, 1)
    semi = next(l for l in range(g.n_links) if g.link_kind(l) == SEMI)
    loop = next(l for l in range(g.n_links) if g.link_kind(l) == LOOP)
    (d,) = g.links[semi]
    assert g.mate[d] == d and g.link_ends(semi) == (0,)
    d1, d2 = g.links[loop]
    assert g.mate[d1] == d2 and g.mate[d2] == d1 and g.link_ends(loop) == (0, 0)


def test_mate_is_the_link_involution():
    rng = random.Random(13)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 6), rng.randrange(0, 9), colors=(0, 1, 2))
        assert len(g.mate) == g.n_darts
        for d, e in enumerate(g.mate):
            assert g.mate[e] == d
            assert g.link_of[e] == g.link_of[d]
            assert (e == d) == (g.link_kind(g.link_of[d]) == SEMI)


def test_isolated_vertices_allowed():
    gb = GraphBuilder()
    gb.add_vertex()
    gb.add_vertex()
    g = gb.build()
    assert g.n == 2 and g.n_darts == 0
    assert not is_connected(g)
    assert len(components(g)) == 2


def test_builder_rejects_bad_arguments_unchanged():
    # each call checks its arguments before it adds a dart or takes a link id
    gb = GraphBuilder()
    a, b = gb.add_vertex(), gb.add_vertex()
    for bad in (lambda: gb.add_edge(a, 7), lambda: gb.add_edge(-1, b),
                lambda: gb.add_edge(a, b, colors=(0, -1)), lambda: gb.add_loop(5),
                lambda: gb.add_loop(a, colors=(-2, 0)), lambda: gb.add_semi(2),
                lambda: gb.add_semi(b, color=-1), lambda: gb.add_vertex(color=-3),
                lambda: gb.add_edge(a, b, colors=(1, 2, 3)),
                lambda: gb.add_edge(a, b, colors=(1,)),
                lambda: gb.add_loop(a, colors=(1, 2, 3)), lambda: gb.add_loop(a, colors=(1,))):
        with pytest.raises(ValueError):
            bad()
        g = gb.build()
        assert (g.n, g.n_darts, g.n_links) == (2, 0, 0)
    assert gb.add_semi(a) == 0


def test_family_shapes():
    f = build_F(2, 3)
    assert f.n == 1 and f.degree(0) == 2 + 6
    assert sum(1 for l in range(f.n_links) if f.link_kind(l) == SEMI) == 2
    assert sum(1 for l in range(f.n_links) if f.link_kind(l) == LOOP) == 3

    w = build_W(2, 2, 2, 1, 1)
    assert w.n == 2
    assert sorted((w.degree(0), w.degree(1))) == [5, 8]

    with pytest.raises(ValueError):
        build_W(1, 1, 0, 1, 1)


def test_standard_graphs():
    c5 = cycle(5)
    assert c5.n == 5 and is_regular(c5) and c5.degree(0) == 2
    assert is_connected(c5) and is_simple(c5) and not is_bipartite(c5)
    assert is_bipartite(cycle(6))

    p = petersen()
    assert p.n == 10 and is_regular(p) and p.degree(0) == 3
    assert is_simple(p) and not is_bipartite(p)

    k4 = complete(4)
    assert k4.n == 4 and all(k4.degree(v) == 3 for v in range(4))

    k23 = complete_bipartite(2, 3)
    assert is_bipartite(k23) and k23.n_links == 6

    p4 = path(4, semi_ends=True)
    assert p4.degree(0) == 2 and p4.degree(1) == 2
    assert sum(1 for l in range(p4.n_links) if p4.link_kind(l) == SEMI) == 2


def test_is_simple_rejections():
    gb = GraphBuilder()
    a = gb.add_vertex()
    gb.add_loop(a)
    assert not is_simple(gb.build())

    gb = GraphBuilder()
    a, b = gb.add_vertex(), gb.add_vertex()
    gb.add_edge(a, b)
    gb.add_edge(a, b)
    assert not is_simple(gb.build())

    gb = GraphBuilder()
    a = gb.add_vertex()
    gb.add_semi(a)
    assert not is_simple(gb.build())


def test_signatures():
    w = build_W(1, 0, 1, 0, 1)  # semi + bar at each vertex
    assert type_signature(w, 0) == type_signature(w, 1)

    w2 = build_W(2, 0, 1, 0, 0)
    assert type_signature(w2, 0) != type_signature(w2, 1)

    gb = GraphBuilder()
    a = gb.add_vertex()
    b = gb.add_vertex()
    gb.add_semi(a, color=1)
    gb.add_loop(a)
    gb.add_semi(b)
    gb.add_loop(b)
    g = gb.build()
    # same degrees, different dart colors
    assert type_signature(g, 0) != type_signature(g, 1)


def _colorset_signature(g, v):
    """The type signature before darts knew their mates: vertex color and
    the sorted (dart color, sorted link color set) pairs."""
    feats = sorted((g.dart_color[d],
                    tuple(sorted(frozenset(g.dart_color[e] for e in g.links[g.link_of[d]]))))
                   for d in g.darts_at[v])
    return g.vertex_color[v], tuple(feats)


def test_signatures_agree_with_colorset_reference():
    # equal signatures exactly when the link-color-set signatures are equal,
    # within one graph and across graphs
    rng = random.Random(29)
    verts = []
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 5), rng.randrange(0, 8), colors=(0, 1, 2))
        verts += [(g, v) for v in range(g.n)]
    sigs = [(type_signature(g, v), _colorset_signature(g, v)) for g, v in verts]
    assert len({ref for _, ref in sigs}) > 50
    for new, ref in sigs:
        for new2, ref2 in sigs:
            assert (new == new2) == (ref == ref2)


def _planted_bipartite(rng, n):
    """Edges across a random split of n vertices, parallel ones included,
    and at times one more link: a loop, a semi-edge or an edge that may
    lie inside a side."""
    split = [rng.randrange(2) for _ in range(n)]
    gb = GraphBuilder()
    for _ in range(n):
        gb.add_vertex()
    for _ in range(rng.randrange(2 * n)):
        u, w = rng.randrange(n), rng.randrange(n)
        if split[u] != split[w]:
            gb.add_edge(u, w)
    extra, v = rng.randrange(4), rng.randrange(n)
    if extra == 1:
        gb.add_loop(v)
    elif extra == 2:
        gb.add_semi(v)
    elif extra == 3 and (w := rng.randrange(n)) != v:
        gb.add_edge(v, w)
    return gb.build()


def test_is_bipartite_matches_the_bfs_reference():
    """is_bipartite answers as the BFS 2-coloring it replaced, on seeded
    multigraphs with loops, semi-edges, parallel edges and isolated
    vertices, in one part or several."""
    rng = random.Random(131)
    seen = {True: 0, False: 0}
    for trial in range(600):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            n = rng.randrange(1, 9)
            parts.append(_planted_bipartite(rng, n) if trial % 2 else
                         random_graph(rng, n, rng.randrange(n + 2), semis=rng.random() < 0.3,
                                      loops=rng.random() < 0.3))
        g = disjoint_union(parts)
        want = reference_is_bipartite(g)
        assert is_bipartite(g) == want, g.links
        seen[want] += 1
    assert min(seen.values()) > 100, seen


def test_components_and_union():
    g = disjoint_union([cycle(3), cycle(4), build_F(1, 1)])
    assert g.n == 8
    comps = components(g)
    assert [c.graph.n for c in comps] == [3, 4, 1]
    # dart ids translate back faithfully
    for comp in comps:
        for local, glob in enumerate(comp.dart_ids):
            assert g.vertex_of[glob] == comp.vertex_ids[comp.graph.vertex_of[local]]


def test_split_matches_subgraph_per_component():
    """_split and components give, per component, the ids and the arrays
    of one _subgraph call, on seeded multigraphs with loops, semi-edges,
    parallel edges, dart and vertex colors, isolated vertices and
    repeated names; a connected graph is its own component."""
    rng = random.Random(211)
    shapes = set()
    for _ in range(300):
        parts = [random_graph(rng, n, rng.randrange(2 * n + 1), colors=(0, 1, 2))
                 for n in (rng.randrange(1, 6) for _ in range(rng.randrange(4)))]
        g = renamed(disjoint_union(parts), rng)
        want = reference_components(g)
        split, comps = _split(g), components(g)
        assert [(vs, ds) for vs, ds, _ in split] == [(c.vertex_ids, c.dart_ids) for c in want]
        assert [a for _, _, a in split] == [arrays(c.graph) for c in want]
        assert [(c.vertex_ids, c.dart_ids, arrays(c.graph), c.graph.names) for c in comps] == [
            (c.vertex_ids, c.dart_ids, arrays(c.graph), c.graph.names) for c in want]
        if len(want) == 1:
            assert comps[0].graph is g
        shapes.add(min(len(want), 3))
        shapes.update(g.link_kind(l) for l in range(g.n_links))
        shapes.update(("isolated",) * any(not darts for darts in g.darts_at))
        edges = [tuple(sorted(g.link_ends(l))) for l in range(g.n_links)
                 if g.link_kind(l) == EDGE]
        shapes.update(("parallel",) * (len(set(edges)) < len(edges)))
    assert shapes == {0, 1, 2, 3, SEMI, LOOP, EDGE, "isolated", "parallel"}


def _counted(counts):
    """A vertex with counts[t] darts of each type t = (dart color, mate
    color): semi-edges for equal colors, else edges to new leaves."""
    gb = GraphBuilder()
    u = gb.add_vertex()
    for (c, m), k in counts.items():
        for _ in range(k):
            if c == m:
                gb.add_semi(u, color=c)
            else:
                gb.add_edge(u, gb.add_vertex(), colors=(c, m))
    return gb.build()


def test_signature_codes_match_type_signatures():
    """A vertex of g and a vertex of h get equal codes under h's weights
    exactly when their type signatures are equal: on seeded colored
    multigraphs with loops, semi-edges and directed color pairs, degrees
    up to 80 and dart types that h lacks, and on vertices whose counts
    read as h's in base D, which a code without the degree field would
    confuse."""
    rng = random.Random(223)
    equal = shifted = 0
    for trial in range(150):
        h = random_graph(rng, rng.randrange(1, 4), rng.randrange(1, 21), colors=(0, 1, 2))
        weights = _type_weights(h)
        base = max(map(h.degree, range(h.n))) + 1
        parts = [random_lift(h, 2, rng),
                 random_graph(rng, rng.randrange(1, 3), rng.randrange(1, 41), colors=(0, 1, 2, 3))]
        # w's darts of h's second type (in _type_weights' order) as base
        # times as many of its first: the same sum over fields 0..T-1
        first, *rest = dict.fromkeys(zip(h.dart_color, map(h.dart_color.__getitem__, h.mate)))
        for w in range(h.n):
            counts = Counter((h.dart_color[d], h.dart_color[h.mate[d]]) for d in h.darts_at[w])
            if rest and 0 < base * counts[rest[0]] <= 200:
                counts[first] += base * counts.pop(rest[0])
                parts.append(_counted(counts))
                shifted += 1
        g = disjoint_union(parts)
        codes_g, codes_h = _signatures(g, weights), _signatures(h, weights)
        for u in range(g.n):
            for w in range(h.n):
                same = type_signature(g, u) == type_signature(h, w)
                assert (codes_g[u] == codes_h[w]) == same, (trial, u, w)
                equal += same
        for w in range(h.n):
            for x in range(h.n):
                assert (codes_h[w] == codes_h[x]) == (type_signature(h, w) == type_signature(h, x))
    assert equal > 400 and shifted > 100


def test_induced_link_subgraph():
    gb = GraphBuilder()
    a, b = gb.add_vertex(), gb.add_vertex()
    gb.add_edge(a, b, colors=(1, 1))
    gb.add_edge(a, b, colors=(2, 2))
    gb.add_semi(a, color=1)
    g = gb.build()
    sub, darts = induced_link_subgraph(g, {1})
    assert sub.n == 2 and sub.n_links == 2
    assert all(g.dart_color[d] == 1 for d in darts)
    sub2, _ = induced_link_subgraph(g, {2})
    assert sub2.n_links == 1


def test_induced_vertex_subgraph():
    g = build_W(1, 1, 2, 1, 1)
    sub, verts, darts = induced_vertex_subgraph(g, [0])
    assert sub.n == 1
    assert list(verts) == [0]
    # keeps the semi and the loop, drops the bars
    assert sub.n_links == 2
    assert sub.degree(0) == 3


def test_parse_serialize_roundtrip_known():
    text = """\
# a colored multigraph
vertex a
vertex b color=3
edge a b colors=1,2
loop a
semi b color=4
"""
    g = parse_graph(text)
    assert g.n == 2 and g.n_links == 3
    assert g.vertex_color == (0, 3)
    out = serialize_graph(g)
    g2 = parse_graph(out)
    assert serialize_graph(g2) == out
    assert g2.n == g.n and g2.n_darts == g.n_darts


def test_parse_serialize_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 6), rng.randrange(0, 8),
                         colors=(0, 1, 2))
        out = serialize_graph(g)
        g2 = parse_graph(out)
        assert serialize_graph(g2) == out
        assert (g2.n, g2.n_darts, g2.n_links) == (g.n, g.n_darts, g.n_links)


def _serialize_corpus() -> list:
    """Seeded graphs with every feature the text format writes."""
    rng = random.Random(2024)
    graphs = [random_graph(rng, rng.randrange(1, 8), rng.randrange(0, 10), colors=(0, 1, 2))
              for _ in range(80)]
    b = GraphBuilder()
    u, w = b.add_vertex(color=1), b.add_vertex(color=2)
    b.add_edge(u, w, (2, 1))
    b.add_edge(w, u, (2, 1))
    b.add_loop(u, (3, 0))
    b.add_semi(w, 4)
    targets = [b.build(), build_F(1, 2), build_W(1, 0, 1, 0, 1), build_WD(1, 1, 1)]
    graphs += [random_lift(h, k, rng) for h in targets for k in (1, 2, 3, 5)]
    graphs.append(disjoint_union(graphs[:4]))
    return graphs


# serialize_graph over _serialize_corpus(); it changes only with the text format
PINNED_SERIALIZE_SHA256 = "a30a87a73616179ca8d09d17f4b43719b40ca3fb7f9606c342f6e5f8aa8afe9f"


def test_serialize_bytes_are_pinned():
    graphs = _serialize_corpus()
    lines = [line for g in graphs for line in serialize_graph(g).splitlines()]
    # the corpus writes each feature of the format
    assert any(g.degree(v) == 0 for g in graphs for v in range(g.n))
    assert any(line.startswith("vertex") and "color=" in line for line in lines)
    assert any(line.startswith("semi") and "color=" in line for line in lines)
    assert any(line.startswith("loop") and "colors=" in line for line in lines)
    edge_colors = {tuple(map(int, line.split("colors=")[1].split(",")))
                   for line in lines if line.startswith("edge") and "colors=" in line}
    assert any(i < j for i, j in edge_colors) and any(i > j for i, j in edge_colors)
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(serialize_graph(g).encode() + b"\0")
    assert digest.hexdigest() == PINNED_SERIALIZE_SHA256


def test_serialize_rejects_names_a_file_cannot_hold():
    # A name with a space would read back as a colour; a repeated name
    # would read back as a duplicate vertex.
    b = GraphBuilder()
    a = b.add_vertex(name="a color=1")
    b.add_semi(a)
    with pytest.raises(ValueError, match="vertex 0"):
        serialize_graph(b.build())
    b = GraphBuilder()
    x, y = b.add_vertex(name="x"), b.add_vertex(name="x")
    b.add_edge(x, y)
    with pytest.raises(ValueError, match="vertex 1: name 'x' repeats"):
        serialize_graph(b.build())
    for name in ("", "a#b", "tab\there", " lead"):
        b = GraphBuilder()
        b.add_vertex(name=name)
        with pytest.raises(ValueError, match="vertex 0"):
            serialize_graph(b.build())


def test_parse_errors():
    with pytest.raises(GraphFormatError):
        parse_graph("edge a b")  # undeclared
    with pytest.raises(GraphFormatError):
        parse_graph("vertex a\nvertex a")
    with pytest.raises(GraphFormatError):
        parse_graph("vertex a\nvertex b\nedge a a")
    with pytest.raises(GraphFormatError):
        parse_graph("flurb x")
    with pytest.raises(GraphFormatError):
        parse_graph("vertex a\nsemi a color=zebra")
    err = None
    try:
        parse_graph("vertex a\n\nbroken line here")
    except GraphFormatError as e:
        err = e
    assert err is not None and err.line == 3
    # the builder's rules come back with their line, as do a color token
    # with the wrong number of colors and an undeclared vertex
    for text, line, msg in (("vertex a color=-2", 1, "negative color"),
                            ("vertex a\nsemi a color=-1", 2, "negative color"),
                            ("vertex a\n\nloop a colors=0,-1", 3, "negative color"),
                            ("vertex a\nloop a colors=-1,0", 2, "negative color"),
                            ("vertex a\nvertex b\nedge a b colors=-4,1", 3, "negative color"),
                            ("vertex a\nvertex b\nedge a b colors=0,-1", 3, "negative color"),
                            ("vertex a\nvertex b\n\nedge a a", 4, "edge endpoints coincide"),
                            ("vertex a\nedge a a colors=1,2", 2, "edge endpoints coincide"),
                            ("vertex a\nvertex b\nedge a b colors=1", 3, "expected colors=<i>,<j>"),
                            ("vertex a\nloop a colors=1,2,3", 2, "expected colors=<i>,<j>"),
                            ("vertex a\nsemi a colors=1", 2, "expected color=<n>"),
                            ("vertex a\nsemi a color=1,2", 2, "expected color=<n>"),
                            ("vertex a color=", 1, "bad color"),
                            # int() alone would read these as 10, 3 and 3
                            ("vertex a color=1_0", 1, "bad color"),
                            ("vertex a\nsemi a color=+3", 2, "bad color"),
                            ("vertex a\nvertex b\nedge a b colors=1,\u0663", 3, "bad color"),
                            ("vertex a\n\nedge a b", 3, "undeclared vertex 'b'")):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert info.value.line == line and msg in str(info.value)


def test_empty_graph_roundtrip():
    g = parse_graph("")
    assert g.n == 0 and g.n_darts == 0
    assert serialize_graph(g) == ""


def _structure(g):
    return g.darts_at, g.links, g.mate, tuple(g.link_kind(l) for l in range(g.n_links))


def _structure_reference(g):
    """darts_at, links, mate and kinds straight from the definitions."""
    darts = range(len(g.vertex_of))
    darts_at = tuple(tuple(d for d in darts if g.vertex_of[d] == v) for v in range(g.n))
    links = tuple(tuple(d for d in darts if g.link_of[d] == l)
                  for l in range(max(g.link_of, default=-1) + 1))
    mate = list(darts)
    for cell in links:
        mate[cell[0]], mate[cell[-1]] = cell[-1], cell[0]
    kinds = tuple(SEMI if len(cell) == 1 else
                  LOOP if g.vertex_of[cell[0]] == g.vertex_of[cell[1]] else EDGE
                  for cell in links)
    return darts_at, links, tuple(mate), kinds


def test_graph_pairs_links_given_in_any_order():
    # link ids that are not in dart order: shuffled, shifted by a union,
    # and renumbered by a subgraph whose vertices and darts are reordered
    rng = random.Random(29)
    unordered = 0
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 7), rng.randrange(0, 12), colors=(0, 1, 2))
        perm = list(range(g.n_links))
        rng.shuffle(perm)
        order = list(range(g.n_darts))
        rng.shuffle(order)
        shuffled = Graph(g.n, [g.vertex_of[d] for d in order],
                         [perm[g.link_of[d]] for d in order],
                         [g.dart_color[d] for d in order], g.vertex_color, g.names)
        verts = list(range(g.n))
        rng.shuffle(verts)
        sub = _subgraph(g, verts, order)
        for x in (shuffled, sub, disjoint_union([shuffled, g, sub])):
            assert _structure(x) == _structure_reference(x), x.link_of
            unordered += list(x.link_of) != sorted(x.link_of)
    assert unordered > 200


_NAME_CHARS = "abxyz_019-.:/=,\u03b1\u00e9"  # no whitespace and no '#'


def _valid_text(rng: random.Random) -> str:
    """Random graph text with colors, comments, blank lines, tabs and
    arbitrary names, every line of it valid."""
    sep = lambda: rng.choice((" ", "  ", "\t", " \t "))
    color = lambda: rng.choice(("0", "1", "3", "007", "-0", "12"))
    names: list[str] = []
    lines = []
    for _ in range(rng.randrange(0, 25)):
        roll = rng.random()
        if not names or roll < 0.25:
            name = "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 5)))
            if name in names:
                continue
            names.append(name)
            toks = ["vertex", name] + ([f"color={color()}"] if rng.random() < 0.4 else [])
        elif roll < 0.45 and len(names) >= 2:
            u, w = rng.sample(names, 2)
            toks = ["edge", u, w] + ([f"colors={color()},{color()}"] if rng.random() < 0.5 else [])
        elif roll < 0.6:
            toks = ["loop", rng.choice(names)] + (
                [f"colors={color()},{color()}"] if rng.random() < 0.5 else [])
        elif roll < 0.8:
            toks = ["semi", rng.choice(names)] + ([f"color={color()}"] if rng.random() < 0.5 else [])
        else:
            lines.append(rng.choice(("", "   ", "\t", "# a comment", " \t# edge x y")))
            continue
        line = rng.choice(("", " ", "\t")) + sep().join(toks) + rng.choice(("", " ", "\t"))
        if rng.random() < 0.2:
            line += rng.choice(("#", " # note", "\t#edge a b"))
        lines.append(line)
    return "".join(line + rng.choice(("\n", "\r\n")) for line in lines)


def _parsed(parse, text: str):
    """What parse makes of text: its arrays and names, or its error."""
    try:
        g = parse(text)
    except GraphFormatError as e:
        return e.line, str(e)
    return g.n, g.vertex_of, g.link_of, g.dart_color, g.vertex_color, g.names, g.mate


def test_parse_matches_builder_reference_on_valid_texts():
    rng = random.Random(37)
    links = 0
    for _ in range(400):
        text = _valid_text(rng)
        got = _parsed(parse_graph, text)
        assert got == _parsed(reference_parse_graph, text), text
        assert not isinstance(got[1], str), got
        links += len(set(got[2]))
    assert links > 2000


# Malformed lines after the prelude "vertex a / vertex b color=2": every
# error in every directive, and lines holding two errors, whose message
# shows the precedence (the word it must hold, or None).
_BAD_LINES = [
    ("flurb a", "unknown directive"), ("Vertex a", "unknown directive"),
    ("vertex", "vertex takes"), ("vertex c color=1 x", "vertex takes"),
    ("edge a", "edge takes"), ("edge a b colors=1,2 x", "edge takes"),
    ("loop", "loop takes"), ("loop a colors=1,1 x", "loop takes"),
    ("semi", "semi takes"), ("semi a color=1 x", "semi takes"),
    ("vertex a", "duplicate vertex"), ("vertex b color=1", "duplicate vertex"),
    ("edge a z", "undeclared vertex 'z'"), ("edge z a", "undeclared vertex 'z'"),
    ("loop z", "undeclared vertex 'z'"), ("semi z", "undeclared vertex 'z'"),
    ("vertex c colors=1,2", "expected color=<n>"), ("vertex c color=1,2", "expected color=<n>"),
    ("edge a b color=1", "expected colors="), ("edge a b colors=1", "expected colors="),
    ("edge a b colors=1,2,3", "expected colors="), ("loop a color=1", "expected colors="),
    ("loop a colors=", "expected colors="), ("semi a colors=1", "expected color=<n>"),
    ("semi a col=1", "expected color=<n>"),
    ("vertex c color=x", "bad color"), ("vertex c color=+3", "bad color"),
    ("vertex c color=1_0", "bad color"), ("vertex c color=\u0663", "bad color"),
    ("edge a b colors=1,x", "bad color"), ("edge a b colors=,1", "bad color"),
    ("loop a colors=1_0,2", "bad color"), ("semi a color=", "bad color"),
    ("semi a color=--1", "bad color"), ("semi a color=1.0", "bad color"),
    ("semi a color=\u00b2", "bad color"), ("loop a colors=-,0", "bad color"),
    ("edge a a", "coincide"), ("edge b b colors=1,2", "coincide"),
    ("vertex c color=-1", "negative color -1"), ("semi a color=-2", "negative color -2"),
    ("edge a b colors=-1,0", "negative color -1"), ("edge a b colors=0,-3", "negative color -3"),
    ("loop a colors=-1,0", "negative color -1"), ("loop a colors=0,-1", "negative color -1"),
    # two errors on one line
    ("edge a z colors=x,1", "undeclared"), ("edge z z colors=-1,-1", "undeclared"),
    ("loop z colors=-1,0", "undeclared"), ("semi z color=+1", "undeclared"),
    ("edge a a colors=1_0,1", "bad color"), ("edge a b colors=-1,x", "bad color"),
    ("semi a color=-1,2", "expected color=<n>"),
    ("edge a a colors=-1,0", "coincide"), ("edge a b colors=-1,-2", "negative color -1"),
    ("vertex a color=x", "duplicate vertex"), ("vertex a color=-1", "duplicate vertex"),
    ("flurb z color=-1", "unknown directive"), ("edge z", "edge takes"),
]


def test_parse_errors_match_builder_reference():
    rng = random.Random(41)
    prelude = "vertex a\n\nvertex b color=2\n"
    for bad, word in _BAD_LINES:
        for text in (prelude + bad, prelude + bad + "\nsemi a\nflurb", prelude + "\t" + bad + " # x"):
            got = _parsed(parse_graph, text)
            assert got == _parsed(reference_parse_graph, text), text
            assert got[0] == 4 and word in got[1], (text, got)
    # random lines over the same tokens, valid or not, after the prelude
    pool = ["a", "b", "z", "color=1", "color=-1", "color=x", "colors=1,2", "colors=-1,0",
            "colors=0,-2", "colors=1", "color=+2", "colors=1_0,1", "x#y"]
    errors = 0
    for _ in range(3000):
        kw = rng.choice(("vertex", "edge", "loop", "semi", "semi", "flurb"))
        lines = [kw + " " + " ".join(rng.choices(pool, k=rng.randrange(0, 4)))
                 for _ in range(rng.randint(1, 3))]
        text = prelude + "\n".join(lines)
        got = _parsed(parse_graph, text)
        assert got == _parsed(reference_parse_graph, text), text
        errors += isinstance(got[1], str)
    assert 1500 < errors < 3000
