"""Which library functions the tracer wraps, under which layer names, and
how the per-layer metrics are computed from the spans and counters."""

from __future__ import annotations

import importlib

from tracer import ROOT, Tracer

SEMICOVER = ("semicover",)
NETWORKX = ("networkx",)


def _count(key: str, amount):
    def post(tr, args, kwargs, result):
        tr.count(key, amount(args, kwargs, result))
    return post


def _posts(*posts):
    def post(tr, args, kwargs, result):
        for p in posts:
            p(tr, args, kwargs, result)
    return post


# (layer name, defining module, attribute, module prefixes to patch, post hook)
FUNCTIONS = [
    ("matching.max_weight_matching", "networkx", "max_weight_matching", NETWORKX,
     _count("matching.max_weight_matching.nodes", lambda a, k, r: len(a[0]))),
    ("matching.konig_split", "semicover.matching", "konig_split", SEMICOVER,
     _count("matching.konig_split.links", lambda a, k, r: len(a[2]))),
    ("matching.kuhn_matching", "semicover.matching", "kuhn_matching", SEMICOVER, None),
    ("matching.exact_link_cover", "semicover.matching", "exact_link_cover", SEMICOVER, None),
    ("matching.two_factor_orientations", "semicover.matching", "two_factor_orientations",
     SEMICOVER, None),
    ("twosat.two_sat_solve", "semicover.twosat", "two_sat_solve", SEMICOVER,
     _count("twosat.two_sat_solve.clauses", lambda a, k, r: len(a[1]))),
    ("deciders.one_vertex", "semicover.deciders", "decide_colored_one_vertex",
     SEMICOVER, None),
    ("deciders.two_vertex_nonregular", "semicover.deciders", "decide_two_vertex_nonregular",
     SEMICOVER, None),
    ("deciders.two_vertex_2sat", "semicover.deciders", "decide_two_vertex_regular_2sat",
     SEMICOVER, None),
    ("dichotomy.classify", "semicover.dichotomy", "classify", SEMICOVER, None),
    ("dichotomy.decide_colored", "semicover.dichotomy", "decide_colored", SEMICOVER,
     _count("dichotomy.fallbacks",
            lambda a, k, r: r.method == "brute-force-fallback")),
    ("disconnected.decide", "semicover.disconnected", "decide", SEMICOVER, None),
    ("disconnected.build_pattern", "semicover.disconnected", "build_pattern", SEMICOVER,
     _posts(_count("disconnected.pairs", lambda a, k, r: r[0].p * r[0].q),
            _count("disconnected.pattern_edges", lambda a, k, r: len(r[0].edges)))),
    ("disconnected.decide_lbhom", "semicover.disconnected", "decide_lbhom", SEMICOVER, None),
    ("disconnected.decide_surjective", "semicover.disconnected", "decide_surjective",
     SEMICOVER, None),
    ("disconnected.decide_equitable", "semicover.disconnected", "decide_equitable",
     SEMICOVER, None),
    ("cover.find_cover", "semicover.cover", "find_cover", SEMICOVER,
     _posts(_count("cover.find_cover.darts", lambda a, k, r: a[0].n_darts),
            _count("cover.find_cover.hits", lambda a, k, r: r is not None))),
    ("cover.verify_cover", "semicover.cover", "verify_cover", SEMICOVER, None),
    ("generate.connected_simple_graphs", "semicover.generate", "connected_simple_graphs",
     SEMICOVER, None),
    ("generate.connected_regular_graphs", "semicover.generate", "connected_regular_graphs",
     SEMICOVER, None),
    ("graph.parse_graph", "semicover.graph", "parse_graph", SEMICOVER, None),
    ("graph.components", "semicover.graph", "components", SEMICOVER, None),
    ("graph.induced_link_subgraph", "semicover.graph", "induced_link_subgraph",
     SEMICOVER, None),
    ("graph.induced_vertex_subgraph", "semicover.graph", "induced_vertex_subgraph",
     SEMICOVER, None),
    ("stronger.check_stronger", "semicover.stronger", "check_stronger", SEMICOVER,
     _posts(_count("stronger.generated", lambda a, k, r: r.generated),
            _count("stronger.covers_found", lambda a, k, r: r.covers_found))),
]

# (layer name, defining module, class, method, post hook)
METHODS = [
    ("graph.Graph", "semicover.graph", "Graph", "__init__", None),
    ("canon.CanonicalSet.add", "semicover.canon", "CanonicalSet", "add",
     _count("canon.new", lambda a, k, r: bool(r))),
]


def install(tr: Tracer) -> None:
    """Wrap every listed function at each name it is bound to."""
    for name, module, attr, prefixes, post in FUNCTIONS:
        fn = getattr(importlib.import_module(module), attr)
        tr.wrap_function(name, fn, prefixes, post)
    for name, module, cls, attr, post in METHODS:
        tr.wrap_method(name, getattr(importlib.import_module(module), cls), attr, post)


def per_layer(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics that come from the spans and counters alone."""
    calls = lambda name: tr.calls.get(name, 0)
    self_s = lambda *names: sum(tr.self_s.get(n, 0.0) for n in names)
    count = lambda key: tr.counts.get(key, 0)
    ratio = lambda a, b: a / b if b else 0.0
    tried = sum(tr.child_calls.get(("disconnected.build_pattern", n), 0)
                for n in ("dichotomy.decide_colored", "cover.find_cover"))
    out: dict[str, float] = {}
    for name in ("matching.max_weight_matching", "matching.konig_split",
                 "matching.kuhn_matching", "twosat.two_sat_solve", "dichotomy.classify",
                 "cover.find_cover", "cover.verify_cover", "canon.CanonicalSet.add",
                 "graph.Graph", "graph.components"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("matching.exact_link_cover", "matching.two_factor_orientations",
                 "deciders.one_vertex", "deciders.two_vertex_nonregular",
                 "deciders.two_vertex_2sat", "disconnected.build_pattern",
                 "disconnected.decide_equitable", "disconnected.decide_surjective",
                 "graph.parse_graph", "stronger.check_stronger"):
        out[f"{name}.self_s"] = self_s(name)
    out.update({
        "matching.max_weight_matching.nodes": count("matching.max_weight_matching.nodes"),
        "matching.max_weight_matching.busy_share":
            ratio(tr.total_s.get("matching.max_weight_matching", 0.0), tr.busy_s),
        "matching.konig_split.links": count("matching.konig_split.links"),
        "twosat.two_sat_solve.clauses": count("twosat.two_sat_solve.clauses"),
        "dichotomy.decide_colored.calls": calls("dichotomy.decide_colored"),
        "dichotomy.fallback_ratio":
            ratio(count("dichotomy.fallbacks"), calls("dichotomy.decide_colored")),
        "disconnected.pairs_tried": tried,
        "disconnected.pairs_skipped": count("disconnected.pairs") - tried,
        "disconnected.pattern_hit_ratio": ratio(count("disconnected.pattern_edges"), tried),
        "cover.find_cover.darts": count("cover.find_cover.darts"),
        "cover.find_cover.hit_ratio":
            ratio(count("cover.find_cover.hits"), calls("cover.find_cover")),
        "canon.new_ratio": ratio(count("canon.new"), calls("canon.CanonicalSet.add")),
        "generate.self_s": self_s("generate.connected_simple_graphs",
                                  "generate.connected_regular_graphs"),
        "graph.induced_subgraph.self_s": self_s("graph.induced_link_subgraph",
                                                "graph.induced_vertex_subgraph"),
        "stronger.generated": count("stronger.generated"),
        "stronger.covers_found": count("stronger.covers_found"),
        "trace.traced_busy_s": tr.busy_s,
        "trace.harness_self_s": self_s(ROOT),
    })
    return out
