"""Covering projections of multigraphs with loops, semi-edges and colors.

The dart model: a graph is a set of darts grouped into links of size one
(semi-edge) or two (loop or edge), with vertices carrying disjoint sets
of darts.  A covering projection maps darts so that every vertex's darts
biject onto its image's darts and links land on links.
"""

from .build import (build_F, build_W, build_WD, complete, complete_bipartite,
                    cycle, double_cover, gen_binpacking, path, petersen)
from .canon import CanonicalSet, isomorphic
from .cover import (CoverViolation, DartMapping, ResourceLimit, find_cover,
                    verify_cover, witness_json)
from .deciders import Verdict
from .dichotomy import Classification, OutOfScope, classify, decide_colored
from .disconnected import (CoveringPattern, Decision, build_pattern, decide,
                           decide_equitable, decide_lbhom, decide_surjective,
                           max_bipartite_matching)
from .generate import connected_regular_graphs, connected_simple_graphs
from .graph import (EDGE, LOOP, SEMI, Graph, GraphBuilder, GraphFormatError,
                    components, disjoint_union, induced_link_subgraph,
                    induced_vertex_subgraph, is_bipartite, is_connected,
                    is_regular, is_simple, parse_graph, serialize_graph,
                    type_signature)
from .matching import (exact_link_cover, konig_split, kuhn_matching,
                       two_factor_orientations)
from .stronger import (StrongerReport, UnsupportedBase, check_equivalent,
                       check_stronger, enumerate_simple_covers)
from .twosat import two_sat_solve

__version__ = "0.1.0"

__all__ = [
    "EDGE", "LOOP", "SEMI",
    "Graph", "GraphBuilder", "GraphFormatError",
    "CanonicalSet", "isomorphic",
    "CoverViolation", "DartMapping", "ResourceLimit",
    "find_cover", "verify_cover", "witness_json",
    "Verdict",
    "Classification", "OutOfScope", "classify", "decide_colored",
    "CoveringPattern", "Decision", "build_pattern", "decide",
    "decide_equitable", "decide_lbhom", "decide_surjective",
    "max_bipartite_matching",
    "connected_regular_graphs", "connected_simple_graphs",
    "components", "disjoint_union",
    "induced_link_subgraph", "induced_vertex_subgraph",
    "is_bipartite", "is_connected", "is_regular", "is_simple",
    "parse_graph", "serialize_graph", "type_signature",
    "exact_link_cover", "konig_split", "kuhn_matching",
    "two_factor_orientations",
    "StrongerReport", "UnsupportedBase", "check_equivalent",
    "check_stronger", "enumerate_simple_covers",
    "two_sat_solve",
    "build_F", "build_W", "build_WD", "complete", "complete_bipartite",
    "cycle", "double_cover", "gen_binpacking", "path", "petersen",
]
