"""The public namespace of the package."""

import importlib

import semicover

DELETED = [
    ("semicover.cover", "enumerate_covers"),
    ("semicover.canon", "refinement_invariant"),
    ("semicover.disconnected", "_component_decider"),
    ("semicover.deciders", "UnsupportedFamily"),
    ("semicover.graph", "validate"),
    ("semicover.graph", "Violation"),
    ("semicover.deciders", "_directed_loops"),
    ("semicover.deciders", "_decide_bars"),
    ("semicover.deciders", "_all_stay"),
    ("semicover.deciders", "_all_cross"),
    ("semicover.deciders", "_one_crosses"),
    ("semicover.deciders", "_split"),
    ("semicover.deciders", "_SAT_KINDS"),
    ("semicover.deciders", "_decide_forced"),
    ("semicover.deciders", "_equal"),
    ("semicover.deciders", "_Piece"),
    ("semicover.deciders", "_h_pieces"),
    ("semicover.deciders", "_lead"),
    ("semicover.deciders", "decide_two_vertex_side_search"),
    ("semicover.deciders", "_stitched"),
]
# fields dropped from rows of the dichotomy table
DELETED_ROW_FIELDS = {"kind", "piece"}
# methods dropped from Graph; Graph.mate replaces partner, and
# deciders._buckets reads a link's color class (lower, higher dart color)
DELETED_GRAPH_ATTRS = ["partner", "link_colorset"]

# only decide_colored calls these; they stay in semicover.deciders
INTERNAL = ["decide_colored_one_vertex", "decide_two_vertex_nonregular",
            "decide_two_vertex_regular_2sat"]


def test_every_exported_name_resolves():
    assert len(set(semicover.__all__)) == len(semicover.__all__)
    for name in semicover.__all__:
        assert getattr(semicover, name) is not None, name


def test_deleted_names_are_gone():
    for module, name in DELETED:
        assert not hasattr(importlib.import_module(module), name), (module, name)
        assert not hasattr(semicover, name) and name not in semicover.__all__, name
    for name in INTERNAL:
        assert not hasattr(semicover, name) and name not in semicover.__all__, name
    from semicover.deciders import Row
    assert not DELETED_ROW_FIELDS & set(Row._fields)
    for name in DELETED_GRAPH_ATTRS:
        assert not hasattr(semicover.Graph, name), name
