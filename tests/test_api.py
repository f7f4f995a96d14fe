"""The public namespace of the package."""

import importlib

import semicover

DELETED = [
    ("semicover.cover", "enumerate_covers"),
    ("semicover.canon", "refinement_invariant"),
    ("semicover.disconnected", "_component_decider"),
]


def test_every_exported_name_resolves():
    assert len(set(semicover.__all__)) == len(semicover.__all__)
    for name in semicover.__all__:
        assert getattr(semicover, name) is not None, name


def test_deleted_names_are_gone():
    for module, name in DELETED:
        assert not hasattr(importlib.import_module(module), name), (module, name)
        assert not hasattr(semicover, name) and name not in semicover.__all__, name
