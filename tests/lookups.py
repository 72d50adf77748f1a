"""Lookups into the library's value tuples, shared by the test modules.

The library builds each lookup it needs in the one module that reads it,
so its values carry none. `entities` and `concepts` map keys to values,
the first value of a repeated key winning, and raise KeyError on an
unknown key; `flags_of` selects a review report's flags of one kind.
"""

from __future__ import annotations


def entities(model) -> dict:
    """The model's entity types by id."""
    return {et.id: et for et in reversed(model.entity_types)}


def concepts(report) -> dict:
    """The grading's concept entries by name."""
    return {c.name: c for c in reversed(report.concepts)}


def flags_of(report, kind: str) -> tuple:
    """The review report's flags of one kind, in report order; empty for a
    kind nothing raised."""
    return tuple(i for i in report.items if i.kind == kind)
