"""Lookups into the library's value tuples, shared by the test modules.

The library builds each lookup it needs in the one module that reads it,
so its values carry none. Each helper here maps keys to values, the first
value of a repeated key winning, and raises KeyError on an unknown key.
"""

from __future__ import annotations


def entities(model) -> dict:
    """The model's entity types by id."""
    return {et.id: et for et in reversed(model.entity_types)}


def concepts(report) -> dict:
    """The grading's concept entries by name."""
    return {c.name: c for c in reversed(report.concepts)}
