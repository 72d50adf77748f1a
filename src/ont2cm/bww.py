"""Structural classification of ontology concepts.

Concepts are graded by how much structure they actually carry: a bare set of
things, a class held together by one common property, a kind with several,
or a natural kind whose members are additionally bound by laws. Laws here
are restrictions and disjointness between two classes. A property's grade
follows from its category: a datatype property is intrinsic (carried by a
single thing), an object property mutual (shared between things). So the
grading keeps the ontology's own property definitions and reads each grade
off the category when it is written.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import NamedTuple

from .ontology import DATATYPE, DISJOINT, Ontology, OntologyIndex, PropertyDefinition


INTRINSIC = "intrinsic"
MUTUAL = "mutual"


class ConceptClassification(NamedTuple):
    name: str
    property_count: int
    law_count: int

    @property
    def category(self) -> str:
        """The grade the two counts give (see the module docstring)."""
        if self.property_count == 0:
            return "thingSet"
        if self.property_count == 1:
            return "bwwClass"
        if self.law_count == 0:
            return "kind"
        return "naturalKind"


class BwwReport(NamedTuple):
    concepts: tuple[ConceptClassification, ...]
    properties: tuple[PropertyDefinition, ...]  # graded by classify_property

    @property
    def notes(self) -> tuple[str, ...]:
        """A note per concept graded a class although laws bind it."""
        return tuple(f"{c.name}: laws present but only one common property; "
                     "graded as a class, not a natural kind"
                     for c in self.concepts
                     if c.property_count == 1 and c.law_count > 0)


_str = json.encoder.encode_basestring_ascii  # the C escaper json.dumps calls


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Items in json.dumps(indent=2) layout, the closing bracket at `pad`."""
    inner = ",\n  " + pad
    return (f"{brackets[0]}\n  {pad}{inner.join(items)}\n{pad}{brackets[1]}"
            if items else brackets)


def emit_bww_json(report: BwwReport) -> str:
    """The grading as JSON; `emit` re-exports it with the other emitters."""
    # by way of a dict, so a repeated name keeps its first position and last entry
    concepts = _block([
        f'{_str(name)}: {{\n      "category": {_str(c.category)},\n'
        f'      "propertyCount": {c.property_count},\n      "lawCount": {c.law_count}\n    }}'
        for name, c in {c.name: c for c in report.concepts}.items()], "  ", "{}")
    properties = _block([
        f'{_str(name)}: {{\n      "category": {_str(classify_property(p.category))}\n    }}'
        for name, p in {p.name: p for p in report.properties}.items()], "  ", "{}")
    notes = _block([_str(n) for n in report.notes], "  ")
    return (f'{{\n  "concepts": {concepts},\n  "properties": {properties},\n'
            f'  "notes": {notes}\n}}\n')


def classify_property(category: str) -> str:
    return INTRINSIC if category == DATATYPE else MUTUAL


def classify(ont: Ontology, index: OntologyIndex) -> BwwReport:
    """Grade every class and property of a normalized ontology, reading
    what reaches each class from its index (see `ontology.normalize`).
    Deterministic: entries come out sorted by name."""
    disjoint_mentions: dict[str, int] = {}
    for ax in ont.axioms:
        # self-disjointness is no law; the transform notes it as ignored
        if (ax.kind == DISJOINT and ax.target.op == "named"
                and ax.target.name != ax.subject):
            for side in (ax.subject, ax.target.name):
                disjoint_mentions[side] = disjoint_mentions.get(side, 0) + 1

    concepts = []
    for cls in sorted(ont.classes, key=lambda c: c.name):
        property_count, law_count = index.reach(cls.name)
        concepts.append(ConceptClassification(
            cls.name, property_count,
            law_count + disjoint_mentions.get(cls.name, 0)))

    properties = tuple(sorted(ont.properties, key=attrgetter("name")))
    return BwwReport(tuple(concepts), properties)
