"""Serializers for models, gradings and review reports.

All output is deterministic: no timestamps, no environment-dependent
content, collections in canonical order. Emitting the same model twice
gives byte-identical text.

The model and grading JSON are written from fixed templates, one f-string
per record, and equal json.dumps(doc, indent=2) + "\n" of the dict shape
parse_model_json reads, as tests/test_emit.py checks against json.dumps.
All four `transform --emit` kinds stream: iter_model_json yields the model
JSON a record at a time, and iter_plantuml, iter_dot and iter_report yield
their text a line or a heading at a time, so a writer never holds a whole
artifact. Each emit_* function joins its iter_* generator.
The grading JSON is written by bww.emit_bww_json, next to the report it
reads, so grading alone needs neither this module nor the transform;
it is re-exported here with the other emitters.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from functools import cache

from .bww import _block, _str, emit_bww_json  # noqa: F401 (re-exported)
from .model import (
    AGGREGATION,
    AND_GROUP,
    COMPOSITION,
    DISJOINT_GROUP,
    Attribute,
    ConceptualModel,
    EntityType,
    Generalization,
    Instance,
    Multiplicity,
    Relationship,
    SemanticConstraint,
)
from .transform import ValidationReport


# --------------------------------------------------------------------------
# model JSON


def _mult_from_json(data: dict) -> Multiplicity:
    upper = data["upper"]
    return Multiplicity(data["lower"], None if upper == "*" else upper)


def _mult_json(m: Multiplicity, pad: str) -> str:
    upper = '"*"' if m.upper is None else m.upper
    flag = f',\n{pad}  "unsatisfiable": true' if m.unsatisfiable else ""
    return f'{{\n{pad}  "lower": {m.lower},\n{pad}  "upper": {upper}{flag}\n{pad}}}'


def _array(records: Iterable[str]) -> Iterator[str]:
    """A top-level array in `_block`'s layout, a record at a time."""
    lead = "[\n    "
    for record in records:
        yield lead + record
        lead = ",\n    "
    yield "[]" if lead[0] == "[" else "\n  ]"


def iter_model_json(model: ConceptualModel) -> Iterator[str]:
    """The model JSON a record at a time, so no more than one record is
    laid out at once. Each distinct multiplicity is laid out once."""
    mult_json = cache(_mult_json)
    yield f'{{\n  "name": {_str(model.name)},\n  "entityTypes": '
    yield from _array((
        f'{{\n      "id": {_str(et.id)},\n      "name": {_str(et.name)},\n'
        f'      "originClass": {_str(et.name)},\n      "bww": {_str(et.bww)},\n'
        f'      "definitionKind": {_str(et.definition_kind)},\n      "attributes": ' + _block([
            f'{{\n          "name": {_str(a.name)},\n          "datatype": {_str(a.datatype)},\n'
            f'          "multiplicity": {mult_json(a.multiplicity, " " * 10)},\n'
            f'          "originProperty": {_str(a.name)}\n        }}'
            for a in et.attributes], " " * 6) + "\n    }"
        for et in model.entity_types))
    yield ',\n  "relationships": '
    yield from _array((
        f'{{\n      "id": {_str(r.id)},\n      "name": {_str(r.name)},\n'
        f'      "sourceId": {_str(r.source_id)},\n      "targetId": {_str(r.target_id)},\n'
        f'      "sourceMult": {mult_json(r.source_mult, " " * 6)},\n'
        f'      "targetMult": {mult_json(r.target_mult, " " * 6)},\n'
        f'      "exclusive": {"true" if r.exclusive else "false"},\n'
        f'      "kind": {_str(r.kind)},\n'
        f'      "whole": {"null" if r.whole is None else _str(r.whole)},\n'
        f'      "groupId": {"null" if r.group_id is None else _str(r.group_id)}\n    }}'
        for r in model.relationships))
    yield ',\n  "generalizations": '
    yield from _array((
        f'{{\n      "subId": {_str(g.sub_id)},\n      "superId": {_str(g.super_id)}\n    }}'
        for g in model.generalizations))
    yield ',\n  "constraints": '
    yield from _array((
        f'{{\n      "id": {_str(c.id)},\n      "kind": {_str(c.kind)},\n      "memberIds": '
        f'{_block([_str(m) for m in c.member_ids], " " * 6)}\n    }}'
        for c in model.constraints))
    yield ',\n  "instances": '
    yield from _array((
        f'{{\n      "name": {_str(i.name)},\n'
        f'      "typeIds": {_block([_str(t) for t in i.type_ids], " " * 6)}\n    }}'
        for i in model.instances))
    yield "\n}\n"


def emit_model_json(model: ConceptualModel) -> str:
    return "".join(iter_model_json(model))


def parse_model_json(text: str) -> ConceptualModel:
    """The model a model JSON text holds. `originClass` and `originProperty`
    repeat their record's `name`, stored once, so they are not read."""
    doc = json.loads(text)
    entity_types = tuple(
        EntityType(
            et["id"], et["name"], et["bww"], et["definitionKind"],
            tuple(Attribute(a["name"], a["datatype"],
                            _mult_from_json(a["multiplicity"]))
                  for a in et["attributes"]))
        for et in doc["entityTypes"])
    relationships = tuple(
        Relationship(r["id"], r["name"], r["sourceId"], r["targetId"],
                     _mult_from_json(r["sourceMult"]),
                     _mult_from_json(r["targetMult"]),
                     exclusive=r["exclusive"], kind=r["kind"],
                     whole=r["whole"], group_id=r["groupId"])
        for r in doc["relationships"])
    generalizations = tuple(
        Generalization(g["subId"], g["superId"]) for g in doc["generalizations"])
    constraints = tuple(
        SemanticConstraint(c["id"], c["kind"], tuple(c["memberIds"]))
        for c in doc["constraints"])
    instances = tuple(
        Instance(i["name"], tuple(i["typeIds"])) for i in doc["instances"])
    return ConceptualModel(doc["name"], entity_types, relationships,
                           generalizations, constraints, instances)


# --------------------------------------------------------------------------
# diagram text


def _mult_label(m: Multiplicity) -> str:
    upper = "*" if m.upper is None else str(m.upper)
    label = f"{m.lower}..{upper}"
    return label + "!" if m.unsatisfiable else label


def _names(model: ConceptualModel) -> dict[str, str]:
    """Entity name by entity id."""
    # reversed, so the first entity type of a repeated id wins
    return {et.id: et.name for et in reversed(model.entity_types)}


def _member_label(names: dict[str, str], relationships: dict[str, Relationship],
                  member_id: str) -> str:
    r = relationships.get(member_id)
    if r is not None:
        return f"{r.name}({names[r.source_id]}, {names[r.target_id]})"
    return names[member_id]


_CONSTRAINT_LABELS = {AND_GROUP: "and", DISJOINT_GROUP: "disjoint"}


def _constraint_texts(model: ConceptualModel, names: dict[str, str]) -> Iterator[str]:
    """Note text per constraint, in model order."""
    relationships = None
    for con in model.constraints:
        if relationships is None:
            # reversed, so the first relationship of a repeated id wins
            relationships = {r.id: r for r in reversed(model.relationships)}
        label = _CONSTRAINT_LABELS.get(con.kind, "or")
        members = ", ".join(_member_label(names, relationships, m)
                            for m in con.member_ids)
        yield f"{{{label}}}: {members}"


def iter_plantuml(model: ConceptualModel) -> Iterator[str]:
    """The PlantUML text a line, or a fixed heading, at a time."""
    names = _names(model)
    mult_label = cache(_mult_label)
    yield f"@startuml\ntitle {model.name}\n"
    for et in model.entity_types:
        head = f"class {et.name} <<{et.bww}>>"
        if et.attributes:
            yield head + " {\n"
            for a in et.attributes:
                yield (f"  {a.name} : {a.datatype} "
                       f"[{mult_label(a.multiplicity)}]\n")
            yield "}\n"
        else:
            yield head + "\n"
    for g in model.generalizations:
        yield f"{names[g.super_id]} <|-- {names[g.sub_id]}\n"
    for r in model.relationships:
        source = names[r.source_id]
        target = names[r.target_id]
        label = r.name + (" {exclusive}" if r.exclusive else "")
        if r.kind in (AGGREGATION, COMPOSITION):
            connector = "*--" if r.kind == COMPOSITION else "o--"
            whole = names[r.whole]
            part = target if r.whole == r.source_id else source
            yield f"{whole} {connector} {part} : {label}\n"
        else:
            yield (f'{source} "{mult_label(r.source_mult)}" --> '
                   f'"{mult_label(r.target_mult)}" {target} : {label}\n')
    for n, text in enumerate(_constraint_texts(model, names), start=1):
        yield f'note "{text}" as N{n}\n'
    yield "@enduml\n"


def emit_plantuml(model: ConceptualModel) -> str:
    return "".join(iter_plantuml(model))


def iter_dot(model: ConceptualModel) -> Iterator[str]:
    """The Graphviz text a line, or a fixed heading, at a time."""
    names = _names(model)
    mult_label = cache(_mult_label)
    yield "digraph model {\n  rankdir=BT;\n  node [shape=box];\n"
    for et in model.entity_types:
        label_parts = [f"{et.name} <<{et.bww}>>"]
        for a in et.attributes:
            label_parts.append(f"{a.name} : {a.datatype} "
                               f"[{mult_label(a.multiplicity)}]")
        label = "\\n".join(label_parts)
        yield f'  "{et.name}" [label="{label}"];\n'
    for g in model.generalizations:
        yield (f'  "{names[g.sub_id]}" -> "{names[g.super_id]}" '
               "[arrowhead=onormal];\n")
    for r in model.relationships:
        source = names[r.source_id]
        target = names[r.target_id]
        label = (f"{r.name} ({mult_label(r.source_mult)}, "
                 f"{mult_label(r.target_mult)})")
        if r.exclusive:
            label += " {exclusive}"
        if r.kind in (AGGREGATION, COMPOSITION):
            whole = names[r.whole]
            part = target if r.whole == r.source_id else source
            tail = "diamond" if r.kind == COMPOSITION else "odiamond"
            yield (f'  "{whole}" -> "{part}" [label="{label}", '
                   f'dir=both, arrowtail={tail}, arrowhead=none];\n')
        else:
            yield (f'  "{source}" -> "{target}" [label="{label}", '
                   "arrowhead=vee];\n")
    for con, text in zip(model.constraints, _constraint_texts(model, names)):
        yield f'  "{con.id}" [shape=note, label="{text}"];\n'
    yield "}\n"


def emit_dot(model: ConceptualModel) -> str:
    return "".join(iter_dot(model))


# --------------------------------------------------------------------------
# review report


# the closed vocabulary of review flags, in report order: each kind's
# section title, where such a flag comes from and what to do about it
_SECTIONS = {
    "droppedProperty": (
        "Dropped properties",
        "A property could not be anchored as an attribute or a relationship.",
        "Declare a domain and a range, or restrict the property on a class."),
    "unmappedConstruct": (
        "Unmapped constructs",
        "A source construct has no counterpart in the model.",
        "Model the information another way, or confirm it can be left out."),
    "exclusiveRelation": (
        "Exclusive relationships",
        "A universal restriction admits only the listed target.",
        "Confirm the exclusive marker on the relationship."),
    "compositionCandidate": (
        "Composition candidates",
        "Whole-part naming with a part nothing else relates to.",
        "Confirm the part cannot outlive the whole."),
    "aggregationCandidate": (
        "Aggregation candidates",
        "Whole-part naming, but the part joins other relationships.",
        "Confirm shared ownership is intended."),
    "unsatisfiableMultiplicity": (
        "Unsatisfiable multiplicities",
        "Merged cardinality bounds exclude every possible count.",
        "Relax one of the conflicting restrictions."),
    "equivalenceCollapsed": (
        "Collapsed equivalences",
        "Axioms, definitions or union memberships closed a superclass cycle, "
        "so its classes are mutually equivalent.",
        "Confirm the surviving name is the right one."),
    "multiDomainProperty": (
        "Multi-domain properties",
        "One property is declared on several domains, so it maps several times.",
        "Check that the copies should stay in sync."),
    "zeroPropertyEntity": (
        "Entities without properties",
        "No property reaches this entity.",
        "Confirm the entity earns its place in the model."),
}
FLAG_KINDS = tuple(_SECTIONS)


def iter_report(model: ConceptualModel, report: ValidationReport) -> Iterator[str]:
    """The review report a line, or a heading, at a time."""
    yield (f"# Specialist validation report\n\nModel: {model.name}\n"
           f"{len(report.items)} flag(s), {len(report.notes)} note(s).\n")
    if not report.items and not report.notes:
        yield "\nNothing flagged.\n"
        return
    by_kind: dict[str, list] = {}
    for item in report.items:
        by_kind.setdefault(item.kind, []).append(item)
    for kind, (title, origin, action) in _SECTIONS.items():
        items = sorted(by_kind.get(kind, ()), key=lambda i: (i.subject, i.message))
        if not items:
            continue
        yield f"\n## {title}\n\n{origin}\nSuggested action: {action}\n\n"
        for item in items:
            yield f"- `{item.subject}`: {item.message}\n"
    if report.notes:
        yield "\n## Notes\n\n"
        for note in report.notes:
            yield f"- {note}\n"


def emit_report(model: ConceptualModel, report: ValidationReport) -> str:
    return "".join(iter_report(model, report))
