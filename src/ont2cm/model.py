"""Conceptual data model: entity types with attributes, relationships,
generalizations, semantic constraint groups and instances.

Ids are stable strings ("et:Protein", "rel:binds:Protein:DNA",
"con:disjoint:DNA:RNA") so models can be compared and emitted byte for
byte. A value stores no fact another field decides: a multiplicity is
unsatisfiable exactly when its bounds cross. check_model is the structural
gatekeeper: a model coming out of the transformation must always pass it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .ontology import Finding

ASSOCIATION = "association"
AGGREGATION = "aggregation"
COMPOSITION = "composition"

AND_GROUP = "andGroup"
OR_GROUP = "orGroup"
DISJOINT_GROUP = "disjoint"


class Multiplicity(NamedTuple):
    lower: int
    upper: int | None = None  # None means unbounded

    @property
    def unsatisfiable(self) -> bool:
        """No count meets both bounds: the upper bound is below the lower."""
        return self.upper is not None and self.upper < self.lower


MANY = Multiplicity(0, None)


class Attribute(NamedTuple):
    name: str
    datatype: str
    multiplicity: Multiplicity


class EntityType(NamedTuple):
    id: str
    name: str
    bww: str
    definition_kind: str
    attributes: tuple[Attribute, ...] = ()


class Relationship(NamedTuple):
    id: str
    name: str
    source_id: str
    target_id: str
    source_mult: Multiplicity
    target_mult: Multiplicity
    exclusive: bool = False
    kind: str = ASSOCIATION
    whole: str | None = None     # entity id owning the part, when aggregated
    group_id: str | None = None  # and/or constraint this edge belongs to


class Generalization(NamedTuple):
    sub_id: str
    super_id: str


class SemanticConstraint(NamedTuple):
    id: str
    kind: str
    member_ids: tuple[str, ...]


class Instance(NamedTuple):
    name: str
    type_ids: tuple[str, ...]


class ConceptualModel(NamedTuple):
    name: str
    entity_types: tuple[EntityType, ...] = ()
    relationships: tuple[Relationship, ...] = ()
    generalizations: tuple[Generalization, ...] = ()
    constraints: tuple[SemanticConstraint, ...] = ()
    instances: tuple[Instance, ...] = ()


def entity_id(name: str) -> str:
    return f"et:{name}"


def relationship_id(name: str, source: str, target: str) -> str:
    return f"rel:{name}:{source}:{target}"


def _check_multiplicity(m: Multiplicity, subject: str, defects: list[Finding]) -> None:
    if m.lower < 0:
        defects.append(Finding("badMultiplicity", subject,
                               f"{subject}: lower bound {m.lower} is negative"))


def check_model(model: ConceptualModel) -> list[Finding]:
    """Structural well-formedness: unique ids, resolvable references,
    non-negative lower bounds, acyclic generalization, constraint groups of
    at least two homogeneous members. Crossed bounds pass: they read as
    unsatisfiable, which the review report flags."""
    defects: list[Finding] = []

    def check_unique(values, what) -> set[str]:
        """The set of the ids of `values`; an id that repeats is reported once."""
        seen, dup = set(), set()
        for i in map(attrgetter("id"), values):
            if i in seen and i not in dup:
                defects.append(Finding("duplicateId", i, f"{what} id {i!r} repeats"))
                dup.add(i)
            seen.add(i)
        return seen

    # one set per id kind, read for every reference to that kind
    entity_id_set = check_unique(model.entity_types, "entity type")
    rel_id_set = check_unique(model.relationships, "relationship")
    constraint_id_set = check_unique(model.constraints, "constraint")

    seen_names: set[str] = set()
    for et in model.entity_types:
        if et.name in seen_names:
            defects.append(Finding("duplicateName", et.name,
                                   f"entity name {et.name!r} repeats"))
        seen_names.add(et.name)
        attr_names: set[str] = set()
        for attr in et.attributes:
            if attr.name in attr_names:
                defects.append(Finding(
                    "duplicateAttribute", f"{et.name}.{attr.name}",
                    f"attribute {attr.name!r} repeats on {et.name}"))
            attr_names.add(attr.name)
            _check_multiplicity(attr.multiplicity, f"{et.name}.{attr.name}", defects)

    for rel in model.relationships:
        for end in (rel.source_id, rel.target_id):
            if end not in entity_id_set:
                defects.append(Finding("danglingReference", rel.id,
                                       f"{rel.id} endpoint {end!r} is unknown"))
        _check_multiplicity(rel.source_mult, f"{rel.id} source", defects)
        _check_multiplicity(rel.target_mult, f"{rel.id} target", defects)
        if rel.kind in (AGGREGATION, COMPOSITION):
            if rel.whole not in (rel.source_id, rel.target_id):
                defects.append(Finding(
                    "badWhole", rel.id,
                    f"{rel.id} is a {rel.kind} but its whole {rel.whole!r} "
                    "is not an endpoint"))
        elif rel.whole is not None:
            defects.append(Finding("badWhole", rel.id,
                                   f"association {rel.id} must not name a whole"))
        if rel.group_id is not None and rel.group_id not in constraint_id_set:
            defects.append(Finding("danglingReference", rel.id,
                                   f"{rel.id} names unknown group {rel.group_id!r}"))

    gen_edges: dict[str, list[str]] = {}
    seen_gens: set[tuple[str, str]] = set()
    for gen in model.generalizations:
        pair = (gen.sub_id, gen.super_id)
        if pair in seen_gens:
            defects.append(Finding("duplicateId", f"{gen.sub_id}->{gen.super_id}",
                                   "generalization repeats"))
        seen_gens.add(pair)
        for end in pair:
            if end not in entity_id_set:
                defects.append(Finding(
                    "danglingReference", f"{gen.sub_id}->{gen.super_id}",
                    f"generalization endpoint {end!r} is unknown"))
        if gen.sub_id == gen.super_id:
            defects.append(Finding("generalizationCycle", gen.sub_id,
                                   f"{gen.sub_id} generalizes itself"))
        gen_edges.setdefault(gen.sub_id, []).append(gen.super_id)

    # depth-first cycle sweep over the generalization graph; an explicit
    # stack, so a taxonomy deeper than the recursion limit is fine
    state: dict[str, int] = {}  # 1 in progress, 2 done
    for root in sorted(gen_edges):
        if root in state:
            continue
        state[root] = 1
        trail = [root]  # the nodes in progress, outermost first
        pending = [iter(gen_edges[root])]  # their unvisited successors
        while pending:
            for nxt in pending[-1]:
                if state.get(nxt) == 1:
                    cycle = trail[trail.index(nxt):] + [nxt]
                    defects.append(Finding(
                        "generalizationCycle", nxt,
                        "generalization cycle: " + " -> ".join(cycle)))
                elif nxt not in state:
                    state[nxt] = 1
                    trail.append(nxt)
                    pending.append(iter(gen_edges.get(nxt, ())))
                    break
            else:
                pending.pop()
                state[trail.pop()] = 2

    for con in model.constraints:
        if len(con.member_ids) < 2:
            defects.append(Finding("badConstraint", con.id,
                                   f"{con.id} needs at least 2 members"))
        if con.kind == DISJOINT_GROUP:
            pool, what = entity_id_set, "entity"
        elif con.kind in (AND_GROUP, OR_GROUP):
            # groups are homogeneous: all relationships or all entity types
            pool = rel_id_set if all(m in rel_id_set for m in con.member_ids) \
                else entity_id_set
            what = "member"
        else:
            defects.append(Finding("badConstraint", con.id,
                                   f"{con.id} has unknown kind {con.kind!r}"))
            continue
        for m in con.member_ids:
            if m not in pool:
                defects.append(Finding(
                    "danglingReference", con.id,
                    f"{con.id} references unknown {what} {m!r}"))

    seen_instances: set[str] = set()
    for inst in model.instances:
        if inst.name in seen_instances:
            defects.append(Finding("duplicateName", inst.name,
                                   f"instance {inst.name!r} repeats"))
        seen_instances.add(inst.name)
        for t in inst.type_ids:
            if t not in entity_id_set:
                defects.append(Finding("danglingReference", inst.name,
                                       f"instance {inst.name} has unknown type {t!r}"))

    return defects


def _attributes_sorted(et: EntityType) -> EntityType:
    """The entity type with its attributes sorted by name; the same object
    when they already are."""
    attributes = tuple(sorted(et.attributes, key=lambda a: a.name))
    return et if attributes == et.attributes else et._replace(attributes=attributes)


def canonical_order(model: ConceptualModel) -> ConceptualModel:
    """Sort every collection into its canonical order. Idempotent; two
    models with the same content compare equal after ordering."""
    entity_types = tuple(sorted(map(_attributes_sorted, model.entity_types),
                                key=lambda et: et.name))
    # by (name, source_id, target_id): stable sorts, the least significant
    # key first, so no key tuple is built per relationship
    relationships = sorted(model.relationships, key=attrgetter("target_id"))
    relationships.sort(key=attrgetter("source_id"))
    relationships.sort(key=attrgetter("name"))
    # a Generalization compares as (sub_id, super_id)
    generalizations = tuple(sorted(model.generalizations))
    constraints = tuple(sorted(
        model.constraints, key=lambda c: (c.kind, c.member_ids, c.id)))
    instances = tuple(sorted(model.instances, key=lambda i: i.name))
    return ConceptualModel(model.name, entity_types, tuple(relationships),
                           generalizations, constraints, instances)
