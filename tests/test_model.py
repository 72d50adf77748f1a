"""Conceptual-model structural checks and canonical ordering."""

import sys

import pytest

from ont2cm import cot
from ont2cm.model import (
    AGGREGATION,
    AND_GROUP,
    ASSOCIATION,
    COMPOSITION,
    DISJOINT_GROUP,
    MANY,
    OR_GROUP,
    Attribute,
    ConceptualModel,
    EntityType,
    Generalization,
    Instance,
    Multiplicity,
    Relationship,
    SemanticConstraint,
    canonical_order,
    check_model,
    entity_id,
    relationship_id,
)
from ont2cm.transform import derive_model


def et(name, attributes=(), bww="thingSet"):
    return EntityType(entity_id(name), name, bww, "primitive",
                      tuple(attributes))


def rel(name, source, target, **kw):
    return Relationship(relationship_id(name, source, target), name,
                        entity_id(source), entity_id(target),
                        MANY, MANY, **kw)


def clean_model():
    return ConceptualModel(
        "m",
        entity_types=(
            et("DNA"),
            et("Protein", attributes=(
                Attribute("accession", "string", Multiplicity(1, 1)),)),
        ),
        relationships=(rel("binds", "Protein", "DNA"),),
        generalizations=(Generalization(entity_id("Protein"), entity_id("DNA")),),
        constraints=(SemanticConstraint("con:disjoint:DNA:Protein", DISJOINT_GROUP,
                                        (entity_id("DNA"), entity_id("Protein"))),),
        instances=(Instance("p53", (entity_id("Protein"),)),),
    )


class TestCheckModel:
    def test_clean_model_passes(self):
        assert check_model(clean_model()) == []

    @pytest.mark.parametrize("model,kind", [
        (ConceptualModel("m", entity_types=(et("A"), et("A"))), "duplicateId"),
        (ConceptualModel("m", entity_types=(
            EntityType("et:A", "A", "thingSet", "primitive"),
            EntityType("et:A2", "A", "thingSet", "primitive"))), "duplicateName"),
        (ConceptualModel("m", entity_types=(et("A"),),
                         relationships=(rel("p", "A", "B"),)), "danglingReference"),
        (ConceptualModel("m", entity_types=(
            et("A", attributes=(Attribute("x", "string", Multiplicity(1, 1)),
                                Attribute("x", "string", MANY))),)),
         "duplicateAttribute"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         relationships=(Relationship(
                             relationship_id("p", "A", "B"), "p", entity_id("A"),
                             entity_id("B"), MANY, Multiplicity(-1, None)),)),
         "badMultiplicity"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         relationships=(rel("p", "A", "B", kind=COMPOSITION,
                                            whole="et:C"),)), "badWhole"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         relationships=(rel("p", "A", "B", whole=entity_id("A")),)),
         "badWhole"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         relationships=(rel("p", "A", "B", group_id="con:missing"),)),
         "danglingReference"),
        (ConceptualModel("m", entity_types=(et("A"),),
                         generalizations=(Generalization("et:A", "et:A"),)),
         "generalizationCycle"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         generalizations=(Generalization("et:A", "et:B"),
                                          Generalization("et:B", "et:A"))),
         "generalizationCycle"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         constraints=(SemanticConstraint(
                             "con:x", DISJOINT_GROUP, ("et:A",)),)), "badConstraint"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         constraints=(SemanticConstraint(
                             "con:x", AND_GROUP, ("rel:p:A:B", "rel:q:A:B")),)),
         "danglingReference"),
        (ConceptualModel("m", instances=(Instance("x", ("et:A",)),)),
         "danglingReference"),
        (ConceptualModel("m", entity_types=(
            et("A", attributes=(Attribute("x", "string",
                                          Multiplicity(-1, 1)),)),)),
         "badMultiplicity"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         generalizations=(Generalization("et:A", "et:B"),
                                          Generalization("et:A", "et:B"))),
         "duplicateId"),
        (ConceptualModel("m", entity_types=(et("A"),),
                         generalizations=(Generalization("et:A", "et:B"),)),
         "danglingReference"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         constraints=(SemanticConstraint(
                             "con:x", "xorGroup", ("et:A", "et:B")),)),
         "badConstraint"),
        (ConceptualModel("m", entity_types=(et("A"),),
                         instances=(Instance("x", ("et:A",)),
                                    Instance("x", ("et:A",)))),
         "duplicateName"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         relationships=(rel("p", "A", "B"), rel("p", "A", "B"))),
         "duplicateId"),
        (ConceptualModel("m", entity_types=(et("A"), et("B")),
                         constraints=(SemanticConstraint(
                             "con:x", DISJOINT_GROUP, ("et:A", "et:B")),
                             SemanticConstraint(
                             "con:x", OR_GROUP, ("et:A", "et:B")))),
         "duplicateId"),
    ])
    def test_defect_detected(self, model, kind):
        assert kind in {d.kind for d in check_model(model)}

    def test_ids_repeated_three_times(self):
        # each repeated id is reported once, entity types first, then
        # relationships, then constraints; a generalization is its own id
        # and repeats on every copy; references to a repeated id resolve
        disjoint = SemanticConstraint("con:x", DISJOINT_GROUP, ("et:A", "et:B"))
        m = ConceptualModel(
            "m", entity_types=(et("A"), et("B"), et("A"), et("A")),
            relationships=(rel("p", "A", "B", group_id="con:x"),) * 3,
            generalizations=(Generalization("et:A", "et:B"),) * 3,
            constraints=(disjoint,) * 3)
        assert [(d.kind, d.subject, d.message) for d in check_model(m)] == [
            ("duplicateId", "et:A", "entity type id 'et:A' repeats"),
            ("duplicateId", "rel:p:A:B", "relationship id 'rel:p:A:B' repeats"),
            ("duplicateId", "con:x", "constraint id 'con:x' repeats"),
            ("duplicateName", "A", "entity name 'A' repeats"),
            ("duplicateName", "A", "entity name 'A' repeats"),
            ("duplicateId", "et:A->et:B", "generalization repeats"),
            ("duplicateId", "et:A->et:B", "generalization repeats"),
        ]

    def test_unsatisfiable_multiplicity_is_tolerated_when_marked(self):
        crossed = Multiplicity(2, 1)
        assert crossed.unsatisfiable
        m = ConceptualModel("m", entity_types=(
            et("A", attributes=(Attribute("x", "string", crossed),)),))
        assert check_model(m) == []

    def test_aggregation_with_endpoint_whole_passes(self):
        m = ConceptualModel(
            "m", entity_types=(et("Whole"), et("Part")),
            relationships=(rel("has_part", "Whole", "Part", kind=AGGREGATION,
                               whole=entity_id("Whole")),))
        assert check_model(m) == []

    def test_or_group_over_relationships_passes(self):
        members = (relationship_id("p", "A", "B"), relationship_id("p", "A", "C"))
        m = ConceptualModel(
            "m", entity_types=(et("A"), et("B"), et("C")),
            relationships=(
                rel("p", "A", "B", group_id="con:or:A:p"),
                rel("p", "A", "C", group_id="con:or:A:p")),
            constraints=(SemanticConstraint("con:or:A:p", OR_GROUP, members),))
        assert check_model(m) == []

    def test_diamond_generalization_is_not_a_cycle(self):
        m = ConceptualModel(
            "m", entity_types=(et("A"), et("B"), et("C"), et("D")),
            generalizations=(Generalization("et:D", "et:B"),
                             Generalization("et:D", "et:C"),
                             Generalization("et:B", "et:A"),
                             Generalization("et:C", "et:A")))
        assert check_model(m) == []

    def test_cycles_reported_in_sweep_order(self):
        pairs = [("A", "B"), ("B", "C"), ("C", "A"), ("B", "D"), ("D", "B"),
                 ("D", "A"), ("E", "E")]
        m = ConceptualModel(
            "m", entity_types=tuple(et(n) for n in "ABCDE"),
            generalizations=tuple(Generalization(entity_id(a), entity_id(b))
                                  for a, b in pairs))
        assert [(d.subject, d.message) for d in check_model(m)] == [
            ("et:E", "et:E generalizes itself"),
            ("et:A", "generalization cycle: et:A -> et:B -> et:C -> et:A"),
            ("et:B", "generalization cycle: et:B -> et:D -> et:B"),
            ("et:A", "generalization cycle: et:A -> et:B -> et:D -> et:A"),
            ("et:E", "generalization cycle: et:E -> et:E"),
        ]

    def test_chain_deeper_than_recursion_limit(self):
        # each superclass sorts after its subclass, so the sweep starts at
        # the bottom and walks the whole chain in one descent
        n = 1500
        assert n > sys.getrecursionlimit()
        lines = ["ontology chain"]
        lines += [f"class C{i:05d}" for i in range(n)]
        lines += [f"subclass C{i:05d} C{i + 1:05d}" for i in range(n - 1)]
        model, _, _, _ = derive_model(cot.parse("\n".join(lines) + "\n"))
        assert len(model.generalizations) == n - 1
        assert check_model(model) == []


class TestCanonicalOrder:
    def test_sorts_every_collection(self):
        m = ConceptualModel(
            "m",
            entity_types=(et("B"), et("A", attributes=(
                Attribute("z", "string", MANY),
                Attribute("a", "string", MANY)))),
            relationships=(rel("q", "B", "A"), rel("p", "B", "A"),
                           rel("p", "A", "B")),
            generalizations=(Generalization("et:B", "et:A"),
                             Generalization("et:A", "et:B")),
            instances=(Instance("z", ()), Instance("a", ())),
        )
        ordered = canonical_order(m)
        assert [e.name for e in ordered.entity_types] == ["A", "B"]
        assert [a.name for a in ordered.entity_types[0].attributes] == ["a", "z"]
        assert [(r.name, r.source_id) for r in ordered.relationships] == [
            ("p", "et:A"), ("p", "et:B"), ("q", "et:B")]
        assert [g.sub_id for g in ordered.generalizations] == ["et:A", "et:B"]
        assert [i.name for i in ordered.instances] == ["a", "z"]

    def test_idempotent(self):
        once = canonical_order(clean_model())
        assert canonical_order(once) == once

    def test_kind_flags_survive(self):
        m = ConceptualModel(
            "m", entity_types=(et("W"), et("P")),
            relationships=(rel("has_part", "W", "P", kind=COMPOSITION,
                               whole=entity_id("W"), exclusive=True),))
        ordered = canonical_order(m)
        r = ordered.relationships[0]
        assert (r.kind, r.whole, r.exclusive) == (COMPOSITION, "et:W", True)
        assert r.kind != ASSOCIATION
