"""Transformation engine: golden models for each mapping rule, mechanism
unit tests, and the model invariants over generated ontologies."""

from collections import Counter
from pathlib import Path

import json
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ont2cm import cot
from ont2cm.emit import (
    emit_bww_json,
    emit_dot,
    emit_model_json,
    emit_plantuml,
    emit_report,
)
from ont2cm.model import (
    AGGREGATION,
    ASSOCIATION,
    COMPOSITION,
    Multiplicity,
    check_model,
)
from ont2cm.ontology import (
    CARDINALITY_FLAVORS,
    EXACTLY,
    MAX,
    MIN,
    OBJECT,
    SOME,
    SUBCLASS,
    Axiom,
    ClassDefinition,
    ClassExpression,
    Ontology,
    OntologyIndex,
    PropertyDefinition,
    Restriction,
    named,
    restriction_expr,
)
from ont2cm.transform import TransformConfig, derive_model, merged_multiplicity
from invariants import assert_model_invariants
from lookups import concepts, entities, flags_of
from oracles import oracle_relationships
from strategies import CLASS_POOL, PROP_POOL, ontologies
from test_ontology import ontologies_with_cycles, reference_ancestors

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str):
    return cot.parse((FIXTURES / name).read_text())


def derive(name: str, config: TransformConfig | None = None):
    model, report, _, _ = derive_model(load(name), config=config)
    return model, report


def from_text(text: str, config: TransformConfig | None = None):
    model, report, _, _ = derive_model(cot.parse(text), config=config)
    return model, report


class TestGoldenModels:
    @pytest.mark.parametrize("stem", ["rule1", "rule2", "rule3",
                                      "rule4", "rule5", "rule6"])
    def test_fixture_matches_golden_bytes(self, stem):
        model, _ = derive(f"{stem}.cot")
        golden = (FIXTURES / "golden" / f"{stem}.model.json").read_bytes()
        assert emit_model_json(model).encode() == golden


class TestRelationships:
    def test_existential_restriction_derives_open_relationship(self):
        model, report = derive("protein-dna.cot")
        (rel,) = model.relationships
        assert rel.source_id == "et:Protein"
        assert rel.target_id == "et:DNA"
        assert rel.target_mult == Multiplicity(0, None)
        assert rel.exclusive is False
        assert flags_of(report, "exclusiveRelation") == ()

    def test_universal_restriction_marks_exclusive(self):
        model, report = derive("protein-dna-only.cot")
        (rel,) = model.relationships
        assert rel.exclusive is True
        assert rel.target_mult == Multiplicity(0, None)
        flags = flags_of(report, "exclusiveRelation")
        assert len(flags) == 1
        assert flags[0].subject == rel.id

    def test_mixed_flavors_mark_only_their_target(self):
        model, _ = from_text(
            "ontology t\nclass A\nclass B\nclass C\n"
            "objprop p domain A\n"
            "restriction A p some B\n"
            "restriction A p only C\n")
        by_target = {r.target_id: r for r in model.relationships}
        assert by_target["et:B"].exclusive is False
        assert by_target["et:C"].exclusive is True

    def test_restriction_site_without_domain_anchors_relationship(self):
        model, _ = from_text(
            "ontology t\nclass A\nclass B\nobjprop p\n"
            "restriction A p some B\n")
        (rel,) = model.relationships
        assert (rel.source_id, rel.target_id) == ("et:A", "et:B")

    def test_subclass_refining_restriction_gets_own_relationship(self):
        model, _ = from_text(
            "ontology t\nclass Protein\nclass Receptor\nclass Ligand\n"
            "objprop binds domain Protein range Ligand\n"
            "subclass Receptor Protein\n"
            "restriction Receptor binds only Ligand\n")
        ids = {r.id for r in model.relationships}
        assert ids == {"rel:binds:Protein:Ligand", "rel:binds:Receptor:Ligand"}
        refined = model.relationships[
            [r.id for r in model.relationships].index("rel:binds:Receptor:Ligand")]
        assert refined.exclusive is True

    def test_plain_subclass_does_not_duplicate_parent_relationship(self):
        model, _ = from_text(
            "ontology t\nclass Protein\nclass Enzyme\nclass DNA\n"
            "objprop binds domain Protein range DNA\n"
            "subclass Enzyme Protein\n")
        assert [r.id for r in model.relationships] == ["rel:binds:Protein:DNA"]

    def test_two_existentials_form_and_group(self):
        model, _ = from_text(
            "ontology t\nclass A\nclass B\nclass C\n"
            "objprop p domain A\n"
            "restriction A p some B\nrestriction A p some C\n")
        (con,) = model.constraints
        assert con.kind == "andGroup"
        assert con.member_ids == ("rel:p:A:B", "rel:p:A:C")
        assert all(r.group_id == con.id for r in model.relationships)

    @pytest.mark.parametrize("target", ["and(C, D, A)", "and(C, and(D, A))"])
    def test_intersection_target_forms_one_and_group(self, target):
        model, report = from_text(
            "ontology t\nclass A\nclass B\nclass C\nclass D\nobjprop q\n"
            f"restriction B q some {target}\n")
        ids = ("rel:q:B:A", "rel:q:B:C", "rel:q:B:D")
        assert tuple(r.id for r in model.relationships) == ids
        (con,) = model.constraints
        assert (con.id, con.kind, con.member_ids) == ("con:and:B:q", "andGroup", ids)
        assert all(r.group_id == con.id for r in model.relationships)
        assert not any("target part" in i.message
                       for i in flags_of(report, "unmappedConstruct"))

    def test_union_target_forms_or_group(self):
        model, _ = from_text(
            "ontology t\nclass A\nclass B\nclass C\n"
            "objprop p domain A\n"
            "restriction A p some or(B, C)\n")
        (con,) = model.constraints
        assert con.kind == "orGroup"
        assert con.member_ids == ("rel:p:A:B", "rel:p:A:C")

    @pytest.mark.parametrize("target", ["or(C, D, A)", "or(C, or(D, A))"])
    def test_union_target_forms_one_or_group(self, target):
        model, report = from_text(
            "ontology t\nclass A\nclass B\nclass C\nclass D\nobjprop q\n"
            f"restriction B q some {target}\n")
        ids = ("rel:q:B:A", "rel:q:B:C", "rel:q:B:D")
        assert tuple(r.id for r in model.relationships) == ids
        (con,) = model.constraints
        assert (con.id, con.kind, con.member_ids) == ("con:or:B:q", "orGroup", ids)
        assert all(r.group_id == con.id for r in model.relationships)
        assert flags_of(report, "unmappedConstruct") == ()

    def test_single_target_never_forms_group(self):
        model, _ = derive("protein-dna.cot")
        assert model.constraints == ()
        assert model.relationships[0].group_id is None

    def test_cardinalities_merge_tightest(self):
        model, report = from_text(
            "ontology t\nclass A\nclass B\nobjprop p domain A range B\n"
            "restriction A p min 2\nrestriction A p min 1\n"
            "restriction A p max 5\nrestriction A p max 3\n")
        assert model.relationships[0].target_mult == Multiplicity(2, 3)
        assert flags_of(report, "unsatisfiableMultiplicity") == ()

    def test_conflicting_bounds_flagged_not_dropped(self):
        model, report = from_text(
            "ontology t\nclass A\nclass B\nobjprop p domain A range B\n"
            "restriction A p min 3\nrestriction A p max 1\n")
        mult = model.relationships[0].target_mult
        assert (mult.lower, mult.upper, mult.unsatisfiable) == (3, 1, True)
        (flag,) = flags_of(report, "unsatisfiableMultiplicity")
        assert flag.subject == "A.p"

    def test_direct_cardinality_beats_inherited(self):
        model, _ = from_text(
            "ontology t\nclass Base\nclass Sub\nclass B\n"
            "objprop p domain Base, Sub range B\n"
            "subclass Sub Base\n"
            "restriction Base p exactly 2\nrestriction Sub p exactly 5\n")
        by_source = {r.source_id: r for r in model.relationships}
        assert by_source["et:Base"].target_mult == Multiplicity(2, 2)
        assert by_source["et:Sub"].target_mult == Multiplicity(5, 5)

    def test_unrelated_range_and_target_noted(self):
        _, report = from_text(
            "ontology t\nclass A\nclass B\nclass C\n"
            "objprop p domain A range B\n"
            "restriction A p some C\n")
        assert any("unrelated to restriction target" in n for n in report.notes)

    def test_object_property_without_anchor_dropped_once(self):
        _, report = from_text(
            "ontology t\nclass A\nclass B\nobjprop p\nobjprop q domain A\n")
        dropped = flags_of(report, "droppedProperty")
        assert sorted(i.subject for i in dropped) == ["p", "q"]


class TestAttributes:
    def test_datatype_property_without_domain_dropped(self):
        _, report = from_text("ontology t\nclass A\ndataprop d\n")
        (flag,) = flags_of(report, "droppedProperty")
        assert flag.subject == "d"

    def test_restriction_site_anchors_attribute(self):
        model, report = from_text(
            "ontology t\nclass A\ndataprop d range integer\n"
            "restriction A d exactly 1\n")
        (attr,) = entities(model)["et:A"].attributes
        assert (attr.name, attr.datatype) == ("d", "integer")
        assert attr.multiplicity == Multiplicity(1, 1)
        assert flags_of(report, "droppedProperty") == ()

    @pytest.mark.parametrize("statement,message", [
        ("restriction B d some A", "some target A"),
        ("restriction B d only or(A, B)", "only target or(A, B)"),
        ("subclass B restriction(d, some, A)", "some target A")])
    def test_class_target_of_a_datatype_property_flagged(self, statement, message):
        model, report = from_text(
            f"ontology t\nclass A\nclass B\ndataprop d\n{statement}\n")
        (attr,) = entities(model)["et:B"].attributes
        assert (attr.name, attr.datatype) == ("d", "string")
        assert [(i.subject, i.message) for i in flags_of(report, "unmappedConstruct")] \
            == [("restriction B.d",
                 f"{message} of a datatype property has no direct mapping")]
        assert flags_of(report, "droppedProperty") == ()

    def test_missing_range_defaults_to_string(self):
        model, _ = from_text("ontology t\nclass A\ndataprop d domain A\n")
        (attr,) = entities(model)["et:A"].attributes
        assert attr.datatype == "string"
        assert attr.multiplicity == Multiplicity(0, None)

    def test_multi_domain_property_maps_everywhere_and_flags(self):
        model, report = from_text(
            "ontology t\nclass A\nclass B\ndataprop d domain A, B range string\n")
        assert entities(model)["et:A"].attributes[0].name == "d"
        assert entities(model)["et:B"].attributes[0].name == "d"
        (flag,) = flags_of(report, "multiDomainProperty")
        assert flag.subject == "d"


class TestGeneralizations:
    def test_equivalence_points_at_named_class(self):
        model, _ = derive("rule2.cot")
        (gen,) = model.generalizations
        assert (gen.sub_id, gen.super_id) == ("et:Enzyme", "et:Protein")

    def test_intersection_definition_yields_edges_per_conjunct(self):
        model, _ = from_text(
            "ontology t\nclass A\nclass B\nclass C\n"
            "defined-class D = and(A, B)\n")
        pairs = {(g.sub_id, g.super_id) for g in model.generalizations}
        assert pairs == {("et:D", "et:A"), ("et:D", "et:B")}

    def test_union_definition_makes_members_subtypes(self):
        model, report = from_text(
            "ontology t\nclass DNA\nclass RNA\n"
            "defined-class NucleicAcid = or(DNA, RNA)\n")
        pairs = {(g.sub_id, g.super_id) for g in model.generalizations}
        assert pairs == {("et:DNA", "et:NucleicAcid"),
                         ("et:RNA", "et:NucleicAcid")}
        (con,) = model.constraints
        assert (con.kind, con.member_ids) == ("orGroup", ("et:DNA", "et:RNA"))
        assert any("union definition" in n for n in report.notes)

    @pytest.mark.parametrize("statement", [
        "same-class X or(A, B)", "defined-class X = or(A, B)",
        "same-class X or(A, or(B, C))", "defined-class X = or(A, or(B, C))"])
    def test_union_members_inherit_from_the_subject(self, statement):
        members = re.findall(r"\b[A-C]\b", statement)
        classes = "".join(f"class {m}\n" for m in members)
        if statement.startswith("same-class"):
            classes += "class X\n"
        model, report, grading, _ = derive_model(cot.parse(
            f"ontology t\n{classes}{statement}\n"
            "dataprop size domain X range integer\n"))
        ids = tuple(f"et:{m}" for m in members)
        pairs = {(g.sub_id, g.super_id) for g in model.generalizations}
        assert pairs == {(sub, "et:X") for sub in ids}
        (con,) = model.constraints
        assert (con.id, con.kind, con.member_ids) == ("con:union:X", "orGroup", ids)
        assert {concepts(grading)[m].category for m in members} == {"bwwClass"}
        assert flags_of(report, "zeroPropertyEntity") == ()
        assert flags_of(report, "unmappedConstruct") == ()

    @pytest.mark.parametrize("order", [1, -1])
    def test_each_union_of_one_subject_is_its_own_group(self, order):
        # the groups go in member order, whatever the statement order;
        # a member set stated twice stays one group
        statements = ["defined-class X = or(C, D)", "same-class X or(A, B)",
                      "same-class X or(B, A)"][::order]
        model, report = from_text("ontology t\nclass A\nclass B\nclass C\n"
                                  "class D\n" + "\n".join(statements) + "\n")
        assert [(c.id, c.kind, c.member_ids) for c in model.constraints] == [
            ("con:union:X", "orGroup", ("et:A", "et:B")),
            ("con:union:X:2", "orGroup", ("et:C", "et:D"))]
        assert {(g.sub_id, g.super_id) for g in model.generalizations} == {
            (f"et:{m}", "et:X") for m in "ABCD"}
        # the two same-class statements give one note
        assert sum("review the or-group" in n for n in report.notes) == 2
        assert check_model(model) == []

    def test_union_supertype_in_subclass_axiom_is_flagged(self):
        model, report = from_text(
            "ontology t\nclass A\nclass B\nclass C\n"
            "subclass A or(B, C)\n")
        assert model.generalizations == ()
        assert any(i.kind == "unmappedConstruct"
                   for i in report.items if "union" in i.message)

    def test_cycle_closing_equivalence_collapses(self):
        model, report = from_text(
            "ontology t\nclass A\nclass B\n"
            "subclass B A\nsame-class A B\n")
        assert [et.name for et in model.entity_types] == ["A"]
        assert model.generalizations == ()
        (flag,) = flags_of(report, "equivalenceCollapsed")
        assert (flag.subject, flag.message) == (
            "A", "absorbed equivalent class(es): B")

    def test_repeated_assertion_noted_once(self):
        _, report = from_text(
            "ontology t\nclass A\n"
            "defined-class D = and(A, restriction(p, some, A))\n"
            "objprop p domain D range A\n"
            "subclass D A\n")
        assert any("asserted more than one way" in n for n in report.notes)

    def test_edges_asserted_more_than_one_way_are_noted_in_first_seen_order(self):
        # subclass axioms come first, so A -> B and then C -> D are seen
        # first; their definitions arrive the other way round
        _, report = from_text(
            "ontology t\nclass B\nclass D\n"
            "defined-class C = and(D, B)\ndefined-class A = and(B, D)\n"
            "subclass A B\nsubclass C D\n")
        assert [n for n in report.notes if "more than one way" in n] == [
            "generalization A -> B asserted more than one way: "
            "subclass axiom, definition",
            "generalization C -> D asserted more than one way: "
            "subclass axiom, definition"]

    def test_equivalence_cycle_collapsed_and_flagged(self):
        model, report = from_text(
            "ontology t\nclass A\nclass B\nclass C\n"
            "subclass A B\nsubclass B A\nsubclass C A\n")
        names = [et.name for et in model.entity_types]
        assert names == ["A", "C"]
        (flag,) = flags_of(report, "equivalenceCollapsed")
        assert flag.subject == "A"
        assert "B" in flag.message


class TestWholePart:
    def test_isolated_part_is_composition(self):
        model, report = derive("rule6.cot")
        (rel,) = model.relationships
        assert rel.kind == COMPOSITION
        assert rel.whole == "et:Chromosome"
        assert len(flags_of(report, "compositionCandidate")) == 1

    def test_busy_part_is_aggregation(self):
        model, report = from_text(
            "ontology t\nclass Cell\nclass Gene\nclass Chromosome\n"
            "objprop has_part domain Cell range Chromosome\n"
            "objprop part_of domain Chromosome range Cell\n")
        kinds = {r.name: r.kind for r in model.relationships}
        assert kinds == {"has_part": AGGREGATION, "part_of": AGGREGATION}
        assert len(flags_of(report, "aggregationCandidate")) == 2

    def test_part_token_puts_whole_at_target(self):
        model, _ = from_text(
            "ontology t\nclass Gene\nclass Chromosome\n"
            "objprop part_of domain Gene range Chromosome\n")
        (rel,) = model.relationships
        assert rel.kind == COMPOSITION
        assert rel.whole == "et:Chromosome"

    def test_heuristics_off_keeps_association(self):
        model, report = derive(
            "rule6.cot", TransformConfig(composition_heuristics=False))
        assert model.relationships[0].kind == ASSOCIATION
        assert model.relationships[0].whole is None
        assert flags_of(report, "compositionCandidate") == ()
        assert flags_of(report, "aggregationCandidate") == ()

    def test_ordinary_names_untouched(self):
        model, _ = derive("protein-dna.cot")
        assert model.relationships[0].kind == ASSOCIATION


class TestInstancesAndConstraints:
    def test_instance_links_named_conjuncts(self):
        model, report = from_text(
            "ontology t\nclass A\nclass B\n"
            "individual x type and(A, B)\n")
        (inst,) = model.instances
        assert inst.type_ids == ("et:A", "et:B")
        assert flags_of(report, "unmappedConstruct") == ()

    @pytest.mark.parametrize("type_expr", ["and(A, B, or(C, D))",
                                           "and(A, and(B, or(C, D)))"])
    def test_union_part_of_an_intersection_type_flagged(self, type_expr):
        model, report = from_text(
            "ontology t\nclass A\nclass B\nclass C\nclass D\n"
            f"individual i type {type_expr}\n")
        (inst,) = model.instances
        assert inst.type_ids == ("et:A", "et:B")
        assert [(i.subject, i.message) for i in flags_of(report, "unmappedConstruct")] \
            == [("individual i", "type part or(C, D) has no direct mapping")]

    def test_union_typed_instance_flagged_not_linked(self):
        model, report = from_text(
            "ontology t\nclass A\nclass B\n"
            "individual x type or(A, B)\n")
        (inst,) = model.instances
        assert inst.type_ids == ()
        assert any(i.subject == "individual x"
                   for i in flags_of(report, "unmappedConstruct"))

    def test_instances_excluded_by_configuration(self):
        model, report = derive(
            "rule1.cot", TransformConfig(include_instances=False))
        assert model.instances == ()
        assert any("excluded by configuration" in n for n in report.notes)

    def test_disjoint_axiom_becomes_constraint(self):
        model, _ = from_text(
            "ontology t\nclass DNA\nclass RNA\ndisjoint RNA DNA\n")
        (con,) = model.constraints
        assert con.id == "con:disjoint:DNA:RNA"
        assert con.member_ids == ("et:DNA", "et:RNA")

    def test_duplicate_and_self_disjoint_handled(self):
        model, report = from_text(
            "ontology t\nclass A\nclass B\n"
            "disjoint A B\ndisjoint B A\ndisjoint A A\n")
        assert len(model.constraints) == 1
        assert any("self-disjointness ignored" in n for n in report.notes)

    def test_self_disjointness_noted_beside_a_collapsed_cycle(self):
        # disjoint P Q collapses into P and vanishes; disjoint X X stays
        model, report = from_text(
            "ontology t\nclass P\nclass Q\nclass X\n"
            "subclass P Q\nsubclass Q P\ndisjoint P Q\ndisjoint X X\n")
        assert model.constraints == ()
        assert [n for n in report.notes if "disjoint" in n] == \
            ["disjoint X X: self-disjointness ignored"]

    def test_complement_flagged_wherever_it_appears(self):
        _, report = from_text(
            "ontology t\nclass A\nclass B\n"
            "subclass A not(B)\n"
            "defined-class D = and(A, not(B))\n")
        complements = [i for i in flags_of(report, "unmappedConstruct")
                       if "complement" in i.message]
        assert len(complements) == 2

    def test_only_the_outermost_complement_is_flagged(self):
        depth = 200
        inner = "not(" * (depth - 1) + "B" + ")" * (depth - 1)
        _, report = from_text(f"ontology t\nclass A\nclass B\nsubclass A {inner}\n")
        (flag,) = [i for i in flags_of(report, "unmappedConstruct")
                   if "complement" in i.message]
        assert flag.message == f"complement expression {inner} has no mapping"

    def test_thing_set_entities_flagged(self):
        _, report = derive("rule1.cot")
        (flag,) = flags_of(report, "zeroPropertyEntity")
        assert flag.subject == "Protein"

    def test_complement_under_an_individual_skipped_without_instances(self):
        _, report = from_text(
            "ontology t\nclass A\nclass B\nindividual x type and(A, not(B))\n",
            TransformConfig(include_instances=False))
        assert not any("complement" in i.message
                       for i in flags_of(report, "unmappedConstruct"))


class TestHoistDecides:
    """What `normalize` gets right only because it hoists each subclass
    axiom onto a bare restriction into its subject's local restrictions."""

    def test_complement_in_a_hoisted_restriction_flagged_at_the_restriction(self):
        _, report = from_text(
            "ontology t\nclass A\nclass B\nobjprop p\n"
            "subclass A restriction(p, some, not(B))\n")
        (flag,) = [i for i in flags_of(report, "unmappedConstruct")
                   if "complement" in i.message]
        assert flag.subject == "restriction A.p"

    def test_restriction_restated_by_an_absorbed_class_is_one_law(self):
        _, _, grading, alias_map = derive_model(cot.parse(
            "ontology t\nclass A\nclass B\nclass C\nobjprop p\n"
            "subclass A B\nsubclass B A\n"
            "restriction A p some C\nsubclass B restriction(p, some, C)\n"))
        assert alias_map == {"B": "A"}
        assert concepts(grading)["A"].law_count == 1

    def test_hoisted_restriction_noted_before_the_definition(self):
        _, report = from_text(
            "ontology t\nclass A\nclass B\nclass C\nclass R\n"
            "objprop p range R\n"
            "defined-class D = and(A, restriction(p, some, B))\n"
            "subclass D restriction(p, some, C)\n")
        assert [n for n in report.notes if "unrelated" in n] == [
            "property p: declared range R is unrelated to restriction "
            "target C on D",
            "property p: declared range R is unrelated to restriction "
            "target B on D"]


def report_sections(text: str) -> list[tuple[str, ...]]:
    """The report's header, then each section's lines sorted: note order
    follows the document."""
    sections = text.split("\n## ")
    return [tuple(sections[0].splitlines())] + [
        tuple(sorted(section.splitlines())) for section in sections[1:]]


def artifacts(o):
    model, report, _, _ = derive_model(o)
    return (emit_model_json(model), emit_plantuml(model), emit_dot(model),
            report_sections(emit_report(model, report)))


def two_statements(first: str, second: str, *declarations: str):
    return cot.parse("ontology t\nclass A\nclass B\nclass Cell\nclass DNA\n"
                     + "".join(f"{line}\n" for line in declarations)
                     + f"{first}\n{second}\n")


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")


def rename_text(text: str, mapping: dict[str, str]) -> str:
    """Every identifier in `text` renamed through `mapping` at once."""
    return _IDENTIFIER.sub(lambda m: mapping.get(m[0], m[0]), text)


def canonical(value, rename):
    """A JSON value with every string passed through `rename` and every
    list sorted, so that lists compare as multisets."""
    if isinstance(value, str):
        return rename(value)
    if isinstance(value, list):
        return tuple(sorted((canonical(v, rename) for v in value), key=repr))
    if isinstance(value, dict):
        return tuple((k, canonical(v, rename)) for k, v in sorted(value.items()))
    return value


def model_facts(o, rename=lambda text: text):
    """The model JSON and the grading JSON of `o`, names passed through
    `rename`, in a form blind to the order of their entries."""
    model, _, grading, _ = derive_model(o)
    doc = json.loads(emit_model_json(model))
    for con in doc["constraints"]:
        # a disjoint pair's id lists its classes in name order
        con["id"] = con["id"].split(":")
    grades = json.loads(emit_bww_json(grading))
    for key in ("concepts", "properties"):
        grades[key] = {rename(name): v for name, v in grades[key].items()}
    return canonical(doc, rename), canonical(grades, rename)


class TestDeterminism:
    def test_same_input_same_output(self):
        first = derive("tambis-mini.cot")
        second = derive("tambis-mini.cot")
        assert first == second

    @settings(max_examples=200, deadline=None)
    @given(o=ontologies(), data=st.data())
    # two cycles that do not go through subclass axioms alone, and one edge
    # asserted two ways; without `data` the example is compared with its
    # axioms reversed
    @example(o=two_statements("same-class A B", "same-class B A"), data=None)
    @example(o=two_statements("same-class B A", "same-class A B"), data=None)
    @example(o=two_statements("subclass DNA Cell", "subclass Cell and(Cell, DNA)"),
             data=None)
    @example(o=two_statements("subclass Cell and(Cell, DNA)", "subclass DNA Cell"),
             data=None)
    @example(o=two_statements("same-class Cell or(A, B)", "same-class A Cell"),
             data=None)
    @example(o=two_statements("same-class A Cell", "same-class Cell or(A, B)"),
             data=None)
    # a target in an or-pool and in an and-pool of the same property
    @example(o=two_statements(
        "subclass A and(B, restriction(p, only, or(Cell, DNA)))",
        "subclass A and(Cell, restriction(p, some, Cell))", "objprop p"),
        data=None)
    @example(o=two_statements(
        "subclass A and(Cell, restriction(p, some, Cell))",
        "subclass A and(B, restriction(p, only, or(Cell, DNA)))", "objprop p"),
        data=None)
    def test_statement_order_does_not_matter(self, o, data):
        if data is None:
            shuffled = o._replace(axioms=o.axioms[::-1])
        else:
            shuffled = o._replace(
                classes=tuple(data.draw(st.permutations(o.classes))),
                properties=tuple(data.draw(st.permutations(o.properties))),
                axioms=tuple(data.draw(st.permutations(o.axioms))))
        assert artifacts(shuffled) == artifacts(o)

    @settings(max_examples=100, deadline=None)
    @given(o=ontologies(), data=st.data())
    def test_renaming_does_not_matter(self, o, data):
        # a collapsed cycle keeps its least name, so renaming may pick
        # another representative
        assume(not derive_model(o)[3])
        # the whole-part heuristic reads property names, so those stay
        plain = [p for p in PROP_POOL if p not in ("has_part", "part_of")]
        mapping = dict(zip(CLASS_POOL, data.draw(st.permutations(CLASS_POOL))))
        mapping.update(zip(plain, data.draw(st.permutations(plain))))
        renamed = cot.parse(rename_text(cot.serialize(o), mapping))
        assert model_facts(renamed) == model_facts(
            o, lambda text: rename_text(text, mapping))

    def test_tambis_mini_is_well_formed(self):
        o = load("tambis-mini.cot")
        model, report, _, _ = derive_model(o)
        assert_model_invariants(o, model, report)
        assert entities(model)["et:Receptor"]
        assert any(r.exclusive for r in model.relationships)
        assert any(r.kind == AGGREGATION for r in model.relationships)


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(ontologies())
    def test_generated_ontologies_hold_all_invariants(self, o):
        model, report, _, _ = derive_model(o)
        assert_model_invariants(o, model, report)

    def test_review_fixture_holds_all_invariants(self):
        # review.cot raises every flag kind, an unsatisfiable multiplicity
        # among them, which generated ontologies almost never reach
        o = load("review.cot")
        model, report, _, _ = derive_model(o)
        assert flags_of(report, "unsatisfiableMultiplicity")
        assert_model_invariants(o, model, report)

    @settings(max_examples=100, deadline=None)
    @given(ontologies())
    def test_transform_is_deterministic(self, o):
        assert derive_model(o) == derive_model(o)


def derived_relationships(model):
    """The model's relationships in the form of `oracle_relationships`."""
    classes = {et.id: et.name for et in model.entity_types}
    kinds = {c.id: c.kind for c in model.constraints}
    derived = {}
    for rel in model.relationships:
        site, target = classes[rel.source_id], classes[rel.target_id]
        targets, exclusive, groups, bounds = derived.setdefault(
            (rel.name, site), (set(), set(), {}, None))
        targets.add(target)
        if rel.exclusive:
            exclusive.add(target)
        kind = None
        if rel.group_id is not None:
            kind = {"orGroup": "or", "andGroup": "and"}[kinds[rel.group_id]]
            assert rel.group_id == f"con:{kind}:{site}:{rel.name}", rel.id
        groups[target] = kind
        mult = (rel.target_mult.lower, rel.target_mult.upper)
        assert bounds in (None, mult), rel.id
        derived[rel.name, site] = (targets, exclusive, groups, mult)
    return derived


class TestRelationshipOracle:
    @settings(max_examples=200, deadline=None)
    @given(ontologies())
    @example(cot.parse("ontology t\nclass A\nclass X\nclass Y\nclass Z\nobjprop p\n"
                       "restriction A p some or(X, or(Y, Z))\n"))
    def test_relationships_match_the_oracle(self, o):
        model, _, _, _ = derive_model(o)
        assert derived_relationships(model) == oracle_relationships(o)


def rewrite_boolean(o: Ontology, op: str, rewrite) -> Ontology:
    """`o` with every `op` expression replaced by `rewrite(op, members)`,
    its members rewritten first."""
    def expr(e):
        if e.op == "named":
            return e
        if e.op == "restriction":
            return restriction_expr(restriction(e.restriction))
        members = tuple(expr(m) for m in e.members)
        return rewrite(op, members) if e.op == op else ClassExpression(e.op, members=members)

    def restriction(r):
        return r if r.target is None else r._replace(target=expr(r.target))

    return o._replace(
        classes=tuple(c._replace(definition=c.definition and expr(c.definition),
                                 local_restrictions=tuple(map(restriction, c.local_restrictions)))
                      for c in o.classes),
        axioms=tuple(ax._replace(target=expr(ax.target)) for ax in o.axioms),
        individuals=tuple(i._replace(types=tuple(map(expr, i.types)))
                          for i in o.individuals))


def flat(op, members):
    return ClassExpression(op, members=tuple(
        t for m in members for t in (m.members if m.op == op else (m,))))


def right_nested(op, members):
    """op(a, b, c, ...) as op(a, op(b, op(c, ...)))."""
    nested = ClassExpression(op, members=members[-2:])
    for m in reversed(members[:-2]):
        nested = ClassExpression(op, members=(m, nested))
    return nested


def nesting_facts(o: Ontology):
    model, report, grading, _ = derive_model(o)
    return (emit_model_json(model), emit_bww_json(grading),
            Counter(i.kind for i in report.items))


class TestNesting:
    @pytest.mark.parametrize("op", ["and", "or"])
    @settings(max_examples=200, deadline=None)
    @given(o=ontologies())
    @example(o=cot.parse("ontology t\nclass A\nclass B\nclass C\nclass D\nobjprop q\n"
                         "restriction B q some and(C, D, A)\n"
                         "individual i type and(A, B, or(C, D))\n"))
    @example(o=cot.parse("ontology t\nclass A\nclass X\nclass Y\nclass Z\nobjprop p\n"
                         "restriction A p some or(X, or(Y, Z))\n"))
    @example(o=cot.parse("ontology t\nclass A\nclass B\nclass C\nclass X\n"
                         "same-class X or(A, or(B, C))\n"))
    def test_nesting_changes_nothing(self, op, o):
        # flattened first, so that nesting is one-to-one and no two flag
        # details that differ before it are equal after it
        flattened = rewrite_boolean(o, op, flat)
        nested = rewrite_boolean(flattened, op, right_nested)
        assert nesting_facts(nested) == nesting_facts(flattened)


# --------------------------------------------------------------------------
# the index's bitset lookups against the searches they replaced


def reference_multiplicity(index, above, cls, prop):
    """`merged_multiplicity` folding each ancestor's direct restrictions in
    turn; `above` is the class's `reference_ancestors`."""
    def cardinalities(name):
        return [r for r in index.direct_restrictions(name)
                if r.on_property == prop and r.flavor in CARDINALITY_FLAVORS]

    picked = cardinalities(cls)
    if not picked:
        for sup in above:
            picked.extend(cardinalities(sup))
    lower, upper = 0, None
    for r in picked:
        if r.flavor in (MIN, EXACTLY):
            lower = max(lower, r.count)
        if r.flavor in (MAX, EXACTLY):
            upper = r.count if upper is None else min(upper, r.count)
    return Multiplicity(lower, upper)


class TestIndexAgainstReferences:
    @settings(max_examples=200, deadline=None)
    @given(ontologies_with_cycles())
    def test_bitset_lookups_match_per_ancestor_references(self, o):
        # uncollapsed, so cycle co-members inherit from each other
        index = OntologyIndex(o)
        names = [c.name for c in o.classes]
        bounds = {}
        for cls in names:
            above = reference_ancestors(index, cls)
            for p in o.properties:
                assert merged_multiplicity(index, cls, p.name, bounds) == \
                    reference_multiplicity(index, above, cls, p.name), (cls, p.name)
            # the range test in `_relationships`, for every (range, target)
            for sup in names:
                assert index.is_ancestor(sup, cls) == (sup in above), (sup, cls)


def chain(names: list[str]) -> Ontology:
    """The benchmark's deep-chain shape: names[k] is the class at depth k, a
    subclass of names[k-1]; it owns its own property, restricted `some`
    towards the next class (wrapping round) and `min 1`."""
    classes, properties, axioms = [], [], []
    for k, name in enumerate(names):
        prop, target = f"p{k:05d}", names[(k + 1) % len(names)]
        classes.append(ClassDefinition(name, local_restrictions=(
            Restriction(prop, SOME, target=named(target)),
            Restriction(prop, MIN, count=1))))
        properties.append(PropertyDefinition(prop, OBJECT, domains=(name,),
                                             range=target))
        if k:
            axioms.append(Axiom(SUBCLASS, name, named(names[k - 1])))
    return Ontology("chain", classes=tuple(classes),
                    properties=tuple(properties), axioms=tuple(axioms))


class TestScale:
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_5000_level_chain(self, mirrored):
        n = 5000
        # mirrored, every superclass's name sorts after its subclass's
        names = [f"C{n - 1 - k if mirrored else k:05d}" for k in range(n)]
        model, _, grading, _ = derive_model(chain(names))
        assert check_model(model) == []
        assert len(model.generalizations) == n - 1
        graded = concepts(grading)
        for k, name in enumerate(names):
            entry = graded[name]
            assert (entry.property_count, entry.law_count) == \
                (k + 1, 2 * (k + 1)), name
