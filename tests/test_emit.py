"""Emitters: JSON round-trips, diagram text, review report layout."""

import json
import tracemalloc
from pathlib import Path
from textwrap import dedent

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ont2cm import cot
from ont2cm.damlxml import import_daml
from ont2cm.bww import BwwReport, ConceptClassification
from ont2cm.emit import (
    emit_bww_json,
    emit_dot,
    emit_model_json,
    emit_plantuml,
    emit_report,
    iter_dot,
    iter_model_json,
    iter_plantuml,
    iter_report,
    parse_model_json,
)
from ont2cm.model import (
    Attribute,
    ConceptualModel,
    EntityType,
    Generalization,
    Instance,
    Multiplicity,
    Relationship,
    SemanticConstraint,
)
from ont2cm.ontology import DATATYPE, OBJECT, PropertyDefinition
from ont2cm.transform import derive_model
from strategies import ontologies

FIXTURES = Path(__file__).parent / "fixtures"


def derive(name: str):
    return derive_model(cot.parse((FIXTURES / name).read_text()))


class TestModelJson:
    @pytest.mark.parametrize("stem", ["rule1", "rule2", "rule3",
                                      "rule4", "rule5", "rule6"])
    def test_golden_files_round_trip(self, stem):
        text = (FIXTURES / "golden" / f"{stem}.model.json").read_text()
        assert emit_model_json(parse_model_json(text)) == text

    @pytest.mark.parametrize("name", ["protein-dna.cot", "protein-dna-only.cot",
                                      "tambis-mini.cot"])
    def test_fixture_models_round_trip(self, name):
        model, _, _, _ = derive(name)
        assert parse_model_json(emit_model_json(model)) == model

    @settings(max_examples=100, deadline=None)
    @given(ontologies())
    def test_generated_models_round_trip(self, o):
        model, _, _, _ = derive_model(o)
        assert parse_model_json(emit_model_json(model)) == model

    def test_unsatisfiable_marker_survives(self):
        model, _, _, _ = derive_model(cot.parse(
            "ontology t\nclass A\nclass B\nobjprop p domain A range B\n"
            "restriction A p min 3\nrestriction A p max 1\n"))
        text = emit_model_json(model)
        assert '"unsatisfiable": true' in text
        assert parse_model_json(text) == model


class TestPlantuml:
    def test_rule4_layout(self):
        model, _, _, _ = derive("rule4.cot")
        assert emit_plantuml(model) == dedent("""\
            @startuml
            title rule4
            class DNA <<thingSet>>
            class Enzyme <<bwwClass>>
            class Protein <<bwwClass>>
            Protein <|-- Enzyme
            Protein "0..*" --> "0..*" DNA : binds
            @enduml
            """)

    def test_attributes_render_in_block(self):
        model, _, _, _ = derive("rule3.cot")
        assert emit_plantuml(model) == dedent("""\
            @startuml
            title rule3
            class Protein <<bwwClass>> {
              accession : string [1..1]
            }
            @enduml
            """)

    def test_composition_uses_filled_diamond(self):
        model, _, _, _ = derive("rule6.cot")
        assert "Chromosome *-- Gene : has_part" in emit_plantuml(model)

    def test_exclusive_marker_rendered(self):
        model, _, _, _ = derive("protein-dna-only.cot")
        assert ': binds {exclusive}' in emit_plantuml(model)

    def test_constraint_renders_as_note(self):
        model, _, _, _ = derive_model(cot.parse(
            "ontology t\nclass DNA\nclass RNA\ndisjoint DNA RNA\n"))
        assert 'note "{disjoint}: DNA, RNA" as N1' in emit_plantuml(model)


class TestDot:
    def test_rule4_layout(self):
        model, _, _, _ = derive("rule4.cot")
        assert emit_dot(model) == dedent("""\
            digraph model {
              rankdir=BT;
              node [shape=box];
              "DNA" [label="DNA <<thingSet>>"];
              "Enzyme" [label="Enzyme <<bwwClass>>"];
              "Protein" [label="Protein <<bwwClass>>"];
              "Enzyme" -> "Protein" [arrowhead=onormal];
              "Protein" -> "DNA" [label="binds (0..*, 0..*)", arrowhead=vee];
            }
            """)

    def test_attribute_in_node_label(self):
        model, _, _, _ = derive("rule3.cot")
        assert r'"Protein" [label="Protein <<bwwClass>>\naccession : string [1..1]"];' \
            in emit_dot(model)

    def test_composition_edge_shape(self):
        model, _, _, _ = derive("rule6.cot")
        assert '"Chromosome" -> "Gene" [label="has_part (0..*, 0..*)", ' \
            'dir=both, arrowtail=diamond, arrowhead=none];' in emit_dot(model)


class TestReport:
    def test_clean_model_reports_nothing(self):
        model, report, _, _ = derive("rule3.cot")
        assert emit_report(model, report) == dedent("""\
            # Specialist validation report

            Model: rule3
            0 flag(s), 0 note(s).

            Nothing flagged.
            """)

    def test_sections_follow_fixed_order(self):
        model, report, _, _ = derive("protein-dna-only.cot")
        text = emit_report(model, report)
        assert text.index("## Exclusive relationships") < \
            text.index("## Entities without properties")
        assert "- `rel:binds:Protein:DNA`:" in text

    def test_notes_render_at_end(self):
        model, report, _, _ = derive("tambis-mini.cot")
        text = emit_report(model, report)
        assert "## Notes" in text
        assert text.index("## Notes") > text.index("## ")


class TestBwwJson:
    def test_rule5_grading(self):
        _, _, grading, _ = derive("rule5.cot")
        assert emit_bww_json(grading) == dedent("""\
            {
              "concepts": {
                "DNA": {
                  "category": "thingSet",
                  "propertyCount": 0,
                  "lawCount": 0
                },
                "Protein": {
                  "category": "bwwClass",
                  "propertyCount": 1,
                  "lawCount": 2
                }
              },
              "properties": {
                "binds": {
                  "category": "mutual"
                }
              },
              "notes": [
                "Protein: laws present but only one common property; graded as a class, not a natural kind"
              ]
            }
            """)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["tambis-mini.cot", "rule6.cot"])
    def test_every_emitter_is_stable(self, name):
        model, report, grading, _ = derive(name)
        model2, report2, grading2, _ = derive(name)
        assert emit_model_json(model) == emit_model_json(model2)
        assert emit_plantuml(model) == emit_plantuml(model2)
        assert emit_dot(model) == emit_dot(model2)
        assert emit_report(model, report) == emit_report(model2, report2)
        assert emit_bww_json(grading) == emit_bww_json(grading2)

    @settings(max_examples=50, deadline=None)
    @given(ontologies())
    def test_emitters_never_crash_on_generated_models(self, o):
        model, report, grading, _ = derive_model(o)
        assert emit_plantuml(model).startswith("@startuml")
        assert emit_dot(model).rstrip().endswith("}")
        assert emit_report(model, report).startswith("# Specialist")
        assert emit_bww_json(grading).startswith("{")


class TestStreamed:
    """What `transform` writes, chunk by chunk, is the joined text."""

    @pytest.mark.parametrize("source", ["tambis-mini.cot", "review.cot",
                                        "excess.daml", "protein.daml"])
    def test_joined_chunks_are_the_golden_text(self, source):
        path = FIXTURES / source
        if path.suffix == ".daml":
            imported = import_daml(path.read_text(), source_name=path.stem)
            model, report = derive_model(imported.ontology,
                                         import_report=imported)[:2]
        else:
            model, report = derive_model(cot.parse(path.read_text()))[:2]
        for suffix, chunks, text in [
                ("model.json", iter_model_json(model), emit_model_json(model)),
                ("puml", iter_plantuml(model), emit_plantuml(model)),
                ("dot", iter_dot(model), emit_dot(model)),
                ("report.md", iter_report(model, report),
                 emit_report(model, report))]:
            golden = FIXTURES / "golden" / f"{path.stem}.{suffix}"
            assert "".join(chunks) == text == golden.read_text(), suffix


# --------------------------------------------------------------------------
# the JSON writers against the stdlib encoder


def mult_doc(m):
    out = {"lower": m.lower, "upper": "*" if m.upper is None else m.upper}
    if m.unsatisfiable:
        out["unsatisfiable"] = True
    return out


def model_doc(model):
    """The dict whose json.dumps(indent=2) the model JSON is."""
    return {
        "name": model.name,
        "entityTypes": [
            {"id": et.id, "name": et.name, "originClass": et.name,
             "bww": et.bww, "definitionKind": et.definition_kind,
             "attributes": [
                 {"name": a.name, "datatype": a.datatype,
                  "multiplicity": mult_doc(a.multiplicity),
                  "originProperty": a.name}
                 for a in et.attributes]}
            for et in model.entity_types],
        "relationships": [
            {"id": r.id, "name": r.name, "sourceId": r.source_id,
             "targetId": r.target_id, "sourceMult": mult_doc(r.source_mult),
             "targetMult": mult_doc(r.target_mult), "exclusive": r.exclusive,
             "kind": r.kind, "whole": r.whole, "groupId": r.group_id}
            for r in model.relationships],
        "generalizations": [{"subId": g.sub_id, "superId": g.super_id}
                            for g in model.generalizations],
        "constraints": [{"id": c.id, "kind": c.kind,
                         "memberIds": list(c.member_ids)}
                        for c in model.constraints],
        "instances": [{"name": i.name, "typeIds": list(i.type_ids)}
                      for i in model.instances],
    }


def grading_doc(report):
    """The dict whose json.dumps(indent=2) the grading JSON is."""
    return {
        "concepts": {c.name: {"category": c.category,
                              "propertyCount": c.property_count,
                              "lawCount": c.law_count}
                     for c in report.concepts},
        "properties": {p.name: {"category": "intrinsic" if p.category == DATATYPE
                                else "mutual"}
                       for p in report.properties},
        "notes": list(report.notes),
    }


# quotes, backslashes, control characters, non-ASCII, astral characters
# and lone surrogates, and any code point at all
texts = st.one_of(
    st.text(st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\x85",
                             "é", "\u2028", "\U0001F600", "\ud800", "\udfff",
                             "A"]), max_size=6),
    st.text(st.characters(exclude_categories=()), max_size=6))
# a small pool too, so names repeat
names = st.one_of(texts, st.sampled_from(["A", "B", "é"]))
counts = st.integers(-3, 2**70)
multiplicities = st.builds(Multiplicity, counts, st.none() | counts)
id_lists = st.lists(names, max_size=3).map(tuple)
models = st.builds(
    ConceptualModel, texts,
    st.lists(st.builds(EntityType, names, names, names, names,
                       st.lists(st.builds(Attribute, names, names,
                                          multiplicities),
                                max_size=2).map(tuple)),
             max_size=3).map(tuple),
    st.lists(st.builds(Relationship, names, names, names, names,
                       multiplicities, multiplicities,
                       exclusive=st.booleans(), kind=names,
                       whole=st.none() | names,
                       group_id=st.none() | names),
             max_size=3).map(tuple),
    st.lists(st.builds(Generalization, names, names), max_size=2).map(tuple),
    st.lists(st.builds(SemanticConstraint, names, names, id_lists),
             max_size=2).map(tuple),
    st.lists(st.builds(Instance, names, id_lists), max_size=2).map(tuple))
gradings = st.builds(
    BwwReport,
    st.lists(st.builds(ConceptClassification, names, counts, counts),
             max_size=6).map(tuple),
    st.lists(st.builds(PropertyDefinition, names,
                       st.sampled_from((OBJECT, DATATYPE)) | names),
             max_size=6).map(tuple))


class TestJsonOracle:
    @settings(max_examples=500, deadline=None)
    @given(models)
    def test_model_json_is_json_dumps(self, model):
        expected = json.dumps(model_doc(model), indent=2) + "\n"
        chunks = list(iter_model_json(model))
        assert "".join(chunks) == expected
        assert emit_model_json(model) == expected
        # a chunk per record, and eleven for the name, the keys and the
        # closing brackets
        assert len(chunks) == 11 + sum(map(len, (
            model.entity_types, model.relationships, model.generalizations,
            model.constraints, model.instances)))

    @settings(max_examples=500, deadline=None)
    @given(gradings)
    def test_bww_json_is_json_dumps(self, report):
        assert emit_bww_json(report) == \
            json.dumps(grading_doc(report), indent=2) + "\n"


class TestJsonMemory:
    def test_peak_stays_under_four_times_the_output(self):
        # the wide-flat shape: many entity types, two relationships each;
        # the indent=2 json.dumps encoder peaks near nine times its output
        one = Multiplicity(1, 1)
        entity_types, relationships = [], []
        for n in range(2500):
            name, other = f"Concept{n:04d}", f"Concept{(n + 1) % 2500:04d}"
            entity_types.append(EntityType(
                f"et:{name}", name, "bwwClass", "primitive",
                (Attribute(f"label{n}", "string", one),)))
            for prop in ("binds", "regulates"):
                relationships.append(Relationship(
                    f"rel:{prop}:{name}:{other}", prop, f"et:{name}",
                    f"et:{other}", Multiplicity(0), one))
        model = ConceptualModel("flat", tuple(entity_types),
                                tuple(relationships))
        tracemalloc.start()
        try:
            text = emit_model_json(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)
