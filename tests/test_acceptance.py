"""Acceptance gate: eight criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see one line per
criterion, or with `-s` for the explicit PASS/FAIL prints and the
informational grading rate from criterion 4.
"""

import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings

from ont2cm import cli, cot
from ont2cm.bww import classify
from ont2cm.damlxml import import_daml
from ont2cm.emit import (
    emit_dot,
    emit_model_json,
    emit_plantuml,
    emit_report,
    parse_model_json,
)
from ont2cm.ontology import (
    MIN,
    OBJECT,
    SOME,
    ClassDefinition,
    Ontology,
    OntologyIndex,
    PropertyDefinition,
    Restriction,
    named,
)
from ont2cm.transform import derive_model

from invariants import assert_model_invariants
from lookups import concepts, flags_of
from strategies import ontologies
from test_bww import oracle_category

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {summary}")
        raise
    print(f"criterion {number}: PASS - {summary}")


def derive_fixture(name: str):
    ont = cot.parse((FIXTURES / name).read_text())
    return derive_model(ont)


def test_criterion_1_existential_vs_universal_target():
    with criterion(1, "binds(Protein->DNA) open for some, exclusive for only"):
        model, report, _, _ = derive_fixture("protein-dna.cot")
        rel = next(r for r in model.relationships if r.name == "binds")
        assert rel.source_id == "et:Protein"
        assert rel.target_id == "et:DNA"
        assert (rel.target_mult.lower, rel.target_mult.upper) == (0, None)
        assert rel.exclusive is False
        assert len(flags_of(report, "exclusiveRelation")) == 0

        model, report, _, _ = derive_fixture("protein-dna-only.cot")
        rel = next(r for r in model.relationships if r.name == "binds")
        assert rel.exclusive is True
        assert len(flags_of(report, "exclusiveRelation")) == 1


def test_criterion_2_rule_fixtures_match_goldens():
    with criterion(2, "six rule fixtures byte-match hand-derived goldens"):
        for n in range(1, 7):
            text = (FIXTURES / f"rule{n}.cot").read_text()
            statements = [line for line in text.splitlines()
                          if line.strip() and not line.startswith("#")
                          and not line.startswith("ontology ")]
            assert len(statements) <= 5, f"rule{n} fixture too large"
            model, _, _, _ = derive_fixture(f"rule{n}.cot")
            golden = (GOLDEN / f"rule{n}.model.json").read_bytes()
            assert emit_model_json(model).encode() == golden, f"rule{n}"


def test_criterion_3_invariants_on_generated_ontologies():
    with criterion(3, "structural invariants hold on 200 generated ontologies"):
        @settings(max_examples=200, deadline=None)
        @given(ontologies())
        def run(ont):
            model, report, _, _ = derive_model(ont)
            assert_model_invariants(ont, model, report)

        run()


def test_criterion_4_grading_matches_brute_force_oracle():
    counts = {"classes": 0, "naturalKind": 0}
    with criterion(4, "class grading agrees with the brute-force oracle"):
        @settings(max_examples=200, deadline=None)
        @given(ontologies())
        def run(ont):
            graded = concepts(classify(ont, OntologyIndex(ont)))
            for cls in ont.classes:
                cat, props, laws = oracle_category(ont, cls.name)
                entry = graded[cls.name]
                assert (entry.category, entry.property_count,
                        entry.law_count) == (cat, props, laws), cls.name
                counts["classes"] += 1
                if cat == "naturalKind":
                    counts["naturalKind"] += 1

        run()
    rate = counts["naturalKind"] / counts["classes"]
    print(f"criterion 4 info: natural-kind rate on generated ontologies "
          f"{counts['naturalKind']}/{counts['classes']} ({rate:.1%})")
    _, _, grading, _ = derive_fixture("tambis-mini.cot")
    kinds = [c for c in grading.concepts if c.category == "naturalKind"]
    print(f"criterion 4 info: natural-kind rate on tambis-mini "
          f"{len(kinds)}/{len(grading.concepts)} "
          f"({len(kinds) / len(grading.concepts):.1%})")


def test_criterion_5_deterministic_artifacts(tmp_path):
    with criterion(5, "two transform runs emit byte-identical artifacts"):
        for sub in ("first", "second"):
            code = cli.main(["transform", str(FIXTURES / "tambis-mini.cot"),
                             "--out", str(tmp_path / sub)])
            assert code == 0
        for name in ("tambis-mini.model.json", "tambis-mini.puml",
                     "tambis-mini.dot", "tambis-mini.report.md"):
            first = (tmp_path / "first" / name).read_bytes()
            second = (tmp_path / "second" / name).read_bytes()
            assert first == second, name


def test_criterion_6_round_trips():
    with criterion(6, "text, model-JSON, and import round-trips are identities"):
        cot_fixtures = sorted(FIXTURES.glob("*.cot"))
        assert cot_fixtures
        for path in cot_fixtures:
            try:
                ont = cot.parse(path.read_text())
            except cot.ParseError:
                continue  # the deliberately broken fixture
            assert cot.parse(cot.serialize(ont)) == ont, path.name
            model, _, _, _ = derive_model(ont)
            assert parse_model_json(emit_model_json(model)) == model, path.name
        daml_fixtures = sorted(FIXTURES.glob("*.daml"))
        assert daml_fixtures
        for path in daml_fixtures:
            direct = import_daml(path.read_text(), source_name=path.stem)
            rebuilt = cot.parse(cot.serialize(direct.ontology))
            assert rebuilt == direct.ontology, path.name


def test_criterion_7_import_census():
    with criterion(7, "import census balances and skips are reported"):
        manual = {"protein.daml": 18, "excess.daml": 13}
        for path in sorted(FIXTURES.glob("*.daml")):
            text = path.read_text()
            report = import_daml(text, source_name=path.stem)
            independent = sum(1 for _ in ET.fromstring(text).iter()) - 1
            total = report.translated_total() + report.skipped_total()
            assert total == independent, path.name
            assert total == manual[path.name], path.name

        report = import_daml((FIXTURES / "excess.daml").read_text())
        skipped_names = {e.name for e in report.skipped}
        assert "daml:oneOf" in skipped_names
        assert "daml:inverseOf" in skipped_names
        model, validation, _, _ = derive_model(report.ontology,
                                               import_report=report)
        flagged = {f.subject for f in flags_of(validation, "unmappedConstruct")}
        assert skipped_names <= flagged
        rendered = emit_report(model, validation)
        assert "daml:oneOf" in rendered


def _synthetic(classes: int) -> Ontology:
    names = [f"C{i:04d}" for i in range(classes)]
    props = [f"p{i:04d}" for i in range(classes)]
    class_defs = []
    prop_defs = []
    axioms = []
    from ont2cm.ontology import SUBCLASS, Axiom
    for i, name in enumerate(names):
        target = names[(i + 1) % classes]
        class_defs.append(ClassDefinition(name, local_restrictions=(
            Restriction(props[i], SOME, target=named(target)),
            Restriction(props[i], MIN, count=1),
        )))
        prop_defs.append(PropertyDefinition(props[i], OBJECT,
                                            domains=(name,), range=target))
        if i:
            axioms.append(Axiom(SUBCLASS, name, named(names[i - 1])))
    return Ontology("synthetic", classes=tuple(class_defs),
                    properties=tuple(prop_defs), axioms=tuple(axioms))


def test_criterion_8_performance_floor():
    with criterion(8, "1000-class synthetic under 5s, fixtures under 1s"):
        ont = _synthetic(1000)
        assert len(ont.classes) == 1000
        assert len(ont.properties) == 1000
        assert sum(len(c.local_restrictions) for c in ont.classes) == 2000
        start = time.perf_counter()
        model, report, _, _ = derive_model(ont)
        emit_model_json(model)
        emit_plantuml(model)
        emit_dot(model)
        emit_report(model, report)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"synthetic took {elapsed:.2f}s"
        assert len(model.entity_types) == 1000

        for path in sorted(FIXTURES.glob("*.cot")):
            try:
                fixture_ont = cot.parse(path.read_text())
            except cot.ParseError:
                continue
            start = time.perf_counter()
            fixture_model, fixture_report, _, _ = derive_model(fixture_ont)
            emit_model_json(fixture_model)
            emit_plantuml(fixture_model)
            emit_dot(fixture_model)
            emit_report(fixture_model, fixture_report)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"{path.name} took {elapsed:.2f}s"
