"""XML importer tests: census accounting, construct translation, skips.

Every import here goes through `checked_import`, which holds the importer
to the whole-tree walk of `oracles.import_daml_tree` on the same text."""

import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ont2cm import cot, damlxml, ontology
from ont2cm.damlxml import (
    MAX_DEPTH,
    DamlImportError,
    ImportReport,
    SkippedEntry,
    import_daml,
)
from ont2cm.ontology import (
    DATATYPE,
    MIN,
    OBJECT,
    ONLY,
    SAME_CLASS,
    SOME,
    SUBCLASS,
    Axiom,
    ClassDefinition,
    ClassExpression,
    Individual,
    Ontology,
    PropertyDefinition,
    Restriction,
    named,
    restriction_expr,
    validate_ontology,
)
from oracles import import_daml_tree

FIXTURES = Path(__file__).parent / "fixtures"

# the most digits int() converts, or 0 where it has no limit
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not INT_DIGITS,
                                       reason="int() has no digit limit")

HEADER = ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
          '  xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
          '  xmlns:daml="http://www.daml.org/2001/03/daml+oil#"\n'
          '  xmlns:xsd="http://www.w3.org/2001/XMLSchema#"\n'
          '  xmlns:bio="http://example.org/bio#">')


def doc(body: str) -> str:
    return f"{HEADER}\n{body}\n</rdf:RDF>"


def _outcome(importer, text, source_name):
    """The import report, or the text of the import error."""
    try:
        return importer(text, source_name)
    except DamlImportError as exc:
        return f"DamlImportError: {exc}"


def checked_import(text: str, source_name: str | None = None) -> ImportReport:
    """`import_daml(text, source_name)`, once it has given the report or
    the error of the tree walk fed whole, in slices of one character and
    in slices of seven, so that slice edges fall inside tags, attribute
    values and multi-byte characters."""
    expected = _outcome(import_daml_tree, text, source_name)
    for size in (1, 7, len(text) + 1):
        with mock.patch.object(ontology, "PIECE_CHARS", size):
            assert _outcome(import_daml, text, source_name) == expected, size
    report = import_daml(text, source_name)
    # what the declarations left is what validating the result finds
    assert report.defects == tuple(validate_ontology(report.ontology))
    return report


def element_count(text: str) -> int:
    # independent tally: every element in the document except the root
    return sum(1 for _ in ET.fromstring(text).iter()) - 1


PROTEIN_EXPECTED = Ontology(
    "protein-binding",
    classes=(
        ClassDefinition("Protein"),
        ClassDefinition("DNA"),
        ClassDefinition("Enzyme"),
    ),
    properties=(
        PropertyDefinition("binds", OBJECT, domains=("Protein",), range="DNA"),
        PropertyDefinition("accession", DATATYPE, domains=("Protein",),
                           range="string"),
    ),
    axioms=(
        Axiom(SUBCLASS, "Enzyme", named("Protein")),
        Axiom(SUBCLASS, "Protein",
              restriction_expr(Restriction("binds", ONLY, target=named("DNA")))),
    ),
    individuals=(Individual("p53", types=(named("Protein"),)),),
)


@pytest.fixture(scope="module")
def protein_text():
    return (FIXTURES / "protein.daml").read_text()


@pytest.fixture(scope="module")
def protein_report(protein_text):
    return checked_import(protein_text, source_name="protein")


@pytest.fixture(scope="module")
def excess_text():
    return (FIXTURES / "excess.daml").read_text()


@pytest.fixture(scope="module")
def excess_report(excess_text):
    return checked_import(excess_text, source_name="extras")


class TestProteinFixture:
    @pytest.fixture
    def text(self, protein_text):
        return protein_text

    @pytest.fixture
    def report(self, protein_report):
        return protein_report

    def test_translates_to_expected_ontology(self, report):
        assert report.ontology == PROTEIN_EXPECTED

    def test_nothing_skipped(self, report):
        assert report.skipped == ()
        assert report.notes == ()

    def test_census_breakdown(self, report):
        assert dict(report.translated) == {
            "daml:Class": 4,
            "daml:DatatypeProperty": 1,
            "daml:ObjectProperty": 1,
            "daml:Ontology": 1,
            "daml:Restriction": 1,
            "daml:onProperty": 1,
            "daml:toClass": 1,
            "rdf:Description": 1,
            "rdf:type": 1,
            "rdfs:domain": 2,
            "rdfs:range": 2,
            "rdfs:subClassOf": 2,
        }
        assert report.translated_total() == 18

    def test_census_covers_every_element(self, text, report):
        assert report.translated_total() + report.skipped_total() \
            == element_count(text)

    def test_validates_cleanly(self, report):
        assert validate_ontology(report.ontology) == []

    def test_cot_bridge_round_trip(self, report):
        assert cot.parse(cot.serialize(report.ontology)) == report.ontology


class TestExcessFixture:
    @pytest.fixture
    def text(self, excess_text):
        return excess_text

    @pytest.fixture
    def report(self, excess_report):
        return excess_report

    def test_skip_accounting(self, report):
        by_name = {e.name: e for e in report.skipped}
        assert set(by_name) == {
            "daml:Thing", "daml:TransitiveProperty", "daml:UniqueProperty",
            "daml:imports", "daml:inverseOf", "daml:oneOf",
            "daml:versionInfo", "rdfs:label",
        }
        assert by_name["daml:Thing"].count == 2
        assert by_name["daml:oneOf"].first_location \
            == "rdf:RDF/daml:Class[1]/daml:oneOf[1]"
        assert by_name["daml:inverseOf"].first_location \
            == "rdf:RDF/daml:ObjectProperty[1]/daml:inverseOf[1]"
        assert report.skipped_total() == 9

    def test_census_equation(self, text, report):
        assert report.translated_total() == 4
        assert report.translated_total() + report.skipped_total() \
            == element_count(text)

    def test_surviving_ontology(self, report):
        ont = report.ontology
        assert ont.name == "excess"
        assert [c.name for c in ont.classes] == ["Codon"]
        assert ont.classes[0].definition is None
        prop = ont.properties[0]
        assert (prop.name, prop.category, prop.domains, prop.range) \
            == ("binds", OBJECT, ("Codon",), None)
        assert ont.individuals == ()

    def test_validates_and_round_trips(self, report):
        assert validate_ontology(report.ontology) == []
        assert cot.parse(cot.serialize(report.ontology)) == report.ontology


class TestConstructs:
    def test_untyped_property_becomes_object(self):
        report = checked_import(doc('<daml:Property rdf:about="#relates"/>'))
        prop = report.ontology.properties[0]
        assert (prop.name, prop.category) == ("relates", OBJECT)
        assert any("untyped property relates" in n for n in report.notes)

    def test_referenced_class_declared_automatically(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A">'
            '<rdfs:subClassOf rdf:resource="#Ghost"/></daml:Class>'))
        assert [c.name for c in report.ontology.classes] == ["A", "Ghost"]
        assert any("Ghost referenced but never declared" in n
                   for n in report.notes)
        assert validate_ontology(report.ontology) == []

    def test_referenced_property_declared_automatically(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf>'
            '<daml:Restriction>'
            '<daml:onProperty rdf:resource="#binds"/>'
            '<daml:hasClass rdf:resource="#B"/>'
            '</daml:Restriction>'
            '</rdfs:subClassOf></daml:Class>'))
        prop = report.ontology.properties[0]
        assert (prop.name, prop.category) == ("binds", OBJECT)
        assert any("binds referenced in a restriction" in n
                   for n in report.notes)
        assert validate_ontology(report.ontology) == []

    def test_intersection_definition(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#Enzyme"><daml:intersectionOf>'
            '<daml:Class rdf:about="#Protein"/>'
            '<daml:Restriction>'
            '<daml:onProperty rdf:resource="#catalyses"/>'
            '<daml:hasClass rdf:resource="#Reaction"/>'
            '</daml:Restriction>'
            '</daml:intersectionOf></daml:Class>'))
        enzyme = report.ontology.classes[0]
        assert enzyme.definition == ClassExpression("and", members=(
            named("Protein"),
            restriction_expr(Restriction("catalyses", SOME,
                                         target=named("Reaction")))))

    def test_union_definition(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#NucleicAcid"><daml:unionOf>'
            '<daml:Class rdf:about="#DNA"/><daml:Class rdf:about="#RNA"/>'
            '</daml:unionOf></daml:Class>'))
        assert report.ontology.classes[0].definition \
            == ClassExpression("or", members=(named("DNA"), named("RNA")))

    def test_single_member_intersection_unwraps(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><daml:intersectionOf>'
            '<daml:Class rdf:about="#B"/>'
            '</daml:intersectionOf></daml:Class>'))
        assert report.ontology.classes[0].definition == named("B")
        assert any("single-member daml:intersectionOf" in n
                   for n in report.notes)

    def test_complement_by_resource(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#NonCoding">'
            '<daml:complementOf rdf:resource="#Coding"/></daml:Class>'))
        assert report.ontology.classes[0].definition \
            == ClassExpression("not", members=(named("Coding"),))

    def test_same_class_resource_is_axiom(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#Enzyme">'
            '<daml:sameClassAs rdf:resource="#Catalyst"/></daml:Class>'))
        assert report.ontology.axioms \
            == (Axiom(SAME_CLASS, "Enzyme", named("Catalyst")),)
        assert report.ontology.classes[0].definition is None

    def test_same_class_expression_becomes_definition(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#Enzyme"><daml:sameClassAs>'
            '<daml:Restriction>'
            '<daml:onProperty rdf:resource="#catalyses"/>'
            '<daml:hasClass rdf:resource="#Reaction"/>'
            '</daml:Restriction>'
            '</daml:sameClassAs></daml:Class>'))
        enzyme = report.ontology.classes[0]
        assert enzyme.definition == restriction_expr(
            Restriction("catalyses", SOME, target=named("Reaction")))

    def test_has_value_restriction_skipped_not_fatal(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf>'
            '<daml:Restriction>'
            '<daml:onProperty rdf:resource="#p"/>'
            '<daml:hasValue rdf:resource="#v"/>'
            '</daml:Restriction>'
            '</rdfs:subClassOf></daml:Class>'))
        assert report.ontology.axioms == ()
        assert any(e.name == "daml:Restriction" for e in report.skipped)
        assert any("hasValue restriction skipped" in n for n in report.notes)

    def test_object_property_datatype_range_dropped(self):
        report = checked_import(doc(
            '<daml:ObjectProperty rdf:about="#binds"><rdfs:range '
            'rdf:resource="http://www.w3.org/2001/XMLSchema#string"/>'
            '</daml:ObjectProperty>'))
        assert report.ontology.properties[0].range is None
        assert any(e.name == "rdfs:range" for e in report.skipped)
        assert any("datatype range string dropped" in n for n in report.notes)

    def test_unknown_datatype_maps_to_string(self):
        report = checked_import(doc(
            '<daml:DatatypeProperty rdf:about="#mass"><rdfs:range '
            'rdf:resource="http://www.w3.org/2001/XMLSchema#float"/>'
            '</daml:DatatypeProperty>'))
        assert report.ontology.properties[0].range == "string"
        assert any("datatype float" in n for n in report.notes)

    def test_typed_node_individual(self):
        report = checked_import(doc('<bio:Protein rdf:about="#p53"/>'))
        assert report.ontology.individuals \
            == (Individual("p53", types=(named("Protein"),)),)
        assert [c.name for c in report.ontology.classes] == ["Protein"]
        assert validate_ontology(report.ontology) == []

    def test_description_without_type_skipped(self):
        report = checked_import(doc('<rdf:Description rdf:about="#x"/>'))
        assert report.ontology.individuals == ()
        assert any("without a type" in n for n in report.notes)

    def test_cardinality_attribute_form(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf>'
            '<daml:Restriction daml:minCardinality="2">'
            '<daml:onProperty rdf:resource="#p"/>'
            '</daml:Restriction>'
            '</rdfs:subClassOf></daml:Class>'))
        assert report.ontology.axioms == (Axiom(
            SUBCLASS, "A", restriction_expr(Restriction("p", MIN, count=2))),)

    def test_restriction_with_two_constraints_becomes_conjunction(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf>'
            '<daml:Restriction>'
            '<daml:onProperty rdf:resource="#p"/>'
            '<daml:hasClass rdf:resource="#B"/>'
            '<daml:maxCardinality>4</daml:maxCardinality>'
            '</daml:Restriction>'
            '</rdfs:subClassOf></daml:Class>'))
        assert report.ontology.axioms == (Axiom(SUBCLASS, "A", ClassExpression(
            "and", members=(
                restriction_expr(Restriction("p", SOME, target=named("B"))),
                restriction_expr(Restriction("p", "max", count=4))))),)

    @pytest.mark.parametrize("body,merged,axioms,note", [
        # each element's domain, in order
        ('<daml:ObjectProperty rdf:about="#binds">'
         '<rdfs:domain rdf:resource="#A"/></daml:ObjectProperty>'
         '<daml:ObjectProperty rdf:about="#binds">'
         '<rdfs:domain rdf:resource="#B"/></daml:ObjectProperty>',
         PropertyDefinition("binds", OBJECT, domains=("A", "B")), (), None),
        # a repeated domain, kept once
        ('<daml:ObjectProperty rdf:about="#binds">'
         '<rdfs:domain rdf:resource="#A"/><rdfs:domain rdf:resource="#A"/>'
         '</daml:ObjectProperty><daml:ObjectProperty rdf:about="#binds">'
         '<rdfs:domain rdf:resource="#A"/></daml:ObjectProperty>',
         PropertyDefinition("binds", OBJECT, domains=("A",)), (), None),
        # a second range: the first kept
        ('<daml:ObjectProperty rdf:about="#binds">'
         '<rdfs:range rdf:resource="#A"/></daml:ObjectProperty>'
         '<daml:ObjectProperty rdf:about="#binds">'
         '<rdfs:range rdf:resource="#B"/></daml:ObjectProperty>',
         PropertyDefinition("binds", OBJECT, range="A"), (),
         "property binds: extra range ignored"),
        # a typed node, then rdf:type children of a second element
        ('<bio:Protein rdf:about="#p53"/><rdf:Description rdf:about="#p53">'
         '<rdf:type rdf:resource="#DNA"/><rdf:type rdf:resource="#Protein"/>'
         '</rdf:Description>',
         Individual("p53", types=(named("Protein"), named("DNA"))), (), None),
        # a second definition: an equivalence axiom
        ('<daml:Class rdf:about="#X"><daml:intersectionOf>'
         '<daml:Class rdf:about="#A"/><daml:Class rdf:about="#B"/>'
         '</daml:intersectionOf></daml:Class>'
         '<daml:Class rdf:about="#X"><daml:unionOf>'
         '<daml:Class rdf:about="#A"/><daml:Class rdf:about="#B"/>'
         '</daml:unionOf></daml:Class>',
         ClassDefinition("X", ClassExpression("and", members=(named("A"), named("B")))),
         (Axiom(SAME_CLASS, "X", ClassExpression("or", members=(named("A"), named("B")))),),
         "class X: extra definition kept as an equivalence axiom"),
    ])
    def test_duplicate_declarations_merge(self, body, merged, axioms, note):
        """Coverage of the merge paths, where a later element names a
        class, property or individual again: one value is kept per name."""
        report = checked_import(doc(body))
        ont = report.ontology
        kept = {ClassDefinition: ont.classes, PropertyDefinition: ont.properties,
                Individual: ont.individuals}[type(merged)]
        assert [v for v in kept if v.name == merged.name] == [merged]
        assert ont.axioms == axioms
        assert note is None or note in report.notes

    def test_skipped_expression_leaves_no_trace_but_its_skip(self):
        # the adjusted name and the census of the walk into the expression
        # roll back: none of it reaches the imported ontology
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:intersectionOf>'
            '<daml:Class rdf:about="#amino.acid"/>'
            '<daml:Restriction><daml:onProperty rdf:resource="#p"/>'
            '<daml:hasValue rdf:resource="#v"/></daml:Restriction>'
            '</daml:intersectionOf></rdfs:subClassOf></daml:Class>'))
        assert [c.name for c in report.ontology.classes] == ["A"]
        assert report.ontology.axioms == ()
        assert report.notes == (
            "class A: hasValue restriction skipped",
            "class A: rdfs:subClassOf carried no usable class expression")
        assert dict(report.translated) == {"daml:Class": 1,
                                           "rdfs:subClassOf": 1}
        where = "rdf:RDF/daml:Class[1]/rdfs:subClassOf[1]/daml:intersectionOf[1]"
        assert report.skipped == (
            SkippedEntry("daml:Class", 1, where + "/daml:Class[1]"),
            SkippedEntry("daml:Restriction", 1, where + "/daml:Restriction[1]"),
            SkippedEntry("daml:hasValue", 1,
                         where + "/daml:Restriction[1]/daml:hasValue[1]"),
            SkippedEntry("daml:intersectionOf", 1, where),
            SkippedEntry("daml:onProperty", 1,
                         where + "/daml:Restriction[1]/daml:onProperty[1]"))

    def test_name_adjusted_again_after_a_skip_is_noted_where_imported(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
            '<daml:onProperty rdf:resource="#has.part"/>'
            '<daml:hasValue rdf:resource="#v"/></daml:Restriction>'
            '</rdfs:subClassOf></daml:Class>'
            '<daml:ObjectProperty rdf:about="#has.part"/>'))
        assert report.notes == (
            "class A: hasValue restriction skipped",
            "class A: rdfs:subClassOf carried no usable class expression",
            "name 'has.part' adjusted to 'has_part'")

    def test_notes_inside_an_expression_follow_document_order(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><daml:unionOf><daml:intersectionOf>'
            '<daml:Class rdf:about="#B"/></daml:intersectionOf>'
            '<daml:Class rdf:about="#x.y"/></daml:unionOf></daml:Class>'))
        assert report.notes[:2] == (
            "single-member daml:intersectionOf at "
            "rdf:RDF/daml:Class[1]/daml:unionOf[1]/daml:intersectionOf[1] "
            "unwrapped",
            "name 'x.y' adjusted to 'x_y'")

    def test_note_inside_a_nested_expression_names_its_path(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf rdf:resource="#B"/>'
            '<rdfs:subClassOf><daml:Class><daml:unionOf>'
            '<daml:Class rdf:about="#C"/><daml:intersectionOf>'
            '<daml:Class rdf:about="#D"/></daml:intersectionOf>'
            '</daml:unionOf></daml:Class></rdfs:subClassOf></daml:Class>'))
        assert report.notes[0] == (
            "single-member daml:intersectionOf at rdf:RDF/daml:Class[1]/"
            "rdfs:subClassOf[2]/daml:Class[1]/daml:unionOf[1]/"
            "daml:intersectionOf[1] unwrapped")

    def test_skip_ledger_keeps_the_first_location_of_each_name(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:label>a</rdfs:label>'
            '<rdfs:comment>c</rdfs:comment><rdfs:label>b</rdfs:label>'
            '</daml:Class><daml:Class rdf:about="#B"><rdfs:subClassOf>'
            '<daml:Class><daml:oneOf><daml:Thing rdf:about="#x"/></daml:oneOf>'
            '</daml:Class></rdfs:subClassOf><rdfs:label>c</rdfs:label>'
            '</daml:Class>'))
        where = "rdf:RDF/daml:Class[2]/rdfs:subClassOf[1]/daml:Class[1]"
        assert report.skipped == (
            SkippedEntry("daml:Class", 1, where),
            SkippedEntry("daml:Thing", 1, where + "/daml:oneOf[1]/daml:Thing[1]"),
            SkippedEntry("daml:oneOf", 1, where + "/daml:oneOf[1]"),
            SkippedEntry("rdfs:comment", 1, "rdf:RDF/daml:Class[1]/rdfs:comment[1]"),
            SkippedEntry("rdfs:label", 3, "rdf:RDF/daml:Class[1]/rdfs:label[1]"))

    def test_awkward_uri_characters_sanitized(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#amino.acid"/>'))
        assert report.ontology.classes[0].name == "amino_acid"
        assert any("adjusted" in n for n in report.notes)

    def test_slash_separated_uri_reduced_to_its_local_name(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="http://example.org/bio/Protein"/>'
            '<daml:Class rdf:about="http://example.org/bio/DNA/"/>'))
        assert [c.name for c in report.ontology.classes] == ["Protein", "DNA"]
        assert report.notes == ()

    def test_has_class_holding_an_anonymous_union(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
            '<daml:onProperty rdf:resource="#binds"/><daml:hasClass>'
            '<daml:Class><daml:unionOf><daml:Class rdf:about="#DNA"/>'
            '<daml:Class rdf:about="#RNA"/></daml:unionOf></daml:Class>'
            '</daml:hasClass></daml:Restriction></rdfs:subClassOf></daml:Class>'))
        assert report.ontology.axioms == (Axiom(SUBCLASS, "A", restriction_expr(
            Restriction("binds", SOME, target=ClassExpression(
                "or", members=(named("DNA"), named("RNA")))))),)

    def test_unknown_restriction_child_skipped(self):
        report = checked_import(doc(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
            '<rdfs:comment>c</rdfs:comment><daml:onProperty rdf:resource="#p"/>'
            '<daml:hasClass rdf:resource="#B"/></daml:Restriction>'
            '</rdfs:subClassOf></daml:Class>'))
        assert report.ontology.axioms == (Axiom(SUBCLASS, "A", restriction_expr(
            Restriction("p", SOME, target=named("B")))),)
        assert report.skipped == (SkippedEntry(
            "rdfs:comment", 1, "rdf:RDF/daml:Class[1]/rdfs:subClassOf[1]/"
            "daml:Restriction[1]/rdfs:comment[1]"),)

    def test_undeclared_names_declared_in_validation_order(self):
        # document order names Kind, Source, Sink, Parent, holds, Cargo,
        # Member, uses, Tool; validation reports definitions, then axioms,
        # then property domains and ranges, then individuals
        report = checked_import(doc(
            '<rdf:Description rdf:about="#x"><rdf:type rdf:resource="#Kind"/>'
            '</rdf:Description>'
            '<daml:ObjectProperty rdf:about="#binds">'
            '<rdfs:domain rdf:resource="#Source"/>'
            '<rdfs:range rdf:resource="#Sink"/></daml:ObjectProperty>'
            '<daml:Class rdf:about="#A"><rdfs:subClassOf rdf:resource="#Parent"/>'
            '<rdfs:subClassOf><daml:Restriction>'
            '<daml:onProperty rdf:resource="#holds"/>'
            '<daml:hasClass rdf:resource="#Cargo"/></daml:Restriction>'
            '</rdfs:subClassOf></daml:Class>'
            '<daml:Class rdf:about="#D"><daml:intersectionOf>'
            '<daml:Class rdf:about="#Member"/><daml:Restriction>'
            '<daml:onProperty rdf:resource="#uses"/>'
            '<daml:toClass rdf:resource="#Tool"/></daml:Restriction>'
            '</daml:intersectionOf></daml:Class>'))
        undeclared = ["Member", "Tool", "Parent", "Cargo", "Source", "Sink",
                      "Kind"]
        assert [c.name for c in report.ontology.classes] == ["A", "D", *undeclared]
        assert [p.name for p in report.ontology.properties] \
            == ["binds", "uses", "holds"]
        assert report.notes == tuple(
            [f"class {name} referenced but never declared; declared "
             "automatically" for name in undeclared]
            + [f"property {name} referenced in a restriction but never "
               "declared; assumed to be an object property"
               for name in ("uses", "holds")])
        assert validate_ontology(report.ontology) == []


XSD = "http://www.w3.org/2001/XMLSchema#"

# importer branches that skip or adjust something, each with the note it leaves
BRANCHES = [
    ('<daml:ObjectProperty><rdfs:domain rdf:resource="#A"/>'
     '</daml:ObjectProperty>', "anonymous property element skipped"),
    ('<rdf:Description><rdf:type rdf:resource="#A"/></rdf:Description>',
     "individual without a name skipped"),
    ('<daml:Class><rdfs:subClassOf rdf:resource="#B"/></daml:Class>',
     "anonymous top-level class skipped"),
    ('<daml:Restriction><daml:onProperty rdf:resource="#p"/>'
     '<daml:hasClass rdf:resource="#B"/></daml:Restriction>',
     "top-level anonymous Restriction skipped"),
    ('<daml:ObjectProperty rdf:about="#p"/><daml:DatatypeProperty rdf:about="#p">'
     f'<rdfs:range rdf:resource="{XSD}string"/></daml:DatatypeProperty>',
     "property p declared with conflicting categories; keeping object"),
    ('<daml:ObjectProperty rdf:about="#p"><rdfs:range rdf:resource="#A"/>'
     '<rdfs:range rdf:resource="#B"/></daml:ObjectProperty>',
     "property p: extra range ignored"),
    (f'<daml:DatatypeProperty rdf:about="#m"><rdfs:range rdf:resource="{XSD}string"/>'
     f'<rdfs:range rdf:resource="{XSD}integer"/></daml:DatatypeProperty>',
     "property m: extra range ignored"),
    ('<daml:Class rdf:about="#A"><daml:disjointWith>'
     '<daml:Class rdf:about="#B"/></daml:disjointWith></daml:Class>',
     "class A: non-named disjointWith skipped"),
    ('<daml:Class rdf:about="#A"><daml:unionOf><daml:Class rdf:about="#B"/>'
     '<daml:Class rdf:about="#C"/></daml:unionOf><daml:sameClassAs>'
     '<daml:Class rdf:about="#D"/></daml:sameClassAs></daml:Class>',
     "class A: extra definition kept as an equivalence axiom"),
    ('<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Class>'
     '<rdfs:label>x</rdfs:label></daml:Class></rdfs:subClassOf></daml:Class>',
     "class A: class expression content rdfs:label skipped"),
    ('<daml:Class rdf:about="#1st-gen"/>', "name '1st-gen' adjusted to '_1st-gen'"),
    ('<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Class/>'
     '</rdfs:subClassOf></daml:Class>',
     "class A: anonymous class without an expression skipped"),
    ('<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Thing/>'
     '</rdfs:subClassOf></daml:Class>',
     "class A: class expression daml:Thing skipped"),
]

SNIPPETS = [
    '<daml:Class rdf:about="#A"><daml:oneOf><daml:Thing rdf:about="#x"/>'
    '</daml:oneOf></daml:Class>',
    '<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
    '<daml:onProperty rdf:resource="#p"/><daml:hasValue rdf:resource="#v"/>'
    '</daml:Restriction></rdfs:subClassOf></daml:Class>',
    '<daml:Ontology rdf:about="#o"><daml:versionInfo>1</daml:versionInfo>'
    '</daml:Ontology>',
    '<daml:TransitiveProperty rdf:about="#p"/><rdf:Description rdf:about="#i">'
    '<rdf:type rdf:resource="#A"/><bio:note>hi</bio:note></rdf:Description>',
    '<daml:Class rdf:about="#A"><rdfs:comment>c</rdfs:comment>'
    '<daml:disjointWith rdf:resource="#B"/></daml:Class>',
    '<daml:DatatypeProperty rdf:about="#m"><rdfs:range '
    'rdf:resource="http://www.w3.org/2001/XMLSchema#integer"/>'
    '<daml:samePropertyAs rdf:resource="#n"/></daml:DatatypeProperty>',
    # the parser keeps neither comments nor processing instructions
    '<!-- c --><?pi top?><daml:Class rdf:about="#A"><!-- c --><?pi inner?>'
    '<rdfs:subClassOf rdf:resource="#B"/></daml:Class>',
] + [body for body, _ in BRANCHES]


@pytest.mark.parametrize("body, note", BRANCHES)
def test_branch_leaves_its_note(body, note):
    assert note in checked_import(doc(body)).notes


@pytest.mark.parametrize("body", SNIPPETS)
def test_census_always_balances(body):
    text = doc(body)
    report = checked_import(text)
    assert report.translated_total() + report.skipped_total() \
        == element_count(text)


@pytest.mark.parametrize("body", SNIPPETS)
def test_imports_always_validate_and_round_trip(body):
    report = checked_import(doc(body))
    assert validate_ontology(report.ontology) == []
    assert cot.parse(cot.serialize(report.ontology)) == report.ontology


# the characters XML 1.0 allows in a document
XML_CHARS = st.characters(blacklist_categories=("Cs",)).filter(
    lambda c: c in "\t\n\r" or (c >= " " and c not in "\ufffe\uffff"))


@settings(max_examples=300, deadline=None)
@example("Protein")
@example("part-of")
@example("_9")
@example("9lives")
@example("a b-c\u00e9")
@example("bio#Gene")
@example("a/")  # the last path segment, once the trailing slash is stripped
@given(st.text(XML_CHARS, min_size=1, max_size=12))
def test_an_imported_name_is_a_cot_name(raw):
    report = checked_import(doc(f"<daml:Class rdf:ID={quoteattr(raw)}/>"))
    for cls in report.ontology.classes:
        assert cot._NAME_RE.match(cls.name), cls.name
    assert cot.parse(cot.serialize(report.ontology)) == report.ontology
    if cot._NAME_RE.match(raw):
        assert [c.name for c in report.ontology.classes] == [raw]
        assert not any("adjusted" in n for n in report.notes)


class TestErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("<rdf:RDF", "malformed XML"),
        ("<root/>", "root element must be rdf:RDF"),
        (doc('<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
             '<daml:hasClass rdf:resource="#B"/></daml:Restriction>'
             '</rdfs:subClassOf></daml:Class>'),
         "lacks onProperty"),
        (doc('<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
             '<daml:onProperty/><daml:hasClass rdf:resource="#B"/>'
             '</daml:Restriction></rdfs:subClassOf></daml:Class>'),
         "lacks rdf:resource"),
        (doc('<daml:Class rdf:about="#A"><daml:intersectionOf/>'
             '</daml:Class>'),
         "no members"),
        (doc('<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
             '<daml:onProperty rdf:resource="#p"/>'
             '<daml:cardinality>two</daml:cardinality>'
             '</daml:Restriction></rdfs:subClassOf></daml:Class>'),
         "not an integer"),
        (doc('<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
             '<daml:onProperty rdf:resource="#p"/><daml:hasClass/>'
             '</daml:Restriction></rdfs:subClassOf></daml:Class>'),
         "needs exactly one target"),
        (doc('<daml:Class rdf:about="#A"><daml:complementOf/>'
             '</daml:Class>'),
         "exactly one member"),
        (doc('<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
             '<daml:onProperty rdf:resource="#p"/>'
             '</daml:Restriction></rdfs:subClassOf></daml:Class>'),
         "no constraint"),
    ])
    def test_raises(self, text, fragment):
        with pytest.raises(DamlImportError, match=fragment):
            checked_import(text)

    @pytest.mark.parametrize("body,message", [
        ('<daml:Class rdf:about="#A"/><daml:Class rdf:about="#B">'
         '<rdfs:subClassOf rdf:resource="#A"/><rdfs:subClassOf>'
         '<daml:Restriction><daml:onProperty rdf:resource="#p"/>'
         '<daml:cardinality>two</daml:cardinality></daml:Restriction>'
         '</rdfs:subClassOf></daml:Class>',
         "cardinality at rdf:RDF/daml:Class[2]/rdfs:subClassOf[2]/"
         "daml:Restriction[1]/daml:cardinality[1] is not an integer: 'two'"),
        ('<daml:Class rdf:about="#A"><rdfs:subClassOf>'
         '<daml:Restriction daml:minCardinality="x">'
         '<daml:onProperty rdf:resource="#p"/></daml:Restriction>'
         '</rdfs:subClassOf></daml:Class>',
         "cardinality at rdf:RDF/daml:Class[1]/rdfs:subClassOf[1]/"
         "daml:Restriction[1] is not an integer: 'x'"),
        ('<daml:Class rdf:about="#A"><daml:unionOf><daml:Class rdf:about="#B"/>'
         '<daml:Restriction><daml:hasClass rdf:resource="#B"/>'
         '</daml:Restriction></daml:unionOf></daml:Class>',
         "Restriction at rdf:RDF/daml:Class[1]/daml:unionOf[1]/"
         "daml:Restriction[1] lacks onProperty"),
        pytest.param(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction>'
            '<daml:onProperty rdf:resource="#p"/><daml:minCardinality>'
            f'{"9" * (INT_DIGITS + 1)}</daml:minCardinality></daml:Restriction>'
            '</rdfs:subClassOf></daml:Class>',
            "cardinality at rdf:RDF/daml:Class[1]/rdfs:subClassOf[1]/"
            "daml:Restriction[1]/daml:minCardinality[1]: integer longer than "
            f"{INT_DIGITS} digits", marks=needs_digit_limit,
            id="overlong-element-cardinality"),
        pytest.param(
            '<daml:Class rdf:about="#A"><rdfs:subClassOf><daml:Restriction '
            f'daml:maxCardinality="+{"9" * (INT_DIGITS + 1)}">'
            '<daml:onProperty rdf:resource="#p"/></daml:Restriction>'
            '</rdfs:subClassOf></daml:Class>',
            "cardinality at rdf:RDF/daml:Class[1]/rdfs:subClassOf[1]/"
            f"daml:Restriction[1]: integer longer than {INT_DIGITS} digits",
            marks=needs_digit_limit, id="overlong-attribute-cardinality"),
    ])
    def test_error_names_the_element_path(self, body, message):
        with pytest.raises(DamlImportError) as exc:
            checked_import(doc(body))
        assert str(exc.value) == message

    def test_depth_bound_is_exact(self):
        def chain(depth):
            # each level holds an empty <x/> and then the next level
            return doc("<x/><x>" * depth + "</x>" * depth)
        assert checked_import(chain(MAX_DEPTH)).skipped_total() == 2 * MAX_DEPTH
        with pytest.raises(DamlImportError) as exc:
            checked_import(chain(MAX_DEPTH + 1))
        assert str(exc.value) == (
            f"element nested deeper than {MAX_DEPTH} levels at rdf:RDF"
            + "/x[2]" * MAX_DEPTH + "/x[1]")

    def test_first_offence_in_document_order_is_reported(self):
        deep = "<x>" * MAX_DEPTH + "</x>" * MAX_DEPTH
        with pytest.raises(DamlImportError, match="nested deeper than"):
            checked_import(doc(
                '<daml:Class rdf:about="#A"><rdfs:subClassOf>'
                f'<daml:intersectionOf><daml:Class rdf:about="#B">{deep}'
                '</daml:Class><daml:Restriction/></daml:intersectionOf>'
                '</rdfs:subClassOf></daml:Class>'))


@st.composite
def mutated_protein_daml(draw):
    """protein.daml after one to four random deletions, duplications and
    insertions of short spans."""
    text = (FIXTURES / "protein.daml").read_text()
    pieces = st.sampled_from(["<", ">", "/", '"', "=", " ", "#", "x",
                              "rdf:resource", "rdf:about", "daml:Class",
                              "daml:Restriction", "rdfs:subClassOf",
                              "&amp;", "&bogus;", "<!--", "-->"])
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        op = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if op == "delete":
            text = text[:start] + text[end:]
        elif op == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        else:
            text = (text[:start] + "".join(draw(st.lists(pieces, max_size=4)))
                    + text[start:])
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_protein_daml())
def test_any_mutation_imports_or_raises_import_error(text):
    try:
        report = checked_import(text)
    except DamlImportError:
        return
    assert isinstance(report, ImportReport)


# the documents the mutations below start from
BASES = [(FIXTURES / name).read_text() for name in ("protein.daml", "excess.daml")] \
    + [doc(body) for body in SNIPPETS]
# text an edit puts in: markup, references and characters of two, three
# and four UTF-8 bytes, in names as well as between them
PIECES = st.sampled_from(["<", ">", "/", '"', "=", " ", "x", "&amp;", "&bogus;",
                          "<!--", "-->", "é", "名", "\U0001d49c", '<名 rdf:about="#é"/>',
                          "</rdf:RDF>", "<rdf:RDF>"])
# constructs that fail the import wherever they stand in a well-formed root
BROKEN = ['<daml:Class rdf:about="#Q"><daml:intersectionOf/></daml:Class>',
          '<daml:Class rdf:about="#Q">' + "<x>" * (MAX_DEPTH + 1)
          + "</x>" * (MAX_DEPTH + 1) + "</daml:Class>"]


def _root_body(text: str) -> tuple[int, int]:
    """Where the root's content starts and where its end tag begins."""
    return text.index(">", text.index("<rdf:RDF")) + 1, text.rindex("</rdf:RDF>")


@st.composite
def mutated_documents(draw):
    """A fixture or snippet document after one to three mutations in turn:
    a span replaced by `PIECES`, a truncation, a span of another document
    spliced in, a `BROKEN` construct made the root's first child, an
    unclosed element before the root's end tag, a root renamed, or junk
    after the root."""
    text = draw(st.sampled_from(BASES))
    for op in draw(st.lists(st.sampled_from(
            ["edit", "truncate", "splice", "break", "unclose", "reroot", "junk"]),
            min_size=1, max_size=3)):
        at = draw(st.integers(0, len(text)))
        if op == "edit":
            end = draw(st.integers(at, min(len(text), at + 8)))
            text = text[:at] + "".join(draw(st.lists(PIECES, max_size=4))) + text[end:]
        elif op == "truncate":
            text = text[:at]
        elif op == "splice":
            other = draw(st.sampled_from(BASES))
            start = draw(st.integers(0, len(other)))
            end = draw(st.integers(start, min(len(other), start + 200)))
            text = text[:at] + other[start:end] + text[at:]
        elif "<rdf:RDF" in text and "</rdf:RDF>" in text:
            content, close = _root_body(text)
            if op == "break":
                text = text[:content] + draw(st.sampled_from(BROKEN)) + text[content:]
            elif op == "unclose":
                text = text[:close] + "<daml:Class>" + text[close:]
            elif op == "reroot":
                text = text.replace("rdf:RDF", "rdf:Bag")
            else:
                text += draw(st.sampled_from(["x", "<x/>", "</rdf:RDF>", "&amp;",
                                              "<!-- c -->", "\n"]))
    return text


@settings(max_examples=300, deadline=None)
@example(doc(BROKEN[0] + '<daml:Class rdf:about="#A"/>' * 20 + "<x>"))
@example(doc(BROKEN[1] + '<daml:Class rdf:about="#A"/>' * 20 + "</y>"))
@example(doc('<daml:Class rdf:about="#A"/>' * 20).replace("rdf:RDF", "rdf:Bag")
         + "<x/>")
# fed in slices, expat names another fault here than fed the whole text
@example(doc('<daml:Class rdf:about="#A"/>') + "x<x/>")
@given(mutated_documents())
def test_streamed_import_agrees_with_the_tree_walk(text):
    try:
        checked_import(text)
    except DamlImportError:
        pass


def lattice_daml(n: int) -> str:
    """A diamond lattice of `n` classes: each below the classes at half and
    a third of its number, with a label, a comment and a see-also the
    importer skips."""
    classes = "".join(
        f'<daml:Class rdf:ID="C{i}">'
        f'<rdfs:subClassOf rdf:resource="#C{i // 2}"/>'
        f'<rdfs:subClassOf rdf:resource="#C{i // 3}"/>'
        f"<rdfs:label>C{i}</rdfs:label>"
        f"<rdfs:comment>class {i} of the lattice</rdfs:comment>"
        f'<rdfs:seeAlso rdf:resource="#C{i - 1}"/></daml:Class>\n'
        for i in range(1, n))
    return doc('<daml:Class rdf:ID="C0"/>\n' + classes)


def test_import_peak_is_below_half_of_the_tree():
    # the tree a whole-document parse holds is what the importer lets go
    text = lattice_daml(4500)
    assert len(text) > 10 * ontology.PIECE_CHARS
    tracemalloc.start()
    try:
        tree = ET.fromstring(text)
        tree_peak = tracemalloc.get_traced_memory()[1]
        del tree
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = import_daml(text)
        import_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (report.translated_total(), report.skipped_total()) \
        == (3 * 4500 - 2, 3 * 4499)
    assert import_peak < tree_peak / 2, (import_peak, tree_peak)
