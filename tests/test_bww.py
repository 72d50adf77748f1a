"""Concept grading, checked against an independent closure-based oracle."""


from hypothesis import example, given, settings
from hypothesis import strategies as st

from ont2cm import bww, cot
from ont2cm.emit import emit_bww_json
from ont2cm.ontology import (
    SUBCLASS,
    DISJOINT,
    Axiom,
    ClassDefinition,
    ClassExpression,
    Ontology,
    PropertyDefinition,
    OntologyIndex,
    Restriction,
    named,
    normalize,
    restriction_expr,
)
from lookups import concepts
from oracles import reachable_from, stated_restrictions, superclass_edge_map
from strategies import ontologies


def ont(classes=(), properties=(), axioms=()):
    return Ontology("t", classes=tuple(classes), properties=tuple(properties),
                    axioms=tuple(axioms))


def grade(o):
    return bww.classify(o, OntologyIndex(o))


class TestGrading:
    def test_no_properties_is_thing_set(self):
        report = grade(ont(classes=[ClassDefinition("Rock")]))
        assert concepts(report)["Rock"].category == "thingSet"

    def test_one_property_is_class(self):
        o = ont(classes=[ClassDefinition("Protein")],
                properties=[PropertyDefinition("accession", "datatype",
                                               domains=("Protein",), range="string")])
        assert concepts(grade(o))["Protein"].category == "bwwClass"

    def test_two_properties_no_laws_is_kind(self):
        o = ont(classes=[ClassDefinition("Protein")],
                properties=[
                    PropertyDefinition("accession", "datatype", domains=("Protein",)),
                    PropertyDefinition("mass", "datatype", domains=("Protein",))])
        assert concepts(grade(o))["Protein"].category == "kind"

    def test_two_properties_with_restriction_is_natural_kind(self):
        o = ont(classes=[ClassDefinition("Protein", local_restrictions=(
                    Restriction("mass", "exactly", count=1),))],
                properties=[
                    PropertyDefinition("accession", "datatype", domains=("Protein",)),
                    PropertyDefinition("mass", "datatype", domains=("Protein",))])
        entry = concepts(grade(o))["Protein"]
        assert entry.category == "naturalKind"
        assert entry.property_count == 2
        assert entry.law_count == 1

    def test_disjointness_counts_as_law(self):
        props = [PropertyDefinition("p", "datatype", domains=("DNA", "RNA")),
                 PropertyDefinition("q", "datatype", domains=("DNA", "RNA"))]
        without = ont(classes=[ClassDefinition("DNA"), ClassDefinition("RNA")],
                      properties=props)
        with_disjoint = ont(classes=[ClassDefinition("DNA"), ClassDefinition("RNA")],
                            properties=props,
                            axioms=[Axiom(DISJOINT, "DNA", named("RNA"))])
        assert concepts(grade(without))["DNA"].category == "kind"
        report = grade(with_disjoint)
        assert concepts(report)["DNA"].category == "naturalKind"
        assert concepts(report)["RNA"].category == "naturalKind"

    def test_self_disjointness_is_no_law(self):
        props = [PropertyDefinition("p", "datatype", domains=("X",)),
                 PropertyDefinition("q", "datatype", domains=("X",))]
        o = ont(classes=[ClassDefinition("X")], properties=props,
                axioms=[Axiom(DISJOINT, "X", named("X"))])
        entry = concepts(grade(o))["X"]
        assert (entry.category, entry.law_count) == ("kind", 0)

    def test_inherited_properties_count(self):
        o = ont(classes=[ClassDefinition("Macromolecule"), ClassDefinition("Protein")],
                properties=[
                    PropertyDefinition("mass", "datatype", domains=("Macromolecule",)),
                    PropertyDefinition("accession", "datatype", domains=("Protein",))],
                axioms=[Axiom(SUBCLASS, "Protein", named("Macromolecule"))])
        report = grade(o)
        assert concepts(report)["Macromolecule"].category == "bwwClass"
        assert concepts(report)["Protein"].category == "kind"

    def test_one_property_with_law_stays_class_and_notes(self):
        o = ont(classes=[ClassDefinition("Protein", local_restrictions=(
                    Restriction("accession", "exactly", count=1),))],
                properties=[PropertyDefinition("accession", "datatype",
                                               domains=("Protein",))])
        report = grade(o)
        assert concepts(report)["Protein"].category == "bwwClass"
        assert any("Protein" in n for n in report.notes)

    def test_property_grading(self):
        o = ont(classes=[ClassDefinition("A")],
                properties=[PropertyDefinition("size", "datatype", domains=("A",)),
                            PropertyDefinition("binds", "object", domains=("A",))])
        report = grade(o)
        # the ontology's own definitions, sorted by name, graded by category
        assert report.properties == tuple(sorted(o.properties))
        graded = {p.name: bww.classify_property(p.category)
                  for p in report.properties}
        assert graded == {"size": "intrinsic", "binds": "mutual"}

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_declaration_order_does_not_matter(self, data):
        o = data.draw(ontologies())
        shuffled = o._replace(
            classes=tuple(data.draw(st.permutations(o.classes))),
            properties=tuple(data.draw(st.permutations(o.properties))),
            axioms=tuple(data.draw(st.permutations(o.axioms))))

        def graded(ontology):
            # what `ont2cm classify` writes
            collapsed, _, index = normalize(ontology)
            return emit_bww_json(bww.classify(collapsed, index))

        assert graded(shuffled) == graded(o)


# --------------------------------------------------------------------------
# oracle: an independent set-based closure over the superclass graph


def oracle_category(o: Ontology, cls: str) -> tuple[str, int, int]:
    closure = {cls} | reachable_from(superclass_edge_map(o), cls)
    stated = stated_restrictions(o)

    prop_names = set()
    law_count = 0
    for name in closure:
        for p in o.properties:
            if name in p.domains:
                prop_names.add(p.name)
        for r in stated[name]:
            prop_names.add(r.on_property)
            law_count += 1
    for ax in o.axioms:
        if (ax.kind == DISJOINT and ax.subject != ax.target.name
                and cls in (ax.subject, ax.target.name)):
            law_count += 1

    declared_props = {p.name for p in o.properties}
    prop_names &= declared_props
    n = len(prop_names)
    if n == 0:
        cat = "thingSet"
    elif n == 1:
        cat = "bwwClass"
    elif law_count == 0:
        cat = "kind"
    else:
        cat = "naturalKind"
    return cat, n, law_count


class TestOracleAgreement:
    @settings(max_examples=200, deadline=None)
    @given(ontologies())
    @example(cot.parse("ontology t\nclass A\nclass B\nclass C\nclass X\n"
                       "same-class X or(A, or(B, C))\ndataprop size domain X\n"))
    def test_matches_closure_oracle(self, o):
        graded = concepts(grade(o))
        for c in o.classes:
            cat, props, laws = oracle_category(o, c.name)
            entry = graded[c.name]
            assert (entry.category, entry.property_count, entry.law_count) == \
                (cat, props, laws), c.name

    def test_union_and_intersection_paths(self):
        o = ont(
            classes=[ClassDefinition("DNA"), ClassDefinition("RNA"),
                     ClassDefinition("NucleicAcid", definition=ClassExpression(
                         "or", members=(named("DNA"), named("RNA")))),
                     ClassDefinition("Enzyme", definition=ClassExpression("and", members=(
                         named("NucleicAcid"),
                         restriction_expr(Restriction(
                             "catalyses", "some", target=named("DNA"))))))],
            properties=[PropertyDefinition("sequence", "datatype",
                                           domains=("NucleicAcid",)),
                        PropertyDefinition("catalyses", "object", range="DNA")])
        graded = concepts(grade(o))
        for name in ("DNA", "RNA", "NucleicAcid", "Enzyme"):
            cat, props, laws = oracle_category(o, name)
            entry = graded[name]
            assert (entry.category, entry.property_count, entry.law_count) == \
                (cat, props, laws), name
        assert graded["Enzyme"].category == "naturalKind"
