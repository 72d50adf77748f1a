"""Core ontology model: validation, normalization, equivalence collapse and
inherited-feature resolution."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ont2cm import cot
from ont2cm.ontology import (
    SUBCLASS,
    SAME_CLASS,
    DISJOINT,
    Axiom,
    ClassDefinition,
    ClassExpression,
    Individual,
    Ontology,
    OntologyIndex,
    PropertyDefinition,
    Restriction,
    collapse_equivalences,
    conjuncts,
    disjuncts,
    hoist_axiom_restrictions,
    named,
    restriction_expr,
    validate_ontology,
)
from oracles import reachable_from, superclass_edge_map
from strategies import ontologies, subclass_graphs


def ont(classes=(), properties=(), axioms=(), individuals=(), name="t"):
    return Ontology(name, classes=tuple(classes), properties=tuple(properties),
                    axioms=tuple(axioms), individuals=tuple(individuals))


# --------------------------------------------------------------------------
# validation


class TestValidate:
    def test_clean_ontology_has_no_defects(self):
        o = ont(
            classes=[ClassDefinition("Protein"), ClassDefinition("DNA")],
            properties=[PropertyDefinition("binds", "object",
                                           domains=("Protein",), range="DNA")],
            axioms=[Axiom(SUBCLASS, "Protein", named("DNA"))],
            individuals=[Individual("p53", types=(named("Protein"),))],
        )
        assert validate_ontology(o) == []

    @pytest.mark.parametrize("broken,kind,subject", [
        (ont(axioms=[Axiom(SUBCLASS, "A", named("B"))],
             classes=[ClassDefinition("A")]), "danglingClass", "B"),
        (ont(classes=[ClassDefinition("A"),
                      ClassDefinition("A")]), "duplicateName", "A"),
        (ont(classes=[ClassDefinition("A", local_restrictions=(
            Restriction("p", "min", count=1),))]), "danglingProperty", "p"),
        (ont(classes=[ClassDefinition("A", definition=named("B"))]),
         "danglingClass", "B"),
        (ont(classes=[ClassDefinition("A", definition=ClassExpression(
            "and", members=(named("A"),)))]),
         "malformedExpression", "class A definition"),
        (ont(classes=[ClassDefinition("A")],
             properties=[PropertyDefinition("p", "datatype",
                                            domains=("A",), range="float")]),
         "badDatatype", "float"),
        (ont(classes=[ClassDefinition("A")],
             properties=[PropertyDefinition("p", "object",
                                            domains=("A",), range="B")]),
         "danglingClass", "B"),
        (ont(classes=[ClassDefinition("A")],
             properties=[PropertyDefinition("p", "object")],
             axioms=[Axiom(SUBCLASS, "A", restriction_expr(
                 Restriction("p", "min", count=-1)))]), "badCardinality",
         "axiom subclass A"),
        (ont(individuals=[Individual("x")]), "missingType", "x"),
        (ont(properties=[PropertyDefinition("p", "object",
                                            domains=("Ghost",))]),
         "danglingClass", "Ghost"),
        # the grade and the mapping of a property follow from its category
        (ont(classes=[ClassDefinition("A")],
             properties=[PropertyDefinition("p", "annotation",
                                            domains=("A",))]),
         "badCategory", "p"),
    ])
    def test_single_defect_detected(self, broken, kind, subject):
        defects = validate_ontology(broken)
        assert [(d.kind, d.subject) for d in defects] == [(kind, subject)]

    def test_disjoint_target_must_be_named(self):
        o = ont(classes=[ClassDefinition("A"), ClassDefinition("B")],
                axioms=[Axiom(DISJOINT, "A", ClassExpression(
                    "or", members=(named("A"), named("B"))))])
        kinds = {d.kind for d in validate_ontology(o)}
        assert kinds == {"malformedExpression"}

    def test_validation_is_deterministic(self):
        o = ont(classes=[ClassDefinition("A"), ClassDefinition("A")])
        assert validate_ontology(o) == validate_ontology(o)

    @settings(max_examples=100, deadline=None)
    @given(ontologies())
    def test_generated_ontologies_validate_clean(self, o):
        assert validate_ontology(o) == []


# --------------------------------------------------------------------------
# the terms of intersections and unions


@pytest.mark.parametrize("text,conjunct_texts,disjunct_texts", [
    ("A", ["A"], ["A"]),
    ("and(A, B)", ["A", "B"], ["and(A, B)"]),
    ("and(A, and(B, and(C, D)))", ["A", "B", "C", "D"], None),
    ("and(and(A, B), or(C, and(D, E)))", ["A", "B", "or(C, and(D, E))"], None),
    ("or(A, B)", ["or(A, B)"], ["A", "B"]),
    ("or(A, or(B, or(C, D)))", None, ["A", "B", "C", "D"]),
    ("or(or(A, B), and(C, or(D, E)))", None, ["A", "B", "and(C, or(D, E))"]),
    ("not(or(A, or(B, C)))", None, None),
    ("restriction(p, some, and(A, and(B, C)))", None, None),
])
def test_conjuncts_and_disjuncts(text, conjunct_texts, disjunct_texts):
    # None: the expression is its own single term
    expr = cot.parse(f"ontology t\nsubclass X {text}\n").axioms[0].target
    assert [cot.format_expr(t) for t in conjuncts(expr)] == (conjunct_texts or [text])
    assert [cot.format_expr(t) for t in disjuncts(expr)] == (disjunct_texts or [text])


# --------------------------------------------------------------------------
# normalization


class TestHoist:
    def test_restriction_axiom_moves_onto_class(self):
        r = Restriction("p", "some", target=named("B"))
        o = ont(classes=[ClassDefinition("A"), ClassDefinition("B")],
                properties=[PropertyDefinition("p", "object")],
                axioms=[Axiom(SUBCLASS, "A", restriction_expr(r)),
                        Axiom(SUBCLASS, "A", named("B"))])
        hoisted = hoist_axiom_restrictions(o)
        (a, b) = hoisted.classes
        assert a.local_restrictions == (r,)
        assert b.local_restrictions == ()
        assert hoisted.axioms == (Axiom(SUBCLASS, "A", named("B")),)

    def test_no_restriction_axioms_returns_input(self):
        o = ont(classes=[ClassDefinition("A")])
        assert hoist_axiom_restrictions(o) is o

    @settings(max_examples=100, deadline=None)
    @given(ontologies())
    def test_idempotent_and_validity_preserving(self, o):
        once = hoist_axiom_restrictions(o)
        assert hoist_axiom_restrictions(once) == once
        assert validate_ontology(once) == []


# --------------------------------------------------------------------------
# equivalence collapse, checked against a brute-force reachability oracle


@st.composite
def ontologies_with_cycles(draw):
    """Generated ontologies plus planted same-class cycles and same-class
    unions over their own classes."""
    o = draw(ontologies())
    names = [c.name for c in o.classes]
    extra = []
    if len(names) > 1:
        for cycle in draw(st.lists(st.lists(st.sampled_from(names), min_size=2,
                                            max_size=4, unique=True), max_size=2)):
            extra += [Axiom(SAME_CLASS, a, named(b))
                      for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        for _ in range(draw(st.integers(0, 2))):
            members = draw(st.lists(st.sampled_from(names), min_size=2,
                                    max_size=3, unique=True))
            extra.append(Axiom(SAME_CLASS, draw(st.sampled_from(names)),
                               ClassExpression("or", members=tuple(
                                   map(named, members)))))
    axioms = list(o.axioms) + extra
    return o._replace(axioms=tuple(draw(st.permutations(axioms))))


def oracle_alias_map(o):
    """Mutual-reachability equivalence classes; alias -> least member."""
    edges = superclass_edge_map(o)
    reach = {name: reachable_from(edges, name) for name in edges}
    mapping = {}
    for a in edges:
        group = {a} | {b for b in edges
                       if b != a and b in reach[a] and a in reach[b]}
        rep = min(group)
        if a != rep:
            mapping[a] = rep
    return mapping


def all_names_in_use(o):
    names = set()
    for c in o.classes:
        names.add(c.name)
    for p in o.properties:
        names.update(p.domains)
        if p.category == "object" and p.range is not None:
            names.add(p.range)
    for ax in o.axioms:
        names.add(ax.subject)

    def visit(expr):
        if expr.op == "named":
            names.add(expr.name)
        for m in expr.members:
            visit(m)
        if expr.restriction is not None and expr.restriction.target is not None:
            visit(expr.restriction.target)

    for c in o.classes:
        if c.definition is not None:
            visit(c.definition)
        for r in c.local_restrictions:
            if r.target is not None:
                visit(r.target)
    for ax in o.axioms:
        visit(ax.target)
    for i in o.individuals:
        for t in i.types:
            visit(t)
    return names


class TestCollapse:
    def test_two_cycle_collapses_to_least_name(self):
        o = ont(classes=[ClassDefinition("B"), ClassDefinition("A")],
                axioms=[Axiom(SUBCLASS, "A", named("B")),
                        Axiom(SUBCLASS, "B", named("A"))])
        collapsed, mapping = collapse_equivalences(o)
        assert mapping == {"B": "A"}
        assert [c.name for c in collapsed.classes] == ["A"]
        assert collapsed.axioms == ()

    def test_alias_features_fold_into_representative(self):
        r = Restriction("p", "min", count=1)
        o = ont(classes=[ClassDefinition("A"),
                         ClassDefinition("B", local_restrictions=(r,))],
                properties=[PropertyDefinition("p", "object", domains=("B",),
                                               range="B")],
                axioms=[Axiom(SUBCLASS, "A", named("B")),
                        Axiom(SUBCLASS, "B", named("A"))],
                individuals=[Individual("x", types=(named("B"),))])
        collapsed, mapping = collapse_equivalences(o)
        assert mapping == {"B": "A"}
        assert collapsed.classes[0].local_restrictions == (r,)
        assert collapsed.properties[0].domains == ("A",)
        assert collapsed.properties[0].range == "A"
        assert collapsed.individuals[0].types == (named("A"),)

    def test_acyclic_input_untouched(self):
        o = ont(classes=[ClassDefinition("A"), ClassDefinition("B")],
                axioms=[Axiom(SUBCLASS, "A", named("B"))])
        collapsed, mapping = collapse_equivalences(o)
        assert collapsed is o
        assert mapping == {}

    def test_same_class_pair_closing_a_cycle_collapses(self):
        o = ont(classes=[ClassDefinition("A"), ClassDefinition("B")],
                axioms=[Axiom(SAME_CLASS, "A", named("B")),
                        Axiom(SAME_CLASS, "B", named("A"))])
        collapsed, mapping = collapse_equivalences(o)
        assert mapping == {"B": "A"}
        assert [c.name for c in collapsed.classes] == ["A"]
        assert collapsed.axioms == ()

    def test_lone_same_class_axiom_does_not_collapse(self):
        o = ont(classes=[ClassDefinition("A"), ClassDefinition("B")],
                axioms=[Axiom(SAME_CLASS, "A", named("B"))])
        collapsed, mapping = collapse_equivalences(o)
        assert mapping == {}
        assert collapsed is o
        assert OntologyIndex(o).superclass_edges == [
            ("A", "B", "equivalence axiom")]

    def test_cycle_through_a_union_member_and_a_conjunct_collapses(self):
        # Cell = or(DNA, Gene) makes DNA a subclass of Cell; the intersection
        # target makes Cell a subclass of DNA
        o = ont(classes=[ClassDefinition(n) for n in ("Cell", "DNA", "Gene")],
                axioms=[Axiom(SAME_CLASS, "Cell", ClassExpression(
                            "or", members=(named("DNA"), named("Gene")))),
                        Axiom(SUBCLASS, "Cell", ClassExpression(
                            "and", members=(named("DNA"), named("Gene"))))])
        _, mapping = collapse_equivalences(o)
        assert mapping == {"DNA": "Cell", "Gene": "Cell"}

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(subclass_graphs(), ontologies_with_cycles()))
    def test_alias_map_matches_reachability_oracle(self, o):
        _, mapping = collapse_equivalences(o)
        assert mapping == oracle_alias_map(o)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(subclass_graphs(), ontologies_with_cycles()))
    def test_collapsed_graph_is_acyclic_and_idempotent(self, o):
        collapsed, _ = collapse_equivalences(o)
        assert oracle_alias_map(collapsed) == {}
        again, extra = collapse_equivalences(collapsed)
        assert again == collapsed
        assert extra == {}

    @settings(max_examples=100, deadline=None)
    @given(ontologies())
    def test_no_alias_survives_and_validity_preserved(self, o):
        collapsed, mapping = collapse_equivalences(o)
        assert not (set(mapping) & all_names_in_use(collapsed))
        assert validate_ontology(collapsed) == []


# --------------------------------------------------------------------------
# inherited-feature resolution


def chain_fixture():
    """Macromolecule <- Protein <- Enzyme with one property and one
    restriction per level."""
    return ont(
        classes=[
            ClassDefinition("Macromolecule", local_restrictions=(
                Restriction("mass", "exactly", count=1),)),
            ClassDefinition("Protein"),
            ClassDefinition("Enzyme", local_restrictions=(
                Restriction("catalyses", "some", target=named("Reaction")),)),
            ClassDefinition("Reaction"),
        ],
        properties=[
            PropertyDefinition("mass", "datatype", domains=("Macromolecule",),
                               range="decimal"),
            PropertyDefinition("accession", "datatype", domains=("Protein",),
                               range="string"),
            PropertyDefinition("catalyses", "object", domains=("Enzyme",),
                               range="Reaction"),
        ],
        axioms=[Axiom(SUBCLASS, "Protein", named("Macromolecule")),
                Axiom(SUBCLASS, "Enzyme", named("Protein"))],
    )


def reference_ancestors(index, cls):
    """The per-class breadth-first search `ancestors` replaced, over the
    index's own superclass edges."""
    supers = {}
    for sub, sup, _ in index.superclass_edges:
        supers.setdefault(sub, []).append(sup)
    seen = []
    queue = deque(supers.get(cls, ()))
    visited = {cls}
    while queue:
        nxt = queue.popleft()
        if nxt in visited:
            continue
        visited.add(nxt)
        seen.append(nxt)
        queue.extend(supers.get(nxt, ()))
    return set(seen)


class TestOntologyIndex:
    def test_attached_properties_domains_first_each_once(self):
        o = chain_fixture()
        mass = o.properties[0]._replace(domains=("Macromolecule", "Gene"))
        index = OntologyIndex(o._replace(
            classes=o.classes + (ClassDefinition("Gene", local_restrictions=(
                Restriction("catalyses", "some", target=named("Reaction")),
                Restriction("undeclared", "min", count=1),
                Restriction("catalyses", "max", count=2),
                Restriction("mass", "max", count=1))),),
            properties=(mass,) + o.properties[1:]))
        assert index.attached_properties("Macromolecule") == ("mass",)
        assert index.attached_properties("Protein") == ("accession",)
        assert index.attached_properties("Enzyme") == ("catalyses",)
        assert index.attached_properties("Gene") == ("mass", "catalyses")

    def test_lookups_raise_key_error_on_undeclared_names(self):
        index = OntologyIndex(chain_fixture())
        with pytest.raises(KeyError):
            index.direct_restrictions("Nothing")
        with pytest.raises(KeyError):
            index.attached_properties("Nothing")

    def test_cyclic_graph_terminates(self):
        o = ont(classes=[ClassDefinition("A"), ClassDefinition("B")],
                axioms=[Axiom(SUBCLASS, "A", named("B")),
                        Axiom(SUBCLASS, "B", named("A"))])
        index = OntologyIndex(o)
        assert set(index.ancestors("A")) == {"B"}
        assert set(index.ancestors("B")) == {"A"}

    def test_cycle_under_a_diamond(self):
        # Bottom < Left, Right < Top, and A = B = C (a same-class cycle,
        # which the index sees uncollapsed) below Bottom
        o = ont(classes=[ClassDefinition(n) for n in
                         ("Top", "Left", "Right", "Bottom", "A", "B", "C")],
                axioms=[Axiom(SUBCLASS, "Left", named("Top")),
                        Axiom(SUBCLASS, "Right", named("Top")),
                        Axiom(SUBCLASS, "Bottom", named("Left")),
                        Axiom(SUBCLASS, "Bottom", named("Right")),
                        Axiom(SAME_CLASS, "A", named("B")),
                        Axiom(SAME_CLASS, "B", named("C")),
                        Axiom(SAME_CLASS, "C", named("A")),
                        Axiom(SUBCLASS, "A", named("Bottom"))])
        index = OntologyIndex(o)
        diamond = {"Bottom", "Left", "Right", "Top"}
        for cls in ("A", "B", "C"):
            above = index.ancestors(cls)
            assert set(above) == {"A", "B", "C"} - {cls} | diamond
            assert len(above) == 6
        assert sorted(index.ancestors("Bottom")) == ["Left", "Right", "Top"]
        assert index.ancestors("Left") == ("Top",)
        assert index.ancestors("Top") == ()

    @settings(max_examples=200, deadline=None)
    @given(ontologies_with_cycles())
    def test_matches_per_class_search(self, o):
        index = OntologyIndex(o)
        for c in o.classes:
            expected = reference_ancestors(index, c.name)
            assert set(index.ancestors(c.name)) == expected, c.name
            assert len(index.ancestors(c.name)) == len(expected), c.name

