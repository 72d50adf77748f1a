"""Hypothesis strategies shared by the test modules.

Ontologies are valid by construction: every referenced class and property is
declared, counts are non-negative. A class is defined by drawing it a
definition; nothing else marks it. Tests that need broken input build it by
hand.
"""

from __future__ import annotations

from hypothesis import strategies as st

from ont2cm.ontology import (
    DATATYPES,
    OBJECT,
    DATATYPE,
    SUBCLASS,
    SAME_CLASS,
    DISJOINT,
    Axiom,
    ClassDefinition,
    ClassExpression,
    Individual,
    Ontology,
    PropertyDefinition,
    Restriction,
    named,
    restriction_expr,
)

CLASS_POOL = ["Cell", "DNA", "Enzyme", "Gene", "Protein", "RNA", "Reaction", "Substrate"]
PROP_POOL = ["binds", "catalyses", "has_part", "name", "part_of", "regulates"]
INDIVIDUAL_POOL = ["p53", "insulin", "lacZ", "atp"]


def class_exprs(class_names, prop_names, depth=2):
    base = st.sampled_from(class_names).map(named)
    if depth == 0:
        return base

    def extend(sub):
        unions = st.lists(sub, min_size=2, max_size=3).map(
            lambda ms: ClassExpression("or", members=tuple(ms)))
        options = [
            base,
            st.lists(sub, min_size=2, max_size=3).map(
                lambda ms: ClassExpression("and", members=tuple(ms))),
            unions,
            # a union directly in a union, which every reader must flatten
            st.tuples(sub, unions).map(
                lambda ms: ClassExpression("or", members=ms)),
            sub.map(lambda m: ClassExpression("not", members=(m,))),
        ]
        if prop_names:
            options.append(restrictions(class_names, prop_names, sub).map(restriction_expr))
        return st.one_of(options)

    return st.recursive(base, extend, max_leaves=4)


def restrictions(class_names, prop_names, target_strategy=None):
    if target_strategy is None:
        target_strategy = st.sampled_from(class_names).map(named)
    class_flavored = st.builds(
        Restriction,
        on_property=st.sampled_from(prop_names),
        flavor=st.sampled_from(["some", "only"]),
        target=target_strategy,
        count=st.none(),
    )
    counted = st.builds(
        Restriction,
        on_property=st.sampled_from(prop_names),
        flavor=st.sampled_from(["min", "max", "exactly"]),
        target=st.none(),
        count=st.integers(0, 4),
    )
    return st.one_of(class_flavored, counted)


@st.composite
def ontologies(draw):
    class_names = draw(st.lists(st.sampled_from(CLASS_POOL),
                                unique=True, min_size=1, max_size=8))
    prop_names = draw(st.lists(st.sampled_from(PROP_POOL),
                               unique=True, min_size=0, max_size=6))

    properties = []
    for name in prop_names:
        category = draw(st.sampled_from([OBJECT, DATATYPE]))
        domains = tuple(draw(st.lists(st.sampled_from(class_names),
                                      unique=True, max_size=2)))
        if category == OBJECT:
            rng = draw(st.one_of(st.none(), st.sampled_from(class_names)))
        else:
            rng = draw(st.one_of(st.none(), st.sampled_from(DATATYPES)))
        properties.append(PropertyDefinition(name, category, domains=domains, range=rng))

    exprs = class_exprs(class_names, prop_names)

    classes = []
    for name in class_names:
        if len(class_names) > 1 and draw(st.booleans()) and draw(st.booleans()):
            classes.append(ClassDefinition(name, definition=draw(exprs)))
        else:
            local = ()
            if prop_names and draw(st.booleans()):
                local = tuple(draw(st.lists(restrictions(class_names, prop_names, exprs),
                                            min_size=1, max_size=2)))
            classes.append(ClassDefinition(name, local_restrictions=local))

    axioms = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from([SUBCLASS, SUBCLASS, SAME_CLASS, DISJOINT]))
        subject = draw(st.sampled_from(class_names))
        if kind == DISJOINT:
            axioms.append(Axiom(DISJOINT, subject,
                                named(draw(st.sampled_from(class_names)))))
        else:
            axioms.append(Axiom(kind, subject, draw(exprs)))

    individuals = []
    for name in draw(st.lists(st.sampled_from(INDIVIDUAL_POOL),
                              unique=True, max_size=3)):
        types = tuple(draw(st.lists(exprs, min_size=1, max_size=2)))
        individuals.append(Individual(name, types=types))

    return Ontology("generated", classes=tuple(classes),
                    properties=tuple(properties), axioms=tuple(axioms),
                    individuals=tuple(individuals))


@st.composite
def subclass_graphs(draw):
    """Ontologies that are just classes plus dense subclass edges, for
    exercising cycle collapse."""
    class_names = draw(st.lists(st.sampled_from(CLASS_POOL),
                                unique=True, min_size=2, max_size=6))
    axioms = []
    for _ in range(draw(st.integers(0, 10))):
        sub = draw(st.sampled_from(class_names))
        sup = draw(st.sampled_from(class_names))
        axioms.append(Axiom(SUBCLASS, sub, named(sup)))
    classes = tuple(ClassDefinition(n) for n in class_names)
    return Ontology("graph", classes=classes, axioms=tuple(axioms))
