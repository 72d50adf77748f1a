"""Value classes stay frozen and take no per-instance dict, the
normalizing stages keep as the same object every value they leave
unchanged, equal values a document repeats are built once, and the
pipeline holds little beside what it keeps."""

import gc
import sys
import tracemalloc

import pytest

from ont2cm import bww, cot, damlxml, model, ontology, transform
from ont2cm.model import MANY, Attribute, EntityType, canonical_order
from ont2cm.ontology import (
    OntologyIndex,
    collapse_equivalences,
    hoist_axiom_restrictions,
)
from ont2cm.transform import derive_model, merged_multiplicity

from test_cli import flat_cot
from test_daml import doc
from test_transform import chain

# every value class is a NamedTuple: a tuple subclass with `_fields`
VALUE_CLASSES = [
    obj for module in (ontology, model, bww, transform, damlxml)
    for obj in vars(module).values()
    if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
    and obj.__module__ == module.__name__]


def test_every_value_module_is_seen():
    assert {cls.__module__.rpartition(".")[2] for cls in VALUE_CLASSES} \
        == {"ontology", "model", "bww", "transform", "damlxml"}
    assert len(VALUE_CLASSES) == 22


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_frozen_and_slotted(cls):
    assert "__slots__" in vars(cls)
    # NamedTuples do not check field types
    value = cls(*(None for f in cls._fields if f not in cls._field_defaults))
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], "changed")
    # the collector untracks an exact tuple of atomic items, never a tuple
    # subclass, so counting values through gc.get_objects() finds them all
    gc.collect()
    assert gc.is_tracked(value)


def test_hoist_keeps_unrestricted_classes():
    ont = cot.parse("ontology t\nclass A\nclass B\nclass C\nobjprop p\n"
                    "restriction B p some C\n"
                    "subclass A restriction(p, some, B)\n")
    hoisted = hoist_axiom_restrictions(ont)
    assert hoisted.classes[0] is not ont.classes[0]
    assert hoisted.classes[0].local_restrictions[-1].target.name == "B"
    assert hoisted.classes[1] is ont.classes[1]
    assert hoisted.classes[2] is ont.classes[2]
    assert hoisted.properties is ont.properties


def test_collapse_keeps_what_the_alias_map_leaves_unchanged():
    ont = cot.parse("ontology t\nclass A\nclass B\nclass C\nclass D\n"
                    "objprop p domain C range D\nobjprop q domain B\n"
                    "subclass A B\nsubclass B A\nsubclass C D\n"
                    "restriction B q some C\nrestriction C p some D\n"
                    "restriction D p only B\n"
                    "individual i type C\nindividual j type B\n")
    collapsed, aliases = collapse_equivalences(ont)
    assert aliases == {"B": "A"}
    classes = {c.name: c for c in collapsed.classes}
    assert classes.keys() == {"A", "C", "D"}
    assert classes["C"] is ont.classes[2]
    assert classes["A"].local_restrictions == ont.classes[1].local_restrictions
    assert classes["D"].local_restrictions[0].target.name == "A"
    assert collapsed.properties[0] is ont.properties[0]
    assert collapsed.properties[1] is not ont.properties[1]
    assert collapsed.properties[1].domains == ("A",)
    assert collapsed.individuals[0] is ont.individuals[0]
    assert collapsed.individuals[1] is not ont.individuals[1]
    assert collapsed.axioms[-1] is ont.axioms[-1]


def test_canonical_order_keeps_an_ordered_entity_type():
    mult = model.Multiplicity(1, 1)
    ordered = EntityType("et:A", "A", "kind", "primitive", (
        Attribute("a", "string", mult), Attribute("b", "string", mult)))
    shuffled = ordered._replace(id="et:B", name="B",
                                attributes=ordered.attributes[::-1])
    result = canonical_order(model.ConceptualModel("m", (shuffled, ordered)))
    assert result.entity_types[0] is ordered
    assert result.entity_types[1] == shuffled._replace(
        attributes=ordered.attributes)


def test_open_bound_is_the_shared_many():
    ont = cot.parse("ontology t\nclass A\nclass B\nobjprop p domain A\n"
                    "objprop q\nrestriction B q min 0\n"
                    "restriction B p some A\nsubclass B A\n")
    index = OntologyIndex(ont)
    for cls, prop in (("A", "p"), ("B", "p"), ("B", "q")):
        assert merged_multiplicity(index, cls, prop, {}) is MANY


def expressions(ont):
    """Every class expression the ontology holds, nested ones included."""
    stack = [c.definition for c in ont.classes if c.definition is not None]
    stack += [r.target for c in ont.classes for r in c.local_restrictions
              if r.target is not None]
    stack += [ax.target for ax in ont.axioms]
    stack += [t for ind in ont.individuals for t in ind.types]
    while stack:
        expr = stack.pop()
        yield expr
        stack.extend(expr.members)
        if expr.restriction is not None and expr.restriction.target is not None:
            stack.append(expr.restriction.target)


def assert_one_term_per_name(ont):
    terms = {}
    for expr in expressions(ont):
        if expr.op == "named":
            terms.setdefault(expr.name, set()).add(id(expr))
    assert terms and all(len(ids) == 1 for ids in terms.values()), terms


def test_parse_builds_one_term_per_class_and_one_tuple_per_domain_list():
    ont = cot.parse("ontology t\nclass A\nclass B\nclass C\n"
                    "objprop p domain A, B range C\ndataprop d domain A,B\n"
                    "objprop q domain A\ndataprop e domain A\n"
                    "restriction A p some B\nrestriction B p only B\n"
                    "restriction C p some or(A, B)\n"
                    "subclass A B\nsame-class C and(A, not(B))\ndisjoint A B\n"
                    "defined-class D = and(B, restriction(p, some, B))\n"
                    "individual i type B\nindividual j type A, not(B)\n")
    assert_one_term_per_name(ont)
    p, d, q, e = ont.properties
    assert p.domains is d.domains
    assert q.domains is e.domains


def test_import_builds_one_term_per_class():
    ont = damlxml.import_daml(doc("""
      <daml:Class rdf:ID="A">
        <rdfs:subClassOf rdf:resource="#B"/>
        <daml:disjointWith rdf:resource="#C"/>
        <rdfs:subClassOf><daml:Restriction>
          <daml:onProperty rdf:resource="#p"/>
          <daml:hasClass rdf:resource="#B"/>
        </daml:Restriction></rdfs:subClassOf>
      </daml:Class>
      <daml:Class rdf:ID="B">
        <daml:sameClassAs rdf:resource="#C"/>
        <rdfs:subClassOf><daml:Class>
          <daml:complementOf rdf:resource="#A"/>
        </daml:Class></rdfs:subClassOf>
      </daml:Class>
      <daml:Class rdf:ID="C">
        <daml:unionOf rdf:parseType="daml:collection">
          <daml:Class rdf:about="#A"/><daml:Class rdf:about="#B"/>
        </daml:unionOf>
      </daml:Class>
      <daml:ObjectProperty rdf:ID="p"/>
      <rdf:Description rdf:ID="i"><rdf:type rdf:resource="#B"/></rdf:Description>
      <A rdf:ID="j"><rdf:type rdf:resource="#C"/></A>
    """)).ontology
    assert_one_term_per_name(ont)
    assert len(list(expressions(ont))) > 3 * len(ont.classes)


def test_parsing_interns_no_name():
    # the front ends share equal names through the document's own table,
    # so a name is not the object the interpreter's intern table gives
    cot_ont = cot.parse("ontology t\nclass Zymogen\nobjprop cleaves domain Zymogen\n"
                        "defined-class Trypsin = and(Zymogen, "
                        "restriction(cleaves, some, Zymogen))\n")
    daml_ont = damlxml.import_daml(doc("""
      <daml:Class rdf:ID="Zymogen"/>
      <daml:Class rdf:ID="Trypsin"><rdfs:subClassOf rdf:resource="#Zymogen"/></daml:Class>
      <daml:ObjectProperty rdf:ID="cleaves"><rdfs:domain rdf:resource="#Zymogen"/>
      </daml:ObjectProperty>
    """)).ontology
    for ont in (cot_ont, daml_ont):
        names = [c.name for c in ont.classes] + [p.name for p in ont.properties]
        assert len(names) == 3
        for name in names:
            assert sys.intern(name.encode().decode()) is not name, name


def test_a_class_without_stated_restrictions_keeps_its_own_tuple():
    ont = cot.parse("ontology t\nclass A\nclass B\nobjprop p\n"
                    "restriction A p some B\nrestriction B p some A\n"
                    "subclass B restriction(p, only, A)\n")
    index = OntologyIndex(ont)
    a, b = ont.classes
    assert index.direct_restrictions("A") is a.local_restrictions
    assert index.direct_restrictions("B") == (
        *b.local_restrictions, ont.axioms[0].target.restriction)


def test_one_multiplicity_per_distinct_bound():
    model, *_ = derive_model(cot.parse(flat_cot(40)))
    bounds = [a.multiplicity for et in model.entity_types for a in et.attributes]
    bounds += [m for r in model.relationships for m in (r.source_mult, r.target_mult)]
    assert len({id(m) for m in bounds}) == len(set(bounds)) == 6


def traced(call, *args) -> tuple[int, int]:
    """The traced memory `call(*args)` keeps in its result, and its traced
    peak."""
    tracemalloc.start()
    try:
        result = call(*args)  # noqa: F841 (kept alive while measured)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_parse_holds_no_list_of_all_lines():
    text = flat_cot(2000)
    kept, peak = traced(cot.parse, text)
    assert peak - kept < 3 * len(text), (peak, kept, len(text))


def test_derive_model_holds_little_beside_its_result():
    # no per-property scaffolding or copied restriction lists live at the
    # peak, so it exceeds what the call returns by less than half
    kept, peak = traced(derive_model, cot.parse(flat_cot(2000)))
    assert peak - kept < kept / 2, (peak, kept)


def test_the_index_keeps_no_wide_int_per_name():
    # On a 2000-class chain the index keeps 2.5-2.7 MiB, peaking at
    # 3.1-3.3, and derive_model peaks at 3.7-4.0 MiB (Python 3.10-3.13).
    # An int `1 << pos` kept per superclass and per property, and a mask of
    # each superclass's own occurrences held through the build, take these
    # to 3.0-3.2, 4.1-4.4 and 4.4-4.7 MiB.
    ont = chain([f"C{k:05d}" for k in range(2000)])
    kept, peak = traced(OntologyIndex, ont)
    assert kept < 2900 * 1024 and peak < 3800 * 1024, (kept, peak)
    _, peak = traced(derive_model, ont)
    assert peak < 4300 * 1024, peak
