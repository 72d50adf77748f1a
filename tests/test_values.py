"""Value classes stay frozen and take no per-instance dict, and the
normalizing stages keep as the same object every value they leave
unchanged."""

import gc

import pytest

from ont2cm import bww, cot, damlxml, model, ontology, transform
from ont2cm.model import MANY, Attribute, EntityType, canonical_order
from ont2cm.ontology import (
    OntologyIndex,
    collapse_equivalences,
    hoist_axiom_restrictions,
)
from ont2cm.transform import merged_multiplicity

# every value class is a NamedTuple: a tuple subclass with `_fields`
VALUE_CLASSES = [
    obj for module in (ontology, model, bww, transform, damlxml)
    for obj in vars(module).values()
    if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
    and obj.__module__ == module.__name__]


def test_every_value_module_is_seen():
    assert {cls.__module__.rpartition(".")[2] for cls in VALUE_CLASSES} \
        == {"ontology", "model", "bww", "transform", "damlxml"}
    assert len(VALUE_CLASSES) == 25


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
    ordered = EntityType("et:A", "A", "A", "kind", "primitive", (
        Attribute("a", "string", mult, "a"), Attribute("b", "string", mult, "b")))
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
        assert merged_multiplicity(index, cls, prop) is MANY
