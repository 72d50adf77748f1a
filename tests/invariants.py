"""Model invariants shared by the unit and acceptance property tests.

Checked against the pipeline's input after an independent recomputation of
the normalization steps, so the transformation itself stays the unit under
test.
"""

from __future__ import annotations

from ont2cm.emit import FLAG_KINDS
from ont2cm.model import COMPOSITION, check_model
from ont2cm.ontology import (
    DEFINED,
    collapse_equivalences,
    hoist_axiom_restrictions,
)

from lookups import flags_of


def assert_model_invariants(ont, model, report, config=None) -> None:
    collapsed, _ = collapse_equivalences(hoist_axiom_restrictions(ont))

    # classes and entity types correspond one to one
    assert sorted(et.name for et in model.entity_types) == \
        sorted(c.name for c in collapsed.classes)
    assert len({et.id for et in model.entity_types}) == len(model.entity_types)

    # an entity type is defined exactly when its class has a definition
    has_definition = {c.name: c.definition is not None for c in collapsed.classes}
    for et in model.entity_types:
        assert (et.definition_kind == DEFINED) == has_definition[et.name], et.id

    # structural closure: ids resolve, generalizations acyclic, groups sane
    assert check_model(model) == []

    # every property is carried over or flagged as dropped, never both
    attr_names = {a.name for et in model.entity_types for a in et.attributes}
    rel_names = {r.name for r in model.relationships}
    dropped = {i.subject for i in flags_of(report, "droppedProperty")}
    for p in collapsed.properties:
        carried = p.name in attr_names or p.name in rel_names
        assert carried != (p.name in dropped), p.name

    # every flag is of a kind the review report has a section for, so the
    # report renders it rather than leave it out
    unlisted = {i.kind for i in report.items} - set(FLAG_KINDS)
    assert not unlisted, unlisted

    # exclusive markers and flags agree one to one
    exclusive_ids = {r.id for r in model.relationships if r.exclusive}
    flagged_ids = {i.subject for i in flags_of(report, "exclusiveRelation")}
    assert exclusive_ids == flagged_ids

    # a multiplicity is flagged unsatisfiable exactly where an attribute or
    # a relationship target carries crossed bounds, once per class.property
    names = {et.id: et.name for et in model.entity_types}
    crossed = {f"{et.name}.{a.name}" for et in model.entity_types
               for a in et.attributes if a.multiplicity.unsatisfiable}
    crossed.update(f"{names[r.source_id]}.{r.name}" for r in model.relationships
                   if r.target_mult.unsatisfiable)
    assert {i.subject for i in flags_of(report, "unsatisfiableMultiplicity")} == crossed

    # a composition's part has no other relationship
    for r in model.relationships:
        if r.kind != COMPOSITION:
            continue
        part = r.target_id if r.whole == r.source_id else r.source_id
        touches = [x for x in model.relationships
                   if part in (x.source_id, x.target_id)]
        assert touches == [r], r.id
