"""Model invariants shared by the unit and acceptance property tests.

Checked against the pipeline's input after an independent recomputation of
the normalization steps, so the transformation itself stays the unit under
test.
"""

from __future__ import annotations

from ont2cm.emit import FLAG_KINDS
from ont2cm.model import COMPOSITION, check_model
from ont2cm.ontology import collapse_equivalences, hoist_axiom_restrictions


def assert_model_invariants(ont, model, report, config=None) -> None:
    collapsed, _ = collapse_equivalences(hoist_axiom_restrictions(ont))

    # classes and entity types correspond one to one
    assert sorted(et.origin_class for et in model.entity_types) == \
        sorted(c.name for c in collapsed.classes)
    assert len({et.id for et in model.entity_types}) == len(model.entity_types)

    # structural closure: ids resolve, generalizations acyclic, groups sane
    assert check_model(model) == []

    # every property is carried over or flagged as dropped, never both
    attr_origins = {a.origin_property
                    for et in model.entity_types for a in et.attributes}
    rel_names = {r.name for r in model.relationships}
    dropped = {i.subject for i in report.by_kind("droppedProperty")}
    for p in collapsed.properties:
        carried = p.name in attr_origins or p.name in rel_names
        assert carried != (p.name in dropped), p.name

    # every flag is of a kind the review report has a section for, so the
    # report renders it rather than leave it out
    unlisted = {i.kind for i in report.items} - set(FLAG_KINDS)
    assert not unlisted, unlisted

    # exclusive markers and flags agree one to one
    exclusive_ids = {r.id for r in model.relationships if r.exclusive}
    flagged_ids = {i.subject for i in report.by_kind("exclusiveRelation")}
    assert exclusive_ids == flagged_ids

    # a composition's part has no other relationship
    for r in model.relationships:
        if r.kind != COMPOSITION:
            continue
        part = r.target_id if r.whole == r.source_id else r.source_id
        touches = [x for x in model.relationships
                   if part in (x.source_id, x.target_id)]
        assert touches == [r], r.id
