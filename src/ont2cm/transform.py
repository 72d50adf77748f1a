"""Ontology-to-model transformation.

`transform` runs these stages in order, each a function returning what it
builds; every class becomes an entity type first:
  - attributes: datatype properties become attributes at the classes that
    declare them as domain or restrict them directly; a class target of
    such a restriction is flagged
  - generalizations: `OntologyIndex.superclass_edges`, each pair once;
    `collapse_equivalences` has already folded every cycle of those edges,
    so they form no cycle. Unions these edges cannot carry are flagged; a
    union a class is defined as or same as becomes an or-group
  - relationships: object properties become relationships at each class
    that is a domain or direct restriction site; targets come from that
    class's direct some/only restrictions, falling back to the declared
    range. Cardinality restrictions tighten the target multiplicity;
    universal restrictions mark the relationship exclusive; and/or target
    pools become and/or groups
  - whole-part: whole-part naming upgrades a relationship to composition
    when the part joins nothing else, aggregation otherwise
  - disjointness: disjoint pairs become disjoint groups, which join the
    or-groups and the and/or groups as the model's constraints
  - instances: individuals become instances linked to their named types
  - diagnostics: collapsed equivalences, multi-domain properties,
    complements, import skips and entities no property reaches

A property that maps to nothing is flagged by the stage that maps its
category, attributes or relationships; one of neither category is
flagged by `transform` itself.

Every stage takes an intersection apart with `ontology.conjuncts` and a
union with `ontology.disjuncts`, nested ones flattened. The superclass
statements, and the terms each asserts, come from the walk the index
shares, `ontology.superclass_statements`. A union restriction target gives
its disjuncts, any other target its conjuncts. A named term is a
superclass or subclass, a relationship target or an instance type; a
union among conjuncts is flagged.

Anything that cannot be carried over is flagged for specialist review
rather than silently dropped.
"""

from __future__ import annotations

from typing import NamedTuple

from .bww import BwwReport, classify
from .model import (
    AGGREGATION,
    AND_GROUP,
    COMPOSITION,
    DISJOINT_GROUP,
    MANY,
    OR_GROUP,
    Attribute,
    ConceptualModel,
    EntityType,
    Generalization,
    Instance,
    Multiplicity,
    Relationship,
    SemanticConstraint,
    canonical_order,
    entity_id,
    relationship_id,
)
from .ontology import (
    CARDINALITY_FLAVORS,
    CLASS_FLAVORS,
    DATATYPE,
    DATATYPES,
    DEFINED,
    DISJOINT,
    EDGE_SOURCES,
    EXACTLY,
    MAX,
    MIN,
    OBJECT,
    ONLY,
    PRIMITIVE,
    SOME,
    Finding,
    Ontology,
    OntologyIndex,
    conjuncts,
    disjuncts,
    format_expr,
    normalize,
    outermost_complements,
    superclass_statements,
)

# whole-part tokens, compared after normalize_token
_COMPOSITION_TOKENS = frozenset({
    "partof", "componentof", "has", "haspart", "contains", "composedof"})

# tokens whose subject is the whole; for the others the subject is the part
_WHOLE_AT_SOURCE = frozenset({"has", "haspart", "contains", "composedof"})

# the flag of a property that maps to nothing and is not an object property
_NO_ATTRIBUTE = ("no attribute could be derived: the property has no domain "
                 "and no class restricts it")

class TransformConfig(NamedTuple):
    composition_heuristics: bool = True
    include_instances: bool = True


class ValidationReport(NamedTuple):
    items: tuple[Finding, ...] = ()
    notes: tuple[str, ...] = ()


def normalize_token(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "")


def merged_multiplicity(index: OntologyIndex, cls: str, prop: str,
                        bounds: dict[Multiplicity, Multiplicity]) -> Multiplicity:
    """Fold cardinality restrictions on (cls, prop) into one bound. Direct
    restrictions win over inherited ones; with neither the bound stays at
    the open default (0, unbounded), the shared `MANY`. Any other bound is
    the first equal one in `bounds`, so the calls sharing `bounds` return
    one object per distinct bound."""
    picked = [r for r in index.direct_restrictions(cls)
              if r.on_property == prop and r.flavor in CARDINALITY_FLAVORS]
    if not picked:
        picked = index.inherited_cardinalities(cls, prop)
    lower, upper = 0, None
    for r in picked:
        if r.flavor in (MIN, EXACTLY):
            lower = max(lower, r.count)
        if r.flavor in (MAX, EXACTLY):
            upper = r.count if upper is None else min(upper, r.count)
    if upper is None and lower == 0:
        return MANY
    mult = Multiplicity(lower, upper)
    return bounds.setdefault(mult, mult)


class _Findings:
    """What the stages find: review flags and notes as they raise them,
    the report keeping the first of each repeat. Also the merged bounds so
    far, for `merged_multiplicity`."""

    def __init__(self) -> None:
        self.flags: list[Finding] = []
        self.notes: list[str] = []
        self.bounds: dict[Multiplicity, Multiplicity] = {}

    def flag(self, kind: str, subject: str, message: str) -> None:
        self.flags.append(Finding(kind, subject, message))

    def report(self) -> ValidationReport:
        return ValidationReport(tuple(dict.fromkeys(self.flags)),
                                tuple(dict.fromkeys(self.notes)))


def _bounded(index: OntologyIndex, found: _Findings, cls: str,
             prop: str) -> Multiplicity:
    mult = merged_multiplicity(index, cls, prop, found.bounds)
    if mult.unsatisfiable:
        found.flag("unsatisfiableMultiplicity", f"{cls}.{prop}",
                   f"merged bounds ({mult.lower}, {mult.upper}) cannot be met")
    return mult


def _entity_types(ont: Ontology, index: OntologyIndex,
                  sites: dict[str, list[str]], entity_ids: dict[str, str],
                  categories: dict[str, str],
                  found: _Findings) -> tuple[EntityType, ...]:
    """One entity type per class, with an attribute for each datatype
    property attached to it; a class target restricting the property is
    flagged there. Takes the datatype properties' sites out of `sites`."""
    attributes: dict[str, list[Attribute]] = {c.name: [] for c in ont.classes}
    for p in ont.properties:
        if p.category != DATATYPE:
            continue
        datatype = p.range if p.range in DATATYPES else "string"
        p_sites = sites.pop(p.name)
        if not p_sites:
            found.flag("droppedProperty", p.name, _NO_ATTRIBUTE)
        for site in p_sites:
            attributes[site].append(Attribute(
                p.name, datatype, _bounded(index, found, site, p.name)))
            for r in index.direct_restrictions(site):
                if r.on_property == p.name and r.flavor in CLASS_FLAVORS:
                    found.flag("unmappedConstruct", f"restriction {site}.{p.name}",
                               f"{r.flavor} target {format_expr(r.target)} of a "
                               "datatype property has no direct mapping")
    return tuple(
        EntityType(entity_ids[cls.name], cls.name, categories[cls.name],
                   PRIMITIVE if cls.definition is None else DEFINED,
                   tuple(attributes[cls.name]))
        for cls in ont.classes)


def _generalizations(ont: Ontology, index: OntologyIndex,
                     entity_ids: dict[str, str], found: _Findings
                     ) -> tuple[tuple[Generalization, ...],
                                dict[str, SemanticConstraint]]:
    """One generalization per superclass edge pair, noting the pairs
    asserted more than one way. Also flag the unions an edge cannot carry
    and give each distinct member set of a union on the right of a
    same-class axiom or a definition an or-group, by id. A subject's groups
    go in member order: `con:union:X`, then `con:union:X:2` and so on."""
    unions: dict[str, set[tuple[str, ...]]] = {}  # subject -> member sets
    for kind, subject, expr, source, terms in superclass_statements(ont):
        site = (f"class {subject} definition" if kind == "definition"
                else f"axiom {kind} {subject}")
        if source == "union membership":
            for m in terms:
                if m.op not in ("named", "not"):
                    found.flag("unmappedConstruct", site,
                               f"union member {format_expr(m)} has no direct mapping")
            member_ids = {entity_ids[m.name] for m in terms
                          if m.op == "named" and m.name in entity_ids}
            if len(member_ids) >= 2:
                unions.setdefault(subject, set()).add(tuple(sorted(member_ids)))
            found.notes.append(f"{site}: union definition; members recorded as "
                               f"subtypes of {subject}, review the or-group")
        elif expr.op == "or":
            found.flag("unmappedConstruct", site,
                       f"union supertype {format_expr(expr)} has no direct mapping")
        else:
            for term in terms:
                if term.op == "or":
                    found.flag("unmappedConstruct", site, f"union expression "
                               f"{format_expr(term)} has no direct mapping here")

    # a pair's first source, or the set of its sources once it has two
    gen_sources: dict[tuple[str, str], str | set[str]] = {}
    for sub, sup, source in index.superclass_edges:
        first = gen_sources.setdefault((sub, sup), source)
        if first != source:
            if type(first) is str:
                first = gen_sources[sub, sup] = {first}
            first.add(source)
    for (sub, sup), sources in gen_sources.items():
        if type(sources) is set:
            found.notes.append(
                f"generalization {sub} -> {sup} asserted more than one way: "
                + ", ".join(sorted(sources, key=EDGE_SOURCES.index)))
    generalizations = tuple(Generalization(entity_ids[sub], entity_ids[sup])
                            for sub, sup in gen_sources)
    union_groups: dict[str, SemanticConstraint] = {}
    for subject, member_sets in unions.items():
        for n, members in enumerate(sorted(member_sets), 1):
            cid = f"con:union:{subject}" if n == 1 else f"con:union:{subject}:{n}"
            union_groups[cid] = SemanticConstraint(cid, OR_GROUP, members)
    return generalizations, union_groups


def _relationships(ont: Ontology, index: OntologyIndex,
                   sites: dict[str, list[str]], entity_ids: dict[str, str],
                   found: _Findings
                   ) -> tuple[dict[str, Relationship],
                              dict[str, SemanticConstraint]]:
    """One relationship per (object property, site, target), by id, and
    each and/or group, by id. Each group joins the two or more targets of
    one and/or pool. Takes the object properties' sites out of `sites`."""
    relationships: dict[str, Relationship] = {}
    groups: dict[tuple[str, str], list[str]] = {}  # (id, kind) -> members
    for p in ont.properties:
        if p.category != OBJECT:
            continue
        before = len(relationships)
        for site in sites.pop(p.name):
            where = f"restriction {site}.{p.name}"
            specs: list[tuple[str, str | None, str | None]] = []
            for r in index.direct_restrictions(site):
                if r.on_property != p.name or r.flavor not in CLASS_FLAVORS:
                    continue
                t = r.target
                if t.op == "restriction":
                    found.flag("unmappedConstruct", where,
                               f"nested restriction target {format_expr(t)} has no direct mapping")
                    continue
                pool = "or" if t.op == "or" else "and" if r.flavor == SOME else None
                for term in disjuncts(t) if t.op == "or" else conjuncts(t):
                    if term.op == "named":
                        specs.append((term.name, r.flavor, pool))
                    elif term.op != "not":
                        found.flag("unmappedConstruct", where,
                                   f"target part {format_expr(term)} has no direct mapping")
            from_restriction = bool(specs)
            if not specs and p.range in entity_ids:
                specs.append((p.range, None, None))
            specs = [spec for spec in specs if spec[0] in entity_ids]
            if not specs:
                continue
            exclusive = {target for target, flavor, _ in specs if flavor == ONLY}
            # a target met in both kinds of pool joins the or-pool, so the
            # groups do not depend on statement order
            pool_of: dict[str, str] = {}
            for target, _, pool in specs:
                if pool is not None and pool_of.get(target) != "or":
                    pool_of[target] = pool
            ors = sum(pool == "or" for pool in pool_of.values())
            ands = len(pool_of) - ors

            mult = _bounded(index, found, site, p.name)
            for target in dict.fromkeys(spec[0] for spec in specs):
                pool = pool_of.get(target)
                rid = relationship_id(p.name, site, target)
                group_id = None
                if pool is not None and (ors if pool == "or" else ands) >= 2:
                    group_id = f"con:{pool}:{site}:{p.name}"
                    kind = AND_GROUP if pool == "and" else OR_GROUP
                    groups.setdefault((group_id, kind), []).append(rid)
                relationships[rid] = Relationship(
                    rid, p.name, entity_ids[site], entity_ids[target], MANY, mult,
                    exclusive=target in exclusive, group_id=group_id)
                if target in exclusive:
                    found.flag("exclusiveRelation", rid,
                               f"universal restriction on {site}.{p.name} "
                               f"admits only {target} targets")
                if (from_restriction and p.range is not None
                        and p.range != target
                        and not index.is_ancestor(p.range, target)
                        and not index.is_ancestor(target, p.range)):
                    found.notes.append(
                        f"property {p.name}: declared range {p.range} is "
                        f"unrelated to restriction target {target} on {site}")
        if len(relationships) == before:
            found.flag("droppedProperty", p.name,
                       "no relationship could be derived: the property needs a "
                       "domain or restriction site and a resolvable target")
    return relationships, {gid: SemanticConstraint(gid, kind, tuple(sorted(members)))
                           for (gid, kind), members in groups.items()}


def _whole_part(relationships: dict[str, Relationship], found: _Findings) -> None:
    """Upgrade whole-part names to composition when the part joins nothing
    else, to aggregation otherwise, in `relationships` itself."""
    participation: dict[str, int] = {}
    for rel in relationships.values():
        participation[rel.source_id] = participation.get(rel.source_id, 0) + 1
        if rel.target_id != rel.source_id:
            participation[rel.target_id] = participation.get(rel.target_id, 0) + 1
    for rid, rel in relationships.items():
        token = normalize_token(rel.name)
        if token not in _COMPOSITION_TOKENS:
            continue
        if rel.source_id == rel.target_id:
            found.notes.append(f"{rid}: whole-part naming on a "
                               "self-relationship ignored")
            continue
        if token in _WHOLE_AT_SOURCE:
            whole, part = rel.source_id, rel.target_id
        else:
            whole, part = rel.target_id, rel.source_id
        isolated = participation.get(part, 0) == 1
        relationships[rid] = rel._replace(
            kind=COMPOSITION if isolated else AGGREGATION, whole=whole)
        if isolated:
            found.flag("compositionCandidate", rid,
                       f"name marks {part} as a part of {whole} and nothing "
                       "else relates to the part")
        else:
            found.flag("aggregationCandidate", rid,
                       f"name marks {part} as a part of {whole} but the part "
                       "joins other relationships")


def _disjointness(ont: Ontology, entity_ids: dict[str, str],
                  found: _Findings) -> dict[str, SemanticConstraint]:
    """One disjoint group per pair of distinct classes, by id."""
    constraints: dict[str, SemanticConstraint] = {}
    for ax in ont.axioms:
        if ax.kind != DISJOINT or ax.target.op != "named":
            continue
        a, b = ax.subject, ax.target.name
        if a not in entity_ids or b not in entity_ids:
            continue
        if a == b:
            found.notes.append(f"disjoint {a} {a}: self-disjointness ignored")
            continue
        lo, hi = sorted((a, b))
        cid = f"con:disjoint:{lo}:{hi}"
        constraints.setdefault(cid, SemanticConstraint(
            cid, DISJOINT_GROUP, (entity_ids[lo], entity_ids[hi])))
    return constraints


def _instances(ont: Ontology, entity_ids: dict[str, str],
               found: _Findings) -> tuple[Instance, ...]:
    instances: list[Instance] = []
    for ind in ont.individuals:
        site = f"individual {ind.name}"
        type_ids: dict[str, None] = {}
        for t in ind.types:
            what = "type part" if t.op == "and" else "type"
            for term in conjuncts(t):
                if term.op == "named":
                    if term.name in entity_ids:
                        type_ids[entity_ids[term.name]] = None
                elif term.op != "not":
                    found.flag("unmappedConstruct", site,
                               f"{what} {format_expr(term)} has no direct mapping")
        instances.append(Instance(ind.name, tuple(sorted(type_ids))))
    return tuple(instances)


def _diagnostics(ont: Ontology, categories: dict[str, str], config: TransformConfig,
                 alias_map: dict[str, str] | None, import_report,
                 found: _Findings) -> None:
    if alias_map:
        by_rep: dict[str, list[str]] = {}
        for alias, rep in alias_map.items():
            by_rep.setdefault(rep, []).append(alias)
        for rep in sorted(by_rep):
            found.flag("equivalenceCollapsed", rep,
                       "absorbed equivalent class(es): " + ", ".join(sorted(by_rep[rep])))

    for p in ont.properties:
        if len(p.domains) >= 2:
            found.flag("multiDomainProperty", p.name,
                       "declared on several domains: " + ", ".join(p.domains))

    for site, expr in outermost_complements(ont):
        if site.startswith("individual ") and not config.include_instances:
            continue
        found.flag("unmappedConstruct", site,
                   f"complement expression {format_expr(expr)} has no mapping")

    if import_report is not None:
        for entry in import_report.skipped:
            found.flag("unmappedConstruct", entry.name,
                       f"{entry.count} element(s) skipped at import, "
                       f"first at {entry.first_location}")
        found.notes.extend(import_report.notes)

    for cls in ont.classes:
        if categories[cls.name] == "thingSet":
            found.flag("zeroPropertyEntity", cls.name,
                       "no property reaches this entity; check whether it should stay")


def transform(ont: Ontology, *, bww_report: BwwReport, index: OntologyIndex,
              config: TransformConfig | None = None,
              alias_map: dict[str, str] | None = None,
              import_report=None) -> tuple[ConceptualModel, ValidationReport]:
    """Map a validated, collapsed ontology to a conceptual model plus the
    review report, given the ontology's index and its grading. Deterministic:
    equal inputs give equal outputs. A superclass cycle left uncollapsed
    becomes a generalization cycle, which `check_model` reports."""
    if config is None:
        config = TransformConfig()

    found = _Findings()
    entity_ids = {cls.name: entity_id(cls.name) for cls in ont.classes}
    categories = {c.name: c.category for c in bww_report.concepts}
    # property attachment sites, in class declaration order per property;
    # the stages mapping the properties take them out as they go
    sites: dict[str, list[str]] = {p.name: [] for p in ont.properties}
    for cls in ont.classes:
        for name in index.attached_properties(cls.name):
            sites[name].append(cls.name)

    entity_types = _entity_types(ont, index, sites, entity_ids, categories, found)
    generalizations, union_groups = _generalizations(ont, index, entity_ids, found)
    relationships, groups = _relationships(ont, index, sites, entity_ids, found)
    # the sites left are those of properties of neither category, which
    # map to nothing; the table stays the size of a full one until freed
    for name in sites:
        found.flag("droppedProperty", name, _NO_ATTRIBUTE)
    del sites
    if config.composition_heuristics:
        _whole_part(relationships, found)
    constraints = {**union_groups, **groups, **_disjointness(ont, entity_ids, found)}
    if config.include_instances:
        instances = _instances(ont, entity_ids, found)
    else:
        instances = ()
        if ont.individuals:
            found.notes.append(f"{len(ont.individuals)} individual(s) excluded "
                               "by configuration")
    _diagnostics(ont, categories, config, alias_map, import_report, found)

    model = canonical_order(ConceptualModel(
        ont.name,
        entity_types=entity_types,
        relationships=tuple(relationships.values()),
        generalizations=generalizations,
        constraints=tuple(constraints.values()),
        instances=instances))
    return model, found.report()


def derive_model(ont: Ontology, config: TransformConfig | None = None,
                 import_report=None):
    """Full pipeline on a validated ontology: normalize it, grade the
    concepts, then transform. Returns (model, validation report, concept
    grading, alias map)."""
    collapsed, alias_map, index = normalize(ont)
    grading = classify(collapsed, index)
    model, report = transform(collapsed, bww_report=grading, config=config,
                              alias_map=alias_map, import_report=import_report,
                              index=index)
    return model, report, grading, alias_map
