"""Ontology-to-model transformation.

Mapping summary, applied in this order:
  - every class becomes an entity type
  - datatype properties become attributes at the classes that declare them
    as domain or restrict them directly
  - subclass/equivalence axioms and definition conjuncts become
    generalizations (equivalence and union definitions point the arrow at
    the defined class); edges that would close a cycle are skipped
  - object properties become relationships at each class that is a domain
    or direct restriction site; targets come from that class's direct
    some/only restrictions, falling back to the declared range
  - cardinality restrictions tighten the target multiplicity; universal
    restrictions mark the relationship exclusive
  - whole-part naming upgrades a relationship to composition when the part
    joins nothing else, aggregation otherwise
  - individuals become instances linked to their named types
  - disjointness and union membership become constraint groups

Anything that cannot be carried over is flagged for specialist review
rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bww import BwwReport, classify
from .cot import format_expr
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
    DISJOINT,
    EXACTLY,
    MAX,
    MIN,
    OBJECT,
    ONLY,
    SOME,
    SAME_CLASS,
    SUBCLASS,
    Ontology,
    OntologyIndex,
    _strongly_connected,
    collapse_equivalences,
    hoist_axiom_restrictions,
    iter_subexpressions,
    named_conjuncts,
)

# whole-part tokens, compared after normalize_token
_COMPOSITION_TOKENS = frozenset({
    "partof", "componentof", "has", "haspart", "contains", "composedof"})

# tokens whose subject is the whole; for the others the subject is the part
_WHOLE_AT_SOURCE = frozenset({"has", "haspart", "contains", "composedof"})

# closed vocabulary of review flags
FLAG_KINDS = (
    "droppedProperty",
    "unmappedConstruct",
    "exclusiveRelation",
    "compositionCandidate",
    "aggregationCandidate",
    "unsatisfiableMultiplicity",
    "equivalenceCollapsed",
    "multiDomainProperty",
    "zeroPropertyEntity",
)


@dataclass(frozen=True)
class TransformConfig:
    composition_heuristics: bool = True
    include_instances: bool = True


@dataclass(frozen=True)
class FlaggedItem:
    kind: str
    subject: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    items: tuple[FlaggedItem, ...] = ()
    notes: tuple[str, ...] = ()

    def by_kind(self, kind: str) -> tuple[FlaggedItem, ...]:
        return tuple(i for i in self.items if i.kind == kind)


def normalize_token(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "")


def merged_multiplicity(index: OntologyIndex, cls: str, prop: str) -> Multiplicity:
    """Fold cardinality restrictions on (cls, prop) into one bound. Direct
    restrictions win over inherited ones; with neither the bound stays at
    the open default (0, unbounded)."""
    picked = [r for r in index.direct_restrictions(cls)
              if r.on_property == prop and r.flavor in CARDINALITY_FLAVORS]
    if not picked:
        for sup in index.ancestors(cls):
            picked.extend(r for r in index.direct_restrictions(sup)
                          if r.on_property == prop and r.flavor in CARDINALITY_FLAVORS)
    lower, upper = 0, None
    for r in picked:
        if r.flavor in (MIN, EXACTLY):
            lower = max(lower, r.count)
        if r.flavor in (MAX, EXACTLY):
            upper = r.count if upper is None else min(upper, r.count)
    unsatisfiable = upper is not None and lower > upper
    return Multiplicity(lower, upper, unsatisfiable=unsatisfiable)


def insert_generalizations(candidates: list[tuple[str, str, str]]
                           ) -> tuple[dict[tuple[str, str], list[str]], list[str]]:
    """Insert (sub, sup, source) candidates one by one, skipping each edge
    that would close a cycle with the edges kept so far. Returns the sources
    of each kept pair, in insertion order, and a note per skipped edge.

    Only candidates whose ends share a strongly connected component of the
    whole candidate graph can close a cycle, and every path between two
    nodes of one component stays inside it. So the search for a closing
    path runs only there, and only inside that component.
    """
    candidate_edges: dict[str, list[str]] = {}
    for sub, sup, _ in candidates:
        candidate_edges.setdefault(sub, []).append(sup)
        candidate_edges.setdefault(sup, [])
    component = {node: n
                 for n, members in enumerate(_strongly_connected(candidate_edges))
                 for node in members}

    gen_edges: dict[str, set[str]] = {}
    gen_sources: dict[tuple[str, str], list[str]] = {}
    notes: list[str] = []

    def reaches(start: str, goal: str) -> bool:
        scope = component[start]
        seen, stack = set(), [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in gen_edges.get(node, ()):
                if nxt not in seen and component[nxt] == scope:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    for sub, sup, source in candidates:
        pair = (sub, sup)
        if pair in gen_sources:
            if source not in gen_sources[pair]:
                gen_sources[pair].append(source)
            continue
        if component[sub] == component[sup] and reaches(sup, sub):
            notes.append(f"generalization {sub} -> {sup} skipped: "
                         "it would close a cycle")
            continue
        gen_sources[pair] = [source]
        gen_edges.setdefault(sub, set()).add(sup)
    return gen_sources, notes


def transform(ont: Ontology, bww_report: BwwReport | None = None,
              config: TransformConfig | None = None,
              alias_map: dict[str, str] | None = None,
              import_report=None,
              index: OntologyIndex | None = None) -> tuple[ConceptualModel, ValidationReport]:
    """Map a validated ontology to a conceptual model plus the review
    report. Deterministic: equal inputs give equal outputs."""
    if config is None:
        config = TransformConfig()
    if index is None:
        index = OntologyIndex(ont)
    if bww_report is None:
        bww_report = classify(ont, index)

    flags: list[FlaggedItem] = []
    notes: list[str] = []

    def flag(kind: str, subject: str, detail: str) -> None:
        flags.append(FlaggedItem(kind, subject, detail))

    # ---- entity types
    entity_ids = {cls.name: entity_id(cls.name) for cls in ont.classes}

    # ---- property attachment sites, in class declaration order per property
    prop_sites: dict[str, list[str]] = {p.name: [] for p in ont.properties}
    for cls in ont.classes:
        for name in index.attached_properties(cls.name):
            prop_sites[name].append(cls.name)

    def bounded(cls_name: str, prop_name: str) -> Multiplicity:
        mult = merged_multiplicity(index, cls_name, prop_name)
        if mult.unsatisfiable:
            flag("unsatisfiableMultiplicity", f"{cls_name}.{prop_name}",
                 f"merged bounds ({mult.lower}, {mult.upper}) cannot be met")
        return mult

    # ---- attributes
    attributes: dict[str, list[Attribute]] = {c.name: [] for c in ont.classes}
    mapped: dict[str, bool] = {p.name: False for p in ont.properties}
    for p in ont.properties:
        if p.category != DATATYPE:
            continue
        datatype = p.range if p.range in DATATYPES else "string"
        for site in prop_sites[p.name]:
            attributes[site].append(Attribute(p.name, datatype,
                                              bounded(site, p.name), p.name))
            mapped[p.name] = True

    # ---- generalization candidates
    candidates: list[tuple[str, str, str]] = []
    union_groups: list[tuple[str, tuple[str, ...]]] = []

    def add_candidate(sub: str, sup: str, source: str) -> None:
        if sub in entity_ids and sup in entity_ids and sub != sup:
            candidates.append((sub, sup, source))

    def handle_conjunction(subject: str, expr, site: str, source: str) -> None:
        for sup in named_conjuncts(expr):
            add_candidate(subject, sup, source)

        def sweep(e) -> None:
            if e.op == "and":
                for m in e.members:
                    sweep(m)
            elif e.op == "or":
                flag("unmappedConstruct", site,
                     f"union expression {format_expr(e)} has no direct mapping here")

        sweep(expr)

    def handle_equivalence(subject: str, expr, site: str, source: str) -> None:
        if expr.op == "or":
            member_ids = []
            for m in expr.members:
                if m.op == "named" and m.name in entity_ids:
                    add_candidate(m.name, subject, "union membership")
                    if entity_ids[m.name] not in member_ids:
                        member_ids.append(entity_ids[m.name])
                elif m.op not in ("named", "not"):
                    flag("unmappedConstruct", site,
                         f"union member {format_expr(m)} has no direct mapping")
            if len(member_ids) >= 2:
                union_groups.append((subject, tuple(sorted(member_ids))))
            notes.append(f"{site}: union definition; members recorded as "
                         f"subtypes of {subject}, review the or-group")
        elif expr.op in ("named", "and", "restriction"):
            handle_conjunction(subject, expr, site, source)
        # complements are handled by the excess sweep

    for ax in ont.axioms:
        if ax.kind != SUBCLASS:
            continue
        site = f"axiom subclass {ax.subject}"
        if ax.target.op == "or":
            flag("unmappedConstruct", site,
                 f"union supertype {format_expr(ax.target)} has no direct mapping")
        elif ax.target.op in ("named", "and", "restriction"):
            handle_conjunction(ax.subject, ax.target, site, "subclass axiom")
    for ax in ont.axioms:
        if ax.kind == SAME_CLASS:
            handle_equivalence(ax.subject, ax.target,
                               f"axiom same-class {ax.subject}", "equivalence axiom")
    for cls in ont.classes:
        if cls.definition is not None:
            handle_equivalence(cls.name, cls.definition,
                               f"class {cls.name} definition", "definition")

    gen_sources, skipped = insert_generalizations(candidates)
    notes.extend(skipped)
    generalizations = tuple(Generalization(entity_ids[sub], entity_ids[sup])
                            for sub, sup in gen_sources)
    for (sub, sup), sources in gen_sources.items():
        if len(sources) >= 2:
            notes.append(f"generalization {sub} -> {sup} asserted more than "
                         "one way: " + ", ".join(sources))

    # ---- relationships
    rel_order: list[str] = []
    rel_map: dict[str, Relationship] = {}
    group_members: dict[str, list[str]] = {}

    for p in ont.properties:
        if p.category != OBJECT:
            continue
        for site_cls in prop_sites[p.name]:
            direct = [r for r in index.direct_restrictions(site_cls)
                      if r.on_property == p.name and r.flavor in CLASS_FLAVORS]
            where = f"restriction {site_cls}.{p.name}"
            specs: list[tuple[str, str | None, str | None]] = []
            for r in direct:
                t = r.target
                pool = "and" if r.flavor == SOME else None
                if t.op == "named":
                    specs.append((t.name, r.flavor, pool))
                elif t.op == "and":
                    for m in t.members:
                        if m.op == "named":
                            specs.append((m.name, r.flavor, pool))
                        elif m.op != "not":
                            flag("unmappedConstruct", where,
                                 f"target part {format_expr(m)} has no direct mapping")
                elif t.op == "or":
                    for m in t.members:
                        if m.op == "named":
                            specs.append((m.name, r.flavor, "or"))
                        elif m.op != "not":
                            flag("unmappedConstruct", where,
                                 f"target part {format_expr(m)} has no direct mapping")
                elif t.op == "restriction":
                    flag("unmappedConstruct", where,
                         f"nested restriction target {format_expr(t)} has no direct mapping")
            if not specs and p.range is not None and p.range in entity_ids:
                specs.append((p.range, None, None))

            order: list[str] = []
            info: dict[str, dict] = {}
            for target, flavor, pool in specs:
                if target not in entity_ids:
                    continue
                if target not in order:
                    order.append(target)
                    info[target] = {"exclusive": False, "pool": None,
                                    "from_restriction": False}
                if flavor == ONLY:
                    info[target]["exclusive"] = True
                if flavor is not None:
                    info[target]["from_restriction"] = True
                if pool is not None and info[target]["pool"] is None:
                    info[target]["pool"] = pool
            if not order:
                continue

            mult = bounded(site_cls, p.name)
            and_pool = [t for t in order if info[t]["pool"] == "and"]
            or_pool = [t for t in order if info[t]["pool"] == "or"]
            for target in order:
                group_id = None
                if info[target]["pool"] == "and" and len(and_pool) >= 2:
                    group_id = f"con:and:{site_cls}:{p.name}"
                elif info[target]["pool"] == "or" and len(or_pool) >= 2:
                    group_id = f"con:or:{site_cls}:{p.name}"
                rid = relationship_id(p.name, site_cls, target)
                rel = Relationship(rid, p.name, entity_ids[site_cls],
                                   entity_ids[target], MANY, mult,
                                   exclusive=info[target]["exclusive"],
                                   group_id=group_id)
                if rid not in rel_map:
                    rel_order.append(rid)
                rel_map[rid] = rel
                mapped[p.name] = True
                if group_id is not None:
                    group_members.setdefault(group_id, [])
                    if rid not in group_members[group_id]:
                        group_members[group_id].append(rid)
                if rel.exclusive:
                    flag("exclusiveRelation", rid,
                         f"universal restriction on {site_cls}.{p.name} "
                         f"admits only {target} targets")
                if (info[target]["from_restriction"] and p.range is not None
                        and p.range != target
                        and p.range not in index.ancestors(target)
                        and target not in index.ancestors(p.range)):
                    notes.append(
                        f"property {p.name}: declared range {p.range} is "
                        f"unrelated to restriction target {target} on {site_cls}")

    for p in ont.properties:
        if mapped[p.name]:
            continue
        if p.category == OBJECT:
            flag("droppedProperty", p.name,
                 "no relationship could be derived: the property needs a "
                 "domain or restriction site and a resolvable target")
        else:
            flag("droppedProperty", p.name,
                 "no attribute could be derived: the property has no domain "
                 "and no class restricts it")

    # ---- whole-part upgrade
    if config.composition_heuristics:
        participation: dict[str, int] = {}
        for rid in rel_order:
            rel = rel_map[rid]
            participation[rel.source_id] = participation.get(rel.source_id, 0) + 1
            if rel.target_id != rel.source_id:
                participation[rel.target_id] = participation.get(rel.target_id, 0) + 1
        for rid in rel_order:
            rel = rel_map[rid]
            token = normalize_token(rel.name)
            if token not in _COMPOSITION_TOKENS:
                continue
            if rel.source_id == rel.target_id:
                notes.append(f"{rel.id}: whole-part naming on a "
                             "self-relationship ignored")
                continue
            if token in _WHOLE_AT_SOURCE:
                whole, part = rel.source_id, rel.target_id
            else:
                whole, part = rel.target_id, rel.source_id
            isolated = participation.get(part, 0) == 1
            kind = COMPOSITION if isolated else AGGREGATION
            rel_map[rid] = replace(rel, kind=kind, whole=whole)
            if isolated:
                flag("compositionCandidate", rid,
                     f"name marks {part} as a part of {whole} and nothing "
                     "else relates to the part")
            else:
                flag("aggregationCandidate", rid,
                     f"name marks {part} as a part of {whole} but the part "
                     "joins other relationships")

    # ---- constraints
    constraints: list[SemanticConstraint] = []
    seen_constraint_ids: set[str] = set()
    for subject, member_ids in union_groups:
        cid = f"con:union:{subject}"
        if cid not in seen_constraint_ids:
            seen_constraint_ids.add(cid)
            constraints.append(SemanticConstraint(cid, OR_GROUP, member_ids))
    for gid, members in group_members.items():
        if len(members) >= 2 and gid not in seen_constraint_ids:
            seen_constraint_ids.add(gid)
            kind = AND_GROUP if gid.startswith("con:and:") else OR_GROUP
            constraints.append(SemanticConstraint(gid, kind, tuple(sorted(members))))
    materialized_groups = {c.id for c in constraints}
    for rid in rel_order:
        rel = rel_map[rid]
        if rel.group_id is not None and rel.group_id not in materialized_groups:
            rel_map[rid] = replace(rel, group_id=None)

    seen_pairs: set[tuple[str, str]] = set()
    for ax in ont.axioms:
        if ax.kind != DISJOINT or ax.target.op != "named":
            continue
        a, b = ax.subject, ax.target.name
        if a not in entity_ids or b not in entity_ids:
            continue
        if a == b:
            notes.append(f"disjoint {a} {a}: self-disjointness ignored")
            continue
        lo, hi = sorted((a, b))
        if (lo, hi) in seen_pairs:
            continue
        seen_pairs.add((lo, hi))
        constraints.append(SemanticConstraint(
            f"con:disjoint:{lo}:{hi}", DISJOINT_GROUP,
            (entity_ids[lo], entity_ids[hi])))

    # ---- instances
    instances: list[Instance] = []
    if config.include_instances:
        for ind in ont.individuals:
            type_ids: list[str] = []
            for t in ind.types:
                if t.op in ("named", "and"):
                    for name in named_conjuncts(t):
                        if name in entity_ids and entity_ids[name] not in type_ids:
                            type_ids.append(entity_ids[name])
                    if t.op == "and":
                        for m in t.members:
                            if m.op not in ("named", "and", "not"):
                                flag("unmappedConstruct", f"individual {ind.name}",
                                     f"type part {format_expr(m)} has no direct mapping")
                elif t.op != "not":
                    flag("unmappedConstruct", f"individual {ind.name}",
                         f"type {format_expr(t)} has no direct mapping")
            instances.append(Instance(ind.name, tuple(sorted(type_ids))))
    elif ont.individuals:
        notes.append(f"{len(ont.individuals)} individual(s) excluded by "
                     "configuration")

    # ---- diagnostics
    if alias_map:
        by_rep: dict[str, list[str]] = {}
        for alias, rep in alias_map.items():
            by_rep.setdefault(rep, []).append(alias)
        for rep in sorted(by_rep):
            flag("equivalenceCollapsed", rep,
                 "absorbed equivalent class(es): " + ", ".join(sorted(by_rep[rep])))

    for p in ont.properties:
        if len(p.domains) >= 2:
            flag("multiDomainProperty", p.name,
                 "declared on several domains: " + ", ".join(p.domains))

    for site, sub in iter_subexpressions(ont):
        if sub.op == "not":
            if site.startswith("individual ") and not config.include_instances:
                continue
            flag("unmappedConstruct", site,
                 f"complement expression {format_expr(sub)} has no mapping")

    if import_report is not None:
        for entry in import_report.skipped:
            flag("unmappedConstruct", entry.name,
                 f"{entry.count} element(s) skipped at import, "
                 f"first at {entry.first_location}")
        notes.extend(import_report.notes)

    for cls in ont.classes:
        if bww_report.category_of(cls.name) == "thingSet":
            flag("zeroPropertyEntity", cls.name,
                 "no property reaches this entity; check whether it should stay")

    entity_types = tuple(
        EntityType(entity_ids[cls.name], cls.name, cls.name,
                   bww_report.category_of(cls.name), cls.kind,
                   tuple(attributes[cls.name]))
        for cls in ont.classes)

    model = canonical_order(ConceptualModel(
        ont.name,
        entity_types=entity_types,
        relationships=tuple(rel_map[rid] for rid in rel_order),
        generalizations=generalizations,
        constraints=tuple(constraints),
        instances=tuple(instances)))

    unique_items: list[FlaggedItem] = []
    seen_items: set[tuple[str, str, str]] = set()
    for item in flags:
        key = (item.kind, item.subject, item.detail)
        if key not in seen_items:
            seen_items.add(key)
            unique_items.append(item)
    unique_notes: list[str] = []
    seen_notes: set[str] = set()
    for note in notes:
        if note not in seen_notes:
            seen_notes.add(note)
            unique_notes.append(note)

    return model, ValidationReport(tuple(unique_items), tuple(unique_notes))


def derive_model(ont: Ontology, config: TransformConfig | None = None,
                 import_report=None):
    """Full pipeline on a validated ontology: hoist restriction axioms,
    collapse equivalence cycles, grade the concepts, then transform.
    Returns (model, validation report, concept grading, alias map)."""
    normalized = hoist_axiom_restrictions(ont)
    collapsed, alias_map = collapse_equivalences(normalized)
    index = OntologyIndex(collapsed)
    grading = classify(collapsed, index)
    model, report = transform(collapsed, bww_report=grading, config=config,
                              alias_map=alias_map, import_report=import_report,
                              index=index)
    return model, report, grading, alias_map
