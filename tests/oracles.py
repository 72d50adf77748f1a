"""Independent oracles shared by the test modules.

Each reads an ontology's statements straight from the rules the `ontology`
and `transform` docstrings state, with plain sets and searches and without
`OntologyIndex`, so the code under test never checks itself.
`import_daml_tree` is the RDF/XML importer as a walk over the whole parsed
tree, against which the importer that translates while it parses is
checked.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter

from ont2cm.damlxml import _ROOT, DamlImportError, _child_paths, _Importer, _prefixed
from ont2cm.ontology import (
    CARDINALITY_FLAVORS,
    CLASS_FLAVORS,
    EXACTLY,
    MAX,
    MIN,
    OBJECT,
    ONLY,
    SAME_CLASS,
    SOME,
    SUBCLASS,
    collapse_equivalences,
    hoist_axiom_restrictions,
)


def flattened(expr, op):
    """The terms of `expr` read as an `op` expression, in order: a nested
    `op` expression gives up its members; anything else is one term."""
    terms, stack = [], [expr]
    while stack:
        e = stack.pop()
        if e.op == op:
            stack.extend(reversed(e.members))
        else:
            terms.append(e)
    return terms


def superclass_edge_map(o):
    """sub -> {sup} for every subsumption the document states. A union on
    the right of a same-class axiom or a definition makes each named term
    of the union, nested unions flattened, a subclass of the subject. Any
    other subclass axiom, same-class axiom or definition makes the subject
    a subclass of each named term of its intersection, nested
    intersections flattened. Self-edges are left out."""
    edges = {c.name: set() for c in o.classes}
    stated = [(ax.subject, ax.target, ax.kind == SAME_CLASS)
              for ax in o.axioms if ax.kind in (SUBCLASS, SAME_CLASS)]
    stated += [(c.name, c.definition, True)
               for c in o.classes if c.definition is not None]
    for subject, expr, both_ways in stated:
        if both_ways and expr.op == "or":
            pairs = [(t.name, subject) for t in flattened(expr, "or")
                     if t.op == "named"]
        else:
            pairs = [(subject, t.name) for t in flattened(expr, "and")
                     if t.op == "named"]
        for sub, sup in pairs:
            if sub in edges and sup in edges and sub != sup:
                edges[sub].add(sup)
    return edges


def stated_restrictions(o):
    """class -> the restrictions asserted on it: its local ones, then the
    restriction terms of the intersection of its definition and of each
    subclass or same-class axiom on it."""
    stated = {c.name: list(c.local_restrictions) for c in o.classes}
    exprs = [(c.name, c.definition) for c in o.classes if c.definition is not None]
    exprs += [(ax.subject, ax.target) for ax in o.axioms
              if ax.kind in (SUBCLASS, SAME_CLASS)]
    for subject, expr in exprs:
        stated[subject] += [t.restriction for t in flattened(expr, "and")
                            if t.op == "restriction"]
    return stated


def reachable_from(edges, start):
    seen = set()
    stack = list(edges.get(start, ()))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(edges.get(node, ()))
    return seen


def oracle_relationships(o):
    """(property, site) -> (targets, exclusive targets, {target: group
    kind or None}, (lower, upper)) for every relationship the transform
    must derive from `o`, read over the hoisted and collapsed ontology.

    A site is a class that an object property names as a domain or whose
    `stated_restrictions` restrict it. Its some/only restrictions give the
    targets: the named terms of a union target, nested unions flattened,
    join the or-pool; those of any other target, nested intersections
    flattened, join the and-pool when the restriction is existential. A target met in both
    pools is in the or-pool, and a pool of two or more targets is a group.
    An `only` restriction makes its targets exclusive. With no target from
    a restriction the declared range is the one target. The multiplicity
    folds the site's own cardinality restrictions on the property, or with
    none those of every ancestor."""
    ont, _ = collapse_equivalences(hoist_axiom_restrictions(o))
    edges = superclass_edge_map(ont)
    stated = stated_restrictions(ont)

    def cardinalities(name, prop):
        return [r for r in stated[name]
                if r.on_property == prop and r.flavor in CARDINALITY_FLAVORS]

    expected = {}
    for p in ont.properties:
        if p.category != OBJECT:
            continue
        for site, restrictions in stated.items():
            restricted = [r for r in restrictions if r.on_property == p.name]
            if site not in p.domains and not restricted:
                continue
            pools: dict[str, set] = {}
            exclusive = set()
            for r in restricted:
                if r.flavor not in CLASS_FLAVORS or r.target.op == "restriction":
                    continue
                union = r.target.op == "or"
                pool = "or" if union else "and" if r.flavor == SOME else None
                for t in flattened(r.target, "or" if union else "and"):
                    if t.op == "named":
                        pools.setdefault(t.name, set()).add(pool)
                        if r.flavor == ONLY:
                            exclusive.add(t.name)
            if not pools and p.range is not None:
                pools[p.range] = {None}
            if not pools:
                continue
            pool_of = {t: "or" if "or" in ps else "and" if "and" in ps else None
                       for t, ps in pools.items()}
            size = Counter(pool_of.values())
            groups = {t: kind if kind is not None and size[kind] >= 2 else None
                      for t, kind in pool_of.items()}
            picked = cardinalities(site, p.name) or [
                r for sup in reachable_from(edges, site)
                for r in cardinalities(sup, p.name)]
            lower = max((r.count for r in picked if r.flavor in (MIN, EXACTLY)),
                        default=0)
            upper = min((r.count for r in picked if r.flavor in (MAX, EXACTLY)),
                        default=None)
            expected[p.name, site] = (set(pools), exclusive, groups, (lower, upper))
    return expected


def import_daml_tree(text, source_name=None):
    """`damlxml.import_daml` over the whole element tree, parsed first:
    malformed XML anywhere wins, then the root, then the first broken
    construct in document order."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DamlImportError(f"malformed XML: {exc}") from exc
    if _prefixed(root.tag) != "rdf:RDF":
        raise DamlImportError("root element must be rdf:RDF")
    importer = _Importer()
    for child, path in _child_paths(root, _ROOT):
        importer.top_level(child, path)
    return importer.finish(source_name)
