"""In-memory ontology model: classes, properties, restrictions, axioms, individuals.

Everything here is assertion-only. Subsumption and equivalence are taken as
written in the source document; no description-logic inference is performed.
A value stores only what the document states; whether a class is defined
is read off its definition. All values are `typing.NamedTuple`s, so they
are immutable, safe to share across threads, usable as dict keys and carry
no instance `__dict__`: they take no extra attributes. A value equals, and
hashes like, the tuple of its fields, so values of two classes with equal
fields compare equal; no collection mixes value classes. The normalizing
stages keep every class, property, axiom and individual they leave
unchanged as the same object.

Equal values are shared where a document repeats them: each front end
keeps a `Shared` for the document it reads, so the ontology holds one named
term per class however often the document names it, and `cot.parse` builds
one `domains` tuple per distinct domain list. `OntologyIndex` keeps a
class's own `local_restrictions` tuple as its direct restrictions unless
an axiom or its definition adds some.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, compress
from typing import NamedTuple, TextIO

# Datatype names accepted for datatype-property ranges.
DATATYPES = ("string", "integer", "decimal", "boolean", "date")

# Class definition kinds: a class with a definition is DEFINED.
PRIMITIVE = "primitive"
DEFINED = "defined"

# Property categories.
OBJECT = "object"
DATATYPE = "datatype"

# Restriction flavors. "some" is the existential (hasClass-style) constraint,
# "only" the universal (toClass-style) one.
SOME = "some"
ONLY = "only"
EXACTLY = "exactly"
MIN = "min"
MAX = "max"
CLASS_FLAVORS = (SOME, ONLY)
CARDINALITY_FLAVORS = (EXACTLY, MIN, MAX)

# Axiom kinds.
SUBCLASS = "subclass"
SAME_CLASS = "same-class"
DISJOINT = "disjoint"

# The name rule of both front ends, as regex character-class bodies: a name
# is a character of NAME_START, then any of NAME_CHARS.
NAME_START = "A-Za-z_"
NAME_CHARS = "A-Za-z0-9_-"
ECHO_CHARS = 32  # characters of an offending token or value a message repeats


# Characters of a document a front end reads at a time.
PIECE_CHARS = 1 << 16


def pieces(source: str | TextIO) -> Iterator[str]:
    """The document `source`, a text or a file open for reading text,
    PIECE_CHARS characters at a time, so neither front end holds it whole."""
    if isinstance(source, str):
        for start in range(0, len(source), PIECE_CHARS):
            yield source[start:start + PIECE_CHARS]
    else:
        while piece := source.read(PIECE_CHARS):
            yield piece


def echo(token: str) -> str:
    """The token quoted, cut to its first ECHO_CHARS characters and `...`
    when longer, so a message does not grow with the input."""
    return repr(token) if len(token) <= ECHO_CHARS else f"{token[:ECHO_CHARS]!r}..."


class Restriction(NamedTuple):
    """A property constraint: some/only carry a target expression, the
    cardinality flavors carry a non-negative count."""

    on_property: str
    flavor: str
    target: "ClassExpression | None" = None
    count: int | None = None


class ClassExpression(NamedTuple):
    """Recursive class term.

    op is one of "named", "and", "or", "not", "restriction". Named terms use
    `name`, boolean terms use `members` (>= 2 for and/or, exactly 1 for not)
    and restriction terms wrap a Restriction.
    """

    op: str
    name: str | None = None
    members: tuple["ClassExpression", ...] = ()
    restriction: Restriction | None = None


def named(name: str) -> ClassExpression:
    return ClassExpression("named", name=name)


# a word table: the first of equal strings, each kept as its own key
class _Words(dict):
    def __missing__(self, word: str) -> str:
        self[word] = word
        return word


class Shared(dict):
    """Equal values of one document, each built once and reused: a front
    end keeps one for the document it reads, dropped with the parse.
    `shared.words[text]` is the first string equal to `text`, so no word is
    interned process-wide. `shared[name]` is the named term of a class
    name, built at its first lookup from its word;
    `shared.setdefault(value, value)` is the first of any other equal
    values. A name is a string, so it never equals another value."""

    def __init__(self) -> None:
        super().__init__()
        self.words = _Words()

    def __missing__(self, name: str) -> ClassExpression:
        name = self.words[name]
        term = self[name] = named(name)
        return term


def restriction_expr(r: Restriction) -> ClassExpression:
    return ClassExpression("restriction", restriction=r)


def format_expr(expr: ClassExpression) -> str:
    """The expression as COT text, as diagnostics quote it."""
    if expr.op == "named":
        return expr.name
    if expr.op in ("and", "or"):
        inner = ", ".join(format_expr(m) for m in expr.members)
        return f"{expr.op}({inner})"
    if expr.op == "not":
        return f"not({format_expr(expr.members[0])})"
    r = expr.restriction
    if r.flavor in CLASS_FLAVORS:
        return f"restriction({r.on_property}, {r.flavor}, {format_expr(r.target)})"
    return f"restriction({r.on_property}, {r.flavor}, {r.count})"


class ClassDefinition(NamedTuple):
    name: str
    definition: ClassExpression | None = None
    local_restrictions: tuple[Restriction, ...] = ()


class PropertyDefinition(NamedTuple):
    name: str
    category: str
    domains: tuple[str, ...] = ()
    range: str | None = None


class Axiom(NamedTuple):
    """subclass/same-class pair a subject class with a target expression;
    disjoint requires the target to be a named expression."""

    kind: str
    subject: str
    target: ClassExpression


class Individual(NamedTuple):
    name: str
    types: tuple[ClassExpression, ...] = ()


class Ontology(NamedTuple):
    name: str
    classes: tuple[ClassDefinition, ...] = ()
    properties: tuple[PropertyDefinition, ...] = ()
    axioms: tuple[Axiom, ...] = ()
    individuals: tuple[Individual, ...] = ()


class Finding(NamedTuple):
    """A validation defect, a model check defect or a review flag."""
    kind: str
    subject: str
    message: str


# --------------------------------------------------------------------------
# expression utilities


def rename_expression(expr: ClassExpression, mapping: dict[str, str]) -> ClassExpression:
    if expr.op == "named":
        new = mapping.get(expr.name, expr.name)
        return expr if new == expr.name else named(new)
    if expr.op == "restriction":
        renamed = rename_restriction(expr.restriction, mapping)
        return expr if renamed is expr.restriction else restriction_expr(renamed)
    members = tuple(rename_expression(m, mapping) for m in expr.members)
    if members == expr.members:
        return expr
    return ClassExpression(expr.op, members=members)


def rename_restriction(r: Restriction, mapping: dict[str, str]) -> Restriction:
    if r.target is None:
        return r
    target = rename_expression(r.target, mapping)
    return r if target is r.target else r._replace(target=target)


def _terms(op: str, expr: ClassExpression) -> list[ClassExpression]:
    if expr.op != op:
        return [expr]
    return [term for m in expr.members for term in _terms(op, m)]


def conjuncts(expr: ClassExpression) -> list[ClassExpression]:
    """The terms of an intersection, nested intersections flattened; any
    other expression is its own single term."""
    return _terms("and", expr)


def disjuncts(expr: ClassExpression) -> list[ClassExpression]:
    """The terms of a union, nested unions flattened; any other expression
    is its own single term."""
    return _terms("or", expr)


def _complements(site: str, expr: ClassExpression):
    if expr.op == "not":
        yield site, expr
        return
    for m in expr.members:
        yield from _complements(site, m)
    if expr.restriction is not None and expr.restriction.target is not None:
        yield from _complements(site, expr.restriction.target)


def outermost_complements(ont: Ontology):
    """Yield (site, complement) for every complement that no other
    complement encloses, in document order. The site is the anchor
    diagnostics quote: "class Enzyme definition", "restriction
    Protein.binds", "axiom subclass Enzyme" or "individual p53"."""
    for cls in ont.classes:
        if cls.definition is not None:
            yield from _complements(f"class {cls.name} definition", cls.definition)
        for r in cls.local_restrictions:
            if r.target is not None:
                yield from _complements(f"restriction {cls.name}.{r.on_property}",
                                        r.target)
    for ax in ont.axioms:
        yield from _complements(f"axiom {ax.kind} {ax.subject}", ax.target)
    for ind in ont.individuals:
        for expr in ind.types:
            yield from _complements(f"individual {ind.name}", expr)


# --------------------------------------------------------------------------
# validation


def validate_ontology(ont: Ontology) -> list[Finding]:
    """Collect every dangling reference, duplicate name and malformed
    expression. An empty result means the ontology is well-formed. Pure:
    the input is never mutated.

    After the duplicate names, the walk visits classes, axioms, properties
    and then individuals, each in declaration order. The RDF/XML importer
    declares the dangling names in this report order."""
    defects: list[Finding] = []
    class_names = {c.name for c in ont.classes}
    property_names = {p.name for p in ont.properties}

    def check_expr(expr: ClassExpression, where: str) -> None:
        if expr.op == "named":
            if expr.name not in class_names:
                defects.append(Finding(
                    "danglingClass", expr.name,
                    f"{where} references undeclared class {expr.name!r}"))
        elif expr.op in ("and", "or"):
            if len(expr.members) < 2:
                defects.append(Finding(
                    "malformedExpression", where,
                    f"{expr.op}-expression needs at least 2 members"))
            for m in expr.members:
                check_expr(m, where)
        elif expr.op == "not":
            if len(expr.members) != 1:
                defects.append(Finding(
                    "malformedExpression", where,
                    "complement needs exactly 1 member"))
            for m in expr.members:
                check_expr(m, where)
        elif expr.op == "restriction":
            if expr.restriction is None:
                defects.append(Finding(
                    "malformedExpression", where,
                    "restriction expression without a restriction"))
            else:
                check_restriction(expr.restriction, where)
        else:
            defects.append(Finding(
                "malformedExpression", where, f"unknown operator {expr.op!r}"))

    def check_restriction(r: Restriction, where: str) -> None:
        if r.on_property not in property_names:
            defects.append(Finding(
                "danglingProperty", r.on_property,
                f"{where} restricts undeclared property {r.on_property!r}"))
        if r.flavor in CLASS_FLAVORS:
            if r.target is None:
                defects.append(Finding(
                    "malformedExpression", where,
                    f"{r.flavor}-restriction needs a target expression"))
            else:
                check_expr(r.target, where)
        elif r.flavor in CARDINALITY_FLAVORS:
            if r.count is None or r.count < 0:
                defects.append(Finding(
                    "badCardinality", where,
                    f"{r.flavor}-restriction needs a count >= 0"))
        else:
            defects.append(Finding(
                "malformedExpression", where,
                f"unknown restriction flavor {r.flavor!r}"))

    def check_duplicates(names, what) -> None:
        seen: set[str] = set()
        reported: set[str] = set()
        for name in names:
            if name in seen and name not in reported:
                defects.append(Finding(
                    "duplicateName", name, f"{what} {name!r} declared more than once"))
                reported.add(name)
            seen.add(name)

    check_duplicates([c.name for c in ont.classes], "class")
    check_duplicates([p.name for p in ont.properties], "property")
    check_duplicates([i.name for i in ont.individuals], "individual")

    for cls in ont.classes:
        where = f"class {cls.name}"
        if cls.definition is not None:
            check_expr(cls.definition, f"{where} definition")
        for r in cls.local_restrictions:
            check_restriction(r, f"restriction on {where}")

    for ax in ont.axioms:
        where = f"axiom {ax.kind} {ax.subject}"
        if ax.subject not in class_names:
            defects.append(Finding(
                "danglingClass", ax.subject, f"{where} has undeclared subject"))
        if ax.kind == DISJOINT and ax.target.op != "named":
            defects.append(Finding(
                "malformedExpression", where, "disjoint target must be a named class"))
        check_expr(ax.target, where)

    for prop in ont.properties:
        where = f"property {prop.name}"
        if prop.category not in (OBJECT, DATATYPE):
            defects.append(Finding(
                "badCategory", prop.name,
                f"{where} has unknown category {prop.category!r}"))
        for d in prop.domains:
            if d not in class_names:
                defects.append(Finding(
                    "danglingClass", d, f"{where} has undeclared domain class {d!r}"))
        if prop.range is not None:
            if prop.category == OBJECT and prop.range not in class_names:
                defects.append(Finding(
                    "danglingClass", prop.range,
                    f"{where} has undeclared range class {prop.range!r}"))
            if prop.category == DATATYPE and prop.range not in DATATYPES:
                defects.append(Finding(
                    "badDatatype", prop.range,
                    f"{where} has unsupported datatype {prop.range!r}"))

    for ind in ont.individuals:
        where = f"individual {ind.name}"
        if not ind.types:
            defects.append(Finding(
                "missingType", ind.name, f"{where} has no type expression"))
        for t in ind.types:
            check_expr(t, where)

    return defects


# --------------------------------------------------------------------------
# normalization and equivalence collapse


def hoist_axiom_restrictions(ont: Ontology) -> Ontology:
    """Move subclass axioms whose target is a bare restriction into the
    subject class's local restrictions. DAML-style documents commonly encode
    local constraints this way; attaching them keeps constraint handling in
    one place."""
    moved: dict[str, list[Restriction]] = {}
    kept: list[Axiom] = []
    for ax in ont.axioms:
        if ax.kind == SUBCLASS and ax.target.op == "restriction":
            moved.setdefault(ax.subject, []).append(ax.target.restriction)
        else:
            kept.append(ax)
    if not moved:
        return ont
    classes = tuple(
        c._replace(local_restrictions=c.local_restrictions + tuple(moved[c.name]))
        if c.name in moved else c
        for c in ont.classes)
    return ont._replace(classes=classes, axioms=tuple(kept))


def _strongly_connected(edges: dict[str, list[str]]) -> list[list[str]]:
    """Iterative Tarjan; returns components in a deterministic order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in edges:
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                components.append(sorted(comp))
    return components


def collapse_equivalences(ont: Ontology) -> tuple[Ontology, dict[str, str]]:
    """Collapse every cycle of superclass edges into a single representative
    per strongly connected component (the lexicographically least name).

    The edges are `_superclass_edges`, the ones grading and the
    generalizations read. Each is a subsumption, so each cycle is an
    equivalence, and the collapsed edges form the acyclic condensation.
    Returns the rewritten ontology and an alias map {alias: representative}.
    When there is nothing to collapse the input is returned unchanged with
    an empty map. Otherwise every class, property, axiom and individual the
    alias map leaves unchanged is kept as the same object.
    """
    supers: dict[str, list[str]] = {c.name: [] for c in ont.classes}
    for sub, sup, _ in _superclass_edges(ont):
        supers[sub].append(sup)
    mapping: dict[str, str] = {}
    for comp in _strongly_connected(supers):
        if len(comp) < 2:
            continue
        rep = comp[0]
        for alias in comp[1:]:
            mapping[alias] = rep
    if not mapping:
        return ont, {}

    class_by_name = {c.name: c for c in ont.classes}
    aliases_of: dict[str, list[str]] = {}
    for alias, rep in mapping.items():
        aliases_of.setdefault(rep, []).append(alias)
    classes: list[ClassDefinition] = []
    extra_axioms: list[Axiom] = []
    for cls in ont.classes:
        if cls.name in mapping:
            continue
        restrictions = [rename_restriction(r, mapping) for r in cls.local_restrictions]
        seen_restrictions = set(restrictions)
        # Fold aliased classes' restrictions and definitions into the
        # representative so nothing asserted is lost.
        for alias in sorted(aliases_of.get(cls.name, ())):
            aliased = class_by_name[alias]
            for r in aliased.local_restrictions:
                renamed = rename_restriction(r, mapping)
                if renamed not in seen_restrictions:
                    seen_restrictions.add(renamed)
                    restrictions.append(renamed)
            if aliased.definition is not None:
                target = rename_expression(aliased.definition, mapping)
                if not (target.op == "named" and target.name == cls.name):
                    extra_axioms.append(Axiom(SAME_CLASS, cls.name, target))
        definition = (rename_expression(cls.definition, mapping)
                      if cls.definition is not None else None)
        restrictions = tuple(restrictions)
        classes.append(
            cls if definition is cls.definition
            and restrictions == cls.local_restrictions
            else ClassDefinition(cls.name, definition, restrictions))

    axioms: list[Axiom] = []
    seen_axioms: set[Axiom] = set()
    for ax in list(ont.axioms) + extra_axioms:
        subject = mapping.get(ax.subject, ax.subject)
        target = rename_expression(ax.target, mapping)
        if (target.op == "named" and target.name == subject
                and ax.target.name != ax.subject):
            continue  # cycle edges vanish into the representative
        renamed = (ax if subject == ax.subject and target is ax.target
                   else Axiom(ax.kind, subject, target))
        if renamed not in seen_axioms:
            seen_axioms.add(renamed)
            axioms.append(renamed)

    properties = []
    for p in ont.properties:
        domains = tuple(dict.fromkeys(mapping.get(d, d) for d in p.domains))
        rng = p.range
        if p.category == OBJECT and rng is not None:
            rng = mapping.get(rng, rng)
        properties.append(p if domains == p.domains and rng == p.range
                          else PropertyDefinition(p.name, p.category, domains, rng))

    individuals = []
    for i in ont.individuals:
        types = tuple(rename_expression(t, mapping) for t in i.types)
        individuals.append(i if types == i.types else Individual(i.name, types))

    collapsed = ont._replace(classes=tuple(classes), properties=tuple(properties),
                             axioms=tuple(axioms), individuals=tuple(individuals))
    return collapsed, mapping


# --------------------------------------------------------------------------
# inherited-feature resolution


# the sources a superclass edge can have, in the order notes list them
EDGE_SOURCES = ("subclass axiom", "equivalence axiom", "union membership",
                "definition")


def superclass_statements(ont: Ontology):
    """Yield (kind, subject, expression, source, terms) for every statement
    that makes one class a subclass of another: subclass axioms, then
    same-class axioms, then definitions (kind "definition"), each in
    document order. The source is one of `EDGE_SOURCES`. A union on the
    right of a same-class axiom or a definition is a "union membership":
    each named term of its `disjuncts` is a subclass of the subject. Any
    other statement makes the subject a subclass of each named term of its
    `conjuncts`."""
    axioms = ((kind, ax.subject, ax.target) for kind in (SUBCLASS, SAME_CLASS)
              for ax in ont.axioms if ax.kind == kind)
    definitions = (("definition", c.name, c.definition)
                   for c in ont.classes if c.definition is not None)
    sources = {SUBCLASS: "subclass axiom", SAME_CLASS: "equivalence axiom",
               "definition": "definition"}
    for kind, subject, expr in chain(axioms, definitions):
        if expr.op == "or" and kind != SUBCLASS:
            yield kind, subject, expr, "union membership", disjuncts(expr)
        else:
            yield kind, subject, expr, sources[kind], conjuncts(expr)


def _asserted(ont: Ontology) -> tuple[dict[str, tuple[Restriction, ...]],
                                      dict[str, tuple[str, ...]]]:
    """Per class, the restrictions asserted on it and the declared
    properties attached to it; see `OntologyIndex.direct_restrictions` and
    `OntologyIndex.attached_properties`."""
    declared = {p.name for p in ont.properties}
    # names of the properties declaring each class a domain
    domains_of: dict[str, list[str]] = {}
    for p in ont.properties:
        for d in p.domains:
            domains_of.setdefault(d, []).append(p.name)
    # subclass/same-class axiom targets by subject, in document order
    targets_of: dict[str, list[ClassExpression]] = {}
    for ax in ont.axioms:
        if ax.kind in (SUBCLASS, SAME_CLASS):
            targets_of.setdefault(ax.subject, []).append(ax.target)
    direct: dict[str, tuple[Restriction, ...]] = {}
    attached: dict[str, tuple[str, ...]] = {}
    for cls in ont.classes:
        stated = targets_of.get(cls.name, ())
        if cls.definition is not None:
            stated = (cls.definition, *stated)
        stated_restrictions = tuple(t.restriction for expr in stated
                                    for t in conjuncts(expr)
                                    if t.op == "restriction")
        # a class with nothing stated keeps its own tuple
        restrictions = (cls.local_restrictions + stated_restrictions
                        if stated_restrictions else cls.local_restrictions)
        direct[cls.name] = restrictions
        names = dict.fromkeys(domains_of.get(cls.name, ()))
        names.update(dict.fromkeys(r.on_property for r in restrictions
                                   if r.on_property in declared))
        attached[cls.name] = tuple(names)
    return direct, attached


def _superclass_edges(ont: Ontology) -> list[tuple[str, str, str]]:
    """Every (sub, sup, source) edge of `superclass_statements`, in its
    order. Self-edges are left out; an edge asserted twice is listed
    twice."""
    declared = {c.name for c in ont.classes}
    edges: list[tuple[str, str, str]] = []
    for _, subject, _, source, terms in superclass_statements(ont):
        union = source == "union membership"
        for term in terms:
            if term.op == "named":
                sub, sup = (term.name, subject) if union else (subject, term.name)
                if sub in declared and sup in declared and sub != sup:
                    edges.append((sub, sup, source))
    return edges


# maps the digits of bin() to compress() selectors
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _decode(bits: int, items: list):
    """The items at the set positions of `bits`, lowest position first."""
    return compress(items, bin(bits)[:1:-1].encode().translate(_BIT_SELECTORS))


class OntologyIndex:
    """The one answer to "what reaches class X" over a validated ontology.

    Direct lookups: `direct_restrictions` and `attached_properties` (what is
    asserted on a class itself). What reaches a class is what is attached
    to it or to one of its ancestors: `ancestors` and `is_ancestor` (the
    closure over `superclass_edges`), `reach` (how many properties and
    restrictions) and `inherited_cardinalities`. The transformation draws
    its generalizations from the same `superclass_edges` list.

    The closure is held as bitsets (Ait-Kaci et al., 1989), built in one
    pass over the condensation of the superclass graph (Nuutila, 1995). A
    bit position goes only to what some class inherits: each class that is
    a superclass, the properties attached to such classes and their
    restriction occurrences, numbered in declaration order. The numbers
    are kept as name -> position maps and each `1 << pos` is built where
    it is ORed in or tested. A class's own unshared features are counted,
    not numbered, so the bitsets stay as short as the inherited part of
    the hierarchy.
    """

    def __init__(self, ont: Ontology):
        self._direct_restrictions, self._attached = _asserted(ont)
        self.superclass_edges = _superclass_edges(ont)
        supers: dict[str, list[str]] = {name: [] for name in self._attached}
        for sub, sup, _ in self.superclass_edges:
            supers[sub].append(sup)

        # bit positions, in declaration order
        inherited = {sup for sub, sup, _ in self.superclass_edges}
        self._superclasses = [name for name in self._attached if name in inherited]
        self._class_pos = {name: pos for pos, name in enumerate(self._superclasses)}
        self._property_pos: dict[str, int] = {}
        self._occurrences: list[Restriction] = []
        first_occurrence: dict[str, int] = {}
        # the occurrence bits of the cardinality restrictions on each property
        self._cardinality_mask: dict[str, int] = {}
        for name in self._superclasses:
            for prop in self.attached_properties(name):
                self._property_pos.setdefault(prop, len(self._property_pos))
            restrictions = self.direct_restrictions(name)
            first = first_occurrence[name] = len(self._occurrences)
            for pos, r in enumerate(restrictions, first):
                if r.flavor in CARDINALITY_FLAVORS:
                    self._cardinality_mask[r.on_property] = (
                        self._cardinality_mask.get(r.on_property, 0) | 1 << pos)
            self._occurrences.extend(restrictions)

        # Each class gets its component's bits: every member's own bits OR
        # the bits of every outside successor. Tarjan emits a component
        # after every component it reaches, so those are already built. A
        # class whose bits are all zero keeps no entries.
        self._ancestor_bits: dict[str, int] = {}
        self._property_bits: dict[str, int] = {}
        self._occurrence_bits: dict[str, int] = {}
        for comp in _strongly_connected(supers):
            ancestor_bits = property_bits = occurrence_bits = 0
            for member in comp:
                if member in self._class_pos:
                    ancestor_bits |= 1 << self._class_pos[member]
                    # its own restrictions' occurrences are numbered in a row
                    own = len(self.direct_restrictions(member))
                    occurrence_bits |= ((1 << own) - 1) << first_occurrence[member]
                for prop in self.attached_properties(member):
                    if prop in self._property_pos:
                        property_bits |= 1 << self._property_pos[prop]
                for sup in supers[member]:
                    # a fellow member is not built yet, and its own bits
                    # are ORed in above
                    ancestor_bits |= self._ancestor_bits.get(sup, 0)
                    property_bits |= self._property_bits.get(sup, 0)
                    occurrence_bits |= self._occurrence_bits.get(sup, 0)
            if ancestor_bits | property_bits | occurrence_bits:
                for member in comp:
                    self._ancestor_bits[member] = ancestor_bits
                    self._property_bits[member] = property_bits
                    self._occurrence_bits[member] = occurrence_bits

    def ancestors(self, cls: str) -> tuple[str, ...]:
        """Transitive superclasses in declaration order, excluding the class
        itself, each once. Decoded from the bitsets on every call."""
        bits = self._ancestor_bits.get(cls, 0)
        if cls in self._class_pos:
            bits &= ~(1 << self._class_pos[cls])
        return tuple(_decode(bits, self._superclasses))

    def is_ancestor(self, sup: str, cls: str) -> bool:
        """True if `sup` is a transitive superclass of `cls`, not itself."""
        return sup != cls and sup in self._class_pos and bool(
            self._ancestor_bits.get(cls, 0) >> self._class_pos[sup] & 1)

    def reach(self, cls: str) -> tuple[int, int]:
        """How many distinct declared properties, and how many restriction
        occurrences, are attached to or asserted on the class or one of
        its ancestors."""
        # a superclass's own features all have bits; any other class's
        # features without one are counted here
        properties = self._property_bits.get(cls, 0).bit_count() + sum(
            1 for prop in self.attached_properties(cls)
            if prop not in self._property_pos)
        restrictions = self._occurrence_bits.get(cls, 0).bit_count()
        if cls not in self._class_pos:
            restrictions += len(self.direct_restrictions(cls))
        return properties, restrictions

    def inherited_cardinalities(self, cls: str, prop: str) -> list[Restriction]:
        """The cardinality restrictions on `prop` asserted on the class's
        ancestors, for a class that asserts none on `prop` itself."""
        hits = (self._occurrence_bits.get(cls, 0)
                & self._cardinality_mask.get(prop, 0))
        return list(_decode(hits, self._occurrences)) if hits else []

    def direct_restrictions(self, cls: str) -> tuple[Restriction, ...]:
        """Restrictions asserted on the class itself: local ones, plus
        restriction conjuncts of its subclass/same-class axiom targets and of
        its definition."""
        return self._direct_restrictions[cls]

    def attached_properties(self, cls: str) -> tuple[str, ...]:
        """Names of the declared properties attached to the class itself,
        each once: those naming it as a domain, then those its direct
        restrictions constrain."""
        return self._attached[cls]


def normalize(ont: Ontology) -> tuple[Ontology, dict[str, str], OntologyIndex]:
    """Hoist restriction axioms, collapse equivalence cycles and index the
    result: the one place this order is written. Returns (collapsed
    ontology, alias map, index) for a validated ontology."""
    collapsed, alias_map = collapse_equivalences(hoist_axiom_restrictions(ont))
    return collapsed, alias_map, OntologyIndex(collapsed)
