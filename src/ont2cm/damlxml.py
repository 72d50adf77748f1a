"""Importer for DAML-style RDF/XML ontology documents.

The importer is total over well-formed XML: every element is either
translated into the in-memory ontology or recorded as skipped with its
location, so the two tallies always add up to the document's element count.
The document, a text or an open file, is parsed a piece at a time
(`ontology.pieces`), and each top-level element is translated and let go
once the next one starts, so the importer's memory grows with the largest
top-level element rather than with the document.
An element translated by its attributes alone is tallied and what it holds
skipped (`_Importer.leaf`). The importer keeps each class, property and
individual as the value it returns, by name; a later element naming it
again replaces it with an updated one. Names follow `ontology`'s name
rule, as in COT; one the document spells otherwise is adjusted, with a note.
A name the source uses but never declares is declared automatically, with
a note, exactly when `ontology.validate_ontology` reports it dangling and
in the order it reports it; the report carries every other defect found.
"""

from __future__ import annotations

import functools
import re
import sys
import xml.etree.ElementTree as ET
from typing import NamedTuple, TextIO

from .ontology import (
    DATATYPE,
    DATATYPES,
    DISJOINT,
    NAME_CHARS,
    NAME_START,
    OBJECT,
    Finding,
    SAME_CLASS,
    SUBCLASS,
    Axiom,
    ClassDefinition,
    ClassExpression,
    Individual,
    Ontology,
    PropertyDefinition,
    Restriction,
    Shared,
    echo,
    pieces,
    restriction_expr,
    validate_ontology,
)

_DAML = "http://www.daml.org/2001/03/daml+oil#"
_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDFS = "http://www.w3.org/2000/01/rdf-schema#"
_XSD = "http://www.w3.org/2001/XMLSchema#"
_PREFIXES = {_DAML: "daml", _RDF: "rdf", _RDFS: "rdfs", _XSD: "xsd"}

_RDF_ABOUT = f"{{{_RDF}}}about"
_RDF_ID = f"{{{_RDF}}}ID"
_RDF_RESOURCE = f"{{{_RDF}}}resource"

_CLASS_TAGS = ("daml:Class", "rdfs:Class")
_BOOLEAN_TAGS = ("daml:intersectionOf", "daml:unionOf", "daml:complementOf")
_CARDINALITY_TAGS = {"daml:cardinality": "exactly", "daml:minCardinality": "min",
                     "daml:maxCardinality": "max", "daml:cardinalityQ": "exactly",
                     "daml:minCardinalityQ": "min", "daml:maxCardinalityQ": "max"}
# the same constraints as attributes of a daml:Restriction
_CARDINALITY_ATTRS = {f"{{{_DAML}}}{tag.removeprefix('daml:')}": flavor
                      for tag, flavor in _CARDINALITY_TAGS.items()}

# Deepest element nesting below rdf:RDF a document may use. Every descent
# of the importer goes through _child_paths, so its check there also bounds
# the recursion of the expression parser and of the skip ledger.
MAX_DEPTH = 200

_UNSAFE_RE = re.compile(rf"[^{NAME_CHARS}]")
_NAME_START_RE = re.compile(rf"[{NAME_START}]")
# what int() reads as an integer, whatever its number of digits
_INT_RE = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


class DamlImportError(ValueError):
    pass


class _Unmappable(Exception):
    """Raised while parsing a class expression that has no counterpart;
    the surrounding element gets skipped instead of aborting the import."""


class SkippedEntry(NamedTuple):
    name: str
    count: int
    first_location: str


class ImportReport(NamedTuple):
    ontology: Ontology
    translated: tuple[tuple[str, int], ...]
    skipped: tuple[SkippedEntry, ...]
    notes: tuple[str, ...]
    defects: tuple[Finding, ...] = ()  # every validation defect but a dangling name

    def translated_total(self) -> int:
        return sum(count for _, count in self.translated)

    def skipped_total(self) -> int:
        return sum(entry.count for entry in self.skipped)


@functools.cache
def _prefixed(tag: str) -> str:
    """`{uri}local` as `prefix:local` in the four known namespaces, else
    the bare local name, which then has no colon."""
    if not tag.startswith("{"):
        return tag
    uri, _, local = tag[1:].partition("}")
    prefix = _PREFIXES.get(uri)
    return f"{prefix}:{local}" if prefix else local


# Where an element is: (parent's locator, tag, ordinal among the parent's
# children with that tag, depth below rdf:RDF). _where formats it as the
# path text only for the errors, notes and skip entries that read it.
_Loc = tuple
_ROOT: _Loc = (None, "rdf:RDF", 0, 0)


def _where(loc: _Loc) -> str:
    """`rdf:RDF/daml:Class[2]/rdfs:subClassOf[1]` for a locator."""
    steps = []
    while loc[0] is not None:
        loc, tag, ordinal, _ = loc
        steps.append(f"{tag}[{ordinal}]")
    steps.append(loc[1])
    return "/".join(reversed(steps))


def _child_paths(el, loc: _Loc):
    depth = loc[3] + 1
    counts: dict[str, int] = {}
    for child in el:
        tag = _prefixed(child.tag)
        counts[tag] = ordinal = counts.get(tag, 0) + 1
        child_loc = (loc, tag, ordinal, depth)
        if depth > MAX_DEPTH:
            raise DamlImportError(f"element nested deeper than {MAX_DEPTH} "
                                  f"levels at {_where(child_loc)}")
        yield child, child_loc


def _local_name(uri: str) -> str:
    if "#" in uri:
        uri = uri.rsplit("#", 1)[1]
    elif "/" in uri:
        uri = uri.rstrip("/").rsplit("/", 1)[-1]
    return uri


class _Importer:
    def __init__(self):
        # declarations are kept in insertion order, which is output order
        self.ontology_name: str | None = None
        self.classes: dict[str, ClassDefinition] = {}
        self.props: dict[str, PropertyDefinition] = {}
        self.axioms: list[Axiom] = []
        self.individuals: dict[str, Individual] = {}
        self.translated: dict[str, int] = {}
        # element name -> (count, locator of the first one)
        self.skipped: dict[str, tuple[int, _Loc]] = {}
        self.notes: dict[str, None] = {}  # insertion-ordered set
        # one named term per class name however often the document names it
        self.shared = Shared()

    # ---- bookkeeping

    def note(self, text: str) -> None:
        self.notes.setdefault(text)

    def tally(self, el) -> None:
        name = _prefixed(el.tag)
        self.translated[name] = self.translated.get(name, 0) + 1

    def leaf(self, el, path: _Loc) -> None:
        """`el` is translated by its attributes alone: it is tallied and
        whatever it holds is skipped."""
        self.tally(el)
        self.skip_children(el, path)

    def skip_tree(self, el, path: _Loc) -> None:
        name = _prefixed(el.tag)
        count, first = self.skipped.get(name, (0, path))
        self.skipped[name] = (count + 1, first)
        self.skip_children(el, path)

    def skip_children(self, el, path: _Loc) -> None:
        for child, cpath in _child_paths(el, path):
            self.skip_tree(child, cpath)

    # ---- naming

    def sanitize(self, raw: str) -> str:
        name = _UNSAFE_RE.sub("_", raw)
        if not _NAME_START_RE.match(name):
            name = "_" + name
        if name != raw:
            self.note(f"name {raw!r} adjusted to {name!r}")
        # one string per name however often the document refers to it
        return self.shared.words[name]

    def name_of(self, el) -> str | None:
        raw = el.attrib.get(_RDF_ABOUT) or el.attrib.get(_RDF_ID)
        if raw is None:
            return None
        local = _local_name(raw)
        if not local:
            return None
        return self.sanitize(local)

    def ref(self, uri: str) -> str:
        return self.sanitize(_local_name(uri))

    # ---- declarations
    # A declaration met again is rebuilt whole rather than by `_replace`,
    # which leaves one spare tuple per call in CPython's tuple free list,
    # up to 2,000 of them, kept until a full garbage collection.

    def declare_property(self, name: str, category: str) -> None:
        kept = self.props.setdefault(name, PropertyDefinition(name, category))
        if kept.category != category:
            self.note(f"property {name} declared with conflicting categories; "
                      f"keeping {kept.category}")

    # ---- class expressions (parse_expr_entry rolls back a failed one)

    def _expr(self, el, path: _Loc) -> ClassExpression:
        tag = _prefixed(el.tag)
        if tag in _CLASS_TAGS:
            name = self.name_of(el)
            if name is not None:
                self.leaf(el, path)
                return self.shared[name]
            self.tally(el)
            expr = None
            for child, cpath in _child_paths(el, path):
                ctag = _prefixed(child.tag)
                if expr is None and ctag in _BOOLEAN_TAGS:
                    expr = self._expr(child, cpath)
                else:
                    raise _Unmappable(f"class expression content {ctag}")
            if expr is None:
                raise _Unmappable("anonymous class without an expression")
            return expr
        if tag in ("daml:intersectionOf", "daml:unionOf"):
            self.tally(el)
            members = [self._expr(child, cpath)
                       for child, cpath in _child_paths(el, path)]
            if not members:
                raise DamlImportError(f"{tag} at {_where(path)} has no members")
            if len(members) == 1:
                self.note(f"single-member {tag} at {_where(path)} unwrapped")
                return members[0]
            op = "and" if tag == "daml:intersectionOf" else "or"
            return ClassExpression(op, members=tuple(members))
        if tag == "daml:complementOf":
            resource = el.attrib.get(_RDF_RESOURCE)
            if resource is not None:
                self.leaf(el, path)
                return ClassExpression("not", members=(self.shared[self.ref(resource)],))
            self.tally(el)
            members = [self._expr(child, cpath)
                       for child, cpath in _child_paths(el, path)]
            if len(members) != 1:
                raise DamlImportError(
                    f"complementOf at {_where(path)} needs exactly one member")
            return ClassExpression("not", members=(members[0],))
        if tag == "daml:Restriction":
            return self._restriction(el, path)
        raise _Unmappable(f"class expression {tag}")

    def _restriction(self, el, path: _Loc) -> ClassExpression:
        on_property: str | None = None
        parts: list[Restriction] = []
        pending: list[tuple] = []

        for attr, flavor in _CARDINALITY_ATTRS.items():
            value = el.attrib.get(attr)
            if value is not None:
                pending.append(("count", flavor, value, path))

        for child, cpath in _child_paths(el, path):
            tag = _prefixed(child.tag)
            if tag == "daml:onProperty":
                resource = child.attrib.get(_RDF_RESOURCE)
                if resource is None:
                    raise DamlImportError(
                        f"onProperty at {_where(cpath)} lacks rdf:resource")
                on_property = self.ref(resource)
                self.leaf(child, cpath)
            elif tag in ("daml:hasClass", "daml:toClass"):
                flavor = "some" if tag == "daml:hasClass" else "only"
                resource = child.attrib.get(_RDF_RESOURCE)
                if resource is not None:
                    self.leaf(child, cpath)
                    pending.append(("class", flavor, self.shared[self.ref(resource)],
                                    cpath))
                    continue
                self.tally(child)
                targets = [self._expr(g, gpath)
                           for g, gpath in _child_paths(child, cpath)]
                if len(targets) != 1:
                    raise DamlImportError(f"{tag.removeprefix('daml:')} at "
                                          f"{_where(cpath)} needs exactly one target")
                pending.append(("class", flavor, targets[0], cpath))
            elif tag in _CARDINALITY_TAGS:
                self.leaf(child, cpath)
                pending.append(("count", _CARDINALITY_TAGS[tag],
                                (child.text or "").strip(), cpath))
            elif tag == "daml:hasValue":
                raise _Unmappable("hasValue restriction")
            else:
                self.skip_tree(child, cpath)

        if on_property is None:
            raise DamlImportError(f"Restriction at {_where(path)} lacks onProperty")
        self.tally(el)

        for kind, flavor, value, vpath in pending:
            if kind == "class":
                parts.append(Restriction(on_property, flavor, target=value))
            else:
                try:
                    count = int(value)
                except ValueError:
                    if _INT_RE.fullmatch(value):  # more digits than int() converts
                        raise DamlImportError(
                            f"cardinality at {_where(vpath)}: integer longer than "
                            f"{sys.get_int_max_str_digits()} digits") from None
                    raise DamlImportError(
                        f"cardinality at {_where(vpath)} is not an integer: "
                        f"{echo(value)}")
                parts.append(Restriction(on_property, flavor, count=count))
        if not parts:
            raise DamlImportError(f"Restriction at {_where(path)} has no constraint")
        if len(parts) == 1:
            return restriction_expr(parts[0])
        return ClassExpression("and",
                               members=tuple(restriction_expr(p) for p in parts))

    def parse_expr_entry(self, el, path: _Loc, where: str) -> ClassExpression | None:
        """The expression `el` denotes, or None when it has no counterpart:
        then `el` is skipped whole and the census and notes read as if the
        expression had never been walked."""
        translated, skipped = dict(self.translated), dict(self.skipped)
        noted = len(self.notes)
        try:
            return self._expr(el, path)
        except _Unmappable as reason:
            self.translated, self.skipped = translated, skipped
            while len(self.notes) > noted:
                self.notes.popitem()
            self.skip_tree(el, path)
            self.note(f"{where}: {reason} skipped")
            return None

    # ---- top-level elements

    def class_element(self, el, path: _Loc, name: str) -> None:
        self.tally(el)
        self.classes.setdefault(name, ClassDefinition(name))
        for child, cpath in _child_paths(el, path):
            tag = _prefixed(child.tag)
            if tag == "rdfs:subClassOf":
                self._axiom_child(name, child, cpath)
            elif tag in ("daml:sameClassAs", "daml:equivalentTo"):
                self._equivalence_child(name, child, cpath)
            elif tag == "daml:disjointWith":
                resource = child.attrib.get(_RDF_RESOURCE)
                if resource is None:
                    self.skip_tree(child, cpath)
                    self.note(f"class {name}: non-named disjointWith skipped")
                else:
                    self.leaf(child, cpath)
                    self.axioms.append(
                        Axiom(DISJOINT, name, self.shared[self.ref(resource)]))
            elif tag in _BOOLEAN_TAGS:
                expr = self.parse_expr_entry(child, cpath, f"class {name}")
                if expr is not None:
                    self._attach_definition(name, expr)
            else:
                self.skip_tree(child, cpath)

    def _attach_definition(self, name: str, expr: ClassExpression) -> None:
        if self.classes[name].definition is None:
            self.classes[name] = ClassDefinition(name, expr)
        else:
            self.note(f"class {name}: extra definition kept as an "
                      "equivalence axiom")
            self.axioms.append(Axiom(SAME_CLASS, name, expr))

    def _axiom_child(self, subject: str, child, cpath: _Loc) -> None:
        resource = child.attrib.get(_RDF_RESOURCE)
        if resource is not None:
            self.leaf(child, cpath)
            self.axioms.append(Axiom(SUBCLASS, subject, self.shared[self.ref(resource)]))
            return
        self.tally(child)
        found = False
        for g, gpath in _child_paths(child, cpath):
            expr = self.parse_expr_entry(g, gpath, f"class {subject}")
            if expr is not None:
                self.axioms.append(Axiom(SUBCLASS, subject, expr))
                found = True
        if not found:
            self.note(f"class {subject}: rdfs:subClassOf carried no "
                      "usable class expression")

    def _equivalence_child(self, name: str, child, cpath: _Loc) -> None:
        resource = child.attrib.get(_RDF_RESOURCE)
        if resource is not None:
            self.leaf(child, cpath)
            self.axioms.append(Axiom(SAME_CLASS, name, self.shared[self.ref(resource)]))
            return
        self.tally(child)
        for g, gpath in _child_paths(child, cpath):
            expr = self.parse_expr_entry(g, gpath, f"class {name}")
            if expr is not None:
                self._attach_definition(name, expr)

    def property_element(self, el, path: _Loc, category: str) -> None:
        name = self.name_of(el)
        if name is None:
            self.skip_tree(el, path)
            self.note("anonymous property element skipped")
            return
        self.tally(el)
        self.declare_property(name, category)
        for child, cpath in _child_paths(el, path):
            tag = _prefixed(child.tag)
            resource = child.attrib.get(_RDF_RESOURCE)
            if tag == "rdfs:domain" and resource is not None:
                self.leaf(child, cpath)
                domain, prop = self.ref(resource), self.props[name]
                if domain not in prop.domains:
                    self.props[name] = PropertyDefinition(
                        name, prop.category, (*prop.domains, domain), prop.range)
            elif tag == "rdfs:range" and resource is not None:
                self._range_child(name, child, cpath, resource)
            else:
                self.skip_tree(child, cpath)

    def _range_child(self, name: str, child, cpath: _Loc, resource: str) -> None:
        local = _local_name(resource)
        prop = self.props[name]
        is_object = prop.category == OBJECT
        if is_object and resource.startswith(_XSD):
            self.skip_tree(child, cpath)
            self.note(f"object property {name}: datatype range {local} dropped")
            return
        if not is_object and local not in DATATYPES:
            self.note(f"datatype {local} on property {name} mapped to string")
        self.leaf(child, cpath)
        if prop.range is not None:
            self.note(f"property {name}: extra range ignored")
        else:
            rng = (self.sanitize(local) if is_object
                   else local if local in DATATYPES else "string")
            self.props[name] = PropertyDefinition(name, prop.category,
                                                  prop.domains, rng)

    def individual_element(self, el, path: _Loc, type_name: str | None) -> None:
        name = self.name_of(el)
        if name is None:
            self.skip_tree(el, path)
            self.note("individual without a name skipped")
            return
        self.tally(el)
        # the types so far, in first-seen order, each once
        types = dict.fromkeys(self.individuals.get(name, Individual(name)).types)
        if type_name is not None:
            types[self.shared[type_name]] = None
        for child, cpath in _child_paths(el, path):
            resource = child.attrib.get(_RDF_RESOURCE)
            if _prefixed(child.tag) == "rdf:type" and resource is not None:
                self.leaf(child, cpath)
                types[self.shared[self.ref(resource)]] = None
            else:
                self.skip_tree(child, cpath)
        self.individuals[name] = Individual(name, tuple(types))

    def top_level(self, el, path: _Loc) -> None:
        tag = _prefixed(el.tag)
        if tag == "daml:Ontology":
            self.leaf(el, path)
            name = self.name_of(el)
            if name is not None and self.ontology_name is None:
                self.ontology_name = name
        elif tag in _CLASS_TAGS:
            name = self.name_of(el)
            if name is None:
                self.skip_tree(el, path)
                self.note("anonymous top-level class skipped")
            else:
                self.class_element(el, path, name)
        elif tag == "daml:Restriction":
            self.skip_tree(el, path)
            self.note("top-level anonymous Restriction skipped")
        elif tag == "daml:ObjectProperty":
            self.property_element(el, path, OBJECT)
        elif tag == "daml:DatatypeProperty":
            self.property_element(el, path, DATATYPE)
        elif tag in ("daml:Property", "rdf:Property"):
            name = self.name_of(el)
            if name is not None:
                self.note(f"untyped property {name} treated as an object property")
            self.property_element(el, path, OBJECT)
        elif tag == "rdf:Description":
            if any(_prefixed(c.tag) == "rdf:type" and _RDF_RESOURCE in c.attrib
                   for c in el):
                self.individual_element(el, path, None)
            else:
                self.skip_tree(el, path)
                self.note("rdf:Description without a type skipped")
        elif ":" not in tag and (_RDF_ABOUT in el.attrib or _RDF_ID in el.attrib):
            # a typed node outside the known namespaces: an individual
            self.individual_element(el, path, self.sanitize(tag))
        else:
            self.skip_tree(el, path)

    # ---- assembly

    def build(self, source_name: str | None) -> Ontology:
        return Ontology(self.ontology_name or source_name or "imported",
                        classes=tuple(self.classes.values()),
                        properties=tuple(self.props.values()),
                        axioms=tuple(self.axioms),
                        individuals=tuple(self.individuals.values()))

    def finish(self, source_name: str | None) -> ImportReport:
        """The report, with each name `validate_ontology` finds dangling
        declared in the order it reports them: classes first, then the
        properties, assumed to be object properties. A declared class has
        no definition or restriction and a declared property no domain or
        range, so declaring raises no defect and leaves every other one as
        it was: those are the report's defects."""
        ontology = self.build(source_name)
        defects = validate_ontology(ontology)
        classes = dict.fromkeys(d.subject for d in defects
                                if d.kind == "danglingClass")
        properties = dict.fromkeys(d.subject for d in defects
                                   if d.kind == "danglingProperty")
        for name in classes:
            self.classes[name] = ClassDefinition(name)
            self.note(f"class {name} referenced but never declared; "
                      "declared automatically")
        for name in properties:
            self.declare_property(name, OBJECT)
            self.note(f"property {name} referenced in a restriction but "
                      "never declared; assumed to be an object property")
        if classes or properties:
            ontology = self.build(source_name)
        translated = tuple(sorted(self.translated.items()))
        skipped = tuple(SkippedEntry(name, count, _where(first))
                        for name, (count, first) in sorted(self.skipped.items()))
        others = tuple(d for d in defects
                       if d.kind not in ("danglingClass", "danglingProperty"))
        return ImportReport(ontology, translated, skipped, tuple(self.notes), others)


def _whole_text_error(source: str | TextIO) -> ET.ParseError | None:
    """The error the XML parser reports on the document fed whole, with no
    tree built; a file is read again from its start, and one that cannot
    seek, such as a pipe, gives None. Fed in pieces the parser can report
    another error: after the root element, "x" alone is junk, but "x<" an
    invalid token one column on."""
    if not isinstance(source, str):
        if not source.seekable():
            return None
        source.seek(0)
        source = source.read()
    parser = ET.XMLParser(target=object())
    try:
        parser.feed(source)
        parser.close()
    except ET.ParseError as exc:
        return exc
    return None


def import_daml(source: str | TextIO,
                source_name: str | None = None) -> ImportReport:
    """Translate an RDF/XML document, a text or a file open for reading
    text (read again on malformed XML when it can seek). Raises
    DamlImportError on malformed XML or structurally broken constructs;
    everything merely unsupported is skipped and reported instead. Malformed
    XML anywhere in the document wins over the first broken construct,
    which wins over any later one; so the document is read to its end."""
    parser = ET.XMLPullParser(("start",))
    importer = _Importer()
    root = None
    error: DamlImportError | None = None
    counts: dict[str, int] = {}

    def translate(children) -> None:
        nonlocal error
        try:
            for child in children:
                tag = _prefixed(child.tag)
                counts[tag] = ordinal = counts.get(tag, 0) + 1
                importer.top_level(child, (_ROOT, tag, ordinal, 1))
        except DamlImportError as exc:
            error = exc

    try:
        for piece in pieces(source):
            parser.feed(piece)
            for _, el in parser.read_events():
                if root is None:
                    root = el
                    if _prefixed(root.tag) != "rdf:RDF":
                        error = DamlImportError("root element must be rdf:RDF")
            if root is not None:
                # every child but the last has closed: a sibling followed it
                done = len(root) - 1
                if error is None:
                    translate(root[:done])
                del root[:done]
        parser.close()
    except ET.ParseError as exc:
        exc = _whole_text_error(source) or exc
        raise DamlImportError(f"malformed XML: {exc}") from exc
    if error is None:
        translate(root)
    if error is not None:
        raise error
    del root  # finish reads no element; let the last ones go before it validates
    return importer.finish(source_name)
