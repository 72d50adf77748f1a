"""Line-oriented ontology text format.

One statement per line; `#` starts a comment; blank lines are ignored.
Forward references are allowed, so statements may arrive in any order.

    ontology NAME
    class NAME
    defined-class NAME = EXPR
    objprop NAME [domain NAME {, NAME}] [range NAME]
    dataprop NAME [domain NAME {, NAME}] [range NAME]
    subclass NAME EXPR
    same-class NAME EXPR
    disjoint NAME NAME
    restriction CLASS PROPERTY (some EXPR | only EXPR | min INT | max INT | exactly INT)
    individual NAME type EXPR {, EXPR}

    EXPR = NAME | and(EXPR, EXPR, ...) | or(EXPR, EXPR, ...) | not(EXPR)
         | restriction(PROPERTY, some|only, EXPR)
         | restriction(PROPERTY, min|max|exactly, INT)

A NAME follows `ontology`'s name rule (NAME_START, then NAME_CHARS), and a
ParseError quotes an offending token as `ontology.echo` cuts it.

Most lines have one of a few fixed shapes: `class N`, a property with its
domains and range, a restriction whose target is a name or a count, a
subclass, same-class or disjoint axiom between two names, and an individual
of one named type. Such a line is matched whole by one pattern and builds
its statement from the groups. Every other line, and every line before the
header, goes through the token cursor. Both ways give the same statement,
and a line the cursor rejects raises the same ParseError either way.

The document is split into lines a piece at a time, and its statements
share equal values through one `ontology.Shared`: a string per word, a
named term per class name and a `domains` tuple per distinct domain list.
A class statement builds its ClassDefinition whole; at the end, each
class's last declaration takes its restrictions; those on an undeclared
class become subclass axioms.
"""

from __future__ import annotations

import re
import sys
from typing import TextIO

from .ontology import (
    CARDINALITY_FLAVORS,
    CLASS_FLAVORS,
    DATATYPE,
    NAME_CHARS,
    NAME_START,
    OBJECT,
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
    Shared,
    echo,
    format_expr,
    pieces,
    restriction_expr,
)

_NAME = rf"[{NAME_START}][{NAME_CHARS}]*"
_TOKEN_RE = re.compile(rf"{_NAME}|\d+|[(),=]|\S")
_NAME_RE = re.compile(rf"{_NAME}\Z")
_INT_RE = re.compile(r"\d+\Z")

# Deepest expression nesting a document may use; a bare name is depth 1.
# It keeps the parser and every recursive walker downstream well inside
# Python's default recursion limit.
MAX_NESTING = 200


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


_EOL = "end of line"


def _count(line: int, column: int, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(line, column, "integer longer than "
                         f"{sys.get_int_max_str_digits()} digits") from None


class _Cursor:
    """Token stream for a single statement line; a token is its regex match.
    `shared` holds the document's shared values."""

    def __init__(self, line_no: int, text: str, shared: Shared):
        self.line = line_no
        self.shared = shared
        self.tokens = list(_TOKEN_RE.finditer(text))
        self.pos = 0
        self.width = len(text)

    def error(self, tok: re.Match, message: str) -> ParseError:
        return ParseError(self.line, tok.start() + 1, message)

    def peek(self) -> re.Match | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str) -> re.Match:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.line, self.width + 1,
                             f"expected {expected}, got {_EOL}")
        self.pos += 1
        return tok

    def name(self, what: str = "a name") -> str:
        tok = self.next(what)
        if not _NAME_RE.match(tok[0]):
            raise self.error(tok, f"expected {what}, got {echo(tok[0])}")
        return tok[0]

    def integer(self) -> int:
        tok = self.next("an integer")
        if not _INT_RE.match(tok[0]):
            raise self.error(tok, f"expected an integer, got {echo(tok[0])}")
        return _count(self.line, tok.start() + 1, tok[0])

    def literal(self, text: str) -> None:
        tok = self.next(repr(text))
        if tok[0] != text:
            raise self.error(tok, f"expected {text!r}, got {echo(tok[0])}")

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == text

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(tok, f"unexpected {echo(tok[0])} after statement")


def _parse_expr(cur: _Cursor, depth: int = 1) -> ClassExpression:
    tok = cur.next("a class expression")
    head = tok[0]
    if not _NAME_RE.match(head):
        raise cur.error(tok, f"expected a class expression, got {echo(head)}")
    if depth > MAX_NESTING:
        raise cur.error(tok, f"expression nested deeper than {MAX_NESTING} levels")
    if head in ("and", "or") and cur.at("("):
        cur.literal("(")
        members = [_parse_expr(cur, depth + 1)]
        while cur.at(","):
            cur.literal(",")
            members.append(_parse_expr(cur, depth + 1))
        cur.literal(")")
        if len(members) < 2:
            raise cur.error(tok, f"{head}() needs at least 2 members")
        return ClassExpression(head, members=tuple(members))
    if head == "not" and cur.at("("):
        cur.literal("(")
        member = _parse_expr(cur, depth + 1)
        cur.literal(")")
        return ClassExpression("not", members=(member,))
    if head == "restriction" and cur.at("("):
        cur.literal("(")
        prop = cur.name("a property name")
        cur.literal(",")
        flavor_tok = cur.next("a restriction flavor")
        cur.literal(",")
        r = _restriction_body(cur, prop, flavor_tok, depth + 1)
        cur.literal(")")
        return restriction_expr(r)
    return cur.shared[head]


def _restriction_body(cur: _Cursor, prop: str, flavor_tok: re.Match,
                     depth: int) -> Restriction:
    """The target expression or count after a restriction's flavor."""
    flavor = flavor_tok[0]
    if flavor in CLASS_FLAVORS:
        return Restriction(prop, flavor, target=_parse_expr(cur, depth))
    if flavor in CARDINALITY_FLAVORS:
        return Restriction(prop, flavor, count=cur.integer())
    raise cur.error(flavor_tok, f"unknown restriction flavor {echo(flavor)}")


def _parse_property(cur: _Cursor, category: str) -> PropertyDefinition:
    name = cur.name("a property name")
    domains: list[str] = []
    rng: str | None = None
    if cur.at("domain"):
        cur.literal("domain")
        domains.append(cur.name("a domain class"))
        while cur.at(","):
            cur.literal(",")
            domains.append(cur.name("a domain class"))
    if cur.at("range"):
        cur.literal("range")
        rng = cur.name("a range name")
    cur.done()
    domains = tuple(domains)
    return PropertyDefinition(name, category,
                              domains=cur.shared.setdefault(domains, domains),
                              range=rng)


# A shape's builder keeps every word through `Shared.words`, so the ontology
# holds each name and keyword once however many statements repeat it.


def _restriction_shape(m: re.Match, line: int,
                       shared: Shared) -> tuple[str, Restriction]:
    words = shared.words
    if m[3] is not None:
        r = Restriction(words[m[2]], words[m[3]], target=shared[m[4]])
    else:
        r = Restriction(words[m[2]], words[m[5]],
                        count=_count(line, m.start(6) + 1, m[6]))
    return words[m[1]], r


def _property_shape(m: re.Match, line: int,
                    shared: Shared) -> PropertyDefinition:
    words = shared.words
    domains = (tuple(map(words.__getitem__, _NAMES_RE.findall(m[3])))
               if m[3] else ())
    return PropertyDefinition(words[m[2]],
                              OBJECT if m[1] == "objprop" else DATATYPE,
                              domains=shared.setdefault(domains, domains),
                              range=None if m[4] is None else words[m[4]])


# The fixed statement shapes, each a whole line: `\s` is what the token
# regex skips and _N is one name token. A match builds the statement the
# cursor would build from the same line.
_N = f"({_NAME})"
_NAMES_RE = re.compile(_NAME)
_SHAPES = (
    (re.compile(rf"\s*restriction\s+{_N}\s+{_N}\s+"
                rf"(?:(some|only)\s+{_N}|(min|max|exactly)\s+(\d+))\s*\Z"),
     _restriction_shape),
    (re.compile(rf"\s*(objprop|dataprop)\s+{_N}"
                rf"(?:\s+domain\s+({_NAME}(?:\s*,\s*{_NAME})*))?"
                rf"(?:\s+range\s+{_N})?\s*\Z"),
     _property_shape),
    (re.compile(rf"\s*class\s+{_N}\s*\Z"),
     lambda m, line, shared: ClassDefinition(shared.words[m[1]])),
    (re.compile(rf"\s*(subclass|same-class|disjoint)\s+{_N}\s+{_N}\s*\Z"),
     lambda m, line, shared: Axiom(shared.words[m[1]], shared.words[m[2]],
                                   shared[m[3]])),
    (re.compile(rf"\s*individual\s+{_N}\s+type\s+{_N}\s*\Z"),
     lambda m, line, shared: Individual(shared.words[m[1]], types=(shared[m[2]],))),
)


def _statement(line_no: int, line: str, after_header: bool, shared: Shared):
    """The statement on one line: the ontology name of a header, a
    (class name, Restriction) pair for a restriction statement, else the
    ClassDefinition, PropertyDefinition, Axiom or Individual it declares;
    a class's local restrictions are attached by `parse`."""
    if after_header:
        for shape, build in _SHAPES:
            m = shape.match(line)
            if m is not None:
                return build(m, line_no, shared)
    cur = _Cursor(line_no, line, shared)
    keyword_tok = cur.next("a statement keyword")
    keyword = keyword_tok[0]
    if not after_header and keyword != "ontology":
        raise cur.error(keyword_tok,
                        "missing ontology header before first statement")

    if keyword == "ontology":
        if after_header:
            raise cur.error(keyword_tok, "duplicate ontology header")
        name = cur.name("an ontology name")
        cur.done()
        return name
    if keyword == "class":
        name = cur.name("a class name")
        cur.done()
        return ClassDefinition(name)
    if keyword == "defined-class":
        name = cur.name("a class name")
        cur.literal("=")
        expr = _parse_expr(cur)
        cur.done()
        return ClassDefinition(name, expr)
    if keyword == "objprop":
        return _parse_property(cur, OBJECT)
    if keyword == "dataprop":
        return _parse_property(cur, DATATYPE)
    if keyword in (SUBCLASS, SAME_CLASS):
        subject = cur.name("a class name")
        expr = _parse_expr(cur)
        cur.done()
        return Axiom(keyword, subject, expr)
    if keyword == DISJOINT:
        first = cur.name("a class name")
        second = cur.name("a class name")
        cur.done()
        return Axiom(DISJOINT, first, cur.shared[second])
    if keyword == "restriction":
        cls = cur.name("a class name")
        prop = cur.name("a property name")
        r = _restriction_body(cur, prop, cur.next("a restriction flavor"), 1)
        cur.done()
        return cls, r
    if keyword == "individual":
        name = cur.name("an individual name")
        cur.literal("type")
        types = [_parse_expr(cur)]
        while cur.at(","):
            cur.literal(",")
            types.append(_parse_expr(cur))
        cur.done()
        return Individual(name, types=tuple(types))
    raise cur.error(keyword_tok, f"unknown statement keyword {echo(keyword)}")


def _lines(source: str | TextIO):
    """The document's lines, read a piece at a time (`ontology.pieces`), so
    no list of all lines is built. Only \n, \r\n and \r end a line
    (str.splitlines also splits at \f, \x85...); a \r\n split between two
    pieces is one line end."""
    open_line: list[str] = []  # the pieces of the line not yet ended
    after_cr = False
    for piece in pieces(source):
        if after_cr and piece.startswith("\n"):
            piece = piece[1:]
        after_cr = piece.endswith("\r")
        head, *ended = piece.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        open_line.append(head)
        if ended:
            yield "".join(open_line)
            open_line = [ended.pop()]
            yield from ended
    yield "".join(open_line)


def parse(source: str | TextIO) -> Ontology:
    """Parse a document, a text or a file open for reading text, into an
    Ontology. Raises ParseError with the line and column of the first
    offending token. No validation beyond syntax: dangling references
    survive parsing and are reported by validate_ontology."""
    ontology_name: str | None = None
    classes: list[ClassDefinition] = []
    class_index: dict[str, int] = {}
    pending_restrictions: dict[str, list[Restriction]] = {}
    properties: list[PropertyDefinition] = []
    axioms: list[Axiom] = []
    individuals: list[Individual] = []
    shared = Shared()

    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stmt = _statement(line_no, line, ontology_name is not None, shared)
        kind = type(stmt)
        if kind is tuple:
            pending_restrictions.setdefault(stmt[0], []).append(stmt[1])
        elif kind is ClassDefinition:
            class_index[stmt.name] = len(classes)
            classes.append(stmt)
        elif kind is PropertyDefinition:
            properties.append(stmt)
        elif kind is Axiom:
            axioms.append(stmt)
        elif kind is Individual:
            individuals.append(stmt)
        else:
            ontology_name = stmt

    if ontology_name is None:
        raise ParseError(1, 1, "missing ontology header")

    # the restrictions on a class go to its last declaration
    for cls_name, restrictions in pending_restrictions.items():
        idx = class_index.get(cls_name)
        if idx is None:
            # restriction on an undeclared class: keep it as an axiom so the
            # dangling reference is still visible to validation
            for r in restrictions:
                axioms.append(Axiom(SUBCLASS, cls_name, restriction_expr(r)))
        else:
            classes[idx] = classes[idx]._replace(local_restrictions=tuple(restrictions))

    return Ontology(ontology_name, classes=tuple(classes),
                    properties=tuple(properties), axioms=tuple(axioms),
                    individuals=tuple(individuals))


# --------------------------------------------------------------------------
# serialization


def _format_restriction_stmt(cls: str, r: Restriction) -> str:
    if r.flavor in CLASS_FLAVORS:
        return f"restriction {cls} {r.on_property} {r.flavor} {format_expr(r.target)}"
    return f"restriction {cls} {r.on_property} {r.flavor} {r.count}"


def serialize(ont: Ontology) -> str:
    """Render an ontology back to text. Statement order follows the stored
    order, so parse(serialize(o)) == o for any well-formed ontology."""
    lines = [f"ontology {ont.name}"]
    for cls in ont.classes:
        if cls.definition is not None:
            lines.append(f"defined-class {cls.name} = {format_expr(cls.definition)}")
        else:
            lines.append(f"class {cls.name}")
        for r in cls.local_restrictions:
            lines.append(_format_restriction_stmt(cls.name, r))
    for prop in ont.properties:
        keyword = "objprop" if prop.category == OBJECT else "dataprop"
        parts = [keyword, prop.name]
        if prop.domains:
            parts.append("domain " + ", ".join(prop.domains))
        if prop.range is not None:
            parts.append(f"range {prop.range}")
        lines.append(" ".join(parts))
    for ax in ont.axioms:
        if ax.kind == DISJOINT:
            lines.append(f"disjoint {ax.subject} {ax.target.name}")
        else:
            lines.append(f"{ax.kind} {ax.subject} {format_expr(ax.target)}")
    for ind in ont.individuals:
        types = ", ".join(format_expr(t) for t in ind.types)
        lines.append(f"individual {ind.name} type {types}")
    return "\n".join(lines) + "\n"
