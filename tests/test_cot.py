"""Text format: parsing, error reporting and round-trips."""

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ont2cm import cot, ontology
from ont2cm.ontology import (
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
    named,
    restriction_expr,
    validate_ontology,
)
from strategies import ontologies

SAMPLE = """\
# proteins and what they bind
ontology sample

class Protein
class DNA
defined-class Binder = and(Protein, restriction(binds, some, DNA))

objprop binds domain Protein range DNA
dataprop accession domain Protein range string

subclass Protein DNA
disjoint Protein DNA
restriction Protein binds min 1
individual p53 type Protein, Binder
"""


def test_parse_sample_document():
    o = cot.parse(SAMPLE)
    assert o == Ontology(
        "sample",
        classes=(
            ClassDefinition("Protein", local_restrictions=(
                Restriction("binds", "min", count=1),)),
            ClassDefinition("DNA"),
            ClassDefinition("Binder", definition=ClassExpression(
                "and", members=(named("Protein"), restriction_expr(
                    Restriction("binds", "some", target=named("DNA")))))),
        ),
        properties=(
            PropertyDefinition("binds", "object", domains=("Protein",), range="DNA"),
            PropertyDefinition("accession", "datatype", domains=("Protein",),
                               range="string"),
        ),
        axioms=(
            Axiom(SUBCLASS, "Protein", named("DNA")),
            Axiom(DISJOINT, "Protein", named("DNA")),
        ),
        individuals=(Individual("p53", types=(named("Protein"), named("Binder"))),),
    )


def test_parse_multi_domain_property():
    o = cot.parse("ontology t\nclass A\nclass B\nobjprop p domain A, B range A\n")
    assert o.properties == (
        PropertyDefinition("p", "object", domains=("A", "B"), range="A"),)


def test_parse_same_class_and_nested_expr():
    o = cot.parse("ontology t\nclass A\nclass B\n"
                  "same-class A or(B, not(A))\n")
    ax = o.axioms[0]
    assert ax.kind == SAME_CLASS
    assert ax.target.op == "or"
    assert ax.target.members[1].op == "not"


def test_restriction_on_undeclared_class_becomes_axiom():
    o = cot.parse("ontology t\nobjprop p\nrestriction Ghost p min 2\n")
    assert o.classes == ()
    assert o.axioms == (Axiom(SUBCLASS, "Ghost", restriction_expr(
        Restriction("p", "min", count=2))),)
    assert any(d.kind == "danglingClass" for d in validate_ontology(o))


def test_forward_references_allowed():
    o = cot.parse("ontology t\nsubclass A B\nclass A\nclass B\n")
    assert validate_ontology(o) == []


# statement keywords, expression syntax and stray tokens, for random text
COT_WORDS = [
    "ontology", "class", "defined-class", "objprop", "dataprop", "subclass",
    "same-class", "disjoint", "restriction", "individual", "type", "domain",
    "range", "some", "only", "min", "max", "exactly", "and(", "or(", "not(",
    "restriction(", "(", ")", ",", "=", "#", "\n", "A", "B", "p", "0", "7",
    "-1", "1e3"]

# int() refuses digit strings longer than this; 0 where it has no limit
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(not INT_DIGITS,
                                     reason="int() has no digit limit")


class TestErrors:
    @pytest.mark.parametrize("text,line,fragment", [
        ("class A\n", 1, "missing ontology header"),
        ("ontology t\nontology t\n", 2, "duplicate ontology header"),
        ("ontology t\nfrobnicate A\n", 2, "unknown statement keyword"),
        ("ontology t\nclass\n", 2, "expected a class name"),
        ("ontology t\nclass A extra\n", 2, "unexpected 'extra'"),
        ("ontology t\ndefined-class A and(B, C)\n", 2, "expected '='"),
        ("ontology t\nclass A\nrestriction A p zilch 1\n", 3,
         "unknown restriction flavor"),
        ("ontology t\nclass A\nrestriction A p min x\n", 3,
         "expected an integer"),
        ("ontology t\nsubclass A and(B)\n", 2, "at least 2 members"),
        ("ontology t\nsubclass A and(B, C\n", 2, "expected ')'"),
        ("ontology t\nindividual x\n", 2, "expected 'type'"),
        pytest.param(
            "ontology t\nclass A\nrestriction A p min " + "9" * (INT_DIGITS + 1),
            3, f"column 21: integer longer than {INT_DIGITS} digits",
            marks=needs_int_limit),
        ("", 1, "missing ontology header"),
        ("# only comments\n\n", 1, "missing ontology header"),
    ])
    def test_error_location_and_message(self, text, line, fragment):
        with pytest.raises(cot.ParseError) as exc:
            cot.parse(text)
        assert exc.value.line == line
        assert fragment in str(exc.value)

    def test_column_points_at_offending_token(self):
        with pytest.raises(cot.ParseError) as exc:
            cot.parse("ontology t\nclass A junk\n")
        assert (exc.value.line, exc.value.column) == (2, 9)

    # str.splitlines ends a line at each of these; the format does not
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"])
    def test_only_newlines_end_a_line(self, char):
        text = f"ontology x\n# note {char} here\nclass A\n"
        assert cot.parse(text).classes == (ClassDefinition("A"),)
        with pytest.raises(cot.ParseError) as exc:
            cot.parse(text + "class !\n")
        assert (exc.value.line, exc.value.column) == (4, 7)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_ends(self, newline):
        text = newline.join(["ontology x", "class A", "", "class !", ""])
        with pytest.raises(cot.ParseError) as exc:
            cot.parse(text)
        assert exc.value.line == 4

    MIXED = "ontology x\r\nclass A\rclass B\n\r\nclass C # c\r\rclass D"

    # the document is split into lines a piece at a time; any piece size,
    # down to one character, gives the lines of a whole-text split
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 1 << 16])
    def test_mixed_line_ends_in_any_chunks(self, chunk, monkeypatch):
        monkeypatch.setattr(ontology, "PIECE_CHARS", chunk)
        # the last line has no line end
        assert [c.name for c in cot.parse(self.MIXED).classes] == list("ABCD")
        with pytest.raises(cot.ParseError) as exc:
            cot.parse(self.MIXED + " junk")
        assert (exc.value.line, exc.value.column) == (7, 9)
        with pytest.raises(cot.ParseError) as exc:
            cot.parse(self.MIXED.replace("class B", "class B junk"))
        assert (exc.value.line, exc.value.column) == (3, 9)

    def test_error_on_the_last_line_of_many_chunks(self):
        ends = ("\n", "\r\n", "\r")
        text = "".join(f"class C{i}{ends[i % 3]}" for i in range(30000))
        assert len(text) > 4 * ontology.PIECE_CHARS
        with pytest.raises(cot.ParseError) as exc:
            cot.parse(f"ontology x\n{text}class C junk")
        assert (exc.value.line, exc.value.column) == (30002, 9)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.sampled_from(["", "ontology t\n"]), st.one_of(
        st.text(max_size=60),
        st.lists(st.one_of(st.sampled_from(COT_WORDS), st.text(max_size=3)),
                 max_size=40).map(" ".join))).map("".join))
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            result = cot.parse(text)
        except cot.ParseError:
            return
        assert isinstance(result, Ontology)


def parsed(text: str):
    """The Ontology parsed from `text`, or its ParseError's place and
    message."""
    try:
        return cot.parse(text)
    except cot.ParseError as exc:
        return exc.line, exc.column, exc.message


@st.composite
def mutated_documents(draw):
    """A serialized ontology with one to four lines edited: a word inserted,
    replaced or deleted, and the gaps between words, leading whitespace
    included, drawn anew."""
    lines = cot.serialize(draw(ontologies())).split("\n")
    words = st.sampled_from(COT_WORDS + ["", "1abc", "A,B", "and", "\t"])
    gaps = st.sampled_from(["", " ", "\t", "\xa0"])
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split(" ")
        j = draw(st.integers(0, len(parts) - 1))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "none"]))
        if edit == "insert":
            parts.insert(j, draw(words))
        elif edit == "replace":
            parts[j] = draw(words)
        elif edit == "delete":
            del parts[j]
        if draw(st.booleans()):
            lines[i] = "".join(draw(gaps) + part for part in parts)
        else:
            lines[i] = " ".join(parts)
    return "\n".join(lines)


class TestShapes:
    def test_cursor_reads_only_lines_without_a_fixed_shape(self, monkeypatch):
        read = []
        cursor = cot._Cursor
        monkeypatch.setattr(cot, "_Cursor",
                            lambda line, *rest: read.append(line) or cursor(line, *rest))
        cot.parse(SAMPLE)
        # the header, the definition and the individual of two types
        assert read == [2, 6, 14]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(ontologies().map(cot.serialize), mutated_documents()))
    @example("ontology t\nrestriction A p some and\n")
    @example("ontology t\nrestriction A p some and(B, C)\n")
    @example("ontology t\nobjprop p domain A,B range C\n")
    @example("ontology t\nobjprop p domain A , B,C\n")
    @example("ontology t\nobjprop p domain range\n")
    @example("ontology t\nobjprop p domain A, range B\n")
    @example("ontology t\nobjprop p domain Arange B\n")
    @example("ontology t\nrestriction A p min 1abc\n")
    @example("ontology t\nrestriction A p exactly \u0663\n")
    @example("ontology t\nrestriction A p max " + "9" * 5000 + "\n")
    @example("ontology t\nrestriction A p min " + "x" * 300 + "\n")
    @example("ontology t\nclass A " + "x" * 300 + "\n")
    @example("ontology t\ndisjoint A\n")
    @example("ontology t\nsubclass\tA\xa0B\t\n")
    @example("ontology t\nclass\x1cA\n")
    @example("ontology t\n \t  individual i type type\n")
    @example("class A\nontology t\n")
    def test_shapes_parse_as_the_cursor_does(self, text):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cot, "_SHAPES", ())
            expected = parsed(text)
        assert parsed(text) == expected


class TestRoundTrip:
    def test_serialize_sample_is_stable(self):
        o = cot.parse(SAMPLE)
        text = cot.serialize(o)
        assert cot.parse(text) == o
        assert cot.serialize(cot.parse(text)) == text

    def test_comments_and_blanks_do_not_survive(self):
        text = cot.serialize(cot.parse(SAMPLE))
        assert "#" not in text
        assert "\n\n" not in text

    @settings(max_examples=200, deadline=None)
    @given(ontologies())
    def test_parse_inverts_serialize(self, o):
        assert cot.parse(cot.serialize(o)) == o

    @settings(max_examples=100, deadline=None)
    @given(ontologies())
    def test_serialize_is_canonical(self, o):
        text = cot.serialize(o)
        assert cot.serialize(cot.parse(text)) == text
