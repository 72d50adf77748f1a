"""Exit codes, artifact layout, and stream discipline of the CLI."""

import errno
import importlib.util
import json
import os
import random
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ont2cm import cli, cot, damlxml
from ont2cm.bww import emit_bww_json
from ont2cm.damlxml import import_daml
from ont2cm.ontology import Finding
from ont2cm.transform import derive_model

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).parents[1]


def run(*argv):
    return cli.main(list(argv))


class TestTransform:
    def test_writes_all_four_artifacts(self, tmp_path):
        code = run("transform", str(FIXTURES / "protein-dna.cot"),
                   "--out", str(tmp_path))
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["protein-dna.dot", "protein-dna.model.json",
                         "protein-dna.puml", "protein-dna.report.md"]

    def test_emit_subset(self, tmp_path):
        code = run("transform", str(FIXTURES / "rule1.cot"),
                   "--out", str(tmp_path), "--emit", "json,dot")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["rule1.dot", "rule1.model.json"]

    def test_stdout_single_emit(self, capsys):
        code = run("transform", str(FIXTURES / "rule1.cot"),
                   "--out", "-", "--emit", "json")
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["name"] == "rule1"
        assert "entity type(s)" in captured.err

    def test_stdout_with_two_emits_is_usage_error(self, capsys):
        code = run("transform", str(FIXTURES / "rule1.cot"),
                   "--out", "-", "--emit", "json,dot")
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_emit_format(self, capsys):
        code = run("transform", str(FIXTURES / "rule1.cot"), "--emit", "svg")
        assert code == 1
        assert "unknown emit format" in capsys.readouterr().err

    def test_empty_emit_list_is_usage_error(self, capsys):
        assert run("transform", str(FIXTURES / "rule1.cot"), "--emit", ",") == 1
        assert "at least one format" in capsys.readouterr().err

    def test_validation_defects_exit_2(self, tmp_path, capsys):
        code = run("transform", str(FIXTURES / "dangling.cot"),
                   "--out", str(tmp_path))
        assert code == 2
        assert "danglingClass" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_exit_1(self, capsys):
        assert run("transform", "nosuch.cot") == 1
        assert "cannot read" in capsys.readouterr().err

    def test_syntax_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cot"
        bad.write_text("ontology x\nclass\n")
        assert run("transform", str(bad)) == 1
        assert "line 2" in capsys.readouterr().err

    def test_model_defect_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_model", lambda model: [
            Finding("duplicateId", "et:X", "forced for the test")])
        code = run("transform", str(FIXTURES / "rule1.cot"),
                   "--out", str(tmp_path))
        assert code == 3
        assert "internal defect" in capsys.readouterr().err

    @pytest.mark.parametrize("name,text", [
        ("dt.cot", "ontology t\nclass A\nclass B\ndataprop d\n"
                   "restriction B d some A\n"),
        ("dt.daml", '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
                    ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
                    ' xmlns:daml="http://www.daml.org/2001/03/daml+oil#">'
                    '<daml:Class rdf:ID="A"/><daml:DatatypeProperty rdf:ID="d"/>'
                    '<daml:Class rdf:ID="B"><rdfs:subClassOf><daml:Restriction>'
                    '<daml:onProperty rdf:resource="#d"/>'
                    '<daml:hasClass rdf:resource="#A"/>'
                    '</daml:Restriction></rdfs:subClassOf></daml:Class></rdf:RDF>')])
    def test_class_target_of_a_datatype_property_flagged(self, tmp_path, name, text):
        # the attribute stays and the run is clean; the target is flagged
        source = tmp_path / name
        source.write_text(text)
        assert run("transform", str(source), "--out", str(tmp_path)) == 0
        model = json.loads((tmp_path / "dt.model.json").read_text())
        (b,) = [et for et in model["entityTypes"] if et["name"] == "B"]
        assert [(a["name"], a["datatype"]) for a in b["attributes"]] == [("d", "string")]
        assert "\n- `restriction B.d`: some target A of a datatype property has no " \
            "direct mapping\n" in (tmp_path / "dt.report.md").read_text()

    def test_daml_input_autodetected(self, tmp_path):
        code = run("transform", str(FIXTURES / "protein.daml"),
                   "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "protein.model.json").exists()

    def test_format_override(self, tmp_path):
        renamed = tmp_path / "onto.txt"
        renamed.write_text((FIXTURES / "protein.daml").read_text())
        code = run("transform", str(renamed), "--format", "damlxml",
                   "--out", str(tmp_path / "out"))
        assert code == 0
        assert (tmp_path / "out" / "onto.model.json").exists()

    def test_composition_heuristics_off(self, capsys):
        run("transform", str(FIXTURES / "rule6.cot"), "--out", "-",
            "--emit", "json", "--composition-heuristics", "off")
        data = json.loads(capsys.readouterr().out)
        assert data["relationships"][0]["kind"] == "association"

    def test_no_instances(self, capsys):
        run("transform", str(FIXTURES / "rule1.cot"), "--out", "-",
            "--emit", "json", "--no-instances")
        assert json.loads(capsys.readouterr().out)["instances"] == []

    def test_two_runs_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            assert run("transform", str(FIXTURES / "tambis-mini.cot"),
                       "--out", str(tmp_path / d)) == 0
        for name in ("tambis-mini.model.json", "tambis-mini.puml",
                     "tambis-mini.dot", "tambis-mini.report.md"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()


class TestGoldenArtifacts:
    """Every artifact `transform` and `classify` write, byte for byte."""

    @pytest.mark.parametrize("name, suffix", [
        (name, suffix)
        for name in ("tambis-mini.cot", "protein.daml", "review.cot",
                     "excess.daml")
        for suffix in (".model.json", ".puml", ".dot", ".report.md",
                       ".bww.json")])
    def test_matches_golden_bytes(self, tmp_path, name, suffix):
        source = FIXTURES / name
        assert run("transform", str(source), "--out", str(tmp_path)) == 0
        assert run("classify", str(source), "--out", str(tmp_path)) == 0
        artifact = source.stem + suffix
        assert (tmp_path / artifact).read_bytes() \
            == (FIXTURES / "golden" / artifact).read_bytes()


class TestElementOrder:
    """The top-level elements of an RDF/XML fixture in any order give the
    fixture's model JSON and grading, byte for byte. The review report is
    left out: its skip entries name the first location of each element
    kind, which follows element order."""

    @pytest.mark.parametrize("name, elements", [("protein", 8), ("excess", 5)])
    def test_shuffled_elements_give_the_goldens(self, tmp_path, name, elements):
        root = ET.fromstring((FIXTURES / f"{name}.daml").read_text())
        assert len(root) == elements
        for seed in range(10):
            order = list(root)
            random.Random(seed).shuffle(order)
            root[:] = order
            source = tmp_path / str(seed) / f"{name}.daml"
            source.parent.mkdir()
            source.write_text(ET.tostring(root, encoding="unicode"))
            out = str(source.parent)
            assert run("transform", str(source), "--emit", "json", "--out", out) == 0
            assert run("classify", str(source), "--out", out) == 0
            for suffix in (".model.json", ".bww.json"):
                assert (source.parent / f"{name}{suffix}").read_bytes() \
                    == (FIXTURES / "golden" / f"{name}{suffix}").read_bytes(), \
                    (seed, suffix)


class TestClassify:
    def test_writes_bww_json(self, tmp_path):
        code = run("classify", str(FIXTURES / "rule4.cot"),
                   "--out", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "rule4.bww.json").read_text())
        assert data["concepts"]["Enzyme"]["category"] == "bwwClass"

    def test_stdout(self, capsys):
        assert run("classify", str(FIXTURES / "rule1.cot"), "--out", "-") == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"concepts", "properties", "notes"}

    def test_defects_exit_2(self):
        assert run("classify", str(FIXTURES / "dangling.cot")) == 2

    @pytest.mark.parametrize("name", [
        *(f"rule{i}.cot" for i in range(1, 7)), "protein-dna.cot",
        "protein-dna-only.cot", "review.cot", "tambis-mini.cot",
        "protein.daml", "excess.daml"])
    def test_grades_what_transform_grades(self, tmp_path, name):
        # both commands grade the one normalized ontology
        source = FIXTURES / name
        assert run("classify", str(source), "--out", str(tmp_path)) == 0
        text = source.read_text(encoding="utf-8")
        ontology = (import_daml(text, source_name=source.stem).ontology
                    if source.suffix == ".daml" else cot.parse(text))
        assert (tmp_path / f"{source.stem}.bww.json").read_text(encoding="utf-8") \
            == emit_bww_json(derive_model(ontology)[2])


class TestUnwritableOutput:
    """An artifact that cannot be written is one error line and exit 1."""

    def test_out_names_a_regular_file(self, tmp_path, capsys):
        regular = tmp_path / "notes.txt"
        regular.write_text("keep\n")
        code = run("transform", str(FIXTURES / "rule1.cot"),
                   "--out", str(regular))
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: cannot write {regular}: " in err
        assert "Traceback" not in err
        assert regular.read_text() == "keep\n"

    def test_artifact_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "rule1.bww.json").mkdir()
        code = run("classify", str(FIXTURES / "rule1.cot"),
                   "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: cannot write {tmp_path / 'rule1.bww.json'}: " in err
        assert "Traceback" not in err

    def test_failed_transform_leaves_no_artifact(self, tmp_path, capsys):
        # the model JSON is written before the PlantUML file fails
        (tmp_path / "rule1.puml").mkdir()
        code = run("transform", str(FIXTURES / "rule1.cot"),
                   "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] \
            == [f"error: cannot write {tmp_path / 'rule1.puml'}: Is a directory"]
        assert "wrote" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rule1.puml"]

    def test_partly_written_artifact_removed(self, tmp_path, monkeypatch, capsys):
        # the disk fills halfway through the PlantUML file
        class HalfFull:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        real_open = Path.open

        def open_(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            return HalfFull(f) if path.name == "rule1.puml" else f

        monkeypatch.setattr(Path, "open", open_)
        code = run("transform", str(FIXTURES / "rule1.cot"),
                   "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: cannot write {tmp_path / 'rule1.puml'}: " \
            f"{os.strerror(errno.ENOSPC)}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["json", "report"])
    def test_failed_render_leaves_no_artifact(self, tmp_path, monkeypatch,
                                              capsys, kind):
        # the renderer fails after its first chunk: of the first artifact,
        # or of the last one, once the other three are written
        class RenderError(Exception):
            pass

        suffix, render = cli._ARTIFACTS[kind]

        def failing(model, report):
            yield next(iter(render(model, report)))
            raise RenderError

        monkeypatch.setitem(cli._ARTIFACTS, kind, (suffix, failing))
        with pytest.raises(RenderError):
            run("transform", str(FIXTURES / "rule1.cot"), "--out", str(tmp_path))
        assert "wrote" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    # transform's summary line comes before the error
    @pytest.mark.parametrize("command, lines", [
        (["classify"], 1), (["transform", "--emit", "json"], 2)],
        ids=["classify", "transform"])
    def test_standard_output_full(self, unbuffered, command, lines):
        # buffered, the unwritten bytes would fail the flush at exit again
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ont2cm.cli", *command,
                 str(FIXTURES / "rule1.cot"), "--out", "-"],
                env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == lines
        assert proc.stderr.splitlines()[-1].startswith(
            "error: cannot write standard output: ")


def flat_cot(n: int) -> str:
    """The wide-flat shape: `n` classes without subclass axioms, each with
    an attribute and two restricted object properties."""
    lines = ["ontology flat"]
    for i in range(n):
        cls, some, only = f"W{i:05d}", f"W{i * 7 % n:05d}", f"W{i * 11 % n:05d}"
        lines += [f"class {cls}",
                  f"dataprop a{i:05d} domain {cls} range string",
                  f"objprop r{i:05d} domain {cls} range {some}",
                  f"objprop s{i:05d} domain {cls} range {only}",
                  f"restriction {cls} r{i:05d} some {some}",
                  f"restriction {cls} r{i:05d} max {i % 5 + 1}",
                  f"restriction {cls} s{i:05d} only {only}"]
    return "\n".join(lines) + "\n"


class TestStreamedArtifacts:
    @staticmethod
    def peak_while_writing(tmp_path, *options) -> int:
        """The traced peak of `transform` on `flat_cot(600)` from the model
        check to exit, above the memory in use at the check."""
        tmp_path.mkdir(exist_ok=True)
        source = tmp_path / "flat.cot"
        source.write_text(flat_cot(600))
        # a first run imports the modules the second one's peak leaves out
        assert run("transform", str(source), "--out", str(tmp_path / "first"),
                   *options) == 0
        check_model, start = cli.check_model, []

        def checked(model):
            defects = check_model(model)
            start.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return defects

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "check_model", checked)
            tracemalloc.start()
            try:
                code = run("transform", str(source), "--out", str(tmp_path),
                           *options)
                peak = tracemalloc.get_traced_memory()[1] - start[0]
            finally:
                tracemalloc.stop()
        assert code == 0
        return peak

    def test_peak_while_writing_is_below_the_smallest_diagram(self, tmp_path):
        # from the model check on, no artifact is ever held whole: each is
        # written a record or a line at a time, so the peak stays below
        # the smaller diagram, the PlantUML text
        peak = self.peak_while_writing(tmp_path)
        assert peak < (tmp_path / "flat.puml").stat().st_size, peak

    def test_plantuml_without_constraints_peaks_as_low_as_dot(self, tmp_path):
        # the flat ontology has no constraints, so the PlantUML notes look
        # up no relationship by id and need no map of them
        peaks = {kind: self.peak_while_writing(tmp_path / kind, "--emit", kind)
                 for kind in ("plantuml", "dot")}
        assert peaks["plantuml"] < 1.5 * peaks["dot"], peaks


class TestCheck:
    def test_clean_ontology(self, capsys):
        assert run("check", str(FIXTURES / "tambis-mini.cot")) == 0
        assert "no defects" in capsys.readouterr().err

    def test_defective_ontology(self, capsys):
        assert run("check", str(FIXTURES / "dangling.cot")) == 2
        assert "danglingClass" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "classify", "transform"])
    def test_import_defects_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # an RDF/XML input is validated by its import alone, so a defect
        # the import reports stops each command that reads the ontology
        def defective(text, source_name=None):
            return import_daml(text, source_name)._replace(defects=(
                Finding("badDatatype", "xsd:float", "forced for the test"),))

        monkeypatch.setattr(cli, "import_daml", defective)
        out = [] if command == "check" else ["--out", str(tmp_path)]
        assert run(command, str(FIXTURES / "protein.daml"), *out) == 2
        assert capsys.readouterr().err \
            == "defect [badDatatype] xsd:float: forced for the test\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_utf8_input_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cot"
        bad.write_bytes(b"ontology x\nclass Caf\xe9\n")
        assert run("check", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err
        assert "Traceback" not in err


PIECE = 1 << 16  # characters of an input the front ends read at a time
BOM = b"\xef\xbb\xbf"
DAML_HEAD = ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
             ' xmlns:daml="http://www.daml.org/2001/03/daml+oil#">\n')
# 6,001 and 2,502 lines, each longer than one piece
LONG_COT = "ontology x\n" + "".join(f"class C{i:05d}\n" for i in range(6000))
LONG_DAML = DAML_HEAD + "".join(f'<daml:Class rdf:ID="C{i:05d}"/>\n'
                                for i in range(2500))
# a CRLF document whose \r is the last character of the first piece: the
# header is 17 characters and each class line 14
STRADDLING_COT = "ontology abcdef\r\n" + "".join(f"class C{i:05d}\r\n"
                                                 for i in range(6000))
assert STRADDLING_COT[PIECE - 1:PIECE + 1] == "\r\n"
NOT_UTF8 = "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position {}: " \
    "invalid continuation byte"
JUNK = "line 6002, column 9: unexpected 'junk' after statement"
MISMATCHED = "malformed XML: mismatched tag: line 2503, column 14"

# (file name, its bytes, the message after "error: <path>: "); a message
# with {} gives the position of the byte 0xe9 in the file
INPUT_ERRORS = {
    "cot-non-utf8-after-parse-error": (
        "a.cot", b"ontology x\nclass !\nclass Caf\xe9\n", NOT_UTF8),
    "daml-non-utf8-after-malformed-xml": (
        "b.daml", b"<rdf:RDF>\n<a></b>\n<!-- caf\xe9 -->\n</rdf:RDF>\n", NOT_UTF8),
    "daml-non-utf8-after-import-error": (
        "c.daml", b"<x>\n<!-- caf\xe9 -->\n</x>\n", NOT_UTF8),
    "cot-non-utf8-pieces-after-parse-error": (
        "a2.cot", b"ontology x\nclass !\n" + LONG_COT.encode() + b"class Caf\xe9\n",
        NOT_UTF8),
    "daml-non-utf8-pieces-after-malformed-xml": (
        "b2.daml", b"<rdf:RDF>\n<a></b>\n" + LONG_DAML.encode()
        + b"<!-- caf\xe9 -->\n</rdf:RDF>\n", NOT_UTF8),
    "daml-non-utf8-pieces-after-import-error": (
        "c2.daml", b"<x>\n" + LONG_DAML.encode() + b"<!-- caf\xe9 -->\n</x>\n",
        NOT_UTF8),
    "cot-non-utf8-beyond-first-piece": (
        "d.cot", LONG_COT.encode() + b"class Caf\xe9\n", NOT_UTF8),
    "daml-non-utf8-beyond-first-piece": (
        "e.daml", LONG_DAML.encode() + b"<!-- caf\xe9 -->\n</rdf:RDF>\n",
        NOT_UTF8),
    "cot-bom-crlf-straddling": (
        "f.cot", BOM + STRADDLING_COT.encode() + b"class C junk\r\n", JUNK),
    "cot-lone-cr": (
        "g.cot", LONG_COT.replace("\n", "\r").encode() + b"class C junk\r", JUNK),
    "daml-bom-crlf-malformed-xml": (
        "h.daml", BOM + LONG_DAML.replace("\n", "\r\n").encode()
        + b"<daml:Class></daml:Klass>\r\n</rdf:RDF>\r\n", MISMATCHED),
    "daml-malformed-xml-beyond-first-piece": (
        "i.daml", (LONG_DAML + "<daml:Class></daml:Klass>\n</rdf:RDF>\n").encode(),
        MISMATCHED),
}


class TestInputErrors:
    """The exact error line and exit code of an input that cannot be read,
    decoded or parsed, wherever in the file the fault is: a decode error
    anywhere wins over a parse error and gives its byte offset in the file.
    `import` reads every input as RDF/XML, so it takes the .daml cases."""

    @staticmethod
    def outcome(tmp_path, capsys, command, path):
        out = [] if command == "check" else ["--out", str(tmp_path / "out")]
        code = run(command, str(path), *out)
        assert not (tmp_path / "out").exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "transform", "import"])
    @pytest.mark.parametrize("suffix", [".cot", ".daml"])
    def test_missing_file(self, tmp_path, capsys, command, suffix):
        path = tmp_path / f"missing{suffix}"
        assert self.outcome(tmp_path, capsys, command, path) \
            == (1, f"error: cannot read {path}: No such file or directory\n")

    @pytest.mark.parametrize("command, case", [
        (command, case) for command in ("check", "transform", "import")
        for case in INPUT_ERRORS
        if command != "import" or case.startswith("daml")])
    def test_error_line(self, tmp_path, capsys, command, case):
        name, data, message = INPUT_ERRORS[case]
        path = tmp_path / name
        path.write_bytes(data)
        message = message.format(data.find(b"\xe9"))
        assert self.outcome(tmp_path, capsys, command, path) \
            == (1, f"error: {path}: {message}\n")


def _bench_documents():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [doc for workload in workloads.WORKLOADS
            for doc in workloads.generate(workload, 1)]


# (name, text): the fixtures, the seed-1 benchmark documents, each longer
# than one piece, and a document whose CRLF copy has a \r\n across pieces
DOCUMENTS = [(path.name, path.read_text(encoding="utf-8"))
             for path in sorted(FIXTURES.glob("*.*"))] \
    + [(doc.stem + doc.suffix, doc.text) for doc in _bench_documents()] \
    + [("straddling.cot", STRADDLING_COT.replace("\r\n", "\n"))]


class TestOpenFileInput:
    """Both front ends read a file open for reading text as they read its
    text, whether the file object translates line ends or not, and a text
    with CRLF line ends as one with LF line ends."""

    @pytest.mark.parametrize("name, text", DOCUMENTS,
                             ids=[name for name, _ in DOCUMENTS])
    def test_file_reads_as_its_text(self, tmp_path, name, text):
        def front_end(source):
            if name.endswith(".cot"):
                return cot.parse(source)
            return import_daml(source, source_name=Path(name).stem)

        expected = front_end(text)
        crlf = text.replace("\n", "\r\n")
        assert front_end(crlf) == expected
        # newline="" keeps the CRLF line ends in the pieces read
        for newline, write in ((None, text), ("", crlf)):
            path = tmp_path / name
            path.write_bytes(write.encode("utf-8"))
            with open(path, encoding="utf-8", newline=newline) as source:
                assert front_end(source) == expected, newline

    def test_line_end_across_pieces(self, tmp_path):
        # its \r\n ends one line, so the junk is on the line after 6,001
        text = STRADDLING_COT + "class C junk\r\n"
        path = tmp_path / "straddling.cot"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8", newline="") as source:
            for document in (text, source):
                with pytest.raises(cot.ParseError) as exc:
                    cot.parse(document)
                assert (exc.value.line, exc.value.column) == (6002, 9)

    def test_malformed_xml_from_a_pipe(self):
        # a pipe cannot be read again whole, so the error is the one the
        # pieces gave, here the same
        text = "<r>\n<a></b>\n</r>\n"
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode("utf-8"))
        os.close(write_end)
        with open(read_end, encoding="utf-8") as source:
            for document in (text, source):
                with pytest.raises(damlxml.DamlImportError) as exc:
                    import_daml(document)
                assert str(exc.value) == "malformed XML: mismatched tag: line 2, column 5"


def nested_cot(depth: int) -> str:
    """A subclass axiom whose target is a complement chain `depth` deep."""
    inner = "not(" * (depth - 1) + "B" + ")" * (depth - 1)
    return f"ontology deep\nclass A\nclass B\nsubclass A {inner}\n"


def nested_daml(depth: int) -> str:
    """A class whose superclass is a complement chain reaching `depth`
    elements below rdf:RDF."""
    tags = ['daml:Class rdf:ID="A"', "rdfs:subClassOf"]
    while len(tags) < depth - 1:
        tags.append("daml:Class" if tags[-1] != "daml:Class"
                    else "daml:complementOf")
    leaf = ('<daml:complementOf rdf:resource="#B"/>'
            if tags[-1] == "daml:Class" else '<daml:Class rdf:about="#B"/>')
    opened = "".join(f"<{t}>" for t in tags)
    closed = "".join(f"</{t.split()[0]}>" for t in reversed(tags))
    return ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            'xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#" '
            'xmlns:daml="http://www.daml.org/2001/03/daml+oil#">'
            f'<daml:Class rdf:ID="B"/>{opened}{leaf}{closed}</rdf:RDF>\n')


def min_cardinality_daml(value: str) -> str:
    return ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            'xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#" '
            'xmlns:daml="http://www.daml.org/2001/03/daml+oil#">'
            '<daml:Class rdf:ID="A"><rdfs:subClassOf><daml:Restriction '
            f'daml:minCardinality="{value}"><daml:onProperty rdf:resource="#p"/>'
            '</daml:Restriction></rdfs:subClassOf></daml:Class></rdf:RDF>')


class TestNestingBound:
    @pytest.mark.parametrize("name, text", [
        ("deep.cot", nested_cot(1200)), ("deep.daml", nested_daml(1200))])
    def test_too_deep_input_exit_1(self, tmp_path, capsys, name, text):
        source = tmp_path / name
        source.write_text(text)
        assert run("check", str(source)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested deeper than" in err and "Traceback" not in err

    @pytest.mark.parametrize("name, text", [
        ("bound.cot", nested_cot(cot.MAX_NESTING)),
        ("bound.daml", nested_daml(damlxml.MAX_DEPTH))])
    def test_input_at_the_bound_transforms(self, tmp_path, name, text):
        source = tmp_path / name
        source.write_text(text)
        assert run("transform", str(source), "--out", str(tmp_path)) == 0
        assert run("classify", str(source), "--out", str(tmp_path)) == 0

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() has no digit limit")
    def test_overlong_cardinality_exit_1(self, tmp_path, capsys):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        source = tmp_path / "long.cot"
        source.write_text(f"ontology long\nclass A\nobjprop p\n"
                          f"restriction A p min {digits}\n")
        assert run("transform", str(source), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "line 4, column 21: integer longer than" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [source]

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() has no digit limit")
    def test_overlong_daml_cardinality_exit_1(self, tmp_path, capsys):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        source = tmp_path / "long.daml"
        source.write_text(min_cardinality_daml(digits))
        assert run("transform", str(source), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "integer longer than" in err and len(err) < 200
        assert list(tmp_path.iterdir()) == [source]

    @pytest.mark.parametrize("value, shown", [
        ("x" * 300, f"is not an integer: {'x' * 32!r}...\n"),
        ("12abc", "is not an integer: '12abc'\n")], ids=["long", "short"])
    def test_non_integer_daml_cardinality_exit_1(self, tmp_path, capsys,
                                                 monkeypatch, value, shown):
        # a relative path, so the line's length is the message's own
        monkeypatch.chdir(tmp_path)
        Path("bad.daml").write_text(min_cardinality_daml(value))
        assert run("transform", "bad.daml", "--out", ".") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad.daml: ") and err.count("\n") == 1
        assert err.endswith(shown) and len(err) < 200
        assert [p.name for p in tmp_path.iterdir()] == ["bad.daml"]

    @pytest.mark.parametrize("line, shown", [
        ("restriction A p min " + "x" * 300,
         f"column 21: expected an integer, got {'x' * 32!r}...\n"),
        ("x" * 300 + " A",
         f"column 1: unknown statement keyword {'x' * 32!r}...\n"),
        ("class A " + "x" * 300,
         f"column 9: unexpected {'x' * 32!r}... after statement\n"),
    ], ids=["integer", "keyword", "unexpected"])
    def test_long_token_echo_is_cut(self, tmp_path, capsys, monkeypatch,
                                    line, shown):
        # a relative path, so the line's length is the message's own
        monkeypatch.chdir(tmp_path)
        Path("long.cot").write_text(f"ontology long\nclass A\nobjprop p\n{line}\n")
        assert run("transform", "long.cot", "--out", ".") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: long.cot: line 4, ") and err.count("\n") == 1
        assert err.endswith(shown) and len(err) < 200
        assert [p.name for p in tmp_path.iterdir()] == ["long.cot"]

    def test_bounds_are_exact(self):
        with pytest.raises(cot.ParseError, match="line 4"):
            cot.parse(nested_cot(cot.MAX_NESTING + 1))
        with pytest.raises(damlxml.DamlImportError,
                           match=r"at rdf:RDF/daml:Class\[2\]/"):
            import_daml(nested_daml(damlxml.MAX_DEPTH + 1))


class TestImport:
    def test_stdout_round_trips(self, capsys):
        assert run("import", str(FIXTURES / "protein.daml"), "--out", "-") == 0
        captured = capsys.readouterr()
        direct = import_daml((FIXTURES / "protein.daml").read_text(),
                             source_name="protein")
        assert cot.parse(captured.out) == direct.ontology
        assert "18 element(s) translated" in captured.err

    def test_prints_its_notes(self, tmp_path, capsys):
        source = tmp_path / "untyped.daml"
        source.write_text(
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            'xmlns:daml="http://www.daml.org/2001/03/daml+oil#">'
            '<daml:Property rdf:about="#relates"/></rdf:RDF>')
        assert run("import", str(source), "--out", str(tmp_path)) == 0
        assert "note: untyped property relates treated as an object " \
            "property\n" in capsys.readouterr().err

    def test_writes_cot_file(self, tmp_path):
        assert run("import", str(FIXTURES / "excess.daml"),
                   "--out", str(tmp_path)) == 0
        text = (tmp_path / "excess.cot").read_text()
        assert text.startswith("ontology excess\n")

    def test_malformed_xml_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.daml"
        bad.write_text("<rdf:RDF")
        assert run("import", str(bad)) == 1
        assert "malformed XML" in capsys.readouterr().err


class TestInvocation:
    def test_no_command(self, capsys):
        assert run() == 1
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "transform" in capsys.readouterr().out

    def test_version(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out.startswith("ont2cm ")


class TestEncoding:
    """Artifacts are UTF-8 bytes whatever the locale says, and an input may
    start with a byte order mark."""

    def transform(self, tmp_path, out, env):
        source = tmp_path / "proteine.daml"
        source.write_text(
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            'xmlns:daml="http://www.daml.org/2001/03/daml+oil#">'
            '<daml:Class rdf:about="#Protéine"/></rdf:RDF>', encoding="utf-8")
        src = str(Path(__file__).parents[1] / "src")
        return subprocess.run(
            [sys.executable, "-m", "ont2cm.cli", "transform", str(source),
             "--out", out, "--emit", "report"],
            env={**os.environ, **env, "PYTHONPATH": src}, capture_output=True)

    def test_ascii_locale_writes_utf8(self, tmp_path):
        # an empty PYTHONIOENCODING counts as unset, so an inherited one
        # cannot mask the locale
        ascii_env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                     "PYTHONUTF8": "0", "PYTHONIOENCODING": ""}
        utf8 = self.transform(tmp_path, str(tmp_path / "utf8"), {"PYTHONUTF8": "1"})
        assert utf8.returncode == 0, utf8.stderr
        expected = (tmp_path / "utf8" / "proteine.report.md").read_bytes()
        assert "name 'Protéine' adjusted".encode("utf-8") in expected
        to_file = self.transform(tmp_path, str(tmp_path / "c"), ascii_env)
        assert to_file.returncode == 0, to_file.stderr
        assert (tmp_path / "c" / "proteine.report.md").read_bytes() == expected
        to_stdout = self.transform(tmp_path, "-", ascii_env)
        assert to_stdout.returncode == 0, to_stdout.stderr
        assert to_stdout.stdout == expected

    @pytest.mark.parametrize("name", ["tambis-mini.cot", "protein.daml"])
    def test_leading_bom_is_dropped(self, tmp_path, name):
        source = tmp_path / "in" / name
        source.parent.mkdir()
        source.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
        out = tmp_path / "out"
        assert run("transform", str(source), "--out", str(out)) == 0
        assert run("classify", str(source), "--out", str(out)) == 0
        for suffix in (".model.json", ".puml", ".dot", ".report.md", ".bww.json"):
            artifact = source.stem + suffix
            assert (out / artifact).read_bytes() \
                == (FIXTURES / "golden" / artifact).read_bytes(), artifact


def fresh_cli(*args, **kwargs):
    """`args` run by a new interpreter, the package from this checkout and
    no bytecode written."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **kwargs)


class TestLazyImports:
    """Each command imports only the library modules it runs, and a name
    replaced on the cli module is the one the command calls."""

    COT = str(FIXTURES / "rule1.cot")
    DAML = str(FIXTURES / "protein.daml")

    @pytest.mark.parametrize("argv, modules", [
        (["--help"], set()),
        (["--version"], set()),
        (["check", COT], {"cot", "ontology"}),
        (["classify", COT, "--out", "-"], {"cot", "ontology", "bww"}),
        (["transform", COT, "--out", "{out}"],
         {"cot", "ontology", "bww", "model", "transform", "emit"}),
        (["classify", DAML, "--out", "-"], {"damlxml", "ontology", "bww"}),
        (["transform", DAML, "--out", "{out}"],
         {"damlxml", "ontology", "bww", "model", "transform", "emit"}),
        (["import", DAML, "--out", "-"], {"damlxml", "cot", "ontology"}),
    ], ids=["help", "version", "check", "classify", "transform",
            "classify-daml", "transform-daml", "import"])
    def test_import_set(self, tmp_path, argv, modules):
        argv = [a.replace("{out}", str(tmp_path)) for a in argv]
        # -X importtime logs every import, from a cache or not; run as
        # __main__, the cli module itself is not among them
        result = fresh_cli("-X", "importtime", "-m", "ont2cm.cli", *argv)
        assert result.returncode == 0, result.stderr
        imported = {line.rpartition("|")[2].strip()
                    for line in result.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "ont2cm" in imported
        assert {name.removeprefix("ont2cm.") for name in imported
                if name.startswith("ont2cm.")} == modules
        xml = any(name.startswith("xml.etree") for name in imported)
        assert xml == ("damlxml" in modules)
        # values are NamedTuples: no command builds a dataclass
        assert not imported & {"dataclasses", "inspect"}

    SCRIPT = """
import json, sys
import run
from ont2cm import cli

names = sorted(set(run._CLI_CALLS)
               | {"check_model", "normalize", "iter_model_json",
                  "iter_plantuml", "iter_dot", "iter_report"})
counts = dict.fromkeys(names, 0)

def counting(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name in names:
    setattr(cli, name, counting(name, getattr(cli, name)))
code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "counts": counts,
                  "unknown": hasattr(cli, "no_such_name")}))
"""
    # a COT ontology is validated by the command, an RDF/XML one by its
    # import alone
    LOAD = ["validate_ontology"]
    # hoist_axiom_restrictions and collapse_equivalences resolve, but only
    # normalize calls them
    GRADE = ["normalize", "classify", "emit_bww_json"]
    # the emit_* names resolve, but transform writes the iter_* chunks
    DERIVE = ["derive_model", "check_model", "iter_model_json",
              "iter_plantuml", "iter_dot", "iter_report"]

    @pytest.mark.parametrize("command, source, path", [
        ("check", COT, ["parse"] + LOAD),
        ("classify", COT, ["parse"] + LOAD + GRADE),
        ("classify", DAML, ["import_daml"] + GRADE),
        ("transform", COT, ["parse"] + LOAD + DERIVE),
        ("transform", DAML, ["import_daml"] + DERIVE),
    ], ids=["check", "classify", "classify-daml", "transform",
            "transform-daml"])
    def test_replaced_names_are_called(self, tmp_path, command, source, path):
        # bench/run.py --trace 1 wraps these names the same way
        argv = [command, source] + ([] if command == "check"
                                    else ["--out", str(tmp_path)])
        result = fresh_cli("-c", self.SCRIPT, *argv, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["exit"] == 0 and report["unknown"] is False
        assert set(path) <= report["counts"].keys()
        assert report["counts"] == {name: int(name in path)
                                    for name in report["counts"]}


class TestRelease:
    """`transform` renders with only the model and the review report live:
    the ontology, its import report and its grading are released first."""

    SCRIPT = """
import gc, json, sys
from ont2cm import bww, cli, damlxml, ontology

LEFT_BEHIND = (ontology.Ontology, ontology.ClassDefinition,
               damlxml.ImportReport, bww.BwwReport)
live = []
emit = cli.iter_model_json

def counting(model):
    gc.collect()
    live.append(sum(isinstance(o, LEFT_BEHIND) for o in gc.get_objects()))
    return emit(model)

cli.iter_model_json = counting
code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "live": live}))
"""

    @pytest.mark.parametrize("source", ["tambis-mini.cot", "protein.daml"])
    def test_input_released_before_rendering(self, tmp_path, source):
        result = fresh_cli("-c", self.SCRIPT, "transform",
                           str(FIXTURES / source), "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == {"exit": 0,
                                                              "live": [0]}
