"""Command line front end.

Exit codes: 0 success (a nonempty review report is still success), 1 input
could not be read or parsed or an artifact not written (then none of the
run's artifacts is left), 2 the ontology has validation defects, 3 the
produced model failed its own consistency check.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import __version__

# The library names the commands call, by the module that defines each. A
# module is imported when a command first reads one of its names, as
# `_lib.name`, so `--help` imports none and each command only those it
# runs. The name is then kept in this module's globals, where a caller may
# replace it (`setattr(cli, name, ...)`) and the commands call the
# replacement.
_HOMES = {
    "parse": "cot", "serialize": "cot", "ParseError": "cot",
    "import_daml": "damlxml", "DamlImportError": "damlxml",
    "validate_ontology": "ontology", "normalize": "ontology",
    # no command calls these six; `bench/run.py --trace 1` wraps them
    "hoist_axiom_restrictions": "ontology",
    "collapse_equivalences": "ontology", "emit_model_json": "emit",
    "emit_plantuml": "emit", "emit_dot": "emit", "emit_report": "emit",
    "classify": "bww", "emit_bww_json": "bww",
    "TransformConfig": "transform", "derive_model": "transform",
    "check_model": "model",
    "iter_model_json": "emit", "iter_plantuml": "emit", "iter_dot": "emit",
    "iter_report": "emit",
}
_lib = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .home import name`, which -X importtime logs as it does any import
    value = getattr(__import__(_HOMES[name], globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


# each kind `transform --emit` takes: (file suffix, render(model, report)),
# where a render returns the artifact's text as an iterable of chunks
_ARTIFACTS = {
    "json": (".model.json", lambda model, _: _lib.iter_model_json(model)),
    "plantuml": (".puml", lambda model, _: _lib.iter_plantuml(model)),
    "dot": (".dot", lambda model, _: _lib.iter_dot(model)),
    "report": (".report.md", lambda model, report: _lib.iter_report(model, report)),
}
EMIT_KINDS = tuple(_ARTIFACTS)
_XML_EXTENSIONS = (".daml", ".rdf", ".xml", ".owl")


class _UsageError(Exception):
    pass


class _Error(Exception):
    """Reported as one `error:` line; exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ont2cm",
                     description="Derive conceptual data models from "
                                 "domain ontologies.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="ontology file (.cot, or RDF/XML)")
        p.add_argument("--format", choices=("cot", "damlxml"), default=None,
                       help="input format; default guesses from the extension")

    p = sub.add_parser("transform",
                       help="derive a conceptual model and write artifacts")
    add_common(p)
    p.add_argument("--out", default=".", metavar="DIR",
                   help="output directory, or - for standard output")
    p.add_argument("--emit", default=",".join(EMIT_KINDS), metavar="LIST",
                   help="comma-separated subset of json,plantuml,dot,report")
    p.add_argument("--composition-heuristics", choices=("on", "off"),
                   default="on",
                   help="upgrade whole-part associations by property name")
    p.add_argument("--no-instances", action="store_true",
                   help="leave ontology individuals out of the model")

    p = sub.add_parser("classify", help="grade classes on ontological depth")
    add_common(p)
    p.add_argument("--out", default=".", metavar="DIR",
                   help="output directory, or - for standard output")

    p = sub.add_parser("check", help="validate an ontology and exit")
    add_common(p)

    p = sub.add_parser("import", help="convert an RDF/XML ontology")
    p.add_argument("input", help="RDF/XML ontology file")
    p.add_argument("--to", choices=("cot",), default="cot",
                   help="target format")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="output directory, or - for standard output")

    return parser


def _load(path_text: str, fmt: str | None):
    """(ontology, its validation defects, the import report of an RDF/XML
    input or None). An RDF/XML import validates what it builds itself. The
    front end reads the open file as it parses, a leading byte order mark
    dropped; a decode error anywhere in the file wins over a parse error."""
    path = Path(path_text)
    if fmt is None:
        fmt = "damlxml" if path.suffix.lower() in _XML_EXTENSIONS else "cot"
    failure = _lib.DamlImportError if fmt == "damlxml" else _lib.ParseError
    try:
        # on either error the file is decoded again whole: a decode error
        # further on wins, and its message gives its byte offset in the file
        try:
            with open(path, encoding="utf-8-sig") as source:
                loaded = (_lib.import_daml(source, source_name=path.stem)
                          if fmt == "damlxml" else _lib.parse(source))
        except failure as exc:
            path.read_text(encoding="utf-8")
            raise _Error(f"{path}: {exc}")
        except UnicodeDecodeError:
            path.read_text(encoding="utf-8")
            raise
    except OSError as exc:
        raise _Error(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _Error(f"{path}: not UTF-8 text: {exc}")
    if fmt == "damlxml":
        return loaded.ontology, loaded.defects, loaded
    return loaded, _lib.validate_ontology(loaded), None


def _reported(defects, prefix: str = "defect") -> int:
    """Print each defect as a `prefix [kind] subject: message` line; count them."""
    for defect in defects:
        _info(f"{prefix} [{defect.kind}] {defect.subject}: {defect.message}")
    return len(defects)


def _write(out: str, artifacts: Iterable[tuple[str, Iterable[str]]]) -> None:
    """Write each (filename, text chunks) artifact into the directory
    `out`, or the one artifact to standard output when `out` is "-". Each
    chunk is encoded as UTF-8, whatever the locale, and written as it comes,
    and an artifact is taken from `artifacts` only once the one before it is
    written. All or none: if one cannot be rendered or written, those this
    call wrote are removed again."""
    target = "standard output" if out == "-" else Path(out)
    written: list[Path] = []
    try:
        if out == "-":
            sys.stdout.flush()
            for _, chunks in artifacts:
                for chunk in chunks:
                    sys.stdout.buffer.write(chunk.encode("utf-8"))
            sys.stdout.buffer.flush()
            return
        target.mkdir(parents=True, exist_ok=True)
        for filename, chunks in artifacts:
            target = Path(out) / filename
            with target.open("wb") as f:
                written.append(target)  # truncated now, so removed on failure
                for chunk in chunks:
                    f.write(chunk.encode("utf-8"))
    except BaseException as exc:
        for path in written:
            path.unlink(missing_ok=True)
        if not isinstance(exc, OSError):
            raise
        if out == "-":  # the buffer keeps the bytes; the flush at exit must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _Error(f"cannot write {exc.filename or target}: {exc.strerror or exc}")
    for path in written:
        _info(f"wrote {path}")


def _emit_list(raw: str) -> list[str]:
    kinds = [k.strip() for k in raw.split(",") if k.strip()]
    if not kinds:
        raise _UsageError("ont2cm: error: --emit needs at least one format")
    unknown = [k for k in kinds if k not in EMIT_KINDS]
    if unknown:
        raise _UsageError(
            f"ont2cm: error: unknown emit format: {', '.join(unknown)}")
    return [k for k in EMIT_KINDS if k in kinds]


def _cmd_transform(args) -> int:
    kinds = _emit_list(args.emit)
    if args.out == "-" and len(kinds) != 1:
        raise _UsageError("ont2cm: error: --out - needs exactly one "
                          "--emit format")
    ontology, defects, import_report = _load(args.input, args.format)
    if _reported(defects):
        return 2
    config = _lib.TransformConfig(
        composition_heuristics=args.composition_heuristics == "on",
        include_instances=not args.no_instances)
    model, report = _lib.derive_model(
        ontology, config=config, import_report=import_report)[:2]
    # only the model and the review report stay live while rendering
    del ontology, import_report
    if _reported(_lib.check_model(model), "internal defect"):
        return 3
    _info(f"{model.name}: {len(model.entity_types)} entity type(s), "
          f"{len(model.relationships)} relationship(s), "
          f"{len(report.items)} flag(s) for review")
    stem = Path(args.input).stem
    # each artifact is rendered as it is written, after the one before it
    _write(args.out, ((stem + suffix, render(model, report))
                      for suffix, render in (_ARTIFACTS[k] for k in kinds)))
    return 0


def _cmd_classify(args) -> int:
    ontology, defects, _ = _load(args.input, args.format)
    if _reported(defects):
        return 2
    collapsed, _, index = _lib.normalize(ontology)
    grading = _lib.classify(collapsed, index)
    _write(args.out, [(Path(args.input).stem + ".bww.json",
                       (_lib.emit_bww_json(grading),))])
    return 0


def _cmd_check(args) -> int:
    ontology, defects, _ = _load(args.input, args.format)
    if _reported(defects):
        return 2
    _info(f"{ontology.name}: no defects")
    return 0


def _cmd_import(args) -> int:
    ontology, _, report = _load(args.input, "damlxml")
    assert report is not None
    _info(f"{ontology.name}: {report.translated_total()} element(s) "
          f"translated, {report.skipped_total()} skipped")
    for note in report.notes:
        _info(f"note: {note}")
    _write(args.out, [(Path(args.input).stem + ".cot",
                       (_lib.serialize(ontology),))])
    return 0


_COMMANDS = {
    "transform": _cmd_transform,
    "classify": _cmd_classify,
    "check": _cmd_check,
    "import": _cmd_import,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _info(str(exc))
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _info(str(exc))
        return 1
    except _Error as exc:
        _info(f"error: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
