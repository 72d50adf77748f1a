"""In-process pass over the pipeline's layers, called from outside.

`pipeline` runs one document through the public functions of each module in
the order `ont2cm transform` and `ont2cm classify` use them, handing every
call to a `step(name, fn)` callback. `Tracer.step` records a span per call;
`memory_pass` records each call's tracemalloc peak instead. The two never
run together, so allocation tracing never inflates a timed span.

Between the index and grading the pass calls `ancestors` and
`direct_restrictions` for every class (`ontology.closure`). That fills the
index's caches, so `bww.classify` and `transform` are charged only for
their own work.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field

from ont2cm import cot
from ont2cm.bww import classify
from ont2cm.damlxml import import_daml
from ont2cm.emit import (
    emit_bww_json,
    emit_dot,
    emit_model_json,
    emit_plantuml,
    emit_report,
)
from ont2cm.model import check_model
from ont2cm.ontology import (
    OntologyIndex,
    collapse_equivalences,
    hoist_axiom_restrictions,
    validate_ontology,
)
from ont2cm.transform import TransformConfig, transform

from workloads import Document

# The steps `pipeline` hands to its callback, in order.
LAYER_STEPS = (
    "frontend.parse", "ontology.validate", "ontology.hoist",
    "ontology.collapse", "ontology.index", "ontology.closure", "bww.classify",
    "transform.transform", "model.check", "emit.model_json", "emit.plantuml",
    "emit.dot", "emit.report", "emit.bww_json")

# The layer each step's memory peak is charged to.
MEMORY_LAYER = {name: name.split(".")[0] for name in LAYER_STEPS
                if name != "model.check"}


def statement_count(text: str) -> int:
    """COT statements: lines that are neither blank nor comments."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def pipeline(doc: Document, step) -> dict[str, int]:
    """Run `doc` through every layer; return the layers' work counts.

    Raises whatever a layer raises; the counts gathered up to that point
    are lost, as the CLI would lose them."""
    counts = {"cot.statements": 0, "damlxml.elements": 0, "damlxml.skipped": 0}
    import_report = None
    if doc.suffix == ".cot":
        ontology = step("frontend.parse", lambda: cot.parse(doc.text))
        counts["cot.statements"] = statement_count(doc.text)
    else:
        import_report = step("frontend.parse",
                             lambda: import_daml(doc.text, source_name=doc.stem))
        ontology = import_report.ontology
        counts["damlxml.skipped"] = import_report.skipped_total()
        counts["damlxml.elements"] = (import_report.translated_total()
                                      + counts["damlxml.skipped"])
    defects = step("ontology.validate", lambda: validate_ontology(ontology))
    if defects:
        raise ValueError(f"{doc.stem}: {len(defects)} validation defect(s)")
    hoisted = step("ontology.hoist", lambda: hoist_axiom_restrictions(ontology))
    collapsed, aliases = step("ontology.collapse",
                              lambda: collapse_equivalences(hoisted))
    counts["ontology.aliases"] = len(aliases)
    index = step("ontology.index", lambda: OntologyIndex(collapsed))

    def closure() -> int:
        size = 0
        for cls in collapsed.classes:
            size += len(index.ancestors(cls.name))
            index.direct_restrictions(cls.name)
        return size

    counts["ontology.closure_size"] = step("ontology.closure", closure)
    grading = step("bww.classify", lambda: classify(collapsed, index))
    model, report = step("transform.transform", lambda: transform(
        collapsed, bww_report=grading, config=TransformConfig(),
        alias_map=aliases, import_report=import_report, index=index))
    counts["transform.generalizations"] = len(model.generalizations)
    counts["transform.relationships"] = len(model.relationships)
    counts["transform.flags"] = len(report.items)
    defects = step("model.check", lambda: check_model(model))
    if defects:
        raise ValueError(f"{doc.stem}: {len(defects)} model defect(s)")
    texts = [step("emit.model_json", lambda: emit_model_json(model)),
             step("emit.plantuml", lambda: emit_plantuml(model)),
             step("emit.dot", lambda: emit_dot(model)),
             step("emit.report", lambda: emit_report(model, report)),
             step("emit.bww_json", lambda: emit_bww_json(grading))]
    counts["emit.bytes"] = sum(len(t.encode("utf-8")) for t in texts)
    return counts


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Spans kept in memory: name, start, end, parent span and the id of
    the operation (one document in one round) they belong to."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)
    op: str = ""

    def step(self, name: str, fn):
        span = Span(name, self.op, self._open[-1] if self._open else None,
                    time.perf_counter())
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            return fn()
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def as_records(self) -> list[dict]:
        return [{"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                 "start": s.start, "end": s.end, "self": own}
                for i, (s, own) in enumerate(zip(self.spans, self.self_times()))]


def memory_pass(doc: Document) -> dict[str, float]:
    """Peak MiB each layer allocates above what was live when it was
    called, the largest over the layer's calls on `doc`."""
    peaks = {layer: 0.0 for layer in MEMORY_LAYER.values()}

    def step(name: str, fn):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return fn()
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            layer = MEMORY_LAYER.get(name)
            if layer is not None:
                peaks[layer] = max(peaks[layer], peak / 2**20)

    tracemalloc.start()
    try:
        pipeline(doc, step)
    finally:
        tracemalloc.stop()
    return peaks
