"""Output checks for one benchmark operation.

A check compares an artifact with `workloads.Expected`, which the generator
derived from its own bookkeeping, and with properties that hold for any
correct output (round trip through the model JSON reader, a clean
`check_model`, an acyclic generalization graph, the import census). Each
check returns a list of problems; an empty list means the output is right.

Artifacts must be byte-identical across a run's repetitions. `Checker`
remembers the digest of each document's first output and checks the
contents once; a later output with the same digest has the same contents,
so only its digest is compared.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

from ont2cm.damlxml import import_daml
from ont2cm.emit import emit_model_json, parse_model_json
from ont2cm.model import check_model

from workloads import Document, Expected

TRANSFORM_SUFFIXES = (".model.json", ".puml", ".dot", ".report.md")
CLASSIFY_SUFFIXES = (".bww.json",)

_ITEM = re.compile(r"- `(?P<subject>[^`]*)`: (?P<detail>.*)")
_SKIPPED = re.compile(r"(?P<count>\d+) element\(s\) skipped at import")


def _name(entity_id: str) -> str:
    return entity_id.removeprefix("et:")


class Checker:
    def __init__(self, docs: list[Document], expected: dict[str, Expected]):
        self.docs = {d.stem: d for d in docs}
        self.expected = expected
        self.digests: dict[tuple[str, str], dict[str, str]] = {}
        self.models: dict[str, str] = {}  # stem -> first model JSON text

    def census(self, doc: Document) -> list[str]:
        """The importer's translated plus skipped count must equal the
        number of elements the generator wrote."""
        if doc.suffix != ".daml":
            return []
        report = import_daml(doc.text, source_name=doc.stem)
        total = report.translated_total() + report.skipped_total()
        if total != doc.elements:
            return [f"{doc.stem}: import census {total} != {doc.elements} "
                    "elements written"]
        return []

    def outputs(self, op: str, stem: str, out_dir: Path) -> list[str]:
        """Check the artifacts an operation (`transform` or `classify`)
        wrote for document `stem` into `out_dir`."""
        suffixes = TRANSFORM_SUFFIXES if op == "transform" else CLASSIFY_SUFFIXES
        texts = {}
        for suffix in suffixes:
            path = out_dir / (stem + suffix)
            if not path.is_file():
                return [f"{op} {stem}: missing artifact {path.name}"]
            texts[suffix] = path.read_bytes()
        digests = {s: hashlib.sha256(t).hexdigest() for s, t in texts.items()}
        reference = self.digests.get((op, stem))
        if reference is not None:
            changed = [stem + s for s in suffixes if digests[s] != reference[s]]
            return [f"{op} {stem}: {name} differs from the run's first output"
                    for name in changed]
        decoded = {s: t.decode("utf-8") for s, t in texts.items()}
        if op == "transform":
            problems = self._transform(stem, decoded)
        else:
            problems = self._classify(stem, decoded[".bww.json"])
        if not problems:
            self.digests[(op, stem)] = digests
            if op == "transform":
                self.models[stem] = decoded[".model.json"]
                problems = self._mirrored_equals_ascending()
        return [f"{op} {stem}: {p}" for p in problems]

    # ---- transform

    def _transform(self, stem: str, texts: dict[str, str]) -> list[str]:
        exp = self.expected[stem]
        text = texts[".model.json"]
        model = parse_model_json(text)
        problems = []
        if emit_model_json(model) != text:
            problems.append("model JSON does not round-trip")
        # The check is about the model, not the interpreter's stack: today's
        # check_model recurses once per generalization level.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 2 * len(model.entity_types) + 100))
        try:
            defects = check_model(model)
        finally:
            sys.setrecursionlimit(limit)
        if defects:
            problems.append(f"check_model reports {len(defects)} defect(s)")
        doc = json.loads(text)
        problems += _model_facts(doc, exp)
        problems += _diagram_counts(texts[".puml"], texts[".dot"], doc)
        problems += _report_facts(texts[".report.md"], exp)
        return problems

    def _mirrored_equals_ascending(self) -> list[str]:
        """Once both namings of the chain have a model, the mirrored model
        must equal the ascending one after renaming."""
        if "chain-asc" not in self.models or "chain-mirror" not in self.models:
            return []
        asc, mir = self.docs["chain-asc"].spec, self.docs["chain-mirror"].spec
        mapping = dict(zip(mir.classes, asc.classes))
        mapping.update(zip((p for p, _, _ in mir.object_props),
                           (p for p, _, _ in asc.object_props)))
        left = _shape(json.loads(self.models["chain-asc"]), {})
        right = _shape(json.loads(self.models["chain-mirror"]), mapping)
        if left != right:
            return ["mirrored chain model differs from the ascending one "
                    "after renaming"]
        return []

    # ---- classify

    def _classify(self, stem: str, text: str) -> list[str]:
        exp = self.expected[stem]
        doc = json.loads(text)
        concepts = doc["concepts"]
        problems = []
        if set(concepts) != set(exp.grades):
            problems.append(f"graded {len(concepts)} classes, expected "
                            f"{len(exp.grades)}")
            return problems
        wrong = [name for name, (category, props, laws) in exp.grades.items()
                 if (concepts[name]["category"], concepts[name]["propertyCount"],
                     concepts[name]["lawCount"]) != (category, props, laws)]
        if wrong:
            problems.append(f"{len(wrong)} grade(s) differ from the closure, "
                            f"first {wrong[0]}")
        spec = self.docs[stem].spec
        if spec.name == "chain":
            problems += _chain_closed_form(spec.classes, concepts)
        kinds = {p: "intrinsic" for p, _, _ in spec.datatype_props}
        kinds.update((p, "mutual") for p, _, _ in spec.object_props)
        if {p: v["category"] for p, v in doc["properties"].items()} != kinds:
            problems.append("property categories differ from the spec")
        return problems


def _chain_closed_form(classes: list[str], concepts: dict) -> list[str]:
    """classes[k] is at depth k: it has k+1 properties and 2(k+1) laws;
    the root is a bwwClass and every other class a naturalKind."""
    for k, name in enumerate(classes):
        got = concepts[name]
        category = "bwwClass" if k == 0 else "naturalKind"
        if (got["category"], got["propertyCount"], got["lawCount"]) \
                != (category, k + 1, 2 * (k + 1)):
            return [f"chain class at depth {k} breaks the closed form"]
    return []


def _model_facts(doc: dict, exp: Expected) -> list[str]:
    problems = []
    entities = {et["name"]: (et["bww"], tuple(sorted(
        (a["name"], a["datatype"]) for a in et["attributes"])))
        for et in doc["entityTypes"]}
    if set(entities) != set(exp.entities):
        problems.append(f"{len(entities)} entity types, expected "
                        f"{len(exp.entities)}; "
                        f"{len(set(exp.entities) - set(entities))} missing")
    else:
        wrong = [n for n in entities if entities[n] != exp.entities[n]]
        if wrong:
            problems.append(f"{len(wrong)} entity type(s) with a wrong grade "
                            f"or attributes, first {wrong[0]}")
    unbounded = {"lower": 0, "upper": "*"}
    if any(a["multiplicity"] != unbounded
           for et in doc["entityTypes"] for a in et["attributes"]):
        problems.append("an attribute has a bound")

    rels = {r["id"]: (r["targetMult"]["lower"],
                      None if r["targetMult"]["upper"] == "*"
                      else r["targetMult"]["upper"], r["exclusive"])
            for r in doc["relationships"]}
    if any(r["kind"] != "association" or r["sourceMult"] != unbounded
           for r in doc["relationships"]):
        problems.append("a relationship is not a plain association")
    if rels != exp.relationships:
        missing = set(exp.relationships) - set(rels)
        problems.append(f"{len(rels)} relationships, expected "
                        f"{len(exp.relationships)}; {len(missing)} missing, "
                        f"{sum(1 for k in rels if rels[k] != exp.relationships.get(k))}"
                        " wrong")

    gens = {(_name(g["subId"]), _name(g["superId"]))
            for g in doc["generalizations"]}
    if len(gens) != len(doc["generalizations"]) or gens != exp.generalizations:
        problems.append(f"{len(doc['generalizations'])} generalizations, "
                        f"expected {len(exp.generalizations)}; "
                        f"{len(exp.generalizations - gens)} planted edge(s) lost")
    if _has_cycle(gens):
        problems.append("generalization graph has a cycle")

    constraints = {c["id"] for c in doc["constraints"]}
    if constraints != exp.constraints:
        problems.append(f"{len(constraints)} constraints, expected "
                        f"{len(exp.constraints)}")
    instances = {i["name"]: tuple(i["typeIds"]) for i in doc["instances"]}
    if instances != exp.instances:
        problems.append(f"{len(instances)} instances, expected "
                        f"{len(exp.instances)}")
    return problems


def _has_cycle(edges: set[tuple[str, str]]) -> bool:
    """Kahn's algorithm: a cycle leaves nodes that never reach in-degree 0."""
    succ: dict[str, list[str]] = {}
    indegree: dict[str, int] = {}
    for sub, sup in edges:
        succ.setdefault(sub, []).append(sup)
        indegree[sup] = indegree.get(sup, 0) + 1
        indegree.setdefault(sub, 0)
    ready = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for nxt in succ.get(node, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return seen != len(indegree)


def _diagram_counts(puml: str, dot: str, doc: dict) -> list[str]:
    """One diagram line per entity type, generalization and relationship."""
    n_entities = len(doc["entityTypes"])
    n_gens = len(doc["generalizations"])
    n_rels = len(doc["relationships"])
    puml_lines = puml.splitlines()
    got_puml = (sum(1 for ln in puml_lines if ln.startswith("class ")),
                sum(1 for ln in puml_lines if " <|-- " in ln),
                sum(1 for ln in puml_lines if '" --> "' in ln))
    dot_lines = dot.splitlines()
    got_dot = (sum(1 for ln in dot_lines if '" [label="' in ln and "->" not in ln),
               sum(1 for ln in dot_lines if ln.endswith("[arrowhead=onormal];")),
               sum(1 for ln in dot_lines if ln.endswith("arrowhead=vee];")))
    problems = []
    if not (puml.startswith("@startuml\n") and puml.endswith("@enduml\n")):
        problems.append("PlantUML text is not one @startuml block")
    if got_puml != (n_entities, n_gens, n_rels):
        problems.append(f"PlantUML has {got_puml} class/generalization/"
                        f"association lines, model has "
                        f"{(n_entities, n_gens, n_rels)}")
    if got_dot != (n_entities, n_gens, n_rels) \
            or not dot.startswith("digraph model {"):
        problems.append(f"DOT has {got_dot} node/generalization/association "
                        f"lines, model has {(n_entities, n_gens, n_rels)}")
    return problems


def _report_items(report: str) -> dict[str, list[tuple[str, str]]]:
    """Items of the review report, by section title."""
    sections: dict[str, list[tuple[str, str]]] = {}
    current = None
    for line in report.splitlines():
        if line.startswith("## "):
            current = sections.setdefault(line[3:], [])
        elif current is not None:
            m = _ITEM.fullmatch(line)
            if m:
                current.append((m["subject"], m["detail"]))
    return sections


_SECTION = {"exclusiveRelation": "Exclusive relationships",
            "zeroPropertyEntity": "Entities without properties",
            "equivalenceCollapsed": "Collapsed equivalences"}


def _report_facts(report: str, exp: Expected) -> list[str]:
    sections = _report_items(report)
    problems = []
    for kind, title in _SECTION.items():
        got = len(sections.get(title, []))
        if got != exp.flag_counts[kind]:
            problems.append(f"report lists {got} {kind} flag(s), expected "
                            f"{exp.flag_counts[kind]}")
    absorbed = {}
    for rep, detail in sections.get(_SECTION["equivalenceCollapsed"], []):
        for alias in detail.removeprefix(
                "absorbed equivalent class(es): ").split(", "):
            absorbed[alias] = rep
    if absorbed != exp.aliases:
        problems.append(f"report names {len(absorbed)} alias(es), expected "
                        f"{len(exp.aliases)}")
    labels = [d for s, d in sections.get("Unmapped constructs", [])
              if s == "rdfs:label"]
    skipped = int(_SKIPPED.match(labels[0])["count"]) if labels else 0
    if skipped != exp.skipped_labels:
        problems.append(f"report counts {skipped} skipped rdfs:label "
                        f"element(s), expected {exp.skipped_labels}")
    return problems


def _shape(doc: dict, mapping: dict[str, str]) -> tuple:
    """The model JSON with class and property names mapped, as sets, so
    that two models that differ only in naming compare equal."""
    def rn(name: str) -> str:
        return mapping.get(name, name)

    def rid(entity_id: str) -> str:
        return "et:" + rn(_name(entity_id))

    entities = frozenset(
        (rn(et["name"]), et["bww"], et["definitionKind"],
         frozenset((rn(a["name"]), a["datatype"], json.dumps(a["multiplicity"]))
                   for a in et["attributes"]))
        for et in doc["entityTypes"])
    rels = frozenset(
        (rn(r["name"]), rid(r["sourceId"]), rid(r["targetId"]),
         json.dumps(r["sourceMult"]), json.dumps(r["targetMult"]),
         r["exclusive"], r["kind"])
        for r in doc["relationships"])
    gens = frozenset((rid(g["subId"]), rid(g["superId"]))
                     for g in doc["generalizations"])
    return entities, rels, gens, len(doc["constraints"]), len(doc["instances"])
