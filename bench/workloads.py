"""Seeded input generators for the benchmark workloads.

Every generator builds a `Spec`: the ontology as plain lists, written down
by the generator itself. `Spec` renders to COT or to DAML+OIL RDF/XML, and
`expect` derives from it, without calling the program, everything the
output checks compare against: entity types, attributes, relationships,
generalizations, constraints, instances, review flags and BWW grades.

The seed changes names, targets, bounds and which classes carry extra
statements. It never changes the amount of work, so that run-to-run spread
measures the machine rather than the input. The mirrored deep chain does
not depend on the seed at all: its transform fails on every attempt (see
README.md), and a failure that depends on the seed would make the failed
share differ between runs.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

# Sizes of the workloads the benchmark runs. README.md gives the reasons.
CHAIN_CLASSES = 1200
FLAT_CLASSES = 2500
DAG_CLASSES = 1200
DAG_LAYERS = 8
DAG_TWIN_SHARE = 0.05

WORKLOADS = ("deep-chain", "wide-flat", "daml-dag")


@dataclass
class Spec:
    """An ontology as the generator wrote it.

    Restrictions are (class, property, flavor, target class or count).
    Twins are planted equivalence pairs (twin, lattice class): the twin is
    declared sameClassAs the lattice class and the two are subclasses of
    each other, so they form a two-class subclass cycle.
    """

    name: str
    classes: list[str] = field(default_factory=list)
    datatype_props: list[tuple[str, str, str]] = field(default_factory=list)
    object_props: list[tuple[str, str, str]] = field(default_factory=list)
    restrictions: list[tuple[str, str, str, object]] = field(default_factory=list)
    subclass: list[tuple[str, str]] = field(default_factory=list)
    twins: list[tuple[str, str]] = field(default_factory=list)
    disjoint: list[tuple[str, str]] = field(default_factory=list)
    individuals: list[tuple[str, str]] = field(default_factory=list)
    labelled: list[str] = field(default_factory=list)


@dataclass
class Document:
    """One input file. `spec` is what it says; `elements` is the number of
    XML elements below the root that the generator wrote (0 for COT)."""

    stem: str
    suffix: str
    text: str
    spec: Spec
    elements: int = 0
    # A fault the transform is known to hit: the exception it raises and
    # the function it is raised from.
    expect_failure: tuple[str, str] | None = None


def _tag(rng: random.Random, width: int = 3) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(width))


# --------------------------------------------------------------------------
# rendering


def to_cot(spec: Spec) -> str:
    """COT text in class-major order: each class followed by its own
    properties, restrictions and superclass statements."""
    by_class: dict[str, list[str]] = {c: [] for c in spec.classes}
    for prop, domain, datatype in spec.datatype_props:
        by_class[domain].append(f"dataprop {prop} domain {domain} range {datatype}")
    for prop, domain, rng in spec.object_props:
        by_class[domain].append(f"objprop {prop} domain {domain} range {rng}")
    for cls, prop, flavor, value in spec.restrictions:
        by_class[cls].append(f"restriction {cls} {prop} {flavor} {value}")
    for sub, sup in spec.subclass:
        by_class[sub].append(f"subclass {sub} {sup}")
    for a, b in spec.disjoint:
        by_class[a].append(f"disjoint {a} {b}")
    lines = [f"ontology {spec.name}"]
    for cls in spec.classes:
        lines.append(f"class {cls}")
        lines.extend(by_class[cls])
    for ind, cls in spec.individuals:
        lines.append(f"individual {ind} type {cls}")
    return "\n".join(lines) + "\n"


_XML_HEAD = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:daml="http://www.daml.org/2001/03/daml+oil#"
         xmlns:xsd="http://www.w3.org/2001/XMLSchema#">
"""
_XSD = "http://www.w3.org/2001/XMLSchema#"
_DAML_FLAVOR = {"some": "hasClass", "only": "toClass"}
_DAML_COUNT = {"min": "minCardinality", "max": "maxCardinality",
               "exactly": "cardinality"}


def to_daml(spec: Spec) -> tuple[str, int]:
    """DAML+OIL RDF/XML text and the number of elements below the root.

    Every restriction is its own rdfs:subClassOf/daml:Restriction, so the
    importer yields one subclass axiom per restriction and hoisting moves
    each into the class's local restrictions."""
    out = [_XML_HEAD]
    count = 0

    def element(indent: int, text: str, elements: int) -> None:
        nonlocal count
        out.append(" " * indent + text + "\n")
        count += elements

    element(2, f'<daml:Ontology rdf:about="#{spec.name}"/>', 1)
    body: dict[str, list[tuple[str, int]]] = {c: [] for c in spec.classes}
    for cls in spec.labelled:
        body[cls].append((f"<rdfs:label>{cls.lower()}</rdfs:label>", 1))
    for sub, sup in spec.subclass:
        body[sub].append((f'<rdfs:subClassOf rdf:resource="#{sup}"/>', 1))
    for twin, cls in spec.twins:
        body[twin].append((f'<daml:sameClassAs rdf:resource="#{cls}"/>', 1))
        body[twin].append((f'<rdfs:subClassOf rdf:resource="#{cls}"/>', 1))
        body[cls].append((f'<rdfs:subClassOf rdf:resource="#{twin}"/>', 1))
    for cls, prop, flavor, value in spec.restrictions:
        if flavor in _DAML_FLAVOR:
            inner = f'<daml:{_DAML_FLAVOR[flavor]} rdf:resource="#{value}"/>'
        else:
            tag = _DAML_COUNT[flavor]
            inner = f"<daml:{tag}>{value}</daml:{tag}>"
        body[cls].append((
            "<rdfs:subClassOf><daml:Restriction>"
            f'<daml:onProperty rdf:resource="#{prop}"/>{inner}'
            "</daml:Restriction></rdfs:subClassOf>", 4))
    for a, b in spec.disjoint:
        body[a].append((f'<daml:disjointWith rdf:resource="#{b}"/>', 1))
    for cls in spec.classes:
        if not body[cls]:
            element(2, f'<daml:Class rdf:about="#{cls}"/>', 1)
            continue
        element(2, f'<daml:Class rdf:about="#{cls}">', 1)
        for text, elements in body[cls]:
            element(4, text, elements)
        out.append("  </daml:Class>\n")
    for prop, domain, datatype in spec.datatype_props:
        element(2, f'<daml:DatatypeProperty rdf:about="#{prop}">'
                   f'<rdfs:domain rdf:resource="#{domain}"/>'
                   f'<rdfs:range rdf:resource="{_XSD}{datatype}"/>'
                   "</daml:DatatypeProperty>", 3)
    for prop, domain, rng in spec.object_props:
        element(2, f'<daml:ObjectProperty rdf:about="#{prop}">'
                   f'<rdfs:domain rdf:resource="#{domain}"/>'
                   f'<rdfs:range rdf:resource="#{rng}"/>'
                   "</daml:ObjectProperty>", 3)
    for ind, cls in spec.individuals:
        element(2, f'<rdf:Description rdf:about="#{ind}">'
                   f'<rdf:type rdf:resource="#{cls}"/></rdf:Description>', 2)
    out.append("</rdf:RDF>\n")
    return "".join(out), count


# --------------------------------------------------------------------------
# generators


def chain_spec(n: int, names: list[str], props: list[str]) -> Spec:
    """The acceptance suite's criterion-8 shape: names[k] is the class at
    depth k, a subclass of names[k-1]; it owns props[k], restricted `some`
    towards the next class (wrapping round) and `min 1`."""
    spec = Spec("chain", classes=list(names))
    for k, cls in enumerate(names):
        target = names[(k + 1) % n]
        spec.object_props.append((props[k], cls, target))
        spec.restrictions.append((cls, props[k], "some", target))
        spec.restrictions.append((cls, props[k], "min", 1))
        if k:
            spec.subclass.append((cls, names[k - 1]))
    return spec


def deep_chain(seed: int, n: int = CHAIN_CLASSES) -> list[Document]:
    """Two namings of one chain. Ascending: names sort in depth order, with
    seeded suffixes. Mirrored: every superclass's name sorts after its
    subclass's; its names are fixed."""
    rng = random.Random(seed)
    asc_names = [f"C{k:05d}{_tag(rng)}" for k in range(n)]
    asc_props = [f"p{k:05d}{_tag(rng)}" for k in range(n)]
    mir_names = [f"M{n - 1 - k:05d}" for k in range(n)]
    mir_props = [f"m{n - 1 - k:05d}" for k in range(n)]
    asc = chain_spec(n, asc_names, asc_props)
    mir = chain_spec(n, mir_names, mir_props)
    return [Document("chain-asc", ".cot", to_cot(asc), asc),
            Document("chain-mirror", ".cot", to_cot(mir), mir,
                     expect_failure=("RecursionError", "check_model"))]


def wide_flat(seed: int, n: int = FLAT_CLASSES) -> list[Document]:
    """No subclass axioms. Class i owns a string attribute a_i, a property
    r_i restricted `some T` and `max k`, and a property s_i restricted
    `only U`, with T, U and k drawn from the seed. There are n/20 disjoint
    pairs and n/10 individuals."""
    rng = random.Random(seed)
    names = [f"W{i:05d}{_tag(rng)}" for i in range(n)]
    spec = Spec("flat", classes=list(names))
    for i, cls in enumerate(names):
        some_target, only_target = rng.choice(names), rng.choice(names)
        spec.datatype_props.append((f"a{i:05d}", cls, "string"))
        spec.object_props.append((f"r{i:05d}", cls, some_target))
        spec.restrictions.append((cls, f"r{i:05d}", "some", some_target))
        spec.restrictions.append((cls, f"r{i:05d}", "max", rng.randint(1, 5)))
        spec.object_props.append((f"s{i:05d}", cls, only_target))
        spec.restrictions.append((cls, f"s{i:05d}", "only", only_target))
    spec.disjoint = _disjoint_pairs(rng, [names], n // 20)
    spec.individuals = [(f"i{j:05d}{_tag(rng)}", rng.choice(names))
                        for j in range(n // 10)]
    return [Document("flat", ".cot", to_cot(spec), spec)]


def _disjoint_pairs(rng: random.Random, pools: list[list[str]],
                    count: int) -> list[tuple[str, str]]:
    """`count` distinct unordered pairs, each drawn from one pool."""
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < count:
        a, b = rng.sample(rng.choice(pools), 2)
        pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


def daml_dag(seed: int, n: int = DAG_CLASSES) -> list[Document]:
    """A layered diamond lattice. The class at position j of layer l has
    the parents at positions j and j + 2**(l-1) (mod the width) of the layer
    above, so, while 2**(DAG_LAYERS-1) <= n/DAG_LAYERS, it has exactly 2**k
    ancestors k layers up: every seed gives the same closure size. The seed
    places the names on the positions and picks the classes that own a
    datatype property, a property restricted `some` plus a cardinality, or
    a property restricted `only`. Planted twins collapse; labels go to the
    skip ledger; disjoint pairs sit inside one layer."""
    rng = random.Random(seed)
    width = n // DAG_LAYERS
    grid = []
    for layer in range(DAG_LAYERS):
        row = [f"L{layer}x{j:04d}{_tag(rng)}" for j in range(width)]
        rng.shuffle(row)
        grid.append(row)
    lattice = [cls for row in grid for cls in row]
    spec = Spec("dag", classes=list(lattice))
    for layer in range(1, DAG_LAYERS):
        stride = 2 ** (layer - 1)
        for j, cls in enumerate(grid[layer]):
            spec.subclass.append((cls, grid[layer - 1][j]))
            spec.subclass.append((cls, grid[layer - 1][(j + stride) % width]))
    # Feature counts are fixed per layer, and every position of a layer has
    # as many descendants as any other, so inherited work does not depend on
    # the seed either.
    for row in grid:
        for cls in rng.sample(row, len(row) * 3 // 5):
            spec.datatype_props.append(
                (f"d{cls}", cls, rng.choice(("string", "integer", "date"))))
        for k, cls in enumerate(rng.sample(row, len(row) * 3 // 5)):
            target = rng.choice(lattice)
            spec.object_props.append((f"o{cls}", cls, target))
            spec.restrictions.append((cls, f"o{cls}", "some", target))
            if k % 2:
                spec.restrictions.append((cls, f"o{cls}", "min", 1))
            else:
                spec.restrictions.append((cls, f"o{cls}", "max",
                                          rng.randint(1, 4)))
        for cls in rng.sample(row, len(row) * 3 // 10):
            target = rng.choice(lattice)
            spec.object_props.append((f"u{cls}", cls, target))
            spec.restrictions.append((cls, f"u{cls}", "only", target))
    # Half the twins' names sort before their lattice class and half after,
    # so both the twin and the lattice class end up representatives.
    for k, cls in enumerate(rng.sample(lattice,
                                       int(len(lattice) * DAG_TWIN_SHARE))):
        twin = ("A" if k % 2 else "Z") + cls
        spec.classes.append(twin)
        spec.twins.append((twin, cls))
    spec.disjoint = _disjoint_pairs(rng, grid, n // 20)
    spec.labelled = sorted(rng.sample(spec.classes, len(spec.classes) // 4))
    spec.individuals = [(f"n{j:05d}{_tag(rng)}", rng.choice(lattice))
                        for j in range(n // 10)]
    text, elements = to_daml(spec)
    return [Document("dag", ".daml", text, spec, elements=elements)]


def generate(workload: str, seed: int) -> list[Document]:
    if workload == "deep-chain":
        return deep_chain(seed)
    if workload == "wide-flat":
        return wide_flat(seed)
    if workload == "daml-dag":
        return daml_dag(seed)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# expected outputs, from the spec alone


@dataclass
class Expected:
    """What a correct model of a Spec holds, keyed by names."""

    aliases: dict[str, str]
    entities: dict[str, tuple[str, tuple[tuple[str, str], ...]]]  # name -> (bww, attributes)
    relationships: dict[str, tuple[int, int | None, bool]]  # id -> (lower, upper, exclusive)
    generalizations: set[tuple[str, str]]
    constraints: set[str]
    instances: dict[str, tuple[str, ...]]
    grades: dict[str, tuple[str, int, int]]  # name -> (category, properties, laws)
    flag_counts: dict[str, int]
    skipped_labels: int


def _category(properties: int, laws: int) -> str:
    if properties == 0:
        return "thingSet"
    if properties == 1:
        return "bwwClass"
    return "kind" if laws == 0 else "naturalKind"


def expect(spec: Spec) -> Expected:
    """Apply the documented mapping rules to the spec.

    Twins collapse into the lexicographically least name of their pair.
    Grades: a class's property count is the number of distinct properties
    that have it or an ancestor as domain or restriction site; its law
    count is the number of restrictions on it and its ancestors plus the
    disjoint statements that mention it."""
    aliases = {}
    for twin, cls in spec.twins:
        rep, alias = sorted((twin, cls))
        aliases[alias] = rep

    def rename(name: str) -> str:
        return aliases.get(name, name)

    classes = [c for c in spec.classes if c not in aliases]
    parents: dict[str, list[str]] = {c: [] for c in classes}
    for sub, sup in spec.subclass:
        parents[rename(sub)].append(rename(sup))

    own_props: dict[str, set[str]] = {c: set() for c in classes}
    own_laws = {c: 0 for c in classes}
    attributes: dict[str, list[tuple[str, str]]] = {c: [] for c in classes}
    for prop, domain, datatype in spec.datatype_props:
        own_props[rename(domain)].add(prop)
        attributes[rename(domain)].append((prop, datatype))
    for prop, domain, _ in spec.object_props:
        own_props[rename(domain)].add(prop)
    for cls, prop, _, _ in spec.restrictions:
        own_props[rename(cls)].add(prop)
        own_laws[rename(cls)] += 1
    for a, b in spec.disjoint:
        own_laws[rename(a)] += 1
        own_laws[rename(b)] += 1

    # Ancestor sets by memoised depth-first search; the generators' graphs
    # are acyclic once twins are merged.
    ancestors: dict[str, frozenset[str]] = {}
    for start in classes:
        stack = [start]
        while stack:
            cls = stack[-1]
            if cls in ancestors:
                stack.pop()
                continue
            pending = [p for p in parents[cls] if p not in ancestors]
            if pending:
                stack.extend(pending)
                continue
            acc: set[str] = set()
            for p in parents[cls]:
                acc.add(p)
                acc |= ancestors[p]
            ancestors[cls] = frozenset(acc)
            stack.pop()

    laws_without_disjoint = dict(own_laws)
    for a, b in spec.disjoint:
        laws_without_disjoint[rename(a)] -= 1
        laws_without_disjoint[rename(b)] -= 1
    grades = {}
    for cls in classes:
        props = set(own_props[cls])
        laws = own_laws[cls]
        for sup in ancestors[cls]:
            props |= own_props[sup]
            laws += laws_without_disjoint[sup]
        grades[cls] = (_category(len(props), laws), len(props), laws)

    # relationships: one per object property, at its (single) domain
    bounds: dict[str, list[int | None]] = {}
    exclusive: set[str] = set()
    for cls, prop, flavor, value in spec.restrictions:
        lower_upper = bounds.setdefault(prop, [0, None])
        if flavor in ("min", "exactly"):
            lower_upper[0] = max(lower_upper[0], value)
        if flavor in ("max", "exactly"):
            lower_upper[1] = value if lower_upper[1] is None \
                else min(lower_upper[1], value)
        if flavor == "only":
            exclusive.add(prop)
    relationships = {}
    for prop, domain, target in spec.object_props:
        lower, upper = bounds.get(prop, [0, None])
        rid = f"rel:{prop}:{rename(domain)}:{rename(target)}"
        relationships[rid] = (lower, upper, prop in exclusive)

    constraints = set()
    for a, b in spec.disjoint:
        lo, hi = sorted((rename(a), rename(b)))
        constraints.add(f"con:disjoint:{lo}:{hi}")

    entities = {c: (grades[c][0], tuple(sorted(attributes[c])))
                for c in classes}
    flag_counts = {
        "exclusiveRelation": sum(1 for v in relationships.values() if v[2]),
        "zeroPropertyEntity": sum(1 for g in grades.values()
                                  if g[0] == "thingSet"),
        "equivalenceCollapsed": len(set(aliases.values())),
    }
    return Expected(
        aliases=aliases,
        entities=entities,
        relationships=relationships,
        generalizations={(rename(s), rename(p)) for s, p in spec.subclass},
        constraints=constraints,
        instances={ind: (f"et:{rename(cls)}",) for ind, cls in spec.individuals},
        grades=grades,
        flag_counts=flag_counts,
        skipped_labels=len(spec.labelled))
