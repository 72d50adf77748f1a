"""No public API that only tests call: every function, method and class in
the package is read by other code in the package, or is listed below with
the reader outside it.

A definition counts as read when its name appears outside its own body as
a name, an attribute or an identifier string (the lazy names of
`cli._HOMES` are strings). Names are matched bare, across modules.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ont2cm"

# definitions only code outside the package reads, each with that reader
OUTSIDE_READERS = {
    "ontology.OntologyIndex.ancestors": "bench/layers.py",
    "emit.parse_model_json": "acceptance criterion 6, bench/checks.py",
}


def _references(tree: ast.AST) -> Counter:
    """How often each name, attribute and identifier string occurs."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            refs[node.value] += 1
    return refs


def _definitions(parent: ast.AST, prefix: str):
    """(qualified name, node) of each function, method and class, nested
    ones included."""
    for node in ast.iter_child_nodes(parent):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{node.name}", node
            yield from _definitions(node, f"{prefix}.{node.name}")
        else:
            yield from _definitions(node, prefix)


def test_every_definition_has_a_reader():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = sum(map(_references, trees.values()), Counter())
    unread = [
        qualname
        for module, tree in trees.items()
        for qualname, node in _definitions(tree, module)
        # dunders are called by the language itself
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and refs[node.name] == _references(node)[node.name]]
    assert sorted(unread) == sorted(OUTSIDE_READERS)
