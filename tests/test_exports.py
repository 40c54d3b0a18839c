"""Every public function and class is reached by the program or its benchmark,
not only by its own tests."""

import ast
import inspect
from pathlib import Path

import normlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "normlab"
# exported names that only tests reach, each with the reason it stays
ALLOWED = {
    "weighted_mu_measure": "a pair-measure kernel checked against oracles.weighted_pair_measure; "
                           "the symmetry tests of the pair kernels keep it",
}


def _exported() -> list[str]:
    """The functions and classes that normlab/__init__.py imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    return [n for n in names if inspect.isfunction(getattr(normlab, n)) or inspect.isclass(getattr(normlab, n))]


def _references(path: Path) -> set[str]:
    """The names a module refers to outside each top-level definition's own
    body and outside __all__: loaded names, attributes, imported names and
    string constants that are whole names (lookups by name)."""
    tree = ast.parse(path.read_text())
    found = set()

    def visit(node, skip=None):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            return
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            # a definition's own body and decorators do not count for its name
            before = set(found)
            visit(node)
            if node.name not in before:
                found.discard(node.name)
        else:
            visit(node)
    return found


def test_every_export_is_reached_outside_the_tests():
    modules = [p for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "oracles.py")]
    reached = set().union(*map(_references, modules + sorted((ROOT / "perfbench").glob("*.py"))))
    unreached = sorted(set(_exported()) - reached - set(ALLOWED))
    assert not unreached, f"public names that only tests reach: {unreached}"
    assert set(ALLOWED) <= set(_exported())
