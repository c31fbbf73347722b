"""Every public function and class of the package has a caller inside the package.

A module-level ``def`` or ``class`` whose name does not start with ``_`` must
be referenced, as a name or an attribute, somewhere in ``src/incoproj``
outside ``__init__.py``: a re-export from the package root is not a caller.
A helper that only the tests use belongs in ``tests/``.
"""

import ast
from pathlib import Path

import incoproj

PACKAGE = Path(incoproj.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def test_every_public_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in referenced
    ]
    assert uncalled == []
