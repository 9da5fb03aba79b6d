"""Every function and class defined in ``src/slvrate`` is used there.

A definition counts as used when its name appears anywhere in the package
as a ``Name``, an ``Attribute`` or a name in a ``from ... import``. The
strings of ``__all__`` do not count, and neither do dunder methods, which
Python calls itself. Code that only the tests reach belongs in the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "slvrate"

# used from outside the package's own code
ALLOWED = {
    "cli._Parser.error",              # argparse calls it
    "numerics.reg_inc_gamma",         # acceptance criterion 05
    "pair_likelihood.score",          # acceptance criteria 02 and 05
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name) of every function and class, nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child.name
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, module)


def _uses(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unused_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set().union(*(_uses(tree) for tree in trees.values()))
    return sorted(
        qualified
        for module, tree in trees.items()
        for qualified, name in _definitions(tree, module)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_is_used_in_the_package():
    assert [name for name in unused_definitions() if name not in ALLOWED] == []


def test_the_allowlist_names_live_definitions_only():
    assert ALLOWED <= set(unused_definitions())
