"""Every function, class and record field defined in ``src/slvrate`` is
used there.

A definition counts as used when its name appears anywhere in the package
as a ``Name``, an ``Attribute`` or a name in a ``from ... import``. The
strings of ``__all__`` do not count, and neither do dunder methods, which
Python calls itself. Code that only the tests reach belongs in the tests.

A field of a dataclass or a NamedTuple counts as read when the package
loads an attribute of that name, on any object. Setting a field, passing
it to the constructor or hashing it in a test does not count: a value
that nothing reads belongs in no record. The rule goes by name, so a field
passes whenever any attribute of that name is read (``args.config`` once
hid an unread ``SimResult.config``).

The package hashes with SHA-256 alone, and imports no module that needs
OpenSSL: the CLI keeps OpenSSL's ``_hashlib`` out of its process, where an
OpenSSL-only algorithm such as ``hashlib.new("ripemd160")`` would fail.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slvrate"

# used from outside the package's own code
ALLOWED = {
    "cli._Parser.error",              # argparse calls it
    "numerics.reg_inc_gamma",         # acceptance criterion 05
    "pair_likelihood.score",          # acceptance criteria 02 and 05
}

# fields read from outside the package's own code
ALLOWED_FIELDS = {
    "numerics.OptResult.iterations",  # perfbench/tracer.py counts optimizer iterations
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


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
    trees = _trees()
    used = set().union(*(_uses(tree) for tree in trees.values()))
    return sorted(
        qualified
        for module, tree in trees.items()
        for qualified, name in _definitions(tree, module)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass (``@dataclass`` or ``@dataclass(...)``) or a NamedTuple subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
    )


def _fields(tree: ast.Module, module: str):
    """(qualified name, bare name) of every annotated field of every record class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{module}.{node.name}.{stmt.target.id}", stmt.target.id


def _attribute_reads(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields() -> list[str]:
    trees = _trees()
    read = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    return sorted(
        qualified
        for module, tree in trees.items()
        for qualified, name in _fields(tree, module)
        if name not in read
    )


# modules that load OpenSSL's libcrypto, or that hmac and secrets load it through
OPENSSL_MODULES = {"_hashlib", "hmac", "secrets", "ssl"}


def openssl_uses(tree: ast.Module) -> list[str]:
    """Imports of an OpenSSL module, and hashlib constructors other than sha256."""
    hashlib_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "hashlib"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name in OPENSSL_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module in OPENSSL_MODULES:
                found.append(node.module)
            elif node.module == "hashlib":
                found += [f"hashlib.{alias.name}" for alias in node.names if alias.name != "sha256"]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id in hashlib_names
              and node.func.attr != "sha256"):
            found.append(f"hashlib.{node.func.attr}")
    return found


def test_every_definition_is_used_in_the_package():
    assert [name for name in unused_definitions() if name not in ALLOWED] == []


def test_the_allowlist_names_live_definitions_only():
    assert ALLOWED <= set(unused_definitions())


def test_every_record_field_is_read_in_the_package():
    assert [name for name in unread_fields() if name not in ALLOWED_FIELDS] == []


def test_the_field_allowlist_names_live_unread_fields_only():
    assert ALLOWED_FIELDS <= set(unread_fields())


def test_the_package_hashes_with_sha256_alone_and_imports_no_openssl_module():
    assert [f"{module}: {use}" for module, tree in _trees().items() for use in openssl_uses(tree)] == []


@pytest.mark.parametrize("source, uses", [
    ("import hashlib\nhashlib.sha256(b'')", []),
    ("import hashlib\nhashlib.new('ripemd160')", ["hashlib.new"]),
    ("import hashlib as h\nh.pbkdf2_hmac('sha256', b'', b'', 1)", ["hashlib.pbkdf2_hmac"]),
    ("from hashlib import sha256, md5", ["hashlib.md5"]),
    ("import hmac, ssl", ["hmac", "ssl"]),
    ("from secrets import token_hex", ["secrets"]),
    ("import _hashlib", ["_hashlib"]),
])
def test_the_openssl_rule_names_each_use(source, uses):
    assert openssl_uses(ast.parse(source)) == uses
