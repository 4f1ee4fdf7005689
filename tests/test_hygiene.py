"""Static checks on the package source: no unused import, no dangling `__all__`
entry, no private name borrowed from another module, no dead definition.

A module's imports must each be read somewhere in that module (or re-exported
through its `__all__`), every name its `__all__` lists must be bound at
module level, and no name it imports from another adaexit module may start
with an underscore. Every function and class it defines at module level must
be read by name, bare or as an attribute, somewhere in the package or the
benchmark: a helper only the tests call belongs in the tests. `__init__.py`
only re-exports, so it is left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adaexit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted([*PACKAGE.rglob("*.py"), *(PACKAGE.parent.parent / "perfbench").rglob("*.py")])


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line number; `from __future__` binds nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _module_bindings(tree: ast.Module) -> set[str]:
    bound = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return bound


def unused_imports(tree: ast.Module) -> list[str]:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(_dunder_all(tree))
    return sorted(
        f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in read
    )


def undefined_exports(tree: ast.Module) -> list[str]:
    return sorted(set(_dunder_all(tree)) - _module_bindings(tree))


def private_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from adaexit modules, relatively or by package name."""
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "adaexit")
        for alias in node.names
        if alias.name.startswith("_")
    )


def names_read(*trees: ast.Module) -> set[str]:
    """Every name the trees load, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_definitions(tree: ast.Module, read: set[str]) -> list[str]:
    """Module-level functions and classes of `tree` whose names are not in `read`."""
    return sorted(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    )


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.fixture(scope="module")
def read_by_the_system() -> set[str]:
    return names_read(*map(_parse, READERS))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    unused = unused_imports(_parse(path))
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_dunder_all_entry_is_defined(path):
    missing = undefined_exports(_parse(path))
    assert not missing, f"{path.name} lists in __all__ but never defines: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_imported_from_another_module(path):
    private = private_imports(_parse(path))
    assert not private, f"{path.name} imports private names: {', '.join(private)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_definition_is_read(path, read_by_the_system):
    unread = unread_definitions(_parse(path), read_by_the_system)
    assert not unread, f"{path.name} defines what nothing in src or perfbench reads: {unread}"


def test_catches_a_private_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from .pipeline import ArtifactPaths, _inputs\n"
        "from adaexit.policy import _format_float\n"
        "from os.path import _joinrealpath\n"
        "def f():\n"
        "    from . import _helpers\n"
    )
    assert private_imports(tree) == [
        "_format_float (line 3)", "_helpers (line 6)", "_inputs (line 2)"
    ]


def test_catches_a_leftover_import_and_export():
    tree = ast.parse(
        "from dataclasses import asdict, dataclass\n"
        "__all__ = ['Thing', 'gone']\n"
        "@dataclass\n"
        "class Thing:\n"
        "    x: int\n"
    )
    assert unused_imports(tree) == ["asdict (line 1)"]
    assert undefined_exports(tree) == ["gone"]


def test_catches_a_definition_nothing_reads():
    module = ast.parse(
        "def used():\n"
        "    return 1\n"
        "def _helper():\n"
        "    pass\n"
        "class Thing:\n"
        "    def method(self):\n"
        "        pass\n"
        "def gone():\n"
        "    gone = 1\n"
    )
    reader = ast.parse("from m import Thing, gone\nm.used()\n")
    assert unread_definitions(module, names_read(module, reader)) == ["Thing", "_helper", "gone"]
