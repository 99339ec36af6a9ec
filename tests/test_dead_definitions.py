"""Every definition in the package is named somewhere in the package.

A top-level function, class or constant, or a non-dunder method, that
nothing in ``src/coverforge`` names outside its own body is dead weight:
only tests (or nobody) reach it; the tests keep their oracles under
tests/ (``element_oracle.py``).  An import that its own module never
names is dead weight too, and so is a field of a top-level dataclass
that nothing in the package reads as an attribute.  The allowlist names
the fields kept on purpose, each with its reader.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coverforge"

ALLOWED: dict[str, str] = {
    "OrbitClosure.expansions": "read by perfbench/traced.py for orbits.expansions",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node) for each top-level function, class or non-dunder
    constant and each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(
                    item.name
                ):
                    yield item.name, item


def _uses(tree):
    """(name, line) for every name and attribute reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def dead_definitions(src=SRC):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = [(module, name, line) for module, tree in trees.items() for name, line in _uses(tree)]
    dead = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            body = range(node.lineno, node.end_lineno + 1)
            if not any(
                used == name and not (where == module and line in body)
                for where, used, line in uses
            ):
                dead.append(f"{module}:{name}")
    return dead


def unused_imports(src=SRC):
    """module:name for each name an import binds that the importing
    module never names (``from __future__`` imports excepted)."""
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}:{bound}")
    return unused


def _is_dataclass(node):
    """Is the class decorated with ``@dataclass`` or ``@dataclass(...)``?"""
    targets = (deco.func if isinstance(deco, ast.Call) else deco for deco in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def unread_fields(src=SRC):
    """module:Class.field for each field of a top-level dataclass whose
    name no attribute read in the package names (matched by name, so a
    read of any object's attribute of that name counts)."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if (
                        isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and item.target.id not in read
                    ):
                        unread.append(f"{module}:{node.name}.{item.target.id}")
    return unread


def test_no_dead_definitions():
    dead = [d for d in dead_definitions() if d.split(":")[1] not in ALLOWED]
    assert dead == []


def test_no_unread_fields():
    unread = [f for f in unread_fields() if f.split(":")[1] not in ALLOWED]
    assert unread == []


def test_no_unused_imports():
    assert unused_imports() == []


def test_allowlist_is_still_needed():
    # an allowlisted name that the package itself starts to use must
    # leave the list
    dead = {d.split(":")[1] for d in dead_definitions() + unread_fields()}
    assert set(ALLOWED) <= dead


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def unused():\n    return unused()\n\n"
        "class Box:\n    def kept(self):\n        return used()\n\n"
        "    def dropped(self):\n        return self.kept()\n\n"
        "    def __repr__(self):\n        return 'Box'\n\n"
        "Box().kept()\n"
    )
    assert dead_definitions(tmp_path) == ["mod.py:unused", "mod.py:dropped"]


def test_guard_flags_an_unused_constant_and_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import gcd as g, lcm\n\n"
        "__version__ = '1'\n"
        "USED: int = 1\n"
        "UNUSED = USED + 1\n"
        "_CACHE = {}\n\n"
        "def f():\n    return os.path.sep, lcm(_CACHE.get(USED, 1), 2)\n\n"
        "f()\n"
    )
    assert dead_definitions(tmp_path) == ["mod.py:UNUSED"]
    assert unused_imports(tmp_path) == ["mod.py:json", "mod.py:g"]


def test_guard_flags_an_unread_field(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Report:\n"
        "    ok: bool\n    note: str\n    size: int = 0\n\n"
        "@dataclass\nclass Plain:\n    flag: bool\n\n"
        "class NotData:\n    label: str\n\n"
        "def f(r, p):\n    r.size = 1\n    return r.ok and p.flag\n\n"
        "f(Report(True, 'x'), Plain(False))\n"
    )
    assert unread_fields(tmp_path) == ["mod.py:Report.note", "mod.py:Report.size"]
