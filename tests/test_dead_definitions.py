"""Every definition in the package is named somewhere in the package.

A top-level function or class, or a non-dunder method, that nothing in
``src/coverforge`` names outside its own body is dead weight: only tests
(or nobody) reach it.  The allowlist holds the few kept on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coverforge"

ALLOWED = {
    # the direct side of the direct-versus-factored local degree oracle:
    # the factored computation is what the pipeline runs, and these two
    # stay as the independent check the tests compare it against
    "coset_action": "direct-side oracle for the factored local degrees",
    "local_degrees_direct": "direct-side oracle for the factored local degrees",
    # the element objects' own arithmetic, which the package runs on
    # table ids only: the tests' reference for the tables
    "element_order": "oracle of test_groups TestTables::test_orders_match_element_order",
    "inverse": "oracle of test_groups TestTables::test_psl2_table_matches_objects_exhaustively",
    "sort_key": "oracle of the id order in test_groups TestEnumeration::test_sorted_and_unique",
}


def _definitions(tree):
    """(name, node) for each top-level function or class and each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
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


def test_no_dead_definitions():
    dead = [d for d in dead_definitions() if d.split(":")[1] not in ALLOWED]
    assert dead == []


def test_allowlist_is_still_needed():
    # an allowlisted name that the package itself starts to use must
    # leave the list
    dead = {d.split(":")[1] for d in dead_definitions()}
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
