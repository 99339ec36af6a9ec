"""The package has one state-key type, int64.

Orbit keys are int64 and a key space of 2**32 keys or more is refused
(``orbits._state_powers``), so every key fits with room to spare and no
array of Python ints is needed.  A
reference to the name ``object`` in the code of ``src/coverforge`` (a
``dtype=object``, or ``np.object_``) would bring a second key type
back; docstrings and strings do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coverforge"


def object_references(src=SRC):
    """module:line for each reference to the name ``object`` or the
    attribute ``object_``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "object") or (
                isinstance(node, ast.Attribute) and node.attr == "object_"
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_object_references():
    assert object_references() == []


def test_guard_flags_an_object_dtype(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Keys are never an object array."""\n'
        "import numpy as np\n\n"
        "def keys(wide):\n"
        "    text = 'a JSON object'\n"
        "    dtype = object if wide else np.int64\n"
        "    return np.zeros(3, dtype=np.object_), text, dtype\n"
    )
    assert object_references(tmp_path) == ["mod.py:6", "mod.py:7"]
