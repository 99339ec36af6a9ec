"""The benchmark's layer map names functions that exist.

``perfbench/traced.py`` wraps each function in its ``LAYERS`` table; a
name that no longer resolves only prints a warning there and its
per-layer metric reads 0, so a rename must fail here instead.
"""

import importlib
import importlib.util
import pathlib

_TRACED = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_traced", _TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_layer_function_resolves():
    layers = _layers()
    assert layers
    missing = [
        f"{module_name}.{name}"
        for module_name, names in layers.values()
        for name in names
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert missing == []
