"""Run one coverforge CLI command with spans around its layer functions.

    python3 perfbench/traced.py SPANS.json COVERFORGE-ARGS...

The program is not changed: after import, each public function named in
LAYERS is replaced, in every coverforge module that looks it up, by a
wrapper that records a span (layer, parent span, start, end) and, for a
few layers, counters taken from the result. Spans stay in memory and are
written to SPANS.json when the command ends; the exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer name -> (defining module, public function names)
LAYERS = {
    "groups.enumerate": ("coverforge.groups", ("enumerate_group",)),
    "groups.table": ("coverforge.groups", ("group_table",)),
    "catalog.build": ("coverforge.catalog", (
        "build_generic", "build_once_punctured", "build_genus_zero",
        "build_characteristic_cyclic", "build_characteristic_sym3",
    )),
    "catalog.verify_hypotheses": ("coverforge.catalog", ("verify_hypotheses",)),
    "catalog.validate_commutator_pair": ("coverforge.catalog", ("validate_commutator_pair",)),
    "surfaces.is_surjective": ("coverforge.surfaces", ("is_surjective",)),
    "orbits.orbit_closure": ("coverforge.orbits", ("orbit_closure",)),
    "orbits.aut_classes": ("coverforge.orbits", ("aut_classes",)),
    "orbits.characteristic_closure": ("coverforge.orbits", ("verify_characteristic_closure",)),
    "orbits.hall": ("coverforge.orbits", ("verify_hall_surjectivity",)),
    "covers.characteristic_core": ("coverforge.covers", ("characteristic_core",)),
    "covers.coset_space": ("coverforge.covers", ("coset_space",)),
    # elevation_degree is left out: inside characteristic_core it is the
    # core's own cost, which the core's self time is meant to show
    "covers.local_degrees": ("coverforge.covers", (
        "coset_permutation", "cycle_type", "local_degrees_factored",
    )),
    "covers.deck_trivial": ("coverforge.covers", ("verify_deck_trivial",)),
    "certificates.canonical_json": ("coverforge.certificates", ("canonical_json",)),
    "certificates.digest": ("coverforge.certificates", ("sha256_hex",)),
}


def _orbit_counters(result, exc) -> dict:
    if exc is not None:
        # an overrun returns no orbit; the error carries how far it got
        return {"states": int(getattr(exc, "used", None) or 0)}
    return {"states": int(result.size), "expansions": int(result.expansions),
            "levels": int(result.levels)}


COUNTERS = {
    "orbits.orbit_closure": _orbit_counters,
    "orbits.aut_classes": lambda result, exc: {} if exc else {"k": int(result.k)},
    "groups.table": lambda result, exc: {} if exc else {
        "table_bytes": int(result.mul.nbytes + result.inv.nbytes)},
}


class Tracer:
    """In-memory span recorder; spans are [layer, parent, start, end, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        counters = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [layer, parent, time.perf_counter(), None, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if counters is not None:
                    span[4] = counters(result, exc)

        return traced

    def install(self) -> list[str]:
        """Wrap every lookup site; return the layer functions not found."""
        loaded = [m for name, m in sys.modules.items()
                  if name == "coverforge" or name.startswith("coverforge.")]
        missing = []
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    missing.append(f"{module_name}.{name}")
                    continue
                wrapper = self.wrap(layer, original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from coverforge import cli

    tracer = Tracer()
    for name in tracer.install():
        print(f"traced.py: {name} not found, its layer reads 0", file=sys.stderr)
    start = time.perf_counter()
    try:
        return cli.main(cli_args)
    finally:
        pipeline_s = time.perf_counter() - start
        with open(spans_path, "w") as fh:
            json.dump({"pipeline_s": pipeline_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
