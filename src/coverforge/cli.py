"""Command line front end.

Exit codes: 0 success, 2 parameter error, 3 budget exceeded,
4 verification mismatch (or unreadable certificate), 5 search exhausted.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .catalog import CatalogBuild
from .certificates import (
    CASES,
    ConstructConfig,
    bundle_report,
    canonical_json,
    construct,
    parse_certificate,
    verify,
    write_certificate,
    _build_case,
)
from .errors import (
    BadModulus,
    BadParameters,
    BudgetExceeded,
    InconsistentRamification,
    NotUnimodular,
    SchemaMismatch,
    SearchExhausted,
)
from .groups import encode_json
from .orbits import DEFAULT_ORBIT_BUDGET, orbit_closure


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise BadParameters(f"{name} must be an integer, got {raw!r}") from exc


def _add_case_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", required=True, choices=CASES)
    parser.add_argument("--p", type=int, default=None)
    parser.add_argument("--genus", type=int, default=None)
    parser.add_argument("--punctures", type=int, default=None)
    parser.add_argument("--t", type=int, default=None, dest="explicit_t",
                        help="explicit t for the genus-zero dihedral variant")
    parser.add_argument("--orbit-budget", type=int, default=None)


def _config_from_args(args) -> ConstructConfig:
    orbit_budget = args.orbit_budget
    if orbit_budget is None:
        orbit_budget = _env_int("COVERFORGE_ORBIT_BUDGET", DEFAULT_ORBIT_BUDGET)
    return ConstructConfig(
        case=args.case,
        p=args.p,
        genus=args.genus,
        punctures=args.punctures,
        explicit_t=args.explicit_t,
        single_factor=getattr(args, "single_factor", False),
        orbit_budget=orbit_budget,
    )


def _cmd_construct(args) -> int:
    config = _config_from_args(args)
    cert = construct(config)
    if args.out:
        write_certificate(cert, args.out)
        print(f"certificate written to {args.out}")
    else:
        print(canonical_json(cert))
    return 0


def _cmd_verify(args) -> int:
    with open(args.certificate, "rb") as fh:
        cert = parse_certificate(fh.read())
    # the verifier's cap, which a certificate's recorded orbit budget may not exceed
    report = verify(cert, orbit_cap=_env_int("COVERFORGE_ORBIT_BUDGET", DEFAULT_ORBIT_BUDGET))
    print(canonical_json(report.to_dict()))
    for path in report.mismatches:
        print(f"mismatch at {path}", file=sys.stderr)
    return 0 if report.passed else 4


def _cmd_bundle_report(args) -> int:
    report = bundle_report(args.fiber_genus, args.base_genus, args.premise or ())
    print(canonical_json(report))
    return 0


def _cmd_orbit(args) -> int:
    config = _config_from_args(args)
    build: CatalogBuild = _build_case(config)
    orbit = orbit_closure(build.rep, config.orbit_budget)
    print(canonical_json({"case": config.case, "orbit_size": orbit.size,
                          "levels": orbit.levels}))
    if args.dump:
        # one JSON text per element, joined into every line that holds it
        texts = encode_json(orbit.table, range(orbit.table.order))
        with open(args.dump, "w") as fh:
            for block in orbit.id_tuples():
                fh.writelines("[" + ",".join([texts[i] for i in ids]) + "]\n" for ids in block)
        print(f"orbit dumped to {args.dump}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coverforge",
        description="Construct and verify branched-cover certificates for "
                    "punctured-surface representations into finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="run the pipeline and emit a certificate")
    _add_case_arguments(p_construct)
    p_construct.add_argument("--single-factor", action="store_true",
                             help="k=1 diagnostic: skip the orbit and use the built "
                                  "representation alone")
    p_construct.add_argument("--out", default=None)
    p_construct.set_defaults(func=_cmd_construct)

    p_verify = sub.add_parser("verify", help="recompute and diff a certificate")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(func=_cmd_verify)

    p_bundle = sub.add_parser("bundle-report", help="exact bundle Euler characteristic "
                                                    "with caller-asserted premises")
    p_bundle.add_argument("--fiber-genus", type=int, required=True)
    p_bundle.add_argument("--base-genus", type=int, required=True)
    p_bundle.add_argument("--premise", action="append",
                          choices=["null-homologous", "purely-pA"])
    p_bundle.set_defaults(func=_cmd_bundle_report)

    p_orbit = sub.add_parser("orbit", help="compute an orbit, optionally dumping its states")
    _add_case_arguments(p_orbit)
    p_orbit.add_argument("--dump", default=None)
    p_orbit.set_defaults(func=_cmd_orbit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BadParameters, BadModulus, NotUnimodular) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (SchemaMismatch, InconsistentRamification) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 4
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        # a path named on the command line cannot be read or written
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """The process entry of `python -m coverforge` and the installed
    `coverforge` script: `main` on this process's arguments.

    Every module is imported by now, so the heap that numpy and the
    package built at import lives until exit.  `gc.freeze()` moves it to
    the permanent generation, where no collection walks it, the one at
    interpreter teardown included; that saves some 30 ms per process.
    `main` itself makes no gc call, so callers that run it in-process
    keep their own garbage collectable.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
