"""Certificate construction, serialization, and independent verification.

A certificate is a canonical-JSON document (sorted keys, integers and
exact rationals only, no floats) that records the inputs, every searched
constant, the orbit summary, the hypothesis report, the cover geometry,
and a named check vector.  Construction is deterministic, so two runs
with the same configuration produce byte-identical files.

Verification re-derives every derivable field from the recorded inputs
and constants, diffs the result field by field, and additionally checks
a whole-document digest so that any single-field tampering is detected
even before the recomputation runs.  The once-punctured commutator pair
is replayed from its recorded constants; the other searched constants
(t, epsilon, the primitive root, the a0 generator, the dihedral order)
are searched again and diffed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import __version__
from .catalog import (
    CatalogBuild,
    build_characteristic_cyclic,
    build_characteristic_sym3,
    build_generic,
    build_genus_zero,
    build_once_punctured,
    extension_root_order,
    validate_commutator_pair,
    verify_hypotheses,
)
from .covers import (
    characteristic_core,
    coset_permutation,
    coset_space,
    cycle_type,
    elevation_degree,
    genus_lower_bound,
    local_degrees_factored,
    proposition_genus_bound,
    riemann_hurwitz,
    sums_to_degree,
    verify_deck_trivial,
)
from .errors import BadModulus, BadParameters, BudgetExceeded, NotUnimodular, SchemaMismatch
from .groups import FiniteGroupHandle, decode, encode, group_table
from .orbits import (
    DEFAULT_ORBIT_BUDGET,
    PRODUCT_CLOSURE_CAP,
    OrbitResult,
    aut_classes,
    orbit_closure,
    sha256,
    verify_characteristic_closure,
    verify_hall_surjectivity,
)
from .surfaces import is_surjective, peripheral_ids

SCHEMA_VERSION = "1"

CASES = ("generic", "once-punctured", "genus-zero", "char-cyclic", "char-sym3")
_CHARACTERISTIC = ("char-cyclic", "char-sym3")
# the deepest nesting parse_certificate accepts (certificates nest 6 deep):
# the decoder, the digest's encoder and the diff recurse once per level
_MAX_NESTING = 64
# recorded as budgets.coset: a coset space has at most |G| <= TABLE_LIMIT
# points, so no coset budget can bind and the recorded value is fixed
_FIXED_COSET_VALUE = 1_000_000


@dataclass(frozen=True)
class ConstructConfig:
    case: str
    p: int | None = None
    genus: int | None = None
    punctures: int | None = None
    explicit_t: int | None = None
    single_factor: bool = False
    orbit_budget: int = DEFAULT_ORBIT_BUDGET

    def __post_init__(self):
        if self.case not in CASES:
            raise BadParameters(f"unknown case {self.case!r}; pick one of {CASES}")
        if self.orbit_budget < 1:
            raise BadParameters(f"orbit budget must be positive, got {self.orbit_budget}")


def canonical_json(obj) -> str:
    # integers of any length are written: the int/str digit limit, which
    # guards parsing, is lifted around the encode alone
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    finally:
        sys.set_int_max_str_digits(limit)


def sha256_hex(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def _fraction_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _multiset_pairs(multiset: dict[int, int]) -> list[list[int]]:
    return [[int(length), int(count)] for length, count in sorted(multiset.items())]


def _digest_payload(cert: dict) -> str:
    body = {key: value for key, value in cert.items() if key != "certificate_digest"}
    return sha256_hex(canonical_json(body))


def attach_digest(cert: dict) -> dict:
    cert = dict(cert)
    cert["certificate_digest"] = _digest_payload(cert)
    return cert


# ---------------------------------------------------------------------------
# Case dispatch

def _build_case(config: ConstructConfig, constants: dict | None = None) -> CatalogBuild:
    """Build the configured family member; `constants` replays recorded
    searched values instead of searching."""
    case = config.case
    # a parameter the case does not read would change the digest alone
    if config.explicit_t is not None and case != "genus-zero":
        raise BadParameters(f"case {case} takes no --t; only genus-zero does")
    if config.p is not None and case in _CHARACTERISTIC:
        raise BadParameters(f"case {case} takes no --p")
    if case == "generic":
        _need(config, p=True, genus=True, punctures=True)
        return build_generic(config.p, config.genus, config.punctures)
    if case == "once-punctured":
        _need(config, p=True, genus=True)
        if config.punctures not in (None, 1):
            raise BadParameters("once-punctured case has exactly one puncture")
        pair = None
        if constants is not None and "A" in constants:
            pair = _recorded_pair(config.p, constants)
        return build_once_punctured(config.p, config.genus, pair=pair)
    if case == "genus-zero":
        _need(config, p=True, punctures=True)
        if config.genus not in (None, 0):
            raise BadParameters("genus-zero case has genus 0")
        explicit = config.explicit_t
        return build_genus_zero(config.p, config.punctures, explicit_t=explicit)
    if case == "char-cyclic":
        _need(config, genus=True, punctures=True)
        return build_characteristic_cyclic(config.genus, config.punctures)
    _need(config, genus=True)
    if config.punctures not in (None, 1):
        raise BadParameters("char-sym3 case has exactly one puncture")
    return build_characteristic_sym3(config.genus)


def _recorded_pair(p: int, constants: dict) -> tuple:
    """The ids of the recorded commutator pair (A, B, [A, B]);
    SchemaMismatch unless it decodes to PSL2 matrices with the pair's
    defining properties."""
    table = group_table(FiniteGroupHandle.psl2(p))
    try:
        pair = tuple(decode(table, constants[key]) for key in ("A", "B", "C"))
    except (KeyError, TypeError, ValueError, OverflowError, NotUnimodular) as exc:
        raise SchemaMismatch(
            f"recorded constants.A, B, C are not PSL2 matrices: {exc!r}"
        ) from exc
    if not validate_commutator_pair(p, *pair):
        raise SchemaMismatch(
            "recorded constants.A, B, C fail the commutator pair's defining properties"
        )
    return pair


def _need(config: ConstructConfig, p=False, genus=False, punctures=False) -> None:
    if p and config.p is None:
        raise BadParameters(f"case {config.case} needs --p")
    if genus and config.genus is None:
        raise BadParameters(f"case {config.case} needs --genus")
    if punctures and config.punctures is None:
        raise BadParameters(f"case {config.case} needs --punctures")


def _expected_orders_ok(build: CatalogBuild, orders: tuple[int, ...]) -> bool:
    if build.expected_orders is not None:
        return orders == build.expected_orders
    # genus-zero dihedral variant: c_1 .. c_{n-1} of order p; c_n nontrivial
    # with order dividing (p-1)/2 or (p+1)/2 by the reducibility of the
    # trace polynomial
    p = build.p
    t = build.constants["t"]
    reducible = extension_root_order(p, t) is None
    half = (p - 1) // 2 if reducible else (p + 1) // 2
    body, last = orders[:-1], orders[-1]
    return all(o == p for o in body) and last > 1 and half % last == 0


# ---------------------------------------------------------------------------
# Pipeline

def construct(config: ConstructConfig) -> dict:
    """Run the full pipeline and return the finished certificate."""
    return attach_digest(_run_pipeline(config, constants=None))


def _run_pipeline(config: ConstructConfig, constants: dict | None) -> dict:
    build = _build_case(config, constants)
    rep = build.rep
    sig = build.signature
    table = group_table(rep.target)
    if config.single_factor and config.case in _CHARACTERISTIC:
        raise BadParameters("single-factor mode applies to the PSL2 cases only")
    checks: dict[str, bool] = {}
    cert: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "coverforge", "version": __version__},
        "seed": None,
        "inputs": {
            "case": config.case,
            "p": build.p,
            "genus": sig.g,
            "punctures": sig.n,
            "flags": {
                "single_factor": config.single_factor,
                "explicit_t": config.explicit_t,
            },
        },
        "budgets": {
            "orbit": config.orbit_budget,
            # fixed values, not budgets: a file that records another
            # value fails the replay's diff
            "coset": _FIXED_COSET_VALUE,
            "closure": PRODUCT_CLOSURE_CAP,
            "hall_direct_cap": PRODUCT_CLOSURE_CAP,
        },
        "constants": dict(build.constants),
    }
    result = _orbit_stage(config, rep, cert, checks)
    # the one peripheral pass, which the representation section and both
    # cover stages read: each class rep's c_1 .. c_n ids, row 0 the built
    # tuple (alone for single-factor), and each puncture's elevation order
    reps = np.array([rep.images], dtype=np.int64) if result is None else result.class_rep_ids
    peripheral = peripheral_ids(table, sig, reps)
    built = peripheral[0]
    orders = tuple(table.orders[built].tolist())
    checks["relation_holds"] = build.claimed_cn == int(built[-1])
    checks["surjective"] = is_surjective(table, rep.images)
    checks["peripheral_orders_expected"] = _expected_orders_ok(build, orders)
    cert["representation"] = {
        "target": rep.target.describe(),
        "images": {name: encode(table, g) for name, g in rep.images_by_name.items()},
        "derived_cn": encode(table, built[-1]),
        "peripheral_orders": list(orders),
        "delta": min(orders),
    }
    elevation = tuple(elevation_degree(table, peripheral, i) for i in range(1, sig.n + 1))
    if config.case in _CHARACTERISTIC:
        _characteristic_stages(build, result, elevation, cert, checks)
    else:
        _irregular_stages(build, orders, result, peripheral, elevation, cert, checks)

    checks_sorted = dict(sorted(checks.items()))
    cert["checks"] = checks_sorted
    cert["all_checks_pass"] = all(checks_sorted.values())
    return cert


def _orbit_stage(config, rep, cert, checks) -> OrbitResult | None:
    """The Nielsen orbit of the built representation, its Aut classes and
    the closure check, for every case; None for single-factor, which
    records k = 1 and no orbit."""
    if config.single_factor:
        cert["orbit"] = {
            "size": None,
            "k": 1,
            "class_reps_digest": None,
            "states_explored": None,
            "levels": None,
        }
        return None
    orbit = orbit_closure(rep, config.orbit_budget)
    result = aut_classes(orbit)
    checks["orbit_completed"] = orbit.size <= config.orbit_budget
    checks["characteristic_closure"] = verify_characteristic_closure(result)
    cert["orbit"] = {
        "size": orbit.size,
        "k": result.k,
        "class_reps_digest": result.class_reps_digest(),
        "states_explored": orbit.size,
        "levels": orbit.levels,
    }
    return result


def _irregular_stages(build, orders, result, peripheral, elevation, cert, checks) -> None:
    rep = build.rep
    sig = build.signature
    h0 = build.h0
    table = group_table(rep.target)
    deck = verify_deck_trivial(h0)
    hyp = verify_hypotheses(h0, orders, deck)
    checks["self_normalizing"] = hyp.self_normalizing
    checks["aut_eq_inn"] = hyp.aut_eq_inn
    checks["delta_ge_2"] = hyp.delta_ge_2
    checks["coprimality"] = all(row[3] for row in hyp.coprimality)
    checks["hypotheses_all_pass"] = hyp.all_pass
    cert["hypotheses"] = hyp.to_json_dict(table)
    cert["subgroup"] = {
        "label": build.h0_label,
        "order": h0.order,
        "index": rep.target.order // h0.order,
        "generators": encode(table, sorted(h0.generators)),
    }

    if result is None:
        cert["variant"] = "single-factor-diagnostic"
        cert["budget_used"] = {"hall_mode": None}
    else:
        hall = verify_hall_surjectivity(result)
        checks["hall_surjective"] = hall.ok
        checks["class_reps_pairwise_inequivalent"] = hall.pairwise_inequivalent
        cert["variant"] = "irregular"
        cert["budget_used"] = {"hall_mode": "hypothesis-only"}

    space = coset_space(h0)
    index = space.degree
    k = len(peripheral)
    degree = index**k
    # each distinct peripheral id's coset cycle type is computed once, and
    # each puncture counts the reps that have each id
    distinct, where = np.unique(peripheral, return_inverse=True)
    where = where.reshape(peripheral.shape)
    types = [cycle_type(coset_permutation(space, g)) for g in distinct]
    ramification = []
    sums_ok = True
    divisible = True
    quotient_divides = True
    h_order_k = h0.order**k
    for i, d_i in enumerate(elevation, start=1):
        reps_with = np.bincount(where[:, i - 1], minlength=len(types))
        multiset = local_degrees_factored(types, reps_with.tolist())
        delta_i = orders[i - 1]
        sums_ok &= sums_to_degree(multiset, degree)
        divisible &= all(length % delta_i == 0 for length in multiset)
        quotient_divides &= all(
            d_i % length == 0 and h_order_k % (d_i // length) == 0 for length in multiset
        )
        ramification.append(multiset)
    if build.mode == "dihedral-remark":
        bound = proposition_genus_bound(index, k, sig.g, sig.n, min(orders))
        bound_kind = "proposition"
    else:
        bound = genus_lower_bound(build.p, k, sig.g, sig.n)
        bound_kind = "theorem"
    cover = {
        "degree": degree,
        "index": index,
        "bound": _fraction_pair(bound),
        "bound_kind": bound_kind,
        "deck_trivial": deck,
        "regular": index == 1,
    }
    genus = _riemann_hurwitz_stage(degree, sig, ramification, elevation, cover, checks)
    checks["degree_formula"] = degree == (rep.target.order // h0.order) ** k
    checks["ramification_sums_to_degree"] = sums_ok
    checks["local_degrees_divisible_by_delta"] = divisible
    checks["elevation_quotient_divides_h_order"] = quotient_divides
    checks["genus_ge_bound"] = Fraction(genus) >= bound
    checks["deck_trivial"] = deck
    cert["cover"] = cover
    cert["blanket_hypothesis"] = (
        build.p >= max(sig.n, 13) and build.p % 4 == 1
    )


def _characteristic_stages(build, result: OrbitResult, orders, cert, checks) -> None:
    """The regular cover of the orbit's kernel intersection, given each
    puncture's elevation order (the order of its product image)."""
    sig = build.signature
    degree = characteristic_core(result.orbit.table, result.class_rep_ids, orders)
    checks["peripheral_orders_ge_2"] = all(order >= 2 for order in orders)
    checks["degree_computed"] = degree is not None
    cert["variant"] = "characteristic-core (orbit variant)"
    cert["budget_used"] = {"hall_mode": None}
    cover: dict = {
        "peripheral_orders": list(orders),
        "degree": degree,
        "regular": True,
        "deck_trivial": False,
        "bound": None,
        "euler": None,
        "genus": None,
        "ramification": None,
    }
    if degree is not None:
        ramification = [{order: degree // order} for order in orders]
        _riemann_hurwitz_stage(degree, sig, ramification, orders, cover, checks)
    cert["cover"] = cover
    cert["blanket_hypothesis"] = None


def _riemann_hurwitz_stage(degree, sig, ramification, elevation, cover, checks) -> int:
    """Write the cover's Euler characteristic, genus and per-puncture
    ramification, given each puncture's local-degree multiset and
    elevation order, and the two checks on them; return the genus."""
    chi, genus = riemann_hurwitz(degree, sig.euler_closed, ramification)
    checks["chi_even"] = chi % 2 == 0
    checks["genus_nonnegative_integer"] = genus >= 0
    cover["euler"] = chi
    cover["genus"] = genus
    cover["ramification"] = [
        {"puncture": i, "elevation_order": d_i, "local_degrees": _multiset_pairs(multiset)}
        for i, (d_i, multiset) in enumerate(zip(elevation, ramification), start=1)
    ]
    return genus


# ---------------------------------------------------------------------------
# Verification

@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    schema_ok: bool
    digest_ok: bool
    all_checks_true: bool
    mismatches: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "schema_ok": self.schema_ok,
            "digest_ok": self.digest_ok,
            "all_checks_true": self.all_checks_true,
            "mismatches": list(self.mismatches),
        }


def parse_certificate(text: str | bytes) -> dict:
    """The certificate in a JSON document, UTF-8 when given as bytes."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"certificate is not UTF-8 text: {exc}") from exc
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"not valid JSON: {exc}") from exc
    except ValueError as exc:
        # an integer longer than the interpreter's int/str digit limit
        raise SchemaMismatch(f"certificate holds an unreadable integer: {exc}") from exc
    except RecursionError as exc:
        raise SchemaMismatch(f"certificate nests deeper than {_MAX_NESTING} levels") from exc
    if _nests_deeper(cert, _MAX_NESTING):
        raise SchemaMismatch(f"certificate nests deeper than {_MAX_NESTING} levels")
    if not isinstance(cert, dict):
        raise SchemaMismatch(f"certificate root must be a JSON object, got {type(cert).__name__}")
    if cert.get("schema_version") != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"expected schema_version {SCHEMA_VERSION!r}, got {cert.get('schema_version')!r}"
        )
    return cert


def _nests_deeper(value, limit: int) -> bool:
    """Whether JSON containers nest more than `limit` deep, walked level
    by level rather than by recursion."""
    level = [value]
    for _ in range(limit + 1):
        level = [node for node in level if isinstance(node, (dict, list))]
        if not level:
            return False
        level = [c for node in level for c in (node.values() if isinstance(node, dict) else node)]
    return True


def _recorded(parent: dict, path: str, kind: type, nullable: bool = False):
    """The value at a dotted certificate path, one level below `parent`;
    SchemaMismatch when it is missing or not exactly of `kind` (so a JSON
    bool is no int), unless it is null and `nullable`."""
    key = path.rsplit(".", 1)[-1]
    if key not in parent:
        raise SchemaMismatch(f"certificate lacks {path}")
    value = parent[key]
    if (value is None and nullable) or type(value) is kind:
        return value
    raise SchemaMismatch(f"{path} must be {kind.__name__}, got {type(value).__name__}")


def _config_from_certificate(cert: dict) -> ConstructConfig:
    inputs = _recorded(cert, "inputs", dict)
    budgets = _recorded(cert, "budgets", dict)
    flags = _recorded(inputs, "inputs.flags", dict)
    return ConstructConfig(
        case=_recorded(inputs, "inputs.case", str),
        p=_recorded(inputs, "inputs.p", int, nullable=True),
        genus=_recorded(inputs, "inputs.genus", int, nullable=True),
        punctures=_recorded(inputs, "inputs.punctures", int, nullable=True),
        explicit_t=_recorded(flags, "inputs.flags.explicit_t", int, nullable=True),
        single_factor=_recorded(flags, "inputs.flags.single_factor", bool),
        orbit_budget=_recorded(budgets, "budgets.orbit", int),
    )


def _diff(expected, found, path: str, out: list[str]) -> None:
    if isinstance(expected, dict) and isinstance(found, dict):
        for key in sorted(set(expected) | set(found)):
            if key not in expected or key not in found:
                out.append(f"{path}.{key}" if path else key)
            else:
                _diff(expected[key], found[key], f"{path}.{key}" if path else key, out)
    elif isinstance(expected, list) and isinstance(found, list):
        if len(expected) != len(found):
            out.append(path)
        else:
            for i, (e, f) in enumerate(zip(expected, found)):
                _diff(e, f, f"{path}[{i}]", out)
    elif expected != found:
        out.append(path)


def _check_verifier_caps(config: ConstructConfig, orbit_cap: int) -> None:
    """BudgetExceeded when the recorded orbit budget is above the
    verifier's own cap: the file cannot choose how much work its replay
    may do.  The group itself (and so each of its coset spaces) is held
    to the table limit when the replay names it, and the coset and
    product closure values are fixed, so a file that records another
    value fails the diff."""
    budget = config.orbit_budget
    if budget > orbit_cap:
        raise BudgetExceeded(
            f"certificate orbit budget {budget} exceeds the verifier cap {orbit_cap}",
            used=budget,
            budget=orbit_cap,
        )


def verify(cert: dict, orbit_cap: int = DEFAULT_ORBIT_BUDGET) -> VerifyReport:
    """Recompute everything derivable and compare bit for bit.

    The document digest is checked first, so a tampered certificate
    fails immediately; the recorded inputs are then checked for shape
    (SchemaMismatch) and against the verifier's caps (BudgetExceeded),
    and the recomputation replays the pipeline from them, with the
    recorded commutator pair in place of its search.  Recorded inputs
    that fail a precondition of the replay are a SchemaMismatch too; a
    cap below 1 is a BadParameters, before the certificate is read.
    """
    if orbit_cap < 1:
        raise BadParameters(f"verifier orbit cap must be positive, got {orbit_cap}")
    schema_ok = cert.get("schema_version") == SCHEMA_VERSION
    if not schema_ok:
        return VerifyReport(False, False, False, False, ("schema_version",))
    digest_ok = cert.get("certificate_digest") == _digest_payload(cert)
    if not digest_ok:
        return VerifyReport(False, True, False, False, ("certificate_digest",))
    try:
        config = _config_from_certificate(cert)
        _check_verifier_caps(config, orbit_cap)
        constants = _recorded(cert, "constants", dict)
        rebuilt = attach_digest(_run_pipeline(config, constants=constants))
    except (BadParameters, BadModulus, NotUnimodular) as exc:
        raise SchemaMismatch(f"recorded inputs fail a precondition of the replay: {exc}") from exc
    mismatches: list[str] = []
    _diff(rebuilt, cert, "", mismatches)
    checks = cert.get("checks")
    all_true = (
        isinstance(checks, dict) and bool(checks) and all(checks.values())
        and bool(cert.get("all_checks_pass"))
    )
    passed = digest_ok and not mismatches and all_true
    # deduplicate, preserve order
    seen: dict[str, None] = {}
    for m in mismatches:
        seen.setdefault(m)
    return VerifyReport(passed, True, digest_ok, all_true, tuple(seen))


def write_certificate(cert: dict, path: str) -> None:
    """Atomic write: the file appears only if the certificate is complete."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    payload = canonical_json(cert) + "\n"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".coverforge-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Bundle bookkeeping

PREMISE_NULL_HOMOLOGOUS = "null-homologous"
PREMISE_PURELY_PA = "purely-pA"


def bundle_report(fiber_genus: int, base_genus: int, premises: Sequence[str] = ()) -> dict:
    """Exact Euler characteristic of a fiber-genus bundle over a base
    surface, plus caller-asserted provenance flags.

    chi(E) = 4 (g - 1)(h - 1).  The signature-zero flag is set only when
    the caller asserts the base class is null-homologous, and the
    atoroidality flag only when the caller asserts the monodromy image
    is purely pseudo-Anosov; the tool echoes these premises verbatim and
    never claims to check them.
    """
    if fiber_genus < 2 or base_genus < 2:
        raise BadParameters("both fiber and base genus must be at least 2")
    unknown = [p for p in premises if p not in (PREMISE_NULL_HOMOLOGOUS, PREMISE_PURELY_PA)]
    if unknown:
        raise BadParameters(f"unknown premises {unknown}")
    premises = sorted(set(premises))
    return {
        "fiber_genus": fiber_genus,
        "base_genus": base_genus,
        "euler_total": 4 * (fiber_genus - 1) * (base_genus - 1),
        "signature_zero": PREMISE_NULL_HOMOLOGOUS in premises,
        "atoroidal": PREMISE_PURELY_PA in premises,
        "premises": list(premises),
    }
