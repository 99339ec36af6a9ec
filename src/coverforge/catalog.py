"""The explicit representation families and subgroup choices.

Three PSL2 families (split by surface topology) feed the irregular-cover
pipeline, and two small families (cyclic and Sym(3) targets) feed the
characteristic-cover pipeline.  Builders return the representation, the
chosen subgroup H0 of the target when the family uses one, and every
searched constant, so a certificate can replay the construction without
re-searching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, SearchExhausted
from .groups import (
    FiniteGroupHandle,
    GroupTable,
    SubgroupData,
    are_conjugate_subgroups,
    closure_ids,
    decode,
    encode,
    group_table,
    is_prime,
    nonsquare,
    normalizer,
    subgroup_closure,
)
from .surfaces import RepTuple, SurfaceSignature


@dataclass(frozen=True)
class CatalogBuild:
    """One constructed family member plus its provenance."""

    signature: SurfaceSignature
    p: int | None
    rep: RepTuple
    h0: SubgroupData | None
    h0_label: str | None
    claimed_cn: int | None  # table id
    constants: dict
    expected_orders: tuple[int, ...] | None
    mode: str


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the subgroup conditions needed by the irregular pipeline."""

    self_normalizing: bool
    aut_eq_inn: bool
    aut_witness: int | None  # table id
    d0_stabilizes_h0: bool
    delta_ge_2: bool
    coprimality: tuple[tuple[int, int, int, bool], ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.self_normalizing
            and self.aut_eq_inn
            and self.delta_ge_2
            and all(row[3] for row in self.coprimality)
        )

    def to_json_dict(self, table: GroupTable) -> dict:
        witness = self.aut_witness
        return {
            "self_normalizing": self.self_normalizing,
            "aut_eq_inn": self.aut_eq_inn,
            "aut_witness": None if witness is None else encode(table, witness),
            "d0_stabilizes_h0": self.d0_stabilizes_h0,
            "delta_ge_2": self.delta_ge_2,
            "coprimality": [list(row) for row in self.coprimality],
            "all_pass": self.all_pass,
        }


def _require_valid_prime(p: int) -> None:
    if not is_prime(p) or p < 5:
        raise BadParameters(f"need a prime p >= 5, got {p}")


def smallest_primitive_root(p: int) -> int:
    for r in range(2, p):
        seen = 1
        x = r
        while x != 1:
            x = x * r % p
            seen += 1
        if seen == p - 1:
            return r
    raise BadParameters(f"no primitive root mod {p}")


def diagonal_torus(p: int) -> tuple[SubgroupData, int, int]:
    """The diagonal subgroup of PSL2(F_p), its generator's id, and the root used."""
    handle = FiniteGroupHandle.psl2(p)
    root = smallest_primitive_root(p)
    gen = decode(group_table(handle), (root, 0, 0, pow(root, p - 2, p)))
    return subgroup_closure((gen,), handle), gen, root


def borel_subgroup(p: int) -> SubgroupData:
    """Upper triangular matrices in PSL2(F_p); order p(p-1)/2."""
    handle = FiniteGroupHandle.psl2(p)
    _, torus_gen, _ = diagonal_torus(p)
    unipotent = decode(group_table(handle), (1, 1, 0, 1))
    sub = subgroup_closure((unipotent, torus_gen), handle)
    assert sub.order == p * (p - 1) // 2
    return sub


def smallest_element_of_order(p: int, order: int) -> int:
    """The smallest id of the given order in PSL2(F_p)."""
    ids = np.flatnonzero(group_table(FiniteGroupHandle.psl2(p)).orders == order)
    if ids.size == 0:
        raise SearchExhausted(f"no element of order {order} in PSL2(F_{p})")
    return int(ids[0])


def dihedral_subgroup(p: int, order: int) -> SubgroupData:
    """A dihedral subgroup of PSL2(F_p) of order p-1 or p+1.

    Built as the closure of the smallest rotation of order `order/2`
    and the smallest involution inverting it whose closure has that
    order; every candidate involution is closed in one batch.
    """
    if order not in (p - 1, p + 1) or order % 2:
        raise BadParameters(f"dihedral order must be p-1 or p+1 and even, got {order}")
    handle = FiniteGroupHandle.psl2(p)
    rotation = smallest_element_of_order(p, order // 2)
    table = group_table(handle)
    mul, inv = table.mul, table.inv
    involutions = np.flatnonzero(table.orders == 2)
    involutions = involutions[mul[mul[involutions, rotation], inv[involutions]] == inv[rotation]]
    members = closure_ids(table, [[rotation, j] for j in involutions.tolist()])
    hits = np.flatnonzero(members.sum(axis=1) == order)
    if hits.size == 0:
        raise SearchExhausted(f"no dihedral subgroup of order {order} found in PSL2(F_{p})")
    return SubgroupData(handle, (rotation, int(involutions[hits[0]])), members[hits[0]])


# ---------------------------------------------------------------------------
# Quadratic-extension scratch arithmetic for selecting t

def _ext_mul(x, y, p, trace_coeff):
    """Multiply u + v*alpha in F_p[alpha]/(alpha^2 - trace_coeff*alpha + 1)."""
    u1, v1 = x
    u2, v2 = y
    u = (u1 * u2 - v1 * v2) % p
    v = (u1 * v2 + u2 * v1 + v1 * v2 * trace_coeff) % p
    return (u, v)


def extension_root_order(p: int, t: int) -> int | None:
    """Order of a root of x^2 - (2+t)x + 1 in F_{p^2}, or None if the
    polynomial is reducible over F_p (including a double root)."""
    t = t % p
    trace_coeff = (2 + t) % p
    disc = (trace_coeff * trace_coeff - 4) % p
    if disc == 0 or pow(disc, (p - 1) // 2, p) == 1:
        return None
    # the root alpha = (0, 1) has norm 1, so its order divides p + 1
    one = (1, 0)
    alpha = (0, 1)
    for k in sorted(_divisors(p + 1)):
        if _ext_pow(alpha, k, p, trace_coeff) == one:
            return k
    raise AssertionError("norm-one root must have order dividing p+1")


def _ext_pow(x, k, p, trace_coeff):
    result = (1, 0)
    base = x
    while k:
        if k & 1:
            result = _ext_mul(result, base, p, trace_coeff)
        base = _ext_mul(base, base, p, trace_coeff)
        k >>= 1
    return result


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def select_t(p: int) -> int:
    """Smallest t in [1, p-1] making x^2 - (2+t)x + 1 irreducible with
    roots of multiplicative order exactly p + 1."""
    _require_valid_prime(p)
    if p % 4 != 1:
        raise BadParameters(f"need p = 1 mod 4, got {p}")
    for t in range(1, p):
        if extension_root_order(p, t) == p + 1:
            return t
    raise SearchExhausted(f"no admissible t mod {p}")


# ---------------------------------------------------------------------------
# Commutator pair search (once-punctured family)

def search_commutator_pair(p: int) -> tuple[int, int, int]:
    """Lexicographically first (A, B) generating PSL2(F_p) with
    commutator [A, B] of order (p+1)/2; returns the ids of (A, B, [A, B]).

    The scan reads the orders of all commutators [A, B] of one A at once
    from the table; each pair whose commutator has the target order is
    then closed to test that it generates.
    """
    handle = FiniteGroupHandle.psl2(p)
    _require_valid_prime(p)
    table = group_table(handle)
    mul, inv = table.mul, table.inv
    target = (p + 1) // 2
    for i in range(table.order):
        commutators = mul[mul[i], mul[inv[i], inv]]
        for j in np.flatnonzero(table.orders[commutators] == target).tolist():
            if closure_ids(table, [[i, j]])[0].all():
                return i, j, int(commutators[j])
    raise SearchExhausted(
        f"no generating pair with commutator order {(p + 1) // 2} in PSL2(F_{p})"
    )


def validate_commutator_pair(p: int, a: int, b: int, c: int) -> bool:
    """Defining properties of the ids (A, B, [A, B]), not minimality:
    replayed by verification."""
    table = group_table(FiniteGroupHandle.psl2(p))
    if not all(0 <= x < table.order for x in (a, b, c)):
        return False
    mul, inv = table.mul, table.inv
    if mul[mul[a, b], mul[inv[a], inv[b]]] != c or table.orders[c] != (p + 1) // 2:
        return False
    return bool(closure_ids(table, [[a, b]])[0].all())


# ---------------------------------------------------------------------------
# Builders

def build_generic(p: int, g: int, n: int) -> CatalogBuild:
    """g >= 1 handles and n >= 2 punctures: both a_1, b_1 go to the upper
    unipotent, every c_i(i < n) to the lower unipotent, and the relation
    forces c_n to a lower unipotent as well."""
    handle = FiniteGroupHandle.psl2(p)
    _require_valid_prime(p)
    if g < 1 or n < 2:
        raise BadParameters("generic family needs g >= 1 and n >= 2")
    if p < n:
        raise BadParameters(f"generic family needs p >= n, got p={p}, n={n}")
    sig = SurfaceSignature(g, n)
    table = group_table(handle)
    upper = decode(table, (1, 1, 0, 1))
    lower = decode(table, (1, 0, 1, 1))
    images = [upper, upper] + [table.identity_id] * (2 * (g - 1)) + [lower] * (n - 1)
    rep = RepTuple(sig, handle, tuple(images))
    claimed = decode(table, (1, 0, p - n + 1, 1))
    a0, a0_gen, root = diagonal_torus(p)
    h0 = normalizer(a0)
    constants = {
        "epsilon": nonsquare(p),
        "primitive_root": root,
        "a0_generator": encode(table, a0_gen),
    }
    return CatalogBuild(
        signature=sig,
        p=p,
        rep=rep,
        h0=h0,
        h0_label="diagonal-normalizer",
        claimed_cn=claimed,
        constants=constants,
        expected_orders=(p,) * n,
        mode="primary",
    )


def build_once_punctured(
    p: int,
    g: int,
    pair: tuple[int, int, int] | None = None,
) -> CatalogBuild:
    """g >= 1 and a single puncture: a_1, b_1 go to a generating pair
    whose commutator has order (p+1)/2, so the derived c_1 does too.

    A supplied ``pair`` of ids (A, B, [A, B]) is used as given in place
    of the search; the caller checks it with `validate_commutator_pair`.
    """
    handle = FiniteGroupHandle.psl2(p)
    if not is_prime(p) or p < 13:
        raise BadParameters(f"once-punctured family needs a prime p >= 13, got {p}")
    if g < 1:
        raise BadParameters("once-punctured family needs g >= 1")
    sig = SurfaceSignature(g, 1)
    a, b, c = search_commutator_pair(p) if pair is None else pair
    table = group_table(handle)
    images = [a, b] + [table.identity_id] * (2 * (g - 1))
    rep = RepTuple(sig, handle, tuple(images))
    h0 = borel_subgroup(p)
    constants = {
        "epsilon": nonsquare(p),
        "primitive_root": smallest_primitive_root(p),
        "A": encode(table, a),
        "B": encode(table, b),
        "C": encode(table, c),
    }
    return CatalogBuild(
        signature=sig,
        p=p,
        rep=rep,
        h0=h0,
        h0_label="borel",
        claimed_cn=c,
        constants=constants,
        expected_orders=((p + 1) // 2,),
        mode="primary",
    )


def build_genus_zero(p: int, n: int, explicit_t: int | None = None) -> CatalogBuild:
    """The n-punctured sphere: c_1 .. c_{n-2} go to a lower unipotent
    with parameter s = (n-2)^-1, c_{n-1} to an upper unipotent with
    parameter t, and the relation forces c_n.

    With the default t (roots of x^2-(2+t)x+1 of order p+1) the last
    peripheral image has order (p+1)/2 and H0 is the normalizer of the
    diagonal subgroup.  Supplying explicit_t switches to the variant
    where H0 is a dihedral subgroup of order p+1 or p-1 according to the
    reducibility of x^2-(2+t)x+1.
    """
    handle = FiniteGroupHandle.psl2(p)
    _require_valid_prime(p)
    if n < 3:
        raise BadParameters("genus-zero family needs n >= 3")
    if p % 4 != 1:
        raise BadParameters(f"genus-zero family needs p = 1 mod 4, got {p}")
    if p <= n - 2:
        raise BadParameters(f"genus-zero family needs p > n - 2, got p={p}, n={n}")
    sig = SurfaceSignature(0, n)
    s = pow(n - 2, p - 2, p)
    if explicit_t is None:
        t = select_t(p)
        mode = "primary"
    else:
        t = explicit_t % p
        if t == 0:
            raise BadParameters("explicit t must be nonzero mod p")
        mode = "dihedral-remark"
    table = group_table(handle)
    lower = decode(table, (1, 0, s, 1))
    upper_t = decode(table, (1, t, 0, 1))
    images = [lower] * (n - 2) + [upper_t]
    rep = RepTuple(sig, handle, tuple(images))
    claimed = decode(table, (1 + t, -t, -1, 1))
    a0, a0_gen, root = diagonal_torus(p)
    constants: dict = {
        "epsilon": nonsquare(p),
        "primitive_root": root,
        "s": s,
        "t": t,
        "a0_generator": encode(table, a0_gen),
    }
    if mode == "primary":
        h0 = normalizer(a0)
        h0_label = "diagonal-normalizer"
        expected = (p,) * (n - 1) + ((p + 1) // 2,)
    else:
        reducible = extension_root_order(p, t) is None
        order = p + 1 if reducible else p - 1
        h0 = dihedral_subgroup(p, order)
        h0_label = f"dihedral-{order}"
        constants["dihedral_order"] = order
        expected = None  # orders checked dynamically for the variant
    return CatalogBuild(
        signature=sig,
        p=p,
        rep=rep,
        h0=h0,
        h0_label=h0_label,
        claimed_cn=claimed,
        constants=constants,
        expected_orders=expected,
        mode=mode,
    )


def build_characteristic_cyclic(g: int, n: int) -> CatalogBuild:
    """All handles to 0, every peripheral to 1 in Z/n (n >= 2)."""
    if n < 2:
        raise BadParameters("characteristic cyclic family needs n >= 2")
    # the group's table limit first: n is also the puncture count
    handle = FiniteGroupHandle.cyclic(n)
    sig = SurfaceSignature(g, n)
    table = group_table(handle)
    zero, one = decode(table, 0), decode(table, 1)
    images = [zero] * (2 * g) + [one] * (n - 1)
    rep = RepTuple(sig, handle, tuple(images))
    return CatalogBuild(
        signature=sig,
        p=None,
        rep=rep,
        h0=None,
        h0_label=None,
        claimed_cn=one,
        constants={},
        expected_orders=(n,) * n,
        mode="characteristic",
    )


def build_characteristic_sym3(g: int) -> CatalogBuild:
    """One puncture: a_1 -> (12), b_1 -> (23); the derived peripheral is
    the 3-cycle [(12), (23)] = (123)."""
    if g < 1:
        raise BadParameters("characteristic Sym(3) family needs g >= 1")
    sig = SurfaceSignature(g, 1)
    handle = FiniteGroupHandle.symmetric(3)
    table = group_table(handle)
    # one-line images of (12), (23) and (123) on the points 0, 1, 2
    swap01, swap12 = decode(table, (1, 0, 2)), decode(table, (0, 2, 1))
    images = [swap01, swap12] + [table.identity_id] * (2 * (g - 1))
    rep = RepTuple(sig, handle, tuple(images))
    claimed = decode(table, (1, 2, 0))
    return CatalogBuild(
        signature=sig,
        p=None,
        rep=rep,
        h0=None,
        h0_label=None,
        claimed_cn=claimed,
        constants={},
        expected_orders=(3,),
        mode="characteristic",
    )


# ---------------------------------------------------------------------------
# Hypothesis verification

def verify_hypotheses(h0: SubgroupData, orders: tuple[int, ...]) -> HypothesisReport:
    """Check the subgroup conditions used by the irregular pipeline:
    H0 self-normalizing, every automorphism image of H0 conjugate to H0,
    and the peripheral `orders` >= 2 and coprime to |H0|.

    Every automorphism of the PSL2 target is inner composed with
    conjugation by d0 = diag(1, epsilon), so the second condition
    reduces to: d0 H0 d0^-1 is conjugate to H0 in the group.
    """
    g0 = h0.ambient
    d0 = group_table(g0).d0
    image = np.zeros(d0.size, dtype=bool)
    image[d0[h0.members]] = True
    conjugated = SubgroupData(g0, tuple(int(d0[g]) for g in h0.generators), image)
    aut_eq_inn, witness = are_conjugate_subgroups(conjugated, h0)
    coprimality = tuple(
        (order, h0.order, math.gcd(order, h0.order), math.gcd(order, h0.order) == 1)
        for order in orders
    )
    return HypothesisReport(
        self_normalizing=normalizer(h0) == h0,
        aut_eq_inn=aut_eq_inn,
        aut_witness=witness,
        d0_stabilizes_h0=conjugated == h0,
        delta_ge_2=all(order >= 2 for order in orders),
        coprimality=coprimality,
    )
