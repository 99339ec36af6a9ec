"""Coset actions, ramification data, and Riemann-Hurwitz bookkeeping.

The cover attached to a representation rho and a subgroup H0 of the
target is encoded by the right-translation action on the right cosets
H0\\G0.  Cycle lengths of a peripheral image acting on the cosets are
the local degrees over that puncture.  For a product representation the
coset space is a product of per-factor spaces and the diagonal action
factors cycle by cycle: cycles of lengths l and m combine into
gcd(l, m) cycles of length lcm(l, m), so the full local-degree multiset
is computed from per-factor cycle types without materializing the
product space.  Multisets are stored as {length: count} dictionaries
with exact (arbitrary precision) counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BadParameters, InconsistentRamification
from .groups import GroupTable, SubgroupData, group_table, normalizer
from .orbits import _product_closure_order


@dataclass
class CosetSpace:
    """Right cosets H\\G, labeled 0..d-1 in order of smallest member."""

    table: GroupTable
    degree: int
    point_of: np.ndarray  # element id -> coset label
    reps: np.ndarray      # coset label -> representative element id


def coset_space(h0: SubgroupData) -> CosetSpace:
    """The right cosets of h0 in its ambient group.  There are at most
    |G| of them, and the group itself is held to ``TABLE_LIMIT``, so the
    space needs no budget of its own.  The degree is the count of cosets
    enumerated, which ``degree_formula`` compares with |G|/|h0|."""
    table = group_table(h0.ambient)
    n = table.order
    if h0.order == 0 or n % h0.order:
        raise BadParameters("subgroup order must divide the group order")
    h_ids = h0.ids
    point_of = np.full(n, -1, dtype=np.int32)
    reps = []
    for eid in range(n):
        if point_of[eid] >= 0:
            continue
        coset = table.mul[h_ids, eid]
        point_of[coset] = len(reps)
        reps.append(eid)
    return CosetSpace(table, len(reps), point_of, np.array(reps, dtype=np.int64))


def coset_permutation(space: CosetSpace, gid: int) -> tuple[int, ...]:
    """The permutation Hx -> Hxg of coset labels, for the id of g."""
    return tuple(space.point_of[space.table.mul[space.reps, gid]].tolist())


def cycle_type(perm: Sequence[int]) -> dict[int, int]:
    """Multiset of cycle lengths as {length: count}."""
    seen = [False] * len(perm)
    out: Counter = Counter()
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        out[length] += 1
    return dict(out)


def combine_cycle_types(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    out: Counter = Counter()
    for l, cl in x.items():
        for m, cm in y.items():
            out[math.lcm(l, m)] += math.gcd(l, m) * cl * cm
    return dict(out)


def local_degrees_factored(
    factor_types: Sequence[dict[int, int]], multiplicities: Sequence[int]
) -> dict[int, int]:
    """Cycle type of the diagonal action on a product of coset spaces,
    given per-factor cycle types with the number of factors that have
    each.  Combining is commutative and associative, so equal types are
    grouped and each is raised to its multiplicity by repeated squaring:
    O(distinct types * log k) combines for k factors instead of k - 1."""
    counts: Counter = Counter()
    for factor_type, multiplicity in zip(factor_types, multiplicities, strict=True):
        if multiplicity:
            counts[tuple(sorted(factor_type.items()))] += multiplicity
    if not counts:
        raise BadParameters("need at least one factor")
    result = None
    for items, multiplicity in counts.items():
        base = dict(items)
        while multiplicity:
            if multiplicity & 1:
                result = base if result is None else combine_cycle_types(result, base)
            multiplicity >>= 1
            if multiplicity:
                base = combine_cycle_types(base, base)
    return result


def elevation_degree(table: GroupTable, peripheral: np.ndarray, puncture: int) -> int:
    """lcm of the orders of the puncture's image across the class reps,
    given one row of peripheral ids per rep (`surfaces.peripheral_ids`);
    this is the order of the product image, i.e. the covering degree of
    any elevation of the peripheral loop in the regular kernel cover."""
    return math.lcm(*set(table.orders[peripheral[:, puncture - 1]].tolist()))


def sums_to_degree(multiset: dict[int, int], degree: int) -> bool:
    """Do the local degrees over one puncture add up to the covering degree?"""
    return sum(length * count for length, count in multiset.items()) == degree


def riemann_hurwitz(
    degree: int, euler_closed_base: int, ramification: Sequence[dict[int, int]]
) -> tuple[int, int]:
    """chi and genus of the cover: chi = d*chi(S) - sum_y (deg_y - 1).

    The base Euler characteristic is that of the closed base surface
    (punctures filled).  The formula alone: the certificate's checks
    record whether each multiset sums to the degree, whether chi is even
    and whether the genus is not negative.
    """
    chi = degree * euler_closed_base - sum(
        (length - 1) * count for multiset in ramification for length, count in multiset.items()
    )
    return chi, 1 - chi // 2


def genus_lower_bound(p: int, k: int, g: int, n: int) -> Fraction:
    """1 + (p+1)^k (g - 1 + (n/2)(p-1)/(p+1)), exactly."""
    return 1 + Fraction((p + 1) ** k) * (g - 1 + Fraction(n * (p - 1), 2 * (p + 1)))


def proposition_genus_bound(index: int, k: int, g: int, n: int, delta: int) -> Fraction:
    """1 + [G0:H0]^k (g - 1 + n(delta-1)/(2 delta)), exactly."""
    return 1 + Fraction(index**k) * (g - 1 + Fraction(n * (delta - 1), 2 * delta))


def verify_deck_trivial(h0: SubgroupData) -> bool:
    """The deck group of the H0-coset cover is N(H0)/H0; it is trivial
    exactly when H0 is self-normalizing (the whole group included).  The
    certificate's self_normalizing hypothesis is this result too."""
    return normalizer(h0) == h0


def characteristic_core(
    table: GroupTable, class_rep_ids: np.ndarray, orders: Sequence[int]
) -> int | None:
    """The degree of the regular cover attached to the intersection of
    the kernels over the orbit (equivalently over the class reps, the
    (k, r) int64 id matrix, since postcomposition preserves kernels):
    the order of the product image, computed only while G^k is within
    ``orbits.PRODUCT_CLOSURE_CAP`` (the image has no smaller a priori
    bound) and None above it.  Each puncture's elevation order in
    `orders` is an element order of the image, so it divides the degree
    (Lagrange); the ramification rests on that, so
    InconsistentRamification is raised when it fails."""
    degree = _product_closure_order(table, class_rep_ids)
    if degree is not None and any(degree % order for order in orders):
        raise InconsistentRamification(
            f"peripheral orders {orders} do not all divide the image degree {degree}"
        )
    return degree
