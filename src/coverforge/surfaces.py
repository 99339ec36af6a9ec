"""Punctured-surface fundamental groups and their finite-group
representations.

A genus-g surface with n >= 1 punctures has free fundamental group of
rank r = 2g + n - 1 on generators (a_1, b_1, .., a_g, b_g, c_1, ..,
c_{n-1}); the last peripheral loop c_n is not free but is determined by
the surface relation

    [a_1, b_1] ... [a_g, b_g] = c_1 c_2 ... c_n,

with [x, y] = x y x^-1 y^-1.  A representation is stored as the tuple of
table ids of the images of the free generators in that fixed order;
everything about c_n is derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, BudgetExceeded
from .groups import FiniteGroupHandle, GroupTable, closure_ids, group_table

# the largest free rank 2g + n - 1 of a surface.  Work that grows with
# the rank runs before any orbit: the builders' rank-long image lists
# and the surface relation's loop over the g commutators.  A recorded
# genus of 10**6 ran past 30 s.  So the signature, which every builder
# makes before any rank-long object, checks the rank.  64 is well above
# every rank a test or benchmark orbit completes at (10 at most).
MAX_RANK = 64


@dataclass(frozen=True)
class SurfaceSignature:
    """Genus and puncture count of a punctured surface with chi < 0."""

    g: int
    n: int

    def __post_init__(self):
        if self.g < 0 or self.n < 1:
            raise BadParameters("need genus >= 0 and at least one puncture")
        if self.euler >= 0:
            raise BadParameters(
                f"surface (g={self.g}, n={self.n}) has chi = {self.euler} >= 0"
            )
        if self.free_rank > MAX_RANK:
            raise BudgetExceeded(
                f"free rank {self.free_rank} exceeds the rank limit {MAX_RANK}",
                used=self.free_rank,
                budget=MAX_RANK,
            )

    @property
    def euler(self) -> int:
        return 2 - 2 * self.g - self.n

    @property
    def euler_closed(self) -> int:
        """Euler characteristic of the closed surface with punctures filled."""
        return 2 - 2 * self.g

    @property
    def free_rank(self) -> int:
        return 2 * self.g + self.n - 1

    @property
    def generator_names(self) -> tuple[str, ...]:
        names = []
        for i in range(1, self.g + 1):
            names.append(f"a{i}")
            names.append(f"b{i}")
        for i in range(1, self.n):
            names.append(f"c{i}")
        return tuple(names)


@dataclass(frozen=True)
class RepTuple:
    """Images of the free generators under a homomorphism to a finite
    group, as ids of the target's table."""

    signature: SurfaceSignature
    target: FiniteGroupHandle
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.signature.free_rank:
            raise BadParameters(
                f"expected {self.signature.free_rank} images, got {len(self.images)}"
            )
        if not all(0 <= g < self.target.order for g in self.images):
            raise BadParameters(f"images {self.images} are not all ids of the target group")

    @property
    def images_by_name(self) -> dict[str, int]:
        return dict(zip(self.signature.generator_names, self.images))

    def peripheral_image_ids(self) -> np.ndarray:
        """Table ids of the images of all n peripheral loops, the derived
        c_n last."""
        table = group_table(self.target)
        return peripheral_ids(table, self.signature, [self.images])[0]


@dataclass(frozen=True)
class PeripheralProfile:
    """Orders of the n peripheral images and their minimum."""

    orders: tuple[int, ...]

    @property
    def delta(self) -> int:
        return min(self.orders)


def peripheral_ids(
    table: GroupTable, signature: SurfaceSignature, rep_ids
) -> np.ndarray:
    """The peripheral images of many representations at once: rows of
    `rep_ids` are free-generator image ids (k, r), rows of the result the
    ids of c_1, .., c_n (k, n), with c_n the unique value making the
    surface relation hold, c_n = (c_1 .. c_{n-1})^-1 * prod_i [a_i, b_i],
    taken column by column."""
    rep_ids = np.asarray(rep_ids, dtype=np.int64)
    if rep_ids.ndim != 2 or rep_ids.shape[1] != signature.free_rank:
        raise BadParameters(
            f"expected rows of {signature.free_rank} image ids, got shape {rep_ids.shape}"
        )
    mul, inv = table.mul, table.inv
    commutators = np.full(len(rep_ids), table.identity_id, dtype=np.int64)
    for i in range(signature.g):
        a, b = rep_ids[:, 2 * i], rep_ids[:, 2 * i + 1]
        commutators = mul[commutators, mul[mul[mul[a, b], inv[a]], inv[b]]]
    free = rep_ids[:, 2 * signature.g :]
    prefix = np.full(len(rep_ids), table.identity_id, dtype=np.int64)
    for j in range(free.shape[1]):
        prefix = mul[prefix, free[:, j]]
    last = mul[inv[prefix], commutators]
    return np.column_stack([free, last])


def verify_relation(rep: RepTuple, claimed_cn: int) -> bool:
    """Does an explicitly stated last peripheral image id match the derived one?"""
    return claimed_cn == int(rep.peripheral_image_ids()[-1])


def is_surjective(rep: RepTuple) -> bool:
    gens = rep.images + (int(rep.peripheral_image_ids()[-1]),)
    return bool(closure_ids(group_table(rep.target), [gens])[0].all())


def peripheral_profile(rep: RepTuple) -> PeripheralProfile:
    orders = group_table(rep.target).orders[rep.peripheral_image_ids()]
    return PeripheralProfile(tuple(orders.tolist()))
