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
from .groups import FiniteGroupHandle, GroupTable, closure_ids, _BLOCK_BYTES

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


def peripheral_ids(
    table: GroupTable, signature: SurfaceSignature, rep_ids
) -> np.ndarray:
    """The peripheral images of many representations at once: rows of
    `rep_ids` are free-generator image ids (k, r), rows of the int64
    result the ids of c_1, .., c_n (k, n), with c_n the unique value
    making the surface relation hold, c_n = (c_1 .. c_{n-1})^-1 *
    prod_i [a_i, b_i], taken column by column.

    An int64 array is read as it is, and the result is filled a block of
    rows at a time.  A block's working arrays are 16-bit products and
    the intp copies a gather makes of two of them: 27 bytes per row at
    most (tracemalloc), so a block takes ``_BLOCK_BYTES`` // 32 rows."""
    rep_ids = np.asarray(rep_ids, dtype=np.int64)
    if rep_ids.ndim != 2 or rep_ids.shape[1] != signature.free_rank:
        raise BadParameters(
            f"expected rows of {signature.free_rank} image ids, got shape {rep_ids.shape}"
        )
    mul, inv, g = table.mul, table.inv, signature.g
    out = np.empty((len(rep_ids), signature.n), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // 32)
    for lo in range(0, len(out), step):
        rows, block = rep_ids[lo : lo + step], out[lo : lo + step]
        commutators = np.full(len(rows), table.identity_id, dtype=mul.dtype)
        for i in range(g):
            a, b = rows[:, 2 * i], rows[:, 2 * i + 1]
            commutators = mul[commutators, mul[mul[mul[a, b], inv[a]], inv[b]]]
        block[:, :-1] = rows[:, 2 * g :]
        prefix = np.full(len(rows), table.identity_id, dtype=mul.dtype)
        for j in range(2 * g, rows.shape[1]):
            prefix = mul[prefix, rows[:, j]]
        block[:, -1] = mul[inv[prefix], commutators]
    return out


def is_surjective(table: GroupTable, images) -> bool:
    """Do the free-generator image ids generate the whole group?  The
    derived c_n is a word in them, so it adds nothing to the closure."""
    return bool(closure_ids(table, [images])[0].all())
