"""Element arithmetic for the tests: the reference the tables are checked
against.

The package runs on table ids, and element entries only cross its JSON
edge (``groups.encode`` and ``groups.decode``).  Here elements are
explicit objects again: matrix, permutation and residue products and
inverses by integer arithmetic, orders by repeated products, and every
group's elements enumerated with itertools and sorted by ``sort_key``,
the order the table ids promise.  The element arithmetic reads no group
table, so a test that compares a table with these objects compares two
independent computations.

The direct side of the direct-versus-factored local degrees lives here
too: the coset permutation of every generator image of one
representation, read one cycle type at a time.  So does
`rep_peripheral_ids`, one representation's row of the package's
peripheral pass, which the tests read where the pipeline reads row 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from coverforge.covers import (
    coset_permutation,
    coset_space,
    cycle_type,
)
from coverforge.errors import BadParameters
from coverforge.groups import FiniteGroupHandle, SubgroupData, group_table
from coverforge.surfaces import RepTuple, peripheral_ids


@dataclass(frozen=True)
class ProjectiveMatrix:
    """The canonical sign representative of an element of PSL(2, F_p);
    build it through `canonicalize`."""

    a: int
    b: int
    c: int
    d: int
    p: int

    def __post_init__(self):
        p = self.p
        if not all(0 <= x < p for x in (self.a, self.b, self.c, self.d)):
            raise ValueError("entries must be reduced residues; use canonicalize()")
        if (self.a * self.d - self.b * self.c) % p != 1:
            raise ValueError("determinant is not 1")
        if (self.a or self.b or self.c or self.d) > (p - 1) // 2:
            raise ValueError("wrong sign representative; use canonicalize()")

    def __mul__(self, other: "ProjectiveMatrix") -> "ProjectiveMatrix":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return canonicalize(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, self.p)

    def inverse(self) -> "ProjectiveMatrix":
        return canonicalize(self.d, -self.b, -self.c, self.a, self.p)

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def sort_key(self):
        return (self.a, self.b, self.c, self.d)


def canonicalize(a: int, b: int, c: int, d: int, p: int) -> ProjectiveMatrix:
    """Reduce an SL2 matrix mod p and pick the canonical sign representative."""
    a, b, c, d = a % p, b % p, c % p, d % p
    if (a * d - b * c) % p != 1:
        raise ValueError(f"determinant of {(a, b, c, d)} is not 1 mod {p}")
    if (a or b or c or d) > (p - 1) // 2:
        a, b, c, d = (-a) % p, (-b) % p, (-c) % p, (-d) % p
    return ProjectiveMatrix(a, b, c, d, p)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, .., m-1} in one-line notation.

    ``(x * y)(pt) = y(x(pt))``: apply x first, then y.  With this
    convention ``[(12), (23)] = (123)`` when written as 1-based cycles.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    @classmethod
    def from_cycles(cls, m: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(m))
        for cycle in cycles:
            for x, y in zip(cycle, cycle[1:]):
                images[x] = y
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(tuple(images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def sort_key(self):
        return self.images


@dataclass(frozen=True)
class Residue:
    """An element of Z/n, written multiplicatively: ``*`` adds residues."""

    value: int
    n: int

    def __post_init__(self):
        if not 0 <= self.value < self.n:
            raise ValueError(f"{self.value} is not reduced mod {self.n}")

    def __mul__(self, other: "Residue") -> "Residue":
        return Residue((self.value + other.value) % self.n, self.n)

    def inverse(self) -> "Residue":
        return Residue((-self.value) % self.n, self.n)

    def is_identity(self) -> bool:
        return self.value == 0

    def sort_key(self):
        return (self.value,)


def identity(handle: FiniteGroupHandle):
    if handle.kind == "psl2":
        return ProjectiveMatrix(1, 0, 0, 1, handle.p)
    if handle.kind == "cyclic":
        return Residue(0, handle.n)
    return Permutation(tuple(range(handle.m)))


def element_order(g) -> int:
    """Smallest k >= 1 with g**k equal to the identity."""
    order, x = 1, g
    while not x.is_identity():
        x = x * g
        order += 1
    return order


@cache
def elements(handle: FiniteGroupHandle) -> tuple:
    """Every element, sorted by ``sort_key``: PSL2 from all p**4 integer
    matrices of determinant 1, one per sign class."""
    if handle.kind == "psl2":
        p = handle.p
        found = {
            canonicalize(*entries, p)
            for entries in itertools.product(range(p), repeat=4)
            if (entries[0] * entries[3] - entries[1] * entries[2]) % p == 1
        }
    elif handle.kind == "cyclic":
        found = {Residue(i, handle.n) for i in range(handle.n)}
    else:
        found = {Permutation(images) for images in itertools.permutations(range(handle.m))}
    return tuple(sorted(found, key=lambda g: g.sort_key()))


@cache
def _index(handle: FiniteGroupHandle) -> dict:
    return {g: i for i, g in enumerate(elements(handle))}


def id_of(handle: FiniteGroupHandle, g) -> int:
    """The position of g in the sorted enumeration, which is its table id."""
    return _index(handle)[g]


def ids_of(handle: FiniteGroupHandle, *gs) -> tuple[int, ...]:
    return tuple(id_of(handle, g) for g in gs)


def element_of(handle: FiniteGroupHandle, gid: int):
    return elements(handle)[int(gid)]


def encode_element(g):
    """The JSON form: [a, b, c, d], the one-line images, or the residue."""
    if isinstance(g, ProjectiveMatrix):
        return [g.a, g.b, g.c, g.d]
    if isinstance(g, Permutation):
        return list(g.images)
    return g.value


# ---------------------------------------------------------------------------
# Direct local degrees


@dataclass
class CosetAction:
    """The coset permutations of all generator images of one representation."""

    degree: int
    subgroup_order: int
    free_perms: dict[str, tuple[int, ...]]
    peripheral_perms: tuple[tuple[int, ...], ...]  # c_1, .., c_n (derived last)


def rep_peripheral_ids(rep: RepTuple):
    """Table ids of the images of c_1, .., c_n under one representation,
    the derived c_n last: the one row of the package's peripheral pass."""
    return peripheral_ids(group_table(rep.target), rep.signature, [rep.images])[0]


def coset_action(rep: RepTuple, h0: SubgroupData) -> CosetAction:
    space = coset_space(h0)
    free = {
        name: coset_permutation(space, g)
        for name, g in zip(rep.signature.generator_names, rep.images)
    }
    peripheral = tuple(coset_permutation(space, g) for g in rep_peripheral_ids(rep))
    return CosetAction(space.degree, h0.order, free, peripheral)


def local_degrees_direct(action: CosetAction, puncture: int) -> dict[int, int]:
    """Cycle type of the puncture's peripheral image on the coset space
    (punctures are 1-based; each cycle is one point of the cover over
    the puncture and its length is the local degree there)."""
    if not 1 <= puncture <= len(action.peripheral_perms):
        raise BadParameters(f"no puncture {puncture}")
    return cycle_type(action.peripheral_perms[puncture - 1])
