"""Exact arithmetic for the finite groups everything else is built on:
PSL(2, F_p) for odd primes p, cyclic groups and small symmetric groups.

Conventions fixed here and relied on by every other module:

* Elements are ids, and the kernel is the dense table of a group
  (`GroupTable`): products, inverses, orders, closures, subgroups
  (`SubgroupData`), normalizers, conjugacy and the automorphisms all
  work on ids.
* The tables store ids as 16-bit unsigned integers (``_ID_DTYPE``), so
  the n x n product table takes 2 n**2 bytes.  Table values are used as
  indices, or mixed with wider integers before any arithmetic: a sum or
  product of 16-bit ids would wrap.
* The size of a group is limited in one place: `FiniteGroupHandle`
  refuses an order above ``TABLE_LIMIT`` when the group is named.
  Every table, closure, normalizer and search here works within the
  group's order, so none of them takes a size budget.
* An element's entries are its input and JSON form: a PSL2 matrix
  ``[a, b, c, d]``, a permutation's one-line images, a residue.  A
  table holds them in id order (``entries``); `encode` maps ids to
  entries and `decode` maps entries, as the catalog writes them or a
  certificate records them, to an id.
* The group law is written multiplicatively everywhere, including
  cyclic groups (where the product of x and y is x + y mod n).
* Products compose left to right.  For permutations ``(x * y)(pt) =
  y(x(pt))``, i.e. apply ``x`` first; this matches the right-translation
  coset actions used downstream.
* A PSL2 element's entries are those of the representative of
  ``{M, -M}`` whose first nonzero entry, scanning ``(a, b, c, d)``, lies
  in ``[1, (p-1)/2]``.  Exactly one of the two signs qualifies, so the
  representative is unique.
* Ids follow the lexicographic order of the entries.  Every search that
  has to pick an element picks the smallest admissible id, so all
  outputs are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import BadModulus, BadParameters, BudgetExceeded, NotUnimodular

TABLE_LIMIT = 10_000
# the dtype of the stored ids: TABLE_LIMIT is at most 2**16, so every id
# of a group the handle admits fits it
_ID_DTYPE = np.uint16
# working-array size of one block of the table builds, the batched
# closure and the conjugation tests
_BLOCK_BYTES = 1 << 18


def is_prime(n: int) -> bool:
    """Trial division; inputs are desk-scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise BadModulus(f"modulus must be an odd prime, got {p}")


@dataclass(frozen=True)
class FiniteGroupHandle:
    """A lightweight descriptor of one of the supported finite groups.

    Naming a group whose order is above ``TABLE_LIMIT`` raises
    BudgetExceeded, before any work that grows with the group's
    parameter (the primality test of p included).
    """

    kind: str
    p: int | None = None
    n: int | None = None
    m: int | None = None

    def __post_init__(self):
        order = self.order
        if order > TABLE_LIMIT:
            raise BudgetExceeded(
                f"group of order {order} exceeds table limit {TABLE_LIMIT}",
                used=order,
                budget=TABLE_LIMIT,
            )

    @staticmethod
    def psl2(p: int) -> "FiniteGroupHandle":
        handle = FiniteGroupHandle("psl2", p=p)
        _require_odd_prime(p)
        return handle

    @staticmethod
    def cyclic(n: int) -> "FiniteGroupHandle":
        if n < 1:
            raise BadParameters("cyclic group needs n >= 1")
        return FiniteGroupHandle("cyclic", n=n)

    @staticmethod
    def symmetric(m: int) -> "FiniteGroupHandle":
        if m < 1:
            raise BadParameters("symmetric group needs m >= 1")
        return FiniteGroupHandle("symmetric", m=m)

    @property
    def order(self) -> int:
        if self.kind == "psl2":
            return self.p * (self.p * self.p - 1) // 2
        if self.kind == "cyclic":
            return self.n
        if self.kind == "symmetric":
            return math.factorial(self.m)
        raise BadParameters(f"unknown kind {self.kind}")

    def describe(self) -> dict:
        """JSON-ready description, used inside certificates."""
        if self.kind == "psl2":
            return {"kind": "psl2", "p": self.p}
        if self.kind == "cyclic":
            return {"kind": "cyclic", "n": self.n}
        return {"kind": "symmetric", "m": self.m}


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_group(handle: FiniteGroupHandle) -> np.ndarray:
    """The entries of every element in id order: the (n, 4) canonical
    matrices of PSL2 sorted by (a, b, c, d), the (n, m) one-line images
    of Sym(m) in lexicographic order, the residues 0 .. n-1 of Z/n."""
    if handle.kind == "cyclic":
        return np.arange(handle.n, dtype=np.int64)
    if handle.kind == "symmetric":
        return np.array(list(itertools.permutations(range(handle.m))), dtype=np.int64)
    p = handle.p
    ar = np.arange(p, dtype=np.int64)
    inv_map = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    # block a != 0: d is determined by the determinant
    a1 = np.repeat(ar[1:], p * p)
    b1 = np.tile(np.repeat(ar, p), p - 1)
    c1 = np.tile(ar, (p - 1) * p)
    d1 = ((1 + b1 * c1) % p) * inv_map[a1] % p
    # block a == 0: need -bc = 1, d free
    b0 = np.repeat(ar[1:], p)
    c0 = (p - inv_map[b0]) % p
    a0 = np.zeros((p - 1) * p, dtype=np.int64)
    d0 = np.tile(ar, p - 1)
    a = np.concatenate([a1, a0])
    b = np.concatenate([b1, b0])
    c = np.concatenate([c1, c0])
    d = np.concatenate([d1, d0])
    # every SL2 matrix once: keep the sign whose first nonzero entry is small
    first = np.where(a != 0, a, np.where(b != 0, b, np.where(c != 0, c, d)))
    keep = first <= (p - 1) // 2
    enc = np.sort(_encode_entries(a[keep], b[keep], c[keep], d[keep], p))
    assert enc.size == handle.order, (enc.size, handle.order)
    return enc[:, None] // p ** np.arange(3, -1, -1) % p


def _encode_entries(a, b, c, d, p):
    return ((a * p + b) * p + c) * p + d


# ---------------------------------------------------------------------------
# Subgroups

@dataclass(frozen=True, eq=False)
class SubgroupData:
    """A subgroup of a tabled group: the ids it was generated from and a
    read-only membership mask over the table's ids.  Two are equal when
    they have the same ambient group and the same members."""

    ambient: FiniteGroupHandle
    generators: tuple[int, ...]
    members: np.ndarray

    def __post_init__(self):
        self.members.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, SubgroupData):
            return NotImplemented
        return self.ambient == other.ambient and np.array_equal(self.members, other.members)

    @property
    def order(self) -> int:
        return int(self.members.sum())

    @property
    def ids(self) -> np.ndarray:
        """Member ids in increasing order."""
        return np.flatnonzero(self.members)


def subgroup_closure(generators: Iterable[int], handle: FiniteGroupHandle) -> SubgroupData:
    """Closure of a set of generator ids under the group law."""
    table = group_table(handle)
    gens = tuple(int(g) for g in generators)
    if not all(0 <= g < table.order for g in gens):
        raise BadParameters(f"generator ids {gens} are not all ids of the ambient group")
    return SubgroupData(handle, gens, closure_ids(table, [gens])[0])


def normalizer(sub: SubgroupData) -> SubgroupData:
    """N_G(H) = {g : g H g^-1 = H}, tested for every g of the ambient
    group at once; its members, in id order, are its generators.

    Conjugation by a fixed g is an automorphism, so g normalizes H as
    soon as it conjugates a generating set of H into H.
    """
    table = group_table(sub.ambient)
    members = _conjugators_into(table, sub, sub.members)
    return SubgroupData(sub.ambient, tuple(np.flatnonzero(members).tolist()), members)


def are_conjugate_subgroups(h1: SubgroupData, h2: SubgroupData) -> tuple[bool, int | None]:
    """Search for g with g H1 g^-1 = H2; the witness is the smallest such id."""
    if h1.ambient != h2.ambient:
        raise BadParameters("subgroups of different ambient groups")
    if h1.order != h2.order:
        return (False, None)
    if h1 == h2:
        return (True, group_table(h1.ambient).identity_id)
    ids = np.flatnonzero(_conjugators_into(group_table(h1.ambient), h1, h2.members))
    if ids.size == 0:
        return (False, None)
    return (True, int(ids[0]))


def _conjugators_into(table: "GroupTable", sub: SubgroupData, target: np.ndarray) -> np.ndarray:
    """Mask of the ids g with g h g^-1 in the target mask for every
    generator h of sub (every member when it lists no generators).

    Conjugation is injective, so for a target of sub's order this is the
    set of g with g sub g^-1 equal to the target.  Generators go in
    blocks and only the ids still admissible are tested again.
    """
    h = np.asarray(sub.generators or sub.ids, dtype=np.int64)
    mul, inv = table.mul, table.inv
    ok = np.ones(table.order, dtype=bool)
    step = max(1, _BLOCK_BYTES // (8 * table.order))
    for lo in range(0, h.size, step):
        g = np.flatnonzero(ok)
        conj = mul[mul[g[:, None], h[None, lo : lo + step]], inv[g][:, None]]
        ok[g] = target[conj].all(axis=1)
    return ok


def nonsquare(p: int) -> int:
    """Smallest quadratic non-residue mod p."""
    _require_odd_prime(p)
    squares = {(x * x) % p for x in range(1, p)}
    for e in range(2, p):
        if e not in squares:
            return e
    raise BadModulus(f"no non-square mod {p}")  # unreachable for odd primes


def automorphism_images(table: "GroupTable", ids) -> np.ndarray:
    """Images of an id array under every automorphism of the group, as
    16-bit ids stacked along a new first axis.  It peaks at 10 bytes per
    image, besides a ufunc buffer of up to 64 KiB.

    Z/n: multiplication by each unit.  Sym(m), m != 6: the inner
    automorphisms x -> g x g^-1, one per g (Sym(2) repeats one).  PSL2:
    each inner one, then the same after d0, which gives PGL2(F_p).
    """
    ids = np.asarray(ids, dtype=np.int64)
    handle = table.handle
    if handle.kind == "cyclic":
        units = [u for u in range(1, handle.n) if math.gcd(u, handle.n) == 1] or [0]
        images = np.multiply.outer(units, ids)
        images %= handle.n
        return images.astype(_ID_DTYPE)
    if handle.kind == "symmetric" and handle.m == 6:
        raise BadParameters("Sym(6) has outer automorphisms; not supported")
    flat = ids.ravel()
    if handle.kind == "psl2":
        flat = np.concatenate([flat, table.d0[flat]])
    # row g: (g x) g^-1 for each x in flat, read from the flat mul at index
    # g x * n + g^-1; a PSL2 row holds two automorphisms.  The index is
    # one intp array, widened once and built in place: in the 16-bit ids
    # it would wrap once n > 256.  `take` gathers it in C order, so the
    # images come out contiguous
    index = table.mul.take(flat, axis=1).astype(np.intp)
    index *= table.order
    index += table.inv[:, None]
    return table.mul.ravel()[index].reshape((-1,) + ids.shape)


# ---------------------------------------------------------------------------
# Dense tables

class GroupTable:
    """Dense multiplication and inversion tables over the ids 0 .. n-1,
    the entries of each id (`enumerate_group`) and the lookup that
    `decode` reads: for PSL2 the int32 id of the base-p code of either
    sign of each matrix (-1 off the group), for Sym(m) the sorted base-m
    codes of the one-line images, none for Z/n.

    ``mul`` (n, n) and ``inv`` (n,) hold 16-bit ids (``_ID_DTYPE``), so
    ``mul`` takes 2 n**2 bytes.  Index with them, or widen them before
    arithmetic."""

    def __init__(self, handle, entries, lookup, mul, inv, identity_id):
        self.handle = handle
        self.entries = entries
        self.lookup = lookup
        self.mul = mul
        self.inv = inv
        self.identity_id = identity_id

    @property
    def order(self) -> int:
        return len(self.entries)

    @cached_property
    def orders(self) -> np.ndarray:
        """Read-only element orders by id, built once: the s-th step
        multiplies every id's (s-1)-th power by the id, so it takes as
        many vectorized steps as the group's exponent."""
        ids = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        power, step = ids, 1
        while True:
            orders[(power == self.identity_id) & (orders == 0)] = step
            if orders.all():
                break
            power = self.mul[power, ids]
            step += 1
        orders.setflags(write=False)
        return orders

    @cached_property
    def d0(self) -> np.ndarray:
        """Read-only conjugation by d0 = diag(1, epsilon), epsilon the
        smallest non-square, as a map on PSL2(F_p) ids, built once:
        (a, b, c, d) goes to (a, b/epsilon, c*epsilon, d).  d0 is a PGL2
        representative, not a group element; with the inner automorphisms
        it gives Aut(PSL2(F_p)) = PGL2(F_p).  Conjugating by it preserves
        the determinant, and the table's lookup takes either sign."""
        p = self.handle.p
        eps = nonsquare(p)
        a, b, c, d = self.entries.T
        b, c = b * pow(eps, p - 2, p) % p, c * eps % p
        d0 = self.lookup[_encode_entries(a, b, c, d, p)].astype(np.int64)
        d0.setflags(write=False)
        return d0


_TABLE_CACHE: dict[FiniteGroupHandle, GroupTable] = {}


def group_table(handle: FiniteGroupHandle) -> GroupTable:
    """Build (or fetch) the dense tables of a group; the handle has
    already checked its order against the table limit."""
    cached = _TABLE_CACHE.get(handle)
    if cached is not None:
        return cached
    n = handle.order
    entries = enumerate_group(handle)
    if handle.kind == "psl2":
        table = _psl2_table(handle, entries)
    elif handle.kind == "cyclic":
        # row i is (i + j) mod n: the window at i of the ids written twice
        twice = np.tile(np.arange(n, dtype=_ID_DTYPE), 2)
        mul = np.lib.stride_tricks.sliding_window_view(twice, n)[:n].copy()
        inv = ((n - np.arange(n)) % n).astype(_ID_DTYPE)
        table = GroupTable(handle, entries, None, mul, inv, 0)
    else:
        table = _symmetric_table(handle, entries)
    _TABLE_CACHE[handle] = table
    return table


def _psl2_table(handle: FiniteGroupHandle, entries: np.ndarray) -> GroupTable:
    """Products by row vectors: a row (u, v) times element j is the row
    (u a_j + v c_j, u b_j + v d_j), so one (p**2, n) array of row codes
    gives both rows of every product, and the lookup maps the product's
    entry code, of either sign, to its id.  The row codes are made one
    value of u at a time; each block of rows joins its two row codes in
    int32, is looked up and is stored as 16-bit ids."""
    p = handle.p
    n = len(entries)
    ids = np.arange(n, dtype=np.int32)
    lookup = np.full(p**4, -1, dtype=np.int32)
    lookup[_encode_entries(*entries.T, p)] = ids
    lookup[_encode_entries(*((p - entries.T) % p), p)] = ids
    a, b, c, d = entries.T.astype(np.int32)
    # a row code is below p**2, and 16-bit ids already hold n < 2**16,
    # so p < 52 and p**2 < 2**16
    row_code = np.empty((p * p, n), dtype=np.uint16)
    v = np.arange(p, dtype=np.int32)[:, None]
    for u in range(p):
        row_code[u * p : (u + 1) * p] = (u * a + v * c) % p * p + (u * b + v * d) % p
    top, bottom = a * p + b, c * p + d
    mul = np.empty((n, n), dtype=_ID_DTYPE)
    step = max(1, _BLOCK_BYTES // (4 * n))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        code = row_code[top[rows]].astype(np.int32)
        code *= p * p
        code += row_code[bottom[rows]]
        mul[rows] = lookup[code]
        del code  # before the next block is made
    inv = lookup[_encode_entries(d, (p - b) % p, (p - c) % p, a, p)].astype(_ID_DTYPE)
    identity_id = int(lookup[_encode_entries(1, 0, 0, 1, p)])
    return GroupTable(handle, entries, lookup, mul, inv, identity_id)


def _symmetric_table(handle: FiniteGroupHandle, entries: np.ndarray) -> GroupTable:
    """Products of one-line image arrays, looked up by their base-m codes:
    the entries are in lexicographic order, so the codes are sorted.  Each
    block of rows is searched in intp and stored as 16-bit ids."""
    m, n = handle.m, len(entries)
    place = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
    codes = entries @ place
    mul = np.empty((n, n), dtype=_ID_DTYPE)
    step = max(1, _BLOCK_BYTES // (8 * n * m))
    for lo in range(0, n, step):
        # (x * y)(pt) = y(x(pt)): entry [j, i, pt] is entries[j][entries[i][pt]]
        products = entries[:, entries[lo : lo + step]] @ place
        mul[lo : lo + step] = np.searchsorted(codes, products.T)
    inv = np.searchsorted(codes, np.argsort(entries, axis=1) @ place).astype(_ID_DTYPE)
    return GroupTable(handle, entries, codes, mul, inv, 0)  # the identity sorts first


# ---------------------------------------------------------------------------
# Codec

def encode(table: GroupTable, ids):
    """The JSON form of one id or an array of ids: the entries of each
    element (`enumerate_group`), as Python ints."""
    return table.entries[np.asarray(ids, dtype=np.int64)].tolist()


# json.dumps with compact separators, without building an encoder per call
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_json(table: GroupTable, ids) -> list[str]:
    """The compact JSON text of each id's `encode` form, as ``json.dumps``
    writes it with separators (",", ":"), so a list of elements is the
    texts of its elements joined by commas in brackets."""
    return [_compact_json(code) for code in encode(table, ids)]


def _entry(x) -> int:
    """A recorded entry, which must be an int: TypeError on a bool, a
    string, a float or anything else ``int()`` would also read."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"element entries are integers, got {x!r}")
    return x


def decode(table: GroupTable, data) -> int:
    """The id of an element given by its int entries.  PSL2 takes
    ``[a, b, c, d]`` of either sign and unreduced, and raises
    NotUnimodular unless the determinant is 1 mod p; Sym(m) takes the
    one-line images and raises BadParameters unless they are a
    permutation of 0 .. m-1; Z/n takes any integer."""
    handle = table.handle
    if handle.kind == "cyclic":
        return _entry(data) % handle.n
    if handle.kind == "symmetric":
        images = [_entry(x) for x in data]
        if sorted(images) != list(range(handle.m)):
            raise BadParameters(f"not a permutation of 0 .. {handle.m - 1}: {images}")
        code = 0
        for x in images:
            code = code * handle.m + x
        return int(np.searchsorted(table.lookup, code))
    p = handle.p
    # Python ints, so an entry of any size reduces exactly
    a, b, c, d = (_entry(x) % p for x in data)
    gid = int(table.lookup[_encode_entries(a, b, c, d, p)])
    if gid < 0:
        raise NotUnimodular(f"determinant is {(a * d - b * c) % p}, not 1 mod {p}")
    return gid


def closure_ids(table: GroupTable, gen_rows) -> np.ndarray:
    """Subgroup closures of many generating sets at once, over table ids.

    ``gen_rows`` is an (m, r) array of generator ids, one generating set
    per row; row i of the (m, order) boolean result marks the closure of
    row i.  Positive words suffice in a finite group, so each BFS level
    multiplies the newly reached elements of every row on the right by
    that row's generators.  A closure is a subset of the group, so its
    size and its number of levels are bounded by the table's order and
    need no budget of their own.

    Rows go in blocks whose working arrays fill at most ``_BLOCK_BYTES``
    beside the result.  A block's cells are flat indices into its rows
    of the result, and each product is one gather from the flat table
    at ``element * n + generator``.  Per row a block holds its generators
    (8 bytes each) and per membership cell a mask of the level's new
    cells (1 byte); per cell the level reaches it holds the cell's row
    and its element times n (8 bytes each), made from the cell's flat
    index (8) in place, and for one generator at a time the gather or
    output index (8) and the product (2, 4 while the next replaces it).
    So 29 bytes per membership cell bound it.  A level may reach every
    cell of a small group, so the block is sized for that.
    """
    first = np.asarray(gen_rows[:1], dtype=np.int64)
    if first.ndim != 2:
        raise BadParameters("closure_ids takes an (m, r) array of generator rows")
    n = table.order
    mul = table.mul.ravel()
    out = np.zeros((len(gen_rows), n), dtype=bool)
    out[:, table.identity_id] = True
    step = max(1, _BLOCK_BYTES // (8 * first.shape[1] + 29 * n))
    for lo in range(0, len(out), step):
        block = np.asarray(gen_rows[lo : lo + step], dtype=np.int64)
        member = out[lo : lo + step].reshape(-1)
        cells = np.flatnonzero(member)
        while cells.size:
            rows = cells // n
            cells -= rows * n
            cells *= n
            index = np.empty_like(rows)
            fresh = np.zeros_like(member)
            for gens in block.T:
                np.take(gens, rows, out=index)
                index += cells
                products = mul[index]
                np.multiply(rows, n, out=index)
                index += products
                fresh[index] = True
            # the cells reached now and not before
            np.greater(fresh, member, out=fresh)
            member |= fresh
            del rows, cells, index  # before the next level's are made
            cells = np.flatnonzero(fresh)
    return out
