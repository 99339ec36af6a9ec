"""Orbit of a representation tuple under the automorphisms of the free
fundamental group, and its quotient by target-group automorphisms.

Since a punctured surface has free fundamental group, the automorphism
action by precomposition is realized as the elementary Nielsen moves on
the r-tuple of generator images: swap adjacent entries, invert the first
entry, multiply the first entry by the second (or its inverse).  The
list is closed under inverses: the swaps and the inversion undo
themselves, and multiply_inv undoes multiply.  So the state graph is
undirected and the BFS closure is the full orbit of the generated action.

Tuples are encoded as mixed-radix integers over table indices (most
significant digit first, so numeric order on encodings equals
lexicographic order on id tuples).  A tuple of rank r over a group of
order n has one of n**r keys, and every state array is int64: a key
space of ``_KEY_LIMIT`` = 2**32 keys or more is refused before any BFS
(``_state_powers``).  At rank 3 or more, a Nielsen orbit that a rank-2
suborbit proves larger than its budget is refused before the BFS too
(``_check_suborbit_bound``).

One vectorized engine runs every tuple BFS (the Nielsen orbit and the
product-image closure).  It expands the frontier in chunks whose working
arrays fill one block of bytes and keeps each BFS level sorted, but
holds no level but the frontier.  The visited states are a bitset with
one bit per key: a membership test is one gather, and a chunk's new
states are set in it at once.  That bitset and the number of states are
the orbit: no array of all the states is made.  The class partition,
``orbit --dump`` and the closure check's fallback read the states off
the bitset in key order, a block of keys at a time (``_key_blocks``);
the closure check of an orbit made of whole Aut classes reads only the
class reps and tests their moves against the bitset.  Every stage that
runs in blocks (the BFS chunk, the closure check, the class-partition
batches, the class keys, the reps digest) sizes a block by all the
arrays it makes, so a stage's working memory stays within one block of
bytes on top of the data the run keeps.

One engine runs the class partition, in seed batches: each step takes
the next unclassified states, computes all their automorphism images
from the group table at once (``automorphism_images``; no automorphism
matrix is stored), finds them in the orbit and marks them classified; a
seed's smallest image in the orbit is its class minimum.  It stops
reading key blocks once every state is classified.  The partition
(``OrbitResult``) is the one object the stages after it read: the orbit
it partitions, the class sizes and the class reps as one read-only
(k, r) int64 id matrix, whose row count is k.  The closure check, the
peripheral ids and the reps digest take the matrix a block of rows at a
time, and the product image takes its columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

# sha256 from CPython's own hash module (_sha2 since 3.12, _sha256 in
# 3.11): hashlib loads OpenSSL's libcrypto, several MB per process, as
# random.py notes for sha512.  hashlib only for a build without them
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import BadParameters, BudgetExceeded
from .groups import (
    GroupTable,
    automorphism_images,
    closure_ids,
    encode_json,
    group_table,
    _BLOCK_BYTES,
)
from .surfaces import RepTuple

DEFAULT_ORBIT_BUDGET = 20_000_000
# the largest product group G^k whose image is closed element by element,
# for the characteristic degree, which is left uncomputed above it
PRODUCT_CLOSURE_CAP = 10_000_000
# the size of the key space n**rank from which a run is refused.  An orbit's
# states are a bitset with one bit per key, which takes 512 MiB at 2**32
# keys; int64 holds every key and every move's change of place values
_KEY_LIMIT = 2**32


@dataclass(frozen=True)
class NielsenMove:
    """One elementary move on r-tuples (0-based positions).

    swap:         exchange entries i and j
    invert:       g_i -> g_i^-1
    multiply:     g_i -> g_i * g_j
    multiply_inv: g_i -> g_i * g_j^-1
    """

    kind: str
    i: int
    j: int | None = None


def nielsen_generators(r: int) -> tuple[NielsenMove, ...]:
    if r < 2:
        raise BadParameters(f"need rank >= 2, got {r}")
    moves = [NielsenMove("swap", i, i + 1) for i in range(r - 1)]
    moves.append(NielsenMove("invert", 0))
    moves.append(NielsenMove("multiply", 0, 1))
    moves.append(NielsenMove("multiply_inv", 0, 1))
    return tuple(moves)


@dataclass
class OrbitClosure:
    """The completed BFS closure of one starting tuple."""

    table: GroupTable
    rank: int
    start_ids: tuple[int, ...]
    members: np.ndarray  # the states' bitset over the key space (`_bitset`)
    size: int  # the number of states
    levels: int
    expansions: int

    def id_tuples(self) -> Iterator[list[tuple[int, ...]]]:
        """The states as id tuples in lexicographic order, one list per
        block of states, so a caller that streams them never holds the
        whole orbit as Python objects.  A block's tuples, with the lists
        they are made from, take about ``_BLOCK_BYTES``: some 64 bytes per
        entry."""
        n, rank = self.table.order, self.rank
        for keys in _key_blocks(self.members, max(1, _BLOCK_BYTES // (64 * rank))):
            digits = np.stack(_decode_digits(keys, n, rank), axis=1)
            yield [tuple(ids) for ids in digits.tolist()]


def _state_powers(n: int, rank: int) -> np.ndarray:
    """Int64 place values of the rank-digit, base-n state encoding.

    Raises BudgetExceeded when the n**rank keys reach ``_KEY_LIMIT``,
    so no orbit's bitset (one bit per key) exceeds 512 MiB.  The check
    runs before the suborbit bound (``_check_suborbit_bound``), so such a
    key space reports the key limit, not an overrun, and nothing is
    allocated.  No run of the command line that could complete is lost:
    every builder's tuple holds a generating pair, at rank >= 3 its orbit
    is every generating tuple (for PSL(2,p): Gilman, Canad. J. Math. 29,
    1977), and generating tuples are at least 7/9 of the keys (Sym(3) at
    rank 3), so above the limit the orbit has more than 3e9 states.
    """
    if n**rank >= _KEY_LIMIT:
        raise BudgetExceeded(
            f"state key space {n}**{rank} reaches the key limit 2**32",
            used=n**rank,
            budget=_KEY_LIMIT,
        )
    return np.array([n ** (rank - 1 - j) for j in range(rank)], dtype=np.int64)


def _decode_digits(states: np.ndarray, n: int, rank: int) -> list[np.ndarray]:
    """Per-position int64 digit arrays of the states, most significant
    first.  Digit j is q_j - n * q_(j-1), for the quotients
    q_j = states // n**(rank - 1 - j): numpy divides by a constant fast
    but takes remainders slowly.  Decoding holds one array beyond the
    digits."""
    digits = [states // n ** (rank - 1 - j) for j in range(rank)]
    for j in range(rank - 1, 0, -1):
        digits[j] -= digits[j - 1] * n
    return digits


def _apply_move_encoded(states, digits, move, table, powers):
    """Encodings of the moved states; `digits` are the decoded `states`.

    A move rewrites one or two digits, so only their place values are
    touched.
    """
    i = move.i
    if move.kind == "swap":
        return states + (digits[move.j] - digits[i]) * (powers[i] - powers[move.j])
    if move.kind == "invert":
        moved = table.inv[digits[i]]
    elif move.kind == "multiply":
        moved = table.mul[digits[i], digits[move.j]]
    else:
        moved = table.mul[digits[i], table.inv[digits[move.j]]]
    return states + (moved - digits[i]) * powers[i]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of an array sorted along axis 0 that differ
    from the entry before them."""
    starts = np.empty(values.shape, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _sort(values: np.ndarray) -> np.ndarray:
    """Sort a newly made array in place and return it."""
    values.sort()
    return values


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a newly made array, without its numpy.ma import."""
    values = _sort(values)
    return values[_run_starts(values)]


def _bitset(keys: int) -> np.ndarray:
    """An empty bitset over the keys 0 .. keys-1: bit i of byte b holds
    the key 8 * b + i."""
    return np.zeros((keys + 7) >> 3, dtype=np.uint8)


def _bit_shifts(keys: np.ndarray) -> np.ndarray:
    """The uint8 position of each int64 key's bit in its byte."""
    # the cast keeps the low byte, and so the low three bits
    shifts = keys.astype(np.uint8)
    shifts &= 7
    return shifts


def _test_bits(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each int64 key's bit is set, in the keys' shape.  It makes
    one intp byte index (8 bytes per key), dropped after the gather, and
    the gathered bytes, shifted in place."""
    got = bits[keys >> 3]
    got >>= _bit_shifts(keys)
    got &= 1
    return got.view(bool)


def _set_bits(bits: np.ndarray, keys: np.ndarray) -> None:
    """Set the bits of the int64 keys, which may repeat."""
    masks = _bit_shifts(keys)
    np.left_shift(1, masks, out=masks)
    np.bitwise_or.at(bits, keys >> 3, masks)


def _key_blocks(bits: np.ndarray, keys: int) -> Iterator[np.ndarray]:
    """The keys whose bits are set, ascending, as int64 arrays of at most
    ``max(8, keys)`` keys each: the longest run of whole bytes of a window
    whose bits number at most `keys` (or one byte).  The window starts at
    keys / 8 bytes, which a full bitset fills, and doubles, up to `keys`
    bytes, after a block that took all of it at under half the bound.
    Reading a block makes 5 bytes per byte of its window (the bit counts
    and their running sum), then 8 per byte it covers (the unpacked bits)
    and 8 per key: at most 16 bytes per key of the bound."""
    width, lo = max(1, keys >> 3), 0
    while lo < bits.size:
        window = bits[lo : lo + width]
        counts = np.cumsum(np.bitwise_count(window), dtype=np.int32)
        cut = max(1, int(np.searchsorted(counts, keys, side="right")))
        if cut == width and counts[-1] < keys // 2:
            width = min(keys, 2 * width)
        del counts  # before the bits are unpacked
        block = np.flatnonzero(np.unpackbits(window[:cut], bitorder="little").view(bool))
        if block.size:
            block += 8 * lo
            yield block
        lo += cut


def _count_bits(bits: np.ndarray) -> int:
    """The number of set bits, counted in blocks of bytes."""
    return sum(
        int(np.bitwise_count(bits[lo : lo + _BLOCK_BYTES]).sum())
        for lo in range(0, bits.size, _BLOCK_BYTES)
    )


def _nielsen_moves(table: GroupTable, rank: int) -> list:
    """The Nielsen moves at this rank as maps for ``_orbit_vectorized``."""
    powers = _state_powers(table.order, rank)
    return [
        partial(_apply_move_encoded, move=move, table=table, powers=powers)
        for move in nielsen_generators(rank)
    ]


def orbit_closure(rep: RepTuple, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitClosure:
    """BFS closure of the image tuple under all Nielsen moves.  At rank
    3 or more, an orbit proven larger than the budget by
    ``_check_suborbit_bound`` raises before the BFS."""
    if budget < 1:
        raise BadParameters("orbit budget must be positive")
    table = group_table(rep.target)
    rank = rep.signature.free_rank
    start = rep.images
    moves = _nielsen_moves(table, rank)
    if rank >= 3:
        _check_suborbit_bound(table, rank, start, budget)
    return _orbit_vectorized(table, rank, start, moves, budget)


def _check_suborbit_bound(
    table: GroupTable, rank: int, start: tuple[int, ...], budget: int
) -> None:
    """Raise BudgetExceeded when a lower bound on the rank-r orbit of
    `start` passes the budget; return when it does not, or when no pair of
    slots of `start` generates G.

    The bound: let slots (i, j) generate G, let O2 be the rank-2 orbit of
    (start[i], start[j]) and n = |G|.  Then the orbit O holds at least
    |O2| * n**(r - 2) states, because it holds every (a, b, c) with (a, b)
    in O2 and c in G**(r - 2):

    - adjacent swaps permute the slots, so a state of O has start[i] and
      start[j] in slots 0 and 1;
    - the four rank-2 moves are the rank-r moves on slots 0 and 1
      (swap 0 1, invert 0, multiply 0 by 1, multiply 0 by 1's inverse),
      so every (a, b) in O2 occurs in slots 0 and 1 with the other slots
      unchanged;
    - Nielsen moves keep the subgroup a tuple generates, so every (a, b)
      in O2 generates G;
    - a right transvection g_k -> g_k * g_l^(+-1) is the multiply move
      with its slots permuted by swaps; applied with l in {0, 1}, it
      turns slot k >= 2 into g_k * w for any word w in a and b, which is
      any element of G, and leaves every other slot as it is.  So each
      slot k >= 2 takes every value, independently.

    The rank-2 orbit runs on the BFS engine under the budget
    B2 = budget // n**(r - 2).  When it overruns at the exact count
    used2 > B2 (at most |O2|), the orbit has at least
    used2 * n**(r - 2) > budget states, and that bound is the error's
    `used`; when B2 is 0, the pair alone gives n**(r - 2) > budget.  A
    suborbit that fits costs at most budget / n states.  A run that
    completes has bound <= |O| <= budget, so the check never changes a
    completed orbit.
    """
    pairs = list(itertools.combinations(range(rank), 2))
    generates = closure_ids(table, [(start[i], start[j]) for i, j in pairs]).all(axis=1)
    if not generates.any():
        return
    i, j = pairs[int(generates.argmax())]
    n = table.order
    rest = n ** (rank - 2)
    sub_budget = budget // rest
    used = 1  # the pair itself
    if sub_budget:
        pair, moves = (start[i], start[j]), _nielsen_moves(table, 2)
        try:
            _orbit_vectorized(table, 2, pair, moves, sub_budget)
        except BudgetExceeded as exc:
            used = exc.used
        else:
            return
    raise BudgetExceeded(
        f"orbit closure exceeded state budget: at least {used * rest} states "
        f"(slots {i}, {j}: rank-2 suborbit over {sub_budget} times {n}**{rank - 2})",
        used=used * rest,
        budget=budget,
    )


def _orbit_vectorized(table, rank, start, moves, budget) -> OrbitClosure:
    """BFS closure of the start tuple under the moves, each a map from a
    chunk's encoded states and decoded digits to the moved encodings.

    The frontier is expanded in chunks (``_new_states``) whose working
    arrays fill ``_BLOCK_BYTES``.  Each chunk's new states are exact, so
    the exact distinct count decides ``BudgetExceeded``.  Each level is
    sorted, and only the frontier is held.  The visited bitset is the
    orbit; its bit count must equal the states reached.
    """
    n = table.order
    powers = _state_powers(n, rank)
    start_state = sum(s * int(p) for s, p in zip(start, powers))
    frontier = np.array([start_state], dtype=np.int64)
    visited = _bitset(n**rank)
    _set_bits(visited, frontier)
    reached = 1
    # 8 bytes per digit and 18 per candidate (`_new_states`)
    step = max(1, _BLOCK_BYTES // (8 * rank + 18 * len(moves)))
    levels = 0
    expansions = 0
    while frontier.size:
        levels += 1
        pieces = []
        for lo in range(0, frontier.size, step):
            chunk = frontier[lo : lo + step]
            expansions += len(moves) * chunk.size
            pieces.append(_new_states(chunk, n, rank, moves, visited))
            reached += pieces[-1].size
            if reached > budget:
                raise BudgetExceeded(
                    "orbit closure exceeded state budget", used=reached, budget=budget
                )
        # the pieces are disjoint; the level is dropped before they are joined
        frontier = chunk = None
        frontier = _sort(np.concatenate(pieces)) if len(pieces) > 1 else pieces[0]
    count = _count_bits(visited)
    if count != reached:
        raise AssertionError(f"the bitset holds {count} states, not {reached}")
    return OrbitClosure(
        table=table,
        rank=rank,
        start_ids=start,
        members=visited,
        size=reached,
        levels=levels,
        expansions=expansions,
    )


def _new_states(chunk, n, rank, moves, visited) -> np.ndarray:
    """The sorted distinct states one move from the chunk whose bits in
    `visited` are clear; their bits are set.

    While the moves run it holds the digits (8 bytes each per chunk
    state), the candidates (8 bytes each) and one move's temporaries (18
    bytes per chunk state); then, per candidate, the candidates with
    their membership test (9) or with its mask and the kept ones (10).
    So 8 bytes per digit and 18 per candidate bound it."""
    digits = _decode_digits(chunk, n, rank)
    cand = np.empty(len(moves) * chunk.size, dtype=np.int64)
    for k, move in enumerate(moves):
        cand[k * chunk.size : (k + 1) * chunk.size] = move(chunk, digits)
    del digits
    fresh = cand[~_test_bits(visited, cand)]
    del cand
    fresh = _sorted_unique(fresh)
    _set_bits(visited, fresh)
    return fresh


def verify_characteristic_closure(result: OrbitResult) -> bool:
    """Every Nielsen move maps every member of the partitioned orbit
    back into the orbit, given its Aut classes (``aut_classes``).

    This is the finite-data certificate that the intersection of the
    kernels over the orbit is invariant under all free-group
    automorphisms.  A move is injective and the states are distinct, so
    the orbit S is closed under it exactly when the image of every state
    has its bit set in ``members``.  The check has two branches.

    - The reps, when every class has |Aut G| states.  A class is the Aut
      images of its rep that lie in S, and it has at most |Aut G| of
      them, so then every image of every rep is in S, and S is a union
      of whole Aut orbits: sigma(S) = S for every sigma in Aut G.
      Postcomposition by sigma commutes with the moves, which act by
      precomposition (Gross and Tucker, Topological Graph Theory, 1987,
      ch. 2).  So for x = sigma(c), c a rep, m(x) = sigma(m(c)), and
      m(S) is in S exactly when m(c) is in S for every rep c: k tests
      per move (``_reps_closed``).
    - Every state, otherwise (``_states_closed``).

    The premise is read off the data: a class size counts the images
    found in S (``aut_classes``), so an S that holds part of an Aut orbit
    has a class short of |Aut G| and takes the second branch.
    """
    orbit = result.orbit
    if set(result.class_sizes) == {_aut_count(orbit.table)}:
        return _reps_closed(orbit, result.class_rep_ids)
    return _states_closed(orbit)


def _reps_closed(orbit: OrbitClosure, reps: np.ndarray) -> bool:
    """Whether every move maps every rep (a row of the id matrix) to a
    key set in ``members``.  The reps go in blocks of rows whose working
    arrays fill ``_BLOCK_BYTES``: per rep its key (8 bytes), and one
    move's image while it is made (18) or tested (17)."""
    n, rank = orbit.table.order, orbit.rank
    moves, powers = _nielsen_moves(orbit.table, rank), _state_powers(n, rank)
    step = max(1, _BLOCK_BYTES // 26)
    for lo in range(0, len(reps), step):
        rows = reps[lo : lo + step]
        if not _block_closed(orbit.members, _encode_rows(rows, powers), list(rows.T), moves):
            return False
    return True


def _states_closed(orbit: OrbitClosure) -> bool:
    """Whether every move maps every state to a key set in ``members``.
    The states go in key blocks whose working arrays fill
    ``_BLOCK_BYTES``: per state its key and digits (8 bytes each), and
    one move's image while it is made (18) or tested (17), or 24 bytes
    while the next block is read (``_key_blocks``)."""
    members, n, rank = orbit.members, orbit.table.order, orbit.rank
    moves = _nielsen_moves(orbit.table, rank)
    step = max(1, _BLOCK_BYTES // (8 * rank + 26))
    return all(
        _block_closed(members, keys, _decode_digits(keys, n, rank), moves)
        for keys in _key_blocks(members, step)
    )


def _block_closed(members, keys, digits, moves) -> bool:
    """Whether every move maps every state of the block, given by its
    keys and their digits, to a key set in `members`; each image is
    dropped once it is tested."""
    return all(_test_bits(members, move(keys, digits)).all() for move in moves)


# ---------------------------------------------------------------------------
# Target-group automorphisms

@dataclass(eq=False)
class OrbitResult:
    """An orbit partitioned into target-automorphism classes.

    class_rep_ids is a read-only (k, r) int64 id matrix: the starting
    tuple first (for its own class), then the lexicographically smallest
    member of each remaining class in increasing order.  It holds an
    array, so results are not compared with ``==``.
    """

    orbit: OrbitClosure
    class_rep_ids: np.ndarray
    class_sizes: tuple[int, ...]

    @property
    def k(self) -> int:
        """The number of classes: the rows of the id matrix."""
        return len(self.class_rep_ids)

    def class_reps_digest(self) -> str:
        """sha256 of the compact JSON list of the class reps, each a list
        of element codes, hashed a block of reps at a time.

        The text of each id that occurs is made once and laid, after a
        ``,``, into the id's row of a zero-padded byte alphabet.  A rep's
        text is its ids' rows side by side, the first ``,`` made ``[``,
        then ``],``; JSON text holds no NUL byte, so dropping the zero
        bytes leaves exactly the rep's text and the comma before the next
        one.  Per rep a block holds its text row, the gathered rows, the
        mask of kept bytes and the kept bytes: 4 bytes per byte of row."""
        reps, table = self.class_rep_ids, self.orbit.table
        present = np.zeros(table.order, dtype=bool)
        present[reps] = True
        ids = np.flatnonzero(present)
        texts = np.array([("," + text).encode() for text in encode_json(table, ids)])
        alphabet = np.zeros((table.order, texts.itemsize), dtype=np.uint8)
        alphabet[ids] = texts.view(np.uint8).reshape(ids.size, -1)
        width = reps.shape[1] * alphabet.shape[1] + 2
        step = max(1, _BLOCK_BYTES // (4 * width))
        digest = sha256(b"[")
        for lo in range(0, len(reps), step):
            rows = reps[lo : lo + step]
            text = np.empty((len(rows), width), dtype=np.uint8)
            text[:, :-2] = alphabet[rows].reshape(len(rows), -1)
            text[:, 0] = ord("[")
            text[:, -2] = ord("]")
            text[:, -1] = ord(",")
            text = text[text != 0]
            # no comma after the last rep
            digest.update(text[:-1] if lo + step >= len(reps) else text)
        digest.update(b"]")
        return digest.hexdigest()


def _aut_count(table: GroupTable) -> int:
    """The number of automorphisms, read off the images of one id."""
    return automorphism_images(table, [table.identity_id]).shape[0]


def _image_rows(table: GroupTable, rank: int, block: int = _BLOCK_BYTES) -> int:
    """How many rank-r id rows fit `block` bytes together with their
    images under every automorphism, at 14 bytes per image digit.
    ``automorphism_images`` peaks at 10 bytes per image digit besides its
    ufunc buffer of up to 64 KiB; the encoded images (``_encode_rows``)
    and their membership test take less.  A partition batch or a block
    of class keys peaked at 14.1 bytes per digit at rank 2 and 13.1 at
    rank 3, that buffer included (tracemalloc)."""
    return max(1, block // (14 * rank * _aut_count(table)))


def _encode_rows(rows: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The int64 keys of the id rows along the last axis, summed a column
    at a time (16 bytes per row): a matmul copies every id to int64."""
    keys = rows[..., 0] * powers[0]
    for j in range(1, powers.size):
        keys += rows[..., j] * powers[j]
    return keys


def _classify_seeds(orbit, table, powers, seeds, classified):
    """Set the bits of the Aut images of each seed row that lie in the
    orbit in the bitset `classified`; return each seed's class minimum
    (its smallest image in the orbit) and class size (its distinct images
    there)."""
    images = _encode_rows(automorphism_images(table, seeds), powers)
    images.sort(axis=0)
    present = _test_bits(orbit.members, images)
    _set_bits(classified, images[present])
    minima = images[present.argmax(axis=0), np.arange(images.shape[1])]
    return minima, (present & _run_starts(images)).sum(axis=0)


def aut_classes(orbit: OrbitClosure) -> OrbitResult:
    """Partition the orbit by postcomposition with Aut(target).

    A class is the set of Aut images of one state that lie in the orbit,
    so any unclassified state seeds a new class, and the smallest present
    image of a seed is its class minimum.  The partition runs in seed
    batches.  The starting tuple's class goes first; then each step takes
    the next unclassified states of a key block as seeds.  Seeds of one
    batch may share a class; they give the same minimum and size, and
    the duplicates are dropped at the end.  A key block takes an eighth
    of ``_BLOCK_BYTES`` (8 bytes per key; three times that while it is
    read or tested, between batches) and a batch's working arrays the
    rest (``_image_rows``).  The classified states are a bitset over the
    key space.  The key blocks stop once every state is classified: the
    summed class sizes bound the classified count from above (a batch
    may count one class twice), so the bits are counted only when that
    sum reaches the orbit's size.

    The reps are one read-only (k, r) int64 id matrix, the starting tuple
    in row 0 and the other class minima decoded into rows 1.. a block of
    minima at a time (their digits fill half of ``_BLOCK_BYTES``).
    """
    table, rank = orbit.table, orbit.rank
    n = table.order
    powers = _state_powers(n, rank)
    span = _BLOCK_BYTES // 64
    step = _image_rows(table, rank, _BLOCK_BYTES - 8 * span)
    classified = _bitset(n**rank)
    start_min, start_size = _classify_seeds(
        orbit, table, powers, np.array([orbit.start_ids]), classified
    )
    if not start_size[0]:
        raise AssertionError("starting state must belong to some class")
    minima, sizes = [start_min], [start_size]
    claimed = int(start_size[0])
    for keys in _key_blocks(orbit.members, span):
        while keys.size:
            keys = keys[~_test_bits(classified, keys)]
            seeds, keys = keys[:step], keys[step:]
            if seeds.size:
                seeds = np.stack(_decode_digits(seeds, n, rank), axis=1)
                batch = _classify_seeds(orbit, table, powers, seeds, classified)
                minima.append(batch[0])
                sizes.append(batch[1])
                claimed += int(batch[1].sum())
        if claimed >= orbit.size:
            claimed = _count_bits(classified)
            if claimed == orbit.size:
                break
    minima, sizes = np.concatenate(minima), np.concatenate(sizes)
    order = np.argsort(minima[1:], kind="stable") + 1
    keep = np.concatenate([[0], order[_run_starts(minima[order])]])
    minima, sizes = minima[keep], sizes[keep]
    # only keys of states are ever set, so the count is the orbit's
    # exactly when every state is classified
    if _count_bits(classified) != orbit.size or int(sizes.sum()) != orbit.size:
        raise AssertionError("the classes must partition the orbit")
    class_sizes = tuple(sizes.tolist())
    # dropped before the reps are made
    del order, keep, sizes, classified
    reps = np.empty((minima.size, rank), dtype=np.int64)
    # the starting class reports the starting tuple itself
    reps[0] = orbit.start_ids
    step = max(1, _BLOCK_BYTES // (16 * (rank + 1)))
    for lo in range(1, minima.size, step):
        for j, digits in enumerate(_decode_digits(minima[lo : lo + step], n, rank)):
            reps[lo : lo + step, j] = digits
    reps.setflags(write=False)
    return OrbitResult(orbit=orbit, class_rep_ids=reps, class_sizes=class_sizes)


def canonical_class_keys(table: GroupTable, rep_ids) -> np.ndarray:
    """Per row of the (k, r) id matrix, the minimum encoding over its
    full automorphism class: a complete invariant for postcomposition
    equivalence.  Rows go in blocks whose working arrays fill at most
    ``_BLOCK_BYTES`` (``_image_rows``)."""
    rank = len(rep_ids[0])
    powers = _state_powers(table.order, rank)
    step = _image_rows(table, rank)
    keys = np.empty(len(rep_ids), dtype=np.int64)
    for lo in range(0, keys.size, step):
        images = _encode_rows(automorphism_images(table, rep_ids[lo : lo + step]), powers)
        images.min(axis=0, out=keys[lo : lo + step])
        del images  # before the next block is made
    return keys


@dataclass(frozen=True)
class HallReport:
    ok: bool
    pairwise_inequivalent: bool


def verify_hall_surjectivity(result: OrbitResult) -> HallReport:
    """Surjectivity of the product of the class reps onto G**k, by Hall's
    lemma (The Eulerian functions of a group, Q. J. Math. 7, 1936): every
    class rep surjects onto G, and no two are related by an automorphism
    of G.  The reps are closed in one ``closure_ids`` call (a (k, |G|)
    byte matrix, in blocks of its own).

    Closing the image in G**k could add a check only while |G|**k is at
    most ``PRODUCT_CLOSURE_CAP`` = 10**7, so k <= 3 as |G| >= 60; but on
    PSL(2,p), the one target here, k >= 4.  Aut G = PGL(2,p) keeps the
    SL(2,p) trace triple (tr X, tr Y, tr XY) of a state up to the lifts'
    signs, so a class has one sign class of triples.  Rank 2: the start
    (A, B) generates G; let B have the larger order m, so m >= 3 (two
    involutions generate a dihedral group), B~**m = -I and y = tr B~ != 0.
    The states (A B**j, B) have triples (x_j, y, x_(j+1)) for
    x_j = tr A~B~**j, and x_j = y x_(j-1) - x_(j-2) runs both ways, so a
    repeat of (x_j, x_(j+1)) at a shift 0 < P < 2m gives tr A~XN = 0 for
    N = B~**P - I and X in {I, B~}.  If N is invertible, N and B~N span
    I and B~, so tr A~ = tr A~B~ = 0 and <A, B> = <A, AB> is dihedral;
    else B~**P is unipotent, so B is, and A lies in B's Borel subgroup.
    So the 2m triples are distinct, a sign class holds at most two of
    them (y is fixed), k >= m >= 3, and k = 3 needs |G| <= 215: p = 5 or
    7, where the one rank-2 input is genus-zero p = 5, whose unipotent
    entries give m = 5.  Rank r >= 3: every builder tuple holds a
    generating pair, so the orbit has at least |O2| * n**(r - 2) states
    (``_check_suborbit_bound``); |O2| >= n, as conjugation is a word in
    Nielsen moves and G acts on the pair freely; and a class has at most
    |Aut G| = 2n states, so k >= n**(r - 2) / 2 >= 30.
    """
    table = result.orbit.table
    reps = result.class_rep_ids
    each = bool(closure_ids(table, reps).all())
    pairwise = bool(_run_starts(_sort(canonical_class_keys(table, reps))).all())
    return HallReport(ok=each and pairwise, pairwise_inequivalent=pairwise)


def _product_closure_order(table: GroupTable, class_rep_ids: np.ndarray) -> int | None:
    """Order of the image of the product of the class reps, or None when
    G^k is above ``PRODUCT_CLOSURE_CAP``: the orbit of the identity
    k-tuple in G^k under right multiplication by one k-tuple per free
    generator (column of the class rep ids).  In a finite group that is
    the subgroup those tuples generate, so it never outgrows G^k."""
    k = len(class_rep_ids)
    product_order = table.order**k
    if product_order > PRODUCT_CLOSURE_CAP:
        return None
    powers = _state_powers(table.order, k)
    columns = np.asarray(class_rep_ids, dtype=np.int64).T
    moves = [
        partial(_right_multiply, gens=gens, table=table, powers=powers)
        for gens in columns
    ]
    start = (table.identity_id,) * k
    return _orbit_vectorized(table, k, start, moves, product_order).size


def _right_multiply(states, digits, gens, table, powers):
    """Encodings of the states times the k-tuple gens, componentwise,
    one component at a time."""
    moved = np.zeros_like(states)
    for digit, gen, power in zip(digits, gens, powers):
        moved += table.mul[digit, gen] * power
    return moved
