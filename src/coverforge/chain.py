"""The stabilizer chain of the class partition (``orbits.aut_classes``).

A set of automorphisms is a segment of a flat int64 array of
automorphism numbers, the rows of ``groups.automorphism_images``, so
the stabilizers of many prefixes are one array and their sizes.  A
prefix of a tuple is the key of its entries, and the states that extend
it are one run of consecutive keys in an orbit's bitset.  The chain
walks every prefix of a level at once: each step takes the images of
one id per segment under its automorphisms, and keeps the ones that
attain the least image, the stabilizer of the longer prefix.  Every
step sizes its blocks by all the arrays it makes, so the walk's working
memory stays within ``_BLOCK_BYTES``.

The chain is a module of its own, apart from ``orbits``, because every
process compiles the package's source when no bytecode is cached, and
the compile of one module sets a floor under a command's peak RSS:
with the chain inside it, ``orbits`` took 2.2 MiB to compile, against
1.7 MiB for the largest other module.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .groups import GroupTable, automorphism_image, automorphism_images, _BLOCK_BYTES

# bytes per automorphism image in a step of the chain walk: the segment
# index, the automorphism and its id (8 bytes each), the image and its
# tests, and `automorphism_image`'s three int64 temporaries
_CHAIN_BYTES = 64
# bytes per byte of a run window (`_run_window`): the gather's index (8)
# then the window, its mask and the unpacked bits (10); reading the set
# keys out of it adds 32 per bit (`_run_keys`).  A row of a window takes
# some 96 bytes besides, for its run's ends, masks and shifts
_WINDOW_BYTES = 18
_KEYS_BYTES = _WINDOW_BYTES + 8 * 32
_ROW_BYTES = 96


def _segments(sizes: np.ndarray) -> np.ndarray:
    """The segment of each place of consecutive segments of these sizes."""
    return np.repeat(np.arange(sizes.size), sizes)


def _gather_segments(store: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The segments store[start : start + size], one after another."""
    seg = _segments(sizes)
    places = np.arange(seg.size)
    places += (starts - np.cumsum(sizes) + sizes)[seg]
    return store[places]


def _segment_blocks(costs: np.ndarray, budget: int) -> Iterator[slice]:
    """Slices of consecutive segments whose costs sum to at most
    `budget`, or of one segment that alone passes it."""
    ends = np.cumsum(costs)
    lo = 0
    while lo < costs.size:
        floor = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, floor + budget, side="right")))
        yield slice(lo, hi)
        lo = hi


def _least_images(table, auts, sizes, ids):
    """One step of the chain walk for many segments of automorphisms at
    once: segment i is the next sizes[i] entries of `auts`, none empty,
    and moves ids[i].  Returns each id's least image under its segment,
    and the mask of the automorphisms that attain it: when the segment is
    a stabilizer and holds the identity, those are the stabilizer of the
    id as well, and the id is least exactly when its image is it."""
    seg = _segments(sizes)
    images = automorphism_image(table, auts, ids[seg])
    least = np.minimum.reduceat(images, np.cumsum(sizes) - sizes)
    return least, images == least[seg]


def _id_orbits(table: GroupTable, group: np.ndarray):
    """The chain's level 0: the least id of each orbit of the automorphism
    group `group` on the ids, ascending, and its stabilizer in the group,
    from one row of images per orbit, made in blocks of ``_BLOCK_BYTES``.
    Returns the ids, the stabilizers' automorphisms one segment after
    another, and the segments' sizes."""
    seen = np.zeros(table.order, dtype=bool)
    least, stabilizers = [], []
    step = max(1, _BLOCK_BYTES // _CHAIN_BYTES)
    for x in range(table.order):
        if not seen[x]:
            fixers = []
            for lo in range(0, group.size, step):
                auts = group[lo : lo + step]
                row = automorphism_image(table, auts, np.full(auts.size, x))
                seen[row] = True
                fixers.append(auts[row == x])
            least.append(x)
            stabilizers.append(np.concatenate(fixers))
    sizes = np.array([s.size for s in stabilizers], dtype=np.int64)
    return np.array(least, dtype=np.int64), np.concatenate(stabilizers), sizes


def _run_window(bits: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The bits of the keys of the runs [lo, hi), none empty, as an
    (m, 8 w) bool matrix whose column c of row t is the key
    8 * (lo[t] >> 3) + c, with every bit outside the run clear; w is the
    most bytes a run touches.  Returns the matrix and each row's key of
    column 0."""
    first, last = lo >> 3, (hi - 1) >> 3
    span = last - first
    width = int(span.max()) + 1
    index = first[:, None] + np.arange(width)
    np.minimum(index, bits.size - 1, out=index)
    window = bits[index]
    del index
    window[np.arange(width) > span[:, None]] = 0
    window[:, 0] &= np.left_shift(0xFF, lo & 7).astype(np.uint8)
    rows = np.arange(lo.size)
    window[rows, span] &= (np.left_shift(2, (hi - 1) & 7) - 1).astype(np.uint8)
    return np.unpackbits(window, axis=1, bitorder="little").view(bool), first << 3


def _run_windows(bits, lo, length, per_byte, budget):
    """The windows (`_run_window`) of the runs [lo, lo + length), in
    blocks of rows that take `per_byte` bytes per byte of window and
    ``_ROW_BYTES`` per row within `budget` bytes; a run longer than one
    block allows is cut into pieces.  Yields each row's run, its window
    and its key of column 0."""
    piece = max(8, 8 * ((budget - _ROW_BYTES) // per_byte) - 14)
    count = -(-length // piece)  # pieces per run
    width = (min(length, piece) + 14) >> 3
    rows = max(1, budget // (per_byte * width + _ROW_BYTES))
    for a in range(0, lo.size * count, rows):
        place = np.arange(a, min(a + rows, lo.size * count))
        owner = place // count
        start = lo[owner] + (place - owner * count) * piece
        end = np.minimum(start + piece, lo[owner] + length)
        yield (owner, *_run_window(bits, start, end))


def _occupied(bits, lo, length, budget) -> np.ndarray:
    """Whether each run [lo, lo + length) of keys holds a set bit,
    working within `budget` bytes."""
    out = np.zeros(lo.size, dtype=bool)
    for owner, window, _ in _run_windows(bits, lo, length, _WINDOW_BYTES, budget):
        out[owner[window.any(axis=1)]] = True
    return out


def _run_keys(bits, lo, length) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The set keys of the runs [lo, lo + length), ascending within a run
    and the runs in order, in blocks: each the keys and the run of each."""
    for owner, window, base in _run_windows(bits, lo, length, _KEYS_BYTES, _BLOCK_BYTES):
        keys = np.flatnonzero(window)
        row = keys // window.shape[1]
        keys -= row * window.shape[1]
        keys += base[row]
        yield keys, owner[row]


def _extend(table, members, rank, level, keys, auts, sizes):
    """The chain's next level.  From the prefixes of length `level`
    (their keys, ascending, and their stabilizers: `auts` in segments of
    `sizes`), the prefixes one entry longer whose run of keys holds a set
    bit and whose last entry is least in its orbit under the stabilizer
    of the prefix before it, with their own stabilizers, the same way.
    The pairs of a prefix and an id go in blocks of half of
    ``_BLOCK_BYTES``, at 48 bytes each, and the other half takes their
    runs' windows, then their images at ``_CHAIN_BYTES`` each."""
    n = table.order
    run = n ** (rank - level - 1)
    starts = np.cumsum(sizes) - sizes
    out_keys, out_auts, out_sizes = [], [], []
    half = _BLOCK_BYTES // 2
    step = max(1, half // 48)
    for a in range(0, keys.size * n, step):
        place = np.arange(a, min(a + step, keys.size * n))
        owner = place // n
        pairs = keys[owner] * n + (place - owner * n)
        del place
        occupied = _occupied(members, pairs * run, run, half)
        pairs, owner = pairs[occupied], owner[occupied]
        del occupied
        for part in _segment_blocks(sizes[owner] * _CHAIN_BYTES, half):
            got, by = pairs[part], owner[part]
            seg_sizes = sizes[by]
            seg_auts = _gather_segments(auts, starts[by], seg_sizes)
            last = got - keys[by] * n
            least, attain = _least_images(table, seg_auts, seg_sizes, last)
            minimal = least == last
            attain &= np.repeat(minimal, seg_sizes)
            fixed = np.add.reduceat(attain, np.cumsum(seg_sizes) - seg_sizes, dtype=np.int64)
            out_keys.append(got[minimal])
            out_auts.append(seg_auts[attain])
            out_sizes.append(fixed[minimal])
    if not out_keys:
        return keys[:0], auts[:0], sizes[:0]
    return np.concatenate(out_keys), np.concatenate(out_auts), np.concatenate(out_sizes)


def _run_minima(members, keys, run, sizes, order):
    """The set keys of the runs of the done prefixes (`keys`, each
    followed by `run` keys), which are class minima, in blocks: each
    the minima and their class sizes, `order` over the size of the
    stabilizer of their prefix (`sizes`)."""
    for found, owner in _run_keys(members, keys * run, run):
        yield found, (order // sizes)[owner]


def _keep_segments(keep, keys, auts, sizes):
    """The prefixes the mask keeps, with their stabilizers."""
    return keys[keep], auts[np.repeat(keep, sizes)], sizes[keep]


def class_minima(table: GroupTable, members: np.ndarray, rank: int, group: np.ndarray, kernel: int):
    """The class minima of the orbit whose bitset is `members`, under the
    automorphism group `group` (numbers, ascending), whose subgroup that
    fixes every entry of every state has `kernel` elements; and each
    one's class size.  Level 0 takes the group's orbits on ids
    (``_id_orbits``) whose run holds a set bit; each later level first
    reads the runs of the prefixes that are done, those whose stabilizer
    is that subgroup and the full tuples, then extends the rest
    (``_extend``).  Each level's minima are ascending."""
    n = table.order
    keys, auts, sizes = _id_orbits(table, group)
    head = n ** (rank - 1)
    keys, auts, sizes = _keep_segments(
        _occupied(members, keys * head, head, _BLOCK_BYTES), keys, auts, sizes
    )
    minima, classes = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for level in range(1, rank + 1):
        run = n ** (rank - level)
        done = (sizes == kernel) | (level == rank)
        for found, size in _run_minima(members, keys[done], run, sizes[done], group.size):
            minima.append(found)
            classes.append(size)
        keys, auts, sizes = _keep_segments(~done, keys, auts, sizes)
        if not keys.size:
            break
        keys, auts, sizes = _extend(table, members, rank, level, keys, auts, sizes)
    return np.concatenate(minima), np.concatenate(classes)


def _aut_count(table: GroupTable) -> int:
    """The number of automorphisms, read off the images of one id."""
    return automorphism_images(table, [table.identity_id]).shape[0]


def canonical_keys(table: GroupTable, reps: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per row of the (k, r) id matrix, the key (place values `powers`) of
    its least image under all of Aut G, a complete invariant of
    postcomposition equivalence, by the chain walk of ``class_minima``
    and independent of its runs.

    Each distinct first id's images under Aut G (``automorphism_images``,
    in blocks of ``_BLOCK_BYTES``) give its least image and one
    automorphism tau taking it there; a row moved by its tau has the
    least first id m, and its least image is the least image of the moved
    row under the stabilizer of m.  The later columns go as in
    ``_extend``: each keeps the automorphisms that attain its least
    image, which are the stabilizer of the entries so far.  The images
    of Aut G and the rows' chain walks each take half of
    ``_BLOCK_BYTES``, at ``_CHAIN_BYTES`` per stabilizer image, and the
    per-id lookups (15 bytes per id) a share of the rest.
    """
    n, rank = table.order, reps.shape[1]
    # 10 bytes per image and a ufunc buffer of up to 64 KiB
    step = max(1, _BLOCK_BYTES // (28 * _aut_count(table)))
    least, lift = np.zeros(n, dtype=table.inv.dtype), np.zeros(n, dtype=np.int64)
    present = np.zeros(n, dtype=bool)
    present[reps[:, 0]] = True
    firsts = np.flatnonzero(present)
    for lo in range(0, firsts.size, step):
        ids = firsts[lo : lo + step]
        images = automorphism_images(table, ids)
        lift[ids] = images.argmin(axis=0)
        least[ids] = images.min(axis=0)
        del images
    # the stabilizer of each least first id, from its row of images
    present[:] = False
    present[least[firsts]] = True
    heads = np.flatnonzero(present)
    slot = np.zeros(n, dtype=np.int32)
    slot[heads] = np.arange(heads.size)
    stabilizers = []
    for lo in range(0, heads.size, step):
        fixed = automorphism_images(table, heads[lo : lo + step]) == heads[lo : lo + step]
        stabilizers += [np.flatnonzero(column) for column in fixed.T]
    stab_sizes = np.array([s.size for s in stabilizers], dtype=np.int64)
    stab_starts = np.cumsum(stab_sizes) - stab_sizes
    stabilizers = np.concatenate(stabilizers)
    keys = np.empty(len(reps), dtype=np.int64)
    # an eighth of the block takes a chunk of rows' slots and costs (32
    # bytes each), half a part's rows, moved rows and images
    chunk = max(1, _BLOCK_BYTES // 256)
    for lo in range(0, keys.size, chunk):
        slots = slot[least[reps[lo : lo + chunk, 0]]]
        costs = (stab_sizes[slots] + rank) * _CHAIN_BYTES
        for part in _segment_blocks(costs, _BLOCK_BYTES // 2):
            rows = reps[lo : lo + chunk][part]
            key = least[rows[:, 0]].astype(np.int64) * powers[0]
            taus = np.repeat(lift[rows[:, 0]], rank - 1)
            moved = automorphism_image(table, taus, rows[:, 1:].ravel()).reshape(len(rows), -1)
            sizes = stab_sizes[slots[part]]
            auts = _gather_segments(stabilizers, stab_starts[slots[part]], sizes)
            for j in range(1, rank):
                low, attain = _least_images(table, auts, sizes, moved[:, j - 1])
                key += low * powers[j]
                if j < rank - 1:
                    cuts = np.cumsum(sizes) - sizes
                    auts, sizes = auts[attain], np.add.reduceat(attain, cuts, dtype=np.int64)
            keys[lo + part.start : lo + part.stop] = key
    return keys
