"""Tests for the Nielsen-move orbit machinery and its class partition."""

import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
from functools import cache, partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coverforge import certificates, chain, groups, orbits
from coverforge.catalog import (
    build_characteristic_cyclic,
    build_characteristic_sym3,
    build_generic,
    build_genus_zero,
    build_once_punctured,
)
from coverforge.covers import characteristic_core
from coverforge.errors import BadParameters, BudgetExceeded
from coverforge.groups import (
    FiniteGroupHandle,
    GroupTable,
    automorphism_images,
    closure_ids,
    encode,
    group_table,
)
from coverforge.orbits import (
    NielsenMove,
    OrbitResult,
    _product_closure_order,
    aut_classes,
    nielsen_generators,
    orbit_closure,
    verify_characteristic_closure,
    verify_hall_surjectivity,
)
from coverforge.surfaces import RepTuple, SurfaceSignature, peripheral_ids
from element_oracle import (
    Residue, element_of, element_order, elements, identity, ids_of, rep_peripheral_ids,
)
from test_reference_digests import (
    CONFIGS,
    GOLDEN,
    MANY_CLASS_GOLDEN,
    PSL2_RANK2_GOLDEN,
    STAGE_PATH_GOLDEN,
)


def all_id_tuples(orb):
    """Every state of the orbit as an id tuple, in order."""
    return [ids for block in orb.id_tuples() for ids in block]


def orbit_keys(orb):
    """Every state's key, ascending, unpacked from the orbit's bitset at
    once."""
    return np.flatnonzero(np.unpackbits(orb.members, bitorder="little"))


def drop_state(orb, key):
    """A planted fault: a copy of the orbit whose bitset lacks the state
    `key`, with the size one less."""
    members = orb.members.copy()
    members[key >> 3] &= np.uint8(0xFF ^ (1 << (key & 7)))
    return dataclasses.replace(orb, members=members, size=orb.size - 1)


def drop_class(orb, rep_ids):
    """A planted fault: a copy of the orbit whose bitset lacks the whole
    Aut class of the state `rep_ids`, its images under every automorphism
    (``reference_aut_rows``), with the size reduced by their number."""
    images = reference_aut_rows(orb.table)[:, list(rep_ids)]
    keys = np.unique(images @ orbits._state_powers(orb.table.order, orb.rank))
    members = orb.members.copy()
    np.bitwise_and.at(members, keys >> 3, ~np.left_shift(1, keys & 7).astype(np.uint8))
    return dataclasses.replace(orb, members=members, size=orb.size - keys.size)


def toy_rep():
    """F_2 -> Z/2 sending the generators to (1, 0)."""
    sig = SurfaceSignature(0, 3)
    h = FiniteGroupHandle.cyclic(2)
    return RepTuple(sig, h, ids_of(h, Residue(1, 2), Residue(0, 2)))


def involution_rep(rank, last=False):
    """The first (or last) involution of PSL(2,5) in id order, then
    rank - 1 identities.  The orbit is the 2**rank - 1 nonzero tuples over
    {e, x}, which is not Aut-invariant: every class is one state.  For the
    last involution a state's smallest Aut image lies outside the orbit.
    No pair of its entries generates PSL(2,5), so the suborbit bound
    leaves it to the BFS.  At rank 10 the 60**10 (about 6.0e17) keys
    reach the key limit, so its orbit is refused."""
    h = FiniteGroupHandle.psl2(5)
    involutions = [i for i, g in enumerate(elements(h)) if element_order(g) == 2]
    x = involutions[-1 if last else 0]
    identity = group_table(h).identity_id
    return RepTuple(SurfaceSignature(0, rank + 1), h, (x,) + (identity,) * (rank - 1))


def reference_orbit(rep):
    """Oracle: the orbit as sorted id tuples, by a set-based BFS over the
    Nielsen moves written out on tuples."""
    table = group_table(rep.target)
    mul, inv = table.mul, table.inv
    rank = len(rep.images)
    seen = {rep.images}
    frontier = [rep.images]
    while frontier:
        fresh = []
        for x in frontier:
            head, rest = x[0], x[1:]
            cands = [x[:i] + (x[i + 1], x[i]) + x[i + 2 :] for i in range(rank - 1)]
            cands += [
                (int(inv[head]),) + rest,
                (int(mul[head, x[1]]),) + rest,
                (int(mul[head, int(inv[x[1]])]),) + rest,
            ]
            for cand in cands:
                if cand not in seen:
                    seen.add(cand)
                    fresh.append(cand)
        frontier = fresh
    return sorted(seen)


def reference_aut_rows(table):
    """Oracle: every automorphism as a permutation row over ids, the way
    the stored matrix was built.  Z/n: the unit multiples.  Otherwise row
    g is x -> g (x g^-1), one Python step per id, and for PSL2 the d0
    coset follows: row n + g is row g after conjugation by d0."""
    handle, n = table.handle, table.order
    if handle.kind == "cyclic":
        units = [u for u in range(1, n) if math.gcd(u, n) == 1] or [0]
        return np.outer(units, np.arange(n)) % n
    inner = np.empty((n, n), dtype=np.int64)
    for gid in range(n):
        inner[gid] = table.mul[gid, table.mul[:, table.inv[gid]]]
    if handle.kind == "psl2":
        return np.concatenate([inner, inner[:, table.d0]])
    return inner


def canonical_keys(table, rows):
    """Each id row's key of its least image under all of Aut G."""
    rows = np.asarray(rows)
    return chain.canonical_keys(table, rows, orbits._state_powers(table.order, rows.shape[1]))


def rep_tuples(res):
    """The class reps of a partition as id tuples, in order."""
    return tuple(map(tuple, res.class_rep_ids.tolist()))


def same_classes(a, b):
    """Whether two partitions have the same table, class reps and sizes."""
    return (
        a.orbit.table is b.orbit.table
        and np.array_equal(a.class_rep_ids, b.class_rep_ids)
        and a.class_sizes == b.class_sizes
    )


def reference_partition(orb):
    """Oracle: the classes as sets, each the Aut images of a state that
    lie in the orbit.  Returns the class reps and sizes in the order
    aut_classes reports them: the starting tuple's class first, then the
    lexicographic minimum of every other class in increasing order."""
    perms = reference_aut_rows(orb.table)
    states = set(all_id_tuples(orb))
    classes = {frozenset(map(tuple, perms[:, list(ids)].tolist())) & states for ids in states}
    start_class = next(c for c in classes if orb.start_ids in c)
    others = sorted((min(c), len(c)) for c in classes if c is not start_class)
    return (
        (orb.start_ids,) + tuple(m for m, _ in others),
        (len(start_class),) + tuple(s for _, s in others),
    )


class TestNielsenGenerators:
    def test_rank_two(self):
        moves = nielsen_generators(2)
        assert len(moves) == 4
        kinds = [m.kind for m in moves]
        assert kinds == ["swap", "invert", "multiply", "multiply_inv"]

    def test_rank_three(self):
        moves = nielsen_generators(3)
        assert len(moves) == 5
        assert sum(m.kind == "swap" for m in moves) == 2

    def test_rank_one_rejected(self):
        with pytest.raises(BadParameters):
            nielsen_generators(1)


class TestToyOrbit:
    def test_orbit_states(self):
        orb = orbit_closure(toy_rep())
        assert orb.size == 3
        assert set(all_id_tuples(orb)) == {(1, 0), (0, 1), (1, 1)}

    def test_classes(self):
        res = aut_classes(orbit_closure(toy_rep()))
        assert res.k == 3
        # the starting tuple leads; the others follow in lexicographic order
        assert rep_tuples(res) == ((1, 0), (0, 1), (1, 1))
        assert res.class_sizes == (1, 1, 1)

    def test_partition_holds_its_orbit(self):
        # the one object the class stages read; k is the row count of its
        # id matrix, not a field of its own
        orb = orbit_closure(toy_rep())
        res = aut_classes(orb)
        assert [field.name for field in dataclasses.fields(OrbitResult)] == [
            "orbit", "class_rep_ids", "class_sizes",
        ]
        assert res.orbit is orb
        assert res.k == res.class_rep_ids.shape[0] == 3

    def test_product_rep(self):
        # the product of the three class reps sends the generators to
        # (1, 0, 1) and (0, 1, 1) in (Z/2)^3, which span an image of order 4
        orb = orbit_closure(toy_rep())
        res = aut_classes(orb)
        assert [list(col) for col in zip(*res.class_rep_ids)] == [[1, 0, 1], [0, 1, 1]]
        # each puncture's image has order 2 in some rep
        assert characteristic_core(orb.table, res.class_rep_ids, (2, 2, 2)) == 4

    def test_product_order_matches_mod2_linear_algebra(self):
        # oracle: the three maps factor through Z^2; reducing mod 2 and
        # spanning {(1,0),(0,1),(1,1)} as columns gives a rank-2 image in
        # (Z/2)^3, so the common kernel has index 4
        cols = np.array([[1, 0], [0, 1], [1, 1]]) % 2
        span = set()
        for x in range(2):
            for y in range(2):
                span.add(tuple((cols @ np.array([x, y])) % 2))
        assert len(span) == 4

    def test_characteristic_closure(self):
        orb = orbit_closure(toy_rep())
        assert verify_characteristic_closure(aut_classes(orb))

    def test_mutated_orbit_fails_closure(self):
        orb = orbit_closure(toy_rep())
        start_key = 2 * 1 + 0
        for key in orbit_keys(orb).tolist():
            if key != start_key:
                mutated = drop_state(orb, key)
                assert not verify_characteristic_closure(aut_classes(mutated))
        # without the starting state the partition has no first class, so
        # only the full branch, which takes no partition, can judge it
        start = drop_state(orb, start_key)
        with pytest.raises(AssertionError, match="starting state"):
            aut_classes(start)
        assert not orbits._states_closed(start)


class TestEngineContract:
    @pytest.mark.parametrize("rank", range(2, 7))
    def test_nielsen_moves_closed_under_inverses(self, rank):
        # every move has a partner in the list undoing it, so the state
        # graph is undirected
        table = group_table(FiniteGroupHandle.symmetric(4))
        n = table.order
        powers = orbits._state_powers(n, rank)
        moves = nielsen_generators(rank)

        def apply(move, states):
            digits = orbits._decode_digits(states, n, rank)
            return orbits._apply_move_encoded(states, digits, move, table, powers)

        states = np.random.default_rng(rank).integers(0, n, size=(300, rank)) @ powers
        for move in moves:
            moved = apply(move, states)
            assert any(np.array_equal(apply(back, moved), states) for back in moves), move


class TestChunks:
    """A level spans many frontier chunks, each deduped against the
    visited bitset as it comes, so the count is exact after every
    chunk."""

    # label -> rep
    CASES = {
        "char-sym3-g1": lambda: build_characteristic_sym3(1).rep,
        "generic-p5": lambda: build_generic(5, 1, 2).rep,
        "genus-zero-p5": lambda: build_genus_zero(5, 3).rep,
        "once-punctured-p13": lambda: build_once_punctured(13, 1).rep,
    }
    # candidate bytes of 51 to 64 states per chunk
    TINY = 2048

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_chunk_size_does_not_change_result(self, label, monkeypatch):
        rep = self.CASES[label]()
        default = orbit_closure(rep)
        classes = aut_classes(default)
        # the partition's batches and key blocks shrink with the chunks
        monkeypatch.setattr(orbits, "_BLOCK_BYTES", self.TINY)
        tiny = orbit_closure(rep)
        assert tiny.size == default.size
        assert np.array_equal(tiny.members, default.members)
        assert (tiny.levels, tiny.expansions) == (default.levels, default.expansions)
        assert same_classes(aut_classes(tiny), classes)

    @pytest.mark.parametrize("block_bytes", [TINY, orbits._BLOCK_BYTES])
    @pytest.mark.parametrize("label", sorted(CASES))
    def test_budget_edge(self, label, block_bytes, monkeypatch):
        monkeypatch.setattr(orbits, "_BLOCK_BYTES", block_bytes)
        rep = self.CASES[label]()
        size = orbit_closure(rep).size
        assert orbit_closure(rep, budget=size).size == size
        with pytest.raises(BudgetExceeded) as exc:
            orbit_closure(rep, budget=size - 1)
        # the exact distinct count at the first check over budget:
        # above size - 1 and at most the orbit
        assert exc.value.used == size


class TestMembers:
    """An orbit carries its states as a bitset over the key space."""

    def test_members_is_the_bitset_of_the_states(self):
        # the bitset and the count are the only record of the states
        fields = [field.name for field in dataclasses.fields(orbits.OrbitClosure)]
        assert fields == ["table", "rank", "start_ids", "members", "size", "levels", "expansions"]
        rep = build_characteristic_sym3(1).rep
        orb = orbit_closure(rep)
        keys = orbit_keys(orb)
        assert keys.size == orb.size == orbits._count_bits(orb.members) == 18
        digits = np.unravel_index(keys, (orb.table.order,) * orb.rank)
        assert all_id_tuples(orb) == list(zip(*(d.tolist() for d in digits)))
        assert set(all_id_tuples(orb)) == set(reference_orbit(rep))

    def test_members_take_one_bit_per_key(self):
        orb = orbit_closure(build_once_punctured(13, 1).rep)
        assert orb.members.nbytes == (1092**2 + 7) // 8
        # PSL(2,13) at rank 3 has 1.30e9 keys, a 163 MB bitset, below the
        # key limit; PSL(2,17) at rank 3 has 1.47e10 keys, above it
        orbits._state_powers(1092, 3)
        with pytest.raises(BudgetExceeded, match=r"2448\*\*3 reaches the key limit"):
            orbits._state_powers(2448, 3)


# the most keys of one `_key_blocks` block drawn below; the bitsets span
# up to four blocks' bytes and one key more
DECODE_BLOCK_KEYS = 1024


class TestDecoding:
    """Every stage after the BFS reads the sorted states off the orbit's
    bitset in blocks of keys, and decodes keys into digits."""

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.integers(1, 32 * DECODE_BLOCK_KEYS + 1),
        per_block=st.integers(1, DECODE_BLOCK_KEYS),
        fill=st.sampled_from(["empty", "full", "top", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(keys=1, per_block=1, fill="empty", seed=0)
    @example(keys=13, per_block=8, fill="full", seed=0)  # a partial last byte
    @example(keys=13, per_block=3, fill="full", seed=0)  # a byte above the bound
    @example(keys=8 * DECODE_BLOCK_KEYS + 3, per_block=DECODE_BLOCK_KEYS, fill="full", seed=0)
    @example(keys=8 * DECODE_BLOCK_KEYS + 1, per_block=DECODE_BLOCK_KEYS, fill="top", seed=0)
    def test_bitset_decode_matches_unpacked_bits(self, keys, per_block, fill, seed):
        bits = orbits._bitset(keys)
        rng = np.random.default_rng(seed)
        if fill == "full":
            orbits._set_bits(bits, np.arange(keys))
        elif fill == "random":
            orbits._set_bits(bits, np.flatnonzero(rng.random(keys) < rng.random()))
        if fill in ("top", "random"):
            orbits._set_bits(bits, np.array([keys - 1]))
        expected = np.flatnonzero(np.unpackbits(bits, bitorder="little"))
        blocks = list(orbits._key_blocks(bits, per_block))
        assert all(block.dtype == np.int64 for block in blocks)
        assert all(0 < block.size <= max(8, per_block) for block in blocks)
        decoded = np.concatenate(blocks) if blocks else np.array([], dtype=np.int64)
        assert np.array_equal(decoded, expected)

    @staticmethod
    def _largest_n(rank):
        """The largest group order up to 10 000 whose key space at this
        rank is below the key limit."""
        n = min(10_000, round(orbits._KEY_LIMIT ** (1 / rank)) + 1)
        while n**rank >= orbits._KEY_LIMIT:
            n -= 1
        return n

    @settings(max_examples=60, deadline=None)
    @given(
        # every (n, rank) with n**rank below the key limit, drawn without
        # filtering: most pairs of the two ranges lie above it
        key_space=st.integers(2, 31).flatmap(
            lambda rank: st.tuples(st.integers(2, TestDecoding._largest_n(rank)), st.just(rank))
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_digits_match_unravel_index(self, key_space, seed):
        n, rank = key_space
        states = np.random.default_rng(seed).integers(0, n**rank, size=200)
        states[:2] = 0, n**rank - 1
        digits = orbits._decode_digits(states, n, rank)
        assert all(d.dtype == np.int64 for d in digits)
        assert np.array_equal(np.stack(digits), np.unravel_index(states, (n,) * rank))


class TestWorkingMemory:
    """Each orbit stage holds the data it keeps plus one block of working
    arrays, measured with tracemalloc once the group table and the orbit
    it reads exist."""

    # the Python objects of one call (frames, lists, partials) besides
    # the arrays a block is sized by
    OBJECTS = 16 << 10

    @pytest.fixture(scope="class")
    def sym3_orbit(self):
        return orbit_closure(build_characteristic_sym3(3).rep)

    @staticmethod
    def traced(fn):
        """fn's result, and its peak traced bytes above those it keeps."""
        tracemalloc.start()
        try:
            out = fn()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak - kept

    def test_bfs_holds_one_copy_of_the_orbit(self):
        rep = build_generic(5, 1, 2).rep
        group_table(rep.target)
        tracemalloc.start()
        try:
            orb = orbit_closure(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bitset, the frontier and a chunk; the sorted int64 copy of
        # the orbit, when the BFS made one, was 1.6 MB alone
        assert peak < 8 * orb.size

    def test_closure_check_within_one_block(self, sym3_orbit):
        res = aut_classes(sym3_orbit)
        # every class is full, so the check runs on the 7623 reps
        assert set(res.class_sizes) == {orbits._aut_count(sym3_orbit.table)}
        closed, over = self.traced(lambda: verify_characteristic_closure(res))
        assert closed
        # converting every rep at once would add some 0.37 MB
        assert over <= orbits._BLOCK_BYTES + self.OBJECTS

    def test_full_closure_check_within_one_block(self, sym3_orbit):
        closed, over = self.traced(lambda: orbits._states_closed(sym3_orbit))
        assert closed
        # a block of 32768 states held 2.55 MiB of digits and images
        assert over <= orbits._BLOCK_BYTES + self.OBJECTS

    def test_class_partition_within_one_block(self, sym3_orbit):
        res, over = self.traced(lambda: aut_classes(sym3_orbit))
        assert res.k == 7623
        # the seed batches held a bitset of classified states besides
        assert over <= orbits._BLOCK_BYTES + self.OBJECTS

    def test_class_partition_within_one_block_at_rank_two(self):
        orb = orbit_closure(build_genus_zero(13, 3).rep)
        res, over = self.traced(lambda: aut_classes(orb))
        assert res.k == 49
        # a chain that took every prefix and run at once peaked at 2.15 MB
        assert over <= orbits._BLOCK_BYTES + self.OBJECTS

    def test_reps_digest_within_one_block(self, sym3_orbit):
        res = aut_classes(sym3_orbit)
        digest, over = self.traced(res.class_reps_digest)
        assert digest == MANY_CLASS_GOLDEN["char-sym3-g3"][2]
        # one payload of all 7623 reps' text took 1168 KiB
        assert over <= orbits._BLOCK_BYTES + self.OBJECTS

    def test_peripheral_ids_within_one_block(self):
        # as many Sym(3) rank-6 rows as a class partition of 2e5 classes;
        # k-long products per commutator took some 1.6 MB each
        table = group_table(FiniteGroupHandle.symmetric(3))
        sig = SurfaceSignature(3, 1)
        rows = np.random.default_rng(6).integers(0, table.order, size=(200_000, sig.free_rank))
        ids, over = self.traced(lambda: peripheral_ids(table, sig, rows))
        assert ids.shape == (200_000, 1) and ids.dtype == np.int64
        assert over <= orbits._BLOCK_BYTES + self.OBJECTS

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize(
        "handle",
        [
            FiniteGroupHandle.psl2(5),
            FiniteGroupHandle.psl2(13),
            FiniteGroupHandle.symmetric(3),
            FiniteGroupHandle.cyclic(6),
        ],
        ids=["psl2-5", "psl2-13", "sym-3", "cyclic-6"],
    )
    def test_class_keys_within_one_block(self, handle, rank):
        # three chunks of random rows, each row's chain walked from the
        # stabilizer of its least first id
        table = group_table(handle)
        rows = 3 * (orbits._BLOCK_BYTES // 256)
        ids = np.random.default_rng(rank).integers(0, table.order, size=(rows, rank))
        keys, over = self.traced(lambda: canonical_keys(table, ids))
        assert keys.shape == (rows,)
        assert over <= orbits._BLOCK_BYTES + self.OBJECTS


class TestOrbitEngine:
    def test_identity_tuple_is_fixed(self):
        sig = SurfaceSignature(0, 3)
        h = FiniteGroupHandle.cyclic(4)
        rep = RepTuple(sig, h, (group_table(h).identity_id,) * 2)
        orb = orbit_closure(rep)
        assert orb.size == 1

    def test_genus_zero_p5_orbit_matches_independent_bfs(self):
        b = build_genus_zero(5, 3)
        orb = orbit_closure(b.rep)
        table = group_table(b.rep.target)
        mul, inv = table.mul, table.inv
        start = b.rep.images
        seen = {start}
        frontier = [start]
        while frontier:
            fresh = []
            for x, y in frontier:
                for cand in (
                    (y, x),
                    (int(inv[x]), y),
                    (int(mul[x, y]), y),
                    (int(mul[x, int(inv[y])]), y),
                ):
                    if cand not in seen:
                        seen.add(cand)
                        fresh.append(cand)
            frontier = fresh
        assert set(all_id_tuples(orb)) == seen
        assert orb.size == 600

    def test_generic_p5_rank3_regression(self):
        b = build_generic(5, 1, 2)
        orb = orbit_closure(b.rep)
        assert orb.size == psl2_5_generating_tuples(3) == 200160
        res = aut_classes(orb)
        assert res.k == 1668
        assert sum(res.class_sizes) == orb.size

    def test_determinism(self):
        b = build_genus_zero(5, 3)
        first = orbit_closure(b.rep)
        second = orbit_closure(b.rep)
        assert first.size == second.size
        assert np.array_equal(first.members, second.members)

    def test_bit_count_must_match_the_states_reached(self, monkeypatch):
        # a planted fault: without the dedupe, the toy orbit's third state
        # is reached twice in one chunk and counted twice
        monkeypatch.setattr(orbits, "_sorted_unique", orbits._sort)
        with pytest.raises(AssertionError, match="the bitset holds 3 states, not 4"):
            orbit_closure(toy_rep())

    def test_budget_exceeded(self):
        b = build_generic(13, 1, 2)  # rank 3 over a group of order 1092
        with pytest.raises(BudgetExceeded):
            orbit_closure(b.rep, budget=5000)

    def test_wide_key_space_refused_before_allocation(self):
        # a 1023-state orbit over 60**10 keys: no pair of its entries
        # generates, so only the key limit stops a bitset of 7.6e16 bytes
        rep = involution_rep(10)
        group_table(rep.target)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=r"60\*\*10 reaches the key limit") as exc:
                orbit_closure(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.used, exc.value.budget) == (60**10, 2**32)
        assert peak < 1 << 20

    def test_narrow_keys_match_set_oracle(self):
        # 60**4 keys
        rep = involution_rep(4)
        orb = orbit_closure(rep)
        assert all(keys.dtype == np.int64 for keys in orbits._key_blocks(orb.members, 64))
        assert all_id_tuples(orb) == reference_orbit(rep)
        assert orb.size == 15
        res = aut_classes(orb)
        assert (rep_tuples(res), res.class_sizes) == reference_partition(orb)
        assert verify_characteristic_closure(res)

        perms = reference_aut_rows(orb.table)
        # the exact class minima, in Python ints
        exact = [
            min(
                sum(d * 60 ** (3 - j) for j, d in enumerate(row))
                for row in perms[:, list(ids)].tolist()
            )
            for ids in res.class_rep_ids
        ]
        assert canonical_keys(orb.table, res.class_rep_ids).tolist() == exact

    def test_key_space_limit(self, monkeypatch):
        # (1, 0, .., 0) over Z/2: the orbit is every nonzero tuple.  At
        # rank 31 (2**31 keys) the key space passes and the suborbit bound
        # overruns the budget; at rank 32 the key space is refused first
        h = FiniteGroupHandle.cyclic(2)

        def rep(rank):
            ids = ids_of(h, Residue(1, 2), *[Residue(0, 2)] * (rank - 1))
            return RepTuple(SurfaceSignature(0, rank + 1), h, ids)

        with pytest.raises(BudgetExceeded, match="orbit closure exceeded"):
            orbit_closure(rep(31), budget=1000)

        def no_bfs(*args):
            raise AssertionError("the BFS ran on a refused key space")

        monkeypatch.setattr(orbits, "_orbit_vectorized", no_bfs)
        with pytest.raises(BudgetExceeded, match=r"key space 2\*\*32 reaches the key limit") as exc:
            orbit_closure(rep(32), budget=1000)
        assert (exc.value.used, exc.value.budget) == (2**32, 2**32)

    def test_orbit_members_stay_surjective(self):
        # Nielsen moves do not change the generated subgroup
        b = build_genus_zero(5, 3)
        orb = orbit_closure(b.rep)
        table = orb.table
        assert closure_ids(table, next(orb.id_tuples())[:40]).all()


def reference_generates(handle, gen_ids):
    """Oracle: whether the ids generate the whole group, by a set-based
    closure of the elements under right multiplication, with the element
    arithmetic instead of the table."""
    gens = [element_of(handle, g) for g in gen_ids]
    seen = {identity(handle)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return len(seen) == handle.order


def reference_bound(rep):
    """Oracle: (|O2| * n**(r - 2), (i, j)) for the first pair of slots, in
    combinations order, whose entries generate G, with O2 the pair's
    rank-2 orbit by the set-based BFS; None when no pair generates G."""
    table = group_table(rep.target)
    rank = len(rep.images)
    for i, j in itertools.combinations(range(rank), 2):
        pair = (rep.images[i], rep.images[j])
        if reference_generates(rep.target, pair):
            sub = reference_orbit(RepTuple(SurfaceSignature(0, 3), rep.target, pair))
            return len(sub) * table.order ** (rank - 2), (i, j)
    return None


def spy_engine_ranks(monkeypatch):
    """The rank of every run of the BFS engine, in order, from now on."""
    ranks = []
    engine = orbits._orbit_vectorized

    def spy(table, rank, *args):
        ranks.append(rank)
        return engine(table, rank, *args)

    monkeypatch.setattr(orbits, "_orbit_vectorized", spy)
    return ranks


def psl2_5_generating_tuples(r):
    """Hall's Eulerian function of PSL(2,5) (Q. J. Math. 7, 1936): the
    number of generating r-tuples, which at r >= 3 form one Nielsen orbit
    (Gilman, Canad. J. Math. 29, 1977).  The generic p = 5 regression
    test checks it against the BFS at r = 3."""
    return 60**r - 5 * 12**r - 6 * 10**r - 10 * 6**r + 20 * 3**r + 60 * 2**r - 60


class TestSuborbitBound:
    """At rank >= 3, a pair of slots that generates G bounds the orbit
    from below by |O2| * n**(r - 2), with O2 the pair's rank-2 orbit, and
    an orbit so bounded above its budget raises before the BFS."""

    @pytest.mark.parametrize("rank", range(3, 7))
    def test_premise_rank_two_moves_and_swaps(self, rank):
        moves = nielsen_generators(rank)
        # the rank-2 moves are the rank-r moves that touch only slots 0, 1
        assert tuple(m for m in moves if {m.i, m.j} <= {0, 1, None}) == nielsen_generators(2)
        # the adjacent swaps generate every permutation of the slots
        swaps = [(m.i, m.j) for m in moves if m.kind == "swap"]
        perms = {tuple(range(rank))}
        frontier = list(perms)
        while frontier:
            fresh = []
            for perm in frontier:
                for i, j in swaps:
                    moved = list(perm)
                    moved[i], moved[j] = moved[j], moved[i]
                    if tuple(moved) not in perms:
                        perms.add(tuple(moved))
                        fresh.append(tuple(moved))
            frontier = fresh
        assert len(perms) == math.factorial(rank)

    # label -> (group, rank, orbit size of a tuple of that rank, or None
    # to run the BFS)
    SOUNDNESS_CASES = {
        "sym3-rank3": (lambda: FiniteGroupHandle.symmetric(3), 3, None),
        "sym3-rank4": (lambda: FiniteGroupHandle.symmetric(3), 4, None),
        "z6-rank3": (lambda: FiniteGroupHandle.cyclic(6), 3, None),
        "z6-rank4": (lambda: FiniteGroupHandle.cyclic(6), 4, None),
        "psl2-5-rank3": (lambda: FiniteGroupHandle.psl2(5), 3, None),
        # about 1.3e7 states: too many to run, so Hall's count
        "psl2-5-rank4": (lambda: FiniteGroupHandle.psl2(5), 4, psl2_5_generating_tuples(4)),
    }

    @settings(max_examples=40, deadline=None)
    @given(label=st.sampled_from(sorted(SOUNDNESS_CASES)), seed=st.integers(0, 2**32 - 1))
    def test_bound_is_at_most_the_orbit(self, label, seed):
        handle, rank, size = self.SOUNDNESS_CASES[label]
        handle = handle()
        table = group_table(handle)
        ids = tuple(np.random.default_rng(seed).integers(0, table.order, size=rank).tolist())
        rep = RepTuple(SurfaceSignature(0, rank + 1), handle, ids)
        found = reference_bound(rep)
        assume(found is not None)
        bound, (i, j) = found
        size = size or orbit_closure(rep).size
        assert bound <= size
        # the check passes at the orbit size and fires one below the bound
        orbits._check_suborbit_bound(table, rank, ids, size)
        with pytest.raises(BudgetExceeded, match=f"slots {i}, {j}: rank-2 suborbit") as exc:
            orbits._check_suborbit_bound(table, rank, ids, bound - 1)
        assert (exc.value.used, exc.value.budget) == (bound, bound - 1)

    # label -> rep of a completed orbit on which the bound runs
    COMPLETED_CASES = {
        "generic-p5": lambda: build_generic(5, 1, 2).rep,
        "char-cyclic-g0-n6": lambda: build_characteristic_cyclic(0, 6).rep,
        "char-sym3-g3": lambda: build_characteristic_sym3(3).rep,
    }

    @pytest.mark.parametrize("label", sorted(COMPLETED_CASES))
    def test_budget_at_the_orbit_size_completes(self, label):
        rep = self.COMPLETED_CASES[label]()
        size = orbit_closure(rep).size
        assert orbit_closure(rep, budget=size).size == size

    @pytest.mark.parametrize(
        "p,budget,used,ranks",
        [
            # one below the bound: the rank-2 suborbit of 600 overruns 599
            (5, 35_999, 36_000, [2]),
            # below n**(r - 2) = 60: the pair alone proves it, no BFS runs
            (5, 59, 60, []),
            # the 1M overrun: the suborbit overruns 915 at 1375 states
            (13, 1_000_000, 1_501_500, [2]),
        ],
    )
    def test_early_exit(self, p, budget, used, ranks, monkeypatch):
        rep = build_generic(p, 1, 2).rep
        seen = spy_engine_ranks(monkeypatch)
        n = group_table(rep.target).order
        message = (
            rf"orbit closure exceeded state budget: at least {used} states "
            rf"\(slots \d, \d: rank-2 suborbit over {budget // n} times {n}\*\*1\)"
        )
        with pytest.raises(BudgetExceeded, match=message) as exc:
            orbit_closure(rep, budget=budget)
        assert (exc.value.used, exc.value.budget) == (used, budget)
        assert seen == ranks

    # label -> rep of a builder at rank >= 3
    MEMORY_CASES = {
        "generic-p5": lambda: build_generic(5, 1, 2).rep,
        "generic-p13": lambda: build_generic(13, 1, 2).rep,
        "generic-p17": lambda: build_generic(17, 1, 2).rep,
        "genus-zero-p5-n4": lambda: build_genus_zero(5, 4).rep,
        "genus-zero-p13-n4": lambda: build_genus_zero(13, 4).rep,
        "genus-zero-p17-n4": lambda: build_genus_zero(17, 4).rep,
        "once-punctured-p13-g2": lambda: build_once_punctured(13, 2).rep,
        "once-punctured-p17-g2": lambda: build_once_punctured(17, 2).rep,
        "char-cyclic-g1-n2": lambda: build_characteristic_cyclic(1, 2).rep,
        "char-cyclic-g1-n6": lambda: build_characteristic_cyclic(1, 6).rep,
        "char-sym3-g2": lambda: build_characteristic_sym3(2).rep,
    }

    @pytest.mark.parametrize("label", sorted(MEMORY_CASES))
    def test_bitset_bytes_per_budget_state(self, label, monkeypatch):
        # a run that gets past the bound has budget >= |O2| * n**(r - 2),
        # so its n**r / 8 bitset bytes are at most 16 per budget state
        # when n**2 <= 128 * |O2|, for the pair the bound picks
        rep = self.MEMORY_CASES[label]()
        table = group_table(rep.target)
        rank = len(rep.images)
        engine = orbits._orbit_vectorized
        suborbits = []

        def spy(*args):
            suborbits.append(engine(*args))
            return suborbits[-1]

        monkeypatch.setattr(orbits, "_orbit_vectorized", spy)
        # a budget of n**rank lets the rank-2 suborbit complete
        orbits._check_suborbit_bound(table, rank, rep.images, table.order**rank)
        (suborbit,) = suborbits
        assert suborbit.rank == 2
        assert table.order**2 <= 128 * suborbit.size

    def test_no_generating_pair_runs_the_bfs(self, monkeypatch):
        # (x, e, e, e) with x an involution: no pair generates PSL(2,5),
        # so the rank-4 BFS alone decides, as before the bound
        rep = involution_rep(4)
        seen = spy_engine_ranks(monkeypatch)
        with pytest.raises(BudgetExceeded) as exc:
            orbit_closure(rep, budget=14)
        assert str(exc.value) == "orbit closure exceeded state budget"
        assert exc.value.used == 15
        assert orbit_closure(rep, budget=15).size == 15
        assert seen == [4, 4]


def all_automorphisms(table):
    """Every automorphism as a permutation row over ids."""
    return automorphism_images(table, np.arange(table.order))


class TestAutomorphismPerms:
    @pytest.mark.parametrize(
        "handle,count",
        [
            (FiniteGroupHandle.psl2(5), 120),
            (FiniteGroupHandle.cyclic(2), 1),
            (FiniteGroupHandle.cyclic(3), 2),
            (FiniteGroupHandle.symmetric(3), 6),
        ],
    )
    def test_counts(self, handle, count):
        table = group_table(handle)
        assert all_automorphisms(table).shape[0] == count

    def test_rows_are_automorphisms(self):
        table = group_table(FiniteGroupHandle.psl2(5))
        perms = all_automorphisms(table)
        rng = np.random.default_rng(3)
        for row in perms[rng.integers(0, len(perms), size=8)]:
            for x, y in rng.integers(0, 60, size=(20, 2)):
                assert row[table.mul[x, y]] == table.mul[row[x], row[y]]

    @pytest.mark.parametrize("p", [5, 13])
    def test_psl2_rows_distinct(self, p):
        table = group_table(FiniteGroupHandle.psl2(p))
        perms = all_automorphisms(table)
        # |PGL(2, p)| = p(p^2 - 1) automorphisms, no two alike
        assert perms.shape == (p * (p * p - 1), table.order)
        assert np.unique(perms, axis=0).shape[0] == perms.shape[0]

    def test_sym6_guarded(self):
        with pytest.raises(BadParameters):
            automorphism_images(group_table(FiniteGroupHandle.symmetric(6)), [0])

    @pytest.mark.parametrize(
        "handle",
        [
            FiniteGroupHandle.psl2(5),
            FiniteGroupHandle.psl2(13),
            FiniteGroupHandle.cyclic(6),
            FiniteGroupHandle.symmetric(3),
        ],
        ids=["psl2-5", "psl2-13", "cyclic-6", "sym-3"],
    )
    def test_rows_match_stored_matrix(self, handle):
        table = group_table(handle)
        rows = all_automorphisms(table)
        expected = reference_aut_rows(table)
        assert rows.shape == expected.shape
        assert np.array_equal(np.unique(rows, axis=0), np.unique(expected, axis=0))

    @pytest.mark.parametrize(
        "handle",
        [FiniteGroupHandle.psl2(5), FiniteGroupHandle.symmetric(3), FiniteGroupHandle.cyclic(6)],
        ids=["psl2-5", "sym-3", "cyclic-6"],
    )
    def test_images_peak_at_one_index(self, handle):
        # one intp index and the 16-bit images: 10 bytes per image digit,
        # and the ufunc's buffer for the broadcast add of the inverses
        table = group_table(handle)
        ids = np.random.default_rng(5).integers(0, table.order, size=(4000 // table.order, 3))
        tracemalloc.start()
        try:
            images = automorphism_images(table, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the index and its product with n side by side peaked at 22 bytes
        assert peak <= 10 * images.size + (64 << 10)

    def test_images_keep_the_id_array_shape(self):
        table = group_table(FiniteGroupHandle.psl2(5))
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        images = automorphism_images(table, ids)
        assert images.shape == (120, 2, 3)
        assert np.array_equal(images, all_automorphisms(table)[:, ids])


def drop_d0(id_orbits):
    """A planted fault: the chain's level-0 stabilizers without the
    automorphisms of the d0 coset, the odd ones."""

    def dropped(table, group):
        keys, auts, sizes = id_orbits(table, group)
        keep = auts % 2 == 0
        segment = np.repeat(np.arange(sizes.size), sizes)
        return keys, auts[keep], np.bincount(segment[keep], minlength=sizes.size)

    return dropped


def run_off_by_one(run_keys):
    """A planted fault: every run of keys read from one key late."""
    return lambda bits, lo, length: run_keys(bits, lo + 1, length)


def stabilizer_ignored(run_minima):
    """A planted fault: every class size taken as |A_O|, as if each
    minimum's stabilizer were trivial."""
    return lambda members, keys, run, sizes, order: run_minima(
        members, keys, run, np.ones_like(sizes), order
    )


class TestAutClasses:
    def test_partition_property(self):
        b = build_genus_zero(5, 3)
        orb = orbit_closure(b.rep)
        res = aut_classes(orb)
        assert res.k == 10
        assert sum(res.class_sizes) == orb.size == 600

    def test_single_identity_class(self):
        sig = SurfaceSignature(0, 3)
        h = FiniteGroupHandle.cyclic(4)
        rep = RepTuple(sig, h, (group_table(h).identity_id,) * 2)
        res = aut_classes(orbit_closure(rep))
        assert res.k == 1

    def test_char_cyclic_classes(self):
        b = build_characteristic_cyclic(0, 3)
        orb = orbit_closure(b.rep)
        res = aut_classes(orb)
        assert orb.size == 8
        assert res.k == 4
        assert rep_tuples(res) == ((1, 1), (0, 1), (1, 0), (1, 2))

    def test_char_sym3_classes(self):
        b = build_characteristic_sym3(1)
        orb = orbit_closure(b.rep)
        res = aut_classes(orb)
        assert orb.size == 18
        assert res.k == 3

    # label -> rep
    SET_ORACLE_CASES = {
        "char-sym3-g1": lambda: build_characteristic_sym3(1).rep,
        "char-cyclic-g0-n6": lambda: build_characteristic_cyclic(0, 6).rep,
        "psl2-p5-rank3-last-involution": lambda: involution_rep(3, last=True),
    }

    @pytest.mark.parametrize("label", sorted(SET_ORACLE_CASES))
    def test_matches_set_oracle(self, label):
        orb = orbit_closure(self.SET_ORACLE_CASES[label]())
        res = aut_classes(orb)
        assert (rep_tuples(res), res.class_sizes) == reference_partition(orb)

    # label -> rep; the chain's prefixes, their images and the runs of
    # keys go in blocks that fill at most orbits._BLOCK_BYTES
    BATCH_CASES = {
        "char-cyclic-g0-n3": lambda: build_characteristic_cyclic(0, 3).rep,
        "char-cyclic-g0-n6": lambda: build_characteristic_cyclic(0, 6).rep,
        "char-sym3-g1": lambda: build_characteristic_sym3(1).rep,
        "generic-p5": lambda: build_generic(5, 1, 2).rep,
        "genus-zero-p13": lambda: build_genus_zero(13, 3).rep,
    }

    @pytest.mark.parametrize("label", sorted(BATCH_CASES))
    def test_batch_size_does_not_change_result(self, label, monkeypatch):
        orb = orbit_closure(self.BATCH_CASES[label]())
        default = aut_classes(orb)
        # 64 bytes gives one prefix per block, 64 MiB every prefix at once
        for block_bytes in (64, 64 << 20):
            monkeypatch.setattr(orbits, "_BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(chain, "_BLOCK_BYTES", block_bytes)
            assert same_classes(aut_classes(orb), default)

    # label -> rep of a completed orbit pinned elsewhere in the tests
    FREE_ACTION_CASES = {
        "genus-zero-p13": lambda: build_genus_zero(13, 3).rep,
        "once-punctured-p13": lambda: build_once_punctured(13, 1).rep,
        "dihedral-p13-t4": lambda: build_genus_zero(13, 3, explicit_t=4).rep,
        "generic-p5": lambda: build_generic(5, 1, 2).rep,
        "char-cyclic-g0-n3": lambda: build_characteristic_cyclic(0, 3).rep,
        "char-cyclic-g0-n6": lambda: build_characteristic_cyclic(0, 6).rep,
        "char-sym3-g1": lambda: build_characteristic_sym3(1).rep,
        "char-sym3-g3": lambda: build_characteristic_sym3(3).rep,
    }

    @pytest.mark.parametrize("label", sorted(FREE_ACTION_CASES))
    def test_every_class_has_all_automorphisms(self, label):
        # Aut G acts freely on generating tuples, so a class of an
        # Aut-invariant orbit has |Aut G| members
        orb = orbit_closure(self.FREE_ACTION_CASES[label]())
        res = aut_classes(orb)
        assert set(res.class_sizes) == {len(all_automorphisms(orb.table))}

    def test_dropped_state_breaks_closure_and_its_class(self):
        # a planted fault in an Aut-invariant orbit: 3 classes of 6.  The
        # dropped state's class keeps its minimum, and a class size is
        # |A_O| over a stabilizer, so the sizes still add up to 18 and the
        # partition's sum check fails against the 17 states
        orb = orbit_closure(build_characteristic_sym3(1).rep)
        res = aut_classes(orb)
        assert res.class_sizes == (6, 6, 6)
        mutated = drop_state(orb, int(orbit_keys(orb)[-1]))
        with pytest.raises(AssertionError, match="the classes must partition the orbit"):
            aut_classes(mutated)
        assert not orbits._states_closed(mutated)

    def test_genus_zero_p5_classes_are_half_the_automorphisms(self):
        # this orbit is not Aut-invariant: half of each class's images
        # lie outside it
        orb = orbit_closure(build_genus_zero(5, 3).rep)
        res = aut_classes(orb)
        assert set(res.class_sizes) == {60} and len(all_automorphisms(orb.table)) == 120

    def test_partition_and_hall_memory_at_p17(self):
        # the stored (|Aut G|, |G|) int64 matrix alone was 92 MiB here
        orb = orbit_closure(build_genus_zero(17, 3).rep)
        tracemalloc.start()
        try:
            report = verify_hall_surjectivity(aut_classes(orb), True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 4 << 20

    # planted fault -> (patched helper, orbits it shows on).  d0 counts
    # only on PSL2 orbits whose classes reach outside the inner
    # automorphisms, and a class size only where a state's stabilizer is
    # not trivial, as on the involution orbits
    CHAIN_FAULTS = {
        "stabilizer-drops-d0": ("_id_orbits", drop_d0, ("genus-zero-p13", "generic-p5")),
        "key-run-off-by-one": ("_run_keys", run_off_by_one, ("genus-zero-p13", "generic-p5")),
        "class-size-ignores-stabilizer": (
            "_run_minima", stabilizer_ignored, ("involution-p5-rank3", "involution-p5-rank3-last")
        ),
    }
    # label -> (rep, k)
    FAULT_ORBITS = {
        "genus-zero-p13": (lambda: build_genus_zero(13, 3).rep, 49),
        "generic-p5": (lambda: build_generic(5, 1, 2).rep, 1668),
        "involution-p5-rank3": (lambda: involution_rep(3), 7),
        "involution-p5-rank3-last": (lambda: involution_rep(3, last=True), 7),
    }

    @pytest.mark.parametrize("fault", sorted(CHAIN_FAULTS))
    def test_planted_chain_fault_fails_the_partition(self, fault, monkeypatch):
        helper, plant, labels = self.CHAIN_FAULTS[fault]
        orbs = []
        for label in labels:
            rep, k = self.FAULT_ORBITS[label]
            orbs.append(orbit_closure(rep()))
            assert aut_classes(orbs[-1]).k == k, label
        monkeypatch.setattr(chain, helper, plant(getattr(chain, helper)))
        for orb in orbs:
            with pytest.raises(AssertionError, match="the classes must partition the orbit"):
                aut_classes(orb)

    def test_once_punctured_p13_summary(self):
        b = build_once_punctured(13, 1)
        orb = orbit_closure(b.rep)
        assert orb.size == 107016
        res = aut_classes(orb)
        assert res.k == 49
        assert sum(res.class_sizes) == orb.size

    def test_class_invariants_under_postcomposition(self):
        # automorphisms preserve peripheral orders and coset cycle types
        from coverforge.catalog import diagonal_torus
        from coverforge.covers import coset_permutation, coset_space, cycle_type
        from coverforge.groups import normalizer

        b = build_genus_zero(5, 3)
        res = aut_classes(orbit_closure(b.rep))
        table = res.orbit.table
        perms = all_automorphisms(table)
        space = coset_space(b.h0)
        rep0 = RepTuple(b.signature, table.handle, res.class_rep_ids[1])
        peripheral0 = rep_peripheral_ids(rep0)
        types0 = [cycle_type(coset_permutation(space, g)) for g in peripheral0]
        for row in perms[:10]:
            moved = RepTuple(b.signature, table.handle, tuple(row[list(rep0.images)].tolist()))
            peripheral = rep_peripheral_ids(moved)
            assert table.orders[peripheral].tolist() == table.orders[peripheral0].tolist()
            assert [cycle_type(coset_permutation(space, g)) for g in peripheral] == types0


def relabelled_table(table, seed):
    """An isomorphic copy of a PSL2 table whose ids are permuted: old id i
    becomes relabel[i].  The entries are shuffled, and mul, inv, lookup and
    the identity are mapped through the same permutation, so the copy
    keeps the group law and the codec but not the lexicographic id order."""
    relabel = np.random.default_rng(seed).permutation(table.order)
    old = np.argsort(relabel)  # the old id of each new id
    mul = relabel[table.mul[old[:, None], old[None, :]]].astype(table.mul.dtype)
    inv = relabel[table.inv[old]].astype(table.inv.dtype)
    lookup = np.where(table.lookup >= 0, relabel[table.lookup], -1).astype(table.lookup.dtype)
    identity_id = int(relabel[table.identity_id])
    return GroupTable(table.handle, table.entries[old], lookup, mul, inv, identity_id), relabel


class TestRelabelledIds:
    """Relabelling the ids of the group is an isomorphism of the state
    graph: from the relabelled start the orbit is the relabelled orbit,
    with the same levels and expansions, and the classes have the same
    count and sizes.  Only the class reps past the first, which are
    minima in id order, may differ."""

    # label -> rep
    CASES = {
        "genus-zero-p5": lambda: build_genus_zero(5, 3).rep,
        "once-punctured-p13": lambda: build_once_punctured(13, 1).rep,
    }

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("label", sorted(CASES))
    def test_same_orbit_and_classes(self, label, seed, monkeypatch):
        rep = self.CASES[label]()
        orb = orbit_closure(rep)
        res = aut_classes(orb)
        table, relabel = relabelled_table(orb.table, seed)
        monkeypatch.setitem(groups._TABLE_CACHE, rep.target, table)
        start = tuple(int(relabel[x]) for x in rep.images)
        moved = orbit_closure(RepTuple(rep.signature, rep.target, start))
        moved_res = aut_classes(moved)
        assert moved.table is table
        powers = orbits._state_powers(table.order, orb.rank)
        digits = np.stack(orbits._decode_digits(orbit_keys(orb), table.order, orb.rank), axis=1)
        assert np.array_equal(orbit_keys(moved), np.sort(relabel[digits] @ powers))
        assert (moved.levels, moved.expansions) == (orb.levels, orb.expansions)
        assert (moved.size, moved_res.k) == (orb.size, res.k)
        assert rep_tuples(moved_res)[0] == start
        assert moved_res.class_sizes[0] == res.class_sizes[0]
        assert sorted(moved_res.class_sizes) == sorted(res.class_sizes)


class TestHall:
    def test_duplicated_rep_fails(self):
        b = build_genus_zero(5, 3)
        res = aut_classes(orbit_closure(b.rep))
        dup = OrbitResult(
            orbit=res.orbit,
            class_rep_ids=res.class_rep_ids[[0, 0]],
            class_sizes=(res.class_sizes[0],) * 2,
        )
        report = verify_hall_surjectivity(dup, True)
        assert not report.pairwise_inequivalent
        assert not report.ok

    def test_k1_surjective(self):
        b = build_once_punctured(13, 1)
        res = aut_classes(orbit_closure(b.rep))
        one = OrbitResult(
            orbit=res.orbit,
            class_rep_ids=res.class_rep_ids[:1],
            class_sizes=res.class_sizes[:1],
        )
        assert verify_hall_surjectivity(one, True).ok

    def test_hypothesis_mode_on_large_products(self):
        b = build_genus_zero(5, 3)
        res = aut_classes(orbit_closure(b.rep))
        assert verify_hall_surjectivity(res, True).ok

    def test_surjectivity_checks_every_block_of_reps(self, monkeypatch):
        # the class reps then the identity tuple, which generates nothing.
        # Hall's first condition is the start's surjectivity, so the
        # planted rep is for the oracle, which closes the reps in blocks:
        # in blocks of one rep the last block alone fails
        res = aut_classes(orbit_closure(build_genus_zero(5, 3).rep))
        identity = np.full((1, res.class_rep_ids.shape[1]), res.orbit.table.identity_id)
        bad = dataclasses.replace(
            res,
            class_rep_ids=np.vstack([res.class_rep_ids, identity]),
            class_sizes=res.class_sizes + (1,),
        )
        with pytest.raises(AssertionError):
            assert_reps_generate(bad)
        monkeypatch.setattr(groups, "_BLOCK_BYTES", 1)
        with pytest.raises(AssertionError):
            assert_reps_generate(bad)
        assert_reps_generate(res)
        assert verify_hall_surjectivity(bad, True).pairwise_inequivalent
        assert not verify_hall_surjectivity(bad, False).ok


def lift(handle, gid):
    """The SL(2,p) matrix of an element's canonical representative."""
    g = element_of(handle, gid)
    return np.array([[g.a, g.b], [g.c, g.d]], dtype=np.int64)


def sign_class(x, y, z, p):
    """The trace triple (tr X, tr Y, tr XY) up to the signs of the lifts
    of X and Y: an invariant of a pair under conjugation in GL(2,p)."""
    return min(
        ((sx * x) % p, (sy * y) % p, (sx * sy * z) % p) for sx in (1, -1) for sy in (1, -1)
    )


def power_sign_classes(handle, a, b):
    """The sign classes of the trace triples of the states (A B**j, B),
    0 <= j < 2m, for m the order of B, from oracle matrices.  B's lift
    is the one whose m-th power is -I."""
    p = handle.p
    a_lift, b_lift = lift(handle, a), lift(handle, b)
    m = element_order(element_of(handle, b))
    powers = [np.eye(2, dtype=np.int64)]
    for _ in range(2 * m):
        powers.append(powers[-1] @ b_lift % p)
    if (powers[m] == powers[0]).all():
        powers = [power * (-1) ** j % p for j, power in enumerate(powers)]
    assert (powers[m] == -powers[0] % p).all()
    y = int(np.trace(powers[1]))
    traces = [int(np.trace(a_lift @ power)) % p for power in powers]
    return m, {sign_class(x, y, z, p) for x, z in zip(traces, traces[1:])}


class TestHallLemma:
    """`verify_hall_surjectivity`'s proof that the product image never
    needs closing: on every PSL2 input, |G|**k is above
    PRODUCT_CLOSURE_CAP.  A rank-2 orbit has k >= m, the larger order of
    a generating pair's entries, because the states (A B**j, B) fall in
    m sign classes of trace triples; a rank-r orbit has
    k >= |G|**(r - 2) / 2."""

    # label -> build.  Every t of the genus-zero families at p = 5 and 13,
    # whose entries are unipotent (m = p), and the once-punctured pairs,
    # whose larger order is 3
    CASES = {
        **{f"genus-zero-p5-t{t}": partial(build_genus_zero, 5, 3, t) for t in range(1, 5)},
        **{f"genus-zero-p13-t{t}": partial(build_genus_zero, 13, 3, t) for t in range(1, 13)},
        "genus-zero-p17": partial(build_genus_zero, 17, 3),
        "once-punctured-p13": partial(build_once_punctured, 13, 1),
        "once-punctured-p17": partial(build_once_punctured, 17, 1),
    }

    def test_rank2_classes_outnumber_the_larger_order(self):
        for label, build in self.CASES.items():
            rep = build().rep
            res = aut_classes(orbit_closure(rep))
            # the larger order in the second slot; the swap keeps the orbit
            a, b = sorted(rep.images, key=lambda g: int(res.orbit.table.orders[g]))
            m, classes = power_sign_classes(rep.target, a, b)
            assert len(classes) >= m >= 3, label
            assert res.k >= m, label
            assert res.orbit.table.order**res.k > orbits.PRODUCT_CLOSURE_CAP, label

    def test_rank3_classes_outnumber_half_the_group(self):
        orb = orbit_closure(build_generic(5, 1, 2).rep)
        res = aut_classes(orb)
        assert orb.rank == 3 and res.k >= res.orbit.table.order / 2

    def test_random_generating_pairs(self):
        rng = np.random.default_rng(23)
        for p in (5, 7, 11, 13):
            handle = FiniteGroupHandle.psl2(p)
            table = group_table(handle)
            pairs = rng.integers(0, table.order, size=(40, 2))
            pairs = pairs[groups.closure_ids(table, pairs).all(axis=1)]
            assert len(pairs) >= 10, p
            for a, b in pairs.tolist():
                if table.orders[a] > table.orders[b]:
                    a, b = b, a
                m, classes = power_sign_classes(handle, a, b)
                assert len(classes) >= m >= 3, (p, a, b)
                # the m states (A B**j, B) lie in m distinct classes
                states, x = [], a
                for _ in range(m):
                    states.append((x, b))
                    x = int(table.mul[x, b])
                assert np.unique(canonical_keys(table, states)).size == m, (p, a, b)

    def test_sign_class_is_an_automorphism_invariant(self):
        handle = FiniteGroupHandle.psl2(7)
        table = group_table(handle)
        rng = np.random.default_rng(7)
        for a, b in rng.integers(0, table.order, size=(20, 2)).tolist():
            images = automorphism_images(table, [a, b])
            classes = set()
            for x, y in images.tolist():
                x_lift, y_lift = lift(handle, x), lift(handle, y)
                traces = (np.trace(x_lift), np.trace(y_lift), np.trace(x_lift @ y_lift))
                classes.add(sign_class(*map(int, traces), 7))
            assert len(classes) == 1, (a, b)


class TestClassRepsDigest:
    @pytest.mark.parametrize(
        "handle,rank",
        [
            (FiniteGroupHandle.psl2(13), 2),
            (FiniteGroupHandle.psl2(5), 3),
            (FiniteGroupHandle.cyclic(6), 5),
            (FiniteGroupHandle.symmetric(3), 6),
        ],
        ids=["psl2-13-rank2", "psl2-5-rank3", "cyclic-6-scalars", "sym-3-rows"],
    )
    def test_joined_texts_match_json_dumps(self, handle, rank):
        # the reps are hashed in blocks of _BLOCK_BYTES // (4 * row) reps,
        # a row being rank slots of a comma and the longest text present,
        # then "],".  The first rep holds the id of the longest text, so
        # the counts step - 1, step and step + 1 straddle a block's edge
        table = group_table(handle)
        texts = groups.encode_json(table, range(table.order))
        longest = max(range(table.order), key=lambda i: len(texts[i]))
        step = orbits._BLOCK_BYTES // (4 * (rank * (1 + len(texts[longest])) + 2))
        rng = np.random.default_rng(rank)
        for count in (1, 7, 300, step - 1, step, step + 1):
            reps = rng.integers(0, table.order, size=(count, rank))
            reps[0, 0] = longest
            # the digest reads no more of the orbit than its table
            result = OrbitResult(
                orbit=SimpleNamespace(table=table), class_rep_ids=reps, class_sizes=(1,) * count,
            )
            payload = json.dumps(
                [[encode(table, i) for i in ids] for ids in reps.tolist()],
                sort_keys=True,
                separators=(",", ":"),
            )
            assert result.class_reps_digest() == hashlib.sha256(payload.encode()).hexdigest()


def reference_product_closure(table, class_rep_ids):
    """Oracle: the set-based loop the orbit engine replaced.  The closure,
    inside the k-fold power of the base group, of one k-component id
    tuple per free generator, multiplied componentwise in Python."""
    mul = table.mul
    gens = list(zip(*class_rep_ids))
    identity = (table.identity_id,) * len(class_rep_ids)
    elements = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple(int(mul[a, b]) for a, b in zip(x, g))
                if y not in elements:
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
    return elements


def orbit_class_reps(rep, count=None):
    """The table and the first `count` (default all) class rep ids of
    the orbit of a rep."""
    orb = orbit_closure(rep)
    return orb.table, aut_classes(orb).class_rep_ids[:count]


def given_reps(handle, *rep_ids):
    return group_table(handle), rep_ids


class TestProductClosure:
    # label -> (table and class rep ids, order of the product image).  Two
    # inequivalent surjections onto PSL(2,5) generate all of 60**2; the
    # given reps do not generate their product group.
    CASES = {
        "psl2-5-two-reps": (lambda: orbit_class_reps(build_genus_zero(5, 3).rep, 2), 3600),
        "toy-z2": (lambda: orbit_class_reps(toy_rep()), 4),
        "char-cyclic-g0-n3": (lambda: orbit_class_reps(build_characteristic_cyclic(0, 3).rep), 9),
        "char-cyclic-g1-n2": (lambda: orbit_class_reps(build_characteristic_cyclic(1, 2).rep), 8),
        "char-sym3-g1": (lambda: orbit_class_reps(build_characteristic_sym3(1).rep), 108),
        "sym3-cubed": (
            lambda: given_reps(FiniteGroupHandle.symmetric(3), (1, 2), (2, 1), (3, 4)), 18
        ),
        "z6-squared": (lambda: given_reps(FiniteGroupHandle.cyclic(6), (1, 2), (5, 3)), 36),
        "sym4-cubed": (
            lambda: given_reps(FiniteGroupHandle.symmetric(4), (3, 5), (7, 2), (11, 20)), 288
        ),
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_matches_reference(self, label):
        build, order = self.CASES[label]
        table, rep_ids = build()
        expected = reference_product_closure(table, rep_ids)
        assert _product_closure_order(table, rep_ids) == len(expected) == order


def lifted_commutator_traces(table):
    """tr(X Y X^-1 Y^-1) over SL2 lifts, for every pair (X, Y) of PSL2
    ids, as an (n, n) array.  By the Fricke identity it is
    x^2 + y^2 + z^2 - xyz - 2 with x = tr X, y = tr Y and z = tr XY, and
    a sign change of either lift leaves it unchanged."""
    p = table.handle.p
    a, b, c, d = np.array([[g.a, g.b, g.c, g.d] for g in elements(table.handle)], dtype=np.int64).T
    x = (a + d) % p
    z = (np.outer(a, a) + np.outer(b, c) + np.outer(c, b) + np.outer(d, d)) % p
    return (x[:, None] ** 2 + x[None, :] ** 2 + z * z - x[:, None] * x[None, :] * z - 2) % p


class TestCommutatorTraceOracle:
    """Nielsen moves send [a, b] to a conjugate of [a, b]^{+-1}, so every
    rank-2 orbit lies in L(tau), the pairs whose lifted commutator has the
    start pair's trace tau; at p = 13 the orbit is all of L(tau)."""

    def test_fricke_identity_against_matrix_products(self):
        table = group_table(FiniteGroupHandle.psl2(13))
        traces = lifted_commutator_traces(table)

        def sl2_inverse(m):
            return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=np.int64)

        rng = np.random.default_rng(5)
        for i, j in rng.integers(0, table.order, size=(60, 2)):
            x, y = lift(table.handle, i), lift(table.handle, j)
            commutator = x @ y @ sl2_inverse(x) @ sl2_inverse(y)
            assert traces[i, j] == np.trace(commutator) % 13

    # label -> (build, orbit size, |L(tau)|)
    CASES = {
        "genus-zero-p5": (lambda: build_genus_zero(5, 3), 600, 1230),
        "genus-zero-p13": (lambda: build_genus_zero(13, 3), 107016, 107016),
        "genus-zero-p17": (lambda: build_genus_zero(17, 3), 396576, 396576),
        "once-punctured-p13": (lambda: build_once_punctured(13, 1), 107016, 107016),
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_orbit_inside_trace_level_set(self, label):
        build, orbit_size, l_size = self.CASES[label]
        build = build()
        orb = orbit_closure(build.rep)
        traces = lifted_commutator_traces(orb.table)
        level_set = (traces == traces[orb.start_ids]).ravel()
        # a rank-2 state encodes (i, j) as i * n + j, the row-major index
        assert level_set[orbit_keys(orb)].all()
        assert (orb.size, int(level_set.sum())) == (orbit_size, l_size)


def pinned_orbit_configs():
    """name -> config of every orbit that the digest tables pin
    (tests/test_reference_digests.py); a single-factor run has none."""
    configs = {name: CONFIGS[name] for name in GOLDEN}
    for table in (MANY_CLASS_GOLDEN, PSL2_RANK2_GOLDEN, STAGE_PATH_GOLDEN):
        configs.update((name, entry[0]) for name, entry in table.items())
    return {name: config for name, config in configs.items() if not config.single_factor}


PINNED_ORBIT_CONFIGS = pinned_orbit_configs()


def partition(rep, budget=orbits.DEFAULT_ORBIT_BUDGET):
    """The orbit of the tuple and its Aut classes."""
    orb = orbit_closure(rep, budget)
    return orb, aut_classes(orb)


@cache
def pinned_orbit(name):
    """The orbit of a pinned configuration and its Aut classes, built once."""
    config = PINNED_ORBIT_CONFIGS[name]
    return partition(certificates._build_case(config).rep, config.orbit_budget)


def assert_reps_generate(res):
    """Oracle for Hall's first condition: every class rep, closed on its
    own (``closure_ids``), generates G.  ``verify_hall_surjectivity``
    reads the start's surjectivity instead, which every state shares."""
    assert closure_ids(res.orbit.table, res.class_rep_ids).all()


class TestRepsGenerate:
    """Nielsen moves keep the subgroup a tuple generates, so every state
    of an orbit, and every class rep, generates G when the start does;
    the oracle closes every rep of every pinned orbit."""

    @pytest.mark.parametrize("name", sorted(PINNED_ORBIT_CONFIGS))
    def test_pinned_reps_generate(self, name):
        assert_reps_generate(pinned_orbit(name)[1])

    def test_generic_p7_reps_generate(self):
        res = aut_classes(orbit_closure(build_generic(7, 1, 2).rep))
        assert res.k == 13368
        assert_reps_generate(res)

    def test_planted_non_generating_state_fails(self, monkeypatch):
        # the BFS sets the bit of the identity tuple too, whose class is
        # itself: the partition holds, and only the oracle sees it
        engine = orbits._orbit_vectorized

        def planted(table, rank, *args):
            orb = engine(table, rank, *args)
            key = table.identity_id * sum(table.order**j for j in range(rank))
            members = orb.members.copy()
            members[key >> 3] |= np.uint8(1 << (key & 7))
            return dataclasses.replace(orb, members=members, size=orb.size + 1)

        monkeypatch.setattr(orbits, "_orbit_vectorized", planted)
        res = aut_classes(orbit_closure(build_generic(5, 1, 2).rep))
        assert res.k == 1669 and sorted(res.class_sizes)[0] == 1
        assert verify_hall_surjectivity(res, True).ok
        with pytest.raises(AssertionError):
            assert_reps_generate(res)


def fricke_sign_classes(handle, a, b, canon=sign_class):
    """The orbit of the pair's sign class of trace triples (tr A, tr B,
    tr AB) under the Fricke maps of the four rank-2 Nielsen moves: swap
    (y, x, z), invert a (x, y, xy - z), a -> ab (z, y, yz - x) and
    a -> ab^-1 (xy - z, y, x) (Goldman, Trace coordinates on Fricke
    spaces, 2009).  Each map commutes with the lifts' signs, so it acts
    on sign classes, which `canon` names."""
    p = handle.p
    a_lift, b_lift = lift(handle, a), lift(handle, b)
    x, y, z = (int(np.trace(m)) for m in (a_lift, b_lift, a_lift @ b_lift))
    start = canon(x % p, y % p, z % p, p)
    seen, frontier = {start}, [start]
    while frontier:
        fresh = []
        for x, y, z in frontier:
            for moved in ((y, x, z), (x, y, x * y - z), (z, y, y * z - x), (x * y - z, y, x)):
                point = canon(*(v % p for v in moved), p)
                if point not in seen:
                    seen.add(point)
                    fresh.append(point)
        frontier = fresh
    return seen


def assert_fricke_partition(orb, res, canon=sign_class):
    """Oracle for a rank-2 partition on PSL(2,p): Aut G = PGL(2,p) keeps
    a pair's sign class of trace triples, and generating pairs with one
    sign class are PGL(2,p)-conjugate, so k is the size of the start's
    Fricke orbit; Aut G acts freely on generating pairs, so every class
    has the same size, |G| or 2|G|, and the orbit is k times it."""
    n = orb.table.order
    assert res.k == len(fricke_sign_classes(orb.table.handle, *orb.start_ids, canon))
    (size,) = set(res.class_sizes)
    assert size in (n, 2 * n)
    assert orb.size == res.k * size


def wrong_sign_class(x, y, z, p):
    """A planted fault: the sign of tr AB taken apart from the lifts'."""
    return min(((sx * x) % p, (sy * y) % p, z % p) for sx in (1, -1) for sy in (1, -1))


class TestFrickeOracle:
    """Every rank-2 orbit of the digest tables, and both p = 17 families,
    against its trace-triple orbit."""

    CASES = {
        **{
            name: partial(pinned_orbit, name)
            for name, config in PINNED_ORBIT_CONFIGS.items()
            if config.case in ("genus-zero", "once-punctured")
        },
        "genus-zero-p17": lambda: partition(build_genus_zero(17, 3).rep),
        "once-punctured-p17": lambda: partition(build_once_punctured(17, 1).rep),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_partition_matches_the_trace_orbit(self, name):
        assert_fricke_partition(*self.CASES[name]())

    @pytest.mark.parametrize("kind", ["swap", "invert"])
    def test_dropped_nielsen_move_fails(self, kind, monkeypatch):
        # multiply and multiply_inv are each other's inverses, so without
        # one of them the orbit stays the same; without the swap or the
        # inversion it shrinks
        generators = orbits.nielsen_generators
        monkeypatch.setattr(
            orbits,
            "nielsen_generators",
            lambda r: tuple(move for move in generators(r) if move.kind != kind),
        )
        orb, res = partition(build_genus_zero(13, 3).rep)
        with pytest.raises(AssertionError):
            assert_fricke_partition(orb, res)

    def test_wrong_sign_class_fails(self):
        orb, res = pinned_orbit("genus-zero-p13-n3")
        with pytest.raises(AssertionError):
            assert_fricke_partition(orb, res, canon=wrong_sign_class)


def refuse_branch(*args):
    raise AssertionError("the closure check took the other branch")


class TestClosureBranches:
    """The closure check tests the class reps when every class has
    |Aut G| states, and every state otherwise."""

    @pytest.mark.parametrize("name", sorted(PINNED_ORBIT_CONFIGS))
    def test_branches_agree_on_pinned_orbits(self, name):
        orb, res = pinned_orbit(name)
        full = set(res.class_sizes) == {len(reference_aut_rows(orb.table))}
        # genus-zero p5 is the one pinned orbit with classes of half |Aut G|
        assert full == (name != "genus-zero-p5-n3")
        assert orbits._reps_closed(orb, res.class_rep_ids)
        assert orbits._states_closed(orb)
        assert verify_characteristic_closure(res)
        if full and res.k > 1:
            # both branches see a whole class taken out
            mutated = drop_class(orb, res.class_rep_ids[-1])
            cut = aut_classes(mutated)
            assert set(cut.class_sizes) == set(res.class_sizes) and cut.k == res.k - 1
            assert not orbits._reps_closed(mutated, cut.class_rep_ids)
            assert not orbits._states_closed(mutated)

    @pytest.mark.parametrize("name", ["char-sym3-g1", "genus-zero-p13-n3"])
    def test_missing_class_fails_on_the_reps(self, name, monkeypatch):
        # every remaining class is full, so the reps decide: a move from
        # some state lands in the removed class, and so does the same move
        # from that state's rep
        orb, res = pinned_orbit(name)
        mutated = drop_class(orb, res.class_rep_ids[-1])
        cut = aut_classes(mutated)
        monkeypatch.setattr(orbits, "_states_closed", refuse_branch)
        assert not verify_characteristic_closure(cut)
        assert verify_characteristic_closure(res)

    def test_genus_zero_p5_takes_the_full_check(self, monkeypatch):
        orb, res = pinned_orbit("genus-zero-p5-n3")
        monkeypatch.setattr(orbits, "_reps_closed", refuse_branch)
        assert verify_characteristic_closure(res)
        # a dropped state fails the partition's sum check first, so the
        # full check takes the partition of the whole orbit
        mutated = drop_state(orb, int(orbit_keys(orb)[-1]))
        with pytest.raises(AssertionError, match="the classes must partition the orbit"):
            aut_classes(mutated)
        assert not verify_characteristic_closure(dataclasses.replace(res, orbit=mutated))


def jordan_totient(r, n):
    """J_r(n): the r-tuples over Z/n that generate it."""
    out = n**r
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            out = out // p**r * (p**r - 1)
    return out


class TestClosedFormOrbits:
    """Closed forms for the characteristic orbits, which are every
    generating tuple: Z/n has J_r(n) of them and Aut Z/n acts freely with
    phi(n) elements; Sym(3) has 6**r - 3**r - 3 * 2**r + 3 (a tuple
    generates unless it lies in A_3 or in one of the three subgroups of
    order 2) and Aut Sym(3) acts freely with 6.  So every class is full,
    and the closure check runs on the reps.

    The degree of the characteristic cover is the order of the product
    image of F_r over the orbit: n**r for Z/n, where the kernels meet in
    the kernel onto (Z/n)^r, and 2**r * 3**((2**r - 1) * (r - 1)) for
    Sym(3): the sign image (Z/2)^r times the image of the sign kernel in
    a power of A_3."""

    CHARACTERISTIC = {
        "char-cyclic-g0-n3": (8, 4),
        "char-cyclic-g1-n2": (7, 7),
        "char-cyclic-n6": (7502, 3751),
        "char-sym3-g1": (18, 3),
        "char-sym3-g2": (1170, 195),
        "char-sym3-g3": (45738, 7623),
    }
    # the runs where |G|^k is within the product BFS's cap
    DEGREES = {"char-cyclic-g0-n3": 9, "char-cyclic-g1-n2": 8, "char-sym3-g1": 108}

    def test_every_pinned_characteristic_orbit_is_listed(self):
        assert {
            name for name, config in PINNED_ORBIT_CONFIGS.items()
            if config.case in ("char-cyclic", "char-sym3")
        } == set(self.CHARACTERISTIC)

    @pytest.mark.parametrize("name", sorted(CHARACTERISTIC))
    def test_orbit_and_class_count(self, name):
        orb, res = pinned_orbit(name)
        n, r = orb.table.order, orb.rank
        if orb.table.handle.kind == "cyclic":
            size, aut = jordan_totient(r, n), jordan_totient(1, n)
        else:
            size, aut = 6**r - 3**r - 3 * 2**r + 3, 6
        states = int(np.unpackbits(orb.members).sum())
        assert (states, res.k) == (size, size // aut) == self.CHARACTERISTIC[name]
        assert orb.size == states

    @pytest.mark.parametrize("name", sorted(CHARACTERISTIC))
    def test_degree(self, name):
        orb, res = pinned_orbit(name)
        n, r = orb.table.order, orb.rank
        degree = characteristic_core(orb.table, res.class_rep_ids, ())
        if name not in self.DEGREES:
            assert degree is None and n**res.k > orbits.PRODUCT_CLOSURE_CAP
            return
        if orb.table.handle.kind == "cyclic":
            closed_form = n**r
        else:
            closed_form = 2**r * 3 ** ((2**r - 1) * (r - 1))
        assert degree == closed_form == self.DEGREES[name]

    def test_degree_sees_a_dropped_class_rep(self):
        """A planted fault: without one class rep the Sym(3) product
        image shrinks.  (On Z/n the other reps still span (Z/n)^r, so
        there the degree stays n**r.)"""
        orb, res = pinned_orbit("char-sym3-g1")
        assert characteristic_core(orb.table, res.class_rep_ids[:-1], ()) == 36
