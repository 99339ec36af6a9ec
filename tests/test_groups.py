"""Tests for the finite-group arithmetic layer."""

import hashlib
import json
import math
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverforge import groups
from coverforge.errors import BadModulus, BadParameters, BudgetExceeded, NotUnimodular
from coverforge.groups import (
    TABLE_LIMIT,
    FiniteGroupHandle,
    are_conjugate_subgroups,
    automorphism_images,
    closure_ids,
    decode,
    encode,
    enumerate_group,
    group_table,
    nonsquare,
    normalizer,
    subgroup_closure,
)
import element_oracle as oracle
from element_oracle import Permutation, Residue, canonicalize, element_order, ids_of


def members(sub):
    """The members of a subgroup as oracle elements."""
    return {oracle.element_of(sub.ambient, i) for i in sub.ids}


def table_order(p, entries):
    """The order the PSL2(F_p) table gives the matrix with these entries."""
    table = group_table(FiniteGroupHandle.psl2(p))
    return int(table.orders[decode(table, entries)])


def brute_psl2_order(p):
    """Independent oracle: count sign-classes of SL2 matrices directly."""
    classes = set()
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            classes.add(frozenset([(a, b, c, d), ((-a) % p, (-b) % p, (-c) % p, (-d) % p)]))
    return len(classes)


class TestCanonicalize:
    """`decode` reduces PSL2 entries and finds the canonical sign
    representative's id; `encode` gives back its entries."""

    def test_minus_identity_is_identity(self):
        table = group_table(FiniteGroupHandle.psl2(5))
        assert decode(table, (-1, 0, 0, -1)) == table.identity_id == decode(table, (1, 0, 0, 1))
        assert encode(table, table.identity_id) == [1, 0, 0, 1]

    def test_already_canonical(self):
        table = group_table(FiniteGroupHandle.psl2(5))
        assert encode(table, decode(table, (1, 1, 0, 1))) == [1, 1, 0, 1]

    def test_sign_rule_flips(self):
        # det(4,0,0,4) = 16 = 1 mod 5, first nonzero entry 4 > 2, so negate
        table = group_table(FiniteGroupHandle.psl2(5))
        assert encode(table, decode(table, (4, 0, 0, 4))) == [1, 0, 0, 1]

    def test_rejects_bad_determinant(self):
        table = group_table(FiniteGroupHandle.psl2(5))
        with pytest.raises(NotUnimodular):
            decode(table, (1, 0, 0, 2))
        with pytest.raises(NotUnimodular):
            decode(table, (0, 1, 1, 0))  # det = -1

    def test_rejects_bad_modulus(self):
        with pytest.raises(BadModulus):
            FiniteGroupHandle.psl2(4)
        with pytest.raises(BadModulus):
            FiniteGroupHandle.psl2(2)

    @given(
        p=st.sampled_from([5, 13, 17]),
        b=st.integers(0, 16),
        c=st.integers(0, 16),
        d=st.integers(1, 16),
    )
    def test_idempotent_and_sign_invariant(self, p, b, c, d):
        # with d != 0 the determinant condition fixes a = (1 + bc)/d
        b, c, d = b % p, c % p, d % p
        if d == 0:
            d = 1
        a = (1 + b * c) * pow(d, p - 2, p) % p
        handle = FiniteGroupHandle.psl2(p)
        table = group_table(handle)
        m = decode(table, (a, b, c, d))
        assert decode(table, encode(table, m)) == m
        assert decode(table, (-a, -b, -c, -d)) == m
        # entries of any size reduce exactly, with no fixed-width overflow
        assert decode(table, (a + p * 10**30, b - p * 10**30, c, d)) == m
        expected = canonicalize(a, b, c, d, p)
        assert m == oracle.id_of(handle, expected)
        assert encode(table, m) == oracle.encode_element(expected)


class TestElementOrder:
    def test_unipotent_has_order_p(self):
        assert element_order(canonicalize(1, 1, 0, 1, 5)) == 5 == table_order(5, (1, 1, 0, 1))
        assert element_order(canonicalize(1, 0, 1, 1, 13)) == 13 == table_order(13, (1, 0, 1, 1))

    def test_identity(self):
        assert element_order(oracle.identity(FiniteGroupHandle.psl2(5))) == 1
        assert table_order(5, (1, 0, 0, 1)) == 1

    def test_antidiagonal_involution(self):
        assert element_order(canonicalize(0, -1, 1, 0, 5)) == 2 == table_order(5, (0, -1, 1, 0))

    @pytest.mark.parametrize(
        "handle",
        [
            FiniteGroupHandle.psl2(5),
            FiniteGroupHandle.symmetric(3),
            FiniteGroupHandle.cyclic(12),
        ],
    )
    def test_order_divides_group_order(self, handle):
        for g in oracle.elements(handle):
            assert handle.order % element_order(g) == 0
        assert (handle.order % group_table(handle).orders == 0).all()


class TestEnumeration:
    @pytest.mark.parametrize("p,expected", [(5, 60), (13, 1092), (17, 2448)])
    def test_psl2_sizes_match_formula(self, p, expected):
        handle = FiniteGroupHandle.psl2(p)
        assert handle.order == expected == p * (p * p - 1) // 2
        assert len(enumerate_group(handle)) == expected

    @pytest.mark.parametrize("p", [5, 13])
    def test_psl2_sizes_match_brute_force(self, p):
        assert len(enumerate_group(FiniteGroupHandle.psl2(p))) == brute_psl2_order(p)

    def test_sym3(self):
        assert len(enumerate_group(FiniteGroupHandle.symmetric(3))) == 6

    def test_sorted_and_unique(self):
        # the entries are sorted and distinct, and they are the oracle's
        # itertools enumeration in its sort_key order, so the oracle's
        # positions are the table ids
        for handle in (
            FiniteGroupHandle.psl2(5),
            FiniteGroupHandle.psl2(13),
            FiniteGroupHandle.symmetric(3),
            FiniteGroupHandle.symmetric(4),
            FiniteGroupHandle.cyclic(6),
        ):
            entries = enumerate_group(handle).tolist()
            keys = [tuple(e) if isinstance(e, list) else (e,) for e in entries]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys) == handle.order
            assert entries == [oracle.encode_element(g) for g in oracle.elements(handle)]
            assert group_table(handle).entries.tolist() == entries


class TestSubgroups:
    def test_two_unipotents_generate(self):
        h = FiniteGroupHandle.psl2(5)
        u = canonicalize(1, 1, 0, 1, 5)
        l = canonicalize(1, 0, 1, 1, 5)
        assert subgroup_closure(ids_of(h, u, l), h).order == 60

    def test_identity_closure(self):
        h = FiniteGroupHandle.psl2(5)
        assert subgroup_closure(ids_of(h, oracle.identity(h)), h).order == 1

    def test_diagonal_order_two(self):
        h = FiniteGroupHandle.psl2(5)
        assert subgroup_closure(ids_of(h, canonicalize(2, 0, 0, 3, 5)), h).order == 2

    def test_rejects_ids_outside_the_group(self):
        h = FiniteGroupHandle.psl2(5)
        for gens in ((60,), (0, -1)):
            with pytest.raises(BadParameters):
                subgroup_closure(gens, h)

    def test_closure_is_a_subgroup(self):
        h = FiniteGroupHandle.psl2(5)
        sub = members(subgroup_closure(ids_of(h, canonicalize(1, 1, 0, 1, 5)), h))
        for x in sub:
            assert x.inverse() in sub
            for y in sub:
                assert x * y in sub

    def test_equality_is_same_members(self):
        h = FiniteGroupHandle.psl2(5)
        u = canonicalize(1, 1, 0, 1, 5)
        one = subgroup_closure(ids_of(h, u), h)
        other = subgroup_closure(ids_of(h, u * u), h)
        assert one == other and one.generators != other.generators
        assert one != subgroup_closure((), h)
        assert not one.members.flags.writeable
        with pytest.raises(TypeError):
            hash(one)


def conjugates_onto(g, h1, h2):
    """Oracle: g h1 g^-1 = h2 by element products over the full element
    set (conjugation is injective, so containment of equal-order sets
    is equality)."""
    gi = g.inverse()
    target = members(h2)
    return h1.order == h2.order and all((g * h) * gi in target for h in members(h1))


def brute_normalizer(sub):
    """Oracle: the definition, conjugating the full element set."""
    return [g for g in oracle.elements(sub.ambient) if conjugates_onto(g, sub, sub)]


class TestNormalizer:
    def test_diagonal_normalizer_p5(self):
        h = FiniteGroupHandle.psl2(5)
        a0 = subgroup_closure(ids_of(h, canonicalize(2, 0, 0, 3, 5)), h)
        n = normalizer(a0)
        assert n.order == 4
        # the explicit description: diagonals and antidiagonals
        expected = {
            canonicalize(1, 0, 0, 1, 5),
            canonicalize(2, 0, 0, 3, 5),
            canonicalize(0, -1, 1, 0, 5),
            canonicalize(0, -2, 3, 0, 5),
        }
        assert members(n) == expected

    def test_klein_four_normalizer_has_order_twelve_p5(self):
        # N(A0) in PSL2(F5) is a Klein four-group (a Sylow 2-subgroup of
        # the simple group of order 60), so its normalizer is the
        # order-12 subgroup permuting its three involutions.  The
        # explicit element (4,2,1,2) of order 3 normalizes it.
        h = FiniteGroupHandle.psl2(5)
        a0 = subgroup_closure(ids_of(h, canonicalize(2, 0, 0, 3, 5)), h)
        n_a0 = normalizer(a0)
        n2 = normalizer(n_a0)
        assert n2.order == 12
        witness = canonicalize(4, 2, 1, 2, 5)
        assert witness in members(n2)
        assert n_a0 != n2

    def test_whole_group_is_normal(self):
        h = FiniteGroupHandle.psl2(5)
        g = subgroup_closure(
            ids_of(h, canonicalize(1, 1, 0, 1, 5), canonicalize(1, 0, 1, 1, 5)), h
        )
        assert normalizer(g) == g

    def test_borel_self_normalizing(self):
        from coverforge.catalog import borel_subgroup

        b = borel_subgroup(5)
        assert b.order == 10
        assert normalizer(b) == b

    # each case is (p, generator entries); at p = 13 the diagonal
    # normalizer (diag(2, 7) and the antidiagonal) and the Borel subgroup
    @pytest.mark.parametrize(
        "gens",
        [
            (5, [(2, 0, 0, 3)]),
            (5, [(1, 1, 0, 1)]),
            (5, [(0, -1, 1, 0)]),
            (13, [(2, 0, 0, 7), (0, -1, 1, 0)]),
            (13, [(1, 1, 0, 1), (2, 0, 0, 7)]),
        ],
    )
    def test_matches_brute_force_oracle(self, gens):
        p, entries = gens
        h = FiniteGroupHandle.psl2(p)
        sub = subgroup_closure(ids_of(h, *(canonicalize(*g, p) for g in entries)), h)
        n = normalizer(sub)
        expected = list(ids_of(h, *brute_normalizer(sub)))
        # members are listed in id order, which is the enumeration order
        assert list(n.generators) == expected
        assert n.ids.tolist() == expected


class TestConjugacy:
    def test_self_conjugate_with_identity_witness(self):
        h = FiniteGroupHandle.psl2(5)
        sub = subgroup_closure(ids_of(h, canonicalize(2, 0, 0, 3, 5)), h)
        ok, witness = are_conjugate_subgroups(sub, sub)
        assert ok and oracle.element_of(h, witness) == oracle.identity(h)

    def test_order_mismatch_short_circuits(self):
        from coverforge.catalog import borel_subgroup, diagonal_torus

        a0, _, _ = diagonal_torus(5)
        assert are_conjugate_subgroups(a0, borel_subgroup(5)) == (False, None)

    def test_conjugate_of_subgroup_found(self):
        h = FiniteGroupHandle.psl2(5)
        a0 = subgroup_closure(ids_of(h, canonicalize(2, 0, 0, 3, 5)), h)
        g = canonicalize(1, 1, 0, 1, 5)
        gi = g.inverse()
        conj = subgroup_closure(ids_of(h, (g * canonicalize(2, 0, 0, 3, 5)) * gi), h)
        ok, witness = are_conjugate_subgroups(a0, conj)
        assert ok
        w = oracle.element_of(h, witness)
        assert {(w * x) * w.inverse() for x in members(a0)} == members(conj)

    @pytest.mark.parametrize("label", ["diagonal-normalizer", "borel"])
    def test_witness_matches_brute_force_oracle_p13(self, label):
        # d0 fixes both subgroups, so move them by a lower unipotent,
        # which normalizes neither, and search in both directions
        from coverforge.catalog import borel_subgroup, diagonal_torus

        h = borel_subgroup(13) if label == "borel" else normalizer(diagonal_torus(13)[0])
        g = canonicalize(1, 0, 1, 1, 13)
        gi = g.inverse()
        elements = oracle.elements(h.ambient)
        moved = subgroup_closure(
            ids_of(h.ambient, *((g * elements[x]) * gi for x in h.generators)), h.ambient
        )
        assert moved != h
        for h1, h2 in ((h, moved), (moved, h)):
            expected = next(x for x in elements if conjugates_onto(x, h1, h2))
            assert are_conjugate_subgroups(h1, h2) == (True, *ids_of(h.ambient, expected))


class TestNonsquare:
    @pytest.mark.parametrize("p,expected", [(5, 2), (13, 2), (17, 3)])
    def test_values(self, p, expected):
        eps = nonsquare(p)
        assert eps == expected
        assert pow(eps, (p - 1) // 2, p) == p - 1

    def test_p2_rejected(self):
        with pytest.raises(BadModulus):
            nonsquare(2)


class TestD0Map:
    """Conjugation by d0 = diag(1, epsilon) as a map on table ids."""

    @pytest.mark.parametrize("p", [5, 13])
    def test_is_a_table_automorphism(self, p):
        table = group_table(FiniteGroupHandle.psl2(p))
        d0 = table.d0
        assert sorted(d0.tolist()) == list(range(table.order))
        assert (d0[table.mul] == table.mul[d0[:, None], d0[None, :]]).all()

    @pytest.mark.parametrize("p", [5, 13])
    def test_equals_integer_conjugation(self, p):
        # d0 = diag(1, eps) has determinant eps, a non-square, and the map
        # is conjugation by it: d0 X d0^-1 by integer matrix products
        handle = FiniteGroupHandle.psl2(p)
        table = group_table(handle)
        eps = nonsquare(p)
        assert pow(eps, (p - 1) // 2, p) == p - 1
        d0 = np.array([[1, 0], [0, eps]])
        d0_inv = np.array([[1, 0], [0, pow(eps, p - 2, p)]])
        images = []
        for x in oracle.elements(handle):
            conj = d0 @ np.array(oracle.encode_element(x)).reshape(2, 2) @ d0_inv
            images.append(oracle.id_of(handle, canonicalize(*conj.ravel().tolist(), p)))
        assert table.d0.tolist() == images

    @pytest.mark.parametrize("p", [5, 13])
    def test_is_not_inner(self, p):
        table = group_table(FiniteGroupHandle.psl2(p))
        # row g of inner is x -> g x g^-1
        inner = table.mul[np.arange(table.order)[:, None], table.mul[:, table.inv].T]
        assert not (inner == table.d0).all(axis=1).any()

    def test_built_once_read_only(self, monkeypatch):
        table = group_table(FiniteGroupHandle.psl2(13))
        d0 = table.d0
        assert not d0.flags.writeable

        def no_search(p):
            raise AssertionError("the d0 map was built again")

        # the automorphism images read the map the table holds
        monkeypatch.setattr(groups, "nonsquare", no_search)
        automorphism_images(table, [[1, 2]])
        assert table.d0 is d0


class TestTables:
    def test_psl2_table_matches_objects_exhaustively(self):
        handle = FiniteGroupHandle.psl2(5)
        table = group_table(handle)
        els = oracle.elements(handle)
        for i in range(60):
            x = els[i]
            assert els[table.inv[i]] == x.inverse()
            for j in range(60):
                assert els[table.mul[i, j]] == x * els[j]

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
    def test_psl2_table_is_the_product_of_entries(self, p):
        # every cell against the 2x2 product of the entries mod p, found
        # by its base-p code, of either sign, among the sorted codes of
        # the entries; the inverse times the element is +-I
        table = group_table(FiniteGroupHandle.psl2(p))
        n = table.order
        place = p ** np.arange(3, -1, -1)
        codes = table.entries @ place
        a2, b2, c2, d2 = table.entries.T

        def ids_of_entries(entries):
            found = np.full(entries.shape[:-1], -1)
            for sign in (1, -1):
                code = (sign * entries % p) @ place
                at = np.minimum(np.searchsorted(codes, code), n - 1)
                found = np.where(codes[at] == code, at, found)
            assert (found >= 0).all()
            return found

        assert table.mul.dtype == np.uint16 and table.mul.shape == (n, n)
        for lo in range(0, n, 64):
            a1, b1, c1, d1 = (x[:, None] for x in table.entries[lo : lo + 64].T)
            products = np.stack(
                [a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2],
                axis=-1,
            )
            assert np.array_equal(table.mul[lo : lo + 64], ids_of_entries(products))
        a1, b1, c1, d1 = table.entries[table.inv].T
        identity = np.stack(
            [a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2], axis=-1
        )
        assert (ids_of_entries(identity) == table.identity_id).all()
        assert table.entries[table.identity_id].tolist() == [1, 0, 0, 1]

    def test_psl2_table_build_within_one_block(self):
        # besides the table it keeps, the build holds one block of rows,
        # the generators' intp rows and the BFS level arrays: measured
        # 330 KB at p = 13, 68 KB above one block
        handle = FiniteGroupHandle.psl2(13)
        entries = groups.enumerate_group(handle)
        tracemalloc.start()
        try:
            table = groups._psl2_table(handle, entries)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= table.mul.nbytes
        assert peak - kept <= groups._BLOCK_BYTES + (80 << 10)

    @pytest.mark.parametrize(
        "p,identity_id,digest",
        [
            (5, 10, "f4739afd46d52e12010478e7daf3125979cbaf2e726eff075c6b600d04814fa6"),
            (7, 21, "951a17820dbb6bf8b6f4dd7f81d6e1e2d6f3eabdf9f4e207d092d1970bca3c66"),
            (11, 55, "aead7d3f32888866526d470a466bb324221a978f2c4d21a09b0b3a57b53f77b5"),
            (13, 78, "661c0b4ee892db65d053be9bdffb7e51c622023be922fb21a5fb136e58d1791a"),
            (17, 136, "2b3c2bbb4c7fa8f789bbf847b93e610d0a9a5193a15d8436371ce3aa135ce9f7"),
            (19, 171, "861f063c61171cbca4a7d9ea8eb3994f2e0faf4bacb47fd9877008c81db12ce7"),
            (23, 253, "7ac3ee79aeef36c74d3c2ef673da9dcb5e07c39d351198345add8c759cfaa118"),
        ],
    )
    def test_psl2_table_bytes_pinned(self, p, identity_id, digest):
        # sha256 of mul then inv, byte for byte; the build is called
        # directly, so the large tables are not cached for the session
        handle = FiniteGroupHandle.psl2(p)
        table = groups._psl2_table(handle, groups.enumerate_group(handle))
        assert table.identity_id == identity_id
        assert hashlib.sha256(table.mul.tobytes() + table.inv.tobytes()).hexdigest() == digest

    def test_psl2_table_p13_samples(self):
        handle = FiniteGroupHandle.psl2(13)
        table = group_table(handle)
        els = oracle.elements(handle)
        rng = np.random.default_rng(7)
        for i, j in rng.integers(0, table.order, size=(300, 2)):
            assert els[table.mul[i, j]] == els[i] * els[j]

    def test_cyclic_and_symmetric_tables(self):
        tc = group_table(FiniteGroupHandle.cyclic(6))
        assert oracle.element_of(tc.handle, tc.mul[4, 5]) == Residue(3, 6)
        ts = group_table(FiniteGroupHandle.symmetric(3))
        els = oracle.elements(ts.handle)
        for i in range(6):
            for j in range(6):
                assert els[ts.mul[i, j]] == els[i] * els[j]

    @pytest.mark.parametrize("m", [4, 5])
    def test_symmetric_table_matches_objects_exhaustively(self, m):
        table = group_table(FiniteGroupHandle.symmetric(m))
        els = oracle.elements(table.handle)
        assert table.entries.tolist() == [list(g.images) for g in els]
        assert els[table.identity_id].is_identity()
        for i, x in enumerate(els):
            assert els[table.inv[i]] == x.inverse()
            assert [els[k] for k in table.mul[i]] == [x * y for y in els]

    def test_closure_ids_matches_object_closure(self):
        h = FiniteGroupHandle.psl2(5)
        table = group_table(h)
        u = canonicalize(1, 1, 0, 1, 5)
        ids = np.flatnonzero(closure_ids(table, [ids_of(h, u)])[0])
        # oracle: the cyclic group <u>, from powers of u by element products
        powers = [oracle.identity(h)]
        while (powers[-1] * u) != powers[0]:
            powers.append(powers[-1] * u)
        assert {oracle.element_of(h, i) for i in ids} == set(powers)

    @pytest.mark.parametrize(
        "handle",
        [
            FiniteGroupHandle.psl2(5),
            FiniteGroupHandle.psl2(13),
            FiniteGroupHandle.symmetric(3),
            FiniteGroupHandle.symmetric(4),
            FiniteGroupHandle.cyclic(6),
        ],
    )
    def test_orders_match_element_order(self, handle):
        table = group_table(handle)
        assert table.orders.tolist() == [element_order(g) for g in oracle.elements(handle)]
        assert not table.orders.flags.writeable
        assert table.orders is table.orders

    def test_table_limit(self):
        with pytest.raises(BudgetExceeded):
            group_table(FiniteGroupHandle.cyclic(10001))

    @pytest.mark.parametrize(
        "handle",
        [
            FiniteGroupHandle.psl2(5),
            FiniteGroupHandle.psl2(13),
            FiniteGroupHandle.symmetric(3),
            FiniteGroupHandle.symmetric(5),
            FiniteGroupHandle.cyclic(6),
        ],
        ids=["psl2-5", "psl2-13", "sym-3", "sym-5", "cyclic-6"],
    )
    def test_tables_hold_16_bit_ids(self, handle):
        table = group_table(handle)
        n = table.order
        assert table.mul.dtype == table.inv.dtype == np.uint16
        assert table.mul.shape == (n, n) and table.inv.shape == (n,)
        assert table.mul.nbytes == 2 * n * n

    def test_table_limit_keeps_ids_in_16_bits(self):
        # the ids 0 .. n-1 of every group a handle admits fit a uint16;
        # PSL(2, 53), with n = 74 412, would not
        assert TABLE_LIMIT <= 2**16

    @pytest.mark.parametrize("n", [1, 2, 6, 7])
    def test_cyclic_table_is_addition_mod_n(self, n):
        table = group_table(FiniteGroupHandle.cyclic(n))
        r = np.arange(n)
        assert np.array_equal(table.mul, np.add.outer(r, r) % n)
        assert np.array_equal(table.inv, (n - r) % n)

    def test_handle_refuses_groups_above_the_table_limit(self, monkeypatch):
        # p = 10**16 + 61 is a prime whose trial division would run for
        # seconds: naming PSL(2, p) must stop at the limit before it
        import coverforge.groups as groups

        def spy(n):
            raise AssertionError(f"is_prime({n}) ran for a group above the table limit")

        monkeypatch.setattr(groups, "is_prime", spy)
        p = 10**16 + 61
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc:
            FiniteGroupHandle.psl2(p)
        assert time.perf_counter() - start < 1.0
        assert (exc.value.used, exc.value.budget) == (p * (p * p - 1) // 2, groups.TABLE_LIMIT)
        assert "exceeds table limit 10000" in str(exc.value)
        with pytest.raises(BudgetExceeded, match="table limit"):
            FiniteGroupHandle.cyclic(10001)
        with pytest.raises(BudgetExceeded, match="table limit"):
            FiniteGroupHandle.symmetric(8)
        # at the limit and below, the handle is named as before
        assert FiniteGroupHandle.cyclic(10000).order == 10000
        assert FiniteGroupHandle.symmetric(7).order == 5040


def reference_closure(table, gen_ids):
    """Oracle: the set-based closure loop the batched kernel replaced, one
    Python set and one BFS over positive words per generating set."""
    elements = {table.identity_id}
    frontier = [table.identity_id]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gen_ids:
                y = int(table.mul[x, g])
                if y not in elements:
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
    return elements


def _class_rep_ids(build):
    from coverforge.orbits import aut_classes, orbit_closure

    return aut_classes(orbit_closure(build.rep)).class_rep_ids


class TestBatchedClosure:
    def _check_rows(self, table, rows):
        member = closure_ids(table, rows)
        assert member.shape == (len(rows), table.order) and member.dtype == bool
        for row, mask in zip(rows, member):
            expected = reference_closure(table, row)
            assert set(np.flatnonzero(mask).tolist()) == expected
            assert int(mask.sum()) == len(expected)

    def test_every_class_rep_genus_zero_p13(self):
        from coverforge.catalog import build_genus_zero

        rows = _class_rep_ids(build_genus_zero(13, 3))
        assert len(rows) == 49
        self._check_rows(group_table(FiniteGroupHandle.psl2(13)), rows)

    def test_every_class_rep_generic_p5(self):
        from coverforge.catalog import build_generic

        rows = _class_rep_ids(build_generic(5, 1, 2))
        assert len(rows) == 1668
        self._check_rows(group_table(FiniteGroupHandle.psl2(5)), rows)

    @pytest.mark.parametrize("label", ["generic-p5", "char-sym3-g3"])
    def test_one_call_within_one_block_above_its_output(self, label):
        from coverforge.catalog import build_characteristic_sym3, build_generic

        build = build_generic(5, 1, 2) if label == "generic-p5" else build_characteristic_sym3(3)
        rows = _class_rep_ids(build)
        table = group_table(build.rep.target)
        tracemalloc.start()
        try:
            member = closure_ids(table, rows)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert member.all()
        # blocks of _BLOCK_BYTES // n rows peaked 1.06 MiB above the
        # 100 KB matrix of generic p5's 1668 reps; char-sym3 g3's 7623
        # reps have a level that reaches most cells of the group
        assert peak - kept <= groups._BLOCK_BYTES

    def test_proper_subgroups_p13(self):
        # random pairs and single ids mostly generate proper subgroups
        table = group_table(FiniteGroupHandle.psl2(13))
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, table.order, size=(150, 2)).tolist()
        singles = [[g] for g in rng.integers(0, table.order, size=50).tolist()]
        self._check_rows(table, pairs)
        self._check_rows(table, singles)
        sizes = {len(reference_closure(table, row)) for row in pairs + singles}
        assert len(sizes) > 3

    def test_no_generators_and_small_groups(self):
        for handle in (FiniteGroupHandle.cyclic(6), FiniteGroupHandle.symmetric(4)):
            table = group_table(handle)
            self._check_rows(table, [[g] for g in range(table.order)])
        table = group_table(FiniteGroupHandle.psl2(5))
        assert np.flatnonzero(closure_ids(table, [[]])[0]).tolist() == [table.identity_id]

    def test_rejects_flat_generator_list(self):
        table = group_table(FiniteGroupHandle.psl2(5))
        with pytest.raises(BadParameters):
            closure_ids(table, [1, 2])


class TestValueSemantics:
    def test_permutation_composition_convention(self):
        # x * y applies x first: [(12), (23)] = (123), in the oracle and
        # in the table, with (12), (23), (123) written as one-line images
        s01 = Permutation.from_cycles(3, [(0, 1)])
        s12 = Permutation.from_cycles(3, [(1, 2)])
        commutator = (s01 * s12) * (s01.inverse() * s12.inverse())
        assert commutator == Permutation.from_cycles(3, [(0, 1, 2)])
        table = group_table(FiniteGroupHandle.symmetric(3))
        mul, inv = table.mul, table.inv
        x, y = decode(table, (1, 0, 2)), decode(table, (0, 2, 1))
        assert mul[mul[x, y], mul[inv[x], inv[y]]] == decode(table, (1, 2, 0))

    def test_permutation_inverse(self):
        g = Permutation.from_cycles(4, [(0, 1, 2, 3)])
        assert (g * g.inverse()).is_identity()
        table = group_table(FiniteGroupHandle.symmetric(4))
        gid = decode(table, g.images)
        assert table.mul[gid, table.inv[gid]] == table.identity_id
        assert encode(table, table.inv[gid]) == list(g.inverse().images)

    def test_residue_law(self):
        assert Residue(3, 5) * Residue(4, 5) == Residue(2, 5)
        assert Residue(3, 5).inverse() == Residue(2, 5)
        table = group_table(FiniteGroupHandle.cyclic(5))
        assert table.mul[3, 4] == 2 and table.inv[3] == 2

    def test_encode_decode_round_trip(self):
        # every id, one at a time and as one array, against the oracle
        for handle in (
            FiniteGroupHandle.psl2(5),
            FiniteGroupHandle.cyclic(7),
            FiniteGroupHandle.symmetric(3),
        ):
            table = group_table(handle)
            ids = np.arange(table.order)
            expected = [oracle.encode_element(g) for g in oracle.elements(handle)]
            assert encode(table, ids) == expected
            for i in ids.tolist():
                assert encode(table, i) == expected[i]
                assert decode(table, encode(table, i)) == i
            # Python ints only, so the JSON encoder takes them, numpy ids included
            json.dumps([encode(table, ids), encode(table, ids[-1])])

    def test_decode_rejects_and_reduces(self):
        sym = group_table(FiniteGroupHandle.symmetric(3))
        for data in ((0, 0, 1), (0, 1), (1, 2, 3), (0, 1, 2, 3)):
            with pytest.raises(BadParameters):
                decode(sym, data)
        cyclic = group_table(FiniteGroupHandle.cyclic(7))
        assert decode(cyclic, 10) == decode(cyclic, -4) == 3
        # entries are ints only, not whatever int() would read
        psl = group_table(FiniteGroupHandle.psl2(5))
        for table, data in (
            (psl, (True, False, False, True)),
            (psl, ("1", "0", "0", "1")),
            (psl, (1.0, 0, 0, 1)),
            (sym, ("0", "1", "2")),
            (sym, (False, True, 2)),
            (cyclic, 3.0),
            (cyclic, True),
        ):
            with pytest.raises(TypeError):
                decode(table, data)

    def test_trivial_subgroup(self):
        # the closure of no generators is the trivial subgroup
        h = FiniteGroupHandle.symmetric(3)
        sub = subgroup_closure((), h)
        assert sub.order == 1 and members(sub) == {oracle.identity(h)}
        assert sub.ids.tolist() == [group_table(h).identity_id]


@settings(max_examples=60)
@given(
    p=st.sampled_from([5, 13]),
    entries=st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 12)),
)
def test_inverse_really_inverts(p, entries):
    b, c, d = (x % p for x in entries)
    if d == 0:
        d = 1
    a = (1 + b * c) * pow(d, p - 2, p) % p
    m = canonicalize(a, b, c, d, p)
    assert (m * m.inverse()).is_identity()
    assert (m.inverse() * m).is_identity()
    table = group_table(FiniteGroupHandle.psl2(p))
    gid = decode(table, (a, b, c, d))
    assert table.mul[gid, table.inv[gid]] == table.mul[table.inv[gid], gid] == table.identity_id
