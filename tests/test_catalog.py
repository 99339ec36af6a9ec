"""Tests for the representation families and the subgroup hypotheses."""

import math

import numpy as np
import pytest

from coverforge.catalog import (
    borel_subgroup,
    build_characteristic_cyclic,
    build_characteristic_sym3,
    build_generic,
    build_genus_zero,
    build_once_punctured,
    diagonal_torus,
    dihedral_subgroup,
    extension_root_order,
    search_commutator_pair,
    select_t,
    smallest_element_of_order,
    smallest_primitive_root,
    validate_commutator_pair,
    verify_hypotheses,
)
from coverforge.covers import verify_deck_trivial
from coverforge.errors import BadParameters, BudgetExceeded, SearchExhausted
from coverforge.groups import (
    FiniteGroupHandle,
    encode,
    group_table,
    normalizer,
    subgroup_closure,
)
from coverforge.orbits import aut_classes, orbit_closure
from coverforge.surfaces import is_surjective
import element_oracle as oracle
from element_oracle import Permutation, element_order, rep_peripheral_ids


def derived_cn(rep):
    """The derived last peripheral image as an oracle element."""
    return oracle.element_of(rep.target, rep_peripheral_ids(rep)[-1])


def relation_holds(build):
    """The pipeline's `relation_holds`: the claimed c_n is the derived one."""
    return build.claimed_cn == rep_peripheral_ids(build.rep)[-1]


def surjective(rep):
    return is_surjective(group_table(rep.target), rep.images)


def peripheral_orders(rep):
    return tuple(group_table(rep.target).orders[rep_peripheral_ids(rep)].tolist())


def element(handle, gid):
    return oracle.element_of(handle, gid)


class TestSelectT:
    def test_p5(self):
        assert select_t(5) == 4

    def test_p13_frozen(self):
        assert select_t(13) == 1

    def test_t1_rejected_at_p5(self):
        # x^2 - 3x + 1 has discriminant 9 - 4 = 5 = 0 mod 5: a double root
        assert extension_root_order(5, 1) is None

    def test_root_order_oracle_p5(self):
        # t = 4: x^2 - x + 1 divides x^6 - 1, primitive 6th roots of unity
        assert extension_root_order(5, 4) == 6

    def test_validate_minimality(self):
        # select_t returns the smallest t whose roots have order p + 1
        assert select_t(5) == 4
        assert select_t(13) == 1
        assert extension_root_order(13, 1) == 14
        assert all(extension_root_order(5, t) != 6 for t in range(1, 4))

    def test_rejects_p3mod4(self):
        with pytest.raises(BadParameters):
            select_t(7)


def element_closure(gens):
    """Oracle: the subgroup generated by element objects, closed by their
    own products."""
    seen = {gens[0] * gens[0].inverse()}
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
    return seen


def brute_commutator_pair(p):
    """Oracle: the ids of the first (A, B) in id order, by element
    products, whose commutator has order (p+1)/2 and which generate
    PSL2(F_p)."""
    handle = FiniteGroupHandle.psl2(p)
    elements = oracle.elements(handle)
    for a in elements:
        for b in elements:
            c = (a * b) * (a.inverse() * b.inverse())
            if element_order(c) == (p + 1) // 2 and len(element_closure([a, b])) == handle.order:
                return oracle.ids_of(handle, a, b, c)
    raise AssertionError(f"no pair at p = {p}")


class TestCommutatorSearch:
    def test_p13(self):
        h = FiniteGroupHandle.psl2(13)
        a, b, c = search_commutator_pair(13)
        assert encode(group_table(h), [a, b]) == [[0, 1, 12, 0], [0, 1, 12, 1]]
        assert element_order(element(h, c)) == 7
        assert validate_commutator_pair(13, a, b, c)
        # ids outside the group, a wrong commutator, a non-generating pair
        assert not validate_commutator_pair(13, a, b, 1092)
        assert not validate_commutator_pair(13, -1, b, c)
        assert not validate_commutator_pair(13, a, b, b)
        assert not validate_commutator_pair(13, a, a, group_table(h).identity_id)

    def test_p17(self):
        a, b, c = search_commutator_pair(17)
        h = FiniteGroupHandle.psl2(17)
        assert element_order(element(h, c)) == 9
        assert subgroup_closure((a, b), h).order == 2448

    def test_p5_outcome(self):
        # unguaranteed territory: the scan may or may not find a pair;
        # here it does, with a commutator of order (5+1)/2 = 3
        a, b, c = search_commutator_pair(5)
        assert element_order(element(FiniteGroupHandle.psl2(5), c)) == 3
        assert validate_commutator_pair(5, a, b, c)

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_matches_element_product_scan(self, p):
        assert search_commutator_pair(p) == brute_commutator_pair(p)

    def test_table_limit_checked_before_entry_arrays(self, monkeypatch):
        # PSL(2, 211) has order 4.7M, over the table limit; its entry
        # lookup alone would be a 211**4 int32 array (7.4 GiB), so the
        # spy refuses to enumerate its entries instead of letting the
        # test allocate
        import coverforge.groups as groups_module

        real = groups_module.enumerate_group

        def spy(handle):
            assert handle.order <= groups_module.TABLE_LIMIT, f"entries of {handle} enumerated"
            return real(handle)

        monkeypatch.setattr(groups_module, "enumerate_group", spy)
        with pytest.raises(BudgetExceeded):
            search_commutator_pair(211)
        with pytest.raises(BudgetExceeded):
            build_once_punctured(211, 1)

    def test_table_limit_checked_before_primitive_root_search(self, monkeypatch):
        # p = 10**12 + 61 is a prime; the root search loops up to p**2
        # times, so a certificate carrying this p must stop at the table
        # limit first (the spy refuses to search instead of hanging)
        import coverforge.catalog as catalog_module
        from coverforge.groups import TABLE_LIMIT

        real = catalog_module.smallest_primitive_root

        def spy(p):
            assert p * (p * p - 1) // 2 <= TABLE_LIMIT, f"root search at p = {p}"
            return real(p)

        monkeypatch.setattr(catalog_module, "smallest_primitive_root", spy)
        p = 10**12 + 61
        with pytest.raises(BudgetExceeded):
            diagonal_torus(p)
        with pytest.raises(BudgetExceeded):
            build_generic(p, 1, 2)
        assert diagonal_torus(13)[2] == 2


class TestGenericFamily:
    def test_p5_g1_n2(self):
        b = build_generic(5, 1, 2)
        images = b.rep.images_by_name
        table = group_table(b.rep.target)
        assert encode(table, images["a1"]) == [1, 1, 0, 1]
        assert encode(table, images["b1"]) == [1, 1, 0, 1]
        assert encode(table, images["c1"]) == [1, 0, 1, 1]
        assert oracle.encode_element(derived_cn(b.rep)) == [1, 0, 4, 1]
        assert relation_holds(b)
        assert surjective(b.rep)
        assert peripheral_orders(b.rep) == (5, 5)
        assert b.h0.order == 4

    def test_p13_g2_n3(self):
        b = build_generic(13, 2, 3)
        assert peripheral_orders(b.rep) == (13, 13, 13)
        assert surjective(b.rep)
        assert b.h0.order == 12

    def test_p_below_n_rejected(self):
        with pytest.raises(BadParameters):
            build_generic(3, 1, 5)
        with pytest.raises(BadParameters):
            build_generic(3, 1, 2)  # p >= 5 needed for simplicity


class TestOncePuncturedFamily:
    def test_p13(self):
        b = build_once_punctured(13, 1)
        assert peripheral_orders(b.rep) == (7,)
        assert b.h0.order == 78 == 13 * 12 // 2
        assert math.gcd(7, 78) == 1
        assert surjective(b.rep)
        assert relation_holds(b)

    def test_p17(self):
        b = build_once_punctured(17, 1)
        assert peripheral_orders(b.rep) == (9,)
        assert b.h0.order == 136
        assert math.gcd(9, 136) == 1

    def test_higher_genus_pads_with_identity(self):
        b = build_once_punctured(13, 2)
        assert peripheral_orders(b.rep) == (7,)
        identity = group_table(b.rep.target).identity_id
        assert b.rep.images[2] == b.rep.images[3] == identity
        assert element(b.rep.target, identity).is_identity()

    def test_small_p_rejected(self):
        with pytest.raises(BadParameters):
            build_once_punctured(7, 1)

    @pytest.mark.parametrize("p", [5, 13, 17, 29, 37])
    def test_coprimality_of_consecutive_halves(self, p):
        assert math.gcd((p + 1) // 2, p * (p - 1) // 2) == 1


class TestGenusZeroFamily:
    def test_p5_n3(self):
        b = build_genus_zero(5, 3)
        assert b.constants["s"] == 1
        assert b.constants["t"] == 4
        assert peripheral_orders(b.rep) == (5, 5, 3)
        assert relation_holds(b)
        assert surjective(b.rep)
        assert b.h0.order == 4
        # trace of the last peripheral is 2 + t up to sign
        cn = derived_cn(b.rep)
        assert (cn.a + cn.d) % 5 in {(2 + 4) % 5, (-(2 + 4)) % 5}

    def test_p13_n4(self):
        b = build_genus_zero(13, 4)
        assert b.constants["s"] == 7  # inverse of 2 mod 13
        assert peripheral_orders(b.rep) == (13, 13, 13, 7)

    def test_p7_rejected(self):
        with pytest.raises(BadParameters):
            build_genus_zero(7, 3)

    def test_explicit_t_reducible_branch(self):
        # t=2 at p=13: disc(x^2 - 4x + 1) = 12 = 5^2 is a residue, so the
        # polynomial splits, H0 is the dihedral group of order p+1, and
        # the last peripheral order divides (p-1)/2
        b = build_genus_zero(13, 3, explicit_t=2)
        assert b.mode == "dihedral-remark"
        assert b.h0.order == 14
        orders = peripheral_orders(b.rep)
        assert orders == (13, 13, 6)
        assert ((13 - 1) // 2) % orders[-1] == 0

    def test_explicit_t_irreducible_branch(self):
        # t=4 at p=13 is irreducible with root order 14, so H0 is the
        # dihedral group of order p-1 and the last order divides (p+1)/2
        b = build_genus_zero(13, 3, explicit_t=4)
        assert b.h0.order == 12
        assert peripheral_orders(b.rep) == (13, 13, 7)

    def test_explicit_t_zero_rejected(self):
        with pytest.raises(BadParameters):
            build_genus_zero(13, 3, explicit_t=0)


class TestCharacteristicFamilies:
    def test_cyclic_g0_n3(self):
        b = build_characteristic_cyclic(0, 3)
        assert peripheral_orders(b.rep) == (3, 3, 3)
        assert surjective(b.rep)

    def test_cyclic_g2_n2(self):
        b = build_characteristic_cyclic(2, 2)
        assert peripheral_orders(b.rep) == (2, 2)

    def test_cyclic_needs_two_punctures(self):
        with pytest.raises(BadParameters):
            build_characteristic_cyclic(2, 1)

    def test_sym3(self):
        b = build_characteristic_sym3(1)
        derived = derived_cn(b.rep)
        assert derived == Permutation.from_cycles(3, [(0, 1, 2)])
        assert element_order(derived) == 3 >= 2
        assert surjective(b.rep)

    def test_sym3_higher_genus(self):
        b = build_characteristic_sym3(3)
        assert derived_cn(b.rep) == Permutation.from_cycles(3, [(0, 1, 2)])

    def test_sym3_needs_handles(self):
        with pytest.raises(BadParameters):
            build_characteristic_sym3(0)


class TestHypotheses:
    def test_p5_diagonal_normalizer_fails_self_normalization(self):
        # honest outcome at p = 5: N(A0) is a Klein four-group and its
        # normalizer has order 12, so condition (1) genuinely fails here
        b = build_generic(5, 1, 2)
        hyp = verify_hypotheses(b.h0, peripheral_orders(b.rep), verify_deck_trivial(b.h0))
        assert hyp.self_normalizing is False
        assert hyp.aut_eq_inn is True
        assert hyp.d0_stabilizes_h0 is True
        assert hyp.all_pass is False

    def test_p5_a0_fails_self_normalization(self):
        b = build_generic(5, 1, 2)
        a0, _, _ = diagonal_torus(5)
        hyp = verify_hypotheses(a0, peripheral_orders(b.rep), verify_deck_trivial(a0))
        assert hyp.self_normalizing is False

    def test_p5_borel_self_normalizing_but_not_coprime(self):
        b = build_generic(5, 1, 2)
        borel = borel_subgroup(5)
        hyp = verify_hypotheses(borel, peripheral_orders(b.rep), verify_deck_trivial(borel))
        assert hyp.self_normalizing is True
        assert hyp.aut_eq_inn is True
        assert hyp.d0_stabilizes_h0 is True
        # gcd(5, 10) = 5: the coprimality condition fails for this pair
        assert hyp.coprimality == ((5, 10, 5, False), (5, 10, 5, False))
        assert hyp.all_pass is False

    def test_p13_families_pass_everything(self):
        for build in (build_generic(13, 1, 2), build_once_punctured(13, 1),
                      build_genus_zero(13, 4)):
            orders = peripheral_orders(build.rep)
            hyp = verify_hypotheses(build.h0, orders, verify_deck_trivial(build.h0))
            assert hyp.all_pass, (build.signature, hyp)

    def test_d0_stabilizes_catalog_subgroups(self):
        for p in (5, 13):
            d0 = group_table(FiniteGroupHandle.psl2(p)).d0
            a0, _, _ = diagonal_torus(p)
            for sub in (normalizer(a0), borel_subgroup(p)):
                assert sorted(d0[sub.ids].tolist()) == sub.ids.tolist()


class TestSubgroupBuilders:
    def test_primitive_roots(self):
        assert smallest_primitive_root(5) == 2
        assert smallest_primitive_root(13) == 2
        assert smallest_primitive_root(17) == 3

    @pytest.mark.parametrize("p", [5, 13])
    def test_diagonal_torus_order(self, p):
        a0, gen, _ = diagonal_torus(p)
        assert a0.order == (p - 1) // 2
        assert element_order(element(a0.ambient, gen)) == (p - 1) // 2

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_borel_order(self, p):
        assert borel_subgroup(p).order == p * (p - 1) // 2

    def test_dihedral_orders_p13(self):
        assert dihedral_subgroup(13, 12).order == 12
        assert dihedral_subgroup(13, 14).order == 14

    @pytest.mark.parametrize("order", [12, 14])
    def test_dihedral_matches_object_reference(self, order):
        # the reference: the element-object loop over the enumeration,
        # closing the first involution that inverts the rotation
        p = 13
        h = FiniteGroupHandle.psl2(p)
        elements = oracle.elements(h)
        rotation = next(g for g in elements if element_order(g) == order // 2)
        for j in elements:
            if element_order(j) == 2 and (j * rotation) * j.inverse() == rotation.inverse():
                expected = subgroup_closure(oracle.ids_of(h, rotation, j), h)
                if expected.order == order:
                    break
        got = dihedral_subgroup(p, order)
        assert got == expected
        assert got.generators == expected.generators

    @pytest.mark.parametrize("p", [5, 13])
    def test_smallest_element_of_order_matches_object_reference(self, p):
        h = FiniteGroupHandle.psl2(p)
        table = group_table(h)
        for order in sorted(set(table.orders.tolist())):
            expected = next(g for g in oracle.elements(h) if element_order(g) == order)
            assert element(h, smallest_element_of_order(p, order)) == expected
        with pytest.raises(SearchExhausted):
            smallest_element_of_order(p, 4 * p)

    def test_dihedral_rejects_other_orders(self):
        with pytest.raises(BadParameters):
            dihedral_subgroup(13, 10)


class TestIdsArePythonInts:
    """The ids a builder hands on are Python ints, and the class reps of
    their orbits are one read-only 2-D int64 id matrix.  The tables store
    16-bit ids, and under NEP 50 a uint16 scalar times a state place value
    would wrap or raise; the swap move subtracts digits, which 16-bit ids
    would wrap too."""

    # label -> build
    BUILDS = {
        "generic-p5": lambda: build_generic(5, 1, 2),
        "genus-zero-p5": lambda: build_genus_zero(5, 3),
        "dihedral-p13-t4": lambda: build_genus_zero(13, 3, explicit_t=4),
        "once-punctured-p13": lambda: build_once_punctured(13, 1),
        "char-cyclic-g0-n3": lambda: build_characteristic_cyclic(0, 3),
        "char-sym3-g1": lambda: build_characteristic_sym3(1),
    }

    @pytest.mark.parametrize("label", sorted(BUILDS))
    def test_builder_and_class_rep_ids(self, label):
        build = self.BUILDS[label]()
        ids = list(build.rep.images) + [build.claimed_cn]
        if build.h0 is not None:
            ids += build.h0.generators
        assert {type(x) for x in ids} == {int}
        reps = aut_classes(orbit_closure(build.rep)).class_rep_ids
        assert reps.dtype == np.int64 and reps.ndim == 2
        assert not reps.flags.writeable
