"""Tests for the representation families and the subgroup hypotheses."""

import math

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
    validate_t,
    verify_hypotheses,
)
from coverforge.errors import BadParameters, BudgetExceeded, SearchExhausted
from coverforge.groups import (
    FiniteGroupHandle,
    Permutation,
    canonicalize,
    d0_perm,
    element_order,
    encode_element,
    enumerate_group,
    group_table,
    normalizer,
    subgroup_closure,
)
from coverforge.surfaces import (
    is_surjective,
    peripheral_profile,
    verify_relation,
)


def derived_cn(rep):
    """The derived last peripheral image as an element object."""
    return group_table(rep.target).elements[rep.peripheral_image_ids()[-1]]


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
        assert validate_t(5, 4)
        assert not validate_t(5, 1)
        assert not validate_t(13, 12, require_minimal=True) or select_t(13) == 12

    def test_rejects_p3mod4(self):
        with pytest.raises(BadParameters):
            select_t(7)


class TestCommutatorSearch:
    def test_p13(self):
        a, b, c = search_commutator_pair(13)
        assert encode_element(a) == [0, 1, 12, 0]
        assert encode_element(b) == [0, 1, 12, 1]
        assert element_order(c) == 7
        assert validate_commutator_pair(13, a, b, c)

    def test_p17(self):
        a, b, c = search_commutator_pair(17)
        assert element_order(c) == 9
        h = FiniteGroupHandle.psl2(17)
        table = group_table(h)
        assert subgroup_closure((table.id_of(a), table.id_of(b)), h).order == 2448

    def test_p5_outcome(self):
        # unguaranteed territory: the scan may or may not find a pair;
        # here it does, with a commutator of order (5+1)/2 = 3
        a, b, c = search_commutator_pair(5)
        assert element_order(c) == 3
        assert validate_commutator_pair(5, a, b, c)

    def test_budget(self):
        with pytest.raises(SearchExhausted):
            search_commutator_pair(13, pair_budget=500)

    def test_table_limit_checked_before_entry_arrays(self, monkeypatch):
        # PSL(2, 211) has order 4.7M, over the table limit; its entry
        # lookup alone would be a 211**4 int32 array (7.4 GiB), so the
        # spy refuses to build it instead of letting the test allocate
        import coverforge.catalog as catalog_module
        import coverforge.groups as groups_module

        real = groups_module._psl2_arrays

        def spy(p):
            order = p * (p * p - 1) // 2
            assert order <= groups_module.TABLE_LIMIT, f"_psl2_arrays({p}) above the table limit"
            return real(p)

        monkeypatch.setattr(groups_module, "_psl2_arrays", spy)
        monkeypatch.setattr(catalog_module, "_psl2_arrays", spy)
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
        assert encode_element(images["a1"]) == [1, 1, 0, 1]
        assert encode_element(images["b1"]) == [1, 1, 0, 1]
        assert encode_element(images["c1"]) == [1, 0, 1, 1]
        assert encode_element(derived_cn(b.rep)) == [1, 0, 4, 1]
        assert verify_relation(b.rep, b.claimed_cn)
        assert is_surjective(b.rep)
        assert peripheral_profile(b.rep).orders == (5, 5)
        assert b.h0.order == 4

    def test_p13_g2_n3(self):
        b = build_generic(13, 2, 3)
        assert peripheral_profile(b.rep).orders == (13, 13, 13)
        assert is_surjective(b.rep)
        assert b.h0.order == 12

    def test_p_below_n_rejected(self):
        with pytest.raises(BadParameters):
            build_generic(3, 1, 5)
        with pytest.raises(BadParameters):
            build_generic(3, 1, 2)  # p >= 5 needed for simplicity


class TestOncePuncturedFamily:
    def test_p13(self):
        b = build_once_punctured(13, 1)
        prof = peripheral_profile(b.rep)
        assert prof.orders == (7,)
        assert b.h0.order == 78 == 13 * 12 // 2
        assert math.gcd(7, 78) == 1
        assert is_surjective(b.rep)
        assert verify_relation(b.rep, b.claimed_cn)

    def test_p17(self):
        b = build_once_punctured(17, 1)
        assert peripheral_profile(b.rep).orders == (9,)
        assert b.h0.order == 136
        assert math.gcd(9, 136) == 1

    def test_higher_genus_pads_with_identity(self):
        b = build_once_punctured(13, 2)
        assert peripheral_profile(b.rep).orders == (7,)
        assert b.rep.images[2].is_identity() and b.rep.images[3].is_identity()

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
        assert peripheral_profile(b.rep).orders == (5, 5, 3)
        assert verify_relation(b.rep, b.claimed_cn)
        assert is_surjective(b.rep)
        assert b.h0.order == 4
        # trace of the last peripheral is 2 + t up to sign
        cn = derived_cn(b.rep)
        assert (cn.a + cn.d) % 5 in {(2 + 4) % 5, (-(2 + 4)) % 5}

    def test_p13_n4(self):
        b = build_genus_zero(13, 4)
        assert b.constants["s"] == 7  # inverse of 2 mod 13
        assert peripheral_profile(b.rep).orders == (13, 13, 13, 7)

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
        prof = peripheral_profile(b.rep)
        assert prof.orders == (13, 13, 6)
        assert ((13 - 1) // 2) % prof.orders[-1] == 0

    def test_explicit_t_irreducible_branch(self):
        # t=4 at p=13 is irreducible with root order 14, so H0 is the
        # dihedral group of order p-1 and the last order divides (p+1)/2
        b = build_genus_zero(13, 3, explicit_t=4)
        assert b.h0.order == 12
        prof = peripheral_profile(b.rep)
        assert prof.orders == (13, 13, 7)

    def test_explicit_t_zero_rejected(self):
        with pytest.raises(BadParameters):
            build_genus_zero(13, 3, explicit_t=0)


class TestCharacteristicFamilies:
    def test_cyclic_g0_n3(self):
        b = build_characteristic_cyclic(0, 3)
        assert peripheral_profile(b.rep).orders == (3, 3, 3)
        assert is_surjective(b.rep)

    def test_cyclic_g2_n2(self):
        b = build_characteristic_cyclic(2, 2)
        assert peripheral_profile(b.rep).orders == (2, 2)

    def test_cyclic_needs_two_punctures(self):
        with pytest.raises(BadParameters):
            build_characteristic_cyclic(2, 1)

    def test_sym3(self):
        b = build_characteristic_sym3(1)
        derived = derived_cn(b.rep)
        assert derived == Permutation.from_cycles(3, [(0, 1, 2)])
        assert element_order(derived) == 3 >= 2
        assert is_surjective(b.rep)

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
        hyp = verify_hypotheses(b.rep.target, b.h0, peripheral_profile(b.rep))
        assert hyp.self_normalizing is False
        assert hyp.aut_eq_inn is True
        assert hyp.d0_stabilizes_h0 is True
        assert hyp.all_pass is False

    def test_p5_a0_fails_self_normalization(self):
        b = build_generic(5, 1, 2)
        a0, _, _ = diagonal_torus(5)
        hyp = verify_hypotheses(b.rep.target, a0, peripheral_profile(b.rep))
        assert hyp.self_normalizing is False

    def test_p5_borel_self_normalizing_but_not_coprime(self):
        b = build_generic(5, 1, 2)
        hyp = verify_hypotheses(b.rep.target, borel_subgroup(5), peripheral_profile(b.rep))
        assert hyp.self_normalizing is True
        assert hyp.aut_eq_inn is True
        assert hyp.d0_stabilizes_h0 is True
        # gcd(5, 10) = 5: the coprimality condition fails for this pair
        assert hyp.coprimality == ((5, 10, 5, False), (5, 10, 5, False))
        assert hyp.all_pass is False

    def test_p13_families_pass_everything(self):
        for build in (build_generic(13, 1, 2), build_once_punctured(13, 1),
                      build_genus_zero(13, 4)):
            hyp = verify_hypotheses(
                build.rep.target, build.h0, peripheral_profile(build.rep)
            )
            assert hyp.all_pass, (build.tag, hyp)

    def test_d0_stabilizes_catalog_subgroups(self):
        for p in (5, 13):
            d0 = d0_perm(group_table(FiniteGroupHandle.psl2(p)))
            a0, _, _ = diagonal_torus(p)
            for sub in (normalizer(a0), borel_subgroup(p)):
                assert sorted(d0[sub.ids].tolist()) == sub.ids.tolist()

    def test_non_psl2_targets_report_not_applicable(self):
        b = build_characteristic_cyclic(0, 3)
        hyp = verify_hypotheses(
            b.rep.target, subgroup_closure((), b.rep.target), peripheral_profile(b.rep)
        )
        assert hyp.aut_eq_inn is None
        assert hyp.d0_stabilizes_h0 is None


class TestSubgroupBuilders:
    def test_primitive_roots(self):
        assert smallest_primitive_root(5) == 2
        assert smallest_primitive_root(13) == 2
        assert smallest_primitive_root(17) == 3

    @pytest.mark.parametrize("p", [5, 13])
    def test_diagonal_torus_order(self, p):
        a0, gen, _ = diagonal_torus(p)
        assert a0.order == (p - 1) // 2
        assert element_order(gen) == (p - 1) // 2

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
        table = group_table(h)
        elements = enumerate_group(h)
        rotation = next(g for g in elements if element_order(g) == order // 2)
        for j in elements:
            if element_order(j) == 2 and (j * rotation) * j.inverse() == rotation.inverse():
                expected = subgroup_closure((table.id_of(rotation), table.id_of(j)), h)
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
            expected = next(g for g in enumerate_group(h) if element_order(g) == order)
            assert table.elements[smallest_element_of_order(p, order)] == expected
        with pytest.raises(SearchExhausted):
            smallest_element_of_order(p, 4 * p)

    def test_dihedral_rejects_other_orders(self):
        with pytest.raises(BadParameters):
            dihedral_subgroup(13, 10)
