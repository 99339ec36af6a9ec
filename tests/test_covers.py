"""Tests for coset actions, ramification multisets, and genus bookkeeping."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverforge.catalog import (
    build_characteristic_cyclic,
    build_characteristic_sym3,
    build_generic,
    build_genus_zero,
    build_once_punctured,
    borel_subgroup,
    diagonal_torus,
)
from coverforge.certificates import ConstructConfig, _riemann_hurwitz_stage, construct
from coverforge.errors import BadParameters, InconsistentRamification
from coverforge.covers import (
    characteristic_core,
    combine_cycle_types,
    coset_permutation,
    coset_space,
    cycle_type,
    elevation_degree,
    genus_lower_bound,
    local_degrees_factored,
    proposition_genus_bound,
    riemann_hurwitz,
    sums_to_degree,
    verify_deck_trivial,
)
from coverforge.groups import (
    FiniteGroupHandle,
    SubgroupData,
    group_table,
    normalizer,
    subgroup_closure,
)
from coverforge.orbits import aut_classes, orbit_closure, verify_characteristic_closure
from coverforge.surfaces import RepTuple, SurfaceSignature, peripheral_ids
from element_oracle import (
    Residue,
    canonicalize,
    coset_action,
    element_of,
    element_order,
    ids_of,
    local_degrees_direct,
)


class TestCosetSpaces:
    def test_sizes(self):
        a0, _, _ = diagonal_torus(5)
        assert coset_space(normalizer(a0)).degree == 15
        assert coset_space(borel_subgroup(5)).degree == 6

    def test_whole_group_single_point(self):
        h = FiniteGroupHandle.psl2(5)
        u, l = ids_of(h, canonicalize(1, 1, 0, 1, 5), canonicalize(1, 0, 1, 1, 5))
        whole = subgroup_closure((u, l), h)
        space = coset_space(whole)
        assert space.degree == 1
        assert coset_permutation(space, u) == (0,)

    def test_degree_is_the_count_of_cosets(self):
        # a mask that is no subgroup, {1, u} with u of order 5: a new label
        # takes its translate {g, ug}, so each of the 12 cycles of g -> ug
        # needs at least 3 labels, where Lagrange would give 60 / 2 = 30
        h = FiniteGroupHandle.psl2(5)
        table = group_table(h)
        (u,) = ids_of(h, canonicalize(1, 1, 0, 1, 5))
        mask = np.zeros(table.order, dtype=bool)
        mask[[table.identity_id, u]] = True
        space = coset_space(SubgroupData(h, (u,), mask))
        assert space.degree == len(space.reps) >= 36

    def test_action_is_a_homomorphism(self):
        b = build_generic(5, 1, 2)
        space = coset_space(b.h0)
        h = space.table.handle
        x = canonicalize(1, 1, 0, 1, 5)
        y = canonicalize(1, 0, 1, 1, 5)
        px, py, pxy = (coset_permutation(space, g) for g in ids_of(h, x, y, x * y))
        assert tuple(py[px[i]] for i in range(space.degree)) == pxy


class TestLocalDegrees:
    def test_generic_p5_unipotents(self):
        b = build_generic(5, 1, 2)
        action = coset_action(b.rep, b.h0)
        assert action.degree == 15
        assert local_degrees_direct(action, 1) == {5: 3}
        assert local_degrees_direct(action, 2) == {5: 3}

    def test_identity_peripheral_is_unramified(self):
        sig = SurfaceSignature(1, 2)
        h = FiniteGroupHandle.psl2(5)
        rep = RepTuple(sig, h, (group_table(h).identity_id,) * 3)
        b = build_generic(5, 1, 2)
        action = coset_action(rep, b.h0)
        assert local_degrees_direct(action, 1) == {1: 15}

    def test_regular_cyclic_action(self):
        b = build_characteristic_cyclic(0, 3)
        action = coset_action(b.rep, subgroup_closure((), b.rep.target))
        assert action.degree == 3
        assert local_degrees_direct(action, 1) == {3: 1}

    def test_derived_perm_is_relation_forced(self):
        # the coset action is a homomorphism, so the permutation of the
        # derived peripheral equals the product of inverse prefix and
        # handle commutators, composed as permutations
        for build in (build_generic(5, 1, 2), build_genus_zero(5, 3)):
            action = coset_action(build.rep, build.h0)
            d = action.degree
            names = build.signature.generator_names
            g = build.signature.g

            def compose(p, q):
                return tuple(q[p[i]] for i in range(d))

            def invert(p):
                out = [0] * d
                for i, j in enumerate(p):
                    out[j] = i
                return tuple(out)

            acc = tuple(range(d))
            for i in range(g):
                pa = action.free_perms[f"a{i+1}"]
                pb = action.free_perms[f"b{i+1}"]
                acc = compose(acc, compose(compose(pa, pb), compose(invert(pa), invert(pb))))
            prefix = tuple(range(d))
            for i in range(1, build.signature.n):
                prefix = compose(prefix, action.free_perms[f"c{i}"])
            forced = compose(invert(prefix), acc)
            assert forced == action.peripheral_perms[-1]


class TestFactoredCombination:
    def test_worked_examples(self):
        assert combine_cycle_types({5: 3}, {5: 3}) == {5: 45}
        assert combine_cycle_types({2: 1}, {3: 1}) == {6: 1}
        assert combine_cycle_types({1: 4}, {7: 2}) == {7: 8}

    def test_factored_equals_direct_on_products(self):
        # materialize the product coset space for k = 2 and compare
        cases = [
            (build_generic(5, 1, 2), 1),
            (build_generic(5, 1, 2), 2),
            (build_genus_zero(5, 3), 3),
            (build_once_punctured(13, 1), 1),
        ]
        for build, puncture in cases:
            space = coset_space(build.h0)
            g = build.rep.peripheral_image_ids()[puncture - 1]
            perm = coset_permutation(space, g)
            d = len(perm)
            assert d * d <= 10_000
            product_perm = [0] * (d * d)
            for x in range(d):
                for y in range(d):
                    product_perm[x * d + y] = perm[x] * d + perm[y]
            direct = cycle_type(product_perm)
            factored = local_degrees_factored([cycle_type(perm), cycle_type(perm)])
            assert direct == factored

    @settings(max_examples=50)
    @given(
        a=st.dictionaries(st.integers(1, 9), st.integers(1, 4), min_size=1, max_size=3),
        b=st.dictionaries(st.integers(1, 9), st.integers(1, 4), min_size=1, max_size=3),
        c=st.dictionaries(st.integers(1, 9), st.integers(1, 4), min_size=1, max_size=3),
    )
    def test_combine_is_commutative_and_associative(self, a, b, c):
        assert combine_cycle_types(a, b) == combine_cycle_types(b, a)
        lhs = combine_cycle_types(combine_cycle_types(a, b), c)
        rhs = combine_cycle_types(a, combine_cycle_types(b, c))
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(4))
    def test_squaring_matches_plain_reduce(self, seed):
        # equal factor types are raised to their multiplicity by squaring;
        # the plain left fold over every factor is the oracle
        rng = np.random.default_rng(seed)
        types = [
            {int(l): int(rng.integers(1, 5)) for l in rng.choice([1, 2, 3, 4, 6, 12], size=3)}
            for _ in range(3)
        ]
        factors = [t for t in types for _ in range(int(rng.integers(1, 2001)))]
        rng.shuffle(factors)
        assert local_degrees_factored(factors) == functools.reduce(combine_cycle_types, factors)

    def test_combine_preserves_total(self):
        a, b = {5: 3, 1: 2}, {3: 4, 2: 1}
        ta = sum(l * c for l, c in a.items())
        tb = sum(l * c for l, c in b.items())
        combined = combine_cycle_types(a, b)
        assert sum(l * c for l, c in combined.items()) == ta * tb


class TestElevationDegrees:
    def test_lcm_examples(self):
        assert math.lcm(5, 5) == 5
        assert math.lcm(5, 3) == 15
        b = build_generic(5, 1, 2)
        table = group_table(b.rep.target)
        ids = [b.rep.images]
        assert elevation_degree(table, peripheral_ids(table, b.signature, ids), 1) == 5

    def test_across_class_reps(self):
        b = build_genus_zero(5, 3)
        result = aut_classes(orbit_closure(b.rep))
        table = result.table
        peripheral = peripheral_ids(table, b.signature, result.class_rep_ids)
        for puncture in range(1, b.signature.n + 1):
            orders = [
                element_order(element_of(table.handle, RepTuple(b.signature, table.handle, ids)
                                         .peripheral_image_ids()[puncture - 1]))
                for ids in result.class_rep_ids
            ]
            assert elevation_degree(table, peripheral, puncture) == math.lcm(*orders)


class TestRiemannHurwitz:
    def test_single_factor_generic_p5(self):
        chi, genus = riemann_hurwitz(15, 0, [{5: 3}, {5: 3}])
        assert (chi, genus) == (-24, 13)

    def test_unramified(self):
        chi, genus = riemann_hurwitz(10, -2, [{1: 10}])
        assert chi == -20 and genus == 11

    def test_classic_cyclic_cover_of_sphere(self):
        chi, genus = riemann_hurwitz(3, 2, [{3: 1}, {3: 1}, {3: 1}])
        assert (chi, genus) == (0, 1)

    def test_bad_sum_rejected(self, monkeypatch):
        # the sum's one judge is the certificate's check: with one cycle
        # dropped from every puncture's local degrees, the cover is still
        # written, and it records the fault
        def drop_one_cycle(factor_types):
            multiset = dict(local_degrees_factored(factor_types))
            length = max(multiset)
            multiset[length] -= 1
            return {l: c for l, c in multiset.items() if c}

        monkeypatch.setattr("coverforge.certificates.local_degrees_factored", drop_one_cycle)
        cert = construct(ConstructConfig(case="genus-zero", p=13, punctures=3))
        assert cert["checks"]["ramification_sums_to_degree"] is False
        assert cert["all_checks_pass"] is False

    def test_sums_to_degree(self):
        assert sums_to_degree({5: 3}, 15)
        assert sums_to_degree({1: 3, 3: 4}, 15)
        assert not sums_to_degree({5: 2}, 15)
        assert not sums_to_degree({5: 3, 1: 1}, 15)

    def test_odd_euler_rejected(self):
        # the formula alone gives chi = 1; the certificate's stage records
        # the parity
        ramification = [{3: 1}, {3: 1}, {2: 1, 1: 1}]
        assert riemann_hurwitz(3, 2, ramification) == (1, 1)
        checks = _riemann_hurwitz_checks(3, ramification)
        assert checks == {"chi_even": False, "genus_nonnegative_integer": True}

    def test_negative_genus_recorded(self):
        # a degree-2 cover of the sphere with no branching has chi = 4
        ramification = [{1: 2}] * 3
        assert riemann_hurwitz(2, 2, ramification) == (4, -1)
        checks = _riemann_hurwitz_checks(2, ramification)
        assert checks == {"chi_even": True, "genus_nonnegative_integer": False}


def _riemann_hurwitz_checks(degree, ramification) -> dict:
    """The checks the certificate's Riemann-Hurwitz stage records for a
    cover of the thrice-punctured sphere."""
    checks: dict = {}
    elevation = [max(multiset) for multiset in ramification]
    _riemann_hurwitz_stage(degree, SurfaceSignature(0, 3), ramification, elevation, {}, checks)
    return checks


class TestGenusBounds:
    @pytest.mark.parametrize(
        "p,k,g,n,expected",
        [
            (5, 1, 1, 2, Fraction(5)),
            (5, 1, 0, 3, Fraction(1)),
            (13, 1, 1, 1, Fraction(7)),
        ],
    )
    def test_theorem_bound_values(self, p, k, g, n, expected):
        assert genus_lower_bound(p, k, g, n) == expected

    def test_proposition_bound(self):
        assert proposition_genus_bound(15, 1, 1, 2, 5) == 1 + 15 * Fraction(0 + 2 * 4, 2 * 5)

    def test_exactness(self):
        bound = genus_lower_bound(13, 49, 1, 1)
        assert bound.denominator == 1
        assert bound == 1 + Fraction(3, 7) * 14**49


class TestDeckGroup:
    def test_borel_deck_trivial(self):
        assert verify_deck_trivial(borel_subgroup(5))
        assert verify_deck_trivial(borel_subgroup(13))

    def test_p5_diagonal_normalizer_not_deck_trivial(self):
        # honest value at p = 5: the Klein four-group is not
        # self-normalizing, so the coset cover has nontrivial deck group
        a0, _, _ = diagonal_torus(5)
        assert not verify_deck_trivial(normalizer(a0))

    def test_p13_diagonal_normalizer_deck_trivial(self):
        a0, _, _ = diagonal_torus(13)
        assert verify_deck_trivial(normalizer(a0))

    def test_a0_not_deck_trivial(self):
        a0, _, _ = diagonal_torus(5)
        assert not verify_deck_trivial(a0)

    def test_whole_group_boundary_case(self):
        h = FiniteGroupHandle.psl2(5)
        u, l = canonicalize(1, 1, 0, 1, 5), canonicalize(1, 0, 1, 1, 5)
        whole = subgroup_closure(ids_of(h, u, l), h)
        assert verify_deck_trivial(whole)


class TestCharacteristicCore:
    def test_toy_degree(self):
        sig = SurfaceSignature(0, 3)
        h = FiniteGroupHandle.cyclic(2)
        rep = RepTuple(sig, h, ids_of(h, Residue(1, 2), Residue(0, 2)))
        orb = orbit_closure(rep)
        core = characteristic_core(aut_classes(orb).class_rep_ids, sig, orb)
        assert core.degree == 4
        assert verify_characteristic_closure(orb)

    def test_char_cyclic_numbers(self):
        b = build_characteristic_cyclic(0, 3)
        orb = orbit_closure(b.rep)
        core = characteristic_core(aut_classes(orb).class_rep_ids, b.signature, orb)
        assert core.peripheral_orders == (3, 3, 3)
        assert core.all_at_least_two
        assert core.degree == 9
        chi, genus = riemann_hurwitz(9, 2, [{3: 3}] * 3)
        assert (chi, genus) == (0, 1)

    def test_char_sym3_numbers(self):
        b = build_characteristic_sym3(1)
        orb = orbit_closure(b.rep)
        core = characteristic_core(aut_classes(orb).class_rep_ids, b.signature, orb)
        assert core.peripheral_orders == (3,)
        assert core.degree == 108
        chi, genus = riemann_hurwitz(108, 0, [{3: 36}])
        assert (chi, genus) == (-72, 37)

    def test_peripheral_order_not_dividing_the_degree_raises(self, monkeypatch):
        # a product image of order 10 cannot hold the order-3 peripheral
        # images, so no ramification of degree / 3 points exists
        import coverforge.covers as covers

        monkeypatch.setattr(covers, "_product_closure_order", lambda table, reps: 10)
        b = build_characteristic_cyclic(0, 3)
        orb = orbit_closure(b.rep)
        with pytest.raises(InconsistentRamification, match="do not all divide"):
            characteristic_core(aut_classes(orb).class_rep_ids, b.signature, orb)

    def test_degree_uncomputed_when_ambient_exceeds_budget(self, monkeypatch):
        import coverforge.orbits as orbits

        monkeypatch.setattr(orbits, "PRODUCT_CLOSURE_CAP", 2)
        b = build_characteristic_cyclic(0, 3)
        orb = orbit_closure(b.rep)
        core = characteristic_core(aut_classes(orb).class_rep_ids, b.signature, orb)
        assert core.degree is None
        assert core.peripheral_orders == (3, 3, 3)
