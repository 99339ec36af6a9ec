"""Tests for surface signatures, representation tuples, and the relation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverforge.catalog import (
    build_characteristic_cyclic,
    build_characteristic_sym3,
    build_generic,
    build_genus_zero,
    build_once_punctured,
)
from coverforge.certificates import ConstructConfig, construct
from coverforge.errors import BadParameters
from coverforge.groups import FiniteGroupHandle, group_table
from coverforge.surfaces import (
    RepTuple,
    SurfaceSignature,
    is_surjective,
    peripheral_ids,
)
from coverforge.orbits import aut_classes, orbit_closure
import element_oracle as oracle
from element_oracle import Residue, canonicalize, rep_peripheral_ids


def rep_of(sig, handle, *elements):
    """A representation with these oracle elements as its images."""
    return RepTuple(sig, handle, oracle.ids_of(handle, *elements))


def derived_last_peripheral(rep):
    """The derived c_n of the pipeline, as an oracle element."""
    return oracle.element_of(rep.target, rep_peripheral_ids(rep)[-1])


def reference_last_peripheral(rep):
    """Oracle: c_n = (c_1 .. c_{n-1})^-1 * prod_i [a_i, b_i] by element
    products."""
    g = rep.signature.g
    images = [oracle.element_of(rep.target, i) for i in rep.images]
    commutators = oracle.identity(rep.target)
    for a, b in zip(images[0 : 2 * g : 2], images[1 : 2 * g : 2]):
        commutators = commutators * (a * b * a.inverse() * b.inverse())
    prefix = oracle.identity(rep.target)
    for c in images[2 * g :]:
        prefix = prefix * c
    return prefix.inverse() * commutators


def identity_rep(sig, handle):
    return RepTuple(sig, handle, (group_table(handle).identity_id,) * sig.free_rank)


def surjective(rep):
    return is_surjective(group_table(rep.target), rep.images)


def peripheral_orders(rep):
    return tuple(group_table(rep.target).orders[rep_peripheral_ids(rep)].tolist())


class TestSignature:
    def test_nonnegative_euler_rejected(self):
        for g, n in [(0, 1), (0, 2), (1, 0)]:
            with pytest.raises(BadParameters):
                SurfaceSignature(g, n)

    @pytest.mark.parametrize(
        "g,n,rank", [(0, 3, 2), (1, 1, 2), (1, 2, 3), (2, 3, 6), (0, 4, 3)]
    )
    def test_free_rank(self, g, n, rank):
        sig = SurfaceSignature(g, n)
        assert sig.free_rank == rank
        assert sig.euler == 2 - 2 * g - n < 0
        assert sig.euler_closed == 2 - 2 * g

    def test_generator_names(self):
        assert SurfaceSignature(1, 2).generator_names == ("a1", "b1", "c1")
        assert SurfaceSignature(0, 4).generator_names == ("c1", "c2", "c3")
        assert SurfaceSignature(2, 1).generator_names == ("a1", "b1", "a2", "b2")


class TestDerivedPeripheral:
    def test_genus_zero_formula(self):
        # c_1, c_2 -> lower and upper unipotents; the relation forces
        # c_3 = (c_1 c_2)^-1 = (1+t, -t, -1, 1)
        p, t = 5, 4
        sig = SurfaceSignature(0, 3)
        rep = rep_of(
            sig,
            FiniteGroupHandle.psl2(p),
            canonicalize(1, 0, 1, 1, p),
            canonicalize(1, t, 0, 1, p),
        )
        assert derived_last_peripheral(rep) == canonicalize(1 + t, -t, -1, 1, p)

    def test_all_identity(self):
        sig = SurfaceSignature(1, 2)
        rep = identity_rep(sig, FiniteGroupHandle.psl2(5))
        assert derived_last_peripheral(rep).is_identity()

    def test_generic_derived_value(self):
        p = 5
        sig = SurfaceSignature(1, 2)
        u = canonicalize(1, 1, 0, 1, p)
        l = canonicalize(1, 0, 1, 1, p)
        rep = rep_of(sig, FiniteGroupHandle.psl2(p), u, u, l)
        assert derived_last_peripheral(rep) == canonicalize(1, 0, p - 2 + 1, 1, p)

    def test_images_must_be_ids_of_the_target(self):
        sig = SurfaceSignature(1, 2)
        h = FiniteGroupHandle.psl2(5)
        for images in ((0, 1, 60), (-1, 0, 0), (0, 0)):
            with pytest.raises(BadParameters):
                RepTuple(sig, h, images)


class TestVerifyRelation:
    """A stated last peripheral id holds the relation when it is the
    derived one (the pipeline's `relation_holds`)."""

    def test_generic_claim(self):
        p = 5
        sig = SurfaceSignature(1, 2)
        u = canonicalize(1, 1, 0, 1, p)
        l = canonicalize(1, 0, 1, 1, p)
        h = FiniteGroupHandle.psl2(p)
        rep = rep_of(sig, h, u, u, l)
        derived = rep_peripheral_ids(rep)[-1]
        assert derived == oracle.id_of(h, canonicalize(1, 0, 4, 1, p))
        assert derived != oracle.id_of(h, oracle.identity(h))

    def test_identity_rep(self):
        sig = SurfaceSignature(1, 2)
        h = FiniteGroupHandle.cyclic(4)
        assert rep_peripheral_ids(identity_rep(sig, h))[-1] == group_table(h).identity_id


class TestSurjectivity:
    def test_generic_is_surjective(self):
        p = 5
        sig = SurfaceSignature(1, 2)
        u = canonicalize(1, 1, 0, 1, p)
        l = canonicalize(1, 0, 1, 1, p)
        rep = rep_of(sig, FiniteGroupHandle.psl2(p), u, u, l)
        assert surjective(rep)

    def test_identity_rep_is_not(self):
        sig = SurfaceSignature(1, 2)
        assert not surjective(identity_rep(sig, FiniteGroupHandle.psl2(5)))

    def test_cyclic_peripheral_rep(self):
        sig = SurfaceSignature(0, 3)
        h = FiniteGroupHandle.cyclic(3)
        rep = rep_of(sig, h, Residue(1, 3), Residue(1, 3))
        assert surjective(rep)


class TestProfile:
    """The peripheral orders (of c_1, .., c_n, derived c_n last) and
    delta, their minimum."""

    def test_generic_profile(self):
        p = 5
        sig = SurfaceSignature(1, 2)
        u = canonicalize(1, 1, 0, 1, p)
        l = canonicalize(1, 0, 1, 1, p)
        rep = rep_of(sig, FiniteGroupHandle.psl2(p), u, u, l)
        orders = peripheral_orders(rep)
        assert orders == (5, 5) and min(orders) == 5

    def test_identity_profile(self):
        sig = SurfaceSignature(1, 3)
        rep = identity_rep(sig, FiniteGroupHandle.symmetric(3))
        assert peripheral_orders(rep) == (1, 1, 1)

    def test_profile_delta(self):
        config = ConstructConfig("genus-zero", p=13, punctures=3, single_factor=True)
        representation = construct(config)["representation"]
        assert representation["peripheral_orders"] == [13, 13, 7]
        assert representation["delta"] == 7


class TestPeripheralIds:
    """The id matrix of c_1 .. c_n against the element-object oracle."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_genus_zero(5, 3),
            lambda: build_genus_zero(13, 3),
            lambda: build_once_punctured(13, 1),
            lambda: build_characteristic_cyclic(0, 3),
            lambda: build_characteristic_sym3(1),
            lambda: build_generic(5, 1, 2),
        ],
        ids=["genus-zero-p5", "genus-zero-p13", "once-punctured-p13", "char-cyclic-n3",
             "char-sym3-g1", "generic-p5"],
    )
    def test_every_class_rep_matches_derived_last_peripheral(self, build):
        b = build()
        result = aut_classes(orbit_closure(b.rep))
        table = result.orbit.table
        matrix = peripheral_ids(table, b.signature, result.class_rep_ids)
        assert matrix.shape == (result.k, b.signature.n)
        for row, ids in zip(matrix.tolist(), result.class_rep_ids):
            rep = RepTuple(b.signature, table.handle, ids)
            expected = list(ids[2 * b.signature.g :])
            expected.append(oracle.id_of(table.handle, reference_last_peripheral(rep)))
            assert row == expected
            assert rep_peripheral_ids(rep).tolist() == expected


def _small_targets():
    return st.sampled_from(
        [FiniteGroupHandle.cyclic(4), FiniteGroupHandle.symmetric(3), FiniteGroupHandle.psl2(5)]
    )


@settings(max_examples=80, deadline=None)
@given(
    target=_small_targets(),
    g=st.integers(0, 2),
    n=st.integers(1, 3),
    seed=st.integers(0, 10**9),
)
def test_relation_always_recomposes(target, g, n, seed):
    """The derived last peripheral makes the surface relation an identity."""
    try:
        sig = SurfaceSignature(g, n)
    except BadParameters:
        return
    els = oracle.elements(target)
    rng_state = seed
    images = []
    for _ in range(sig.free_rank):
        rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) % 2**63
        images.append(els[rng_state % len(els)])
    rep = rep_of(sig, target, *images)
    cs = [els[i] for i in rep_peripheral_ids(rep)]
    assert cs[:-1] == images[2 * sig.g :]
    lhs = oracle.identity(target)
    for i in range(sig.g):
        a, b = images[2 * i], images[2 * i + 1]
        lhs = lhs * (a * b * a.inverse() * b.inverse())
    rhs = oracle.identity(target)
    for c in cs:
        rhs = rhs * c
    assert lhs == rhs
