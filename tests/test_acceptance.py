"""Acceptance criteria, one test per criterion, with a printed verdict line.

Criteria 2 and 3 are known to fail two of their clauses, and the tests
state them anyway: at p = 5 the normalizer of the diagonal subgroup of
the order-60 simple group is a Klein four-group (a Sylow 2-subgroup),
whose own normalizer has order 12.  It is therefore not self-normalizing
and the induced cover has nontrivial deck group, so the corresponding
certificate cannot be all-pass.  The same conditions hold exactly as
asserted from p = 13 on (criterion 4 passes).  See the repository notes
for the full analysis; the checks themselves are implemented honestly
and the failing assertions are left in place rather than weakened.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from coverforge.catalog import (
    borel_subgroup,
    build_generic,
    build_genus_zero,
    build_once_punctured,
    diagonal_torus,
    search_commutator_pair,
    verify_hypotheses,
)
from coverforge.certificates import (
    ConstructConfig,
    attach_digest,
    bundle_report,
    canonical_json,
    construct,
    verify,
)
from coverforge.covers import (
    characteristic_core,
    coset_permutation,
    coset_space,
    cycle_type,
    genus_lower_bound,
    local_degrees_factored,
)
from coverforge.groups import FiniteGroupHandle, group_table, normalizer, subgroup_closure
from coverforge.orbits import aut_classes, orbit_closure
from coverforge.surfaces import RepTuple, SurfaceSignature, is_surjective
from element_oracle import Residue, element_of, element_order, ids_of, rep_peripheral_ids


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}  "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    print(f"criterion {number:2d}: PASS  {description}  "
          f"({time.perf_counter() - start:.2f}s)")


def test_criterion_01_catalog_fidelity():
    cases = [
        ("generic", lambda: build_generic(5, 1, 2), (5, 5)),
        ("generic", lambda: build_generic(13, 1, 2), (13, 13)),
        ("generic", lambda: build_generic(13, 2, 3), (13, 13, 13)),
        ("once-punctured", lambda: build_once_punctured(13, 1), (7,)),
        ("once-punctured", lambda: build_once_punctured(17, 1), (9,)),
        ("genus-zero", lambda: build_genus_zero(5, 3), (5, 5, 3)),
        ("genus-zero", lambda: build_genus_zero(13, 4), (13, 13, 13, 7)),
    ]
    with criterion(1, "catalog fidelity: relation, surjectivity, peripheral orders"):
        for name, builder, expected in cases:
            start = time.perf_counter()
            build = builder()
            table = group_table(build.rep.target)
            peripheral = rep_peripheral_ids(build.rep)
            assert build.claimed_cn == peripheral[-1], name
            assert is_surjective(table, build.rep.images), name
            assert tuple(table.orders[peripheral].tolist()) == expected, name
            assert time.perf_counter() - start < 5.0, (name, expected)


def test_criterion_02_hypothesis_verification():
    with criterion(2, "hypothesis checks for the three p=5 subgroups"):
        rep = build_generic(5, 1, 2).rep
        orders = tuple(group_table(rep.target).orders[rep_peripheral_ids(rep)].tolist())
        a0, _, _ = diagonal_torus(5)
        n_a0 = normalizer(a0)
        borel = borel_subgroup(5)

        start = time.perf_counter()
        hyp_na0 = verify_hypotheses(n_a0, orders)
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        hyp_borel = verify_hypotheses(borel, orders)
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        hyp_a0 = verify_hypotheses(a0, orders)
        assert time.perf_counter() - start < 1.0

        assert hyp_a0.self_normalizing is False
        assert hyp_borel.self_normalizing is True
        assert hyp_borel.aut_eq_inn is True
        # stated requirement; genuinely false at p = 5 (Klein four-group,
        # normalizer of order 12), see the module docstring
        assert hyp_na0.aut_eq_inn is True
        assert hyp_na0.self_normalizing is True, (
            "N(A0) in PSL2(F5) is a Sylow 2-subgroup with normalizer of "
            "order 12; self-normalization genuinely fails at p=5"
        )


def test_criterion_03_genus_zero_p5_pipeline():
    with criterion(3, "full pipeline for the thrice-punctured sphere at p=5"):
        start = time.perf_counter()
        cert = construct(ConstructConfig(case="genus-zero", p=5, punctures=3))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert cert["orbit"]["size"] <= 60 * 60
        assert cert["checks"]["orbit_completed"]
        profile = cert["representation"]["peripheral_orders"]
        for entry in cert["cover"]["ramification"]:
            delta_i = profile[entry["puncture"] - 1]
            assert all(length % delta_i == 0 for length, _ in entry["local_degrees"])
        genus = cert["cover"]["genus"]
        k = cert["orbit"]["k"]
        bound = genus_lower_bound(5, k, 0, 3)
        assert genus == int(genus) and genus >= 0
        assert Fraction(genus) >= bound
        # stated requirement; genuinely false at p = 5 because H0 is not
        # self-normalizing there, see the module docstring
        assert cert["all_checks_pass"], (
            "certificate honestly records self_normalizing=false and "
            "deck_trivial=false at p=5"
        )


def test_criterion_04_once_punctured_p13_pipeline():
    with criterion(4, "full pipeline for the once-punctured torus at p=13"):
        start = time.perf_counter()
        a, b, c = search_commutator_pair(13)
        handle = FiniteGroupHandle.psl2(13)
        assert element_order(element_of(handle, c)) == 7 == group_table(handle).orders[c]
        closure = subgroup_closure((a, b), handle)
        assert closure.order == 1092
        cert = construct(ConstructConfig(case="once-punctured", p=13, genus=1))
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0
        assert cert["orbit"]["size"] <= 1092 * 1092
        assert cert["orbit"]["size"] <= 20_000_000
        assert cert["all_checks_pass"], {
            name: value for name, value in cert["checks"].items() if not value
        }


def test_criterion_05_single_factor_diagnostic():
    with criterion(5, "k=1 diagnostic for the generic family at p=5"):
        start = time.perf_counter()
        build = build_generic(5, 1, 2)
        space = coset_space(build.h0)
        assert space.degree == 15
        multisets = []
        for i in (1, 2):
            perm = coset_permutation(space, rep_peripheral_ids(build.rep)[i - 1])
            assert cycle_type(perm) == {5: 3}
            multisets.append(cycle_type(perm))
        from coverforge.covers import riemann_hurwitz

        chi, genus = riemann_hurwitz(15, 0, multisets)
        assert chi == -24 and genus == 13
        assert Fraction(genus) >= genus_lower_bound(5, 1, 1, 2) == 5
        assert time.perf_counter() - start < 1.0


def test_criterion_06_factored_direct_equivalence():
    with criterion(6, "factored and direct local degrees agree up to 10^4 points"):
        builds = [
            build_generic(5, 1, 2),
            build_genus_zero(5, 3),
            build_once_punctured(13, 1),
            build_generic(13, 1, 2),
        ]
        for build in builds:
            space = coset_space(build.h0)
            d = space.degree
            if d * d > 10_000:
                continue
            for i in range(1, build.signature.n + 1):
                perm = coset_permutation(space, rep_peripheral_ids(build.rep)[i - 1])
                product_perm = [0] * (d * d)
                for x in range(d):
                    for y in range(d):
                        product_perm[x * d + y] = perm[x] * d + perm[y]
                direct = cycle_type(product_perm)
                factored = local_degrees_factored([cycle_type(perm)], [2])
                assert direct == factored, (build.p, build.signature, i)


def test_criterion_07_toy_orbit_ground_truth():
    with criterion(7, "rank-2 orbit over Z/2 from (1, 0)"):
        start = time.perf_counter()
        sig = SurfaceSignature(0, 3)
        h = FiniteGroupHandle.cyclic(2)
        rep = RepTuple(sig, h, ids_of(h, Residue(1, 2), Residue(0, 2)))
        orbit = orbit_closure(rep)
        assert [ids for block in orbit.id_tuples() for ids in block] == [(0, 1), (1, 0), (1, 1)]
        result = aut_classes(orbit)
        assert result.k == 3
        # each puncture's image has order 2 in some class rep
        assert characteristic_core(orbit.table, result.class_rep_ids, (2, 2, 2)) == 4
        assert time.perf_counter() - start < 1.0


def test_criterion_08_characteristic_path():
    with criterion(8, "characteristic certificates have ramification orders >= 2"):
        start = time.perf_counter()
        cyclic = construct(ConstructConfig(case="char-cyclic", genus=0, punctures=3))
        sym3 = construct(ConstructConfig(case="char-sym3", genus=1))
        assert time.perf_counter() - start < 5.0
        for cert in (cyclic, sym3):
            assert cert["variant"] == "characteristic-core (orbit variant)"
            assert cert["checks"]["peripheral_orders_ge_2"]
            assert all(order >= 2 for order in cert["cover"]["peripheral_orders"])
            assert cert["all_checks_pass"]
        assert cyclic["cover"]["peripheral_orders"] == [3, 3, 3]


def test_criterion_09_bundle_bookkeeping():
    with criterion(9, "bundle Euler characteristics"):
        assert bundle_report(2, 2)["euler_total"] == 4
        assert bundle_report(13, 2)["euler_total"] == 48
        assert bundle_report(4, 2)["euler_total"] == 12
        values = {bundle_report(g, 2)["euler_total"] for g in (2, 4, 13)}
        assert len(values) == 3


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, prefix + (i,))
    else:
        yield prefix


def _mutate_at(cert, path):
    node = cert
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    if isinstance(value, bool):
        node[path[-1]] = not value
    elif isinstance(value, int):
        node[path[-1]] = value + 1
    elif isinstance(value, str):
        node[path[-1]] = value + "x"
    else:
        node[path[-1]] = 0


def test_criterion_10_determinism_and_mutation_fuzz():
    with criterion(10, "byte-identical reconstruction and 100-mutation fuzz"):
        start = time.perf_counter()
        config = ConstructConfig(case="char-cyclic", genus=0, punctures=3)
        first = construct(config)
        second = construct(config)
        assert canonical_json(first) == canonical_json(second)
        assert verify(first).passed
        paths = sorted(_leaf_paths(first), key=str)
        assert len(paths) >= 10
        for i in range(100):
            mutated = json.loads(canonical_json(first))
            _mutate_at(mutated, paths[i % len(paths)])
            if canonical_json(mutated) == canonical_json(first):
                raise AssertionError(f"mutation at {paths[i % len(paths)]} was a no-op")
            assert not verify(mutated).passed, paths[i % len(paths)]
        assert time.perf_counter() - start < 60.0


def test_criterion_11_budget_discipline():
    with criterion(11, "generic p=13 rank-3 exits with code 3 and writes nothing"):
        out = "/tmp/coverforge-acceptance-budget.json"
        if os.path.exists(out):
            os.unlink(out)
        # the suborbit bound proves the overrun before any BFS, which
        # takes about 7 s to reach the 20M default budget
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "coverforge", "construct",
                "--case", "generic", "--p", "13", "--genus", "1", "--punctures", "2",
                "--out", out,
            ],
            capture_output=True,
            text=True,
        )
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 3, proc.stderr
        assert "rank-2 suborbit" in proc.stderr
        assert not os.path.exists(out)
