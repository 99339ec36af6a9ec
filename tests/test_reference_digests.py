"""Golden digests of the reference certificate set.

Builds every configuration of ``scripts/build_reference_certificates.py``
and pins its ``certificate_digest`` and ``orbit.class_reps_digest``, so
a refactor of the orbit, class or closure engines that changes a single
certificate byte fails here.  A second table pins the many-class
configurations of the benchmark, where the class-rep stage handles
thousands of class reps, and a third the benchmark's primary PSL(2, 13)
configuration, which runs every part of the group kernel.
"""

import importlib.util
import pathlib

import pytest

from coverforge import groups
from coverforge.certificates import ConstructConfig, construct, verify

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent / "scripts" / "build_reference_certificates.py"
)


def _reference_configs() -> dict:
    spec = importlib.util.spec_from_file_location("build_reference_certificates", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.CONFIGS)


GOLDEN = {
    "genus-zero-p5-n3": (
        "ebc132e83ccd1a9a1b7d186de9baf68e0429df2aabd6717ea19b8ed417ed0aa2",
        "51e5d821fb16ecacfaaf9d548bc5271990f43a03c06622743b822fa22e985464",
    ),
    "once-punctured-p13": (
        "df2d32c356fcd4b2c00c3a866b58e24427868245cb5cfcafd4f44efeb8b7ae11",
        "32318e515fbf551d5b554790e0916c56aeaa7cf946a00a4cb6e491e6b314a6fe",
    ),
    "char-cyclic-g0-n3": (
        "3a1862c0283330e20c5ec9313494592932c971af6abbee0a7cd08c2d1a077d28",
        "b31d75c5b315de655d4c1be32793a8bd023ff3fa0fa012d268ac69410530cbf4",
    ),
    "char-sym3-g1": (
        "99999accd563d11637b71fa88b96c6b167ae04b12156f284c018f0ac275bd65c",
        "fdffe1e6dd4e09c54cab1e6a8beb772da8f366800290e34a4c3ba11db1e3e7d1",
    ),
    "generic-p5-single-factor": (
        "168fd2ced0e136493d9ae6b14403a9ef6e7f1944955a9f8bf6e331925f0cae3e",
        None,
    ),
    "genus-zero-p13-n3-dihedral-t4": (
        "c1ee5ffdeb7682759fffc15e8af2ebfd61e41547da01ba21782af800744aafc2",
        "df8b52b15d8d46c7aaede5930b17c6061f46126a4651c0413deffb5694a3f481",
    ),
}

CONFIGS = _reference_configs()


def test_golden_set_covers_every_reference_config():
    assert set(CONFIGS) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reference_certificate_digest(name):
    cert = construct(CONFIGS[name])
    certificate_digest, class_reps_digest = GOLDEN[name]
    assert cert["certificate_digest"] == certificate_digest
    assert cert["orbit"]["class_reps_digest"] == class_reps_digest


# the benchmark's many-class configurations (perfbench/run.py): thousands
# of class reps each, so every per-rep peripheral image and order counts
MANY_CLASS_GOLDEN = {
    "char-cyclic-n6": (
        ConstructConfig(case="char-cyclic", genus=0, punctures=6),
        "a0465bfa2d760649d15ca6c609c9ddb808c044f832812739af21acd05740afe4",
        "448efa31f7930ad24ff3d0df3f7469ed13074461e53c8173f83d82aba360df5c",
    ),
    "char-sym3-g3": (
        ConstructConfig(case="char-sym3", genus=3),
        "c7310d0529204c183b94e01b4d35c2bc20f9b9fc684b5681265c34bfd7d7f7c0",
        "81bd596f237e17ff2302f7ce1532fdfe3c9af16ea17540a13dafae2f874d01d5",
    ),
    "generic-p5": (
        ConstructConfig(case="generic", p=5, genus=1, punctures=2),
        "0aa4a6e31f81f2526cb51aa04f2d44ce5d2b05ee514f423ea51f28c683787607",
        "a6a857564ea865974a54669a2a84d4a79eea75daded66cfd53f09fab862a4fe9",
    ),
}


@pytest.mark.parametrize("name", sorted(MANY_CLASS_GOLDEN))
def test_many_class_certificate_digest(name):
    config, certificate_digest, class_reps_digest = MANY_CLASS_GOLDEN[name]
    cert = construct(config)
    assert cert["certificate_digest"] == certificate_digest
    assert cert["orbit"]["class_reps_digest"] == class_reps_digest


# the primary genus-zero configuration of the benchmark (perfbench/run.py,
# psl2-rank2; its once-punctured one is in GOLDEN): the PSL2 table, the
# normalizers, the d0 conjugacy witness and the batched closure feed it
PSL2_RANK2_GOLDEN = {
    "genus-zero-p13-n3": (
        ConstructConfig(case="genus-zero", p=13, punctures=3),
        "e47b96e796971949b7006ef29f5dbc8bd9b3655b7e4fa88b41038b7a77c883d4",
        "936c81d67c82a17c01229a2c0dfb73abff6adc5a7bd47fc3b0cd731f607f5776",
    ),
}


@pytest.mark.parametrize("name", sorted(PSL2_RANK2_GOLDEN))
def test_psl2_rank2_certificate_digest(name):
    config, certificate_digest, class_reps_digest = PSL2_RANK2_GOLDEN[name]
    cert = construct(config)
    assert cert["certificate_digest"] == certificate_digest
    assert cert["orbit"]["class_reps_digest"] == class_reps_digest


# the reference set, both PSL(2, 13) configurations of the benchmark
# (its once-punctured one is in GOLDEN) and its Z/6 many-class one
EDGE_CASES = {
    **{name: (CONFIGS[name], *digests) for name, digests in GOLDEN.items()},
    **PSL2_RANK2_GOLDEN,
    "char-cyclic-n6": MANY_CLASS_GOLDEN["char-cyclic-n6"],
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_construct_and_verify_run_on_table_ids_only(name, monkeypatch):
    """The package has no element type: ids are its only representation,
    and entries cross the JSON edge through the table codec.  With the
    tables built afresh, every pinned certificate comes out and replays
    the same."""
    monkeypatch.setattr(groups, "_TABLE_CACHE", {})
    config, certificate_digest, class_reps_digest = EDGE_CASES[name]
    cert = construct(config)
    assert cert["certificate_digest"] == certificate_digest
    assert cert["orbit"]["class_reps_digest"] == class_reps_digest
    report = verify(cert)
    assert report.digest_ok and report.mismatches == ()
