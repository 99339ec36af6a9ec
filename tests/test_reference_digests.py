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

from coverforge import certificates, groups, surfaces
from coverforge.certificates import ConstructConfig, construct, verify
from coverforge.errors import BadParameters

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


_ORBIT_STAGE = ("orbit_closure", "aut_classes", "verify_characteristic_closure")


def _count_orbit_stage(monkeypatch) -> dict:
    """Count the pipeline's calls of each orbit-stage function."""
    counts = dict.fromkeys(_ORBIT_STAGE, 0)
    for name in _ORBIT_STAGE:
        def counted(*args, _name=name, _original=getattr(certificates, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(certificates, name, counted)
    return counts


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_one_orbit_stage_per_construct(name, monkeypatch):
    """Every case runs the orbit, its Aut classes and the closure check
    once, in the pipeline's one orbit stage; single-factor runs none."""
    counts = _count_orbit_stage(monkeypatch)
    construct(CONFIGS[name])
    expected = 0 if CONFIGS[name].single_factor else 1
    assert counts == dict.fromkeys(_ORBIT_STAGE, expected)


@pytest.mark.parametrize(
    "config",
    [
        ConstructConfig(case="char-cyclic", genus=0, punctures=3, single_factor=True),
        ConstructConfig(case="char-sym3", genus=1, single_factor=True),
    ],
    ids=["char-cyclic", "char-sym3"],
)
def test_characteristic_single_factor_refused_before_the_orbit(config, monkeypatch):
    counts = _count_orbit_stage(monkeypatch)
    with pytest.raises(BadParameters, match="single-factor mode applies to the PSL2 cases only"):
        construct(config)
    assert counts == dict.fromkeys(_ORBIT_STAGE, 0)


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


# the largest class partition tier-1 runs: char-cyclic g = 0, n = 8 has
# k = 520 192 classes over 2 080 768 states of a rank-7 orbit over Z/8
LARGEST_PARTITION_GOLDEN = {
    "char-cyclic-g0-n8": (
        ConstructConfig(case="char-cyclic", genus=0, punctures=8),
        "0731793fd6711e4fbff4ab40d253f76e25876af975dc462d8517e3aeeac7be11",
        "bb7ec8ffb8a861e70eea0c9becd9e02bce97f32692342000f324fdc4a5ee3f64",
    ),
}


@pytest.mark.parametrize("name", sorted(LARGEST_PARTITION_GOLDEN))
def test_largest_partition_certificate_digest(name):
    config, certificate_digest, class_reps_digest = LARGEST_PARTITION_GOLDEN[name]
    cert = construct(config)
    assert cert["orbit"]["k"] == 520_192 and cert["orbit"]["size"] == 2_080_768
    assert cert["certificate_digest"] == certificate_digest
    assert cert["orbit"]["class_reps_digest"] == class_reps_digest


# one more configuration per path through the orbit stage and the two
# cover stages: single-factor on a PSL2 target, each characteristic
# builder at another signature, and the dihedral variant at another t
STAGE_PATH_GOLDEN = {
    "genus-zero-p13-n3-single-factor": (
        ConstructConfig(case="genus-zero", p=13, punctures=3, single_factor=True),
        "440d37ec08afc8e9bbdf65b4eb2a689fa31bb53b475ba674388dfa2fc6bfa4a8",
        None,
    ),
    "char-cyclic-g1-n2": (
        ConstructConfig(case="char-cyclic", genus=1, punctures=2),
        "1fd97852d2e7b9d0ed8c5ca5081005564ae6529bbd370e0b6b9ffa020c6b1dc2",
        "a18322d62a1879b7ba7a71dce552eab2397f2333be0e92c411734a765cd47d55",
    ),
    "char-sym3-g2": (
        ConstructConfig(case="char-sym3", genus=2),
        "b11a6ee7f79cd564bcbd99083a6f6595671aafb6603e404843a5a696a452aac1",
        "1df5f497a1dc423e0ee06f661ce4464cb96487f820dd23d78aaf23f9fbd2d231",
    ),
    "genus-zero-p13-n3-dihedral-t2": (
        ConstructConfig(case="genus-zero", p=13, punctures=3, explicit_t=2),
        "0d687d38bf5fd60d3a3f96ba336e81df232784340ea3b7abcab8618a594788ef",
        "114c171a156a15e3f9aeaba9f176cf1f12e6231bd532cb9018d8525259cc3d3a",
    ),
}


@pytest.mark.parametrize("name", sorted(STAGE_PATH_GOLDEN))
def test_stage_path_certificate_digest(name):
    config, certificate_digest, class_reps_digest = STAGE_PATH_GOLDEN[name]
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


# the reference set and the benchmark's genus-zero PSL(2, 13) orbit
PERIPHERAL_PASS_CONFIGS = {
    **CONFIGS,
    "genus-zero-p13-n3": PSL2_RANK2_GOLDEN["genus-zero-p13-n3"][0],
}


@pytest.mark.parametrize("name", sorted(PERIPHERAL_PASS_CONFIGS))
def test_one_peripheral_pass_per_construct(name, monkeypatch):
    """A construct and a verify replay each derive peripheral ids once,
    wherever the function is looked up: for the class reps (the built
    tuple alone for single-factor), which both cover stages read.  Row 0
    of that pass is the built tuple, whose relation, surjectivity,
    orders and c_n the representation section reads there."""
    config = PERIPHERAL_PASS_CONFIGS[name]
    images = list(certificates._build_case(config).rep.images)
    calls = []
    original = surfaces.peripheral_ids

    def counted(table, signature, rep_ids):
        calls.append((len(rep_ids), [int(i) for i in rep_ids[0]]))
        return original(table, signature, rep_ids)

    monkeypatch.setattr(surfaces, "peripheral_ids", counted)
    monkeypatch.setattr(certificates, "peripheral_ids", counted)
    cert = construct(config)
    assert calls == [(cert["orbit"]["k"], images)]
    assert verify(cert).mismatches == ()
    assert calls == [(cert["orbit"]["k"], images)] * 2
