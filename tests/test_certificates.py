"""Tests for certificate construction, verification, and the CLI."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from coverforge.certificates import (
    ConstructConfig,
    attach_digest,
    bundle_report,
    canonical_json,
    construct,
    parse_certificate,
    verify,
    write_certificate,
)
from coverforge.errors import BadParameters, BudgetExceeded, SchemaMismatch
from coverforge.orbits import DEFAULT_ORBIT_BUDGET, PRODUCT_CLOSURE_CAP


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "coverforge", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def _overwrite(section, **changes):
    """A probe that overwrites keys of one section of a certificate."""
    return lambda cert: {**cert, section: {**cert[section], **changes}}


@pytest.fixture(scope="module")
def char_cyclic_cert():
    return construct(ConstructConfig(case="char-cyclic", genus=0, punctures=3))


@pytest.fixture(scope="module")
def genus_zero_cert():
    return construct(ConstructConfig(case="genus-zero", p=5, punctures=3))


@pytest.fixture(scope="module")
def genus_zero_p13_cert():
    return construct(ConstructConfig(case="genus-zero", p=13, punctures=3))


@pytest.fixture(scope="module")
def once_punctured_cert():
    return construct(ConstructConfig(case="once-punctured", p=13, genus=1))


class TestConstruction:
    def test_char_cyclic_all_pass(self, char_cyclic_cert):
        cert = char_cyclic_cert
        assert cert["all_checks_pass"]
        assert cert["variant"] == "characteristic-core (orbit variant)"
        assert cert["cover"]["peripheral_orders"] == [3, 3, 3]
        assert cert["cover"]["degree"] == 9
        assert cert["orbit"]["k"] == 4

    def test_char_sym3(self):
        cert = construct(ConstructConfig(case="char-sym3", genus=1))
        assert cert["all_checks_pass"]
        assert cert["cover"]["peripheral_orders"] == [3]
        assert cert["cover"]["degree"] == 108

    def test_genus_zero_p5_records_honest_failures(self, genus_zero_cert):
        # at p = 5 the diagonal normalizer is a Klein four-group whose
        # normalizer has order 12, so these two checks genuinely fail
        cert = genus_zero_cert
        checks = cert["checks"]
        assert checks["self_normalizing"] is False
        assert checks["deck_trivial"] is False
        assert not cert["all_checks_pass"]
        passing = {
            k for k, v in checks.items() if v
        }
        assert {
            "relation_holds",
            "surjective",
            "peripheral_orders_expected",
            "aut_eq_inn",
            "orbit_completed",
            "characteristic_closure",
            "hall_surjective",
            "local_degrees_divisible_by_delta",
            "genus_ge_bound",
            "chi_even",
        } <= passing

    def test_genus_zero_p5_geometry(self, genus_zero_cert):
        cert = genus_zero_cert
        assert cert["orbit"]["size"] == 600
        assert cert["orbit"]["k"] == 10
        assert cert["cover"]["degree"] == 15**10
        assert cert["cover"]["euler"] == -516678750000
        assert cert["cover"]["genus"] == 258339375001

    def test_single_factor_diagnostic(self):
        cert = construct(
            ConstructConfig(case="generic", p=5, genus=1, punctures=2, single_factor=True)
        )
        assert cert["variant"] == "single-factor-diagnostic"
        assert cert["cover"]["degree"] == 15
        assert cert["cover"]["euler"] == -24
        assert cert["cover"]["genus"] == 13
        assert cert["cover"]["bound"] == [5, 1]
        ram = cert["cover"]["ramification"]
        assert all(entry["local_degrees"] == [[5, 3]] for entry in ram)

    def test_determinism(self, char_cyclic_cert):
        again = construct(ConstructConfig(case="char-cyclic", genus=0, punctures=3))
        assert canonical_json(char_cyclic_cert) == canonical_json(again)

    def test_dihedral_variant_certificate(self):
        cert = construct(ConstructConfig(case="genus-zero", p=13, punctures=3, explicit_t=4))
        assert cert["cover"]["bound_kind"] == "proposition"
        assert cert["inputs"]["flags"]["explicit_t"] == 4
        assert cert["checks"]["peripheral_orders_expected"]
        assert cert["all_checks_pass"]

    def test_dihedral_variant_reducible_branch_is_honest(self):
        # t=2 at p=13 splits the trace polynomial: the last peripheral
        # order 6 shares a factor with the dihedral order 14, so the
        # coprimality condition genuinely fails and is recorded as such
        cert = construct(ConstructConfig(case="genus-zero", p=13, punctures=3, explicit_t=2))
        assert cert["checks"]["peripheral_orders_expected"]
        assert not cert["checks"]["coprimality"]
        assert not cert["all_checks_pass"]

    def test_unknown_case_rejected(self):
        with pytest.raises(BadParameters):
            ConstructConfig(case="nonsense")

    @pytest.mark.parametrize("field", ["orbit_budget"])
    def test_non_positive_budgets_rejected(self, field):
        for value in (0, -1):
            with pytest.raises(BadParameters):
                ConstructConfig(case="char-cyclic", genus=0, punctures=3, **{field: value})

    def test_missing_parameters_rejected(self):
        with pytest.raises(BadParameters):
            construct(ConstructConfig(case="generic", p=5))


class TestVerification:
    def test_round_trip(self, char_cyclic_cert):
        text = canonical_json(char_cyclic_cert)
        assert parse_certificate(text) == char_cyclic_cert

    def test_genuine_certificate_passes(self, char_cyclic_cert):
        report = verify(char_cyclic_cert)
        assert report.passed
        assert report.digest_ok and not report.mismatches

    def test_honest_failures_fail_verification(self, genus_zero_cert):
        # recomputation agrees bit for bit, but the check vector carries
        # genuine falses, so overall verification does not pass
        report = verify(genus_zero_cert)
        assert report.digest_ok
        assert not report.mismatches
        assert not report.all_checks_true
        assert not report.passed

    def test_tampered_field_detected_by_digest(self, char_cyclic_cert):
        mutated = json.loads(canonical_json(char_cyclic_cert))
        mutated["cover"]["degree"] += 1
        report = verify(mutated)
        assert not report.passed and not report.digest_ok
        assert report.mismatches == ("certificate_digest",)

    def test_tampered_and_redigested_detected_by_recomputation(self, char_cyclic_cert):
        mutated = json.loads(canonical_json(char_cyclic_cert))
        mutated["cover"]["degree"] += 1
        mutated = attach_digest(mutated)
        report = verify(mutated)
        assert not report.passed and report.digest_ok
        assert any("cover.degree" in path for path in report.mismatches)

    def test_foreign_t_detected(self):
        cert = construct(ConstructConfig(case="genus-zero", p=13, punctures=3))
        mutated = json.loads(canonical_json(cert))
        mutated["constants"]["t"] = 3
        mutated = attach_digest(mutated)
        report = verify(mutated)
        assert not report.passed
        assert any(path.startswith("constants.t") for path in report.mismatches)

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            parse_certificate("{}")
        with pytest.raises(SchemaMismatch):
            parse_certificate("not json")
        for root in ("[1]", '"x"', "3", "null"):
            with pytest.raises(SchemaMismatch):
                parse_certificate(root)

    def test_write_is_atomic(self, tmp_path, char_cyclic_cert):
        path = tmp_path / "cert.json"
        write_certificate(char_cyclic_cert, str(path))
        assert parse_certificate(path.read_text()) == char_cyclic_cert
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".coverforge-")]
        assert not leftovers


class TestBundleReport:
    @pytest.mark.parametrize("g,h,expected", [(2, 2, 4), (13, 2, 48), (4, 2, 12)])
    def test_euler_values(self, g, h, expected):
        assert bundle_report(g, h)["euler_total"] == expected

    def test_distinct_fibers_give_distinct_euler(self):
        values = {bundle_report(g, 2)["euler_total"] for g in (2, 4, 13, 20)}
        assert len(values) == 4

    def test_premise_flags(self):
        report = bundle_report(3, 2, ["null-homologous"])
        assert report["signature_zero"] and not report["atoroidal"]
        both = bundle_report(3, 2, ["null-homologous", "purely-pA"])
        assert both["signature_zero"] and both["atoroidal"]

    def test_low_genus_rejected(self):
        with pytest.raises(BadParameters):
            bundle_report(1, 2)
        with pytest.raises(BadParameters):
            bundle_report(2, 1)

    def test_unknown_premise_rejected(self):
        with pytest.raises(BadParameters):
            bundle_report(2, 2, ["made-up"])


class TestCli:
    def test_construct_verify_cycle(self, tmp_path):
        out = tmp_path / "cert.json"
        proc = run_cli(
            "construct", "--case", "char-cyclic", "--genus", "0", "--punctures", "3",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        proc = run_cli("verify", str(out))
        assert proc.returncode == 0, proc.stderr

    def test_verify_detects_mutation(self, tmp_path):
        out = tmp_path / "cert.json"
        run_cli("construct", "--case", "char-cyclic", "--genus", "0", "--punctures", "3",
                "--out", str(out))
        cert = json.loads(out.read_text())
        cert["orbit"]["size"] += 1
        out.write_text(json.dumps(cert))
        proc = run_cli("verify", str(out))
        assert proc.returncode == 4

    def test_parameter_error_exit_code(self, tmp_path):
        out = tmp_path / "nope.json"
        proc = run_cli("construct", "--case", "genus-zero", "--p", "7", "--punctures", "3",
                       "--out", str(out))
        assert proc.returncode == 2
        assert not out.exists()

    def test_budget_exit_code_and_no_file(self, tmp_path):
        out = tmp_path / "nope.json"
        proc = run_cli(
            "construct", "--case", "genus-zero", "--p", "5", "--punctures", "3",
            "--orbit-budget", "10", "--out", str(out),
        )
        assert proc.returncode == 3
        assert not out.exists()

    def test_env_budget_override(self, tmp_path):
        out = tmp_path / "nope.json"
        proc = run_cli(
            "construct", "--case", "genus-zero", "--p", "5", "--punctures", "3",
            "--out", str(out),
            env_extra={"COVERFORGE_ORBIT_BUDGET": "10"},
        )
        assert proc.returncode == 3
        assert not out.exists()

    def test_no_coset_budget(self, tmp_path, monkeypatch):
        # the coset space of genus-zero p = 5 has 15 points; no option or
        # environment variable bounds it
        from coverforge import cli

        args = ("construct", "--case", "genus-zero", "--p", "5", "--punctures", "3")
        out = tmp_path / "cert.json"
        proc = run_cli(*args, "--coset-budget", "5", "--out", str(out))
        assert proc.returncode == 2
        assert "--coset-budget" in proc.stderr
        assert not out.exists()
        monkeypatch.setenv("COVERFORGE_COSET_BUDGET", "5")
        assert cli.main([*args, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["budgets"]["coset"] == 10**6

    @pytest.mark.parametrize("root", ["[1]", '"x"'])
    def test_verify_non_object_root_exit_code(self, tmp_path, root):
        path = tmp_path / "cert.json"
        path.write_text(root)
        proc = run_cli("verify", str(path))
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "JSON object" in proc.stderr

    @pytest.mark.parametrize(
        "fixture,probe",
        [
            ("char_cyclic_cert", lambda cert: {"schema_version": "1"}),
            ("char_cyclic_cert", lambda cert: {**cert, "inputs": [1]}),
            ("char_cyclic_cert", _overwrite("budgets", orbit="x")),
            ("char_cyclic_cert", _overwrite("budgets", orbit=True)),
            ("char_cyclic_cert", lambda cert: {**cert, "inputs": {
                k: v for k, v in cert["inputs"].items() if k != "flags"}}),
            # recorded inputs that fail a builder precondition of the replay
            ("genus_zero_p13_cert",
             _overwrite("inputs", flags={"single_factor": False, "explicit_t": 13})),
            ("genus_zero_cert", _overwrite("inputs", p=9)),
            ("genus_zero_cert", _overwrite("inputs", p=3)),
            ("genus_zero_cert", _overwrite("inputs", p=-7)),
            ("genus_zero_cert", _overwrite("inputs", punctures=2)),
            ("genus_zero_cert", _overwrite("inputs", genus=1)),
            ("char_cyclic_cert", _overwrite("inputs", case="nope")),
            ("char_cyclic_cert", _overwrite("budgets", orbit=0)),
        ],
        ids=["schema-only", "inputs-list", "budget-string", "budget-bool", "no-flags",
             "explicit-t-zero-mod-p", "p-9", "p-3", "p-minus-7", "genus-zero-two-punctures",
             "genus-zero-genus-1", "unknown-case", "budget-zero"],
    )
    def test_verify_malformed_inputs_exit_code(self, tmp_path, request, fixture, probe):
        # the digest is valid, so only the schema check or the replay's
        # preconditions can reject these
        path = tmp_path / "cert.json"
        path.write_text(canonical_json(attach_digest(probe(request.getfixturevalue(fixture)))))
        proc = run_cli("verify", str(path))
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "verification error" in proc.stderr

    @pytest.mark.parametrize(
        "case_args",
        [
            ("--case", "char-cyclic", "--genus", "0", "--punctures", "3"),
            ("--case", "genus-zero", "--p", "5", "--punctures", "3"),
        ],
    )
    def test_non_positive_budget_exit_code(self, tmp_path, case_args):
        out = tmp_path / "nope.json"
        for budget_args, env in (
            (("--orbit-budget", "0"), None),
            ((), {"COVERFORGE_ORBIT_BUDGET": "-5"}),
        ):
            proc = run_cli("construct", *case_args, *budget_args, "--out", str(out),
                           env_extra=env)
            assert proc.returncode == 2, (budget_args, env, proc.stderr)
            assert "must be positive" in proc.stderr
            assert not out.exists()

    def test_verify_over_cap_budget_exits_before_work(self, tmp_path, monkeypatch, capsys):
        # a generic p = 5 certificate moved to p = 13 (a rank-3 orbit of
        # about 1.3e9 states) with an orbit budget of 1e12 and a valid
        # digest: only the verifier's own cap can stop its replay
        import coverforge.certificates as certificates
        from coverforge import cli

        def spy(*args, **kwargs):
            raise AssertionError("orbit_closure called on an over-cap certificate")

        cert = construct(ConstructConfig(case="generic", p=5, genus=1, punctures=2))
        crafted = {
            **cert,
            "inputs": {**cert["inputs"], "p": 13},
            "budgets": {**cert["budgets"], "orbit": 10**12},
        }
        path = tmp_path / "cert.json"
        path.write_text(canonical_json(attach_digest(crafted)))
        monkeypatch.setattr(certificates, "orbit_closure", spy)
        start = time.perf_counter()
        assert cli.main(["verify", str(path)]) == 3
        assert time.perf_counter() - start < 0.5
        assert "verifier cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case,p",
        [
            ("genus-zero", 10**16 + 61),
            ("genus-zero", 10**16 + 1),
            ("genus-zero", 29),
            ("generic", 10**16 + 61),
            ("once-punctured", 10**16 + 61),
        ],
        ids=["prime", "composite", "p29", "generic-prime", "once-punctured-prime"],
    )
    def test_verify_p_above_table_limit_exits_before_work(
        self, tmp_path, monkeypatch, capsys, genus_zero_cert, case, p
    ):
        # a genus-zero p = 5 certificate moved to a PSL2 case and a p whose
        # PSL(2, p) is above the table limit, with a valid digest: the
        # verifier stops before any replay work, the primality test of p
        # included (a once-punctured file also records its pair A, B, C)
        import coverforge.catalog as catalog
        import coverforge.groups as groups
        from coverforge import cli

        def spy(n):
            raise AssertionError(f"is_prime({n}) ran on an over-limit certificate")

        genus, punctures = {"genus-zero": (0, 3), "generic": (1, 2), "once-punctured": (1, 1)}[case]
        inputs = {**genus_zero_cert["inputs"], "case": case, "p": p, "genus": genus,
                  "punctures": punctures}
        constants = dict(genus_zero_cert["constants"])
        if case == "once-punctured":
            constants.update(A=[0, 1, 12, 0], B=[0, 1, 12, 1], C=[2, 12, 12, 1])
        crafted = attach_digest({**genus_zero_cert, "inputs": inputs, "constants": constants})
        path = tmp_path / "cert.json"
        path.write_text(canonical_json(crafted))
        monkeypatch.setattr(catalog, "is_prime", spy)
        monkeypatch.setattr(groups, "is_prime", spy)
        start = time.perf_counter()
        assert cli.main(["verify", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "table limit" in capsys.readouterr().err
        with pytest.raises(BudgetExceeded) as exc:
            verify(crafted)
        assert (exc.value.used, exc.value.budget) == (p * (p * p - 1) // 2, groups.TABLE_LIMIT)

    def test_verify_huge_recorded_genus_exits_before_work(self, tmp_path, capsys):
        # a char-sym3 certificate whose recorded genus is 10**6, with a
        # valid digest: Sym(3) is far below the table limit, and the
        # replay's work grows with the rank 2g, so the rank limit stops it
        import coverforge.surfaces as surfaces
        from coverforge import cli

        cert = construct(ConstructConfig(case="char-sym3", genus=1))
        crafted = attach_digest({**cert, "inputs": {**cert["inputs"], "genus": 10**6}})
        path = tmp_path / "cert.json"
        path.write_text(canonical_json(crafted))
        start = time.perf_counter()
        assert cli.main(["verify", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "free rank 2000000 exceeds the rank limit" in capsys.readouterr().err
        with pytest.raises(BudgetExceeded) as exc:
            verify(crafted)
        assert (exc.value.used, exc.value.budget) == (2 * 10**6, surfaces.MAX_RANK)

    def test_construct_above_rank_limit_exits_3(self, tmp_path, capsys):
        # the largest rank passes the rank limit (Z/65 at rank 64 then
        # stops at the key limit); one more is refused by the rank limit
        from coverforge import cli
        from coverforge.surfaces import MAX_RANK

        out = tmp_path / "cert.json"
        for punctures, code, message in (
            (MAX_RANK + 1, 3, f"state key space 65**{MAX_RANK} reaches the key limit 2**32"),
            (MAX_RANK + 2, 3, f"free rank {MAX_RANK + 1} exceeds the rank limit {MAX_RANK}"),
        ):
            args = ["construct", "--case", "char-cyclic", "--genus", "0",
                    "--punctures", str(punctures), "--orbit-budget", "1000", "--out", str(out)]
            assert cli.main(args) == code
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["construct", "orbit"])
    def test_key_limit_exits_3_before_the_bfs(self, tmp_path, capsys, command):
        # Sym(3) at rank 24 has 6**24 >= 2**32 keys and is refused at
        # once, writing nothing; rank 12 (6**12, about 2.18e9 keys) passes
        # the key limit and overruns its budget at the suborbit bound, also
        # before any BFS
        from coverforge import cli

        out = tmp_path / "out"
        flag = "--out" if command == "construct" else "--dump"
        for genus, message in ((12, "state key space 6**24 reaches the key limit 2**32"),
                               (6, "orbit closure exceeded")):
            args = [command, "--case", "char-sym3", "--genus", str(genus),
                    "--orbit-budget", "1000", flag, str(out)]
            start = time.perf_counter()
            assert cli.main(args) == 3
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == ""
            assert not out.exists()

    def test_verify_recorded_genus_above_key_limit_exits_3(self, tmp_path, capsys):
        # a char-sym3 certificate whose recorded genus is 12, with a valid
        # digest: inside the rank limit, but its 6**24 keys reach the key
        # limit, so the replay stops before the orbit BFS
        from coverforge import cli

        cert = construct(ConstructConfig(case="char-sym3", genus=1))
        crafted = attach_digest({**cert, "inputs": {**cert["inputs"], "genus": 12}})
        path = tmp_path / "cert.json"
        path.write_text(canonical_json(crafted))
        start = time.perf_counter()
        assert cli.main(["verify", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "state key space 6**24 reaches the key limit" in capsys.readouterr().err
        with pytest.raises(BudgetExceeded) as exc:
            verify(crafted)
        assert (exc.value.used, exc.value.budget) == (6**24, 2**32)

    @pytest.mark.parametrize("digits", [5000, 10**6])
    def test_verify_over_long_integer_exits_4(self, tmp_path, capsys, char_cyclic_cert, digits):
        # an integer beyond the int/str digit limit is an unreadable
        # certificate, not a traceback, and is rejected without parsing it
        from coverforge import cli

        text = canonical_json(char_cyclic_cert)
        assert '"seed":null' in text
        path = tmp_path / "cert.json"
        path.write_text(text.replace('"seed":null', '"seed":' + "7" * digits))
        start = time.perf_counter()
        assert cli.main(["verify", str(path)]) == 4
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "verification error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"\xff\xfe{}", "not UTF-8"),
            (b"[" * 990 + b"]" * 990, "nests deeper"),
            (b"[" * 200_000 + b"]" * 200_000, "nests deeper"),
        ],
        ids=["not-utf8", "depth-990", "depth-200000"],
    )
    def test_verify_unreadable_document_exits_4(self, tmp_path, capsys, content, message):
        from coverforge import cli

        path = tmp_path / "cert.json"
        path.write_bytes(content)
        start = time.perf_counter()
        assert cli.main(["verify", str(path)]) == 4
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_verify_directory_exits_2(self, tmp_path, capsys):
        from coverforge import cli

        start = time.perf_counter()
        assert cli.main(["verify", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "Is a directory" in err and "Traceback" not in err

    def test_verify_nesting_limit(self, char_cyclic_cert):
        # at the limit the document parses and its digest and replay run;
        # one level more is refused by the parser
        from coverforge.certificates import _MAX_NESTING

        def nested(depth):
            # the root object is one level, the list holds depth - 1
            value = []
            for _ in range(depth - 2):
                value = [value]
            return attach_digest({**char_cyclic_cert, "extra": value})

        cert = parse_certificate(canonical_json(nested(_MAX_NESTING)))
        report = verify(cert)
        # the rebuilt certificate has no "extra", so its digest differs too
        assert report.digest_ok and report.mismatches == ("certificate_digest", "extra")
        with pytest.raises(SchemaMismatch, match="nests deeper"):
            parse_certificate(canonical_json(nested(_MAX_NESTING + 1)))

    def test_char_cyclic_table_limit_before_work(self, tmp_path, capsys, char_cyclic_cert):
        # Z/n with n = 10**9 punctures: the table limit stops construct and
        # the replay of a digest-valid certificate before any n-long work
        from coverforge import cli

        out = tmp_path / "out.json"
        path = tmp_path / "cert.json"
        crafted = {**char_cyclic_cert, "inputs": {**char_cyclic_cert["inputs"], "punctures": 10**9}}
        path.write_text(canonical_json(attach_digest(crafted)))
        for args in (
            ["construct", "--case", "char-cyclic", "--genus", "0", "--punctures", str(10**9),
             "--out", str(out)],
            ["verify", str(path)],
        ):
            start = time.perf_counter()
            assert cli.main(args) == 3
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert "table limit" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,cap,env", [("orbit", DEFAULT_ORBIT_BUDGET, "COVERFORGE_ORBIT_BUDGET")], ids=["orbit"]
    )
    def test_verifier_caps(self, tmp_path, monkeypatch, char_cyclic_cert, key, cap, env):
        from coverforge import cli

        monkeypatch.delenv(env, raising=False)
        path = tmp_path / "cert.json"
        for budget, code in ((cap, 0), (cap + 1, 3)):
            cert = {**char_cyclic_cert, "budgets": {**char_cyclic_cert["budgets"], key: budget}}
            path.write_text(canonical_json(attach_digest(cert)))
            assert cli.main(["verify", str(path)]) == code, (key, budget)
        with pytest.raises(BudgetExceeded) as exc:
            verify(attach_digest(cert))
        assert (exc.value.used, exc.value.budget) == (cap + 1, cap)
        # the environment variable raises the verifier's cap
        monkeypatch.setenv(env, str(cap + 1))
        assert cli.main(["verify", str(path)]) == 0

    @pytest.mark.parametrize(
        "key,fixed",
        [("closure", 10**7), ("hall_direct_cap", 10**7), ("coset", 10**6)],
        ids=["closure", "hall-direct", "coset"],
    )
    def test_fixed_product_cap(self, tmp_path, capsys, char_cyclic_cert, key, fixed):
        # the product closure cap and the coset value are no budgets a
        # file can choose: the replay records the fixed value, so any
        # other one is a mismatch
        from coverforge import cli

        assert PRODUCT_CLOSURE_CAP == 10**7
        path = tmp_path / "cert.json"
        for value, code in ((fixed, 0), (1, 4), (fixed - 1, 4), (fixed + 1, 4)):
            cert = {**char_cyclic_cert, "budgets": {**char_cyclic_cert["budgets"], key: value}}
            path.write_text(canonical_json(attach_digest(cert)))
            assert cli.main(["verify", str(path)]) == code, (key, value)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if code:
                assert f"mismatch at budgets.{key}" in err

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c: {**c, "B": c["A"]},
            lambda c: {**c, "A": [1, 1, 1, 1]},
            lambda c: {key: value for key, value in c.items() if key != "A"},
            # malformed entries: the codec reads them with Python ints, or
            # refuses them, and never ends in a traceback
            lambda c: {**c, "A": [10**30 + c["A"][0], *c["A"][1:]]},
            lambda c: {**c, "A": [str(x) for x in c["A"]]},
            lambda c: {**c, "A": [bool(x) for x in c["A"]]},
            lambda c: {**c, "A": 1},
            lambda c: {**c, "A": c["A"][:3]},
            lambda c: {**c, "A": [c["A"][:2], c["A"][2:]]},
            lambda c: {**c, "A": None},
            lambda c: {**c, "A": dict(zip("abcd", c["A"]))},
            lambda c: {**c, "A": [float("inf"), *c["A"][1:]]},
        ],
        ids=["b-equals-a", "a-not-unimodular", "a-missing", "a-huge-entry", "a-strings",
             "a-bools", "a-bare-int", "a-three-entries", "a-nested", "a-null", "a-dict",
             "a-infinity"],
    )
    def test_verify_tampered_commutator_pair_exits_4(
        self, tmp_path, capsys, monkeypatch, once_punctured_cert, tamper
    ):
        # a digest-valid once-punctured certificate whose recorded pair
        # fails its defining properties names the pair, with no traceback
        from coverforge import certificates, cli

        cert = {**once_punctured_cert, "constants": tamper(once_punctured_cert["constants"])}
        if "A" in cert["constants"]:
            # a recorded pair is refused before any replay work; without
            # one build_once_punctured searches afresh and the final diff refuses it
            def no_replay(*args, **kwargs):
                raise AssertionError("the orbit replay ran on a refused pair")

            monkeypatch.setattr(certificates, "orbit_closure", no_replay)
        path = tmp_path / "cert.json"
        path.write_text(canonical_json(attach_digest(cert)))
        assert cli.main(["verify", str(path)]) == 4
        err = capsys.readouterr().err
        assert "constants.A" in err and "Traceback" not in err

    def test_construct_and_verify_do_not_import_numpy_ma(self, tmp_path):
        # plain np.unique imports numpy.ma on first use, 16-31 ms per process
        script = (
            "import sys\n"
            "from coverforge.cli import main\n"
            "for i, args in enumerate(sys.argv[2:]):\n"
            "    out = f'{sys.argv[1]}/cert{i}.json'\n"
            "    assert main(['construct', *args.split(), '--out', out]) == 0\n"
            "    assert main(['verify', out]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path),
             "--case char-cyclic --genus 0 --punctures 3",
             "--case char-sym3 --genus 1",
             "--case once-punctured --p 13 --genus 1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_bundle_report_cli(self):
        proc = run_cli("bundle-report", "--fiber-genus", "13", "--base-genus", "2",
                       "--premise", "null-homologous")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["euler_total"] == 48 and report["signature_zero"]

    @pytest.mark.parametrize(
        "case_args,size,first,sha256",
        [
            (("--case", "char-cyclic", "--genus", "0", "--punctures", "3"), 8, [0, 1],
             "9457c8e4d351d3c6c61fa6a7352cc3fdc730ac251f42bde0bed588e5c5b2a323"),
            (("--case", "char-sym3", "--genus", "1"), 18, [[0, 2, 1], [1, 0, 2]],
             "9370403a41963569434ff7f981ac8cb67f57a4e0f1a277987a64d7fbc1bcfd39"),
            (("--case", "genus-zero", "--p", "5", "--punctures", "3"), 600,
             [[0, 1, 4, 0], [0, 1, 4, 1]],
             "70f058484a44138b6faed7a0f975fde49054d3899f4496130d5a17860938568e"),
            # spans many id_tuples blocks
            (("--case", "once-punctured", "--p", "13", "--genus", "1"), 107016,
             [[0, 1, 12, 0], [0, 1, 12, 1]],
             "3b09a7b65838b885bdaa92aacb36b29564c029579dff979036008bcaa5ddc599"),
        ],
        ids=["char-cyclic-g0-n3", "char-sym3-g1", "genus-zero-p5-n3", "once-punctured-p13"],
    )
    def test_orbit_dump(self, tmp_path, case_args, size, first, sha256):
        # one state per line, each element in its JSON form, in id order
        dump = tmp_path / "orbit.txt"
        proc = run_cli("orbit", *case_args, "--dump", str(dump))
        assert proc.returncode == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == size
        assert lines == sorted(lines, key=lambda s: json.loads(s))
        assert json.loads(lines[0]) == first
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == sha256

    def test_search_exhausted_exit_code(self, monkeypatch, capsys):
        import coverforge.cli as cli
        from coverforge.errors import SearchExhausted

        def boom(config):
            raise SearchExhausted("no admissible pair")

        monkeypatch.setattr(cli, "construct", boom)
        code = cli.main(["construct", "--case", "once-punctured", "--p", "13",
                         "--genus", "1"])
        assert code == 5
