"""Tests for scripts/check_tier1.py, the judge of CI's tier-1 step: it
passes a JUnit report only when its failures are exactly the two known
p = 5 ones and nothing is skipped."""

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_tier1.py"
_spec = importlib.util.spec_from_file_location("check_tier1", _SCRIPT)
check_tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tier1)

KNOWN = sorted(check_tier1.EXPECTED_FAILURES)


def write_report(path, failed=(), passed=(), skipped=(), errored=(), seconds=12.5):
    """A pytest-shaped JUnit report with these test ids (classname::name)."""

    def case(test_id, body):
        classname, name = test_id.split("::")
        return f'<testcase classname="{classname}" name="{name}" time="0.1">{body}</testcase>'

    cases = (
        [case(t, '<failure message="boom">boom</failure>') for t in failed]
        + [case(t, '<error message="boom">boom</error>') for t in errored]
        + [case(t, '<skipped message="skip" />') for t in skipped]
        + [case(t, "") for t in passed]
    )
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">'
        f'<testsuite name="pytest" tests="{len(cases)}" time="{seconds}">'
        + "".join(cases)
        + "</testsuite></testsuites>"
    )
    return str(path)


def test_exactly_the_known_failures_pass(tmp_path, capsys):
    report = write_report(tmp_path / "r.xml", failed=KNOWN, passed=["tests.test_a::test_ok"])
    assert check_tier1.main([report]) == 0
    assert capsys.readouterr().out == (
        "tier-1 ok: 3 test cases, only the 2 known failures failed, in 12.5 s\n"
    )


@pytest.mark.parametrize("kind", ["failure", "error"])
def test_one_more_failure_fails(tmp_path, kind):
    new = ["tests.test_a::test_new"]
    if kind == "failure":
        report = write_report(tmp_path / "r.xml", failed=KNOWN + new)
    else:
        report = write_report(tmp_path / "r.xml", failed=KNOWN, errored=new)
    assert check_tier1.main([report]) == 1


def test_a_skipped_test_fails(tmp_path):
    report = write_report(tmp_path / "r.xml", failed=KNOWN, skipped=["tests.test_a::test_guard"])
    assert check_tier1.main([report]) == 1


def test_a_known_failure_that_passes_fails(tmp_path):
    report = write_report(tmp_path / "r.xml", failed=KNOWN[:1], passed=KNOWN[1:])
    assert check_tier1.main([report]) == 1


def test_a_known_failure_that_is_missing_fails(tmp_path):
    report = write_report(tmp_path / "r.xml", failed=KNOWN[:1])
    assert check_tier1.main([report]) == 1
