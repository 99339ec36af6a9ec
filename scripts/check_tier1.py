#!/usr/bin/env python3
"""Pass a tier-1 run only when its failures are exactly the known ones.

    python -m pytest ... --junitxml=tier1.xml
    python scripts/check_tier1.py tier1.xml

Acceptance criteria 2 and 3 fail by design at p = 5 (see README), so
pytest's exit status is 1 on every healthy run.  This script reads the
JUnit XML report and exits 0 only when the failed or errored tests are
exactly those two: it exits 1 when any other test fails or errors, and
also when either known failure passes or is missing, since that means
the suite or the p = 5 data changed.  It exits 1 on a skipped test as
well, so a check that skips itself (a memory guard, say) cannot pass.
The line it prints on success carries the suite's wall time, the
report's `time`.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

# test ids as classname::name, the way the JUnit report spells them
EXPECTED_FAILURES = frozenset({
    "tests.test_acceptance::test_criterion_02_hypothesis_verification",
    "tests.test_acceptance::test_criterion_03_genus_zero_p5_pipeline",
})


def read_report(report_path: str) -> tuple[set[str], set[str], set[str], float]:
    """(ids of failed or errored test cases, ids of skipped ones, ids of
    all test cases, the wall time in seconds summed over the suites)."""
    root = ET.parse(report_path).getroot()
    seconds = sum(float(suite.get("time", 0)) for suite in root.iter("testsuite"))
    failed, skipped, seen = set(), set(), set()
    for case in root.iter("testcase"):
        test_id = f"{case.get('classname', '')}::{case.get('name', '')}"
        seen.add(test_id)
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(test_id)
        elif case.find("skipped") is not None:
            skipped.add(test_id)
    return failed, skipped, seen, seconds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_tier1.py REPORT.xml", file=sys.stderr)
        return 2
    failed, skipped, seen, seconds = read_report(argv[0])
    unexpected = sorted(failed - EXPECTED_FAILURES)
    missing = sorted(EXPECTED_FAILURES - seen)
    passing = sorted(EXPECTED_FAILURES - failed - set(missing))
    for name in unexpected:
        print(f"unexpected failure: {name}", file=sys.stderr)
    for name in missing:
        print(f"known failure not run: {name}", file=sys.stderr)
    for name in passing:
        print(f"known failure now passes: {name}", file=sys.stderr)
    for name in sorted(skipped):
        print(f"skipped: {name}", file=sys.stderr)
    if unexpected or missing or passing or skipped:
        return 1
    print(
        f"tier-1 ok: {len(seen)} test cases, only the {len(failed)} known failures failed,"
        f" in {seconds:.1f} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
