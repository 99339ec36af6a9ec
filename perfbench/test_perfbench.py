"""Fast checks of the benchmark itself, on the tiny `smoke` workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    proc = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "failed_ops" in proc.stdout


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path, time.perf_counter() + run.RUN_LIMIT_S)


SMOKE = run.WORKLOADS["smoke"][0]


def test_tampered_certificate_is_a_failed_operation(runner):
    runner.construct(SMOKE, traced=False)
    assert runner.ops[-1].failure is None
    cert_path = runner.work / f"{SMOKE.name}.json"
    cert = json.loads(cert_path.read_text())
    cert["cover"]["degree"] += 1
    cert_path.write_text(run._canonical(cert) + "\n")
    assert run.construct_failure(SMOKE, 0, cert_path) is not None
    runner.verify(SMOKE, traced=False)
    assert runner.ops[-1].failure is not None


@pytest.mark.parametrize("field", ["construct_exit", "verify_exit"])
def test_unexpected_exit_code_is_a_failed_operation(runner, field):
    wrong = dataclasses.replace(SMOKE, **{field: 3})
    runner.construct(wrong, traced=False)
    runner.verify(wrong, traced=False)
    construct_op, verify_op = runner.ops
    assert (construct_op.failure is not None) == (field == "construct_exit")
    assert (verify_op.failure is not None) == (field == "verify_exit")


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_times_are_scaled_by_the_reference_runs_next_to_them():
    def op(kind, wall):
        return run.Op(kind, kind, False, wall, 0.0, None)

    ops = [op("setup", 0.3), op("reference", 0.5), op("construct", 1.0),
           op("reference", 1.5), op("setup", 0.6)]
    scaled = run.reference_scaled(ops)
    assert scaled[0] == pytest.approx(run.REFERENCE_S * 0.3 / 0.5)
    assert scaled[2] == pytest.approx(run.REFERENCE_S * 1.0 / 1.0)
    assert scaled[4] == pytest.approx(run.REFERENCE_S * 0.6 / 1.5)
