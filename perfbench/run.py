"""End-to-end and per-layer benchmark of the coverforge CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is a fresh `python -m coverforge` process, run closed
loop: one client, the next operation starts after the previous exits.
Each configuration of a workload runs as a group: `construct`, then
`verify` of the certificate it wrote, then one `bundle-report` for the
set-up time and one perfbench/reference.py for the host's speed. Rounds
run every configuration's group once, in an order the seed shuffles; the
first round always runs, and a later group only if its previous duration
says it ends within S seconds. Every operation's outcome is checked
against the expectation recorded below, so a faster wrong answer counts
as failed. The time metrics are wall times scaled by the reference runs
next to each operation (see REFERENCE_S); the summary also prints the
unscaled wall times.

--trace 0 reports the end-to-end metrics; --trace 1 runs each operation
under perfbench/traced.py and reports per-layer self times and counters.
The last line of stdout is the JSON result; the lines before it are a
readable summary. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from traced import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
WORK = ROOT / ".perfbench-work"

# The whole run must end well inside three minutes; an operation still
# running at this point is killed and counted as failed.
RUN_LIMIT_S = 165.0
SETUP_REPEATS = 3   # more follow, one after each group
SETUP_ARGS = ("bundle-report", "--fiber-genus", "2", "--base-genus", "2")

# The host's speed drifts by up to 30 % within a minute, with nothing
# else running in the guest, and reference.py slows with coverforge. So
# every time metric scales each operation's wall time by REFERENCE_S over
# the mean of the reference.py runs just before and after it: seconds on
# a host where reference.py takes REFERENCE_S, about its median on the
# 2-vCPU KVM Xeon (2.1 GHz) this benchmark was tuned on.
REFERENCE_S = 0.65
REFERENCE_CHECKSUM = "1782483"


@dataclass(frozen=True)
class Config:
    """One construct command and its outcome, recorded at commit d26d01e.

    `certificate_digest` is None when construct must fail without writing
    a file; `verify_exit` is None when there is no certificate to verify.
    """

    name: str
    args: tuple[str, ...]
    construct_exit: int
    certificate_digest: str | None
    class_reps_digest: str | None
    verify_exit: int | None


def _cfg(name, args, construct_exit, cert_digest, reps_digest, verify_exit):
    return Config(name, tuple(args.split()), construct_exit, cert_digest, reps_digest,
                  verify_exit)


# verify exits 4 on the characteristic certificates and on p = 5 by
# design: degree_computed is false (the product order is over the closure
# budget), and p = 5 fails the paper's hypotheses. Their reports still
# carry digest_ok true and no mismatches, which the oracle requires.
#
# Every operation takes about 0.3-3 s, so a run of 40 s holds five or
# more of each (kind, configuration), and their median rides out a few
# slow ones.
WORKLOADS: dict[str, tuple[Config, ...]] = {
    "psl2-rank2": (
        _cfg("genus-zero-p13", "--case genus-zero --p 13 --punctures 3", 0,
             "e47b96e796971949b7006ef29f5dbc8bd9b3655b7e4fa88b41038b7a77c883d4",
             "936c81d67c82a17c01229a2c0dfb73abff6adc5a7bd47fc3b0cd731f607f5776", 0),
        _cfg("once-punctured-p13", "--case once-punctured --p 13 --genus 1", 0,
             "df2d32c356fcd4b2c00c3a866b58e24427868245cb5cfcafd4f44efeb8b7ae11",
             "32318e515fbf551d5b554790e0916c56aeaa7cf946a00a4cb6e491e6b314a6fe", 0),
    ),
    "rank3-overrun": (
        _cfg("generic-p13-overrun",
             "--case generic --p 13 --genus 1 --punctures 2 --orbit-budget 1000000",
             3, None, None, None),
        # the only rank-3 orbit that completes today; it gives the
        # workload a verify and the BFS a completed rank-3 run
        _cfg("generic-p5", "--case generic --p 5 --genus 1 --punctures 2", 0,
             "0aa4a6e31f81f2526cb51aa04f2d44ce5d2b05ee514f423ea51f28c683787607",
             "a6a857564ea865974a54669a2a84d4a79eea75daded66cfd53f09fab862a4fe9", 4),
    ),
    "char-many-classes": (
        _cfg("char-cyclic-n6", "--case char-cyclic --genus 0 --punctures 6", 0,
             "a0465bfa2d760649d15ca6c609c9ddb808c044f832812739af21acd05740afe4",
             "448efa31f7930ad24ff3d0df3f7469ed13074461e53c8173f83d82aba360df5c", 4),
        _cfg("char-sym3-g3", "--case char-sym3 --genus 3", 0,
             "c7310d0529204c183b94e01b4d35c2bc20f9b9fc684b5681265c34bfd7d7f7c0",
             "81bd596f237e17ff2302f7ce1532fdfe3c9af16ea17540a13dafae2f874d01d5", 4),
    ),
    # tiny inputs for the benchmark's own tests; not a measured workload
    "smoke": (
        _cfg("char-cyclic-n3", "--case char-cyclic --genus 0 --punctures 3", 0,
             "3a1862c0283330e20c5ec9313494592932c971af6abbee0a7cd08c2d1a077d28",
             "b31d75c5b315de655d4c1be32793a8bd023ff3fa0fa012d268ac69410530cbf4", 0),
        _cfg("once-punctured-p13", "--case once-punctured --p 13 --genus 1", 0,
             "df2d32c356fcd4b2c00c3a866b58e24427868245cb5cfcafd4f44efeb8b7ae11",
             "32318e515fbf551d5b554790e0916c56aeaa7cf946a00a4cb6e491e6b314a6fe", 0),
    ),
}

E2E_UNITS = {"setup_s": "s", "construct_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {f"{layer}_s": "s" for layer in LAYERS}
LAYER_UNITS.update({
    "groups.table_bytes": "bytes",
    "orbits.states": "count",
    "orbits.expansions": "count",
    "orbits.levels": "count",
    "orbits.k": "count",
    "orbits.states_per_s": "1/s",
    "certificates.cert_bytes": "bytes",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
})
SUMMED_COUNTERS = ("states", "expansions")


# ---------------------------------------------------------------------------
# Oracle: each returns None when the outcome is the recorded one, else why not

def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def construct_failure(config: Config, code: int, cert_path: Path) -> str | None:
    if code != config.construct_exit:
        return f"construct exit {code}, expected {config.construct_exit}"
    if config.certificate_digest is None:
        return "a certificate was written" if cert_path.exists() else None
    try:
        cert = json.loads(cert_path.read_text())
    except (OSError, ValueError) as exc:
        return f"certificate unreadable: {exc}"
    if not isinstance(cert, dict):
        return "certificate is not a JSON object"
    if cert.get("certificate_digest") != config.certificate_digest:
        return "certificate_digest differs from the recorded one"
    orbit = cert.get("orbit")
    if not isinstance(orbit, dict) or orbit.get("class_reps_digest") != config.class_reps_digest:
        return "orbit.class_reps_digest differs from the recorded one"
    body = {key: value for key, value in cert.items() if key != "certificate_digest"}
    if hashlib.sha256(_canonical(body).encode()).hexdigest() != config.certificate_digest:
        return "certificate content does not hash to its digest"
    return None


def verify_failure(config: Config, code: int, stdout: str) -> str | None:
    if code != config.verify_exit:
        return f"verify exit {code}, expected {config.verify_exit}"
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return "verify printed no JSON report"
    if report.get("digest_ok") is not True or report.get("mismatches") != []:
        return f"verify report digest_ok={report.get('digest_ok')} " \
               f"mismatches={report.get('mismatches')}"
    return None


def reference_failure(code: int, stdout: str) -> str | None:
    if code != 0 or stdout.strip() != REFERENCE_CHECKSUM:
        return f"reference.py exit {code}, printed {stdout.strip()[:40]!r}"
    return None


def setup_failure(code: int, stdout: str) -> str | None:
    if code != 0:
        return f"bundle-report exit {code}, expected 0"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "bundle-report printed no JSON"
    if not isinstance(report, dict) or report.get("euler_total") != 4:
        return "bundle-report euler_total is not 4"
    return None


# ---------------------------------------------------------------------------
# Processes

@dataclass
class Op:
    kind: str             # "setup" | "reference" | "construct" | "verify"
    config: str
    traced: bool
    wall_s: float
    rss_mb: float
    failure: str | None
    trace: dict | None = None
    cert_bytes: int = 0


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs one process at a time and keeps every operation's outcome."""

    def __init__(self, work: Path, limit_at: float):
        self.work = work
        self.limit_at = limit_at
        self.ops: list[Op] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    @property
    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.limit_at

    def spawn(self, argv: list[str]) -> tuple[int, float, float, str]:
        """Exit code, wall seconds, the child's own peak RSS in MB, stdout."""
        stdout_path = self.work / "stdout.txt"
        with open(stdout_path, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killer = threading.Timer(max(self.limit_at - start, 0.0), _kill, (proc.pid,))
            killer.start()
            try:
                # wait4 gives this child's rusage; RUSAGE_CHILDREN would give
                # the running maximum over every child reaped so far
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout_path.read_text()

    def _cli(self, args, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(TRACED), str(self.work / "spans.json"), *args]
        return [sys.executable, "-m", "coverforge", *args]

    def setup(self) -> None:
        code, wall, rss, stdout = self.spawn(self._cli(SETUP_ARGS, False))
        self._record(Op("setup", "bundle-report", False, wall, rss, setup_failure(code, stdout)))

    def reference(self) -> None:
        code, wall, rss, stdout = self.spawn([sys.executable, str(REFERENCE)])
        self._record(Op("reference", "reference.py", False, wall, rss,
                        reference_failure(code, stdout)))

    def construct(self, config: Config, traced: bool) -> None:
        cert = self.work / f"{config.name}.json"
        cert.unlink(missing_ok=True)
        code, wall, rss, _ = self.spawn(
            self._cli(("construct", *config.args, "--out", str(cert)), traced))
        op = Op("construct", config.name, traced, wall, rss,
                construct_failure(config, code, cert))
        if cert.exists():
            op.cert_bytes = cert.stat().st_size
        self._record(op)

    def verify(self, config: Config, traced: bool) -> None:
        cert = self.work / f"{config.name}.json"
        code, wall, rss, stdout = self.spawn(self._cli(("verify", str(cert)), traced))
        self._record(Op("verify", config.name, traced, wall, rss,
                        verify_failure(config, code, stdout)))

    def _record(self, op: Op) -> None:
        if op.traced:
            spans = self.work / "spans.json"
            try:
                op.trace = json.loads(spans.read_text())
            except (OSError, ValueError):
                op.failure = op.failure or "traced run wrote no spans"
            spans.unlink(missing_ok=True)
        if op.failure:
            stderr = (self.work / "stderr.txt").read_text(errors="replace").strip()
            if stderr:
                op.failure += f" [stderr: {stderr.splitlines()[-1]}]"
        self.ops.append(op)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Runner:
    configs = list(WORKLOADS[name])
    rng = random.Random(seed)
    runner = Runner(work, time.perf_counter() + RUN_LIMIT_S)
    for _ in range(SETUP_REPEATS):
        runner.setup()
        runner.reference()
    start = time.perf_counter()
    last: dict[str, float] = {}   # each configuration's latest group duration
    while True:
        rng.shuffle(configs)
        for config in configs:
            # the first round always runs; later groups only if predicted to fit
            predicted_end = time.perf_counter() - start + last.get(config.name, 0.0)
            if runner.out_of_time or (config.name in last and predicted_end > seconds):
                return runner
            group_start = time.perf_counter()
            if trace:
                runner.construct(config, traced=False)   # the untraced baseline
            runner.construct(config, traced=trace)
            if config.verify_exit is not None:
                runner.verify(config, traced=trace)
            runner.setup()
            runner.reference()
            last[config.name] = time.perf_counter() - group_start


# ---------------------------------------------------------------------------
# Metrics

def _mean_of_config_medians(ops: list[Op], kind: str, traced: bool,
                            walls: list[float] | None = None) -> float:
    """`walls` defaults to each op's wall_s; it is aligned with `ops`."""
    by_config: dict[str, list[float]] = defaultdict(list)
    for op, wall in zip(ops, walls or [op.wall_s for op in ops]):
        if op.kind == kind and op.traced == traced:
            by_config[op.config].append(wall)
    return statistics.fmean(statistics.median(v) for v in by_config.values()) if by_config else 0.0


def reference_scaled(ops: list[Op]) -> list[float]:
    """Each op's wall time over the mean of the reference runs just before
    and after it, times REFERENCE_S (see there)."""
    refs = [i for i, op in enumerate(ops) if op.kind == "reference"]
    scaled = []
    for i, op in enumerate(ops):
        at = bisect.bisect_left(refs, i)   # the first reference run after op i
        near = [op.wall_s] if op.kind == "reference" else \
            [ops[j].wall_s for j in refs[max(at - 1, 0):at + 1]]
        scaled.append(REFERENCE_S * op.wall_s / statistics.fmean(near))
    return scaled


def end_to_end_metrics(ops: list[Op]) -> dict[str, float]:
    work = [op for op in ops if op.kind in ("construct", "verify")]
    scaled = reference_scaled(ops)
    return {
        "setup_s": statistics.median(s for op, s in zip(ops, scaled) if op.kind == "setup"),
        "construct_s": _mean_of_config_medians(ops, "construct", False, scaled),
        "verify_s": _mean_of_config_medians(ops, "verify", False, scaled),
        "peak_rss_mb": max((op.rss_mb for op in work), default=0.0),
    }


def self_times(trace: dict) -> tuple[dict[str, float], float]:
    """Per-layer self seconds of one traced process, and its unattributed time."""
    spans = trace["spans"]
    children = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    layers: dict[str, float] = defaultdict(float)
    roots = 0.0
    for i, (layer, parent, start, end, _) in enumerate(spans):
        layers[layer] += end - start - children[i]
        if parent < 0:
            roots += end - start
    return layers, trace["pipeline_s"] - roots


def layer_metrics(ops: list[Op]) -> dict[str, float]:
    """Sums are averaged per operation kind and configuration, then over
    those, so the figures do not depend on how many groups fit a run."""
    by_operation: dict[tuple[str, str], list[Op]] = defaultdict(list)
    for op in ops:
        if op.trace is not None:
            by_operation[op.kind, op.config].append(op)
    totals: dict[str, float] = defaultdict(float)
    largest: dict[str, int] = defaultdict(int)
    for same in by_operation.values():
        share = 1.0 / (len(same) * len(by_operation))
        for op in same:
            layers, unattributed = self_times(op.trace)
            totals["unattributed"] += unattributed * share
            for layer, secs in layers.items():
                totals[layer] += secs * share
            for span in op.trace["spans"]:
                for key, value in span[4].items():
                    if key in SUMMED_COUNTERS:
                        totals[key] += value * share
                    else:
                        largest[key] = max(largest[key], value)
            largest["cert_bytes"] = max(largest["cert_bytes"], op.cert_bytes)
    out = {f"{layer}_s": totals[layer] for layer in LAYERS}
    orbit_s = totals["orbits.orbit_closure"]
    out.update({
        "groups.table_bytes": largest["table_bytes"],
        "orbits.states": totals["states"],
        "orbits.expansions": totals["expansions"],
        "orbits.levels": largest["levels"],
        "orbits.k": largest["k"],
        "orbits.states_per_s": totals["states"] / orbit_s if orbit_s > 0 else 0.0,
        "certificates.cert_bytes": largest["cert_bytes"],
        "unattributed_s": totals["unattributed"],
        "trace_overhead_s": _mean_of_config_medians(ops, "construct", True)
                            - _mean_of_config_medians(ops, "construct", False),
    })
    return out


# ---------------------------------------------------------------------------
# Provenance and output

def provenance(seed: int) -> dict:
    revision = "unknown"   # a checkout without .git has only the source hash
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            revision = rev.stdout.strip() if rev.returncode == 0 else revision
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "coverforge").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def measured_workloads() -> dict[str, str]:
    """The measured workloads and why each was chosen, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {workload["name"]: workload["why"] for workload in bench["workloads"]}


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[Op]]:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        ops = run_workload(name, seed, seconds, trace, work).ops
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = layer_metrics(ops) if trace else end_to_end_metrics(ops)
    units = LAYER_UNITS if trace else E2E_UNITS
    return {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}, ops


def summary_lines(name: str, metrics: dict, ops: list[Op]) -> list[str]:
    failed = [op for op in ops if op.failure]
    lines = [f"workload {name}: {measured_workloads().get(name, 'benchmark self-test')}"]
    for key, metric in metrics.items():
        lines.append(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"    unscaled wall times (time metrics are scaled to reference.py = "
                 f"{REFERENCE_S} s):")
    walls: dict[tuple[str, str], list[float]] = defaultdict(list)
    for op in ops:
        if not op.traced:
            walls[op.kind, op.config].append(op.wall_s)
    for (kind, config), values in sorted(walls.items()):
        lines.append(f"    {kind} {config}: n={len(values)} median "
                     f"{statistics.median(values):.4g} s, range {min(values):.4g}-"
                     f"{max(values):.4g} s")
    lines.append(f"  {'failed_ops':34s} {len(failed) / len(ops):.6g} share "
                 f"({len(failed)} of {len(ops)} operations)")
    for op in failed:
        lines.append(f"  FAILED {op.kind} {op.config}: {op.failure}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs every measured workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coverforge" / "__init__.py").is_file():
        print(f"run.py: no coverforge sources under {SRC}", file=sys.stderr)
        return 2

    # a stopped run still kills and reaps its current child (see Runner.spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    names = list(measured_workloads()) if args.workload == "all" else [args.workload]
    all_metrics: dict[str, dict] = {}
    all_ops: list[Op] = []
    for name in names:
        metrics, ops = measure(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(summary_lines(name, metrics, ops)), flush=True)
        all_ops += ops
        if args.workload == "all":
            all_metrics.update({f"{name}/{key}": value for key, value in metrics.items()})
        else:
            all_metrics = metrics
    failed = sum(1 for op in all_ops if op.failure)
    print(json.dumps({"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
