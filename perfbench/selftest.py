"""Fast self-test of the benchmark.

Usage, from the root of the repository: python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
in both modes, with every operation passing; that a wrong known answer is
counted as a failed operation; and that without src/ the benchmark exits
non-zero without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_benchmark(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def check_metric_names(spec: dict) -> None:
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in expected.items():
            done = run_benchmark(ROOT, workload, trace)
            if done.returncode != 0:
                raise AssertionError(f"{workload} --trace {trace}: {done.stderr[-1000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result["metrics"]) != sorted(names):
                raise AssertionError(
                    f"{workload} --trace {trace}: emitted {sorted(result['metrics'])}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} --trace {trace}: {done.stdout[-2000:]}")
            print(f"ok  {workload} --trace {trace}: {len(names)} metrics")


def check_wrong_answer() -> None:
    pcomp = bench.load_pcomp()
    workloads.KNOWN["theta_e/co-C12"] = 6   # the true value is 7
    try:
        workload = workloads.make("search-find", pcomp, 0, Tracer(), workloads.WORK)
        rec = bench.Record().run(workload, 1, 0)
    finally:
        workloads.KNOWN["theta_e/co-C12"] = 7
    share = bench.end_to_end(rec, 0.0, False)["passed_share"][0]
    failed = [f["op"] for f in rec.failures]
    if failed != ["theta_e/co-C12"] or share >= 1:
        raise AssertionError(f"a wrong known answer gave failures {failed}")
    print(f"ok  wrong known answer: failed_share {len(failed) / len(rec.latencies):.3f}")


def check_bare_directory() -> None:
    bare = workloads.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_benchmark(bare, "search-find", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError(f"without src/ the benchmark gave {done.returncode}: {done.stdout}")
    print("ok  without src/: exit", done.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    check_wrong_answer()
    check_metric_names(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
