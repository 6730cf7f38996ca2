"""Benchmark for pcomp, run as a batch solver in one closed loop.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there): search-find,
search-refute, cover-pipeline, cli.  One caller runs one operation at a
time; cli starts one `python -m pcomp` child at a time.  Operations repeat
in passes over the workload's instance list; S sets the number of passes
(see PASSES), so S is about the measured time on the reference machine.
Every output is checked, untimed; an operation that fails its check or
raises is counted, never replaced.  Every reported time is calibrated
against a reference computation timed beside it (calibrate.py), which takes
out the drift of the shared host's speed between runs.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run makes half its passes untraced and half with pcomp's
public functions wrapped (tracing.py), and the metrics are the per-layer
ones, per traced pass.  The line before it holds the run's details: seed,
Python version, CPU count, commit, the times before calibration, each
operation's median, the tail percentile and sample count, failed_share with
the failing operations, and at seed 0 the search-tree sizes against the
ROADMAP.md table.  Traced runs write their spans to
perfbench/_out/.

The self-test is `python3 perfbench/selftest.py`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
SETUP_RUNS = 7
# Passes per run at --seconds REFERENCE_S; other lengths scale the count.
# A fixed count makes every run of a workload do the same work, so its
# quantiles rest on the same number of samples.  Raw pass times on the
# reference machine (2 shared vCPUs, Python 3.11) drift between about 0.75x
# and 1.2x of: search-find 3.4 s, search-refute 1.5 s, cover-pipeline
# 12.5 s, cli 2.2 s (a third of it the reference children).
#
# op_tail_s is the 11th largest of the samples taken at their operations'
# medians, so it falls on the slowest operation of a pass only with at
# least 11 passes.  search-find runs 12: its tail is then co-C7 p=2, whose
# labels are fixed; with fewer passes it would be co-C14, whose median over
# 7 seeded relabelings ranged from 0.51 to 0.84 s over ten seeds.
# search-refute runs 10, so that its tail is C7 p=5 (fixed labels) from 6
# to 10 passes, not C8 p=6 or whichever operation follows it.
REFERENCE_S = 24
PASSES = {"search-find": 12, "search-refute": 10, "cover-pipeline": 3, "cli": 10}
# A run starts no pass that would end after OVERRUN * S, which bounds its
# length on a slow host.  The two longest get more room: search-find's
# tail moves if a cut leaves it fewer than 11 passes, and cover-pipeline's
# operations would have two samples each.
OVERRUN = {"search-find": 1.75, "search-refute": 1.3, "cover-pipeline": 1.9, "cli": 1.3}
STARTUP_RUNS = 7
CLI_SUBCOMMANDS = ("gen", "cover", "verify", "realize", "compete", "theta-e", "decide", "survey")


def load_pcomp():
    init = workloads.SRC / "pcomp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} is missing; run from the repository root")
    sys.path.insert(0, str(workloads.SRC))
    import pcomp
    if Path(pcomp.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported pcomp from {pcomp.__file__}, not {init}")
    return pcomp


def setup(name: str, seed: int, tracer: Tracer):
    """Import pcomp and make the inputs: everything before the first operation."""
    pcomp = load_pcomp()
    work = workloads.WORK / f"{name}-{os.getpid()}"
    return workloads.make(name, pcomp, seed, tracer, work)


def time_children(cmd: list[str], runs: int, env: dict | None = None) -> tuple[float, float]:
    """Calibrated and raw median time of `runs` children of `cmd`, each
    started after a `python -c pass` reference child."""
    bare = calibrate.BareChild(env)
    rec = Record()
    for _ in range(runs):
        rec.refs.append(bare.sample())
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, capture_output=True)
        rec.raw.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: {cmd[1:]} failed: {done.stderr.decode()[-500:]}")
    rec.finish(bare.NOMINAL_S)
    return statistics.median(rec.latencies), statistics.median(rec.raw)


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of process start to first operation ready."""
    return time_children([sys.executable, str(HERE / "run.py"), "--workload", name,
                          "--seed", str(seed), "--seconds", "0", "--setup-only"], SETUP_RUNS)


class Record:
    """Latencies and outcomes of the operations of one measured phase.

    `raw` holds each operation's measured time and `refs` the reference
    sample taken just before it; `finish` turns them into the calibrated
    `latencies` and pass times (calibrate.py) that the metrics use.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.refs: list[float] = []
        self.pass_sizes: list[int] = []
        self.names: list[str] = []
        self.failures: list[dict] = []
        self.child_rss_kib = 0
        self.tracebacks = 0
        self.latencies: list[float] = []
        self.passes: list[float] = []

    def run(self, workload, passes: int, limit_s: float) -> "Record":
        start = time.perf_counter()
        reference = workload.reference
        while len(self.pass_sizes) < passes:
            ops = workload.pass_ops(len(self.pass_sizes))
            for op in ops:
                # every operation starts from a collected heap, so a cyclic
                # collection owed to earlier garbage does not land in it
                gc.collect()
                self.refs.append(reference.sample())
                t0 = time.perf_counter()
                try:
                    out, error = op.run(), None
                except Exception as exc:  # an operation that raised is a failure
                    out, error = None, f"raised {type(exc).__name__}: {exc}"
                self.raw.append(time.perf_counter() - t0)
                if error is None:
                    try:
                        error = op.check(out)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                self.names.append(op.name)
                if isinstance(out, workloads.Child):
                    self.child_rss_kib = max(self.child_rss_kib, out.rss_kib)
                    self.tracebacks += b"Traceback" in out.stderr
                if error is not None:
                    self.failures.append(
                        {"op": op.name, "pass": len(self.pass_sizes), "error": error})
            self.pass_sizes.append(len(ops))
            done = len(self.pass_sizes)
            if (time.perf_counter() - start) * (done + 1) / done > limit_s:
                break
        return self.finish(reference.NOMINAL_S)

    def finish(self, nominal_s: float) -> "Record":
        scale = calibrate.factor(self.refs, nominal_s)
        self.latencies = [t * scale for t in self.raw]
        self.passes = []
        i = 0
        for size in self.pass_sizes:
            self.passes.append(sum(self.latencies[i:i + size]))
            i += size
        return self


def per_op(latencies: list[float], pass_sizes: list[int]) -> list[float]:
    """Each operation of a pass at its median latency over the run's passes."""
    size = pass_sizes[0]
    if any(n != size for n in pass_sizes):
        raise ValueError(f"passes of different sizes: {pass_sizes}")
    return [statistics.median(latencies[j::size]) for j in range(size)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    k = max(len(xs) - 10, 1)
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(rec: Record, setup_s: float, cli: bool) -> dict:
    # Every operation is taken at its median over the passes: wall_s is one
    # pass at those medians, op_p50_s and op_tail_s are quantiles of the
    # samples with each replaced by its operation's median.  That keeps the
    # sample count and percentile but not the noise of single samples: the
    # plain tail is an extreme sample of one operation, and moved by a
    # fifth between runs.
    typical = per_op(rec.latencies, rec.pass_sizes)
    tail_s, _ = tail(typical * len(rec.pass_sizes))
    rss_kib = (rec.child_rss_kib if cli
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(typical), "s"),
        "op_p50_s": (statistics.median(typical), "s"),
        "op_tail_s": (tail_s, "s"),
        "passed_share": (1 - len(rec.failures) / len(rec.latencies), "share"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def cli_metrics(untraced: Record, rec_all: list[Record], passes: int, env: dict) -> dict:
    by_sub: dict[str, list[float]] = {}
    for name, latency in zip(untraced.names, untraced.latencies):
        by_sub.setdefault(name, []).append(latency)
    out = {f"cli.{sub}.p50_s": (statistics.median(by_sub[sub]), "s")
           for sub in CLI_SUBCOMMANDS}
    startup_s, _ = time_children([sys.executable, "-m", "pcomp", "--help"], STARTUP_RUNS, env)
    out["cli.startup_s"] = (startup_s, "s")
    out["cli.raised"] = (sum(r.tracebacks for r in rec_all) / passes, "count")
    return out


UNITS = {"calls": "count", "self_s": "s", "nodes": "count", "nodes_per_s": "1/s",
         "rejects": "count", "pair_incidences": "count", "arcs": "count",
         "pairs": "count", "raised": "count"}


def traced(workload, name: str, passes: int, limit_s: float, tracer: Tracer):
    """Half the passes untraced, half traced; return per-layer metrics."""
    cli = name == "cli"
    half = max(1, passes // 2)
    untraced = Record().run(workload, half, limit_s / 2)
    child_spans = []
    if cli:
        workload.trace_dir = workload.work / "spans"
        workload.trace_dir.mkdir(exist_ok=True)
    tracer.install()
    try:
        rec = Record().run(workload, half, limit_s / 2)
    finally:
        tracer.uninstall()
    if cli:
        for path in sorted(workload.trace_dir.glob("spans-*.json")):
            child_spans.append(json.loads(path.read_text()))
    passes = len(rec.passes)
    layers = layer_metrics([tracer.spans, *child_spans], passes)
    metrics = {key: (value, UNITS[key.rsplit(".", 1)[1]]) for key, value in layers.items()}
    if cli:
        metrics.update(cli_metrics(untraced, [untraced, rec], passes, workload.env))
    else:
        metrics.update({f"cli.{sub}.p50_s": (0.0, "s") for sub in CLI_SUBCOMMANDS})
        metrics["cli.startup_s"] = (0.0, "s")
        metrics["cli.raised"] = (0.0, "count")
    metrics["trace.overhead_s"] = (
        sum(per_op(rec.latencies, rec.pass_sizes))
        - sum(per_op(untraced.latencies, untraced.pass_sizes)), "s")
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "raised", "counts"],
         "processes": [tracer.spans, *child_spans]}))
    return untraced, rec, metrics


def commit() -> str | None:
    root = workloads.ROOT
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "pcomp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.setup_only:
        workload = setup(args.workload, args.seed, tracer)
        workload.pass_ops(0)
        workload.close()
        return 0

    load_pcomp()  # fail early, before any child starts, if src/ is missing
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(
        args.workload, args.seed)
    workload = setup(args.workload, args.seed, tracer)
    passes = max(1, round(PASSES[args.workload] * args.seconds / REFERENCE_S))
    limit_s = OVERRUN[args.workload] * args.seconds
    try:
        if args.trace:
            untraced, rec, metrics = traced(
                workload, args.workload, passes, limit_s, tracer)
            records = [untraced, rec]
        else:
            rec = Record().run(workload, passes, limit_s)
            records = [rec]
            metrics = end_to_end(rec, setup_s, args.workload == "cli")
    finally:
        workload.close()

    attempted = sum(len(r.latencies) for r in records)
    failures = [f for r in records for f in r.failures]
    _, percentile = tail(rec.latencies)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
        "src_sha256": src_digest(), "pass_s": rec.passes,
        # the same quantities before calibration, and the reference's times
        "raw": {"setup_s": setup_raw_s, "wall_s": sum(per_op(rec.raw, rec.pass_sizes)),
                "op_p50_s": statistics.median(rec.raw),
                "reference_s": statistics.median(rec.refs),
                "reference_nominal_s": workload.reference.NOMINAL_S},
        "op_samples": len(rec.latencies), "op_tail_percentile": percentile,
        "op_median_s": dict(zip((f"{j}:{name}" for j, name in enumerate(rec.names)),
                                per_op(rec.latencies, rec.pass_sizes))),
        "failed_share": len(failures) / attempted, "failures": failures[:20],
        **workload.details(),
    }
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
