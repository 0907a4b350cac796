"""The mdel benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sos-equilibrium, oracle-agreement, check-cli (see README.md).
The parent process builds the inputs from the seed, then repeats the
workload for about S seconds, one repetition per fresh worker interpreter
and one worker at a time.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of untraced repetitions, with --trace 1 the per-layer
metrics of traced repetitions plus the tracing overhead against untraced
ones.  A wrong answer aborts the run with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

END_TO_END = {
    "verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}
PER_LAYER = {
    "cli.self_s": "s", "cli.build_parser_s": "s", "parser.parse_s": "s",
    "traces.load_s": "s", "traces.enumerate_s": "s", "traces.enumerated": "count",
    "traces.constructed": "count", "formulas.compile_s": "s",
    "formulas.compile_calls": "count", "semantics.evaluator_init_s": "s",
    "semantics.evaluators": "count", "semantics.evaluators_per_trace": "ratio",
    "semantics.sat_mask_s": "s", "semantics.sat_mask_calls": "count",
    "semantics.rel_rows_s": "s", "semantics.rel_rows_calls": "count",
    "semantics.mdl_s": "s", "mht.sat_s": "s", "mht.evaluators": "count",
    "equilibrium.self_s": "s", "equilibrium.candidates": "count",
    "equilibrium.equilibria": "count", "laws.self_s": "s", "laws.checks": "count",
    "tracing.overhead_ratio": "ratio",
}

IMPORT_PROBES = 1  # import-only interpreters before each repetition, for setup_s
MIN_REPS = 3
WORKER_TIMEOUT_S = 120
LAST_START_S = 120  # never start a repetition later than this into the run


class BenchError(RuntimeError):
    pass


class GateTripped(BenchError):
    pass


def run_worker(args: list) -> tuple:
    """Run one worker to completion; return (its JSON result, wall seconds)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S}s") from exc
    if proc.returncode == 3:
        raise GateTripped(proc.stderr.strip())
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), time.monotonic() - start


def repeat(args: list, started: float, until: float, minimum: int,
           probes: int = 0) -> tuple:
    """Repeat a worker while the next repetition is expected to end before
    ``until`` (seconds since ``started``), at least ``minimum`` times.  Before
    each repetition run ``probes`` import-only workers, so that set-up
    samples spread over the whole run.  Return (repetitions, set-up samples)."""
    reps, walls, setups = [], [], []
    while True:
        now = time.monotonic() - started
        if len(reps) >= minimum and (now + statistics.median(walls) > until
                                     or now > LAST_START_S):
            return reps, setups
        setups += [run_worker(["--import-only"])[0]["setup_s"] for _ in range(probes)]
        rep, wall = run_worker(args)
        reps.append(rep)
        walls.append(wall)
        setups.append(rep["setup_s"])


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; with fewer than 1/(1-q) values, the largest."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                ref = fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(reps: list, setups: list) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    latencies = [t for r in reps for t in r["latencies_s"]]
    return {
        "verdict_s": statistics.median(r["verdict_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "ok_ratio": (attempted - failed) / attempted,
        "op_p50_ms": percentile(latencies, 0.50) * 1000,
        "op_p99_ms": percentile(latencies, 0.99) * 1000,
    }


def per_layer(traced: list, untraced: list) -> dict:
    # median_low keeps counts whole: they repeat exactly from run to run
    out = {key: statistics.median_low(r["layers"][key] for r in traced)
           for key in traced[0]["layers"]}
    out["tracing.overhead_ratio"] = (statistics.median(r["verdict_s"] for r in traced)
                                     / statistics.median(r["verdict_s"] for r in untraced))
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> tuple:
    from workloads import WORKLOADS

    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload,
                   "input": WORKLOADS[workload].prepare(workdir, seed)}, fh)
    run_worker(["--import-only"])  # writes byte-code caches; not measured
    started = time.monotonic()
    if not trace:
        reps, setups = repeat([spec_path], started, seconds, MIN_REPS, IMPORT_PROBES)
        return reps, end_to_end(reps, setups), END_TO_END
    untraced, _ = repeat([spec_path], started, seconds / 3, 2)
    traced, _ = repeat([spec_path, "--trace"], started, seconds, 2)
    spans = os.path.join(WORK, f"spans-{workload}-seed{seed}.json")
    with open(spans, "w", encoding="utf-8") as fh:
        json.dump(traced[-1]["spans"], fh)
    print(f"# spans of the last traced repetition: {os.path.relpath(spans, ROOT)}")
    return untraced + traced, per_layer(traced, untraced), PER_LAYER


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (os.path.join("src", "mdel", "__init__.py"),
                   os.path.join("tests", "naive_ref.py")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path[1:1] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} sha={git_sha()} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"loadavg={','.join(f'{x:.2f}' for x in os.getloadavg())}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        reps, metrics, units = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace), workdir)
    except GateTripped as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# repetitions={len(reps)} (one fresh interpreter each); verdict_s of each: "
          + " ".join(f"{r['verdict_s']:.4f}" for r in reps))
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
