"""Benchmark of hyperbethe's spectral, BP and eps-sweep pipelines.

    python3 perfbench/run.py --workload cluster_n30k --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): cluster_n30k, bp_n30k,
eps_sweep_n3k, or ``all`` to run the three in turn.  Each runs in a worker
process (worker.py) whose environment pins OpenBLAS and OpenMP to one
thread before numpy is imported.  With --trace 0 the record holds the
end-to-end metrics; with --trace 1 untraced and traced iterations alternate
and the record holds the per-layer metrics and the tracing overhead.  The
last line printed is the JSON record; the lines before it are the report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cluster_n30k", "bp_n30k", "eps_sweep_n3k")
# setup_s is the median over this many set-ups, each in a fresh process.
SETUPS = 3
# Whole-run budget per workload; the benchmark must end within 180 s.
TIME_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(argv, workdir, deadline):
    """Run worker.py to completion; its set-up time is counted from spawn."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv, "--workdir", workdir]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=dict(os.environ, **PINNED), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned), check=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"worker failed: {exc}") from exc
    rec = json.loads(proc.stdout.splitlines()[-1])
    rec["setup_s"] = rec["ready_at"] - spawned
    return rec


def run_workload(workload, seed, seconds, trace, n):
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(OUT, f"{workload}-seed{seed}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed)] + (["--n", str(n)] if n else [])
    runs = []
    try:
        if not trace:
            for i in range(SETUPS - 1):
                runs.append(run_worker(common + ["--setup-only"], os.path.join(workdir, f"setup{i}"), deadline))
        main = common + ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            main += ["--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}.json")]
        runs.append(run_worker(main, os.path.join(workdir, "main"), deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return runs


def tail(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    if len(values) <= 10:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / len(values)))
    return p, statistics.quantiles(values, n=100)[p - 1]


def summarize(workload, trace, runs, spec):
    """Checks and metrics of one workload's processes (set-ups, then the timed run)."""
    main = runs[-1]
    iters = main["iterations"]
    problems = [f"iteration {i}: {p}" for i, it in enumerate(iters) for p in it["problems"]]
    if len({r["input_digest"] for r in runs}) > 1:
        problems.append("set-ups of one seed made different inputs")
    attempted = sum(it["attempts"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    plain = [it["wall"] for it in iters if not it["traced"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        traced = [it for it in iters if it["traced"]]
        values = {k: statistics.median(it["layers"][k] for it in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median(it["wall"] for it in traced) - statistics.median(plain)
    else:
        scores = [it["ami"] for it in iters if it["ami"] is not None]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "wall_s": statistics.median(plain),
            "ami": statistics.fmean(scores) if scores else 0.0,
            "peak_rss_mb": main["peak_rss_mb"],
        }
    missing = set(units) ^ set(values)
    if missing:
        raise BenchError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    record = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return record, problems


def report(workload, seed, trace, runs, record, problems):
    main = runs[-1]
    env = main["env"]
    iters = main["iterations"]
    print(f"== {workload}  seed {seed}  trace {trace}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: {main['input_digest']}")
    print("outputs: " + " ".join(sorted({str(it["digest"]) for it in iters})))
    for k, m in record["metrics"].items():
        print(f"  {k:28s} {m['value']:14.6g} {m['unit']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_frac':28s} {failed / max(attempted, 1):14.6g} 1  ({failed} of {attempted} attempts)")
    plain = [it["wall"] for it in iters if not it["traced"]]
    if len(plain) >= 2:
        q1, q2, q3 = statistics.quantiles(plain, n=4)
        high = tail(plain)
        high = f"p{high[0]} {high[1]:.4g} s" if high else "no percentile has ten samples beyond it"
        print(f"  wall_s samples: {len(plain)}  q1 {q1:.4g}  median {q2:.4g}  q3 {q3:.4g}  {high}")
    if not trace:
        print("  setup_s per process: " + "  ".join(f"{r['setup_s']:.4g}" for r in runs))
    errors = {}
    for it in iters:
        for k, v in it["errors"].items():
            errors[k] = errors.get(k, 0) + v
    if errors:
        print("  detection errors by type: " + ", ".join(f"{k} {v}" for k, v in sorted(errors.items())))
    if trace and workload.endswith("_n30k"):
        baseline_table(main)
    print("  checks: " + ("ok" if record["correct"] else "FAILED"))
    for p in problems:
        print(f"    {p}")


def baseline_table(main):
    """Traced stage medians next to the ROADMAP baseline (n = 3e4)."""
    ref = load_json(os.path.join(HERE, "reference.json"))
    traced = [it["layers"] for it in main["iterations"] if it["traced"]]
    print(f"  {'stage':34s} {'ROADMAP':>9s} {'traced':>9s}")
    for row in ref["roadmap_baseline_n30k"]:
        layers = [main["setup_layers"]] if row["from"] == "setup" else traced
        value = statistics.median(sum(lay[k] for k in row["metrics"]) for lay in layers)
        shown = f"{value:9.3f}" if value else f"{'-':>9s}"
        print(f"  {row['stage']:34s} {row['roadmap_s']:9.3f} {shown}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="node count override, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "hyperbethe")):
        print(f"no hyperbethe sources under {ROOT}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for workload in names:
            runs = run_workload(workload, args.seed, args.seconds, args.trace, args.n)
            record, problems = summarize(workload, args.trace, runs, spec)
            report(workload, args.seed, args.trace, runs, record, problems)
            records[workload] = record
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        print(json.dumps(records[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}.{k}": m for w, r in records.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
