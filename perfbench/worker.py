"""One workload's set-up and timed iterations, in a process of its own.

run.py starts this script with BLAS pinned to one thread and reads the JSON
object it prints as its last line.  With --setup-only it stops once the
inputs are ready, so run.py can time set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from tracing import DETECTORS, AttemptCounter, Patcher, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# ROADMAP baseline model; the n30k workloads sample it at EPS_N30K.
MODEL = {"q": 3, "orders": (2, 3), "d": 10.0}
EPS_N30K = 0.1
# eps_sweep_n3k caps BP at SWEEP_MAX_SWEEPS instead of the default 500.
# At eps_mid about one instance in eight converges after 259 to 362 sweeps
# while the rest stop at 500, so under the default cap a seed's cost depends
# on that draw (3.5 s or 7 s of BP per rep at n = 3000).  No instance seen
# converged within 100 sweeps there, and all converge within 30 at eps 0.1,
# so every seed does the same BP work and BP still runs to its cap.  Three
# reps make an iteration 6-8 s (2-vCPU Xeon VM, one BLAS thread), so a 20 s
# run repeats the sweep and compares its bytes.
SWEEP_MAX_SWEEPS = 100
SWEEP_REPS = 3
DEFAULT_N = {"cluster_n30k": 30000, "bp_n30k": 30000, "eps_sweep_n3k": 3000}
# Timed iterations of each kind (untraced, traced) that every run makes,
# however short --seconds is, so the digest checks always compare two.
MIN_ITERATIONS = 2


def import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import hyperbethe

    if not os.path.abspath(hyperbethe.__file__).startswith(src + os.sep):
        raise SystemExit(f"hyperbethe imported from {hyperbethe.__file__}, not from {src}")
    from hyperbethe import bp, detectability, experiments, hsbm, hypergraph, metrics, sparsesym, spectral

    return {
        "bp": bp,
        "detectability": detectability,
        "experiments": experiments,
        "hsbm": hsbm,
        "hypergraph": hypergraph,
        "metrics": metrics,
        "sparsesym": sparsesym,
        "spectral": spectral,
    }


def partition_digest(labels):
    """Digest of a partition that ignores how its communities are numbered."""
    import numpy as np

    labels = np.asarray(labels, dtype=np.int64)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return hashlib.sha256(rank[inverse].astype(np.int64).tobytes()).hexdigest()[:16]


def file_digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


class GraphWorkload:
    """A hyperedge-list file sampled from the baseline model at n30k.

    An iteration loads the file and runs one detector on it, the way a user
    with one large hypergraph file would.
    """

    def __init__(self, lib, name, n, seed, workdir):
        self.lib = lib
        self.name = name
        self.n = n
        self.seed = seed
        self.path = os.path.join(workdir, "hypergraph.txt")

    def setup(self):
        hsbm, hypergraph = self.lib["hsbm"], self.lib["hypergraph"]
        spec = hsbm.SymmetricHsbmSpec(n=self.n, eps=EPS_N30K, seed=self.seed, **MODEL)
        h, planted = hsbm.sample_symmetric(spec)
        hypergraph.save_hyperedge_list(h, self.path)
        self.rates = spec.rates()
        self.planted = planted.labels

    def input_digest(self):
        return file_digest(self.path)

    def iterate(self, counted):
        """Returns (partition digest, AMI, problems)."""
        import numpy as np

        lib = self.lib
        h, names = lib["hypergraph"].load_hyperedge_list(self.path)
        problems = []
        if self.name == "cluster_n30k":
            result = counted(lib["spectral"].spectral_cluster)(h)
            if result.partition.q != MODEL["q"]:
                problems.append(f"detected q={result.partition.q}, expected {MODEL['q']}")
        else:
            config = lib["bp"].BpConfig(seed=self.seed)
            result = counted(lib["bp"].bp_run)(h, MODEL["q"], self.rates, config)
            if not result.converged:
                problems.append(f"BP did not converge in {result.sweeps} sweeps")
        truth = self.planted[np.asarray(names, dtype=np.int64)]
        score = lib["metrics"].ami(result.partition, truth)
        return partition_digest(result.partition.labels), score, problems


class SweepWorkload:
    """One eps sweep at n3k over (0.1, midpoint of the BH and BP thresholds)."""

    def __init__(self, lib, name, n, seed, workdir):
        self.lib = lib
        self.n = n
        self.seed = seed
        self.out = os.path.join(workdir, "sweep")

    def setup(self):
        det, experiments = self.lib["detectability"], self.lib["experiments"]
        q, orders, d = MODEL["q"], MODEL["orders"], MODEL["d"]
        eps_mid = 0.5 * (det.critical_epsilon(q, orders, d, "bh") + det.critical_epsilon(q, orders, d, "bp"))
        self.config = experiments.ExperimentConfig(
            "eps-sweep", n=self.n, grid=(0.1, eps_mid), reps=SWEEP_REPS,
            methods=("bh", "bp"), seed=self.seed, out=self.out,
            bp=self.lib["bp"].BpConfig(max_sweeps=SWEEP_MAX_SWEEPS), **MODEL,
        )

    def input_digest(self):
        doc = {k: v for k, v in vars(self.config).items() if k != "out"}
        doc["bp"] = vars(doc["bp"])
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]

    def iterate(self, counted):
        csv_path, json_path, curves = self.lib["experiments"].run_eps_sweep(self.config)
        scores = [v for curve in curves.values() for v in curve if v is not None]
        return file_digest(csv_path, json_path), statistics.fmean(scores), []


WORKLOADS = {"cluster_n30k": GraphWorkload, "bp_n30k": GraphWorkload, "eps_sweep_n3k": SweepWorkload}


def environment(seed):
    import platform

    import numpy
    import scipy

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def reference_digest(workload, seed, n):
    """Committed digest for the default seed and size, or None."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if seed != ref["seed"] or n != DEFAULT_N[workload]:
        return None
    return ref["digests"][workload]


def run_iterations(workload, seconds, trace, tracer, direct, swept, expected):
    """Timed iterations until the next one would overrun --seconds.

    ``direct`` counts the detections the benchmark calls itself, ``swept``
    those the eps sweep makes.  With tracing, untraced and traced iterations
    alternate so both see the same machine state; only the traced ones open
    spans.
    """
    kinds = (False, True) if trace else (False,)
    deadline = time.monotonic() + seconds
    out = []
    while True:
        traced = kinds[len(out) % len(kinds)]
        marks = [c.snapshot() for c in (direct, swept)]
        root = tracer.begin("iteration") if traced else None
        t0 = time.perf_counter()
        try:
            digest, score, problems = workload.iterate(direct.wrap)
        except Exception as exc:
            traceback.print_exc()
            digest, score, problems = None, None, [f"{type(exc).__name__}: {exc}"]
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.end(root)
        (d_attempts, d_errors), (s_attempts, s_errors) = [c.since(m) for c, m in zip((direct, swept), marks)]
        errors = d_errors + s_errors
        if out and digest != out[0]["digest"]:
            problems.append(f"digest {digest} differs from the first iteration's {out[0]['digest']}")
        elif expected is not None and digest != expected:
            problems.append(f"digest {digest} differs from the reference {expected}")
        # An iteration that fails before reaching a detector still counts
        # as one failed attempt.
        attempts = max(d_attempts + s_attempts, 1 if problems else 0)
        rec = {
            "wall": wall,
            "traced": traced,
            "digest": digest,
            "ami": score,
            "attempts": attempts,
            "failed": attempts if problems else sum(errors.values()),
            "errors": dict(errors),
            "problems": problems,
        }
        if traced:
            rec["root"] = root
            rec["layers"] = layer_metrics(tracer.records(), root, s_attempts, sum(s_errors.values()))
        out.append(rec)
        walls = [r["wall"] for r in out]
        done = len(out) >= MIN_ITERATIONS * len(kinds)
        if done and time.monotonic() + statistics.median(walls) > deadline:
            return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--n", type=int, default=None, help="node count (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where to write the traced run's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = import_library()
    n = args.n or DEFAULT_N[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](lib, args.workload, n, args.seed, args.workdir)
    tracer = Tracer()
    direct, swept = AttemptCounter(), AttemptCounter()
    patcher = Patcher()
    try:
        for name in DETECTORS:
            patcher.wrap(lib["experiments"], name, swept.wrap)
        if args.trace:
            tracer.install(patcher, lib)
            root = tracer.begin("setup")
        workload.setup()
        if args.trace:
            tracer.end(root)
        result = {"ready_at": time.monotonic(), "input_digest": workload.input_digest()}
        if not args.setup_only:
            expected = reference_digest(args.workload, args.seed, n)
            result["iterations"] = run_iterations(
                workload, args.seconds, args.trace, tracer, direct, swept, expected
            )
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["env"] = environment(args.seed)
            if args.trace:
                result["setup_layers"] = layer_metrics(tracer.records(), 0, 0, 0)
    finally:
        patcher.restore()
    if args.trace and args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "env": result.get("env"), "spans": tracer.records(),
                       "iterations": result.get("iterations")}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
