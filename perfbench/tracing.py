"""Call counting and span tracing around the library's public functions.

Everything here patches attributes from the outside and puts them back in
``finally``; the library itself is not modified.  Spans are kept in memory
as plain lists and turned into per-layer metrics after the run.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

# (module, class or None, attribute, span name).  Each function is wrapped in
# the namespace of the module that calls it, so the library's own global
# lookups see the wrapper; names the benchmark calls directly are wrapped in
# their defining module, which the benchmark reads them from.
TRACED = (
    ("hypergraph", None, "load_hyperedge_list", "hypergraph.load"),
    ("hypergraph", "Hypergraph", "__init__", "hypergraph.build"),
    ("hypergraph", "Hypergraph", "degree_stats", "hypergraph.degree_stats"),
    ("hypergraph", "Hypergraph", "projection", "hypergraph.projection"),
    ("hypergraph", "Hypergraph", "incidence_pairs", "hypergraph.incidence"),
    ("hsbm", None, "sample_symmetric", "hsbm.sample"),
    ("experiments", None, "sample_symmetric", "hsbm.sample"),
    ("spectral", None, "spectral_cluster", "spectral.cluster"),
    ("experiments", None, "spectral_cluster", "spectral.cluster"),
    ("spectral", None, "bulk_radius", "spectral.eta"),
    ("spectral", None, "bethe_hessian", "spectral.operator"),
    ("sparsesym", "SparseSymMatrix", "from_scipy", "sparsesym.from_scipy"),
    ("spectral", None, "count_negative_eigenvalues", "spectral.count"),
    ("spectral", None, "lowest_eigenpairs", "spectral.eigenpairs"),
    ("spectral", None, "kmeans", "spectral.kmeans"),
    ("bp", None, "bp_run", "bp.run"),
    ("experiments", None, "bp_run", "bp.run"),
    ("bp", None, "bp_init", "bp.init"),
    ("bp", None, "bp_sweep", "bp.sweep"),
    ("metrics", None, "ami", "metrics.ami"),
    ("experiments", None, "ami", "metrics.ami"),
    ("metrics", None, "expected_mutual_information", "metrics.emi"),
    ("experiments", None, "run_eps_sweep", "experiments.sweep"),
)

# Detection entry points counted in every run (experiments namespace).
DETECTORS = ("spectral_cluster", "bp_run")


def _build_info(args, result):
    h = args[0]
    return {"m": h.m, "incidences": sum(k * c for k, c in h.order_counts().items())}


# Counts read off a span's arguments or result, after its end time is taken.
INFO = {
    "hypergraph.build": _build_info,
    "spectral.cluster": lambda args, res: {"q": res.partition.q},
    "spectral.operator": lambda args, res: {"nnz": res.matrix.nnz},
    "bp.init": lambda args, res: {"incidences": res.num_messages},
    "bp.run": lambda args, res: {"sweeps": res.sweeps, "converged": res.converged},
}


class Patcher:
    """Replaces attributes and restores the originals in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make_wrapper):
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, raw))
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(owner, name, make_wrapper(raw))

    def restore(self):
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


class AttemptCounter:
    """Counts calls and raised exceptions by type; no timing."""

    def __init__(self):
        self.attempts = 0
        self.errors = Counter()

    def wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.attempts += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[type(exc).__name__] += 1
                raise

        return counted

    def snapshot(self):
        return self.attempts, Counter(self.errors)

    def since(self, mark):
        """Attempts and errors counted after ``mark`` was taken."""
        attempts, errors = mark
        return self.attempts - attempts, self.errors - errors


class Tracer:
    """In-memory spans: [name, start, end, parent id, root id, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]][4] if self._stack else idx
        self.spans.append([name, time.perf_counter(), None, parent, root, None])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrapper(self, name):
        info = INFO.get(name)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(idx)
                if info is not None:
                    self.spans[idx][5] = info(args, result)
                return result

            return traced

        return make

    def install(self, patcher, modules):
        for mod, cls, attr, span in TRACED:
            owner = getattr(modules[mod], cls) if cls else modules[mod]
            patcher.wrap(owner, attr, self.wrapper(span))

    def records(self):
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "root": s[4], "info": s[5]}
            for i, s in enumerate(self.spans)
        ]


def self_times(spans):
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans, root, detect_attempts, detect_errors):
    """Per-layer metrics of the spans under one root span (one iteration).

    ``*_s`` metrics are self times summed over the iteration, except the
    layer entry points ``spectral.cluster_s``, ``bp.run_s``,
    ``experiments.sweep_s`` and ``spectral.count_s``, which are inclusive.
    ``spectral.eigenpairs_s`` covers the eigensolves made by the clustering
    itself, not the batched ones inside the count.
    """
    own = self_times(spans)
    mine = [s for s in spans if s["root"] == root and s["id"] != root]
    by_name = {}
    for s in mine:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(own[s["id"]] for s in calls(name))

    def total_s(spans_):
        return sum(s["end"] - s["start"] for s in spans_)

    def mean_info(name, key):
        vals = [s["info"][key] for s in calls(name)]
        return statistics.fmean(vals) if vals else 0.0

    clusters = calls("spectral.cluster")
    cluster_ids = {s["id"] for s in clusters}
    direct_eig = [s for s in calls("spectral.eigenpairs") if s["parent"] in cluster_ids]
    sweeps = [s["end"] - s["start"] for s in calls("bp.sweep")]
    sweep = statistics.median(sweeps) if sweeps else 0.0
    incidences = mean_info("bp.init", "incidences")
    return {
        "hypergraph.load_s": self_s("hypergraph.load"),
        "hypergraph.build_s": self_s("hypergraph.build"),
        "hypergraph.degree_stats_s": self_s("hypergraph.degree_stats"),
        "hypergraph.projection_s": self_s("hypergraph.projection"),
        "hypergraph.incidence_s": self_s("hypergraph.incidence"),
        "hypergraph.m": mean_info("hypergraph.build", "m"),
        "hypergraph.incidences": mean_info("hypergraph.build", "incidences"),
        "hsbm.sample_s": self_s("hsbm.sample"),
        "spectral.cluster_s": total_s(clusters),
        "spectral.eta_s": self_s("spectral.eta"),
        "spectral.operator_s": self_s("spectral.operator"),
        "sparsesym.from_scipy_s": self_s("sparsesym.from_scipy"),
        "spectral.count_s": total_s(calls("spectral.count")),
        "spectral.eigenpairs_s": total_s(direct_eig),
        "spectral.eigenpairs_calls": len(calls("spectral.eigenpairs")) / len(clusters) if clusters else 0.0,
        "spectral.kmeans_s": self_s("spectral.kmeans"),
        "spectral.q_detected": mean_info("spectral.cluster", "q"),
        "spectral.operator_nnz": mean_info("spectral.operator", "nnz"),
        "bp.run_s": total_s(calls("bp.run")),
        "bp.init_s": self_s("bp.init"),
        "bp.sweep_s": sweep,
        "bp.sweeps": mean_info("bp.run", "sweeps"),
        "bp.converged_frac": mean_info("bp.run", "converged"),
        "bp.incidences_per_s": incidences / sweep if sweep else 0.0,
        "metrics.ami_s": self_s("metrics.ami"),
        "metrics.emi_s": self_s("metrics.emi"),
        "experiments.sweep_s": total_s(calls("experiments.sweep")),
        "experiments.self_s": self_s("experiments.sweep"),
        "experiments.detect_attempts": detect_attempts,
        "experiments.detect_errors": detect_errors,
    }
