"""scipy is loaded only where an operator is built or k-means runs, and the
names the benchmark reaches exist.

Each scipy case runs this file as a script in a fresh process.  The BP,
generator, file, metrics, detectability and CLI-parse path must finish with
no scipy module loaded, and, with BP far below its split size, no thread
pool module either; each operator, built first in its process, must equal
the one built in the test process.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hyperbethe
from hyperbethe import (
    Hypergraph,
    SymmetricHsbmSpec,
    ami,
    bethe_hessian,
    bp_init,
    bp_run,
    bulk_radius,
    load_hyperedge_list,
    load_partition,
    nonbacktracking_matrix,
    sample_symmetric,
    save_hyperedge_list,
    save_partition,
    snr_report,
    spec_from_json,
    spectral_cluster,
)
from hyperbethe.cli import build_parser

OPERATORS = ("spectral_cluster", "bethe_hessian", "nonbacktracking_matrix")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def plain_path(workdir):
    """read a spec -> sample -> save -> load -> BP -> AMI -> SNR report, plus a parsed CLI line; returns the AMI."""
    build_parser().parse_args(["bp", "--input", "edges.txt", "--q", "2", "--d", "8", "--eps", "0.2"])
    pattern = {"order": 3, "composition": {"0": 2, "1": 1}, "rate": 5.0}
    sample_symmetric(spec_from_json({"n": 40, "q": 2, "patterns": [pattern]}))
    spec = SymmetricHsbmSpec(n=300, q=2, orders=(2, 3), d=8.0, eps=0.2, seed=0)
    h, planted = sample_symmetric(spec)
    edges, labels = os.path.join(workdir, "edges.txt"), os.path.join(workdir, "planted.txt")
    save_hyperedge_list(h, edges)
    save_partition(planted, labels)
    h, names = load_hyperedge_list(edges)
    truth = load_partition(labels, [str(i) for i in range(spec.n)]).labels
    result = bp_run(h, spec.q, spec.rates())
    snr_report(spec.q, spec.orders, d=spec.d, eps=spec.eps)
    return ami(result.partition, truth[np.asarray(names, dtype=np.int64)])


def operator_input(case):
    n = {"spectral_cluster": 800, "bethe_hessian": 300, "nonbacktracking_matrix": 60}[case]
    return sample_symmetric(SymmetricHsbmSpec(n=n, q=2, orders=(2, 3), d=6.0, eps=0.1, seed=3))[0]


def operator_arrays(case, h):
    """The operator's arrays: n = 800 takes the Lanczos path of the eigensolver."""
    if case == "spectral_cluster":
        r = spectral_cluster(h)
        return [r.eigenvalues, r.embedding, r.partition.labels]
    if case == "bethe_hessian":
        csr = bethe_hessian(h, bulk_radius(h)).matrix
        return [csr.data, csr.indices, csr.indptr]
    nb = nonbacktracking_matrix(h)
    return [nb.pair_edges, nb.pair_nodes, nb.matrix.data, nb.matrix.indices, nb.matrix.indptr]


def run_child(case, out):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperbethe.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), case, str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_plain_path_loads_no_scipy(tmp_path):
    out = tmp_path / "plain.json"
    run_child("plain", out)
    child = json.loads(out.read_text())
    assert child["scipy"] == []
    assert not child["thread_pool"]
    assert child["ami"] == plain_path(tmp_path)


@pytest.mark.parametrize("case", OPERATORS)
def test_operator_built_first_matches(tmp_path, case):
    out = tmp_path / f"{case}.npz"
    run_child(case, out)
    with np.load(out) as child:
        got = [child[f"arr_{i}"] for i in range(len(child.files))]
    want = operator_arrays(case, operator_input(case))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_import_surface_resolves(monkeypatch):
    """perfbench's library imports, traced attributes and counted detectors all exist."""
    tracing = load_by_path("tracing", os.path.join(PERFBENCH, "tracing.py"))
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # worker.py imports it by this name
    worker = load_by_path("perfbench_worker", os.path.join(PERFBENCH, "worker.py"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_library prepends src
    modules = worker.import_library()
    for mod, cls, attr, _ in tracing.TRACED:
        if cls:
            assert attr in vars(getattr(modules[mod], cls)), (mod, cls, attr)
        else:
            assert hasattr(modules[mod], attr), (mod, attr)
    for name in tracing.DETECTORS:
        assert hasattr(modules["experiments"], name), name


def test_bench_span_readers_read_results():
    """Each of perfbench's span readers gives the right count on a real result."""
    tracing = load_by_path("tracing", os.path.join(PERFBENCH, "tracing.py"))
    spec = SymmetricHsbmSpec(n=300, q=2, orders=(2, 3), d=8.0, eps=0.1, seed=0)
    h, _ = sample_symmetric(spec)
    incidences = sum(k * c for k, c in h.order_counts().items())
    assert incidences == h.incidence_pairs()[1].size
    B = bethe_hessian(h, bulk_radius(h))
    run = bp_run(h, spec.q, spec.rates())
    results = {
        "hypergraph.build": ((h, h.n, None), None),
        "spectral.cluster": ((h,), spectral_cluster(h)),
        "spectral.operator": ((h, B.eta), B),
        "bp.init": ((h, spec.q, spec.rates()), bp_init(h, spec.q, spec.rates())),
        "bp.run": ((h, spec.q, spec.rates()), run),
    }
    assert set(tracing.INFO) == set(results)
    info = {name: tracing.INFO[name](*results[name]) for name in results}
    assert info["hypergraph.build"] == {"m": h.m, "incidences": incidences}
    assert info["spectral.cluster"] == {"q": 2}
    assert info["spectral.operator"] == {"nnz": int(np.count_nonzero(B.matrix.toarray()))}
    assert info["bp.init"] == {"incidences": incidences}
    assert info["bp.run"] == {"sweeps": run.sweeps, "converged": run.converged}
    assert run.sweeps >= 1 and isinstance(run.converged, bool)


def test_sampler_and_loader_build_once(tmp_path, monkeypatch):
    """The sampler and the loader each build their hypergraph in one Hypergraph.__init__ call, the span
    perfbench times as hypergraph.build and reads m and the incidence count off."""
    spec = SymmetricHsbmSpec(n=300, q=2, orders=(2, 3), d=8.0, eps=0.1, seed=0)
    path = tmp_path / "edges.txt"
    save_hyperedge_list(sample_symmetric(spec)[0], path)
    built, init = [], Hypergraph.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Hypergraph, "__init__", counted)
    for build in (lambda: sample_symmetric(spec), lambda: load_hyperedge_list(path)):
        built.clear()
        h = build()[0]
        assert built == [h] and h.m > 0


if __name__ == "__main__":
    case, out = sys.argv[1:]
    if case == "plain":
        score = plain_path(os.path.dirname(out))
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"scipy": scipy_modules(), "ami": score, "thread_pool": "concurrent.futures" in sys.modules}, fh)
    else:
        h = operator_input(case)
        if scipy_modules():
            sys.exit(f"scipy loaded before {case}: {scipy_modules()}")
        np.savez(out, *operator_arrays(case, h))
