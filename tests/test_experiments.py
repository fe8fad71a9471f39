import argparse
import ctypes
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

from hyperbethe import (
    BpConfig,
    ExperimentConfig,
    Partition,
    SymmetricHsbmSpec,
    confusion,
    crossing_points,
    load_partition,
    run,
    run_eps_sweep,
    run_order_sweep,
    run_shape_sweep,
    run_spectrum,
    sample_symmetric,
    save_partition,
    switching_rho,
    transition_point,
)
from hyperbethe import experiments, spectral
from hyperbethe.cli import build_parser
from hyperbethe.cli import main as cli_main
from hyperbethe.experiments import ExperimentError
from hyperbethe.hypergraph import save_hyperedge_list
from hyperbethe.spectral import BlasThreadError, EigenConvergenceError, SpectralError

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_child(code, *args, threads="1"):
    """Run code in a fresh interpreter on this checkout's package, with BLAS limited to `threads`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", textwrap.dedent(code), *map(str, args)], env=env, check=True, timeout=300)


class TestHelpers:
    def test_transition_point_rule(self):
        grid = [0.1, 0.2, 0.3, 0.4]
        assert transition_point(grid, [0.5, 0.1, 0.01, 0.005]) == 0.3
        assert transition_point(grid, [0.5, 0.01, 0.3, 0.005]) == 0.4
        assert transition_point(grid, [0.01, 0.01, 0.01, 0.01]) == 0.1
        assert transition_point(grid, [0.5, 0.5, 0.5, 0.5]) is None

    def test_crossing_points_interpolation(self):
        grid = [1.0, 2.0, 3.0]
        a = [1.0, 0.5, 0.0]
        b = [0.0, 0.5, 1.0]
        assert crossing_points(grid, a, b) == [2.0]
        a = [1.0, 0.6, 0.2]
        b = [0.0, 0.4, 0.8]
        (x,) = crossing_points(grid, a, b)
        assert 2.0 < x < 3.0
        # a segment with a missing mean is skipped; so are parallel and coincident segments
        assert crossing_points((0, 1, 2), (None, 0.5, 0.125), (0.25, 0.25, 0.375)) == [1.5]
        assert crossing_points((0, 1), (0.5, 0.75), (0.25, 0.5)) == []
        assert crossing_points((0, 1, 2), (0.25, 0.25, 0.5), (0.25, 0.25, 0.25)) == [1]

    def test_config_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(experiment="eps-sweep", grid=())
        with pytest.raises(ExperimentError):
            ExperimentConfig(experiment="eps-sweep", grid=(0.1,), reps=0)
        with pytest.raises(ExperimentError):
            run(ExperimentConfig(experiment="nope", grid=(1,)))

    @pytest.mark.parametrize("methods", [(), ("bx",), ("bh", "bx")])
    def test_eps_sweep_rejects_unknown_or_no_methods(self, methods):
        with pytest.raises(ExperimentError, match="methods"):
            ExperimentConfig("eps-sweep", grid=(0.1,), methods=methods)

    def test_config_from_json_with_bp_block(self):
        cfg = ExperimentConfig.from_json(
            '{"experiment": "eps-sweep", "grid": [0.1], "methods": ["bh", "bp"],'
            ' "bp": {"max_sweeps": 50, "damping": 0.2}}'
        )
        assert cfg.bp.max_sweeps == 50
        assert cfg.bp.damping == 0.2
        assert cfg.methods == ("bh", "bp")

    def test_code_built_bp_seed_rejected(self):
        # run_eps_sweep seeds BP per repetition, so a seed here would be ignored
        with pytest.raises(ExperimentError, match="seeded per repetition"):
            ExperimentConfig("eps-sweep", grid=(0.1,), bp=BpConfig(seed=3))

    @pytest.mark.parametrize(
        "experiment, key, value, json_value",
        [("shape-sweep", "q", 7, 7), ("shape-sweep", "methods", ("bp",), ["bp"]),
         ("spectrum", "bp", BpConfig(max_sweeps=5), {"max_sweeps": 5}), ("order-sweep", "shape_order", 5, 5),
         ("eps-sweep", "low_order", 3, 3)],
    )
    def test_code_built_config_rejects_fields_its_experiment_ignores(self, experiment, key, value, json_value):
        # the same message as the JSON form's
        with pytest.raises(ExperimentError) as info:
            ExperimentConfig(experiment, grid=(1.0,), **{key: value})
        with pytest.raises(ExperimentError) as json_info:
            ExperimentConfig.from_json({"experiment": experiment, "grid": [1.0], key: json_value})
        assert str(info.value) == str(json_info.value)
        assert str(info.value).startswith(f"unknown key {key!r}; {experiment} takes ")

    def test_code_built_config_takes_unread_fields_at_their_default(self):
        defaults = {"q": 2, "orders": (2, 3), "methods": ("bh",), "bp": BpConfig()}
        cfg = ExperimentConfig("shape-sweep", grid=(1.0,), **defaults)
        assert cfg == ExperimentConfig("shape-sweep", grid=(1.0,))

    @pytest.mark.parametrize("key, value", [("fixed_q", 2), ("eta_grid", [1.1, 1.2])])
    def test_config_from_json_rejects_deleted_fields(self, key, value):
        with pytest.raises(ExperimentError, match=key):
            ExperimentConfig.from_json({"experiment": "eps-sweep", "grid": [0.1], key: value})


class TestEpsSweep:
    def _config(self, out, reps=2):
        return ExperimentConfig(
            experiment="eps-sweep",
            n=300,
            q=2,
            orders=(2, 3),
            d=8.0,
            grid=(0.05, 1.0),
            reps=reps,
            methods=("bh", "bp"),
            seed=7,
            out=str(out),
        )

    def test_rows_match_grid_and_annotations(self, tmp_path):
        csv_path, json_path, curves = run_eps_sweep(self._config(tmp_path / "a"))
        rows = read_csv(csv_path)
        assert len(rows) == 1 + 2  # header + grid points
        doc = json.loads(open(json_path).read())
        assert doc["eps_bh_star"] is not None
        assert doc["eps_bp_star"] > doc["eps_bh_star"]
        # strong structure detected, none at eps = 1
        assert curves["bh"][0] > 0.5
        assert abs(curves["bh"][1]) <= 0.02
        assert abs(curves["bp"][1]) <= 0.02

    def test_byte_identical_reruns(self, tmp_path):
        c1 = self._config(tmp_path / "r1")
        c2 = self._config(tmp_path / "r2")
        p1, j1, _ = run_eps_sweep(c1)
        p2, j2, _ = run_eps_sweep(c2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(j1, "rb").read() == open(j2, "rb").read()

    def test_bp_error_fails_the_sweep(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(experiments, "bp_run", broken)
        with pytest.raises(RuntimeError, match="kernel fault"):
            run_eps_sweep(self._config(tmp_path))


def shape_config(out, reps=3):
    return ExperimentConfig(
        experiment="shape-sweep", n=400, d=10.0, shape_order=4,
        grid=(1.0,), reps=reps, seed=4, out=str(out),
    )


class TestFailureRule:
    @pytest.fixture
    def broken_spectral(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("eigensolver fault")

        monkeypatch.setattr(experiments, "spectral_cluster", broken)

    def test_eps_sweep_error_propagates(self, tmp_path, broken_spectral):
        cfg = ExperimentConfig(
            experiment="eps-sweep", n=200, q=2, d=8.0, grid=(0.05,), reps=2,
            methods=("bh",), out=str(tmp_path),
        )
        with pytest.raises(RuntimeError, match="eigensolver fault"):
            run_eps_sweep(cfg)

    def test_shape_sweep_error_propagates(self, tmp_path, broken_spectral):
        with pytest.raises(RuntimeError, match="eigensolver fault"):
            run_shape_sweep(shape_config(tmp_path))

    @pytest.fixture
    def arpack_fails(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def no_convergence(A, k, **kwargs):
            raise spla.ArpackNoConvergence("patched", np.zeros(0), np.zeros((A.shape[0], 0)))

        monkeypatch.setattr(spla, "eigsh", no_convergence)

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(experiment="eps-sweep", n=1000, q=2, d=8.0, grid=(0.1,), reps=1, methods=("bh",)),
            dict(experiment="shape-sweep", n=1000, d=10.0, grid=(1.0,), reps=1),
        ],
        ids=["eps", "shape"],
    )
    def test_failed_eigensolve_fails_the_sweep(self, tmp_path, arpack_fails, cfg):
        # above the dense cutoff the Lanczos solver runs; its failure is not "no structure"
        with pytest.raises(EigenConvergenceError, match="did not converge"):
            run(ExperimentConfig(**cfg, out=str(tmp_path)))
        assert os.listdir(tmp_path) == []

    def test_no_structure_rep_scores_zero(self, tmp_path, monkeypatch):
        real_cluster, real_ami = experiments.spectral_cluster, experiments.ami
        calls, scores = [], []

        def cluster(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise SpectralError("no negative eigenvalues")
            return real_cluster(*args, **kwargs)

        def recording_ami(*args):
            scores.append(real_ami(*args))
            return scores[-1]

        monkeypatch.setattr(experiments, "spectral_cluster", cluster)
        monkeypatch.setattr(experiments, "ami", recording_ami)
        csv_path, _, (curve_a, curve_b) = run_shape_sweep(shape_config(tmp_path))
        assert len(calls) == 3 and len(scores) == 4
        # rep 1 scores 0 on both columns and the means run over all 3 reps
        per_rep_a = [scores[0], 0.0, scores[2]]
        per_rep_b = [scores[1], 0.0, scores[3]]
        assert curve_a == [np.mean(per_rep_a)]
        assert curve_b == [np.mean(per_rep_b)]
        stderr_a = np.std(per_rep_a, ddof=1) / np.sqrt(3)
        assert read_csv(csv_path)[1][2] == f"{stderr_a:.12g}"


class TestBlasThreads:
    def test_sweep_identical_across_thread_counts(self, tmp_path):
        # the thread counts are set in the children only
        child = """
            import sys
            from hyperbethe import ExperimentConfig, run_eps_sweep
            run_eps_sweep(ExperimentConfig(
                experiment="eps-sweep", n=600, q=3, orders=(2, 3), d=10.0, grid=(0.1, 0.3),
                reps=2, methods=("bh", "bp"), seed=3, out=sys.argv[1],
            ))
            """
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            run_child(child, out, threads=threads)
            outputs.append([(out / name).read_bytes() for name in ("eps_sweep.csv", "eps_sweep.json")])
        assert outputs[0] == outputs[1]
        assert len(read_csv(tmp_path / "threads1" / "eps_sweep.csv")) == 3


    @staticmethod
    def spectrum_at_one_and_two_threads(doc, tmp_path):
        child = """
            import json, sys
            from hyperbethe import ExperimentConfig, run
            run(ExperimentConfig.from_json(dict(json.loads(sys.argv[1]), out=sys.argv[2])))
            """
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            run_child(child, json.dumps(doc), out, threads=threads)
            written.append((out / "spectrum.json").read_bytes())
        return written

    def test_spectrum_identical_across_thread_counts(self, tmp_path):
        doc, digests = PINNED["spectrum"]
        one, two = self.spectrum_at_one_and_two_threads(doc, tmp_path)
        assert one == two
        assert hashlib.sha256(two).hexdigest() == digests["spectrum.json"]

    def test_spectrum_at_n300_identical_across_thread_counts(self, tmp_path):
        # each of the ten Bethe Hessian spectra of this dump moves in its last bits at two unpinned threads
        doc = {"experiment": "spectrum", "n": 300, "q": 2, "orders": [2, 3], "d": 4.0, "grid": [0.1], "seed": 3}
        one, two = self.spectrum_at_one_and_two_threads(doc, tmp_path)
        assert one == two
        assert hashlib.sha256(one).hexdigest() == "23a8595a76da61d3387088850a2a6b8e6b24cb59a5f76729dc2405b952cf7b12"

    def test_spectrum_pin_restores_the_thread_count(self):
        from numpy._core import _multiarray_umath

        blas = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
        before = get()
        try:
            put(2)
            with spectral.one_blas_thread():
                inside = get()
            assert (inside, get()) == (1, 2)
        finally:
            put(before)

    def test_spectrum_without_thread_symbols_raises(self, monkeypatch, tmp_path):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
        doc, _ = PINNED["spectrum"]
        with pytest.raises(BlasThreadError, match="cannot pin numpy's BLAS to one thread"):
            run(ExperimentConfig.from_json(dict(doc, out=str(tmp_path / "out"))))
        assert not (tmp_path / "out").exists()

    def test_cli_outputs_identical_across_thread_counts(self, tmp_path):
        # every file each command writes, and what it prints; n = 300 takes the dense eigensolve, n = 1000 Lanczos
        child = """
            import json, os, sys
            from hyperbethe.cli import main
            os.makedirs(sys.argv[1])
            os.chdir(sys.argv[1])  # relative paths, so the printed lines do not name the directory
            sys.stdout = open("stdout.txt", "w")
            for n in (300, 1000):
                with open(f"model{n}.json", "w") as fh:
                    json.dump({"n": n, "q": 3, "orders": [2, 3], "d": 10.0, "eps": 0.1, "seed": 4}, fh)
                main(["generate", "--config", f"model{n}.json", "--out", f"gen{n}"])
                main(["cluster", "--input", f"gen{n}/hypergraph.txt", "--out", f"auto{n}"])
            main(["cluster", "--input", "gen300/hypergraph.txt", "--q", "3", "--out", "fixed"])
            main(["bp", "--input", "gen300/hypergraph.txt", "--q", "3", "--d", "10", "--eps", "0.1", "--out", "bp"])
            main(["snr", "--q", "3", "--orders", "2,3", "--d", "10", "--eps", "0.1"])
            """
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            run_child(child, out, threads=threads)
            written.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(written[0]) == 21 and sorted(written[0]) == sorted(written[1])
        for name, data in written[0].items():
            assert data == written[1][name], name


# A tiny config of each experiment and the sha256 of every file it writes,
# measured with one BLAS thread; TestPinnedOutputs checks them at two threads
# too.  Dense eigensolves run on one BLAS thread whatever the count.
PINNED = {
    "eps": (
        {"experiment": "eps-sweep", "n": 300, "q": 2, "orders": [2, 3], "d": 8.0, "grid": [0.05, 0.3], "reps": 2,
         "methods": ["bh", "bp"], "bp": {"max_sweeps": 50}, "seed": 7},
        {"eps_sweep.csv": "8977c2a346f29c8f92ea94a3c8c521120b80abbef389d9bf049e8e18588a7676",
         "eps_sweep.json": "c05bc32971ded895fab7d50362295c71f30cb94cc0a067d64091ed95ed4adb60"},
    ),
    "shape4": (
        {"experiment": "shape-sweep", "n": 300, "d": 10.0, "shape_order": 4, "grid": [1.0, 2.0], "reps": 2, "seed": 4},
        {"shape_sweep.csv": "a6bb97306ba29d7bab46a5e6f3bbf91dab7bdbed37bb011280742bcf7afcfa70",
         "shape_sweep.json": "d8be43e6b4bc34584c099ed90b6d84332647d36f2fe10cefd90d3dd2e7b21619"},
    ),
    "shape5": (
        {"experiment": "shape-sweep", "n": 300, "d": 10.0, "shape_order": 5, "grid": [0.9, 1.5], "reps": 2, "seed": 5},
        {"shape_sweep.csv": "868a7ee1f609995b462dd505a00ec3c89ecd4b7ebbbf4fa4b3bd5439ae60e447",
         "shape_sweep.json": "6cb4be5c33463c953bc737dd262cc524a925d416d38917bec1983bc9ca8c9e98"},
    ),
    "order": (
        {"experiment": "order-sweep", "n": 300, "d": 20.0, "low_order": 2, "high_order": 3, "grid": [1.8, 2.2],
         "reps": 2, "seed": 5},
        {"order_sweep.csv": "5ff2581ff65fda9b6ced92ce5726e7f73a432408d053e296f4a97775e4d604de",
         "order_sweep.json": "92c81ccdb78f68c1fa2928a03af9ae169d8925a8c33022acdd643dfe3c3ac053"},
    ),
    "spectrum": (
        {"experiment": "spectrum", "n": 80, "q": 2, "orders": [2, 3], "d": 9.0, "grid": [0.08], "seed": 3},
        {"spectrum.json": "c0b3d1b2148f31a73b092bb4f83d6475d894d6c287fce903af0c99c6a0db7eb0"},
    ),
}


class TestPinnedOutputs:
    @staticmethod
    def digests_written(out, threads):
        child = """
            import json, os, sys
            from hyperbethe import ExperimentConfig, run
            for name, doc in json.loads(sys.argv[1]).items():
                run(ExperimentConfig.from_json(dict(doc, out=os.path.join(sys.argv[2], name))))
            """
        run_child(child, json.dumps({name: doc for name, (doc, _) in PINNED.items()}), out, threads=threads)
        return {
            name: {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in (out / name).iterdir()}
            for name in PINNED
        }

    def test_every_experiment_writes_its_pinned_bytes(self, tmp_path):
        assert self.digests_written(tmp_path, "1") == {name: digests for name, (_, digests) in PINNED.items()}

    def test_pinned_bytes_at_two_threads(self, tmp_path):
        assert self.digests_written(tmp_path, "2") == {name: digests for name, (_, digests) in PINNED.items()}


class TestShapeSweepLimits:
    def test_rare_competitor_limit(self, tmp_path):
        # almost no imbalanced hyperedges: the balanced structure is found
        from hyperbethe import run_shape_sweep

        cfg = ExperimentConfig(
            experiment="shape-sweep", n=1000, d=10.0, shape_order=4,
            grid=(0.05,), reps=4, seed=9, out=str(tmp_path),
        )
        _, json_path, (curve_a, curve_b) = run_shape_sweep(cfg)
        assert curve_a[0] > 0.9
        assert abs(curve_b[0]) < 0.05
        doc = json.loads(open(json_path).read())
        assert doc["rho_star_raw"] == pytest.approx(4.0 / 3.0)


class TestSpectrumDump:
    def test_dump_contents(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="spectrum", n=80, q=2, orders=(2, 3), d=9.0,
            grid=(0.08,), seed=3, out=str(tmp_path),
        )
        path = run_spectrum(cfg)
        doc = json.loads(open(path).read())
        assert doc["bulk_radius"] > 1.0
        assert len(doc["nb_eigenvalues"]) > 0
        assert len(doc["bh_eigenvalues"]) == len(doc["eta_grid"])
        assert all(len(s) == 80 for s in doc["bh_eigenvalues"])

    def test_size_guard(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="spectrum", n=400, grid=(0.1,), out=str(tmp_path)
        )
        with pytest.raises(ExperimentError):
            run_spectrum(cfg)


@pytest.fixture
def synthetic_dataset(tmp_path):
    spec = SymmetricHsbmSpec(n=240, q=3, orders=(2, 3), d=9.0, eps=0.05, seed=5)
    h, planted = sample_symmetric(spec)
    edges = tmp_path / "edges.txt"
    labels = tmp_path / "labels.txt"
    save_hyperedge_list(h, edges)
    save_partition(planted, labels)
    return edges, labels, planted


class TestEmpirical:
    """`cluster` on a labeled file, the paper's empirical-data workflow."""

    def test_with_labels(self, tmp_path, synthetic_dataset):
        edges, labels, planted = synthetic_dataset
        out = tmp_path / "out"
        cli_main(["cluster", "--input", str(edges), "--labels", str(labels), "--q", "3", "--out", str(out)])
        doc = json.loads(open(out / "clustering.json").read())
        assert doc["q"] == 3
        assert doc["ami"] > 0.8
        confusion_rows = read_csv(out / "confusion.csv")
        assert len(confusion_rows) == 1 + 3
        # row-normalized rows sum to ~1
        values = [float(x) for x in confusion_rows[1][1:]]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)
        comp_rows = read_csv(out / "composition_detected.csv")
        assert comp_rows[0] == ["order", "max_same_community", "count"]

    def test_one_based_labels(self, tmp_path, synthetic_dataset):
        edges, _, planted = synthetic_dataset
        labels = tmp_path / "labels1.txt"
        save_partition(Partition(planted.labels + 1, planted.q + 1), labels)
        out = tmp_path / "one"
        cli_main(["cluster", "--input", str(edges), "--labels", str(labels), "--out", str(out)])
        doc = json.loads(open(out / "clustering.json").read())
        assert doc["q"] == 3
        assert doc["ami"] == 1.0
        confusion_rows = read_csv(out / "confusion.csv")
        assert len(confusion_rows) == 1 + 3
        assert all(any(float(x) != 0.0 for x in row[1:]) for row in confusion_rows[1:])

    def test_without_labels_auto_q(self, tmp_path, synthetic_dataset):
        edges, _, _ = synthetic_dataset
        out = tmp_path / "noq"
        cli_main(["cluster", "--input", str(edges), "--out", str(out)])
        doc = json.loads(open(out / "clustering.json").read())
        assert doc.get("ami") is None
        assert doc["q"] >= 1
        assert not os.path.exists(out / "confusion.csv")


class TestCli:
    def test_generate_cluster_eval_pipeline(self, tmp_path, capsys):
        spec_doc = {
            "n": 240, "q": 2, "orders": [2, 3],
            "d": 9.0, "eps": 0.05, "seed": 11,
        }
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(spec_doc))
        gen_dir = tmp_path / "gen"
        cli_main(["generate", "--config", str(cfg), "--out", str(gen_dir)])
        assert (gen_dir / "hypergraph.txt").exists()

        clus_dir = tmp_path / "clus"
        cli_main([
            "cluster", "--input", str(gen_dir / "hypergraph.txt"),
            "--q", "2", "--out", str(clus_dir),
        ])
        out = capsys.readouterr().out
        assert "q=2" in out

        cli_main([
            "eval", "--input", str(gen_dir / "hypergraph.txt"),
            "--pred", str(clus_dir / "partition.txt"),
            "--truth", str(gen_dir / "planted.txt"),
        ])
        out = capsys.readouterr().out
        assert float(out.split("ami=")[1]) > 0.8

    def test_generate_labels_only_the_nodes_in_the_hypergraph(self, tmp_path, capsys):
        # node 228 of this instance is in no hyperedge
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"n": 300, "q": 3, "orders": [2, 3], "d": 10.0, "eps": 0.1, "seed": 4}))
        gen = tmp_path / "gen"
        cli_main(["generate", "--config", str(cfg), "--out", str(gen)])
        tokens = set((gen / "hypergraph.txt").read_text().split())
        labeled = [line.split()[0] for line in (gen / "planted.txt").read_text().splitlines()]
        assert "228" not in tokens and len(tokens) == 299
        assert labeled == sorted(tokens, key=int)
        cli_main(["cluster", "--input", str(gen / "hypergraph.txt"), "--out", str(gen)])
        cli_main(["eval", "--input", str(gen / "hypergraph.txt"), "--pred", str(gen / "partition.txt"),
                  "--truth", str(gen / "planted.txt")])
        assert float(capsys.readouterr().out.split("ami=")[1]) > 0.8

    def test_snr_subcommand(self, capsys):
        cli_main(["snr", "--q", "3", "--orders", "2,3", "--d", "10", "--eps", "0.2"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["snr_bh"] > 1.0
        assert doc["eps_bp"] > doc["eps_bh"]

    @pytest.mark.parametrize("normalize", [False, True])
    def test_eval_writes_the_confusion_csv(self, tmp_path, capsys, normalize):
        edges, pred, truth = tmp_path / "edges.txt", tmp_path / "pred.txt", tmp_path / "truth.txt"
        edges.write_text("0 1\n1 2 3\n3 4 5\n")
        pred.write_text("0 0\n1 1\n2 1\n3 1\n4 2\n5 2\n")
        truth.write_text("0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")
        out = tmp_path / "confusion.csv"
        cli_main(["eval", "--input", str(edges), "--pred", str(pred), "--truth", str(truth), "--confusion", str(out)]
                 + ["--normalize"] * normalize)
        assert capsys.readouterr().out.startswith("ami=")
        names = [str(i) for i in range(6)]
        mat = confusion(load_partition(truth, names), load_partition(pred, names), row_normalize=normalize)
        with open(out, newline="") as fh:
            assert list(csv.reader(fh)) == [["class", "community_0", "community_1", "community_2"]] + [
                [str(i)] + ["%.12g" % x for x in row] for i, row in enumerate(mat)
            ]
        assert mat.shape == (2, 3) and mat[0, 1] == (2 / 3 if normalize else 2)

    def test_snr_subcommand_rejects_partial_rates(self):
        with pytest.raises(SystemExit):
            cli_main(["snr", "--q", "2", "--orders", "2", "--c-in", "5"])
        with pytest.raises(SystemExit):
            cli_main(["snr", "--q", "2", "--orders", "2"])

    def test_bp_subcommand(self, tmp_path, capsys):
        spec_doc = {
            "n": 200, "q": 2, "orders": [2],
            "d": 8.0, "eps": 0.05, "seed": 2,
        }
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(spec_doc))
        gen_dir = tmp_path / "gen"
        cli_main(["generate", "--config", str(cfg), "--out", str(gen_dir)])
        out_dir = tmp_path / "bp"
        cli_main([
            "bp", "--input", str(gen_dir / "hypergraph.txt"), "--q", "2",
            "--d", "8.0", "--eps", "0.05", "--out", str(out_dir),
        ])
        assert (out_dir / "bp_marginals.csv").exists()
        rows = read_csv(out_dir / "bp_marginals.csv")
        assert rows[0] == ["node", "p0", "p1"]
        assert len(rows) == 1 + 200

    def test_sweep_eps_subcommand(self, tmp_path):
        doc = {
            "experiment": "eps-sweep", "n": 200, "q": 2, "orders": [2, 3], "d": 8.0,
            "grid": [0.05], "reps": 1, "methods": ["bh"], "seed": 1,
            "out": str(tmp_path / "sweep"),
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        cli_main(["run", "--config", str(cfg)])
        assert (tmp_path / "sweep" / "eps_sweep.csv").exists()

    def test_sweep_out_flag_beats_config_out(self, tmp_path):
        doc = {"experiment": "eps-sweep", "n": 200, "d": 8.0, "grid": [0.05], "reps": 1, "seed": 1,
               "out": str(tmp_path / "cfg")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "flag")])
        assert (tmp_path / "flag" / "eps_sweep.csv").exists()
        assert not (tmp_path / "cfg").exists()

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ({"n": 200, "grid": [2.0], "reps": 1}, "needs key 'experiment'"),
            ({"experiment": "shape-sweeps", "n": 200, "grid": [2.0], "reps": 1}, "unknown experiment 'shape-sweeps'"),
        ],
        ids=["missing", "unknown"],
    )
    def test_run_needs_a_known_experiment(self, tmp_path, capsys, doc, needle):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(doc, out=str(tmp_path / "x"))))
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("hyperbethe run: error: ") and captured.err.count("\n") == 1
        assert needle in captured.err
        assert not (tmp_path / "x").exists()

    def test_integer_d_writes_the_same_bytes(self, tmp_path):
        outputs = []
        for d in (10, 10.0):
            out = tmp_path / repr(d)
            cfg = tmp_path / f"{d!r}.json"
            doc = {"experiment": "eps-sweep", "n": 200, "d": d, "grid": [0.05], "reps": 1, "seed": 2, "out": str(out)}
            cfg.write_text(json.dumps(doc))
            cli_main(["run", "--config", str(cfg)])
            outputs.append([(out / name).read_bytes() for name in ("eps_sweep.csv", "eps_sweep.json")])
        assert outputs[0] == outputs[1]
        assert b'"d": 10.0' in outputs[0][1]

    @pytest.mark.parametrize(
        "experiment, runner, doc",
        [
            ("shape-sweep", run_shape_sweep, {"n": 300, "d": 10.0, "shape_order": 5, "grid": [0.9, 1.5], "reps": 2}),
            ("order-sweep", run_order_sweep, {"n": 300, "d": 20.0, "grid": [1.8, 2.2], "reps": 2}),
        ],
    )
    def test_competition_subcommands_match_runners(self, tmp_path, experiment, runner, doc):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(dict(doc, experiment=experiment, seed=5, out=str(tmp_path / "cli"))))
        cli_main(["run", "--config", str(cfg)])
        csv_path, json_path, _ = runner(
            ExperimentConfig.from_json(dict(doc, experiment=experiment, seed=5, out=str(tmp_path / "direct")))
        )
        for path in (csv_path, json_path):
            direct = open(path, "rb").read()
            assert (tmp_path / "cli" / os.path.basename(path)).read_bytes() == direct
        assert len(read_csv(csv_path)) == 3

    def test_readme_experiment_configs_load(self, tmp_path, monkeypatch):
        text = open(README, encoding="utf-8").read()
        section = text.split("## Experiment configs", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```json\n(.*?)```", section, flags=re.S)
        configs = [ExperimentConfig.from_json(block) for block in blocks]
        assert sorted(c.experiment for c in configs) == [
            "eps-sweep", "order-sweep", "shape-sweep", "shape-sweep", "spectrum",
        ]
        ran = []
        monkeypatch.setattr("hyperbethe.cli.run", lambda cfg: ran.append(cfg) or cfg.out)
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.json"
            path.write_text(block)
            cli_main(["run", "--config", str(path)])
        assert ran == configs
        (order,) = [c for c in configs if c.experiment == "order-sweep"]
        center = switching_rho("order", low_order=order.low_order, high_order=order.high_order)
        assert order.grid == pytest.approx(tuple(np.linspace(0.85 * center, 1.15 * center, 11)), abs=1e-12)

    def test_spectrum_subcommand(self, tmp_path):
        doc = {"experiment": "spectrum", "n": 80, "q": 2, "orders": [2, 3], "d": 9.0, "grid": [0.08],
               "seed": 3, "out": str(tmp_path / "spec")}
        cfg = tmp_path / "spectrum.json"
        cfg.write_text(json.dumps(doc))
        cli_main(["run", "--config", str(cfg)])
        assert (tmp_path / "spec" / "spectrum.json").exists()

    def test_cluster_takes_q_from_labels(self, tmp_path, synthetic_dataset):
        edges, labels, _ = synthetic_dataset
        out = tmp_path / "emp"
        cli_main(["cluster", "--input", str(edges), "--labels", str(labels), "--out", str(out)])
        assert (out / "partition.txt").exists()
        assert (out / "confusion.csv").exists()
        assert json.loads((out / "clustering.json").read_text())["q"] == 3

    @pytest.mark.parametrize(
        "command, options",
        [
            ("generate", {"--config", "--seed", "--out"}),
            ("cluster", {"--seed", "--out", "--input", "--labels", "--q", "--eta", "--kmeans-restarts"}),
            ("bp", {"--seed", "--out", "--input", "--q", "--c-in", "--c-out", "--d", "--eps",
                    "--max-sweeps", "--tol", "--damping"}),
            ("snr", {"--q", "--orders", "--c-in", "--c-out", "--d", "--eps"}),
            ("run", {"--config", "--seed", "--out"}),
            ("eval", {"--input", "--pred", "--truth", "--confusion", "--normalize"}),
        ],
    )
    def test_each_subcommand_has_only_the_flags_it_reads(self, command, options):
        (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(commands.choices) == {"generate", "cluster", "bp", "snr", "run", "eval"}
        flags = {f for a in commands.choices[command]._actions for f in a.option_strings} - {"-h", "--help"}
        assert flags == options

    SPEC = {"n": 200, "q": 2, "orders": [2], "d": 8.0, "eps": 0.05}
    PATTERN = {"order": 2, "composition": {"0": 2}, "rate": 1.0}
    SWEEP = {"experiment": "eps-sweep", "n": 200, "grid": [0.05], "reps": 1}
    BP = ["bp", "--input", "EDGES", "--q", "2", "--d", "8", "--eps", "0.1"]

    @pytest.mark.parametrize(
        "argv, config, needle",
        [
            pytest.param(["generate"], dict(SPEC, mode="degree-eps"), "unknown key 'mode'", id="mode"),
            pytest.param(["generate"], dict(SPEC, nn=200), "unknown key 'nn'", id="misspelt-spec-key"),
            pytest.param(["generate"], dict(SPEC, c_in=5.0, c_out=1.0), "exactly one of", id="both-pairs"),
            pytest.param(["generate"], {"q": 2, "orders": [2], "d": 8.0, "eps": 0.05}, "needs key 'n'", id="no-n"),
            pytest.param(["generate"], {"n": 200, "orders": [2], "d": 8.0, "eps": 0.05}, "needs key 'q'", id="no-q"),
            pytest.param(["generate"], {"n": 200, "q": 2, "d": 8.0, "eps": 0.05}, "needs key 'orders'", id="no-orders"),
            pytest.param(["generate"], {"n": 200, "q": 2, "patterns": [{"order": 2, "composition": {"0": 2}}]},
                         "PlantedPattern needs key 'rate'", id="pattern-key"),
            pytest.param(["generate"], '{"n": 200,', "Expecting", id="not-json"),
            pytest.param(["run"], dict(SWEEP, methodz=["bh"]), "unknown key 'methodz'", id="sweep-key"),
            pytest.param(["run"], dict(SWEEP, bp={"sweepz": 3}), "unknown key 'sweepz'", id="bp-block-key"),
            pytest.param(["generate"], dict(SPEC, d=None), "exactly one of", id="null-d"),
            pytest.param(["generate"], dict(SPEC, n=300.7), "key 'n' takes int, not 300.7", id="float-n"),
            pytest.param(["generate"], dict(SPEC, q=True), "key 'q' takes int, not true", id="bool-q"),
            pytest.param(["generate"], dict(SPEC, orders="23"), "key 'orders' takes tuple[int, ...]",
                         id="string-orders"),
            pytest.param(["generate"], dict(SPEC, seed=1.5), "key 'seed' takes int, not 1.5", id="float-seed"),
            pytest.param(["generate"], dict(SPEC, seed=-1), "seed -1 must be >= 0", id="negative-seed"),
            pytest.param(["generate"], {"n": 200, "q": 2, "patterns": [dict(PATTERN, rate="x")]},
                         "key 'rate' takes float, not \"x\"", id="string-rate"),
            pytest.param(["generate"], {"n": 200, "q": 2, "patterns": [dict(PATTERN, composition=[2])]},
                         "key 'composition' takes dict[int, int], not [2]", id="list-composition"),
            pytest.param(["generate"], [SPEC], "needs a JSON object", id="top-level-list"),
            pytest.param(["generate"], dict(SPEC, eps=1.5), "eps must lie in [0, 1]", id="eps-above-1"),
            pytest.param(["generate"], {"n": 200, "q": 2, "patterns": [dict(PATTERN, composition={"0": 2, "1": 0})]},
                         "composition counts must be positive", id="zero-composition-count"),
            pytest.param(["generate"], {"n": 200, "q": 2, "patterns": [dict(PATTERN, composition={"2": 2})]},
                         "pattern community outside [0, q)", id="pattern-community-q"),
            pytest.param(["generate", "--seed", "-1"], SPEC, "seed -1 must be >= 0", id="generate-seed-flag"),
            pytest.param(["run"], dict(SWEEP, reps="3"), "key 'reps' takes int, not \"3\"", id="string-reps"),
            pytest.param(["run"], dict(SWEEP, methods="bh"), "key 'methods' takes tuple[str, ...]",
                         id="string-methods"),
            pytest.param(["run"], dict(SWEEP, grid=0.1), "key 'grid' takes tuple[float, ...]", id="number-grid"),
            pytest.param(["run"], dict(SWEEP, orders=[2.5]), "key 'orders' takes int, not 2.5", id="float-order"),
            pytest.param(["run"], dict(SWEEP, bp={"max_sweeps": "5"}), "key 'max_sweeps' takes int",
                         id="bp-block-type"),
            pytest.param(["run"], dict(SWEEP, bp={"seed": 3}), "key 'seed' in \"bp\" has no effect: BP is seeded "
                         "per repetition", id="bp-block-seed"),
            pytest.param(["run"], dict(SWEEP, bp={"init": "uniform"}), "unknown key 'init'", id="bp-block-init"),
            pytest.param(["run"], dict(SWEEP, bp={"planted_smoothing": 0.1}), "unknown key 'planted_smoothing'",
                         id="bp-block-planted-smoothing"),
            pytest.param(["run"], dict(SWEEP, seed=-1), "seed -1 must be >= 0", id="run-seed"),
            pytest.param(["run", "--seed", "-1"], SWEEP, "seed -1 must be >= 0", id="run-seed-flag"),
            pytest.param(["run"], dict(SWEEP, shape_order=4), "unknown key 'shape_order'; eps-sweep takes",
                         id="eps-sweep-shape-order"),
            pytest.param(["run"], {"experiment": "shape-sweep", "n": 200, "grid": [1.0], "reps": 1, "q": 4},
                         "unknown key 'q'; shape-sweep takes", id="shape-sweep-q"),
            pytest.param(["run"], {"experiment": "shape-sweep", "n": 200, "grid": [1.0], "reps": 1, "shape_order": 6},
                         "unknown experiment kind 'shape6'", id="shape-order-6"),
            pytest.param(["run"], {"experiment": "spectrum", "n": 60, "grid": [0.1], "reps": 1},
                         "unknown key 'reps'; spectrum takes", id="spectrum-reps"),
            pytest.param(["run"], {"experiment": "spectrum", "n": 60, "grid": [0.1, 0.2]}, "one value for spectrum",
                         id="spectrum-grid"),
            pytest.param(["cluster", "--input", "EDGES", "--q", "2", "--kmeans-restarts", "0"], (), "restarts >= 1",
                         id="kmeans-restarts"),
            pytest.param(["cluster", "--input", "EDGES", "--q", "0"], (), "k must be in [1, 4]", id="cluster-q-0"),
            pytest.param(["cluster", "--input", "EDGES", "--q", "5"], (), "k must be in [1, 4]",
                         id="cluster-q-above-n"),
            # -1 is a pole of the order-2 operator, but the override's bulk-radius rule rejects it first
            pytest.param(["cluster", "--input", "EDGES", "--eta", "-1"], (), "eta override -1 must be finite and > 1",
                         id="cluster-pole"),
            pytest.param(["cluster", "--input", "EDGES"], (), "no negative eigenvalues", id="cluster-no-structure"),
            pytest.param(["cluster", "--input", "EDGES", "--seed", "-1"], (), "seed -1 must be >= 0",
                         id="cluster-seed"),
            pytest.param(BP + ["--seed", "-1"], (), "seed -1 must be >= 0", id="bp-seed"),
            pytest.param(BP + ["--tol", "0"], (), "convergence threshold", id="bp-tol"),
            pytest.param(["generate"], None, "No such file", id="generate-config"),
            pytest.param(["run"], None, "No such file", id="run-config"),
            pytest.param(["cluster", "--input", "MISSING"], (), "No such file", id="cluster-input"),
            # the settings are checked before the input is read
            pytest.param(["cluster", "--input", "MISSING", "--kmeans-restarts", "0"], (), "need kmeans_restarts >= 1",
                         id="kmeans-restarts-before-input"),
            pytest.param(["cluster", "--input", "EDGES", "--labels", "MISSING"], (), "No such file", id="labels"),
            pytest.param(BP[:2] + ["MISSING"] + BP[3:], (), "No such file", id="bp-input"),
            pytest.param(["eval", "--input", "EDGES", "--pred", "MISSING", "--truth", "LABELS"], (), "No such file",
                         id="pred"),
            pytest.param(["eval", "--input", "EDGES", "--pred", "LABELS", "--truth", "MISSING"], (), "No such file",
                         id="truth"),
            pytest.param(["eval", "--input", "EDGES", "--pred", "MALFORMED", "--truth", "LABELS"], (),
                         "malformed partition line: 1 0 0", id="malformed-partition-line"),
            pytest.param(["generate"], b"\xff", "can't decode byte 0xff", id="generate-config-not-utf8"),
            pytest.param(["run"], b"\xff", "can't decode byte 0xff", id="run-config-not-utf8"),
            pytest.param(["cluster", "--input", "BINARY"], (), "can't decode byte 0xff", id="cluster-input-not-utf8"),
            pytest.param(["cluster", "--input", "EDGES", "--labels", "BINARY"], (), "can't decode byte 0xff",
                         id="labels-not-utf8"),
            pytest.param(BP[:2] + ["BINARY"] + BP[3:], (), "can't decode byte 0xff", id="bp-input-not-utf8"),
            pytest.param(["eval", "--input", "BINARY", "--pred", "LABELS", "--truth", "LABELS"], (),
                         "can't decode byte 0xff", id="eval-input-not-utf8"),
            pytest.param(["eval", "--input", "EDGES", "--pred", "BINARY", "--truth", "LABELS"], (),
                         "can't decode byte 0xff", id="pred-not-utf8"),
            pytest.param(["eval", "--input", "EDGES", "--pred", "LABELS", "--truth", "BINARY"], (),
                         "can't decode byte 0xff", id="truth-not-utf8"),
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, capsys, argv, config, needle):
        """config: the --config document (None: a missing file, (): no --config); BINARY is not UTF-8."""
        paths = {"EDGES": tmp_path / "edges.txt", "LABELS": tmp_path / "labels.txt", "MISSING": tmp_path / "nope",
                 "MALFORMED": tmp_path / "malformed.txt", "BINARY": tmp_path / "binary.txt"}
        paths["EDGES"].write_text("0 1\n1 2 3\n")
        paths["LABELS"].write_text("0 0\n1 0\n2 1\n3 1\n")
        paths["MALFORMED"].write_text("# a comment-only line is skipped\n0 0\n1 0 0\n2 1\n3 1\n")
        paths["BINARY"].write_bytes(b"0 1\n1 \xff\n")
        argv = [str(paths.get(a, a)) for a in argv]
        if config != ():
            path = tmp_path / "config.json"
            if isinstance(config, bytes):
                path.write_bytes(config)
            elif config is not None:
                path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv += ["--config", str(path)]
        if argv[0] != "eval":
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith(f"hyperbethe {argv[0]}: error: ") and captured.err.count("\n") == 1
        assert needle in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_config_is_required(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--out", "x"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "usage:" in err
        assert err.splitlines()[-1] == f"hyperbethe {command}: error: the following arguments are required: --config"

    @pytest.mark.parametrize(
        "argv",
        [
            ["snr", "--q", "2", "--orders", "2", "--d", "8", "--eps", "0.1", "--out", "x"],
            ["eval", "--input", "e", "--pred", "p", "--truth", "t", "--seed", "1"],
            ["cluster", "--input", "e", "--config", "f"],
            ["empirical", "--input", "e"],
            ["bp", "--input", "e", "--q", "2", "--d", "8", "--eps", "0.1", "--config", "f"],
        ],
    )
    def test_dead_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_normalize_without_confusion_is_a_usage_error(self, capsys):
        # rejected before any input file is read: these paths do not exist
        with pytest.raises(SystemExit) as exc:
            cli_main(["eval", "--input", "e", "--pred", "p", "--truth", "t", "--normalize"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--normalize needs --confusion" in err
