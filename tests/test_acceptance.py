"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Desk-scale settings
(n = 2000-3000, 20 repetitions) keep the full suite within a laptop budget;
the thresholds are the sharp ones, not calibrated afterward.
"""

import functools
import math
import time

import numpy as np
import pytest

from hyperbethe import (
    BpConfig,
    ExperimentConfig,
    SymmetricHsbmSpec,
    ami,
    bethe_hessian,
    bethe_singularity,
    bp_run,
    bulk_radius,
    count_negative_eigenvalues,
    critical_epsilon,
    crossing_points,
    degrees_from_rates,
    hyperedge_message,
    kmeans,
    nonbacktracking_matrix,
    operator_cost,
    rates_from_mean_degree,
    real_eigenvalues_outside_bulk,
    run_eps_sweep,
    run_order_sweep,
    run_shape_sweep,
    sample_symmetric,
    snr_bh,
    snr_bp,
    spectral_cluster,
    switching_rho,
    transition_point,
)
from hyperbethe.bp import bp_init, bp_sweep
from hyperbethe.spectral import SpectralConfig, SpectralError

from test_bp import brute_force_message
from test_metrics import ami_oracle
from conftest import labels_match_up_to_permutation


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num:02d} ({desc}): FAIL", flush=True)
                raise
            elapsed = time.time() - start
            print(
                f"\n[acceptance] criterion {num:02d} ({desc}): PASS [{elapsed:.1f}s]",
                flush=True,
            )

        return wrapper

    return deco


@criterion(1, "uniform threshold and transition localization")
def test_c01_uniform_threshold():
    start = time.time()
    closed = (math.sqrt(20) - 1.0) / (math.sqrt(20) + 3.0)
    root = critical_epsilon(2, (3,), 10.0, which="bh")
    assert abs(root - closed) <= 1e-9
    assert abs(root - 0.4647) <= 1e-3
    assert abs(root - 0.465) <= 1e-3

    grid = (0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65)
    cfg = ExperimentConfig(
        experiment="eps-sweep", n=3000, q=2, orders=(3,), d=10.0,
        grid=grid, reps=20, methods=("bh",), seed=101, out="/tmp/acc_eps_uniform",
    )
    _, _, curves = run_eps_sweep(cfg)
    trans = transition_point(grid, curves["bh"], level=0.02)
    assert trans is not None, f"no transition located; curve = {curves['bh']}"
    assert abs(trans - root) <= 0.1, f"transition {trans} outside {root} +/- 0.1"
    assert time.time() - start <= 600.0


@criterion(2, "uniform-hypergraph SNR identity")
def test_c02_uniform_snr_identity():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        q = int(rng.integers(2, 6))
        k = int(rng.integers(2, 7))
        d = float(rng.uniform(0.5, 12.0))
        eps = float(rng.uniform(0.0, 1.0))
        c_in, c_out = rates_from_mean_degree(q, (k,), d, eps)
        per = degrees_from_rates(q, (k,), c_in, c_out)
        assert abs(snr_bp(per) - snr_bh(per)) <= 1e-12


@criterion(3, "non-uniform gap between spectral and message-passing limits")
def test_c03_nonuniform_gap():
    start = time.time()
    q, orders, d, n = 3, (2, 3), 10.0, 3000
    eps_bh = critical_epsilon(q, orders, d, which="bh")
    eps_bp = critical_epsilon(q, orders, d, which="bp")
    assert eps_bp > eps_bh
    mid = 0.5 * (eps_bh + eps_bp)

    bh_scores, bp_scores = [], []
    for seed in range(20):
        spec = SymmetricHsbmSpec(n=n, q=q, orders=orders, d=d, eps=mid, seed=seed)
        h, planted = sample_symmetric(spec)
        try:
            part = spectral_cluster(h, config=SpectralConfig(seed=0)).partition
            bh_scores.append(ami(part, planted))
        except SpectralError:
            bh_scores.append(0.0)
        res = bp_run(h, q, spec.rates(), BpConfig(seed=seed))
        bp_scores.append(ami(res.partition, planted))
    assert np.mean(bp_scores) > 0.02, f"mean BP AMI {np.mean(bp_scores):.4f}"
    assert np.mean(bh_scores) < 0.02, f"mean BH AMI {np.mean(bh_scores):.4f}"
    wins = sum(b > s for b, s in zip(bp_scores, bh_scores))
    assert wins > 10, f"BP beat the spectral method in only {wins}/20 seeds"
    assert time.time() - start <= 1800.0


@criterion(4, "shape switching points and empirical crossings")
def test_c04_shape_switching():
    assert switching_rho("shape4") == 4.0 / 3.0
    assert switching_rho("shape5") == 3.0 / 2.0

    cfg4 = ExperimentConfig(
        experiment="shape-sweep", n=2000, d=10.0, shape_order=4,
        grid=(1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7), reps=12, seed=202,
        out="/tmp/acc_shape4",
    )
    _, _, (a4, b4) = run_shape_sweep(cfg4)
    crossings4 = crossing_points(cfg4.grid, a4, b4)
    assert crossings4, "no crossing found for the order-4 shapes"
    assert any(1.1 <= x <= 1.6 for x in crossings4), f"crossings {crossings4}"

    cfg5 = ExperimentConfig(
        experiment="shape-sweep", n=2000, d=10.0, shape_order=5,
        grid=(1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9), reps=12, seed=203,
        out="/tmp/acc_shape5",
    )
    _, _, (a5, b5) = run_shape_sweep(cfg5)
    crossings5 = crossing_points(cfg5.grid, a5, b5)
    assert crossings5, "no crossing found for the order-5 shapes"
    assert any(1.3 <= x <= 1.8 for x in crossings5), f"crossings {crossings5}"


@criterion(5, "order switching point and prediction bracket")
def test_c05_order_switching():
    raw = switching_rho("order", low_order=2, high_order=3)
    assert raw == 2.0
    adjusted = switching_rho("order", low_order=2, high_order=3, adjusted=True)
    assert adjusted < raw

    cfg = ExperimentConfig(
        experiment="order-sweep", n=2000, d=50.0, low_order=2, high_order=3,
        grid=(1.86, 1.90, 1.94, 1.98, 2.02), reps=24, seed=304,
        out="/tmp/acc_order23",
    )
    _, _, (a, b) = run_order_sweep(cfg)
    crossings = crossing_points(cfg.grid, a, b)
    assert crossings, "no crossing found"
    inside = [x for x in crossings if adjusted <= x <= raw]
    assert inside, f"crossings {crossings} not bracketed by [{adjusted:.4f}, {raw}]"


@criterion(6, "non-backtracking / Bethe Hessian correspondence")
def test_c06_nb_bh_correspondence():
    for seed in range(10):
        spec = SymmetricHsbmSpec(n=100, q=2, orders=(2, 3), d=10.0, eps=0.05, seed=seed)
        h, _ = sample_symmetric(spec)
        radius = bulk_radius(h)
        nb = nonbacktracking_matrix(h)
        outliers = real_eigenvalues_outside_bulk(nb, radius)
        for lam in outliers:
            smin, snorm = bethe_singularity(h, lam)
            assert smin <= 1e-8 * snorm, f"seed {seed}: sigma_min {smin:g} at {lam:g}"
        # at positive regularization the negative eigenvalues track the real
        # eigenvalues the regularizer has crossed, i.e. those above +radius
        B = bethe_hessian(h, radius)
        negatives = count_negative_eigenvalues(B)
        above = outliers[outliers > radius]
        assert negatives == len(above), (
            f"seed {seed}: {negatives} negative eigenvalues vs {len(above)} outliers"
        )


@criterion(7, "2-uniform reduction to the dyadic pipeline")
def test_c07_graph_reduction():
    for seed in range(10):
        spec = SymmetricHsbmSpec(n=400, q=2, orders=(2,), d=10.0, eps=0.1, seed=seed)
        h, _ = sample_symmetric(spec)
        # classical pipeline on the dyadic operator
        A = h.projection(2).toarray()
        D = np.diag(h.degrees_by_order(2).astype(float))
        eta = math.sqrt(h.degree_stats().mean)
        B_graph = (eta**2 - 1.0) * np.eye(h.n) - eta * A + D
        w_graph, v_graph = np.linalg.eigh(B_graph)
        thr = -1e-8 * np.abs(np.diag(B_graph)).max()
        q_graph = int((w_graph < thr).sum())
        idx = np.argmax(np.abs(v_graph), axis=0)
        flip = v_graph[idx, np.arange(h.n)] < 0
        v_graph[:, flip] *= -1.0
        labels_graph = kmeans(v_graph[:, :q_graph], q_graph, seed=0)

        B = bethe_hessian(h, bulk_radius(h))
        w_hyper = np.linalg.eigvalsh(B.matrix.toarray())
        sign_graph = np.sign(np.where(np.abs(w_graph) < 1e-10, 0.0, w_graph))
        sign_hyper = np.sign(np.where(np.abs(w_hyper) < 1e-10, 0.0, w_hyper))
        assert np.array_equal(sign_graph, sign_hyper), f"seed {seed}: sign pattern differs"

        result = spectral_cluster(h, config=SpectralConfig(seed=0))
        assert result.partition.q == q_graph
        assert labels_match_up_to_permutation(
            result.partition.labels, labels_graph, q_graph
        ), f"seed {seed}: labels differ"


@criterion(8, "message-update oracle and trivial fixed point")
def test_c08_bp_dp_oracle():
    rng = np.random.default_rng(88)
    for k in range(2, 7):
        for q in (2, 3):
            for _ in range(100):
                inc = rng.random((k - 1, q))
                inc /= inc.sum(axis=1, keepdims=True)
                c_in = float(rng.uniform(0.2, 9.0))
                c_out = float(rng.uniform(0.0, c_in))
                dp = hyperedge_message(c_in, c_out, inc, normalize=False)
                bf = brute_force_message(c_in, c_out, inc)
                assert np.abs(dp - bf).max() <= 1e-12 * max(1.0, np.abs(bf).max())

    spec = SymmetricHsbmSpec(n=500, q=3, orders=(2, 3, 4), d=9.0, eps=0.25, seed=5)
    h, _ = sample_symmetric(spec)
    state = bp_init(h, 3, spec.rates()); state.n2e.fill(1.0 / 3)
    for _ in range(3):
        assert bp_sweep(state) <= 1e-12


@criterion(9, "generator moments at n = 30000")
def test_c09_generator_moments():
    spec = SymmetricHsbmSpec(n=30_000, q=2, orders=(2, 3), d=10.0, eps=0.3, seed=77)
    h, _ = sample_symmetric(spec)
    per = degrees_from_rates(2, (2, 3), *spec.rates())
    stats = h.degree_stats()
    for k in (2, 3):
        target = spec.n * per[k].d / k
        sigma = math.sqrt(target)
        got = h.order_counts()[k]
        assert abs(got - target) <= 3 * sigma, f"m^({k}) = {got} vs {target:.0f} (3s={3*sigma:.0f})"
        assert abs(stats.per_order[k] - per[k].d) <= 0.05 * per[k].d
    assert abs(stats.mean - 10.0) <= 0.5


@criterion(10, "mutual-information oracle agreement")
def test_c10_ami_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(50):
        n = int(rng.integers(4, 24))
        a = rng.integers(0, int(rng.integers(2, 5)), size=n)
        b = rng.integers(0, int(rng.integers(2, 5)), size=n)
        assert ami(a, b) == pytest.approx(ami_oracle(a, b), abs=1e-12)
    labels = rng.integers(0, 3, size=40)
    assert ami(labels, labels) == 1.0
    assert ami(labels, (labels + 1) % 3) == 1.0


@criterion(11, "operator cost inequality")
def test_c11_cost_inequality():
    cases = [
        SymmetricHsbmSpec(n=800, q=2, orders=(2,), d=4.0, eps=0.5, seed=0),
        SymmetricHsbmSpec(n=800, q=2, orders=(2,), d=10.0, eps=0.2, seed=1),
        SymmetricHsbmSpec(n=600, q=3, orders=(2, 3), d=6.0, eps=0.3, seed=2),
        SymmetricHsbmSpec(n=600, q=2, orders=(3,), d=8.0, eps=0.4, seed=3),
        SymmetricHsbmSpec(n=500, q=2, orders=(2, 3, 4), d=9.0, eps=0.1, seed=4),
        SymmetricHsbmSpec(n=400, q=4, orders=(2, 4), d=12.0, eps=0.6, seed=5),
    ]
    for spec in cases:
        h, _ = sample_symmetric(spec)
        assert h.degree_stats().mean > 2.0
        report = operator_cost(h)
        assert report.nb_total > report.bh_total, str(spec)
