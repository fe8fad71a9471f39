import ctypes
import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperbethe import (
    Hypergraph,
    Partition,
    SpectralConfig,
    SpectralError,
    SymmetricHsbmSpec,
    ami,
    bethe_hessian,
    bulk_radius,
    count_negative_eigenvalues,
    critical_epsilon,
    kmeans,
    lowest_eigenpairs,
    sample_symmetric,
    spectral_cluster,
)
from hyperbethe import spectral
from hyperbethe.hsbm import shape_experiment_spec
from hyperbethe.spectral import BlasThreadError, EigenConvergenceError

from conftest import edge_tuples, labels_match_up_to_permutation, random_hypergraph
from differential import check as differential_check, near_threshold_specs


def dense_operator(h, eta):
    """Direct dense evaluation of the operator definition."""
    n = h.n
    B = np.eye(n)
    for k in h.orders:
        denom = (1.0 - eta) * (eta + k - 1.0)
        B -= np.diag((k - 1.0) / denom * h.degrees_by_order(k))
        B += eta / denom * h.projection(k).toarray()
    return B


def broadcast_kmeans(points, k, *, restarts=20, max_iter=300, seed=0):
    """The (n, k, dim) broadcast Lloyd loop with inline k-means++ seeding, as a reference.

    Squared distances add the squared coordinate differences in coordinate
    order, the sum kmeans documents for its seeding weights and inertia, and
    a center adds its points in point order, as a cumulative sum does in any
    dim (numpy's mean would sum a single column pairwise).
    """
    X = np.asarray(points, dtype=float)
    n, dim = X.shape

    def sq(diff):
        return sum(diff[..., j] ** 2 for j in range(dim))

    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
        centers = np.empty((k, dim))
        centers[0] = X[rng.integers(n)]
        d2 = sq(X - centers[0])
        for c in range(1, k):
            total = d2.sum()
            centers[c] = X[rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, sq(X - centers[c]))
        labels = None
        for _ in range(max_iter):
            d2 = sq(X[:, None, :] - centers[None, :, :])
            new_labels = d2.argmin(axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                mask = labels == c
                if mask.any():
                    centers[c] = np.cumsum(X[mask], axis=0)[-1] / mask.sum()
                else:
                    centers[c] = X[d2.min(axis=1).argmax()]
        inertia = sq(X - centers[labels]).sum()
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


def bench_model(n, *, q=3, eps=0.1, seed=0):
    """An instance of the bench model (orders 2 and 3, d = 10) and its operator."""
    spec = SymmetricHsbmSpec(n=n, q=q, orders=(2, 3), d=10.0, eps=eps, seed=seed)
    h, _ = sample_symmetric(spec)
    return h, bethe_hessian(h, bulk_radius(h))


def guard_bound(B, tol=1e-8):
    return tol * np.abs(B.matrix.toarray()).sum(axis=1).max()


def dense_cluster(h):
    """spectral_cluster(h) on the dense path, the reference for the filtered count."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "DENSE_CUTOFF", h.n)
        return spectral_cluster(h)


def assert_same_result(result, reference):
    """Same count and labels; eigenvalues within 1e-8, sign-fixed embedding within 1e-6."""
    q = reference.partition.q
    assert result.partition.q == q
    assert np.allclose(result.eigenvalues, reference.eigenvalues, atol=1e-8)
    assert np.allclose(result.embedding, reference.embedding, atol=1e-6)
    assert labels_match_up_to_permutation(result.partition.labels, reference.partition.labels, q)


def record_solves(monkeypatch, edit=None):
    """(which, k, tol, v0) of each eigsh call; edit(mu, v) may alter each filtered solve's output."""
    calls = []
    eigsh = spla.eigsh

    def recorded(*args, **kwargs):
        calls.append((kwargs["which"], kwargs["k"], kwargs["tol"], np.copy(kwargs["v0"])))
        mu, v = eigsh(*args, **kwargs)
        if edit and kwargs["which"] == "LA":
            edit(mu, v)
        return mu, v

    monkeypatch.setattr(spla, "eigsh", recorded)
    return calls


def solve_kinds(calls):
    return [(which, k, tol) for which, k, tol, _ in calls]


def unresolve_top_value(mu, v):
    """Move the largest filtered Ritz value to within its residual of 1, still above 1."""
    top = np.argmax(mu)
    mu[top] = 1.0 + 1e-3 * (mu[top] - 1.0)


def perturb_top(mu, v):
    """Move the vector of the largest filtered Ritz value, the lowest theta, out of the guard."""
    i = np.argmax(mu)
    x = v[:, i] + 1e-5 * np.random.default_rng(0).standard_normal(v.shape[0])
    v[:, i] = x / np.linalg.norm(x)


def with_isolated(h, extra):
    """The same hyperedges on extra trailing nodes that no hyperedge touches."""
    return Hypergraph(h.n + extra, list(edge_tuples(h)))


class TestBulkRadius:
    def test_2_uniform(self):
        # 2-uniform with mean degree exactly 9 -> radius 3
        h = Hypergraph(2, [(0, 1)] * 9)
        assert h.degree_stats().mean == 9.0
        assert bulk_radius(h) == pytest.approx(3.0, rel=1e-15)

    def test_mixed_order_arithmetic(self):
        # per-order mean degrees 4 (order 2) and 2 (order 3) -> 2 + 2 = 4
        h = Hypergraph(3, [(0, 1)] * 6 + [(0, 1, 2)] * 2)
        stats = h.degree_stats()
        assert stats.per_order == {2: 4.0, 3: 2.0}
        assert bulk_radius(h) == pytest.approx(4.0, rel=1e-15)

    def test_additive_over_orders(self):
        spec = SymmetricHsbmSpec(n=600, q=2, orders=(2, 3), d=8.0, eps=0.3, seed=0)
        h, _ = sample_symmetric(spec)
        stats = h.degree_stats()
        expected = sum(np.sqrt(dk * (k - 1)) for k, dk in stats.per_order.items())
        assert bulk_radius(h) == pytest.approx(expected, rel=1e-12)

    def test_too_sparse_errors(self):
        h = Hypergraph(10, [(0, 1)])
        with pytest.raises(SpectralError, match="sparse"):
            bulk_radius(h)

    def test_empty_errors(self):
        with pytest.raises(SpectralError):
            bulk_radius(Hypergraph(5, []))


class TestBetheHessian:
    def test_hand_value_single_2_edge(self):
        B = bethe_hessian(Hypergraph(2, [(0, 1)]), 2.0)
        expected = np.array([[4.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 4.0 / 3.0]])
        assert np.allclose(B.matrix.toarray(), expected, atol=1e-15)
        # equals the classical graph operator (eta^2-1) I - eta A + D up to 1/(eta^2-1)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = 3.0 * np.eye(2) - 2.0 * A + np.eye(2)
        assert np.allclose(B.matrix.toarray(), graph / 3.0, atol=1e-15)

    def test_hand_value_single_3_edge(self):
        B = bethe_hessian(Hypergraph(3, [(0, 1, 2)]), 2.0)
        A3 = np.ones((3, 3)) - np.eye(3)
        assert np.allclose(B.matrix.toarray(), 1.5 * np.eye(3) - 0.5 * A3, atol=1e-15)
        assert np.allclose(
            np.linalg.eigvalsh(B.matrix.toarray()), [0.5, 2.0, 2.0], atol=1e-12
        )

    def test_empty_hypergraph_is_identity(self):
        B = bethe_hessian(Hypergraph(4, []), 3.7)
        assert np.allclose(B.matrix.toarray(), np.eye(4))
        B = bethe_hessian(Hypergraph(0, []), 3.7)
        assert B.n == 0 and (B.norm, B.threshold) == (1.0, -1e-8)

    def test_pole_rejection(self):
        h = Hypergraph(3, [(0, 1, 2)])
        for eta in (1.0, -2.0):
            with pytest.raises(SpectralError, match="pole"):
                bethe_hessian(h, eta)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_dense_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 50))
        orders = tuple(int(k) for k in rng.choice([2, 3, 4, 5], size=2, replace=False) if k <= n)
        h = random_hypergraph(rng, n, orders=orders or (2,))
        eta = float(rng.uniform(1.5, 6.0))
        B = bethe_hessian(h, eta)
        dense = dense_operator(h, eta)
        assert np.allclose(B.matrix.toarray(), dense, atol=1e-12)
        x = rng.standard_normal(n)
        assert np.allclose(B.matrix @ x, dense @ x, atol=1e-12)

    def test_isolated_nodes_are_identity_rows(self):
        spec = SymmetricHsbmSpec(n=200, q=2, orders=(2, 3), d=10.0, eps=0.1, seed=5)
        h, _ = sample_symmetric(spec)
        eta = bulk_radius(h)
        big = with_isolated(h, 5)
        dense = bethe_hessian(big, eta).matrix.toarray()
        assert np.array_equal(dense[200:, :], np.eye(205)[200:, :])
        assert np.array_equal(dense[:200, :200], bethe_hessian(h, eta).matrix.toarray())

    def test_single_order_ten_matches_dense_definition(self):
        rng = np.random.default_rng(22)
        h = Hypergraph(40, [tuple(rng.choice(40, size=10, replace=False)) for _ in range(15)])
        assert h.orders == (10,)
        B = bethe_hessian(h, 4.0)
        assert np.allclose(B.matrix.toarray(), dense_operator(h, 4.0), atol=1e-12)

    @pytest.mark.parametrize("case", ["mixed_orders", "isolated_nodes", "single_order_ten"])
    def test_exactly_symmetric(self, case):
        # nothing symmetrizes B at run time, so B == B^T must hold bit for bit
        rng = np.random.default_rng(7)
        if case == "mixed_orders":
            h = random_hypergraph(rng, 60, orders=(2, 3, 4))
        elif case == "isolated_nodes":
            h = with_isolated(random_hypergraph(rng, 60), 5)
        else:
            h = Hypergraph(40, [tuple(rng.choice(40, size=10, replace=False)) for _ in range(15)])
        op = bethe_hessian(h, 3.3)
        B, dense = op.matrix, op.matrix.toarray()
        assert B.format == "csr" and B.dtype == np.float64
        assert (B != B.T).nnz == 0
        assert np.array_equal(dense, dense.T)
        # the values stored next to it, once
        assert op.norm == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-14)
        assert op.threshold == -1e-8 * np.abs(np.diag(dense)).max()

    def test_nnz_bound(self):
        spec = SymmetricHsbmSpec(n=500, q=2, orders=(2, 3), d=6.0, eps=0.2, seed=4)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        bound = h.n + sum(h.projection(k).nnz for k in h.orders)
        assert B.matrix.nnz <= bound


class TestEigensolver:
    def test_identity_matrix(self):
        B = bethe_hessian(Hypergraph(4, []), 2.0)
        w, v = lowest_eigenpairs(B, 1)
        assert w[0] == pytest.approx(1.0)
        assert np.linalg.norm(v[:, 0]) == pytest.approx(1.0)

    def test_3_edge_lowest(self):
        B = bethe_hessian(Hypergraph(3, [(0, 1, 2)]), 2.0)
        w, _ = lowest_eigenpairs(B, 1)
        assert w[0] == pytest.approx(0.5, abs=1e-10)

    def test_against_dense_oracle_small(self, rng):
        spec = SymmetricHsbmSpec(n=180, q=2, orders=(2, 3), d=8.0, eps=0.1, seed=3)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        w, v = lowest_eigenpairs(B, 4)
        dense_w = np.linalg.eigvalsh(B.matrix.toarray())
        assert np.allclose(w, dense_w[:4], atol=1e-8)

    def test_iterative_path_matches_dense(self):
        # n > the dense cutoff exercises ARPACK
        spec = SymmetricHsbmSpec(n=900, q=2, orders=(2,), d=8.0, eps=0.1, seed=6)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        w, v = lowest_eigenpairs(B, 3, seed=1)
        dense_w = np.linalg.eigvalsh(B.matrix.toarray())
        assert np.allclose(w, dense_w[:3], atol=1e-7)
        norm = np.abs(B.matrix.toarray()).sum(axis=1).max()
        res = np.linalg.norm(B.matrix @ v - v * w, axis=0)
        assert res.max() <= 1e-8 * norm

    def test_determinism(self):
        spec = SymmetricHsbmSpec(n=900, q=2, orders=(2,), d=8.0, eps=0.1, seed=6)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        w1, v1 = lowest_eigenpairs(B, 2, seed=5)
        w2, v2 = lowest_eigenpairs(B, 2, seed=5)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    def test_k_bounds(self):
        B = bethe_hessian(Hypergraph(3, [(0, 1, 2)]), 2.0)
        with pytest.raises(ValueError):
            lowest_eigenpairs(B, 0)
        with pytest.raises(ValueError):
            lowest_eigenpairs(B, 4)


class TestCountNegative:
    def test_identity_has_none(self):
        B = bethe_hessian(Hypergraph(4, []), 2.0)
        assert count_negative_eigenvalues(B) == 0

    def test_detectable_q2(self):
        spec = SymmetricHsbmSpec(n=2000, q=2, orders=(2, 3), d=10.0, eps=0.05, seed=8)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        assert count_negative_eigenvalues(B) == 2

    def test_no_structure_leaves_only_leading_direction(self):
        # far above the threshold only the leading (degree) direction stays
        # negative; the dense oracle gives 1, not 0, per instance
        counts = []
        for seed in range(10):
            spec = SymmetricHsbmSpec(n=400, q=3, orders=(2, 3), d=10.0, eps=0.95, seed=seed)
            h, _ = sample_symmetric(spec)
            B = bethe_hessian(h, bulk_radius(h))
            counts.append(count_negative_eigenvalues(B))
        assert sorted(counts)[len(counts) // 2] <= 1

    def test_matches_dense_count(self, rng):
        spec = SymmetricHsbmSpec(n=300, q=2, orders=(2, 3), d=9.0, eps=0.15, seed=2)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        w = np.linalg.eigvalsh(B.matrix.toarray())
        thr = -1e-8 * np.abs(B.matrix.diagonal()).max()
        assert count_negative_eigenvalues(B) == int((w < thr).sum())


class TestDenseLanczosSwitch:
    def test_n601_same_count_and_partition(self, monkeypatch):
        spec = SymmetricHsbmSpec(n=601, q=3, orders=(2, 3), d=12.0, eps=0.05, seed=9)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        assert h.n == spectral.DENSE_CUTOFF + 1
        lanczos_calls = []
        eigsh = spla.eigsh
        monkeypatch.setattr(
            spla, "eigsh", lambda *a, **kw: lanczos_calls.append(1) or eigsh(*a, **kw)
        )
        lanczos_count = count_negative_eigenvalues(B)
        lanczos = spectral_cluster(h)
        assert len(lanczos_calls) == 2
        monkeypatch.setattr(spectral, "DENSE_CUTOFF", h.n)
        dense_count = count_negative_eigenvalues(B)
        dense = spectral_cluster(h)
        assert len(lanczos_calls) == 2
        assert lanczos_count == dense_count == lanczos.partition.q == dense.partition.q == 3
        assert np.allclose(lanczos.eigenvalues, dense.eigenvalues, atol=1e-8)
        assert labels_match_up_to_permutation(
            lanczos.partition.labels, dense.partition.labels, 3
        )

    def test_lanczos_batches_double_from_four(self, monkeypatch):
        spec = SymmetricHsbmSpec(n=800, q=5, orders=(2, 3), d=15.0, eps=0.05, seed=0)
        h, _ = sample_symmetric(spec)
        calls = []
        solve = spectral.lowest_eigenpairs

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        solves = []
        eigsh = spla.eigsh
        monkeypatch.setattr(
            spla, "eigsh", lambda *a, **kw: solves.append((kw["k"], kw["ncv"], kw["which"])) or eigsh(*a, **kw)
        )
        monkeypatch.setattr(spectral, "lowest_eigenpairs", counted)
        lanczos = spectral_cluster(h)
        assert solves == [(4, 18, "LA"), (8, 18, "LA")]
        assert calls == []  # the filtered pairs pass the guard: no solve on B
        monkeypatch.setattr(spectral, "DENSE_CUTOFF", h.n)
        eigh = np.linalg.eigh
        monkeypatch.setattr(spectral.np.linalg, "eigh", lambda a: calls.append(a.shape[0]) or eigh(a))
        dense = spectral_cluster(h)
        assert calls == [h.n]  # the count's one dense solve, and no further call
        assert lanczos.partition.q == dense.partition.q == 5
        assert np.allclose(lanczos.eigenvalues, dense.eigenvalues, atol=1e-8)
        assert labels_match_up_to_permutation(
            lanczos.partition.labels, dense.partition.labels, 5
        )

    def test_dense_count_solves_once(self, monkeypatch):
        spec = SymmetricHsbmSpec(n=400, q=4, orders=(2, 3), d=15.0, eps=0.05, seed=0)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        full_w, full_v = lowest_eigenpairs(B, h.n)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(spectral.np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        w, v = spectral._negative_eigenpairs(B)
        assert len(calls) == 1
        assert len(w) == 4
        # the pairs of one full solve, sliced: bitwise what a k = 8 solve returns
        w8, v8 = lowest_eigenpairs(B, 8)
        for pairs in ((full_w[:4], full_v[:, :4]), (w8[:4], v8[:, :4])):
            assert np.array_equal(w, pairs[0]) and np.array_equal(v, pairs[1])

    def test_dense_guard_covers_returned_pairs_only(self, monkeypatch):
        spec = SymmetricHsbmSpec(n=400, q=4, orders=(2, 3), d=15.0, eps=0.05, seed=0)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        full_w, full_v = lowest_eigenpairs(B, h.n)
        eigh = np.linalg.eigh

        def perturbed(column):
            def solve(a):
                w, v = eigh(a)
                x = v[:, column] + 1e-5 * np.random.default_rng(0).standard_normal(v.shape[0])
                v[:, column] = x / np.linalg.norm(x)
                return w, v
            return solve

        # a column past the count is neither guarded nor returned
        monkeypatch.setattr(spectral.np.linalg, "eigh", perturbed(4))
        w, v = spectral._negative_eigenpairs(B)
        assert np.array_equal(w, full_w[:4]) and np.array_equal(v, full_v[:, :4])
        monkeypatch.setattr(spectral.np.linalg, "eigh", perturbed(3))
        with pytest.raises(EigenConvergenceError) as info:
            spectral._negative_eigenpairs(B)
        assert info.value.residuals.shape == (4,) and info.value.residuals[3] > guard_bound(B)

    def test_dense_embedding_owns_its_columns(self):
        spec = SymmetricHsbmSpec(n=400, q=4, orders=(2, 3), d=15.0, eps=0.05, seed=0)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        _, full_v = lowest_eigenpairs(B, h.n)
        result = spectral_cluster(h)
        assert result.partition.q == 4
        # a copy of the negative columns, not a view that keeps all n alive
        assert result.embedding.base is None
        assert np.array_equal(result.embedding, full_v[:, :4])


EPS_BH = critical_epsilon(3, (2, 3), 10.0, which="bh")
EPS_MID = 0.5 * (EPS_BH + critical_epsilon(3, (2, 3), 10.0, which="bp"))


class TestSignResolvedCount:
    LOOSE = ("LA", 4, spectral.COUNT_TOL)
    TIGHT = ("LA", 4, spectral.EIG_TOL)

    def test_unresolved_batch_is_solved_again_tight(self, monkeypatch):
        # at 0.9 ARPACK stops before every Ritz value's sign is resolved
        _, B = bench_model(800, seed=2)
        ref_w, ref_v = lowest_eigenpairs(B, 3)
        monkeypatch.setattr(spectral, "COUNT_TOL", 0.9)
        calls = record_solves(monkeypatch, unresolve_top_value)
        w, v = spectral._negative_eigenpairs(B)
        assert solve_kinds(calls) == [("LA", 4, 0.9), self.TIGHT]
        start = np.random.default_rng(0).standard_normal(B.n)
        assert all(np.array_equal(v0, start) for *_, v0 in calls)  # both from the seeded start
        assert len(w) == 3
        assert np.allclose(w, ref_w, atol=1e-8) and np.allclose(v, ref_v, atol=1e-6)

    def test_near_threshold_batch_is_solved_again_unpatched(self, monkeypatch):
        # the second eigenvalue, 3.3e-4, sits just above the threshold: the
        # loose batch cannot resolve its sign and is solved again at EIG_TOL
        spec = SymmetricHsbmSpec(n=700, q=2, orders=(3,), d=10.0, eps=0.45, seed=22)
        h, _ = sample_symmetric(spec)
        B = bethe_hessian(h, bulk_radius(h))
        lam, vecs = np.linalg.eigh(B.matrix.toarray())
        assert 0.0 < lam[1] < 1e-3
        calls = record_solves(monkeypatch)
        w, v = spectral._negative_eigenpairs(B)
        assert solve_kinds(calls) == [self.LOOSE, self.TIGHT]
        assert len(w) == int((lam < B.threshold).sum()) == 1
        assert abs(w[0] - lam[0]) <= 1e-8
        assert min(np.abs(v[:, 0] - s * vecs[:, 0]).max() for s in (1.0, -1.0)) <= 1e-6

    def test_bench_instance_counts_in_one_solve(self, monkeypatch):
        # perfbench cluster_n30k's seed-0 instance: one loose batch, accepted
        h, _ = sample_symmetric(SymmetricHsbmSpec(n=30000, q=3, orders=(2, 3), d=10.0, eps=0.1, seed=0))
        B = bethe_hessian(h, bulk_radius(h))
        calls = record_solves(monkeypatch)
        assert count_negative_eigenvalues(B) == 3
        assert solve_kinds(calls) == [self.LOOSE]

    def test_guard_failure_is_solved_again_tight(self, monkeypatch):
        # the loose batch's lowest pair is moved out of the guard, its sign still
        # resolved: the batch is solved again at EIG_TOL from the seeded start
        _, B = bench_model(800)
        ref_w, ref_v = lowest_eigenpairs(B, 3)
        seen = []

        def first_batch_only(mu, v):
            if not seen:
                perturb_top(mu, v)
                seen.append((mu.copy(), v.copy()))

        calls = record_solves(monkeypatch, first_batch_only)
        w, v = spectral._negative_eigenpairs(B)
        assert solve_kinds(calls) == [self.LOOSE, self.TIGHT]
        start = np.random.default_rng(0).standard_normal(B.n)
        assert all(np.array_equal(v0, start) for *_, v0 in calls)
        mu, loose = seen[0]
        resolved, theta = self.filtered_solve_checks(B, spectral._chebyshev_filter(B), mu, loose)
        # only the guard rejects the loose batch
        assert resolved.all() and np.array_equal(theta < B.threshold, mu > 1.0)
        res = np.linalg.norm(B.matrix @ v - v * w, axis=0)
        assert res.max() <= guard_bound(B)
        assert np.allclose(w, ref_w, atol=1e-8)
        assert np.allclose(v, ref_v, atol=1e-6)

    def test_guard_rejects_perturbed_embedding_pair(self, monkeypatch):
        # the loose batch fails the guard and is solved again at EIG_TOL,
        # perturbed too, so the returned pairs fail the guard
        h, B = bench_model(800)
        calls = record_solves(monkeypatch, perturb_top)
        with pytest.raises(EigenConvergenceError) as info:
            spectral_cluster(h)
        assert info.value.residuals.max() > guard_bound(B)
        assert solve_kinds(calls) == [self.LOOSE, self.TIGHT]

    def test_thin_margin_counts_in_one_solve(self, monkeypatch):
        # a generated near-threshold instance whose closest Ritz value of p(B) sits
        # 0.013 from 1: resolved by its own residual, in agreement with theta and
        # inside the guard, the loose batch is the count
        h, _ = sample_symmetric(
            SymmetricHsbmSpec(n=747, q=4, orders=(2, 4), d=6.87643615509848, eps=0.19033766194081095, seed=416216477)
        )
        B = bethe_hessian(h, bulk_radius(h))
        seen = []
        calls = record_solves(monkeypatch, lambda mu, v: seen.append((mu.copy(), v.copy())))
        w, v = spectral._negative_eigenpairs(B)
        assert solve_kinds(calls) == [self.LOOSE]
        mu, loose = seen[0]
        resolved, theta = self.filtered_solve_checks(B, spectral._chebyshev_filter(B), mu, loose)
        below = theta < B.threshold
        assert resolved.all() and np.array_equal(below, mu > 1.0) and 0 < below.sum() < 4
        assert np.abs(mu - 1.0).min() < 0.02
        lam = np.linalg.eigvalsh(B.matrix.toarray())
        assert len(w) == int((lam < B.threshold).sum())
        assert np.allclose(w, lam[: len(w)], atol=1e-8)

    def test_filter_exceeds_one_exactly_below_threshold(self):
        _, B = bench_model(700)
        lam, vecs = np.linalg.eigh(B.matrix.toarray())
        P = spectral._chebyshev_filter(B)
        mu = np.einsum("ij,ij->j", vecs, P @ vecs)
        S = (2.0 * lam - (B.norm + B.threshold)) / (B.norm - B.threshold)
        np.testing.assert_allclose(mu, 2.0 * S**2 - 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(mu > 1.0, lam < B.threshold)
        assert np.all(np.abs(mu[lam >= B.threshold]) <= 1.0)
        assert (lam < B.threshold).sum() == 3

    @staticmethod
    def filtered_solve_checks(B, P, mu, v):
        """Whether each Ritz value of P is sign-resolved against 1, and the Rayleigh quotients on B."""
        resolved = np.abs(mu - 1.0) > 2.0 * np.linalg.norm(P @ v - v * mu, axis=0)
        return resolved, np.einsum("ij,ij->j", v, B.matrix @ v)

    def test_unresolved_filtered_value_falls_back(self, monkeypatch):
        # an unresolved loose batch falls back to the tight solve on p(B)
        h, B = bench_model(800)
        reference = dense_cluster(h)
        seen = []

        def unresolved(mu, v):
            unresolve_top_value(mu, v)
            seen.append((mu.copy(), v.copy()))

        calls = record_solves(monkeypatch, unresolved)
        result = spectral_cluster(h)
        assert solve_kinds(calls) == [self.LOOSE, self.TIGHT]
        mu, v = seen[0]
        P = spectral._chebyshev_filter(B)
        resolved, theta = self.filtered_solve_checks(B, P, mu, v)
        assert not resolved.all() and np.array_equal(theta < B.threshold, mu > 1.0)
        assert_same_result(result, reference)

    def test_filter_disagreeing_with_theta_falls_back(self, monkeypatch):
        # a filter pivoting between the first and second negative eigenvalues
        # resolves every mu, but two more theta than mu lie on the negative side
        h, B = bench_model(800)
        reference = dense_cluster(h)
        pivot = 0.5 * (reference.eigenvalues[0] + reference.eigenvalues[1])
        seen = []
        calls = record_solves(monkeypatch, lambda mu, v: seen.append((mu.copy(), v.copy())))
        P = spectral._chebyshev_filter(dataclasses.replace(B, threshold=pivot))
        monkeypatch.setattr(spectral, "_chebyshev_filter", lambda B: P)
        result = spectral_cluster(h)
        mu, v = seen[0]
        resolved, theta = self.filtered_solve_checks(B, P, mu, v)
        assert solve_kinds(calls) == [self.LOOSE, self.TIGHT]
        assert resolved.all()
        assert (theta < B.threshold).sum() == 3 and (mu > 1.0).sum() == 1
        assert_same_result(result, reference)

    @staticmethod
    def stop_short(monkeypatch, tols):
        """eigsh raising ArpackNoConvergence with two of its pairs at each tol in tols."""
        eigsh = spla.eigsh
        calls = []

        def stops_short(*args, **kwargs):
            calls.append((kwargs["which"], kwargs["k"], kwargs["tol"]))
            mu, v = eigsh(*args, **kwargs)
            if kwargs["tol"] in tols:
                raise spla.ArpackNoConvergence("patched", mu[:2], v[:, :2])
            return mu, v

        monkeypatch.setattr(spla, "eigsh", stops_short)
        return calls

    def test_filtered_no_convergence_falls_back(self, monkeypatch):
        h, _ = bench_model(800)
        reference = dense_cluster(h)
        calls = self.stop_short(monkeypatch, {spectral.COUNT_TOL})
        result = spectral_cluster(h)
        assert calls == [self.LOOSE, self.TIGHT]
        assert_same_result(result, reference)

    def test_tight_no_convergence_raises(self, monkeypatch):
        _, B = bench_model(800)
        calls = self.stop_short(monkeypatch, {spectral.COUNT_TOL, spectral.EIG_TOL})
        with pytest.raises(EigenConvergenceError, match=r"\(2/4 pairs\)") as info:
            spectral._negative_eigenpairs(B)
        assert calls == [self.LOOSE, self.TIGHT]
        assert info.value.residuals.shape == (2,) and np.all(info.value.residuals >= 0.0)

    def test_guard_rejects_nan_pair(self, monkeypatch):
        _, B = bench_model(800)
        eigsh = spla.eigsh

        def nan_column(*args, **kwargs):
            w, v = eigsh(*args, **kwargs)
            v[:, 0] = np.nan
            return w, v

        monkeypatch.setattr(spla, "eigsh", nan_column)
        with pytest.raises(EigenConvergenceError) as info:
            lowest_eigenpairs(B, 3)
        assert np.isnan(info.value.residuals).any()

    def test_no_convergence_carries_residuals_of_returned_pairs(self, monkeypatch):
        _, B = bench_model(800)
        w, v = spla.eigsh(B.matrix, k=2, which="SA")
        assert np.all(w < 0.0)  # eigenvalues in place of residuals would read negative

        def two_of_four(A, k, **kwargs):
            raise spla.ArpackNoConvergence("patched", w, v)

        monkeypatch.setattr(spla, "eigsh", two_of_four)
        with pytest.raises(EigenConvergenceError, match=r"\(2/4 pairs\)") as info:
            lowest_eigenpairs(B, 4)
        res = info.value.residuals
        expected = [np.linalg.norm(B.matrix @ v[:, i] - w[i] * v[:, i]) for i in range(2)]
        np.testing.assert_allclose(res, expected, rtol=1e-6, atol=1e-12)
        assert np.all(res >= 0.0)

    @pytest.mark.parametrize(
        "eps", [0.1, 0.2, 0.8 * EPS_BH, 0.95 * EPS_BH, EPS_BH, 1.05 * EPS_BH, EPS_MID]
    )
    def test_count_and_partition_equal_dense(self, monkeypatch, eps):
        for seed, n in enumerate((601, 700, 800)):
            h, _ = bench_model(n, eps=eps, seed=seed)
            lanczos = spectral_cluster(h)
            with monkeypatch.context() as m:
                m.setattr(spectral, "DENSE_CUTOFF", h.n)
                dense = spectral_cluster(h)
            q = dense.partition.q
            assert lanczos.partition.q == q
            assert np.allclose(lanczos.eigenvalues, dense.eigenvalues, atol=1e-8)
            assert labels_match_up_to_permutation(
                lanczos.partition.labels, dense.partition.labels, q
            )

    @pytest.mark.parametrize("eps, count", [(0.1, 3), (0.5, 1)])
    def test_loose_count_needs_fewer_matvecs(self, matvecs, eps, count):
        _, B = bench_model(3000, eps=eps)
        w, v = spectral._negative_eigenpairs(B)
        filtered = list(matvecs)  # products with p(B), each two with B
        matvecs.clear()
        k = spectral.FIRST_BATCH
        fixed_w, fixed_v = lowest_eigenpairs(B, k)
        assert len(w) == count
        assert len(filtered) == len(matvecs) == 1
        # B-products, the k columns of each check included: the filtered
        # batch's acceptance check applies p(B) and B once, the guard B once
        assert 2 * (filtered[0] + k) + k < matvecs[0] + k
        assert np.allclose(w, fixed_w[:count], atol=1e-8)
        assert np.allclose(v, fixed_v[:, :count], atol=1e-6)


# Symmetric HSBM instances (q, orders, d, n, eps, seed) on which the filtered
# count misses one negative eigenvalue and raises nothing.
MISSED_COUNTS = [
    (9, (3,), 6.58189372096948, 1031, 0.023732177300310756, 874268231),
    (4, (3,), 7.175204189769515, 1335, 0.13018510708326664, 761949237),
    (8, (2,), 13.728577693220492, 1849, 0.231652958164681, 968759222),
    (8, (2,), 7.567017162006513, 1375, 0.19705722373931428, 287164066),
    (6, (2, 4), 12.782154275175213, 762, 0.1765470690475727, 212689209),
]


@pytest.mark.parametrize("q, orders, d, n, eps, seed", MISSED_COUNTS, ids=["q9", "q4", "q8", "q8b", "q6"])
def test_filtered_count_equals_dense_count(monkeypatch, q, orders, d, n, eps, seed):
    h, _ = sample_symmetric(SymmetricHsbmSpec(n=n, q=q, orders=orders, d=d, eps=eps, seed=seed))
    B = bethe_hessian(h, bulk_radius(h))
    assert B.n > spectral.DENSE_CUTOFF  # the filtered Lanczos path
    calls = record_solves(monkeypatch)
    w, _ = spectral._negative_eigenpairs(B)
    assert len(w) == int((np.linalg.eigvalsh(B.matrix.toarray()) < B.threshold).sum())
    if q == 9:  # the loose k = 8 batch misses one and is solved again at EIG_TOL
        loose, tight = spectral.COUNT_TOL, spectral.EIG_TOL
        assert solve_kinds(calls) == [("LA", 4, loose), ("LA", 8, loose), ("LA", 8, tight)]


@pytest.mark.parametrize("spec", near_threshold_specs(16, seed=0), ids=lambda s: f"q{s.q}-n{s.n}-{s.seed}")
def test_generated_near_threshold_counts_match_dense(spec):
    # the generator of tests/differential.py, whose script runs a longer sample
    faults, _ = differential_check(spec)
    assert faults == []


@pytest.mark.parametrize(
    "spec",
    near_threshold_specs(16, seed=0, q=(2, 3), n=(700, 1500), orders=((2,), (3,))),
    ids=lambda s: f"q{s.q}-k{s.orders[0]}-n{s.n}-{s.seed}",
)
def test_generated_single_order_counts_match_dense(spec):
    # c01's regime, small q on one order: most final loose batches have a Ritz value of p(B)
    # within 0.02 of 1, and the count takes them on resolution, agreement and the guard alone
    faults, _ = differential_check(spec)
    assert faults == []


class TestBlasThreads:
    def test_cluster_identical_across_thread_counts(self, tmp_path):
        # n = 3000 takes the Lanczos path; the thread counts are set in the children only
        child = textwrap.dedent(
            """
            import sys
            import numpy as np
            from hyperbethe import SymmetricHsbmSpec, sample_symmetric, spectral_cluster
            spec = SymmetricHsbmSpec(n=3000, q=3, orders=(2, 3), d=10.0, eps=0.1, seed=0)
            r = spectral_cluster(sample_symmetric(spec)[0])
            np.savez(sys.argv[1], w=r.eigenvalues, v=r.embedding, labels=r.partition.labels)
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", child, str(out)], env=env, check=True, timeout=300)
            runs.append(np.load(out))
        one, two = runs
        for key in ("w", "v", "labels"):
            assert one[key].tobytes() == two[key].tobytes(), key
        assert len(one["w"]) == 3

    def test_two_parts_identical_across_thread_counts(self, tmp_path):
        # the same run with k-means forced into two parts
        child = textwrap.dedent(
            """
            import sys
            import numpy as np
            from hyperbethe import SymmetricHsbmSpec, sample_symmetric, spectral, spectral_cluster
            spectral.KMEANS_SPLIT_CUTOFF = 0
            spectral._cpus = lambda: 2
            spec = SymmetricHsbmSpec(n=3000, q=3, orders=(2, 3), d=10.0, eps=0.1, seed=0)
            r = spectral_cluster(sample_symmetric(spec)[0])
            np.savez(sys.argv[1], w=r.eigenvalues, v=r.embedding, labels=r.partition.labels)
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", child, str(out)], env=env, check=True, timeout=300)
            runs.append(np.load(out))
        one, two = runs
        for key in ("w", "v", "labels"):
            assert one[key].tobytes() == two[key].tobytes(), key
        digest = hashlib.sha256(b"".join(one[key].tobytes() for key in ("w", "v", "labels"))).hexdigest()
        assert digest == TestPinnedLanczosBytes.AUTO_Q

    def test_dense_solve_without_thread_symbols_raises(self, monkeypatch):
        h, _ = sample_symmetric(SymmetricHsbmSpec(n=300, q=3, orders=(2, 3), d=10.0, eps=0.1, seed=4))
        monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
        for q in (None, 3):
            with pytest.raises(BlasThreadError, match="cannot pin numpy's BLAS to one thread"):
                spectral_cluster(h, num_communities=q)


class TestPinnedLanczosBytes:
    # sha256 of the eigenvalues, embedding and labels on the Lanczos paths: the tests above compare
    # with dense solves within tolerances, so a change to the eigensolver layer that moves bits shows here
    AUTO_Q = "002eb0f22f420b54e5e9c687e41683854c8dfc8541d865e42b6ea007b1fdd2bc"
    FIXED_Q = "83a0775c5cc088f8f4c875ad38d96aefbcd8f04b48c9e8bf67cb283ee6073ad6"

    @staticmethod
    def digest(result):
        parts = (result.eigenvalues, result.embedding, result.partition.labels)
        return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()

    def test_auto_q_filtered_count(self):
        h, _ = bench_model(3000)
        assert self.digest(spectral_cluster(h)) == self.AUTO_Q

    def test_fixed_q_on_b(self):
        h, _ = sample_symmetric(shape_experiment_spec(2000, 10.0, 1.2, order=4, seed=0))
        assert self.digest(spectral_cluster(h, num_communities=2)) == self.FIXED_Q


class TestKmeans:
    def test_separated_clusters(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 0.1, (40, 2)), rng.normal(5, 0.1, (60, 2))])
        labels = kmeans(X, 2, seed=1)
        assert labels_match_up_to_permutation(labels, [0] * 40 + [1] * 60, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 3))
        assert np.array_equal(kmeans(X, 4, seed=9), kmeans(X, 4, seed=9))

    def test_k1(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        assert set(kmeans(X, 1)) == {0}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_broadcast_loop_random(self, seed):
        rng = np.random.default_rng(seed)
        n, dim, k = int(rng.integers(50, 2000)), int(rng.integers(2, 6)), int(rng.integers(2, 7))
        means = rng.normal(0.0, 2.0, (k, dim))
        X = means[rng.integers(k, size=n)] + rng.standard_normal((n, dim))
        assert np.array_equal(kmeans(X, k, seed=seed), broadcast_kmeans(X, k, seed=seed))

    @pytest.mark.parametrize(
        "n, q, eps, seed", [(3000, 3, 0.1, 0), (1500, 2, 0.2, 1), (2000, 4, 0.05, 2), (800, 3, 0.3, 3)]
    )
    def test_matches_broadcast_loop_embeddings(self, n, q, eps, seed):
        spec = SymmetricHsbmSpec(n=n, q=q, orders=(2, 3), d=10.0, eps=eps, seed=seed)
        h, _ = sample_symmetric(spec)
        emb = spectral_cluster(h, num_communities=q).embedding
        assert np.array_equal(kmeans(emb, q), broadcast_kmeans(emb, q))

    def test_exact_duplicates_tie_and_reseed(self):
        # two distinct points and k = 3: every distance ties with a duplicate
        # center or is exactly zero, and each restart re-seeds an empty cluster
        rng = np.random.default_rng(5)
        X = np.array([[0.0, 0.0], [1.0, 2.0]])[rng.permutation([0] * 9 + [1] * 6)]
        for seed in range(4):
            labels = kmeans(X, 3, seed=seed)
            assert np.array_equal(labels, broadcast_kmeans(X, 3, seed=seed))
            assert set(labels) == {0, 1}

    def test_empty_cluster_reseeds_at_farthest_point(self, monkeypatch):
        # the far center gets no point; by hand, re-seeding at the farthest
        # point (10, not 0) twice leads to [0, 0, 1, 2]
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        start = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]])
        monkeypatch.setattr(spectral, "_kmeanspp", lambda *args: start.copy())
        assert list(kmeans(X, 3, restarts=1)) == [0, 0, 1, 2]

    def test_k1_and_k_equals_n(self):
        X = np.random.default_rng(1).standard_normal((12, 3))
        assert np.array_equal(kmeans(X, 1), broadcast_kmeans(X, 1))
        labels = kmeans(X, 12, restarts=3)
        assert np.array_equal(labels, broadcast_kmeans(X, 12, restarts=3))
        assert sorted(labels) == list(range(12))

    def test_input_layouts_and_integers(self):
        spec = SymmetricHsbmSpec(n=1200, q=3, orders=(2, 3), d=10.0, eps=0.1, seed=4)
        v = spectral_cluster(sample_symmetric(spec)[0], num_communities=5).embedding
        rows = v / np.linalg.norm(v, axis=1, keepdims=True)
        ints = np.rint(40 * v[:, :3]).astype(np.int64)
        for X in (v[:, :3], np.asfortranarray(v[:, :3]), rows[:, :3], ints):
            assert np.array_equal(kmeans(X, 3), broadcast_kmeans(X, 3))
        assert np.array_equal(kmeans(v[:, :3], 3), kmeans(np.ascontiguousarray(v[:, :3]), 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_raise(self, bad):
        X = np.random.default_rng(0).standard_normal((20, 2))
        X[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans(X, 2)

    def test_overflowing_distance_sum_raises(self):
        # each |x|^2 is finite, but the seeding's sum of squared distances is not
        X = [[1.3e154, 0.0], [-1.3e154, 0.0], [0.0, 1.3e154], [0.0, -1.3e154]]
        with pytest.raises(SpectralError, match="finite"):
            kmeans(X, 2)

    @pytest.mark.parametrize("k, restarts", [(0, 20), (21, 20), (2, 0)])
    def test_k_and_restarts_out_of_range_raise(self, k, restarts):
        with pytest.raises(ValueError, match="need 1 <= k <= 20 and restarts >= 1"):
            kmeans(np.random.default_rng(0).standard_normal((20, 2)), k, restarts=restarts)

    @staticmethod
    def point_order_line(m=1000):
        """x-coordinates whose first cluster's center moves with the order of its sum.

        A's m x-coordinates are 1 + j 2^-52 (j < 128).  Once the running sum
        passes 256 its ulp is 2^-44, so adding in point order rounds every
        offset away, while a pairwise or blocked sum keeps some of them.  p
        sits between the two orders' edges of A: with A's center summed in
        point order p stays in A, with the other orders it moves to the
        cluster at +-1/4.
        """
        ulp = 2.0**-52
        a = 1.0 + (np.arange(m) % 128) * ulp
        total = np.cumsum(a)[-1]  # point order
        assert np.sum(a) != total  # numpy's pairwise sum rounds otherwise
        p = total / (2 * m + 1) + 11 * ulp
        return np.concatenate([a, [p], np.tile([-0.25, 0.25], 3)])

    @pytest.mark.parametrize("seed", [0, 3])
    def test_centers_sum_in_point_order(self, seed, m=1000):
        # these seeds pass p through A on the way
        x = self.point_order_line(m)
        X = np.stack([x, np.zeros_like(x)], axis=1)
        labels = kmeans(X, 2, restarts=1, seed=seed)
        assert np.array_equal(labels, broadcast_kmeans(X, 2, restarts=1, seed=seed))
        assert labels[m] == labels[0] != labels[-1]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_one_dim_centers_sum_in_point_order(self, seed, m=1000):
        # the same line as one column, which a mean would sum pairwise
        x = self.point_order_line(m)
        labels = kmeans(x[:, None], 2, restarts=1, seed=seed)
        assert np.array_equal(labels, broadcast_kmeans(x[:, None], 2, restarts=1, seed=seed))
        assert labels[m] == labels[0] != labels[-1]

    @staticmethod
    def check_against_broadcast_loop(n, dim, k, restarts, seed, spread):
        # rows scaled by 10^[0, spread), so that a center's sum rounds by order
        rng = np.random.default_rng(seed)
        k = min(k, n)
        means = rng.normal(0.0, 3.0, (k, dim))
        X = (means[rng.integers(k, size=n)] + rng.standard_normal((n, dim))) * 10.0 ** rng.uniform(0, spread, (n, 1))
        labels = kmeans(X, k, restarts=restarts, seed=seed)
        assert np.array_equal(labels, broadcast_kmeans(X, k, restarts=restarts, seed=seed))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 300), st.integers(1, 5), st.integers(1, 6), st.integers(1, 3),
        st.integers(0, 2**32 - 1), st.floats(0.0, 16.0),
    )
    def test_matches_broadcast_loop_property(self, n, dim, k, restarts, seed, spread):
        self.check_against_broadcast_loop(n, dim, k, restarts, seed, spread)

    def test_allocates_only_its_buffers(self):
        n, dim, k = 20_000, 3, 3
        rng = np.random.default_rng(0)
        X = rng.normal(0.0, 2.0, (k, dim))[rng.integers(k, size=n)] + rng.standard_normal((n, dim))
        kmeans(X, k, restarts=3)  # scipy.sparse loaded, numpy's caches warm
        # float64 n-vectors: the points as (dim, n) and as [X | 1], d2, xx and
        # three scratch rows, three label arrays, the one-hot CSC's data; then
        # the CSC's int32 indices and indptr, and the n-byte `less` mask
        buffers = 8 * n * (dim + (dim + 1) + k + 4 + 3 + 1) + 4 * (2 * n + 1) + n
        # rng.choice's n-long cumulative weights while seeding, and one n-byte
        # array (array_equal's) that also covers the small arrays and objects
        transient = 8 * n + n
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                kmeans(X, k, restarts=3)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[0] < buffers + transient
        assert peaks[1] <= peaks[0] + 4096  # small Python objects, not a buffer


def record_parts(monkeypatch):
    """The parts of each _each_part block spectral opens, in order."""
    each_part, opened = spectral._each_part, []

    def recorded(parts):
        opened.append(parts)
        return each_part(parts)

    monkeypatch.setattr(spectral, "_each_part", recorded)
    return opened


class TestTwoParts:
    def test_auto_q_digest_holds(self, two_parts, monkeypatch):
        opened = record_parts(monkeypatch)
        h, _ = bench_model(3000)
        before = threading.active_count()
        assert TestPinnedLanczosBytes.digest(spectral_cluster(h)) == TestPinnedLanczosBytes.AUTO_Q
        assert [len(parts) for parts in opened] == [2]  # k-means
        assert threading.active_count() == before

    @pytest.mark.parametrize("restarts", [1, 2, 3, 7])
    def test_kmeans_matches_broadcast_loop_embedding(self, restarts, two_parts, monkeypatch):
        opened = record_parts(monkeypatch)
        spec = SymmetricHsbmSpec(n=2000, q=4, orders=(2, 3), d=10.0, eps=0.05, seed=2)
        emb = spectral_cluster(sample_symmetric(spec)[0], num_communities=4).embedding
        opened.clear()
        assert np.array_equal(kmeans(emb, 4, restarts=restarts), broadcast_kmeans(emb, 4, restarts=restarts))
        assert [len(parts) for parts in opened] == [1 if restarts == 1 else 2]

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(2, 300), st.integers(1, 5), st.integers(1, 6), st.integers(1, 5),
        st.integers(0, 2**32 - 1), st.floats(0.0, 16.0),
    )
    def test_kmeans_matches_broadcast_loop_property(self, two_parts, n, dim, k, restarts, seed, spread):
        TestKmeans.check_against_broadcast_loop(n, dim, k, restarts, seed, spread)

    def test_no_thread_outlives_kmeans_worker_raise(self, two_parts, monkeypatch):
        # the worker raises while seeding a restart; the calling thread waits for
        # that before its first restart ends, so the worker always takes one
        kmeanspp, sq_dist, seeded = spectral._kmeanspp, spectral._sq_dist, threading.Event()

        def worker_raises(*args):
            if threading.current_thread() is not threading.main_thread():
                seeded.set()
                raise FloatingPointError("worker")
            return kmeanspp(*args)

        def main_waits(cols, centers, out, tmp, labels=None):
            if labels is not None and threading.current_thread() is threading.main_thread():
                assert seeded.wait(timeout=60)
            return sq_dist(cols, centers, out, tmp, labels)

        monkeypatch.setattr(spectral, "_kmeanspp", worker_raises)
        monkeypatch.setattr(spectral, "_sq_dist", main_waits)
        X = np.random.default_rng(0).standard_normal((500, 2))
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker"):
            kmeans(X, 3, restarts=6)
        assert threading.active_count() == before

    def test_no_thread_outlives_count_no_convergence(self, two_parts, monkeypatch):
        _, B = bench_model(800)
        opened = record_parts(monkeypatch)
        calls = TestSignResolvedCount.stop_short(monkeypatch, {spectral.COUNT_TOL, spectral.EIG_TOL})
        before = threading.active_count()
        with pytest.raises(EigenConvergenceError):
            spectral._negative_eigenpairs(B)
        assert calls == [TestSignResolvedCount.LOOSE, TestSignResolvedCount.TIGHT]
        assert [len(parts) for parts in opened] == []  # the count runs in the calling thread
        assert threading.active_count() == before

    def test_concurrent_clusterings_keep_their_bytes(self, two_parts):
        # two clusterings at once on two parts each, four threads in all,
        # with the interpreter switching threads as often as it can
        h, _ = bench_model(3000)
        got = [None, None]

        def run(i):
            got[i] = TestPinnedLanczosBytes.digest(spectral_cluster(h))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [TestPinnedLanczosBytes.AUTO_Q] * 2

    def test_one_cpu_keeps_one_part(self, monkeypatch):
        monkeypatch.setattr(spectral, "KMEANS_SPLIT_CUTOFF", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        opened = record_parts(monkeypatch)
        h, _ = bench_model(3000)
        before = threading.active_count()
        assert TestPinnedLanczosBytes.digest(spectral_cluster(h)) == TestPinnedLanczosBytes.AUTO_Q
        assert [len(parts) for parts in opened] == [1]
        assert threading.active_count() == before


class TestClusterPipeline:
    def test_deep_detectable_regime(self):
        spec = SymmetricHsbmSpec(n=2000, q=2, orders=(2, 3), d=10.0, eps=0.05, seed=14)
        h, planted = sample_symmetric(spec)
        result = spectral_cluster(h)
        assert result.partition.q == 2
        assert ami(result.partition, planted) >= 0.95

    def test_fixed_q_mode(self):
        spec = SymmetricHsbmSpec(n=800, q=2, orders=(2, 3), d=10.0, eps=0.9, seed=1)
        h, _ = sample_symmetric(spec)
        result = spectral_cluster(h, num_communities=2)
        assert result.partition.q == 2  # forced even without negative pairs

    def test_no_structure_error_needs_zero_negatives(self):
        # a hyperedge-free operator is the identity: nothing negative
        with pytest.raises(SpectralError, match="no negative eigenvalues"):
            spectral_cluster(Hypergraph(40, []), config=SpectralConfig(eta=2.0))

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_config_rejects_no_restart(self, restarts):
        with pytest.raises(SpectralError, match="kmeans_restarts >= 1"):
            SpectralConfig(kmeans_restarts=restarts)

    @pytest.mark.parametrize("q", [0, -1, 41])
    def test_community_count_checked_before_operator(self, monkeypatch, q):
        def unexpected(*args):
            raise AssertionError("operator built")

        monkeypatch.setattr(spectral, "bethe_hessian", unexpected)
        monkeypatch.setattr(spectral, "bulk_radius", unexpected)
        h = Hypergraph(40, [(0, 1), (1, 2, 3)])
        with pytest.raises(SpectralError, match=r"k must be in \[1, 40\]"):
            spectral_cluster(h, num_communities=q)

    @pytest.mark.parametrize("eta", [0.5, 1.0 + 1e-12, np.nan, np.inf, -2.0])
    def test_eta_override_obeys_bulk_radius_rule(self, eta):
        # at 0.5 every eigenvalue of the bench model at n = 900 is negative, so q would be n
        h, _ = bench_model(900)
        with pytest.raises(SpectralError, match="eta override .* must be finite and > 1"):
            spectral_cluster(h, config=SpectralConfig(eta=eta))

    @pytest.mark.parametrize("n", [400, 700])
    def test_one_eigensolve_when_counting(self, monkeypatch, n):
        calls = []
        solve = spectral.lowest_eigenpairs

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        # every dense or Lanczos solve, whether or not it goes through lowest_eigenpairs
        solves = []
        eigh, eigsh = np.linalg.eigh, spla.eigsh
        monkeypatch.setattr(spectral.np.linalg, "eigh", lambda *a: solves.append(1) or eigh(*a))
        monkeypatch.setattr(spla, "eigsh", lambda *a, **kw: solves.append(1) or eigsh(*a, **kw))
        spec = SymmetricHsbmSpec(n=n, q=2, orders=(2, 3), d=10.0, eps=0.05, seed=11)
        h, _ = sample_symmetric(spec)
        monkeypatch.setattr(spectral, "lowest_eigenpairs", counted)
        result = spectral_cluster(h)
        assert len(solves) == 1 and len(calls) <= 1
        assert result.partition.q == 2
        calls.clear()
        solves.clear()
        spectral_cluster(h, num_communities=2)
        assert calls == [2] and len(solves) == 1

    @pytest.mark.parametrize("n", [400, 700])
    def test_isolated_nodes(self, n):
        spec = SymmetricHsbmSpec(n=n, q=2, orders=(2, 3), d=10.0, eps=0.05, seed=12)
        h, planted = sample_symmetric(spec)
        cfg = SpectralConfig(eta=bulk_radius(h))
        base = spectral_cluster(h, config=cfg)
        result = spectral_cluster(with_isolated(h, 5), config=cfg)
        assert result.partition.q == base.partition.q == 2
        assert np.allclose(result.eigenvalues, base.eigenvalues, atol=1e-8)
        assert np.abs(result.embedding[n:]).max() <= 1e-6
        labels = result.partition.labels[:n]
        assert labels_match_up_to_permutation(labels, base.partition.labels, 2)
        # the default eta sees the diluted mean degree and still detects both
        diluted = spectral_cluster(with_isolated(h, 5))
        assert diluted.partition.q == 2
        assert ami(Partition(diluted.partition.labels[:n], 2), planted) >= 0.9

    def test_single_order_ten(self):
        spec = SymmetricHsbmSpec(n=800, q=2, orders=(10,), d=8.0, eps=0.002, seed=0)
        h, planted = sample_symmetric(spec)
        assert h.orders == (10,)
        result = spectral_cluster(h)
        assert result.partition.q == 2
        assert ami(result.partition, planted) >= 0.7

    def test_embedding_orthonormal(self):
        spec = SymmetricHsbmSpec(n=700, q=2, orders=(2, 3), d=10.0, eps=0.1, seed=2)
        h, _ = sample_symmetric(spec)
        result = spectral_cluster(h)
        gram = result.embedding.T @ result.embedding
        assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-8)

    def test_eigenvalues_ascending_and_qhat(self):
        spec = SymmetricHsbmSpec(n=700, q=3, orders=(2, 3), d=12.0, eps=0.05, seed=3)
        h, _ = sample_symmetric(spec)
        result = spectral_cluster(h)
        assert np.all(np.diff(result.eigenvalues) >= -1e-12)
        assert result.num_negative == result.partition.q == 3

    def test_node_relabeling_invariance(self):
        spec = SymmetricHsbmSpec(n=600, q=2, orders=(2, 3), d=10.0, eps=0.05, seed=4)
        h, planted = sample_symmetric(spec)
        rng = np.random.default_rng(0)
        perm = rng.permutation(h.n)
        hp = Hypergraph(h.n, [tuple(perm[list(e)]) for e in edge_tuples(h)])
        r1 = spectral_cluster(h)
        r2 = spectral_cluster(hp)
        assert np.allclose(np.sort(r1.eigenvalues), np.sort(r2.eigenvalues), atol=1e-10)
        # labels follow the permutation up to community renaming
        relabeled = np.empty(h.n, dtype=int)
        relabeled[perm] = r1.partition.labels
        assert labels_match_up_to_permutation(relabeled, r2.partition.labels, 2)


class TestGraphReduction:
    def graph_pipeline(self, h, seed=0):
        """Classical dyadic pipeline: (eta^2-1) I - eta A + D at eta = sqrt(d)."""
        A = h.projection(2).toarray()
        D = np.diag(h.degrees_by_order(2).astype(float))
        eta = np.sqrt(h.degree_stats().mean)
        B = (eta**2 - 1.0) * np.eye(h.n) - eta * A + D
        w, v = np.linalg.eigh(B)
        thr = -1e-8 * np.abs(np.diag(B)).max()
        qhat = int((w < thr).sum())
        idx = np.argmax(np.abs(v), axis=0)
        flip = v[idx, np.arange(h.n)] < 0
        v[:, flip] *= -1.0
        return w, qhat, (kmeans(v[:, :qhat], qhat, seed=seed) if qhat else None)

    def test_sign_pattern_and_labels_match(self):
        matched = 0
        for seed in range(4):
            spec = SymmetricHsbmSpec(n=400, q=2, orders=(2,), d=10.0, eps=0.1, seed=seed)
            h, _ = sample_symmetric(spec)
            w_graph, qhat_graph, labels_graph = self.graph_pipeline(h)
            B = bethe_hessian(h, bulk_radius(h))
            w_hyper = np.linalg.eigvalsh(B.matrix.toarray())
            assert np.array_equal(np.sign(np.round(w_hyper, 12)), np.sign(np.round(w_graph, 12)))
            result = spectral_cluster(h)
            assert result.partition.q == qhat_graph
            assert labels_match_up_to_permutation(
                result.partition.labels, labels_graph, qhat_graph
            )
            matched += 1
        assert matched == 4
