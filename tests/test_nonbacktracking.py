import numpy as np
import pytest

from hyperbethe import (
    Hypergraph,
    SpectralError,
    SymmetricHsbmSpec,
    bethe_hessian,
    bethe_singularity,
    bulk_radius,
    count_negative_eigenvalues,
    nonbacktracking_matrix,
    operator_cost,
    real_eigenvalues_outside_bulk,
    sample_symmetric,
)


def classical_graph_nb(h):
    """Directed-edge non-backtracking matrix of a 2-uniform hypergraph."""
    arcs = []
    for e in h.edges:
        i, j = e
        arcs.append((i, j))
        arcs.append((j, i))
    dim = len(arcs)
    mat = np.zeros((dim, dim))
    for r, (i, j) in enumerate(arcs):
        for c, (k, l) in enumerate(arcs):
            if k == j and l != i:
                mat[r, c] = 1.0
    return mat


class TestConstruction:
    def test_single_2_edge_is_zero(self):
        nb = nonbacktracking_matrix(Hypergraph(2, [(0, 1)]))
        assert nb.dim == 2
        assert nb.matrix.nnz == 0

    def test_single_3_edge_is_zero(self):
        # continuation within the same hyperedge is forbidden
        nb = nonbacktracking_matrix(Hypergraph(3, [(0, 1, 2)]))
        assert nb.dim == 3
        assert nb.matrix.nnz == 0

    def test_3_cycle_spectrum_on_unit_circle(self):
        h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        nb = nonbacktracking_matrix(h)
        w = np.linalg.eigvals(nb.matrix.toarray())
        assert np.allclose(np.abs(w), 1.0, atol=1e-10)

    def test_dimension_is_total_degree(self):
        h = Hypergraph(4, [(0, 1), (1, 2, 3), (0, 2)])
        nb = nonbacktracking_matrix(h)
        assert nb.dim == int(h.node_degrees().sum())

    def test_rows_follow_membership_rule(self):
        h = Hypergraph(4, [(0, 1, 2), (2, 3), (1, 3)])
        nb = nonbacktracking_matrix(h)
        dense = nb.matrix.toarray()
        for r in range(nb.dim):
            e1, i = nb.pair_edges[r], nb.pair_nodes[r]
            for c in range(nb.dim):
                e2, j = nb.pair_edges[c], nb.pair_nodes[c]
                expected = int(j in h.edges[e1] and j != i and e2 != e1)
                assert dense[r, c] == expected

    def test_matches_per_incidence_build(self):
        # duplicates, interleaved orders and isolated nodes, against a loop
        # over (incidence, co-member, other hyperedge) triples
        rng = np.random.default_rng(5)
        edges = [tuple(rng.choice(25, size=k, replace=False)) for k in rng.integers(2, 6, size=40)]
        h = Hypergraph(30, edges + edges[:3])
        nb = nonbacktracking_matrix(h)
        sizes = [len(e) for e in h.edges]
        pairs = sorted(((sizes[e], e, i) for e, edge in enumerate(h.edges) for i in edge))
        assert nb.pair_edges.tolist() == [e for _, e, _ in pairs]
        assert nb.pair_nodes.tolist() == [i for _, _, i in pairs]
        pos = {(e, i): r for r, (_, e, i) in enumerate(pairs)}
        dense = np.zeros((nb.dim, nb.dim), dtype=np.int8)
        for (_, e1, i), r in zip(pairs, range(nb.dim)):
            for j in h.edges[e1]:
                for e2, edge in enumerate(h.edges):
                    if j != i and e2 != e1 and j in edge:
                        dense[r, pos[(e2, j)]] = 1
        assert nb.matrix.dtype == np.int8
        assert np.array_equal(nb.matrix.toarray(), dense)
        assert nb.matrix.nnz == int(dense.sum())

    def test_size_guard(self):
        spec = SymmetricHsbmSpec(n=500, q=2, orders=(2, 3), d=12.0, eps=0.2, seed=0)
        h, _ = sample_symmetric(spec)
        with pytest.raises(SpectralError, match="guard"):
            nonbacktracking_matrix(h, guard=100)

    def test_duplicate_hyperedges_are_distinct(self):
        nb = nonbacktracking_matrix(Hypergraph(2, [(0, 1), (0, 1)]))
        assert nb.dim == 4
        assert nb.matrix.nnz == 4  # each arc continues into the twin edge


class TestGraphEquivalence:
    def test_matches_classical_directed_edge_operator(self):
        rng = np.random.default_rng(3)
        edges = set()
        while len(edges) < 40:
            i, j = sorted(rng.choice(25, size=2, replace=False))
            edges.add((int(i), int(j)))
        h = Hypergraph(25, sorted(edges))
        nb = nonbacktracking_matrix(h)
        w_hyper = np.sort_complex(np.linalg.eigvals(nb.matrix.toarray()))
        w_classic = np.sort_complex(np.linalg.eigvals(classical_graph_nb(h)))
        assert np.allclose(w_hyper, w_classic, atol=1e-8)


@pytest.fixture(scope="module")
def detectable_instance():
    spec = SymmetricHsbmSpec(n=100, q=2, orders=(2, 3), d=10.0, eps=0.05, seed=5)
    return sample_symmetric(spec)


class TestCorrespondence:
    def test_outliers_make_operator_singular(self, detectable_instance):
        h, _ = detectable_instance
        radius = bulk_radius(h)
        nb = nonbacktracking_matrix(h)
        outliers = real_eigenvalues_outside_bulk(nb, radius)
        assert len(outliers) >= 2
        for lam in outliers:
            smin, snorm = bethe_singularity(h, lam)
            assert smin <= 1e-8 * snorm

    def test_generic_point_inside_bulk_is_regular(self, detectable_instance):
        h, _ = detectable_instance
        smin, snorm = bethe_singularity(h, 2.345)
        assert smin > 1e-6 * snorm

    def test_negative_count_matches_outlier_count(self, detectable_instance):
        h, _ = detectable_instance
        radius = bulk_radius(h)
        nb = nonbacktracking_matrix(h)
        outliers = real_eigenvalues_outside_bulk(nb, radius)
        above = outliers[outliers > radius]
        B = bethe_hessian(h, radius)
        assert count_negative_eigenvalues(B) == len(above)

    def test_uniform_strong_structure_two_outliers(self):
        # 3-uniform, q=2, per-order in/out degrees 10 and 1: two real
        # eigenvalues escape the bulk and both show up as negative pairs
        c_in, c_out = 10.0 * 4 * 2, 1.0 * 4 * 2  # d_in = 10, d_out = 1
        spec = SymmetricHsbmSpec(n=100, q=2, orders=(3,), c_in=c_in, c_out=c_out, seed=1)
        h, _ = sample_symmetric(spec)
        radius = bulk_radius(h)
        nb = nonbacktracking_matrix(h)
        outliers = real_eigenvalues_outside_bulk(nb, radius)
        above = outliers[outliers > radius]
        assert len(above) == 2
        B = bethe_hessian(h, radius)
        assert count_negative_eigenvalues(B) == 2

    def test_pooled_eigenvector_spans_nullspace(self, detectable_instance):
        h, _ = detectable_instance
        radius = bulk_radius(h)
        nb = nonbacktracking_matrix(h)
        A = nb.matrix.toarray().astype(float)
        w, v = np.linalg.eig(A)
        scale = np.abs(w).max()
        checked = 0
        for idx in range(len(w)):
            if abs(w[idx].imag) > 1e-8 * scale or abs(w[idx].real) <= radius:
                continue
            mu = np.bincount(nb.pair_nodes, weights=v[:, idx].real, minlength=h.n)
            B = bethe_hessian(h, float(w[idx].real)).matrix.toarray()
            null = np.linalg.svd(B)[2][-1]
            cosine = abs(mu @ null) / (np.linalg.norm(mu) * np.linalg.norm(null))
            assert cosine >= 1.0 - 1e-6
            checked += 1
        assert checked >= 2


class TestCostReport:
    def test_single_2_edge(self):
        report = operator_cost(Hypergraph(2, [(0, 1)]))
        assert report.nnz_nb == 0
        assert report.dim_nb == 2

    def test_formula_matches_materialized_nnz(self, rng):
        spec = SymmetricHsbmSpec(n=60, q=2, orders=(2, 3), d=6.0, eps=0.3, seed=7)
        h, _ = sample_symmetric(spec)
        report = operator_cost(h)
        nb = nonbacktracking_matrix(h)
        assert report.dim_nb == nb.dim
        assert report.nnz_nb == nb.matrix.nnz

    def test_dyadic_inequality(self):
        # mean degree 4 on 1000 nodes: the directed-edge operator always loses
        spec = SymmetricHsbmSpec(n=1000, q=2, orders=(2,), d=4.0, eps=0.5, seed=1)
        h, _ = sample_symmetric(spec)
        report = operator_cost(h)
        assert report.nb_total > report.bh_total

    def test_mixed_order_inequality(self):
        spec = SymmetricHsbmSpec(n=800, q=2, orders=(2, 3), d=6.0, eps=0.4, seed=2)
        h, _ = sample_symmetric(spec)
        report = operator_cost(h)
        assert report.nb_total > report.bh_total
