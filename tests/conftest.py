import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hyperbethe import Hypergraph, bp, spectral


def labels_match_up_to_permutation(a, b, q):
    """True when two labelings are identical after some community relabeling."""
    a = np.asarray(a)
    b = np.asarray(b)
    for perm in itertools.permutations(range(q)):
        lut = np.asarray(perm)
        if np.array_equal(lut[a], b):
            return True
    return False


def edge_tuples(h):
    """Hyperedges as sorted node tuples in input order, read off incidence_pairs()."""
    edge_ids, nodes = h.incidence_pairs()
    it, sizes = iter(nodes.tolist()), np.bincount(edge_ids, minlength=h.m).tolist()
    return tuple(tuple(itertools.islice(it, k)) for k in sizes)


def random_hypergraph(rng, n, orders=(2, 3), mean_edges_per_order=8):
    """Small random hypergraph for property tests; always has >= 1 edge."""
    edges = []
    for k in orders:
        if k > n:
            continue
        m = max(1, int(rng.poisson(mean_edges_per_order)))
        for _ in range(m):
            edges.append(tuple(sorted(rng.choice(n, size=k, replace=False))))
    if not edges:
        edges = [tuple(range(min(2, n)))]
    return Hypergraph(n, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_parts(monkeypatch):
    """BP sweeps and k-means restarts in two parts, whatever the input's size and the CPUs at hand."""
    monkeypatch.setattr(bp, "_SPLIT_CUTOFF", 0)
    monkeypatch.setattr(spectral, "KMEANS_SPLIT_CUTOFF", 0)
    for module in (bp, spectral):
        monkeypatch.setattr(module, "_cpus", lambda: 2)


@pytest.fixture
def matvecs(monkeypatch):
    """Matvec count of each ARPACK call, one entry per call.

    The matrix is wrapped in a counting LinearOperator; eigsh wraps a sparse
    matrix in one itself, so the arithmetic is unchanged.
    """
    eigsh = spla.eigsh
    counts = []

    def counting_eigsh(A, *args, **kwargs):
        counts.append(0)

        def matvec(x):
            counts[-1] += 1
            return A @ x

        op = spla.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
        return eigsh(op, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting_eigsh)
    return counts
