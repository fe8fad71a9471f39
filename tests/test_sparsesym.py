import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbethe import SparseSymMatrix


def random_symmetric(rng, n, density=0.2):
    mask = rng.random((n, n)) < density
    vals = rng.standard_normal((n, n)) * mask
    return (vals + vals.T) / 2


class TestSparseSym:
    def test_rejects_asymmetric(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            SparseSymMatrix.from_scipy(mat)

    def test_roundtrip_dense(self, rng):
        dense = random_symmetric(rng, 8)
        mat = SparseSymMatrix.from_scipy(sp.csr_matrix(dense))
        assert np.allclose(mat.to_csr().toarray(), dense, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matvec_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        dense = random_symmetric(rng, n)
        mat = SparseSymMatrix.from_scipy(sp.csr_matrix(dense))
        x = rng.standard_normal(n)
        assert np.allclose(mat.to_csr() @ x, dense @ x, atol=1e-12)
