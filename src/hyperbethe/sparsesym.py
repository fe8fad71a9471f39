"""A symmetric sparse matrix held as one scipy CSR."""

from __future__ import annotations


class SparseSymMatrix:
    """Real symmetric matrix: the CSR that from_scipy checked."""

    def __init__(self, csr):
        self._csr = csr

    @classmethod
    def from_scipy(cls, mat):
        """Wrap a square scipy sparse matrix that is symmetric up to round-off, as CSR."""
        import scipy.sparse as sp

        mat = sp.csr_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        asym = abs(mat - mat.T).max() if mat.nnz else 0.0
        scale = max(1.0, abs(mat).max() if mat.nnz else 0.0)
        if asym > 1e-10 * scale:
            raise ValueError(f"matrix is not symmetric (asymmetry {asym:g})")
        return cls(mat)

    def to_csr(self):
        return self._csr
