"""Compressed sparse symmetric matrix with a cached matvec backend."""

from __future__ import annotations

import numpy as np


class SparseSymMatrix:
    """Symmetric real matrix stored as diagonal + strictly lower triangle.

    Symmetry is guaranteed by construction: only one triangle is kept and
    the full matrix is materialized (and cached) on demand for matvecs and
    eigensolves.
    """

    def __init__(self, n, diag, rows, cols, vals):
        diag = np.asarray(diag, dtype=float)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if diag.shape != (n,):
            raise ValueError(f"diagonal must have length {n}")
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triangle arrays must have equal length")
        if rows.size and not np.all(rows > cols):
            raise ValueError("off-diagonal entries must be strictly lower triangular")
        if rows.size and (rows.max() >= n or cols.min() < 0):
            raise ValueError("index out of range")
        self.n = int(n)
        self.diag = diag
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self._csr = None

    @classmethod
    def from_scipy(cls, mat):
        """Build from a scipy sparse matrix that is symmetric up to round-off."""
        import scipy.sparse as sp

        mat = sp.csr_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        asym = abs(mat - mat.T).max() if mat.nnz else 0.0
        scale = max(1.0, abs(mat).max() if mat.nnz else 0.0)
        if asym > 1e-10 * scale:
            raise ValueError(f"matrix is not symmetric (asymmetry {asym:g})")
        n = mat.shape[0]
        diag = np.asarray(mat.diagonal(), dtype=float)
        low = sp.tril(mat, k=-1).tocoo()
        out = cls(n, diag, low.row, low.col, low.data)
        out._csr = mat
        return out

    @property
    def shape(self):
        return (self.n, self.n)

    @property
    def nnz(self):
        """Structural nonzeros of the full symmetric matrix."""
        return int(np.count_nonzero(self.diag)) + 2 * int(self.vals.size)

    def to_csr(self):
        if self._csr is None:
            import scipy.sparse as sp

            low = sp.coo_matrix(
                (self.vals, (self.rows, self.cols)), shape=(self.n, self.n)
            )
            full = low + low.T + sp.diags(self.diag, format="coo")
            self._csr = full.tocsr()
        return self._csr

    def to_dense(self):
        return self.to_csr().toarray()

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        return self.to_csr() @ x

    def __matmul__(self, x):
        return self.matvec(x)
