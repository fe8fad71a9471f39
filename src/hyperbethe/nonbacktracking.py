"""Non-backtracking operator on directed hyperedges (small-instance oracle).

Each incidence (node i in hyperedge e) is a directed hyperedge i->e.  The
entry (i->e1, j->e2) is 1 when j is another member of e1 and e2 is a
different hyperedge containing j.  The operator grows like the total degree
sum, so it is guarded to small instances and used only to validate the
Bethe Hessian, never to cluster at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph
from .spectral import SpectralError, bethe_hessian

# An eigenvalue is real when |imag| <= IMAG_TOL * max(1, spectral radius).
IMAG_TOL = 1e-8


@dataclass(frozen=True)
class NonBacktracking:
    pair_edges: np.ndarray  # directed-hyperedge index: hyperedge id per row
    pair_nodes: np.ndarray  # node id per row
    matrix: sp.csr_matrix

    @property
    def dim(self):
        return int(self.pair_edges.size)


def nonbacktracking_matrix(h: Hypergraph, guard=5000) -> NonBacktracking:
    """Build the directed-hyperedge operator, ordered by hyperedge order.

    Duplicate hyperedges are distinct columns/rows, consistent with
    multiplicity counts in the one-mode projections.
    """
    import scipy.sparse as sp

    dim = sum(k * c for k, c in h.order_counts().items())
    if dim > guard:
        raise SpectralError(f"non-backtracking dimension {dim} exceeds guard {guard}")
    # directed hyperedges by (order of e, e, node): each order's rows are sorted
    empty = np.zeros(0, dtype=np.int64)
    pe = np.concatenate([empty, *(np.repeat(h.edges_by_order[k], k) for k in h.orders)])
    pn = np.concatenate([empty, *(h.edge_array(k).ravel() for k in h.orders)])
    # (r, s) is 1 when r's hyperedge holds s's node elsewhere and s lies in another
    # hyperedge: (E'E - I)(N'N - I), E and N the 0/1 edge and node incidence matrices
    ones, cols = np.ones(dim, dtype=np.int64), np.arange(dim)
    edge_inc = sp.csr_matrix((ones, (pe, cols)), shape=(h.m, dim))
    node_inc = sp.csr_matrix((ones, (pn, cols)), shape=(h.n, dim))
    eye = sp.identity(dim, dtype=np.int64, format="csr")
    mat = (edge_inc.T @ edge_inc - eye) @ (node_inc.T @ node_inc - eye)
    return NonBacktracking(pe, pn, mat.tocsr().astype(np.int8))


def real_eigenvalues_outside_bulk(nb: NonBacktracking, radius):
    """Real eigenvalues of the operator with modulus beyond the bulk radius."""
    w = np.linalg.eigvals(nb.matrix.toarray())
    scale = max(1.0, float(np.abs(w).max()))
    real = w[np.abs(w.imag) <= IMAG_TOL * scale].real
    return np.sort(real[np.abs(real) > radius])


def bethe_singularity(h: Hypergraph, eigenvalue):
    """(sigma_min, spectral norm) of the Bethe Hessian evaluated at a
    non-backtracking eigenvalue; sigma_min ~ 0 certifies the correspondence."""
    B = bethe_hessian(h, float(eigenvalue)).matrix.toarray()
    svals = np.linalg.svd(B, compute_uv=False)
    return float(svals[-1]), float(svals[0])


@dataclass(frozen=True)
class CostReport:
    dim_nb: int
    nnz_nb: int
    dim_bh: int
    nnz_bh_bound: int

    @property
    def nb_total(self):
        return self.dim_nb + self.nnz_nb

    @property
    def bh_total(self):
        return self.dim_bh + self.nnz_bh_bound


def operator_cost(h: Hypergraph) -> CostReport:
    """Closed-form size/nnz comparison of the two spectral operators.

    dim_nb  = sum_i d_i
    nnz_nb  = sum_i sum_k d_i^(k) (k-1) (d_i - 1)
    dim_bh  = n
    nnz_bh <= n + sum_k m^(k) C(k, 2)
    No operator is materialized.
    """
    total_deg = h.node_degrees()
    dim_nb = int(total_deg.sum())
    nnz_nb = 0
    for k in h.orders:
        dk = h.degrees_by_order(k)
        nnz_nb += int(((k - 1) * dk * (total_deg - 1)).sum())
    nnz_bh = h.n + sum(
        int(cnt) * math.comb(k, 2) for k, cnt in h.order_counts().items()
    )
    return CostReport(dim_nb, nnz_nb, h.n, nnz_bh)
