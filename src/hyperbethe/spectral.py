"""Bethe Hessian spectral clustering for non-uniform hypergraphs.

The operator is

    B_eta = I - sum_k (k-1)/((1-eta)(eta+k-1)) D_k
              + sum_k   eta/((1-eta)(eta+k-1)) A_k

with D_k the order-k degree diagonal and A_k the order-k co-membership
matrix.  At eta equal to the bulk radius of the non-backtracking spectrum,
sum_k sqrt(d_k (k-1)), its negative eigenvalues count the detectable
communities and their eigenvectors embed the nodes for k-means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph, Partition

# Matrices with at most this many rows are solved densely.
DENSE_CUTOFF = 600
# The negative-eigenvalue count's first Lanczos batch; it doubles from here.
FIRST_BATCH = 4
# Smallest Krylov basis ARPACK is given; scipy's default is 20.
MIN_NCV = 32
# ARPACK's stopping tolerance for the count's batches, whose Ritz values only
# have to be sign-resolved against the threshold by their own residuals.
COUNT_TOL = 1e-2
# ARPACK's stopping tolerance for the pairs that feed the embedding, and the
# residual guard's.
EIG_TOL = 1e-8
# Eigenvalues below -NEG_TOL * max|B_ii| count as negative.
NEG_TOL = 1e-8
# Lloyd iterations per k-means restart.
KMEANS_ITERS = 300


class SpectralError(ValueError):
    """The spectral pipeline cannot run on this input or these settings."""


class EigenConvergenceError(SpectralError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class BetheHessian:
    """The operator at eta as a symmetric CSR, with what the eigensolves read off it.

    norm is ||B||_inf (1 for the zero matrix), which scales the residual
    guard; threshold is -NEG_TOL * max|B_ii| (max|B_ii| taken as 1 when the
    diagonal is zero), below which an eigenvalue counts as negative.
    """

    eta: float
    matrix: sp.csr_matrix
    norm: float
    threshold: float

    @property
    def n(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralConfig:
    eta: float | None = None  # override for the degree-based default
    kmeans_restarts: int = 20
    seed: int = 0


@dataclass(frozen=True)
class SpectralResult:
    eta: float
    eigenvalues: np.ndarray  # ascending, as many as were extracted
    num_negative: int
    embedding: np.ndarray  # n x k, unit-norm sign-fixed columns
    partition: Partition

    def to_dict(self):
        return {
            "eta": float(self.eta),
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "num_negative": int(self.num_negative),
            "labels": [int(x) for x in self.partition.labels],
            "q": int(self.partition.q),
        }


def bulk_radius(h: Hypergraph):
    """Degree-based regularization: sum_k sqrt(d_k (k-1)).

    This is the bulk radius of the non-backtracking spectrum; the operator
    is only informative for eta > 1, so sparser hypergraphs are rejected.
    """
    if h.m < 1:
        raise SpectralError("hypergraph has no hyperedges")
    stats = h.degree_stats()
    eta = sum(math.sqrt(dk * (k - 1)) for k, dk in stats.per_order.items())
    if eta <= 1.0 + 1e-9:
        raise SpectralError(
            f"bulk radius {eta:.6g} <= 1: too sparse for the Bethe Hessian "
            "(mean degrees leave no spectral gap)"
        )
    return eta


def _check_poles(eta, orders):
    poles = [1.0] + [1.0 - k for k in orders]
    for p in poles:
        if abs(eta - p) < 1e-9:
            raise SpectralError(f"eta = {eta:g} hits a pole of the operator")


def bethe_hessian(h: Hypergraph, eta) -> BetheHessian:
    """Assemble the operator at a given regularization value.

    Each order's co-membership counts are scaled in place, the orders are
    summed, and the sum is added to the diagonal.  Every term is symmetric,
    so B equals its transpose entry for entry.
    """
    import scipy.sparse as sp

    _check_poles(eta, h.orders)
    diag = np.ones(h.n)
    off = None
    for k in h.orders:
        denom = (1.0 - eta) * (eta + k - 1.0)
        diag -= (k - 1.0) / denom * h.degrees_by_order(k)
        term = h.projection(k)
        term.data *= eta / denom
        off = term if off is None else off + term
    full = sp.diags(diag, format="csr")
    if off is not None:
        full = full + off
    norm = float(np.asarray(abs(full).sum(axis=1)).max(initial=0.0)) or 1.0
    threshold = -NEG_TOL * (float(np.abs(full.diagonal()).max(initial=0.0)) or 1.0)
    return BetheHessian(float(eta), full, norm, threshold)


def lowest_eigenpairs(B: BetheHessian, k, *, tol=EIG_TOL, seed=0, v0=None, residuals=False):
    """k algebraically smallest eigenpairs of the operator.

    Dense solve up to DENSE_CUTOFF rows, Lanczos (ARPACK) above it, started
    from v0 or, by default, from a seeded random vector for determinism.
    ARPACK gets a Krylov basis of max(2k + 1, MIN_NCV) vectors, scipy's own
    rule with 32 in place of its 20: the small batches of the
    negative-eigenvalue count converge pairs next to the clustered bulk edge,
    and a basis that keeps more Krylov information across each implicit
    restart needs fewer restarts to do it.  tol is both ARPACK's stopping
    tolerance (||r|| <= tol * |theta|) and the residual guard: the residuals
    ||B v - theta v|| are verified against max(tol, 1e-12) * ||B||_inf, a
    bound the stopping rule meets since |theta| <= ||B||_inf.  Failure raises
    EigenConvergenceError carrying them.  With residuals=True they are
    returned as a third array, for callers that test each pair on its own.
    """
    n = B.n
    if not 1 <= k <= n:
        raise SpectralError(f"k must be in [1, {n}]")
    if n <= DENSE_CUTOFF or k >= n - 1:
        w, v = np.linalg.eigh(B.matrix.toarray())
        w, v = w[:k], v[:, :k]
    else:
        import scipy.sparse.linalg as spla

        if v0 is None:
            v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            w, v = spla.eigsh(
                B.matrix, k=k, which="SA", v0=v0, ncv=min(n, max(2 * k + 1, MIN_NCV)), tol=tol,
            )
        except spla.ArpackNoConvergence as exc:
            raise EigenConvergenceError(
                f"eigensolver did not converge ({len(exc.eigenvalues)}/{k} pairs)",
                residuals=exc.eigenvalues,
            ) from exc
        order = np.argsort(w)
        w, v = w[order], v[:, order]
    return _guarded(B, w, v, tol, residuals)


def _guarded(B: BetheHessian, w, v, tol, residuals=False):
    """The pairs with signs fixed, once their residuals pass the guard at tol."""
    bound = _residual_bound(B, tol)
    res = np.linalg.norm(B.matrix @ v - v * w, axis=0)
    if not np.all(res <= bound):  # a NaN residual fails too
        raise EigenConvergenceError(
            f"residuals {res.max():g} exceed {tol:g} * ||B|| = {bound:g}",
            residuals=res,
        )
    v = _fix_signs(v)
    return (w, v, res) if residuals else (w, v)


def _residual_bound(B: BetheHessian, tol):
    """The residual guard's bound: max(tol, 1e-12) * ||B||_inf."""
    return max(tol, 1e-12) * B.norm


def _fix_signs(v):
    """Make the largest-magnitude entry of each column positive."""
    v = v.copy()
    idx = np.argmax(np.abs(v), axis=0)
    flip = v[idx, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    return v


def _negative_eigenpairs(B: BetheHessian, *, seed=0):
    """Eigenpairs of B below thr = B.threshold, ascending.

    Up to DENSE_CUTOFF rows one dense solve yields every eigenvalue; only
    the negative columns go through the guard and the sign fix, and leave
    as a copy.  Above, batches of smallest eigenpairs (4, 8, 16, ...) are
    extracted until one at or above thr appears; the clustering takes these
    pairs instead of solving again.  A first batch of 4 settles q <= 3 in
    one solve, where a batch of 8 would also converge pairs inside the
    clustered bulk edge just above zero.

    Only the signs of theta - thr decide the count, so each batch runs ARPACK
    at the loose COUNT_TOL.  For a symmetric matrix some eigenvalue lies
    within ||r|| of a Ritz value theta with unit Ritz vector and residual r
    (Parlett, The Symmetric Eigenvalue Problem), so a batch is accepted only
    when every |theta_i - thr| > 2 ||r_i||; otherwise that batch is solved
    again at EIG_TOL, as a tight-only count would.  A thin margin thus costs
    time, never a sign.  The count is Krylov evidence either way, not a
    certificate: an eigenvalue the Krylov space never saw is not counted.

    The negative pairs feed the embedding, so they must also pass the
    residual guard at EIG_TOL.  Well-separated pairs converge far past
    COUNT_TOL and usually pass already; if one does not, the pairs are refined
    by one k = count solve at EIG_TOL, started from the sum of the loose vectors.
    """
    thr = B.threshold
    if B.n <= DENSE_CUTOFF:
        w, v = np.linalg.eigh(B.matrix.toarray())
        count = int(np.sum(w < thr))
        return _guarded(B, w[:count], v[:, :count], EIG_TOL)
    k = FIRST_BATCH
    while True:
        k = min(k, B.n)
        w, v, res = lowest_eigenpairs(B, k, tol=COUNT_TOL, seed=seed, residuals=True)
        if np.any(np.abs(w - thr) <= 2.0 * res):
            w, v, res = lowest_eigenpairs(B, k, tol=EIG_TOL, seed=seed, residuals=True)
        count = int(np.sum(w < thr))
        if count < k or k == B.n:
            break
        k *= 2
    w, v = w[:count], v[:, :count]
    if np.any(res[:count] > _residual_bound(B, EIG_TOL)):
        w, v = lowest_eigenpairs(B, count, tol=EIG_TOL, seed=seed, v0=v.sum(axis=1))
    return w, v


def count_negative_eigenvalues(B: BetheHessian):
    """Number of eigenvalues below B.threshold."""
    return len(_negative_eigenpairs(B)[0])


def kmeans(points, k, *, restarts=20, seed=0):
    """Plain k-means with k-means++ seeding and best-objective restarts.

    Each restart runs at most KMEANS_ITERS Lloyd iterations.

    The points are copied once into column layout (dim, n), and all
    restarts and Lloyd iterations reuse buffers allocated once per call.
    Squared distances take the BLAS form ||x||^2 - 2 x.c + ||c||^2 into a
    (k, n) buffer; a strict < scan over its rows gives each point the first
    minimum of those rounded values.  Only ties exact in floating point go
    to the lowest index, as argmin's would; a tie exact in real arithmetic
    is broken by how each side's BLAS form rounds.  Centers are bincount
    sums over the coordinate rows, adding points in ascending order per
    cluster; the seeding weights and the inertia sum squared differences
    coordinate by coordinate.  Non-finite points, which no comparison picks,
    are rejected.
    """
    X = np.asarray(points, dtype=float)
    n = X.shape[0]
    if k < 1 or k > n or restarts < 1:
        raise SpectralError(f"need 1 <= k <= {n} and restarts >= 1")
    xx = np.einsum("ij,ij->i", X, X)
    if not np.isfinite(xx).all():
        raise SpectralError("k-means points must be finite")
    cols = np.ascontiguousarray(X.T)
    d2 = np.empty((k, n))
    dmin, dist, tmp = np.empty((3, n))
    less = np.empty(n, dtype=bool)
    labels, prev = np.empty((2, n), dtype=np.intp)
    best_labels, best_inertia = np.empty(n, dtype=np.intp), np.inf
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        centers = _kmeanspp(cols, k, rng, dmin, dist, tmp)
        for it in range(KMEANS_ITERS):
            np.matmul(centers, cols, out=d2)
            d2 *= -2.0  # exact, and xx + (-2 x.c) is xx - 2 x.c in IEEE arithmetic
            d2 += xx
            d2 += np.einsum("ij,ij->i", centers, centers)[:, None]
            labels.fill(0)
            np.copyto(dmin, d2[0])
            for j in range(1, k):
                np.less(d2[j], dmin, out=less)
                np.copyto(labels, j, where=less)
                np.minimum(dmin, d2[j], out=dmin)
            if it and np.array_equal(labels, prev):
                break
            labels, prev = prev, labels
            sizes = np.bincount(prev, minlength=k)
            sums = np.stack([np.bincount(prev, weights=row, minlength=k) for row in cols], axis=1)
            filled = sizes > 0
            centers[filled] = sums[filled] / sizes[filled, None]
            if not filled.all():
                # re-seed an empty cluster at the farthest point
                centers[~filled] = cols[:, dmin.argmax()]
        inertia = _sq_dist(cols, centers, dist, tmp, prev).sum()
        if inertia < best_inertia:
            best_inertia = inertia
            np.copyto(best_labels, prev)
    return best_labels


def _sq_dist(cols, centers, out, tmp, labels=None):
    """Into out, sum_d (x_d - c_d)^2 in order of d, for c = centers or centers[labels]."""
    out.fill(0.0)
    # take's default mode="raise" would write through a temporary, not into tmp
    for d, row in enumerate(cols):
        c = centers[d] if labels is None else np.take(centers[:, d], labels, out=tmp, mode="clip")
        out += np.square(np.subtract(row, c, out=tmp), out=tmp)
    return out


def _kmeanspp(cols, k, rng, near, dist, tmp):
    """k-means++ seeds of the (dim, n) points; near, dist and tmp are n-long buffers."""
    n = cols.shape[1]
    centers = np.empty((k, cols.shape[0]))
    centers[0] = cols[:, rng.integers(n)]
    _sq_dist(cols, centers[0], near, tmp)
    for c in range(1, k):
        total = near.sum()
        idx = rng.integers(n) if total <= 0 else rng.choice(n, p=np.divide(near, total, out=tmp))
        centers[c] = cols[:, idx]
        np.minimum(near, _sq_dist(cols, centers[c], dist, tmp), out=near)
    return centers


def spectral_cluster(h: Hypergraph, num_communities=None, config: SpectralConfig = None) -> SpectralResult:
    """Full pipeline: regularization, operator, eigenvectors, k-means labels.

    With num_communities=None the community count is the number of negative
    eigenvalues (error if zero).  A fixed num_communities always takes that
    many smallest eigenvectors, matching the workflow used on labeled data
    even when some of those eigenvalues are nonnegative.
    """
    cfg = config or SpectralConfig()
    eta = cfg.eta if cfg.eta is not None else bulk_radius(h)
    B = bethe_hessian(h, eta)
    if num_communities is None:
        w, v = _negative_eigenpairs(B, seed=cfg.seed)
        q = len(w)
        if q == 0:
            raise SpectralError("no detectable structure: no negative eigenvalues")
    else:
        q = int(num_communities)
        w, v = lowest_eigenpairs(B, q, seed=cfg.seed)
    labels = kmeans(v, q, restarts=cfg.kmeans_restarts, seed=cfg.seed)
    return SpectralResult(
        eta=float(eta),
        eigenvalues=w,
        num_negative=int(np.sum(w < B.threshold)),
        embedding=v,
        partition=Partition(labels, q),
    )
