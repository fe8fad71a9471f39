"""Bethe Hessian spectral clustering for non-uniform hypergraphs.

The operator is

    B_eta = I - sum_k (k-1)/((1-eta)(eta+k-1)) D_k
              + sum_k   eta/((1-eta)(eta+k-1)) A_k

with D_k the order-k degree diagonal and A_k the order-k co-membership
matrix.  At eta equal to the bulk radius of the non-backtracking spectrum,
sum_k sqrt(d_k (k-1)), its negative eigenvalues count the detectable
communities and their eigenvectors embed the nodes for k-means.

Above DENSE_CUTOFF rows the count runs Lanczos on a degree-2 Chebyshev
filter of B, which maps the negative eigenvalues above 1 and the rest into
[-1, 1] (Fang and Saad, "A filtered Lanczos procedure for extreme and
interior eigenvalue problems", SIAM J. Sci. Comput. 2012); the same solve's
Ritz vectors give the embedding.

From KMEANS_SPLIT_CUTOFF on, when the process may run on two CPUs, the
k-means restarts run on two threads, which take them in turn, with a worker
that lives for one call.  Every operation keeps its operands and their
order, so the labels have the same bytes as on one thread.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .bp import _cpus, _each_part
from .hypergraph import Hypergraph, Partition

# Matrices with at most this many rows are solved densely.
DENSE_CUTOFF = 600
# The negative-eigenvalue count's first Lanczos batch; it doubles from here.
FIRST_BATCH = 4
# Smallest Krylov basis ARPACK is given on B itself; scipy's default is 20.
MIN_NCV = 32
# The count's batches run on the degree-2 Chebyshev polynomial of B mapped
# onto [-1, 1], with a Krylov basis of at least FILTER_NCV vectors.
FILTER_NCV = 18
# ARPACK's stopping tolerance for the count's first solve of each batch, whose
# Ritz values only have to be sign-resolved against 1 by their own residuals.
COUNT_TOL = 1e-2
# ARPACK's stopping tolerance for the pairs that feed the embedding, for a
# batch solved again, and the residual guard's.
EIG_TOL = 1e-8
# Eigenvalues below -NEG_TOL * max|B_ii| count as negative.
NEG_TOL = 1e-8
# Lloyd iterations per k-means restart.
KMEANS_ITERS = 300
# From this many points times restarts on, when the process may use two CPUs,
# k-means runs its restarts on two threads.  kmeans time, two threads over one:
# 20 restarts on the count's embedding of the q = 3, orders (2, 3), d = 10,
# eps = 0.1 model, medians of 9 (runs 1, 2) and 11 (runs 3, 4) alternating
# runs, 2-vCPU VM whose second vCPU was not always free, one BLAS thread:
#   points x restarts  1.0e5  1.5e5  2.0e5  2.5e5  3.0e5  4.0e5  6.0e5
#   run 1              1.33   1.04   0.87   0.81   0.69   0.72   0.64
#   run 2              1.57   1.39   1.02   0.88   0.79   0.71   0.71
#   run 3              -      1.34   1.09   1.06   0.98   1.02   0.65
#   run 4              -      1.38   0.99   1.00   0.83   0.80   0.66
KMEANS_SPLIT_CUTOFF = 300_000


class SpectralError(ValueError):
    """The spectral pipeline cannot run on this input or these settings."""


class BlasThreadError(RuntimeError):
    """numpy's BLAS cannot be pinned to one thread, so a dense solve's bits could move with the thread count."""


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

    def __post_init__(self):
        # the bound bulk_radius applies to its own value
        if self.eta is not None and not 1.0 + 1e-9 < self.eta < math.inf:
            raise SpectralError(f"eta override {self.eta:g} must be finite and > 1")
        if self.kmeans_restarts < 1:
            raise SpectralError(f"need kmeans_restarts >= 1, not {self.kmeans_restarts}")


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


@contextmanager
def one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread, and restore its count on exit.

    A dense eigensolve returns eigenvalues, and for a nonsymmetric matrix
    their order, with last bits that move with the BLAS thread count.  The
    count is set through the scipy_openblas_{get,set}_num_threads64_ symbols
    of the OpenBLAS that numpy's wheel bundles; without them this raises.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        blas = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError) as exc:
        raise BlasThreadError(
            f"cannot pin numpy's BLAS to one thread ({exc}); dense eigensolves need the scipy_openblas "
            "build that numpy's wheels bundle"
        ) from exc
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _dense_eigh(B: BetheHessian):
    """Every eigenpair of B, ascending, from one dense solve on one BLAS thread."""
    with one_blas_thread():
        return np.linalg.eigh(B.matrix.toarray())


def lowest_eigenpairs(B: BetheHessian, k, *, seed=0):
    """k algebraically smallest eigenpairs of the operator, ascending, through the residual guard.

    Dense solve up to DENSE_CUTOFF rows, on one BLAS thread so that its bits
    do not move with the thread count; above it the Ritz pairs of B from
    _lanczos, started from a seeded random vector for determinism.
    """
    n = B.n
    if not 1 <= k <= n:
        raise SpectralError(f"k must be in [1, {n}]")
    if n <= DENSE_CUTOFF or k >= n - 1:
        w, v = _dense_eigh(B)
        return _guarded(B, w[:k], v[:, :k])
    w, _, v, _ = _lanczos(B, B.matrix, k, "SA", np.random.default_rng(seed).standard_normal(n), EIG_TOL, MIN_NCV)
    return _guarded(B, w, v)


def _lanczos(B: BetheHessian, A, k, which, v0, tol, ncv):
    """k eigenpairs of A, which is B or p(B), by ARPACK (scipy's eigsh) from v0, as pairs of B.

    The Krylov basis has max(2k + 1, ncv) vectors, scipy's own rule with ncv
    in place of its 20: MIN_NCV on B, where a fixed k reaches into the
    clustered bulk edge just above zero and a basis that keeps more Krylov
    information across each implicit restart needs fewer restarts to converge
    pairs there, and FILTER_NCV on p(B).  tol is ARPACK's stopping rule,
    ||r|| <= tol * |mu|; at EIG_TOL on B it meets the guard's bound
    EIG_TOL * ||B||_inf, since |mu| <= ||B||_inf.

    Returns A's Ritz values mu, the Rayleigh quotients theta_i = v_i^T B v_i,
    the sign-fixed vectors and their B residuals ||B v_i - theta_i v_i||,
    ascending in theta.  When ARPACK stops short this raises
    EigenConvergenceError carrying the B residuals of the pairs it returned.
    """
    import scipy.sparse.linalg as spla

    stopped = None
    try:
        mu, v = spla.eigsh(A, k=k, which=which, v0=v0, ncv=min(B.n, max(2 * k + 1, ncv)), tol=tol)
    except spla.ArpackNoConvergence as exc:
        mu, v, stopped = exc.eigenvalues, exc.eigenvectors, exc
    Bv = B.matrix @ v
    theta = np.einsum("ij,ij->j", v, Bv)
    order = np.argsort(theta)
    theta, v = theta[order], v[:, order]
    res = np.linalg.norm(Bv[:, order] - v * theta, axis=0)
    if stopped is not None:
        raise EigenConvergenceError(f"eigensolver did not converge ({len(mu)}/{k} pairs)", residuals=res) from stopped
    return mu[order], theta, _fix_signs(v), res


def _guarded(B: BetheHessian, w, v, res=None):
    """The pairs with signs fixed, once their residuals ||B v_i - w_i v_i|| (res if given) pass EIG_TOL * ||B||_inf."""
    if res is None:
        res = np.linalg.norm(B.matrix @ v - v * w, axis=0)
    bound = EIG_TOL * B.norm
    if not np.all(res <= bound):  # a NaN residual fails too
        raise EigenConvergenceError(f"residuals {res.max():g} exceed {EIG_TOL:g} * ||B|| = {bound:g}", residuals=res)
    return w, _fix_signs(v)


def _fix_signs(v):
    """Make the largest-magnitude entry of each column positive."""
    v = v.copy()
    idx = np.argmax(np.abs(v), axis=0)
    flip = v[idx, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    return v


def _negative_eigenpairs(B: BetheHessian, *, seed=0):
    """Eigenpairs of B below thr = B.threshold, ascending.

    Up to DENSE_CUTOFF rows, and for a batch of k >= n - 1, one dense solve
    yields every eigenvalue; only the negative columns go through the guard
    and the sign fix, and leave as a copy.  Above, batches of eigenpairs
    (4, 8, 16, ...) are extracted until one at or above thr appears; the
    clustering takes these pairs instead of solving again.  A first batch of
    4 settles q <= 3 in one solve, where a batch of 8 would also converge
    pairs inside the clustered bulk edge just above zero.

    Each batch runs Lanczos at the loose COUNT_TOL on p(B) (_chebyshev_filter),
    whose eigenvalues above 1 are exactly those of B below thr, so the
    batch's k largest Ritz values mu_i are compared with 1.  For a symmetric
    matrix some eigenvalue lies within ||r|| of a Ritz value with unit Ritz
    vector and residual r (Parlett, The Symmetric Eigenvalue Problem), so the
    batch is accepted only when every |mu_i - 1| > 2 ||r_i||, with r_i the
    p(B) residual, and when the Rayleigh quotients theta_i = v_i^T B v_i fall
    below thr for exactly those i with mu_i > 1; the thetas and the same
    vectors are the batch's pairs of B.  The filter widens the gap between
    the negative eigenvalues and the bulk relative to the spread of the
    spectrum, so a batch takes fewer products with B, though each Lanczos
    step costs two of them.  A batch that fails either check, or whose solve
    stops short, is solved again on p(B) at EIG_TOL from the same start, and
    its thetas below thr are counted, as a tight-only count would.  A thin
    margin thus costs time, never a sign.  The count is Krylov evidence, not
    a certificate: an eigenvalue the Krylov space never saw is not counted.

    The negative pairs feed the embedding, so they must also pass the
    residual guard on B at EIG_TOL.  Well-separated pairs converge far past
    COUNT_TOL and usually pass already; if one does not, the pairs are refined
    by one k = count solve on p(B) at EIG_TOL, started from the sum of their
    vectors.  A solve at EIG_TOL that stops short, or a refinement that fails
    the guard, raises EigenConvergenceError.
    """
    thr = B.threshold
    if B.n > DENSE_CUTOFF:
        P, start = _chebyshev_filter(B), np.random.default_rng(seed).standard_normal(B.n)
        k = FIRST_BATCH
        while k < B.n - 1:
            try:
                w, v, res, resolved = _filtered_batch(B, P, k, COUNT_TOL, start)
            except EigenConvergenceError:
                resolved = False
            if not resolved:
                w, v, res, _ = _filtered_batch(B, P, k, EIG_TOL, start)
            count = int(np.sum(w < thr))
            if count < k:
                if np.all(res[:count] <= EIG_TOL * B.norm):
                    return w[:count], v[:, :count]
                w, v, res, _ = _filtered_batch(B, P, count, EIG_TOL, v[:, :count].sum(axis=1))
                return _guarded(B, w, v, res)
            k *= 2
    w, v = _dense_eigh(B)
    count = int(np.sum(w < thr))
    return _guarded(B, w[:count], v[:, :count])


def _chebyshev_filter(B: BetheHessian):
    """p(B) = T_2(S) = 2 S^2 - I as a LinearOperator, with S one CSR.

    S = (2B - (U + thr) I) / (U - thr), with U = B.norm >= lambda_max and
    thr = B.threshold, maps [thr, U] onto [-1, 1], where |T_2| <= 1, and
    p > 1 exactly below thr.  Each matvec is two sparse products with S.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    U, thr = B.norm, B.threshold
    S = B.matrix * (2.0 / (U - thr)) - sp.identity(B.n, format="csr") * ((U + thr) / (U - thr))

    def apply(x):
        return 2.0 * (S @ (S @ x)) - x

    return spla.LinearOperator(S.shape, matvec=apply, matmat=apply, dtype=float)


def _filtered_batch(B: BetheHessian, P, k, tol, v0):
    """The k largest eigenpairs of P = p(B) by Lanczos at tol from v0, as pairs of B.

    Returns _lanczos' Rayleigh quotients, vectors and B residuals, and
    whether the batch passes _negative_eigenpairs' two checks.
    """
    mu, theta, v, res = _lanczos(B, P, k, "LA", v0, tol, FILTER_NCV)
    resolved = np.abs(mu - 1.0) > 2.0 * np.linalg.norm(P @ v - v * mu, axis=0)
    return theta, v, res, resolved.all() and np.array_equal(theta < B.threshold, mu > 1.0)


def count_negative_eigenvalues(B: BetheHessian):
    """Number of eigenvalues below B.threshold."""
    return len(_negative_eigenpairs(B)[0])


def kmeans(points, k, *, restarts=20, seed=0):
    """Plain k-means with k-means++ seeding and best-objective restarts.

    Each restart runs at most KMEANS_ITERS Lloyd iterations.

    The points are copied once into column layout (dim, n) and once into
    rows with a ones column appended, [X | 1], which every restart reads.
    The restarts run in the calling thread, or from KMEANS_SPLIT_CUTOFF
    points times restarts on, when the process may use two CPUs, in it and
    in a worker thread that lives for this call.  Each thread takes the next
    restart and draws its k-means++ seeds from the one rng under a lock, so
    restart r gets the seeds of the r-th draw whichever thread runs it; a
    seeding reads only the rng and the points, and a Lloyd loop only its
    seeds and the points.  Each thread reuses buffers of its own across its
    restarts and iterations.  The result is the lowest-inertia restart's
    labels, the lowest restart index on a tie, as a strict < over the
    restarts in order picks.

    Squared distances take the BLAS form ||x||^2 - 2 x.c + ||c||^2 into a
    (k, n) buffer; a strict < scan over its rows gives each point the first
    minimum of those rounded values.  Only ties exact in floating point go to
    the lowest index, as argmin's would; a tie exact in real arithmetic is
    broken by how each side's BLAS form rounds.  Centers are the rows of one
    product of a (k, n) one-hot CSC matrix, whose index array holds the
    labels, with [X | 1]: scipy's CSC product walks the points in ascending
    order and adds 1.0 * x, which is exact, into its cluster's row from 0.0.
    Those are a bincount's additions in a bincount's order, so every
    coordinate sum keeps its bits, and the ones column counts each cluster
    exactly.  The seeding weights and the inertia sum squared differences
    coordinate by coordinate.  Non-finite points, which no comparison picks,
    are rejected, and so are points whose 4 n max ||x||^2 overflows: a squared
    distance is at most 4 max ||x||^2, and the seeding sums n of them.
    """
    import scipy.sparse as sp

    X = np.asarray(points, dtype=float)
    n, dim = X.shape
    if k < 1 or k > n or restarts < 1:
        raise SpectralError(f"need 1 <= k <= {n} and restarts >= 1")
    xx = np.einsum("ij,ij->i", X, X)
    if not xx.max() <= np.finfo(float).max / (4 * n):  # NaN fails too
        raise SpectralError("k-means points must be finite, and so must 4 n max ||x||^2")
    cols = np.ascontiguousarray(X.T)
    x1 = np.ones((n, dim + 1))
    x1[:, :dim] = X
    rng, todo, lock = np.random.default_rng(seed), iter(range(restarts)), threading.Lock()

    def buffers():
        onehot = sp.csc_matrix((np.ones(n), np.zeros(n, dtype=np.intp), np.arange(n + 1)), shape=(k, n))
        return onehot, np.empty((k, n)), np.empty((3, n)), np.empty(n, dtype=bool), np.empty((3, n), dtype=np.intp)

    def restarts_of_one_thread(own):
        """(inertia, restart, labels) of the best restart this thread ran, the first on a tie."""
        onehot, d2, (dmin, dist, tmp), less, (labels, prev, best_labels) = own
        best_inertia, best = np.inf, restarts  # a thread that ran no restart loses every tie
        while True:
            with lock:  # restarts are taken, and their seeds drawn, in restart order
                r = next(todo, None)
                if r is None:
                    return best_inertia, best, best_labels
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
                np.copyto(onehot.indices, prev)
                sums = onehot @ x1
                filled = sums[:, dim] > 0
                centers[filled] = sums[filled, :dim] / sums[filled, dim:]
                if not filled.all():
                    # re-seed an empty cluster at the farthest point
                    centers[~filled] = cols[:, dmin.argmax()]
            inertia = _sq_dist(cols, centers, dist, tmp, prev).sum()
            if inertia < best_inertia:
                best_inertia, best = inertia, r
                np.copyto(best_labels, prev)

    p = 2 if restarts > 1 and n * restarts >= KMEANS_SPLIT_CUTOFF and _cpus() > 1 else 1
    with _each_part([buffers() for _ in range(p)]) as each:
        return min(each(restarts_of_one_thread), key=lambda result: result[:2])[2]


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
    if num_communities is not None and not 1 <= num_communities <= h.n:
        raise SpectralError(f"k must be in [1, {h.n}]")
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
