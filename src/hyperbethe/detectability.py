"""Closed-form detectability calculators.

Everything here works on expected quantities of the symmetric HSBM (or a
pattern-planted model): per-order in/out degrees, the spectral
signal-to-noise ratio SNR_BH, the belief-propagation ratio SNR_BP, their
critical mixing ratios eps* (roots of SNR = 1), and the predicted switching
points of the order/shape trade-off experiments.

Conventions: q communities of equal size, orders is the set of hyperedge
orders, c_in is the rate of all-same-community hyperedges, c_out the rate of
everything else, eps = c_out / c_in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .hsbm import (
    _cells,
    check_rates,
    degree_scale,
    model_orders,
    model_rates,
    order_experiment_spec,
    rates_from_mean_degree,
    shape_experiment_spec,
)


# Bisection steps of critical_epsilon and switching_rho; critical_epsilon also
# stops once |SNR - 1| <= ROOT_TOL.
BISECTIONS = 200
ROOT_TOL = 1e-10


class DetectabilityError(ValueError):
    pass


@dataclass(frozen=True)
class OrderDegrees:
    d_in: float
    d_out: float
    d: float


def degrees_from_rates(q, orders, c_in, c_out):
    """Per-order expected degrees of the symmetric HSBM.

    d_in(k)  = c_in  / (q^(k-1) (k-1)!)   -- hyperedges entirely inside the
                                            node's community
    d_out(k) = c_out / (q^(k-1) (k-1)!)   -- per mixed community combination
    d(k)     = d_in(k) + (q^(k-1) - 1) d_out(k)
    """
    orders = model_orders(q, orders)
    check_rates(c_in, c_out)
    out = {}
    for k in orders:
        scale = degree_scale(q, k)
        d_in = c_in / scale
        d_out = c_out / scale
        out[k] = OrderDegrees(d_in, d_out, d_in + (q ** (k - 1) - 1) * d_out)
    return out


def mean_degree(per_order):
    return float(sum(od.d for od in per_order.values()))


def mean_order(per_order):
    """Mean hyperedge order: d / sum_k d(k)/k."""
    d = mean_degree(per_order)
    s = sum(od.d / k for k, od in per_order.items())
    if s == 0.0:
        raise DetectabilityError("all per-order degrees are zero")
    return d / s


def snr_bh(per_order):
    """Spectral detectability ratio.

    (sum_k (k-1)(d_in(k) - d_out(k)))^2 / sum_k (k-1) d(k); the structure is
    detectable by Bethe Hessian spectral clustering when this exceeds 1.
    """
    num = sum((k - 1) * (od.d_in - od.d_out) for k, od in per_order.items())
    den = sum((k - 1) * od.d for k, od in per_order.items())
    if den == 0.0:
        raise DetectabilityError("zero denominator: all per-order degrees vanish")
    return num * num / den


def snr_bp(per_order):
    """Belief-propagation detectability ratio.

    d (khat - 1) prod_k ((d_in(k) - d_out(k)) / d(k)) ^ (2 khat d(k) / (d k)).
    Any order with d_in(k) = d_out(k) zeroes the whole product (the literal
    product form); callers can inspect zero_signal_orders() to notice.
    """
    d, khat = mean_degree(per_order), mean_order(per_order)
    weight_sum = sum(od.d / k for k, od in per_order.items())
    prod = 1.0
    for k, od in per_order.items():
        if od.d == 0.0:
            raise DetectabilityError(f"order {k} has zero mean degree")
        ratio = (od.d_in - od.d_out) / od.d
        expo = 2.0 * (od.d / k) / weight_sum  # == 2 khat d(k) / (d k)
        if ratio == 0.0:
            return 0.0
        if ratio < 0.0:
            raise DetectabilityError(
                f"order {k} is disassortative (d_out > d_in); out of scope"
            )
        prod *= ratio**expo
    return d * (khat - 1.0) * prod


def zero_signal_orders(per_order):
    return [k for k, od in per_order.items() if od.d_in == od.d_out]


def snr_report(q, orders, *, c_in=None, c_out=None, d=None, eps=None):
    """The detectability report of one parameter point, as a JSON-ready dict.

    eps_bh and eps_bp are the critical mixing ratios at the point's mean
    degree; None where the structure is undetectable at any eps.
    """
    c_in, c_out = model_rates(q, orders, c_in=c_in, c_out=c_out, d=d, eps=eps)
    per_order = degrees_from_rates(q, orders, c_in, c_out)
    report = {
        "q": int(q),
        "orders": sorted(per_order),
        "c_in": float(c_in),
        "c_out": float(c_out),
        "d_in": {str(k): od.d_in for k, od in per_order.items()},
        "d_out": {str(k): od.d_out for k, od in per_order.items()},
        "d_order": {str(k): od.d for k, od in per_order.items()},
        "d": mean_degree(per_order),
        "mean_order": mean_order(per_order),
        "snr_bh": snr_bh(per_order),
        "snr_bp": snr_bp(per_order),
        "zero_signal_orders": zero_signal_orders(per_order),
    }
    for which in ("bh", "bp"):
        try:
            report["eps_" + which] = critical_epsilon(q, orders, report["d"], which=which)
        except DetectabilityError:
            report["eps_" + which] = None
    return report


def critical_epsilon(q, orders, d, which="bh"):
    """Root of SNR(eps) = 1 on [0, 1] at fixed mean degree, by bisection.

    SNR is strictly decreasing in eps and reaches 0 at eps = 1, so the root
    is unique whenever the structure is detectable at eps = 0.
    """
    which = which.lower()
    if which not in ("bh", "bp"):
        raise DetectabilityError("which must be 'bh' or 'bp'")

    def snr_at(eps):
        c_in, c_out = rates_from_mean_degree(q, orders, d, eps)
        per_order = degrees_from_rates(q, orders, c_in, c_out)
        return snr_bh(per_order) if which == "bh" else snr_bp(per_order)

    lo, hi = 0.0, 1.0
    f_lo = snr_at(lo) - 1.0
    if not f_lo > 0.0:
        raise DetectabilityError(
            f"undetectable at any eps: SNR_{which.upper()}(0) = {f_lo + 1.0:g} <= 1"
        )
    return _bisect(lambda eps: snr_at(eps) - 1.0, lo, hi, ROOT_TOL)


def _bisect(f, lo, hi, tol=None):
    """BISECTIONS halvings of [lo, hi] that keep f > 0 at lo; the last midpoint.

    With tol given, returns the first midpoint with |f| <= tol instead.
    """
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if tol is not None and abs(f_mid) <= tol:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def uniform_critical_epsilon(q, order, d):
    """Closed form for a single-order hypergraph:

    eps* = (sqrt(d (k-1)) - 1) / (sqrt(d (k-1)) + q^(k-1) - 1).
    """
    s = math.sqrt(d * (order - 1))
    return (s - 1.0) / (s + q ** (order - 1) - 1.0)


# ---------------------------------------------------------------------------
# Pairwise rate matrices: fix two tensor slots, average the rest over
# uniformly random community assignments.  They summarize any affinity
# pattern as one q x q matrix per order and are the workhorse of the
# competing-structure predictions.
# ---------------------------------------------------------------------------


def pair_rate_matrix(spec):
    """q x q pairwise rate matrix per order for a symmetric or pattern spec."""
    q = spec.q
    out = {}
    for k, counts, rate in _cells(spec):
        mat = out.setdefault(k, np.zeros((q, q)))
        counts = dict(counts)
        scale = q ** (k - 2)
        for a in range(q):
            for b in range(q):
                rem = dict(counts)
                rem[a] = rem.get(a, 0) - 1
                rem[b] = rem.get(b, 0) - 1
                if any(v < 0 for v in rem.values()):
                    continue
                denom = scale
                for v in rem.values():
                    denom *= math.factorial(v)
                mat[a, b] += rate / denom
    return out


def order_degree_from_pair_rates(matrix, order):
    """Mean degree contributed by one order, from its pairwise rate matrix.

    Equals the mean row sum over equal-size communities divided by
    (order - 1); invariant under block aggregation of the matrix.
    """
    mat = np.asarray(matrix, dtype=float)
    rows = mat @ np.full(mat.shape[0], 1.0 / mat.shape[0])
    return float(np.mean(rows) / (order - 1))


def aggregate_pair_rates(matrix, groups):
    """Average a pairwise rate matrix over a coarse 2-block grouping."""
    mat = np.asarray(matrix, dtype=float)
    if len(groups) != 2:
        raise DetectabilityError("only 2-block coarse partitions are supported")
    q = mat.shape[0]
    flat = sorted(c for g in groups for c in g)
    if flat != list(range(q)):
        raise DetectabilityError("groups must partition the communities")
    out = np.zeros((2, 2))
    for gi, gs in enumerate(groups):
        for gj, hs in enumerate(groups):
            out[gi, gj] = mat[np.ix_(list(gs), list(hs))].mean()
    return out


def coarse_snr(pair_rates, groups):
    """SNR_BH of a 2-block coarse-graining of the planted communities.

    pair_rates maps order -> fine q x q pairwise rate matrix.  Each matrix is
    block-averaged over the grouping; the per-order mean degrees (invariant
    under aggregation) supply the denominator.
    """
    num = 0.0
    den = 0.0
    for order, mat in sorted(pair_rates.items()):
        coarse = aggregate_pair_rates(mat, groups)
        cin_k = 0.5 * (coarse[0, 0] + coarse[1, 1])
        cout_k = 0.5 * (coarse[0, 1] + coarse[1, 0])
        num += cin_k - cout_k
        den += (order - 1) * order_degree_from_pair_rates(mat, order)
    if den == 0.0:
        raise DetectabilityError("zero mean degree")
    return num * num / (2**2 * den)


MERGE_01_23 = ((0, 1), (2, 3))
MERGE_02_13 = ((0, 2), (1, 3))


def _tradeoff(kind, low_order=None, high_order=None):
    """(low order, high order), raw switching rho and (n, d, rho, seed=0) -> spec builder of a trade-off experiment."""
    if kind in ("shape4", "shape5"):
        k = int(kind[-1])
        raw = 4.0 / 3.0 if k == 4 else 3.0 / 2.0
        return (k, k), raw, partial(shape_experiment_spec, order=k)
    if kind != "order":
        raise DetectabilityError(f"unknown experiment kind {kind!r}")
    if low_order is None or high_order is None:
        raise DetectabilityError("order experiment needs low_order and high_order")
    k, ks = int(low_order), int(high_order)
    model_orders(4, (k, ks))  # four planted communities
    raw = 2 ** (ks - k) * (2 ** (k - 1) - 1) * math.comb(ks, 2) / float((2 ** (ks - 1) - 1) * math.comb(k, 2))
    return (k, ks), raw, partial(order_experiment_spec, low_order=k, high_order=ks)


def competing_snrs(kind, rho, *, d=10.0, low_order=None, high_order=None):
    """SNRs of the two coarse structures of a trade-off experiment at ratio rho."""
    (_, ks), _, build = _tradeoff(kind, low_order, high_order)
    # the pair rates do not depend on n; 4 * ks is the least n whose blocks hold every hyperedge
    rates = pair_rate_matrix(build(4 * ks, d, rho))
    return coarse_snr(rates, MERGE_01_23), coarse_snr(rates, MERGE_02_13)


def switching_rho(kind, *, low_order=None, high_order=None, adjusted=False, d=10.0):
    """Predicted count-ratio switching point between the two structures.

    Raw prediction: equal SNRs.  Adjusted prediction: SNRs weighted by
    1/(order+1), solved numerically; both are reported by the sweep runners
    and neither is privileged.
    """
    (k, ks), raw, _ = _tradeoff(kind, low_order, high_order)
    if not adjusted:
        return raw

    def gap(rho):
        s_high, s_low = competing_snrs(kind, rho, d=d, low_order=low_order, high_order=high_order)
        return s_high / (ks + 1.0) - s_low / (k + 1.0)

    lo, hi = 1e-9, max(4.0 * raw, 1.0)
    g_lo = gap(lo)
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise DetectabilityError("no adjusted switching point found")
    if g_lo <= 0.0:
        raise DetectabilityError("adjusted switching condition has no sign change")
    return _bisect(gap, lo, hi)
