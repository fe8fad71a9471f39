"""Partition comparison metrics: AMI, confusion matrices, composition histograms.

AMI uses the exact permutation-model expectation of mutual information
(hypergeometric sum, no approximation) and the arithmetic-mean entropy
normalizer.  The raw value is returned; it can be marginally negative for
anti-correlated partitions and is deliberately not clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Contingency:
    counts: np.ndarray  # r x s
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int


def contingency(a, b) -> Contingency:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("partitions must label the same nodes")
    if a.size == 0:
        raise ValueError("empty partitions")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    r, s = ai.max() + 1, bi.max() + 1
    counts = np.zeros((r, s), dtype=np.int64)
    np.add.at(counts, (ai, bi), 1)
    return Contingency(counts, counts.sum(axis=1), counts.sum(axis=0), int(a.size))


def _labels(x):
    return x.labels if hasattr(x, "labels") else np.asarray(x, dtype=np.int64)


def entropy_from_marginals(marg, n):
    p = marg[marg > 0] / n
    return float(-(p * np.log(p)).sum())


def mutual_information(cont: Contingency):
    n = cont.n
    i, j = np.nonzero(cont.counts)
    nij = cont.counts[i, j]
    # log(nij/n) - log(ai/n) - log(bj/n): shared sub-terms keep
    # MI(a, a) bitwise equal to H(a)
    terms = (nij / n) * (
        np.log(nij / n) - np.log(cont.row_marginals[i] / n) - np.log(cont.col_marginals[j] / n)
    )
    return float(terms.sum())


def expected_mutual_information(cont: Contingency):
    """Exact E[MI] under the fixed-marginals permutation model.

    For each cell the overlap count k follows a hypergeometric law; the sum
    runs over its full support.  The law is built from the term ratios
    P(k+1) / P(k), summed outward from the mode and normalised, which keeps
    full relative precision where gammaln terms of size n log n would not.
    """
    n = cont.n
    emi = 0.0
    for a in cont.row_marginals.tolist():
        for b in cont.col_marginals.tolist():
            lo, hi = max(0, a + b - n), min(a, b)
            k = np.arange(lo, hi + 1)
            t = k[:-1]
            step = np.log((a - t) * (b - t) / ((t + 1) * (n - a - b + t + 1)))
            mode = min(max((a + 1) * (b + 1) // (n + 2), lo), hi) - lo
            w = np.exp(np.concatenate(
                [-np.cumsum(step[:mode][::-1])[::-1], [0.0], np.cumsum(step[mode:])]
            ))
            k, p = k[k > 0], w[k > 0] / w.sum()
            emi += float(np.sum((k / n) * np.log(n * k / (a * b)) * p))
    return emi


def ami(a, b):
    """Adjusted mutual information with arithmetic-mean normalizer.

    Partitions identical up to relabeling (including the degenerate
    single-cluster pair) score exactly 1.0.
    """
    cont = contingency(_labels(a), _labels(b))
    counts = cont.counts
    if (
        np.count_nonzero(counts) == max(counts.shape)
        and np.all((counts > 0).sum(axis=0) <= 1)
        and np.all((counts > 0).sum(axis=1) <= 1)
    ):
        return 1.0
    mi = mutual_information(cont)
    emi = expected_mutual_information(cont)
    ha = entropy_from_marginals(cont.row_marginals, cont.n)
    hb = entropy_from_marginals(cont.col_marginals, cont.n)
    denom = 0.5 * (ha + hb) - emi
    if denom == 0.0:
        return 1.0
    return (mi - emi) / denom


def confusion(a, b, row_normalize=False):
    """Count matrix between two partitions (rows: a, cols: b).

    With row_normalize each row is scaled to sum 1; all-zero rows stay zero.
    """
    la, lb = _labels(a), _labels(b)
    if la.shape != lb.shape:
        raise ValueError("partitions must label the same nodes")
    qa = (la.max() + 1) if la.size else 0
    qb = (lb.max() + 1) if lb.size else 0
    if hasattr(a, "q"):
        qa = max(qa, a.q)
    if hasattr(b, "q"):
        qb = max(qb, b.q)
    counts = np.zeros((qa, qb), dtype=np.int64)
    np.add.at(counts, (la, lb), 1)
    if not row_normalize:
        return counts
    out = counts.astype(float)
    sums = out.sum(axis=1, keepdims=True)
    nz = sums[:, 0] > 0
    out[nz] /= sums[nz]
    return out


def hyperedge_composition(h, p):
    """Histograms of how hyperedges sit inside a partition.

    Returns (max_same histogram, order histogram): the first maps
    (order, max nodes of one community inside the hyperedge) -> count,
    the second maps order -> count.
    """
    labels = _labels(p)
    q = int(labels.max(initial=0)) + 1
    max_same, order_freq = {}, {}
    for k in h.orders:
        lab = labels[h.edge_array(k)]
        m_k = lab.shape[0]
        per_label = np.bincount((np.arange(m_k)[:, None] * q + lab).ravel(), minlength=m_k * q)
        best, count = np.unique(per_label.reshape(m_k, q).max(axis=1), return_counts=True)
        max_same.update({(k, int(b)): int(c) for b, c in zip(best, count)})
        order_freq[k] = m_k
    return max_same, order_freq
