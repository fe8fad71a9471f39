"""Hypergraph stochastic block model samplers.

Two generators are provided:

* the symmetric HSBM (two rates: all-same-community vs anything else), and
* pattern-planted models where each hyperedge family is specified by an
  order, a community composition, and a rate.  These drive the order/shape
  trade-off experiments.

Both use composition enumeration: for every order and every unordered
community composition, the number of hyperedges is Poisson with mean
(#node tuples with that composition) * rate / n^(order-1), and the node
tuples are drawn uniformly without replacement inside each block.  This is
the sparse-regime equivalent of independent Bernoulli draws over all
C(n, order) tuples and avoids their O(n^max_order) cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb, factorial

import numpy as np

from .hypergraph import Hypergraph, Partition


class HsbmError(ValueError):
    pass


def block_sizes(n, q):
    """Community sizes; equal when q | n, otherwise differing by at most 1."""
    base = n // q
    return [base + (1 if b < n % q else 0) for b in range(q)]


def block_ranges(n, q):
    """Contiguous [lo, hi) node-index ranges of the q blocks."""
    sizes = block_sizes(n, q)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [(int(bounds[b]), int(bounds[b + 1])) for b in range(q)]


def planted_partition(n, q) -> Partition:
    labels = np.concatenate(
        [np.full(hi - lo, b, dtype=np.int64) for b, (lo, hi) in enumerate(block_ranges(n, q))]
    )
    return Partition(labels, q)


def rates_from_mean_degree(q, orders, d, eps):
    """Solve (d, eps) -> (c_in, c_out) for the symmetric model.

    Uses the large-n closed form: the mean degree contributed by order k is
    (c_in + (q^(k-1)-1) c_out) / (q^(k-1) (k-1)!), summed over orders.
    Plugging the result back into the same expression reproduces d exactly.
    """
    orders = sorted(set(int(k) for k in orders))
    if not orders:
        raise HsbmError("order set must be nonempty")
    if not 0.0 <= eps:
        raise HsbmError("eps must be nonnegative")
    denom = 0.0
    for k in orders:
        w = q ** (k - 1)
        denom += (1.0 + eps * (w - 1)) / (w * factorial(k - 1))
    if denom <= 0.0:
        raise HsbmError("degenerate order set: zero mean-degree coefficient")
    c_in = d / denom
    return c_in, eps * c_in


@dataclass(frozen=True)
class SymmetricHsbmSpec:
    """Symmetric HSBM parameters.

    Exactly one of (c_in, c_out) or (d, eps) must be given; eps = c_out/c_in.
    """

    n: int
    q: int
    orders: tuple
    c_in: float | None = None
    c_out: float | None = None
    d: float | None = None
    eps: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(sorted(set(int(k) for k in self.orders))))
        if self.q < 2:
            raise HsbmError("q must be >= 2")
        if not self.orders:
            raise HsbmError("order set must be nonempty")
        for k in self.orders:
            if k < 2:
                raise HsbmError("orders must be >= 2")
            if k > self.n // self.q:
                raise HsbmError(f"order {k} exceeds block size {self.n // self.q}")
        rate_mode = self.c_in is not None or self.c_out is not None
        degree_mode = self.d is not None or self.eps is not None
        if rate_mode == degree_mode:
            raise HsbmError("give either (c_in, c_out) or (d, eps)")
        if rate_mode:
            if self.c_in is None or self.c_out is None:
                raise HsbmError("both c_in and c_out are required")
            if not (math.isfinite(self.c_in) and math.isfinite(self.c_out)):
                raise HsbmError(f"rates ({self.c_in}, {self.c_out}) must be finite")
            if self.c_in < 0 or self.c_out < 0 or (self.c_in == 0 and self.c_out == 0):
                raise HsbmError("rates must be nonnegative and not both zero")
        else:
            if self.d is None or self.eps is None:
                raise HsbmError("both d and eps are required")
            if not 0.0 <= self.eps <= 1.0:
                raise HsbmError("eps must lie in [0, 1] (assortative mode)")
            if not (math.isfinite(self.d) and self.d > 0):
                raise HsbmError(f"mean degree {self.d} must be positive and finite")

    def rates(self):
        if self.c_in is not None:
            return float(self.c_in), float(self.c_out)
        return rates_from_mean_degree(self.q, self.orders, self.d, self.eps)


@dataclass(frozen=True)
class PlantedPattern:
    """One hyperedge family: order, community composition, Poisson rate."""

    order: int
    counts: tuple  # ((community, count), ...) sorted
    rate: float

    def __post_init__(self):
        counts = tuple(sorted((int(c), int(k)) for c, k in dict(self.counts).items()))
        object.__setattr__(self, "counts", counts)
        total = sum(k for _, k in counts)
        if total != self.order:
            raise HsbmError(f"composition counts sum to {total}, expected order {self.order}")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise HsbmError(f"rate {self.rate} must be nonnegative and finite")
        if any(k <= 0 for _, k in counts):
            raise HsbmError("composition counts must be positive")


@dataclass(frozen=True)
class PlantedPatternSpec:
    n: int
    q: int
    patterns: tuple = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        pats = tuple(
            p if isinstance(p, PlantedPattern) else PlantedPattern(*p)
            for p in self.patterns
        )
        object.__setattr__(self, "patterns", pats)
        if self.q < 2:
            raise HsbmError("q must be >= 2")
        for p in pats:
            if any(c < 0 or c >= self.q for c, _ in p.counts):
                raise HsbmError("pattern community outside [0, q)")


def _distinct_rows(rng, lo, hi, c, m):
    """m rows of c distinct uniform draws from [lo, hi); deterministic in rng."""
    size = hi - lo
    if c > size:
        raise HsbmError(f"cannot draw {c} distinct nodes from a block of {size}")
    if m == 0:
        return np.zeros((0, c), dtype=np.int64)
    if c == 1:
        return rng.integers(lo, hi, size=(m, 1))
    if 2 * c > size:
        # dense regime: per-row permutation, rejection would thrash
        out = np.empty((m, c), dtype=np.int64)
        for r in range(m):
            out[r] = lo + rng.permutation(size)[:c]
        return out
    out = rng.integers(lo, hi, size=(m, c))
    while True:
        srt = np.sort(out, axis=1)
        bad = np.nonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))[0]
        if bad.size == 0:
            return out
        out[bad] = rng.integers(lo, hi, size=(bad.size, c))


def _sample_cells(n, q, cells, seed):
    """Sample all (order, composition, rate) cells.

    Each cell gets an independent RNG stream derived from
    (seed, order, cell_index), so cells could run in parallel and still merge
    deterministically in cell order.  Returns the hypergraph of all cells'
    hyperedges in cell order.
    """
    ranges = block_ranges(n, q)
    sizes = [hi - lo for lo, hi in ranges]
    blocks, lengths = [np.zeros(0, dtype=np.int64)], []
    for cell_id, (order, counts, rate) in enumerate(cells):
        for community, c in counts:
            if c > sizes[community]:
                raise HsbmError(
                    f"composition needs {c} nodes from community {community} "
                    f"of size {sizes[community]}"
                )
        mean = _cell_mean(n, sizes, order, counts, rate) if rate else 0.0
        if mean == 0.0:
            continue
        rng = np.random.default_rng([seed, order, cell_id])
        m_cell = int(rng.poisson(mean))
        if m_cell == 0:
            continue
        cols = [
            _distinct_rows(rng, *ranges[community], c, m_cell)
            for community, c in counts
        ]
        blocks.append(np.concatenate(cols, axis=1).ravel())
        lengths += [order] * m_cell
    return Hypergraph(n, np.concatenate(blocks), lengths)


def _cell_mean(n, sizes, order, counts, rate):
    """Poisson mean of a cell: (#node tuples with its composition) * rate / n^(order-1)."""
    tuples = 1
    for community, c in counts:
        tuples *= comb(sizes[community], c)
    return float(tuples) * rate / float(n) ** (order - 1)


def _cells(spec):
    """(order, composition, rate) of every cell of a symmetric or pattern spec."""
    if isinstance(spec, PlantedPatternSpec):
        return [(p.order, p.counts, p.rate) for p in spec.patterns]
    c_in, c_out = spec.rates()
    cells = []
    for order in spec.orders:
        for comp in combinations_with_replacement(range(spec.q), order):
            counts = tuple(sorted((c, comp.count(c)) for c in set(comp)))
            cells.append((order, counts, c_in if len(counts) == 1 else c_out))
    return cells


def sample_symmetric(spec: SymmetricHsbmSpec):
    """Draw (hypergraph, planted partition) from the symmetric HSBM."""
    return _sample_cells(spec.n, spec.q, _cells(spec), spec.seed), planted_partition(spec.n, spec.q)


def sample_planted(spec: PlantedPatternSpec):
    """Draw (hypergraph, planted partition) from a pattern-planted model."""
    return _sample_cells(spec.n, spec.q, _cells(spec), spec.seed), planted_partition(spec.n, spec.q)


def expected_order_counts(spec):
    """Expected number of hyperedges per order under a spec (exact Poisson means)."""
    sizes = block_sizes(spec.n, spec.q)
    out = {}
    for order, counts, rate in _cells(spec):
        out[order] = out.get(order, 0.0) + _cell_mean(spec.n, sizes, order, counts, rate)
    return out


# ---------------------------------------------------------------------------
# Pattern builders for the competing-structure experiments.  Four planted
# communities {0,1,2,3}; one family of hyperedges lives between {0,1} and
# {2,3}, the competing family between {0,2} and {1,3}.  rho is the target
# ratio of the second family's count to the first's, d the mean degree.
# ---------------------------------------------------------------------------


def shape_experiment_spec(n, d, rho, order=4, seed=0) -> PlantedPatternSpec:
    """Balanced vs imbalanced splits of a single even order (4 or 5).

    Balanced hyperedges (between {0,1} and {2,3}) split as evenly as the
    order allows; imbalanced ones (between {0,2} and {1,3}) put a single
    node on one side.
    """
    if order == 4:
        a = 6 * 4**2 * d * rho / (rho + 1.0)
        a_star = 2 * 4**3 * d / (rho + 1.0)
        balanced = [{0: 2, 1: 2}, {2: 2, 3: 2}]
        imbalanced = [{0: 3, 2: 1}, {0: 1, 2: 3}, {1: 3, 3: 1}, {1: 1, 3: 3}]
    elif order == 5:
        a = 4**4 * 24 * d * rho / (5.0 * (rho + 1.0))
        a_star = 4**4 * 12 * d / (5.0 * (rho + 1.0))
        balanced = [{0: 3, 1: 2}, {0: 2, 1: 3}, {2: 3, 3: 2}, {2: 2, 3: 3}]
        imbalanced = [{0: 4, 2: 1}, {0: 1, 2: 4}, {1: 4, 3: 1}, {1: 1, 3: 4}]
    else:
        raise HsbmError("shape experiment is defined for orders 4 and 5")
    patterns = [PlantedPattern(order, tuple(c.items()), a_star) for c in balanced]
    patterns += [PlantedPattern(order, tuple(c.items()), a) for c in imbalanced]
    return PlantedPatternSpec(n, 4, tuple(patterns), seed)


def order_experiment_spec(n, d, rho, low_order, high_order, seed=0) -> PlantedPatternSpec:
    """Low-order vs high-order boundary hyperedges.

    All mixed compositions between {0,2} and between {1,3} carry low-order
    hyperedges at rate a; all mixed compositions between {0,1} and {2,3}
    carry high-order hyperedges at rate a_star.  rho targets
    m(low) / m(high).
    """
    k, ks = int(low_order), int(high_order)
    if k < 2 or ks < 2:
        raise HsbmError("orders must be >= 2")
    a = 4**k * factorial(k) * d * rho / (2.0 * (2**k - 2) * (k * rho + ks))
    a_star = 4**ks * factorial(ks) * d / (2.0 * (2**ks - 2) * (k * rho + ks))
    patterns = []
    for pair, rate, order in (((0, 2), a, k), ((1, 3), a, k), ((0, 1), a_star, ks), ((2, 3), a_star, ks)):
        u, v = pair
        for j in range(1, order):
            patterns.append(PlantedPattern(order, ((u, j), (v, order - j)), rate))
    return PlantedPatternSpec(n, 4, tuple(patterns), seed)


def spec_from_json(doc):
    """Build a generator spec from a JSON document or dict.

    Keys: n, q, orders, mode ("rates" | "degree-eps" | "patterns"),
    rate/degree values or a pattern list, seed.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    mode = doc.get("mode", "degree-eps")
    seed = int(doc.get("seed", 0))
    if mode == "patterns":
        patterns = tuple(
            PlantedPattern(
                int(p["order"]),
                tuple((int(c), int(k)) for c, k in p["composition"].items()),
                float(p["rate"]),
            )
            for p in doc["patterns"]
        )
        return PlantedPatternSpec(int(doc["n"]), int(doc["q"]), patterns, seed)
    common = dict(n=int(doc["n"]), q=int(doc["q"]), orders=tuple(doc["orders"]), seed=seed)
    if mode == "rates":
        return SymmetricHsbmSpec(c_in=float(doc["c_in"]), c_out=float(doc["c_out"]), **common)
    if mode == "degree-eps":
        return SymmetricHsbmSpec(d=float(doc["d"]), eps=float(doc["eps"]), **common)
    raise HsbmError(f"unknown mode {mode!r}")
