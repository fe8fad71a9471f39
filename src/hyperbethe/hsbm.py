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
C(n, order) tuples and avoids their O(n^max_order) cost.  One sampler,
sample_symmetric, takes either spec kind.

The parameter rules (q, the order set, the rate pair, the (d, eps) pair)
are written here once: check_q, model_orders, check_rates,
rates_from_mean_degree and model_rates.  The detectability calculators, BP
and the CLI call them instead of checking on their own.  read_json is the
one reader of every JSON config.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import get_args, get_origin, get_type_hints

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
    bounds = np.cumsum([0] + block_sizes(n, q)).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def planted_partition(n, q) -> Partition:
    return Partition(np.repeat(np.arange(q), block_sizes(n, q)), q)


def check_q(q):
    if q < 2:
        raise HsbmError(f"q = {q} must be >= 2")


def model_orders(q, orders):
    """The sorted distinct orders of a model: q >= 2 and a nonempty set of orders >= 2."""
    check_q(q)
    orders = tuple(sorted(set(int(k) for k in orders)))
    if not orders:
        raise HsbmError("order set must be nonempty")
    if orders[0] < 2:
        raise HsbmError("orders must be >= 2")
    return orders


def check_rates(c_in, c_out):
    """The rate pair as floats; both finite and nonnegative, not both zero."""
    if not (math.isfinite(c_in) and math.isfinite(c_out)) or min(c_in, c_out) < 0.0 or c_in == c_out == 0.0:
        raise HsbmError(f"rates ({c_in}, {c_out}) must be finite, nonnegative and not both zero")
    return float(c_in), float(c_out)


def rates_from_mean_degree(q, orders, d, eps):
    """Solve (d, eps) -> (c_in, c_out) for the symmetric model.

    Uses the large-n closed form: the mean degree contributed by order k is
    (c_in + (q^(k-1)-1) c_out) / (q^(k-1) (k-1)!), summed over orders.
    Plugging the result back into the same expression reproduces d exactly.
    """
    orders = model_orders(q, orders)
    if not (math.isfinite(d) and d > 0.0):
        raise HsbmError(f"mean degree {d} must be positive and finite")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise HsbmError(f"eps {eps} must be nonnegative and finite")
    denom = 0.0
    for k in orders:
        w = q ** (k - 1)
        denom += (1.0 + eps * (w - 1)) / (w * factorial(k - 1))
    c_in = d / denom
    return c_in, eps * c_in


def model_rates(q, orders, *, c_in=None, c_out=None, d=None, eps=None):
    """(c_in, c_out) of a symmetric model given by exactly one whole pair, (c_in, c_out) or (d, eps)."""
    given = tuple(v is not None for v in (c_in, c_out, d, eps))
    if given not in ((True, True, False, False), (False, False, True, True)):
        raise HsbmError("give exactly one of (c_in, c_out) or (d, eps), with both halves of that pair")
    if given[2]:
        return rates_from_mean_degree(q, orders, d, eps)
    model_orders(q, orders)
    return check_rates(c_in, c_out)


@dataclass(frozen=True)
class SymmetricHsbmSpec:
    """Symmetric HSBM parameters.

    Exactly one of (c_in, c_out) or (d, eps) must be given; eps = c_out/c_in.
    """

    n: int
    q: int
    orders: tuple[int, ...]
    c_in: float | None = None
    c_out: float | None = None
    d: float | None = None
    eps: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "orders", model_orders(self.q, self.orders))
        if self.orders[-1] > self.n // self.q:
            raise HsbmError(f"order {self.orders[-1]} exceeds block size {self.n // self.q}")
        self.rates()  # checks the parameter pair
        if self.eps is not None and self.eps > 1.0:
            raise HsbmError("eps must lie in [0, 1] (assortative mode)")

    def rates(self):
        return model_rates(self.q, self.orders, c_in=self.c_in, c_out=self.c_out, d=self.d, eps=self.eps)


@dataclass(frozen=True)
class PlantedPattern:
    """One hyperedge family: order, community composition, Poisson rate."""

    order: int
    composition: dict[int, int]  # community -> count; stored as sorted ((community, count), ...)
    rate: float

    def __post_init__(self):
        composition = tuple(sorted(dict(self.composition).items()))
        object.__setattr__(self, "composition", composition)
        total = sum(k for _, k in composition)
        if total != self.order:
            raise HsbmError(f"composition counts sum to {total}, expected order {self.order}")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise HsbmError(f"rate {self.rate} must be nonnegative and finite")
        if any(k <= 0 for _, k in composition):
            raise HsbmError("composition counts must be positive")


@dataclass(frozen=True)
class PlantedPatternSpec:
    n: int
    q: int
    patterns: tuple[PlantedPattern, ...] = ()
    seed: int = 0

    def __post_init__(self):
        check_q(self.q)
        for p in self.patterns:
            if any(c < 0 or c >= self.q for c, _ in p.composition):
                raise HsbmError("pattern community outside [0, q)")


def _distinct_rows(rng, lo, hi, c, m):
    """m >= 1 rows of c <= hi - lo distinct uniform draws from [lo, hi); deterministic in rng."""
    size = hi - lo
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
    sizes = block_sizes(n, q)
    blocks, drawn = [np.zeros(0, dtype=np.int64)], []  # drawn: (order, m_cell) of each nonempty cell
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
        drawn.append((order, m_cell))
    drawn = np.array(drawn, dtype=np.int64).reshape(-1, 2)
    return Hypergraph(n, np.concatenate(blocks), np.repeat(drawn[:, 0], drawn[:, 1]))


def _cell_mean(n, sizes, order, counts, rate):
    """Poisson mean of a cell: (#node tuples with its composition) * rate / n^(order-1)."""
    tuples = 1
    for community, c in counts:
        tuples *= comb(sizes[community], c)
    return float(tuples) * rate / float(n) ** (order - 1)


def _cells(spec):
    """(order, composition, rate) of every cell of a symmetric or pattern spec."""
    if isinstance(spec, PlantedPatternSpec):
        return [(p.order, p.composition, p.rate) for p in spec.patterns]
    c_in, c_out = spec.rates()
    cells = []
    for order in spec.orders:
        for comp in combinations_with_replacement(range(spec.q), order):
            counts = tuple(sorted((c, comp.count(c)) for c in set(comp)))
            cells.append((order, counts, c_in if len(counts) == 1 else c_out))
    return cells


def sample_symmetric(spec: SymmetricHsbmSpec | PlantedPatternSpec):
    """Draw (hypergraph, planted partition) from a symmetric HSBM or a pattern-planted model."""
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
    patterns = [PlantedPattern(order, c, a_star) for c in balanced]
    patterns += [PlantedPattern(order, c, a) for c in imbalanced]
    return PlantedPatternSpec(n, 4, tuple(patterns), seed)


def order_experiment_spec(n, d, rho, low_order, high_order, seed=0) -> PlantedPatternSpec:
    """Low-order vs high-order boundary hyperedges.

    All mixed compositions between {0,2} and between {1,3} carry low-order
    hyperedges at rate a; all mixed compositions between {0,1} and {2,3}
    carry high-order hyperedges at rate a_star.  rho targets
    m(low) / m(high).
    """
    k, ks = int(low_order), int(high_order)
    model_orders(4, (k, ks))  # four planted communities
    a = 4**k * factorial(k) * d * rho / (2.0 * (2**k - 2) * (k * rho + ks))
    a_star = 4**ks * factorial(ks) * d / (2.0 * (2**ks - 2) * (k * rho + ks))
    patterns = []
    for pair, rate, order in (((0, 2), a, k), ((1, 3), a, k), ((0, 1), a_star, ks), ((2, 3), a_star, ks)):
        u, v = pair
        for j in range(1, order):
            patterns.append(PlantedPattern(order, {u: j, v: order - j}, rate))
    return PlantedPatternSpec(n, 4, tuple(patterns), seed)


def read_json(cls, doc, error):
    """Dataclass cls from the JSON object doc, whose keys must be fields of cls and include every required one.

    Values go by the field's annotation: int takes an integer (not a bool),
    float any number, X | None also null, tuple[T, ...] a list of T,
    dict[int, int] an object with decimal keys, a dataclass an object.  A
    seed must be >= 0, as numpy's generators need.  Any mismatch raises error.
    """
    if not isinstance(doc, dict):
        raise error(f"{cls.__name__} needs a JSON object, not {json.dumps(doc)}")
    names = [f.name for f in fields(cls)]
    for key in doc:
        if key not in names:
            raise error(f"unknown key {key!r}; {cls.__name__} takes {', '.join(names)}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in doc:
            raise error(f"{cls.__name__} needs key {f.name!r}")
    hints = get_type_hints(cls)
    values = {key: _read(hints[key], value, error, f"{cls.__name__} key {key!r}") for key, value in doc.items()}
    if values.get("seed", 0) < 0:
        raise error(f"seed {values['seed']} must be >= 0")
    return cls(**values)


def _read(hint, value, error, where):
    """value read as the annotation hint says (see read_json)."""
    if is_dataclass(hint):
        return read_json(hint, value, error)
    origin, args = get_origin(hint), get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _read(args[0], value, error, where)
    if origin is tuple and isinstance(value, list):
        return tuple(_read(args[0], v, error, where) for v in value)
    if origin is dict and isinstance(value, dict) and all(k.isdecimal() for k in value):
        return {int(k): _read(args[1], v, error, where) for k, v in value.items()}
    if origin is None and not isinstance(value, bool) and isinstance(value, (int, float) if hint is float else hint):
        return float(value) if hint is float else value
    raise error(f"{where} takes {hint.__name__ if origin is None else hint}, not {json.dumps(value)}")


def spec_from_json(doc):
    """A PlantedPatternSpec from a JSON text or object with a "patterns" key, else a SymmetricHsbmSpec."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    cls = PlantedPatternSpec if isinstance(doc, dict) and "patterns" in doc else SymmetricHsbmSpec
    return read_json(cls, doc, HsbmError)
