"""Hypergraph data model: incidence structure, degrees, per-order projections, file I/O.

Hyperedges are stored as sorted tuples of distinct node indices.  Duplicate
hyperedges are allowed and everything downstream treats them as multiplicity
counts (the generators are Poisson and may legitimately emit repeats).
Hyperedges must have at least 2 distinct nodes; order-1 edges are rejected
because the spectral operators are undefined for them.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class HypergraphError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """Node -> community labeling with an explicit community count q."""

    labels: np.ndarray
    q: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if self.q < 1:
            raise HypergraphError("q must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.q):
            raise HypergraphError("labels must lie in [0, q)")

    @classmethod
    def from_labels(cls, labels, q=None):
        labels = np.asarray(labels, dtype=np.int64)
        if q is None:
            q = int(labels.max()) + 1 if labels.size else 1
        return cls(labels, q)

    @property
    def n(self):
        return int(self.labels.size)


@dataclass(frozen=True)
class OrderProjection:
    """One-mode projection of the hyperedges of a single order.

    comat[i, j] counts the hyperedges of this order containing both i and j
    (zero diagonal); degree_diag[i] counts the hyperedges of this order
    containing i.  Multi-edges accumulate.
    """

    order: int
    degree_diag: np.ndarray
    comat: sp.csr_matrix


@dataclass(frozen=True)
class DegreeStats:
    node_degrees: np.ndarray
    per_order: dict  # order -> mean degree contributed by that order
    mean: float
    mean_order: float  # total size over hyperedge count; nan when m == 0


class Hypergraph:
    """Immutable incidence structure with per-order bookkeeping.

    Construction canonicalizes each hyperedge to a sorted tuple of distinct
    node indices and groups hyperedges by order.  Instances are treated as
    immutable after construction (projections are cached lazily; the cache
    is an implementation detail and safe to share across threads).
    """

    def __init__(self, n, hyperedges):
        n = int(n)
        if n < 0:
            raise HypergraphError("node count must be nonnegative")
        edges = []
        for e in hyperedges:
            canon = tuple(sorted(set(int(v) for v in e)))
            if len(canon) < 2:
                raise HypergraphError(f"hyperedge {tuple(e)} has fewer than 2 distinct nodes")
            if canon[0] < 0 or canon[-1] >= n:
                raise HypergraphError(f"hyperedge {canon} has node index outside [0, {n})")
            edges.append(canon)
        self.n = n
        self.edges = tuple(edges)
        by_order = {}
        for idx, e in enumerate(edges):
            by_order.setdefault(len(e), []).append(idx)
        self.orders = tuple(sorted(by_order))
        self.edges_by_order = {k: np.asarray(v, dtype=np.int64) for k, v in by_order.items()}
        self._proj_cache = {}
        self._pairs_cache = None

    @property
    def m(self):
        return len(self.edges)

    def order_counts(self):
        """Number of hyperedges of each order present."""
        return {k: int(v.size) for k, v in self.edges_by_order.items()}

    def edge_array(self, order):
        """All hyperedges of one order as an (m_order, order) int array."""
        if order not in self.edges_by_order:
            raise HypergraphError(f"no hyperedges of order {order}")
        idx = self.edges_by_order[order]
        return np.asarray([self.edges[i] for i in idx], dtype=np.int64)

    def degrees_by_order(self, order):
        arr = self.edge_array(order)
        return np.bincount(arr.ravel(), minlength=self.n).astype(np.int64)

    def node_degrees(self):
        deg = np.zeros(self.n, dtype=np.int64)
        for k in self.orders:
            deg += self.degrees_by_order(k)
        return deg

    def degree_stats(self) -> DegreeStats:
        """Per-node degrees, per-order mean degrees, mean degree and mean order."""
        deg = self.node_degrees()
        per_order = {
            k: k * self.edges_by_order[k].size / self.n if self.n else 0.0
            for k in self.orders
        }
        mean = float(sum(per_order.values()))
        total_size = sum(len(e) for e in self.edges)
        mean_order = total_size / self.m if self.m else float("nan")
        return DegreeStats(deg, per_order, mean, float(mean_order))

    def projection(self, order) -> OrderProjection:
        """Per-order co-membership matrix and degree vector (cached)."""
        if order not in self.edges_by_order:
            raise HypergraphError(f"order {order} not present in hypergraph")
        if order not in self._proj_cache:
            arr = self.edge_array(order)
            ii, jj = np.triu_indices(order, k=1)
            rows = arr[:, ii].ravel()
            cols = arr[:, jj].ravel()
            data = np.ones(rows.size, dtype=np.int64)
            upper = sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n))
            comat = (upper + upper.T).tocsr()
            self._proj_cache[order] = OrderProjection(
                order, self.degrees_by_order(order), comat
            )
        return self._proj_cache[order]

    def incidence_pairs(self):
        """Directed incidences (edge_id, node) sorted by edge then node.

        Returns (edge_ids, nodes), each of length sum of all orders.  This is
        the shared indexing backbone for message passing and the
        non-backtracking operator.
        """
        if self._pairs_cache is None:
            lengths = np.fromiter(map(len, self.edges), dtype=np.int64, count=self.m)
            edge_ids = np.repeat(np.arange(self.m, dtype=np.int64), lengths)
            nodes = np.fromiter(
                itertools.chain.from_iterable(self.edges), dtype=np.int64, count=edge_ids.size
            )
            self._pairs_cache = (edge_ids, nodes)
        return self._pairs_cache

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m}, orders={list(self.orders)})"


def degrees(h: Hypergraph) -> DegreeStats:
    """Module-level alias for Hypergraph.degree_stats."""
    return h.degree_stats()


def _parse_line(line):
    body = line.split("#", 1)[0]
    return body.split()


def load_hyperedge_list(path, *, dedup=False):
    """Read a hyperedge-list text file.

    One hyperedge per line, whitespace-separated node tokens, '#' starts a
    comment.  Tokens are mapped to dense indices in first-appearance order;
    duplicate tokens within a line are dropped; lines with fewer than 2
    distinct nodes are skipped (a warning reports how many).  With dedup=True
    repeated identical hyperedges collapse to one; the default keeps them as
    multiplicity.

    Returns (hypergraph, node_names) where node_names[i] is the token of node i.
    """
    index = {}
    names = []
    edges = []
    dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            tokens = _parse_line(line)
            if not tokens:
                continue
            distinct = list(dict.fromkeys(tokens))
            if len(distinct) < 2:
                dropped += 1
                continue
            edge = []
            for tok in distinct:
                if tok not in index:
                    index[tok] = len(names)
                    names.append(tok)
                edge.append(index[tok])
            edges.append(tuple(sorted(edge)))
    if dropped:
        warnings.warn(f"dropped {dropped} line(s) with fewer than 2 distinct nodes")
    if not edges:
        raise HypergraphError(f"no hyperedges found in {path}")
    if dedup:
        edges = sorted(set(edges))
    return Hypergraph(len(names), edges), names


def save_hyperedge_list(h: Hypergraph, path, names=None):
    """Write the hyperedge-list text format (tokens default to node indices)."""
    if names is None:
        names = [str(i) for i in range(h.n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in h.edges:
            fh.write(" ".join(names[i] for i in e) + "\n")


def save_partition(partition: Partition, path, names=None):
    """Write 'token label' lines, one node per line."""
    if names is None:
        names = [str(i) for i in range(partition.n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, lab in enumerate(partition.labels):
            fh.write(f"{names[i]} {int(lab)}\n")


def load_partition(path, names) -> Partition:
    """Read a 'token label' file against a known node-name list.

    Every node must be labeled exactly once; unknown tokens are errors.
    """
    index = {tok: i for i, tok in enumerate(names)}
    labels = np.full(len(names), -1, dtype=np.int64)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            tokens = _parse_line(line)
            if not tokens:
                continue
            if len(tokens) != 2:
                raise HypergraphError(f"malformed partition line: {line.rstrip()}")
            tok, lab = tokens
            if tok not in index:
                raise HypergraphError(f"unknown node token {tok!r}")
            labels[index[tok]] = int(lab)
    if labels.size == 0 or labels.min() < 0:
        missing = [names[i] for i in np.nonzero(labels < 0)[0][:5]]
        raise HypergraphError(f"partition file incomplete (missing {missing} ...)"
                              if missing else "empty partition file")
    return Partition.from_labels(labels)
