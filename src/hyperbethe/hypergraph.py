"""Hypergraph data model: incidence structure, degrees, per-order projections, file I/O.

Hyperedges are stored as one (m_k, k) int64 array of sorted, distinct node
indices per order k, next to the ids that keep their input order.  Duplicate
hyperedges are allowed and everything downstream treats them as multiplicity
counts (the generators are Poisson and may legitimately emit repeats).
Hyperedges must have at least 2 distinct nodes; order-1 edges are rejected
because the spectral operators are undefined for them.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass

import numpy as np


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

    @property
    def n(self):
        return int(self.labels.size)


@dataclass(frozen=True)
class DegreeStats:
    node_degrees: np.ndarray
    per_order: dict  # order -> mean degree contributed by that order
    mean: float
    mean_order: float  # total size over hyperedge count; nan when m == 0


class Hypergraph:
    """Immutable incidence structure: per order k, a read-only (m_k, k) int64
    array of sorted distinct node rows, and edges_by_order[k], their ids in
    input order.  hyperedges is an iterable of node sequences; or, with
    lengths, all hyperedges' nodes concatenated, lengths[e] for hyperedge e.
    """

    def __init__(self, n, hyperedges, lengths=None):
        n = int(n)
        if n < 0:
            raise HypergraphError("node count must be nonnegative")
        if lengths is None:
            hyperedges = [tuple(e) for e in hyperedges]
            hyperedges, lengths = list(itertools.chain.from_iterable(hyperedges)), list(map(len, hyperedges))
        raw, lengths = np.asarray(hyperedges, dtype=np.int64).ravel(), np.asarray(lengths, dtype=np.int64)
        if lengths.sum() != raw.size or (lengths < 0).any():
            raise HypergraphError(f"lengths do not split {raw.size} nodes into hyperedges")
        nodes, sizes = _sorted_distinct(raw, lengths)
        bad = sizes < 2
        bad[np.repeat(np.arange(sizes.size), sizes)[(nodes < 0) | (nodes >= n)]] = True
        if bad.any():
            e = int(np.argmax(bad))
            edge = raw[lengths[:e].sum():][:lengths[e]].tolist()
            if len(set(edge)) < 2:
                raise HypergraphError(f"hyperedge {tuple(edge)} has fewer than 2 distinct nodes")
            raise HypergraphError(f"hyperedge {tuple(sorted(set(edge)))} has node index outside [0, {n})")
        self.n, self.m = n, int(sizes.size)
        self.orders = tuple(np.flatnonzero(np.bincount(sizes)).tolist())
        starts = np.cumsum(sizes) - sizes
        self.edges_by_order = {k: np.flatnonzero(sizes == k) for k in self.orders}
        self._rows = {k: nodes[starts[e, None] + np.arange(k)] for k, e in self.edges_by_order.items()}
        for arr in [*self.edges_by_order.values(), *self._rows.values()]:
            arr.flags.writeable = False

    def order_counts(self):
        """Number of hyperedges of each order present."""
        return {k: int(v.size) for k, v in self.edges_by_order.items()}

    def edge_array(self, order):
        """All hyperedges of one order: the stored read-only (m_order, order) array, not a copy."""
        if order not in self._rows:
            raise HypergraphError(f"no hyperedges of order {order}")
        return self._rows[order]

    def degrees_by_order(self, order):
        return np.bincount(self.edge_array(order).ravel(), minlength=self.n)

    def node_degrees(self):
        return sum((self.degrees_by_order(k) for k in self.orders), np.zeros(self.n, dtype=np.int64))

    def degree_stats(self) -> DegreeStats:
        """Per-node degrees, per-order mean degrees, mean degree and mean order."""
        counts = self.order_counts()
        per_order = {k: k * c / self.n if self.n else 0.0 for k, c in counts.items()}
        mean_order = sum(k * c for k, c in counts.items()) / self.m if self.m else float("nan")
        return DegreeStats(self.node_degrees(), per_order, float(sum(per_order.values())), float(mean_order))

    def projection(self, order):
        """Order-k co-membership CSR, built on every call.

        Entry (i, j) counts, as a float64, the hyperedges of this order that
        contain both i and j; the diagonal is empty and multi-edges
        accumulate.  The matching degrees are degrees_by_order(order).
        """
        import scipy.sparse as sp

        arr = self.edge_array(order)
        ii, jj = np.nonzero(~np.eye(order, dtype=bool))  # every ordered pair of members
        rows, cols = arr[:, ii].ravel(), arr[:, jj].ravel()
        return sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(self.n, self.n)).tocsr()

    def incidence_pairs(self):
        """Directed incidences (edge_id, node) sorted by edge then node.

        Returns read-only (edge_ids, nodes), each of length sum of all
        orders, with edges in input order, built on every call.  The file
        writer reads it.
        """
        sizes = np.zeros(self.m, dtype=np.int64)
        for k, e in self.edges_by_order.items():
            sizes[e] = k
        starts, nodes = np.cumsum(sizes) - sizes, np.empty(sizes.sum(), dtype=np.int64)
        for k, e in self.edges_by_order.items():
            nodes[starts[e, None] + np.arange(k)] = self._rows[k]
        edge_ids = np.repeat(np.arange(self.m, dtype=np.int64), sizes)
        edge_ids.flags.writeable = nodes.flags.writeable = False
        return edge_ids, nodes

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m}, orders={list(self.orders)})"


def _sorted_distinct(nodes, lengths):
    """Each hyperedge's nodes sorted, repeats dropped: (nodes, sizes), laid out as (nodes, lengths)."""
    starts, out = np.cumsum(lengths) - lengths, nodes.copy()
    for k in np.flatnonzero(np.bincount(lengths, minlength=2)[2:]) + 2:
        pos = starts[lengths == k, None] + np.arange(k)
        out[pos] = np.sort(nodes[pos], axis=1)
    edge = np.repeat(np.arange(lengths.size), lengths)
    keep = np.ones(out.size, dtype=bool)
    keep[1:] = (out[1:] != out[:-1]) | (edge[1:] != edge[:-1])
    return out[keep], np.bincount(edge[keep], minlength=lengths.size)


def load_hyperedge_list(path):
    """Read a hyperedge-list text file.

    One hyperedge per line, whitespace-separated node tokens, '#' starts a
    comment.  Tokens are mapped to dense indices in first-appearance order;
    duplicate tokens within a line are dropped; lines with fewer than 2
    distinct nodes are skipped (a warning reports how many) and number no
    node.  Repeated identical hyperedges are kept as multiplicity.

    Returns (hypergraph, node_names) where node_names[i] is the token of node i.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = re.sub(r"#[^\n]*", "", fh.read()) + "\n"
    # No token holds '#' once comments are cut, so '#' can mark each line end.
    first_seen = {}  # token -> position of its first occurrence
    ids = np.fromiter(map(first_seen.setdefault, text.replace("\n", " # ").split(), itertools.count()), np.int64)
    line_end, tokens = ids == first_seen["#"], list(first_seen)
    ids = (np.cumsum(ids == np.arange(ids.size)) - 1)[ids]  # index into tokens
    line, ids = np.cumsum(line_end)[~line_end], ids[~line_end]
    lengths = np.bincount(line, minlength=int(line_end.sum()))
    # a line has 2 distinct nodes iff one of its tokens differs from its first
    kept = np.zeros(lengths.size, dtype=bool)
    kept[line[ids != ids[(np.cumsum(lengths) - lengths)[line]]]] = True
    dropped = int(np.count_nonzero(lengths[~kept]))
    if dropped:
        warnings.warn(f"dropped {dropped} line(s) with fewer than 2 distinct nodes")
    if not kept.any():
        raise HypergraphError(f"no hyperedges found in {path}")
    # Number nodes in the order they first occur on a kept line.
    ids = ids[kept[line]]
    first = np.full(len(tokens), ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))
    seen = np.flatnonzero(first < ids.size)
    seen = seen[np.argsort(first[seen])]
    node = np.empty(len(tokens), dtype=np.int64)
    node[seen] = np.arange(seen.size)
    h = Hypergraph(seen.size, node[ids], lengths[kept])
    # Fresh copies: the split's own strings would keep its memory from being freed.
    return h, "\n".join(map(tokens.__getitem__, seen.tolist())).split("\n")


def _checked_names(names, n):
    """names as a list, once each is a distinct token the loader reads back as itself."""
    names = list(names)
    if len(names) != n:
        raise HypergraphError(f"{len(names)} names for {n} nodes")
    for name in names:
        if name.split() != [name] or "#" in name:
            raise HypergraphError(f"node name {name!r} does not read back as one token")
    if len(set(names)) != n:
        raise HypergraphError("node names repeat")
    return names


def save_hyperedge_list(h: Hypergraph, path, names=None):
    """Write the hyperedge-list text format (tokens default to node indices).

    Given names must be n distinct tokens that the loader reads back as
    themselves: non-empty, no whitespace, no '#'.  Others raise HypergraphError.
    """
    names = [str(i) for i in range(h.n)] if names is None else _checked_names(names, h.n)
    edge_ids, nodes = h.incidence_pairs()
    out = np.full(2 * nodes.size, " ", dtype=object)
    out[0::2] = np.array(names, dtype=object)[nodes]
    out[2 * np.cumsum(np.bincount(edge_ids, minlength=h.m)) - 1] = "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(out.tolist()))


def save_partition(partition: Partition, path, names=None):
    """Write 'token label' lines, one node per line; names as in save_hyperedge_list."""
    names = [str(i) for i in range(partition.n)] if names is None else _checked_names(names, partition.n)
    lines = map("{} {}\n".format, names, partition.labels.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))


def load_partition(path, names) -> Partition:
    """Read a 'token label' file against a known node-name list.

    Every node must be labeled exactly once with a nonnegative integer;
    unknown tokens are errors.  The distinct label values are renumbered
    0..q-1 in ascending order, so q counts the communities that occur.
    """
    index = {tok: i for i, tok in enumerate(names)}
    labels = np.full(len(names), -1, dtype=np.int64)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise HypergraphError(f"malformed partition line: {line.rstrip()}")
            tok, lab = tokens
            i = index.get(tok)
            if i is None:
                raise HypergraphError(f"unknown node token {tok!r}")
            if labels[i] >= 0:
                raise HypergraphError(f"node token {tok!r} labeled again on line {lineno}")
            try:
                labels[i] = int(lab)
            except ValueError:
                raise HypergraphError(f"label {lab!r} of node {tok!r} on line {lineno} is not an integer") from None
            if labels[i] < 0:
                raise HypergraphError(f"negative label {lab!r} of node {tok!r} on line {lineno}")
    if labels.size == 0 or labels.min() < 0:
        missing = [names[i] for i in np.nonzero(labels < 0)[0][:5]]
        raise HypergraphError(f"partition file incomplete (missing {missing} ...)"
                              if missing else "empty partition file")
    values, labels = np.unique(labels, return_inverse=True)
    return Partition(labels, int(values.size))
