"""Hypergraph data model: incidence structure, degrees, per-order projections, file I/O.

Hyperedges are stored as one (m_k, k) int64 array of sorted, distinct node
indices per order k, next to the ids that keep their input order; only
Hypergraph.__init__ builds them.  Duplicate hyperedges are allowed and count
as multiplicity everywhere downstream (Poisson generators may repeat one).
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


# Every character that str.split() splits on but '\n', mapped to ' '; none lies above U+3000.
_SPACES = {c: " " for c in range(0x3001) if chr(c).isspace() and c != 10}
# _LOW_BYTES[r] sets the low r bytes of a uint64 word.
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


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
    per_order: dict  # order -> mean degree contributed by that order
    mean: float
    mean_order: float  # total size over hyperedge count; nan when m == 0


class Hypergraph:
    """Immutable incidence structure: per order k, a read-only (m_k, k) int64
    array of sorted distinct node rows, and edges_by_order[k], their ids in
    input order.  Takes node sequences, or blocks of (ids, rows): int64 ids,
    0..m-1 once over all blocks, and (m_b, k) int64 rows, taken over: sorted in
    place, an order's one block kept read-only.  Repeated nodes are dropped.
    """

    def __init__(self, n, hyperedges=None, blocks=None):
        n = int(n)
        if n < 0:
            raise HypergraphError("node count must be nonnegative")
        if (hyperedges is None) == (blocks is None):
            raise HypergraphError("give hyperedges or blocks, one of the two")
        if blocks is None:
            blocks = ((np.array([e]), np.array([tuple(edge)], dtype=np.int64)) for e, edge in enumerate(hyperedges))
        widths, parts, bad = {}, {}, []  # widths: k -> the blocks k nodes wide; bad: (id, nodes) of bad rows
        for ids, rows in blocks:
            ids, rows = np.asarray(ids), np.asarray(rows)
            if rows.ndim != 2 or ids.shape != rows.shape[:1] or not ids.dtype == rows.dtype == np.int64:
                raise HypergraphError("a block needs a 2-D int64 rows array and one int64 id per row")
            rows.sort(axis=1)
            widths.setdefault(rows.shape[1], []).append((ids, rows))
        ids = np.concatenate([np.zeros(0, dtype=np.int64), *(ids for part in widths.values() for ids, _ in part)])
        if ids.size and ids.min() < 0 or (np.bincount(ids, minlength=ids.size) != 1).any():
            raise HypergraphError("block ids do not number the hyperedges 0..m-1 once each")
        self.n, self.m = n, int(ids.size)
        while widths:  # widest first, so a row that loses nodes joins a width still to come
            k = max(widths)
            ids, rows = widths.pop(k)[0] if len(widths[k]) == 1 else map(np.concatenate, zip(*widths.pop(k)))
            if (ids[1:] < ids[:-1]).any():
                order = np.argsort(ids, kind="stable")
                ids, rows = ids[order], rows[order]
            step = np.ones(rows.shape, dtype=bool)  # step[e, j]: row e's node j is not its node j - 1
            step[:, 1:] = rows[:, 1:] != rows[:, :-1]
            size = step.sum(axis=1)  # distinct nodes per row
            e = np.flatnonzero((size < 2) | (rows[:, :1] < 0).any(axis=1) | (rows[:, -1:] >= n).any(axis=1))[:1]
            bad += [(ids[i], rows[i].tolist()) for i in e]  # ids ascend, so this is the lowest bad id of width k
            for j in np.unique(size[size < k]).tolist():  # the rows that repeat a node join width j
                e = np.flatnonzero(size == j)
                widths.setdefault(j, []).append((ids[e], rows[e][step[e]].reshape(-1, j)))
            parts[k] = (ids[size == k], rows[size == k]) if (size < k).any() else (ids, rows)
        if bad:  # the lowest id; of equal ids the widest, as the row was given
            edge = min(bad, key=lambda b: b[0])[1]
            if len(set(edge)) < 2:
                raise HypergraphError(f"hyperedge {tuple(edge)} has fewer than 2 distinct nodes")
            raise HypergraphError(f"hyperedge {tuple(sorted(set(edge)))} has node index outside [0, {n})")
        self.orders = tuple(k for k in sorted(parts) if parts[k][0].size)
        self.edges_by_order, self._rows = ({k: parts[k][i] for k in self.orders} for i in (0, 1))
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
        """Per-order mean degrees, mean degree and mean order."""
        counts = self.order_counts()
        per_order = {k: k * c / self.n if self.n else 0.0 for k, c in counts.items()}
        mean_order = sum(k * c for k, c in counts.items()) / self.m if self.m else float("nan")
        return DegreeStats(per_order, float(sum(per_order.values())), float(mean_order))

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

    def edge_offsets(self):
        """Length m + 1: hyperedge e's nodes fill [offsets[e], offsets[e + 1]) of the edge-major incidence order."""
        sizes = np.zeros(self.m + 1, dtype=np.int64)
        for k, e in self.edges_by_order.items():
            sizes[e + 1] = k
        return np.cumsum(sizes)

    def incidence_pairs(self):
        """Directed incidences (edge_id, node) sorted by edge then node.

        Returns read-only (edge_ids, nodes), each of length sum of all
        orders, with edges in input order, built on every call.  The file
        writer reads it.
        """
        offsets = self.edge_offsets()
        nodes = np.empty(offsets[-1], dtype=np.int64)
        for k, e in self.edges_by_order.items():
            nodes[offsets[e, None] + np.arange(k)] = self._rows[k]
        edge_ids = np.repeat(np.arange(self.m, dtype=np.int64), np.diff(offsets))
        edge_ids.flags.writeable = nodes.flags.writeable = False
        return edge_ids, nodes

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m}, orders={list(self.orders)})"


def load_hyperedge_list(path):
    """Read a hyperedge-list text file.

    One hyperedge per line (a line ends at LF, CRLF or CR), node tokens
    separated by the whitespace str.split() splits on, '#' starts a comment;
    text that is not UTF-8 raises UnicodeDecodeError.  Tokens are mapped to
    dense indices in first-appearance order; duplicate tokens within a line
    are dropped; lines with fewer than 2 distinct nodes are skipped (a
    warning reports how many) and number no node.  Repeated identical
    hyperedges are kept as multiplicity.

    Returns (hypergraph, node_names) where node_names[i] is the token of node i.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # the spaces after the last line end let a word be read at any token start
        text = (re.sub(r"#[^\n]*", "", fh.read()) + "\n" + " " * 7).translate(_SPACES)
    data = np.frombuffer(text.encode(), np.uint8)  # UTF-8 holds ' ' and '\n' only as themselves
    del text
    # where a run of separators ends a token starts, and where one starts that token ends
    bounds = np.flatnonzero(np.diff((data == 32) | (data == 10), prepend=True))
    start = bounds[0::2].copy()
    size = bounds[1::2] - start
    del bounds
    ids, top = _token_ids(data, start, size)
    line_ends = np.flatnonzero(data == 10)
    line = np.searchsorted(line_ends, start)
    lengths = np.bincount(line, minlength=line_ends.size)
    del line_ends
    # a line has 2 distinct nodes iff one of its tokens differs from its first
    kept = np.zeros(lengths.size, dtype=bool)
    kept[line[ids != ids[(np.cumsum(lengths) - lengths)[line]]]] = True
    dropped = int(np.count_nonzero(lengths[~kept]))
    if dropped:
        warnings.warn(f"dropped {dropped} line(s) with fewer than 2 distinct nodes")
    if not kept.any():
        raise HypergraphError(f"no hyperedges found in {path}")
    # Number nodes in the order they first occur on a kept line.
    on_kept = np.flatnonzero(kept[line])
    del line
    ids = ids[on_kept]
    first = np.full(top, ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))
    seen = np.flatnonzero(first < ids.size)
    seen = seen[np.argsort(first[seen])]
    # Decode one copy of each node's token, each followed by a '\n' to split on.
    at = on_kept[first[seen]]
    del on_kept, first
    start, size = start[at], size[at] + 1
    offset = np.cumsum(size) - size
    chars = data[np.arange(size.sum()) + np.repeat(start - offset, size)]
    chars[offset + size - 1] = 10
    del data, start, size
    names = chars.tobytes().decode("utf-8").split("\n")[:-1]
    node = np.empty(top, dtype=np.int64)
    node[seen] = np.arange(seen.size)
    ids = node[ids]
    del node
    lengths = lengths[kept]
    starts = np.cumsum(lengths) - lengths
    lines = {k: np.flatnonzero(lengths == k) for k in np.flatnonzero(np.bincount(lengths)).tolist()}  # by token count
    return Hypergraph(seen.size, blocks=[(e, ids[starts[e, None] + np.arange(k)]) for k, e in lines.items()]), names


def _token_ids(data, start, size):
    """Equal ids for equal tokens: (ids, top), ids in [0, top), one per token.

    A token's UTF-8 bytes are read as little-endian uint64 words, the last
    one padded with 0xff, a byte UTF-8 never holds.  Pass j gives a fresh id
    to each distinct (id, word j) pair of the tokens that reach word j, so
    once a token's last word is read, equal tokens share its id.  A file of
    tokens of up to 8 bytes takes one pass.
    """
    words = np.ndarray((data.size - 7,), "<u8", data, 0, (1,))  # the word starting at each byte
    ids = np.zeros(start.size, dtype=np.int64)
    top = 0
    reach = np.arange(start.size)  # the tokens that reach word j, in ascending id order
    for skip in itertools.count(0, 8):
        if not reach.size:
            return ids, top
        word = words[start[reach] + skip] | ~_LOW_BYTES[np.minimum(size[reach] - skip, 8)]
        # A stable sort keeps the tokens of one word in id order, so equal (id, word)
        # pairs sit together; in the first pass every id is 0.
        order = np.argsort(word, kind="stable" if skip else None)
        reach = reach[order]
        word = word[order]
        del order
        prev = ids[reach]
        fresh = np.ones(reach.size, dtype=bool)
        fresh[1:] = (word[1:] != word[:-1]) | (prev[1:] != prev[:-1])
        del word, prev
        ids[reach] = np.cumsum(fresh) + (top - 1)
        top += int(np.count_nonzero(fresh))
        del fresh
        # the fresh ids ascend along reach, and the filter keeps its order
        reach = reach[size[reach] > skip + 8]


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
