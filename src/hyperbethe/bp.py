"""Belief propagation for the symmetric HSBM.

Messages live on directed incidences (node, hyperedge) as probabilities;
node messages and the logs of hyperedge messages are floored at exp(-700).
For two-rate affinities the hyperedge-to-node update collapses the full
q^(order-1) assignment sum into O(order * q) products:

    value(psi) = c_out + (c_in - c_out) * prod_{j in e \\ i} b_j(psi)

The non-edge factors are absorbed into a global per-community external
field computed from the marginal mass of each community.  All updates in a
sweep are synchronous (Jacobi) so results are independent of scheduling.

Incidences run by order, then by position within the hyperedge, then by
hyperedge, so the order-k rows of each community column form a contiguous
(k, m_k) plane.  The hyperedge side takes the product above directly: order
2 swaps the two plane rows, higher orders multiply prefix and suffix
products.  The node side stays in the log domain: each node's sum of
incoming log-hats is one bincount per community, shifted by the field and
the node's max before one gather back to the incidences.  Three (D, q)
Fortran-order buffers, so row sums run column-wise, rotate across sweeps:
the new hats go into the free one, their logs over the old hats, and the
new node messages over the logs, one column at a time through a D-long
scratch column.  A sweep allocates nothing of D or more elements.

From _SPLIT_CUTOFF incidences on, when the process may run on two CPUs, a
sweep runs each step in two parts, the second on a worker thread that lives
for one sweep: the hyperedge products on two halves of each plane's
hyperedges, the row-wise steps (normalise, damp, log; gather, subtract, exp,
normalise, damp, floor) on two halves of the D rows, and the node sums'
bincounts on two halves of the communities.  Each element, row sum and
bincount sees the same operands in the same order as in one part, and a max
is exact, so no bit moves.  The (n, q) node steps, the field and the
marginal stay in the calling thread.
"""

from __future__ import annotations

import os
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from math import inf, lgamma

import numpy as np

from .hsbm import check_rates
from .hypergraph import Hypergraph, Partition

LOG_FLOOR = -700.0
# Half-width of the uniform noise on BP's start.
INIT_NOISE = 1e-2
# Sweeps over at least this many incidences D run in two parts, the second on a
# worker thread, when the process may use two CPUs.  bp_run time, two parts over
# one: 20 sweeps on the q = 3, orders (2, 3), d = 10, eps = 0.1 model, medians
# of 11 (run 1) and 15 (run 2) alternating runs, 2-vCPU VM, one BLAS thread:
#   D      3.0e4  4.0e4  5.0e4  6.0e4  8.0e4  1.0e5  1.2e5  1.5e5  2.0e5  3.0e5
#   run 1  1.16   1.11   0.94   1.05   0.93   0.75   -      -      0.66   0.68
#   run 2  1.24   -      0.90   -      0.77   0.72   0.68   0.68   -      0.63
_SPLIT_CUTOFF = 100_000


class BpError(ValueError):
    pass


@dataclass(frozen=True)
class BpConfig:
    max_sweeps: int = 500
    tol: float = 1e-6  # convergence threshold on max-abs message change
    damping: float = 0.0  # blend factor toward the previous messages, in [0, 1)
    seed: int = 0  # of the start's noise

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise BpError("max_sweeps must be >= 1")
        if not 0.0 < self.tol < inf:  # NaN fails too
            raise BpError("convergence threshold must be positive and finite")
        if not 0.0 <= self.damping < 1.0:
            raise BpError("damping must lie in [0, 1)")


class BpState:
    """Message arrays of one hypergraph, laid out in per-order planes.

    n2e / e2n are (D, q) Fortran-order probability arrays over the directed
    incidences.  For each (k, lo, hi) in planes, row lo + j * m_k + t is
    position j of hyperedge h.edges_by_order[k][t], and nodes[row] is its
    node.  marginal is the (n, q) probability table; field is the current
    length-q external field.  free is the (D, q) buffer the next sweep
    writes its hats into, col a D-long scratch column and node_sum the
    (n, q) Fortran-order table of each node's summed log-hats.  n2e starts
    uniform plus seeded noise of half-width INIT_NOISE, drawn in
    h.incidence_pairs() order so that a seed means the same start on every
    input; marginal starts as a uniform C-order table, which the first sweep
    replaces by a Fortran-order one that later sweeps overwrite in place.
    """

    def __init__(self, h: Hypergraph, q, c_in, c_out, config: BpConfig):
        if q < 2:
            raise BpError("q must be >= 2")
        if h.m < 1:
            raise BpError("hypergraph has no hyperedges")
        self.c_in, self.c_out = check_rates(c_in, c_out)
        self.h, self.q, self.config = h, int(q), config
        self.nodes = np.concatenate([h.edge_array(k).T.ravel() for k in h.orders])
        bounds = np.cumsum([0] + [k * h.edges_by_order[k].size for k in h.orders]).tolist()
        self.planes = tuple(zip(h.orders, bounds[:-1], bounds[1:]))
        D = self.nodes.size
        self.n2e = np.empty((D, q), order="F")
        # drawn and row-summed in C order (numpy's Fortran-order row sums differ from q = 8 on)
        rng = np.random.default_rng(config.seed)
        p = rng.uniform(-INIT_NOISE, INIT_NOISE, size=(D, q))
        p += 1.0 / q
        np.maximum(p, 1e-12, out=p)
        p /= p.sum(axis=1, keepdims=True)
        # plane row -> its row in edge-major incidence_pairs() order
        offsets = h.edge_offsets()
        perm = np.concatenate([(offsets[e] + np.arange(k)[:, None]).ravel() for k, e in h.edges_by_order.items()])
        for c in range(q):
            np.take(p[:, c], perm, out=self.n2e[:, c], mode="clip")
        del p, perm  # freed before e2n is filled, so the start peaks below a sweep
        self.e2n = np.full((D, q), 1.0 / q, order="F")
        self.free = np.empty((D, q), order="F")
        self.col = np.empty(D)
        self.node_sum = np.empty((h.n, q), order="F")
        self.marginal = np.full((h.n, q), 1.0 / q)
        self.field = external_field(self)

    @property
    def num_messages(self):
        return int(self.nodes.size)


def _settle(new, old, damping, col):
    """Damp new messages toward the old ones and return the max-abs change; overwrites old and col."""
    if damping > 0.0:
        new *= 1.0 - damping
        for c in range(new.shape[1]):
            np.multiply(old[:, c], damping, out=col)
            new[:, c] += col
        np.sum(new, axis=1, out=col)
        new /= col[:, None]
    old -= new
    return float(np.abs(old, out=old).max())


def bp_init(h: Hypergraph, q, rates, config: BpConfig = None) -> BpState:
    """Initialize messages: uniform plus the seeded noise (see BpState)."""
    c_in, c_out = rates
    return BpState(h, q, c_in, c_out, config or BpConfig())


def hyperedge_message(c_in, c_out, incoming, normalize=True):
    """Message a hyperedge sends to one member, from the other members' messages.

    incoming has shape (order-1, q); the value is the direct product
    c_out + (c_in - c_out) * prod_j incoming[j], exact even when a message
    is within rounding of one-hot.
    """
    inc = np.asarray(incoming, dtype=float)
    if inc.ndim != 2 or inc.shape[0] < 1:
        raise BpError("need at least one incoming message")
    val = c_out + (c_in - c_out) * inc.prod(axis=0)
    if not normalize:
        return val
    total = val.sum()
    if total <= 0.0:
        return np.full(inc.shape[1], 1.0 / inc.shape[1])
    return val / total


def external_field(state: BpState):
    """Per-community field from the marginal mass of each community.

    h(psi) = sum_k [c_out + (c_in - c_out) / (n^(k-1) (k-1)!) * S(psi)^(k-1)]
    with S(psi) the summed marginals; evaluated via logs so high orders
    neither overflow nor underflow.
    """
    n = state.h.n
    s = state.marginal.sum(axis=0)
    frac = np.maximum(s / n, 1e-300)
    out = np.zeros(state.q)
    for k in state.h.orders:
        out += state.c_out + (state.c_in - state.c_out) * np.exp(
            (k - 1) * np.log(frac) - lgamma(k)
        )
    return out


def _cpus():
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# A part of a sweep: a slice of the D rows, one slice of each plane's hyperedges, a slice of the q columns.
_Part = namedtuple("_Part", "rows edges cols")


def _parts(state):
    """Halves of each range from _SPLIT_CUTOFF incidences on two CPUs, else one part over everything."""
    p = 2 if state.num_messages >= _SPLIT_CUTOFF and _cpus() > 1 else 1

    def cut(size, i):
        return slice(size * i // p, size * (i + 1) // p)

    return [_Part(cut(state.num_messages, i), [cut((hi - lo) // k, i) for k, lo, hi in state.planes], cut(state.q, i))
            for i in range(p)]


@contextmanager
def _each_part(parts):
    """Yield each(step) -> [step(part) for part in parts], for a with block.

    The first part runs in the calling thread, the others on a pool that the
    end of the block shuts down, whether the block returns or raises; one
    part starts no thread.  BP's sweeps and spectral's k-means restarts
    share it.
    """
    pool = None
    if len(parts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(len(parts) - 1)

    def each(step):
        rest = [pool.submit(step, part) for part in parts[1:]]
        try:
            first = step(parts[0])
        finally:  # the other parts are done before any step that reads them, even on a raise
            rest = [future.result() for future in rest]
        return [first] + rest

    try:
        yield each
    finally:
        if pool is not None:
            pool.shutdown()


def bp_sweep(state: BpState):
    """One synchronous sweep; mutates state, returns the max message change.

    Order: refresh the field from current marginals, update all
    hyperedge-to-node messages from the previous node-to-hyperedge messages,
    then all node-to-hyperedge messages, then marginals.
    """
    with _each_part(_parts(state)) as each:
        return _sweep(state, each)


def _sweep(state, each):
    q, n, damping, floor = state.q, state.h.n, state.config.damping, np.exp(LOG_FLOOR)
    state.field = external_field(state)
    b, hat, log_hat, col, nodes, node_sum = state.n2e, state.free, state.e2n, state.col, state.nodes, state.node_sum

    def products(part):
        # hyperedge -> node: the other members' product, prefix times suffix per plane;
        # row 0 of each plane carries the running suffix product
        for (k, lo, hi), t in zip(state.planes, part.edges):
            src, dst = b[lo:hi].reshape(k, -1, q)[:, t], hat[lo:hi].reshape(k, -1, q)[:, t]
            dst[1] = src[0]
            for j in range(2, k):
                np.multiply(dst[j - 1], src[j - 1], out=dst[j])
            dst[0] = src[k - 1]
            for j in range(k - 2, 0, -1):
                dst[j] *= dst[0]
                dst[0] *= src[j]

    def hats(part):
        new, c, logs = hat[part.rows], col[part.rows], log_hat[part.rows]
        new *= state.c_in - state.c_out
        new += state.c_out
        np.sum(new, axis=1, out=c)
        if c.min() <= 0.0:  # every label impossible: send a uniform message
            dead = c <= 0.0
            new[dead], c[dead] = 1.0, q
        new /= c[:, None]
        delta = _settle(new, logs, damping, c)
        np.log(np.maximum(new, floor, out=logs), out=logs)
        return delta

    def sums(part):
        for c in range(q)[part.cols]:
            node_sum[:, c] = np.bincount(nodes, weights=log_hat[:, c], minlength=n)

    def messages(part):
        # node -> hyperedge: each node's log-sum of incoming hats minus the sender's,
        # written over the sender's log-hat
        new, c, senders = log_hat[part.rows], col[part.rows], nodes[part.rows]
        for j in range(q):
            np.take(node_sum[:, j], senders, out=c, mode="clip")
            np.subtract(c, new[:, j], out=new[:, j])
        np.exp(new, out=new)
        np.sum(new, axis=1, out=c)
        new /= c[:, None]
        delta = _settle(new, b[part.rows], damping, c)
        np.maximum(new, floor, out=new)
        return delta

    each(products)
    deltas = each(hats)
    each(sums)
    node_sum -= state.field
    node_sum -= node_sum.max(axis=1, keepdims=True)
    deltas += each(messages)

    # external_field's column sums depend on the layout: the first sweep replaces the
    # C-order start by a Fortran-order marginal, which later sweeps overwrite
    np.exp(node_sum, out=node_sum)
    marginal = state.marginal if state.marginal.flags.f_contiguous else None
    state.marginal = np.divide(node_sum, node_sum.sum(axis=1, keepdims=True), out=marginal)
    state.e2n, state.n2e, state.free = hat, log_hat, b
    delta = float(np.max(deltas))  # NaN wherever it is
    if not np.isfinite(delta):
        raise BpError(f"sweep gave a non-finite message change ({delta})")
    return delta


@dataclass(frozen=True)
class BpResult:
    partition: Partition
    marginals: np.ndarray
    sweeps: int
    converged: bool


def bp_run(h: Hypergraph, q, rates, config: BpConfig = None) -> BpResult:
    """Iterate sweeps to convergence (or the sweep cap) and read off labels.

    Non-convergence is not an error: the best available marginals are
    returned with converged=False.  Ties in the argmax go to the lowest
    community index.
    """
    cfg = config or BpConfig()
    state = bp_init(h, q, rates, cfg)
    converged = False
    for sweeps in range(1, cfg.max_sweeps + 1):
        delta = bp_sweep(state)
        if delta < cfg.tol:
            converged = True
            break
    labels = np.argmax(state.marginal, axis=1)
    return BpResult(Partition(labels, q), state.marginal.copy(), sweeps, converged)
