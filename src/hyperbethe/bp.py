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
the node's max before one gather back to the incidences.  Four (D, q)
Fortran-order buffers, so row sums run column-wise, rotate across sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, lgamma

import numpy as np

from .hsbm import check_rates
from .hypergraph import Hypergraph, Partition

LOG_FLOOR = -700.0
# Half-width of the uniform noise on BP's start.
INIT_NOISE = 1e-2


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
    length-q external field; spare holds the two buffers the next sweep
    writes into.  n2e starts uniform plus seeded noise of half-width
    INIT_NOISE, drawn in h.incidence_pairs() order so that a seed means the
    same start on every input; marginal starts uniform.
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
        self.e2n = np.full((D, q), 1.0 / q, order="F")
        self.n2e = np.empty((D, q), order="F")
        self.marginal = np.full((h.n, q), 1.0 / q)
        # drawn and row-summed in C order (numpy's Fortran-order row sums differ from q = 8 on)
        rng = np.random.default_rng(config.seed)
        p = rng.uniform(-INIT_NOISE, INIT_NOISE, size=(D, q))
        p += 1.0 / q
        np.maximum(p, 1e-12, out=p)
        p /= p.sum(axis=1, keepdims=True)
        # plane row -> its row in edge-major incidence_pairs() order
        sizes = np.empty(h.m, dtype=np.int64)
        for k, e in h.edges_by_order.items():
            sizes[e] = k
        starts = np.cumsum(sizes) - sizes
        perm = np.concatenate([(starts[e] + np.arange(k)[:, None]).ravel() for k, e in h.edges_by_order.items()])
        for c in range(q):
            np.take(p[:, c], perm, out=self.n2e[:, c], mode="clip")
        del p, perm  # freed before the spare buffers are allocated
        self.spare = [np.empty((D, q), order="F") for _ in range(2)]
        self.field = external_field(self)

    @property
    def num_messages(self):
        return int(self.nodes.size)


def _settle(new, old, damping):
    """Damp new messages toward the old ones and return the max-abs change; overwrites old."""
    if damping > 0.0:
        new *= 1.0 - damping
        new += damping * old
        new /= new.sum(axis=1, keepdims=True)
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


def bp_sweep(state: BpState):
    """One synchronous sweep; mutates state, returns the max message change.

    Order: refresh the field from current marginals, update all
    hyperedge-to-node messages from the previous node-to-hyperedge messages,
    then all node-to-hyperedge messages, then marginals.
    """
    q, n, damping, floor = state.q, state.h.n, state.config.damping, np.exp(LOG_FLOOR)
    state.field = external_field(state)

    # hyperedge -> node: the other members' product, prefix times suffix per plane;
    # row 0 of each plane carries the running suffix product
    b, (hat, new_b) = state.n2e, state.spare
    for k, lo, hi in state.planes:
        src, dst = b[lo:hi].reshape(k, -1, q), hat[lo:hi].reshape(k, -1, q)
        dst[1] = src[0]
        for j in range(2, k):
            np.multiply(dst[j - 1], src[j - 1], out=dst[j])
        dst[0] = src[k - 1]
        for j in range(k - 2, 0, -1):
            dst[j] *= dst[0]
            dst[0] *= src[j]
    hat *= state.c_in - state.c_out
    hat += state.c_out
    total = hat.sum(axis=1, keepdims=True)
    dead = total[:, 0] <= 0.0  # every label impossible: send a uniform message
    hat[dead], total[dead] = 1.0, q
    hat /= total
    delta = _settle(hat, state.e2n, damping)
    log_hat = np.log(np.maximum(hat, floor, out=state.e2n), out=state.e2n)

    # node -> hyperedge: each node's log-sum of incoming hats minus the sender's
    node_sum = np.empty((n, q), order="F")
    for c in range(q):
        node_sum[:, c] = np.bincount(state.nodes, weights=log_hat[:, c], minlength=n)
    node_sum -= state.field
    node_sum -= node_sum.max(axis=1, keepdims=True)
    for c in range(q):
        np.take(node_sum[:, c], state.nodes, out=new_b[:, c], mode="clip")
    new_b -= log_hat
    np.exp(new_b, out=new_b)
    new_b /= new_b.sum(axis=1, keepdims=True)
    delta = max(delta, _settle(new_b, b, damping))
    np.maximum(new_b, floor, out=new_b)

    np.exp(node_sum, out=node_sum)
    state.marginal = node_sum / node_sum.sum(axis=1, keepdims=True)
    state.e2n, state.n2e, state.spare = hat, new_b, [log_hat, b]
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
