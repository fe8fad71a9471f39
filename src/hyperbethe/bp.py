"""Belief propagation for the symmetric HSBM.

Messages live on directed incidences (node, hyperedge) and are stored in the
log domain with a floor at exp(-700).  The hyperedge-to-node update uses the
node-removal recursion, which for two-rate affinities collapses the full
q^(order-1) assignment sum into O(order * q) multiplications:

    value(psi) = c_out + (c_in - c_out) * prod_{j in e \\ i} b_j(psi)

The non-edge factors are absorbed into a global per-community external
field computed from the marginal mass of each community.  All updates in a
sweep are synchronous (Jacobi) so results are independent of scheduling.

A sweep is two sparse products with 0/1 incidence matrices, (m x D) for the
hyperedges and (n x D) for the nodes, each gathered back to the D incidences
minus the message's own term.  Messages are (D, q) arrays in Fortran order,
so per-row sums, maxima and normalisations run as q - 1 column operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np
import scipy.sparse as sp

from .hypergraph import Hypergraph, Partition

LOG_FLOOR = -700.0


class BpError(ValueError):
    pass


@dataclass(frozen=True)
class BpConfig:
    max_sweeps: int = 500
    tol: float = 1e-6  # convergence threshold on max-abs message change
    damping: float = 0.0  # blend factor toward the previous messages, in [0, 1)
    init: str = "perturbed"  # "uniform" | "perturbed" | "planted"
    init_noise: float = 1e-2
    planted_smoothing: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise BpError("convergence threshold must be positive")
        if not 0.0 <= self.damping < 1.0:
            raise BpError("damping must lie in [0, 1)")
        if self.init not in ("uniform", "perturbed", "planted"):
            raise BpError(f"unknown init mode {self.init!r}")


class BpState:
    """Message arrays plus the incidence matrices of one hypergraph.

    log_n2e / log_e2n are (D, q) Fortran-order arrays over the directed
    incidences (pair_edges[r], pair_nodes[r]) in edge-major order; edge_inc
    and node_inc are the (m, D) and (n, D) 0/1 CSR incidence matrices;
    marginal is the (n, q) probability table; field is the current length-q
    external field.  log_n2e starts as config.init says: exact uniform,
    uniform plus seeded noise, or the planted partition's smoothed labels,
    which then also set marginal.
    """

    def __init__(self, h: Hypergraph, q, c_in, c_out, config: BpConfig, planted: Partition = None):
        if q < 2:
            raise BpError("q must be >= 2")
        if h.m < 1:
            raise BpError("hypergraph has no hyperedges")
        if config.init == "planted" and planted is None:
            raise BpError("planted init requires the planted partition")
        self.h = h
        self.q = int(q)
        self.c_in = float(c_in)
        self.c_out = float(c_out)
        self.config = config
        self.pair_edges, self.pair_nodes = h.incidence_pairs()
        D = self.pair_edges.size
        # one incidence per column, as CSC; scipy counting-sorts it into canonical CSR
        ones, cols = np.ones(D), np.arange(D + 1)
        self.edge_inc = sp.csc_matrix((ones, self.pair_edges, cols), shape=(h.m, D)).tocsr()
        self.node_inc = sp.csc_matrix((ones, self.pair_nodes, cols), shape=(h.n, D)).tocsr()
        self.log_e2n = np.full((D, q), -np.log(q), order="F")
        self.log_n2e = np.empty((D, q), order="F")
        self.marginal = np.full((h.n, q), 1.0 / q)
        if config.init == "uniform":
            self.log_n2e.fill(-np.log(q))
        elif config.init == "perturbed":
            # drawn and row-summed in C order (numpy's Fortran-order row sums differ from q = 8 on)
            rng = np.random.default_rng(config.seed)
            p = rng.uniform(-config.init_noise, config.init_noise, size=(D, q))
            p += 1.0 / q
            np.maximum(p, 1e-12, out=p)
            _log_probs(np.divide(p, p.sum(axis=1, keepdims=True), out=self.log_n2e))
        else:
            s = config.planted_smoothing
            self.marginal[:] = s / q
            self.marginal[np.arange(h.n), planted.labels] += 1.0 - s
            log_marginal = _log_probs(self.marginal.copy())
            for c in range(q):
                np.take(log_marginal[:, c], self.pair_nodes, out=self.log_n2e[:, c], mode="clip")
        self.field = external_field(self)

    @property
    def num_messages(self):
        return int(self.pair_edges.size)


def _log_probs(p):
    """Floored log of a probability array, in place."""
    np.maximum(p, np.exp(LOG_FLOOR), out=p)
    return np.log(p, out=p)


def _softmax_rows(x):
    """Per-row exp-normalise of log weights, in place, after a max shift."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def _settle(new, log_old, damping):
    """Damp new messages toward the old ones and return the max-abs change; overwrites log_old."""
    old = np.exp(log_old, out=log_old)
    if damping > 0.0:
        new *= 1.0 - damping
        new += damping * old
        new /= new.sum(axis=1, keepdims=True)
    old -= new
    return float(np.abs(old, out=old).max())


def bp_init(h: Hypergraph, q, rates, config: BpConfig = None, planted: Partition = None) -> BpState:
    """Initialize messages: exact uniform, noise-perturbed uniform, or planted."""
    c_in, c_out = rates
    return BpState(h, q, c_in, c_out, config or BpConfig(), planted)


def hyperedge_message(c_in, c_out, incoming, normalize=True):
    """Message a hyperedge sends to one member, from the other members' messages.

    incoming has shape (order-1, q).  Node-removal recursion: start from the
    pair base case c_in + (c_out - c_in) * (1 - b(psi)) and fold the
    remaining members in one at a time while tracking the running product of
    their psi-components.
    """
    inc = np.asarray(incoming, dtype=float)
    if inc.ndim != 2 or inc.shape[0] < 1:
        raise BpError("need at least one incoming message")
    val = c_in + (c_out - c_in) * (1.0 - inc[0])
    prefix = inc[0].copy()
    for t in range(1, inc.shape[0]):
        val = val + (c_out - c_in) * (1.0 - inc[t]) * prefix
        prefix = prefix * inc[t]
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
    q = state.q
    cfg = state.config
    state.field = external_field(state)

    # hyperedge -> node: each hyperedge's log-message sum minus the receiver's own
    logb = state.log_n2e
    hat = np.empty_like(logb)
    for c in range(q):
        np.take(state.edge_inc @ logb[:, c], state.pair_edges, out=hat[:, c], mode="clip")
    hat -= logb
    np.exp(hat, out=hat)
    hat *= state.c_in - state.c_out
    hat += state.c_out
    hat[hat.sum(axis=1) <= 0.0] = 1.0  # every label impossible: send a uniform message
    hat /= hat.sum(axis=1, keepdims=True)
    delta = _settle(hat, state.log_e2n, cfg.damping)
    log_hat = _log_probs(hat)

    # node -> hyperedge: each node's log-sum of incoming hats minus the sender's
    node_sum = np.empty((state.h.n, q), order="F")
    b = np.empty_like(log_hat)
    for c in range(q):
        node_sum[:, c] = state.node_inc @ log_hat[:, c]
        np.take(node_sum[:, c], state.pair_nodes, out=b[:, c], mode="clip")
    b -= log_hat
    b -= state.field
    delta = max(delta, _settle(_softmax_rows(b), state.log_n2e, cfg.damping))

    node_sum -= state.field
    state.marginal = _softmax_rows(node_sum)
    state.log_e2n = log_hat
    state.log_n2e = _log_probs(b)
    return delta


@dataclass(frozen=True)
class BpResult:
    partition: Partition
    marginals: np.ndarray
    sweeps: int
    converged: bool


def bp_run(h: Hypergraph, q, rates, config: BpConfig = None, planted: Partition = None) -> BpResult:
    """Iterate sweeps to convergence (or the sweep cap) and read off labels.

    Non-convergence is not an error: the best available marginals are
    returned with converged=False.  Ties in the argmax go to the lowest
    community index.
    """
    cfg = config or BpConfig()
    state = bp_init(h, q, rates, cfg, planted=planted)
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        delta = bp_sweep(state)
        if delta < cfg.tol:
            converged = True
            break
    labels = np.argmax(state.marginal, axis=1)
    return BpResult(Partition(labels, q), state.marginal.copy(), sweeps, converged)
