import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from math import factorial

import numpy as np
import pytest

from hyperbethe import (
    BpConfig,
    BpResult,
    Hypergraph,
    Partition,
    SymmetricHsbmSpec,
    ami,
    bp_init,
    bp_run,
    bp_sweep,
    external_field,
    hyperedge_message,
    sample_symmetric,
)
from hyperbethe import bp
from hyperbethe.bp import INIT_NOISE, BpError
from hyperbethe.hsbm import HsbmError

from conftest import edge_tuples, labels_match_up_to_permutation


def brute_force_message(c_in, c_out, incoming):
    """Full sum over all q^(order-1) assignments of the other members."""
    inc = np.asarray(incoming, dtype=float)
    q = inc.shape[1]
    out = np.zeros(q)
    for psi0 in range(q):
        total = 0.0
        for assign in itertools.product(range(q), repeat=inc.shape[0]):
            rate = c_in if all(a == psi0 for a in assign) else c_out
            weight = 1.0
            for row, a in zip(inc, assign):
                weight *= row[a]
            total += rate * weight
        out[psi0] = total
    return out


def plane_edges(state):
    """Hyperedge id of every message row, from the documented plane layout."""
    return np.concatenate([np.tile(state.h.edges_by_order[k], k) for k, _, _ in state.planes])


def reference_sweep(state):
    """One sweep written per incidence, from the state before the sweep.

    Every hyperedge-to-node message comes from hyperedge_message over the
    other members; every node-to-hyperedge message from an explicit per-node
    log-sum of incoming hats minus the sender's and the field.  Returns the
    hats, node messages, marginals, field and max change.
    """
    h, q, damp = state.h, state.q, state.config.damping
    field = external_field(state)
    b_old, hat_old = state.n2e.copy(), state.e2n.copy()
    edge_ids, nodes = plane_edges(state), state.nodes
    hat = np.empty_like(b_old)
    for e in range(h.m):
        rows = np.flatnonzero(edge_ids == e)
        for r in rows:
            hat[r] = hyperedge_message(state.c_in, state.c_out, b_old[rows[rows != r]])
    hat = (1 - damp) * hat + damp * hat_old
    hat /= hat.sum(axis=1, keepdims=True)
    log_hat = np.log(np.maximum(hat, np.exp(-700.0)))  # the floor keeps an underflowed hat finite
    node_sum = np.zeros((h.n, q))
    for r, i in enumerate(nodes):
        node_sum[i] += log_hat[r]
    b = np.exp(node_sum[nodes] - log_hat - field)
    b /= b.sum(axis=1, keepdims=True)
    b = (1 - damp) * b + damp * b_old
    b /= b.sum(axis=1, keepdims=True)
    marg = np.exp(node_sum - field)
    marg /= marg.sum(axis=1, keepdims=True)
    delta = max(np.abs(hat - hat_old).max(), np.abs(b - b_old).max())
    return hat, b, marg, field, delta


def planted_start(state, planted, smoothing=1e-3):
    """Restart state at the planted labels: marginal 1 - smoothing + smoothing / q on the label,
    smoothing / q elsewhere; every node message is its node's marginal, floored at exp(-700)."""
    state.marginal[:] = smoothing / state.q
    state.marginal[np.arange(state.h.n), planted.labels] += 1.0 - smoothing
    state.n2e[:] = np.maximum(state.marginal, np.exp(-700.0))[state.nodes]
    state.field = external_field(state)
    return state


def planted_run(h, q, rates, planted, config=None):
    """bp_run from planted_start: sweep until the change is below tol or the sweep cap."""
    state = planted_start(bp_init(h, q, rates, config), planted)
    converged = False
    for sweeps in range(1, state.config.max_sweeps + 1):
        if bp_sweep(state) < state.config.tol:
            converged = True
            break
    labels = np.argmax(state.marginal, axis=1)
    return BpResult(Partition(labels, q), state.marginal.copy(), sweeps, converged)


@pytest.fixture
def small_instance():
    spec = SymmetricHsbmSpec(n=400, q=2, orders=(2, 3), d=8.0, eps=0.1, seed=3)
    return spec, *sample_symmetric(spec)


class TestInit:
    def test_perturbed_deterministic(self, small_instance):
        spec, h, _ = small_instance
        s1 = bp_init(h, 2, spec.rates(), BpConfig(seed=4))
        s2 = bp_init(h, 2, spec.rates(), BpConfig(seed=4))
        assert np.array_equal(s1.n2e, s2.n2e)
        probs = s1.n2e
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(probs - 0.5).max() <= 2e-2

    @pytest.mark.parametrize("q", [2, 3, 9], ids=lambda q: f"{q}-perturbed")
    def test_start_matches_formula(self, q):
        # the start as a C-order formula over incidence_pairs(), moved row by row into plane order;
        # from q = 8 on, C- and Fortran-order row sums differ in the last bits
        spec = SymmetricHsbmSpec(n=300, q=q, orders=(2, 3, 4), d=8.0, eps=0.2, seed=q)
        h, _ = sample_symmetric(spec)
        edges = edge_tuples(h)
        h = Hypergraph(h.n, [edges[e] for e in np.random.default_rng(q).permutation(h.m)])  # orders interleaved
        edge_ids, nodes = h.incidence_pairs()
        rows = [np.flatnonzero(edge_ids == e) for e in range(h.m)]
        to_plane = [rows[e][j] for k in h.orders for j in range(k) for e in h.edges_by_order[k]]
        noise = np.random.default_rng(11).uniform(-INIT_NOISE, INIT_NOISE, size=(nodes.size, q))
        p = np.clip(1.0 / q + noise, 1e-12, None)
        expected = p / p.sum(axis=1, keepdims=True)
        state = bp_init(h, q, spec.rates(), BpConfig(seed=11))
        assert np.array_equal(state.nodes, nodes[to_plane])
        assert state.n2e.flags.f_contiguous and state.e2n.flags.f_contiguous
        assert state.n2e.tobytes(order="F") == expected[to_plane].tobytes(order="F")
        assert state.marginal.tobytes() == np.full((h.n, q), 1.0 / q).tobytes()
        assert np.array_equal(state.e2n, np.full((nodes.size, q), 1.0 / q))
        assert state.field.tobytes() == external_field(state).tobytes()

    @pytest.mark.parametrize(
        "rates", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf), (-1.0, 1.0), (1.0, -0.5), (0.0, 0.0)]
    )
    def test_invalid_rates_rejected(self, small_instance, rates):
        _, h, _ = small_instance
        with pytest.raises(HsbmError, match="rates"):
            bp_run(h, 2, rates)

    def test_zero_c_out_allowed(self, small_instance):
        _, h, planted = small_instance
        res = bp_run(h, 2, (8.0, 0.0), BpConfig(seed=1))
        assert np.isfinite(res.marginals).all()

    def test_no_hyperedges(self):
        with pytest.raises(BpError, match="no hyperedges"):
            bp_run(Hypergraph(5, []), 2, (4.0, 1.0))

    def test_q_lower_bound(self, small_instance):
        spec, h, _ = small_instance
        with pytest.raises(BpError):
            bp_init(h, 1, spec.rates(), BpConfig())

    def test_config_validation(self):
        with pytest.raises(BpError, match="max_sweeps"):
            BpConfig(max_sweeps=0)
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(BpError, match="convergence threshold"):
                BpConfig(tol=tol)
        with pytest.raises(BpError):
            BpConfig(damping=1.0)


class TestHyperedgeMessage:
    def test_uniform_incoming_pairwise_value(self):
        # order 2: unnormalized value (c_in + (q-1) c_out) / q for every label
        for q, c_in, c_out in [(2, 3.0, 1.0), (3, 5.0, 2.0)]:
            inc = np.full((1, q), 1.0 / q)
            raw = hyperedge_message(c_in, c_out, inc, normalize=False)
            assert np.allclose(raw, (c_in + (q - 1) * c_out) / q, rtol=1e-14)
            assert np.allclose(hyperedge_message(c_in, c_out, inc), 1.0 / q, rtol=1e-14)

    def test_uniform_incoming_general_order(self):
        q, c_in, c_out, k = 3, 4.0, 1.5, 5
        inc = np.full((k - 1, q), 1.0 / q)
        raw = hyperedge_message(c_in, c_out, inc, normalize=False)
        expected = (c_in + (q ** (k - 1) - 1) * c_out) / q ** (k - 1)
        assert np.allclose(raw, expected, rtol=1e-12)

    def test_hard_constraint_one_hot(self):
        inc = np.array([[1.0, 0.0], [1.0, 0.0]])
        msg = hyperedge_message(2.0, 0.0, inc)
        assert np.allclose(msg, [1.0, 0.0], atol=1e-15)

    def test_needs_an_incoming_message(self):
        with pytest.raises(BpError, match="at least one incoming message"):
            hyperedge_message(2.0, 1.0, np.zeros((0, 2)))

    def test_near_one_hot_keeps_the_product(self):
        # 1 - (1 - f) rounds to 0, so a recursion on (1 - b) loses the product f;
        # the exact value is proportional to (f, f^3), i.e. (1, 0) normalised
        f = np.exp(-700.0)
        inc = np.array([[1.0, f], [1.0, f], [1.0, f], [f, 1.0]])
        assert hyperedge_message(1.0, 0.0, inc).tolist() == [1.0, 0.0]

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(99)
        for k in range(2, 7):
            for q in (2, 3):
                inc = rng.random((k - 1, q))
                inc /= inc.sum(axis=1, keepdims=True)
                c_in, c_out = float(rng.uniform(0.5, 8)), float(rng.uniform(0.0, 4))
                dp = hyperedge_message(c_in, c_out, inc, normalize=False)
                bf = brute_force_message(c_in, c_out, inc)
                assert np.abs(dp - bf).max() <= 1e-12 * max(1.0, np.abs(bf).max())


class TestExternalField:
    def test_trivial_fixed_point_value(self, small_instance):
        spec, h, _ = small_instance
        c_in, c_out = spec.rates()
        state = bp_init(h, 2, (c_in, c_out))
        expected = sum(
            c_out + (c_in - c_out) / (2 ** (k - 1) * factorial(k - 1)) for k in h.orders
        )
        assert np.allclose(state.field, expected, rtol=1e-12)
        assert state.field[0] == state.field[1]

    def test_equal_rates_constant(self, small_instance):
        _, h, _ = small_instance
        state = bp_init(h, 2, (3.0, 3.0))
        assert np.allclose(state.field, len(h.orders) * 3.0, rtol=1e-12)

    def test_one_hot_marginals_dyadic(self):
        h = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        c_in, c_out = 5.0, 2.0
        state = bp_init(h, 2, (c_in, c_out))
        state.marginal = np.tile([1.0, 0.0], (4, 1))
        field = external_field(state)
        assert field[0] == pytest.approx(c_in, rel=1e-12)
        assert field[1] == pytest.approx(c_out, rel=1e-12)


class TestSweep:
    def test_trivial_fixed_point_preserved(self, small_instance):
        spec, h, _ = small_instance
        state = bp_init(h, 2, spec.rates())
        state.n2e.fill(0.5)
        for _ in range(3):
            assert bp_sweep(state) <= 1e-12

    def test_sweep_deterministic(self, small_instance):
        spec, h, _ = small_instance
        s1 = bp_init(h, 2, spec.rates(), BpConfig(seed=8))
        s2 = bp_init(h, 2, spec.rates(), BpConfig(seed=8))
        for _ in range(3):
            d1 = bp_sweep(s1)
            d2 = bp_sweep(s2)
            assert d1 == d2
        assert np.array_equal(s1.marginal, s2.marginal)

    def test_normalization_conserved(self, small_instance):
        spec, h, _ = small_instance
        state = bp_init(h, 2, spec.rates(), BpConfig(seed=1))
        for _ in range(5):
            bp_sweep(state)
        assert np.allclose(state.n2e.sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(state.e2n.sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(state.marginal.sum(axis=1), 1.0, atol=1e-10)

    def test_hard_constraints_converge_fast(self):
        spec = SymmetricHsbmSpec(n=200, q=2, orders=(2, 3), d=6.0, eps=0.0, seed=2)
        h, planted = sample_symmetric(spec)
        res = planted_run(h, 2, spec.rates(), planted, BpConfig(max_sweeps=3))
        # marginals are one-hot within 3 sweeps for every node that has edges
        top = res.marginals[np.arange(h.n), planted.labels]
        used = np.zeros(h.n, dtype=bool)
        for e in edge_tuples(h):
            used[list(e)] = True
        assert np.all(top[used] > 0.999)
        assert planted_run(h, 2, spec.rates(), planted).converged

    def test_hub_sums_stay_finite(self):
        # 1200 log(1/2) is below exp's range: without the per-node max shift the hub's messages are 0/0
        h = Hypergraph(1201, [(0, i) for i in range(1, 1201)])
        state = bp_init(h, 2, (4.0, 1.0))
        state.n2e.fill(0.5)
        assert bp_sweep(state) <= 1e-12
        assert np.all(state.n2e == 0.5) and np.all(state.marginal == 0.5)

    def test_node_messages_keep_the_floor(self):
        # hard constraints drive the losing labels' messages below exp(-700); they stop at the floor
        spec = SymmetricHsbmSpec(n=200, q=2, orders=(2, 3), d=6.0, eps=0.0, seed=2)
        h, planted = sample_symmetric(spec)
        state = planted_start(bp_init(h, 2, spec.rates()), planted, smoothing=0.0)
        for _ in range(3):
            bp_sweep(state)
        assert state.n2e.min() == np.exp(-700.0)

    def test_damping_keeps_fixed_point(self, small_instance):
        spec, h, _ = small_instance
        state = bp_init(h, 2, spec.rates(), BpConfig(damping=0.5))
        state.n2e.fill(0.5)
        assert bp_sweep(state) <= 1e-12


class TestPlaneLayout:
    @pytest.mark.parametrize(
        "n, edges",
        [
            (35, [tuple(np.random.default_rng(21).choice(30, size=k, replace=False)) for k in (2, 3, 4) for _ in range(12)]),
            (9, [(0, 1, 2), (3, 4), (1, 2, 3, 4), (0, 4), (2, 3, 4), (5, 0), (4, 5)]),  # nodes 6-8 isolated
            (4, [(3, 2), (0, 1, 2, 3)]),
        ],
    )
    def test_matches_edge_tuples(self, n, edges):
        h = Hypergraph(n, edges)
        state = bp_init(h, 2, (4.0, 1.0))
        assert [k for k, _, _ in state.planes] == list(h.orders)
        start = 0
        for k, lo, hi in state.planes:
            ids = h.edges_by_order[k]
            assert lo == start and hi == lo + k * ids.size
            for t, e in enumerate(ids):
                assert [state.nodes[lo + j * ids.size + t] for j in range(k)] == sorted(set(edges[e]))
            start = hi
        assert start == state.num_messages == sum(map(len, edges))


class TestKernelReference:
    @staticmethod
    def mixed_order():
        # orders 2, 3 and 4 among nodes 0..29; nodes 30..34 are isolated
        rng = np.random.default_rng(21)
        edges = [
            tuple(rng.choice(30, size=k, replace=False)) for k in (2, 3, 4) for _ in range(12)
        ]
        return Hypergraph(35, edges), 3, (6.0, 1.5)

    @staticmethod
    def order_ten():
        rng = np.random.default_rng(22)
        edges = [tuple(rng.choice(40, size=10, replace=False)) for _ in range(15)]
        return Hypergraph(40, edges), 2, (9.0, 2.0)

    @staticmethod
    def interleaved_orders():
        # input order 2, 4, 3, 2, 5, 2, 4, 3, 2, 5, ...: each plane gathers rows from all over the input
        rng = np.random.default_rng(23)
        sizes = itertools.islice(itertools.cycle((2, 4, 3, 2, 5)), 40)
        return Hypergraph(32, [tuple(rng.choice(30, size=k, replace=False)) for k in sizes]), 3, (6.0, 1.5)

    def check_sweeps(self, h, q, rates, damping, state=None):
        if state is None:
            state = bp_init(h, q, rates, BpConfig(seed=7, damping=damping))
        for _ in range(2):
            hat, b, marg, field, delta = reference_sweep(state)
            got = bp_sweep(state)
            assert np.abs(state.e2n - hat).max() <= 1e-12
            assert np.abs(state.n2e - b).max() <= 1e-12
            assert np.abs(state.marginal - marg).max() <= 1e-12
            assert np.abs(state.field - field).max() <= 1e-12
            assert got == pytest.approx(delta, abs=1e-12)
        return state

    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_mixed_order_with_isolated_nodes(self, damping):
        h, q, rates = self.mixed_order()
        state = self.check_sweeps(h, q, rates, damping)
        isolated = np.flatnonzero(h.node_degrees() == 0)
        assert {30, 31, 32, 33, 34} <= set(isolated.tolist())
        expected = np.exp(-state.field) / np.exp(-state.field).sum()
        assert np.abs(state.marginal[isolated] - expected).max() <= 1e-12

    def test_single_order_ten(self):
        h, q, rates = self.order_ten()
        assert h.orders == (10,)
        self.check_sweeps(h, q, rates, 0.0)

    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_interleaved_orders(self, damping):
        h, q, rates = self.interleaved_orders()
        assert h.orders == (2, 3, 4, 5)
        self.check_sweeps(h, q, rates, damping)

    def test_zero_hat_row_sends_uniform(self):
        # c_out = 0 and one-hot starts: on the order-6 edge every label's product holds at least
        # two floored factors, exp(-1400) underflows to 0, and each member gets a uniform message
        h = Hypergraph(8, [(0, 1, 2, 3, 4, 5), (0, 6), (3, 7)])
        planted = Partition(np.array([0, 0, 0, 1, 1, 1, 0, 1]), 2)
        state = planted_start(bp_init(h, 2, (5.0, 0.0)), planted, smoothing=0.0)
        k, lo, hi = state.planes[-1]
        assert k == 6
        self.check_sweeps(h, 2, (5.0, 0.0), 0.0, state)
        state = planted_start(bp_init(h, 2, (5.0, 0.0)), planted, smoothing=0.0)
        bp_sweep(state)
        assert np.all(state.e2n[lo:hi] == 0.5)
        assert np.all(state.e2n[:lo].max(axis=1) > 0.99)


class TestEdgeOrder:
    def test_shuffled_edges_same_result(self):
        spec = SymmetricHsbmSpec(n=1500, q=3, orders=(2, 3, 4), d=10.0, eps=0.15, seed=4)
        h, planted = sample_symmetric(spec)
        edges = edge_tuples(h)
        shuffled = Hypergraph(h.n, [edges[e] for e in np.random.default_rng(5).permutation(h.m)])
        a = planted_run(h, 3, spec.rates(), planted)
        b = planted_run(shuffled, 3, spec.rates(), planted)
        assert a.converged and a.sweeps > 2
        assert np.array_equal(a.partition.labels, b.partition.labels) and a.sweeps == b.sweeps
        assert np.abs(a.marginals - b.marginals).max() <= 1e-12


class TestRun:
    def test_detectable_recovers_labels(self, small_instance):
        spec, h, planted = small_instance
        res = bp_run(h, 2, spec.rates(), BpConfig(seed=5))
        assert res.converged
        assert ami(res.partition, planted) > 0.8

    def test_undetectable_returns_noise(self):
        spec = SymmetricHsbmSpec(n=1000, q=2, orders=(2, 3), d=10.0, eps=0.95, seed=6)
        h, planted = sample_symmetric(spec)
        scores = [
            ami(bp_run(h, 2, spec.rates(), BpConfig(seed=s)).partition, planted)
            for s in range(5)
        ]
        assert np.mean(scores) <= 0.01

    def test_strong_structure_high_ami(self):
        spec = SymmetricHsbmSpec(n=1000, q=2, orders=(2, 3), d=10.0, eps=0.05, seed=7)
        h, planted = sample_symmetric(spec)
        res = bp_run(h, 2, spec.rates(), BpConfig(seed=1))
        assert ami(res.partition, planted) >= 0.95

    def test_label_permutation_equivariance(self, small_instance):
        # flipping the planted labels flips the output columns identically
        spec, h, planted = small_instance
        cfg = BpConfig(max_sweeps=10)
        res = planted_run(h, 2, spec.rates(), planted, cfg)
        flipped = type(planted)(1 - planted.labels, 2)
        res_flipped = planted_run(h, 2, spec.rates(), flipped, cfg)
        assert np.allclose(res.marginals, res_flipped.marginals[:, ::-1], atol=1e-9)
        assert labels_match_up_to_permutation(
            res.partition.labels, res_flipped.partition.labels, 2
        )

    def test_non_finite_change_raises(self, small_instance):
        spec, h, _ = small_instance
        state = bp_init(h, 2, spec.rates())
        state.n2e[0, 0] = np.nan
        with pytest.raises(BpError, match="non-finite"):
            bp_sweep(state)

    def test_argmax_tie_breaks_low(self):
        marg = np.array([[0.5, 0.5], [0.2, 0.8]])
        assert list(np.argmax(marg, axis=1)) == [0, 1]


class TestBlasThreads:
    def test_bp_identical_across_thread_counts(self, tmp_path):
        # the thread counts are set in the children only
        child = textwrap.dedent(
            """
            import sys
            import numpy as np
            from hyperbethe import BpConfig, SymmetricHsbmSpec, bp_run, sample_symmetric
            spec = SymmetricHsbmSpec(n=3000, q=3, orders=(2, 3), d=10.0, eps=0.1, seed=0)
            r = bp_run(sample_symmetric(spec)[0], 3, spec.rates(), BpConfig(seed=0))
            np.savez(sys.argv[1], marginals=r.marginals, labels=r.partition.labels,
                     sweeps=r.sweeps, converged=r.converged)
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(bp.__file__)))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", child, str(out)], env=env, check=True, timeout=300)
            runs.append(np.load(out))
        one, two = runs
        for key in ("marginals", "labels", "sweeps", "converged"):
            assert one[key].tobytes() == two[key].tobytes(), key
        assert bool(one["converged"])


class TestPinnedSweepBytes:
    # sha256 of e2n, n2e and marginal (C-order bytes) and of the deltas after 40 sweeps: a change to
    # the kernel's buffers must keep every operand and its order, so these bits never move
    HSBM = {
        (2, (2, 3), 0.0, 0.3): "21f15237577dc175a4a2e7d6a9d956567a12cb901359f0f218c2b24555987a5c",
        (3, (2, 3, 4), 0.5, 0.4): "4d025af6f57805b918a76ef0c833642a5ccbbba91831424396e5cfc6970ee771",
        (9, (2, 5), 0.0, 0.5): "479e523605e11c1a4fb59fa49bab0dd23050d45f8ba3b0aeb545a207b6edf007",
        (10, (3, 10), 0.3, 0.2): "56e801fab1cd65a438d2c0d506402128c3af2a5b24cd62ae272028a2248f5f67",
        (8, (2,), 0.0, 0.6): "c1d548833a3fc01493dfc9ebb9b996d62e12fe879d8830a3b59c74ea06e6c388",
    }

    @staticmethod
    def digest(state):
        deltas = np.array([bp_sweep(state) for _ in range(40)])
        return hashlib.sha256(b"".join(a.tobytes() for a in (state.e2n, state.n2e, state.marginal, deltas))).hexdigest()

    @pytest.mark.parametrize("q, orders, damping, eps", list(HSBM))
    def test_hsbm_instance(self, q, orders, damping, eps, parts=1):
        spec = SymmetricHsbmSpec(n=2000, q=q, orders=orders, d=12.0, eps=eps, seed=1)
        h, _ = sample_symmetric(spec)
        state = bp_init(h, q, spec.rates(), BpConfig(seed=3, damping=damping))
        assert len(bp._parts(state)) == parts
        assert self.digest(state) == self.HSBM[q, orders, damping, eps]

    @pytest.mark.parametrize("q, orders, damping, eps", list(HSBM))
    def test_hsbm_instance_two_parts(self, q, orders, damping, eps, two_parts):
        self.test_hsbm_instance(q, orders, damping, eps, parts=2)

    def test_zero_hat_instance(self, parts=1):
        # the instance of TestKernelReference.test_zero_hat_row_sends_uniform
        h = Hypergraph(8, [(0, 1, 2, 3, 4, 5), (0, 6), (3, 7)])
        planted = Partition(np.array([0, 0, 0, 1, 1, 1, 0, 1]), 2)
        state = planted_start(bp_init(h, 2, (5.0, 0.0), BpConfig(seed=3)), planted, smoothing=0.0)
        assert len(bp._parts(state)) == parts
        assert self.digest(state) == "aaa46e19dca766e25436bd85b8a885b778083ca8ec4b907c61e922d6dba51d2e"

    def test_zero_hat_instance_two_parts(self, two_parts):
        self.test_zero_hat_instance(parts=2)


class TestSweepAllocations:
    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_sweep_allocates_under_one_column(self, damping, parts=1):
        spec = SymmetricHsbmSpec(n=3000, q=3, orders=(2, 3), d=10.0, eps=0.1, seed=0)
        h, _ = sample_symmetric(spec)
        state = bp_init(h, 3, spec.rates(), BpConfig(damping=damping))
        assert len(bp._parts(state)) == parts
        shape = (state.num_messages, 3)
        buffers = {}

        def collect():
            for a in vars(state).values():
                if isinstance(a, np.ndarray) and a.shape == shape and a.dtype == np.float64:
                    buffers[id(a)] = a  # held, so no id is reused

        collect()
        for _ in range(2):
            bp_sweep(state)
            collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bp_sweep(state)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        collect()
        assert peak < 8 * state.num_messages  # one float64 column
        assert len(buffers) == 3

    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_sweep_allocates_under_one_column_two_parts(self, damping, two_parts):
        self.test_sweep_allocates_under_one_column(damping, parts=2)


class TestTwoParts:
    @staticmethod
    def instance(q):
        spec = SymmetricHsbmSpec(n=3000, q=q, orders=(2, 3), d=12.0, eps=0.2, seed=2)
        return sample_symmetric(spec)[0], spec.rates()

    @pytest.mark.parametrize("q", [3, 9])
    def test_run_matches_one_part(self, q, monkeypatch):
        h, rates = self.instance(q)
        runs = []
        monkeypatch.setattr(bp, "_cpus", lambda: 2)
        for cutoff in (1 << 62, 0):
            monkeypatch.setattr(bp, "_SPLIT_CUTOFF", cutoff)
            runs.append(bp_run(h, q, rates, BpConfig(seed=4, max_sweeps=60)))
        one, two = runs
        assert one.marginals.tobytes() == two.marginals.tobytes()
        assert one.partition.labels.tobytes() == two.partition.labels.tobytes()
        assert (one.sweeps, one.converged) == (two.sweeps, two.converged)

    def test_run_sweeps_through_module_bp_sweep(self, monkeypatch, parts=1):
        # perfbench's tracer times each sweep by wrapping bp.bp_sweep
        h, rates = self.instance(3)
        sweep, calls = bp.bp_sweep, []

        def counted(state):
            calls.append(len(bp._parts(state)))
            return sweep(state)

        monkeypatch.setattr(bp, "bp_sweep", counted)
        result = bp_run(h, 3, rates, BpConfig(seed=4, max_sweeps=60))
        assert result.sweeps > 1 and calls == [parts] * result.sweeps

    def test_run_sweeps_through_module_bp_sweep_two_parts(self, monkeypatch, two_parts):
        self.test_run_sweeps_through_module_bp_sweep(monkeypatch, parts=2)

    def test_no_thread_outlives_run(self, two_parts):
        h, rates = self.instance(3)
        before = threading.active_count()
        bp_run(h, 3, rates, BpConfig(max_sweeps=5))
        assert threading.active_count() == before

    def test_no_thread_outlives_raise(self, two_parts, monkeypatch):
        # a NaN in the last row, which the worker's half owns
        h, rates = self.instance(3)
        init = bp.bp_init

        def nan_start(*args):
            state = init(*args)
            state.n2e[-1, 0] = np.nan
            assert bp._parts(state)[-1].rows.stop == state.num_messages
            return state

        monkeypatch.setattr(bp, "bp_init", nan_start)
        before = threading.active_count()
        with pytest.raises(BpError, match="non-finite"):
            bp_run(h, 3, rates)
        assert threading.active_count() == before

    def test_worker_error_reaches_the_caller(self, two_parts):
        h, rates = self.instance(3)
        state = bp_init(h, 3, rates)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError):
            with bp._each_part(bp._parts(state)) as each:
                each(lambda part: 1 / (state.num_messages - part.rows.stop))  # raises in the last part only
        assert threading.active_count() == before

    def test_concurrent_runs_keep_their_bytes(self, monkeypatch):
        # two runs at once on two parts each, four threads in all,
        # with the interpreter switching threads as often as it can
        h, rates = self.instance(3)
        cfg = BpConfig(seed=4, max_sweeps=30)
        want = bp_run(h, 3, rates, cfg).marginals.tobytes()
        monkeypatch.setattr(bp, "_SPLIT_CUTOFF", 0)
        monkeypatch.setattr(bp, "_cpus", lambda: 2)
        got = [None, None]

        def run(i):
            got[i] = bp_run(h, 3, rates, cfg).marginals.tobytes()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want, want]

    def test_one_cpu_keeps_one_part(self, monkeypatch):
        h, rates = self.instance(3)
        state = bp_init(h, 3, rates)
        monkeypatch.setattr(bp, "_SPLIT_CUTOFF", 0)
        monkeypatch.setattr(bp.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert len(bp._parts(state)) == 1
        before = threading.active_count()
        with bp._each_part(bp._parts(state)) as each:
            assert each(lambda part: part.rows) == [slice(0, state.num_messages)]
            assert threading.active_count() == before
