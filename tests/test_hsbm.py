from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy import stats as scistats

from hyperbethe import (
    PlantedPattern,
    PlantedPatternSpec,
    SymmetricHsbmSpec,
    degrees_from_rates,
    order_experiment_spec,
    rates_from_mean_degree,
    sample_symmetric,
    shape_experiment_spec,
    spec_from_json,
)
from hyperbethe import hsbm
from hyperbethe.hsbm import HsbmError, expected_order_counts

from conftest import edge_tuples


class TestRateResolution:
    def test_eps_zero(self):
        c_in, c_out = rates_from_mean_degree(2, (2, 3), 10.0, 0.0)
        assert c_out == 0.0 and c_in > 0

    def test_eps_one_symmetry(self):
        c_in, c_out = rates_from_mean_degree(3, (2, 4), 7.0, 1.0)
        assert c_in == pytest.approx(c_out)

    def test_round_trip_degree(self):
        for q, orders, d, eps in [(2, (3,), 10.0, 0.3), (3, (2, 3), 10.0, 0.2), (4, (2, 3, 5), 6.0, 0.7)]:
            c_in, c_out = rates_from_mean_degree(q, orders, d, eps)
            per_order = degrees_from_rates(q, orders, c_in, c_out)
            total = sum(od.d for od in per_order.values())
            assert total == pytest.approx(d, rel=1e-12)

    def test_against_bisection_oracle(self):
        # independent root-find on the same degree map, ratio held fixed
        q, orders, d, eps = 3, (2, 3), 10.0, 0.2

        def mean_degree_of(c_in):
            per = degrees_from_rates(q, orders, c_in, eps * c_in)
            return sum(od.d for od in per.values())

        lo, hi = 0.0, 1.0
        while mean_degree_of(hi) < d:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mean_degree_of(mid) < d:
                lo = mid
            else:
                hi = mid
        c_in_bisect = 0.5 * (lo + hi)
        c_in, c_out = rates_from_mean_degree(q, orders, d, eps)
        assert c_in == pytest.approx(c_in_bisect, abs=1e-9)
        assert c_out == pytest.approx(eps * c_in_bisect, abs=1e-9)

    def test_empty_orders_error(self):
        with pytest.raises(HsbmError):
            rates_from_mean_degree(2, (), 10.0, 0.5)


class TestSpecValidation:
    def test_mode_exclusivity(self):
        with pytest.raises(HsbmError):
            SymmetricHsbmSpec(n=100, q=2, orders=(2,), c_in=5.0, c_out=1.0, d=10.0, eps=0.1)
        with pytest.raises(HsbmError):
            SymmetricHsbmSpec(n=100, q=2, orders=(2,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters(self, bad):
        for params in ({"c_in": bad, "c_out": 1.0}, {"c_in": 5.0, "c_out": bad}, {"d": bad, "eps": 0.1}):
            with pytest.raises(HsbmError, match="finite"):
                SymmetricHsbmSpec(n=100, q=2, orders=(2,), **params)
        with pytest.raises(HsbmError, match="finite"):
            PlantedPattern(2, ((0, 1), (1, 1)), bad)

    def test_order_vs_block_size(self):
        with pytest.raises(HsbmError):
            SymmetricHsbmSpec(n=10, q=2, orders=(6,), d=3.0, eps=0.1)

    def test_shape_experiment_orders(self):
        with pytest.raises(HsbmError, match="orders 4 and 5"):
            shape_experiment_spec(400, 10.0, 1.0, order=6)

    def test_pattern_composition_sums(self):
        with pytest.raises(HsbmError):
            PlantedPattern(4, ((0, 2), (1, 1)), 1.0)

    def test_json_loading(self):
        spec = spec_from_json('{"n": 100, "q": 2, "orders": [2, 3], "d": 5, "eps": 0.1, "seed": 3}')
        assert isinstance(spec, SymmetricHsbmSpec) and spec.seed == 3
        spec = spec_from_json({"n": 100, "q": 2, "orders": [2], "c_in": 5, "c_out": 1})
        assert spec.rates() == (5.0, 1.0) and spec.d is None and spec.seed == 0
        spec = spec_from_json(
            {"n": 100, "q": 4,
             "patterns": [{"order": 4, "composition": {"0": 2, "1": 2}, "rate": 8.0}]}
        )
        assert isinstance(spec, PlantedPatternSpec)
        assert spec.patterns[0].composition == ((0, 2), (1, 2))


class TestSymmetricSampler:
    def test_determinism(self):
        spec = SymmetricHsbmSpec(n=400, q=2, orders=(2, 3), d=8.0, eps=0.3, seed=9)
        h1, p1 = sample_symmetric(spec)
        h2, p2 = sample_symmetric(spec)
        assert sorted(edge_tuples(h1)) == sorted(edge_tuples(h2))
        assert np.array_equal(p1.labels, p2.labels)

    def test_eps_zero_purity(self):
        spec = SymmetricHsbmSpec(n=300, q=3, orders=(2, 3), d=6.0, eps=0.0, seed=1)
        h, planted = sample_symmetric(spec)
        for e in edge_tuples(h):
            assert len(set(planted.labels[list(e)])) == 1

    def test_order_counts_within_3_sigma(self):
        spec = SymmetricHsbmSpec(n=10_000, q=2, orders=(2, 3), d=10.0, eps=0.3, seed=11)
        h, _ = sample_symmetric(spec)
        c_in, c_out = spec.rates()
        per_order = degrees_from_rates(2, (2, 3), c_in, c_out)
        exact_means = expected_order_counts(spec)
        for k in (2, 3):
            target = spec.n * per_order[k].d / k
            sigma = np.sqrt(exact_means[k])
            assert abs(h.order_counts()[k] - target) <= 3 * sigma

    def test_mean_degree_near_target(self):
        # average over a few seeds; tight at n = 10000
        means = []
        for seed in range(5):
            spec = SymmetricHsbmSpec(n=10_000, q=2, orders=(2, 3), d=10.0, eps=0.4, seed=seed)
            h, _ = sample_symmetric(spec)
            means.append(h.degree_stats().mean)
        assert np.mean(means) == pytest.approx(10.0, rel=0.02)

    def test_unequal_blocks_allowed(self):
        spec = SymmetricHsbmSpec(n=101, q=2, orders=(2,), d=4.0, eps=0.5, seed=0)
        h, planted = sample_symmetric(spec)
        sizes = np.bincount(planted.labels)
        assert abs(sizes[0] - sizes[1]) <= 1

    def test_block_degree_histograms_match_under_permutation(self):
        # relabeling communities leaves per-block degree statistics in place
        spec = SymmetricHsbmSpec(n=2000, q=2, orders=(2, 3), d=8.0, eps=0.5, seed=21)
        h, planted = sample_symmetric(spec)
        deg = h.node_degrees()
        hist = [np.bincount(deg[planted.labels == b], minlength=30)[:30] for b in range(2)]
        perm_labels = 1 - planted.labels  # swap the two communities
        hist_perm = [np.bincount(deg[perm_labels == b], minlength=30)[:30] for b in range(2)]
        assert np.array_equal(hist[0], hist_perm[1])
        assert np.array_equal(hist[1], hist_perm[0])

    def test_blocks_indistinguishable_at_eps_one(self):
        spec = SymmetricHsbmSpec(n=10_000, q=2, orders=(2, 3), d=8.0, eps=1.0, seed=5)
        h, planted = sample_symmetric(spec)
        deg = h.node_degrees()
        bins = np.quantile(deg, np.linspace(0, 1, 8)[1:-1])
        table = np.array([
            np.bincount(np.digitize(deg[planted.labels == b], bins), minlength=7)
            for b in range(2)
        ])
        _, p_value, _, _ = scistats.chi2_contingency(table)
        assert p_value > 0.01

    def test_dense_cells_draw_distinct_nodes_of_their_blocks(self, monkeypatch):
        # block size 5: the {0: 3} and {1: 3} cells draw 3 of 5 nodes per row, the per-row permutation path
        rows, draw = [], hsbm._distinct_rows

        def recording(rng, lo, hi, c, m):
            out = draw(rng, lo, hi, c, m)
            rows.append((lo, hi, c, out))
            return out

        monkeypatch.setattr(hsbm, "_distinct_rows", recording)
        spec = SymmetricHsbmSpec(n=10, q=2, orders=(2, 3), d=10.0, eps=0.2, seed=1)
        h, _ = sample_symmetric(spec)
        assert {(lo, c) for lo, hi, c, out in rows if 2 * c > hi - lo and len(out)} == {(0, 3), (5, 3)}
        for lo, hi, c, out in rows:
            assert out.shape[1] == c and ((out >= lo) & (out < hi)).all()
            assert all(len(set(row)) == c for row in out.tolist())
        # a repeated node would lower its hyperedge's order and lose an incidence
        assert sum(out.size for *_, out in rows) == sum(k * m for k, m in h.order_counts().items())
        again, _ = sample_symmetric(spec)
        for k in h.orders:
            assert h.edge_array(k).tobytes() == again.edge_array(k).tobytes()

    def test_oversized_order_at_sampling(self):
        spec = PlantedPatternSpec(10, 2, (PlantedPattern(6, ((0, 6),), 5.0),))
        with pytest.raises(HsbmError):
            sample_symmetric(spec)


class TestOneSampler:
    def test_either_name_takes_either_spec(self):
        sym = SymmetricHsbmSpec(n=300, q=3, orders=(2, 3), d=6.0, eps=0.2, seed=4)
        c_in, c_out = sym.rates()
        # the symmetric spec's cells written out as patterns, in its cell order
        cells = []
        for k in (2, 3):
            for comp in combinations_with_replacement(range(3), k):
                counts = tuple((b, comp.count(b)) for b in sorted(set(comp)))
                cells.append(PlantedPattern(k, counts, c_in if len(counts) == 1 else c_out))
        pat = PlantedPatternSpec(300, 3, tuple(cells), seed=4)
        draws = [sample_symmetric(sym), sample_symmetric(pat)]
        for h, planted in draws:
            assert edge_tuples(h) == edge_tuples(draws[0][0]) and h.m > 0
            assert {k: v.tolist() for k, v in h.edges_by_order.items()} == {
                k: v.tolist() for k, v in draws[0][0].edges_by_order.items()}
            assert np.array_equal(planted.labels, draws[0][1].labels) and planted.q == 3


class TestPlantedSampler:
    def test_balanced_pattern_composition(self):
        spec = PlantedPatternSpec(
            400, 2, (PlantedPattern(4, ((0, 2), (1, 2)), 200.0),), seed=3
        )
        h, planted = sample_symmetric(spec)
        assert h.m > 0
        for e in edge_tuples(h):
            counts = np.bincount(planted.labels[list(e)], minlength=2)
            assert list(counts) == [2, 2]

    def test_shape4_ratio_tracks_rho(self):
        rho = 1.4
        spec = shape_experiment_spec(4000, 10.0, rho, order=4, seed=7)
        h, planted = sample_symmetric(spec)
        balanced = imbalanced = 0
        for e in edge_tuples(h):
            counts = np.bincount(planted.labels[list(e)], minlength=4)
            if max(counts) == 2:
                balanced += 1
            else:
                imbalanced += 1
        expected_bal = 4000 * 10.0 / (4 * (rho + 1.0))
        sigma = np.sqrt(expected_bal * (1 + rho))
        assert abs(imbalanced - rho * balanced) <= 3 * sigma * max(1.0, rho)

    def test_order_spec_counts(self):
        rho = 2.0
        spec = order_experiment_spec(4000, 10.0, rho, 2, 3, seed=13)
        h, _ = sample_symmetric(spec)
        counts = h.order_counts()
        expected = expected_order_counts(spec)
        for k in (2, 3):
            assert abs(counts[k] - expected[k]) <= 3 * np.sqrt(expected[k])
        # rho is the low/high count ratio by construction
        assert expected[2] / expected[3] == pytest.approx(rho, rel=0.01)

    def test_shape5_mean_degree(self):
        spec = shape_experiment_spec(4000, 10.0, 1.5, order=5, seed=2)
        h, _ = sample_symmetric(spec)
        assert h.degree_stats().mean == pytest.approx(10.0, rel=0.05)
