import math

import numpy as np
import pytest

from hyperbethe import (
    SymmetricHsbmSpec,
    coarse_snr,
    competing_snrs,
    critical_epsilon,
    degrees_from_rates,
    pair_rate_matrix,
    rates_from_mean_degree,
    sample_symmetric,
    snr_bh,
    snr_bp,
    snr_report,
    switching_rho,
    uniform_critical_epsilon,
)
from hyperbethe.detectability import (
    DetectabilityError,
    MERGE_01_23,
    MERGE_02_13,
    order_degree_from_pair_rates,
    symmetric_pair_rates,
)
from hyperbethe.hsbm import order_experiment_spec, shape_experiment_spec


class TestDegreesFromRates:
    def test_pairwise_substitution(self):
        per = degrees_from_rates(2, (2,), 6.0, 2.0)
        assert per[2].d_in == pytest.approx(3.0)
        assert per[2].d_out == pytest.approx(1.0)

    def test_equal_rates_equal_degrees(self):
        per = degrees_from_rates(3, (2, 3, 4), 5.0, 5.0)
        for od in per.values():
            assert od.d_in == pytest.approx(od.d_out)

    def test_q3_k3_arithmetic(self):
        per = degrees_from_rates(3, (3,), 18.0, 0.0)
        assert per[3].d_in == pytest.approx(1.0)

    def test_degree_composition_identity(self):
        per = degrees_from_rates(3, (2, 3), 7.0, 2.0)
        for k, od in per.items():
            assert od.d == pytest.approx(od.d_in + (3 ** (k - 1) - 1) * od.d_out)


class TestSnrBh:
    def test_dyadic_closed_form(self):
        # single order 2: reduces to (c_in - c_out)^2 / (q^2 d)
        for q, c_in, c_out in [(2, 8.0, 2.0), (3, 9.0, 3.0), (4, 5.0, 1.0)]:
            per = degrees_from_rates(q, (2,), c_in, c_out)
            d = per[2].d
            assert snr_bh(per) == pytest.approx((c_in - c_out) ** 2 / (q**2 * d), rel=1e-12)

    def test_zero_at_equal_rates(self):
        per = degrees_from_rates(3, (2, 3), 4.0, 4.0)
        assert snr_bh(per) == 0.0

    def test_uniform_consistency_chain(self):
        # matches the single-order threshold form ((k-1)(din-dout))^2 / ((k-1) d)
        for q, k, c_in, c_out in [(2, 3, 20.0, 4.0), (3, 4, 30.0, 2.0)]:
            per = degrees_from_rates(q, (k,), c_in, c_out)
            od = per[k]
            expected = ((k - 1) * (od.d_in - od.d_out)) ** 2 / ((k - 1) * od.d)
            assert snr_bh(per) == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_degree_estimates(self):
        # empirical din/dout at modest size agree with the closed forms
        q, orders, d, eps = 3, (2, 3), 10.0, 0.2
        spec = SymmetricHsbmSpec(n=10_000, q=q, orders=orders, d=d, eps=eps, seed=17)
        h, planted = sample_symmetric(spec)
        per = degrees_from_rates(q, orders, *spec.rates())
        for k in orders:
            n_in = 0
            for idx in h.edges_by_order[k]:
                e = h.edges[idx]
                if len(set(planted.labels[list(e)])) == 1:
                    n_in += k
            din_hat = n_in / h.n
            sigma = math.sqrt(per[k].d_in * k / h.n)
            assert abs(din_hat - per[k].d_in) <= 3 * sigma + 1e-9


class TestSnrBp:
    def test_uniform_equals_spectral(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            q = int(rng.integers(2, 6))
            k = int(rng.integers(2, 7))
            d = float(rng.uniform(0.5, 12.0))
            eps = float(rng.uniform(0.0, 1.0))
            c_in, c_out = rates_from_mean_degree(q, (k,), d, eps)
            per = degrees_from_rates(q, (k,), c_in, c_out)
            assert abs(snr_bp(per) - snr_bh(per)) <= 1e-12

    def test_zero_at_equal_rates(self):
        per = degrees_from_rates(2, (2, 3), 3.0, 3.0)
        assert snr_bp(per) == 0.0

    def test_zero_factor_annihilates(self):
        per = {2: degrees_from_rates(2, (2,), 4.0, 4.0)[2],
               3: degrees_from_rates(2, (3,), 9.0, 1.0)[3]}
        assert snr_bp(per) == 0.0

    def test_disassortative_rejected(self):
        per = degrees_from_rates(2, (2, 3), 2.0, 5.0)
        with pytest.raises(DetectabilityError, match="disassortative"):
            snr_bp(per)

    def test_nonuniform_bp_root_exceeds_spectral_root(self):
        e_bh = critical_epsilon(3, (2, 3), 10.0, which="bh")
        e_bp = critical_epsilon(3, (2, 3), 10.0, which="bp")
        assert e_bp > e_bh

    def test_monotone_decreasing_in_eps(self):
        for which in ("bh", "bp"):
            values = []
            for eps in np.linspace(0.0, 0.9, 15):
                c_in, c_out = rates_from_mean_degree(3, (2, 4), 8.0, float(eps))
                per = degrees_from_rates(3, (2, 4), c_in, c_out)
                values.append(snr_bh(per) if which == "bh" else snr_bp(per))
            assert all(a > b for a, b in zip(values, values[1:]))


class TestCriticalEpsilon:
    def test_uniform_closed_form_k3(self):
        root = critical_epsilon(2, (3,), 10.0, which="bh")
        closed = uniform_critical_epsilon(2, 3, 10.0)
        assert root == pytest.approx(closed, abs=1e-9)
        assert closed == pytest.approx((math.sqrt(20) - 1) / (math.sqrt(20) + 3), rel=1e-15)
        assert abs(closed - 0.465) < 1e-3

    def test_uniform_closed_form_k2(self):
        closed = uniform_critical_epsilon(2, 2, 10.0)
        assert closed == pytest.approx((math.sqrt(10) - 1) / (math.sqrt(10) + 1), rel=1e-15)
        assert critical_epsilon(2, (2,), 10.0) == pytest.approx(closed, abs=1e-9)

    def test_root_hits_unity(self):
        root = critical_epsilon(3, (2, 3), 10.0, which="bp")
        c_in, c_out = rates_from_mean_degree(3, (2, 3), 10.0, root)
        per = degrees_from_rates(3, (2, 3), c_in, c_out)
        assert snr_bp(per) == pytest.approx(1.0, abs=1e-9)

    def test_undetectable_errors(self):
        with pytest.raises(DetectabilityError):
            critical_epsilon(2, (2,), 0.5, which="bh")

    def test_roots_are_pinned(self):
        # eps_mid = (eps_BH* + eps_BP*) / 2 is a grid point of the eps sweep; its outputs depend on these bits
        assert critical_epsilon(3, (2, 3), 10.0, "bh") == 0.3634268496243749
        assert critical_epsilon(3, (2, 3), 10.0, "bp") == 0.3905897895456292
        assert switching_rho("order", low_order=2, high_order=3, adjusted=True) == 1.9282032302755092


class TestPairRates:
    def test_symmetric_reduction(self):
        q, c_in, c_out = 3, 12.0, 3.0
        spec = SymmetricHsbmSpec(n=300, q=q, orders=(3, 4), c_in=c_in, c_out=c_out)
        mats = pair_rate_matrix(spec)
        per = degrees_from_rates(q, (3, 4), c_in, c_out)
        for k in (3, 4):
            cin_k, cout_k = symmetric_pair_rates(q, k, c_in, c_out)
            assert mats[k][0, 0] == pytest.approx(cin_k, rel=1e-12)
            assert mats[k][0, 1] == pytest.approx(cout_k, rel=1e-12)
            # diagonal value identity in terms of per-order degrees
            od = per[k]
            assert cin_k == pytest.approx(
                q * (k - 1) * (od.d_in + (q ** (k - 2) - 1) * od.d_out), rel=1e-12
            )
            assert cout_k == pytest.approx(q * (k - 1) * q ** (k - 2) * od.d_out, rel=1e-12)
            # row average recovers the per-order mean degree
            assert order_degree_from_pair_rates(mats[k], k) == pytest.approx(od.d, rel=1e-12)

    def test_order_23_worked_matrices(self):
        # low order 2 at rate a between {0,2}/{1,3}; high order 3 at rate
        # a_star between {0,1}/{2,3}
        d, rho = 10.0, 1.0
        spec = order_experiment_spec(1000, d, rho, 2, 3)
        a = 8.0 * d * rho / (2 * rho + 3)
        a_star = 32.0 * d / (2 * rho + 3)
        mats = pair_rate_matrix(spec)
        expected2 = np.array(
            [[0, 0, a, 0], [0, 0, 0, a], [a, 0, 0, 0], [0, a, 0, 0]]
        )
        expected3 = (1.0 / 4.0) * np.array(
            [[a_star, 2 * a_star, 0, 0],
             [2 * a_star, a_star, 0, 0],
             [0, 0, a_star, 2 * a_star],
             [0, 0, 2 * a_star, a_star]]
        )
        assert np.allclose(mats[2], expected2, rtol=1e-12)
        assert np.allclose(mats[3], expected3, rtol=1e-12)

    def test_zero_rates_zero_matrices(self):
        spec = order_experiment_spec(1000, 10.0, 0.0, 2, 3)
        mats = pair_rate_matrix(spec)
        assert np.allclose(mats[2], 0.0)

    def test_shape4_worked_matrix(self):
        d, rho = 10.0, 1.0
        spec = shape_experiment_spec(1000, d, rho, order=4)
        a = 6 * 16 * d * rho / (rho + 1)
        a_star = 2 * 64 * d / (rho + 1)
        mats = pair_rate_matrix(spec)
        expected = (1.0 / 32.0) * np.array(
            [[a_star + 2 * a, 2 * a_star, 2 * a, 0],
             [2 * a_star, a_star + 2 * a, 0, 2 * a],
             [2 * a, 0, a_star + 2 * a, 2 * a_star],
             [0, 2 * a, 2 * a_star, a_star + 2 * a]]
        )
        assert np.allclose(mats[4], expected, rtol=1e-12)


class TestCoarseSnr:
    def test_shape4_numerator_formula(self):
        d, rho = 10.0, 1.2
        spec = shape_experiment_spec(1000, d, rho, order=4)
        a = 6 * 16 * d * rho / (rho + 1)
        a_star = 2 * 64 * d / (rho + 1)
        mats = pair_rate_matrix(spec)
        d4 = order_degree_from_pair_rates(mats[4], 4)
        expected_0123 = ((1.5 * a_star) / 32.0) ** 2 / (4 * 3 * d4)
        expected_0213 = ((2 * a - 0.5 * a_star) / 32.0) ** 2 / (4 * 3 * d4)
        assert coarse_snr(mats, MERGE_01_23) == pytest.approx(expected_0123, rel=1e-12)
        assert coarse_snr(mats, MERGE_02_13) == pytest.approx(expected_0213, rel=1e-12)

    def test_symmetric_construction_gives_equal_snrs(self):
        # equal rates on both families of a symmetric layout
        spec = shape_experiment_spec(1000, 10.0, 4.0 / 3.0, order=4)
        mats = pair_rate_matrix(spec)
        assert coarse_snr(mats, MERGE_01_23) == pytest.approx(
            coarse_snr(mats, MERGE_02_13), rel=1e-9
        )

    def test_rejects_bad_partitions(self):
        spec = shape_experiment_spec(1000, 10.0, 1.0, order=4)
        mats = pair_rate_matrix(spec)
        with pytest.raises(DetectabilityError):
            coarse_snr(mats, ((0,), (1,), (2, 3)))
        with pytest.raises(DetectabilityError):
            coarse_snr(mats, ((0, 1), (1, 3)))

    def test_order23_equality_at_half_rate_ratio(self):
        # SNRs cross where a / a_star = 1/2, i.e. rho = 2
        s1, s2 = competing_snrs("order", 2.0, low_order=2, high_order=3)
        assert s1 == pytest.approx(s2, rel=1e-12)


class TestSwitchingRho:
    def test_shape4_exact(self):
        assert switching_rho("shape4") == 4.0 / 3.0

    def test_shape5_exact(self):
        assert switching_rho("shape5") == 3.0 / 2.0

    def test_order_23_exact(self):
        assert switching_rho("order", low_order=2, high_order=3) == 2.0

    def test_order_general_formula(self):
        for k, ks in [(2, 4), (3, 4), (2, 5), (3, 5)]:
            raw = switching_rho("order", low_order=k, high_order=ks)
            expected = (
                2 ** (ks - k)
                * (2 ** (k - 1) - 1)
                / (2 ** (ks - 1) - 1)
                * math.comb(ks, 2)
                / math.comb(k, 2)
            )
            assert raw == pytest.approx(expected, rel=1e-12)

    def test_raw_matches_snr_equality_root(self):
        # independent check: bisection on the unweighted SNR equality
        for kind, kwargs in [("shape4", {}), ("order", {"low_order": 2, "high_order": 3})]:
            raw = switching_rho(kind, **kwargs)

            def gap(rho):
                s1, s2 = competing_snrs(kind, rho, **kwargs)
                return s1 - s2

            lo, hi = 1e-6, 64.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if gap(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            assert raw == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_adjusted_roots(self):
        adj = switching_rho("order", low_order=2, high_order=3, adjusted=True)
        assert adj < 2.0  # weighting pulls the root below the raw prediction
        assert adj == pytest.approx(1.928, abs=2e-3)
        # same-order experiments: the weights cancel
        assert switching_rho("shape4", adjusted=True) == pytest.approx(4.0 / 3.0, abs=1e-9)


class TestSnrReport:
    def test_report_roundtrip(self):
        report = snr_report(3, (2, 3), d=10.0, eps=0.2, with_roots=True)
        assert report.d == pytest.approx(10.0, rel=1e-12)
        assert report.eps_bh == pytest.approx(critical_epsilon(3, (2, 3), 10.0, "bh"), abs=1e-12)
        assert report.eps_bp == pytest.approx(critical_epsilon(3, (2, 3), 10.0, "bp"), abs=1e-12)
        doc = report.to_dict()
        assert doc["snr_bh"] > 1.0
        assert doc["d_in"]["2"] > doc["d_in"]["3"]

    def test_zero_signal_flagged(self):
        report = snr_report(2, (2, 3), d=8.0, eps=1.0)
        assert report.zero_signal_orders == (2, 3)
        assert report.snr_bp == 0.0
