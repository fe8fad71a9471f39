from fractions import Fraction
from math import comb, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom

from hyperbethe import (
    Hypergraph,
    Partition,
    ami,
    confusion,
    contingency,
    expected_mutual_information,
    hyperedge_composition,
    mutual_information,
)
from hyperbethe.metrics import entropy_from_marginals

from conftest import edge_tuples, random_hypergraph


def ami_oracle(a, b):
    """Independent AMI: exact-rational hypergeometric expectation.

    Cell probabilities come from binomial-coefficient ratios held as exact
    Fractions; only the final log terms are floating point.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    r, s = ai.max() + 1, bi.max() + 1
    counts = np.zeros((r, s), dtype=int)
    for x, y in zip(ai, bi):
        counts[x, y] += 1
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)

    mi = 0.0
    for i in range(r):
        for j in range(s):
            nij = counts[i, j]
            if nij:
                mi += (nij / n) * (log(nij / n) - log(row[i] / n) - log(col[j] / n))

    emi = 0.0
    for i in range(r):
        for j in range(s):
            for nij in range(max(1, row[i] + col[j] - n), min(row[i], col[j]) + 1):
                prob = Fraction(comb(col[j], nij) * comb(n - col[j], row[i] - nij), comb(n, row[i]))
                emi += float(prob) * (nij / n) * log(n * nij / (row[i] * col[j]))

    h_row = -sum((x / n) * log(x / n) for x in row if x)
    h_col = -sum((x / n) * log(x / n) for x in col if x)
    denom = 0.5 * (h_row + h_col) - emi
    if denom == 0.0:
        return 1.0
    return (mi - emi) / denom


class TestAmi:
    def test_identical_is_exactly_one(self):
        labels = np.array([0, 1, 1, 2, 0, 2, 1])
        assert ami(labels, labels) == 1.0

    def test_permuted_is_exactly_one(self):
        labels = np.array([0, 1, 1, 2, 0, 2, 1])
        relabeled = (labels + 1) % 3
        assert ami(labels, relabeled) == 1.0

    def test_two_single_cluster_partitions(self):
        assert ami([0, 0, 0], [0, 0, 0]) == 1.0

    def test_documented_example_against_oracle(self):
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        assert ami(a, b) == pytest.approx(ami_oracle(a, b), abs=1e-12)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(777)
        for _ in range(50):
            n = int(rng.integers(4, 25))
            a = rng.integers(0, int(rng.integers(2, 5)), size=n)
            b = rng.integers(0, int(rng.integers(2, 5)), size=n)
            assert ami(a, b) == pytest.approx(ami_oracle(a, b), abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = rng.integers(0, 3, size=30)
            b = rng.integers(0, 4, size=30)
            assert ami(a, b) == pytest.approx(ami(b, a), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bounds_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 30))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        value = ami(a, b)
        assert value <= 1.0 + 1e-12
        perm = rng.permutation(3)
        assert ami(perm[a], b) == pytest.approx(value, abs=1e-12)
        cont = contingency(a, b)
        assert mutual_information(cont) >= -1e-15

    def test_raw_value_can_be_slightly_negative(self):
        # anti-correlated partitions dip below zero; value is not clamped
        rng = np.random.default_rng(0)
        found = False
        for _ in range(200):
            n = 12
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 3, size=n)
            if ami(a, b) < 0:
                found = True
                break
        assert found

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            ami([0, 1], [0, 1, 1])
        with pytest.raises(ValueError, match="empty partitions"):
            ami([], [])


class TestExpectedMi:
    def test_matches_fraction_oracle_directly(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 3, size=18)
        b = rng.integers(0, 2, size=18)
        cont = contingency(a, b)
        n, row, col = cont.n, cont.row_marginals, cont.col_marginals
        exact = 0.0
        for ai in row:
            for bj in col:
                for nij in range(max(1, ai + bj - n), min(ai, bj) + 1):
                    prob = Fraction(comb(bj, nij) * comb(n - bj, ai - nij), comb(n, ai))
                    exact += float(prob) * (nij / n) * log(n * nij / (ai * bj))
        assert expected_mutual_information(cont) == pytest.approx(exact, abs=1e-13)

    @pytest.mark.parametrize("n", [500, 3000])
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_matches_scipy_hypergeom(self, n, q):
        rng = np.random.default_rng(100 * q + n)
        cont = contingency(rng.integers(0, q, size=n), rng.integers(0, 7 - q, size=n))
        ref = 0.0
        for ai in cont.row_marginals:
            for bj in cont.col_marginals:
                k = np.arange(max(1, ai + bj - n), min(ai, bj) + 1)
                pmf = hypergeom.pmf(k, n, ai, bj)
                ref += float(np.sum((k / n) * np.log(n * k / (ai * bj)) * pmf))
        assert expected_mutual_information(cont) == pytest.approx(ref, rel=1e-12, abs=0)


class TestConfusion:
    def test_identity_for_identical(self):
        mat = confusion([0, 1, 0, 1], [0, 1, 0, 1])
        assert mat.tolist() == [[2, 0], [0, 2]]

    def test_singletons_vs_single_block(self):
        mat = confusion([0, 1, 2], [0, 0, 0], row_normalize=True)
        assert mat.tolist() == [[1.0], [1.0], [1.0]]

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="same nodes"):
            confusion([0, 1], [0])

    def test_row_normalization_with_empty_row(self):
        a = Partition(np.array([0, 0]), 3)  # community 1 and 2 empty
        mat = confusion(a, [0, 1], row_normalize=True)
        assert mat.shape == (3, 2)
        assert mat[1].tolist() == [0.0, 0.0]
        assert mat[0].sum() == pytest.approx(1.0)


def reference_mi(cont):
    """Cell-by-cell mutual information, summed in row-major order."""
    n = cont.n
    mi = 0.0
    for i in range(cont.counts.shape[0]):
        for j in range(cont.counts.shape[1]):
            nij = cont.counts[i, j]
            if nij:
                mi += (nij / n) * (
                    np.log(nij / n) - np.log(cont.row_marginals[i] / n) - np.log(cont.col_marginals[j] / n)
                )
    return mi


class TestMutualInformation:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 12))
    def test_matches_cell_loop(self, seed, qa, qb):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        cont = contingency(rng.integers(0, qa, size=n), rng.integers(0, qb, size=n))
        assert mutual_information(cont) == pytest.approx(reference_mi(cont), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("q", [1, 2, 3, 8, 9, 30])
    def test_self_information_is_entropy_bitwise(self, q):
        rng = np.random.default_rng(q)
        cont = contingency(*[rng.integers(0, q, size=500)] * 2)
        assert mutual_information(cont) == entropy_from_marginals(cont.row_marginals, cont.n)


class TestComposition:
    def test_matches_per_edge_count(self, rng):
        h = random_hypergraph(rng, 40, orders=(3, 2, 5, 4), mean_edges_per_order=30)
        labels = rng.integers(0, 4, size=h.n)
        max_same, order_freq = {}, {}
        for e in edge_tuples(h):
            key = (len(e), int(np.bincount(labels[list(e)]).max()))
            max_same[key] = max_same.get(key, 0) + 1
            order_freq[len(e)] = order_freq.get(len(e), 0) + 1
        assert hyperedge_composition(h, Partition(labels, 4)) == (max_same, order_freq)

    def test_pure_partition_max_counts(self):
        h = Hypergraph(4, [(0, 1), (0, 1, 2, 3)])
        p = Partition(np.zeros(4, dtype=int), 1)
        max_same, order_freq = hyperedge_composition(h, p)
        assert max_same == {(2, 2): 1, (4, 4): 1}
        assert order_freq == {2: 1, 4: 1}

    def test_balanced_4_edge_across_two_blocks(self):
        h = Hypergraph(4, [(0, 1, 2, 3)])
        p = Partition(np.array([0, 0, 1, 1]), 2)
        max_same, _ = hyperedge_composition(h, p)
        assert max_same == {(4, 2): 1}
