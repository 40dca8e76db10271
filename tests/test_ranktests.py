import math
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate, special

from cauchybench.ranktests import (
    EXACT_LIMIT,
    TestResult,
    chi_square_sf,
    kruskal_wallis,
    rank_with_ties,
    wilcoxon_rank_sum,
)

# Frozen oracle values.
KW_H_123 = 32.0 / 7.0
KW_P_123 = 0.10170139230422683  # exp(-16/7)
WRS_P_DISJOINT_3 = 0.1  # 2/20
WRS_P_DISJOINT_5 = 0.007936507936507936  # 2/252


def brute_force_wrs_p(a, b):
    """Independent enumeration: assign pooled values to groups directly."""
    pooled = np.concatenate([a, b])
    n1 = len(a)
    n = len(pooled)
    ranks = rank_with_ties(pooled)
    mu = n1 * (n - n1) / 2.0
    base = n1 * (n1 + 1) / 2.0
    obs = abs(ranks[:n1].sum() - base - mu)
    hits = total = 0
    for comb in combinations(range(n), n1):
        dev = abs(ranks[list(comb)].sum() - base - mu)
        total += 1
        if dev >= obs - 1e-9:
            hits += 1
    return hits / total


class TestRankWithTies:
    def test_singleton(self):
        assert rank_with_ties([5.0]).tolist() == [1.0]

    def test_pair_of_ties(self):
        assert rank_with_ties([10.0, 10.0]).tolist() == [1.5, 1.5]

    def test_hand_ranked_example(self):
        assert rank_with_ties([3.0, 1.0, 4.0, 1.0]).tolist() == [3.0, 1.5, 4.0, 1.5]

    def test_rank_sum_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            v = rng.integers(0, 10, size=n).astype(float)  # plenty of ties
            r = rank_with_ties(v)
            assert r.sum() == n * (n + 1) / 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rank_with_ties([])


class TestWilcoxonRankSum:
    def test_identical_samples_p_one(self):
        res = wilcoxon_rank_sum([1, 2, 3], [1, 2, 3])
        assert res.method == "exact_permutation"
        assert res.p_value == 1.0

    def test_disjoint_small(self):
        res = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(WRS_P_DISJOINT_3, abs=1e-15)

    def test_disjoint_five_vs_five(self):
        res = wilcoxon_rank_sum([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
        assert res.p_value == pytest.approx(WRS_P_DISJOINT_5, abs=1e-15)
        assert res.method == "exact_permutation"

    def test_two_sided_symmetric_in_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(2, 6)))
            b = rng.normal(size=int(rng.integers(2, 6)))
            assert wilcoxon_rank_sum(a, b).p_value == pytest.approx(
                wilcoxon_rank_sum(b, a).p_value, abs=1e-12
            )

    def test_exact_p_is_multiple_of_inverse_binomial(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n1, n2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            a = rng.normal(size=n1)
            b = rng.normal(size=n2)
            res = wilcoxon_rank_sum(a, b)
            total = math.comb(n1 + n2, n1)
            assert res.p_value * total == pytest.approx(round(res.p_value * total), abs=1e-9)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = rng.integers(0, 4, size=int(rng.integers(2, 6))).astype(float)
            b = rng.integers(0, 4, size=int(rng.integers(2, 6))).astype(float)
            assert wilcoxon_rank_sum(a, b).p_value == pytest.approx(
                brute_force_wrs_p(a, b), abs=1e-12
            )

    def test_exact_p_equals_enumeration_at_every_split(self):
        # Every (n1, n2) that takes the exact path, without and with ties.
        rng = np.random.default_rng(11)
        draws = (rng.normal, lambda size: rng.integers(0, 4, size=size).astype(float))
        for total in range(2, EXACT_LIMIT + 1):
            for n1 in range(1, total):
                for draw in draws:
                    a, b = draw(size=n1), draw(size=total - n1)
                    assert wilcoxon_rank_sum(a, b).p_value == brute_force_wrs_p(a, b)

    def test_normal_approx_used_above_limit(self):
        rng = np.random.default_rng(5)
        res = wilcoxon_rank_sum(rng.normal(size=10), rng.normal(size=10))
        assert res.method == "normal_approx"
        assert 0.0 <= res.p_value <= 1.0

    def test_exact_vs_normal_close_at_five_per_group(self):
        rng = np.random.default_rng(6)
        from cauchybench import ranktests

        for _ in range(100):
            a = rng.normal(size=5)
            b = rng.normal(size=5) + rng.normal() * 0.5
            exact = wilcoxon_rank_sum(a, b).p_value
            # Force the approximation path by shrinking the limit.
            old = ranktests.EXACT_LIMIT
            ranktests.EXACT_LIMIT = 0
            try:
                approx = wilcoxon_rank_sum(a, b).p_value
            finally:
                ranktests.EXACT_LIMIT = old
            assert abs(exact - approx) < 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])


class TestKruskalWallis:
    def test_identical_groups(self):
        res = kruskal_wallis([[1, 2], [1, 2], [1, 2]])
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0, abs=1e-9)

    def test_frozen_three_group_example(self):
        res = kruskal_wallis([[1, 2], [3, 4], [5, 6]])
        assert res.statistic == pytest.approx(KW_H_123, abs=1e-9)
        assert res.p_value == pytest.approx(KW_P_123, abs=1e-6)
        assert res.method == "chi_square_approx"
        assert res.n_per_group == (2, 2, 2)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        groups = [rng.normal(size=5) for _ in range(4)]
        base = kruskal_wallis(groups)
        shifted = kruskal_wallis([g + 17.3 for g in groups])
        assert shifted.statistic == pytest.approx(base.statistic, abs=1e-12)

    def test_all_constant_data(self):
        res = kruskal_wallis([[2.0, 2.0], [2.0], [2.0, 2.0]])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_two_groups_equals_squared_rank_sum_z(self):
        # KW with k=2 is the square of the standardized U statistic
        # (tie-corrected, no continuity correction).
        rng = np.random.default_rng(8)
        for _ in range(30):
            n1, n2 = int(rng.integers(3, 12)), int(rng.integers(3, 12))
            a = rng.integers(0, 6, size=n1).astype(float)
            b = rng.integers(0, 6, size=n2).astype(float)
            pooled = np.concatenate([a, b])
            ranks = rank_with_ties(pooled)
            u = ranks[:n1].sum() - n1 * (n1 + 1) / 2
            mu = n1 * n2 / 2
            n = n1 + n2
            _, counts = np.unique(pooled, return_counts=True)
            tie = np.sum(counts.astype(float) ** 3 - counts)
            var = n1 * n2 / 12 * ((n + 1) - tie / (n * (n - 1)))
            if var <= 0:
                continue
            h = kruskal_wallis([a, b]).statistic
            assert h == pytest.approx((u - mu) ** 2 / var, abs=1e-9)

    def test_rejects_degenerate_calls(self):
        with pytest.raises(ValueError):
            kruskal_wallis([[1.0, 2.0]])
        with pytest.raises(ValueError):
            kruskal_wallis([[1.0], []])


class TestRankInvariance:
    TRANSFORMS = [
        lambda x: 3.0 * x + 7.0,
        lambda x: x**3 + x,
        np.arctan,
        lambda x: np.exp(x / 4.0),
    ]

    def test_u_h_p_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            f = self.TRANSFORMS[trial % len(self.TRANSFORMS)]
            # Round to a coarse grid so ties survive the transform exactly.
            a = np.round(rng.uniform(-3, 3, size=int(rng.integers(2, 7))), 2)
            b = np.round(rng.uniform(-3, 3, size=int(rng.integers(2, 7))), 2)
            c = np.round(rng.uniform(-3, 3, size=int(rng.integers(2, 7))), 2)
            w0 = wilcoxon_rank_sum(a, b)
            w1 = wilcoxon_rank_sum(f(a), f(b))
            assert w0.statistic == w1.statistic
            assert w0.p_value == w1.p_value
            k0 = kruskal_wallis([a, b, c])
            k1 = kruskal_wallis([f(a), f(b), f(c)])
            assert k0.statistic == pytest.approx(k1.statistic, abs=1e-12)
            assert k0.p_value == pytest.approx(k1.p_value, abs=1e-12)


class TestChiSquareSf:
    def test_anchors(self):
        assert chi_square_sf(0.0, 5) == 1.0
        for x in (0.5, 2.0, 7.7):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)
        assert chi_square_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)

    def test_against_quadrature_oracle(self):
        # Independent route: integrate the chi-square density directly.
        def density(t, df):
            return t ** (df / 2 - 1) * math.exp(-t / 2) / (2 ** (df / 2) * special.gamma(df / 2))

        rng = np.random.default_rng(10)
        for _ in range(20):
            df = int(rng.integers(1, 12))
            x = float(rng.uniform(0.01, 30.0))
            cdf, _ = integrate.quad(density, 0, x, args=(df,))
            assert chi_square_sf(x, df) == pytest.approx(1 - cdf, abs=1e-10)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)

    def test_rejects_non_integer_df(self):
        with pytest.raises(ValueError, match="integer"):
            chi_square_sf(1.0, 2.5)

    def test_matches_regularized_upper_gamma(self):
        # The closed form against scipy's Q(df/2, x/2), over the df a
        # Kruskal-Wallis test of up to 8 groups produces.
        for df in range(1, 8):
            for x in np.concatenate([[0.0, 1e-9], np.linspace(0.01, 200.0, 400)]):
                want = special.gammaincc(df / 2.0, x / 2.0)
                assert chi_square_sf(float(x), df) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestResultSerialization:
    def test_to_dict(self):
        res = wilcoxon_rank_sum([1.0, 2.0], [3.0, 4.0])
        doc = res.to_dict()
        assert set(doc) == {"statistic", "p_value", "method", "n_per_group"}
        assert doc["n_per_group"] == [2, 2]
        assert isinstance(res, TestResult)
