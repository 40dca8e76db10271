"""Rank-based two-sample and k-sample hypothesis tests.

Two-sided Wilcoxon rank-sum with an exact permutation p-value for small
samples (the regime the benchmark actually produces: five replicate
scores per model) and a tie-corrected normal approximation with
continuity correction otherwise; Kruskal-Wallis with tie correction and a
chi-square p-value. Ties get midranks throughout, so the tests are
invariant under any strictly increasing transform of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import gammaincc

__all__ = [
    "TestResult",
    "rank_with_ties",
    "wilcoxon_rank_sum",
    "kruskal_wallis",
    "chi_square_sf",
    "EXACT_LIMIT",
]

# Exact enumeration cap: total sample size whose C(n, n1) stays <= 924.
EXACT_LIMIT = 12


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest class, despite the name

    statistic: float
    p_value: float
    method: str  # exact_permutation | normal_approx | chi_square_approx
    n_per_group: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method,
            "n_per_group": list(self.n_per_group),
        }


def rank_with_ties(values) -> np.ndarray:
    """Midranks 1..n; tied values share the mean of their rank block."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("rank_with_ties needs a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    sv = np.sort(v)
    lo = np.searchsorted(sv, v, side="left")
    hi = np.searchsorted(sv, v, side="right")
    return (lo + hi + 1) / 2.0


def _tie_term(pooled: np.ndarray) -> float:
    """sum over tie groups of (t^3 - t)."""
    _, counts = np.unique(pooled, return_counts=True)
    t = counts.astype(float)
    return float(np.sum(t**3 - t))


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_rank_sum(a, b) -> TestResult:
    """Two-sided Mann-Whitney/Wilcoxon rank-sum test on two samples.

    The statistic is U for the first sample, built from pooled midranks.
    With n1 + n2 <= EXACT_LIMIT the p-value enumerates every assignment
    of the pooled (possibly tied) values into groups of the observed
    sizes; otherwise it uses the tie-corrected normal approximation with
    continuity correction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    n1, n2 = a.size, b.size
    total = n1 + n2
    pooled = np.concatenate([a, b])
    ranks = rank_with_ties(pooled)
    r1 = float(ranks[:n1].sum())
    u = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0

    if total <= EXACT_LIMIT:
        # Ranks are multiples of 0.5, so comparisons only need a hair of slack.
        eps = 1e-9
        obs_dev = abs(u - mu)
        hits = 0
        count = 0
        base = n1 * (n1 + 1) / 2.0
        for comb in combinations(range(total), n1):
            u_perm = ranks[list(comb)].sum() - base
            count += 1
            hits += abs(u_perm - mu) >= obs_dev - eps
        return TestResult(u, hits / count, "exact_permutation", (n1, n2))

    tie = _tie_term(pooled)
    var = (n1 * n2 / 12.0) * ((total + 1) - tie / (total * (total - 1)))
    if var <= 0:  # every pooled value identical
        return TestResult(u, 1.0, "normal_approx", (n1, n2))
    z = max(abs(u - mu) - 0.5, 0.0) / math.sqrt(var)
    return TestResult(u, min(2.0 * _normal_sf(z), 1.0), "normal_approx", (n1, n2))


def kruskal_wallis(groups) -> TestResult:
    """Kruskal-Wallis H over k >= 2 groups, tie-corrected, chi-square p-value."""
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if len(arrays) < 2:
        raise ValueError("kruskal_wallis needs at least 2 groups")
    if any(g.size == 0 for g in arrays):
        raise ValueError("all groups must be nonempty")
    sizes = [g.size for g in arrays]
    pooled = np.concatenate(arrays)
    n = pooled.size
    ranks = rank_with_ties(pooled)
    h = 0.0
    start = 0
    for sz in sizes:
        r_sum = float(ranks[start : start + sz].sum())
        h += r_sum * r_sum / sz
        start += sz
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - _tie_term(pooled) / (n**3 - n)
    if correction <= 0.0:  # all pooled values identical
        return TestResult(0.0, 1.0, "chi_square_approx", tuple(sizes))
    h = max(h / correction, 0.0)
    p = chi_square_sf(h, len(arrays) - 1)
    return TestResult(h, p, "chi_square_approx", tuple(sizes))


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square upper-tail probability via the regularized incomplete gamma."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if df < 1:
        raise ValueError("df must be >= 1")
    return float(gammaincc(df / 2.0, x / 2.0))
