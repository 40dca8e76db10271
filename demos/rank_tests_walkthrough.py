"""Rank-based inference on tiny samples, the way the benchmark scores it.

With five replicate scores per model, mean-based tests are fragile (and
outright invalid once Cauchy noise is in play), so model comparisons use
the Wilcoxon rank-sum test with an exact permutation p-value and the
Kruskal-Wallis omnibus test. Exactness matters at n = 5: the smallest
achievable two-sided p is 2/252, so "p < 0.05" already demands
near-total separation of the two score sets.

Run:  python demos/rank_tests_walkthrough.py
"""

import math

from cauchybench.ranktests import kruskal_wallis, rank_with_ties, wilcoxon_rank_sum

a = [0.41, 0.44, 0.46, 0.47, 0.52]  # one model's five replicate MAEs
b = [0.55, 0.58, 0.61, 0.63, 0.70]  # another model's

print("pooled midranks:", rank_with_ties(a + b).tolist())
res = wilcoxon_rank_sum(a, b)
print(f"WRS two-sided: U={res.statistic}, p={res.p_value:.6f} ({res.method})")
print(f"  -> fully separated 5-vs-5 gives the floor p = 2/252 = {2/252:.6f}")

overlap = wilcoxon_rank_sum(a, [0.45, 0.50, 0.55, 0.60, 0.65])
print(f"one overlapping pair instead: p={overlap.p_value:.4f} (evidence weakens fast)")

print(f"\nall {math.comb(10, 5)} assignments of the pooled values are enumerated;")
print("ties get midranks, so transforming scores monotonically changes nothing:")
scaled = wilcoxon_rank_sum([x * 1000 for x in a], [x * 1000 for x in b])
print(f"  on scores x1000: U={scaled.statistic}, p={scaled.p_value:.6f}")

groups = [a, b, [0.48, 0.49, 0.53, 0.56, 0.58]]
kw = kruskal_wallis(groups)
print(f"\nKruskal-Wallis over three models: H={kw.statistic:.3f}, p={kw.p_value:.4f}")
same = kruskal_wallis([a, a, a])
print(f"identical groups: H={same.statistic:.3f}, p={same.p_value:.3f} (nothing to detect)")
