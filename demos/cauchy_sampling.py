"""Sampling the Cauchy distribution by inverting its CDF.

A Cauchy(x0, tau) variate is x0 + tau * tan(pi(u - 1/2)) for uniform u.
The demo checks the quantile anchors (median = x0, u = 0.75 gives
x0 + tau exactly), then compares empirical tail masses against the
analytic 1 - (2/pi) arctan(k) and shows why the MEAN never settles.

Run:  python demos/cauchy_sampling.py
"""

import math

import numpy as np

from cauchybench.datagen import cauchy_noise, cauchy_quantile

x0, tau = 2.0, 3.0
print(f"Cauchy(x0={x0}, tau={tau}) quantiles via the inverse CDF:")
for u in (0.25, 0.5, 0.75, 0.9, 0.99):
    print(f"  Q({u:4}) = {cauchy_quantile(u, x0, tau):.6g}")
print(f"  Q(0.5) == x0 exactly: {cauchy_quantile(0.5, x0, tau) == x0}")
print(f"  Q(0.75) == x0 + tau exactly: {cauchy_quantile(0.75, x0, tau) == x0 + tau}")

n = 200_000
draws = cauchy_noise(0.0, 1.0, n, seed=42)
print(f"\n{n} standard Cauchy draws: median={np.median(draws):+.4f} (location 0)")
print(f"{'k':>6} {'P(|X|>k) empirical':>20} {'analytic':>10}")
for k in (1, 3, 10, 30, 100):
    emp = np.mean(np.abs(draws) > k)
    ana = 1 - 2 * math.atan(k) / math.pi
    print(f"{k:>6} {emp:>20.5f} {ana:>10.5f}")

print("\nrunning mean never converges (undefined mean, infinite variance):")
for m in (100, 1_000, 10_000, 100_000, 200_000):
    print(f"  mean of first {m:>7}: {np.mean(draws[:m]):+10.3f}")
print("compare the running median, which pins down immediately:")
for m in (100, 1_000, 10_000, 100_000, 200_000):
    print(f"  median of first {m:>7}: {np.median(draws[:m]):+10.4f}")
