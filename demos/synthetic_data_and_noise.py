"""Synthetic regression surfaces and the three corruption mechanisms.

Two handcrafted targets back the benchmark: a smooth two-variable
surface exp(x1) - sin(x2) and an eight-variable product form whose fast
oscillations act as deterministic noise (structure a small net cannot
express). Training targets can then be corrupted with additive Gaussian
noise, additive Cauchy noise, or by replacing a fraction of targets with
uniform draws spanning 500x the data range.

Run:  python demos/synthetic_data_and_noise.py
"""

import numpy as np

from cauchybench.datagen import NoiseSpec, apply_noise, make_hc2, make_hc8


def describe(name, y):
    q = np.percentile(y, [0, 25, 50, 75, 100])
    print(f"{name:<28} min={q[0]:>10.2f} q25={q[1]:>8.2f} med={q[2]:>8.2f} "
          f"q75={q[3]:>8.2f} max={q[4]:>12.2f}")


hc2 = make_hc2(5000, seed=0)
hc8 = make_hc8(5000, seed=0)
describe("hc2 clean targets", hc2.y)
describe("hc8 clean targets", hc8.y)

print("\nadditive noise on hc2 (note how Cauchy tails dwarf Gaussian at equal scale):")
for spec in (
    NoiseSpec("gaussian", sigma=10.0, seed=1),
    NoiseSpec("cauchy", tau=10.0, seed=1),
):
    describe(f"  {spec.family} scale 10", apply_noise(hc2.y, spec))

print("\nmax |shift| tells the story:")
for tau in (1.0, 10.0):
    noisy = apply_noise(hc2.y, NoiseSpec("cauchy", tau=tau, seed=2))
    print(f"  Cauchy tau={tau:<4g}: max |y_noisy - y| = {np.max(np.abs(noisy - hc2.y)):.1f}")
gauss = apply_noise(hc2.y, NoiseSpec("gaussian", sigma=10.0, seed=2))
print(f"  Gauss sigma=10 : max |y_noisy - y| = {np.max(np.abs(gauss - hc2.y)):.1f}")

print("\noutlier simulation replaces targets with draws over 500x the data range:")
outliers = NoiseSpec("uniform_outlier", proportion=0.05, range_multiplier=500.0, seed=3)
corrupted = apply_noise(hc2.y, outliers)
n_changed = int(np.sum(corrupted != hc2.y))
describe(f"  5% outliers ({n_changed} rows)", corrupted)
print("\nthe original targets are never mutated:",
      "unchanged" if np.array_equal(hc2.y, make_hc2(5000, seed=0).y) else "MUTATED?!")
