"""Loss and influence curves: why the Cauchy loss shrugs off outliers.

Squared error grows without bound and so does its influence (the pull a
residual exerts on the fit). The Cauchy loss grows logarithmically; its
influence peaks at r = c with value c/2 and then decays toward zero, so
an arbitrarily wild point contributes almost nothing.

Run:  python demos/influence_curves.py
"""

import numpy as np

from cauchybench.losses import LossSpec, clf_loss, influence, mse_loss
from cauchybench.report import influence_csv

residuals = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e6])
specs = [LossSpec.mse(), LossSpec.clf(1.0), LossSpec.clf(10.0)]

print("losses per residual")
print(f"{'r':>10}  {'MSE':>12}  {'CLF c=1':>12}  {'CLF c=10':>12}")
for r in residuals:
    print(
        f"{r:>10g}  {mse_loss(r, 0.0):>12.4g}"
        f"  {clf_loss(r, 0.0, 1.0):>12.4g}  {clf_loss(r, 0.0, 10.0):>12.4g}"
    )

print("\ninfluence |dL/dr| per residual (MSE unbounded, CLF peaks at c/2 then fades)")
print(f"{'r':>10}  {'MSE':>12}  {'CLF c=1':>12}  {'CLF c=10':>12}")
for r in residuals:
    vals = [influence(r, s) for s in specs]
    print(f"{r:>10g}  " + "  ".join(f"{v:>12.4g}" for v in vals))

for c in (1.0, 10.0):
    peak = influence(c, LossSpec.clf(c))
    print(f"\nCLF c={c:g}: influence at r=c is {peak:g} (= c/2), "
          f"at r=1e6*c it is {influence(1e6 * c, LossSpec.clf(c)):.3g}")

out = "influence_curves.csv"
with open(out, "w") as fh:
    fh.write(influence_csv(specs, rmax=10.0, steps_per_unit=20))
print(f"\nwrote a plot-ready grid to {out} (columns: r, one per loss)")
