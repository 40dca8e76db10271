"""End-to-end miniature benchmark: the full protocol on a small budget.

Builds a fresh two-variable dataset per replicate, splits it 10-fold,
corrupts only the training folds with Cauchy noise, trains every model
from a shared initialization, scores on the untouched test folds, then
prints the score table, the rank-test report, and a plot-ready sweep.

Run:  python demos/mini_benchmark.py   (about 2 s on a 2-core machine)
"""

import numpy as np

from cauchybench.datagen import NoiseFamily, NoiseSpec
from cauchybench.harness import DatasetSpec, ExperimentConfig, run_experiment
from cauchybench.losses import LossSpec
from cauchybench.nets import TrainConfig
from cauchybench.report import emit_plot_series, format_table, series_to_csv

MODELS = (LossSpec.clf(0.1), LossSpec.clf(1.0), LossSpec.clf(10.0), LossSpec.mse())
TRAIN = TrainConfig(epochs=60, batch_size=64, learning_rate=0.001)


def experiment(noise):
    return ExperimentConfig(
        dataset=DatasetSpec(name="hc2", n_samples=800),
        noise=noise,
        models=MODELS,
        train=TRAIN,
        folds=10,
        replicates=3,
        master_seed=11,
    )


results = []
for tau in (None, 1.0, 10.0):
    noise = NoiseSpec(NoiseFamily.NONE) if tau is None else NoiseSpec(NoiseFamily.CAUCHY, tau=tau)
    label = "clean" if tau is None else f"Cauchy tau={tau:g}"
    print(f"\n=== training corruption: {label} ===")
    doc = run_experiment(experiment(noise))
    results.append(doc)
    print(format_table(doc, "mae"))
    comparison = doc["comparisons"]["mae"]
    kw = comparison["kruskal_wallis"]
    print(f"Kruskal-Wallis: H={kw['statistic']:.3f} p={kw['p_value']:.4f}")
    pair = next(p for p in comparison["pairwise"] if (p["model_a"], p["model_b"]) == ("CLF_1", "MSE"))
    print(f"CLF_1 vs MSE: U={pair['statistic']} p={pair['p_value']:.4f} ({pair['method']})")

series = emit_plot_series(results, "mae", "tau")
out = "mae_vs_tau.csv"
with open(out, "w") as fh:
    fh.write(series_to_csv(series))
print(f"\nwrote sweep series to {out}:")
for s in series:
    ys = " ".join(f"{v:.3f}" for v in s.y)
    print(f"  {s.label:>8}: MAE over tau {s.x} -> {ys}")
