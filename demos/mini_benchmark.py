"""End-to-end miniature benchmark: the full protocol on a small budget.

Builds a fresh two-variable dataset per replicate, splits it 10-fold,
corrupts only the training folds with Cauchy noise, trains every model
from a shared initialization, scores on the untouched test folds, then
prints the score table, the rank-test report, and each model's mean MAE
over the tau sweep.

Run:  python demos/mini_benchmark.py   (about 2 s on a 2-core machine)
"""

import numpy as np

from cauchybench.datagen import NoiseSpec
from cauchybench.harness import DatasetSpec, ExperimentConfig, run_experiment
from cauchybench.losses import LossSpec
from cauchybench.nets import TrainConfig
from cauchybench.report import format_table

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
    noise = NoiseSpec("none") if tau is None else NoiseSpec("cauchy", tau=tau)
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

taus = [0.0, 1.0, 10.0]  # clean data is the point tau = 0
print(f"\nmean MAE over tau {taus}:")
for m in results[0]["models"]:
    ys = " ".join(f"{doc['aggregate'][m]['mae']['mean']:.3f}" for doc in results)
    print(f"  {m:>8}: {ys}")
