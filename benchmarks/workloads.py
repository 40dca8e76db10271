"""The three benchmark workloads, as cauchybench JSON configs built from a seed.

Each workload is one whole experiment run through the CLI. Sizes are
chosen so that one experiment takes a few seconds on a 2-core machine,
which lets a run of ``--seconds`` seconds time several whole experiments
and report their median.
"""

from __future__ import annotations

import math
import os

OUT_DIR = os.path.join("benchmarks", "out")
BIKE_CSV = os.path.join(OUT_DIR, "bike.csv")
BIKE_ROWS = 975  # 650 training rows per fold: 5% of them is 32.5, which rounds half away to 33
BIKE_CSV_SEED = 2024

HC_MODELS = [{"kind": "clf", "c": c} for c in (0.1, 1.0, 10.0, 20.0, 100.0)] + [{"kind": "mse"}]
BIKE_MODELS = [{"kind": "clf", "c": c} for c in (1.0, 10.0, 100.0, 200.0, 1000.0, 10000.0)] + [
    {"kind": "mse"}
]

# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    "hc2-cauchy": {
        "dataset": {"name": "hc2", "n_samples": 2000},
        "noise": {"family": "cauchy", "x0": 0.0, "tau": 10.0},
        "models": HC_MODELS,
        "train": {"epochs": 10, "batch_size": 32},
        "folds": 3,
        "replicates": 5,
    },
    "bike-outliers": {
        "dataset": {"name": "bike", "n_samples": None, "path": BIKE_CSV},
        "noise": {"family": "uniform_outlier", "proportion": 0.05, "range_multiplier": 500.0},
        "models": BIKE_MODELS,
        "train": {"epochs": 30, "batch_size": 64},
        "folds": 3,
        "replicates": 3,
    },
    "hc8-gaussian-pair": {
        "dataset": {"name": "hc8", "n_samples": 8000},
        "noise": {"family": "gaussian", "sigma": 10.0},
        "models": [{"kind": "clf", "c": 10.0}, {"kind": "mse"}],
        "train": {"epochs": 8, "batch_size": 256},
        "folds": 5,
        "replicates": 12,
    },
}

# Net shapes the harness infers for each dataset (input -> hidden -> 1).
NET_SHAPES = {"hc2": (2, 10, 1), "hc8": (8, 10, 1), "bike": (17, 14, 14, 1)}


def config(workload: str, seed: int) -> dict:
    """The run config of ``workload``; ``seed`` becomes the master seed."""
    return {**WORKLOADS[workload], "master_seed": seed}


def label(model: dict) -> str:
    return "MSE" if model["kind"] == "mse" else f"CLF_{model['c']:g}"


def n_rows(cfg: dict) -> int:
    ds = cfg["dataset"]
    return BIKE_ROWS if ds["name"] == "bike" else ds["n_samples"]


def fold_sizes(n: int, k: int) -> list[int]:
    """Sizes of k test folds over n rows that differ by at most one."""
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


def model_steps(cfg: dict) -> int:
    """Sum over (replicate, fold, model) of epochs * ceil(n_train / batch)."""
    n = n_rows(cfg)
    tr = cfg["train"]
    per_replicate = sum(
        tr["epochs"] * math.ceil((n - size) / tr["batch_size"])
        for size in fold_sizes(n, cfg["folds"])
    )
    return per_replicate * cfg["replicates"] * len(cfg["models"])


def cells(cfg: dict) -> int:
    return cfg["replicates"] * cfg["folds"] * len(cfg["models"])
