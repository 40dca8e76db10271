"""Experiment orchestration: k-fold cross-validation with corrupted
training folds, clean test folds, replicated runs, score aggregation,
and rank-test comparisons between models.

The protocol for one experiment cell:

  * a clean dataset is built per replicate (synthetic data is freshly
    sampled each time; file-backed data may be subsampled),
  * rows are split into k folds by a seeded shuffle,
  * noise or outliers corrupt the training portion of each fold AFTER
    splitting, so every test fold stays byte-for-byte clean,
  * each candidate loss trains on the SAME corrupted matrix from the
    SAME initialization seed; the loss function is the only difference,
    and every (fold, model) pair of a replicate trains together, in one
    minibatch loop (``nets.train_folds``),
  * fold MAE/RMSE against the clean test fold are averaged into one
    replicate score per model, and replicate scores feed the rank tests.

All randomness flows through seed streams derived from the master seed
and a (purpose, replicate, fold) key; the ledger refuses to issue the
same stream twice, so no two stages can share entropy by accident.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .datagen import Dataset, NoiseSpec, apply_noise, make_hc2, make_hc8
from .ingest import SEOUL_BIKE_SCHEMA, load_dataset, schema_from_json
from .losses import LossKind, LossSpec, mae_score, rmse_score
from .nets import NetworkConfig, TrainConfig, TrainingDiverged, train_folds
from .ranktests import TestResult, kruskal_wallis, wilcoxon_rank_sum

__all__ = [
    "DatasetSpec",
    "ExperimentConfig",
    "ScoreTable",
    "ComparisonReport",
    "CellInfo",
    "ExperimentResult",
    "SeedLedger",
    "kfold_split",
    "run_replicate",
    "run_experiment",
    "compare_models",
    "preset_document",
    "list_presets",
    "HC_CLF_GRID",
    "BIKE_CLF_GRID",
]

HC_CLF_GRID = (0.1, 1.0, 10.0, 20.0, 100.0)
BIKE_CLF_GRID = (1.0, 10.0, 100.0, 200.0, 1000.0, 10000.0)

_SYNTH_BUILDERS = {"hc2": make_hc2, "hc8": make_hc8}


@dataclass(frozen=True)
class DatasetSpec:
    """Which data an experiment runs on.

    name: "hc2" | "hc8" | "bike". Synthetic sets draw ``n_samples``
    fresh points per replicate and take no files; "bike" loads ``path``
    (schema optional) and uses every row, or, if ``n_samples`` is set,
    a subsample of that many rows per replicate.
    """

    name: str
    n_samples: int | None = None
    path: str | None = None
    schema_path: str | None = None

    def __post_init__(self):
        if self.name not in ("hc2", "hc8", "bike"):
            raise ValueError(f"unknown dataset {self.name!r}")
        if self.name in _SYNTH_BUILDERS:
            if self.n_samples is None or self.n_samples < 1:
                raise ValueError("synthetic datasets need n_samples >= 1")
            if self.path is not None or self.schema_path is not None:
                raise ValueError(f"the synthetic dataset {self.name!r} takes no path or schema_path")
        elif self.n_samples is not None and self.n_samples < 1:
            raise ValueError("a bike subsample needs n_samples >= 1")
        elif not self.path:
            raise ValueError("the bike dataset needs a CSV path")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    noise: NoiseSpec
    models: tuple[LossSpec, ...]
    net: NetworkConfig | None = None  # None: inferred from the dataset
    train: TrainConfig = TrainConfig()
    folds: int = 10
    replicates: int = 5
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not self.models:
            raise ValueError("at least one model is required")
        labels = [m.label for m in self.models]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate model specs")
        for name, spec in (("train", self.train), ("noise", self.noise)):
            if spec.seed != 0:
                raise ValueError(f"{name}.seed must be 0: every seed derives from master_seed")

    @property
    def model_labels(self) -> list[str]:
        return [m.label for m in self.models]


_PURPOSES = {"data": 0, "folds": 1, "noise": 2, "train": 3}


class SeedLedger:
    """Derives per-stage seed streams and enforces their uniqueness."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self.issued: set[tuple[int, ...]] = set()

    def derive(self, purpose: str, *indices: int) -> np.random.SeedSequence:
        key = (_PURPOSES[purpose], *indices)
        if key in self.issued:
            raise RuntimeError(f"seed stream {key} requested twice")
        self.issued.add(key)
        return np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)

    def derive_int(self, purpose: str, *indices: int) -> int:
        a, b = self.derive(purpose, *indices).generate_state(2)
        return (int(a) << 32) | int(b)


def kfold_split(n: int, k: int, seed) -> list[tuple[np.ndarray, np.ndarray]]:
    """k (train_indices, test_indices) pairs from a seeded shuffle.

    Test folds are disjoint, cover 0..n-1, and differ in size by at most
    one; train indices are the sorted complement.
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    order = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(order, k)
    out = []
    for test in folds:
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        out.append((np.nonzero(mask)[0], np.sort(test)))
    return out


def _load_base(spec: DatasetSpec) -> Dataset | None:
    if spec.name != "bike":
        return None
    schema = schema_from_json(spec.schema_path) if spec.schema_path else SEOUL_BIKE_SCHEMA
    return load_dataset(spec.path, schema)


def _clean_dataset(spec: DatasetSpec, seed, base: Dataset | None) -> Dataset:
    if spec.name in _SYNTH_BUILDERS:
        return _SYNTH_BUILDERS[spec.name](spec.n_samples, seed)
    if spec.n_samples is not None and spec.n_samples < len(base):
        idx = np.random.default_rng(seed).choice(len(base), size=spec.n_samples, replace=False)
        return base.take(np.sort(idx))
    return base


def _resolve_net(cfg: ExperimentConfig, data: Dataset) -> NetworkConfig:
    if cfg.net is not None:
        if cfg.net.input_dim != data.n_features:
            raise ValueError(
                f"configured net expects {cfg.net.input_dim} features, data has {data.n_features}"
            )
        return cfg.net
    hidden = (14, 14) if cfg.dataset.name == "bike" else (10,)
    return NetworkConfig(input_dim=data.n_features, hidden_layers=hidden)


@dataclass
class CellInfo:
    """Snapshot handed to an observer for each (replicate, fold, model) cell."""

    replicate: int
    fold: int
    model: str
    train_data: Dataset
    test_data: Dataset
    train_config: TrainConfig


def run_replicate(
    cfg: ExperimentConfig,
    replicate_index: int,
    *,
    ledger: SeedLedger | None = None,
    base: Dataset | None = None,
    observer: Callable[[CellInfo], None] | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """One full cross-validation pass; returns per-model [(mae, rmse)] fold scores."""
    ledger = ledger if ledger is not None else SeedLedger(cfg.master_seed)
    if base is None:
        base = _load_base(cfg.dataset)
    clean = _clean_dataset(cfg.dataset, ledger.derive("data", replicate_index), base)
    net = _resolve_net(cfg, clean)
    folds = kfold_split(len(clean), cfg.folds, ledger.derive("folds", replicate_index))
    prepared = []
    for fold_idx, (train_idx, test_idx) in enumerate(folds):
        train_clean = clean.take(train_idx)
        test_clean = clean.take(test_idx)
        noise = replace(cfg.noise, seed=ledger.derive_int("noise", replicate_index, fold_idx))
        tc = replace(cfg.train, seed=ledger.derive_int("train", replicate_index, fold_idx))
        prepared.append((apply_noise(train_clean, noise), test_clean, tc))
    try:
        trained = train_folds([(corrupted, tc) for corrupted, _, tc in prepared], net, cfg.models)
    except TrainingDiverged as err:
        raise TrainingDiverged(
            err.epoch,
            f"model={cfg.models[err.model].label} fold={err.fold} replicate={replicate_index}",
            model=err.model,
            fold=err.fold,
        ) from err
    scores: dict[str, list[tuple[float, float]]] = {m.label: [] for m in cfg.models}
    for fold_idx, ((corrupted, test_clean, tc), models) in enumerate(zip(prepared, trained)):
        for spec, model in zip(cfg.models, models):
            preds = model.predict(test_clean.X)
            scores[spec.label].append(
                (mae_score(test_clean.y, preds), rmse_score(test_clean.y, preds))
            )
            if observer is not None:
                observer(
                    CellInfo(
                        replicate=replicate_index,
                        fold=fold_idx,
                        model=spec.label,
                        train_data=corrupted,
                        test_data=test_clean,
                        train_config=tc,
                    )
                )
    return scores


@dataclass
class ScoreTable:
    """Replicate-level scores per model, plus their mean/std summaries."""

    models: list[str]
    scores: dict[str, dict[str, np.ndarray]]  # scores[model]["mae"|"rmse"], shape (replicates,)

    def replicate_scores(self, model: str, metric: str) -> np.ndarray:
        return self.scores[model][metric]

    def mean(self, model: str, metric: str) -> float:
        return float(np.mean(self.scores[model][metric]))

    def std(self, model: str, metric: str) -> float:
        # Population std: a single replicate reports 0, not NaN.
        return float(np.std(self.scores[model][metric]))

    def to_dict(self) -> dict:
        return {
            "models": self.models,
            "replicate_scores": {
                m: {k: v.tolist() for k, v in self.scores[m].items()} for m in self.models
            },
            "aggregate": {
                m: {
                    metric: {"mean": self.mean(m, metric), "std": self.std(m, metric)}
                    for metric in ("mae", "rmse")
                }
                for m in self.models
            },
        }

    @staticmethod
    def from_replicates(models: Sequence[str], per_replicate: list[dict]) -> "ScoreTable":
        scores = {}
        for m in models:
            mae = np.array([np.mean([s[0] for s in rep[m]]) for rep in per_replicate])
            rmse = np.array([np.mean([s[1] for s in rep[m]]) for rep in per_replicate])
            scores[m] = {"mae": mae, "rmse": rmse}
        return ScoreTable(models=list(models), scores=scores)


@dataclass
class ComparisonReport:
    metric: str
    kruskal: TestResult
    pairwise: list[tuple[str, str, TestResult]]

    def pair(self, a: str, b: str) -> TestResult:
        for m1, m2, res in self.pairwise:
            if {m1, m2} == {a, b}:
                return res
        raise KeyError(f"no pairwise result for ({a}, {b})")

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "kruskal_wallis": self.kruskal.to_dict(),
            "pairwise": [
                {"model_a": a, "model_b": b, **res.to_dict()} for a, b, res in self.pairwise
            ],
        }


def compare_models(table: ScoreTable, metric: str) -> ComparisonReport:
    """Omnibus Kruskal-Wallis plus every pairwise Wilcoxon rank-sum test."""
    if metric not in ("mae", "rmse"):
        raise ValueError(f"unknown metric {metric!r}")
    if len(table.models) < 2:
        raise ValueError("need at least two models to compare")
    lengths = {table.scores[m][metric].size for m in table.models}
    if len(lengths) != 1:
        raise ValueError("models have mismatched replicate counts")
    groups = [table.scores[m][metric] for m in table.models]
    kw = kruskal_wallis(groups)
    pairwise = [
        (a, b, wilcoxon_rank_sum(table.scores[a][metric], table.scores[b][metric]))
        for a, b in combinations(table.models, 2)
    ]
    return ComparisonReport(metric=metric, kruskal=kw, pairwise=pairwise)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    table: ScoreTable
    cell_scores: dict[str, list[list[dict]]]  # [model][replicate][fold] -> {"mae","rmse"}
    comparisons: dict[str, ComparisonReport]
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "cauchybench-results-v1",
            "config": config_to_dict(self.config),
            **self.table.to_dict(),
            "cell_scores": self.cell_scores,
            "comparisons": {k: v.to_dict() for k, v in self.comparisons.items()},
            "meta": self.meta,
        }


def run_experiment(
    cfg: ExperimentConfig, observer: Callable[[CellInfo], None] | None = None
) -> ExperimentResult:
    """Execute every replicate, aggregate scores, and attach comparisons."""
    started = time.time()
    ledger = SeedLedger(cfg.master_seed)
    base = _load_base(cfg.dataset)
    per_replicate = [
        run_replicate(cfg, r, ledger=ledger, base=base, observer=observer)
        for r in range(cfg.replicates)
    ]
    labels = cfg.model_labels
    table = ScoreTable.from_replicates(labels, per_replicate)
    cells = {
        m: [[{"mae": s[0], "rmse": s[1]} for s in rep[m]] for rep in per_replicate]
        for m in labels
    }
    comparisons = (
        {metric: compare_models(table, metric) for metric in ("mae", "rmse")}
        if len(labels) >= 2
        else {}
    )
    meta = {
        "wall_clock_s": round(time.time() - started, 3),
        "seed_streams_issued": len(ledger.issued),
        "fresh_sample_per_replicate": cfg.dataset.name in _SYNTH_BUILDERS,
    }
    return ExperimentResult(
        config=cfg, table=table, cell_scores=cells, comparisons=comparisons, meta=meta
    )


# ---------------------------------------------------------------------------
# Config serialization (the CLI's JSON config mirrors ExperimentConfig).


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    del doc["train"]["seed"]  # train and noise seeds derive from master_seed
    doc["noise"] = cfg.noise.describe()
    del doc["noise"]["seed"]
    doc["models"] = [
        {"kind": m.kind.value, **({"c": m.c} if m.kind is LossKind.CLF else {})}
        for m in cfg.models
    ]
    if cfg.net is not None:
        doc["net"]["hidden_layers"] = list(cfg.net.hidden_layers)
    return doc


def _fields_of(doc, cls, path: str) -> dict:
    """``doc`` checked to be an object whose keys are all fields of ``cls``."""
    if not isinstance(doc, dict):
        raise ValueError(f"config {path or 'document'} must be an object")
    allowed = {f.name for f in fields(cls)}
    for key in doc:
        if key not in allowed:
            dotted = f"{path}.{key}" if path else key
            raise ValueError(f"unknown config key {dotted!r}")
    return doc


def _model_from_dict(doc, path: str) -> LossSpec:
    m = _fields_of(doc, LossSpec, path)
    is_clf = LossKind(m["kind"]) is LossKind.CLF
    if is_clf != ("c" in m):
        raise ValueError(f"config {path}: a CLF model needs 'c' and an MSE model takes none")
    return LossSpec.clf(m["c"]) if is_clf else LossSpec.mse()


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The inverse of ``config_to_dict``; a missing key takes the dataclass
    default, and an unknown key at any level, or a noise parameter its
    family does not read, is an error naming its dotted path (e.g.
    ``dataset.n_sample``, ``noise.tau`` with Gaussian noise)."""
    top = dict(_fields_of(doc, ExperimentConfig, ""))
    top["dataset"] = DatasetSpec(**_fields_of(top["dataset"], DatasetSpec, "dataset"))
    noise = top["noise"] = NoiseSpec(**_fields_of(top["noise"], NoiseSpec, "noise"))
    for key in doc["noise"]:
        if key not in ("family", "seed", *noise.family.parameters):
            raise ValueError(f"config key 'noise.{key}' does not apply to {noise.family.value} noise")
    top["models"] = tuple(_model_from_dict(m, f"models[{i}]") for i, m in enumerate(top["models"]))
    if top.get("net") is not None:
        top["net"] = NetworkConfig(**_fields_of(top["net"], NetworkConfig, "net"))
    if "train" in top:
        top["train"] = TrainConfig(**_fields_of(top["train"], TrainConfig, "train"))
    return ExperimentConfig(**top)


# ---------------------------------------------------------------------------
# Named presets mirroring the benchmark grids, as config documents.


def _preset_registry() -> dict[str, tuple[str, dict]]:
    """Each preset's dataset name and noise document."""
    presets: dict[str, tuple[str, dict]] = {}
    for ds in ("hc2", "hc8"):
        presets[f"{ds}-negative"] = (ds, {"family": "none"})
        for sigma in (1.0, 10.0, 50.0, 100.0):
            presets[f"{ds}-gaussian-{sigma:g}"] = (ds, {"family": "gaussian", "sigma": sigma})
        for tau in (1.0, 10.0, 50.0, 100.0):
            presets[f"{ds}-cauchy-{tau:g}"] = (ds, {"family": "cauchy", "tau": tau})
    presets["bike-negative"] = ("bike", {"family": "none"})
    for pct in (2.5, 5.0, 7.5, 10.0):
        noise = {"family": "uniform_outlier", "proportion": pct / 100.0}
        presets[f"bike-outliers-{pct:g}"] = ("bike", noise)
    return presets


_PRESETS = _preset_registry()


def list_presets() -> list[str]:
    return sorted(_PRESETS)


def preset_document(name: str) -> dict:
    """A fresh config document for a named preset: its ``dataset``,
    ``noise`` and ``models``; every other key takes its default.

    Synthetic presets draw 5000 fresh samples per replicate; bike presets
    need a ``dataset.path`` added before ``config_from_dict`` accepts them.
    """
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    ds, noise = _PRESETS[name]
    grid = BIKE_CLF_GRID if ds == "bike" else HC_CLF_GRID
    return {
        "dataset": {"name": ds} if ds == "bike" else {"name": ds, "n_samples": 5000},
        "noise": dict(noise),
        "models": [{"kind": "clf", "c": c} for c in grid] + [{"kind": "mse"}],
    }
