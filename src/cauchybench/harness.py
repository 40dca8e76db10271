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
    minibatch loop (``nets.train_folds``) that reads each fold's rows
    from the replicate's one clean feature matrix (noise touches only
    targets, so no fold's features are copied for training),
  * each cell's MAE/RMSE on its clean test fold comes back as one record
    (``CellInfo``); the document averages each model's fold scores into one
    replicate score, and replicate scores feed the rank tests;
    replicates share nothing but the master seed, so they run in worker
    processes forked straight from the caller (``_forked``; no pool and no
    initializer), one per usable CPU at most. The unit of work is a
    contiguous run of (replicate, fold) pairs (``_run_pairs``), trained in
    one ``train_folds`` call over the stacked clean feature matrices of
    the replicates it touches; ``_pair_runs`` deals the runs so that no
    worker idles while another trains a last whole replicate, and says
    why every model still gets the bits it would get alone.

All randomness flows through seed streams derived from the master seed
and a (purpose, replicate, fold) key; the ledger refuses to issue the
same stream twice, so no two stages can share entropy by accident.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from itertools import combinations
from typing import Callable, Iterator, NoReturn

import numpy as np

from .datagen import HC2_RANGES, HC8_RANGES, Dataset, NoiseSpec, apply_noise, make_hc2, make_hc8, noise_spec
from .ingest import SEOUL_BIKE_SCHEMA, IngestionError, load_dataset, schema_from_json
from .losses import LossSpec, _check_numbers, mae_score, rmse_score
from .nets import NetworkConfig, TrainConfig, TrainingDiverged, train_folds
from .ranktests import kruskal_wallis, wilcoxon_rank_sum
from .report import RESULTS_SCHEMA

__all__ = [
    "DatasetSpec",
    "ExperimentConfig",
    "CellInfo",
    "SeedLedger",
    "kfold_split",
    "run_replicate",
    "run_experiment",
    "compare_models",
    "config_to_dict",
    "config_from_dict",
    "preset_document",
    "list_presets",
    "HC_CLF_GRID",
    "BIKE_CLF_GRID",
]

HC_CLF_GRID = (0.1, 1.0, 10.0, 20.0, 100.0)
BIKE_CLF_GRID = (1.0, 10.0, 100.0, 200.0, 1000.0, 10000.0)

_SYNTH_BUILDERS = {"hc2": make_hc2, "hc8": make_hc8}
_SYNTH_FEATURES = {"hc2": len(HC2_RANGES), "hc8": len(HC8_RANGES)}


@dataclass(frozen=True)
class DatasetSpec:
    """Which data an experiment runs on.

    name: "hc2" | "hc8" | "bike". Synthetic sets draw ``n_samples``
    fresh points per replicate and take no files; "bike" loads ``path``
    (schema optional) and uses every row, or, if ``n_samples`` is set,
    a subsample of that many rows per replicate, no more than it holds.
    """

    name: str
    n_samples: int | None = None
    path: str | None = None
    schema_path: str | None = None

    def __post_init__(self):
        if self.n_samples is not None:
            _check_numbers(self, n_samples=1)
        for name in ("path", "schema_path"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a string or null, got {getattr(self, name)!r}")
        if self.name not in ("hc2", "hc8", "bike"):
            raise ValueError(f"unknown dataset {self.name!r}; expected one of hc2, hc8, bike")
        if self.name in _SYNTH_BUILDERS:
            if self.n_samples is None:
                raise ValueError("synthetic datasets need n_samples")
            if self.path is not None or self.schema_path is not None:
                raise ValueError(f"the synthetic dataset {self.name!r} takes no path or schema_path")
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
        _check_numbers(self, folds=2, replicates=1, master_seed=0)
        if not self.models:
            raise ValueError("at least one model is required")
        # results are keyed by label, so two models may not share one
        seen: dict[str, LossSpec] = {}
        for spec in self.models:
            if spec.label in seen:
                first = seen[spec.label]
                constants = "" if spec.c is None else f" (c = {first.c!r} and {spec.c!r})"
                raise ValueError(f"duplicate model specs: two models share the label {spec.label}{constants}")
            seen[spec.label] = spec
        for name, spec in (("train", self.train), ("noise", self.noise)):
            if spec.seed != 0:
                raise ValueError(f"{name}.seed must be 0: every seed derives from master_seed")
        # a bike CSV's rows and features are checked once it is loaded (_load_base)
        n = self.dataset.n_samples
        if n is not None and self.folds > n:
            raise ValueError(f"need folds <= dataset.n_samples, got folds={self.folds}, n_samples={n}")
        width = _SYNTH_FEATURES.get(self.dataset.name)
        if self.net is not None and width is not None and self.net.input_dim != width:
            name, dim = self.dataset.name, self.net.input_dim
            raise ValueError(f"configured net expects {dim} features, {name} has {width}")

    @property
    def model_labels(self) -> list[str]:
        return [m.label for m in self.models]


_PURPOSES = {"data": 0, "folds": 1, "noise": 2, "train": 3}


class SeedLedger:
    """Derives per-stage seed streams and enforces their uniqueness."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self.issued: set[tuple[int, ...]] = set()

    def issue(self, purpose: str, *indices: int) -> None:
        """Mark a stream as issued without building it; whoever uses it
        builds it with ``_seed_stream``."""
        key = (_PURPOSES[purpose], *indices)
        if key in self.issued:
            raise RuntimeError(f"seed stream {key} requested twice")
        self.issued.add(key)

    def derive_int(self, purpose: str, *indices: int) -> int:
        self.issue(purpose, *indices)
        a, b = _seed_stream(self.master_seed, purpose, *indices).generate_state(2)
        return (int(a) << 32) | int(b)

    def merge(self, keys: set[tuple[int, ...]]) -> None:
        """Record streams another ledger of the same master seed issued."""
        if twice := keys & self.issued:
            raise RuntimeError(f"seed stream {min(twice)} requested twice")
        self.issued |= keys


def _seed_stream(master_seed: int, purpose: str, *indices: int) -> np.random.SeedSequence:
    """The seed stream of (purpose, *indices): the same for every ledger of
    ``master_seed``."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(_PURPOSES[purpose], *indices))


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


def _load_base(cfg: ExperimentConfig) -> Dataset | None:
    """The bike CSV, checked against the config before any run is dealt
    (a misfit is an IngestionError); None for synthetic data."""
    spec = cfg.dataset
    if spec.name != "bike":
        return None
    schema = schema_from_json(spec.schema_path) if spec.schema_path else SEOUL_BIKE_SCHEMA
    base = load_dataset(spec.path, schema)
    if spec.n_samples is not None and spec.n_samples > len(base):
        raise IngestionError(f"n_samples={spec.n_samples} exceeds the {len(base)} rows of {spec.path}")
    if cfg.folds > len(base):  # a set n_samples was checked against folds with the config
        raise IngestionError(f"need 1 <= k <= n, got k={cfg.folds}, n={len(base)}")
    if cfg.net is not None and cfg.net.input_dim != base.n_features:
        raise IngestionError(f"configured net expects {cfg.net.input_dim} features, data has {base.n_features}")
    return base


def _clean_dataset(spec: DatasetSpec, seed, base: Dataset | None) -> Dataset:
    if spec.name in _SYNTH_BUILDERS:
        return _SYNTH_BUILDERS[spec.name](spec.n_samples, seed)
    if spec.n_samples is not None and spec.n_samples < len(base):
        idx = np.random.default_rng(seed).choice(len(base), size=spec.n_samples, replace=False)
        return base.take(np.sort(idx))
    return base


def _hidden_layers(cfg: ExperimentConfig) -> tuple[int, ...]:
    """The widths of the net's hidden layers, known before any data is
    built: the configured net's, else the dataset's default."""
    if cfg.net is not None:
        return cfg.net.hidden_layers
    return (14, 14) if cfg.dataset.name == "bike" else (10,)


@dataclass
class CellInfo:
    """One (replicate, fold, model) cell's scores on its clean test fold, from
    the run that trained it to the observer and the results document. The
    fold's data and training config are set only when there is an observer;
    ``train_data``, its training rows with their corrupted targets, is built
    once per fold."""

    replicate: int
    fold: int
    model: str
    mae: float
    rmse: float
    train_data: Dataset | None = None
    test_data: Dataset | None = None
    train_config: TrainConfig | None = None


def run_replicate(
    cfg: ExperimentConfig,
    replicate_index: int,
    *,
    ledger: SeedLedger | None = None,
    observer: Callable[[CellInfo], None] | None = None,
) -> dict[str, list[dict[str, float]]]:
    """One full cross-validation pass; returns each model's fold scores,
    [{"mae": ..., "rmse": ...}] in fold order, as in ``cell_scores``, read
    from the records of its k pairs, taken back as one of ``run_experiment``'s runs."""
    ledger = ledger if ledger is not None else SeedLedger(cfg.master_seed)
    ledger.issue("data", replicate_index)
    ledger.issue("folds", replicate_index)
    k = cfg.folds
    pairs = range(replicate_index * k, (replicate_index + 1) * k)
    run = _run_pairs(cfg, _load_base(cfg), observer is not None, pairs)
    cells = list(_take_runs([run], ledger, observer))
    return {m: [{"mae": c.mae, "rmse": c.rmse} for c in cells if c.model == m] for m in cfg.model_labels}


def _run_pairs(
    cfg: ExperimentConfig, base: Dataset | None, collect: bool, pairs: range
) -> tuple[list[CellInfo], set[tuple[int, ...]]]:
    """A run of (replicate, fold) pairs, numbered replicate x folds + fold,
    all trained in one ``train_folds`` call (``_pair_runs`` says why that
    gives each model its bits alone): the run's records, one per cell in
    (replicate, fold, model) order and carrying the cell's data only if
    ``collect``, and the noise and train streams the run issued on a ledger
    of its own.

    Each replicate the run touches is rebuilt from its ``data`` and
    ``folds`` streams, which the caller has issued. Each fold's rows index
    the touched replicates' clean feature matrices stacked."""
    k = cfg.folds
    ledger, records = SeedLedger(cfg.master_seed), []
    cleans, train_rows, prepared, offset = [], [], [], 0
    for r in range(pairs.start // k, -(-pairs.stop // k)):
        clean = _clean_dataset(cfg.dataset, _seed_stream(cfg.master_seed, "data", r), base)
        folds = kfold_split(len(clean), k, _seed_stream(cfg.master_seed, "folds", r))
        # Noise corrupts targets only, and the trainer reads the folds' features
        # from the clean matrices; a fold's training Dataset is built only for
        # an observer.
        for fold_idx in range(k)[max(pairs.start - r * k, 0) : pairs.stop - r * k]:
            train_idx, test_idx = folds[fold_idx]
            noise = replace(cfg.noise, seed=ledger.derive_int("noise", r, fold_idx))
            tc = replace(cfg.train, seed=ledger.derive_int("train", r, fold_idx))
            y = apply_noise(clean.y[train_idx], noise)
            train_data = Dataset(clean.X[train_idx], y, dict(clean.meta)) if collect else None
            prepared.append((train_data, clean.take(test_idx), tc))
            train_idx += offset  # now rows of the stacked matrix, in place: no copy
            train_rows.append((train_idx, y, tc))
        cleans.append(clean)
        offset += len(clean)
    net = NetworkConfig(cleans[0].n_features, _hidden_layers(cfg))
    # one replicate reads its clean matrix uncopied
    X = cleans[0].X if len(cleans) == 1 else np.concatenate([c.X for c in cleans])
    try:
        trained = train_folds(X, train_rows, net, cfg.models)
    except TrainingDiverged as err:
        r, fold_idx = divmod(pairs[err.fold], k)
        label = cfg.models[err.model].label
        raise TrainingDiverged(
            err.epoch,
            f"{err.detail}; model={label} fold={fold_idx} replicate={r}",
            model=err.model,
            fold=fold_idx,
        ) from err
    for pair, (train_data, test_clean, tc), models in zip(pairs, prepared, trained):
        r, fold_idx = divmod(pair, k)
        observed = (train_data, test_clean, tc) if collect else ()
        for spec, model in zip(cfg.models, models):
            preds = model.predict(test_clean.X)
            mae, rmse = mae_score(test_clean.y, preds), rmse_score(test_clean.y, preds)
            records.append(CellInfo(r, fold_idx, spec.label, mae, rmse, *observed))
    return records, ledger.issued


def _take_runs(runs, ledger: SeedLedger, observer) -> Iterator[CellInfo]:
    """The records of ``_run_pairs`` outputs, in order, yielded as each run comes
    back: its streams go to ``ledger``, then its records to ``observer`` if any."""
    for records, issued in runs:
        ledger.merge(issued)
        for cell in records if observer is not None else ():
            observer(cell)
        yield from records


def compare_models(replicate_scores: dict[str, dict[str, list[float]]], metric: str) -> dict:
    """Omnibus Kruskal-Wallis plus every pairwise Wilcoxon rank-sum test:
    from a results document's ``replicate_scores`` (model -> metric -> one
    score per replicate), its ``comparisons[metric]`` entry, which holds
    each test's own entry as the test returns it (``ranktests``), a pair's
    after its two model labels."""
    if metric not in ("mae", "rmse"):
        raise ValueError(f"unknown metric {metric!r}")
    models = list(replicate_scores)
    if len(models) < 2:
        raise ValueError("need at least two models to compare")
    groups = [np.asarray(replicate_scores[m][metric], dtype=float) for m in models]
    if len({g.size for g in groups}) != 1:
        raise ValueError("models have mismatched replicate counts")
    return {
        "metric": metric,
        "kruskal_wallis": kruskal_wallis(groups),
        "pairwise": [
            {"model_a": a, "model_b": b, **wilcoxon_rank_sum(ga, gb)}
            for (a, ga), (b, gb) in combinations(zip(models, groups), 2)
        ],
    }


# While a step's hidden buffers are this small, the step costs per numpy
# call rather than per value, so one call over several replicates' folds
# costs little more than one over a single replicate's.
_GROUP_FLOATS = 2**15


def _pair_runs(cfg: ExperimentConfig, cpus: int, rows: int) -> list[range]:
    """The R x k (replicate, fold) pairs of replicates of ``rows`` rows each,
    numbered replicate x k + fold, in contiguous runs whose lengths differ
    by at most one: one ``train_folds`` call and one ``_run_pairs`` job each.

    Replicates group g = min(ceil(R / cpus), max(1, _GROUP_FLOATS // s))
    to a call, where s = folds x w x models x (sum of hidden units) is the
    float count of one replicate's (F, w, M, h) hidden buffer of a step,
    and w = min(batch_size, largest training fold) is the widest step,
    which ``train_folds`` sizes its buffers by; a replicate with
    s > _GROUP_FLOATS / 2 trains alone.
    That gives G = ceil(R / g) groups. The run count is the largest
    multiple of ``cpus`` not above G, so no worker idles in a last round,
    or G itself when G < cpus.

    The run count is at most R, so a run holds at least k pairs and with
    them every fold index. Every replicate has the same row and fold
    counts, so the call's largest fold, which fixes its step plan, is a
    whole replicate's: each model gets the bits it gets when its
    replicate trains alone, even when the run starts or ends inside it."""
    widest = min(cfg.train.batch_size, rows - rows // cfg.folds)  # all rows but the smallest test fold
    s = cfg.folds * widest * len(cfg.models) * sum(_hidden_layers(cfg))
    g = min(-(-cfg.replicates // cpus), max(1, _GROUP_FLOATS // s))
    groups = -(-cfg.replicates // g)
    jobs = groups - groups % cpus if groups >= cpus else groups
    size, longer = divmod(cfg.replicates * cfg.folds, jobs)
    starts = [j * size + min(j, longer) for j in range(jobs + 1)]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


@contextmanager
def _forked(job: Callable[[range], tuple], runs: list[range], workers: int):
    """``job(run)`` for each of ``runs``, in order, from ``workers`` children
    forked from this process: child w runs runs w, w + workers, ... in
    turn and sends each output down a pipe of its own, and this process
    reads run i from child i mod workers. A child inherits ``job``, so
    nothing is sent to it. A child's exception is raised here; a child
    that ends before sending its outputs is a RuntimeError naming its exit
    status, and a failed fork is raised as it is. Every child is reaped
    before the block is left, so their CPU time is this process's
    children's; one left by an exception is killed first, since its
    outputs are no longer wanted."""
    # every run builds seed streams: numpy.random loads once here, not in each child
    import numpy.random  # noqa: F401

    pids, pipes = [], {}  # pipes: pid -> the pipe its outputs come down, until it is reaped
    try:
        for w in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN, ENOMEM: no child holds this pipe
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _serve(job, runs[w::workers], write)
            os.close(write)
            pids.append(pid)
            pipes[pid] = os.fdopen(read, "rb")
        yield (_receive(pipes, pids[i % workers]) for i in range(len(runs)))
    except BaseException:
        import signal

        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.waitpid(pid, 0)


def _serve(job: Callable[[range], tuple], runs: list[range], fd: int) -> NoReturn:
    """A forked child's whole life: the outputs of ``runs``, in order, or the
    first exception, pickled down ``fd``; then ``os._exit``, so nothing of
    the parent's that follows the fork runs twice. SIGTERM ends it by the
    default action, whatever handler the parent set, so the parent reports
    the signal as the child's status."""
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    status = 1
    try:
        with os.fdopen(fd, "wb") as pipe:
            for run in runs:
                try:
                    out = job(run)
                except Exception as err:
                    out = _picklable(err)
                pipe.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))  # whole, or not at all
                pipe.flush()
                if isinstance(out, BaseException):
                    break
        status = 0
    finally:
        os._exit(status)


def _picklable(err: Exception) -> Exception:
    """``err`` if it comes back whole through pickle, else a RuntimeError
    carrying its traceback's text."""
    try:
        pickle.loads(pickle.dumps(err, pickle.HIGHEST_PROTOCOL))
        return err
    except Exception:
        import traceback

        return RuntimeError("a worker process raised:\n" + "".join(traceback.format_exception(err)))


def _receive(pipes: dict, pid: int) -> tuple:
    """The next output from child ``pid``; an exception it sent is raised."""
    try:
        out = pickle.load(pipes[pid])
    except (EOFError, pickle.UnpicklingError):
        pipes.pop(pid).close()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        raise RuntimeError(
            f"worker process {pid} ended with status {status} before sending its outputs"
        ) from None
    if isinstance(out, BaseException):
        raise out
    return out


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(cfg: ExperimentConfig, observer: Callable[[CellInfo], None] | None = None) -> dict:
    """Execute every replicate and return the results document: the
    config, per-replicate scores (each the mean over folds) with their
    mean and population std, every fold's scores, and the rank-test
    comparisons of two or more models.

    The replicates' (replicate, fold) pairs run as contiguous runs
    (``_pair_runs``, which says why every model has the bits a serial run
    over ``run_replicate`` gives it), one ``_run_pairs`` job each: in this
    process when there is one usable CPU or one run, else in min(runs,
    usable CPUs) children forked from it (``_forked``), which inherit the
    job with its config and loaded data. This process imports
    ``numpy.random`` just before the fork, so the children share it
    instead of each loading it. It issues each replicate's data and folds
    streams once, without building them; ``_take_runs`` merges each run's
    own streams here and hands its records to ``observer``, so the observer
    runs in this process, on the cells in (replicate, fold, model) order,
    each run's once it is back. The document is built from those records.
    """
    started = time.perf_counter()
    ledger = SeedLedger(cfg.master_seed)
    for r in range(cfg.replicates):
        ledger.issue("data", r)
        ledger.issue("folds", r)
    base = _load_base(cfg)
    job = partial(_run_pairs, cfg, base, observer is not None)
    cpus = _usable_cpus()
    runs = _pair_runs(cfg, cpus, cfg.dataset.n_samples or len(base))
    workers = min(len(runs), cpus)
    labels = cfg.model_labels
    cells = {m: [[] for _ in range(cfg.replicates)] for m in labels}  # cell_scores
    # fork, not spawn: a spawned worker imports numpy and the package
    # again, which costs more than a small experiment's second core saves
    with _forked(job, runs, workers) if workers > 1 else nullcontext(map(job, runs)) as outputs:
        for cell in _take_runs(outputs, ledger, observer):
            cells[cell.model][cell.replicate].append({"mae": cell.mae, "rmse": cell.rmse})
    scores = {
        m: {k: [float(np.mean([c[k] for c in rep])) for rep in cells[m]] for k in ("mae", "rmse")}
        for m in labels
    }
    return {
        "schema": RESULTS_SCHEMA,
        "config": config_to_dict(cfg),
        "models": labels,
        "replicate_scores": scores,
        "aggregate": {
            m: {k: {"mean": float(np.mean(v)), "std": float(np.std(v))} for k, v in scores[m].items()}
            for m in labels
        },
        "cell_scores": cells,
        "comparisons": {k: compare_models(scores, k) for k in ("mae", "rmse") if len(labels) > 1},
        "meta": {
            "wall_clock_s": round(time.perf_counter() - started, 3),
            "seed_streams_issued": len(ledger.issued),
            "fresh_sample_per_replicate": cfg.dataset.name in _SYNTH_BUILDERS,
        },
    }


# ---------------------------------------------------------------------------
# Config serialization (the CLI's JSON config mirrors ExperimentConfig).


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    del doc["train"]["seed"]  # train and noise seeds derive from master_seed
    doc["noise"] = cfg.noise.describe()
    del doc["noise"]["seed"]
    doc["models"] = [{"kind": "mse"} if m.c is None else {"kind": "clf", "c": m.c} for m in cfg.models]
    if cfg.net is not None:
        doc["net"]["hidden_layers"] = list(cfg.net.hidden_layers)
    return doc


def _fields_of(doc, cls, path: str) -> dict:
    """``doc`` checked to be an object whose keys are all fields of ``cls``
    and that holds every field without a default."""
    return _keys_of(doc, path, {f.name: f.default is MISSING for f in fields(cls)})


def _keys_of(doc, path: str, keys: dict[str, bool]) -> dict:
    """``doc`` checked to be an object whose keys are all in ``keys`` and
    that holds each key that ``keys`` marks as required."""
    if not isinstance(doc, dict):
        raise ValueError(f"config {path or 'document'} must be an object")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown config key {prefix + key!r}")
    for key, required in keys.items():
        if required and key not in doc:
            raise ValueError(f"missing config key {prefix + key!r}")
    return doc


def _model_from_dict(doc, path: str) -> LossSpec:
    m = _keys_of(doc, path, {"kind": True, "c": False})
    if m["kind"] not in ("mse", "clf"):
        raise ValueError(f"config key '{path}.kind' must be 'mse' or 'clf', got {m['kind']!r}")
    is_clf = m["kind"] == "clf"
    if is_clf != ("c" in m):
        raise ValueError(f"config {path}: a CLF model needs 'c' and an MSE model takes none")
    return LossSpec.clf(m["c"]) if is_clf else LossSpec.mse()


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The inverse of ``config_to_dict``; a missing key takes the dataclass
    default, and a missing key that has none, an unknown key at any level,
    or a noise parameter its family does not read, is an error naming its
    dotted path (e.g. ``models[0].kind``, ``dataset.n_sample``,
    ``noise.tau`` with Gaussian noise)."""
    top = dict(_fields_of(doc, ExperimentConfig, ""))
    top["dataset"] = DatasetSpec(**_fields_of(top["dataset"], DatasetSpec, "dataset"))
    top["noise"] = noise_spec(_fields_of(top["noise"], NoiseSpec, "noise"), "config key 'noise.{}'")
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
