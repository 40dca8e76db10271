"""Traced run: ``cauchybench run`` with each layer timed from outside.

    PYTHONPATH=src python3 benchmarks/traced.py TRACE_OUT run --config CFG --out RESULTS

Wraps, in this process only, the public functions the harness and the
CLI call (wherever a module of the package holds a reference to them),
passes an observer to ``run_experiment``, and writes to TRACE_OUT one
span per wrapped call plus what the observer saw of each cell. The
observer also checks the protocol invariants that need the data itself:
test folds are clean, and every model of a cell gets the same training
bytes and seed. ``replay`` times single optimizer-step layers at a
workload's net shape and batch size.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from checks import hc2_target, hc8_target
from workloads import BIKE_CSV, NET_SHAPES

TARGET_RTOL = 1e-12  # the benchmark's closed forms against the program's targets


class Tracer:
    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self.stack: list[int] = []
        self.cells: list[tuple[float, int, int]] = []  # (time, replicate, fold) per observer call
        self.folds: dict[tuple[int, int], dict] = {}
        self.errors: list[str] = []
        self.last_train: tuple[str, int] | None = None  # (data digest, seed) of the last train() call
        self.bike = load_bike_rows() if cfg["dataset"]["name"] == "bike" else None

    def wrap(self, name, f, info=None, add_observer=False):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if add_observer:  # run_experiment(cfg, observer=None)
                other = args[1] if len(args) > 1 else kwargs.get("observer")
                args, kwargs["observer"] = args[:1], self._chain(other)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = f(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if info is not None:
                span[4] = info(args, kwargs)
            return out

        return wrapper

    def _chain(self, other):
        def observer(cell):
            self.observe(cell)
            if other is not None:
                other(cell)

        return observer

    def observe(self, cell) -> None:
        self.cells.append((time.perf_counter(), cell.replicate, cell.fold))
        train, test = cell.train_data, cell.test_data
        # What train() was given for this model, else what the observer is told.
        digest, seed = self.last_train or (_digest(train), cell.train_config.seed)
        self.last_train = None
        key = (cell.replicate, cell.fold)
        fold = self.folds.get(key)
        if fold is None:
            fold = self.folds[key] = {
                "replicate": cell.replicate,
                "fold": cell.fold,
                "digest": digest,
                "seed": seed,
                "n_train": len(train),
                "n_test": len(test),
                "models": [],
                "baseline_mae": float(np.mean(np.abs(test.y - np.mean(train.y)))),
            }
            self._check_data(key, train, test, fold)
        elif (digest, seed) != (fold["digest"], fold["seed"]):
            self.errors.append(f"cell {key}: {cell.model} got other training bytes or seed")
        fold["models"].append(cell.model)

    def _check_data(self, key, train, test, fold) -> None:
        name = self.cfg["dataset"]["name"]
        if name == "bike":
            clean = [self.bike.get(tuple(row[:9])) for row in test.X]
            if any(c is None or y not in c for c, y in zip(clean, test.y)):
                self.errors.append(f"cell {key}: a test row differs from every CSV row")
            fold["targets_changed"] = sum(
                y not in self.bike.get(tuple(row[:9]), ()) for row, y in zip(train.X, train.y)
            )
        else:
            want = (hc2_target if name == "hc2" else hc8_target)(test.X)
            if not np.allclose(test.y, want, rtol=TARGET_RTOL, atol=TARGET_RTOL):
                self.errors.append(f"cell {key}: test targets differ from the closed form")

    def dump(self, path: str, code: int) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "code": code,
                    "spans": self.spans,
                    "cells": self.cells,
                    "folds": list(self.folds.values()),
                    "errors": self.errors,
                },
                fh,
            )


def _digest(data) -> str:
    return hashlib.sha256(data.X.tobytes() + data.y.tobytes()).hexdigest()


def load_bike_rows() -> dict[tuple, set]:
    """The bike CSV read with the csv module: 9 numeric features -> targets."""
    with open(BIKE_CSV, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        text = raw.decode("cp1252")
    rows = list(csv.reader(text.splitlines()))[1:]
    out: dict[tuple, set] = {}
    for row in rows:  # Date, count, Hour .. Snowfall, then three categoricals
        out.setdefault(tuple(float(v) for v in row[2:11]), set()).add(float(row[1]))
    return out


def _replace_everywhere(old, new) -> None:
    """Rebind every module-level reference (or module-level dict entry) to ``old``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "cauchybench" and not modname.startswith("cauchybench."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new


def install(tracer: Tracer) -> None:
    from cauchybench import datagen, harness, ingest, losses, nets, report

    def train_steps(args, kwargs):
        data = args[0] if args else kwargs["data"]
        tc = args[3] if len(args) > 3 else kwargs["tc"]
        tracer.last_train = (_digest(data), tc.seed)
        return tc.epochs * math.ceil(len(data) / tc.batch_size)

    def results_bytes(args, kwargs):
        return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    functions = [
        ("harness.run_experiment", harness.run_experiment, None, True),
        ("harness.run_replicate", harness.run_replicate, None, False),
        ("harness.kfold_split", harness.kfold_split, None, False),
        ("ranktests.compare_models", harness.compare_models, None, False),
        ("nets.train", nets.train, train_steps, False),
        ("losses.mae_score", losses.mae_score, None, False),
        ("losses.rmse_score", losses.rmse_score, None, False),
        ("datagen.make", datagen.make_hc2, None, False),
        ("datagen.make", datagen.make_hc8, None, False),
        ("datagen.apply_noise", datagen.apply_noise, None, False),
        ("ingest.load_dataset", ingest.load_dataset, None, False),
        ("report.save_results", report.save_results, results_bytes, False),
    ]
    for name, f, info, add_observer in functions:
        _replace_everywhere(f, tracer.wrap(name, f, info, add_observer))
    datagen.Dataset.take = tracer.wrap("datagen.take", datagen.Dataset.take)
    nets.TrainedModel.predict = tracer.wrap("nets.predict", nets.TrainedModel.predict)


def replay(cfg: dict, repeats: int = 7, calls: int = 300) -> dict[str, float]:
    """Median microseconds per call of one optimizer step's layers, replayed at
    the workload's net shape and batch size."""
    from cauchybench import losses, nets

    shape = NET_SHAPES[cfg["dataset"]["name"]]
    batch = cfg["train"]["batch_size"]
    tc = nets.TrainConfig(**cfg["train"])
    rng = np.random.default_rng(cfg["master_seed"])
    X, y = rng.normal(size=(batch, shape[0])), rng.normal(size=batch)
    params = nets.init_params(nets.NetworkConfig(shape[0], shape[1:-1]), 0)
    preds, cache = nets.forward(params, X)
    mse, clf = losses.LossSpec.mse(), losses.LossSpec.clf(10.0)
    g = losses.loss_grad(y, preds, mse) / batch
    grads = nets.backward(params, cache, g)
    state = nets.init_adam_state(params)

    def per_call_us(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append((time.perf_counter() - t0) / calls * 1e6)
        return statistics.median(times)

    return {
        "nets.forward_us": per_call_us(lambda: nets.forward(params, X)),
        "nets.backward_us": per_call_us(lambda: nets.backward(params, cache, g)),
        "nets.adam_step_us": per_call_us(lambda: nets.adam_step(params, grads, state, tc)),
        "losses.loss_grad_us.mse": per_call_us(lambda: losses.loss_grad(y, preds, mse)),
        "losses.loss_grad_us.clf": per_call_us(lambda: losses.loss_grad(y, preds, clf)),
    }


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    with open(cli_args[cli_args.index("--config") + 1]) as fh:
        tracer = Tracer(json.load(fh))
    from cauchybench import cli

    install(tracer)
    code = tracer.wrap("cli.main", cli.cli_main)(cli_args)
    tracer.dump(trace_out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
