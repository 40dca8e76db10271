"""End-to-end and per-layer benchmark of cauchybench.

    python3 benchmarks/run.py --workload hc2-cauchy --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root. Each round is one whole experiment run
as its own ``python -m cauchybench run`` process (``PYTHONPATH=src``);
rounds repeat until ``--seconds`` have passed, and every reported time is
the median over rounds, scaled to the reference machine's usual speed
(spawn.py, speed.py). ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` alternates an untraced round with a traced one (see
traced.py) and reports the per-layer metrics. Every results document is
checked apart from the program (checks.py), as is the behaviour
fingerprint (fingerprint.py). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import fingerprint
from spawn import read_json, run_config, spawn
from workloads import BIKE_CSV, BIKE_CSV_SEED, BIKE_ROWS, OUT_DIR, WORKLOADS, cells, config, model_steps, n_rows

SETUP_RUNS = 5


def _scores(doc: dict) -> dict:
    """Everything in a results document except its timing metadata."""
    return {k: v for k, v in doc.items() if k != "meta"}


class Run:
    """One benchmark run: its workload, the rounds made and the errors found."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.cfg = config(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict | None = None  # results of the first complete round
        self._baseline: list | None = None

    def baseline(self) -> list[list[float]] | None:
        """hc8: the constant predictor's MAE per (replicate, fold), built once."""
        if self._baseline is None and self.workload == "hc8-gaussian-pair":
            self._baseline = checks.constant_baseline(self.cfg)
        return self._baseline

    def check_round(self, proc, doc) -> None:
        """Count the round's cells and compare its scores with the first round's.

        The first document's full check waits for ``check_first``: scipy.stats
        would triple this process's RSS, and a child's peak RSS as reported by
        ``wait4`` includes the peak of the process that spawned it.
        """
        self.attempted += cells(self.cfg)
        if doc is None:
            self.failed += cells(self.cfg)
            self.errors.append(f"run exited with {proc.code}; see {proc.log}")
            return
        failed = checks.count_failed(doc, self.cfg)
        self.failed += failed
        if failed:
            return
        if self.first is None:
            self.first = doc
        elif _scores(doc) != _scores(self.first):
            self.errors.append("a rerun of the same config gave other scores")

    def check_first(self) -> None:
        """Independent checks of the first complete results document."""
        if self.first is not None:
            self.errors += checks.check_results(self.first, self.cfg)
            self.errors += checks.check_properties(self.workload, self.first, self.cfg, self.baseline())

    def check_trace(self, trace: dict | None, traced_doc: dict | None) -> None:
        """Protocol invariants seen by the traced run, and scores equal to the untraced run's."""
        if trace is None or traced_doc is None:
            self.errors.append("traced run wrote no trace or no results")
            return
        self.errors += trace["errors"]
        if self.first is None or _scores(traced_doc) != _scores(self.first):
            self.errors.append("traced scores differ from the untraced run's")
        cfg, labels = self.cfg, [checks.label(m) for m in self.cfg["models"]]
        folds = trace["folds"]
        if len(folds) != cfg["replicates"] * cfg["folds"]:
            self.errors.append(f"observer saw {len(folds)} (replicate, fold) cells")
        for fold in folds:
            if sorted(fold["models"]) != sorted(labels):
                self.errors.append(f"cell ({fold['replicate']}, {fold['fold']}) trained {fold['models']}")
        n = n_rows(cfg)
        for r in range(cfg["replicates"]):
            sizes = [f["n_test"] for f in folds if f["replicate"] == r]
            if sum(sizes) != n or max(sizes, default=0) - min(sizes, default=0) > 1:
                self.errors.append(f"replicate {r}: test folds of sizes {sizes} over {n} rows")
        if self.workload == "bike-outliers":
            p = cfg["noise"]["proportion"]
            for f in folds:
                want = int(p * f["n_train"] + 0.5)  # round half away from zero
                if f.get("targets_changed") != want:
                    self.errors.append(
                        f"cell ({f['replicate']}, {f['fold']}): {f.get('targets_changed')} training targets changed, not {want}"
                    )
        if self.baseline() is not None:
            got = [[f["baseline_mae"] for f in folds if f["replicate"] == r] for r in range(cfg["replicates"])]
            pairs = [(g, w) for gr, wr in zip(got, self.baseline()) for g, w in zip(gr, wr)]
            if not all(checks.close(g, w, checks.AGG_RTOL) for g, w in pairs):
                self.errors.append("the rebuilt hc8 folds are not the program's folds")


def _setup_s(run: Run) -> float:
    proc = spawn(["-m", "cauchybench", "--version"], "setup.log")
    if proc.code != 0:
        run.errors.append(f"`cauchybench --version` exited with {proc.code}")
    return proc.wall_s


def end_to_end(run: Run, seconds: float) -> tuple[dict[str, float], int]:
    # One set-up before each round, so set-up is sampled across the whole
    # run rather than in one burst; topped up to SETUP_RUNS at the end.
    setup, rounds = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        setup.append(_setup_s(run))
        proc, doc = run_config(run.cfg, run.workload)
        run.check_round(proc, doc)
        rounds.append(proc)
    setup += [_setup_s(run) for _ in range(SETUP_RUNS - len(setup))]
    steps = model_steps(run.cfg)
    print(f"run wall time as measured, before scaling to the reference speed: median {statistics.median(p.raw_wall_s for p in rounds):.3f} s")
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p.wall_s for p in rounds),
        "model_steps_per_s": statistics.median(steps / p.wall_s for p in rounds),
        "cpu_s": statistics.median(p.cpu_s for p in rounds),
        "peak_rss_mb": statistics.median(p.maxrss_mb for p in rounds),
    }, len(rounds)


def _median_or_0(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(run: Run, seconds: float) -> tuple[dict[str, float], int]:
    import traced

    plain, traced_walls, traces, docs = [], [], [], []
    trace_path = os.path.join(OUT_DIR, f"{run.workload}.trace.json")
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        proc, doc = run_config(run.cfg, run.workload)
        run.check_round(proc, doc)
        plain.append(proc.wall_s)
        if os.path.exists(trace_path):
            os.remove(trace_path)
        proc, doc = run_config(run.cfg, f"{run.workload}.traced", traced_out=trace_path)
        run.attempted += cells(run.cfg)
        run.failed += checks.count_failed(doc, run.cfg) if doc is not None else cells(run.cfg)
        trace = read_json(trace_path) if os.path.exists(trace_path) else None
        run.check_trace(trace, doc)
        if trace is None or doc is None:
            break
        traced_walls.append(proc.wall_s)
        traces.append(trace)
        docs.append(doc)
    if not traces:
        return {}, len(plain)
    metrics = layer_metrics(run.cfg, traces, docs)
    metrics.update(traced.replay(run.cfg))
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain)
    return metrics, len(traces)


PREP = ("harness.kfold_split", "datagen.take", "datagen.apply_noise")


def layer_metrics(cfg: dict, traces: list[dict], docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced round, pooled."""
    durations: dict[str, list[float]] = {}
    steps = prep = cli_children = 0.0
    gaps = []
    for trace in traces:
        spans = trace["spans"]
        for name, start, end, parent, info in spans:
            durations.setdefault(name, []).append(end - start)
            parent_name = spans[parent][0] if parent >= 0 else None
            steps += info if name == "nets.train" else 0
            prep += end - start if name in PREP and parent_name == "harness.run_replicate" else 0.0
            cli_children += end - start if parent_name == "cli.main" else 0.0
        obs = trace["cells"]  # (time, replicate, fold) per observer callback
        gaps += [b[0] - a[0] for a, b in zip(obs, obs[1:]) if a[1] == b[1]]
    total = {name: sum(d) for name, d in durations.items()}

    def med(name, scale):
        return _median_or_0(d * scale for d in durations.get(name, []))

    rounds = len(traces)
    pairwise = [p for doc in docs for comp in doc["comparisons"].values() for p in comp["pairwise"]]
    first = traces[0]["spans"]
    return {
        "nets.train_s": med("nets.train", 1.0),
        "nets.train_steps_per_s": steps / total["nets.train"] if "nets.train" in total else 0.0,
        "nets.predict_ms": med("nets.predict", 1e3),
        "losses.score_us": 1e6 * (total.get("losses.mae_score", 0.0) + total.get("losses.rmse_score", 0.0))
        / max(len(durations.get("nets.predict", [])), 1),
        "harness.replicate_s": med("harness.run_replicate", 1.0),
        "harness.cell_s": _median_or_0(gaps),
        "harness.fold_prep_ms": 1e3 * prep / (rounds * cfg["replicates"] * cfg["folds"]),
        "datagen.make_ms": med("datagen.make", 1e3),
        "datagen.apply_noise_ms": med("datagen.apply_noise", 1e3),
        "ingest.load_dataset_ms": med("ingest.load_dataset", 1e3),
        "ranktests.compare_ms": med("ranktests.compare_models", 1e3),
        "ranktests.exact_share": sum(p["method"] == "exact_permutation" for p in pairwise) / max(len(pairwise), 1),
        "report.save_results_ms": med("report.save_results", 1e3),
        "report.results_bytes": next((s[4] for s in first if s[0] == "report.save_results"), 0),
        "cli.self_ms": 1e3 * (total.get("cli.main", 0.0) - cli_children) / rounds,
        "harness.train_share": total.get("nets.train", 0.0) / total.get("harness.run_experiment", float("inf")),
        "nets.model_steps": steps / rounds,
        "harness.cells": len(traces[0]["cells"]),
        "ranktests.tests": sum(1 + len(c["pairwise"]) for c in docs[0]["comparisons"].values()),
    }


def prepare_inputs(workload: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    if WORKLOADS[workload]["dataset"]["name"] == "bike":
        sys.path.insert(0, os.getcwd())
        from tests._surrogate import write_surrogate_bike_csv

        write_surrogate_bike_csv(BIKE_CSV, n_rows=BIKE_ROWS, seed=BIKE_CSV_SEED)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cauchybench", "__init__.py")):
        print("error: run from the repository root: src/cauchybench not found", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload: this process's own peak RSS would
        # otherwise leak into the next workload's peak_rss_mb (see Run.check_round).
        codes = []
        for w in WORKLOADS:
            print(f"== {w}", flush=True)
            cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(cmd).returncode)
        return max(codes)

    prepare_inputs(args.workload)
    run = Run(args.workload, args.seed)
    run.errors += fingerprint.check()
    if args.trace:
        sys.path.insert(0, "src")
        metrics, rounds = per_layer(run, args.seconds)
    else:
        metrics, rounds = end_to_end(run, args.seconds)
    run.check_first()
    spec = read_json("BENCHMARK.json")["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    for name in units.keys() - metrics.keys():
        run.errors.append(f"metric {name} was not measured")
        metrics[name] = 0.0
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name:26s} {value:14.6g} {units[name]}")
    print(f"median of {rounds} rounds; operations: {run.attempted} attempted, {run.failed} failed")
    for e in run.errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
