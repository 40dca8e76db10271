"""Command-line front end.

Subcommands:
  run        execute an experiment (preset name or JSON config), write results JSON
  table      render a results JSON as a "mean (std)" score table
  compare    print the Kruskal-Wallis and pairwise rank-sum report
  influence  emit influence-curve CSV over a residual grid
  gen        export a synthetic dataset (optionally corrupted) to CSV

Exit codes: 0 success, 1 usage error (bad arguments or a bad input file), 2 runtime failure,
143 terminated by SIGTERM (``main`` turns the signal into SystemExit, so a run's forked
workers are killed and reaped and a half-written results file is removed).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace

from . import __version__
from .datagen import apply_noise, export_csv, make_hc2, make_hc8, noise_spec
from .harness import SeedLedger, config_from_dict, list_presets, preset_document, run_experiment
from .ingest import IngestionError
from .losses import LossSpec
from .report import format_table, influence_csv, load_results, save_results

__all__ = ["cli_main", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token that looks like a negative number is a value, not an
        # option. argparse's own pattern misses the exponent form, so
        # `--x0 -1e-05` would find its value missing.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits on error; surface a catchable exception instead so
    # cli_main controls the exit code.
    def error(self, message):
        raise _UsageError(message)


def _out_path(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get("CAUCHYBENCH_OUT_DIR", "."), default_name)


def _build_parser() -> _Parser:
    p = _Parser(prog="cauchybench", description=__doc__.strip().splitlines()[0])
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="execute an experiment and write results JSON")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=list_presets(), help="named experiment")
    src.add_argument("--config", help="JSON experiment config file")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--out", help="results JSON path (default: results.json in $CAUCHYBENCH_OUT_DIR or .)")
    run.add_argument("--data", help="CSV path for the bike dataset")
    run.add_argument("--schema", help="JSON column-schema sidecar for --data")
    run.add_argument("--n", type=int, help="samples per replicate (or bike subsample size)")
    run.add_argument("--folds", type=int)
    run.add_argument("--replicates", type=int)
    run.add_argument("--epochs", type=int)
    run.add_argument("--batch-size", type=int)
    run.add_argument("--learning-rate", type=float)

    table = sub.add_parser("table", help="render a results JSON as a score table")
    table.add_argument("results", help="results JSON from `run`")
    table.add_argument("--metric", choices=["mae", "rmse"], default="mae")
    table.add_argument("--format", choices=["text", "csv"], default="text")

    comp = sub.add_parser("compare", help="print rank-test comparisons from a results JSON")
    comp.add_argument("results")
    comp.add_argument("--metric", choices=["mae", "rmse"], default="mae")

    infl = sub.add_parser("influence", help="emit influence-curve CSV")
    infl.add_argument("--loss", choices=["mse", "clf", "both"], default="both")
    infl.add_argument("--c", type=float, action="append", help="CLF constant (repeatable)")
    infl.add_argument("--rmax", type=float, default=10.0)
    infl.add_argument("--steps", type=int, default=10, help="grid points per unit residual")
    infl.add_argument("--out", help="write CSV here instead of stdout")

    gen = sub.add_parser("gen", help="export a synthetic dataset to CSV")
    gen.add_argument("--dataset", choices=["hc2", "hc8"], required=True)
    gen.add_argument("--n", type=int, default=5000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="CSV path (default: <dataset>.csv)")
    gen.add_argument("--noise", choices=["none", "gaussian", "cauchy"], default="none")
    gen.add_argument("--sigma", type=float, help="Gaussian noise std")
    gen.add_argument("--tau", type=float, help="Cauchy noise scale")
    gen.add_argument("--x0", type=float, help="Cauchy location (default 0)")
    return p


# Each `run` flag that is given sets this key of the config document.
_OVERRIDES = {
    "seed": ("master_seed",),
    "n": ("dataset", "n_samples"),
    "data": ("dataset", "path"),
    "schema": ("dataset", "schema_path"),
    "folds": ("folds",),
    "replicates": ("replicates",),
    "epochs": ("train", "epochs"),
    "batch_size": ("train", "batch_size"),
    "learning_rate": ("train", "learning_rate"),
}


def _cmd_run(args) -> int:
    try:
        if args.config:
            with open(args.config) as fh:
                doc = json.load(fh)
        else:
            doc = preset_document(args.preset)
        for dest, keys in _OVERRIDES.items():
            value = getattr(args, dest)
            if value is not None:
                target = doc
                for key in keys[:-1]:
                    target = target.setdefault(key, {})
                target[keys[-1]] = value
        cfg = config_from_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise _UsageError(f"invalid config {args.config or args.preset}: {err}") from err
    out = _out_path(args, "results.json")
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise _UsageError(f"cannot write {out}: no such directory {directory}")
    if os.path.isdir(out):
        raise _UsageError(f"cannot write {out}: it is a directory")
    doc = run_experiment(cfg)
    save_results(doc, out)
    mae = doc["comparisons"].get("mae")
    kw_note = f", KW mae p={mae['kruskal_wallis']['p_value']:.4g}" if mae else ""
    print(f"wrote {out} ({len(cfg.models)} models x {cfg.replicates} replicates{kw_note})")
    return 0


def _load_results_arg(path) -> dict:
    try:
        return load_results(path)
    except ValueError as err:  # malformed JSON, or JSON that is no results document
        raise _UsageError(f"malformed results file {path}: {err}") from err


def _cmd_table(args) -> int:
    doc = _load_results_arg(args.results)
    sys.stdout.write(format_table(doc, args.metric, args.format))
    return 0


def _cmd_compare(args) -> int:
    doc = _load_results_arg(args.results)
    comp = doc.get("comparisons", {}).get(args.metric)
    if comp is None:
        raise _UsageError(f"results file has no {args.metric} comparison (single model?)")
    kw = comp["kruskal_wallis"]
    print(f"Kruskal-Wallis ({args.metric}): H={kw['statistic']:.4f} p={kw['p_value']:.5f} [{kw['method']}]")
    print("Pairwise Wilcoxon rank-sum:")
    for pair in comp["pairwise"]:
        print(
            f"  {pair['model_a']:>10} vs {pair['model_b']:<10} "
            f"U={pair['statistic']:>6.1f}  p={pair['p_value']:.5f}  [{pair['method']}]"
        )
    return 0


def _cmd_influence(args) -> int:
    if args.loss == "mse" and args.c:
        raise _UsageError("--c does not apply to --loss mse")
    try:
        specs = [LossSpec.mse()] if args.loss != "clf" else []
        if args.loss != "mse":
            specs += [LossSpec.clf(c) for c in args.c or [1.0]]
        labels = [spec.label for spec in specs]
        repeated = [label for i, label in enumerate(labels) if label in labels[:i]]
        if repeated:
            raise ValueError(f"--c gives the column {repeated[0]} twice")
        text = influence_csv(specs, args.rmax, args.steps)
    except ValueError as err:
        raise _UsageError(str(err)) from err
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args) -> int:
    maker = make_hc2 if args.dataset == "hc2" else make_hc8
    try:
        given = {k: getattr(args, k) for k in ("sigma", "x0", "tau") if getattr(args, k) is not None}
        noise = noise_spec({"family": args.noise, "seed": args.seed, **given}, "--{}")
        # the noise draws from a stream of its own, not the one that made the inputs
        noise = replace(noise, seed=SeedLedger(args.seed).derive_int("noise", 0, 0))
        ds = maker(args.n, args.seed)
        ds.y = apply_noise(ds.y, noise)
    except ValueError as err:
        raise _UsageError(str(err)) from err
    out = args.out or f"{args.dataset}.csv"
    export_csv(ds, out)
    print(f"wrote {out} ({len(ds)} rows, {ds.n_features} features)")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "table": _cmd_table,
    "compare": _cmd_compare,
    "influence": _cmd_influence,
    "gen": _cmd_gen,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, FileNotFoundError, IsADirectoryError, IngestionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main() -> None:
    import signal

    signal.signal(signal.SIGTERM, _exit_on_signal)
    sys.exit(cli_main())
