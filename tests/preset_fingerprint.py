"""Behaviour fingerprint at preset scale: per-cell MAE/RMSE of two runs
with the presets' data sizes, folds and models.

    python tests/preset_fingerprint.py          # check against preset_fingerprint.json
    python tests/preset_fingerprint.py --write  # regenerate preset_fingerprint.json

Run as a script, it imports ``cauchybench`` from the repository's src/.

``benchmarks/fingerprint.json`` pins 200 rows at 5 epochs. This one pins
hc2-cauchy-10 at 2 replicates (5,000 rows, 10 folds, 100 epochs) and
bike-outliers-5 at 1 replicate and 20 epochs on the 8,760-row surrogate
bike CSV of ``_surrogate.py``, together about 14 s on 2 cores. ``RTOL``
is the one of ``benchmarks/fingerprint.py``. Every later edit to the
stored scores or to ``RTOL`` is justified in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

if __package__:
    from ._surrogate import write_surrogate_bike_csv
else:  # run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from _surrogate import write_surrogate_bike_csv

from cauchybench.harness import config_from_dict, preset_document, run_experiment

PATH = Path(__file__).resolve().parent / "preset_fingerprint.json"
RTOL = 1e-9
BIKE_ROWS = 8760


def _configs() -> dict[str, dict]:
    """Each run's config document; the bike one without its CSV path."""
    hc2 = preset_document("hc2-cauchy-10")
    hc2["replicates"] = 2
    bike = preset_document("bike-outliers-5")
    bike["replicates"] = 1
    bike["train"] = {"epochs": 20}
    return {"hc2-cauchy-10": hc2, "bike-outliers-5": bike}


def run_fingerprint() -> dict[str, dict]:
    """Run every config; returns, per run, its config and cell scores."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = write_surrogate_bike_csv(Path(tmp) / "bike.csv", n_rows=BIKE_ROWS)
        for name, config in _configs().items():
            doc = config
            if config["dataset"]["name"] == "bike":
                doc = {**config, "dataset": {**config["dataset"], "path": str(csv)}}
            runs[name] = {"config": config, "cell_scores": run_experiment(config_from_dict(doc))["cell_scores"]}
    return runs


def mismatches(stored: dict, runs: dict[str, dict]) -> list[str]:
    """Each cell score of ``runs`` that differs from ``stored`` by more
    than its rtol, and each difference in runs, configs or cell layout."""
    errors = []
    if sorted(runs) != sorted(stored["runs"]):
        return [f"runs {sorted(runs)} differ from the stored {sorted(stored['runs'])}"]
    for name, want in stored["runs"].items():
        got = runs[name]
        if got["config"] != want["config"]:
            errors.append(f"{name}: config {got['config']} differs from the stored {want['config']}")
            continue
        if sorted(got["cell_scores"]) != sorted(want["cell_scores"]):
            errors.append(f"{name}: models {sorted(got['cell_scores'])} differ from the stored ones")
            continue
        for model, replicates in want["cell_scores"].items():
            got_reps = got["cell_scores"][model]
            if [len(rep) for rep in got_reps] != [len(rep) for rep in replicates]:
                errors.append(f"{name} {model}: cell layout differs from the stored one")
                continue
            for r, (wrep, grep) in enumerate(zip(replicates, got_reps)):
                for f, (wcell, gcell) in enumerate(zip(wrep, grep)):
                    for metric in ("mae", "rmse"):
                        if not np.isclose(gcell[metric], wcell[metric], rtol=stored["rtol"], atol=0.0):
                            errors.append(
                                f"{name} {model} replicate {r} fold {f} {metric}: "
                                f"{gcell[metric]!r} != stored {wcell[metric]!r}"
                            )
    return errors


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        PATH.write_text(json.dumps({"rtol": RTOL, "runs": run_fingerprint()}, indent=1) + "\n")
        print(f"wrote {PATH}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 1
    errors = mismatches(json.loads(PATH.read_text()), run_fingerprint())
    for e in errors:
        print(e, file=sys.stderr)
    print("preset fingerprint:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
