"""Behaviour fingerprint: per-cell MAE/RMSE of a small fixed experiment.

    python3 benchmarks/fingerprint.py          # check against fingerprint.json
    python3 benchmarks/fingerprint.py --write  # regenerate fingerprint.json

Run from the repository root. ``RTOL`` passes refactors that only
reorder floating-point operations, which move scores by rounding error
alone, and fails any change in behaviour. Every later edit to the
stored scores or to ``RTOL`` is justified in CHANGES.md.
"""

from __future__ import annotations

import os
import sys

from checks import check_fingerprint
from spawn import read_json, run_config, write_json
from workloads import HC_MODELS, OUT_DIR

PATH = os.path.join("benchmarks", "fingerprint.json")
RTOL = 1e-9
CONFIG = {
    "dataset": {"name": "hc2", "n_samples": 200},
    "noise": {"family": "cauchy", "x0": 0.0, "tau": 10.0},
    "models": HC_MODELS,
    "train": {"epochs": 5, "batch_size": 32},
    "folds": 3,
    "replicates": 2,
    "master_seed": 0,
}


def check() -> list[str]:
    """Run the fingerprint experiment and compare it with the stored scores."""
    stored = read_json(PATH)
    proc, doc = run_config(stored["config"], "fingerprint")
    if doc is None:
        return [f"fingerprint run exited with {proc.code}; see {proc.log}"]
    return check_fingerprint(doc, stored)


def main(argv: list[str]) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    if argv == ["--write"]:
        proc, doc = run_config(CONFIG, "fingerprint")
        if doc is None:
            print(f"fingerprint run exited with {proc.code}; see {proc.log}", file=sys.stderr)
            return 1
        write_json({"config": CONFIG, "rtol": RTOL, "cell_scores": doc["cell_scores"]}, PATH)
        print(f"wrote {PATH}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 1
    errors = check()
    for e in errors:
        print(e, file=sys.stderr)
    print("fingerprint:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
