"""Shows that the output checks fail on deliberately broken documents.

    python3 benchmarks/selfcheck.py

Runs the fingerprint experiment once, then breaks a copy of its results
document in several ways; each must be reported by checks.py. Exits 1 if
a broken copy passes.
"""

from __future__ import annotations

import copy
import os
import sys

import checks
from fingerprint import CONFIG
from spawn import run_config
from workloads import OUT_DIR


def _swap_p(doc):
    pairs = doc["comparisons"]["mae"]["pairwise"]
    i = next(i for i, p in enumerate(pairs) if p["p_value"] != pairs[0]["p_value"])
    pairs[0]["p_value"], pairs[i]["p_value"] = pairs[i]["p_value"], pairs[0]["p_value"]


def _scale_cell(doc):
    doc["cell_scores"]["MSE"][0][0]["mae"] *= 1.001


def _drop_pair(doc):
    doc["comparisons"]["rmse"]["pairwise"].pop()


def _std_not_population(doc):
    agg = doc["aggregate"]["CLF_10"]["mae"]
    agg["std"] *= 2 ** 0.5  # sample std of 2 replicates


def _rmse_below_mae(doc):
    cell = doc["cell_scores"]["CLF_1"][1][2]
    cell["rmse"] = cell["mae"] / 2


def _kw_p(doc):
    doc["comparisons"]["rmse"]["kruskal_wallis"]["p_value"] *= 0.5


BREAKS = [_swap_p, _scale_cell, _drop_pair, _std_not_population, _rmse_below_mae, _kw_p]


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    proc, doc = run_config(CONFIG, "selfcheck")
    if doc is None:
        print(f"run exited with {proc.code}; see {proc.log}", file=sys.stderr)
        return 1
    status = 0
    if checks.check_results(doc, CONFIG):
        print("the unbroken document fails its checks", file=sys.stderr)
        status = 1
    for brk in BREAKS:
        broken = copy.deepcopy(doc)
        brk(broken)
        errors = checks.check_results(broken, CONFIG) + checks.check_fingerprint(
            broken, {"rtol": 1e-9, "cell_scores": doc["cell_scores"]}
        )
        print(f"{brk.__name__[1:]:20s} {'caught: ' + errors[0] if errors else 'NOT CAUGHT'}")
        status |= not errors
    return status


if __name__ == "__main__":
    sys.exit(main())
