"""The behaviour fingerprints, checked in-process.

``benchmarks/fingerprint.json`` holds a small fixed experiment's config,
its per-cell MAE/RMSE and the tolerance that separates a reordering of
floating-point operations from a change in behaviour. The benchmark
checks it through the CLI; these tests run the same config through
``config_from_dict`` and ``run_experiment``, and through the entry point
``python -m cauchybench run`` in a process of its own, whose forked workers
inherit its frozen heap. ``preset_fingerprint.json`` does the same at
preset scale (see ``preset_fingerprint.py``), in the slow tier.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cauchybench.cli import cli_main
from cauchybench.harness import config_from_dict, run_experiment

from .preset_fingerprint import PATH as PRESET_FINGERPRINT
from .preset_fingerprint import mismatches, run_fingerprint

FINGERPRINT = Path(__file__).resolve().parent.parent / "benchmarks" / "fingerprint.json"


def assert_matches(got, stored):
    """Each of the cell scores ``got`` is within the fingerprint's rtol of
    the stored one."""
    rtol = stored["rtol"]
    want = stored["cell_scores"]
    assert sorted(got) == sorted(want)
    for model, replicates in want.items():
        assert [len(rep) for rep in got[model]] == [len(rep) for rep in replicates]
        for r, (wrep, grep) in enumerate(zip(replicates, got[model])):
            for f, (wcell, gcell) in enumerate(zip(wrep, grep)):
                for metric in ("mae", "rmse"):
                    assert np.isclose(gcell[metric], wcell[metric], rtol=rtol, atol=0.0), (
                        model, r, f, metric, gcell[metric], wcell[metric]
                    )


def test_cell_scores_match_fingerprint():
    stored = json.loads(FINGERPRINT.read_text())
    assert_matches(run_experiment(config_from_dict(stored["config"]))["cell_scores"], stored)


def test_the_entry_point_runs_the_fingerprint(tmp_path):
    # The real entry point, in a process of its own: it sets its OpenBLAS
    # default, freezes the import-time heap and forks workers under it. Its
    # document equals the in-process run's outside meta.
    stored = json.loads(FINGERPRINT.read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(stored["config"]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "cauchybench", "run", "--config", str(config), "--out", str(tmp_path / "entry.json")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "in_process.json")]) == 0
    entry, in_process = (json.loads((tmp_path / name).read_text()) for name in ("entry.json", "in_process.json"))
    entry.pop("meta")
    in_process.pop("meta")
    assert entry == in_process
    assert_matches(entry["cell_scores"], stored)


@pytest.mark.slow
def test_cell_scores_match_preset_fingerprint():
    stored = json.loads(PRESET_FINGERPRINT.read_text())
    assert mismatches(stored, run_fingerprint()) == []
