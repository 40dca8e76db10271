"""The behaviour fingerprints, checked in-process.

``benchmarks/fingerprint.json`` holds a small fixed experiment's config,
its per-cell MAE/RMSE and the tolerance that separates a reordering of
floating-point operations from a change in behaviour. The benchmark
checks it through the CLI; this test runs the same config through
``config_from_dict`` and ``run_experiment``. ``preset_fingerprint.json``
does the same at preset scale (see ``preset_fingerprint.py``), in the
slow tier.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cauchybench.harness import config_from_dict, run_experiment

from .preset_fingerprint import PATH as PRESET_FINGERPRINT
from .preset_fingerprint import mismatches, run_fingerprint

FINGERPRINT = Path(__file__).resolve().parent.parent / "benchmarks" / "fingerprint.json"


def test_cell_scores_match_fingerprint():
    stored = json.loads(FINGERPRINT.read_text())
    rtol = stored["rtol"]
    want = stored["cell_scores"]
    got = run_experiment(config_from_dict(stored["config"]))["cell_scores"]
    assert sorted(got) == sorted(want)
    for model, replicates in want.items():
        assert [len(rep) for rep in got[model]] == [len(rep) for rep in replicates]
        for r, (wrep, grep) in enumerate(zip(replicates, got[model])):
            for f, (wcell, gcell) in enumerate(zip(wrep, grep)):
                for metric in ("mae", "rmse"):
                    assert np.isclose(gcell[metric], wcell[metric], rtol=rtol, atol=0.0), (
                        model, r, f, metric, gcell[metric], wcell[metric]
                    )


@pytest.mark.slow
def test_cell_scores_match_preset_fingerprint():
    stored = json.loads(PRESET_FINGERPRINT.read_text())
    assert mismatches(stored, run_fingerprint()) == []
