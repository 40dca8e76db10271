import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybench.cli import _build_parser, cli_main
from cauchybench.datagen import NoiseSpec, apply_noise, make_hc2, make_hc8
from cauchybench.harness import (
    DatasetSpec,
    ExperimentConfig,
    SeedLedger,
    config_from_dict,
    config_to_dict,
    preset_document,
    run_experiment,
)
from cauchybench.nets import NetworkConfig
from cauchybench.ingest import ColumnSchema, Role, load_dataset
from cauchybench.losses import LossSpec
from cauchybench.nets import TrainConfig
from cauchybench.report import (
    MAX_GRID_POINTS,
    format_table,
    influence_csv,
    load_results,
    save_results,
)


def load_gen_csv(path, n_features):
    """A `gen` CSV read back through ingest with an all-numeric schema."""
    schema = [ColumnSchema(f"x{i}", Role.NUMERIC) for i in range(1, n_features + 1)]
    return load_dataset(path, schema + [ColumnSchema("y", Role.TARGET)])


def small_result(noise=NoiseSpec("none"), seed=5):
    cfg = ExperimentConfig(
        dataset=DatasetSpec(name="hc2", n_samples=50),
        noise=noise,
        models=(LossSpec.clf(1.0), LossSpec.mse()),
        train=TrainConfig(epochs=2, batch_size=16, seed=0),
        folds=2,
        replicates=2,
        master_seed=seed,
    )
    return run_experiment(cfg)


# The smallest documents the report commands accept, and the fields they read.
MINIMAL_DOC = {"schema": "cauchybench-results-v1", "models": ["A"], "aggregate": {}, "comparisons": {}}
A_AGGREGATE = {"A": {m: {"mean": 1.0, "std": 0.0} for m in ("mae", "rmse")}}
KW_ENTRY = {"statistic": 1.0, "p_value": 0.5, "method": "chi_square"}


def with_comparison(comparison):
    return {**MINIMAL_DOC, "aggregate": A_AGGREGATE, "comparisons": {"mae": comparison}}


class TestFormatTable:
    def test_text_table_flags_minimum(self):
        doc = small_result()
        text = format_table(doc, "mae")
        assert "MSE" in text and "CLF_1" in text
        assert text.count(" *") == 1
        best = min(doc["models"], key=lambda m: doc["aggregate"][m]["mae"]["mean"])
        flagged = [ln for ln in text.splitlines() if ln.endswith("*")]
        assert len(flagged) == 1 and flagged[0].startswith(best)

    def test_round_trip_to_printed_precision(self):
        doc = small_result()
        text = format_table(doc, "rmse", fmt="csv")
        for line in text.strip().splitlines()[1:]:
            model, mean, std, _ = line.split(",")
            assert float(mean) == pytest.approx(doc["aggregate"][model]["rmse"]["mean"], abs=5e-4)
            assert float(std) == pytest.approx(doc["aggregate"][model]["rmse"]["std"], abs=5e-4)

    def test_pure_function_of_document(self):
        doc = small_result()
        assert format_table(doc, "mae") == format_table(json.loads(json.dumps(doc)), "mae")

    def test_bad_metric_or_format(self):
        doc = small_result()
        with pytest.raises(ValueError):
            format_table(doc, "nope")
        with pytest.raises(ValueError):
            format_table(doc, "mae", fmt="yaml")


class TestInfluenceCsv:
    def test_grid_density_semantics(self):
        text = influence_csv([LossSpec.clf(1.0)], rmax=10.0, steps_per_unit=5)
        rows = [line.split(",") for line in text.strip().splitlines()]
        assert rows[0] == ["r", "CLF_1"]
        rs = [float(r[0]) for r in rows[1:]]
        assert len(rs) == 51  # 0..10 with spacing 1/5
        assert rs[0] == 0.0 and rs[-1] == 10.0
        at_one = next(r for r in rows[1:] if float(r[0]) == 1.0)
        assert float(at_one[1]) == 0.5  # CLF influence peak c/2

    def test_closed_forms_pointwise(self):
        text = influence_csv([LossSpec.mse(), LossSpec.clf(2.0)], rmax=4.0, steps_per_unit=8)
        for line in text.strip().splitlines()[1:]:
            r, mse_v, clf_v = (float(v) for v in line.split(","))
            assert mse_v == pytest.approx(2 * r, abs=1e-12)
            assert clf_v == pytest.approx(4.0 * r / (4.0 + r * r), abs=1e-12)

    def test_validation(self):
        for rmax in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite rmax"):
                influence_csv([LossSpec.mse()], rmax=rmax, steps_per_unit=5)

    @pytest.mark.parametrize("rmax, steps", [(1e8, 10), (1e17, 1000), (1e308, 10)])
    def test_grid_beyond_the_cap_is_refused_before_allocating(self, rmax, steps):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {MAX_GRID_POINTS} points"):
                influence_csv([LossSpec.mse()], rmax=rmax, steps_per_unit=steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_cap_counts_points(self, monkeypatch):
        import cauchybench.report as report

        monkeypatch.setattr(report, "MAX_GRID_POINTS", 11)
        for rmax in (1.0, 1.05):  # 10 and 10.5 intervals round to 10: 11 points
            assert len(influence_csv([LossSpec.mse()], rmax=rmax, steps_per_unit=10).splitlines()) == 12
        for rmax, steps in ((1.06, 10), (1.1, 10), (0.05, 12)):  # 12 points and more, or 12 per unit
            with pytest.raises(ValueError, match="at most 11 points"):
                influence_csv([LossSpec.mse()], rmax=rmax, steps_per_unit=steps)


class TestSaveLoadResults:
    def test_round_trip(self, tmp_path):
        doc = small_result()
        path = tmp_path / "r.json"
        save_results(doc, path)
        assert load_results(path) == json.loads(json.dumps(doc))

    def test_failed_write_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "r.json"
        save_results(small_result(), path)
        before = path.read_bytes()
        # json.dump has written the first keys when it meets the object.
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_results({"models": ["MSE"], "meta": object()}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_first_write_that_fails_leaves_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            save_results({"meta": {1, 2}}, tmp_path / "r.json")
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_run_preset_shape(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli_main(
            [
                "run", "--preset", "hc2-negative", "--seed", "42", "--out", str(out),
                "--n", "60", "--epochs", "2", "--folds", "3",
            ]
        )
        assert code == 0
        doc = load_results(out)
        assert len(doc["models"]) == 6
        for m in doc["models"]:
            assert len(doc["replicate_scores"][m]["mae"]) == 5
        assert "6 models x 5 replicates" in capsys.readouterr().out

    def test_run_config_file(self, tmp_path):
        cfg = ExperimentConfig(
            dataset=DatasetSpec(name="hc2", n_samples=40),
            noise=NoiseSpec("gaussian", sigma=1.0),
            models=(LossSpec.mse(), LossSpec.clf(10.0)),
            train=TrainConfig(epochs=1, seed=0),
            folds=2,
            replicates=1,
            master_seed=7,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        out = tmp_path / "r.json"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = load_results(out)
        assert doc["config"]["noise"]["sigma"] == 1.0

    def test_table_and_compare_commands(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        save_results(small_result(), out)
        assert cli_main(["table", str(out), "--metric", "mae"]) == 0
        text = capsys.readouterr().out
        assert "Model" in text and "*" in text
        assert cli_main(["compare", str(out), "--metric", "mae"]) == 0
        text = capsys.readouterr().out
        assert "Kruskal-Wallis" in text and "CLF_1" in text

    @pytest.mark.parametrize("command", ["table", "compare"])
    @pytest.mark.parametrize("content", ["{}", "[1]"])
    def test_json_that_is_no_results_document_exits_1(self, tmp_path, capsys, command, content):
        path = tmp_path / "r.json"
        path.write_text(content)
        assert cli_main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a cauchybench results document" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, doc, names",
        [
            ("table", MINIMAL_DOC, "aggregate"),
            ("compare", {**MINIMAL_DOC, "comparisons": {"mae": {}}}, "aggregate"),
            ("compare", {**MINIMAL_DOC, "aggregate": A_AGGREGATE, "comparisons": {"mae": {}}}, "kruskal_wallis"),
            ("compare", with_comparison({"kruskal_wallis": {}, "pairwise": []}), "kruskal_wallis"),
            ("compare", with_comparison({"kruskal_wallis": KW_ENTRY, "pairwise": {}}), "pairwise"),
            ("compare", with_comparison({"kruskal_wallis": KW_ENTRY, "pairwise": [KW_ENTRY]}), "pairwise"),
            ("table", {**MINIMAL_DOC, "models": []}, "models"),
            ("table", {**MINIMAL_DOC, "models": [1]}, "models"),
            ("table", {**MINIMAL_DOC, "aggregate": {"A": {"mae": {"mean": 1.0, "std": "0"}}}}, "aggregate"),
            ("table", {**MINIMAL_DOC, "aggregate": {"A": {**A_AGGREGATE["A"], "rmse": {"mean": True, "std": 0.0}}}}, "aggregate"),
        ],
    )
    def test_document_lacking_a_field_read_exits_1(self, tmp_path, capsys, command, doc, names):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=names):
            load_results(path)
        assert cli_main([command, str(path), "--metric", "mae"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed results file") and names in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_document_with_every_field_read_loads(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(with_comparison({"kruskal_wallis": KW_ENTRY, "pairwise": []})))
        assert cli_main(["table", str(path), "--metric", "mae"]) == 0
        assert cli_main(["compare", str(path), "--metric", "mae"]) == 0
        assert "Kruskal-Wallis (mae)" in capsys.readouterr().out

    def test_influence_command_peak_row(self, tmp_path):
        out = tmp_path / "infl.csv"
        code = cli_main(
            ["influence", "--loss", "clf", "--c", "1", "--rmax", "10", "--steps", "5",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        at_one = next(line for line in lines[1:] if float(line.split(",")[0]) == 1.0)
        assert float(at_one.split(",")[1]) == 0.5

    def test_gen_command_round_trip(self, tmp_path):
        out = tmp_path / "d.csv"
        assert cli_main(["gen", "--dataset", "hc2", "--n", "30", "--seed", "3",
                         "--out", str(out)]) == 0
        ds = load_gen_csv(out, 2)
        assert len(ds) == 30 and ds.n_features == 2

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(
        dataset=st.sampled_from(["hc2", "hc8"]),
        n=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
        noise=st.one_of(
            st.just(("none", {})),
            st.builds(lambda s: ("gaussian", {"sigma": s}), st.floats(1e-3, 1e3)),
            st.builds(
                lambda t, x0: ("cauchy", {"tau": t, "x0": x0}), st.floats(1e-3, 1e3), st.floats(-1e3, 1e3)
            ),
        ),
    )
    def test_gen_output_round_trips_through_ingest(self, dataset, n, seed, noise):
        # What `gen` writes, ingest reads back as make_* plus apply_noise
        # with the derived noise seed, bit for bit.
        family, params = noise
        flags = [arg for k, v in params.items() for arg in (f"--{k}", repr(v))]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "d.csv"
            args = ["gen", "--dataset", dataset, "--n", str(n), "--seed", str(seed), "--noise", family]
            assert cli_main([*args, *flags, "--out", str(out)]) == 0
            ds = load_gen_csv(out, 2 if dataset == "hc2" else 8)
        want = (make_hc2 if dataset == "hc2" else make_hc8)(n, seed)
        noise_seed = SeedLedger(seed).derive_int("noise", 0, 0)
        want_y = apply_noise(want.y, NoiseSpec(family, seed=noise_seed, **params))
        assert ds.X.tobytes() == want.X.tobytes()
        assert ds.y.tobytes() == want_y.tobytes()

    def test_gen_noise_draws_from_a_stream_of_its_own(self, tmp_path, capsys):
        # Seeded with --seed itself, the Cauchy noise of row i would be
        # tan(pi (u_i - 1/2)) of the uniform that made the row's inputs.
        out = tmp_path / "d.csv"
        args = ["gen", "--dataset", "hc2", "--n", "6", "--seed", "0", "--noise", "cauchy", "--tau", "1"]
        assert cli_main([*args, "--out", str(out)]) == 0
        capsys.readouterr()
        y = load_gen_csv(out, 2).y
        clean = make_hc2(6, 0).y
        derived = NoiseSpec("cauchy", tau=1.0, seed=SeedLedger(0).derive_int("noise", 0, 0))
        assert y.tobytes() == apply_noise(clean, derived).tobytes()
        assert not np.any(y == apply_noise(clean, NoiseSpec("cauchy", tau=1.0, seed=0)))

    def test_gen_at_a_huge_tau_writes_finite_targets_without_a_warning(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        args = ["gen", "--dataset", "hc2", "--n", "3", "--noise", "cauchy", "--tau", "1e308"]
        assert cli_main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(load_gen_csv(out, 2).y))

    def test_negative_exponent_form_is_a_value(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        args = ["gen", "--dataset", "hc2", "--n", "5", "--noise", "cauchy", "--tau", "1"]
        assert cli_main([*args, "--x0", "-1e-05", "--out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["gen", "--dataset", "hc2", "--noise", "gaussian", "--sigma", "-1e-3"], "sigma > 0"),
            (["run", "--preset", "hc2-negative", "--learning-rate", "-1e-3"], "learning_rate must be > 0"),
            (["influence", "--loss", "clf", "--c", "-1e-3"], "CLF constant"),
        ],
    )
    def test_negative_exponent_form_gets_its_range_error(self, tmp_path, capsys, monkeypatch, args, message):
        import cauchybench.cli as cli

        def must_not_run(cfg):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        out = tmp_path / "out"
        assert cli_main([*args, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_gen_gaussian_needs_sigma(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert cli_main(["gen", "--dataset", "hc2", "--noise", "gaussian", "--out", str(out)]) == 1
        assert "sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_cauchy_corrupts_only_the_targets(self, tmp_path, capsys):
        base = ["gen", "--dataset", "hc8", "--n", "40", "--seed", "5"]
        clean, noisy = tmp_path / "clean.csv", tmp_path / "noisy.csv"
        assert cli_main(base + ["--out", str(clean)]) == 0
        assert cli_main(base + ["--noise", "cauchy", "--tau", "10", "--out", str(noisy)]) == 0
        a, b = load_gen_csv(clean, 8), load_gen_csv(noisy, 8)
        assert np.array_equal(a.X, b.X)
        assert np.all(a.y != b.y)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "noise, flags",
        [
            ("none", ["--sigma", "2"]),
            ("cauchy", ["--tau", "1", "--sigma", "2"]),
            ("gaussian", ["--sigma", "2", "--tau", "1"]),
            ("gaussian", ["--sigma", "2", "--x0", "1"]),
        ],
    )
    def test_gen_rejects_a_flag_its_noise_does_not_read(self, tmp_path, capsys, noise, flags):
        out = tmp_path / "d.csv"
        args = ["gen", "--dataset", "hc2", "--n", "10", "--noise", noise, *flags, "--out", str(out)]
        assert cli_main(args) == 1
        assert capsys.readouterr().err == f"error: {flags[-2]} does not apply to {noise} noise\n"
        assert not out.exists()

    @pytest.mark.parametrize("rmax", ["inf", "nan"])
    def test_influence_non_finite_rmax_is_usage_error(self, tmp_path, capsys, rmax):
        out = tmp_path / "infl.csv"
        assert cli_main(["influence", "--rmax", rmax, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: need a finite rmax > 0 and steps_per_unit >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--rmax", "1e8"], ["--rmax", "1e17", "--steps", "1000"], ["--steps", str(10**400)]]
    )
    def test_influence_grid_beyond_the_cap_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "infl.csv"
        assert cli_main(["influence", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: the grid may hold at most {MAX_GRID_POINTS} points; lower rmax or steps_per_unit\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("c", ["1e200", "1e-200", "-1", "0"])
    def test_influence_bad_constant_is_usage_error(self, tmp_path, capsys, c):
        out = tmp_path / "infl.csv"
        assert cli_main(["influence", "--loss", "clf", "--c", c, "--out", str(out)]) == 1
        assert "CLF constant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--loss", "mse", "--c", "5"], "--c does not apply to --loss mse"),
            (["--loss", "clf", "--c", "5", "--c", "5"], "--c gives the column CLF_5 twice"),
            (["--c", "1", "--c", "1.0"], "--c gives the column CLF_1 twice"),
        ],
    )
    def test_influence_unread_or_repeated_constant_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "infl.csv"
        assert cli_main(["influence", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_usage_errors_exit_1(self, tmp_path, capsys):
        assert cli_main(["run", "--preset", "definitely-not-real"]) == 1
        assert cli_main(["table", str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["run", "--config", str(bad)]) == 1
        assert cli_main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_out_in_a_missing_directory_fails_before_training(self, tmp_path, capsys, monkeypatch):
        import cauchybench.cli as cli

        def must_not_run(cfg):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        out = tmp_path / "missing_dir" / "r.json"
        assert cli_main(["run", "--preset", "hc2-negative", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write {out}: no such directory {out.parent}" in err
        assert ".tmp" not in err
        assert not out.parent.exists()

    def test_out_that_is_a_directory_fails_before_training(self, tmp_path, capsys, monkeypatch):
        import cauchybench.cli as cli

        def must_not_run(cfg):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        assert cli_main(["run", "--preset", "hc2-negative", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: it is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_zero_override_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli_main(["run", "--preset", "hc2-negative", "--folds", "0", "--out", str(out)]) == 1
        assert "folds" in capsys.readouterr().err
        assert not out.exists()

    def test_misspelled_config_key_is_usage_error(self, tmp_path, capsys):
        doc = config_to_dict(
            ExperimentConfig(
                dataset=DatasetSpec(name="hc2", n_samples=40),
                noise=NoiseSpec("none"),
                models=(LossSpec.mse(),),
                folds=2,
                replicates=1,
            )
        )
        doc["dataset"]["n_sample"] = 100
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 1
        assert "dataset.n_sample" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            *((path, None, f"missing config key '{path}'") for path in (
                "dataset", "noise", "models", "models[1].kind",
                "dataset.name", "noise.family", "net.input_dim", "net.hidden_layers",
            )),
            ("models[1].kind", "cauchy", "config key 'models[1].kind' must be 'mse' or 'clf', got 'cauchy'"),
        ],
    )
    def test_missing_key_or_unknown_kind_names_its_path(self, tmp_path, capsys, path, value, message):
        doc = typed_config_doc()
        target, key = key_parent(doc, path)
        if value is None:
            del target[key]
        else:
            target[key] = value
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: invalid config {cfg_path}: {message}\n"
        assert not out.exists()

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            dataset=DatasetSpec(name="hc2", n_samples=400),
            noise=NoiseSpec("none"),
            models=(LossSpec.mse(), LossSpec.clf(10.0)),
            train=TrainConfig(epochs=50, batch_size=32, learning_rate=0.001, seed=0),
            folds=5,
            replicates=4,
            master_seed=1,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        out = tmp_path / "r.json"
        code = cli_main(
            [
                "run", "--config", str(cfg_path), "--out", str(out), "--seed", "7",
                "--n", "40", "--folds", "2", "--replicates", "1", "--epochs", "2",
                "--batch-size", "8", "--learning-rate", "0.01",
            ]
        )
        assert code == 0
        echo = load_results(out)["config"]
        assert echo["master_seed"] == 7
        assert echo["dataset"]["n_samples"] == 40
        assert (echo["folds"], echo["replicates"]) == (2, 1)
        assert echo["train"]["epochs"] == 2
        assert echo["train"]["batch_size"] == 8
        assert echo["train"]["learning_rate"] == 0.01
        capsys.readouterr()

    def test_data_flag_overrides_config_path(self, tmp_path, capsys):
        from ._surrogate import write_surrogate_bike_csv

        csv = write_surrogate_bike_csv(tmp_path / "b.csv", n_rows=90)
        doc = {
            "dataset": {"name": "bike", "path": "elsewhere.csv"},
            "noise": {"family": "none"},
            "models": [{"kind": "mse"}],
            "train": {"epochs": 1},
            "folds": 2,
            "replicates": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert cli_main(["run", "--config", str(cfg_path), "--data", str(csv), "--out", str(out)]) == 0
        assert load_results(out)["config"]["dataset"]["path"] == str(csv)
        capsys.readouterr()

    def test_config_keeps_its_seed_without_the_flag(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            dataset=DatasetSpec(name="hc2", n_samples=40),
            noise=NoiseSpec("none"),
            models=(LossSpec.mse(),),
            train=TrainConfig(epochs=1, seed=0),
            folds=2,
            replicates=1,
            master_seed=13,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        out = tmp_path / "r.json"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert load_results(out)["config"]["master_seed"] == 13
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--data", "--schema"])
    def test_file_flags_with_synthetic_preset_exit_1(self, tmp_path, capsys, flag):
        out = tmp_path / "r.json"
        assert cli_main(["run", "--preset", "hc2-negative", flag, "x", "--out", str(out)]) == 1
        assert "path" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [[1], {"dataset": 3}, {"train": None}])
    def test_override_into_malformed_config_exits_1(self, tmp_path, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        args = ["run", "--config", str(cfg_path), "--n", "5", "--epochs", "1"]
        assert cli_main(args + ["--out", str(tmp_path / "r.json")]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_runtime_failure_exit_2(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            dataset=DatasetSpec(name="hc2", n_samples=40),
            noise=NoiseSpec("none"),
            models=(LossSpec.mse(),),
            train=TrainConfig(epochs=2, learning_rate=1e80, seed=0),
            folds=2,
            replicates=1,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "diverged" in err and "non-finite" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--preset", "hc2-negative", "--n", "5", "--folds", "10"], "got folds=10, n_samples=5"),
            (["--config", "{config}"], "configured net expects 3 features, hc2 has 2"),
        ],
        ids=["folds-over-n", "net-width"],
    )
    def test_a_config_that_does_not_fit_its_data_exits_1_before_training(
        self, tmp_path, capsys, monkeypatch, args, message
    ):
        def no_run(cfg, observer=None):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr("cauchybench.cli.run_experiment", no_run)
        doc = typed_config_doc()
        set_key(doc, "net.input_dim", 3)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        args = [arg.format(config=config) for arg in args]
        assert cli_main(["run", *args, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config") and message in err

    BIKE = ["run", "--preset", "bike-negative", "--data"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["run", "--config", "{tmp}/missing.json"], "No such file or directory"),
            (["table", "{tmp}/missing.json"], "No such file or directory"),
            (["compare", "{tmp}/missing.json"], "No such file or directory"),
            ([*BIKE, "{tmp}/missing.csv"], "no such file"),
            ([*BIKE, "{csv}", "--schema", "{tmp}/missing.json"], "No such file or directory"),
            ([*BIKE, "{tmp}/short.csv"], "header has no column matching 'Rented Bike Count'"),
            ([*BIKE, "{csv}", "--schema", "{tmp}/dict.json"], "a schema must be a JSON list"),
            ([*BIKE, "{csv}", "--schema", "{tmp}/text.json"], "is not JSON"),
            ([*BIKE, "{csv}", "--schema", "{tmp}/role.json"], "unknown column role 'label'"),
            ([*BIKE, "{csv}", "--schema", "{tmp}/no_target.json"], "exactly one target column, found 0"),
            ([*BIKE, "{csv}", "--n", "100000"], "n_samples=100000 exceeds the 975 rows"),
            ([*BIKE, "{csv}", "--folds", "5000"], "got k=5000, n=975"),
            (["run", "--config", "{tmp}/wide.json"], "configured net expects 3 features, data has 17"),
            ([*BIKE, "{tmp}"], "Is a directory"),
            (["run", "--config", "{tmp}"], "Is a directory"),
            ([*BIKE, "{tmp}/big.csv"], "big.csv: row 3: field larger than field limit (131072)"),
            ([*BIKE, "{tmp}/bad.csv"], "bad.csv: neither UTF-8 nor cp1252 text: 'charmap' codec"),
        ],
        ids=["config", "table", "compare", "data", "schema", "header", "sidecar", "sidecar-not-json",
             "sidecar-role", "sidecar-no-target", "n-over-rows", "folds-over-rows", "net-width",
             "data-directory", "config-directory", "field-over-csv-limit", "undecodable-csv"],
    )
    def test_a_bad_input_file_exits_1_before_training(
        self, tmp_path, capsys, monkeypatch, bike_975, args, message
    ):
        def no_training(*args):
            raise AssertionError("train_folds was called")

        monkeypatch.setattr("cauchybench.harness.train_folds", no_training)
        (tmp_path / "short.csv").write_text("Date,Hour\n01/01/2018,0\n")
        (tmp_path / "dict.json").write_text(json.dumps({"Date": "dropped"}))
        (tmp_path / "text.json").write_text("{not json")
        (tmp_path / "role.json").write_text(json.dumps([{"name": "Date", "role": "label"}]))
        (tmp_path / "no_target.json").write_text(json.dumps([{"name": "Hour", "role": "numeric_feature"}]))
        doc = {**preset_document("bike-negative"), "net": {"input_dim": 3, "hidden_layers": [14, 14]}}
        doc["dataset"]["path"] = str(bike_975)
        (tmp_path / "wide.json").write_text(json.dumps(doc))
        lines = bike_975.read_bytes().splitlines(keepends=True)
        lines[3] = b"x" * 200_000 + lines[3]  # data row 3's first field, past the csv module's limit
        (tmp_path / "big.csv").write_bytes(b"".join(lines))
        (tmp_path / "bad.csv").write_bytes(b"x1,y\n1\x81,2\n")  # 0x81 is neither UTF-8 nor cp1252
        out = tmp_path / "r.json"
        args = [arg.format(tmp=tmp_path, csv=bike_975) for arg in args]
        if args[0] == "run":
            args += ["--out", str(out)]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_readme_cli_examples_parse(self):
        # Each `cauchybench ...` line of README's CLI block goes through the
        # real parser, so a renamed or removed flag fails here first.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("cauchybench ")]
        assert len(lines) == 8
        parser = _build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line)[1:])
            assert args.command == shlex.split(line)[1], line


def _children(pid: int) -> set[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return {int(child) for child in fh.read().split()}
    except FileNotFoundError:
        return set()


def _catches_sigterm(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as fh:
            caught = next(line for line in fh if line.startswith("SigCgt:"))
    except FileNotFoundError:
        return False
    return bool(int(caught.split()[1], 16) >> (signal.SIGTERM - 1) & 1)


def test_sigterm_ends_a_run_with_its_workers(tmp_path):
    # `timeout`, `kill` and CI cancellation send SIGTERM. The entry point
    # exits with 128 + 15, after killing and reaping its forked workers,
    # and leaves no temporary results file behind.
    doc = preset_document("hc2-negative")
    doc["dataset"]["n_samples"] = 2000
    doc.update(replicates=4, folds=3)
    doc["train"] = {"epochs": 6000}
    config = tmp_path / "long.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    src = str(Path(__file__).resolve().parents[1] / "src")
    # The run gets at most 2 CPUs. With 2 it forks 2 workers, which it does
    # only after the entry point has set its handlers; with one it trains alone.
    cpus = sorted(os.sched_getaffinity(0))[:2]
    forks = len(cpus) == 2
    proc = subprocess.Popen(
        [sys.executable, "-m", "cauchybench", "run", "--config", str(config), "--out", str(out / "r.json")],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    children = set()
    try:
        deadline = time.monotonic() + 60
        while proc.poll() is None and time.monotonic() < deadline:
            children |= _children(proc.pid)
            if (len(children) >= 2) if forks else _catches_sigterm(proc.pid):
                break
            time.sleep(0.05)
        assert proc.poll() is None, proc.stderr.read().decode()[-2000:]
        assert len(children) == (2 if forks else 0)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(os.path.exists(f"/proc/{child}") for child in children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [child for child in children if os.path.exists(f"/proc/{child}")]
        assert list(out.iterdir()) == []
    finally:
        for child in children:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


@pytest.fixture(scope="module")
def bike_975(tmp_path_factory):
    """The 975-row surrogate bike CSV the benchmark's bike workload reads."""
    from ._surrogate import write_surrogate_bike_csv

    return write_surrogate_bike_csv(tmp_path_factory.mktemp("bike") / "bike.csv", n_rows=975)


def typed_config_doc():
    """A small config document with every numeric field present."""
    return config_to_dict(
        ExperimentConfig(
            dataset=DatasetSpec(name="hc2", n_samples=40),
            noise=NoiseSpec("gaussian", sigma=1.0),
            models=(LossSpec.mse(), LossSpec.clf(10.0)),
            net=NetworkConfig(2, (4,)),
            train=TrainConfig(epochs=1, batch_size=16, seed=0),
            folds=2,
            replicates=1,
            master_seed=7,
        )
    )


def key_parent(doc, dotted):
    """The object that holds the key at ``dotted``, and that key."""
    *parents, last = dotted.replace("[1]", ".1").split(".")
    for key in parents:
        doc = doc[int(key)] if key.isdigit() else doc[key]
    return doc, last


def set_key(doc, dotted, value):
    target, key = key_parent(doc, dotted)
    target[key] = value


class TestConfigNumberTypes:
    CASES = [
        ("train.epochs", 2.5),
        ("train.epochs", True),
        ("train.epochs", "2"),
        ("train.batch_size", 16.5),
        ("replicates", 1.5),
        ("replicates", False),
        ("dataset.n_samples", 40.5),
        ("net.input_dim", 2.5),
        ("master_seed", 7.5),
        ("folds", 2.5),
        ("net.hidden_layers", "12"),
        ("net.hidden_layers", [10.7]),
        ("net.hidden_layers", [True]),
        ("models[1].c", True),
        ("models[1].c", "10"),
        ("train.learning_rate", "0.01"),
        ("train.beta1", False),
        ("noise.sigma", True),
        ("noise.sigma", "1"),
    ]

    @pytest.mark.parametrize("key, value", CASES)
    def test_wrong_type_fails_in_config_from_dict_and_exits_1(self, tmp_path, capsys, key, value):
        doc = typed_config_doc()
        set_key(doc, key, value)
        field = key.split(".")[-1]
        with pytest.raises(ValueError, match=field):
            config_from_dict(doc)
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config") and field in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("noise.x0", float("nan")),
        ("noise.x0", float("inf")),
        ("noise.tau", float("inf")),
        ("noise.sigma", float("nan")),
        ("noise.sigma", float("inf")),
        ("train.learning_rate", float("inf")),
        ("train.learning_rate", float("nan")),
        ("train.epsilon", float("inf")),
        ("train.epsilon", float("nan")),
    ])
    def test_non_finite_real_fails_naming_its_field_and_exits_1(self, tmp_path, capsys, key, value):
        doc = typed_config_doc()
        if key in ("noise.x0", "noise.tau"):
            doc["noise"] = {"family": "cauchy", "x0": 0.0, "tau": 1.0}
        set_key(doc, key, value)
        field = key.split(".")[-1]
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            config_from_dict(doc)
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg_path.write_text(json.dumps(doc))  # written as NaN / Infinity, which json reads back
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config") and f"{field} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("path", 5), ("schema_path", 5), ("schema_path", ["s.json"])])
    def test_dataset_paths_must_be_strings(self, tmp_path, capsys, field, value):
        doc = typed_config_doc()
        doc["dataset"] = {"name": "bike", "path": "b.csv", field: value}
        with pytest.raises(ValueError, match=f"{field} must be a string or null"):
            config_from_dict(doc)
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", ["gaussien", ["gaussian"], None, 5])
    def test_unknown_noise_family_exits_1_listing_the_families(self, tmp_path, capsys, family):
        doc = typed_config_doc()
        doc["noise"] = {"family": family}
        message = f"unknown noise family {family!r}; expected one of none, gaussian, cauchy, uniform_outlier"
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(doc)
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_integral_floats_are_stored_as_ints(self):
        doc = typed_config_doc()
        for key in ("train.epochs", "train.batch_size", "replicates", "dataset.n_samples",
                    "net.input_dim", "master_seed", "folds"):
            set_key(doc, key, 2.0)
        doc["net"]["hidden_layers"] = [4.0]
        cfg = config_from_dict(doc)
        ints = (cfg.train.epochs, cfg.train.batch_size, cfg.replicates, cfg.dataset.n_samples,
                cfg.net.input_dim, cfg.master_seed, cfg.folds, *cfg.net.hidden_layers)
        assert ints == (2, 2, 2, 2, 2, 2, 2, 4)
        assert all(type(v) is int for v in ints)

    def test_malformed_schema_sidecar_prints_an_error(self, tmp_path, capsys):
        from ._surrogate import write_surrogate_bike_csv

        csv = write_surrogate_bike_csv(tmp_path / "b.csv", n_rows=60)
        schema = tmp_path / "schema.json"
        out = tmp_path / "r.json"
        args = ["run", "--preset", "bike-negative", "--data", str(csv), "--schema", str(schema),
                "--out", str(out)]
        for doc, where in (([{"name": "Date", "role": "dropped"}, {"role": "target"}], "entry 1"),
                           ({"Date": "dropped"}, "JSON list")):
            schema.write_text(json.dumps(doc))
            assert cli_main(args) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and where in err
            assert not out.exists()
