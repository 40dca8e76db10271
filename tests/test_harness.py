import re

import numpy as np
import pytest

from cauchybench.datagen import NoiseFamily, NoiseSpec, target_y1
from cauchybench.harness import (
    BIKE_CLF_GRID,
    HC_CLF_GRID,
    DatasetSpec,
    ExperimentConfig,
    SeedLedger,
    compare_models,
    config_from_dict,
    config_to_dict,
    kfold_split,
    list_presets,
    preset_document,
    run_experiment,
    run_replicate,
)
from cauchybench.losses import LossSpec
from cauchybench.nets import TrainConfig, TrainingDiverged

from ._surrogate import write_surrogate_bike_csv

TINY_TRAIN = TrainConfig(epochs=2, batch_size=16, seed=0)


def preset_config(name, dataset=(), **top):
    """``preset_document(name)`` with the given dataset and top-level keys set."""
    doc = preset_document(name)
    doc["dataset"].update(dataset)
    doc.update(top)
    return config_from_dict(doc)


def tiny_config(noise=NoiseSpec(NoiseFamily.NONE), models=None, **kw):
    return ExperimentConfig(
        dataset=DatasetSpec(name="hc2", n_samples=60),
        noise=noise,
        models=tuple(models or (LossSpec.mse(), LossSpec.clf(1.0))),
        train=TINY_TRAIN,
        folds=kw.pop("folds", 3),
        replicates=kw.pop("replicates", 2),
        master_seed=kw.pop("master_seed", 42),
        **kw,
    )


class TestKfoldSplit:
    def test_each_fold_single_index(self):
        folds = kfold_split(10, 10, seed=0)
        assert all(len(test) == 1 for _, test in folds)

    def test_partition_property(self):
        folds = kfold_split(37, 5, seed=1)
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(37))
        sizes = [len(test) for _, test in folds]
        assert max(sizes) - min(sizes) <= 1
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0
            assert len(train) + len(test) == 37

    def test_equal_sizes_at_5000_by_10(self):
        folds = kfold_split(5000, 10, seed=2)
        assert all(len(test) == 500 for _, test in folds)

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(3, 4, seed=0)


class TestSeedLedger:
    def test_unique_streams(self):
        ledger = SeedLedger(7)
        a = ledger.derive_int("train", 0, 0)
        b = ledger.derive_int("train", 0, 1)
        c = ledger.derive_int("noise", 0, 0)
        assert len({a, b, c}) == 3

    def test_duplicate_issue_refused(self):
        ledger = SeedLedger(7)
        ledger.derive("data", 1)
        with pytest.raises(RuntimeError):
            ledger.derive("data", 1)

    def test_deterministic_across_instances(self):
        assert SeedLedger(3).derive_int("folds", 2) == SeedLedger(3).derive_int("folds", 2)


class TestRunReplicate:
    def test_clean_noise_means_clean_everywhere(self):
        seen = []
        cfg = tiny_config()
        run_replicate(cfg, 0, observer=seen.append)
        for cell in seen:
            # With no corruption both partitions obey the generator exactly.
            got = cell.train_data.y
            assert np.array_equal(got, target_y1(cell.train_data.X[:, 0], cell.train_data.X[:, 1]))

    def test_corruption_isolation_test_folds_bit_clean(self):
        seen = []
        cfg = tiny_config(noise=NoiseSpec(NoiseFamily.CAUCHY, tau=10.0))
        run_replicate(cfg, 0, observer=seen.append)
        assert seen
        for cell in seen:
            clean_y = target_y1(cell.test_data.X[:, 0], cell.test_data.X[:, 1])
            assert np.array_equal(cell.test_data.y, clean_y)
            # training targets really were corrupted
            train_clean = target_y1(cell.train_data.X[:, 0], cell.train_data.X[:, 1])
            assert not np.array_equal(cell.train_data.y, train_clean)

    def test_fairness_same_corrupted_matrix_and_seed_across_models(self):
        seen = []
        cfg = tiny_config(noise=NoiseSpec(NoiseFamily.GAUSSIAN, sigma=5.0))
        run_replicate(cfg, 0, observer=seen.append)
        by_fold = {}
        for cell in seen:
            by_fold.setdefault(cell.fold, []).append(cell)
        for cells in by_fold.values():
            assert len(cells) == 2  # one per model
            first = cells[0]
            for other in cells[1:]:
                assert np.array_equal(first.train_data.X, other.train_data.X)
                assert np.array_equal(first.train_data.y, other.train_data.y)
                assert first.train_config.seed == other.train_config.seed

    def test_bit_identical_rerun(self):
        cfg = tiny_config(noise=NoiseSpec(NoiseFamily.GAUSSIAN, sigma=2.0))
        a = run_replicate(cfg, 1)
        b = run_replicate(cfg, 1)
        assert a == b

    def test_distinct_replicates_distinct_data(self):
        cfg = tiny_config()
        a = run_replicate(cfg, 0)
        b = run_replicate(cfg, 1)
        assert a != b

    def test_divergence_tagged_with_context(self):
        cfg = tiny_config()
        cfg = ExperimentConfig(
            dataset=cfg.dataset,
            noise=cfg.noise,
            models=cfg.models,
            train=TrainConfig(epochs=3, learning_rate=1e80, seed=0),
            folds=3,
            replicates=1,
            master_seed=0,
        )
        with pytest.raises(TrainingDiverged, match=r"model=MSE fold=0 replicate=0"):
            run_replicate(cfg, 0)


class TestRunExperiment:
    def test_single_replicate_std_zero(self):
        cfg = tiny_config(replicates=1, folds=2)
        result = run_experiment(cfg)
        for m in cfg.model_labels:
            assert result.table.std(m, "mae") == 0.0
            assert result.table.replicate_scores(m, "mae").size == 1

    def test_seed_changes_scores_not_shape(self):
        r1 = run_experiment(tiny_config(master_seed=1))
        r2 = run_experiment(tiny_config(master_seed=2))
        assert r1.table.models == r2.table.models
        assert r1.table.mean("MSE", "mae") != r2.table.mean("MSE", "mae")

    def test_aggregate_mean_matches_raw(self):
        result = run_experiment(tiny_config())
        for m in result.table.models:
            raw = result.table.replicate_scores(m, "rmse")
            assert result.table.mean(m, "rmse") == pytest.approx(float(np.mean(raw)), abs=1e-12)

    def test_replicate_score_is_fold_average(self):
        result = run_experiment(tiny_config())
        for m in result.table.models:
            for r, rep_cells in enumerate(result.cell_scores[m]):
                fold_maes = [c["mae"] for c in rep_cells]
                assert result.table.replicate_scores(m, "mae")[r] == pytest.approx(
                    float(np.mean(fold_maes)), abs=1e-12
                )

    def test_result_document_shape(self):
        result = run_experiment(tiny_config())
        doc = result.to_dict()
        assert doc["schema"] == "cauchybench-results-v1"
        assert set(doc["replicate_scores"]) == {"MSE", "CLF_1"}
        assert doc["meta"]["seed_streams_issued"] == 2 * (2 + 2 * 3)  # per replicate: data, folds, 2x(noise, train)
        assert doc["comparisons"]["mae"]["pairwise"]
        assert doc["config"]["folds"] == 3

    def test_experiment_determinism(self):
        a = run_experiment(tiny_config()).to_dict()
        b = run_experiment(tiny_config()).to_dict()
        a["meta"].pop("wall_clock_s")
        b["meta"].pop("wall_clock_s")
        assert a == b


class TestCompareModels:
    def make_table(self, vectors):
        from cauchybench.harness import ScoreTable

        models = list(vectors)
        return ScoreTable(
            models=models,
            scores={m: {"mae": np.asarray(v, dtype=float), "rmse": np.asarray(v, dtype=float)} for m, v in vectors.items()},
        )

    def test_identical_vectors_p_one(self):
        table = self.make_table({"A": [1, 2, 3, 4, 5], "B": [1, 2, 3, 4, 5]})
        report = compare_models(table, "mae")
        assert report.pair("A", "B").p_value == 1.0

    def test_disjoint_ranges_exact_p(self):
        table = self.make_table(
            {"A": [0.40, 0.41, 0.42, 0.43, 0.44], "B": [2.0, 2.1, 2.2, 2.3, 2.4]}
        )
        report = compare_models(table, "mae")
        assert report.pair("A", "B").p_value == pytest.approx(2 / 252, abs=1e-15)
        assert report.pair("A", "B").method == "exact_permutation"

    def test_pair_count_is_m_choose_2(self):
        table = self.make_table({f"M{i}": np.arange(5) + i for i in range(6)})
        report = compare_models(table, "mae")
        assert len(report.pairwise) == 15
        assert report.kruskal.n_per_group == (5,) * 6

    def test_mismatched_replicates_rejected(self):
        table = self.make_table({"A": [1, 2, 3], "B": [1, 2]})
        with pytest.raises(ValueError, match="mismatched"):
            compare_models(table, "mae")

    def test_unknown_metric(self):
        table = self.make_table({"A": [1, 2], "B": [3, 4]})
        with pytest.raises(ValueError):
            compare_models(table, "r2")


class TestPresetsAndConfig:
    def test_preset_registry(self):
        names = list_presets()
        assert "hc2-negative" in names
        assert "hc8-cauchy-100" in names
        assert "bike-outliers-2.5" in names
        assert len(names) == 23

    def test_hc2_preset_shape(self):
        cfg = preset_config("hc2-negative", master_seed=42)
        assert len(cfg.models) == 6
        assert cfg.model_labels[-1] == "MSE"
        assert cfg.replicates == 5 and cfg.folds == 10
        assert cfg.dataset.n_samples == 5000

    def test_bike_preset_needs_path(self):
        with pytest.raises(ValueError, match="CSV path"):
            preset_config("bike-outliers-5")

    def test_bike_preset_models(self, tmp_path):
        path = write_surrogate_bike_csv(tmp_path / "b.csv", n_rows=120)
        cfg = preset_config("bike-outliers-5", {"path": str(path)})
        assert len(cfg.models) == 7
        assert cfg.noise.proportion == 0.05

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset_document("hc3-negative")

    def test_config_round_trip(self, tmp_path):
        path = write_surrogate_bike_csv(tmp_path / "b.csv", n_rows=120)
        cfg = preset_config(
            "bike-outliers-2.5", {"path": str(path), "n_samples": 100}, replicates=2, folds=3
        )
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_zero_overrides_are_not_defaults(self):
        for dataset, top, match in (
            ({}, {"folds": 0}, "folds"),
            ({}, {"replicates": 0}, "replicates"),
            ({"n_samples": 0}, {}, "n_samples"),
        ):
            with pytest.raises(ValueError, match=match):
                preset_config("hc2-negative", dataset, **top)

    def test_bike_subsample_must_be_positive(self):
        with pytest.raises(ValueError, match="n_samples"):
            DatasetSpec(name="bike", path="b.csv", n_samples=0)
        assert DatasetSpec(name="bike", path="b.csv", n_samples=None).n_samples is None
        with pytest.raises(ValueError, match="n_samples"):
            preset_config("bike-negative", {"path": "b.csv", "n_samples": 0})

    @pytest.mark.parametrize(
        "level, typo",
        [
            ("", "replicate"),
            ("dataset", "n_sample"),
            ("noise", "sigmaa"),
            ("models[1]", "cc"),
            ("net", "hidden"),
            ("train", "lr"),
        ],
    )
    def test_unknown_key_names_its_path(self, level, typo):
        from cauchybench.nets import NetworkConfig

        doc = config_to_dict(tiny_config(net=NetworkConfig(2, (4,))))
        config_from_dict(doc)  # the untouched document loads
        target = doc["models"][1] if level == "models[1]" else doc.get(level, doc)
        target[typo] = 2
        dotted = f"{level}.{typo}" if level else typo
        with pytest.raises(ValueError, match=rf"unknown config key '{re.escape(dotted)}'"):
            config_from_dict(doc)

    def test_every_preset_round_trips_strictly(self):
        for name in list_presets():
            cfg = preset_config(name, {"path": "b.csv"} if name.startswith("bike") else {})
            assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_bike_reads_every_row_by_default(self):
        assert DatasetSpec("bike", path="b.csv").n_samples is None
        with pytest.raises(ValueError, match="n_samples"):
            DatasetSpec("hc2")

    def test_synthetic_dataset_takes_no_files(self):
        for kw in ({"path": "x.csv"}, {"schema_path": "s.json"}):
            with pytest.raises(ValueError, match="path"):
                DatasetSpec("hc8", n_samples=10, **kw)
        for kw in ({"path": "x.csv"}, {"schema_path": "s.json"}):
            with pytest.raises(ValueError, match="path"):
                preset_config("hc2-negative", kw)

    def test_missing_keys_take_dataclass_defaults(self):
        doc = {
            "dataset": {"name": "hc2", "n_samples": 30},
            "noise": {"family": "none"},
            "models": [{"kind": "mse"}],
        }
        cfg = config_from_dict(doc)
        default = ExperimentConfig(cfg.dataset, cfg.noise, cfg.models)
        assert cfg == default
        assert (cfg.folds, cfg.replicates, cfg.master_seed) == (10, 5, 0)
        assert cfg.train == TrainConfig() and cfg.net is None
        doc["train"] = {"epochs": 3}
        assert config_from_dict(doc).train == TrainConfig(epochs=3)

    def test_clf_model_needs_its_constant(self):
        doc = config_to_dict(tiny_config())
        doc["models"][1] = {"kind": "clf"}
        with pytest.raises(ValueError, match=r"models\[1\].*'c'"):
            config_from_dict(doc)
        doc["models"][1] = {"kind": "huber", "c": 1.0}
        with pytest.raises(ValueError, match="huber"):
            config_from_dict(doc)

    def test_mse_model_takes_no_constant(self):
        doc = config_to_dict(tiny_config())
        assert doc["models"][0] == {"kind": "mse"}
        doc["models"][0]["c"] = 5.0
        with pytest.raises(ValueError, match=r"models\[0\].*MSE model takes none"):
            config_from_dict(doc)

    def test_train_and_noise_seeds_derive_from_master_seed(self):
        doc = config_to_dict(tiny_config())
        assert "seed" not in doc["train"] and "seed" not in doc["noise"]
        for level in ("train", "noise"):
            doc[level]["seed"] = 0  # older documents hold a zero seed
            assert config_from_dict(doc) == tiny_config()
            doc[level]["seed"] = 12345
            with pytest.raises(ValueError, match=rf"{level}\.seed .*master_seed"):
                config_from_dict(doc)
            del doc[level]["seed"]

    def test_preset_document_is_the_preset(self):
        for name in list_presets():
            doc = preset_document(name)
            assert set(doc) == {"dataset", "noise", "models"}
            bike = name.startswith("bike")
            if bike:
                doc["dataset"]["path"] = "b.csv"
            cfg = config_from_dict(doc)
            assert [m.c for m in cfg.models[:-1]] == list(BIKE_CLF_GRID if bike else HC_CLF_GRID)
            assert cfg.model_labels[-1] == "MSE"
        # each call hands out a fresh document
        preset_document("hc2-negative")["dataset"]["n_samples"] = 1
        assert preset_document("hc2-negative")["dataset"]["n_samples"] == 5000
        with pytest.raises(KeyError, match="unknown preset"):
            preset_document("hc3-negative")

    def test_every_field_survives_the_round_trip(self):
        from dataclasses import fields

        from cauchybench.nets import NetworkConfig

        # a non-default value for every field of every dataclass that
        # config_to_dict serialises from its fields; train.seed is not
        # serialised, since every seed derives from master_seed
        values = {
            DatasetSpec: {"name": "bike", "n_samples": 7, "path": "b.csv", "schema_path": "s.json"},
            NetworkConfig: {"input_dim": 17, "hidden_layers": (3, 2)},
            TrainConfig: {
                "learning_rate": 0.5, "beta1": 0.5, "beta2": 0.25, "epsilon": 1e-3,
                "epochs": 3, "batch_size": 5,
            },
        }
        built = {}
        for cls, kw in values.items():
            assert set(kw) == {f.name for f in fields(cls)} - {"seed"}, cls.__name__
            for name, value in kw.items():
                default = next(f.default for f in fields(cls) if f.name == name)
                assert value != default, f"{cls.__name__}.{name}"
            built[cls] = cls(**kw)
        cfg = ExperimentConfig(
            dataset=built[DatasetSpec],
            noise=NoiseSpec(NoiseFamily.UNIFORM_OUTLIER, proportion=0.1, range_multiplier=9.0),
            models=(LossSpec.clf(3.0), LossSpec.mse()),
            net=built[NetworkConfig],
            train=built[TrainConfig],
            folds=4,
            replicates=3,
            master_seed=8,
        )
        doc = config_to_dict(cfg)
        assert doc["net"]["hidden_layers"] == [3, 2]
        assert config_from_dict(doc) == cfg

    def test_net_override_validated(self):
        from cauchybench.nets import NetworkConfig

        cfg = tiny_config(net=NetworkConfig(3, (4,)))
        with pytest.raises(ValueError, match="features"):
            run_replicate(cfg, 0)


class TestBikeExperiment:
    def test_subsampled_bike_run(self, tmp_path):
        path = write_surrogate_bike_csv(tmp_path / "b.csv", n_rows=600)
        cfg = ExperimentConfig(
            dataset=DatasetSpec(name="bike", n_samples=120, path=str(path)),
            noise=NoiseSpec(NoiseFamily.UNIFORM_OUTLIER, proportion=0.1),
            models=(LossSpec.clf(100.0), LossSpec.mse()),
            train=TrainConfig(epochs=2, batch_size=32, seed=0),
            folds=3,
            replicates=2,
            master_seed=9,
        )
        seen = []
        result = run_experiment(cfg, observer=seen.append)
        assert result.table.replicate_scores("MSE", "mae").shape == (2,)
        # the net resolved to the bigger two-hidden-layer architecture
        assert seen[0].train_data.n_features == 17
        corrupted_rows = int(np.sum(seen[0].train_data.y > np.max(seen[0].test_data.y) * 2))
        assert corrupted_rows > 0
