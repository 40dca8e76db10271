import errno
import importlib.util
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybench.datagen import NoiseFamily, NoiseSpec, target_y1
from cauchybench.harness import (
    BIKE_CLF_GRID,
    HC_CLF_GRID,
    DatasetSpec,
    ExperimentConfig,
    SeedLedger,
    _pair_runs,
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
from cauchybench.nets import NetworkConfig, TrainConfig, TrainingDiverged, train_folds

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

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_folds_partition_the_rows(self, data):
        n = data.draw(st.integers(1, 300), label="n")
        k = data.draw(st.integers(1, n), label="k")
        folds = kfold_split(n, k, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
        assert len(folds) == k
        tests = [test for _, test in folds]
        assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(n))
        assert max(map(len, tests)) - min(map(len, tests)) <= 1
        for train, test in folds:
            assert np.array_equal(test, np.sort(test))
            assert np.array_equal(train, np.setdiff1d(np.arange(n), test))


class TestSeedLedger:
    def test_unique_streams(self):
        ledger = SeedLedger(7)
        a = ledger.derive_int("train", 0, 0)
        b = ledger.derive_int("train", 0, 1)
        c = ledger.derive_int("noise", 0, 0)
        assert len({a, b, c}) == 3

    def test_duplicate_issue_refused(self):
        ledger = SeedLedger(7)
        ledger.issue("data", 1)
        with pytest.raises(RuntimeError):
            ledger.issue("data", 1)

    def test_deterministic_across_instances(self):
        assert SeedLedger(3).derive_int("folds", 2) == SeedLedger(3).derive_int("folds", 2)

    def test_merge_refuses_a_stream_issued_twice(self):
        ledger, other = SeedLedger(7), SeedLedger(7)
        ledger.issue("data", 0)
        other.issue("data", 1)
        ledger.merge(other.issued)
        assert ledger.issued == {(0, 0), (0, 1)}
        with pytest.raises(RuntimeError, match=r"seed stream \(0, 1\) requested twice"):
            ledger.merge(other.issued)


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

    def test_observer_order_and_scores_match_training_each_fold_alone(self):
        from cauchybench.nets import NetworkConfig, train_folds

        seen = []
        cfg = tiny_config(noise=NoiseSpec(NoiseFamily.GAUSSIAN, sigma=5.0))
        scores = run_replicate(cfg, 0, observer=seen.append)
        labels = cfg.model_labels
        assert [(c.replicate, c.fold, c.model) for c in seen] == [
            (0, f, m) for f in range(cfg.folds) for m in labels
        ]
        # 60 rows in 3 folds: every training fold has 40 rows, so one batch
        # layout, and the joint loop's scores equal per-fold training exactly.
        net = NetworkConfig(2, (10,))
        for fold in range(cfg.folds):
            cell = seen[fold * len(labels)]
            data = cell.train_data
            fold_rows = [(np.arange(len(data)), data.y, cell.train_config)]
            models = train_folds(data.X, fold_rows, net, cfg.models)[0]
            for label, model in zip(labels, models):
                preds = model.predict(cell.test_data.X)
                mae = float(np.mean(np.abs(cell.test_data.y - preds)))
                assert scores[label][fold]["mae"] == mae

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseSpec(NoiseFamily.GAUSSIAN, sigma=5.0),
            NoiseSpec(NoiseFamily.UNIFORM_OUTLIER, proportion=0.1, range_multiplier=9.0),
        ],
    )
    def test_observed_train_data_is_the_noisy_copy_of_the_clean_rows(self, noise):
        # The trainer reads each fold's features from the replicate's one
        # clean matrix; what an observer is shown must still be the fold's
        # clean rows with their corrupted targets, byte for byte, as built
        # from the seed ledger.
        from cauchybench.datagen import apply_noise
        from cauchybench.harness import _clean_dataset, _seed_stream

        cfg = tiny_config(noise=noise)
        seen = []
        run_replicate(cfg, 1, observer=seen.append)
        ledger = SeedLedger(cfg.master_seed)
        clean = _clean_dataset(cfg.dataset, _seed_stream(cfg.master_seed, "data", 1), None)
        folds = kfold_split(len(clean), cfg.folds, _seed_stream(cfg.master_seed, "folds", 1))
        for fold, (train_idx, _) in enumerate(folds):
            spec = replace(noise, seed=ledger.derive_int("noise", 1, fold))
            want_y = apply_noise(clean.y[train_idx], spec)
            cells = [c for c in seen if c.fold == fold]
            assert len(cells) == len(cfg.models)
            for cell in cells:
                assert cell.train_data.X.tobytes() == clean.X[train_idx].tobytes()
                assert cell.train_data.y.tobytes() == want_y.tobytes()
                assert cell.train_data.meta == clean.meta and "noise" not in cell.train_data.meta

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


def pair(comparison, a, b):
    """The pairwise entry of models ``a`` and ``b`` in a ``comparisons[metric]`` entry."""
    for entry in comparison["pairwise"]:
        if {entry["model_a"], entry["model_b"]} == {a, b}:
            return entry
    raise KeyError(f"no pairwise result for ({a}, {b})")


class TestRunExperiment:
    def test_single_replicate_std_zero(self):
        cfg = tiny_config(replicates=1, folds=2)
        doc = run_experiment(cfg)
        for m in cfg.model_labels:
            assert doc["aggregate"][m]["mae"]["std"] == 0.0
            assert len(doc["replicate_scores"][m]["mae"]) == 1

    def test_seed_changes_scores_not_shape(self):
        d1 = run_experiment(tiny_config(master_seed=1))
        d2 = run_experiment(tiny_config(master_seed=2))
        assert d1["models"] == d2["models"]
        assert d1["aggregate"]["MSE"]["mae"]["mean"] != d2["aggregate"]["MSE"]["mae"]["mean"]

    def test_aggregate_mean_matches_raw(self):
        doc = run_experiment(tiny_config())
        for m in doc["models"]:
            raw = doc["replicate_scores"][m]["rmse"]
            assert doc["aggregate"][m]["rmse"]["mean"] == pytest.approx(float(np.mean(raw)), abs=1e-12)

    def test_replicate_score_is_fold_average(self):
        doc = run_experiment(tiny_config())
        for m in doc["models"]:
            for r, rep_cells in enumerate(doc["cell_scores"][m]):
                fold_maes = [c["mae"] for c in rep_cells]
                assert doc["replicate_scores"][m]["mae"][r] == pytest.approx(
                    float(np.mean(fold_maes)), abs=1e-12
                )

    def test_result_document_shape(self):
        doc = run_experiment(tiny_config())
        assert doc["schema"] == "cauchybench-results-v1"
        assert set(doc["replicate_scores"]) == {"MSE", "CLF_1"}
        assert doc["meta"]["seed_streams_issued"] == 2 * (2 + 2 * 3)  # per replicate: data, folds, 2x(noise, train)
        assert doc["comparisons"]["mae"]["pairwise"]
        assert doc["config"]["folds"] == 3

    def test_document_key_order(self):
        doc = run_experiment(tiny_config())
        assert list(doc) == [
            "schema",
            "config",
            "models",
            "replicate_scores",
            "aggregate",
            "cell_scores",
            "comparisons",
            "meta",
        ]
        assert list(doc["comparisons"]) == ["mae", "rmse"]
        assert list(doc["comparisons"]["mae"]) == ["metric", "kruskal_wallis", "pairwise"]

    def test_experiment_determinism(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        a["meta"].pop("wall_clock_s")
        b["meta"].pop("wall_clock_s")
        assert a == b


def cpus(monkeypatch, n):
    """Make ``n`` CPUs usable by this process, as the harness counts them."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(n)), raising=False)


def cell_keys(cells):
    return [(c.replicate, c.fold, c.model) for c in cells]


class TestReplicatePool:
    """run_experiment trains replicates in forked workers; every result
    equals the serial loop over ``run_replicate`` on one ledger."""

    CFG = tiny_config(noise=NoiseSpec(NoiseFamily.GAUSSIAN, sigma=5.0), replicates=3, master_seed=8)

    def serial(self):
        ledger, seen = SeedLedger(self.CFG.master_seed), []
        reps = [run_replicate(self.CFG, r, ledger=ledger, observer=seen.append) for r in range(3)]
        return reps, ledger, seen

    def test_pooled_run_equals_a_serial_loop(self, monkeypatch):
        cpus(monkeypatch, 2)
        doc = run_experiment(self.CFG)
        reps, ledger, _ = self.serial()
        for m in self.CFG.model_labels:
            assert doc["cell_scores"][m] == [rep[m] for rep in reps]
        assert doc["meta"]["seed_streams_issued"] == len(ledger.issued) == 3 * (2 + 2 * 3)

    def test_observer_sees_cells_in_serial_order(self, monkeypatch):
        cpus(monkeypatch, 2)
        seen = []
        run_experiment(self.CFG, observer=seen.append)
        _, _, want = self.serial()
        assert cell_keys(seen) == cell_keys(want) == [
            (r, f, m) for r in range(3) for f in range(3) for m in self.CFG.model_labels
        ]
        for got, ref in zip(seen, want):
            assert np.array_equal(got.train_data.X, ref.train_data.X)
            assert np.array_equal(got.train_data.y, ref.train_data.y)
            assert np.array_equal(got.test_data.y, ref.test_data.y)
            assert got.train_config == ref.train_config
        for first, other in zip(seen[::2], seen[1::2]):  # two models per fold
            assert np.array_equal(first.train_data.y, other.train_data.y)
            assert first.train_config.seed == other.train_config.seed

    def test_one_cpu_forks_nothing_and_gives_the_same_document(self, monkeypatch):
        cpus(monkeypatch, 2)
        pooled = run_experiment(self.CFG)

        def no_fork():
            raise AssertionError("a process was forked")

        cpus(monkeypatch, 1)
        monkeypatch.setattr("os.fork", no_fork)
        seen = []
        alone = run_experiment(self.CFG, observer=seen.append)
        pooled["meta"].pop("wall_clock_s")
        alone["meta"].pop("wall_clock_s")
        assert alone == pooled
        assert cell_keys(seen) == cell_keys(self.serial()[2])

    def test_divergence_in_a_worker_names_its_cell_once(self, monkeypatch):
        cpus(monkeypatch, 2)
        cfg = replace(self.CFG, replicates=2, train=TrainConfig(epochs=3, learning_rate=1e80))
        with pytest.raises(TrainingDiverged) as exc:
            run_experiment(cfg)
        assert re.search(r"model=MSE fold=0 replicate=0\)$", str(exc.value))
        # the trainer's reason crosses from the child too
        assert re.search(r"\(non-finite (loss|prediction); model=", str(exc.value))
        assert str(exc.value).count("model=") == 1
        assert str(exc.value).count("training diverged at epoch") == 1

    def test_a_child_receives_nothing_and_sends_only_its_outputs(self, tmp_path, monkeypatch):
        # The forked children inherit the job, with its config and the loaded
        # bike data; each pickles only its runs' outputs, one per run, back.
        log = tmp_path / "sent.log"
        parent, dumps = os.getpid(), pickle.dumps

        def spy(obj, *args, **kwargs):
            out = dumps(obj, *args, **kwargs)
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {len(out)} {len(obj[0])}\n")
            return out

        cfg = benchmark_workload("bike-outliers")
        path = write_surrogate_bike_csv(tmp_path / "bike.csv", n_rows=975)
        cfg = replace(cfg, dataset=replace(cfg.dataset, path=str(path)), train=replace(cfg.train, epochs=1))
        monkeypatch.setattr(pickle, "dumps", spy)
        cpus(monkeypatch, 2)
        run_experiment(cfg)
        sent = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert parent not in {pid for pid, _, _ in sent}
        assert len({pid for pid, _, _ in sent}) == 2
        assert sorted(pairs for _, _, pairs in sent) == [4, 5]  # the runs' pair counts
        assert max(size for _, size, _ in sent) < 4096, sent

    def test_the_forking_parent_loads_numpy_random_and_no_multiprocessing(self):
        # The parent only marks each replicate's data and folds streams as
        # issued, but loads numpy.random once before it forks, so that no
        # child loads it on its own.
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork, loaded = os.fork, []\n"
            "def spy():\n"
            "    loaded.append('numpy.random' in sys.modules)\n"
            "    return fork()\n"
            "os.fork = spy\n"
            "from cauchybench.harness import config_from_dict, run_experiment\n"
            "cfg = config_from_dict({'dataset': {'name': 'hc2', 'n_samples': 60},\n"
            "    'noise': {'family': 'gaussian', 'sigma': 5.0},\n"
            "    'models': [{'kind': 'mse'}, {'kind': 'clf', 'c': 1.0}],\n"
            "    'train': {'epochs': 2, 'batch_size': 16}, 'folds': 3, 'replicates': 3})\n"
            "before = 'numpy.random' in sys.modules\n"
            "run_experiment(cfg, observer=lambda cell: None)\n"
            "print(before, loaded, 'multiprocessing' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout.strip() == "False [True, True] False"


def no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def within_seconds():
    """Fail a test whose call hangs, rather than the whole run."""

    def hung(signum, frame):
        raise TimeoutError("no result within 30 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestForkedChildren:
    """run_experiment forks its children itself: whatever way it ends, no
    child is left, and a child that fails is reported, not waited for."""

    CFG = TestReplicatePool.CFG

    def test_no_child_is_left_after_a_run(self, monkeypatch, within_seconds):
        cpus(monkeypatch, 2)
        run_experiment(self.CFG)
        no_child_left()

    def test_no_child_is_left_after_a_divergence(self, monkeypatch, within_seconds):
        cpus(monkeypatch, 2)
        cfg = replace(self.CFG, train=TrainConfig(epochs=3, learning_rate=1e80))
        with pytest.raises(TrainingDiverged):
            run_experiment(cfg)
        no_child_left()

    def test_no_child_is_left_when_the_observer_raises(self, monkeypatch, within_seconds):
        # The first run's first cell fails the observer while the other
        # child is still busy: that child is stopped, not waited for.
        from cauchybench import harness

        run_pairs = harness._run_pairs

        def first_run_only(cfg, base, collect, pairs):
            if pairs.start:
                time.sleep(60)
            return run_pairs(cfg, base, collect, pairs)

        def observer(cell):
            raise KeyError("observer failed")

        monkeypatch.setattr(harness, "_run_pairs", first_run_only)
        cpus(monkeypatch, 2)
        with pytest.raises(KeyError, match="observer failed"):
            run_experiment(self.CFG, observer=observer)
        no_child_left()

    def test_a_child_that_exits_without_its_outputs_is_an_error(self, monkeypatch, within_seconds):
        from cauchybench import harness

        monkeypatch.setattr(harness, "_run_pairs", lambda *args: os._exit(3))
        cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"ended with status 3 before sending its outputs"):
            run_experiment(self.CFG)
        no_child_left()

    def test_a_child_ended_by_sigterm_reports_the_signal(self, monkeypatch, within_seconds):
        # A child inherits the entry point's SIGTERM handler, which would
        # turn the signal into its exit status 1; it dies of the signal.
        from cauchybench import harness
        from cauchybench.cli import _exit_on_signal

        monkeypatch.setattr(harness, "_run_pairs", lambda *args: os.kill(os.getpid(), signal.SIGTERM))
        cpus(monkeypatch, 2)
        previous = signal.signal(signal.SIGTERM, _exit_on_signal)
        try:
            with pytest.raises(RuntimeError, match=r"ended with status -15 before sending its outputs"):
                run_experiment(self.CFG)
        finally:
            signal.signal(signal.SIGTERM, previous)
        no_child_left()

    def test_an_unpicklable_exception_crosses_as_its_traceback(self, monkeypatch, within_seconds):
        from cauchybench import harness

        class Local(Exception):  # a local class does not pickle
            pass

        def fail(*args):
            raise Local("the job's own message")

        monkeypatch.setattr(harness, "_run_pairs", fail)
        cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"(?s)Traceback.*Local: the job's own message"):
            run_experiment(self.CFG)
        no_child_left()

    def test_a_failed_fork_closes_its_pipe_and_leaves_no_child(self, monkeypatch, within_seconds):
        # The second fork fails as it does when the process table or memory
        # runs out: the error reaches the caller, the first child is killed
        # and reaped, and neither end of the second child's pipe stays open.
        fork, forked = os.fork, []

        def fork_once():
            if forked:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            forked.append(os.getpid())
            return fork()

        fds = set(os.listdir("/proc/self/fd"))
        monkeypatch.setattr("os.fork", fork_once)
        cpus(monkeypatch, 2)
        with pytest.raises(OSError) as exc:
            run_experiment(self.CFG)
        assert exc.value.errno == errno.EAGAIN
        assert forked == [os.getpid()]  # one real child
        assert set(os.listdir("/proc/self/fd")) == fds
        no_child_left()


def benchmark_workload(name):
    """The benchmark's config of workload ``name``, as an ExperimentConfig."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc = workloads.config(name, 0)
    if doc["dataset"]["name"] == "bike":
        doc["dataset"] = {**doc["dataset"], "path": "bike.csv"}
    return config_from_dict(doc)


def run_lengths(cfg, cpus):
    """The lengths of ``_pair_runs(cfg, cpus)``, checked to tile the
    (replicate, fold) pairs in order."""
    runs = _pair_runs(cfg, cpus)
    assert [p for run in runs for p in run] == list(range(cfg.replicates * cfg.folds))
    return [len(run) for run in runs]


class TestReplicateGroups:
    """The pool deals contiguous runs of (replicate, fold) pairs, one
    ``train_folds`` call each. Replicates group while their hidden buffers
    (folds x batch_size x models x hidden units floats each) together stay
    within 2**15 floats, at most ceil(replicates / CPUs) to a group; the
    run count is the largest multiple of the CPUs not above the group
    count (the group count when it is below the CPUs), and the runs'
    lengths differ by at most one."""

    def test_small_steps_group_and_large_ones_do_not(self):
        hc2 = benchmark_workload("hc2-cauchy")  # groups [0, 1, 2], [3, 4] at 2 CPUs
        assert run_lengths(hc2, 2) == [8, 7]
        assert run_lengths(hc2, 1) == [15]
        bike = benchmark_workload("bike-outliers")  # three one-replicate groups
        assert run_lengths(bike, 2) == [5, 4]
        assert run_lengths(bike, 1) == [3, 3, 3]
        assert run_lengths(bike, 4) == [3, 3, 3]  # fewer groups than CPUs: one run each
        hc8 = benchmark_workload("hc8-gaussian-pair")
        assert run_lengths(hc8, 2) == run_lengths(hc8, 1) == [5] * 12
        for name in list_presets():
            cfg = preset_config(name, {"path": "bike.csv"} if name.startswith("bike") else {})
            assert run_lengths(cfg, 1) == [10] * 5, name
            assert run_lengths(cfg, 2) == [13, 13, 12, 12], name

    @settings(max_examples=300, deadline=None)
    @given(
        replicates=st.integers(1, 16),
        folds=st.integers(2, 12),
        n_cpus=st.integers(1, 8),
        n_models=st.integers(1, 7),
        batch_size=st.integers(1, 256),
        hidden=st.lists(st.integers(1, 20), min_size=1, max_size=3),
    )
    def test_dealing_rule_holds_at_any_shape(self, replicates, folds, n_cpus, n_models, batch_size, hidden):
        models = (LossSpec.mse(), *map(LossSpec.clf, BIKE_CLF_GRID))[:n_models]
        cfg = replace(
            tiny_config(models=models, folds=folds, replicates=replicates, net=NetworkConfig(2, tuple(hidden))),
            train=replace(TINY_TRAIN, batch_size=batch_size),
        )
        runs = _pair_runs(cfg, n_cpus)
        assert all(type(run) is range and run.step == 1 for run in runs)
        assert [p for run in runs for p in run] == list(range(replicates * folds))
        # every run holds every fold index, which the bit-identity argument needs
        assert min(map(len, runs)) >= folds and len(runs) <= replicates
        assert max(map(len, runs)) - min(map(len, runs)) <= 1
        assert len(runs) % n_cpus == 0 or len(runs) < n_cpus

    @pytest.mark.parametrize(
        "hidden, calls",
        [((10,), [12]), ((128,), [6, 6]), ((129,), [4, 4, 4])],
        ids=["tiny", "at-the-bound", "over-the-bound"],
    )
    def test_one_cpu_trains_each_group_in_one_call(self, monkeypatch, hidden, calls):
        # 4 folds x batch 16 x 2 models x 128 units is 2**14 floats: two
        # replicates fill 2**15, so two groups, dealt as two runs of 6 pairs;
        # one more unit leaves each replicate alone.
        # 62 rows make training folds of 46 and 47 rows, so a padded step.
        from cauchybench import harness

        cpus(monkeypatch, 1)
        folds_per_call = []

        def spy(X, folds, net, losses):
            folds_per_call.append(len(folds))
            return train_folds(X, folds, net, losses)

        monkeypatch.setattr(harness, "train_folds", spy)
        cfg = tiny_config(folds=4, replicates=3, net=NetworkConfig(2, hidden))
        cfg = replace(cfg, dataset=DatasetSpec("hc2", 62))
        doc = run_experiment(cfg)
        assert folds_per_call == calls
        ledger = SeedLedger(cfg.master_seed)
        for r in range(cfg.replicates):
            alone = run_replicate(cfg, r, ledger=ledger)
            assert {m: doc["cell_scores"][m][r] for m in cfg.model_labels} == alone

    @pytest.mark.parametrize("n_cpus, runs", [(2, [6, 6]), (3, [4, 4, 4])])
    def test_pooled_runs_equal_a_serial_loop(self, monkeypatch, n_cpus, runs):
        # At 2 CPUs replicate 1 is split between the two runs. 62 rows in 4
        # folds give training folds of 46 and 47 rows, so folds that differ
        # in size: every call needs every fold index to step as a replicate.
        from cauchybench import harness

        cfg = replace(tiny_config(folds=4, replicates=3), dataset=DatasetSpec("hc2", 62))
        assert run_lengths(cfg, n_cpus) == runs

        def spy(X, folds, net, losses):
            assert len(folds) >= cfg.folds, f"a call of {len(folds)} folds"
            return train_folds(X, folds, net, losses)

        monkeypatch.setattr(harness, "train_folds", spy)
        cpus(monkeypatch, n_cpus)
        seen = []
        doc = run_experiment(cfg, observer=seen.append)
        ledger, want = SeedLedger(cfg.master_seed), []
        for r in range(cfg.replicates):
            alone = run_replicate(cfg, r, ledger=ledger, observer=want.append)
            assert {m: doc["cell_scores"][m][r] for m in cfg.model_labels} == alone
        assert doc["meta"]["seed_streams_issued"] == len(ledger.issued) == 3 * (2 + 2 * 4)
        assert cell_keys(seen) == cell_keys(want) == [
            (r, f, m) for r in range(3) for f in range(4) for m in cfg.model_labels
        ]
        for got, ref in zip(seen, want):
            assert got.train_data.X.tobytes() == ref.train_data.X.tobytes()
            assert got.train_data.y.tobytes() == ref.train_data.y.tobytes()
            assert got.test_data.y.tobytes() == ref.test_data.y.tobytes()
            assert got.train_config == ref.train_config

    @pytest.mark.parametrize(
        "n_cpus, replicates, runs, fold, named",
        [(1, 2, [6], 4, (1, 1)), (2, 3, [5, 4], 0, (2, 1))],
        ids=["grouped", "mid-replicate"],
    )
    def test_divergence_in_a_group_names_its_replicate_and_fold(
        self, monkeypatch, n_cpus, replicates, runs, fold, named
    ):
        # The last run's call diverges at ``fold`` of its folds: in the
        # mid-replicate case that run is the pairs (1, 2), (2, 0), (2, 1), (2, 2).
        from cauchybench import harness

        cfg = tiny_config(replicates=replicates)
        assert run_lengths(cfg, n_cpus) == runs

        def diverge(X, folds, net, losses):
            if len(folds) != runs[-1]:
                return train_folds(X, folds, net, losses)
            raise TrainingDiverged(2, "non-finite loss", fold=fold, model=1)

        cpus(monkeypatch, n_cpus)
        monkeypatch.setattr(harness, "train_folds", diverge)
        with pytest.raises(TrainingDiverged) as exc:
            run_experiment(cfg)
        want_fold, want_replicate = named
        assert str(exc.value).endswith(
            f"(non-finite loss; model=CLF_1 fold={want_fold} replicate={want_replicate})"
        )
        assert str(exc.value).count("replicate=") == 1
        assert (exc.value.epoch, exc.value.fold, exc.value.model) == (2, want_fold, 1)


class TestCompareModels:
    def make_scores(self, vectors):
        """A ``replicate_scores`` entry with the same vector for both metrics."""
        return {m: {"mae": list(v), "rmse": list(v)} for m, v in vectors.items()}

    def test_identical_vectors_p_one(self):
        scores = self.make_scores({"A": [1, 2, 3, 4, 5], "B": [1, 2, 3, 4, 5]})
        comparison = compare_models(scores, "mae")
        assert pair(comparison, "A", "B")["p_value"] == 1.0

    def test_disjoint_ranges_exact_p(self):
        scores = self.make_scores(
            {"A": [0.40, 0.41, 0.42, 0.43, 0.44], "B": [2.0, 2.1, 2.2, 2.3, 2.4]}
        )
        comparison = compare_models(scores, "mae")
        assert pair(comparison, "A", "B")["p_value"] == pytest.approx(2 / 252, abs=1e-15)
        assert pair(comparison, "A", "B")["method"] == "exact_permutation"

    def test_pair_count_is_m_choose_2(self):
        scores = self.make_scores({f"M{i}": np.arange(5) + i for i in range(6)})
        comparison = compare_models(scores, "mae")
        assert len(comparison["pairwise"]) == 15
        assert comparison["kruskal_wallis"]["n_per_group"] == [5] * 6

    def test_mismatched_replicates_rejected(self):
        scores = self.make_scores({"A": [1, 2, 3], "B": [1, 2]})
        with pytest.raises(ValueError, match="mismatched"):
            compare_models(scores, "mae")

    def test_one_model_rejected(self):
        with pytest.raises(ValueError, match="two models"):
            compare_models(self.make_scores({"A": [1, 2, 3]}), "mae")

    def test_unknown_metric(self):
        scores = self.make_scores({"A": [1, 2], "B": [3, 4]})
        with pytest.raises(ValueError):
            compare_models(scores, "r2")


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

    @pytest.mark.parametrize(
        "family, params, stray",
        [
            ("none", {}, "sigma"),
            ("gaussian", {"sigma": 1.0}, "tau"),
            ("gaussian", {"sigma": 1.0}, "proportion"),
            ("cauchy", {"tau": 1.0}, "sigma"),
            ("cauchy", {"tau": 1.0}, "range_multiplier"),
            ("uniform_outlier", {"proportion": 0.1}, "x0"),
        ],
    )
    def test_noise_key_of_another_family_rejected(self, family, params, stray):
        cfg = tiny_config(noise=NoiseSpec(family, **params))
        doc = config_to_dict(cfg)
        assert config_from_dict(doc) == cfg  # describe() output round-trips
        doc["noise"]["seed"] = 0
        assert config_from_dict(doc) == cfg
        doc["noise"][stray] = 0.5
        with pytest.raises(ValueError, match=rf"'noise\.{stray}' does not apply to {family} noise"):
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

    def test_models_sharing_a_label_are_named(self):
        doc = config_to_dict(tiny_config())
        doc["models"] = [{"kind": "clf", "c": 1.0}, {"kind": "mse"}, {"kind": "clf", "c": 1.0000001}]
        with pytest.raises(ValueError, match=r"share the label CLF_1 \(c = 1\.0 and 1\.0000001\)"):
            config_from_dict(doc)
        doc["models"] = [{"kind": "mse"}, {"kind": "mse"}]
        with pytest.raises(ValueError, match=r"duplicate model specs: two models share the label MSE$"):
            config_from_dict(doc)
        cfg, spec = tiny_config(), LossSpec.clf(2.0)
        with pytest.raises(ValueError, match=r"share the label CLF_2 \(c = 2\.0 and 2\.0\)"):
            replace(cfg, models=(spec, spec))

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

        # refused with the config, before any data is built
        with pytest.raises(ValueError, match="configured net expects 3 features, hc2 has 2"):
            tiny_config(net=NetworkConfig(3, (4,)))
        assert tiny_config(net=NetworkConfig(2, (4,))).net.input_dim == 2
        with pytest.raises(ValueError, match="configured net expects 2 features, hc8 has 8"):
            replace(tiny_config(), dataset=DatasetSpec("hc8", 60), net=NetworkConfig(2, (4,)))

    @pytest.mark.parametrize("name", ["hc2", "hc8", "bike"])
    def test_more_folds_than_samples_refused(self, name):
        dataset = DatasetSpec(name, 5, **({"path": "b.csv"} if name == "bike" else {}))
        with pytest.raises(ValueError, match=r"need folds <= dataset.n_samples, got folds=6, n_samples=5"):
            replace(tiny_config(), dataset=dataset, folds=6)
        assert replace(tiny_config(), dataset=dataset, folds=5).folds == 5


class TestBikeExperiment:
    @pytest.mark.parametrize(
        "dataset, top, message",
        [
            ({"n_samples": 101}, {}, r"n_samples=101 exceeds the 100 rows of "),
            ({}, {"folds": 101}, r"need 1 <= k <= n, got k=101, n=100"),
            ({}, {"net": NetworkConfig(3, (4,))}, r"configured net expects 3 features, data has \d+$"),
        ],
        ids=["n_samples", "folds", "net-width"],
    )
    def test_a_config_that_does_not_fit_the_file_fails_before_any_fork(
        self, tmp_path, monkeypatch, dataset, top, message
    ):
        # The file is checked once, where it is loaded, so the error is the
        # caller's and no worker is forked to meet it.
        def no_fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr("os.fork", no_fork)
        cpus(monkeypatch, 2)
        path = write_surrogate_bike_csv(tmp_path / "b.csv", n_rows=100)
        cfg = ExperimentConfig(
            dataset=DatasetSpec(name="bike", path=str(path), **dataset),
            noise=NoiseSpec(NoiseFamily.NONE),
            models=(LossSpec.clf(100.0), LossSpec.mse()),
            train=TrainConfig(epochs=1, batch_size=32),
            folds=3,
            replicates=2,
        )
        cfg = replace(cfg, **top)
        assert len(_pair_runs(cfg, 2)) == 2
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)
        with pytest.raises(ValueError, match=message):
            run_replicate(cfg, 0)

    def test_subsample_larger_than_the_file_rejected(self, tmp_path):
        path = write_surrogate_bike_csv(tmp_path / "b.csv", n_rows=100)
        cfg = ExperimentConfig(
            dataset=DatasetSpec(name="bike", n_samples=101, path=str(path)),
            noise=NoiseSpec(NoiseFamily.NONE),
            models=(LossSpec.mse(),),
            train=TrainConfig(epochs=1, batch_size=32, seed=0),
            folds=2,
            replicates=1,
        )
        with pytest.raises(ValueError, match=r"n_samples=101 exceeds the 100 rows"):
            run_experiment(cfg)
        every_row = replace(cfg, dataset=DatasetSpec(name="bike", n_samples=100, path=str(path)))
        doc = run_experiment(every_row)
        assert doc["config"]["dataset"]["n_samples"] == 100

    @pytest.mark.parametrize("n_cpus", [1, 2], ids=["serial", "pooled"])
    def test_training_writes_into_no_clean_matrix(self, tmp_path, monkeypatch, n_cpus):
        # A bike run without n_samples uses every row of the loaded file:
        # each replicate's clean matrix is the loaded one, which train_folds
        # reads uncopied. It must come back unwritten, and every test fold
        # must hold rows of the file as it was read.
        from cauchybench import harness
        from cauchybench.ingest import SEOUL_BIKE_SCHEMA, load_dataset

        def checked(X, folds, net, losses):
            before = X.copy()
            trained = train_folds(X, folds, net, losses)
            assert X.tobytes() == before.tobytes(), "train_folds wrote into its X"
            return trained

        monkeypatch.setattr(harness, "train_folds", checked)
        cpus(monkeypatch, n_cpus)
        path = write_surrogate_bike_csv(tmp_path / "b.csv", n_rows=90)
        cfg = ExperimentConfig(
            dataset=DatasetSpec(name="bike", path=str(path)),
            noise=NoiseSpec(NoiseFamily.UNIFORM_OUTLIER, proportion=0.1),
            models=(LossSpec.clf(100.0), LossSpec.mse()),
            train=TrainConfig(epochs=2, batch_size=16, seed=0),
            folds=3,
            replicates=2,
        )
        seen = []
        run_experiment(cfg, observer=seen.append)
        clean = load_dataset(str(path), SEOUL_BIKE_SCHEMA)
        for r in range(cfg.replicates):
            tests = [c.test_data for c in seen if c.replicate == r and c.model == "MSE"]
            got = np.concatenate([t.X for t in tests])
            assert np.array_equal(got[np.lexsort(got.T)], clean.X[np.lexsort(clean.X.T)])

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
        doc = run_experiment(cfg, observer=seen.append)
        assert len(doc["replicate_scores"]["MSE"]["mae"]) == 2
        # the net resolved to the bigger two-hidden-layer architecture
        assert seen[0].train_data.n_features == 17
        corrupted_rows = int(np.sum(seen[0].train_data.y > np.max(seen[0].test_data.y) * 2))
        assert corrupted_rows > 0
