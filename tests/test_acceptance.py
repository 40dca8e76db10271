"""Acceptance suite: one test per criterion, each printing a PASS line.

The first five criteria are exact property checks (milliseconds to
seconds). Criteria 6-9 are desk-scale reproductions of the benchmark's
qualitative findings; training hyperparameters are not dictated by the
protocol, so each experiment pins a reduced-but-faithful configuration
(verified to be seed-robust) and asserts orderings and significance,
not absolute scores. Run with ``-s`` to watch the pass lines stream.
"""

import math
import os
import time

import numpy as np
import pytest

from cauchybench.cli import cli_main
from cauchybench.datagen import (
    NoiseSpec,
    cauchy_noise,
    cauchy_quantile,
    target_y1,
)
from cauchybench.harness import (
    DatasetSpec,
    ExperimentConfig,
    run_experiment,
    run_replicate,
)
from cauchybench.losses import LossSpec, clf_loss, influence, loss_grad, mse_loss
from cauchybench.nets import NetworkConfig, TrainConfig, backward, forward
from cauchybench.ranktests import kruskal_wallis, rank_with_ties, wilcoxon_rank_sum

from . import _reference_net
from ._surrogate import real_bike_csv, write_surrogate_bike_csv

HC_MODELS = tuple(LossSpec.clf(c) for c in (0.1, 1.0, 10.0, 20.0, 100.0)) + (LossSpec.mse(),)
BIKE_MODELS = tuple(
    LossSpec.clf(c) for c in (1.0, 10.0, 100.0, 200.0, 1000.0, 10000.0)
) + (LossSpec.mse(),)


def ok(criterion, text):
    print(f"\n[acceptance] criterion {criterion}: PASS — {text}")


# --------------------------------------------------------------------------
# 1. Analytic anchors of the Cauchy loss and its influence function.


def test_c1_clf_analytic_anchors():
    for c in (0.1, 1.0, 10.0, 100.0):
        spec = LossSpec.clf(c)
        want = (c * c / 2) * math.log(2.0)
        assert clf_loss(c, 0.0, c) == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert influence(c, spec) == pytest.approx(c / 2, rel=1e-12)
        grid = np.linspace(0, 10 * c, 2001)
        assert np.max(influence(grid, spec)) <= c / 2 + 1e-15
        assert influence(1e6 * c, spec) < 1e-5 * c
    ok(1, "clf(r=c) = (c^2/2) ln 2; influence peak c/2 at r=c; vanishing tail")


# --------------------------------------------------------------------------
# 2. Backprop gradients match central finite differences on random nets.


def _fd_param_grads(params, x, y, loss_fn, h=1e-6):
    out = params.zeros_like()
    for arrs, outs in ((params.weights, out.weights), (params.biases, out.biases)):
        for arr, g in zip(arrs, outs):
            flat, gflat = arr.ravel(), g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn(y, forward(params, x)[0][0])
                flat[i] = orig - h
                dn = loss_fn(y, forward(params, x)[0][0])
                flat[i] = orig
                gflat[i] = (up - dn) / (2 * h)
    return out


def _random_safe_net(cfg, rng):
    from cauchybench.nets import Parameters

    while True:
        sizes = cfg.layer_sizes
        p = Parameters(
            [rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
            [rng.normal(size=o) for o in sizes[1:]],
        )
        x = rng.normal(size=(1, cfg.input_dim))  # a 1-row batch
        pre = _reference_net.forward(p.weights, p.biases, x[0])[2]
        if min(np.min(np.abs(z)) for z in pre) > 1e-4:
            return p, x


def test_c2_gradient_correctness():
    rng = np.random.default_rng(20240501)
    shapes = [NetworkConfig(2, (10,)), NetworkConfig(8, (14, 14))]
    for spec in (LossSpec.mse(), LossSpec.clf(1.0)):
        loss_fn = (
            mse_loss if spec.c is None else lambda y, yh: clf_loss(y, yh, spec.c)
        )
        for net_cfg in shapes:
            for _ in range(10):  # 10 per shape -> 20 nets per loss
                p, x = _random_safe_net(net_cfg, rng)
                y = float(rng.normal())
                pred, cache = forward(p, x)
                analytic = backward(p, cache, loss_grad(y, pred, spec))
                fd = _fd_param_grads(p, x, y, loss_fn)
                for a, f in zip(analytic.weights + analytic.biases, fd.weights + fd.biases):
                    scale = max(1.0, float(np.max(np.abs(f))))
                    assert np.allclose(a, f, rtol=1e-5, atol=1e-7 * scale)
    ok(2, "backprop = finite differences (rel 1e-5) on 20 nets per loss, both shapes")


# --------------------------------------------------------------------------
# 3. Cauchy sampler: exact quantile anchors and analytic tail mass.


def test_c3_cauchy_sampler():
    for x0, tau in ((0.0, 1.0), (5.0, 3.0), (-2.0, 0.5)):
        assert cauchy_quantile(0.5, x0, tau) == x0
        assert cauchy_quantile(0.75, x0, tau) == x0 + tau
    draws = cauchy_noise(0.0, 1.0, 100_000, seed=12345)
    frac = float(np.mean(np.abs(draws) > 10.0))
    expected = 1 - 2 * math.atan(10) / math.pi  # 0.063451...
    assert abs(frac - 0.0635) < 0.01
    assert abs(frac - expected) < 0.01
    ok(3, f"quantile anchors exact; tail fraction {frac:.4f} vs analytic {expected:.4f}")


# --------------------------------------------------------------------------
# 4. Rank-test oracles and invariance.


def test_c4_statistics_oracles():
    res = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert res["p_value"] == pytest.approx(0.1, abs=1e-12)
    assert res["method"] == "exact_permutation"

    kw = kruskal_wallis([[1, 2], [3, 4], [5, 6]])
    assert kw["statistic"] == pytest.approx(32 / 7, abs=1e-9)
    assert kw["p_value"] == pytest.approx(math.exp(-16 / 7), abs=1e-6)

    rng = np.random.default_rng(424242)
    transforms = [lambda v: 2.0 * v + 1.0, lambda v: v**3 + v, np.arctan,
                  lambda v: np.exp(v / 3.0)]
    for trial in range(100):
        f = transforms[trial % 4]
        a = np.round(rng.uniform(-3, 3, size=int(rng.integers(2, 7))), 2)
        b = np.round(rng.uniform(-3, 3, size=int(rng.integers(2, 7))), 2)
        w0, w1 = wilcoxon_rank_sum(a, b), wilcoxon_rank_sum(f(a), f(b))
        assert (w0["statistic"], w0["p_value"]) == (w1["statistic"], w1["p_value"])
        k0, k1 = kruskal_wallis([a, b]), kruskal_wallis([f(a), f(b)])
        assert k0["statistic"] == pytest.approx(k1["statistic"], abs=1e-12)
    ok(4, "WRS p=0.1 exact; KW H=32/7, p=exp(-16/7); rank invariance on 100 instances")


# --------------------------------------------------------------------------
# 5. Harness contracts on a tiny real experiment.


def test_c5_harness_contracts():
    started = time.time()
    cfg = ExperimentConfig(
        dataset=DatasetSpec(name="hc2", n_samples=80),
        noise=NoiseSpec("cauchy", tau=5.0),
        models=(LossSpec.clf(1.0), LossSpec.mse()),
        train=TrainConfig(epochs=3, batch_size=16),
        folds=4,
        replicates=2,
        master_seed=99,
    )
    seen = []
    result = run_experiment(cfg, observer=seen.append)

    by_cell = {}
    for cell in seen:
        # corruption isolation: clean test folds, bit-exact against the generator
        assert np.array_equal(
            cell.test_data.y, target_y1(cell.test_data.X[:, 0], cell.test_data.X[:, 1])
        )
        by_cell.setdefault((cell.replicate, cell.fold), []).append(cell)
    for cells in by_cell.values():
        # fairness: identical corrupted training bytes and train seed across models
        ref = cells[0]
        assert len(cells) == len(cfg.models)
        for other in cells[1:]:
            assert np.array_equal(ref.train_data.X, other.train_data.X)
            assert np.array_equal(ref.train_data.y, other.train_data.y)
            assert ref.train_config.seed == other.train_config.seed

    rerun = run_experiment(cfg)
    for m in result["models"]:
        for metric in ("mae", "rmse"):
            assert np.array_equal(
                result["replicate_scores"][m][metric], rerun["replicate_scores"][m][metric]
            )
    assert run_replicate(cfg, 0) == run_replicate(cfg, 0)
    elapsed = time.time() - started
    assert elapsed < 30
    ok(5, f"isolation, fairness, determinism on a tiny experiment ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 6-9. Desk-scale reproductions (training-heavy; marked slow).


def _mae_means(doc):
    return {m: doc["aggregate"][m]["mae"]["mean"] for m in doc["models"]}


def _pair_p(comparison, a, b):
    """Raw p of the pairwise test of models ``a`` and ``b``."""
    for entry in comparison["pairwise"]:
        if {entry["model_a"], entry["model_b"]} == {a, b}:
            return entry["p_value"]
    raise KeyError(f"no pairwise result for ({a}, {b})")


@pytest.mark.slow
def test_c6_hc2_negative_control():
    started = time.time()
    cfg = ExperimentConfig(
        dataset=DatasetSpec(name="hc2", n_samples=1000),
        noise=NoiseSpec("none"),
        models=HC_MODELS,
        train=TrainConfig(epochs=60, batch_size=128, learning_rate=0.001),
        folds=10,
        replicates=3,
        master_seed=42,
    )
    result = run_experiment(cfg)
    means = _mae_means(result)
    spread = max(means.values()) / min(means.values())
    kw_p = result["comparisons"]["mae"]["kruskal_wallis"]["p_value"]
    elapsed = time.time() - started
    assert spread <= 1.25, f"means not within 25%: {means}"
    assert kw_p >= 0.05, f"KW rejected on the negative control (p={kw_p:.4f})"
    assert elapsed < 300
    ok(6, f"negative control: spread x{spread:.3f}, KW p={kw_p:.3f}, {elapsed:.0f}s")


@pytest.mark.slow
@pytest.mark.parametrize("tau", [1.0, 10.0])
def test_c7_hc2_cauchy_noise(tau):
    cfg = ExperimentConfig(
        dataset=DatasetSpec(name="hc2", n_samples=1000),
        noise=NoiseSpec("cauchy", tau=tau),
        models=HC_MODELS,
        train=TrainConfig(epochs=60, batch_size=128, learning_rate=0.001),
        folds=10,
        replicates=5,
        master_seed=7,
    )
    result = run_experiment(cfg)
    means = _mae_means(result)
    report = result["comparisons"]["mae"]
    for model in result["models"]:
        if model == "MSE":
            continue
        p = _pair_p(report, model, "MSE")
        assert means[model] < means["MSE"], f"{model} did not beat MSE at tau={tau}: {means}"
        assert p < 0.05, f"{model} vs MSE not significant at tau={tau} (p={p:.4f})"
    ok(7, f"tau={tau:g}: every CLF model beats MSE, all pairwise exact p < 0.05")


@pytest.mark.slow
def test_c8_hc2_gaussian_sigma50_mse_wins():
    cfg = ExperimentConfig(
        dataset=DatasetSpec(name="hc2", n_samples=4500),
        noise=NoiseSpec("gaussian", sigma=50.0),
        models=HC_MODELS,
        train=TrainConfig(epochs=45, batch_size=128, learning_rate=0.001),
        folds=10,
        replicates=12,
        master_seed=7,
    )
    result = run_experiment(cfg)
    means = _mae_means(result)
    best = min(means, key=means.get)
    assert best == "MSE", f"expected MSE lowest at sigma=50, got {best}: {means}"
    ok(8, "sigma=50: MSE attains the lowest MAE mean of all six models")


def _spearman(x, y):
    rx, ry = rank_with_ties(x), rank_with_ties(y)
    return float(np.corrcoef(rx, ry)[0, 1])


def _bike_outlier_battery(path, n_samples, epochs, seed):
    proportions = [0.0, 0.025, 0.05, 0.075, 0.10]
    mse_means = []
    for prop in proportions:
        noise = (
            NoiseSpec("none")
            if prop == 0.0
            else NoiseSpec("uniform_outlier", proportion=prop)
        )
        cfg = ExperimentConfig(
            dataset=DatasetSpec(name="bike", n_samples=n_samples, path=str(path)),
            noise=noise,
            models=BIKE_MODELS,
            train=TrainConfig(epochs=epochs, batch_size=64, learning_rate=0.001),
            folds=10,
            replicates=5,
            master_seed=seed,
        )
        result = run_experiment(cfg)
        means = _mae_means(result)
        mse_means.append(means["MSE"])
        if prop > 0.0:
            report = result["comparisons"]["mae"]
            winners = [
                m
                for m in ("CLF_1", "CLF_10", "CLF_100")
                if means[m] < means["MSE"] and _pair_p(report, m, "MSE") < 0.05
            ]
            assert winners, f"no CLF with c<=100 significantly beats MSE at {prop:.1%}: {means}"
    rho = _spearman(proportions, mse_means)
    assert rho > 0.8, f"MSE degradation not monotone: means={mse_means}, spearman={rho:.2f}"
    return mse_means, rho


@pytest.mark.slow
def test_c9_bike_outliers(tmp_path):
    path = write_surrogate_bike_csv(tmp_path / "bike.csv", n_rows=960)
    mse_means, rho = _bike_outlier_battery(path, n_samples=None, epochs=120, seed=2024)
    ok(
        9,
        "outliers: some CLF(c<=100) beats MSE (p<0.05) at every proportion; "
        f"MSE MAE {np.round(mse_means).astype(int).tolist()} rises with rate (rho={rho:.2f})",
    )


@pytest.mark.slow
def test_c9_bike_outliers_real_file():
    path = real_bike_csv()
    if path is None:
        pytest.skip("real Seoul bike CSV not present (set SEOUL_BIKE_CSV); surrogate variant ran")
    mse_means, rho = _bike_outlier_battery(path, n_samples=1000, epochs=120, seed=2024)
    ok(9, f"real bike file: ordering holds (MSE means {np.round(mse_means).tolist()}, rho={rho:.2f})")


# --------------------------------------------------------------------------
# 10. Influence CLI output matches the closed forms pointwise.


def test_c10_influence_cli_closed_forms(tmp_path):
    out = tmp_path / "influence.csv"
    code = cli_main(
        ["influence", "--loss", "both", "--c", "1", "--rmax", "10", "--steps", "10",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,MSE,CLF_1"
    rs = []
    for line in lines[1:]:
        r, mse_v, clf_v = (float(v) for v in line.split(","))
        rs.append(r)
        assert abs(mse_v - 2.0 * r) <= 1e-12
        assert abs(clf_v - r / (1.0 + r * r)) <= 1e-12
    assert rs[0] == 0.0 and rs[-1] == 10.0 and 1.0 in rs
    ok(10, f"influence CLI: {len(rs)} grid points on [0,10] match closed forms to 1e-12")
