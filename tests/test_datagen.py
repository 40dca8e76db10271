import math

import numpy as np
import pytest

from cauchybench.datagen import (
    HC2_RANGES,
    HC8_RANGES,
    Dataset,
    NoiseFamily,
    NoiseSpec,
    apply_noise,
    cauchy_noise,
    cauchy_quantile,
    export_csv,
    gaussian_noise,
    inject_additive,
    inject_outliers,
    make_hc2,
    make_hc8,
    sample_inputs,
    target_y1,
    target_y2,
)
from cauchybench.ingest import ColumnSchema, Role, load_dataset

# Frozen oracle values.
E_MINUS_1 = 1.7182818284590452
Y1_AT_M6_M3 = 0.14359876023653358  # exp(-6) + sin(3)
CAUCHY_TAIL_10 = 0.06345103486110714  # 1 - 2*atan(10)/pi
HALF_NORMAL_MEAN_S10 = 7.978845608028654  # 10 * sqrt(2/pi)


class TestSampleInputs:
    def test_within_ranges_and_deterministic(self):
        X = sample_inputs(HC8_RANGES, 500, seed=1)
        assert X.shape == (500, 8)
        for j, (lo, hi) in enumerate(HC8_RANGES):
            assert X[:, j].min() >= lo
            assert X[:, j].max() <= hi
        assert np.array_equal(X, sample_inputs(HC8_RANGES, 500, seed=1))

    def test_column_means(self):
        n = 100_000
        X = sample_inputs(HC2_RANGES, n, seed=2)
        for j, (lo, hi) in enumerate(HC2_RANGES):
            se = (hi - lo) / math.sqrt(12 * n)
            assert abs(X[:, j].mean() - (lo + hi) / 2) < 3 * se

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            sample_inputs([(1.0, 1.0)], 10, seed=0)
        with pytest.raises(ValueError):
            sample_inputs([(2.0, -2.0)], 10, seed=0)


class TestTargets:
    def test_y1_values(self):
        assert target_y1(0.0, 0.0) == 1.0
        assert target_y1(1.0, math.pi / 2) == pytest.approx(E_MINUS_1, rel=1e-12)
        assert target_y1(-6.0, -3.0) == pytest.approx(Y1_AT_M6_M3, rel=1e-12)

    def test_y2_zero_when_trig_factors_vanish(self):
        x = np.array([0.0, 5.0, 1.0, -2.0, math.pi / 2, 3.0, 4.0, 2.0])
        assert target_y2(x) == pytest.approx(0.0, abs=1e-15)

    def test_y2_hand_evaluated_point(self):
        x = np.array([math.pi / 2, 4.0, 9.0, 10.0, 0.0, 7.0, 7.0, -4.0])
        assert target_y2(x) == pytest.approx(-0.03, rel=1e-12)

    def test_y2_even_in_x1(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=8)
            flipped = x.copy()
            flipped[0] = -flipped[0]
            assert target_y2(x) == pytest.approx(target_y2(flipped), rel=1e-12)

    def test_makers_consistent_with_targets(self):
        ds2 = make_hc2(100, seed=3)
        assert np.array_equal(ds2.y, target_y1(ds2.X[:, 0], ds2.X[:, 1]))
        ds8 = make_hc8(100, seed=3)
        assert np.array_equal(ds8.y, target_y2(ds8.X))


class TestGaussianNoise:
    def test_moments(self):
        n = 100_000
        eps = gaussian_noise(10.0, n, seed=4)
        assert abs(eps.mean()) < 3 * 10.0 / math.sqrt(n)
        assert eps.std() == pytest.approx(10.0, rel=0.02)

    def test_deterministic(self):
        assert np.array_equal(gaussian_noise(1.0, 50, seed=9), gaussian_noise(1.0, 50, seed=9))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_noise(0.0, 10, seed=0)


class TestCauchy:
    def test_quantile_anchors_exact(self):
        assert cauchy_quantile(0.5, x0=3.0, tau=2.0) == 3.0
        assert cauchy_quantile(0.75, x0=3.0, tau=2.0) == 5.0
        assert cauchy_quantile(0.25, x0=0.0, tau=1.0) == -1.0

    def test_quantile_symmetry(self):
        for u in (0.6, 0.9, 0.99):
            assert cauchy_quantile(u, 0.0, 1.0) == pytest.approx(
                -cauchy_quantile(1 - u, 0.0, 1.0), rel=1e-12
            )

    def test_median_near_location(self):
        draws = cauchy_noise(x0=5.0, tau=2.0, n=100_000, seed=6)
        assert abs(np.median(draws) - 5.0) < 0.05 * 2.0

    def test_tail_mass(self):
        tau = 3.0
        draws = cauchy_noise(0.0, tau, 100_000, seed=7)
        frac = np.mean(np.abs(draws) > 10 * tau)
        assert abs(frac - CAUCHY_TAIL_10) < 0.01

    def test_all_finite_and_deterministic(self):
        a = cauchy_noise(0.0, 1.0, 10_000, seed=8)
        assert np.all(np.isfinite(a))
        assert np.array_equal(a, cauchy_noise(0.0, 1.0, 10_000, seed=8))

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            cauchy_noise(0.0, 0.0, 5, seed=0)
        with pytest.raises(ValueError):
            cauchy_quantile(0.5, 0.0, -1.0)


class TestInjectAdditive:
    def test_inputs_untouched_and_x_shared_values(self):
        ds = make_hc2(200, seed=11)
        y_before = ds.y.copy()
        X_before = ds.X.copy()
        spec = NoiseSpec(NoiseFamily.GAUSSIAN, sigma=5.0, seed=12)
        noisy = inject_additive(ds, spec)
        assert np.array_equal(ds.y, y_before)
        assert np.array_equal(ds.X, X_before)
        assert np.array_equal(noisy.X, X_before)
        assert noisy.meta["noise"]["sigma"] == 5.0

    def test_degenerate_sigma_limit(self):
        ds = make_hc2(100, seed=13)
        noisy = inject_additive(ds, NoiseSpec(NoiseFamily.GAUSSIAN, sigma=1e-12, seed=0))
        assert np.max(np.abs(noisy.y - ds.y)) < 1e-9

    def test_gaussian_mean_absolute_shift(self):
        # E|N(0, sigma^2)| = sigma * sqrt(2/pi)
        ds = Dataset(np.zeros((100_000, 1)), np.zeros(100_000))
        noisy = inject_additive(ds, NoiseSpec(NoiseFamily.GAUSSIAN, sigma=10.0, seed=14))
        assert np.mean(np.abs(noisy.y - ds.y)) == pytest.approx(HALF_NORMAL_MEAN_S10, rel=0.03)

    def test_wrong_family_rejected(self):
        ds = make_hc2(10, seed=0)
        with pytest.raises(ValueError):
            inject_additive(ds, NoiseSpec(NoiseFamily.UNIFORM_OUTLIER, proportion=0.1))
        with pytest.raises(ValueError):
            inject_additive(ds, NoiseSpec(NoiseFamily.NONE))


class TestInjectOutliers:
    def test_zero_proportion_is_identity(self):
        ds = make_hc2(50, seed=15)
        out = inject_outliers(ds, 0.0, 500.0, seed=16)
        assert np.array_equal(out.y, ds.y)
        assert out.meta["noise"]["n_corrupted"] == 0

    def test_exact_corruption_count(self):
        ds = make_hc2(100, seed=17)
        out = inject_outliers(ds, 0.1, 500.0, seed=18)
        assert int(np.sum(out.y != ds.y)) == 10

    def test_corrupted_values_inside_interval(self):
        ds = make_hc2(400, seed=19)
        lo, hi = ds.y.min(), ds.y.max()
        center, half = (hi + lo) / 2, 250.0 * (hi - lo)
        out = inject_outliers(ds, 0.25, 500.0, seed=20)
        changed = out.y[out.y != ds.y]
        assert changed.size == 100
        assert np.all(changed >= center - half)
        assert np.all(changed <= center + half)

    def test_half_away_from_zero_rounding(self):
        ds = make_hc2(10, seed=21)
        # 10 * 0.25 = 2.5 rounds to 3 under half-away-from-zero
        out = inject_outliers(ds, 0.25, 500.0, seed=22)
        assert out.meta["noise"]["n_corrupted"] == 3

    def test_degenerate_targets_rejected(self):
        ds = Dataset(np.zeros((5, 1)), np.ones(5))
        with pytest.raises(ValueError):
            inject_outliers(ds, 0.1, 500.0, seed=0)

    def test_input_not_mutated(self):
        ds = make_hc2(60, seed=23)
        y_before = ds.y.copy()
        inject_outliers(ds, 0.5, 500.0, seed=24)
        assert np.array_equal(ds.y, y_before)


class TestApplyNoise:
    def test_none_is_noop(self):
        ds = make_hc2(10, seed=25)
        assert apply_noise(ds, NoiseSpec(NoiseFamily.NONE)) is ds

    def test_dispatch(self):
        ds = make_hc2(40, seed=26)
        g = apply_noise(ds, NoiseSpec(NoiseFamily.GAUSSIAN, sigma=1.0, seed=1))
        c = apply_noise(ds, NoiseSpec(NoiseFamily.CAUCHY, tau=1.0, seed=1))
        o = apply_noise(ds, NoiseSpec(NoiseFamily.UNIFORM_OUTLIER, proportion=0.1, seed=1))
        assert not np.array_equal(g.y, ds.y)
        assert not np.array_equal(c.y, ds.y)
        assert int(np.sum(o.y != ds.y)) == 4


class TestNoiseSpecValidation:
    def test_family_parameter_checks(self):
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.GAUSSIAN)  # missing sigma
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.CAUCHY, tau=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.UNIFORM_OUTLIER, proportion=1.5)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = make_hc8(50, seed=27)
        path = tmp_path / "d.csv"
        export_csv(ds, path)
        schema = [ColumnSchema(f"x{i}", Role.NUMERIC) for i in range(1, 9)]
        back = load_dataset(path, schema + [ColumnSchema("y", Role.TARGET)])
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.meta["feature_names"] == [f"x{i}" for i in range(1, 9)]

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.ones(1))
