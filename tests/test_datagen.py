import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybench.datagen import (
    HC2_RANGES,
    HC8_RANGES,
    Dataset,
    NoiseSpec,
    apply_noise,
    cauchy_noise,
    cauchy_quantile,
    export_csv,
    make_hc2,
    make_hc8,
    sample_inputs,
    target_y1,
    target_y2,
)
from cauchybench.ingest import load_dataset

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
        eps = apply_noise(np.zeros(n), NoiseSpec("gaussian", sigma=10.0, seed=4))
        assert abs(eps.mean()) < 3 * 10.0 / math.sqrt(n)
        assert eps.std() == pytest.approx(10.0, rel=0.02)

    def test_deterministic(self):
        spec = NoiseSpec("gaussian", sigma=1.0, seed=9)
        assert np.array_equal(apply_noise(np.zeros(50), spec), apply_noise(np.zeros(50), spec))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma > 0"):
            NoiseSpec("gaussian", sigma=0.0, seed=0)


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

    @pytest.mark.parametrize(
        "x0, tau", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)]
    )
    def test_rejects_a_non_finite_location_or_scale(self, x0, tau):
        # Every draw at such a parameter is non-finite: the sampler would
        # redraw forever, and the quantile would be nan or inf.
        message = re.escape(f"need a finite x0 and a finite tau > 0, got x0={x0!r}, tau={tau!r}")
        with pytest.raises(ValueError, match=message):
            cauchy_noise(x0, tau, 5, seed=0)
        with pytest.raises(ValueError, match=message):
            cauchy_quantile(0.5, x0, tau)

    @pytest.mark.parametrize("u", [1e-10, [0.5, 1 - 1e-10]], ids=["scalar", "array"])
    def test_quantile_beyond_float64_is_an_error_without_a_warning(self, u):
        # tau * tan(pi (u - 1/2)) is about -3.2e317 at u = 1e-10; the suite
        # makes an overflow warning an error.
        with pytest.raises(ValueError, match=r"^the Cauchy\(0\.0, 1e\+308\) quantile overflows float64$"):
            cauchy_quantile(u, 0.0, 1e308)
        assert cauchy_quantile(0.75, 0.0, 1e308) == 1e308
        assert cauchy_quantile(0.75, 0, 1) == 1.0

    def test_huge_tau_redraws_overflows_without_a_warning(self):
        # About a third of the products tau * tan overflow at tau = 1e308;
        # they are redrawn, and the suite makes an overflow warning an error.
        draws = cauchy_noise(0.0, 1e308, 1000, seed=0)
        assert np.all(np.isfinite(draws))
        assert np.any(np.abs(draws) > 1e308)


def _changed(out, y) -> int:
    return int(np.sum(out != y))


class TestAdditiveNoise:
    def test_input_untouched(self):
        ds = make_hc2(200, seed=11)
        y_before = ds.y.copy()
        spec = NoiseSpec("gaussian", sigma=5.0, seed=12)
        noisy = apply_noise(ds.y, spec)
        assert np.array_equal(ds.y, y_before)
        assert np.array_equal(noisy, ds.y + np.random.default_rng(12).normal(0.0, 5.0, size=200))

    def test_degenerate_sigma_limit(self):
        ds = make_hc2(100, seed=13)
        noisy = apply_noise(ds.y, NoiseSpec("gaussian", sigma=1e-12, seed=0))
        assert np.max(np.abs(noisy - ds.y)) < 1e-9

    def test_gaussian_mean_absolute_shift(self):
        # E|N(0, sigma^2)| = sigma * sqrt(2/pi)
        y = np.zeros(100_000)
        noisy = apply_noise(y, NoiseSpec("gaussian", sigma=10.0, seed=14))
        assert np.mean(np.abs(noisy - y)) == pytest.approx(HALF_NORMAL_MEAN_S10, rel=0.03)

    def test_overflowing_targets_rejected(self):
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            apply_noise(np.full(10, 1.7e308), NoiseSpec("gaussian", sigma=1e308, seed=0))


class TestOutlierNoise:
    def test_zero_proportion_is_identity(self):
        ds = make_hc2(50, seed=15)
        out = apply_noise(ds.y, NoiseSpec("uniform_outlier", proportion=0.0, seed=16))
        assert np.array_equal(out, ds.y)
        assert _changed(out, ds.y) == 0

    def test_exact_corruption_count(self):
        ds = make_hc2(100, seed=17)
        out = apply_noise(ds.y, NoiseSpec("uniform_outlier", proportion=0.1, seed=18))
        assert _changed(out, ds.y) == 10

    def test_corrupted_values_inside_interval(self):
        ds = make_hc2(400, seed=19)
        lo, hi = ds.y.min(), ds.y.max()
        center, half = (hi + lo) / 2, 250.0 * (hi - lo)
        out = apply_noise(ds.y, NoiseSpec("uniform_outlier", proportion=0.25, seed=20))
        changed = out[out != ds.y]
        assert changed.size == 100
        assert np.all(changed >= center - half)
        assert np.all(changed <= center + half)

    def test_half_away_from_zero_rounding(self):
        ds = make_hc2(10, seed=21)
        # 10 * 0.25 = 2.5 rounds to 3 under half-away-from-zero
        out = apply_noise(ds.y, NoiseSpec("uniform_outlier", proportion=0.25, seed=22))
        assert _changed(out, ds.y) == 3

    def test_degenerate_targets_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            apply_noise(np.ones(5), NoiseSpec("uniform_outlier", proportion=0.1, seed=0))

    def test_overflowing_interval_rejected(self):
        spec = NoiseSpec("uniform_outlier", proportion=0.1, range_multiplier=1e308, seed=0)
        with pytest.raises(ValueError, match="float64"):
            apply_noise(np.array([0.0, 10.0]), spec)

    def test_input_not_mutated(self):
        ds = make_hc2(60, seed=23)
        y_before = ds.y.copy()
        apply_noise(ds.y, NoiseSpec("uniform_outlier", proportion=0.5, seed=24))
        assert np.array_equal(ds.y, y_before)


class TestApplyNoise:
    def test_none_returns_a_copy(self):
        ds = make_hc2(10, seed=25)
        out = apply_noise(ds.y, NoiseSpec("none"))
        assert out is not ds.y and not np.shares_memory(out, ds.y)
        assert np.array_equal(out, ds.y)

    def test_dispatch(self):
        ds = make_hc2(40, seed=26)
        g = apply_noise(ds.y, NoiseSpec("gaussian", sigma=1.0, seed=1))
        c = apply_noise(ds.y, NoiseSpec("cauchy", tau=1.0, seed=1))
        o = apply_noise(ds.y, NoiseSpec("uniform_outlier", proportion=0.1, seed=1))
        assert not np.array_equal(g, ds.y)
        assert not np.array_equal(c, ds.y)
        assert _changed(o, ds.y) == 4


# Target vectors with at least two distinct values, so every family applies.
TARGETS = (
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60)
    .filter(lambda v: min(v) < max(v))
    .map(np.array)
)
SEEDS = st.integers(0, 2**32 - 1)
SPECS = {
    "none": st.builds(NoiseSpec, st.just("none"), seed=SEEDS),
    "gaussian": st.builds(
        NoiseSpec, st.just("gaussian"), sigma=st.floats(1e-3, 1e3), seed=SEEDS
    ),
    "cauchy": st.builds(
        NoiseSpec,
        st.just("cauchy"),
        x0=st.floats(-10.0, 10.0),
        tau=st.floats(1e-3, 1e3),
        seed=SEEDS,
    ),
    "uniform_outlier": st.builds(
        NoiseSpec,
        st.just("uniform_outlier"),
        proportion=st.floats(0.0, 1.0),
        range_multiplier=st.floats(1e-2, 1e3),
        seed=SEEDS,
    ),
}
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


class TestApplyNoiseProperties:
    @pytest.mark.parametrize("family", ["none", "gaussian", "cauchy", "uniform_outlier"])
    @PROPERTY
    @given(data=st.data())
    def test_input_unchanged_output_new_and_same_length(self, family, data):
        y, spec = data.draw(TARGETS, label="y"), data.draw(SPECS[family], label="spec")
        before = y.copy()
        out = apply_noise(y, spec)
        assert np.array_equal(y, before)
        assert out is not y and not np.shares_memory(out, y)
        assert out.shape == y.shape

    @pytest.mark.parametrize(
        "family, noise",
        [
            ("gaussian", lambda s, n: np.random.default_rng(s.seed).normal(0.0, s.sigma, size=n)),
            ("cauchy", lambda s, n: cauchy_noise(s.x0, s.tau, n, s.seed)),
        ],
    )
    @PROPERTY
    @given(data=st.data())
    def test_additive_output_is_y_plus_the_sampler_draws(self, family, noise, data):
        # Bit for bit: out - y would round, so the sum is compared instead.
        y, spec = data.draw(TARGETS, label="y"), data.draw(SPECS[family], label="spec")
        assert apply_noise(y, spec).tobytes() == (y + noise(spec, len(y))).tobytes()

    @PROPERTY
    @given(data=st.data())
    def test_outliers_change_the_rounded_count_inside_the_interval(self, data):
        y = data.draw(TARGETS, label="y")
        spec = data.draw(SPECS["uniform_outlier"], label="spec")
        out = apply_noise(y, spec)
        changed = out[out != y]
        assert changed.size == math.floor(len(y) * spec.proportion + 0.5)
        center, half = (y.max() + y.min()) / 2, spec.range_multiplier * (y.max() - y.min()) / 2
        assert np.all((changed >= center - half) & (changed <= center + half))


class TestNoiseSpecValidation:
    def test_family_parameter_checks(self):
        with pytest.raises(ValueError):
            NoiseSpec("gaussian")  # missing sigma
        with pytest.raises(ValueError):
            NoiseSpec("cauchy", tau=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec("uniform_outlier", proportion=1.5)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = make_hc8(50, seed=27)
        path = tmp_path / "d.csv"
        export_csv(ds, path)
        schema = {**{f"x{i}": "numeric_feature" for i in range(1, 9)}, "y": "target"}
        back = load_dataset(path, schema)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.meta["feature_names"] == [f"x{i}" for i in range(1, 9)]

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.ones(1))
