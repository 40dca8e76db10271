import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybench.losses import (
    LossSpec,
    clf_loss,
    influence,
    loss_grad,
    mae_score,
    mse_loss,
    rmse_score,
)

# Frozen oracle values (high-precision scalar evaluation of the closed forms).
HALF_LN_26 = 1.6290482690107410  # 0.5 * ln(26)
CLF_GRAD_C1_R100 = -100.0 / 10001.0
RMSE_3_M4 = 3.5355339059327378  # sqrt(12.5)


def fd_grad(loss_fn, y, y_hat, h=1e-5):
    """Central finite difference of the loss w.r.t. the prediction."""
    return (loss_fn(y, y_hat + h) - loss_fn(y, y_hat - h)) / (2 * h)


class TestClfLoss:
    def test_zero_residual(self):
        assert clf_loss(3.0, 3.0, c=10.0) == 0.0

    def test_residual_equals_c_closed_form(self):
        # r = c gives (c^2/2) ln 2 for any c
        assert clf_loss(2.0, 0.0, c=2.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_frozen_oracle_value(self):
        assert clf_loss(5.0, 0.0, c=1.0) == pytest.approx(HALF_LN_26, rel=1e-12)

    def test_sign_symmetric_and_monotone(self):
        rng = np.random.default_rng(7)
        r = 10 ** rng.uniform(-3, 4, size=50)
        lo = clf_loss(r, 0.0, c=3.0)
        assert np.allclose(lo, clf_loss(-r, 0.0, c=3.0))
        sorted_vals = clf_loss(np.sort(r), 0.0, c=3.0)
        assert np.all(np.diff(sorted_vals) >= 0)
        assert np.all(lo >= 0)

    def test_quadratic_near_zero(self):
        for c in (0.1, 1.0, 10.0):
            r = 1e-3 * c
            assert clf_loss(r, 0.0, c) == pytest.approx(r * r / 2, rel=1e-4)

    # 1e155 and 1e200 square to inf, 1e-154 and 1e-200 below the smallest
    # normal float; the kernels' c * c would turn values into NaN
    @pytest.mark.parametrize("bad_c", [0.0, -1.0, math.inf, math.nan, 1e155, 1e200, 1e-154, 1e-200])
    def test_rejects_bad_c(self, bad_c):
        with pytest.raises(ValueError, match=r"c\^2 a finite normal float"):
            clf_loss(1.0, 0.0, c=bad_c)
        with pytest.raises(ValueError, match=r"c\^2 a finite normal float"):
            LossSpec.clf(bad_c)

    def test_extreme_residual_is_finite_without_warning(self):
        # The gradient the loss shares its kernel with is -inf / inf here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = clf_loss(1e200, 0.0, c=1e100)
        assert value == pytest.approx(0.5e200 * 200 * math.log(10.0), rel=1e-12)

    def test_rejects_nonfinite_inputs(self):
        with pytest.raises(ValueError):
            clf_loss(math.inf, 0.0, c=1.0)
        with pytest.raises(ValueError):
            clf_loss(0.0, math.nan, c=1.0)


class TestMseLoss:
    def test_values(self):
        assert mse_loss(1.0, 1.0) == 0.0
        assert mse_loss(3.0, 0.0) == 9.0
        assert mse_loss(-4.0, 0.0) == mse_loss(4.0, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mse_loss(np.inf, 0.0)


class TestLossGrad:
    def test_zero_at_zero_residual(self):
        assert loss_grad(2.0, 2.0, LossSpec.mse()) == 0.0
        assert loss_grad(2.0, 2.0, LossSpec.clf(0.5)) == 0.0

    def test_mse_form(self):
        assert loss_grad(3.0, 1.0, LossSpec.mse()) == -4.0

    def test_clf_peak_at_r_equals_c(self):
        for c in (0.1, 1.0, 10.0):
            assert abs(loss_grad(c, 0.0, LossSpec.clf(c))) == pytest.approx(c / 2, rel=1e-12)

    def test_clf_frozen_oracle(self):
        assert loss_grad(100.0, 0.0, LossSpec.clf(1.0)) == pytest.approx(
            CLF_GRAD_C1_R100, rel=1e-12
        )

    def test_matches_finite_differences_log_uniform(self):
        # Spec-level gradient check: rel err < 1e-6 at step 1e-5 over
        # residuals spread across seven decades.
        rng = np.random.default_rng(42)
        residuals = 10 ** rng.uniform(-3, 4, size=40)
        for r in residuals:
            for spec in (LossSpec.mse(), LossSpec.clf(0.1), LossSpec.clf(1.0), LossSpec.clf(100.0)):
                if spec.kind.value == "mse":
                    fd = fd_grad(mse_loss, r, 0.0)
                else:
                    fd = fd_grad(lambda y, yh: clf_loss(y, yh, spec.c), r, 0.0)
                an = loss_grad(r, 0.0, spec)
                assert an == pytest.approx(fd, rel=1e-6), (r, spec)


class TestInfluence:
    def test_zero_at_zero(self):
        assert influence(0.0, LossSpec.mse()) == 0.0
        assert influence(0.0, LossSpec.clf(1.0)) == 0.0

    def test_clf_peak(self):
        assert influence(1.0, LossSpec.clf(1.0)) == 0.5

    def test_mse_linear(self):
        assert influence(10.0, LossSpec.mse()) == 20.0
        r = np.array([0.5, 1.0, 7.0])
        assert np.allclose(influence(2 * r, LossSpec.mse()), 2 * influence(r, LossSpec.mse()))

    def test_mse_is_exactly_two_r(self):
        # MSE's influence is the shared kernel's -(r * -2): the bits of 2 r,
        # from +0 and the subnormals up to the overflow to inf past 8.99e307.
        r = np.array([0.0, 5e-324, 2.2e-308, 0.1, 1.0, 3.0, 1e300, 8.98e307, 8.99e307, 1e308, 1.79e308])
        with np.errstate(over="ignore"):
            want = 2.0 * r
        got = influence(r, LossSpec.mse())
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert influence(5e-324, LossSpec.mse()) == 1e-323

    def test_clf_bounded_and_vanishing(self):
        for c in (0.1, 1.0, 10.0, 100.0):
            spec = LossSpec.clf(c)
            r = 10 ** np.linspace(-4, 8, 200) * c
            vals = influence(r, spec)
            assert np.max(vals) <= c / 2 + 1e-15
            assert influence(c, spec) == pytest.approx(c / 2, rel=1e-12)
            assert influence(1e6 * c, spec) < 1e-5 * c

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            influence(-1.0, LossSpec.mse())


class TestScores:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert mae_score(v, v) == 0.0
        assert rmse_score(v, v) == 0.0

    def test_frozen_values(self):
        targets = np.array([3.0, -4.0])
        preds = np.zeros(2)
        assert mae_score(targets, preds) == 3.5
        assert rmse_score(targets, preds) == pytest.approx(RMSE_3_M4, rel=1e-12)

    def test_mae_homogeneity(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=20)
        for k in (0.0, 0.5, 2.0, 7.0):
            assert mae_score(k * t, np.zeros(20)) == pytest.approx(
                k * mae_score(t, np.zeros(20)), abs=1e-12
            )

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            t = rng.standard_cauchy(size=rng.integers(1, 30))
            p = rng.normal(size=t.size)
            assert rmse_score(t, p) >= mae_score(t, p) - 1e-12

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            mae_score([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mae_score([], [])
        with pytest.raises(ValueError):
            rmse_score([np.nan], [0.0])


class TestLossSpec:
    def test_labels(self):
        assert LossSpec.mse().label == "MSE"
        assert LossSpec.clf(0.1).label == "CLF_0.1"
        assert LossSpec.clf(10000.0).label == "CLF_10000"

    def test_positivity_iff_nonzero_residual(self):
        rng = np.random.default_rng(11)
        for r in rng.normal(scale=5, size=30):
            if r == 0:
                continue
            assert clf_loss(r, 0.0, 2.0) > 0
            assert mse_loss(r, 0.0) > 0

    def test_invalid_clf_constant(self):
        with pytest.raises(ValueError):
            LossSpec.clf(0.0)
        with pytest.raises(ValueError):
            LossSpec.clf(-3.0)

    @pytest.mark.parametrize("c", [5e102, 1e-153])
    def test_constants_near_both_ends_accepted(self, c):
        spec = LossSpec.clf(c)
        r = np.array([0.0, 1.0])
        for values in (clf_loss(r, 0.0, c), loss_grad(r, 0.0, spec), influence(r, spec)):
            assert np.all(np.isfinite(values))
        assert influence(0.0, spec) == 0.0

    # c^2 is finite but c^3 is not: the gradient's c^2 * r would overflow
    # at some |r| <= c, before the influence peak.
    @pytest.mark.parametrize("c", [5.7e102, 1e120, 1e154])
    def test_rejects_c_whose_cube_overflows(self, c):
        with pytest.raises(ValueError, match=r"c\^3 finite"):
            LossSpec.clf(c)
        with pytest.raises(ValueError, match=r"c\^3 finite"):
            clf_loss(1.0, 0.0, c)

    def test_largest_accepted_c_peaks_at_half_c(self):
        c = float(np.cbrt(np.finfo(float).max))
        while not np.isfinite(c * c * c):
            c = float(np.nextafter(c, 0.0))
        with pytest.raises(ValueError):
            LossSpec.clf(float(np.nextafter(c, np.inf)))
        spec = LossSpec.clf(c)
        half, peak = influence(np.array([0.5 * c, c]), spec)
        assert peak == pytest.approx(c / 2, rel=1e-15)
        assert half == pytest.approx(0.4 * c, rel=1e-15)


PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
CONSTANTS = st.floats(1e-3, 1e6)
RESIDUALS = st.floats(0.0, 1e100)


class TestClfProperties:
    @PROPERTY
    @given(c=CONSTANTS, r=RESIDUALS)
    def test_influence_at_most_half_c_with_peak_at_c(self, c, r):
        # c^2 r / (c^2 + r^2) <= c / 2 is (c - r)^2 >= 0; equality at r = c.
        spec = LossSpec.clf(c)
        peak = influence(c, spec)
        assert peak == pytest.approx(c / 2, rel=1e-12)
        assert influence(r, spec) <= c / 2 * (1 + 1e-12)
        assert influence(r, spec) <= peak * (1 + 1e-12)

    @PROPERTY
    @given(c=CONSTANTS, r=st.floats(-1e300, 1e300))
    def test_loss_at_most_half_r_squared(self, c, r):
        # (c^2 / 2) ln(1 + (r / c)^2) <= r^2 / 2, since ln(1 + x) <= x.
        # Past |r| ~ 1e154 both sides may be inf; the loss must still not warn.
        assert clf_loss(r, 0.0, c) <= r * r / 2 * (1 + 1e-12)
