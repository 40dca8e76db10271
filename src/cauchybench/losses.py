"""Per-sample regression losses, their prediction gradients, influence
functions, and the scoring metrics (MAE, RMSE).

The Cauchy loss for a residual r = y - y_hat with constant c > 0 is

    L(r) = (c^2 / 2) * ln(1 + (r / c)^2)

which behaves like r^2 / 2 for |r| << c and grows only logarithmically
for |r| >> c, so the pull a single sample exerts on the fit is bounded.
Squared error, by contrast, weights residuals without bound.

All functions accept scalars or numpy arrays (broadcasting elementwise)
and are pure; batch aggregation (the mean) is the trainer's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LossKind",
    "LossSpec",
    "clf_loss",
    "mse_loss",
    "loss_grad",
    "influence",
    "mae_score",
    "rmse_score",
]


class LossKind(str, Enum):
    MSE = "mse"
    CLF = "clf"


@dataclass(frozen=True)
class LossSpec:
    """Loss identity plus the Cauchy constant c (ignored for MSE)."""

    kind: LossKind
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", LossKind(self.kind))
        if self.kind is LossKind.CLF:
            _check_clf_constant(self.c)

    @property
    def label(self) -> str:
        """Display name, e.g. 'MSE', 'CLF_0.1', 'CLF_10000'."""
        if self.kind is LossKind.MSE:
            return "MSE"
        return f"CLF_{self.c:g}"

    @staticmethod
    def mse() -> "LossSpec":
        return LossSpec(LossKind.MSE)

    @staticmethod
    def clf(c: float) -> "LossSpec":
        return LossSpec(LossKind.CLF, c)


def _check_clf_constant(c) -> None:
    """c > 0 with c^2 a finite normal float, so the kernels' c * c neither
    overflows to inf nor underflows to a subnormal or zero."""
    sq = float(c) * float(c)
    if not (c > 0 and np.isfinite(sq) and sq >= np.finfo(float).tiny):
        raise ValueError(f"CLF constant c must be > 0 with c^2 a finite normal float, got {c}")


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


def _as_result(value):
    # scalar in -> float out, array in -> array out
    return float(value) if np.ndim(value) == 0 else value


# Unvalidated kernels; the trainer calls these on data it has already
# screened (so an overflowing prediction surfaces as divergence, not as
# an argument error). The residual forms broadcast a column of constants
# c against a (models, samples) residual matrix.


def _clf_of_residual(r, c):
    return 0.5 * c * c * np.log1p((r / c) ** 2)


def _clf_grad_of_residual(r, c):
    return -(c * c) * r / (c * c + r * r)


def _residual(y, y_hat):
    return np.asarray(y, dtype=float) - np.asarray(y_hat, dtype=float)


def clf_loss(y, y_hat, c: float):
    """Cauchy loss (c^2/2) * ln(1 + ((y - y_hat)/c)^2), elementwise."""
    _check_clf_constant(c)
    _check_finite("y", y)
    _check_finite("y_hat", y_hat)
    return _as_result(_clf_of_residual(_residual(y, y_hat), c))


def mse_loss(y, y_hat):
    """Squared error (y - y_hat)^2, elementwise."""
    _check_finite("y", y)
    _check_finite("y_hat", y_hat)
    r = _residual(y, y_hat)
    return _as_result(r * r)


def loss_grad(y, y_hat, spec: LossSpec):
    """dL/dy_hat, elementwise.

    MSE: -2(y - y_hat).  CLF: -c^2 (y - y_hat) / (c^2 + (y - y_hat)^2).
    """
    _check_finite("y", y)
    _check_finite("y_hat", y_hat)
    r = _residual(y, y_hat)
    if spec.kind is LossKind.MSE:
        return _as_result(-2.0 * r)
    return _as_result(_clf_grad_of_residual(r, spec.c))


def influence(r_abs, spec: LossSpec):
    """|dL/dr| as a function of residual magnitude r_abs >= 0.

    MSE grows linearly (2 r) without bound; CLF peaks at c/2 when r = c
    and decays toward zero for large residuals.
    """
    r = np.asarray(r_abs, dtype=float)
    _check_finite("r_abs", r)
    if np.any(r < 0):
        raise ValueError("r_abs must be nonnegative")
    if spec.kind is LossKind.MSE:
        return _as_result(2.0 * r)
    return _as_result(-_clf_grad_of_residual(r, spec.c))


def _paired(targets, preds):
    t = np.asarray(targets, dtype=float)
    p = np.asarray(preds, dtype=float)
    if t.ndim != 1 or p.ndim != 1 or t.shape != p.shape:
        raise ValueError(f"targets and preds must be equal-length vectors, got {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("empty score vectors")
    _check_finite("targets", t)
    _check_finite("preds", p)
    return t, p


def mae_score(targets, preds) -> float:
    """Mean absolute error."""
    t, p = _paired(targets, preds)
    return float(np.mean(np.abs(t - p)))


def rmse_score(targets, preds) -> float:
    """Root mean squared error."""
    t, p = _paired(targets, preds)
    return float(np.sqrt(np.mean((t - p) ** 2)))
