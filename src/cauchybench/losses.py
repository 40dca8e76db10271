"""Per-sample regression losses, their prediction gradients, influence
functions, and the scoring metrics (MAE, RMSE).

The Cauchy loss for a residual r = y - y_hat with constant c > 0 is

    L(r) = (c^2 / 2) * ln(1 + (r / c)^2)

which behaves like r^2 / 2 for |r| << c and grows only logarithmically
for |r| >> c, so the pull a single sample exerts on the fit is bounded.
Squared error, by contrast, weights residuals without bound.

All public functions accept scalars or numpy arrays (broadcasting
elementwise) and are pure; batch aggregation (the mean) is the trainer's
job. The Cauchy loss and both gradients have one formula, the kernel
``_loss_grad_into``, which the trainer and the public functions share.
"""

from __future__ import annotations

import math
import numbers
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
            _check_real("c", self.c)
            _check_clf_constant(self.c)  # rejects a non-finite c with its own reason

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
    overflows to inf nor underflows to a subnormal or zero, and with c^3
    finite, so the gradient's c^2 * r cannot overflow for |r| <= c (c up
    to about 5.6e102)."""
    sq = float(c) * float(c)
    if not (c > 0 and np.isfinite(sq * float(c)) and sq >= np.finfo(float).tiny):
        raise ValueError(
            f"CLF constant c must be > 0 with c^2 a finite normal float and c^3 finite, got {c}"
        )


def _as_int(name: str, value, minimum: int) -> int:
    """``value`` as an int >= ``minimum``. An integral float (JSON ``5.0``)
    passes; a bool, a string, None or a fractional float does not."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _check_numbers(obj, *reals: str, **int_minimums: int) -> None:
    """Type checks for the numeric fields of a frozen config dataclass, so
    a JSON value of the wrong type fails naming its field, not inside a
    run: each of ``reals`` is a finite number (not NaN, an infinity, a
    bool, a string or None), and each of ``int_minimums`` passes
    ``_as_int`` and is stored as an int."""
    for name in reals:
        value = getattr(obj, name)
        _check_real(name, value)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    for name, minimum in int_minimums.items():
        object.__setattr__(obj, name, _as_int(name, getattr(obj, name), minimum))


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


def _as_result(value):
    # scalar in -> float out, array in -> array out
    return float(value) if np.ndim(value) == 0 else value


# The one kernel of both losses and their gradients. It is unvalidated:
# the trainer calls it on data it has already screened (so an overflowing
# prediction surfaces as divergence, not as an argument error), and
# broadcasts (M, 1) columns of per-model constants against an
# (F, M, width) residual block.


def _loss_constants(spec: LossSpec) -> tuple:
    """The kernel's constants of one loss: whether it is MSE, then c, c^2,
    c^2 / 2 and -c^2 (MSE carries c = 1)."""
    is_mse = spec.kind is LossKind.MSE
    c = 1.0 if is_mse else float(spec.c)
    return is_mse, c, c * c, 0.5 * c * c, -(c * c)


def _loss_columns(specs) -> tuple[np.ndarray, ...]:
    """``_loss_constants`` of each model in ``specs``, as (M, 1) columns."""
    return tuple(np.array(column)[:, None] for column in zip(*map(_loss_constants, specs)))


def _loss_grad_into(r, columns, loss, grad, scratch) -> None:
    """Per-sample losses and dL/dprediction of the residuals ``r``,
    written into ``loss`` and ``grad``; ``scratch`` is a third buffer of
    their shape. ``columns`` is the tuple of ``_loss_constants``, as
    scalars or as ``_loss_columns``' (M, 1) columns: rows marked MSE
    take r^2 and -2r, the others (c^2/2) ln(1 + (r/c)^2) and
    -c^2 r / (c^2 + r^2), whose r^2 is the MSE loss's r * r."""
    is_mse, c, c2, half_c2, neg_c2 = columns
    np.multiply(r, r, out=scratch)
    np.divide(r, c, out=loss)
    np.square(loss, out=loss)
    np.log1p(loss, out=loss)
    np.multiply(half_c2, loss, out=loss)
    np.copyto(loss, scratch, where=is_mse)
    np.multiply(neg_c2, r, out=grad)
    np.add(c2, scratch, out=scratch)
    np.divide(grad, scratch, out=grad)
    np.multiply(r, -2.0, out=scratch)
    np.copyto(grad, scratch, where=is_mse)


def _residual(y, y_hat):
    return np.asarray(y, dtype=float) - np.asarray(y_hat, dtype=float)


def _loss_and_grad(r, spec: LossSpec):
    """The kernel's (loss, gradient) of the residuals ``r`` under ``spec``.
    Both are evaluated, and an extreme residual that one of them cannot
    represent must not warn when only the other is asked for (at
    r = 1e200, c = 1e100 the loss is finite but the gradient's -c^2 r
    over c^2 + r^2 is -inf / inf), so overflow and invalid operations
    are silenced: the result asked for carries its inf or nan itself."""
    r = np.asarray(r, dtype=float)
    loss, grad, scratch = np.empty_like(r), np.empty_like(r), np.empty_like(r)
    with np.errstate(over="ignore", invalid="ignore"):
        _loss_grad_into(r, _loss_constants(spec), loss, grad, scratch)
    return loss, grad


def clf_loss(y, y_hat, c: float):
    """Cauchy loss (c^2/2) * ln(1 + ((y - y_hat)/c)^2), elementwise."""
    _check_clf_constant(c)
    _check_finite("y", y)
    _check_finite("y_hat", y_hat)
    return _as_result(_loss_and_grad(_residual(y, y_hat), LossSpec.clf(c))[0])


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
    return _as_result(_loss_and_grad(_residual(y, y_hat), spec)[1])


def influence(r_abs, spec: LossSpec):
    """|dL/dr| as a function of residual magnitude r_abs >= 0.

    MSE grows linearly (2 r) without bound; CLF peaks at c/2 when r = c
    and decays toward zero for large residuals.
    """
    r = np.asarray(r_abs, dtype=float)
    _check_finite("r_abs", r)
    if np.any(r < 0):
        raise ValueError("r_abs must be nonnegative")
    return _as_result(-_loss_and_grad(r, spec)[1])


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
