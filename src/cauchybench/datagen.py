"""Synthetic regression data, noise samplers, and target corruption.

Two handcrafted target functions are provided: a smooth two-variable
surface (exp minus sine) and an eight-variable, quickly oscillating
product form. Targets can be corrupted with additive Gaussian or Cauchy
noise, or by replacing a proportion of them with uniform draws spanning
a large multiple of the data range (simulated outliers).

Corruption acts on targets alone: ``apply_noise`` takes a target vector
and returns a new, corrupted one, never changing its input; features are
untouched, so a caller keeps its own feature matrix. Every sampler is
deterministic under its seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .losses import _check_numbers

__all__ = [
    "Dataset",
    "NoiseSpec",
    "noise_spec",
    "HC2_RANGES",
    "HC8_RANGES",
    "sample_inputs",
    "target_y1",
    "target_y2",
    "make_hc2",
    "make_hc8",
    "cauchy_noise",
    "cauchy_quantile",
    "apply_noise",
    "export_csv",
]

# Sampling boxes for the handcrafted targets.
HC2_RANGES: tuple[tuple[float, float], ...] = ((-6.0, 2.0), (-3.0, 9.0))
HC8_RANGES: tuple[tuple[float, float], ...] = (
    (-6.0, 17.0),
    (-7.0, 20.0),
    (-2.0, 17.0),
    (-6.0, 10.0),
    (-10.0, 16.0),
    (-5.0, 10.0),
    (-15.0, 9.0),
    (-1.0, 14.0),
)


@dataclass
class Dataset:
    """Feature matrix, target vector, and a provenance record."""

    X: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError(f"inconsistent shapes X{self.X.shape} y{self.y.shape}")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset entries must be finite")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset as a new Dataset (copies, meta shared shallowly)."""
        idx = np.asarray(indices)
        return Dataset(self.X[idx], self.y[idx], dict(self.meta))  # fancy indexing copies


# The noise families by config name, and the NoiseSpec fields each reads.
_FAMILIES = {
    "none": (),
    "gaussian": ("sigma",),
    "cauchy": ("x0", "tau"),
    "uniform_outlier": ("proportion", "range_multiplier"),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Which corruption to apply to training targets, and with what
    parameters. ``family`` is the config name itself, checked against
    ``_FAMILIES``, the one table of the families and the fields they read."""

    family: str
    sigma: float | None = None          # Gaussian std
    x0: float = 0.0                     # Cauchy location
    tau: float | None = None            # Cauchy scale
    proportion: float | None = None     # outlier fraction of rows
    range_multiplier: float = 500.0     # outlier interval width / data range
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.family, str) and self.family in _FAMILIES):
            raise ValueError(f"unknown noise family {self.family!r}; expected one of {', '.join(_FAMILIES)}")
        _check_numbers(self, *_FAMILIES[self.family], seed=0)
        if self.family == "gaussian" and not self.sigma > 0:
            raise ValueError("Gaussian noise needs sigma > 0")
        if self.family == "cauchy" and not self.tau > 0:
            raise ValueError("Cauchy noise needs tau > 0")
        if self.family == "uniform_outlier":
            if not 0.0 <= self.proportion <= 1.0:
                raise ValueError("outlier proportion must lie in [0, 1]")
            if self.range_multiplier <= 0:
                raise ValueError("range_multiplier must be > 0")

    def describe(self) -> dict:
        d = {"family": self.family, "seed": self.seed}
        d.update((name, getattr(self, name)) for name in _FAMILIES[self.family])
        return d


def noise_spec(given: dict, key_name: str) -> NoiseSpec:
    """The NoiseSpec of ``given``, whose family is its config name. A noise
    parameter that its row of ``_FAMILIES`` does not list is an error,
    naming it as ``key_name.format(key)``."""
    spec = NoiseSpec(**given)
    for key in given:
        if key not in ("family", "seed", *_FAMILIES[spec.family]):
            raise ValueError(f"{key_name.format(key)} does not apply to {spec.family} noise")
    return spec


def sample_inputs(ranges: Sequence[tuple[float, float]], n: int, seed) -> np.ndarray:
    """(n, d) matrix with column j uniform on ranges[j]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    los = np.array([r[0] for r in ranges], dtype=float)
    his = np.array([r[1] for r in ranges], dtype=float)
    if np.any(los >= his):
        raise ValueError("each range must satisfy lo < hi")
    rng = np.random.default_rng(seed)
    return los + (his - los) * rng.random((n, len(ranges)))


def target_y1(x1, x2):
    """Two-variable target exp(x1) - sin(x2)."""
    return np.exp(x1) - np.sin(x2)


def target_y2(x):
    """Eight-variable oscillating target.

    0.03 * ( sin^2(x1) (x2-2)(x3-8)(x4-11)
           + cos^2(x5) (x6-6)(x7-6)(x8+5)^2 )

    ``x`` is an 8-vector or an (n, 8) matrix.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != 8:
        raise ValueError("target_y2 expects 8 input variables")
    a = np.sin(X[:, 0]) ** 2 * (X[:, 1] - 2) * (X[:, 2] - 8) * (X[:, 3] - 11)
    b = np.cos(X[:, 4]) ** 2 * (X[:, 5] - 6) * (X[:, 6] - 6) * (X[:, 7] + 5) ** 2
    out = 0.03 * (a + b)
    return float(out[0]) if single else out


def make_hc2(n: int, seed) -> Dataset:
    X = sample_inputs(HC2_RANGES, n, seed)
    return Dataset(X, target_y1(X[:, 0], X[:, 1]), meta={"source": "hc2", "n": n})


def make_hc8(n: int, seed) -> Dataset:
    X = sample_inputs(HC8_RANGES, n, seed)
    return Dataset(X, target_y2(X), meta={"source": "hc8", "n": n})


def _tanpi(v):
    """tan(pi * v) for v in (-0.5, 0.5), exact at v = 0 and |v| = 0.25.

    Naive tan(pi*v) loses the identity tan(pi/4) == 1 to rounding;
    reducing |v| > 0.25 through the cotangent keeps accuracy near the
    poles and the quarter point exact.
    """
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    with np.errstate(divide="ignore"):
        t = np.where(
            a == 0.25,
            1.0,
            np.where(a <= 0.25, np.tan(np.pi * a), 1.0 / np.tan(np.pi * (0.5 - a))),
        )
    return np.copysign(t, v)


def _cauchy(u, x0: float, tau: float):
    """x0 + tau * tan(pi (u - 1/2)), the Cauchy(x0, tau) inverse CDF at ``u``;
    ±inf where it overflows float64 or meets the pole at u = 0."""
    if not (np.isfinite(x0) and np.isfinite(tau) and tau > 0):
        raise ValueError(f"need a finite x0 and a finite tau > 0, got x0={x0!r}, tau={tau!r}")
    with np.errstate(over="ignore"):
        return x0 + tau * _tanpi(u - 0.5)


def cauchy_quantile(u, x0: float, tau: float):
    """Inverse CDF of Cauchy(x0, tau): x0 + tau * tan(pi (u - 1/2)). A value
    beyond float64, at a huge tau, is a ValueError."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    out = _cauchy(u, x0, tau)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"the Cauchy({x0!r}, {tau!r}) quantile overflows float64")
    return float(out) if out.ndim == 0 else out


def cauchy_noise(x0: float, tau: float, n: int, seed) -> np.ndarray:
    """n Cauchy(x0, tau) draws by inverse CDF; a non-finite draw (a pole,
    or an overflow at a huge tau) is redrawn."""
    rng = np.random.default_rng(seed)
    out = _cauchy(rng.random(n), x0, tau)
    bad = ~np.isfinite(out)
    while bad.any():
        out[bad] = _cauchy(rng.random(int(bad.sum())), x0, tau)
        bad = ~np.isfinite(out)
    return out


def apply_noise(y, spec: NoiseSpec) -> np.ndarray:
    """A new target vector: ``y`` corrupted as ``spec`` says, drawn from ``spec.seed``.

    Gaussian and Cauchy noise are added to every target. Outliers replace
    round(len(y) * proportion) targets, halves rounded away from zero,
    with uniform draws over an interval centred at the midpoint of the
    targets and spanning range_multiplier times their range, so corrupted
    values dwarf anything the clean data holds. ``spec.family`` is compared
    as its name, which NoiseSpec checked against ``_FAMILIES``; "none"
    returns a copy.
    """
    y = np.asarray(y, dtype=float)
    if spec.family == "gaussian":
        out = y + np.random.default_rng(spec.seed).normal(0.0, spec.sigma, size=len(y))
    elif spec.family == "cauchy":
        out = y + cauchy_noise(spec.x0, spec.tau, len(y), spec.seed)
    else:
        out = y.copy()
    if spec.family == "uniform_outlier":
        lo, hi = float(y.min()), float(y.max())
        if hi == lo:
            raise ValueError("degenerate targets (max == min); outlier range undefined")
        width = spec.range_multiplier * (hi - lo)
        if not np.isfinite(width):
            raise ValueError("the outlier interval is wider than float64 can hold")
        n_corrupt = int(np.floor(len(y) * spec.proportion + 0.5))
        rng = np.random.default_rng(spec.seed)
        idx = rng.choice(len(y), size=n_corrupt, replace=False)
        center = 0.5 * (hi + lo)
        out[idx] = rng.uniform(center - 0.5 * width, center + 0.5 * width, size=n_corrupt)
    if not np.all(np.isfinite(out)):
        raise ValueError("corrupted targets must be finite; the noise scale overflows float64")
    return out


def export_csv(data: Dataset, path) -> None:
    """Write the dataset as CSV: feature columns then the target column.

    Values use repr-style formatting, so ``ingest.load_dataset`` with an
    all-numeric schema reads them back exactly.
    """
    names = data.meta.get("feature_names") or [f"x{i + 1}" for i in range(data.n_features)]
    target = data.meta.get("target_name", "y")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*names, target])
        for row, yv in zip(data.X, data.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(yv))])
