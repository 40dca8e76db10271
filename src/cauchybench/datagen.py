"""Synthetic regression data, noise samplers, and target corruption.

Two handcrafted target functions are provided: a smooth two-variable
surface (exp minus sine) and an eight-variable, quickly oscillating
product form. Targets can be corrupted with additive Gaussian or Cauchy
noise, or by replacing a proportion of them with uniform draws spanning
a large multiple of the data range (simulated outliers).

Corruption functions follow value semantics: they return a new Dataset
and never touch their input. Every sampler is deterministic under its
seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "Dataset",
    "NoiseFamily",
    "NoiseSpec",
    "HC2_RANGES",
    "HC8_RANGES",
    "sample_inputs",
    "target_y1",
    "target_y2",
    "make_hc2",
    "make_hc8",
    "gaussian_noise",
    "cauchy_noise",
    "cauchy_quantile",
    "inject_additive",
    "inject_outliers",
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
        return Dataset(self.X[idx].copy(), self.y[idx].copy(), dict(self.meta))


class NoiseFamily(str, Enum):
    NONE = "none"
    GAUSSIAN = "gaussian"
    CAUCHY = "cauchy"
    UNIFORM_OUTLIER = "uniform_outlier"


@dataclass(frozen=True)
class NoiseSpec:
    """Which corruption to apply to training targets, and with what parameters."""

    family: NoiseFamily
    sigma: float | None = None          # Gaussian std
    x0: float = 0.0                     # Cauchy location
    tau: float | None = None            # Cauchy scale
    proportion: float | None = None     # outlier fraction of rows
    range_multiplier: float = 500.0     # outlier interval width / data range
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", NoiseFamily(self.family))
        fam = self.family
        if fam is NoiseFamily.GAUSSIAN and not (self.sigma is not None and self.sigma > 0):
            raise ValueError("Gaussian noise needs sigma > 0")
        if fam is NoiseFamily.CAUCHY and not (self.tau is not None and self.tau > 0):
            raise ValueError("Cauchy noise needs tau > 0")
        if fam is NoiseFamily.UNIFORM_OUTLIER:
            if self.proportion is None or not (0.0 <= self.proportion <= 1.0):
                raise ValueError("outlier proportion must lie in [0, 1]")
            if self.range_multiplier <= 0:
                raise ValueError("range_multiplier must be > 0")

    def describe(self) -> dict:
        d = {"family": self.family.value, "seed": self.seed}
        if self.family is NoiseFamily.GAUSSIAN:
            d["sigma"] = self.sigma
        elif self.family is NoiseFamily.CAUCHY:
            d.update(x0=self.x0, tau=self.tau)
        elif self.family is NoiseFamily.UNIFORM_OUTLIER:
            d.update(proportion=self.proportion, range_multiplier=self.range_multiplier)
        return d


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


def gaussian_noise(sigma: float, n: int, seed) -> np.ndarray:
    """n i.i.d. N(0, sigma^2) draws."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    return np.random.default_rng(seed).normal(0.0, sigma, size=n)


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


def cauchy_quantile(u, x0: float, tau: float):
    """Inverse CDF of Cauchy(x0, tau): x0 + tau * tan(pi (u - 1/2))."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    out = x0 + tau * _tanpi(u - 0.5)
    return float(out) if out.ndim == 0 else out


def cauchy_noise(x0: float, tau: float, n: int, seed) -> np.ndarray:
    """n Cauchy(x0, tau) draws by inverse CDF; non-finite draws are redrawn."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        u = rng.random(pending.size)
        vals = x0 + tau * _tanpi(u - 0.5)
        ok = np.isfinite(vals)
        out[pending[ok]] = vals[ok]
        pending = pending[~ok]
    return out


def inject_additive(data: Dataset, spec: NoiseSpec) -> Dataset:
    """New dataset with y + eps, eps from the Gaussian or Cauchy family."""
    if spec.family is NoiseFamily.GAUSSIAN:
        eps = gaussian_noise(spec.sigma, len(data), spec.seed)
    elif spec.family is NoiseFamily.CAUCHY:
        eps = cauchy_noise(spec.x0, spec.tau, len(data), spec.seed)
    else:
        raise ValueError(f"inject_additive expects Gaussian or Cauchy noise, got {spec.family.value}")
    meta = dict(data.meta)
    meta["noise"] = spec.describe()
    return Dataset(data.X.copy(), data.y + eps, meta)


def _round_half_away(x: float) -> int:
    return int(np.floor(x + 0.5))


def inject_outliers(data: Dataset, proportion: float, range_multiplier: float, seed) -> Dataset:
    """Replace round(N * proportion) targets with uniform draws over a wide interval.

    The interval is centered at the midpoint of the observed targets and
    spans range_multiplier times their range, so corrupted values dwarf
    anything the clean data contains.
    """
    if not (0.0 <= proportion <= 1.0):
        raise ValueError("proportion must lie in [0, 1]")
    if range_multiplier <= 0:
        raise ValueError("range_multiplier must be > 0")
    y = data.y
    lo, hi = float(y.min()), float(y.max())
    if hi == lo:
        raise ValueError("degenerate targets (max == min); outlier range undefined")
    n_corrupt = _round_half_away(len(data) * proportion)
    rng = np.random.default_rng(seed)
    new_y = y.copy()
    idx = rng.choice(len(data), size=n_corrupt, replace=False)
    center = 0.5 * (hi + lo)
    half_width = 0.5 * range_multiplier * (hi - lo)
    new_y[idx] = rng.uniform(center - half_width, center + half_width, size=n_corrupt)
    meta = dict(data.meta)
    meta["noise"] = {
        "family": NoiseFamily.UNIFORM_OUTLIER.value,
        "proportion": proportion,
        "range_multiplier": range_multiplier,
        "n_corrupted": int(n_corrupt),
        "seed": seed if isinstance(seed, int) else str(seed),
    }
    return Dataset(data.X.copy(), new_y, meta)


def apply_noise(data: Dataset, spec: NoiseSpec) -> Dataset:
    """Dispatch on the noise family; NONE returns the dataset unchanged."""
    if spec.family is NoiseFamily.NONE:
        return data
    if spec.family is NoiseFamily.UNIFORM_OUTLIER:
        return inject_outliers(data, spec.proportion, spec.range_multiplier, spec.seed)
    return inject_additive(data, spec)


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
