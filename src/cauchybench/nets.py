"""Minimal dense feed-forward regression network.

ReLU hidden layers, linear scalar output, hand-written backprop, and the
Adam optimizer with bias correction. Everything is deterministic given
the seeds carried in the configs; no global RNG state is touched.

``train_models`` trains several losses together: the models share one
initialization, one shuffle stream and so one minibatch stream, and only
their loss gradients differ. Their parameters are stacked along a leading
model axis (weights ``(M, out, in)``, biases ``(M, out)``, all views into
one flat ``(M, P)`` buffer), so each step is one batched forward and
backward pass and one fused in-place Adam update for every model at once.
Each model's result is bit-identical to training it alone; ``train`` is
the one-model case.

Features are standardized inside ``train`` using statistics of the
training data it receives (targets are left on their original scale),
and the fitted scaler travels with the returned model so predictions on
held-out data see the same transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .losses import LossKind, LossSpec, _clf_grad_of_residual, _clf_of_residual

__all__ = [
    "NetworkConfig",
    "TrainConfig",
    "Parameters",
    "AdamState",
    "FeatureScaler",
    "TrainedModel",
    "TrainingDiverged",
    "init_params",
    "forward",
    "backward",
    "predict",
    "adam_step",
    "init_adam_state",
    "minibatch_indices",
    "train",
    "train_models",
]


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite training loss appears; carries the epoch.

    ``model`` is the index, in the trained loss list, of the model that
    diverged (None when the error does not come from a trainer).
    """

    def __init__(self, epoch: int, detail: str = "", model: int | None = None):
        self.epoch = epoch
        self.model = model
        msg = f"training diverged at epoch {epoch}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    hidden_layers: tuple[int, ...]
    output_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if not self.hidden_layers or any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden_layers must be a nonempty sequence of positive ints")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, self.output_dim)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")


@dataclass
class Parameters:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors.

    Also reused as the container for gradients, which share the shapes.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "Parameters":
        return Parameters([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def zeros_like(self) -> "Parameters":
        return Parameters(
            [np.zeros_like(w) for w in self.weights],
            [np.zeros_like(b) for b in self.biases],
        )

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def allclose(self, other: "Parameters", **kw) -> bool:
        return all(np.allclose(a, b, **kw) for a, b in zip(self.weights, other.weights)) and all(
            np.allclose(a, b, **kw) for a, b in zip(self.biases, other.biases)
        )


@dataclass
class AdamState:
    m: Parameters
    v: Parameters
    t: int = 0


def init_adam_state(params: Parameters) -> AdamState:
    return AdamState(m=params.zeros_like(), v=params.zeros_like(), t=0)


def init_params(cfg: NetworkConfig, seed) -> Parameters:
    """Fan-in-scaled uniform weights U(-1/sqrt(fan_in), 1/sqrt(fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    sizes = cfg.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Parameters(weights, biases)


@dataclass
class ForwardCache:
    inputs: np.ndarray          # (n, input_dim)
    pre_acts: list[np.ndarray]  # per layer, (n, fan_out)
    acts: list[np.ndarray]      # post-ReLU per hidden layer, (n, fan_out)


def _forward(weights, biases, x: np.ndarray):
    """Pre-activations and hidden activations of a batch ``x`` of shape (n, d).

    Parameters may carry a leading model axis, weights (M, out, in) and
    biases (M, out); ``x`` is then shared by every model and each layer's
    arrays gain that axis, (M, n, out).
    """
    a = x
    pre_acts, acts = [], []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.swapaxes(-1, -2) + b[..., None, :]
        pre_acts.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
            acts.append(a)
    return pre_acts, acts


def _forward_2d(params: Parameters, x: np.ndarray):
    pre_acts, acts = _forward(params.weights, params.biases, x)
    return pre_acts[-1][:, 0], ForwardCache(inputs=x, pre_acts=pre_acts, acts=acts)


def forward(params: Parameters, x):
    """Run the network on a single input vector or an (n, d) batch.

    Returns (prediction, cache); prediction is a float for a 1-D input
    and an (n,) array for a batch. The cache feeds ``backward``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = x[None, :] if single else x
    if x2.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input has {x2.shape[1]} features, network expects {params.weights[0].shape[1]}"
        )
    preds, cache = _forward_2d(params, x2)
    return (float(preds[0]) if single else preds), cache


def predict(params: Parameters, X: np.ndarray) -> np.ndarray:
    """Predictions for an (n, d) matrix, no cache kept."""
    return _forward_2d(params, np.asarray(X, dtype=float))[0]


def _backward(weights, inputs, pre_acts, acts, g, grad_w, grad_b) -> None:
    """Sum over the batch of parameter gradients, written into grad_w / grad_b.

    ``g`` is dL/dprediction, (n,) or (M, n) with a model axis. An entry of
    the output lists that is None is allocated fresh.
    """
    delta = g[..., None]  # output layer is affine
    for i in range(len(weights) - 1, -1, -1):
        a_prev = inputs if i == 0 else acts[i - 1]
        grad_w[i] = np.matmul(delta.swapaxes(-1, -2), a_prev, out=grad_w[i])
        grad_b[i] = delta.sum(axis=-2, out=grad_b[i])
        if i > 0:
            delta = (delta @ weights[i]) * (pre_acts[i - 1] > 0.0)


def backward(params: Parameters, cache: ForwardCache, dloss_dpred) -> Parameters:
    """Backpropagate dL/dprediction to parameter gradients.

    ``dloss_dpred`` is a scalar for a single-sample cache or an (n,)
    vector for a batch cache; for a batch the returned gradients are the
    SUM over samples (divide by n for the batch mean). The ReLU
    subgradient at exactly 0 is taken as 0.
    """
    g = np.atleast_1d(np.asarray(dloss_dpred, dtype=float))
    n = cache.inputs.shape[0]
    if g.shape != (n,):
        raise ValueError(f"dloss_dpred has shape {g.shape}, cache holds {n} samples")
    grads = Parameters([None] * params.n_layers, [None] * params.n_layers)
    _backward(params.weights, cache.inputs, cache.pre_acts, cache.acts, g, grads.weights, grads.biases)
    return grads


def _adam_update(theta, g, m, v, t: int, tc: TrainConfig) -> None:
    """Bias-corrected Adam step number ``t``, in place on theta, m and v."""
    b1, b2, lr, eps = tc.beta1, tc.beta2, tc.learning_rate, tc.epsilon
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def adam_step(
    params: Parameters, grads: Parameters, state: AdamState, tc: TrainConfig
) -> tuple[Parameters, AdamState]:
    """One bias-corrected Adam update; returns fresh (Parameters, AdamState)."""
    t = state.t + 1
    new, m, v = params.copy(), state.m.copy(), state.v.copy()
    for arrays in zip(
        new.weights + new.biases,
        grads.weights + grads.biases,
        m.weights + m.biases,
        v.weights + v.biases,
    ):
        _adam_update(*arrays, t, tc)
    return new, AdamState(m=m, v=v, t=t)


@dataclass(frozen=True)
class FeatureScaler:
    mean: np.ndarray
    scale: np.ndarray

    @staticmethod
    def fit(X: np.ndarray) -> "FeatureScaler":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)  # constant columns pass through
        return FeatureScaler(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.scale


@dataclass
class TrainedModel:
    params: Parameters
    scaler: FeatureScaler
    net: NetworkConfig

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict(self.params, self.scaler.transform(X))


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's shuffled batch index arrays (last batch may be short)."""
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _shuffle_rng(seed) -> np.random.Generator:
    # Separate stream from init_params(seed) so the two never interact.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))


def _stacked_views(flat: np.ndarray, sizes: Sequence[int]):
    """Per-layer (M, out, in) weight and (M, out) bias views of a flat (M, P) buffer."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[:, at : at + fan_out * fan_in].reshape(-1, fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[:, at : at + fan_out])
        at += fan_out
    return weights, biases


def train_models(
    data, net: NetworkConfig, losses: Sequence[LossSpec], tc: TrainConfig
) -> list[TrainedModel]:
    """Mini-batch Adam training of ``net`` under each loss in ``losses``.

    Every model starts from ``init_params(net, tc.seed)`` and sees the
    same minibatches: the epoch shuffle uses an independent stream derived
    from the same seed, so each model is a pure function of (data, net,
    loss, tc) and does not depend on the other losses in the list. The
    per-batch gradient is the mean over the batch of per-sample
    prediction gradients pushed through backprop. Returns one model per
    loss, in order.

    Raises TrainingDiverged (carrying the epoch, and the index of the
    model in ``losses``) at the first step where some model's prediction
    or batch loss is non-finite; when several models diverge on the same
    step, the first of them in ``losses`` is named.
    """
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=float)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty training data")
    if X.shape[1] != net.input_dim:
        raise ValueError(f"data has {X.shape[1]} features, network expects {net.input_dim}")
    if net.output_dim != 1:
        raise ValueError("training supports scalar outputs only")
    if not losses:
        raise ValueError("at least one loss is required")

    scaler = FeatureScaler.fit(X)
    Xs = scaler.transform(X)
    init = init_params(net, tc.seed)
    row = np.concatenate([a.ravel() for wb in zip(init.weights, init.biases) for a in wb])
    theta = np.tile(row, (len(losses), 1))
    grad, m, v = np.empty_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    # Each model's slice of a view keeps a single model's inner strides, so
    # batched matmul makes per model the same BLAS call as for one model:
    # that keeps every model bit-identical to training it alone.
    weights, biases = _stacked_views(theta, net.layer_sizes)
    grad_w, grad_b = _stacked_views(grad, net.layer_sizes)
    # Per-model loss constants as (M, 1) columns; MSE rows carry a dummy c.
    is_mse = np.array([[spec.kind is LossKind.MSE] for spec in losses])
    c = np.array([[1.0 if spec.kind is LossKind.MSE else spec.c] for spec in losses])
    shuffle = _shuffle_rng(tc.seed)

    t = 0
    for epoch in range(tc.epochs):
        for idx in minibatch_indices(n, tc.batch_size, shuffle):
            xb, yb = Xs[idx], y[idx]
            with np.errstate(over="ignore", invalid="ignore"):
                # Overflow here is the divergence signal itself, not an anomaly.
                pre_acts, acts = _forward(weights, biases, xb)
                r = yb - pre_acts[-1][..., 0]
                loss = np.where(is_mse, r * r, _clf_of_residual(r, c))
                bad = ~np.isfinite(loss.sum(axis=1))
            if bad.any():
                k = int(np.argmax(bad))
                finite = np.all(np.isfinite(pre_acts[-1][k]))
                raise TrainingDiverged(
                    epoch, "non-finite loss" if finite else "non-finite prediction", model=k
                )
            g = np.where(is_mse, -2.0 * r, _clf_grad_of_residual(r, c))
            _backward(weights, xb, pre_acts, acts, g, grad_w, grad_b)
            grad *= 1.0 / idx.size
            t += 1
            _adam_update(theta, grad, m, v, t, tc)

    return [
        TrainedModel(
            params=Parameters([w[k].copy() for w in weights], [b[k].copy() for b in biases]),
            scaler=scaler,
            net=net,
        )
        for k in range(len(losses))
    ]


def train(data, net: NetworkConfig, loss: LossSpec, tc: TrainConfig) -> TrainedModel:
    """Mini-batch Adam training of ``net`` under ``loss``: ``train_models``
    with a single loss.

    Initialization is exactly ``init_params(net, tc.seed)``; the epoch
    shuffle uses an independent stream derived from the same seed, so the
    whole run is a pure function of (data, net, loss, tc).

    Raises TrainingDiverged (carrying the epoch index) if a non-finite
    prediction or batch loss shows up.
    """
    return train_models(data, net, (loss,), tc)[0]
