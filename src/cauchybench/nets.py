"""Minimal dense feed-forward regression network.

ReLU hidden layers, linear scalar output, hand-written backprop, and the
Adam optimizer with bias correction. Everything is deterministic given
the seeds carried in the configs; no global RNG state is touched.

``train_folds`` trains several losses on several folds together. The
folds are row subsets of one shared feature matrix, each with its own
targets, so no fold's features are copied: every step gathers all
folds' batches from the shared matrix in one ``np.take``. The models of
one fold share one initialization, one shuffle stream and so one
minibatch stream, and only their loss gradients differ; each fold keeps
its own seed, shuffle stream and feature scaler. Parameters live in one
flat (F, M·P) buffer, F folds by M models of P parameters, laid out
layer by layer within a fold: layer 1 as M (h, d+1) matrices [W | b],
each later layer as its M weight matrices, then its M bias vectors.
The weights are viewed as (F, M, out, in) and the biases as (F, M, out),
and layer 1 also as (F, M·h, d+1). Batches are gathered with a last
column of ones, so the models of a fold, which share the batch, make one
layer-1 GEMM that adds the bias, and one weight-gradient GEMM whose last
column is the bias gradient. ReLU outputs (made in place), deltas and
masks live in reused fold-major (F, batch, M, h) buffers (model-major
for layers of fewer than 4 units, see ``_hidden_rows``): elementwise
passes run over contiguous rows, and the later layers' products run per
(fold, model) pair, with the arithmetic of that model alone. Behind a
fold-major last hidden layer, the output layer's delta is one GEMM per
fold against its weights laid out block-diagonally (see ``_Step``).

Every view and buffer a step uses is built once, in a ``_Step`` object
per batch width (a call has at most two: the full batch and the last
one), so ``_forward``, the loss kernel, ``_backward`` and Adam, one
in-place update of the flat buffer through two scratch buffers, only
write into arrays that already exist. Adam's bias corrections come from
a table of every step number, built once per call. A step computes the
gradient half of the loss kernel only; the loss half and the exact
divergence check run only on a step whose largest squared residual is
NaN or above ``_finite_loss_bound``, at or below which no loss can be
non-finite. Short last batches are padded and masked, and a fold with
one batch fewer than its peers is masked out of the extra step's update.
``train`` is the one-fold, one-model case. ``forward`` builds and runs
the step of one model over one batch (F = M = 1) and returns it as the
cache that ``backward`` replays; ``TrainedModel.predict`` keeps only its
predictions.

Features are standardized using statistics of the training data each
fold receives (targets are left on their original scale), and the fitted
scaler travels with the returned model so predictions on held-out data
see the same transform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .losses import LossSpec, _as_int, _check_numbers, _grad_into, _loss_columns, _loss_into

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
    "adam_step",
    "init_adam_state",
    "train",
    "train_folds",
]


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite training loss appears; carries the epoch.

    ``model`` is the index, in the trained loss list, of the model that
    diverged and ``fold`` the index of its fold in the trained fold list
    (None when the error does not come from a trainer).
    """

    def __init__(
        self, epoch: int, detail: str = "", model: int | None = None, fold: int | None = None
    ):
        self.epoch = epoch
        self.detail = detail
        self.model = model
        self.fold = fold
        msg = f"training diverged at epoch {epoch}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):
        # rebuilt from the fields, not from ``args`` (the formatted message),
        # so the error crosses a process boundary unchanged
        return type(self), (self.epoch, self.detail, self.model, self.fold)


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    hidden_layers: tuple[int, ...]

    def __post_init__(self):
        layers = tuple(_as_int(f"hidden_layers[{i}]", h, 1) for i, h in enumerate(self.hidden_layers))
        if not layers:
            raise ValueError("hidden_layers must be a nonempty sequence of positive ints")
        object.__setattr__(self, "hidden_layers", layers)
        _check_numbers(self, input_dim=1)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, 1)


@dataclass(frozen=True)
class TrainConfig:
    """Adam's settings, epochs and batch size. A batch_size at or above the
    largest fold trains full-batch, with buffers sized by that fold."""

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        _check_numbers(self, "learning_rate", "beta1", "beta2", "epsilon", epochs=0, batch_size=1, seed=0)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


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


# Hidden layers narrower than this keep each model's rows contiguous
# (see _hidden_rows).
_NARROW = 4


def _merge(a: np.ndarray, axis: int) -> np.ndarray:
    """The view of ``a`` with axes ``axis`` and ``axis + 1`` merged:
    (F, M·h, d) for stacked (F, M, h, d) weights, (F, w, M·h) for
    (F, w, M, h) rows."""
    return a.reshape(*a.shape[:axis], -1, *a.shape[axis + 2 :], copy=False)


def _hidden_rows(n_folds: int, width: int, n_models: int, hidden: Sequence[int]) -> list[list[np.ndarray]]:
    """The three kinds of hidden buffers a step uses: activations (the
    ReLU runs in place), deltas and ReLU masks (bool). Each kind holds one
    (F, width, M, h) buffer per hidden layer, fold-major: a fold's batch
    rows each hold all M models' units, so elementwise passes and the
    layer-1 GEMM see one contiguous (width, M·h) block per fold.

    A layer narrower than ``_NARROW`` is stored model-major instead and
    viewed transposed, so each model's (width, h) block is contiguous, as
    when it trains alone. There its products run as GEMV or DOT, whose
    OpenBLAS kernels take an unrolled path for a contiguous matrix of 1
    to 3 rows, and numpy sums a contiguous column pairwise but a strided
    one row by row: a strided block would change the bits.
    """
    return [
        [
            np.empty((n_folds, width, n_models, h), dtype)
            if h >= _NARROW
            else np.empty((n_folds, n_models, width, h), dtype).swapaxes(1, 2)
            for h in hidden
        ]
        for dtype in (float, float, bool)
    ]


def _one_gemm(x: np.ndarray, rows: np.ndarray) -> bool:
    """Whether layer 1, with batch ``x`` (F, w, d+1) and rows (F, w, M, h),
    runs as one (w, d+1) @ (d+1, M·h) GEMM per fold over the fold's
    models, which share the batch. OpenBLAS's GEMM computes each entry of
    it as for the model alone. With w equal to 1 numpy calls GEMV
    instead, whose result depends on the width of the call, and a narrow
    layer's rows are model-major: layer 1 then runs per model. d+1 is
    at least 2, so the inner dimension never makes a GEMV."""
    return x.shape[1] > 1 and rows.shape[3] >= _NARROW


class _Step:
    """One step over a batch of width w, recorded once as the numpy calls
    it makes, each bound to prebuilt views and buffers, which ``_forward``
    and ``_backward`` replay.

    ``params`` and ``grads`` are the stacked parameters and their
    gradients as ``_param_views`` gives them: layer 1's (F, M, h, d+1)
    blocks [W | b], and per layer (F, M, out, in) weights and (F, M, out)
    biases, of which the step reads layer 1's only through its blocks.
    ``x`` (F, w, d+1) holds the batches, with a last column of ones, so
    layer 1's products carry its bias: the forward product adds it and
    the backward product's last column is its gradient. ``bufs`` holds three
    lists of (F, w, M, h) rows per hidden layer (see ``_hidden_rows``):
    activations (ReLU in place), deltas and ReLU masks. ``blocks``,
    zeros of shape (F, M, M, h) for the last hidden layer's h, is scratch
    for the output layer's block-diagonal weights. The step owns a
    contiguous copy of each hidden-to-hidden layer's transposed weights,
    the outputs ``out`` (F, M, w, 1) and, each (F, M, w), the residuals
    ``r``, their squares ``rr``, dL/dprediction ``g`` and loss scratch.
    """

    def __init__(self, params, grads, x, bufs, blocks):
        first, weights, biases = params
        grad_first, grad_w, grad_b = grads
        n_folds, width, _ = x.shape
        n_models = first.shape[1]
        self.x, self.x_rows = x, _merge(x, 1)  # (F, w, d+1) and (F, w·(d+1))
        self.acts, deltas, masks = bufs
        self.out = np.empty((n_folds, n_models, width, 1))
        self.preds = self.out[..., 0]
        self.r, self.rr, self.g, self.scratch = (np.empty(self.preds.shape) for _ in range(4))

        self.forward = fwd = []
        act = self.acts[0]
        if _one_gemm(x, act):
            fwd.append(partial(np.matmul, x, _merge(first, 1).swapaxes(1, 2), out=_merge(act, 2)))
        else:  # per pair (F, M, w, d+1); the batch is shared by the fold's models
            fwd.append(partial(np.matmul, x[:, None], first.swapaxes(-1, -2), out=act.swapaxes(1, 2)))
        fwd.append(partial(np.maximum, act, 0.0, out=act))
        a = act.swapaxes(1, 2)
        for w, b, act in zip(weights[1:-1], biases[1:-1], self.acts[1:]):
            # a GEMM against a contiguous Wᵀ runs faster than against the
            # strided transposed view
            w_t = np.empty(w.swapaxes(-1, -2).shape)
            fwd.append(partial(np.copyto, w_t, w.swapaxes(-1, -2)))
            fwd.append(partial(np.matmul, a, w_t, out=act.swapaxes(1, 2)))
            fwd.append(partial(np.add, act, b[:, None], out=act))
            fwd.append(partial(np.maximum, act, 0.0, out=act))
            a = act.swapaxes(1, 2)
        fwd.append(partial(np.matmul, a, weights[-1].swapaxes(-1, -2), out=self.out))
        fwd.append(partial(np.add, self.out, biases[-1][..., None, :], out=self.out))

        g, last = self.g, len(weights) - 1
        self.backward = bwd = [
            partial(np.matmul, g[..., None, :], self.acts[-1].swapaxes(1, 2), out=grad_w[last]),
            partial(np.add.reduce, g[..., None], axis=-2, out=grad_b[last]),
        ]
        # The output layer is affine with one unit: the delta it sends back
        # is the exact product of g and its weights. With the last hidden
        # layer fold-major, that is one (w, M) @ (M, M·h) GEMM per fold
        # against the output weights placed on a block diagonal. Each entry
        # sums one product and exact zeros (g is finite here), so it is the
        # same value; only a zero product may come out +0 where the
        # broadcast gives -0, which no parameter sees (Adam's moments are
        # never -0).
        w_out, h = weights[last], weights[last].shape[3]
        if h >= _NARROW:
            diagonal = blocks.reshape(n_folds, -1, h)[:, :: n_models + 1]
            bwd.append(partial(np.copyto, diagonal, w_out[:, :, 0]))
            out_delta = _merge(deltas[-1], 2)
            bwd.append(partial(np.matmul, g.swapaxes(1, 2), _merge(blocks, 2), out=out_delta))
        else:
            g_col = g.swapaxes(1, 2)[..., None]
            bwd.append(partial(np.multiply, g_col, w_out.swapaxes(1, 2), out=deltas[-1]))
        for i in range(last - 1, -1, -1):
            delta = deltas[i]
            bwd.append(partial(np.greater, self.acts[i], 0.0, out=masks[i]))
            bwd.append(partial(np.multiply, delta, masks[i], out=delta))
            if i == 0:  # the last column of grad_first is the bias gradient
                if _one_gemm(x, delta):
                    delta_t = _merge(delta, 2).swapaxes(1, 2)
                    bwd.append(partial(np.matmul, delta_t, x, out=_merge(grad_first, 1)))
                else:
                    bwd.append(partial(np.matmul, delta.transpose(0, 2, 3, 1), x[:, None], out=grad_first))
                continue
            # the batch sum runs in the order of one model alone
            bwd.append(partial(np.add.reduce, delta, axis=1, out=grad_b[i]))
            a_prev = self.acts[i - 1].swapaxes(1, 2)
            bwd.append(partial(np.matmul, delta.transpose(0, 2, 3, 1), a_prev, out=grad_w[i]))
            back = deltas[i - 1].swapaxes(1, 2)
            bwd.append(partial(np.matmul, delta.swapaxes(1, 2), weights[i], out=back))


def _forward(step: _Step) -> None:
    """Forward pass of every (fold, model) pair over its fold's batch:
    each hidden layer's pre-activations go to ``step.acts``, where its
    ReLU overwrites them in place, and the outputs to ``step.out``."""
    for call in step.forward:
        call()


def _backward(step: _Step) -> None:
    """Batch sums of every pair's parameter gradients, from dL/dprediction
    in ``step.g`` and the rows ``_forward`` left, written into the
    gradient views the step was built on. A mask read from the ReLU
    outputs takes the subgradient at exactly 0 (and at NaN) as 0."""
    for call in step.backward:
        call()


def forward(params: Parameters, X) -> tuple[np.ndarray, _Step]:
    """Run the network on an (n, d) batch.

    Returns (predictions, cache): the (n,) predictions and the step of
    ``params`` alone (F = M = 1) that made them, run on a copy of
    ``params`` laid out as ``train_folds`` lays out its buffer. The step
    holds every hidden layer's ReLU outputs, made in place (``cache.acts``,
    each (1, n, 1, h)), ``params`` as
    ``cache.params`` and, as ``cache.grads``, Parameters views of the
    zero gradient buffer ``backward`` writes into.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be an (n, d) matrix, got shape {X.shape}")
    n, d = X.shape
    if d != params.weights[0].shape[1]:
        raise ValueError(f"input has {d} features, network expects {params.weights[0].shape[1]}")
    hidden = [w.shape[0] for w in params.weights[:-1]]
    flat = np.zeros((2, sum(a.size for a in params.weights + params.biases)))
    views, grads = (_param_views(flat[i : i + 1], (d, *hidden, 1), 1) for i in (0, 1))
    for w, b, w0, b0 in zip(*views[1:], params.weights, params.biases):
        w[0], b[0] = w0, b0
    x = np.ones((1, n, d + 1))
    x[0, :, :d] = X
    bufs, blocks = _hidden_rows(1, n, 1, hidden), np.zeros((1, 1, 1, hidden[-1]))
    step = _Step(views, grads, x, bufs, blocks)
    step.params, step.grads = params, Parameters(*([a[0, 0] for a in arrays] for arrays in grads[1:]))
    _forward(step)
    return step.preds[0, 0], step


def backward(params: Parameters, cache: _Step, dloss_dpred) -> Parameters:
    """Backpropagate dL/dprediction to parameter gradients.

    ``cache`` comes from ``forward`` on these ``params`` and
    ``dloss_dpred`` is an (n,) vector for its n samples; the returned
    gradients are the SUM over samples (divide by n for the batch mean).
    The ReLU subgradient at exactly 0 is taken as 0.
    """
    if cache.params is not params:
        raise ValueError("the cache was made by forward on other parameters")
    g = np.asarray(dloss_dpred, dtype=float)
    n = cache.g.shape[-1]
    if g.shape != (n,):
        raise ValueError(f"dloss_dpred has shape {g.shape}, cache holds {n} samples")
    cache.g[0, 0] = g
    _backward(cache)
    return cache.grads.copy()


def _bias_corrections(t: int, tc: TrainConfig) -> tuple[float, float]:
    # Python float powers: np.power over an array of step numbers can
    # differ from them in the last bit.
    return 1.0 - tc.beta1**t, 1.0 - tc.beta2**t


def _adam_update(theta, g, m, v, s, c1, c2, tc: TrainConfig, where=True) -> None:
    """Adam step in place on theta, m and v, through the scratch buffer
    ``s`` of their shape, with the bias corrections ``c1``, ``c2`` of its
    step number (floats, or arrays that broadcast against theta). Once the
    moments have read the gradient ``g``, it is scratch too: overwritten.
    Only where the mask ``where`` (broadcast against theta) is True are
    theta, m and v written; elsewhere they keep their bits."""
    b1, b2, lr, eps = tc.beta1, tc.beta2, tc.learning_rate, tc.epsilon
    np.multiply(m, b1, out=m, where=where)
    np.multiply(g, 1.0 - b1, out=s)
    np.add(m, s, out=m, where=where)
    np.multiply(v, b2, out=v, where=where)
    np.multiply(g, 1.0 - b2, out=s)
    s *= g
    np.add(v, s, out=v, where=where)
    # theta -= lr * (m / c1) / (sqrt(v / c2) + eps)
    np.divide(m, c1, out=s)
    s *= lr
    np.divide(v, c2, out=g)
    np.sqrt(g, out=g)
    g += eps
    s /= g
    np.subtract(theta, s, out=theta, where=where)


def adam_step(
    params: Parameters, grads: Parameters, state: AdamState, tc: TrainConfig
) -> tuple[Parameters, AdamState]:
    """One bias-corrected Adam update; returns fresh (Parameters, AdamState), ``grads`` untouched."""
    t = state.t + 1
    new, g, m, v = params.copy(), grads.copy(), state.m.copy(), state.v.copy()
    for arrays in zip(
        new.weights + new.biases,
        g.weights + g.biases,
        m.weights + m.biases,
        v.weights + v.biases,
    ):
        _adam_update(*arrays, np.empty_like(arrays[0]), *_bias_corrections(t, tc), tc)
    return new, AdamState(m=m, v=v, t=t)


@dataclass(frozen=True)
class FeatureScaler:
    mean: np.ndarray
    scale: np.ndarray

    @staticmethod
    def fit(X: np.ndarray) -> "FeatureScaler":
        mean = X.mean(axis=0)
        scale = X.std(axis=0, mean=mean[None])  # the same bits as X.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)  # constant columns pass through
        return FeatureScaler(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.scale


@dataclass
class TrainedModel:
    params: Parameters
    scaler: FeatureScaler

    def predict(self, X: np.ndarray) -> np.ndarray:
        return forward(self.params, self.scaler.transform(X))[0]


def _shuffle_rng(seed) -> np.random.Generator:
    # Separate stream from init_params(seed) so the two never interact.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))


def _param_views(flat: np.ndarray, sizes: Sequence[int], n_models: int):
    """Views of a flat (F, M·P) buffer laid out layer by layer: layer 1 as
    M (h, d+1) matrices [W | b], the bias as the last column; each later
    layer as its M weight matrices, then its M bias vectors. Returns
    layer 1's (F, M, h, d+1) blocks, and per layer the (F, M, out, in)
    weight and (F, M, out) bias views, layer 1's being columns of its
    blocks."""
    n_folds, (d, h) = flat.shape[0], sizes[:2]
    at = n_models * h * (d + 1)
    first = flat[:, :at].reshape(n_folds, n_models, h, d + 1)
    weights, biases = [first[..., :d]], [first[..., d]]
    for fan_in, fan_out in zip(sizes[1:-1], sizes[2:]):
        size = n_models * fan_out * fan_in
        weights.append(flat[:, at : at + size].reshape(n_folds, n_models, fan_out, fan_in))
        at += size
        biases.append(flat[:, at : at + n_models * fan_out].reshape(n_folds, n_models, fan_out))
        at += n_models * fan_out
    return first, weights, biases


def _step_plan(sizes: np.ndarray, batch_size: int) -> list[tuple]:
    """Per step of an epoch: the columns of the folds' shuffled row orders
    it takes, the (F, 1, width) mask of padding rows (None when no fold is
    short there), each fold's 1 / batch size as an (F, 1) column, and the
    mask of the folds that take the step: True when all do, else an
    (F, 1) bool column, False for the folds with no rows left."""
    plan = []
    for lo in range(0, int(sizes.max()), batch_size):
        count = np.clip(sizes - lo, 0, batch_size)
        width = int(count.max())
        pad = None if count.min() == width else np.arange(width) >= count[:, None, None]
        takes = True if count.min() > 0 else (count > 0)[:, None]
        plan.append((slice(lo, lo + width), pad, (1.0 / np.maximum(count, 1))[:, None], takes))
    return plan


# The numerator of _finite_loss_bound: well below the largest float,
# 1.8e308, so that rounding cannot close the gap.
_LOSS_BOUND = 1e300


def _finite_loss_bound(columns, batch_size: int) -> float:
    """A bound on a step's squared residuals under which no prediction and
    no batch loss of the step can be non-finite: min(1, c_min^2) *
    _LOSS_BOUND / batch_size, where c_min is the smallest CLF constant in
    the loss ``columns``. A finite residual means a finite prediction. An
    MSE batch loss sums at most batch_size squares, so it stays below
    _LOSS_BOUND. A CLF term's (r/c)^2 is at most _LOSS_BOUND / batch_size,
    and since log1p(x) <= x, the term (c^2/2) log1p((r/c)^2) is at most
    about r^2 / 2."""
    c_min = min(float(columns[1].min()), 1.0)  # MSE carries c = 1
    return c_min * c_min * _LOSS_BOUND / batch_size


def _check_finite_loss(step: _Step, columns, pad, epoch: int) -> None:
    """The exact divergence check of a step whose residuals ``step.r`` and
    their squares ``step.rr`` are in place: raises TrainingDiverged when
    some pair's prediction or batch loss (padding rows masked out) is
    non-finite; when several are, it names the first fold, then the first
    model. The losses go to ``step.scratch``, free after ``_grad_into``."""
    _loss_into(step.r, step.rr, columns, step.scratch)
    if pad is not None:
        np.copyto(step.scratch, 0.0, where=pad)
    finite_loss = np.isfinite(np.add.reduce(step.scratch, axis=-1))
    if not finite_loss.all():
        f, k = divmod(int(np.argmin(finite_loss)), finite_loss.shape[1])
        preds = step.preds[f, k] if pad is None else step.preds[f, k, ~pad[f, 0]]
        finite = np.all(np.isfinite(preds))
        raise TrainingDiverged(
            epoch, "non-finite loss" if finite else "non-finite prediction", model=k, fold=f
        )


def train_folds(
    X, folds: Sequence[tuple], net: NetworkConfig, losses: Sequence[LossSpec]
) -> list[list[TrainedModel]]:
    """Mini-batch Adam training of ``net`` under each loss in ``losses``,
    on each fold in ``folds``. ``X`` (n, d) is the feature matrix the
    folds share, and each fold is a ``(rows, y, tc)`` triple: the indices
    of its training rows in ``X``, their targets in that order, and a
    TrainConfig that may differ from the other folds' only in ``seed``.
    Only the indices are per fold; no fold's features are copied.

    A fold's models start from ``init_params(net, tc.seed)`` and see the
    same minibatches: the epoch shuffle uses an independent stream derived
    from the same seed, and features are standardized with a scaler fitted
    to that fold's rows. The per-batch gradient is the mean over the batch
    of per-sample prediction gradients pushed through backprop. Returns,
    per fold, one model per loss, in order. A ``batch_size`` at or above
    the largest fold trains full-batch, with buffers sized by that fold.

    Once per epoch, each fold's shuffled order is composed with its rows
    and its targets are gathered in that order; each step then gathers
    every fold's batch in one ``np.take`` from a copy of ``X`` with a
    column of ones appended, layer 1's bias input (``X`` itself is never
    written). Step j of an epoch takes batch j of every fold. A batch
    shorter than its peers is padded with its fold's first row, masked
    out of the loss and the gradient; a fold with no batch j left is
    masked out of the step's one Adam update, so it keeps its parameters,
    Adam moments and step counter. So each model equals training its fold
    alone (the same rows as a matrix of their own), bit for bit where the
    folds' batch layouts agree and to rounding where padding changes the
    length of a batch sum. Layer 1's bias rides in its products as their
    last term over k; where layer 1 runs as one GEMM per fold (see
    ``_one_gemm``), that gives the bits of a separate bias add and batch
    sum. When the last hidden layer has at least 4 units, the output
    layer's delta is one GEMM per fold against its weights laid out
    block-diagonally, which leaves every parameter's bits as the
    broadcast product g·W does.

    A non-finite entry of ``X`` or of a fold's targets is a ValueError.
    Raises TrainingDiverged (carrying the epoch, the index of the fold in
    ``folds`` and of the model in ``losses``) at the first step where some
    model's prediction or batch loss is non-finite; when several diverge
    on the same step, the first fold is named, then the first model. A
    step computes its batch losses and checks them only when its largest
    squared residual is NaN or above ``_finite_loss_bound``; at or below
    it, no prediction or batch loss can be non-finite.
    """
    if not folds:
        raise ValueError("at least one fold is required")
    if not losses:
        raise ValueError("at least one loss is required")
    tc = replace(folds[0][2], seed=0)
    if any(replace(fold_tc, seed=0) != tc for *_, fold_tc in folds):
        raise ValueError("the folds' TrainConfigs may differ only in seed")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be an (n, d) matrix, got shape {X.shape}")
    if X.shape[1] != net.input_dim:
        raise ValueError(f"data has {X.shape[1]} features, network expects {net.input_dim}")
    if not np.isfinite(X).all():
        raise ValueError("X has a non-finite entry")
    rows, ys = [], []
    for f, (fold_rows, fold_y, _) in enumerate(folds):
        idx, y = np.asarray(fold_rows), np.asarray(fold_y, dtype=float)
        if idx.size == 0:
            raise ValueError("empty training data")
        if idx.ndim != 1 or idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= len(X):
            raise ValueError(f"a fold's rows must be indices into the {len(X)} rows of X")
        if y.shape != idx.shape:
            raise ValueError(f"a fold has {idx.size} rows but {y.size} targets")
        if not np.isfinite(y).all():
            raise ValueError(f"fold {f} has a non-finite target")
        rows.append(idx)
        ys.append(y)

    n_folds, n_models, d = len(folds), len(losses), net.input_dim
    sizes = np.array([idx.size for idx in rows])
    widest = min(tc.batch_size, int(sizes.max()))  # the first step's, which sizes the buffers
    # Batches are gathered from the features with a column of ones
    # appended, layer 1's bias input; the caller's X is never written.
    # Rows are standardized as they are gathered, so no scaled copy is
    # kept. The folds' means and scales, 0 and 1 for the ones column, are
    # tiled along a batch's w·(d+1) values, so a step standardizes its
    # batches in two passes over (F, w·(d+1)) rows and keeps the ones.
    X1 = np.ones((len(X), d + 1))
    X1[:, :d] = X
    scalers = [FeatureScaler.fit(X[idx]) for idx in rows]
    mean = np.tile(np.stack([np.append(s.mean, 0.0) for s in scalers]), widest)
    scale = np.tile(np.stack([np.append(s.scale, 1.0) for s in scalers]), widest)

    inits = [init_params(net, fold_tc.seed) for *_, fold_tc in folds]
    theta = np.empty((n_folds, n_models * sum(a.size for a in inits[0].weights + inits[0].biases)))
    grad, m, v = np.empty_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    params = _param_views(theta, net.layer_sizes, n_models)
    grads = _param_views(grad, net.layer_sizes, n_models)
    _, weights, biases = params
    for f, init in enumerate(inits):
        for w, b, w0, b0 in zip(weights, biases, init.weights, init.biases):
            w[f], b[f] = w0, b0  # every model of the fold starts there
    columns = _loss_columns(losses)
    shuffles = [_shuffle_rng(fold_tc.seed) for *_, fold_tc in folds]
    plan = _step_plan(sizes, tc.batch_size)
    # Each fold's rows of X in this epoch's order and their targets; past
    # a fold's end, its first row, the padding row.
    order = np.empty((n_folds, sizes.max()), dtype=np.intp)
    y_order = np.empty(order.shape)
    for f, (idx, y) in enumerate(zip(rows, ys)):
        order[f, sizes[f] :], y_order[f, sizes[f] :] = idx[0], y[0]
    # One step object per batch width (the full batch and the last one),
    # over shared batch and hidden buffers and the output layer's
    # block-diagonal weights. Each step of the epoch then holds its batch
    # rows and targets, its step object, and its width's mean and scale.
    x_buf = np.empty((n_folds, widest, d + 1))
    bufs = _hidden_rows(n_folds, widest, n_models, net.hidden_layers)
    blocks = np.zeros((n_folds, n_models, n_models, net.hidden_layers[-1]))
    steps = {}
    for i, (cols, pad, inv_count, takes) in enumerate(plan):
        width = cols.stop - cols.start
        if width not in steps:
            bufs_w = [[buf[:, :width] for buf in kind] for kind in bufs]
            steps[width] = _Step(params, grads, x_buf[:, :width], bufs_w, blocks)
        values = slice(0, width * (d + 1))
        batch = (order[:, cols], y_order[:, None, cols], steps[width], mean[:, values], scale[:, values])
        plan[i] = (*batch, pad, inv_count, takes)
    adam_scratch = np.empty_like(theta)  # with grad, which _adam_update overwrites
    # Adam's bias corrections of every step number a fold can reach, one
    # (c1, c2) row each; a step takes its folds' rows, by their step
    # counters ``t``, as (F, 1) columns of ``corrections_t``.
    corrections = np.array([_bias_corrections(k, tc) for k in range(tc.epochs * len(plan) + 1)])
    t = np.zeros((n_folds, 1), dtype=np.intp)
    corrections_t = np.empty((n_folds, 1, 2))
    c1, c2 = corrections_t[..., 0], corrections_t[..., 1]
    bound = _finite_loss_bound(columns, tc.batch_size)

    # Overflow in a step is the divergence signal itself, not an anomaly.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(tc.epochs):
            for f, (shuffle, idx, y) in enumerate(zip(shuffles, rows, ys)):
                perm = shuffle.permutation(sizes[f])
                order[f, : sizes[f]], y_order[f, : sizes[f]] = idx[perm], y[perm]
            for batch_rows, yb, step, mean_w, scale_w, pad, inv_count, takes in plan:
                # every index was checked against X above, so "clip" never clips
                X1.take(batch_rows, axis=0, out=step.x, mode="clip")
                step.x_rows -= mean_w
                step.x_rows /= scale_w
                _forward(step)
                np.subtract(yb, step.preds, out=step.r)
                _grad_into(step.r, columns, step.rr, step.g, step.scratch)
                if pad is not None:
                    np.copyto(step.g, 0.0, where=pad)
                # a NaN fails the comparison, so its step takes the exact check
                if not np.maximum.reduce(step.rr, axis=None) <= bound:
                    _check_finite_loss(step, columns, pad, epoch)
                _backward(step)
                grad *= inv_count
                t += takes
                # the table covers every step, so "clip" never clips
                np.take(corrections, t, axis=0, out=corrections_t, mode="clip")
                _adam_update(theta, grad, m, v, adam_scratch, c1, c2, tc, takes)

    return [
        [
            TrainedModel(
                params=Parameters([w[f, k].copy() for w in weights], [b[f, k].copy() for b in biases]),
                scaler=scalers[f],
            )
            for k in range(n_models)
        ]
        for f in range(n_folds)
    ]


def train(data, net: NetworkConfig, loss: LossSpec, tc: TrainConfig) -> TrainedModel:
    """``train_folds`` with the single fold of every row of ``data`` and
    the single loss ``loss``: a pure function of (data, net, loss, tc)."""
    return train_folds(data.X, [(np.arange(len(data.y)), data.y, tc)], net, (loss,))[0][0]
