"""A naive reference trainer: one model, one sample at a time, plain numpy.

Written apart from ``cauchybench.nets`` as an oracle for its trainer. It
follows the documented protocol, not the library's kernels:

- weights drawn layer by layer from ``default_rng(seed)`` as
  U(-1/sqrt(fan_in), 1/sqrt(fan_in)) of shape (fan_out, fan_in), zero biases;
- features standardized with the mean and population std of the fold's
  rows (a constant column keeps scale 1);
- each epoch shuffles the rows with the stream
  ``default_rng(SeedSequence(seed, spawn_key=(1,)))`` and walks them in
  consecutive batches of ``batch_size`` (the last one may be shorter);
- the batch gradient is the mean over its samples of per-sample backprop
  of dL/dprediction, MSE -2r and Cauchy -c^2 r / (c^2 + r^2), r = y - y_hat;
- bias-corrected Adam, one step per batch.
"""

from __future__ import annotations

import numpy as np


def init(layer_sizes, seed):
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def loss(r, c):
    """The loss of the residual r; c None is MSE, r^2, else the Cauchy loss
    (c^2 / 2) ln(1 + (r/c)^2)."""
    if c is None:
        return r * r
    return 0.5 * c * c * np.log1p((r / c) ** 2)


def dloss_dpred(r, c):
    """dL/dprediction for the residual r; c None is MSE, else the Cauchy constant."""
    if c is None:
        return -2.0 * r
    return -c * c * r / (c * c + r * r)


def forward(weights, biases, x):
    """The prediction for one sample x, with each layer's input and each
    hidden layer's pre-activation."""
    acts, pre = [x], []
    for w, b in zip(weights[:-1], biases[:-1]):
        pre.append(w @ acts[-1] + b)
        acts.append(np.maximum(pre[-1], 0.0))
    return float(weights[-1][0] @ acts[-1] + biases[-1][0]), acts, pre


def sample_grads(weights, biases, x, y, c):
    """Forward and backprop of one sample: per-layer (dW, db)."""
    pred, acts, pre = forward(weights, biases, x)
    g = dloss_dpred(y - pred, c)
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    delta = np.array([g])
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = np.outer(delta, acts[layer])
        grads_b[layer] = delta.copy()
        if layer > 0:
            delta = (weights[layer].T @ delta) * (pre[layer - 1] > 0.0)
    return grads_w, grads_b


def train(
    X, y, layer_sizes, c, seed, epochs, batch_size, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8
):
    """Final (weights, biases) of one model trained on the rows X, targets y."""
    X = np.asarray(X, dtype=float)
    mean, std = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mean) / np.where(std > 0.0, std, 1.0)
    weights, biases = init(layer_sizes, seed)
    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    shuffle = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    t = 0
    for _ in range(epochs):
        order = shuffle.permutation(len(y))
        for lo in range(0, len(y), batch_size):
            batch = order[lo : lo + batch_size]
            total = [np.zeros_like(p) for p in params]
            for i in batch:
                gw, gb = sample_grads(weights, biases, Xs[i], y[i], c)
                for acc, g in zip(total, gw + gb):
                    acc += g
            t += 1
            for p, acc, mk, vk in zip(params, total, m, v):
                g = acc / len(batch)
                mk[...] = beta1 * mk + (1.0 - beta1) * g
                vk[...] = beta2 * vk + (1.0 - beta2) * g * g
                m_hat = mk / (1.0 - beta1**t)
                v_hat = vk / (1.0 - beta2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return weights, biases
