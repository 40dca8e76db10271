"""A fixed reference workload that gauges how fast the machine runs right now.

The reference machine is a shared 2-vCPU virtual machine whose speed
changes by up to 1.8x from one second to the next and drifts in phases
of tens of seconds to minutes, longer than one benchmark run. spawn.py
therefore stops the timed process every ``spawn.GAUGE_EVERY_S`` seconds,
times one pass of this reference, and lets the process go on; each
stretch the process ran is scaled by ``NOMINAL_S`` over the mean of the
passes just before and after it. A slowdown that hits the program and
the reference alike cancels out, and a reported time reads as seconds
at the reference machine's usual speed.

The reference is a small ReLU net trained with Adam in plain numpy on
tiny arrays: the same mix of interpreter overhead and small numpy calls
that dominates a cauchybench run. It is written here, apart from the
program, so no change to the program changes it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.016  # one pass on the reference machine at its usual speed
STEPS = 200        # Adam steps in one pass

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 4))
_Y = np.sin(_X).sum(axis=1, keepdims=True)


def gauge() -> float:
    """Seconds that one pass of the reference takes now."""
    rng = np.random.default_rng(1)
    params = [rng.standard_normal((4, 10)) * 0.5, np.zeros(10), rng.standard_normal((10, 1)) * 0.3, np.zeros(1)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    t0 = time.perf_counter()
    for t in range(1, STEPS + 1):
        w1, c1, w2, c2 = params
        z = _X @ w1 + c1
        h = np.maximum(z, 0.0)
        out = h @ w2 + c2
        g = 2.0 * (out - _Y) / len(out)
        gh = (g @ w2.T) * (z > 0)
        grads = [_X.T @ gh, gh.sum(axis=0), h.T @ g, g.sum(axis=0)]
        for i, (p, gr) in enumerate(zip(params, grads)):
            m[i] = b1 * m[i] + (1 - b1) * gr
            v[i] = b2 * v[i] + (1 - b2) * gr * gr
            p -= lr * (m[i] / (1 - b1**t)) / (np.sqrt(v[i] / (1 - b2**t)) + eps)
    return time.perf_counter() - t0


gauge()  # warm up: the first pass pays for numpy's lazy set-up


if __name__ == "__main__":
    print(f"{gauge():.6f} s per reference pass (NOMINAL_S = {NOMINAL_S})")
