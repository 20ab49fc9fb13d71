"""References for the batched trajectory simulator.

``periodic.simulate_trials`` advances every trial at once; it shapes each
sensor's measurement noise in place with that sensor's own R_j Cholesky
factor and adds C_j x only for the sensors that measure in some slot. This
module keeps two slower bodies to check it against:

- ``reference_trial``: the plain per-trial loop (one trial, one step, one
  sensor at a time), an independent recursion;
- ``dense_simulate_trials``: the earlier batched body, which shapes all the
  noise with one Cholesky factor of the block-diagonal (m, m) R and adds one
  product with the period's stacked C. It draws the same numbers, so on a
  plant with one-row sensors it agrees bit for bit.
"""

import math

import numpy as np

from filterlab._linalg import sym
from filterlab.errors import NumericalError, ValidationError


def reference_trial(model, K, seed, x0=None, noise_scale=1.0):
    """States (K+1, n) and stacked measurements (K+1, m) of one trial, drawn
    as (K, n) then (K+1, m) standard normals from ``default_rng(seed)``."""
    n, m, T = model.n, model.m, model.period
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if noise_scale > 0:
        rng = np.random.default_rng(seed)
        w_std = rng.standard_normal((K, n))
        v_std = rng.standard_normal((K + 1, m))
        chol_Q = [np.linalg.cholesky(sym(model.Q.at(k))) for k in range(T)]
        chol_R = []
        for k in range(T):
            Lr = np.zeros((m, m))
            for sl, Ri in zip(model.observation_slices(), model.R):
                Lr[sl, sl] = np.linalg.cholesky(sym(Ri.at(k)))
            chol_R.append(Lr)
        w = np.stack([noise_scale * chol_Q[k % T] @ w_std[k] for k in range(K)])
        v = np.stack([noise_scale * chol_R[k % T] @ v_std[k] for k in range(K + 1)])
    else:
        w = np.zeros((K, n))
        v = np.zeros((K + 1, m))

    states = np.empty((K + 1, n))
    states[0] = x0
    for k in range(K):
        states[k + 1] = model.A.at(k) @ states[k] + w[k]

    measurements = np.empty((K + 1, m))
    for sl, Ci in zip(model.observation_slices(), model.C):
        for k in range(K + 1):
            measurements[k, sl] = Ci.at(k) @ states[k] + v[k, sl]
    return states, measurements


def dense_simulate_trials(model, K, seeds, x0=None, noise_scale=1.0):
    """States X (h, K+1, n) and stacked measurements Y (h, K+1, m) of
    h = len(seeds) trials, with the draws and checks of ``simulate_trials``."""
    if K < 1:
        raise ValidationError("horizon K must be >= 1")
    if not 0 <= noise_scale < math.inf:
        raise ValidationError("noise_scale must be a finite number >= 0")
    n, m, T, h = model.n, model.m, model.period, len(seeds)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValidationError(f"x0 must have shape ({n},)")
    slots = np.arange(K + 1) % T
    W = np.zeros((h, K, n))
    Y = np.zeros((h, K + 1, m))
    if noise_scale > 0:
        for l, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            rng.standard_normal(out=W[l])
            rng.standard_normal(out=Y[l])
        R = np.zeros((T, m, m))
        for sl, Ri in zip(model.observation_slices(), model.R):
            R[:, sl, sl] = Ri.stack
        chol_Q = noise_scale * np.linalg.cholesky(sym(model.Q.stack))
        chol_R = noise_scale * np.linalg.cholesky(sym(R))
        W = np.einsum("kij,hkj->hki", chol_Q[slots[:-1]], W)
        Y = np.einsum("kij,hkj->hki", chol_R[slots], Y)

    X = np.empty((h, K + 1, n))
    X[:, 0] = x0
    for k in range(K):
        X[:, k + 1] = X[:, k] @ model.A.stack[slots[k]].T + W[:, k]
    if not np.all(np.isfinite(X)):
        raise NumericalError(
            "trajectory produced non-finite values (unstable plant at this horizon)"
        )
    C = np.concatenate([Ci.stack for Ci in model.C], axis=1)
    Y += np.einsum("kij,hkj->hki", C[slots], X)
    return X, Y
