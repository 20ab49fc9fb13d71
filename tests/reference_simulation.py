"""Per-trial reference for the batched trajectory simulator.

``periodic.simulate_trials`` advances every trial at once with stacked
Cholesky factors and one einsum for the measurements. This module keeps the
plain per-trial loop (one trial, one step, one sensor at a time) so the tests
can check the batched path against an independent recursion.
"""

import numpy as np

from filterlab._linalg import sym


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
