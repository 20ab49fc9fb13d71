"""Steady-state solvers and analysis for discrete-time periodic Riccati and
Lyapunov equations.

The solvers iterate the defining recursions forward in time until one full
period stops changing, which converges whenever the standard uniform
observability (Riccati) or monodromy stability (Lyapunov) hypotheses hold.
Solutions are the symmetric periodic positive semidefinite (SPPS) family
P_0..P_{T-1} with P_{k+T} = P_k.

A slot without information is a prediction step. Where no cell of a stack
has any measurement information S_k (every sensor's C_k is zero there, as
on the slots where a scheduled network measures nothing), the update
(P^{-1} + S_k)^{-1} is the identity, so the Riccati step is the prediction
P_{k+1} = A_k P_k A_k' + Q_k and takes no inverse, and the slot's closed
loop is A_k with noise Q_k (``_silent``).

A slot's change between sweeps is measured by its spectral norm, relative
to its size. The stop test bounds that norm by the change's Frobenius norm
F, between F / sqrt(n) and F, and takes an eigen-solve only for the slots
whose bound leaves the stop undecided (``_iterate_to_period``). F is summed
from unscaled squares wherever it lies in (1e-150, 1e150), where no square
overflows and what underflow drops lies far below the rounding
(``frobenius_norm``). While every cell of a stack still runs, a step reads
its per-cell tables as views.

Uniform observability is decided on each anchor's window factor over n
periods, built from one period of transitions and the powers of the
monodromy from that anchor (``uniform_observability``).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv, write_json
from ._linalg import frobenius_norm, spd_inverse, sym, sym_spectral_norm
from .errors import ConvergenceError, NumericalError
from .periodic import normalize_period

DEFAULT_TOL = 1e-10
# The sweep budget: about 1e5 individual time steps whatever the period.
MAX_STEP_BUDGET = 100_000
# Window Gramian eigenvalues above this fraction of the largest count toward
# the rank in uniform_observability.
OBSERVABILITY_REL_TOL = 1e-9
# uniform_observability advances as many anchors together as keep their
# window factors within this many entries (256 kB).
OBSERVABILITY_BLOCK = 1 << 15


@dataclass(frozen=True)
class SppsSolution:
    """One period of a converged periodic Riccati/Lyapunov solution.

    ``P[k]`` is the steady covariance at time slot k. ``iterations`` counts
    completed full-period sweeps and ``residual`` is the largest relative
    change of any slot during the final sweep: its spectral-norm change over
    its largest absolute entry.
    """

    period: int
    P: tuple
    iterations: int
    residual: float

    def __post_init__(self):
        for M in self.P:
            M.setflags(write=False)

    def at(self, k: int) -> np.ndarray:
        return self.P[k % self.period]

    def to_json(self, path) -> None:
        data = {"period": self.period, "iterations": self.iterations, "residual": self.residual}
        write_json(path, {**data, "P": [M.tolist() for M in self.P]})

    def to_csv(self, path) -> None:
        """One row per (k, i, j, value)."""
        P = np.stack(self.P)
        k, i, j = np.indices(P.shape).reshape(3, -1)
        write_csv(path, ["k", "i", "j", "value"], [(k, i, j, P.ravel())])


def _iterate_to_period(step, period, P0, tol, label):
    """Drive P_{k+1} = step(k, P_k, cells) over a (cells, n, n) stack until
    each cell's full period changes by < tol, relative to its size.

    ``step`` advances the rows of the still-running cells and returns
    symmetric iterates. It is given their stack index: a full slice while
    every cell runs, so that its reads of per-cell tables are views, and
    their indices once some have stopped. A slot's change is
    the spectral norm of its (symmetric) change over its largest absolute
    entry, so the stop does not depend on the scale of the problem. Each
    cell stops, keeping its values, at the first sweep after the first in
    which its own largest slot change is below ``tol``.

    The spectral norm is an eigen-solve, taken only where it can decide the
    stop: the Frobenius norm F of an n x n change bounds its spectral norm
    between F / sqrt(n) and F. A cell with a slot whose F / sqrt(n) is at
    least ``tol`` keeps running, so the rest of its sweep is not measured,
    and a slot whose F is below the cell's largest change so far cannot
    raise it. The last allowed sweep is measured in full. So the stop
    sweeps, residuals and ConvergenceError are those of measuring every
    slot.

    Returns (slots, sweeps, residual): slots[s, c] approximates cell c's SPPS
    solution at time slot s; sweeps and residual are per cell. The budget is
    about MAX_STEP_BUDGET time steps, and at least 2 sweeps, since the first
    sweep has nothing to compare against.
    """
    max_sweeps = max(2, math.ceil(MAX_STEP_BUDGET / period))
    P = sym(np.asarray(P0, dtype=float))
    slots = np.empty((period,) + P.shape)
    sweeps = np.zeros(P.shape[0], dtype=int)
    residual = np.zeros(P.shape[0])
    cells = np.arange(P.shape[0])
    running_cells = slice(None)
    running_at = math.sqrt(P.shape[-1]) * tol
    for sweep in range(max_sweeps):
        change = np.zeros(cells.size)
        # Cells whose change this sweep is certainly at least tol.
        running = np.zeros(cells.size, dtype=bool)
        last = sweep == max_sweeps - 1
        for k in range(period):
            P = step(k, P, running_cells)
            if not np.all(np.isfinite(P)):
                raise NumericalError(
                    f"{label} produced non-finite values at sweep {sweep + 1}: "
                    "the recursion is divergent"
                )
            s = (k + 1) % period
            if sweep > 0 and not running.all():
                delta = P - slots[s, running_cells]
                # Each cell's largest absolute entry, reduced across the rows
                # of a (n * n, cells) copy, which numpy does far faster than
                # along each cell's n * n entries.
                big = np.abs(P.reshape(len(P), -1).T, order="C").max(axis=0)
                scale = np.maximum(big, np.finfo(float).tiny)
                bound = frobenius_norm(delta) / scale
                if not last:
                    # The margins cover the rounding of both norms.
                    running |= bound * (1.0 - 1e-6) >= running_at
                measure = ~running & (bound * (1.0 + 1e-12) >= change)
                if measure.any():
                    exact = sym_spectral_norm(delta[measure]) / scale[measure]
                    change[measure] = np.maximum(change[measure], exact)
            slots[s, running_cells] = P
        if sweep > 0:
            done = ~running & (change < tol)
            sweeps[cells[done]] = sweep + 1
            residual[cells[done]] = change[done]
            if done.any():
                cells, P, change = cells[~done], P[~done], change[~done]
                if cells.size == 0:
                    return slots, sweeps, residual
                running_cells = cells
    worst = float(change.max())
    raise ConvergenceError(
        f"{label} did not converge within {max_sweeps} sweeps "
        f"(relative residual {worst:.3e}, tol {tol:.1e})",
        residual=worst,
    )


def _cell_solution(run, cell: int = 0) -> SppsSolution:
    """Cell ``cell`` of an ``_iterate_to_period`` result as an SppsSolution,
    holding a copy of its slots."""
    slots, sweeps, residual = run
    return SppsSolution(
        period=slots.shape[0],
        P=tuple(slots[:, cell].copy()),
        iterations=int(sweeps[cell]),
        residual=float(residual[cell]),
    )


def _silent(S: np.ndarray) -> np.ndarray:
    """Per slot of a (T, cells, n, n) information stack, whether no cell has
    any information there, so that its update is the identity."""
    return ~S.reshape(S.shape[0], -1).any(axis=1)


def _information_step(Ak, Qk, P, S):
    """One information-form Riccati step A_k (P^{-1} + S)^{-1} A_k' + Q_k of
    a (cells, n, n) stack P with measurement information S."""
    prior = spd_inverse(P, what="predicted covariance")
    post = spd_inverse(prior + S, what="posterior information")
    return sym(Ak @ post @ Ak.T + Qk)


def _information_riccati(A, Q, S, tol):
    """Stacked Riccati recursion in information form,
    P_{k+1} = A_k (P_k^{-1} + S_k)^{-1} A_k' + Q_k from P_0 = I, for the
    measurement information S_k of each cell given as a (T, cells, n, n)
    stack. A slot where no cell has information is the prediction
    A_k P_k A_k' + Q_k; a slot where any cell has some takes the full step
    for every cell. Returns the ``_iterate_to_period`` result.
    """
    period, count, n = S.shape[:3]
    silent = _silent(S)

    def step(k: int, P: np.ndarray, cells) -> np.ndarray:
        Ak, Qk = A.at(k), Q.at(k)
        if silent[k]:
            return sym(Ak @ P @ Ak.T + Qk)
        return _information_step(Ak, Qk, P, S[k, cells])

    return _iterate_to_period(
        step, period, np.broadcast_to(np.eye(n), (count, n, n)), tol,
        "periodic Riccati recursion",
    )


def _closed_loops(A, Q, P, S, S2):
    """Per slot and cell, for Riccati solutions P, (T, cells, n, n): the gain
    A P+ with the posterior P+ = (P^{-1} + S)^{-1}, the closed loop
    A P+ P^{-1}, and the noise Q + A P+ S2 P+ A' that drives the true error
    covariance through that loop. A slot where neither S nor S2 holds any
    information keeps its prior: gain A P, loop A and noise Q; only the
    other slots are inverted."""
    T = P.shape[0]
    A, Q = A.with_period(T).stack[:, None], Q.with_period(T).stack[:, None]
    silent = _silent(S) & _silent(S2)
    gain, loops, noise = np.empty(P.shape), np.empty(P.shape), np.empty(P.shape)
    gain[silent] = A[silent] @ P[silent]
    loops[silent] = A[silent]
    noise[silent] = sym(Q[silent])
    live = ~silent
    A, Q, S2 = A[live], Q[live], S2[live]
    prior = spd_inverse(P[live], what="predicted covariance")
    post_gain = A @ spd_inverse(prior + S[live], what="posterior information")
    gain[live], loops[live] = post_gain, post_gain @ prior
    noise[live] = sym(Q + post_gain @ S2 @ post_gain.swapaxes(2, 3))
    return gain, loops, noise


def dpre_spps(
    A,
    C,
    Q,
    R,
    tol: float = DEFAULT_TOL,
) -> SppsSolution:
    """SPPS solution of the periodic filter Riccati equation.

    Iterates its information form (R_k positive definite)
        P_{k+1} = A_k (P_k^{-1} + C_k' R_k^{-1} C_k)^{-1} A_k' + Q_k
    forward from the identity until one full period changes by less than
    ``tol`` relative to its size. Convergence requires the pair (A., C.) to
    be uniformly observable; exhausting the sweep budget raises
    ConvergenceError.
    """
    A, C, Q, R = normalize_period([A, C, Q, R])
    Rinv = spd_inverse(R.stack, what="measurement noise covariance")
    S = sym(C.stack.swapaxes(1, 2) @ Rinv @ C.stack)[:, None]
    return _cell_solution(_information_riccati(A, Q, S, tol))


def _lyapunov_stack(loops, noise, tol):
    """Stacked periodic Lyapunov recursion X_{k+1} = M_k X_k M_k' + V_k from
    X_0 = 0, for loops M and noise V given as (T, cells, n, n) stacks.

    Every cell's one-period transition product must be Schur stable,
    otherwise no steady solution exists and NumericalError is raised.
    Returns the ``_iterate_to_period`` result.
    """
    period, count, n = loops.shape[:3]
    phi = np.broadcast_to(np.eye(n), (count, n, n))
    for M in loops:
        phi = M @ phi
    rho = np.abs(np.linalg.eigvals(phi)).max(axis=-1)
    unstable = rho >= 1.0 - 1e-9
    if unstable.any():
        raise NumericalError(
            f"unstable monodromy (spectral radius {rho[unstable][0]:.6f}): "
            "the periodic Lyapunov recursion has no steady solution"
        )

    def step(k: int, X: np.ndarray, cells) -> np.ndarray:
        M = loops[k, cells]
        return sym(M @ X @ M.swapaxes(1, 2) + noise[k, cells])

    return _iterate_to_period(
        step, period, np.zeros((count, n, n)), tol,
        "periodic Lyapunov recursion",
    )


def dple_spps(
    A,
    Q,
    tol: float = DEFAULT_TOL,
) -> SppsSolution:
    """SPPS solution of the periodic Lyapunov equation P_{k+1} = A_k P_k A_k' + Q_k.

    The one-period transition product of A must be Schur stable, otherwise no
    steady solution exists and NumericalError is raised.
    """
    A, Q = normalize_period([A, Q])
    return _cell_solution(_lyapunov_stack(A.stack[:, None], Q.stack[:, None], tol))


def uniform_observability(A, C) -> bool:
    """Observability of a periodic pair via full-rank window Gramians.

    A C row that is zero in every slot adds nothing to any Gramian and is
    dropped first; a C that is zero throughout is not observable.

    For every anchor k in one period, the Gramian
    sum_{j=0}^{nT-1} Phi(k+j, k)' C_{k+j}' C_{k+j} Phi(k+j, k) must have rank
    n, with rank decided by Gramian eigenvalues above OBSERVABILITY_REL_TOL
    times the largest. The rank is evaluated on the stacked observability
    factor, whose squared singular values are the Gramian's, to avoid forming
    the square. The factor is built from one period: with O_k the rows
    C_{k+j} Phi(k+j, k) of j < T and Psi_k = Phi(k+T, k) the monodromy from
    anchor k, the rows of period p are O_k Psi_k^p, since A is T-periodic.
    Blocks of anchors advance through one period together and take one
    batched SVD, each block's factors holding at most OBSERVABILITY_BLOCK
    entries.
    """
    A, C = normalize_period([A, C])
    C = C.stack[:, C.stack.any(axis=(0, 2))]
    n, period, rows = A.shape[0], A.period, C.shape[1]
    if rows == 0:
        return False
    height = period * rows
    block = max(1, OBSERVABILITY_BLOCK // (n * height * n))
    for first in range(0, period, block):
        anchors = np.arange(first, min(first + block, period))
        factor = np.empty((anchors.size, n, height, n))
        Phi = np.broadcast_to(np.eye(n), (anchors.size, n, n))
        for j in range(period):
            t = (anchors + j) % period
            factor[:, 0, j * rows : (j + 1) * rows] = C[t] @ Phi
            Phi = A.stack[t] @ Phi
        # Phi is now each anchor's monodromy Psi_k.
        for p in range(1, n):
            np.matmul(factor[:, p - 1], Phi, out=factor[:, p])
        sv = np.linalg.svd(factor.reshape(anchors.size, n * height, n), compute_uv=False)
        if not np.all(sv[:, 0] > 0.0):
            return False
        ranks = np.count_nonzero(sv > math.sqrt(OBSERVABILITY_REL_TOL) * sv[:, :1], axis=1)
        if np.any(ranks < n):
            return False
    return True
