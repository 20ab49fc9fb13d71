"""Steady-state solvers and analysis for discrete-time periodic Riccati and
Lyapunov equations.

Solutions are the symmetric periodic positive semidefinite (SPPS) family
P_0..P_{T-1} with P_{k+T} = P_k. A Riccati step is the map
g(P) = alpha P (I + beta P)^{-1} alpha' + gamma of the triple
(alpha, beta, gamma) = (A_k, S_k, Q_k), S_k the measurement information; a
Lyapunov step is the triple (M_k, 0, V_k). Two triples compose to one with
a single linear solve (``_compose``), so one period from slot 0 is one
triple, and composing it with itself d times advances 2^d periods from
P_0 = 0 (``_double``): structure-preserving doubling (Chu, Fan, Lin & Wang
2004), for the Lyapunov equation squared Smith, (Psi, V) <- (Psi^2,
V + Psi V Psi') (Smith 1968). It converges quadratically whenever uniform
observability (Riccati) or monodromy stability (Lyapunov) holds; its gamma
is then P_0, and one sweep of the steps from it fills the other slots,
leaving P_T - P_0 as the fixed-point defect (``_sweep``).

A slot without information is a prediction step. Where no cell of a stack
has any measurement information S_k (every sensor's C_k is zero there, as
on the slots where a scheduled network measures nothing), the update
(P^{-1} + S_k)^{-1} is the identity, so the Riccati step is the prediction
P_{k+1} = A_k P_k A_k' + Q_k and composes without a solve, and the slot's
closed loop is A_k with noise Q_k (``_silent``).

The consensus filter's Lyapunov equation is driven by the Riccati solution's
closed loop A_k P+ P_k^{-1} with noise Q_k + A_k P+ S2_k P+ A_k', for
P+ = (P_k^{-1} + S_k)^{-1}: the Riccati fill sweep builds both, and their
period map, from the two inverses its step takes (``_information_riccati``).

Uniform observability is decided on each anchor's window factor over n
periods, built from one period of transitions and the powers of the
monodromy from that anchor (``uniform_observability``).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv, write_json
from ._linalg import spd_inverse, sym, sym_spectral_norm, transposed
from .errors import ConvergenceError, NumericalError
from .periodic import normalize_period

DEFAULT_TOL = 1e-10
# The doubling budget: 2^60 periods of the recursion.
MAX_DOUBLINGS = 60
# Window Gramian eigenvalues above this fraction of the largest count toward
# the rank in uniform_observability.
OBSERVABILITY_REL_TOL = 1e-9
# uniform_observability advances as many anchors together as keep their
# window factors within this many entries (256 kB).
OBSERVABILITY_BLOCK = 1 << 15


@dataclass(frozen=True)
class SppsSolution:
    """One period of a periodic Riccati/Lyapunov solution.

    ``P[k]`` is the steady covariance at time slot k. ``doublings`` counts
    the doublings of the period map and ``defect`` is the fixed-point
    defect, the ``_relative_change`` of P_0 over one period's steps from it.
    """

    period: int
    P: tuple
    doublings: int
    defect: float

    def __post_init__(self):
        for M in self.P:
            M.setflags(write=False)

    def at(self, k: int) -> np.ndarray:
        return self.P[k % self.period]

    def to_json(self, path) -> None:
        data = {"period": self.period, "doublings": self.doublings, "defect": self.defect}
        write_json(path, {**data, "P": [M.tolist() for M in self.P]})

    def to_csv(self, path) -> None:
        """One row per (k, i, j, value)."""
        P = np.stack(self.P)
        k, i, j = np.indices(P.shape).reshape(3, -1)
        write_csv(path, ["k", "i", "j", "value"], [(k, i, j, P.ravel())])


def _relative_change(P, P0):
    """Per cell of two (cells, n, n) stacks of symmetric matrices, the
    spectral norm of P - P0 over P's largest absolute entry, so that the
    stop does not depend on the scale of the problem."""
    scale = np.maximum(np.abs(P).max(axis=(-2, -1)), np.finfo(float).tiny)
    return sym_spectral_norm(P - P0) / scale


def _compose(first, second):
    """The triple of g_2(g_1(P)), for g_i the map of triple i; a beta of
    None is no information. By the push-through identity, with
    M = (I + gamma_1 beta_2)^{-1}: alpha = alpha_2 M alpha_1,
    beta = beta_1 + alpha_1' beta_2 M alpha_1 and
    gamma = gamma_2 + alpha_2 M gamma_1 alpha_2'; beta_2 = 0 makes M = I."""
    a1, beta, g1 = first
    a2, b2, g2 = second
    Ma, Mg = a1, g1
    if b2 is not None:
        lhs = np.eye(g1.shape[-1]) + g1 @ b2
        Ma, Mg = np.split(np.linalg.solve(lhs, np.concatenate([a1, g1], axis=-1)), 2, axis=-1)
        beta = sym(transposed(a1) @ b2 @ Ma + (0.0 if beta is None else beta))
    return a2 @ Ma, beta, sym(a2 @ Mg @ transposed(a2) + g2)


def _period_map(slots, count):
    """The triple of one period for each of ``count`` cells, composed from
    the slots' triples in order, the first broadcast to every cell."""
    first = next(slots)
    composed = tuple(M if M is None else np.array(np.broadcast_to(M, (count,) + M.shape[-2:]))
                     for M in first)
    for slot in slots:
        composed = _compose(composed, slot)
    return composed


def _double(period_map, tol, label):
    """P_0 of each cell: the gamma of its period map composed with itself
    until a doubling changes it by less than ``tol`` (``_relative_change``),
    where the cell stops, keeping its values. Returns P_0 and the per-cell
    doublings; non-finite values raise NumericalError, and MAX_DOUBLINGS
    without a stop raises ConvergenceError."""
    fixed = np.empty(period_map[2].shape)
    doublings = np.zeros(len(fixed), dtype=int)
    cells = np.arange(len(fixed))
    for doubling in range(1, MAX_DOUBLINGS + 1):
        gamma = period_map[2]
        period_map = _compose(period_map, period_map)
        if not all(np.isfinite(M).all() for M in period_map if M is not None):
            raise NumericalError(
                f"{label} produced non-finite values at doubling {doubling}: "
                "the recursion is divergent"
            )
        change = _relative_change(period_map[2], gamma)
        done = change < tol
        fixed[cells[done]], doublings[cells[done]] = period_map[2][done], doubling
        if done.all():
            return fixed, doublings
        if done.any():
            cells, change = cells[~done], change[~done]
            period_map = tuple(None if M is None else M[~done] for M in period_map)
    worst = float(change.max())
    raise ConvergenceError(
        f"{label} did not converge within {MAX_DOUBLINGS} doublings "
        f"(relative residual {worst:.3e}, tol {tol:.1e})",
        residual=worst,
    )


def _sweep(step, period, P0, doublings, slots=None):
    """One period of P_{k+1} = step(k, P_k) from the fixed points P0,
    (cells, n, n): the slots (T, cells, n, n), into ``slots`` if given, the
    doublings and the per-cell fixed-point defect of P_T against P_0."""
    slots = np.empty((period,) + P0.shape) if slots is None else slots
    slots[0] = P = P0
    for k in range(period):
        P = step(k, P)
        if k + 1 < period:
            slots[k + 1] = P
    return slots, doublings, _relative_change(P, P0)


def _cell_solution(run, cell: int = 0) -> SppsSolution:
    """Cell ``cell`` of a ``_sweep`` result as an SppsSolution of copies."""
    slots, doublings, defect = run
    return SppsSolution(
        period=slots.shape[0],
        P=tuple(slots[:, cell].copy()),
        doublings=int(doublings[cell]),
        defect=float(defect[cell]),
    )


def _silent(S: np.ndarray) -> np.ndarray:
    """Per slot of a (T, cells, n, n) information stack, whether no cell has
    any information there, so that its update is the identity."""
    return ~S.reshape(S.shape[0], -1).any(axis=1)


def _information_step(Ak, Qk, P, S):
    """One information-form Riccati step A_k (P^{-1} + S)^{-1} A_k' + Q_k of
    a (cells, n, n) stack P with measurement information S, and the two
    inverses it takes, P^{-1} and P+ = (P^{-1} + S)^{-1}."""
    prior = spd_inverse(P, what="predicted covariance")
    post = spd_inverse(prior + S, what="posterior information")
    return sym(Ak @ post @ transposed(Ak) + Qk), prior, post


def _information_riccati(A, Q, S, tol, lyapunov=None):
    """Stacked Riccati equation in information form,
    P_{k+1} = A_k (P_k^{-1} + S_k)^{-1} A_k' + Q_k, for the measurement
    information S_k of each cell given as a (T, cells, n, n) stack, solved
    by doubling. A slot where no cell has information is the prediction
    A_k P_k A_k' + Q_k; a slot where any cell has some takes the full step
    for every cell. Returns the ``_sweep`` result.

    Given ``lyapunov`` = (S2, noise), S2 the function of a live slot k
    giving the information (c, n, n) of the noise that fusion injects into
    the first c cells and noise a (T, c, n, n) array, the sweep also writes
    those cells' closed loops over S[k, :c] once the step has used it (A_k
    on a silent slot) and their noise into noise[k] (Q_k there); the result
    then ends with their Lyapunov period map, composed as ``_period_map``
    composes it.
    """
    period, count = S.shape[:2]
    silent = _silent(S)
    slots = ((A.at(k), None if silent[k] else S[k], Q.at(k)) for k in range(period))
    P0, doublings = _double(_period_map(slots, count), tol, "periodic Riccati recursion")
    S2, noise = lyapunov or (None, None)
    cells, period_map = (0 if noise is None else noise.shape[1]), None

    def step(k: int, P: np.ndarray) -> np.ndarray:
        nonlocal period_map
        Ak, Qk = A.at(k), Q.at(k)
        if silent[k]:
            loop, V = Ak, sym(Qk)
            P = sym(Ak @ P @ transposed(Ak) + Qk)
        else:
            P, prior, post = _information_step(Ak, Qk, P, S[k])
            if S2 is not None:
                gain = Ak @ post[:cells]
                loop, V = gain @ prior[:cells], sym(Qk + gain @ S2(k) @ transposed(gain))
        if S2 is not None:
            S[k, :cells], noise[k] = loop, V
            slot = (S[k, :cells], None, noise[k])
            period_map = _compose(period_map, slot) if k else slot
        return P

    run = _sweep(step, period, P0, doublings)
    return run if lyapunov is None else run + (period_map,)


def dpre_spps(
    A,
    C,
    Q,
    R,
    tol: float = DEFAULT_TOL,
) -> SppsSolution:
    """SPPS solution of the periodic filter Riccati equation.

    Solves its information form (R_k positive definite)
        P_{k+1} = A_k (P_k^{-1} + C_k' R_k^{-1} C_k)^{-1} A_k' + Q_k
    by doubling its period map until a doubling moves P_0 by less than
    ``tol`` relative to its size. Convergence requires the pair (A., C.) to
    be uniformly observable; exhausting the doubling budget raises
    ConvergenceError.
    """
    A, C, Q, R = normalize_period([A, C, Q, R])
    Rinv = spd_inverse(R.stack, what="measurement noise covariance")
    S = sym(C.stack.swapaxes(1, 2) @ Rinv @ C.stack)[:, None]
    return _cell_solution(_information_riccati(A, Q, S, tol))


def _lyapunov_stack(loops, noise, tol, period_map=None, out=None):
    """Stacked periodic Lyapunov equation X_{k+1} = M_k X_k M_k' + V_k, for
    loops M and noise V given as (T, cells, n, n) stacks, solved by squared
    Smith doubling of the monodromy and the one-period noise from X_0 = 0:
    their ``_period_map``, unless the caller has composed it.

    Every cell's monodromy must be Schur stable, otherwise no steady
    solution exists and NumericalError is raised. Returns the ``_sweep``
    result, its slots written into ``out`` if given.
    """
    period, count = loops.shape[:2]
    if period_map is None:
        period_map = _period_map(zip(loops, [None] * period, noise), count)
    rho = np.abs(np.linalg.eigvals(period_map[0])).max(axis=-1)
    unstable = rho >= 1.0 - 1e-9
    if unstable.any():
        raise NumericalError(
            f"unstable monodromy (spectral radius {rho[unstable][0]:.6f}): "
            "the periodic Lyapunov recursion has no steady solution"
        )
    X0, doublings = _double(period_map, tol, "periodic Lyapunov recursion")

    def step(k: int, X: np.ndarray) -> np.ndarray:
        M = loops[k]
        return sym(M @ X @ transposed(M) + noise[k])

    return _sweep(step, period, X0, doublings, out)


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
