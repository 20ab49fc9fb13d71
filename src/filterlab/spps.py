"""Steady-state solvers and analysis for discrete-time periodic Riccati and
Lyapunov equations.

The solvers iterate the defining recursions forward in time until one full
period stops changing, which converges whenever the standard uniform
observability (Riccati) or monodromy stability (Lyapunov) hypotheses hold.
Solutions are the symmetric periodic positive semidefinite (SPPS) family
P_0..P_{T-1} with P_{k+T} = P_k.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv, write_json
from ._linalg import (
    min_eig_sym, spd_inverse, spectral_norm, spectral_radius, sym, sym_spectral_norm,
)
from .errors import ConvergenceError, NumericalError, ValidationError
from .periodic import PeriodicSequence, as_periodic, normalize_period

DEFAULT_TOL = 1e-10
# Sweep budget defaults to ~1e5 individual time steps regardless of period.
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
        rows = ((k, i, j, M[i, j]) for k, M in enumerate(self.P) for i, j in np.ndindex(M.shape))
        write_csv(path, ["k", "i", "j", "value"], rows)


@dataclass(frozen=True)
class MonodromyReport:
    """A one-period closed-loop transition product and its spectral data."""

    phi: np.ndarray
    spectral_radius: float
    norm2: float


def transition_product(seq, start: int, stop: int) -> np.ndarray:
    """Time-ordered product M_{stop-1} ... M_{start} (empty product = I)."""
    seq = as_periodic(seq)
    n = seq.shape[0]
    out = np.eye(n)
    for t in range(start, stop):
        out = seq.at(t) @ out
    return out


def _iterate_to_period(step, period, P0, tol, max_sweeps, label):
    """Drive P_{k+1} = step(k, P_k, cells) over a (cells, n, n) stack until
    each cell's full period changes by < tol, relative to its size.

    ``step`` advances the rows of the still-running cells, whose stack
    indices it is given, and returns symmetric iterates. A slot's change is
    the spectral norm of its (symmetric) change over its largest absolute
    entry, so the stop does not depend on the scale of the problem. Each
    cell stops, keeping its values, at the first sweep after the first in
    which its own largest slot change is below ``tol``.
    Returns (slots, sweeps, residual): slots[s, c] approximates cell c's SPPS
    solution at time slot s; sweeps and residual are per cell.
    ``max_sweeps=None`` budgets about MAX_STEP_BUDGET time steps; a budget
    below 2 sweeps raises ValidationError, since the first sweep has nothing
    to compare against.
    """
    if max_sweeps is None:
        max_sweeps = max(2, math.ceil(MAX_STEP_BUDGET / period))
    elif max_sweeps < 2:
        raise ValidationError(f"max_sweeps must be >= 2, got {max_sweeps}")
    P = sym(np.asarray(P0, dtype=float))
    slots = np.empty((period,) + P.shape)
    sweeps = np.zeros(P.shape[0], dtype=int)
    residual = np.zeros(P.shape[0])
    cells = np.arange(P.shape[0])
    for sweep in range(max_sweeps):
        change = np.zeros(cells.size)
        for k in range(period):
            P = step(k, P, cells)
            if not np.all(np.isfinite(P)):
                raise NumericalError(
                    f"{label} produced non-finite values at sweep {sweep + 1}: "
                    "the recursion is divergent"
                )
            s = (k + 1) % period
            if sweep > 0:
                scale = np.maximum(np.abs(P).max(axis=(1, 2)), np.finfo(float).tiny)
                delta = sym_spectral_norm(P - slots[s, cells])
                change = np.maximum(change, delta / scale)
            slots[s, cells] = P
        if sweep > 0:
            done = change < tol
            sweeps[cells[done]] = sweep + 1
            residual[cells[done]] = change[done]
            cells, P, change = cells[~done], P[~done], change[~done]
            if cells.size == 0:
                return slots, sweeps, residual
    worst = float(change.max())
    raise ConvergenceError(
        f"{label} did not converge within {max_sweeps} sweeps "
        f"(relative residual {worst:.3e}, tol {tol:.1e})",
        residual=worst,
    )


def _cell_solution(run, cell: int = 0) -> SppsSolution:
    """Cell ``cell`` of an ``_iterate_to_period`` result as an SppsSolution."""
    slots, sweeps, residual = run
    return SppsSolution(
        period=slots.shape[0],
        P=tuple(slots[:, cell]),
        iterations=int(sweeps[cell]),
        residual=float(residual[cell]),
    )


def _information_step(Ak, Qk, P, S):
    """One information-form Riccati step A_k (P^{-1} + S)^{-1} A_k' + Q_k of
    a (cells, n, n) stack P with measurement information S."""
    prior = spd_inverse(P, what="predicted covariance")
    post = spd_inverse(prior + S, what="posterior information")
    return sym(Ak @ post @ Ak.T + Qk)


def _information_riccati(A, Q, S, tol, max_sweeps):
    """Stacked Riccati recursion in information form,
    P_{k+1} = A_k (P_k^{-1} + S_k)^{-1} A_k' + Q_k from P_0 = I, for the
    measurement information S_k of each cell given as a (T, cells, n, n)
    stack. Returns the ``_iterate_to_period`` result.
    """
    period, count, n = S.shape[:3]

    def step(k: int, P: np.ndarray, cells) -> np.ndarray:
        return _information_step(A.at(k), Q.at(k), P, S[k, cells])

    return _iterate_to_period(
        step, period, np.broadcast_to(np.eye(n), (count, n, n)), tol, max_sweeps,
        "periodic Riccati recursion",
    )


def _measurement_information(C, R, period: int) -> np.ndarray:
    """C_k' R_k^{-1} C_k per slot as a one-cell (T, 1, n, n) stack."""
    Rinv = spd_inverse(R.with_period(period).stack, what="measurement noise covariance")
    C = C.with_period(period).stack
    return sym(C.swapaxes(1, 2) @ Rinv @ C)[:, None]


def _closed_loops(A, Q, P, S, S2):
    """Per slot and cell, for Riccati solutions P, (T, cells, n, n): the gain
    A P+ with the posterior P+ = (P^{-1} + S)^{-1}, the closed loop
    A P+ P^{-1}, and the noise Q + A P+ S2 P+ A' that drives the true error
    covariance through that loop."""
    T = P.shape[0]
    A, Q = A.with_period(T).stack[:, None], Q.with_period(T).stack[:, None]
    prior = spd_inverse(P, what="predicted covariance")
    gain = A @ spd_inverse(prior + S, what="posterior information")
    return gain, gain @ prior, sym(Q + gain @ S2 @ gain.swapaxes(2, 3))


def dpre_spps(
    A,
    C,
    Q,
    R,
    tol: float = DEFAULT_TOL,
    max_sweeps: int | None = None,
) -> SppsSolution:
    """SPPS solution of the periodic filter Riccati equation.

    Iterates its information form (R_k positive definite)
        P_{k+1} = A_k (P_k^{-1} + C_k' R_k^{-1} C_k)^{-1} A_k' + Q_k
    forward from the identity until one full period changes by less than
    ``tol`` relative to its size. Convergence requires the pair (A., C.) to
    be uniformly observable; exhausting ``max_sweeps`` (at least 2) raises
    ConvergenceError.
    """
    A, C, Q, R = normalize_period([A, C, Q, R])
    S = _measurement_information(C, R, A.period)
    return _cell_solution(_information_riccati(A, Q, S, tol, max_sweeps))


def _lyapunov_stack(loops, noise, tol, max_sweeps):
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
        step, period, np.zeros((count, n, n)), tol, max_sweeps,
        "periodic Lyapunov recursion",
    )


def dple_spps(
    A,
    Q,
    tol: float = DEFAULT_TOL,
    max_sweeps: int | None = None,
) -> SppsSolution:
    """SPPS solution of the periodic Lyapunov equation P_{k+1} = A_k P_k A_k' + Q_k.

    The one-period transition product of A must be Schur stable, otherwise no
    steady solution exists and NumericalError is raised.
    """
    A, Q = normalize_period([A, Q])
    return _cell_solution(_lyapunov_stack(A.stack[:, None], Q.stack[:, None], tol, max_sweeps))


def monodromy(A_cl, anchor: int = 0) -> MonodromyReport:
    """Product of one period of closed-loop matrices starting after ``anchor``.

    The spectrum of the product is anchor-invariant (cyclic products are
    similar); the norm is not.
    """
    seq = as_periodic(A_cl)
    phi = transition_product(seq, anchor + 1, anchor + 1 + seq.period)
    return MonodromyReport(
        phi=phi,
        spectral_radius=spectral_radius(phi),
        norm2=spectral_norm(phi),
    )


def monodromy_bounds(solution: SppsSolution, Q) -> tuple[float, float]:
    """Spectral bounds on the closed-loop monodromy implied by a Riccati solution.

    Returns (rho_bound, norm_bound) with
        rho_bound  = sqrt(1 - min_k lambda_min(Q_k) / max_k lambda_max(P_k)),
        norm_bound = sqrt(max_k lambda_max(P_k) / min_k lambda_min(Q_k)).
    """
    Q = as_periodic(Q)
    lam_min_q = min(np.linalg.eigvalsh(sym(Qk))[0] for Qk in Q)
    if lam_min_q <= 0:
        raise ValidationError("Q must be positive definite for monodromy bounds")
    lam_max_p = max(np.linalg.eigvalsh(sym(Pk))[-1] for Pk in solution.P)
    rho_bound = math.sqrt(max(0.0, 1.0 - lam_min_q / lam_max_p))
    norm_bound = math.sqrt(lam_max_p / lam_min_q)
    return rho_bound, norm_bound


def _solution_loops(A, C, Q, R, solution: SppsSolution) -> PeriodicSequence:
    """The closed loops A_k P+_k P_k^{-1} along a Riccati solution."""
    A, C, Q, R = normalize_period([A, C, Q, R])
    if A.period != solution.period:
        raise ValidationError("solution period does not match the sequences")
    S = _measurement_information(C, R, A.period)
    loops = _closed_loops(A, Q, np.stack(solution.P)[:, None], S, S)[1]
    return PeriodicSequence(list(loops[:, 0]))


def solution_monodromy(A, C, Q, R, solution: SppsSolution, anchor: int = 0) -> MonodromyReport:
    """Monodromy report of the closed loops along a solved Riccati system;
    ``monodromy_bounds`` bounds its spectral radius and norm."""
    return monodromy(_solution_loops(A, C, Q, R, solution), anchor)


def power_norm_bound(A: np.ndarray, k: int) -> float:
    """Combinatorial upper bound on ||A^k||_2 from ||A||_2 and rho(A).

    Evaluates sqrt(n) * sum_{j=0}^{n-1} C(n-1, j) C(k, j) ||A||^j rho(A)^(k-j)
    with C(k, j) = 0 for j > k.
    """
    if k < 0:
        raise ValidationError("exponent k must be >= 0")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    norm = spectral_norm(A)
    rho = spectral_radius(A)
    total = 0.0
    for j in range(n):
        if j > k:
            continue
        exponent = k - j
        rho_pow = 1.0 if exponent == 0 else rho**exponent
        total += math.comb(n - 1, j) * math.comb(k, j) * norm**j * rho_pow
    return math.sqrt(n) * total


def uniform_observability(A, C) -> bool:
    """Observability of a periodic pair via full-rank window Gramians.

    For every anchor k in one period, the Gramian
    sum_{j=0}^{nT-1} Phi(k+j, k)' C_{k+j}' C_{k+j} Phi(k+j, k) must have rank
    n, with rank decided by Gramian eigenvalues above OBSERVABILITY_REL_TOL
    times the largest. The rank is evaluated on the stacked observability
    factor, whose squared singular values are the Gramian's, to avoid forming
    the square. Blocks of anchors advance through their windows together and
    take one batched SVD, each block's factors holding at most
    OBSERVABILITY_BLOCK entries.
    """
    A, C = normalize_period([A, C])
    n, period, rows = A.shape[0], A.period, C.shape[0]
    window = n * period
    block = max(1, OBSERVABILITY_BLOCK // (window * rows * n))
    for first in range(0, period, block):
        anchors = np.arange(first, min(first + block, period))
        factor = np.empty((anchors.size, window * rows, n))
        Phi = np.broadcast_to(np.eye(n), (anchors.size, n, n))
        for j in range(window):
            t = (anchors + j) % period
            factor[:, j * rows : (j + 1) * rows] = C.stack[t] @ Phi
            Phi = A.stack[t] @ Phi
        sv = np.linalg.svd(factor, compute_uv=False)
        if not np.all(sv[:, 0] > 0.0):
            return False
        ranks = np.count_nonzero(sv > math.sqrt(OBSERVABILITY_REL_TOL) * sv[:, :1], axis=1)
        if np.any(ranks < n):
            return False
    return True


def dpre_monotonicity_probe(A, C, Q, R1, R2, tol: float = DEFAULT_TOL) -> bool:
    """Check that the Riccati solution does not shrink when noise grows.

    Requires R1_k >= R2_k > 0 for all k; returns True iff the solution with
    R1 dominates the solution with R2 (difference PSD within -1e-8) at every
    time slot.
    """
    R1 = as_periodic(R1)
    R2 = as_periodic(R2)
    common = max(R1.period, R2.period)
    for k in range(common):
        if min_eig_sym(R1.at(k) - R2.at(k)) < -1e-12:
            raise ValidationError("R1 must dominate R2 (R1_k >= R2_k)")
    P1 = dpre_spps(A, C, Q, R1, tol=tol)
    P2 = dpre_spps(A, C, Q, R2, tol=tol)
    return all(
        min_eig_sym(P1.at(k) - P2.at(k)) >= -1e-8 for k in range(P1.period)
    )


def fixed_point_defect(solution: SppsSolution, A, C, Q, R) -> float:
    """Largest one-step defect when substituting a solution into its Riccati
    map, each slot's defect relative to that slot's largest absolute entry
    (the measure the solver's stop uses)."""
    A, C, Q, R = normalize_period([A, C, Q, R])
    S = _measurement_information(C, R, solution.period)
    worst = 0.0
    for k in range(solution.period):
        P_next = _information_step(A.at(k), Q.at(k), solution.at(k), S[k, 0])
        target = solution.at(k + 1)
        worst = max(worst, sym_spectral_norm(P_next - target) / np.abs(target).max())
    return worst
