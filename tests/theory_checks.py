"""Checks of the paper's lemmas on solved systems, for the acceptance
criteria and the solver tests: monotonicity of the periodic Riccati solution
in the measurement noise, the monodromy bounds it implies, matrix-power norm
bounds, the fitted consensus contraction envelope, and the series forms of
the consensus filter's gap to the centralized filter.

None of this runs in a command or pipeline; it reads the package's solvers
and checks what they return.
"""

import math
from dataclasses import dataclass

import numpy as np

from filterlab._linalg import spd_inverse, sym, sym_spectral_norm
from filterlab.errors import NumericalError, ValidationError
from filterlab.gap import _fused_information, _sensor_information
from filterlab.network import (
    STRUCTURAL_ZERO_TOL, ConsensusWeights, _hops, second_largest_eigenvalue, weight_power,
)
from filterlab.periodic import PeriodicSequence, PlantModel, as_periodic, normalize_period
from filterlab.spps import (
    DEFAULT_TOL, SppsSolution, _closed_loops, _information_riccati, _information_step,
    dple_spps, dpre_spps,
)

# Series terms below this spectral norm terminate the truncated sums.
SERIES_TERM_TOL = 1e-14
# Solver tolerance of the steady solutions the series forms are checked against.
SERIES_TOL = 1e-11


def spectral_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def min_eig_sym(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(sym(M))[0])


def _measurement_information(C, R, period: int) -> np.ndarray:
    """C_k' R_k^{-1} C_k per slot as a one-cell (T, 1, n, n) stack, formed
    as ``dpre_spps`` forms it."""
    Rinv = spd_inverse(R.with_period(period).stack, what="measurement noise covariance")
    C = C.with_period(period).stack
    return sym(C.swapaxes(1, 2) @ Rinv @ C)[:, None]


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


def _support_connected(W: np.ndarray) -> bool:
    return bool((_hops(W > STRUCTURAL_ZERO_TOL) >= 0).all())


def spectral_diagnostics(
    weights: ConsensusWeights, k_max: int = 60
) -> tuple[float, tuple[float, float]]:
    """Spectral gap and a fitted exponential consensus envelope.

    Returns (sigma2, (M, q)) where sigma2 is the modulus of the second
    largest eigenvalue and ||W^k - (1/N) 1 1^T||_2 <= M q^k holds for
    k = 0..k_max, with q minimal over a grid subject to a bounded prefactor.
    """
    W = weights.matrix
    if not _support_connected(W):
        raise ValidationError(
            "consensus limit does not exist: weight support is disconnected"
        )
    n = W.shape[0]
    sigma2 = second_largest_eigenvalue(weights)
    J = np.full((n, n), 1.0 / n)
    norms = []
    P = np.eye(n)
    for _ in range(k_max + 1):
        norms.append(np.linalg.norm(P - J, 2))
        P = W @ P
    norms = np.array(norms)
    # Norms at rounding level are exact zeros for fitting purposes.
    active = norms > 1e-13
    if not active.any():
        return sigma2, (1.0, 1e-6)
    ks = np.nonzero(active)[0]
    log_vals = np.log(norms[active])
    log_cap = np.log(10.0 * max(1.0, norms[active][0]))
    grid = np.geomspace(1e-6, 0.9999, 600)
    for q in grid:
        # log M(q) = max_k (log ||W^k - J|| - k log q), evaluated in log
        # space so tiny q and large k cannot underflow.
        log_M = float(np.max(log_vals - ks * np.log(q)))
        if log_M <= log_cap:
            return sigma2, (float(np.exp(log_M)), float(q))
    # q = 1 always admits M = max norm.
    return sigma2, (float(np.exp(log_vals.max())), 1.0)


@dataclass(frozen=True)
class GapSeries:
    """A truncated gap series next to the directly computed gap."""

    series_sum: np.ndarray
    direct: np.ndarray
    defect: float
    terms: int


def _series_parts(model, weights, L, i):
    """Node i (row 0, full fusion support required) and the centralized
    filter (row 1) for the series forms: Riccati solutions P, fused
    information S and S2, and their ``_closed_loops``."""
    power, mask = weight_power(weights, L)
    if not mask[i].all():
        raise ValidationError(
            f"series form needs full fusion support for node {i} at L={L} "
            "(take L at least the graph diameter)"
        )
    sensors, _, _, own = _sensor_information(model)
    fusion = np.stack([model.N * power[i], np.ones(model.N)])[:, sensors]
    S, S2 = _fused_information(fusion, own), _fused_information(fusion**2, own)
    P = _information_riccati(model.A, model.Q, S, SERIES_TOL)[0]
    return P, S, S2, _closed_loops(model.A, model.Q, P, S, S2)


def _series(loops, anchor, mid, rows, direct, truncation) -> GapSeries:
    """Sum the geometric series of one-period propagations of the gap that
    slot t injects as mid(t), carried on the left by the closed loop of row
    rows[0] and on the right by that of rows[1], and set it against the
    directly computed gap."""
    M = loops[:, list(rows)]
    T, n = M.shape[0], M.shape[-1]
    # phi runs through the suffix products over [anchor+l+1, anchor+T) for
    # l = T-1..0 and ends as the one-period product from the anchor.
    phi = np.broadcast_to(np.eye(n), M.shape[1:])
    Psi = np.zeros((n, n))
    for l in range(T - 1, -1, -1):
        t = (anchor + l) % T
        Psi += phi[0] @ mid(t) @ phi[1].T
        phi = phi @ M[t]
    total = np.zeros((n, n))
    left = right = np.eye(n)
    for j in range(truncation):
        term = left @ Psi @ right.T
        total += term
        if spectral_norm(term) < SERIES_TERM_TOL:
            series = sym(total)
            return GapSeries(series, direct, sym_spectral_norm(series - direct), j + 1)
        left = phi[0] @ left
        right = phi[1] @ right
    raise NumericalError(
        f"gap series did not reach the term floor within {truncation} terms; "
        "increase the truncation cap"
    )


def gap_series_ric(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    i: int,
    truncation: int = 5000,
    anchor: int = 0,
) -> GapSeries:
    """Series form of the parameter-covariance gap (node i minus centralized).

    Reconstructs P_i^(L) - P at the anchor slot as the geometric series of
    one-period gap propagations, each slot injecting the information
    mismatch A P+_i (S - S_i) P+ A', and compares it against the direct
    difference of the two solved steady solutions.
    """
    P, S, _, (gain, loops, _) = _series_parts(model, weights, L, i)
    a = anchor % model.period

    def mid(t):
        return gain[t, 0] @ (S[t, 1] - S[t, 0]) @ gain[t, 1].T

    return _series(loops, anchor, mid, (0, 1), P[a, 0] - P[a, 1], truncation)


def gap_series_cov(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    i: int,
    truncation: int = 5000,
    anchor: int = 0,
) -> GapSeries:
    """Series form of the error-vs-parameter covariance gap at node i.

    Reconstructs the steady difference between the node's true error
    covariance and its parameter covariance from the noise mismatch
    A P+_i (S2_i - S_i) P+_i A' propagated through the closed loop.
    """
    P, S, S2, (gain, loops, noise) = _series_parts(model, weights, L, i)
    err = dple_spps(loops[:, 0], noise[:, 0], tol=SERIES_TOL)

    def mid(t):
        return gain[t, 0] @ (S2[t, 0] - S[t, 0]) @ gain[t, 0].T

    direct = err.at(anchor) - P[anchor % model.period, 0]
    return _series(loops, anchor, mid, (0, 0), direct, truncation)
