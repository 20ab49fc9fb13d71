"""Measurement-form reference for the information-form solvers.

The package solves every Riccati equation in information form,
P_{k+1} = A_k (P_k^{-1} + S_k)^{-1} A_k' + Q_k. This module keeps the
textbook measurement form, with innovation covariances, gains A - K C and
the modified observation model a consensus node effectively fuses, so the
tests can check the information form against an independent recursion.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from filterlab import NumericalError, PeriodicSequence, ValidationError, weight_power
from filterlab._linalg import sym
from filterlab.periodic import normalize_period
from filterlab.spps import SppsSolution


def spd_solve(M, B, what="matrix"):
    """Solve M X = B for symmetric positive-definite M via Cholesky."""
    try:
        factor = cho_factor(sym(M), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite") from exc
    return cho_solve(factor, B)


def stacked_observation(model, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Whole-network observation pair at time k.

    Returns the row-stack of the per-sensor observation matrices and the
    block-diagonal stack of their noise covariances.
    """
    C = np.vstack([Ci.at(k) for Ci in model.C])
    R = np.zeros((model.m, model.m))
    for sl, Ri in zip(model.observation_slices(), model.R):
        R[sl, sl] = Ri.at(k)
    return C, R


def network_sequences(model) -> tuple[PeriodicSequence, PeriodicSequence]:
    """One period of the whole-network pair (C, R) of the centralized filter."""
    pairs = [stacked_observation(model, k) for k in range(model.period)]
    return PeriodicSequence([C for C, _ in pairs]), PeriodicSequence([R for _, R in pairs])


def riccati_step(Ak, Ck, Qk, Rk, P):
    """One step of the measurement-form filter Riccati recursion,
    A P A' + Q - A P C' (C P C' + R)^{-1} C P A'."""
    if Ck.shape[0] == 0:
        return sym(Ak @ P @ Ak.T + Qk)
    G = Ck @ P
    S = sym(G @ Ck.T + Rk)
    W = spd_solve(S, G, what="innovation covariance")
    return sym(Ak @ (P - G.T @ W) @ Ak.T + Qk)


def dpre(A, C, Q, R, tol: float = 1e-10, max_sweeps: int = 100_000) -> SppsSolution:
    """Periodic Riccati solution by the measurement-form recursion from the
    identity, stopped at the first sweep after the first whose slots all
    change by less than ``tol`` relative to their largest absolute entry.
    It doubles nothing; its defect is that last sweep's largest change."""
    A, C, Q, R = normalize_period([A, C, Q, R])
    T = A.period
    P = np.eye(A.shape[0])
    slots = [None] * T
    for sweep in range(max_sweeps):
        change = 0.0
        for k in range(T):
            P = riccati_step(A.at(k), C.at(k), Q.at(k), R.at(k), P)
            s = (k + 1) % T
            if sweep > 0:
                change = max(change, np.linalg.norm(P - slots[s], 2) / np.abs(P).max())
            slots[s] = P
        if sweep > 0 and change < tol:
            return SppsSolution(period=T, P=tuple(slots), doublings=0, defect=change)
    raise AssertionError(f"measurement-form recursion did not converge in {max_sweeps} sweeps")


def centralized_dpre(model, tol: float = 1e-10) -> SppsSolution:
    """The centralized filter's Riccati solution on the whole-network pair."""
    C, R = network_sequences(model)
    return dpre(model.A, C, model.Q, R, tol)


def closed_loop(A_k, C_k, R_k, P_k) -> tuple[np.ndarray, np.ndarray]:
    """One-step filter gain and closed-loop matrix at covariance P_k.

    Returns (K, A_cl) with K = A P C' (C P C' + R)^{-1} and A_cl = A - K C.
    """
    A_k = np.atleast_2d(np.asarray(A_k, dtype=float))
    C_k = np.atleast_2d(np.asarray(C_k, dtype=float))
    R_k = np.atleast_2d(np.asarray(R_k, dtype=float))
    P_k = np.atleast_2d(np.asarray(P_k, dtype=float))
    if C_k.shape[0] == 0:
        K = np.zeros((A_k.shape[0], 0))
        return K, A_k.copy()
    S = sym(C_k @ P_k @ C_k.T + R_k)
    K = spd_solve(S, C_k @ P_k @ A_k.T, what="innovation covariance").T
    return K, A_k - K @ C_k


def closed_loop_sequence(A, C, R, solution):
    """Per-step gains and closed-loop matrices along a Riccati solution."""
    A, C, R = normalize_period([A, C, R])
    if A.period != solution.period:
        raise ValidationError("solution period does not match the sequences")
    gains, loops = [], []
    for k in range(solution.period):
        K, A_cl = closed_loop(A.at(k), C.at(k), R.at(k), solution.at(k))
        gains.append(K)
        loops.append(A_cl)
    return gains, PeriodicSequence(loops)


@dataclass(frozen=True)
class ModifiedObservation:
    """The observation model a node effectively fuses after L rounds.

    ``C`` stacks every sensor's observation matrix, zeroed outside the node's
    L-step support. ``R_effective`` carries blocks R_j / (N l_ij^(L)) on the
    support (zero elsewhere); ``R_masked`` carries the raw R_j blocks on the
    support. ``support`` flags which sensors contribute.
    """

    C: np.ndarray
    R_effective: np.ndarray
    R_masked: np.ndarray
    support: np.ndarray
    block_slices: tuple

    def compressed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Supported rows/blocks only; the effective noise block is then PD."""
        keep = [sl for sl, s in zip(self.block_slices, self.support) if s]
        if not keep:
            n = self.C.shape[1]
            return np.zeros((0, n)), np.zeros((0, 0)), np.zeros((0, 0))
        rows = np.concatenate([np.arange(sl.start, sl.stop) for sl in keep])
        return (
            self.C[rows],
            self.R_effective[np.ix_(rows, rows)],
            self.R_masked[np.ix_(rows, rows)],
        )

    def info_matrix(self) -> np.ndarray:
        """C' R_effective^{-1} C over the supported blocks."""
        C_c, R_eff, _ = self.compressed()
        if C_c.shape[0] == 0:
            n = self.C.shape[1]
            return np.zeros((n, n))
        return sym(C_c.T @ np.linalg.solve(R_eff, C_c))


def modified_observation(model, weights, L: int, i: int, k: int) -> ModifiedObservation:
    """Observation model equivalent to node i's L-round fusion at time k.

    Sensor j is in the support iff the (i, j) entry of the L-th weight power
    exceeds the structural-zero threshold. On the support the effective noise
    block is R_j / (N l_ij^(L)); off it, rows and blocks are zero. The
    identity C' R_effective^{-1} C = N sum_j l_ij^(L) C_j' R_j^{-1} C_j holds
    over the supported blocks.
    """
    if not (0 <= i < model.N):
        raise ValidationError(f"sensor index {i} out of range")
    power, mask = weight_power(weights, L)
    return _modified_from_row(model, power[i], mask[i], k)


def _modified_from_row(model, row, support, k: int) -> ModifiedObservation:
    N, m, n = model.N, model.m, model.n
    slices = tuple(model.observation_slices())
    C = np.zeros((m, n))
    R_eff = np.zeros((m, m))
    R_mask = np.zeros((m, m))
    for j, sl in enumerate(slices):
        if not support[j]:
            continue
        C[sl] = model.C[j].at(k)
        R_eff[sl, sl] = model.R[j].at(k) / (N * row[j])
        R_mask[sl, sl] = model.R[j].at(k)
    return ModifiedObservation(
        C=C,
        R_effective=R_eff,
        R_masked=R_mask,
        support=support.copy(),
        block_slices=slices,
    )


def modified_sequences(model, weights, L: int, i: int):
    """One period of node i's compressed modified observation model.

    Returns (C, R_effective, R_masked, support) with the unsupported blocks
    dropped, so the effective noise sequence is positive definite and can be
    fed to the Riccati recursion directly.
    """
    power, mask = weight_power(weights, L)
    support = mask[i]
    C_list, R_eff_list, R_mask_list = [], [], []
    for k in range(model.period):
        C_c, R_eff_c, R_mask_c = _modified_from_row(model, power[i], support, k).compressed()
        C_list.append(C_c)
        R_eff_list.append(R_eff_c)
        R_mask_list.append(R_mask_c)
    if C_list[0].shape[0] == 0:
        raise ValidationError(
            f"node {i} has empty fusion support at L={L}; no observation model exists"
        )
    return (
        PeriodicSequence(C_list),
        PeriodicSequence(R_eff_list),
        PeriodicSequence(R_mask_list),
        support,
    )
