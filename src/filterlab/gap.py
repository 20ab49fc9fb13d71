"""Steady-state performance of the consensus filter, its gap to the
centralized filter, series-form verifications of that gap, and fitted decay
rates against the network's spectral gap."""

import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import spectral_norm, sym
from .errors import NumericalError, ValidationError
from .network import ConsensusWeights, SensorGraph, second_largest_eigenvalue, weight_power
from .periodic import PeriodicSequence, PlantModel, stacked_observation
from .filters import modified_sequences
from .spps import (
    DEFAULT_TOL,
    SppsSolution,
    closed_loop_sequence,
    dple_spps,
    dpre_spps,
    transition_product,
    uniform_observability,
)

logger = logging.getLogger("filterlab.gap")

# Series terms below this spectral norm terminate the truncated sums.
SERIES_TERM_TOL = 1e-14
# Rate denominators at or below this are reported as floored, not divided.
RATE_FLOOR = 1e-12


def _network_sequences(model: PlantModel):
    C = PeriodicSequence([stacked_observation(model, k)[0] for k in range(model.period)])
    R = PeriodicSequence([stacked_observation(model, k)[1] for k in range(model.period)])
    return C, R


def centralized_dpre(model: PlantModel, tol: float = DEFAULT_TOL, **kw) -> SppsSolution:
    """Steady covariance of the centralized filter over the whole network."""
    C, R = _network_sequences(model)
    return dpre_spps(model.A, C, model.Q, R, tol=tol, **kw)


def cmdf_dpre(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    i: int,
    tol: float = DEFAULT_TOL,
    max_sweeps: int | None = None,
    check_observability: bool = True,
) -> SppsSolution:
    """Steady parameter covariance of node i's consensus filter at fusion depth L.

    Solves the Riccati equation with the node's modified observation model;
    this is the limit of the covariance recursion the node actually iterates.
    """
    C_mod, R_eff, _, _ = modified_sequences(model, weights, L, i)
    if check_observability and not uniform_observability(model.A, C_mod):
        raise ValidationError(
            f"node {i} at L={L}: the pair (A, modified C) is not uniformly "
            "observable, so the consensus filter has no steady covariance"
        )
    return dpre_spps(model.A, C_mod, model.Q, R_eff, tol=tol, max_sweeps=max_sweeps)


def cmdf_error_dple(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    i: int,
    tol: float = DEFAULT_TOL,
    max_sweeps: int | None = None,
    dpre_solution: SppsSolution | None = None,
) -> SppsSolution:
    """True steady error covariance of node i's consensus filter.

    Solves the Lyapunov equation driven by the closed loop of the modified
    Riccati solution, with the true (masked) noise covariance re-injected
    through the gains.
    """
    C_mod, R_eff, R_mask, _ = modified_sequences(model, weights, L, i)
    if dpre_solution is None:
        dpre_solution = cmdf_dpre(model, weights, L, i, tol=tol, max_sweeps=max_sweeps)
    gains, loops = closed_loop_sequence(model.A, C_mod, R_eff, dpre_solution)
    T = dpre_solution.period
    Q_noise = PeriodicSequence(
        [
            sym(model.Q.at(k) + gains[k] @ R_mask.at(k) @ gains[k].T)
            for k in range(T)
        ]
    )
    return dple_spps(loops, Q_noise, tol=tol, max_sweeps=max_sweeps)


@dataclass(frozen=True)
class GapSeries:
    """A truncated gap series next to the directly computed gap."""

    series_sum: np.ndarray
    direct: np.ndarray
    defect: float
    terms: int


def _require_full_support(weights: ConsensusWeights, L: int, i: int) -> np.ndarray:
    power, mask = weight_power(weights, L)
    if not mask[i].all():
        raise ValidationError(
            f"series form needs full fusion support for node {i} at L={L} "
            "(take L at least the graph diameter)"
        )
    return power[i]


def _suffix_products(loops: PeriodicSequence, anchor: int) -> list[np.ndarray]:
    """suffix[l] = product of closed-loop matrices over times [anchor+l+1, anchor+T)."""
    T = loops.period
    n = loops.shape[0]
    out = [np.eye(n) for _ in range(T)]
    for l in range(T - 2, -1, -1):
        out[l] = out[l + 1] @ loops.at(anchor + l + 1)
    return out


def _truncated_series(Psi, Phi_left, Phi_right, truncation, term_tol):
    total = np.zeros_like(Psi)
    left = np.eye(Psi.shape[0])
    right = np.eye(Psi.shape[0])
    for j in range(truncation):
        term = left @ Psi @ right.T
        total += term
        if spectral_norm(term) < term_tol:
            return sym(total), j + 1
        left = Phi_left @ left
        right = Phi_right @ right
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
    tol: float = DEFAULT_TOL,
    term_tol: float = SERIES_TERM_TOL,
) -> GapSeries:
    """Series form of the parameter-covariance gap (node i minus centralized).

    Reconstructs P_i^(L) - P at the anchor slot as the geometric series of
    one-period gap propagations and compares it against the direct difference
    of the two solved steady solutions.
    """
    _require_full_support(weights, L, i)
    C, R = _network_sequences(model)
    _, R_eff, _, _ = modified_sequences(model, weights, L, i)
    P_c = dpre_spps(model.A, C, model.Q, R, tol=min(tol, 1e-11))
    P_i = dpre_spps(model.A, C, model.Q, R_eff, tol=min(tol, 1e-11))
    K_c, loops_c = closed_loop_sequence(model.A, C, R, P_c)
    K_i, loops_i = closed_loop_sequence(model.A, C, R_eff, P_i)

    T = model.period
    suffix_i = _suffix_products(loops_i, anchor)
    suffix_c = _suffix_products(loops_c, anchor)
    Psi = np.zeros((model.n, model.n))
    for l in range(T):
        t = (anchor + l) % T
        mid = K_i[t] @ (R_eff.at(t) - R.at(t)) @ K_c[t].T
        Psi += suffix_i[l] @ mid @ suffix_c[l].T

    Phi_i = transition_product(loops_i, anchor, anchor + T)
    Phi_c = transition_product(loops_c, anchor, anchor + T)
    series, terms = _truncated_series(Psi, Phi_i, Phi_c, truncation, term_tol)
    direct = P_i.at(anchor) - P_c.at(anchor)
    return GapSeries(
        series_sum=series,
        direct=direct,
        defect=spectral_norm(series - direct),
        terms=terms,
    )


def gap_series_cov(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    i: int,
    truncation: int = 5000,
    anchor: int = 0,
    tol: float = DEFAULT_TOL,
    term_tol: float = SERIES_TERM_TOL,
) -> GapSeries:
    """Series form of the error-vs-parameter covariance gap at node i.

    Reconstructs the steady difference between the node's true error
    covariance and its parameter covariance from the noise-mismatch terms
    propagated through the closed loop.
    """
    _require_full_support(weights, L, i)
    C_mod, R_eff, R_mask, _ = modified_sequences(model, weights, L, i)
    P_i = dpre_spps(model.A, C_mod, model.Q, R_eff, tol=min(tol, 1e-11))
    P_err = cmdf_error_dple(model, weights, L, i, tol=min(tol, 1e-11), dpre_solution=P_i)
    K_i, loops_i = closed_loop_sequence(model.A, C_mod, R_eff, P_i)

    T = model.period
    suffix_i = _suffix_products(loops_i, anchor)
    Upsilon = np.zeros((model.n, model.n))
    for l in range(T):
        t = (anchor + l) % T
        mid = K_i[t] @ (R_mask.at(t) - R_eff.at(t)) @ K_i[t].T
        Upsilon += suffix_i[l] @ mid @ suffix_i[l].T

    Phi_i = transition_product(loops_i, anchor, anchor + T)
    series, terms = _truncated_series(Upsilon, Phi_i, Phi_i, truncation, term_tol)
    direct = P_err.at(anchor) - P_i.at(anchor)
    return GapSeries(
        series_sum=series,
        direct=direct,
        defect=spectral_norm(series - direct),
        terms=terms,
    )


def average_performance(solution: SppsSolution) -> float:
    """Mean trace over one period of a steady solution."""
    return float(np.mean([np.trace(P) for P in solution.P]))


def rate_fit(
    model: PlantModel,
    weights: ConsensusWeights,
    i: int,
    L_range,
    tol: float = DEFAULT_TOL,
) -> list[float]:
    """Per-step decay ratios of node i's average performance gap.

    For each L in L_range returns (perf(L+1) - perf_central) divided by
    (perf(L) - perf_central); entries whose denominator sits at the numerical
    floor are reported as NaN rather than divided.
    """
    L_range = sorted(set(int(L) for L in L_range))
    central = average_performance(centralized_dpre(model, tol=tol))
    needed = sorted(set(L_range) | {L + 1 for L in L_range})
    perf = {
        L: average_performance(cmdf_error_dple(model, weights, L, i, tol=tol))
        for L in needed
    }
    rates = []
    for L in L_range:
        den = perf[L] - central
        num = perf[L + 1] - central
        rates.append(num / den if abs(den) > RATE_FLOOR else math.nan)
    return rates


@dataclass(frozen=True)
class GapCell:
    """Per (sensor, fusion depth) performance summary."""

    sensor: int
    L: int
    gap_ric: float
    gap_cov: float
    avg_perf: float
    rate: float


@dataclass
class GapReport:
    """Gap summaries for a sweep of sensors and fusion depths."""

    cells: list[GapCell]
    sigma2: float
    centralized_avg: float
    metadata: dict = field(default_factory=dict)

    def cell(self, sensor: int, L: int) -> GapCell:
        for c in self.cells:
            if c.sensor == sensor and c.L == L:
                return c
        raise KeyError((sensor, L))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["sensor", "L", "gap_ric", "gap_cov", "avg_perf", "rate", "sigma2"]
            )
            for c in self.cells:
                writer.writerow(
                    [
                        c.sensor,
                        c.L,
                        f"{c.gap_ric:.17g}",
                        f"{c.gap_cov:.17g}",
                        f"{c.avg_perf:.17g}",
                        "" if math.isnan(c.rate) else f"{c.rate:.17g}",
                        f"{self.sigma2:.17g}",
                    ]
                )

    def rates_to_csv(self, path) -> None:
        """The decay-rate table: one row per cell, blank where the rate is NaN."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sensor", "L", "rate_q", "sigma2"])
            for c in self.cells:
                writer.writerow(
                    [
                        c.sensor,
                        c.L,
                        "" if math.isnan(c.rate) else f"{c.rate:.17g}",
                        f"{self.sigma2:.17g}",
                    ]
                )

    def to_json(self, path) -> None:
        data = {
            "sigma2": self.sigma2,
            "centralized_avg": self.centralized_avg,
            "metadata": self.metadata,
            "cells": [
                {
                    "sensor": c.sensor,
                    "L": c.L,
                    "gap_ric": c.gap_ric,
                    "gap_cov": c.gap_cov,
                    "avg_perf": c.avg_perf,
                    "rate": None if math.isnan(c.rate) else c.rate,
                }
                for c in self.cells
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)


def graph_fingerprint(graph: SensorGraph) -> str:
    payload = json.dumps(
        {"N": graph.n_nodes, "edges": sorted(list(e) for e in graph.edges)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_gap_report(
    model: PlantModel,
    weights: ConsensusWeights,
    L_values,
    tol: float = DEFAULT_TOL,
    graph: SensorGraph | None = None,
    seed: int | None = None,
) -> GapReport:
    """Solve every (sensor, L) cell and assemble the report.

    Each swept L also solves L + 1, the numerator of its decay rate.
    """
    L_values = sorted(set(int(L) for L in L_values))
    if not L_values:
        raise ValidationError("the gap report needs at least one L value")
    central = centralized_dpre(model, tol=tol)
    central_avg = average_performance(central)
    needed_L = sorted(set(L_values) | {L + 1 for L in L_values})

    solved = {}
    for i in range(model.N):
        for L in needed_L:
            P_i = cmdf_dpre(model, weights, L, i, tol=tol)
            P_err = cmdf_error_dple(model, weights, L, i, tol=tol, dpre_solution=P_i)
            gap_ric = max(
                spectral_norm(P_i.at(k) - central.at(k)) for k in range(model.period)
            )
            gap_cov = max(
                spectral_norm(P_err.at(k) - central.at(k)) for k in range(model.period)
            )
            solved[(i, L)] = (gap_ric, gap_cov, average_performance(P_err))

    cells = []
    for i in range(model.N):
        previous_gap = None
        for L in L_values:
            gap_ric, gap_cov, perf = solved[(i, L)]
            den = perf - central_avg
            num = solved[(i, L + 1)][2] - central_avg
            rate = num / den if abs(den) > RATE_FLOOR else math.nan
            if previous_gap is not None and gap_cov > previous_gap + 1e-8:
                logger.warning(
                    "gap at sensor %d grew from L=%d to L=%d (%.3e -> %.3e); "
                    "only the exponential envelope is guaranteed",
                    i, L - 1, L, previous_gap, gap_cov,
                )
            previous_gap = gap_cov
            cells.append(
                GapCell(
                    sensor=i, L=L, gap_ric=gap_ric, gap_cov=gap_cov,
                    avg_perf=perf, rate=rate,
                )
            )

    metadata = {"tol": tol}
    if seed is not None:
        metadata["seed"] = seed
    if graph is not None:
        metadata["graph_hash"] = graph_fingerprint(graph)
    return GapReport(
        cells=cells,
        sigma2=second_largest_eigenvalue(weights),
        centralized_avg=central_avg,
        metadata=metadata,
    )
