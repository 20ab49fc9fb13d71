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
from .periodic import PeriodicSequence, PlantModel
from .filters import _fused_information, _sensor_information
from .spps import (
    DEFAULT_TOL,
    SppsSolution,
    _cell_solution,
    _closed_loops,
    _information_riccati,
    _lyapunov_stack,
    dple_spps,
    uniform_observability,
)

logger = logging.getLogger("filterlab.gap")

# Series terms below this spectral norm terminate the truncated sums.
SERIES_TERM_TOL = 1e-14
# Rate denominators at or below this are reported as floored, not divided.
RATE_FLOOR = 1e-12


def centralized_dpre(model: PlantModel, tol: float = DEFAULT_TOL) -> SppsSolution:
    """Steady covariance of the centralized filter over the whole network:
    the information-form Riccati equation of the fusion row 1', which fuses
    every sensor's C_j' R_j^{-1} C_j."""
    S = _fused_information(np.ones((1, model.N)), _sensor_information(model)[1])[0]
    return _cell_solution(_information_riccati(model.A, model.Q, S, tol, None))


def observable_support(model: PlantModel, support, verdicts: dict) -> bool:
    """Whether A and the C rows of the sensors in ``support`` form a
    uniformly observable pair; an empty support is not observable.

    ``verdicts`` memoizes the answer by support mask, so each distinct mask
    is checked once however many nodes and fusion depths share it.
    """
    support = np.asarray(support, dtype=bool)
    key = support.tobytes()
    if key not in verdicts:
        sensors = np.flatnonzero(support)
        verdicts[key] = sensors.size > 0 and uniform_observability(
            model.A,
            PeriodicSequence(np.concatenate([model.C[j].stack for j in sensors], axis=1)),
        )
    return verdicts[key]


def _fused_rows(model, weights, L, own, verdicts):
    """Fused information S and S2, (T, N, n, n), of every node at depth L
    (see ``filters._fused_information``).

    Node i fuses sensor j with weight N (W^L)_ij on its support, the sensors
    an L-step path reaches. A node with an empty support, or one that is not
    uniformly observable, has no steady covariance and raises
    ValidationError.
    """
    power, mask = weight_power(weights, L)
    for i in range(model.N):
        if not mask[i].any():
            raise ValidationError(
                f"node {i} has empty fusion support at L={L}; no observation model exists"
            )
        if not observable_support(model, mask[i], verdicts):
            raise ValidationError(
                f"node {i} at L={L}: the pair (A, modified C) is not uniformly "
                "observable, so the consensus filter has no steady covariance"
            )
    return _fused_information(np.where(mask, model.N * power, 0.0), own)


def _fused_solve(model, weights, L, own, verdicts, tol):
    """Steady parameter and true error covariances of all N nodes at fusion
    depth L, solved as one stack: the ``_iterate_to_period`` results of the
    Riccati and then the Lyapunov recursion, slots (T, N, n, n) each."""
    S, S2 = _fused_rows(model, weights, L, own, verdicts)
    riccati = _information_riccati(model.A, model.Q, S, tol, None)
    _, loops, noise = _closed_loops(model.A, model.Q, riccati[0], S, S2)
    return riccati, _lyapunov_stack(loops, noise, tol, None)


def cmdf_spps(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    tol: float = DEFAULT_TOL,
) -> list[tuple[SppsSolution, SppsSolution]]:
    """Steady covariances of every node's consensus filter at fusion depth L.

    Entry i is node i's (P, X): P solves the Riccati equation in information
    form with the node's fused measurement information, the limit of the
    covariance recursion the node iterates; X solves the Lyapunov equation
    of P's closed loop, driven by the noise the node's fusion weights inject,
    and is the node's true steady error covariance.
    """
    P, X = _fused_solve(model, weights, L, _sensor_information(model)[1], {}, tol)
    return [(_cell_solution(P, i), _cell_solution(X, i)) for i in range(model.N)]


@dataclass(frozen=True)
class GapSeries:
    """A truncated gap series next to the directly computed gap."""

    series_sum: np.ndarray
    direct: np.ndarray
    defect: float
    terms: int


def _series_parts(model, weights, L, i, tol):
    """Node i (row 0, full fusion support required) and the centralized
    filter (row 1) for the series forms: Riccati solutions P, fused
    information S and S2, and their ``_closed_loops``."""
    power, mask = weight_power(weights, L)
    if not mask[i].all():
        raise ValidationError(
            f"series form needs full fusion support for node {i} at L={L} "
            "(take L at least the graph diameter)"
        )
    S, S2 = _fused_information(
        np.stack([model.N * power[i], np.ones(model.N)]), _sensor_information(model)[1]
    )
    P = _information_riccati(model.A, model.Q, S, min(tol, 1e-11), None)[0]
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
            return GapSeries(series, direct, spectral_norm(series - direct), j + 1)
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
    tol: float = DEFAULT_TOL,
) -> GapSeries:
    """Series form of the parameter-covariance gap (node i minus centralized).

    Reconstructs P_i^(L) - P at the anchor slot as the geometric series of
    one-period gap propagations, each slot injecting the information
    mismatch A P+_i (S - S_i) P+ A', and compares it against the direct
    difference of the two solved steady solutions.
    """
    P, S, _, (gain, loops, _) = _series_parts(model, weights, L, i, tol)
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
    tol: float = DEFAULT_TOL,
) -> GapSeries:
    """Series form of the error-vs-parameter covariance gap at node i.

    Reconstructs the steady difference between the node's true error
    covariance and its parameter covariance from the noise mismatch
    A P+_i (S2_i - S_i) P+_i A' propagated through the closed loop.
    """
    P, S, S2, (gain, loops, noise) = _series_parts(model, weights, L, i, tol)
    err = dple_spps(loops[:, 0], noise[:, 0], tol=min(tol, 1e-11))

    def mid(t):
        return gain[t, 0] @ (S2[t, 0] - S[t, 0]) @ gain[t, 0].T

    direct = err.at(anchor) - P[anchor % model.period, 0]
    return _series(loops, anchor, mid, (0, 0), direct, truncation)


def average_performance(solution: SppsSolution) -> float:
    """Mean trace over one period of a steady solution."""
    return float(np.mean([np.trace(P) for P in solution.P]))


def _decay_rate(perf_L: float, perf_next: float, central: float) -> float:
    """(perf(L+1) - central) / (perf(L) - central), or NaN when the
    denominator sits at the numerical floor."""
    den = perf_L - central
    return (perf_next - central) / den if abs(den) > RATE_FLOOR else math.nan


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

    Each swept L also solves L + 1, the numerator of its decay rate. The N
    nodes of one L are solved in information form as one stack, and
    observability is decided once per distinct support mask.
    """
    L_values = sorted(set(int(L) for L in L_values))
    if not L_values:
        raise ValidationError("the gap report needs at least one L value")
    central = centralized_dpre(model, tol=tol)
    central_avg = average_performance(central)
    central_P = np.stack(central.P)[:, None]
    needed_L = sorted(set(L_values) | {L + 1 for L in L_values})

    own, verdicts = _sensor_information(model)[1], {}
    solved = {}
    for L in needed_L:
        (P, *_), (X, *_) = _fused_solve(model, weights, L, own, verdicts, tol)
        solved[L] = (
            np.linalg.norm(P - central_P, 2, axis=(2, 3)).max(axis=0),
            np.linalg.norm(X - central_P, 2, axis=(2, 3)).max(axis=0),
            np.trace(X, axis1=2, axis2=3).mean(axis=0),
        )

    cells = []
    for i in range(model.N):
        previous = None
        for L in L_values:
            gap_ric, gap_cov, perf = (float(v[i]) for v in solved[L])
            rate = _decay_rate(perf, float(solved[L + 1][2][i]), central_avg)
            if previous is not None and gap_cov > previous[1] + 1e-8:
                logger.warning(
                    "gap at sensor %d grew from L=%d to L=%d (%.3e -> %.3e); "
                    "only the exponential envelope is guaranteed",
                    i, previous[0], L, previous[1], gap_cov,
                )
            previous = (L, gap_cov)
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
