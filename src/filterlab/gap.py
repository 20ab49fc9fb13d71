"""Steady-state performance of the consensus filter, its gap to the
centralized filter, series-form verifications of that gap, and fitted decay
rates against the network's spectral gap."""

import hashlib
import json
import logging
import math
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from ._artifacts import write_csv, write_json
from ._linalg import spectral_norm, sym, sym_spectral_norm
from .errors import NumericalError, ValidationError
from .network import ConsensusWeights, SensorGraph, second_largest_eigenvalue, weight_power
from .network import check_fusion_steps
from .periodic import PeriodicSequence, PlantModel
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
# Solver tolerance of the steady solutions the series forms are checked against.
SERIES_TOL = 1e-11
# A gap, or its growth, within this many solver tolerances of the centralized
# value, relative to it, is below what the solves resolve (``_resolution``).
RATE_RESOLUTION = 100


def _sensor_information(plant: PlantModel) -> tuple[np.ndarray, np.ndarray]:
    """Per period slot t: R_j^{-1} C_j stacked over sensors, (T, m, n), and
    C_j' R_j^{-1} C_j, (T, N, n, n); each sensor's T slots solve as one stack."""
    T, n = plant.period, plant.n
    gain = np.empty((T, plant.m, n))
    own = np.empty((T, plant.N, n, n))
    for j, sl in enumerate(plant.observation_slices()):
        C = plant.C[j].with_period(T).stack
        gain[:, sl] = np.linalg.solve(plant.R[j].with_period(T).stack, C)
        own[:, j] = C.swapaxes(1, 2) @ gain[:, sl]
    return gain, own


def _fused_information(fusion: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Per slot and fusing node i, (T, rows, n, n), the fused information
    S_i = sum_j fusion_ij C_j' R_j^{-1} C_j; ``own`` is the second table of
    ``_sensor_information``. With ``fusion**2`` it is S2_i, the information
    of the noise that fusion injects."""
    return sym(np.einsum("ij,tjab->tiab", fusion, own))


def centralized_dpre(model: PlantModel, tol: float = DEFAULT_TOL) -> SppsSolution:
    """Steady covariance of the centralized filter over the whole network:
    the information-form Riccati equation of the fusion row 1', which fuses
    every sensor's C_j' R_j^{-1} C_j."""
    S = _fused_information(np.ones((1, model.N)), _sensor_information(model)[1])
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


def _fusion_matrix(model, weights, L, verdicts):
    """The fusion weights of every node at depth L, (N, N): node i fuses
    sensor j with weight N (W^L)_ij on its support, the sensors an L-step
    path reaches.

    A node with an empty support, or one that is not uniformly observable,
    has no steady covariance and raises ValidationError.
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
    return np.where(mask, model.N * power, 0.0)


def _fused_solve(model, weights, L_values, tol):
    """Steady parameter and true error covariances of all N nodes at every
    fusion depth in ``L_values``: yields (L, riccati, lyapunov) per depth, in
    order, each the ``_iterate_to_period`` result of that depth's N cells.

    The Riccati recursions of all depths iterate as one stack of
    len(L_values) * N cells, each cell stopping on its own sweep. The closed
    loops and the Lyapunov recursion are formed one depth at a time, so only
    the Riccati slots and the fused information S are held at full stack
    size.
    """
    verdicts = {}
    fusions = [_fusion_matrix(model, weights, L, verdicts) for L in L_values]
    own, N = _sensor_information(model)[1], model.N
    S = np.empty((model.period, len(fusions) * N) + own.shape[2:])
    for d, fusion in enumerate(fusions):
        S[:, d * N : (d + 1) * N] = _fused_information(fusion, own)
    slots, sweeps, residual = _information_riccati(model.A, model.Q, S, tol, None)
    for d, (L, fusion) in enumerate(zip(L_values, fusions)):
        cells = slice(d * N, (d + 1) * N)
        S2 = _fused_information(fusion**2, own)
        _, loops, noise = _closed_loops(model.A, model.Q, slots[:, cells], S[:, cells], S2)
        lyapunov = _lyapunov_stack(loops, noise, tol, None)
        yield L, (slots[:, cells], sweeps[cells], residual[cells]), lyapunov


def cmdf_spps(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    tol: float = DEFAULT_TOL,
) -> list[tuple[SppsSolution, SppsSolution]]:
    """Steady covariances of every node's consensus filter at fusion depth L,
    the one-depth case of the report's stacked solve.

    Entry i is node i's (P, X): P solves the Riccati equation in information
    form with the node's fused measurement information, the limit of the
    covariance recursion the node iterates; X solves the Lyapunov equation
    of P's closed loop, driven by the noise the node's fusion weights inject,
    and is the node's true steady error covariance.
    """
    [(_, P, X)] = _fused_solve(model, weights, [L], tol)
    return [(_cell_solution(P, i), _cell_solution(X, i)) for i in range(model.N)]


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
    fusion = np.stack([model.N * power[i], np.ones(model.N)])
    own = _sensor_information(model)[1]
    S, S2 = _fused_information(fusion, own), _fused_information(fusion**2, own)
    P = _information_riccati(model.A, model.Q, S, SERIES_TOL, None)[0]
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


def average_performance(solution: SppsSolution) -> float:
    """Mean trace over one period of a steady solution."""
    return float(np.mean([np.trace(P) for P in solution.P]))


def _resolution(central: float, tol: float) -> float:
    """The smallest difference from ``central`` that solves to ``tol`` resolve."""
    return RATE_RESOLUTION * tol * abs(central)


def _decay_rate(perf_L: float, perf_next: float, central: float, tol: float) -> float:
    """(perf(L+1) - central) / (perf(L) - central), or NaN when the
    denominator is below the ``_resolution``."""
    den = perf_L - central
    return (perf_next - central) / den if abs(den) > _resolution(central, tol) else math.nan


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
        """One row per cell: its fields, then sigma2."""
        header = ["sensor", "L", "gap_ric", "gap_cov", "avg_perf", "rate", "sigma2"]
        write_csv(path, header, (astuple(c) + (self.sigma2,) for c in self.cells))

    def rates_to_csv(self, path) -> None:
        """The decay-rate table: one row per cell, blank where the rate is NaN."""
        rows = ((c.sensor, c.L, c.rate, self.sigma2) for c in self.cells)
        write_csv(path, ["sensor", "L", "rate_q", "sigma2"], rows)

    def to_json(self, path) -> None:
        data = {
            "sigma2": self.sigma2,
            "centralized_avg": self.centralized_avg,
            "metadata": self.metadata,
            "cells": [
                {**asdict(c), "rate": None if math.isnan(c.rate) else c.rate}
                for c in self.cells
            ],
        }
        write_json(path, data)


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

    Each swept L also solves L + 1, the numerator of its decay rate. The
    Riccati recursions of every needed L are solved in information form as
    one stack, the Lyapunov recursion one L at a time (``_fused_solve``), and
    each L's covariances are reduced to its cells' numbers as they arrive.
    Observability is decided once per distinct support mask.
    """
    L_values = sorted(check_fusion_steps(L_values))
    if not L_values:
        raise ValidationError("the gap report needs at least one L value")
    central = centralized_dpre(model, tol=tol)
    central_avg = average_performance(central)
    central_P = np.stack(central.P)[:, None]
    needed_L = sorted(set(L_values) | {L + 1 for L in L_values})

    solved = {}
    for L, (P, *_), (X, *_) in _fused_solve(model, weights, needed_L, tol):
        solved[L] = (
            sym_spectral_norm(P - central_P).max(axis=0),
            sym_spectral_norm(X - central_P).max(axis=0),
            np.trace(X, axis1=2, axis2=3).mean(axis=0),
        )

    cells = []
    for i in range(model.N):
        previous = None
        for L in L_values:
            gap_ric, gap_cov, perf = (float(v[i]) for v in solved[L])
            rate = _decay_rate(perf, float(solved[L + 1][2][i]), central_avg, tol)
            if previous is not None and gap_cov - previous[1] > _resolution(central_avg, tol):
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
