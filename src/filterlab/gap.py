"""Steady-state performance of the consensus filter, its gap to the
centralized filter, and fitted decay rates against the network's spectral
gap."""

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ._artifacts import write_csv, write_json
from ._linalg import max_sym_spectral_norm, sym
from .errors import ValidationError
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
    uniform_observability,
)

logger = logging.getLogger("filterlab.gap")

# A gap, or its growth, within this many solver tolerances of the centralized
# value, relative to it, is below what the solves resolve (``_resolution``).
RATE_RESOLUTION = 100


def _sensor_information(plant: PlantModel):
    """Where each sensor measures and what it adds, decided here alone.
    Sensor j measures at period slot t where C_j is nonzero; a slot where
    none does is silent. Returns, over the S sensors that measure in some
    slot and their m' measurement columns: whether sensor j is one, (N,);
    whether it measures at slot t, (T, S); the map of the m' columns to
    C_j' R_j^{-1} y_j, (T, S, n, m'); and C_j' R_j^{-1} C_j, (T, S, n, n)."""
    T, n = plant.period, plant.n
    active = np.stack([C.stack.any(axis=(1, 2)) for C in plant.C], axis=1)
    sensors = active.any(axis=0)
    measuring, slices = np.flatnonzero(sensors), plant.observation_slices()
    to_info = np.zeros((T, measuring.size, n, plant.m))
    own = np.empty((T, measuring.size, n, n))
    for s, j in enumerate(measuring):
        C = plant.C[j].stack
        gain = np.linalg.solve(plant.R[j].stack, C)
        to_info[:, s, :, slices[j]] = gain.swapaxes(1, 2)
        own[:, s] = C.swapaxes(1, 2) @ gain
    return sensors, active[:, sensors], to_info[..., np.repeat(sensors, plant.sensor_dims)], own


def _fused_information(fusion: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Per slot and fusing node i, (T, rows, n, n), the fused information
    S_i = sum_j fusion_ij C_j' R_j^{-1} C_j; ``own`` is the last table of
    ``_sensor_information``, or one slot of it for one slot's (rows, n, n).
    With ``fusion**2`` it is S2_i, the information of the noise that fusion
    injects."""
    return sym(np.einsum("ij,...jab->...iab", fusion, own))


def centralized_dpre(model: PlantModel, tol: float = DEFAULT_TOL) -> SppsSolution:
    """Steady covariance of the centralized filter over the whole network:
    the information-form Riccati equation of the fusion row 1', which fuses
    every measuring sensor's C_j' R_j^{-1} C_j. A gap report solves the same
    cell as the last of its Riccati stack (``_fused_solve``)."""
    own = _sensor_information(model)[3]
    S = _fused_information(np.ones((1, own.shape[1])), own)
    return _cell_solution(_information_riccati(model.A, model.Q, S, tol))


def centralized_solver(model: PlantModel, central: SppsSolution) -> dict:
    """The diagnostics of a centralized solve: the period slots where no
    sensor measures, solved as pure prediction, and its sweeps and relative
    residual. A gap report's ``solver`` adds its per-L entries to these."""
    return {
        "silent_slots": int(np.count_nonzero(~_sensor_information(model)[1].any(axis=1))),
        "centralized": {
            "riccati_sweeps": central.iterations,
            "riccati_residual": central.residual,
        },
    }


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
    sensor j with weight N (W^L)_ij, as L consensus rounds of W and the
    filter pass (``harness._filter_runs``) do.

    The support mask of ``weight_power``, the sensors an L-step path
    reaches, only gates: a node whose support is empty or not uniformly
    observable has no steady covariance and raises ValidationError.
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
    return model.N * power


def _fused_solve(model, weights, L_values, tol, reduce):
    """Steady parameter and true error covariances of all N nodes at every
    fusion depth in ``L_values``, and of the centralized filter.

    The Riccati recursions iterate as one stack of len(L_values) * N + 1
    cells: the nodes depth by depth, then the centralized filter as the
    fusion row 1'. Each cell stops on its own sweep. ``reduce`` takes that
    ``_iterate_to_period`` result and returns what the caller keeps of it,
    holding no view of its slots, whose memory is then reused. The closed
    loops and their noise are formed one depth at a time into the memory of
    the fused information S and of the Riccati slots, and the Lyapunov
    recursions of all node cells iterate as one stack. So at most three
    arrays are held at full stack size: S and the Riccati slots, then the
    loops, the noise and the Lyapunov slots.

    Returns (reduce(riccati), lyapunov), lyapunov the ``_iterate_to_period``
    result of the len(L_values) * N node cells.
    """
    verdicts = {}
    N = model.N
    sensors, _, _, own = _sensor_information(model)
    fusions = [_fusion_matrix(model, weights, L, verdicts)[:, sensors] for L in L_values]
    nodes = len(fusions) * N
    S = np.empty((model.period, nodes + 1) + own.shape[2:])
    for d, fusion in enumerate(fusions):
        S[:, d * N : (d + 1) * N] = _fused_information(fusion, own)
    S[:, nodes:] = _fused_information(np.ones((1, own.shape[1])), own)
    riccati = _information_riccati(model.A, model.Q, S, tol)
    kept, P = reduce(riccati), riccati[0]
    for d, fusion in enumerate(fusions):
        cells = slice(d * N, (d + 1) * N)
        S2 = _fused_information(fusion**2, own)
        # The loops and noise take the place of the S and P they come from.
        _, S[:, cells], P[:, cells] = _closed_loops(
            model.A, model.Q, P[:, cells], S[:, cells], S2
        )
    return kept, _lyapunov_stack(S[:, :nodes], P[:, :nodes], tol)


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
    nodes = range(model.N)
    P, X = _fused_solve(
        model, weights, [L], tol, lambda riccati: [_cell_solution(riccati, i) for i in nodes]
    )
    return [(P[i], _cell_solution(X, i)) for i in nodes]


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
    """Gap summaries for a sweep of sensors and fusion depths.

    ``solver`` holds the diagnostics of the solves behind the report; no
    data file holds it.
    """

    cells: list[GapCell]
    sigma2: float
    centralized_avg: float
    metadata: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)

    def __post_init__(self):
        self._index = {(c.sensor, c.L): c for c in self.cells}

    def cell(self, sensor: int, L: int) -> GapCell:
        return self._index[sensor, L]

    def to_csv(self, path) -> None:
        """One row per cell: its fields, then sigma2."""
        header = ["sensor", "L", "gap_ric", "gap_cov", "avg_perf", "rate", "sigma2"]
        rows = [(*vars(c).values(), self.sigma2) for c in self.cells]
        write_csv(path, header, [zip(*rows)])

    def rates_to_csv(self, path) -> None:
        """The decay-rate table: one row per cell, blank where the rate is NaN."""
        rows = [(c.sensor, c.L, c.rate, self.sigma2) for c in self.cells]
        write_csv(path, ["sensor", "L", "rate_q", "sigma2"], [zip(*rows)])

    def to_json(self, path) -> None:
        data = {
            "sigma2": self.sigma2,
            "centralized_avg": self.centralized_avg,
            "metadata": self.metadata,
            "cells": [
                {**vars(c), "rate": None if math.isnan(c.rate) else c.rate}
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
    Riccati recursions of every needed L and of the centralized filter are
    solved in information form as one stack, and the Lyapunov recursions of
    every needed L as another (``_fused_solve``); the Riccati slots are
    reduced to the cells' numbers before the Lyapunov slots take their
    memory. A gap's maximum over the period eigen-solves only the slots
    that can hold it (``max_sym_spectral_norm``). Observability is decided
    once per distinct support mask. The report's ``solver`` holds the worst
    sweep count and relative residual of each needed L's Riccati and
    Lyapunov cells, the centralized cell's, and ``silent_slots``: the number
    of period slots where no sensor measures, which the Riccati stack takes
    as pure prediction steps and whose closed loops are the plant's own.
    """
    L_values = sorted(check_fusion_steps(L_values))
    if not L_values:
        raise ValidationError("the gap report needs at least one L value")
    needed_L = sorted(set(L_values) | {L + 1 for L in L_values})

    def reduce(riccati):
        P, sweeps, residual = riccati
        gaps = max_sym_spectral_norm(P[:, :-1] - P[:, -1:])
        return _cell_solution(riccati, -1), gaps, sweeps[:-1], residual[:-1]

    (central, ric_gaps, *ric_stats), (X, *X_stats) = _fused_solve(
        model, weights, needed_L, tol, reduce
    )
    central_avg = average_performance(central)
    cov_gaps = max_sym_spectral_norm(X - np.stack(central.P)[:, None])
    perfs = np.trace(X, axis1=2, axis2=3).mean(axis=0)

    def by_L(values):
        """Per needed L, its N cells' values."""
        return values.reshape(len(needed_L), model.N)

    solved = dict(zip(needed_L, zip(*map(by_L, (ric_gaps, cov_gaps, perfs)))))
    solver = {
        **centralized_solver(model, central),
        "L": [
            {
                "L": L,
                "riccati_sweeps": int(rs.max()),
                "riccati_residual": float(rr.max()),
                "lyapunov_sweeps": int(ls.max()),
                "lyapunov_residual": float(lr.max()),
            }
            for L, rs, rr, ls, lr in zip(needed_L, *map(by_L, ric_stats + X_stats))
        ],
    }

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

    # Gaps are printed to 17 digits but resolved only to this.
    metadata = {"tol": tol, "resolution": _resolution(central_avg, tol)}
    if seed is not None:
        metadata["seed"] = seed
    if graph is not None:
        metadata["graph_hash"] = graph_fingerprint(graph)
    return GapReport(
        cells=cells,
        sigma2=second_largest_eigenvalue(weights),
        centralized_avg=central_avg,
        metadata=metadata,
        solver=solver,
    )
