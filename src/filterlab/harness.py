"""Monte Carlo experiment engine: run trials of the configured filters over a
scenario, accumulate empirical mean-square errors, and set them against the
theoretical covariance curves.

The per-node covariances and gains of all three filters are data-independent,
so each (filter, L) run precomputes its gain schedule once and then advances
all trials' estimates together with batched affine updates. Empirical MSE is
computed on the one-step-ahead (predicted) estimates, matching the error
covariance recursions the theory curves iterate.
"""

import csv
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ._linalg import spd_inverse, sym
from .errors import NumericalError, ValidationError
from . import gap as gap_mod
from .network import (
    ConsensusWeights,
    SensorGraph,
    diameter,
    is_strongly_connected,
    metropolis_weights,
    second_largest_eigenvalue,
)
from .periodic import PlantModel, benchmark_plant, simulate_trajectory
from .network import random_geometric_graph
from .spps import DEFAULT_TOL

KNOWN_FILTERS = ("ckf", "cmdf", "cidf")
DIVERGENCE_NORM = 1e9
DEFAULT_SEED = 7
DEFAULT_GRAPH_SEED = 12


@dataclass
class Scenario:
    """Everything one experiment needs: plant, network, sweep, and budgets."""

    plant: PlantModel
    graph: SensorGraph
    weights: ConsensusWeights
    L_values: tuple
    horizon: int
    trials: int
    seed: int
    filters: tuple = ("ckf", "cmdf")
    noise_scale: float = 1.0
    x0: np.ndarray | None = None
    steady_window: int | None = None

    def __post_init__(self):
        self.L_values = tuple(int(L) for L in self.L_values)
        self.filters = tuple(self.filters)
        if self.steady_window is None:
            self.steady_window = self.plant.period
        unknown = set(self.filters) - set(KNOWN_FILTERS)
        if unknown:
            raise ValidationError(f"unknown filters {sorted(unknown)}")
        if not self.filters:
            raise ValidationError("at least one filter must be configured")
        if self.graph.n_nodes != self.plant.N:
            raise ValidationError("graph size does not match the sensor count")
        if not is_strongly_connected(self.graph):
            raise ValidationError("scenario graph must be connected")
        if not self.weights.consistent_with(self.graph):
            raise ValidationError("weights are not supported by the graph")
        if any(L < 0 for L in self.L_values):
            raise ValidationError("fusion steps must be >= 0")
        needs_L = {"cmdf", "cidf"} & set(self.filters)
        if needs_L and not self.L_values:
            raise ValidationError("consensus filters need at least one L value")
        if self.horizon < 2 * self.plant.period:
            raise ValidationError(
                "horizon must cover at least two periods so a steady window exists"
            )
        if not (1 <= self.steady_window <= self.horizon):
            raise ValidationError("steady_window must lie within the horizon")
        if self.trials < 1:
            raise ValidationError("need at least one trial")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
            if self.x0.shape != (self.plant.n,):
                raise ValidationError(f"x0 must have shape ({self.plant.n},)")


@dataclass
class FilterRun:
    """Empirical and theoretical MSE curves for one (filter, L) combination.

    Row axis is the node (a single row for the centralized filter); the step
    axis covers k = 1..horizon.
    """

    name: str
    fusion_steps: int | None
    mse_per_step: np.ndarray
    step_se: np.ndarray
    mse_steady: np.ndarray
    steady_se: np.ndarray
    theory_per_step: np.ndarray | None
    theory_steady: np.ndarray | None = None
    diverged: tuple = ()

    @property
    def label(self) -> str:
        if self.fusion_steps is None:
            return self.name
        return f"{self.name}_L{self.fusion_steps}"


@dataclass
class TrialResults:
    """All runs of one scenario plus the network diagnostics they share.

    ``gap_report`` holds the steady theory of the scenario's sweep when it
    was solved; the steady theory of every run is read from it.
    """

    horizon: int
    trials: int
    period: int
    seed: int
    sigma2: float
    graph_diameter: int
    centralized_avg: float | None
    runs: list = field(default_factory=list)
    runtime_seconds: float = 0.0
    gap_report: gap_mod.GapReport | None = None

    def run(self, name: str, L: int | None = None) -> FilterRun:
        for r in self.runs:
            if r.name == name and r.fusion_steps == L:
                return r
        raise KeyError((name, L))


def _period_tables(plant: PlantModel, weights: ConsensusWeights | None, L: int | None):
    """Per-period-slot information blocks shared by schedules.

    own[i][kmod] = C' R^{-1} C, rinv_c[i][kmod] = R^{-1} C for sensor i.
    When (weights, L) is given, also the L-step fused scaled info sums
    fused[kmod][i] and their squared-weight variants fused_sq[kmod][i].
    """
    T, N = plant.period, plant.N
    rinv_c = [[None] * T for _ in range(N)]
    own = [[None] * T for _ in range(N)]
    for i in range(N):
        for k in range(T):
            C = plant.C[i].at(k)
            G = np.linalg.solve(plant.R[i].at(k), C)
            rinv_c[i][k] = G
            own[i][k] = C.T @ G
    fused = fused_sq = None
    if weights is not None:
        Wp = np.linalg.matrix_power(weights.matrix, L)
        fused = [
            [
                sym(sum(N * Wp[i, j] * own[j][k] for j in range(N)))
                for i in range(N)
            ]
            for k in range(T)
        ]
        fused_sq = [
            [
                sym(sum((N * Wp[i, j]) ** 2 * own[j][k] for j in range(N)))
                for i in range(N)
            ]
            for k in range(T)
        ]
    return own, rinv_c, fused, fused_sq


def _initial_error_cov(plant: PlantModel, x0: np.ndarray | None) -> np.ndarray:
    # Estimates start at zero, the true state at the deterministic x0.
    e0 = np.zeros(plant.n) if x0 is None else x0
    return np.outer(e0, e0)


def _cmdf_schedule(plant, weights, L, K, x0, noise_scale):
    """Gain maps and exact theory covariance traces for the consensus filter."""
    T, N, n = plant.period, plant.N, plant.n
    _, rinv_c, fused, fused_sq = _period_tables(plant, weights, L)
    M = np.empty((K + 1, N, n, n))
    Ppost = np.empty((K + 1, N, n, n))
    theory = np.empty((N, K))
    scale2 = noise_scale**2
    post = [np.eye(n) for _ in range(N)]
    X = [_initial_error_cov(plant, x0) for _ in range(N)]
    for k in range(1, K + 1):
        A, Q = plant.A.at(k - 1), plant.Q.at(k - 1)
        km = k % T
        for i in range(N):
            Pprior = sym(A @ post[i] @ A.T + Q)
            Pinv = spd_inverse(Pprior, what="predicted covariance")
            post_i = spd_inverse(Pinv + fused[km][i], what="posterior information")
            M[k, i] = post_i @ Pinv
            Ppost[k, i] = post_i
            post[i] = post_i
            Xp = sym(A @ X[i] @ A.T + scale2 * Q)
            theory[i, k - 1] = np.trace(Xp)
            X[i] = sym(
                M[k, i] @ Xp @ M[k, i].T
                + scale2 * post_i @ fused_sq[km][i] @ post_i
            )
    return M, Ppost, theory


def _ckf_schedule(plant, K, x0, noise_scale):
    T, n = plant.period, plant.n
    own, _, _, _ = _period_tables(plant, None, None)
    total = [sym(sum(own[i][k] for i in range(plant.N))) for k in range(T)]
    M = np.empty((K + 1, n, n))
    Ppost = np.empty((K + 1, n, n))
    theory = np.empty((1, K))
    scale2 = noise_scale**2
    post = np.eye(n)
    X = _initial_error_cov(plant, x0)
    for k in range(1, K + 1):
        A, Q = plant.A.at(k - 1), plant.Q.at(k - 1)
        km = k % T
        Pprior = sym(A @ post @ A.T + Q)
        Pinv = spd_inverse(Pprior, what="predicted covariance")
        post = spd_inverse(Pinv + total[km], what="posterior information")
        M[k] = post @ Pinv
        Ppost[k] = post
        Xp = sym(A @ X @ A.T + scale2 * Q)
        theory[0, k - 1] = np.trace(Xp)
        X = sym(M[k] @ Xp @ M[k].T + scale2 * post @ total[km] @ post)
    return M, Ppost, theory


def _cidf_schedule(plant, weights, L, K):
    T, N, n = plant.period, plant.N, plant.n
    own, _, _, _ = _period_tables(plant, None, None)
    Wp = np.linalg.matrix_power(weights.matrix, L)
    Pinv_arr = np.empty((K + 1, N, n, n))
    Ppost = np.empty((K + 1, N, n, n))
    post = [np.eye(n) for _ in range(N)]
    for k in range(1, K + 1):
        A, Q = plant.A.at(k - 1), plant.Q.at(k - 1)
        km = k % T
        omegas = []
        for i in range(N):
            Pprior = sym(A @ post[i] @ A.T + Q)
            Pinv = spd_inverse(Pprior, what="predicted covariance")
            Pinv_arr[k, i] = Pinv
            omegas.append(Pinv + own[i][km])
        for i in range(N):
            mixed = sym(sum(Wp[i, j] * omegas[j] for j in range(N)))
            post[i] = spd_inverse(mixed, what="mixed information matrix")
            Ppost[k, i] = post[i]
    return Pinv_arr, Ppost


def _reduce(sq, window):
    """Per-step and steady-window means with standard errors, masking
    diverged trials (rows of NaN)."""
    nodes, h, K = sq.shape
    bad = ~np.isfinite(sq).all(axis=(0, 2))
    valid = ~bad
    nv = int(valid.sum())
    if nv == 0:
        raise NumericalError("every trial diverged")
    good = sq[:, valid, :]
    mse_step = good.mean(axis=1)
    step_se = good.std(axis=1, ddof=1) / math.sqrt(nv) if nv > 1 else np.zeros((nodes, K))
    per_trial = good[:, :, K - window :].mean(axis=2)
    mse_steady = per_trial.mean(axis=1)
    steady_se = (
        per_trial.std(axis=1, ddof=1) / math.sqrt(nv) if nv > 1 else np.zeros(nodes)
    )
    return mse_step, step_se, mse_steady, steady_se, tuple(np.nonzero(bad)[0].tolist())


def _mark_divergence(sq, step_idx, xhat):
    bad = (~np.isfinite(xhat).all(axis=(0, 2))) | (
        np.abs(xhat).max(axis=(0, 2)) > DIVERGENCE_NORM
    )
    if bad.any():
        sq[:, bad, step_idx:] = np.nan
        xhat[:, bad, :] = 0.0
    return bad


def _run_cmdf(scenario, X, Ys, with_theory):
    plant, W = scenario.plant, scenario.weights.matrix
    K, h = scenario.horizon, scenario.trials
    N, n = plant.N, plant.n
    runs = []
    for L in scenario.L_values:
        M, Ppost, theory = _cmdf_schedule(
            plant, scenario.weights, L, K, scenario.x0, scenario.noise_scale
        )
        _, rinv_c, _, _ = _period_tables(plant, None, None)
        xhat = np.zeros((N, h, n))
        sq = np.empty((N, h, K))
        for k in range(1, K + 1):
            A = plant.A.at(k - 1)
            xhat = xhat @ A.T
            err = xhat - X[:, k, :][None]
            sq[:, :, k - 1] = np.einsum("ihn,ihn->ih", err, err)
            info = np.empty((N, h, n))
            km = k % plant.period
            for i in range(N):
                info[i] = Ys[i][:, k, :] @ (N * rinv_c[i][km])
            for _ in range(L):
                info = np.tensordot(W, info, axes=(1, 0))
            for i in range(N):
                xhat[i] = xhat[i] @ M[k, i].T + info[i] @ Ppost[k, i].T
            _mark_divergence(sq, k - 1, xhat)
        stats = _reduce(sq, scenario.steady_window)
        runs.append(
            FilterRun(
                name="cmdf",
                fusion_steps=L,
                mse_per_step=stats[0],
                step_se=stats[1],
                mse_steady=stats[2],
                steady_se=stats[3],
                theory_per_step=theory if with_theory else None,
                diverged=stats[4],
            )
        )
    return runs


def _run_ckf(scenario, X, Ys, with_theory):
    plant = scenario.plant
    K, h = scenario.horizon, scenario.trials
    n = plant.n
    M, Ppost, theory = _ckf_schedule(plant, K, scenario.x0, scenario.noise_scale)
    _, rinv_c, _, _ = _period_tables(plant, None, None)
    xhat = np.zeros((1, h, n))
    sq = np.empty((1, h, K))
    for k in range(1, K + 1):
        A = plant.A.at(k - 1)
        xhat = xhat @ A.T
        err = xhat - X[:, k, :][None]
        sq[:, :, k - 1] = np.einsum("ihn,ihn->ih", err, err)
        km = k % plant.period
        info = np.zeros((h, n))
        for i in range(plant.N):
            info += Ys[i][:, k, :] @ rinv_c[i][km]
        xhat[0] = xhat[0] @ M[k].T + info @ Ppost[k].T
        _mark_divergence(sq, k - 1, xhat)
    stats = _reduce(sq, scenario.steady_window)
    return [
        FilterRun(
            name="ckf",
            fusion_steps=None,
            mse_per_step=stats[0],
            step_se=stats[1],
            mse_steady=stats[2],
            steady_se=stats[3],
            theory_per_step=theory if with_theory else None,
            diverged=stats[4],
        )
    ]


def _run_cidf(scenario, X, Ys):
    plant, W = scenario.plant, scenario.weights.matrix
    K, h = scenario.horizon, scenario.trials
    N, n = plant.N, plant.n
    runs = []
    _, rinv_c, _, _ = _period_tables(plant, None, None)
    for L in scenario.L_values:
        Pinv_arr, Ppost = _cidf_schedule(plant, scenario.weights, L, K)
        xhat = np.zeros((N, h, n))
        sq = np.empty((N, h, K))
        for k in range(1, K + 1):
            A = plant.A.at(k - 1)
            xhat = xhat @ A.T
            err = xhat - X[:, k, :][None]
            sq[:, :, k - 1] = np.einsum("ihn,ihn->ih", err, err)
            km = k % plant.period
            q = np.empty((N, h, n))
            for i in range(N):
                q[i] = xhat[i] @ Pinv_arr[k, i].T + Ys[i][:, k, :] @ rinv_c[i][km]
            for _ in range(L):
                q = np.tensordot(W, q, axes=(1, 0))
            for i in range(N):
                xhat[i] = q[i] @ Ppost[k, i].T
            _mark_divergence(sq, k - 1, xhat)
        stats = _reduce(sq, scenario.steady_window)
        runs.append(
            FilterRun(
                name="cidf",
                fusion_steps=L,
                mse_per_step=stats[0],
                step_se=stats[1],
                mse_steady=stats[2],
                steady_se=stats[3],
                theory_per_step=None,
                diverged=stats[4],
            )
        )
    return runs


def run_monte_carlo(
    scenario: Scenario, with_theory: bool = True, tol: float = DEFAULT_TOL
) -> TrialResults:
    """Run every configured filter over independent simulated trials.

    Trial l draws its noise from the l-th spawn of the master seed, so runs
    are reproducible and trials mutually independent. A trial whose estimate
    norm exceeds 1e9 (or goes non-finite) is recorded as diverged and dropped
    from the averages; the run aborts if more than 1% of trials diverge.

    With theory, the steady covariances come from one gap report over the
    scenario's sweep, solved to ``tol``; a scenario without a sweep solves
    only the centralized filter.
    """
    start = time.perf_counter()
    plant = scenario.plant
    K, h = scenario.horizon, scenario.trials
    children = np.random.SeedSequence(scenario.seed).spawn(h)
    X = np.empty((h, K + 1, plant.n))
    Ys = [np.empty((h, K + 1, ni)) for ni in plant.sensor_dims]
    for l, child in enumerate(children):
        traj = simulate_trajectory(
            plant, K, child, x0=scenario.x0, noise_scale=scenario.noise_scale
        )
        X[l] = traj.states
        for i in range(plant.N):
            Ys[i][l] = traj.measurements[i]

    runs = []
    for name in scenario.filters:
        if name == "ckf":
            runs.extend(_run_ckf(scenario, X, Ys, with_theory))
        elif name == "cmdf":
            runs.extend(_run_cmdf(scenario, X, Ys, with_theory))
        elif name == "cidf":
            runs.extend(_run_cidf(scenario, X, Ys))
    for r in runs:
        if len(r.diverged) > 0.01 * h:
            raise NumericalError(
                f"{r.label}: {len(r.diverged)} of {h} trials diverged "
                f"(ids {list(r.diverged)[:10]}...)"
            )

    report = central_avg = None
    if with_theory:
        scale2 = scenario.noise_scale**2
        if scenario.L_values:
            report = gap_mod.build_gap_report(
                plant,
                scenario.weights,
                scenario.L_values,
                tol=tol,
                graph=scenario.graph,
                seed=scenario.seed,
            )
            central_avg = scale2 * report.centralized_avg
        else:
            central_avg = scale2 * gap_mod.average_performance(
                gap_mod.centralized_dpre(plant, tol=tol)
            )
        for r in runs:
            if r.name == "ckf":
                r.theory_steady = np.array([central_avg])
            elif r.name == "cmdf":
                r.theory_steady = np.array(
                    [
                        scale2 * report.cell(i, r.fusion_steps).avg_perf
                        for i in range(plant.N)
                    ]
                )
    return TrialResults(
        horizon=K,
        trials=h,
        period=plant.period,
        seed=scenario.seed,
        sigma2=second_largest_eigenvalue(scenario.weights),
        graph_diameter=diameter(scenario.graph),
        centralized_avg=central_avg,
        runs=runs,
        runtime_seconds=time.perf_counter() - start,
        gap_report=report,
    )


@dataclass
class CidfComparison:
    """Steady MSE of the consensus filter against the information baseline.

    ``crossover[i]`` is the smallest L in the sweep from which the
    consensus-on-measurement filter dominates at sensor i for every larger
    swept L (None if it never does).
    """

    rows: list
    crossover: dict
    results: TrialResults

    @classmethod
    def from_results(cls, results: TrialResults) -> "CidfComparison":
        """Per (sensor, L) rows, in sweep order, from runs of both filters."""
        mse = {
            r.fusion_steps: (r.mse_steady, results.run("cidf", r.fusion_steps).mse_steady)
            for r in results.runs
            if r.name == "cmdf"
        }
        rows = [
            (i, L, float(mc[i]), float(ic[i]))
            for L, (mc, ic) in mse.items()
            for i in range(len(mc))
        ]
        Ls = sorted(mse)
        crossover = {}
        for i in sorted({row[0] for row in rows}):
            wins = [mse[L][0][i] < mse[L][1][i] for L in Ls]
            crossover[i] = next(
                (L for idx, L in enumerate(Ls) if all(wins[idx:])), None
            )
        return cls(rows=rows, crossover=crossover, results=results)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sensor", "L", "mse_cmdf", "mse_cidf"])
            for sensor, L, a, b in self.rows:
                writer.writerow([sensor, L, f"{a:.17g}", f"{b:.17g}"])


def compare_cidf(scenario: Scenario) -> CidfComparison:
    """Run both consensus filters over the scenario and compare their steady MSE."""
    filters = tuple(dict.fromkeys(scenario.filters + ("cmdf", "cidf")))
    scenario = dataclasses.replace(scenario, filters=filters)
    return CidfComparison.from_results(run_monte_carlo(scenario, with_theory=False))


def _fmt(x) -> str:
    return "" if x is None or (isinstance(x, float) and math.isnan(x)) else f"{x:.17g}"


def export_results(results: TrialResults, out_dir, stem: str = "results") -> list[str]:
    """Write per-step and steady CSVs plus a JSON mirror; returns the paths.

    Column order is fixed and all numbers carry 17 significant digits, so
    identical runs produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    per_step = os.path.join(out_dir, f"{stem}_per_step.csv")
    steady = os.path.join(out_dir, f"{stem}_steady.csv")
    mirror = os.path.join(out_dir, f"{stem}.json")

    with open(per_step, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filter", "sensor", "k", "mse_empirical", "mse_theory"])
        for r in results.runs:
            nodes = r.mse_per_step.shape[0]
            for i in range(nodes):
                sensor = -1 if r.name == "ckf" else i
                for k in range(results.horizon):
                    theory = (
                        r.theory_per_step[i, k]
                        if r.theory_per_step is not None
                        else None
                    )
                    writer.writerow(
                        [r.label, sensor, k + 1, _fmt(r.mse_per_step[i, k]), _fmt(theory)]
                    )

    report = results.gap_report
    with open(steady, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["filter", "sensor", "L", "mse_i", "theory_avg", "rate_q", "sigma2"]
        )
        for r in results.runs:
            nodes = r.mse_steady.shape[0]
            for i in range(nodes):
                sensor = -1 if r.name == "ckf" else i
                rate = None
                if r.name == "cmdf" and report is not None:
                    rate = report.cell(i, r.fusion_steps).rate
                theory = (
                    r.theory_steady[i] if r.theory_steady is not None else None
                )
                writer.writerow(
                    [
                        r.label,
                        sensor,
                        "" if r.fusion_steps is None else r.fusion_steps,
                        _fmt(r.mse_steady[i]),
                        _fmt(theory),
                        _fmt(rate),
                        f"{results.sigma2:.17g}",
                    ]
                )

    payload = {
        "horizon": results.horizon,
        "trials": results.trials,
        "period": results.period,
        "seed": results.seed,
        "sigma2": results.sigma2,
        "graph_diameter": results.graph_diameter,
        "centralized_avg": results.centralized_avg,
        "runs": [
            {
                "filter": r.label,
                "fusion_steps": r.fusion_steps,
                "mse_per_step": r.mse_per_step.tolist(),
                "mse_steady": r.mse_steady.tolist(),
                "steady_se": r.steady_se.tolist(),
                "theory_per_step": (
                    r.theory_per_step.tolist() if r.theory_per_step is not None else None
                ),
                "theory_steady": (
                    r.theory_steady.tolist() if r.theory_steady is not None else None
                ),
                "diverged_trials": list(r.diverged),
            }
            for r in results.runs
        ],
    }
    with open(mirror, "w") as fh:
        json.dump(payload, fh, indent=2)
    return [per_step, steady, mirror]


def scenario_to_dict(scenario: Scenario) -> dict:
    data = {
        "plant": scenario.plant.to_dict(),
        "graph": scenario.graph.to_dict(),
        "weights": scenario.weights.matrix.tolist(),
        "L_values": list(scenario.L_values),
        "horizon": scenario.horizon,
        "trials": scenario.trials,
        "seed": scenario.seed,
        "filters": list(scenario.filters),
    }
    if scenario.noise_scale != 1.0:
        data["noise_scale"] = scenario.noise_scale
    if scenario.x0 is not None:
        data["x0"] = scenario.x0.tolist()
    if scenario.steady_window != scenario.plant.period:
        data["steady_window"] = scenario.steady_window
    return data


def network_from_dict(data: dict) -> tuple[SensorGraph, ConsensusWeights]:
    """The graph and consensus weights of a config's network section."""
    graph = SensorGraph.from_dict(data["graph"])
    weights_cfg = data.get("weights", "metropolis")
    if isinstance(weights_cfg, str):
        if weights_cfg != "metropolis":
            raise ValidationError(
                f"unknown weights rule {weights_cfg!r}; use 'metropolis' or a matrix"
            )
        return graph, metropolis_weights(graph)
    return graph, ConsensusWeights(matrix=np.asarray(weights_cfg, dtype=float))


def scenario_from_dict(data: dict) -> Scenario:
    try:
        plant = PlantModel.from_dict(data["plant"])
        graph, weights = network_from_dict(data)
        return Scenario(
            plant=plant,
            graph=graph,
            weights=weights,
            L_values=tuple(data.get("L_values", ())),
            horizon=int(data["horizon"]),
            trials=int(data["trials"]),
            seed=int(data["seed"]),
            filters=tuple(data.get("filters", ("ckf", "cmdf"))),
            noise_scale=float(data.get("noise_scale", 1.0)),
            x0=data.get("x0"),
            steady_window=data.get("steady_window"),
        )
    except KeyError as exc:
        raise ValidationError(f"scenario config is missing key {exc}") from None


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    return scenario_from_dict(data)


def benchmark_scenario(
    trials: int = 1500,
    horizon: int = 100,
    seed: int = DEFAULT_SEED,
    graph_seed: int = DEFAULT_GRAPH_SEED,
    L_values=None,
    filters: tuple = ("ckf", "cmdf", "cidf"),
) -> Scenario:
    """The bundled 20-sensor benchmark scenario with its default sweep.

    The communication graph is a connected random geometric layout in a
    300 x 300 region with radius 130; the fusion sweep defaults to the nine
    depths starting at the graph diameter.
    """
    plant = benchmark_plant()
    graph = random_geometric_graph(plant.N, 300.0, 130.0, graph_seed)
    if not is_strongly_connected(graph):
        raise ValidationError(
            f"graph seed {graph_seed} gives a disconnected layout; pick another"
        )
    weights = metropolis_weights(graph)
    if L_values is None:
        d = diameter(graph)
        L_values = tuple(range(d, d + 9))
    return Scenario(
        plant=plant,
        graph=graph,
        weights=weights,
        L_values=tuple(L_values),
        horizon=horizon,
        trials=trials,
        seed=seed,
        filters=filters,
    )
