"""Monte Carlo experiment engine: run trials of the configured filters over a
scenario, accumulate empirical mean-square errors, and set them against the
theoretical covariance curves.

All three filters are one information-form filter over a stack of nodes,
told apart by two matrices: ``prior_mix`` mixes the nodes' predicted
information P_j^{-1} x_j and ``fusion`` the sensors' measurement
information C_j' R_j^{-1} y_j. The centralized Kalman filter (CKF) is one
node with ([[1]], 1'), the consensus-on-measurement filter (CMDF) is
(I, N W^L) and the consensus-on-information baseline (CIDF) is (W^L, W^L).
Node i corrects to x_i = P+_i q_i with

    q_i = sum_j prior_mix_ij P_j^{-1} x_j + sum_j fusion_ij C_j' R_j^{-1} y_j.

The covariances are data-independent, so each run is one loop over the
steps: each step advances the covariances of all nodes, batched, and then the
estimates of all trials together.
Empirical MSE is computed on the one-step-ahead (predicted) estimates,
matching the error covariance recursions the theory curves iterate.
"""

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ._artifacts import write_csv, write_json
from ._linalg import spd_inverse, sym
from .errors import NumericalError, ValidationError, config_integer, config_section
from . import gap as gap_mod
from .network import (
    ConsensusWeights,
    SensorGraph,
    diameter,
    is_strongly_connected,
    metropolis_weights,
    second_largest_eigenvalue,
)
from .periodic import PlantModel, benchmark_plant, simulate_trials
from .network import random_geometric_graph, weight_power
from .spps import DEFAULT_TOL

KNOWN_FILTERS = ("ckf", "cmdf", "cidf")
DIVERGENCE_NORM = 1e9
DEFAULT_SEED = 7
DEFAULT_GRAPH_SEED = 12


def check_fusion_steps(L_values) -> tuple[int, ...]:
    """The fusion depths as ints; ValidationError if one is negative or repeats."""
    L_values = tuple(int(L) for L in L_values)
    if any(L < 0 for L in L_values):
        raise ValidationError("fusion steps must be >= 0")
    repeated = sorted({L for L in L_values if L_values.count(L) > 1})
    if repeated:
        raise ValidationError(f"fusion steps repeat {repeated}")
    return L_values


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
        self.L_values = check_fusion_steps(self.L_values)
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
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if not 0 <= self.noise_scale < math.inf:
            raise ValidationError("noise_scale must be a finite number >= 0")
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


def _filter_runs(scenario: Scenario) -> list[tuple]:
    """(name, L, prior_mix, fusion) of every configured run, in run order;
    the module docstring defines the two matrices."""
    N = scenario.plant.N
    powers = {L: weight_power(scenario.weights, L)[0] for L in scenario.L_values}
    runs = []
    for name in scenario.filters:
        if name == "ckf":
            runs.append(("ckf", None, np.ones((1, 1)), np.ones((1, N))))
            continue
        for L, WL in powers.items():
            if name == "cmdf":
                runs.append(("cmdf", L, np.eye(N), N * WL))
            else:
                runs.append(("cidf", L, WL, WL))
    return runs


def _run_filter(plant, prior_mix, fusion, gain, own, X, Y, noise_scale, theory):
    """Squared one-step-ahead errors (rows, trials, K) of one run over the
    states X and measurements Y, plus with ``theory`` the exact
    predicted-error traces (rows, K).

    The covariances are data-independent, so each step first advances every
    node's predicted information P^{-1} and posterior covariance P+, whose
    inverse is sum_j prior_mix_ij P_j^{-1} + sum_j fusion_ij C_j' R_j^{-1} C_j,
    then corrects all trials together. The theory holds for nodes that
    keep their own prior (prior_mix = I): the fused measurement noise then
    adds P+ (sum_j fusion_ij^2 C_j' R_j^{-1} C_j) P+ to the error covariance.
    An identity ``prior_mix`` (CKF, CMDF) is skipped, not multiplied. A
    trial whose estimate has an entry above DIVERGENCE_NORM or NaN at any
    step has its rows set to NaN.
    """
    h, K, n = X.shape[0], X.shape[1] - 1, plant.n
    rows, T = fusion.shape[0], plant.period
    own_prior = np.array_equal(prior_mix, np.eye(rows))
    info = gap_mod._fused_information(fusion, own)
    info_sq = gap_mod._fused_information(fusion**2, own)
    owner = np.repeat(np.arange(plant.N), plant.sensor_dims)
    # fused[t, i] maps the stacked measurement to node i's fused information.
    fused = fusion[:, owner][None, :, :, None] * gain[:, None, :, :]
    post = np.broadcast_to(np.eye(n), (rows, n, n))
    # Estimates start at zero; the simulator starts every trial at x0.
    x0 = X[0, 0]
    E = np.broadcast_to(np.outer(x0, x0), (rows, n, n))
    traces = np.empty((rows, K)) if theory else None
    scale2 = noise_scale**2
    xhat = np.zeros((rows, h, n))
    peak = np.zeros((rows, h, n))
    sq = np.empty((rows, h, K))
    for k in range(1, K + 1):
        A, Q = plant.A.at(k - 1), plant.Q.at(k - 1)
        km = k % T
        Pinv = spd_inverse(A @ post @ A.T + Q, what="predicted covariance")
        prior = Pinv if own_prior else np.tensordot(prior_mix, Pinv, axes=(1, 0))
        post = spd_inverse(prior + info[km], what="posterior information")
        if theory:
            M = post @ Pinv
            Ep = sym(A @ E @ A.T + scale2 * Q)
            traces[:, k - 1] = np.trace(Ep, axis1=1, axis2=2)
            E = sym(M @ Ep @ M.swapaxes(1, 2) + scale2 * post @ info_sq[km] @ post)
        xhat = xhat @ A.T
        err = xhat - X[:, k]
        sq[:, :, k - 1] = np.einsum("ihn,ihn->ih", err, err)
        q = xhat @ Pinv
        if not own_prior:
            q = np.tensordot(prior_mix, q, axes=(1, 0))
        xhat = (q + Y[:, k] @ fused[km]) @ post
        np.maximum(peak, np.abs(xhat), out=peak)
    # NaN fails the comparison too, so non-finite estimates count as diverged.
    sq[:, ~(peak.max(axis=(0, 2)) <= DIVERGENCE_NORM)] = np.nan
    return sq, traces


def _reduce(sq, window):
    """Per-step and steady-window means with standard errors, masking
    diverged trials (rows of NaN)."""
    nodes, h, K = sq.shape
    bad = ~np.isfinite(sq).all(axis=(0, 2))
    valid = ~bad
    nv = int(valid.sum())
    if nv == 0:
        raise NumericalError("every trial diverged")
    good = sq if nv == h else sq[:, valid, :]
    mse_step = good.mean(axis=1)
    step_se = good.std(axis=1, ddof=1) / math.sqrt(nv) if nv > 1 else np.zeros((nodes, K))
    per_trial = good[:, :, K - window :].mean(axis=2)
    mse_steady = per_trial.mean(axis=1)
    steady_se = (
        per_trial.std(axis=1, ddof=1) / math.sqrt(nv) if nv > 1 else np.zeros(nodes)
    )
    return mse_step, step_se, mse_steady, steady_se, tuple(np.nonzero(bad)[0].tolist())


def run_monte_carlo(
    scenario: Scenario, with_theory: bool = True, tol: float = DEFAULT_TOL
) -> TrialResults:
    """Run every configured filter over independent simulated trials.

    Trial l draws its noise from the l-th spawn of the master seed, so runs
    are reproducible and trials mutually independent. A trial whose estimate
    has an entry above 1e9 in magnitude (or NaN) at any step is recorded as
    diverged and dropped from the averages; the run aborts if more than 1% of
    trials diverge.

    With theory, the steady covariances come from one gap report over the
    scenario's sweep, solved to ``tol``; a scenario without a sweep solves
    only the centralized filter.
    """
    start = time.perf_counter()
    plant = scenario.plant
    K, h = scenario.horizon, scenario.trials
    children = np.random.SeedSequence(scenario.seed).spawn(h)
    X, Y = simulate_trials(plant, K, children, scenario.x0, scenario.noise_scale)

    gain, own = gap_mod._sensor_information(plant)
    runs = []
    for name, L, prior_mix, fusion in _filter_runs(scenario):
        # The information baseline mixes priors, so it has no exact theory.
        sq, theory = _run_filter(
            plant, prior_mix, fusion, gain, own, X, Y, scenario.noise_scale,
            theory=with_theory and name != "cidf",
        )
        stats = _reduce(sq, scenario.steady_window)
        # Release this run's errors before the next run fills its own.
        del sq
        run = FilterRun(
            name=name,
            fusion_steps=L,
            mse_per_step=stats[0],
            step_se=stats[1],
            mse_steady=stats[2],
            steady_se=stats[3],
            theory_per_step=theory,
            diverged=stats[4],
        )
        if len(run.diverged) > 0.01 * h:
            raise NumericalError(
                f"{run.label}: {len(run.diverged)} of {h} trials diverged "
                f"(ids {list(run.diverged)[:10]}...)"
            )
        runs.append(run)

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
        return cls(rows=rows, crossover=crossover)

    def to_csv(self, path) -> None:
        write_csv(path, ["sensor", "L", "mse_cmdf", "mse_cidf"], self.rows)

    def crossover_to_json(self, path) -> None:
        write_json(path, {str(k): v for k, v in self.crossover.items()})


def compare_cidf(scenario: Scenario) -> CidfComparison:
    """Run both consensus filters over the scenario and compare their steady MSE."""
    filters = tuple(dict.fromkeys(scenario.filters + ("cmdf", "cidf")))
    scenario = dataclasses.replace(scenario, filters=filters)
    return CidfComparison.from_results(run_monte_carlo(scenario, with_theory=False))


def _per_step_rows(results: TrialResults):
    for r in results.runs:
        label, K = r.label, results.horizon
        for i, mse in enumerate(r.mse_per_step.tolist()):
            sensor = -1 if r.name == "ckf" else i
            theory = [None] * K if r.theory_per_step is None else r.theory_per_step[i].tolist()
            for k, (a, b) in enumerate(zip(mse, theory), start=1):
                yield label, sensor, k, a, b


def _steady_rows(results: TrialResults):
    report = results.gap_report
    for r in results.runs:
        for i, mse in enumerate(r.mse_steady.tolist()):
            theory = None if r.theory_steady is None else r.theory_steady[i]
            rate = None
            if r.name == "cmdf" and report is not None:
                rate = report.cell(i, r.fusion_steps).rate
            sensor = -1 if r.name == "ckf" else i
            yield r.label, sensor, r.fusion_steps, mse, theory, rate, results.sigma2


def export_results(results: TrialResults, out_dir, stem: str = "results") -> list[str]:
    """Write per-step and steady CSVs plus a JSON mirror; returns the paths.

    Column order is fixed and ``write_csv`` writes every number with 17
    significant digits, so identical runs produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    per_step = os.path.join(out_dir, f"{stem}_per_step.csv")
    steady = os.path.join(out_dir, f"{stem}_steady.csv")
    mirror = os.path.join(out_dir, f"{stem}.json")
    header = ["filter", "sensor", "k", "mse_empirical", "mse_theory"]
    write_csv(per_step, header, _per_step_rows(results))
    header = ["filter", "sensor", "L", "mse_i", "theory_avg", "rate_q", "sigma2"]
    write_csv(steady, header, _steady_rows(results))

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
    write_json(mirror, payload)
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
    with config_section("weights"):
        return graph, ConsensusWeights(matrix=np.asarray(weights_cfg, dtype=float))


def config_ints(data: dict, key: str, default=()) -> tuple[int, ...]:
    """The list of integers under ``key``, or ``default`` when it is absent."""
    if key not in data:
        return tuple(default)
    if not isinstance(data[key], list):
        raise ValidationError(f"config {key!r} must be a list of integers")
    return tuple(config_integer(v, key) for v in data[key])


def scenario_from_dict(data: dict) -> Scenario:
    with config_section("scenario"):
        plant = PlantModel.from_dict(data["plant"])
        graph, weights = network_from_dict(data)
        noise_scale = data.get("noise_scale", 1.0)
        if isinstance(noise_scale, bool) or not isinstance(noise_scale, (int, float)):
            raise ValidationError(f"config 'noise_scale' must be a number: {noise_scale!r}")
        window = data.get("steady_window")
        return Scenario(
            plant=plant,
            graph=graph,
            weights=weights,
            L_values=config_ints(data, "L_values"),
            horizon=config_integer(data["horizon"], "horizon"),
            trials=config_integer(data["trials"], "trials"),
            seed=config_integer(data["seed"], "seed"),
            filters=tuple(data.get("filters", ("ckf", "cmdf"))),
            noise_scale=float(noise_scale),
            x0=data.get("x0"),
            steady_window=None if window is None else config_integer(window, "steady_window"),
        )


def read_config(path) -> dict:
    """The JSON object of a config file; ValidationError when it is not one."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object, not {type(data).__name__}")
    return data


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_config(path))


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
