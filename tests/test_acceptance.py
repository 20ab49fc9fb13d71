"""Acceptance suite: one test per criterion (two for criterion 10, the steady
averages and every per-step cell), each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The heavyweight benchmark computations (full Monte
Carlo run, full gap report) are shared module-scoped fixtures.
"""

import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from conftest import (
    alternating_pair,
    complete_graph,
    random_periodic_system,
    spd,
    two_node_weights,
    two_sensor_scalar_plant,
)
import measurement_form as mf
from filterlab import (
    PeriodicSequence,
    benchmark_scenario,
    build_gap_report,
    centralized_dpre,
    cmdf_spps,
    diameter,
    dpre_spps,
    is_strongly_connected,
    metropolis_weights,
    random_geometric_graph,
    run_monte_carlo,
    second_largest_eigenvalue,
    uniform_observability,
)
from reference_filters import ckf_step, cmdf_step, default_states, simulate_trajectory
from theory_checks import (
    dpre_monotonicity_probe,
    gap_series_cov,
    gap_series_ric,
    monodromy,
    monodromy_bounds,
    power_norm_bound,
    solution_monodromy,
    spectral_diagnostics,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def bench(bench_plant, bench_graph, bench_weights):
    return {
        "plant": bench_plant,
        "graph": bench_graph,
        "weights": bench_weights,
        "d": diameter(bench_graph),
        "sigma2": second_largest_eigenvalue(bench_weights),
    }


@pytest.fixture(scope="module")
def bench_report(bench):
    d = bench["d"]
    return build_gap_report(
        bench["plant"],
        bench["weights"],
        L_values=range(d, d + 9),
        graph=bench["graph"],
    )


@pytest.fixture(scope="module")
def bench_results(bench):
    scenario = benchmark_scenario(trials=1500, horizon=100)
    start = time.perf_counter()
    results = run_monte_carlo(scenario)
    results.wall = time.perf_counter() - start
    return results


def test_criterion_1_scalar_riccati_oracle():
    start = time.perf_counter()
    sol = dpre_spps([[1.0]], [[1.0]], [[1.0]], [[1.0]], tol=1e-13)
    elapsed = time.perf_counter() - start
    err = abs(sol.P[0][0, 0] - PHI)
    report(
        1,
        err < 1e-12 and elapsed < 1.0,
        f"golden-ratio fixed point, error {err:.2e}, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_alternating_pair_reproduction():
    A, C = alternating_pair()
    observable = uniform_observability(A, C)
    ranks = []
    for k in range(2):
        per_step = np.vstack([C.at(k), C.at(k) @ A.at(k)])
        ranks.append(np.linalg.matrix_rank(per_step))
    gains = [np.array([[0.0], [-1.9]]), np.array([[-1.9], [0.0]])]
    loops = PeriodicSequence([A.at(k) + gains[k] @ C.at(k) for k in range(2)])
    phi_err = np.linalg.norm(monodromy(loops).phi - 0.2 * np.eye(2), 2)
    ok = observable and ranks == [1, 1] and phi_err < 1e-12
    report(
        2,
        ok,
        f"uniformly observable={observable}, per-step ranks={ranks}, "
        f"monodromy defect {phi_err:.2e}",
    )


def test_criterion_3_centralized_equivalence(bench_plant):
    weights = metropolis_weights(complete_graph(bench_plant.N))
    worst = 0.0
    for trial in range(5):
        traj = simulate_trajectory(bench_plant, K=100, seed=1000 + trial)
        central = default_states(bench_plant)[0]
        nodes = default_states(bench_plant)
        for k in range(1, 101):
            y = [yy[k] for yy in traj.measurements]
            central = ckf_step(bench_plant, central, np.concatenate(y), k)
            nodes = cmdf_step(bench_plant, weights, 1, nodes, y, k)
            scale = max(1.0, np.linalg.norm(central.estimate))
            for node in nodes:
                worst = max(
                    worst,
                    np.linalg.norm(node.estimate - central.estimate) / scale,
                    np.linalg.norm(node.covariance - central.covariance, 2)
                    / max(1.0, np.linalg.norm(central.covariance, 2)),
                )
    report(3, worst < 1e-9, f"max relative node-vs-central deviation {worst:.2e}")


def _periodicity_defect_riccati(solution, A, C, Q, R):
    P = solution.at(0)
    worst = 0.0
    for k in range(solution.period):
        P = mf.riccati_step(A.at(k), C.at(k), Q.at(k), R.at(k), P)
        worst = max(worst, np.linalg.norm(P - solution.at(k + 1), 2))
    return worst


def _periodicity_defect_lyapunov(solution, A, Q):
    P = solution.at(0)
    worst = 0.0
    for k in range(solution.period):
        P = A.at(k) @ P @ A.at(k).T + Q.at(k)
        worst = max(worst, np.linalg.norm(P - solution.at(k + 1), 2))
    return worst


def test_criterion_4_spps_periodicity(bench):
    plant, weights, d = bench["plant"], bench["weights"], bench["d"]
    C_full, R_full = mf.network_sequences(plant)

    start = time.perf_counter()
    central = centralized_dpre(plant, tol=1e-10)
    central_time = time.perf_counter() - start
    worst = _periodicity_defect_riccati(central, plant.A, C_full, plant.Q, R_full)

    slowest = central_time
    sensor_sets = {d: range(plant.N), d + 4: (0, 3, 13), d + 8: (0, 3, 13)}
    for L, sensors in sensor_sets.items():
        start = time.perf_counter()
        nodes = cmdf_spps(plant, weights, L, tol=1e-10)
        slowest = max(slowest, time.perf_counter() - start)
        for i in sensors:
            C_mod, R_eff, R_mask, _ = mf.modified_sequences(plant, weights, L, i)
            sol, err = nodes[i]
            worst = max(
                worst, _periodicity_defect_riccati(sol, plant.A, C_mod, plant.Q, R_eff)
            )
            gains, loops = mf.closed_loop_sequence(plant.A, C_mod, R_eff, sol)
            Q_noise = PeriodicSequence(
                [
                    plant.Q.at(k) + gains[k] @ R_mask.at(k) @ gains[k].T
                    for k in range(plant.period)
                ]
            )
            worst = max(worst, _periodicity_defect_lyapunov(err, loops, Q_noise))
    report(
        4,
        worst < 1e-8 and slowest < 60.0,
        f"max periodic-extension defect {worst:.2e}, slowest solve {slowest:.2f} s",
    )


def test_criterion_5_covariance_recursion_converges_to_dple(bench):
    plant, weights, d = bench["plant"], bench["weights"], bench["d"]
    n, T = plant.n, plant.period
    worst = 0.0
    for L in (d, d + 2, d + 4):
        nodes = cmdf_spps(plant, weights, L, tol=1e-12)
        for i in range(plant.N):
            C_mod, R_eff, R_mask, _ = mf.modified_sequences(plant, weights, L, i)
            err_sol = nodes[i][1]
            # Oracle recursion straight from the filter definition.
            P_post = np.eye(n)
            X_post = np.zeros((n, n))
            for k in range(1, 201):
                A, Q = plant.A.at(k - 1), plant.Q.at(k - 1)
                P_prior = A @ P_post @ A.T + Q
                X_prior = A @ X_post @ A.T + Q
                if k > 200 - T:
                    worst = max(
                        worst, np.linalg.norm(X_prior - err_sol.at(k), 2)
                    )
                Ck, Rk, Rm = C_mod.at(k), R_eff.at(k), R_mask.at(k)
                S = Ck @ P_prior @ Ck.T + Rk
                K = P_prior @ Ck.T @ np.linalg.inv(S)
                M = np.eye(n) - K @ Ck
                P_post = (M @ P_prior + (M @ P_prior).T) / 2
                X_post = M @ X_prior @ M.T + K @ Rm @ K.T
                X_post = (X_post + X_post.T) / 2
    report(
        5,
        worst < 1e-6,
        f"max last-period deviation of the 200-step recursion {worst:.2e}",
    )


def test_criterion_6_rate_envelope(bench, bench_report):
    sigma2 = bench["sigma2"]
    finite = [c.rate for c in bench_report.cells if not math.isnan(c.rate)]
    ok = bool(finite) and all(q <= sigma2 + 0.02 for q in finite)
    report(
        6,
        ok,
        f"{len(finite)} finite decay ratios, max {max(finite):.4f} "
        f"<= sigma2 + 0.02 = {sigma2 + 0.02:.4f}",
    )


def test_criterion_7_series_equivalence(bench):
    plant, weights, d = bench["plant"], bench["weights"], bench["d"]
    worst_bench = 0.0
    for i in range(plant.N):
        worst_bench = max(
            worst_bench,
            gap_series_ric(plant, weights, d, i).defect,
            gap_series_cov(plant, weights, d, i).defect,
        )
    model = two_sensor_scalar_plant(a=1.0, c1=1.0, c2=0.5)
    pair_weights = two_node_weights(0.3)
    worst_scalar = 0.0
    for L in (1, 3):
        for i in range(2):
            worst_scalar = max(
                worst_scalar,
                gap_series_ric(model, pair_weights, L, i, truncation=500).defect,
                gap_series_cov(model, pair_weights, L, i, truncation=500).defect,
            )
    ok = worst_bench < 1e-6 and worst_scalar < 1e-8
    report(
        7,
        ok,
        f"series defects: benchmark {worst_bench:.2e} (< 1e-6), "
        f"scalar pair {worst_scalar:.2e} (< 1e-8)",
    )


def test_criterion_8_monotonicity_and_monodromy_bounds():
    start = time.perf_counter()
    checked = 0
    for seed in range(100):
        A, C, Q, R2, rng = random_periodic_system(seed, n_max=4, T_max=5)
        m = C.shape[0]
        bumps = [spd(rng, m, scale=0.5) for _ in range(R2.period)]
        R1 = PeriodicSequence([R2.at(k) + bumps[k] for k in range(R2.period)])
        assert dpre_monotonicity_probe(A, C, Q, R1, R2)
        sol = dpre_spps(A, C, Q, R2)
        rho_bound, norm_bound = monodromy_bounds(sol, Q)
        for anchor in range(sol.period):
            rep = solution_monodromy(A, C, Q, R2, sol, anchor=anchor)
            assert rep.spectral_radius <= rho_bound + 1e-9
            assert rep.norm2 <= norm_bound + 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        8,
        checked == 100 and elapsed < 120.0,
        f"{checked} random observable systems monotone and inside both "
        f"monodromy bounds in {elapsed:.1f} s",
    )


def test_criterion_9_consensus_fit_and_power_bound():
    fits = 0
    seed = 0
    while fits < 50:
        graph = random_geometric_graph(12, 100.0, 42.0, seed=seed)
        seed += 1
        if not is_strongly_connected(graph):
            continue
        weights = metropolis_weights(graph)
        sigma2, (_, q) = spectral_diagnostics(weights, k_max=60)
        assert q <= sigma2 + 0.02
        fits += 1

    rng = np.random.default_rng(2024)
    dominated = 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n))
        power = np.eye(n)
        for k in range(51):
            direct = np.linalg.norm(power, 2)
            assert direct <= power_norm_bound(A, k) * (1.0 + 1e-12)
            power = A @ power
        dominated += 1
    report(
        9,
        fits == 50 and dominated == 100,
        f"{fits} consensus envelope fits within sigma2 + 0.02; "
        f"power bound dominated all {dominated} matrices up to k = 50",
    )


def test_criterion_10_monte_carlo_matches_theory(bench_results):
    results = bench_results
    worst_rel = 0.0
    for run in results.runs:
        if run.name != "cmdf":
            continue
        rel = np.abs(run.mse_steady - run.theory_steady) / run.theory_steady
        worst_rel = max(worst_rel, float(rel.max()))
    ok = worst_rel < 0.05 and results.wall < 1800.0
    report(
        10,
        ok,
        f"steady MSE within {worst_rel * 100:.2f}% of the DPLE trace average "
        f"across all sensors and swept L; run took {results.wall:.0f} s",
    )


def test_criterion_10_per_step_agreement(bench_results):
    # Every CKF and CMDF cell (row, step) against its theory, in units of the
    # cell's own standard error. Every row sees the same trials, so the z of
    # all rows move together: the check bounds the largest |z| over all cells,
    # two-sided with a Bonferroni split of alpha, rather than counting rows.
    runs = [r for r in bench_results.runs if r.name in ("ckf", "cmdf")]
    labels = [(r.label, i) for r in runs for i in range(len(r.mse_per_step))]
    mse, theory, se = (
        np.concatenate([getattr(r, f) for r in runs])
        for f in ("mse_per_step", "theory_per_step", "step_se")
    )
    bound = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * mse.size))
    z = np.abs(mse - theory) / se
    row, step = np.unravel_index(np.argmax(z), z.shape)
    # The check has power: theory 5% too high is caught.
    scaled = float((np.abs(mse - 1.05 * theory) / se).max())
    report(
        10,
        z.max() < bound < scaled,
        f"per-step max |z| {z.max():.2f} at {labels[row][0]} node {labels[row][1]} "
        f"step {step + 1} over {mse.size} cells, Bonferroni bound {bound:.2f} "
        f"at alpha 1e-3; theory x 1.05 gives {scaled:.2f}",
    )


def test_criterion_11_cidf_comparison(bench_results, bench_plant):
    results = bench_results
    observing = [
        i
        for i in range(bench_plant.N)
        if any(
            np.any(bench_plant.C[i].at(k) != 0.0) for k in range(bench_plant.period)
        )
    ]
    Ls = sorted(
        {r.fusion_steps for r in results.runs if r.name == "cmdf"}
    )
    crossover = None
    for idx, L_star in enumerate(Ls):
        dominated = all(
            results.run("cmdf", L).mse_steady[i] < results.run("cidf", L).mse_steady[i]
            for L in Ls[idx:]
            for i in observing
        )
        if dominated:
            crossover = L_star
            break
    ok = crossover is not None and crossover <= Ls[0] + 8
    report(
        11,
        ok,
        f"consensus-on-measurement dominates the information baseline for all "
        f"{len(observing)} observing sensors from L* = {crossover}",
    )
