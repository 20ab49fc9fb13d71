import csv
import json

import numpy as np
import pytest

from conftest import complete_graph, scalar_plant, two_node_graph
from filterlab import (
    ConsensusWeights,
    PlantModel,
    Scenario,
    SensorGraph,
    ValidationError,
    benchmark_scenario,
    compare_cidf,
    export_results,
    metropolis_weights,
    run_monte_carlo,
    simulate_trials,
)
from filterlab import harness
from filterlab.gap import _sensor_information
from filterlab.harness import (
    CidfComparison,
    TrialResults,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from reference_filters import ckf_step, cidf_step, cmdf_step, default_states, simulate_trajectory


def small_periodic_plant() -> PlantModel:
    # 2-state, 2-periodic, three sensors (third is naive).
    A = [np.array([[0.9, 0.2], [0.0, 0.7]]), np.array([[0.5, 0.0], [0.3, 0.8]])]
    Q = 0.4 * np.eye(2)
    C = [
        [np.array([[1.0, 0.0]]), np.zeros((1, 2))],
        [np.zeros((1, 2)), np.array([[0.0, 1.0]])],
        [np.zeros((1, 2)), np.zeros((1, 2))],
    ]
    R = [np.eye(1)] * 3
    return PlantModel(A=A, Q=Q, C=C, R=R)


def triangle_scenario(**overrides) -> Scenario:
    plant = small_periodic_plant()
    graph = complete_graph(3)
    weights = metropolis_weights(graph)
    defaults = dict(
        plant=plant,
        graph=graph,
        weights=weights,
        L_values=(1, 2),
        horizon=12,
        trials=6,
        seed=11,
        filters=("ckf", "cmdf", "cidf"),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenarioValidation:
    def test_requires_connected_graph(self):
        plant = small_periodic_plant()
        graph = SensorGraph(n_nodes=3, edges=frozenset({(0, 1)}))
        with pytest.raises(ValidationError):
            Scenario(
                plant=plant,
                graph=graph,
                weights=ConsensusWeights(matrix=np.eye(3)),
                L_values=(1,),
                horizon=12,
                trials=2,
                seed=0,
            )

    def test_requires_two_periods_of_horizon(self):
        with pytest.raises(ValidationError):
            triangle_scenario(horizon=3)

    def test_rejects_unknown_filters(self):
        with pytest.raises(ValidationError):
            triangle_scenario(filters=("ckf", "ukf"))

    def test_weights_must_match_graph_support(self):
        plant = small_periodic_plant()
        graph = SensorGraph(n_nodes=3, edges=frozenset({(0, 1), (1, 2)}))
        full = metropolis_weights(complete_graph(3))
        with pytest.raises(ValidationError):
            Scenario(
                plant=plant,
                graph=graph,
                weights=full,
                L_values=(1,),
                horizon=12,
                trials=2,
                seed=0,
            )

    def test_round_trips_through_json(self, tmp_path):
        scn = triangle_scenario()
        data = scenario_to_dict(scn)
        path = tmp_path / "scenario.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        clone = load_scenario(path)
        assert clone.L_values == scn.L_values
        assert clone.trials == scn.trials
        assert np.allclose(clone.weights.matrix, scn.weights.matrix)
        assert clone.filters == scn.filters

    def test_metropolis_shorthand(self):
        data = scenario_to_dict(triangle_scenario())
        data["weights"] = "metropolis"
        clone = scenario_from_dict(data)
        assert np.allclose(
            clone.weights.matrix, metropolis_weights(complete_graph(3)).matrix
        )


class TestRunMonteCarlo:
    def test_zero_noise_exact_init_gives_zero_mse(self):
        scn = triangle_scenario(trials=3, filters=("ckf", "cmdf"))
        plant = scn.plant
        X, Y = simulate_trials(plant, scn.horizon, range(scn.trials), noise_scale=0.0)
        gain, own = _sensor_information(plant)
        for name, L, prior_mix, fusion in harness._filter_runs(scn):
            sq, _ = harness._run_filter(plant, prior_mix, fusion, gain, own, X, Y, theory=False)
            assert np.allclose(sq, 0.0, atol=1e-22)

    def test_single_node_cmdf_equals_ckf_trial_by_trial(self):
        plant = scalar_plant(a=0.9, c=1.0, q=0.4, r=0.8)
        graph = SensorGraph(n_nodes=1, edges=frozenset())
        weights = ConsensusWeights(matrix=np.eye(1))
        scn = Scenario(
            plant=plant,
            graph=graph,
            weights=weights,
            L_values=(2,),
            horizon=9,
            trials=5,
            seed=3,
            filters=("ckf", "cmdf"),
        )
        results = run_monte_carlo(scn, with_theory=False)
        ckf = results.run("ckf")
        cmdf = results.run("cmdf", 2)
        assert np.allclose(ckf.mse_per_step[0], cmdf.mse_per_step[0], atol=1e-14)
        # And at the per-trial / per-estimate level via the step functions.
        children = np.random.SeedSequence(3).spawn(5)
        for child in children:
            traj = simulate_trajectory(plant, 9, child)
            a = default_states(plant)[0]
            b = default_states(plant)
            for k in range(1, 10):
                y = [yy[k] for yy in traj.measurements]
                a = ckf_step(plant, a, np.concatenate(y), k)
                b = cmdf_step(plant, weights, 2, b, y, k)
                assert np.allclose(a.estimate, b[0].estimate, atol=1e-13)

    def test_batched_engine_matches_step_functions(self):
        # The harness advances all trials together in one filter loop;
        # it must agree with the reference per-step filters trial by trial.
        scn = triangle_scenario(trials=4, horizon=8, L_values=(2,))
        results = run_monte_carlo(scn, with_theory=False)
        plant, weights = scn.plant, scn.weights
        h, K, N = scn.trials, scn.horizon, plant.N
        sq_cm = np.zeros((N, h, K))
        sq_ck = np.zeros((1, h, K))
        sq_ci = np.zeros((N, h, K))
        children = np.random.SeedSequence(scn.seed).spawn(h)
        for l, child in enumerate(children):
            traj = simulate_trajectory(plant, K, child)
            cm = default_states(plant)
            ci = default_states(plant)
            ck = default_states(plant)[0]
            for k in range(1, K + 1):
                y = [yy[k] for yy in traj.measurements]
                A = plant.A.at(k - 1)
                for i, s in enumerate(cm):
                    pred = A @ s.estimate
                    sq_cm[i, l, k - 1] = np.sum((pred - traj.states[k]) ** 2)
                for i, s in enumerate(ci):
                    pred = A @ s.estimate
                    sq_ci[i, l, k - 1] = np.sum((pred - traj.states[k]) ** 2)
                sq_ck[0, l, k - 1] = np.sum((A @ ck.estimate - traj.states[k]) ** 2)
                cm = cmdf_step(plant, weights, 2, cm, y, k)
                ci = cidf_step(plant, weights, 2, ci, y, k)
                ck = ckf_step(plant, ck, np.concatenate(y), k)
        assert np.allclose(
            results.run("cmdf", 2).mse_per_step, sq_cm.mean(axis=1), atol=1e-10
        )
        assert np.allclose(
            results.run("cidf", 2).mse_per_step, sq_ci.mean(axis=1), atol=1e-10
        )
        assert np.allclose(
            results.run("ckf").mse_per_step, sq_ck.mean(axis=1), atol=1e-10
        )

    def test_reproducibility(self):
        scn = triangle_scenario(trials=5)
        a = run_monte_carlo(scn, with_theory=False)
        b = run_monte_carlo(scn, with_theory=False)
        for ra, rb in zip(a.runs, b.runs):
            assert np.array_equal(ra.mse_per_step, rb.mse_per_step)
            assert np.array_equal(ra.mse_steady, rb.mse_steady)

    def test_simulates_every_trial_in_one_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return simulate_trials(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate_trials", counted)
        scn = triangle_scenario(trials=5)
        run_monte_carlo(scn, with_theory=False)
        assert len(calls) == 1 and len(calls[0]) == 5

    def test_theory_matches_simulation_within_three_se(self):
        # Fixed-seed statistical consistency of Monte Carlo vs the exact
        # covariance recursions, both per-step over the last period and for
        # the steady average.
        scn = triangle_scenario(trials=600, horizon=16, L_values=(1,), seed=29)
        results = run_monte_carlo(scn)
        for name, L in (("ckf", None), ("cmdf", 1)):
            run = results.run(name, L)
            T = results.period
            for i in range(run.mse_per_step.shape[0]):
                dev = np.abs(
                    run.mse_per_step[i, -T:] - run.theory_per_step[i, -T:]
                )
                se = np.maximum(run.step_se[i, -T:], 1e-12)
                assert np.all(dev <= 3.0 * se)
                steady_dev = abs(run.mse_steady[i] - run.theory_steady[i])
                assert steady_dev <= 3.0 * max(run.steady_se[i], 1e-12)

    def test_theory_steady_close_to_per_step_tail(self):
        scn = triangle_scenario(trials=2, horizon=30, L_values=(2,))
        results = run_monte_carlo(scn)
        run = results.run("cmdf", 2)
        tail = run.theory_per_step[:, -results.period :].mean(axis=1)
        assert np.allclose(tail, run.theory_steady, atol=1e-6)

    def test_divergence_detection(self):
        # Estimates tracking an exponentially growing state cross the
        # divergence norm; the run must fail loudly rather than average
        # blown-up trials.
        plant = PlantModel(A=[[1.6]], Q=[[1.0]], C=[[[1.0]], [[0.0]]], R=[[[1.0]], [[1.0]]])
        graph = two_node_graph()
        scn = Scenario(
            plant=plant,
            graph=graph,
            weights=metropolis_weights(graph),
            L_values=(1,),
            horizon=80,
            trials=3,
            seed=1,
            filters=("cmdf",),
        )
        from filterlab import NumericalError

        with pytest.raises(NumericalError):
            with np.errstate(over="ignore", invalid="ignore"):
                run_monte_carlo(scn, with_theory=False)

    def test_partial_divergence_flags_only_blown_up_trials(self):
        # The state grows by 1.6 per step, so by k = 44 some trials' estimates
        # cross the divergence norm and others do not. Trial 0 also gets one
        # spiked measurement: its estimate crosses the norm at k = 5 and is
        # back below it at k = 44, so it must be flagged all the same. The
        # filter must flag exactly the trials whose reference estimate
        # crosses at some step and leave the others' errors untouched.
        plant = PlantModel(A=[[1.6]], Q=[[1.0]], C=[[[1.0]], [[0.0]]], R=[[[1.0]], [[1.0]]])
        weights = metropolis_weights(two_node_graph())
        h, K = 40, 44
        X, Y = simulate_trials(plant, K, np.random.SeedSequence(1).spawn(h))
        Y[0, 5, 0] = 1e12
        gain, own = _sensor_information(plant)
        ref = np.empty((plant.N, h, K))
        peak, final = np.zeros(h), np.zeros(h)
        with np.errstate(over="ignore", invalid="ignore"):
            sq, traces = harness._run_filter(
                plant, np.eye(2), 2 * weights.matrix, gain, own, X, Y, theory=False
            )
            for l in range(h):
                states = default_states(plant)
                for k in range(1, K + 1):
                    for i, s in enumerate(states):
                        pred = plant.A.at(k - 1) @ s.estimate
                        ref[i, l, k - 1] = np.sum((pred - X[l, k]) ** 2)
                    states = cmdf_step(plant, weights, 1, states, np.split(Y[l, k], 2), k)
                    final[l] = max(np.abs(s.estimate).max() for s in states)
                    peak[l] = max(peak[l], final[l])
        assert traces is None
        flagged = ~np.isfinite(sq).all(axis=(0, 2))
        assert np.array_equal(flagged, peak > harness.DIVERGENCE_NORM)
        assert flagged[0] and final[0] < harness.DIVERGENCE_NORM
        assert 0 < flagged.sum() < h
        assert np.isnan(sq[:, flagged]).all()
        np.testing.assert_allclose(sq[:, ~flagged], ref[:, ~flagged], rtol=1e-12)


class TestCompareCidf:
    def test_naive_sensors_agree_without_fusion(self):
        # At L = 0 both filters reduce to local processing; for naive
        # sensors (no observation) that is the same open-loop prediction,
        # so their MSE columns coincide. Observing sensors differ: the
        # measurement-consensus filter weights its own data N-fold.
        scn = triangle_scenario(trials=40, horizon=12, L_values=(0,), seed=5)
        comparison = compare_cidf(scn)
        rows = {(s, L): (a, b) for s, L, a, b in comparison.rows}
        naive_cm, naive_ci = rows[(2, 0)]
        assert naive_cm == pytest.approx(naive_ci, rel=1e-12)
        seeing_cm, seeing_ci = rows[(0, 0)]
        assert abs(seeing_cm - seeing_ci) > 1e-12

    def test_complete_graph_single_round_ties_centralized(self):
        # With weights exactly J/N one round hands every node the whole
        # network's measurement information, so each CMDF node is the CKF.
        N = 3
        J_over_N = ConsensusWeights(matrix=np.full((N, N), 1.0 / N))
        scn = triangle_scenario(
            weights=J_over_N, trials=60, horizon=12, L_values=(1,), seed=8
        )
        results = run_monte_carlo(scn)
        ckf, cmdf = results.run("ckf"), results.run("cmdf", 1)
        for i in range(N):
            for curve in ("mse_per_step", "theory_per_step"):
                np.testing.assert_allclose(
                    getattr(cmdf, curve)[i], getattr(ckf, curve)[0], rtol=1e-12, atol=0
                )
        # The information baseline dilutes everyone's precision N-fold
        # and lands strictly above the centralized error.
        comparison = CidfComparison.from_results(results)
        for sensor, L, mse_cmdf, mse_cidf in comparison.rows:
            assert mse_cmdf == pytest.approx(ckf.mse_steady[0], rel=1e-12)
            assert mse_cidf > mse_cmdf

    def test_relabelling_sensors_permutes_rows(self):
        # Relabelling the sensors, the graph and W by perm, and reordering the
        # sensor blocks of the same measurements, must relabel every node row
        # the same way and leave the CKF alone.
        plant = small_periodic_plant()
        path = SensorGraph(n_nodes=3, edges=frozenset({(0, 1), (1, 2)}))
        W = metropolis_weights(path).matrix
        perm = [2, 0, 1]  # new sensor a is old sensor perm[a]
        new_id = np.argsort(perm)
        relabelled = dict(
            plant=PlantModel(
                A=plant.A,
                Q=plant.Q,
                C=[plant.C[j] for j in perm],
                R=[plant.R[j] for j in perm],
            ),
            graph=SensorGraph(
                n_nodes=3,
                edges=frozenset((new_id[i], new_id[j]) for i, j in path.edges),
            ),
            weights=ConsensusWeights(matrix=W[np.ix_(perm, perm)]),
        )
        common = dict(L_values=(2,), horizon=8, trials=2)
        base_scn = triangle_scenario(
            plant=plant, graph=path, weights=ConsensusWeights(matrix=W), **common
        )
        moved_scn = triangle_scenario(**relabelled, **common)
        X, Y = simulate_trials(plant, 8, range(4), x0=np.array([1.0, -2.0]))
        blocks = plant.observation_slices()
        Y_moved = np.concatenate([Y[:, :, blocks[j]] for j in perm], axis=2)

        def filter_runs(scn, Y):
            gain, own = _sensor_information(scn.plant)
            return {
                (name, L): harness._run_filter(
                    scn.plant, prior_mix, fusion, gain, own, X, Y, theory=name != "cidf"
                )
                for name, L, prior_mix, fusion in harness._filter_runs(scn)
            }

        def close(a, b):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

        runs, runs_moved = filter_runs(base_scn, Y), filter_runs(moved_scn, Y_moved)
        for (name, L), (sq, traces) in runs.items():
            rows = [0] if name == "ckf" else perm
            sq_moved, traces_moved = runs_moved[name, L]
            close(sq_moved, sq[rows])
            if traces is not None:
                close(traces_moved, traces[rows])
        assert set(runs) == {("ckf", None), ("cmdf", 2), ("cidf", 2)}

        base, moved = run_monte_carlo(base_scn), run_monte_carlo(moved_scn)
        close(moved.run("ckf").theory_per_step, base.run("ckf").theory_per_step)
        cmdf, cmdf_moved = base.run("cmdf", 2), moved.run("cmdf", 2)
        close(cmdf_moved.theory_per_step, cmdf.theory_per_step[perm])
        close(cmdf_moved.theory_steady, cmdf.theory_steady[perm])
        # The report cells theory_steady is read from move with the labels too.
        for a, old in enumerate(perm):
            assert moved.gap_report.cell(a, 2).avg_perf == pytest.approx(
                base.gap_report.cell(old, 2).avg_perf, rel=1e-12
            )

    def test_crossover_is_reported(self):
        scn = triangle_scenario(trials=120, horizon=12, L_values=(1, 2, 3), seed=13)
        comparison = compare_cidf(scn)
        assert set(comparison.crossover) == {0, 1, 2}
        for sensor, cross in comparison.crossover.items():
            assert cross is None or cross in (1, 2, 3)

    def test_csv_export(self, tmp_path):
        scn = triangle_scenario(trials=10, horizon=12, L_values=(1,))
        comparison = compare_cidf(scn)
        path = tmp_path / "cmp.csv"
        comparison.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sensor", "L", "mse_cmdf", "mse_cidf"]
        assert len(rows) == 1 + 3


class TestExports:
    def test_empty_results_write_header_only(self, tmp_path):
        empty = TrialResults(
            horizon=5,
            trials=0,
            period=1,
            seed=0,
            sigma2=0.0,
            graph_diameter=0,
            centralized_avg=None,
            runs=[],
        )
        paths = export_results(empty, tmp_path)
        with open(paths[0]) as fh:
            assert fh.read().strip() == "filter,sensor,k,mse_empirical,mse_theory"
        with open(paths[1]) as fh:
            assert (
                fh.read().strip()
                == "filter,sensor,L,mse_i,theory_avg,rate_q,sigma2"
            )

    def test_row_counts_single_sensor_single_L(self, tmp_path):
        plant = scalar_plant(a=0.9)
        graph = SensorGraph(n_nodes=1, edges=frozenset())
        scn = Scenario(
            plant=plant,
            graph=graph,
            weights=ConsensusWeights(matrix=np.eye(1)),
            L_values=(1,),
            horizon=6,
            trials=2,
            seed=0,
            filters=("cmdf",),
        )
        results = run_monte_carlo(scn, with_theory=False)
        paths = export_results(results, tmp_path)
        with open(paths[0]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + scn.horizon
        with open(paths[1]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 1

    def test_round_trip_is_bit_exact(self, tmp_path):
        scn = triangle_scenario(trials=5)
        results = run_monte_carlo(scn, with_theory=False)
        paths = export_results(results, tmp_path, stem="a")
        with open(paths[0]) as fh:
            rows = list(csv.reader(fh))[1:]
        run = results.run("cmdf", 1)
        parsed = [float(r[3]) for r in rows if r[0] == "cmdf_L1" and r[1] == "0"]
        assert np.array_equal(np.array(parsed), run.mse_per_step[0])

    def test_identical_runs_identical_bytes(self, tmp_path):
        scn = triangle_scenario(trials=4)
        r1 = run_monte_carlo(scn, with_theory=False)
        r2 = run_monte_carlo(scn, with_theory=False)
        p1 = export_results(r1, tmp_path / "one")
        p2 = export_results(r2, tmp_path / "two")
        for a, b in zip(p1, p2):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()


class TestBenchmarkScenario:
    def test_defaults(self):
        scn = benchmark_scenario(trials=10)
        assert scn.plant.N == 20
        assert scn.horizon == 100
        assert scn.trials == 10
        assert len(scn.L_values) == 9
        from filterlab import diameter

        d = diameter(scn.graph)
        assert scn.L_values[0] == d
