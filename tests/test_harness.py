import csv
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import complete_graph, every_sensor_measuring, scalar_plant, two_node_graph
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
from filterlab import gap, harness
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
        Y = harness._measured(plant, Y)
        runs = harness._run_filters(plant, harness._filter_runs(scn), X, Y, theory=False)
        assert [r.label for r in runs] == ["ckf", "cmdf_L1", "cmdf_L2"]
        for run in runs:
            # Squared errors are non-negative, so a zero mean is zero in every trial.
            assert np.allclose(run.mse_per_step, 0.0, atol=1e-22)
            assert np.allclose(run.mse_steady, 0.0, atol=1e-22)
            assert run.diverged == ()

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
            L_values=(2, 1),
            horizon=80,
            trials=3,
            seed=1,
            filters=("cmdf",),
        )
        from filterlab import NumericalError

        # Every run diverges; the first in run order is named.
        with pytest.raises(NumericalError, match="^cmdf_L2: "):
            with np.errstate(over="ignore", invalid="ignore"):
                run_monte_carlo(scn, with_theory=False)

    def test_partial_divergence_flags_only_blown_up_trials(self):
        # The state grows by 1.6 per step, so by k = 44 some trials' estimates
        # cross the divergence norm and others do not. Trial 0 also gets one
        # spiked measurement: its estimate crosses the norm at k = 5 and is
        # back below it at k = 44, so it must be flagged all the same. The
        # pass must flag exactly the trials whose reference estimate crosses
        # at some step, and reproduce every other trial's errors alone.
        plant = PlantModel(A=[[1.6]], Q=[[1.0]], C=[[[1.0]], [[0.0]]], R=[[[1.0]], [[1.0]]])
        weights = metropolis_weights(two_node_graph())
        h, K = 40, 44
        X, Y = simulate_trials(plant, K, np.random.SeedSequence(1).spawn(h))
        Y[0, 5, 0] = 1e12
        spec = [("cmdf", 1, np.eye(2), 2 * weights.matrix)]
        ref = np.empty((plant.N, h, K))
        peak, final = np.zeros(h), np.zeros(h)
        # The second sensor never measures, so the pass holds no column of it.
        measured = harness._measured(plant, Y)
        assert measured.shape == (h, K + 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            (run,) = harness._run_filters(plant, spec, X, measured, theory=False)
            for l in range(h):
                states = default_states(plant)
                for k in range(1, K + 1):
                    for i, s in enumerate(states):
                        pred = plant.A.at(k - 1) @ s.estimate
                        ref[i, l, k - 1] = np.sum((pred - X[l, k]) ** 2)
                    states = cmdf_step(plant, weights, 1, states, np.split(Y[l, k], 2), k)
                    final[l] = max(np.abs(s.estimate).max() for s in states)
                    peak[l] = max(peak[l], final[l])
        assert run.theory_per_step is None
        flagged = np.zeros(h, dtype=bool)
        flagged[list(run.diverged)] = True
        assert np.array_equal(flagged, peak > harness.DIVERGENCE_NORM)
        assert flagged[0] and final[0] < harness.DIVERGENCE_NORM
        assert 0 < flagged.sum() < h
        for l in np.flatnonzero(~flagged):
            (alone,) = harness._run_filters(
                plant, spec, X[l : l + 1], measured[l : l + 1], theory=False
            )
            assert alone.diverged == ()
            np.testing.assert_allclose(alone.mse_per_step, ref[:, l], rtol=1e-12)
        # The same pass over the trials that did not diverge averages them only.
        ok = ~flagged
        (kept,) = harness._run_filters(plant, spec, X[ok], measured[ok], theory=False)
        assert kept.diverged == ()
        np.testing.assert_allclose(kept.mse_per_step, ref[:, ok].mean(axis=1), rtol=1e-12)

    def test_runs_diverged_on_the_same_trials_rerun_together(self, monkeypatch):
        # One spiked measurement diverges trial 0 in all 19 benchmark runs:
        # one pass reruns them together over the other 119 trials, the CKF
        # row sharing its block as in a fresh pass over those trials.
        inputs, calls = [], []
        run_filters = harness._run_filters

        def spiked(*args, **kwargs):
            X, Y = simulate_trials(*args, **kwargs)
            Y[0, 5, 0] = 1e12
            inputs.append((X, Y))
            return X, Y

        def counted(plant, runs, *args):
            calls.append(len(runs))
            return run_filters(plant, runs, *args)

        monkeypatch.setattr(harness, "simulate_trials", spiked)
        monkeypatch.setattr(harness, "_run_filters", counted)
        scn = benchmark_scenario(trials=120, horizon=60)
        with np.errstate(over="ignore"):
            results = run_monte_carlo(scn, with_theory=False)
        assert calls == [19, 19]
        (X, Y), plant = inputs[0], scn.plant
        Y = harness._measured(plant, Y)
        fresh = run_filters(plant, harness._filter_runs(scn), X[1:], Y[1:], False)
        assert all(r.diverged == (0,) for r in results.runs)
        for run in fresh:
            run.diverged = (0,)
        assert_same_runs(results.runs, fresh)

    def test_few_diverged_trials_are_dropped_from_the_averages(self, monkeypatch):
        # One spiked measurement blows trial 0 up in every run: 1 of 200
        # trials is under the 1% budget, so each run reports it and
        # averages the other 199.
        inputs = []

        def spiked(*args, **kwargs):
            X, Y = simulate_trials(*args, **kwargs)
            Y[0, 4, 0] = 1e12
            inputs.append((X, Y))
            return X, Y

        monkeypatch.setattr(harness, "simulate_trials", spiked)
        scn = triangle_scenario(trials=200)
        results = run_monte_carlo(scn, with_theory=False)
        (X, Y), plant = inputs[0], scn.plant
        specs = harness._filter_runs(scn)
        Y = harness._measured(plant, Y)
        kept = harness._run_filters(plant, specs, X[1:], Y[1:], theory=False)
        assert [r.label for r in results.runs] == [r.label for r in kept]
        for run, want in zip(results.runs, kept):
            assert run.diverged == (0,)
            for curve in ("mse_per_step", "step_se", "mse_steady", "steady_se"):
                np.testing.assert_allclose(
                    getattr(run, curve), getattr(want, curve), rtol=1e-12, atol=0
                )

    @pytest.mark.parametrize("trials", [1, 6])
    def test_a_run_does_not_depend_on_the_runs_beside_it(self, trials):
        # The mixed scenario puts the mixing (CIDF) runs first in run order.
        alone = run_monte_carlo(triangle_scenario(trials=trials, filters=("cmdf",)))
        mixed = run_monte_carlo(
            triangle_scenario(trials=trials, filters=("cidf", "ckf", "cmdf"))
        )
        for L in (1, 2):
            a, b = alone.run("cmdf", L), mixed.run("cmdf", L)
            for curve in ("mse_per_step", "mse_steady"):
                np.testing.assert_allclose(
                    getattr(b, curve), getattr(a, curve), rtol=1e-12, atol=0
                )
            assert np.array_equal(b.theory_per_step, a.theory_per_step)
            assert np.array_equal(b.theory_steady, a.theory_steady)
            if trials == 1:
                # One trial has no standard error.
                for run in (a, b):
                    assert np.isnan(run.step_se).all() and np.isnan(run.steady_se).all()
        assert mixed.run("cidf", 1).theory_per_step is None

    def test_working_set_does_not_grow_with_the_horizon(self, monkeypatch):
        # The simulated trials grow with the horizon by design; what the
        # engine allocates beyond them must not. The trace's peak is reset
        # once the trials exist, and their bytes are taken off it.
        inputs = []

        def simulated(*args, **kwargs):
            X, Y = simulate_trials(*args, **kwargs)
            inputs.append(X.nbytes + Y.nbytes)
            tracemalloc.reset_peak()
            return X, Y

        monkeypatch.setattr(harness, "simulate_trials", simulated)

        def working_set(horizon):
            scn = benchmark_scenario(trials=300, horizon=horizon)
            tracemalloc.start()
            try:
                run_monte_carlo(scn, with_theory=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - inputs[-1]

        assert working_set(400) <= 1.25 * working_set(100)

    def test_traced_peak_of_the_benchmark_run(self):
        # At 300 trials the filter pass's buffers set the peak, about
        # 10.6 MB. Carrying the 14 relays' measurement columns through the
        # pass, or making full-size temporaries of Y in the simulation, reads
        # about 16.4 MB.
        scn = benchmark_scenario(trials=300)
        tracemalloc.start()
        try:
            run_monte_carlo(scn, with_theory=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14.5e6

    def test_traced_peak_holds_one_estimate_stack(self):
        # One (361, 4, 300) estimate stack, 3.5 MB, and the blocks' scratch
        # in its place of two stacks: about 10.6 MB, where two stacks read
        # about 12.9 MB.
        scn = benchmark_scenario(trials=300)
        tracemalloc.start()
        try:
            run_monte_carlo(scn, with_theory=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11.5e6


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

        def filter_runs(scn, X, Y):
            Y = harness._measured(scn.plant, Y)
            runs = harness._run_filters(scn.plant, harness._filter_runs(scn), X, Y, theory=True)
            return {(r.name, r.fusion_steps): r for r in runs}

        def close(a, b):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

        # Each trial alone pins its squared errors row by row, and all four
        # together the standard errors.
        for trials in [slice(l, l + 1) for l in range(4)] + [slice(None)]:
            runs = filter_runs(base_scn, X[trials], Y[trials])
            runs_moved = filter_runs(moved_scn, X[trials], Y_moved[trials])
            assert set(runs) == {("ckf", None), ("cmdf", 2), ("cidf", 2)}
            for key, run in runs.items():
                rows = [0] if run.name == "ckf" else perm
                moved_run = runs_moved[key]
                for curve in ("mse_per_step", "step_se", "mse_steady", "steady_se"):
                    close(getattr(moved_run, curve), getattr(run, curve)[rows])
                if run.theory_per_step is not None:
                    close(moved_run.theory_per_step, run.theory_per_step[rows])
            assert runs["cidf", 2].theory_per_step is None

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
        paths = export_results(results, tmp_path)
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


class TestDivergenceScreen:
    def flagged(self, xhat):
        bad = np.zeros((xhat.shape[0], xhat.shape[2]), dtype=bool)
        harness._flag_diverged(xhat, bad, np.empty_like(xhat), np.empty(bad.shape))
        return bad

    def test_entries_at_the_norm_are_not_flagged(self):
        # Their sum of squares fails the screen, so the per-trial test decides.
        xhat = np.full((2, 4, 3), harness.DIVERGENCE_NORM)
        xhat[1, 2, 0] = -harness.DIVERGENCE_NORM
        assert xhat.ravel() @ xhat.ravel() > harness.DIVERGENCE_NORM**2 / 2
        assert not self.flagged(xhat).any()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_entry_just_above_the_norm_is_flagged(self, sign):
        xhat = np.zeros((2, 4, 3))
        xhat[1, 3, 2] = sign * np.nextafter(harness.DIVERGENCE_NORM, np.inf)
        expected = np.zeros((2, 3), dtype=bool)
        expected[1, 2] = True
        assert np.array_equal(self.flagged(xhat), expected)

    def test_nan_is_flagged(self):
        xhat = np.ones((2, 4, 3))
        xhat[0, 1, 1] = np.nan
        expected = np.zeros((2, 3), dtype=bool)
        expected[0, 1] = True
        assert np.array_equal(self.flagged(xhat), expected)


@pytest.fixture
def blas():
    found = harness._openblas()
    if found is None:
        pytest.skip("numpy bundles no OpenBLAS whose threads can be pinned")
    return found


@pytest.fixture
def advanced(monkeypatch):
    """The (thread, address of its first estimate) of each step a block of
    a filter pass advances: ``_flag_diverged`` screens each block each step."""
    seen = []
    screen = harness._flag_diverged

    def recorded(xhat, *args):
        seen.append((threading.current_thread(), xhat.ctypes.data))
        return screen(xhat, *args)

    monkeypatch.setattr(harness, "_flag_diverged", recorded)
    return seen


def worker_advanced(seen) -> bool:
    return any(thread is not threading.main_thread() for thread, _ in seen)


def assert_same_runs(got, want):
    assert [r.label for r in got] == [r.label for r in want]
    for a, b in zip(got, want):
        assert a.diverged == b.diverged
        for curve in ("mse_per_step", "step_se", "mse_steady", "steady_se"):
            assert getattr(a, curve).tobytes() == getattr(b, curve).tobytes(), curve
        if b.theory_per_step is None:
            assert a.theory_per_step is None
        else:
            assert a.theory_per_step.tobytes() == b.theory_per_step.tobytes()


class TestTwoThreadPass:
    """Two-thread passes run with one run a block (BLOCK_BYTES = 0), so the
    second thread has blocks to advance."""

    @pytest.fixture(autouse=True)
    def one_run_a_block(self, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_BYTES", 0)

    def benchmark_pass(self, threads, trials=12, horizon=40):
        scn = benchmark_scenario(trials=trials)
        X, Y = simulate_trials(scn.plant, horizon, range(trials))
        specs, Y = harness._filter_runs(scn), harness._measured(scn.plant, Y)
        return harness._run_filters(scn.plant, specs, X, Y, True, threads)

    def test_split_pass_is_bit_identical_on_the_benchmark(self, blas, monkeypatch, advanced):
        # CKF beside one consensus run is one block of 21 rows, so it runs on
        # one thread: a one-row GEMM of its own would round differently.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        for filters, L_values, threads in [
            (("ckf", "cmdf", "cidf"), None, 2),
            (("ckf", "cmdf"), (4,), 1),
        ]:
            scn = benchmark_scenario(trials=12, horizon=60, filters=filters, L_values=L_values)
            monkeypatch.setattr(harness, "SPLIT_MIN_TRIALS", 10**9)
            advanced.clear()
            inline = run_monte_carlo(scn)
            assert not worker_advanced(advanced)
            monkeypatch.setattr(harness, "SPLIT_MIN_TRIALS", scn.trials)
            split = run_monte_carlo(scn)
            assert (inline.filter_threads, split.filter_threads) == (1, threads)
            assert worker_advanced(advanced) == (threads == 2)
            assert_same_runs(split.runs, inline.runs)

    def test_threads_take_every_other_block(self, blas, advanced):
        # One run a block, the CKF row riding with the first CMDF run, makes
        # 18 blocks: the caller advances blocks 0, 2, ..., the worker 1, 3, ...
        self.benchmark_pass(2, trials=2, horizon=8)
        starts = sorted({address for _, address in advanced})
        assert len(starts) == 18
        for thread, address in advanced:
            caller = starts.index(address) % 2 == 0
            assert (thread is threading.main_thread()) == caller

    def test_split_run_with_diverged_trials_is_bit_identical(self, blas, monkeypatch, advanced):
        # One spiked measurement diverges trial 0 in every run; the split
        # passes, the first and the rerun without trial 0, match the inline.
        def spiked(*args, **kwargs):
            X, Y = simulate_trials(*args, **kwargs)
            Y[0, 4, 0] = 1e12
            return X, Y

        monkeypatch.setattr(harness, "simulate_trials", spiked)
        scn = triangle_scenario(trials=200)
        monkeypatch.setattr(harness, "SPLIT_MIN_TRIALS", 10**9)
        inline = run_monte_carlo(scn, with_theory=False)
        monkeypatch.setattr(harness, "SPLIT_MIN_TRIALS", 1)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        split = run_monte_carlo(scn, with_theory=False)
        assert (inline.filter_threads, split.filter_threads) == (1, 2)
        assert worker_advanced(advanced)
        assert all(r.diverged == (0,) for r in split.runs)
        assert_same_runs(split.runs, inline.runs)

    def test_few_trials_run_inline(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        trials = harness.SPLIT_MIN_TRIALS - 1
        assert harness._filter_threads(trials, 18) == 1
        assert harness._filter_threads(trials + 1, 1) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_is_pinned_in_the_pass_and_restored_after(self, blas, monkeypatch, threads):
        get, _ = blas
        before = get()
        seen = []
        screen = harness._flag_diverged

        def watched(*args):
            seen.append((threading.current_thread(), get()))
            return screen(*args)

        monkeypatch.setattr(harness, "_flag_diverged", watched)
        self.benchmark_pass(threads, trials=2, horizon=4)
        assert seen and {count for _, count in seen} == {1}
        assert worker_advanced(seen) == (threads == 2)
        assert get() == before

    def test_concurrent_pins_hold_one_thread_and_restore_the_count(self, blas):
        # More threads than cores pin and unpin at a short switch interval. A
        # lost update of the pin count would restore the count under another
        # thread's pin, or leave it pinned after the last.
        get, _ = blas
        before = get()
        seen = []

        def pin_often():
            for _ in range(200):
                with harness._one_blas_thread():
                    seen.append(get())

        workers = [threading.Thread(target=pin_often) for _ in range(2 * os.cpu_count() + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 200 * len(workers) and set(seen) == {1}
        assert get() == before

    def test_blas_is_restored_when_a_worker_raises(self, blas, monkeypatch):
        from filterlab import NumericalError

        get, _ = blas
        before = get()
        screen = harness._flag_diverged

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise NumericalError("the worker's block failed")
            return screen(*args)

        monkeypatch.setattr(harness, "_flag_diverged", failing)
        with pytest.raises(NumericalError, match="worker"):
            self.benchmark_pass(2, trials=2, horizon=4)
        assert get() == before

    def overflowing_pass(self, threads):
        # A huge measurement at k = 3 overflows the squared errors.
        scn = triangle_scenario(trials=4, filters=("ckf", "cmdf"))
        X, Y = simulate_trials(scn.plant, scn.horizon, range(4))
        Y[:, 3] = 1e200
        specs, Y = harness._filter_runs(scn), harness._measured(scn.plant, Y)
        return harness._run_filters(scn.plant, specs, X, Y, False, threads)

    def test_split_pass_keeps_the_callers_errstate(self, blas, advanced):
        # The overflow is reported as the overflow, not as the inf - inf of
        # the deviation that follows it. Under numpy's default errstate the
        # worker's overflow would warn, and a warning fails the test.
        for threads in (1, 2):
            with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
                self.overflowing_pass(threads)
        with np.errstate(all="ignore"):
            inline = self.overflowing_pass(1)
            advanced.clear()
            split = self.overflowing_pass(2)
        assert worker_advanced(advanced)
        assert all(r.diverged == (0, 1, 2, 3) for r in inline)
        assert_same_runs(split, inline)

    def test_overflowing_deviations_are_reported(self):
        # Errors near 1e80 square to finite values, but their deviations
        # from the step's mean square beyond the largest float.
        scn = triangle_scenario(trials=4, filters=("ckf",))
        X, Y = simulate_trials(scn.plant, scn.horizon, range(4))
        Y[:, 3] = np.array([[1e80], [-1e80], [1e80], [2e80]])
        specs, Y = harness._filter_runs(scn), harness._measured(scn.plant, Y)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            harness._run_filters(scn.plant, specs, X, Y, False)
        with np.errstate(over="ignore"):
            (run,) = harness._run_filters(scn.plant, specs, X, Y, False)
        assert np.isfinite(run.mse_per_step).all()
        assert np.isinf(run.step_se[0, 3:]).any()


class TestBlockedPass:
    """The estimates advance in blocks of whole runs over windows of steps;
    no block size or window length moves a bit."""

    HORIZON = 64
    # One run a block (the CKF row riding with the first CMDF run), the
    # default, and the whole stack as one block.
    BLOCK_BUDGETS = [0, harness.BLOCK_BYTES, 2**62]

    @pytest.fixture(scope="class")
    def spiked(self):
        # Sensor 0 measures at odd slots: one spiked measurement diverges
        # trial 0 in every run.
        scn = benchmark_scenario(trials=40)
        X, Y = simulate_trials(scn.plant, self.HORIZON, range(40))
        Y[0, 5, 0] = 1e12
        return scn.plant, harness._filter_runs(scn), X, harness._measured(scn.plant, Y)

    def blocked_pass(self, spiked, block_bytes, window, threads=1):
        plant, specs, X, Y = spiked
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "BLOCK_BYTES", block_bytes)
            mp.setattr(harness, "WINDOW_STEPS", window)
            with np.errstate(over="ignore"):
                return harness._run_filters(plant, specs, X, Y, True, threads)

    @pytest.fixture(scope="class")
    def whole(self, spiked):
        # The whole stack as one block, one step at a time.
        return self.blocked_pass(spiked, 2**62, 1)

    @pytest.mark.parametrize("window", [1, 7, HORIZON])
    @pytest.mark.parametrize("block_bytes", BLOCK_BUDGETS, ids=["run", "default", "stack"])
    def test_blocks_and_windows_move_no_bit(self, spiked, whole, block_bytes, window):
        for threads in (1, 2):
            runs = self.blocked_pass(spiked, block_bytes, window, threads)
            assert all(r.diverged == (0,) for r in runs)
            assert all(r.theory_per_step is not None for r in runs if r.name != "cidf")
            assert_same_runs(runs, whole)

    @pytest.mark.parametrize("block_bytes", BLOCK_BUDGETS, ids=["run", "default", "stack"])
    def test_blocks_are_whole_runs_and_the_ckf_row_shares_one(
        self, spiked, block_bytes, monkeypatch
    ):
        monkeypatch.setattr(harness, "BLOCK_BYTES", block_bytes)
        _, specs, X, _ = spiked
        sizes = [len(fusion) for *_, fusion in specs]
        order, _, bounds = harness._pass_layout(specs, 4, len(X))
        ends = np.cumsum([0] + [sizes[r] for r in order]).tolist()
        assert set(bounds) <= set(ends) and bounds[0] == 0 and bounds[-1] == 361
        # The CKF row is the first; a one-row GEMM would round differently.
        assert order[0] == 0 and bounds[1] >= 2
        if block_bytes == 0:
            assert bounds == [0, 21] + ends[3:]
        elif block_bytes == 2**62:
            assert bounds == [0, 361]

    @pytest.mark.parametrize(
        "sizes, bounds",
        [
            ([20, 1], [0, 21]),  # a last run of one row joins the run before it
            ([1, 1, 20], [0, 2, 22]),
            ([1], [0, 1]),  # a one-row pass has one one-row block
        ],
    )
    def test_one_row_runs_never_form_a_block_of_their_own(self, sizes, bounds, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_BYTES", 0)
        runs = [("cmdf", None, np.eye(size), np.ones((size, 1))) for size in sizes]
        assert harness._pass_layout(runs, 4, 10)[2] == bounds


class TestActiveSensors:
    """A sensor that does not measure at a slot is left out of that slot's
    fuse and fused information, and a slot where none measures fuses
    nothing; what is left out is exact zeros, so no bit moves."""

    def test_benchmark_relays_and_silent_slots(self, bench_plant):
        # The 6 measuring sensors are the first; the 14 relays have no
        # entry, and the 6 measure at the odd slots only.
        sensors, active, to_info, own = gap._sensor_information(bench_plant)
        assert (sensors == (np.arange(20) < 6)).all()
        assert active.shape == (30, 6)
        assert not active[0::2].any()
        assert active[1::2].all()
        assert to_info.shape == (30, 6, 4, 6) and own.shape == (30, 6, 4, 4)

    def filter_pass(self, scn, trials=6, horizon=64):
        X, Y = simulate_trials(scn.plant, horizon, range(trials))
        specs, Y = harness._filter_runs(scn), harness._measured(scn.plant, Y)
        return harness._run_filters(scn.plant, specs, X, Y, True)

    @pytest.mark.parametrize("graph_seed", [12, 5, 2])
    def test_benchmark_pass_is_bit_identical_to_fusing_every_sensor(
        self, graph_seed, monkeypatch
    ):
        scn = benchmark_scenario(trials=6, graph_seed=graph_seed, L_values=(1, 3, 6))
        skipped = self.filter_pass(scn)
        monkeypatch.setattr(gap, "_sensor_information", every_sensor_measuring)
        assert_same_runs(skipped, self.filter_pass(scn))

    def test_pass_without_silent_slots_is_bit_identical(self, monkeypatch):
        # Each slot of the triangle's plant has a measuring sensor and two
        # that do not.
        scn = triangle_scenario()
        assert gap._sensor_information(scn.plant)[1].sum(axis=1).tolist() == [1, 1]
        skipped = self.filter_pass(scn, horizon=12)
        monkeypatch.setattr(gap, "_sensor_information", every_sensor_measuring)
        assert_same_runs(skipped, self.filter_pass(scn, horizon=12))

    def test_silent_slots_skip_the_fuse(self, monkeypatch):
        # The fuse is the one product of the (rows, sensors) weights with
        # the (sensors, n * trials) measurement information: 15 of the 30
        # slots of the benchmark skip it, and the others fuse 6 sensors.
        scn = benchmark_scenario(trials=3, L_values=(4,))
        fuses = []
        matmul = np.matmul

        def recorded(a, b, *args, **kwargs):
            if b.ndim == 2 and b.shape[1] == scn.plant.n * 3:
                fuses.append(b.shape[0])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(harness.np, "matmul", recorded)
        self.filter_pass(scn, trials=3, horizon=60)
        assert fuses == [6] * 30

    def test_the_pass_holds_only_the_measuring_sensors_columns(self, monkeypatch):
        # Of the benchmark's 20 measurement columns the pass, and the rerun
        # of a run without its diverged trial, get the 6 of the sensors
        # that measure; the 14 relays' columns are gone.
        shapes = []
        run_filters = harness._run_filters

        def recorded(plant, runs, X, Y, *args):
            shapes.append(Y.shape)
            return run_filters(plant, runs, X, Y, *args)

        def spiked(*args, **kwargs):
            X, Y = simulate_trials(*args, **kwargs)
            Y[0, 5, 0] = 1e12  # sensor 0 measures at odd slots
            return X, Y

        monkeypatch.setattr(harness, "_run_filters", recorded)
        monkeypatch.setattr(harness, "simulate_trials", spiked)
        scn = benchmark_scenario(trials=100, horizon=60, filters=("ckf",))
        (run,) = run_monte_carlo(scn, with_theory=False).runs
        assert run.diverged == (0,)
        assert shapes == [(100, 61, 6), (99, 61, 6)]

    def test_full_width_measurements_are_rejected(self):
        scn = benchmark_scenario(trials=2, horizon=60, filters=("ckf",))
        X, Y = simulate_trials(scn.plant, 60, range(2))
        specs = harness._filter_runs(scn)
        with pytest.raises(ValidationError, match=r"6 measured columns of Y \(_measured\), got 20"):
            harness._run_filters(scn.plant, specs, X, Y, False)
