import numpy as np
import pytest

from filterlab import (
    NumericalError,
    PeriodicSequence,
    PlantModel,
    ValidationError,
    benchmark_plant,
    normalize_period,
    simulate_trials,
)
from measurement_form import stacked_observation
from reference_filters import simulate_trajectory
from reference_simulation import dense_simulate_trials, reference_trial


class TestPeriodicSequence:
    def test_modular_access(self):
        seq = PeriodicSequence([np.eye(2) * k for k in range(3)])
        for k in range(12):
            assert np.array_equal(seq.at(k), np.eye(2) * (k % 3))

    def test_uniform_shape_enforced(self):
        with pytest.raises(ValidationError):
            PeriodicSequence([np.eye(2), np.eye(3)])

    def test_scalar_coercion(self):
        seq = PeriodicSequence(0.5)
        assert seq.shape == (1, 1)
        assert seq.at(7) == np.array([[0.5]])

    def test_items_readonly(self):
        seq = PeriodicSequence([np.eye(2)])
        with pytest.raises(ValueError):
            seq.at(0)[0, 0] = 5.0

    def test_whole_stack_read_as_its_matrices(self):
        # A 3-D array, or a list of equally shaped matrices, is read in one
        # copy: the same stack as reading each matrix, the caller's array
        # left writable.
        stack = np.random.default_rng(1).standard_normal((5, 3, 2))
        for items in (stack, list(stack), [m.tolist() for m in stack], stack.tolist()):
            seq = PeriodicSequence(items)
            assert np.array_equal(seq.stack, stack) and seq.stack.dtype == float
        PeriodicSequence(stack)
        stack[0, 0, 0] = 1.0
        assert seq.stack[0, 0, 0] != 1.0
        # Items that are not all matrices of one shape are read one by one.
        assert PeriodicSequence([1.0, 2.0]).stack.shape == (2, 1, 1)
        assert PeriodicSequence([[1.0, 2.0], [3.0, 4.0]]).stack.shape == (2, 1, 2)
        with pytest.raises(ValidationError, match="item 1 has shape"):
            PeriodicSequence([[[1.0]], [[1.0, 2.0]]])
        with pytest.raises(ValidationError, match="item 0 is not a matrix"):
            PeriodicSequence([np.zeros((2, 2, 2))])
        with pytest.raises(ValidationError, match="at least one matrix"):
            PeriodicSequence(np.zeros((0, 2, 2)))


class TestNormalizePeriod:
    def test_benchmark_periods_combine_to_thirty(self):
        seqs = [
            PeriodicSequence([np.eye(1) * k for k in range(6)]),
            PeriodicSequence([np.eye(1) * k for k in range(10)]),
            PeriodicSequence([np.eye(1) * k for k in range(2)]),
        ]
        out = normalize_period(seqs)
        assert all(s.period == 30 for s in out)

    def test_single_period_one_unchanged(self):
        seq = PeriodicSequence(np.ones((2, 2)))
        (out,) = normalize_period([seq])
        assert out.period == 1
        assert np.array_equal(out.at(0), np.ones((2, 2)))

    def test_two_three_constant_items(self):
        # Oracle: direct modular indexing of the originals at k = 0..5.
        a = PeriodicSequence([np.full((1, 1), 3.0)] * 2)
        b = PeriodicSequence([np.full((1, 1), 7.0)] * 3)
        oa, ob = normalize_period([a, b])
        assert oa.period == 6 and ob.period == 6
        for k in range(6):
            assert oa.at(k) == a.at(k % 2)
            assert ob.at(k) == b.at(k % 3)

    def test_values_unchanged_pointwise(self):
        rng = np.random.default_rng(0)
        a = PeriodicSequence([rng.normal(size=(2, 2)) for _ in range(4)])
        b = PeriodicSequence([rng.normal(size=(3, 3)) for _ in range(6)])
        oa, ob = normalize_period([a, b])
        assert oa.period == 12
        for k in range(24):
            assert np.array_equal(oa.at(k), a.at(k))
            assert np.array_equal(ob.at(k), b.at(k))


I2 = np.eye(2)


class TestPlantModel:
    def test_rejects_indefinite_q(self):
        with pytest.raises(ValidationError):
            PlantModel(A=[[1.0]], Q=[[0.0]], C=[[[1.0]]], R=[[[1.0]]])

    def test_rejects_asymmetric_r(self):
        with pytest.raises(ValidationError):
            PlantModel(
                A=np.eye(2),
                Q=np.eye(2),
                C=[np.eye(2)],
                R=[np.array([[1.0, 0.3], [0.0, 1.0]])],
            )

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_noise_checks_hold_at_every_scale(self, scale):
        good = scale * np.eye(2)
        model = PlantModel(A=np.eye(2), Q=good, C=[np.eye(2)], R=[good])
        assert np.array_equal(model.Q.at(0), good)
        bad = [
            np.zeros((2, 2)),
            -np.eye(2),
            np.ones((2, 2)),
            np.array([[1.0, 0.3], [0.0, 1.0]]),
        ]
        for M in bad:
            with pytest.raises(ValidationError):
                PlantModel(A=np.eye(2), Q=scale * M, C=[np.eye(2)], R=[good])
            with pytest.raises(ValidationError):
                PlantModel(A=np.eye(2), Q=good, C=[np.eye(2)], R=[scale * M])

    @pytest.mark.parametrize(
        "slots, message",
        [
            ([I2, [[1.0, np.inf], [np.inf, 1.0]], -I2], r"Q\[1\] has non-finite entries"),
            ([I2, [[1.0, 0.3], [0.0, 1.0]], np.full((2, 2), np.nan)], r"Q\[1\] is not symmetric"),
            ([I2, I2, -I2], r"Q\[2\] is not positive definite"),
        ],
    )
    def test_noise_error_names_first_bad_slot(self, slots, message):
        # All slots are checked as one stack; the error names the first bad
        # slot and the first check it fails.
        with pytest.raises(ValidationError, match=message):
            PlantModel(A=I2, Q=[np.asarray(M) for M in slots], C=[I2], R=[I2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            PlantModel(A=np.eye(2), Q=np.eye(2), C=[np.ones((1, 3))], R=[np.eye(1)])

    def test_total_observation_dim(self):
        model = PlantModel(
            A=np.eye(3),
            Q=np.eye(3),
            C=[np.ones((1, 3)), np.ones((2, 3))],
            R=[np.eye(1), np.eye(2)],
        )
        assert model.m == 3
        assert model.sensor_dims == (1, 2)

    def test_json_round_trip(self):
        model = benchmark_plant()
        clone = PlantModel.from_dict(model.to_dict())
        assert clone.period == model.period
        for k in range(model.period):
            assert np.array_equal(clone.A.at(k), model.A.at(k))
            assert np.array_equal(clone.Q.at(k), model.Q.at(k))
        for Ci, Cj in zip(clone.C, model.C):
            assert np.array_equal(Ci.at(3), Cj.at(3))

    def test_builtin_lookup(self):
        model = PlantModel.from_dict({"builtin": "paper_sec5"})
        assert model.N == 20
        with pytest.raises(ValidationError):
            PlantModel.from_dict({"builtin": "nope"})


class TestStackedObservation:
    def test_benchmark_odd_steps_observe(self, bench_plant):
        C, R = stacked_observation(bench_plant, 1)
        for row in range(3):
            assert np.array_equal(C[row], [1.0, 0.0, 0.0, 0.0])
        for row in range(3, 6):
            assert np.array_equal(C[row], [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(C[6:], np.zeros((14, 4)))
        assert np.array_equal(R, np.eye(20))
        C_even, _ = stacked_observation(bench_plant, 2)
        assert np.array_equal(C_even, np.zeros((20, 4)))

    def test_single_sensor_identity(self):
        model = PlantModel(A=np.eye(2), Q=np.eye(2), C=[np.eye(2)], R=[np.eye(2)])
        C, R = stacked_observation(model, 5)
        assert np.array_equal(C, np.eye(2))
        assert np.array_equal(R, np.eye(2))

    def test_two_sensor_block_diagonal(self):
        # Oracle: entrywise hand construction.
        C1 = np.array([[1.0, 2.0]])
        C2 = np.array([[3.0, 4.0], [5.0, 6.0]])
        R1 = np.array([[2.0]])
        R2 = np.array([[3.0, 1.0], [1.0, 3.0]])
        model = PlantModel(A=np.eye(2), Q=np.eye(2), C=[C1, C2], R=[R1, R2])
        C, R = stacked_observation(model, 0)
        assert np.array_equal(C, np.vstack([C1, C2]))
        expected = np.zeros((3, 3))
        expected[0, 0] = 2.0
        expected[1:, 1:] = R2
        assert np.array_equal(R, expected)


class TestSimulateTrajectory:
    def test_noiseless_identity(self):
        model = PlantModel(A=np.eye(2), Q=np.eye(2), C=[np.eye(2)], R=[np.eye(2)])
        traj = simulate_trajectory(model, K=5, seed=0, x0=[1.0, 1.0], noise_scale=0.0)
        assert np.array_equal(traj.states, np.ones((6, 2)))

    def test_geometric_decay(self):
        model = PlantModel(A=[[0.5]], Q=[[1.0]], C=[[[1.0]]], R=[[[1.0]]])
        traj = simulate_trajectory(model, K=3, seed=0, x0=[1.0], noise_scale=0.0)
        assert np.allclose(traj.states[:, 0], [1.0, 0.5, 0.25, 0.125])

    def test_seed_determinism_bit_exact(self, bench_plant):
        a = simulate_trajectory(bench_plant, K=40, seed=123)
        b = simulate_trajectory(bench_plant, K=40, seed=123)
        assert np.array_equal(a.states, b.states)
        for ya, yb in zip(a.measurements, b.measurements):
            assert np.array_equal(ya, yb)
        c = simulate_trajectory(bench_plant, K=40, seed=124)
        assert not np.array_equal(a.states, c.states)

    def test_process_noise_covariance(self, bench_plant):
        # Monte Carlo oracle: the first increment is exactly the process
        # noise when x0 = 0, so its sample covariance must approach Q_0.
        X, _ = simulate_trials(bench_plant, K=1, seeds=range(10_000))
        sample = np.cov(X[:, 1].T)
        Q = bench_plant.Q.at(0)
        rel = np.linalg.norm(sample - Q, 2) / np.linalg.norm(Q, 2)
        assert rel < 0.05

    def test_noise_whiteness(self):
        model = PlantModel(A=[[0.5]], Q=[[1.0]], C=[[[1.0]]], R=[[[1.0]]])
        K = 10_000
        traj = simulate_trajectory(model, K=K, seed=5)
        w = traj.states[1:, 0] - 0.5 * traj.states[:-1, 0]
        v = traj.measurements[0][:-1, 0] - traj.states[:-1, 0]
        rho = np.corrcoef(w, v)[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(K)

    def test_measurement_model(self):
        model = PlantModel(A=[[1.0]], Q=[[1.0]], C=[[[2.0]]], R=[[[1.0]]])
        traj = simulate_trajectory(model, K=4, seed=0, x0=[3.0], noise_scale=0.0)
        assert np.allclose(traj.measurements[0][:, 0], 2.0 * traj.states[:, 0])

    def test_unstable_plant_overflow_raises(self):
        model = PlantModel(A=[[3.0]], Q=[[1.0]], C=[[[1.0]]], R=[[[1.0]]])
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            simulate_trajectory(model, K=700, seed=0, x0=[1.0], noise_scale=0.0)

    def test_rejects_bad_arguments(self):
        model = PlantModel(A=[[1.0]], Q=[[1.0]], C=[[[1.0]]], R=[[[1.0]]])
        with pytest.raises(ValidationError):
            simulate_trajectory(model, K=0, seed=0)
        with pytest.raises(ValidationError):
            simulate_trajectory(model, K=2, seed=0, noise_scale=-1.0)
        for scale in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                simulate_trajectory(model, K=2, seed=0, noise_scale=scale)


class TestSimulateTrials:
    @pytest.mark.parametrize(
        "x0, noise_scale", [(None, 1.0), ([1.0, -2.0, 0.5, 3.0], 0.5)]
    )
    def test_matches_per_trial_reference(self, bench_plant, x0, noise_scale):
        seeds = np.random.SeedSequence(2023).spawn(50)
        X, Y = simulate_trials(bench_plant, 100, seeds, x0, noise_scale)
        assert X.shape == (50, 101, 4) and Y.shape == (50, 101, 20)
        for l, seed in enumerate(seeds):
            states, measurements = reference_trial(bench_plant, 100, seed, x0, noise_scale)
            # Batched products round differently from per-vector ones, so
            # near-zero entries only agree relative to the trial's size.
            assert np.abs(X[l] - states).max() <= 1e-13 * np.abs(states).max()
            assert np.abs(Y[l] - measurements).max() <= 1e-13 * np.abs(measurements).max()

    def test_noiseless_trials_are_the_deterministic_response(self, bench_plant):
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        X, Y = simulate_trials(bench_plant, 60, range(3), x0, noise_scale=0.0)
        # No noise is drawn: the seeds do not matter and every trial is the same.
        other = simulate_trials(bench_plant, 60, [97, 98, 99], x0, noise_scale=0.0)
        assert np.array_equal(X, other[0]) and np.array_equal(Y, other[1])
        assert np.array_equal(X, np.broadcast_to(X[0], X.shape))
        states, measurements = reference_trial(bench_plant, 60, 0, x0, noise_scale=0.0)
        assert np.abs(X[0] - states).max() <= 1e-13 * np.abs(states).max()
        # The benchmark's C rows pick single states, so y = C x is exact.
        for k in range(61):
            C = np.vstack([Ci.at(k) for Ci in bench_plant.C])
            assert np.array_equal(Y[:, k], X[:, k] @ C.T)

    @pytest.mark.parametrize(
        "x0, noise_scale",
        [(None, 1.0), ([1.0, -2.0, 0.5, 3.0], 0.5), ([1.0, -2.0, 0.5, 3.0], 0.0)],
    )
    def test_benchmark_matches_the_dense_body_bit_for_bit(self, bench_plant, x0, noise_scale):
        # One-row sensors: each measurement sums one noise term and one
        # state term, with or without the dense factor's zeros.
        seeds = np.random.SeedSequence(31).spawn(40)
        got = simulate_trials(bench_plant, 70, seeds, x0, noise_scale)
        want = dense_simulate_trials(bench_plant, 70, seeds, x0, noise_scale)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_two_row_sensor_with_correlated_noise_matches_the_dense_body(self):
        # A two-row sensor and a two-row relay with non-diagonal R, beside a
        # one-row sensor, over a period of 2.
        rng = np.random.default_rng(4)

        def spd(size):
            M = rng.standard_normal((size, size))
            return M @ M.T + size * np.eye(size)

        A = [0.9 * M / np.linalg.norm(M, 2) for M in rng.standard_normal((2, 3, 3))]
        C = [list(rng.standard_normal((2, 2, 3))), [rng.standard_normal((1, 3))], [np.zeros((2, 3))]]
        R = [[spd(2), spd(2)], [spd(1)], [spd(2)]]
        plant = PlantModel(A=A, Q=[spd(3), spd(3)], C=C, R=R)
        assert plant.R[0].stack[:, 0, 1].all() and plant.R[2].stack[:, 0, 1].all()
        seeds = np.random.SeedSequence(8).spawn(25)
        X, Y = simulate_trials(plant, 40, seeds, noise_scale=0.8)
        X0, Y0 = dense_simulate_trials(plant, 40, seeds, noise_scale=0.8)
        assert X.tobytes() == X0.tobytes() and Y.shape == (25, 41, 5)
        np.testing.assert_allclose(Y, Y0, rtol=1e-15, atol=0)

    def test_one_trial_view(self, bench_plant):
        seed = np.random.SeedSequence(5).spawn(1)[0]
        traj = simulate_trajectory(bench_plant, 30, seed, noise_scale=0.7)
        X, Y = simulate_trials(bench_plant, 30, [seed], noise_scale=0.7)
        assert np.array_equal(traj.states, X[0])
        assert np.array_equal(np.concatenate(traj.measurements, axis=1), Y[0])


class TestBenchmarkPlant:
    def test_shape(self, bench_plant):
        assert bench_plant.period == 30
        assert bench_plant.N == 20
        assert bench_plant.n == 4
        assert bench_plant.m == 20

    def test_naive_sensor_count(self, bench_plant):
        zero_sensors = [
            i
            for i in range(20)
            if all(
                np.array_equal(bench_plant.C[i].at(k), np.zeros((1, 4)))
                for k in range(30)
            )
        ]
        assert len(zero_sensors) == 14

    def test_noise_block(self, bench_plant):
        G = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
        assert np.allclose(bench_plant.Q.at(0)[:2, :2], G)
        assert np.allclose(bench_plant.Q.at(0)[:2, 2:], 0.5 * G)
        assert np.allclose(bench_plant.Q.at(11), bench_plant.Q.at(4))

    def test_unit_measurement_noise(self, bench_plant):
        for i in range(20):
            for k in range(30):
                assert bench_plant.R[i].at(k) == np.array([[1.0]])

    def test_periodicity_of_dynamics(self, bench_plant):
        for k in range(30):
            assert np.allclose(bench_plant.A.at(k + 30), bench_plant.A.at(k))
        assert np.allclose(bench_plant.A.at(0)[:2, :2], [[0.8, 0.0], [0.7, 1.2]])
