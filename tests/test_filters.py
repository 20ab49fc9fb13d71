import math

import numpy as np
import pytest

from conftest import (
    complete_graph,
    scalar_plant,
    two_node_weights,
    two_sensor_scalar_plant,
)
from filterlab import (
    ConsensusWeights,
    PlantModel,
    ValidationError,
    metropolis_weights,
    simulate_trials,
    weight_power,
)
from measurement_form import modified_observation
from reference_filters import (
    NodeState,
    ckf_step,
    cidf_step,
    cmdf_step,
    default_states,
    fusion_rounds,
    simulate_trajectory,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def run_ckf(model, traj, steps):
    state = default_states(model)[0]
    out = [state]
    for k in range(1, steps + 1):
        y_all = np.concatenate([y[k] for y in traj.measurements])
        state = ckf_step(model, state, y_all, k)
        out.append(state)
    return out


class TestNodeState:
    def test_validates_covariance(self):
        with pytest.raises(ValidationError):
            NodeState(estimate=np.zeros(2), covariance=np.diag([1.0, -1.0]))
        with pytest.raises(ValidationError):
            NodeState(estimate=np.zeros(2), covariance=np.array([[1, 0.5], [0.0, 1]]))
        with pytest.raises(ValidationError):
            NodeState(estimate=np.zeros(3), covariance=np.eye(2))


class TestCkfStep:
    def test_scalar_covariance_converges_to_golden_ratio(self):
        model = scalar_plant()
        traj = simulate_trajectory(model, K=300, seed=0, noise_scale=0.0)
        states = run_ckf(model, traj, 300)
        post = states[-1].covariance[0, 0]
        # Posterior fixed point is 1/(1/PHI + ... ) == PHI/(PHI+1).
        assert post == pytest.approx(PHI / (PHI + 1.0), abs=1e-10)
        prior = 1.0 * post * 1.0 + 1.0
        assert prior == pytest.approx(PHI, abs=1e-10)

    def test_zero_observation_reduces_to_prediction(self):
        model = PlantModel(A=[[0.8]], Q=[[0.5]], C=[[[0.0]]], R=[[[1.0]]])
        state = NodeState(estimate=np.array([2.0]), covariance=np.array([[1.0]]))
        new = ckf_step(model, state, np.array([37.0]), 1)
        assert new.estimate[0] == pytest.approx(1.6, abs=1e-12)
        assert new.covariance[0, 0] == pytest.approx(0.8**2 + 0.5, abs=1e-12)

    def test_noiseless_exact_initialization_tracks_truth(self):
        model = PlantModel(
            A=np.array([[0.9, 0.1], [0.0, 0.8]]),
            Q=np.eye(2),
            C=[np.eye(2)],
            R=[np.eye(2)],
        )
        x0 = np.array([0.4, -1.2])
        traj = simulate_trajectory(model, K=20, seed=0, x0=x0, noise_scale=0.0)
        state = NodeState(estimate=x0, covariance=np.eye(2))
        for k in range(1, 21):
            state = ckf_step(model, state, traj.measurements[0][k], k)
            assert np.allclose(state.estimate, traj.states[k], atol=1e-10)

    def test_rejects_bad_measurement_size(self):
        model = scalar_plant()
        state = default_states(model)[0]
        with pytest.raises(ValidationError):
            ckf_step(model, state, np.zeros(3), 1)

    def test_covariance_iteration_follows_riccati_recursion(self):
        # The filter's predicted covariance must reproduce the plain
        # forward Riccati recursion step for step (it is data-independent).
        model = PlantModel(
            A=[np.array([[0.9, 0.2], [0.0, 0.7]]), np.array([[0.5, 0.1], [0.2, 0.8]])],
            Q=0.6 * np.eye(2),
            C=[np.array([[1.0, 0.5]])],
            R=[np.array([[0.8]])],
        )
        traj = simulate_trajectory(model, K=12, seed=4)
        state = default_states(model)[0]
        P = np.eye(2)
        for k in range(1, 13):
            A, Q = model.A.at(k - 1), model.Q.at(k - 1)
            C, R = model.C[0].at(k), model.R[0].at(k)
            P = A @ P @ A.T + Q
            pred_from_filter = A @ state.covariance @ A.T + Q
            assert np.allclose(pred_from_filter, P, atol=1e-12)
            S = C @ P @ C.T + R
            P = P - P @ C.T @ np.linalg.solve(S, C @ P)
            state = ckf_step(model, state, traj.measurements[0][k], k)


class TestCmdfStep:
    def test_single_node_equals_ckf(self):
        model = scalar_plant(a=0.9, c=1.0, q=0.3, r=0.5)
        weights = ConsensusWeights(matrix=np.eye(1))
        traj = simulate_trajectory(model, K=30, seed=1)
        ck = default_states(model)[0]
        cm = default_states(model)
        for k in range(1, 31):
            y = [yy[k] for yy in traj.measurements]
            ck = ckf_step(model, ck, np.concatenate(y), k)
            cm = cmdf_step(model, weights, 3, cm, y, k)
            assert np.allclose(cm[0].estimate, ck.estimate, atol=1e-12)
            assert np.allclose(cm[0].covariance, ck.covariance, atol=1e-12)

    def test_complete_graph_single_round_matches_centralized(self, bench_plant):
        # One averaging round on the complete graph reproduces the exact
        # global information sums, so every node equals the fusion center.
        weights = metropolis_weights(complete_graph(bench_plant.N))
        traj = simulate_trajectory(bench_plant, K=30, seed=3)
        central = default_states(bench_plant)[0]
        nodes = default_states(bench_plant)
        for k in range(1, 31):
            y = [yy[k] for yy in traj.measurements]
            central = ckf_step(bench_plant, central, np.concatenate(y), k)
            nodes = cmdf_step(bench_plant, weights, 1, nodes, y, k)
            for node in nodes:
                err = np.linalg.norm(node.estimate - central.estimate)
                assert err <= 1e-10 * max(1.0, np.linalg.norm(central.estimate))
                assert np.allclose(node.covariance, central.covariance, atol=1e-10)

    def test_no_fusion_uses_scaled_own_information(self):
        model = two_sensor_scalar_plant(a=0.9)
        weights = two_node_weights(0.3)
        states = default_states(model)
        traj = simulate_trajectory(model, K=2, seed=0)
        y = [yy[1] for yy in traj.measurements]
        new = cmdf_step(model, weights, 0, states, y, 1)
        # With L = 0 node i corrects with N * (own information) only.
        for i in range(2):
            P_pred = 0.9**2 * 1.0 + 1.0
            c = [1.0, 0.5][i]
            expected_post = 1.0 / (1.0 / P_pred + 2.0 * c * c)
            assert new[i].covariance[0, 0] == pytest.approx(expected_post, abs=1e-12)

    def test_naive_node_without_fusion_stays_open_loop(self):
        model = PlantModel(
            A=[[0.7]], Q=[[0.4]],
            C=[[[1.0]], [[0.0]]],
            R=[[[1.0]], [[1.0]]],
        )
        weights = two_node_weights(0.25)
        states = [
            NodeState(estimate=np.array([1.0]), covariance=np.array([[2.0]])),
            NodeState(estimate=np.array([1.0]), covariance=np.array([[2.0]])),
        ]
        y = [np.array([0.3]), np.array([0.0])]
        new = cmdf_step(model, weights, 0, states, y, 1)
        assert new[1].estimate[0] == pytest.approx(0.7, abs=1e-12)
        assert new[1].covariance[0, 0] == pytest.approx(0.7**2 * 2 + 0.4, abs=1e-12)

    def test_consensus_conserves_information_totals(self, bench_plant, bench_weights):
        traj = simulate_trajectory(bench_plant, K=2, seed=9)
        y = [yy[1] for yy in traj.measurements]
        base_S, base_I = fusion_rounds(bench_plant, bench_weights, 0, y, 1)
        total_S = sum(base_S)
        total_I = sum(base_I)
        for L in (1, 3, 7):
            fused_S, fused_I = fusion_rounds(bench_plant, bench_weights, L, y, 1)
            S = sum(fused_S)
            I = sum(fused_I)
            assert np.linalg.norm(S - total_S, 2) <= 1e-9 * max(
                1.0, np.linalg.norm(total_S, 2)
            )
            assert np.linalg.norm(I - total_I) <= 1e-9 * max(
                1.0, np.linalg.norm(total_I)
            )

    def test_posterior_information_increment_matches_weight_power(
        self, bench_plant, bench_weights
    ):
        # The posterior precision must equal the prior precision plus
        # N * sum_j l_ij^(L) C_j' R_j^{-1} C_j.
        L = 3
        traj = simulate_trajectory(bench_plant, K=2, seed=4)
        states = default_states(bench_plant)
        y = [yy[1] for yy in traj.measurements]
        new = cmdf_step(bench_plant, bench_weights, L, states, y, 1)
        power, _ = weight_power(bench_weights, L)
        A, Q = bench_plant.A.at(0), bench_plant.Q.at(0)
        P_pred = A @ np.eye(4) @ A.T + Q
        for i in (0, 5, 13):
            increment = sum(
                bench_plant.N
                * power[i, j]
                * bench_plant.C[j].at(1).T
                @ np.linalg.solve(bench_plant.R[j].at(1), bench_plant.C[j].at(1))
                for j in range(bench_plant.N)
            )
            lhs = np.linalg.inv(new[i].covariance)
            rhs = np.linalg.inv(P_pred) + increment
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * np.linalg.norm(rhs, 2)


class TestModifiedObservation:
    def test_complete_graph_single_round_recovers_raw_noise(self, bench_plant):
        weights = metropolis_weights(complete_graph(bench_plant.N))
        mod = modified_observation(bench_plant, weights, 1, 0, 1)
        assert mod.support.all()
        # N * l_ij = 1 exactly, so the effective noise equals the raw noise.
        assert np.allclose(mod.R_effective, np.eye(20), atol=1e-12)
        assert np.allclose(mod.R_masked, np.eye(20))

    def test_full_support_at_diameter(self, bench_plant, bench_graph, bench_weights):
        from filterlab import diameter

        d = diameter(bench_graph)
        for i in (0, 7, 19):
            mod = modified_observation(bench_plant, bench_weights, d, i, 1)
            assert mod.support.all()
            C_full = np.vstack([bench_plant.C[j].at(1) for j in range(20)])
            assert np.array_equal(mod.C, C_full)

    def test_no_fusion_supports_self_only(self, bench_plant, bench_weights):
        mod = modified_observation(bench_plant, bench_weights, 0, 4, 1)
        assert mod.support[4]
        assert mod.support.sum() == 1
        C_c, R_eff_c, R_mask_c = mod.compressed()
        assert C_c.shape == (1, 4)
        # Own weight is 1 at L = 0, so the effective noise is R / N.
        assert R_eff_c[0, 0] == pytest.approx(1.0 / 20.0, abs=1e-15)
        assert R_mask_c[0, 0] == 1.0

    def test_information_identity(self, bench_plant, bench_weights):
        L, i, k = 2, 3, 1
        mod = modified_observation(bench_plant, bench_weights, L, i, k)
        power, _ = weight_power(bench_weights, L)
        direct = sum(
            bench_plant.N
            * power[i, j]
            * bench_plant.C[j].at(k).T
            @ np.linalg.solve(bench_plant.R[j].at(k), bench_plant.C[j].at(k))
            for j in range(bench_plant.N)
        )
        assert np.linalg.norm(mod.info_matrix() - direct, 2) <= 1e-10 * max(
            1.0, np.linalg.norm(direct, 2)
        )

    def test_correction_via_modified_matrices_matches_fusion(
        self, bench_plant, bench_weights
    ):
        # Covariance-form correction with the modified pair equals the
        # information-form correction with the fused sums.
        L, k = 3, 1
        traj = simulate_trajectory(bench_plant, K=2, seed=6)
        y = [yy[k] for yy in traj.measurements]
        states = default_states(bench_plant)
        stepped = cmdf_step(bench_plant, bench_weights, L, states, y, k)
        A, Q = bench_plant.A.at(0), bench_plant.Q.at(0)
        P_pred = A @ A.T + Q
        for i in (0, 11):
            mod = modified_observation(bench_plant, bench_weights, L, i, k)
            C_c, R_eff_c, _ = mod.compressed()
            S = C_c @ P_pred @ C_c.T + R_eff_c
            P_post = P_pred - P_pred @ C_c.T @ np.linalg.solve(S, C_c @ P_pred)
            assert np.linalg.norm(P_post - stepped[i].covariance, 2) <= 1e-9


class TestCidfStep:
    def test_single_node_is_local_kalman(self):
        model = scalar_plant(a=0.9, c=1.0, q=0.3, r=0.5)
        weights = ConsensusWeights(matrix=np.eye(1))
        traj = simulate_trajectory(model, K=20, seed=2)
        kf = default_states(model)[0]
        ci = default_states(model)
        for k in range(1, 21):
            y = [yy[k] for yy in traj.measurements]
            kf = ckf_step(model, kf, np.concatenate(y), k)
            ci = cidf_step(model, weights, 4, ci, y, k)
            assert np.allclose(ci[0].estimate, kf.estimate, atol=1e-12)

    def test_no_mixing_is_purely_local(self):
        model = two_sensor_scalar_plant(a=0.8, c1=1.0, c2=1.0)
        weights = two_node_weights(0.3)
        traj = simulate_trajectory(model, K=10, seed=7)
        # Local reference: per-sensor Kalman filters.
        locals_ = [
            PlantModel(A=[[0.8]], Q=[[1.0]], C=[[[1.0]]], R=[[[1.0]]])
            for _ in range(2)
        ]
        refs = [default_states(m)[0] for m in locals_]
        nodes = default_states(model)
        for k in range(1, 11):
            y = [yy[k] for yy in traj.measurements]
            nodes = cidf_step(model, weights, 0, nodes, y, k)
            refs = [
                ckf_step(locals_[i], refs[i], y[i], k) for i in range(2)
            ]
            for i in range(2):
                assert np.allclose(nodes[i].estimate, refs[i].estimate, atol=1e-12)
                assert np.allclose(nodes[i].covariance, refs[i].covariance, atol=1e-12)

    def test_mixing_dilutes_information(self):
        # Averaging posteriors without rescaling weakens each node's
        # precision relative to the measurement-consensus filter.
        model = two_sensor_scalar_plant(a=1.0, c1=1.0, c2=1.0)
        weights = two_node_weights(0.5)
        traj = simulate_trajectory(model, K=8, seed=8)
        cm = default_states(model)
        ci = default_states(model)
        for k in range(1, 9):
            y = [yy[k] for yy in traj.measurements]
            cm = cmdf_step(model, weights, 1, cm, y, k)
            ci = cidf_step(model, weights, 1, ci, y, k)
        assert ci[0].covariance[0, 0] > cm[0].covariance[0, 0]


class TestUnbiasedness:
    def test_mean_error_within_four_standard_errors(self):
        # Exact initialization and zero-mean noise leave no bias.
        model = two_sensor_scalar_plant(a=0.9, c1=1.0, c2=0.5)
        weights = two_node_weights(0.3)
        trials = 10_000
        errors = np.empty((trials, 2))
        X, Y = simulate_trials(model, 2, range(trials))
        slices = model.observation_slices()
        for l in range(trials):
            states = default_states(model)
            for k in (1, 2):
                y = [Y[l, k, sl] for sl in slices]
                states = cmdf_step(model, weights, 1, states, y, k)
            errors[l] = [s.estimate[0] - X[l, 2, 0] for s in states]
        mean = errors.mean(axis=0)
        se = errors.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(mean) <= 4.0 * se)
