import math
import re

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov

from conftest import alternating_pair, random_periodic_system, spd
from filterlab import (
    ConvergenceError,
    NumericalError,
    PeriodicSequence,
    PlantModel,
    ValidationError,
    build_gap_report,
    centralized_dpre,
    dple_spps,
    dpre_spps,
    uniform_observability,
)
from filterlab.spps import DEFAULT_TOL, OBSERVABILITY_REL_TOL
import filterlab.gap as gap
import filterlab.spps as spps
import reference_spps
from measurement_form import closed_loop, closed_loop_sequence, stacked_observation
from theory_checks import (
    _closed_loops,
    dpre_monotonicity_probe,
    fixed_point_defect,
    monodromy,
    monodromy_bounds,
    power_norm_bound,
    solution_monodromy,
    transition_product,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def brute_riccati(A, C, Q, R, steps, P0=None):
    """Independent oracle: plain forward recursion, no convergence logic."""
    A, C, Q, R = (PeriodicSequence(s) for s in (A, C, Q, R))
    P = np.eye(A.shape[0]) if P0 is None else np.array(P0, dtype=float)
    history = []
    for k in range(steps):
        S = C.at(k) @ P @ C.at(k).T + R.at(k)
        P = (
            A.at(k) @ P @ A.at(k).T
            + Q.at(k)
            - A.at(k) @ P @ C.at(k).T @ np.linalg.solve(S, C.at(k) @ P @ A.at(k).T)
        )
        P = (P + P.T) / 2
        history.append(P)
    return history


class TestDpreSpps:
    def test_scalar_golden_ratio(self):
        sol = dpre_spps([[1.0]], [[1.0]], [[1.0]], [[1.0]], tol=1e-13)
        assert abs(sol.P[0][0, 0] - PHI) < 1e-12
        assert sol.defect < 1e-13
        # Cross-check with brute iteration from a different start.
        brute = brute_riccati([[1.0]], [[1.0]], [[1.0]], [[1.0]], 200, P0=[[1.0]])
        assert abs(brute[-1][0, 0] - sol.P[0][0, 0]) < 1e-12

    def test_unobserved_stable_scalar_is_lyapunov_fixed_point(self):
        sol = dpre_spps([[0.5]], [[0.0]], [[0.75]], [[1.0]], tol=1e-13)
        assert abs(sol.P[0][0, 0] - 1.0) < 1e-11

    def test_alternating_pair_two_periodic(self):
        # Unstable A with per-step-unobservable rows still admits a steady
        # 2-periodic solution; oracle is a long brute recursion.
        A, C = alternating_pair()
        Q = PeriodicSequence([np.eye(2)] * 2)
        R = PeriodicSequence([np.eye(1)] * 2)
        sol = dpre_spps(A, C, Q, R, tol=1e-12)
        assert sol.period == 2
        history = brute_riccati(A, C, Q, R, 10_000)
        assert np.linalg.norm(history[-1] - sol.at(10_000 % 2), 2) < 1e-9
        assert np.linalg.norm(history[-2] - sol.at(9_999 % 2), 2) < 1e-9

    def test_matches_scipy_dare_for_time_invariant(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3)) * 0.6
        C = rng.normal(size=(2, 3))
        Q = spd(rng, 3)
        R = spd(rng, 2)
        sol = dpre_spps(A, C, Q, R, tol=1e-13)
        # Dual of the control Riccati equation solved directly by scipy.
        P_ref = solve_discrete_are(A.T, C.T, Q, R)
        assert np.linalg.norm(sol.P[0] - P_ref, 2) < 1e-9

    def test_solution_is_periodic_fixed_point(self):
        for seed in range(5):
            A, C, Q, R, _ = random_periodic_system(seed)
            tol = 1e-11
            sol = dpre_spps(A, C, Q, R, tol=tol)
            assert fixed_point_defect(sol, A, C, Q, R) <= 10 * tol
            for Pk in sol.P:
                assert np.abs(Pk - Pk.T).max() < 1e-10
        # The defect is relative to each slot's size, as the solver's stop
        # is, so the bound holds at any scale of Q and R.
        A, C, Q, R, _ = random_periodic_system(0)
        for scale in (1e-6, 1e6):
            Qs, Rs = PeriodicSequence(scale * Q.stack), PeriodicSequence(scale * R.stack)
            sol = dpre_spps(A, C, Qs, Rs, tol=tol)
            assert fixed_point_defect(sol, A, C, Qs, Rs) <= 10 * tol

    def test_divergent_recursion_raises(self):
        # An unobserved a = 2: each doubling squares the period map's growth,
        # so it overflows long before the doubling budget runs out.
        with pytest.raises(NumericalError, match="the recursion is divergent") as info:
            with np.errstate(over="ignore", invalid="ignore"):
                dpre_spps([[2.0]], [[0.0]], [[1.0]], [[1.0]])
        assert not isinstance(info.value, ConvergenceError)
        doubling = int(re.search(r"at doubling (\d+):", str(info.value)).group(1))
        assert doubling < spps.MAX_DOUBLINGS

    def test_indefinite_innovation_raises(self):
        bad_R = PeriodicSequence([[[-1.0]]])
        with pytest.raises(NumericalError):
            dpre_spps([[0.5]], [[0.0]], [[1.0]], bad_R)

    def test_singular_measurement_noise_raises(self):
        # The information form needs R_k^{-1}; R = 0 is outside the model.
        with pytest.raises(NumericalError, match="measurement noise covariance"):
            dpre_spps([[1.0]], [[1.0]], [[1.0]], [[0.0]])


class TestScaleInvariance:
    """The stop is relative, so the answer does not depend on the units of
    Q and R: scaling both by s scales the solution by s."""

    def test_small_scale_scalar_riccati_matches_dare(self):
        sol = dpre_spps([[0.5]], [[1.0]], [[1e-12]], [[1.0]])
        P_ref = solve_discrete_are([[0.5]], [[1.0]], [[1e-12]], [[1.0]])
        np.testing.assert_allclose(sol.P[0], P_ref, rtol=1e-9, atol=0)

    def test_small_scale_scalar_lyapunov(self):
        sol = dple_spps([[0.5]], [[1e-12]])
        np.testing.assert_allclose(sol.P[0][0, 0], 1e-12 / 0.75, rtol=1e-9, atol=0)

    def test_time_invariant_lyapunov_matches_scipy(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 4))
        A *= 0.8 / np.abs(np.linalg.eigvals(A)).max()
        Q = 1e-9 * spd(rng, 4)
        sol = dple_spps(A, Q)
        X_ref = solve_discrete_lyapunov(A, Q)
        np.testing.assert_allclose(sol.P[0], X_ref, rtol=1e-9, atol=1e-9 * np.abs(X_ref).max())

    def test_scaling_noise_scales_solutions(self):
        rng = np.random.default_rng(8)
        A = [0.7 * rng.normal(size=(3, 3)) for _ in range(3)]
        C = [rng.normal(size=(2, 3)) for _ in range(3)]
        Q = [spd(rng, 3) for _ in range(3)]
        R = [spd(rng, 2) for _ in range(3)]
        stable = [0.5 * M / np.linalg.norm(M, 2) for M in A]
        P1 = dpre_spps(A, C, Q, R)
        X1 = dple_spps(stable, Q)
        for s in 10.0 ** np.arange(-12, 13, 3):
            P = dpre_spps(A, C, [s * M for M in Q], [s * M for M in R])
            X = dple_spps(stable, [s * M for M in Q])
            for k in range(3):
                np.testing.assert_allclose(P.P[k], s * P1.P[k], rtol=1e-9, atol=0)
                np.testing.assert_allclose(X.P[k], s * X1.P[k], rtol=1e-9, atol=0)

    def test_plant_model_path_scales(self, bench_plant):
        # The plant's noise checks are relative too, so the model accepts
        # (sQ, sR) at every scale and its centralized filter scales by s.
        P1 = np.stack(centralized_dpre(bench_plant).P)
        for s in 10.0 ** np.arange(-12, 13, 3):
            plant = PlantModel(
                A=bench_plant.A,
                Q=s * bench_plant.Q.stack,
                C=bench_plant.C,
                R=[s * R.stack for R in bench_plant.R],
            )
            P = np.stack(centralized_dpre(plant).P)
            np.testing.assert_allclose(P, s * P1, rtol=1e-9, atol=0)


class TestDpleSpps:
    def test_scalar_fixed_point(self):
        sol = dple_spps([[0.5]], [[0.75]], tol=1e-13)
        assert abs(sol.P[0][0, 0] - 1.0) < 1e-11

    def test_zero_transition_copies_noise(self):
        Q = PeriodicSequence([[[1.0]], [[2.0]], [[3.0]]])
        A = PeriodicSequence([[[0.0]]] * 3)
        sol = dple_spps(A, Q, tol=1e-14)
        # P_{k+1} = Q_k exactly.
        for k in range(3):
            assert abs(sol.at(k + 1)[0, 0] - Q.at(k)[0, 0]) < 1e-13

    def test_two_periodic_scalar_against_iteration_oracle(self):
        A = PeriodicSequence([[[0.5]], [[0.2]]])
        Q = PeriodicSequence([[[1.0]], [[2.0]]])
        sol = dple_spps(A, Q, tol=1e-14)
        P = np.zeros((1, 1))
        for k in range(400):
            P = A.at(k) @ P @ A.at(k).T + Q.at(k)
        assert abs(P[0, 0] - sol.at(400 % 2)[0, 0]) < 1e-14

    def test_unstable_monodromy_rejected(self):
        with pytest.raises(NumericalError):
            dple_spps([[1.0]], [[1.0]])
        # Per-step norms above one are fine if the period product contracts.
        A = PeriodicSequence([[[1.6]], [[0.3]]])
        sol = dple_spps(A, PeriodicSequence([[[1.0]]] * 2))
        assert sol.defect < 1e-10


def apply_triple(triple, P):
    """g(P) = alpha P (I + beta P)^{-1} alpha' + gamma of a triple, per cell;
    a beta of None is no information."""
    alpha, beta, gamma = triple
    if beta is not None:
        P = P @ np.linalg.inv(np.eye(P.shape[-1]) + beta @ P)
    return alpha @ P @ alpha.swapaxes(-1, -2) + gamma


def direct_riccati(A, Q, S, P, steps):
    """``steps`` information-form steps of P, (cells, n, n), each silent slot
    a prediction: the recursion the doubling replaces."""
    silent = spps._silent(S)
    for k in range(steps):
        Ak, Qk = A.at(k), Q.at(k)
        if silent[k % A.period]:
            P = spps.sym(Ak @ P @ Ak.T + Qk)
        else:
            P = spps._information_step(Ak, Qk, P, S[k % A.period])[0]
    return P


def scaled_information(seed, pattern, exponent):
    """A random periodic system with Q and R scaled by 2**exponent, and the
    information stack (T, 2, n, n) of two cells, the second fusing half of
    the first. ``pattern`` zeroes S at no slot ("live"), at a random set of
    slots for both cells ("silent") or at one slot for the second cell only
    ("partly silent")."""
    A, C, Q, R, rng = random_periodic_system(seed)
    scale = 2.0**exponent
    own = C.stack.swapaxes(1, 2) @ np.linalg.solve(scale * R.stack, C.stack)
    S = np.stack([own, 0.5 * own], axis=1)
    if pattern == "silent":
        S[rng.random(A.period) < 0.5] = 0.0
        S[int(rng.integers(0, A.period))] = 0.0
    elif pattern == "partly silent":
        S[int(rng.integers(0, A.period)), 1] = 0.0
    return A, PeriodicSequence(scale * Q.stack), spps.sym(S), rng


class TestDoubling:
    """The period map is one period of steps, composed; doubling it lands on
    the periodic fixed point the iteration approaches."""

    @pytest.mark.parametrize("exponent", [-40, 0, 40])
    @pytest.mark.parametrize("pattern", ["live", "silent", "partly silent"])
    @pytest.mark.parametrize("seed", range(4))
    def test_period_map_is_one_period_of_steps(self, seed, pattern, exponent):
        A, Q, S, rng = scaled_information(seed, pattern, exponent)
        silent = spps._silent(S)
        assert silent.any() == (pattern == "silent")
        slots = ((A.at(k), None if silent[k] else S[k], Q.at(k)) for k in range(A.period))
        triple = spps._period_map(slots, 2)
        n = A.shape[0]
        P = np.stack([spd(rng, n, scale=2.0**exponent) for _ in range(2)])
        got, want = apply_triple(triple, P), direct_riccati(A, Q, S, P, A.period)
        assert relative_change(got, want) < 1e-12
        # Doubling it is two periods of steps.
        got = apply_triple(spps._compose(triple, triple), P)
        assert relative_change(got, direct_riccati(A, Q, S, P, 2 * A.period)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_lyapunov_doubling_matches_scipy(self, seed):
        # Each cell's slot 0 solves X = Psi X Psi' + V for its monodromy Psi
        # and one-period noise V, both formed here step by step.
        rng = np.random.default_rng(seed)
        T, n, cells = int(rng.integers(1, 6)), int(rng.integers(1, 5)), 3
        loops = rng.normal(size=(T, cells, n, n))
        noise = np.stack([[spd(rng, n) for _ in range(cells)] for _ in range(T)])
        for c in range(cells):
            psi = np.linalg.multi_dot([loops[k, c] for k in reversed(range(T))] + [np.eye(n)])
            loops[:, c] *= (0.9 / np.abs(np.linalg.eigvals(psi)).max()) ** (1 / T)
        X = spps._lyapunov_stack(loops, noise, 1e-13)[0]
        for c in range(cells):
            psi, V = np.eye(n), np.zeros((n, n))
            for k in range(T):
                psi, V = loops[k, c] @ psi, loops[k, c] @ V @ loops[k, c].T + noise[k, c]
            want = solve_discrete_lyapunov(psi, V)
            np.testing.assert_allclose(X[0, c], want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_stacked_cells_stop_at_their_own_doubling(self):
        # Two scalar 2-periodic Lyapunov equations contracting at different
        # rates: in one stack, each cell stops where it stops alone.
        loops = np.array([[0.3, 0.9], [0.5, 0.95]])[:, :, None, None]
        noise = np.array([[1.0, 2.0], [0.5, 1.5]])[:, :, None, None]
        slots, doublings, defect = spps._lyapunov_stack(loops, noise, 1e-10)
        assert doublings[0] < doublings[1]
        for c in (0, 1):
            alone = spps._lyapunov_stack(loops[:, c : c + 1], noise[:, c : c + 1], 1e-10)
            assert doublings[c] == alone[1][0]
            assert np.array_equal(slots[:, c], alone[0][:, 0])
            assert defect[c] == alone[2][0]

    def test_exhausted_budget_raises_convergence_error(self, monkeypatch):
        # An unobserved a = 1 gains Q = 1 a period, so from P = 0 each
        # doubling moves P by half of its size, at every budget.
        with pytest.raises(ConvergenceError, match="within 60 doublings") as info:
            dpre_spps([[1.0]], [[0.0]], [[1.0]], [[1.0]])
        assert info.value.residual == 0.5
        monkeypatch.setattr(spps, "MAX_DOUBLINGS", 3)
        with pytest.raises(ConvergenceError, match="within 3 doublings") as info:
            dple_spps([[0.99]], [[1.0]])
        assert info.value.residual > DEFAULT_TOL
        # A case that stops on the last allowed doubling returns.
        assert dple_spps([[0.01]], [[1.0]]).doublings == 3


class TestStopMatchesReference:
    """The doubling solves land within the tolerance of the plain iteration
    of ``reference_spps``, which steps one period at a time."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12, 1e-13])
    def test_benchmark_stacks(self, tol, monkeypatch, bench_plant, bench_weights):
        # The report's Riccati stack (depths 2, 3, 5, 6 and the centralized
        # cell) and its Lyapunov stack, each set against the iteration.
        riccati, lyapunov, stacks = gap._information_riccati, gap._lyapunov_stack, []

        def against_reference(label, got, step, P0, stop_tol):
            want = reference_spps.iterate_to_period(step, len(got[0]), P0, stop_tol, None, label)
            assert relative_change(got[0], want[0]) <= 10 * stop_tol
            stacks.append((label, len(P0)))
            return got

        def checked_riccati(A, Q, S, stop_tol, *lyapunov):
            # The solve writes the nodes' closed loops over S.
            silent, information = spps._silent(S), S.copy()

            def step(k, P, cells):
                if silent[k]:
                    return spps.sym(A.at(k) @ P @ A.at(k).T + Q.at(k))
                return spps._information_step(A.at(k), Q.at(k), P, information[k, cells])[0]

            P0 = np.broadcast_to(np.eye(S.shape[-1]), S.shape[1:])
            got = riccati(A, Q, S, stop_tol, *lyapunov)
            return against_reference("riccati", got, step, P0, stop_tol)

        def checked_lyapunov(loops, noise, stop_tol, *period_map):
            def step(k, X, cells):
                M = loops[k, cells]
                return spps.sym(M @ X @ M.swapaxes(1, 2) + noise[k, cells])

            got = lyapunov(loops, noise, stop_tol, *period_map)
            return against_reference("lyapunov", got, step, np.zeros(loops.shape[1:]), stop_tol)

        monkeypatch.setattr(gap, "_information_riccati", checked_riccati)
        monkeypatch.setattr(gap, "_lyapunov_stack", checked_lyapunov)
        build_gap_report(bench_plant, bench_weights, [2, 5], tol=tol)
        assert stacks == [("riccati", 81), ("lyapunov", 80)]


class TestClosedLoop:
    def test_zero_covariance_gives_open_loop(self):
        K, A_cl = closed_loop(np.eye(2) * 0.7, np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert np.array_equal(K, np.zeros((2, 2)))
        assert np.allclose(A_cl, 0.7 * np.eye(2))

    def test_golden_ratio_gain(self):
        K, A_cl = closed_loop([[1.0]], [[1.0]], [[1.0]], [[PHI]])
        assert K[0, 0] == pytest.approx(PHI / (PHI + 1.0), abs=1e-12)
        assert A_cl[0, 0] == pytest.approx(1.0 - PHI / (PHI + 1.0), abs=1e-12)

    def test_naive_row_keeps_dynamics(self):
        K, A_cl = closed_loop([[0.9]], [[0.0]], [[1.0]], [[2.0]])
        assert K[0, 0] == 0.0
        assert A_cl[0, 0] == 0.9


class TestMonodromy:
    def test_stabilized_alternating_pair(self):
        # Feedback gains put the pair exactly at 0.2 * I over one period.
        A, C = alternating_pair()
        gains = [np.array([[0.0], [-1.9]]), np.array([[-1.9], [0.0]])]
        loops = PeriodicSequence(
            [A.at(k) + gains[k] @ C.at(k) for k in range(2)]
        )
        rep = monodromy(loops, anchor=0)
        assert np.linalg.norm(rep.phi - 0.2 * np.eye(2), 2) < 1e-12
        assert rep.spectral_radius == pytest.approx(0.2, abs=1e-12)

    def test_constant_scalar(self):
        rep = monodromy(PeriodicSequence([[[0.5]], [[0.5]]]))
        assert rep.phi[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_spectral_radius_anchor_invariant(self):
        rng = np.random.default_rng(11)
        mats = [0.8 * rng.normal(size=(3, 3)) / 1.8 for _ in range(3)]
        seq = PeriodicSequence(mats)
        radii = [monodromy(seq, anchor=k).spectral_radius for k in range(6)]
        assert max(radii) - min(radii) < 1e-10

    def test_transition_product_ordering(self):
        seq = PeriodicSequence([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) * 2])
        # product over [0, 2) must apply slot 0 first: M = A_1 @ A_0
        expected = (np.eye(2) * 2) @ np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(transition_product(seq, 0, 2), expected)


class TestMonodromyBounds:
    def test_scalar_golden_ratio_values(self):
        sol = dpre_spps([[1.0]], [[1.0]], [[1.0]], [[1.0]], tol=1e-13)
        rho_bound, norm_bound = monodromy_bounds(sol, [[1.0]])
        assert rho_bound == pytest.approx(math.sqrt(1.0 - 1.0 / PHI), abs=1e-10)
        rep = solution_monodromy([[1.0]], [[1.0]], [[1.0]], [[1.0]], sol)
        assert rep.spectral_radius == pytest.approx(1.0 - PHI / (PHI + 1.0), abs=1e-10)
        assert rep.spectral_radius <= rho_bound
        assert rep.norm2 <= norm_bound

    def test_deadbeat_equality(self):
        # a = 0 forces P = Q, a zero loop, and a zero bound met with equality.
        sol = dpre_spps([[0.0]], [[1.0]], [[1.0]], [[1.0]], tol=1e-13)
        rho_bound, _ = monodromy_bounds(sol, [[1.0]])
        rep = solution_monodromy([[0.0]], [[1.0]], [[1.0]], [[1.0]], sol)
        assert rep.spectral_radius == pytest.approx(0.0, abs=1e-12)
        assert rho_bound == pytest.approx(0.0, abs=1e-7)

    def test_random_systems_respect_bounds(self):
        # Randomized oracle across anchors; the larger sweep lives in the
        # acceptance suite.
        for seed in range(15):
            A, C, Q, R, _ = random_periodic_system(seed + 100)
            sol = dpre_spps(A, C, Q, R)
            rho_bound, norm_bound = monodromy_bounds(sol, Q)
            for anchor in range(sol.period):
                rep = solution_monodromy(A, C, Q, R, sol, anchor=anchor)
                assert rep.spectral_radius <= rho_bound + 1e-8
                assert rep.norm2 <= norm_bound + 1e-8

    def test_information_loop_is_measurement_loop(self):
        # The loop A P+ P^{-1} equals the measurement form's A - K C.
        for seed in range(15):
            A, C, Q, R, _ = random_periodic_system(seed)
            sol = dpre_spps(A, C, Q, R)
            _, loops = closed_loop_sequence(A, C, R, sol)
            for anchor in range(sol.period):
                phi = solution_monodromy(A, C, Q, R, sol, anchor=anchor).phi
                assert np.linalg.norm(phi - monodromy(loops, anchor).phi, 2) <= 1e-12


class TestPowerNormBound:
    def test_identity(self):
        assert power_norm_bound(np.eye(2), 5) >= 1.0
        assert np.linalg.norm(np.linalg.matrix_power(np.eye(2), 5), 2) == 1.0

    def test_diagonal_direct_evaluation(self):
        A = np.diag([0.5, 0.3])
        k = 4
        direct = np.linalg.norm(np.linalg.matrix_power(A, k), 2)
        assert direct == pytest.approx(0.0625, abs=1e-15)
        assert direct <= power_norm_bound(A, k)

    def test_nilpotent_jordan_block(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(np.linalg.matrix_power(A, 2), 0.0)
        assert power_norm_bound(A, 2) >= 0.0

    def test_dominates_random_powers(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = rng.normal(size=(n, n))
            for k in (0, 1, 3, 7):
                direct = np.linalg.norm(np.linalg.matrix_power(A, k), 2)
                assert direct <= power_norm_bound(A, k) * (1.0 + 1e-12)


def per_anchor_observability(A, C):
    """Reference loop for the stacked check: each anchor's window factor is
    built and its rank decided on its own."""
    A, C = (PeriodicSequence(s) for s in (A, C))
    n, T = A.shape[0], A.period
    for anchor in range(T):
        rows, Phi = [], np.eye(n)
        for j in range(n * T):
            rows.append(C.at(anchor + j) @ Phi)
            Phi = A.at(anchor + j) @ Phi
        sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
        if sv[0] <= 0.0 or np.count_nonzero(sv > math.sqrt(OBSERVABILITY_REL_TOL) * sv[0]) < n:
            return False
    return True


class TestUniformObservability:
    @pytest.mark.parametrize("block", [1, 64, spps.OBSERVABILITY_BLOCK])
    def test_matches_per_anchor_loop(self, block, monkeypatch):
        # Small blocks split the period's anchors over several batched SVDs.
        monkeypatch.setattr(spps, "OBSERVABILITY_BLOCK", block)
        rng = np.random.default_rng(0)
        verdicts = []
        for _ in range(200):
            n, T, p = (int(v) for v in rng.integers(1, [5, 6, 3]))
            A = rng.normal(size=(T, n, n))
            C = np.where(rng.random((T, p, n)) < 0.5, 0.0, rng.normal(size=(T, p, n)))
            verdicts.append(uniform_observability(A, C))
            assert verdicts[-1] == per_anchor_observability(A, C)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_alternating_pair_observable_despite_per_step_rank_loss(self):
        A, C = alternating_pair()
        assert uniform_observability(A, C)
        for k in range(2):
            per_step = np.vstack([C.at(k), C.at(k) @ A.at(k)])
            assert np.linalg.matrix_rank(per_step) == 1

    def test_blind_unstable_pair(self):
        A = PeriodicSequence(2.0 * np.eye(2))
        C = PeriodicSequence(np.zeros((1, 2)))
        assert not uniform_observability(A, C)

    @pytest.mark.parametrize("blind", [0, 1])
    def test_every_anchor_is_checked(self, blind):
        # A and C are zero at slot ``blind``: the window from that anchor
        # sees only zeros, while the window from the other anchor sees the
        # state at once.
        A = np.ones((2, 1, 1))
        A[blind] = 0.0
        C = np.ones((2, 1, 1))
        C[blind] = 0.0
        assert not uniform_observability(A, C)
        assert uniform_observability(A, np.ones((2, 1, 1)))

    def test_zero_rows_never_change_the_verdict(self):
        # Sensor rows that are zero in every slot, inserted anywhere, leave
        # the verdict of every pair as it was, observable or not; a third of
        # the transitions lose rank.
        rng = np.random.default_rng(3)
        verdicts = []
        for _ in range(200):
            n, T, p = (int(v) for v in rng.integers(1, [5, 6, 3]))
            A = rng.normal(size=(T, n, n))
            for k in np.flatnonzero(rng.random(T) < 1 / 3):
                r = int(rng.integers(0, n))
                A[k] = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
            C = np.where(rng.random((T, p, n)) < 0.5, 0.0, rng.normal(size=(T, p, n)))
            verdicts.append(uniform_observability(A, C))
            assert verdicts[-1] == per_anchor_observability(A, C)
            zeros = int(rng.integers(1, 4))
            rows = np.sort(rng.choice(p + zeros, size=p, replace=False))
            padded = np.zeros((T, p + zeros, n))
            padded[:, rows] = C
            assert uniform_observability(A, padded) == verdicts[-1]
        assert 0 < sum(verdicts) < len(verdicts)

    @staticmethod
    def shift_chain(n, T, blind):
        """A T-periodic pair on n states that C sees one at a time: A is the
        identity but at slot 0, where it shifts state j to state j + 1
        (mod n), and C sees state 0 at slot T - 1 only. So each period of a
        window sees the state one step further back down the chain, and the
        pair is observable only through all n periods. With ``blind`` the
        shift drops its link from state 1 to state 2, which only the last
        period's view passes through: that period sees nothing."""
        A = np.broadcast_to(np.eye(n), (T, n, n)).copy()
        A[0] = np.roll(np.eye(n), 1, axis=0)
        if blind:
            A[0, 2 % n, 1] = 0.0
        C = np.zeros((T, 1, n))
        C[T - 1, 0, 0] = 1.0
        return A, C

    @staticmethod
    def window_rank(A, C, anchor, periods):
        """Rank of the observability factor of ``periods`` periods from
        ``anchor``, built step by step."""
        T, n = A.shape[0], A.shape[-1]
        rows, Phi = [], np.eye(n)
        for j in range(anchor, anchor + periods * T):
            rows.append(C[j % T] @ Phi)
            Phi = A[j % T] @ Phi
        return np.linalg.matrix_rank(np.vstack(rows))

    @pytest.mark.parametrize("block", [1, 7, spps.OBSERVABILITY_BLOCK])
    @pytest.mark.parametrize("n, T", [(2, 1), (2, 3), (3, 4), (4, 5), (6, 2)])
    def test_shift_chain_needs_every_period(self, n, T, block, monkeypatch):
        # The window's last period is the one the one-period factor reaches
        # through the monodromy's highest power, Psi^(n-1).
        monkeypatch.setattr(spps, "OBSERVABILITY_BLOCK", block)
        A, C = self.shift_chain(n, T, blind=False)
        assert (self.window_rank(A, C, 0, n - 1), self.window_rank(A, C, 0, n)) == (n - 1, n)
        assert uniform_observability(A, C)
        assert per_anchor_observability(A, C)
        A, C = self.shift_chain(n, T, blind=True)
        assert self.window_rank(A, C, T - 1, n) == n - 1
        assert not uniform_observability(A, C)
        assert not per_anchor_observability(A, C)

    @pytest.mark.parametrize("A", [np.eye(2), np.zeros((2, 2)), [np.eye(2), 2 * np.eye(2)]])
    def test_all_zero_c_is_not_observable(self, A):
        assert not uniform_observability(A, np.zeros((1, 3, 2)))
        assert not uniform_observability(A, np.zeros((2, 1, 2)))

    def test_benchmark_network_pair(self, bench_plant):
        C_full = PeriodicSequence(
            [stacked_observation(bench_plant, k)[0] for k in range(30)]
        )
        assert uniform_observability(bench_plant.A, C_full)


def all_slots_live(S):
    return np.zeros(S.shape[0], dtype=bool)


def relative_change(got, want):
    """The largest change of any matrix of a stack, relative to its largest
    absolute entry."""
    scale = np.abs(want).max(axis=(-2, -1))
    return float((np.abs(got - want).max(axis=(-2, -1)) / scale).max())


def benchmark_information(plant, weights, L):
    """S and S2 of the benchmark's nodes at depth L and of the centralized
    filter, (30, 21, 4, 4) each."""
    sensors, _, _, own = gap._sensor_information(plant)
    fusion = np.vstack([gap._fusion_matrix(plant, weights, L, {}), np.ones(plant.N)])[:, sensors]
    return gap._fused_information(fusion, own), gap._fused_information(fusion**2, own)


def blind_slot_system(seed):
    """A random uniformly observable periodic system of period >= 2 whose C
    is zero at one slot, and its information stack (T, 1, n, n)."""
    for attempt in range(seed, seed + 100):
        A, C, Q, R, rng = random_periodic_system(attempt)
        if A.period < 2:
            continue
        stack = C.stack.copy()
        stack[int(rng.integers(0, A.period))] = 0.0
        if uniform_observability(A, stack):
            C = PeriodicSequence(stack)
            Rinv = np.linalg.inv(R.stack)
            S = spps.sym(C.stack.swapaxes(1, 2) @ Rinv @ C.stack)[:, None]
            return A, Q, S
    raise AssertionError(f"no blind-slot system found from seed {seed}")


def partly_silent_system():
    """``blind_slot_system(0)`` beside a cell that has information at every
    slot, so that no slot of the stack (T, 2, n, n) is silent."""
    A, Q, S = blind_slot_system(0)
    return A, Q, np.concatenate([S + np.eye(S.shape[-1]), S], axis=1)


def solve_with_loops(A, Q, S, S2):
    """The Riccati solve of S that also builds every cell's Lyapunov inputs
    from S2, (T, cells, n, n): the slots, the doublings, the closed loops,
    their noise and their period map. S is left as it was."""
    loops, noise = S.copy(), np.empty(S2.shape)
    slots, doublings, _, period_map = spps._information_riccati(
        A, Q, loops, DEFAULT_TOL, (S2.__getitem__, noise)
    )
    return slots, doublings, loops, noise, period_map


class TestSilentSlots:
    """A slot where no cell has information is a prediction step: the
    shortcut agrees with the full information step to rounding and stops
    on the same doublings."""

    def assert_shortcut_matches_full_step(self, A, Q, S, S2, monkeypatch):
        assert spps._silent(S).any()
        slots, doublings, *loops = solve_with_loops(A, Q, S, S2)[:4]
        with monkeypatch.context() as patch:
            patch.setattr(spps, "_silent", all_slots_live)
            full, full_doublings, *full_loops = solve_with_loops(A, Q, S, S2)[:4]
        assert doublings.tolist() == full_doublings.tolist()
        assert relative_change(slots, full) < 1e-12
        for got, want in zip(loops, full_loops):
            assert relative_change(got, want) < 1e-12

    def test_benchmark_stack(self, bench_plant, bench_weights, monkeypatch):
        S, S2 = benchmark_information(bench_plant, bench_weights, 4)
        assert spps._silent(S).tolist() == [True, False] * 15
        self.assert_shortcut_matches_full_step(bench_plant.A, bench_plant.Q, S, S2, monkeypatch)

    @pytest.mark.parametrize("seed", [0, 10, 20])
    def test_random_plant_with_a_blind_slot(self, seed, monkeypatch):
        A, Q, S = blind_slot_system(seed)
        self.assert_shortcut_matches_full_step(A, Q, S, 0.5 * S, monkeypatch)

    def count_inverses(self, monkeypatch):
        """The shapes passed to ``spd_inverse`` and to the linear solves that
        compose the period map and double it."""
        shapes, solves = [], []
        inverse, solve = spps.spd_inverse, np.linalg.solve

        def counted(M, what="matrix"):
            shapes.append(M.shape)
            return inverse(M, what)

        def counted_solve(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(spps, "spd_inverse", counted)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        return shapes, solves

    def test_benchmark_inverts_only_live_slots(self, bench_plant, bench_weights, monkeypatch):
        S, _ = benchmark_information(bench_plant, bench_weights, 4)
        A, Q = bench_plant.A, bench_plant.Q
        shapes, solves = self.count_inverses(monkeypatch)
        _, doublings, _ = spps._information_riccati(A, Q, S, DEFAULT_TOL)
        # The period map starts at silent slot 0 and takes one solve per
        # live slot, then one per doubling; the filling sweep takes two
        # inverses per live slot. No silent slot takes either.
        assert solves[:15] == [(21, 4, 4)] * 15
        assert len(solves) == 15 + doublings.max()
        assert shapes == [(21, 4, 4)] * 2 * 15

    def test_report_inverts_only_in_the_riccati_sweep(
        self, bench_plant, bench_graph, bench_weights, monkeypatch
    ):
        # A 10-depth report (201 cells): the closed loops are built from the
        # two inverses the filling sweep takes at each of the 15 live slots,
        # so nothing else is inverted.
        from filterlab import diameter

        shapes, _ = self.count_inverses(monkeypatch)
        d = diameter(bench_graph)
        build_gap_report(bench_plant, bench_weights, range(d, d + 9))
        assert shapes == [(201, 4, 4)] * 2 * 15

    def test_partly_silent_slot_takes_the_full_step(self, monkeypatch):
        # Cell 1 has no information at the blind slot, cell 0 has some.
        A, Q, S = partly_silent_system()
        assert not spps._silent(S).any()
        shapes, solves = self.count_inverses(monkeypatch)
        _, doublings, _ = spps._information_riccati(A, Q, S, DEFAULT_TOL)
        assert len(solves) == A.period - 1 + doublings.max()
        assert shapes == [S.shape[1:]] * 2 * A.period


class TestSweepLoops:
    """The closed loops, noise and Lyapunov period map that the Riccati
    filling sweep builds are those of the reference ``_closed_loops`` and
    ``spps._period_map``, bit for bit."""

    @staticmethod
    def assert_sweep_builds_the_reference(A, Q, S, S2):
        slots, _, loops, noise, period_map = solve_with_loops(A, Q, S, S2)
        _, want_loops, want_noise = _closed_loops(A, Q, slots, S, S2)
        assert np.array_equal(loops, want_loops)
        assert np.array_equal(noise, want_noise)
        want_map = spps._period_map(zip(loops, [None] * len(loops), noise), loops.shape[1])
        for got, want in zip(period_map, want_map):
            assert got is want is None or np.array_equal(got, want)

    def test_benchmark_stack(self, bench_plant, bench_weights):
        S, S2 = benchmark_information(bench_plant, bench_weights, 4)
        self.assert_sweep_builds_the_reference(bench_plant.A, bench_plant.Q, S, S2)

    @pytest.mark.parametrize("seed", [0, 10, 20])
    def test_random_plant_with_a_blind_slot(self, seed):
        A, Q, S = blind_slot_system(seed)
        self.assert_sweep_builds_the_reference(A, Q, S, 0.5 * S)

    def test_partly_silent_slot(self):
        A, Q, S = partly_silent_system()
        self.assert_sweep_builds_the_reference(A, Q, S, 0.5 * S)


class TestMonotonicityProbe:
    def test_equal_noise_is_trivially_monotone(self):
        assert dpre_monotonicity_probe(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]]
        )

    def test_scalar_quadratic_roots(self):
        # P solves P^2 = P + r, so r = 2 gives P = 2 and r = 1 gives PHI.
        sol2 = dpre_spps([[1.0]], [[1.0]], [[1.0]], [[2.0]], tol=1e-13)
        assert sol2.P[0][0, 0] == pytest.approx(2.0, abs=1e-11)
        assert dpre_monotonicity_probe([[1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]])

    def test_violated_precondition(self):
        with pytest.raises(ValidationError):
            dpre_monotonicity_probe([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[2.0]])

    def test_random_bumps_stay_monotone(self):
        for seed in range(10):
            A, C, Q, R, rng = random_periodic_system(seed + 300)
            m = C.shape[0]
            bumps = [spd(rng, m, scale=0.5) for _ in range(R.period)]
            R1 = PeriodicSequence([R.at(k) + bumps[k] for k in range(R.period)])
            assert dpre_monotonicity_probe(A, C, Q, R1, R)


class TestInformationFormEquivalence:
    def test_random_instances(self):
        # Covariance-form and information-form corrections must agree.
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            P = spd(rng, n)
            R = spd(rng, m)
            C = rng.normal(size=(m, n))
            info = np.linalg.inv(np.linalg.inv(P) + C.T @ np.linalg.solve(R, C))
            S = C @ P @ C.T + R
            cov = P - P @ C.T @ np.linalg.solve(S, C @ P)
            rel = np.linalg.norm(info - cov, 2) / np.linalg.norm(info, 2)
            assert rel < 1e-10


class TestSolutionExports:
    def test_json_and_csv(self, tmp_path):
        sol = dpre_spps([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        jpath = tmp_path / "sol.json"
        cpath = tmp_path / "sol.csv"
        sol.to_json(jpath)
        sol.to_csv(cpath)
        import csv as csv_mod
        import json

        with open(jpath) as fh:
            data = json.load(fh)
        assert data["period"] == 1
        assert data["P"][0][0][0] == pytest.approx(PHI, abs=1e-10)
        with open(cpath) as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == ["k", "i", "j", "value"]
        assert float(rows[1][3]) == pytest.approx(PHI, abs=1e-10)
