import math

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
from filterlab.spps import DEFAULT_TOL, OBSERVABILITY_REL_TOL, _iterate_to_period
import filterlab.gap as gap
import filterlab.spps as spps
import reference_spps
from measurement_form import closed_loop, closed_loop_sequence, stacked_observation
from theory_checks import (
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
        assert sol.residual < 1e-13
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

    def test_divergent_recursion_raises(self, monkeypatch):
        # 200 sweeps of a period-1 recursion, before it overflows.
        monkeypatch.setattr(spps, "MAX_STEP_BUDGET", 200)
        with pytest.raises(ConvergenceError):
            with np.errstate(over="ignore", invalid="ignore"):
                dpre_spps([[2.0]], [[0.0]], [[1.0]], [[1.0]])

    def test_indefinite_innovation_raises(self, monkeypatch):
        monkeypatch.setattr(spps, "MAX_STEP_BUDGET", 50)
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
        assert sol.residual < 1e-10


class TestIterateToPeriod:
    def test_stacked_cells_stop_at_their_own_sweep(self):
        # Two scalar 2-periodic Lyapunov recursions contracting at different
        # rates: in one stack, each cell must stop where it stops alone.
        gains = np.array([0.3, 0.9])
        noise = np.array([[1.0, 2.0], [0.5, 1.5]])

        def step_of(ids):
            def step(k, P, cells):
                c = ids[cells]
                return gains[c, None, None] ** 2 * P + noise[c, k][:, None, None]

            return step

        def run(ids):
            return _iterate_to_period(
                step_of(np.array(ids)), 2, np.zeros((len(ids), 1, 1)), 1e-10, "test"
            )

        slots, sweeps, residual = run([0, 1])
        assert sweeps[0] < sweeps[1]
        for c in (0, 1):
            alone = run([c])
            assert sweeps[c] == alone[1][0]
            np.testing.assert_allclose(slots[:, c], alone[0][:, 0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(residual[c], alone[2][0], rtol=1e-12, atol=0)


def _stop_outcome(iterate, *args):
    """A stop test's result, or the ConvergenceError it raised."""
    try:
        return iterate(*args)
    except ConvergenceError as exc:
        return exc


def _assert_same_stop(got, want):
    """Bit-equal slots, sweeps and residuals, or the same ConvergenceError."""
    if isinstance(want, ConvergenceError):
        assert isinstance(got, ConvergenceError)
        assert (str(got), got.residual) == (str(want), want.residual)
    else:
        assert not isinstance(got, ConvergenceError)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _both_stops(step, period, P0, tol, max_sweeps, monkeypatch):
    """Both stop tests' outcomes, at a budget of ``max_sweeps`` sweeps."""
    monkeypatch.setattr(spps, "MAX_STEP_BUDGET", max_sweeps * period)
    got = _stop_outcome(_iterate_to_period, step, period, P0, tol, "test")
    want = _stop_outcome(
        reference_spps.iterate_to_period, step, period, P0, tol, max_sweeps, "test"
    )
    _assert_same_stop(got, want)
    return want


def _scalar_cells(gains, shapes, period=3):
    """A step over 3 x 3 cells P = x U_c + F_{c,k} whose scalar x follows
    x' = a_c x + b_k, with its start.

    U_c is either the identity, with F = 0, or the rank-1 [[1, 1, 0],
    [1, 1, 0], [0, 0, 0]] with F = diag(0, 0, f). Every change between
    sweeps is x's change times U_c exactly, so its Frobenius norm is sqrt(3)
    times its spectral norm or equal to it: the two ends of the stop test's
    bound. x's change shrinks by |a_c| from one step to the next; f, which
    sets a rank-1 cell's scale, shrinks by |a_c| (1 - 1e-13), so each slot's
    relative change is within rounding of the one before it.
    """
    rank1 = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    U = np.stack([rank1 if s == "rank1" else np.eye(3) for s in shapes])
    F = np.zeros((period, len(shapes), 3, 3))
    for c, (a, shape) in enumerate(zip(gains, shapes)):
        if shape == "rank1":
            shrink = abs(a) * (1 - 1e-13)
            F[:, c, 2, 2] = np.roll(1e3 * shrink ** np.arange(period), 1)
    gains, b = np.asarray(gains, dtype=float), np.linspace(1.0, 1.7, period)

    def step(k, P, cells):
        x = gains[cells] * P[:, 0, 0] + b[k]
        return x[:, None, None] * U[cells] + F[(k + 1) % period, cells]

    return step, np.zeros((len(shapes), 3, 3))


class TestStopMatchesReference:
    """The stop test takes an eigen-solve only where its Frobenius bound
    leaves the stop undecided; ``reference_spps`` measures every slot. The
    two must agree bit for bit: slots, sweeps, residuals and errors."""

    GAINS = [0.3, -0.8, 0.95, 0.0, 0.3, -0.8, 0.95]
    SHAPES = ["rank1"] * 3 + ["identity"] * 4

    def test_changes_landing_at_the_tolerance(self, monkeypatch):
        # Cells contracting at different rates, each stopped exactly at,
        # just above and within 1e-12 of its own final change.
        step, P0 = _scalar_cells(self.GAINS, self.SHAPES)
        residual = reference_spps.iterate_to_period(step, 3, P0, 1e-9, 1000, "test")[2]
        for r in residual[residual > 0]:
            for tol in (r, np.nextafter(r, np.inf), r * (1 + 1e-12), r * (1 - 1e-12)):
                sweeps = _both_stops(step, 3, P0, tol, 1000, monkeypatch)[1]
                assert len(set(sweeps)) > 2

    @pytest.mark.parametrize("max_sweeps", [2, 3, 8])
    def test_exhausted_budget(self, max_sweeps, monkeypatch):
        step, P0 = _scalar_cells(self.GAINS, self.SHAPES)
        outcome = _both_stops(step, 3, P0, 1e-9, max_sweeps, monkeypatch)
        assert isinstance(outcome, ConvergenceError)
        # Cells that stop within two sweeps return.
        step, P0 = _scalar_cells([0.0, 0.0], ["rank1", "identity"])
        assert _both_stops(step, 3, P0, 1e-9, 2, monkeypatch)[1].tolist() == [2, 2]

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12, 1e-13])
    def test_benchmark_stacks(self, tol, monkeypatch, bench_plant, bench_weights):
        # The report's Riccati stack (depths 2, 3, 5, 6 and the centralized
        # cell) and its Lyapunov stack, each run through both stop tests.
        fast, stacks = spps._iterate_to_period, []

        def both(step, period, P0, stop_tol, label):
            want = _stop_outcome(
                reference_spps.iterate_to_period, step, period, P0, stop_tol, None, label
            )
            _assert_same_stop(_stop_outcome(fast, step, period, P0, stop_tol, label), want)
            stacks.append((label, len(P0)))
            return want

        monkeypatch.setattr(spps, "_iterate_to_period", both)
        build_gap_report(bench_plant, bench_weights, [2, 5], tol=tol)
        assert stacks == [
            ("periodic Riccati recursion", 81), ("periodic Lyapunov recursion", 80),
        ]


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


class TestSilentSlots:
    """A slot where no cell has information is a prediction step: the
    shortcut agrees with the full information step to rounding and stops
    on the same sweeps."""

    def assert_shortcut_matches_full_step(self, A, Q, S, S2, monkeypatch):
        assert spps._silent(S).any()
        slots, sweeps, _ = spps._information_riccati(A, Q, S, DEFAULT_TOL)
        loops = spps._closed_loops(A, Q, slots, S, S2)
        with monkeypatch.context() as patch:
            patch.setattr(spps, "_silent", all_slots_live)
            full, full_sweeps, _ = spps._information_riccati(A, Q, S, DEFAULT_TOL)
            full_loops = spps._closed_loops(A, Q, slots, S, S2)
        assert sweeps.tolist() == full_sweeps.tolist()
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
        shapes = []
        inverse = spps.spd_inverse

        def counted(M, what="matrix"):
            shapes.append(M.shape)
            return inverse(M, what)

        monkeypatch.setattr(spps, "spd_inverse", counted)
        return shapes

    def test_benchmark_inverts_only_live_slots(self, bench_plant, bench_weights, monkeypatch):
        S, S2 = benchmark_information(bench_plant, bench_weights, 4)
        A, Q = bench_plant.A, bench_plant.Q
        shapes = self.count_inverses(monkeypatch)
        P, sweeps, _ = spps._information_riccati(A, Q, S, DEFAULT_TOL)
        # Two inverses per live slot of every sweep, none on the 15 silent.
        assert len(shapes) == 2 * 15 * sweeps.max()
        shapes.clear()
        spps._closed_loops(A, Q, P, S, S2)
        assert shapes == [(15, 21, 4, 4)] * 2

    def test_partly_silent_slot_takes_the_full_step(self, monkeypatch):
        # Cell 1 has no information at the blind slot, cell 0 has some.
        A, Q, S = blind_slot_system(0)
        S = np.concatenate([S + np.eye(S.shape[-1]), S], axis=1)
        assert not spps._silent(S).any()
        shapes = self.count_inverses(monkeypatch)
        _, sweeps, _ = spps._information_riccati(A, Q, S, DEFAULT_TOL)
        assert len(shapes) == 2 * A.period * sweeps.max()


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
