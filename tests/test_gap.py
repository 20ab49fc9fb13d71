import math

import numpy as np
import pytest

from conftest import (
    complete_graph,
    every_sensor_measuring,
    two_node_graph,
    two_node_weights,
    two_sensor_scalar_plant,
)
import measurement_form as mf
from filterlab import (
    ConsensusWeights,
    PeriodicSequence,
    PlantModel,
    SensorGraph,
    ValidationError,
    average_performance,
    build_gap_report,
    centralized_dpre,
    cmdf_spps,
    dple_spps,
    metropolis_weights,
    weight_power,
)
from filterlab.gap import _resolution
from filterlab.spps import SppsSolution
from theory_checks import gap_series_cov, gap_series_ric


class TestCmdfDpre:
    def test_complete_graph_single_round_equals_centralized(self, bench_plant):
        weights = metropolis_weights(complete_graph(bench_plant.N))
        central = centralized_dpre(bench_plant, tol=1e-12)
        node = cmdf_spps(bench_plant, weights, 1, tol=1e-12)[0][0]
        for k in range(bench_plant.period):
            assert np.linalg.norm(node.at(k) - central.at(k), 2) < 1e-10

    def test_centralized_row_matches_measurement_form(self, bench_plant):
        # The fusion row 1' in information form solves the same Riccati
        # equation as the measurement form on the stacked network pair.
        central = centralized_dpre(bench_plant, tol=1e-12)
        oracle = mf.centralized_dpre(bench_plant, tol=1e-12)
        for k in range(bench_plant.period):
            np.testing.assert_allclose(central.at(k), oracle.at(k), rtol=1e-12, atol=0)

    def test_two_node_scalar_approaches_centralized_at_large_L(self):
        model = two_sensor_scalar_plant(a=1.0, c1=1.0, c2=1.0)
        weights = two_node_weights(0.3)
        central = centralized_dpre(model, tol=1e-13)
        node = cmdf_spps(model, weights, 20, tol=1e-13)[0][0]
        assert abs(node.P[0][0, 0] - central.P[0][0, 0]) < 1e-7

    def test_observability_guard(self):
        # A naive node with no fusion sees nothing of an unstable state.
        from filterlab import PlantModel

        model = PlantModel(
            A=[[2.0]], Q=[[1.0]],
            C=[[[1.0]], [[0.0]]],
            R=[[[1.0]], [[1.0]]],
        )
        weights = two_node_weights(0.3)
        with pytest.raises(ValidationError):
            cmdf_spps(model, weights, 0)

    def test_benchmark_solutions_exist_for_all_sensors(
        self, bench_plant, bench_graph, bench_weights
    ):
        from filterlab import diameter

        d = diameter(bench_graph)
        nodes = cmdf_spps(bench_plant, bench_weights, d)
        for i in (0, 4, 13):
            sol = nodes[i][0]
            assert sol.period == 30
            assert sol.defect < 1e-10


class TestCmdfErrorDple:
    def test_complete_graph_error_equals_parameter_covariance(self, bench_plant):
        # With exact averaging the effective and true noise agree, so the
        # steady error covariance coincides with the Riccati solution.
        weights = metropolis_weights(complete_graph(bench_plant.N))
        node, err = cmdf_spps(bench_plant, weights, 1, tol=1e-12)[2]
        for k in range(30):
            assert np.linalg.norm(err.at(k) - node.at(k), 2) < 1e-9

    def test_error_dominates_parameter_covariance(self):
        # Mismatched noise makes the true error covariance at least as large.
        model = two_sensor_scalar_plant(a=1.0, c1=1.0, c2=1.0)
        weights = two_node_weights(0.3)
        for L in (1, 3, 5):
            node, err = cmdf_spps(model, weights, L, tol=1e-12)[0]
            assert err.P[0][0, 0] >= node.P[0][0, 0] - 1e-10

    def test_large_L_collapses_to_centralized(self, bench_plant, bench_weights):
        central = centralized_dpre(bench_plant, tol=1e-12)
        err = cmdf_spps(bench_plant, bench_weights, 200, tol=1e-12)[5][1]
        worst = max(
            np.linalg.norm(err.at(k) - central.at(k), 2) for k in range(30)
        )
        assert worst < 1e-6

    def test_distributed_error_dominates_centralized_pointwise(
        self, bench_plant, bench_graph, bench_weights
    ):
        # The centralized steady covariance is optimal: the consensus
        # filter's error covariance can never dip below it (PSD gap).
        from filterlab import diameter

        d = diameter(bench_graph)
        central = centralized_dpre(bench_plant, tol=1e-12)
        nodes = cmdf_spps(bench_plant, bench_weights, d, tol=1e-12)
        for i in (0, 13):
            err = nodes[i][1]
            for k in range(30):
                gap = err.at(k) - central.at(k)
                assert np.linalg.eigvalsh((gap + gap.T) / 2)[0] >= -1e-8

    def test_naive_sensor_performance_descends_toward_centralized(
        self, bench_plant, bench_graph, bench_weights
    ):
        # Deeper fusion can only help a naive relay: its steady average
        # trace decreases with L toward the centralized value.
        from filterlab import diameter

        d = diameter(bench_graph)
        central = average_performance(centralized_dpre(bench_plant))
        averages = [
            average_performance(cmdf_spps(bench_plant, bench_weights, L)[13][1])
            for L in (d, d + 3, d + 6)
        ]
        assert averages[0] > averages[1] > averages[2] > central


class TestGapSeries:
    def test_complete_graph_gap_is_zero(self, bench_plant):
        weights = metropolis_weights(complete_graph(bench_plant.N))
        ric = gap_series_ric(bench_plant, weights, 1, 0)
        cov = gap_series_cov(bench_plant, weights, 1, 0)
        assert np.linalg.norm(ric.series_sum, 2) < 1e-10
        assert np.linalg.norm(ric.direct, 2) < 1e-10
        assert np.linalg.norm(cov.series_sum, 2) < 1e-10

    def test_two_node_scalar_defects(self):
        # Distinct sensors make both gaps nonzero; the truncated series must
        # match the directly subtracted steady solutions.
        model = two_sensor_scalar_plant(a=1.0, c1=1.0, c2=0.5)
        weights = two_node_weights(0.3)
        for L in (1, 2, 4):
            ric = gap_series_ric(model, weights, L, 0, truncation=500)
            assert ric.defect < 1e-8
            assert np.linalg.norm(ric.direct, 2) > 1e-6
            cov = gap_series_cov(model, weights, L, 0, truncation=500)
            assert cov.defect < 1e-8
            assert np.linalg.norm(cov.direct, 2) > 1e-8

    def test_requires_full_support(self, bench_plant, bench_weights):
        with pytest.raises(ValidationError):
            gap_series_ric(bench_plant, bench_weights, 1, 0)

    def test_anchor_independence_of_defect(self):
        model = two_sensor_scalar_plant(a=0.9, c1=1.0, c2=0.3)
        weights = two_node_weights(0.2)
        for anchor in range(2):
            ric = gap_series_ric(model, weights, 2, 1, anchor=anchor)
            assert ric.defect < 1e-9


class TestAveragePerformance:
    def test_constant_scalar(self):
        sol = SppsSolution(
            period=30, P=tuple(np.eye(1) for _ in range(30)), doublings=1, defect=0.0
        )
        assert average_performance(sol) == pytest.approx(1.0)

    def test_alternating_traces(self):
        sol = SppsSolution(
            period=2,
            P=(np.array([[1.0]]), np.array([[3.0]])),
            doublings=1,
            defect=0.0,
        )
        assert average_performance(sol) == pytest.approx(2.0)

    def test_benchmark_centralized_average_is_finite_positive(self, bench_plant):
        avg = average_performance(centralized_dpre(bench_plant))
        assert 0.0 < avg < 1e3


class TestRateFit:
    def test_complete_graph_reports_floor(self, bench_plant):
        weights = metropolis_weights(complete_graph(bench_plant.N))
        report = build_gap_report(bench_plant, weights, L_values=[1, 2])
        rates = [report.cell(0, L).rate for L in (1, 2)]
        assert all(math.isnan(q) for q in rates)

    def test_unresolved_gaps_report_no_rate(self):
        # On the path 0-1-2, node 1 fuses the exact network average at L = 2,
        # and by L = 80 every node sits within the solver's tolerance of the
        # centralized filter: those gaps are rounding, so no rate is fitted.
        model = PlantModel(
            A=np.array([[0.9, 0.1], [0.0, 0.7]]),
            Q=0.3 * np.eye(2),
            C=[[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 0.0]]],
            R=[[[1.0]]] * 3,
        )
        graph = SensorGraph(n_nodes=3, edges=frozenset({(0, 1), (1, 2)}))
        report = build_gap_report(model, metropolis_weights(graph), [2, 80, 200])
        blank = {(c.sensor, c.L) for c in report.cells if math.isnan(c.rate)}
        assert blank == {(1, 2)} | {(i, L) for i in range(3) for L in (80, 200)}

    def test_two_node_rates_respect_envelope_and_attain_squared_gap(self):
        # sigma2 = |1 - 2w| for the symmetric pair. The exponential envelope
        # (rate at most sigma2 plus slack) always holds, but the attained
        # rate of the full error-covariance gap is sigma2^2: the centralized
        # gain is a stationary point of the true MSE, so an O(sigma2^L)
        # weight perturbation only costs O(sigma2^(2L)).
        model = two_sensor_scalar_plant(a=1.0, c1=1.0, c2=0.5)
        for w in (0.1, 0.3):
            weights = two_node_weights(w)
            sigma2 = abs(1.0 - 2.0 * w)
            report = build_gap_report(model, weights, L_values=[6, 7, 8])
            rates = [report.cell(0, L).rate for L in (6, 7, 8)]
            for q in rates:
                assert not math.isnan(q)
                assert q <= sigma2 + 0.02
                assert abs(q - sigma2**2) < 0.05

    def test_gap_pieces_decay_at_first_order(self):
        # The two single-sided gaps (parameter vs centralized, error vs
        # parameter) individually decay at sigma2; only their sum cancels
        # to second order.
        model = two_sensor_scalar_plant(a=1.0, c1=1.0, c2=0.5)
        weights = two_node_weights(0.1)
        central = average_performance(centralized_dpre(model, tol=1e-13))
        ric, cov = {}, {}
        for L in (6, 7):
            p_l, p_e = cmdf_spps(model, weights, L, tol=1e-13)[0]
            ric[L] = average_performance(p_l) - central
            cov[L] = average_performance(p_e) - average_performance(p_l)
        assert abs(ric[7] / ric[6] - 0.8) < 0.05
        assert abs(cov[7] / cov[6] - 0.8) < 0.05


@pytest.fixture(scope="module")
def small_report():
    model = two_sensor_scalar_plant(a=1.0, c1=1.0, c2=0.5)
    weights = two_node_weights(0.3)
    graph = two_node_graph()
    return build_gap_report(
        model, weights, L_values=[1, 2, 3], graph=graph, seed=99
    ), model, weights


class TestGapReport:
    def test_repeated_depth_rejected(self, small_report):
        _, model, weights = small_report
        with pytest.raises(ValidationError, match=r"repeat \[4\]"):
            build_gap_report(model, weights, [4, 4])

    def test_cells_cover_sweep(self, small_report):
        report, model, _ = small_report
        assert len(report.cells) == model.N * 3
        assert report.sigma2 == pytest.approx(0.4, abs=1e-12)
        assert [report.cell(c.sensor, c.L) for c in report.cells] == report.cells
        with pytest.raises(KeyError):
            report.cell(0, 4)

    def test_distributed_never_beats_centralized(self, small_report):
        report, _, _ = small_report
        for cell in report.cells:
            assert cell.avg_perf >= report.centralized_avg - 1e-8
            assert cell.gap_cov >= 0.0

    def test_gap_shrinks_along_sweep(self, small_report):
        report, _, _ = small_report
        for sensor in (0, 1):
            gaps = [report.cell(sensor, L).gap_cov for L in (1, 2, 3)]
            assert gaps[2] <= gaps[0] + 1e-8

    def test_rates_below_spectral_gap_envelope(self, small_report):
        report, _, _ = small_report
        finite = [c.rate for c in report.cells if not math.isnan(c.rate)]
        assert finite
        assert all(q <= report.sigma2 + 0.02 for q in finite)

    def test_exports(self, small_report, tmp_path):
        import csv as csv_mod
        import json

        report, _, _ = small_report
        cpath = tmp_path / "report.csv"
        jpath = tmp_path / "report.json"
        report.to_csv(cpath)
        report.to_json(jpath)
        with open(cpath) as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == [
            "sensor", "L", "gap_ric", "gap_cov", "avg_perf", "rate", "sigma2",
        ]
        assert len(rows) == 1 + len(report.cells)
        with open(jpath) as fh:
            data = json.load(fh)
        assert data["metadata"]["seed"] == 99
        # Gaps are printed to 17 digits; the report says what they resolve.
        tol = data["metadata"]["tol"]
        assert data["metadata"]["resolution"] == _resolution(report.centralized_avg, tol)
        assert "graph_hash" in data["metadata"]
        assert len(data["cells"]) == len(report.cells)

    def test_log_linear_envelope_slope(self):
        # Least-squares slope of log gap vs L must not exceed log(sigma2 + 0.02).
        model = two_sensor_scalar_plant(a=1.0, c1=1.0, c2=1.0)
        weights = two_node_weights(0.3)
        report = build_gap_report(model, weights, L_values=list(range(1, 9)))
        sigma2 = report.sigma2
        for sensor in (0, 1):
            gaps = np.array([report.cell(sensor, L).gap_cov for L in range(1, 9)])
            slope = np.polyfit(np.arange(1, 9), np.log(gaps), 1)[0]
            assert slope <= math.log(sigma2 + 0.02)

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_growth_warning_names_the_previous_swept_depth(self, caplog, s):
        # Scaling Q and R by s scales every covariance by s: the real growth
        # is reported at any scale.
        model = two_sensor_scalar_plant(a=0.9, c1=1.0, c2=0.1, q=s, r=s)
        weights = two_node_weights(0.9)
        with caplog.at_level("WARNING", logger="filterlab.gap"):
            build_gap_report(model, weights, L_values=[0, 3])
        grew = [r.getMessage() for r in caplog.records if "grew" in r.getMessage()]
        assert grew
        assert all("from L=0 to L=3" in m for m in grew)

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_unresolved_growth_is_not_reported(self, caplog, s):
        # The gaps of the path 0-1-2 at L = 80 and 200 are solver noise
        # around the centralized value; at any scale of Q and R their
        # fluctuations are not growth.
        model = PlantModel(
            A=np.array([[0.9, 0.1], [0.0, 0.7]]),
            Q=0.3 * s * np.eye(2),
            C=[[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 0.0]]],
            R=[[[s]]] * 3,
        )
        graph = SensorGraph(n_nodes=3, edges=frozenset({(0, 1), (1, 2)}))
        with caplog.at_level("WARNING", logger="filterlab.gap"):
            build_gap_report(model, metropolis_weights(graph), [2, 80, 200])
        assert not [r for r in caplog.records if "grew" in r.getMessage()]

    def test_permuting_sensors_permutes_the_report(self, bench_plant, bench_weights):
        # Relabelling sensor perm[i] as i, in the plant and in both indices
        # of the weights, relabels every cell the same way.
        perm = np.random.default_rng(3).permutation(bench_plant.N)
        plant = PlantModel(
            A=bench_plant.A,
            Q=bench_plant.Q,
            C=[bench_plant.C[j] for j in perm],
            R=[bench_plant.R[j] for j in perm],
        )
        weights = ConsensusWeights(matrix=bench_weights.matrix[np.ix_(perm, perm)])
        base = build_gap_report(bench_plant, bench_weights, [4, 5, 8])
        permuted = build_gap_report(plant, weights, [4, 5, 8])
        assert permuted.centralized_avg == base.centralized_avg
        for cell in permuted.cells:
            ref = base.cell(int(perm[cell.sensor]), cell.L)
            for name in ("gap_ric", "gap_cov", "avg_perf", "rate"):
                np.testing.assert_allclose(getattr(cell, name), getattr(ref, name), rtol=1e-9)


# The tolerance of the scalar oracle: its sweeps stop at rounding.
ORACLE_TOL = 1e-15


def _measurement_form_cell(model, weights, L, i, central, tol=1e-10):
    """(gap_ric, gap_cov, avg_perf) of one cell, solved alone to ``tol`` in
    measurement form: the Riccati equation of the node's modified
    observation model, then the Lyapunov equation of its closed loop with
    the masked noise."""
    C, R_eff, R_mask, _ = mf.modified_sequences(model, weights, L, i)
    P = mf.dpre(model.A, C, model.Q, R_eff, tol=tol)
    gains, loops = mf.closed_loop_sequence(model.A, C, R_eff, P)
    noise = PeriodicSequence(
        [model.Q.at(k) + gains[k] @ R_mask.at(k) @ gains[k].T for k in range(model.period)]
    )
    X = dple_spps(loops, noise, tol=tol)
    T = model.period
    return (
        max(np.linalg.norm(P.at(k) - central.at(k), 2) for k in range(T)),
        max(np.linalg.norm(X.at(k) - central.at(k), 2) for k in range(T)),
        average_performance(X),
    )


class TestStackedSolve:
    @staticmethod
    def assert_scalar_pair_matches(small_report, rtol):
        report, model, weights = small_report
        central = mf.centralized_dpre(model, tol=ORACLE_TOL)
        for cell in report.cells:
            want = _measurement_form_cell(
                model, weights, cell.L, cell.sensor, central, ORACLE_TOL
            )
            got = (cell.gap_ric, cell.gap_cov, cell.avg_perf)
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    def test_scalar_pair_matches_measurement_form(self, small_report):
        self.assert_scalar_pair_matches(small_report, rtol=1e-9)

    def test_scalar_pair_is_exact_at_the_default_tol(self, small_report):
        # Doubling converges quadratically, so a solve stopped at the
        # default tol lies within rounding of the fixed point.
        self.assert_scalar_pair_matches(small_report, rtol=1e-11)

    def test_benchmark_mixed_supports_match_measurement_form(
        self, bench_plant, bench_weights, monkeypatch
    ):
        # At L = 2 and 3 on the benchmark layout the nodes' fusion supports
        # differ (14 and 3 distinct masks, 15 in all), so rows of one stack fuse
        # different sensor sets; observability is checked once per mask.
        import filterlab.gap as gap_mod

        checked = []
        real = gap_mod.uniform_observability

        def counting(A, C):
            checked.append(C)
            return real(A, C)

        monkeypatch.setattr(gap_mod, "uniform_observability", counting)
        report = build_gap_report(bench_plant, bench_weights, L_values=[2])
        masks = {m.tobytes() for L in (2, 3) for m in weight_power(bench_weights, L)[1]}
        assert len(checked) == len(masks) == 15
        checks = report.stages["observability"]
        assert (checks["observable_support"], checks["masks"]) == (2 * bench_plant.N, 15)
        central = mf.centralized_dpre(bench_plant)
        for cell in report.cells:
            want = _measurement_form_cell(bench_plant, bench_weights, 2, cell.sensor, central)
            got = (cell.gap_ric, cell.gap_cov, cell.avg_perf)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("swept", ["d..d+2", "2"])
    def test_stacking_changes_no_cell(self, bench_plant, bench_graph, bench_weights, swept):
        # The report solves the Riccati recursions of all its depths (the swept
        # ones and each rate's L + 1) as one stack; every cell must match its
        # depth solved alone. L = 2 and 3 mix fusion supports (15 masks).
        from filterlab import diameter

        d = diameter(bench_graph)
        L_values = [d, d + 1, d + 2] if swept == "d..d+2" else [2]
        report = build_gap_report(bench_plant, bench_weights, L_values)
        central = centralized_dpre(bench_plant)
        T, c = bench_plant.period, report.centralized_avg

        def gaps(S):
            return max(np.linalg.norm(S.at(k) - central.at(k), 2) for k in range(T))

        alone = {}
        for L in set(L_values) | {L + 1 for L in L_values}:
            nodes = cmdf_spps(bench_plant, bench_weights, L)
            alone[L] = [(gaps(P), gaps(X), average_performance(X)) for P, X in nodes]
        for L in L_values:
            for i, (gap_ric, gap_cov, perf) in enumerate(alone[L]):
                rate = (alone[L + 1][i][2] - c) / (perf - c)
                cell = report.cell(i, L)
                np.testing.assert_allclose(
                    [cell.gap_ric, cell.gap_cov, cell.avg_perf, cell.rate],
                    [gap_ric, gap_cov, perf, rate],
                    rtol=1e-12,
                    atol=0,
                )

    def test_fusing_only_measuring_sensors_changes_no_bit(
        self, bench_plant, bench_weights, monkeypatch
    ):
        # The 14 relays measure in no slot, so the stack leaves them out of
        # its fused information; that drops exact zeros only. With every
        # sensor counted as measuring, no slot counts as silent either.
        import filterlab.gap as gap

        report = build_gap_report(bench_plant, bench_weights, [2, 4])
        monkeypatch.setattr(gap, "_sensor_information", every_sensor_measuring)
        every = build_gap_report(bench_plant, bench_weights, [2, 4])
        assert every.solver.pop("silent_slots") == 0
        assert report.solver.pop("silent_slots") == 15
        assert every.solver == report.solver
        assert every.cells == report.cells
        assert every.centralized_avg == report.centralized_avg

    def test_one_riccati_and_one_lyapunov_stack(
        self, bench_plant, bench_graph, bench_weights, monkeypatch
    ):
        # Every needed depth and the centralized filter, the fusion row 1' as
        # the Riccati stack's last cell, solve in one call per equation; the
        # centralized cell is the one-cell solve bit for bit.
        import filterlab.gap as gap
        from filterlab import diameter

        stacks = []
        riccati, lyapunov = gap._information_riccati, gap._lyapunov_stack

        def recording_riccati(A, Q, S, tol, *lyapunov):
            stacks.append(("riccati", S.shape[1]))
            own = gap._sensor_information(bench_plant)[3]
            central = gap._fused_information(np.ones((1, len(own[0]))), own)
            assert np.array_equal(S[:, -1:], central)
            return riccati(A, Q, S, tol, *lyapunov)

        def recording_lyapunov(loops, noise, tol, *period_map):
            stacks.append(("lyapunov", loops.shape[1]))
            return lyapunov(loops, noise, tol, *period_map)

        monkeypatch.setattr(gap, "_information_riccati", recording_riccati)
        monkeypatch.setattr(gap, "_lyapunov_stack", recording_lyapunov)
        d = diameter(bench_graph)
        report = build_gap_report(bench_plant, bench_weights, [2, d, d + 1])
        assert stacks == [("riccati", 5 * 20 + 1), ("lyapunov", 5 * 20)]
        central = centralized_dpre(bench_plant)
        assert report.centralized_avg == average_performance(central)
        assert report.solver["centralized"] == {
            "riccati_doublings": central.doublings,
            "riccati_defect": central.defect,
        }

    def test_stack_memory_stays_bounded(self, bench_plant, bench_graph, bench_weights):
        # At most three arrays of the 10-depth stack's full size are held:
        # the fused information, over which the Riccati sweep writes the
        # closed loops, their noise, and the Riccati slots, which hold the
        # gaps once reduced and then the Lyapunov slots.
        import tracemalloc

        from filterlab import diameter

        d = diameter(bench_graph)
        tracemalloc.start()
        try:
            build_gap_report(bench_plant, bench_weights, range(d, d + 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6


class TestCmdfSpps:
    """The public per-node view reads the stacked solve the report is built
    from, so every node's (P, X) reproduces its report cell."""

    @staticmethod
    def _assert_nodes_match_report(model, weights, report, L):
        # The report takes the spectral norm of each symmetric difference as
        # its largest absolute eigenvalue; the same rule gives the same bits.
        central = centralized_dpre(model)
        T = model.period

        def norm(M):
            return np.abs(np.linalg.eigvalsh(M)).max()

        for i, (P, X) in enumerate(cmdf_spps(model, weights, L)):
            cell = report.cell(i, L)
            gap_ric = max(norm(P.at(k) - central.at(k)) for k in range(T))
            gap_cov = max(norm(X.at(k) - central.at(k)) for k in range(T))
            assert (gap_ric, gap_cov) == (cell.gap_ric, cell.gap_cov)
            np.testing.assert_allclose(
                average_performance(X), cell.avg_perf, rtol=1e-14, atol=0
            )

    def test_scalar_pair_nodes_match_report(self, small_report):
        report, model, weights = small_report
        for L in (1, 2, 3):
            self._assert_nodes_match_report(model, weights, report, L)

    def test_benchmark_nodes_match_report(self, bench_plant, bench_graph, bench_weights):
        # L = 2 mixes fusion supports across the stack; L = d gives every
        # node the full support.
        from filterlab import diameter

        d = diameter(bench_graph)
        report = build_gap_report(bench_plant, bench_weights, L_values=[2, d])
        for L in (2, d):
            self._assert_nodes_match_report(bench_plant, bench_weights, report, L)


class TestOneFusion:
    """The consensus filter the Monte Carlo pass runs and the one the theory
    solves fuse the same N W^L. On a 30-node path at L = 29, six entries of
    W^L lie in (0, 1e-12]: the support mask leaves them out, so they show
    whether the mask gates only or also cuts the fused weights."""

    N, L = 30, 29

    @pytest.fixture
    def path(self):
        N = self.N
        plant = PlantModel(A=[[0.9]], Q=[[1.0]], C=[[[1.0]]] * N, R=[[[1.0]]] * N)
        graph = SensorGraph(n_nodes=N, edges=frozenset((i, i + 1) for i in range(N - 1)))
        return plant, graph, metropolis_weights(graph)

    def test_the_pass_fuses_what_the_theory_solves(self, path, monkeypatch):
        import filterlab.gap as gap
        from filterlab import Scenario, harness, simulate_trials

        plant, graph, weights = path
        scn = Scenario(plant, graph, weights, (self.L,), 2, 1, 0, filters=("cmdf",))
        specs = harness._filter_runs(scn)
        ((_, _, _, fusion),) = specs
        assert np.array_equal(fusion, gap._fusion_matrix(plant, weights, self.L, {}))
        # Each step of the pass fuses S and, for its theory curve, S2; the
        # theory fuses the nodes' S over the period, the centralized S, then
        # the nodes' S2 slot by slot as its Riccati sweep reaches each slot.
        calls = []
        fused_information = gap._fused_information

        def recording(fusion, own):
            calls.append((fusion.copy(), fused_information(fusion, own)))
            return calls[-1][1]

        monkeypatch.setattr(gap, "_fused_information", recording)
        X, Y = simulate_trials(plant, 2, range(1))
        harness._run_filters(plant, specs, X, harness._measured(plant, Y), True)
        step = calls[:2]
        calls.clear()
        cmdf_spps(plant, weights, self.L)
        (pass_fusion, pass_S), (pass_squares, pass_S2) = step
        (fusion, S), (squares, S2) = calls[0], calls[2]
        assert np.array_equal(pass_fusion, fusion)
        assert np.array_equal(pass_S, S[0])
        # The sweep's first S2 is slot 0's, (N, n, n).
        assert np.array_equal(pass_squares, squares)
        assert np.array_equal(pass_S2, S2)

    def test_equal_weights_fuse_to_equal_bits(self, path):
        # The fused sum rounds by the memory layout of its weights, so every
        # layout of the same values must be read alike.
        import filterlab.gap as gap

        plant, _, weights = path
        own = gap._sensor_information(plant)[3]
        fusion = gap._fusion_matrix(plant, weights, self.L, {})
        assert fusion.flags.c_contiguous
        padded = np.zeros((2 * self.N, 3 * self.N))
        padded[::2, 1::3] = fusion
        layouts = [
            np.asfortranarray(fusion),
            fusion[:, np.arange(self.N)],
            padded[::2, 1::3],
            fusion.T.copy().T,
        ]
        want = gap._fused_information(fusion, own)
        want_sq = gap._fused_information(fusion**2, own)
        for layout in layouts:
            assert np.array_equal(layout, fusion)
            assert np.array_equal(gap._fused_information(layout, own), want)
            assert np.array_equal(gap._fused_information(layout**2, own), want_sq)

    def test_the_observability_gates_read_the_mask(self, path, monkeypatch, tmp_path):
        import json

        import filterlab.gap as gap
        from filterlab import Scenario, harness
        from filterlab.cli import main

        plant, graph, weights = path
        power, mask = weight_power(weights, self.L)
        tiny = (power > 0) & ~mask
        assert np.count_nonzero(tiny) == 6
        assert power[tiny].max() <= 1e-12 and power[tiny].min() < 1.5e-14
        supports = []
        observable = gap.observable_support

        def recording(model, support, verdicts):
            supports.append(np.asarray(support, dtype=bool))
            return observable(model, support, verdicts)

        monkeypatch.setattr(gap, "observable_support", recording)
        gap._fusion_matrix(plant, weights, self.L, {})
        scn = Scenario(plant, graph, weights, (self.L,), 2, 1, 0)
        config = tmp_path / "path.json"
        config.write_text(json.dumps(harness.scenario_to_dict(scn)))
        assert main(["observability", "--scenario", str(config)]) == 0
        # The gate, then the command's whole-network check and its nodes.
        assert np.array_equal(np.stack(supports[: self.N]), mask)
        assert supports[self.N].all()
        assert np.array_equal(np.stack(supports[self.N + 1 :]), mask)
