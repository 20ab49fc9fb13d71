import numpy as np
import pytest

from conftest import complete_graph
from filterlab import (
    ConsensusWeights,
    SensorGraph,
    ValidationError,
    diameter,
    graph_from_positions,
    is_strongly_connected,
    metropolis_weights,
    random_geometric_graph,
    weight_power,
)
from theory_checks import spectral_diagnostics


def path_graph(n: int) -> SensorGraph:
    return SensorGraph(n_nodes=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> SensorGraph:
    edges = {(i, (i + 1) % n) for i in range(n)}
    return SensorGraph(n_nodes=n, edges=frozenset(edges))


def bfs_diameter_oracle(graph: SensorGraph) -> int | None:
    # Independent all-pairs BFS, kept deliberately dumb; None when some pair
    # is unreachable.
    n = graph.n_nodes
    adj = graph.adjacency()
    worst = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        while queue:
            u = queue.pop(0)
            for v in range(n):
                if adj[u, v] and dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if min(dist) < 0:
            return None
        worst = max(worst, max(dist))
    return worst


class TestGraphConstruction:
    def test_singleton_has_no_edges(self):
        g = random_geometric_graph(1, 300.0, 130.0, seed=0)
        assert g.n_nodes == 1 and len(g.edges) == 0

    def test_two_nodes_within_radius(self):
        g = graph_from_positions([[0.0, 0.0], [100.0, 0.0]], radius=130.0)
        assert g.edges == frozenset({(0, 1)})

    def test_two_nodes_beyond_radius(self):
        g = graph_from_positions([[0.0, 0.0], [200.0, 0.0]], radius=130.0)
        assert len(g.edges) == 0

    def test_benchmark_style_topology(self):
        g = random_geometric_graph(20, 300.0, 130.0, seed=12)
        assert g.n_nodes == 20
        assert is_strongly_connected(g)
        assert g.positions.shape == (20, 2)
        assert g.positions.min() >= 0.0 and g.positions.max() <= 300.0

    def test_deterministic_per_seed(self):
        a = random_geometric_graph(15, 300.0, 100.0, seed=3)
        b = random_geometric_graph(15, 300.0, 100.0, seed=3)
        assert a.edges == b.edges
        assert np.array_equal(a.positions, b.positions)

    def test_rejects_self_edges_and_bad_range(self):
        with pytest.raises(ValidationError):
            SensorGraph(n_nodes=3, edges=frozenset({(1, 1)}))
        with pytest.raises(ValidationError):
            SensorGraph(n_nodes=3, edges=frozenset({(0, 5)}))
        with pytest.raises(ValidationError):
            random_geometric_graph(5, 300.0, 0.0, seed=0)

    def test_json_round_trip(self):
        g = random_geometric_graph(8, 10.0, 4.0, seed=1)
        clone = SensorGraph.from_dict(g.to_dict())
        assert clone.edges == g.edges
        assert np.array_equal(clone.positions, g.positions)


class TestConnectivity:
    def test_path_connected(self):
        assert is_strongly_connected(path_graph(3))

    def test_isolated_nodes(self):
        g = SensorGraph(n_nodes=2, edges=frozenset())
        assert not is_strongly_connected(g)

    def test_zero_radius_never_connected(self):
        # Exhaustive: with zero reach no edges can exist for distinct points.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            g = graph_from_positions(rng.uniform(0, 300, size=(6, 2)), radius=0.0)
            assert len(g.edges) == 0
            assert not is_strongly_connected(g)


class TestDiameter:
    def test_path_of_three(self):
        assert diameter(path_graph(3)) == 2

    def test_complete_graph(self):
        assert diameter(complete_graph(4)) == 1

    def test_six_cycle_against_bfs_oracle(self):
        g = cycle_graph(6)
        assert diameter(g) == 3
        assert diameter(g) == bfs_diameter_oracle(g)

    @pytest.mark.parametrize("n", [1, 2, 6, 12, 20])
    def test_random_graphs_match_oracle(self, n):
        for seed in range(50):
            g = random_geometric_graph(n, 100.0, 45.0, seed=seed)
            want = bfs_diameter_oracle(g)
            assert is_strongly_connected(g) == (want is not None)
            if want is None:
                with pytest.raises(ValidationError):
                    diameter(g)
            else:
                assert diameter(g) == want

    def test_disconnected_raises(self):
        with pytest.raises(ValidationError):
            diameter(SensorGraph(n_nodes=2, edges=frozenset()))


class TestMetropolisWeights:
    def test_two_node_path(self):
        W = metropolis_weights(path_graph(2)).matrix
        assert np.allclose(W, [[0.5, 0.5], [0.5, 0.5]])

    def test_triangle(self):
        W = metropolis_weights(complete_graph(3)).matrix
        assert np.allclose(W, np.full((3, 3), 1.0 / 3.0))

    def test_star_with_three_leaves(self):
        # Hub 0, leaves 1..3: hand-applied formula.
        g = SensorGraph(n_nodes=4, edges=frozenset({(0, 1), (0, 2), (0, 3)}))
        W = metropolis_weights(g).matrix
        for leaf in (1, 2, 3):
            assert W[0, leaf] == pytest.approx(0.25, abs=1e-15)
            assert W[leaf, leaf] == pytest.approx(0.75, abs=1e-15)
        assert W[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert np.abs(W.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(W.sum(axis=1) - 1).max() < 1e-12

    def test_doubly_stochastic_on_random_graphs(self):
        for seed in range(25):
            g = random_geometric_graph(14, 100.0, 50.0, seed=seed)
            if not is_strongly_connected(g):
                continue
            W = metropolis_weights(g).matrix
            assert W.min() >= 0.0
            assert np.abs(W.sum(axis=0) - 1).max() < 1e-12
            assert np.abs(W.sum(axis=1) - 1).max() < 1e-12

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            metropolis_weights(SensorGraph(n_nodes=3, edges=frozenset({(0, 1)})))

    def test_validation_of_raw_matrices(self):
        with pytest.raises(ValidationError):
            ConsensusWeights(matrix=np.array([[0.9, 0.2], [0.1, 0.8]]))
        with pytest.raises(ValidationError):
            ConsensusWeights(matrix=np.array([[1.5, -0.5], [-0.5, 1.5]]))


class TestWeightPower:
    def test_zero_power_is_identity(self):
        W = metropolis_weights(path_graph(3))
        P, mask = weight_power(W, 0)
        assert np.array_equal(P, np.eye(3))
        assert np.array_equal(mask, np.eye(3, dtype=bool))

    def test_complete_graph_averages_in_one_round(self):
        N = 6
        W = metropolis_weights(complete_graph(N))
        assert np.allclose(W.matrix, np.full((N, N), 1.0 / N), atol=1e-15)
        P, mask = weight_power(W, 1)
        assert np.allclose(P, 1.0 / N, atol=1e-15)
        assert mask.all()

    def test_triangle_two_rounds(self):
        W = metropolis_weights(complete_graph(3))
        P, _ = weight_power(W, 2)
        assert np.allclose(P, 1.0 / 3.0, atol=1e-15)

    def test_full_support_at_diameter(self):
        for seed in (1, 2, 12):
            g = random_geometric_graph(16, 100.0, 40.0, seed=seed)
            if not is_strongly_connected(g):
                continue
            W = metropolis_weights(g)
            d = diameter(g)
            _, mask = weight_power(W, d)
            assert mask.all()

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError):
            weight_power(metropolis_weights(path_graph(2)), -1)


class TestSpectralDiagnostics:
    def test_complete_graph_gap(self):
        W = metropolis_weights(complete_graph(5))
        sigma2, (M, q) = spectral_diagnostics(W)
        assert sigma2 < 1e-12
        assert q <= 0.02

    def test_two_node_pair(self):
        # Eigenvalues of [[.5,.5],[.5,.5]] are 1 and 0.
        W = metropolis_weights(path_graph(2))
        sigma2, _ = spectral_diagnostics(W)
        assert sigma2 < 1e-12

    def test_fit_bounds_norms(self):
        g = random_geometric_graph(12, 100.0, 40.0, seed=2)
        assert is_strongly_connected(g)
        W = metropolis_weights(g)
        k_max = 40
        sigma2, (M, q) = spectral_diagnostics(W, k_max=k_max)
        assert q <= sigma2 + 0.02
        J = np.full((12, 12), 1.0 / 12.0)
        P = np.eye(12)
        for k in range(k_max + 1):
            assert np.linalg.norm(P - J, 2) <= M * q**k + 1e-12
            P = W.matrix @ P

    def test_disconnected_raises(self):
        W = ConsensusWeights(matrix=np.eye(3))
        with pytest.raises(ValidationError):
            spectral_diagnostics(W)
        # A doubly stochastic mixture of permutations that each keep the
        # blocks {0, 1} and {2, 3, 4}: every node has neighbours, but the
        # blocks never exchange information.
        swap = np.eye(5)[[1, 0, 2, 3, 4]]
        cycle = np.eye(5)[[0, 1, 3, 4, 2]]
        W = ConsensusWeights(matrix=0.5 * swap + 0.3 * cycle + 0.2 * np.eye(5))
        with pytest.raises(ValidationError):
            spectral_diagnostics(W)

    def test_contraction_is_monotone(self):
        g = random_geometric_graph(10, 100.0, 45.0, seed=4)
        assert is_strongly_connected(g)
        W = metropolis_weights(g).matrix
        J = np.full((10, 10), 0.1)
        prev = np.linalg.norm(np.eye(10) - J, 2)
        P = np.eye(10)
        for _ in range(25):
            P = W @ P
            cur = np.linalg.norm(P - J, 2)
            assert cur <= prev + 1e-12
            prev = cur

