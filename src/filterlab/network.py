"""Sensor communication graphs and doubly stochastic consensus weights."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, config_integer, config_object, config_section

# Entries of weight-matrix powers at or below this are treated as structural
# zeros (no information path of that length).
STRUCTURAL_ZERO_TOL = 1e-12

# Tolerance on row/column sums of a doubly stochastic matrix.
STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True)
class SensorGraph:
    """Undirected communication graph over ``n_nodes`` sensors.

    Edges are stored as (i, j) pairs with i < j and zero-based node ids;
    self-loops are not represented here (self-weights live in the consensus
    weight matrix). ``positions`` optionally carries 2-D node coordinates.
    """

    n_nodes: int
    edges: frozenset
    positions: np.ndarray | None = None

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValidationError("graph needs at least one node")
        normalized = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValidationError(f"edge {list(e)} is not a pair of node ids")
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValidationError(f"self-edge ({i},{i}) is not allowed")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValidationError(f"edge ({i},{j}) out of range")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(normalized))
        if self.positions is not None:
            pos = np.asarray(self.positions, dtype=float)
            if pos.shape != (self.n_nodes, 2):
                raise ValidationError("positions must have shape (n_nodes, 2)")
            pos.setflags(write=False)
            object.__setattr__(self, "positions", pos)

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n_nodes, self.n_nodes))
        for i, j in self.edges:
            A[i, j] = A[j, i] = 1.0
        return A

    def degrees(self) -> np.ndarray:
        return self.adjacency().sum(axis=1).astype(int)

    def to_dict(self) -> dict:
        data = {
            "N": self.n_nodes,
            "edges": sorted([list(e) for e in self.edges]),
        }
        if self.positions is not None:
            data["positions"] = self.positions.tolist()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SensorGraph":
        with config_section("graph"):
            config_object(data, ("N", "edges", "positions"), "graph")
            return cls(
                n_nodes=config_integer(data["N"], "N"),
                edges=frozenset(
                    tuple(config_integer(v, "edges") for v in e) for e in data["edges"]
                ),
                positions=np.asarray(data["positions"], dtype=float)
                if data.get("positions") is not None
                else None,
            )


@dataclass(frozen=True)
class ConsensusWeights:
    """A doubly stochastic fusion weight matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.matrix, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValidationError("weight matrix must be square")
        if not np.isfinite(W).all():
            raise ValidationError("weight matrix has non-finite entries")
        if W.min() < -STOCHASTIC_TOL:
            raise ValidationError("weight matrix has negative entries")
        rows = np.abs(W.sum(axis=1) - 1.0).max()
        cols = np.abs(W.sum(axis=0) - 1.0).max()
        if rows > STOCHASTIC_TOL or cols > STOCHASTIC_TOL:
            raise ValidationError(
                f"matrix is not doubly stochastic (row defect {rows:.2e}, "
                f"column defect {cols:.2e})"
            )
        W = W.copy()
        W.setflags(write=False)
        object.__setattr__(self, "matrix", W)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def consistent_with(self, graph: SensorGraph) -> bool:
        """True iff off-diagonal support is contained in the graph's edges."""
        if graph.n_nodes != self.n_nodes:
            return False
        adj = graph.adjacency()
        off = self.matrix.copy()
        np.fill_diagonal(off, 0.0)
        return bool(np.all((off <= STRUCTURAL_ZERO_TOL) | (adj > 0)))


def graph_from_positions(positions, radius: float) -> SensorGraph:
    """Connect every pair of nodes within Euclidean distance ``radius``."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    n = pos.shape[0]
    edges = set()
    for i in range(n):
        d = np.hypot(*(pos[i + 1 :] - pos[i]).T)
        for off in np.nonzero(d <= radius)[0]:
            edges.add((i, i + 1 + int(off)))
    return SensorGraph(n_nodes=n, edges=frozenset(edges), positions=pos)


def random_geometric_graph(
    n_nodes: int, side: float, radius: float, seed
) -> SensorGraph:
    """Drop nodes uniformly in a ``side`` x ``side`` square, connect within
    ``radius``. Deterministic per seed; the result may be disconnected."""
    if n_nodes < 1:
        raise ValidationError("need at least one node")
    if radius <= 0:
        raise ValidationError("radius must be positive")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, side, size=(n_nodes, 2))
    return graph_from_positions(positions, radius)


def _hops(adjacency: np.ndarray) -> np.ndarray:
    """Fewest edges from node i to node j over the nonzero entries of
    ``adjacency``, -1 where no path exists: one boolean product per hop,
    until one reaches no new pair (diameter + 1 products when connected)."""
    step = np.asarray(adjacency) > 0
    reach = np.eye(step.shape[0], dtype=bool)
    hops = np.where(reach, 0, -1)
    for k in range(1, step.shape[0]):
        new = (reach @ step) & ~reach
        if not new.any():
            break
        hops[new] = k
        reach |= new
    return hops


def is_strongly_connected(graph: SensorGraph) -> bool:
    """For an undirected graph, strong connectivity is plain connectivity."""
    return bool((_hops(graph.adjacency()) >= 0).all())


def diameter(graph: SensorGraph) -> int:
    """Longest shortest path between any two nodes."""
    hops = _hops(graph.adjacency())
    if (hops < 0).any():
        raise ValidationError("diameter is undefined for a disconnected graph")
    return int(hops.max())


def metropolis_weights(graph: SensorGraph) -> ConsensusWeights:
    """Metropolis-Hastings weights: w_ij = 1/(1 + max(deg_i, deg_j)) on edges,
    diagonal absorbs the remainder. Symmetric, hence doubly stochastic."""
    if not is_strongly_connected(graph):
        raise ValidationError("metropolis weights require a connected graph")
    deg = graph.degrees()
    W = graph.adjacency() / (1.0 + np.maximum.outer(deg, deg))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return ConsensusWeights(matrix=W)


def weight_power(
    weights: ConsensusWeights, L: int
) -> tuple[np.ndarray, np.ndarray]:
    """L-th power of the weight matrix plus a boolean support mask.

    Mask entries are False where the power is at or below the structural-zero
    threshold, i.e. where no length-L information path exists.
    """
    if L < 0:
        raise ValidationError("L must be >= 0")
    P = np.linalg.matrix_power(weights.matrix, L)
    return P, P > STRUCTURAL_ZERO_TOL


def check_fusion_steps(L_values) -> tuple[int, ...]:
    """The fusion depths as ints; ValidationError if one is negative or repeats."""
    L_values = tuple(int(L) for L in L_values)
    if any(L < 0 for L in L_values):
        raise ValidationError("fusion steps must be >= 0")
    repeated = sorted({L for L in L_values if L_values.count(L) > 1})
    if repeated:
        raise ValidationError(f"fusion steps repeat {repeated}")
    return L_values


def second_largest_eigenvalue(weights: ConsensusWeights) -> float:
    """Modulus of the second-largest eigenvalue of the weight matrix."""
    mods = np.sort(np.abs(np.linalg.eigvals(weights.matrix)))
    return float(mods[-2]) if len(mods) > 1 else 0.0
