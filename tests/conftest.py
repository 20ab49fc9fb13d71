"""Shared fixtures and random-system generators."""

import os
import subprocess
import sys

import numpy as np
import pytest

from filterlab import (
    ConsensusWeights,
    PeriodicSequence,
    PlantModel,
    SensorGraph,
    benchmark_plant,
    metropolis_weights,
    random_geometric_graph,
    uniform_observability,
)
from filterlab import harness

BENCH_GRAPH_SEED = 12


def run_python(*args):
    """A fresh interpreter that imports filterlab from this checkout."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail a test that leaves numpy's OpenBLAS thread count changed; the
    filter pass pins it while it runs and must restore it."""
    blas = harness._openblas()
    if blas is None:
        yield
        return
    before = blas[0]()
    yield
    assert blas[0]() == before, "the BLAS thread count was left changed"


@pytest.fixture(scope="session")
def bench_plant() -> PlantModel:
    return benchmark_plant()


@pytest.fixture(scope="session")
def bench_graph() -> SensorGraph:
    return random_geometric_graph(20, 300.0, 130.0, BENCH_GRAPH_SEED)


@pytest.fixture(scope="session")
def bench_weights(bench_graph) -> ConsensusWeights:
    return metropolis_weights(bench_graph)


def scalar_plant(a=1.0, c=1.0, q=1.0, r=1.0) -> PlantModel:
    return PlantModel(A=[[a]], Q=[[q]], C=[[[c]]], R=[[[r]]])


def two_sensor_scalar_plant(a=1.0, c1=1.0, c2=0.5, q=1.0, r=1.0) -> PlantModel:
    return PlantModel(A=[[a]], Q=[[q]], C=[[[c1]], [[c2]]], R=[[[r]], [[r]]])


def two_node_weights(w: float) -> ConsensusWeights:
    return ConsensusWeights(matrix=np.array([[1 - w, w], [w, 1 - w]]))


def two_node_graph() -> SensorGraph:
    return SensorGraph(n_nodes=2, edges=frozenset({(0, 1)}))


def alternating_pair():
    """2-periodic pair: A = 2I, scalar row observing one state per parity.

    Each per-step pair is unobservable, but the alternation makes the
    periodic pair uniformly observable.
    """
    A = PeriodicSequence([2.0 * np.eye(2), 2.0 * np.eye(2)])
    C = PeriodicSequence([np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])])
    return A, C


def complete_graph(n: int) -> SensorGraph:
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    return SensorGraph(n_nodes=n, edges=edges)


def spd(rng, n: int, scale: float = 1.0) -> np.ndarray:
    B = rng.normal(size=(n, n))
    return scale * (B @ B.T) + 0.2 * scale * np.eye(n)


def random_periodic_system(seed: int, n_max: int = 4, T_max: int = 5):
    """A random uniformly observable periodic system with PD noise.

    Transition matrices are scaled to spectral norm <= 1.2 so window products
    stay tame; observability is verified (and nearly always holds since every
    step carries a random observation row).
    """
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, n_max + 1))
        T = int(rng.integers(1, T_max + 1))
        m = int(rng.integers(1, n + 1))
        A = []
        for _ in range(T):
            M = rng.normal(size=(n, n))
            M *= min(1.0, 1.2 / max(np.linalg.norm(M, 2), 1e-9))
            A.append(M)
        C = [rng.normal(size=(m, n)) for _ in range(T)]
        Q = [spd(rng, n) for _ in range(T)]
        R = [spd(rng, m) for _ in range(T)]
        A, C, Q, R = (PeriodicSequence(s) for s in (A, C, Q, R))
        if uniform_observability(A, C):
            return A, C, Q, R, rng
    raise AssertionError(f"no observable system found for seed {seed}")
