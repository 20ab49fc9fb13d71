"""Per-trial reference for the batched filter engine.

``harness._run_filters`` advances every node of every run and every trial
of a scenario at once. This module keeps the plain step-wise filters, one
trial and one time step at a time: the centralized Kalman filter (CKF),
consensus-on-measurement distributed filtering (CMDF) and the
consensus-on-information baseline (CIDF). Each forms its own C' R^{-1} C with ``np.linalg.solve`` and never
calls the engine's information tables, so the tests can pin the engine to an
independent recursion.

Each ``*_step`` consumes the measurements of time k and advances the states
from k-1 to k (predict with A_{k-1}, Q_{k-1}, then correct). Consensus fusion
runs in synchronous rounds: node i only reads neighbor j's previous-round
value where the weight l_ij is nonzero.

``simulate_trajectory`` is the one-trial view of ``periodic.simulate_trials``
that feeds these loops.
"""

from dataclasses import dataclass, field

import numpy as np

from filterlab import (
    ConsensusWeights,
    NumericalError,
    PlantModel,
    ValidationError,
    simulate_trials,
)
from filterlab._linalg import spd_inverse, sym


@dataclass(frozen=True)
class Trajectory:
    """A simulated state path with per-sensor measurements.

    ``states[k]`` is x_k for k = 0..K; ``measurements[i][k]`` is y_{i,k} over
    the same range. ``seed`` records the generator seed used.
    """

    states: np.ndarray
    measurements: tuple[np.ndarray, ...]
    seed: object = field(repr=False)

    def __post_init__(self):
        self.states.setflags(write=False)
        for y in self.measurements:
            y.setflags(write=False)


def simulate_trajectory(
    model: PlantModel,
    K: int,
    seed,
    x0: np.ndarray | None = None,
    noise_scale: float = 1.0,
) -> Trajectory:
    """One trial of ``simulate_trials``, with per-sensor measurements."""
    X, Y = simulate_trials(model, K, [seed], x0, noise_scale)
    measurements = tuple(Y[0, :, sl] for sl in model.observation_slices())
    return Trajectory(states=X[0], measurements=measurements, seed=seed)


@dataclass(frozen=True)
class NodeState:
    """A node's posterior estimate and covariance at some time step."""

    estimate: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        est = np.asarray(self.estimate, dtype=float).reshape(-1)
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if cov.shape != (est.size, est.size):
            raise ValidationError(
                f"covariance shape {cov.shape} does not match state dim {est.size}"
            )
        if np.abs(cov - cov.T).max() > 1e-10:
            raise ValidationError("covariance is not symmetric")
        try:
            np.linalg.cholesky(sym(cov))
        except np.linalg.LinAlgError:
            raise ValidationError("covariance is not positive definite") from None
        est.setflags(write=False)
        cov = sym(cov)
        cov.setflags(write=False)
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "covariance", cov)


def default_states(model: PlantModel) -> list[NodeState]:
    """Zero estimate, identity covariance for every node."""
    n = model.n
    return [
        NodeState(estimate=np.zeros(n), covariance=np.eye(n))
        for _ in range(model.N)
    ]


def _information_terms(model: PlantModel, i: int, k: int, y_i: np.ndarray):
    """(C' R^{-1} C, C' R^{-1} y) for sensor i at time k."""
    C = model.C[i].at(k)
    R = model.R[i].at(k)
    RinvC = np.linalg.solve(R, C)
    return C.T @ RinvC, RinvC.T @ y_i


def ckf_step(
    model: PlantModel, state: NodeState, y_all: np.ndarray, k: int
) -> NodeState:
    """Centralized information-form Kalman step consuming the stacked measurement y_k."""
    if k < 1:
        raise ValidationError("filter steps start at k = 1")
    y_all = np.asarray(y_all, dtype=float).reshape(-1)
    if y_all.size != model.m:
        raise ValidationError(f"stacked measurement must have dimension {model.m}")
    A, Q = model.A.at(k - 1), model.Q.at(k - 1)
    x_pred = A @ state.estimate
    P_pred = sym(A @ state.covariance @ A.T + Q)

    S_info = np.zeros((model.n, model.n))
    i_vec = np.zeros(model.n)
    for i, sl in enumerate(model.observation_slices()):
        dS, di = _information_terms(model, i, k, y_all[sl])
        S_info += dS
        i_vec += di

    P_pred_inv = spd_inverse(P_pred, what="predicted covariance")
    P_post = spd_inverse(P_pred_inv + S_info, what="posterior information")
    x_post = P_post @ (P_pred_inv @ x_pred + i_vec)
    return NodeState(estimate=x_post, covariance=P_post)


def fusion_rounds(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    y: list,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the measurement-information consensus of one sampling instant.

    Each node starts from its own N-scaled information pair and performs L
    synchronous neighbor-averaging rounds. Returns every node's fused pair,
    stacked: S (N, n, n) and I (N, n).
    """
    if L < 0:
        raise ValidationError("fusion step count L must be >= 0")
    N = model.N
    if weights.n_nodes != N:
        raise ValidationError("weight matrix size does not match sensor count")
    S = np.empty((N, model.n, model.n))
    I = np.empty((N, model.n))
    for i in range(N):
        dS, di = _information_terms(model, i, k, np.asarray(y[i], dtype=float).reshape(-1))
        S[i] = N * dS
        I[i] = N * di
    W = weights.matrix
    for _ in range(L):
        # l_ij = 0 contributes nothing, so dense mixing == neighbor reads
        S = np.einsum("ij,jnm->inm", W, S)
        I = W @ I
    return sym(S), I


def cmdf_step(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    states: list[NodeState],
    y: list,
    k: int,
) -> list[NodeState]:
    """One consensus-on-measurement step for all N nodes.

    Per node: predict with (A_{k-1}, Q_{k-1}); fuse N-scaled measurement
    information over L rounds; correct in information form.
    """
    if k < 1:
        raise ValidationError("filter steps start at k = 1")
    if len(states) != model.N or len(y) != model.N:
        raise ValidationError("need one state and one measurement per node")
    A, Q = model.A.at(k - 1), model.Q.at(k - 1)
    S, I = fusion_rounds(model, weights, L, y, k)
    out = []
    for i, state in enumerate(states):
        x_pred = A @ state.estimate
        P_pred = sym(A @ state.covariance @ A.T + Q)
        P_pred_inv = spd_inverse(P_pred, what="predicted covariance")
        P_post = spd_inverse(P_pred_inv + S[i], what="posterior information")
        x_post = P_post @ (P_pred_inv @ x_pred + I[i])
        out.append(NodeState(estimate=x_post, covariance=P_post))
    return out


def cidf_step(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    states: list[NodeState],
    y: list,
    k: int,
) -> list[NodeState]:
    """Consensus-on-information baseline step.

    Each node corrects locally with its own observation, converts to an
    information pair, and averages the pair with neighbors for L rounds (no
    N-scaling, hence the well-known conservatism for large L).
    """
    if k < 1:
        raise ValidationError("filter steps start at k = 1")
    if L < 0:
        raise ValidationError("fusion step count L must be >= 0")
    if len(states) != model.N or len(y) != model.N:
        raise ValidationError("need one state and one measurement per node")
    N, n = model.N, model.n
    A, Q = model.A.at(k - 1), model.Q.at(k - 1)
    Omega = np.empty((N, n, n))
    q = np.empty((N, n))
    for i, state in enumerate(states):
        x_pred = A @ state.estimate
        P_pred = sym(A @ state.covariance @ A.T + Q)
        P_pred_inv = spd_inverse(P_pred, what="predicted covariance")
        dS, di = _information_terms(model, i, k, np.asarray(y[i], dtype=float).reshape(-1))
        Omega[i] = P_pred_inv + dS
        q[i] = P_pred_inv @ x_pred + di
    W = weights.matrix
    for _ in range(L):
        Omega = np.einsum("ij,jnm->inm", W, Omega)
        q = W @ q
    out = []
    for i in range(N):
        try:
            P_post = spd_inverse(sym(Omega[i]), what="mixed information matrix")
        except NumericalError:
            raise NumericalError(
                f"node {i}: information matrix became singular after mixing"
            ) from None
        out.append(NodeState(estimate=P_post @ q[i], covariance=P_post))
    return out
