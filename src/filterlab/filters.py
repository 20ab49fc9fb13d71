"""Step-wise filters: centralized Kalman (CKF), consensus-on-measurement
distributed filtering (CMDF), and the consensus-on-information baseline (CIDF).

Each ``*_step`` consumes the measurements of time k and advances the states
from k-1 to k (predict with A_{k-1}, Q_{k-1}, then correct). Consensus fusion
runs in synchronous rounds: node i only reads neighbor j's previous-round
value where the weight l_ij is nonzero.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import spd_inverse, sym
from .errors import NumericalError, ValidationError
from .network import ConsensusWeights, weight_power
from .periodic import PeriodicSequence, PlantModel


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


@dataclass(frozen=True)
class FusionProducts:
    """Scaled information pair held by a node after ``rounds`` fusion rounds."""

    S: np.ndarray
    I: np.ndarray
    rounds: int


@dataclass(frozen=True)
class ModifiedObservation:
    """The observation model a node effectively fuses after L rounds.

    ``C`` stacks every sensor's observation matrix, zeroed outside the node's
    L-step support. ``R_effective`` carries blocks R_j / (N l_ij^(L)) on the
    support (zero elsewhere); ``R_masked`` carries the raw R_j blocks on the
    support. ``support`` flags which sensors contribute.
    """

    C: np.ndarray
    R_effective: np.ndarray
    R_masked: np.ndarray
    support: np.ndarray
    block_slices: tuple

    def compressed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Supported rows/blocks only; the effective noise block is then PD."""
        keep = [sl for sl, s in zip(self.block_slices, self.support) if s]
        if not keep:
            n = self.C.shape[1]
            return np.zeros((0, n)), np.zeros((0, 0)), np.zeros((0, 0))
        rows = np.concatenate([np.arange(sl.start, sl.stop) for sl in keep])
        return (
            self.C[rows],
            self.R_effective[np.ix_(rows, rows)],
            self.R_masked[np.ix_(rows, rows)],
        )

    def info_matrix(self) -> np.ndarray:
        """C' R_effective^{-1} C over the supported blocks."""
        C_c, R_eff, _ = self.compressed()
        if C_c.shape[0] == 0:
            n = self.C.shape[1]
            return np.zeros((n, n))
        return sym(C_c.T @ np.linalg.solve(R_eff, C_c))


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


def _sensor_information(plant: PlantModel) -> tuple[np.ndarray, np.ndarray]:
    """Per period slot t: R_j^{-1} C_j stacked over sensors, (T, m, n), and
    C_j' R_j^{-1} C_j, (T, N, n, n)."""
    T, n = plant.period, plant.n
    gain = np.empty((T, plant.m, n))
    own = np.empty((T, plant.N, n, n))
    for t in range(T):
        for j, sl in enumerate(plant.observation_slices()):
            C = plant.C[j].at(t)
            gain[t, sl] = np.linalg.solve(plant.R[j].at(t), C)
            own[t, j] = C.T @ gain[t, sl]
    return gain, own


def _fused_information(fusion: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per slot and fusing node i, (T, rows, n, n): the fused information
    S_i = sum_j fusion_ij C_j' R_j^{-1} C_j and, for the noise that fusion
    injects, S2_i = sum_j fusion_ij^2 C_j' R_j^{-1} C_j; ``own`` is the
    second table of ``_sensor_information``."""
    return (
        sym(np.einsum("ij,tjab->tiab", fusion, own)),
        sym(np.einsum("ij,tjab->tiab", fusion**2, own)),
    )


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
) -> list[FusionProducts]:
    """Run the measurement-information consensus of one sampling instant.

    Each node starts from its own N-scaled information pair and performs L
    synchronous neighbor-averaging rounds.
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
    return [FusionProducts(S=sym(S[i]), I=I[i], rounds=L) for i in range(N)]


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
    fused = fusion_rounds(model, weights, L, y, k)
    out = []
    for i, state in enumerate(states):
        x_pred = A @ state.estimate
        P_pred = sym(A @ state.covariance @ A.T + Q)
        P_pred_inv = spd_inverse(P_pred, what="predicted covariance")
        P_post = spd_inverse(P_pred_inv + fused[i].S, what="posterior information")
        x_post = P_post @ (P_pred_inv @ x_pred + fused[i].I)
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


def modified_observation(
    model: PlantModel,
    weights: ConsensusWeights,
    L: int,
    i: int,
    k: int,
) -> ModifiedObservation:
    """Observation model equivalent to node i's L-round fusion at time k.

    Sensor j is in the support iff the (i, j) entry of the L-th weight power
    exceeds the structural-zero threshold. On the support the effective noise
    block is R_j / (N l_ij^(L)); off it, rows and blocks are zero. The
    identity C' R_effective^{-1} C = N sum_j l_ij^(L) C_j' R_j^{-1} C_j holds
    over the supported blocks.
    """
    if not (0 <= i < model.N):
        raise ValidationError(f"sensor index {i} out of range")
    power, mask = weight_power(weights, L)
    return _modified_from_row(model, power[i], mask[i], k)


def _modified_from_row(
    model: PlantModel, row: np.ndarray, support: np.ndarray, k: int
) -> ModifiedObservation:
    N, m, n = model.N, model.m, model.n
    slices = tuple(model.observation_slices())
    C = np.zeros((m, n))
    R_eff = np.zeros((m, m))
    R_mask = np.zeros((m, m))
    for j, sl in enumerate(slices):
        if not support[j]:
            continue
        C[sl] = model.C[j].at(k)
        R_eff[sl, sl] = model.R[j].at(k) / (N * row[j])
        R_mask[sl, sl] = model.R[j].at(k)
    return ModifiedObservation(
        C=C,
        R_effective=R_eff,
        R_masked=R_mask,
        support=support.copy(),
        block_slices=slices,
    )


def modified_sequences(
    model: PlantModel, weights: ConsensusWeights, L: int, i: int
) -> tuple[PeriodicSequence, PeriodicSequence, PeriodicSequence, np.ndarray]:
    """One period of node i's compressed modified observation model.

    Returns (C, R_effective, R_masked, support) with the unsupported blocks
    dropped, so the effective noise sequence is positive definite and can be
    fed to the Riccati solver directly.
    """
    power, mask = weight_power(weights, L)
    support = mask[i]
    period = model.period
    C_list, R_eff_list, R_mask_list = [], [], []
    for k in range(period):
        mod = _modified_from_row(model, power[i], support, k)
        C_c, R_eff_c, R_mask_c = mod.compressed()
        C_list.append(C_c)
        R_eff_list.append(R_eff_c)
        R_mask_list.append(R_mask_c)
    if C_list[0].shape[0] == 0:
        raise ValidationError(
            f"node {i} has empty fusion support at L={L}; no observation model exists"
        )
    return (
        PeriodicSequence(C_list),
        PeriodicSequence(R_eff_list),
        PeriodicSequence(R_mask_list),
        support,
    )
