"""Periodic system data: matrix sequences, plant models, trajectory simulation.

Everything here is immutable after construction; trajectory simulation is a
pure function of (model, horizon, seeds, x0, noise_scale).
"""

import math

import numpy as np

from ._linalg import sym
from .errors import (
    NumericalError,
    ValidationError,
    config_integer,
    config_object,
    config_section,
)

# Smallest admissible eigenvalue of a noise covariance matrix, and its largest
# asymmetry, each relative to the matrix's own scale.
PD_EIG_TOL = 1e-12
SYMMETRY_TOL = 1e-10


class PeriodicSequence:
    """A T-periodic sequence of equally shaped real matrices.

    Indexing is defined for every integer time step: ``seq.at(k)`` returns
    the stored matrix at slot ``k % period``. ``stack`` is the read-only
    (period, rows, cols) array of one period's matrices.
    """

    def __init__(self, items):
        if isinstance(items, PeriodicSequence):
            self.stack = items.stack
            return
        if isinstance(items, (list, tuple)) or (isinstance(items, np.ndarray) and items.ndim == 3):
            mats = items
        else:
            mats = [items]
        try:
            # One copy of the whole period, so the caller's array stays writable.
            stack = np.array(mats, dtype=float)
        except ValueError:
            stack = None
        if stack is None or stack.ndim != 3:
            # Items that are not all matrices of one shape: each is read as
            # a matrix on its own, and the first that is not one is named.
            arrays = [np.atleast_2d(np.asarray(m, dtype=float)) for m in mats]
            for idx, a in enumerate(arrays):
                if a.ndim != 2:
                    raise ValidationError(f"item {idx} is not a matrix")
                if a.shape != arrays[0].shape:
                    raise ValidationError(
                        f"item {idx} has shape {a.shape}, expected {arrays[0].shape}"
                    )
            stack = np.stack(arrays) if arrays else np.empty((0, 0, 0))
        if len(stack) == 0:
            raise ValidationError("a periodic sequence needs at least one matrix")
        self.stack = stack
        self.stack.setflags(write=False)

    @property
    def period(self) -> int:
        return self.stack.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.stack.shape[1:]

    def at(self, k: int) -> np.ndarray:
        return self.stack[k % self.period]

    def __len__(self) -> int:
        return self.period

    def __iter__(self):
        return iter(self.stack)

    def __repr__(self) -> str:
        return f"PeriodicSequence(period={self.period}, shape={self.shape})"

    def with_period(self, period: int) -> "PeriodicSequence":
        """Re-express the sequence over a longer period (a multiple of its own)."""
        if period % self.period != 0:
            raise ValidationError(
                f"target period {period} is not a multiple of {self.period}"
            )
        if period == self.period:
            return self
        return PeriodicSequence(np.tile(self.stack, (period // self.period, 1, 1)))

    def tolist(self):
        return [m.tolist() for m in self.stack]


def as_periodic(items) -> PeriodicSequence:
    """Coerce a matrix, list of matrices, or sequence into a PeriodicSequence."""
    return items if isinstance(items, PeriodicSequence) else PeriodicSequence(items)


def normalize_period(sequences: list) -> list[PeriodicSequence]:
    """Re-express sequences over their common (lcm) period, values unchanged."""
    seqs = [as_periodic(s) for s in sequences]
    if not seqs:
        return []
    common = math.lcm(*(s.period for s in seqs))
    return [s.with_period(common) for s in seqs]


def _check_finite_sequence(seq: PeriodicSequence, name: str) -> None:
    """ValidationError naming the first slot with a non-finite entry."""
    bad = np.flatnonzero(~np.isfinite(seq.stack).all(axis=(1, 2)))
    if bad.size:
        raise ValidationError(f"{name}[{bad[0]}] has non-finite entries")


def _check_spd_sequence(seq: PeriodicSequence, name: str) -> None:
    """ValidationError naming the first slot that is not finite, symmetric
    and positive definite, with its first failed check; all slots are
    checked as one stack."""
    r, c = seq.shape
    if r != c:
        raise ValidationError(f"{name} matrices must be square, got {seq.shape}")
    finite = np.isfinite(seq.stack).all(axis=(1, 2))
    M = np.where(finite[:, None, None], seq.stack, 0.0)
    size = np.abs(M).max(axis=(1, 2))
    asymmetric = np.abs(M - M.swapaxes(1, 2)).max(axis=(1, 2)) > SYMMETRY_TOL * size
    eig = np.linalg.eigvalsh(sym(M))
    indefinite = eig[:, 0] <= PD_EIG_TOL * np.abs(eig).max(axis=1)
    bad = np.flatnonzero(~finite | asymmetric | indefinite)
    if bad.size == 0:
        return
    k = int(bad[0])
    if not finite[k]:
        raise ValidationError(f"{name}[{k}] has non-finite entries")
    if asymmetric[k]:
        raise ValidationError(f"{name}[{k}] is not symmetric")
    raise ValidationError(
        f"{name}[{k}] is not positive definite (min eig <= {PD_EIG_TOL} x largest |eig|)"
    )


class PlantModel:
    """A T-periodic plant observed by a network of N sensors.

    State dynamics x_{k+1} = A_k x_k + w_k with cov(w_k) = Q_k, and per-sensor
    measurements y_{i,k} = C_{i,k} x_k + v_{i,k} with cov(v_{i,k}) = R_{i,k}.
    All constituent sequences are normalized to their common period at
    construction, so every downstream solver sees a single period.
    """

    def __init__(self, A, Q, C, R):
        if len(C) != len(R):
            raise ValidationError("need one R sequence per C sequence")
        if len(C) == 0:
            raise ValidationError("at least one sensor is required")
        seqs = normalize_period([A, Q, *C, *R])
        self.A: PeriodicSequence = seqs[0]
        self.Q: PeriodicSequence = seqs[1]
        n_sensors = len(C)
        self.C: tuple[PeriodicSequence, ...] = tuple(seqs[2 : 2 + n_sensors])
        self.R: tuple[PeriodicSequence, ...] = tuple(seqs[2 + n_sensors :])

        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValidationError(f"A must be square, got {self.A.shape}")
        _check_finite_sequence(self.A, "A")
        if self.Q.shape != (n, n):
            raise ValidationError(f"Q must be {n}x{n}, got {self.Q.shape}")
        for i, (Ci, Ri) in enumerate(zip(self.C, self.R)):
            ni = Ci.shape[0]
            if Ci.shape[1] != n:
                raise ValidationError(f"C[{i}] must have {n} columns")
            if Ri.shape != (ni, ni):
                raise ValidationError(f"R[{i}] must be {ni}x{ni} to match C[{i}]")
            _check_finite_sequence(Ci, f"C[{i}]")
        _check_spd_sequence(self.Q, "Q")
        for i, Ri in enumerate(self.R):
            _check_spd_sequence(Ri, f"R[{i}]")

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def N(self) -> int:
        """Sensor count."""
        return len(self.C)

    @property
    def m(self) -> int:
        """Total stacked observation dimension."""
        return sum(Ci.shape[0] for Ci in self.C)

    @property
    def period(self) -> int:
        return self.A.period

    @property
    def sensor_dims(self) -> tuple[int, ...]:
        return tuple(Ci.shape[0] for Ci in self.C)

    def observation_slices(self) -> list[slice]:
        """Per-sensor row slices into the stacked observation vector."""
        out, start = [], 0
        for ni in self.sensor_dims:
            out.append(slice(start, start + ni))
            start += ni
        return out

    def __repr__(self) -> str:
        return (
            f"PlantModel(n={self.n}, N={self.N}, m={self.m}, period={self.period})"
        )

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "A": self.A.tolist(),
            "Q": self.Q.tolist(),
            "sensors": [
                {"C": Ci.tolist(), "R": Ri.tolist()}
                for Ci, Ri in zip(self.C, self.R)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlantModel":
        with config_section("plant"):
            if isinstance(data, dict) and "builtin" in data:
                config_object(data, ("builtin",), "plant")
                try:
                    factory = BUILTIN_PLANTS[data["builtin"]]
                except KeyError:
                    raise ValidationError(
                        f"unknown builtin plant {data['builtin']!r}; "
                        f"known: {sorted(BUILTIN_PLANTS)}"
                    ) from None
                return factory()
            config_object(data, ("A", "Q", "sensors", "period"), "plant")
            sensors = [
                config_object(s, ("C", "R"), f"plant sensors[{i}]")
                for i, s in enumerate(data["sensors"])
            ]
            model = cls(
                A=data["A"],
                Q=data["Q"],
                C=[s["C"] for s in sensors],
                R=[s["R"] for s in sensors],
            )
            if "period" in data and model.period != config_integer(data["period"], "period"):
                raise ValidationError(
                    f"declared period {data['period']} does not match "
                    f"the sequences' common period {model.period}"
                )
            return model


def simulate_trials(
    model: PlantModel,
    K: int,
    seeds,
    x0: np.ndarray | None = None,
    noise_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate K steps of the plant once per seed, all trials at once.

    Returns the states X (h, K+1, n) and the stacked measurements
    Y (h, K+1, m) of h = len(seeds) trials; sensor i's y_{i,k} is
    ``Y[:, k, model.observation_slices()[i]]``. Trial l draws (K, n) and then
    (K+1, m) standard normals from ``np.random.default_rng(seeds[l])``, so its
    process noise is N(0, noise_scale^2 Q_k) and its measurement noise
    N(0, noise_scale^2 R_k) with R_k block-diagonal over the sensors.
    noise_scale = 0 yields the deterministic system response. Identical
    arguments reproduce every trial bit-exactly; the same seed in a call with
    a different number of trials agrees to rounding.

    Each sensor's noise columns are shaped in place by its own R_j Cholesky
    factor, and C_j x is added only for the sensors whose C_j is nonzero in
    some slot, so no full-size temporary of Y is made. Where every sensor has
    one row, as on the benchmark, this gives the digits of one dense
    block-diagonal factor bit for bit; with multi-row sensors the sums run
    in another order and Y moves at rounding level (about 1e-16 relative).
    """
    if K < 1:
        raise ValidationError("horizon K must be >= 1")
    if not 0 <= noise_scale < math.inf:
        raise ValidationError("noise_scale must be a finite number >= 0")
    n, m, T, h = model.n, model.m, model.period, len(seeds)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValidationError(f"x0 must have shape ({n},)")
    slots = np.arange(K + 1) % T
    W = np.zeros((h, K, n))
    Y = np.zeros((h, K + 1, m))
    sensors = list(zip(model.observation_slices(), model.C, model.R))
    if noise_scale > 0:
        for l, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            rng.standard_normal(out=W[l])
            rng.standard_normal(out=Y[l])
        chol_Q = noise_scale * np.linalg.cholesky(sym(model.Q.stack))
        W = np.einsum("kij,hkj->hki", chol_Q[slots[:-1]], W)
        for sl, _, Rj in sensors:
            chol_R = noise_scale * np.linalg.cholesky(sym(Rj.stack))
            Y[:, :, sl] = np.einsum("kij,hkj->hki", chol_R[slots], Y[:, :, sl])

    X = np.empty((h, K + 1, n))
    X[:, 0] = x0
    for k in range(K):
        X[:, k + 1] = X[:, k] @ model.A.stack[slots[k]].T + W[:, k]
    if not np.all(np.isfinite(X)):
        raise NumericalError(
            "trajectory produced non-finite values (unstable plant at this horizon)"
        )
    for sl, Cj, _ in sensors:
        if Cj.stack.any():
            Y[:, :, sl] += np.einsum("kij,hkj->hki", Cj.stack[slots], X)
    return X, Y


def benchmark_plant() -> PlantModel:
    """Built-in benchmark: two coupled oscillating 2-state blocks, 20 sensors.

    The 4-state plant is block-diagonal with a sinusoidally modulated 2x2
    block (modulation frequencies pi/3 and pi/5, overall period 30). Three
    sensors see state 1 on odd steps, three see state 3 on odd steps, and 14
    are naive relays with all-zero observation rows; every sensor has unit
    measurement noise.
    """
    T = 30
    w1, w2 = np.pi / 3.0, np.pi / 5.0

    def block(k: int) -> np.ndarray:
        return np.array(
            [
                [0.8 + 0.4 * np.sin(w1 * k), 0.5 * np.sin(w2 * k)],
                [0.7 * np.cos(w1 * k), 0.9 + 0.3 * np.cos(w2 * k)],
            ]
        )

    A = [
        np.block(
            [[block(k), np.zeros((2, 2))], [np.zeros((2, 2)), block(k)]]
        )
        for k in range(T)
    ]
    dt = 1.0
    G = np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    Q = np.block([[G, 0.5 * G], [0.5 * G, G]])

    zero_row = np.zeros((1, 4))
    c_first = np.array([[1.0, 0.0, 0.0, 0.0]])
    c_third = np.array([[0.0, 0.0, 1.0, 0.0]])

    def scheduled(row: np.ndarray) -> PeriodicSequence:
        # observes on odd steps only, period 2
        return PeriodicSequence([zero_row, row])

    C = (
        [scheduled(c_first)] * 3
        + [scheduled(c_third)] * 3
        + [PeriodicSequence(zero_row)] * 14
    )
    R = [PeriodicSequence(np.array([[1.0]]))] * 20
    return PlantModel(A=A, Q=Q, C=C, R=R)


BUILTIN_PLANTS = {
    "paper_sec5": benchmark_plant,
}
