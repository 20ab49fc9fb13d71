"""Monte Carlo experiment engine: run trials of the configured filters over a
scenario, accumulate empirical mean-square errors, and set them against the
theoretical covariance curves.

All three filters are one information-form filter over a stack of nodes,
told apart by two matrices: ``prior_mix`` mixes the nodes' predicted
information P_j^{-1} x_j and ``fusion`` the sensors' measurement
information C_j' R_j^{-1} y_j. The centralized Kalman filter (CKF) is one
node with ([[1]], 1'), the consensus-on-measurement filter (CMDF) is
(I, N W^L), the fusion its theory solves (``gap._fusion_matrix``, whose
support mask only gates observability), and the consensus-on-information
baseline (CIDF) is (W^L, W^L). Node i corrects to x_i = P+_i q_i with

    q_i = sum_j prior_mix_ij P_j^{-1} x_j + sum_j fusion_ij C_j' R_j^{-1} y_j.

A slot without information is a prediction step. Which sensor measures at
which period slot is decided by ``gap._sensor_information``, whose tables
the pass and the theory read. A sensor that does not measure at a slot (its
C_j is zero there, as for the benchmark's relays and its off-schedule
slots) is left out of that slot's fused information and fused measurement,
and at a silent slot, where no sensor measures, the fuse is skipped and the
corrected information is the predicted one. Only exact zeros are left out,
so no number changes. A sensor that measures at no slot has no column in
the measurements a pass holds (``_measured``).

The covariances are data-independent, so one pass over the steps serves
every run of a scenario. It advances the covariances of the nodes of all
runs as one stack, a window of WINDOW_STEPS steps at a time; then each
block of whole runs advances its slice of the one estimate stack, all
trials together, over the window's steps while the block is in cache, and
reduces its squared errors on the spot. From SPLIT_MIN_TRIALS trials on,
with two blocks, two usable CPUs and numpy's OpenBLAS found, a second
thread advances every other block. Numpy's OpenBLAS is pinned to one
thread while any pass runs. No step mixes rows of different runs, so the
results do not depend on the thread count, the blocks or the window.
Empirical MSE is computed on the one-step-ahead (predicted) estimates,
matching the error covariance recursions the theory curves iterate.
"""

import contextlib
import contextvars
import dataclasses
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ._artifacts import timed, write_csv, write_json
from ._linalg import spd_inverse, sym
from .errors import (
    NumericalError,
    ValidationError,
    config_integer,
    config_object,
    config_section,
)
from . import gap as gap_mod
from .network import (
    ConsensusWeights,
    SensorGraph,
    check_fusion_steps,
    diameter,
    is_strongly_connected,
    metropolis_weights,
    random_geometric_graph,
    second_largest_eigenvalue,
    weight_power,
)
from .periodic import PlantModel, benchmark_plant, simulate_trials
from .spps import DEFAULT_TOL

KNOWN_FILTERS = ("ckf", "cmdf", "cidf")
DIVERGENCE_NORM = 1e9
# A filter pass with at least this many trials runs on two threads. Walls of
# a pass of the benchmark's 19 runs over 100 steps on a 2-core VM, one thread
# against two, in 5 alternating pairs: two threads lost all 5 at 40 trials
# (two blocks of 301 and 60 rows) and won from 100 on, but at 450 by 2-7%
# and only 3 of 5 pairs in one of three rounds; at 600 they won every pair,
# 0.47-0.49 against 0.39-0.45 s, at 750 0.60-0.70 against 0.45-0.59 s and
# at 1500 1.22-1.27 against 0.72-0.76 s. A 300-trial pass stays on one
# thread: a second thread's scratch raises its traced peak by about 1 MB.
SPLIT_MIN_TRIALS = 600
# A filter pass advances its estimates in blocks of whole runs of at most
# BLOCK_BYTES (``_pass_layout``), each over a window of WINDOW_STEPS steps
# while it is in cache. On a 2-core VM with 2 MB of L2 a core, a
# 300-trial benchmark pass took 0.29-0.30 s at these values, 0.30-0.34 s
# with 4-step windows and 0.36-0.44 s with 20-step ones.
BLOCK_BYTES = 384 * 1024
WINDOW_STEPS = 10
DEFAULT_SEED = 7
DEFAULT_GRAPH_SEED = 12
# The top-level keys of a config file; any other key is an error.
SCENARIO_KEYS = ("plant", "graph", "weights", "L_values", "horizon", "trials", "seed", "filters")


@dataclass
class Scenario:
    """Everything one experiment needs: plant, network, sweep, and budgets."""

    plant: PlantModel
    graph: SensorGraph
    weights: ConsensusWeights
    L_values: tuple
    horizon: int
    trials: int
    seed: int
    filters: tuple = ("ckf", "cmdf")

    def __post_init__(self):
        self.L_values = check_fusion_steps(self.L_values)
        self.filters = tuple(self.filters)
        unknown = set(self.filters) - set(KNOWN_FILTERS)
        if unknown:
            raise ValidationError(f"unknown filters {sorted(unknown)}")
        if not self.filters:
            raise ValidationError("at least one filter must be configured")
        if self.graph.n_nodes != self.plant.N:
            raise ValidationError("graph size does not match the sensor count")
        if not is_strongly_connected(self.graph):
            raise ValidationError("scenario graph must be connected")
        if not self.weights.consistent_with(self.graph):
            raise ValidationError("weights are not supported by the graph")
        needs_L = {"cmdf", "cidf"} & set(self.filters)
        if needs_L and not self.L_values:
            raise ValidationError("consensus filters need at least one L value")
        if self.horizon < 2 * self.plant.period:
            raise ValidationError(
                "horizon must cover at least two periods so a steady window exists"
            )
        if self.trials < 1:
            raise ValidationError("need at least one trial")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass
class FilterRun:
    """Empirical and theoretical MSE curves for one (filter, L) combination.

    Row axis is the node (a single row for the centralized filter); the step
    axis covers k = 1..horizon.
    """

    name: str
    fusion_steps: int | None
    mse_per_step: np.ndarray
    step_se: np.ndarray
    mse_steady: np.ndarray
    steady_se: np.ndarray
    theory_per_step: np.ndarray | None
    theory_steady: np.ndarray | None = None
    diverged: tuple = ()

    @property
    def label(self) -> str:
        if self.fusion_steps is None:
            return self.name
        return f"{self.name}_L{self.fusion_steps}"


@dataclass
class TrialResults:
    """All runs of one scenario plus the network diagnostics they share.

    ``gap_report`` holds the steady theory of the scenario's sweep when it
    was solved; the steady theory of every run is read from it. ``solver``
    holds the theory's doublings and defects (``GapReport.solver``, or
    the centralized solve's alone without a sweep) and ``stages`` the wall
    and CPU seconds of each stage of the run (``timed``). ``filter_blocks``
    holds the row count of each estimate block of the filter pass
    (``_pass_layout``), ``filter_threads`` the threads that advanced them
    and ``filter_window`` its window of steps.
    """

    horizon: int
    trials: int
    period: int
    seed: int
    sigma2: float
    graph_diameter: int
    centralized_avg: float | None
    runs: list = field(default_factory=list)
    runtime_seconds: float = 0.0
    gap_report: gap_mod.GapReport | None = None
    filter_threads: int = 1
    filter_blocks: list = field(default_factory=list)
    filter_window: int = 1
    blas_pinned: bool = False
    solver: dict | None = None
    stages: dict = field(default_factory=dict)

    def run(self, name: str, L: int | None = None) -> FilterRun:
        for r in self.runs:
            if r.name == name and r.fusion_steps == L:
                return r
        raise KeyError((name, L))


def _filter_runs(scenario: Scenario) -> list[tuple]:
    """(name, L, prior_mix, fusion) of every configured run, in run order;
    the module docstring defines the two matrices."""
    N = scenario.plant.N
    powers = {L: weight_power(scenario.weights, L)[0] for L in scenario.L_values}
    runs = []
    for name in scenario.filters:
        if name == "ckf":
            runs.append(("ckf", None, np.ones((1, 1)), np.ones((1, N))))
            continue
        for L, WL in powers.items():
            if name == "cmdf":
                runs.append(("cmdf", L, np.eye(N), N * WL))
            else:
                runs.append(("cidf", L, WL, WL))
    return runs


def _measured(plant, Y):
    """The columns of the stacked measurements Y (..., m) of the sensors
    that measure in some period slot (``gap._sensor_information``): the
    only ones a filter pass reads. Y itself when every sensor measures."""
    keep = np.repeat(gap_mod._sensor_information(plant)[0], plant.sensor_dims)
    return Y if keep.all() else Y[..., keep]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can tell
        return os.cpu_count() or 1


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None when numpy bundles none; looked up by the first filter pass, so
    importing the package does not pay for it."""
    import ctypes
    import glob

    here = os.path.dirname(np.__file__)
    libs = (os.path.join(here, os.pardir, "numpy.libs"), os.path.join(here, ".dylibs"))
    for path in sorted(p for d in libs for p in glob.glob(os.path.join(d, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _filter_threads(trials: int, block_count: int) -> int:
    """Threads for a filter pass of ``block_count`` estimate blocks
    (``_pass_layout``): two from SPLIT_MIN_TRIALS trials on, when the pass
    has two blocks, two CPUs are usable and numpy's OpenBLAS can be pinned
    to one thread; else one."""
    if trials < SPLIT_MIN_TRIALS or block_count < 2 or _usable_cpus() < 2:
        return 1
    return 2 if _openblas() else 1


# The filter passes holding numpy's OpenBLAS at one thread, and the count
# the last of them restores; process-wide, as the BLAS thread count is.
_BLAS_LOCK = threading.Lock()
_pins = 0
_saved_threads = None


@contextlib.contextmanager
def _one_blas_thread():
    """Numpy's OpenBLAS, when found, at one thread while any filter pass
    runs: a two-thread pass's threads do not oversubscribe the cores, and no
    step wakes BLAS threads for a small product. The first pass in saves the
    count and the last one out restores it; the lock keeps concurrent passes
    from interleaving the two."""
    global _pins, _saved_threads
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    with _BLAS_LOCK:
        if not _pins:
            _saved_threads = get()
            put(1)
        _pins += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _pins -= 1
            if not _pins:
                put(_saved_threads)


def _flag_diverged(xhat, bad, work, sq) -> None:
    """Set ``bad`` (rows, trials) where the estimate stack ``xhat`` (rows, n,
    trials) has an entry above DIVERGENCE_NORM in magnitude or NaN; ``work``
    and ``sq`` are scratch of their shapes.

    One dot product screens the whole stack: a sum of non-negative terms
    does not decrease under rounding, so a computed sum of squares within
    DIVERGENCE_NORM**2 / 2 clears every entry. NaN and overflow fail the
    screen, and only then does the per-trial test run.
    """
    flat = xhat.reshape(-1)
    with np.errstate(over="ignore"):
        clear = np.dot(flat, flat) <= DIVERGENCE_NORM**2 / 2
    if not clear:
        bad |= ~(np.abs(xhat, out=work).max(axis=1, out=sq) <= DIVERGENCE_NORM)


def _report_overflow(sums, x) -> None:
    """einsum squares and sums without telling ``np.errstate`` of an
    overflow. Where ``sums``, its sums of the squares of ``x`` over axis 1
    or their means, hold an inf, take them again by ufuncs, which report
    it; finite sums, and NaN, which no overflow makes, cost nothing more."""
    if np.isinf(sums).any():
        np.multiply(x, x).sum(axis=1)


def _pass_layout(runs, n, trials):
    """(order, own_prior, bounds) of a pass over ``runs``: the runs in row
    order, the runs keeping their own prior (prior_mix = I) first; whether
    each run keeps it; and the row bounds of the pass's estimate blocks. A
    block is consecutive whole runs, as many as BLOCK_BYTES of (n, trials)
    estimates hold but at least one, and at least two rows when the pass
    has them: a one-row GEMM takes another OpenBLAS path and rounds
    differently, so the CKF row shares a block."""
    own_prior = [np.array_equal(pm, np.eye(len(pm))) for _, _, pm, _ in runs]
    order = sorted(range(len(runs)), key=lambda r: not own_prior[r])
    row_bytes = n * trials * 8
    bounds, prev = [0], 0
    for end in np.cumsum([len(runs[r][3]) for r in order]).tolist():
        if prev - bounds[-1] >= 2 and (end - bounds[-1]) * row_bytes > BLOCK_BYTES:
            bounds.append(prev)
        prev = end
    if prev - bounds[-1] < 2 and len(bounds) > 1:
        bounds.pop()
    return order, own_prior, bounds + [prev]


def _run_filters(plant, runs, X, Y, theory, threads=1):
    """One FilterRun per entry of ``runs`` ((name, L, prior_mix, fusion), as
    ``_filter_runs`` lists them), all advanced in one pass over the states X
    and the measurement columns Y of the sensors that measure
    (``_measured``), as many as ``gap._sensor_information`` has, else
    ValidationError.

    The rows of every run form one stack in the order of ``_pass_layout``:
    the runs keeping their own prior (prior_mix = I, skipped rather than
    multiplied) first, the mixing runs after them. The covariances are
    data-independent, so the pass advances them, for every row at once, a
    window of WINDOW_STEPS steps at a time: each step's predicted
    information P^{-1} and posterior covariance P+, whose inverse is
    sum_j prior_mix_ij P_j^{-1} + sum_j fusion_ij C_j' R_j^{-1} C_j, and
    each sensor's measurement information over the trials. Then each block
    of whole runs (``_pass_layout``) advances its slice of the one estimate
    stack, (rows, n, trials), over the window's steps while it is in cache.
    On ``threads`` threads, at most one a block, thread t advances blocks
    t, t + threads, ... in its own scratch. Thread 0 is the caller's; the
    others run in a copy of its context, so ``np.errstate`` holds there
    too, and each window waits for them. Numpy's OpenBLAS is pinned to one
    thread while the pass runs (``_one_blas_thread``). No step mixes rows
    of different runs, so a run's numbers do not depend on the block or the
    thread it is in.

    Each slot fuses only the sensors that measure there, by its columns of
    the fusion weights and its rows of the plant's
    ``gap._sensor_information`` tables; a silent slot skips the fuse. The
    squared one-step-ahead errors are reduced as they come: per step to
    their mean and standard error over the trials, per trial to their mean
    over the steady window, the last plant period; with one trial the
    standard errors are NaN. With ``theory`` the own-prior rows also iterate
    their exact predicted-error covariance, which the fused measurement
    noise grows by P+ (sum_j fusion_ij^2 C_j' R_j^{-1} C_j) P+. A trial
    whose estimate in a run has an entry above DIVERGENCE_NORM or NaN at any
    step is listed in that run's ``diverged`` and still counted in its
    statistics. An overflow of a squared error or deviation reaches
    ``np.errstate`` (``_report_overflow``).
    """
    width = gap_mod._sensor_information(plant)[2].shape[-1]
    if Y.shape[-1] != width:
        raise ValidationError(
            f"the pass takes the {width} measured columns of Y (_measured), "
            f"got {Y.shape[-1]}"
        )
    h, K, n = X.shape[0], X.shape[1] - 1, plant.n
    N, T = plant.N, plant.period
    order, own_prior, bounds = _pass_layout(runs, n, h)
    sensors, measures, to_info, own = gap_mod._sensor_information(plant)
    fusion = np.concatenate([runs[r][3] for r in order])[:, sensors]
    ends = np.cumsum([0] + [len(runs[r][3]) for r in order])
    exact = int(ends[sum(own_prior)])
    # The mixing runs are CIDF's, each mixing N nodes with its own W^L.
    mixing = [runs[r][2] for r in order if not own_prior[r]]
    mix = np.stack(mixing) if mixing else None
    # Per block: its rows, and where its mixing rows start and their W^Ls.
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        start = max(lo, exact)
        held = mix[(start - exact) // N : (hi - exact) // N] if hi > start else None
        blocks.append((lo, hi, start - lo, held))
    threads = min(threads, len(blocks))
    shares = [blocks[t::threads] for t in range(threads)]

    exact_sq = fusion[:exact] ** 2
    slots = []
    for t, on in enumerate(measures):
        # Views where every measuring sensor measures: a copy per slot raised
        # a 300-trial benchmark run's peak RSS by 1.8 MB (x86-64 Linux, glibc).
        on = slice(None) if on.all() else on
        info_t = to_info[t, on].reshape(-1, to_info.shape[-1])
        slots.append((fusion[:, on], exact_sq[:, on], own[t, on], info_t))
    rows, W = len(fusion), WINDOW_STEPS
    # Estimates start at zero; the simulator starts every trial at x0.
    x0 = X[0, 0]
    traces = np.empty((exact, K)) if theory else None
    mse, spread = np.empty((rows, K)), np.empty((rows, K))
    # One estimate stack. Every buffer is allocated here, in the calling
    # thread: glibc gives each thread its own heap, and a worker's would add
    # its peak to the process's. Each thread's blocks share two scratch
    # stacks and one sq of its widest block's size.
    xhat = np.zeros((rows, n, h))
    scratch = []
    for share in shares:
        widest = max(hi - lo for lo, hi, *_ in share)
        scratch.append((np.empty((widest, n, h)), np.empty((widest, n, h)), np.empty((widest, h))))
    steady = np.zeros((rows, h))
    bad = np.zeros((rows, h), dtype=bool)
    # A window's covariances, sensors' measurement information and states.
    Pinvs, posts = np.empty((W, rows, n, n)), np.empty((W, rows, n, n))
    measured = np.empty((W, to_info.shape[1] * n, h))
    truth = np.empty((W, n, h))

    def covariances(k, last, Pinv, post, z, E):
        """Step k's covariances from the posterior ``last`` into the
        window's tables ``Pinv`` and ``post``, and its sensors' measurement
        information into ``z``; the step's record and the next
        predicted-error covariance."""
        A, Q = plant.A.at(k - 1), plant.Q.at(k - 1)
        fuse, fuse_sq, own_k, info_t = slots[k % T]
        Pinv[...] = spd_inverse(A @ last @ A.T + Q, what="predicted covariance")
        prior = Pinv
        if mix is not None:
            prior = Pinv.copy()
            prior[exact:] = (mix @ Pinv[exact:].reshape(len(mixing), N, -1)).reshape(-1, n, n)
        info = gap_mod._fused_information(fuse, own_k)
        post[...] = spd_inverse(prior + info, what="posterior information")
        if theory:
            M = post[:exact] @ Pinv[:exact]
            Ep = sym(A @ E @ A.T + Q)
            traces[:, k - 1] = np.trace(Ep, axis1=1, axis2=2)
            noise = gap_mod._fused_information(fuse_sq, own_k)
            E = sym(M @ Ep @ M.swapaxes(1, 2) + post[:exact] @ noise @ post[:exact])
        fused = None
        if len(own_k):
            z = np.matmul(info_t, Y[:, k].T, out=z[: len(info_t)])
            fused = fuse, z.reshape(len(own_k), n * h)
        return (A, Pinv, post, fused), E

    def advance(steps, window, t):
        """Advance thread t's blocks of estimates over the window's steps."""
        for lo, hi, mixed, held in shares[t]:
            x, b = xhat[lo:hi], hi - lo
            pred, q, sq = (buffer[:b] for buffer in scratch[t])
            steady_b, bad_b = steady[lo:hi], bad[lo:hi]
            for j, (k, (A, Pinv, post, fused)) in enumerate(zip(steps, window)):
                np.matmul(A, x, out=pred)
                np.matmul(Pinv[lo:hi], pred, out=q)
                err = np.subtract(pred, truth[j], out=pred)
                np.einsum("inh,inh->ih", err, err, out=sq)
                mse[lo:hi, k - 1] = sq.mean(axis=1)
                mean = mse[lo:hi, k - 1]
                _report_overflow(mean, err)
                if k > K - T:
                    np.add(steady_b, sq, out=steady_b)
                dev = np.subtract(sq, mean[:, None], out=sq)
                spread[lo:hi, k - 1] = np.einsum("ih,ih->i", dev, dev)
                _report_overflow(spread[lo:hi, k - 1], dev)
                if held is not None:
                    shape = (len(held), N, -1)
                    np.matmul(held, q[mixed:].reshape(shape), out=pred[mixed:].reshape(shape))
                    q[mixed:] = pred[mixed:]
                if fused is not None:
                    fuse, z = fused
                    np.matmul(fuse[lo:hi], z, out=pred.reshape(b, n * h))
                    q += pred
                np.matmul(post[lo:hi], q, out=x)
                _flag_diverged(x, bad_b, pred, sq)

    post = np.broadcast_to(np.eye(n), (rows, n, n))
    E = np.broadcast_to(np.outer(x0, x0), (exact, n, n))
    with _one_blas_thread(), contextlib.ExitStack() as workers:
        if threads > 1:
            # Imported here: it would add about 10 ms to importing the package.
            from concurrent.futures import ThreadPoolExecutor

            pool = workers.enter_context(ThreadPoolExecutor(threads - 1))
        for first in range(1, K + 1, W):
            steps = range(first, min(first + W, K + 1))
            window = []
            for k, Pinv, table, z in zip(steps, Pinvs, posts, measured):
                step, E = covariances(k, post, Pinv, table, z, E)
                window.append(step)
                post = table
            np.copyto(truth[: len(steps)], X[:, steps.start : steps.stop].transpose(1, 2, 0))
            futures = [
                pool.submit(contextvars.copy_context().run, advance, steps, window, t)
                for t in range(1, threads)
            ]
            advance(steps, window, 0)
            for future in futures:
                future.result()
        per_trial = np.divide(steady, T, out=steady)
        mse_steady = per_trial.mean(axis=1)
        dev = np.subtract(per_trial, mse_steady[:, None], out=per_trial)
        # Sums of squared deviations over h trials to squared standard errors.
        se2 = 1.0 / (h * (h - 1)) if h > 1 else np.nan
        step_se = np.sqrt(np.multiply(spread, se2, out=spread), out=spread)
        # A deviation of a trial's steady mean is at most its largest step
        # deviation in the window, whose overflow the step reported.
        steady_se = np.sqrt(np.einsum("ih,ih->i", dev, dev) * se2)
    out = [None] * len(runs)
    for r, lo, hi in zip(order, ends[:-1], ends[1:]):
        name, L = runs[r][:2]
        out[r] = FilterRun(
            name=name,
            fusion_steps=L,
            mse_per_step=mse[lo:hi],
            step_se=step_se[lo:hi],
            mse_steady=mse_steady[lo:hi],
            steady_se=steady_se[lo:hi],
            theory_per_step=traces[lo:hi] if theory and hi <= exact else None,
            diverged=tuple(np.flatnonzero(bad[lo:hi].any(axis=0)).tolist()),
        )
    return out


def run_monte_carlo(
    scenario: Scenario, with_theory: bool = True, tol: float = DEFAULT_TOL
) -> TrialResults:
    """Run every configured filter over independent simulated trials.

    Trial l draws its noise from the l-th spawn of the master seed, so runs
    are reproducible and trials mutually independent. A trial whose estimate
    has an entry above 1e9 in magnitude (or NaN) at any step is recorded as
    diverged and dropped from the averages; the run aborts if more than 1% of
    trials diverge.

    With theory, the steady covariances come from one gap report over the
    scenario's sweep, solved to ``tol``; a scenario without a sweep solves
    only the centralized filter. Only the measurements of the sensors that
    measure in some period slot are kept past the simulation (``_measured``).
    """
    start = time.perf_counter()
    stages = {}
    plant = scenario.plant
    K, h = scenario.horizon, scenario.trials
    with timed(stages, "simulate"):
        children = np.random.SeedSequence(scenario.seed).spawn(h)
        X, Y = simulate_trials(plant, K, children)
        Y = _measured(plant, Y)

    with timed(stages, "filter"):
        specs = _filter_runs(scenario)
        blocks = np.diff(_pass_layout(specs, plant.n, h)[2]).tolist()
        threads = _filter_threads(h, len(blocks))
        runs = _run_filters(plant, specs, X, Y, with_theory, threads)
        reruns = {}
        for r, run in enumerate(runs):
            if len(run.diverged) > 0.01 * h:
                raise NumericalError(
                    f"{run.label}: {len(run.diverged)} of {h} trials diverged "
                    f"(ids {list(run.diverged)[:10]}...)"
                )
            if run.diverged:
                reruns.setdefault(run.diverged, []).append(r)
        # Trials are independent, so one pass of the runs that diverged on the
        # same trials over the other trials gives their statistics without them.
        for diverged, rerun in reruns.items():
            ok = np.ones(h, dtype=bool)
            ok[list(diverged)] = False
            kept = [specs[r] for r in rerun]
            again = _run_filters(plant, kept, X[ok], Y[ok], with_theory, threads)
            for r, run in zip(rerun, again):
                run.diverged = diverged
                runs[r] = run

    report = central_avg = solver = None
    if with_theory:
        with timed(stages, "theory"):
            if scenario.L_values:
                report = gap_mod.build_gap_report(
                    plant,
                    scenario.weights,
                    scenario.L_values,
                    tol=tol,
                    graph=scenario.graph,
                    seed=scenario.seed,
                )
                central_avg, solver = report.centralized_avg, report.solver
            else:
                central = gap_mod.centralized_dpre(plant, tol=tol)
                central_avg = gap_mod.average_performance(central)
                solver = gap_mod.centralized_solver(plant, central)
        for r in runs:
            if r.name == "ckf":
                r.theory_steady = np.array([central_avg])
            elif r.name == "cmdf":
                r.theory_steady = np.array(
                    [report.cell(i, r.fusion_steps).avg_perf for i in range(plant.N)]
                )
    return TrialResults(
        horizon=K,
        trials=h,
        period=plant.period,
        seed=scenario.seed,
        sigma2=second_largest_eigenvalue(scenario.weights),
        graph_diameter=diameter(scenario.graph),
        centralized_avg=central_avg,
        runs=runs,
        runtime_seconds=time.perf_counter() - start,
        gap_report=report,
        filter_threads=threads,
        filter_blocks=blocks,
        filter_window=WINDOW_STEPS,
        blas_pinned=_openblas() is not None,
        solver=solver,
        stages=stages,
    )


@dataclass
class CidfComparison:
    """Steady MSE of the consensus filter against the information baseline.

    ``crossover[i]`` is the smallest L in the sweep from which the
    consensus-on-measurement filter dominates at sensor i for every larger
    swept L (None if it never does).
    """

    rows: list
    crossover: dict

    @classmethod
    def from_results(cls, results: TrialResults) -> "CidfComparison":
        """Per (sensor, L) rows, in sweep order, from runs of both filters."""
        mse = {
            r.fusion_steps: (r.mse_steady, results.run("cidf", r.fusion_steps).mse_steady)
            for r in results.runs
            if r.name == "cmdf"
        }
        rows = [
            (i, L, float(mc[i]), float(ic[i]))
            for L, (mc, ic) in mse.items()
            for i in range(len(mc))
        ]
        Ls = sorted(mse)
        crossover = {}
        for i in sorted({row[0] for row in rows}):
            wins = [mse[L][0][i] < mse[L][1][i] for L in Ls]
            crossover[i] = next(
                (L for idx, L in enumerate(Ls) if all(wins[idx:])), None
            )
        return cls(rows=rows, crossover=crossover)

    def to_csv(self, path) -> None:
        write_csv(path, ["sensor", "L", "mse_cmdf", "mse_cidf"], [zip(*self.rows)])

    def crossover_to_json(self, path) -> None:
        write_json(path, {str(k): v for k, v in self.crossover.items()})


def compare_cidf(scenario: Scenario) -> CidfComparison:
    """Run both consensus filters over the scenario and compare their steady MSE."""
    filters = tuple(dict.fromkeys(scenario.filters + ("cmdf", "cidf")))
    scenario = dataclasses.replace(scenario, filters=filters)
    return CidfComparison.from_results(run_monte_carlo(scenario, with_theory=False))


def _per_step_blocks(results: TrialResults):
    """One block per node of each run: its K steps, straight from the curves."""
    K = results.horizon
    steps, blank = range(1, K + 1), [None] * K
    for r in results.runs:
        for i, mse in enumerate(r.mse_per_step):
            theory = blank if r.theory_per_step is None else r.theory_per_step[i]
            yield [r.label] * K, [-1 if r.name == "ckf" else i] * K, steps, mse, theory


def _steady_block(results: TrialResults):
    """The steady table as one block of columns."""
    report = results.gap_report
    rows = []
    for r in results.runs:
        for i, mse in enumerate(r.mse_steady.tolist()):
            theory = None if r.theory_steady is None else r.theory_steady[i]
            rate = None
            if r.name == "cmdf" and report is not None:
                rate = report.cell(i, r.fusion_steps).rate
            sensor = -1 if r.name == "ckf" else i
            rows.append((r.label, sensor, r.fusion_steps, mse, theory, rate, results.sigma2))
    return zip(*rows)


def export_results(results: TrialResults, out_dir) -> list[str]:
    """Write per-step and steady CSVs plus a JSON mirror; returns the paths.

    Column order is fixed and every float is written so that it reads back
    bit for bit, so identical runs produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    per_step = os.path.join(out_dir, "results_per_step.csv")
    steady = os.path.join(out_dir, "results_steady.csv")
    mirror = os.path.join(out_dir, "results.json")
    header = ["filter", "sensor", "k", "mse_empirical", "mse_theory"]
    write_csv(per_step, header, _per_step_blocks(results))
    header = ["filter", "sensor", "L", "mse_i", "theory_avg", "rate_q", "sigma2"]
    write_csv(steady, header, [_steady_block(results)])

    payload = {
        "horizon": results.horizon,
        "trials": results.trials,
        "period": results.period,
        "seed": results.seed,
        "sigma2": results.sigma2,
        "graph_diameter": results.graph_diameter,
        "centralized_avg": results.centralized_avg,
        "runs": [
            {
                "filter": r.label,
                "fusion_steps": r.fusion_steps,
                "mse_per_step": r.mse_per_step.tolist(),
                "mse_steady": r.mse_steady.tolist(),
                # NaN (one trial) is no JSON number.
                "steady_se": [se if se == se else None for se in r.steady_se.tolist()],
                "theory_per_step": (
                    r.theory_per_step.tolist() if r.theory_per_step is not None else None
                ),
                "theory_steady": (
                    r.theory_steady.tolist() if r.theory_steady is not None else None
                ),
                "diverged_trials": list(r.diverged),
            }
            for r in results.runs
        ],
    }
    write_json(mirror, payload)
    return [per_step, steady, mirror]


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "plant": scenario.plant.to_dict(),
        "graph": scenario.graph.to_dict(),
        "weights": scenario.weights.matrix.tolist(),
        "L_values": list(scenario.L_values),
        "horizon": scenario.horizon,
        "trials": scenario.trials,
        "seed": scenario.seed,
        "filters": list(scenario.filters),
    }


def network_from_dict(data: dict) -> tuple[SensorGraph, ConsensusWeights]:
    """The graph and consensus weights of a config's network section."""
    graph = SensorGraph.from_dict(data["graph"])
    weights_cfg = data.get("weights", "metropolis")
    if isinstance(weights_cfg, str):
        if weights_cfg != "metropolis":
            raise ValidationError(
                f"unknown weights rule {weights_cfg!r}; use 'metropolis' or a matrix"
            )
        return graph, metropolis_weights(graph)
    with config_section("weights"):
        return graph, ConsensusWeights(matrix=np.asarray(weights_cfg, dtype=float))


def config_ints(data: dict, key: str, default=()) -> tuple[int, ...]:
    """The list of integers under ``key``, or ``default`` when it is absent."""
    if key not in data:
        return tuple(default)
    if not isinstance(data[key], list):
        raise ValidationError(f"config {key!r} must be a list of integers")
    return tuple(config_integer(v, key) for v in data[key])


def scenario_from_dict(data: dict) -> Scenario:
    with config_section("scenario"):
        plant = PlantModel.from_dict(data["plant"])
        graph, weights = network_from_dict(data)
        return Scenario(
            plant=plant,
            graph=graph,
            weights=weights,
            L_values=config_ints(data, "L_values"),
            horizon=config_integer(data["horizon"], "horizon"),
            trials=config_integer(data["trials"], "trials"),
            seed=config_integer(data["seed"], "seed"),
            filters=tuple(data.get("filters", ("ckf", "cmdf"))),
        )


def read_config(path) -> dict:
    """The JSON object of a config file; ValidationError when it is not one
    or has a top-level key outside SCENARIO_KEYS."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    return config_object(data, SCENARIO_KEYS, str(path))


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_config(path))


def benchmark_scenario(
    trials: int = 1500,
    horizon: int = 100,
    seed: int = DEFAULT_SEED,
    graph_seed: int = DEFAULT_GRAPH_SEED,
    L_values=None,
    filters: tuple = ("ckf", "cmdf", "cidf"),
) -> Scenario:
    """The bundled 20-sensor benchmark scenario with its default sweep.

    The communication graph is a connected random geometric layout in a
    300 x 300 region with radius 130; the fusion sweep defaults to the nine
    depths starting at the graph diameter.
    """
    plant = benchmark_plant()
    graph = random_geometric_graph(plant.N, 300.0, 130.0, graph_seed)
    weights = metropolis_weights(graph)
    if L_values is None:
        d = diameter(graph)
        L_values = tuple(range(d, d + 9))
    return Scenario(
        plant=plant,
        graph=graph,
        weights=weights,
        L_values=tuple(L_values),
        horizon=horizon,
        trials=trials,
        seed=seed,
        filters=filters,
    )
