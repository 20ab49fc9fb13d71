"""Sweep-by-sweep reference for the periodic solvers.

The solvers of ``filterlab.spps`` double the period map. This module keeps
the plain iteration: the recursion is stepped one period at a time, and the
spectral norm of every slot's change is taken in every sweep after the
first, so the tests can hold the doubling to it.
"""

import math

import numpy as np

from filterlab._linalg import sym, sym_spectral_norm
from filterlab.errors import ConvergenceError, NumericalError, ValidationError

# The sweep budget: about 1e5 individual time steps whatever the period.
MAX_STEP_BUDGET = 100_000


def iterate_to_period(step, period, P0, tol, max_sweeps, label):
    """Drive P_{k+1} = step(k, P_k, cells) over a (cells, n, n) stack until
    each cell's full period changes by < tol, relative to its size.

    ``step`` advances the rows of the still-running cells, whose stack
    indices it is given, and returns symmetric iterates. A slot's change is
    the spectral norm of its (symmetric) change over its largest absolute
    entry, so the stop does not depend on the scale of the problem. Each
    cell stops, keeping its values, at the first sweep after the first in
    which its own largest slot change is below ``tol``.
    Returns (slots, sweeps, residual): slots[s, c] approximates cell c's SPPS
    solution at time slot s; sweeps and residual are per cell.
    ``max_sweeps=None`` budgets about MAX_STEP_BUDGET time steps; a budget
    below 2 sweeps raises ValidationError, since the first sweep has nothing
    to compare against.
    """
    if max_sweeps is None:
        max_sweeps = max(2, math.ceil(MAX_STEP_BUDGET / period))
    elif max_sweeps < 2:
        raise ValidationError(f"max_sweeps must be >= 2, got {max_sweeps}")
    P = sym(np.asarray(P0, dtype=float))
    slots = np.empty((period,) + P.shape)
    sweeps = np.zeros(P.shape[0], dtype=int)
    residual = np.zeros(P.shape[0])
    cells = np.arange(P.shape[0])
    for sweep in range(max_sweeps):
        change = np.zeros(cells.size)
        for k in range(period):
            P = step(k, P, cells)
            if not np.all(np.isfinite(P)):
                raise NumericalError(
                    f"{label} produced non-finite values at sweep {sweep + 1}: "
                    "the recursion is divergent"
                )
            s = (k + 1) % period
            if sweep > 0:
                scale = np.maximum(np.abs(P).max(axis=(1, 2)), np.finfo(float).tiny)
                delta = sym_spectral_norm(P - slots[s, cells])
                change = np.maximum(change, delta / scale)
            slots[s, cells] = P
        if sweep > 0:
            done = change < tol
            sweeps[cells[done]] = sweep + 1
            residual[cells[done]] = change[done]
            cells, P, change = cells[~done], P[~done], change[~done]
            if cells.size == 0:
                return slots, sweeps, residual
    worst = float(change.max())
    raise ConvergenceError(
        f"{label} did not converge within {max_sweeps} sweeps "
        f"(relative residual {worst:.3e}, tol {tol:.1e})",
        residual=worst,
    )

