"""Small shared linear-algebra helpers."""

import numpy as np

from .errors import NumericalError


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a (..., n, n) stack."""
    return (M + M.swapaxes(-1, -2)) / 2.0


def transposed(M: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a (..., n, n) stack, C-ordered: numpy's
    stacked matmul takes a far slower path on a transposed view."""
    return np.ascontiguousarray(M.swapaxes(-1, -2))


def sym_spectral_norm(M: np.ndarray) -> np.ndarray:
    """Spectral norm of each symmetric matrix in a stack, at half an SVD's cost."""
    return np.abs(np.linalg.eigvalsh(M)).max(axis=-1)


def max_sym_spectral_norm(D: np.ndarray) -> np.ndarray:
    """``sym_spectral_norm(D).max(axis=0)`` of a (slots, cells, n, n) stack of
    symmetric matrices, bit for bit, eigen-solving only the slots that can
    hold a cell's maximum.

    A slot's Frobenius norm F bounds its spectral norm from above. Each
    cell's largest-F slot is solved first; then only the cell's other slots
    whose F exceeds that slot's spectral norm. F is summed from unscaled
    squares over the whole stack at once where every F lies in (1e-150,
    1e150); otherwise each slot takes ``frobenius_norm`` in turn.
    """
    F, unscaled = _unscaled_frobenius(D)
    if not unscaled.all():
        # Slot by slot, so no temporary of the stack's full size is held.
        F = np.stack([frobenius_norm(slot) for slot in D])
    cells = np.arange(D.shape[1])
    top = F.argmax(axis=0)
    best = sym_spectral_norm(D[top, cells])
    # The margin covers the rounding of both norms.
    can_exceed = F * (1.0 + 1e-12) > best
    can_exceed[top, cells] = False
    slot, cell = np.nonzero(can_exceed)
    np.maximum.at(best, cell, sym_spectral_norm(D[slot, cell]))
    return best


def _unscaled_frobenius(M: np.ndarray):
    """Frobenius norms of a (..., n, n) stack summed from unscaled squares,
    and where they are exact to rounding: where a norm lies in (1e-150,
    1e150), no square overflows and what underflow takes from a square lies
    far below the rounding of the sum."""
    F = np.einsum("...ij,...ij->...", M, M, out=np.empty(M.shape[:-2]))
    np.sqrt(F, out=F)
    return F, (F > 1e-150) & (F < 1e150)


def frobenius_norm(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a (..., n, n) stack.

    The unscaled squares are summed in one pass (``_unscaled_frobenius``).
    A matrix whose norm falls outside (1e-150, 1e150), zero and non-finite
    ones included, is summed again scaled to its largest absolute entry, so
    that no square under- or overflows.
    """
    F, unscaled = _unscaled_frobenius(M)
    if not unscaled.all():
        rest = M[~unscaled]
        big = np.abs(rest).max(axis=(-2, -1))
        unit = rest / np.where(big > 0, big, 1.0)[..., None, None]
        F[~unscaled] = big * np.sqrt(np.einsum("...ij,...ij->...", unit, unit))
    return F


def spd_inverse(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of the symmetric part of a positive-definite matrix or of each
    matrix in a (..., n, n) stack.

    A Gauss-Jordan sweep on the matrix axes moved first, so each of the n
    pivot steps is a few whole-stack operations and a matrix's result does
    not depend on the stack around it. Each matrix is first scaled by the
    power of two of its largest diagonal entry and its inverse scaled back,
    both exactly: the result is the same bits at any power-of-two scale of
    the input, and the sweep's products do not over- or underflow whatever
    that scale. The update of each step is formed as r_i r_j / d, so the
    result is exactly symmetric.

    A slice that is not finite or not positive definite (a pivot <= 0)
    raises NumericalError instead of falling back to a pseudo-inverse: loss
    of positive definiteness signals a broken model invariant upstream.
    """
    M = np.asarray(M, dtype=float)
    n, ndim = M.shape[-1], M.ndim
    T = M.transpose(ndim - 2, ndim - 1, *range(ndim - 2))
    # Twice the symmetric part; the halving folds into the exact scaling.
    A = np.add(T, T.swapaxes(0, 1), out=np.empty(T.shape))
    pivots = np.empty((n,) + A.shape[2:])
    with np.errstate(all="ignore"):
        exponent = np.frexp(A.diagonal(axis1=0, axis2=1).max(axis=-1))[1]
        np.ldexp(A, -exponent, out=A)
        for k in range(n):
            # Row k is column k. With it zeroed and its own entry taken as
            # -1, one update leaves it at r / d and the pivot entry at -1 / d.
            r = A[k].copy()
            pivots[k] = r[k]
            r[k] = -1.0
            A[k] = 0.0
            A[:, k] = 0.0
            A -= r[:, None] * r / pivots[k]
        # A non-finite entry leaves its own or a later pivot non-finite or
        # negative, so this also rejects input that is not finite: a NaN
        # pivot makes both ends NaN. An empty stack has no pivot to reject.
        if not (pivots.min(initial=np.inf) > 0 and pivots.max(initial=0.0) < np.inf):
            raise NumericalError(f"{what} is not positive definite")
        np.ldexp(A, 1 - exponent, out=A)
    # The sweep leaves minus the inverse.
    return np.negative(A.transpose(*range(2, ndim), 0, 1), out=np.empty(M.shape))
