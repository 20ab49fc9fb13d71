"""Small shared linear-algebra helpers."""

import numpy as np

from .errors import NumericalError


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a (..., n, n) stack."""
    return (M + M.swapaxes(-1, -2)) / 2.0


def spectral_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def sym_spectral_norm(M: np.ndarray) -> np.ndarray:
    """Spectral norm of each symmetric matrix in a stack, at half an SVD's cost."""
    return np.abs(np.linalg.eigvalsh(M)).max(axis=-1)


def frobenius_norm(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a (..., n, n) stack, summed over the
    matrix scaled to its largest absolute entry so that no square under- or
    overflows."""
    big = np.abs(M).max(axis=(-2, -1))
    unit = M / np.where(big > 0, big, 1.0)[..., None, None]
    return big * np.sqrt(np.einsum("...ij,...ij->...", unit, unit))


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def min_eig_sym(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(sym(M))[0])


def spd_inverse(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix or (..., n, n) stack.

    One batched Cholesky factors the whole stack. A slice that is not
    positive definite raises NumericalError instead of falling back to a
    pseudo-inverse: loss of positive definiteness signals a broken model
    invariant upstream.
    """
    try:
        factor = np.linalg.cholesky(sym(M))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite") from exc
    inv_factor = np.linalg.inv(factor)
    return sym(inv_factor.swapaxes(-1, -2) @ inv_factor)
