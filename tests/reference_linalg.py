"""Cholesky reference for the SPD inverse.

``filterlab._linalg.spd_inverse`` inverts by a Gauss-Jordan sweep over the
whole stack. This module keeps the inverse it replaced, a batched Cholesky
factor inverted by LAPACK, so the tests can pin the sweep to it.
"""

import numpy as np

from filterlab._linalg import sym
from filterlab.errors import NumericalError


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
