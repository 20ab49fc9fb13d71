import os
import subprocess
import sys

import numpy as np
import pytest

import filterlab
from filterlab import NumericalError
from filterlab._linalg import frobenius_norm, spd_inverse, sym


def random_spd_stack(k, n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((k, n, n))
    return B @ B.swapaxes(-1, -2) + 0.1 * np.eye(n)


class TestStackedHelpers:
    def test_sym_acts_per_slice(self):
        M = np.random.default_rng(1).standard_normal((3, 4, 4))
        stacked = sym(M)
        for s, m in zip(stacked, M):
            assert np.array_equal(s, (m + m.T) / 2.0)

    def test_spd_inverse_stack_matches_per_matrix(self):
        M = random_spd_stack(5, 4, seed=2)
        stacked = spd_inverse(M)
        assert stacked.shape == M.shape
        for s, m in zip(stacked, M):
            np.testing.assert_allclose(s, spd_inverse(m), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(s @ m, np.eye(4), atol=1e-9)
            assert np.array_equal(s, s.T)

    def test_frobenius_norm_at_any_scale(self):
        # Summed over the scaled matrix: no square underflows or overflows.
        M = np.random.default_rng(4).standard_normal((5, 3, 3))
        want = np.linalg.norm(M, "fro", axis=(1, 2))
        for scale in (1e-200, 1.0, 1e200):
            np.testing.assert_allclose(frobenius_norm(M * scale), want * scale, rtol=1e-14)
        assert np.array_equal(frobenius_norm(np.zeros((2, 3, 3))), [0.0, 0.0])

    def test_indefinite_slice_raises_with_its_label(self):
        M = random_spd_stack(4, 3, seed=3)
        M[2] = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NumericalError, match="posterior information is not positive definite"):
            spd_inverse(M, what="posterior information")


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    code = "import sys, filterlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(filterlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
