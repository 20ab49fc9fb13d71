
import numpy as np
import pytest

import filterlab._linalg as linalg
import filterlab.gap as gap
import reference_linalg
from conftest import run_python
from filterlab import NumericalError, build_gap_report, diameter
from filterlab._linalg import (
    frobenius_norm, max_sym_spectral_norm, spd_inverse, sym, sym_spectral_norm,
)


def random_spd_stack(k, n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((k, n, n))
    return B @ B.swapaxes(-1, -2) + 0.1 * np.eye(n)


def graded_spd_stack(k, n, cond, seed):
    """Well-conditioned SPD matrices scaled by diagonals whose squares span
    ``cond``: the mixed units of a covariance, condition numbers up to
    about ``cond``."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((k, n, n))
    B = B @ B.swapaxes(1, 2) / n + np.eye(n)
    order = rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
    d = np.sqrt(np.logspace(0, np.log10(cond), n))[order]
    return d[:, :, None] * B * d[:, None, :]


def spectral_spd_stack(k, n, cond, seed):
    """Random eigenvectors, eigenvalues log-spaced over ``cond``."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((k, n, n)))[0]
    M = (Q * np.logspace(0, -np.log10(cond), n)) @ Q.swapaxes(1, 2)
    return sym(M)


def exact_relative_error(X, M):
    """Frobenius norm of X - M^{-1} over that of M^{-1}, M^{-1} exact.

    M is scaled to integers by the common power-of-two denominator of its
    entries; fraction-free Gauss-Jordan (Bareiss) then leaves det * I beside
    the adjugate, and each error is one correctly rounded integer division.
    """
    n = len(M)
    ratios = [[float(x).as_integer_ratio() for x in row] for row in M]
    D = max(q for row in ratios for _, q in row)
    A = [[p * (D // q) for p, q in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(ratios)]
    prev = 1
    for k in range(n):
        for i in range(n):
            if i != k:
                A[i] = [(A[k][k] * a - A[i][k] * b) // prev for a, b in zip(A[i], A[k])]
        prev = A[k][k]
    det = A[0][0]
    err = want = 0.0
    for i in range(n):
        for j in range(n):
            adj = A[i][n + j] * D  # M^{-1} = D adj / det
            p, q = float(X[i][j]).as_integer_ratio()
            err += ((p * det - adj * q) / (q * det)) ** 2
            want += (adj / det) ** 2
    return (err / want) ** 0.5


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
            assert np.array_equal(s, spd_inverse(m))
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


class TestSpdInverse:
    """The sweep kernel against the Cholesky inverse it replaced
    (``reference_linalg``) and against exact inverses."""

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
    def test_matches_cholesky_reference(self, cond):
        # Entry (i, j) of an SPD inverse is at most sqrt(X_ii X_jj).
        M = graded_spd_stack(300, 4, cond, seed=5)
        got, want = spd_inverse(M), reference_linalg.spd_inverse(M)
        size = np.sqrt(np.einsum("kii->ki", want))
        assert np.all(np.abs(got - want) <= 1e-12 * size[:, :, None] * size[:, None, :])

    def test_a_matrix_does_not_depend_on_its_stack(self):
        stack = random_spd_stack(600, 4, seed=6)
        alone = np.stack([spd_inverse(m) for m in stack[:7]])
        assert np.array_equal(spd_inverse(stack[:7]), alone)
        assert np.array_equal(spd_inverse(stack[:361])[:7], alone)
        assert np.array_equal(spd_inverse(stack.reshape(30, 20, 4, 4))[0, :7], alone)

    @pytest.mark.parametrize("power", [900, -900])
    def test_scale_equivariant_bit_for_bit(self, power):
        M = spectral_spd_stack(50, 4, 1e6, seed=7)
        scaled = spd_inverse(np.ldexp(M, power))
        assert np.array_equal(scaled, np.ldexp(spd_inverse(M), -power))
        assert np.array_equal(scaled, scaled.swapaxes(1, 2))

    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
    def test_no_less_accurate_than_cholesky(self, cond):
        M = spectral_spd_stack(150, 4, cond, seed=8)
        sweep = [exact_relative_error(x, m) for x, m in zip(spd_inverse(M), M)]
        cholesky = [exact_relative_error(x, m) for x, m in zip(reference_linalg.spd_inverse(M), M)]
        for stat in (np.median, np.max):
            assert stat(sweep) <= stat(cholesky)

    def test_small_and_unbatched_input(self):
        assert np.array_equal(spd_inverse([[4.0]]), [[0.25]])
        assert np.array_equal(spd_inverse(np.array([[[4.0]], [[0.5]]])), [[[0.25]], [[2.0]]])
        got = spd_inverse([[2.0, 1.0], [1.0, 2.0]])
        assert got.shape == (2, 2) and got.flags.c_contiguous
        np.testing.assert_allclose(got, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, rtol=1e-15)

    @pytest.mark.parametrize(
        "bad",
        [
            np.diag([1.0, -1.0, 2.0, 1.0]),
            np.zeros((4, 4)),
            np.ones((4, 4)),  # the second pivot is exactly zero
        ],
        ids=["indefinite", "zero", "zero-pivot"],
    )
    def test_not_positive_definite_raises_with_its_label(self, bad):
        message = "^measurement noise covariance is not positive definite$"
        with pytest.raises(NumericalError, match=message):
            spd_inverse(bad, what="measurement noise covariance")
        stack = random_spd_stack(5, 4, seed=9)
        stack[3] = bad
        with pytest.raises(NumericalError, match="predicted covariance"):
            spd_inverse(stack, what="predicted covariance")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_with_its_label(self, value):
        # Not a plausible finite answer, such as [[0, 0], [0, 1]] for [[inf, 0], [0, 1]].
        with pytest.raises(NumericalError, match="posterior information"):
            spd_inverse([[value, 0.0], [0.0, 1.0]], what="posterior information")
        base = random_spd_stack(1, 4, seed=10)[0]
        for i in range(4):
            for j in range(4):
                M = base.copy()
                M[i, j] = value
                with pytest.raises(NumericalError, match="prior"):
                    spd_inverse(M, what="prior")
                stack = random_spd_stack(6, 4, seed=11)
                stack[4] = M
                with pytest.raises(NumericalError, match="prior"):
                    spd_inverse(stack, what="prior")


def mixed_scale_stack(shape, seed):
    """Symmetric matrices whose scales differ from cell to cell: at 1e-200,
    1e200 and 1, zero, wholly subnormal, and at 1 with subnormal entries.
    Only the first three kinds' norms lie in (1e-150, 1e150), so the others
    take the scaled sum."""
    rng = np.random.default_rng(seed)
    D = sym(rng.standard_normal(shape))
    kind = rng.integers(0, 6, shape[:-2])
    D[kind == 0] *= 1e-200
    D[kind == 1] *= 1e200
    D[kind == 3] = 0.0
    D[kind == 4] = np.round(D[kind == 4] * 8) * 5e-324
    some = (kind == 5)[..., None, None] & (rng.random(shape) < 0.3)
    some |= some.swapaxes(-1, -2)
    D[some] = 5e-324 * np.sign(D[some])
    return D


def reference_frobenius(M):
    """np.linalg.norm of each matrix scaled by a power of two to a largest
    entry near 1, then scaled back: exact scalings, so no square under- or
    overflows whatever the matrix's scale."""
    out = np.zeros(M.shape[:-2])
    for index in np.ndindex(out.shape):
        m = M[index]
        if m.any():
            e = np.frexp(np.abs(m).max())[1]
            out[index] = np.ldexp(np.linalg.norm(np.ldexp(m, -e)), e)
    return out


class TestUnscaledFrobenius:
    """Norms within (1e-150, 1e150) are summed unscaled; the others fall
    back to the scaled sum, cell by cell."""

    def test_mixed_scales_match_the_reference(self):
        M = mixed_scale_stack((6, 40, 4, 4), seed=15)
        unscaled = linalg._unscaled_frobenius(M)[1]
        assert 0 < np.count_nonzero(unscaled) < unscaled.size
        got = frobenius_norm(M)
        np.testing.assert_allclose(got, reference_frobenius(M), rtol=1e-14, atol=0)
        assert np.all(got[(M == 0).all(axis=(-2, -1))] == 0.0)
        assert np.all(got[~unscaled & (M != 0).any(axis=(-2, -1))] > 0.0)
        # One matrix is a stack with no leading axes.
        for m in M[0, :12]:
            np.testing.assert_allclose(frobenius_norm(m), reference_frobenius(m), rtol=1e-14)

    def test_max_sym_spectral_norm_of_mixed_scales_is_exact(self):
        for seed in (16, 17, 18):
            D = mixed_scale_stack((7, 30, 4, 4), seed)
            assert np.array_equal(max_sym_spectral_norm(D), sym_spectral_norm(D).max(axis=0))


class TestMaxSymSpectralNorm:
    """The bounded maximum equals the maximum of every slot's eigen-solve,
    bit for bit."""

    @staticmethod
    def _assert_exact(D):
        assert np.array_equal(max_sym_spectral_norm(D), sym_spectral_norm(D).max(axis=0))

    def test_random_stacks(self):
        rng = np.random.default_rng(12)
        self._assert_exact(sym(rng.standard_normal((30, 9, 4, 4))))
        self._assert_exact(sym(rng.standard_normal((7, 5, 1, 1))))

    def test_all_slots_equal(self):
        D = sym(np.random.default_rng(13).standard_normal((5, 4, 4)))
        self._assert_exact(np.broadcast_to(D, (6, 5, 4, 4)))

    def test_rank_one_changes(self):
        # F equals the spectral norm, so no slot can be ruled out by F alone.
        rng = np.random.default_rng(14)
        v = rng.standard_normal((8, 6, 4))
        a = rng.choice([-1.0, 1.0], (8, 6)) * rng.uniform(0.5, 1.0, (8, 6))
        self._assert_exact(a[..., None, None] * v[..., :, None] * v[..., None, :])

    def test_all_zero(self):
        assert np.array_equal(max_sym_spectral_norm(np.zeros((4, 3, 2, 2))), np.zeros(3))

    def test_maximum_away_from_the_largest_frobenius_slot(self):
        # Slot 0: the identity, F = 2 and norm 1. Slot 1: rank 1, F = norm = 1.5.
        D = np.stack([np.eye(4), 1.5 * np.diag([1.0, 0.0, 0.0, 0.0])])[:, None]
        assert frobenius_norm(D).argmax(axis=0)[0] == 0
        assert max_sym_spectral_norm(D)[0] == 1.5
        self._assert_exact(D)

    def test_benchmark_report_stacks(self, monkeypatch, bench_plant, bench_graph, bench_weights):
        # The gap_ric and gap_cov stacks of the benchmark's 10 depths:
        # (30 slots, 200 cells). Few of their 6000 slots need an eigen-solve.
        seen, solved = [], []

        def checked(D):
            got = max_sym_spectral_norm(D)
            assert np.array_equal(got, sym_spectral_norm(D).max(axis=0))
            seen.append(D.shape)
            return got

        def counted(M):
            solved.append(len(M))
            return sym_spectral_norm(M)

        monkeypatch.setattr(gap, "max_sym_spectral_norm", checked)
        monkeypatch.setattr(linalg, "sym_spectral_norm", counted)
        d = diameter(bench_graph)
        build_gap_report(bench_plant, bench_weights, range(d, d + 9))
        assert seen == [(30, 200, 4, 4)] * 2
        # Per stack, each cell's largest-F slot, then the few that can exceed it.
        assert len(solved) == 4 and solved[0] == solved[2] == 200
        assert solved[1] < 600 and solved[3] < 600


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    # Importing the package does not run the command either.
    code = (
        "import sys, filterlab; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'filterlab.__main__'))"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_python_m_filterlab_runs_the_command():
    out = run_python("-m", "filterlab", "--help")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: filterlab")
    # A config error keeps the command's own exit code.
    assert run_python("-m", "filterlab", "gap").returncode == 1
