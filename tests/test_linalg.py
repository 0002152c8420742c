import numpy as np
import pytest

from lu_invar.errors import BadShapeError, NotHermitianError
from lu_invar.invariants import hypermatrix, lambda_poly
from lu_invar.linalg import (
    char_poly,
    determinant,
    haar_unitary,
    hermitian_eig,
    hermitian_part,
    pivoted_cholesky,
    singular_values,
)
from oracles import elementary_symmetric, leibniz_det


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


class TestHermitianEig:
    def test_diagonal_input(self):
        w, v = hermitian_eig(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert np.allclose(w, [0.5, 0.5, 0.0, 0.0])
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-10

    def test_sigma1_spectrum(self, sigma1):
        # 2x2 central block {{1/3,1/3},{1/3,1/3}} contributes 2/3 and 0
        w, _ = hermitian_eig(sigma1.mat)
        assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0], atol=1e-12)

    def test_identity(self):
        w, _ = hermitian_eig(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_descending_order_and_eigen_equation(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            h = random_hermitian(n, rng)
            w, v = hermitian_eig(h)
            assert np.all(np.diff(w) <= 1e-12)
            norm = np.abs(h).max()
            for k in range(n):
                assert np.abs(h @ v[:, k] - w[k] * v[:, k]).max() < 1e-10 * max(norm, 1.0)

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 6):
            h = random_hermitian(n, rng)
            w, v = hermitian_eig(h)
            back = (v * w) @ v.conj().T
            norm = np.abs(h).max()
            assert np.abs(back - h).max() < 1e-9 * (1.0 + norm)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(BadShapeError):
            hermitian_eig(np.zeros((2, 3)))


class TestPivotedCholesky:
    def test_reads_the_hermitian_part_column_by_column(self):
        # a rank-3 PSD matrix off Hermitian by rounding-sized noise: the
        # factor of M is bitwise the factor of (M + M^dag) / 2
        rng = np.random.default_rng(13)
        g = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        h = g @ g.conj().T
        m = h + 1e-13 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        rows = pivoted_cholesky(m, 1e-10)
        assert np.array_equal(rows, pivoted_cholesky(hermitian_part(m), 1e-10))
        assert rows.shape == (3, 8)
        assert np.abs(rows.T @ rows.conj() - hermitian_part(m)).max() < 1e-10


class TestSingularValues:
    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])

    def test_row_vector(self):
        sv = singular_values(np.array([[0.5, 0.0, 0.0, 0.5]]))
        assert sv.shape == (1,)
        assert abs(sv[0] - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_zero_matrix(self):
        assert np.allclose(singular_values(np.zeros((2, 3))), [0.0, 0.0])

    def test_real_input_stays_real(self, monkeypatch):
        seen = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            seen.append(a.dtype)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.allclose(singular_values(m), singular_values(m.astype(complex)))
        assert np.allclose(singular_values(m.astype(int)), singular_values(m))
        assert seen == [np.float64, np.complex128, np.float64, np.float64]

    def test_square_sum_is_frobenius(self):
        rng = np.random.default_rng(13)
        for shape in ((3, 3), (2, 5), (6, 4)):
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            sv = singular_values(m)
            frob = np.trace(m.conj().T @ m).real
            assert abs(np.sum(sv**2) - frob) <= 1e-10 * frob


class TestNonContiguousInput:
    # a transposed matrix has no contiguous last axis; each function takes
    # it as the matrix it is, equal to its contiguous copy
    def test_transposed_matrix(self):
        m = random_hermitian(4, np.random.default_rng(17))
        t, c = m.T, np.ascontiguousarray(m.T)
        for got, want in zip(hermitian_eig(t), hermitian_eig(c)):
            assert np.array_equal(got, want)
        assert np.array_equal(singular_values(t), singular_values(c))
        assert determinant(t) == determinant(c)

    def test_transposed_nan_rejected(self):
        m = np.eye(3, dtype=complex)
        m[2, 0] = np.nan
        with pytest.raises(BadShapeError):
            singular_values(m.T)


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert determinant(np.diag([0.5, 0.5])) == pytest.approx(0.25)

    def test_permutation(self):
        assert determinant(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)

    def test_multiplicative(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            lhs = determinant(a @ b)
            rhs = determinant(a) * determinant(b)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    def test_against_permutation_sum(self):
        rng = np.random.default_rng(15)
        for n in (2, 3, 4):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert determinant(m) == pytest.approx(leibniz_det(m), rel=1e-10, abs=1e-12)


class TestCharPoly:
    def test_half_half(self):
        p = char_poly(np.diag([0.5, 0.5]))
        assert np.allclose(p, [0.25, -1.0, 1.0])

    def test_identity3(self):
        p = char_poly(np.eye(3))
        assert np.allclose(p, [-1.0, 3.0, -3.0, 1.0])

    def test_two_thirds_third(self):
        # (lambda - 2/3)(lambda - 1/3) = lambda^2 - lambda + 2/9
        p = char_poly(np.diag([2.0 / 3.0, 1.0 / 3.0]))
        assert np.allclose(p, [2.0 / 9.0, -1.0, 1.0], atol=1e-14)

    def test_matches_symmetric_polynomials(self):
        rng = np.random.default_rng(16)
        for n in range(2, 9):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (h + h.conj().T) / 2.0
            w, _ = hermitian_eig(h)
            p = char_poly(h)
            for i in range(n + 1):
                expected = (-1) ** i * elementary_symmetric(list(w), i)
                assert abs(p[n - i] - expected) < 1e-9 * max(1.0, abs(expected))

    def test_non_hermitian_input_allowed(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(char_poly(m), [0.0, 0.0, 1.0])


class TestHaarUnitary:
    def test_dim_one_modulus(self):
        u = haar_unitary(1, seed=3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        u = haar_unitary(4, seed=7)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_deterministic(self):
        a = haar_unitary(5, seed=21)
        b = haar_unitary(5, seed=21)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_sample(self):
        assert np.abs(haar_unitary(3, 0) - haar_unitary(3, 1)).max() > 1e-3

    def test_rejects_dim_zero(self):
        with pytest.raises(BadShapeError):
            haar_unitary(0, seed=0)

    def test_generator_continues_its_stream(self):
        # a Generator is read on from where it stands: the first draw is the
        # one its seed gives, the second a new one
        rng = np.random.default_rng(21)
        first, second = haar_unitary(3, rng), haar_unitary(3, rng)
        assert first.tobytes() == haar_unitary(3, seed=21).tobytes()
        assert np.abs(first - second).max() > 1e-3


class TestPolynomial:
    def test_coefficients_kept_at_given_length(self):
        # zero coefficients are kept, so the length never depends on rounding
        p = char_poly(np.zeros((3, 3)))
        assert p.dtype == complex and not p.flags.writeable
        assert np.array_equal(p, [0.0, 0.0, 0.0, 1.0])

    def test_zero_polynomial(self, rho1_decomp):
        # the zero polynomial keeps its length too; there is no [0] special case
        p = lambda_poly(hypermatrix(rho1_decomp, 2), 2, "M")
        assert p.dtype == complex and not p.flags.writeable
        assert np.array_equal(p, [0.0, 0.0])
