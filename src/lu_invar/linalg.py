"""Dense complex linear-algebra primitives.

Everything in this module is quantum-agnostic: matrices are plain
``numpy.ndarray`` objects with ``complex128`` entries. All functions are
pure; randomness enters only through explicit seeds.

Default tolerances: 1e-10 absolute for structure checks (Hermiticity,
unitarity), 1e-9 relative for algebraic identities verified in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadShapeError,
    NoConvergenceError,
    NotHermitianError,
    NotUnitaryError,
)

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    return _finite_matrix(np.asarray(m, dtype=complex))


def _finite_matrix(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise BadShapeError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise BadShapeError("matrix contains NaN or Inf entries")
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise BadShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_residual(a: np.ndarray) -> float:
    """max |A - A^dag|, the distance from Hermitian symmetry."""
    return float(np.abs(a - a.conj().T).max())


def unitarity_residual(u: np.ndarray) -> float:
    """max |U^dag U - E|, the distance from unitarity."""
    n = u.shape[0]
    return float(np.abs(u.conj().T @ u - np.eye(n)).max())


def require_unitary(u, *, tol: float = UNITARITY_TOL, what: str = "matrix") -> np.ndarray:
    u = _require_square(as_complex_matrix(u))
    res = unitarity_residual(u)
    if res > tol:
        raise NotUnitaryError(
            f"NotUnitary: {what} has max |U^dag U - E| = {res:.3e} > tol {tol:.3e}"
        )
    return u


@dataclass(frozen=True)
class Polynomial:
    """A polynomial with complex coefficients in ascending powers.

    The coefficients are kept as given, trailing zeros included, so the
    length is fixed by whoever builds the polynomial and never by
    rounding; ``degree`` is that length minus one.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex, ndmin=1)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in self.coeffs[::-1]:
            acc = acc * x + c
        return acc

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by lambda**k (prepend k zero coefficients)."""
        return Polynomial(np.concatenate([np.zeros(k, dtype=complex), self.coeffs]))


def hermitian_part(h, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """(H + H^dag) / 2, the exactly Hermitian matrix nearest a square H
    that is within ``tol`` of Hermitian (``max |H - H^dag| <= tol``, else
    :class:`NotHermitianError`)."""
    h = _require_square(as_complex_matrix(h))
    res = hermiticity_residual(h)
    if res > tol:
        raise NotHermitianError(
            f"NotHermitian: max |H - H^dag| = {res:.3e} > tol {tol:.3e}"
        )
    return (h + h.conj().T) / 2.0


def eigh_descending(h: np.ndarray):
    """Eigenvalues, descending, and matching column eigenvectors of an
    exactly Hermitian complex matrix, such as :func:`hermitian_part`
    returns. Only its lower triangle is read."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(f"NoConvergence: eigh failed: {exc}") from exc
    # eigh returns the eigenvalues ascending; reversed views make them descending
    return w[::-1], v[:, ::-1]


def hermitian_eig(h, tol: float = HERMITICITY_TOL):
    """Eigen-decomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Square matrix with ``max |H - H^dag| <= tol``.
    tol : float
        Hermiticity tolerance (default 1e-10 absolute).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Real eigenvalues sorted descending and the matching unitary matrix
        of column eigenvectors. For degenerate eigenvalues any orthonormal
        basis of the eigenspace may be returned.
    """
    return eigh_descending(hermitian_part(h, tol))


def singular_values(m) -> np.ndarray:
    """Singular values of a rectangular matrix, descending and nonnegative.

    Real input (bool, integer or float) stays real as float64, so it takes
    the real SVD; anything else is coerced to complex128.
    """
    m = np.asarray(m)
    m = _finite_matrix(m.astype(float if m.dtype.kind in "biuf" else complex, copy=False))
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(f"NoConvergence: svd failed: {exc}") from exc


def determinant(m) -> complex:
    """Determinant via LU factorization with partial pivoting."""
    m = _require_square(as_complex_matrix(m))
    if m.shape[0] == 1:
        return complex(m[0, 0])
    return complex(np.linalg.det(m))


def char_poly(m) -> Polynomial:
    """Characteristic polynomial det(lambda*E - M), monic, ascending coeffs.

    Computed with the Faddeev-LeVerrier trace recursion rather than an
    eigenvalue solve, so it works unchanged for non-Hermitian input and the
    coefficient of lambda**(I-i) is exactly (-1)**i times the i-th
    elementary symmetric polynomial of the eigenvalues. The recursion
    loses relative accuracy on coefficients much smaller than the matrix
    norm; the package uses it only for the 4x4 N flattening of
    ``invariants.lambda_poly``, while F comes from the Gram spectrum.
    """
    m = _require_square(as_complex_matrix(m))
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    mk = m.copy()
    c = -mk.trace()
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        mk.flat[:: n + 1] += c  # mk + c E in place; mk is a copy or a product, never m
        mk = m @ mk
        c = -mk.trace() / k
        coeffs[n - k] = c
    return Polynomial(coeffs)


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """A Haar-distributed random unitary, deterministic for a fixed seed.

    Samples a dim x dim matrix of independent standard complex Gaussians,
    orthonormalizes by QR, and fixes the phases so the triangular factor
    has a real-positive diagonal (the standard recipe for Haar measure).
    """
    if dim < 1:
        raise BadShapeError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    return haar_unitary_from_rng(dim, rng)


def haar_unitary_from_rng(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one Haar unitary from an existing Generator stream."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
