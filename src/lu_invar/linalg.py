"""Dense complex linear-algebra primitives.

Everything in this module is quantum-agnostic: matrices are plain
``numpy.ndarray`` objects with ``complex128`` entries. All functions are
pure; randomness enters only through explicit seeds.

Default tolerances: 1e-10 absolute for structure checks (Hermiticity,
unitarity), 1e-9 relative for algebraic identities verified in the test
suite.

``hermitian_eig``, ``singular_values``, ``determinant`` and ``char_poly``
are the tests' references; the package does not call them, and they are
not exported from ``lu_invar``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BadShapeError,
    NoConvergenceError,
    NotHermitianError,
    NotUnitaryError,
)

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
EPS = float(np.finfo(float).eps)


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


def require_unitary(u, *, what: str = "matrix") -> np.ndarray:
    u = _require_square(as_complex_matrix(u))
    res = unitarity_residual(u)
    if res > UNITARITY_TOL:
        raise NotUnitaryError(
            f"NotUnitary: {what} has max |U^dag U - E| = {res:.3e} > tol {UNITARITY_TOL:.3e}"
        )
    return u


def hermitian_part(h) -> np.ndarray:
    """(H + H^dag) / 2, the exactly Hermitian matrix nearest a square H
    that is within ``HERMITICITY_TOL`` of Hermitian
    (``max |H - H^dag| <= HERMITICITY_TOL``, else :class:`NotHermitianError`)."""
    h = _require_square(as_complex_matrix(h))
    res = hermiticity_residual(h)
    if res > HERMITICITY_TOL:
        raise NotHermitianError(
            f"NotHermitian: max |H - H^dag| = {res:.3e} > tol {HERMITICITY_TOL:.3e}"
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


def pivoted_cholesky(h: np.ndarray, tol: float, floor: int) -> np.ndarray:
    """The rows of a diagonally pivoted Cholesky factor of an exactly
    Hermitian positive semidefinite complex matrix H, such as
    :func:`hermitian_part` returns: an (r, n) array whose transpose L
    gives H = L L^dag + E.

    Each step pivots on the largest remaining diagonal entry of the Schur
    complement. It stops once that entry is at most ``tol`` and the
    factor has ``floor`` columns, and at a nonpositive entry whatever the
    ``floor``. The residual E is then positive semidefinite with diag(E)
    <= tol, so ||E||_2 <= tr E <= n * tol, and r is at least the number
    of eigenvalues of H above n * tol. Like LAPACK ``xPSTF2``, column k is
    computed from the k columns before it and the remaining diagonal by
    one rank-1 update, O(n r) work per pivot and O(n r^2) in all.
    """
    n = h.shape[0]
    diag = h.diagonal().real.copy()  # diagonal of the Schur complement
    rows = np.zeros((n, n), dtype=complex)
    r = 0
    while r < n:
        p = diag.argmax()
        pivot = diag[p]
        if pivot <= (tol if r >= floor else 0.0):
            break
        col = h[:, p].copy()
        if r:  # the first column has no earlier ones to subtract
            col -= rows[:r, p].conj() @ rows[:r]
        col /= math.sqrt(pivot)
        diag -= (col * col.conj()).real
        diag[p] = 0.0  # eliminated; rounding can leave a residue there
        rows[r] = col
        r += 1
    return rows[:r]


def hermitian_eig(h):
    """Eigen-decomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Square matrix with ``max |H - H^dag| <= HERMITICITY_TOL``
        (1e-10 absolute).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Real eigenvalues sorted descending and the matching unitary matrix
        of column eigenvectors. For degenerate eigenvalues any orthonormal
        basis of the eigenspace may be returned.
    """
    return eigh_descending(hermitian_part(h))


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


def char_poly(m) -> np.ndarray:
    """Characteristic polynomial det(lambda*E - M): its n + 1 coefficients
    in ascending powers of lambda, the last exactly 1, as a read-only
    complex array.

    Computed with the Faddeev-LeVerrier trace recursion rather than an
    eigenvalue solve, so it works unchanged for non-Hermitian input and the
    coefficient of lambda**(I-i) is exactly (-1)**i times the i-th
    elementary symmetric polynomial of the eigenvalues. The recursion
    loses relative accuracy on coefficients much smaller than the matrix
    norm. It is the tests' reference for the closed-form lambda_N of
    ``invariants.lambda_poly``.
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
    coeffs.setflags(write=False)
    return coeffs


def haar_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """A Haar-distributed random unitary, drawn from ``seed``: an int, or
    a ``numpy.random.Generator`` whose stream it continues.

    Samples a dim x dim matrix of independent standard complex Gaussians,
    orthonormalizes by QR, and fixes the phases so the triangular factor
    has a real-positive diagonal (the standard recipe for Haar measure).
    """
    if dim < 1:
        raise BadShapeError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)  # a Generator is returned unchanged
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
