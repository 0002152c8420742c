"""Invariants built from a pure-state decomposition.

The overlap (Gram) matrix Omega with entries tr(A_i A_j^dag) changes only
by unitary conjugation when the decomposition is rotated, so the
coefficients of its characteristic polynomial depend on the state alone.
The same mechanism extends to the order-4 trace hypermatrix with entries
tr(A_i A_j^dag A_k A_l^dag): for a two-member decomposition of a rank-2
state it has format 2x2x2x2, and every multilinear invariant of that
format, evaluated on it, is both decomposition-independent and
local-unitary invariant. That is the one hypermatrix format built here.

Implemented invariant polynomials, each computed in closed form:

* the elementary symmetric polynomials F_i of the Omega spectrum (any
  size), from its eigenvalues: those of the Gram matrix, or the nonzero
  spectrum of the state, which every decomposition's Omega shares,
* Cayley's 2x2x2 hyperdeterminant,
* the two degree-4 determinant invariants N and M of format 2x2x2x2,
  each the determinant of one 4x4 flattening of the hypermatrix
  (see ``N_LAYOUT`` / ``M_LAYOUT`` below for which flattenings and signs),
* coefficients of the lambda polynomials inv(Omega_s - lambda E): the
  signed F for ``det``; for N and M, sums of the minors of the same
  4x4 flattening, on Python scalars (the characteristic polynomial for N,
  a linear polynomial for M),
* the Ky Fan (trace) norm of the realignment matrix, the classical
  comparison baseline. For Hermitian rho the realigned R satisfies
  R = S_n conj(R) S_m, with S the swap (i,j) -> (j,i), so for the unitary
  Q_n = ((1 - i)/2)(I + i S_n) the matrix Q_n^dag R Q_m = Re R + S_n Im R
  is real with the same singular values; the norm comes from the real SVD
  of that matrix. Its singular values are LAPACK's ``gesdd``, read
  through the gufunc that ``np.linalg.svd(x, compute_uv=False)`` itself
  calls: the wrapper's argument checks and ``errstate`` set-up cost
  4-7 us a call, about half the time of the 9x9 SVD of a (3,3) state.
  On a numpy without that gufunc (before 2.0) ``np.linalg.svd`` is
  called instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadShapeError,
    NoConvergenceError,
    NotBipartiteError,
    UnsupportedFormatError,
)
from .states import DensityMatrix, PureStateDecomposition, gram_of


def _svdvals_fallback(x: np.ndarray) -> np.ndarray:
    """The singular values of ``x`` through the public ``np.linalg.svd``."""
    return np.linalg.svd(x, compute_uv=False)


# The singular-value gufunc that np.linalg.svd(x, compute_uv=False) calls on
# numpy >= 2.0, bound once: (m, n) -> (min(m, n),), descending, the same
# bits as the wrapper (see realignment_kyfan for its failure signals)
_svdvals = getattr(getattr(np.linalg, "_umath_linalg", None), "svd", None) or _svdvals_fallback


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """The I x I overlap matrix Omega_ij = tr(A_i A_j^dag) of a
    decomposition, read from the decomposition itself.

    ``spectrum`` is its ``gram_spectrum``, the eigenvalues of Omega in
    ascending order, set when the decomposition was built. ``omega`` is
    Omega itself, V V^dag made exactly Hermitian, row i of V the
    flattened A_i, built anew each time it is read. Hermitian and
    positive semidefinite by construction, so neither is checked; its
    trace equals the trace of the reconstructed state (1 for a density
    matrix).
    """

    decomposition: PureStateDecomposition

    @property
    def omega(self) -> np.ndarray:
        return gram_of(self.decomposition.stack)

    @property
    def spectrum(self) -> np.ndarray:
        return self.decomposition.gram_spectrum


def gram_matrix(d: PureStateDecomposition) -> GramMatrix:
    """The overlap matrix of a decomposition. Its spectrum is the one
    ``d`` was built with: for an eigen decomposition, the kept eigenvalues
    its members were read with, and for any other, the one ``eigvalsh``
    of V V^dag that :func:`states.make_decomposition` ran, so no
    eigen-solve runs here.

    Nothing is checked: Hermiticity and semidefiniteness hold for any
    decomposition up to rounding, and the trace is a property of the state
    the decomposition is read against, which
    ``equivalence.decomposition_fingerprint`` checks."""
    return GramMatrix(decomposition=d)


# Eigenvalues per block of the product recurrence in f_invariants
F_BLOCK = 16


def f_invariants(w) -> np.ndarray:
    """Elementary symmetric polynomials F_0 .. F_I of a Gram spectrum
    ``w``, as a read-only complex array of length I + 1.

    ``w`` holds the I eigenvalues of a Gram matrix Omega, such as
    ``GramMatrix.spectrum``, or the nonzero spectrum of the state itself,
    which every decomposition's Gram matrix shares. F_i := e_i(w), i.e.
    (-1)**i times the coefficient of lambda**(I-i) in det(lambda E - Omega),
    so F_1 = tr(Omega) (tr(rho) for a decomposition of rho) and
    F_I = det(Omega).

    The eigenvalues are split, in the order given, into blocks of at most
    ``F_BLOCK``. Within a block the product recurrence
    e_k <- e_k + x * e_(k-1) runs on Python floats; the block polynomials
    prod (1 + x t) are then multiplied pairwise by ``np.convolve``. Omega
    is PSD, so up to rounding every term of both steps is nonnegative and
    each F_i keeps its relative accuracy however small it is. Up to
    ``F_BLOCK`` eigenvalues there is one block, returned as it is, with no
    merge. A 1-d float array is read by ``.tolist()``, anything else
    through ``np.asarray``, and a ``w`` that is not a 1-d array of numbers
    raises :class:`BadShapeError`. F_0 is exactly 1 and every F_i is real.
    """
    if isinstance(w, np.ndarray) and w.dtype == float and w.ndim == 1:
        xs = w.tolist()
    else:
        try:
            a = np.asarray(w, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadShapeError(f"a Gram spectrum is a 1-d array of numbers: {exc}") from exc
        if a.ndim != 1:
            raise BadShapeError(f"a Gram spectrum is a 1-d array, got shape {a.shape}")
        xs = a.tolist()
    if len(xs) <= F_BLOCK:
        return _read_only(_product_recurrence(xs))
    polys = [_product_recurrence(xs[i:i + F_BLOCK]) for i in range(0, len(xs), F_BLOCK)]
    while len(polys) > 1:
        pairs = [polys[i:i + 2] for i in range(0, len(polys), 2)]
        polys = [np.convolve(*pair) if len(pair) == 2 else pair[0] for pair in pairs]
    return _read_only(polys[0])


def _product_recurrence(xs: list) -> list:
    """e_0 .. e_len(xs) of the floats ``xs``, one eigenvalue at a time."""
    e = [1.0] + [0.0] * len(xs)
    for j, x in enumerate(xs, 1):
        for k in range(j, 0, -1):
            e[k] += x * e[k - 1]
    return e


@dataclass(frozen=True, eq=False)
class Hypermatrix:
    """The 2x2x2x2 trace hypermatrix of a two-member decomposition.

    ``entries`` has shape (2, 2, 2, 2) with axes in the trace order
    (i, j, k, l) of tr(A_i A_j^dag A_k A_l^dag), so that the row-major
    flat index of entry (i, j, k, l) is exactly r = 8i + 4j + 2k + l.

    Construction checks that ``entries`` is a numeric ndarray of that shape
    and that every entry is finite, raising :class:`BadShapeError` on any
    other input (a nested list included) or on an Inf or NaN, reads the
    entries to Python complex scalars once and expands the 4x4 N and M
    layouts once: ``invariant_N`` and ``lambda_poly(h, inv="N")`` share
    one expansion, as do ``invariant_M`` and ``lambda_poly(h, inv="M")``.
    """

    entries: np.ndarray
    _n_expansion: tuple = field(init=False, repr=False)
    _m_expansion: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.entries, np.ndarray):
            raise BadShapeError(
                "a hypermatrix has shape (2, 2, 2, 2), got a "
                f"{type(self.entries).__name__}, not a numpy array"
            )
        if self.entries.shape != (2, 2, 2, 2):
            raise BadShapeError(f"a hypermatrix has shape (2, 2, 2, 2), got {self.entries.shape}")
        if self.entries.dtype.kind not in "biufc":
            raise BadShapeError(f"a hypermatrix has numeric entries, got dtype {self.entries.dtype}")
        flat = self.entries.ravel().tolist()
        if not all(map(cmath.isfinite, flat)):
            raise BadShapeError("hypermatrix has NaN or Inf entries")
        # frozen: set once here
        vars(self).update(_n_expansion=_expand(flat, N_LAYOUT), _m_expansion=_expand(flat, M_LAYOUT))


def hypermatrix(d: PureStateDecomposition) -> Hypermatrix:
    """The hypermatrix tr(A_i A_j^dag A_k A_l^dag) of a two-member
    decomposition, such as the eigen decomposition of a rank-2 state.

    A decomposition of any other length raises
    :class:`UnsupportedFormatError`, and an overflowing product raises
    :class:`BadShapeError` when the :class:`Hypermatrix` is built. Its
    conjugate and cyclic symmetries hold by construction, up to rounding,
    and are not re-checked.
    """
    if len(d) != 2:
        raise UnsupportedFormatError(
            f"the hypermatrix is built for two-member decompositions only, got {len(d)}"
        )
    stack = d.stack
    # products P[i, j] = A_i A_j^dag, shape (2, 2, n, n)
    prod = np.einsum("iab,jcb->ijac", stack, stack.conj())
    # tr(P[i, j] P[k, l]) = sum_ab P[i, j][a, b] P[k, l][b, a]
    t = np.ascontiguousarray(np.einsum("...ab,klba->...kl", prod, prod))
    t.setflags(write=False)
    return Hypermatrix(entries=t)


def cayley_det_222(tensor) -> complex:
    """Cayley's hyperdeterminant of a 2x2x2 array, the classical 12-term
    degree-4 polynomial.

    Vanishes on decomposable (product) tensors, and scales by det(B)**2
    when an invertible B acts on any one slot.
    """
    a = np.asarray(tensor, dtype=complex)
    if a.size != 8:
        raise BadShapeError(f"expected 8 entries for a 2x2x2 tensor, got {a.size}")
    a = a.reshape(2, 2, 2)
    return complex(
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
        - 2 * a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
        - 2 * a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
        - 2 * a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 1]
        - 2 * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
        - 2 * a[0, 0, 1] * a[0, 1, 1] * a[1, 1, 0] * a[1, 0, 0]
        - 2 * a[0, 1, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 0, 0]
        + 4 * a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
        + 4 * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1]
    )


# 4x4 index layouts of the two degree-4 invariants of format 2x2x2x2,
# as flat positions r = 8*i1 + 4*j1 + 2*i2 + j2 into the hypermatrix
# a[i1, j1, i2, j2]. A 2x2x2x2 array has three 4x4 flattenings, one per
# way of pairing axis i1 with another axis for the rows. With D_x the
# determinant of the row-major flattening whose rows are (i1, x) and whose
# columns are the other two axes in order, Luque and Thibon's identity
# L + M + N = 0 (Phys. Rev. A 67, 042303, 2003) reads here
# D_j1 - D_i2 + D_j2 = 0 identically.
#
# * N is D_j2: rows (j1, i2), columns (i1, j2), the transpose of the
#   (i1, j2) x (j1, i2) flattening. The identity hypermatrix (1 at flat
#   positions 0, 3, 12 and 15) is the 4x4 identity in this layout.
# * M is -D_j1: rows (i2, j2), columns (i1, j1) taken in the order
#   (0,0), (1,0), (0,1), (1,1). The sign is fixed so that the paper's
#   Example 2 gives M(sigma1) = +1/6561. The identity hypermatrix is
#   u u^T with u = (1, 0, 0, 1) in this layout, so lambda_poly(h, inv="M")
#   has degree <= 1.
#
# By the identity, M = N + D where D = -D_i2 is the determinant of the
# layout ((0, 8, 2, 10), (1, 9, 3, 11), (4, 12, 6, 14), (5, 13, 7, 15)),
# so the pair {N, M} separates exactly the states that {N, D} does.
#
# The paper prints M as (a0 a8 a2 a10 / a1 a9 a3 a11 / a4 a12 a6 a14 /
# a5 a13 a7 a15). Read with this package's r, that is D, which vanishes on
# both Example 2 states. Read with r = 8*i1 + 4*i2 + 2*j1 + j2 it is the M
# below, and the printed N layout is then -N. No single reading gives the
# stated values of both examples, and PAPER.md states neither layout, so
# which reading the paper uses is not settled here; M follows the Example 2
# values and N the Example 1 values.
N_LAYOUT = ((0, 1, 8, 9), (2, 3, 10, 11), (4, 5, 12, 13), (6, 7, 14, 15))
M_LAYOUT = ((0, 8, 4, 12), (1, 9, 5, 13), (2, 10, 6, 14), (3, 11, 7, 15))


def _expand(flat: list, layout) -> tuple[list, complex, list, list]:
    """The 4x4 ``layout`` x of the 16 scalars ``flat``, row-major, its det,
    and the 2x2 minors ``s`` of rows (0, 1) and ``c`` of rows (2, 3), each
    over the column pairs (j, k), j < k, in the order (0, 1), (0, 2),
    (0, 3), (1, 2), (1, 3), (2, 3), written out term by term. By Laplace
    expansion along rows (0, 1), det = sum (-1)**(1 + j + k) s_jk c_lm over
    the column pairs, (l, m) the complement of (j, k)."""
    x = [flat[r] for row in layout for r in row]
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = x
    s = [x0 * x5 - x1 * x4, x0 * x6 - x2 * x4, x0 * x7 - x3 * x4,
         x1 * x6 - x2 * x5, x1 * x7 - x3 * x5, x2 * x7 - x3 * x6]
    c = [x8 * x13 - x9 * x12, x8 * x14 - x10 * x12, x8 * x15 - x11 * x12,
         x9 * x14 - x10 * x13, x9 * x15 - x11 * x13, x10 * x15 - x11 * x14]
    det = s[0] * c[5] - s[1] * c[4] + s[2] * c[3] + s[3] * c[2] - s[4] * c[1] + s[5] * c[0]
    return x, det, s, c


def invariant_N(h: Hypermatrix) -> complex:
    """Degree-4 invariant N: det of the (a0 a1 a8 a9 / a2 a3 a10 a11 /
    a4 a5 a12 a13 / a6 a7 a14 a15) layout, expanded over 2x2 minors."""
    return complex(h._n_expansion[1])


def invariant_M(h: Hypermatrix) -> complex:
    """Degree-4 invariant M: det of the (a0 a8 a4 a12 / a1 a9 a5 a13 /
    a2 a10 a6 a14 / a3 a11 a7 a15) layout, expanded over 2x2 minors.

    This is minus the determinant of the flattening with rows (i1, j1)
    and columns (i2, j2), signed so that M(sigma1) = +1/6561 as in the
    paper's Example 2. It equals N plus the determinant of the
    (a0 a8 a2 a10 / a1 a9 a3 a11 / a4 a12 a6 a14 / a5 a13 a7 a15) layout,
    by Luque and Thibon's identity L + M + N = 0 (see ``M_LAYOUT``).
    """
    return complex(h._m_expansion[1])


def lambda_poly(x: np.ndarray | Hypermatrix, *, inv: str) -> np.ndarray:
    """Coefficients of inv(Omega_s - lambda E) as a polynomial in lambda,
    in ascending powers, as a read-only complex array.

    ``inv`` selects the invariant polynomial applied to the shifted
    hypermatrix, and with it the order s and what ``x`` must be:

    * ``"det"`` (s = 1): the 1-d F array of a Gram spectrum, from
      :func:`f_invariants`. The polynomial is returned in the monic
      normalization (-1)**I det(Omega - lambda E) = det(lambda E - Omega),
      under which zero-padding the decomposition multiplies it by exactly
      lambda**(J-r);
    * ``"N"`` / ``"M"`` (s = 2): the 2x2x2x2 :class:`Hypermatrix`, from
      :func:`hypermatrix` of a two-member decomposition.

    Nothing is built here: any other ``x`` (an array of another
    dimension, a :class:`GramMatrix` or a decomposition included) raises
    :class:`UnsupportedFormatError`.

    Each polynomial has a closed form. ``"det"`` gives
    sum_i (-1)**i F_i lambda**(I-i), the signed F of :func:`f_invariants`
    in reverse order. ``"N"`` and ``"M"`` are sums of minors of their 4x4
    flattening X on Python scalars, det X being that of :func:`invariant_N`
    / :func:`invariant_M` bit for bit. In the N layout the identity
    hypermatrix E is the 4x4 identity, so ``"N"`` is det(lambda E - X):
    [det X, -sum of the principal 3x3 minors, sum of the principal 2x2
    minors, -tr X, 1]. In the M layout E = u u^T with u = (1, 0, 0, 1), so
    ``"M"`` is linear: det X - lambda u^T adj(X) u, with u^T adj(X) u =
    C_00 + C_03 + C_30 + C_33 from the 3x3 cofactors C_ij (Horn and
    Johnson, *Matrix Analysis*: principal-minor sums, Cauchy expansion).

    The coefficient array has the fixed length of its format, zeros
    included: I + 1 for ``"det"``, 5 for ``"N"`` and 2 for ``"M"``.
    """
    if inv not in ("det", "N", "M"):
        raise UnsupportedFormatError(f"unknown invariant {inv!r}; use 'det', 'N' or 'M'")
    fits = (isinstance(x, np.ndarray) and x.ndim == 1) if inv == "det" else isinstance(x, Hypermatrix)
    if not fits:
        kind = f"{x.ndim}-d array" if isinstance(x, np.ndarray) else type(x).__name__
        raise UnsupportedFormatError(f"inv={inv!r} cannot be read from a {kind}")
    if inv == "det":
        signed = x.astype(complex)
        # (-1)**i F_i: a sign flip is exact, and a zero it turns into -0.0
        # is written as 0
        signed[1::2] *= -1.0
        signed = signed[::-1]
        signed.setflags(write=False)
        return signed
    a, det, s, c = x._n_expansion if inv == "N" else x._m_expansion
    # the 3x3 minors m_ij of X without row i and column j, each expanded
    # along the remaining row of one row pair over the other pair's minors
    m00 = a[5] * c[5] - a[6] * c[4] + a[7] * c[3]
    m33 = a[8] * s[3] - a[9] * s[1] + a[10] * s[0]
    if inv == "M":
        # C_ij = (-1)**(i + j) m_ij
        m03 = a[4] * c[3] - a[5] * c[1] + a[6] * c[0]
        m30 = a[9] * s[5] - a[10] * s[4] + a[11] * s[3]
        return _read_only([det, m03 + m30 - m00 - m33])
    m11 = a[0] * c[5] - a[2] * c[2] + a[3] * c[1]
    m22 = a[12] * s[4] - a[13] * s[2] + a[15] * s[0]
    e2 = (s[0] + c[5] + a[0] * a[10] - a[2] * a[8] + a[0] * a[15] - a[3] * a[12]
          + a[5] * a[10] - a[6] * a[9] + a[5] * a[15] - a[7] * a[13])
    return _read_only([det, -(m00 + m11 + m22 + m33), e2, -(a[0] + a[5] + a[10] + a[15]), 1.0])


def _read_only(coeffs) -> np.ndarray:
    c = np.array(coeffs, dtype=complex)
    c.setflags(write=False)
    return c


def _real_realignment(rho: DensityMatrix) -> np.ndarray:
    """The real matrix Re R + S_n Im R, equal to Q_n^dag R Q_m for the
    unitary Q_n = ((1 - i)/2)(I + i S_n), read from rho's entries.

    R[(i,j),(k,l)] = rho[i*m + k, j*m + l], and (S_n Im R)[(i,j),(k,l)] =
    Im R[(j,i),(k,l)]. Both are transposed views of rho's entries, added
    by one ``np.add`` into a fresh C-ordered array indexed (i, j, k, l),
    so the reshape to R's shape copies nothing.
    """
    if len(rho.dims) != 2:
        raise NotBipartiteError(
            f"realignment needs a bipartite state, got {len(rho.dims)} subsystems"
        )
    n, m = rho.dims
    x = rho.mat.reshape(n, m, n, m)
    re_r, s_im_r = x.real.transpose(0, 2, 1, 3), x.imag.transpose(2, 0, 1, 3)
    return np.add(re_r, s_im_r, order="C").reshape(n * n, m * m)


def realignment_kyfan(rho: DensityMatrix) -> float:
    """Ky Fan norm (sum of all singular values) of the realigned matrix R.

    For Hermitian rho, R = S_n conj(R) S_m with S the swap (i,j) -> (j,i).
    The unitary Q_n = ((1 - i)/2)(I + i S_n) has S_n conj(Q_n) = Q_n, so
    Q_n^dag R Q_m = Re R + S_n Im R is real and has the singular values of
    R: the norm is the sum from a real SVD of the same size.

    The singular values are LAPACK's ``gesdd``, from numpy's
    singular-value gufunc ``_svdvals``: bitwise those of
    ``np.linalg.svd(x, compute_uv=False)``, without its 4-7 us of Python
    wrapper, or from ``np.linalg.svd`` on a numpy without the gufunc.
    Every signal of a LAPACK failure raises :class:`NoConvergenceError`:
    from the gufunc NaN singular values, or its "invalid" flag turned
    into an error (a RuntimeWarning under a warnings filter of "error", a
    FloatingPointError under ``errstate(invalid="raise")``); from
    ``np.linalg.svd`` a ``LinAlgError``.
    """
    x = _real_realignment(rho)
    try:
        sv = _svdvals(x)
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeWarning) as exc:
        raise NoConvergenceError(f"NoConvergence: svd failed: {exc}") from exc
    kyfan = float(sv.sum())
    if math.isnan(kyfan):
        raise NoConvergenceError("NoConvergence: svd failed: SVD did not converge")
    return kyfan
