"""Invariants built from a pure-state decomposition.

The overlap (Gram) matrix Omega with entries tr(A_i A_j^dag) changes only
by unitary conjugation when the decomposition is rotated, so the
coefficients of its characteristic polynomial depend on the state alone.
The same mechanism extends to the order-2s trace hypermatrix with entries
tr(A_{i1} A_{j1}^dag ... A_{is} A_{js}^dag): every multilinear invariant
of the matching format, evaluated on it, is both decomposition-independent
and local-unitary invariant.

Implemented invariant polynomials, each computed in closed form:

* the elementary symmetric polynomials F_i of the Omega spectrum (any
  size), from its eigenvalues: those of the Gram matrix, or the nonzero
  spectrum of the state, which every decomposition's Omega shares,
* Cayley's 2x2x2 hyperdeterminant,
* the two degree-4 determinant invariants N and M of format 2x2x2x2,
  each the determinant of one 4x4 flattening of the s=2 hypermatrix
  (see ``N_LAYOUT`` / ``M_LAYOUT`` below for which flattenings and signs),
* coefficients of the lambda polynomials inv(Omega_s - lambda E): the
  signed F for ``det``, a characteristic polynomial for N and a linear
  polynomial for M,
* the Ky Fan (trace) norm of the realignment matrix, the classical
  comparison baseline. For Hermitian rho the realigned R satisfies
  R = S_n conj(R) S_m, with S the swap (i,j) -> (j,i), so in the
  orthonormal basis {e_ii, (e_ij + e_ji)/sqrt(2), i(e_ij - e_ji)/sqrt(2)}
  the matrix Q_n^dag R Q_m is real with the same singular values; the
  norm comes from the real SVD of that matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadShapeError,
    NotBipartiteError,
    NotUnitTraceError,
    TooLargeError,
    UnsupportedFormatError,
)
from .linalg import as_complex_matrix, char_poly, determinant, singular_values
from .states import DensityMatrix, PureStateDecomposition

GRAM_TOL = 1e-10
HYPERMATRIX_MAX_ENTRIES = 2**20


@dataclass(frozen=True)
class GramMatrix:
    """The I x I overlap matrix Omega_ij = tr(A_i A_j^dag).

    Hermitian and positive semidefinite by construction, so neither is
    checked; its trace equals the trace of the reconstructed state (1 for
    a density matrix). ``spectrum`` holds its eigenvalues in ascending
    order.
    """

    omega: np.ndarray
    spectrum: np.ndarray


def gram_matrix(d: PureStateDecomposition) -> GramMatrix:
    """Overlap matrix of a decomposition: Omega = V V^dag, one matrix
    product, with row i of V the flattened A_i, then (Omega + Omega^dag)/2.

    Only the trace is checked, before the eigen-solve
    (:func:`require_unit_gram_trace`): it is a property of the input
    decomposition, while Hermiticity and semidefiniteness hold for any
    decomposition up to rounding."""
    vecs = d.stack.reshape(len(d), d.n * d.m)
    omega = vecs @ vecs.conj().T
    omega = (omega + omega.conj().T) / 2.0
    require_unit_gram_trace(float(omega.trace().real))
    w = np.linalg.eigvalsh(omega)
    omega.setflags(write=False)
    w.setflags(write=False)
    return GramMatrix(omega=omega, spectrum=w)


def require_unit_gram_trace(trace: float) -> None:
    """The Gram trace check: the Gram matrix of a decomposition of a
    unit-trace state has trace 1 within ``GRAM_TOL``
    (:class:`NotUnitTraceError` otherwise)."""
    if abs(trace - 1.0) > GRAM_TOL:
        raise NotUnitTraceError(
            f"NotUnitTrace: Gram trace {trace!r} differs from 1 by {abs(trace - 1.0):.3e}"
        )


@dataclass(frozen=True)
class InvariantVector:
    """F_0 .. F_I with F_i the i-th elementary symmetric polynomial of
    the Gram spectrum. F_0 is exactly 1; F_1 equals tr(rho)."""

    F: np.ndarray

    def __len__(self) -> int:
        return len(self.F)


# Eigenvalues per block of the product recurrence in f_invariants
F_BLOCK = 16


def f_invariants(w) -> InvariantVector:
    """Elementary symmetric polynomials of a Gram spectrum ``w``.

    ``w`` holds the I eigenvalues of a Gram matrix Omega, such as
    ``GramMatrix.spectrum``, or the nonzero spectrum of the state itself,
    which every decomposition's Gram matrix shares. F_i := e_i(w), i.e.
    (-1)**i times the coefficient of lambda**(I-i) in det(lambda E - Omega),
    so F_1 = tr(Omega) and F_I = det(Omega).

    The eigenvalues are split, in the order given, into blocks of at most
    ``F_BLOCK``. Within a block the product recurrence
    e_k <- e_k + x * e_(k-1) runs on Python floats; the block polynomials
    prod (1 + x t) are then multiplied pairwise by ``np.convolve``. Omega
    is PSD, so up to rounding every term of both steps is nonnegative and
    each F_i keeps its relative accuracy however small it is. Up to
    ``F_BLOCK`` eigenvalues there is one block and no merge. F_0 is
    exactly 1 and every F_i is real.
    """
    xs = np.asarray(w, dtype=float).tolist()
    polys = [_product_recurrence(xs[i:i + F_BLOCK]) for i in range(0, len(xs), F_BLOCK)]
    while len(polys) > 1:
        pairs = [polys[i:i + 2] for i in range(0, len(polys), 2)]
        polys = [np.convolve(*pair) if len(pair) == 2 else pair[0] for pair in pairs]
    f = np.array(polys[0] if polys else [1.0], dtype=complex)
    f.setflags(write=False)
    return InvariantVector(F=f)


def _product_recurrence(xs: list) -> list:
    """e_0 .. e_len(xs) of the floats ``xs``, one eigenvalue at a time."""
    e = [1.0] + [0.0] * len(xs)
    for j, x in enumerate(xs, 1):
        for k in range(j, 0, -1):
            e[k] += x * e[k - 1]
    return e


@dataclass(frozen=True)
class Hypermatrix:
    """Order-2s trace hypermatrix of a decomposition.

    ``entries`` has shape (I,) * (2s) with axes in the trace order
    (i_1, j_1, i_2, j_2, ...), so that for s = 2 and I = 2 the row-major
    flat index of entry (i, j, k, l) is exactly r = 8i + 4j + 2k + l.
    """

    s: int
    side: int
    entries: np.ndarray

    def flat(self) -> np.ndarray:
        """Row-major flattening; matches the r = 8i+4j+2k+l convention."""
        return self.entries.reshape(-1)


def hypermatrix(d: PureStateDecomposition, s: int) -> Hypermatrix:
    """The order-2s hypermatrix tr(A_{i1} A_{j1}^dag ... A_{is} A_{js}^dag).

    For s = 1 this flattens to the Gram matrix. Two things are checked:
    the size, refusing formats larger than 2**20 entries
    (:class:`TooLargeError`), and overflow, raising ``BadShapeError`` when
    an entry is Inf or NaN. Its conjugate and cyclic symmetries hold by
    construction, up to rounding, and are not re-checked.
    """
    if s < 1:
        raise BadShapeError(f"order parameter s must be >= 1, got {s}")
    i_count = len(d)
    if i_count ** (2 * s) > HYPERMATRIX_MAX_ENTRIES:
        raise TooLargeError(
            f"hypermatrix would have {i_count ** (2 * s)} entries "
            f"(limit {HYPERMATRIX_MAX_ENTRIES})"
        )
    stack = d.stack
    # products P[i, j] = A_i A_j^dag, shape (I, I, n, n)
    prod = np.einsum("iab,jcb->ijac", stack, stack.conj())
    if s == 1:
        t = np.einsum("ijaa->ij", prod)
    else:
        cur = prod
        for _ in range(s - 2):
            cur = np.einsum("...ab,klbc->...klac", cur, prod)
        # the last factor and the trace in one contraction:
        # tr(C P[k, l]) = sum_ab C[a, b] P[k, l][b, a]
        t = np.einsum("...ab,klba->...kl", cur, prod)
    if not math.isfinite(float(np.abs(t).max())):  # NaN or Inf when any entry is
        raise BadShapeError("hypermatrix has NaN or Inf entries: its products overflow")
    t = np.ascontiguousarray(t)
    t.setflags(write=False)
    return Hypermatrix(s=s, side=i_count, entries=t)


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
# as flat positions r = 8*i1 + 4*j1 + 2*i2 + j2 into the s=2 hypermatrix
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
#   u u^T with u = (1, 0, 0, 1) in this layout, so lambda_poly(..., "M")
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
# the identity hypermatrix in the M layout: u u^T with u = (1, 0, 0, 1)
_M_IDENTITY = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0])


@functools.lru_cache(maxsize=4)
def _layout_index(layout) -> np.ndarray:
    """The index array of a layout, built once per layout. Keyed by the
    layout itself, so the module constants are read at every call."""
    index = np.array(layout)
    index.setflags(write=False)
    return index


def _layout_matrix(flat: np.ndarray, layout) -> np.ndarray:
    return flat[_layout_index(layout)]


def _require_2222(h: Hypermatrix, name: str) -> None:
    if h.s != 2 or h.side != 2:
        raise UnsupportedFormatError(
            f"{name} is defined for format 2x2x2x2 only (s=2, I=2); "
            f"got s={h.s}, I={h.side}"
        )


def invariant_N(h: Hypermatrix) -> complex:
    """Degree-4 invariant N: det of the (a0 a1 a8 a9 / a2 a3 a10 a11 /
    a4 a5 a12 a13 / a6 a7 a14 a15) layout of the s=2 hypermatrix."""
    _require_2222(h, "invariant_N")
    return determinant(_layout_matrix(h.flat(), N_LAYOUT))


def invariant_M(h: Hypermatrix) -> complex:
    """Degree-4 invariant M: det of the (a0 a8 a4 a12 / a1 a9 a5 a13 /
    a2 a10 a6 a14 / a3 a11 a7 a15) layout of the s=2 hypermatrix.

    This is minus the determinant of the flattening with rows (i1, j1)
    and columns (i2, j2), signed so that M(sigma1) = +1/6561 as in the
    paper's Example 2. It equals N plus the determinant of the
    (a0 a8 a2 a10 / a1 a9 a3 a11 / a4 a12 a6 a14 / a5 a13 a7 a15) layout,
    by Luque and Thibon's identity L + M + N = 0 (see ``M_LAYOUT``).
    """
    _require_2222(h, "invariant_M")
    return determinant(_layout_matrix(h.flat(), M_LAYOUT))


def lambda_poly(x: InvariantVector | Hypermatrix, s: int, inv: str) -> np.ndarray:
    """Coefficients of inv(Omega_s - lambda E) as a polynomial in lambda,
    in ascending powers, as a read-only complex array.

    ``inv`` selects the invariant polynomial applied to the shifted
    hypermatrix, and with it what ``x`` must be:

    * ``"det"`` (s = 1): the :class:`InvariantVector` of a Gram spectrum,
      from :func:`f_invariants`. The polynomial is returned in the monic
      normalization (-1)**I det(Omega - lambda E) = det(lambda E - Omega),
      under which zero-padding the decomposition multiplies it by exactly
      lambda**(J-r);
    * ``"N"`` / ``"M"`` (s = 2): the s=2 :class:`Hypermatrix` of format
      2x2x2x2, from :func:`hypermatrix` of a two-member decomposition.

    Nothing is built here: any other ``x``, a decomposition included, or
    another format raises :class:`UnsupportedFormatError`.

    Each polynomial has a closed form. ``"det"`` gives
    sum_i (-1)**i F_i lambda**(I-i), the signed F of :func:`f_invariants`
    in reverse order. In the N layout the identity hypermatrix E is the
    4x4 identity, so ``"N"`` is the characteristic polynomial of that
    flattening X. In the M layout E = u u^T with u = (1, 0, 0, 1), so
    ``"M"`` is linear: det X - lambda u^T adj(X) u, whose slope is
    det(X - u u^T) - det X.

    The coefficient array has the fixed length of its format, zeros
    included: I + 1 for ``"det"``, 5 for ``"N"`` and 2 for ``"M"``.
    """
    if inv not in ("det", "N", "M"):
        raise UnsupportedFormatError(f"unknown invariant {inv!r}; use 'det', 'N' or 'M'")
    want_s, want_type = (1, InvariantVector) if inv == "det" else (2, Hypermatrix)
    if s != want_s:
        raise UnsupportedFormatError(f"inv={inv!r} requires s={want_s}, got s={s}")
    if not isinstance(x, want_type):
        raise UnsupportedFormatError(f"inv={inv!r} cannot be read from a {type(x).__name__}")
    if inv == "det":
        coeffs = np.array(x.F[::-1], dtype=complex)
        coeffs[-2::-2] *= -1.0  # F_1, F_3, ..., at reversed positions I-1, I-3, ...
        coeffs.setflags(write=False)
        return coeffs
    _require_2222(x, f"lambda_poly(inv={inv!r})")
    if inv == "N":
        return char_poly(_layout_matrix(x.flat(), N_LAYOUT))
    mat = as_complex_matrix(_layout_matrix(x.flat(), M_LAYOUT))
    # det X and det(X - u u^T) from one batched LU factorization
    det_x, det_shifted = np.linalg.det(np.stack((mat, mat - _M_IDENTITY)))
    return _read_only([det_x, det_shifted - det_x])


def _read_only(coeffs) -> np.ndarray:
    c = np.array(coeffs, dtype=complex)
    c.setflags(write=False)
    return c


def _bipartite_dims(rho: DensityMatrix) -> tuple[int, int]:
    if len(rho.dims) != 2:
        raise NotBipartiteError(
            f"realignment needs a bipartite state, got {len(rho.dims)} subsystems"
        )
    return rho.dims


def realignment(rho: DensityMatrix) -> np.ndarray:
    """The realigned matrix R of a bipartite state.

    R has shape n^2 x m^2 with R[(i,j),(k,l)] = rho[(i,k),(j,l)], indices
    big-endian as everywhere in this package.
    """
    n, m = _bipartite_dims(rho)
    four = rho.mat.reshape(n, m, n, m)  # axes (i, k, j, l)
    return four.transpose(0, 2, 1, 3).reshape(n * n, m * m)


_DIAG, _SYM, _ANTI = 0, 1, 2
# Entry (a, b) of the real realigned matrix is w1 part(z1) + w2 part(z2),
# tabulated by the kinds of a (row) and b (column); see
# _real_realignment_plan. _WEIGHT holds w1 and w2, _IMAG whether part is
# the imaginary part.
_SQRT2 = np.sqrt(2.0)
_WEIGHT = np.array([
    [[1.0, _SQRT2, -_SQRT2], [_SQRT2, 1.0, -1.0], [_SQRT2, 1.0, 1.0]],
    [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, -1.0]],
])
_IMAG = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]])


def _swap_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, kind) of each vector of the swap-adapted orthonormal basis of
    C^(n*n), in order: e_ii; (e_ij + e_ji)/sqrt(2) for i < j;
    i(e_ij - e_ji)/sqrt(2) for i < j."""
    diag = np.arange(n)
    iu, ju = np.nonzero(diag[:, None] < diag)
    kind = np.repeat([_DIAG, _SYM, _ANTI], [n, len(iu), len(iu)])
    return np.concatenate([diag, iu, iu]), np.concatenate([diag, ju, ju]), kind


@functools.lru_cache(maxsize=16)
def _real_realignment_plan(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, weight), each (2, n^2, m^2), such that the real realigned
    matrix is sum_t weight[t] * x[index[t]], x the float view of rho.

    Entry (a, b) of Q_n^dag R Q_m, for a basis vector a on (i, j) and b on
    (k, l), reads z1 = R[(i,j),(k,l)] and z2 = R[(i,j),(l,k)]. Hermiticity,
    R[(j,i),(l,k)] = conj R[(i,j),(k,l)], folds the other entries onto
    these two:

                 b = e_kk      b = sym         b = anti
      a = e_ii   Re z1         sqrt2 Re z1     -sqrt2 Im z1
      a = sym    sqrt2 Re z1   Re z1 + Re z2   -Im z1 + Im z2
      a = anti   sqrt2 Im z1   Im z1 + Im z2   Re z1 - Re z2

    Both entries lie in rho's upper triangle (row <= column), and a
    diagonal one only by its real part.
    """
    i, j, kind_a = _swap_basis(n)
    k, l, kind_b = _swap_basis(m)
    size = n * m
    row = (i * m * size + j * m)[:, None]  # R[(i,j),(k,l)] = rho[i*m + k, j*m + l]
    kinds = (3 * kind_a)[:, None] + kind_b  # positions in the flattened 3x3 tables
    # the float view holds Re at 2p and Im at 2p + 1
    index = 2 * np.stack([row + k * size + l, row + l * size + k]) + _IMAG.take(kinds)
    weight = _WEIGHT.reshape(2, 9).take(kinds, axis=1)
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


def _real_realignment(rho: DensityMatrix) -> np.ndarray:
    """The real matrix Q_n^dag R Q_m, with Q_n the unitary whose columns
    are the basis of :func:`_swap_basis`, gathered from rho's entries by a
    plan cached per (n, m)."""
    n, m = _bipartite_dims(rho)
    index, weight = _real_realignment_plan(n, m)
    x = np.ascontiguousarray(rho.mat, dtype=complex).view(float).ravel()
    return (weight * x[index]).sum(axis=0)


def realignment_kyfan(rho: DensityMatrix) -> float:
    """Ky Fan norm (sum of all singular values) of the realigned matrix R.

    For Hermitian rho, R = S_n conj(R) S_m with S the swap (i,j) -> (j,i).
    The orthonormal basis Q = {e_ii, (e_ij + e_ji)/sqrt(2),
    i(e_ij - e_ji)/sqrt(2)} has S conj(Q) = Q, so Q_n^dag R Q_m is real and,
    Q being unitary, has the singular values of R: the norm is the sum from
    a real SVD of the same size. rho is read as the Hermitian matrix with
    its upper triangle and the real part of its diagonal, from which a
    validated state differs by at most its tolerance.
    """
    return float(singular_values(_real_realignment(rho)).sum())
