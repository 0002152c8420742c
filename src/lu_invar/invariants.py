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
  size), from the eigenvalues of the Gram matrix's PSD check,
* Cayley's 2x2x2 hyperdeterminant,
* the two degree-4 determinant invariants N and M of format 2x2x2x2,
  each the determinant of one 4x4 flattening of the s=2 hypermatrix
  (see ``N_LAYOUT`` / ``M_LAYOUT`` below for which flattenings and signs),
* coefficients of the lambda polynomials inv(Omega_s - lambda E): the
  signed F for ``det``, a characteristic polynomial for N and a linear
  polynomial for M,
* the Ky Fan (trace) norm of the realignment matrix, the classical
  comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadShapeError,
    NotBipartiteError,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    TooLargeError,
    UnsupportedFormatError,
)
from .linalg import Polynomial, char_poly, determinant, singular_values
from .states import DensityMatrix, PureStateDecomposition

GRAM_TOL = 1e-10
HYPERMATRIX_MAX_ENTRIES = 2**20


@dataclass(frozen=True)
class GramMatrix:
    """The I x I overlap matrix Omega_ij = tr(A_i A_j^dag).

    Hermitian and positive semidefinite by construction; its trace equals
    the trace of the reconstructed state (1 for a density matrix).
    ``spectrum`` holds its eigenvalues in ascending order.
    """

    omega: np.ndarray
    spectrum: np.ndarray

    @property
    def size(self) -> int:
        return self.omega.shape[0]


def gram_matrix(d: PureStateDecomposition) -> GramMatrix:
    """Overlap matrix of a decomposition, validated against its invariants."""
    stack = d.stacked()
    omega = np.einsum("ikl,jkl->ij", stack, stack.conj())
    herm = float(np.abs(omega - omega.conj().T).max())
    if herm > GRAM_TOL:
        raise NotHermitianError(f"NotHermitian: Gram residual {herm:.3e} > {GRAM_TOL:.3e}")
    omega = (omega + omega.conj().T) / 2.0
    w = np.linalg.eigvalsh(omega)
    if w.min() < -GRAM_TOL:
        raise NotPSDError(f"NotPSD: Gram min eigenvalue {w.min():.3e} < -{GRAM_TOL:.3e}")
    tr = float(np.trace(omega).real)
    if abs(tr - 1.0) > GRAM_TOL:
        raise NotUnitTraceError(
            f"NotUnitTrace: Gram trace {tr!r} differs from 1 by {abs(tr - 1.0):.3e}"
        )
    omega.setflags(write=False)
    w.setflags(write=False)
    return GramMatrix(omega=omega, spectrum=w)


@dataclass(frozen=True)
class InvariantVector:
    """F_0 .. F_I with F_i the i-th elementary symmetric polynomial of
    the Gram spectrum. F_0 is exactly 1; F_1 equals tr(rho)."""

    F: np.ndarray

    def __len__(self) -> int:
        return len(self.F)


def f_invariants(g: GramMatrix) -> InvariantVector:
    """Elementary symmetric polynomials of the Gram spectrum.

    F_i := e_i(spectrum of Omega), i.e. (-1)**i times the coefficient of
    lambda**(I-i) in det(lambda E - Omega), so F_1 = tr(Omega) and
    F_I = det(Omega). Built by the product recurrence
    e_k <- e_k + x * e_(k-1) over the eigenvalues x of ``g.spectrum``.
    Omega is PSD, so up to rounding every term is nonnegative and each
    F_i keeps its relative accuracy however small it is. F_0 is exactly
    1 and every F_i is real.
    """
    f = np.zeros(g.size + 1, dtype=complex)
    f[0] = 1.0
    for x in g.spectrum:
        f[1:] += x * f[:-1]
    f.setflags(write=False)
    return InvariantVector(F=f)


@dataclass(frozen=True)
class Hypermatrix:
    """Order-2s trace hypermatrix of a decomposition.

    ``entries`` has shape (I,) * (2s) with axes in the trace order
    (i_1, j_1, i_2, j_2, ...), so that for s = 2 and I = 2 the row-major
    flat index of entry (i, j, k, l) is exactly r = 8i + 4j + 2k + l.
    Use :meth:`entry` to address an element by its two index groups.
    """

    s: int
    side: int
    entries: np.ndarray

    def entry(self, i_idx, j_idx) -> complex:
        """Element for row group (i_1..i_s) and column group (j_1..j_s)."""
        if len(i_idx) != self.s or len(j_idx) != self.s:
            raise BadShapeError(f"index groups must each have length {self.s}")
        interleaved = tuple(x for pair in zip(i_idx, j_idx) for x in pair)
        return complex(self.entries[interleaved])

    def flat(self) -> np.ndarray:
        """Row-major flattening; matches the r = 8i+4j+2k+l convention."""
        return self.entries.reshape(-1)


def _validate_hypermatrix_symmetries(t: np.ndarray, s: int) -> None:
    scale = max(float(np.abs(t).max()), 1.0)
    # conj(T[i1,j1,...,is,js]) == T[js,is, ..., j1,i1]: reverse the pair
    # sequence and swap within each pair (trace of the dagger).
    axes = []
    for p in range(s - 1, -1, -1):
        axes.extend([2 * p + 1, 2 * p])
    if np.abs(t.conj() - np.transpose(t, axes)).max() > 1e-10 * scale:
        raise BadShapeError("hypermatrix violates conjugate symmetry")
    # simultaneous cyclic shift of the s (i, j) pairs (trace cyclicity)
    if s > 1:
        rolled = np.moveaxis(t, [0, 1], [2 * s - 2, 2 * s - 1])
        if np.abs(t - rolled).max() > 1e-10 * scale:
            raise BadShapeError("hypermatrix violates cyclic symmetry")


def hypermatrix(d: PureStateDecomposition, s: int) -> Hypermatrix:
    """The order-2s hypermatrix tr(A_{i1} A_{j1}^dag ... A_{is} A_{js}^dag).

    For s = 1 this flattens to the Gram matrix. Refuses formats larger
    than 2**20 entries.
    """
    if s < 1:
        raise BadShapeError(f"order parameter s must be >= 1, got {s}")
    i_count = len(d)
    if i_count ** (2 * s) > HYPERMATRIX_MAX_ENTRIES:
        raise TooLargeError(
            f"hypermatrix would have {i_count ** (2 * s)} entries "
            f"(limit {HYPERMATRIX_MAX_ENTRIES})"
        )
    stack = d.stacked()
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
    _validate_hypermatrix_symmetries(t, s)
    t = np.ascontiguousarray(t)
    t.setflags(write=False)
    return Hypermatrix(s=s, side=i_count, entries=t)


_LEVI_CIVITA_2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def cayley_det_222(tensor, method: str = "expanded") -> complex:
    """Cayley's hyperdeterminant of a 2x2x2 array.

    ``method="expanded"`` evaluates the classical 12-term degree-4
    polynomial. ``method="compact"`` contracts with the Levi-Civita symbol:
    b_kn = (1/2) eps^{il} eps^{jm} a_{ijk} a_{lmn}, then
    Det = -2 eps^{il} eps^{jm} b_{ij} b_{lm}. The -2 normalization (rather
    than +1/2) is what makes the contraction identical to the 12-term
    expansion; it is fixed by the basis tensor with a_000 = a_111 = 1,
    whose hyperdeterminant is 1.

    Vanishes on decomposable (product) tensors, and scales by det(B)**2
    when an invertible B acts on any one slot.
    """
    a = np.asarray(tensor, dtype=complex)
    if a.size != 8:
        raise BadShapeError(f"expected 8 entries for a 2x2x2 tensor, got {a.size}")
    a = a.reshape(2, 2, 2)
    if method == "expanded":
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
    if method == "compact":
        eps = _LEVI_CIVITA_2
        b = 0.5 * np.einsum("il,jm,ijk,lmn->kn", eps, eps, a, a)
        return complex(-2.0 * np.einsum("il,jm,ij,lm->", eps, eps, b, b))
    raise BadShapeError(f"unknown method {method!r}; use 'expanded' or 'compact'")


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


def _layout_matrix(flat: np.ndarray, layout) -> np.ndarray:
    return flat[np.asarray(layout)]


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


def lambda_poly(
    x: PureStateDecomposition | GramMatrix | Hypermatrix, s: int, inv: str
) -> Polynomial:
    """Coefficients of inv(Omega_s - lambda E) as a polynomial in lambda.

    ``inv`` selects the invariant polynomial applied to the shifted
    hypermatrix: ``"det"`` (requires s = 1; the resulting polynomial is
    returned in the monic normalization (-1)**I det(Omega - lambda E) =
    det(lambda E - Omega), under which zero-padding the decomposition
    multiplies it by exactly lambda**(J-r)), or ``"N"`` / ``"M"``
    (require s = 2 and a two-member decomposition).

    ``x`` is a :class:`PureStateDecomposition`, or the object already
    built from one: the :class:`GramMatrix` for ``"det"``, the s=2
    :class:`Hypermatrix` of format 2x2x2x2 for ``"N"`` / ``"M"``. A
    decomposition is built into that object first; a built object of the
    wrong kind or format raises :class:`UnsupportedFormatError`.

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
    want_s, want_type = (1, GramMatrix) if inv == "det" else (2, Hypermatrix)
    if s != want_s:
        raise UnsupportedFormatError(f"inv={inv!r} requires s={want_s}, got s={s}")
    if isinstance(x, PureStateDecomposition):
        if inv != "det" and len(x) != 2:
            # refused before a hypermatrix of that size is built
            raise UnsupportedFormatError(
                f"inv={inv!r} requires a rank-2 decomposition, got I={len(x)}"
            )
        x = gram_matrix(x) if inv == "det" else hypermatrix(x, 2)
    if not isinstance(x, want_type):
        raise UnsupportedFormatError(
            f"inv={inv!r} needs a {want_type.__name__} or a decomposition, "
            f"got {type(x).__name__}"
        )
    if inv == "det":
        f = f_invariants(x).F
        signs = (-1.0) ** np.arange(x.size + 1)
        return Polynomial((signs * f)[::-1])
    _require_2222(x, f"lambda_poly(inv={inv!r})")
    if inv == "N":
        return char_poly(_layout_matrix(x.flat(), N_LAYOUT))
    mat = _layout_matrix(x.flat(), M_LAYOUT)
    det_x = determinant(mat)
    return Polynomial([det_x, determinant(mat - _M_IDENTITY) - det_x])


def realignment(rho: DensityMatrix) -> np.ndarray:
    """The realigned matrix R of a bipartite state.

    R has shape n^2 x m^2 with R[(i,j),(k,l)] = rho[(i,k),(j,l)], indices
    big-endian as everywhere in this package.
    """
    if len(rho.dims) != 2:
        raise NotBipartiteError(
            f"realignment needs a bipartite state, got {len(rho.dims)} subsystems"
        )
    n, m = rho.dims
    four = rho.mat.reshape(n, m, n, m)  # axes (i, k, j, l)
    return four.transpose(0, 2, 1, 3).reshape(n * n, m * m)


def realignment_kyfan(rho: DensityMatrix) -> float:
    """Ky Fan norm (sum of all singular values) of the realigned matrix."""
    return float(np.sum(singular_values(realignment(rho))))
