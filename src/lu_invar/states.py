"""Quantum-state data model.

A mixed state is a validated density matrix tagged with its subsystem
dimensions. A pure-state decomposition is stored as one (I, n, m) stack
of weighted coefficient matrices A_i (the sqrt-probability is absorbed
into each matrix, never kept separately): the state vector sqrt(p_i)|v_i>
with coefficient c at basis ket |k l> becomes matrix entry (A_i)[k, l].

Basis enumeration is big-endian over the listed dimension order, i.e.
row-major: the composite index of (k_1, ..., k_m) is the mixed-radix
number with k_1 most significant. This convention is fixed here once:
the one reshape of a member into its coefficient matrix, in
:func:`eigen_decomposition`, is a row-major reshape to the sizes of the
first subsystem and of the rest, the bipartition that :func:`merge_cut`
makes by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    BadCutError,
    BadLengthError,
    BadShapeError,
    BadToleranceError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
)
from .linalg import (
    EPS,
    as_complex_matrix,
    eigh_descending,
    haar_unitary,
    hermiticity_residual,
    pivoted_cholesky,
    require_unitary,
)

DENSITY_TOL = 1e-10

# Largest n = prod(dims) at which validation computes the eigenvectors of
# the state beside its eigenvalues, one eigh in place of one eigvalsh, so
# that eigen_decomposition reads its members from them with no eigen-solve;
# above it the members come from the pivoted factor. The eigh's extra cost
# is paid once per state, whatever its rank, the factor's on every rank-2
# decomposition. With BLAS on one thread of a 2-vCPU x86 host, the eigh
# cost 2 to 11 us more than the eigvalsh at n <= 12 and 18 us more at
# n = 14, 22 at n = 16; the factor cost 28 to 33 us a decomposition, and
# reading the kept eigenvectors 6 us
EIGH_MAX_N = 12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, PSD, unit-trace matrix with subsystem dims, checked
    when it is built.

    Construction checks the matrix M it is given at the one tolerance
    ``DENSITY_TOL``: ``dims`` names at least two subsystems, each of
    dimension >= 2, whose product n matches the shape of M
    (:class:`DimensionMismatchError`), and M is Hermitian
    (:class:`NotHermitianError`), of unit trace
    (:class:`NotUnitTraceError`) and positive semidefinite
    (:class:`NotPSDError`), each error naming the measured residual.
    ``mat`` is then the state: the exactly Hermitian part (M + M^dag) / 2,
    a fresh read-only array within ``DENSITY_TOL`` of M, bitwise M when M
    is exactly Hermitian, so every quantity of the state reads one
    Hermitian matrix. ``spectrum`` holds the ascending, read-only
    eigenvalues of ``mat`` that positivity is checked with, and
    ``eigenvectors`` the read-only matrix of their column eigenvectors, in
    the same order: one ``eigh`` when n is at most ``EIGH_MAX_N``, and one
    ``eigvalsh`` above it, with ``eigenvectors`` None. :func:`merge_cut`
    passes all three on to its view. A state compares and hashes by
    identity.
    """

    dims: tuple[int, ...]
    mat: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 2 or any(d < 2 for d in dims):
            raise DimensionMismatchError(
                f"a state needs at least two subsystems, each of dimension >= 2, got {dims}"
            )
        mat = as_complex_matrix(self.mat)
        n = math.prod(dims)
        if mat.shape != (n, n):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match product of dims {dims} = {n}"
            )
        herm = hermiticity_residual(mat)
        tol = DENSITY_TOL
        if herm > tol:
            raise NotHermitianError(f"NotHermitian: max |rho - rho^dag| = {herm:.3e} > tol {tol:.3e}")
        tr = complex(mat.trace())
        if abs(tr - 1.0) > tol:
            raise NotUnitTraceError(f"NotUnitTrace: |tr(rho) - 1| = {abs(tr - 1.0):.3e} > tol {tol:.3e}")
        mat = (mat + mat.conj().T) / 2.0  # a fresh array: the input is not kept
        if n <= EIGH_MAX_N:
            w, v = np.linalg.eigh(mat)
            v.setflags(write=False)
        else:
            w, v = np.linalg.eigvalsh(mat), None
        if w[0] < -tol:
            raise NotPSDError(f"NotPSD: min eigenvalue = {w[0]:.3e} < -tol {tol:.3e}")
        w.setflags(write=False)
        mat.setflags(write=False)
        vars(self).update(dims=dims, mat=mat, spectrum=w, eigenvectors=v)  # frozen: set once here


def validate_density(mat, dims) -> DensityMatrix:
    """The state ``DensityMatrix(dims, mat)``: construction checks the
    candidate density matrix, at ``DENSITY_TOL``, and keeps its Hermitian
    part and the eigen-solve positivity is checked with (see
    :class:`DensityMatrix`)."""
    return DensityMatrix(dims=dims, mat=mat)


@dataclass(frozen=True, eq=False)
class PureStateDecomposition:
    """Coefficient matrices A_i of one pure-state decomposition, with the
    spectrum of their Gram matrix.

    ``stack`` holds every n x m matrix A_i in one read-only (I, n, m)
    array; summing vec(A_i) vec(A_i)^dag over i reproduces the source
    density matrix, and sum_i tr(A_i A_i^dag) is the total probability (1
    for a unit-trace state); ``n`` and ``m`` are read from its shape.
    ``gram_spectrum`` holds the ascending, read-only eigenvalues of the
    I x I Gram matrix Omega_ij = tr(A_i A_j^dag). Both are set when the
    decomposition is built, by :func:`make_decomposition` or
    :func:`eigen_decomposition`.
    """

    stack: np.ndarray
    gram_spectrum: np.ndarray

    def __len__(self) -> int:
        return len(self.stack)

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    @property
    def m(self) -> int:
        return self.stack.shape[2]


def make_decomposition(mats) -> PureStateDecomposition:
    """Copy n x m coefficient matrices, a sequence or an (I, n, m) array,
    into one read-only complex stack, checking their shapes and that
    every entry is finite, and compute its Gram spectrum by one
    ``eigvalsh`` of the exactly Hermitian V V^dag, row i of V the
    flattened A_i."""
    try:
        stack = np.array(mats, dtype=complex)
    except ValueError as exc:  # members of different shapes, or not numbers
        raise DimensionMismatchError(f"not one stack of n x m matrices: {exc}") from exc
    if stack.shape[:1] == (0,):
        raise BadLengthError("a decomposition needs at least one coefficient matrix")
    if stack.ndim != 3 or 0 in stack.shape:
        raise BadShapeError(f"expected a stack of n x m matrices, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise BadShapeError("coefficient matrices contain NaN or Inf entries")
    stack.setflags(write=False)
    w = np.linalg.eigvalsh(gram_of(stack))
    w.setflags(write=False)
    return PureStateDecomposition(stack, w)


def gram_of(stack: np.ndarray) -> np.ndarray:
    """The Gram matrix Omega_ij = tr(A_i A_j^dag) of an (I, n, m) stack,
    V V^dag with row i of V the flattened A_i, made exactly Hermitian."""
    vecs = stack.reshape(len(stack), -1)
    omega = vecs @ vecs.conj().T
    return (omega + omega.conj().T) / 2.0


def merge_cut(rho: DensityMatrix, cut: int = 1) -> DensityMatrix:
    """View a state as bipartite across the given cut, the first ``cut``
    subsystems against the rest (:class:`BadCutError` unless 1 <= cut <
    len(dims)); a bipartite state is returned itself. The one place a
    bipartition is decided. The view is of the same checked matrix: it
    shares the state's ``mat``, ``spectrum`` and ``eigenvectors``,
    and neither checks nor decomposes it again."""
    if not 1 <= cut < len(rho.dims):
        raise BadCutError(f"cut must satisfy 1 <= cut < {len(rho.dims)}, got {cut}")
    if len(rho.dims) == 2:
        return rho
    view = object.__new__(DensityMatrix)  # rho's checked fields, with no second check
    vars(view).update(vars(rho), dims=(math.prod(rho.dims[:cut]), math.prod(rho.dims[cut:])))
    return view


def numerical_rank(w, rank_tol: float | None = None) -> int:
    """How many of a state's eigenvalues, the ascending array ``w``, are kept.

    The one rule the package decides a rank by, applied to a state's
    ``spectrum``. An eigenvalue is kept when it exceeds both ``rank_tol``
    and the noise floor len(w) eps lambda_max; the default ``rank_tol`` is
    scale-aware, 1e-10 times the largest eigenvalue. An eigenvalue at the
    rounding level of rho is no evidence of rank, whatever the
    ``rank_tol``. At full rank only the smallest eigenvalue is read. The
    eigenvalues are read as Python floats, by ``.item()``. A
    rank of 0 raises :class:`BadToleranceError` when the largest
    eigenvalue is positive, so a given ``rank_tol`` dropped it, and
    :class:`NotPSDError` when no eigenvalue is positive.
    """
    n = len(w)
    top = w.item(-1) if n else 0.0
    floor = max(n * EPS * top, 1e-10 * top if rank_tol is None else rank_tol)
    if n and w.item(0) > floor:
        return n
    rank = n - int(w.searchsorted(floor, "right"))
    if rank == 0 and top > 0.0:
        raise BadToleranceError(
            f"rank_tol {rank_tol!r} is at or above the largest eigenvalue {top!r}; "
            "it keeps no eigenvalue"
        )
    if rank == 0:
        raise NotPSDError("state has numerical rank 0; not a valid density matrix")
    return rank


def eigen_decomposition(rho: DensityMatrix, rank: int | None = None) -> PureStateDecomposition:
    """The eigenvector decomposition of a density matrix: member i is
    sqrt(w_i) v_i for the top ``rank`` eigenpairs (w_i, v_i) of rho,
    descending.

    ``rank`` is the caller's, decided once by :func:`numerical_rank` on
    ``rho.spectrum`` (:class:`BadLengthError` below 1); None reads it
    there at the default ``rank_tol``. At most ``rank`` members are
    returned, fewer only when rho has fewer positive eigenvalues. Their
    w, ascending, are the decomposition's ``gram_spectrum``, so no second
    eigen-solve runs on the members, and the members, fresh and finite,
    are neither copied nor checked as :func:`make_decomposition` does.
    ``equivalence.fingerprint`` reads the w only to measure the members'
    deviation from rho; ``decomposition_fingerprint`` reads F and the
    Gram trace from them.
    Each member is an N1 x N2 coefficient matrix, N1 the first
    subsystem's dimension and N2 that of the rest: to split a
    multipartite state elsewhere, decompose ``merge_cut(rho, cut)``.

    The eigenpairs come from one of two sources, decided once, when rho
    was built:

    - ``rho.eigenvectors``, kept by its check at n <= ``EIGH_MAX_N``
      with ``rho.spectrum`` from one ``eigh`` of ``rho.mat``: no
      eigen-solve runs here, and the positive eigenvalues of the
      spectrum are the ones kept. The members are read from one slice
      of the kept eigenvectors, each column scaled by its sqrt(w_i) and
      the columns taken in reverse; the w, ascending, are that slice of
      ``rho.spectrum``.
    - when rho has none: a diagonally pivoted Cholesky factorization
      (:func:`pivoted_cholesky`) stops once the largest remaining
      diagonal entry is at most tau, giving rho = L L^dag + E with r'
      columns in O(n^2 r') work, and E positive semidefinite with tr E
      <= n tau. tau is 1e-12 * max diag(rho) / n, never below n * eps *
      max diag(rho), LAPACK ``xPSTRF``'s default, where a pivot would be
      rounding noise (that floor binds for n > 67). As the largest
      eigenvalue is at least max diag(rho), ||E|| <= n tau is at most
      1e-12 times it, 1% of the default ``rank_tol``. tau does not depend
      on a given ``rank_tol``: the w below are then within ||E|| of the
      top eigenvalues of rho in any basis rho is written in. The r' x r'
      Gram matrix L^dag L = U W U^dag then gives the members L u_i, of
      Gram matrix diag(w), descending: Rayleigh-Ritz on the range of L,
      so member i is sqrt(w_i) times an eigenvector of L L^dag, exact
      when E = 0. The factor runs to at least ``rank`` columns: a
      ``rank_tol`` under tau keeps an eigenvalue below the factor's
      threshold, and the factor then takes its column too, in every
      basis, which only shrinks E. Only a nonpositive pivot stops it
      short of ``rank``.
    """
    lam = rho.spectrum
    n = len(lam)
    if rank is None:
        rank = numerical_rank(lam)
    elif rank < 1:
        raise BadLengthError(f"a decomposition needs rank >= 1, got {rank}")
    v = rho.eigenvectors
    if v is not None:
        rank = min(rank, n)
        while rank and lam.item(n - rank) <= 0.0:  # only positive eigenvalues are kept
            rank -= 1
        lo = n - rank  # the kept eigenpairs are the last ones, ascending
        members = (v[:, lo:] * np.sqrt(lam[lo:]))[:, ::-1].T  # row i is sqrt(w_i) v_i, descending
        kept = lam[lo:]
    else:
        top = max(float(rho.mat.diagonal().real.max()), 0.0)
        # never below LAPACK xPSTRF's default n eps max diag(rho): a pivot at
        # the rounding level of the Schur complement is a column of noise
        tau = max(1e-12 / n, n * EPS) * top
        rows = pivoted_cholesky(rho.mat, tau, rank)  # row k is column k of L
        w, u = eigh_descending(rows.conj() @ rows.T)
        rank = min(rank, len(w))
        members = u[:, :rank].T @ rows  # row i is L u_i
        kept = w[:rank][::-1]  # w is descending
    # fresh and finite: no copy or check
    stack = members.reshape(rank, rho.dims[0], n // rho.dims[0])
    stack.setflags(write=False)
    kept.setflags(write=False)
    return PureStateDecomposition(stack, kept)


def mix_decomposition(d: PureStateDecomposition, u) -> PureStateDecomposition:
    """Rotate a decomposition by a unitary: B_i = sum_j U_ij A_j.

    This is the full unitary freedom among decompositions of equal
    cardinality; the reconstructed density matrix is unchanged.
    """
    u = require_unitary(u, what="mixing matrix")
    if u.shape[0] != len(d):
        raise DimensionMismatchError(
            f"mixing matrix is {u.shape[0]}x{u.shape[0]} but decomposition has {len(d)} members"
        )
    mixed = np.einsum("ij,jkl->ikl", u, d.stack)
    return make_decomposition(mixed)


def pad_with_zeros(d: PureStateDecomposition, j: int) -> PureStateDecomposition:
    """Append j - I all-zero coefficient matrices (j >= I required)."""
    if j < len(d):
        raise BadLengthError(f"target length {j} is below current length {len(d)}")
    zeros = np.zeros((j - len(d), d.n, d.m), dtype=complex)
    return make_decomposition(np.concatenate([d.stack, zeros]))


def apply_local_unitary(d: PureStateDecomposition, p, q) -> PureStateDecomposition:
    """Local action on a decomposition: A_i -> P A_i Q^T.

    Q enters with the plain transpose, not the conjugate transpose; that is
    what makes reconstruction commute with conjugating the density matrix
    by P tensor Q.
    """
    p = require_unitary(p, what="left local unitary")
    q = require_unitary(q, what="right local unitary")
    if p.shape[0] != d.n or q.shape[0] != d.m:
        raise DimensionMismatchError(
            f"local unitaries {p.shape[0]}x{p.shape[0]}, {q.shape[0]}x{q.shape[0]} "
            f"do not fit coefficient matrices {d.n}x{d.m}"
        )
    return make_decomposition(p @ d.stack @ q.T)


def apply_local_unitary_density(rho: DensityMatrix, locals_) -> DensityMatrix:
    """Conjugate by a tensor product of local unitaries, one per
    subsystem. The result is checked as every state is, at
    ``DENSITY_TOL``."""
    locals_ = [require_unitary(u, what="local unitary") for u in locals_]
    if len(locals_) != len(rho.dims):
        raise DimensionMismatchError(
            f"got {len(locals_)} local unitaries for {len(rho.dims)} subsystems"
        )
    for u, dim in zip(locals_, rho.dims):
        if u.shape[0] != dim:
            raise DimensionMismatchError(
                f"local unitary of size {u.shape[0]} does not match subsystem dimension {dim}"
            )
    full = reduce(np.kron, locals_)
    out = full @ rho.mat @ full.conj().T
    return validate_density(out, rho.dims)


def random_density(dims, rank: int, seed: int) -> DensityMatrix:
    """A random density matrix of the requested rank (Ginibre construction)."""
    dims = tuple(int(d) for d in dims)
    n = math.prod(dims)
    if not 1 <= rank <= n:
        raise BadLengthError(f"rank must be in 1..{n}, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return validate_density(rho, dims)


def random_local_unitaries(dims, seed: int) -> list[np.ndarray]:
    """One Haar-random unitary per subsystem, from a single seeded stream."""
    rng = np.random.default_rng(seed)
    return [haar_unitary(int(d), rng) for d in dims]
