"""Quantum-state data model.

A mixed state is a validated density matrix tagged with its subsystem
dimensions. A pure-state decomposition is stored as one (I, n, m) stack
of weighted coefficient matrices A_i (the sqrt-probability is absorbed
into each matrix, never kept separately): the state vector sqrt(p_i)|v_i>
with coefficient c at basis ket |k l> becomes matrix entry (A_i)[k, l].

Basis enumeration is big-endian over the listed dimension order, i.e.
row-major: the composite index of (k_1, ..., k_m) is the mixed-radix
number with k_1 most significant. This convention is fixed here once and
every reshape in the package goes through :func:`flatten_multipartite`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

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
    as_complex_matrix,
    eigh_descending,
    haar_unitary,
    hermiticity_residual,
    pivoted_cholesky,
    require_unitary,
)

DENSITY_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A validated Hermitian, PSD, unit-trace matrix with subsystem dims.

    Construct through :func:`validate_density`; the stored ``tol`` is the
    tolerance the validation was performed at. ``spectrum`` holds the
    ascending, read-only eigenvalues of the Hermitian part of ``mat``,
    computed once per state: validation keeps the ones it checks
    positivity with, and :func:`merge_cut` passes them on. A state built
    by hand computes them on first use as
    ``validate_density(mat, dims, tol).spectrum``, so that first use
    checks it exactly as validation would, at its own ``tol``: shape,
    Hermiticity, unit trace and positivity.
    """

    dims: tuple[int, ...]
    mat: np.ndarray
    tol: float

    @cached_property
    def spectrum(self) -> np.ndarray:
        return validate_density(self.mat, self.dims, self.tol).spectrum


def _density(dims, mat: np.ndarray, tol: float, spectrum: np.ndarray | None) -> DensityMatrix:
    rho = DensityMatrix(dims=dims, mat=mat, tol=tol)
    if spectrum is not None:
        vars(rho)["spectrum"] = spectrum  # fills the cached property
    return rho


def validate_density(mat, dims, tol: float = DENSITY_TOL) -> DensityMatrix:
    """Validate a candidate density matrix against its three invariants.

    Raises ``NotHermitianError``, ``NotUnitTraceError`` or ``NotPSDError``
    naming the violated invariant and the measured residual. The
    eigenvalues that positivity is checked with, one ``eigvalsh`` of the
    Hermitian part, are kept as the state's ``spectrum``.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 1 or any(d < 2 for d in dims):
        raise DimensionMismatchError(f"subsystem dimensions must all be >= 2, got {dims}")
    mat = as_complex_matrix(mat)
    n = math.prod(dims)
    if mat.shape != (n, n):
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not match product of dims {dims} = {n}"
        )
    herm = hermiticity_residual(mat)
    if herm > tol:
        raise NotHermitianError(f"NotHermitian: max |rho - rho^dag| = {herm:.3e} > tol {tol:.3e}")
    tr = complex(mat.trace())
    if abs(tr - 1.0) > tol:
        raise NotUnitTraceError(f"NotUnitTrace: |tr(rho) - 1| = {abs(tr - 1.0):.3e} > tol {tol:.3e}")
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    if w[0] < -tol:
        raise NotPSDError(f"NotPSD: min eigenvalue = {w[0]:.3e} < -tol {tol:.3e}")
    w.setflags(write=False)
    mat = mat.copy()
    mat.setflags(write=False)
    return _density(dims, mat, tol, w)


@dataclass(frozen=True)
class PureStateDecomposition:
    """Coefficient matrices A_i of one pure-state decomposition.

    ``stack`` holds every n x m matrix A_i in one read-only (I, n, m)
    array; summing vec(A_i) vec(A_i)^dag over i reproduces the source
    density matrix, and sum_i tr(A_i A_i^dag) is the total probability (1
    for a unit-trace state). Build it with :func:`make_decomposition`.
    """

    n: int
    m: int
    stack: np.ndarray

    def __len__(self) -> int:
        return len(self.stack)


def make_decomposition(mats) -> PureStateDecomposition:
    """Copy n x m coefficient matrices, a sequence or an (I, n, m) array,
    into one read-only complex stack, checking their shapes and that
    every entry is finite."""
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
    return PureStateDecomposition(n=stack.shape[1], m=stack.shape[2], stack=stack)


def flatten_multipartite(coeffs, dims, cut: int) -> np.ndarray:
    """Reshape coefficient vectors over (k_1, ..., k_m) to N1 x N2 matrices.

    The vectors run along the last axis, so one vector gives one matrix
    and an (I, N) stack an (I, N1, N2) stack. The row index is the
    big-endian mixed-radix number of (k_1, ..., k_cut), the column index
    that of the remaining indices. For two subsystems and cut 1 this is
    the plain n x m reshape.
    """
    dims = tuple(int(x) for x in dims)
    c = np.asarray(coeffs, dtype=complex)
    if c.shape[-1:] != (math.prod(dims),):
        raise BadLengthError(
            f"coefficient vectors have shape {c.shape}, expected length "
            f"prod{dims} = {math.prod(dims)} along the last axis"
        )
    return c.reshape(c.shape[:-1] + _cut_sizes(dims, cut))


def _cut_sizes(dims: tuple[int, ...], cut: int) -> tuple[int, int]:
    """(N1, N2): the sizes of the first ``cut`` subsystems and of the rest."""
    if not 1 <= cut < len(dims):
        raise BadCutError(f"cut must satisfy 1 <= cut < {len(dims)}, got {cut}")
    return math.prod(dims[:cut]), math.prod(dims[cut:])


def merge_cut(rho: DensityMatrix, cut: int = 1) -> DensityMatrix:
    """View a multipartite state as bipartite across the given cut; a
    bipartite state at cut 1 is returned itself."""
    if len(rho.dims) == 1:
        raise BadCutError("cannot bipartition a single-subsystem state")
    if len(rho.dims) == 2 and cut == 1:
        return rho
    return _density(_cut_sizes(rho.dims, cut), rho.mat, rho.tol, vars(rho).get("spectrum"))


def numerical_rank(w: np.ndarray, rank_tol: float | None = None) -> int:
    """How many of the eigenvalues ``w`` of a state exceed ``rank_tol``.

    The rule every decomposition of the package decides its rank by.
    Eigenvalues at or below ``rank_tol`` are treated as exact zeros; the
    default threshold is scale-aware, 1e-10 times the largest eigenvalue.
    A rank of 0 raises :class:`BadToleranceError` when the largest
    eigenvalue is positive, so a given ``rank_tol`` dropped it, and
    :class:`NotPSDError` when no eigenvalue is positive.
    """
    top = float(w.max(initial=0.0))  # a zero matrix has an empty Gram spectrum
    if rank_tol is None:
        rank_tol = 1e-10 * max(top, 0.0)
    rank = int(np.count_nonzero(w > rank_tol))
    if rank == 0 and top > 0.0:
        raise BadToleranceError(
            f"rank_tol {rank_tol!r} is at or above the largest eigenvalue {top!r}; "
            "it keeps no eigenvalue"
        )
    if rank == 0:
        raise NotPSDError("state has numerical rank 0; not a valid density matrix")
    return rank


def eigen_decomposition(
    rho: DensityMatrix, rank_tol: float | None = None, cut: int = 1
) -> PureStateDecomposition:
    """The eigenvector decomposition of a density matrix, read from a
    rank-revealing factor.

    A diagonally pivoted Cholesky factorization (:func:`pivoted_cholesky`)
    stops once the largest remaining diagonal entry is at most tau, giving
    rho = L L^dag + E with r' >= rank(rho) columns in O(n^2 r') work for an
    n x n rho, and E positive semidefinite with tr E <= n tau. tau is
    1e-12 * max diag(rho) / n, never below n * eps * max diag(rho),
    LAPACK ``xPSTRF``'s default, where a pivot would be rounding noise
    (that floor binds for n > 67). As the largest eigenvalue is at least
    max diag(rho), ||E|| <= n tau is at most 1e-12 times it, 1% of the
    default ``rank_tol``. tau does not depend on a given ``rank_tol``: the
    w below are then within ||E|| of the top eigenvalues of rho in any
    basis rho is written in, and a given ``rank_tol`` below about n tau
    counts no eigenvalue the factor dropped. The r' x r' Gram matrix
    L^dag L = U W U^dag then gives the members L u_i, of Gram matrix
    diag(w), descending: Rayleigh-Ritz on the range of L, so member i is
    sqrt(w_i) times an eigenvector of L L^dag, exact when E = 0.

    There are exactly rank(rho) members, the rank by
    :func:`numerical_rank` of w at ``rank_tol``. For more than two
    subsystems the coefficient vectors are flattened across ``cut`` (first
    ``cut`` subsystems versus the rest). The factor reads the Hermitian
    part of ``rho.mat`` column by column, so rho is never symmetrized as a
    whole; a state built by hand is checked first, on its ``spectrum``.
    """
    rho.spectrum  # computes, and so checks, the spectrum of a hand-built state
    n = rho.mat.shape[0]
    top = max(float(rho.mat.diagonal().real.max()), 0.0)
    # never below LAPACK xPSTRF's default n eps max diag(rho): a pivot at
    # the rounding level of the Schur complement is a column of noise
    tau = max(1e-12 / n, n * np.finfo(float).eps) * top
    rows = pivoted_cholesky(rho.mat, tau)  # row k is column k of L
    w, u = eigh_descending(rows.conj() @ rows.T)
    rank = numerical_rank(w, rank_tol)
    members = u[:, :rank].T @ rows  # row i is L u_i
    return make_decomposition(flatten_multipartite(members, rho.dims, cut))


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
    """Conjugate by a tensor product of local unitaries, one per subsystem."""
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
    return validate_density(out, rho.dims, tol=max(rho.tol, 1e-9))


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
