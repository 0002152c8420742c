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
from functools import reduce

import numpy as np

from .errors import (
    BadCutError,
    BadLengthError,
    BadShapeError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
)
from .linalg import (
    as_complex_matrix,
    haar_unitary_from_rng,
    hermitian_eig,
    hermiticity_residual,
    require_unitary,
)

DENSITY_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A validated Hermitian, PSD, unit-trace matrix with subsystem dims.

    Construct through :func:`validate_density`; the stored ``tol`` is the
    tolerance the validation was performed at.
    """

    dims: tuple[int, ...]
    mat: np.ndarray
    tol: float

    @property
    def size(self) -> int:
        return self.mat.shape[0]


def validate_density(mat, dims, tol: float = DENSITY_TOL) -> DensityMatrix:
    """Validate a candidate density matrix against its three invariants.

    Raises ``NotHermitianError``, ``NotUnitTraceError`` or ``NotPSDError``
    naming the violated invariant and the measured residual.
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
    if w.min() < -tol:
        raise NotPSDError(f"NotPSD: min eigenvalue = {w.min():.3e} < -tol {tol:.3e}")
    mat = mat.copy()
    mat.setflags(write=False)
    return DensityMatrix(dims=dims, mat=mat, tol=tol)


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

    @property
    def mats(self) -> tuple[np.ndarray, ...]:
        """The matrices A_i as read-only views into the stack."""
        return tuple(self.stack)

    def stacked(self) -> np.ndarray:
        """The matrices as one read-only (I, n, m) array, without a copy."""
        return self.stack


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


def reconstruct(d: PureStateDecomposition) -> np.ndarray:
    """Density matrix sum_i vec(A_i) vec(A_i)^dag implied by a decomposition."""
    vecs = d.stacked().reshape(len(d), d.n * d.m)
    return np.einsum("ia,ib->ab", vecs, vecs.conj())


def total_weight(d: PureStateDecomposition) -> float:
    """sum_i tr(A_i A_i^dag); equals tr(rho) for a faithful decomposition."""
    return float(np.vdot(d.stacked(), d.stacked()).real)


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
    """View a multipartite state as bipartite across the given cut."""
    if len(rho.dims) == 1:
        raise BadCutError("cannot bipartition a single-subsystem state")
    return DensityMatrix(dims=_cut_sizes(rho.dims, cut), mat=rho.mat, tol=rho.tol)


def eigen_decomposition(
    rho: DensityMatrix, rank_tol: float | None = None, cut: int = 1
) -> PureStateDecomposition:
    """The eigenvector decomposition of a density matrix.

    Eigenvalues at or below ``rank_tol`` are treated as exact zeros, so the
    decomposition has exactly rank(rho) members. The default threshold is
    scale-aware: 1e-10 times the largest eigenvalue.

    For more than two subsystems the coefficient vectors are flattened
    across ``cut`` (first ``cut`` subsystems versus the rest). Member i,
    sqrt(w_i) times the i-th eigenvector, is built with all the others as
    one scaled and reshaped stack.
    """
    w, v = hermitian_eig(rho.mat, tol=max(rho.tol, 1e-10))
    if rank_tol is None:
        rank_tol = 1e-10 * max(w[0], 0.0)
    rank = np.count_nonzero(w > rank_tol)
    if rank == 0:
        raise NotPSDError("state has numerical rank 0; not a valid density matrix")
    weighted = (v[:, :rank] * np.sqrt(w[:rank])).T  # row i is sqrt(w_i) v_i
    return make_decomposition(flatten_multipartite(weighted, rho.dims, cut))


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
    mixed = np.einsum("ij,jkl->ikl", u, d.stacked())
    return make_decomposition(mixed)


def pad_with_zeros(d: PureStateDecomposition, j: int) -> PureStateDecomposition:
    """Append j - I all-zero coefficient matrices (j >= I required)."""
    if j < len(d):
        raise BadLengthError(f"target length {j} is below current length {len(d)}")
    zeros = np.zeros((j - len(d), d.n, d.m), dtype=complex)
    return make_decomposition(np.concatenate([d.stacked(), zeros]))


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
    return make_decomposition(p @ d.stacked() @ q.T)


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


def random_density(dims, rank: int, seed: int, tol: float = DENSITY_TOL) -> DensityMatrix:
    """A random density matrix of the requested rank (Ginibre construction)."""
    dims = tuple(int(d) for d in dims)
    n = math.prod(dims)
    if not 1 <= rank <= n:
        raise BadLengthError(f"rank must be in 1..{n}, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return validate_density(rho, dims, tol=tol)


def random_local_unitaries(dims, seed: int) -> list[np.ndarray]:
    """One Haar-random unitary per subsystem, from a single seeded stream."""
    rng = np.random.default_rng(seed)
    return [haar_unitary_from_rng(int(d), rng) for d in dims]
