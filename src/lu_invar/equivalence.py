"""Local-unitary equivalence screening.

The screen computes an invariant fingerprint of each state and compares
the two fingerprints within tolerance. The Gram spectrum of every
pure-state decomposition of a state is its nonzero spectrum, so at
numerical full rank F is read from ``DensityMatrix.spectrum``, the
eigenvalues that validation computed, and no decomposition is built.
Below full rank the fingerprint is read from the eigenvector
decomposition, which ``states.eigen_decomposition`` reads from a
diagonally pivoted Cholesky factor: rho = L L^dag + E with r' >= rank
columns in O(n^2 r') work, stopped once the largest remaining diagonal
entry is at most tau (1e-12 max diag(rho) / n, never below n eps
max diag(rho), whatever the ``rank_tol``), so tr E <= n tau, and then
rotated by the eigenvectors of the r' x r' Gram matrix L^dag L. The
eigenvalues of that Gram matrix that decide the rank are the
decomposition's Gram spectrum, so F and the Gram trace check read them,
and at rank 2 the hypermatrix entries are read to Python once for N, M
and the lambda polynomials. Any two decompositions of equal length
differ by a unitary mixing, which only conjugates the Gram matrix, so
all give the same invariants, and no eigen-solve of the n x n state runs
on either path.

Every invariant here is a necessary condition for local unitary
equivalence, so the verdict is one-sided: ``NotEquivalent`` with a named
witness when some invariant differs, ``Inconclusive`` otherwise. There
is deliberately no ``Equivalent`` verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .errors import BadToleranceError, DimensionMismatchError, NotUnitTraceError
from .invariants import (
    Hypermatrix,
    InvariantVector,
    f_invariants,
    gram_matrix,
    hypermatrix,
    invariant_N,
    lambda_poly,
    realignment_kyfan,
)
from .linalg import EPS
from .states import (
    DensityMatrix,
    PureStateDecomposition,
    eigen_decomposition,
    merge_cut,
)


@dataclass(frozen=True)
class ScreenConfig:
    """Tolerances and the bipartition for fingerprinting and comparison.

    A check fails when |delta| > atol + rtol * max(|a|, |b|). ``rank_tol``
    of None means the scale-aware default (1e-10 times the largest
    eigenvalue). ``cut`` selects the bipartition for states with more than
    two subsystems. Fingerprints are deterministic, so there is no seed.
    ``atol``, ``rtol`` and a given ``rank_tol`` must be finite and >= 0,
    else :class:`BadToleranceError`: a negative or NaN tolerance would
    fail every check, even of a state against itself.
    """

    atol: float = 1e-8
    rtol: float = 1e-8
    rank_tol: float | None = None
    cut: int = 1

    def __post_init__(self) -> None:
        tols = {"atol": self.atol, "rtol": self.rtol, "rank_tol": self.rank_tol or 0.0}
        for name, value in tols.items():
            if not (math.isfinite(value) and value >= 0.0):
                raise BadToleranceError(f"{name} must be finite and >= 0, got {value!r}")


_DEFAULT_CONFIG = ScreenConfig()


@dataclass(frozen=True)
class Fingerprint:
    """All implemented invariants of one state.

    ``N_value``, ``M_value`` and the matching lambda coefficient arrays are
    present only when the state has rank 2 (the format the degree-4
    invariants are defined for). ``lambda_coeffs`` maps an invariant name
    to ascending polynomial coefficients at the fixed length of its
    format, trailing zeros included: rank + 1 for ``"det"``, 5 for
    ``"N"`` and 2 for ``"M"``. All of them are reported. Only the
    coefficients that repeat no other value are compared: not ``"det"``
    (the signed, reversed F), not ``lambda_N[0]`` (N) or ``lambda_N[4]``
    (the monic leading 1), and not ``lambda_M[0]`` (M).
    """

    dims: tuple[int, ...]
    rank: int
    F: np.ndarray
    kyfan: float
    N_value: complex | None = None
    M_value: complex | None = None
    lambda_coeffs: dict = field(default_factory=dict)


class Check(NamedTuple):
    """One compared quantity of a pair: its name, the value of each state,
    |value_a - value_b| as ``delta``, whether it passed, and whether delta
    lies within a factor 10 of the threshold on either side
    (``marginal``, informational only)."""

    name: str
    value_a: complex
    value_b: complex
    delta: float
    passed: bool
    marginal: bool


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of screening one pair of states.

    ``verdict`` is NotEquivalent exactly when at least one check failed;
    ``witness`` names the first failing check in the fixed evaluation
    order (rank, F_i, N, M, kyfan, lambda_N[1..3], lambda_M[1]); the
    lambda checks cover only the coefficients that are not N, M or the
    constant 1.
    """

    verdict: str
    witness: str | None
    witness_values: tuple | None
    checks: tuple[Check, ...]


def decomposition_fingerprint(d: PureStateDecomposition, rho: DensityMatrix) -> Fingerprint:
    """The fingerprint of ``rho`` read from ``d``, any pure-state
    decomposition of it, with rank the length of ``d``.

    F and the Gram trace are read from ``d.gram_spectrum``, which an
    eigen decomposition already holds. F and, at rank 2, the hypermatrix
    are each built once. M is the constant term of ``lambda_M``. Ky Fan is
    read from ``rho`` across the bipartition that d's (n, m) shape names.
    That shape is checked against ``rho`` (:class:`DimensionMismatchError`),
    and so is the Gram trace, counting the mass of rho's eigenvalues below
    its top len(d) that a rank rule dropped (:func:`_require_unit_mass`).
    """
    bip = rho
    if (d.n, d.m) != rho.dims:
        cuts = [(math.prod(rho.dims[:c]), math.prod(rho.dims[c:])) for c in range(1, len(rho.dims))]
        if (d.n, d.m) not in cuts:
            raise DimensionMismatchError(
                f"{d.n}x{d.m} coefficient matrices fit no bipartition of dims {rho.dims}"
            )
        bip = merge_cut(rho, cuts.index((d.n, d.m)) + 1)
    w = gram_matrix(d).spectrum
    _require_unit_mass(float(w.sum()), float(rho.spectrum[:-len(d)].sum()), rho.tol)
    f = f_invariants(w)
    return _fingerprint(rho, f, realignment_kyfan(bip), hypermatrix(d) if len(d) == 2 else None)


def _fingerprint(
    rho: DensityMatrix, f: InvariantVector, kyfan: float, h: Hypermatrix | None
) -> Fingerprint:
    """The fingerprint of rank len(f) - 1 from F, Ky Fan and, at rank 2,
    the 2x2x2x2 hypermatrix ``h``."""
    lambdas = {"det": lambda_poly(f, 1, "det")}
    n_value = m_value = None
    if h is not None:
        n_value = invariant_N(h)
        lambdas["N"] = lambda_poly(h, 2, "N")
        lambdas["M"] = lambda_poly(h, 2, "M")
        m_value = complex(lambdas["M"][0])
    return Fingerprint(
        dims=rho.dims, rank=len(f) - 1, F=f.F, kyfan=kyfan,
        N_value=n_value, M_value=m_value, lambda_coeffs=lambdas,
    )


def fingerprint(rho: DensityMatrix, cfg: ScreenConfig | None = None) -> Fingerprint:
    """The fingerprint of a state across ``cfg.cut``, deterministic.

    The Gram spectrum of every decomposition of rho is rho's nonzero
    spectrum, so at full rank F is read from ``rho.spectrum``, the
    eigenvalues validation computed, with no factorization, Gram matrix or
    eigen-solve. Full rank means the smallest eigenvalue exceeds both
    ``cfg.rank_tol`` (default as in ``states.numerical_rank``) and the
    noise floor n eps lambda_max, where the pivoted factor of
    ``eigen_decomposition`` stops too: an eigenvalue at the rounding level
    of rho is no evidence of rank, whatever the ``rank_tol``. That
    spectrum sums to the trace that validation checked at the state's own
    ``tol``, so no Gram trace check runs on it. Ky Fan is read from rho
    across ``cfg.cut``. Below full rank the fingerprint is read from the
    eigenvector decomposition, which has exactly rank(rho) members
    (:func:`decomposition_fingerprint`).
    """
    cfg = cfg or _DEFAULT_CONFIG
    w = rho.spectrum
    if _full_rank(w, cfg.rank_tol):
        kyfan = realignment_kyfan(merge_cut(rho, cfg.cut))
        return _fingerprint(rho, f_invariants(w), kyfan, None)
    d = eigen_decomposition(rho, rank_tol=cfg.rank_tol, cut=cfg.cut)
    return decomposition_fingerprint(d, rho)


GRAM_TOL = 1e-10


def _full_rank(w: np.ndarray, rank_tol: float | None) -> bool:
    """Whether every eigenvalue of the ascending ``w`` exceeds both
    ``rank_tol`` (default 1e-10 max(w), as in ``states.numerical_rank``)
    and the noise floor len(w) eps max(w); the smallest one decides."""
    low, top = float(w[0]), float(w[-1])
    return low > max(len(w) * EPS * top, 1e-10 * top if rank_tol is None else rank_tol)


def _require_unit_mass(kept: float, dropped: float, tol: float) -> None:
    """The Gram trace check: the Gram trace ``kept`` of a decomposition of
    a unit-trace state, plus the mass ``dropped`` of the state's eigenvalues
    it leaves out, is 1 within ``GRAM_TOL``, or within the state's own
    validation tolerance ``tol`` when that is looser, since validation
    accepted its trace at ``tol`` (else :class:`NotUnitTraceError`)."""
    if abs(kept + dropped - 1.0) > max(GRAM_TOL, tol):
        raise NotUnitTraceError(f"NotUnitTrace: Gram trace {kept!r} plus dropped mass "
                                f"{dropped:.3e} differs from 1 by {abs(kept + dropped - 1.0):.3e}")


# Compared lambda coefficients: indices 1 up to, not including, the stop.
# lambda_N[0] is N and lambda_M[0] is M, both checked as invariant_N/M,
# and lambda_N[4] is the monic leading 1.
_LAMBDA_CHECKED = (("N", 4), ("M", 2))


@functools.lru_cache(maxsize=32)
def _f_names(top: int) -> tuple[str, ...]:
    return tuple(f"F_{i}" for i in range(1, top))


def _compared_values(fa: Fingerprint, fb: Fingerprint) -> tuple[list, list, list]:
    """The names and the two sides' values, as Python scalars, of every
    check after ``rank``, in the fixed order.

    F_i beyond a state's own rank is an elementary symmetric polynomial
    with more factors than nonzero eigenvalues, hence exactly zero, so the
    shorter F is padded with zeros."""
    top = max(len(fa.F), len(fb.F))
    names = [*_f_names(top)]
    va = fa.F[1:].tolist() + [0j] * (top - len(fa.F))
    vb = fb.F[1:].tolist() + [0j] * (top - len(fb.F))
    if fa.N_value is not None and fb.N_value is not None:
        names.append("invariant_N")
        va.append(complex(fa.N_value))
        vb.append(complex(fb.N_value))
    if fa.M_value is not None and fb.M_value is not None:
        names.append("invariant_M")
        va.append(complex(fa.M_value))
        vb.append(complex(fb.M_value))
    names.append("kyfan")
    va.append(complex(fa.kyfan))
    vb.append(complex(fb.kyfan))
    for key, stop in _LAMBDA_CHECKED:
        if key in fa.lambda_coeffs and key in fb.lambda_coeffs:
            names += [f"lambda_{key}[{k}]" for k in range(1, stop)]
            va += fa.lambda_coeffs[key][1:stop].tolist()
            vb += fb.lambda_coeffs[key][1:stop].tolist()
    return names, va, vb


def compare_fingerprints(
    fa: Fingerprint, fb: Fingerprint, cfg: ScreenConfig | None = None
) -> EquivalenceReport:
    """Compare two fingerprints check by check, in the fixed order.

    The rank check passes on equal ranks. Every other check fails when
    |delta| > atol + rtol * max(|a|, |b|), and is marginal when delta lies
    above a tenth and at most ten times that threshold."""
    cfg = cfg or _DEFAULT_CONFIG
    atol, rtol = cfg.atol, cfg.rtol
    delta = float(abs(fa.rank - fb.rank))
    checks = [Check("rank", complex(fa.rank), complex(fb.rank), delta, delta == 0.0, False)]
    for name, a, b in zip(*_compared_values(fa, fb)):
        delta = abs(a - b)
        threshold = atol + rtol * max(abs(a), abs(b))
        checks.append(Check(
            name, a, b, delta, delta <= threshold, 0.1 * threshold < delta <= 10.0 * threshold
        ))

    first = next((c for c in checks if not c.passed), None)
    if first is None:
        return EquivalenceReport("Inconclusive", None, None, tuple(checks))
    return EquivalenceReport(
        "NotEquivalent", first.name, (first.value_a, first.value_b, first.delta), tuple(checks)
    )


def screen_with_fingerprints(
    rho_a: DensityMatrix, rho_b: DensityMatrix, cfg: ScreenConfig | None = None
) -> tuple[EquivalenceReport, Fingerprint | None, Fingerprint | None]:
    """Screen a pair; return the report and both fingerprints, or ``None,
    None`` when the dimension signatures differ. That report's one check
    holds the entries at the first position where the signatures differ,
    a missing subsystem reading as 0."""
    cfg = cfg or _DEFAULT_CONFIG
    if rho_a.dims != rho_b.dims:
        a, b = next(
            (x, y) for x, y in zip_longest(rho_a.dims, rho_b.dims, fillvalue=0) if x != y
        )
        check = Check("dimension signature", complex(a), complex(b), math.inf, False, False)
        report = EquivalenceReport(
            "NotEquivalent", check.name, (rho_a.dims, rho_b.dims, None), (check,)
        )
        return report, None, None
    fa = fingerprint(rho_a, cfg)
    fb = fingerprint(rho_b, cfg)
    return compare_fingerprints(fa, fb, cfg), fa, fb


def screen(
    rho_a: DensityMatrix, rho_b: DensityMatrix, cfg: ScreenConfig | None = None
) -> EquivalenceReport:
    """Screen a pair of states for local-unitary non-equivalence."""
    return screen_with_fingerprints(rho_a, rho_b, cfg)[0]
