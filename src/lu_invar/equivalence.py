"""Local-unitary equivalence screening.

The screen computes an invariant fingerprint of each state from one
pure-state decomposition of it and compares the two fingerprints within
tolerance. At numerical full rank that decomposition is the Cholesky
factor of the state, otherwise its eigenvector decomposition. Any two
decompositions of equal length differ by a unitary mixing, which only
conjugates the Gram matrix, so both give the same invariants; the
Cholesky factor saves the eigen-solve.

Every invariant here is a necessary condition for local unitary
equivalence, so the verdict is one-sided: ``NotEquivalent`` with a named
witness when some invariant differs, ``Inconclusive`` otherwise. There
is deliberately no ``Equivalent`` verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .errors import BadToleranceError, DimensionMismatchError
from .invariants import (
    GramMatrix,
    f_invariants,
    gram_matrix,
    hypermatrix,
    invariant_N,
    lambda_poly,
    realignment_kyfan,
)
from .states import (
    DensityMatrix,
    PureStateDecomposition,
    cholesky_decomposition,
    eigen_decomposition,
    hermitian_matrix,
    merge_cut,
    numerical_rank,
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


@dataclass(frozen=True)
class Check:
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


def decomposition_fingerprint(
    d: PureStateDecomposition, rho: DensityMatrix, gram: GramMatrix | None = None
) -> Fingerprint:
    """The fingerprint of ``rho`` read from ``d``, any pure-state
    decomposition of it, with rank the length of ``d``.

    The Gram matrix, F and, at rank 2, the s=2 hypermatrix are each built
    once; ``gram``, when given, is ``gram_matrix(d)`` built already. M is
    the constant term of ``lambda_M``. Ky Fan is read from ``rho`` across
    the bipartition that d's (n, m) shape names. Only that shape is
    checked against ``rho`` (:class:`DimensionMismatchError`).
    """
    bip = rho
    if (d.n, d.m) != rho.dims:
        cuts = [(math.prod(rho.dims[:c]), math.prod(rho.dims[c:])) for c in range(1, len(rho.dims))]
        if (d.n, d.m) not in cuts:
            raise DimensionMismatchError(
                f"{d.n}x{d.m} coefficient matrices fit no bipartition of dims {rho.dims}"
            )
        bip = merge_cut(rho, cuts.index((d.n, d.m)) + 1)
    rank = len(d)
    f = f_invariants(gram_matrix(d) if gram is None else gram)
    kyfan = realignment_kyfan(bip)
    lambdas = {"det": lambda_poly(f, 1, "det").coeffs}
    n_value = m_value = None
    if rank == 2:
        h = hypermatrix(d, 2)
        n_value = invariant_N(h)
        lambdas["N"] = lambda_poly(h, 2, "N").coeffs
        lambdas["M"] = lambda_poly(h, 2, "M").coeffs
        m_value = complex(lambdas["M"][0])
    return Fingerprint(
        dims=rho.dims, rank=rank, F=f.F, kyfan=kyfan,
        N_value=n_value, M_value=m_value, lambda_coeffs=lambdas,
    )


def fingerprint(rho: DensityMatrix, cfg: ScreenConfig | None = None) -> Fingerprint:
    """The fingerprint of a state across ``cfg.cut``, deterministic.

    It first tries the Cholesky factor, rho = L L^dag with member i column
    i of L. When that succeeds and the Gram spectrum of those members
    shows full rank (by ``states.numerical_rank`` at ``cfg.rank_tol``),
    the fingerprint is read from them and that Gram matrix, with no
    eigen-solve. Otherwise it is read from the eigenvector decomposition,
    which has exactly rank(rho) members. Both are decompositions of rho of
    length rank(rho); they differ by a unitary mixing, which conjugates
    the Gram matrix and leaves every invariant unchanged. A longer
    decomposition would only pad the Gram spectrum with zeros.
    """
    cfg = cfg or ScreenConfig()
    herm = hermitian_matrix(rho)
    d = cholesky_decomposition(rho, cfg.cut, hermitian=herm)
    if d is not None:
        g = gram_matrix(d)
        if numerical_rank(g.spectrum, cfg.rank_tol) == len(d):
            return decomposition_fingerprint(d, rho, g)
    d = eigen_decomposition(rho, rank_tol=cfg.rank_tol, cut=cfg.cut, hermitian=herm)
    return decomposition_fingerprint(d, rho)


def _make_check(name: str, a: complex, b: complex, atol: float, rtol: float) -> Check:
    a = complex(a)
    b = complex(b)
    delta = abs(a - b)
    threshold = atol + rtol * max(abs(a), abs(b))
    passed = delta <= threshold
    # near-threshold on either side; informational only
    marginal = 0.1 * threshold < delta <= 10.0 * threshold
    return Check(name=name, value_a=a, value_b=b, delta=delta, passed=passed, marginal=marginal)


# Compared lambda coefficients: indices 1 up to, not including, the stop.
# lambda_N[0] is N and lambda_M[0] is M, both checked as invariant_N/M,
# and lambda_N[4] is the monic leading 1.
_LAMBDA_CHECKED = (("N", 4), ("M", 2))


def compare_fingerprints(
    fa: Fingerprint, fb: Fingerprint, cfg: ScreenConfig | None = None
) -> EquivalenceReport:
    """Compare two fingerprints check by check, in the fixed order."""
    cfg = cfg or ScreenConfig()
    atol, rtol = cfg.atol, cfg.rtol
    delta = float(abs(fa.rank - fb.rank))
    checks = [Check("rank", complex(fa.rank), complex(fb.rank), delta, delta == 0.0, False)]

    # F_i beyond a state's own rank is an elementary symmetric polynomial
    # with more factors than nonzero eigenvalues, hence exactly zero.
    top = max(len(fa.F), len(fb.F))
    for i in range(1, top):
        a = fa.F[i] if i < len(fa.F) else 0.0
        b = fb.F[i] if i < len(fb.F) else 0.0
        checks.append(_make_check(f"F_{i}", a, b, atol, rtol))

    if fa.N_value is not None and fb.N_value is not None:
        checks.append(_make_check("invariant_N", fa.N_value, fb.N_value, atol, rtol))
    if fa.M_value is not None and fb.M_value is not None:
        checks.append(_make_check("invariant_M", fa.M_value, fb.M_value, atol, rtol))

    checks.append(_make_check("kyfan", fa.kyfan, fb.kyfan, atol, rtol))

    for key, stop in _LAMBDA_CHECKED:
        if key in fa.lambda_coeffs and key in fb.lambda_coeffs:
            ca, cb = fa.lambda_coeffs[key], fb.lambda_coeffs[key]
            for k in range(1, stop):
                checks.append(_make_check(f"lambda_{key}[{k}]", ca[k], cb[k], atol, rtol))

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
    cfg = cfg or ScreenConfig()
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


def witness_search_hint(
    rho_a: DensityMatrix, rho_b: DensityMatrix, cfg: ScreenConfig | None = None
) -> list[tuple[str, float]]:
    """Invariants ranked by how strongly they separate the pair.

    Returns (name, |delta|) tuples, failing checks before passing ones,
    each group sorted by relative difference |delta| / max(|a|, |b|),
    largest first; ties keep the fixed check order.
    """
    cfg = cfg or ScreenConfig()
    report = screen(rho_a, rho_b, cfg)

    def relative(c: Check) -> float:
        scale = max(abs(c.value_a), abs(c.value_b))
        if scale == 0.0:
            return 0.0
        return c.delta / scale

    # stable sort: ties keep the fixed check order
    ordered = sorted(report.checks, key=lambda c: (c.passed, -relative(c)))
    return [(c.name, c.delta) for c in ordered]
