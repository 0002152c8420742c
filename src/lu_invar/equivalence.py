"""Local-unitary equivalence screening.

The screen computes an invariant fingerprint of each state, with an
absolute error bound for each compared value, and compares the two
fingerprints value by value: a check fails only when the values differ
by more than the sum of their bounds. The bipartition is resolved once,
by ``states.merge_cut`` of the state across ``cut``: Ky Fan is read
from that view of rho, and at rank 2 so is the decomposition. The rank
is decided once, on the eigenvalues validation computed, whose nonzero
part is the Gram spectrum of every decomposition, so the reported
spectrum and F are read from them at every rank. Only the rank-2
degree-4 invariants (N, M and their lambda polynomials) read a
decomposition: the eigenvector decomposition that
``states.eigen_decomposition`` reads from the eigenvectors a small
state's validation kept and from a pivoted Cholesky factor of a larger
one.
Any two decompositions of equal length differ by a unitary mixing,
which only conjugates the Gram matrix, so all give the same invariants.

Every invariant here is a necessary condition for local unitary
equivalence, so the verdict is one-sided: ``NotEquivalent`` with a named
witness when some invariant differs, ``Inconclusive`` otherwise. There
is deliberately no ``Equivalent`` verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .errors import BadToleranceError, DimensionMismatchError, NotUnitTraceError
from .invariants import (
    f_invariants,
    gram_matrix,
    hypermatrix,
    invariant_N,
    lambda_poly,
    realignment_kyfan,
)
from .linalg import EPS
from .states import (
    DENSITY_TOL,
    DensityMatrix,
    PureStateDecomposition,
    eigen_decomposition,
    merge_cut,
    numerical_rank,
)


@dataclass(frozen=True)
class ScreenConfig:
    """The rank threshold and the bipartition for fingerprinting.

    ``rank_tol`` of None means the scale-aware default (1e-10 times the
    largest eigenvalue); a given one must be finite and >= 0, else
    :class:`BadToleranceError`. ``cut`` selects the bipartition for states
    with more than two subsystems. There is no seed, as fingerprints are
    deterministic, and no comparison tolerance: each check's threshold
    follows from the fingerprints (:func:`compare_fingerprints`).
    """

    rank_tol: float | None = None
    cut: int = 1

    def __post_init__(self) -> None:
        value = self.rank_tol or 0.0
        if not (math.isfinite(value) and value >= 0.0):
            raise BadToleranceError(f"rank_tol must be finite and >= 0, got {value!r}")


_DEFAULT_CONFIG = ScreenConfig()


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """All implemented invariants of one state, with what its error bounds
    need beyond rounding. :func:`_rows` reads the compared quantities and
    their bounds from these fields, and is the one place that sets the
    check order.

    ``spectrum`` holds the descending eigenvalues that F is built from,
    and ``rank`` is their number: rho's top ``rank`` eigenvalues, or the
    Gram spectrum of a decomposition the caller built
    (:func:`decomposition_fingerprint`). ``deviation`` is 0 unless a
    decomposition was read (rank 2, and that function): then it is the
    distance of the decomposition's Gram spectrum from rho's top
    eigenvalues plus rho's negative mass (:func:`_fingerprint`), which
    bounds the error of that spectrum and of the degree-4 invariants read
    from the decomposition. ``dropped`` is the largest eigenvalue of rho
    that the rank rule dropped (0 at full rank). ``kyfan`` is the
    realignment Ky Fan norm of rho across the cut, read from rho itself,
    so a fingerprint read from a decomposition the caller built has None.

    ``N_value``, ``M_value`` and the matching lambda coefficient arrays are
    present only when the decomposition read has two members (the format
    the degree-4 invariants are defined for): at rank 2. ``lambda_coeffs``
    maps an invariant name to ascending polynomial coefficients at the
    fixed length of its format, trailing zeros included: rank + 1 for
    ``"det"``, 5 for ``"N"`` and 2 for ``"M"``. All of them are
    reported. Only those that repeat no other value are compared: not
    ``"det"`` (the signed, reversed F), not ``lambda_N[0]`` (N) or
    ``lambda_N[4]`` (the monic leading 1), and not ``lambda_M[0]`` (M).
    Nor are F and the rank.
    """

    dims: tuple[int, ...]
    F: np.ndarray
    spectrum: np.ndarray
    kyfan: float | None
    deviation: float
    dropped: float
    N_value: complex | None = None
    M_value: complex | None = None
    lambda_coeffs: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.spectrum)


class Check(NamedTuple):
    """One compared quantity of a pair: its name, the value of each state,
    |value_a - value_b| as ``delta``, whether it passed (delta <= threshold)
    and its ``threshold``, the check's weight times the sum of the two
    fingerprints' error bounds (:func:`_rows`)."""

    name: str
    value_a: complex
    value_b: complex
    delta: float
    passed: bool
    threshold: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of screening one pair of states.

    ``verdict`` is NotEquivalent exactly when at least one check failed;
    ``witness`` names the first failing check in the fixed order that
    :func:`_rows` sets, over the quantities both fingerprints have.
    """

    verdict: str
    witness: str | None
    witness_values: tuple | None
    checks: tuple[Check, ...]


def decomposition_fingerprint(d: PureStateDecomposition, rho: DensityMatrix) -> Fingerprint:
    """The fingerprint of ``rho`` read from ``d``, any pure-state
    decomposition of it, with rank the length of ``d``, for ``lu-invar
    mix`` and the library: :func:`fingerprint` reads F from rho itself.

    F is read from ``d``'s Gram spectrum, which an eigen decomposition
    already holds, and at rank 2 the degree-4 invariants from d's
    hypermatrix, built once; M is the constant term of ``lambda_M``. Ky
    Fan is a value of rho, not of a decomposition, so ``kyfan`` is None
    here and a comparison with this fingerprint has no Ky Fan check. d's
    (n, m) shape must name a bipartition of ``rho``
    (:class:`DimensionMismatchError`). As d comes from the caller, its
    Gram trace is checked, counting the mass of rho's eigenvalues below
    its top len(d) that a rank rule dropped (:func:`_require_unit_mass`).
    """
    if (d.n, d.m) not in [merge_cut(rho, c).dims for c in range(1, len(rho.dims))]:
        raise DimensionMismatchError(
            f"{d.n}x{d.m} coefficient matrices fit no bipartition of dims {rho.dims}"
        )
    w = gram_matrix(d).spectrum
    _require_unit_mass(rho, w)
    return _fingerprint(rho, w, None, d)


def _fingerprint(
    rho: DensityMatrix, w: np.ndarray, kyfan: float | None, d: PureStateDecomposition | None
) -> Fingerprint:
    """The fingerprint of rank r = len(w) from the ascending kept spectrum
    ``w`` and Ky Fan (or None). Given a decomposition ``d`` of rho, the
    degree-4 invariants are read from its hypermatrix when len(d) is 2,
    and the ``deviation`` is measured: sum_k |g_k - lambda_k| between d's
    descending Gram spectrum g and rho's top len(d) eigenvalues, plus
    rho's negative mass. With rho = L L^dag + E, E the residual of the
    pivoted factor that reads the members of a larger state, a negative
    eigenvalue of rho (validation accepts them down to -DENSITY_TOL)
    leaves one in E, which lifts g above rho's spectrum by a
    basis-dependent amount and turns its eigenvectors: the sum shows the
    lift, the negative mass stands in for the turn. Both sums run on
    Python floats, in descending order, the second only when rho has a
    negative eigenvalue. ``dropped`` is read from rho's spectrum by
    ``.item()``."""
    f = f_invariants(w)
    lambdas = {"det": lambda_poly(f, inv="det")}
    n_value = m_value = None
    deviation = 0.0
    if d is not None:
        lam = rho.spectrum.tolist()[::-1]
        kept = gram_matrix(d).spectrum.tolist()[::-1]
        deviation = sum([abs(a - b) for a, b in zip_longest(kept, lam[:len(kept)], fillvalue=0.0)])
        if lam[-1] < 0.0:  # rho's negative mass, summed in the same order
            deviation -= sum(x for x in lam if x < 0.0)
        if len(d) == 2:
            h = hypermatrix(d)
            n_value = invariant_N(h)
            lambdas["N"] = lambda_poly(h, inv="N")
            lambdas["M"] = lambda_poly(h, inv="M")
            m_value = complex(lambdas["M"][0])
    dropped = max(rho.spectrum.item(-len(w) - 1) if len(w) < len(rho.spectrum) else 0.0, 0.0)
    return Fingerprint(
        dims=rho.dims, F=f, spectrum=w[::-1], kyfan=kyfan,
        deviation=deviation, dropped=dropped,
        N_value=n_value, M_value=m_value, lambda_coeffs=lambdas,
    )


def fingerprint(rho: DensityMatrix, cfg: ScreenConfig | None = None) -> Fingerprint:
    """The fingerprint of a state across ``cfg.cut``, deterministic.

    The rank is decided once, by ``states.numerical_rank`` on
    ``rho.spectrum``, and the bipartition once, by ``merge_cut(rho,
    cfg.cut)``, whose Ky Fan norm is read at every rank. At every rank,
    F and the spectrum are the top ``rank`` eigenvalues of rho, the
    nonzero spectrum of every decomposition's Gram matrix, and no Gram
    trace check runs (they sum to the trace validation checked). Only
    the rank-2 degree-4 invariants need coefficient matrices: those of
    the eigenvector decomposition of the bipartite view, whose
    ``deviation`` from rho's spectrum their error bounds count.
    """
    cfg = cfg or _DEFAULT_CONFIG
    w = rho.spectrum
    rank = numerical_rank(w, cfg.rank_tol)
    bip = merge_cut(rho, cfg.cut)
    d = eigen_decomposition(bip, rank) if rank == 2 else None
    return _fingerprint(rho, w[-rank:], realignment_kyfan(bip), d)


def _require_unit_mass(rho: DensityMatrix, w: np.ndarray) -> None:
    """The Gram trace check of a decomposition of ``rho`` with ascending
    Gram spectrum ``w``: its trace, plus the mass of rho's eigenvalues
    below its top len(w) that a rank rule dropped, is 1 within
    ``states.DENSITY_TOL`` plus n r times rho's negative mass (else
    :class:`NotUnitTraceError`). That mass lifts the trace of r pivoted
    columns by 1 + ||L11^-1 L21^dag||^2 times itself, at most n at r = 1
    and below 1.4 n in sweeps of ranks 1 to 4 (Higham's worst case: 4^r)."""
    lam = rho.spectrum.tolist()[::-1]
    kept, dropped = sum(w.tolist()[::-1]), sum(lam[len(w):])
    tol = DENSITY_TOL - len(lam) * len(w) * sum(x for x in lam if x < 0.0)
    if abs(kept + dropped - 1.0) > tol:
        raise NotUnitTraceError(f"NotUnitTrace: Gram trace {kept!r} plus dropped mass "
                                f"{dropped:.3e} differs from 1 by {abs(kept + dropped - 1.0):.3e}")


# c in the rounding bound c N eps (see _rows)
ROUNDING_C = 16.0


class _SpectrumLabels(dict):
    """The (name, weight) of spectrum check k, made once on first use: a
    spectrum is as long as its state's rank, or a padded decomposition."""

    def __missing__(self, k: int) -> tuple[str, float]:
        return self.setdefault(k, (f"spectrum[{k + 1}]", 1.0))


# The (name, weight) of each check of a compared quantity, by index. A
# degree-4 value is a sum of +-1 products of hypermatrix entries, so it
# moves by at most terms x degree times their bound, its weight: N and M
# (4x4 determinants) 24 x 4; lambda_N[1] and lambda_M[1] (four 3x3
# minors) 24 x 3; lambda_N[2] (six 2x2 minors) 12 x 2; lambda_N[3] (a
# trace) 4 x 1.
_SPECTRUM = _SpectrumLabels()
_N, _M, _KYFAN = (("invariant_N", 96.0),), (("invariant_M", 96.0),), (("kyfan", 1.0),)
_LAMBDA_N = (("lambda_N[1]", 72.0), ("lambda_N[2]", 24.0), ("lambda_N[3]", 4.0))
_LAMBDA_M = (("lambda_M[1]", 72.0),)


def _rows(fp: Fingerprint) -> dict:
    """The compared quantities of one fingerprint, each one it has, in the
    fixed check order (spectrum, N, M, kyfan, lambda_N, lambda_M):
    ``key -> (labels, values, bound, pad)``. ``labels[k]`` is the name
    and weight of check k, ``bound`` the absolute error bound of each of
    ``values`` and ``pad`` that of an entry past their end, compared as
    zero. Only ``lambda_N[1..3]`` and ``lambda_M[1]`` are compared (see
    :class:`Fingerprint`). Each bound follows from the value's own
    numerical error, with rounding = c N eps (``ROUNDING_C``, N =
    prod(dims)), noise = rounding lambda_1 and lambda_1 >= ... >=
    lambda_r > lambda_(r+1) the spectrum.
    """
    rounding = ROUNDING_C * math.prod(fp.dims) * EPS
    spectrum = fp.spectrum.tolist()
    noise = rounding * spectrum[0]
    # A kept eigenvalue: noise plus the deviation, that of a Gram spectrum
    # from rho's (decomposition_fingerprint; at rank 2 in fingerprint,
    # where the spectrum is rho's own, it only widens the bound). A
    # backward-stable Hermitian eigen-solve returns the eigenvalues of
    # rho + E with ||E|| at most p(N) eps ||rho||, p(N) a modestly growing
    # function of N, and each eigenvalue then moves by at most ||E|| (Weyl;
    # Demmel, Applied Numerical Linear Algebra, section 5.2). The LAPACK
    # Users' Guide (section 4.7) takes p(N) = 1 in its error bounds; c N is
    # that times 16N. A dropped eigenvalue, compared as zero:
    # lambda_(r+1) plus noise.
    rows = {"spectrum": (_SPECTRUM, spectrum, noise + fp.deviation, fp.dropped + noise)}
    # A hypermatrix entry: rounding + deviation + noise lambda_r / gap. The
    # solve turns the kept eigenvectors toward the dropped ones by up to
    # noise / gap, gap = lambda_r - lambda_(r+1) >= noise (Davis-Kahan),
    # which moves the kept state by noise lambda_r / gap. Every entry has
    # modulus at most (tr rho)^2 = 1, so a product of k entries moves by at
    # most k times the bound, to first order (the weights above).
    low = max(spectrum[-1], 0.0)
    entry = rounding + fp.deviation + noise * low / max(low - fp.dropped, noise)
    if fp.N_value is not None:
        rows["N"] = (_N, (fp.N_value,), entry, entry)
    if fp.M_value is not None:
        rows["M"] = (_M, (fp.M_value,), entry, entry)
    # Ky Fan, a sum of singular values from a backward-stable SVD
    if fp.kyfan is not None:
        kyfan = rounding * max(fp.kyfan, 1.0)
        rows["kyfan"] = (_KYFAN, (fp.kyfan,), kyfan, kyfan)
    if "N" in fp.lambda_coeffs:
        rows["lambda_N"] = (_LAMBDA_N, fp.lambda_coeffs["N"].tolist()[1:4], entry, entry)
    if "M" in fp.lambda_coeffs:
        rows["lambda_M"] = (_LAMBDA_M, fp.lambda_coeffs["M"].tolist()[1:2], entry, entry)
    return rows


def compare_fingerprints(fa: Fingerprint, fb: Fingerprint) -> EquivalenceReport:
    """Compare two fingerprints check by check, in the fixed order of
    :func:`_rows`, over the quantities both have.

    A check fails exactly when |a - b| exceeds its threshold, its weight
    times the sum of the two fingerprints' error bounds for that value,
    so no difference that rounding can explain fails one. A row of equal
    length on both sides is compared by a loop with no padding branch.
    Otherwise, past the end of the shorter side, an entry is compared as
    zero within that side's ``pad`` bound: the shorter spectrum is padded
    with zeros, and the rank is not compared. When one side keeps an
    eigenvalue x that the other drops as x', x' is at most the dropped
    side's bound, and x exceeds x' by more than the two bounds only if
    the states' spectra differ."""
    rows_b = _rows(fb)
    make = Check._make
    checks = []
    for key, (labels, va, bound_a, pad_a) in _rows(fa).items():
        if key not in rows_b:
            continue
        _, vb, bound_b, pad_b = rows_b[key]
        na, nb = len(va), len(vb)
        if na == nb:  # no entry past the end of either side
            bound = bound_a + bound_b
            for k in range(na):
                name, weight = labels[k]
                a, b = va[k], vb[k]
                threshold = weight * bound
                delta = abs(a - b)
                checks.append(make((name, a, b, delta, delta <= threshold, threshold)))
            continue
        for k in range(max(na, nb)):
            name, weight = labels[k]
            a, ta = (va[k], bound_a) if k < na else (0.0, pad_a)
            b, tb = (vb[k], bound_b) if k < nb else (0.0, pad_b)
            threshold = weight * (ta + tb)
            delta = abs(a - b)
            checks.append(make((name, a, b, delta, delta <= threshold, threshold)))

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
        check = Check("dimension signature", complex(a), complex(b), math.inf, False, 0.0)
        report = EquivalenceReport(
            "NotEquivalent", check.name, (rho_a.dims, rho_b.dims, None), (check,)
        )
        return report, None, None
    fa = fingerprint(rho_a, cfg)
    fb = fingerprint(rho_b, cfg)
    return compare_fingerprints(fa, fb), fa, fb


def screen(
    rho_a: DensityMatrix, rho_b: DensityMatrix, cfg: ScreenConfig | None = None
) -> EquivalenceReport:
    """Screen a pair of states for local-unitary non-equivalence."""
    return screen_with_fingerprints(rho_a, rho_b, cfg)[0]
