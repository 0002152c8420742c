"""Property test of the eigenvector decomposition, read by each of its
two solvers, one eigh of the state and the pivoted Cholesky factor,
across the accepted grid of dims and ranks, against a
full eigen-solve of the state (``oracles.eigh_decomposition_stack``),
and of the screen of a state against a locally rotated copy at the
default and at a zero ``rank_tol``, on near-degenerate spectra, with an
eigenvalue within rounding of the default ``rank_tol``, and at rank 2
with a second eigenvalue just above it and a dropped tail or a dropped
third eigenvalue just below it, and with a negative eigenvalue that
validation accepts."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lu_invar.states
from lu_invar.equivalence import (
    ScreenConfig,
    compare_fingerprints,
    decomposition_fingerprint,
    fingerprint,
    screen,
    screen_with_fingerprints,
)
from lu_invar.invariants import gram_matrix
from lu_invar.linalg import haar_unitary
from lu_invar.states import (
    DENSITY_TOL,
    apply_local_unitary_density,
    eigen_decomposition,
    make_decomposition,
    mix_decomposition,
    random_density,
    random_local_unitaries,
    validate_density,
)
from oracles import eigh_decomposition_stack, reconstruct

GRID = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4), (8, 8))
CASES = [
    (dims, rank)
    for dims in GRID
    for rank in sorted({1, 2, math.prod(dims) // 2, math.prod(dims) - 1, math.prod(dims)})
]
over_grid = pytest.mark.parametrize("dims, rank", CASES, ids=[f"{d}-rank{r}" for d, r in CASES])
LOW = [(dims, rank) for dims, rank in CASES if rank < math.prod(dims)]
below_full_rank = pytest.mark.parametrize("dims, rank", LOW, ids=[f"{d}-rank{r}" for d, r in LOW])
# ranks 2, n/2 and n - 1: at least two kept eigenvalues, at least one dropped
DEGENERATE = [(dims, rank) for dims, rank in LOW if rank > 1]
by_each_solver = pytest.mark.parametrize("solver", ["eigh", "factor"])


def solved_by(solver):
    """Decompose by one solver whatever the state's size: the eigenvectors
    of rho's one eigh, or the pivoted factor. It patches
    ``states.EIGH_MAX_N``, which validation reads, inside the test, as
    Hypothesis rejects the function-scoped ``solver`` fixture of
    ``conftest.py``: the states must be validated under it."""
    return mock.patch.object(lu_invar.states, "EIGH_MAX_N", 10**9 if solver == "eigh" else 0)


def haar_basis_state(w, dims, rng):
    """diag(w / sum(w)) in a Haar-random basis drawn from ``rng``."""
    u = haar_unitary(math.prod(dims), rng)
    return validate_density((u * (w / w.sum())) @ u.conj().T, dims)


def rotated_copy(rho, rng):
    """rho under one Haar-random local unitary per subsystem, from ``rng``."""
    return apply_local_unitary_density(rho, [haar_unitary(d, rng) for d in rho.dims])


# the largest share of its rounding allowance that a rotated copy may use
# on any check: half, so that an erosion of the rounding bounds' margin
# fails a test before it makes a false NotEquivalent
MARGIN = 0.5


def screen_margin(rho, copy):
    """The report of ``rho`` against ``copy`` and the largest share of a
    threshold's rounding part that any check uses: (delta - measured) /
    rounding, where the measured part of a threshold is what the two
    fingerprints' deviations add to it. Left out are the spectrum entries
    where one side keeps an eigenvalue and the other pads a zero: that
    zero's bound is the dropped eigenvalue itself, so such an entry sits
    near 1 by construction."""
    report, fa, fb = screen_with_fingerprints(rho, copy)
    rounding = compare_fingerprints(
        dataclasses.replace(fa, deviation=0.0), dataclasses.replace(fb, deviation=0.0)
    ).checks
    low, high = sorted((fa.rank, fb.rank))
    shares = [
        (c.delta - (c.threshold - r.threshold)) / r.threshold
        for k, (c, r) in enumerate(zip(report.checks, rounding))
        if not low <= k < high
    ]
    return report, max(shares)


def fingerprint_values(fp) -> np.ndarray:
    """Every number of a fingerprint but its rank and Ky Fan, which a
    decomposition fingerprint does not have, in one flat array."""
    values = [fp.F]
    values += [[fp.N_value, fp.M_value]] if fp.rank == 2 else []
    values += [fp.lambda_coeffs[key] for key in sorted(fp.lambda_coeffs)]
    return np.concatenate([np.asarray(v, dtype=complex) for v in values])


@by_each_solver
@over_grid
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_factor_decomposition_matches_eigh_oracle(dims, rank, seed, solver):
    with solved_by(solver):
        rho = random_density(dims, rank, seed=seed)
        d = eigen_decomposition(rho)
        oracle = make_decomposition(eigh_decomposition_stack(rho.mat, dims))
        assert len(d) == len(oracle) == rank

        gram = gram_matrix(d)
        w = np.sort(np.linalg.eigvalsh(rho.mat))[::-1][:rank]
        assert np.abs(gram.spectrum[::-1] - w).max() <= 1e-13
        assert np.abs(gram.omega - np.diag(gram.omega.diagonal())).max() <= 1e-13
        assert np.abs(reconstruct(d) - rho.mat).max() <= 1e-12

        want = fingerprint_values(decomposition_fingerprint(oracle, rho))
        for fp in (decomposition_fingerprint(d, rho), fingerprint(rho)):
            assert fp.rank == rank
            assert np.abs(fingerprint_values(fp) - want).max() <= 1e-13

        moved = apply_local_unitary_density(rho, random_local_unitaries(dims, seed=seed + 1))
        assert screen(rho, moved).verdict == "Inconclusive"


@by_each_solver
@below_full_rank
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_gram_spectrum_is_the_members_gram_spectrum(dims, rank, seed, solver):
    # the kept eigenvalues, which rank-2 fingerprints and lu-invar mix
    # read, stand in for an eigvalsh of the members' own Gram matrix
    # within a few n eps lambda_max, as either solver's members are
    # orthogonal only to rounding. Over random_density seeds 0-299 on
    # this grid the factor's reached 1.53 n eps lambda_max and an eigh's
    # 2.1, both at (2,3) rank 5: each is allowed about twice its worst.
    # A mixed copy of the decomposition computes its own and gives the
    # same fingerprint
    with solved_by(solver):
        rho = random_density(dims, rank, seed=seed)
        d = eigen_decomposition(rho)
        kept = d.gram_spectrum
        assert not kept.flags.writeable
        vecs = d.stack.reshape(len(d), -1)
        fresh = np.linalg.eigvalsh(vecs @ vecs.conj().T)
        n = math.prod(dims)
        slack = 4 if solver == "eigh" else 2
        assert np.abs(kept - fresh).max() <= slack * n * np.finfo(float).eps * fresh[-1]

        mixed = mix_decomposition(d, haar_unitary(len(d), seed=seed))
        want = decomposition_fingerprint(d, rho)
        got = decomposition_fingerprint(mixed, rho)
        assert np.abs(got.F - want.F).max() <= 1e-9
        assert np.abs(fingerprint_values(got) - fingerprint_values(want)).max() <= 1e-8


@by_each_solver
@over_grid
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rotated_copy_inconclusive_at_zero_rank_tol(dims, rank, seed, solver):
    # rank_tol=0 keeps every eigenvalue above the noise floor; the rounding
    # noise of a rotated copy must not read as extra rank
    with solved_by(solver):
        cfg = ScreenConfig(rank_tol=0.0)
        rho = random_density(dims, rank, seed=seed)
        moved = apply_local_unitary_density(rho, random_local_unitaries(dims, seed=seed + 1))
        report = screen(rho, moved, cfg)
        assert report.verdict == "Inconclusive", report.witness
        assert fingerprint(rho, cfg).rank == rank


@by_each_solver
@over_grid
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_near_threshold_decided_as_by_eigh_oracle(dims, rank, seed, solver):
    # in a Haar basis, before normalizing: the largest eigenvalue 1, the
    # next ones in [0.1, 1], the last kept one (rank > 1) 10x above the
    # default rank_tol of 1e-10 and the dropped ones 10x below it, so the
    # decomposition must neither stop before a kept eigenvalue nor keep a
    # dropped one
    with solved_by(solver):
        n = math.prod(dims)
        rng = np.random.default_rng(seed)
        w = np.full(n, 1e-11)
        w[:rank] = rng.uniform(0.1, 1.0, rank)
        w[0] = 1.0
        if rank > 1:
            w[rank - 1] = 1e-9
        rho = haar_basis_state(w, dims, rng)
        d = eigen_decomposition(rho)
        oracle = make_decomposition(eigh_decomposition_stack(rho.mat, dims))
        assert len(d) == len(oracle) == rank
        assert np.abs(reconstruct(d) - reconstruct(oracle)).max() <= 1e-12


@pytest.mark.parametrize("dims, rank", DEGENERATE, ids=[f"{d}-rank{r}" for d, r in DEGENERATE])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_near_degenerate_spectrum_rotated_copy_inconclusive(dims, rank, seed):
    # two kept eigenvalues equal within 1e-12 relative: the eigenvectors
    # of that pair are ill-determined, the invariants are not
    rng = np.random.default_rng(seed)
    w = np.zeros(math.prod(dims))
    w[:rank] = rng.uniform(0.1, 1.0, rank)
    w[1] = w[0] * (1.0 + rng.uniform(-1e-12, 1e-12))
    rho = haar_basis_state(w, dims, rng)
    assert fingerprint(rho).rank == rank
    report = screen(rho, rotated_copy(rho, rng))
    assert report.verdict == "Inconclusive", report.witness


@pytest.mark.parametrize("band", [1e-6, 1e-5, 1e-4, 1e-3])
def test_near_threshold_rotated_copies_never_not_equivalent(band):
    # (2,2) spectra with an eigenvalue x within +-band relative of the
    # default rank_tol, 1e-10 times the largest eigenvalue 0.6: x lands on
    # either side of rank_tol in a state and its rotated copy, so their
    # ranks differ, and x against a padded zero must stay within the bounds
    rng = np.random.default_rng(2026)
    rank_tol = 1e-10 * 0.6
    spectra = (lambda x: [0.6, 0.4 - x, x, 0.0], lambda x: [0.6, 0.3, 0.1 - x, x])
    false, worst = [], 0.0
    for spectrum in spectra:
        for _ in range(100):
            x = rank_tol * (1.0 + rng.uniform(-band, band))
            rho = haar_basis_state(np.array(spectrum(x)), (2, 2), rng)
            report, margin = screen_margin(rho, rotated_copy(rho, rng))
            worst = max(worst, margin)
            if report.verdict == "NotEquivalent":
                false.append((spectrum(x), report.witness))
    assert not false, f"{len(false)}/200 false NotEquivalent, first {false[0]}"
    assert worst <= MARGIN


TAIL_DIMS = ((2, 2), (4, 4), (8, 8))


@pytest.mark.parametrize("dims", TAIL_DIMS, ids=[f"{d}" for d in TAIL_DIMS])
@pytest.mark.parametrize("tail", [0.0, 1e-14, 1e-13, 1e-12])
def test_rank2_small_second_eigenvalue_rotated_copies_never_not_equivalent(dims, tail):
    # rank 2 with the second eigenvalue just above the default rank_tol and
    # the dropped ones at 1e-14 to 1e-12, around where the pivoted factor
    # stops: the factor's kept eigenvalues (at (4,4) and (8,8), above
    # states.EIGH_MAX_N) then sit below rho's by their measured deviation,
    # which every compared value's bound counts
    rng = np.random.default_rng([math.prod(dims), round(tail * 1e16)])
    false, worst = [], 0.0
    for second in (1.02e-10, 3e-10, 1e-9):
        for _ in range(4):
            w = np.full(math.prod(dims), tail)
            w[:2] = 1.0, second
            rho = haar_basis_state(w, dims, rng)
            assert fingerprint(rho).rank == 2
            report, margin = screen_margin(rho, rotated_copy(rho, rng))
            worst = max(worst, margin)
            if report.verdict == "NotEquivalent":
                false.append((second, report.witness))
    assert not false, f"{len(false)}/12 false NotEquivalent, first {false[0]}"
    assert worst <= MARGIN


STRADDLE_DIMS = ((2, 2), (3, 3), (4, 4))


@pytest.mark.parametrize("dims", STRADDLE_DIMS, ids=[f"{d}" for d in STRADDLE_DIMS])
@pytest.mark.parametrize("gap", [1e-4, 1e-3, 1e-2])
def test_kept_and_dropped_eigenvalues_straddling_rank_tol_never_not_equivalent(dims, gap):
    # the second and third eigenvalues at (1 +- gap) times the default
    # rank_tol: both states are rank 2, and the kept second eigenvector
    # turns toward the dropped third by up to rounding / gap, which moves
    # N, M and the lambda coefficients beyond rounding alone
    rng = np.random.default_rng([math.prod(dims), round(1 / gap)])
    false, worst = [], 0.0
    for _ in range(20):
        w = np.zeros(math.prod(dims))
        w[:3] = 1.0, 1e-10 * (1.0 + gap), 1e-10 * (1.0 - gap)
        rho = haar_basis_state(w, dims, rng)
        assert fingerprint(rho).rank == 2
        report, margin = screen_margin(rho, rotated_copy(rho, rng))
        worst = max(worst, margin)
        if report.verdict == "NotEquivalent":
            false.append(report.witness)
    assert not false, f"{len(false)}/20 false NotEquivalent, first {false[0]}"
    assert worst <= MARGIN


NEGATIVE_CASES = (((2, 2), (0.6, 0.4)), ((2, 2), (1.0,)), ((2, 3), (0.5, 0.3, 0.2)),
                  ((3, 3), (0.7, 0.3)), ((4, 4), (0.4, 0.3, 0.2, 0.1)))


@pytest.mark.parametrize("dims, kept", NEGATIVE_CASES, ids=[f"{d}-rank{len(k)}" for d, k in NEGATIVE_CASES])
def test_negative_dropped_eigenvalue_rotated_copies_never_not_equivalent(dims, kept, solver):
    # validation accepts eigenvalues down to -1e-10; one there leaves a
    # negative eigenvalue in the pivoted factor's residual, which lifts the
    # kept Gram spectrum above rho's by a basis-dependent amount: the
    # measured deviation bounds it (decomposition_fingerprint's Gram trace
    # check allows it: test_gram_trace_allowance_holds_above_rank_1). An
    # eigh keeps rho's own top eigenvalues
    rng = np.random.default_rng([math.prod(dims), len(kept)])
    false = []
    for _ in range(20):
        w = np.zeros(math.prod(dims))
        w[:len(kept)] = kept
        w[-1] = -10 ** rng.uniform(-11, -10)
        rho = haar_basis_state(w, dims, rng)
        assert rho.spectrum[0] < -9e-12
        report = screen(rho, rotated_copy(rho, rng))
        if report.verdict == "NotEquivalent":
            false.append(report.witness)
    assert not false, f"{len(false)}/20 false NotEquivalent, first {false[0]}"


GRAM_TRACE_CASES = [(dims, rank) for dims in ((2, 2), (2, 3), (3, 3))
                    for rank in range(2, min(4, math.prod(dims) - 1) + 1)]


@pytest.mark.parametrize("dims, rank", GRAM_TRACE_CASES,
                         ids=[f"{d}-rank{r}" for d, r in GRAM_TRACE_CASES])
def test_gram_trace_allowance_holds_above_rank_1(dims, rank):
    # the Gram trace check allows DENSITY_TOL plus n r times rho's negative
    # mass, a bound proven only at rank 1: with one eigenvalue in
    # [-1e-10, -1e-11], the excess of the trace error over DENSITY_TOL must
    # stay within that allowance at ranks 2 to 4 too
    n = math.prod(dims)
    rng = np.random.default_rng([n, rank])
    worst, false = 0.0, []
    for _ in range(50):
        x = 10 ** rng.uniform(-11, -10)
        w = np.zeros(n)
        w[:rank] = rng.uniform(0.1, 1.0, rank)
        w[:rank] *= (1.0 + x) / w[:rank].sum()
        w[rank] = -x
        rho = haar_basis_state(w, dims, rng)
        d = eigen_decomposition(rho)
        decomposition_fingerprint(d, rho)
        lam = rho.spectrum[::-1]
        negative = -lam[lam < 0.0].sum()
        assert len(d) == rank and negative >= 9e-12
        excess = abs(d.gram_spectrum.sum() + lam[rank:].sum() - 1.0) - DENSITY_TOL
        worst = max(worst, excess / (n * rank * negative))
        report = screen(rho, rotated_copy(rho, rng))
        if report.verdict == "NotEquivalent":
            false.append(report.witness)
    assert not false, f"{len(false)}/50 false NotEquivalent, first {false[0]}"
    assert worst <= 1.0
