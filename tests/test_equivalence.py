import dataclasses
import math

import numpy as np
import pytest

import lu_invar.invariants
from lu_invar.equivalence import (
    Check,
    ScreenConfig,
    compare_fingerprints,
    decomposition_fingerprint,
    fingerprint,
    screen,
)
from lu_invar.errors import (
    BadShapeError,
    BadToleranceError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
)
from lu_invar.invariants import (
    Hypermatrix,
    f_invariants,
    gram_matrix,
    hypermatrix,
    lambda_poly,
    realignment_kyfan,
)
from lu_invar.linalg import haar_unitary, hermitian_part
from lu_invar.states import (
    EIGH_MAX_N,
    DensityMatrix,
    apply_local_unitary_density,
    eigen_decomposition,
    merge_cut,
    mix_decomposition,
    numerical_rank,
    random_density,
    random_local_unitaries,
    validate_density,
)
from oracles import elementary_symmetric, reference_bounds, reference_checks


def count_calls(monkeypatch, names):
    """Count the calls to each named ``lu_invar.invariants`` function,
    patched where both ``invariants`` and ``equivalence`` look it up."""
    import lu_invar.equivalence
    import lu_invar.invariants

    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(lu_invar.invariants, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lu_invar.invariants, name, counted)
        monkeypatch.setattr(lu_invar.equivalence, name, counted)
    return calls


def _equal_twin(kind):
    """The value object of the named type read from a fresh rank-2 state,
    equal in content to every other one of its kind."""
    rho = random_density((2, 2), 2, seed=1300)
    d = eigen_decomposition(rho)
    twins = (rho, d, gram_matrix(d), hypermatrix(d), fingerprint(rho))
    return next(x for x in twins if type(x).__name__ == kind)


@pytest.mark.parametrize("kind", [
    "DensityMatrix", "PureStateDecomposition", "GramMatrix", "Hypermatrix", "Fingerprint",
])
def test_value_objects_compare_and_hash_by_identity(kind):
    # field-wise equality once compared arrays, raising ValueError, and
    # hashing raised TypeError
    a, b = _equal_twin(kind), _equal_twin(kind)
    assert a == a and a != b
    assert len({a, b, a}) == 2


class TestFingerprint:
    def test_rho1(self, rho1):
        fp = fingerprint(rho1)
        assert fp.rank == 2
        assert np.allclose(fp.F, [1.0, 1.0, 0.25], atol=1e-12)
        assert abs(fp.N_value - 1.0 / 256.0) < 1e-12
        assert abs(fp.kyfan - 1.0 / np.sqrt(2.0)) < 1e-10
        assert set(fp.lambda_coeffs) == {"det", "N", "M"}

    def test_rho2(self, rho2):
        fp = fingerprint(rho2)
        assert fp.rank == 2
        assert np.allclose(fp.F, [1.0, 1.0, 0.25], atol=1e-12)
        assert abs(fp.N_value) < 1e-12
        assert abs(fp.kyfan - 1.0 / np.sqrt(2.0)) < 1e-10

    def test_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4.0, (2, 2))
        fp = fingerprint(rho)
        assert fp.rank == 4
        expected = [elementary_symmetric([0.25] * 4, i) for i in range(5)]
        assert np.allclose(fp.F, expected, atol=1e-12)
        assert fp.N_value is None and fp.M_value is None
        assert set(fp.lambda_coeffs) == {"det"}

    def test_lambda_lengths_fixed_per_format(self, rho1, rho2, sigma1, sigma2):
        # rank + 1 coefficients for det, 5 for N and 2 for M, zeros kept:
        # lambda_M is identically zero on rho1 and sigma2
        states = [rho1, rho2, sigma1, sigma2] + [
            random_density(dims, 2, seed=980 + k)
            for k, dims in enumerate(((2, 2), (2, 3), (3, 3), (2, 2, 2)))
        ]
        for rho in states:
            fp = fingerprint(rho)
            assert fp.rank == 2
            lengths = {key: len(c) for key, c in fp.lambda_coeffs.items()}
            assert lengths == {"det": 3, "N": 5, "M": 2}
        assert np.array_equal(fingerprint(rho1).lambda_coeffs["M"], [0.0, 0.0])
        for rank in (1, 3, 4):
            fp = fingerprint(random_density((2, 3), rank, seed=990 + rank))
            assert {key: len(c) for key, c in fp.lambda_coeffs.items()} == {"det": rank + 1}

    def test_rank_matches_f_length(self):
        for trial in range(6):
            rho = random_density((2, 3), trial % 4 + 1, seed=900 + trial)
            fp = fingerprint(rho)
            assert len(fp.F) == fp.rank + 1
            assert abs(fp.F[1] - 1.0) < 1e-10

    def test_deterministic(self, sigma1):
        a = fingerprint(sigma1)
        b = fingerprint(sigma1)
        assert np.array_equal(a.F, b.F)
        assert a.N_value == b.N_value
        assert a.kyfan == b.kyfan

    def test_multipartite_cut(self):
        rho = random_density((2, 2, 2), 2, seed=77)
        fp = fingerprint(rho, ScreenConfig(cut=1))
        assert fp.rank == 2
        assert fp.N_value is not None
        fp2 = fingerprint(rho, ScreenConfig(cut=2))
        assert fp2.rank == 2

    def test_multipartite_lu_invariance_every_cut(self):
        # per-subsystem locals leave the fingerprint unchanged across any cut
        rho = random_density((2, 2, 2), 3, seed=78)
        moved = apply_local_unitary_density(
            rho, random_local_unitaries((2, 2, 2), seed=79)
        )
        for cut in (1, 2):
            cfg = ScreenConfig(cut=cut)
            fa = fingerprint(rho, cfg)
            fb = fingerprint(moved, cfg)
            assert fa.rank == fb.rank
            assert np.abs(fa.F - fb.F).max() < 1e-9
            assert abs(fa.kyfan - fb.kyfan) < 1e-9
            report = compare_fingerprints(fa, fb)
            assert report.verdict == "Inconclusive"

    def test_one_build_per_fingerprint(self, rho1, monkeypatch):
        # the Gram matrix and the s=2 hypermatrix are built once and every
        # invariant is read from them
        calls = count_calls(monkeypatch, ("gram_matrix", "hypermatrix"))
        fp = fingerprint(rho1)
        assert fp.rank == 2
        assert calls == {"gram_matrix": 1, "hypermatrix": 1}

    def test_lapack_calls_per_fingerprint(self, rho1, monkeypatch):
        # the rank and F come from the spectrum validation computed, whose
        # trace it checked, so at every rank but 2 (full, mid and 1) one
        # real SVD for Ky Fan is the only LAPACK call. At rank 2 up to
        # EIGH_MAX_N (rho1, n = 4) the members are read from the
        # eigenvectors validation kept, so the SVD is still the only call;
        # above it (big, n = 64) one eigh of the r' x r' Gram matrix of the
        # pivoted factor, whose kept eigenvalues measure the members'
        # deviation, and no eigvalsh of the members' Gram matrix. N, M and
        # the lambda polynomials are sums of minors on Python scalars, so
        # no det. No cholesky. The SVD is counted at the binding
        # realignment_kyfan calls, numpy's singular-value gufunc, which a
        # count of np.linalg.svd would not see
        names = ("cholesky", "eigh", "eigvalsh", "svd", "det")
        owners = {name: (np.linalg, name) for name in names}
        owners["svd"] = (lu_invar.invariants, "_svdvals")
        calls = {name: [] for name in names}
        for name, record in calls.items():
            owner, attr = owners[name]
            original = getattr(owner, attr)

            def counted(a, *args, _original=original, _record=record, **kwargs):
                a = np.asarray(a)
                _record.append((a.shape, a.dtype))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        full = random_density((3, 3), 9, seed=82)
        big = random_density((8, 8), 2, seed=83)
        mid = random_density((3, 3), 4, seed=84)
        pure = random_density((3, 3), 1, seed=85)
        cases = (
            (rho1, (0, 0, 0, 1, 0)),
            (big, (0, 1, 0, 1, 0)),
            (mid, (0, 0, 0, 1, 0)),
            (pure, (0, 0, 0, 1, 0)),
            (full, (0, 0, 0, 1, 0)),
        )
        for rho, expected in cases:
            for record in calls.values():
                record.clear()
            fp = fingerprint(rho)
            counts = {name: len(record) for name, record in calls.items()}
            assert counts == dict(zip(names, expected))
            assert [dtype for _, dtype in calls["svd"]] == [np.float64]
            assert all(shape == (fp.rank, fp.rank) for shape, _ in calls["eigh"])
        assert math.prod(rho1.dims) <= EIGH_MAX_N < math.prod(big.dims)

    def test_full_rank_pair_screened_twice_runs_no_eigvalsh(self, monkeypatch):
        # validation computed each state's spectrum once; screens reuse it
        rho = random_density((3, 3), 9, seed=86)
        moved = apply_local_unitary_density(rho, random_local_unitaries((3, 3), seed=87))
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
        for _ in range(2):
            assert screen(rho, moved).verdict == "Inconclusive"
        assert calls == []

    def test_rank_two_screens_of_a_small_state_run_no_eigen_solve(self, eigen_solves):
        # a validated (2,3) rank-2 state screened against five rotated
        # copies: every fingerprint reads its members from the eigenvectors
        # its state's validation kept
        rho = random_density((2, 3), 2, seed=89)
        copies = [apply_local_unitary_density(rho, random_local_unitaries((2, 3), seed=90 + k))
                  for k in range(5)]
        eigen_solves["eigh"].clear()
        for moved in copies:
            assert screen(rho, moved).verdict == "Inconclusive"
        assert eigen_solves == {"eigh": [], "eigvalsh": []}

    def test_f_invariants_once_per_fingerprint(self, rho1, monkeypatch):
        # lambda_det is the signed, reversed F that the fingerprint reports
        calls = count_calls(monkeypatch, ("f_invariants",))
        for rho in (rho1, random_density((3, 3), 9, seed=81)):
            calls["f_invariants"] = 0
            fp = fingerprint(rho)
            assert calls == {"f_invariants": 1}
            signs = (-1.0) ** np.arange(fp.rank + 1)
            assert np.array_equal(fp.lambda_coeffs["det"], (signs * fp.F)[::-1])


def state_with_spectrum(w, dims, seed):
    """diag(w) in a Haar-random basis: a state of known spectrum."""
    u = haar_unitary(math.prod(dims), seed=seed)
    return validate_density((u * np.asarray(w)) @ u.conj().T, dims)


ASYM_SHAPES = [((2, 2), 2), ((2, 2), 4), ((2, 3), 2), ((2, 3), 6), ((3, 3), 2), ((3, 3), 9),
               ((2, 2, 2), 2), ((2, 2, 2), 8)]


def off_hermitian(rho, by=2e-11):
    """rho's matrix with ``by`` added at entry (0, 1): within the default
    Hermiticity tolerance of 1e-10 of Hermitian, but not exactly."""
    mat = np.array(rho.mat)
    mat[0, 1] += by
    return mat


class TestOneHermitianMatrix:
    """A state is the Hermitian part of its matrix. A matrix within the
    Hermiticity tolerance of Hermitian, but not exactly, once read Ky Fan
    from its own upper triangle and its spectrum from its Hermitian part,
    so it read NotEquivalent, witness kyfan, against a locally rotated
    copy and against its own Hermitian part."""

    @pytest.mark.parametrize("dims, rank", ASYM_SHAPES, ids=[f"{d}-rank{r}" for d, r in ASYM_SHAPES])
    def test_state_off_hermitian_against_its_copies(self, dims, rank):
        for seed in range(4):
            mat = off_hermitian(random_density(dims, rank, seed=1100 + seed))
            state = validate_density(mat, dims)
            moved = apply_local_unitary_density(
                state, random_local_unitaries(dims, seed=1200 + seed)
            )
            for other in (moved, validate_density(hermitian_part(mat), dims)):
                report = screen(state, other)
                assert report.verdict == "Inconclusive", report.witness

    def test_hand_built_state_off_hermitian(self):
        # lu-invar random-lu --seed 8 of this (2,3) rank-2 state once read
        # NotEquivalent, witness kyfan, delta 9.4e-13
        mat = off_hermitian(random_density((2, 3), 2, seed=7))
        herm = validate_density(hermitian_part(mat), (2, 3))
        moved = apply_local_unitary_density(
            validate_density(mat, (2, 3)), random_local_unitaries((2, 3), seed=8)
        )
        assert realignment_kyfan(DensityMatrix(dims=(2, 3), mat=mat)) == (
            realignment_kyfan(herm)
        )
        for other in (herm, moved):
            by_hand = DensityMatrix(dims=(2, 3), mat=mat)
            report = screen(by_hand, other)
            assert report.verdict == "Inconclusive", report.witness


class TestCholeskyPath:
    """At every rank the rank, F and the spectrum are read from the
    state's spectrum; at rank 2 the degree-4 invariants are read from the
    eigenvector decomposition that ``eigen_decomposition`` reads from one
    eigh of a small state and from a pivoted Cholesky factor of a larger
    one."""

    @pytest.mark.parametrize(
        "dims, cut",
        [((2, 2), 1), ((2, 3), 1), ((3, 3), 1), ((2, 2, 2), 1), ((2, 2, 2), 2), ((4, 4), 1)],
    )
    def test_full_rank_agrees_with_eigenvector_path(self, dims, cut, monkeypatch):
        # at full rank and at ranks 1, n/2 and n - 1; rank 2, n/2 on
        # (2, 2), is the decomposition path
        import lu_invar.equivalence

        cfg = ScreenConfig(cut=cut)
        n = math.prod(dims)
        for rank in sorted({1, n // 2, n - 1, n} - {2}):
            for seed in range(4):
                rho = random_density(dims, rank, seed=1000 + seed)
                want = decomposition_fingerprint(eigen_decomposition(merge_cut(rho, cut)), rho)
                with monkeypatch.context() as m:
                    # the spectrum path builds no decomposition or Gram matrix
                    m.setattr(lu_invar.equivalence, "eigen_decomposition", None)
                    m.setattr(lu_invar.equivalence, "gram_matrix", None)
                    got = fingerprint(rho, cfg)
                assert got.rank == want.rank == rank
                assert np.abs(got.F - want.F).max() <= 1e-12
                assert compare_fingerprints(got, want).verdict == "Inconclusive"

    def test_spectrum_rule_decides_full_rank(self, monkeypatch):
        # two eigenvalues of 1e-14: below the default rank_tol, so the rank
        # is 2, F is read from rho's top two eigenvalues and the degree-4
        # invariants from the eigenvector decomposition; above the
        # noise floor n eps lambda_max (5e-16 here), so rank_tol=0 reads
        # full rank from the spectrum. Eigenvalues at the rounding level of
        # rho are below that floor, so rank_tol=0 drops them too. The same
        # at rank 3 of 6, where every one of these ranks is read from the
        # spectrum
        import lu_invar.equivalence

        zero = ScreenConfig(rank_tol=0.0)
        for seed in range(5):
            rho = state_with_spectrum([0.6, 0.4 - 2e-14, 1e-14, 1e-14], (2, 2), seed)
            got = fingerprint(rho)
            want = decomposition_fingerprint(eigen_decomposition(rho), rho)
            assert got.rank == 2
            assert got.N_value is not None and got.M_value is not None
            f = f_invariants(rho.spectrum[-2:])
            assert np.array_equal(got.F, f)
            assert np.array_equal(got.lambda_coeffs["det"], lambda_poly(f, inv="det"))
            assert (got.N_value, got.M_value) == (want.N_value, want.M_value)
            for key in ("N", "M"):
                assert np.array_equal(got.lambda_coeffs[key], want.lambda_coeffs[key])
            with monkeypatch.context() as m:
                m.setattr(lu_invar.equivalence, "eigen_decomposition", None)
                full = fingerprint(rho, zero)
            assert full.rank == 4
            exact = [elementary_symmetric(list(rho.spectrum), k) for k in range(5)]
            assert np.abs(full.F - exact).max() <= 1e-15

            noise = state_with_spectrum([0.6, 0.4, 0.0, 0.0], (2, 2), seed)
            assert noise.spectrum[0] <= 4 * np.finfo(float).eps * noise.spectrum[-1]
            assert fingerprint(noise, zero).rank == 2

            rho = state_with_spectrum([0.5, 0.3, 0.2 - 3e-14] + [1e-14] * 3, (2, 3), seed)
            noise = state_with_spectrum([0.5, 0.3, 0.2, 0.0, 0.0, 0.0], (2, 3), seed)
            with monkeypatch.context() as m:
                m.setattr(lu_invar.equivalence, "eigen_decomposition", None)
                m.setattr(lu_invar.equivalence, "gram_matrix", None)
                cases = ((fingerprint(rho), rho, 3), (fingerprint(rho, zero), rho, 6),
                         (fingerprint(noise, zero), noise, 3))
            for fp, state, rank in cases:
                assert fp.rank == rank and fp.deviation == 0.0
                top = list(state.spectrum[-rank:])
                exact = [elementary_symmetric(top, k) for k in range(rank + 1)]
                assert np.abs(fp.F - exact).max() <= 1e-15

    @pytest.mark.parametrize("spectrum", [[1.0, 3e-10, 3e-14, 3e-14], [0.6, 0.4, 0.0, -5e-11]])
    def test_rank_two_reads_f_from_the_spectrum(self, spectrum, solver):
        # a dropped tail below the factor's stopping threshold, or a
        # negative eigenvalue, moves the factor's Gram eigenvalues off
        # rho's by more than rounding: the spectrum and F are rho's own
        exact = np.array(spectrum) / sum(spectrum)
        for seed in range(6):
            rho = state_with_spectrum(exact, (2, 2), seed)
            fp = fingerprint(rho)
            assert np.array_equal(fp.spectrum, rho.spectrum[::-1][:2])
            assert np.array_equal(fp.F, f_invariants(rho.spectrum[-2:]))

    @pytest.mark.parametrize("low", [3e-15, 1e-14, 3e-14, 1e-13, 3e-13, 1e-12])
    def test_rank_tol_zero_reads_the_rank_from_the_spectrum(self, low, solver):
        # lambda_2 above the noise floor n eps lambda_max but at or below
        # n tau = 1e-12, where a factor stopping at tau need not reach it:
        # the rank is the spectrum's, and the factor runs to it whatever
        # the basis, so every fingerprint carries N, M and their lambda
        # coefficients, and every locally rotated copy compares them and
        # stays Inconclusive, far inside each threshold
        zero = ScreenConfig(rank_tol=0.0)
        degree4 = ["invariant_N", "invariant_M", "lambda_N[1]", "lambda_N[2]", "lambda_N[3]",
                   "lambda_M[1]"]
        for seed in range(20):
            rho = state_with_spectrum([1.0 - low, low, 0.0, 0.0], (2, 2), seed)
            fp = fingerprint(rho, zero)
            assert fp.rank == numerical_rank(rho.spectrum, 0.0) == 2
            assert fp.N_value is not None and fp.M_value is not None
            assert set(fp.lambda_coeffs) == {"det", "N", "M"}
            for k in range(5):
                lu = random_local_unitaries((2, 2), seed=100 * seed + k)
                report = screen(rho, apply_local_unitary_density(rho, lu), zero)
                assert report.verdict == "Inconclusive"
                assert [c.name for c in report.checks if c.name in degree4] == degree4
                assert max(c.delta / c.threshold for c in report.checks) <= 0.1

    def test_rank_tol_zero_keeps_rotated_copy_inconclusive(self):
        # the rotated copy's rounding-level eigenvalues once read as rank 4
        # on a full-rank path, while rho itself read rank 2
        rho = random_density((2, 2), 2, seed=1024)
        moved = apply_local_unitary_density(rho, random_local_unitaries((2, 2), seed=1034))
        zero = ScreenConfig(rank_tol=0.0)
        assert screen(rho, moved, zero).verdict == "Inconclusive"
        assert [fingerprint(s, zero).rank for s in (rho, moved)] == [2, 2]

    @pytest.mark.parametrize("factor, rank", [(0.5, 3), (2.0, 4)])
    def test_rank_near_rank_tol_matches_eigenvector_path(self, factor, rank):
        # lambda_min at factor * rank_tol, the default rank_tol 1e-10 * 0.5
        x = factor * 1e-10 * 0.5
        for seed in range(5):
            rho = state_with_spectrum([0.5, 0.3, 0.2 - x, x], (2, 2), seed)
            assert fingerprint(rho).rank == len(eigen_decomposition(rho)) == rank

    def test_given_rank_tol_keeps_rotated_copies_inconclusive(self):
        # two noise eigenvalues far below a given rank_tol of 1e-4, their
        # mass 8e-11 within the Gram trace check's 1e-10: the kept members
        # must not depend on the basis the state is written in, so a
        # locally rotated copy passes that check, which
        # decomposition_fingerprint runs, and is never NotEquivalent
        cfg = ScreenConfig(rank_tol=1e-4)
        for seed in range(8):
            rho = state_with_spectrum([0.6, 0.4 - 8e-11, 4e-11, 4e-11], (2, 2), seed)
            assert fingerprint(rho, cfg).rank == 2
            d = eigen_decomposition(rho, numerical_rank(rho.spectrum, 1e-4))
            base = decomposition_fingerprint(d, rho)
            for k in range(4):
                moved = apply_local_unitary_density(
                    rho, random_local_unitaries((2, 2), seed=100 * seed + k)
                )
                assert screen(rho, moved, cfg).verdict == "Inconclusive"
                d = eigen_decomposition(moved, numerical_rank(moved.spectrum, 1e-4))
                other = decomposition_fingerprint(d, moved)
                assert compare_fingerprints(base, other).verdict == "Inconclusive"

    def test_rank_tol_keeping_nothing_refused(self, rho1):
        # numerical_rank on rho's spectrum refuses a rank_tol at or above
        # lambda_max, at rank 2 as at full rank
        for rho in (rho1, random_density((2, 2), 4, seed=94)):
            for tol in (float(rho.spectrum[-1]) * (1 + 1e-9), 1.0):
                with pytest.raises(BadToleranceError, match="keeps no eigenvalue"):
                    fingerprint(rho, ScreenConfig(rank_tol=tol))

    @pytest.mark.parametrize("dims", [(3, 3), (8, 8)])
    def test_tail_below_rank_tol_counts_in_gram_trace(self, dims):
        # n - 2 eigenvalues of 4e-11, below the default rank_tol of 5e-11:
        # the rank rule drops their mass, 2.8e-10 at (3, 3), above the Gram
        # trace check's 1e-10, so decomposition_fingerprint's check must
        # count it
        t = math.prod(dims) - 2
        rho = state_with_spectrum([0.5, 0.5 - 4e-11 * t] + [4e-11] * t, dims, seed=92)
        assert fingerprint(rho).rank == 2
        moved = apply_local_unitary_density(rho, random_local_unitaries(dims, seed=93))
        assert screen(rho, moved).verdict == "Inconclusive"
        fa, fb = (decomposition_fingerprint(eigen_decomposition(s), s) for s in (rho, moved))
        assert fa.rank == fb.rank == 2
        assert compare_fingerprints(fa, fb).verdict == "Inconclusive"

    @pytest.mark.parametrize("rank", [4, 2])
    def test_gram_trace_checked_at_the_state_tolerance(self, rank):
        # validated with a trace off by 9e-11, just inside DENSITY_TOL:
        # decomposition_fingerprint's Gram trace check accepts what
        # validation accepted, and fingerprint runs no check of its own
        mat = random_density((2, 2), rank, seed=1).mat * (1 + 9e-11)
        rho = validate_density(mat, (2, 2))
        assert fingerprint(rho).rank == rank
        moved = apply_local_unitary_density(rho, random_local_unitaries((2, 2), seed=2))
        assert screen(rho, moved).verdict == "Inconclusive"
        fa, fb = (decomposition_fingerprint(eigen_decomposition(s), s) for s in (rho, moved))
        assert fa.rank == fb.rank == rank
        assert compare_fingerprints(fa, fb).verdict == "Inconclusive"

    @pytest.mark.parametrize("rank", [2, 4])
    def test_hermiticity_checked_once(self, rank, monkeypatch):
        # once per state, across validation and the fingerprints after it;
        # a state built by hand is checked on its first fingerprint
        import lu_invar.linalg
        import lu_invar.states

        real = lu_invar.linalg.hermiticity_residual
        calls = []

        def counted(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(lu_invar.linalg, "hermiticity_residual", counted)
        monkeypatch.setattr(lu_invar.states, "hermiticity_residual", counted)
        rho = random_density((2, 2), rank, seed=1010)
        fingerprint(rho)
        fingerprint(rho)
        assert len(calls) == 1
        by_hand = DensityMatrix(dims=rho.dims, mat=rho.mat)
        fingerprint(by_hand)
        fingerprint(by_hand)
        assert len(calls) == 2

    def test_non_hermitian_refused(self):
        mat = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        mat[0, 1] = 1e-6
        with pytest.raises(NotHermitianError):
            fingerprint(DensityMatrix(dims=(2, 2), mat=mat))

    def test_numerical_rank(self):
        w = np.array([4e-11, 6e-11, 0.5, 0.5])
        assert numerical_rank(w) == 3
        assert numerical_rank(w, rank_tol=0.0) == 4
        # at rank_tol=0 the noise floor 4 eps lambda_max (4.4e-16) still
        # drops an eigenvalue at the rounding level of rho
        assert numerical_rank(np.array([1e-17, 1e-15, 0.5, 0.5]), rank_tol=0.0) == 3
        # a rank_tol at or above the largest eigenvalue keeps none
        for tol in (0.5, 1.0):
            with pytest.raises(BadToleranceError, match=r"rank_tol .* largest eigenvalue 0\.5"):
                numerical_rank(w, rank_tol=tol)
        # a spectrum with no positive eigenvalue is no state at any tolerance
        for tol in (None, 0.0, 1.0):
            with pytest.raises(NotPSDError):
                numerical_rank(np.array([-1e-12, 0.0]), rank_tol=tol)
        # nor is an empty spectrum
        with pytest.raises(NotPSDError):
            numerical_rank(np.array([]))
        # a hand-built zero matrix is refused before that, by its trace
        with pytest.raises(NotUnitTraceError):
            fingerprint(DensityMatrix(dims=(2, 2), mat=np.zeros((4, 4), dtype=complex)))


class TestDecompositionFingerprint:
    def test_eigen_decomposition_gives_fingerprint(self, sigma1):
        fa = fingerprint(sigma1)
        fb = decomposition_fingerprint(eigen_decomposition(sigma1), sigma1)
        assert np.array_equal(fa.F, fb.F)
        assert (fa.rank, fa.N_value, fa.M_value) == (fb.rank, fb.N_value, fb.M_value)

    def test_mixed_decomposition_compares_inconclusive(self, rho1):
        d = eigen_decomposition(rho1)
        mixed = mix_decomposition(d, haar_unitary(2, seed=3))
        report = compare_fingerprints(fingerprint(rho1), decomposition_fingerprint(mixed, rho1))
        assert report.verdict == "Inconclusive"

    def test_kyfan_read_from_rho_across_the_cut(self):
        # Ky Fan is a value of rho, read by fingerprint across its cut; a
        # decomposition fingerprint has none, so its comparisons skip it
        rho = random_density((2, 2, 3), 3, seed=84)
        for cut in (1, 2):
            fp = fingerprint(rho, ScreenConfig(cut=cut))
            assert fp.kyfan == realignment_kyfan(merge_cut(rho, cut))
            d = eigen_decomposition(merge_cut(rho, cut))
            bare = decomposition_fingerprint(d, rho)
            assert bare.kyfan is None and bare.dims == (2, 2, 3)
            for fa, fb in ((fp, bare), (bare, fp), (bare, bare)):
                report = compare_fingerprints(fa, fb)
                assert "kyfan" not in [c.name for c in report.checks]
                assert report.verdict == "Inconclusive"
            assert "kyfan" in [c.name for c in compare_fingerprints(fp, fp).checks]

    def test_shape_must_name_a_bipartition(self):
        rho = random_density((2, 3), 2, seed=85)
        swapped = eigen_decomposition(merge_cut(random_density((3, 2), 2, seed=85)))
        with pytest.raises(DimensionMismatchError, match="3x2"):
            decomposition_fingerprint(swapped, rho)


class TestScreenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"rank_tol": math.nan}, {"rank_tol": -1.0}, {"rank_tol": math.inf}],
        ids=["rank_tol-nan", "rank_tol-negative", "rank_tol-inf"],
    )
    def test_out_of_range_tolerance_refused(self, kwargs):
        with pytest.raises(BadToleranceError, match=next(iter(kwargs))):
            ScreenConfig(**kwargs)

    def test_only_the_rank_threshold_and_the_cut(self):
        # no comparison tolerance: thresholds follow from the fingerprints
        assert [f.name for f in dataclasses.fields(ScreenConfig)] == ["rank_tol", "cut"]

    def test_zero_rank_tol_keeps_a_state_inconclusive(self, rho1):
        assert screen(rho1, rho1, ScreenConfig(rank_tol=0.0)).verdict == "Inconclusive"


class TestScreen:
    def test_rho_pair_not_equivalent_witness_n(self, rho1, rho2):
        report = screen(rho1, rho2)
        assert report.verdict == "NotEquivalent"
        assert report.witness == "invariant_N"
        a, b, delta = report.witness_values
        assert abs(a - 1.0 / 256.0) < 1e-12 and abs(b) < 1e-12
        assert abs(delta - 1.0 / 256.0) < 1e-12

    def test_sigma_pair_not_equivalent(self, sigma1, sigma2):
        report = screen(sigma1, sigma2)
        assert report.verdict == "NotEquivalent"
        # N and M both separate the pair (1/6561 vs 0); N is evaluated
        # before M in the fixed order, so it is the reported witness
        assert report.witness == "invariant_N"

    def test_identical_states_inconclusive(self, rho1):
        report = screen(rho1, rho1)
        assert report.verdict == "Inconclusive"
        assert report.witness is None
        assert all(c.passed for c in report.checks)

    def test_lu_pair_inconclusive(self):
        rho = random_density((2, 3), 2, seed=90)
        moved = apply_local_unitary_density(rho, random_local_unitaries((2, 3), seed=91))
        report = screen(rho, moved)
        assert report.verdict == "Inconclusive"

    def test_rank_difference_shows_in_the_spectrum(self):
        # the rank is reported, not compared: the eigenvalue that one side
        # keeps and the other drops differs from zero beyond both bounds
        a = state_with_spectrum([0.5, 0.3, 0.2, 0.0], (2, 2), seed=92)
        b = state_with_spectrum([0.5, 0.3, 0.1, 0.1], (2, 2), seed=93)
        report = screen(a, b)
        assert (fingerprint(a).rank, fingerprint(b).rank) == (3, 4)
        assert report.verdict == "NotEquivalent"
        assert report.witness == "spectrum[3]"
        assert [c.name for c in report.checks if not c.passed] == [
            "spectrum[3]", "spectrum[4]", "kyfan"
        ]

    def test_dimension_signature_gate(self):
        # the check holds the entries at the first position where the
        # signatures differ; a missing subsystem reads as 0
        # screen and compare_fingerprints give the same report
        a = random_density((2, 2), 2, seed=94)
        for dims_b, values in (((2, 3), (2, 3)), ((2, 2, 2), (0, 2))):
            b = random_density(dims_b, 2, seed=95)
            compared = compare_fingerprints(fingerprint(a), fingerprint(b))
            for report in (screen(a, b), compared):
                assert report.verdict == "NotEquivalent"
                assert report.witness == "dimension signature"
                assert report.witness_values == (a.dims, b.dims, None)
                (check,) = report.checks
                assert (check.value_a, check.value_b) == values
            assert compared == screen(a, b)

    def test_symmetric(self, rho1, rho2):
        ab = screen(rho1, rho2)
        ba = screen(rho2, rho1)
        assert ab.verdict == ba.verdict
        failing_ab = {c.name for c in ab.checks if not c.passed}
        failing_ba = {c.name for c in ba.checks if not c.passed}
        assert failing_ab == failing_ba

    def test_deterministic_reports(self, sigma1, sigma2):
        r1 = screen(sigma1, sigma2)
        r2 = screen(sigma1, sigma2)
        assert r1 == r2

    def test_check_order_fixed(self, rho1, rho2, sigma2):
        # rho1 and sigma2 both have lambda_M identically zero; the check
        # list does not depend on that
        for other in (rho2, sigma2):
            names = [c.name for c in screen(rho1, other).checks]
            assert names[:2] == ["spectrum[1]", "spectrum[2]"]
            assert names[2:4] == ["invariant_N", "invariant_M"]
            assert names[4] == "kyfan"
            # lambda_N[0], lambda_N[4] and lambda_M[0] repeat N, the
            # constant 1 and M, so only the other coefficients are checks
            assert names[5:] == ["lambda_N[1]", "lambda_N[2]", "lambda_N[3]", "lambda_M[1]"]

    def test_verdict_iff_some_check_fails(self):
        for trial in range(6):
            a = random_density((2, 2), trial % 3 + 1, seed=960 + trial)
            b = random_density((2, 2), trial % 3 + 1, seed=970 + trial)
            report = screen(a, b)
            any_fail = any(not c.passed for c in report.checks)
            assert (report.verdict == "NotEquivalent") == any_fail


class TestCompareFingerprints:
    def _shift_spectrum(self, base, k, shift):
        # the largest float within shift of the old value, so a shift of
        # exactly the threshold lands on it, not one rounding above it
        spectrum = base.spectrum.copy()
        value = spectrum[k] + shift
        while value - spectrum[k] > shift:
            value = np.nextafter(value, -np.inf)
        spectrum[k] = value
        return dataclasses.replace(base, spectrum=spectrum)

    def test_check_passes_iff_delta_within_threshold(self, rho1):
        base = fingerprint(rho1)
        threshold = 2 * reference_bounds(base)["kept"]
        for factor, passed in ((0.5, True), (1.0, True), (2.0, False)):
            report = compare_fingerprints(base, self._shift_spectrum(base, 1, factor * threshold))
            check = next(c for c in report.checks if c.name == "spectrum[2]")
            assert check.threshold == threshold
            assert check.passed is passed
            assert report.verdict == ("Inconclusive" if passed else "NotEquivalent")

    def test_check_table_follows_the_rule_value_by_value(self, rho1, rho2, sigma1, sigma2):
        full = random_density((8, 8), 64, seed=98)
        full_lu = apply_local_unitary_density(full, random_local_unitaries((8, 8), seed=99))
        base = fingerprint(rho1)
        low = fingerprint(random_density((2, 2), 2, seed=96))
        high = fingerprint(random_density((2, 2), 4, seed=97))
        tri = random_density((2, 2, 2), 2, seed=94)
        tri_other = random_density((2, 2, 2), 2, seed=95)
        cases = [
            (fingerprint(full), fingerprint(full_lu)),
            # spectrum padded on either side: rank 2 against rank 4 and back
            (low, high),
            (high, low),
            # a mid-rank state against a full-rank one
            (fingerprint(random_density((3, 3), 5, seed=92)),
             fingerprint(random_density((3, 3), 9, seed=93))),
            (fingerprint(random_density((2, 2), 1, seed=90)), low),
            (base, fingerprint(rho2)),
            (fingerprint(sigma1), fingerprint(sigma2)),
        ]
        # a rank-2 (2,2,2) pair across either cut
        for cut in (1, 2):
            cfg = ScreenConfig(cut=cut)
            cases.append((fingerprint(tri, cfg), fingerprint(tri_other, cfg)))
        # a quantity absent on one side: a decomposition's fingerprint
        # (no Ky Fan) against the state's own, a one-member decomposition
        # (no N, M or lambda_N/M, the dropped eigenvalue padded) against a
        # two-member one, and a mixing of that decomposition
        two = random_density((2, 2), 2, seed=96)
        d = eigen_decomposition(two)
        from_d = decomposition_fingerprint(d, two)
        cases += [
            (from_d, low),
            (low, from_d),
            (decomposition_fingerprint(eigen_decomposition(two, 1), two), from_d),
            (decomposition_fingerprint(mix_decomposition(d, haar_unitary(2, seed=91)), two), low),
        ]
        # the three cases of test_check_passes_iff_delta_within_threshold
        for factor in (0.5, 1.0, 2.0):
            cases.append((base, self._shift_spectrum(
                base, 1, factor * 2 * reference_bounds(base)["kept"])))
        for fa, fb in cases:
            report = compare_fingerprints(fa, fb)
            want = reference_checks(fa, fb)
            assert all(type(c) is Check and type(c.passed) is bool for c in report.checks)
            assert [tuple(c) for c in report.checks] == want
            first = next((c for c in want if not c[4]), None)
            assert report.witness == (None if first is None else first[0])
            assert report.witness_values == (None if first is None else first[1:4])

    def test_padded_spectrum_across_ranks(self):
        # a rank-2 state against a rank-4 one: entries beyond the shorter
        # spectrum compare as zeros within that side's pad bound
        a = fingerprint(random_density((2, 2), 2, seed=96))
        b = fingerprint(random_density((2, 2), 4, seed=97))
        report = compare_fingerprints(a, b)
        check = report.checks[3]
        assert check.name == "spectrum[4]"
        assert check.value_a == 0.0
        assert check.threshold == reference_bounds(a)["pad"] + reference_bounds(b)["kept"]
        assert report.witness == "spectrum[1]"


class TestErrorBounds:
    def test_full_rank_bounds_are_rounding_only(self):
        rho = random_density((3, 3), 9, seed=88)
        fp = fingerprint(rho)
        rounding = 16 * 9 * np.finfo(float).eps
        top = float(rho.spectrum[-1])
        assert np.array_equal(fp.spectrum, rho.spectrum[::-1])
        assert fp.deviation == fp.dropped == 0.0
        bounds = reference_bounds(fp)
        assert bounds["kept"] == bounds["pad"] == rounding * top
        assert bounds["entry"] == rounding + rounding * top
        assert bounds["kyfan"] == rounding * max(fp.kyfan, 1.0)

    def test_kept_and_dropped_eigenvalues_within_their_bounds(self, solver):
        # rank 2 with two eigenvalues of 3e-14 below the factor's stopping
        # threshold: the factor's kept Gram eigenvalues sit below rho's by
        # up to their measured deviation, here well beyond rounding, which
        # the kept bound counts; the pad bound covers the dropped
        # eigenvalues. An eigh keeps rho's own, within rounding
        exact = np.array([1.0, 3e-10, 3e-14, 3e-14])
        exact /= exact.sum()
        errors = []
        for seed in range(6):
            rho = state_with_spectrum(exact, (2, 2), seed)
            fp = decomposition_fingerprint(eigen_decomposition(rho), rho)
            bounds = reference_bounds(fp)
            assert fp.rank == 2
            errors.append(np.abs(fp.spectrum - exact[:2]).max())
            assert errors[-1] <= bounds["kept"]
            assert exact[2:].max() <= bounds["pad"]
        if solver == "factor":
            assert max(errors) > 16 * 4 * np.finfo(float).eps * exact[0]

    def test_deviation_measured_against_the_spectrum(self):
        # at rank 2 the deviation is the summed distance of the eigenvector
        # decomposition's kept Gram spectrum from rho's top eigenvalues
        # plus rho's negative mass
        rho = state_with_spectrum(np.array([0.6, 0.4, 0.0, -5e-11]) / (1 - 5e-11), (2, 2), 7)
        fp = fingerprint(rho)
        gram = gram_matrix(eigen_decomposition(rho)).spectrum[::-1]
        top = rho.spectrum[::-1][:fp.rank]
        negative = -rho.spectrum[rho.spectrum < 0].sum()
        assert fp.rank == 2
        assert fp.deviation == pytest.approx(np.abs(gram - top).sum() + negative, rel=1e-12)
        assert fp.deviation >= 5e-11
        assert fp.dropped == max(float(rho.spectrum[-3]), 0.0)


class TestSoundness:
    def test_no_false_positives_on_lu_pairs(self):
        shapes = [((2, 2) if t % 2 else (2, 3), t % 3 + 1) for t in range(40)]
        # full rank, where the smallest F_i lie many orders below 1
        shapes += [((2, 2, 2), 8), ((3, 3), 9), ((4, 4), 16)] * 4
        flagged = []
        for trial, (dims, rank) in enumerate(shapes):
            rho = random_density(dims, rank, seed=2000 + trial)
            moved = apply_local_unitary_density(
                rho, random_local_unitaries(dims, seed=3000 + trial)
            )
            report = screen(rho, moved)
            if report.verdict != "Inconclusive":
                flagged.append((trial, dims, rank, report.witness))
        assert flagged == []


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: validate_density([["a", "b"], ["c", "d"]], (2, 2)), BadShapeError),
        (lambda: validate_density([[0.5, 0, 0, 0], [0]] * 2, (2, 2)), BadShapeError),
        (lambda: Hypermatrix(entries=np.full((2, 2, 2, 2), "a")), BadShapeError),
        (lambda: f_invariants(["a"]), BadShapeError),
        (lambda: f_invariants(np.eye(2)), BadShapeError),
        (lambda: ScreenConfig(rank_tol="x"), BadToleranceError),
    ],
    ids=["strings", "ragged", "string-hypermatrix", "string-spectrum", "2d-spectrum",
         "string-rank-tol"],
)
def test_non_numeric_input_raises_package_error(call, error):
    # every error the package raises derives from LuInvarError; these once
    # escaped as a bare ValueError or TypeError from numpy or the math module
    with pytest.raises(error):
        call()
