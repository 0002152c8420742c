import math

import numpy as np
import pytest

from lu_invar.equivalence import (
    Fingerprint,
    ScreenConfig,
    compare_fingerprints,
    decomposition_fingerprint,
    fingerprint,
    screen,
)
from lu_invar.errors import (
    BadToleranceError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
)
from lu_invar.linalg import haar_unitary
from lu_invar.states import (
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
from oracles import elementary_symmetric, reference_checks


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
            report = compare_fingerprints(fa, fb, cfg)
            assert report.verdict == "Inconclusive"

    def test_one_build_per_fingerprint(self, rho1, monkeypatch):
        # the Gram matrix and the s=2 hypermatrix are built once and every
        # invariant is read from them
        calls = count_calls(monkeypatch, ("gram_matrix", "hypermatrix"))
        fp = fingerprint(rho1)
        assert fp.rank == 2
        assert calls == {"gram_matrix": 1, "hypermatrix": 1}

    def test_lapack_calls_per_fingerprint(self, rho1, monkeypatch):
        # full rank: F, the rank and the Gram trace check come from the
        # spectrum validation computed, so one real SVD for Ky Fan is the
        # only LAPACK call. Rank 2: one eigh of the r' x r' Gram matrix of
        # the pivoted factor (r' = 2 here), one eigvalsh of the members'
        # 2 x 2 Gram matrix, one SVD, one det for N and one batched det for
        # lambda_M; no cholesky, and no eigen-solve sees an n x n matrix
        names = ("cholesky", "eigh", "eigvalsh", "svd", "det")
        calls = {name: [] for name in names}
        for name, record in calls.items():
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, _record=record, **kwargs):
                a = np.asarray(a)
                _record.append((a.shape, a.dtype))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        full = random_density((3, 3), 9, seed=82)
        big = random_density((8, 8), 2, seed=83)
        cases = ((rho1, (0, 1, 1, 1, 2)), (big, (0, 1, 1, 1, 2)), (full, (0, 0, 0, 1, 0)))
        for rho, expected in cases:
            for record in calls.values():
                record.clear()
            fp = fingerprint(rho)
            counts = {name: len(record) for name, record in calls.items()}
            assert counts == dict(zip(names, expected))
            assert [dtype for _, dtype in calls["svd"]] == [np.float64]
            gram_side = (fp.rank, fp.rank)
            assert all(shape == gram_side for shape, _ in calls["eigh"] + calls["eigvalsh"])

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


class TestCholeskyPath:
    """At numerical full rank the fingerprint is read from the state's
    spectrum; below it, from the eigenvector decomposition that
    ``eigen_decomposition`` reads from a pivoted Cholesky factor."""

    @pytest.mark.parametrize(
        "dims, cut",
        [((2, 2), 1), ((2, 3), 1), ((3, 3), 1), ((2, 2, 2), 1), ((2, 2, 2), 2), ((4, 4), 1)],
    )
    def test_full_rank_agrees_with_eigenvector_path(self, dims, cut, monkeypatch):
        import lu_invar.equivalence

        cfg = ScreenConfig(cut=cut)
        for seed in range(4):
            rho = random_density(dims, math.prod(dims), seed=1000 + seed)
            want = decomposition_fingerprint(eigen_decomposition(rho, cut=cut), rho)
            with monkeypatch.context() as m:
                # the full-rank path builds no decomposition or Gram matrix
                m.setattr(lu_invar.equivalence, "eigen_decomposition", None)
                m.setattr(lu_invar.equivalence, "gram_matrix", None)
                got = fingerprint(rho, cfg)
            assert got.rank == want.rank == math.prod(dims)
            assert np.abs(got.F - want.F).max() <= 1e-12
            assert got.kyfan == want.kyfan

    def test_spectrum_rule_decides_full_rank(self, monkeypatch):
        # two eigenvalues of 1e-14: below the default rank_tol, so the
        # eigenvector path gives rank 2; above the noise floor n eps
        # lambda_max (5e-16 here), so rank_tol=0 reads full rank from the
        # spectrum. Eigenvalues at the rounding level of rho are below that
        # floor, so at rank_tol=0 the eigenvector path decides them.
        import lu_invar.equivalence

        zero = ScreenConfig(rank_tol=0.0)
        for seed in range(5):
            rho = state_with_spectrum([0.6, 0.4 - 2e-14, 1e-14, 1e-14], (2, 2), seed)
            got = fingerprint(rho)
            want = decomposition_fingerprint(eigen_decomposition(rho), rho)
            assert got.rank == 2
            assert got.N_value is not None and got.M_value is not None
            assert np.array_equal(got.F, want.F)
            assert (got.N_value, got.M_value, got.kyfan) == (
                want.N_value, want.M_value, want.kyfan
            )
            for key, coeffs in want.lambda_coeffs.items():
                assert np.array_equal(got.lambda_coeffs[key], coeffs)
            with monkeypatch.context() as m:
                m.setattr(lu_invar.equivalence, "eigen_decomposition", None)
                full = fingerprint(rho, zero)
            assert full.rank == 4
            exact = [elementary_symmetric(list(rho.spectrum), k) for k in range(5)]
            assert np.abs(full.F - exact).max() <= 1e-15

            noise = state_with_spectrum([0.6, 0.4, 0.0, 0.0], (2, 2), seed)
            assert noise.spectrum[0] <= 4 * np.finfo(float).eps * noise.spectrum[-1]
            assert fingerprint(noise, zero).rank == 2

    def test_rank_tol_zero_keeps_rotated_copy_inconclusive(self):
        # the rotated copy's rounding-level eigenvalues once read as rank 4
        # on a full-rank path, while rho itself read rank 2
        rho = random_density((2, 2), 2, seed=1024)
        moved = apply_local_unitary_density(rho, random_local_unitaries((2, 2), seed=1034))
        report = screen(rho, moved, ScreenConfig(rank_tol=0.0))
        assert report.verdict == "Inconclusive"
        assert report.checks[0].value_a == report.checks[0].value_b == 2

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
        # locally rotated copy passes that check and is never NotEquivalent
        cfg = ScreenConfig(rank_tol=1e-4)
        for seed in range(8):
            rho = state_with_spectrum([0.6, 0.4 - 8e-11, 4e-11, 4e-11], (2, 2), seed)
            assert fingerprint(rho, cfg).rank == 2
            for k in range(4):
                moved = apply_local_unitary_density(
                    rho, random_local_unitaries((2, 2), seed=100 * seed + k)
                )
                assert screen(rho, moved, cfg).verdict == "Inconclusive"

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
        by_hand = DensityMatrix(dims=rho.dims, mat=rho.mat, tol=rho.tol)
        fingerprint(by_hand)
        fingerprint(by_hand)
        assert len(calls) == 2

    def test_non_hermitian_refused(self):
        mat = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        mat[0, 1] = 1e-6
        with pytest.raises(NotHermitianError):
            fingerprint(DensityMatrix(dims=(2, 2), mat=mat, tol=1e-10))

    def test_numerical_rank(self):
        w = np.array([0.5, 0.5, 4e-11, 6e-11])
        assert numerical_rank(w) == 3
        assert numerical_rank(w, rank_tol=0.0) == 4
        # a rank_tol at or above the largest eigenvalue keeps none
        for tol in (0.5, 1.0):
            with pytest.raises(BadToleranceError, match=r"rank_tol .* largest eigenvalue 0\.5"):
                numerical_rank(w, rank_tol=tol)
        # a spectrum with no positive eigenvalue is no state at any tolerance
        for tol in (None, 0.0, 1.0):
            with pytest.raises(NotPSDError):
                numerical_rank(np.array([0.0, -1e-12]), rank_tol=tol)
        # nor is an empty spectrum, the Gram spectrum of a pivoted factor
        # with no column
        with pytest.raises(NotPSDError):
            numerical_rank(np.array([]))
        # a hand-built zero matrix is refused before that, by its trace
        with pytest.raises(NotUnitTraceError):
            fingerprint(DensityMatrix(dims=(2, 2), mat=np.zeros((4, 4), dtype=complex), tol=1e-10))


class TestDecompositionFingerprint:
    def test_eigen_decomposition_gives_fingerprint(self, sigma1):
        fa = fingerprint(sigma1)
        fb = decomposition_fingerprint(eigen_decomposition(sigma1), sigma1)
        assert np.array_equal(fa.F, fb.F)
        assert (fa.rank, fa.N_value, fa.M_value, fa.kyfan) == (
            fb.rank, fb.N_value, fb.M_value, fb.kyfan
        )

    def test_mixed_decomposition_compares_inconclusive(self, rho1):
        d = eigen_decomposition(rho1)
        mixed = mix_decomposition(d, haar_unitary(2, seed=3))
        report = compare_fingerprints(fingerprint(rho1), decomposition_fingerprint(mixed, rho1))
        assert report.verdict == "Inconclusive"

    def test_kyfan_across_the_decomposition_cut(self):
        # (2,2,3) at cut 2 gives 4x3 matrices, and Ky Fan is read there
        rho = random_density((2, 2, 3), 3, seed=84)
        d = eigen_decomposition(rho, cut=2)
        assert (d.n, d.m) == (4, 3)
        fp = decomposition_fingerprint(d, rho)
        assert fp.kyfan == fingerprint(rho, ScreenConfig(cut=2)).kyfan
        assert fp.kyfan != fingerprint(rho, ScreenConfig(cut=1)).kyfan
        assert fp.dims == (2, 2, 3)

    def test_shape_must_name_a_bipartition(self):
        rho = random_density((2, 3), 2, seed=85)
        swapped = eigen_decomposition(merge_cut(random_density((3, 2), 2, seed=85)))
        with pytest.raises(DimensionMismatchError, match="3x2"):
            decomposition_fingerprint(swapped, rho)


class TestScreenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"atol": -1.0},
            {"rtol": math.nan},
            {"atol": math.inf},
            {"rank_tol": math.nan},
            {"rank_tol": -1.0},
        ],
        ids=["atol-negative", "rtol-nan", "atol-inf", "rank_tol-nan", "rank_tol-negative"],
    )
    def test_out_of_range_tolerance_refused(self, kwargs):
        # a negative or NaN tolerance would flag a state against itself
        with pytest.raises(BadToleranceError, match=next(iter(kwargs))):
            ScreenConfig(**kwargs)

    def test_zero_tolerances_keep_a_state_inconclusive(self, rho1):
        cfg = ScreenConfig(atol=0.0, rtol=0.0, rank_tol=0.0)
        assert screen(rho1, rho1, cfg).verdict == "Inconclusive"


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

    def test_rank_gate(self):
        a = random_density((2, 2), 2, seed=92)
        b = random_density((2, 2), 3, seed=93)
        report = screen(a, b)
        assert report.verdict == "NotEquivalent"
        assert report.witness == "rank"

    def test_dimension_signature_gate(self):
        # the check holds the entries at the first position where the
        # signatures differ; a missing subsystem reads as 0
        a = random_density((2, 2), 2, seed=94)
        for dims_b, values in (((2, 3), (2, 3)), ((2, 2, 2), (0, 2))):
            report = screen(a, random_density(dims_b, 2, seed=95))
            assert report.verdict == "NotEquivalent"
            assert report.witness == "dimension signature"
            (check,) = report.checks
            assert (check.value_a, check.value_b) == values

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
            assert names[0] == "rank"
            assert names[1:3] == ["F_1", "F_2"]
            assert names[3:5] == ["invariant_N", "invariant_M"]
            assert names[5] == "kyfan"
            # lambda_N[0], lambda_N[4] and lambda_M[0] repeat N, the
            # constant 1 and M, so only the other coefficients are checks
            assert names[6:] == ["lambda_N[1]", "lambda_N[2]", "lambda_N[3]", "lambda_M[1]"]

    def test_verdict_iff_some_check_fails(self):
        for trial in range(6):
            a = random_density((2, 2), trial % 3 + 1, seed=960 + trial)
            b = random_density((2, 2), trial % 3 + 1, seed=970 + trial)
            report = screen(a, b)
            any_fail = any(not c.passed for c in report.checks)
            assert (report.verdict == "NotEquivalent") == any_fail

    def test_tolerance_config_respected(self, rho1, rho2):
        loose = ScreenConfig(atol=1.0, rtol=1.0)
        report = screen(rho1, rho2, loose)
        assert report.verdict == "Inconclusive"


class TestCompareFingerprints:
    def _fingerprint_with_f2(self, base, f2):
        f = base.F.copy()
        f[2] = f2
        return Fingerprint(
            dims=base.dims,
            rank=base.rank,
            F=f,
            kyfan=base.kyfan,
            N_value=base.N_value,
            M_value=base.M_value,
            lambda_coeffs=base.lambda_coeffs,
        )

    def test_marginal_flag_both_sides_of_threshold(self, rho1):
        base = fingerprint(rho1)
        cfg = ScreenConfig(atol=1e-8, rtol=0.0)

        # failing but within 10x of the threshold: marginal, verdict flips
        close_fail = self._fingerprint_with_f2(base, base.F[2] + 3e-8)
        report = compare_fingerprints(base, close_fail, cfg)
        check = next(c for c in report.checks if c.name == "F_2")
        assert not check.passed and check.marginal
        assert report.verdict == "NotEquivalent"

        # passing but within 10x below the threshold: marginal, verdict holds
        close_pass = self._fingerprint_with_f2(base, base.F[2] + 3e-9)
        report = compare_fingerprints(base, close_pass, cfg)
        check = next(c for c in report.checks if c.name == "F_2")
        assert check.passed and check.marginal
        assert report.verdict == "Inconclusive"

        # far beyond the threshold: failing, not marginal
        far_fail = self._fingerprint_with_f2(base, base.F[2] + 1e-3)
        report = compare_fingerprints(base, far_fail, cfg)
        check = next(c for c in report.checks if c.name == "F_2")
        assert not check.passed and not check.marginal

    def test_check_table_follows_the_rule_value_by_value(self, rho1, rho2, sigma1, sigma2):
        full = random_density((8, 8), 64, seed=98)
        full_lu = apply_local_unitary_density(full, random_local_unitaries((8, 8), seed=99))
        base = fingerprint(rho1)
        strict = ScreenConfig(atol=1e-8, rtol=0.0)
        cases = [
            (fingerprint(full), fingerprint(full_lu), ScreenConfig()),
            # F padded: rank 2 against rank 4
            (fingerprint(random_density((2, 2), 2, seed=96)),
             fingerprint(random_density((2, 2), 4, seed=97)), ScreenConfig()),
            (base, fingerprint(rho2), ScreenConfig()),
            (fingerprint(sigma1), fingerprint(sigma2), ScreenConfig()),
        ]
        # the three cases of test_marginal_flag_both_sides_of_threshold
        for shift in (3e-8, 3e-9, 1e-3):
            cases.append((base, self._fingerprint_with_f2(base, base.F[2] + shift), strict))
        for fa, fb, cfg in cases:
            report = compare_fingerprints(fa, fb, cfg)
            want = reference_checks(fa, fb, cfg.atol, cfg.rtol)
            assert [tuple(c) for c in report.checks] == want
            first = next((c for c in want if not c[4]), None)
            assert report.witness == (None if first is None else first[0])

    def test_padding_f_comparison_across_ranks(self):
        # different ranks: rank check fails, F entries beyond the shorter
        # fingerprint compare against exact zeros
        a = fingerprint(random_density((2, 2), 2, seed=96))
        b = fingerprint(random_density((2, 2), 4, seed=97))
        report = compare_fingerprints(a, b)
        names = [c.name for c in report.checks]
        assert "F_4" in names
        assert report.witness == "rank"


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
