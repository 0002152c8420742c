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
    witness_search_hint,
)
from lu_invar.errors import BadToleranceError, DimensionMismatchError
from lu_invar.linalg import haar_unitary
from lu_invar.states import (
    apply_local_unitary_density,
    eigen_decomposition,
    merge_cut,
    mix_decomposition,
    random_density,
    random_local_unitaries,
    validate_density,
)
from oracles import elementary_symmetric


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
        # one eigh for the decomposition, one eigvalsh for the Gram check,
        # one real SVD for Ky Fan and, at rank 2, one det for N and one
        # batched det for lambda_M
        calls = {name: [] for name in ("eigh", "eigvalsh", "svd", "det")}
        for name, record in calls.items():
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, _record=record, **kwargs):
                _record.append(np.asarray(a).dtype)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        full = random_density((3, 3), 9, seed=82)
        for rho, dets in ((rho1, 2), (full, 0)):
            for record in calls.values():
                record.clear()
            fingerprint(rho)
            counts = {name: len(record) for name, record in calls.items()}
            assert counts == {"eigh": 1, "eigvalsh": 1, "svd": 1, "det": dets}
            assert calls["svd"] == [np.float64]

    def test_f_invariants_once_per_fingerprint(self, rho1, monkeypatch):
        # lambda_det is the signed, reversed F that the fingerprint reports
        calls = count_calls(monkeypatch, ("f_invariants",))
        for rho in (rho1, random_density((3, 3), 9, seed=81)):
            calls["f_invariants"] = 0
            fp = fingerprint(rho)
            assert calls == {"f_invariants": 1}
            signs = (-1.0) ** np.arange(fp.rank + 1)
            assert np.array_equal(fp.lambda_coeffs["det"], (signs * fp.F)[::-1])


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

    def test_padding_f_comparison_across_ranks(self):
        # different ranks: rank check fails, F entries beyond the shorter
        # fingerprint compare against exact zeros
        a = fingerprint(random_density((2, 2), 2, seed=96))
        b = fingerprint(random_density((2, 2), 4, seed=97))
        report = compare_fingerprints(a, b)
        names = [c.name for c in report.checks]
        assert "F_4" in names
        assert report.witness == "rank"


class TestWitnessSearchHint:
    def test_rho_pair_top_entries(self, rho1, rho2):
        hints = witness_search_hint(rho1, rho2)
        ranked = dict(hints)
        # N is 1/256 vs 0 and M is 0 vs 1/256; both separate the pair with
        # relative difference 1, as do some lambda coefficients, so which of
        # them leads is decided by rounding and is not pinned here
        assert abs(ranked["invariant_M"] - 1.0 / 256.0) < 1e-12
        assert abs(ranked["invariant_N"] - 1.0 / 256.0) < 1e-12
        failing = {c.name for c in screen(rho1, rho2).checks if not c.passed}
        assert {"invariant_N", "invariant_M"} <= failing
        # every failing check ranks above every passing one
        positions = {name: i for i, (name, _) in enumerate(hints)}
        worst_failing = max(positions[name] for name in failing)
        best_passing = min(p for name, p in positions.items() if name not in failing)
        assert worst_failing < best_passing

    def test_ranking_is_by_relative_difference(self, rho1, rho2):
        hints = witness_search_hint(rho1, rho2)
        report = screen(rho1, rho2)
        by_name = {c.name: c for c in report.checks}

        def relative(name):
            c = by_name[name]
            scale = max(abs(c.value_a), abs(c.value_b))
            return c.delta / scale if scale else 0.0

        for passed in (False, True):
            values = [relative(name) for name, _ in hints if by_name[name].passed is passed]
            assert values == sorted(values, reverse=True)

    def test_failing_checks_rank_above_passing(self):
        # N is zero on both states, so lambda_N[0..2] are rounding noise
        # with relative differences near 1; the real separators must lead
        a = validate_density(np.diag([0.5, 0.0, 0.5, 0.0]), (2, 2))
        b = validate_density(np.diag([0.501, 0.0, 0.499, 0.0]), (2, 2))
        report = screen(a, b)
        assert report.witness == "F_2"
        failing = [c.name for c in report.checks if not c.passed]
        hints = [name for name, _ in witness_search_hint(a, b)]
        assert sorted(hints[: len(failing)]) == sorted(failing)

    def test_identical_states_all_zero(self, sigma1):
        hints = witness_search_hint(sigma1, sigma1)
        assert all(delta == 0.0 for _, delta in hints)

    def test_sigma_pair_top_entry(self, sigma1, sigma2):
        hints = witness_search_hint(sigma1, sigma2)
        # kyfan separates this pair most strongly in absolute terms;
        # the first degree-4 separator is invariant_N
        top_names = [name for name, _ in hints[:3]]
        assert "invariant_N" in top_names or "kyfan" in top_names


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
