import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from lu_invar.equivalence import decomposition_fingerprint
from lu_invar.errors import (
    BadShapeError,
    NotBipartiteError,
    NotUnitTraceError,
    UnsupportedFormatError,
)
from lu_invar.invariants import (
    M_LAYOUT,
    N_LAYOUT,
    Hypermatrix,
    cayley_det_222,
    f_invariants,
    gram_matrix,
    hypermatrix,
    invariant_M,
    invariant_N,
    lambda_poly,
    _real_realignment,
    realignment_kyfan,
)
from lu_invar.linalg import char_poly, determinant, haar_unitary
from lu_invar.selftest import _cayley_contraction
from lu_invar.states import (
    apply_local_unitary,
    eigen_decomposition,
    make_decomposition,
    merge_cut,
    mix_decomposition,
    pad_with_zeros,
    random_density,
    validate_density,
)
from oracles import (
    elementary_symmetric,
    f_invariants_loop,
    hyper_entry,
    leibniz_det,
    realign_loops,
    swap_matrix,
)

# (dims, cut) of the realignment oracle tests; a three-party state is
# realigned across its cut
REALIGNMENT_CASES = [
    ((2, 2), 1), ((2, 3), 1), ((3, 2), 1), ((2, 4), 1), ((4, 2), 1), ((3, 3), 1),
    ((4, 4), 1), ((8, 8), 1), ((2, 2, 2), 1), ((2, 2, 2), 2), ((2, 3, 2), 1), ((2, 3, 2), 2),
]
REALIGNMENT_IDS = [f"{'x'.join(map(str, dims))}-cut{cut}" for dims, cut in REALIGNMENT_CASES]
EPS = np.finfo(float).eps


def exact_elementary(w) -> list:
    """The exact e_0 .. e_n of the floats ``w``, as Fractions: the product
    recurrence on the integers x * 2**shift, with one common shift."""
    xs = [Fraction(x) for x in np.asarray(w, dtype=float).tolist()]
    shift = max(x.denominator for x in xs).bit_length() - 1
    e = [1] + [0] * len(xs)
    for j, x in enumerate(xs, 1):
        big = x.numerator * (2**shift // x.denominator)
        for k in range(j, 0, -1):
            e[k] += big * e[k - 1]
    return [Fraction(e_k, 2 ** (k * shift)) for k, e_k in enumerate(e)]


def realignment_case(dims, cut, rank, seed):
    rho = random_density(dims, math.prod(dims) if rank == "full" else rank, seed=seed)
    return rho if len(dims) == 2 else merge_cut(rho, cut)


class TestGramMatrix:
    def test_rho1_printed_decomposition(self, rho1_decomp):
        assert np.abs(gram_matrix(rho1_decomp).omega - np.diag([0.5, 0.5])).max() < 1e-12

    def test_sigma2_printed_decomposition(self, sigma2_decomp):
        omega = gram_matrix(sigma2_decomp).omega
        assert np.abs(omega - np.diag([2.0 / 3.0, 1.0 / 3.0])).max() < 1e-12

    def test_eigen_decomposition_gives_diagonal_gram(self):
        rho = random_density((3, 3), 4, seed=60)
        d = eigen_decomposition(rho)
        omega = gram_matrix(d).omega
        off = omega - np.diag(np.diag(omega))
        assert np.abs(off).max() < 1e-10

    def test_unnormalized_decomposition_rejected(self, rho1):
        # the Gram matrix is built as given; the decomposition is refused
        # when read against the state it claims to decompose
        half = make_decomposition([np.array([[2.0, 0.0], [0.0, 0.0]])])
        assert gram_matrix(half).omega.trace() == 4.0
        with pytest.raises(NotUnitTraceError, match="Gram trace 4.0"):
            decomposition_fingerprint(half, rho1)
        # Gram trace 1e12: its rounding is far above any unit-scale
        # tolerance, and the trace is what the error names
        rng = np.random.default_rng(93)
        a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        with pytest.raises(NotUnitTraceError):
            decomposition_fingerprint(make_decomposition(1e6 * a / np.linalg.norm(a)), rho1)


class TestFInvariants:
    def test_half_half(self, rho1_decomp):
        f = f_invariants(gram_matrix(rho1_decomp).spectrum)
        assert np.allclose(f, [1.0, 1.0, 0.25], atol=1e-12)

    def test_two_thirds_one_third(self, sigma2_decomp):
        f = f_invariants(gram_matrix(sigma2_decomp).spectrum)
        assert np.allclose(f, [1.0, 1.0, 2.0 / 9.0], atol=1e-12)

    def test_pure_state(self):
        rho = validate_density(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        f = f_invariants(gram_matrix(eigen_decomposition(rho)).spectrum)
        assert np.allclose(f, [1.0, 1.0], atol=1e-12)

    def test_f0_exactly_one_and_real(self):
        rho = random_density((2, 3), 3, seed=61)
        f = f_invariants(gram_matrix(eigen_decomposition(rho)).spectrum)
        assert f[0] == 1.0
        assert abs(f[1] - 1.0) < 1e-10
        assert np.abs(f.imag).max() < 1e-10

    def test_relative_accuracy_on_spread_spectrum(self):
        # full-rank 4x4 state with spectrum proportional to 2**-k: F_16 is
        # about 1e-41, so only a relatively accurate F can match the exact
        # elementary symmetric polynomials of the same float spectrum
        w = 2.0 ** -np.arange(16)
        w /= w.sum()
        rho = validate_density(np.diag(w), (4, 4))
        f = f_invariants(gram_matrix(eigen_decomposition(rho)).spectrum)
        exact = exact_elementary(w)
        for k in range(17):
            assert abs(f[k].imag) == 0.0
            assert abs(f[k].real - float(exact[k])) <= 1e-12 * float(exact[k])
        # 64 and 256 ascending, geometrically spread eigenvalues whose F
        # neither underflows nor overflows: several blocks of the
        # recurrence, merged by convolution
        for count, decades in ((64, 12), (256, 4)):
            w = np.geomspace(10.0 ** (-decades / 2), 10.0 ** (decades / 2), count)
            f = f_invariants(w)
            assert np.array_equal(f.imag, np.zeros(count + 1))
            for f_k, e_k in zip(f.real.tolist(), exact_elementary(w)):
                assert abs(Fraction(f_k) - e_k) <= Fraction(1e-13) * e_k

    def test_bit_identical_to_one_update_per_eigenvalue_up_to_one_block(self):
        # up to 16 eigenvalues the blocked recurrence runs the same float
        # operations, in the same order, as the single loop
        rng = np.random.default_rng(63)
        spectra = [[], [0.7], [1.0, 0.0], [0.5, -1e-13, 0.25]]
        spectra += [np.sort(rng.random(n)) / n for n in range(1, 17)]
        spectra += [random_density((4, 4), 16, seed=64).spectrum]
        for w in spectra:
            f = f_invariants(w)
            assert f.tobytes() == f_invariants_loop(w).tobytes()
            assert not f.flags.writeable

    def test_list_tuple_and_array_agree(self):
        # a float array is read by tolist(), anything else through
        # np.asarray; 17 eigenvalues take the two-block path too
        xs = np.random.default_rng(65).random(17).tolist()
        for count in range(18):
            w = xs[:count]
            f = f_invariants(np.array(w))
            assert f_invariants(w).tobytes() == f.tobytes()
            assert f_invariants(tuple(w)).tobytes() == f.tobytes()
            assert len(f) == count + 1

    def test_matches_state_spectrum_symmetric_polynomials(self):
        # the Gram matrix of the eigenvector decomposition is diagonal in
        # the state's eigenvalues, so F_i = e_i(spectrum)
        rho = random_density((2, 2), 4, seed=62)
        f = f_invariants(gram_matrix(eigen_decomposition(rho)).spectrum)
        w = np.linalg.eigvalsh(rho.mat)
        for i in range(len(f)):
            assert abs(f[i] - elementary_symmetric(list(w), i)) < 1e-9


# (dims, cut) of the hypermatrix oracle test, each at rank 2; the
# three-party state is decomposed across its cut
HYPERMATRIX_CASES = [((2, 3), 1), ((3, 3), 1), ((4, 4), 1), ((2, 2, 2), 2)]


class TestHypermatrix:
    def test_rho1_first_entry(self, rho1_decomp):
        h = hypermatrix(rho1_decomp)
        assert abs(h.entries[0, 0, 0, 0] - 0.25) < 1e-12

    def test_entries_match_direct_trace_products(self):
        rho = random_density((2, 2), 2, seed=63)
        d = eigen_decomposition(rho)
        h = hypermatrix(d)
        for i, j, k, l in itertools.product(range(2), repeat=4):
            direct = hyper_entry(list(d.stack), (i, k), (j, l))
            assert abs(h.entries[i, j, k, l] - direct) < 1e-12
            # flat ordering convention r = 8i + 4j + 2k + l
            assert abs(h.entries.ravel()[8 * i + 4 * j + 2 * k + l] - direct) < 1e-12

    @pytest.mark.parametrize(
        "dims, cut", HYPERMATRIX_CASES,
        ids=[f"{'x'.join(map(str, dims))}-cut{cut}" for dims, cut in HYPERMATRIX_CASES],
    )
    def test_entries_match_oracle(self, dims, cut):
        # every entry, axes (i, j, k, l), against explicit products
        rho = random_density(dims, 2, seed=160 + math.prod(dims))
        d = eigen_decomposition(merge_cut(rho, cut))
        mats = list(d.stack)
        h = hypermatrix(d)
        assert h.entries.shape == (2, 2, 2, 2)
        for idx in itertools.product(range(2), repeat=4):
            direct = hyper_entry(mats, idx[0::2], idx[1::2])
            assert abs(h.entries[idx] - direct) < 1e-12

    def test_conjugate_and_cyclic_symmetry(self):
        # the trace of the dagger, conj T[i, j, k, l] = T[l, k, j, i], and
        # the cyclic shift of the (i, j) pairs, on eigen and mixed
        # decompositions; hypermatrix does not check them
        for mixed in (False, True):
            d = eigen_decomposition(random_density((4, 4), 2, seed=65))
            if mixed:
                d = mix_decomposition(d, haar_unitary(2, np.random.default_rng(65)))
            t = hypermatrix(d).entries
            bound = 1e-14 * np.abs(t).max()
            for idx in itertools.product(range(2), repeat=4):
                assert abs(np.conj(t[idx]) - t[idx[::-1]]) <= bound, (mixed, idx)
                assert abs(t[idx] - t[idx[2:] + idx[:2]]) <= bound, (mixed, idx)

    def test_overflow_refused(self):
        # finite coefficient matrices whose fourfold products overflow
        d = make_decomposition([np.diag([1e100, 0.0]), np.diag([0.0, 1e100])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadShapeError, match="hypermatrix has NaN or Inf"):
                hypermatrix(d)


    @pytest.mark.parametrize("entry", [complex("nan"), complex("inf")], ids=["nan", "inf"])
    def test_hand_built_non_finite_refused(self, entry):
        # checked when built, not only by hypermatrix(): a hand-built one
        # with a NaN entry once read invariant_N = nan+nanj
        entries = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)
        entries[0, 1, 1, 0] = entry
        with pytest.raises(BadShapeError, match="hypermatrix has NaN or Inf"):
            Hypermatrix(entries=entries)

    def test_hand_built_wrong_shape_refused(self):
        # a (2, 2, 2, 3) array once read invariant_N = 0j from its first 16
        # entries, and a (2, 2, 2) one raised a bare IndexError
        for shape in ((2, 2, 2, 3), (2, 2, 2)):
            entries = np.arange(math.prod(shape), dtype=complex).reshape(shape)
            with pytest.raises(BadShapeError, match=r"shape \(2, 2, 2, 2\), got"):
                Hypermatrix(entries=entries)


class TestCayley:
    def test_basis_tensor(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = t[1, 1, 1] = 1.0
        assert cayley_det_222(t) == pytest.approx(1.0)

    def test_scaled_basis_tensor(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = t[1, 1, 1] = 1.0 / np.sqrt(2.0)
        assert cayley_det_222(t) == pytest.approx(0.25)

    def test_product_tensor_vanishes(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            u, v, w = (
                (lambda z: z / np.linalg.norm(z))(
                    rng.standard_normal(2) + 1j * rng.standard_normal(2)
                )
                for _ in range(3)
            )
            t = np.einsum("i,j,k->ijk", u, v, w)
            assert abs(cayley_det_222(t)) < 1e-12

    def test_expanded_and_compact_agree(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            a = cayley_det_222(t)
            b = _cayley_contraction(t)  # the selftest's reference
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_one_slot_action_scales_by_det_squared(self):
        rng = np.random.default_rng(67)
        specs = ("ia,ajk->ijk", "ja,iak->ijk", "ka,ija->ijk")
        for _ in range(30):
            t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            base = cayley_det_222(t)
            for spec in specs:
                acted = cayley_det_222(np.einsum(spec, b, t))
                expected = np.linalg.det(b) ** 2 * base
                assert abs(acted - expected) <= 1e-8 * abs(expected)

    def test_sl2_action_preserves_value(self):
        rng = np.random.default_rng(68)
        t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b /= np.sqrt(np.linalg.det(b))  # det 1
        acted = cayley_det_222(np.einsum("ia,ajk->ijk", b, t))
        assert abs(acted - cayley_det_222(t)) < 1e-10 * abs(cayley_det_222(t))

    def test_bad_shape(self):
        with pytest.raises(BadShapeError):
            cayley_det_222(np.zeros((2, 2)))


class TestDegree4Invariants:
    def test_rho_pair_N(self, rho1_decomp, rho2_decomp):
        assert invariant_N(hypermatrix(rho1_decomp)) == pytest.approx(1.0 / 256.0, abs=1e-15)
        assert invariant_N(hypermatrix(rho2_decomp)) == pytest.approx(0.0, abs=1e-15)

    def test_sigma_pair_N(self, sigma1_decomp, sigma2_decomp):
        assert invariant_N(hypermatrix(sigma1_decomp)) == pytest.approx(1.0 / 6561.0, abs=1e-15)
        assert invariant_N(hypermatrix(sigma2_decomp)) == pytest.approx(0.0, abs=1e-15)

    def test_rho_pair_M(self, rho1_decomp, rho2_decomp):
        # M = N + D, with D the determinant of the (a0 a8 a2 a10 / ...)
        # layout: D(rho1) = -1/256 and D(rho2) = 1/256 (L + M + N = 0)
        assert invariant_M(hypermatrix(rho1_decomp)) == pytest.approx(0.0, abs=1e-15)
        assert invariant_M(hypermatrix(rho2_decomp)) == pytest.approx(1.0 / 256.0, abs=1e-15)

    def test_sigma_pair_M(self, sigma1_decomp, sigma2_decomp):
        # the paper's Example 2: M separates this pair as N does. D has
        # two equal rows on sigma1's hypermatrix, so M = N + 0 there
        assert invariant_M(hypermatrix(sigma1_decomp)) == pytest.approx(1.0 / 6561.0, abs=1e-15)
        assert invariant_M(hypermatrix(sigma2_decomp)) == pytest.approx(0.0, abs=1e-15)

    def test_layouts_against_permutation_sum(self):
        for seed in (69, 169, 269):
            rho = random_density((2, 3), 2, seed=seed)
            d = eigen_decomposition(rho)
            h = hypermatrix(d)
            flat = h.entries.ravel()
            for layout, fn in ((N_LAYOUT, invariant_N), (M_LAYOUT, invariant_M)):
                mat = np.array([[flat[r] for r in row] for row in layout])
                assert abs(fn(h) - leibniz_det(mat)) < 1e-12
            # the three 4x4 flattenings of tr(A_i1 A_j1^dag A_i2 A_j2^dag),
            # rows (i1, x) and columns the other two axes, row-major
            mats = list(d.stack)
            dets = {}
            for x in ("j1", "i2", "j2"):
                flattening = np.zeros((4, 4), dtype=complex)
                for i1, j1, i2, j2 in itertools.product(range(2), repeat=4):
                    axes = {"i1": i1, "j1": j1, "i2": i2, "j2": j2}
                    rest = [axes[k] for k in ("j1", "i2", "j2") if k != x]
                    flattening[2 * i1 + axes[x], 2 * rest[0] + rest[1]] = hyper_entry(
                        mats, (i1, i2), (j1, j2)
                    )
                dets[x] = leibniz_det(flattening)
            scale = max(abs(v) for v in dets.values())
            # Luque-Thibon L + M + N = 0, in the signs of these flattenings
            assert abs(dets["j1"] - dets["i2"] + dets["j2"]) < 1e-12 * scale
            assert abs(invariant_N(h) - dets["j2"]) < 1e-12 * scale
            assert abs(invariant_M(h) + dets["j1"]) < 1e-12 * scale
            # M = N + det of the (a0 a8 a2 a10 / ...) layout
            d_layout = ((0, 8, 2, 10), (1, 9, 3, 11), (4, 12, 6, 14), (5, 13, 7, 15))
            d_value = leibniz_det(np.array([[flat[r] for r in row] for row in d_layout]))
            assert abs(invariant_M(h) - (invariant_N(h) + d_value)) < 1e-12

    def test_zero_padded_pure_product_state_gives_zero(self):
        pure = validate_density(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        d = pad_with_zeros(eigen_decomposition(pure), 2)
        h = hypermatrix(d)
        assert abs(invariant_N(h)) < 1e-15
        assert abs(invariant_M(h)) < 1e-15

    def test_wrong_format_rejected(self):
        # N and M read only the 2x2x2x2 format, the hypermatrix of a
        # two-member decomposition: any other length is refused when built
        for rank in (1, 3):
            d = eigen_decomposition(random_density((2, 2), rank, seed=70 + rank))
            with pytest.raises(UnsupportedFormatError, match=f"got {rank}$"):
                hypermatrix(d)


def det_poly(d):
    """lambda_det of a decomposition, from the F of its Gram spectrum."""
    return lambda_poly(f_invariants(gram_matrix(d).spectrum), inv="det")


def nm_poly(d, inv):
    """lambda_N or lambda_M of a two-member decomposition."""
    return lambda_poly(hypermatrix(d), inv=inv)


class TestLambdaPoly:
    def test_det_on_rho1(self, rho1_decomp):
        p = det_poly(rho1_decomp)
        assert np.allclose(p, [0.25, -1.0, 1.0], atol=1e-12)

    def test_det_agrees_with_trace_recursion(self):
        # independent route: Faddeev-LeVerrier vs the spectral F
        for trial in range(10):
            rho = random_density((2, 3), trial % 4 + 1, seed=200 + trial)
            d = eigen_decomposition(rho)
            p = det_poly(d)
            q = char_poly(gram_matrix(d).omega)
            assert np.allclose(p, q, atol=1e-11)

    def test_constant_term_is_the_invariant(self, sigma2_decomp, sigma1_decomp):
        assert abs(nm_poly(sigma2_decomp, "N")[0]) < 1e-12
        p = nm_poly(sigma1_decomp, "N")
        assert abs(p[0] - invariant_N(hypermatrix(sigma1_decomp))) < 1e-12

    def test_lambda_n_matches_direct_shift_evaluation(self, sigma1_decomp):
        flat = hypermatrix(sigma1_decomp).entries.ravel()
        # the identity hypermatrix: 1 where i1 == j1 and i2 == j2
        eye = np.zeros(16)
        eye[[0, 3, 12, 15]] = 1.0
        # lambda_N and lambda_M are sums of minors; the direct evaluation
        # at arbitrary lambda checks both closed forms
        for inv, layout in (("N", N_LAYOUT), ("M", M_LAYOUT)):
            p = nm_poly(sigma1_decomp, inv)
            for lam in (0.5, 2.5, -1.0):
                shifted = flat - lam * eye
                mat = np.array([[shifted[r] for r in row] for row in layout])
                assert abs(polyval(lam, p) - leibniz_det(mat)) < 1e-10

    def test_coefficients_invariant_under_mixing(self):
        rho = random_density((2, 2), 2, seed=72)
        d = eigen_decomposition(rho)
        base_n = nm_poly(d, "N")
        base_m = nm_poly(d, "M")
        for k in range(20):
            mixed = mix_decomposition(d, haar_unitary(2, seed=300 + k))
            assert np.abs(nm_poly(mixed, "N") - base_n).max() < 1e-8
            assert np.abs(nm_poly(mixed, "M") - base_m).max() < 1e-8

    def test_det_reads_the_f_array(self, rho1_decomp):
        f = f_invariants(gram_matrix(rho1_decomp).spectrum)
        assert type(f) is np.ndarray and f.ndim == 1 and f.dtype == complex
        assert not f.flags.writeable
        assert np.array_equal(lambda_poly(f, inv="det"), (np.array([1.0, -1.0, 1.0]) * f)[::-1])
        with pytest.raises(UnsupportedFormatError, match="2-d array"):
            lambda_poly(f[np.newaxis], inv="det")

    def test_built_object_of_wrong_kind_or_format_rejected(self, rho1_decomp):
        with pytest.raises(UnsupportedFormatError):
            lambda_poly(hypermatrix(rho1_decomp), inv="det")
        with pytest.raises(UnsupportedFormatError):
            lambda_poly(gram_matrix(rho1_decomp), inv="N")
        with pytest.raises(UnsupportedFormatError):
            lambda_poly(gram_matrix(rho1_decomp), inv="det")

    def test_unsupported_combinations(self, rho1_decomp):
        h = hypermatrix(rho1_decomp)
        with pytest.raises(UnsupportedFormatError):
            lambda_poly(h, inv="Q")
        # the order follows from inv, which is passed by keyword only
        with pytest.raises(TypeError):
            lambda_poly(h, 2, "N")
        # a decomposition is not evaluated: nothing is built from it
        for inv in ("det", "N", "M"):
            with pytest.raises(UnsupportedFormatError, match="PureStateDecomposition"):
                lambda_poly(rho1_decomp, inv=inv)


def layout_matrix(h, layout) -> np.ndarray:
    flat = h.entries.ravel()
    return np.array([[flat[r] for r in row] for row in layout])


def cofactor(x, i, j) -> complex:
    return (-1) ** (i + j) * determinant(np.delete(np.delete(x, i, axis=0), j, axis=1))


def random_hypermatrix(rng, kind) -> Hypermatrix:
    """A hand-built 2x2x2x2 hypermatrix of complex Gaussian entries:
    ``"well-scaled"``; ``"singular-N"`` / ``"singular-M"``, whose N or M
    layout has rank 2; or ``"tiny"``, entries of about 1e-8."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    flat = gauss(16)
    if kind.startswith("singular"):
        layout = N_LAYOUT if kind == "singular-N" else M_LAYOUT
        flat[np.array(layout)] = gauss(4, 2) @ gauss(2, 4)
    return Hypermatrix(entries=(1e-8 if kind == "tiny" else 1.0) * flat.reshape(2, 2, 2, 2))


class TestClosedForms:
    """N, M, lambda_N and lambda_M are sums of 4x4 minors on Python
    scalars; ``linalg.determinant`` (LU) and ``char_poly``
    (Faddeev-LeVerrier) are the oracles."""

    @pytest.mark.parametrize("kind", ["well-scaled", "singular-N", "singular-M", "tiny"])
    def test_minors_match_lu_and_trace_recursion(self, kind):
        rng = np.random.default_rng(["well-scaled", "singular-N", "singular-M", "tiny"].index(kind))
        for _ in range(20):
            h = random_hypermatrix(rng, kind)
            xn, xm = layout_matrix(h, N_LAYOUT), layout_matrix(h, M_LAYOUT)
            det_m = determinant(xm)
            # -u^T adj(X) u by 3x3 cofactors: det(X - u u^T) - det X by LU
            # loses the relative accuracy of a slope of 1e-24 to the unit
            # entries of u u^T
            slope = -sum(cofactor(xm, i, j) for i in (0, 3) for j in (0, 3))
            cases = (
                (lambda_poly(h, inv="N"), char_poly(xn), np.abs(xn).max()),
                (lambda_poly(h, inv="M"), [det_m, slope], np.abs(xm).max()),
            )
            for got, want, scale in cases:
                # coefficient k is a sum of minors of order 4 - k, each a
                # sum of at most 24 products, so its rounding scales as
                # scale**(4 - k)
                for k, (g, w) in enumerate(zip(got, want)):
                    assert abs(g - w) <= 1e-13 * scale ** (4 - k), (k, g, w)
            assert abs(invariant_N(h) - determinant(xn)) <= 1e-13 * np.abs(xn).max() ** 4
            assert abs(invariant_M(h) - det_m) <= 1e-13 * np.abs(xm).max() ** 4

    def test_constant_terms_are_the_invariants_exactly(self, sigma1_decomp):
        rng = np.random.default_rng(98)
        for h in [hypermatrix(sigma1_decomp)] + [
            random_hypermatrix(rng, kind) for kind in ("well-scaled", "singular-N", "tiny")
        ]:
            assert lambda_poly(h, inv="N")[0] == invariant_N(h)
            assert lambda_poly(h, inv="M")[0] == invariant_M(h)


class TestPaddingLaw:
    def test_lambda_factor_exact(self):
        for trial in range(8):
            rank = trial % 4 + 1
            rho = random_density((2, 2), rank, seed=400 + trial)
            d = eigen_decomposition(rho)
            base = det_poly(d)
            for j in (rank + 1, rank + 2):
                padded = det_poly(pad_with_zeros(d, j))
                # times lambda**(j - rank): j - rank zero coefficients in front
                expected = np.pad(base, (j - rank, 0))
                assert padded.shape == expected.shape == (j + 1,)
                assert np.abs(padded - expected).max() < 1e-9


class TestRealignment:
    def test_rho_pair_kyfan(self, rho1, rho2):
        target = 1.0 / np.sqrt(2.0)
        assert abs(realignment_kyfan(rho1) - target) < 1e-10
        assert abs(realignment_kyfan(rho2) - target) < 1e-10

    def test_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4.0, (2, 2))
        assert abs(realignment_kyfan(rho) - 0.5) < 1e-12

    @pytest.mark.parametrize("dims, cut", REALIGNMENT_CASES, ids=REALIGNMENT_IDS)
    @pytest.mark.parametrize("rank", [1, 2, "full"], ids=lambda r: f"rank{r}")
    def test_kyfan_matches_complex_svd_oracle(self, dims, cut, rank):
        rho = realignment_case(dims, cut, rank, seed=82)
        r = realign_loops(rho.mat, *rho.dims)
        expected = np.linalg.svd(r, compute_uv=False).sum()
        kyfan = realignment_kyfan(rho)
        assert abs(kyfan - expected) < 2 * max(r.shape) * EPS * max(kyfan, 1.0)

    @pytest.mark.parametrize("dims, cut", REALIGNMENT_CASES, ids=REALIGNMENT_IDS)
    def test_real_matrix_is_swap_adapted_change_of_basis(self, dims, cut):
        rho = realignment_case(dims, cut, 2, seed=83)
        n, m = rho.dims
        qn, qm = ((1 - 1j) / 2 * (np.eye(d * d) + 1j * swap_matrix(d)) for d in (n, m))
        assert np.abs(qn.conj().T @ qn - np.eye(n * n)).max() < 1e-15
        dense = qn.conj().T @ realign_loops(rho.mat, n, m) @ qm
        assert np.abs(dense.imag).max() <= 1e-15
        real = _real_realignment(rho)
        assert real.dtype == np.float64
        assert np.abs(real - dense.real).max() <= 1e-15

    def test_non_bipartite_rejected(self):
        rho = random_density((2, 2, 2), 2, seed=75)
        with pytest.raises(NotBipartiteError):
            realignment_kyfan(rho)

    def test_lu_invariance_of_kyfan(self):
        from lu_invar.states import apply_local_unitary_density

        rho = random_density((2, 3), 3, seed=76)
        moved = apply_local_unitary_density(
            rho, [haar_unitary(2, seed=77), haar_unitary(3, seed=78)]
        )
        assert abs(realignment_kyfan(rho) - realignment_kyfan(moved)) < 1e-10


class TestDecompositionIndependence:
    def test_f_invariants_across_mixings(self):
        for trial in range(10):
            dims = (2, 2) if trial % 2 else (2, 3)
            rank = trial % 4 + 1
            rho = random_density(dims, rank, seed=500 + trial)
            d = eigen_decomposition(rho)
            base = f_invariants(gram_matrix(d).spectrum)
            for k in range(10):
                mixed = mix_decomposition(d, haar_unitary(rank, seed=600 + 10 * trial + k))
                assert np.abs(f_invariants(gram_matrix(mixed).spectrum) - base).max() < 1e-9

    def test_omega_entrywise_lu_invariance(self):
        for trial in range(10):
            dims = (2, 2) if trial % 2 else (2, 3)
            rho = random_density(dims, trial % 4 + 1, seed=700 + trial)
            d = eigen_decomposition(rho)
            p = haar_unitary(dims[0], seed=800 + trial)
            q = haar_unitary(dims[1], seed=900 + trial)
            moved = apply_local_unitary(d, p, q)
            assert np.abs(gram_matrix(moved).omega - gram_matrix(d).omega).max() < 1e-10

    def test_hypermatrix_entrywise_lu_invariance(self):
        rho = random_density((2, 2), 2, seed=79)
        d = eigen_decomposition(rho)
        moved = apply_local_unitary(d, haar_unitary(2, seed=80), haar_unitary(2, seed=81))
        before = hypermatrix(d).entries
        after = hypermatrix(moved).entries
        assert np.abs(before - after).max() < 1e-10

    def test_degeneracy_robustness(self, rho1):
        # rho1 has a twofold-degenerate eigenvalue; rotating within the
        # degenerate eigenspace is another valid eigen decomposition
        d = eigen_decomposition(rho1)
        base_f = f_invariants(gram_matrix(d).spectrum)
        base_n = invariant_N(hypermatrix(d))
        for k in range(10):
            rotated = mix_decomposition(d, haar_unitary(2, seed=1000 + k))
            assert np.abs(f_invariants(gram_matrix(rotated).spectrum) - base_f).max() < 1e-9
            assert abs(invariant_N(hypermatrix(rotated)) - base_n) < 1e-9
