import math

import numpy as np
import pytest

from lu_invar.errors import (
    BadCutError,
    BadLengthError,
    BadShapeError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    NotUnitaryError,
)
from lu_invar.invariants import gram_matrix
from lu_invar.linalg import char_poly, haar_unitary, hermitian_eig, hermitian_part
from lu_invar.states import (
    DensityMatrix,
    apply_local_unitary,
    apply_local_unitary_density,
    eigen_decomposition,
    flatten_multipartite,
    make_decomposition,
    merge_cut,
    mix_decomposition,
    pad_with_zeros,
    random_density,
    random_local_unitaries,
    validate_density,
)
from oracles import reconstruct

SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestValidateDensity:
    def test_rho1_valid(self):
        rho = validate_density(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
        assert rho.dims == (2, 2)
        assert rho.mat.shape[0] == 4

    def test_stores_tolerance(self):
        rho = validate_density(np.diag([0.5, 0.5]), (2,), tol=1e-9)
        assert rho.tol == 1e-9

    def test_trace_two_rejected(self):
        with pytest.raises(NotUnitTraceError, match="NotUnitTrace"):
            validate_density(np.diag([1.0, 1.0]), (2,))

    def test_non_hermitian_rejected(self):
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat[0, 1] = 1e-3
        with pytest.raises(NotHermitianError, match="NotHermitian"):
            validate_density(mat, (2, 2))

    def test_negative_eigenvalue_rejected(self):
        mat = np.diag([0.6, 0.5, -0.1, 0.0])
        with pytest.raises(NotPSDError, match="NotPSD"):
            validate_density(mat, (2, 2))

    def test_non_contiguous_input_accepted(self, rho1):
        # the transpose of a state is a state; neither it nor a Fortran-order
        # array has a contiguous last axis
        t = validate_density(rho1.mat.T, rho1.dims)
        assert np.array_equal(t.mat, rho1.mat.T)
        f = validate_density(np.asfortranarray(np.eye(4) / 4.0), (2, 2))
        assert np.array_equal(f.mat, np.eye(4) / 4.0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.eye(3) / 3.0, (2, 2))

    def test_subsystem_dimension_one_rejected(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.eye(2) / 2.0, (2, 1))


class TestSpectrum:
    def test_validation_keeps_its_eigvalsh(self):
        # read-only, ascending, and bitwise the eigvalsh of the Hermitian part
        for dims, rank in (((2, 2), 4), ((2, 3), 2), ((2, 2, 2), 8)):
            rho = random_density(dims, rank, seed=30 + rank)
            w = rho.spectrum
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 0.0
            assert np.array_equal(w, np.linalg.eigvalsh(hermitian_part(rho.mat)))
            assert rho.spectrum is w

    def test_merge_cut_forwards_it(self):
        rho = random_density((2, 2, 2), 3, seed=33)
        assert merge_cut(rho, 2).spectrum is rho.spectrum

    def test_merge_cut_of_a_bipartite_state_is_the_state(self):
        rho = random_density((2, 3), 2, seed=34)
        assert merge_cut(rho) is rho
        with pytest.raises(BadCutError):
            merge_cut(rho, 2)

    def test_hand_built_state_checked_on_first_use(self, rho1):
        by_hand = DensityMatrix(dims=rho1.dims, mat=rho1.mat, tol=rho1.tol)
        assert "spectrum" not in vars(by_hand)
        assert np.array_equal(by_hand.spectrum, rho1.spectrum)
        mat = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(NotPSDError, match="NotPSD"):
            DensityMatrix(dims=(2, 2), mat=mat, tol=1e-10).spectrum
        mat = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        mat[0, 1] = 1e-6
        with pytest.raises(NotHermitianError):
            DensityMatrix(dims=(2, 2), mat=mat, tol=1e-10).spectrum

    def test_hand_built_state_checked_as_validation_would(self):
        # the same checks as validate_density, at the state's own tol
        with pytest.raises(NotUnitTraceError, match="NotUnitTrace"):
            DensityMatrix(dims=(2, 2), mat=np.zeros((4, 4), dtype=complex), tol=1e-10).spectrum
        with pytest.raises(NotUnitTraceError):
            DensityMatrix(dims=(2, 2), mat=np.eye(4, dtype=complex) / 2.0, tol=1e-10).spectrum
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(dims=(2, 2), mat=np.eye(3, dtype=complex) / 3.0, tol=1e-10).spectrum
        # no 1e-10 floor: a residual of 1e-11 fails a tol of 1e-12
        mat = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        mat[0, 1] = 1e-11
        assert len(DensityMatrix(dims=(2, 2), mat=mat, tol=1e-10).spectrum) == 4
        with pytest.raises(NotHermitianError):
            DensityMatrix(dims=(2, 2), mat=mat, tol=1e-12).spectrum


class TestEigenDecomposition:
    def test_rho1(self, rho1):
        d = eigen_decomposition(rho1)
        assert len(d) == 2
        assert d.n == 2 and d.m == 2
        assert np.abs(reconstruct(d) - rho1.mat).max() < 1e-10
        # degenerate spectrum: any orthonormal basis is fine, weights fixed
        assert all(abs(np.vdot(a, a).real - 0.5) < 1e-12 for a in d.stack)

    def test_sigma2_entries(self, sigma2):
        d = eigen_decomposition(sigma2)
        assert len(d) == 2
        expected0 = np.zeros((2, 2)); expected0[0, 0] = np.sqrt(2.0 / 3.0)
        expected1 = np.zeros((2, 2)); expected1[1, 1] = 1.0 / np.sqrt(3.0)
        # eigenvectors carry an arbitrary global phase
        assert np.abs(np.abs(d.stack[0]) - expected0).max() < 1e-12
        assert np.abs(np.abs(d.stack[1]) - expected1).max() < 1e-12

    def test_pure_state(self):
        rho = validate_density(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        d = eigen_decomposition(rho)
        assert len(d) == 1
        assert np.abs(np.abs(d.stack[0]) - np.array([[1.0, 0.0], [0.0, 0.0]])).max() < 1e-12

    def test_reconstruction_roundtrip_random(self):
        for trial in range(12):
            dims = [(2, 2), (2, 3), (3, 3)][trial % 3]
            rank = trial % 4 + 1
            rho = random_density(dims, rank, seed=100 + trial)
            d = eigen_decomposition(rho)
            assert len(d) == rank
            assert np.abs(reconstruct(d) - rho.mat).max() < 1e-9
            assert abs(np.vdot(d.stack, d.stack).real - 1.0) < 1e-10

    def test_gram_is_diagonal_of_eigenvalues(self):
        rho = random_density((2, 2), 3, seed=6)
        d = eigen_decomposition(rho)
        omega = gram_matrix(d).omega
        w = np.sort(np.linalg.eigvalsh(rho.mat))[::-1][:3]
        assert np.abs(omega - np.diag(w)).max() < 1e-10

    def test_multipartite_stack_matches_per_member_oracle(self):
        # oracle: member i built on its own as sqrt(w_i) * flatten(v_i);
        # an eigenvector carries an arbitrary phase, so each member may
        # differ from its oracle by one unit-modulus factor
        for dims in ((2, 2, 2), (2, 3, 2)):
            size = math.prod(dims)
            for cut in (1, 2):
                for rank in (1, 2, size):
                    rho = random_density(dims, rank, seed=10 * size + rank + cut)
                    d = eigen_decomposition(rho, cut=cut)
                    assert (d.n, d.m) == (math.prod(dims[:cut]), math.prod(dims[cut:]))
                    assert len(d) == rank
                    assert np.abs(reconstruct(d) - rho.mat).max() < 1e-10
                    w, v = hermitian_eig(rho.mat, tol=max(rho.tol, 1e-10))
                    for i, a in enumerate(d.stack):
                        oracle = np.sqrt(w[i]) * flatten_multipartite(v[:, i], dims, cut)
                        overlap = np.vdot(oracle, a)
                        phase = overlap / abs(overlap)
                        assert np.abs(a - phase * oracle).max() <= 1e-12

    def test_zero_rank_tol_counts_no_rounding_noise(self):
        # rank_tol 0 keeps every eigenvalue above zero, but the pivoted
        # factor stops at the rounding level of its Schur complement, so a
        # rank-2 state keeps its two members and no column of noise
        for dims in ((2, 2), (3, 3), (8, 8)):
            for seed in range(8):
                rho = random_density(dims, 2, seed=1020 + seed)
                d = eigen_decomposition(rho, rank_tol=0.0)
                assert len(d) == 2
                assert np.abs(reconstruct(d) - rho.mat).max() <= 1e-12

    def test_given_rank_tol_keeps_top_eigenvalues_in_any_basis(self):
        # noise eigenvalues near 1e-7 sit far below rank_tol 1e-4 but far
        # above the factor's stopping threshold, so the factor keeps them
        # and the two kept Gram eigenvalues are rho's top two, whatever
        # local basis rho is written in
        w = [0.6, 0.4 - 2.5e-7, 1.5e-7, 1e-7]
        for seed in range(4):
            u = haar_unitary(4, seed=1040 + seed)
            rho = validate_density((u * np.asarray(w)) @ u.conj().T, (2, 2))
            for k in range(4):
                moved = apply_local_unitary_density(
                    rho, random_local_unitaries((2, 2), seed=1050 + 10 * seed + k)
                )
                d = eigen_decomposition(moved, rank_tol=1e-4)
                assert len(d) == 2
                vecs = d.stack.reshape(len(d), -1)  # gram_matrix refuses trace 1 - 2.5e-7
                kept = np.linalg.eigvalsh(vecs @ vecs.conj().T)[::-1]
                assert np.abs(kept - w[:2]).max() <= 1e-13

    def test_stack_read_only_and_not_copied(self, rho1):
        d = eigen_decomposition(rho1)
        stack = d.stack
        assert not stack.flags.writeable
        assert not stack[0].flags.writeable
        assert np.shares_memory(stack, stack[0])

    def test_cut_out_of_range(self):
        rho = random_density((2, 2, 2), 2, seed=8)
        for cut in (0, 3):
            with pytest.raises(BadCutError):
                eigen_decomposition(rho, cut=cut)


class TestMakeDecomposition:
    def test_copies_once_into_a_stack(self):
        mats = [np.eye(2), np.ones((2, 2))]
        d = make_decomposition(mats)
        mats[0][0, 0] = 5.0
        assert d.stack.shape == (2, 2, 2)
        assert np.array_equal(d.stack[0], np.eye(2))

    def test_non_contiguous_stack(self):
        stack = np.arange(12.0).reshape(2, 2, 3) * (1 + 1j)
        d = make_decomposition(stack.transpose(0, 2, 1))
        assert np.array_equal(d.stack, stack.transpose(0, 2, 1))
        with pytest.raises(BadShapeError):
            make_decomposition(np.where(stack == 0, np.nan, stack).transpose(0, 2, 1))

    def test_invalid_input_rejected(self):
        with pytest.raises(DimensionMismatchError):
            make_decomposition([np.eye(2), np.ones((2, 3))])
        with pytest.raises(BadLengthError):
            make_decomposition([])
        with pytest.raises(BadShapeError):
            make_decomposition([np.ones(2), np.ones(2)])
        with pytest.raises(BadShapeError):
            make_decomposition([np.array([[np.nan, 0.0], [0.0, 1.0]])])


class TestMixDecomposition:
    def test_identity_is_noop(self, rho1_decomp):
        mixed = mix_decomposition(rho1_decomp, np.eye(2))
        for a, b in zip(mixed.stack, rho1_decomp.stack):
            assert np.array_equal(a, b)

    def test_hadamard_mix_of_rho1(self, rho1_decomp, rho1):
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        mixed = mix_decomposition(rho1_decomp, u)
        for b in mixed.stack:
            assert np.abs(np.abs(b[0]) - 0.5).max() < 1e-12  # two entries of size 1/2 in row 0
            assert np.abs(b[1]).max() < 1e-12
        assert np.abs(reconstruct(mixed) - rho1.mat).max() < 1e-10

    def test_phase_mix_conjugates_gram(self):
        rho = random_density((2, 2), 2, seed=8)
        d = eigen_decomposition(rho)
        u = np.diag(np.exp(1j * np.array([0.3, -1.1])))
        omega = gram_matrix(d).omega
        mixed_omega = gram_matrix(mix_decomposition(d, u)).omega
        assert np.abs(mixed_omega - u @ omega @ u.conj().T).max() < 1e-10

    def test_reconstruction_preserved_many_mixings(self):
        rho = random_density((2, 3), 3, seed=9)
        d = eigen_decomposition(rho)
        for k in range(100):
            mixed = mix_decomposition(d, haar_unitary(3, seed=1000 + k))
            assert np.abs(reconstruct(mixed) - rho.mat).max() < 1e-9

    def test_wrong_size_rejected(self, rho1_decomp):
        with pytest.raises(DimensionMismatchError):
            mix_decomposition(rho1_decomp, np.eye(3))

    def test_non_unitary_rejected(self, rho1_decomp):
        with pytest.raises(NotUnitaryError):
            mix_decomposition(rho1_decomp, np.array([[1.0, 0.0], [1.0, 1.0]]))


class TestPadWithZeros:
    def test_identity_when_equal(self, rho1_decomp):
        padded = pad_with_zeros(rho1_decomp, 2)
        assert len(padded) == 2

    def test_char_poly_gains_lambda_factor(self, rho1_decomp):
        base = char_poly(gram_matrix(rho1_decomp).omega)
        padded = pad_with_zeros(rho1_decomp, 4)
        bigger = char_poly(gram_matrix(padded).omega)
        assert np.allclose(bigger, np.pad(base, (2, 0)), atol=1e-12)

    def test_padded_pure_state_gram(self):
        rho = validate_density(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        d = pad_with_zeros(eigen_decomposition(rho), 3)
        assert np.abs(gram_matrix(d).omega - np.diag([1.0, 0.0, 0.0])).max() < 1e-12

    def test_shrinking_rejected(self, rho1_decomp):
        with pytest.raises(BadLengthError):
            pad_with_zeros(rho1_decomp, 1)

    def test_pad_then_mix_still_reconstructs(self, rho1_decomp, rho1):
        padded = pad_with_zeros(rho1_decomp, 4)
        mixed = mix_decomposition(padded, haar_unitary(4, seed=17))
        assert np.abs(reconstruct(mixed) - rho1.mat).max() < 1e-9


class TestApplyLocalUnitary:
    def test_identity_noop(self, rho1_decomp):
        out = apply_local_unitary(rho1_decomp, np.eye(2), np.eye(2))
        for a, b in zip(out.stack, rho1_decomp.stack):
            assert np.abs(a - b).max() < 1e-15

    def test_swap_on_rho1_moves_row_keeps_gram(self, rho1_decomp):
        out = apply_local_unitary(rho1_decomp, SWAP2, np.eye(2))
        assert abs(out.stack[0][1, 0] - 1.0 / np.sqrt(2.0)) < 1e-12
        assert abs(out.stack[1][1, 1] - 1.0 / np.sqrt(2.0)) < 1e-12
        assert np.abs(gram_matrix(out).omega - np.diag([0.5, 0.5])).max() < 1e-12

    def test_gram_entries_invariant_random(self):
        rho = random_density((2, 3), 3, seed=42)
        d = eigen_decomposition(rho)
        p = haar_unitary(2, seed=43)
        q = haar_unitary(3, seed=44)
        out = apply_local_unitary(d, p, q)
        stack_in, stack_out = d.stack, out.stack
        for i in range(3):
            for j in range(3):
                before = np.trace(stack_in[i] @ stack_in[j].conj().T)
                after = np.trace(stack_out[i] @ stack_out[j].conj().T)
                assert abs(before - after) < 1e-10

    def test_commutes_with_density_action(self):
        rho = random_density((2, 2), 2, seed=45)
        p = haar_unitary(2, seed=46)
        q = haar_unitary(2, seed=47)
        via_decomp = reconstruct(apply_local_unitary(eigen_decomposition(rho), p, q))
        via_density = apply_local_unitary_density(rho, [p, q]).mat
        assert np.abs(via_decomp - via_density).max() < 1e-9

    def test_wrong_shape_rejected(self, rho1_decomp):
        with pytest.raises(DimensionMismatchError):
            apply_local_unitary(rho1_decomp, np.eye(3), np.eye(2))

    def test_non_unitary_rejected(self, rho1_decomp):
        with pytest.raises(NotUnitaryError):
            apply_local_unitary(rho1_decomp, 2.0 * np.eye(2), np.eye(2))


class TestApplyLocalUnitaryDensity:
    def test_identity(self, rho1):
        out = apply_local_unitary_density(rho1, [np.eye(2), np.eye(2)])
        assert np.abs(out.mat - rho1.mat).max() < 1e-12

    def test_swap_on_first_qubit(self, rho1):
        out = apply_local_unitary_density(rho1, [SWAP2, np.eye(2)])
        assert np.abs(out.mat - np.diag([0.0, 0.0, 0.5, 0.5])).max() < 1e-12

    def test_spectrum_preserved(self):
        rho = random_density((2, 3), 4, seed=48)
        locals_ = [haar_unitary(2, seed=49), haar_unitary(3, seed=50)]
        out = apply_local_unitary_density(rho, locals_)
        w_in = np.linalg.eigvalsh(rho.mat)
        w_out = np.linalg.eigvalsh(out.mat)
        assert np.abs(w_in - w_out).max() < 1e-10

    def test_wrong_count_rejected(self, rho1):
        with pytest.raises(DimensionMismatchError):
            apply_local_unitary_density(rho1, [np.eye(4)])


class TestFlattenMultipartite:
    def test_bipartite_matches_plain_reshape(self):
        coeffs = np.arange(6, dtype=complex)
        out = flatten_multipartite(coeffs, (2, 3), 1)
        assert np.array_equal(out, coeffs.reshape(2, 3))

    def test_ghz_cut_one(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
        out = flatten_multipartite(ghz, (2, 2, 2), 1)
        expected = np.zeros((2, 4), dtype=complex)
        expected[0, 0] = expected[1, 3] = 1.0 / np.sqrt(2.0)
        assert np.array_equal(out, expected)

    def test_product_state_rank_one_every_cut(self):
        rng = np.random.default_rng(51)
        parts = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 3, 2)]
        coeffs = np.einsum("i,j,k->ijk", *parts).reshape(-1)
        for cut in (1, 2):
            out = flatten_multipartite(coeffs, (2, 3, 2), cut)
            assert np.linalg.matrix_rank(out) == 1

    def test_bad_cut(self):
        with pytest.raises(BadCutError):
            flatten_multipartite(np.zeros(4), (2, 2), 2)

    def test_bad_length(self):
        with pytest.raises(BadLengthError):
            flatten_multipartite(np.zeros(5), (2, 2), 1)
