import dataclasses
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
from lu_invar.equivalence import fingerprint
from lu_invar.invariants import gram_matrix, hypermatrix
from lu_invar.linalg import char_poly, haar_unitary, hermitian_eig, hermitian_part
from lu_invar.states import (
    EIGH_MAX_N,
    DensityMatrix,
    apply_local_unitary,
    apply_local_unitary_density,
    eigen_decomposition,
    make_decomposition,
    merge_cut,
    mix_decomposition,
    numerical_rank,
    pad_with_zeros,
    random_density,
    random_local_unitaries,
    validate_density,
)
from oracles import flatten_multipartite, reconstruct

SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestValidateDensity:
    def test_rho1_valid(self):
        rho = validate_density(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
        assert rho.dims == (2, 2)
        assert rho.mat.shape[0] == 4

    def test_trace_two_rejected(self):
        with pytest.raises(NotUnitTraceError, match="NotUnitTrace"):
            validate_density(np.diag([0.5, 0.5, 0.5, 0.5]), (2, 2))

    def test_non_hermitian_rejected(self):
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat[0, 1] = 1e-3
        with pytest.raises(NotHermitianError, match="NotHermitian"):
            validate_density(mat, (2, 2))

    def test_negative_eigenvalue_rejected(self):
        mat = np.diag([0.6, 0.5, -0.1, 0.0])
        with pytest.raises(NotPSDError, match="NotPSD"):
            validate_density(mat, (2, 2))

    def test_stores_the_hermitian_part(self):
        # the state is the Hermitian part of its matrix, which eigvalsh saw;
        # an exactly Hermitian matrix is its own Hermitian part, bitwise
        rho = random_density((2, 3), 2, seed=7)
        mat = np.array(rho.mat)
        mat[0, 1] += 2e-11
        asym = validate_density(mat, (2, 3))
        assert np.array_equal(asym.mat, hermitian_part(mat))
        assert np.array_equal(asym.mat, asym.mat.conj().T)
        assert np.array_equal(validate_density(asym.mat, (2, 3)).mat, asym.mat)
        assert not asym.mat.flags.writeable
        mat[0, 1] = 0.0  # the input is not kept
        assert asym.mat[0, 1] != 0.0

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

    def test_single_subsystem_rejected(self):
        # a state is split into at least two parties, or no cut exists
        with pytest.raises(DimensionMismatchError, match="at least two subsystems"):
            validate_density(np.eye(4) / 4.0, (4,))
        with pytest.raises(DimensionMismatchError, match="at least two subsystems"):
            DensityMatrix(dims=(4,), mat=np.eye(4) / 4.0)


class TestSpectrum:
    def test_validation_keeps_its_eigen_solve(self):
        # read-only and ascending: up to EIGH_MAX_N bitwise the eigenpairs
        # of one eigh of the Hermitian part, above it bitwise its eigvalsh
        # and no eigenvectors
        cases = (((2, 2), 4), ((2, 3), 2), ((2, 2, 2), 8), ((3, 4), 2), ((2, 7), 2), ((4, 4), 3))
        for dims, rank in cases:
            rho = random_density(dims, rank, seed=30 + rank)
            w, v = rho.spectrum, rho.eigenvectors
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 0.0
            h = hermitian_part(rho.mat)
            if math.prod(dims) <= EIGH_MAX_N:
                want_w, want_v = np.linalg.eigh(h)
                assert not v.flags.writeable
                assert np.array_equal(v, want_v)
            else:
                want_w = np.linalg.eigvalsh(h)
                assert v is None
            assert np.array_equal(w, want_w)
            assert rho.spectrum is w and rho.eigenvectors is v

    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (2, 7), (4, 4)], ids=str)
    def test_validation_runs_one_eigen_solve(self, dims, eigen_solves):
        # one eigh up to EIGH_MAX_N and no eigvalsh; one eigvalsh above it
        # and no eigh
        n = math.prod(dims)
        random_density(dims, 2, seed=n)
        small = n <= EIGH_MAX_N
        assert eigen_solves == {"eigh": [(n, n)] * small, "eigvalsh": [(n, n)] * (not small)}

    @pytest.mark.parametrize("by_hand", [False, True], ids=["validated", "by-hand"])
    def test_one_eigen_solve_when_built(self, by_hand, eigen_solves):
        # construction runs the one eigh, validated or by hand; later
        # reads, the merge_cut views and the members read from them run
        # none, and all are those of the validated twin
        twin = random_density((2, 3, 2), 2, seed=35)
        mat = np.array(twin.mat)
        eigen_solves["eigh"].clear()
        if by_hand:
            rho = DensityMatrix(dims=twin.dims, mat=mat)
        else:
            rho = validate_density(mat, twin.dims)
        assert eigen_solves == {"eigh": [(12, 12)], "eigvalsh": []}
        assert np.array_equal(rho.spectrum, twin.spectrum)
        assert np.array_equal(rho.eigenvectors, twin.eigenvectors)
        for cut in (1, 2):
            bip, twin_bip = merge_cut(rho, cut), merge_cut(twin, cut)
            assert bip.spectrum is rho.spectrum and bip.eigenvectors is rho.eigenvectors
            assert np.array_equal(eigen_decomposition(bip).stack, eigen_decomposition(twin_bip).stack)
        assert eigen_solves == {"eigh": [(12, 12)], "eigvalsh": []}

    def test_merge_cut_forwards_it(self):
        rho = random_density((2, 2, 2), 3, seed=33)
        assert merge_cut(rho, 2).spectrum is rho.spectrum
        assert merge_cut(rho, 2).eigenvectors is rho.eigenvectors

    def test_merge_cut_view_runs_no_eigen_solve(self, eigen_solves):
        # the view of a validated (2,2,2) state is of the same matrix: its
        # rank-2 members are read from the state's eigenvectors
        rho = random_density((2, 2, 2), 2, seed=36)
        eigen_solves["eigh"].clear()
        for cut in (1, 2):
            bip = merge_cut(rho, cut)
            d = eigen_decomposition(bip, numerical_rank(bip.spectrum))
            assert len(d) == 2 and (d.n, d.m) == bip.dims
            assert np.abs(reconstruct(d) - rho.mat).max() <= 1e-12
        assert eigen_solves == {"eigh": [], "eigvalsh": []}

    def test_merge_cut_of_a_bipartite_state_is_the_state(self):
        rho = random_density((2, 3), 2, seed=34)
        assert merge_cut(rho) is rho
        with pytest.raises(BadCutError):
            merge_cut(rho, 2)

    def test_hand_built_state_checked_when_built(self, rho1):
        # construction raises what validate_density raises, message and all
        by_hand = DensityMatrix(dims=rho1.dims, mat=rho1.mat)
        assert np.array_equal(by_hand.spectrum, rho1.spectrum)
        not_psd = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        not_hermitian = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        not_hermitian[0, 1] = 1e-6
        for mat, error in ((not_psd, NotPSDError), (not_hermitian, NotHermitianError)):
            with pytest.raises(error) as valid:
                validate_density(mat, (2, 2))
            with pytest.raises(error) as built:
                DensityMatrix(dims=(2, 2), mat=mat)
            assert str(built.value) == str(valid.value)

    def test_hand_built_state_holds_its_hermitian_part(self):
        # from construction, a state built by hand reads the matrix
        # validation stores, so both read one Hermitian matrix
        mat = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        mat[0, 1] = 2e-11
        by_hand = DensityMatrix(dims=(2, 2), mat=mat)
        assert by_hand.mat is not mat and not by_hand.mat.flags.writeable
        valid = validate_density(mat, (2, 2))
        assert np.array_equal(by_hand.spectrum, valid.spectrum)
        assert np.array_equal(by_hand.mat, valid.mat)
        assert np.array_equal(by_hand.mat, hermitian_part(mat))

    def test_hand_built_state_checked_as_validation_would(self):
        # the same checks as validate_density, at DENSITY_TOL
        with pytest.raises(NotUnitTraceError, match="NotUnitTrace"):
            DensityMatrix(dims=(2, 2), mat=np.zeros((4, 4), dtype=complex))
        with pytest.raises(NotUnitTraceError):
            DensityMatrix(dims=(2, 2), mat=np.eye(4, dtype=complex) / 2.0)
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(dims=(2, 2), mat=np.eye(3, dtype=complex) / 3.0)
        # a residual of 1e-11 passes DENSITY_TOL, one of 2e-10 fails it
        mat = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        mat[0, 1] = 1e-11
        assert len(DensityMatrix(dims=(2, 2), mat=mat).spectrum) == 4
        mat[0, 1] = 2e-10
        with pytest.raises(NotHermitianError, match=r"> tol 1\.000e-10"):
            DensityMatrix(dims=(2, 2), mat=mat)


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
        # differ from its oracle by one unit-modulus factor. A state not
        # viewed across a cut splits after its first subsystem
        for dims in ((2, 2, 2), (2, 3, 2)):
            size = math.prod(dims)
            for cut in (1, 2):
                for rank in (1, 2, size):
                    rho = random_density(dims, rank, seed=10 * size + rank + cut)
                    d = eigen_decomposition(merge_cut(rho, cut))
                    assert (d.n, d.m) == (math.prod(dims[:cut]), math.prod(dims[cut:]))
                    assert len(d) == rank
                    if cut == 1:
                        assert np.array_equal(eigen_decomposition(rho).stack, d.stack)
                    assert np.abs(reconstruct(d) - rho.mat).max() < 1e-10
                    w, v = hermitian_eig(rho.mat)
                    for i, a in enumerate(d.stack):
                        oracle = np.sqrt(w[i]) * flatten_multipartite(v[:, i], dims, cut)
                        overlap = np.vdot(oracle, a)
                        phase = overlap / abs(overlap)
                        assert np.abs(a - phase * oracle).max() <= 1e-12

    def test_zero_rank_tol_counts_no_rounding_noise(self, solver):
        # rank_tol 0 keeps every eigenvalue above the noise floor n eps
        # lambda_max, and the decomposition keeps no more: a rank-2 state
        # keeps its two members and no member of noise, by either solver
        for dims in ((2, 2), (3, 3), (8, 8)):
            for seed in range(8):
                rho = random_density(dims, 2, seed=1020 + seed)
                d = eigen_decomposition(rho, numerical_rank(rho.spectrum, rank_tol=0.0))
                assert len(d) == 2
                assert np.abs(reconstruct(d) - rho.mat).max() <= 1e-12

    def test_given_rank_kept_and_below_one_refused(self):
        rho = random_density((2, 3), 4, seed=1070)
        for rank in (1, 2, 3):
            assert len(eigen_decomposition(rho, rank)) == rank
        assert len(eigen_decomposition(rho)) == numerical_rank(rho.spectrum) == 4
        for rank in (0, -1):
            with pytest.raises(BadLengthError):
                eigen_decomposition(rho, rank)

    def test_factor_runs_to_the_given_rank(self, solver):
        # at rank_tol 0 an eigenvalue of 1e-14 counts in rho's rank, above
        # the noise floor 4 eps lambda_max, but sits below the factor's
        # stopping threshold of about 1e-13; the factor still runs to the
        # given rank, so the decomposition keeps three members in every
        # basis, the third of Gram eigenvalue 1e-14 within rounding
        w = [0.6, 0.4 - 1e-14, 1e-14, 0.0]
        for seed in range(4):
            u = haar_unitary(4, seed=1060 + seed)
            rho = validate_density((u * np.asarray(w)) @ u.conj().T, (2, 2))
            assert numerical_rank(rho.spectrum, rank_tol=0.0) == 3
            d = eigen_decomposition(rho, 3)
            assert len(d) == len(d.gram_spectrum) == 3
            assert np.abs(d.gram_spectrum - rho.spectrum[1:]).max() <= 1e-15
            assert np.abs(reconstruct(d) - rho.mat).max() <= 1e-12
        # only a nonpositive pivot stops it short of the rank: the Schur
        # complement of diag(0.5, 0.5, 0, 0) is exactly 0 after two columns,
        # and an eigh keeps its two positive eigenvalues
        rho = validate_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), (2, 2))
        assert len(eigen_decomposition(rho, 4)) == 2

    def test_given_rank_tol_keeps_top_eigenvalues_in_any_basis(self, solver):
        # noise eigenvalues near 1e-7 sit far below rank_tol 1e-4 but far
        # above the factor's stopping threshold, so the factor keeps them
        # and the two kept Gram eigenvalues are rho's top two, whatever
        # local basis rho is written in; an eigh reads them directly
        w = [0.6, 0.4 - 2.5e-7, 1.5e-7, 1e-7]
        for seed in range(4):
            u = haar_unitary(4, seed=1040 + seed)
            rho = validate_density((u * np.asarray(w)) @ u.conj().T, (2, 2))
            for k in range(4):
                moved = apply_local_unitary_density(
                    rho, random_local_unitaries((2, 2), seed=1050 + 10 * seed + k)
                )
                d = eigen_decomposition(moved, numerical_rank(moved.spectrum, rank_tol=1e-4))
                assert len(d) == 2
                vecs = d.stack.reshape(len(d), -1)  # gram_matrix refuses trace 1 - 2.5e-7
                kept = np.linalg.eigvalsh(vecs @ vecs.conj().T)[::-1]
                assert np.abs(kept - w[:2]).max() <= 1e-13

    @pytest.mark.parametrize("dims", [(2, 2), (4, 4)], ids=str)
    def test_contract_on_either_side_of_the_solver_switch(self, dims):
        # n = 4 is read by one eigh and n = 16 by the pivoted factor
        n = math.prod(dims)
        assert (n <= EIGH_MAX_N) == (dims == (2, 2))
        # the members reproduce rho's top-rank part, of diagonal Gram matrix
        for rank in (2, 3):
            rho = random_density(dims, n, seed=1080 + rank)
            d = eigen_decomposition(rho, rank)
            assert len(d) == len(d.gram_spectrum) == rank
            w, v = hermitian_eig(rho.mat)
            top = (v[:, :rank] * w[:rank]) @ v[:, :rank].conj().T
            assert np.abs(reconstruct(d) - top).max() <= 1e-12
            assert np.abs(gram_matrix(d).omega - np.diag(d.gram_spectrum[::-1])).max() <= 1e-13
        # lambda_2 = 1e-14, kept at rank_tol 0, keeps two members
        w = np.zeros(n)
        w[:2] = 1.0 - 1e-14, 1e-14
        for seed in range(4):
            u = haar_unitary(n, seed=1090 + seed)
            rho = validate_density((u * w) @ u.conj().T, dims)
            d = eigen_decomposition(rho, numerical_rank(rho.spectrum, rank_tol=0.0))
            assert len(d) == 2
            assert np.abs(reconstruct(d) - rho.mat).max() <= 1e-12
        # a rank beyond rho's positive eigenvalues gives fewer members
        w[:2] = 0.5
        rho = validate_density(np.diag(w).astype(complex), dims)
        d = eigen_decomposition(rho, n)
        assert len(d) == len(d.gram_spectrum) == 2
        assert np.abs(d.gram_spectrum - 0.5).max() <= 1e-15

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
                eigen_decomposition(merge_cut(rho, cut))


class TestGramSpectrum:
    def test_eigen_decomposition_keeps_its_rank_eigenvalues(self, monkeypatch):
        # ascending, read-only, and filled without an eigvalsh: the
        # eigenvalues of the kept members, rho's top ones
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
        for dims, rank in (((2, 2), 1), ((2, 2), 2), ((3, 3), 4), ((2, 2, 2), 7)):
            rho = random_density(dims, rank, seed=40 + rank)
            calls.clear()  # validation's eigvalsh
            d = eigen_decomposition(rho)
            w = d.gram_spectrum
            assert calls == []
            assert "gram_spectrum" in vars(d)
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 0.0
            assert len(w) == rank
            assert np.all(np.diff(w) >= 0.0)
            assert np.abs(w - rho.spectrum[-rank:]).max() <= 1e-13

    def test_computed_once_when_built(self, eigen_solves):
        # an eigen decomposition holds rho's kept eigenvalues, bitwise,
        # with no eigen-solve; the other builders run one eigvalsh of the
        # I x I Gram matrix when they build, and none on later reads
        rho = random_density((2, 3), 3, seed=44)
        eigen_solves["eigh"].clear()
        d = eigen_decomposition(rho)
        assert eigen_solves == {"eigh": [], "eigvalsh": []}
        assert np.array_equal(d.gram_spectrum, rho.spectrum[-3:])
        builders = (
            (lambda: make_decomposition(d.stack), 3),
            (lambda: mix_decomposition(d, haar_unitary(3, seed=45)), 3),
            (lambda: pad_with_zeros(d, 4), 4),
        )
        for build, size in builders:
            eigen_solves["eigvalsh"].clear()
            other = build()
            assert eigen_solves == {"eigh": [], "eigvalsh": [(size, size)]}
            w = other.gram_spectrum
            assert not w.flags.writeable
            assert other.gram_spectrum is w and gram_matrix(other).spectrum is w
            assert eigen_solves == {"eigh": [], "eigvalsh": [(size, size)]}
            assert np.abs(w - np.linalg.eigvalsh(gram_matrix(other).omega)).max() == 0.0
            assert np.abs(w[-3:] - d.gram_spectrum).max() <= 1e-13


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
    # the oracle of the row-major reshape across a cut in eigen_decomposition
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


_PLAIN = {
    "DensityMatrix": lambda: random_density((2, 3), 2, seed=46),
    "made decomposition": lambda: make_decomposition(np.eye(4).reshape(2, 2, 4) / 2.0),
    "eigen decomposition": lambda: eigen_decomposition(random_density((2, 3), 2, seed=47)),
    "Hypermatrix": lambda: hypermatrix(eigen_decomposition(random_density((2, 2), 2, seed=48))),
    "Fingerprint": lambda: fingerprint(random_density((2, 2), 2, seed=49)),
}


@pytest.mark.parametrize("build", _PLAIN.values(), ids=_PLAIN)
def test_reads_leave_only_the_declared_fields(build):
    # every value is set when the object is built: reading each public
    # attribute fills nothing in
    obj = build()
    for name in dir(obj):
        if not name.startswith("_"):
            getattr(obj, name)
    assert set(vars(obj)) == {f.name for f in dataclasses.fields(obj)}
