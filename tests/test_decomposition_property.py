"""Property test of the eigenvector decomposition read from the pivoted
Cholesky factor, across the accepted grid of dims and ranks, against a
full eigen-solve of the state (``oracles.eigh_decomposition_stack``),
and of the screen of a state against a locally rotated copy at the
default and at a zero ``rank_tol``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lu_invar.equivalence import ScreenConfig, decomposition_fingerprint, fingerprint, screen
from lu_invar.invariants import gram_matrix
from lu_invar.linalg import haar_unitary
from lu_invar.states import (
    apply_local_unitary_density,
    eigen_decomposition,
    make_decomposition,
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


def fingerprint_values(fp) -> np.ndarray:
    """Every number of a fingerprint but its rank, in one flat array."""
    values = [fp.F, [fp.kyfan]]
    values += [[fp.N_value, fp.M_value]] if fp.rank == 2 else []
    values += [fp.lambda_coeffs[key] for key in sorted(fp.lambda_coeffs)]
    return np.concatenate([np.asarray(v, dtype=complex) for v in values])


@over_grid
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_factor_decomposition_matches_eigh_oracle(dims, rank, seed):
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


@over_grid
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rotated_copy_inconclusive_at_zero_rank_tol(dims, rank, seed):
    # rank_tol=0 keeps every eigenvalue above the noise floor; the rounding
    # noise of a rotated copy must not read as extra rank
    cfg = ScreenConfig(rank_tol=0.0)
    rho = random_density(dims, rank, seed=seed)
    moved = apply_local_unitary_density(rho, random_local_unitaries(dims, seed=seed + 1))
    report = screen(rho, moved, cfg)
    assert report.verdict == "Inconclusive", report.witness
    assert fingerprint(rho, cfg).rank == rank


@over_grid
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_near_threshold_decided_as_by_eigh_oracle(dims, rank, seed):
    # in a Haar basis, before normalizing: the largest eigenvalue 1, the
    # next ones in [0.1, 1], the last kept one (rank > 1) 10x above the
    # default rank_tol of 1e-10 and the dropped ones 10x below it, so the
    # factor must neither stop before a kept eigenvalue nor keep a dropped one
    n = math.prod(dims)
    rng = np.random.default_rng(seed)
    w = np.full(n, 1e-11)
    w[:rank] = rng.uniform(0.1, 1.0, rank)
    w[0] = 1.0
    if rank > 1:
        w[rank - 1] = 1e-9
    u = haar_unitary(n, rng)
    rho = validate_density((u * (w / w.sum())) @ u.conj().T, dims)
    d = eigen_decomposition(rho)
    oracle = make_decomposition(eigh_decomposition_stack(rho.mat, dims))
    assert len(d) == len(oracle) == rank
    assert np.abs(reconstruct(d) - reconstruct(oracle)).max() <= 1e-12
