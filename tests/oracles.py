"""Brute-force reference implementations used only by the tests.

Everything here deliberately avoids the code paths of the package under
test: determinants come from the Leibniz permutation sum, trace products
and realignments from explicit Python loops, symmetric polynomials from
direct enumeration over subsets. The reconstruction of a state from a
decomposition, which the package never needs, lives only here.
"""

from __future__ import annotations

import itertools

import numpy as np


def permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(mat) -> complex:
    """Determinant as the full permutation sum (fine up to 6x6)."""
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        term = permutation_sign(perm)
        for i in range(n):
            term = term * mat[i, perm[i]]
        total += term
    return total


def elementary_symmetric(values, k: int) -> complex:
    """e_k of a list of numbers by direct subset enumeration."""
    if k == 0:
        return 1.0
    return sum(
        np.prod([values[i] for i in combo])
        for combo in itertools.combinations(range(len(values)), k)
    )


def reconstruct(d) -> np.ndarray:
    """Density matrix sum_i vec(A_i) vec(A_i)^dag implied by a
    decomposition ``d``, as one product of its flattened members."""
    vecs = d.stack.reshape(len(d), d.n * d.m)
    return np.einsum("ia,ib->ab", vecs, vecs.conj())


def hyper_entry(mats, i_idx, j_idx) -> complex:
    """tr(A_{i1} A_{j1}^dag ... A_{is} A_{js}^dag) by direct products."""
    prod = np.eye(mats[0].shape[0], dtype=complex)
    for i, j in zip(i_idx, j_idx):
        prod = prod @ mats[i] @ mats[j].conj().T
    return complex(np.trace(prod))


def realign_loops(mat, n: int, m: int) -> np.ndarray:
    """Realignment R[(i,j),(k,l)] = rho[(i,k),(j,l)] by explicit loops."""
    r = np.zeros((n * n, m * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    r[i * n + j, k * m + l] = mat[i * m + k, j * m + l]
    return r


def poly_coeffs_from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots, ascending coefficients."""
    coeffs = np.array([1.0 + 0j])
    for root in roots:
        coeffs = np.convolve(coeffs, np.array([-root, 1.0 + 0j]))
    return coeffs


def swap_adapted_basis(n: int) -> np.ndarray:
    """The n^2 x n^2 unitary whose columns are e_ii, then (e_ij + e_ji)/sqrt2
    for i < j, then i(e_ij - e_ji)/sqrt2 for i < j, with e_ij at row i*n + j,
    written out entry by entry."""
    q = np.zeros((n * n, n * n), dtype=complex)
    col = 0
    for i in range(n):
        q[i * n + i, col] = 1.0
        col += 1
    for phase, sign in ((1.0, 1.0), (1j, -1.0)):
        for i in range(n):
            for j in range(i + 1, n):
                q[i * n + j, col] = phase / np.sqrt(2.0)
                q[j * n + i, col] = sign * phase / np.sqrt(2.0)
                col += 1
    return q


def eigh_decomposition_stack(mat, dims) -> np.ndarray:
    """The eigenvector decomposition by a full eigen-solve of the n x n
    state: member i is sqrt(w_i) v_i for each eigenvalue w_i above 1e-10
    times the largest, reshaped row-major to a dims[0] x (n / dims[0])
    matrix. Returned as an (I, dims[0], n / dims[0]) stack."""
    mat = np.asarray(mat, dtype=complex)
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    w, v = w[::-1], v[:, ::-1]
    rank = int(np.count_nonzero(w > 1e-10 * max(w[0], 0.0)))
    return (v[:, :rank] * np.sqrt(w[:rank])).T.reshape(rank, dims[0], -1)


def f_invariants_loop(w) -> np.ndarray:
    """F_0 .. F_I of the floats ``w`` by one numpy update of the whole
    product recurrence per eigenvalue, as a complex array."""
    w = np.asarray(w, dtype=float)
    f = np.zeros(len(w) + 1)
    f[0] = 1.0
    for x in w:
        f[1:] += x * f[:-1]
    return f.astype(complex)


def make_check(name: str, a, b, atol: float, rtol: float) -> tuple:
    """(name, value_a, value_b, delta, passed, marginal) of one compared
    value: it fails when |a - b| > atol + rtol * max(|a|, |b|), and is
    marginal when |a - b| lies above a tenth and at most ten times that
    threshold."""
    a = complex(a)
    b = complex(b)
    delta = abs(a - b)
    threshold = atol + rtol * max(abs(a), abs(b))
    passed = delta <= threshold
    marginal = 0.1 * threshold < delta <= 10.0 * threshold
    return (name, a, b, delta, passed, marginal)


def reference_checks(fa, fb, atol: float, rtol: float) -> list:
    """The check table of two fingerprints, value by value: rank, F_i with
    the shorter F padded by zeros, N and M when both states have them,
    Ky Fan, then lambda_N[1..3] and lambda_M[1] when both have them."""
    delta = float(abs(fa.rank - fb.rank))
    checks = [("rank", complex(fa.rank), complex(fb.rank), delta, delta == 0.0, False)]
    for i in range(1, max(len(fa.F), len(fb.F))):
        a = fa.F[i] if i < len(fa.F) else 0.0
        b = fb.F[i] if i < len(fb.F) else 0.0
        checks.append(make_check(f"F_{i}", a, b, atol, rtol))
    if fa.N_value is not None and fb.N_value is not None:
        checks.append(make_check("invariant_N", fa.N_value, fb.N_value, atol, rtol))
    if fa.M_value is not None and fb.M_value is not None:
        checks.append(make_check("invariant_M", fa.M_value, fb.M_value, atol, rtol))
    checks.append(make_check("kyfan", fa.kyfan, fb.kyfan, atol, rtol))
    for key, stop in (("N", 4), ("M", 2)):
        if key in fa.lambda_coeffs and key in fb.lambda_coeffs:
            ca, cb = fa.lambda_coeffs[key], fb.lambda_coeffs[key]
            for k in range(1, stop):
                checks.append(make_check(f"lambda_{key}[{k}]", ca[k], cb[k], atol, rtol))
    return checks
