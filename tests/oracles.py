"""Brute-force reference implementations used only by the tests.

Everything here deliberately avoids the code paths of the package under
test: determinants come from the Leibniz permutation sum, trace products
and realignments from explicit Python loops, symmetric polynomials from
direct enumeration over subsets. The reconstruction of a state from a
decomposition and the flattening of a multipartite coefficient vector,
which the package never needs, live only here.
"""

from __future__ import annotations

import itertools
import math

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


def flatten_multipartite(coeffs, dims, cut: int) -> np.ndarray:
    """One coefficient vector over (k_1, ..., k_m) as an N1 x N2 matrix,
    entry by entry: the row index is the big-endian mixed-radix number of
    (k_1, ..., k_cut), the column index that of the remaining indices."""
    out = np.zeros((math.prod(dims[:cut]), math.prod(dims[cut:])), dtype=complex)
    for flat, ks in enumerate(itertools.product(*map(range, dims))):
        row = col = 0
        for k, d in zip(ks[:cut], dims[:cut]):
            row = row * d + k
        for k, d in zip(ks[cut:], dims[cut:]):
            col = col * d + k
        out[row, col] = coeffs[flat]
    return out


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


def swap_matrix(n: int) -> np.ndarray:
    """The n^2 x n^2 permutation S with S e_ij = e_ji, e_ij at row i*n + j,
    written out entry by entry."""
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[j * n + i, i * n + j] = 1.0
    return s


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


def make_check(name: str, a, b, threshold: float) -> tuple:
    """(name, value_a, value_b, delta, passed, threshold) of one compared
    value: it passes when |a - b| <= threshold."""
    delta = abs(a - b)
    return (name, a, b, delta, delta <= threshold, threshold)


# terms x degree of each degree-4 check as a polynomial in the entries of
# the hypermatrix: 4x4 determinants, sums of 3x3 and of 2x2 minors, a trace
DEGREE4_WEIGHTS = {
    "invariant_N": 96.0, "invariant_M": 96.0,
    "lambda_N[1]": 72.0, "lambda_N[2]": 24.0, "lambda_N[3]": 4.0, "lambda_M[1]": 72.0,
}


def reference_bounds(fp) -> dict:
    """The error bounds of a fingerprint's compared values, from its fields:
    with rounding = 16 N eps and noise = rounding times the top eigenvalue,
    a kept eigenvalue is within noise plus the deviation, a padded zero
    within the dropped eigenvalue plus noise, Ky Fan, when the fingerprint
    has one, within rounding times max(kyfan, 1), and a hypermatrix entry
    within rounding plus the deviation plus noise times the smallest kept
    eigenvalue over its gap to the dropped one (at least noise)."""
    rounding = 16 * math.prod(fp.dims) * np.finfo(float).eps
    noise = rounding * float(fp.spectrum[0])
    low = max(float(fp.spectrum[-1]), 0.0)
    gap = max(low - fp.dropped, noise)
    return {"kept": noise + fp.deviation, "pad": fp.dropped + noise,
            "kyfan": None if fp.kyfan is None else rounding * max(fp.kyfan, 1.0),
            "entry": rounding + fp.deviation + noise * low / gap}


def reference_checks(fa, fb) -> list:
    """The check table of two fingerprints, value by value, each threshold
    the sum of the two sides' bounds: spectrum[i], the shorter spectrum
    padded by zeros within their side's pad bound; N, M and Ky Fan when
    both fingerprints have them; then lambda_N[1..3] and lambda_M[1] when
    both have them, each degree-4 value within its weight times the
    entries' bound."""
    ba, bb = reference_bounds(fa), reference_bounds(fb)
    checks = []
    for i in range(max(len(fa.spectrum), len(fb.spectrum))):
        (a, bound_a), (b, bound_b) = (
            (float(fp.spectrum[i]), bounds["kept"]) if i < len(fp.spectrum) else (0.0, bounds["pad"])
            for fp, bounds in ((fa, ba), (fb, bb))
        )
        checks.append(make_check(f"spectrum[{i + 1}]", a, b, bound_a + bound_b))
    entry = ba["entry"] + bb["entry"]
    values = {}
    if fa.N_value is not None and fb.N_value is not None:
        values["invariant_N"] = (fa.N_value, fb.N_value)
    if fa.M_value is not None and fb.M_value is not None:
        values["invariant_M"] = (fa.M_value, fb.M_value)
    for name, (a, b) in values.items():
        checks.append(make_check(name, complex(a), complex(b), DEGREE4_WEIGHTS[name] * entry))
    if fa.kyfan is not None and fb.kyfan is not None:
        checks.append(make_check("kyfan", fa.kyfan, fb.kyfan, ba["kyfan"] + bb["kyfan"]))
    for key, stop in (("N", 4), ("M", 2)):
        if key in fa.lambda_coeffs and key in fb.lambda_coeffs:
            ca, cb = fa.lambda_coeffs[key], fb.lambda_coeffs[key]
            for k in range(1, stop):
                name = f"lambda_{key}[{k}]"
                checks.append(make_check(name, complex(ca[k]), complex(cb[k]),
                                         DEGREE4_WEIGHTS[name] * entry))
    return checks
