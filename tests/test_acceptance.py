"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test collects every failed clause before reporting, so a criterion's
printed line always appears and lists everything that went wrong. Run
with ``pytest tests/test_acceptance.py -v -s`` to see all lines.
"""

import json
import time

import numpy as np

from lu_invar.cli import main
from lu_invar.equivalence import fingerprint, screen
from lu_invar.fixtures import fixture_path, load_fixture
from lu_invar.invariants import (
    cayley_det_222,
    f_invariants,
    gram_matrix,
    hypermatrix,
    invariant_M,
    invariant_N,
    lambda_poly,
    realignment_kyfan,
)
from lu_invar.linalg import haar_unitary, hermitian_eig
from lu_invar.states import (
    apply_local_unitary,
    apply_local_unitary_density,
    eigen_decomposition,
    flatten_multipartite,
    make_decomposition,
    mix_decomposition,
    pad_with_zeros,
    random_density,
    random_local_unitaries,
)

RHO1 = str(fixture_path("rho1"))
RHO2 = str(fixture_path("rho2"))
SIGMA1 = str(fixture_path("sigma1"))
SIGMA2 = str(fixture_path("sigma2"))


def finish(name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " (" + "; ".join(failures) + ")"
    print(f"[acceptance] {name}: {status}{detail}")
    assert not failures, f"{name}{detail}"


def random_ensemble(count, seed):
    """count random states over dims (2,2) and (2,3), ranks 1..4."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        dims = (2, 2) if rng.integers(2) else (2, 3)
        rank = int(rng.integers(1, 5))
        out.append(random_density(dims, rank, seed=int(rng.integers(2**62))))
    return out


def test_criterion_01_example1_regression(capsys):
    failures = []
    start = time.perf_counter()
    fp1 = fingerprint(load_fixture("rho1"))
    fp2 = fingerprint(load_fixture("rho2"))
    if not abs(fp1.N_value - 1.0 / 256.0) <= 1e-12:
        failures.append(f"N(rho1) = {fp1.N_value}, expected 1/256")
    if not abs(fp2.N_value) <= 1e-12:
        failures.append(f"N(rho2) = {fp2.N_value}, expected 0")
    code = main(["compare", RHO1, RHO2, "--json"])
    doc = json.loads(capsys.readouterr().out)
    if code != 1:
        failures.append(f"compare exit code {code}, expected 1")
    if doc["witness"] != "invariant_N":
        failures.append(f"witness {doc['witness']}, expected invariant_N")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s, expected < 1s")
    with capsys.disabled():
        finish("criterion 1 (example pair 1: N values, witness, runtime)", failures)


def test_criterion_02_example2_regression(capsys):
    failures = []
    fp1 = fingerprint(load_fixture("sigma1"))
    fp2 = fingerprint(load_fixture("sigma2"))
    if not abs(fp1.M_value - 1.0 / 6561.0) <= 1e-12:
        failures.append(f"M(sigma1) = {fp1.M_value}, expected 1/6561")
    if not abs(fp2.M_value) <= 1e-12:
        failures.append(f"M(sigma2) = {fp2.M_value}, expected 0")
    code = main(["compare", SIGMA1, SIGMA2, "--json"])
    doc = json.loads(capsys.readouterr().out)
    if code != 1:
        failures.append(f"compare exit code {code}, expected 1")
    # M separates the pair, but N comes before M in the documented check
    # order and separates it too (1/6561 vs 0), so N is the witness
    checks = {c["name"]: c for c in doc["checks"]}
    m_check = checks.get("invariant_M")
    if m_check is None:
        failures.append("no invariant_M check in the report")
    else:
        (ma_re, ma_im), (mb_re, mb_im) = m_check["value_a"], m_check["value_b"]
        if m_check["passed"]:
            failures.append("invariant_M check passed, expected it to separate the pair")
        if not abs(complex(ma_re, ma_im) - 1.0 / 6561.0) <= 1e-12:
            failures.append(f"report M(sigma1) = {ma_re}+{ma_im}j, expected 1/6561")
        if not abs(complex(mb_re, mb_im)) <= 1e-12:
            failures.append(f"report M(sigma2) = {mb_re}+{mb_im}j, expected 0")
    first_failing = next((c["name"] for c in doc["checks"] if not c["passed"]), None)
    if doc["witness"] != first_failing or doc["witness"] != "invariant_N":
        failures.append(
            f"witness {doc['witness']}, expected the first failing check "
            f"{first_failing}, invariant_N"
        )
    with capsys.disabled():
        finish("criterion 2 (example pair 2: M values, witness)", failures)


def test_criterion_03_kyfan_baseline(capsys):
    failures = []
    target = 1.0 / np.sqrt(2.0)
    for name in ("rho1", "rho2"):
        value = realignment_kyfan(load_fixture(name))
        if not abs(value - target) <= 1e-10:
            failures.append(f"kyfan({name}) = {value}, expected 1/sqrt(2)")
    with capsys.disabled():
        finish("criterion 3 (realignment Ky Fan norm baseline)", failures)


def test_criterion_04_decomposition_independence(capsys):
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for rho in random_ensemble(100, seed=42):
        d = eigen_decomposition(rho)
        base = f_invariants(gram_matrix(d)).F
        for _ in range(20):
            u = haar_unitary(len(d), seed=int(rng.integers(2**62)))
            mixed = mix_decomposition(d, u)
            dev = float(np.abs(f_invariants(gram_matrix(mixed)).F - base).max())
            worst = max(worst, dev)
    if not worst < 1e-9:
        failures.append(f"max F deviation {worst:.3e}, expected < 1e-9")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s, expected < 30s")
    with capsys.disabled():
        finish(
            f"criterion 4 (F decomposition independence, 100 states x 20 mixings, "
            f"max dev {worst:.2e}, {elapsed:.1f}s)",
            failures,
        )


def test_criterion_05_lu_invariance(capsys):
    failures = []
    rng = np.random.default_rng(51)
    worst_gram = 0.0
    worst_f = 0.0
    for rho in random_ensemble(100, seed=52):
        d = eigen_decomposition(rho)
        p = haar_unitary(rho.dims[0], seed=int(rng.integers(2**62)))
        q = haar_unitary(rho.dims[1], seed=int(rng.integers(2**62)))
        moved = apply_local_unitary(d, p, q)
        worst_gram = max(
            worst_gram, float(np.abs(gram_matrix(moved).omega - gram_matrix(d).omega).max())
        )
        worst_f = max(
            worst_f,
            float(
                np.abs(f_invariants(gram_matrix(moved)).F - f_invariants(gram_matrix(d)).F).max()
            ),
        )
    if not worst_gram <= 1e-10:
        failures.append(f"Gram entrywise deviation {worst_gram:.3e}, expected <= 1e-10")
    if not worst_f <= 1e-9:
        failures.append(f"F deviation {worst_f:.3e}, expected <= 1e-9")
    with capsys.disabled():
        finish(
            f"criterion 5 (LU invariance of Gram entries {worst_gram:.2e} and F {worst_f:.2e})",
            failures,
        )


def _degree4_vector(d):
    h = hypermatrix(d, 2)
    return np.concatenate(
        [
            [invariant_N(h), invariant_M(h)],
            lambda_poly(d, 1, "det").coeffs,
            lambda_poly(d, 2, "N").coeffs,
            lambda_poly(d, 2, "M").coeffs,
        ]
    )


def test_criterion_06_degree4_invariance(capsys):
    failures = []
    rng = np.random.default_rng(61)
    worst = 0.0
    for trial in range(5):
        rho = random_density((2, 2), 2, seed=620 + trial)
        d = eigen_decomposition(rho)
        base = _degree4_vector(d)
        for _ in range(50):
            u = haar_unitary(2, seed=int(rng.integers(2**62)))
            worst = max(
                worst, float(np.abs(_degree4_vector(mix_decomposition(d, u)) - base).max())
            )
        for _ in range(50):
            p = haar_unitary(2, seed=int(rng.integers(2**62)))
            q = haar_unitary(2, seed=int(rng.integers(2**62)))
            worst = max(
                worst,
                float(np.abs(_degree4_vector(apply_local_unitary(d, p, q)) - base).max()),
            )
    if not worst <= 1e-8:
        failures.append(f"max deviation {worst:.3e}, expected <= 1e-8")
    with capsys.disabled():
        finish(
            f"criterion 6 (N, M, lambda coefficients under 50 mixings + 50 LU, "
            f"max dev {worst:.2e})",
            failures,
        )


def test_criterion_07_padding_law(capsys):
    failures = []
    worst = 0.0
    for trial in range(25):
        rank = trial % 4 + 1
        dims = (2, 2) if trial % 2 else (2, 3)
        rho = random_density(dims, rank, seed=700 + trial)
        d = eigen_decomposition(rho)
        base = lambda_poly(d, 1, "det")
        for j in (rank + 1, rank + 2):
            padded = lambda_poly(pad_with_zeros(d, j), 1, "det")
            expected = base.shifted(j - rank)
            worst = max(worst, float(np.abs(padded.coeffs - expected.coeffs).max()))
    if not worst <= 1e-9:
        failures.append(f"max coefficient deviation {worst:.3e}, expected <= 1e-9")
    with capsys.disabled():
        finish(f"criterion 7 (zero-padding lambda law, max dev {worst:.2e})", failures)


def test_criterion_08_cayley_covariance(capsys):
    failures = []
    rng = np.random.default_rng(81)
    worst_cov = 0.0
    worst_agree = 0.0
    worst_product = 0.0
    specs = ("ia,ajk->ijk", "ja,iak->ijk", "ka,ija->ijk")
    for _ in range(100):
        t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        expanded = cayley_det_222(t)
        compact = cayley_det_222(t, method="compact")
        worst_agree = max(worst_agree, abs(expanded - compact) / abs(expanded))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for spec in specs:
            acted = cayley_det_222(np.einsum(spec, b, t))
            expected = np.linalg.det(b) ** 2 * expanded
            worst_cov = max(worst_cov, abs(acted - expected) / abs(expected))
        u, v, w = (
            (lambda z: z / np.linalg.norm(z))(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            for _ in range(3)
        )
        worst_product = max(
            worst_product, abs(cayley_det_222(np.einsum("i,j,k->ijk", u, v, w)))
        )
    if not worst_cov <= 1e-8:
        failures.append(f"covariance deviation {worst_cov:.3e}, expected <= 1e-8")
    if not worst_agree <= 1e-12:
        failures.append(f"form disagreement {worst_agree:.3e}, expected <= 1e-12")
    if not worst_product < 1e-12:
        failures.append(f"product tensor |Det| {worst_product:.3e}, expected < 1e-12")
    with capsys.disabled():
        finish(
            f"criterion 8 (Cayley det(B)^2 covariance {worst_cov:.2e}, "
            f"two-form agreement {worst_agree:.2e})",
            failures,
        )


def test_criterion_09_degeneracy_robustness(capsys):
    failures = []
    rho1 = load_fixture("rho1")
    w, v = hermitian_eig(rho1.mat)
    # eigenvalue 1/2 is twofold degenerate: indices 0 and 1

    def decomposition_with_basis(rotation):
        basis = v[:, :2] @ rotation
        mats = [
            np.sqrt(w[i]) * flatten_multipartite(basis[:, i], rho1.dims, 1) for i in range(2)
        ]
        return make_decomposition(mats)

    d_a = decomposition_with_basis(haar_unitary(2, seed=901))
    d_b = decomposition_with_basis(haar_unitary(2, seed=902))

    def invariant_set(d):
        return np.concatenate([f_invariants(gram_matrix(d)).F, _degree4_vector(d)])

    dev = float(np.abs(invariant_set(d_a) - invariant_set(d_b)).max())
    if not dev <= 1e-9:
        failures.append(f"fingerprint deviation {dev:.3e}, expected <= 1e-9")
    with capsys.disabled():
        finish(f"criterion 9 (degenerate-basis robustness, dev {dev:.2e})", failures)


def test_criterion_10_soundness(capsys):
    failures = []
    rng = np.random.default_rng(101)
    flagged = 0
    for trial in range(200):
        dims = (2, 2) if trial % 2 else (2, 3)
        rank = int(rng.integers(1, 5))
        rho = random_density(dims, rank, seed=int(rng.integers(2**62)))
        moved = apply_local_unitary_density(
            rho, random_local_unitaries(dims, seed=int(rng.integers(2**62)))
        )
        if screen(rho, moved).verdict != "Inconclusive":
            flagged += 1
    if flagged != 0:
        failures.append(f"{flagged}/200 LU pairs flagged NotEquivalent, expected 0")
    with capsys.disabled():
        finish("criterion 10 (soundness: 200 LU pairs, zero false positives)", failures)
