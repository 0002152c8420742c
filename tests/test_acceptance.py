"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test collects every failed clause before reporting, so a criterion's
printed line always appears and lists everything that went wrong. Run
with ``pytest tests/test_acceptance.py -v -s`` to see all lines.

Criteria 1-3 read the published fixture values from the ``selftest``
fixture rows, with those rows' bounds, and add their own CLI clauses.
Criteria 4-10 are randomized: each runs one ``selftest`` property through
the ``selftest`` driver at the criterion's own trial count, seed and
bounds. Their random states cover (2,2) and (2,3) at every rank from 1
to 4 and (3,3) at every rank from 1 to 9, and a NaN deviation fails the
criterion.
"""

import json
import time

from lu_invar.cli import main
from lu_invar.fixtures import fixture_path, load_fixture
from lu_invar.selftest import fixture_rows, properties, run_property

RHO1 = str(fixture_path("rho1"))
RHO2 = str(fixture_path("rho2"))
SIGMA1 = str(fixture_path("sigma1"))
SIGMA2 = str(fixture_path("sigma2"))


def finish(name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " (" + "; ".join(failures) + ")"
    print(f"[acceptance] {name}: {status}{detail}")
    assert not failures, f"{name}{detail}"


def fixture_failures(*names):
    """The failed clauses among the ``selftest`` fixture rows ``names``;
    a name with no row fails too."""
    rows = {r.name: r for r in fixture_rows()}
    return [
        f"{name}: {rows[name].detail}" if name in rows else f"no fixture row {name!r}"
        for name in names
        if name not in rows or not rows[name].passed
    ]


def run_criterion(key, trials, seed, bounds):
    """Run the selftest property ``key`` for ``trials`` trials from
    ``seed``; return the failed clauses and the rows' details. The
    property's row bounds must be the criterion's ``bounds``."""
    prop = properties(load_fixture("rho1"))[key]
    failures = []
    found = tuple(bound for _, bound in prop.rows)
    if found != bounds:
        failures.append(f"property bounds {found}, expected {bounds}")
    results = run_property(prop, trials, seed)
    failures += [f"{r.name}: {r.detail}" for r in results if not r.passed]
    return failures, "; ".join(r.detail for r in results)


def test_criterion_01_example1_regression(capsys):
    start = time.perf_counter()
    failures = fixture_failures("Example1: N(rho1)=1/256", "Example1: N(rho2)=0")
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
    failures = fixture_failures("Example2: M(sigma1)=1/6561, M(sigma2)=0")
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
    failures = fixture_failures("Example1: realignment Ky Fan norm = 1/sqrt(2) for both")
    with capsys.disabled():
        finish("criterion 3 (realignment Ky Fan norm baseline)", failures)


def test_criterion_04_decomposition_independence(capsys):
    start = time.perf_counter()
    failures, detail = run_criterion("mixing", 400, 41, (1e-9,))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s, expected < 30s")
    with capsys.disabled():
        finish(
            f"criterion 4 (F decomposition independence, 400 states x 5 mixings, "
            f"{detail}, {elapsed:.1f}s)",
            failures,
        )


def test_criterion_05_lu_invariance(capsys):
    failures, detail = run_criterion("lu", 100, 51, (1e-10, 1e-9))
    with capsys.disabled():
        finish(f"criterion 5 (LU invariance of Gram entries and F: {detail})", failures)


def test_criterion_06_degree4_invariance(capsys):
    failures, detail = run_criterion("degree4", 500, 61, (1e-8, 1e-8))
    with capsys.disabled():
        finish(
            f"criterion 6 (N, M, lambda coefficients under 500 mixings + 500 LU: {detail})",
            failures,
        )


def test_criterion_07_padding_law(capsys):
    failures, detail = run_criterion("padding", 100, 700, (1e-9,))
    with capsys.disabled():
        finish(f"criterion 7 (zero-padding lambda law: {detail})", failures)


def test_criterion_08_cayley_covariance(capsys):
    failures, detail = run_criterion("cayley", 100, 81, (1e-12, 1e-8, 1e-12))
    with capsys.disabled():
        finish(
            f"criterion 8 (Cayley two-form agreement, det(B)^2 covariance, "
            f"product tensors: {detail})",
            failures,
        )


def test_criterion_09_degeneracy_robustness(capsys):
    failures, detail = run_criterion("degeneracy", 100, 901, (1e-9,))
    with capsys.disabled():
        finish(f"criterion 9 (degenerate-basis robustness: {detail})", failures)


def test_criterion_10_soundness(capsys):
    failures, detail = run_criterion("soundness", 200, 101, (1.0,))
    with capsys.disabled():
        finish(f"criterion 10 (soundness: 200 LU pairs, zero false positives: {detail})", failures)
