"""Benchmark of lu-invar: warm screens, cold starts and CLI wall time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rank2 --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

* ``rank2``: warm ``screen`` calls on rank-2 states over the dims grid.
* ``fullrank``: the same at full rank, plus a bounded-time probe.
* ``cli``: ``lu-invar compare --json`` / ``compute --json`` subprocesses.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it wraps the package's public functions (perfbench/spans.py)
and prints per-layer metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Load is a closed loop: one client in one process, BLAS pinned to one
thread. The package is imported from ``src/`` of the checkout and sees
only the generated states.
"""

import os

# Pin BLAS before numpy is imported here or in any child process.
THREAD_PINNING = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
# Share of --seconds spent on warm in-process screens; the rest goes to
# CLI subprocesses.
SCREEN_SHARE = {"rank2": 0.25, "fullrank": 0.3, "cli": 0.15}
# Fresh processes per run for the set-up and cold timings, spread over
# the run.
FRESH_PROCESSES = 10
PROBE_DEADLINE_S = 5.0  # the 16x16 full-rank fingerprint must finish by then
CHILD_TIMEOUT_S = 60.0
MIN_PASSES = 2  # every input runs at least twice: best-of-N and the rerun check
NOT_EQUIVALENT = "NotEquivalent"


class Tally:
    """Operations attempted and failed. An operation (a pair screened, a CLI
    command, a fixture check, a child process) may run many times; it fails
    if any of its runs fails, so the counts do not depend on machine speed.
    Each failed run is listed by reason."""

    def __init__(self) -> None:
        self.ok: dict = {}
        self.correct = True
        self.reasons: Counter = Counter()

    def record(self, op: str, ok: bool, reason: str = "") -> None:
        self.ok[op] = self.ok.get(op, True) and ok
        if not ok:
            self.reasons[reason] += 1

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.ok.values())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def start_child(mode: str, workload: str, seed: int, workdir=None) -> subprocess.Popen:
    """Start perfbench/child.py in a fresh process."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--seed", str(seed)]
    if workdir is not None:
        cmd += ["--workdir", str(workdir)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)


def finish_child(proc: subprocess.Popen, op: str, deadline: float, tally: Tally):
    """Wait for a child until ``deadline`` (a perf_counter time), killing it
    then. Its JSON output, or None if it failed."""
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        tally.record(op, False, f"{op.split()[0]} child: killed at its deadline")
        return None
    ok = proc.returncode == 0
    tally.record(op, ok, f"{op.split()[0]} child: exit {proc.returncode}: {err.strip()[-200:]}")
    return json.loads(out) if ok else None


def run_child(mode: str, i: int, workload: str, seed: int, tally: Tally, workdir=None):
    """Run perfbench/child.py in a fresh process. A child that fails
    leaves its measurement out, so the result is not correct."""
    proc = start_child(mode, workload, seed, workdir)
    out = finish_child(proc, f"{mode} {i}", time.perf_counter() + CHILD_TIMEOUT_S, tally)
    if out is None:
        tally.correct = False
    return out


def fresh_median(mode: str, key: str, workload: str, seed: int, tally: Tally) -> float:
    """Median of one value over FRESH_PROCESSES children, run back to back."""
    results = [run_child(mode, i, workload, seed, tally)
               for i in range(FRESH_PROCESSES)]
    values = [r[key] for r in results if r is not None]
    return statistics.median(values) if values else math.nan


def run_for(step, seconds: float) -> None:
    """Call ``step`` at least once, until ``seconds`` have passed."""
    end = time.perf_counter() + seconds
    step()
    while time.perf_counter() < end:
        step()


def interleaved(loops, seconds: float, rounds: int, fresh) -> list:
    """Split ``seconds`` over ``rounds``. Each round runs every
    ``(step, share)`` loop until it has used its share of the rounds so
    far, then calls ``fresh(i)``. So the loops and the fresh-process
    timings sample the machine over the same stretch of time, and a long
    step only shortens the loop's next turn. Returns the fresh results
    that succeeded."""
    used = [0.0] * len(loops)
    results = []
    for i in range(rounds):
        for k, (step, share) in enumerate(loops):
            start = time.perf_counter()
            while used[k] + time.perf_counter() - start < (i + 1) * seconds * share / rounds:
                step()
            used[k] += time.perf_counter() - start
        out = fresh(i)
        if out is not None:
            results.append(out)
    return results


def tail(samples: list) -> str:
    """The highest of a few percentiles that leaves at least ten samples
    beyond it (nearest rank), with that count."""
    ordered = sorted(samples)
    for pct in (99.9, 99, 95, 90, 75):
        k = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - k >= 10:
            return f"p{pct:g} {ordered[k - 1]:.4g} ms ({len(ordered) - k} calls beyond it)"
    return "too few calls for a tail"


def fixture_checks(tally: Tally) -> None:
    """The paper's worked values on the bundled fixtures."""
    from lu_invar import fingerprint, screen
    from lu_invar.fixtures import load_fixture

    rho1, rho2 = load_fixture("rho1"), load_fixture("rho2")
    sigma1, sigma2 = load_fixture("sigma1"), load_fixture("sigma2")
    fp1, fp2 = fingerprint(rho1), fingerprint(rho2)
    rho_report = screen(rho1, rho2)
    sigma_report = screen(sigma1, sigma2)
    kyfan = 1.0 / math.sqrt(2.0)
    checks = (
        ("N(rho1) = 1/256", abs(fp1.N_value - 1.0 / 256.0) <= 1e-12),
        ("N(rho2) = 0", abs(fp2.N_value) <= 1e-12),
        ("kyfan(rho1) = kyfan(rho2) = 1/sqrt(2)",
         abs(fp1.kyfan - kyfan) <= 1e-12 and abs(fp2.kyfan - kyfan) <= 1e-12),
        ("rho1/rho2 NotEquivalent, witness invariant_N",
         (rho_report.verdict, rho_report.witness) == (NOT_EQUIVALENT, "invariant_N")),
        ("sigma1/sigma2 NotEquivalent", sigma_report.verdict == NOT_EQUIVALENT),
    )
    for name, ok in checks:
        tally.record(name, ok, f"fixture check failed: {name}")
        if not ok:
            tally.correct = False
    print(f"fixture checks: {sum(ok for _, ok in checks)}/{len(checks)} passed; "
          f"sigma1/sigma2 witness {sigma_report.witness}")


def judge(kind: str, verdict, witness) -> tuple:
    """(ok, reason) for one screen outcome; verdict None means it raised."""
    import workloads

    if verdict is None:
        return False, f"exception: {witness}"
    if kind == workloads.LU and verdict == NOT_EQUIVALENT:
        return False, f"false NotEquivalent on a locally rotated pair, witness {witness}"
    if kind == workloads.FIXTURE and verdict != NOT_EQUIVALENT:
        return False, "fixture pair not separated"
    return True, ""


def screen_once(pair):
    """(verdict, witness or error, checks) of one screen; verdict None on error."""
    from lu_invar import equivalence

    try:
        report = equivalence.screen(pair.a, pair.b)
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}", 0
    return report.verdict, report.witness, len(report.checks)


def check_verdicts(pairs, tally: Tally) -> float:
    """Screen every pair once, filling the per-process caches, and check
    its verdict. List the locally rotated pairs that come out NotEquivalent
    with their witness. Returns the share of same-spectrum, not
    LU-equivalent pairs that come out NotEquivalent."""
    import workloads

    false_ne = []
    separated = separable = 0
    for pair in pairs:
        verdict, witness, _ = screen_once(pair)
        tally.record(f"screen {pair.name}", *judge(pair.kind, verdict, witness))
        if pair.kind == workloads.LU and verdict == NOT_EQUIVALENT:
            false_ne.append(f"{pair.name} ({witness})")
        if pair.kind in (workloads.GLOBAL, workloads.FIXTURE):
            separable += 1
            separated += verdict == NOT_EQUIVALENT
    lu_count = sum(p.kind == workloads.LU for p in pairs)
    print(f"false NotEquivalent on locally rotated pairs: {len(false_ne)}/{lu_count}"
          + "".join(f"\n  {x}" for x in false_ne))
    return separated / separable


class Run:
    """Latencies of a round-robin loop over a fixed list of inputs: every
    call, and the fastest call of each input."""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.runs = 0
        self.lat = []
        self.best = [math.inf] * len(inputs)

    def next_input(self) -> tuple:
        i = self.runs % len(self.inputs)
        self.runs += 1
        return i, self.inputs[i]

    def record(self, i: int, seconds: float) -> None:
        self.lat.append(seconds)
        self.best[i] = min(self.best[i], seconds)


class ScreenRun(Run):
    """Screens the pairs round-robin, one per ``step``, recording latency,
    checks per report and outcome."""

    def __init__(self, pairs, tally: Tally) -> None:
        super().__init__(pairs)
        self.tally = tally
        self.checks = 0

    def step(self) -> None:
        i, pair = self.next_input()
        t0 = time.perf_counter()
        verdict, witness, n_checks = screen_once(pair)
        self.record(i, time.perf_counter() - t0)
        self.checks += n_checks
        self.tally.record(f"screen {pair.name}", *judge(pair.kind, verdict, witness))


def cli_command(argv) -> list:
    """``lu-invar ARGS`` for the checkout's source tree."""
    return [sys.executable, "-m", "lu_invar.cli", *argv]


class CliRun(Run):
    """Runs the CLI commands in order, one subprocess per ``step``, and
    checks exit code, verdict and rerun identity of each."""

    def __init__(self, ops, tally: Tally) -> None:
        from lu_invar import screen

        super().__init__(ops)
        self.tally = tally
        self.expected = {op.name: screen(op.a, op.b).verdict for op in ops if op.b is not None}
        self.first_stdout = {}
        self.env = child_env()

    def step(self) -> None:
        i, op = self.next_input()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cli_command(op.argv), capture_output=True, env=self.env,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            ok, reason, fault = False, f"timeout after {CHILD_TIMEOUT_S:g} s", True
        else:
            self.record(i, time.perf_counter() - t0)
            ok, reason, fault = _judge_cli(op, proc, self.expected.get(op.name))
            if ok and self.first_stdout.setdefault(op.name, proc.stdout) != proc.stdout:
                ok, reason, fault = False, "stdout differs from the first run", True
        self.tally.record(op.name, ok, f"cli {op.argv[0]}: {reason}")
        if fault:
            self.tally.correct = False


def _judge_cli(op, proc, expected_verdict) -> tuple:
    """(ok, reason, fault) of one CLI run. A fault is a CLI that disagrees
    with its own contract or with the package: it makes the result
    incorrect. A false verdict that the in-process screen shares is a
    failed operation only."""
    if proc.returncode not in (0, 1):
        return False, f"exit {proc.returncode}: {proc.stderr.decode().strip()[-200:]}", True
    try:
        doc = json.loads(proc.stdout)
        verdict, witness = (None, None) if op.b is None else (doc["verdict"], doc["witness"])
    except (ValueError, KeyError, TypeError):
        return False, f"exit {proc.returncode}, stdout is not a report", True
    expected_code = 1 if verdict == NOT_EQUIVALENT else 0
    if proc.returncode != expected_code:
        return False, f"exit {proc.returncode} for verdict {verdict}", True
    if verdict != expected_verdict:
        return False, f"verdict {verdict} but in-process screen says {expected_verdict}", True
    if op.b is None:
        return True, "", False
    return (*judge(op.kind, verdict, witness), False)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summary(run, what: str) -> tuple:
    """(p50 ms, inputs per second) from each input's fastest call, after
    printing the raw per-call median and tail."""
    lat_ms = [x * 1e3 for x in run.lat]
    print(f"{what}: {len(run.inputs)} inputs, {len(lat_ms)} calls; per call p50 "
          f"{statistics.median(lat_ms):.4g} ms, {tail(lat_ms)}")
    best_ms = [x * 1e3 for x in run.best if math.isfinite(x)] or [math.nan]
    return statistics.median(best_ms), len(best_ms) / sum(best_ms) * 1e3


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    import workloads

    # The probe runs beside the untimed set-up and verdict checks, and is
    # reaped before anything is timed.
    probe = start_child("probe", workload, seed) if workload == "fullrank" else None
    probe_deadline = time.perf_counter() + PROBE_DEADLINE_S
    try:
        fixture_checks(tally)
        pairs = workloads.screen_pairs(workload, seed)
        ops = workloads.cli_ops(workload, pairs, workdir)
        separated = check_verdicts(pairs, tally)
    finally:
        if probe is not None:
            done = finish_child(probe, "probe", probe_deadline, tally) is not None
            print(f"16x16 full-rank probe: {'finished' if done else 'failed'} "
                  f"(deadline {PROBE_DEADLINE_S:g} s)")
    screens = ScreenRun(workloads.timed_pairs(workload, pairs), tally)
    clis = CliRun(ops, tally)

    def fresh(i):
        sub = workdir / f"fresh{i}"
        sub.mkdir()
        return run_child("setup", i, workload, seed, tally, sub)

    share = SCREEN_SHARE[workload]
    results = interleaved(((screens.step, share), (clis.step, 1.0 - share)), seconds,
                          FRESH_PROCESSES, fresh)
    for run in (screens, clis):
        while run.runs < MIN_PASSES * len(run.inputs):
            run.step()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if not results:
        results = [{"setup_s": math.nan, "cold_s": [math.nan]}]
    # The cold pass sums each shape's fastest first screen over the fresh
    # processes, as screens_per_s sums each pair's fastest warm screen.
    cold_pass = sum(map(min, zip(*(r["cold_s"] for r in results))))
    totals = sorted(sum(r["cold_s"]) for r in results)
    print(f"cold pass in {len(totals)} fresh processes: fastest {totals[0]:.4g} s, "
          f"median {statistics.median(totals):.4g} s, slowest {totals[-1]:.4g} s; "
          f"sum of the fastest per shape {cold_pass:.4g} s")
    if math.inf in clis.best:  # a command that never finished in time
        tally.correct = False
    screen_p50, screens_per_s = summary(screens, "warm screen")
    cli_p50, cli_per_s = summary(clis, "lu-invar subprocess")
    return {
        "setup_s": metric(statistics.median(r["setup_s"] for r in results), "s"),
        "cold_pass_s": metric(cold_pass, "s"),
        "screen_p50_ms": metric(screen_p50, "ms"),
        "screens_per_s": metric(screens_per_s, "1/s"),
        "cli_p50_ms": metric(cli_p50, "ms"),
        "cli_per_s": metric(cli_per_s, "1/s"),
        "ok_frac": metric(1.0 - tally.failed / tally.attempted, "frac"),
        "separated_frac": metric(separated, "frac"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def per_layer(workload: str, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    import workloads
    from lu_invar import cli, equivalence, statefile, states
    from lu_invar.fixtures import load_fixture
    from spans import Tracer

    fixture_checks(tally)
    pairs = workloads.screen_pairs(workload, seed)
    files = [op.argv[1:3] for op in workloads.cli_ops(workload, pairs, workdir) if op.b is not None]
    check_verdicts(pairs, tally)

    timed = workloads.timed_pairs(workload, pairs)
    untraced = ScreenRun(timed, tally)
    run_for(untraced.step, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = ScreenRun(timed, tally)
        run_for(traced.step, seconds / 2)
        fps = tracer.calls("equivalence.fingerprint")
        screens = len(traced.lat)

        def per_fp(name):
            return metric(tracer.calls(name) / fps, "count")

        def us(name, self_time=False):
            return metric(tracer.mean_us(name, self_time), "us")

        m = {
            "invariants.lambda_NM_us": us("invariants.lambda_NM"),
            "invariants.lambda_det_us": us("invariants.lambda_det"),
            "invariants.hypermatrix_us": us("invariants.hypermatrix"),
            "invariants.invariant_NM_us": us("invariants.invariant_NM"),
            "invariants.f_invariants_us": us("invariants.f_invariants"),
            "invariants.gram_matrix_us": us("invariants.gram_matrix"),
            "invariants.realignment_kyfan_us": us("invariants.realignment_kyfan"),
            "invariants.hypermatrix_builds": per_fp("invariants.hypermatrix"),
            "invariants.gram_builds": per_fp("invariants.gram_matrix"),
            "linalg.determinant_calls": per_fp("linalg.determinant"),
            "linalg.char_poly_calls": per_fp("linalg.char_poly"),
            "linalg.hermitian_eig_calls": per_fp("linalg.hermitian_eig"),
            "linalg.singular_values_calls": per_fp("linalg.singular_values"),
            "linalg.as_complex_matrix_calls": per_fp("linalg.as_complex_matrix"),
            "states.eigen_decomposition_us": us("states.eigen_decomposition"),
            "equivalence.fingerprint_us": us("equivalence.fingerprint"),
            "equivalence.fingerprint_self_us": us("equivalence.fingerprint", self_time=True),
            "equivalence.compare_fingerprints_us": us("equivalence.compare_fingerprints"),
            "equivalence.checks_per_screen": metric(traced.checks / screens, "count"),
        }

        # The ROADMAP baseline: calls made by one rank-2 2x2 fingerprint.
        rho1 = load_fixture("rho1")
        tracer.reset()
        equivalence.fingerprint(rho1)
        counts = [tracer.calls(name) for name in (
            "linalg.determinant", "linalg.as_complex_matrix",
            "invariants.hypermatrix", "invariants.gram_matrix")]
        print("rank-2 2x2 fingerprint: determinant / as_complex_matrix / hypermatrix / "
              f"gram_matrix calls {counts}; ROADMAP baseline [15, 20, 3, 2]")

        # Layers off the screen path: validation, StateFile read, report
        # serialization and the in-process CLI, on this workload's states.
        tracer.reset()
        for pair in pairs:
            for rho in (pair.a, pair.b):
                states.validate_density(rho.mat, rho.dims)
        report_bytes = []
        for path_a, path_b in files:
            rho_a, rho_b = statefile.load_state(path_a), statefile.load_state(path_b)
            fp_a, fp_b = equivalence.fingerprint(rho_a), equivalence.fingerprint(rho_b)
            report = equivalence.compare_fingerprints(fp_a, fp_b)
            doc = statefile.report_to_doc(report, fp_a, fp_b, equivalence.ScreenConfig())
            report_bytes.append(len(statefile.dumps(doc).encode()))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["compare", path_a, path_b, "--json"])
        m["states.validate_density_us"] = us("states.validate_density")
        m["statefile.load_state_us"] = us("statefile.load_state")
        m["statefile.report_dumps_us"] = us("statefile.dumps")
        m["statefile.report_bytes"] = metric(statistics.mean(report_bytes), "B")
        m["cli.main_inproc_ms"] = metric(us("cli.main")["value"] / 1e3, "ms")
    finally:
        tracer.uninstall()

    overhead = statistics.mean(traced.lat) / statistics.mean(untraced.lat) - 1.0
    m["trace.overhead_frac"] = metric(overhead, "frac")

    starts = []
    for _ in range(FRESH_PROCESSES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True)
        starts.append((time.perf_counter() - t0) * 1e3)
    m["cli.process_start_ms"] = metric(statistics.median(starts), "ms")
    m["cli.import_ms"] = metric(fresh_median("import", "import_ms", workload, seed, tally), "ms")

    rho = workloads.largest_state(pairs)
    cold = fresh_median("fingerprint", "cold_ms", workload, seed, tally)
    rank = equivalence.fingerprint(rho).rank
    warm = []
    for _ in range(10):
        t0 = time.perf_counter()
        equivalence.fingerprint(rho)
        warm.append((time.perf_counter() - t0) * 1e3)
    m["equivalence.fingerprint_cold_ms"] = metric(cold, "ms")
    m["equivalence.fingerprint_warm_ms"] = metric(statistics.median(warm), "ms")
    print(f"largest state {'x'.join(map(str, rho.dims))} rank {rank}: "
          "first fingerprint in a fresh process "
          f"{cold:.2f} ms, warm {statistics.median(warm):.2f} ms")
    print(f"traced loop: {screens} screens, {fps} fingerprints")
    return m


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pinning": THREAD_PINNING,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCREEN_SHARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lu_invar" / "__init__.py").is_file():
        print(f"error: no lu_invar package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    tally = Tally()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args.workload, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    if any(math.isnan(v["value"]) for v in metrics.values()):
        tally.correct = False
    for name, value in sorted(metrics.items()):
        print(f"{name} {value['value']:.6g} {value['unit']}")
    for reason, count in tally.reasons.most_common():
        print(f"failed runs x{count}: {reason}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
