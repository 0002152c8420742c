"""Command-line interface.

Subcommands: ``compute`` (fingerprint one state), ``compare`` (screen a
pair), ``mix`` (demonstrate decomposition independence interactively),
``random-lu`` (generate a locally rotated copy of a state) and
``selftest`` (run the embedded verification suites).

Exit codes: 0 success / inconclusive, 1 not-equivalent or self-test
failure, 2 I/O, parse or usage error, 3 state validation failure.
Runs are reproducible: every randomized command takes ``--seed``
(default 0), and nothing else sets the seed.
"""

from __future__ import annotations

import argparse
import math
import sys
import numpy as np

from ._version import __version__
from .equivalence import (
    ScreenConfig,
    compare_fingerprints,
    decomposition_fingerprint,
    fingerprint,
    screen_with_fingerprints,
)
from .errors import (
    BadCutError,
    BadToleranceError,
    LuInvarError,
    NotBipartiteError,
    StateFormatError,
    ValidationError,
)
from .linalg import haar_unitary
from .states import (
    apply_local_unitary_density,
    eigen_decomposition,
    merge_cut,
    mix_decomposition,
    numerical_rank,
    random_local_unitaries,
)
from .statefile import dumps, fingerprint_to_doc, load_state, report_to_doc, save_state

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_USAGE = 2
EXIT_INVALID = 3

def _sci(x: float) -> str:
    """Compact scientific notation in the shortest digits that read back
    as ``x``: 0.00390625 -> '3.90625e-3'; integers below 1e6 as integers."""
    if x == int(x) and abs(x) < 1e6:
        return str(int(x))
    mantissa, exponent = np.format_float_scientific(x, unique=True, trim="-").split("e")
    return f"{mantissa}e{int(exponent)}"


def _fmt(z) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-12:
        return _sci(z.real)
    return f"{_sci(z.real)}{'+' if z.imag >= 0 else '-'}{_sci(abs(z.imag))}i"


def _config_from(args) -> ScreenConfig:
    return ScreenConfig(rank_tol=args.rank_tol, cut=args.cut)


def _render_fingerprint_text(path: str, fp, out) -> None:
    print(f"state: {path}", file=out)
    print(f"dims: {' x '.join(str(d) for d in fp.dims)}", file=out)
    print(f"rank: {fp.rank}", file=out)
    for i, value in enumerate(fp.F):
        print(f"F_{i} = {_fmt(value)}", file=out)
    if fp.N_value is not None:
        print(f"N = {_fmt(fp.N_value)}", file=out)
        print(f"M = {_fmt(fp.M_value)}", file=out)
    print(f"kyfan = {_sci(fp.kyfan)}", file=out)
    for key, coeffs in fp.lambda_coeffs.items():
        rendered = ", ".join(_fmt(c) for c in coeffs)
        print(f"lambda_{key} = [{rendered}]", file=out)


def cmd_compute(args) -> int:
    cfg = _config_from(args)
    rho = load_state(args.state)
    fp = fingerprint(rho, cfg)
    if args.json:
        sys.stdout.write(dumps(fingerprint_to_doc(fp)))
    else:
        _render_fingerprint_text(args.state, fp, sys.stdout)
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _config_from(args)
    report, fp_a, fp_b = screen_with_fingerprints(
        load_state(args.state_a), load_state(args.state_b), cfg
    )
    if args.json:
        sys.stdout.write(dumps(report_to_doc(report, fp_a, fp_b, cfg)))
    else:
        print(f"verdict: {report.verdict}")
        if report.witness is not None:
            a, b, delta = report.witness_values
            if delta is None:
                print(f"witness: {report.witness} ({a} vs {b})")
            else:
                print(
                    f"witness: {report.witness} "
                    f"({_fmt(a)} vs {_fmt(b)}, |delta| = {_sci(delta)})"
                )
        print("checks:")
        for c in report.checks:
            flag = "pass" if c.passed else "FAIL"
            print(
                f"  [{flag}] {c.name}: {_fmt(c.value_a)} vs {_fmt(c.value_b)}"
                f" (delta {_sci(c.delta) if math.isfinite(c.delta) else 'inf'},"
                f" threshold {_sci(c.threshold)})"
            )
    return EXIT_OK if report.verdict == "Inconclusive" else EXIT_DIFFER


def cmd_mix(args) -> int:
    """Fingerprint random mixings of the eigenvector decomposition across
    ``--cut`` and compare each with the first, printing one row per
    compared check (a decomposition fingerprint has no Ky Fan)."""
    cfg = _config_from(args)
    rho = load_state(args.state)
    bip = merge_cut(rho, cfg.cut)
    d = eigen_decomposition(bip, numerical_rank(bip.spectrum, cfg.rank_tol))
    rng = np.random.default_rng(args.seed)
    fps = [
        decomposition_fingerprint(mix_decomposition(d, haar_unitary(len(d), rng)), rho)
        for _ in range(args.count)
    ]
    if not fps:
        print("no mixings requested; nothing to compare")
        return EXIT_OK
    # column t holds the value_b side of mixing t compared with mixing 0
    reports = [compare_fingerprints(fps[0], fp) for fp in fps]
    width = max(len(c.name) for c in reports[0].checks)
    header = " ".join(f"mix{t}".rjust(28) for t in range(len(fps)))
    print(f"{'invariant'.ljust(width)} {header}")
    for k, check in enumerate(reports[0].checks):
        row = " ".join(_fmt(r.checks[k].value_b).rjust(28) for r in reports)
        print(f"{check.name.ljust(width)} {row}")
    if any(r.verdict != "Inconclusive" for r in reports):
        print("self-consistency FAILED: mixed decompositions disagree", file=sys.stderr)
        return EXIT_DIFFER
    return EXIT_OK


def cmd_random_lu(args) -> int:
    rho = load_state(args.state)
    moved = apply_local_unitary_density(rho, random_local_unitaries(rho.dims, args.seed))
    save_state(moved, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    # imported here so that the other commands do not load the suites
    from .selftest import run_selftest

    results = run_selftest(full=args.full, seed=args.seed)
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail and not r.passed else ""
        print(f"{r.name} {flag}{detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_DIFFER


def _add_seed(parser) -> None:
    parser.add_argument("--seed", type=_non_negative, default=0,
                        help="random seed, an integer >= 0 (default %(default)s)")


def _add_common(parser) -> None:
    parser.add_argument("--rank-tol", dest="rank_tol", type=float, default=ScreenConfig.rank_tol,
                        help="eigenvalues at or below this count as zero")
    parser.add_argument("--cut", type=int, default=ScreenConfig.cut,
                        help="bipartition cut for multipartite states (default %(default)s)")


def _non_negative(text: str) -> int:
    """The argument type of ``--count`` and ``--seed``."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lu-invar",
        description="Decomposition-independent local-unitary invariants of mixed states",
    )
    parser.add_argument("--version", action="version", version=f"lu-invar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="fingerprint one state")
    p.add_argument("state")
    _add_common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("compare", help="screen a pair of states", description=(
        "Screen a pair of states. States are compared as given: a copy off by more than "
        "rounding, such as one rounded to 13 or fewer significant digits, reads NotEquivalent."))
    p.add_argument("state_a")
    p.add_argument("state_b")
    _add_common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mix", help="invariants across random decomposition mixings")
    p.add_argument("state")
    _add_common(p)
    _add_seed(p)
    p.add_argument("--count", type=_non_negative, default=5, help="number of random mixings")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("random-lu", help="write a locally rotated copy of a state")
    p.add_argument("state")
    _add_seed(p)
    p.add_argument("--out", required=True, help="output StateFile path")
    p.set_defaults(func=cmd_random_lu)

    p = sub.add_parser("selftest", help="run the embedded verification suites")
    p.add_argument("--full", action="store_true", help=(
        "run 100 trials per property (default 10) and add the padding and covariance suites"))
    _add_seed(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (StateFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BadCutError, BadToleranceError, NotBipartiteError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LuInvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
