"""Command-line interface.

Subcommands: ``compute`` (fingerprint one state), ``compare`` (screen a
pair), ``mix`` (demonstrate decomposition independence interactively),
``random-lu`` (generate a locally rotated copy of a state) and
``selftest`` (run the embedded verification suites).

Exit codes: 0 success / inconclusive, 1 not-equivalent or self-test
failure, 2 I/O, parse or usage error, 3 state validation failure.
Runs are reproducible: every randomized command takes ``--seed`` and
falls back to the LU_INVAR_SEED environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace

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
from .linalg import haar_unitary_from_rng
from .states import (
    apply_local_unitary_density,
    eigen_decomposition,
    merge_cut,
    mix_decomposition,
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


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LU_INVAR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise StateFormatError(f"LU_INVAR_SEED must be an integer, got {env!r}") from exc
    return 0


def _config_from(args) -> ScreenConfig:
    """The command's options that are ScreenConfig fields; the fields a
    command has no option for keep their defaults."""
    given = vars(args)
    return ScreenConfig(**{f.name: given[f.name] for f in fields(ScreenConfig) if f.name in given})


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
            extra = " marginal" if c.marginal else ""
            print(
                f"  [{flag}]{extra} {c.name}: {_fmt(c.value_a)} vs {_fmt(c.value_b)}"
                f" (delta {_sci(c.delta) if math.isfinite(c.delta) else 'inf'})"
            )
    return EXIT_OK if report.verdict == "Inconclusive" else EXIT_DIFFER


def cmd_mix(args) -> int:
    """Fingerprint random mixings of the eigenvector decomposition and
    compare each with the first, printing one row per compared check that
    reads the decomposition (every check but ``kyfan``)."""
    cfg = _config_from(args)
    rho = load_state(args.state)
    d = eigen_decomposition(rho, rank_tol=cfg.rank_tol, cut=cfg.cut)
    rng = np.random.default_rng(_seed_from(args))
    fps = [
        decomposition_fingerprint(mix_decomposition(d, haar_unitary_from_rng(len(d), rng)), rho)
        for _ in range(args.count)
    ]
    if not fps:
        print("no mixings requested; nothing to compare")
        return EXIT_OK
    # column t holds the value_b side of mixing t compared with mixing 0;
    # Ky Fan is read from rho, not from the decomposition, so it gets no row
    reports = [compare_fingerprints(fps[0], fp, cfg) for fp in fps]
    rows = [k for k, c in enumerate(reports[0].checks) if c.name != "kyfan"]
    width = max(len(reports[0].checks[k].name) for k in rows)
    header = " ".join(f"mix{t}".rjust(28) for t in range(len(fps)))
    print(f"{'invariant'.ljust(width)} {header}")
    for k in rows:
        row = " ".join(_fmt(r.checks[k].value_b).rjust(28) for r in reports)
        print(f"{reports[0].checks[k].name.ljust(width)} {row}")
    if any(r.verdict != "Inconclusive" for r in reports):
        print("self-consistency FAILED: mixed decompositions disagree", file=sys.stderr)
        return EXIT_DIFFER
    return EXIT_OK


def cmd_random_lu(args) -> int:
    rho = load_state(args.state)
    if len(rho.dims) > 2 and args.cut is None:
        raise BadCutError(
            "multipartite state: pass --cut to choose the bipartition for the local pair"
        )
    bip = merge_cut(rho, 1 if args.cut is None else args.cut)
    moved = apply_local_unitary_density(bip, random_local_unitaries(bip.dims, _seed_from(args)))
    save_state(replace(moved, dims=rho.dims), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    # imported here so that the other commands do not load the suites
    from .selftest import run_selftest

    results = run_selftest(full=args.full, seed=_seed_from(args))
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail and not r.passed else ""
        print(f"{r.name} {flag}{detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_DIFFER


def _add_seed(parser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="random seed (fallback: LU_INVAR_SEED)")


def _add_common(parser) -> None:
    parser.add_argument("--rank-tol", dest="rank_tol", type=float, default=ScreenConfig.rank_tol,
                        help="eigenvalues at or below this count as zero")
    parser.add_argument("--cut", type=int, default=ScreenConfig.cut,
                        help="bipartition cut for multipartite states (default %(default)s)")


def _add_tolerances(parser) -> None:
    parser.add_argument("--atol", type=float, default=ScreenConfig.atol)
    parser.add_argument("--rtol", type=float, default=ScreenConfig.rtol)


def _count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return count


def _add_format(parser) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", dest="json", action="store_false")
    parser.set_defaults(json=False)


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
    _add_format(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("compare", help="screen a pair of states")
    p.add_argument("state_a")
    p.add_argument("state_b")
    _add_common(p)
    _add_tolerances(p)
    _add_format(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mix", help="invariants across random decomposition mixings")
    p.add_argument("state")
    _add_common(p)
    _add_seed(p)
    p.add_argument("--count", type=_count, default=5, help="number of random mixings")
    _add_tolerances(p)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("random-lu", help="write a locally rotated copy of a state")
    p.add_argument("state")
    _add_seed(p)
    p.add_argument("--cut", type=int, default=None,
                   help="bipartition cut (required for multipartite input)")
    p.add_argument("--out", required=True, help="output StateFile path")
    p.set_defaults(func=cmd_random_lu)

    p = sub.add_parser("selftest", help="run the embedded verification suites")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--quick", dest="full", action="store_false")
    mode.add_argument("--full", dest="full", action="store_true")
    _add_seed(p)
    p.set_defaults(full=False, func=cmd_selftest)

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
