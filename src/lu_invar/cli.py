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

import numpy as np

from ._version import __version__
from .equivalence import (
    ScreenConfig,
    _make_check,
    compare_fingerprints,
    fingerprint,
    screen,
)
from .errors import (
    BadCutError,
    LuInvarError,
    NotBipartiteError,
    StateFormatError,
    ValidationError,
)
from .invariants import f_invariants, gram_matrix, hypermatrix, invariant_M, invariant_N
from .linalg import haar_unitary_from_rng
from .states import eigen_decomposition, merge_cut, mix_decomposition, validate_density
from .statefile import dumps, fingerprint_to_doc, load_state, report_to_doc, save_state

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_USAGE = 2
EXIT_INVALID = 3

# exact rationals of the bundled example pairs, rendered next to
# matching values in text output
_KNOWN_CONSTANTS = (
    (1.0 / 256.0, "1/256"),
    (1.0 / 6561.0, "1/6561"),
    (1.0 / math.sqrt(2.0), "1/sqrt(2)"),
    (0.25, "1/4"),
    (2.0 / 9.0, "2/9"),
)


def _sci(x: float) -> str:
    """Compact scientific notation: 0.00390625 -> '3.90625e-3'."""
    if x == 0:
        return "0"
    if x == int(x) and abs(x) < 1e6:
        return str(int(x))
    mantissa, exponent = f"{x:.15e}".split("e")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}e{int(exponent)}"


def _fmt_real(x: float) -> str:
    # values within 1e-12 of a bundled constant render as that constant
    for value, label in _KNOWN_CONSTANTS:
        if abs(x - value) <= 1e-12:
            return f"{_sci(value)} ({label})"
        if abs(x + value) <= 1e-12:
            return f"{_sci(-value)} (-{label})"
    return _sci(x)


def _fmt(z) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-12:
        return _fmt_real(z.real)
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
    cut = getattr(args, "cut", None)
    return ScreenConfig(
        atol=getattr(args, "atol", 1e-8),
        rtol=getattr(args, "rtol", 1e-8),
        rank_tol=getattr(args, "rank_tol", None),
        cut=1 if cut is None else cut,
    )


def _render_fingerprint_text(path: str, fp, out) -> None:
    print(f"state: {path}", file=out)
    print(f"dims: {' x '.join(str(d) for d in fp.dims)}", file=out)
    print(f"rank: {fp.rank}", file=out)
    for i, value in enumerate(fp.F):
        print(f"F_{i} = {_fmt(value)}", file=out)
    if fp.N_value is not None:
        print(f"N = {_fmt(fp.N_value)}", file=out)
        print(f"M = {_fmt(fp.M_value)}", file=out)
    print(f"kyfan = {_fmt_real(fp.kyfan)}", file=out)
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
    rho_a = load_state(args.state_a)
    rho_b = load_state(args.state_b)
    fp_a = fp_b = None
    if rho_a.dims == rho_b.dims:
        fp_a = fingerprint(rho_a, cfg)
        fp_b = fingerprint(rho_b, cfg)
        report = compare_fingerprints(fp_a, fp_b, cfg)
    else:
        report = screen(rho_a, rho_b, cfg)
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
    cfg = _config_from(args)
    rho = load_state(args.state)
    d = eigen_decomposition(rho, rank_tol=cfg.rank_tol, cut=cfg.cut)
    rng = np.random.default_rng(_seed_from(args))
    columns = []
    for _ in range(args.count):
        u = haar_unitary_from_rng(len(d), rng)
        mixed = mix_decomposition(d, u)
        values = {}
        f = f_invariants(gram_matrix(mixed)).F
        for i in range(len(f)):
            values[f"F_{i}"] = f[i]
        if len(d) == 2:
            h = hypermatrix(mixed, 2)
            values["N"] = invariant_N(h)
            values["M"] = invariant_M(h)
        columns.append(values)
    if not columns:
        print("no mixings requested; nothing to compare")
        return EXIT_OK
    names = list(columns[0])
    width = max(len(n) for n in names)
    header = " ".join(f"mix{t}".rjust(28) for t in range(len(columns)))
    print(f"{'invariant'.ljust(width)} {header}")
    consistent = True
    for name in names:
        row = " ".join(_fmt(col[name]).rjust(28) for col in columns)
        print(f"{name.ljust(width)} {row}")
        base = columns[0][name]
        for col in columns[1:]:
            if not _make_check(name, base, col[name], cfg.atol, cfg.rtol).passed:
                consistent = False
    if not consistent:
        print("self-consistency FAILED: mixed decompositions disagree", file=sys.stderr)
        return EXIT_DIFFER
    return EXIT_OK


def cmd_random_lu(args) -> int:
    rho = load_state(args.state)
    if len(rho.dims) > 2 and args.cut is None:
        raise BadCutError(
            "multipartite state: pass --cut to choose the bipartition for the local pair"
        )
    rng = np.random.default_rng(_seed_from(args))
    if len(rho.dims) == 2:
        n1, n2 = rho.dims
    else:
        bip = merge_cut(rho, args.cut)
        n1, n2 = bip.dims
    u1 = haar_unitary_from_rng(n1, rng)
    u2 = haar_unitary_from_rng(n2, rng)
    full = np.kron(u1, u2)
    moved = validate_density(full @ rho.mat @ full.conj().T, rho.dims, tol=1e-9)
    save_state(moved, args.out)
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
    parser.add_argument("--rank-tol", dest="rank_tol", type=float, default=None,
                        help="eigenvalues at or below this count as zero")
    parser.add_argument("--cut", type=int, default=1,
                        help="bipartition cut for multipartite states (default 1)")


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
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", dest="json", action="store_false")
    p.set_defaults(json=False, func=cmd_compute)

    p = sub.add_parser("compare", help="screen a pair of states")
    p.add_argument("state_a")
    p.add_argument("state_b")
    _add_common(p)
    p.add_argument("--atol", type=float, default=1e-8)
    p.add_argument("--rtol", type=float, default=1e-8)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", dest="json", action="store_false")
    p.set_defaults(json=False, func=cmd_compare)

    p = sub.add_parser("mix", help="invariants across random decomposition mixings")
    p.add_argument("state")
    _add_common(p)
    _add_seed(p)
    p.add_argument("--count", type=int, default=5, help="number of random mixings")
    p.add_argument("--atol", type=float, default=1e-8)
    p.add_argument("--rtol", type=float, default=1e-8)
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
    except StateFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BadCutError, NotBipartiteError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LuInvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
