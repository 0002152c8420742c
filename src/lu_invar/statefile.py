"""JSON file formats and deterministic serialization.

Two document kinds are exchanged on disk:

* StateFile: ``{"dims": [n1, ...], "matrix": [[[re, im], ...], ...]}``
  with a row-major N x N complex matrix, N the product of dims.
* ReportFile: an ``EquivalenceReport`` plus both fingerprints, the tool
  version and the rank tolerance used.

Serialization is deterministic: keys are emitted in alphabetical order
and numbers with 17 significant digits, every zero as ``0`` whatever its
sign, so parse -> serialize round-trips are byte-identical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._version import __version__
from .equivalence import EquivalenceReport, Fingerprint, ScreenConfig
from .errors import StateFormatError
from .states import DensityMatrix, validate_density


def _emit(obj, level: int) -> str:
    """``obj`` as canonical JSON at nesting ``level``, indented two spaces
    per level."""
    pad = "  " * (level + 1)
    closepad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {_emit(obj[k], level + 1)}"
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + closepad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [_emit(x, level + 1) for x in obj]
        if all(len(p) <= 24 and "\n" not in p for p in parts):
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(pad + p for p in parts) + "\n" + closepad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # adding 0.0 turns -0.0 into 0.0, so a zero is always written "0"
        return format(float(obj) + 0.0, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to canonical JSON: sorted keys, 17-significant-digit numbers."""
    return _emit(obj, 0) + "\n"


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def parse_state(doc) -> DensityMatrix:
    """Build a validated state from a parsed StateFile document."""
    if not isinstance(doc, dict):
        raise StateFormatError("state file must contain a JSON object")
    missing = {"dims", "matrix"} - set(doc)
    if missing:
        raise StateFormatError(f"state file missing keys: {sorted(missing)}")
    dims = doc["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) < 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 2 for d in dims)
    ):
        raise StateFormatError("'dims' must list at least two integers >= 2")
    n = math.prod(dims)
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != n:
        raise StateFormatError(f"'matrix' must have {n} rows for dims {dims}")
    mat = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise StateFormatError(f"matrix row {i} must have {n} entries")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise StateFormatError(
                    f"matrix entry ({i}, {j}) must be a [re, im] number pair"
                )
            try:
                z = complex(cell[0], cell[1])
            except OverflowError as exc:
                raise StateFormatError(f"matrix entry ({i}, {j}) overflows a float") from exc
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise StateFormatError(f"matrix entry ({i}, {j}) is not a finite number")
            mat[i, j] = z
    return validate_density(mat, dims)


def load_state(path) -> DensityMatrix:
    """Read and validate a StateFile from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; nesting
        # deeper than the interpreter's recursion limit is a RecursionError
        raise StateFormatError(f"{path} is not valid UTF-8 JSON: {exc}") from exc
    return parse_state(doc)


def state_to_doc(rho: DensityMatrix) -> dict:
    return {
        "dims": [int(d) for d in rho.dims],
        "matrix": [[_pair(z) for z in row] for row in rho.mat],
    }


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(state_to_doc(rho)))


def fingerprint_to_doc(fp: Fingerprint) -> dict:
    doc = {
        "dims": [int(d) for d in fp.dims],
        "rank": int(fp.rank),
        "F": [_pair(z) for z in fp.F],
        "kyfan": None if fp.kyfan is None else float(fp.kyfan),
        "N": None if fp.N_value is None else _pair(fp.N_value),
        "M": None if fp.M_value is None else _pair(fp.M_value),
        "lambda": {
            key: [_pair(z) for z in coeffs] for key, coeffs in fp.lambda_coeffs.items()
        },
    }
    return doc


def _witness_values_doc(report: EquivalenceReport):
    if report.witness_values is None:
        return None
    a, b, delta = report.witness_values
    def value(v):
        if isinstance(v, (tuple, list)):
            return [int(x) for x in v]  # dimension signatures
        return _pair(v)
    return {
        "value_a": value(a),
        "value_b": value(b),
        "delta": None if delta is None or math.isinf(delta) else float(delta),
    }


def report_to_doc(
    report: EquivalenceReport,
    fp_a: Fingerprint | None,
    fp_b: Fingerprint | None,
    cfg: ScreenConfig,
) -> dict:
    return {
        "verdict": report.verdict,
        "witness": report.witness,
        "witness_values": _witness_values_doc(report),
        "checks": [
            {
                "name": c.name,
                "value_a": _pair(c.value_a),
                "value_b": _pair(c.value_b),
                "delta": None if math.isinf(c.delta) else float(c.delta),
                "passed": c.passed,
                "threshold": float(c.threshold),
            }
            for c in report.checks
        ],
        "fingerprint_a": None if fp_a is None else fingerprint_to_doc(fp_a),
        "fingerprint_b": None if fp_b is None else fingerprint_to_doc(fp_b),
        "tolerances": {"rank_tol": None if cfg.rank_tol is None else float(cfg.rank_tol)},
        "tool_version": __version__,
    }
