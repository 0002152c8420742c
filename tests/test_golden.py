"""The JSON output of ``compute`` and ``compare`` on the bundled fixtures,
checked against the files in ``tests/golden``.

Each file is the output of one command, for example
``lu-invar compute src/lu_invar/fixtures/rho1.json --json``. Keys,
strings, bools and nulls must match exactly, and so must the number and
order of list items, which fixes the check names and their order.
Numbers must match within 1e-12 absolute, so integers match exactly while
floats may differ in the last digit between numpy and LAPACK builds.
"""

import json
import math
from pathlib import Path

import pytest

from lu_invar.cli import main
from lu_invar.fixtures import fixture_path

GOLDEN = Path(__file__).parent / "golden"
NUMBER_ATOL = 1e-12

CASES = [
    ("compute_rho1.json", ["compute", "rho1"]),
    ("compute_rho2.json", ["compute", "rho2"]),
    ("compute_sigma1.json", ["compute", "sigma1"]),
    ("compute_sigma2.json", ["compute", "sigma2"]),
    ("compare_rho1_rho2.json", ["compare", "rho1", "rho2"]),
    ("compare_sigma1_sigma2.json", ["compare", "sigma1", "sigma2"]),
]


def _kind(x) -> str:
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return repr(type(x))
    if isinstance(x, (int, float)):
        return "number"
    return type(x).__name__


def mismatches(got, want, path="$"):
    """Every place where ``got`` departs from ``want``, as a list of messages."""
    if _kind(got) != _kind(want):
        return [f"{path}: {got!r} is not of the kind of {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if _kind(want) == "number":
        ok = math.isclose(got, want, rel_tol=0.0, abs_tol=NUMBER_ATOL)
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("golden, argv", CASES, ids=[name for name, _ in CASES])
def test_fixture_json_output_matches_golden(golden, argv, capsys):
    command, *states = argv
    code = main([command, *(str(fixture_path(s)) for s in states), "--json"])
    assert code == (0 if command == "compute" else 1)
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / golden).read_text())
    assert mismatches(got, want) == []
