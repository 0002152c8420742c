"""The JSON output of ``compute`` and ``compare`` on the bundled fixtures
and on the StateFiles in ``tests/golden/states``, checked against the
files in ``tests/golden``.

Each file is the output of one command, for example
``lu-invar compute src/lu_invar/fixtures/rho1.json --json``. The
StateFiles are a full-rank 4x4 state (``random_density((4, 4), 16,
seed=41)``) and its ``lu-invar random-lu --seed 42`` copy, a rank-2
and a full-rank 2x2 state (seeds 43 and 44), and a full-rank 4x5 state
(``random_density((4, 5), 20, seed=45)``) and its ``random-lu --seed 46``
copy, whose F spans two 16-eigenvalue blocks and whose check table has
20 spectrum rows, and a rank-2 (2,2,2) state (``random_density((2, 2,
2), 2, seed=47)``) and its ``random-lu --seed 48`` copy, compared across
the default cut with every check of the table. Keys,
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

# (golden file, command and states, exit code); a state is a bundled
# fixture or a file in tests/golden/states
CASES = [
    ("compute_rho1.json", ["compute", "rho1"], 0),
    ("compute_rho2.json", ["compute", "rho2"], 0),
    ("compute_sigma1.json", ["compute", "sigma1"], 0),
    ("compute_sigma2.json", ["compute", "sigma2"], 0),
    ("compare_rho1_rho2.json", ["compare", "rho1", "rho2"], 1),
    ("compare_sigma1_sigma2.json", ["compare", "sigma1", "sigma2"], 1),
    ("compare_full44_lu.json", ["compare", "full44.json", "full44_lu.json"], 0),
    ("compare_full45_lu.json", ["compare", "full45.json", "full45_lu.json"], 0),
    ("compare_rank2_full22.json", ["compare", "rank2_22.json", "full22.json"], 1),
    ("compare_tri222_lu.json", ["compare", "tri222.json", "tri222_lu.json"], 0),
]


def state_path(name: str) -> str:
    return str(GOLDEN / "states" / name if name.endswith(".json") else fixture_path(name))


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


@pytest.mark.parametrize("golden, argv, exit_code", CASES, ids=[name for name, *_ in CASES])
def test_fixture_json_output_matches_golden(golden, argv, exit_code, capsys):
    command, *states = argv
    code = main([command, *map(state_path, states), "--json"])
    assert code == exit_code
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / golden).read_text())
    assert mismatches(got, want) == []
