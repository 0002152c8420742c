"""The benchmark's traced call graph, checked in tier-1.

``perfbench/spans.py`` wraps package functions by name, and a span that
the screen loop never calls reads NaN in ``perfbench/run.py``'s per-layer
metrics. Each span that ``per_layer`` reads from its screen loop must
therefore be called by a screen of the states the benchmark times: a
rank-2 fixture pair and a full-rank (3,3) state.
"""

import sys
from pathlib import Path

import pytest

import lu_invar.cli  # noqa: F401 -- install() looks up every traced module
from lu_invar.equivalence import screen
from lu_invar.states import random_density

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import Tracer  # noqa: E402

# The spans per_layer reads from the screen loop, by mean time or by
# calls per fingerprint.
SCREEN_SPANS = (
    "equivalence.fingerprint",
    "equivalence.compare_fingerprints",
    "states.eigen_decomposition",
    "invariants.gram_matrix",
    "invariants.f_invariants",
    "invariants.hypermatrix",
    "invariants.invariant_NM",
    "invariants.lambda_det",
    "invariants.lambda_NM",
    "invariants.realignment_kyfan",
)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_screen_calls_every_traced_span(tracer, rho1, rho2):
    full = random_density((3, 3), 9, seed=7)
    assert screen(rho1, rho2).verdict == "NotEquivalent"
    assert screen(full, full).verdict == "Inconclusive"
    missing = [name for name in SCREEN_SPANS if tracer.calls(name) < 1]
    assert not missing, f"spans never called by a screen: {missing}"
    assert tracer.calls("equivalence.fingerprint") == 4
