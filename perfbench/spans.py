"""Spans around the package's public functions, installed from outside.

Each traced function is replaced, in every ``lu_invar`` module that holds
a reference to it, by a wrapper that times the call and charges its
duration to the enclosing traced call. Calls made inside the package
(``determinant`` from ``lambda_poly``, ``as_complex_matrix`` from
``hermitian_eig``) are therefore counted too. Nothing under ``src/`` is
edited; ``uninstall`` puts the original functions back.

Spans are aggregated in memory per name: calls, inclusive time, and self
time (inclusive minus the traced calls nested in it).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict


def _lambda_span(args, kwargs) -> str:
    inv = args[2] if len(args) > 2 else kwargs.get("inv")
    return "invariants.lambda_det" if inv == "det" else "invariants.lambda_NM"


# (module, function, span name or a function of the call's arguments)
TARGETS = (
    ("lu_invar.equivalence", "screen", "equivalence.screen"),
    ("lu_invar.equivalence", "fingerprint", "equivalence.fingerprint"),
    ("lu_invar.equivalence", "compare_fingerprints", "equivalence.compare_fingerprints"),
    ("lu_invar.states", "validate_density", "states.validate_density"),
    ("lu_invar.states", "eigen_decomposition", "states.eigen_decomposition"),
    ("lu_invar.invariants", "gram_matrix", "invariants.gram_matrix"),
    ("lu_invar.invariants", "f_invariants", "invariants.f_invariants"),
    ("lu_invar.invariants", "hypermatrix", "invariants.hypermatrix"),
    ("lu_invar.invariants", "invariant_N", "invariants.invariant_NM"),
    ("lu_invar.invariants", "invariant_M", "invariants.invariant_NM"),
    ("lu_invar.invariants", "lambda_poly", _lambda_span),
    ("lu_invar.invariants", "realignment_kyfan", "invariants.realignment_kyfan"),
    ("lu_invar.linalg", "determinant", "linalg.determinant"),
    ("lu_invar.linalg", "char_poly", "linalg.char_poly"),
    ("lu_invar.linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("lu_invar.linalg", "singular_values", "linalg.singular_values"),
    ("lu_invar.linalg", "as_complex_matrix", "linalg.as_complex_matrix"),
    ("lu_invar.statefile", "load_state", "statefile.load_state"),
    ("lu_invar.statefile", "dumps", "statefile.dumps"),
    ("lu_invar.cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, inclusive ns, self ns]
        self.spans = defaultdict(lambda: [0, 0, 0])
        self._child_ns: list[int] = []
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def mean_us(self, name: str, self_time: bool = False) -> float:
        """Mean microseconds per call; NaN if there was no call."""
        calls, total, own = self.spans.get(name, (0, 0, 0))
        return (own if self_time else total) / calls / 1e3 if calls else math.nan

    def _wrap(self, fn, span):
        child_ns = self._child_ns
        spans = self.spans
        name_of = span if callable(span) else (lambda args, kwargs: span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                nested = child_ns.pop()
                if child_ns:
                    child_ns[-1] += dt
                s = spans[name_of(args, kwargs)]
                s[0] += 1
                s[1] += dt
                s[2] += dt - nested

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "lu_invar"]
        for module_name, attr, span in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, span)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)
                        self._restore.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()
