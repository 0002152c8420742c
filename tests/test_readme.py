"""The README's "Library" example runs, and gives the values its comments
state."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The python code block of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_gives_its_commented_values():
    code = library_block()
    # the values the comments state, checked below
    for comment in ("# (1, 1, 1/4)", "# 1/256", "# NotEquivalent, witness invariant_N"):
        assert comment in code
    ns = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), ns)
    assert np.abs(ns["f"] - [1.0, 1.0, 0.25]).max() < 1e-12
    assert abs(ns["n"] - 1.0 / 256.0) < 1e-12
    assert ns["report"].verdict == "NotEquivalent"
    assert ns["report"].witness == "invariant_N"
    assert out.getvalue().startswith("Fingerprint(")
