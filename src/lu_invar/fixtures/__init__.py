"""Bundled StateFiles for the two worked example pairs."""

from __future__ import annotations

from pathlib import Path

from ..states import DensityMatrix
from ..statefile import load_state

FIXTURE_NAMES = ("rho1", "rho2", "sigma1", "sigma2")


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled StateFile."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    return Path(__file__).resolve().parent / f"{name}.json"


def load_fixture(name: str) -> DensityMatrix:
    """Read and validate one of the bundled example states."""
    return load_state(fixture_path(name))
