import numpy as np
import pytest

import lu_invar.states
from lu_invar.fixtures import load_fixture
from lu_invar.states import make_decomposition

SQRT_HALF = 1.0 / np.sqrt(2.0)
SQRT_THIRD = 1.0 / np.sqrt(3.0)


@pytest.fixture(params=["eigh", "factor"])
def solver(request, monkeypatch):
    """Decompose by one solver whatever the state's size: the eigenvectors
    of rho's one eigh, or the pivoted factor. It patches
    ``states.EIGH_MAX_N``, which validation reads, so it acts on the
    states a test validates itself, not on those of session fixtures."""
    limit = 10**9 if request.param == "eigh" else 0
    monkeypatch.setattr(lu_invar.states, "EIGH_MAX_N", limit)
    return request.param


@pytest.fixture
def eigen_solves(monkeypatch):
    """Record the shape of every matrix that ``np.linalg.eigh`` and
    ``np.linalg.eigvalsh`` are given, by name, from here on."""
    calls = {"eigh": [], "eigvalsh": []}
    for name, record in calls.items():
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _record=record, **kwargs):
            _record.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture(scope="session")
def rho1():
    return load_fixture("rho1")


@pytest.fixture(scope="session")
def rho2():
    return load_fixture("rho2")


@pytest.fixture(scope="session")
def sigma1():
    return load_fixture("sigma1")


@pytest.fixture(scope="session")
def sigma2():
    return load_fixture("sigma2")


@pytest.fixture(scope="session")
def rho1_decomp():
    # the printed decomposition of diag(1/2, 1/2, 0, 0)
    return make_decomposition(
        [
            np.array([[SQRT_HALF, 0.0], [0.0, 0.0]]),
            np.array([[0.0, SQRT_HALF], [0.0, 0.0]]),
        ]
    )


@pytest.fixture(scope="session")
def rho2_decomp():
    return make_decomposition(
        [
            np.array([[SQRT_HALF, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [SQRT_HALF, 0.0]]),
        ]
    )


@pytest.fixture(scope="session")
def sigma1_decomp():
    return make_decomposition(
        [
            np.array([[SQRT_THIRD, 0.0], [0.0, 0.0]]),
            np.array([[0.0, SQRT_THIRD], [SQRT_THIRD, 0.0]]),
        ]
    )


@pytest.fixture(scope="session")
def sigma2_decomp():
    return make_decomposition(
        [
            np.array([[np.sqrt(2.0 / 3.0), 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, SQRT_THIRD]]),
        ]
    )
