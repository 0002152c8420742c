"""Seeded inputs of the three benchmark workloads.

States are drawn with numpy alone (Ginibre states, Haar unitaries by QR),
so the inputs stay the same whatever the package does with its own random
helpers. The package sees only the finished matrices, through
``validate_density``, and the bundled fixture files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lu_invar import validate_density
from lu_invar.fixtures import fixture_path, load_fixture

GRID = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4), (8, 8))
# (dims, rank) shapes of each workload. The cli workload keeps to small
# StateFiles (rank at most 9) on both fingerprint paths.
SHAPES = {
    "rank2": tuple((dims, 2) for dims in GRID),
    "fullrank": tuple((dims, math.prod(dims)) for dims in GRID),
    "cli": (((2, 3), 2), ((3, 3), 2), ((2, 2), 4), ((2, 2, 2), 8), ((3, 3), 9)),
}
WORKLOADS = tuple(SHAPES)
# States per shape. Enough that the share of wrongly separated locally
# rotated pairs at full rank barely depends on the seed.
STATES_PER_SHAPE = 32
# States per shape whose pairs the timed loops screen: few enough that
# each pair runs often in a run, for a steady fastest time. Every pair of
# the mix is still screened and checked once.
TIMED_STATES = 8
PROBE_DIMS = (16, 16)
# The CLI and the cold pass skip shapes of higher rank. The first call at
# rank 64 in a process pays seconds of exact Vandermonde inverse: one long
# call that averages over the host's swings in speed, whose spread over
# ten runs passed the largest bound. equivalence.fingerprint_cold_ms, in
# the traced run, measures it.
COLD_MAX_RANK = 16

# Pair kinds. "lu": a state and a locally rotated copy, never
# NotEquivalent. "global": a state and a globally rotated copy, same
# spectrum, not LU-equivalent. "fixture": a bundled pair, same spectrum,
# not LU-equivalent, NotEquivalent by the paper's invariants.
LU, GLOBAL, FIXTURE = "lu", "global", "fixture"
FIXTURE_PAIRS = (("rho1", "rho2"), ("sigma1", "sigma2"))


@dataclass(frozen=True)
class Pair:
    name: str
    kind: str
    shape: tuple  # (dims, rank), the key of the per-process caches
    a: object
    b: object


@dataclass(frozen=True)
class CliOp:
    name: str
    kind: str  # pair kind for compare, "compute" otherwise
    argv: tuple  # arguments after the program name
    a: object
    b: object  # None for compute


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _ginibre(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _rotate(mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = u @ mat @ u.conj().T
    return (out + out.conj().T) / 2.0


def state_triple(dims, rank: int, rng: np.random.Generator):
    """A random state, a locally rotated copy and a globally rotated copy."""
    n = math.prod(dims)
    mat = _ginibre(n, rank, rng)
    local = _haar(dims[0], rng)
    for d in dims[1:]:
        local = np.kron(local, _haar(d, rng))
    glob = _haar(n, rng)
    return tuple(
        validate_density(m, dims) for m in (mat, _rotate(mat, local), _rotate(mat, glob))
    )


def _triple_pairs(dims, rank: int, rng, suffix: str) -> list[Pair]:
    rho, lu, glob = state_triple(dims, rank, rng)
    tag = f"{'x'.join(map(str, dims))} r{rank}{suffix}"
    return [
        Pair(f"{tag} lu", LU, (tuple(dims), rank), rho, lu),
        Pair(f"{tag} global", GLOBAL, (tuple(dims), rank), rho, glob),
    ]


def screen_pairs(workload: str, seed: int) -> list[Pair]:
    """The pair mix of a workload: the fixture pairs, then one locally and
    one globally rotated pair per generated state.

    Ordered state-major over the shapes, so that a run cut short after
    any prefix still holds every shape in about equal measure.
    """
    pairs = []
    for a, b in FIXTURE_PAIRS:
        rho_a, rho_b = load_fixture(a), load_fixture(b)
        pairs.append(Pair(f"{a}/{b}", FIXTURE, (rho_a.dims, 2), rho_a, rho_b))
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    for j in range(STATES_PER_SHAPE):
        for dims, rank in SHAPES[workload]:
            pairs += _triple_pairs(dims, rank, rng, f" #{j}")
    return pairs


def timed_pairs(workload: str, pairs: list[Pair]) -> list[Pair]:
    """The fixture pairs and the pairs of the first TIMED_STATES states of
    each shape: a prefix of the state-major mix."""
    return pairs[:len(FIXTURE_PAIRS) + 2 * TIMED_STATES * len(SHAPES[workload])]


def largest_state(pairs: list[Pair]):
    """The state of the costliest shape in a pair mix."""
    return max(pairs, key=lambda p: (math.prod(p.shape[0]), p.shape[1])).a


def probe_state(seed: int):
    """One full-rank 16x16 state for the bounded-time probe."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    n = math.prod(PROBE_DIMS)
    return validate_density(_ginibre(n, n, rng), PROBE_DIMS)


def write_state(rho, path: Path) -> None:
    """Write a StateFile (docs/statefile-schema.md) with the benchmark's
    own writer, so that the package's serializer is timed only where the
    CLI runs it."""
    rows = ", ".join(
        "[" + ", ".join(f"[{float(z.real)!r}, {float(z.imag)!r}]" for z in row) + "]"
        for row in rho.mat
    )
    dims = ", ".join(str(d) for d in rho.dims)
    path.write_text(f'{{"dims": [{dims}], "matrix": [{rows}]}}\n', encoding="utf-8")


def cli_ops(workload: str, pairs: list[Pair], workdir: Path) -> list[CliOp]:
    """Write StateFiles for a pair mix and list the CLI commands run on them.

    The fixture pairs and the first locally rotated pair of each shape up
    to rank COLD_MAX_RANK get ``compare --json``: the CLI's cold path. On ``cli``
    every state compared also gets ``compute --json``.
    """
    paths = {}
    for pair in pairs:
        if pair.kind == FIXTURE:
            for name, rho in zip(pair.name.split("/"), (pair.a, pair.b)):
                paths[id(rho)] = str(fixture_path(name))

    def path_of(rho) -> str:
        if id(rho) not in paths:
            path = workdir / f"state{len(paths)}.json"
            write_state(rho, path)
            paths[id(rho)] = str(path)
        return paths[id(rho)]

    ops = []
    shapes = set()
    for pair in pairs:
        if pair.shape[1] > COLD_MAX_RANK:
            continue
        if pair.kind == LU:
            if pair.shape in shapes:
                continue
            shapes.add(pair.shape)
        elif pair.kind == GLOBAL:
            continue
        ops.append(CliOp(f"compare {pair.name}", pair.kind,
                         ("compare", path_of(pair.a), path_of(pair.b), "--json"), pair.a, pair.b))
        if workload == "cli":
            for rho in (pair.a, pair.b) if pair.kind == FIXTURE else (pair.a,):
                path = path_of(rho)
                ops.append(CliOp(f"compute {Path(path).name}", "compute",
                                 ("compute", path, "--json"), rho, None))
    return ops
