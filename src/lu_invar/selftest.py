"""Built-in verification suites for the command line.

The fixture rows, ``fixture_rows``, check that the bundled example states
reproduce their published invariant values; they are computed from one
fingerprint of each state and one screen of each pair.

Every other property is one entry of the table ``properties``, and one
driver, ``run_property``, runs an entry for a number of trials from one
seed. An entry names its report rows with each row's bound and gives a
``trial(rng)`` that draws one random case and returns one deviation per
row. A row passes when its largest deviation is below its bound; a NaN
deviation fails it. Random states are drawn on (2,2) and (2,3) at every
rank from 1 to 4, and on (3,3) from 1 to 9. The properties:
decomposition mixings and local-unitary transforms leave every
invariant unchanged, degenerate eigenbases leave F, N, M and the lambda
coefficients unchanged, locally rotated pairs are never flagged,
zero-padding shifts the determinant polynomial by a power of lambda, and
the 2x2x2 hyperdeterminant obeys its group covariance and agrees with a
Levi-Civita contraction, kept here as its reference. Every property runs
in every profile; ``--full`` sets only the trial count. The mixing,
degree-4, degeneracy and padding properties read their invariants
through ``decomposition_fingerprint``, the path that ``lu-invar mix``
takes: F from each decomposition's Gram spectrum, after its Gram trace
check, and at rank 2 the degree-4 block that ``fingerprint`` shares.
The local-unitary F row compares the F that ``fingerprint`` reports,
read from the state's spectrum at every rank.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .equivalence import decomposition_fingerprint, fingerprint, screen
from .fixtures import FIXTURE_NAMES, load_fixture
from .invariants import cayley_det_222, gram_matrix
from .linalg import haar_unitary
from .states import (
    DensityMatrix,
    apply_local_unitary,
    apply_local_unitary_density,
    eigen_decomposition,
    mix_decomposition,
    pad_with_zeros,
    random_density,
    random_local_unitaries,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Property:
    """One randomized suite: ``rows`` pairs each report row's name with
    its bound, and ``trial(rng)`` returns one deviation per row."""

    rows: tuple[tuple[str, float], ...]
    trial: Callable[[np.random.Generator], tuple[float, ...]]


def fixture_rows() -> list[SuiteResult]:
    """One result per published value of the example states and pairs."""
    states = {key: load_fixture(key) for key in FIXTURE_NAMES}
    r1, r2, s1, s2 = (fingerprint(rho) for rho in states.values())
    ex1 = screen(states["rho1"], states["rho2"])
    ex2 = screen(states["sigma1"], states["sigma2"])
    ky = 1.0 / math.sqrt(2.0)
    rows = (
        ("Example1: N(rho1)=1/256", abs(r1.N_value - 1.0 / 256.0) < 1e-12, f"got {r1.N_value}"),
        ("Example1: N(rho2)=0", abs(r2.N_value) < 1e-12, f"got {r2.N_value}"),
        _f_row("Example1", r1, r2),
        (
            "Example1: screen is NotEquivalent with witness invariant_N",
            ex1.verdict == "NotEquivalent" and ex1.witness == "invariant_N",
            f"verdict={ex1.verdict}, witness={ex1.witness}",
        ),
        (
            "Example1: realignment Ky Fan norm = 1/sqrt(2) for both",
            abs(r1.kyfan - ky) < 1e-10 and abs(r2.kyfan - ky) < 1e-10,
            f"got {r1.kyfan}, {r2.kyfan}",
        ),
        ("Example2: N(sigma1)=1/6561", abs(s1.N_value - 1.0 / 6561.0) < 1e-12, f"got {s1.N_value}"),
        ("Example2: N(sigma2)=0", abs(s2.N_value) < 1e-12, f"got {s2.N_value}"),
        (
            "Example2: M(sigma1)=1/6561, M(sigma2)=0",
            abs(s1.M_value - 1.0 / 6561.0) < 1e-12 and abs(s2.M_value) < 1e-12,
            f"got {s1.M_value}, {s2.M_value}",
        ),
        _f_row("Example2", s1, s2),
        (
            "Example2: screen separates the pair",
            ex2.verdict == "NotEquivalent",
            f"verdict={ex2.verdict}, witness={ex2.witness}",
        ),
    )
    return [SuiteResult(name, bool(ok), detail) for name, ok, detail in rows]


def _f_row(example: str, fa, fb) -> tuple[str, bool, str]:
    dev = _dev(fa.F, fb.F)
    return (f"{example}: F invariants agree on the pair", dev < 1e-10,
            f"max |dF| {dev:.2e}, bound 1e-10")


def _dev(a, b) -> float:
    return float(np.abs(np.subtract(a, b)).max())


def _random_state(rng: np.random.Generator) -> DensityMatrix:
    """A state on (2,2) or (2,3) with rank drawn from 1 to 4, or on (3,3)
    from 1 to 9, so full rank and, on (3,3), mid ranks are drawn too."""
    dims, top = (((2, 2), 4), ((2, 3), 4), ((3, 3), 9))[rng.integers(3)]
    return random_density(dims, int(rng.integers(1, top + 1)), seed=int(rng.integers(2**62)))


def _values(fp) -> np.ndarray:
    """F, N, M and every lambda coefficient of a rank-2 fingerprint, in one array."""
    return np.concatenate([fp.F, [fp.N_value, fp.M_value], *fp.lambda_coeffs.values()])


def _mixing_trial(rng):
    rho = _random_state(rng)
    d = eigen_decomposition(rho)
    base = decomposition_fingerprint(d, rho).F
    mixed = (mix_decomposition(d, haar_unitary(len(d), rng)) for _ in range(5))
    return (np.max([_dev(decomposition_fingerprint(m, rho).F, base) for m in mixed]),)


def _lu_trial(rng):
    rho = _random_state(rng)
    d = eigen_decomposition(rho)
    p = haar_unitary(rho.dims[0], rng)
    q = haar_unitary(rho.dims[1], rng)
    moved = apply_local_unitary_density(rho, [p, q])
    return (
        _dev(gram_matrix(apply_local_unitary(d, p, q)).omega, gram_matrix(d).omega),
        _dev(fingerprint(moved).F, fingerprint(rho).F),
    )


def _degree4_trial(rng):
    rho = random_density((2, 2), 2, seed=int(rng.integers(2**62)))
    d = eigen_decomposition(rho)
    base = _values(decomposition_fingerprint(d, rho))
    mixed = mix_decomposition(d, haar_unitary(2, rng))
    p, q = haar_unitary(2, rng), haar_unitary(2, rng)
    moved = apply_local_unitary_density(rho, [p, q])
    return (
        _dev(_values(decomposition_fingerprint(mixed, rho)), base),
        _dev(_values(decomposition_fingerprint(apply_local_unitary(d, p, q), moved)), base),
    )


def _soundness_trial(rng):
    rho = _random_state(rng)
    locals_ = random_local_unitaries(rho.dims, seed=int(rng.integers(2**62)))
    moved = apply_local_unitary_density(rho, locals_)
    # 1 when the pair is flagged; the row's bound of 1 allows no flag
    return (float(screen(rho, moved).verdict != "Inconclusive"),)


def _padding_trial(rng):
    rho = _random_state(rng)
    d = eigen_decomposition(rho)
    base, *padded = (
        decomposition_fingerprint(pad_with_zeros(d, len(d) + k), rho).lambda_coeffs["det"]
        for k in range(3)
    )
    # multiplying by lambda**k prepends k zero coefficients
    return (np.max([_dev(p, np.pad(base, (k, 0))) for k, p in enumerate(padded, 1)]),)


_SLOT_ACTIONS = ("ia,ajk->ijk", "ja,iak->ijk", "ka,ija->ijk")
_LEVI_CIVITA_2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _cayley_contraction(a: np.ndarray) -> complex:
    """Cayley's hyperdeterminant of a 2x2x2 array by the Levi-Civita
    contraction, the reference the 12-term expansion of
    ``cayley_det_222`` is checked against:
    b_kn = (1/2) eps^{il} eps^{jm} a_{ijk} a_{lmn}, then
    Det = -2 eps^{il} eps^{jm} b_{ij} b_{lm}. The -2 normalization (rather
    than +1/2) is what makes the contraction identical to the expansion;
    it is fixed by the basis tensor with a_000 = a_111 = 1, whose
    hyperdeterminant is 1."""
    eps = _LEVI_CIVITA_2
    b = 0.5 * np.einsum("il,jm,ijk,lmn->kn", eps, eps, a, a)
    return complex(-2.0 * np.einsum("il,jm,ij,lm->", eps, eps, b, b))


def _cayley_trial(rng):
    t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    expanded = cayley_det_222(t)
    compact = _cayley_contraction(t)
    agreement = abs(expanded - compact) / max(abs(expanded), 1e-30)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    scaled = np.linalg.det(b) ** 2 * expanded
    covariance = np.max(
        [abs(cayley_det_222(np.einsum(spec, b, t)) - scaled) for spec in _SLOT_ACTIONS]
    ) / max(abs(scaled), 1e-30)
    # unit product vectors keep the tensor O(1) so the absolute
    # vanishing threshold is meaningful
    u, v, w = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3))
    product = np.einsum(
        "i,j,k->ijk", u / np.linalg.norm(u), v / np.linalg.norm(v), w / np.linalg.norm(w)
    )
    return agreement, covariance, abs(cayley_det_222(product))


def properties(rho1: DensityMatrix) -> dict[str, Property]:
    """The randomized suites by key, in report order. The degeneracy suite
    rotates the twofold-degenerate eigenbasis of Example 1's ``rho1`` and
    compares F, N, M and the lambda coefficients against those of its
    eigenvector decomposition."""
    d1 = eigen_decomposition(rho1)
    base = _values(decomposition_fingerprint(d1, rho1))

    def degeneracy_trial(rng):
        rotated = mix_decomposition(d1, haar_unitary(len(d1), rng))
        return (_dev(_values(decomposition_fingerprint(rotated, rho1)), base),)

    return {
        "mixing": Property(
            (("GramSpectrum: F invariants independent of decomposition mixing", 1e-9),),
            _mixing_trial,
        ),
        "lu": Property(
            (
                ("GramSpectrum: Gram matrix entrywise invariant under local unitaries", 1e-10),
                ("GramSpectrum: F invariants match under local unitaries", 1e-9),
            ),
            _lu_trial,
        ),
        "degree4": Property(
            (
                ("Degree4: N, M and lambda coefficients invariant under mixing", 1e-8),
                ("Degree4: N, M and lambda coefficients invariant under local unitaries", 1e-8),
            ),
            _degree4_trial,
        ),
        "degeneracy": Property(
            (("Degeneracy: invariants stable across degenerate eigenbases", 1e-9),),
            degeneracy_trial,
        ),
        "soundness": Property(
            (("Soundness: locally-unitary-equivalent pairs are never flagged", 1.0),),
            _soundness_trial,
        ),
        "padding": Property(
            (
                (
                    "Padding: det polynomial of zero-padded decomposition is "
                    "lambda^(J-r) times base",
                    1e-9,
                ),
            ),
            _padding_trial,
        ),
        "cayley": Property(
            (
                ("Cayley: 12-term expansion agrees with Levi-Civita contraction", 1e-12),
                ("Cayley: one-slot action scales the value by det(B)^2", 1e-8),
                ("Cayley: vanishes on product tensors", 1e-12),
            ),
            _cayley_trial,
        ),
    }


def run_property(prop: Property, trials: int, seed: int) -> list[SuiteResult]:
    """One result per row of ``prop`` over ``trials`` trials drawn from
    ``seed``. A row passes when its largest deviation is below its bound,
    so a NaN fails it; its detail gives that deviation and the bound."""
    rng = np.random.default_rng(seed)
    worst = np.max([prop.trial(rng) for _ in range(trials)], axis=0)
    return [
        SuiteResult(name, bool(w < bound), f"max {w:.2e} in {trials} trials, bound {bound:.0e}")
        for (name, bound), w in zip(prop.rows, worst)
    ]


def run_selftest(full: bool = False, seed: int = 0) -> list[SuiteResult]:
    """Run the fixture rows and every randomized suite; full mode raises
    the trial count from 10 to 100. The acceptance tests run the same
    suites at their own trial counts and seeds."""
    results = fixture_rows()
    trials = 100 if full else 10
    # suite i draws from seed + 7919 * i; the fixture rows are suites 0 and 1
    for i, prop in enumerate(properties(load_fixture("rho1")).values(), start=2):
        results += run_property(prop, trials, seed + 7919 * i)
    return results
