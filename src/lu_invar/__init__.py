"""Decomposition-independent local-unitary invariants of mixed states.

The package computes quantities of a mixed quantum state that do not
depend on which pure-state decomposition the state is written in, and
that are unchanged by local unitary rotations of the subsystems: the
characteristic-polynomial coefficients of the overlap (Gram) matrix, the
degree-4 determinant invariants of the order-4 trace hypermatrix, the
lambda-polynomial coefficients built from either, Cayley's 2x2x2
hyperdeterminant, and the realignment Ky Fan norm. On top of these, the
``equivalence`` module screens pairs of states for local-unitary
non-equivalence, and the ``cli`` module exposes everything as the
``lu-invar`` command.
"""

from ._version import __version__
from .equivalence import (
    EquivalenceReport,
    Fingerprint,
    ScreenConfig,
    compare_fingerprints,
    decomposition_fingerprint,
    fingerprint,
    screen,
)
from .errors import (
    BadCutError,
    BadLengthError,
    BadShapeError,
    BadToleranceError,
    DimensionMismatchError,
    LuInvarError,
    NoConvergenceError,
    NotBipartiteError,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    NotUnitaryError,
    StateFormatError,
    TooLargeError,
    UnsupportedFormatError,
    ValidationError,
)
from .invariants import (
    GramMatrix,
    Hypermatrix,
    InvariantVector,
    cayley_det_222,
    f_invariants,
    gram_matrix,
    hypermatrix,
    invariant_M,
    invariant_N,
    lambda_poly,
    realignment,
    realignment_kyfan,
)
from .linalg import (
    char_poly,
    determinant,
    haar_unitary,
    hermitian_eig,
    singular_values,
)
from .states import (
    DensityMatrix,
    PureStateDecomposition,
    apply_local_unitary,
    apply_local_unitary_density,
    eigen_decomposition,
    flatten_multipartite,
    make_decomposition,
    mix_decomposition,
    pad_with_zeros,
    random_density,
    validate_density,
)

__all__ = [
    "__version__",
    "BadCutError",
    "BadLengthError",
    "BadShapeError",
    "BadToleranceError",
    "DensityMatrix",
    "DimensionMismatchError",
    "EquivalenceReport",
    "Fingerprint",
    "GramMatrix",
    "Hypermatrix",
    "InvariantVector",
    "LuInvarError",
    "NoConvergenceError",
    "NotBipartiteError",
    "NotHermitianError",
    "NotPSDError",
    "NotUnitTraceError",
    "NotUnitaryError",
    "PureStateDecomposition",
    "ScreenConfig",
    "StateFormatError",
    "TooLargeError",
    "UnsupportedFormatError",
    "ValidationError",
    "apply_local_unitary",
    "apply_local_unitary_density",
    "cayley_det_222",
    "char_poly",
    "compare_fingerprints",
    "decomposition_fingerprint",
    "determinant",
    "eigen_decomposition",
    "f_invariants",
    "fingerprint",
    "flatten_multipartite",
    "gram_matrix",
    "haar_unitary",
    "hermitian_eig",
    "hypermatrix",
    "invariant_M",
    "invariant_N",
    "lambda_poly",
    "make_decomposition",
    "mix_decomposition",
    "pad_with_zeros",
    "random_density",
    "realignment",
    "realignment_kyfan",
    "screen",
    "singular_values",
    "validate_density",
]
