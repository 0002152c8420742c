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

``__all__`` is the public API: the paper's quantities, the screen, and
what the command line reaches. The tests' references in
``lu_invar.linalg`` are not part of it.
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
    cayley_det_222,
    f_invariants,
    gram_matrix,
    hypermatrix,
    invariant_M,
    invariant_N,
    lambda_poly,
    realignment_kyfan,
)
from .linalg import haar_unitary
from .states import (
    DensityMatrix,
    PureStateDecomposition,
    apply_local_unitary,
    apply_local_unitary_density,
    eigen_decomposition,
    make_decomposition,
    merge_cut,
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
    "compare_fingerprints",
    "decomposition_fingerprint",
    "eigen_decomposition",
    "f_invariants",
    "fingerprint",
    "gram_matrix",
    "haar_unitary",
    "hypermatrix",
    "invariant_M",
    "invariant_N",
    "lambda_poly",
    "make_decomposition",
    "merge_cut",
    "mix_decomposition",
    "pad_with_zeros",
    "random_density",
    "realignment_kyfan",
    "screen",
    "validate_density",
]
