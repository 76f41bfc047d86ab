"""Random matrix products over local fields.

Cartan/Iwasawa decompositions in SL_d over R and over Q with a p-adic
absolute value, projective contraction geometry, ping-pong freeness
certification with an exact word oracle, and seeded Monte Carlo
estimators for the norm-growth, direction-convergence and
freeness-failure decay phenomena of long random products.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    FreewalkError,
    InvariantViolation,
    UsageError,
)
from .fields import FieldSpec, Interval, abs_value, valuation
from .linalg import (
    as_matrix,
    as_vector,
    dist_point_hyperplane,
    exterior_square,
    fubini_study,
    operator_norm,
    vector_norm,
)
from .decompositions import (
    IwasawaDecomposition,
    KakDecomposition,
    ScaledMatrix,
    iwasawa,
    kak,
    scaled_identity,
    scaled_multiply,
    scaled_premultiply,
)
from .pingpong import (
    ContractionData,
    OracleVerdict,
    ProximalityCertificate,
    contraction_data,
    free_word_oracle,
    is_eps_contracting,
    is_pingpong_tuple,
    is_very_proximal,
    pingpong_certificate,
)
from .walks import (
    WalkMeasure,
    WalkState,
    advance,
    load_measure,
    make_measure,
    make_stream,
    new_walk_state,
    run_walk,
)
from .estimators import (
    DecayEstimate,
    GeometricFit,
    HolderTestFunction,
    IndependenceResult,
    LyapunovEstimate,
    direction_convergence,
    fit_geometric_decay,
    gap_test,
    holder_function,
    independence_test,
    invariant_measure_probe,
    kak_convergence,
    lyapunov_estimate,
    moment_ratio,
    pingpong_decay,
    tuple_decay,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
