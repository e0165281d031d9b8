"""Conditionally inaccessible decisions in finite probability spaces.

Construct decisions that look good under a target measure but score
non-positive under every Jeffrey posterior of a credence, verify such
claims exhaustively over all proper non-trivial partitions, enumerate the
realizable inaccessibility degrees, and machine-check the monotonicity
theorem's decomposition identities.
"""

from .core import (
    MIN_OUTCOMES,
    TOL_DEDUP,
    TOL_NORM,
    TOL_NUM,
    TOL_SEP,
    DimensionMismatch,
    InaccError,
    NonFiniteUtility,
    NotAchievable,
    NotAProbability,
    NotInBlindSpot,
    NotInjective,
    OutOfRange,
    PosteriorClasses,
    PriorHasZero,
    ProbabilityVector,
    PStarHasZero,
    RefusedTooLarge,
    SeparationBelowTolerance,
    SeparationFailed,
    TheoremViolation,
    TooSmall,
    UtilityFunction,
    VerificationFailed,
    expectation,
)
from .partitions import (
    NotProper,
    SetPartition,
    adjacent_pair_partition,
    bell_number,
    enumerate_proper_nontrivial,
    proper_nontrivial_count,
)
from .conditioning import (
    BlindSpotResult,
    RadonNikodymRatio,
    in_blind_spot,
    jeffrey_posterior,
    level_set_partition,
    posterior_equals_target,
    radon_nikodym,
)
from .construct import (
    DEFAULT_MAX_OUTCOMES,
    ConstructedDecision,
    GapDecomposition,
    InaccessibilityReport,
    construct_inaccessible_decision,
    kl_divergence,
    log_density_ratio,
    posterior_gap_decomposition,
    verify_inaccessibility,
)
from .degrees import (
    DegreeSpectrum,
    RealizedDegree,
    achievable_degrees,
    degree,
    find_separating_direction,
    inaccessible_set,
    perturbed_score,
    posterior_classes,
    realize_degree,
)
from .monotonicity import (
    AppendixCertificate,
    EpsilonMixtureCheck,
    MonotonicityCheck,
    SweepSummary,
    appendix_certificate,
    check_monotonicity,
    epsilon_mixture_check,
    sweep,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
