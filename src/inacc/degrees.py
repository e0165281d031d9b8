"""Degree spectra: which inaccessibility degrees are realizable and how.

For a fixed blind-spot pair the map "partition -> posterior" collapses
into finitely many classes with multiplicities.  Any advantage function
can only select an initial segment of those classes (ordered by score),
so the realizable degrees are exactly the cumulative multiplicity sums,
plus zero.  Realization thresholds a perturbed score g_eta = g + eta*u,
where u is a random direction separating the class scores and eta is
small enough to keep the posterior maximum below E_{p*}[g_eta].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _scan
from .core import (
    TOL_NUM,
    TOL_SEP,
    JsonReport,
    NotAchievable,
    NotInBlindSpot,
    OutOfRange,
    ProbabilityVector,
    RefusedTooLarge,
    SeparationBelowTolerance,
    SeparationFailed,
    UtilityFunction,
    VerificationFailed,
    expectation,
    require_same_n,
    require_seed,
)
from .conditioning import radon_nikodym
from .construct import (
    DEFAULT_MAX_OUTCOMES,
    InaccessibilityReport,
    _check_scan_inputs,
    log_density_ratio,
    verify_inaccessibility,
)
from .partitions import SetPartition, proper_nontrivial_count

#: attempts before giving up on a separating direction / usable eta
MAX_SEPARATION_ATTEMPTS = 64
#: posterior classes are refused above this n, whatever max_outcomes says:
#: a generic pair has one class per partition, and one ProbabilityVector
#: each is 4.2M objects at n = 12
MAX_CLASS_OUTCOMES = 11


def inaccessible_set(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    d: UtilityFunction,
    *,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> tuple[SetPartition, ...]:
    """All partitions whose posterior expectation of d is <= 0 (tie rule)."""
    report = verify_inaccessibility(
        p_star, p, d, workers=workers, max_outcomes=max_outcomes, keep_partitions=True
    )
    assert report.inaccessible_set is not None
    return report.inaccessible_set


def degree(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    d: UtilityFunction,
    *,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> int:
    """|I(d)|: how many partitions make the decision non-positive."""
    return verify_inaccessibility(
        p_star, p, d, workers=workers, max_outcomes=max_outcomes, keep_partitions=False
    ).degree


@dataclass(frozen=True)
class PosteriorClass:
    posterior: ProbabilityVector
    multiplicity: int


def posterior_classes(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    *,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> tuple[PosteriorClass, ...]:
    """Distinct Jeffrey posteriors with multiplicities summing to |P|.

    Dedup radius is TOL_DEDUP in max-norm; output is ordered
    lexicographically by posterior weights for reproducibility.
    """
    n = _check_scan_inputs(p_star, p, max_outcomes=max_outcomes)
    if n > MAX_CLASS_OUTCOMES:
        raise RefusedTooLarge(
            f"posterior classes over {n} outcomes refused "
            f"(limit {MAX_CLASS_OUTCOMES}, whatever max_outcomes says)"
        )
    ps, pw = p_star.as_array(), p.as_array()
    classes = _scan.class_scan(n, _scan._ratio_table(ps, pw), pw, workers=workers)
    total = sum(count for _, count in classes)
    expected = proper_nontrivial_count(n)
    if total != expected:
        raise VerificationFailed(f"multiplicities sum to {total}, expected {expected}")
    return tuple(
        PosteriorClass(posterior=ProbabilityVector(rep), multiplicity=count)
        for rep, count in classes
    )


def find_separating_direction(
    classes: Sequence[PosteriorClass],
    *,
    seed: int = 0,
    max_attempts: int = MAX_SEPARATION_ATTEMPTS,
) -> UtilityFunction:
    """A direction u making the class expectations pairwise distinct.

    Sampled uniformly from [-1, 1]^n with a seeded generator and verified
    (min gap > TOL_SEP); the hyperplanes where two classes tie are a null
    set, so a handful of attempts suffices unless classes coincide or are
    too many for their scores to sit TOL_SEP apart.  SeparationFailed
    reports the widest smallest gap the attempts reached.
    """
    if not classes:
        raise OutOfRange("need at least one posterior class")
    require_seed(seed)
    reps = _class_matrix(classes)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(max_attempts):
        u = rng.uniform(-1.0, 1.0, reps.shape[1])
        gap = _smallest_gap(reps @ u)
        if gap > TOL_SEP:
            return UtilityFunction(u)
        best = max(best, gap)
    raise SeparationFailed(
        f"no separating direction after {max_attempts} attempts: the widest smallest gap "
        f"between class scores was {best!r}, not above TOL_SEP = {TOL_SEP!r}"
    )


def _class_matrix(classes: Sequence[PosteriorClass], *measures) -> np.ndarray:
    """The class posteriors as rows; DimensionMismatch unless they and ``measures`` share n."""
    require_same_n(*measures, *(c.posterior for c in classes))
    return np.asarray([c.posterior.weights for c in classes], dtype=np.float64)


def _smallest_gap(scores: np.ndarray) -> float:
    """The least distance between two of the scores; inf for fewer than two."""
    return float(np.min(np.diff(np.sort(scores)))) if scores.size > 1 else math.inf


def _require_blind_spot(p_star: ProbabilityVector, p: ProbabilityVector) -> None:
    """NotInBlindSpot unless p*/p is injective; checked before any class scan."""
    if not radon_nikodym(p_star, p).injective:
        raise NotInBlindSpot("perturbed score requires an injective ratio p*/p")


@dataclass(frozen=True)
class PerturbedScore:
    """g_eta = g + eta*u with eta small enough to keep the sandwich.

    With g = ln(p*/p), delta = E_{p*}[g] - max_q E_q[g] is the
    posterior-vs-target gap and R = max_q |E_q[u]| + |E_{p*}[u]| the
    reach of u, both over the class posteriors q.
    """

    g_eta: UtilityFunction
    eta: float


def perturbed_score(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    u: UtilityFunction,
    eta_fraction: float = 0.5,
    *,
    classes: Sequence[PosteriorClass],
) -> PerturbedScore:
    """Perturb g along u without losing the posterior-vs-target gap.

    ``classes`` are the pair's posterior classes (``posterior_classes``).
    eta starts at eta_fraction * delta / (2R) and is halved until the two
    postconditions hold: class scores pairwise distinct, and the maximum
    posterior score strictly below E_{p*}[g_eta].  eta_fraction = 0 is
    honored literally (no perturbation) and only the checks remain.
    """
    require_same_n(p_star, p, u)
    if not 0.0 <= eta_fraction < 1.0:
        raise OutOfRange(f"eta_fraction must lie in [0,1), got {eta_fraction}")
    _require_blind_spot(p_star, p)
    g = log_density_ratio(p_star, p)
    reps = _class_matrix(classes, p)
    g_arr = g.as_array()
    u_arr = u.as_array()
    g_scores = reps @ g_arr
    delta = expectation(g, p_star) - float(g_scores.max())
    if delta <= TOL_NUM:
        raise SeparationBelowTolerance(
            f"posterior-vs-target gap {delta!r} within tolerance of zero"
        )
    scale = float(np.abs(reps @ u_arr).max()) + abs(expectation(u, p_star))
    eta = 0.0 if scale <= TOL_NUM else eta_fraction * delta / (2.0 * scale)
    for _ in range(MAX_SEPARATION_ATTEMPTS):
        candidate = g_arr + eta * u_arr
        class_scores = reps @ candidate
        margin = float(np.dot(p_star.as_array(), candidate) - class_scores.max())
        if _smallest_gap(class_scores) > TOL_SEP and margin > TOL_NUM:
            return PerturbedScore(g_eta=UtilityFunction(candidate), eta=eta)
        if eta == 0.0:
            break
        eta /= 2.0
    raise SeparationFailed("no eta kept class scores distinct under the gap bound")


@dataclass(frozen=True)
class SpectrumClass(JsonReport):
    posterior: ProbabilityVector
    multiplicity: int
    score: float  # E_q[g_eta]


@dataclass(frozen=True)
class DegreeSpectrum(JsonReport):
    """Posterior classes ordered by perturbed score, with cumulative sums.

    ``achievable`` is {0} plus every cumulative sum K_1 < ... < K_L; when
    all multiplicities are 1 this is the full range 0..Bell(n)-2.
    """

    classes: tuple[SpectrumClass, ...]
    cumulative: tuple[int, ...]
    achievable: tuple[int, ...]
    eta: float
    u: UtilityFunction
    seed: int
    g_eta: UtilityFunction
    e_pstar_score: float  # E_{p*}[g_eta]

    def __post_init__(self):
        if _smallest_gap(np.array([c.score for c in self.classes])) <= TOL_SEP:
            raise VerificationFailed("class scores are not separated")
        if self.cumulative and self.cumulative[-1] != sum(c.multiplicity for c in self.classes):
            raise VerificationFailed("cumulative sums do not match multiplicities")


def achievable_degrees(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    *,
    eta_fraction: float = 0.5,
    seed: int = 0,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> DegreeSpectrum:
    """The degree spectrum of a blind-spot pair.

    Orders the posterior classes by E_q[g_eta] and returns the cumulative
    multiplicity sums; by the initial-segment law these are the only
    degrees any decision with E_{p*}[d] > 0 can have.
    """
    _require_blind_spot(p_star, p)
    classes = posterior_classes(p_star, p, workers=workers, max_outcomes=max_outcomes)
    u = find_separating_direction(classes, seed=seed)
    ps = perturbed_score(p_star, p, u, eta_fraction, classes=classes)
    scored = sorted(
        (
            SpectrumClass(
                posterior=c.posterior,
                multiplicity=c.multiplicity,
                score=expectation(ps.g_eta, c.posterior),
            )
            for c in classes
        ),
        key=lambda sc: sc.score,
    )
    cumulative = tuple(itertools.accumulate(sc.multiplicity for sc in scored))
    return DegreeSpectrum(
        classes=tuple(scored),
        cumulative=cumulative,
        achievable=(0, *cumulative),
        eta=ps.eta,
        u=u,
        seed=seed,
        g_eta=ps.g_eta,
        e_pstar_score=expectation(ps.g_eta, p_star),
    )


@dataclass(frozen=True)
class RealizedDegree:
    d: UtilityFunction
    c: float
    k: int
    report: InaccessibilityReport
    spectrum: DegreeSpectrum


def realize_degree(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    k: int,
    *,
    spectrum: DegreeSpectrum | None = None,
    eta_fraction: float = 0.5,
    seed: int = 0,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> RealizedDegree:
    """A decision with E_{p*}[d] > 0 whose degree is exactly k.

    Thresholds the perturbed score at a constant c chosen between the
    k-th and (k+1)-th class scores (one below every score for k = 0;
    halfway up to E_{p*}[g_eta] above the last class for the maximum
    degree), then re-verifies the degree exhaustively.
    """
    if spectrum is None:
        spectrum = achievable_degrees(
            p_star,
            p,
            eta_fraction=eta_fraction,
            seed=seed,
            workers=workers,
            max_outcomes=max_outcomes,
        )
    if k not in spectrum.achievable:
        raise NotAchievable(
            f"degree {k} not in the achievable set {list(spectrum.achievable)}"
        )
    scores = [c.score for c in spectrum.classes]
    if k == 0:
        c = scores[0] - 1.0
    else:
        upper = (*scores, spectrum.e_pstar_score)
        idx = spectrum.cumulative.index(k)
        c = 0.5 * (upper[idx] + upper[idx + 1])
    d = spectrum.g_eta.shifted(c)
    report = verify_inaccessibility(
        p_star, p, d, workers=workers, max_outcomes=max_outcomes, keep_partitions=False
    )
    if report.degree != k or report.e_pstar <= 0.0:
        raise VerificationFailed(
            f"threshold realization produced degree {report.degree}, wanted {k}"
        )
    return RealizedDegree(d=d, c=c, k=k, report=report, spectrum=spectrum)
