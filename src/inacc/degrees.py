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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _scan
from .core import (
    TOL_NUM,
    TOL_SEP,
    NotAchievable,
    NotInBlindSpot,
    OutOfRange,
    PriorHasZero,
    ProbabilityVector,
    SeparationBelowTolerance,
    SeparationFailed,
    UtilityFunction,
    VerificationFailed,
    expectation,
    require_same_n,
)
from .conditioning import radon_nikodym
from .construct import (
    DEFAULT_MAX_OUTCOMES,
    InaccessibilityReport,
    _guard_outcomes,
    log_density_ratio,
    verify_inaccessibility,
)
from .partitions import SetPartition, proper_nontrivial_count

#: attempts before giving up on a separating direction / usable eta
MAX_SEPARATION_ATTEMPTS = 64


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
    n = require_same_n(p_star, p)
    if not p.strictly_positive:
        raise PriorHasZero("credence p must be strictly positive")
    _guard_outcomes(n, max_outcomes)
    raw = _scan.class_scan(n, p_star.as_array(), p.as_array(), workers=workers)
    classes = tuple(
        PosteriorClass(posterior=ProbabilityVector(rep), multiplicity=count)
        for rep, count in raw
    )
    total = sum(c.multiplicity for c in classes)
    expected = proper_nontrivial_count(n)
    if total != expected:
        raise VerificationFailed(f"multiplicities sum to {total}, expected {expected}")
    return classes


def find_separating_direction(
    classes: Sequence[PosteriorClass],
    *,
    seed: int = 0,
    max_attempts: int = MAX_SEPARATION_ATTEMPTS,
) -> UtilityFunction:
    """A direction u making the class expectations pairwise distinct.

    Sampled uniformly from [-1, 1]^n with a seeded generator and verified
    (min gap > TOL_SEP); the hyperplanes where two classes tie are a null
    set, so a handful of attempts suffices unless classes coincide.
    """
    if not classes:
        raise OutOfRange("need at least one posterior class")
    reps = np.asarray([c.posterior.weights for c in classes], dtype=np.float64)
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        u = rng.uniform(-1.0, 1.0, reps.shape[1])
        vals = np.sort(reps @ u)
        if len(vals) == 1 or float(np.min(np.diff(vals))) > TOL_SEP:
            return UtilityFunction(u)
    raise SeparationFailed(
        f"no separating direction after {max_attempts} attempts; "
        "classes are (numerically) coincident"
    )


@dataclass(frozen=True)
class PerturbedScore:
    """g_eta = g + eta*u with eta small enough to keep the sandwich."""

    g_eta: UtilityFunction
    eta: float
    delta: float  # E_{p*}[g] - max class score under g
    scale: float  # R = max |E_q[u]| + |E_{p*}[u]|


def perturbed_score(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    u: UtilityFunction,
    eta_fraction: float = 0.5,
    *,
    classes: Sequence[PosteriorClass] | None = None,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> PerturbedScore:
    """Perturb g along u without losing the posterior-vs-target gap.

    eta starts at eta_fraction * delta / (2R) and is halved until the two
    postconditions hold: class scores pairwise distinct, and the maximum
    posterior score strictly below E_{p*}[g_eta].  eta_fraction = 0 is
    honored literally (no perturbation) and only the checks remain.
    """
    n = require_same_n(p_star, p, u)
    if not 0.0 <= eta_fraction < 1.0:
        raise OutOfRange(f"eta_fraction must lie in [0,1), got {eta_fraction}")
    if not radon_nikodym(p_star, p).injective:
        raise NotInBlindSpot("perturbed score requires an injective ratio p*/p")
    if classes is None:
        classes = posterior_classes(
            p_star, p, workers=workers, max_outcomes=max_outcomes
        )
    g = log_density_ratio(p_star, p)
    reps = np.asarray([c.posterior.weights for c in classes], dtype=np.float64)
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
        class_scores = np.sort(reps @ candidate)
        distinct = len(class_scores) == 1 or float(np.min(np.diff(class_scores))) > TOL_SEP
        margin = float(np.dot(p_star.as_array(), candidate) - class_scores[-1])
        if distinct and margin > TOL_NUM:
            return PerturbedScore(
                g_eta=UtilityFunction(candidate), eta=eta, delta=delta, scale=scale
            )
        if eta == 0.0:
            break
        eta /= 2.0
    raise SeparationFailed("no eta kept class scores distinct under the gap bound")


@dataclass(frozen=True)
class SpectrumClass:
    posterior: ProbabilityVector
    multiplicity: int
    score: float  # E_q[g_eta]


@dataclass(frozen=True)
class DegreeSpectrum:
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
        scores = [c.score for c in self.classes]
        if any(b - a <= TOL_NUM for a, b in zip(scores, scores[1:])):
            raise VerificationFailed("class scores are not separated")
        if self.cumulative and self.cumulative[-1] != sum(c.multiplicity for c in self.classes):
            raise VerificationFailed("cumulative sums do not match multiplicities")

    @property
    def partition_count(self) -> int:
        return self.cumulative[-1] if self.cumulative else 0

    def to_json_dict(self) -> dict:
        return {
            "classes": [
                {
                    "posterior": list(c.posterior.weights),
                    "multiplicity": c.multiplicity,
                    "score": c.score,
                }
                for c in self.classes
            ],
            "cumulative": list(self.cumulative),
            "achievable": list(self.achievable),
            "eta": self.eta,
            "u": list(self.u.values),
            "seed": self.seed,
            "g_eta": list(self.g_eta.values),
            "e_pstar_score": self.e_pstar_score,
        }


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
    classes = posterior_classes(p_star, p, workers=workers, max_outcomes=max_outcomes)
    u = find_separating_direction(classes, seed=seed)
    ps = perturbed_score(
        p_star,
        p,
        u,
        eta_fraction,
        classes=classes,
        workers=workers,
        max_outcomes=max_outcomes,
    )
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
    cumulative = []
    running = 0
    for sc in scored:
        running += sc.multiplicity
        cumulative.append(running)
    return DegreeSpectrum(
        classes=tuple(scored),
        cumulative=tuple(cumulative),
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
        idx = spectrum.cumulative.index(k)
        if idx + 1 < len(scores):
            c = 0.5 * (scores[idx] + scores[idx + 1])
        else:
            c = 0.5 * (scores[-1] + spectrum.e_pstar_score)
    d = spectrum.g_eta.shifted(c)
    report = verify_inaccessibility(
        p_star, p, d, workers=workers, max_outcomes=max_outcomes
    )
    if report.degree != k or report.e_pstar <= 0.0:
        raise VerificationFailed(
            f"threshold realization produced degree {report.degree}, wanted {k}"
        )
    return RealizedDegree(d=d, c=c, k=k, report=report, spectrum=spectrum)
