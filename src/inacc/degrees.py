"""Degree spectra: which inaccessibility degrees are realizable and how.

For a fixed blind-spot pair the map "partition -> posterior" collapses
into finitely many classes with multiplicities.  Any advantage function
can only select an initial segment of those classes (ordered by score),
so the realizable degrees are exactly the cumulative multiplicity sums,
plus zero.  Realization thresholds a perturbed score g_eta = g + eta*u,
where u is a random direction separating the class scores and eta is
small enough to keep the posterior maximum below E_{p*}[g_eta].  The classes
stay one table of arrays, ``core.PosteriorClasses``, from the class scan to the report.
A class product E_q[x] is an elementwise product and numpy's row sum, never
a matrix product, so no BLAS kernel moves eta or a reported score; the
reported scores and E_{p*} are ``math.fsum`` sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _scan
from .core import (
    TOL_NUM,
    TOL_SEP,
    JsonReport,
    NotAchievable,
    NotInBlindSpot,
    OutOfRange,
    PosteriorClasses,
    ProbabilityVector,
    RefusedTooLarge,
    SeparationBelowTolerance,
    SeparationFailed,
    UtilityFunction,
    VerificationFailed,
    _expectations,
    _is_int,
    _json_value,
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
#: the class scan alone took 34 to 49 s and 2.2 GB at n = 12 (2-vCPU Xeon)
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


def posterior_classes(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    *,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> PosteriorClasses:
    """Distinct Jeffrey posteriors with multiplicities summing to |P|.

    Dedup radius is TOL_DEDUP in max-norm; the rows are ordered
    lexicographically by posterior weights for reproducibility.
    """
    n = _check_scan_inputs(p_star, p, max_outcomes=max_outcomes, workers=workers)
    if n > MAX_CLASS_OUTCOMES:
        raise RefusedTooLarge(
            f"posterior classes over {n} outcomes refused "
            f"(limit {MAX_CLASS_OUTCOMES}, whatever max_outcomes says)"
        )
    ps, pw = p_star.as_array(), p.as_array()
    table = _scan.class_scan(n, _scan._ratio_table(ps, pw), pw, workers=workers)
    total = int(table["multiplicity"].sum())
    expected = proper_nontrivial_count(n)
    if total != expected:
        raise VerificationFailed(f"multiplicities sum to {total}, expected {expected}")
    return PosteriorClasses(table["posterior"], table["multiplicity"])


def find_separating_direction(
    classes: PosteriorClasses, *, seed: int = 0, max_attempts: int = MAX_SEPARATION_ATTEMPTS
) -> UtilityFunction:
    """A direction u making the class expectations pairwise distinct.

    Sampled uniformly from [-1, 1]^n with a seeded generator and verified
    (min gap > TOL_SEP); the hyperplanes where two classes tie are a null
    set, so a handful of attempts suffices unless classes coincide or are
    too many for their scores to sit TOL_SEP apart.  SeparationFailed
    reports the widest smallest gap the attempts reached; max_attempts
    must be a positive integer (OutOfRange).
    """
    require_seed(seed)
    if not _is_int(max_attempts) or max_attempts < 1:
        raise OutOfRange(f"max_attempts must be a positive integer, got {max_attempts!r}")
    reps = classes.posteriors
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(max_attempts):
        u = rng.uniform(-1.0, 1.0, reps.shape[1])
        gap = _smallest_gap((reps * u).sum(axis=-1))
        if gap > TOL_SEP:
            return UtilityFunction(u)
        best = max(best, gap)
    raise SeparationFailed(
        f"no separating direction after {max_attempts} attempts: the widest smallest gap "
        f"between class scores was {best!r}, not above TOL_SEP = {TOL_SEP!r}"
    )


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
    classes: PosteriorClasses,
) -> PerturbedScore:
    """Perturb g along u without losing the posterior-vs-target gap.

    ``classes`` are the pair's posterior classes (``posterior_classes``).
    eta starts at eta_fraction * delta / (2R) and is halved until the two
    postconditions hold: class scores pairwise distinct, and the maximum
    posterior score strictly below E_{p*}[g_eta].  eta_fraction = 0 is
    honored literally (no perturbation) and only the checks remain.
    """
    require_same_n(p_star, p, u, classes)
    if not 0.0 <= eta_fraction < 1.0:
        raise OutOfRange(f"eta_fraction must lie in [0,1), got {eta_fraction}")
    _require_blind_spot(p_star, p)
    g = log_density_ratio(p_star, p)
    reps, g_arr, u_arr = classes.posteriors, g.as_array(), u.as_array()
    delta = expectation(g, p_star) - float((reps * g_arr).sum(axis=-1).max())
    if delta <= TOL_NUM:
        raise SeparationBelowTolerance(f"posterior-vs-target gap {delta!r} within tolerance of zero")
    scale = float(np.abs((reps * u_arr).sum(axis=-1)).max()) + abs(expectation(u, p_star))
    eta = 0.0 if scale <= TOL_NUM else eta_fraction * delta / (2.0 * scale)
    for _ in range(MAX_SEPARATION_ATTEMPTS):
        candidate = g_arr + eta * u_arr
        class_scores = (reps * candidate).sum(axis=-1)
        margin = math.fsum(p_star.as_array() * candidate) - float(class_scores.max())
        if _smallest_gap(class_scores) > TOL_SEP and margin > TOL_NUM:
            return PerturbedScore(g_eta=UtilityFunction(candidate), eta=eta)
        if eta == 0.0:
            break
        eta /= 2.0
    raise SeparationFailed("no eta kept class scores distinct under the gap bound")


@dataclass(frozen=True, eq=False)
class DegreeSpectrum(JsonReport):
    """Posterior classes ordered by perturbed score, with cumulative sums.

    ``classes`` is the class table in score order and ``scores`` their
    E_q[g_eta]; JSON lists each class as its posterior, multiplicity and
    score.  ``achievable`` is {0} plus every cumulative sum K_1 < ... < K_L;
    when all multiplicities are 1 this is the full range 0..Bell(n)-2.
    """

    classes: PosteriorClasses
    scores: np.ndarray
    cumulative: tuple[int, ...]
    achievable: tuple[int, ...]
    eta: float
    u: UtilityFunction
    seed: int
    g_eta: UtilityFunction
    e_pstar_score: float  # E_{p*}[g_eta]

    def __post_init__(self):
        if _smallest_gap(self.scores) <= TOL_SEP:
            raise VerificationFailed("class scores are not separated")
        if self.cumulative and self.cumulative[-1] != int(self.classes.multiplicities.sum()):
            raise VerificationFailed("cumulative sums do not match multiplicities")

    def to_json_dict(self) -> dict:
        table = self.classes
        rows = zip(table.posteriors.tolist(), table.multiplicities.tolist(), self.scores.tolist())
        report = {"classes": [{"posterior": q, "multiplicity": m, "score": s} for q, m, s in rows]}
        # every other field as JsonReport writes it, after classes and scores
        return report | {f.name: _json_value(getattr(self, f.name)) for f in fields(self)[2:]}


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
    scores = _expectations(ps.g_eta.as_array(), classes.posteriors)
    order = np.argsort(scores, kind="stable")
    ranked = classes.take(order)
    cumulative = tuple(np.cumsum(ranked.multiplicities).tolist())
    return DegreeSpectrum(
        classes=ranked, scores=scores[order], cumulative=cumulative, achievable=(0, *cumulative),
        eta=ps.eta, u=u, seed=int(seed), g_eta=ps.g_eta, e_pstar_score=expectation(ps.g_eta, p_star),
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
    degree), then re-verifies the degree exhaustively.  k must be an int
    or a numpy integer, not a bool (OutOfRange).
    """
    if not _is_int(k):
        raise OutOfRange(f"k must be an integer, got {k!r}")
    if spectrum is None:
        spectrum = achievable_degrees(
            p_star, p, eta_fraction=eta_fraction, seed=seed, workers=workers, max_outcomes=max_outcomes
        )
    if k not in spectrum.achievable:
        raise NotAchievable(f"degree {k} not in the achievable set {list(spectrum.achievable)}")
    upper = np.append(spectrum.scores, spectrum.e_pstar_score)
    if k == 0:
        c = float(upper[0]) - 1.0
    else:
        idx = spectrum.cumulative.index(k)
        c = 0.5 * float(upper[idx] + upper[idx + 1])
    d = spectrum.g_eta.shifted(c)
    report = verify_inaccessibility(
        p_star, p, d, workers=workers, max_outcomes=max_outcomes, keep_partitions=False
    )
    if report.degree != k or report.e_pstar <= 0.0:
        raise VerificationFailed(
            f"threshold realization produced degree {report.degree}, wanted {k}"
        )
    return RealizedDegree(d=d, c=c, k=k, report=report, spectrum=spectrum)
