"""Log-ratio scores, KL divergence, and the inaccessible-decision recipe.

The construction: when the ratio r = p*/p is injective, every Jeffrey
posterior scores the log-density g = ln(p*/p) strictly below E_{p*}[g]
(the KL divergence D(p*||p)).  Subtracting a constant that sits between
the posterior maximum M and E_{p*}[g] therefore yields an advantage
function d with E_{p*}[d] > 0 but E_{q_Pi}[d] <= -eps for every proper
non-trivial partition: a decision the credence p cannot reach by
conditioning, no matter what partial evidence arrives.

Exhaustive verification over all Bell(n)-2 partitions is the product
here, not an afterthought: every constructed object is re-checked before
it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from . import _scan
from .core import (
    TOL_NUM,
    NotInBlindSpot,
    OutOfRange,
    PriorHasZero,
    ProbabilityVector,
    PStarHasZero,
    RefusedTooLarge,
    SeparationBelowTolerance,
    UtilityFunction,
    VerificationFailed,
    expectation,
    require_same_n,
)
from .conditioning import in_blind_spot, jeffrey_posterior
from .partitions import SetPartition, proper_nontrivial_count

#: exhaustive scans refuse outcome counts above this unless overridden
DEFAULT_MAX_OUTCOMES = 13
#: no override reaches past this: Bell(16) ~ 1.05e10 rows is about 20 min of
#: scanning, Bell(17) over two hours, and the 2^n subset tables grow with n
MAX_SCAN_OUTCOMES = 16
#: clamp floor applied to g where p*(i) = 0 in clamp mode
CLAMP_FLOOR = 50.0

ZeroMode = Literal["strict", "clamp"]


def log_density_ratio(
    p_star: ProbabilityVector, p: ProbabilityVector, mode: ZeroMode = "strict"
) -> UtilityFunction:
    """g(i) = ln(p*(i)/p(i)); requires p strictly positive.

    In strict mode (default) a zero in p* is rejected, since ln 0 is not a
    real utility.  In clamp mode those entries are floored at -CLAMP_FLOOR;
    callers that hand out certificates must re-verify afterwards.
    """
    require_same_n(p_star, p)
    if not p.strictly_positive:
        raise PriorHasZero("credence p must be strictly positive")
    if mode == "strict":
        if not p_star.strictly_positive:
            raise PStarHasZero("p* has a zero weight; use clamp mode or fix the input")
        return UtilityFunction(
            math.log(ps / pi) for ps, pi in zip(p_star.weights, p.weights)
        )
    values = [
        math.log(ps / pi) if ps > 0.0 else -CLAMP_FLOOR
        for ps, pi in zip(p_star.weights, p.weights)
    ]
    return UtilityFunction(max(v, -CLAMP_FLOOR) for v in values)


def kl_divergence(q1: ProbabilityVector, q2: ProbabilityVector) -> float:
    """D(q1||q2) = sum q1(i) ln(q1(i)/q2(i)), in nats.

    Conventions: terms with q1(i) = 0 contribute 0; any i with q1(i) > 0
    and q2(i) = 0 makes the divergence +inf.  The result is never
    negative (Gibbs' inequality); tiny negative rounding is clipped.
    """
    require_same_n(q1, q2)
    total = 0.0
    for a, b in zip(q1.weights, q2.weights):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        total += a * math.log(a / b)
    return max(total, 0.0)


@dataclass(frozen=True)
class BlockGap:
    """One block's contribution to the posterior score gap."""

    block: tuple[int, ...]  # 1-based outcome labels
    pstar_mass: float
    symmetric_divergence: float  # D(p*_B || p_B) + D(p_B || p*_B)


@dataclass(frozen=True)
class GapDecomposition:
    gap: float  # E_{p*}[g] - E_{q_Pi}[g]
    per_block: tuple[BlockGap, ...]

    @property
    def block_sum(self) -> float:
        return math.fsum(b.pstar_mass * b.symmetric_divergence for b in self.per_block)


def posterior_gap_decomposition(
    p_star: ProbabilityVector, p: ProbabilityVector, partition: SetPartition
) -> GapDecomposition:
    """Split E_{p*}[g] - E_{q_Pi}[g] into per-block symmetric divergences.

    The two sides are computed independently and must agree within
    TOL_NUM; a mismatch means the implementation is broken, not the input.
    """
    require_same_n(p_star, p)
    if not p.strictly_positive:
        raise PriorHasZero("credence p must be strictly positive")
    if not p_star.strictly_positive:
        raise PStarHasZero("gap decomposition needs strictly positive p*")
    g = log_density_ratio(p_star, p)
    q = jeffrey_posterior(p_star, p, partition)
    gap = expectation(g, p_star) - expectation(g, q)
    blocks = []
    for block in partition.blocks():
        ps_mass = p_star.mass(block)
        p_mass = p.mass(block)
        sym = 0.0
        for i in block:
            a = p_star.weights[i - 1] / ps_mass
            b = p.weights[i - 1] / p_mass
            sym += a * math.log(a / b) + b * math.log(b / a)
        blocks.append(BlockGap(block=block, pstar_mass=ps_mass, symmetric_divergence=max(sym, 0.0)))
    decomp = GapDecomposition(gap=gap, per_block=tuple(blocks))
    if abs(decomp.gap - decomp.block_sum) > TOL_NUM:
        raise VerificationFailed(
            f"gap {decomp.gap!r} disagrees with block sum {decomp.block_sum!r}"
        )
    return decomp


@dataclass(frozen=True)
class InaccessibilityReport:
    """Exhaustive classification of E_{q_Pi}[d] over all of P.

    Scores within TOL_NUM of zero count as zero: they land in the
    inaccessible set but break strictness.  Per-partition details are kept
    only for desk-size enumerations (or on request); the counts, extrema
    and verdicts are always present.
    """

    n: int
    partition_count: int
    degree: int
    strong: bool
    e_pstar: float
    e_p: float
    max_score: float
    min_score: float
    argmax_partition: SetPartition | None
    per_partition: tuple[tuple[SetPartition, float], ...] | None = None
    inaccessible_set: tuple[SetPartition, ...] | None = None

    def __post_init__(self):
        if self.inaccessible_set is not None and self.degree != len(self.inaccessible_set):
            raise VerificationFailed("degree disagrees with the stored inaccessible set")
        if self.strong and self.degree != self.partition_count:
            raise VerificationFailed("strong verdict requires every partition inaccessible")

    @property
    def inaccessible(self) -> bool:
        """Conditionally inaccessible: every posterior expectation <= 0."""
        return self.degree == self.partition_count

    def to_json_dict(self, include_partitions: bool | None = None) -> dict:
        out = {
            "n": self.n,
            "partition_count": self.partition_count,
            "degree": self.degree,
            "strong": self.strong,
            "inaccessible": self.inaccessible,
            "e_pstar": self.e_pstar,
            "e_p": self.e_p,
            "max_score": self.max_score,
            "min_score": self.min_score,
            "argmax_partition": str(self.argmax_partition) if self.argmax_partition else None,
        }
        keep = self.per_partition is not None if include_partitions is None else include_partitions
        if keep and self.per_partition is not None:
            out["per_partition"] = [
                {
                    "rgs": str(pi),
                    "block_count": pi.block_count,
                    "expectation": score,
                    "in_inaccessible_set": score <= TOL_NUM,
                }
                for pi, score in self.per_partition
            ]
        else:
            out["per_partition"] = None
        return out


def _guard_outcomes(n: int, max_outcomes: int) -> None:
    limit = min(max_outcomes, MAX_SCAN_OUTCOMES)
    if n > limit:
        raise RefusedTooLarge(
            f"exhaustive enumeration over {n} outcomes refused (guard is {limit}; "
            f"raise it explicitly if you mean it, up to {MAX_SCAN_OUTCOMES})"
        )


def verify_inaccessibility(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    d: UtilityFunction,
    *,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
    keep_partitions: bool | None = None,
) -> InaccessibilityReport:
    """Enumerate all of P and classify every posterior expectation of d.

    ``keep_partitions`` controls whether per-partition details are stored:
    None (default) keeps them only when the enumeration is small.  Kept
    details come from one single-threaded pass, whatever ``workers`` is.
    """
    n = require_same_n(p_star, p, d)
    if not p.strictly_positive:
        raise PriorHasZero("credence p must be strictly positive")
    _guard_outcomes(n, max_outcomes)
    total = proper_nontrivial_count(n)
    if keep_partitions is None:
        keep_partitions = total <= _scan.KEEP_DETAILS_MAX
    ps, pw, dw = p_star.as_array(), p.as_array(), d.as_array()
    per_partition = None
    inaccessible = None
    if keep_partitions:
        chunks = list(_scan.iter_scored_chunks(n, ps, pw, dw))
        scan = _scan.ScoreScan.of_chunks(chunks, TOL_NUM)
        per_partition = tuple(
            (SetPartition(row), score)
            for labels, scores in chunks
            for row, score in zip(labels.tolist(), scores.tolist())
        )
        inaccessible = tuple(pi for pi, s in per_partition if s <= TOL_NUM)
    else:
        scan = _scan.score_scan(n, ps, pw, dw, tol=TOL_NUM, workers=workers)
    if scan.count != total:
        raise VerificationFailed(f"scan saw {scan.count} partitions, expected {total}")
    return InaccessibilityReport(
        n=n,
        partition_count=scan.count,
        degree=scan.num_le,
        strong=scan.num_lt == scan.count,
        e_pstar=expectation(d, p_star),
        e_p=expectation(d, p),
        max_score=scan.max_score,
        min_score=scan.min_score,
        argmax_partition=SetPartition(scan.argmax_rgs),
        per_partition=per_partition,
        inaccessible_set=inaccessible,
    )


@dataclass(frozen=True)
class ConstructedDecision:
    """Output of the witness construction, with its verification report."""

    d: UtilityFunction
    f1: UtilityFunction
    f2: UtilityFunction
    M: float
    delta: float
    epsilon: float
    eps_fraction: float
    report: InaccessibilityReport

    def to_json_dict(self) -> dict:
        return {
            "d": list(self.d.values),
            "f1": list(self.f1.values),
            "f2": list(self.f2.values),
            "M": self.M,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "eps_fraction": self.eps_fraction,
            "report": self.report.to_json_dict(),
        }


def construct_inaccessible_decision(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    eps_fraction: float = 0.5,
    *,
    mode: ZeroMode = "strict",
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> ConstructedDecision:
    """Build a strongly inaccessible decision from a blind-spot pair.

    With M the posterior maximum of g and Delta = E_{p*}[g] - M > 0, the
    advantage d = g - (M + eps) with eps = eps_fraction * Delta satisfies
    E_{p*}[d] = Delta - eps > 0 and E_{q_Pi}[d] <= -eps for every Pi.
    The canonical action pair is (f1, f2) = (d, 0).

    Raises SeparationBelowTolerance when Delta, eps, or Delta - eps falls
    within TOL_NUM of zero: such inputs are too close to degeneracy for
    the certificate to mean anything at the working tolerance.
    """
    n = require_same_n(p_star, p)
    if not 0.0 < eps_fraction < 1.0:
        raise OutOfRange(f"eps_fraction must lie in (0,1), got {eps_fraction}")
    _guard_outcomes(n, max_outcomes)
    bs = in_blind_spot(p_star, p)
    if not bs.member:
        raise NotInBlindSpot(
            f"ratio p*/p is not injective (witness {bs.witness}); nothing to construct"
        )
    g = log_density_ratio(p_star, p, mode=mode)
    scan = _scan.score_scan(
        n, p_star.as_array(), p.as_array(), g.as_array(), workers=workers
    )
    M = scan.max_score
    e_star_g = expectation(g, p_star)
    delta = e_star_g - M
    epsilon = eps_fraction * delta
    if min(delta, epsilon, delta - epsilon) <= TOL_NUM:
        raise SeparationBelowTolerance(
            f"margins (delta={delta!r}, eps={epsilon!r}) within tolerance of zero"
        )
    d = g.shifted(M + epsilon)
    report = verify_inaccessibility(
        p_star, p, d, workers=workers, max_outcomes=max_outcomes
    )
    sound = (
        report.strong
        and report.e_pstar > 0.0
        and report.max_score <= -epsilon + TOL_NUM
        and abs(report.e_pstar - (delta - epsilon)) <= TOL_NUM
    )
    if not sound:
        if mode == "clamp":
            raise PStarHasZero(
                "clamped construction failed exhaustive re-verification"
            )
        raise VerificationFailed("constructed decision failed re-verification")
    return ConstructedDecision(
        d=d,
        f1=d,
        f2=UtilityFunction.zero(n),
        M=M,
        delta=delta,
        epsilon=epsilon,
        eps_fraction=eps_fraction,
        report=report,
    )
