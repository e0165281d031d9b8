"""Jeffrey conditioning, density ratios, and blind-spot membership.

Conditioning a strictly positive credence p on partial evidence about a
target measure p*, organized by a partition Pi, reweights each block B to
the target mass p*(B) while keeping the within-block conditionals of p
fixed.  A target is unreachable this way (for every proper non-trivial
partition) exactly when the componentwise ratio p*/p is injective; that
reduction is what makes membership checkable in O(n log n) instead of
O(Bell(n)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    TOL_NUM,
    DimensionMismatch,
    PriorHasZero,
    ProbabilityVector,
    VerificationFailed,
    require_same_n,
)
from .partitions import SetPartition


@dataclass(frozen=True)
class RadonNikodymRatio:
    """Componentwise density ratio p*(i)/p(i) with an injectivity verdict.

    ``injective`` is decided by sorting the values and requiring every
    adjacent gap to exceed ``TOL_NUM`` (absolute, on the ratio scale);
    near-ties are deliberately declared equal so borderline inputs fail
    fast instead of feeding the construction with vanishing margins.
    """

    values: tuple[float, ...]
    injective: bool

    @property
    def n(self) -> int:
        return len(self.values)


def _require_positive_prior(p: ProbabilityVector) -> None:
    if not p.strictly_positive:
        raise PriorHasZero("credence p must be strictly positive")


def radon_nikodym(p_star: ProbabilityVector, p: ProbabilityVector) -> RadonNikodymRatio:
    """Ratio r(i) = p*(i)/p(i); requires p strictly positive."""
    require_same_n(p_star, p)
    _require_positive_prior(p)
    values = tuple(ps / pi for ps, pi in zip(p_star.weights, p.weights))
    ordered = sorted(values)
    injective = all(b - a > TOL_NUM for a, b in zip(ordered, ordered[1:]))
    return RadonNikodymRatio(values=values, injective=injective)


def jeffrey_posterior(
    p_star: ProbabilityVector, p: ProbabilityVector, partition: SetPartition
) -> ProbabilityVector:
    """Jeffrey posterior q_Pi(i) = p*(B) p(i) / p(B) for i in B in Pi."""
    n = require_same_n(p_star, p)
    if partition.n != n:
        raise DimensionMismatch(f"partition over {partition.n} outcomes, measures over {n}")
    _require_positive_prior(p)
    pstar_mass = [0.0] * partition.block_count
    p_mass = [0.0] * partition.block_count
    for i, lbl in enumerate(partition.rgs):
        pstar_mass[lbl] += p_star.weights[i]
        p_mass[lbl] += p.weights[i]
    q = [
        pstar_mass[lbl] * p.weights[i] / p_mass[lbl]
        for i, lbl in enumerate(partition.rgs)
    ]
    return ProbabilityVector(q)


def posterior_equals_target(
    p_star: ProbabilityVector, p: ProbabilityVector, partition: SetPartition
) -> bool:
    """True iff q_Pi matches p* within TOL_NUM in max-norm."""
    q = jeffrey_posterior(p_star, p, partition)
    return max(abs(a - b) for a, b in zip(q.weights, p_star.weights)) <= TOL_NUM


@dataclass(frozen=True)
class BlindSpotResult:
    """Membership verdict plus a reachability witness when there is one."""

    member: bool
    witness: SetPartition | None
    ratio: RadonNikodymRatio


def in_blind_spot(p_star: ProbabilityVector, p: ProbabilityVector) -> BlindSpotResult:
    """Is p* unreachable as a Jeffrey posterior of p?

    Membership is equivalent to injectivity of the ratio p*/p.  When the
    target is reachable, the witness pairs the two outcomes i, j whose
    ratios are closest in sorted order and leaves every other outcome a
    singleton: q_Pi then moves p_i p_j gap / (p_i + p_j) of mass between
    i and j and matches p* elsewhere, which is below TOL_NUM because that
    gap is.  (A coarser partition, such as the level sets of the ratio,
    need not match: its blocks average ratios that differ by up to
    (n-1) TOL_NUM.)
    """
    ratio = radon_nikodym(p_star, p)
    if ratio.injective:
        return BlindSpotResult(member=True, witness=None, ratio=ratio)
    order = sorted(range(p.n), key=lambda i: ratio.values[i])
    gaps = [ratio.values[b] - ratio.values[a] for a, b in zip(order, order[1:])]
    k = gaps.index(min(gaps))
    pair = (order[k], order[k + 1])
    witness = SetPartition.from_blocks(
        [[i + 1 for i in pair]] + [[i + 1] for i in range(p.n) if i not in pair]
    )
    if not posterior_equals_target(p_star, p, witness):
        raise VerificationFailed("blind-spot witness failed the posterior check")
    return BlindSpotResult(member=False, witness=witness, ratio=ratio)
