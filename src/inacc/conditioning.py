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

import numpy as np

from .core import (
    TOL_NUM,
    DimensionMismatch,
    ProbabilityVector,
    VerificationFailed,
    require_pair,
)
from .partitions import SetPartition


@dataclass(frozen=True)
class RadonNikodymRatio:
    """Componentwise density ratio p*(i)/p(i), its order and an injectivity verdict.

    ``order`` is the stable argsort of the values (0-based, ties in outcome
    order).  ``injective`` requires every gap between neighbours in that
    order to exceed ``TOL_NUM`` (absolute, on the ratio scale); near-ties
    are deliberately declared equal so borderline inputs fail fast instead
    of feeding the construction with vanishing margins.
    """

    values: tuple[float, ...]
    order: tuple[int, ...]
    injective: bool

    @property
    def n(self) -> int:
        return len(self.values)


def ratio_order(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, injective) of ratio rows r, shaped (n,) or (S, n).

    ``order`` is the stable argsort along the last axis, and ``injective``
    holds where every gap between neighbours in that order exceeds
    ``TOL_NUM``: the rule of ``RadonNikodymRatio``, once per row.
    """
    order = np.argsort(r, axis=-1, kind="stable")
    gaps = np.diff(np.take_along_axis(r, order, axis=-1), axis=-1)
    return order, (gaps > TOL_NUM).all(axis=-1)


def radon_nikodym(p_star: ProbabilityVector, p: ProbabilityVector) -> RadonNikodymRatio:
    """Ratio r(i) = p*(i)/p(i); requires p strictly positive."""
    require_pair(p_star, p)
    r = p_star.as_array() / p.as_array()
    order, injective = ratio_order(r)
    return RadonNikodymRatio(
        values=tuple(r.tolist()), order=tuple(order.tolist()), injective=bool(injective)
    )


def jeffrey_posterior(
    p_star: ProbabilityVector, p: ProbabilityVector, partition: SetPartition
) -> ProbabilityVector:
    """Jeffrey posterior q_Pi(i) = p*(B) p(i) / p(B) for i in B in Pi."""
    n = require_pair(p_star, p)
    if partition.n != n:
        raise DimensionMismatch(f"partition over {partition.n} outcomes, measures over {n}")
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
    r, order = ratio.values, ratio.order
    gaps = [r[j] - r[i] for i, j in zip(order, order[1:])]
    k = gaps.index(min(gaps))
    pair = (order[k], order[k + 1])
    witness = SetPartition.from_blocks(
        [[i + 1 for i in pair]] + [[i + 1] for i in range(p.n) if i not in pair]
    )
    if not posterior_equals_target(p_star, p, witness):
        raise VerificationFailed("blind-spot witness failed the posterior check")
    return BlindSpotResult(member=False, witness=witness, ratio=ratio)
