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
    UtilityFunction,
    VerificationFailed,
    require_pair,
)
from .partitions import NotProper, SetPartition, pair_partition


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
    """(order, apart) of ratio or value rows r, shaped (n,) or (S, n).

    ``order`` is the stable argsort along the last axis, and ``apart[..., k]``
    holds where the k-th gap between neighbours in that order exceeds
    ``TOL_NUM``.  This is the one sort and the one tie rule: a row is
    injective when it is apart everywhere (``apart.all(-1)``, the rule of
    ``RadonNikodymRatio``), and its level sets are the runs the false
    gaps join.
    """
    order = np.argsort(r, axis=-1, kind="stable")
    gaps = np.diff(np.take_along_axis(r, order, axis=-1), axis=-1)
    return order, gaps > TOL_NUM


def radon_nikodym(p_star: ProbabilityVector, p: ProbabilityVector) -> RadonNikodymRatio:
    """Ratio r(i) = p*(i)/p(i); requires p strictly positive."""
    require_pair(p_star, p)
    r = p_star.as_array() / p.as_array()
    order, apart = ratio_order(r)
    return RadonNikodymRatio(
        values=tuple(r.tolist()), order=tuple(order.tolist()), injective=bool(apart.all())
    )


def level_set_partition(r: UtilityFunction) -> SetPartition | NotProper:
    """Group outcomes by equal r-values: a block ends at each gap ``ratio_order`` finds apart.

    Returns the level-set partition when it is proper non-trivial, else a
    ``NotProper`` signal: a constant r gives one block, an injective r
    gives n singletons.
    """
    order, apart = ratio_order(r.as_array())
    blocks = np.split(order + 1, np.flatnonzero(apart) + 1)
    if len(blocks) == 1:
        return NotProper(block_count=1, reason="all values equal: single block")
    if len(blocks) == r.n:
        return NotProper(block_count=r.n, reason="all values distinct: n singletons")
    return SetPartition.from_blocks(blocks)


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
    order = np.array(ratio.order)
    k = int(np.argmin(np.diff(np.array(ratio.values)[order])))
    witness = pair_partition(order[k], order[k + 1], ratio.n)
    if not posterior_equals_target(p_star, p, witness):
        raise VerificationFailed("blind-spot witness failed the posterior check")
    return BlindSpotResult(member=False, witness=witness, ratio=ratio)
