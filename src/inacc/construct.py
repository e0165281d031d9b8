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

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal

import numpy as np

from . import _scan
from .core import (
    TOL_NUM,
    JsonReport,
    NotInBlindSpot,
    OutOfRange,
    ProbabilityVector,
    PStarHasZero,
    RefusedTooLarge,
    SeparationBelowTolerance,
    UtilityFunction,
    VerificationFailed,
    _expectations,
    _is_int,
    expectation,
    require_pair,
    require_same_n,
)
from .conditioning import in_blind_spot, jeffrey_posterior
from .partitions import SetPartition, proper_nontrivial_count

#: exhaustive scans refuse outcome counts above this unless overridden
DEFAULT_MAX_OUTCOMES = 13
#: no override reaches past this: Bell(16) ~ 1.05e10 rows is about 20 min of
#: scanning, Bell(17) over two hours, and the 2^n subset tables grow with n
MAX_SCAN_OUTCOMES = 16
#: per-partition details are kept, and listed in JSON, up to this many rows
#: (Bell(10) - 2); at n = 13 they would hold about 0.58 GB
MAX_JSON_ROWS = 115_973
#: reports keep per-partition details by default up to this many rows
KEEP_DETAILS_MAX = 10_000
#: scans refuse a utility larger than this in magnitude.  A block weight
#: |W(B)| is at most max|d| p*(B) up to rounding.  A score's carry adds the
#: increments W(S) - W(S'), S' = S without its highest outcome, each within
#: |W(S)| + |W(S')| <= 2 max|d|, and every partial total is a total of W over
#: the blocks of a prefix partition, within max|d|.  The epsilon check scans
#: T = W_eps - (1-eps) W, and |d_eps| <= 2 max|d|: |T(B)| <= ((1+eps) p_eps(B)
#: + (1-eps) p*(B)) max|d|, so every total of T over blocks, the residual
#: among them, stays within 2 max|d| and every increment of T within
#: 4 max|d|.  All are then finite.
MAX_UTILITY = sys.float_info.max / 16
#: clamp floor applied to g where p*(i) = 0 in clamp mode
CLAMP_FLOOR = 50.0

_PSTAR_ZERO = "p* has a zero weight; use clamp mode or fix the input"

ZeroMode = Literal["strict", "clamp"]


def log_density_ratio(
    p_star: ProbabilityVector, p: ProbabilityVector, mode: ZeroMode = "strict"
) -> UtilityFunction:
    """g(i) = ln(p*(i)/p(i)); requires p strictly positive.

    In strict mode (default) a zero in p* is rejected, since ln 0 is not a
    real utility.  In clamp mode those entries are floored at -CLAMP_FLOOR;
    callers that hand out certificates must re-verify afterwards.
    """
    require_pair(p_star, p)
    if mode == "strict" and not p_star.strictly_positive:
        raise PStarHasZero(_PSTAR_ZERO)
    return UtilityFunction(_log_ratio(p_star.as_array() / p.as_array(), mode).tolist())


def _log_ratio(r: np.ndarray, mode: ZeroMode) -> np.ndarray:
    """ln r elementwise, with -CLAMP_FLOOR where r is 0 and, in clamp mode, as a floor.

    Logs come from math.log, one entry at a time: np.log differs from it
    in the last bit on some inputs, and constructions are pinned to it.
    Strict callers reject a zero in p* (a zero in r) themselves.
    """
    flat = [math.log(x) if x > 0.0 else -CLAMP_FLOOR for x in r.ravel().tolist()]
    g = np.array(flat).reshape(r.shape)
    return np.maximum(g, -CLAMP_FLOOR) if mode == "clamp" else g


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
    require_pair(p_star, p)
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
class InaccessibilityReport(JsonReport):
    """Exhaustive classification of E_{q_Pi}[d] over all of P.

    Scores within TOL_NUM of zero count as zero: they land in the
    inaccessible set but break strictness.  The verdicts are read off the
    max and must agree with the degree.  Per-partition details are kept
    only for desk-size enumerations (or on request), up to MAX_JSON_ROWS
    = Bell(10) - 2 rows.  Kept details are one (labels, scores) pair of
    arrays, the scan's chunks concatenated.  ``per_partition`` and
    ``inaccessible_set`` build their SetPartition objects on first read,
    and the JSON is written from the arrays.
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
    _rows: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._rows is not None:
            if self.degree != int(_scan._non_positive(self._rows[1]).sum()):
                raise VerificationFailed("degree disagrees with the stored inaccessible set")
        if self.inaccessible != (self.degree == self.partition_count):
            raise VerificationFailed("the maximum's verdict disagrees with the degree")

    @functools.cached_property
    def per_partition(self) -> tuple[tuple[SetPartition, float], ...] | None:
        """(partition, E_{q_Pi}[d]) for every partition, or None when details were not kept."""
        if self._rows is None:
            return None
        labels, scores = self._rows
        return tuple((SetPartition(row), score) for row, score in zip(labels.tolist(), scores.tolist()))

    @functools.cached_property
    def inaccessible_set(self) -> tuple[SetPartition, ...] | None:
        """The partitions scoring <= TOL_NUM, or None when details were not kept."""
        if self._rows is None:
            return None
        labels, scores = self._rows
        return tuple(SetPartition(row) for row in labels[_scan._non_positive(scores)].tolist())

    @property
    def inaccessible(self) -> bool:
        """Conditionally inaccessible: every posterior expectation <= 0."""
        return _scan._verdicts(self.max_score)[0]

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        out["inaccessible"] = self.inaccessible
        out["per_partition"] = None
        if self._rows is not None:
            out["per_partition"] = [dict(zip(ROW_FIELDS, row)) for row in partition_rows([self._rows])]
        return out


#: the columns of a per-partition row, in JSON ``per_partition`` and ``verify --format csv``
ROW_FIELDS = ("rgs", "block_count", "expectation", "in_inaccessible_set")


def partition_rows(chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> Iterator[tuple]:
    """One ROW_FIELDS tuple of plain Python values per row of the (labels, scores) chunks."""
    for labels, scores in chunks:
        flags = _scan._non_positive(scores).tolist()
        for row, score, flag in zip(labels.tolist(), scores.tolist(), flags):
            yield ",".join(map(str, row)), max(row) + 1, score, flag


def _check_scan_inputs(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    *utilities: UtilityFunction,
    max_outcomes: int,
    workers: int = 1,
) -> int:
    """The outcome count n, once the inputs pass the checks every scan needs.

    The knobs come first: max_outcomes must be an integer and workers a
    positive one, by ``core._is_int`` (OutOfRange).  Then all arguments
    share n, the credence p is strictly positive, every utility is within
    MAX_UTILITY in magnitude, and n is within the resource guard, which no
    max_outcomes lifts past MAX_SCAN_OUTCOMES.
    """
    if not _is_int(max_outcomes):
        raise OutOfRange(f"max_outcomes must be an integer, got {max_outcomes!r}")
    if not _is_int(workers) or workers < 1:
        raise OutOfRange(f"workers must be a positive integer, got {workers!r}")
    n = require_pair(p_star, p, *utilities)
    for d in utilities:
        top = float(np.abs(d.as_array()).max())
        if top > MAX_UTILITY:
            raise OutOfRange(
                f"utility magnitude {top!r} above {MAX_UTILITY!r} (the float maximum / 16), "
                "where posterior scores could overflow"
            )
    limit = min(max_outcomes, MAX_SCAN_OUTCOMES)
    if n > limit:
        raise RefusedTooLarge(
            f"exhaustive enumeration over {n} outcomes refused (guard is {limit}; "
            f"raise it explicitly if you mean it, up to {MAX_SCAN_OUTCOMES})"
        )
    return n


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
    details come from one single-threaded pass, whatever ``workers`` is,
    and are refused (RefusedTooLarge) above MAX_JSON_ROWS partitions.
    """
    n = _check_scan_inputs(p_star, p, d, max_outcomes=max_outcomes, workers=workers)
    total = proper_nontrivial_count(n)
    if keep_partitions is None:
        keep_partitions = total <= KEEP_DETAILS_MAX
    if keep_partitions and total > MAX_JSON_ROWS:
        raise RefusedTooLarge(
            f"keeping the details of {total} partitions refused (limit {MAX_JSON_ROWS}); "
            "pass keep_partitions=False for the counts and extrema"
        )
    table = _scan._score_table(p_star.as_array(), p.as_array(), d.as_array())
    rows = None
    if keep_partitions:
        labels, scores = zip(*_scan.iter_scored_chunks(n, table))
        rows = np.concatenate(labels), np.concatenate(scores)
        scan = _scan.ScoreScan.of_stats(_scan._score_stats(*rows))
    else:
        scan = _scan.score_scan(n, table, workers=workers)
    if scan.count != total:
        raise VerificationFailed(f"scan saw {scan.count} partitions, expected {total}")
    return InaccessibilityReport(
        n=n,
        partition_count=scan.count,
        degree=scan.num_le,
        strong=_scan._verdicts(scan.max_score)[1],
        e_pstar=expectation(d, p_star),
        e_p=expectation(d, p),
        max_score=scan.max_score,
        min_score=scan.min_score,
        argmax_partition=SetPartition(scan.argmax_rgs),
        _rows=rows,
    )


@dataclass(frozen=True)
class ConstructedDecision(JsonReport):
    """Output of the witness construction, with its verification report."""

    d: UtilityFunction
    f1: UtilityFunction
    f2: UtilityFunction
    M: float
    delta: float
    epsilon: float
    eps_fraction: float
    report: InaccessibilityReport


def _adjacent_pair_margin(
    r: np.ndarray, order: np.ndarray, p: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Delta, pairs) per row of (S, n) arrays: the least adjacent-pair cost f and its pair.

    Outcomes are taken in ``order``, increasing r = p*/p, and
    f(i, j) = p_i p_j / (p_i + p_j) (r_j - r_i)(g_j - g_i) is the score
    gap E_{p*}[g] - E_{q_Pi}[g] of the partition whose only non-singleton
    block is {i, j}.  See ``construct_inaccessible_decision`` for why the
    least of these n - 1 costs is the gap of the best partition.  pairs
    holds the 0-based (i, j) of the first least cost, shaped (S, 2).
    """
    rows = np.arange(order.shape[0])
    rs, ps, gs = (x[rows[:, None], order] for x in (r, p, g))
    a, b = ps[:, :-1], ps[:, 1:]
    costs = a * b / (a + b) * (rs[:, 1:] - rs[:, :-1]) * (gs[:, 1:] - gs[:, :-1])
    k = costs.argmin(axis=-1)
    pairs = np.stack([order[rows, k], order[rows, k + 1]], axis=-1)
    return costs[rows, k], pairs


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

    M and Delta come in closed form, without a scan.  Let r = p*/p, so
    p*_i = r_i p_i.  For any block B,

        sum_{i in B} p*_i g_i - p*(B) E_p[g | B] = p(B) Cov_{p|B}(r, g)
            = (1 / p(B)) sum_{{i,j} in B} p_i p_j (r_i - r_j)(g_i - g_j),

    which is >= 0 because g is nondecreasing in r (ln r, also when clamped
    at -CLAMP_FLOOR).  So E_{p*}[g] - E_{q_Pi}[g] is a sum of block costs,
    and singletons cost 0.  With f(i,j) = p_i p_j / (p_i + p_j)
    (r_i - r_j)(g_i - g_j) and m its least value over all pairs, each
    pair term p_i p_j (r_i - r_j)(g_i - g_j) = f(i,j)(p_i + p_j) is at
    least m (p_i + p_j), so a block with |B| >= 2 costs at least
    (|B| - 1) m, and the pair partition of a least pair costs exactly m.
    The minimum over all pairs sits at a pair adjacent in ratio order:
    for i < k < j in that order, t = (r_i - r_j)(g_i - g_j) satisfies
    t_ik + t_kj <= t_ij, and with the harmonic weights this gives
    min(f_ik, f_kj) <= f_ij.  Hence Delta = min over the n - 1 adjacent
    pairs of f, and M = E_{p*}[g] - Delta, attained at that pair's
    partition.  The exhaustive re-verification of d then checks the
    closed form on every call: its maximum must equal -eps.

    Raises SeparationBelowTolerance when Delta, eps, or Delta - eps falls
    within TOL_NUM of zero: such inputs are too close to degeneracy for
    the certificate to mean anything at the working tolerance.
    """
    if not 0.0 < eps_fraction < 1.0:
        raise OutOfRange(f"eps_fraction must lie in (0,1), got {eps_fraction}")
    n = _check_scan_inputs(p_star, p, max_outcomes=max_outcomes, workers=workers)
    bs = in_blind_spot(p_star, p)
    if not bs.member:
        raise NotInBlindSpot(
            f"ratio p*/p is not injective (witness {bs.witness}); nothing to construct"
        )
    r, order = np.array([bs.ratio.values]), np.array([bs.ratio.order])
    ps, pw = p_star.as_array()[None], p.as_array()[None]
    d, M, delta, epsilon, zero, thin = (
        x[0].tolist() for x in _closed_form(ps, pw, r, order, eps_fraction, mode)
    )
    if zero:
        raise PStarHasZero(_PSTAR_ZERO)
    if thin:
        raise SeparationBelowTolerance(
            f"margins (delta={delta!r}, eps={epsilon!r}) within tolerance of zero"
        )
    d = UtilityFunction(d)
    report = verify_inaccessibility(
        p_star, p, d, workers=workers, max_outcomes=max_outcomes
    )
    _require_sound(report.e_pstar, report.max_score, delta, epsilon, mode)
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


def _closed_form(
    pstar: np.ndarray,
    p: np.ndarray,
    r: np.ndarray,
    order: np.ndarray,
    eps_fraction: float,
    mode: ZeroMode,
) -> tuple[np.ndarray, ...]:
    """(d, M, Delta, eps, zero, thin) of the construction per row of (S, n) arrays, without a scan.

    Each row needs an injective ratio r = p*/p and ``order``, its ratio
    order.  ``zero`` marks the rows that strict mode refuses (a zero in
    p*) and ``thin`` those whose Delta, eps or Delta - eps lies within
    TOL_NUM of zero; ``construct_inaccessible_decision`` raises
    PStarHasZero and SeparationBelowTolerance for them, in that order.
    Every row is computed as the one-row call computes it.
    """
    g = _log_ratio(r, mode)
    delta, _ = _adjacent_pair_margin(r, order, p, g)
    M = _expectations(g, pstar) - delta
    epsilon = eps_fraction * delta
    thin = np.minimum(np.minimum(delta, epsilon), delta - epsilon) <= TOL_NUM
    zero = (pstar <= 0.0).any(axis=-1) & (mode == "strict")
    return g - (M + epsilon)[:, None], M, delta, epsilon, zero, thin


def _require_sound(e_pstar, max_score, delta, epsilon, mode: ZeroMode) -> None:
    """The re-verification test of a constructed d, from its exhaustive scan's maximum.

    Takes scalars for one d or arrays for several, and raises if any fails.

    d must be strongly inaccessible with E_{p*}[d] = Delta - eps > 0 and a
    posterior maximum of exactly -eps (within TOL_NUM), which also checks
    the closed form against the scan.
    """
    sound = (
        _scan._verdicts(max_score)[1]
        & (e_pstar > 0.0)
        & (abs(max_score + epsilon) <= TOL_NUM)
        & (abs(e_pstar - (delta - epsilon)) <= TOL_NUM)
    )
    if not np.all(sound):
        if mode == "clamp":
            raise PStarHasZero(
                "clamped construction failed exhaustive re-verification"
            )
        raise VerificationFailed("constructed decision failed re-verification")
