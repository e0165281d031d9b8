"""Machine checks for "an informed rational decision cannot be worse".

If a decision is objectively good (E_{p*}[d] > 0) but every Jeffrey
posterior scores it non-positive, then the unconditioned credence must
score it strictly negative: conditioning on true partial evidence never
turns a good unconditioned decision into an unreachable one.

The proof is constructive and every intermediate identity is checkable
in floating point, so this module checks all of them: the cumulative
gaps S_m of the sorted mass differences, the adjacent-pair posterior
shifts A_m, the coefficients t_m = S_m / A_m >= 1, the telescoping and
decomposition identities, and the mixture reduction that removes the
strict-positivity assumption on the target measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _scan
from .core import (
    TOL_NUM,
    NotInjective,
    OutOfRange,
    PriorHasZero,
    ProbabilityVector,
    PStarHasZero,
    TheoremViolation,
    UtilityFunction,
    expectation,
    require_same_n,
)
from .conditioning import jeffrey_posterior
from .construct import DEFAULT_MAX_OUTCOMES, _guard_outcomes, verify_inaccessibility
from .partitions import SetPartition


@dataclass(frozen=True)
class MonotonicityCheck:
    """Exhaustive hypothesis check plus the theorem's conclusion."""

    hypotheses_hold: bool  # E_{p*}[d] > 0 and every E_{q_Pi}[d] <= 0
    conclusion_holds: bool  # E_p[d] < 0
    e_pstar: float
    e_p: float
    max_posterior_score: float

    def to_json_dict(self) -> dict:
        return {
            "hypotheses_hold": self.hypotheses_hold,
            "conclusion_holds": self.conclusion_holds,
            "e_pstar": self.e_pstar,
            "e_p": self.e_p,
            "max_posterior_score": self.max_posterior_score,
        }


def check_monotonicity(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    d: UtilityFunction,
    *,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> MonotonicityCheck:
    """Check the hypotheses exhaustively and the conclusion E_p[d] < 0.

    If the hypotheses hold but the conclusion fails, a TheoremViolation
    is raised: that combination is mathematically impossible, so it can
    only mean numerics beyond tolerance or an implementation bug, and it
    must surface rather than be absorbed.
    """
    report = verify_inaccessibility(
        p_star, p, d, workers=workers, max_outcomes=max_outcomes, keep_partitions=False
    )
    hypotheses = report.e_pstar > 0.0 and report.inaccessible
    conclusion = report.e_p < 0.0
    if hypotheses and not conclusion:
        raise TheoremViolation(
            f"inaccessible decision with E_p[d] = {report.e_p!r} >= 0 "
            f"(E_p*[d] = {report.e_pstar!r}, max posterior score = {report.max_score!r})"
        )
    return MonotonicityCheck(
        hypotheses_hold=hypotheses,
        conclusion_holds=conclusion,
        e_pstar=report.e_pstar,
        e_p=report.e_p,
        max_posterior_score=report.max_score,
    )


@dataclass(frozen=True)
class AppendixCertificate:
    """All intermediate quantities of the convexity decomposition.

    Outcomes are sorted so that p/p* increases; in that ordering
    S_m = sum_{i<=m} (p*(i) - p(i)) > 0, the adjacent-pair posteriors
    q_m shift mass A_m > 0 from position m to m+1, and
    p - p* = sum_m t_m (q_m - p*) with t_m = S_m / A_m >= 1, so the
    coefficient sum exceeds 1.  Residuals are max-norm gaps between the
    two sides of each identity, each computed independently.
    """

    ordering: tuple[int, ...]  # 1-based outcome labels, ratio-increasing
    S: tuple[float, ...]
    A: tuple[float, ...]
    t: tuple[float, ...]
    t_sum: float
    decomposition_residual: float
    telescoping_residual: float
    qm_shift_residual: float
    pair_partitions: tuple[SetPartition, ...]

    def to_json_dict(self) -> dict:
        return {
            "ordering": list(self.ordering),
            "S": list(self.S),
            "A": list(self.A),
            "t": list(self.t),
            "t_sum": self.t_sum,
            "decomposition_residual": self.decomposition_residual,
            "telescoping_residual": self.telescoping_residual,
            "qm_shift_residual": self.qm_shift_residual,
            "pair_partitions": [str(pi) for pi in self.pair_partitions],
        }


def appendix_certificate(
    p_star: ProbabilityVector, p: ProbabilityVector
) -> AppendixCertificate:
    """Compute and verify the decomposition certificate for a positive pair.

    Requires p and p* strictly positive and the reciprocal ratio p/p*
    injective (ties abort with NotInjective; no perturbation is applied).
    Invariant failures raise TheoremViolation.
    """
    n = require_same_n(p_star, p)
    if not p.strictly_positive:
        raise PriorHasZero("credence p must be strictly positive")
    if not p_star.strictly_positive:
        raise PStarHasZero("certificate needs strictly positive p*")
    ratio = [pi / ps for pi, ps in zip(p.weights, p_star.weights)]
    order = sorted(range(n), key=lambda i: ratio[i])
    sorted_ratio = [ratio[i] for i in order]
    if any(b - a <= TOL_NUM for a, b in zip(sorted_ratio, sorted_ratio[1:])):
        raise NotInjective("ratio p/p* has ties; certificate needs a strict ordering")

    ps_sorted = np.asarray([p_star.weights[i] for i in order])
    p_sorted = np.asarray([p.weights[i] for i in order])
    S = np.cumsum(ps_sorted - p_sorted)[:-1]

    pairs = []
    posteriors = []
    A = []
    for m in range(1, n):
        blocks = [[order[m - 1] + 1, order[m] + 1]]
        blocks += [[order[i] + 1] for i in range(n) if i not in (m - 1, m)]
        pi_m = SetPartition.from_blocks(blocks)
        q_m = jeffrey_posterior(p_star, p, pi_m)
        pairs.append(pi_m)
        posteriors.append(q_m)
        A.append(q_m.weights[order[m]] - p_star.weights[order[m]])
    A = np.asarray(A)
    t = S / A
    t_sum = float(t.sum())

    # decomposition: p - p* = sum_m t_m (q_m - p*), in original coordinates
    p_arr, ps_arr = p.as_array(), p_star.as_array()
    recon = np.zeros(n)
    for t_m, q_m in zip(t, posteriors):
        recon += t_m * (q_m.as_array() - ps_arr)
    decomposition_residual = float(np.abs((p_arr - ps_arr) - recon).max())

    # telescoping: p - p* = sum_m S_m (e_{m+1} - e_m), in sorted coordinates
    tele = np.zeros(n)
    for m, s_m in enumerate(S, start=1):
        tele[m - 1] -= s_m
        tele[m] += s_m
    telescoping_residual = float(np.abs((p_sorted - ps_sorted) - tele).max())

    # pair shift: q_m - p* = A_m (e_{m+1} - e_m), zero off the pair block
    qm_shift_residual = 0.0
    for m, (a_m, q_m) in enumerate(zip(A, posteriors), start=1):
        diff = q_m.as_array() - ps_arr
        shift = np.zeros(n)
        shift[order[m - 1]] = -a_m
        shift[order[m]] = a_m
        qm_shift_residual = max(qm_shift_residual, float(np.abs(diff - shift).max()))

    cert = AppendixCertificate(
        ordering=tuple(i + 1 for i in order),
        S=tuple(float(x) for x in S),
        A=tuple(float(x) for x in A),
        t=tuple(float(x) for x in t),
        t_sum=t_sum,
        decomposition_residual=decomposition_residual,
        telescoping_residual=telescoping_residual,
        qm_shift_residual=qm_shift_residual,
        pair_partitions=tuple(pairs),
    )
    bad = (
        any(s <= 0.0 for s in cert.S)
        or any(a <= 0.0 for a in cert.A)
        or any(t_m < 1.0 - TOL_NUM for t_m in cert.t)
        or cert.t_sum <= 1.0
        or cert.decomposition_residual > TOL_NUM
        or cert.telescoping_residual > TOL_NUM
        or cert.qm_shift_residual > TOL_NUM
    )
    if bad:
        raise TheoremViolation(f"certificate invariants failed: {cert.to_json_dict()}")
    return cert


@dataclass(frozen=True)
class EpsilonMixtureCheck:
    """Residuals of the mixture identities, exhaustive over partitions."""

    epsilon: float
    p_eps: ProbabilityVector
    d_eps: UtilityFunction
    identities_hold: bool
    partition_count: int
    max_mixture_residual: float  # |q_eps - ((1-eps) q + eps p)|_inf
    max_posterior_residual: float  # |E_{q_eps}[d_eps] - (1-eps) E_q[d]|
    global_residual: float  # |E_{p_eps}[d_eps] - (1-eps) E_{p*}[d]|

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "p_eps": list(self.p_eps.weights),
            "d_eps": list(self.d_eps.values),
            "identities_hold": self.identities_hold,
            "partition_count": self.partition_count,
            "max_mixture_residual": self.max_mixture_residual,
            "max_posterior_residual": self.max_posterior_residual,
            "global_residual": self.global_residual,
        }


def epsilon_mixture_check(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    d: UtilityFunction,
    epsilon: float,
    *,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> EpsilonMixtureCheck:
    """Verify the blend p_eps = (1-eps) p* + eps p behaves as advertised.

    Checked for every proper non-trivial partition: the posterior of the
    blend is the blend of the posteriors, and with d_eps = d - eps E_p[d]
    both the target and every posterior expectation scale by (1 - eps).
    """
    n = require_same_n(p_star, p, d)
    if not 0.0 < epsilon < 1.0:
        raise OutOfRange(f"epsilon must lie in (0,1), got {epsilon}")
    if not p.strictly_positive:
        raise PriorHasZero("credence p must be strictly positive")
    _guard_outcomes(n, max_outcomes)
    p_eps = ProbabilityVector(
        (1.0 - epsilon) * a + epsilon * b for a, b in zip(p_star.weights, p.weights)
    )
    e_p = expectation(d, p)
    d_eps = d.shifted(epsilon * e_p)
    count, mix_res, post_res = _scan.epsilon_scan(
        n,
        p_star.as_array(),
        p.as_array(),
        p_eps.as_array(),
        d.as_array(),
        d_eps.as_array(),
        epsilon,
        workers=workers,
    )
    global_res = abs(expectation(d_eps, p_eps) - (1.0 - epsilon) * expectation(d, p_star))
    return EpsilonMixtureCheck(
        epsilon=epsilon,
        p_eps=p_eps,
        d_eps=d_eps,
        identities_hold=max(mix_res, post_res, global_res) <= TOL_NUM,
        partition_count=count,
        max_mixture_residual=mix_res,
        max_posterior_residual=post_res,
        global_residual=global_res,
    )
