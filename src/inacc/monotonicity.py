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

The seeded sweep (``sweep``) samples (p*, p) pairs from a symmetric
Dirichlet, records how often the pair lands in the blind spot, runs the
construction plus the monotonicity check on those that do, and counts
theorem violations -- which must be zero.  Frequencies are evidence
about typical simplex geometry, never cardinality claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _scan
from .core import (
    TOL_NUM,
    JsonReport,
    NotInjective,
    OutOfRange,
    ProbabilityVector,
    PStarHasZero,
    SeparationBelowTolerance,
    TheoremViolation,
    UtilityFunction,
    _expectations,
    _is_int,
    expectation,
    require_pair,
    require_seed,
)
from .conditioning import jeffrey_posterior, ratio_order
from .construct import (
    DEFAULT_MAX_OUTCOMES,
    _check_scan_inputs,
    _closed_form,
    _require_sound,
    verify_inaccessibility,
)
from .partitions import SetPartition, pair_partition, proper_nontrivial_count

#: sampled credences must keep every weight above this floor
DIRICHLET_FLOOR = 1e-6
#: credence draws per sample before a sweep gives up on DIRICHLET_FLOOR (about 15 s)
MAX_CREDENCE_DRAWS = 10**6
#: sweeps stay in this outcome range; larger spaces are not desk scale
SWEEP_MAX_N = 10


@dataclass(frozen=True)
class MonotonicityCheck(JsonReport):
    """Exhaustive hypothesis check plus the theorem's conclusion."""

    hypotheses_hold: bool  # E_{p*}[d] > 0 and every E_{q_Pi}[d] <= 0
    conclusion_holds: bool  # E_p[d] < 0
    e_pstar: float
    e_p: float
    max_posterior_score: float


def check_monotonicity(
    p_star: ProbabilityVector,
    p: ProbabilityVector,
    d: UtilityFunction,
    *,
    workers: int = 1,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> MonotonicityCheck:
    """Check the hypotheses exhaustively and the conclusion E_p[d] < 0.

    The hypotheses read the max posterior score through the ``TOL_NUM``
    tie rule, so a max in (0, TOL_NUM] counts as inaccessible, and with it
    a small positive E_p[d] fails the conclusion without breaking the
    theorem.  A TheoremViolation is raised only when, besides, E_p[d]
    breaks the pair-sum bound of ``_violations`` by more than TOL_NUM:
    that can only mean numerics beyond tolerance or an implementation bug,
    and it must surface rather than be absorbed.
    """
    report = verify_inaccessibility(
        p_star, p, d, workers=workers, max_outcomes=max_outcomes, keep_partitions=False
    )
    hypotheses, conclusion = _theorem_parts(report.e_pstar, report.e_p, report.max_score)
    if _violations(p.n, report.e_pstar, report.e_p, report.max_score):
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


def _theorem_parts(e_pstar, e_p, max_score):
    """(hypotheses, conclusion): E_p*[d] > 0 with d inaccessible by its max score, and E_p[d] < 0.

    Scalars give bools; arrays give the two parts elementwise.
    """
    return (e_pstar > 0.0) & _scan._verdicts(max_score)[0], e_p < 0.0


def _violations(n, e_pstar, e_p, max_score):
    """Where the theorem fails past rounding: the hypotheses hold, the conclusion fails,
    and E_p[d] > (n - 1) max - (n - 2) E_p*[d] + TOL_NUM.

    With r = p*/p and f(i, j) = p_i p_j / (p_i + p_j) (r_i - r_j)(d_i - d_j),
    the partition whose only non-singleton block is {i, j} scores
    E_p*[d] - f(i, j), so min f >= E_p*[d] - max.  Summing over all pairs,
    E_p*[d] - E_p[d] = sum_{i<j} f(i, j)(p_i + p_j) >= (n - 1) min f, since
    the weights p_i + p_j add up to n - 1.  Together, for every d,
    E_p[d] <= (n - 1) max - (n - 2) E_p*[d], and when max <= 0 < E_p*[d]
    that bound is negative: the theorem's conclusion with a margin.
    Scalars give a bool; arrays give the rule elementwise.
    """
    hypotheses = _theorem_parts(e_pstar, e_p, max_score)[0]
    bound = (n - 1) * max_score - (n - 2) * e_pstar
    return hypotheses & (e_p >= 0.0) & (e_p > bound + TOL_NUM)


@dataclass(frozen=True)
class SweepSummary(JsonReport):
    """Aggregates of a seeded Dirichlet sweep; violations must stay zero."""

    n: int
    samples: int
    seed: int
    alpha: float
    blind_spot_frequency: float
    degree_histogram: dict[int, int]
    multiplicity_collisions: int
    theorem_violations: int
    constructed: int
    construct_degenerate: int


def sweep(
    n: int,
    samples: int,
    seed: int = 0,
    dirichlet_alpha: float = 1.0,
) -> SweepSummary:
    """Sample (p*, p) pairs i.i.d. and exercise the whole pipeline on each.

    Credences are resampled until every weight clears DIRICHLET_FLOOR, so
    the standing positivity assumption holds with well-conditioned ratios;
    after MAX_CREDENCE_DRAWS draws for one sample the sweep raises
    OutOfRange (an alpha this small almost never clears the floor).
    n and samples must be integers (``core._is_int``) and alpha no bool,
    else OutOfRange.  For each sample a uniform random advantage function
    is drawn and its degree recorded; blind-spot pairs additionally run
    the construction and the monotonicity check.

    Samples are drawn one at a time, each through ``ProbabilityVector``,
    and answered in batches of max(1, CHUNK_ROWS // (Bell(n) - 2))
    samples, 1,310 at n = 5 and one at n = 10, with array operations on
    the batch's (S, n) arrays.  The ratio rule of ``radon_nikodym`` and
    construct's closed form run once per batch, row for row as the
    one-pair calls run them.  One ``score_scan`` over the random and the
    constructed d's stacked on a sample axis gives every degree
    (``num_le``) and re-verifies every constructed d from its max score,
    through construct's soundness test and the theorem rule of
    ``check_monotonicity``.  A sample collides when some posterior class
    has multiplicity above 1; ``certify_singletons`` rules that out for
    most samples (distinct posteriors differ at some outcome by the gap
    between two subset ratios), and one class pass answers the rest.  The
    counts are those of the public functions run on each sample in turn.
    """
    for name, count in (("n", n), ("samples", samples)):
        if not _is_int(count):
            raise OutOfRange(f"{name} must be an integer, got {count!r}")
    if isinstance(dirichlet_alpha, bool):
        raise OutOfRange(f"alpha must be a number, not a bool, got {dirichlet_alpha!r}")
    if not 3 <= n <= SWEEP_MAX_N:
        raise OutOfRange(f"sweep supports 3 <= n <= {SWEEP_MAX_N}, got {n}")
    if samples < 1:
        raise OutOfRange(f"need samples >= 1, got {samples}")
    if not 0.0 < dirichlet_alpha < math.inf:
        finite = "" if math.isfinite(dirichlet_alpha) else "a finite "
        raise OutOfRange(f"need {finite}alpha > 0, got {dirichlet_alpha}")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    alpha_vec = np.full(n, dirichlet_alpha)
    batch = max(1, _scan.CHUNK_ROWS // proper_nontrivial_count(n))
    members = collisions = violations = constructed = degenerate = 0
    histogram: dict[int, int] = {}
    for start in range(0, samples, batch):
        draws = []
        for _ in range(min(batch, samples - start)):
            p_star = ProbabilityVector(rng.dirichlet(alpha_vec))
            for _ in range(MAX_CREDENCE_DRAWS):
                raw = rng.dirichlet(alpha_vec)
                if raw.min() >= DIRICHLET_FLOOR:
                    break
            else:
                raise OutOfRange(
                    f"no credence cleared DIRICHLET_FLOOR = {DIRICHLET_FLOOR} in "
                    f"{MAX_CREDENCE_DRAWS} draws at n = {n}, alpha = {dirichlet_alpha}; "
                    "use a larger alpha"
                )
            p = ProbabilityVector(raw)
            draws.append((p_star.weights, p.weights, rng.uniform(-1.0, 1.0, n)))
        ps, pw, decisions = (np.array(column) for column in zip(*draws))
        size = len(draws)

        r = ps / pw
        order, apart = ratio_order(r)
        injective = apart.all(-1)
        members += int(injective.sum())
        # construct's defaults: eps_fraction 0.5, strict mode
        idx = np.flatnonzero(injective)
        d, _, delta, epsilon, zero, thin = _closed_form(
            ps[idx], pw[idx], r[idx], order[idx], 0.5, "strict"
        )
        sound = ~(zero | thin)
        degenerate += idx.size - int(sound.sum())
        idx, d, delta, epsilon = idx[sound], d[sound], delta[sound], epsilon[sound]

        stacked = (np.concatenate([ps, ps[idx]]), np.concatenate([pw, pw[idx]]))
        scan = _scan.score_scan(n, _scan._score_table(*stacked, np.concatenate([decisions, d])))
        for deg in scan.num_le[:size]:
            histogram[deg] = histogram.get(deg, 0) + 1

        ratio = _scan._ratio_table(ps, pw)
        uncertified = np.flatnonzero(~_scan.certify_singletons(ratio, pw))
        if uncertified.size:
            table = _scan.class_scan(n, ratio[uncertified], pw[uncertified])
            collisions += np.unique(table["posterior"][table["multiplicity"] > 1, 0]).size

        top = np.array(scan.max_score[size:])
        e_pstar = _expectations(d, ps[idx])
        _require_sound(e_pstar, top, delta, epsilon, "strict")
        constructed += idx.size
        e_p = _expectations(d, pw[idx])
        violations += int(_violations(n, e_pstar, e_p, top).sum())
    return SweepSummary(
        n=int(n),
        samples=int(samples),
        seed=int(seed),
        alpha=dirichlet_alpha,
        blind_spot_frequency=members / samples,
        degree_histogram=histogram,
        multiplicity_collisions=collisions,
        theorem_violations=violations,
        constructed=constructed,
        construct_degenerate=degenerate,
    )


@dataclass(frozen=True)
class AppendixCertificate(JsonReport):
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


def appendix_certificate(
    p_star: ProbabilityVector, p: ProbabilityVector
) -> AppendixCertificate:
    """Compute and verify the decomposition certificate for a positive pair.

    Requires p and p* strictly positive and the reciprocal ratio p/p*
    injective (ties abort with NotInjective; no perturbation is applied).
    Every S_m and A_m must exceed TOL_NUM, the rule construct applies to
    Delta and eps: at smaller margins t_m = S_m / A_m amplifies rounding
    past the residual bounds, so such pairs raise SeparationBelowTolerance.
    Invariant failures past that raise TheoremViolation.
    """
    n = require_pair(p_star, p)
    if not p_star.strictly_positive:
        raise PStarHasZero("certificate needs strictly positive p*")
    p_arr, ps_arr = p.as_array(), p_star.as_array()
    order, apart = ratio_order(p_arr / ps_arr)
    if not apart.all():
        raise NotInjective("ratio p/p* has ties; certificate needs a strict ordering")

    ps_sorted, p_sorted = ps_arr[order], p_arr[order]
    S = np.cumsum(ps_sorted - p_sorted)[:-1]

    # row m - 1 is q_m - p*, q_m conditioned on the m-th and (m+1)-th ratio outcomes
    pairs = [pair_partition(i, j, n) for i, j in zip(order, order[1:])]
    shifts = np.array([jeffrey_posterior(p_star, p, pi).weights for pi in pairs]) - ps_arr
    rows = np.arange(n - 1)
    A = shifts[rows, order[1:]]
    low_s, low_a = float(S.min()), float(A.min())
    if min(low_s, low_a) <= TOL_NUM:
        raise SeparationBelowTolerance(
            f"certificate margins (min S = {low_s!r}, min A = {low_a!r}) within tolerance of zero"
        )
    t = S / A
    t_sum = float(t.sum())

    # decomposition: p - p* = sum_m t_m (q_m - p*), in original coordinates
    recon = (t[:, None] * shifts).sum(axis=0)
    decomposition_residual = float(np.abs((p_arr - ps_arr) - recon).max())

    # telescoping: p - p* = sum_m S_m (e_{m+1} - e_m), in sorted coordinates
    tele = np.concatenate(([0.0], S)) - np.concatenate((S, [0.0]))
    telescoping_residual = float(np.abs((p_sorted - ps_sorted) - tele).max())

    # pair shift: q_m - p* = A_m (e_{m+1} - e_m), zero off the pair block
    expected = np.zeros_like(shifts)
    expected[rows, order[:-1]] = -A
    expected[rows, order[1:]] = A
    qm_shift_residual = float(np.abs(shifts - expected).max())

    cert = AppendixCertificate(
        ordering=tuple(int(i) + 1 for i in order),
        S=tuple(float(x) for x in S),
        A=tuple(float(x) for x in A),
        t=tuple(float(x) for x in t),
        t_sum=t_sum,
        decomposition_residual=decomposition_residual,
        telescoping_residual=telescoping_residual,
        qm_shift_residual=qm_shift_residual,
        pair_partitions=tuple(pairs),
    )
    # S_m, A_m > TOL_NUM hold by the refusal above
    bad = (
        any(t_m < 1.0 - TOL_NUM for t_m in cert.t)
        or cert.t_sum <= 1.0
        or cert.decomposition_residual > TOL_NUM
        or cert.telescoping_residual > TOL_NUM
        or cert.qm_shift_residual > TOL_NUM
    )
    if bad:
        raise TheoremViolation(f"certificate invariants failed: {cert.to_json_dict()}")
    return cert


@dataclass(frozen=True)
class EpsilonMixtureCheck(JsonReport):
    """Residuals of the mixture identities, exhaustive over partitions."""

    epsilon: float
    p_eps: ProbabilityVector
    d_eps: UtilityFunction
    identities_hold: bool
    partition_count: int
    max_mixture_residual: float  # |q_eps - ((1-eps) q + eps p)|_inf
    max_posterior_residual: float  # |E_{q_eps}[d_eps] - (1-eps) E_q[d]|
    global_residual: float  # |E_{p_eps}[d_eps] - (1-eps) E_{p*}[d]|


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

    A score is linear in its table, so one score scan of W_eps - (1-eps) W,
    the score tables of (p_eps, d_eps) and (p*, d), gives every row's
    E_{q_eps}[d_eps] - (1-eps) E_q[d]; the mixture identity is checked
    blockwise (``_scan._mixture_residual``).
    """
    if not 0.0 < epsilon < 1.0:
        raise OutOfRange(f"epsilon must lie in (0,1), got {epsilon}")
    n = _check_scan_inputs(p_star, p, d, max_outcomes=max_outcomes, workers=workers)
    p_eps = ProbabilityVector(
        (1.0 - epsilon) * a + epsilon * b for a, b in zip(p_star.weights, p.weights)
    )
    e_p = expectation(d, p)
    d_eps = d.shifted(epsilon * e_p)
    ps, pw, pe = p_star.as_array(), p.as_array(), p_eps.as_array()
    table = _scan._score_table(pe, pw, d_eps.as_array())
    table -= (1.0 - epsilon) * _scan._score_table(ps, pw, d.as_array())
    scan = _scan.score_scan(n, table, workers=workers)
    post_res = max(abs(scan.max_score), abs(scan.min_score))
    ratios = _scan._ratio_table(ps, pw), _scan._ratio_table(pe, pw)
    mix_res = _scan._mixture_residual(*ratios, pw, epsilon)
    global_res = abs(expectation(d_eps, p_eps) - (1.0 - epsilon) * expectation(d, p_star))
    return EpsilonMixtureCheck(
        epsilon=epsilon,
        p_eps=p_eps,
        d_eps=d_eps,
        identities_hold=max(mix_res, post_res, global_res) <= TOL_NUM,
        partition_count=scan.count,
        max_mixture_residual=mix_res,
        max_posterior_residual=post_res,
        global_residual=global_res,
    )
