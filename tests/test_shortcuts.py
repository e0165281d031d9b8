"""Shortcuts pinned to the public paths they stand in for.

The sweep answers a batch of samples with one score pass (degrees,
construct's re-verification, the monotonicity verdict) and one class
pass (collisions); reports keep their per-partition details as the
scan's arrays.  Each must give what the public, object-building
pipeline gives.
"""

import numpy as np
import pytest

from inacc import (
    TOL_NUM,
    ProbabilityVector,
    PStarHasZero,
    SeparationBelowTolerance,
    SetPartition,
    TheoremViolation,
    UtilityFunction,
    bell_number,
    check_monotonicity,
    construct_inaccessible_decision,
    degree,
    posterior_classes,
    radon_nikodym,
    verify_inaccessibility,
)
from inacc import _scan
from inacc.monotonicity import DIRICHLET_FLOOR, SweepSummary, sweep

from conftest import random_positive_pair


def replay_sweep(n, samples, seed, alpha=1.0):
    """The sweep's rng draws, run through the public functions one by one."""
    rng = np.random.default_rng(seed)
    alpha_vec = np.full(n, alpha)
    members = collisions = violations = constructed = degenerate = 0
    histogram = {}
    for _ in range(samples):
        p_star = ProbabilityVector(rng.dirichlet(alpha_vec))
        while True:
            raw = rng.dirichlet(alpha_vec)
            if raw.min() >= DIRICHLET_FLOOR:
                break
        p = ProbabilityVector(raw)
        member = radon_nikodym(p_star, p).injective
        members += member
        deg = degree(p_star, p, UtilityFunction(rng.uniform(-1.0, 1.0, n)))
        histogram[deg] = histogram.get(deg, 0) + 1
        if (posterior_classes(p_star, p).multiplicities > 1).any():
            collisions += 1
        if member:
            try:
                built = construct_inaccessible_decision(p_star, p)
            except (SeparationBelowTolerance, PStarHasZero):
                degenerate += 1
            else:
                constructed += 1
                try:
                    check_monotonicity(p_star, p, built.d)
                except TheoremViolation:
                    violations += 1
    return SweepSummary(
        n=n,
        samples=samples,
        seed=seed,
        alpha=alpha,
        blind_spot_frequency=members / samples,
        degree_histogram=histogram,
        multiplicity_collisions=collisions,
        theorem_violations=violations,
        constructed=constructed,
        construct_degenerate=degenerate,
    )


@pytest.mark.parametrize("n", [4, 5])
def test_sweep_matches_public_pipeline(n):
    seed = 600 + n
    assert sweep(n=n, samples=50, seed=seed) == replay_sweep(n, 50, seed)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sweep_matches_public_pipeline_with_collisions(n):
    # a sparse Dirichlet puts zeros in p*: shared posteriors and degenerate constructions
    seed = 600 + n
    summary = sweep(n=n, samples=50, seed=seed, dirichlet_alpha=0.05)
    assert summary == replay_sweep(n, 50, seed, alpha=0.05)
    assert summary.multiplicity_collisions > 0
    assert summary.construct_degenerate > 0


def test_sweep_matches_public_pipeline_across_batches():
    n, samples, seed = 7, 80, 607
    assert samples > _scan.CHUNK_ROWS // (bell_number(n) - 2)  # two batches
    assert sweep(n=n, samples=samples, seed=seed) == replay_sweep(n, samples, seed)


@pytest.mark.parametrize("n", range(3, 8))
def test_lazy_details_equal_eager_ones(n):
    rng = np.random.default_rng(700 + n)
    p_star, p = random_positive_pair(rng, n)
    while True:  # a d whose inaccessible set is neither empty nor everything
        d = UtilityFunction(rng.uniform(-1.0, 1.0, n))
        report = verify_inaccessibility(p_star, p, d, keep_partitions=True)
        if 0 < report.degree < report.partition_count:
            break
    eager = tuple(
        (SetPartition(row), score)
        for labels, scores in _scan.iter_scored_chunks(
            n, _scan._score_table(p_star.as_array(), p.as_array(), d.as_array())
        )
        for row, score in zip(labels.tolist(), scores.tolist())
    )
    assert report.per_partition == eager
    assert report.inaccessible_set == tuple(pi for pi, s in eager if s <= TOL_NUM)
    assert report.to_json_dict()["per_partition"] == [
        {
            "rgs": str(pi),
            "block_count": pi.block_count,
            "expectation": score,
            "in_inaccessible_set": score <= TOL_NUM,
        }
        for pi, score in eager
    ]
