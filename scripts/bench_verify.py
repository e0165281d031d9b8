#!/usr/bin/env python3
"""Time the exhaustive inaccessibility scan at desk scale.

Builds a random blind-spot pair at the requested n, constructs a strongly
inaccessible decision, then times verify_inaccessibility for each worker
count.  Each timing line carries the host's CPU count, the CPUs this
process may run on (its affinity) and the workers the scan actually used.
Example:

    python3 scripts/bench_verify.py --n 12 --workers 1 8
"""

import argparse
import os
import time

import numpy as np

from inacc import (
    ProbabilityVector,
    construct_inaccessible_decision,
    radon_nikodym,
    verify_inaccessibility,
)
from inacc import _scan


def blind_spot_pair(rng, n):
    while True:
        p_star = rng.dirichlet(np.ones(n))
        p = rng.dirichlet(np.ones(n))
        if p_star.min() < 1e-4 or p.min() < 1e-4:
            continue
        pair = ProbabilityVector(p_star), ProbabilityVector(p)
        if radon_nikodym(*pair).injective:
            return pair


def workers_used(n, asked, affinity):
    """Processes the scan runs on; the fork pool engages only above the label cache.

    The pool starts min(asked, affinity, tasks) processes, and above the
    cache there are always more tasks than that.
    """
    if n <= _scan.CACHE_MAX_N or asked <= 1:
        return 1
    return min(asked, affinity)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 8])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cpus, affinity = os.cpu_count(), len(os.sched_getaffinity(0))
    rng = np.random.default_rng(args.seed)
    p_star, p = blind_spot_pair(rng, args.n)
    built = construct_inaccessible_decision(
        p_star, p, max_outcomes=max(13, args.n)
    )
    print(f"n={args.n}: {built.report.partition_count} partitions, strong={built.report.strong}")

    baseline = None
    for workers in args.workers:
        start = time.perf_counter()
        report = verify_inaccessibility(
            p_star, p, built.d, workers=workers, max_outcomes=max(13, args.n)
        )
        elapsed = time.perf_counter() - start
        if baseline is None:
            baseline = elapsed
        print(
            f"workers={workers}: {elapsed:.2f}s "
            f"(x{baseline / elapsed:.2f} vs first), degree={report.degree}, "
            f"cpu_count={cpus}, affinity={affinity}, "
            f"workers_used={workers_used(args.n, workers, affinity)}"
        )


if __name__ == "__main__":
    main()
