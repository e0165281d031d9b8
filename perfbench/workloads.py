"""Workload definitions: seeded input pools and the op stream a run draws.

Every op is one in-process call of ``inacc.cli.run_command(argv)``.  The
inputs of every op come from a pool generated from ``DEFAULT_SEED``; the
expected output of every pooled op is stored in ``reference.json`` (see
``make_reference.py``), so each op a run makes is checked against it.  A
run's ``--seed`` picks the order in which pool cycles are drawn, so the
same seed always yields the same inputs and different seeds start from
different pairs.

A *cycle* is the fixed op mix of one workload on one pool entry: a run
always completes whole cycles so that its op mix never depends on where
the clock ran out.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback

import numpy as np

DEFAULT_SEED = 0

#: n of the streaming scan path (above inacc._scan.CACHE_MAX_N = 10)
SCAN_N = 12
#: n where posterior-class dedup dominates and labels come from the cache
SPECTRUM_N = 8
SWEEP_N = 5
SWEEP_SAMPLES = 8
#: pool entries per family; each entry is one cycle of ops
POOL_SIZES = {"scan": 6, "spectrum": 12, "sweep": 512}
#: workers asked for on the pooled workload; clamped to the affinity size
PARALLEL_ASKED = 2
#: credences and targets keep every weight above this floor
WEIGHT_FLOOR = 1e-3
#: sorted ratios p*/p stay this far apart, well clear of the 1e-9 tie rule
RATIO_GAP = 1e-6


WORKLOADS = {
    "scan-n12": {
        "family": "scan",
        "n": SCAN_N,
        "parallel": False,
        "why": "n = 12 streaming scans: enumeration plus score and posterior kernels over "
        "Bell(12) - 2 rows, no dedup, tiny JSON",
    },
    "scan-n12-w2": {
        "family": "scan",
        "n": SCAN_N,
        "parallel": True,
        "why": "same ops with --parallel 2 (never above the affinity size): the only path "
        "through the fork pool",
    },
    "spectrum-n8": {
        "family": "spectrum",
        "n": SPECTRUM_N,
        "parallel": False,
        "why": "n = 8 spectrum and realize: posterior-class dedup dominates, cached labels, "
        "1.4 MB JSON reports",
    },
    "sweep-n5": {
        "family": "sweep",
        "n": SWEEP_N,
        "parallel": False,
        "why": "many tiny seeded sweep ops: per-call Python and object overhead in every "
        "module, enough ops for a p90",
    },
}


def fmt(values) -> str:
    """Comma-separated exact decimal form the CLI parses back bit for bit."""
    return ",".join(repr(float(x)) for x in values)


def bell(n: int) -> int:
    """Bell(n) by the Bell triangle, independent of the library."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def partition_count(n: int) -> int:
    """Proper non-trivial partitions of {1..n}: Bell(n) minus the two trivial ones."""
    return bell(n) - 2


def blind_spot_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(p*, p) from a flat Dirichlet, away from the boundary, p*/p injective."""
    while True:
        pstar = rng.dirichlet(np.ones(n))
        p = rng.dirichlet(np.ones(n))
        if min(pstar.min(), p.min()) < WEIGHT_FLOOR:
            continue
        if np.diff(np.sort(pstar / p)).min() > RATIO_GAP:
            return pstar, p


def scan_inputs(seed: int, count: int) -> list[dict]:
    """Blind-spot pairs at SCAN_N with a random d and a mixture weight each."""
    rng = np.random.default_rng([seed, SCAN_N])
    out = []
    for _ in range(count):
        pstar, p = blind_spot_pair(rng, SCAN_N)
        out.append(
            {
                "pstar": fmt(pstar),
                "p": fmt(p),
                "d": fmt(rng.uniform(-1.0, 1.0, SCAN_N)),
                "eps": repr(float(rng.uniform(0.1, 0.9))),
            }
        )
    return out


def spectrum_inputs(seed: int, count: int) -> list[dict]:
    """Blind-spot pairs at SPECTRUM_N with a separating-direction seed each."""
    rng = np.random.default_rng([seed, SPECTRUM_N])
    out = []
    for _ in range(count):
        pstar, p = blind_spot_pair(rng, SPECTRUM_N)
        out.append({"pstar": fmt(pstar), "p": fmt(p), "seed": int(rng.integers(0, 2**31))})
    return out


def sweep_seeds(seed: int, count: int) -> list[int]:
    """Per-op sweep seeds."""
    rng = np.random.default_rng([seed, SWEEP_N])
    return [int(x) for x in rng.integers(0, 2**31, size=count)]


def cycle_order(seed: int, size: int) -> list[int]:
    """Pool indices in the order a run with this seed draws them."""
    return [int(i) for i in np.random.default_rng([seed, size]).permutation(size)]


def workers_used(affinity: int) -> int:
    """Workers for the pooled workload: the ask, never above the CPUs we may use."""
    return max(1, min(PARALLEL_ASKED, affinity))


def call_op(run_command, argv: list[str]) -> tuple[int, float, str, str]:
    """One op: run the CLI in-process, capture its output; (rc, seconds, stdout, stderr).

    An exception escaping the CLI is a failed op (rc -1, traceback on
    stderr), so one bad answer does not hide the rest of the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = run_command(argv)
        except Exception:  # noqa: BLE001 - reported as this op's failure
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()
