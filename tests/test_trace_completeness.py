"""Scan, spectrum and sweep ops under the benchmark's layer tracer must reproduce the known row counts.

The tracer wraps every binding of the scan engine, and ``run.completeness``
checks the kernel, enumeration, dedup and pool counts it records against
Bell(n) - 2 rows per pass.  A kernel call or a pool task that the
wrappers cannot see breaks one of those counts.  ``_scan.CACHE_MAX_N`` is
0, so the enumeration count holds at every n: the sweep at n = 5 and the
spectrum at n = 8 stream their rows as n = 11 does.  The benchmark's modules
are imported read-only, as ``perfbench/test_perfbench.py`` imports them.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import inacc.cli  # noqa: E402
from inacc import _scan  # noqa: E402

N = 11
OPS = 5
#: the pooled cycle's --parallel, as the benchmark's pooled workload picks it
WORKERS = workloads.workers_used(_scan._usable_cpus())


def traced(cycle) -> dict:
    """Layer totals of the CLI ops that ``cycle(call)`` makes; ``call(argv)`` returns stdout."""
    tracer = Tracer()
    ops = itertools.count()

    def call(argv: list[str]) -> str:
        tracer.op = next(ops)
        # looked up per op, so the call goes through the tracer's wrapper
        rc, _, out, err = workloads.call_op(inacc.cli.run_command, argv)
        assert rc == 0, (argv[0], err)
        return out

    tracer.install()
    try:
        cycle(call)
    finally:
        tracer.uninstall()
    return tracer.layer_totals()


def scan_cycle(extra: list[str]):
    """construct, verify, degree, monotonicity and epsilon on one pair at N."""
    rng = np.random.default_rng([N, 20])
    pstar, p = workloads.blind_spot_pair(rng, N)
    base = ["--pstar", workloads.fmt(pstar), "--p", workloads.fmt(p)]
    rand = "--d=" + workloads.fmt(rng.uniform(-1.0, 1.0, N))

    def cycle(call):
        built = json.loads(call(["construct", *base, *extra]))
        call(["verify", *base, "--d=" + workloads.fmt(built["d"]), *extra])
        call(["degree", *base, rand, *extra])
        call(["monotonicity", *base, rand, *extra])
        call(["epsilon", *base, rand, "--eps", "0.3", *extra])

    return cycle


def spectrum_cycle(call) -> None:
    """spectrum, then realize at three achievable degrees, on one pair at SPECTRUM_N."""
    n = workloads.SPECTRUM_N
    pstar, p = workloads.blind_spot_pair(np.random.default_rng([n, 21]), n)
    base = ["--pstar", workloads.fmt(pstar), "--p", workloads.fmt(p), "--seed", "5"]
    achievable = json.loads(call(["spectrum", *base]))["achievable"]
    for k in (0, achievable[len(achievable) // 2], achievable[-1]):
        call(["realize", *base, "--k", str(k)])


def sweep_ops(call) -> None:
    """Two sweep ops: a label matrix kept from the first would go uncounted in the second."""
    n, samples = workloads.SWEEP_N, workloads.SWEEP_SAMPLES
    for seed in ("3", "4"):
        call(["sweep", "--n", str(n), "--samples", str(samples), "--seed", seed])


def test_a_serial_cycle_traces_every_row():
    assert run.completeness(traced(scan_cycle([])), OPS, N, 1, _scan.CACHE_MAX_N) == []


@pytest.mark.skipif(WORKERS <= 1, reason="one usable CPU: the scans never reach the fork pool")
def test_a_pooled_cycle_traces_every_row():
    totals = traced(scan_cycle(["--parallel", str(WORKERS)]))
    assert run.completeness(totals, OPS, N, WORKERS, _scan.CACHE_MAX_N) == []


def test_a_spectrum_cycle_traces_every_row():
    totals = traced(spectrum_cycle)
    assert run.completeness(totals, 4, workloads.SPECTRUM_N, 1, _scan.CACHE_MAX_N) == []


def test_sweep_ops_trace_every_row():
    totals = traced(sweep_ops)
    assert run.completeness(totals, 2, workloads.SWEEP_N, 1, _scan.CACHE_MAX_N) == []
