"""One scan cycle under the benchmark's layer tracer must reproduce the known row counts.

The tracer wraps every binding of the scan engine, and ``run.completeness``
checks the kernel, enumeration, dedup and pool counts it records against
Bell(n) - 2 rows per pass.  A kernel call or a pool task that the
wrappers cannot see breaks one of those counts.  The benchmark's modules
are imported read-only, as ``perfbench/test_perfbench.py`` imports them.
"""

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


def traced_cycle(extra: list[str]) -> dict:
    """Layer totals of construct, verify, degree, monotonicity and epsilon on one pair."""
    rng = np.random.default_rng([N, 20])
    pstar, p = workloads.blind_spot_pair(rng, N)
    base = ["--pstar", workloads.fmt(pstar), "--p", workloads.fmt(p)]
    rand = "--d=" + workloads.fmt(rng.uniform(-1.0, 1.0, N))
    tracer = Tracer()

    def call(op: int, argv: list[str]) -> str:
        tracer.op = op
        # looked up per op, so the call goes through the tracer's wrapper
        rc, _, out, err = workloads.call_op(inacc.cli.run_command, argv + extra)
        assert rc == 0, (argv[0], err)
        return out

    tracer.install()
    try:
        built = json.loads(call(0, ["construct", *base]))
        rest = [
            ["verify", *base, "--d=" + workloads.fmt(built["d"])],
            ["degree", *base, rand],
            ["monotonicity", *base, rand],
            ["epsilon", *base, rand, "--eps", "0.3"],
        ]
        for op, argv in enumerate(rest, start=1):
            call(op, argv)
    finally:
        tracer.uninstall()
    return tracer.layer_totals()


def test_a_serial_cycle_traces_every_row():
    assert run.completeness(traced_cycle([]), OPS, N, 1, _scan.CACHE_MAX_N) == []


@pytest.mark.skipif(WORKERS <= 1, reason="one usable CPU: the scans never reach the fork pool")
def test_a_pooled_cycle_traces_every_row():
    totals = traced_cycle(["--parallel", str(WORKERS)])
    assert run.completeness(totals, OPS, N, WORKERS, _scan.CACHE_MAX_N) == []
