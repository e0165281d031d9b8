#!/usr/bin/env python3
"""Benchmark of the inacc CLI: seeded workloads, checked answers, layer traces.

Run from the root of an inacc checkout (it imports ``src/inacc`` and reads
``schemas/report.schema.json`` there):

    python3 perfbench/run.py --workload scan-n12 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 0

Each op is one in-process call of ``inacc.cli.run_command(argv)`` with its
stdout captured, parsed and checked (``checks.py``).  Load is a closed
loop with one caller; a run completes whole cycles of its workload's op
mix until the next cycle would overrun ``--seconds`` (at least one).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` re-runs the
same cycles with every layer wrapped (``tracing.py``), reports the
per-layer metrics, the tracing overhead, and asserts the trace saw the
known row counts.  The last stdout line is the result object; the line
before it carries the details (host, workers, p90, failures).  The exit
code is 0 only when every op passed every check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_op, cycle_invariants  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    PARALLEL_ASKED,
    WORKLOADS,
    call_op,
    cycle_order,
    partition_count,
    workers_used,
)

#: fresh interpreters timed per run; setup_s is their median
SETUP_SAMPLES = 7
#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10
CHILD_TIMEOUT_S = 170

SETUP_CODE = """
import sys
import inacc.cli
from inacc import _scan
n = int(sys.argv[1])
if n <= _scan.CACHE_MAX_N:
    _scan.cached_labels(n)
print("ready", flush=True)
"""

#: gated metrics of untraced runs.  Op latency percentiles (op_s.p50, and
#: op_s.p90 where a run holds >= 100 ops) go on the detail line instead:
#: on a host whose speed switches between states for tens of seconds, the
#: median of a run's ops jumps between the states' modes from run to run,
#: while ops_per_s moves with the mix and stays within its bound.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{m}.self_s": "s/op" for m in MODULES},
    **{f"{m}.calls": "count/op" for m in MODULES},
    "core.objects": "count/op",
    "partitions.objects": "count/op",
    "scan.self_s": "s/op",
    "scan.passes": "count/op",
    "scan.enum.rows": "count/op",
    "scan.enum.self_s": "s/op",
    "scan.enum.max_chunk_rows": "count",
    "scan.enum.setup_rows": "count",
    "scan.enum.setup_s": "s",
    "scan.kernel.rows": "count/op",
    "scan.kernel.calls": "count/op",
    "scan.kernel.self_s": "s/op",
    "scan.kernel.bytes": "B/op",
    "scan.dedup.rows_in": "count/op",
    "scan.dedup.classes_out": "count/op",
    "scan.dedup.self_s": "s/op",
    "scan.pool.tasks": "count/op",
    "scan.pool.workers": "count",
    "scan.pool.wall_s": "s/op",
    "scan.pool.efficiency": "ratio",
    "trace.overhead": "ratio",
}


def tail_percentile(values: list[float], pct: int) -> float | None:
    """Nearest-rank pct-th percentile, or None with < MIN_BEYOND samples above it."""
    n = len(values)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100) in integers
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def host_record() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def setup_samples(root: Path, n: int, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports the first op ready."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(n)], cwd=root, env=child_env(root),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
        times.append(elapsed)
    return times


def warm_up(scan, n: int) -> None:
    """The set-up every CLI process pays before its first op at this n."""
    if n <= scan.CACHE_MAX_N:
        scan.cached_labels(n)


class Session:
    """One workload's ops in this process: inputs, checks, per-op records."""

    def __init__(self, spec: dict, pool: list, order: list[int], extra: list[str],
                 determinism: str, validator, tol: float, cli):
        self.spec, self.pool, self.order, self.extra = spec, pool, order, extra
        self.determinism, self.validator, self.tol = determinism, validator, tol
        self.cli = cli

    def run(self, budget_s: float, max_cycles: int | None = None, tracer=None) -> dict:
        """Whole cycles until the next would overrun budget_s (or max_cycles)."""
        op_s, failures, attempted, failed = [], [], 0, 0
        start = time.perf_counter()
        cycles = 0
        while max_cycles is None or cycles < max_cycles:
            entry = self.pool[self.order[cycles % len(self.order)]]
            reports, cycle_failed = {}, 0
            for op in entry:
                argv = op["argv"] + self.extra
                if tracer is not None:
                    tracer.op = attempted
                # looked up per op so a traced run goes through the wrapper
                rc, elapsed, out, err = call_op(self.cli.run_command, argv)
                attempted += 1
                op_s.append(elapsed)
                report, problems = check_op(
                    rc, out, err, argv, self.spec["n"], op["expected"],
                    self.determinism, self.validator, self.tol,
                )
                if problems:
                    cycle_failed += 1
                    failures.append({"argv": " ".join(argv)[:160], "problems": problems})
                else:
                    reports[argv[0]] = report
            problems = cycle_invariants(reports)
            if problems:
                # a cross-op contradiction leaves no answer of the cycle trusted
                cycle_failed = len(entry)
                failures.append({"argv": f"cycle {cycles}", "problems": problems})
            failed += cycle_failed
            cycles += 1
            elapsed = time.perf_counter() - start
            if max_cycles is None and elapsed + elapsed / cycles > budget_s:
                break
        return {
            "cycles": cycles,
            "attempted": attempted,
            "failed": failed,
            "op_s": op_s,
            "failures": failures,
        }


def ops_per_s(res: dict) -> float:
    return (res["attempted"] - res["failed"]) / sum(res["op_s"])


def layer_metrics(totals: dict, ops: int, overhead: float) -> dict:
    t, setup = totals["ops"], totals["setup"]
    m = {}
    for layer in (*MODULES, "scan", "scan.enum", "scan.kernel", "scan.dedup"):
        m[f"{layer}.self_s"] = t[f"{layer}.self_s"] / ops
    for layer in (*MODULES, "scan.kernel"):
        m[f"{layer}.calls"] = t[f"{layer}.calls"] / ops
    for key in ("core.objects", "partitions.objects", "scan.passes", "scan.enum.rows",
                "scan.kernel.rows", "scan.kernel.bytes", "scan.dedup.rows_in",
                "scan.dedup.classes_out", "scan.pool.tasks", "scan.pool.wall_s"):
        m[key] = t[key] / ops
    m["scan.enum.max_chunk_rows"] = t["scan.enum.max_chunk_rows"]
    m["scan.enum.setup_rows"] = setup["scan.enum.rows"]
    m["scan.enum.setup_s"] = setup["scan.enum.self_s"]
    m["scan.pool.workers"] = t["scan.pool.workers"]
    worker_wall = t["scan.pool.worker_wall_s"]
    m["scan.pool.efficiency"] = t["scan.pool.busy_s"] / worker_wall if worker_wall else 0.0
    m["trace.overhead"] = overhead
    return {k: float(v) for k, v in m.items()}


def completeness(totals: dict, ops: int, n: int, workers: int, cache_max_n: int) -> list[str]:
    """Known counts the trace must reproduce; a missed binding breaks one of them."""
    t = totals["ops"]
    rows = partition_count(n)
    passes = t["scan.passes"]
    row_passes = t["scan.passes.score"] + t["scan.passes.stream"] + t["scan.passes.class"]
    bad = []
    if t["fn.cli.run_command"] != ops:
        bad.append(f"cli.run_command traced {t['fn.cli.run_command']} times for {ops} ops")
    if passes < ops:
        bad.append(f"{passes} scan passes for {ops} ops; every op scans at least once")
    # the epsilon pass runs the posterior kernel twice per row
    want_kernel = (row_passes + 2 * t["scan.passes.epsilon"]) * rows
    if t["scan.kernel.rows"] != want_kernel:
        bad.append(f"scan.kernel.rows {t['scan.kernel.rows']} != {want_kernel}")
    want_enum = passes * rows if n > cache_max_n else 0
    if t["scan.enum.rows"] != want_enum:
        bad.append(f"scan.enum.rows {t['scan.enum.rows']} != {want_enum}")
    want_dedup = t["scan.passes.class"] * rows
    if t["scan.dedup.rows_in"] != want_dedup:
        bad.append(f"scan.dedup.rows_in {t['scan.dedup.rows_in']} != {want_dedup}")
    if workers > 1 and n > cache_max_n:
        if t["scan.pool.calls"] != passes or t["scan.pool.workers"] != workers:
            bad.append(
                f"pool traced {t['scan.pool.calls']} scans with {t['scan.pool.workers']} "
                f"workers; expected {passes} with {workers}"
            )
    if t["core.objects"] == 0:
        bad.append("no core objects counted")
    return bad


def run_workload(args, root: Path) -> int:
    spec = WORKLOADS[args.workload]
    sys.path.insert(0, str(root / "src"))
    import jsonschema

    import inacc.cli
    from inacc import _scan

    if Path(inacc.cli.__file__).resolve().parent != (root / "src" / "inacc").resolve():
        print(f"perfbench: imported {inacc.cli.__file__}, not this checkout", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    schema = json.loads((root / "schemas" / "report.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    tol = reference["tol_num"]
    pool = reference["pools"][spec["family"]]
    host = host_record()
    workers = workers_used(host["affinity"]) if spec["parallel"] else 1
    extra = ["--parallel", str(workers)] if spec["parallel"] else []
    session = Session(
        spec, pool, cycle_order(args.seed, len(pool)), extra,
        "tolerance" if workers > 1 else "bitwise", validator, tol, inacc.cli,
    )
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host}
    if spec["parallel"]:
        detail["workers"] = {"asked": PARALLEL_ASKED, "used": workers}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        warm_up(_scan, spec["n"])
        tracer.uninstall()
        plain = session.run(args.seconds / 2)
        tracer.install()
        try:
            traced = session.run(0, max_cycles=plain["cycles"], tracer=tracer)
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals()
        overhead = ops_per_s(traced) / ops_per_s(plain) if ops_per_s(plain) else 0.0
        metrics = {k: (v, PER_LAYER[k]) for k, v in layer_metrics(totals, traced["attempted"], overhead).items()}
        gaps = completeness(totals, traced["attempted"], spec["n"], workers, _scan.CACHE_MAX_N)
        runs = [plain, traced]
        detail["completeness"] = {"passed": not gaps, "problems": gaps}
        detail["trace_ops"] = traced["attempted"]
    else:
        setup = setup_samples(root, spec["n"], SETUP_SAMPLES)
        warm_up(_scan, spec["n"])
        res = session.run(args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if workers > 1:
            rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (ops_per_s(res), "ops/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        gaps = []
        runs = [res]
        detail["setup_s.samples"] = setup
        # latency percentiles are reported, not gated: see END_TO_END
        detail["op_s.samples"] = len(res["op_s"])
        detail["op_s.p50"] = statistics.median(res["op_s"])
        detail["op_s.p90"] = tail_percentile(res["op_s"], 90)
        detail["cycles"] = res["cycles"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    detail["fail_ratio"] = failed / attempted
    detail["failures"] = [f for r in runs for f in r["failures"]][:5]
    correct = failed == 0 and not gaps
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:28s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args, root: Path) -> int:
    """Every workload in a fresh process; prints each result and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"perfbench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/inacc/cli.py", "schemas/report.schema.json") if not (root / p).is_file()]
    if missing or not (HERE / "reference.json").is_file():
        print(f"perfbench: run from an inacc checkout root; missing {missing or ['perfbench/reference.json']}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
