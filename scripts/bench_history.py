#!/usr/bin/env python3
"""Run every perfbench workload and record the gated metrics as BENCH_<label>.json.

Runs ``python3 perfbench/run.py --workload all`` from the repository root
and writes ``BENCH_<label>.json`` there, holding the host record, the
seed and seconds of the run, the commit (``git rev-parse HEAD``) and
whether the working tree had uncommitted changes, and per workload the
end-to-end metrics that BENCHMARK.json gates.  Nothing is written unless
every op passed its checks.  Example:

    python3 scripts/bench_history.py --label nightly --seconds 40
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument(
        "--seconds", type=float, default=None,
        help="seconds per workload (default: run_seconds of BENCHMARK.json)",
    )
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    gated = [metric["name"] for metric in spec["end_to_end"]]

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", str(seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    combined = lines[-1] if lines else {}
    if proc.returncode != 0 or not combined.get("correct"):
        print(f"bench_history: perfbench failed (exit {proc.returncode}); nothing written",
              file=sys.stderr)
        return 1

    # run_all prints each workload's detail line, then its result line
    pairs = [(line, lines[i + 1]) for i, line in enumerate(lines) if "workload" in line]
    hosts = {json.dumps(d["host"], sort_keys=True) for d, _ in pairs}
    seeds = {d["seed"] for d, _ in pairs}
    if len(hosts) != 1 or len(seeds) != 1:
        print("bench_history: workloads disagree on host or seed", file=sys.stderr)
        return 1
    workloads = {}
    for d, result in pairs:
        workloads[d["workload"]] = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name] for name in gated},
        }
    record = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "tree_clean": git("status", "--porcelain", "--untracked-files=no") == "",
        "seed": seeds.pop(),
        "seconds": seconds,
        "host": json.loads(hosts.pop()),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
