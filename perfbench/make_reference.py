#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``: the input pools and expected outputs.

Run from the root of an inacc checkout whose answers are trusted:

    python3 perfbench/make_reference.py

The pools are drawn from ``workloads.DEFAULT_SEED``.  Inputs that depend
on an answer (the constructed d that ``verify`` checks, the degrees that
``realize`` hits) are taken from this run.  Every op must pass its schema
and invariant checks here, or nothing is written.  Regenerating the
reference changes what the benchmark accepts, so it belongs in its own
change, never in one that claims a speed-up.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import compact, invariants  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    POOL_SIZES,
    SCAN_N,
    SPECTRUM_N,
    SWEEP_N,
    SWEEP_SAMPLES,
    call_op,
    fmt,
    scan_inputs,
    spectrum_inputs,
    sweep_seeds,
)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import jsonschema

    from inacc.cli import run_command
    from inacc.core import TOL_NUM

    validator = jsonschema.Draft202012Validator(
        json.loads((root / "schemas" / "report.schema.json").read_text())
    )

    def record(argv: list[str], n: int) -> tuple[dict, dict]:
        rc, _, out, err = call_op(run_command, argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)[:120]}: exit {rc}: {out or err}")
        report = json.loads(out)
        validator.validate(report)
        problems = invariants(report, argv, n, TOL_NUM)
        if problems:
            raise SystemExit(f"{' '.join(argv)[:120]}: {problems}")
        body = {k: v for k, v in report.items() if k != "determinism"}
        return report, {"argv": argv, "expected": compact(body)}

    pools: dict[str, list] = {"scan": [], "spectrum": [], "sweep": []}
    for e in scan_inputs(DEFAULT_SEED, POOL_SIZES["scan"]):
        base = ["--pstar", e["pstar"], "--p", e["p"]]
        built, first = record(["construct", *base], SCAN_N)
        rand = "--d=" + e["d"]
        rest = [
            ["verify", *base, "--d=" + fmt(built["d"])],
            ["degree", *base, rand],
            ["monotonicity", *base, rand],
            ["epsilon", *base, rand, "--eps", e["eps"]],
        ]
        pools["scan"].append([first] + [record(argv, SCAN_N)[1] for argv in rest])
        print(f"scan entry {len(pools['scan'])} done", file=sys.stderr)
    for e in spectrum_inputs(DEFAULT_SEED, POOL_SIZES["spectrum"]):
        base = ["--pstar", e["pstar"], "--p", e["p"], "--seed", str(e["seed"])]
        spectrum, first = record(["spectrum", *base], SPECTRUM_N)
        ach = spectrum["achievable"]
        ks = [0, ach[len(ach) // 2], ach[-1]]
        pools["spectrum"].append(
            [first] + [record(["realize", *base, "--k", str(k)], SPECTRUM_N)[1] for k in ks]
        )
    for s in sweep_seeds(DEFAULT_SEED, POOL_SIZES["sweep"]):
        argv = ["sweep", "--n", str(SWEEP_N), "--samples", str(SWEEP_SAMPLES), "--seed", str(s)]
        pools["sweep"].append([record(argv, SWEEP_N)[1]])
    reference = {
        "default_seed": DEFAULT_SEED,
        "tol_num": TOL_NUM,
        "made_with": {"python": platform.python_version(), "numpy": np.__version__},
        "pools": pools,
    }
    (HERE / "reference.json").write_text(dump(reference))
    return 0


def dump(reference: dict) -> str:
    """JSON with one line per pool cycle, so a regenerated reference diffs by cycle."""
    head = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items() if k != "pools"]
    pools = [
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"   {json.dumps(c)}" for c in cycles) + "\n  ]"
        for name, cycles in reference["pools"].items()
    ]
    return "{\n" + ",\n".join(head) + ',\n "pools": {\n' + ",\n".join(pools) + "\n }\n}\n"


if __name__ == "__main__":
    sys.exit(main())
