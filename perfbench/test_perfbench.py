"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
TOL = REFERENCE["tol_num"]


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(i) for i in range(1, 100)], 90) is None
    assert run.tail_percentile([float(i) for i in range(1, 101)], 90) == 90.0
    assert run.tail_percentile([], 90) is None


def test_self_time_is_span_minus_union_of_children():
    spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps its sibling: counted once
        ["c", 8.0, 12.0, 0, 0],  # runs past the parent: clipped to it
        ["d", 1.5, 2.0, 1, 0],  # grandchild: covered by its own parent only
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(0.5)


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert workloads.scan_inputs(7, 2) == workloads.scan_inputs(7, 2)
    assert workloads.scan_inputs(7, 2) != workloads.scan_inputs(8, 2)
    assert workloads.spectrum_inputs(7, 2) == workloads.spectrum_inputs(7, 2)
    assert workloads.sweep_seeds(7, 5) == workloads.sweep_seeds(7, 5)
    assert workloads.cycle_order(3, 512) == workloads.cycle_order(3, 512)
    assert workloads.cycle_order(3, 512) != workloads.cycle_order(4, 512)
    assert sorted(workloads.cycle_order(3, 6)) == list(range(6))


def test_pool_inputs_are_the_default_seed_draws():
    scan = REFERENCE["pools"]["scan"]
    drawn = workloads.scan_inputs(REFERENCE["default_seed"], len(scan))
    assert [c[0]["argv"][2] for c in scan] == [e["pstar"] for e in drawn]


def _sweep_op():
    from inacc.cli import run_command

    op = REFERENCE["pools"]["sweep"][0][0]
    rc, _, out, err = workloads.call_op(run_command, op["argv"])
    return op, rc, out, err


def test_check_accepts_the_reference_and_rejects_a_tampered_output():
    import jsonschema

    validator = jsonschema.Draft202012Validator(
        json.loads((ROOT / "schemas" / "report.schema.json").read_text())
    )
    op, rc, out, err = _sweep_op()
    args = (op["argv"], workloads.SWEEP_N, op["expected"], "bitwise", validator, TOL)
    assert checks.check_op(rc, out, err, *args)[1] == []

    report = json.loads(out)
    tampered = copy.deepcopy(report)
    key = next(iter(tampered["degree_histogram"]))
    tampered["degree_histogram"][key] += 1
    assert checks.check_op(rc, json.dumps(tampered), err, *args)[1]

    tampered = copy.deepcopy(report)
    tampered["alpha"] += 1e-6
    problems = checks.check_op(rc, json.dumps(tampered), err, *args)[1]
    assert any(p.startswith("reference: $.alpha") for p in problems)

    assert checks.check_op(1, out, err, *args)[1]


def test_digest_compare_holds_floats_to_tolerance():
    rows = [{"posterior": [0.5, 0.25, 0.25], "score": 0.1 * i, "multiplicity": 1} for i in range(40)]
    expected = checks.compact({"classes": rows})
    near = copy.deepcopy(rows)
    near[7]["score"] += TOL / 10
    assert checks.compare(expected, checks.compact({"classes": near}), TOL) == []
    far = copy.deepcopy(rows)
    far[7]["posterior"][1] += 1e-6
    assert checks.compare(expected, checks.compact({"classes": far}), TOL)
    swapped = copy.deepcopy(rows)
    swapped[0]["multiplicity"], swapped[1]["multiplicity"] = 2, 0
    assert checks.compare(expected, checks.compact({"classes": swapped}), TOL)


def test_tracer_patches_every_binding_and_restores_them():
    import inacc
    import inacc.cli
    import inacc.construct
    import inacc.degrees

    original = inacc.construct.verify_inaccessibility
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = inacc.construct.verify_inaccessibility
        assert wrapped is not original
        for mod in (inacc, inacc.cli, inacc.degrees):
            assert mod.verify_inaccessibility is wrapped
    finally:
        tracer.uninstall()
    for mod in (inacc, inacc.cli, inacc.construct, inacc.degrees):
        assert mod.verify_inaccessibility is original


def test_traced_run_reports_every_per_layer_metric():
    from collections import Counter

    totals = {"ops": Counter({"scan.pool.worker_wall_s": 2.0, "scan.pool.busy_s": 1.0}), "setup": Counter()}
    assert set(run.layer_metrics(totals, ops=4, overhead=0.9)) == set(run.PER_LAYER)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
