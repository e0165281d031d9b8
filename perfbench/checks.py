"""Correctness checks for every op: schema, invariants, stored reference.

An op passes when it exits 0, its stdout is one JSON report that validates
against ``schemas/report.schema.json``, the report satisfies the
invariants of its subcommand, and it matches the reference output made at
the commit that defined the benchmark.  Discrete fields must match
exactly and floats within the reference's ``tol_num`` (the library's
``TOL_NUM``).

Long lists (a spectrum holds 4,138 classes) are stored in the reference as
digests: exact hashes for discrete values, and for floats the length, the
sum and a position-weighted sum.  If every float is within ``tol`` of its
reference value, the sum is within ``len * tol`` and the weighted sum
within ``2 * len * tol``; those are the bounds checked.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from workloads import partition_count

#: lists longer than this are stored and compared as digests
LONG_LIST = 32


def _is_float(x) -> bool:
    return isinstance(x, float)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _flatten(values: list) -> list:
    out = []
    for v in values:
        if isinstance(v, list):
            out.extend(_flatten(v))
        else:
            out.append(v)
    return out


def _digest(values: list) -> dict:
    flat = _flatten(values)
    if flat and all(_is_float(v) or _is_int(v) for v in flat) and any(_is_float(v) for v in flat):
        arr = np.asarray(flat, dtype=np.float64)
        weights = 1.0 + (np.arange(arr.size) % 10) / 10.0
        return {
            "digest": "float",
            "len": int(arr.size),
            "sum": math.fsum(arr.tolist()),
            "wsum": math.fsum((arr * weights).tolist()),
        }
    blob = json.dumps(flat, sort_keys=True).encode()
    return {"digest": "exact", "len": len(flat), "sha256": hashlib.sha256(blob).hexdigest()}


def compact(value):
    """The form a report is stored and compared in: long lists become digests."""
    if isinstance(value, dict):
        return {k: compact(v) for k, v in value.items()}
    if isinstance(value, list):
        if len(value) <= LONG_LIST:
            return [compact(v) for v in value]
        if all(isinstance(v, dict) for v in value):
            keys = sorted({k for v in value for k in v})
            return {
                "columns": {k: _digest([v.get(k) for v in value]) for k in keys},
                "rows": len(value),
            }
        return _digest(value)
    return value


def compare(expected, actual, tol: float, path: str = "$") -> list[str]:
    """Mismatches between two compacted reports; empty when they agree."""
    if isinstance(expected, dict) and expected.get("digest") == "float":
        if not isinstance(actual, dict) or actual.get("digest") != "float":
            return [f"{path}: expected float digest, got {actual!r:.80}"]
        n = expected["len"]
        if actual["len"] != n:
            return [f"{path}: length {actual['len']} != {n}"]
        bad = []
        if abs(actual["sum"] - expected["sum"]) > n * tol:
            bad.append(f"{path}: sum {actual['sum']!r} != {expected['sum']!r}")
        if abs(actual["wsum"] - expected["wsum"]) > 2 * n * tol:
            bad.append(f"{path}: weighted sum {actual['wsum']!r} != {expected['wsum']!r}")
        return bad
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected object, got {actual!r:.80}"]
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        bad = []
        for k in expected:
            bad.extend(compare(expected[k], actual[k], tol, f"{path}.{k}"))
        return bad
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected list of {len(expected)}, got {actual!r:.80}"]
        bad = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            bad.extend(compare(e, a, tol, f"{path}[{i}]"))
        return bad
    if _is_float(expected) or _is_float(actual):
        if not (_is_float(actual) or _is_int(actual)) or not (_is_float(expected) or _is_int(expected)):
            return [f"{path}: {actual!r} != {expected!r}"]
        if abs(actual - expected) > tol:
            return [f"{path}: {actual!r} != {expected!r} (tol {tol})"]
        return []
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r:.80} != {expected!r:.80}"]
    return []


# ---------------------------------------------------------------------------
# invariants per subcommand


def _arg(argv: list[str], flag: str) -> str | None:
    for i, tok in enumerate(argv):
        if tok == flag and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith(flag + "="):
            return tok.split("=", 1)[1]
    return None


def _report_ok(rep: dict, count: int, tol: float) -> list[str]:
    bad = []
    if rep["partition_count"] != count:
        bad.append(f"partition_count {rep['partition_count']} != {count}")
    if rep["inaccessible"] != (rep["degree"] == rep["partition_count"]):
        bad.append("inaccessible flag disagrees with degree")
    if rep["strong"] and rep["max_score"] > -tol:
        bad.append("strong verdict with a non-negative max score")
    return bad


def invariants(report: dict, argv: list[str], n: int, tol: float) -> list[str]:
    """Problems with one report judged on its own and against its argv."""
    count = partition_count(n)
    cmd = argv[0]
    if report.get("command") != cmd:
        return [f"command {report.get('command')!r} != {cmd!r}"]
    bad: list[str] = []
    if cmd == "construct":
        rep = report["report"]
        bad += _report_ok(rep, count, tol)
        if not rep["strong"]:
            bad.append("constructed decision is not strong")
        if not rep["e_pstar"] > 0.0:
            bad.append("constructed decision has E_p*[d] <= 0")
        if rep["max_score"] > -report["epsilon"] + tol:
            bad.append("max posterior score above -epsilon")
    elif cmd == "verify":
        bad += _report_ok(report, count, tol)
        if not (report["inaccessible"] and report["strong"]):
            bad.append("constructed d does not verify as strongly inaccessible")
    elif cmd == "degree":
        if report["partition_count"] != count or not 0 <= report["degree"] <= count:
            bad.append(f"degree {report['degree']} of {report['partition_count']} out of range")
    elif cmd == "monotonicity":
        hyp = report["e_pstar"] > 0.0 and report["max_posterior_score"] <= tol
        if report["hypotheses_hold"] != hyp:
            bad.append("hypotheses flag disagrees with E_p*[d] and the max score")
        if report["hypotheses_hold"] and not report["conclusion_holds"]:
            bad.append("theorem violation reported as success")
    elif cmd == "epsilon":
        if not report["identities_hold"]:
            bad.append("mixture identities do not hold")
        if report["partition_count"] != count:
            bad.append(f"partition_count {report['partition_count']} != {count}")
    elif cmd == "spectrum":
        bad += _spectrum_ok(report, count, tol)
    elif cmd == "realize":
        k = int(_arg(argv, "--k"))
        rep = report["report"]
        if report["k"] != k or rep["degree"] != k:
            bad.append(f"realized degree {rep['degree']} != requested {k}")
        if rep["partition_count"] != count or not rep["e_pstar"] > 0.0:
            bad.append("realized decision has the wrong count or E_p*[d] <= 0")
    elif cmd == "sweep":
        samples = int(_arg(argv, "--samples"))
        if (report["n"], report["samples"], report["seed"]) != (
            int(_arg(argv, "--n")), samples, int(_arg(argv, "--seed"))
        ):
            bad.append("sweep does not echo its n, samples and seed")
        if sum(report["degree_histogram"].values()) != samples:
            bad.append("degree histogram does not sum to the sample count")
        if report["theorem_violations"] != 0:
            bad.append(f"{report['theorem_violations']} theorem violations")
        members = round(report["blind_spot_frequency"] * samples)
        if report["constructed"] + report["construct_degenerate"] != members:
            bad.append("constructed + degenerate != blind-spot members")
    else:
        bad.append(f"no invariants for {cmd!r}")
    return bad


def _spectrum_ok(report: dict, count: int, tol: float) -> list[str]:
    bad = []
    classes = report["classes"]
    mult = np.asarray([c["multiplicity"] for c in classes], dtype=np.int64)
    cumulative = report["cumulative"]
    if cumulative != np.cumsum(mult).tolist():
        bad.append("cumulative is not the running sum of multiplicities")
    if not cumulative or cumulative[-1] != count:
        bad.append(f"cumulative sum ends at {cumulative[-1:]} not {count}")
    if report["achievable"] != [0, *cumulative]:
        bad.append("achievable != [0] + cumulative")
    post = np.asarray([c["posterior"] for c in classes], dtype=np.float64)
    scores = np.asarray([c["score"] for c in classes], dtype=np.float64)
    if np.abs(post.sum(axis=1) - 1.0).max() > tol:
        bad.append("a class posterior does not sum to 1")
    if np.abs(post @ np.asarray(report["g_eta"]) - scores).max() > tol:
        bad.append("a class score is not E_q[g_eta]")
    if scores.size > 1 and np.diff(scores).min() <= tol:
        bad.append("class scores are not strictly separated")
    return bad


def cycle_invariants(reports: dict[str, dict]) -> list[str]:
    """Cross-op checks within one scan cycle (ops keyed by subcommand)."""
    bad = []
    built, ver = reports.get("construct"), reports.get("verify")
    if built and ver and ver["degree"] != built["report"]["degree"]:
        bad.append("verify degree disagrees with the construct report")
    deg, mono = reports.get("degree"), reports.get("monotonicity")
    if deg and mono:
        inacc = deg["degree"] == deg["partition_count"]
        if mono["hypotheses_hold"] != (inacc and mono["e_pstar"] > 0.0):
            bad.append("degree disagrees with the monotonicity hypotheses")
    return bad


def check_op(
    rc: int, stdout: str, stderr: str, argv: list[str], n: int, expected: dict,
    determinism: str, validator, tol: float,
) -> tuple[dict | None, list[str]]:
    """(parsed report or None, problems) for one op."""
    if rc != 0:
        return None, [f"exit code {rc}: {(stdout or stderr).strip()[:200]}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON ({exc})"]
    errors = [e.message[:200] for e in validator.iter_errors(report)][:3]
    if errors:
        return report, [f"schema: {e}" for e in errors]
    bad = invariants(report, argv, n, tol)
    if report.get("determinism") != determinism:
        bad.append(f"determinism {report.get('determinism')!r} != {determinism!r}")
    body = {k: v for k, v in report.items() if k != "determinism"}
    bad += [f"reference: {m}" for m in compare(expected, compact(body), tol)[:5]]
    return report, bad
