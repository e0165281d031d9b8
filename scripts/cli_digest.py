#!/usr/bin/env python3
"""Print one digest line per CLI invocation, to compare two checkouts.

Runs a fixed list of ``inacc`` invocations in-process through
``inacc.cli.run_command`` of the checkout at ``--root`` (default: the
one holding this script).  The list is the first 2 scan, 12 spectrum and
60 sweep cycles of ``perfbench/reference.json``, plus flag, error,
``--context`` and ``INACC_SEED`` cases over all twelve subcommands and
the json, table and csv formats.  Each line is

    <exact hash> <discrete hash> <exit code> <invocation>

where the exact hash is the sha256 (16 hex) of (exit code, stdout,
stderr), and the discrete hash the same with every float literal (digits
with a decimal point or an exponent) masked as ``<f>``.  The temporary
directory of the context files is masked as ``<tmp>`` in both, so two
checkouts that behave alike print identical lines.  Run it on both and
diff:

    python3 scripts/cli_digest.py --root ../parent > parent.txt
    python3 scripts/cli_digest.py > change.txt
    diff parent.txt change.txt

A change that moves scores in their last bits changes exact hashes only.
To see whether any discrete field moved (a degree, verdict, witness,
count, message or exit code), diff from the second column on:

    diff <(cut -d' ' -f2- parent.txt) <(cut -d' ' -f2- change.txt)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

#: reference cycles replayed per pool of perfbench/reference.json
REFERENCE_CYCLES = {"scan": 2, "spectrum": 12, "sweep": 60}
FORMATS = ("json", "table", "csv")
#: a float literal, as the discrete hash masks it; integers (degrees, counts, labels) stay
FLOAT = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")

PS, P, D = "0.5,0.3,0.2", "uniform:3", "1,-1,0"
PS5, P5, D5 = "0.3,0.25,0.2,0.15,0.1", "0.1,0.15,0.2,0.25,0.3", "0.4,-0.2,0.1,-0.3,0.05"
PAIR = ["--pstar", PS, "--p", P]

#: one working invocation per subcommand
BASE = {
    "partitions": ["partitions", "--n", "4"],
    "posterior": ["posterior", *PAIR, "--partition", "{1,2}|{3}"],
    "blindspot": ["blindspot", *PAIR],
    "construct": ["construct", *PAIR],
    "verify": ["verify", *PAIR, "--d", D],
    "degree": ["degree", *PAIR, "--d", D],
    "spectrum": ["spectrum", *PAIR],
    "realize": ["realize", *PAIR, "--k", "2"],
    "monotonicity": ["monotonicity", *PAIR, "--d", D],
    "certificate": ["certificate", *PAIR],
    "epsilon": ["epsilon", *PAIR, "--d", D, "--eps", "0.5"],
    "sweep": ["sweep", "--n", "3", "--samples", "5", "--seed", "1"],
}

FLAG_CASES = [
    ["--help"],
    ["partitions", "--n", "4", "--count"],
    ["partitions", "--n", "5", "--limit", "0"],
    ["partitions", "--n", "5", "--limit", "7", "--format", "csv"],
    ["partitions", "--n", "4", "--limit", "-1"],
    ["partitions", "--n", "2"],
    ["partitions", "--n", "26", "--count"],
    ["partitions", "--n", "11"],
    ["posterior", *PAIR, "--partition", "0,1,1"],
    ["posterior", "--pstar", PS5, "--p", P5, "--partition", "{1,3}|{2,5}|{4}"],
    ["blindspot", "--pstar", "0.4,0.4,0.2", "--p", P],
    ["blindspot", "--pstar", PS5, "--p", P5],
    ["construct", *PAIR, "--eps-frac", "0.25"],
    ["construct", "--pstar", "0.6,0.4,0", "--p", P, "--clamp"],
    ["construct", "--pstar", PS5, "--p", P5, "--parallel", "2"],
    ["verify", *PAIR, "--d", "-0.1,-0.2,0.05", "--full"],
    ["verify", "--pstar", PS5, "--p", P5, "--d", D5, "--format", "csv"],
    ["verify", "--pstar", PS5, "--p", P5, "--d", D5, "--full", "--format", "table"],
    ["verify", "--pstar", PS5, "--p", P5, "--d=-1,2,-0.5,0.1,0"],
    ["degree", *PAIR, "--d", "-1,-1,-1"],
    ["degree", *PAIR, "--d", "-1,2,0"],
    ["degree", *PAIR, "--d", "-.5,1,0"],
    ["degree", *PAIR, "--d=-.5,1,0"],
    ["degree", *PAIR, "--d", "1,1,1", "--parallel", "2"],
    ["degree", *PAIR, "--d", D, "--max-n", "14"],
    ["degree", *PAIR, "--d", D, "--max-n", "14", "--ack-large"],
    ["spectrum", "--pstar", PS5, "--p", P5, "--seed", "3", "--eta-frac", "0.25"],
    ["realize", "--pstar", PS5, "--p", P5, "--k", "10", "--seed", "2"],
    ["realize", *PAIR, "--k", "0"],
    ["monotonicity", *PAIR, "--d", "-1,2,-0.5"],
    ["certificate", "--pstar", PS5, "--p", P5],
    ["epsilon", "--pstar", PS5, "--p", P5, "--d", D5, "--eps", "0.1"],
    ["sweep", "--n", "4", "--samples", "20", "--seed", "7", "--alpha", "0.5"],
    ["sweep", "--n", "3", "--samples", "5", "--alpha", "-inf"],
    ["sweep", "--n", "3", "--samples", "5", "--alpha", "nan"],
    ["sweep", "--n", "3", "--samples", "5", "--alpha", "0"],
    ["sweep", "--n", "3", "--samples", "0"],
    ["sweep", "--n", "11", "--samples", "1"],
    ["sweep", "--n", "3", "--samples", "2", "--seed", "-1"],
    # each caller that builds a subset table for a scan: two batches with a class pass,
    # a ratio table with zeros in the mixture residual, 678,568 streamed csv rows
    ["sweep", "--n", "8", "--samples", "300"],
    ["epsilon", "--pstar", "0.5,0.5,0", "--p", P, "--d", D, "--eps", "0.3"],
    ["verify", "--pstar", "0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1,0.45",
     "--p", "uniform:11", "--d", "0.5,-0.4,0.3,-0.2,0.1,0,-0.1,0.2,-0.3,0.4,-0.5",
     "--format", "csv"],
    # posterior classes: 11 classes, two of multiplicity 2; the middle achievable degree
    # of that pair; and 21,145 singleton classes in about 8 MB of JSON at n = 9
    ["spectrum", "--pstar", "0.1,0.2,0.3,0.4", "--p", "uniform:4", "--format", "table"],
    ["realize", "--pstar", "0.1,0.2,0.3,0.4", "--p", "uniform:4", "--k", "7"],
    ["spectrum", "--pstar", "0.1060485686782918,0.030484743315274027,0.5312599867756885,"
     "0.03621437062081371,0.01140134966194121,0.17787580778722714,0.04928101786143099,"
     "0.05449754509293646,0.002936610206396084", "--p", "uniform:9", "--seed", "1"],
]

ERROR_CASES = [
    [],
    ["bogus"],
    ["partitions", "--bogus"],
    ["blindspot", "--pstar", "abc", "--p", P],
    ["blindspot", *PAIR[:2], "--p", "uniform:abc"],
    ["blindspot", *PAIR[:2], "--p", "uniform:2"],
    ["blindspot", "--pstar", "0.5,0.4,0.2", "--p", P],
    ["blindspot", "--pstar", "0.5,0.6,-0.1", "--p", P],
    ["blindspot", *PAIR[:2], "--p", "0.5,0.5,0"],
    ["blindspot", *PAIR[:2], "--p", "0.25,0.25,0.25,0.25"],
    ["blindspot", *PAIR[:2]],
    ["blindspot", "--p", P],
    ["posterior", *PAIR, "--partition", "0,2,1"],
    ["posterior", *PAIR, "--partition", "{1,2}|{2}"],
    ["posterior", *PAIR, "--partition", "0,0,0"],
    ["posterior", *PAIR, "--partition", "0,0,1,1"],
    ["posterior", *PAIR[:2], "--p", "0.5,0.5,0", "--partition", "0,0,1,1"],
    ["construct", *PAIR, "--eps-frac", "1.5"],
    ["construct", "--pstar", "0.6,0.4,0", "--p", P],
    ["construct", "--pstar", "0.4,0.4,0.2", "--p", P],
    ["verify", *PAIR],
    ["verify", *PAIR, "--d", "1,-1"],
    ["verify", *PAIR, "--d", "1,nan,0"],
    ["verify", *PAIR, "--d", "1,-1", "--format", "csv"],
    ["verify", *PAIR[:2], "--p", "0.5,0.5,0", "--d", D, "--format", "csv"],
    ["degree", *PAIR, "--d", "uniform:3"],
    ["degree", *PAIR, "--d", "a,b,c"],
    ["spectrum", "--pstar", "0.4,0.4,0.2", "--p", P],
    ["realize", *PAIR, "--k", "7"],
    ["certificate", "--pstar", "0.4,0.4,0.2", "--p", P],
    ["certificate", "--pstar", "0.6,0.4,0", "--p", P],
    ["epsilon", *PAIR, "--d", D, "--eps", "1"],
    ["sweep", "--n", "3"],
    # scan flags are refused where no scan runs
    ["sweep", "--n", "3", "--samples", "2", "--parallel", "2"],
    ["partitions", "--n", "3", "--count", "--parallel", "2"],
    ["certificate", *PAIR, "--max-n", "14"],
    ["degree", *PAIR, "--d", D, "--parallel", "0"],
    # a subnormal credence weight is refused: its block ratios p*(B)/p(B) overflow
    ["verify", "--pstar", PS, "--p", "1e-320,0.5,0.5", "--d", "1,-1,0.5"],
    ["posterior", "--pstar", PS, "--p", "1e-320,0.5,0.5", "--partition", "0,1,1"],
    ["construct", "--pstar", PS, "--p", "1e-320,0.5,0.5"],
    # certificate margins within TOL_NUM of zero are refused (A_2 = 6.0e-11 here)
    ["certificate", "--pstar", "0.7590058190734279,0.11522607832880578,0.12576810259776633",
     "--p", "0.5098790523647087,0.23434057393504928,0.255780373700242"],
    # a utility above the float maximum / 16 is refused: its scores could overflow
    ["verify", "--pstar", "0.0004,0.5482,0.2131,0.0047,0.0053,0.2283",
     "--p", "0.0002,0.4238,0.0476,0.3862,0.0506,0.0916",
     "--d", ",".join(["1.7976931348623157e308"] * 6)],
    # a tied pair is refused before its class scan
    ["spectrum", "--pstar", "0.2,0.2,0.1,0.1,0.1,0.1,0.1,0.1", "--p", "uniform:8"],
    # the refusal of a long verify --full listing names verify's own flags
    ["verify", "--pstar", "uniform:11", "--p", "uniform:11", "--d", ",".join(["1"] * 11),
     "--full"],
    # uniform:N past its bound is refused before the vector is built
    ["blindspot", *PAIR[:2], "--p", "uniform:99999999999"],
]

#: (file name, JSON content or raw text, argv after --context <file>)
CONTEXT_CASES = [
    ("full.json", {"n": 3, "p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "f1": [1, 0, 0],
                   "f2": [0, 1, 0]}, ["verify"]),
    ("d.json", {"p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "d": [1, -1, 0]}, ["degree"]),
    ("d.json", None, ["degree", "--d", "-1,-1,-1"]),
    ("d.json", None, ["monotonicity", "--pstar", "0.4,0.35,0.25"]),
    ("d.json", None, ["construct"]),
    ("d.json", None, ["epsilon", "--eps", "0.3"]),
    ("d.json", None, ["partitions", "--n", "3"]),
    ("pair.json", {"p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3}, ["certificate"]),
    ("pair.json", None, ["spectrum", "--seed", "4"]),
    ("pair.json", None, ["verify"]),
    ("pair.json", None, ["verify", "--d", D, "--format", "csv"]),
    ("text.json", {"p_star": "0.5,0.3,0.2", "p": "uniform:3", "d": "1,-1,0"}, ["degree"]),
    ("text.json", None, ["blindspot"]),
    ("uniform_d.json", {"p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "d": "uniform:3"},
     ["degree"]),
    ("bad_d.json", {"p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "d": "abc"}, ["verify"]),
    ("bad_pstar.json", {"p_star": 5, "p": [1 / 3] * 3, "d": [1, -1, 0]}, ["verify"]),
    ("null_p.json", {"p_star": [0.5, 0.3, 0.2], "p": None}, ["blindspot"]),
    ("bad_weight.json", {"p_star": [0.5, "x", 0.2], "p": [1 / 3] * 3}, ["blindspot"]),
    ("sum.json", {"p_star": [0.5, 0.5, 0.2], "p": [1 / 3] * 3}, ["blindspot"]),
    ("f_mismatch.json", {"p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "f1": [1, 0, 0],
                         "f2": [0, 1]}, ["degree"]),
    ("f1_only.json", {"p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "f1": [1, 0, 0]},
     ["degree"]),
    ("n_ok.json", {"n": 3, "p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3}, ["blindspot"]),
    ("n_wrong.json", {"n": 4, "p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3}, ["blindspot"]),
    ("n_text.json", {"n": "3", "p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3}, ["blindspot"]),
    ("n_float.json", {"n": 3.5, "p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3}, ["blindspot"]),
    ("list.json", [1, 2, 3], ["blindspot"]),
    ("broken.json", "{not json", ["blindspot"]),
    ("missing.json", None, ["blindspot"]),
    ("huge_p.json", {"p_star": [0.5, 0.3, 0.2], "p": "uniform:99999999999"}, ["blindspot"]),
]

#: (INACC_SEED value, argv)
SEED_CASES = [
    ("5", ["spectrum", "--pstar", PS5, "--p", P5]),
    ("5", ["sweep", "--n", "3", "--samples", "4"]),
    ("5", ["sweep", "--n", "3", "--samples", "4", "--seed", "6"]),
    ("11", ["realize", "--pstar", PS5, "--p", P5, "--k", "3"]),
    ("-3", ["spectrum", *PAIR]),
    ("abc", ["sweep", "--n", "3", "--samples", "2"]),
    ("abc", ["sweep", "--n", "3", "--samples", "2", "--seed", "2"]),
]


def invocations(root: Path, tmp: Path) -> list[tuple[str, list[str], str | None]]:
    """(label, argv, INACC_SEED or None) for every invocation, in a fixed order."""
    out = []
    pools = json.loads((root / "perfbench" / "reference.json").read_text())["pools"]
    for family, cycles in REFERENCE_CYCLES.items():
        for c, entry in enumerate(pools[family][:cycles]):
            for op in entry:
                out.append((f"ref:{family}[{c}] {op['argv'][0]}", op["argv"], None))
    for argv in BASE.values():
        for fmt in FORMATS:
            out.append(("", [*argv, "--format", fmt], None))
        out.append(("", [argv[0], "--help"], None))
    out += [("", argv, None) for argv in FLAG_CASES + ERROR_CASES]
    for name, content, argv in CONTEXT_CASES:
        path = tmp / name
        if content is not None:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        out.append(("", [*argv, "--context", str(path)], None))
    out += [(f"INACC_SEED={seed}", argv, seed) for seed, argv in SEED_CASES]
    return out


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]


def run_one(run_command, argv: list[str], seed: str | None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process run; -1 and the traceback if it raises."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("INACC_SEED", None)
    if seed is not None:
        os.environ["INACC_SEED"] = seed
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run_command(argv)
            except Exception:  # noqa: BLE001 - an escaping exception is part of the digest
                traceback.print_exc(limit=0)
                code = -1
    finally:
        os.environ.pop("INACC_SEED", None)
        if saved is not None:
            os.environ["INACC_SEED"] = saved
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ and perfbench/reference.json are used",
    )
    args = ap.parse_args()
    root = args.root.resolve()
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    sys.path.insert(0, str(root / "src"))
    from inacc.cli import run_command

    if Path(sys.modules["inacc"].__file__).resolve().parent != root / "src" / "inacc":
        print(f"cli_digest: imported {sys.modules['inacc'].__file__}, not {root}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for label, argv, seed in invocations(root, tmp):
            code, out, err = run_one(run_command, argv, seed)
            out, err = out.replace(name, "<tmp>"), err.replace(name, "<tmp>")
            exact = digest(code, out, err)
            discrete = digest(code, FLOAT.sub("<f>", out), FLOAT.sub("<f>", err))
            shown = label if label.startswith("ref:") else " ".join([label, *argv]).strip()
            print(exact, discrete, code, shown.replace(name, "<tmp>"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
