"""Command-line surface: the ``inacc`` command and its JSON/CSV/table reports.

Each subcommand handler returns a result object or a dict; ``run_command``
alone turns it into a report (``inacc.core.JsonReport``'s JSON form), puts
the subcommand name first, adds the determinism tag ("bitwise"
single-threaded, "tolerance" with --parallel, which only the scanning
subcommands take), and refuses --format csv
outside CSV_COMMANDS, whose handlers stream their CSV rows themselves.
The shapes are pinned by schemas/report.schema.json at the repo root.
Exit codes: 0 success, 1 domain errors (reported as JSON), 2 usage errors,
141 when stdout is a pipe its reader closed (``main`` only).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass

from . import _scan
from .conditioning import in_blind_spot, jeffrey_posterior
from .construct import (
    DEFAULT_MAX_OUTCOMES,
    MAX_JSON_ROWS,
    MAX_SCAN_OUTCOMES,
    ROW_FIELDS,
    _check_scan_inputs,
    construct_inaccessible_decision,
    partition_rows,
    verify_inaccessibility,
)
from .core import (
    InaccError,
    JsonReport,
    ProbabilityVector,
    RefusedTooLarge,
    UtilityFunction,
    _json_value,
)
from .degrees import achievable_degrees, degree, realize_degree
from .monotonicity import (
    appendix_certificate,
    check_monotonicity,
    epsilon_mixture_check,
    sweep,
)
from .partitions import (
    SetPartition,
    enumerate_proper_nontrivial,
    proper_nontrivial_count,
)

#: "uniform:N" is refused above this many outcomes (about 300 bytes each once built)
MAX_UNIFORM_OUTCOMES = 10**6

ENV_SEED = "INACC_SEED"
#: the subcommands with a --format csv table; the rest refuse it
CSV_COMMANDS = ("partitions", "verify")


class UsageError(Exception):
    """Malformed invocation; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# argument parsing


#: per vector input: its --context key, the type it builds, and where it may come from
_INPUTS = {
    "pstar": ("p_star", ProbabilityVector, "a --context file"),
    "p": ("p", ProbabilityVector, "a --context file"),
    "d": ("d", UtilityFunction, "d / f1,f2 in --context"),
}


def _vector(make, value, source: str, shown: str):
    """make(value), where text is "uniform:N" (probability vectors) or comma-separated numbers.

    A flag's text and a --context value (text or a JSON list) both come
    here; a malformed one is a UsageError "<source>: cannot parse <shown>".
    "uniform:N" above MAX_UNIFORM_OUTCOMES is a UsageError before it is built.
    """
    try:
        if isinstance(value, str):
            if make is ProbabilityVector and value.startswith("uniform:"):
                n = int(value.split(":", 1)[1])
                if n > MAX_UNIFORM_OUTCOMES:
                    raise UsageError(
                        f"{source}: {shown} refused (uniform:N takes N <= {MAX_UNIFORM_OUTCOMES})"
                    )
                return ProbabilityVector.uniform(n)
            value = [float(tok) for tok in value.split(",")]
        return make(value)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{source}: cannot parse {shown} ({exc})") from exc


def _parse_partition(text: str, flag: str) -> SetPartition:
    try:
        return SetPartition.parse(text)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{flag}: cannot parse {text!r} ({exc})") from exc


def _load_context(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"--context: cannot read {path!r} ({exc})") from exc
    if not isinstance(raw, dict):
        raise UsageError("--context: file must hold a JSON object")
    return raw


def _inputs(args, *names: str) -> list:
    """p*, p, then ``names`` (keys of ``_INPUTS``), each from its flag or else from --context.

    d may also come from the context as f1 - f2.  A context ``n`` must
    equal the outcome count of every vector taken from the file.
    """
    ctx = _load_context(args.context)

    def from_context(key, make):
        value = _vector(make, ctx[key], "--context", repr(key))
        if "n" in ctx and ctx["n"] != value.n:
            raise UsageError(f"--context: 'n' is {ctx['n']!r}, but {key!r} has {value.n} outcomes")
        return value

    out = []
    for name in ("pstar", "p", *names):
        key, make, where = _INPUTS[name]
        text = getattr(args, name)
        if text is not None:
            out.append(_vector(make, text, f"--{name}", repr(text)))
        elif key in ctx:
            out.append(from_context(key, make))
        elif name == "d" and "f1" in ctx and "f2" in ctx:
            f1 = from_context("f1", make)
            out.append(f1.minus(from_context("f2", make)))
        else:
            raise UsageError(f"--{name}: missing (give the flag or {where})")
    return out


def _resolve_seed(args) -> int:
    source, text = "--seed", args.seed
    if text is None:
        source, text = ENV_SEED, os.environ.get(ENV_SEED, "0")
    try:
        seed = int(text)
    except ValueError as exc:
        raise UsageError(f"{source}: cannot parse {text!r} as an integer") from exc
    if seed < 0:
        raise UsageError(f"{source}: seeds are nonnegative, got {seed}")
    return seed


def _scan_options(args) -> dict:
    """The worker count and resource guard every exhaustive scan takes."""
    if args.parallel < 1:
        raise UsageError(f"--parallel: need a worker count >= 1, got {args.parallel}")
    if args.max_n > DEFAULT_MAX_OUTCOMES and not args.ack_large:
        raise UsageError(
            f"--max-n: raising the guard above {DEFAULT_MAX_OUTCOMES} needs --ack-large"
        )
    return {"workers": args.parallel, "max_outcomes": args.max_n}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table", "csv"), default="json",
        help="report format (csv only for per-partition tables)",
    )

    scanning = argparse.ArgumentParser(add_help=False, parents=[common])
    scanning.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="worker processes for partition scans (default 1)",
    )
    scanning.add_argument(
        "--max-n", type=int, default=DEFAULT_MAX_OUTCOMES, metavar="N",
        help=f"resource guard for exhaustive scans (default {DEFAULT_MAX_OUTCOMES}; "
        f"never above {MAX_SCAN_OUTCOMES}, whatever N)",
    )
    scanning.add_argument(
        "--ack-large", action="store_true",
        help="acknowledge the memory/time cost of raising --max-n",
    )

    measures = argparse.ArgumentParser(add_help=False)
    measures.add_argument(
        "--context", metavar="FILE",
        help="JSON file with keys {n, p_star, p, f1, f2 | d}",
    )
    measures.add_argument("--pstar", help="target measure, e.g. 0.5,0.3,0.2")
    measures.add_argument("--p", help="credence, e.g. 0.333,0.333,0.334 or uniform:3")

    decision = argparse.ArgumentParser(add_help=False, parents=[measures])
    decision.add_argument("--d", help="advantage function, e.g. 0.3,-0.1,-0.5")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=int, default=None,
        help=f"RNG seed (default: ${ENV_SEED} or 0)",
    )

    ap = argparse.ArgumentParser(
        prog="inacc",
        description="Conditionally inaccessible decisions: construct, verify, sweep.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("partitions", parents=[common], help="enumerate or count partitions")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count", action="store_true", help="report the count only")
    sp.add_argument("--limit", type=int, default=None, help="cap the listing length")

    sp = sub.add_parser("posterior", parents=[common, measures], help="Jeffrey posterior for one partition")
    sp.add_argument("--partition", required=True, help='e.g. "0,0,1" or "{1,2}|{3}"')

    sub.add_parser("blindspot", parents=[common, measures], help="blind-spot membership and witness")

    sp = sub.add_parser("construct", parents=[scanning, measures], help="build a strongly inaccessible decision")
    sp.add_argument("--eps-frac", type=float, default=0.5)
    sp.add_argument("--clamp", action="store_true", help="clamp log-ratio where p* is zero")

    sp = sub.add_parser("verify", parents=[scanning, decision], help="exhaustive inaccessibility report")
    sp.add_argument("--full", action="store_true", help="keep per-partition details")

    sub.add_parser("degree", parents=[scanning, decision], help="degree of inaccessibility of d")

    sp = sub.add_parser("spectrum", parents=[scanning, measures, seeded], help="achievable degree spectrum")
    sp.add_argument("--eta-frac", type=float, default=0.5)

    sp = sub.add_parser("realize", parents=[scanning, measures, seeded], help="realize a degree exactly")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eta-frac", type=float, default=0.5)

    sub.add_parser("monotonicity", parents=[scanning, decision], help="informed-decision monotonicity check")

    sub.add_parser("certificate", parents=[common, measures], help="decomposition certificate")

    sp = sub.add_parser("epsilon", parents=[scanning, decision], help="mixture-identity check")
    sp.add_argument("--eps", type=float, required=True)

    sp = sub.add_parser("sweep", parents=[common, seeded], help="Monte-Carlo sweep over the simplex")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=1.0, help="symmetric Dirichlet parameter")

    # vectors like "-1,-0.5,2", "-.5,1,0" and numbers like "-inf" must parse as
    # values, not option strings; no option here starts with a digit, a dot,
    # "inf" or "nan", so widening the matcher is safe
    matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
    ap._negative_number_matcher = matcher
    for child in sub.choices.values():
        child._negative_number_matcher = matcher

    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``run_command`` reads argv with, built on first use."""
    return build_parser()


def _refuse_long_listing(rows: int, what: str, hint: str) -> None:
    """JSON listings stop at MAX_JSON_ROWS; ``hint`` names the caller's flags for longer ones."""
    if rows > MAX_JSON_ROWS:
        raise RefusedTooLarge(
            f"{what} would list {rows} partitions in JSON (limit {MAX_JSON_ROWS}); {hint}"
        )


# ---------------------------------------------------------------------------
# subcommand handlers (return a result object or a dict, or None once the
# CSV rows are streamed)


@dataclass(frozen=True)
class _ListedPartition(JsonReport):
    """One row of a JSON partitions listing."""

    rgs: SetPartition
    blocks: str
    block_count: int


def _cmd_partitions(args) -> dict | None:
    if args.limit is not None and args.limit < 0:
        raise UsageError(f"--limit: need a count >= 0, got {args.limit}")
    n = args.n
    count = proper_nontrivial_count(n)  # raises TooSmall / OutOfRange
    limit = count if args.limit is None else min(args.limit, count)
    rows = itertools.islice(enumerate_proper_nontrivial(n), limit)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["rgs", "block_count"])
        writer.writerows([str(pi), pi.block_count] for pi in rows)
        return None
    report = {"n": n, "count": count}
    if not args.count:
        _refuse_long_listing(limit, f"partitions --n {n}", "use --format csv, --limit or --count")
        report["partitions"] = [
            _ListedPartition(pi, pi.format_blocks(), pi.block_count) for pi in rows
        ]
    return report


def _cmd_posterior(args) -> dict:
    p_star, p = _inputs(args)
    pi = _parse_partition(args.partition, "--partition")
    return {
        "partition": pi,
        "blocks": pi.format_blocks(),
        "q": jeffrey_posterior(p_star, p, pi),
    }


def _cmd_blindspot(args) -> dict:
    res = in_blind_spot(*_inputs(args))
    return {
        "member": res.member,
        "witness": res.witness,
        "ratio": res.ratio.values,
        "injective": res.ratio.injective,
    }


def _cmd_construct(args) -> JsonReport:
    return construct_inaccessible_decision(
        *_inputs(args),
        eps_fraction=args.eps_frac,
        mode="clamp" if args.clamp else "strict",
        **_scan_options(args),
    )


def _cmd_verify(args) -> JsonReport | None:
    p_star, p, d = _inputs(args, "d")
    options = _scan_options(args)
    if args.format == "csv":
        n = _check_scan_inputs(p_star, p, d, **options)
        table = _scan._score_table(p_star.as_array(), p.as_array(), d.as_array())
        chunks = _scan.iter_scored_chunks(n, table)
        writer = csv.writer(sys.stdout)
        writer.writerow(ROW_FIELDS)
        writer.writerows(partition_rows(chunks))
        return None
    if args.full:
        n = _check_scan_inputs(p_star, p, d, **options)
        _refuse_long_listing(
            proper_nontrivial_count(n), "verify --full", "use --format csv, or drop --full"
        )
    return verify_inaccessibility(
        p_star, p, d, keep_partitions=True if args.full else None, **options
    )


def _cmd_degree(args) -> dict:
    p_star, p, d = _inputs(args, "d")
    return {
        "degree": degree(p_star, p, d, **_scan_options(args)),
        "partition_count": proper_nontrivial_count(p.n),
    }


def _cmd_spectrum(args) -> JsonReport:
    return achievable_degrees(
        *_inputs(args),
        eta_fraction=args.eta_frac,
        seed=_resolve_seed(args),
        **_scan_options(args),
    )


def _cmd_realize(args) -> dict:
    realized = realize_degree(
        *_inputs(args),
        args.k,
        eta_fraction=args.eta_frac,
        seed=_resolve_seed(args),
        **_scan_options(args),
    )
    return {
        "k": realized.k,
        "c": realized.c,
        "d": realized.d,
        "report": realized.report.to_json_dict(),
    }


def _cmd_monotonicity(args) -> JsonReport:
    return check_monotonicity(*_inputs(args, "d"), **_scan_options(args))


def _cmd_certificate(args) -> JsonReport:
    return appendix_certificate(*_inputs(args))


def _cmd_epsilon(args) -> JsonReport:
    return epsilon_mixture_check(*_inputs(args, "d"), args.eps, **_scan_options(args))


def _cmd_sweep(args) -> JsonReport:
    return sweep(
        n=args.n,
        samples=args.samples,
        seed=_resolve_seed(args),
        dirichlet_alpha=args.alpha,
    )


_HANDLERS = {
    "partitions": _cmd_partitions,
    "posterior": _cmd_posterior,
    "blindspot": _cmd_blindspot,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "degree": _cmd_degree,
    "spectrum": _cmd_spectrum,
    "realize": _cmd_realize,
    "monotonicity": _cmd_monotonicity,
    "certificate": _cmd_certificate,
    "epsilon": _cmd_epsilon,
    "sweep": _cmd_sweep,
}


# ---------------------------------------------------------------------------
# rendering and entry point


def _render_table(report: dict, indent: str = "") -> str:
    lines = []
    for key, val in report.items():
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_table(val, indent + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            headers = list(val[0].keys())
            lines.append(f"{indent}{key}:")
            lines.append(indent + "  " + " | ".join(headers))
            for item in val:
                lines.append(indent + "  " + " | ".join(str(item.get(h)) for h in headers))
        else:
            lines.append(f"{indent}{key}: {val}")
    return "\n".join(lines)


def run_command(argv: list[str] | None = None) -> int:
    """Parse argv, run the subcommand, report on stdout; returns exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        if args.format == "csv" and args.command not in CSV_COMMANDS:
            raise UsageError(f"--format: csv is only available for {' and '.join(CSV_COMMANDS)}")
        result = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InaccError as exc:
        error = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(error, indent=2, sort_keys=True))
        return 1
    if result is not None:
        report = {
            "command": args.command,
            **_json_value(result),
            "determinism": "bitwise" if getattr(args, "parallel", 1) <= 1 else "tolerance",
        }
        if args.format == "table":
            print(_render_table(report))
        else:
            print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe ("| head"): send the interpreter's final flush to
        # devnull, and exit as a process killed by SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
