"""Command-line surface: JSON/CSV/table reports and Monte-Carlo sweeps.

Every report is a JSON object on stdout carrying its subcommand name and a
determinism tag ("bitwise" single-threaded, "tolerance" with --parallel);
the shapes are pinned by schemas/report.schema.json at the repo root.
Exit codes: 0 success, 1 domain errors (reported as JSON), 2 usage errors.

The sweep samples (p*, p) pairs from a symmetric Dirichlet, records how
often the pair lands in the blind spot, runs the construction plus the
monotonicity check on those that do, and counts theorem violations --
which must be zero.  Frequencies are evidence about typical simplex
geometry, never cardinality claims.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import _scan
from .conditioning import in_blind_spot, jeffrey_posterior, radon_nikodym
from .construct import (
    DEFAULT_MAX_OUTCOMES,
    MAX_SCAN_OUTCOMES,
    _guard_outcomes,
    construct_inaccessible_decision,
    verify_inaccessibility,
)
from .core import (
    TOL_NUM,
    InaccError,
    OutOfRange,
    ProbabilityVector,
    PStarHasZero,
    SeparationBelowTolerance,
    TheoremViolation,
    UtilityFunction,
)
from .degrees import achievable_degrees, degree, posterior_classes, realize_degree
from .monotonicity import appendix_certificate, check_monotonicity, epsilon_mixture_check
from .partitions import (
    SetPartition,
    enumerate_proper_nontrivial,
    proper_nontrivial_count,
)

#: sampled credences must keep every weight above this floor
DIRICHLET_FLOOR = 1e-6
#: sweeps stay in this outcome range; larger spaces are not desk scale
SWEEP_MAX_N = 10

ENV_SEED = "INACC_SEED"


class UsageError(Exception):
    """Malformed invocation; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# argument parsing


def _parse_probability(text: str, flag: str) -> ProbabilityVector:
    try:
        if text.startswith("uniform:"):
            return ProbabilityVector.uniform(int(text.split(":", 1)[1]))
        return ProbabilityVector(float(tok) for tok in text.split(","))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{flag}: cannot parse {text!r} ({exc})") from exc


def _parse_utility(text: str, flag: str) -> UtilityFunction:
    try:
        return UtilityFunction(float(tok) for tok in text.split(","))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{flag}: cannot parse {text!r} ({exc})") from exc


def _parse_partition(text: str, flag: str) -> SetPartition:
    try:
        return SetPartition.parse(text)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{flag}: cannot parse {text!r} ({exc})") from exc


def _load_context(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"--context: cannot read {path!r} ({exc})") from exc
    if not isinstance(raw, dict):
        raise UsageError("--context: file must hold a JSON object")
    return raw


def _resolve_measures(args) -> tuple[ProbabilityVector, ProbabilityVector]:
    ctx = _load_context(args.context) if getattr(args, "context", None) else {}
    if args.pstar is not None:
        p_star = _parse_probability(args.pstar, "--pstar")
    elif "p_star" in ctx:
        p_star = ProbabilityVector(ctx["p_star"])
    else:
        raise UsageError("--pstar: missing (give the flag or a --context file)")
    if args.p is not None:
        p = _parse_probability(args.p, "--p")
    elif "p" in ctx:
        p = ProbabilityVector(ctx["p"])
    else:
        raise UsageError("--p: missing (give the flag or a --context file)")
    return p_star, p


def _resolve_d(args) -> UtilityFunction:
    ctx = _load_context(args.context) if getattr(args, "context", None) else {}
    if getattr(args, "d", None) is not None:
        return _parse_utility(args.d, "--d")
    if "d" in ctx:
        return UtilityFunction(ctx["d"])
    if "f1" in ctx and "f2" in ctx:
        return UtilityFunction(ctx["f1"]).minus(UtilityFunction(ctx["f2"]))
    raise UsageError("--d: missing (give the flag or d / f1,f2 in --context)")


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{ENV_SEED}: cannot parse {env!r} as an integer") from exc
    return 0


def _max_outcomes(args) -> int:
    limit = args.max_n
    if limit > DEFAULT_MAX_OUTCOMES and not args.ack_large:
        raise UsageError(
            f"--max-n: raising the guard above {DEFAULT_MAX_OUTCOMES} needs --ack-large"
        )
    return limit


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table", "csv"), default="json",
        help="report format (csv only for per-partition tables)",
    )
    common.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="worker processes for partition scans (default 1)",
    )
    common.add_argument(
        "--max-n", type=int, default=DEFAULT_MAX_OUTCOMES, metavar="N",
        help=f"resource guard for exhaustive scans (default {DEFAULT_MAX_OUTCOMES}; "
        f"never above {MAX_SCAN_OUTCOMES}, whatever N)",
    )
    common.add_argument(
        "--ack-large", action="store_true",
        help="acknowledge the memory/time cost of raising --max-n",
    )
    common.add_argument(
        "--context", metavar="FILE",
        help="JSON file with keys {n, p_star, p, f1, f2 | d}",
    )

    measures = argparse.ArgumentParser(add_help=False)
    measures.add_argument("--pstar", help="target measure, e.g. 0.5,0.3,0.2")
    measures.add_argument("--p", help="credence, e.g. 0.333,0.333,0.334 or uniform:3")

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

    sp = sub.add_parser("construct", parents=[common, measures], help="build a strongly inaccessible decision")
    sp.add_argument("--eps-frac", type=float, default=0.5)
    sp.add_argument("--clamp", action="store_true", help="clamp log-ratio where p* is zero")

    sp = sub.add_parser("verify", parents=[common, measures], help="exhaustive inaccessibility report")
    sp.add_argument("--d", help="advantage function, e.g. 0.3,-0.1,-0.5")
    sp.add_argument("--full", action="store_true", help="keep per-partition details")

    sp = sub.add_parser("degree", parents=[common, measures], help="degree of inaccessibility of d")
    sp.add_argument("--d")

    sp = sub.add_parser("spectrum", parents=[common, measures, seeded], help="achievable degree spectrum")
    sp.add_argument("--eta-frac", type=float, default=0.5)

    sp = sub.add_parser("realize", parents=[common, measures, seeded], help="realize a degree exactly")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eta-frac", type=float, default=0.5)

    sp = sub.add_parser("monotonicity", parents=[common, measures], help="informed-decision monotonicity check")
    sp.add_argument("--d")

    sp = sub.add_parser("certificate", parents=[common, measures], help="decomposition certificate")

    sp = sub.add_parser("epsilon", parents=[common, measures], help="mixture-identity check")
    sp.add_argument("--d")
    sp.add_argument("--eps", type=float, required=True)

    sp = sub.add_parser("sweep", parents=[common, seeded], help="Monte-Carlo sweep over the simplex")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=1.0, help="symmetric Dirichlet parameter")

    # vectors like "-1,-0.5,2" must parse as values, not option strings;
    # no option here starts with a digit, so widening the matcher is safe
    matcher = re.compile(r"^-\d")
    ap._negative_number_matcher = matcher
    for child in sub.choices.values():
        child._negative_number_matcher = matcher

    return ap


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepSummary:
    """Aggregates of a seeded Dirichlet sweep; violations must stay zero."""

    n: int
    samples: int
    seed: int
    alpha: float
    blind_spot_frequency: float
    degree_histogram: dict[int, int]
    multiplicity_collisions: int
    theorem_violations: int
    constructed: int
    construct_degenerate: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "alpha": self.alpha,
            "blind_spot_frequency": self.blind_spot_frequency,
            "degree_histogram": {
                str(k): self.degree_histogram[k] for k in sorted(self.degree_histogram)
            },
            "multiplicity_collisions": self.multiplicity_collisions,
            "theorem_violations": self.theorem_violations,
            "constructed": self.constructed,
            "construct_degenerate": self.construct_degenerate,
        }


def sweep(
    n: int,
    samples: int,
    seed: int = 0,
    dirichlet_alpha: float = 1.0,
    workers: int = 1,
) -> SweepSummary:
    """Sample (p*, p) pairs i.i.d. and exercise the whole pipeline on each.

    Credences are resampled until every weight clears DIRICHLET_FLOOR, so
    the standing positivity assumption holds with well-conditioned ratios.
    For each sample a uniform random advantage function is drawn and its
    degree recorded; blind-spot pairs additionally run the construction
    and the monotonicity check.
    """
    if not 3 <= n <= SWEEP_MAX_N:
        raise OutOfRange(f"sweep supports 3 <= n <= {SWEEP_MAX_N}, got {n}")
    if samples < 1:
        raise OutOfRange(f"need samples >= 1, got {samples}")
    if dirichlet_alpha <= 0.0:
        raise OutOfRange(f"need alpha > 0, got {dirichlet_alpha}")
    rng = np.random.default_rng(seed)
    alpha_vec = np.full(n, dirichlet_alpha)
    members = 0
    histogram: dict[int, int] = {}
    collisions = 0
    violations = 0
    constructed = 0
    degenerate = 0
    for _ in range(samples):
        p_star = ProbabilityVector(rng.dirichlet(alpha_vec))
        while True:
            raw = rng.dirichlet(alpha_vec)
            if raw.min() >= DIRICHLET_FLOOR:
                break
        p = ProbabilityVector(raw)
        member = radon_nikodym(p_star, p).injective
        members += member

        d_random = UtilityFunction(rng.uniform(-1.0, 1.0, n))
        deg = degree(p_star, p, d_random, workers=workers)
        histogram[deg] = histogram.get(deg, 0) + 1

        classes = posterior_classes(p_star, p, workers=workers)
        if any(c.multiplicity > 1 for c in classes):
            collisions += 1

        if member:
            try:
                built = construct_inaccessible_decision(p_star, p, workers=workers)
            except (SeparationBelowTolerance, PStarHasZero):
                degenerate += 1
            else:
                constructed += 1
                try:
                    check_monotonicity(p_star, p, built.d, workers=workers)
                except TheoremViolation:
                    violations += 1
    return SweepSummary(
        n=n,
        samples=samples,
        seed=seed,
        alpha=dirichlet_alpha,
        blind_spot_frequency=members / samples,
        degree_histogram=histogram,
        multiplicity_collisions=collisions,
        theorem_violations=violations,
        constructed=constructed,
        construct_degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# subcommand handlers (return a report dict, or None if output was streamed)


def _require_csv_support(args, supported: bool) -> None:
    if args.format == "csv" and not supported:
        raise UsageError("--format: csv is only available for partitions and verify")


def _cmd_partitions(args) -> dict | None:
    n = args.n
    count = proper_nontrivial_count(n)  # raises TooSmall / OutOfRange
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["rgs", "block_count"])
        emitted = 0
        for pi in enumerate_proper_nontrivial(n):
            writer.writerow([str(pi), pi.block_count])
            emitted += 1
            if args.limit is not None and emitted >= args.limit:
                break
        return None
    report = {"command": "partitions", "n": n, "count": count}
    if not args.count:
        limit = args.limit if args.limit is not None else count
        listing = []
        for pi in enumerate_proper_nontrivial(n):
            if len(listing) >= limit:
                break
            listing.append(
                {"rgs": str(pi), "blocks": pi.format_blocks(), "block_count": pi.block_count}
            )
        report["partitions"] = listing
    return report


def _cmd_posterior(args) -> dict:
    _require_csv_support(args, False)
    p_star, p = _resolve_measures(args)
    pi = _parse_partition(args.partition, "--partition")
    q = jeffrey_posterior(p_star, p, pi)
    return {
        "command": "posterior",
        "partition": str(pi),
        "blocks": pi.format_blocks(),
        "q": list(q.weights),
    }


def _cmd_blindspot(args) -> dict:
    _require_csv_support(args, False)
    p_star, p = _resolve_measures(args)
    res = in_blind_spot(p_star, p)
    return {
        "command": "blindspot",
        "member": res.member,
        "witness": str(res.witness) if res.witness is not None else None,
        "ratio": list(res.ratio.values),
        "injective": res.ratio.injective,
    }


def _cmd_construct(args) -> dict:
    _require_csv_support(args, False)
    p_star, p = _resolve_measures(args)
    built = construct_inaccessible_decision(
        p_star,
        p,
        eps_fraction=args.eps_frac,
        mode="clamp" if args.clamp else "strict",
        workers=args.parallel,
        max_outcomes=_max_outcomes(args),
    )
    report = built.to_json_dict()
    report["command"] = "construct"
    return report


def _cmd_verify(args) -> dict | None:
    p_star, p = _resolve_measures(args)
    d = _resolve_d(args)
    if args.format == "csv":
        _guard_outcomes(p.n, _max_outcomes(args))
        writer = csv.writer(sys.stdout)
        writer.writerow(["rgs", "block_count", "expectation", "in_inaccessible_set"])
        for labels, scores in _scan.iter_scored_chunks(
            p.n, p_star.as_array(), p.as_array(), d.as_array()
        ):
            for row, score in zip(labels, scores):
                rgs = ",".join(str(int(x)) for x in row)
                writer.writerow(
                    [rgs, int(row.max()) + 1, repr(float(score)), score <= TOL_NUM]
                )
        return None
    report = verify_inaccessibility(
        p_star,
        p,
        d,
        workers=args.parallel,
        max_outcomes=_max_outcomes(args),
        keep_partitions=True if args.full else None,
    )
    out = report.to_json_dict()
    out["command"] = "verify"
    return out


def _cmd_degree(args) -> dict:
    _require_csv_support(args, False)
    p_star, p = _resolve_measures(args)
    d = _resolve_d(args)
    deg = degree(p_star, p, d, workers=args.parallel, max_outcomes=_max_outcomes(args))
    return {
        "command": "degree",
        "degree": deg,
        "partition_count": proper_nontrivial_count(p.n),
    }


def _cmd_spectrum(args) -> dict:
    _require_csv_support(args, False)
    p_star, p = _resolve_measures(args)
    spectrum = achievable_degrees(
        p_star,
        p,
        eta_fraction=args.eta_frac,
        seed=_resolve_seed(args),
        workers=args.parallel,
        max_outcomes=_max_outcomes(args),
    )
    report = spectrum.to_json_dict()
    report["command"] = "spectrum"
    return report


def _cmd_realize(args) -> dict:
    _require_csv_support(args, False)
    p_star, p = _resolve_measures(args)
    realized = realize_degree(
        p_star,
        p,
        args.k,
        eta_fraction=args.eta_frac,
        seed=_resolve_seed(args),
        workers=args.parallel,
        max_outcomes=_max_outcomes(args),
    )
    return {
        "command": "realize",
        "k": realized.k,
        "c": realized.c,
        "d": list(realized.d.values),
        "report": realized.report.to_json_dict(include_partitions=False),
    }


def _cmd_monotonicity(args) -> dict:
    _require_csv_support(args, False)
    p_star, p = _resolve_measures(args)
    d = _resolve_d(args)
    check = check_monotonicity(
        p_star, p, d, workers=args.parallel, max_outcomes=_max_outcomes(args)
    )
    report = check.to_json_dict()
    report["command"] = "monotonicity"
    return report


def _cmd_certificate(args) -> dict:
    _require_csv_support(args, False)
    p_star, p = _resolve_measures(args)
    cert = appendix_certificate(p_star, p)
    report = cert.to_json_dict()
    report["command"] = "certificate"
    return report


def _cmd_epsilon(args) -> dict:
    _require_csv_support(args, False)
    p_star, p = _resolve_measures(args)
    d = _resolve_d(args)
    check = epsilon_mixture_check(
        p_star, p, d, args.eps, workers=args.parallel, max_outcomes=_max_outcomes(args)
    )
    report = check.to_json_dict()
    report["command"] = "epsilon"
    return report


def _cmd_sweep(args) -> dict:
    _require_csv_support(args, False)
    summary = sweep(
        n=args.n,
        samples=args.samples,
        seed=_resolve_seed(args),
        dirichlet_alpha=args.alpha,
        workers=args.parallel,
    )
    report = summary.to_json_dict()
    report["command"] = "sweep"
    return report


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        report = _HANDLERS[args.command](args)
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
    if report is not None:
        report["determinism"] = "bitwise" if args.parallel <= 1 else "tolerance"
        if args.format == "table":
            print(_render_table(report))
        else:
            print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
