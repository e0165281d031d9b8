import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from inacc import cli
from inacc.cli import run_command, sweep
from inacc import OutOfRange, ProbabilityVector

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schemas" / "report.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

PSTAR = "0.5,0.3,0.2"
P = "uniform:3"


def run_json(capsys, argv, expect_code=0):
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == expect_code, out
    report = json.loads(out)
    VALIDATOR.validate(report)
    return report


class TestSubcommands:
    def test_parser_handlers_and_schema_name_the_same_subcommands(self):
        (action,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        branches = [SCHEMA["$defs"][ref["$ref"].split("/")[-1]] for ref in SCHEMA["oneOf"]]
        schema = [b["properties"]["command"].get("const") for b in branches]
        assert schema.count(None) == 1  # the error branch, for every subcommand
        names = sorted(action.choices)
        assert len(names) == 12
        assert names == sorted(cli._HANDLERS) == sorted(c for c in schema if c)

    def test_partitions_count(self, capsys):
        report = run_json(capsys, ["partitions", "--n", "4", "--count"])
        assert report["count"] == 13

    def test_partitions_listing(self, capsys):
        report = run_json(capsys, ["partitions", "--n", "3"])
        assert [p["rgs"] for p in report["partitions"]] == ["0,0,1", "0,1,0", "0,1,1"]
        assert report["partitions"][0]["blocks"] == "{1,2}|{3}"

    def test_posterior(self, capsys):
        report = run_json(
            capsys,
            ["posterior", "--pstar", PSTAR, "--p", P, "--partition", "{1,2}|{3}"],
        )
        assert report["q"] == pytest.approx([0.4, 0.4, 0.2])

    def test_blindspot_member(self, capsys):
        report = run_json(
            capsys,
            ["blindspot", "--pstar", PSTAR, "--p", "0.333333,0.333333,0.333334"],
        )
        assert report["member"] is True
        assert report["witness"] is None

    def test_blindspot_witness(self, capsys):
        report = run_json(capsys, ["blindspot", "--pstar", "0.4,0.4,0.2", "--p", P])
        assert report["member"] is False
        assert report["witness"] == "0,0,1"

    def test_construct_fixture(self, capsys):
        report = run_json(
            capsys, ["construct", "--pstar", PSTAR, "--p", P, "--eps-frac", "0.5"]
        )
        assert report["M"] == pytest.approx(0.048686, abs=1e-5)
        assert report["report"]["degree"] == 3
        assert report["report"]["strong"] is True

    def test_verify(self, capsys):
        report = run_json(
            capsys, ["verify", "--pstar", PSTAR, "--p", P, "--d", "1,-1,0"]
        )
        assert report["partition_count"] == 3
        assert len(report["per_partition"]) == 3

    def test_degree(self, capsys):
        report = run_json(capsys, ["degree", "--pstar", PSTAR, "--p", P, "--d", "1,1,1"])
        assert report["degree"] == 0

    def test_spectrum(self, capsys):
        report = run_json(capsys, ["spectrum", "--pstar", PSTAR, "--p", P])
        assert report["achievable"] == [0, 1, 2, 3]
        assert report["seed"] == 0

    def test_realize(self, capsys):
        report = run_json(capsys, ["realize", "--pstar", PSTAR, "--p", P, "--k", "2"])
        assert report["report"]["degree"] == 2

    def test_monotonicity(self, capsys):
        report = run_json(
            capsys,
            ["monotonicity", "--pstar", PSTAR, "--p", P, "--d", "-1,-1,-1"],
        )
        assert report["hypotheses_hold"] is False
        assert report["conclusion_holds"] is True

    def test_certificate(self, capsys):
        report = run_json(capsys, ["certificate", "--pstar", PSTAR, "--p", P])
        assert report["t_sum"] == pytest.approx(13 / 3, abs=1e-9)

    def test_epsilon(self, capsys):
        report = run_json(
            capsys,
            ["epsilon", "--pstar", PSTAR, "--p", P, "--d", "1,-1,0", "--eps", "0.5"],
        )
        assert report["identities_hold"] is True

    def test_sweep(self, capsys):
        report = run_json(
            capsys, ["sweep", "--n", "3", "--samples", "5", "--seed", "42"]
        )
        assert report["samples"] == 5
        assert report["theorem_violations"] == 0
        assert sum(report["degree_histogram"].values()) == 5

    def test_parallel_flag_tags_reports(self, capsys):
        report = run_json(
            capsys, ["degree", "--pstar", PSTAR, "--p", P, "--d", "1,1,1", "--parallel", "2"]
        )
        assert report["determinism"] == "tolerance"


    @pytest.mark.parametrize(
        "argv",
        [
            ["partitions", "--n", "3", "--count"],
            ["posterior", "--pstar", PSTAR, "--p", P, "--partition", "0,0,1"],
            ["blindspot", "--pstar", PSTAR, "--p", P],
            ["certificate", "--pstar", PSTAR, "--p", P],
            ["sweep", "--n", "3", "--samples", "2"],
        ],
    )
    def test_commands_without_scans_are_bitwise(self, capsys, argv):
        assert run_json(capsys, argv)["determinism"] == "bitwise"


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert run_command(["partitions", "--bogus"]) == 2

    def test_usage_error_bad_vector(self, capsys):
        code = run_command(["blindspot", "--pstar", "abc", "--p", P])
        assert code == 2
        assert "--pstar" in capsys.readouterr().err

    def test_usage_error_missing_d(self, capsys):
        code = run_command(["verify", "--pstar", PSTAR, "--p", P])
        assert code == 2
        assert "--d" in capsys.readouterr().err

    def test_domain_error_reports_json(self, capsys):
        code = run_command(["blindspot", "--pstar", "0.5,0.4,0.2", "--p", P])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        VALIDATOR.validate(report)
        assert report["error"]["type"] == "NotAProbability"

    def test_domain_error_zero_prior(self, capsys):
        code = run_command(["blindspot", "--pstar", PSTAR, "--p", "0.5,0.5,0"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "PriorHasZero"

    def test_domain_error_too_large(self, capsys):
        vec = ",".join(["0.0714285714285714"] * 14)
        code = run_command(["degree", "--pstar", vec, "--p", vec, "--d", "1" + ",0" * 13])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "RefusedTooLarge"

    def test_max_n_needs_acknowledgment(self, capsys):
        code = run_command(
            ["degree", "--pstar", PSTAR, "--p", P, "--d", "1,1,1", "--max-n", "14"]
        )
        assert code == 2
        assert "--ack-large" in capsys.readouterr().err

    def test_max_n_has_a_ceiling(self, capsys):
        vec = ",".join(["0.0588235294117647"] * 17)
        report = run_json(
            capsys,
            ["verify", "--pstar", vec, "--p", vec, "--d", "1" + ",0" * 16,
             "--max-n", "17", "--ack-large"],
            expect_code=1,
        )
        assert report["error"]["type"] == "RefusedTooLarge"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_parallel_below_one_is_a_usage_error(self, capsys, workers):
        # such a count used to run serially and report "bitwise"; --limit and --seed
        # refuse out-of-range counts the same way
        argv = ["degree", "--pstar", PSTAR, "--p", P, "--d=1,-1,0", "--parallel", workers]
        assert run_command(argv) == 2
        assert f"--parallel: need a worker count >= 1, got {workers}" in capsys.readouterr().err

    def test_csv_verify_refuses_parallel_below_one(self, capsys):
        # the csv branch streams rows serially, and once read the guard but not the count
        argv = ["verify", "--pstar", PSTAR, "--p", P, "--d=1,-1,0", "--format", "csv"]
        assert run_command([*argv, "--parallel", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--parallel: need a worker count >= 1, got 0" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "3", "--samples", "2", "--parallel", "2"],
            ["partitions", "--n", "3", "--count", "--parallel", "2"],
            ["certificate", "--pstar", PSTAR, "--p", P, "--max-n", "14"],
            ["blindspot", "--pstar", PSTAR, "--p", P, "--ack-large"],
        ],
    )
    def test_scan_flags_only_on_scanning_commands(self, capsys, argv):
        # these start no scan, so a worker count or a guard would be ignored
        assert run_command(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "p, d, error",
        [("0.5,0.5,0", "1,-1,0", "PriorHasZero"), (P, "1,-1", "DimensionMismatch")],
    )
    def test_csv_checks_inputs_first(self, capsys, p, d, error):
        report = run_json(
            capsys,
            ["verify", "--pstar", PSTAR, "--p", p, "--d", d, "--format", "csv"],
            expect_code=1,
        )
        assert report["error"]["type"] == error

    def test_long_json_listings_are_refused(self, capsys):
        # Bell(11) - 2 = 678,568 rows; the JSON limit is Bell(10) - 2 = 115,973
        vec = ",".join(["0.09090909090909091"] * 11)
        for argv in (
            ["partitions", "--n", "11"],
            ["partitions", "--n", "11", "--limit", "200000"],
            ["verify", "--pstar", vec, "--p", vec, "--d", "1" + ",0" * 10, "--full"],
        ):
            report = run_json(capsys, argv, expect_code=1)
            assert report["error"]["type"] == "RefusedTooLarge"
            assert "--format csv" in report["error"]["message"]

    def test_each_refused_listing_names_its_own_flags(self, capsys):
        # verify has no --limit or --count
        argv = ["verify", "--pstar", "uniform:11", "--p", "uniform:11", "--d", ",".join(["1"] * 11)]
        message = run_json(capsys, [*argv, "--full"], expect_code=1)["error"]["message"]
        assert message.endswith("; use --format csv, or drop --full")
        message = run_json(capsys, ["partitions", "--n", "11"], expect_code=1)["error"]["message"]
        assert message.endswith("; use --format csv, --limit or --count")

    def test_limited_listing_above_the_cap(self, capsys):
        report = run_json(capsys, ["partitions", "--n", "11", "--limit", "5"])
        assert report["count"] == 678_568
        assert [p["rgs"] for p in report["partitions"]][:2] == [
            "0,0,0,0,0,0,0,0,0,0,1",
            "0,0,0,0,0,0,0,0,0,1,0",
        ]
        assert len(report["partitions"]) == 5

    def test_sweep_out_of_range(self, capsys):
        code = run_command(["sweep", "--n", "11", "--samples", "1"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "OutOfRange"

    @pytest.mark.parametrize(
        "argv",
        [
            ["posterior", "--pstar", PSTAR, "--p", P, "--partition", "0,0,1"],
            ["blindspot", "--pstar", PSTAR, "--p", P],
            ["construct", "--pstar", PSTAR, "--p", P],
            ["degree", "--pstar", PSTAR, "--p", P, "--d", "1,-1,0"],
            ["spectrum", "--pstar", PSTAR, "--p", P],
            ["realize", "--pstar", PSTAR, "--p", P, "--k", "1"],
            ["monotonicity", "--pstar", PSTAR, "--p", P, "--d", "1,-1,0"],
            ["certificate", "--pstar", PSTAR, "--p", P],
            ["epsilon", "--pstar", PSTAR, "--p", P, "--d", "1,-1,0", "--eps", "0.5"],
            ["sweep", "--n", "3", "--samples", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_unsupported(self, capsys, argv):
        assert run_command([*argv, "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "csv is only available for partitions and verify" in captured.err

    def test_negative_limit(self, capsys):
        for fmt in ("json", "csv"):
            code = run_command(["partitions", "--n", "4", "--limit", "-1", "--format", fmt])
            assert code == 2
            assert "--limit" in capsys.readouterr().err

    def test_negative_seed(self, capsys, monkeypatch):
        assert run_command(["sweep", "--n", "3", "--samples", "1", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        monkeypatch.setenv("INACC_SEED", "-3")
        assert run_command(["spectrum", "--pstar", PSTAR, "--p", P]) == 2
        assert "INACC_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--d", "1,-1,0.5"],
            ["posterior", "--partition", "0,1,1"],
            ["construct"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_subnormal_credence_is_refused(self, capsys, argv):
        # p(B) = 1e-320 overflowed the block ratio p*(B)/p(B): verify printed a NaN
        # max and min and an Infinity row where the scores are 0.05 and 0.375
        argv = [*argv, "--pstar", PSTAR, "--p", "1e-320,0.5,0.5"]
        report = run_json(capsys, argv, expect_code=1)
        assert report["error"]["type"] == "PriorHasZero"
        assert "subnormal" in report["error"]["message"]

    def test_smallest_normal_credence_scores_finite(self, capsys):
        argv = ["verify", "--pstar", PSTAR, "--p", "3e-308,0.5,0.5", "--d", "1,-1,0.5"]
        report = run_json(capsys, argv)
        scores = sorted(row["expectation"] for row in report["per_partition"])
        assert scores == pytest.approx([-0.7, 0.05, 0.375], abs=1e-12)
        assert report["max_score"] == pytest.approx(0.375, abs=1e-12)

    def test_utility_past_the_overflow_bound_is_refused(self, capsys):
        # with six entries of DBL_MAX the block sums round past it, to a
        # "max_score" of Infinity where every score is that constant
        pair = ["--pstar", "0.0004,0.5482,0.2131,0.0047,0.0053,0.2283",
                "--p", "0.0002,0.4238,0.0476,0.3862,0.0506,0.0916"]
        top = sys.float_info.max
        report = run_json(capsys, ["verify", *pair, "--d", ",".join([repr(top)] * 6)], 1)
        assert report["error"]["type"] == "OutOfRange"
        assert "the float maximum / 16" in report["error"]["message"]
        bound = repr(top / 16)
        report = run_json(capsys, ["verify", *pair, "--d", ",".join([bound, "-" + bound] * 3), "--full"])
        scores = [row["expectation"] for row in report["per_partition"]]
        assert all(math.isfinite(x) for x in [*scores, report["max_score"], report["min_score"]])

    @pytest.mark.parametrize("n", ["1000001", "99999999999"])
    def test_uniform_past_its_bound_is_refused_unbuilt(self, capsys, tmp_path, monkeypatch, n):
        def build(count):
            raise AssertionError(f"uniform:{count} was built")

        monkeypatch.setattr(ProbabilityVector, "uniform", build)
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps({"p_star": [0.5, 0.3, 0.2], "p": f"uniform:{n}"}))
        for argv in (["--pstar", PSTAR, "--p", f"uniform:{n}"], ["--context", str(path)]):
            assert run_command(["blindspot", *argv]) == 2
            assert "uniform:N takes N <= 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_sweep_alpha_not_finite(self, capsys, alpha):
        report = run_json(
            capsys, ["sweep", "--n", "3", "--samples", "1", "--alpha", alpha], expect_code=1
        )
        assert report["error"]["type"] == "OutOfRange"

    def test_negative_vector_starting_with_a_dot(self, capsys):
        argv = ["degree", "--pstar", PSTAR, "--p", P]
        spaced = run_json(capsys, [*argv, "--d", "-.5,1,0"])
        assert spaced == run_json(capsys, [*argv, "--d=-.5,1,0"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["partitions", "--n", "10", "--format", "csv"],
            ["verify", "--pstar", "uniform:10", "--p", "uniform:10", "--d", "1" + ",0" * 9,
             "--format", "csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_pipe_exits_quietly(self, argv):
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "inacc.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.readline().startswith(b"rgs,block_count")
            proc.stdout.readline()
            proc.stdout.close()  # as "| head -2" does
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()


PARTITIONS_N4_TABLE = """\
command: partitions
count: 13
n: 4
partitions:
  rgs | blocks | block_count
  0,0,0,1 | {1,2,3}|{4} | 2
  0,0,1,0 | {1,2,4}|{3} | 2
  0,0,1,1 | {1,2}|{3,4} | 2
  0,0,1,2 | {1,2}|{3}|{4} | 3
  0,1,0,0 | {1,3,4}|{2} | 2
  0,1,0,1 | {1,3}|{2,4} | 2
  0,1,0,2 | {1,3}|{2}|{4} | 3
  0,1,1,0 | {1,4}|{2,3} | 2
  0,1,1,1 | {1}|{2,3,4} | 2
  0,1,1,2 | {1}|{2,3}|{4} | 3
  0,1,2,0 | {1,4}|{2}|{3} | 3
  0,1,2,1 | {1}|{2,4}|{3} | 3
  0,1,2,2 | {1}|{2}|{3,4} | 3
determinism: bitwise
"""


class TestFormats:
    def test_verify_csv(self, capsys):
        code = run_command(
            ["verify", "--pstar", PSTAR, "--p", P, "--d", "1,-1,0", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["rgs", "block_count", "expectation", "in_inaccessible_set"]
        assert len(rows) == 4
        assert rows[1][0] == "0,0,1"

    def test_json_and_csv_rows_agree(self, capsys):
        argv = ["verify", "--pstar", "0.3,0.25,0.2,0.15,0.1", "--p", "0.1,0.15,0.2,0.25,0.3",
                "--d", "0.4,-0.2,0.1,-0.3,0.05"]
        rows = run_json(capsys, [*argv, "--full"])["per_partition"]
        assert run_command([*argv, "--format", "csv"]) == 0
        table = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        header = table[0]
        assert header == ["rgs", "block_count", "expectation", "in_inaccessible_set"]
        assert len(rows) == 50
        assert table[1:] == [[str(row[key]) for key in header] for row in rows]

    def test_partitions_csv(self, capsys):
        code = run_command(["partitions", "--n", "4", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["rgs", "block_count"]
        assert len(rows) == 14

    @pytest.mark.parametrize("limit", [0, 5, 20])
    def test_partitions_limit_agrees_across_formats(self, capsys, limit):
        argv = ["partitions", "--n", "4", "--limit", str(limit)]
        listing = run_json(capsys, argv)["partitions"]
        assert run_command([*argv, "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(listing) == min(limit, 13)
        assert [row[0] for row in rows[1:]] == [p["rgs"] for p in listing]

    def test_table(self, capsys):
        code = run_command(
            ["degree", "--pstar", PSTAR, "--p", P, "--d", "1,1,1", "--format", "table"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "command: degree"
        assert "degree: 0" in out

    def test_table_lists_rows_under_one_header(self, capsys):
        assert run_command(["partitions", "--n", "4", "--format", "table"]) == 0
        assert capsys.readouterr().out == PARTITIONS_N4_TABLE


class TestContextFile:
    def test_context_supplies_everything(self, capsys, tmp_path):
        ctx = tmp_path / "ctx.json"
        ctx.write_text(
            json.dumps(
                {"n": 3, "p_star": [0.5, 0.3, 0.2], "p": [1 / 3, 1 / 3, 1 / 3],
                 "f1": [1, 0, 0], "f2": [0, 1, 0]}
            )
        )
        report = run_json(capsys, ["verify", "--context", str(ctx)])
        assert report["e_pstar"] == pytest.approx(0.2)

    def test_context_with_d(self, capsys, tmp_path):
        ctx = tmp_path / "ctx.json"
        ctx.write_text(json.dumps({"p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "d": [1, -1, 0]}))
        report = run_json(capsys, ["degree", "--context", str(ctx)])
        assert report["degree"] >= 0

    def test_flags_override_context(self, capsys, tmp_path):
        ctx = tmp_path / "ctx.json"
        ctx.write_text(json.dumps({"p_star": [0.9, 0.05, 0.05], "p": [1 / 3] * 3, "d": [1, 1, 1]}))
        report = run_json(
            capsys, ["degree", "--context", str(ctx), "--d", "-1,-1,-1"]
        )
        assert report["degree"] == 3

    @pytest.mark.parametrize(
        "ctx",
        [
            {"p_star": 5, "p": [1 / 3] * 3, "d": [1, -1, 0]},
            {"p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "d": "abc"},
            {"n": 4, "p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "d": [1, -1, 0]},
            {"n": "3", "p_star": [0.5, 0.3, 0.2], "p": [1 / 3] * 3, "d": [1, -1, 0]},
        ],
    )
    def test_malformed_values_are_usage_errors(self, capsys, tmp_path, ctx):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps(ctx))
        assert run_command(["verify", "--context", str(path)]) == 2
        assert "--context" in capsys.readouterr().err

    def test_text_forms(self, capsys, tmp_path):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps({"p_star": PSTAR, "p": P, "d": "1,-1,0"}))
        from_text = run_json(capsys, ["verify", "--context", str(path)])
        from_flags = run_json(capsys, ["verify", "--pstar", PSTAR, "--p", P, "--d", "1,-1,0"])
        assert from_text == from_flags
        path.write_text(json.dumps({"p_star": PSTAR, "p": "uniform:x", "d": "1,-1,0"}))
        assert run_command(["verify", "--context", str(path)]) == 2
        assert "--context: cannot parse 'p'" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_command(["degree", "--context", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "argv", [["partitions", "--n", "3", "--count"], ["sweep", "--n", "3", "--samples", "1"]]
    )
    def test_commands_without_measures_refuse_it(self, capsys, argv):
        # they read no vectors, so a context file would be silently ignored
        assert run_command([*argv, "--context", "/nonexistent.json"]) == 2
        assert "--context" in capsys.readouterr().err


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        args = ["sweep", "--n", "3", "--samples", "20", "--seed", "7"]
        assert run_command(args) == 0
        first = capsys.readouterr().out
        assert run_command(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_different_seed_differs(self, capsys):
        run_command(["sweep", "--n", "3", "--samples", "20", "--seed", "1"])
        first = capsys.readouterr().out
        run_command(["sweep", "--n", "3", "--samples", "20", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("INACC_SEED", "99")
        report = run_json(capsys, ["sweep", "--n", "3", "--samples", "2"])
        assert report["seed"] == 99

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("INACC_SEED", "99")
        report = run_json(capsys, ["sweep", "--n", "3", "--samples", "2", "--seed", "5"])
        assert report["seed"] == 5


class TestSweepFunction:
    def test_blind_spot_frequency_near_one(self):
        summary = sweep(n=3, samples=200, seed=0)
        assert summary.blind_spot_frequency >= 0.95
        assert summary.theorem_violations == 0
        assert sum(summary.degree_histogram.values()) == 200

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            sweep(n=2, samples=1)
        with pytest.raises(OutOfRange):
            sweep(n=3, samples=0)
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(OutOfRange):
                sweep(n=3, samples=1, dirichlet_alpha=alpha)
        for seed in (-1, 1.5):
            with pytest.raises(OutOfRange):
                sweep(n=3, samples=1, seed=seed)
