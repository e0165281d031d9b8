import csv
import io
import json
from pathlib import Path

import jsonschema
import pytest

from inacc.cli import run_command, sweep
from inacc import OutOfRange

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.schema.json").read_text()
)
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

    def test_sweep_out_of_range(self, capsys):
        code = run_command(["sweep", "--n", "11", "--samples", "1"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "OutOfRange"

    def test_csv_unsupported(self, capsys):
        code = run_command(
            ["blindspot", "--pstar", PSTAR, "--p", P, "--format", "csv"]
        )
        assert code == 2


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

    def test_partitions_csv(self, capsys):
        code = run_command(["partitions", "--n", "4", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["rgs", "block_count"]
        assert len(rows) == 14

    def test_table(self, capsys):
        code = run_command(
            ["degree", "--pstar", PSTAR, "--p", P, "--d", "1,1,1", "--format", "table"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degree: 0" in out


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

    def test_missing_file(self, capsys):
        assert run_command(["degree", "--context", "/nonexistent.json"]) == 2


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
        with pytest.raises(OutOfRange):
            sweep(n=3, samples=1, dirichlet_alpha=0.0)
