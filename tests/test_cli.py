import json
import math
import types

import pytest

from coefbound import cli, oracle
from coefbound.oracle import CLAIMS, VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseArgs:
    def test_defaults(self):
        cfg = cli.parse_args(["verify", "--claim", "thm3.1-a2"])
        assert cfg.budget == 100000
        assert cfg.seed == 42
        assert cfg.tol == 1e-9
        assert cfg.psi2_variant == "proof"
        assert cfg.fmt == "text"
        assert cfg.workers >= 1

    def test_lambda_range_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_args(["bound", "--class", "starlike", "--n", "3", "--lambda", "2.0"])

    def test_pi_over_two_admitted(self):
        cfg = cli.parse_args(
            ["bound", "--class", "starlike", "--n", "3", "--lambda", repr(math.pi / 2)]
        )
        assert cfg.lambdas == [math.pi / 2]

    def test_convex_p_range_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_args(
                ["bound", "--class", "convex", "--which", "d32", "--lambda", "1", "--p", "1.5"]
            )

    def test_comma_separated_lists(self):
        cfg = cli.parse_args(
            ["table", "--class", "starlike", "--lambda", "0.5,1.0", "--lambda", "1.4"]
        )
        assert cfg.lambdas == [0.5, 1.0, 1.4]

    def test_unknown_claim_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_args(["verify", "--claim", "thm7.7"])

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("COEFBOUND_WORKERS", "3")
        cfg = cli.parse_args(["verify", "--claim", "thm3.1-a2"])
        assert cfg.workers == 3
        cfg = cli.parse_args(["verify", "--claim", "thm3.1-a2", "--workers", "2"])
        assert cfg.workers == 2

    def test_budget_floor(self):
        with pytest.raises(cli.UsageError):
            cli.parse_args(["verify", "--claim", "thm3.1-a2", "--budget", "10"])

    def test_budget_domain(self):
        cfg = cli.parse_args(["report", "--budget", str(oracle.MAX_BUDGET)])
        assert cfg.budget == 10**9
        with pytest.raises(cli.UsageError, match=r"--budget must lie in \[1000, 1000000000\]"):
            cli.parse_args(["report", "--budget", str(oracle.MAX_BUDGET + 1)])

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(cli.UsageError, match="--tol must be finite and nonnegative"):
            cli.parse_args(["verify", "--claim", "thm3.1-a4", f"--tol={tol}"])
        assert cli.parse_args(["verify", "--claim", "thm3.1-a4", "--tol", "0"]).tol == 0.0

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(cli.UsageError, match="--seed must be nonnegative, got -1"):
            cli.parse_args(["verify", "--claim", "thm3.1-a2", "--seed", "-1"])
        assert cli.parse_args(["report", "--seed", "0"]).seed == 0

    def test_p_for_a_claim_without_p_grid_rejected(self):
        with pytest.raises(cli.UsageError, match="thm3.1-a2 has no p grid"):
            cli.parse_args(["verify", "--claim", "thm3.1-a2", "--lambda", "1", "--p", "0.5"])
        # one selected claim without a p grid is enough
        with pytest.raises(cli.UsageError, match="thm3.2-a4 has no p grid"):
            cli.parse_args(
                ["verify", "--claim", "thm3.3-d32", "--claim", "thm3.2-a4", "--p", "0.5"]
            )


class TestExitCodes:
    def test_empty_argv_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "roots", "--frobnicate")
        assert code == 2

    def test_out_of_range_lambda_exit_2_with_single_line(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--class", "starlike", "--n", "3", "--lambda", "2.0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_clean_bound_run_exit_0(self, capsys):
        code, _, _ = run_cli(capsys, "bound", "--class", "starlike", "--n", "2", "--lambda", "1")
        assert code == 0

    def test_violating_verify_exit_1(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "verify", "--claim", "thm3.1-a4", "--lambda", "0.21", "--budget", "2000",
        )
        assert code == 1

    def test_clean_verify_exit_0(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "verify", "--claim", "thm3.1-a2", "--lambda", "1.0", "--budget", "2000",
        )
        assert code == 0

    def test_ignored_p_exit_2_with_single_line(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--claim", "thm3.1-a2", "--lambda", "1", "--p", "0.5"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        code, out, err = run_cli(
            capsys, "bound", "--class", "starlike", "--n", "2", "--lambda", "1", "--p", "0,1"
        )
        assert (code, out) == (2, "") and "takes no --p" in err

    def test_unallocatable_budget_exit_2_with_single_line(self, capsys):
        # Memory no longer grows with the budget, so a budget once too large
        # to allocate is refused by the budget domain before any search.
        code, out, err = run_cli(
            capsys, "verify", "--claim", "thm3.1-a2", "--lambda", "1", "--budget", str(10**15)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --budget must lie in [1000, 1000000000]")
        assert err.count("\n") == 1


    def test_nan_tol_exit_2_with_single_line(self, capsys):
        # oracle_max > bound + nan is always false, so nan would report the known violation as ok
        code, out, err = run_cli(
            capsys,
            "verify", "--claim", "thm3.1-a4", "--lambda", "0.21", "--budget", "2000", "--tol", "nan",
        )
        assert (code, out) == (2, "")
        assert err == "error: --tol must be finite and nonnegative, got nan\n"

    def test_negative_seed_exit_2_with_single_line(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--claim", "thm3.1-a2", "--lambda", "1", "--budget", "2000", "--seed", "-1"
        )
        assert (code, out) == (2, "")
        assert err == "error: --seed must be nonnegative, got -1\n"


class TestBoundCommand:
    def test_quoted_example(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--class", "starlike", "--n", "3", "--lambda", "1")
        assert code == 0
        assert out.splitlines()[0] == "0.75 (branch: lambda>2/3)"

    def test_diff_bound_needs_p(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--class", "starlike", "--which", "d32", "--lambda", "1")
        assert code == 2 and "needs --p" in err
        with pytest.raises(cli.UsageError, match="needs --p"):
            cli.parse_args(["bound", "--class", "convex", "--which", "d43", "--lambda", "1"])

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--class", "convex", "--n", "4", "--lambda", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert doc[0]["value"] == pytest.approx(17 / 144)
        assert doc[0]["branch"] == "lambda>sqrt(32/43)"

    def test_csv_bytes(self, capsys):
        _, out, _ = run_cli(
            capsys, "bound", "--class", "starlike", "--n", "4", "--lambda", "1", "--format", "csv"
        )
        assert out == (
            "lambda,p,class,n,which,value,branch\n"
            "1.0,,starlike,4,,0.4722222222222222,lambda>sqrt(32/43)\n"
        )
        _, out, _ = run_cli(
            capsys,
            "bound", "--class", "starlike", "--which", "d43", "--lambda", "1", "--p", "1.5",
            "--format", "csv",
        )
        assert out == (
            ",".join(cli.BOUND_COLUMNS) + "\n"
            "1.0,1.5,starlike,,d43,0.3889973958333333,psi2:p<=14/(4+5*lambda)\n"
        )

    def test_statement_variant_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bound", "--class", "starlike", "--which", "d43", "--p", "2", "--lambda", "1",
            "--psi2-variant", "statement",
        )
        assert code == 0
        assert out.startswith("-1.38889")


class TestTableCommand:
    def test_csv_columns_and_locale(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--class", "starlike", "--lambda", "0.5,1.0", "--p", "0,1,2",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(cli.TABLE_COLUMNS)
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(cli.TABLE_COLUMNS)
            float(cells[0])  # decimal-point floats parse back
            float(cells[3])

    def test_default_p_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--class", "convex", "--lambda", "1", "--format", "csv"
        )
        rows = out.strip().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestVerifyCommand:
    def test_quoted_example_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--claim", "thm3.3-d32", "--lambda", "1", "--p", "0.8",
            "--budget", "100000", "--seed", "7", "--format", "json",
        )
        assert code == 0
        (doc,) = json.loads(out)
        assert doc["bound"] == 0.7
        assert doc["violation"] is False
        assert abs(doc["oracle_max"] - 0.7) < 1e-9

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--claim", "thm3.5-d43", "--lambda", "1", "--p", "0,1",
            "--budget", "2000", "--format", "json",
        )
        docs = json.loads(out)
        reports = [VerificationReport.from_dict(d) for d in docs]
        assert [r.to_dict() for r in reports] == docs

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--claim", "thm3.1-a2", "--lambda", "1", "--budget", "2000",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(cli.REPORT_COLUMNS)
        assert len(lines) == 2

    def test_csv_bytes(self, capsys, monkeypatch):
        # a frozen clock makes duration_ms 0, so every byte is reproducible
        monkeypatch.setattr(oracle, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        code, out, _ = run_cli(
            capsys,
            "verify", "--claim", "thm3.1-a4", "--lambda", "0.21,1", "--budget", "2000",
            "--format", "csv",
        )
        assert code == 1
        assert out == (
            ",".join(cli.REPORT_COLUMNS) + "\n"
            "thm3.1-a4,0.21,,0.05411496359365945,1/5<lambda<=r0,0.06999999999999999,"
            "0.0,0.0,0.0,1.0,0.0,-0.015885036406340543,true,2000,42,0,\n"
            "thm3.1-a4,1.0,,0.4722222222222222,lambda>sqrt(32/43),0.4722222222222222,"
            "2.0,0.0,0.0,0.0,0.0,0.0,false,2000,42,0,\n"
        )

    def test_default_grids_from_registry(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--claim", "thm3.1-a2", "--budget", "2000", "--format", "json",
        )
        docs = json.loads(out)
        assert [d["lambda"] for d in docs] == list(CLAIMS["thm3.1-a2"].default_lambdas)


class TestRootsCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "roots")
        assert code == 0
        assert out.startswith("r0 = 0.86024347")
        assert "residual" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--format", "json")
        doc = json.loads(out)
        assert abs(doc["r0"] - 0.8602) < 1e-4
        assert doc["residual"] < 1e-10


def _normalize_durations(doc):
    for claim in doc["claims"]:
        claim["duration_ms"] = 0
    return doc


class TestReportCommand:
    def test_full_report_names_exactly_the_two_defective_claims(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--budget", "5000", "--workers", "1")
        assert code == 1
        doc = json.loads(out)
        assert doc["violated_claim_ids"] == ["thm3.1-a4", "thm3.3-d43-psi2-statement"]
        assert doc["total_reports"] == len(doc["claims"])
        flagged = {c["claim_id"] for c in doc["claims"] if c["violation"]}
        assert flagged == {"thm3.1-a4", "thm3.3-d43-psi2-statement"}

    def test_worker_count_invariance(self, capsys):
        _, out1, _ = run_cli(capsys, "report", "--budget", "5000", "--workers", "1")
        _, out2, _ = run_cli(capsys, "report", "--budget", "5000", "--workers", "4")
        doc1 = _normalize_durations(json.loads(out1))
        doc2 = _normalize_durations(json.loads(out2))
        assert json.dumps(doc1) == json.dumps(doc2)
