import hashlib
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from coefbound import bounds, cli, oracle
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

    def test_workers_flag_checked_then_dropped(self):
        # the search is single-threaded; --workers is only range-checked
        cfg = cli.parse_args(["verify", "--claim", "thm3.1-a2", "--workers", "2"])
        assert vars(cfg) == vars(cli.parse_args(["verify", "--claim", "thm3.1-a2"]))
        assert "workers" not in vars(cfg)
        with pytest.raises(cli.UsageError, match="--workers must be positive, got 0"):
            cli.parse_args(["report", "--workers", "0"])

    def test_flag_without_numbers_rejected_by_name(self):
        with pytest.raises(cli.UsageError, match="--lambda was given no numbers"):
            cli.parse_args(["verify", "--claim", "thm3.1-a2", "--lambda", ","])
        with pytest.raises(cli.UsageError, match="--p was given no numbers"):
            cli.parse_args(["table", "--class", "starlike", "--lambda", "1", "--p", ","])

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

    def test_a_parse_keeps_nothing_of_the_one_before(self):
        # the parser is built once, so its append actions and defaults must
        # not carry one parse's values into the next
        assert cli._build_parser() is cli._build_parser()
        first = cli.parse_args(
            ["verify", "--claim", "thm3.3-d32", "--claim", "thm3.3-d43", "--lambda", "0.5,1.0",
             "--lambda", "1.4", "--p", "0.5", "--p", "1.5", "--seed", "7", "--psi2-variant", "statement"]
        )
        assert first.claims == ["thm3.3-d32", "thm3.3-d43"]
        assert (first.lambdas, first.ps) == ([0.5, 1.0, 1.4], [0.5, 1.5])
        second = cli.parse_args(["verify", "--claim", "thm3.5-d32", "--lambda", "0.3", "--p", "0.25"])
        fresh = {
            "command": "verify", "handler": cli._cmd_verify, "claims": ["thm3.5-d32"],
            "lambdas": [0.3], "ps": [0.25], "n": None, "which": None, "fmt": "text",
            "budget": oracle.DEFAULT_BUDGET, "seed": oracle.DEFAULT_SEED,
            "tol": oracle.DEFAULT_TOL, "psi2_variant": "proof",
        }
        assert vars(second) == fresh
        assert vars(cli.parse_args(["verify", "--claim", "thm3.1-a2"])) == {
            **fresh, "claims": ["thm3.1-a2"], "lambdas": None, "ps": None
        }

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "the following arguments are required: command"),
            (("verify", "--lambda", "1"), "the following arguments are required: --claim"),
            (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
            (("roots", "--frobnicate"), "unrecognized arguments: --frobnicate"),
            (("bound", "--class", "starlike", "--lambda", "1"), "one of the arguments --n --which is required"),
        ],
    )
    def test_an_argparse_error_is_one_error_line(self, capsys, argv, message):
        # no usage block: stderr holds the one "error:" line alone
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage: coefbound") and err == ""

    def test_out_of_range_lambda_exit_2_with_single_line(self, capsys):
        for argv in (
            ("bound", "--class", "starlike", "--n", "3", "--lambda", "2.0"),
            ("bound", "--class", "starlike", "--n", "3", "--lambda", "1e-61"),
            ("verify", "--claim", "thm3.3-d43", "--lambda", "1e-100"),
        ):
            code, out, err = run_cli(capsys, *argv)
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

    @pytest.mark.parametrize(
        "cls, which, p",
        [
            ("starlike", "d43", 2.0 + 5e-13),
            ("convex", "d32", -5e-13),
            ("starlike", "d32", -5e-13),
            ("convex", "d43", 1.0 + 5e-13),
            ("starlike", "d43", math.nan),
        ],
    )
    def test_an_out_of_domain_p_is_refused_by_every_layer(self, capsys, cls, which, p):
        # bounds.check_p is the one p domain, strict [0, P_MAX] with NaN
        # refused: the bounds once took p up to 1e-12 past either end
        with pytest.raises(ValueError, match=r"p must lie in \[0, "):
            bounds.bound(cls, 1.0, which=which, p=p)
        kind = "abs_a4_minus_a3" if which == "d43" else "abs_a3_minus_a2"
        with pytest.raises(ValueError, match=r"p must lie in \[0, "):
            oracle.Functional(kind, cls, fixed_p=p)
        claim = next(c for c in CLAIMS.values() if (c.cls, c.which, c.pinned_variant) == (cls, which, None))
        for argv in (
            ("bound", "--class", cls, "--which", which, "--lambda", "1"),
            ("verify", "--claim", claim.claim_id, "--lambda", "1", "--budget", "1000"),
        ):
            # "--p -5e-13" too: argparse's own pattern read a number with an exponent as a flag
            for given in ([f"--p={p!r}"], ["--p", repr(p)]):
                code, out, err = run_cli(capsys, *argv, *given)
                assert (code, out) == (2, "")
                assert err.startswith("error: p must lie in [0, ") and err.count("\n") == 1
        code, out, err = run_cli(capsys, "bound", "--class", cls, "--which", which, "--lambda", "-1e-3", "--p", "0")
        assert (code, out, err) == (2, "", "error: lambda must lie in [1e-60, pi/2], got -0.001\n")
        # the ends themselves are in the domain
        for end in (0.0, bounds.P_MAX[cls]):
            bounds.bound(cls, 1.0, which=which, p=end)
            oracle.Functional(kind, cls, fixed_p=end)

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    def test_a_negative_infinity_or_nan_reaches_the_domain_check(self, capsys, value):
        # argparse's own pattern read "-inf" and "-nan" as flags, so the value
        # failed with "expected one argument" instead of its domain message
        shown = repr(float(value))
        base = ("bound", "--class", "convex", "--which", "d32")
        code, out, err = run_cli(capsys, *base, "--lambda", "1", "--p", value)
        assert (code, out, err) == (2, "", f"error: p must lie in [0, 1.0] for the convex class, got {shown}\n")
        code, out, err = run_cli(capsys, *base, "--lambda", value, "--p", "0")
        assert (code, out, err) == (2, "", f"error: lambda must lie in [1e-60, pi/2], got {shown}\n")

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--claim", "thm3.1-a2", "--lambda", ",", "--budget", "1000"], "--lambda"),
            (["table", "--class", "starlike", "--lambda", "1", "--p", ","], "--p"),
        ],
    )
    def test_flag_without_numbers_exit_2_with_single_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message} was given no numbers\n"

    def test_a_value_error_inside_a_command_exits_2(self, capsys, monkeypatch):
        def refuse(*_, **__):
            raise ValueError("no such point")

        monkeypatch.setattr(bounds, "bound", refuse)
        code, out, err = run_cli(capsys, "bound", "--class", "convex", "--n", "2", "--lambda", "1")
        assert (code, out, err) == (2, "", "error: no such point\n")

    @pytest.mark.parametrize(
        "target, exc, argv",
        [
            ((oracle, "run_claim_suite"), RuntimeError("boom"), ("report", "--budget", "1000")),
            ((bounds, "bound"), KeyError("oops"), ("bound", "--class", "convex", "--n", "2", "--lambda", "1")),
        ],
        ids=["report-RuntimeError", "bound-KeyError"],
    )
    def test_any_other_exception_inside_a_command_exits_3_with_its_traceback(
        self, capsys, monkeypatch, target, exc, argv
    ):
        # 1 only ever means a violation, and 2 a usage error
        def fail(*_, **__):
            raise exc

        monkeypatch.setattr(*target, fail)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("Traceback (most recent call last):")
        assert err.splitlines()[-1] == f"{type(exc).__name__}: {exc}"

    def test_zero_workers_exit_2_with_single_line(self, capsys):
        code, out, err = run_cli(capsys, "report", "--budget", "1000", "--workers", "0")
        assert (code, out) == (2, "")
        assert err == "error: --workers must be positive, got 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--budget", "1000", "--format", "text"],
            ["report", "--budget", "1000", "--format", "csv"],
            ["roots", "--psi2-variant", "proof"],
            ["bound", "--class", "starlike", "--n", "4", "--lambda", "1", "--psi2-variant", "proof"],
            ["bound", "--class", "convex", "--n", "3", "--lambda", "1", "--psi2-variant", "statement"],
            ["bound", "--class", "starlike", "--which", "d32", "--p", "1", "--lambda", "1",
             "--psi2-variant", "statement"],
            ["bound", "--class", "convex", "--which", "d43", "--p", "1", "--lambda", "1",
             "--psi2-variant", "proof"],
            ["table", "--class", "convex", "--lambda", "1", "--psi2-variant", "statement"],
            ["verify", "--claim", "thm3.1-a4", "--lambda", "1", "--budget", "1000",
             "--psi2-variant", "proof"],
            ["verify", "--claim", "thm3.3-d43-psi2-statement", "--lambda", "1", "--budget", "1000",
             "--psi2-variant", "statement"],
        ],
    )
    def test_flags_a_command_would_ignore_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        if "--psi2-variant" in argv and argv[0] != "roots":
            assert err.startswith("error: --psi2-variant") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--class", "starlike", "--which", "d43", "--p", "2", "--lambda", "1"],
            ["table", "--class", "starlike", "--lambda", "1", "--format", "csv"],
            ["verify", "--claim", "thm3.1-a2", "--claim", "thm3.3-d43", "--lambda", "1",
             "--budget", "1000", "--format", "json"],
        ],
    )
    def test_psi2_variant_proof_given_or_not_is_byte_identical(self, capsys, argv, monkeypatch):
        monkeypatch.setattr(oracle, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        default = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--psi2-variant", "proof") == default
        assert default[0] == 0


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

    def test_signed_zero_p_reads_as_zero(self, capsys):
        argv = ("bound", "--class", "starlike", "--which", "d43", "--lambda", "1", "--p", "-0.0")
        _, text, _ = run_cli(capsys, *argv)
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert text == run_cli(capsys, *argv[:-1], "0")[1]
        assert repr(json.loads(out)[0]["p"]) == "0.0"


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

    def test_signed_zero_p_reads_as_zero(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--class", "starlike", "--lambda", "1", "--p", "-0.0")
        assert out.startswith("lambda=1 p=0: ")
        _, out, _ = run_cli(
            capsys, "table", "--class", "starlike", "--lambda", "1", "--p", "-0.0", "--format", "csv"
        )
        assert out.splitlines()[1].startswith("1.0,0.0,")


class TestVerifyCommand:
    def test_signed_zero_p_reads_as_zero(self, capsys):
        argv = ("verify", "--claim", "thm3.3-d43", "--lambda", "1", "--p", "-0.0", "--budget", "1000")
        _, text, _ = run_cli(capsys, *argv)
        assert text.startswith("thm3.3-d43 lambda=1 p=0: ")
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        (doc,) = json.loads(out)
        assert repr((doc["p"], doc["witness"]["p1"])) == "(0.0, 0.0)"

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
        # every record of the suite, p = None and variant = "statement" among them
        suite = oracle.run_claim_suite(budget=1000)
        assert len(suite) == 106
        assert {r.p is None for r in suite} == {True, False}
        assert "statement" in {r.variant for r in suite}
        for r in suite:
            assert VerificationReport.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_columns_follow_the_record_keys(self, capsys):
        # one rule writes a record's keys: its fields in declaration order,
        # lam as "lambda", cls as "class" and the witness nested
        (record,) = oracle.verify_claim("thm3.1-a2", [1.0], None, budget=1000)
        keys = []
        for key, value in record.to_dict().items():
            keys += [f"witness_{k}" for k in value] if key == "witness" else [key]
        assert cli.REPORT_COLUMNS == keys
        for argv in (("--n", "4"), ("--which", "d43", "--p", "1")):
            _, out, _ = run_cli(capsys, "bound", "--class", "starlike", "--lambda", "1", *argv, "--format", "json")
            (row,) = json.loads(out)
            assert set(cli.BOUND_COLUMNS) <= set(row)

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
        # samples: the 15 canonical points and 24 per p1 level, 15 + 24 ((2000 - 15) // 24) = 1983
        assert out == (
            ",".join(cli.REPORT_COLUMNS) + "\n"
            "thm3.1-a4,0.21,,0.05411496359365945,1/5<lambda<=r0,0.06999999999999999,"
            "0.0,0.0,0.0,1.0,0.0,-0.015885036406340543,true,1983,42,0,\n"
            "thm3.1-a4,1.0,,0.4722222222222222,lambda>sqrt(32/43),0.4722222222222222,"
            "2.0,0.0,0.0,1.0,0.0,0.0,false,1983,42,0,\n"
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


#: sha256 of the default `report --seed 42` JSON with every duration_ms zeroed, as
#: bench/workloads.py hashes it.  A change that moves the report on purpose
#: updates this digest and says so.  Settling every pinned search at the
#: peak of its radial bound (oracle._settled_rows) moved the 18 pinned d43
#: records that ran every phase to their real witness x = +-r*: thm3.3-d43 at
#: (lambda, p) = (0.3, 0), (0.3, 0.5), (0.6, 0), (0.6, 0.5), (0.6, 1.0),
#: (0.6, 1.5), (1.0, 0), (1.0, 0.5), (1.0, 1.0), (1.0, 1.5), (1.4, 0),
#: (1.4, 0.5) and (1.4, 1.0), and thm3.5-d43 at (1.0, 0.25), (1.0, 0.5),
#: (1.0, 0.75), (1.4, 0.25) and (1.4, 0.5).  oracle_max moved in 6 of them,
#: by at most 5.6e-17.  Emitting no witness field as a negative zero then
#: moved the 4 thm3.3-d43 records at p = 0 (lambda = 0.3, 0.6, 1.0 and 1.4),
#: whose y_im read -0.0 and now reads 0.0; no other field moved.  Searching
#: free |a4| on the (p1, r) plane, 15 canonical points and 3 per row, moved
#: the samples of the 8 free |a4| records from 100000 to 99999; no value or
#: witness moved.  Rounding a pinned difference's coefficients once from
#: their exact values moved the oracle_max of 23 |a3 - a2| and |a4 - a3|
#: records by a few ulps toward exact_value of their witnesses (thm3.3-d32
#: at lambda = 1.4, p = 2 by 4 ulps), and 8 interior witnesses x = +-r*
#: with them; no violation and no samples moved.
REPORT_DIGEST = "2077a9eccb7efeddbd0fa3d60a193b4274801c59e805db2c39c84de3f36d7d51"


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

    def test_default_report_keeps_its_pinned_digest(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--seed", "42")
        assert code == 1
        doc = _normalize_durations(json.loads(out))
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == REPORT_DIGEST

    def test_default_report_emits_no_negative_zero_witness_field(self, capsys):
        # A = -0.0i at a real x once gave y = 1 - 0.0i, printed as "y_im": -0.0
        _, out, _ = run_cli(capsys, "report", "--seed", "42")
        fields = [v for record in json.loads(out)["claims"] for v in record["witness"].values()]
        assert len(fields) == 5 * 106
        assert not [v for v in fields if v == 0.0 and math.copysign(1.0, v) < 0.0]

    def test_default_report_resolves_every_bound_and_settles_affine_witnesses(self, capsys):
        # holds whatever digest is pinned above: every attained bound to one
        # ulp-sized gap, and every search the maths settles (98 of 106) ends
        # at a real witness: a canonical x = 0 or +-1, or pinned x = +-r*
        # inside the disk, where its radial bound peaks
        _, out, _ = run_cli(capsys, "report", "--seed", "42")
        settled = inside = 0
        for record in json.loads(out)["claims"]:
            if not record["violation"]:
                assert abs(record["gap"]) <= 2.2e-16 * max(1.0, record["bound"]), record
            claim = CLAIMS[record["claim_id"]]
            fn = oracle.Functional(claim.kind, claim.cls, fixed_p=record["p"])
            coefs = oracle._quadratic(fn, record["lambda"], oracle._canonical_rows(fn)[0])
            if oracle._settled_rows(fn, coefs) is None:
                continue
            settled += 1
            assert record["witness"]["p1"] in (0.0, 1.0, 2.0) or record["p"] is not None, record
            assert record["witness"]["x_im"] == 0.0, record
            if record["witness"]["x_re"] in (-1.0, 0.0, 1.0):
                continue
            _, beta, gamma, kq = coefs  # pinned here, so scalars
            assert abs(record["witness"]["x_re"]) == abs(beta) / (2.0 * (kq - abs(gamma))) < 1.0, record
            inside += 1
        assert settled == 98
        assert inside == 18


#: sha256 over repr((argv, exit code, stdout)) of every call of
#: TestOutputBytes._MATRIX, in order, with duration_ms frozen at 0: every
#: command's text, JSON and CSV bytes and exit code.  A change that moves
#: any output on purpose updates this digest and says so.
CLI_DIGEST = "209eb6854152baa813eb10017e2ebf7bfdbd98c52a960c49118a95f301e90769"


class TestOutputBytes:
    _CALLS = [
        ["bound", "--class", "starlike", "--n", "4", "--lambda", "0.1,0.3,1"],
        ["bound", "--class", "starlike", "--which", "d43", "--lambda", "0.5,1", "--p", "0,1.5,2"],
        ["bound", "--class", "starlike", "--which", "d43", "--lambda", "1", "--p", "2",
         "--psi2-variant", "statement"],
        ["table", "--class", "starlike", "--lambda", "0.5,1", "--p", "0,1,2"],
        ["table", "--class", "convex", "--lambda", "1"],
        ["verify", "--claim", "thm3.1-a4", "--lambda", "0.21,1", "--budget", "1000"],
        ["verify", "--claim", "thm3.3-d43", "--lambda", "1", "--p", "0,1", "--budget", "1000"],
        ["roots"],
    ]
    _MATRIX = [argv + ["--format", fmt] for argv in _CALLS for fmt in cli._FORMATS] + [
        ["report", "--budget", "1000"]
    ]

    def test_every_output_keeps_its_pinned_bytes(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        digest = hashlib.sha256()
        codes = []
        for argv in self._MATRIX:
            code, out, err = run_cli(capsys, *argv)
            assert err == "", argv
            codes.append(code)
            digest.update(repr((argv, code, out)).encode())
        assert codes == [0] * 15 + [1] * 3 + [0] * 6 + [1]
        assert digest.hexdigest() == CLI_DIGEST


class TestModuleEntryPoint:
    """``python -m coefbound`` in a fresh process: __main__ passes main's code to the exit status."""

    @staticmethod
    def run(*argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "coefbound", *argv], env=env, capture_output=True, text=True, timeout=120
        )

    def test_a_clean_verify_exits_0(self):
        proc = self.run("verify", "--claim", "thm3.3-d43", "--lambda", "1", "--p", "1", "--budget", "1000")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("thm3.3-d43 lambda=1 p=1: ") and proc.stderr == ""

    def test_a_report_with_violations_exits_1(self):
        proc = self.run("report", "--budget", "1000")
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["violated_claim_ids"] == ["thm3.1-a4", "thm3.3-d43-psi2-statement"]

    def test_a_usage_error_exits_2(self):
        proc = self.run("verify", "--claim", "thm3.3-d43", "--lambda", "1", "--p", "1", "--budget", "1e3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: argument --budget: invalid int value: '1e3'"]
