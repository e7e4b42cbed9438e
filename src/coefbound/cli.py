"""Command-line front end: evaluate bounds, tabulate, verify, report.

Subcommands
    bound   evaluate one theorem bound (coefficient or successive difference)
    table   CSV/JSON/text grid of all bounds over lambda and p values
    verify  run the extremal oracle against selected claims
    report  run the full registered claim suite, emit consolidated JSON
            (its one output, so it takes only --format json)
    roots   print the cubic root r0 used by the |a4| branch structure

Exit codes:
    0   success, and no emitted report is a violation
    1   at least one emitted report is a violation (a finding, not an error)
    2   usage or validation error, including a --p that no selected bound or
        claim uses, a --psi2-variant where no starlike d43 bound reads it
        (bound --n, bound --which d32, the convex class, and a verify
        without thm3.3-d43), a --lambda or --p that gives no number, a
        --lambda outside [1e-60, pi/2] (below bounds.LAMBDA_MIN the search's
        squared scores would underflow), a --p outside [0, 2] (starlike) or
        [0, 1] (convex), the domain of bounds.check_p, a --budget outside
        [1000, 10**9], a negative --seed, a --workers below 1 and a --tol
        that is negative, inf or nan
    3   internal error: an exception other than ValueError escaped a command;
        its traceback goes to stderr
Data goes to stdout, diagnostics (one "error:" line) to stderr.  One writer,
_write, renders every command's output in every format.  JSON floats are
emitted value-preserving (shortest round-trip form); CSV cells use the
same form, with empty cells for absent values and true/false for flags; text
mode prints 6 significant digits.

The oracle module's docstring says how a search walks the parameter body.
A record's samples is the whole --budget where the maths settles x (98 of
the 106 records of `report`), else at most 23 below it.  Every search
draws its own levels, so a record's duration_ms is its own search.  The
search is single-threaded: --workers is accepted for compatibility and
must be a positive integer, but it changes nothing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from functools import lru_cache
from typing import Optional

from . import bounds, oracle

_FORMATS = ("text", "json", "csv")

#: Documented column order for `bound` CSV output.
BOUND_COLUMNS = ["lambda", "p", "class", "n", "which", "value", "branch"]

#: Documented column order for `table` CSV output.
TABLE_COLUMNS = [
    "lambda",
    "p",
    "a2_bound",
    "a3_bound",
    "a4_bound",
    "d32_bound",
    "d43_bound",
    "a3_branch",
    "a4_branch",
    "d32_branch",
    "d43_branch",
]

#: Documented column order for `verify` CSV output.
REPORT_COLUMNS = [
    "claim_id",
    "lambda",
    "p",
    "bound",
    "branch",
    "oracle_max",
    "witness_p1",
    "witness_x_re",
    "witness_x_im",
    "witness_y_re",
    "witness_y_im",
    "gap",
    "violation",
    "samples",
    "seed",
    "duration_ms",
    "variant",
]


class UsageError(ValueError):
    """Invalid flags or out-of-range values; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, whose errors raise UsageError.

    argparse would print its usage block before the "error:" line; main
    prints the one line alone.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative-number pattern with an exponent, -inf, -infinity
        # and -nan allowed in any case, as float() reads them, so that
        # "--p -5e-13" or "--p -inf" reaches the domain check instead of
        # reading as a flag
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        raise UsageError(message)


def _parse_floats(items: Optional[list[str]], flag: str) -> Optional[list[float]]:
    """The comma-separated numbers of a repeatable flag; None if it was not given."""
    if items is None:
        return None
    out = []
    for chunk in items:
        for tok in str(chunk).split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                out.append(float(tok) + 0.0)  # -0.0 reads as 0.0
            except ValueError as exc:
                raise UsageError(f"{flag} expects numbers, got {tok!r}") from exc
    if not out:
        raise UsageError(f"{flag} was given no numbers")
    return out


def _usage(check, values, *args) -> None:
    """check(value, *args) for each value, a domain check whose ValueError is a UsageError (exit 2)."""
    for value in values:
        try:
            check(value, *args)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing never changes it, and each parse starts a new namespace.

    Each subcommand names its handler; a field that it does not take keeps
    the top parser's not-given value.
    """
    parser = _Parser(
        prog="coefbound",
        description="Evaluate and verify sharp coefficient bounds for classes "
        "subordinate to exp(lambda*z).",
    )
    parser.set_defaults(n=None, which=None, claims=None, lambdas=None, ps=None, psi2_variant=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_oracle: bool, formats=_FORMATS, with_psi2: bool = True):
        sp.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        if with_oracle:
            sp.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
            sp.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
            sp.add_argument("--tol", type=float, default=oracle.DEFAULT_TOL)
            sp.add_argument(
                "--workers", type=int, default=1, help="accepted for compatibility; no effect"
            )
        if with_psi2:
            # None means not given, so that a flag no bound would read can be refused
            sp.add_argument("--psi2-variant", choices=("proof", "statement"))

    sp = sub.add_parser("bound", help="evaluate one bound")
    sp.set_defaults(handler=_cmd_bound)
    sp.add_argument("--class", dest="cls", choices=tuple(bounds.P_MAX), required=True)
    sp.add_argument("--lambda", dest="lambdas", action="append", required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, choices=(2, 3, 4))
    group.add_argument("--which", choices=("d32", "d43"))
    sp.add_argument("--p", dest="ps", action="append")
    common(sp, with_oracle=False)

    sp = sub.add_parser("table", help="grid of all bounds")
    sp.set_defaults(handler=_cmd_table)
    sp.add_argument("--class", dest="cls", choices=tuple(bounds.P_MAX), required=True)
    sp.add_argument("--lambda", dest="lambdas", action="append", required=True)
    sp.add_argument("--p", dest="ps", action="append")
    common(sp, with_oracle=False)

    sp = sub.add_parser("verify", help="verify selected claims with the oracle")
    sp.set_defaults(handler=_cmd_verify)
    sp.add_argument("--claim", dest="claims", action="append", required=True)
    sp.add_argument("--lambda", dest="lambdas", action="append")
    sp.add_argument("--p", dest="ps", action="append")
    common(sp, with_oracle=True)

    sp = sub.add_parser("report", help="run the full registered claim suite")
    sp.set_defaults(handler=_cmd_report)
    common(sp, with_oracle=True, formats=("json",))

    sp = sub.add_parser("roots", help="print r0 and its residual")
    sp.set_defaults(handler=_cmd_roots)
    common(sp, with_oracle=False, with_psi2=False)

    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The checked namespace of argv; its handler(namespace) runs the command.

    --lambda and --p are lists of floats, or None where not given; --format
    is stored as fmt; --workers is range-checked and then deleted; an
    unread --psi2-variant is refused, and one not given reads "proof".
    Raises UsageError (exit 2) for malformed or out-of-range values, and for
    argparse's own errors: an unknown flag or subcommand, a missing required
    flag, a value of the wrong type.  --help exits 0 through SystemExit.
    """
    cfg = _build_parser().parse_args(argv)
    cfg.lambdas = _parse_floats(cfg.lambdas, "--lambda")
    _usage(bounds.check_lambda, cfg.lambdas or ())
    cfg.ps = _parse_floats(cfg.ps, "--p")
    if hasattr(cfg, "workers"):
        _usage(oracle.check_budget, [cfg.budget], "--budget")
        _usage(oracle.check_seed, [cfg.seed], "--seed")
        _usage(oracle.check_tol, [cfg.tol], "--tol")
        if cfg.workers < 1:  # the only use of --workers: the search is single-threaded
            raise UsageError(f"--workers must be positive, got {cfg.workers}")
        del cfg.workers
    if cfg.command == "bound":
        if cfg.n is not None and cfg.ps is not None:
            raise UsageError(f"--n {cfg.n} takes no --p")
        if cfg.which is not None and cfg.ps is None:
            raise UsageError(f"--which {cfg.which} needs --p")
    if cfg.command in ("bound", "table"):
        _usage(bounds.check_p, cfg.ps or (), cfg.cls)
    for claim in cfg.claims or ():
        if claim not in oracle.CLAIMS:
            raise UsageError(
                f"unknown claim {claim!r}; registered: {', '.join(sorted(oracle.CLAIMS))}"
            )
        spec = oracle.CLAIMS[claim]
        if cfg.ps is not None:
            if spec.default_ps is None:
                raise UsageError(f"{claim} has no p grid; drop --p")
            _usage(bounds.check_p, cfg.ps, spec.cls)
    if cfg.psi2_variant is None:
        cfg.psi2_variant = "proof"
    else:
        _check_psi2_variant_used(cfg)
    return cfg


def _check_psi2_variant_used(cfg: argparse.Namespace) -> None:
    """Raise UsageError unless a bound of the command reads --psi2-variant.

    Only the starlike d43 bound has variants, and a claim that pins its
    variant ignores the flag.
    """
    if cfg.command == "report":
        return
    if cfg.command == "verify":
        specs = [oracle.CLAIMS[c] for c in cfg.claims]
        if not any(
            s.cls == "starlike" and s.which == "d43" and s.pinned_variant is None for s in specs
        ):
            raise UsageError(
                "--psi2-variant selects the variant of thm3.3-d43; no selected claim reads it"
            )
    elif cfg.cls != "starlike" or cfg.which == "d32" or cfg.n is not None:
        raise UsageError(
            "--psi2-variant selects the starlike d43 bound; "
            f"this {cfg.command} command evaluates none"
        )


def _fmt_text(x: float) -> str:
    return f"{x:.6g}"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write(fmt: str, doc, columns, rows, lines) -> None:
    """Write a command's output: doc as indented JSON, rows as CSV cells in columns order, or the text lines."""
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(_csv_cell(row[c]) for c in columns))
    else:
        for line in lines:
            print(line)


def _cmd_bound(cfg: argparse.Namespace) -> int:
    rows = [
        oracle.record_dict(bounds.bound(cfg.cls, lam, cfg.n, cfg.which, p, cfg.psi2_variant))
        for lam in cfg.lambdas
        for p in cfg.ps or [None]
    ]
    lines = (f"{_fmt_text(r['value'])} (branch: {r['branch']})" for r in rows)
    _write(cfg.fmt, rows, BOUND_COLUMNS, rows, lines)
    return 0


def _cmd_table(cfg: argparse.Namespace) -> int:
    ps = cfg.ps if cfg.ps is not None else bounds.DEFAULT_PS[cfg.cls]
    rows = []
    for lam in cfg.lambdas:
        a2, a3, a4 = (bounds.bound(cfg.cls, lam, n=n) for n in (2, 3, 4))
        for p in ps:
            d32, d43 = (
                bounds.bound(cfg.cls, lam, which=w, p=p, psi2_variant=cfg.psi2_variant) for w in ("d32", "d43")
            )
            values = (
                lam, p, a2.value, a3.value, a4.value, d32.value, d43.value,
                a3.branch, a4.branch, d32.branch, d43.branch,
            )  # in TABLE_COLUMNS order
            rows.append(dict(zip(TABLE_COLUMNS, values)))
    lines = (
        f"lambda={_fmt_text(r['lambda'])} p={_fmt_text(r['p'])}: "
        f"a2<={_fmt_text(r['a2_bound'])} a3<={_fmt_text(r['a3_bound'])} "
        f"a4<={_fmt_text(r['a4_bound'])} d32<={_fmt_text(r['d32_bound'])} "
        f"d43<={_fmt_text(r['d43_bound'])}"
        for r in rows
    )
    _write(cfg.fmt, rows, TABLE_COLUMNS, rows, lines)
    return 0


def _cmd_verify(cfg: argparse.Namespace) -> int:
    reports = [
        r
        for claim in cfg.claims
        for r in oracle.verify_claim(
            claim, cfg.lambdas, cfg.ps, budget=cfg.budget, seed=cfg.seed, tol=cfg.tol,
            psi2_variant=cfg.psi2_variant,
        )
    ]
    dicts = [r.to_dict() for r in reports]
    flat = ({**d, **{f"witness_{k}": v for k, v in d["witness"].items()}} for d in dicts)
    lines = (
        f"{d['claim_id']} lambda={_fmt_text(d['lambda'])}"
        + ("" if d["p"] is None else f" p={_fmt_text(d['p'])}")
        + f": bound={_fmt_text(d['bound'])} [{d['branch']}] "
        f"oracle_max={_fmt_text(d['oracle_max'])} gap={d['gap']:.3e} "
        + ("VIOLATION" if d["violation"] else "ok")
        for d in dicts
    )
    _write(cfg.fmt, dicts, REPORT_COLUMNS, flat, lines)
    return 1 if any(r.violation for r in reports) else 0


def _cmd_report(cfg: argparse.Namespace) -> int:
    reports = oracle.run_claim_suite(
        budget=cfg.budget,
        seed=cfg.seed,
        tol=cfg.tol,
        psi2_variant=cfg.psi2_variant,
    )
    violated = sorted({r.claim_id for r in reports if r.violation})
    doc = {
        "suite": "coefbound-claims",
        "seed": cfg.seed,
        "budget": cfg.budget,
        "tol": cfg.tol,
        "psi2_variant": cfg.psi2_variant,
        "total_reports": len(reports),
        "violation_count": sum(r.violation for r in reports),
        "violated_claim_ids": violated,
        "claims": [r.to_dict() for r in reports],
    }
    _write(cfg.fmt, doc, (), (), ())  # --format is json only
    return 1 if violated else 0


def _cmd_roots(cfg: argparse.Namespace) -> int:
    r0 = bounds.r0_root()
    residual = abs(bounds._r0_poly(r0))
    row = {"r0": r0, "residual": residual}
    _write(cfg.fmt, row, list(row), [row], [f"r0 = {r0:.17g}  residual = {residual:.3e}"])
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """Parse argv (default sys.argv[1:]) and run its command; returns the process exit code."""
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else list(argv))
        return cfg.handler(cfg)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
