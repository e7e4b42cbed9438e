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
        --budget outside [1000, 10**9], a negative --seed, a --workers below
        1 and a --tol that is negative, inf or nan
Data goes to stdout, diagnostics (one "error:" line) to stderr.  JSON floats
are emitted value-preserving (shortest round-trip form); CSV cells use the
same form, with empty cells for absent values and true/false for flags; text
mode prints 6 significant digits.

Each search walks (p1, x) candidates and takes the maximum over y in closed
form.  It streams them in fixed-size blocks of real columns (p1, Re x, Im x),
with no p1 column when p1 is pinned, so memory does not grow with --budget
and no complex array is built on the way; schwarz.sample_param_arrays, which
draws whole (p1, x, y) rows for sample_params, builds the complex arrays.
`verify` (per claim) and `report` draw the lam-independent search inputs
once and share them across their searches while they fit under a fixed cap
(budgets up to about 524,000), so the first record that uses the free-p1
inputs, and the first that uses the pinned-p1 inputs, also times drawing
them in its duration_ms.  The search is single-threaded: --workers is
accepted for compatibility and must be a positive integer, but it changes
nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
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


@dataclass
class RunConfig:
    command: str
    lambdas: list[float] = field(default_factory=list)
    ps: Optional[list[float]] = None
    cls: str = "starlike"
    n: Optional[int] = None
    which: Optional[str] = None
    claims: list[str] = field(default_factory=list)
    budget: int = oracle.DEFAULT_BUDGET
    seed: int = oracle.DEFAULT_SEED
    tol: float = oracle.DEFAULT_TOL
    psi2_variant: str = "proof"
    fmt: str = "text"


def _parse_floats(items: Optional[list[str]], flag: str) -> list[float]:
    """The comma-separated numbers of a repeatable flag; [] if it was not given."""
    if items is None:
        return []
    out = []
    for chunk in items:
        for tok in str(chunk).split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                out.append(float(tok))
            except ValueError as exc:
                raise UsageError(f"{flag} expects numbers, got {tok!r}") from exc
    if not out:
        raise UsageError(f"{flag} was given no numbers")
    return out


def _validate_lambdas(lams: list[float]) -> list[float]:
    for lam in lams:
        try:
            bounds.check_lambda(lam)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return lams


def _validate_ps(ps: list[float], cls: str) -> list[float]:
    # Strict [0, P_MAX]: a pinned p1 (p, or 2p for convex) must stay in [0, 2].
    pmax = bounds.P_MAX[cls]
    for p in ps:
        if not 0.0 <= p <= pmax:
            raise UsageError(f"p must lie in [0, {pmax}] for the {cls} class, got {p}")
    return ps


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coefbound",
        description="Evaluate and verify sharp coefficient bounds for classes "
        "subordinate to exp(lambda*z).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_oracle: bool, formats=_FORMATS, with_psi2: bool = True):
        sp.add_argument("--format", choices=formats, default=formats[0])
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
    sp.add_argument("--class", dest="cls", choices=tuple(bounds.P_MAX), required=True)
    sp.add_argument("--lambda", dest="lambdas", action="append", required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, choices=(2, 3, 4))
    group.add_argument("--which", choices=("d32", "d43"))
    sp.add_argument("--p", dest="ps", action="append")
    common(sp, with_oracle=False)

    sp = sub.add_parser("table", help="grid of all bounds")
    sp.add_argument("--class", dest="cls", choices=tuple(bounds.P_MAX), required=True)
    sp.add_argument("--lambda", dest="lambdas", action="append", required=True)
    sp.add_argument("--p", dest="ps", action="append")
    common(sp, with_oracle=False)

    sp = sub.add_parser("verify", help="verify selected claims with the oracle")
    sp.add_argument("--claim", dest="claims", action="append", required=True)
    sp.add_argument("--lambda", dest="lambdas", action="append")
    sp.add_argument("--p", dest="ps", action="append")
    common(sp, with_oracle=True)

    sp = sub.add_parser("report", help="run the full registered claim suite")
    common(sp, with_oracle=True, formats=("json",))

    sp = sub.add_parser("roots", help="print r0 and its residual")
    common(sp, with_oracle=False, with_psi2=False)

    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Deterministic flag parsing and range validation.

    Raises UsageError (exit 2) for malformed or out-of-range values; argparse
    itself exits with code 2 for unknown flags or a missing subcommand.
    """
    ns = _build_parser().parse_args(argv)
    cfg = RunConfig(command=ns.command)
    cfg.fmt = ns.format
    cfg.cls = getattr(ns, "cls", "starlike")
    cfg.n = getattr(ns, "n", None)
    cfg.which = getattr(ns, "which", None)
    cfg.claims = list(getattr(ns, "claims", []) or [])
    cfg.lambdas = _validate_lambdas(_parse_floats(getattr(ns, "lambdas", None), "--lambda"))
    cfg.ps = _parse_floats(getattr(ns, "ps", None), "--p") or None
    if hasattr(ns, "budget"):
        cfg.budget = ns.budget
        cfg.seed = ns.seed
        cfg.tol = ns.tol
        for check, flag, value in (
            (oracle.check_budget, "--budget", cfg.budget),
            (oracle.check_seed, "--seed", cfg.seed),
            (oracle.check_tol, "--tol", cfg.tol),
        ):
            try:
                check(value, flag)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        if ns.workers < 1:  # the only use of --workers: the search is single-threaded
            raise UsageError(f"--workers must be positive, got {ns.workers}")
    if cfg.command == "bound":
        if cfg.n is not None and cfg.ps is not None:
            raise UsageError(f"--n {cfg.n} takes no --p")
        if cfg.which is not None and cfg.ps is None:
            raise UsageError(f"--which {cfg.which} needs --p")
    if cfg.command in ("bound", "table") and cfg.ps is not None:
        _validate_ps(cfg.ps, cfg.cls)
    if cfg.command == "verify":
        for claim in cfg.claims:
            if claim not in oracle.CLAIMS:
                raise UsageError(
                    f"unknown claim {claim!r}; registered: {', '.join(sorted(oracle.CLAIMS))}"
                )
            spec = oracle.CLAIMS[claim]
            if cfg.ps is not None:
                if spec.default_ps is None:
                    raise UsageError(f"{claim} has no p grid; drop --p")
                _validate_ps(cfg.ps, spec.cls)
    variant = getattr(ns, "psi2_variant", None)
    if variant is not None:
        _check_psi2_variant_used(cfg)
        cfg.psi2_variant = variant
    return cfg


def _check_psi2_variant_used(cfg: RunConfig) -> None:
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


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_csv(columns: list[str], rows: list[dict]) -> None:
    print(",".join(columns))
    for row in rows:
        print(",".join(_csv_cell(row[c]) for c in columns))


def _bound_result_dict(b: bounds.BoundResult) -> dict:
    return {
        "value": b.value,
        "branch": b.branch,
        "lambda": b.lam,
        "class": b.cls,
        "n": b.n,
        "p": b.p,
        "which": b.which,
        "variant": b.variant,
    }


def _cmd_bound(cfg: RunConfig) -> int:
    rows = [
        bounds.bound(cfg.cls, lam, cfg.n, cfg.which, p, cfg.psi2_variant)
        for lam in cfg.lambdas
        for p in cfg.ps or [None]
    ]
    if cfg.fmt == "json":
        _emit_json([_bound_result_dict(b) for b in rows])
    elif cfg.fmt == "csv":
        _emit_csv(BOUND_COLUMNS, [_bound_result_dict(b) for b in rows])
    else:
        for b in rows:
            print(f"{_fmt_text(b.value)} (branch: {b.branch})")
    return 0


def _cmd_table(cfg: RunConfig) -> int:
    ps = cfg.ps if cfg.ps is not None else bounds.DEFAULT_PS[cfg.cls]
    rows = []
    for lam in cfg.lambdas:
        coeffs = {f"a{n}": bounds.bound(cfg.cls, lam, n=n) for n in (2, 3, 4)}
        for p in ps:
            named = dict(coeffs)
            for w in ("d32", "d43"):
                named[w] = bounds.bound(cfg.cls, lam, which=w, p=p, psi2_variant=cfg.psi2_variant)
            row = {"lambda": lam, "p": p}
            for col in TABLE_COLUMNS[2:]:  # "<name>_bound" or "<name>_branch"
                name, field = col.split("_")
                row[col] = named[name].value if field == "bound" else named[name].branch
            rows.append(row)
    if cfg.fmt == "json":
        _emit_json(rows)
    elif cfg.fmt == "csv":
        _emit_csv(TABLE_COLUMNS, rows)
    else:
        for r in rows:
            print(
                f"lambda={_fmt_text(r['lambda'])} p={_fmt_text(r['p'])}: "
                f"a2<={_fmt_text(r['a2_bound'])} a3<={_fmt_text(r['a3_bound'])} "
                f"a4<={_fmt_text(r['a4_bound'])} d32<={_fmt_text(r['d32_bound'])} "
                f"d43<={_fmt_text(r['d43_bound'])}"
            )
    return 0


def _print_reports(reports, fmt: str) -> None:
    dicts = [r.to_dict() for r in reports]
    if fmt == "json":
        _emit_json(dicts)
    elif fmt == "csv":
        flat = [{**d, **{f"witness_{k}": v for k, v in d["witness"].items()}} for d in dicts]
        _emit_csv(REPORT_COLUMNS, flat)
    else:
        for d in dicts:
            p = "" if d["p"] is None else f" p={_fmt_text(d['p'])}"
            flag = "VIOLATION" if d["violation"] else "ok"
            print(
                f"{d['claim_id']} lambda={_fmt_text(d['lambda'])}{p}: "
                f"bound={_fmt_text(d['bound'])} [{d['branch']}] "
                f"oracle_max={_fmt_text(d['oracle_max'])} gap={d['gap']:.3e} {flag}"
            )


def _cmd_verify(cfg: RunConfig) -> int:
    reports = []
    for claim in cfg.claims:
        spec = oracle.CLAIMS[claim]
        lams = cfg.lambdas if cfg.lambdas else list(spec.default_lambdas)
        reports.extend(
            oracle.verify_claim(
                claim,
                lams,
                cfg.ps,
                budget=cfg.budget,
                seed=cfg.seed,
                tol=cfg.tol,
                psi2_variant=cfg.psi2_variant,
            )
        )
    _print_reports(reports, cfg.fmt)
    return 1 if any(r.violation for r in reports) else 0


def _cmd_report(cfg: RunConfig) -> int:
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
    _emit_json(doc)
    return 1 if violated else 0


def _cmd_roots(cfg: RunConfig) -> int:
    r0 = bounds.r0_root()
    residual = abs(425.0 * r0 ** 3 + 340.0 * r0 * r0 - 328.0 * r0 - 240.0)
    if cfg.fmt == "json":
        _emit_json({"r0": r0, "residual": residual})
    elif cfg.fmt == "csv":
        _emit_csv(["r0", "residual"], [{"r0": r0, "residual": residual}])
    else:
        print(f"r0 = {r0:.17g}  residual = {residual:.3e}")
    return 0


def run(cfg: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    handlers = {
        "bound": _cmd_bound,
        "table": _cmd_table,
        "verify": _cmd_verify,
        "report": _cmd_report,
        "roots": _cmd_roots,
    }
    return handlers[cfg.command](cfg)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_args(list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return run(cfg)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
