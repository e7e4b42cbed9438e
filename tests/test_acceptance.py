"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs the same assertions quietly.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from coefbound import cli
from coefbound.bounds import (
    k_coeff_bound,
    k_diff_bound,
    r0_root,
    s_diff_bound,
    s_star_coeff_bound,
    sup_over_p,
)
from coefbound.lemmas import (
    a_sequence_closed,
    a_sequence_recursive,
    y_bruteforce,
    y_closed_form,
)
from coefbound.oracle import (
    Functional,
    extremal_search,
    general_bound_probe,
    series_cross_check,
    verify_claim,
)
from coefbound.schwarz import sample_params


def _report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_r0_root():
    r0_root.cache_clear()
    t0 = time.perf_counter()
    r0 = r0_root()
    elapsed = time.perf_counter() - t0
    residual = abs(425.0 * r0**3 + 340.0 * r0**2 - 328.0 * r0 - 240.0)
    ok = abs(r0 - 0.8602) < 1e-4 and residual < 1e-10 and elapsed < 1e-3
    _report(
        1,
        ok,
        f"r0 = {r0:.10f} (|r0 - 0.8602| = {abs(r0 - 0.8602):.2e}), "
        f"residual = {residual:.2e}, runtime = {elapsed * 1e3:.3f} ms",
    )


def test_criterion_02_a_sequence_identity():
    t0 = time.perf_counter()
    lams = [Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(157, 100)]
    ok = all(
        a_sequence_recursive(lam, m) == a_sequence_closed(lam, m)
        for lam in lams
        for m in range(2, 51)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        2,
        ok,
        f"recursive == closed exactly for m <= 50, 4 rational lambdas "
        f"({elapsed:.3f} s)",
    )


def test_criterion_03_y_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        a = float(rng.uniform(0.0, 3.0))
        b = float(rng.uniform(-6.0, 6.0))
        c = float(rng.uniform(0.0, 3.0))
        closed = y_closed_form(a, b, c).value
        brute = y_bruteforce(a, b, c)
        worst = max(worst, abs(closed - brute))
    a, b, c = 0.5, 1.0, 0.5
    first = a + abs(b) + c
    second = 1.0 + a + b * b / (4.0 * (1.0 - c))
    boundary_ok = first == 2.0 and second == 2.0 and y_closed_form(a, b, c).value == 2.0
    elapsed = time.perf_counter() - t0
    ok = worst < 2e-3 and boundary_ok and elapsed < 30.0
    _report(
        3,
        ok,
        f"closed vs brute worst gap {worst:.2e} over 200 inputs; boundary "
        f"(0.5,1,0.5) -> 2 from both branches ({elapsed:.1f} s)",
    )


def test_criterion_04_sup_values_at_lambda_one():
    t0 = time.perf_counter()
    targets = [
        ("starlike", "d32", 7.0 / 10.0),
        ("starlike", "d43", 25.0 / 48.0),
        ("convex", "d32", 19.0 / 60.0),
        ("convex", "d43", 1.0 / 6.0),
    ]
    sups = [(cls, which, sup_over_p(cls, which, 1.0)[1], want) for cls, which, want in targets]
    elapsed = time.perf_counter() - t0
    ok = all(abs(got - want) < 1e-9 for _, _, got, want in sups) and elapsed < 10e-3
    detail = ", ".join(f"{cls}/{which}={got:.10f}" for cls, which, got, _ in sups)
    _report(4, ok, f"{detail} ({elapsed * 1e3:.2f} ms)")


def test_criterion_05_attainment():
    t0 = time.perf_counter()
    budget = 100_000
    cases = []
    for n in (2, 3):
        for lam in (0.5, 1.0, 1.5):
            cases.append((Functional(f"abs_a{n}", "starlike"), lam, s_star_coeff_bound(n, lam).value))
    for p in (0.0, 0.8, 2.0):
        cases.append(
            (Functional("abs_a3_minus_a2", "starlike", fixed_p=p), 1.0, s_diff_bound("d32", 1.0, p).value)
        )
    for which, kind in (("d32", "abs_a3_minus_a2"), ("d43", "abs_a4_minus_a3")):
        for p in (0.0, 0.6, 1.0):
            cases.append((Functional(kind, "convex", fixed_p=p), 1.0, k_diff_bound(which, 1.0, p).value))
    ok = True
    worst_gap = 0.0
    for fn, lam, bound in cases:
        out = extremal_search(fn, lam, budget=budget, seed=42)
        gap = bound - out.value
        worst_gap = max(worst_gap, abs(gap))
        if not (out.value >= bound - 1e-3 and out.value <= bound + 1e-9):
            ok = False
    witness = extremal_search(
        Functional("abs_a3_minus_a2", "starlike", fixed_p=0.8), 1.0, budget=budget, seed=42
    ).witness
    x_ok = abs(witness.x - (-1.0)) < 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and x_ok and elapsed < 60.0
    _report(
        5,
        ok,
        f"{len(cases)} searches reach bounds (worst |gap| {worst_gap:.2e}), "
        f"d32 witness x = {witness.x:.9f} ({elapsed:.1f} s)",
    )


def test_criterion_06_anchor_consistency():
    anchors_ok = True
    for lam in (0.7, 1.0, 1.5):
        # same arithmetic shape as the quoted anchor expressions
        star_anchor = lam * lam * (27.0 - 17.0 * lam) / 36.0
        conv_anchor = lam * lam * (36.0 - 17.0 * lam) / 144.0
        if s_diff_bound("d43", lam, 2.0).value != star_anchor:
            anchors_ok = False
        if k_diff_bound("d43", lam, 1.0).value != conv_anchor:
            anchors_ok = False
    grid = np.linspace(0.03, math.pi / 2, 50)
    corr_ok = all(
        k_coeff_bound(n, float(lam)).value * n == s_star_coeff_bound(n, float(lam)).value
        for n in (2, 3, 4)
        for lam in grid
    )
    ok = anchors_ok and corr_ok
    _report(
        6,
        ok,
        "p=2 and p=1 anchors exact for lambda in {0.7, 1, 1.5}; "
        "k_bound * n == s_bound exactly on a 50-point lambda grid",
    )


def test_criterion_07_series_formula_equivalence():
    t0 = time.perf_counter()
    params = sample_params(seed=777, count=1000, strategy="random")
    worst = 0.0
    for lam in (0.5, 1.0, math.pi / 2):
        for cls in ("starlike", "convex"):
            for q in params:
                worst = max(worst, series_cross_check(lam, cls, q))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(
        7,
        ok,
        f"series vs closed formulas: worst deviation {worst:.2e} over "
        f"1000 triples x 2 classes x 3 lambdas ({elapsed:.1f} s)",
    )


def test_criterion_08_subordination_and_general_bounds():
    t0 = time.perf_counter()
    reports = [general_bound_probe(lam, n_max=12, samples=500, seed=99) for lam in (0.5, 1.0, math.pi / 2)]
    elapsed = time.perf_counter() - t0
    total_violations = sum(r.violations for r in reports)
    ok = total_violations == 0 and elapsed < 10.0
    worst_cn = max(r.max_cn_excess for r in reports)
    worst_an = max(r.max_an_excess for r in reports)
    _report(
        8,
        ok,
        f"0 violations over 3 x 500 Blaschke probes to n = 12 "
        f"(max |c_n|-lambda = {worst_cn:.2e}, max |a_n|-bound = {worst_an:.2e}, "
        f"{elapsed:.1f} s)",
    )


def test_criterion_09_discrepancy_findings(capsys):
    (a4,) = verify_claim("thm3.1-a4", [0.21], budget=100_000, seed=42, tol=1e-9)
    part_a = a4.oracle_max >= 0.07 - 1e-12 and a4.violation

    (stmt,) = verify_claim(
        "thm3.3-d43-psi2-statement", [1.0], [2.0], budget=100_000, seed=42, tol=1e-9
    )
    (proof,) = verify_claim("thm3.3-d43", [1.0], [2.0], budget=100_000, seed=42, tol=1e-9)
    part_b = (
        stmt.bound < 0.0
        and stmt.violation
        and proof.bound == pytest.approx(5.0 / 18.0, abs=1e-15)
        and not proof.violation
    )

    code = cli.main(["report"])
    doc = json.loads(capsys.readouterr().out)
    part_c = code == 1 and doc["violated_claim_ids"] == [
        "thm3.1-a4",
        "thm3.3-d43-psi2-statement",
    ]
    ok = part_a and part_b and part_c
    with capsys.disabled():
        _report(
            9,
            ok,
            f"a4 branch-2 defect at lambda=0.21 (oracle {a4.oracle_max:.6f} > "
            f"bound {a4.bound:.6f}); statement-variant bound {stmt.bound:.6f} refuted, "
            f"proof variant {proof.bound:.6f} clean; report exit {code} naming exactly "
            f"those claims",
        )


def _normalized_report(raw: str) -> str:
    doc = json.loads(raw)
    for claim in doc["claims"]:
        claim["duration_ms"] = 0
    return json.dumps(doc)


def test_criterion_10_determinism_across_worker_counts(capsys):
    code1 = cli.main(["report", "--budget", "20000", "--seed", "42", "--workers", "1"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["report", "--budget", "20000", "--seed", "42", "--workers", "4"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 and _normalized_report(out1) == _normalized_report(out2)
    with capsys.disabled():
        _report(
            10,
            ok,
            "two report runs (workers 1 vs 4, same seed) byte-identical "
            "after zeroing duration_ms",
        )
