#!/usr/bin/env python3
"""Auxiliary closed forms, each paired with an independent check.

Three self-contained tools sit under the theorem bounds:

* a piecewise upper bound Phi(mu, nu) for |c3 + mu c1 c2 + nu c1^3| over
  Schwarz coefficients, quoted on five regions D1..D5;
* the disk maximum Y(a, b, c) = max |a + b z + c z^2| + 1 - |z|^2, with a
  two-branch closed form and a brute-force oracle that searches |z| alone
  (arg z is settled on each circle);
* the sequence A_m (recursion vs closed product form) in exact rationals.
"""

from fractions import Fraction

from coefbound import (
    SchwarzCoefficients,
    a_sequence_closed,
    a_sequence_recursive,
    classify_region,
    phi_bound,
    psi_functional,
    y_bruteforce,
    y_closed_form,
)

print("=" * 72)
print("1. Region classification and the quoted Phi branches")
print("=" * 72)
for mu, nu in [(0.0, 0.0), (1.0, -0.5), (3.0, 0.0), (2.5, 1.3), (3.0, 2.0)]:
    regions = sorted(r.value for r in classify_region(mu, nu))
    out = phi_bound(mu, nu)
    print(f"  (mu, nu) = ({mu:4}, {nu:5}) -> {regions}  Phi <= {out.value:.6f}")
print("  point (2, 1) excluded from D4:", "D4" not in {r.value for r in classify_region(2.0, 1.0)})

print()
print("A transcription defect, kept verbatim: on part of D2 the quoted branch")
print("evaluates below 1, yet |c3| = 1 is attained by the z^3 witness:")
mu, nu = 0.525, 0.0625
out = phi_bound(mu, nu)
witness = SchwarzCoefficients(0.0, 0.0, 1.0)
print(f"  quoted Phi({mu}, {nu}) = {out.value:.6f} < 1 = Psi(z^3 witness) = "
      f"{psi_functional(witness, mu, nu)}")
print("  (the extremal oracle is what adjudicates this; see demo 06)")

print()
print("=" * 72)
print("2. Y(a, b, c): closed form vs brute-force search over |z|")
print("=" * 72)
cases = [(0.0, 0.0, 0.0), (1.0, 3.0, 0.0), (0.5, 1.0, 0.5), (0.0, 0.0, 2.0), (2.0, -1.5, 0.3)]
for a, b, c in cases:
    closed = y_closed_form(a, b, c)
    brute = y_bruteforce(a, b, c)
    print(f"  Y({a}, {b}, {c}) = {closed.value:.8f} [{closed.branch}]  "
          f"search oracle {brute:.8f}  gap {abs(closed.value - brute):.1e}")
print("  at (0.5, 1, 0.5) the branch condition |b| = 2(1 - c) is an equality;")
print("  both branch formulas give exactly 2 (continuity across the seam).")

print()
print("=" * 72)
print("3. The A_m sequence: recursion == closed product, exactly")
print("=" * 72)
lam = Fraction(157, 100)
for m in (2, 3, 5, 10, 20):
    rec = a_sequence_recursive(lam, m)
    clo = a_sequence_closed(lam, m)
    print(f"  m={m:2d}: A_m = {rec}  (closed form equal: {rec == clo})")
print()
print("Rational arithmetic keeps this an identity test, not an approximation;")
print("the float path of the closed form feeds the general |a_n| bounds.")
