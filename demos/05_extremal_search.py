#!/usr/bin/env python3
"""Extremal search: numerically certifying that the bounds are attained.

Each bound claims sharpness: some admissible function attains it.  The
oracle maximizes the bounded functional over the exactly parameterized
body and reports the attainment gap and machine-replayable witness
parameters.  The functional is affine in y, so the search walks (p1, x)
only and scores each candidate by its maximum over y, |A| + K; the
witness y is A/|A|.  Only the successive differences pin p1 (to p, or 2p
for convex), and the maths settles every pinned search: it scores the
canonical witnesses and the peak of its radial bound, and returns.  Free
|a4| searches p1 alone: on each circle |x| = r the maximum over arg x is
at cos(arg x) = +-1 or at the vertex of a quadratic in cos(arg x), and
the maximum over r is at one of 4 radii in closed form (the ends of
[0, 1] and the stationary points of the cos(arg x) = +-1 branch; the
vertex branch is linear in r^2, so it peaks where it meets them).  So it
scores the canonical witnesses first, then a p1 grid plus random p1
draws, then a polish of shrinking local p1 grids around the best level.
"""

from coefbound import (
    Functional,
    extremal_search,
    functional_value,
    k_diff_bound,
    s_diff_bound,
    s_star_coeff_bound,
)

BUDGET = 100_000

print("=" * 72)
print("1. Coefficient bounds are attained")
print("=" * 72)
for n in (2, 3, 4):
    for lam in (0.5, 1.0, 1.5):
        bound = s_star_coeff_bound(n, lam)
        out = extremal_search(Functional(f"abs_a{n}", "starlike"), lam, budget=BUDGET, seed=42)
        gap = bound.value - out.value
        tag = "ATTAINED" if abs(gap) < 1e-6 else f"gap {gap:+.2e}"
        print(f"  |a{n}| lam={lam:4}: bound {bound.value:.9f}  search {out.value:.9f}  {tag}")
print()
print("  (the lam=0.5 |a4| row is the one exception: the search exceeds the")
print("   printed branch-2 bound, a documented defect; see demo 06)")

print()
print("=" * 72)
print("2. Difference bounds and their boundary witnesses")
print("=" * 72)
fn = Functional("abs_a3_minus_a2", "starlike", fixed_p=0.8)
out = extremal_search(fn, 1.0, budget=BUDGET, seed=42)
bound = s_diff_bound("d32", 1.0, 0.8)
print(f"  starlike |a3-a2| at lam=1, p=0.8: bound {bound.value} search {out.value}")
print(f"  witness: p1={out.witness.p1}, x={out.witness.x}, y={out.witness.y}")
print("  equality occurs at x = -1: F is affine in x at a pinned p, so the search")
print("  returns that canonical witness exactly, with the bound as its value;")
print("  |a3 - a2| does not involve y, so y is only the phase of the value.")
print(f"  replay: functional_value(witness) = {functional_value(fn, 1.0, out.witness)}")

print()
for p in (0.0, 0.6, 1.0):
    fn = Functional("abs_a4_minus_a3", "convex", fixed_p=p)
    out = extremal_search(fn, 1.0, budget=BUDGET, seed=42)
    bound = k_diff_bound("d43", 1.0, p)
    print(f"  convex |a4-a3| at lam=1, p={p}: bound {bound.value:.9f}  "
          f"search {out.value:.9f}  gap {bound.value - out.value:+.1e}  x={out.witness.x.real:+.6f}")
print("  every pinned difference settles at the peak of its radial bound, a real x:")
print("  the canonical x = +-1, or one row inside the disk; no grid, draw or polish runs.")
try:
    Functional("abs_a4", "starlike", fixed_p=1.0)
except ValueError as exc:
    print(f"  |a_n| pins nothing, as the paper's |a_n| bounds take no p: {exc}")

print()
print("=" * 72)
print("3. Determinism")
print("=" * 72)
fn = Functional("abs_a4", "starlike")
a = extremal_search(fn, 0.8, budget=20_000, seed=7)
b = extremal_search(fn, 0.8, budget=20_000, seed=7)
print(f"  same seed, run twice: identical results -> {a == b}")
values = [extremal_search(fn, 0.8, budget=n, seed=7).value for n in (1000, 10_000, 100_000)]
print(f"  free |a4| at lam=0.8, growing budgets 1e3 -> 1e5: {values}")
print(f"  spread {max(values) - min(values):.1e}: the maximum lies at an interior p1 on |x| = 1,")
print("  so the budget still matters there: it sets how finely p1 is searched, and more")
print("  of it need not give a larger value (the polish windows move with the incumbent).")
print("  x is settled at every p1: arg x on each circle, and |x| at one of 4 radii.")
seeds = {extremal_search(fn, 0.8, budget=BUDGET, seed=s).value for s in range(4)}
print(f"  the seed picks only the random p1 draws: seeds 0 to 3 give {sorted(seeds)}.")
print("  A pinned difference is settled by the maths and returns the same value at every")
print("  budget.")
