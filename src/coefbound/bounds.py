"""Theorem-level sharp-bound evaluators.

Covers, for the starlike and convex classes cut out by subordination to
exp(lam*z) with 0 < lam <= pi/2:

* the piecewise |a2|, |a3|, |a4| bounds (the |a4| pieces switch at 1/5, at
  the root r0 of 425 t^3 + 340 t^2 - 328 t - 240 = 0, and at sqrt(32/43));
* the successive-difference bounds |a3 - a2| and |a4 - a3| for fixed,
  normalized second coefficient p (p in [0, 2] starlike, [0, 1] convex);
* sup over p of each difference bound;
* the general |a_n| product bounds for every n >= 2, through the closed
  form of the sequence A_m.

``bound`` picks the evaluator for one point.  ``check_lambda``,
``check_p``, ``P_MAX`` and ``DEFAULT_PS`` are the (lam, p) domain that
every layer checks against.  That domain starts at LAMBDA_MIN, not at 0:
the theorems hold for every lam > 0, but below the floor the search's
squared scores leave the normal floats.

The |a4 - a3| starlike bound carries a known transcription defect: for
lam > 3/5 the theorem statement prints the second-branch linear coefficient
as (48 - 120*lam)*p, while the proof and the lam = 1 corollary both give
(120*lam + 48)*p, and only the proof version matches the independent p = 2
anchor (1/36) lam^2 (27 - 17 lam).  The proof version is the default; the
printed statement stays available behind psi2_variant="statement" so the
oracle can refute it.

The module imports no numpy, so that the commands that only evaluate bounds
start without it.  For the same reason it holds the oracle's default budget,
seed and tolerance, which the command line offers as defaults, and
record_dict, the rule that names a record's output keys.

The convex bounds are the shared kernel and the starlike coefficient bounds
are n times them; this makes the correspondence k_bound * n == s_bound hold
bitwise, which floating point would not grant to the quotient direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional

LAMBDA_MAX = math.pi / 2

#: Smallest lam that any layer accepts.  The smallest maxima are of order
#: lam^2 / 4 (pinned |a4 - a3| at p = 2 starlike and p = 1 convex), and the
#: search scores |A| as sqrt(Re A^2 + Im A^2): those squares must stay normal
#: floats, or the scores lose precision and then underflow to 0.
LAMBDA_MIN = 1e-60

#: Interval-membership slack at piecewise breakpoints.
BREAK_TOL = 1e-12

#: Upper end of the admissible normalized second coefficient p, per class.
P_MAX = {"starlike": 2.0, "convex": 1.0}

#: Default p grid per class: five evenly spaced points of [0, P_MAX].
DEFAULT_PS = {"starlike": (0.0, 0.5, 1.0, 1.5, 2.0), "convex": (0.0, 0.25, 0.5, 0.75, 1.0)}

#: Default evaluation budget per (claim, grid point), violation tolerance and seed of the oracle.
DEFAULT_BUDGET = 100_000
DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42

#: Output keys that are not their field's name.
_OUTPUT_KEYS = {"lam": "lambda", "cls": "class"}

_SQRT_32_43 = math.sqrt(32.0 / 43.0)


def check_lambda(lam: float) -> None:
    """Raise ValueError unless LAMBDA_MIN <= lam <= pi/2 (up to the breakpoint slack)."""
    if not LAMBDA_MIN <= lam <= LAMBDA_MAX + BREAK_TOL:
        raise ValueError(f"lambda must lie in [{LAMBDA_MIN}, pi/2], got {lam}")


def check_p(p: float, cls: str) -> None:
    """Raise ValueError unless 0 <= p <= P_MAX[cls], with no slack (a pinned p1 stays in [0, 2]); NaN is refused."""
    pmax = P_MAX[cls]
    if not 0.0 <= p <= pmax:
        raise ValueError(f"p must lie in [0, {pmax}] for the {cls} class, got {p}")


def check_psi2_variant(psi2_variant: str) -> None:
    """Raise ValueError unless psi2_variant is 'proof' or 'statement'."""
    if psi2_variant not in ("proof", "statement"):
        raise ValueError(f"psi2_variant must be 'proof' or 'statement', got {psi2_variant!r}")


@dataclass(frozen=True)
class BoundResult:
    """An evaluated bound with the branch that produced it."""

    value: float
    branch: str
    lam: float
    cls: str
    n: Optional[int] = None
    p: Optional[float] = None
    which: Optional[str] = None
    variant: Optional[str] = None


@lru_cache(maxsize=None)
def _field_keys(cls) -> tuple[tuple[str, str], ...]:
    """(field name, output key) of a record dataclass, in declaration order; lam is "lambda", cls "class"."""
    return tuple((f.name, _OUTPUT_KEYS.get(f.name, f.name)) for f in fields(cls))


def record_dict(record) -> dict:
    """A record dataclass as its output row: one key per field, as _field_keys names them."""
    return {key: getattr(record, name) for name, key in _field_keys(type(record))}


def _r0_poly(t: float) -> float:
    return 425.0 * t ** 3 + 340.0 * t * t - 328.0 * t - 240.0


@lru_cache(maxsize=1)
def r0_root() -> float:
    """The root of 425 t^3 + 340 t^2 - 328 t - 240 in (0.8, 0.9), by bisection.

    Computed once and cached; bisection runs until the bracket collapses to
    adjacent floats, leaving a residual around 1e-13.
    """
    lo, hi = 0.8, 0.9
    flo = _r0_poly(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = _r0_poly(mid)
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo if abs(_r0_poly(lo)) <= abs(_r0_poly(hi)) else hi


def k_coeff_bound(n: int, lam: float) -> BoundResult:
    """Sharp |a_n| bound for the convex class, n in {2, 3, 4}."""
    check_lambda(lam)
    if n == 2:
        value, branch = lam / 2.0, "all"
    elif n == 3:
        if lam <= 2.0 / 3.0 + BREAK_TOL:
            value, branch = lam / 6.0, "lambda<=2/3"
        else:
            value, branch = lam * lam / 4.0, "lambda>2/3"
    elif n == 4:
        if lam <= 0.2 + BREAK_TOL:
            value, branch = lam / 12.0, "lambda<=1/5"
        elif lam <= r0_root() + BREAK_TOL:
            value = (lam / 36.0) * (5.0 * lam + 2.0) * math.sqrt(
                (30.0 * lam + 12.0) / (17.0 * lam * lam + 90.0 * lam + 12.0)
            )
            branch = "1/5<lambda<=r0"
        elif lam <= _SQRT_32_43 + BREAK_TOL:
            value = (17.0 / 1008.0) * (25.0 * lam * lam - 16.0) * math.sqrt(
                (25.0 * lam * lam - 16.0) / (17.0 * lam * lam - 12.0)
            )
            branch = "r0<lambda<=sqrt(32/43)"
        else:
            value, branch = (17.0 / 144.0) * lam ** 3, "lambda>sqrt(32/43)"
    else:
        raise ValueError(f"coefficient bounds cover n in {{2, 3, 4}}, got n={n}")
    return BoundResult(value=value, branch=branch, lam=lam, cls="convex", n=n)


def s_star_coeff_bound(n: int, lam: float) -> BoundResult:
    """Sharp |a_n| bound for the starlike class: n times the convex bound."""
    k = k_coeff_bound(n, lam)
    return BoundResult(value=n * k.value, branch=k.branch, lam=lam, cls="starlike", n=n)


def s_diff_bound(
    which: str, lam: float, p: float, psi2_variant: str = "proof"
) -> BoundResult:
    """Starlike successive-difference bound, |a3 - a2| (d32) or |a4 - a3| (d43)."""
    check_lambda(lam)
    check_p(p, "starlike")
    check_psi2_variant(psi2_variant)
    if which == "d32":
        bp = 8.0 / (3.0 * lam)
        if p <= bp + BREAK_TOL:
            value = (lam / 16.0) * (8.0 + 8.0 * p - (3.0 * lam + 2.0) * p * p)
            branch = "p<=8/(3*lambda)"
        else:
            value = (lam / 16.0) * (8.0 - 8.0 * p + (3.0 * lam - 2.0) * p * p)
            branch = "p>8/(3*lambda)"
        return BoundResult(value=value, branch=branch, lam=lam, cls="starlike", p=p, which=which)
    if which != "d43":
        raise ValueError(f"which must be 'd32' or 'd43', got {which!r}")
    variant = psi2_variant
    psi1 = lam <= 0.6 + BREAK_TOL
    if psi1:
        first_bp, first_branch = 2.0 / (4.0 - 5.0 * lam), "psi1:p<=2/(4-5*lambda)"
    else:
        first_bp, first_branch = 14.0 / (4.0 + 5.0 * lam), "psi2:p<=14/(4+5*lambda)"
    if p >= 2.0 - BREAK_TOL and (variant == "proof" or psi1):
        # p = 2 pins the whole triple; the proof-version branches collapse to
        # this value.  The statement variant falls through so its printed
        # second-branch polynomial (negative here) stays observable.
        value = lam * lam * (27.0 - 17.0 * lam) / 36.0
        branch = "p=2"
    elif p <= first_bp + BREAK_TOL:
        # psi1 and psi2 share their first-branch polynomial.
        value = (lam / 1152.0) * (
            7.0 * lam * lam * p ** 3
            + (150.0 * lam * lam + 36.0 * lam - 96.0) * p * p
            + (108.0 - 360.0 * lam) * p
            + 600.0
        )
        branch = first_branch
    elif psi1:
        value = (lam / 288.0) * (
            (-17.0 * lam * lam + 30.0 * lam - 12.0) * p ** 3
            + (54.0 * lam - 36.0) * p * p
            + (48.0 - 120.0 * lam) * p
            + 144.0
        )
        branch = "psi1:p>2/(4-5*lambda)"
    else:
        linear = (120.0 * lam + 48.0) if variant == "proof" else (48.0 - 120.0 * lam)
        value = (lam / 288.0) * (
            (-17.0 * lam * lam - 30.0 * lam - 12.0) * p ** 3
            + (54.0 * lam + 36.0) * p * p
            + linear * p
            - 144.0
        )
        branch = f"psi2-{variant}:p>14/(4+5*lambda)"
    return BoundResult(
        value=value, branch=branch, lam=lam, cls="starlike", p=p, which=which, variant=variant
    )


def k_diff_bound(which: str, lam: float, p: float) -> BoundResult:
    """Convex successive-difference bound, |a3 - a2| (d32) or |a4 - a3| (d43)."""
    check_lambda(lam)
    check_p(p, "convex")
    if which == "d32":
        value = (lam / 12.0) * (2.0 + 6.0 * p - (3.0 * lam + 2.0) * p * p)
        return BoundResult(value=value, branch="all", lam=lam, cls="convex", p=p, which=which)
    if which != "d43":
        raise ValueError(f"which must be 'd32' or 'd43', got {which!r}")
    if p >= 1.0 - BREAK_TOL:
        # p = 1 pins the whole triple; both theta branches collapse to this value.
        value = lam * lam * (36.0 - 17.0 * lam) / 144.0
        branch = "p=1"
    elif lam < 0.8:
        value = (lam / 144.0) * (
            (-17.0 * lam * lam + 30.0 * lam - 12.0) * p ** 3
            + (36.0 * lam - 24.0) * p * p
            + (12.0 - 30.0 * lam) * p
            + 24.0
        )
        branch = "theta1"
    else:
        if p <= 8.0 / (4.0 + 5.0 * lam) + BREAK_TOL:
            value = (lam / 576.0) * (
                7.0 * lam * lam * p ** 3
                + (75.0 * lam * lam + 24.0 * lam - 48.0) * p * p
                + (48.0 - 120.0 * lam) * p
                + 96.0
            )
            branch = "theta2:p<=8/(4+5*lambda)"
        else:
            value = (lam / 144.0) * (
                (-17.0 * lam * lam - 30.0 * lam - 12.0) * p ** 3
                + (36.0 * lam + 24.0) * p * p
                + (30.0 * lam + 12.0) * p
                - 24.0
            )
            branch = "theta2:p>8/(4+5*lambda)"
    return BoundResult(value=value, branch=branch, lam=lam, cls="convex", p=p, which=which)


def bound(
    cls: str,
    lam: float,
    n: Optional[int] = None,
    which: Optional[str] = None,
    p: Optional[float] = None,
    psi2_variant: str = "proof",
) -> BoundResult:
    """The sharp bound of one point: |a_n| (give n) or a difference (give which and p).

    Dispatches to the four named evaluators; psi2_variant only selects the
    starlike |a4 - a3| branch.
    """
    if cls not in P_MAX:
        raise ValueError(f"unknown class {cls!r}")
    check_psi2_variant(psi2_variant)
    if (n is None) == (which is None):
        raise ValueError("give exactly one of n and which")
    if n is not None:
        if p is not None:
            raise ValueError(f"the |a_{n}| bound takes no p")
        return s_star_coeff_bound(n, lam) if cls == "starlike" else k_coeff_bound(n, lam)
    if p is None:
        raise ValueError(f"the {which} bound needs p")
    if cls == "starlike":
        return s_diff_bound(which, lam, p, psi2_variant=psi2_variant)
    return k_diff_bound(which, lam, p)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximum of f on [lo, hi] to absolute tolerance tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc >= fd else d
    return x, f(x)


def sup_over_p(
    cls: str, which: str, lam: float, psi2_variant: str = "proof"
) -> tuple[float, float]:
    """Maximize the difference bound over the admissible p interval.

    Golden-section search on each smooth branch, then comparison against the
    breakpoints and endpoints; the result is never below the bound at any of
    those candidate points.
    """
    check_lambda(lam)
    if cls == "starlike":
        if which == "d32":
            inner = [8.0 / (3.0 * lam)]
        else:
            inner = [2.0 / (4.0 - 5.0 * lam)] if lam <= 0.6 else [14.0 / (4.0 + 5.0 * lam)]
    elif cls == "convex":
        inner = [8.0 / (4.0 + 5.0 * lam)] if (which == "d43" and lam >= 0.8) else []
    else:
        raise ValueError(f"unknown class {cls!r}")
    pmax = P_MAX[cls]
    f = lambda p: bound(cls, lam, which=which, p=p, psi2_variant=psi2_variant).value
    knots = sorted({0.0, pmax, *[b for b in inner if 0.0 < b < pmax]})
    best_p, best_v = 0.0, f(0.0)
    for q in knots[1:]:
        if f(q) > best_v:
            best_p, best_v = q, f(q)
    for lo, hi in zip(knots[:-1], knots[1:]):
        x, v = _golden_max(f, lo, hi)
        if v > best_v:
            best_p, best_v = x, v
    return best_p, best_v


def a_sequence_closed(lam, m: int):
    """A_m = prod_{k=0}^{m-2} (lam + k) / (m-1)!.

    Exact for Fraction/int inputs; float inputs give the float product, which
    is how the general coefficient bounds consume it.
    """
    if m < 2:
        raise ValueError("the sequence starts at m = 2")
    num = lam
    for k in range(1, m - 1):
        num = num * (lam + k)
    return num / math.factorial(m - 1)


def general_coeff_bound(cls: str, n: int, lam: float) -> float:
    """The |a_n| product bound for n in [2, 171], where (n-1)! is a float (not always sharp).

    Starlike: prod_{k=0}^{n-2}(lam + k) / (n-1)!; convex: the same over n!.
    Shares the closed-form sequence kernel tested in exact arithmetic.
    """
    check_lambda(lam)
    if n < 2:
        raise ValueError("general bounds start at n = 2")
    if n > 171:
        raise ValueError(f"general bounds end at n = 171, where (n-1)! is still a float; got n = {n}")
    base = a_sequence_closed(float(lam), n)
    if cls == "starlike":
        return float(base)
    if cls == "convex":
        return float(base) / n
    raise ValueError(f"unknown class {cls!r}")
