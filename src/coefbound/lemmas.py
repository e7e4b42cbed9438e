"""Closed-form auxiliary functionals and their independent oracles.

Three ingredients used by the theorem-level bounds:

* the piecewise upper bound Phi(mu, nu) for |c3 + mu*c1*c2 + nu*c1^3| over
  Schwarz coefficients, quoted over five regions D1..D5 of the (mu, nu)
  plane (only those quoted pieces are implemented; points outside every
  region raise instead of extrapolating);
* the maximum Y(a, b, c) of |a + b*z + c*z^2| + 1 - |z|^2 over the closed
  unit disk, in closed form and as an independent search over |z| alone
  (schwarz.circle_max settles arg z, and the polish is the extremal
  search's);
* the sequence A_m defined by A_2 = lam, A_m = lam/(m-1) * (1 + sum A_k),
  in exact rational arithmetic; its closed product form lives in bounds,
  which needs no numpy, and is re-exported here.

The region classifier applies the printed inequalities verbatim with a small
slack, so boundary points may carry several labels; phi_bound then evaluates
every matched branch and returns the minimum (the tightest quoted claim).
As printed, the D2/D3 branch can dip below 1 even though the value 1 is
always attained by c = (0, 0, 1); that transcription defect is deliberately
left in place here and surfaced by the extremal oracle, not patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

import numpy as np

from .bounds import a_sequence_closed  # noqa: F401  (defined in bounds, which needs no numpy)
from .schwarz import SchwarzCoefficients, circle_max, polish

#: Slack on each printed region inequality.
REGION_TOL = 1e-12


class Region(Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"


class UnclassifiedRegionError(ValueError):
    """The point lies in none of the quoted (mu, nu) regions."""


def classify_region(mu: float, nu: float, tol: float = REGION_TOL) -> frozenset[Region]:
    """Every region whose printed inequalities hold at (mu, nu).

    The set may be empty (the quoted regions do not cover the plane) and a
    boundary point may satisfy several region definitions.  The single point
    (|mu|, nu) = (2, 1) is excluded from D4 as printed.
    """
    am = abs(mu)
    out = set()
    if am <= 0.5 + tol and -1.0 - tol <= nu <= 1.0 + tol:
        out.add(Region.D1)
    lower23 = -(2.0 / 3.0) * (am + 1.0)
    if 0.5 - tol <= am <= 2.0 + tol:
        upper2 = (4.0 / 27.0) * ((am + 1.0) ** 3 - (am + 1.0))
        if lower23 - tol <= nu <= upper2 + tol:
            out.add(Region.D2)
    ridge = 2.0 * am * (am + 1.0) / (mu * mu + 2.0 * am + 4.0)
    if am >= 2.0 - tol and lower23 - tol <= nu <= ridge + tol:
        out.add(Region.D3)
    if 2.0 - tol <= am <= 4.0 + tol:
        cap = (mu * mu + 8.0) / 12.0
        excluded = abs(am - 2.0) <= tol and abs(nu - 1.0) <= tol
        if ridge - tol <= nu <= cap + tol and not excluded:
            out.add(Region.D4)
        if nu >= cap - tol:
            out.add(Region.D5)
    return frozenset(out)


@dataclass(frozen=True)
class PhiBound:
    value: float
    regions: frozenset[Region]


def _branch_value(region: Region, mu: float, nu: float) -> float:
    am = abs(mu)
    if region is Region.D1:
        return 1.0
    if region in (Region.D2, Region.D3):
        return (2.0 / 3.0) * (am + 1.0) * math.sqrt((am + 1.0) / (3.0 * am + 1.0 + nu))
    if region is Region.D4:
        return (
            (nu / 3.0)
            * ((mu * mu - 4.0) / (mu * mu - 4.0 * nu))
            * math.sqrt((mu * mu - 4.0) / (3.0 * (nu - 1.0)))
        )
    return abs(nu)  # D5


def phi_bound(mu: float, nu: float) -> PhiBound:
    """The quoted upper bound for |c3 + mu*c1*c2 + nu*c1^3| at (mu, nu).

    Evaluates the printed branch of every matched region and returns the
    minimum together with all matched labels.  A point outside every quoted
    region raises UnclassifiedRegionError; no value is ever extrapolated.
    """
    regions = classify_region(mu, nu)
    if not regions:
        raise UnclassifiedRegionError(f"({mu}, {nu}) lies in none of the quoted regions D1..D5")
    value = min(_branch_value(r, mu, nu) for r in sorted(regions, key=lambda r: r.value))
    if not math.isfinite(value):
        raise UnclassifiedRegionError(f"branch value at ({mu}, {nu}) is not finite")
    return PhiBound(value=value, regions=regions)


def psi_functional(c: SchwarzCoefficients, mu: float, nu: float) -> float:
    """|c3 + mu*c1*c2 + nu*c1^3| for a Schwarz coefficient triple."""
    return abs(c.c3 + mu * c.c1 * c.c2 + nu * c.c1 ** 3)


@dataclass(frozen=True)
class YValue:
    value: float
    branch: str


#: The largest |a| + |b| + |c| that y_closed_form and y_bruteforce take: above it |A|^2 can overflow.
Y_INPUT_MAX = 1e150


def y_closed_form(a: float, b: float, c: float) -> YValue:
    """Closed form of max over the disk of |a + b*z + c*z^2| + 1 - |z|^2.

    Valid for a >= 0 and c >= 0: the maximum is a + |b| + c when
    |b| >= 2(1 - c) (attained at z = +-1) and 1 + a + b^2/(4(1 - c))
    otherwise.  At c >= 1 the first condition always holds, so the
    1/(1 - c) singularity is never evaluated.  a, b and c must be finite and
    a + |b| + c at most Y_INPUT_MAX: then neither branch overflows.
    """
    # Negated so that NaN is refused: every comparison with NaN is False.
    if not (0.0 <= a < math.inf and 0.0 <= c < math.inf and math.isfinite(b)):
        raise ValueError(f"need finite a, c >= 0 and finite b, got a={a}, b={b}, c={c}")
    if a + abs(b) + c > Y_INPUT_MAX:
        raise ValueError(f"a + |b| + c must be at most {Y_INPUT_MAX}, got a={a}, b={b}, c={c}")
    if abs(b) >= 2.0 * (1.0 - c):
        return YValue(value=a + abs(b) + c, branch="first")
    return YValue(value=1.0 + a + b * b / (4.0 * (1.0 - c)), branch="second")


def y_bruteforce(a: float, b: float, c: float) -> float:
    """Search oracle for Y(a, b, c), independent of the closed form.

    On each circle |z| = r, schwarz.circle_max settles arg z: the maximum of
    |a + b z + c z^2| + 1 - |z|^2 there is at one of three points that it
    picks from a quadratic in cos(arg z).  So the search walks r alone: 1024
    radii from 0 to 1, then schwarz.polish runs six rounds of 65 radii
    around the incumbent, each a quarter as wide as the last, starting from
    two spacings.  Ties resolve to the first radius.  It does not take the
    closed-form radii of schwarz.level_radii, so it checks that candidate
    rule too.  a, b and c must be finite, with |a| + |b| + |c| at most
    Y_INPUT_MAX.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"a, b and c must be finite, got a={a}, b={b}, c={c}")
    if abs(a) + abs(b) + abs(c) > Y_INPUT_MAX:
        raise ValueError(f"|a| + |b| + |c| must be at most {Y_INPUT_MAX}, got a={a}, b={b}, c={c}")

    def scan(r, best):  # the first radius whose circle scores above best: (value, r) or None
        vals = circle_max(a, b, c, 1.0, r)[0]
        k = int(np.argmax(vals))
        return (float(vals[k]), float(r[k])) if vals[k] > best else None

    found = scan(np.linspace(0.0, 1.0, 1024), -math.inf)
    return polish(scan, found, 2.0 / 1023, (0.0, 1.0), 6, 65, 0.25)[0]


RationalLike = Union[Fraction, int]


def a_sequence_recursive(lam: RationalLike, m: int) -> Fraction:
    """A_m by the recursion A_2 = lam, A_m = lam/(m-1) * (1 + sum_{k<m} A_k).

    Exact rational arithmetic: pass lam as Fraction (or int).
    """
    if m < 2:
        raise ValueError("the sequence starts at m = 2")
    lam = Fraction(lam)
    total = Fraction(0)  # running sum of A_2..A_{k}
    a = lam
    for k in range(3, m + 1):
        total += a
        a = lam * (1 + total) / (k - 1)
    return a
