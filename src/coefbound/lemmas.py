"""Closed-form auxiliary functionals and their independent oracles.

Three ingredients used by the theorem-level bounds:

* the piecewise upper bound Phi(mu, nu) for |c3 + mu*c1*c2 + nu*c1^3| over
  Schwarz coefficients, quoted over five regions D1..D5 of the (mu, nu)
  plane (only those quoted pieces are implemented; points outside every
  region raise instead of extrapolating);
* the maximum Y(a, b, c) of |a + b*z + c*z^2| + 1 - |z|^2 over the closed
  unit disk, in closed form and as an independent polar-grid search;
* the sequence A_m defined by A_2 = lam, A_m = lam/(m-1) * (1 + sum A_k),
  together with its closed product form, in exact rational arithmetic.

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

from .schwarz import SchwarzCoefficients

#: Slack on each printed region inequality.
REGION_TOL = 1e-12

#: Radii per block of a y_bruteforce scan; at 1024 angles a block's temporaries fit in cache.
_Y_SCAN_ROWS = 32


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


def y_closed_form(a: float, b: float, c: float) -> YValue:
    """Closed form of max over the disk of |a + b*z + c*z^2| + 1 - |z|^2.

    Valid for a >= 0 and c >= 0: the maximum is a + |b| + c when
    |b| >= 2(1 - c) (attained at z = +-1) and 1 + a + b^2/(4(1 - c))
    otherwise.  At c >= 1 the first condition always holds, so the
    1/(1 - c) singularity is never evaluated.  a, b and c must be finite.
    """
    # Negated so that NaN is refused: every comparison with NaN is False.
    if not (0.0 <= a < math.inf and 0.0 <= c < math.inf and math.isfinite(b)):
        raise ValueError(f"need finite a, c >= 0 and finite b, got a={a}, b={b}, c={c}")
    if abs(b) >= 2.0 * (1.0 - c):
        return YValue(value=a + abs(b) + c, branch="first")
    return YValue(value=1.0 + a + b * b / (4.0 * (1.0 - c)), branch="second")


def y_bruteforce(a: float, b: float, c: float, radial: int = 512, angular: int = 1024) -> float:
    """Grid-search oracle for Y(a, b, c), independent of the closed form.

    Scans a polar grid z = r e^{it} on the closed unit disk, then refines
    locally around the incumbent.  Each scan evaluates the polynomial in
    real arithmetic from cos/sin tables of t and 2t,
    Re = a + b r cos t + c r^2 cos 2t and Im = b r sin t + c r^2 sin 2t,
    over blocks of radii small enough for every temporary to stay in cache.
    Ties resolve to the first grid index, so the result does not depend on
    any internal partitioning.  a, b and c must be finite.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"a, b and c must be finite, got a={a}, b={b}, c={c}")
    if radial < 64 or angular < 128:
        raise ValueError("need radial >= 64 and angular >= 128")

    def scan(rs: np.ndarray, ts: np.ndarray) -> tuple[float, float, float]:
        cos1, sin1, cos2, sin2 = np.cos(ts), np.sin(ts), np.cos(2.0 * ts), np.sin(2.0 * ts)
        best = None
        for start in range(0, rs.size, _Y_SCAN_ROWS):
            r = rs[start : start + _Y_SCAN_ROWS, None]
            br, cr2 = b * r, c * (r * r)
            re = a + br * cos1 + cr2 * cos2
            im = br * sin1 + cr2 * sin2
            vals = np.sqrt(re * re + im * im) + (1.0 - r * r)
            i, j = divmod(int(np.argmax(vals)), ts.size)
            if best is None or vals[i, j] > best[0]:
                best = (float(vals[i, j]), float(r[i, 0]), float(ts[j]))
        return best

    best, r0, t0 = scan(np.linspace(0.0, 1.0, radial), np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False))
    dr = 2.0 / (radial - 1)
    dt = 4.0 * np.pi / angular
    for _ in range(5):
        rs = np.linspace(max(0.0, r0 - dr), min(1.0, r0 + dr), 65)
        ts = np.linspace(t0 - dt, t0 + dt, 65)
        val, rr, tt = scan(rs, ts)
        if val > best:
            best, r0, t0 = val, rr, tt
        dr *= 0.25
        dt *= 0.25
    return best


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
