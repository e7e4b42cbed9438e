"""Brute-force extremal search over the exactly parameterized coefficient body.

Each theorem bound is paired with an independent maximization of the same
functional (|a2|, |a3|, |a4|, |a3 - a2| or |a4 - a3|) over the (p1, x, y)
parameter body, which generates exactly the admissible Caratheodory moment
triples.  A claim is *violated* when the search exceeds the printed bound by
more than the tolerance; violations are findings, never errors, because the
harness exists in part to document transcription defects.

Every functional is affine in y: F = A(p1, x) + k q (1 - |x|^2) y with
q = 4 - p1^2 and k >= 0 (k = 0 for |a2|, |a3| and |a3 - a2|).  So the
maximum over y is |A| + k q (1 - |x|^2), attained at y = A/|A|, and the
search walks (p1, x) only.  A is a quadratic alpha + beta x + gamma x^2 in x
whose coefficients are real polynomials in (lam, p1).  One table,
_COEFFICIENTS, holds them for every functional as terms s_k c lam^i m(p1),
and a difference is two rows subtracted; _quadratic evaluates a row in
floats, or for a difference rounds each coefficient once from its exact
value.  A search computes them once and scores A in real arithmetic
without forming the moments, by schwarz.point_scores.  Its witness is a
full (p1, x, y) triple with that y (y = 1 where A = 0), which
functional_value replays through the moment formulas in exact rational
arithmetic, rounding only |F| once, so a replay checks the table
independently at every lam.

Where the maths settles x, the search scores the rows that hold the
maximum and returns: a later phase could only tie it or beat it by rounding.
That is every pinned search (only the differences pin p1), where the
maximum is the peak of a radial bound on the real axis, and free |a2| and
|a3|, which peak at canonical rows (see _settled_rows).  In the default
report 98 of the 106 records settle; only the 8 free |a4| records run every
phase.

Free |a4| still settles x at each p1: schwarz.circle_max takes the best
of at most three points of each circle |x| = r, and the best circle is at
one of the 4 radii of schwarz.level_radii.  The search walks p1 alone, and
counts each level as its 24 points: 8 candidate radii, each a circle of 3
candidates, of which the maths rules out 4 radii and 2 candidates.

Determinism contract: identical (claim, grids, budget, seed, tolerance,
variant) produce bit-identical reports.  A search scores each phase in
blocks of at most CHUNK_ROWS p1 levels with a running first-index argmax,
and skips the levels whose schwarz.level_bound is not above the incumbent
at the start of their block: it bounds the computed score, rounding
included, so nothing skipped could pass the strict improvement test.
Neither the result nor the memory depends on the block size, ``samples``
counts every point, scored or bounded out, and a search in a run
(single-threaded, drawing its own levels) returns the bits of a
standalone one.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import bounds, series
from .bounds import DEFAULT_PS
from .schwarz import (
    CaratheodoryParams,
    caratheodory_moments,
    caratheodory_to_schwarz,
    grid_chunks,
    level_scan,
    point_scores,
    polish,
    random_chunks,
    sample_param_arrays,  # noqa: F401  (unused here; bench/spans.py wraps it under this name)
)

#: The scalings s_k = lam / _SCALE[cls][k] of a2, a3 and a4 (k = 0, 1, 2).
_SCALE = {"starlike": (2, 4, 6), "convex": (4, 12, 24)}

#: a2 = s2 p1, a3 = s3 ((3 lam/4) p1^2 + (q/2) x) and a4 = s4 ((17 lam^2/48) p1^3
#: + (5 lam/8) q p1 x - (q p1/4) x^2 + (q/2)(1 - |x|^2) y), _coefficient_values at
#: the moments of (p1, x, y), as the (alpha, beta, gamma, k q) of F = alpha + beta x
#: + gamma x^2 + k q (1 - |x|^2) y.  Each is a tuple of terms (k, c, i, m) meaning
#: s_k c lam^i m(p1), with m one of p1, p1^2, p1^3, q = 4 - p1^2 or q p1.
_A2 = ((0, Fraction(1), 0, "p1"),), (), (), ()
_A3 = ((1, Fraction(3, 4), 1, "p1^2"),), ((1, Fraction(1, 2), 0, "q"),), (), ()
_A4 = (
    ((2, Fraction(17, 48), 2, "p1^3"),),
    ((2, Fraction(5, 8), 1, "q p1"),),
    ((2, Fraction(-1, 4), 0, "q p1"),),
    ((2, Fraction(1, 2), 0, "q"),),
)


def _minus(hi, lo):
    """The table row of hi - lo: each coefficient's terms of hi, then those of lo negated."""
    return tuple(h + tuple((k, -c, i, m) for k, c, i, m in l) for h, l in zip(hi, lo))


#: Every functional's row; a difference subtracts two rows, so no formula is written twice.
_COEFFICIENTS = {
    "abs_a2": _A2,
    "abs_a3": _A3,
    "abs_a4": _A4,
    "abs_a3_minus_a2": _minus(_A3, _A2),
    "abs_a4_minus_a3": _minus(_A4, _A3),
}
FUNCTIONAL_KINDS = tuple(_COEFFICIENTS)
_DIFFERENCE_KINDS = ("abs_a3_minus_a2", "abs_a4_minus_a3")

#: Default evaluation budget per (claim, grid point) and violation tolerance.
DEFAULT_BUDGET = 100_000
DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42

#: The budget domain.  Memory does not grow with the budget, so the upper
#: end only keeps a single search to minutes rather than days.
MIN_BUDGET = 1000
MAX_BUDGET = 10**9

#: p1 levels per block of the streaming search; a block's arrays and temporaries stay in cache.
CHUNK_ROWS = 8192

#: First polish half-width in grid spacings; later rounds keep as many of the last's spacings, or half its width.
_POLISH_SPACINGS = 2.0
#: The last polish round's width over the first's, at every budget.
_POLISH_NARROWING = 2.0**-15


@dataclass(frozen=True)
class Functional:
    """A bounded quantity, its class, and (for differences) the pinned p."""

    kind: str
    cls: str
    fixed_p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise ValueError(f"unknown functional {self.kind!r}")
        if self.cls not in bounds.P_MAX:
            raise ValueError(f"unknown class {self.cls!r}")
        if self.kind in _DIFFERENCE_KINDS and self.fixed_p is None:
            raise ValueError(f"{self.kind} constrains f''(0); fixed_p is required")
        if self.kind not in _DIFFERENCE_KINDS and self.fixed_p is not None:
            raise ValueError(f"the |a_{self.kind[-1]}| functional takes no fixed_p")
        if self.fixed_p is not None:
            bounds.check_p(self.fixed_p, self.cls)

    @property
    def effective_p1(self) -> Optional[float]:
        """The p1 value pinned by fixed_p: p for starlike, 2p for convex."""
        if self.fixed_p is None:
            return None
        return self.fixed_p if self.cls == "starlike" else 2.0 * self.fixed_p


def _coefficient_values(lam, p1, p2, p3, cls):
    """a2, a3, a4 from the closed moment formulas; works on scalars or arrays."""
    inner3 = p2 + (3.0 * lam - 2.0) / 4.0 * p1 * p1
    inner4 = p3 + (5.0 * lam - 4.0) / 4.0 * p1 * p2 + (
        17.0 * lam * lam - 30.0 * lam + 12.0
    ) / 48.0 * p1 ** 3
    if cls == "starlike":
        return 0.5 * lam * p1, 0.25 * lam * inner3, lam / 6.0 * inner4
    return 0.25 * lam * p1, lam / 12.0 * inner3, lam / 24.0 * inner4


def _quadratic(fn: Functional, lam, p1):
    """fn's row of _COEFFICIENTS at (lam, p1): (alpha, beta, gamma, k q), 0.0 where it has no term.

    Real scalars for a scalar p1, arrays for an array.  A free kind has one
    term per coefficient, evaluated in floats.  A difference's terms cancel
    near their zeros (in floats starlike |a4 - a3|'s alpha lost 49 ulps at
    p1 = 2, lam = 1.5625), and a pinned search reads its maximum from them,
    so _exact_row rounds each coefficient once, row by row for an array.
    """
    scale, row = _SCALE[fn.cls], _COEFFICIENTS[fn.kind]
    if fn.kind in _DIFFERENCE_KINDS:
        exact = functools.partial(_exact_row, row, scale, float(lam))
        if isinstance(p1, np.ndarray):
            return tuple(np.array([exact(v) for v in np.ravel(p1).tolist()]).reshape(-1, 4).T)
        return exact(float(p1))
    square = p1 * p1
    q = 4.0 - square
    m = {"p1": p1, "p1^2": square, "p1^3": square * p1, "q": q, "q p1": q * p1}

    def term(k, c, i, name):  # (lam / D) ((c lam ... lam) m), one order of operations for every p1
        return (lam / scale[k]) * (math.prod([c.numerator / c.denominator, *[lam] * i]) * m[name])

    return tuple(term(*terms[0]) if terms else 0.0 for terms in row)


def _exact_row(row, scale, lam: float, p1: float):
    """A row's four at one p1, each rounded once from its exact value.

    With lam = L/A and p1 = P/B, the term s_k c lam^i m(p1) is c L^(i+1) A^(2-i) M / (D (A B)^3),
    M = B^3 m(p1) an integer, so a coefficient is one integer over another: int / int rounds once.
    """
    (lnum, a), (pnum, b) = lam.as_integer_ratio(), p1.as_integer_ratio()
    qnum = 4 * b * b - pnum * pnum  # q = qnum / b^2
    m = {"p1": pnum * b * b, "p1^2": pnum * pnum * b, "p1^3": pnum**3, "q": qnum * b, "q p1": qnum * pnum}
    lams = lnum * a * a, lnum * lnum * a, lnum**3  # lam^(i+1) a^3
    out = []
    for terms in row:
        num, den = 0, 1  # the coefficient times (a b)^3
        for k, c, i, name in terms:
            n, d = lams[i] * c.numerator * m[name], scale[k] * c.denominator
            num, den = num * d + n * den, den * d
        out.append(num / (den * (a * b) ** 3))
    return tuple(out)


def _maximizing_y(a: complex) -> complex:
    """A y of the unit circle that maximizes |a + c y| for every c >= 0: a/|a|, or 1 if a = 0."""
    if not a:
        return 1.0 + 0.0j
    a /= max(abs(a.real), abs(a.imag))  # a subnormal a would give |y| off 1 by up to 1e-11
    return a / abs(a)


def _exact_functional(fn: Functional, lam: float, params: CaratheodoryParams):
    """The complex functional F at (p1, x, y) as exact (Re F, Im F); like _quadratic, it never reads fixed_p.

    lam and the parameters' floats are read as Fractions, and p2, p3, a2..a4
    and F are formed from the moment formulas in rational arithmetic, as
    [re, im] pairs.
    """
    lam, p = Fraction(lam), Fraction(params.p1)
    u, v, *y = map(Fraction, (params.x.real, params.x.imag, params.y.real, params.y.imag))
    q, x, x2, one = 4 - p * p, [u, v], [u * u - v * v, 2 * u * v], [1, 0]
    ky = 2 * q * (1 - u * u - v * v)
    p2 = [(p * p * one[i] + q * x[i]) / 2 for i in (0, 1)]
    p3 = [(p**3 * one[i] + 2 * q * p * x[i] - q * p * x2[i] + ky * y[i]) / 4 for i in (0, 1)]
    c3, c4 = (3 * lam - 2) / 4 * p * p, (17 * lam**2 - 30 * lam + 12) / 48 * p**3
    inner3 = [p2[i] + c3 * one[i] for i in (0, 1)]
    inner4 = [p3[i] + (5 * lam - 4) / 4 * p * p2[i] + c4 * one[i] for i in (0, 1)]
    s2, s3, s4 = (lam / 2, lam / 4, lam / 6) if fn.cls == "starlike" else (lam / 4, lam / 12, lam / 24)
    a2, a3, a4 = [s2 * p, Fraction(0)], [s3 * w for w in inner3], [s4 * w for w in inner4]
    f = {"abs_a2": a2, "abs_a3": a3, "abs_a4": a4, "abs_a3_minus_a2": (a3, a2), "abs_a4_minus_a3": (a4, a3)}
    return f[fn.kind] if fn.kind not in _DIFFERENCE_KINDS else [hi - lo for hi, lo in zip(*f[fn.kind])]


def _nearest_sqrt(square: Fraction) -> float:
    """The float nearest sqrt(square), rounded once.

    Scaled by 4^e, the root has at least 56 bits, three more than a float
    keeps, so isqrt's floor with a sticky lowest bit where the root is
    inexact rounds as the root does; Python's int / int rounds it once,
    at subnormal results too.
    """
    n, d = square.numerator, square.denominator
    e = max(0, (112 + d.bit_length() - n.bit_length()) // 2)
    scaled, rest = divmod(n << 2 * e, d)
    root = math.isqrt(scaled)
    return (root | (rest != 0 or root * root != scaled)) / (1 << e)


def functional_value(fn: Functional, lam: float, params: CaratheodoryParams) -> float:
    """|F| at one parameter point, the float nearest its exact value (fixed_p overrides p1).

    The one replay of a witness: _exact_functional forms F from the moment
    formulas, which share nothing with the search's _quadratic, and only
    |F| is rounded, so a replay holds at every lam, where float moments
    would cancel.
    """
    bounds.check_lambda(lam)
    if fn.effective_p1 is not None:
        params = CaratheodoryParams(fn.effective_p1, params.x, params.y)
    re, im = _exact_functional(fn, lam, params)
    return _nearest_sqrt(re * re + im * im)


def check_budget(budget: int, name: str = "budget") -> None:
    """Raise ValueError unless MIN_BUDGET <= budget <= MAX_BUDGET; ``name`` labels it."""
    if not MIN_BUDGET <= budget <= MAX_BUDGET:
        raise ValueError(f"{name} must lie in [{MIN_BUDGET}, {MAX_BUDGET}], got {budget}")


def check_seed(seed: int, name: str = "seed") -> None:
    """Raise ValueError unless seed >= 0, as numpy's generators require."""
    if seed < 0:
        raise ValueError(f"{name} must be nonnegative, got {seed}")


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless tol is finite and >= 0.

    With NaN or inf the violation test oracle_max > bound + tol is never true.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {tol}")


def _read_only(*columns):
    """The columns, made read-only: module constants that every search shares."""
    for column in columns:
        column.flags.writeable = False
    return columns


#: Re and Im of x in {0, 1, -1, i, -i}; -1j has real part -0.0.
_UNITS_RE, _UNITS_IM = _read_only(np.array([0.0, 1.0, -1.0, 0.0, -0.0]), np.array([0.0, 0.0, 0.0, 1.0, -1.0]))

#: The canonical witnesses (p1, Re x, Im x) of free p1: p1 in {0, 1, 2} times x in {0, +-1, +-i}.
_CANONICAL = _read_only(np.repeat([0.0, 1.0, 2.0], _UNITS_RE.size), np.tile(_UNITS_RE, 3), np.tile(_UNITS_IM, 3))


def _canonical_rows(fn: Functional):
    """fn's canonical witnesses (p1, Re x, Im x): _CANONICAL, or pinned, x in {0, +-1, +-i} at the scalar p1."""
    eff = fn.effective_p1
    return _CANONICAL if eff is None else (float(eff), _UNITS_RE, _UNITS_IM)


def _schedule(budget: int):
    """(grid levels, random levels, polish levels m, rounds, shrink s) of a budget.

    A search scores the 15 canonical points and (budget - 15) // 24 p1 levels of 24 points (8 radii of
    3 candidates each; level_radii rules 4 radii out in closed form, circle_max 2 candidates).  The
    polish takes the fewest rounds of m >= 3 levels, at most levels // 8 // rounds and no more than s
    needs, with s^(rounds - 1) = _POLISH_NARROWING and s >= min(0.5, 2 _POLISH_SPACINGS / (m - 1));
    below budget 1,551, as many rounds of 3 levels, s = 1/2, as three quarters of the levels hold.  The
    grid takes three quarters of the rest, the draws the rest.
    """
    levels = (budget - 3 * _UNITS_RE.size) // 24
    for rounds in itertools.count(2):
        # no more levels than reaching the narrowing in these rounds needs, so a round stays small
        need = math.ceil(2.0 * _POLISH_SPACINGS / _POLISH_NARROWING ** (1.0 / (rounds - 1))) + 1
        m = max(3, min(levels // 8 // rounds, need))
        floor = min(0.5, 2.0 * _POLISH_SPACINGS / (m - 1))
        if floor ** (rounds - 1) <= _POLISH_NARROWING or (rounds + 1) * m > levels * 3 // 4:
            break
    rest = levels - rounds * m
    shrink = max(floor, _POLISH_NARROWING ** (1.0 / (rounds - 1)))
    return rest * 3 // 4, rest - rest * 3 // 4, m, rounds, shrink


def _settled_rows(fn: Functional, coefs):
    """The candidate rows (p1, Re x, Im x) that hold the maximum of |F| over the whole body, or None.

    ``coefs`` are _quadratic's four at the canonical rows' p1.  Where the
    maths settles x, the rows are the canonical ones, and pinned at an
    interior peak one more row after them, so the canonical witnesses keep
    exact ties.  None means the maths does not settle x and every phase runs;
    that is free |a4| alone, since every pinned functional settles.

    Pinned, the search scores |alpha + beta x + gamma x^2| + k q (1 - |x|^2)
    with real scalar coefficients, and by the triangle inequality that is at
    most B(r) = |alpha| + |beta| r + |gamma| r^2 + k q (1 - r^2) on |x| = r.
    If alpha gamma >= 0, the real x = s r with s = +-1 such that beta s has
    the sign of alpha + gamma makes alpha, beta x and gamma x^2 share one
    sign, so it scores B(r): B is attained on every circle, and the maximum
    over the disk is the peak of B on [0, 1].  B(r) = |alpha| + k q +
    |beta| r - (k q - |gamma|) r^2 peaks at r = 1 when k q <= |gamma| or
    |beta| >= 2 (k q - |gamma|); a canonical x = +-1 then scores
    |alpha + gamma +- beta| = B(1).  Otherwise it peaks at
    r* = |beta| / (2 (k q - |gamma|)) < 1 with the value
    |alpha| + k q + beta^2 / (4 (k q - |gamma|)), and the row (s r*, 0)
    scores it up to rounding; an error d in r* costs only
    (k q - |gamma|) d^2.  This is the a, c >= 0 case of the Choi-Kim-Sugawa
    Y lemma in normalized form.  The sign test compares alpha and gamma
    with 0, not their product, which can underflow to a zero of either
    sign, and k q - |gamma| is tested before the division: at p1 = 2 it is 0.

    Only the differences are pinned (see Functional), and both pass the
    test at every admissible (lam, p): |a3 - a2| has gamma = 0, and
    |a4 - a3| has gamma = -s4 q p1/4 <= 0 and alpha <= 0 (see the tests).
    A pinned functional that failed it would have no search left to run,
    so that raises.

    Free, |a2| = s2 p1 does not depend on x and peaks at p1 = 2, and |a3| =
    s3 |(3 lam/4) t + ((4 - t)/2) x| with t = p1^2 in [0, 4] is at most
    s3 ((3 lam/4) t + (4 - t)/2), which is affine in t, so it peaks at t = 0
    (2 s3, at x = +-1) or t = 4 (3 lam s3, every x).  Each of these maxima
    is a canonical row, scored as the computed |alpha + gamma +- beta| or
    |s2 p1| itself: sqrt(r * r) is |r| in binary64 where r * r neither
    underflows nor overflows, and 1 - u^2 - v^2 is 0 at x = +-1.  The later
    phases score the same coefficients, so they could only tie it or beat it
    by rounding.
    """
    p1, u, v = _canonical_rows(fn)
    if fn.effective_p1 is None:
        return (p1, u, v) if fn.kind in ("abs_a2", "abs_a3") else None
    alpha, beta, gamma, kq = coefs
    if not (min(alpha, gamma) >= 0.0 or max(alpha, gamma) <= 0.0):  # alpha gamma < 0
        raise ArithmeticError(f"{fn} has alpha gamma < 0 at {coefs}; its radial bound settles nothing")
    slack = kq - abs(gamma)
    if slack <= 0.0 or abs(beta) >= 2.0 * slack:
        return p1, u, v
    s = 1.0 if (beta >= 0.0) == (alpha + gamma >= 0.0) else -1.0
    return p1, np.append(u, s * (abs(beta) / (2.0 * slack))), np.append(v, 0.0)


def _best_of(coefs, p1, u, v):
    """The first largest |A| + k q (1 - |x|^2) of the rows (p1, u + i v): (value, p1, r, Re x, Im x, Re A, Im A).

    ``coefs`` are _quadratic's four at ``p1``, a pinned scalar or a column,
    and schwarz.point_scores scores the rows, so a witness rescored gives
    its value bit for bit.  r = |x|; the tuple is schwarz.level_scan's format.
    """
    vals, re, im = point_scores(*coefs, u, v)
    i = int(np.argmax(vals))
    p1, u, v = float(p1[i] if isinstance(p1, np.ndarray) else p1), float(u[i]), float(v[i])
    return float(vals[i]), p1, math.hypot(u, v), u, v, float(re[i]), float(im[i])


@dataclass(frozen=True)
class SearchResult:
    value: float
    witness: CaratheodoryParams
    samples: int


def extremal_search(
    fn: Functional,
    lam: float,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> SearchResult:
    """Maximize the functional over the admissible parameter body.

    Each candidate is a (p1, x) pair scored by its maximum over y (see the
    module docstring).  Where the maths settles x (see _settled_rows; 98 of
    the default report's 106 records) the search scores the rows that hold
    the maximum and returns, with the budget as ``samples``, building no
    schedule and drawing nothing.  Free |a4| runs every phase of _schedule:
    the 15 canonical witnesses, one stream of a p1 grid and seeded p1 draws
    (atoms at 0 and 2), then polish rounds of local p1 grids.  Every score
    is its witness's own, and only a strict improvement replaces the
    incumbent, so canonical witnesses win exact ties.  ``samples`` is then
    15 + 24 levels.  ``budget`` must lie in [MIN_BUDGET, MAX_BUDGET],
    ``seed`` >= 0.
    """
    bounds.check_lambda(lam)
    check_budget(budget)
    check_seed(seed)
    p1, u, v = _canonical_rows(fn)
    coefs = _quadratic(fn, lam, p1)
    settled = _settled_rows(fn, coefs)
    if settled is not None:
        return _search_result(_best_of(coefs, *settled), budget)
    found = _best_of(coefs, p1, u, v)
    grid, draws, m, rounds, shrink = _schedule(budget)
    coefficients = functools.partial(_quadratic, fn, lam)
    levels = itertools.chain(grid_chunks(grid, CHUNK_ROWS), random_chunks(seed, draws, CHUNK_ROWS))
    found = level_scan(coefficients, levels, found[0], CHUNK_ROWS) or found
    def scan(p1, best):  # a polish round, on free p1 in [0, 2]: a rotation makes p1 >= 0
        return level_scan(coefficients, [p1], best, CHUNK_ROWS)
    found = polish(scan, found, _POLISH_SPACINGS * 2.0 / (grid - 1), (0.0, 2.0), rounds, m, shrink)
    return _search_result(found, u.size + 24 * (grid + draws + rounds * m))


def _search_result(found, samples: int) -> SearchResult:
    """The result of a (value, p1, r, Re x, Im x, Re A, Im A) tuple, y maximizing over the circle."""
    best, p1, _, u, v, re, im = found
    y = _maximizing_y(complex(re, im))
    # + 0.0 turns a zero of either sign into 0.0 and keeps every other value,
    # so no witness field is a negative zero (A = -0.0i gave y = 1 - 0.0i)
    return SearchResult(
        value=best,
        witness=CaratheodoryParams(p1 + 0.0, complex(u + 0.0, v + 0.0), complex(y.real + 0.0, y.imag + 0.0)),
        samples=samples,
    )


#: Output keys that are not their field's name.
_OUTPUT_KEYS = {"lam": "lambda", "cls": "class"}

#: A witness (p1, x, y) nested in a report record.
_WITNESS_KEYS = ("p1", "x_re", "x_im", "y_re", "y_im")


@functools.lru_cache(maxsize=None)
def _field_keys(cls) -> tuple[tuple[str, str], ...]:
    """(field name, output key) of a record dataclass, in declaration order; lam is "lambda", cls "class"."""
    return tuple((f.name, _OUTPUT_KEYS.get(f.name, f.name)) for f in fields(cls))


def record_dict(record) -> dict:
    """A record dataclass as its output row: one key per field, as _field_keys names them."""
    return {key: getattr(record, name) for name, key in _field_keys(type(record))}


@dataclass(frozen=True)
class VerificationReport:
    """One claim at one grid point: printed bound versus searched maximum."""

    claim_id: str
    lam: float
    p: Optional[float]
    bound: float
    branch: str
    oracle_max: float
    witness: CaratheodoryParams
    gap: float
    violation: bool
    samples: int
    seed: int
    duration_ms: int
    variant: Optional[str]

    def to_dict(self) -> dict:
        """record_dict's row, with the witness nested under _WITNESS_KEYS."""
        d, w = record_dict(self), self.witness
        d["witness"] = dict(zip(_WITNESS_KEYS, (w.p1, w.x.real, w.x.imag, w.y.real, w.y.imag)))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        kw = {name: d[key] for name, key in _field_keys(cls)}
        w = kw["witness"]
        kw["witness"] = CaratheodoryParams(
            w["p1"], complex(w["x_re"], w["x_im"]), complex(w["y_re"], w["y_im"])
        )
        return cls(**kw)


@dataclass(frozen=True)
class ClaimDef:
    """Registry entry: functional, bound evaluator inputs, default grids."""

    claim_id: str
    kind: str
    cls: str
    n: Optional[int]
    which: Optional[str]
    default_lambdas: tuple[float, ...]
    default_ps: Optional[tuple[float, ...]]
    pinned_variant: Optional[str] = None


_FULL_GRID = (0.3, 0.6, 1.0, 1.4)

# Default lambda grids probe every branch that the in-paper anchors confirm.
# The |a4| bounds are probed inside (1/5, ~0.51] as well, where the printed
# second branch drops below the z^3 witness value lam/3: that documented
# defect is carried by the starlike claim (thm3.1-a4); the convex |a4| grid
# stays on anchor-confirmed branches so the default report names exactly the
# two known-defective claims.
CLAIMS: dict[str, ClaimDef] = {
    c.claim_id: c
    for c in [
        ClaimDef("thm3.1-a2", "abs_a2", "starlike", 2, None, _FULL_GRID, None),
        ClaimDef("thm3.1-a3", "abs_a3", "starlike", 3, None, _FULL_GRID, None),
        ClaimDef("thm3.1-a4", "abs_a4", "starlike", 4, None, (0.1, 0.21, 0.3, 1.0, 1.4), None),
        ClaimDef("thm3.2-a2", "abs_a2", "convex", 2, None, _FULL_GRID, None),
        ClaimDef("thm3.2-a3", "abs_a3", "convex", 3, None, _FULL_GRID, None),
        ClaimDef("thm3.2-a4", "abs_a4", "convex", 4, None, (0.1, 1.0, 1.4), None),
        ClaimDef("thm3.3-d32", "abs_a3_minus_a2", "starlike", None, "d32", _FULL_GRID, DEFAULT_PS["starlike"]),
        ClaimDef("thm3.3-d43", "abs_a4_minus_a3", "starlike", None, "d43", _FULL_GRID, DEFAULT_PS["starlike"]),
        ClaimDef(
            "thm3.3-d43-psi2-statement",
            "abs_a4_minus_a3",
            "starlike",
            None,
            "d43",
            (1.0, 1.4),
            (2.0,),
            pinned_variant="statement",
        ),
        ClaimDef("thm3.5-d32", "abs_a3_minus_a2", "convex", None, "d32", _FULL_GRID, DEFAULT_PS["convex"]),
        ClaimDef("thm3.5-d43", "abs_a4_minus_a3", "convex", None, "d43", _FULL_GRID, DEFAULT_PS["convex"]),
    ]
}


def _verify_points(
    points: Sequence[tuple[ClaimDef, float, Optional[float]]],
    budget: int,
    seed: int,
    tol: float,
    psi2_variant: str,
) -> list[VerificationReport]:
    """One report per (claim, lam, p) point, in the order given."""
    check_tol(tol)
    bounds.check_psi2_variant(psi2_variant)
    reports = []
    for claim, lam, p in points:
        fn = Functional(kind=claim.kind, cls=claim.cls, fixed_p=p)
        t0 = time.perf_counter()
        result = extremal_search(fn, lam, budget=budget, seed=seed)
        b = bounds.bound(
            claim.cls, lam, claim.n, claim.which, p, claim.pinned_variant or psi2_variant
        )
        gap = b.value - result.value
        duration_ms = int((time.perf_counter() - t0) * 1000.0)
        reports.append(
            VerificationReport(
                claim_id=claim.claim_id,
                lam=lam,
                p=p,
                bound=b.value,
                branch=b.branch,
                oracle_max=result.value,
                witness=result.witness,
                gap=gap,
                violation=bool(result.value > b.value + tol),
                samples=result.samples,
                seed=seed,
                duration_ms=duration_ms,
                variant=b.variant,
            )
        )
    return reports


def _claim_points(claim: ClaimDef, lam_grid, p_grid) -> list:
    """(claim, lam, p) per grid point, lam outer and p inner; a grid of None is the claim's default."""
    lams = tuple(lam_grid) if lam_grid is not None else claim.default_lambdas
    if not lams:
        raise ValueError(f"{claim.claim_id} was given an empty lambda grid")
    if claim.default_ps is None:
        if p_grid is not None:
            raise ValueError(f"{claim.claim_id} takes no p grid")
        ps: Sequence[Optional[float]] = (None,)
    else:
        ps = tuple(p_grid) if p_grid is not None else claim.default_ps
        if not ps:
            raise ValueError(f"{claim.claim_id} constrains f''(0); a p grid is required")
    return [(claim, lam, p) for lam in lams for p in ps]


def verify_claim(
    claim_id: str,
    lam_grid: Optional[Sequence[float]] = None,
    p_grid: Optional[Sequence[float]] = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    psi2_variant: str = "proof",
) -> list[VerificationReport]:
    """Run the extremal oracle against one registered claim over a grid.

    Emits one report per grid point, lam outer and p inner.  A grid of None
    is the claim's default; an empty grid, or a p grid for a claim that
    takes no p, raises ValueError.  The violation flag is exactly
    oracle_max > bound + tol; violations never abort the run.
    """
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}; registered: {sorted(CLAIMS)}")
    points = _claim_points(CLAIMS[claim_id], lam_grid, p_grid)
    return _verify_points(points, budget, seed, tol, psi2_variant)


def run_claim_suite(
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    psi2_variant: str = "proof",
) -> list[VerificationReport]:
    """Every registered claim over its default grids, in registry order."""
    points = [point for claim in CLAIMS.values() for point in _claim_points(claim, None, None)]
    return _verify_points(points, budget, seed, tol, psi2_variant)


def series_cross_check(lam: float, cls: str, params: CaratheodoryParams) -> float:
    """Max deviation between the closed coefficient formulas and the series engine.

    Builds the Schwarz expansion from the parameters, recovers a2..a4 through
    the subordination series, and compares against the moment formulas the
    oracle maximizes.  The two routes share no code path.
    """
    m = caratheodory_moments(params)
    c = caratheodory_to_schwarz(m)
    omega = series.TruncatedSeries([0.0, c.c1, c.c2, c.c3])
    a_series = series.coefficients_from_schwarz(omega, lam, cls, 4).tolist()
    closed = _coefficient_values(lam, m.p1, m.p2, m.p3, cls)
    return max(abs(s - c) for s, c in zip(a_series, closed))


#: Samples general_bound_probe expands per block of series arithmetic: a
#: block holds a few (PROBE_BLOCK, n_max + 1) complex arrays, whatever ``samples`` is.
PROBE_BLOCK = 512


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a random-Blaschke sweep against the general bounds."""

    lam: float
    n_max: int
    samples: int
    seed: int
    violations: int
    max_cn_excess: float
    max_an_excess: float


def general_bound_probe(
    lam: float, n_max: int = series.DEFAULT_ORDER, samples: int = 500, seed: int = DEFAULT_SEED
) -> ProbeReport:
    """Probe the subordination coefficient bound and the general |a_n| bounds.

    Draws random Blaschke-type Schwarz functions of degree <= 3, expands
    exp(lam*w), and checks |c_n| <= lam + 1e-12 for n <= n_max plus
    |a_n| <= the product bound + 1e-9 for both classes.  Positive excesses
    are violations; the maxima are reported either way.  ``n_max`` must lie
    in [2, series.DEFAULT_ORDER], ``samples`` must be positive and ``seed``
    nonnegative; all are checked before the first draw.

    The samples are drawn one at a time, in one rng stream, and their series
    are computed PROBE_BLOCK rows at a time through the series engine's row
    helpers, so memory stays bounded for any ``samples``.  Every row has the
    bits the engine gives one sample, so the report is the same as a loop
    over exp_series and ratio_to_coefficients would give.
    """
    bounds.check_lambda(lam)
    if samples < 1:  # a probe of nothing would read as a pass
        raise ValueError(f"samples must be positive, got {samples}")
    check_seed(seed)
    if not 2 <= n_max <= series.DEFAULT_ORDER:  # a2 is the first coefficient it bounds
        raise ValueError(f"n_max must lie in [2, {series.DEFAULT_ORDER}], got {n_max}")
    rng = np.random.default_rng(seed)
    ns = np.arange(2, n_max + 1)
    star_bounds = np.array([bounds.general_coeff_bound("starlike", n, lam) for n in range(2, n_max + 1)])
    conv_bounds = star_bounds / ns
    violations = 0
    max_cn_excess = -np.inf
    max_an_excess = -np.inf
    for start in range(0, samples, PROBE_BLOCK):
        scaled = np.empty((min(PROBE_BLOCK, samples - start), n_max + 1), dtype=np.complex128)
        for row in scaled:
            degree = int(rng.integers(0, 4))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            moduli = rng.uniform(0.0, 0.97, degree)
            phases = rng.uniform(0.0, 2.0 * np.pi, degree)
            zeros = moduli * np.exp(1j * phases)
            row[:] = lam * series.blaschke_schwarz(theta, list(zeros), n_max).coeffs
        series._check_finite(scaled)
        e = series._exp_rows(scaled)
        series._check_finite(e)
        cn_excess = np.abs(e[:, 1:]).max(axis=1) - lam
        e[:, 0] -= 1.0  # exp(lam*w) - 1, exactly as subtracting unit_series
        a_star = np.abs(series._ratio_rows(e, n_max))
        an_excess = np.maximum((a_star - star_bounds).max(axis=1), (a_star / ns - conv_bounds).max(axis=1))
        violations += int(np.count_nonzero(cn_excess > 1e-12) + np.count_nonzero(an_excess > 1e-9))
        max_cn_excess = max(max_cn_excess, float(cn_excess.max()))
        max_an_excess = max(max_an_excess, float(an_excess.max()))
    return ProbeReport(
        lam=lam,
        n_max=n_max,
        samples=samples,
        seed=seed,
        violations=violations,
        max_cn_excess=max_cn_excess,
        max_an_excess=max_an_excess,
    )
