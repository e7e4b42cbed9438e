"""Exact parameterization of admissible Caratheodory moment triples.

A triple (p1, p2, p3) arises from a positive-real-part function
1 + p1 z + p2 z^2 + p3 z^3 + ... with -2 <= p1 <= 2 if and only if

    2 p2 = p1^2 + (4 - p1^2) x
    4 p3 = p1^3 + 2 (4 - p1^2) p1 x - (4 - p1^2) p1 x^2
           + 2 (4 - p1^2) (1 - |x|^2) y

for some x, y in the closed unit disk.  Sampling (p1, x, y) therefore sweeps
the admissible moment body exactly: no rejection step, no false extremal
candidates outside the true coefficient body.  The moments convert to Schwarz
coefficients through w = (q - 1)/(q + 1).

The extremal search maximizes over y in closed form (see oracle), so it
walks (p1, x) only: random rows from random_chunks, as contiguous float64
columns (p1, |x|), which finish_rows turns into (x_re, x_im) for the rows
that score_bound cannot rule out, and (p1, |x|, arg x) grids from
grid_axes through polar_scan and polish, the kernel it shares with
lemmas.y_bruteforce, which scans (|x|, arg x) grids with no p1 axis.
sample_param_arrays (sample_params as objects) draws whole (p1, x, y) random
rows from the same row maps and is the one place where complex arrays are
built, bit for bit from columns that carry the bits numpy's complex
arithmetic gives, signed zeros included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Slack absorbing representation error of boundary points |x| = |y| = 1.
ADMISSIBILITY_TOL = 1e-15

#: Slack for the Schwarz coefficient-body checks.
SCHWARZ_TOL = 1e-12


@dataclass(frozen=True)
class CaratheodoryParams:
    """Parameter triple (p1, x, y) generating an admissible moment triple."""

    p1: float
    x: complex
    y: complex

    def __post_init__(self):
        if not -2.0 <= self.p1 <= 2.0:
            raise ValueError(f"p1 must lie in [-2, 2], got {self.p1}")
        # Negated so that NaN is refused: every comparison with NaN is False.
        if not abs(self.x) <= 1.0 + ADMISSIBILITY_TOL:
            raise ValueError(f"|x| must be <= 1, got {abs(self.x)}")
        if not abs(self.y) <= 1.0 + ADMISSIBILITY_TOL:
            raise ValueError(f"|y| must be <= 1, got {abs(self.y)}")


@dataclass(frozen=True)
class CaratheodoryMoments:
    """Moment triple (p1, p2, p3); construct via caratheodory_moments only."""

    p1: float
    p2: complex
    p3: complex


@dataclass(frozen=True)
class SchwarzCoefficients:
    """Leading coefficients (c1, c2, c3) of a Schwarz function."""

    c1: complex
    c2: complex
    c3: complex


def caratheodory_moments(params: CaratheodoryParams) -> CaratheodoryMoments:
    """Moments (p1, p2, p3) generated by (p1, x, y); admissible by construction."""
    p1, x, y = params.p1, params.x, params.y
    q = 4.0 - p1 * p1
    p2 = 0.5 * (p1 * p1 + q * x)
    p3 = 0.25 * (p1 ** 3 + 2.0 * q * p1 * x - q * p1 * x * x + 2.0 * q * (1.0 - abs(x) ** 2) * y)
    return CaratheodoryMoments(p1=p1, p2=p2, p3=p3)


def caratheodory_to_schwarz(m: CaratheodoryMoments) -> SchwarzCoefficients:
    """Schwarz coefficients of w = (q - 1)/(q + 1) from the moments of q."""
    c1 = m.p1 / 2.0
    c2 = m.p2 / 2.0 - m.p1 * m.p1 / 4.0
    c3 = m.p3 / 2.0 - m.p1 * m.p2 / 2.0 + m.p1 ** 3 / 8.0
    return SchwarzCoefficients(c1=c1, c2=c2, c3=c3)


def validate_schwarz(c: SchwarzCoefficients) -> bool:
    """Check |c1| <= 1 and the Carleson bound |c2| <= 1 - |c1|^2."""
    a1 = abs(c.c1)
    if a1 > 1.0 + SCHWARZ_TOL:
        return False
    return abs(c.c2) <= 1.0 - a1 * a1 + SCHWARZ_TOL


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im, bit for bit (re + 1j*im turns some -0.0 parts into 0.0)."""
    z = np.empty(re.shape, np.complex128)
    z.real = re
    z.imag = im
    return z


def sample_param_arrays(
    seed: int,
    count: int,
    strategy: str,
    fixed_p1: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (p1, x, y) sample arrays; the kernel behind sample_params.

    ``strategy`` must be ``random``: uniform draws mixed with atoms on the
    boundary values (p1 = 2 and 0, |z| = 1 and 0, arg z = 0 and pi), since
    the known extremal witnesses sit on the boundary of the body.  A
    ``fixed_p1`` other than None replaces every p1.

    The output depends only on the arguments, never on call order, and a
    smaller draw is a prefix of a larger one.  The rows come whole from the
    row maps that the search's random rows share; this is the one place
    where complex arrays are built.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if strategy != "random":
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    u = np.random.default_rng(seed).random((count, 10))
    p1 = _p1_draw(u) if fixed_p1 is None else np.full(count, float(fixed_p1))
    x, y = _disk_point(u[:, 2:6]), _disk_point(u[:, 6:10])
    return p1, _complex(*x), _complex(*y)


def grid_axes(count: int):
    """The search grid's levels (p1, |x|, arg x); their product is <= count.

    Each axis starts at 2 levels, so a count below 8 is refused, and the
    axes take turns to grow while the product stays <= count.  arg x grows
    by 2, so that its levels 2 pi k / n hold 0 and, to within an ulp, pi;
    the levels of p1 run from 0 to 2 and those of |x| from 0 to 1.
    """
    steps = (1, 1, 2)
    levels = [2, 2, 2]
    if count < 8:
        raise ValueError(f"a grid needs count >= 8, got {count}")
    grew = True
    while grew:
        grew = False
        for i, step in enumerate(steps):
            if math.prod(levels) // levels[i] * (levels[i] + step) <= count:
                levels[i] += step
                grew = True
    n_p1, n_mod, n_arg = levels
    return np.linspace(0.0, 2.0, n_p1), np.linspace(0.0, 1.0, n_mod), 2.0 * np.pi * np.arange(n_arg) / n_arg


def _polar(mod: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns (re, im) of mod * (cos + i sin), bit for bit numpy's real-by-complex product.

    That product is (mod cos - 0 sin, mod sin + 0 cos).  A zero term leaves
    a nonzero part as it is and can change a zero part only in sign, so the
    zero terms are taken on the zero parts alone: the rows of the
    zero-modulus atom and the imaginary parts at phase 0.
    """
    re, im = mod * cos, mod * sin
    zero = np.flatnonzero(re == 0.0)
    re[zero] -= 0.0 * sin[zero]
    zero = np.flatnonzero(im == 0.0)
    im[zero] += 0.0 * cos[zero]
    return re, im


def _p1_draw(u: np.ndarray) -> np.ndarray:
    """Map uniform rows u[:, 0:2] to p1 in [0, 2] with atoms at 2 and 0."""
    p1 = 2.0 * u[:, 1]
    p1[u[:, 0] < 0.125] = 2.0
    p1[(u[:, 0] >= 0.125) & (u[:, 0] < 0.1875)] = 0.0
    return p1


def _modulus(u: np.ndarray) -> np.ndarray:
    """Map uniform rows u[:, 0:2] to a disk point's modulus, with atoms at 1 and 0."""
    sel = u[:, 0]
    mod = np.where(sel < 0.125, 1.0, u[:, 1])
    mod[(sel >= 0.125) & (sel < 0.1875)] = 0.0
    return mod


def _phase(u: np.ndarray) -> np.ndarray:
    """Map uniform rows u[:, 0:2] to a disk point's phase, with atoms at 0 and pi."""
    selp, valp = u[:, 0], u[:, 1]
    phase = 2.0 * np.pi * valp
    phase[selp < 0.125] = 0.0
    phase[(selp >= 0.125) & (selp < 0.25)] = np.pi
    return phase


def finish_rows(mod: np.ndarray, phase_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (re, im) columns of the disk points of modulus ``mod`` and phase uniforms ``phase_u``.

    Every row is mapped on its own (the phase map, cos, sin and _polar), so
    finishing any subset of a block's rows gives those rows' bits of
    finishing the whole block.
    """
    phase = _phase(phase_u)
    return _polar(mod, np.cos(phase), np.sin(phase))


def _disk_point(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniform rows u[:, 0:4] to the (re, im) columns of a disk point with boundary atoms."""
    return finish_rows(_modulus(u[:, 0:2]), u[:, 2:4])


def random_chunks(seed, count: int, chunk: int):
    """The random search rows as (p1, |x|, phase uniforms) blocks of at most ``chunk`` rows, in order.

    Row k maps 6 uniforms through the (p1, x) maps of sample_params' 10-wide
    random rows, all but the last step: finish_rows(|x|, phase uniforms)
    gives the (Re x, Im x) columns, for the whole block or for any of its
    rows.  So a search can bound a row by score_bound from (p1, |x|) and pay
    for the trigonometry of the rows that may win only.  The blocks
    concatenate to one draw, and a smaller draw is a prefix of a larger one.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, count, chunk):
        u = rng.random((min(chunk, count - start), 6))
        yield _p1_draw(u), _modulus(u[:, 2:4]), u[:, 4:6]


#: Rounding margin of score_bound, relative to |alpha| + |beta| + |gamma| + |kq|.
#: Either scoring route rounds a score by a few dozen units of 2^-53 of that sum.
BOUND_MARGIN = 1e-12

#: Absolute rounding margin of score_bound.  Below |A| ~ 1e-154 the squares in
#: sqrt(re^2 + im^2) are subnormal and each rounds by up to 2^-1075, so the
#: computed |A| can exceed the true one by up to sqrt(3 * 2^-1075) ~ 3e-162,
#: far more than BOUND_MARGIN of the coefficients' sizes.
BOUND_FLOOR = 1e-160


def score_bound(alpha, beta, gamma, kq, r):
    """An upper bound on the computed score |A| + kq (1 - |x|^2) of every x with |x| = r.

    A = alpha + beta x + gamma x^2, so |A| <= |alpha| + |beta| r + |gamma| r^2,
    with equality where every phase aligns.  The bound adds BOUND_MARGIN of
    the coefficients' sizes and BOUND_FLOOR, which cover the rounding of
    polar_scan's and oracle._best_of's scores, subnormal squares included,
    and of |x| against r for a finished random row.  A row whose bound is
    not above the incumbent cannot pass the strict improvement test, so
    skipping it leaves every bit as it is.
    Works on scalars and on broadcasting arrays.
    """
    a, b, g = np.abs(alpha), np.abs(beta), np.abs(gamma)
    r2 = r * r
    margin = BOUND_MARGIN * (a + b + g + np.abs(kq)) + BOUND_FLOOR
    return a + b * r + g * r2 + margin + kq * (1.0 - r2)


def _scores(factors, trig, rows, cols):
    """|A| + kq (1 - r^2) of the block ``rows`` x ``cols`` of a polar grid.

    ``factors`` are the rows' (alpha, beta r, gamma r^2, kq (1 - r^2)),
    alpha a scalar or a column like the others, and ``trig`` the cos t,
    sin t, cos 2t and sin 2t tables.  Every element goes through the same
    operations whatever the block, so a point has the same bits in any block.
    """
    alpha, br, gr2, kr = factors
    cos1, sin1, cos2, sin2 = trig
    re = br[rows] * cos1[cols]
    re += alpha[rows] if np.ndim(alpha) else alpha
    im = br[rows] * sin1[cols]
    re += gr2[rows] * cos2[cols]
    im += gr2[rows] * sin2[cols]
    vals = re * re
    vals += im * im
    np.sqrt(vals, out=vals)
    vals += kr[rows]
    return vals


def polar_scan(coefficients, p1_levels, rs, ts, best: float = -math.inf, chunk: int = 8192):
    """The first point of the grid p1_levels x rs x ts where |A| + kq (1 - r^2) exceeds ``best``.

    A = alpha + beta x + gamma x^2 at x = r e^{it}, with (alpha, beta, gamma,
    kq) = coefficients(p1_levels), each a scalar or one value per level
    (p1_levels None: no p1 axis), from cos/sin tables of t and 2t.  Rows run
    over p1 levels, then radii.  Blocks of at most ``chunk`` points (whole
    rows, or runs of one row's angles) each replace the incumbent only where
    strictly larger: the row-major first maximum at any block size.

    The rows are taken at most ``chunk`` at a time, and only those whose
    score_bound is above the incumbent are scanned, from the incumbent.
    Where they fill more than one block, the row of largest bound is scored
    first, in runs of at most ``chunk`` angles, and the incumbent is lifted
    to the float just below that row's maximum v, where that is higher, so
    the bound keeps fewer rows (one block's rows would cost a block either
    way).  v is a grid score, so it is at most the grid maximum M, and every
    row holding a point of value M is bounded at M or more and kept: the
    scan still returns the first point of value M, ties in earlier rows
    included, and a skipped row has no point that could replace the
    incumbent, so the result keeps every bit.  Returns (value, p1, r, t)
    or None.
    """
    coefs = coefficients(p1_levels)
    trig = np.cos(ts), np.sin(ts), np.cos(2.0 * ts), np.sin(2.0 * ts)
    n_rows = rs.size * (1 if p1_levels is None else p1_levels.size)
    rows, width = max(1, chunk // ts.size), min(chunk, ts.size)
    found = None
    for first in range(0, n_rows, chunk):  # the row factors of at most chunk rows
        level, radius = np.divmod(np.arange(first, min(n_rows, first + chunk)), rs.size)
        r = rs[radius, None]
        alpha, beta, gamma, kq = (c[level, None] if np.ndim(c) else c for c in coefs)
        bound = score_bound(alpha, beta, gamma, kq, r).ravel()
        factors = alpha, beta * r, gamma * (r * r), kq * (1.0 - r * r)
        keep = np.flatnonzero(bound > best)
        if keep.size > rows:  # more than one block: seed the incumbent from the top-bound row
            top = int(np.argmax(bound))
            runs = (slice(col, col + width) for col in range(0, ts.size, width))
            v = max(float(_scores(factors, trig, slice(top, top + 1), cols).max()) for cols in runs)
            best = max(best, math.nextafter(v, -math.inf))
            keep = np.flatnonzero(bound > best)
        level, r = level[keep], r[keep]
        factors = [c[keep] if np.ndim(c) else c for c in factors]
        for start, col in itertools.product(range(0, r.size, rows), range(0, ts.size, width)):
            vals = _scores(factors, trig, slice(start, start + rows), slice(col, col + width))
            i, j = divmod(int(np.argmax(vals)), vals.shape[1])
            if vals[i, j] > best:
                best = float(vals[i, j])
                p1 = None if p1_levels is None else float(p1_levels[level[start + i]])
                found = best, p1, float(r[start + i, 0]), float(ts[col + j])
    return found


def _linspace(k: np.ndarray, start: float, stop: float) -> np.ndarray:
    """np.linspace(start, stop, k.size) bit for bit, from k = np.arange(k.size, dtype=float).

    numpy's own formula: k * step + start with step = (stop - start) / (n - 1),
    or k / (n - 1) * (stop - start) where that step is 0, and the last level
    set to stop.  It skips linspace's argument handling; k.size >= 2.
    """
    div = k.size - 1
    step = (stop - start) / div
    y = k * step if step else k / div * (stop - start)
    y += start
    y[-1] = stop
    return y


def polish(coefficients, incumbent, widths, rounds, levels, shrink, chunk=8192, *, span_disk=False):
    """Rounds of polar_scan on local grids around the incumbent, each ``shrink`` times narrower.

    ``incumbent`` is polar_scan's result and ``widths`` the first half-widths
    (dp1, dr, dt).  A round scans ``levels`` points per axis across c +- w
    around the incumbent, clipping p1 to [0, 2] and r to [0, 1].  With
    ``span_disk`` the t window also spans the disk of radius dr around x
    (all t once it holds 0), which near x = 0 a few t spacings do not.
    """
    k = np.arange(levels, dtype=float)
    dp1, dr, dt = widths
    for _ in range(rounds):
        value, p1, r, t = incumbent
        arc = dt if not span_disk else max(dt, math.asin(dr / r)) if r > dr else math.pi
        p1_levels = None if p1 is None else _linspace(k, max(0.0, p1 - dp1), min(2.0, p1 + dp1))
        rs = _linspace(k, max(0.0, r - dr), min(1.0, r + dr))
        ts = _linspace(k, t - arc, t + arc)
        incumbent = polar_scan(coefficients, p1_levels, rs, ts, value, chunk) or incumbent
        dp1, dr, dt = dp1 * shrink, dr * shrink, dt * shrink
    return incumbent


def sample_params(
    seed: int,
    count: int,
    strategy: str,
    fixed_p1: Optional[float] = None,
) -> list[CaratheodoryParams]:
    """Deterministic admissible parameter triples: the rows of sample_param_arrays as objects."""
    p1, x, y = sample_param_arrays(seed, count, strategy, fixed_p1)
    return [CaratheodoryParams(float(p), complex(a), complex(b)) for p, a, b in zip(p1, x, y)]
