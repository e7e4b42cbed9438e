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

The extremal search maximizes over y in closed form (see oracle), over arg x
on each circle |x| = r by circle_max and over r at the 4 radii of
level_radii, so level_scan walks p1 alone, through the levels of
grid_chunks, random_chunks and polish.  lemmas.y_bruteforce walks |z|
alone, through circle_max and the same polish.  sample_param_arrays
(sample_params as objects) draws whole (p1, x, y) rows, each disk point
numpy's product of its modulus and its unit phase.
"""

from __future__ import annotations

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
    return CaratheodoryMoments(*_moments(params.p1, params.x, params.y))


def _moments(p1: float, x: complex, y: complex) -> tuple:
    """caratheodory_moments' (p1, p2, p3) from plain numbers, with no parameter check."""
    q = 4.0 - p1 * p1
    p2 = 0.5 * (p1 * p1 + q * x)
    p3 = 0.25 * (p1 ** 3 + 2.0 * q * p1 * x - q * p1 * x * x + 2.0 * q * (1.0 - abs(x) ** 2) * y)
    return p1, p2, p3


def caratheodory_to_schwarz(m: CaratheodoryMoments) -> SchwarzCoefficients:
    """Schwarz coefficients of w = (q - 1)/(q + 1) from the moments of q."""
    return SchwarzCoefficients(*_schwarz_from_moments(m.p1, m.p2, m.p3))


def _schwarz_from_moments(p1: float, p2: complex, p3: complex) -> tuple:
    """caratheodory_to_schwarz's (c1, c2, c3) from plain numbers."""
    c1 = p1 / 2.0
    c2 = p2 / 2.0 - p1 * p1 / 4.0
    c3 = p3 / 2.0 - p1 * p2 / 2.0 + p1 ** 3 / 8.0
    return c1, c2, c3


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
    maps, the p1 map shared with the search's random levels; this is the one
    place where complex arrays are built.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if strategy != "random":
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    u = np.random.default_rng(seed).random((count, 10))
    p1 = _p1_draw(u) if fixed_p1 is None else np.full(count, float(fixed_p1))
    return p1, _disk_point(u[:, 2:6]), _disk_point(u[:, 6:10])


def _p1_draw(u: np.ndarray) -> np.ndarray:
    """Map uniform rows u[:, 0:2] to p1 in [0, 2] with atoms at 2 and 0: twice a disk point's modulus."""
    return 2.0 * _modulus(u)


def _modulus(u: np.ndarray) -> np.ndarray:
    """Map uniform rows u[:, 0:2] to a disk point's modulus, with atoms at 1 and 0."""
    sel = u[:, 0]
    mod = np.where(sel < 0.125, 1.0, u[:, 1])
    mod[(sel >= 0.125) & (sel < 0.1875)] = 0.0
    return mod


def _disk_point(u: np.ndarray) -> np.ndarray:
    """Map uniform rows u[:, 0:4] to disk points with boundary atoms; the phase has atoms at 0 and pi."""
    selp, valp = u[:, 2], u[:, 3]
    phase = 2.0 * np.pi * valp
    phase[selp < 0.125] = 0.0
    phase[(selp >= 0.125) & (selp < 0.25)] = np.pi
    return _modulus(u[:, 0:2]) * _complex(np.cos(phase), np.sin(phase))


def grid_chunks(count: int, chunk: int):
    """The search grid's p1 levels, np.linspace(0, 2, count) bit for bit, in blocks of at most ``chunk``; count >= 2."""
    if count < 2:
        raise ValueError(f"a grid needs count >= 2, got {count}")
    step = 2.0 / (count - 1)  # numpy's: level k is k * step, and the last is 2 exactly
    for first in range(0, count, chunk):
        p1 = np.arange(first, min(first + chunk, count), dtype=float) * step
        if first + chunk >= count:
            p1[-1] = 2.0
        yield p1


def random_chunks(seed, count: int, chunk: int):
    """The seeded search levels in blocks of at most ``chunk``: level k is sample_params' p1 map of row k of one draw."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, chunk):
        yield _p1_draw(rng.random((min(chunk, count - start), 2)))


#: Rounding margin of score_bound, relative to |alpha| + |beta| + |gamma| + |kq|.
#: point_scores, the one scoring formula, rounds a score by a few dozen units of 2^-53 of that sum.
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
    point_scores' scores, subnormal squares included, and of |x| against r
    at circle_max's vertex.  A row whose bound is not above the incumbent
    cannot pass the strict improvement test, so skipping it leaves every
    bit as it is.
    Works on scalars and on broadcasting arrays.
    """
    a, b, g = np.abs(alpha), np.abs(beta), np.abs(gamma)
    r2 = r * r
    margin = BOUND_MARGIN * (a + b + g + np.abs(kq)) + BOUND_FLOOR
    return a + b * r + g * r2 + margin + kq * (1.0 - r2)


def point_scores(alpha, beta, gamma, kq, u, v):
    """(|A| + kq (1 - |x|^2), Re A, Im A) at x = u + i v, with A = alpha + beta x + gamma x^2.

    The search's one scoring formula, in real arithmetic: its canonical and
    settled points (oracle._best_of) and circle_max's candidates go through
    it, so a witness rescored gives its value bit for bit.
    """
    re = alpha + u * (beta + gamma * u) - gamma * (v * v)
    im = v * (beta + 2.0 * gamma * u)
    return np.sqrt(re * re + im * im) + kq * (1.0 - u * u - v * v), re, im


def circle_max(alpha, beta, gamma, kq, r):
    """The largest score on |x| = r, at the point that the maths picks: (score, Re x, Im x, Re A, Im A).

    For real alpha, beta and gamma, at x = r e^{it} and c = cos t,

        |A|^2 = (alpha - gamma r^2)^2 + beta^2 r^2 + L c + M c^2,
        L = 2 beta r (alpha + gamma r^2),  M = 4 alpha gamma r^2,

    a quadratic in c on [-1, 1], and kq (1 - r^2) does not depend on c.  So
    the maximum is at one of three candidates: the vertex c* = -L / (2M) =
    -(beta/gamma) / (4 r) - (beta/alpha) r/4 where M < 0 and |c*| < 1,
    which beats both ends, or else c = 1 where L >= 0 and c = -1 where
    L < 0, since |A|^2 is 2L larger at c = 1 than at c = -1.  Only that
    candidate x = r (c + i sqrt(1 - c^2)) is scored, by point_scores; the
    other two are bounded out.  The signs of M and L are taken from the
    signs of their factors, which cannot underflow as the products can.
    Works on scalars and on broadcasting arrays; np.divide makes Python floats divide by 0 as numpy's.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vertex = -np.divide(beta, gamma) / (4.0 * r) - np.divide(beta, alpha) * (0.25 * r)
    inside = (np.sign(alpha) * np.sign(gamma) < 0.0) & (np.abs(vertex) < 1.0)
    end = np.where(np.sign(beta) * np.sign(alpha + gamma * (r * r)) < 0.0, -1.0, 1.0)
    c = np.where(inside, vertex, end)
    u, v = r * c, r * np.sqrt(1.0 - c * c)
    vals, re, im = point_scores(alpha, beta, gamma, kq, u, v)
    return vals, u, v, re, im


def level_bound(alpha, beta, gamma, kq):
    """score_bound at its peak over r in [0, 1], so above every computed score of the level.

    score_bound is |alpha| + kq + |beta| r - (kq - |gamma|) r^2 plus a margin that covers the
    rounding of r; it peaks at r = |beta| / (2 (kq - |gamma|)) where that is below 1, else at 1.
    """
    b, slack = np.abs(beta), kq - np.abs(gamma)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return score_bound(alpha, beta, gamma, kq, np.where(b < 2.0 * slack, b / (2.0 * slack), 1.0))


def level_radii(alpha, beta, gamma, kq):
    """The 4 radii of each level, one row per level, at one of which circle_max finds the level's maximum.

    With arg x settled, the maximum over r in [0, 1] is at r = 0, r = 1 or a stationary point of
    circle_max's branch.  The end branch c = +-1 scores sigma (alpha + c beta r + gamma r^2) +
    kq (1 - r^2), sigma the bracket's sign, stationary at r = sigma c beta / (2 (kq - sigma gamma)):
    for each sigma the two signs of c give r and -r, so |beta / (2 (kq -+ gamma))|.  The vertex branch
    scores sqrt(A2) |s - alpha/gamma| + kq (1 - s) in s = r^2, A2 = gamma (gamma - beta^2/(4 alpha)),
    linear in s wherever it exists (alpha gamma < 0), so its maximum is at an edge where it meets an
    end branch.  A radius NaN or <= 0 becomes 0, one above 1 becomes 1; a spurious one costs nothing.
    """
    r = np.empty((*np.broadcast(alpha, beta, gamma, kq).shape, 4))
    r[..., 0], r[..., 1] = 0.0, 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # np.divide: numpy's division by 0
        r[..., 2], r[..., 3] = np.divide(beta, 2.0 * (kq - gamma)), np.divide(beta, 2.0 * (kq + gamma))
    r = np.abs(r)
    return np.where(r > 0.0, np.minimum(r, 1.0), 0.0)


def _blocks(arrays, chunk: int):
    """The values of ``arrays`` in order, as blocks of ``chunk`` values; the last holds the rest, maybe none."""
    held = np.empty(0)
    for a in arrays:
        held = np.concatenate([held, a])
        while held.size >= chunk:
            yield held[:chunk]
            held = held[chunk:]
    yield held


def level_scan(coefficients, levels, best: float = -math.inf, chunk: int = 8192):
    """The first p1 level whose maximum exceeds ``best``: (value, p1, r, Re x, Im x, Re A, Im A) or None.

    ``levels`` are arrays of p1, scored in order in blocks of at most ``chunk``, whose (alpha, beta,
    gamma, kq) ``coefficients(p1)`` gives.  Levels whose level_bound is not above the incumbent at
    the start of the block are skipped, and circle_max scores the 4 radii of every other level, so
    the result, the first maximal radius, has the bits of scoring every radius at any block size.
    """
    found = None
    for p1 in _blocks(levels, chunk):
        *coefs, _ = np.broadcast_arrays(*coefficients(p1), p1)
        keep = np.flatnonzero(level_bound(*coefs) > best)
        if not keep.size:
            continue
        p1, coefs = p1[keep], [c[keep] for c in coefs]
        r = level_radii(*coefs)
        vals, *point = circle_max(*(c[:, None] for c in coefs), r)
        i, j = divmod(int(np.argmax(vals)), r.shape[1])
        if vals[i, j] > best:
            found = float(vals[i, j]), float(p1[i]), float(r[i, j]), *(float(a[i, j]) for a in point)
            best = found[0]
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


def polish(scan, incumbent, width, limits, rounds, levels, shrink):
    """Rounds of ``scan`` on local grids around the incumbent, each ``shrink`` times narrower.

    ``incumbent`` is a scan's result, whose entry 1 is its point on the
    scan's one axis (p1, or |z| for lemmas.y_bruteforce).  A round calls
    scan(axis, best) with ``levels`` levels across c +- width around that
    point, clipped to (lo, hi) = ``limits``, and keeps the incumbent where
    the scan finds nothing above.
    """
    k = np.arange(levels, dtype=float)
    lo, hi = limits
    for _ in range(rounds):
        c = incumbent[1]
        incumbent = scan(_linspace(k, max(lo, c - width), min(hi, c + width)), incumbent[0]) or incumbent
        width *= shrink
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
