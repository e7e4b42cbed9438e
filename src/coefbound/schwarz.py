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

The extremal search maximizes over y in closed form (see oracle), so its
block generators draw (p1, x) only, as contiguous float64 columns
(p1, x_re, x_im); a pinned p1 is not drawn, and its blocks carry p1 = None.
sample_param_arrays draws whole (p1, x, y) rows from the same row maps and
is the one place where complex arrays are built, bit for bit from columns
that carry the bits numpy's complex arithmetic gives, signed zeros included.
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


def _project_disk(re: np.ndarray, im: np.ndarray) -> None:
    """Radially project the points re + i im onto the closed unit disk, in place.

    Bit for bit np.where(np.abs(z) > 1, z / np.abs(z), z), on the rows that
    can leave the disk only.  re^2 + im^2 is within a few ulp of |z|^2, so a
    screen well below 1 misses no row whose numpy complex modulus r exceeds
    1; the candidates take r as exactly that modulus, which neither hypot
    nor sqrt(re^2 + im^2) reproduces.  numpy divides a complex by a real r
    as ((re + im*0) * (1/r), (im - re*0) * (1/r)); the zero terms only
    change the sign of a zero part.
    """
    rows = np.flatnonzero(re * re + im * im > 1.0 - 1e-12)
    if rows.size == 0:
        return
    zr, zi = re[rows], im[rows]
    r = np.abs(_complex(zr, zi))
    out = r > 1.0
    if not out.all():
        rows, zr, zi, r = rows[out], zr[out], zi[out], r[out]
    inv = 1.0 / r
    re[rows] = (zr + zi * 0.0) * inv
    im[rows] = (zi - zr * 0.0) * inv


def sample_param_arrays(
    seed: int,
    count: int,
    strategy: str,
    fixed_p1: Optional[float] = None,
    center: Optional[CaratheodoryParams] = None,
    radius: float = 0.3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (p1, x, y) sample arrays; the kernel behind sample_params.

    ``grid`` stratifies p1 in [0, 2] (the theorems normalize p1 >= 0) and the
    polar coordinates of x and y, with moduli including exactly 0 and 1 and
    phases including exactly 0 and pi; grid corners such as (2, 1, 1) are
    always present.  Actual grid size is the largest level product <= count.

    ``random`` mixes uniform draws with atoms on the boundary values, since
    the known extremal witnesses sit on the boundary of the body.

    ``refine-around`` perturbs ``center`` locally: |p1' - p1| <= 2*radius,
    |x' - x| <= radius and |y' - y| <= radius (clipping and disk projection
    only shrink distances); ``radius`` must be finite and positive.

    The output depends only on the arguments, never on call order.  Each
    strategy draws its rows whole, from the row maps of the search's block
    generators; this is the one place where complex arrays are built.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if strategy == "grid":
        levels = _axis_levels(count, fixed_p1)
        p1_levels = np.linspace(0.0, 2.0, levels.pop(0)) if fixed_p1 is None else [fixed_p1]
        axes = (*_disk_axes(*levels[:2]), *_disk_axes(*levels[2:]))
        p1, mx, ax, my, ay = (g.ravel() for g in np.meshgrid(p1_levels, *axes, indexing="ij"))
        x, y = _polar(mx, np.cos(ax), np.sin(ax)), _polar(my, np.cos(ay), np.sin(ay))
    elif strategy == "random":
        u = np.random.default_rng(seed).random((count, 10))
        p1 = _p1_draw(u)
        x, y = _modulus_and_phase(u[:, 2:6]), _modulus_and_phase(u[:, 6:10])
    elif strategy == "refine-around":
        if center is None:
            raise ValueError("refine-around requires a center")
        if not 0.0 < radius < math.inf:
            raise ValueError(f"refine-around radius must be finite and positive, got {radius}")
        u = np.random.default_rng(seed).random((count, 6))
        dx, dy = _offset(u[:, 1:3], radius), _offset(u[:, 3:5], radius)
        p1, *x = refine_around((_dp1(u, radius), *dx), (center.p1, center.x.real, center.x.imag))
        _, *y = refine_around((None, *dy), (None, center.y.real, center.y.imag))
    else:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    if fixed_p1 is not None:
        p1 = np.full(p1.size, float(fixed_p1))
    return p1, _complex(*x), _complex(*y)


def _axis_levels(count: int, fixed_p1: Optional[float], points: int = 2) -> list[int]:
    # Axes: p1, then |z| and arg z of each of ``points`` disk points; a
    # fixed_p1 other than None drops the p1 axis.  Phase axes keep even
    # level counts so that 0 and pi are both hit.
    first = 0 if fixed_p1 is not None else 1
    n_axes = first + 2 * points
    levels = [2] * n_axes
    if math.prod(levels) > count:
        return levels
    grew = True
    while grew:
        grew = False
        for i in range(n_axes):
            is_phase = i >= first and (i - first) % 2 == 1
            step = 2 if is_phase else 1
            trial = list(levels)
            trial[i] += step
            if math.prod(trial) <= count:
                levels = trial
                grew = True
    return levels


def grid_size(count: int, pinned: bool) -> int:
    """Rows of the search grid at ``count``: the largest level product <= count."""
    return math.prod(_axis_levels(count, pinned or None, 1))


def _disk_axes(n_mod: int, n_arg: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid levels of |z|, n_mod of them from 0 to 1, and of arg z, 2 pi k / n_arg."""
    return np.linspace(0.0, 1.0, n_mod), 2.0 * np.pi * np.arange(n_arg) / n_arg


def _polar(mod: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns (re, im) of mod * (cos + i sin), bit for bit numpy's real-by-complex product.

    That product is (mod cos - 0 sin, mod sin + 0 cos).  A zero term leaves
    a nonzero part as it is and can change a zero part only in sign, so the
    zero terms are taken on the zero parts alone: the rows of modulus 0
    (the zero-modulus atom and grid level) and the imaginary parts at phase 0.
    """
    re, im = mod * cos, mod * sin
    zero = np.flatnonzero(re == 0.0)
    re[zero] -= 0.0 * sin[zero]
    zero = np.flatnonzero(im == 0.0)
    im[zero] += 0.0 * cos[zero]
    return re, im


def grid_chunks(count: int, pinned: bool, chunk: int):
    """The search grid as (p1, x_re, x_im) blocks of at most ``chunk`` rows, in order.

    Rows run over p1, |x|, arg x with the last axis fastest; a pinned grid
    drops the p1 axis and its blocks carry p1 = None.  A block indexes the
    axis levels directly, so no array larger than a block is built; cos and
    sin are taken once per phase level.
    """
    levels = _axis_levels(count, pinned or None, 1)
    n_p1 = 1 if pinned else levels.pop(0)
    p1_levels = np.linspace(0.0, 2.0, n_p1)
    moduli, angles = _disk_axes(*levels)
    cos, sin = np.cos(angles), np.sin(angles)
    shape = (n_p1, *levels)
    total = math.prod(shape)
    for start in range(0, total, chunk):
        ip1, i, j = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        yield (None if pinned else p1_levels[ip1], *_polar(moduli[i], cos[j], sin[j]))


def _p1_draw(u: np.ndarray) -> np.ndarray:
    """Map uniform rows u[:, 0:2] to p1 in [0, 2] with atoms at 2 and 0."""
    p1 = 2.0 * u[:, 1]
    p1[u[:, 0] < 0.125] = 2.0
    p1[(u[:, 0] >= 0.125) & (u[:, 0] < 0.1875)] = 0.0
    return p1


def _modulus_and_phase(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniform rows u[:, 0:4] to the (re, im) columns of a disk point with boundary atoms."""
    sel, val = u[:, 0], u[:, 1]
    mod = val.copy()
    mod[sel < 0.125] = 1.0
    mod[(sel >= 0.125) & (sel < 0.1875)] = 0.0
    selp, valp = u[:, 2], u[:, 3]
    phase = 2.0 * np.pi * valp
    phase[selp < 0.125] = 0.0
    phase[(selp >= 0.125) & (selp < 0.25)] = np.pi
    return _polar(mod, np.cos(phase), np.sin(phase))


def _dp1(u: np.ndarray, r: float) -> np.ndarray:
    """Map uniform rows u[:, 0] to a p1 offset, uniform in [-2r, 2r]."""
    return 2.0 * r * (2.0 * u[:, 0] - 1.0)


def _offset(u: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Map uniform rows u[:, 0:2] to the (re, im) columns of a uniform point of |z| <= r."""
    phase = 2.0 * np.pi * u[:, 1]
    return _polar(r * np.sqrt(u[:, 0]), np.cos(phase), np.sin(phase))


def _uniform_blocks(seed, count: int, width: int, chunk: int):
    """``count`` rows of ``width`` uniforms from one generator, ``chunk`` rows at a time.

    One matrix row per sample, drawn in order, so the blocks concatenate to
    a single draw and smaller draws are a prefix of larger ones.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, count, chunk):
        yield rng.random((min(chunk, count - start), width))


# The search's random and refine rows keep the draw width of sample_params'
# rows, 10 and 6 uniforms, though they read only 6 and 3 of them: the width
# fixes which uniforms each row gets, so a narrower draw would change the
# candidates and with them the report.


def random_chunks(seed, count: int, pinned: bool, chunk: int):
    """The random search rows as (p1, x_re, x_im) blocks of at most ``chunk`` rows, in order.

    Row k is the (p1, x) of sample_params' random row k (uniform columns 0-5
    of 10); a pinned draw's blocks carry p1 = None.
    """
    for u in _uniform_blocks(seed, count, 10, chunk):
        yield (None if pinned else _p1_draw(u), *_modulus_and_phase(u[:, 2:6]))


def refine_offset_chunks(seed, count: int, radius: float, chunk: int):
    """Refine offsets (dp1, dx_re, dx_im) in blocks of at most ``chunk`` rows, in order.

    Row k is the (dp1, dx) that sample_params' refine-around row k adds to
    its centre (uniform columns 0-2 of 6).  The offsets depend only on (seed, count, radius),
    never on the centre, so the searches of one run share them;
    refine_around applies a centre.
    """
    for u in _uniform_blocks(seed, count, 6, chunk):
        yield (_dp1(u, radius), *_offset(u[:, 1:3], radius))


def refine_around(offsets, center) -> tuple:
    """Candidate columns ``center + offsets``, clipped and projected back into the body.

    ``offsets`` is (dp1, dx_re, dx_im) and ``center`` is (p1, x_re, x_im).  A
    centre p1 of None means p1 is pinned: the candidates then carry
    p1 = None, no p1 column is built and dp1 is not read.
    """
    dp1, dre, dim = offsets
    p1c, re, im = center
    p1 = None if p1c is None else np.clip(p1c + dp1, 0.0, 2.0)
    re, im = re + dre, im + dim
    _project_disk(re, im)
    return p1, re, im


def sample_params(
    seed: int,
    count: int,
    strategy: str,
    fixed_p1: Optional[float] = None,
    center: Optional[CaratheodoryParams] = None,
    radius: float = 0.3,
) -> list[CaratheodoryParams]:
    """Deterministic sequence of admissible parameter triples.

    See sample_param_arrays for the strategy semantics.
    """
    p1, x, y = sample_param_arrays(seed, count, strategy, fixed_p1, center, radius)
    return [CaratheodoryParams(float(p), complex(a), complex(b)) for p, a, b in zip(p1, x, y)]
