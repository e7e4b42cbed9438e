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

The block generators draw p1 plus one disk point (x) or two (x, y), each
point as two contiguous float64 columns: a one-disk row is (p1, x_re, x_im),
a two-disk row adds (y_re, y_im).  sample_params draws both points; the
extremal search draws only x, because it maximizes over y in closed form
(see oracle).  Complex arrays are built only in sample_param_arrays, bit for
bit from the columns, which carry the bits numpy's complex arithmetic gives,
signed zeros included.
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
    only shrink distances).

    The output depends only on the arguments, never on call order.  Each
    strategy is the concatenation of the two-disk blocks of grid_chunks,
    random_chunks or refine_offset_chunks, whatever the block size, with
    each pair of disk columns assembled into one complex array; this is the
    one place where complex arrays are built.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if strategy == "grid":
        p1, *z = _concat(grid_chunks(count, fixed_p1, count))
    elif strategy == "random":
        p1, *z = _concat(random_chunks(seed, count, fixed_p1, count))
    elif strategy == "refine-around":
        if center is None:
            raise ValueError("refine-around requires a center")
        p1c = None if fixed_p1 is not None else center.p1
        x, y = complex(center.x), complex(center.y)
        center_row = (p1c, x.real, x.imag, y.real, y.imag)
        p1, *z = refine_around(refine_offsets(seed, count, radius), center_row)
        if fixed_p1 is not None:
            p1 = np.full(count, float(fixed_p1))
    else:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    return p1, _complex(z[0], z[1]), _complex(z[2], z[3])


def _axis_levels(count: int, fixed_p1: Optional[float], disks: int = 2) -> list[int]:
    # Axes: p1, |x|, arg x and, for two disks, |y|, arg y (p1 axis dropped
    # when pinned).  Phase axes keep even level counts so that 0 and pi are
    # both hit.
    first = 0 if fixed_p1 is not None else 1
    n_axes = first + 2 * disks
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


def grid_size(count: int, fixed_p1: Optional[float] = None, disks: int = 2) -> int:
    """Rows of the grid at ``count``: the largest level product <= count."""
    return math.prod(_axis_levels(count, fixed_p1, disks))


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


def grid_chunks(count: int, fixed_p1: Optional[float], chunk: int, disks: int = 2):
    """The grid rows as (p1, x_re, x_im) or (p1, x_re, x_im, y_re, y_im) blocks, in order.

    Blocks have at most ``chunk`` rows.  Rows run over p1, |x|, arg x (,
    |y|, arg y) with the last axis fastest.  A block indexes the axis levels
    directly, so no array larger than a block is built; cos and sin are
    taken once per phase level.
    """
    levels = _axis_levels(count, fixed_p1, disks)
    if fixed_p1 is None:
        p1_levels = np.linspace(0.0, 2.0, levels[0])
        levels = levels[1:]
    else:
        p1_levels = np.array([float(fixed_p1)])
    moduli = [np.linspace(0.0, 1.0, n) for n in levels[0::2]]
    angles = [2.0 * np.pi * np.arange(n) / n for n in levels[1::2]]
    units = [(np.cos(a), np.sin(a)) for a in angles]
    shape = (p1_levels.size, *levels)
    total = math.prod(shape)
    for start in range(0, total, chunk):
        ip1, *idx = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        cols = []
        for m, (c, s), i, j in zip(moduli, units, idx[0::2], idx[1::2]):
            cols.extend(_polar(m[i], c[j], s[j]))
        yield (p1_levels[ip1], *cols)


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


def _uniform_blocks(seed, count: int, width: int, chunk: int):
    """``count`` rows of ``width`` uniforms from one generator, ``chunk`` rows at a time.

    One matrix row per sample, drawn in order, so the blocks concatenate to
    a single draw and smaller draws are a prefix of larger ones.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, count, chunk):
        yield rng.random((min(chunk, count - start), width))


def random_chunks(seed, count: int, fixed_p1: Optional[float], chunk: int, disks: int = 2):
    """The random rows as (p1, x_re, x_im) or (p1, x_re, x_im, y_re, y_im) blocks, in order.

    Blocks have at most ``chunk`` rows.  Every row draws the 10 uniforms of
    a (p1, x, y) row, 2 for p1 and 4 per disk point, so a one-disk row is
    the two-disk row with y dropped.
    """
    for u in _uniform_blocks(seed, count, 10, chunk):
        if fixed_p1 is None:
            p1 = 2.0 * u[:, 1].copy()
            p1[u[:, 0] < 0.125] = 2.0
            p1[(u[:, 0] >= 0.125) & (u[:, 0] < 0.1875)] = 0.0
        else:
            p1 = np.full(u.shape[0], float(fixed_p1))
        cols = []
        for k in range(disks):
            cols.extend(_modulus_and_phase(u[:, 4 * k + 2 : 4 * k + 6]))
        yield (p1, *cols)


def refine_offset_chunks(seed, count: int, radius: float, chunk: int, disks: int = 2):
    """Refine offsets (dp1, dx_re, dx_im) or (dp1, dx_re, dx_im, dy_re, dy_im) in blocks.

    Blocks have at most ``chunk`` rows.  Every row draws 6 uniforms, 1 for
    dp1, 2 per disk offset and 1 never read, so a one-disk row is the
    two-disk row with dy dropped.
    """
    for u in _uniform_blocks(seed, count, 6, chunk):
        dp1 = 2.0 * radius * (2.0 * u[:, 0] - 1.0)
        cols = []
        for k in range(disks):
            phase = 2.0 * np.pi * u[:, 2 * k + 2]
            cols.extend(_polar(radius * np.sqrt(u[:, 2 * k + 1]), np.cos(phase), np.sin(phase)))
        yield (dp1, *cols)


def _concat(blocks) -> tuple[np.ndarray, ...]:
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def refine_offsets(seed, count: int, radius: float, disks: int = 2) -> tuple[np.ndarray, ...]:
    """Offset columns (dp1, dx_re, dx_im[, dy_re, dy_im]) of a refine-around draw.

    They depend only on (seed, count, radius, disks), never on the centre,
    so the searches of one run share them; refine_around applies a centre.
    """
    return _concat(refine_offset_chunks(seed, count, radius, count, disks))


def refine_around(offsets, center) -> tuple:
    """Candidate columns ``center + offsets``, clipped and projected back into the body.

    ``center`` is (p1, x_re, x_im) or (p1, x_re, x_im, y_re, y_im), one disk
    point per disk offset.  A centre p1 of None means p1 is pinned: the
    candidates then carry p1 = None, and no p1 column is built.
    """
    dp1, *dz = offsets
    p1c, *zc = center
    if len(zc) != len(dz):
        raise ValueError(
            f"a centre with {len(zc) // 2} disk points for {len(dz) // 2} disk offsets"
        )
    p1 = None if p1c is None else np.clip(p1c + dp1, 0.0, 2.0)
    cols = [c + d for c, d in zip(zc, dz)]
    for k in range(0, len(cols), 2):
        _project_disk(cols[k], cols[k + 1])
    return (p1, *cols)


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
