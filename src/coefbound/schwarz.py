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
        if abs(self.x) > 1.0 + ADMISSIBILITY_TOL:
            raise ValueError(f"|x| must be <= 1, got {abs(self.x)}")
        if abs(self.y) > 1.0 + ADMISSIBILITY_TOL:
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


def _project_disk(z: np.ndarray) -> np.ndarray:
    """Radial projection onto the closed unit disk (non-expansive)."""
    r = np.abs(z)
    out = np.where(r > 1.0, z / np.where(r == 0.0, 1.0, r), z)
    return out


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
    strategy is the concatenation of its blocks (grid_chunks, random_chunks,
    refine_offset_chunks), whatever the block size.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if strategy == "grid":
        return _concat(grid_chunks(count, fixed_p1, count))
    if strategy == "random":
        return _concat(random_chunks(seed, count, fixed_p1, count))
    if strategy == "refine-around":
        if center is None:
            raise ValueError("refine-around requires a center")
        return refine_around(refine_offsets(seed, count, radius), center, fixed_p1)
    raise ValueError(f"unknown sampling strategy {strategy!r}")


def _axis_levels(count: int, fixed_p1: Optional[float]) -> list[int]:
    # Axes: p1, |x|, arg x, |y|, arg y (p1 axis dropped when pinned).
    # Phase axes keep even level counts so that 0 and pi are both hit.
    free_p1 = fixed_p1 is None
    n_axes = 5 if free_p1 else 4
    levels = [2] * n_axes
    if math.prod(levels) > count:
        return levels
    grew = True
    while grew:
        grew = False
        for i in range(n_axes):
            is_phase = (i in (2, 4)) if free_p1 else (i in (1, 3))
            step = 2 if is_phase else 1
            trial = list(levels)
            trial[i] += step
            if math.prod(trial) <= count:
                levels = trial
                grew = True
    return levels


def grid_size(count: int, fixed_p1: Optional[float] = None) -> int:
    """Rows of the ``grid`` strategy at ``count``: the largest level product <= count."""
    return math.prod(_axis_levels(count, fixed_p1))


def _polar_levels(n_mod: int, n_phase: int) -> np.ndarray:
    """Every modulus level times every phase level, modulus outer."""
    mod = np.linspace(0.0, 1.0, n_mod)
    phase = 2.0 * np.pi * np.arange(n_phase) / n_phase
    return (mod[:, None] * np.exp(1j * phase)).ravel()


def grid_chunks(count: int, fixed_p1: Optional[float], chunk: int):
    """The ``grid`` rows as (p1, x, y) blocks of at most ``chunk`` rows, in order.

    Rows run over p1, |x|, arg x, |y|, arg y with the last axis fastest.  A
    block indexes the axis levels directly; exp(1j*angle) is taken once per
    phase level.
    """
    levels = _axis_levels(count, fixed_p1)
    if fixed_p1 is None:
        p1_levels = np.linspace(0.0, 2.0, levels[0])
        levels = levels[1:]
    else:
        p1_levels = np.array([float(fixed_p1)])
    xs = _polar_levels(levels[0], levels[1])
    ys = _polar_levels(levels[2], levels[3])
    total = p1_levels.size * xs.size * ys.size
    for start in range(0, total, chunk):
        rest, iy = np.divmod(np.arange(start, min(start + chunk, total)), ys.size)
        ip1, ix = np.divmod(rest, xs.size)
        yield p1_levels[ip1], xs[ix], ys[iy]


def _modulus_and_phase(u: np.ndarray) -> np.ndarray:
    """Map uniform rows u[:, 0:2] to a complex point with boundary atoms."""
    sel, val = u[:, 0], u[:, 1]
    mod = val.copy()
    mod[sel < 0.125] = 1.0
    mod[(sel >= 0.125) & (sel < 0.1875)] = 0.0
    selp, valp = u[:, 2], u[:, 3]
    phase = 2.0 * np.pi * valp
    phase[selp < 0.125] = 0.0
    phase[(selp >= 0.125) & (selp < 0.25)] = np.pi
    return mod * np.exp(1j * phase)


def _uniform_blocks(seed, count: int, width: int, chunk: int):
    """``count`` rows of ``width`` uniforms from one generator, ``chunk`` rows at a time.

    One matrix row per sample, drawn in order, so the blocks concatenate to
    a single draw and smaller draws are a prefix of larger ones.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, count, chunk):
        yield rng.random((min(chunk, count - start), width))


def random_chunks(seed, count: int, fixed_p1: Optional[float], chunk: int):
    """The ``random`` rows as (p1, x, y) blocks of at most ``chunk`` rows, in order."""
    for u in _uniform_blocks(seed, count, 10, chunk):
        if fixed_p1 is None:
            p1 = 2.0 * u[:, 1].copy()
            p1[u[:, 0] < 0.125] = 2.0
            p1[(u[:, 0] >= 0.125) & (u[:, 0] < 0.1875)] = 0.0
        else:
            p1 = np.full(u.shape[0], float(fixed_p1))
        yield p1, _modulus_and_phase(u[:, 2:6]), _modulus_and_phase(u[:, 6:10])


def refine_offset_chunks(seed, count: int, radius: float, chunk: int):
    """The refine offsets (dp1, dx, dy) in blocks of at most ``chunk`` rows, in order."""
    for u in _uniform_blocks(seed, count, 6, chunk):
        dp1 = 2.0 * radius * (2.0 * u[:, 0] - 1.0)
        dx = radius * np.sqrt(u[:, 1]) * np.exp(2j * np.pi * u[:, 2])
        dy = radius * np.sqrt(u[:, 3]) * np.exp(2j * np.pi * u[:, 4])
        yield dp1, dx, dy


def _concat(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def refine_offsets(seed, count: int, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets (dp1, dx, dy) of a refine-around draw.

    They depend only on (seed, count, radius), never on the centre, so the
    searches of one run share them; refine_around applies a centre.
    """
    return _concat(refine_offset_chunks(seed, count, radius, count))


def refine_around(
    offsets: tuple[np.ndarray, np.ndarray, np.ndarray],
    center: CaratheodoryParams,
    fixed_p1: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates ``center + offsets``, clipped and projected back into the body."""
    dp1, dx, dy = offsets
    if fixed_p1 is None:
        p1 = np.clip(center.p1 + dp1, 0.0, 2.0)
    else:
        p1 = np.full(dp1.size, float(fixed_p1))
    return p1, _project_disk(center.x + dx), _project_disk(center.y + dy)


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
