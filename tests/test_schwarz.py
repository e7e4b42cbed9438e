import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coefbound.schwarz import (
    CaratheodoryParams,
    SchwarzCoefficients,
    caratheodory_moments,
    caratheodory_to_schwarz,
    finish_rows,
    grid_axes,
    polar_scan,
    polish,
    random_chunks,
    sample_param_arrays,
    sample_params,
    score_bound,
    validate_schwarz,
)
from coefbound import schwarz
from coefbound.schwarz import _linspace

unit_disk = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


class TestParamsValidation:
    def test_p1_out_of_range(self):
        with pytest.raises(ValueError):
            CaratheodoryParams(2.5, 0.0, 0.0)

    def test_x_out_of_disk(self):
        with pytest.raises(ValueError):
            CaratheodoryParams(0.0, 1.1, 0.0)

    def test_y_out_of_disk(self):
        with pytest.raises(ValueError):
            CaratheodoryParams(0.0, 0.0, 1.0 + 1e-6j + 1.0)

    @pytest.mark.parametrize(
        "x, y",
        [
            (complex(math.nan, 0.0), 0.0),
            (complex(0.0, math.nan), 0.0),
            (0.0, complex(math.nan, 0.0)),
            (0.0, complex(0.0, math.nan)),
            (complex(math.nan, 0.0), complex(0.0, math.nan)),
        ],
    )
    def test_nan_refused(self, x, y):
        # abs(nan) > 1 is False, so only a negated check refuses NaN
        with pytest.raises(ValueError):
            CaratheodoryParams(1.0, x, y)

    def test_nan_p1_refused(self):
        with pytest.raises(ValueError):
            CaratheodoryParams(math.nan, 0.0, 0.0)

    def test_boundary_admitted(self):
        CaratheodoryParams(2.0, 1.0, -1.0)
        CaratheodoryParams(-2.0, cmath.exp(2.2j), 1j)


class TestMoments:
    def test_p1_equals_two_kills_everything(self):
        for x, y in [(0.3 + 0.1j, -1.0), (0.0, 0.0), (1.0, 1.0)]:
            m = caratheodory_moments(CaratheodoryParams(2.0, x, y))
            assert m.p2 == 2.0 and m.p3 == 2.0

    def test_x_equals_one_direction(self):
        m = caratheodory_moments(CaratheodoryParams(0.0, 1.0, 0.42j))
        assert m.p2 == 2.0 and m.p3 == 0.0

    def test_hand_evaluated_point(self):
        # 2 p2 = 1 + 3*0 = 1; 4 p3 = 1 + 0 - 0 + 2*3*1*1 = 7
        m = caratheodory_moments(CaratheodoryParams(1.0, 0.0, 1.0))
        assert m.p2 == 0.5 and m.p3 == 1.75


class TestToSchwarz:
    def test_identity_witness(self):
        m = caratheodory_moments(CaratheodoryParams(2.0, 0.0, 0.0))
        c = caratheodory_to_schwarz(m)
        assert (c.c1, c.c2, c.c3) == (1.0, 0.0, 0.0)

    def test_pure_c2_direction(self):
        m = caratheodory_moments(CaratheodoryParams(0.0, 1.0, 0.0))
        c = caratheodory_to_schwarz(m)
        assert (c.c1, c.c2, c.c3) == (0.0, 1.0, 0.0)

    def test_z_cubed_witness(self):
        m = caratheodory_moments(CaratheodoryParams(0.0, 0.0, 1.0))
        c = caratheodory_to_schwarz(m)
        assert (c.c1, c.c2, c.c3) == (0.0, 0.0, 1.0)


class TestValidateSchwarz:
    def test_boundary_c1(self):
        assert validate_schwarz(SchwarzCoefficients(1.0, 0.0, 0.99))

    def test_carleson_equality(self):
        assert validate_schwarz(SchwarzCoefficients(0.5, 0.75, 0.0))

    def test_carleson_violation(self):
        assert not validate_schwarz(SchwarzCoefficients(0.5, 0.8, 0.0))

    def test_c1_violation(self):
        assert not validate_schwarz(SchwarzCoefficients(1.01, 0.0, 0.0))


@given(st.floats(min_value=-2.0, max_value=2.0), unit_disk, unit_disk)
@settings(max_examples=300, deadline=None)
def test_construction_soundness(p1, x, y):
    # the composed map always lands inside the Schwarz coefficient body
    m = caratheodory_moments(CaratheodoryParams(p1, x, y))
    assert validate_schwarz(caratheodory_to_schwarz(m))


class TestSampler:
    def test_random_determinism(self):
        a = sample_params(7, 10, "random")
        b = sample_params(7, 10, "random")
        assert a == b

    def test_random_prefix_property(self):
        small = sample_params(7, 10, "random")
        large = sample_params(7, 25, "random")
        assert large[:10] == small

    def test_fixed_p1(self):
        pts = sample_params(3, 50, "random", fixed_p1=0.8)
        assert all(p.p1 == 0.8 for p in pts)

    @pytest.mark.parametrize("strategy", ["sobol", "grid", "refine-around"])
    def test_unknown_strategy(self, strategy):
        # random is the one strategy: the two-disk grid and refine-around are gone
        with pytest.raises(ValueError, match="unknown sampling strategy"):
            sample_params(1, 10, strategy)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            sample_params(1, 0, "random")

    # the grid is grid_axes, the (p1, |x|, arg x) levels that polar_scan searches

    def test_grid_includes_corner(self):
        p1, mod, arg = grid_axes(32)
        assert p1[-1] == 2.0 and mod[-1] == 1.0 and arg[0] == 0.0

    def test_grid_respects_count(self):
        # the smallest grid has 2 levels per axis: 8 points
        for count in range(1, 8):
            with pytest.raises(ValueError, match="count >= 8"):
                grid_axes(count)
        for count in [*range(8, 3001), 24_000, 499_000]:
            assert math.prod(a.size for a in grid_axes(count)) <= count

    def test_grid_hits_boundary_moduli_and_phases(self):
        for count in [*range(8, 3001), 24_000, 499_000]:
            _, mod, arg = grid_axes(count)
            assert mod[0] == 0.0 and mod[-1] == 1.0 and arg[0] == 0.0
            # the phase levels are even in number, so one is pi to within an ulp
            assert arg.size % 2 == 0 and abs(arg[arg.size // 2] - np.pi) <= 4.5e-16
        assert np.pi in grid_axes(3000)[2]

    def test_array_and_object_paths_agree(self):
        p1, x, y = sample_param_arrays(9, 17, "random")
        objs = sample_params(9, 17, "random")
        assert np.allclose(p1, [o.p1 for o in objs])
        assert np.allclose(x, [o.x for o in objs])
        assert np.allclose(y, [o.y for o in objs])


def _bits(arrays):
    return [a.tobytes() for a in arrays]


def _assembled(columns):
    """(p1, x) or (p1, x, y) from the (p1, re, im, ...) columns, each point built bit for bit."""
    p1, *parts = columns
    points = []
    for re, im in zip(parts[0::2], parts[1::2]):
        z = np.empty(re.size, np.complex128)
        z.real, z.imag = re, im
        points.append(z)
    return [p1, *points]


def _joined(blocks, chunk):
    """The columns of ``blocks`` joined."""
    blocks = list(blocks)
    assert all(0 < b[1].size <= chunk for b in blocks)
    return [np.concatenate(column) for column in zip(*blocks)]


def _finished(blocks):
    """random_chunks' (p1, |x|, phase uniforms) blocks, each finished to (p1, x_re, x_im)."""
    return [(p1, *finish_rows(mod, phase_u)) for p1, mod, phase_u in blocks]


def _search_columns(got, want):
    """Check joined search blocks against the (p1, x) of a reference."""
    assert len(got) == 3
    assert all(col.dtype == np.float64 and col.flags.c_contiguous for col in got)
    assert _bits(_assembled(got)) == _bits(want[:2])


chunks = st.integers(min_value=1, max_value=5000)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4000),
    chunks,
)
@settings(max_examples=100, deadline=None)
def test_random_chunks_concatenate_to_one_draw(seed, count, chunk):
    # a search row is the (p1, x) of a 6-uniform row of one draw
    got = _joined(_finished(random_chunks(seed, count, chunk)), chunk)
    _search_columns(got, _random_reference(seed, count, None, 6))


def _masked_modulus(u):
    """The random modulus map written as a copy and two masked stores."""
    sel, val = u[:, 0], u[:, 1]
    mod = val.copy()
    mod[sel < 0.125] = 1.0
    mod[(sel >= 0.125) & (sel < 0.1875)] = 0.0
    return mod


def _random_reference(seed, count, fixed_p1, width):
    """The random draw as one complex computation, mod * exp(1j * phase) on every row.

    Rows of ``width`` uniforms: 6 give (p1, x), as the search draws them, and
    10 give (p1, x, y), as sample_params draws them.
    """
    u = np.random.default_rng(seed).random((count, width))
    if fixed_p1 is None:  # p1 has the modulus's atoms at twice the values, and doubling is exact
        p1 = 2.0 * _masked_modulus(u[:, 0:2])
    else:
        p1 = np.full(count, float(fixed_p1))
    points = []
    for k in range(2, width, 4):
        mod = _masked_modulus(u[:, k : k + 2])
        selp, valp = u[:, k + 2], u[:, k + 3]
        phase = 2.0 * np.pi * valp
        phase[selp < 0.125] = 0.0
        phase[(selp >= 0.125) & (selp < 0.25)] = np.pi
        points.append(mod * np.exp(1j * phase))
    return p1, *points


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_random_bits_match_the_complex_draw(seed):
    # 20,000 rows, in the search's blocks of 8192, hit every atom about
    # 1,000 times, the signed zeros of the zero-modulus atom included
    got = _joined(_finished(random_chunks(seed, 20_000, 8192)), 8192)
    want = _random_reference(seed, 20_000, None, 6)
    assert np.count_nonzero(want[1] == 0.0) > 500
    assert np.signbit(want[1].real[want[1] == 0.0]).any()
    _search_columns(got, want)


@pytest.mark.parametrize("chunk", [1, 777, 8192])
@pytest.mark.parametrize("subset", [False, True])
@pytest.mark.parametrize("seed", [0, 7, 42, 2**32 - 1])
def test_random_chunks_are_the_masked_draw_byte_for_byte(seed, subset, chunk):
    # the raw (p1, |x|, phase uniforms) blocks, before any trigonometry,
    # against the uniforms of one draw mapped by the masked modulus
    count = 20_000 if chunk > 1 else 300
    blocks = list(random_chunks(seed, count, chunk))
    got = _joined(blocks, chunk)
    u = np.random.default_rng(seed).random((count, 6))
    assert got[0].tobytes() == (2.0 * _masked_modulus(u[:, 0:2])).tobytes()
    assert got[1].tobytes() == _masked_modulus(u[:, 2:4]).tobytes()
    assert got[2].tobytes() == np.ascontiguousarray(u[:, 4:6]).tobytes()
    if subset:  # finishing every third row of a block gives those rows of the finished block
        for _, mod, phase_u in blocks:
            whole = finish_rows(mod, phase_u)
            part = finish_rows(mod[::3], phase_u[::3])
            assert _bits(part) == _bits([c[::3].copy() for c in whole])


@pytest.mark.parametrize("count", [8193, 20_000])
@pytest.mark.parametrize("fixed_p1", [None, 0.7])
@pytest.mark.parametrize("seed", [0, 42])
def test_sample_param_arrays_match_the_two_disk_references(seed, fixed_p1, count):
    # whole-row draws above the search's block size are bit for bit the
    # complex reference of the random (p1, x, y) rows
    sampled = sample_param_arrays(seed, count, "random", fixed_p1)
    assert _bits(sampled) == _bits(_random_reference(seed, count, fixed_p1, 10))


_coefficient = st.floats(min_value=-3.0, max_value=3.0)


@st.composite
def polar_grids(draw):
    """(coefficients, p1 levels or None, rs, ts): each coefficient a scalar or one value per level."""
    n = draw(st.integers(min_value=1, max_value=4))
    p1_levels = draw(st.one_of(st.none(), st.just(np.linspace(0.0, 2.0, n))))
    if p1_levels is None:
        n = 1
    per_level = st.lists(_coefficient, min_size=n, max_size=n).map(np.array)
    alpha, beta = (draw(st.one_of(_coefficient, per_level)) for _ in range(2))
    gamma, kq = (draw(st.one_of(st.just(0.0), _coefficient, per_level)) for _ in range(2))
    rs = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
    ts = draw(st.lists(st.floats(min_value=-7.0, max_value=7.0), min_size=1, max_size=8))
    return (alpha, beta, gamma, kq), p1_levels, np.array(rs), np.array(ts)


def _polar_reference(coeffs, p1_levels, rs, ts):
    """|A| + kq (1 - |x|^2) on the whole grid, A = alpha + beta x + gamma x^2 in complex arithmetic."""
    n = 1 if p1_levels is None else p1_levels.size
    alpha, beta, gamma, kq = (np.broadcast_to(c, (n,))[:, None, None] for c in coeffs)
    x = rs[None, :, None] * np.exp(1j * ts[None, None, :])
    return np.abs(alpha + beta * x + gamma * x * x) + kq * (1.0 - np.abs(x) ** 2)


@given(polar_grids(), st.integers(min_value=1, max_value=64))
@settings(max_examples=300, deadline=None)
def test_polar_scan_is_the_complex_grid_maximum(grid, chunk):
    coeffs, p1_levels, rs, ts = grid
    got = polar_scan(lambda _: coeffs, p1_levels, rs, ts, chunk=chunk)
    assert repr(got) == repr(polar_scan(lambda _: coeffs, p1_levels, rs, ts, chunk=10**6))
    ref = _polar_reference(coeffs, p1_levels, rs, ts)
    value, p1, r, t = got
    tol = 1e-15 * (1.0 + sum(np.max(np.abs(c)) for c in coeffs))
    assert abs(value - ref.max()) <= tol
    # the point is on the grid and scores the value
    at = (0 if p1 is None else list(p1_levels).index(p1), list(rs).index(r), list(ts).index(t))
    assert abs(ref[at] - value) <= tol
    assert (p1 is None) == (p1_levels is None)
    # a maximum that no other point comes near is found at its own index
    top = np.sort(ref.ravel())
    if top.size == 1 or top[-2] < top[-1] - 4.0 * tol:
        want = np.unravel_index(np.argmax(ref), ref.shape)
        assert (rs[want[1]], ts[want[2]]) == (r, t)
        assert p1 is None or p1 == p1_levels[want[0]]


@given(
    st.lists(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0]), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_polar_scan_keeps_the_first_of_tied_points(alphas, n_r, n_t, chunk):
    # with beta = gamma = kq = 0 every point of a level scores |alpha| exactly:
    # the first level of largest |alpha| wins, at its first radius and angle
    p1_levels = np.linspace(0.0, 2.0, len(alphas))
    rs, ts = np.linspace(0.0, 1.0, n_r), np.linspace(-1.0, 1.0, n_t)
    coefficients = lambda _: (np.array(alphas), 0.0, 0.0, 0.0)  # noqa: E731
    value, p1, r, t = polar_scan(coefficients, p1_levels, rs, ts, chunk=chunk)
    first = int(np.argmax(np.abs(alphas)))
    assert (value, p1, r, t) == (abs(alphas[first]), p1_levels[first], 0.0, -1.0)


def test_polar_scan_reports_nothing_below_the_incumbent():
    rs, ts = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 6.0, 7)
    assert polar_scan(lambda _: (1.0, 1.0, 0.0, 0.0), None, rs, ts, best=2.0) is None


def _spy_scores(monkeypatch):
    """Record (points, alpha, beta r) of every block that schwarz._scores scores, seed rows included."""
    blocks = []
    scores = schwarz._scores

    def recording(factors, trig, rows, cols):
        vals = scores(factors, trig, rows, cols)
        alpha, br = factors[0], factors[1]
        blocks.append((vals.size, alpha[rows] if np.ndim(alpha) else alpha, br[rows]))
        return vals

    monkeypatch.setattr(schwarz, "_scores", recording)
    return blocks


def test_polar_scan_blocks_hold_at_most_chunk_points(monkeypatch):
    # rows longer than the block are cut into runs of angles, in the scan and
    # in the seed row, and the first maximum is the same at any block
    p1_levels, rs, ts = np.linspace(0.0, 2.0, 3), np.linspace(0.0, 1.0, 5), np.linspace(-3.0, 3.0, 100)
    coefficients = lambda p1: (p1, 1.0, -0.5, 0.25)  # noqa: E731
    want = polar_scan(coefficients, p1_levels, rs, ts, chunk=10**6)
    blocks = _spy_scores(monkeypatch)
    for chunk in (7, 100, 250):
        blocks.clear()
        assert polar_scan(coefficients, p1_levels, rs, ts, chunk=chunk) == want
        assert max(size for size, *_ in blocks) <= chunk
    # |x^2| + 1 - |x|^2 is 1 everywhere, so no row can be bounded out: every
    # grid point is scored once in the scan, plus one seed row per run of
    # at most chunk rows that fills more than one block (chunk 7 takes runs
    # of 7, 7 and 1 rows; at chunk 1500 all 15 rows fit one block)
    flat = lambda _: (0.0, 0.0, 1.0, 1.0)  # noqa: E731
    for chunk, seeds in ((7, 2), (100, 1), (250, 1), (1500, 0)):
        blocks.clear()
        polar_scan(flat, p1_levels, rs, ts, chunk=chunk)
        assert max(size for size, *_ in blocks) <= chunk
        assert sum(size for size, *_ in blocks) == 3 * 5 * 100 + seeds * 100


def _polar_scan_unbounded(coefficients, p1_levels, rs, ts, best=-math.inf, chunk=8192):
    """polar_scan without the row bound: every point of the grid is scored."""
    coefs = coefficients(p1_levels)
    affine = not (np.count_nonzero(coefs[2]) or np.count_nonzero(coefs[3]))
    cos1, sin1, cos2, sin2 = np.cos(ts), np.sin(ts), np.cos(2.0 * ts), np.sin(2.0 * ts)
    n_rows = rs.size * (1 if p1_levels is None else p1_levels.size)
    rows, width = max(1, chunk // ts.size), min(chunk, ts.size)
    found = None
    for first in range(0, n_rows, chunk):
        level, radius = np.divmod(np.arange(first, min(n_rows, first + chunk)), rs.size)
        r = rs[radius, None]
        alpha, beta, gamma, kq = (c[level, None] if np.ndim(c) else c for c in coefs)
        br, gr2, kr = beta * r, gamma * (r * r), kq * (1.0 - r * r)
        for start in range(0, r.size, rows):
            for col in range(0, ts.size, width):
                block, cols = slice(start, start + rows), slice(col, col + width)
                re = br[block] * cos1[cols]
                re += alpha[block] if np.ndim(alpha) else alpha
                im = br[block] * sin1[cols]
                if not affine:
                    re += gr2[block] * cos2[cols]
                    im += gr2[block] * sin2[cols]
                vals = re * re
                vals += im * im
                np.sqrt(vals, out=vals)
                if not affine:
                    vals += kr[block]
                i, j = divmod(int(np.argmax(vals)), vals.shape[1])
                if vals[i, j] > best:
                    best = float(vals[i, j])
                    p1 = None if p1_levels is None else float(p1_levels[level[start + i]])
                    found = best, p1, float(r[start + i, 0]), float(ts[col + j])
    return found


def _row_bounds(coeffs, p1_levels, rs):
    """score_bound and the bare triangle bound (no rounding margin) of every (p1, r) row."""
    n = 1 if p1_levels is None else p1_levels.size
    alpha, beta, gamma, kq = (np.broadcast_to(c, (n,))[:, None] for c in coeffs)
    r = rs[None, :]
    triangle = np.abs(alpha) + np.abs(beta) * r + np.abs(gamma) * (r * r) + kq * (1.0 - r * r)
    return score_bound(alpha, beta, gamma, kq, r).ravel(), triangle.ravel()


#: Angles within 1e-6 of 0, where |A| can round above the bare triangle bound.
_near_zero = st.floats(min_value=-1e-6, max_value=1e-6)


def _seed_row_max(coeffs, p1_levels, rs, ts):
    """The maximum of the grid's row of largest score_bound, the row polar_scan scores first."""
    bound = _row_bounds(coeffs, p1_levels, rs)[0]
    level, radius = divmod(int(np.argmax(bound)), rs.size)
    row = tuple(np.broadcast_to(c, (bound.size // rs.size,))[level] for c in coeffs)
    return _polar_scan_unbounded(lambda _: row, None, rs[[radius]], ts)[0]


@st.composite
def bounded_scans(draw):
    """A polar grid and an incumbent: none, the grid maximum, at a row's bound or the seed row's maximum.

    The maxima are also taken one ulp below; half the grids are affine (gamma = kq = 0).
    """
    coeffs, p1_levels, rs, ts = draw(polar_grids())
    if draw(st.booleans()):
        coeffs = (*coeffs[:2], 0.0, 0.0)
    ts = np.append(ts, draw(st.lists(_near_zero, max_size=3)))
    top = _polar_scan_unbounded(lambda _: coeffs, p1_levels, rs, ts)[0]
    seed = _seed_row_max(coeffs, p1_levels, rs, ts)
    bound, triangle = _row_bounds(coeffs, p1_levels, rs)
    row = draw(st.integers(min_value=0, max_value=bound.size - 1))
    below = [np.nextafter(v, -math.inf) for v in (top, seed)]
    best = draw(st.sampled_from([-math.inf, top, seed, *below, bound[row], triangle[row]]))
    return coeffs, p1_levels, rs, ts, float(best)


def _tied_levels(s, kq, n, rs, ts):
    """n levels whose maxima tie at s, the later ones with the larger bound.

    Level 0 scores |s| everywhere; the others score |s/2 + s/2 x| + kq (1 - |x|^2),
    which is s exactly at x = 1, where kq adds to their bound but not to the score.
    """
    first, later = np.eye(n)[0], 1.0 - np.eye(n)[0]
    coeffs = (s * first + s / 2 * later, s / 2 * later, 0.0, kq * later)
    return coeffs, np.linspace(0.0, 2.0, n), np.array(rs), np.array(ts)


@st.composite
def tied_scans(draw):
    """_tied_levels on a grid holding x = 1, with no incumbent, or at or one ulp below the tied maximum."""
    s = draw(st.floats(min_value=0.1, max_value=3.0))
    kq = draw(st.floats(min_value=1e-9, max_value=s / 8))
    rs = sorted({1.0, *draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4))})
    ts = draw(st.permutations([0.0, *draw(st.lists(st.floats(min_value=-7.0, max_value=7.0), max_size=5))]))
    grid = _tied_levels(s, kq, draw(st.integers(min_value=2, max_value=4)), rs, ts)
    return (*grid, float(draw(st.sampled_from([-math.inf, s, np.nextafter(s, -math.inf)]))))


# each example has one point whose computed score rounds above the bare triangle bound of its row
_above_triangle = [
    ((0.0, 0.21977905140063492, 0.0, 0.0), 1.0, 0.013670235940547695),
    ((0.0, 2.0669152354878, 0.0, 0.6026134915729671), 1.0, -2.393901054228893e-07),
    ((0.5436186786929604, 2.349270510588612, 0.5103905045901137, 0.0), 0.7622546197746868, -1.4530921647174914e-08),
]


def _at_triangle(coeffs, r, t):
    """The one-point scan at (r, t) with its incumbent at the row's bare triangle bound."""
    rs = np.array([r])
    return coeffs, None, rs, np.array([t]), float(_row_bounds(coeffs, None, rs)[1][0])


def _tied_example(best, chunk):
    return _tied_levels(1.0, 0.125, 2, [0.5, 1.0], [-1.0, 0.0, 2.0]) + (best,), chunk


@given(
    st.one_of(bounded_scans(), tied_scans()),
    st.one_of(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=64)),
)
@settings(max_examples=400, deadline=None)
@example(_at_triangle(*_above_triangle[0]), 1)
@example(_at_triangle(*_above_triangle[1]), 1)
@example(_at_triangle(*_above_triangle[2]), 1)
@example(*_tied_example(-math.inf, 4))  # a block per row; the seed row is level 1 at r = 1
@example(*_tied_example(-math.inf, 6))  # two rows per block
@example(*_tied_example(-math.inf, 1))  # one row per run, each longer than the block
@example(*_tied_example(float(np.nextafter(1.0, -math.inf)), 4))
@example(*_tied_example(1.0, 4))
def test_bounded_polar_scan_is_the_unbounded_scan(scan, chunk):
    # rows are skipped only where no point could pass the strict test, and
    # the seed row lifts the incumbent to one ulp below a grid score, so
    # ties, incumbents at the maximum, at a row's bound and at the seed
    # row's maximum keep every bit
    coeffs, p1_levels, rs, ts, best = scan
    got = polar_scan(lambda _: coeffs, p1_levels, rs, ts, best, chunk)
    assert repr(got) == repr(_polar_scan_unbounded(lambda _: coeffs, p1_levels, rs, ts, best, chunk))


def test_a_tie_before_the_seed_row_wins(monkeypatch):
    # the top-bound row (level 1, r = 1) holds the maximum 1.0, and so does
    # every point of level 0 before it: the first of them wins
    coeffs, p1_levels, rs, ts = _tied_levels(1.0, 0.125, 2, [0.5, 1.0], [-1.0, 0.0, 2.0])
    assert int(np.argmax(_row_bounds(coeffs, p1_levels, rs)[0])) == 3
    blocks = _spy_scores(monkeypatch)
    for chunk in (1, 2, 3, 4, 6, 64):
        blocks.clear()
        assert polar_scan(lambda _: coeffs, p1_levels, rs, ts, chunk=chunk) == (1.0, 0.0, 0.5, -1.0)
        # at 4 and 6 points per block the 4 rows fill more than one block,
        # so level 1's row is scored first, as the seed
        assert (blocks[0][1].tolist() == [[0.5]]) == (chunk in (4, 6))


@given(
    st.tuples(_coefficient, _coefficient, _coefficient, _coefficient),
    st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    st.one_of(_near_zero, st.floats(min_value=-7.0, max_value=7.0)),
)
@settings(max_examples=500, deadline=None)
@example(*_above_triangle[0])
@example(*_above_triangle[1])
@example(*_above_triangle[2])
@example((0.0, 0.0, 3.741981267376287e-157, 0.0), 1.0, 0.0)  # |A|^2 is subnormal
def test_score_bound_is_above_every_computed_score(coeffs, r, t):
    rs, ts = np.array([r]), np.array([t])
    value = _polar_scan_unbounded(lambda _: coeffs, None, rs, ts)[0]
    assert value <= score_bound(*coeffs, r)


def test_computed_scores_can_round_above_the_bare_triangle_bound():
    # so the bound needs its margin
    for coeffs, r, t in _above_triangle:
        rs = np.array([r])
        value = _polar_scan_unbounded(lambda _: coeffs, None, rs, np.array([t]))[0]
        assert _row_bounds(coeffs, None, rs)[1][0] < value <= score_bound(*coeffs, r)


def test_polar_scan_scores_no_row_bounded_at_the_incumbent(monkeypatch):
    p1_levels, rs, ts = np.linspace(0.0, 2.0, 3), np.linspace(0.0, 1.0, 5), np.linspace(-3.0, 3.0, 40)
    coeffs = (p1_levels, 1.0, -0.5, 0.25)
    bound = _row_bounds(coeffs, p1_levels, rs)[0]
    blocks = _spy_scores(monkeypatch)
    # at the largest bound nothing is scored, not even the seed row
    for chunk in (40, 8192):
        assert polar_scan(lambda _: coeffs, p1_levels, rs, ts, float(bound.max()), chunk) is None
    assert blocks == []
    # below it every scored row, the seed row included, is bounded above the
    # incumbent; beta = 1, so a block's beta r is its rows' r.  At 40 points
    # per block every row is a block, so each scan of two rows or more is seeded
    for best, chunk in itertools.product((np.nextafter(bound.max(), -math.inf), *bound), (40, 8192)):
        blocks.clear()
        polar_scan(lambda _: coeffs, p1_levels, rs, ts, float(best), chunk)
        assert blocks if best < bound.max() else not blocks
        for _, alpha, r in blocks:
            assert (score_bound(alpha, 1.0, -0.5, 0.25, r) > best).all()


_subnormal = st.floats(min_value=-1e-307, max_value=1e-307)
_endpoint = st.floats(min_value=-1e300, max_value=1e300)


@given(
    st.one_of(
        st.tuples(_endpoint, _endpoint),
        _endpoint.map(lambda a: (a, a)),  # equal endpoints
        st.tuples(_subnormal, _subnormal),  # widths that divide to 0
        st.tuples(st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=-4.0, max_value=4.0)),
    ),
    st.integers(min_value=2, max_value=200),
)
@settings(max_examples=1000, deadline=None)
@example((0.0, 5e-324), 3)
@example((-0.0, 0.0), 2)
@example((1.0, 1.0 + 2.0**-52), 65)
def test_polish_levels_are_linspace_bit_for_bit(ends, n):
    start, stop = ends
    got = _linspace(np.arange(n, dtype=float), start, stop)
    assert got.tobytes() == np.linspace(start, stop, n).tobytes()


def test_polish_stops_at_the_edges_of_the_body():
    # |p1 + x| peaks at p1 = 2, x = 1: the windows cross p1 = 2 and r = 1,
    # which are clipped to their last levels, and t = 0, which is not clipped
    def coefficients(p1):
        return p1, 1.0, 0.0, 0.0

    start = (0.0, 1.9, 0.9, 0.3)
    value, p1, r, t = polish(coefficients, start, (0.5, 0.2, 0.5), 20, 9, 0.5)
    assert (p1, r) == (2.0, 1.0)
    assert abs(t) <= 1e-5 and abs(value - 3.0) <= 1e-12
    assert abs(value - abs(p1 + r * np.exp(1j * t))) <= 1e-15
    # no round beats an incumbent at the maximum, so it is kept as it is
    top = (3.0, 2.0, 1.0, 0.0)
    assert polish(coefficients, top, (0.5, 0.2, 0.5), 3, 9, 0.5) is top


def test_polish_spanning_the_disk_reaches_across_the_origin():
    # |0.001 + 0.1 x| + 1 - |x|^2 peaks at x = 0.05 (1.0035) and stays
    # below 1.0027 where Re x <= 0; from x = -0.03 windows of a few angle
    # spacings stay on that side, windows that span the disk of radius dr
    # around x take every angle while that disk holds 0
    def coefficients(_):
        return 0.001, 0.1, 0.0, 1.0

    start = (abs(0.001 - 0.003) + 1.0 - 0.03**2, None, 0.03, np.pi)
    value, _, r, t = polish(coefficients, start, (0.0, 0.05, 0.1), 20, 9, 0.5)
    assert value < 1.0027 and math.cos(t) < 0
    value, _, r, t = polish(coefficients, start, (0.0, 0.05, 0.1), 20, 9, 0.5, span_disk=True)
    assert abs(value - 1.0035) <= 1e-12 and math.cos(t) > 0 and abs(r - 0.05) <= 1e-6


def test_grid_axes_keep_the_exact_levels():
    # count, moduli and phases are checked in TestSampler; here the p1 axis
    for count in [*range(8, 3001), 24_000, 499_000]:
        p1, mod, arg = grid_axes(count)
        assert p1[0] == 0.0 and p1[-1] == 2.0
        assert math.prod(a.size for a in (p1, mod, arg)) <= count
