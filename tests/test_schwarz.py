import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coefbound.schwarz import (
    CaratheodoryParams,
    SchwarzCoefficients,
    caratheodory_moments,
    caratheodory_to_schwarz,
    circle_max,
    grid_chunks,
    level_bound,
    level_radii,
    level_scan,
    point_scores,
    polish,
    random_chunks,
    sample_param_arrays,
    sample_params,
    score_bound,
    validate_schwarz,
)
from coefbound import oracle, schwarz
from coefbound.bounds import LAMBDA_MIN
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

    # the grid is grid_chunks, the p1 levels that the search's level_scan takes first

    def test_grid_includes_corner(self):
        # the levels are np.linspace's, so the ends p1 = 0 and 2 are exact, at any block size
        for count, chunk in [*((n, 8192) for n in range(2, 3001)), (24_000, 8192), (499_000, 8192), (1000, 7), (9, 1)]:
            p1 = np.concatenate(list(grid_chunks(count, chunk)))
            assert p1[0] == 0.0 and p1[-1] == 2.0
            assert p1.tobytes() == np.linspace(0.0, 2.0, count).tobytes()

    def test_grid_respects_count(self):
        # the smallest grid has its 2 ends; a grid holds count levels, in blocks of at most chunk
        for count in range(-1, 2):
            with pytest.raises(ValueError, match="count >= 2"):
                next(grid_chunks(count, 8192))
        for count, chunk in itertools.product([2, 3, 8, 9, 1000, 24_000], [1, 8, 8192]):
            sizes = [block.size for block in grid_chunks(count, chunk)]
            assert sum(sizes) == count and all(0 < size <= chunk for size in sizes)

    def test_array_and_object_paths_agree(self):
        p1, x, y = sample_param_arrays(9, 17, "random")
        objs = sample_params(9, 17, "random")
        assert np.allclose(p1, [o.p1 for o in objs])
        assert np.allclose(x, [o.x for o in objs])
        assert np.allclose(y, [o.y for o in objs])


def _bits(arrays):
    return [a.tobytes() for a in arrays]


def _joined(blocks, chunk):
    """The p1 levels of ``blocks`` joined."""
    blocks = list(blocks)
    assert all(0 < b.size <= chunk for b in blocks)
    return np.concatenate(blocks)


chunks = st.integers(min_value=1, max_value=5000)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4000),
    chunks,
)
@settings(max_examples=100, deadline=None)
def test_random_chunks_concatenate_to_one_draw(seed, count, chunk):
    # a search level is the p1 of a 2-uniform row of one draw
    got = _joined(random_chunks(seed, count, chunk), chunk)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    want = _random_reference(seed, count, None, 2)
    assert _bits([got]) == _bits(want)


def _masked_modulus(u):
    """The random modulus map written as a copy and two masked stores."""
    sel, val = u[:, 0], u[:, 1]
    mod = val.copy()
    mod[sel < 0.125] = 1.0
    mod[(sel >= 0.125) & (sel < 0.1875)] = 0.0
    return mod


def _random_reference(seed, count, fixed_p1, width):
    """The random draw as one complex computation, mod * exp(1j * phase) on every row.

    Rows of ``width`` uniforms: 2 give p1, as the search draws its levels,
    and 10 give (p1, x, y), as sample_params draws them.
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
    # sample_param_arrays is the one place where the phase is drawn: 20,000
    # rows hit every atom about 1,000 times, the signed zeros of the
    # zero-modulus atom included, with the bits of the complex draw
    got = sample_param_arrays(seed, 20_000, "random")
    want = _random_reference(seed, 20_000, None, 10)
    for z in want[1:]:
        assert np.count_nonzero(z == 0.0) > 500
        assert np.signbit(z.real[z == 0.0]).any()
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("chunk", [1, 777, 8192])
@pytest.mark.parametrize("subset", [False, True])
@pytest.mark.parametrize("seed", [0, 7, 42, 2**32 - 1])
def test_random_chunks_are_the_masked_draw_byte_for_byte(seed, subset, chunk):
    # the p1 blocks against the uniforms of one draw mapped by the masked modulus
    count = 20_000 if chunk > 1 else 300
    got = _joined(random_chunks(seed, count, chunk), chunk)
    u = np.random.default_rng(seed).random((count, 2))
    assert got.tobytes() == (2.0 * _masked_modulus(u)).tobytes()
    if subset:  # a smaller draw is a prefix of a larger one
        part = _joined(random_chunks(seed, count // 3, chunk), chunk)
        assert part.tobytes() == got[: count // 3].tobytes()


@pytest.mark.parametrize("count", [8193, 20_000])
@pytest.mark.parametrize("fixed_p1", [None, 0.7])
@pytest.mark.parametrize("seed", [0, 42])
def test_sample_param_arrays_match_the_two_disk_references(seed, fixed_p1, count):
    # whole-row draws above the search's block size are bit for bit the
    # complex reference of the random (p1, x, y) rows
    sampled = sample_param_arrays(seed, count, "random", fixed_p1)
    assert _bits(sampled) == _bits(_random_reference(seed, count, fixed_p1, 10))


_coefficient = st.floats(min_value=-3.0, max_value=3.0)


#: Angles within 1e-6 of 0, where |A| can round above the bare triangle bound.
_near_zero = st.floats(min_value=-1e-6, max_value=1e-6)

# each example has one point whose computed score rounds above the bare triangle bound of its radius
_above_triangle = [
    ((0.0, 0.21977905140063492, 0.0, 0.0), 1.0, 0.013670235940547695),
    ((0.0, 2.0669152354878, 0.0, 0.6026134915729671), 1.0, -2.393901054228893e-07),
    ((0.5436186786929604, 2.349270510588612, 0.5103905045901137, 0.0), 0.7622546197746868, -1.4530921647174914e-08),
]


def _point_score(coeffs, r, t):
    """point_scores' score at x = r e^{it}."""
    return float(point_scores(*coeffs, r * math.cos(t), r * math.sin(t))[0])


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
    assert _point_score(coeffs, r, t) <= score_bound(*coeffs, r)
    # and above circle_max's score on the same circle
    assert circle_max(*coeffs, r)[0] <= score_bound(*coeffs, r)


def test_computed_scores_can_round_above_the_bare_triangle_bound():
    # so the bound needs its margin
    for coeffs, r, t in _above_triangle:
        alpha, beta, gamma, kq = coeffs
        triangle = abs(alpha) + abs(beta) * r + abs(gamma) * (r * r) + kq * (1.0 - r * r)
        assert triangle < _point_score(coeffs, r, t) <= score_bound(*coeffs, r)


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
    # |p1 + x| peaks at p1 = 2, x = 1: the windows cross p1 = 2, which is
    # clipped to the last level, and that level's radii reach r = 1
    def coefficients(p1):
        return p1, 1.0, 0.0, 0.0

    def scan(p1, best):
        return level_scan(coefficients, [p1], best)

    value, p1, r, u, v, re, im = polish(scan, (0.0, 1.9, 0.9), 0.5, (0.0, 2.0), 20, 9, 0.5)
    assert (value, p1, r, u, v, re, im) == (3.0, 2.0, 1.0, 1.0, 0.0, 3.0, 0.0)
    # no round beats an incumbent at the maximum, so it is kept as it is
    top = (3.0, 2.0, 1.0, 1.0, 0.0, 3.0, 0.0)
    assert polish(scan, top, 0.5, (0.0, 2.0), 3, 9, 0.5) is top


def _level_coefficients(p1):
    """A free |a4|-like functional's (alpha, beta, gamma, kq), one value per level."""
    return 0.3 * p1**3, p1 * (4.0 - p1 * p1), -0.25 * p1 * (4.0 - p1 * p1), 0.5 * (4.0 - p1 * p1)


def _scalar_coefficients(p1):
    """The same (alpha, beta, gamma, kq) at every level: scalars."""
    return 0.7, -1.1, -0.4, 0.3


def _mirrored_coefficients(p1):
    """Coefficients of s = (p1 - 1)^2, so the levels 1 -+ d tie bit for bit."""
    s = (p1 - 1.0) ** 2
    return 0.5 - s, 1.0 + s, -0.6 + s, 0.4 * s


def _level_candidates(coefficients, p1_levels):
    """Every level's radii, levels outer: their p1 and r columns and each candidate's coefficients."""
    coefs = [np.broadcast_to(c, p1_levels.shape) for c in coefficients(p1_levels)]
    r = level_radii(*coefs)
    return np.repeat(p1_levels, r.shape[1]), r.ravel(), [np.repeat(c, r.shape[1]) for c in coefs]


_LEVEL_CASES = [
    pytest.param(_level_coefficients, np.linspace(0.0, 2.0, 9), chunk, id=str(chunk)) for chunk in (1, 7, 64, 10**6)
]
_LEVEL_CASES += [
    pytest.param(_scalar_coefficients, np.linspace(0.0, 2.0, 3), chunk, id=f"scalar-{chunk}") for chunk in (1, 5, 64)
]
# two levels tie at every radius, one block apart or (chunks 6 to 14) in one block
_LEVEL_CASES += [
    pytest.param(_mirrored_coefficients, np.array([0.75, 1.25]), chunk, id=f"tie-{chunk}") for chunk in (1, 6, 7, 8, 14)
]


@pytest.mark.parametrize("coefficients, p1_levels, chunk", _LEVEL_CASES)
def test_level_scan_is_the_grid_of_circle_maxima(monkeypatch, coefficients, p1_levels, chunk):
    # the levels in order, each at its radii, each radius's circle_max, and the first of the largest
    got = level_scan(coefficients, [p1_levels], chunk=chunk)
    p1, r, coefs = _level_candidates(coefficients, p1_levels)
    vals, u, v, re, im = circle_max(*coefs, r)
    i = int(np.argmax(vals))
    assert got == (float(vals[i]), float(p1[i]), float(r[i]), float(u[i]), float(v[i]), float(re[i]), float(im[i]))
    if coefficients is _mirrored_coefficients:  # the tie goes to the first level
        assert vals[i + r.size // p1_levels.size] == vals[i] and got[1] == p1_levels[0]
    assert level_scan(coefficients, [p1_levels], got[0], chunk) is None
    # an incumbent at the largest level_bound forms no radii and scores none;
    # one ulp lower, the levels at that bound form their radii
    formed, scored = [], []
    radii, circle = schwarz.level_radii, schwarz.circle_max
    monkeypatch.setattr(schwarz, "level_radii", lambda *args: formed.append(1) or radii(*args))
    monkeypatch.setattr(schwarz, "circle_max", lambda *args: scored.append(1) or circle(*args))
    top = float(level_bound(*coefs).max())
    assert level_scan(coefficients, [p1_levels], top, chunk) is None
    assert formed == scored == []
    level_scan(coefficients, [p1_levels], float(np.nextafter(top, -np.inf)), chunk)
    assert formed


_tie_prone = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), _coefficient)


@st.composite
def level_streams(draw):
    """(coefficients, blocks, best, chunk): per-level or scalar coefficients, tie-prone values, any blocks."""
    levels = draw(st.integers(min_value=1, max_value=6))
    p1_levels = np.linspace(0.0, 2.0, levels)
    per_level = st.lists(_tie_prone, min_size=levels, max_size=levels).map(np.array)
    coefs = tuple(draw(st.one_of(_tie_prone, per_level)) for _ in range(4))
    _, r, rows = _level_candidates(lambda _: coefs, p1_levels)
    vals, bound = circle_max(*rows, r)[0], score_bound(*rows, r)
    k = draw(st.integers(min_value=0, max_value=vals.size - 1))
    best = draw(st.sampled_from([-np.inf, vals.max(), np.nextafter(vals.max(), -np.inf), vals[k], bound[k]]))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=levels), max_size=3)))
    blocks = np.split(p1_levels, cuts)  # empty blocks included
    return (lambda p1: tuple(c[np.searchsorted(p1_levels, p1)] if np.ndim(c) else c for c in coefs)), blocks, float(best), draw(
        st.integers(min_value=1, max_value=60)
    )


@given(level_streams())
@settings(max_examples=300, deadline=None)
def test_level_scan_is_every_radius_scored(stream):
    # however the levels arrive and are blocked, the result is the first
    # radius of the largest circle_max above the incumbent, or None
    coefficients, blocks, best, chunk = stream
    p1_levels = np.concatenate(blocks)
    p1, r, coefs = _level_candidates(coefficients, p1_levels)
    vals, *point = circle_max(*coefs, r)
    i = int(np.argmax(vals))
    want = (float(vals[i]), float(p1[i]), float(r[i]), *(float(a[i]) for a in point)) if vals[i] > best else None
    assert repr(level_scan(coefficients, blocks, best, chunk)) == repr(want)


#: circle_max against a dense angle scan of the same circle: it is the scan's
#: maximum to within this many units of 2^-52 of |alpha| + |beta| + |gamma| +
#: |kq|, plus schwarz.BOUND_FLOOR for scores whose squares are subnormal.
CIRCLE_ULPS = 16


@st.composite
def circles(draw):
    """(alpha, beta, gamma, kq, r): a functional's coefficients at (lam, p1), or arbitrary ones."""
    r = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(oracle.FUNCTIONAL_KINDS))
        fixed_p = 0.0 if kind in ("abs_a3_minus_a2", "abs_a4_minus_a3") else None
        fn = oracle.Functional(kind, draw(st.sampled_from(("starlike", "convex"))), fixed_p=fixed_p)
        lam = draw(st.one_of(st.just(LAMBDA_MIN), st.floats(min_value=LAMBDA_MIN, max_value=math.pi / 2)))
        p1 = draw(st.one_of(st.sampled_from([0.0, 2.0]), st.floats(min_value=0.0, max_value=2.0)))
        return (*oracle._quadratic(fn, lam, p1), r)
    return (*(draw(_coefficient) for _ in range(4)), r)


@given(circles())
@settings(max_examples=400, deadline=None)
@example((0.0, 0.0, 0.0, 0.0, 0.5))
@example((1.0, 0.0, -1.0, 0.0, 1.0))  # the vertex c* = 0, x = i
@example((1.0, 1.0, -0.5, 0.0, 1.0))  # the vertex c* = 1/4
def test_circle_max_is_the_dense_scan_maximum(circle):
    alpha, beta, gamma, kq, r = circle
    value, u, v, re, im = (float(a) for a in circle_max(*circle))
    # its witness scores the value, and lies on the circle (to a few units
    # of the smallest subnormal where r * c and r * sqrt(1 - c^2) are subnormal)
    assert point_scores(alpha, beta, gamma, kq, u, v)[0] == value
    assert abs(math.hypot(u, v) - r) <= 4 * 2.0**-52 * r + 2.0**-1071
    # 2048 angles, 0 and pi among them; |d score / dt| <= |beta| r + 2 |gamma| r^2
    t = 2.0 * math.pi * np.arange(2048) / 2048
    scan = float(point_scores(alpha, beta, gamma, kq, r * np.cos(t), r * np.sin(t))[0].max())
    spacing = (abs(beta) * r + 2.0 * abs(gamma) * r * r) * math.pi / 2048
    rounding = CIRCLE_ULPS * 2.0**-52 * (abs(alpha) + abs(beta) + abs(gamma) + abs(kq)) + schwarz.BOUND_FLOOR
    assert scan - rounding <= value <= scan + spacing + rounding
    assert value <= score_bound(alpha, beta, gamma, kq, r)


def test_circle_max_takes_the_vertex_where_the_maths_puts_it():
    # alpha gamma < 0 and |c*| < 1: the vertex beats both ends of the circle
    alpha, beta, gamma, kq, r = 1.0, 1.0, -0.5, 0.0, 1.0
    value, u, v, _, _ = circle_max(alpha, beta, gamma, kq, r)
    assert u == pytest.approx(0.25, abs=1e-15) and v > 0.0
    ends = [point_scores(alpha, beta, gamma, kq, c, 0.0)[0] for c in (1.0, -1.0)]
    assert value > max(ends)
    # alpha gamma >= 0: the end where L = 2 beta r (alpha + gamma r^2) has its sign
    assert circle_max(1.0, -1.0, 0.5, 0.0, 1.0)[1] == -1.0
    assert circle_max(1.0, 1.0, 0.5, 0.0, 1.0)[1] == 1.0


@st.composite
def levels(draw):
    """(alpha, beta, gamma, kq): a free |a4| level, or real coefficients of scales 1e-3 to 10, kq >= 0, a tenth exactly 0."""
    if draw(st.booleans()):
        fn = oracle.Functional("abs_a4", draw(st.sampled_from(("starlike", "convex"))))
        lam = draw(st.floats(min_value=LAMBDA_MIN, max_value=math.pi / 2))
        return oracle._quadratic(fn, lam, draw(st.floats(min_value=0.0, max_value=2.0)))

    def coefficient():
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            return 0.0
        return draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(min_value=-3.0, max_value=1.0))

    return coefficient(), coefficient(), coefficient(), abs(coefficient())


#: The dense scan of test_level_radii_hold_the_maximum_over_the_disk: 4,001 circles, r = 0 and 1 among them.
_DENSE_RADII = np.linspace(0.0, 1.0, 4001)


@given(levels())
@settings(max_examples=500, deadline=None)
@example((0.0, 0.0, 0.0, 1.0))  # every radius NaN or clipped: the maximum kq is at r = 0
@example((1.0, 1.0, -1.0, 0.0))  # kq = 0: the vertex branch is linear in r^2 and peaks at r = 1
def test_level_radii_hold_the_maximum_over_the_disk(level):
    # circle_max settles arg x, and the 4 radii hold the maximum over r: their
    # best is never below a dense scan of circles by more than rounding, and
    # level_bound is above every score of the level
    r = level_radii(*level)
    assert r.shape == (4,) and ((0.0 <= r) & (r <= 1.0)).all()
    best = float(circle_max(*level, r)[0].max())
    dense = float(circle_max(*level, _DENSE_RADII)[0].max())
    rounding = 2 * CIRCLE_ULPS * 2.0**-52 * sum(abs(c) for c in level) + schwarz.BOUND_FLOOR
    assert best >= dense - rounding
    assert level_bound(*level) >= max(best, dense)


def _eight_radii(alpha, beta, gamma, kq):
    """The earlier 8-radius rule, kept as a reference: level_radii's 4, -r of its end-branch 2, and the vertex roots."""
    alpha, beta, gamma, kq = (np.asarray(c, dtype=float) for c in (alpha, beta, gamma, kq))  # numpy's division by 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        square, k2 = beta * beta, kq * kq
        a1, a2 = 0.5 * square - 2.0 * alpha * gamma, gamma * (gamma - square / (4.0 * alpha))
        qa, qb, qc = a2 * (a2 - k2), a1 * (a2 - k2), 0.25 * a1 * a1 - k2 * (alpha * (alpha - square / (4.0 * gamma)))
        h = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
        r = np.empty((*np.shape(h), 8))  # filled column by column: cheaper than stacking 8 arrays
        r[..., 0], r[..., 1] = 0.0, 1.0
        r[..., 2], r[..., 3] = beta / (2.0 * (kq - gamma)), beta / (2.0 * (kq + gamma))
        r[..., 4:6] = -r[..., 2:4]
        r[..., 6], r[..., 7] = np.sqrt(h / qa), np.sqrt(qc / h)
    return np.where(r > 0.0, np.minimum(r, 1.0), 0.0)


@given(levels())
@settings(max_examples=500, deadline=None)
@example((0.0, 0.0, 0.0, 1.0))
@example((1.0, 1.0, -1.0, 0.0))
# free |a4| at p1 one ulp below 2: A2 rounds to kq^2, so qa = 0 and a vertex root is inf
@example((0.0644895131151605, 4.907053177312107e-17, -3.81153457127596e-17, 3.811534571275961e-17))
# free |a4| at a tiny lambda near p1 = 2: a vertex root of the reference is 0.0059, spurious
@example((4.722222222222221e-31, 1.850371707708594e-36, -7.401486830834376e-27, 7.401486830834377e-27))
# alpha gamma > 0, so a spurious vertex root, 1 - 2^-53, scores one ulp above r = 1
@example((-1.7782794100389228, -0.023971858303515215, -1.7782794100389228, 1.7782794100389228))
def test_the_4_radii_score_the_maximum_of_the_8(level):
    # of the 4 radii dropped, the mirrored end-branch pair -r clips to 0, and
    # the vertex roots are the double root r^2 = alpha/gamma, below 0 wherever
    # the vertex branch exists (alpha gamma < 0); elsewhere a spurious root
    # can beat the 4 radii by rounding alone
    four, eight = (float(circle_max(*level, radii(*level))[0].max()) for radii in (level_radii, _eight_radii))
    rounding = 2 * CIRCLE_ULPS * 2.0**-52 * sum(abs(c) for c in level) + schwarz.BOUND_FLOOR
    assert eight - rounding <= four <= eight  # the 4 radii are among the 8's values
    alpha, beta, gamma, _ = level
    if np.sign(alpha) * np.sign(gamma) < 0.0:
        # exactly, 4 A0 A2 = A1^2; in floats the reference's quartic can put a
        # spurious root in (0, 1] where A2 rounds near kq^2, as at p1 near 2
        a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
        a0, a1, a2 = a * (a - b * b / (4 * g)), b * b / 2 - 2 * a * g, g * (g - b * b / (4 * a))
        assert 4 * a0 * a2 == a1 * a1 and a / g < 0
        assert repr(four) == repr(eight)


def test_the_4_radii_score_the_maximum_of_the_8_across_free_a4():
    # every free |a4| level of a 120 x 4,001 (lambda, p1) grid and the 64 p1 just below 2, both classes
    p1 = np.append(np.linspace(0.0, 2.0, 4001), 2.0 - np.arange(1, 65) * 2.0**-52)
    for cls in ("starlike", "convex"):
        for lam in np.linspace(LAMBDA_MIN, math.pi / 2, 120).tolist():
            coefs = [np.broadcast_to(c, p1.shape) for c in oracle._quadratic(oracle.Functional("abs_a4", cls), lam, p1)]
            columns = [c[:, None] for c in coefs]
            four, eight = (circle_max(*columns, radii(*coefs))[0].max(axis=1) for radii in (level_radii, _eight_radii))
            assert four.tobytes() == eight.tobytes(), (cls, lam)
