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
    circle_max,
    grid_chunks,
    level_bound,
    level_radii,
    level_scan,
    point_scores,
    polar_scan,
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


@st.composite
def polar_grids(draw):
    """((alpha, beta, gamma, kq), rs, ts): scalar coefficients, gamma and kq often 0."""
    alpha, beta = draw(_coefficient), draw(_coefficient)
    gamma, kq = (draw(st.one_of(st.just(0.0), _coefficient)) for _ in range(2))
    rs = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
    ts = draw(st.lists(st.floats(min_value=-7.0, max_value=7.0), min_size=1, max_size=8))
    return (alpha, beta, gamma, kq), np.array(rs), np.array(ts)


def _polar_reference(coeffs, rs, ts):
    """|A| + kq (1 - |x|^2) on the whole grid, A = alpha + beta x + gamma x^2 in complex arithmetic."""
    alpha, beta, gamma, kq = coeffs
    x = rs[:, None] * np.exp(1j * ts[None, :])
    return np.abs(alpha + beta * x + gamma * x * x) + kq * (1.0 - np.abs(x) ** 2)


@given(polar_grids(), st.integers(min_value=1, max_value=64))
@settings(max_examples=300, deadline=None)
def test_polar_scan_is_the_complex_grid_maximum(grid, chunk):
    coeffs, rs, ts = grid
    got = polar_scan(coeffs, rs, ts, chunk=chunk)
    assert repr(got) == repr(polar_scan(coeffs, rs, ts, chunk=10**6))
    ref = _polar_reference(coeffs, rs, ts)
    value, r, t = got
    tol = 1e-15 * (1.0 + sum(abs(c) for c in coeffs))
    assert abs(value - ref.max()) <= tol
    # the point is on the grid and scores the value
    at = (list(rs).index(r), list(ts).index(t))
    assert abs(ref[at] - value) <= tol
    # a maximum that no other point comes near is found at its own index
    top = np.sort(ref.ravel())
    if top.size == 1 or top[-2] < top[-1] - 4.0 * tol:
        want = np.unravel_index(np.argmax(ref), ref.shape)
        assert (rs[want[0]], ts[want[1]]) == (r, t)


@given(
    st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_polar_scan_keeps_the_first_of_tied_points(alpha, n_r, n_t, chunk):
    # with beta = gamma = kq = 0 every point scores |alpha| exactly: the
    # first radius and angle win
    rs, ts = np.linspace(0.0, 1.0, n_r), np.linspace(-1.0, 1.0, n_t)
    assert polar_scan((alpha, 0.0, 0.0, 0.0), rs, ts, chunk=chunk) == (abs(alpha), 0.0, -1.0)


def test_polar_scan_reports_nothing_below_the_incumbent():
    rs, ts = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 6.0, 7)
    assert polar_scan((1.0, 1.0, 0.0, 0.0), rs, ts, best=2.0) is None


def _spy_scores(monkeypatch):
    """Record (points, beta r, gamma r^2) of every block that schwarz._scores scores, seed rows included."""
    blocks = []
    scores = schwarz._scores

    def recording(factors, trig, rows, cols):
        vals = scores(factors, trig, rows, cols)
        blocks.append((vals.size, factors[1][rows], factors[2][rows]))
        return vals

    monkeypatch.setattr(schwarz, "_scores", recording)
    return blocks


def test_polar_scan_blocks_hold_at_most_chunk_points(monkeypatch):
    # rows longer than the block are cut into runs of angles, in the scan and
    # in the seed row, and the first maximum is the same at any block
    rs, ts = np.linspace(0.0, 1.0, 15), np.linspace(-3.0, 3.0, 100)
    coeffs = (0.7, 1.0, -0.5, 0.25)
    want = polar_scan(coeffs, rs, ts, chunk=10**6)
    blocks = _spy_scores(monkeypatch)
    for chunk in (7, 100, 250):
        blocks.clear()
        assert polar_scan(coeffs, rs, ts, chunk=chunk) == want
        assert max(size for size, *_ in blocks) <= chunk
    # |x^2| + 1 - |x|^2 is 1 everywhere, so no row can be bounded out: every
    # grid point is scored once in the scan, plus one seed row per run of
    # at most chunk rows that fills more than one block (chunk 7 takes runs
    # of 7, 7 and 1 rows; at chunk 1500 all 15 rows fit one block)
    flat = (0.0, 0.0, 1.0, 1.0)
    for chunk, seeds in ((7, 2), (100, 1), (250, 1), (1500, 0)):
        blocks.clear()
        polar_scan(flat, rs, ts, chunk=chunk)
        assert max(size for size, *_ in blocks) <= chunk
        assert sum(size for size, *_ in blocks) == 15 * 100 + seeds * 100


def _polar_scan_unbounded(coeffs, rs, ts, best=-math.inf, chunk=8192):
    """polar_scan without the row bound: every point of the grid is scored."""
    alpha, beta, gamma, kq = coeffs
    affine = not (gamma or kq)
    cos1, sin1, cos2, sin2 = np.cos(ts), np.sin(ts), np.cos(2.0 * ts), np.sin(2.0 * ts)
    rows, width = max(1, chunk // ts.size), min(chunk, ts.size)
    found = None
    for first in range(0, rs.size, chunk):
        r = rs[first : first + chunk, None]
        br, gr2, kr = beta * r, gamma * (r * r), kq * (1.0 - r * r)
        for start in range(0, r.size, rows):
            for col in range(0, ts.size, width):
                block, cols = slice(start, start + rows), slice(col, col + width)
                re = br[block] * cos1[cols]
                re += alpha
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
                    found = best, float(r[start + i, 0]), float(ts[col + j])
    return found


def _row_bounds(coeffs, rs):
    """score_bound and the bare triangle bound (no rounding margin) of every radius."""
    alpha, beta, gamma, kq = coeffs
    triangle = abs(alpha) + abs(beta) * rs + abs(gamma) * (rs * rs) + kq * (1.0 - rs * rs)
    return score_bound(alpha, beta, gamma, kq, rs), triangle


#: Angles within 1e-6 of 0, where |A| can round above the bare triangle bound.
_near_zero = st.floats(min_value=-1e-6, max_value=1e-6)


def _seed_row_max(coeffs, rs, ts):
    """The maximum of the grid's row of largest score_bound, the row polar_scan scores first."""
    radius = int(np.argmax(_row_bounds(coeffs, rs)[0]))
    return _polar_scan_unbounded(coeffs, rs[[radius]], ts)[0]


@st.composite
def bounded_scans(draw):
    """A polar grid and an incumbent: none, the grid maximum, at a row's bound or the seed row's maximum.

    The maxima are also taken one ulp below; half the grids are affine (gamma = kq = 0).
    """
    coeffs, rs, ts = draw(polar_grids())
    if draw(st.booleans()):
        coeffs = (*coeffs[:2], 0.0, 0.0)
    ts = np.append(ts, draw(st.lists(_near_zero, max_size=3)))
    top = _polar_scan_unbounded(coeffs, rs, ts)[0]
    seed = _seed_row_max(coeffs, rs, ts)
    bound, triangle = _row_bounds(coeffs, rs)
    row = draw(st.integers(min_value=0, max_value=rs.size - 1))
    below = [np.nextafter(v, -math.inf) for v in (top, seed)]
    best = draw(st.sampled_from([-math.inf, top, seed, *below, bound[row], triangle[row]]))
    return coeffs, rs, ts, float(best)


def _tied_radii(s, rs):
    """|s - 2 s x^2| at x = +-r: s at r = 0 and r = 1, below s in between; the bound grows with r."""
    return (s, 0.0, -2.0 * s, 0.0), np.array(rs), np.array([0.0, np.pi])


@st.composite
def tied_scans(draw):
    """_tied_radii on radii holding 0 and 1, with no incumbent, or at or one ulp below the tied maximum."""
    s = draw(st.floats(min_value=0.1, max_value=3.0))
    rs = sorted({0.0, 1.0, *draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4))})
    best = draw(st.sampled_from([-math.inf, s, np.nextafter(s, -math.inf)]))
    return (*_tied_radii(s, rs), float(best))


# each example has one point whose computed score rounds above the bare triangle bound of its row
_above_triangle = [
    ((0.0, 0.21977905140063492, 0.0, 0.0), 1.0, 0.013670235940547695),
    ((0.0, 2.0669152354878, 0.0, 0.6026134915729671), 1.0, -2.393901054228893e-07),
    ((0.5436186786929604, 2.349270510588612, 0.5103905045901137, 0.0), 0.7622546197746868, -1.4530921647174914e-08),
]


def _at_triangle(coeffs, r, t):
    """The one-point scan at (r, t) with its incumbent at the row's bare triangle bound."""
    rs = np.array([r])
    return coeffs, rs, np.array([t]), float(_row_bounds(coeffs, rs)[1][0])


def _tied_example(best, chunk):
    return _tied_radii(1.0, [0.0, 0.5, 1.0]) + (best,), chunk


@given(
    st.one_of(bounded_scans(), tied_scans()),
    st.one_of(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=64)),
)
@settings(max_examples=400, deadline=None)
@example(_at_triangle(*_above_triangle[0]), 1)
@example(_at_triangle(*_above_triangle[1]), 1)
@example(_at_triangle(*_above_triangle[2]), 1)
@example(*_tied_example(-math.inf, 3))  # a block per row; the seed row is r = 1
@example(*_tied_example(-math.inf, 4))  # two rows per block
@example(*_tied_example(-math.inf, 1))  # one row per run, each longer than the block
@example(*_tied_example(float(np.nextafter(1.0, -math.inf)), 3))
@example(*_tied_example(1.0, 3))
def test_bounded_polar_scan_is_the_unbounded_scan(scan, chunk):
    # rows are skipped only where no point could pass the strict test, and
    # the seed row lifts the incumbent to one ulp below a grid score, so
    # ties, incumbents at the maximum, at a row's bound and at the seed
    # row's maximum keep every bit
    coeffs, rs, ts, best = scan
    got = polar_scan(coeffs, rs, ts, best, chunk)
    assert repr(got) == repr(_polar_scan_unbounded(coeffs, rs, ts, best, chunk))


def test_a_tie_before_the_seed_row_wins(monkeypatch):
    # the top-bound row (r = 1) holds the maximum 1.0, and so does the row
    # r = 0 before it: the first of them wins
    coeffs, rs, ts = _tied_radii(1.0, [0.0, 0.5, 1.0])
    assert int(np.argmax(_row_bounds(coeffs, rs)[0])) == 2
    blocks = _spy_scores(monkeypatch)
    for chunk in (1, 2, 3, 4, 6, 64):
        blocks.clear()
        assert polar_scan(coeffs, rs, ts, chunk=chunk) == (1.0, 0.0, 0.0)
        # at 3 and 4 points per block the 3 rows of 2 angles fill more than
        # one block, so the row r = 1 (gamma r^2 = -2) is scored first, as
        # the seed (at 2, runs of 2 rows seed the first from r = 0.5)
        assert (blocks[0][2].tolist() == [[-2.0]]) == (chunk in (3, 4))


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
    value = _polar_scan_unbounded(coeffs, rs, ts)[0]
    assert value <= score_bound(*coeffs, r)
    # and above circle_max's score on the same circle
    assert circle_max(*coeffs, r)[0] <= score_bound(*coeffs, r)


def test_computed_scores_can_round_above_the_bare_triangle_bound():
    # so the bound needs its margin
    for coeffs, r, t in _above_triangle:
        rs = np.array([r])
        value = _polar_scan_unbounded(coeffs, rs, np.array([t]))[0]
        assert _row_bounds(coeffs, rs)[1][0] < value <= score_bound(*coeffs, r)


def test_polar_scan_scores_no_row_bounded_at_the_incumbent(monkeypatch):
    rs, ts = np.linspace(0.0, 1.0, 15), np.linspace(-3.0, 3.0, 40)
    coeffs = (0.7, 1.0, -0.5, 0.25)
    bound = _row_bounds(coeffs, rs)[0]
    blocks = _spy_scores(monkeypatch)
    # at the largest bound nothing is scored, not even the seed row
    for chunk in (40, 8192):
        assert polar_scan(coeffs, rs, ts, float(bound.max()), chunk) is None
    assert blocks == []
    # below it every scored row, the seed row included, is bounded above the
    # incumbent; beta = 1, so a block's beta r is its rows' r.  At 40 points
    # per block every row is a block, so each scan of two rows or more is seeded
    for best, chunk in itertools.product((np.nextafter(bound.max(), -math.inf), *bound), (40, 8192)):
        blocks.clear()
        polar_scan(coeffs, rs, ts, float(best), chunk)
        assert blocks if best < bound.max() else not blocks
        for _, r, _ in blocks:
            assert (score_bound(0.7, 1.0, -0.5, 0.25, r) > best).all()


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

    limits = ((0.0, 2.0),)
    value, p1, r, u, v, re, im = polish(scan, (0.0, 1.9, 0.9), (0.5,), limits, 20, 9, 0.5)
    assert (value, p1, r, u, v, re, im) == (3.0, 2.0, 1.0, 1.0, 0.0, 3.0, 0.0)
    # no round beats an incumbent at the maximum, so it is kept as it is
    top = (3.0, 2.0, 1.0, 1.0, 0.0, 3.0, 0.0)
    assert polish(scan, top, (0.5,), limits, 3, 9, 0.5) is top


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
    """Every level's 8 radii, levels outer: their p1 and r columns and each candidate's coefficients."""
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
    # the levels in order, each at its 8 radii, each radius's circle_max, and the first of the largest
    got = level_scan(coefficients, [p1_levels], chunk=chunk)
    p1, r, coefs = _level_candidates(coefficients, p1_levels)
    vals, u, v, re, im = circle_max(*coefs, r)
    i = int(np.argmax(vals))
    assert got == (float(vals[i]), float(p1[i]), float(r[i]), float(u[i]), float(v[i]), float(re[i]), float(im[i]))
    if coefficients is _mirrored_coefficients:  # the tie goes to the first level
        assert vals[i + 8] == vals[i] and got[1] == p1_levels[0]
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
    # an incumbent at the largest score_bound of a radius scores none; one ulp lower, the radii at it are scored
    scored.clear()
    top = float(score_bound(*coefs, r).max())
    assert level_scan(coefficients, [p1_levels], top, chunk) is None
    assert scored == []
    level_scan(coefficients, [p1_levels], float(np.nextafter(top, -np.inf)), chunk)
    assert scored


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
@example((1.0, 1.0, -1.0, 0.0))  # kq = 0: the vertex branch's double root
def test_level_radii_hold_the_maximum_over_the_disk(level):
    # circle_max settles arg x, and the 8 radii hold the maximum over r: their
    # best is never below a dense scan of circles by more than rounding, and
    # level_bound is above every score of the level
    r = level_radii(*level)
    assert r.shape == (8,) and ((0.0 <= r) & (r <= 1.0)).all()
    best = float(circle_max(*level, r)[0].max())
    dense = float(circle_max(*level, _DENSE_RADII)[0].max())
    rounding = 2 * CIRCLE_ULPS * 2.0**-52 * sum(abs(c) for c in level) + schwarz.BOUND_FLOOR
    assert best >= dense - rounding
    assert level_bound(*level) >= max(best, dense)
