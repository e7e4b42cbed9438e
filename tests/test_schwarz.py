import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coefbound.schwarz import (
    CaratheodoryParams,
    SchwarzCoefficients,
    caratheodory_moments,
    _axis_levels,
    _project_disk,
    caratheodory_to_schwarz,
    grid_chunks,
    grid_size,
    random_chunks,
    refine_around,
    refine_offset_chunks,
    refine_offsets,
    sample_param_arrays,
    sample_params,
    validate_schwarz,
)

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

    def test_grid_includes_corner(self):
        pts = sample_params(0, 32, "grid")
        assert any(p.p1 == 2.0 and p.x == 1.0 and p.y == 1.0 for p in pts)

    def test_grid_respects_count(self):
        assert len(sample_params(0, 32, "grid")) <= 32
        assert len(sample_params(0, 1000, "grid")) <= 1000

    def test_grid_hits_boundary_moduli_and_phases(self):
        pts = sample_params(0, 200, "grid")
        assert any(abs(p.x) == 0.0 for p in pts)
        assert any(abs(abs(p.x) - 1.0) < 1e-15 for p in pts)
        assert any(abs(p.x + 1.0) < 1e-12 for p in pts)  # phase pi present

    def test_fixed_p1(self):
        pts = sample_params(3, 50, "random", fixed_p1=0.8)
        assert all(p.p1 == 0.8 for p in pts)
        grid = sample_params(3, 81, "grid", fixed_p1=1.5)
        assert all(p.p1 == 1.5 for p in grid)

    def test_refine_locality(self):
        center = CaratheodoryParams(0.0, 0.0, 1.0)
        radius = 0.25
        pts = sample_params(11, 300, "refine-around", center=center, radius=radius)
        for q in pts:
            assert abs(q.p1 - center.p1) <= 2 * radius + 1e-12
            assert abs(q.x - center.x) <= radius + 1e-12
            assert abs(q.y - center.y) <= radius + 1e-12

    def test_refine_stays_admissible(self):
        center = CaratheodoryParams(1.9, 0.99, -0.98j)
        pts = sample_params(5, 200, "refine-around", center=center, radius=0.4)
        for q in pts:
            assert 0.0 <= q.p1 <= 2.0
            assert abs(q.x) <= 1.0 + 1e-15
            assert abs(q.y) <= 1.0 + 1e-15

    def test_refine_requires_center(self):
        with pytest.raises(ValueError):
            sample_params(1, 10, "refine-around")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            sample_params(1, 10, "sobol")

    def test_count_positive(self):
        with pytest.raises(ValueError):
            sample_params(1, 0, "random")

    def test_array_and_object_paths_agree(self):
        p1, x, y = sample_param_arrays(9, 17, "random")
        objs = sample_params(9, 17, "random")
        assert np.allclose(p1, [o.p1 for o in objs])
        assert np.allclose(x, [o.x for o in objs])
        assert np.allclose(y, [o.y for o in objs])


def _refine_reference(seed, count, center, radius, fixed_p1):
    """The refine-around draw with the centre applied inline, offsets unnamed."""
    u = np.random.default_rng(seed).random((count, 6))
    if fixed_p1 is None:
        p1 = np.clip(center.p1 + 2.0 * radius * (2.0 * u[:, 0] - 1.0), 0.0, 2.0)
    else:
        p1 = np.full(count, float(fixed_p1))
    x = center.x + radius * np.sqrt(u[:, 1]) * np.exp(2j * np.pi * u[:, 2])
    y = center.y + radius * np.sqrt(u[:, 3]) * np.exp(2j * np.pi * u[:, 4])
    project = lambda z: np.where(np.abs(z) > 1.0, z / np.abs(z), z)  # noqa: E731
    return p1, project(x), project(y)


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


centers = st.builds(CaratheodoryParams, st.floats(min_value=0.0, max_value=2.0), unit_disk, unit_disk)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=1e-6, max_value=1.0),
    centers,
    centers,
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0)),
)
@settings(max_examples=200, deadline=None)
def test_refine_around_is_shared_offsets_plus_centre(seed, count, radius, a, b, fixed_p1):
    # One offset draw serves every centre: applying one leaves the offsets
    # as a fresh draw gives them, and each composition is bit-for-bit the
    # refine-around sample at that centre.
    offsets = refine_offsets(seed, count, radius)
    for center in (a, b):
        p1c = None if fixed_p1 is not None else center.p1
        row = (p1c, center.x.real, center.x.imag, center.y.real, center.y.imag)
        p1, *points = _assembled(refine_around(offsets, row))
        if fixed_p1 is not None:  # a pinned p1 is not drawn
            assert p1 is None
            p1 = np.full(count, float(fixed_p1))
        sampled = sample_param_arrays(seed, count, "refine-around", fixed_p1, center, radius)
        want = _refine_reference(seed, count, center, radius, fixed_p1)
        assert _bits([p1, *points]) == _bits(sampled) == _bits(want)
        assert _bits(offsets) == _bits(refine_offsets(seed, count, radius))


def _grid_reference(count, fixed_p1):
    """The grid as one 5-D meshgrid, with exp taken on every row."""
    levels = _axis_levels(count, fixed_p1)
    if fixed_p1 is None:
        p1 = np.linspace(0.0, 2.0, levels.pop(0))
    else:
        p1 = np.array([float(fixed_p1)])
    mx = np.linspace(0.0, 1.0, levels[0])
    ax = 2.0 * np.pi * np.arange(levels[1]) / levels[1]
    my = np.linspace(0.0, 1.0, levels[2])
    ay = 2.0 * np.pi * np.arange(levels[3]) / levels[3]
    p1g, mxg, axg, myg, ayg = np.meshgrid(p1, mx, ax, my, ay, indexing="ij")
    return p1g.ravel().astype(float), (mxg * np.exp(1j * axg)).ravel(), (myg * np.exp(1j * ayg)).ravel()


def _joined(blocks, chunk):
    blocks = list(blocks)
    assert all(0 < b[0].size <= chunk for b in blocks)
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _one_disk_grid_reference(count, fixed_p1):
    """The (p1, x) grid as one 3-D meshgrid, with exp taken on every row."""
    levels = _axis_levels(count, fixed_p1, 1)
    if fixed_p1 is None:
        p1 = np.linspace(0.0, 2.0, levels.pop(0))
    else:
        p1 = np.array([float(fixed_p1)])
    mx = np.linspace(0.0, 1.0, levels[0])
    ax = 2.0 * np.pi * np.arange(levels[1]) / levels[1]
    p1g, mxg, axg = np.meshgrid(p1, mx, ax, indexing="ij")
    return p1g.ravel().astype(float), (mxg * np.exp(1j * axg)).ravel()


pinned_p1 = st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0))
chunks = st.integers(min_value=1, max_value=5000)
disk_counts = st.sampled_from((1, 2))


@given(st.integers(min_value=1, max_value=4000), pinned_p1, chunks, disk_counts)
@settings(max_examples=100, deadline=None)
def test_grid_chunks_concatenate_to_the_grid(count, fixed_p1, chunk, disks):
    got = _joined(grid_chunks(count, fixed_p1, chunk, disks), chunk)
    assert len(got) == 1 + 2 * disks
    assert all(col.dtype == np.float64 and col.flags.c_contiguous for col in got)
    assert got[0].size == grid_size(count, fixed_p1, disks)
    got = _assembled(got)
    if disks == 2:
        assert _bits(got) == _bits(sample_param_arrays(0, count, "grid", fixed_p1))
        assert _bits(got) == _bits(_grid_reference(count, fixed_p1))
    else:
        assert _bits(got) == _bits(_one_disk_grid_reference(count, fixed_p1))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4000),
    pinned_p1,
    chunks,
    disk_counts,
)
@settings(max_examples=100, deadline=None)
def test_random_chunks_concatenate_to_one_draw(seed, count, fixed_p1, chunk, disks):
    # a one-disk row is the (p1, x) of the two-disk row
    got = _joined(random_chunks(seed, count, fixed_p1, chunk, disks), chunk)
    assert len(got) == 1 + 2 * disks
    assert all(col.dtype == np.float64 and col.flags.c_contiguous for col in got)
    got = _assembled(got)
    assert _bits(got) == _bits(sample_param_arrays(seed, count, "random", fixed_p1)[: 1 + disks])
    assert _bits(got) == _bits(_random_reference(seed, count, fixed_p1)[: 1 + disks])


def _random_reference(seed, count, fixed_p1):
    """The random draw as one complex computation, mod * exp(1j * phase) on every row."""
    u = np.random.default_rng(seed).random((count, 10))
    if fixed_p1 is None:
        p1 = 2.0 * u[:, 1].copy()
        p1[u[:, 0] < 0.125] = 2.0
        p1[(u[:, 0] >= 0.125) & (u[:, 0] < 0.1875)] = 0.0
    else:
        p1 = np.full(count, float(fixed_p1))
    points = []
    for k in (2, 6):
        sel, val, selp, valp = (u[:, k + i] for i in range(4))
        mod = val.copy()
        mod[sel < 0.125] = 1.0
        mod[(sel >= 0.125) & (sel < 0.1875)] = 0.0
        phase = 2.0 * np.pi * valp
        phase[selp < 0.125] = 0.0
        phase[(selp >= 0.125) & (selp < 0.25)] = np.pi
        points.append(mod * np.exp(1j * phase))
    return p1, *points


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("fixed_p1", [None, 0.7])
def test_random_bits_match_the_complex_draw(seed, fixed_p1):
    # 20,000 rows, in the search's blocks of 8192, hit every atom about
    # 1,000 times, the signed zeros of the zero-modulus atom included
    got = _assembled(_joined(random_chunks(seed, 20_000, fixed_p1, 8192), 8192))
    want = _random_reference(seed, 20_000, fixed_p1)
    assert np.count_nonzero(want[1] == 0.0) > 500
    assert np.signbit(want[1].real[want[1] == 0.0]).any()
    assert _bits(got) == _bits(want)
    assert _bits(sample_param_arrays(seed, 20_000, "random", fixed_p1)) == _bits(want)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4000),
    st.floats(min_value=1e-6, max_value=1.0),
    chunks,
    disk_counts,
)
@settings(max_examples=100, deadline=None)
def test_refine_offset_chunks_concatenate_to_the_offsets(seed, rnd, count, radius, chunk, disks):
    # a one-disk row is the (dp1, dx) of the two-disk row
    got = _joined(refine_offset_chunks([seed, rnd], count, radius, chunk, disks), chunk)
    assert all(col.dtype == np.float64 and col.flags.c_contiguous for col in got)
    assert _bits(got) == _bits(refine_offsets([seed, rnd], count, radius, disks))
    assert _bits(got) == _bits(refine_offsets([seed, rnd], count, radius)[: 1 + 2 * disks])


def test_refine_around_needs_one_centre_point_per_disk_offset():
    offsets = refine_offsets(1, 10, 0.1, 1)
    p1, x_re, x_im = refine_around(offsets, (1.0, 0.0, 0.5))
    assert p1.size == x_re.size == x_im.size == 10
    pinned, *_ = refine_around(offsets, (None, 0.0, 0.5))
    assert pinned is None
    with pytest.raises(ValueError):
        refine_around(offsets, (1.0, 0.0, 0.5, 0.0, 0.0))


def _projected(z):
    """The complex projection the columns reproduce."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # 0 / 0 is not selected
        return np.where(np.abs(z) > 1.0, z / np.abs(z), z)


_signed_units = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)] + [
    1.0, -1.0, 1j, -1j, complex(-0.0, 1.0), complex(1.0, -0.0), complex(-1.0, -0.0),
    complex(-0.0, 2.0), complex(0.0, -2.0), complex(-2.0, -0.0), complex(2.0, 0.0),
]
_phases = st.floats(min_value=-4.0, max_value=4.0)
_near_circle = st.builds(
    lambda t, e: complex((1.0 + e) * math.cos(t), (1.0 + e) * math.sin(t)),
    _phases,
    st.floats(min_value=-1e-12, max_value=1e-12),
)
_on_circle = st.builds(lambda t: complex(math.cos(t), math.sin(t)), _phases)
_off_circle = st.builds(
    lambda t, m: complex(m * math.cos(t), m * math.sin(t)),
    _phases,
    st.floats(min_value=0.0, max_value=3.0),
)
_projection_points = st.lists(
    st.one_of(_on_circle, _near_circle, _off_circle, st.sampled_from(_signed_units)),
    min_size=1,
    max_size=40,
)


@given(_projection_points)
@settings(max_examples=300, deadline=None)
def test_column_projection_is_the_complex_projection(points):
    # the screen on re^2 + im^2 may skip only rows that stay, and a moved
    # row is scaled exactly as complex division scales it, signed zeros too
    z = np.array(points + _signed_units, dtype=np.complex128)
    re, im = z.real.copy(), z.imag.copy()
    _project_disk(re, im)
    assert _bits(_assembled([None, re, im])[1:]) == _bits([_projected(z)])
