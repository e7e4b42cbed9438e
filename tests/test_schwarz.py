import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coefbound.schwarz import (
    CaratheodoryParams,
    SchwarzCoefficients,
    caratheodory_moments,
    _axis_levels,
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
        got = refine_around(offsets, (center.p1, center.x, center.y), fixed_p1)
        sampled = sample_param_arrays(seed, count, "refine-around", fixed_p1, center, radius)
        want = _refine_reference(seed, count, center, radius, fixed_p1)
        assert _bits(got) == _bits(sampled) == _bits(want)
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
    assert len(got) == 1 + disks
    assert got[0].size == grid_size(count, fixed_p1, disks)
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
    want = sample_param_arrays(seed, count, "random", fixed_p1)[: 1 + disks]
    assert _bits(got) == _bits(want)


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
    assert _bits(got) == _bits(refine_offsets([seed, rnd], count, radius, disks))
    assert _bits(got) == _bits(refine_offsets([seed, rnd], count, radius)[: 1 + disks])


def test_refine_around_needs_one_centre_point_per_disk_offset():
    offsets = refine_offsets(1, 10, 0.1, 1)
    p1, x = refine_around(offsets, (1.0, 0.5j))
    assert p1.size == x.size == 10
    with pytest.raises(ValueError):
        refine_around(offsets, (1.0, 0.5j, 0.0))
