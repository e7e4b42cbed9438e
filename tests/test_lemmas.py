import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coefbound import lemmas
from coefbound.lemmas import (
    Region,
    UnclassifiedRegionError,
    a_sequence_closed,
    a_sequence_recursive,
    classify_region,
    phi_bound,
    psi_functional,
    y_bruteforce,
    y_closed_form,
)
from coefbound.schwarz import SchwarzCoefficients, circle_max, level_radii
from conftest import _polar_reference


class TestClassifyRegion:
    def test_origin_is_d1(self):
        assert classify_region(0.0, 0.0) == {Region.D1}

    def test_d3_point(self):
        assert classify_region(3.0, 0.0) == {Region.D3}

    def test_d5_point(self):
        assert classify_region(2.5, 1.3) == {Region.D5}

    def test_excluded_point_never_d4(self):
        assert Region.D4 not in classify_region(2.0, 1.0)

    def test_shared_boundary_carries_both_labels(self):
        assert classify_region(0.5, 0.2) == {Region.D1, Region.D2}

    def test_d3_d4_share_ridge(self):
        mu = 3.0
        ridge = 2 * mu * (mu + 1) / (mu**2 + 2 * mu + 4)
        assert classify_region(mu, ridge) >= {Region.D3, Region.D4}

    def test_d4_d5_share_cap(self):
        mu = 3.0
        cap = (mu**2 + 8) / 12
        assert classify_region(mu, cap) == {Region.D4, Region.D5}

    def test_uncovered_points_get_empty_set(self):
        assert classify_region(0.6, 0.9) == frozenset()
        assert classify_region(5.0, 2.0) == frozenset()
        assert classify_region(0.0, -2.0) == frozenset()

    def test_symmetric_in_mu(self):
        assert classify_region(-3.0, 0.0) == classify_region(3.0, 0.0)


class TestPhiBound:
    def test_d1_value(self):
        out = phi_bound(0.0, 0.0)
        assert out.value == 1.0 and out.regions == {Region.D1}

    def test_d5_value(self):
        out = phi_bound(3.0, 2.0)
        assert out.value == 2.0

    def test_d2_branch_evaluation(self):
        out = phi_bound(1.0, -0.5)
        assert out.regions == {Region.D2}
        assert abs(out.value - (4.0 / 3.0) * math.sqrt(2.0 / 3.5)) < 1e-15

    def test_unclassified_raises(self):
        with pytest.raises(UnclassifiedRegionError):
            phi_bound(0.6, 0.9)

    def test_multi_region_returns_minimum(self):
        out = phi_bound(0.5, 0.2)
        d2 = (2.0 / 3.0) * 1.5 * math.sqrt(1.5 / (1.5 + 1.0 + 0.2))
        assert out.regions == {Region.D1, Region.D2}
        assert out.value == min(1.0, d2)

    @given(
        st.floats(min_value=-0.49, max_value=0.49),
        st.floats(min_value=-0.99, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_interior_d1_is_exactly_one(self, mu, nu):
        out = phi_bound(mu, nu)
        if out.regions == {Region.D1}:
            assert out.value == 1.0

    def test_printed_d2_branch_dips_below_attainable_value(self):
        # transcription defect, kept verbatim: the quoted branch evaluates
        # below 1 although |c3| = 1 is attained by the z^3 witness
        out = phi_bound(0.525, 0.0625)
        assert out.value < 1.0
        assert abs(out.value - 0.7731) < 1e-3
        witness = SchwarzCoefficients(0.0, 0.0, 1.0)
        assert psi_functional(witness, 0.525, 0.0625) == 1.0


class TestPsiFunctional:
    def test_only_c3(self):
        assert psi_functional(SchwarzCoefficients(0, 0, 1), 12.0, -7.0) == 1.0

    def test_only_nu_term(self):
        assert psi_functional(SchwarzCoefficients(1, 0, 0), 5.0, 0.3) == pytest.approx(0.3)

    def test_hand_value(self):
        c = SchwarzCoefficients(0.5, 0.75, 0.1)
        assert psi_functional(c, 2.0, 1.0) == pytest.approx(0.975)


#: (a, b, c) with one input NaN or infinite.
NON_FINITE = [
    (math.nan, 1.0, 1.0),
    (math.inf, 1.0, 1.0),
    (1.0, math.nan, 1.0),
    (1.0, math.inf, 1.0),
    (1.0, -math.inf, 1.0),
    (1.0, 1.0, math.nan),
    (1.0, 1.0, math.inf),
]


class TestYClosedForm:
    def test_all_zero(self):
        out = y_closed_form(0.0, 0.0, 0.0)
        assert out.value == 1.0 and out.branch == "second"

    def test_first_branch(self):
        out = y_closed_form(1.0, 3.0, 0.0)
        assert out.value == 4.0 and out.branch == "first"

    def test_boundary_both_formulas_agree(self):
        a, b, c = 0.5, 1.0, 0.5
        assert abs(b) == 2 * (1 - c)
        first = a + abs(b) + c
        second = 1 + a + b * b / (4 * (1 - c))
        assert first == second == 2.0
        assert y_closed_form(a, b, c).value == 2.0

    def test_c_at_one_no_singularity(self):
        out = y_closed_form(0.2, 0.1, 1.0)
        assert out.branch == "first" and out.value == pytest.approx(1.3)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            y_closed_form(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            y_closed_form(0.0, 0.0, -0.1)

    @pytest.mark.parametrize("a, b, c", NON_FINITE)
    def test_non_finite_inputs_rejected(self, a, b, c):
        # a < 0 or c < 0 is False for NaN, so only a negated guard refuses it
        with pytest.raises(ValueError):
            y_closed_form(a, b, c)

    @pytest.mark.parametrize("a, b", [(1e308, 1e308), (1e155, 0.0)])
    def test_huge_inputs_rejected(self, a, b):
        # y_bruteforce's domain: a + |b| + c above Y_INPUT_MAX; (1e308, 1e308, 0) once returned inf
        with pytest.raises(ValueError):
            y_closed_form(a, b, 0.0)

    def test_the_largest_inputs_taken_are_finite(self):
        out = y_closed_form(1e150, 0.0, 0.0)
        assert math.isfinite(out.value) and out.value == 1e150 and out.branch == "second"


_finite = st.floats(allow_nan=False, allow_infinity=False)

#: A signed coefficient in [-3, 3], an exact zero about one time in ten.
_signed = st.tuples(st.integers(min_value=0, max_value=9), st.floats(min_value=-3.0, max_value=3.0)).map(
    lambda draw: 0.0 if draw[0] == 0 else draw[1]
)


class TestYBruteforce:
    def test_all_zero(self):
        assert abs(y_bruteforce(0.0, 0.0, 0.0) - 1.0) < 1e-6

    def test_first_branch_point(self):
        assert abs(y_bruteforce(1.0, 3.0, 0.0) - 4.0) < 2e-3

    def test_pure_quadratic(self):
        # max over r of 2r^2 + 1 - r^2 sits at r = 1 with value 2
        assert abs(y_bruteforce(0.0, 0.0, 2.0) - 2.0) < 2e-3

    @pytest.mark.parametrize("a, b, c", NON_FINITE)
    def test_non_finite_inputs_rejected(self, a, b, c):
        with pytest.raises(ValueError):
            y_bruteforce(a, b, c)

    @pytest.mark.parametrize("a", [1e200, 1e155])
    def test_huge_inputs_rejected(self, a):
        # above |a| + |b| + |c| = 1e150 the square |A|^2 can overflow
        with pytest.raises(ValueError):
            y_bruteforce(a, 0.0, 0.0)

    @pytest.mark.parametrize(
        "a, b, c", [(1e150, 0.0, 0.0), (0.0, -1e150, 0.0), (0.0, 0.0, 1e150), (2.0**497, -(2.0**496), 2.0**496)]
    )
    def test_the_largest_inputs_taken_score_finitely(self, a, b, c):
        closed = y_closed_form(a, b, c).value
        assert abs(y_bruteforce(a, b, c) - closed) <= 8 * 2.0**-52 * closed

    @given(_finite, _finite, _finite)
    @settings(max_examples=200, deadline=None)
    def test_every_finite_input_scores_finitely_or_is_refused(self, a, b, c):
        try:
            value = y_bruteforce(a, b, c)
        except ValueError:
            assert abs(a) + abs(b) + abs(c) > lemmas.Y_INPUT_MAX
        else:
            assert math.isfinite(value)

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_agreement_with_closed_form(self, a, b, c):
        closed = y_closed_form(a, b, c).value
        assert abs(y_bruteforce(a, b, c) - closed) <= 8 * 2.0**-52 * closed

    def test_the_digest_cases_are_within_8_ulps_of_the_closed_form(self):
        for a, b, c in _digest_cases():
            closed = y_closed_form(float(a), float(b), float(c)).value
            assert abs(y_bruteforce(float(a), float(b), float(c)) - closed) <= 8 * 2.0**-52 * closed

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_never_below_the_two_loop_polar_grid(self, a, b, c):
        # the disk's own (|z|, arg z) grid, refined in both axes, finds nothing higher
        assert y_bruteforce(a, b, c) >= _two_loop_y(a, b, c) * (1.0 - 4 * 2.0**-52)

    @given(_signed, _signed, _signed)
    @settings(max_examples=150, deadline=None)
    def test_the_full_real_case(self, a, b, c):
        value = y_bruteforce(a, b, c)
        # the free |a4| search's candidate rule: the best circle at the closed-form radii
        best = float(np.max(circle_max(a, b, c, 1.0, level_radii(a, b, c, 1.0))[0]))
        assert abs(value - best) <= 8 * 2.0**-52 * max(1.0, value)
        # z -> -z and A -> -A leave every score as it is
        assert value == y_bruteforce(a, -b, c) == y_bruteforce(-a, -b, -c)
        rs, ts = np.linspace(0.0, 1.0, 201), np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        assert _polar_reference((a, b, c, 1.0), rs, ts).max() <= value * (1.0 + 4 * 2.0**-52)

    def test_keeps_its_pinned_digest(self):
        # a kernel change that moves any of these bits fails here
        values = np.array([y_bruteforce(float(a), float(b), float(c)) for a, b, c in _digest_cases()])
        assert hashlib.sha256(values.tobytes()).hexdigest() == Y_DIGEST


#: sha256 of the float64 bytes of y_bruteforce over _digest_cases().  A change
#: that moves these bits on purpose updates this digest and says so.
Y_DIGEST = "989c8539ca9a8d2fa56685f9e32292515e29f897da1231112901cc811c046f9c"


def _digest_cases():
    """40 seeded (a, b, c), then seven hand cases: zero, both branches, tiny b and the box corner."""
    rng = np.random.default_rng(5)
    a, b, c = rng.uniform(0.0, 3.0, 40), rng.uniform(-6.0, 6.0, 40), rng.uniform(0.0, 3.0, 40)
    hand = [(0, 0, 0), (1, 3, 0), (0, 0, 2), (0.5, 1, 0.5), (2, -1.5, 0.3), (0, 1e-3, 0), (3, 6, 3)]
    return [*zip(a, b, c), *hand]


def _two_loop_y(a, b, c):
    """Y by a 512 x 1024 polar scan, then five 65 x 65 local scans, each a quarter as wide."""

    def scan(rs, ts):
        cos1, sin1, cos2, sin2 = np.cos(ts), np.sin(ts), np.cos(2.0 * ts), np.sin(2.0 * ts)
        r = rs[:, None]
        br, cr2 = b * r, c * (r * r)
        re = a + br * cos1 + cr2 * cos2
        im = br * sin1 + cr2 * sin2
        vals = np.sqrt(re * re + im * im) + (1.0 - r * r)
        i, j = divmod(int(np.argmax(vals)), ts.size)
        return float(vals[i, j]), float(rs[i]), float(ts[j])

    best, r0, t0 = scan(np.linspace(0.0, 1.0, 512), np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False))
    dr, dt = 2.0 / 511, 4.0 * np.pi / 1024
    for _ in range(5):
        found = scan(
            np.linspace(max(0.0, r0 - dr), min(1.0, r0 + dr), 65), np.linspace(t0 - dt, t0 + dt, 65)
        )
        if found[0] > best:
            best, r0, t0 = found
        dr *= 0.25
        dt *= 0.25
    return best


class TestASequence:
    def test_base_case(self):
        lam = Fraction(5, 7)
        assert a_sequence_recursive(lam, 2) == lam
        assert a_sequence_closed(lam, 2) == lam

    def test_lambda_one_is_constant_one(self):
        for m in range(2, 12):
            assert a_sequence_recursive(1, m) == 1
            assert a_sequence_closed(1, m) == 1

    def test_hand_value(self):
        assert a_sequence_recursive(2, 3) == 3
        assert a_sequence_closed(2, 3) == 3

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            a_sequence_recursive(1, 1)
        with pytest.raises(ValueError):
            a_sequence_closed(1, 1)

    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(157, 100)),
        st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=120, deadline=None)
    def test_recursion_equals_closed_form_exactly(self, lam, m):
        assert a_sequence_recursive(lam, m) == a_sequence_closed(lam, m)

    def test_float_path_matches_rational(self):
        lam = 0.8125  # exactly representable
        exact = a_sequence_closed(Fraction(13, 16), 9)
        assert a_sequence_closed(lam, 9) == pytest.approx(float(exact), rel=1e-14)
