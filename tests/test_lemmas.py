import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from coefbound.schwarz import SchwarzCoefficients


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


class TestYBruteforce:
    def test_all_zero(self):
        assert abs(y_bruteforce(0.0, 0.0, 0.0, 64, 128) - 1.0) < 1e-6

    def test_first_branch_point(self):
        assert abs(y_bruteforce(1.0, 3.0, 0.0, 64, 128) - 4.0) < 2e-3

    def test_pure_quadratic(self):
        # max over r of 2r^2 + 1 - r^2 sits at r = 1 with value 2
        assert abs(y_bruteforce(0.0, 0.0, 2.0, 64, 128) - 2.0) < 2e-3

    def test_grid_preconditions(self):
        with pytest.raises(ValueError):
            y_bruteforce(0.0, 0.0, 0.0, radial=32, angular=128)
        with pytest.raises(ValueError):
            y_bruteforce(0.0, 0.0, 0.0, radial=64, angular=64)

    @pytest.mark.parametrize("a, b, c", NON_FINITE)
    def test_non_finite_inputs_rejected(self, a, b, c):
        with pytest.raises(ValueError):
            y_bruteforce(a, b, c, 64, 128)

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_agreement_with_closed_form(self, a, b, c):
        closed = y_closed_form(a, b, c).value
        brute = y_bruteforce(a, b, c, 64, 128)
        assert abs(closed - brute) < 2e-3


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
