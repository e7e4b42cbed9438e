import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coefbound.bounds import (
    LAMBDA_MAX,
    LAMBDA_MIN,
    bound,
    k_coeff_bound,
    k_diff_bound,
    general_coeff_bound,
    r0_root,
    s_diff_bound,
    s_star_coeff_bound,
    sup_over_p,
)
from coefbound.lemmas import a_sequence_closed

lambdas = st.floats(min_value=1e-3, max_value=math.pi / 2)

#: Each side of every lambda breakpoint: 1/5, 3/5, 2/3, 0.8, r0 and sqrt(32/43).
BREAKPOINT_SIDES = [
    b + side
    for b in (0.2, 0.6, 2.0 / 3.0, 0.8, r0_root(), math.sqrt(32.0 / 43.0))
    for side in (-1e-6, 1e-6)
]


class TestR0Root:
    def test_matches_quoted_value(self):
        assert abs(r0_root() - 0.8602) < 1e-4

    def test_residual(self):
        r = r0_root()
        assert abs(425 * r**3 + 340 * r**2 - 328 * r - 240) < 1e-10

    def test_breakpoints_ordered(self):
        r = r0_root()
        assert 0.2 < r < math.sqrt(32.0 / 43.0)


class TestStarlikeCoefficientBounds:
    def test_a2_is_lambda(self):
        for lam in (0.2, 1.0, math.pi / 2):
            assert s_star_coeff_bound(2, lam).value == lam

    def test_a3_at_lambda_one(self):
        out = s_star_coeff_bound(3, 1.0)
        assert out.value == 0.75 and out.branch == "lambda>2/3"

    def test_a3_small_lambda(self):
        out = s_star_coeff_bound(3, 0.5)
        assert out.value == pytest.approx(0.25, abs=1e-15)
        assert out.branch == "lambda<=2/3"

    def test_a3_continuous_at_breakpoint(self):
        lam = 2.0 / 3.0
        left = s_star_coeff_bound(3, lam).value
        right = 0.75 * lam * lam
        assert left == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert right == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(left - right) < 1e-12

    def test_a4_branches(self):
        assert s_star_coeff_bound(4, 0.1).value == pytest.approx(0.1 / 3.0, abs=1e-15)
        assert s_star_coeff_bound(4, 0.1).branch == "lambda<=1/5"
        big = s_star_coeff_bound(4, 1.0)
        assert big.value == pytest.approx(17.0 / 36.0, abs=1e-15)
        assert big.branch == "lambda>sqrt(32/43)"
        mid = s_star_coeff_bound(4, 0.5)
        assert mid.branch == "1/5<lambda<=r0"
        assert mid.value == pytest.approx(
            0.5 / 9 * 4.5 * math.sqrt(27.0 / (17 * 0.25 + 45 + 12)), rel=1e-14
        )
        upper_mid = s_star_coeff_bound(4, 0.861)
        assert upper_mid.branch == "r0<lambda<=sqrt(32/43)"

    def test_a4_documented_jump_at_one_fifth(self):
        # the printed second branch drops below lambda/3 just right of 1/5,
        # although the z^3 witness yields exactly lambda/3 for every lambda;
        # implemented verbatim, adjudicated by the oracle
        left = s_star_coeff_bound(4, 0.2).value
        right = s_star_coeff_bound(4, 0.2 + 1e-9).value
        assert left == pytest.approx(0.2 / 3.0, abs=1e-12)
        assert right < left - 0.015

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            s_star_coeff_bound(5, 1.0)
        with pytest.raises(ValueError):
            s_star_coeff_bound(1, 1.0)

    def test_lambda_out_of_range(self):
        # below LAMBDA_MIN the search's squared scores would leave the normal floats
        for lam in (0.0, 1.8, 1e-100, 5e-324, math.nextafter(LAMBDA_MIN, 0.0), math.nan):
            with pytest.raises(ValueError):
                s_star_coeff_bound(2, lam)
        assert s_star_coeff_bound(2, LAMBDA_MIN).value == LAMBDA_MIN


class TestConvexCoefficientBounds:
    def test_quoted_values_at_one(self):
        assert k_coeff_bound(2, 1.0).value == 0.5
        assert k_coeff_bound(3, 1.0).value == 0.25
        assert k_coeff_bound(4, 1.0).value == pytest.approx(17.0 / 144.0, abs=1e-16)

    def test_small_lambda_branches(self):
        assert k_coeff_bound(3, 0.5).value == pytest.approx(0.5 / 6.0, abs=1e-16)
        assert k_coeff_bound(4, 0.15).value == pytest.approx(0.15 / 12.0, abs=1e-16)

    @given(st.sampled_from([2, 3, 4]), lambdas)
    @settings(max_examples=300, deadline=None)
    def test_correspondence_is_bitwise(self, n, lam):
        # the convex bound times n IS the starlike bound, not merely close
        assert k_coeff_bound(n, lam).value * n == s_star_coeff_bound(n, lam).value

    @given(st.sampled_from([2, 3, 4]), lambdas)
    @settings(max_examples=200, deadline=None)
    def test_branches_match(self, n, lam):
        assert k_coeff_bound(n, lam).branch == s_star_coeff_bound(n, lam).branch


class TestBoundDispatch:
    @pytest.mark.parametrize("lam", BREAKPOINT_SIDES)
    def test_dispatch_is_the_direct_evaluator_bitwise(self, lam):
        for n in (2, 3, 4):
            assert bound("starlike", lam, n=n) == s_star_coeff_bound(n, lam)
            assert bound("convex", lam, n=n) == k_coeff_bound(n, lam)
            assert bound("starlike", lam, n=n).value == n * bound("convex", lam, n=n).value
        for which in ("d32", "d43"):
            for variant in ("proof", "statement"):
                for p in (0.0, 0.5, 1.0, 1.5, 2.0):
                    got = bound("starlike", lam, which=which, p=p, psi2_variant=variant)
                    assert got == s_diff_bound(which, lam, p, psi2_variant=variant)
                for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                    got = bound("convex", lam, which=which, p=p, psi2_variant=variant)
                    assert got == k_diff_bound(which, lam, p)

    def test_point_must_be_fully_specified(self):
        with pytest.raises(ValueError, match="exactly one"):
            bound("starlike", 1.0)
        with pytest.raises(ValueError, match="exactly one"):
            bound("starlike", 1.0, n=2, which="d32", p=1.0)
        with pytest.raises(ValueError, match="needs p"):
            bound("convex", 1.0, which="d32")
        with pytest.raises(ValueError, match="takes no p"):
            bound("convex", 1.0, n=2, p=0.5)
        with pytest.raises(ValueError, match="unknown class"):
            bound("spiral", 1.0, n=2)

    def test_an_unknown_psi2_variant_is_refused_wherever_it_is_passed(self):
        # not only where a starlike d43 bound would read it
        calls = [
            lambda: bound("convex", 1.0, which="d43", p=0.5, psi2_variant="bogus"),
            lambda: bound("starlike", 1.0, n=2, psi2_variant="bogus"),
            lambda: s_diff_bound("d32", 1.0, 0.5, psi2_variant="bogus"),
            lambda: sup_over_p("convex", "d43", 1.0, psi2_variant="bogus"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="psi2_variant must be 'proof' or 'statement', got 'bogus'"):
                call()


class TestStarlikeDifferenceBounds:
    def test_d32_interior_maximum_value(self):
        assert s_diff_bound("d32", 1.0, 0.8).value == pytest.approx(0.7, abs=1e-15)

    def test_d32_at_p_two_first_branch(self):
        out = s_diff_bound("d32", 1.0, 2.0)
        assert out.value == pytest.approx(0.25, abs=1e-15)
        assert out.branch == "p<=8/(3*lambda)"  # 8/(3 lambda) > 2 here

    def test_d32_second_branch_reachable_for_large_lambda(self):
        out = s_diff_bound("d32", 1.5, 1.9)
        assert out.branch == "p>8/(3*lambda)"
        assert out.value == pytest.approx(1.5 / 16 * (8 - 8 * 1.9 + 2.5 * 1.9**2), rel=1e-14)

    def test_d43_at_p_zero(self):
        assert s_diff_bound("d43", 1.0, 0.0).value == pytest.approx(25.0 / 48.0, abs=1e-15)

    def test_d43_anchor_at_p_two(self):
        out = s_diff_bound("d43", 1.0, 2.0)
        assert out.value == pytest.approx(5.0 / 18.0, abs=1e-15)
        assert out.branch == "p=2"

    def test_d43_psi1_region(self):
        out = s_diff_bound("d43", 0.5, 0.4)
        assert out.branch == "psi1:p<=2/(4-5*lambda)"
        out2 = s_diff_bound("d43", 0.5, 1.9)
        assert out2.branch == "psi1:p>2/(4-5*lambda)"

    def test_d43_continuous_at_psi1_breakpoint(self):
        for lam in (0.3, 0.45, 0.59):
            bp = 2.0 / (4.0 - 5.0 * lam)
            left = s_diff_bound("d43", lam, bp - 1e-11).value
            right = s_diff_bound("d43", lam, bp + 1e-11).value
            assert abs(left - right) < 1e-9

    def test_d43_continuous_at_psi2_breakpoint_proof_variant(self):
        for lam in (0.7, 1.0, 1.4):
            bp = 14.0 / (4.0 + 5.0 * lam)
            left = s_diff_bound("d43", lam, bp - 1e-11).value
            right = s_diff_bound("d43", lam, bp + 1e-11).value
            assert abs(left - right) < 1e-9

    def test_d43_second_branch_joins_anchor_at_p_two(self):
        for lam in (0.7, 1.0, 1.5):
            poly = s_diff_bound("d43", lam, 2.0 - 1e-11).value
            anchor = s_diff_bound("d43", lam, 2.0).value
            assert abs(poly - anchor) < 1e-9

    def test_statement_variant_differs_only_past_psi2_breakpoint(self):
        same = s_diff_bound("d43", 1.0, 1.0, psi2_variant="statement")
        assert same.value == s_diff_bound("d43", 1.0, 1.0).value
        past = s_diff_bound("d43", 1.0, 2.0, psi2_variant="statement")
        assert past.value == pytest.approx(-1.3888888888888888, abs=1e-12)
        assert past.branch == "psi2-statement:p>14/(4+5*lambda)"

    def test_statement_variant_psi1_region_unaffected(self):
        a = s_diff_bound("d43", 0.5, 1.9, psi2_variant="statement")
        b = s_diff_bound("d43", 0.5, 1.9, psi2_variant="proof")
        assert a.value == b.value

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            s_diff_bound("d32", 1.0, 2.5)
        with pytest.raises(ValueError):
            s_diff_bound("d43", 1.0, -0.2)

    @given(st.sampled_from(["d32", "d43"]), lambdas, st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=400, deadline=None)
    def test_default_variant_nonnegative(self, which, lam, p):
        assert s_diff_bound(which, lam, p).value >= 0.0


class TestConvexDifferenceBounds:
    def test_d32_quoted_supremum_point(self):
        assert k_diff_bound("d32", 1.0, 0.6).value == pytest.approx(19.0 / 60.0, abs=1e-15)

    def test_d43_at_p_zero(self):
        assert k_diff_bound("d43", 1.0, 0.0).value == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_d43_anchor_at_p_one(self):
        out = k_diff_bound("d43", 1.0, 1.0)
        assert out.value == pytest.approx(19.0 / 144.0, abs=1e-15)
        assert out.branch == "p=1"

    def test_theta1_region(self):
        assert k_diff_bound("d43", 0.5, 0.5).branch == "theta1"

    def test_theta2_branches(self):
        assert k_diff_bound("d43", 1.0, 0.5).branch == "theta2:p<=8/(4+5*lambda)"
        assert k_diff_bound("d43", 1.0, 0.95).branch == "theta2:p>8/(4+5*lambda)"

    def test_theta2_continuous_at_breakpoint(self):
        # at lambda = 4/5 the breakpoint sits on p = 1, so probe past it only
        # for larger lambda where it is interior
        for lam in (0.9, 1.0, 1.4):
            bp = 8.0 / (4.0 + 5.0 * lam)
            left = k_diff_bound("d43", lam, bp - 1e-11).value
            right = k_diff_bound("d43", lam, bp + 1e-11).value
            assert abs(left - right) < 1e-9

    def test_theta_branches_agree_at_lambda_four_fifths(self):
        for p in (0.0, 0.3, 0.7, 0.99):
            below = k_diff_bound("d43", 0.8 - 1e-12, p).value
            at = k_diff_bound("d43", 0.8, p).value
            assert abs(below - at) < 1e-11

    def test_both_theta_branches_reduce_to_anchor_at_p_one(self):
        for lam in (0.5, 0.8, 1.2):
            anchor = lam * lam * (36.0 - 17.0 * lam) / 144.0
            near = k_diff_bound("d43", lam, 1.0 - 1e-11).value
            assert abs(near - anchor) < 1e-9
            assert k_diff_bound("d43", lam, 1.0).value == anchor

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            k_diff_bound("d32", 1.0, 1.5)

    @given(st.sampled_from(["d32", "d43"]), lambdas, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=400, deadline=None)
    def test_nonnegative(self, which, lam, p):
        assert k_diff_bound(which, lam, p).value >= 0.0


class TestSupOverP:
    def test_quoted_suprema_at_lambda_one(self):
        p, v = sup_over_p("starlike", "d32", 1.0)
        assert abs(v - 0.7) < 1e-9 and abs(p - 0.8) < 1e-6
        p, v = sup_over_p("starlike", "d43", 1.0)
        assert abs(v - 25.0 / 48.0) < 1e-9 and p == 0.0
        p, v = sup_over_p("convex", "d32", 1.0)
        assert abs(v - 19.0 / 60.0) < 1e-9 and abs(p - 0.6) < 1e-6
        p, v = sup_over_p("convex", "d43", 1.0)
        assert abs(v - 1.0 / 6.0) < 1e-9 and p == 0.0

    @given(
        st.sampled_from(["starlike", "convex"]),
        st.sampled_from(["d32", "d43"]),
        lambdas,
    )
    @settings(max_examples=100, deadline=None)
    def test_never_below_endpoint_or_breakpoint(self, cls, which, lam):
        pmax = 2.0 if cls == "starlike" else 1.0
        f = (
            (lambda p: s_diff_bound(which, lam, p).value)
            if cls == "starlike"
            else (lambda p: k_diff_bound(which, lam, p).value)
        )
        _, v = sup_over_p(cls, which, lam)
        candidates = [0.0, pmax]
        if cls == "starlike" and which == "d32":
            candidates.append(min(8.0 / (3.0 * lam), pmax))
        if cls == "starlike" and which == "d43":
            candidates.append(min(2.0 / (4.0 - 5.0 * lam) if lam <= 0.6 else 14.0 / (4.0 + 5.0 * lam), pmax))
        if cls == "convex" and which == "d43" and lam >= 0.8:
            candidates.append(8.0 / (4.0 + 5.0 * lam))
        for c in candidates:
            assert v >= f(c) - 1e-12


class TestGeneralCoeffBound:
    def test_n_two_is_lambda(self):
        for lam in (0.3, 1.0, 1.5):
            assert general_coeff_bound("starlike", 2, lam) == lam

    def test_starlike_lambda_one_all_ones(self):
        for n in range(2, 13):
            assert general_coeff_bound("starlike", n, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_convex_n_five(self):
        assert general_coeff_bound("convex", 5, 1.0) == pytest.approx(0.2, rel=1e-14)

    def test_shares_sequence_kernel(self):
        for n in (2, 5, 9, 12):
            for lam in (0.4, 1.0, math.pi / 2):
                assert general_coeff_bound("starlike", n, lam) == a_sequence_closed(float(lam), n)

    def test_matches_sharp_bound_at_small_n(self):
        # n = 2: the general bound coincides with the sharp |a2| bound
        for lam in (0.3, 0.9, 1.5):
            assert general_coeff_bound("starlike", 2, lam) == s_star_coeff_bound(2, lam).value

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            general_coeff_bound("starlike", 1, 1.0)

    @pytest.mark.parametrize("cls", ["starlike", "convex"])
    def test_n_171_is_finite_at_the_largest_lambda(self, cls):
        assert math.isfinite(general_coeff_bound(cls, 171, LAMBDA_MAX))

    @pytest.mark.parametrize("cls", ["starlike", "convex"])
    def test_n_above_171_rejected(self, cls):
        # (n-1)! is no float there; n = 172 once raised OverflowError
        with pytest.raises(ValueError, match="n = 171"):
            general_coeff_bound(cls, 172, 1.0)
