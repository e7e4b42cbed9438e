import functools
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coefbound import oracle
from coefbound.oracle import (
    CLAIMS,
    FUNCTIONAL_KINDS,
    Functional,
    VerificationReport,
    extremal_search,
    functional_value,
    _best_of,
    _exact_functional,
    _maximizing_y,
    _quadratic,
    _schedule,
    general_bound_probe,
    run_claim_suite,
    series_cross_check,
    verify_claim,
)
from coefbound.bounds import BREAK_TOL, LAMBDA_MIN, P_MAX, bound
from coefbound import schwarz
from coefbound.schwarz import (
    CaratheodoryParams,
    level_bound,
    level_scan,
    random_chunks,
    sample_params,
    score_bound,
)
from conftest import _polar_reference


def _levels_formed(monkeypatch, run):
    """The levels whose radii run()'s first oracle.level_scan call forms: the grid and draws its level bound keeps."""
    sizes, calls = [], []
    radii, scan = schwarz.level_radii, oracle.level_scan

    def counting_radii(*coefs):
        if calls == [True]:
            sizes.append(np.size(coefs[0]))
        return radii(*coefs)

    def first_scan(*args, **kwargs):
        calls.append(True)
        try:
            return scan(*args, **kwargs)
        finally:
            calls.append(False)

    monkeypatch.setattr(schwarz, "level_radii", counting_radii)
    monkeypatch.setattr(oracle, "level_scan", first_scan)
    run()
    return sum(sizes)


class TestFunctional:
    def test_difference_requires_fixed_p(self):
        with pytest.raises(ValueError):
            Functional("abs_a3_minus_a2", "starlike")

    def test_fixed_p_range_starlike(self):
        Functional("abs_a3_minus_a2", "starlike", fixed_p=2.0)
        with pytest.raises(ValueError):
            Functional("abs_a3_minus_a2", "starlike", fixed_p=2.1)

    def test_fixed_p_range_convex(self):
        Functional("abs_a4_minus_a3", "convex", fixed_p=1.0)
        with pytest.raises(ValueError):
            Functional("abs_a4_minus_a3", "convex", fixed_p=1.5)

    @pytest.mark.parametrize("kind", ["abs_a2", "abs_a3", "abs_a4"])
    def test_an_a_n_functional_takes_no_fixed_p(self, kind):
        # only the successive differences constrain f''(0), as in bounds.bound
        for cls, p in (("starlike", 0.0), ("starlike", 2.0), ("convex", 0.5)):
            with pytest.raises(ValueError, match=rf"the \|a_{kind[-1]}\| functional takes no fixed_p"):
                Functional(kind, cls, fixed_p=p)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Functional("abs_a5", "starlike")

    def test_effective_p1_doubles_for_convex(self):
        assert Functional("abs_a3_minus_a2", "convex", fixed_p=0.7).effective_p1 == 1.4
        assert Functional("abs_a3_minus_a2", "starlike", fixed_p=0.7).effective_p1 == 0.7


class TestFunctionalValue:
    def test_z_cubed_witness_a4(self):
        params = CaratheodoryParams(0.0, 0.0, 1.0)
        for lam in (0.1, 0.5, 1.0):
            v = functional_value(Functional("abs_a4", "starlike"), lam, params)
            assert v == pytest.approx(lam / 3.0, abs=1e-15)

    def test_identity_witness_a3(self):
        v = functional_value(Functional("abs_a3", "starlike"), 1.0, CaratheodoryParams(2.0, 0.3, -0.5j))
        assert v == pytest.approx(0.75, abs=1e-15)

    def test_fixed_p_overrides_p1(self):
        fn = Functional("abs_a3_minus_a2", "starlike", fixed_p=2.0)
        v = functional_value(fn, 1.0, CaratheodoryParams(0.3, 0.9j, -1.0))
        assert v == pytest.approx(0.25, abs=1e-15)

    def test_convex_anchor_value(self):
        # p = 1 pins the convex triple; |a4 - a3| = lam^2 (36 - 17 lam)/144
        fn = Functional("abs_a4_minus_a3", "convex", fixed_p=1.0)
        v = functional_value(fn, 1.0, CaratheodoryParams(0.0, 0.5, 0.5))
        assert v == pytest.approx(19.0 / 144.0, abs=1e-15)

    def test_matches_series_route(self):
        for i, params in enumerate(sample_params(5, 25, "random")):
            assert series_cross_check(0.9, "starlike", params) < 1e-12
            assert series_cross_check(0.9, "convex", params) < 1e-12


def _fraction_functional(fn, lam, params):
    """F as exact (Re F, Im F) in Fractions, the moment formulas term by term: the reference for _exact_functional."""
    lam, p = Fraction(lam), Fraction(params.p1)
    u, v, *y = map(Fraction, (params.x.real, params.x.imag, params.y.real, params.y.imag))
    q, x, x2, one = 4 - p * p, [u, v], [u * u - v * v, 2 * u * v], [1, 0]
    ky = 2 * q * (1 - u * u - v * v)
    p2 = [(p * p * one[i] + q * x[i]) / 2 for i in (0, 1)]
    p3 = [(p**3 * one[i] + 2 * q * p * x[i] - q * p * x2[i] + ky * y[i]) / 4 for i in (0, 1)]
    c3, c4 = (3 * lam - 2) / 4 * p * p, (17 * lam**2 - 30 * lam + 12) / 48 * p**3
    inner3 = [p2[i] + c3 * one[i] for i in (0, 1)]
    inner4 = [p3[i] + (5 * lam - 4) / 4 * p * p2[i] + c4 * one[i] for i in (0, 1)]
    s2, s3, s4 = (lam / 2, lam / 4, lam / 6) if fn.cls == "starlike" else (lam / 4, lam / 12, lam / 24)
    a2, a3, a4 = [s2 * p, Fraction(0)], [s3 * w for w in inner3], [s4 * w for w in inner4]
    f = {"abs_a2": a2, "abs_a3": a3, "abs_a4": a4, "abs_a3_minus_a2": (a3, a2), "abs_a4_minus_a3": (a4, a3)}
    return f[fn.kind] if fn.kind not in oracle._DIFFERENCE_KINDS else [hi - lo for hi, lo in zip(*f[fn.kind])]


class TestIntegerReplay:
    """_exact_functional's integers are F exactly, and functional_value rounds them to the Fraction route's bits."""

    @pytest.mark.parametrize("kind", FUNCTIONAL_KINDS)
    @pytest.mark.parametrize("cls", ["starlike", "convex"])
    def test_seeded_witnesses_replay_as_through_fractions(self, kind, cls):
        ps = [None] if kind not in oracle._DIFFERENCE_KINDS else [0.0, 0.37 * P_MAX[cls], P_MAX[cls]]
        rng = np.random.default_rng(3402)
        lams = [LAMBDA_MIN, 1e-20, 0.7817284, 1.0, math.pi / 2, *rng.uniform(LAMBDA_MIN, math.pi / 2, 3)]
        for p in ps:
            fn = Functional(kind, cls, fixed_p=p)
            witnesses = [
                (lam, extremal_search(fn, lam, budget=1000, seed=seed).witness) for lam in lams for seed in (1, 2)
            ]
            witnesses += zip(rng.uniform(0.01, 1.5, 40).tolist(), sample_params(3403, 40, "random"))
            for lam, params in witnesses:
                value = functional_value(fn, lam, params)
                if fn.effective_p1 is not None:
                    params = CaratheodoryParams(fn.effective_p1, params.x, params.y)
                re, im, den = _exact_functional(fn, lam, params)
                want = _fraction_functional(fn, lam, params)
                assert [Fraction(re, den), Fraction(im, den)] == want
                square = want[0] ** 2 + want[1] ** 2
                assert value.hex() == oracle._nearest_sqrt(square.numerator, square.denominator).hex()


class TestExtremalSearch:
    def test_a3_attains_sharp_bound(self):
        fn = Functional("abs_a3", "starlike")
        out = extremal_search(fn, 1.0, budget=20000, seed=1)
        assert 0.75 - 1e-3 <= out.value <= 0.75 + 1e-9

    def test_d32_witness_is_x_minus_one(self):
        fn = Functional("abs_a3_minus_a2", "starlike", fixed_p=0.8)
        out = extremal_search(fn, 1.0, budget=20000, seed=3)
        assert abs(out.value - 0.7) < 1e-9
        assert abs(out.witness.x - (-1.0)) < 1e-6

    def test_d32_returns_the_exact_canonical_maximum(self):
        # a polish point next to x = -1 can score above it by rounding alone
        # (0.7000000000000001 at x = -0.9999999999999998+2.2e-08j)
        fn = Functional("abs_a3_minus_a2", "starlike", fixed_p=0.8)
        out = extremal_search(fn, 1.0)
        assert out.value == 0.7
        assert repr(out.witness.x) == repr(-1 + 0j)
        assert functional_value(fn, 1.0, out.witness) == 0.7

    def test_the_canonical_rows_are_read_only_constants(self):
        # every search shares them, so none may write to them
        for p in (0.5, None):
            fn = Functional("abs_a3_minus_a2" if p else "abs_a4", "convex", fixed_p=p)
            p1, u, v = oracle._canonical_rows(fn)
            pinned = p is not None
            assert (np.ndim(p1) == 0) == pinned  # pinned, the rows share the scalar p1
            for column in (u, v) if pinned else (p1, u, v):
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = 0.5
        # and a search leaves them as they are: settled, free, then settled again
        settled, free = Functional("abs_a4_minus_a3", "starlike", fixed_p=1.2), Functional("abs_a4", "starlike")
        first = extremal_search(settled, 0.9)
        extremal_search(free, 0.9)
        again = extremal_search(settled, 0.9)
        assert repr(again) == repr(first)

    @given(
        st.just("abs_a3_minus_a2"),  # the one pinned functional affine in x
        st.sampled_from(("starlike", "convex")),
        st.floats(min_value=0.01, max_value=math.pi / 2),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_pinned_affine_search_returns_the_exact_maximum(self, kind, cls, lam, share):
        # F = alpha + beta x with real alpha, beta peaks over the disk at
        # |alpha| + |beta|, the canonical x = +-1: no later phase is run
        fn = Functional(kind, cls, fixed_p=share * (2.0 if cls == "starlike" else 1.0))
        out = extremal_search(fn, lam)
        coefs = _quadratic(fn, lam, float(fn.effective_p1))
        alpha, beta = coefs[:2]
        assert out.value == max(abs(alpha + beta), abs(alpha - beta))
        assert out.samples == oracle.DEFAULT_BUDGET
        rs, ts = np.linspace(0.0, 1.0, 129), np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
        grid = _polar_reference(coefs, rs, ts).max()
        assert grid <= out.value + 4.0 * math.ulp(out.value)

    @pytest.mark.parametrize(
        "kind, cls, p, settled",
        [
            ("abs_a2", "convex", None, True),
            ("abs_a3_minus_a2", "convex", 0.25, True),
            ("abs_a3", "starlike", None, True),
            ("abs_a3", "convex", None, True),
            ("abs_a4", "starlike", None, False),
            ("abs_a4_minus_a3", "convex", 0.0, True),
            ("abs_a4_minus_a3", "starlike", 1.8, True),
            ("abs_a4_minus_a3", "starlike", 1.2, True),
        ],
    )
    def test_only_a_search_the_maths_settles_skips_the_grid(self, monkeypatch, kind, cls, p, settled):
        fn = Functional(kind, cls, fixed_p=p)
        found = []
        levels = _levels_formed(monkeypatch, lambda: found.append(extremal_search(fn, 0.9)))
        assert (levels == 0) == settled
        # a settled search reports the budget; free |a4| 15 points and 24 per level
        assert found[0].samples == oracle.DEFAULT_BUDGET - (not settled)

    @given(
        st.sampled_from(("starlike", "convex")),
        st.floats(min_value=LAMBDA_MIN, max_value=math.pi / 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_free_a3_is_settled_at_its_closed_maximum(self, cls, lam):
        # |a3| <= s3 ((3 lam/4) t + (4 - t)/2) is affine in t = p1^2, so its
        # maximum is 2 s3 at (p1, x) = (0, +-1) or 3 lam s3 at p1 = 2
        fn = Functional("abs_a3", cls)
        s3 = lam / 4.0 if cls == "starlike" else lam / 12.0
        want = max(2.0 * s3, 3.0 * lam * s3)
        settled = extremal_search(fn, lam).value
        assert settled == pytest.approx(want, rel=4 * 2.0**-52, abs=0.0)
        with pytest.MonkeyPatch.context() as m:  # a full search, every phase run
            m.setattr(oracle, "_settled_rows", lambda *_: None)
            searched = extremal_search(fn, lam, budget=1000).value
        assert settled >= searched * (1.0 - 4 * 2.0**-52)

    @given(
        st.sampled_from(("abs_a3_minus_a2", "abs_a4_minus_a3")),
        st.sampled_from(("starlike", "convex")),
        st.floats(min_value=LAMBDA_MIN, max_value=math.pi / 2),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    @example("abs_a4_minus_a3", "starlike", 1.5625, 1.0)  # p1 = 2: float alpha lost 49 ulps near 27/17
    def test_a_pinned_search_settles_where_its_radial_bound_peaks_at_the_real_axis(self, kind, cls, lam, share):
        # on |x| = r the score is at most B(r) = |alpha| + |beta| r + |gamma| r^2
        # + k q (1 - r^2); with alpha gamma >= 0 a real x = +-r attains B(r), so
        # the maximum is the peak of B on [0, 1], at r = 1 or inside the disk
        fn = Functional(kind, cls, fixed_p=share * P_MAX[cls])
        coefs = _quadratic(fn, lam, float(fn.effective_p1))
        alpha, beta, gamma, kq = coefs
        assert np.sign(alpha) * np.sign(gamma) >= 0.0
        grids, quadratics = [], []
        with pytest.MonkeyPatch.context() as m:
            scan = oracle.level_scan
            m.setattr(oracle, "level_scan", lambda *args, **kw: grids.append(1) or scan(*args, **kw))
            m.setattr(oracle, "_quadratic", lambda *args: quadratics.append(1) or _quadratic(*args))
            out = extremal_search(fn, lam, budget=1000)
        assert not grids
        assert len(quadratics) == 1  # the coefficients are computed once per pinned search
        slack = kq - abs(gamma)
        if slack <= 0.0 or abs(beta) >= 2.0 * slack:
            peak = abs(alpha) + abs(beta) + abs(gamma)
        else:
            peak = abs(alpha) + kq + beta * beta / (4.0 * slack)
        assert out.value == pytest.approx(peak, rel=4 * 2.0**-52, abs=0.0)
        # no point of a fine polar grid over the pinned disk beats it
        rs, ts = np.linspace(0.0, 1.0, 129), np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        assert _polar_reference(coefs, rs, ts).max() <= out.value * (1.0 + 4 * 2.0**-52)
        assert out.witness.x.imag == 0.0
        assert _replays(fn, lam, out.witness, out.value)  # the moments route

    def test_convex_d43_at_p_one_and_the_lambda_floor_scores_exactly_alpha(self):
        # q = 0 at p1 = 2, so F = alpha at every x; alpha is about 2.5e-121, but
        # its square is a normal float, so sqrt(alpha^2) gives |alpha| back exactly
        fn = Functional("abs_a4_minus_a3", "convex", fixed_p=1.0)
        alpha, beta, gamma, kq = _quadratic(fn, LAMBDA_MIN, 2.0)
        assert beta == gamma == kq == 0.0
        assert abs(alpha) < 2.0**-400 and alpha * alpha >= np.finfo(float).tiny
        out = extremal_search(fn, LAMBDA_MIN, budget=1000)
        assert out.value == abs(alpha)
        assert out.witness.p1 == 2.0 and repr(out.witness.x) == repr(0j)

    @pytest.mark.parametrize("cls", ["starlike", "convex"])
    def test_every_registered_pinned_claim_settles_over_its_whole_domain(self, cls):
        # every pinned functional that Functional admits, registered or not:
        # |a3 - a2| has gamma = 0, and |a4 - a3| has gamma = -s4 q p1/4 <= 0 and
        # alpha = lam^2 p1^2 (17 lam p1/288 - 3/16) starlike, lam^2 p1^2
        # (17 lam p1/1152 - 1/16) convex, which is <= 0 while lam p1 <= 54/17
        # (starlike) or 72/17 (convex); lam p1 <= 2 (pi/2 + BREAK_TOL) < 3.15
        pmax = P_MAX[cls]
        lams = [LAMBDA_MIN, 1e-50, 1e-40, 0.01, 0.3, 1.0, math.pi / 2, math.pi / 2 + BREAK_TOL]
        ps = [pmax * i / 64 for i in range(65)]
        assert {c.kind for c in CLAIMS.values() if c.default_ps is not None} == {"abs_a3_minus_a2", "abs_a4_minus_a3"}
        for kind in FUNCTIONAL_KINDS:
            for p in ps:
                try:
                    fn = Functional(kind, cls, fixed_p=p)
                except ValueError:
                    continue
                for lam in lams:
                    coefs = _quadratic(fn, lam, fn.effective_p1)
                    assert oracle._settled_rows(fn, coefs) is not None, (kind, lam, p)

    def test_a_pinned_functional_that_the_radial_bound_cannot_settle_raises(self, monkeypatch):
        # alpha gamma < 0 would leave a pinned search nothing to run
        fn = Functional("abs_a4_minus_a3", "starlike", fixed_p=1.0)
        monkeypatch.setattr(oracle, "_quadratic", lambda *_: (1.0, 0.5, -1.0, 2.0))
        with pytest.raises(ArithmeticError, match="alpha gamma < 0"):
            extremal_search(fn, 1.0)

    def test_a4_small_lambda_z_cubed_witness(self):
        fn = Functional("abs_a4", "starlike")
        out = extremal_search(fn, 0.1, budget=20000, seed=2)
        assert abs(out.value - 0.1 / 3.0) < 1e-9
        assert abs(out.witness.p1) < 1e-2
        assert abs(out.witness.x) < 1e-2
        assert abs(abs(out.witness.y) - 1.0) < 1e-6

    def test_witness_reevaluation_reproduces_maximum(self):
        for kind, cls, p in [
            ("abs_a4", "starlike", None),
            ("abs_a4_minus_a3", "starlike", 1.3),
            ("abs_a4_minus_a3", "convex", 0.6),
        ]:
            fn = Functional(kind, cls, fixed_p=p)
            out = extremal_search(fn, 1.1, budget=5000, seed=9)
            assert _replays(fn, 1.1, out.witness, out.value)

    def test_value_is_the_score_of_its_witness_row(self):
        # every phase scores its points through schwarz.point_scores, so the
        # witness (p1, Re x, Im x), rescored, gives the value bit for bit
        for kind, cls, p, lam in [
            ("abs_a4", "starlike", None, 0.9),
            ("abs_a3", "convex", None, 1.3),
            ("abs_a4_minus_a3", "starlike", 1.3, 1.1),
            ("abs_a3_minus_a2", "convex", 0.4, 0.5),
        ]:
            fn = Functional(kind, cls, fixed_p=p)
            for seed in range(3):
                out = extremal_search(fn, lam, budget=3000, seed=seed)
                w = out.witness
                p1 = fn.effective_p1 if p else np.array([w.p1])
                row = (p1, np.array([w.x.real]), np.array([w.x.imag]))
                assert _best_of(_quadratic(fn, lam, p1), *row)[0] == out.value

    def test_deterministic(self):
        fn = Functional("abs_a4_minus_a3", "convex", fixed_p=0.6)
        a = extremal_search(fn, 1.0, budget=5000, seed=11)
        b = extremal_search(fn, 1.0, budget=5000, seed=11)
        assert a == b

    def test_budget_sweep_stays_under_the_bound_and_converges(self):
        # More budget need not give a larger value (the polish windows move with
        # the incumbent), but no budget may exceed the sharp bound, and the
        # default budget resolves it to 1e-9 at every seed.
        fn = Functional("abs_a4_minus_a3", "convex", fixed_p=0.6)
        sharp = bound("convex", 1.0, which="d43", p=0.6).value
        for seed in range(12):
            for budget in (1000, 3000, 10000, 30000, 100000):
                value = extremal_search(fn, 1.0, budget=budget, seed=seed).value
                assert value <= sharp + oracle.DEFAULT_TOL, (seed, budget)
            assert abs(sharp - value) <= 1e-9, seed

    @pytest.mark.parametrize(
        "kind, cls, lam, budget, seed, refined",
        [
            # 16 polish rounds of 5 levels
            ("abs_a4", "starlike", 0.7993214127316798, 17520, 1157691257, 0.26948732959496235),
            # 10 and 16 polish rounds of 3 levels, at the least budgets
            ("abs_a4", "starlike", 0.8487731687614083, 1043, 470325821, 0.29513414485900435),
            ("abs_a4", "convex", 0.8357257722538398, 1687, 525182117, 0.07207079758725989),
        ],
    )
    def test_small_budgets_reach_the_random_refine_search(self, kind, cls, lam, budget, seed, refined):
        # ``refined`` is what the search returned when five random refine
        # rounds ended it: a polish that falls short could miss a violation
        value = extremal_search(Functional(kind, cls), lam, budget=budget, seed=seed).value
        assert value >= refined * (1.0 - 1e-12)

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            extremal_search(Functional("abs_a2", "starlike"), 1.0, budget=500)

    def test_budget_domain(self):
        fn = Functional("abs_a2", "starlike")
        with pytest.raises(ValueError, match=r"budget must lie in \[1000, 1000000000\]"):
            extremal_search(fn, 1.0, budget=oracle.MAX_BUDGET + 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            extremal_search(Functional("abs_a2", "starlike"), 1.0, budget=1000, seed=-1)

    def test_canonical_seeding_reaches_bound_with_minimal_budget(self):
        # the seeded witnesses alone attain the sharp |a2| bound, at the
        # canonical (p1, x) = (2, 0), and the search returns that witness
        for cls, lam, sharp in (("starlike", 1.4, 1.4), ("convex", 0.05, 0.025)):
            for budget in (1000, oracle.DEFAULT_BUDGET):
                out = extremal_search(Functional("abs_a2", cls), lam, budget=budget, seed=0)
                assert out.value == sharp
                assert out.witness.p1 == 2.0 and repr(out.witness.x) == repr(0j)
                assert out.samples == budget


class TestVerifyClaim:
    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            verify_claim("thm9.9-a2", [1.0])

    def test_sharp_claim_no_violation(self):
        reports = verify_claim("thm3.1-a3", [0.5, 1.0, 1.5], budget=20000, seed=7)
        assert len(reports) == 3
        for r in reports:
            assert not r.violation
            # exactly-attained bounds leave float noise either side of zero
            assert -1e-12 <= r.gap < 1e-3
            assert r.p is None

    def test_a4_branch_two_defect_detected(self):
        (r,) = verify_claim("thm3.1-a4", [0.21], budget=20000, seed=7)
        assert r.oracle_max >= 0.07 - 1e-12
        assert r.violation
        assert r.bound == pytest.approx(0.054115, abs=1e-5)

    def test_convex_a4_shares_the_defect_when_probed(self):
        # same transcription defect scaled by 1/4; not in the default grid
        (r,) = verify_claim("thm3.2-a4", [0.21], budget=20000, seed=7)
        assert r.violation
        assert r.oracle_max >= 0.07 / 4.0 - 1e-12

    def test_psi2_statement_variant_refuted_proof_variant_clean(self):
        (bad,) = verify_claim("thm3.3-d43-psi2-statement", [1.0], [2.0], budget=2000, seed=7)
        assert bad.bound < 0 and bad.violation
        assert bad.variant == "statement"
        (good,) = verify_claim("thm3.3-d43", [1.0], [2.0], budget=2000, seed=7)
        assert good.bound == pytest.approx(5.0 / 18.0, abs=1e-15)
        assert not good.violation
        assert good.variant == "proof"

    def test_p_grid_defaults_applied(self):
        reports = verify_claim("thm3.5-d32", [1.0], budget=2000, seed=1)
        assert [r.p for r in reports] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_lambda_grid_defaults_applied(self):
        reports = verify_claim("thm3.1-a2", budget=1000)
        assert [r.lam for r in reports] == list(CLAIMS["thm3.1-a2"].default_lambdas)

    def test_a_grid_it_cannot_use_is_refused_before_any_search(self, monkeypatch):
        monkeypatch.setattr(oracle, "extremal_search", None)  # a search would raise TypeError
        with pytest.raises(ValueError, match="thm3.1-a2 was given an empty lambda grid"):
            verify_claim("thm3.1-a2", [])
        with pytest.raises(ValueError, match="thm3.1-a2 takes no p grid"):
            verify_claim("thm3.1-a2", [1.0], p_grid=[0.5])
        with pytest.raises(ValueError, match="thm3.3-d43 constrains f''\\(0\\); a p grid is required"):
            verify_claim("thm3.3-d43", [1.0], p_grid=[])
        with pytest.raises(ValueError, match="psi2_variant must be 'proof' or 'statement', got 'bogus'"):
            verify_claim("thm3.1-a2", [1.0], psi2_variant="bogus")

    def test_report_roundtrip(self):
        (r,) = verify_claim("thm3.3-d32", [1.0], [0.8], budget=2000, seed=5)
        blob = json.dumps(r.to_dict())
        back = VerificationReport.from_dict(json.loads(blob))
        assert back == r

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # with tol = nan the violation flag oracle_max > bound + tol is never set
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            verify_claim("thm3.1-a4", [0.21], budget=2000, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            run_claim_suite(budget=2000, tol=tol)

    def test_every_claim_attains_its_bound_at_the_lambda_floor(self):
        # the smallest maxima, of order LAMBDA_MIN^2 / 4, still score in normal floats
        for claim_id in CLAIMS:
            for r in verify_claim(claim_id, [LAMBDA_MIN], budget=1000):
                assert abs(r.gap) <= 1e-12 * r.bound, (claim_id, r.p)

    def test_every_default_pinned_record_resolves_its_bound_at_the_least_budget(self):
        # a settled search returns the peak of its radial bound whatever the budget
        pinned = [r for r in run_claim_suite(budget=oracle.MIN_BUDGET) if r.p is not None]
        clean = [r for r in pinned if not r.violation]
        assert (len(pinned), len(clean)) == (82, 80)
        for r in clean:
            assert abs(r.gap) <= 2.2e-16 * max(1.0, r.bound), (r.claim_id, r.lam, r.p, r.gap)

    def test_violation_flag_matches_definition(self):
        reports = verify_claim("thm3.1-a4", [0.1, 0.21, 0.3, 1.0], budget=5000, seed=3)
        for r in reports:
            assert r.violation == (r.oracle_max > r.bound + 1e-9)
            assert r.gap == r.bound - r.oracle_max


class TestSharedInputs:
    def test_suite_records_match_standalone_searches(self):
        # A search in a run must return the bits of a standalone one.
        reports = run_claim_suite(budget=5000, seed=42)
        assert len(reports) == 106
        for r in reports:
            claim = CLAIMS[r.claim_id]
            fn = Functional(claim.kind, claim.cls, fixed_p=r.p)
            out = extremal_search(fn, r.lam, budget=5000, seed=42)
            assert repr((r.oracle_max, r.witness, r.samples)) == repr(
                (out.value, out.witness, out.samples)
            ), (r.claim_id, r.lam, r.p)

    def test_signed_zero_p_gets_its_own_inputs(self):
        # p = 0.0 and p = -0.0 compare equal but pin p1 arrays of different bits.
        reports = verify_claim("thm3.3-d32", [1.0], [0.0, -0.0], budget=2000, seed=3)
        for r in reports:
            fn = Functional("abs_a3_minus_a2", "starlike", fixed_p=r.p)
            out = extremal_search(fn, 1.0, budget=2000, seed=3)
            assert repr(r.witness) == repr(out.witness)

    def test_a_run_whose_every_search_settles_builds_no_schedule(self, monkeypatch):
        # the schedule waits for the first search that passes its canonical phase
        def refuse(*_):
            raise AssertionError("_schedule called")

        monkeypatch.setattr(oracle, "_schedule", refuse)
        reports = verify_claim("thm3.5-d32", [0.3, 1.0])
        assert len(reports) == 10 and all(r.samples == oracle.DEFAULT_BUDGET for r in reports)
        with pytest.raises(AssertionError, match="_schedule called"):
            verify_claim("thm3.1-a4", [1.0])

    def test_records_keep_lambda_outer_p_inner_order(self):
        lams, ps = (1.0, 0.3, 1.4), (0.75, 0.0, 0.5)
        reports = verify_claim("thm3.5-d43", lams, ps, budget=2000, seed=3)
        assert [(r.lam, r.p) for r in reports] == [(lam, p) for lam in lams for p in ps]


def _bits(result):
    return repr((result.value, result.witness, result.samples))


#: The lambdas of the free |a4| digest: a grid across thm3.1-a4's first
#: switch lambda* ~ 0.78172700 (the root in (0.7, 0.85) of 250 lambda^3 +
#: 147 lambda^2 - 150 lambda - 92), 0.7817284 just above it (by 1.4e-6), and
#: two more in other branches.
_SEARCH_LAMBDAS = [*np.linspace(0.5, 0.87, 38).tolist(), 0.7817284, 0.2, 0.505177]

#: sha256 over _bits of free |a4| searches, both classes, at every lambda of
#: _SEARCH_LAMBDAS and budgets 1000, 2000 and 100,000, seed 42: the records of
#: the search the maths does not settle, at budgets and lambdas off the
#: default report's grid.  A change that moves a value, a witness or a
#: sample count on purpose updates this digest and says so.
SEARCH_DIGEST = "deec4b03dba2b0e4bf842cd6e48938462d795be5cb174aac0b1e122551148377"


#: A record's functional_value lies within this many units of 2^-52 of its
#: oracle_max, relative.  Each is the search's float score of its own
#: witness, so the gap is that score's rounding: at most 3.6 units over the
#: default report and over run_claim_suite at budgets 1000 and 5000 and 42
#: seeds.
REPLAY_ULPS = 8


def _replays(fn, lam, witness, value) -> bool:
    """The witness, replayed by functional_value, gives the value to REPLAY_ULPS, relative."""
    return abs(functional_value(fn, lam, witness) - value) <= REPLAY_ULPS * 2.0**-52 * value


def _record_replays(record) -> bool:
    claim = CLAIMS[record.claim_id]
    fn = Functional(claim.kind, claim.cls, fixed_p=record.p)
    return _replays(fn, record.lam, record.witness, record.oracle_max)


@st.composite
def functionals(draw):
    kind = draw(st.sampled_from(FUNCTIONAL_KINDS))
    cls = draw(st.sampled_from(("starlike", "convex")))
    p = st.none()  # only the differences pin p1
    if kind in ("abs_a3_minus_a2", "abs_a4_minus_a3"):
        p = st.floats(min_value=0.0, max_value=2.0 if cls == "starlike" else 1.0)
    return Functional(kind, cls, fixed_p=draw(p))


class TestStreamingSearch:
    @given(
        functionals(),
        st.floats(min_value=0.01, max_value=math.pi / 2),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1000, max_value=30000),
    )
    @settings(max_examples=50, deadline=None)
    def test_block_size_never_changes_a_bit(self, fn, lam, seed, budget):
        want = _bits(extremal_search(fn, lam, budget=budget, seed=seed))
        # smaller blocks, and one block larger than any phase
        for rows in (1000, 4096, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "CHUNK_ROWS", rows)
                got = _bits(extremal_search(fn, lam, budget=budget, seed=seed))
            assert got == want, rows

    def test_free_a4_searches_off_the_default_grid_keep_their_pinned_digest(self):
        digest = hashlib.sha256()
        for lam in _SEARCH_LAMBDAS:
            for cls in ("starlike", "convex"):
                for budget in (1000, 2000, 100_000):
                    digest.update(_bits(extremal_search(Functional("abs_a4", cls), lam, budget, seed=42)).encode())
        assert digest.hexdigest() == SEARCH_DIGEST

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_every_suite_record_replays_its_witness(self, seed):
        for r in run_claim_suite(budget=5000, seed=seed):
            assert _record_replays(r), r

    def test_peak_memory_does_not_grow_with_the_budget(self):
        # 2,000,000 candidates take 112 MB as whole arrays; the blocks take a few MB.
        tracemalloc.start()
        try:
            extremal_search(Functional("abs_a4", "starlike"), 1.0, budget=2_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


def _level_coefficients(fn, lam, blocks):
    """The levels of ``blocks`` joined, and their (alpha, beta, gamma, kq), one value per level."""
    p1 = np.concatenate(blocks)
    return p1, [np.broadcast_to(c, p1.shape) for c in _quadratic(fn, lam, p1)]


def _unbounded_scan(fn, lam, blocks, best):
    """level_scan without its bounds: circle_max scores every radius of every level."""
    p1, coefs = _level_coefficients(fn, lam, blocks)
    r = schwarz.level_radii(*coefs)
    vals, *point = schwarz.circle_max(*(c[:, None] for c in coefs), r)
    i, j = divmod(int(np.argmax(vals)), r.shape[1])
    if not vals[i, j] > best:
        return None
    return float(vals[i, j]), float(p1[i]), float(r[i, j]), *(float(a[i, j]) for a in point)


class TestBoundedDraws:
    @given(
        functionals(),
        st.floats(min_value=0.01, max_value=math.pi / 2),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=64),
        st.sampled_from(["none", "max", "below", "level", "radius"]),
        st.integers(min_value=0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_rows_score_as_every_row(self, fn, lam, seed, count, chunk, incumbent, row):
        # a level is skipped only where it could not pass the strict test, so
        # every incumbent, ties and a radius's score_bound included, keeps
        # every bit; the draws' p1 is scored whether or not fn pins p1
        blocks = list(random_chunks(seed, count, chunk))
        top = _unbounded_scan(fn, lam, blocks, -np.inf)[0]
        _, coefs = _level_coefficients(fn, lam, blocks)
        r = schwarz.level_radii(*coefs)
        i, j = divmod(row % r.size, r.shape[1])
        best = {
            "none": -np.inf,
            "max": top,
            "below": np.nextafter(top, -np.inf),
            "level": level_bound(*coefs)[row % count],
            "radius": score_bound(*(c[i] for c in coefs), r[i, j]),
        }[incumbent]
        got = level_scan(functools.partial(_quadratic, fn, lam), blocks, float(best), chunk)
        assert repr(got) == repr(_unbounded_scan(fn, lam, blocks, float(best)))

    @pytest.mark.parametrize("p", [None, 0.5])
    def test_no_row_bounded_at_the_incumbent_is_finished(self, monkeypatch, p):
        # no work past the bound: a level bounded at the incumbent forms no radii and reaches no circle_max
        formed, scored = [], []
        radii, circle = schwarz.level_radii, schwarz.circle_max
        monkeypatch.setattr(schwarz, "level_radii", lambda *args: formed.append(1) or radii(*args))
        monkeypatch.setattr(schwarz, "circle_max", lambda *args: scored.append(1) or circle(*args))
        fn = Functional("abs_a4_minus_a3" if p else "abs_a4", "convex", fixed_p=p)
        blocks = list(random_chunks(4, 2000, 512))
        coefficients = functools.partial(_quadratic, fn, 0.9)
        best = float(np.max(level_bound(*_level_coefficients(fn, 0.9, blocks)[1])))
        assert level_scan(coefficients, blocks, best) is None
        assert formed == scored == []
        # one ulp lower, the levels at that bound form their radii
        level_scan(coefficients, blocks, float(np.nextafter(best, -np.inf)))
        assert formed

    @pytest.mark.parametrize("cls, lam", [("starlike", 0.3), ("convex", 0.3)])
    def test_a_search_scores_few_of_its_grid_rows(self, monkeypatch, cls, lam):
        # the canonical witnesses bound out most of the grid's and the draws' levels
        fn = Functional("abs_a4", cls)
        levels = _levels_formed(monkeypatch, lambda: extremal_search(fn, lam))
        grid, draws = _schedule(oracle.DEFAULT_BUDGET)[:2]
        assert 0 < levels < 0.05 * (grid + draws)

    @pytest.mark.parametrize(
        "kind, cls, p, lam",
        [("abs_a4_minus_a3", "starlike", 2.0, 1.4), ("abs_a3_minus_a2", "convex", 1.0, 0.3)],
    )
    def test_a_search_pinned_at_p1_two_scores_no_grid_point(self, monkeypatch, kind, cls, p, lam):
        # q = 0 there, so F = alpha for every x: all candidates tie the
        # canonical x = 0, and the search returns it after the canonical phase
        fn = Functional(kind, cls, fixed_p=p)
        found = []
        levels = _levels_formed(monkeypatch, lambda: found.append(extremal_search(fn, lam)))
        (out,) = found
        alpha, *rest = _quadratic(fn, lam, 2.0)
        assert rest == [0.0, 0.0, 0.0]
        assert levels == 0
        assert out.witness.p1 == 2.0 and out.witness.x == 0
        assert out.value == abs(alpha)
        assert functional_value(fn, lam, out.witness) == pytest.approx(out.value, rel=1e-12)
        assert out.samples == oracle.DEFAULT_BUDGET


unit_disk = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


class TestMaximumOverY:
    @given(
        st.sampled_from(FUNCTIONAL_KINDS),
        st.sampled_from(("starlike", "convex")),
        st.floats(min_value=LAMBDA_MIN, max_value=math.pi / 2),
        st.floats(min_value=0.0, max_value=2.0),
        unit_disk,
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_search_score_is_the_maximum_over_y(self, kind, cls, lam, p1, x, seed):
        # |A| + K is attained at the witness y and none of 64 drawn y of the disk beats it
        rng = np.random.default_rng(seed)
        ys = np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
        ys[:8] /= np.abs(ys[:8])  # some on the circle, where the maximum sits
        fixed_p = None
        if kind in ("abs_a3_minus_a2", "abs_a4_minus_a3"):
            fixed_p = p1 if cls == "starlike" else p1 / 2.0
        fn = Functional(kind, cls, fixed_p=fixed_p)
        eff = fn.effective_p1
        # a pinned search scores scalar coefficients and reads no p1 column
        u, v = np.array([x.real]), np.array([x.imag])
        column = np.array([p1]) if eff is None else eff
        p1 = p1 if eff is None else eff
        score, wp1, r, wu, wv, re, im = _best_of(_quadratic(fn, lam, column), column, u, v)
        assert (wp1, complex(wu, wv), r) == (p1, x, math.hypot(x.real, x.imag))  # abs(x) can differ by an ulp
        y = _maximizing_y(complex(re, im))
        assert abs(functional_value(fn, lam, CaratheodoryParams(p1, x, y)) - score) <= 1e-12
        for yv in ys:
            assert functional_value(fn, lam, CaratheodoryParams(p1, x, yv)) <= score + 1e-12

    @given(
        st.sampled_from(FUNCTIONAL_KINDS),
        st.sampled_from(("starlike", "convex")),
        st.floats(min_value=0.0, max_value=math.pi / 2, exclude_min=True),
        st.floats(min_value=0.0, max_value=2.0),
        unit_disk,
    )
    @settings(max_examples=300, deadline=None)
    def test_quadratic_is_the_functional_through_the_moments(self, kind, cls, lam, p1, x):
        # alpha + beta x + gamma x^2 is F at y = 0, and k q (1 - |x|^2) is its y-slope
        fixed_p = None  # _quadratic reads the p1 it is given, never fixed_p
        if kind in ("abs_a3_minus_a2", "abs_a4_minus_a3"):
            fixed_p = 0.0
        fn = Functional(kind, cls, fixed_p=fixed_p)
        alpha, beta, gamma, kq = _quadratic(fn, lam, p1)
        for v in (alpha, beta, gamma, kq):
            assert isinstance(v, float)

        def moments_route(xv, yv):  # F exactly, whose modulus functional_value rounds
            re, im, den = _exact_functional(fn, lam, CaratheodoryParams(p1, xv, yv))
            return complex(re / den, im / den)

        f0, f1 = moments_route(x, 0.0), moments_route(x, 1.0)
        scale = 1e-13 * max(1.0, abs(f0), abs(f1))
        assert abs(alpha + beta * x + gamma * x * x - f0) <= scale
        assert abs(kq * (1.0 - abs(x) ** 2) - (f1 - f0)) <= scale
        assert abs(kq - (moments_route(0.0, 1.0) - moments_route(0.0, 0.0))) <= scale
        if kind not in ("abs_a4", "abs_a4_minus_a3"):
            assert gamma == kq == 0.0

    @given(
        st.sampled_from(("abs_a3_minus_a2", "abs_a4_minus_a3")),
        st.sampled_from(("starlike", "convex")),
        st.one_of(st.just(LAMBDA_MIN), st.floats(min_value=LAMBDA_MIN, max_value=math.pi / 2)),
        st.one_of(st.sampled_from((0.0, 2.0)), st.floats(min_value=0.0, max_value=2.0)),
    )
    @settings(max_examples=300, deadline=None)
    @example("abs_a4_minus_a3", "starlike", 1.5625, 2.0)
    def test_a_difference_has_its_exact_coefficients_rounded_once(self, kind, cls, lam, p1):
        # the formulas of the _COEFFICIENTS comment in rational arithmetic, then
        # one rounding each: the differences cancel, so floats would not do
        lam_, p1_ = Fraction(lam), Fraction(p1)
        s2, s3, s4 = (lam_ / 2, lam_ / 4, lam_ / 6) if cls == "starlike" else (lam_ / 4, lam_ / 12, lam_ / 24)
        q = 4 - p1_ * p1_
        alpha3, beta3 = s3 * Fraction(3, 4) * lam_ * p1_ * p1_, s3 * q / 2
        if kind == "abs_a3_minus_a2":
            want = alpha3 - s2 * p1_, beta3, 0, 0
        else:
            alpha4, beta4 = s4 * Fraction(17, 48) * lam_ * lam_ * p1_**3, s4 * Fraction(5, 8) * lam_ * q * p1_
            want = alpha4 - alpha3, beta4 - beta3, -s4 * q * p1_ / 4, s4 * q / 2
        got = _quadratic(Functional(kind, cls, fixed_p=0.0), lam, p1)
        assert [repr(v) for v in got] == [repr(float(w)) for w in want]

    @given(
        st.sampled_from(FUNCTIONAL_KINDS),
        st.sampled_from(("starlike", "convex")),
        st.one_of(st.just(LAMBDA_MIN), st.floats(min_value=LAMBDA_MIN, max_value=math.pi / 2)),
        st.lists(
            st.one_of(st.sampled_from((0.0, 2.0)), st.floats(min_value=0.0, max_value=2.0)), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=300, deadline=None)
    @example("abs_a4", "convex", LAMBDA_MIN, [0.0, 2.0])
    @example("abs_a2", "starlike", math.pi / 2, [2.0, 0.0, 1.0])
    def test_a_column_has_the_bits_of_its_scalar_calls(self, kind, cls, lam, p1s):
        # the search scores columns of p1 and a witness rescores as a scalar,
        # so every kind's column element has the repr of its own scalar call
        fn = Functional(kind, cls, fixed_p=0.0 if kind in oracle._DIFFERENCE_KINDS else None)
        column = _quadratic(fn, lam, np.array(p1s))
        for j, p1 in enumerate(p1s):
            got = [repr(float(np.broadcast_to(c, len(p1s))[j])) for c in column]
            assert got == [repr(v) for v in _quadratic(fn, lam, p1)], (j, p1)

    @pytest.mark.parametrize("searched", [False, True])
    @pytest.mark.parametrize("budget", [1000, 1001, 5000, 99_999, 100_000, 2_000_000])
    def test_phases_add_up_to_the_budget(self, budget, searched):
        grid, rand, m, rounds, shrink = _schedule(budget)
        levels = (budget - 15) // 24
        # the polish takes an eighth of the levels, or rounds of 3 levels, and
        # its last window is the same fraction of its first at every budget,
        # never narrowing a round by more than two spacings of the last or by
        # half; below budget 1,551 it takes as many rounds of 3 levels, each
        # half as wide, as three quarters of the levels hold
        assert 3 <= m and rounds >= 2 and rounds * m <= max(levels // 8, 3 * rounds)
        assert min(0.5, 4.0 / (m - 1)) <= shrink + 1e-15 and m - 1 < 4.0 / shrink + 1  # no more levels than s needs
        if abs(shrink ** (rounds - 1) / oracle._POLISH_NARROWING - 1.0) > 1e-12:
            assert budget < 1551 and (m, shrink) == (3, 0.5) and rounds * m <= levels * 3 // 4 < (rounds + 1) * m
        assert rand >= 1 and grid >= rand
        assert grid + rand + rounds * m == levels
        assert budget - 23 <= 15 + 24 * levels <= budget
        if searched:  # and the search that runs every phase reports exactly those points
            assert extremal_search(Functional("abs_a4", "convex"), 0.7, budget=budget).samples == 15 + 24 * levels

    @pytest.mark.parametrize("cls, want", [("starlike", 0.2605763713364155), ("convex", 0.06514409283410387)])
    def test_free_a4_at_the_branch_switch_finds_the_narrow_maximum(self, cls, want):
        # at 0.7817284, 1.4e-6 above the switch lam* ~ 0.78172700 where lam/3
        # stops being the maximum, the maximum sits on |x| = 1 in a p1 bump 0.0015
        # wide, 2.4e-7 (starlike) above the z^3 witness value lam/3 at p1 = 0;
        # ``want`` is what budget 1,200,000 returns
        out = extremal_search(Functional("abs_a4", cls), 0.7817284)
        assert abs(out.value - want) <= 2 * math.ulp(want)
        assert 1.014 < out.witness.p1 < 1.017 and abs(abs(out.witness.x) - 1.0) <= 1e-15
        assert _replays(Functional("abs_a4", cls), 0.7817284, out.witness, out.value)

    def test_every_default_record_replays_exactly(self):
        records = run_claim_suite()
        assert len(records) == 106
        for r in records:
            assert _record_replays(r), r

    @pytest.mark.parametrize("cls, p", [("starlike", 2.0), ("convex", 1.0)])
    def test_a_tiny_d43_replays_to_its_searched_value(self, cls, p):
        # at p1 = 2 the moments' terms cancel: a replay through float moments
        # gave 0.0, and a check absolute in the value would pass anything
        fn = Functional("abs_a4_minus_a3", cls, fixed_p=p)
        out = extremal_search(fn, 1e-20)
        assert 1e-42 < out.value < 1e-40
        assert _replays(fn, 1e-20, out.witness, out.value)

    @given(
        st.sampled_from(FUNCTIONAL_KINDS),
        st.sampled_from(("starlike", "convex")),
        st.one_of(st.just(LAMBDA_MIN), st.floats(min_value=LAMBDA_MIN, max_value=math.pi / 2)),
        st.one_of(st.sampled_from((0.0, 5e-324, 2.0)), st.floats(min_value=0.0, max_value=2.0)),
        unit_disk,
        unit_disk,
    )
    @settings(max_examples=200, deadline=None)
    # two roundings, sqrt(float(|F|^2)), gave 0.02021705060090879 here
    @example("abs_a4", "convex", 0.547, 0.277, 0.51 - 0.17j, 0.52 - 0.16j)
    @example("abs_a2", "starlike", 1.5, 1.5e-323, 0j, 0j)  # |F| = 2.25 * 2^-1074 rounds to 2^-1073
    def test_functional_value_is_the_float_nearest_the_exact_modulus(self, kind, cls, lam, p1, x, y):
        # the neighbours' midpoints around the value bracket the exact |F|
        fixed_p = None
        if kind in oracle._DIFFERENCE_KINDS:
            fixed_p = p1 if cls == "starlike" else p1 / 2.0
        fn = Functional(kind, cls, fixed_p=fixed_p)
        params = CaratheodoryParams(p1 if fixed_p is None else fn.effective_p1, x, y)
        value = functional_value(fn, lam, params)
        re, im, den = _exact_functional(fn, lam, params)
        square = Fraction(re * re + im * im, den * den)
        below, above = ((Fraction(value) + Fraction(math.nextafter(value, to))) / 2 for to in (0.0, math.inf))
        assert below * below <= square <= above * above

    def test_default_suite_attains_every_sharp_bound_to_1e_12(self):
        records = run_claim_suite()
        clean = [r for r in records if not r.violation]
        assert len(clean) == 102
        worst = max(clean, key=lambda r: abs(r.gap) / max(1.0, r.bound))
        assert abs(worst.gap) <= 1e-12 * max(1.0, worst.bound), worst


class TestRegistry:
    def test_all_claims_have_valid_defaults(self):
        for claim_id, claim in CLAIMS.items():
            assert claim.default_lambdas
            for lam in claim.default_lambdas:
                assert 0.0 < lam <= math.pi / 2
            if claim.default_ps is not None:
                pmax = 2.0 if claim.cls == "starlike" else 1.0
                for p in claim.default_ps:
                    assert 0.0 <= p <= pmax

    def test_both_psi2_variants_registered(self):
        assert "thm3.3-d43" in CLAIMS
        assert "thm3.3-d43-psi2-statement" in CLAIMS
        assert CLAIMS["thm3.3-d43-psi2-statement"].pinned_variant == "statement"


class TestSeriesCrossCheck:
    def test_identity_schwarz(self):
        dev = series_cross_check(1.0, "starlike", CaratheodoryParams(2.0, 0.0, 0.0))
        assert dev < 1e-12

    def test_z_cubed(self):
        for lam in (0.25, 1.0, math.pi / 2):
            dev = series_cross_check(lam, "starlike", CaratheodoryParams(0.0, 0.0, 1.0))
            assert dev < 1e-12

    def test_accepts_every_lambda_the_bounds_accept(self):
        # bounds and the CLI admit pi/2 within the breakpoint slack; so must the series route
        lam = math.pi / 2 + 5e-13
        for cls in ("starlike", "convex"):
            dev = series_cross_check(lam, cls, CaratheodoryParams(1.2, 0.3 - 0.4j, 0.5j))
            assert dev < 1e-12

    def test_random_sweep_both_classes(self):
        params = sample_params(31, 200, "random")
        for lam in (0.5, 1.0, math.pi / 2):
            for cls in ("starlike", "convex"):
                worst = max(series_cross_check(lam, cls, q) for q in params)
                assert worst < 1e-10


class TestGeneralBoundProbe:
    def test_no_violations_at_lambda_one(self):
        report = general_bound_probe(1.0, n_max=12, samples=200, seed=8)
        assert report.violations == 0
        assert report.max_cn_excess <= 1e-12
        assert report.max_an_excess <= 1e-9

    def test_identity_schwarz_coefficients_decay(self):
        # w = z gives c_n = lam^n / n! <= lam for lam <= pi/2
        lam = math.pi / 2
        from coefbound.series import TruncatedSeries, exp_series

        w = np.zeros(13, dtype=complex)
        w[1] = 1.0
        e = exp_series(TruncatedSeries(lam * w))
        assert np.max(np.abs(e.coeffs[1:])) <= lam + 1e-12

    def test_n_max_capped_by_default_order(self):
        with pytest.raises(ValueError):
            general_bound_probe(1.0, n_max=20)

    @pytest.mark.parametrize("n_max", [1, 0, -1])
    def test_n_max_below_two_is_refused_before_any_draw(self, monkeypatch, n_max):
        # the series layer would fail later, and not by this argument's name
        def no_draws(*args):
            raise AssertionError("drew before checking n_max")

        monkeypatch.setattr(oracle.np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=rf"n_max must lie in \[2, 12\], got {n_max}"):
            general_bound_probe(1.0, n_max=n_max)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_a_probe_of_nothing_is_refused(self, samples):
        # it would report violations=0 with -inf maxima, which reads as a pass
        with pytest.raises(ValueError, match="samples"):
            general_bound_probe(1.0, samples=samples)

    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="seed"):
            general_bound_probe(1.0, samples=5, seed=-1)
