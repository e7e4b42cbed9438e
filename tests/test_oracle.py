import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coefbound import oracle
from coefbound.oracle import (
    CLAIMS,
    FUNCTIONAL_KINDS,
    Functional,
    VerificationReport,
    extremal_search,
    functional_value,
    _SearchInputs,
    _best_of,
    _functional,
    _maximizing_y,
    _moments,
    _quadratic,
    _shared_bytes,
    general_bound_probe,
    run_claim_suite,
    series_cross_check,
    verify_claim,
)
from coefbound.bounds import bound
from coefbound.schwarz import CaratheodoryParams, grid_chunks, grid_size, random_chunks, sample_params


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
            assert abs(functional_value(fn, 1.1, out.witness) - out.value) <= 1e-12

    def test_deterministic(self):
        fn = Functional("abs_a4_minus_a3", "convex", fixed_p=0.6)
        a = extremal_search(fn, 1.0, budget=5000, seed=11)
        b = extremal_search(fn, 1.0, budget=5000, seed=11)
        assert a == b

    def test_budget_sweep_stays_under_the_bound_and_converges(self):
        # More budget need not give a larger value (the refine rounds move with
        # the incumbent), but no budget may exceed the sharp bound, and the
        # default budget resolves it to 1e-9 at every seed.
        fn = Functional("abs_a4_minus_a3", "convex", fixed_p=0.6)
        sharp = bound("convex", 1.0, which="d43", p=0.6).value
        for seed in range(12):
            for budget in (1000, 3000, 10000, 30000, 100000):
                value = extremal_search(fn, 1.0, budget=budget, seed=seed).value
                assert value <= sharp + oracle.DEFAULT_TOL, (seed, budget)
            assert abs(sharp - value) <= 1e-9, seed

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

    def test_inputs_built_for_another_run_rejected(self):
        fn = Functional("abs_a2", "starlike")
        with pytest.raises(ValueError):
            extremal_search(fn, 1.0, budget=2000, seed=1, inputs=_SearchInputs(2, 2000))
        with pytest.raises(ValueError):
            extremal_search(fn, 1.0, budget=2000, seed=1, inputs=_SearchInputs(1, 3000))

    def test_canonical_seeding_reaches_bound_with_minimal_budget(self):
        # the seeded witnesses alone attain the sharp |a2| bound
        out = extremal_search(Functional("abs_a2", "starlike"), 1.4, budget=1000, seed=0)
        assert out.value == 1.4
        assert out.witness.p1 == 2.0


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

    def test_violation_flag_matches_definition(self):
        reports = verify_claim("thm3.1-a4", [0.1, 0.21, 0.3, 1.0], budget=5000, seed=3)
        for r in reports:
            assert r.violation == (r.oracle_max > r.bound + 1e-9)
            assert r.gap == r.bound - r.oracle_max


class TestSharedInputs:
    def test_suite_records_match_standalone_searches(self):
        # Sharing inputs across a run must not change a single bit.
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

    def test_records_keep_lambda_outer_p_inner_order(self):
        lams, ps = (1.0, 0.3, 1.4), (0.75, 0.0, 0.5)
        reports = verify_claim("thm3.5-d43", lams, ps, budget=2000, seed=3)
        assert [(r.lam, r.p) for r in reports] == [(lam, p) for lam in lams for p in ps]


def _bits(result):
    return repr((result.value, result.witness, result.samples))


@st.composite
def functionals(draw):
    kind = draw(st.sampled_from(FUNCTIONAL_KINDS))
    cls = draw(st.sampled_from(("starlike", "convex")))
    p = st.floats(min_value=0.0, max_value=2.0 if cls == "starlike" else 1.0)
    if kind not in ("abs_a3_minus_a2", "abs_a4_minus_a3"):
        p = st.one_of(st.none(), p)  # free or pinned p1
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
        # smaller blocks, one block larger than any phase, and no shared blocks at all
        for rows, shared in ((1000, None), (4096, None), (10**9, None), (None, 0)):
            with pytest.MonkeyPatch.context() as mp:
                if rows is not None:
                    mp.setattr(oracle, "CHUNK_ROWS", rows)
                if shared is not None:
                    mp.setattr(oracle, "SHARED_INPUT_BYTES", shared)
                got = _bits(extremal_search(fn, lam, budget=budget, seed=seed))
            assert got == want, (rows, shared)

    def test_suite_without_shared_blocks_is_bit_equal(self, monkeypatch):
        kept = [repr((r.oracle_max, r.witness, r.samples)) for r in run_claim_suite(budget=5000)]
        monkeypatch.setattr(oracle, "SHARED_INPUT_BYTES", 0)
        fresh = [repr((r.oracle_max, r.witness, r.samples)) for r in run_claim_suite(budget=5000)]
        assert fresh == kept

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_every_suite_record_replays_its_witness(self, seed):
        for r in run_claim_suite(budget=5000, seed=seed):
            claim = CLAIMS[r.claim_id]
            fn = Functional(claim.kind, claim.cls, fixed_p=r.p)
            assert abs(functional_value(fn, r.lam, r.witness) - r.oracle_max) <= 1e-12, r

    def test_peak_memory_does_not_grow_with_the_budget(self):
        # 2,000,000 candidates take 112 MB as whole arrays; the blocks take a few MB.
        tracemalloc.start()
        try:
            extremal_search(Functional("abs_a4", "starlike"), 1.0, budget=2_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


unit_disk = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


class TestMaximumOverY:
    @given(
        st.sampled_from(FUNCTIONAL_KINDS),
        st.sampled_from(("starlike", "convex")),
        st.floats(min_value=0.0, max_value=math.pi / 2, exclude_min=True),
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
        block = (np.array([p1]) if eff is None else None, u, v)
        p1 = p1 if eff is None else eff
        score, (wp1, wu, wv, a), rows = _best_of(fn, lam, eff, [block], -np.inf, None)
        assert (wp1, complex(wu, wv), rows) == (p1, x, 1)
        y = _maximizing_y(a)
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

        def moments_route(xv, yv):
            return complex(_functional(fn, lam, np.float64(p1), *_moments(np.float64(p1), xv, yv)))

        f0, f1 = moments_route(x, 0.0), moments_route(x, 1.0)
        scale = 1e-13 * max(1.0, abs(f0), abs(f1))
        assert abs(alpha + beta * x + gamma * x * x - f0) <= scale
        assert abs(kq * (1.0 - abs(x) ** 2) - (f1 - f0)) <= scale
        assert abs(kq - (moments_route(0.0, 1.0) - moments_route(0.0, 0.0))) <= scale
        if kind not in ("abs_a4", "abs_a4_minus_a3"):
            assert gamma == kq == 0.0

    def test_cached_inputs_carry_no_y(self):
        # a free exploration row is p1, Re x, Im x; a pinned one is Re x, Im x
        # alone (its p1 is None); an offset row is dp1, Re dx, Im dx, all of them
        # contiguous float64 columns; _shared_bytes counts exactly those bytes
        inputs = _SearchInputs(3, 5000)
        free, pinned = inputs.explore(False), inputs.explore(True)
        offsets = [block for rnd in range(5) for block in inputs.offsets(rnd, 0.3)]
        assert {len(block) for block in free + pinned + offsets} == {3}
        assert {p1 is None for p1, _, _ in pinned} == {True}
        columns = [a for block in free + pinned + offsets for a in block if a is not None]
        assert all(a.dtype == np.float64 and a.flags.c_contiguous for a in columns)
        assert sum(a.nbytes for a in columns) == _shared_bytes(5000)

    def test_pinned_x_draws_do_not_depend_on_the_pinned_value(self):
        # a pinned draw takes no p1 value, so one pinned exploration set serves
        # every pinned p1 of a run: its blocks carry p1 None, and a random
        # block carries the x columns of the free draw's block
        pinned_grid = list(grid_chunks(3000, True, 1000))
        assert {p1 is None for p1, _, _ in pinned_grid} == {True}
        assert sum(u.size for _, u, _ in pinned_grid) == grid_size(3000, True)
        pinned, free = random_chunks(5, 3000, True, 1000), random_chunks(5, 3000, False, 1000)
        for (p1, u, v), (free_p1, free_u, free_v) in zip(pinned, free, strict=True):
            assert p1 is None and free_p1.size == u.size
            assert u.tobytes() == free_u.tobytes() and v.tobytes() == free_v.tobytes()

    def test_default_suite_attains_every_sharp_bound_to_1e_9(self):
        records = run_claim_suite()
        clean = [r for r in records if not r.violation]
        assert len(clean) == 102
        worst = max(clean, key=lambda r: abs(r.gap))
        assert abs(worst.gap) <= 1e-9, worst


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

    @pytest.mark.parametrize("samples", [0, -1])
    def test_a_probe_of_nothing_is_refused(self, samples):
        # it would report violations=0 with -inf maxima, which reads as a pass
        with pytest.raises(ValueError, match="samples"):
            general_bound_probe(1.0, samples=samples)

    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="seed"):
            general_bound_probe(1.0, samples=5, seed=-1)
