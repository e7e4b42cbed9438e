import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coefbound.bounds import BREAK_TOL, LAMBDA_MAX, LAMBDA_MIN, general_coeff_bound
from coefbound.oracle import (
    DEFAULT_SEED,
    PROBE_BLOCK,
    ProbeReport,
    _coefficient_values,
    general_bound_probe,
    series_cross_check,
)
from coefbound.series import (
    DEFAULT_ORDER,
    SeriesError,
    TruncatedSeries,
    _blaschke_coeffs,
    _exp_coeffs,
    _exp_rows,
    _ratio_coeffs,
    _ratio_rows,
    _schwarz_coeffs,
    blaschke_schwarz,
    coefficients_from_schwarz,
    exp_series,
    mul,
    ratio_to_coefficients,
    reciprocal,
    unit_series,
)
from coefbound.schwarz import (
    CaratheodoryParams,
    SchwarzCoefficients,
    caratheodory_moments,
    caratheodory_to_schwarz,
    sample_params,
    validate_schwarz,
)


def ts(*coeffs):
    return TruncatedSeries(coeffs)


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(SeriesError):
            TruncatedSeries([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(SeriesError):
            TruncatedSeries([1.0, complex(0, math.inf)])

    def test_rejects_empty(self):
        with pytest.raises(SeriesError):
            TruncatedSeries([])

    def test_immutable(self):
        s = ts(1.0, 2.0)
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0

    def test_an_ndarray_is_copied(self):
        src = np.array([0.0, 1.0, 2.0j])
        s = TruncatedSeries(src)
        src[1] = 5.0
        assert s.coeffs.tolist() == [0.0, 1.0, 2.0j]
        assert not np.shares_memory(s.coeffs, src)

    def test_an_ndarray_gives_read_only_coeffs(self):
        s = TruncatedSeries(np.array([1.0, 2.0]))
        assert not s.coeffs.flags.writeable
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([0.0, np.nan]),
            np.array([np.inf, 0.0]),
            np.array([0.0, -np.inf]),
            np.array([0.0, complex(1.0, np.nan)]),
            np.array([complex(-np.inf, 0.0)]),
            np.array(1.0),
            np.zeros((2, 2)),
            np.zeros(0),
        ],
        ids=["nan", "inf", "-inf", "nan-imag", "-inf-complex", "0-d", "2-d", "empty"],
    )
    def test_rejects_a_bad_ndarray(self, arr):
        with pytest.raises(SeriesError):
            TruncatedSeries(arr)


class TestOverflow:
    """A result that overflows is refused like a non-finite input.

    numpy's own overflow and invalid-value warnings are silenced, so that
    the SeriesError itself is what the test sees.
    """

    def test_exp_series(self):
        with np.errstate(all="ignore"), pytest.raises(SeriesError):
            exp_series(ts(0.0, 1e200, 0.0))

    @pytest.mark.parametrize("cls", ["starlike", "convex"])
    @pytest.mark.parametrize("c1", [1e200, 1.5e308], ids=["exp", "scaled"])
    def test_coefficients_from_schwarz(self, cls, c1):
        # 1e200 overflows inside exp(lam*w); 1.5e308 already in lam*w
        with np.errstate(all="ignore"), pytest.raises(SeriesError):
            coefficients_from_schwarz(ts(0.0, c1, 0.0, 0.0), math.pi / 2, cls, 4)

    @pytest.mark.parametrize("theta, zeros", [(0.3, [complex(math.nan, 0.1)]), (math.nan, [0.5])])
    def test_blaschke_schwarz_refuses_nan(self, theta, zeros):
        with pytest.raises(SeriesError):
            blaschke_schwarz(theta, zeros, 6)


class TestMul:
    def test_unit_identity(self):
        s = ts(0.3, -1.2, 0.7, 2.0)
        out = mul(s, unit_series(3))
        assert np.allclose(out.coeffs, s.coeffs)

    def test_hand_cauchy_product(self):
        # (0.5 - z) * (1 + 0.5 z + 0.25 z^2), worked by hand
        out = mul(ts(0.5, -1.0, 0.0), ts(1.0, 0.5, 0.25))
        assert np.allclose(out.coeffs, [0.5, -0.75, -0.375])

    def test_z_times_z(self):
        out = mul(ts(0, 1, 0), ts(0, 1, 0))
        assert np.allclose(out.coeffs, [0, 0, 1])

    def test_truncates_to_smaller_order(self):
        out = mul(ts(1, 1), ts(1, 1, 1, 1))
        assert out.order == 1


class TestReciprocal:
    def test_geometric(self):
        out = reciprocal(ts(1.0, -0.5, 0.0, 0.0))
        assert np.allclose(out.coeffs, [1.0, 0.5, 0.25, 0.125])

    def test_constant(self):
        out = reciprocal(ts(2.0, 0.0, 0.0))
        assert np.allclose(out.coeffs, [0.5, 0.0, 0.0])

    def test_triangular_solve(self):
        out = reciprocal(ts(1.0, 1.0, 0.0))
        assert np.allclose(out.coeffs, [1.0, -1.0, 1.0])

    def test_zero_constant_rejected(self):
        with pytest.raises(SeriesError):
            reciprocal(ts(0.0, 1.0))

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=9,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_mul_roundtrip(self, coeffs):
        # keep |tail| / |constant| <= 2 so the inversion stays well conditioned
        # (the O(1)-scale regime the series engine is used in)
        coeffs[0] = coeffs[0] + 1.5
        if abs(coeffs[0]) < 0.5:
            coeffs[0] = 1.0
        s = TruncatedSeries(coeffs)
        prod = mul(s, reciprocal(s))
        expect = np.zeros(len(coeffs), dtype=complex)
        expect[0] = 1.0
        assert np.allclose(prod.coeffs, expect, atol=1e-12)


class TestExpSeries:
    def test_exp_of_z(self):
        out = exp_series(ts(0.0, 1.0, 0.0, 0.0))
        assert np.allclose(out.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0])

    def test_exp_of_zero(self):
        out = exp_series(ts(0.0, 0.0, 0.0, 0.0))
        assert np.allclose(out.coeffs, [1.0, 0.0, 0.0, 0.0])

    def test_nonzero_constant_rejected(self):
        with pytest.raises(SeriesError):
            exp_series(ts(0.1, 1.0))

    @given(
        st.floats(min_value=0.05, max_value=math.pi / 2),
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_cubic_coefficient_closed_form(self, lam, c1, c2, c3):
        # z^3 coefficient of exp(lam*w) is lam^3 c1^3/6 + lam^2 c1 c2 + lam c3
        out = exp_series(ts(0.0, lam * c1, lam * c2, lam * c3))
        expect = lam**3 * c1**3 / 6 + lam**2 * c1 * c2 + lam * c3
        assert abs(out[3] - expect) < 1e-12

    def test_matches_power_sum_oracle(self):
        # direct sum_k s^k / k! on a fixed input, independent of the recurrence
        s = ts(0.0, 0.4 - 0.2j, 0.1, -0.3j, 0.05)
        acc = unit_series(4)
        power = unit_series(4)
        for k in range(1, 9):
            power = mul(power, s)
            acc = TruncatedSeries(acc.coeffs + power.coeffs / math.factorial(k))
        assert np.allclose(exp_series(s).coeffs, acc.coeffs, atol=1e-14)


class TestRatioToCoefficients:
    def test_exponential_ratio(self):
        # c_k = 1/k! comes from psi = e^z; unrolled recursion gives these
        c = ts(0.0, *[1.0 / math.factorial(k) for k in range(1, 4)])
        a = ratio_to_coefficients(c, 4)
        assert np.allclose(a, [1.0, 0.75, 17.0 / 36.0])

    def test_zero_input(self):
        a = ratio_to_coefficients(ts(0.0, 0.0, 0.0, 0.0), 4)
        assert np.allclose(a, [0.0, 0.0, 0.0])

    def test_single_coefficient(self):
        lam = 0.7
        a = ratio_to_coefficients(ts(0.0, lam, 0.0, 0.0), 4)
        assert np.allclose(a, [lam, lam**2 / 2, lam**3 / 6])

    def test_insufficient_order_rejected(self):
        with pytest.raises(SeriesError):
            ratio_to_coefficients(ts(0.0, 1.0), 4)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(SeriesError):
            ratio_to_coefficients(ts(1.0, 1.0, 1.0, 1.0), 3)

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
            min_size=5,
            max_size=DEFAULT_ORDER,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_inverse_of_forming_ratio(self, tail):
        # rebuild z f'/f from the recovered a_n; must reproduce the input c
        n_max = len(tail)
        c = TruncatedSeries([0.0, *tail])
        a = ratio_to_coefficients(c, n_max)
        num = np.zeros(n_max, dtype=complex)  # (z f')/z = 1 + sum n a_n z^{n-1}
        den = np.zeros(n_max, dtype=complex)  # f/z = 1 + sum a_n z^{n-1}
        num[0] = den[0] = 1.0
        for n in range(2, n_max + 1):
            num[n - 1] = n * a[n - 2]
            den[n - 1] = a[n - 2]
        psi = mul(TruncatedSeries(num), reciprocal(TruncatedSeries(den)))
        assert np.allclose(psi.coeffs[1:], c.coeffs[1:n_max], atol=1e-10)


class TestCoefficientsFromSchwarz:
    def test_starlike_identity_schwarz(self):
        a = coefficients_from_schwarz(ts(0.0, 1.0, 0.0, 0.0), 1.0, "starlike", 4)
        assert np.allclose(a, [1.0, 0.75, 17.0 / 36.0])

    def test_starlike_z_cubed(self):
        for lam in (0.3, 1.0, math.pi / 2):
            a = coefficients_from_schwarz(ts(0.0, 0.0, 0.0, 1.0), lam, "starlike", 4)
            assert np.allclose(a, [0.0, 0.0, lam / 3.0])

    def test_convex_identity_schwarz(self):
        a = coefficients_from_schwarz(ts(0.0, 1.0, 0.0, 0.0), 1.0, "convex", 4)
        assert np.allclose(a, [0.5, 0.25, 17.0 / 144.0])

    def test_starlike_identity_schwarz_fifth_coefficient(self):
        # exact rational unroll of the recursion gives a5 = 19/72, inside the
        # general product bound (= 1 at lambda = 1)
        a = coefficients_from_schwarz(ts(0.0, 1.0, 0.0, 0.0, 0.0), 1.0, "starlike", 5)
        assert abs(a[3] - 19.0 / 72.0) < 1e-14
        assert abs(a[3]) <= 1.0

    def test_convex_is_starlike_over_n_exactly(self):
        # b_n / n divides each part apart, as the series engine's rule says
        w = blaschke_schwarz(0.7, [0.3 + 0.4j, -0.2j], 8)
        star = coefficients_from_schwarz(w, 1.2, "starlike", 8)
        conv = coefficients_from_schwarz(w, 1.2, "convex", 8)
        assert np.array_equal(conv.real, star.real / np.arange(2, 9))
        assert np.array_equal(conv.imag, star.imag / np.arange(2, 9))

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            coefficients_from_schwarz(ts(0.0, 1.0), 2.0, "starlike", 2)
        with pytest.raises(ValueError):
            coefficients_from_schwarz(ts(0.0, 1.0), 1.0, "spiral", 2)


class TestBlaschkeSchwarz:
    def test_empty_product_is_z(self):
        w = blaschke_schwarz(0.0, [], 5)
        assert np.allclose(w.coeffs, [0, 1, 0, 0, 0, 0])

    def test_zero_at_origin_is_minus_z_squared(self):
        w = blaschke_schwarz(0.0, [0.0], 5)
        assert np.allclose(w.coeffs, [0, 0, -1, 0, 0, 0])

    def test_half_zero_expansion(self):
        # z (0.5 - z)/(1 - 0.5 z); |c2| = 0.75 = 1 - |c1|^2 attains Carleson
        w = blaschke_schwarz(0.0, [0.5], 5)
        assert np.allclose(w.coeffs[:4], [0.0, 0.5, -0.75, -0.375])

    def test_rejects_zero_outside_disk(self):
        with pytest.raises(ValueError):
            blaschke_schwarz(0.0, [1.0])

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_refuses_an_order_below_the_z_term(self, n_max):
        # the z coefficient needs at least two terms
        with pytest.raises(ValueError, match=f"n_max must be at least 1, got {n_max}"):
            blaschke_schwarz(0.0, [0.5], n_max)

    def test_order_one_is_the_z_term(self):
        w = blaschke_schwarz(0.0, [0.5], 1)
        assert np.allclose(w.coeffs, [0.0, 0.5])

    @given(
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.lists(
            st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
            max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_output_is_valid_schwarz(self, theta, zeros):
        w = blaschke_schwarz(theta, zeros, 6)
        assert w[0] == 0
        assert validate_schwarz(SchwarzCoefficients(w[1], w[2], w[3]))

    @given(
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.lists(
            st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
            max_size=3,
        ),
        st.sampled_from([0.25, 1.0, math.pi / 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_subordination_coefficient_bound(self, theta, zeros, lam):
        # every coefficient of exp(lam*w) - 1 is bounded by lam
        w = blaschke_schwarz(theta, zeros, DEFAULT_ORDER)
        e = exp_series(TruncatedSeries(lam * w.coeffs))
        assert np.max(np.abs(e.coeffs[1:])) <= lam + 1e-12

    def test_values_on_disk_bounded(self):
        # evaluate the rational product directly; series is its Taylor slice
        zeros = [0.4 + 0.3j, -0.5j]
        w = blaschke_schwarz(1.1, zeros, DEFAULT_ORDER)
        for z in [0.3, 0.2 + 0.4j, -0.55j]:
            direct = np.exp(1.1j) * z
            for a in zeros:
                direct *= (a - z) / (1 - np.conj(a) * z)
            assert abs(direct) <= 1.0
            tail = abs(z) ** (DEFAULT_ORDER + 1) / (1 - abs(z))
            approx = np.polyval(w.coeffs[::-1], z)
            assert abs(approx - direct) < 20 * tail + 1e-9


def _bits(coeffs) -> np.ndarray:
    """The float64 bit patterns of a complex vector, signed zeros included."""
    return np.ascontiguousarray(coeffs, dtype=np.complex128).view(np.uint64)


def _div(z, k):
    """z / k by the series engine's rule: each part divided apart."""
    return complex(z.real / k, z.imag / k)


def _reference_exp(c):
    """exp_series as a plain Python loop: k e_k = (1 s_1) e_{k-1} + ... + (k s_k) e_0, then / k."""
    jc = [complex(j * complex(z).real, j * complex(z).imag) for j, z in enumerate(c)]
    e = [1 + 0j]
    for k in range(1, len(jc)):
        acc = jc[1] * e[k - 1]
        for j in range(2, k + 1):
            acc = acc + jc[j] * e[k - j]
        e.append(_div(acc, k))
    return e


def _reference_ratio(cf, n_max):
    """ratio_to_coefficients as a plain Python loop: c_{n-1} + c_{n-2} a_2 + ... + c_1 a_{n-1}, then / (n - 1)."""
    cf = [complex(z) for z in cf]
    a = [0j] * (n_max + 1)
    for n in range(2, n_max + 1):
        acc = cf[n - 1]
        for k in range(2, n):
            acc = acc + cf[n - k] * a[k]
        a[n] = _div(acc, n - 1)
    return a[2:]


def _reference_coefficients(omega, lam, cls, n_max):
    e = _reference_exp([complex(lam * z.real, lam * z.imag) for z in omega.tolist()])
    e[0] -= 1
    a = _reference_ratio(e, n_max)
    return [_div(b, n) for n, b in enumerate(a, start=2)] if cls == "convex" else a


def _recurrence_blaschke(theta, zeros, n_max):
    """blaschke_schwarz as a plain Python loop: per factor t = (a - z) w, then r_k = t_k + conj(a) r_{k-1}."""
    w = [0j] * (n_max + 1)
    w[1] = cmath.exp(1j * theta)
    for a in zeros:
        a = complex(a)
        t = [a * w[0]] + [a * w[k] - w[k - 1] for k in range(1, n_max + 1)]
        r = [t[0]]
        for k in range(1, n_max + 1):
            r.append(t[k] + a.conjugate() * r[k - 1])
        w = r
    return w


#: Largest gap allowed between blaschke_schwarz and _reference_blaschke.  The
#: coefficients are at most 1 in modulus; on 40,000 random products of up to
#: 4 zeros with |a| <= 0.97 and n_max <= 12 the worst gap was 5.7e-16.
BLASCHKE_TOL = 4e-15


def _reference_blaschke(theta, zeros, n_max):
    """blaschke_schwarz through mul and a reciprocal by forward substitution."""
    coeffs = np.zeros(n_max + 1, dtype=np.complex128)
    coeffs[1] = cmath.exp(1j * theta)
    w = TruncatedSeries(coeffs)
    for a in zeros:
        num = np.zeros(n_max + 1, dtype=np.complex128)
        num[0], num[1] = a, -1.0
        den = np.zeros(n_max + 1, dtype=np.complex128)
        den[0], den[1] = 1.0, -np.conj(a)
        w = mul(mul(w, TruncatedSeries(num)), reciprocal(TruncatedSeries(den)))
    return w.coeffs


def _reference_probe(lam, n_max=DEFAULT_ORDER, samples=500, seed=DEFAULT_SEED):
    """general_bound_probe as a loop over samples, each through the public series calls."""
    rng = np.random.default_rng(seed)
    ns = np.arange(2, n_max + 1)
    star_bounds = np.array([general_coeff_bound("starlike", n, lam) for n in range(2, n_max + 1)])
    conv_bounds = star_bounds / ns
    violations = 0
    max_cn_excess = -np.inf
    max_an_excess = -np.inf
    for _ in range(samples):
        degree = int(rng.integers(0, 4))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        moduli = rng.uniform(0.0, 0.97, degree)
        phases = rng.uniform(0.0, 2.0 * np.pi, degree)
        zeros = moduli * np.exp(1j * phases)
        w = blaschke_schwarz(theta, list(zeros), n_max)
        e = exp_series(TruncatedSeries(lam * w.coeffs))
        cn_excess = float(np.abs(e.coeffs[1:]).max() - lam)
        max_cn_excess = max(max_cn_excess, cn_excess)
        if cn_excess > 1e-12:
            violations += 1
        c = e.coeffs.copy()
        c[0] -= 1.0
        a_star = np.abs(ratio_to_coefficients(TruncatedSeries(c), n_max))
        an_excess = float(max((a_star - star_bounds).max(), (a_star / ns - conv_bounds).max()))
        max_an_excess = max(max_an_excess, an_excess)
        if an_excess > 1e-9:
            violations += 1
    return ProbeReport(lam, n_max, samples, seed, violations, max_cn_excess, max_an_excess)


small = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


class TestBitsOfTheReferenceLoops:
    """The series engine gives the bits of its recurrences written as plain Python loops of its rule."""

    @given(st.lists(small, min_size=1, max_size=DEFAULT_ORDER + 1))
    @settings(max_examples=200, deadline=None)
    def test_exp_series(self, tail):
        c = np.array([0.0, *tail[1:]], dtype=np.complex128)
        assert np.array_equal(_bits(exp_series(TruncatedSeries(c)).coeffs), _bits(_reference_exp(c)))

    @given(st.lists(small, min_size=2, max_size=DEFAULT_ORDER + 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_ratio_to_coefficients(self, tail, data):
        c = np.array([0.0, *tail[1:]], dtype=np.complex128)
        n_max = data.draw(st.integers(min_value=2, max_value=c.size))
        got = ratio_to_coefficients(TruncatedSeries(c), n_max)
        assert np.array_equal(_bits(got), _bits(_reference_ratio(c, n_max)))

    @given(
        st.lists(small, min_size=2, max_size=DEFAULT_ORDER + 1),
        st.floats(min_value=LAMBDA_MIN, max_value=math.pi / 2),
        st.sampled_from(["starlike", "convex"]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_coefficients_from_schwarz(self, tail, lam, cls, data):
        omega = np.array([0.0, *tail[1:]], dtype=np.complex128)
        n_max = data.draw(st.integers(min_value=2, max_value=omega.size))
        got = coefficients_from_schwarz(TruncatedSeries(omega), lam, cls, n_max)
        assert np.array_equal(_bits(got), _bits(_reference_coefficients(omega, lam, cls, n_max)))

    @given(
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.lists(
            st.one_of(
                st.complex_numbers(max_magnitude=0.97, allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 0.5, -0.25j, complex(0.3, -0.0)]),
            ),
            max_size=4,
        ),
        st.integers(min_value=1, max_value=DEFAULT_ORDER),
    )
    @settings(max_examples=200, deadline=None)
    def test_blaschke_schwarz(self, theta, zeros, n_max):
        got = blaschke_schwarz(theta, zeros, n_max).coeffs
        assert np.array_equal(_bits(got), _bits(_recurrence_blaschke(theta, zeros, n_max)))
        # an independent route: mul by (a - z), then mul by reciprocal(1 - conj(a) z)
        assert np.abs(got - _reference_blaschke(theta, zeros, n_max)).max() <= BLASCHKE_TOL


class _Exact:
    """A complex number with Fraction parts, for the exact recurrences below."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _Exact(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        if isinstance(o, _Exact):
            return _Exact(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
        return _Exact(self.re * o, self.im * o)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return _Exact(self.re / k, self.im / k)


def _exact_exp(s, one):
    """exp_series' recurrence k e_k = sum_j j s_j e_{k-j}, exactly, on _Exact or Fraction values."""
    e = [one]
    for k in range(1, len(s)):
        acc = s[1] * e[k - 1]
        for j in range(2, k + 1):
            acc = acc + j * s[j] * e[k - j]
        e.append(acc / k)
    return e


def _exact_ratio(c, n_max):
    """ratio_to_coefficients' recurrence (n-1) a_n = c_{n-1} + sum_k c_{n-k} a_k, exactly."""
    a = [None, None]
    for n in range(2, n_max + 1):
        acc = c[n - 1]
        for k in range(2, n):
            acc = acc + c[n - k] * a[k]
        a.append(acc / (n - 1))
    return a[2:]


#: Most ulps of the coefficient scale an engine coefficient may lie from the
#: exact one.  The scale of a coefficient is the same recurrence run on the
#: moduli |re| + |im| of its inputs, which bounds every term of every sum.  On
#: 11,000 random slices the worst was 2.34 ulps, before and after the engine
#: took its one rounding rule.
ACCURACY_ULPS = 8


def _assert_within_scale(got, exact, scale):
    for g, x, m in zip(np.asarray(got).tolist(), exact, scale):
        for part, want in ((g.real, x.re), (g.imag, x.im)):
            assert abs(Fraction(part) - want) <= ACCURACY_ULPS * Fraction(2) ** -52 * m


def _moduli(c):
    return [Fraction(abs(z.real)) + Fraction(abs(z.imag)) for z in c]


# parts of at least 2**-10 (or zero) keep every product of a 13-term slice normal
_part = st.floats(min_value=-2.0, max_value=2.0).map(lambda x: x if abs(x) >= 2.0**-10 else 0.0)
normal = st.builds(complex, _part, _part)


class TestAccuracyAgainstExactArithmetic:
    """The engine's coefficients lie within ACCURACY_ULPS of the exact recurrences, in Fractions."""

    @given(st.lists(normal, min_size=1, max_size=DEFAULT_ORDER + 1))
    @settings(max_examples=100, deadline=None)
    def test_exp_series(self, tail):
        c = [0j, *tail[1:]]
        got = exp_series(TruncatedSeries(c)).coeffs
        exact = _exact_exp([_Exact(z.real, z.imag) for z in c], _Exact(1))
        _assert_within_scale(got, exact, _exact_exp(_moduli(c), Fraction(1)))

    @given(
        st.lists(normal, min_size=2, max_size=DEFAULT_ORDER + 1),
        st.floats(min_value=2.0**-10, max_value=math.pi / 2),
        st.sampled_from(["starlike", "convex"]),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_coefficients_from_schwarz(self, tail, lam, cls, data):
        omega = [0j, *tail[1:]]
        n_max = data.draw(st.integers(min_value=2, max_value=len(omega)))
        got = coefficients_from_schwarz(TruncatedSeries(omega), lam, cls, n_max)
        routes = []
        for scaled, one in (([_Exact(lam) * _Exact(z.real, z.imag) for z in omega], _Exact(1)),
                            ([lam * m for m in _moduli(omega)], Fraction(1))):
            e = _exact_exp(scaled, one)
            e[0] = 0 * one  # exp(lam*w) - 1
            a = _exact_ratio(e, n_max)
            routes.append([b / n for n, b in enumerate(a, start=2)] if cls == "convex" else a)
        _assert_within_scale(got, *routes)


def _rows(data):
    """Draw a (B, n) complex block, B in [1, 40] and order n - 1 in [1, 13], with column 0 zero."""
    b = data.draw(st.integers(min_value=1, max_value=40), label="B")
    n = data.draw(st.integers(min_value=2, max_value=14), label="n")
    part = st.one_of(st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([0.0, -0.0]))
    c = np.ascontiguousarray(data.draw(arrays(np.float64, (b, n, 2), elements=part))).view(np.complex128)[..., 0]
    c[:, 0] = 0.0
    return c


class TestBitsOfTheRowHelpers:
    """Each row of a block gets the bits the one-row engine gives it."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_exp_rows(self, data):
        c = _rows(data)
        got = _exp_rows(c)
        assert got.flags.c_contiguous
        for row, want in zip(got, c):
            assert np.array_equal(_bits(row), _bits(_exp_coeffs(want)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_ratio_rows(self, data):
        c = _rows(data)
        n_max = data.draw(st.integers(min_value=2, max_value=c.shape[1]), label="n_max")
        got = _ratio_rows(c, n_max)
        assert got.flags.c_contiguous and got.shape == (c.shape[0], n_max - 1)
        for row, want in zip(got, c):
            assert np.array_equal(_bits(row), _bits(_ratio_coeffs(want, n_max)))


class TestProbeMatchesTheReferenceLoop:
    # samples 1, 2, 300 and one past PROBE_BLOCK, which spills into a second block
    @pytest.mark.parametrize("lam", [LAMBDA_MIN, 0.5, 1.0, math.pi / 2 + 5e-13])
    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_same_report(self, lam, seed):
        for samples in (1, 2, 300, PROBE_BLOCK + 1):
            got = general_bound_probe(lam, n_max=DEFAULT_ORDER, samples=samples, seed=seed)
            assert repr(got) == repr(_reference_probe(lam, DEFAULT_ORDER, samples, seed))


def _public_cross_check(lam, cls, params):
    """series_cross_check through the public calls: dataclasses, a TruncatedSeries and an ndarray."""
    m = caratheodory_moments(params)
    c = caratheodory_to_schwarz(m)
    a_series = coefficients_from_schwarz(TruncatedSeries([0.0, c.c1, c.c2, c.c3]), lam, cls, 4).tolist()
    closed = _coefficient_values(lam, m.p1, m.p2, m.p3, cls)
    return max(abs(s - c) for s, c in zip(a_series, closed))


class TestListKernels:
    """The list kernels behind coefficients_from_schwarz and blaschke_schwarz are the public routes' one route."""

    @pytest.mark.parametrize("lam", [LAMBDA_MIN, 1.0, math.pi / 2, LAMBDA_MAX + BREAK_TOL])
    @pytest.mark.parametrize("cls", ["starlike", "convex"])
    def test_cross_check_has_the_bits_of_the_public_route(self, lam, cls):
        for params in sample_params(3401, 200, "random") + [CaratheodoryParams(-1.5, 0.5, -0.25j)]:
            assert series_cross_check(lam, cls, params).hex() == _public_cross_check(lam, cls, params).hex()

    @pytest.mark.parametrize(
        "lam, cls, w",
        [
            (LAMBDA_MAX + 1e-9, "starlike", [0j, 1 + 0j]),
            (1.0, "spiral", [0j, 1 + 0j]),
            (1.0, "convex", [0.5 + 0j, 1 + 0j]),
            (1.0, "starlike", [0j, complex(math.inf, 0.0)]),
            (math.pi / 2, "convex", [0j, 1.5e308 + 0j, 0j, 0j]),  # lam * w overflows
        ],
        ids=["lambda", "class", "constant-term", "non-finite", "overflow"],
    )
    def test_schwarz_coeffs_raises_as_the_public_route(self, lam, cls, w):
        with pytest.raises(ValueError) as public:
            coefficients_from_schwarz(TruncatedSeries(w), lam, cls, 2)
        with pytest.raises(ValueError) as kernel:
            _schwarz_coeffs(w, lam, cls, 2)
        assert (type(kernel.value), str(kernel.value)) == (type(public.value), str(public.value))

    @pytest.mark.parametrize("zeros, n_max", [([0.5], 0), ([0.3, 1.0], 4)], ids=["order", "zero"])
    def test_blaschke_coeffs_raises_as_the_public_route(self, zeros, n_max):
        with pytest.raises(ValueError) as public:
            blaschke_schwarz(0.3, zeros, n_max)
        with pytest.raises(ValueError) as kernel:
            _blaschke_coeffs(0.3, zeros, n_max)
        assert (type(kernel.value), str(kernel.value)) == (type(public.value), str(public.value))


#: sha256 of the float64 bytes of _digest_values().  A change that moves
#: these bits on purpose updates this digest and says so.  Re-pinned when
#: every coefficient route took one rounding rule with no np.dot, np.convolve
#: or matmul, and series_cross_check compared with Python abs.  The worst
#: deviation per (lam, class), before -> after: 0.5 starlike 4.17e-17 ->
#: 4.17e-17, 0.5 convex 1.39e-17 -> 1.55e-17, 1 starlike 1.67e-16 ->
#: 1.12e-16, 1 convex 4.16e-17 -> 3.10e-17, pi/2 starlike 6.66e-16 ->
#: 6.66e-16, pi/2 convex 1.67e-16 -> 2.22e-16.  The six probe excesses kept
#: their values, and the probes found no violation.
SERIES_DIGEST = "4daaa3c5721c9fda9b18752b12fc3aee453a7cc9ba6f38b673a309d262559d7e"


def _digest_values() -> np.ndarray:
    """series_cross_check over 200 seeded triples x 3 lam x 2 classes, then each probe's two excesses."""
    rng = np.random.default_rng(13)
    p1 = rng.uniform(-2.0, 2.0, 200)
    x = np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))
    y = np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))
    triples = [CaratheodoryParams(float(a), complex(b), complex(c)) for a, b, c in zip(p1, x, y)]
    lams = (0.5, 1.0, math.pi / 2)
    values = [series_cross_check(lam, cls, q) for lam in lams for cls in ("starlike", "convex") for q in triples]
    for lam in lams:
        probe = general_bound_probe(lam, n_max=12, samples=300)
        values += [probe.max_cn_excess, probe.max_an_excess]
    return np.array(values)


def test_keeps_its_pinned_digest():
    # both oracle routes through the series engine, bit for bit: a change
    # that moves any coefficient the checks see fails here
    assert hashlib.sha256(_digest_values().tobytes()).hexdigest() == SERIES_DIGEST
