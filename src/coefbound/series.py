"""Truncated power-series arithmetic over complex coefficients.

Everything downstream of a subordination condition z*f'(z)/f(z) = exp(lam*w(z))
(or its convex analogue) reduces to finite Taylor slices.  This module supplies
the slice type and the handful of operations needed to move between a Schwarz
function w, the composed series exp(lam*w), and the Taylor coefficients a_n of
the univalent function f that the subordination encodes.

All operations are pure: inputs are never mutated and every result is a fresh
value, so series may be shared freely across threads.

Every coefficient route (exp_series, ratio_to_coefficients,
coefficients_from_schwarz, blaschke_schwarz and the row helpers below)
rounds by one rule, written out so that its bits depend only on IEEE
doubles in a stated order, not on a BLAS kernel, a SIMD loop or the Python
version:

* a product of two complex numbers is Python's complex multiply,
  re = xr*yr - xi*yi and im = xr*yi + xi*yr, each real product rounded on
  its own;
* a product with, or a division by, a real or an integer k acts on each part
  apart, complex(x.real * k, x.imag * k) and complex(x.real / k, x.imag / k),
  because Python's mixed complex/real arithmetic differs between versions;
* a sum adds its terms left to right, starting from the first term.

The slices are short (4 to 13 terms), so the cost is per-call overhead, not
arithmetic.  A single slice therefore runs the recurrences on a Python list
of ``complex``: the coefficient array goes in once and comes out once.  A
block of many slices, as the general-bound probe expands, runs the same
recurrences down the rows of one array (_exp_rows, _ratio_rows) on its real
and imaginary parts, since numpy's complex multiply on arrays may fuse a
multiply and an add into one rounding; each row gets the bits the one-slice
route gives it.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Sequence

import numpy as np

from .bounds import check_lambda

#: Default truncation order; covers general-bound probes well past n = 4.
DEFAULT_ORDER = 12


class SeriesError(ValueError):
    """Raised for degenerate or insufficient series inputs."""


class TruncatedSeries:
    """A finite Taylor slice c_0 + c_1 z + ... + c_N z^N.

    ``coeffs[k]`` holds the z^k coefficient.  All entries must be finite;
    NaN or infinity is rejected at construction so it can never propagate.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[complex]):
        # np.array copies, so the caller's array is never aliased.
        arr = np.array(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs), dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise SeriesError("a series needs a one-dimensional, non-empty coefficient vector")
        _check_finite(arr)
        arr.setflags(write=False)
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient vector of length ``order + 1``."""
        return self._coeffs

    @property
    def order(self) -> int:
        return self._coeffs.size - 1

    def __len__(self) -> int:
        return self._coeffs.size

    def __getitem__(self, k: int) -> complex:
        return complex(self._coeffs[k])

    def __repr__(self) -> str:
        return f"TruncatedSeries({np.array2string(self._coeffs, precision=6)})"


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise SeriesError("series coefficients must be finite")


def _check_finite_list(values: list[complex]) -> None:
    if not all(map(cmath.isfinite, values)):
        raise SeriesError("series coefficients must be finite")


def unit_series(order: int) -> TruncatedSeries:
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = 1.0
    return TruncatedSeries(c)


def mul(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the smaller input order."""
    n = min(s.order, t.order)
    prod = np.convolve(s.coeffs[: n + 1], t.coeffs[: n + 1])[: n + 1]
    return TruncatedSeries(prod)


def reciprocal(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse, by forward substitution in the convolution system.

    Requires a nonzero constant term; mul(s, reciprocal(s)) reproduces the
    unit series to machine precision.
    """
    c = s.coeffs
    if abs(c[0]) == 0.0:
        raise SeriesError("cannot invert a series with zero constant term")
    r = np.zeros_like(c)
    r[0] = 1.0 / c[0]
    for k in range(1, c.size):
        r[k] = -np.dot(c[1 : k + 1], r[k - 1 :: -1]) / c[0]
    return TruncatedSeries(r)


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term (Schwarz-type input).

    Uses the differential recurrence k*e_k = sum_{j=1}^k (j*s_j)*e_{k-j}; one
    pass, no cancellation-prone factorials.  Each coefficient rounds by the
    module's rule: the sum runs j = 1..k left to right and is then divided
    by k part by part.
    """
    c = s.coeffs
    if c[0] != 0:
        raise SeriesError("exp_series requires a zero constant term")
    return TruncatedSeries(_exp_coeffs(c.tolist()))


def _exp_coeffs(c: Sequence[complex]) -> list[complex]:
    """exp_series on coefficients with c[0] == 0; the result may hold inf or NaN."""
    jc = [complex(j * z.real, j * z.imag) for j, z in enumerate(c)]
    e = [1 + 0j]
    for k in range(1, len(jc)):
        acc = jc[1] * e[k - 1]
        for j in range(2, k + 1):
            acc += jc[j] * e[k - j]
        e.append(complex(acc.real / k, acc.imag / k))
    return e


def _exp_rows(c: np.ndarray) -> np.ndarray:
    """_exp_coeffs down the rows of ``c``, shape (B, n) with c[:, 0] == 0.

    Returns a fresh C-contiguous (B, n) array whose every row has the bits
    _exp_coeffs gives that row.  It works on the real and imaginary parts:
    each product is formed in real form, and each sum is a ``np.cumsum``
    along the row, which adds left to right (``np.sum`` sums pairwise).
    """
    n = c.shape[1]
    j = np.arange(n)
    jr, ji = j * c.real, j * c.imag
    e = np.zeros(c.shape, dtype=np.complex128)
    er, ei = e.real, e.imag
    er[:, 0] = 1.0
    for k in range(1, n):
        xr, xi = jr[:, 1 : k + 1], ji[:, 1 : k + 1]
        yr, yi = er[:, k - 1 :: -1], ei[:, k - 1 :: -1]  # e_{k-j} for j = 1..k
        er[:, k] = np.cumsum(xr * yr - xi * yi, axis=1)[:, -1] / k
        ei[:, k] = np.cumsum(xr * yi + xi * yr, axis=1)[:, -1] / k
    return e


def ratio_to_coefficients(c: TruncatedSeries, n_max: int) -> np.ndarray:
    """Recover a_2..a_n from the series c = z*f'(z)/f(z) - 1.

    Inverts the convolution identity (n-1)*a_n = c_{n-1} + sum_{k=2}^{n-1}
    c_{n-k}*a_k.  Returns the vector [a_2, ..., a_{n_max}].  Each coefficient
    rounds by the module's rule: the sum starts from c_{n-1} and adds its
    products for k = 2..n-1 left to right, and is then divided by n - 1 part
    by part.
    """
    return np.array(_ratio_coeffs(c.coeffs.tolist(), n_max), dtype=np.complex128)


def _ratio_coeffs(cf: Sequence[complex], n_max: int) -> list[complex]:
    if isinstance(cf, np.ndarray):
        cf = cf.tolist()
    if cf[0] != 0:
        raise SeriesError("ratio series must have zero constant term")
    if n_max < 2:
        raise SeriesError("need n_max >= 2")
    if len(cf) - 1 < n_max - 1:
        raise SeriesError(f"series order {len(cf) - 1} too small for a_{n_max}")
    a = [0j, 0j]  # a[n] = a_n, a[0:2] unused
    for n in range(2, n_max + 1):
        acc = cf[n - 1]
        for k in range(2, n):
            acc += cf[n - k] * a[k]
        a.append(complex(acc.real / (n - 1), acc.imag / (n - 1)))
    return a[2:]


def _ratio_rows(cf: np.ndarray, n_max: int) -> np.ndarray:
    """_ratio_coeffs down the rows of ``cf``, shape (B, N + 1) with cf[:, 0] == 0.

    Returns the C-contiguous (B, n_max - 1) array of [a_2, ..., a_{n_max}],
    each row with the bits _ratio_coeffs gives that row.  It works on the
    real and imaginary parts: each product is formed in real form and added
    in _ratio_coeffs' order, and each division by n - 1 divides both parts.
    """
    cr, ci = cf.real, cf.imag
    a = np.zeros((cf.shape[0], n_max - 1), dtype=np.complex128)  # a[:, n - 2] = a_n
    ar, ai = a.real, a.imag
    for n in range(2, n_max + 1):
        accr, acci = cr[:, n - 1], ci[:, n - 1]
        for k in range(2, n):  # c_{n-k} a_k in _ratio_coeffs' order
            xr, xi, yr, yi = cr[:, n - k], ci[:, n - k], ar[:, k - 2], ai[:, k - 2]
            accr = accr + (xr * yr - xi * yi)
            acci = acci + (xr * yi + xi * yr)
        ar[:, n - 2], ai[:, n - 2] = accr / (n - 1), acci / (n - 1)
    return a


def coefficients_from_schwarz(
    omega: TruncatedSeries, lam: float, cls: str, n_max: int
) -> np.ndarray:
    """Taylor coefficients a_2..a_n of f from its Schwarz function.

    ``starlike`` solves z*f'/f = exp(lam*w).  ``convex`` solves the analogous
    condition on 1 + z*f''/f': there g = z*f' satisfies the starlike equation
    with the same w, so a_n = b_n / n with b_n the starlike coefficients.
    Every step rounds by the module's rule, on one Python list: lam*w and
    b_n / n act on each part apart, and exp and the ratio recurrence are
    exp_series' and ratio_to_coefficients'.
    """
    check_lambda(lam)
    if cls not in ("starlike", "convex"):
        raise ValueError(f"unknown class {cls!r}")
    if omega.coeffs[0] != 0:
        raise SeriesError("Schwarz series must vanish at the origin")
    scaled = [complex(lam * z.real, lam * z.imag) for z in omega.coeffs.tolist()]
    _check_finite_list(scaled)
    c = _exp_coeffs(scaled)
    _check_finite_list(c)
    c[0] = 0j  # c = exp(lam*w) - 1: only its constant term moves, from 1 to 0
    a = _ratio_coeffs(c, n_max)
    if cls == "convex":
        a = [complex(b.real / n, b.imag / n) for n, b in enumerate(a, start=2)]
    return np.array(a, dtype=np.complex128)


def blaschke_schwarz(
    theta: float, zeros: Sequence[complex], n_max: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Schwarz function e^{i*theta} * z * prod_j (a_j - z)/(1 - conj(a_j) z).

    Finite Blaschke products give valid Schwarz functions of arbitrary
    polynomial degree, used to probe coefficient bounds beyond n = 4.
    ``n_max`` must be at least 1, the order of the z term.

    Each factor takes one O(n_max) pass by the module's rule: it multiplies
    by (a - z), t_k = a*w_k - w_{k-1}, and divides by (1 - conj(a) z) through
    r_k = t_k + conj(a)*r_{k-1}.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    for a in zeros:
        if abs(a) >= 1.0:
            raise ValueError(f"Blaschke zero must satisfy |a| < 1, got |{a}| = {abs(a)}")
    w = [0j] * (n_max + 1)
    w[1] = cmath.exp(1j * theta)
    for a in zeros:
        a = complex(a)
        ca = a.conjugate()
        w_prev = w[0]
        r_k = a * w_prev
        r = [r_k]
        for w_k in w[1:]:
            r_k = a * w_k - w_prev + ca * r_k  # t_k + conj(a) r_{k-1}
            r.append(r_k)
            w_prev = w_k
        w = r
    return TruncatedSeries(w)
