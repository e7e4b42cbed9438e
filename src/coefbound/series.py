"""Truncated power-series arithmetic over complex coefficients.

Everything downstream of a subordination condition z*f'(z)/f(z) = exp(lam*w(z))
(or its convex analogue) reduces to finite Taylor slices.  This module supplies
the slice type and the handful of operations needed to move between a Schwarz
function w, the composed series exp(lam*w), and the Taylor coefficients a_n of
the univalent function f that the subordination encodes.

All operations are pure: inputs are never mutated and every result is a fresh
value, so series may be shared freely across threads.
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
        arr = np.asarray(list(coeffs), dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise SeriesError("a series needs a one-dimensional, non-empty coefficient vector")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise SeriesError("series coefficients must be finite")
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


def zero_series(order: int) -> TruncatedSeries:
    return TruncatedSeries(np.zeros(order + 1, dtype=np.complex128))


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

    Uses the differential recurrence k*e_k = sum_j j*s_j*e_{k-j}; one pass,
    no cancellation-prone factorials.
    """
    c = s.coeffs
    if c[0] != 0:
        raise SeriesError("exp_series requires a zero constant term")
    e = np.zeros_like(c)
    e[0] = 1.0
    for k in range(1, c.size):
        j = np.arange(1, k + 1)
        e[k] = np.dot(j * c[1 : k + 1], e[k - 1 :: -1]) / k
    return TruncatedSeries(e)


def ratio_to_coefficients(c: TruncatedSeries, n_max: int) -> np.ndarray:
    """Recover a_2..a_n from the series c = z*f'(z)/f(z) - 1.

    Inverts the convolution identity (n-1)*a_n = c_{n-1} + sum_{k=2}^{n-1}
    c_{n-k}*a_k.  Returns the vector [a_2, ..., a_{n_max}].
    """
    cf = c.coeffs
    if cf[0] != 0:
        raise SeriesError("ratio series must have zero constant term")
    if n_max < 2:
        raise SeriesError("need n_max >= 2")
    if c.order < n_max - 1:
        raise SeriesError(f"series order {c.order} too small for a_{n_max}")
    a = np.zeros(n_max + 1, dtype=np.complex128)  # a[n] = a_n, a[0:2] unused
    for n in range(2, n_max + 1):
        acc = cf[n - 1]
        for k in range(2, n):
            acc = acc + cf[n - k] * a[k]
        a[n] = acc / (n - 1)
    return a[2:]


def coefficients_from_schwarz(
    omega: TruncatedSeries, lam: float, cls: str, n_max: int
) -> np.ndarray:
    """Taylor coefficients a_2..a_n of f from its Schwarz function.

    ``starlike`` solves z*f'/f = exp(lam*w).  ``convex`` solves the analogous
    condition on 1 + z*f''/f': there g = z*f' satisfies the starlike equation
    with the same w, so a_n = b_n / n with b_n the starlike coefficients.
    """
    check_lambda(lam)
    if cls not in ("starlike", "convex"):
        raise ValueError(f"unknown class {cls!r}")
    if omega.coeffs[0] != 0:
        raise SeriesError("Schwarz series must vanish at the origin")
    scaled = TruncatedSeries(lam * omega.coeffs)
    e = exp_series(scaled)
    c = TruncatedSeries(e.coeffs - unit_series(e.order).coeffs)
    a = ratio_to_coefficients(c, n_max)
    if cls == "convex":
        a = a / np.arange(2, n_max + 1)
    return a


def blaschke_schwarz(
    theta: float, zeros: Sequence[complex], n_max: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Schwarz function e^{i*theta} * z * prod_j (a_j - z)/(1 - conj(a_j) z).

    Finite Blaschke products give valid Schwarz functions of arbitrary
    polynomial degree, used to probe coefficient bounds beyond n = 4.
    """
    for a in zeros:
        if abs(a) >= 1.0:
            raise ValueError(f"Blaschke zero must satisfy |a| < 1, got |{a}| = {abs(a)}")
    coeffs = np.zeros(n_max + 1, dtype=np.complex128)
    coeffs[1] = cmath.exp(1j * theta)
    w = TruncatedSeries(coeffs)
    for a in zeros:
        num = np.zeros(n_max + 1, dtype=np.complex128)
        num[0] = a
        num[1] = -1.0
        den = np.zeros(n_max + 1, dtype=np.complex128)
        den[0] = 1.0
        den[1] = -np.conj(a)
        w = mul(mul(w, TruncatedSeries(num)), reciprocal(TruncatedSeries(den)))
    return w
