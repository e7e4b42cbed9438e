"""Truncated power-series arithmetic over complex coefficients.

Everything downstream of a subordination condition z*f'(z)/f(z) = exp(lam*w(z))
(or its convex analogue) reduces to finite Taylor slices.  This module supplies
the slice type and the handful of operations needed to move between a Schwarz
function w, the composed series exp(lam*w), and the Taylor coefficients a_n of
the univalent function f that the subordination encodes.

All operations are pure: inputs are never mutated and every result is a fresh
value, so series may be shared freely across threads.

The slices are short (4 to 13 terms), so the cost is per-call overhead, not
arithmetic.  The recurrences therefore run on Python ``complex`` wherever
that gives numpy's bits: a complex add is the same IEEE operation in both,
and so is a multiply of numpy complex scalars.  numpy's complex multiply on
arrays is not: its SIMD loops may fuse a multiply and an add into one
rounding.  Two operations stay in numpy because their Python counterparts
round differently.  ``np.dot`` sums in BLAS order, which a sequential Python
sum does not reproduce, and numpy divides a complex by an integer through a
rounded reciprocal, where Python divides exactly.

A block of many slices, as the general-bound probe expands, runs the same
recurrences down the rows of one array (_exp_rows, _ratio_rows), each row
with the bits of the one-slice route; their docstrings give the rules that
keep those bits.  A single slice stays on the one-slice route: for a 4-term
slice the row helpers' array calls cost more than the Python loop.
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
    no cancellation-prone factorials.  Each sum is one ``np.dot`` and each
    division by k is numpy's, so every coefficient has the bits of that
    recurrence as written; see the module docstring.
    """
    c = s.coeffs
    if c[0] != 0:
        raise SeriesError("exp_series requires a zero constant term")
    return TruncatedSeries(_exp_coeffs(c))


def _exp_coeffs(c: np.ndarray) -> np.ndarray:
    """exp_series on a coefficient vector with c[0] == 0; the result may hold inf or NaN."""
    n = c.size
    jc = np.arange(n) * c
    # er[n-1-k] = e_k: e reversed, so each dot reads two contiguous runs,
    # the same values in the same order as jc[1:k+1] . e[k-1::-1].
    er = np.zeros(n, dtype=np.complex128)
    er[-1] = 1.0
    for k in range(1, n):
        er[n - 1 - k] = jc[1 : k + 1].dot(er[n - k :]) / k
    return er[::-1]


def _exp_rows(c: np.ndarray) -> np.ndarray:
    """_exp_coeffs down the rows of ``c``, shape (B, n) with c[:, 0] == 0.

    Returns a fresh C-contiguous (B, n) array whose every row has the bits
    _exp_coeffs gives that row.  Two rules keep them.  Each sum is a
    (B, 1, k) @ (B, k, 1) matmul: numpy computes a vector . vector matmul
    with the dtype dot that ``ndarray.dot`` calls, so each row sums in the
    same BLAS order.  The result is made contiguous, not returned as the
    reversed view _exp_coeffs returns, because numpy's ``np.abs`` of a complex
    array can round differently on a reversed view than on contiguous memory.
    """
    n = c.shape[1]
    jc = np.arange(n) * c  # an integer has no imaginary part to fuse, so array and scalar agree
    er = np.zeros(c.shape, dtype=np.complex128)
    er[:, -1] = 1.0
    for k in range(1, n):
        er[:, n - 1 - k] = (jc[:, None, 1 : k + 1] @ er[:, n - k :, None])[:, 0, 0] / k
    return np.ascontiguousarray(er[:, ::-1])


def ratio_to_coefficients(c: TruncatedSeries, n_max: int) -> np.ndarray:
    """Recover a_2..a_n from the series c = z*f'(z)/f(z) - 1.

    Inverts the convolution identity (n-1)*a_n = c_{n-1} + sum_{k=2}^{n-1}
    c_{n-k}*a_k.  Returns the vector [a_2, ..., a_{n_max}].  The sum runs
    left to right on Python ``complex``; the division by n - 1 is numpy's,
    so the result has the bits of the same recurrence on numpy scalars.
    """
    return _ratio_coeffs(c.coeffs, n_max)


def _ratio_coeffs(cf: np.ndarray, n_max: int) -> np.ndarray:
    if cf[0] != 0:
        raise SeriesError("ratio series must have zero constant term")
    if n_max < 2:
        raise SeriesError("need n_max >= 2")
    if cf.size - 1 < n_max - 1:
        raise SeriesError(f"series order {cf.size - 1} too small for a_{n_max}")
    cf = cf.tolist()
    a = [0j, 0j]  # a[n] = a_n, a[0:2] unused
    for n in range(2, n_max + 1):
        acc = cf[n - 1]
        for ck, ak in zip(cf[n - 2 : 0 : -1], a[2:n]):  # c_{n-k} a_k for k = 2..n-1
            acc = acc + ck * ak
        a.append(complex(np.complex128(acc) / (n - 1)))
    return np.array(a[2:], dtype=np.complex128)


def _ratio_rows(cf: np.ndarray, n_max: int) -> np.ndarray:
    """_ratio_coeffs down the rows of ``cf``, shape (B, N + 1) with cf[:, 0] == 0.

    Returns the C-contiguous (B, n_max - 1) array of [a_2, ..., a_{n_max}],
    each row with the bits _ratio_coeffs gives that row.  Every product is
    formed in real form, re = xr*yr - xi*yi and im = xr*yi + xi*yr: that is
    Python's complex multiply, which numpy scalars share, while numpy's
    complex multiply on arrays may fuse a multiply and an add into one
    rounding (see the module docstring).  Adds and the division by n - 1 are
    numpy's complex operations, which round alike on arrays and scalars.
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
        ar[:, n - 2], ai[:, n - 2] = accr, acci
        a[:, n - 2] /= n - 1
    return a


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
    scaled = lam * omega.coeffs
    _check_finite(scaled)
    c = _exp_coeffs(scaled)
    _check_finite(c)
    c[0] -= 1.0  # c = exp(lam*w) - 1, exactly as subtracting unit_series
    a = _ratio_coeffs(c, n_max)
    if cls == "convex":
        a = a / np.arange(2, n_max + 1)
    return a


def blaschke_schwarz(
    theta: float, zeros: Sequence[complex], n_max: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Schwarz function e^{i*theta} * z * prod_j (a_j - z)/(1 - conj(a_j) z).

    Finite Blaschke products give valid Schwarz functions of arbitrary
    polynomial degree, used to probe coefficient bounds beyond n = 4.
    ``n_max`` must be at least 1, the order of the z term.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    for a in zeros:
        if abs(a) >= 1.0:
            raise ValueError(f"Blaschke zero must satisfy |a| < 1, got |{a}| = {abs(a)}")
    w = np.zeros(n_max + 1, dtype=np.complex128)
    w[1] = cmath.exp(1j * theta)
    num = np.zeros(n_max + 1, dtype=np.complex128)
    num[1] = -1.0
    for a in zeros:
        num[0] = a
        # 1/(1 - conj(a) z) = sum_k conj(a)^k z^k: one product per term, with
        # the bits of reciprocal's forward substitution.
        ca = complex(np.conj(a))
        inv = [1.0 + 0.0j]
        for _ in range(n_max):
            inv.append(ca * inv[-1])
        w = np.convolve(np.convolve(w, num)[: n_max + 1], inv)[: n_max + 1]
    return TruncatedSeries(w)
