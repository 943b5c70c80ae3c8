"""Polynomial root extraction used by the stationarity analysis.

Two solvers live here:

* :func:`cardano_roots` -- the closed-form depressed-cubic construction,
  returning all three complex roots of a cubic.
* :func:`real_roots_in_interval` -- a companion-free real-root finder for
  arbitrary-degree polynomials on a closed interval: dense sign-change
  bracketing plus bisection, with Newton polishing and deflation-driven
  rescans so tangent (even-multiplicity) roots are not missed.  Each scan
  samples the polynomial in one numpy pass and finds its sign changes and
  local minima of |p| with array masks.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import DomainError, LeadingZeroError

# |a1| below this is treated as a vanishing leading coefficient.
LEADING_ZERO_TOL = 1e-300
# Width at which bisection brackets are considered converged.
BRACKET_WIDTH_TOL = 1e-12


def polynomial_value(coeffs: Sequence[float], x: float) -> float:
    """Horner evaluation; coeffs ordered from the leading coefficient down."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _principal_cbrt(z: complex) -> complex:
    if z == 0:
        return 0.0 + 0.0j
    return cmath.exp(cmath.log(z) / 3.0)


def cardano_roots(
    a1: float, a2: float, a3: float, a4: float
) -> tuple[complex, complex, complex]:
    """All three roots of a1 x^3 + a2 x^2 + a3 x + a4 = 0.

    Uses the depressed-cubic substitution x = t - p/3 with p = a2/a1,
    q = a3/a1, r = a4/a1, reducing to t^3 + A t + B = 0 where
    A = (3q - p^2)/3 and B = (2p^3 - 9pq + 27r)/27.  The two cube-root
    branches c+ and c- of -B/2 +- sqrt(B^2/4 + A^3/27) are combined as

        t  = c+ + c-
        t± = -(c+ + c-)/2 ± i sqrt(3) (c+ - c-)/2

    with principal complex roots throughout; c- is recovered from the
    product constraint c+ c- = -A/3 to keep the branches consistent.
    Roots are returned sorted by real part, then imaginary part.
    """
    if abs(a1) < LEADING_ZERO_TOL:
        raise LeadingZeroError(f"leading coefficient {a1!r} is (near) zero")
    p = a2 / a1
    q = a3 / a1
    r = a4 / a1
    big_a = (3.0 * q - p * p) / 3.0
    big_b = (2.0 * p**3 - 9.0 * p * q + 27.0 * r) / 27.0
    disc = cmath.sqrt(0.25 * big_b * big_b + big_a**3 / 27.0)
    c_plus = _principal_cbrt(-0.5 * big_b + disc)
    if abs(c_plus) > 1e-300:
        c_minus = -big_a / (3.0 * c_plus)
    else:
        c_minus = _principal_cbrt(-0.5 * big_b - disc)
    shift = p / 3.0
    s = c_plus + c_minus
    diff = c_plus - c_minus
    roots = [
        s - shift,
        -0.5 * s + 0.5j * math.sqrt(3.0) * diff - shift,
        -0.5 * s - 0.5j * math.sqrt(3.0) * diff - shift,
    ]
    # One Newton step in complex arithmetic sharpens roundoff without
    # changing which construction produced the roots.
    polished = []
    coeffs = (a1, a2, a3, a4)
    for z in roots:
        deriv = 3.0 * a1 * z * z + 2.0 * a2 * z + a3
        if abs(deriv) > 1e-300:
            z = z - polynomial_value(coeffs, z) / deriv
        polished.append(z)
    polished.sort(key=lambda z: (z.real, z.imag))
    return polished[0], polished[1], polished[2]


def _derivative(coeffs: Sequence[float]) -> list[float]:
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _newton_polish(
    coeffs: Sequence[float], x: float, lo: float, hi: float
) -> float:
    deriv = _derivative(coeffs)
    for _ in range(80):
        f = polynomial_value(coeffs, x)
        fp = polynomial_value(deriv, x)
        if fp == 0.0:
            break
        step = f / fp
        x_new = x - step
        if not lo - 1e-9 <= x_new <= hi + 1e-9:
            break
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            x = x_new
            break
        x = x_new
    return min(max(x, lo), hi)


def _bisect(coeffs: Sequence[float], lo: float, hi: float) -> float:
    f_lo = polynomial_value(coeffs, lo)
    while hi - lo > BRACKET_WIDTH_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = polynomial_value(coeffs, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _deflate(coeffs: Sequence[float], root: float) -> list[float]:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out


def real_roots_in_interval(
    coeffs: Sequence[float],
    lo: float = -1.0,
    hi: float = 1.0,
    *,
    samples: int = 2001,
) -> list[float]:
    """Real roots of a polynomial on [lo, hi], ascending, deduplicated.

    The polynomial is sampled densely; every strict sign change is
    bisected down to a 1e-12 bracket and Newton-polished.  Found roots are
    deflated out and the lower-degree remainder is rescanned, which
    recovers tangent roots that produce no sign change.  Every candidate
    must satisfy |p(root)| <= 1e-9 * max|coeff| against the original
    polynomial to be reported.  Raises :class:`DomainError` unless
    ``samples >= 2``, ``lo < hi`` and every coefficient is finite.
    """
    if samples < 2:
        raise DomainError(f"samples must be at least 2; got {samples!r}")
    if not lo < hi:
        raise DomainError(f"need lo < hi; got [{lo!r}, {hi!r}]")
    coeffs = [float(c) for c in coeffs]
    if not all(math.isfinite(c) for c in coeffs):
        raise DomainError(f"coefficients must be finite; got {coeffs!r}")
    while coeffs and coeffs[0] == 0.0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    scale = max(abs(c) for c in coeffs)
    accept_tol = 1e-9 * max(scale, 1e-300)
    step = (hi - lo) / (samples - 1)
    # lo + i*step and np.polyval's Horner steps round exactly as the
    # scalar loop over polynomial_value would.
    xs = lo + np.arange(samples) * step

    def scan(poly: Sequence[float]) -> list[float]:
        with np.errstate(over="ignore"):
            values = np.polyval(poly, xs)  # as silent as float overflow
        mags = np.abs(values)
        # Scaled by the finite samples: an inf one would flag every sample.
        scale = mags[np.isfinite(mags)].max(initial=0.0)
        zero = mags <= 1e-13 * max(scale, 1e-300)
        negative = values < 0.0
        change = np.concatenate(([False], negative[1:] != negative[:-1]))
        found = [
            float(xs[i]) if zero[i]
            else _bisect(poly, float(xs[i - 1]), float(xs[i]))
            for i in np.flatnonzero(zero | change).tolist()
        ]
        # Tangent (even-multiplicity) roots produce no sign change; launch
        # Newton from every interior local minimum of |p| and let the
        # residual acceptance filter discard the non-roots.
        inner = mags[1:-1]
        minima = (inner < mags[:-2]) & (inner <= mags[2:])
        found.extend(xs[1:-1][minima].tolist())
        return found

    roots: list[float] = []
    work = coeffs
    for _ in range(len(coeffs)):  # at most degree deflation rounds
        candidates = scan(work)
        fresh: list[float] = []
        for x in candidates:
            x = _newton_polish(coeffs, x, lo, hi)
            if abs(polynomial_value(coeffs, x)) > accept_tol:
                continue
            if all(abs(x - r) > 1e-8 for r in roots) and all(
                abs(x - r) > 1e-8 for r in fresh
            ):
                fresh.append(x)
        if not fresh:
            break
        roots.extend(fresh)
        for x in fresh:
            if len(work) > 2:
                work = _deflate(work, x)
    return sorted(roots)
