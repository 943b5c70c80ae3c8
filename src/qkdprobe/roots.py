"""Polynomial root extraction used by the stationarity analysis.

One solver lives here, :func:`real_roots_in_interval`: the real roots of
an arbitrary-degree polynomial on a closed, finite interval, from its
derivative chain.  p is monotone between the sign changes of p', so
bisection over those pieces finds every sign change, and any tangent
(even-multiplicity) root is an extremum of p.  Possibility (D)'s two
cubics and its quintic all go through it; its closed-form x* need only
be a root of the quintic.  No sampling; plain floats throughout.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError

# Width at which bisection brackets are considered converged.
BRACKET_WIDTH_TOL = 1e-12


def polynomial_value(coeffs: Sequence[float], x: float) -> float:
    """Horner evaluation; coeffs ordered from the leading coefficient down."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


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


def _is_rounding(coeffs: Sequence[float], x: float) -> bool:
    """Whether p(x) is 0 up to rounding: |p(x)| is at most (n + 1) 2^-52
    sum |c_k x^k|, just above Horner's rounding bound for degree n
    (Higham, eq. 5.3), and that bound is finite."""
    scale = polynomial_value([abs(c) for c in coeffs], abs(x))
    bound = len(coeffs) * 2.0**-52 * scale
    return abs(polynomial_value(coeffs, x)) <= bound < math.inf


def _crossings(
    coeffs: Sequence[float], knots: Sequence[float]
) -> list[float | None]:
    """Per piece between consecutive knots, over which p is monotone, the
    sign change of p there, bisected, or None where p keeps its sign.  An
    inner knot (an extremum of p) where p is 0 up to rounding counts as
    0: a sign change beside it is rounding."""
    values = [polynomial_value(coeffs, x) for x in knots]
    for i in range(1, len(knots) - 1):
        if _is_rounding(coeffs, knots[i]):
            values[i] = 0.0
    return [
        _bisect(coeffs, a, b) if f_a < 0.0 < f_b or f_b < 0.0 < f_a else None
        for a, b, f_a, f_b in zip(knots, knots[1:], values, values[1:])
    ]


def _sign_changes(
    coeffs: Sequence[float], lo: float, hi: float
) -> list[float]:
    """The roots in [lo, hi] where p changes sign, ascending; a linear p
    is solved directly."""
    if len(coeffs) == 2:
        x = -coeffs[1] / coeffs[0]
        return [x] if lo <= x <= hi else []
    knots = [lo, *_sign_changes(_derivative(coeffs), lo, hi), hi]
    return [x for x in _crossings(coeffs, knots) if x is not None]


def real_roots_in_interval(
    coeffs: Sequence[float], lo: float = -1.0, hi: float = 1.0
) -> list[float]:
    """Real roots of a polynomial on [lo, hi], ascending, deduplicated.

    The extrema of p, the sign changes of p' found by
    :func:`_sign_changes`, split [lo, hi] into pieces over which p is
    monotone, and each sign change of p in a piece is bisected down to a
    1e-12 bracket and Newton-polished.  The candidates are these roots,
    each extremum where p changes sign on neither side (a possible
    tangent root, not polished: Newton's method would only wander where
    p is rounding), and the polish from each end where p is 0 up to
    rounding.  A candidate is reported if |p(x)| <= 1e-9 * max|coeff| and
    it lies more than 1e-8 from every root already taken.  Raises
    :class:`DomainError` unless ``lo < hi``, both are finite (an infinite
    end has no value to bisect from) and every coefficient is finite.
    """
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"need finite lo < hi; got [{lo!r}, {hi!r}]")
    coeffs = [float(c) for c in coeffs]
    if not all(math.isfinite(c) for c in coeffs):
        raise DomainError(f"coefficients must be finite; got {coeffs!r}")
    while coeffs and coeffs[0] == 0.0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    accept_tol = 1e-9 * max(max(abs(c) for c in coeffs), 1e-300)
    extrema = (
        _sign_changes(_derivative(coeffs), lo, hi) if len(coeffs) > 2 else []
    )
    crossings = _crossings(coeffs, [lo, *extrema, hi])
    ends = [x for x in (lo, hi) if _is_rounding(coeffs, x)]
    candidates = [
        _newton_polish(coeffs, x, lo, hi)
        for x in [*crossings, *ends]
        if x is not None
    ] + [
        x
        for x, left, right in zip(extrema, crossings, crossings[1:])
        if left is None and right is None
    ]
    roots: list[float] = []
    for x in candidates:
        if abs(polynomial_value(coeffs, x)) <= accept_tol and all(
            abs(x - r) > 1e-8 for r in roots
        ):
            roots.append(x)
    return sorted(roots)
