"""Closed-form observables of the entangling probe.

The most general unitary individual attack on the four-state protocol is
parameterized by four probe angles (lambda, mu, theta, phi).  All
observables flow through a derived coefficient quadruple (a, b, c, d):

    a = sin^2(lam) sin(2 mu) + cos^2(lam) cos(2 theta) sin(2 phi)
    b = sin^2(lam) sin(2 mu) + cos^2(lam) sin(2 phi)
    c = cos^2(lam) sin(2 theta) cos(2 phi)
    d = sin^2(lam) + cos^2(lam) cos(2 theta)

together with the signal geometry: the basis half-angle alpha in
(0, pi/4), where the angle between the two nonorthogonal signal states is
pi/2 - 2*alpha.  From (a, b, c, d; alpha) the module evaluates the four
detection probabilities, the induced receiver error rate E, the overlap Q
of the correlated probe states, and the Renyi information gain
log2(2 - Q^2).  E, the overlap numerator and the overlap radicand share
one body over (a, b, c, d, sin^2 2a), :func:`_observables`, which the
public functions and the stationarity bracket read, and so does
:func:`_angle_point`, the one guarded (Q, E) at four angles that the
penalty objective, the corner points and the constant-E overlap call.

At float angles E is also written as E = cos^2(lam) P + sin^2(lam) M
(:func:`_lam_terms`), P a function of (theta, phi) and M = sin^2(2a)
sin^2(pi/4 - mu), each a sum of non-negative terms, with one body,
:func:`_lam_error_rate`.  Every solve at fixed E reads that form:
:func:`mu_from_constraint`, the one mu solve, solves u = sin^2(pi/4 - mu)
= M / sin^2(2a), and :func:`_minima`, the one kernel of the brute-force
scan, its restarts and its simplex polish, minimizes Q over (lam, mu) at
fixed (theta, phi) in closed form over a whole list of nodes, with
Q = inf where no (lam, mu) meets E (:func:`_node_minimum` is its one-node
call); :func:`_terms_point` gives the float angles of that minimum and E
at them.  With x = cos^2(lam) and u eliminated, Q is (A + B x) /
sqrt(R0 - C x^2) on an interval of x, so its minimum lies at an end of
that interval or at one stationary point; where E <= sin^2(2a) every
interval starts at x = 0, where Q is the same at every node.  The module
runs on ``math`` alone; nothing in the package imports numpy.

Everything in this module is a pure function of immutable value types and
is safe for unrestricted concurrent use.  The value types of every module
are made by :func:`value_type`, with :func:`asdict` and :func:`replace`,
in place of ``dataclass(frozen=True)``: it builds the same methods as
plain closures, so a CLI call imports neither the dataclass module nor
``inspect`` and runs no ``exec`` per class, ~30 ms of start-up saved.
"""

from __future__ import annotations

import math
import numbers
import sys
from functools import cached_property
from typing import Any, TypeVar

from .errors import (
    DegenerateModelError,
    DomainError,
    InfeasibleConstraintError,
    SingularLambdaError,
)

# Tolerance for exact-identity checks (row sums, probability ranges).
IDENTITY_TOL = 1e-12
# Guard below which sin(lambda) is treated as zero in the solve for mu.
SINGULAR_SIN_LAMBDA = 1e-12
# Roundoff slack allowed when clamping a solved square of a sine or cosine,
# u = sin^2(pi/4 - mu) or the upper-branch optimum's cos^2(lam), to [0, 1].
ARCSINE_CLAMP_TOL = 1e-10
# pi/4 - float(pi/4); 3 times it is 3pi/4 - float(3pi/4).  Added to a
# float difference, exact where small, it keeps a tiny sine precise.
_QUARTER_PI_TAIL = 3.061616997868383e-17

_T = TypeVar("_T")


def value_type(cls: type[_T]) -> type[_T]:
    """Make cls an immutable record of its annotated fields.

    What ``dataclass(frozen=True)`` gives, built from closures: an
    ``__init__`` taking the fields positionally or by keyword in
    annotation order (a class attribute is the field's default) that
    calls ``__post_init__`` if the class has one; ``__eq__`` by exact
    class and field tuple; ``__hash__`` of the field tuple; the dataclass
    ``repr``; and ``__setattr__``/``__delattr__`` that raise
    AttributeError.  Instances keep a ``__dict__``, so ``cached_property``
    works.  It exists for start-up time: the standard library's
    ``dataclass`` imports ``inspect`` and ``ast`` (~10 ms) and ``exec``s
    six methods per class (~1.2 ms each), on every CLI call.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {
        name: cls.__dict__[name] for name in names if name in cls.__dict__
    }
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(names)} positional "
                f"arguments but {len(args)} were given"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(
                    f"{cls.__qualname__}() got an unexpected keyword "
                    f"argument {name!r}"
                )
            if name in values:
                raise TypeError(
                    f"{cls.__qualname__}() got multiple values for "
                    f"argument {name!r}"
                )
            values[name] = value
        missing = [n for n in names if n not in values and n not in defaults]
        if missing:
            raise TypeError(
                f"{cls.__qualname__}() missing required arguments: "
                + ", ".join(map(repr, missing))
            )
        state = self.__dict__
        state.update(defaults)
        state.update(values)
        if post_init is not None:
            post_init(self)

    def __eq__(self: Any, other: object) -> Any:
        if other.__class__ is self.__class__:
            return _field_values(self) == _field_values(other)
        return NotImplemented

    def __hash__(self: Any) -> int:
        return hash(_field_values(self))

    def __repr__(self: Any) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self: Any, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self: Any, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (
        __init__, __eq__, __hash__, __repr__, __setattr__, __delattr__
    ):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._field_names = names
    return cls


def _field_values(value: Any) -> tuple:
    return tuple([getattr(value, name) for name in value._field_names])


def asdict(value: Any) -> dict[str, Any]:
    """The fields of a value-type instance by name, nested value types as
    dicts, as the standard library's ``asdict`` gives them."""
    return {
        name: asdict(field) if hasattr(type(field), "_field_names") else field
        for name, field in zip(value._field_names, _field_values(value))
    }


def replace(value: _T, **changes: Any) -> _T:
    """A copy of a value-type instance with some fields changed, validated
    again, as by the standard library's ``replace``."""
    fields = dict(zip(value._field_names, _field_values(value)))
    return type(value)(**{**fields, **changes})


@value_type
class SignalGeometry:
    """Signal-basis geometry: the half-angle alpha in radians.

    alpha must lie in the open interval (0, pi/4), with sin^2(2 alpha)
    and cos^2(2 alpha) above 2 / float max (alpha >~ 5.3e-155), so that
    the optimum's branch formula stays finite.  The derived angle
    between the two nonorthogonal signal polarization states is
    theta_bar = pi/2 - 2*alpha; alpha = pi/8 is the standard protocol with
    45 degrees between the bases.  The derived angles are computed once
    per instance; equality, hashing and repr see only alpha.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.pi / 4:
            raise DomainError(
                f"alpha must lie in (0, pi/4); got {self.alpha!r}"
            )
        # The optimum's branch formula divides 2 by one of these.
        two_alpha = 2.0 * self.alpha
        if min(math.sin(two_alpha) ** 2, math.cos(two_alpha) ** 2) <= (
            2.0 / sys.float_info.max
        ):
            raise DomainError(
                f"alpha = {self.alpha!r} lies too close to 0 or pi/4: "
                "2 / sin^2(2 alpha) or 2 / cos^2(2 alpha) is not finite"
            )

    @cached_property
    def theta_bar(self) -> float:
        """Angle between the nonorthogonal signal states, in (0, pi/2)."""
        return math.pi / 2 - 2.0 * self.alpha

    @cached_property
    def sin_two_alpha(self) -> float:
        return math.sin(2.0 * self.alpha)

    @cached_property
    def sin_sq_two_alpha(self) -> float:
        """sin^2(2a): from alpha = pi/12 on, where cos(4a) <= 1/2,
        (1 - cos 4a) / 2, within ~0.75 ulp where the squared sine is off
        by up to ~1.8 ulp (at pi/8 the float nearest 1/2 - 3.1e-17, where
        the squared sine is 8e-17 low); the squared sine below."""
        if self.alpha >= math.pi / 12:
            return 0.5 * (1.0 - math.cos(4.0 * self.alpha))
        return math.sin(2.0 * self.alpha) ** 2

    @cached_property
    def cos_sq_two_alpha(self) -> float:
        """cos^2(2a): (1 + cos 4a) / 2 up to alpha = pi/6, where cos(4a)
        >= -1/2, as for :attr:`sin_sq_two_alpha`; the squared cosine
        above."""
        if self.alpha <= math.pi / 6:
            return 0.5 * (1.0 + math.cos(4.0 * self.alpha))
        return math.cos(2.0 * self.alpha) ** 2


@value_type
class ProbeParams:
    """The four probe angles, each confined to [0, pi].

    All observables are pi-periodic in each angle, so the closed range
    [0, pi] covers every distinct attack.
    """

    lam: float
    mu: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "theta", "phi"):
            value = getattr(self, name)
            if not -IDENTITY_TOL <= value <= math.pi + IDENTITY_TOL:
                raise DomainError(
                    f"probe angle {name} must lie in [0, pi]; got {value!r}"
                )


@value_type
class ProbeCoefficients:
    """Derived quadruple (a, b, c, d); each lies in [-1, 1]."""

    a: float
    b: float
    c: float
    d: float


@value_type
class DetectionProbabilities:
    """Conditional detection probabilities P(detected | sent).

    p_uu + p_u_ubar = 1 and p_ubar_u + p_ubar_ubar = 1: the off-diagonal
    entries are the conditional error probabilities for the two sent
    states.
    """

    p_uu: float
    p_u_ubar: float
    p_ubar_u: float
    p_ubar_ubar: float


@value_type
class AttackEvaluation:
    """Error rate E, probe-state overlap Q, and Renyi information gain."""

    error_rate: float
    overlap: float
    renyi_info: float


def check_error_rate(target_error: float) -> None:
    """Raise DomainError unless the error rate lies in [0, 1/2)."""
    if not 0.0 <= target_error < 0.5:
        raise DomainError(
            f"error rate must lie in [0, 1/2); got {target_error!r}"
        )


def check_integers(owner: object, *names: str) -> None:
    """Raise DomainError unless each named attribute of owner is an
    integer, a Python or numpy one; a float is refused even when whole."""
    for name in names:
        check_integer(name, getattr(owner, name))


def check_integer(name: str, value: object) -> None:
    """Raise DomainError unless value is a Python or numpy integer."""
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer; got {value!r}")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 1 evenly spaced floats from start to stop, bit for bit
    ``np.linspace(start, stop, num)``: the i-th is i * step + start, and
    the last is stop itself."""
    start, stop = float(start), float(stop)
    delta = stop - start
    div = num - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0.0:
        # numpy's branch for a step that underflows: scale i / div instead.
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _angle_quadruple(
    lam: float, sin_two_mu: float, theta: float, phi: float
) -> tuple[float, float, float, float]:
    """(a, b, c, d) at float lam, theta and phi and a given sin(2 mu), which
    may leave [-1, 1]; with ``math`` trig."""
    sin_lam = math.sin(lam)
    cos_lam = math.cos(lam)
    sin_sq_lam = sin_lam * sin_lam
    cos_sq_lam = cos_lam * cos_lam
    sin_two_phi = math.sin(2.0 * phi)
    cos_sq_lam_cos_two_theta = cos_sq_lam * math.cos(2.0 * theta)
    sin_sq_lam_sin_two_mu = sin_sq_lam * sin_two_mu
    return (
        sin_sq_lam_sin_two_mu + cos_sq_lam_cos_two_theta * sin_two_phi,
        sin_sq_lam_sin_two_mu + cos_sq_lam * sin_two_phi,
        cos_sq_lam * math.sin(2.0 * theta) * math.cos(2.0 * phi),
        sin_sq_lam + cos_sq_lam_cos_two_theta,
    )


def coefficients(params: ProbeParams) -> ProbeCoefficients:
    """Evaluate the coefficient quadruple (a, b, c, d) at a probe setting."""
    sin_two_mu = math.sin(2.0 * params.mu)
    return ProbeCoefficients(
        *_angle_quadruple(params.lam, sin_two_mu, params.theta, params.phi)
    )


def detection_probabilities(
    coeffs: ProbeCoefficients, geom: SignalGeometry
) -> DetectionProbabilities:
    """The four conditional detection probabilities.

    Raises DegenerateModelError if any entry leaves [0, 1] beyond
    tolerance, which signals coefficients not realizable by any probe
    setting.
    """
    s2 = geom.sin_sq_two_alpha
    s1 = geom.sin_two_alpha
    a, c, d = coeffs.a, coeffs.c, coeffs.d
    half_disturb = 0.5 * (d - a) * s2
    half_skew = 0.5 * c * s1
    probs = DetectionProbabilities(
        p_uu=0.5 * (1.0 + d) - half_disturb + half_skew,
        p_u_ubar=0.5 * (1.0 - d) + half_disturb - half_skew,
        p_ubar_u=0.5 * (1.0 - d) + half_disturb + half_skew,
        p_ubar_ubar=0.5 * (1.0 + d) - half_disturb - half_skew,
    )
    for name in ("p_uu", "p_u_ubar", "p_ubar_u", "p_ubar_ubar"):
        p = getattr(probs, name)
        if not -IDENTITY_TOL <= p <= 1.0 + IDENTITY_TOL:
            raise DegenerateModelError(
                f"{name} = {p!r} outside [0, 1]; coefficients {coeffs} are "
                "not realizable by any probe setting"
            )
    return probs


def _observables(a, b, c, d, s2):
    """(E, overlap numerator, overlap radicand) from (a, b, c, d) and
    s2 = sin^2(2a).

    The one body of the error-rate and overlap formulas: the overlap is
    numerator / sqrt(radicand) where the radicand is positive.  E, the
    numerator and the half-sum 1 - E share t = (d - a) s2; each equals
    the expanded form bit for bit, since halving is exact.  The radicand
    is half_sum^2 - c^2 s2 / 4.
    """
    t = (d - a) * s2
    half_sum = 0.5 * ((1.0 + d) - t)
    radicand = half_sum * half_sum - 0.25 * c * c * s2
    numerator = 0.5 * (a + b) + 0.5 * t
    error = 0.5 * ((1.0 - d) + t)
    return error, numerator, radicand


def _angle_point(lam, sin_two_mu, theta, phi, s2):
    """(Q, E) by :func:`_observables` at float lam, theta, phi, s2 = sin^2 2a
    and a sin(2 mu) that may leave [-1, 1]; Q is None where D^2 <= 0."""
    error, numerator, radicand = _observables(
        *_angle_quadruple(lam, sin_two_mu, theta, phi), s2
    )
    if radicand <= 0.0:
        return None, error
    return numerator / math.sqrt(radicand), error


def error_rate(coeffs: ProbeCoefficients, geom: SignalGeometry) -> float:
    """Induced receiver error rate E = (1 - d + (d - a) sin^2 2a) / 2."""
    return _observables(
        coeffs.a, coeffs.b, coeffs.c, coeffs.d, geom.sin_sq_two_alpha
    )[0]


def _theta_terms(theta: float) -> tuple[float, float]:
    """(sin^2 theta, cos^2 theta)."""
    sin_theta = math.sin(theta)
    cos_theta = math.cos(theta)
    return sin_theta * sin_theta, cos_theta * cos_theta


def _phi_terms(phi: float) -> tuple[float, float]:
    """(sin^2(3pi/4 - phi), sin^2(pi/4 - phi)), that is (1 + sin 2phi)/2
    and (1 - sin 2phi)/2, each kept to its relative precision near 0."""
    quarter, tail = 0.25 * math.pi, _QUARTER_PI_TAIL
    plus = math.sin(3.0 * quarter - phi + 3.0 * tail)
    minus = math.sin(quarter - phi + tail)
    return plus * plus, minus * minus


def _p_term(sin_sq_theta, cos_sq_theta, plus, minus, geom):
    """P of :func:`_lam_terms` from the :func:`_theta_terms` and
    :func:`_phi_terms`: E at cos^2(lam) = 1."""
    return sin_sq_theta * geom.cos_sq_two_alpha + geom.sin_sq_two_alpha * (
        sin_sq_theta * plus + cos_sq_theta * minus
    )


def _lam_terms(mu, theta, phi, geom):
    """(P, M) with E = cos^2(lam) P + sin^2(lam) M at float angles: sums
    of non-negative terms, which keep the relative precision
    :func:`error_rate` loses near E = 0.  E = [(1 - d) cos^2 2a + (1 - a)
    sin^2 2a] / 2, 1 - d = 2 cos^2(lam) sin^2(theta), 1 - a = 2 sin^2(lam)
    sin^2(pi/4 - mu) + 2 cos^2(lam) [sin^2(theta) sin^2(3pi/4 - phi) +
    cos^2(theta) sin^2(pi/4 - phi)], so M = sin^2(2a) sin^2(pi/4 - mu)."""
    p = _p_term(*_theta_terms(theta), *_phi_terms(phi), geom)
    return p, _m_term(mu, geom)


def _m_term(mu, geom):
    """M of :func:`_lam_terms`: sin^2(2a) sin^2(pi/4 - mu)."""
    m = math.sin(0.25 * math.pi - mu + _QUARTER_PI_TAIL)
    return geom.sin_sq_two_alpha * (m * m)


def _lam_error_rate(lam, p, m):
    """E = cos^2(lam) P + sin^2(lam) M at a float lam: the one body of E
    at float angles, read by :func:`_angle_error_rate` and the scan."""
    return math.cos(lam) ** 2 * p + math.sin(lam) ** 2 * m


def _angle_error_rate(lam, mu, theta, phi, geom):
    """E at four float angles, to a few ulps also near E = 0."""
    return _lam_error_rate(lam, *_lam_terms(mu, theta, phi, geom))


def overlap(coeffs: ProbeCoefficients, geom: SignalGeometry) -> float:
    """Overlap Q of the probe states correlated with the receiver outcomes.

    Q = [ (a + b)/2 + (d - a) sin^2(2a) / 2 ] /
        sqrt( [(1 + d + (a - d) sin^2(2a)) / 2]^2 - c^2 sin^2(2a) / 4 )

    Raises DegenerateModelError when the radicand is non-positive (error
    rate approaching one, or unphysical coefficients).
    """
    _, numerator, radicand = _observables(
        coeffs.a, coeffs.b, coeffs.c, coeffs.d, geom.sin_sq_two_alpha
    )
    if radicand <= 0.0:
        raise DegenerateModelError(
            f"overlap denominator radicand {radicand!r} is non-positive"
        )
    return numerator / math.sqrt(radicand)


def q_value(coeffs: ProbeCoefficients) -> float:
    """The combination q = a + b + d through which the overlap is expressed."""
    return coeffs.a + coeffs.b + coeffs.d


def _lam_from_cos_sq(cos_sq: float, sign: float, slack: float) -> float | None:
    """lam in [0, pi] with cos^2(lam) = cos_sq clamped to [0, 1], and
    cos(lam) of the sign of ``sign``; None beyond slack of [0, 1]."""
    if not -slack <= cos_sq <= 1.0 + slack:
        return None
    cos_lam = math.sqrt(min(1.0, max(0.0, cos_sq)))
    return math.acos(math.copysign(cos_lam, sign))


def _solve_u(lam, theta, phi, target_error, geom):
    """u = sin^2(pi/4 - mu) = (E - cos^2(lam) P) / (sin^2(2a) sin^2(lam))
    that meets the target error rate at float (lam, theta, phi), with P of
    :func:`_lam_terms`; sin(2 mu) = 1 - 2u.  Unclipped.  Raises
    SingularLambdaError where sin(lam) ~ 0: mu drops out, u is 0/0."""
    sin_lam = math.sin(lam)
    if abs(sin_lam) <= SINGULAR_SIN_LAMBDA:
        raise SingularLambdaError(
            f"sin(lam) = {sin_lam!r} ~ 0: mu has no effect on any observable"
        )
    cos_lam = math.cos(lam)
    p = _p_term(*_theta_terms(theta), *_phi_terms(phi), geom)
    return (target_error - cos_lam * cos_lam * p) / (
        geom.sin_sq_two_alpha * (sin_lam * sin_lam)
    )


def _mu_from_u(u: float) -> float | None:
    """mu = pi/4 - asin(sqrt(u)) folded into [0, pi): the solution of
    sin^2(pi/4 - mu) = u with cos(2 mu) >= 0.  u is clamped to [0, 1];
    None beyond ARCSINE_CLAMP_TOL of that range."""
    if not -ARCSINE_CLAMP_TOL <= u <= 1.0 + ARCSINE_CLAMP_TOL:
        return None
    arc = math.asin(math.sqrt(min(1.0, max(0.0, u))))
    # pi/4 - arc, adding back the tail that float pi/4 drops: it matters
    # where arc, and with it u, is tiny.
    mu = 0.25 * math.pi - (arc - _QUARTER_PI_TAIL)
    return mu if mu >= 0.0 else mu + math.pi


def mu_from_constraint(
    lam: float,
    theta: float,
    phi: float,
    target_error: float,
    geom: SignalGeometry,
) -> float:
    """Solve for mu so the probe induces the target error rate.

    With E = cos^2(lam) P + sin^2(lam) M (:func:`_lam_terms`) and
    M = sin^2(2a) sin^2(pi/4 - mu), the constraint fixes

        u = sin^2(pi/4 - mu) = (E - cos^2(lam) P) / (sin^2(2a) sin^2(lam)),

    a ratio of sums of non-negative terms, so no O(1) terms cancel near
    E = 0 or alpha = pi/4; sin(2 mu) = 1 - 2u.  Of the two solutions in
    [0, pi], which share sin(2 mu) and with it every observable, this
    returns the one with cos(2 mu) >= 0, mu = pi/4 - asin(sqrt(u)).

    Raises:
        SingularLambdaError: sin(lam) ~ 0, so mu is unobservable.
        InfeasibleConstraintError: no mu achieves the target error rate at
            this (lambda, theta, phi): u leaves [0, 1] by more than
            ARCSINE_CLAMP_TOL.
        DomainError: target error rate outside [0, 1/2).
    """
    check_error_rate(target_error)
    u = _solve_u(lam, theta, phi, target_error, geom)
    mu = _mu_from_u(u)
    if mu is None:
        raise InfeasibleConstraintError(
            f"sin^2(pi/4 - mu) would need to be {u!r}; no mu achieves error "
            f"rate {target_error!r} at this (lam, theta, phi)"
        )
    return mu


def _node_minimum(theta, phi, target_error, geom):
    """(Q, x): the least overlap over lam and mu at float (theta, phi) and
    the target error rate, and the x = cos^2(lam) that attains it; None
    where no (lam, mu) meets the target.  A one-node :func:`_minima`."""
    qs, xs = _minima(
        [_theta_terms(theta)], [_phi_terms(phi)], target_error, geom
    )
    return None if qs[0] == math.inf else (qs[0], xs[0])


def _minima(theta_terms, phi_terms, target, geom):
    """(qs, xs): the least overlap over (lam, mu) at the target error rate
    and the x = cos^2(lam) that attains it, at each node of two parallel
    lists, the :func:`_theta_terms` and :func:`_phi_terms` of (theta,
    phi).  The one kernel of the scan, its restarts, :func:`refine`'s
    simplex and the penalty polish; a node where no (lam, mu) meets the
    target has Q = inf, and its x means nothing.

    With x = cos^2(lam), E = x P + (1 - x) M and M = s2 u, s2 = sin^2(2a),
    u = sin^2(pi/4 - mu) in [0, 1].  Eliminating u leaves Q a function of
    x alone, Q = (A + B x) / sqrt(R0 - C x^2), where

        A = 1 + E - 2E/s2,   B = 2 sin^2(theta) (cot^2(2a) - minus),
        R0 = (1 - E)^2,      C = 4 s2 sin^2(theta) cos^2(theta) plus minus,

    (C x^2 = c^2 s2 / 4 and A + B x the overlap numerator), on the x where
    u lies in [0, 1]: x P <= E and x (s2 - P) <= s2 - E, with x in
    [0, 1].  That interval's ends are the faces sin(2 mu) = +-1, lam =
    pi/2 and the sin(lam) = 0 plane.  dQ/dx has the sign of B R0 + A C x,
    so the minimum lies at an end or at x* = -B R0 / (A C) when A C > 0;
    of equal candidates the first of (lo, hi, x*) counts.  Each is
    evaluated as [(1 + E) - x K - 2w] / sqrt(R0 - C x^2) with K = 2
    [sin^2(theta) + cos^2(theta) minus] and w = (1 - x) u = (E - x P) / s2
    clamped to [0, 1 - x]: the overlap at the x and u of the candidate,
    also where rounding leaves E - x P off by more than s2.  As
    :func:`renyi_info` does, a Q below -1 by at most IDENTITY_TOL,
    rounding, is held at -1, and a lower Q is returned as it is.

    s2, cot^2(2a), A, R0 and 1 + E depend on alpha and E alone and are
    worked out once per call, and so is the overlap at x = 0,
    [(1 + E) - 2E/s2] / sqrt(R0): where E <= s2 the interval starts at 0,
    w there is E/s2 whatever P, and each node with lo = 0 reads that one
    value.  Per node only P, the interval, C, K and the other candidates
    are left; each value equals the per-node evaluation bit for bit.

    Raises DegenerateModelError where P is NaN and E <= s2, which only NaN
    or infinite inputs give: there the overlap would be NaN.
    """
    s2 = geom.sin_sq_two_alpha
    cos_sq = geom.cos_sq_two_alpha
    cot_sq = cos_sq / s2
    four_s2 = 4.0 * s2
    one_plus = 1.0 + target
    big_a = 1.0 + target - 2.0 * target / s2
    r0 = (1.0 - target) * (1.0 - target)
    above = target > s2
    q_zero = math.inf
    if r0 > 0.0 and not above:
        q_zero = (one_plus - 2.0 * (target / s2)) / math.sqrt(r0)
    root = math.sqrt
    inf, nan = math.inf, math.nan
    # Each candidate's overlap is written out in place: a loop over a
    # tuple of candidates made the kernel ~18 % slower.
    qs: list[float] = []
    xs: list[float] = []
    for (sin_sq_theta, cos_sq_theta), (plus, minus) in zip(
        theta_terms, phi_terms
    ):
        p = sin_sq_theta * cos_sq + s2 * (
            sin_sq_theta * plus + cos_sq_theta * minus
        )
        hi = 1.0
        if target < p:
            hi = target / p
        c = four_s2 * sin_sq_theta * cos_sq_theta * plus * minus
        k = 2.0 * (sin_sq_theta + cos_sq_theta * minus)
        if above:
            # Only a node with P > s2 meets E > s2, from x = lo > 0 on.
            lo = (target - s2) / (p - s2) if p > s2 else inf
            if lo > hi:
                qs.append(inf)
                xs.append(nan)
                continue
            best_q = inf
            radicand = r0 - c * lo * lo
            if radicand > 0.0:
                w = (target - lo * p) / s2
                if w < 0.0:
                    w = 0.0
                elif w > 1.0 - lo:
                    w = 1.0 - lo
                best_q = (one_plus - lo * k - 2.0 * w) / root(radicand)
        else:
            if p < s2:
                edge = (s2 - target) / (s2 - p)
                if edge < hi:
                    hi = edge
            elif p != p:
                raise DegenerateModelError(
                    f"overlap is NaN at sin^2(theta) = {sin_sq_theta!r}, "
                    f"(1 + sin 2phi)/2 = {plus!r}, E = {target!r}"
                )
            lo = 0.0
            best_q = q_zero
        best_x = lo
        radicand = r0 - c * hi * hi
        if radicand > 0.0:
            w = (target - hi * p) / s2
            if w < 0.0:
                w = 0.0
            elif w > 1.0 - hi:
                w = 1.0 - hi
            q = (one_plus - hi * k - 2.0 * w) / root(radicand)
            if q < best_q:
                best_q, best_x = q, hi
        ac = big_a * c
        if ac > 0.0:
            x = -(2.0 * sin_sq_theta * (cot_sq - minus)) * r0 / ac
            if lo < x < hi:
                radicand = r0 - c * x * x
                if radicand > 0.0:
                    w = (target - x * p) / s2
                    if w < 0.0:
                        w = 0.0
                    elif w > 1.0 - x:
                        w = 1.0 - x
                    q = (one_plus - x * k - 2.0 * w) / root(radicand)
                    if q < best_q:
                        best_q, best_x = q, x
        if best_q < -1.0 and best_q >= -1.0 - IDENTITY_TOL:
            best_q = -1.0
        qs.append(best_q)
        xs.append(best_x)
    return qs, xs


def _node_point(theta, phi, x, target_error, geom):
    """(lam, mu, E) at float (theta, phi) and an x = cos^2(lam) of
    :func:`_node_minimum`; see :func:`_terms_point`."""
    p = _p_term(*_theta_terms(theta), *_phi_terms(phi), geom)
    return _terms_point(p, x, target_error, geom)


def _terms_point(p, x, target_error, geom):
    """(lam, mu, E) at the P of :func:`_lam_terms` of a node and an x =
    cos^2(lam) of :func:`_minima`: lam = acos(sqrt(x)) in [0, pi/2], mu
    from u = (E - x P) / ((1 - x) s2) clamped to [0, 1], pi/4 at x = 1,
    and E at those float angles, which may leave the target where one ulp
    of lam or mu moves E by more than it."""
    u = 0.0
    if x < 1.0:
        u = (target_error - x * p) / ((1.0 - x) * geom.sin_sq_two_alpha)
        u = min(1.0, max(0.0, u))
    lam = math.acos(math.sqrt(x))
    mu = _mu_from_u(u)
    return lam, mu, _lam_error_rate(lam, p, _m_term(mu, geom))


def renyi_info(q_overlap: float) -> float:
    """Renyi information gain, in bits, for a given overlap: log2(2 - Q^2).

    Raises DomainError for |Q| > 1 beyond tolerance or a NaN overlap; an
    overlap just past +-1 within tolerance gives 0.
    """
    if not abs(q_overlap) <= 1.0 + IDENTITY_TOL:
        raise DomainError(f"|overlap| must not exceed 1; got {q_overlap!r}")
    q_clamped = max(-1.0, min(1.0, q_overlap))
    return math.log2(2.0 - q_clamped * q_clamped)


def evaluate(params: ProbeParams, geom: SignalGeometry) -> AttackEvaluation:
    """Full evaluation of one probe setting: (E, Q, Renyi bits)."""
    coeffs = coefficients(params)
    q = overlap(coeffs, geom)
    return AttackEvaluation(
        error_rate=error_rate(coeffs, geom),
        overlap=q,
        renyi_info=renyi_info(q),
    )
