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
log2(2 - Q^2).  Each formula is written once over floats or numpy
arrays: the scalar functions feed it ``math`` values, and
:func:`constrained_observables` feeds it arrays for whole scans.  E, the
overlap numerator and the overlap radicand share one body over
(a, b, c, d, sin^2 2a), which the simplex objectives in ``search`` also
call on plain floats.  The bodies share their common subterms: (d - a)
sin^2 2a between E, the numerator and the radicand, sin^2(lam) sin(2 mu)
between a and b, and d and cos^2(lam) cos(2 theta) sin(2 phi) between the
coefficients and the constraint on sin(2 mu).  The array form returns
sin(2 mu) rather than mu, so a scan pays for the arcsine (:func:`fold_mu`)
only on the nodes it reports.  Only those array kernels
(:func:`constrained_observables` and the scan bodies behind it, and
:func:`fold_mu`) import numpy, when first called; the scalar functions
run on ``math`` alone, so a caller that needs no arrays never loads it.

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
from typing import TYPE_CHECKING, Any, TypeVar

from .errors import (
    DegenerateModelError,
    DomainError,
    InfeasibleConstraintError,
    SingularLambdaError,
)

if TYPE_CHECKING:
    import numpy as np

# Tolerance for exact-identity checks (row sums, probability ranges).
IDENTITY_TOL = 1e-12
# Guard below which sin(lambda) is treated as zero in mu_from_constraint.
SINGULAR_SIN_LAMBDA = 1e-12
# Roundoff slack allowed when clamping an arcsine argument to [-1, 1].
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
        return math.sin(2.0 * self.alpha) ** 2

    @cached_property
    def cos_sq_two_alpha(self) -> float:
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


def _shared_terms(sin_sq_lam, cos_sq_lam, cos_two_theta, sin_two_phi):
    """(d, cross_term) from the trig factors; floats or arrays.

    cross_term = cos^2(lam) cos(2 theta) sin(2 phi) enters both a and the
    constraint on sin(2 mu), and d enters the constraint whole, so each is
    worked out once per point.
    """
    cos_sq_lam_cos_two_theta = cos_sq_lam * cos_two_theta
    return (
        sin_sq_lam + cos_sq_lam_cos_two_theta,
        cos_sq_lam_cos_two_theta * sin_two_phi,
    )


def _quadruple(
    sin_sq_lam,
    cos_sq_lam,
    sin_two_mu,
    sin_two_theta,
    sin_two_phi,
    cos_two_phi,
    d,
    cross_term,
):
    """(a, b, c, d) from the trig factors and :func:`_shared_terms`; floats
    or arrays."""
    sin_sq_lam_sin_two_mu = sin_sq_lam * sin_two_mu
    return (
        sin_sq_lam_sin_two_mu + cross_term,
        sin_sq_lam_sin_two_mu + cos_sq_lam * sin_two_phi,
        cos_sq_lam * sin_two_theta * cos_two_phi,
        d,
    )


def _angle_quadruple(
    lam: float, mu: float, theta: float, phi: float
) -> tuple[float, float, float, float]:
    """(a, b, c, d) at four float angles, with ``math`` trig."""
    return _sin_mu_quadruple(lam, math.sin(2.0 * mu), theta, phi)


def _sin_mu_quadruple(
    lam: float, sin_two_mu: float, theta: float, phi: float
) -> tuple[float, float, float, float]:
    """(a, b, c, d) at float lam, theta and phi and a given sin(2 mu), which
    may leave [-1, 1]; with ``math`` trig."""
    # Square as x * x, like mu_from_constraint: pow(x, 2) can differ from
    # it in the last place, and the two routes must agree bit for bit.
    sin_lam = math.sin(lam)
    cos_lam = math.cos(lam)
    sin_sq_lam = sin_lam * sin_lam
    cos_sq_lam = cos_lam * cos_lam
    sin_two_phi = math.sin(2.0 * phi)
    return _quadruple(
        sin_sq_lam,
        cos_sq_lam,
        sin_two_mu,
        math.sin(2.0 * theta),
        sin_two_phi,
        math.cos(2.0 * phi),
        *_shared_terms(
            sin_sq_lam, cos_sq_lam, math.cos(2.0 * theta), sin_two_phi
        ),
    )


def coefficients(params: ProbeParams) -> ProbeCoefficients:
    """Evaluate the coefficient quadruple (a, b, c, d) at a probe setting."""
    return ProbeCoefficients(
        *_angle_quadruple(params.lam, params.mu, params.theta, params.phi)
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
    s2 = sin^2(2a); floats or arrays.

    The one body of the error-rate and overlap formulas: the overlap is
    numerator / sqrt(radicand) where the radicand is positive.  E, the
    numerator and the half-sum 1 - E share t = (d - a) s2; each equals
    the expanded form bit for bit, since halving is exact.
    """
    t = (d - a) * s2
    # The half-sum 1 - E is released as soon as the radicand is formed.
    radicand = overlap_radicand(0.5 * ((1.0 + d) - t), c, s2)
    numerator = 0.5 * (a + b) + 0.5 * t
    error = 0.5 * ((1.0 - d) + t)
    return error, numerator, radicand


def error_rate(coeffs: ProbeCoefficients, geom: SignalGeometry) -> float:
    """Induced receiver error rate E = (1 - d + (d - a) sin^2 2a) / 2."""
    return _observables(
        coeffs.a, coeffs.b, coeffs.c, coeffs.d, geom.sin_sq_two_alpha
    )[0]


def _angle_error_rate(
    lam: float, mu: float, theta: float, phi: float, geom: SignalGeometry
) -> float:
    """E at four float angles as a sum of non-negative terms, which keeps
    the relative precision :func:`error_rate` loses near E = 0: E =
    [(1 - d) cos^2 2a + (1 - a) sin^2 2a] / 2, 1 - d = 2 cos^2(lam)
    sin^2(theta), 1 - a = 2 sin^2(lam) sin^2(pi/4 - mu) + 2 cos^2(lam)
    [sin^2(theta) sin^2(3pi/4 - phi) + cos^2(theta) sin^2(pi/4 - phi)]."""
    quarter, tail = 0.25 * math.pi, _QUARTER_PI_TAIL
    cos_sq_lam = math.cos(lam) ** 2
    sin_sq_theta = math.sin(theta) ** 2
    plus_term = math.sin(3.0 * quarter - phi + 3.0 * tail) ** 2
    minus_term = math.sin(quarter - phi + tail) ** 2
    return cos_sq_lam * sin_sq_theta * geom.cos_sq_two_alpha + (
        math.sin(lam) ** 2 * math.sin(quarter - mu + tail) ** 2
        + cos_sq_lam
        * (sin_sq_theta * plus_term + math.cos(theta) ** 2 * minus_term)
    ) * geom.sin_sq_two_alpha


def overlap_radicand(half_sum, c, s2: float):
    """half_sum^2 - c^2 s2/4 with s2 = sin^2(2a): the overlap's squared
    denominator.

    half_sum is (1 + d + (a - d) s2)/2, which equals 1 - E; floats or
    arrays.
    """
    return half_sum * half_sum - 0.25 * c * c * s2


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


def _constraint_sin_two_mu(
    sin_sq_lam, cos_sq_lam, cos_two_theta, d, cross_term, target_error, s2
):
    """sin(2 mu) that meets the target error rate, from the trig factors and
    :func:`_shared_terms`; floats or arrays."""
    return (
        cos_sq_lam * (1.0 - cos_two_theta)
        + s2 * (d - cross_term)
        - 2.0 * target_error
    ) / (s2 * sin_sq_lam)


def _face_cos_sq_lam(sin_two_mu, cos_two_theta, sin_two_phi, target_error, s2):
    """cos^2(lam) that meets the target error rate on the face sin(2 mu) =
    +-1; floats.  2E runs linearly in cos^2(lam) from s2 (1 - sin 2mu) at
    lam = pi/2 to B = (1 - cos 2theta) + s2 cos 2theta (1 - sin 2phi) at
    lam = 0, so cos^2(lam) is 2E / B on the +1 face and 2(E - s2) /
    (B - 2 s2) on the -1 face; inf where the two ends are equal."""
    at_half_pi = s2 * (1.0 - sin_two_mu)
    b = (1.0 - cos_two_theta) + s2 * cos_two_theta * (1.0 - sin_two_phi)
    if b == at_half_pi:
        return math.inf
    return (2.0 * target_error - at_half_pi) / (b - at_half_pi)


def mu_from_constraint(
    lam: float,
    theta: float,
    phi: float,
    target_error: float,
    geom: SignalGeometry,
) -> float:
    """Solve for mu so the probe induces the target error rate.

    Inverts the error-rate relation for sin(2 mu) at fixed
    (lambda, theta, phi):

        sin 2mu = [ cos^2(lam) (1 - cos 2theta)
                    + sin^2(2a) (sin^2(lam) + cos^2(lam) cos 2theta
                                 - cos^2(lam) cos 2theta sin 2phi)
                    - 2 E ] / (sin^2(2a) sin^2(lam))

    Of the two solutions in [0, pi], which share sin(2 mu) and with it
    every observable, this returns the one with cos(2 mu) >= 0.

    Raises:
        SingularLambdaError: sin(lam) ~ 0, so mu is unobservable; use the
            phi-elimination route instead.
        InfeasibleConstraintError: no mu achieves the target error rate at
            this (lambda, theta, phi).
        DomainError: target error rate outside [0, 1/2).
    """
    check_error_rate(target_error)
    sin_lam = math.sin(lam)
    if abs(sin_lam) <= SINGULAR_SIN_LAMBDA:
        raise SingularLambdaError(
            f"sin(lam) = {sin_lam!r} ~ 0: mu has no effect on any observable"
        )
    rhs, mu = _solve_mu(
        lam, sin_lam, theta, phi, target_error, geom.sin_sq_two_alpha
    )
    if mu is None:
        raise InfeasibleConstraintError(
            f"sin(2 mu) would need to be {rhs!r}; no mu achieves error rate "
            f"{target_error!r} at this (lam, theta, phi)"
        )
    return mu


def _solve_mu(
    lam: float,
    sin_lam: float,
    theta: float,
    phi: float,
    target_error: float,
    s2: float,
) -> tuple[float, float | None]:
    """(sin 2mu demanded, mu) at float angles, sin_lam = sin(lam) nonzero.

    The body of :func:`mu_from_constraint` without its checks of the
    inputs; mu is None where no mu meets the target error rate.
    """
    cos_lam = math.cos(lam)
    sin_sq_lam = sin_lam * sin_lam
    cos_sq_lam = cos_lam * cos_lam
    cos_two_theta = math.cos(2.0 * theta)
    rhs = _constraint_sin_two_mu(
        sin_sq_lam,
        cos_sq_lam,
        cos_two_theta,
        *_shared_terms(
            sin_sq_lam, cos_sq_lam, cos_two_theta, math.sin(2.0 * phi)
        ),
        target_error,
        s2,
    )
    branches = _half_arcsine(rhs)
    return rhs, None if branches is None else branches[0]


def _half_arcsine(value: float) -> tuple[float, float] | None:
    """(default, alternate) x in [0, pi) with sin(2 x) = value, cos(2 x) >= 0
    on the first and <= 0 on the second; value is clamped to [-1, 1], and
    None is returned beyond ARCSINE_CLAMP_TOL of that range."""
    if abs(value) > 1.0 + ARCSINE_CLAMP_TOL:
        return None
    half_arc = 0.5 * math.asin(max(-1.0, min(1.0, value)))
    return (
        half_arc if half_arc >= 0.0 else half_arc + math.pi,
        0.5 * math.pi - half_arc,
    )


def constrained_observables(
    lam: float | np.ndarray,
    theta: float | np.ndarray,
    phi: float | np.ndarray,
    target_error: float,
    geom: SignalGeometry,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array form of :func:`mu_from_constraint` followed by :func:`evaluate`.

    lam, theta and phi broadcast together; returns (sin 2mu, E, Q,
    feasible) on their common shape.  feasible is False exactly where the
    scalar route raises: sin(lam) ~ 0, no mu meets the target error rate,
    or the overlap radicand is non-positive.  Q is +inf there, and sin 2mu
    and E are unspecified.  sin 2mu is the solved constraint clipped to
    [-1, 1]; :func:`fold_mu` turns it into the default-branch mu, so a
    scan pays for the arcsine only on the nodes it reports.  The
    coefficients take the solved sin(2 mu) itself rather than the sine of
    2 mu, so E and Q agree with the scalar route to rounding.
    target_error must lie in [0, 1/2).
    """
    return _constrained_nodes(
        lam,
        _double_angle_trig(theta),
        _double_angle_trig(phi),
        target_error,
        geom.sin_sq_two_alpha,
    )


def _double_angle_trig(angle):
    """(cos 2x, sin 2x) of a float or array angle x."""
    # Imported here: only the array kernels need numpy.
    import numpy as np

    return np.cos(2.0 * angle), np.sin(2.0 * angle)


def _constrained_nodes(lam, theta_trig, phi_trig, target_error, s2):
    """The body of :func:`constrained_observables`, given the
    :func:`_double_angle_trig` factors of theta and phi, so a scan can
    work them out once for all its lam planes; s2 = sin^2(2a)."""
    import numpy as np

    cos_two_theta, sin_two_theta = theta_trig
    cos_two_phi, sin_two_phi = phi_trig
    sin_lam = np.sin(lam)
    sin_sq_lam = sin_lam**2
    cos_sq_lam = np.cos(lam) ** 2
    d, cross_term = _shared_terms(
        sin_sq_lam, cos_sq_lam, cos_two_theta, sin_two_phi
    )
    # A zero or tiny s2 sin^2(lam) gives an infinite or NaN rhs, which the
    # feasibility test below refuses.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rhs = _constraint_sin_two_mu(
            sin_sq_lam,
            cos_sq_lam,
            cos_two_theta,
            d,
            cross_term,
            target_error,
            s2,
        )
    feasible = (np.abs(sin_lam) > SINGULAR_SIN_LAMBDA) & (
        np.abs(rhs) <= 1.0 + ARCSINE_CLAMP_TOL
    )
    sin_two_mu = np.clip(rhs, -1.0, 1.0)
    # Each full-plane array is dropped as soon as it has been read.  A
    # plane then holds fewer arrays at once, and the allocator serves it
    # from the chunks the previous plane freed instead of growing the heap
    # and trimming it again on every plane.
    del rhs
    a, b, c, d = _quadruple(
        sin_sq_lam,
        cos_sq_lam,
        sin_two_mu,
        sin_two_theta,
        sin_two_phi,
        cos_two_phi,
        d,
        cross_term,
    )
    del cross_term
    error, numerator, radicand = _observables(a, b, c, d, s2)
    del a, b, c
    feasible &= radicand > 0.0
    # Off the feasible nodes the root may be of a negative or a zero;
    # np.where masks what that gives.
    with np.errstate(divide="ignore", invalid="ignore"):
        q = numerator / np.sqrt(radicand)
    return sin_two_mu, error, np.where(feasible, q, math.inf), feasible


def fold_mu(sin_two_mu: np.ndarray) -> np.ndarray:
    """mu on the default branch of :func:`mu_from_constraint`, in [0, pi)
    with cos(2 mu) >= 0, from an array of sin(2 mu) in [-1, 1]."""
    import numpy as np

    half_arc = 0.5 * np.arcsin(sin_two_mu)
    return np.where(half_arc >= 0.0, half_arc, half_arc + math.pi)


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
