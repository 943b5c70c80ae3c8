"""Closed-form optimum of the probe attack and the stationarity machinery.

For a fixed induced error rate E the eavesdropper minimizes the overlap Q
of the correlated probe states.  The minimum splits into two branches of
the signal half-angle alpha:

    Q_min = [1 + (1 - 2 csc^2 2a) E] / (1 - E),   alpha <= pi/8
    Q_min = [1 + (1 - 2 sec^2 2a) E] / (1 - E),   alpha >= pi/8

The two branches are exchanged by the state relabeling
alpha -> pi/4 - alpha, under which both E and Q are invariant; at
alpha = pi/8 they agree.  The maximum Renyi information gain is
log2(2 - Q_min^2).

The module also houses:

* constructors for every family of probe parameters attaining the
  optimum, including the extra sin(2 phi) = -1 family that exists only at
  alpha = pi/8.  On the lower branch a family is the angle it pins
  (``_PINNED``); the other angles among (lam, theta, phi) are free, and mu
  comes from the error-rate constraint through the kernel behind
  :func:`probe.mu_from_constraint`;
* the three stationarity residuals of the constant-E overlap in
  (lambda, theta, phi), built from bracket functions f1, f2, f3;
* the twelve-way case analysis of the stationarity conditions
  (possibilities A through L), with the numeric infeasibility check for
  possibility (D) via its cubic / cubic-in-Lambda / quintic root systems.
  Its corner points and the constant-E overlap evaluate E and Q through
  probe's one body, :func:`probe._observables`.

On the branch alpha > pi/8 the minimum is *not* an interior stationary
point of the constant-E overlap: it sits on the boundary sin(2 mu) = 1 of
the feasible set.  Its parameters follow from the relabeling image of the
lower-branch families and are produced by :func:`sample_params` directly;
the stationarity residuals do not vanish there (only r_theta and r_phi
do), which is expected.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Mapping, Sequence

from . import probe
from .errors import DegenerateModelError, DomainError, OutOfDomainError
from .probe import ProbeParams, SignalGeometry, value_type

# alpha values within this distance of pi/8 count as the branch seam.
SEAM_TOL = 1e-12
# Error rates up to this fraction above max_error_rate count as attaining
# it: the rounding of a maximum computed another way.
ATTAIN_REL_TOL = 1e-12
# Roots x = sin(2 phi) with |cos^2 2a + sin^2 2a * x| below this are
# ghosts of the overall Lambda factor removed from the cubic-in-Lambda
# (Lambda = 0 would force E = 1/2) and are excluded from joint-root
# matching in the possibility-(D) check.
LAMBDA_GHOST_TOL = 1e-7
# Two polynomial roots within this distance count as one joint root.
JOINT_ROOT_TOL = 1e-6


class Branch(Enum):
    """Which side of alpha = pi/8 an optimum value belongs to."""

    CSC = "csc"  # alpha <= pi/8
    SEC = "sec"  # alpha >= pi/8


@value_type
class BranchedOptimum:
    """Optimum overlap and Renyi information at one (E, alpha)."""

    overlap: float
    renyi_bits: float
    branch: Branch


class FamilyTag(Enum):
    """Identifies a family of optimum probe parameters."""

    SET_E = "set_e"  # cos(lam) = 0 family
    SET_H = "set_h"  # cos(2 theta) = 1 family
    SET_PHI_NEG = "set_phi_neg"  # sin(2 phi) = -1 family, alpha = pi/8 only


@value_type
class OptimumFamily:
    """A constraint set whose members all attain the optimum overlap."""

    tag: FamilyTag
    constraint_description: str
    free_parameters: tuple[str, ...]


@value_type
class StationaryResiduals:
    """Residuals of the three constant-E stationarity conditions.

    r_lambda = sin(lam) cos(lam) f1, r_theta = sin(2 theta) cos^2(lam) f2,
    r_phi = cos^2(lam) cos(2 phi) f3.  They are proportional to the
    partial derivatives of the constant-E overlap:

        r_lambda = -2 D dQ/dlam,  r_theta = +2 D dQ/dtheta,
        r_phi    = +2 D dQ/dphi,

    where D = sqrt((1-E)^2 - c^2 sin^2(2a) / 4).
    """

    r_lambda: float
    r_theta: float
    r_phi: float
    f1: float
    f2: float
    f3: float


class PossibilityStatus(Enum):
    YIELDS_OPTIMUM = "yields_optimum"
    EXCLUDED_ANALYTICALLY = "excluded_analytically"
    INFEASIBLE_NUMERICALLY = "infeasible_numerically"


@value_type
class PossibilityReport:
    """Outcome of one of the twelve stationarity case combinations."""

    label: str
    status: PossibilityStatus
    achieved_q: float | None
    detail: str


@value_type
class DFeasibilityReport:
    """Joint-root evidence that possibility (D) has no solution."""

    min_joint_residual: float
    feasible: bool
    grid_size: int


def branch_for(geom: SignalGeometry) -> Branch:
    """CSC for alpha <= pi/8, SEC above (the seam belongs to CSC)."""
    return Branch.CSC if geom.alpha <= math.pi / 8 + SEAM_TOL else Branch.SEC


def max_error_rate(geom: SignalGeometry) -> float:
    """Largest error rate the optimum family can induce at this alpha.

    The family constraint |sin 2mu| <= 1 (equivalently |sin 2phi| <= 1)
    forces E <= sin^2(2a) on the lower branch and E <= cos^2(2a) on the
    upper branch.
    """
    if branch_for(geom) is Branch.CSC:
        return geom.sin_sq_two_alpha
    return geom.cos_sq_two_alpha


def peak_error_rate(geom: SignalGeometry) -> float:
    """E_pk = s/(2 - s), s = max_error_rate: where Q_min = 0 and I = 1 bit.

    The optimal Renyi gain rises to 1 bit at E_pk and falls back to 0 at s.
    """
    s = max_error_rate(geom)
    return s / (2.0 - s)


def _branch_formula(target_error: float, trig_sq: float) -> float:
    """[1 + (1 - 2 / trig_sq) E] / (1 - E), unchecked."""
    return (1.0 + (1.0 - 2.0 / trig_sq) * target_error) / (1.0 - target_error)


def csc_branch_overlap(target_error: float, geom: SignalGeometry) -> float:
    """Lower-branch formula [1 + (1 - 2 csc^2 2a) E] / (1 - E).

    Evaluated raw at any alpha, even where it is not the constrained
    minimum, so the two branches can be compared.
    """
    probe.check_error_rate(target_error)
    return _branch_formula(target_error, geom.sin_sq_two_alpha)


def sec_branch_overlap(target_error: float, geom: SignalGeometry) -> float:
    """Upper-branch formula [1 + (1 - 2 sec^2 2a) E] / (1 - E), raw."""
    probe.check_error_rate(target_error)
    return _branch_formula(target_error, geom.cos_sq_two_alpha)


def _check_attainable(target_error: float, geom: SignalGeometry) -> None:
    """Raise unless E lies in [0, 1/2) and up to :func:`max_error_rate`,
    give or take ATTAIN_REL_TOL of it."""
    probe.check_error_rate(target_error)
    e_max = max_error_rate(geom)
    if target_error > e_max * (1.0 + ATTAIN_REL_TOL):
        raise OutOfDomainError(
            f"error rate {target_error!r} exceeds the attainable maximum "
            f"{e_max!r} at alpha = {geom.alpha!r}"
        )


def _q_min(error: float, geom: SignalGeometry) -> float:
    """Q_min at this alpha for any E >= 0, unchecked: -1 from E_max on.

    The formula's slope at E_max is -2 / (E_max (1 - E_max)), so an E
    let past E_max falls far below -1 at a small E_max; E is held at
    E_max, and the formula's rounding there is clamped at -1.
    """
    # The branch's trig factor, sin^2 2a or cos^2 2a, is E_max itself.
    e_max = max_error_rate(geom)
    return max(-1.0, _branch_formula(min(error, e_max), e_max))


def _branch_minimum(target_error: float, geom: SignalGeometry) -> float:
    """:func:`_q_min` at an error rate :func:`_check_attainable` admits."""
    _check_attainable(target_error, geom)
    return _q_min(target_error, geom)


def optimal_overlap(
    target_error: float, geom: SignalGeometry
) -> BranchedOptimum:
    """Minimum overlap and maximum Renyi gain at fixed (E, alpha).

    Raises OutOfDomainError when E exceeds :func:`max_error_rate`, where
    no probe setting attains the formula value.
    """
    q = _branch_minimum(target_error, geom)
    return BranchedOptimum(
        overlap=q, renyi_bits=probe.renyi_info(q), branch=branch_for(geom)
    )


def optimal_renyi_bits(target_error: float, geom: SignalGeometry) -> float:
    """Maximum Renyi gain log2(2 - Q_min^2) at fixed alpha: the
    ``renyi_bits`` of :func:`optimal_overlap`, with the same checks."""
    return probe.renyi_info(_branch_minimum(target_error, geom))


def renyi_step(error_rate: float, step: float, geom: SignalGeometry) -> float:
    """I*(E + w) - I*(E) for I*(E) = I(min(E, E_pk)), without cancellation.

    Over the step w, clamped at E_pk, Q_min falls by d = (2/s - 2) w /
    ((1 - E)(1 - E - w)), s = :func:`max_error_rate`, so the gain rises
    by log1p(d (2Q - d) / (2 - Q^2)) / ln 2.
    """
    peak = peak_error_rate(geom)
    if error_rate >= peak:
        return 0.0
    step = min(step, peak - error_rate)
    s = max_error_rate(geom)
    kept = 1.0 - error_rate
    drop = (2.0 / s - 2.0) * step / (kept * (kept - step))
    q = _branch_formula(error_rate, s)
    return math.log1p(drop * (2.0 * q - drop) / (2.0 - q * q)) / math.log(2.0)


def _family_constant(target_error: float, geom: SignalGeometry) -> float:
    """K = 1 - 2E csc^2(2a) on the lower branch, csc -> sec on the upper."""
    return 1.0 - 2.0 * target_error / max_error_rate(geom)


# The angle each lower-branch family pins; the angles among (lam, theta,
# phi) it leaves unpinned are its free parameters, and an unchosen one
# takes its default.  mu follows from the error-rate constraint.
_DEFAULT_ANGLES = {"lam": math.pi / 2, "theta": 0.0, "phi": 0.0}
_PINNED = {
    FamilyTag.SET_E: {"lam": math.pi / 2},
    FamilyTag.SET_H: {"theta": 0.0},
    FamilyTag.SET_PHI_NEG: {"phi": 0.75 * math.pi},
}
_LOWER_CONSTRAINTS = {
    FamilyTag.SET_E: "cos(lam) = 0, sin(2 mu) = 1 - 2E csc^2(2a)",
    FamilyTag.SET_H: (
        "cos(2 theta) = 1, sin(2 mu) sin^2(lam) = "
        "1 - 2E csc^2(2a) - cos^2(lam) sin(2 phi)"
    ),
    FamilyTag.SET_PHI_NEG: (
        "sin(2 phi) = -1, sin(2 mu) sin^2(lam) = 1 - 4E + cos^2(lam)"
    ),
}


def optimal_parameter_families(
    target_error: float, geom: SignalGeometry
) -> list[OptimumFamily]:
    """Every family of probe parameters attaining the optimum overlap.

    Lower branch (alpha <= pi/8):

    * SET_E:  cos(lam) = 0, sin(2 mu) = K; theta and phi free.
    * SET_H:  cos(2 theta) = 1, sin(2 mu) sin^2(lam) = K - cos^2(lam)
      sin(2 phi); lam and phi free where the arcsine stays in range.

    with K = 1 - 2E csc^2(2a).  At alpha = pi/8 exactly there is an
    additional family

    * SET_PHI_NEG: sin(2 phi) = -1, sin(2 mu) sin^2(lam) = 1 - 4E +
      cos^2(lam); lam free on the window cos(2 lam) <= 4E - 1, and theta
      free, since cos(2 phi) = 0 makes c = 0 and theta drops out of E
      and Q.

    Upper branch (alpha > pi/8): the same constraint sets with
    csc -> sec describe the optimum in the relabeled-state frame.  In the
    original frame they collapse to the single boundary point

        mu = pi/4, theta = pi/2, phi = 3 pi/4,
        cos(2 lam) = -(1 - 2E sec^2 2a),

    (up to lam -> pi - lam), which :func:`sample_params` produces; no
    free parameters remain.
    """
    _check_attainable(target_error, geom)
    if branch_for(geom) is Branch.CSC:
        tags = [FamilyTag.SET_E, FamilyTag.SET_H]
        if abs(geom.alpha - math.pi / 8) < SEAM_TOL:
            tags.append(FamilyTag.SET_PHI_NEG)
        return [
            OptimumFamily(
                tag=tag,
                constraint_description=_LOWER_CONSTRAINTS[tag],
                free_parameters=tuple(
                    name for name in _DEFAULT_ANGLES
                    if name not in _PINNED[tag]
                ),
            )
            for tag in tags
        ]
    return [
        OptimumFamily(
            tag=FamilyTag.SET_E,
            constraint_description=(
                "relabeled frame: cos(lam') = 0, sin(2 mu') = "
                "1 - 2E sec^2(2a); original frame: mu = pi/4, "
                "theta = pi/2, phi = 3pi/4, cos(2 lam) = "
                "-(1 - 2E sec^2(2a))"
            ),
            free_parameters=(),
        ),
        OptimumFamily(
            tag=FamilyTag.SET_H,
            constraint_description=(
                "relabeled frame: cos(2 theta') = 1, sin(2 mu') "
                "sin^2(lam') = 1 - 2E sec^2(2a) - cos^2(lam') "
                "sin(2 phi'); original frame as for SET_E"
            ),
            free_parameters=(),
        ),
    ]


def _upper_branch_params(
    target_error: float, geom: SignalGeometry
) -> ProbeParams:
    k = _family_constant(target_error, geom)
    if abs(k) > 1.0 + probe.ARCSINE_CLAMP_TOL:
        raise OutOfDomainError(
            f"cos(2 lam) = {-k!r} leaves [-1, 1] at alpha = {geom.alpha!r}"
        )
    lam = 0.5 * math.acos(max(-1.0, min(1.0, -k)))
    return ProbeParams(
        lam=lam, mu=math.pi / 4, theta=math.pi / 2, phi=0.75 * math.pi
    )


def sample_params(
    family: OptimumFamily,
    target_error: float,
    geom: SignalGeometry,
    free_choices: Mapping[str, float] | None = None,
) -> ProbeParams:
    """Concrete probe parameters from a family constraint set.

    A lower-branch family is the angle it pins: lam = pi/2 (SET_E),
    theta = 0 (SET_H) or phi = 3 pi/4 (SET_PHI_NEG).  ``free_choices``
    maps each name in ``family.free_parameters`` to an angle in [0, pi];
    missing names default to pi/2 for lam and 0 for theta/phi.  Unknown
    names are rejected.  mu is then solved from the error-rate constraint
    by the body of :func:`probe.mu_from_constraint`, so a sample's mu is
    the one every other route gives at its (lam, theta, phi), and the
    sample reproduces both the target error rate and the optimum
    overlap.  Where sin(lam) ~ 0, mu has no effect and is reported as
    pi/4, if the point already meets the target to 1e-10.

    Raises OutOfDomainError when no mu meets the target at the requested
    free angles.
    """
    choices = dict(free_choices or {})
    unknown = set(choices) - set(family.free_parameters)
    if unknown:
        raise DomainError(
            f"free_choices {sorted(unknown)} are not free parameters of "
            f"{family.tag.value}"
        )
    probe.check_error_rate(target_error)
    if branch_for(geom) is Branch.SEC:
        return _upper_branch_params(target_error, geom)

    if (
        family.tag is FamilyTag.SET_PHI_NEG
        and abs(geom.alpha - math.pi / 8) >= SEAM_TOL
    ):
        raise OutOfDomainError(
            "the sin(2 phi) = -1 family exists only at alpha = pi/8"
        )
    angles = {**_DEFAULT_ANGLES, **choices, **_PINNED[family.tag]}
    lam, theta, phi = angles["lam"], angles["theta"], angles["phi"]
    sin_lam = math.sin(lam)
    if abs(sin_lam) <= probe.SINGULAR_SIN_LAMBDA:
        # mu drops out entirely; the point must already meet the target.
        params = ProbeParams(lam=lam, mu=math.pi / 4, theta=theta, phi=phi)
        error = probe.error_rate(probe.coefficients(params), geom)
        if abs(error - target_error) > 1e-10:
            raise OutOfDomainError(
                f"sin(lam) = 0 but the point induces error rate {error!r}, "
                f"not {target_error!r}; no mu changes that"
            )
        return params
    rhs, mu = probe._solve_mu(
        lam, sin_lam, theta, phi, target_error, geom.sin_sq_two_alpha
    )
    if mu is None:
        raise OutOfDomainError(
            f"sin(2 mu) = {rhs!r} leaves [-1, 1]; the family is empty here"
        )
    return ProbeParams(lam=lam, mu=mu, theta=theta, phi=phi)


def phi_neg_lambda_window(target_error: float) -> tuple[float, float]:
    """Feasible lam interval for the sin(2 phi) = -1 family at pi/8.

    The arcsine stays in range iff cos(2 lam) <= 4E - 1.
    """
    probe.check_error_rate(target_error)
    edge = 0.5 * math.acos(max(-1.0, min(1.0, 4.0 * target_error - 1.0)))
    return edge, math.pi - edge


def _lambda_bracket(
    cos_two_theta: float, sin_two_phi: float, geom: SignalGeometry
) -> float:
    """The factor of cos^2(lam) in q at fixed error rate.

    (2 - tan^2 2a) [cot^2 2a - cos 2theta (sin 2phi + cot^2 2a)]
    + sin 2phi [1 + (1 - tan^2 2a) cos 2theta]
    """
    tan_sq = geom.sin_sq_two_alpha / geom.cos_sq_two_alpha
    cot_sq = 1.0 / tan_sq
    return (2.0 - tan_sq) * (
        cot_sq - cos_two_theta * (sin_two_phi + cot_sq)
    ) + sin_two_phi * (1.0 + (1.0 - tan_sq) * cos_two_theta)


def constant_error_overlap(
    lam: float,
    theta: float,
    phi: float,
    target_error: float,
    geom: SignalGeometry,
) -> float:
    """Overlap as a function of (lam, theta, phi) at fixed error rate.

    sin(2 mu) is solved from the error-rate constraint and left unclipped,
    so Q stays smooth across |sin 2mu| = 1; the coefficients and Q then
    come from probe's one body.  This is the objective whose stationary
    points the possibility analysis enumerates; it is evaluated formally
    whether or not a mu realizes the constraint at this point.  The
    angles lie in [0, pi], as in :class:`ProbeParams`, with sin(lam)
    nonzero: where it is 0, mu drops out and sin(2 mu) is 0/0.
    """
    s2 = geom.sin_sq_two_alpha
    sin_two_mu, _ = probe._solve_mu(
        lam, math.sin(lam), theta, phi, target_error, s2
    )
    _, numerator, radicand = probe._observables(
        *probe._sin_mu_quadruple(lam, sin_two_mu, theta, phi), s2
    )
    if radicand <= 0.0:
        raise DegenerateModelError(
            f"overlap denominator radicand {radicand!r} is non-positive"
        )
    return numerator / math.sqrt(radicand)


def stationarity_residuals(
    params: ProbeParams, geom: SignalGeometry
) -> StationaryResiduals:
    """Evaluate the three stationarity residuals at a probe setting.

    The error rate entering the bracket functions is computed from the
    point itself, so residuals vanish exactly on the optimum families.
    """
    coeffs = probe.coefficients(params)
    e = probe.error_rate(coeffs, geom)
    q = probe.q_value(coeffs)
    s2 = geom.sin_sq_two_alpha
    cot_sq = 1.0 / (s2 / geom.cos_sq_two_alpha)
    denom = 4.0 * probe.overlap_radicand(1.0 - e, coeffs.c, s2)
    if denom <= 0.0:
        raise DegenerateModelError(
            f"stationarity bracket denominator {denom!r} is non-positive"
        )
    bracket = 2.0 * (q - 1.0 + 2.0 * e) / denom

    sin_lam = math.sin(params.lam)
    cos_lam = math.cos(params.lam)
    cos_sq_lam = cos_lam * cos_lam
    sin_two_theta = math.sin(2.0 * params.theta)
    cos_two_theta = math.cos(2.0 * params.theta)
    sin_two_phi = math.sin(2.0 * params.phi)
    cos_two_phi = math.cos(2.0 * params.phi)
    sin_sq_two_theta = sin_two_theta * sin_two_theta
    cos_sq_two_phi = cos_two_phi * cos_two_phi

    f1 = (
        2.0 * _lambda_bracket(cos_two_theta, sin_two_phi, geom)
        + bracket * s2 * cos_sq_lam * sin_sq_two_theta * cos_sq_two_phi
    )
    f2 = (
        2.0 * (sin_two_phi + 2.0 * cot_sq - 1.0)
        + bracket * s2 * cos_sq_lam * cos_two_theta * cos_sq_two_phi
    )
    f3 = (
        2.0 * (1.0 - cos_two_theta)
        - bracket * s2 * cos_sq_lam * sin_sq_two_theta * sin_two_phi
    )
    return StationaryResiduals(
        r_lambda=sin_lam * cos_lam * f1,
        r_theta=sin_two_theta * cos_sq_lam * f2,
        r_phi=cos_sq_lam * cos_two_phi * f3,
        f1=f1,
        f2=f2,
        f3=f3,
    )


def sin2phi_cubic_coefficients(
    target_error: float, geom: SignalGeometry
) -> tuple[float, float, float, float]:
    """Coefficients of the cubic in x = sin(2 phi) from possibility (D).

    a1 = sin^2 2a, a2 = 3 - 4 sin^2 2a,
    a3 = (2E - cos^2 2a - 1)(1 - 2 cot^2 2a), a4 = 1 - 2E.
    """
    s2 = geom.sin_sq_two_alpha
    c2 = geom.cos_sq_two_alpha
    cot_sq = c2 / s2
    return (
        s2,
        3.0 - 4.0 * s2,
        (2.0 * target_error - c2 - 1.0) * (1.0 - 2.0 * cot_sq),
        1.0 - 2.0 * target_error,
    )


def lambda_cubic_coefficients(
    target_error: float, geom: SignalGeometry
) -> tuple[float, float, float, float]:
    """Coefficients of the cubic in Lambda = cos^2 2a + sin^2 2a sin 2phi."""
    s2 = geom.sin_sq_two_alpha
    c2 = geom.cos_sq_two_alpha
    cot_sq = c2 / s2
    csc_sq = 1.0 / s2
    one_2e = 1.0 - 2.0 * target_error
    one_e = 1.0 - target_error
    heavy = 1.0 + c2 - 4.0 * cot_sq
    return (
        one_2e * (1.0 - 2.0 * csc_sq),
        4.0 * one_e**2
        - s2
        + one_2e**2 * (1.0 - 2.0 * csc_sq)
        - one_2e * heavy,
        -(one_2e**2) * heavy + one_2e * c2 * (1.0 - 2.0 * cot_sq),
        one_2e**2 * (1.0 - 2.0 * c2 * cot_sq),
    )


def quintic_coefficients(
    target_error: float, geom: SignalGeometry
) -> tuple[float, float, float, float, float, float]:
    """Coefficients of the quintic in x = sin(2 phi) from possibility (D)."""
    s2 = geom.sin_sq_two_alpha
    c2 = geom.cos_sq_two_alpha
    cot_sq = c2 / s2
    s4 = s2 * s2
    s6 = s4 * s2
    c4 = c2 * c2
    one_2e = 1.0 - 2.0 * target_error
    one_e = 1.0 - target_error
    k = 1.0 - 2.0 * cot_sq
    c_1 = s6
    c_2 = s4 * (5.0 * c2 + 2.0 * target_error - 2.0)
    c_3 = (
        s4 * (5.0 - 12.0 * target_error + 8.0 * target_error**2)
        - s2 * c2 * one_2e
        - 2.0 * s2 * one_2e**2
        - 2.0 * s4 * c2
        + 5.0 * s2 * c4
        - s6
    )
    c_4 = (
        k * (s2 * one_2e**2 - 4.0 * s4 * one_e**2 + s6 - s2 * c4)
        - 2.0 * s4 * c2
        - s4 * one_2e**2
        + s4 * one_2e
        + 8.0 * s2 * c2 * one_e**2
    )
    c_5 = (
        k * (-8.0 * s2 * c2 * one_e**2 + 2.0 * s4 * c2)
        + 4.0 * c4 * one_e**2
        + s2 * (2.0 - s2) * one_2e**2
        + s2 * c2 * one_2e
        - s2 * c4
    )
    c_6 = (
        k * (s2 * c4 - 4.0 * c4 * one_e**2 - s2 * one_2e**2)
        + s4 * one_2e**2
    )
    return (c_1, c_2, c_3, c_4, c_5, c_6)


def _drop_lambda_ghosts(
    roots: Sequence[float], geom: SignalGeometry
) -> list[float]:
    s2 = geom.sin_sq_two_alpha
    c2 = geom.cos_sq_two_alpha
    return [x for x in roots if abs(c2 + s2 * x) > LAMBDA_GHOST_TOL]


def _min_distance(x: float, pool: Sequence[float]) -> float:
    return min((abs(x - r) for r in pool), default=math.inf)


def possibility_d_feasibility(
    geom: SignalGeometry, e_grid: Iterable[float]
) -> DFeasibilityReport:
    """Check numerically that possibility (D) admits no solution.

    For each error rate the three polynomial systems a (D)-solution would
    have to satisfy are solved for their real roots x = sin(2 phi) in
    [-1, 1]: the cubic in sin(2 phi), the cubic in Lambda mapped back
    through x = (Lambda - cos^2 2a)/sin^2 2a, and the quintic.  A solution
    requires either a root common to all three, or the closed-form value
    x* = 1 - 2E csc^2(2a) to be a root of the quintic.  x* need be no
    more: asking it to be a root of the Lambda cubic too could only widen
    that chain's residual.  Ghost roots with Lambda ~ 0 (which would force
    E = 1/2) are excluded.  ``feasible`` is True only if some chain
    matches within 1e-6.
    """
    # Imported here: only possibility (D) solves polynomials, so no other
    # call pays for compiling roots at start-up.
    from .roots import real_roots_in_interval

    e_grid = list(e_grid)
    s2 = geom.sin_sq_two_alpha
    c2 = geom.cos_sq_two_alpha
    best = math.inf
    for target_error in e_grid:
        probe.check_error_rate(target_error)
        cubic = real_roots_in_interval(
            sin2phi_cubic_coefficients(target_error, geom)
        )
        lam_interval = sorted((c2 - s2, c2 + s2))
        lam_roots = real_roots_in_interval(
            lambda_cubic_coefficients(target_error, geom),
            lam_interval[0] - 1e-9,
            lam_interval[1] + 1e-9,
        )
        mapped = [
            (big_l - c2) / s2
            for big_l in lam_roots
            if -1.0 - 1e-9 <= (big_l - c2) / s2 <= 1.0 + 1e-9
        ]
        quintic = real_roots_in_interval(
            quintic_coefficients(target_error, geom)
        )
        cubic = _drop_lambda_ghosts(cubic, geom)
        mapped = _drop_lambda_ghosts(mapped, geom)
        quintic = _drop_lambda_ghosts(quintic, geom)

        chain_all = min(
            (
                max(_min_distance(x, mapped), _min_distance(x, quintic))
                for x in cubic
            ),
            default=math.inf,
        )
        x_star = 1.0 - 2.0 * target_error / s2
        chain_single = (
            _min_distance(x_star, quintic)
            if -1.0 <= x_star <= 1.0
            else math.inf
        )
        best = min(best, chain_all, chain_single)
    return DFeasibilityReport(
        min_joint_residual=best,
        feasible=best < JOINT_ROOT_TOL,
        grid_size=len(e_grid),
    )


# The constraints of each possibility that yields the optimum, by label.
_OPTIMUM_CASES = {
    "B": "sin(lam) = 0, cos(2 theta) = 1, sin(2 phi) = 1 - 2E csc^2(2a); "
    "mu free",
    "E": "cos(lam) = 0, sin(2 mu) = 1 - 2E csc^2(2a); theta, phi free",
    "F": "sin(2 theta) = 0 (f1 = 0 forces cos 2theta = +1), "
    "cos(2 phi) = 0 with sin(2 phi) = e_phi, sin(2 mu) sin^2(lam) "
    "= 1 - 2E csc^2(2a) - e_phi cos^2(lam)",
    "G": "cos(lam) = 0, sin(2 theta) = 0, sin(2 mu) = 1 - 2E csc^2(2a)",
    "H": "sin(2 theta) = 0 with f3 = 0 forces cos(2 theta) = 1; "
    "sin(2 mu) sin^2(lam) = 1 - 2E csc^2(2a) - cos^2(lam) sin(2 phi)",
    "I": "cos(lam) = 0, sin(2 mu) = 1 - 2E csc^2(2a); f1 = 0 gives "
    "cos(2 theta) = 1 or sin(2 phi) = 1 - 2 cot^2(2a)",
    "K": "cos(lam) = 0, sin(2 mu) = 1 - 2E csc^2(2a), sin(2 phi) = "
    "1 - 2 cot^2(2a)",
    "L": "f1 = f2 = f3 = 0 forces cos(2 theta) = 1 with cos^2(lam) "
    "determined by phi; same extremal overlap",
}


def _corner(
    e_theta: int, e_phi: int, geom: SignalGeometry
) -> tuple[float, float]:
    """(E, Q) at the corner sin(lam) = sin(2 theta) = cos(2 phi) = 0 with
    (cos 2theta, sin 2phi) = (e_theta, e_phi); Q is e_phi.  The (-1, +1)
    corner forces E = 1, where Q is 0/0 and is resolved to +1."""
    theta = 0.0 if e_theta > 0 else math.pi / 2
    phi = math.pi / 4 if e_phi > 0 else 0.75 * math.pi
    error, numerator, radicand = probe._observables(
        *probe._angle_quadruple(0.0, math.pi / 4, theta, phi),
        geom.sin_sq_two_alpha,
    )
    return error, numerator / math.sqrt(radicand) if radicand > 0.0 else 1.0


def enumerate_possibilities(
    target_error: float, geom: SignalGeometry
) -> list[PossibilityReport]:
    """Classify all twelve case combinations of the stationarity conditions.

    Possibilities (B), (E)-(I), (K), (L) all attain the same extremal
    overlap (the lower-branch formula value at this E); they differ only
    in which probe parameters are pinned.  (A) reaches only Q = +-1 at
    sign-forced error rates, (C) would force E = 1/2, (J) requires
    cot^2(2a) in {0, 1} and so exists only at alpha = pi/8 (where it is
    the sin(2 phi) = -1 family), and (D) is jointly infeasible, verified
    numerically.  The reports come in label order.
    """
    probe.check_error_rate(target_error)
    q_ext = csc_branch_overlap(target_error, geom)
    cot_sq = geom.cos_sq_two_alpha / geom.sin_sq_two_alpha
    at_seam = abs(geom.alpha - math.pi / 8) < SEAM_TOL
    feasibility_note = (
        ""
        if target_error <= geom.sin_sq_two_alpha * (1.0 + ATTAIN_REL_TOL)
        else "; unrealizable here (E > sin^2 2a puts |sin 2mu| > 1)"
    )
    reports = [
        PossibilityReport(
            label, PossibilityStatus.YIELDS_OPTIMUM, q_ext,
            detail + feasibility_note,
        )
        for label, detail in _OPTIMUM_CASES.items()
    ]

    corners = {
        signs: _corner(*signs, geom)
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    }
    corner_summary = "; ".join(
        f"(e_theta={e_theta:+d}, e_phi={e_phi:+d}): "
        f"Q={q:+.0f} at forced E={error:.6f}"
        for (e_theta, e_phi), (error, q) in corners.items()
    )
    reports += [
        PossibilityReport(
            "A",
            PossibilityStatus.EXCLUDED_ANALYTICALLY,
            corners[1, 1][1],
            "sin(lam) = 0, sin(2 theta) = 0, cos(2 phi) = 0: corner points "
            "reach only |Q| = 1, never the constrained minimum. "
            + corner_summary,
        ),
        PossibilityReport(
            "C",
            PossibilityStatus.EXCLUDED_ANALYTICALLY,
            None,
            "sin(lam) = 0, cos(2 phi) = 0 with f2 = 0 forces e_phi = -1 and "
            "alpha = pi/8, and then E = 1/2, outside the accepted range",
        ),
    ]

    d_check = possibility_d_feasibility(geom, [target_error])
    if d_check.feasible:
        reports.append(
            PossibilityReport(
                "D",
                PossibilityStatus.YIELDS_OPTIMUM,
                q_ext,
                "joint root of the cubic/Lambda-cubic/quintic systems found "
                f"(distance {d_check.min_joint_residual:.3e}); this matches "
                "the closed-form extremum",
            )
        )
    else:
        reports.append(
            PossibilityReport(
                "D",
                PossibilityStatus.INFEASIBLE_NUMERICALLY,
                None,
                "sin(lam) = 0 with f2 = f3 = 0 requires a common root of "
                "the cubic, the Lambda-cubic, and the quintic in sin(2 phi); "
                f"minimum joint distance {d_check.min_joint_residual:.3e} "
                "> 1e-6",
            )
        )

    if at_seam:
        reports.append(
            PossibilityReport(
                "J",
                PossibilityStatus.YIELDS_OPTIMUM,
                q_ext,
                "cos(2 phi) = 0 with f2 = 0 holds at alpha = pi/8 with "
                "e_phi = -1: the sin(2 phi) = -1 family",
            )
        )
    else:
        reports.append(
            PossibilityReport(
                "J",
                PossibilityStatus.INFEASIBLE_NUMERICALLY,
                None,
                "cos(2 phi) = 0 with f2 = 0 requires cot^2(2a) = "
                "(1 - e_phi)/2, i.e. 0 or 1; here cot^2(2a) = "
                f"{cot_sq:.6f}, so no sign choice works",
            )
        )
    return sorted(reports, key=lambda report: report.label)
