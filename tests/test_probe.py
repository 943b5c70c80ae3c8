import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qkdprobe import (
    ProbeCoefficients,
    ProbeParams,
    SignalGeometry,
    coefficients,
    detection_probabilities,
    error_rate,
    mu_from_constraint,
    overlap,
    q_value,
    renyi_info,
)
from qkdprobe import probe
from qkdprobe.errors import (
    DegenerateModelError,
    DomainError,
    InfeasibleConstraintError,
    SingularLambdaError,
)

from conftest import SMALLEST_ALPHA, exact_error_rate

PI = math.pi

# The worked nonoptimized example point: alpha just above pi/8 with
# lam/pi = 0.3, mu/pi = 0.156816, theta/pi = 0.1, phi/pi = 0.75.
EXAMPLE_ALPHA = PI / 8 + 1e-6
EXAMPLE_POINT = ProbeParams(
    lam=0.3 * PI, mu=0.156816 * PI, theta=0.1 * PI, phi=0.75 * PI
)
# Frozen by direct evaluation of the coefficient formulas at the point.
EXAMPLE_COEFFS = (0.2659851401, 0.2000021345, 0.0, 0.9340169944)


def overlap_from_error(coeffs, geom):
    """Q = [(a+b+d-1)/2 + E] / sqrt((1-E)^2 - c^2 sin^2(2a)/4).

    Algebraically identical to :func:`overlap`; an independent evaluation
    route for consistency checks.
    """
    e = error_rate(coeffs, geom)
    radicand = (1.0 - e) ** 2 - 0.25 * coeffs.c**2 * geom.sin_sq_two_alpha
    if radicand <= 0.0:
        raise DegenerateModelError(
            f"overlap denominator radicand {radicand!r} is non-positive"
        )
    return (0.5 * (coeffs.a + coeffs.b + coeffs.d - 1.0) + e) / math.sqrt(
        radicand
    )


def random_params(rng, count):
    draws = rng.uniform(0.0, PI, size=(count, 4))
    return [ProbeParams(*row) for row in draws]


class TestSignalGeometry:
    def test_theta_bar(self):
        geom = SignalGeometry(PI / 8)
        assert math.isclose(geom.theta_bar, PI / 4)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, PI / 4, PI / 2])
    def test_rejects_out_of_range_alpha(self, alpha):
        with pytest.raises(DomainError):
            SignalGeometry(alpha)

    def test_rejects_alpha_whose_branch_factor_overflows(self):
        # 2 / sin^2(2 alpha) overflows, or sin^2(2 alpha) is 0, below
        # SMALLEST_ALPHA; above it every alpha up to pi/8 is accepted.
        for alpha in (
            5e-324, 1e-300, 1e-160, 1e-155, math.nextafter(SMALLEST_ALPHA, 0)
        ):
            with pytest.raises(DomainError, match=f"alpha = {alpha!r} "):
                SignalGeometry(alpha)
        for alpha in (SMALLEST_ALPHA, 1e-154, 1e-150):
            geom = SignalGeometry(alpha)
            assert math.isfinite(2.0 / geom.sin_sq_two_alpha)

    @pytest.mark.parametrize("alpha", [PI / 20, PI / 9, PI / 8, PI / 5])
    def test_derived_angles_are_cached_formulas(self, alpha):
        geom = SignalGeometry(alpha)
        fresh = SignalGeometry(alpha)
        for _ in range(2):  # first read computes, second reads the cache
            assert geom.theta_bar == PI / 2 - 2.0 * alpha
            assert geom.sin_two_alpha == math.sin(2.0 * alpha)
            assert geom.sin_sq_two_alpha == (
                0.5 * (1.0 - math.cos(4.0 * alpha)) if alpha >= PI / 12
                else math.sin(2.0 * alpha) ** 2
            )
            assert geom.cos_sq_two_alpha == (
                0.5 * (1.0 + math.cos(4.0 * alpha)) if alpha <= PI / 6
                else math.cos(2.0 * alpha) ** 2
            )
        # The cache is invisible to equality, hashing and repr.
        assert geom == fresh
        assert hash(geom) == hash(fresh) == hash(SignalGeometry(alpha))
        assert repr(geom) == repr(fresh) == f"SignalGeometry(alpha={alpha!r})"
        assert geom != SignalGeometry(alpha / 2)
        assert len({geom, fresh}) == 1


    def test_squared_trig_within_an_ulp(self):
        # On 2 000 random alphas each square is within 0.75 ulp of its
        # 50-digit value where it comes from cos(4a), sin^2 from pi/12 on
        # and cos^2 up to pi/6, and within 2 ulp elsewhere; the squared
        # sine and cosine reach 1.8 ulp.  At pi/8 both are the floats
        # nearest 1/2 -+ 3.1e-17.
        import mpmath

        rng = np.random.default_rng(12)
        alphas = [PI / 8, PI / 12, PI / 6, math.nextafter(PI / 4, 0)]
        alphas += rng.uniform(1e-3, PI / 4, 2000).tolist()
        with mpmath.workdps(50):
            for alpha in alphas:
                geom = SignalGeometry(alpha)
                two_alpha = 2 * mpmath.mpf(alpha)
                for got, want, double_angle in (
                    (geom.sin_sq_two_alpha, mpmath.sin(two_alpha) ** 2,
                     alpha >= PI / 12),
                    (geom.cos_sq_two_alpha, mpmath.cos(two_alpha) ** 2,
                     alpha <= PI / 6),
                ):
                    bound = 0.75 if double_angle else 2.0
                    assert abs(got - want) <= bound * math.ulp(got)
        geom = SignalGeometry(PI / 8)
        assert geom.sin_sq_two_alpha == math.nextafter(0.5, 0.0)
        assert geom.cos_sq_two_alpha == 0.5


class TestProbeParams:
    def test_rejects_angles_outside_closed_range(self):
        with pytest.raises(DomainError):
            ProbeParams(lam=-0.1, mu=0.0, theta=0.0, phi=0.0)
        with pytest.raises(DomainError):
            ProbeParams(lam=0.0, mu=PI + 0.1, theta=0.0, phi=0.0)


class TestCoefficients:
    @pytest.mark.parametrize("target", [0.0, 0.1, 0.25, 0.49])
    def test_unperturbed_theta_phi_family(self, target):
        # lam = 0, theta = 0, sin(2 phi) = 1 - 4E gives (1-4E, 1-4E, 0, 1).
        phi = 0.5 * math.asin(1.0 - 4.0 * target)
        phi = phi if phi >= 0 else phi + PI
        c = coefficients(ProbeParams(lam=0.0, mu=0.3, theta=0.0, phi=phi))
        assert_allclose(
            (c.a, c.b, c.c, c.d),
            (1.0 - 4.0 * target, 1.0 - 4.0 * target, 0.0, 1.0),
            atol=1e-14,
        )

    def test_identity_case(self):
        c = coefficients(ProbeParams(lam=0.0, mu=0.0, theta=0.0, phi=PI / 4))
        assert_allclose((c.a, c.b, c.c, c.d), (1.0, 1.0, 0.0, 1.0), atol=1e-15)

    def test_worked_example_point(self):
        c = coefficients(EXAMPLE_POINT)
        assert_allclose(
            (c.a, c.b, c.c, c.d), EXAMPLE_COEFFS, atol=1e-10
        )

    def test_magnitudes_bounded(self):
        rng = np.random.default_rng(101)
        for params in random_params(rng, 500):
            c = coefficients(params)
            for value in (c.a, c.b, c.c, c.d):
                assert abs(value) <= 1.0 + 1e-14


class TestDetectionProbabilities:
    def test_no_disturbance(self):
        geom = SignalGeometry(0.19 * PI)
        probs = detection_probabilities(
            ProbeCoefficients(1.0, 1.0, 0.0, 1.0), geom
        )
        assert_allclose(
            (probs.p_uu, probs.p_u_ubar, probs.p_ubar_u, probs.p_ubar_ubar),
            (1.0, 0.0, 0.0, 1.0),
            atol=1e-15,
        )

    @pytest.mark.parametrize("target", [0.0, 0.05, 0.2])
    def test_error_family_gives_conditional_error(self, target, geom_pi8):
        coeffs = ProbeCoefficients(
            1.0 - 4.0 * target, 1.0 - 4.0 * target, 0.0, 1.0
        )
        probs = detection_probabilities(coeffs, geom_pi8)
        assert math.isclose(probs.p_u_ubar, target, abs_tol=1e-14)

    def test_row_sums_over_random_points(self, geom_pi8):
        rng = np.random.default_rng(7)
        for params in random_params(rng, 1000):
            probs = detection_probabilities(coefficients(params), geom_pi8)
            assert abs(probs.p_uu + probs.p_u_ubar - 1.0) < 1e-12
            assert abs(probs.p_ubar_u + probs.p_ubar_ubar - 1.0) < 1e-12

    def test_unrealizable_coefficients_raise(self, geom_pi8):
        # c = 1 together with a = d = 1 cannot come from any probe setting
        # and pushes p_uu above one.
        with pytest.raises(DegenerateModelError):
            detection_probabilities(
                ProbeCoefficients(1.0, 1.0, 1.0, 1.0), geom_pi8
            )


# E at float angles, from mpmath at mp.dps = 120 with alpha and the
# angles as their exact binary values, through the coefficients:
#     s2 = sin(2a)^2; d = sin(lam)^2 + cos(lam)^2 cos(2 theta)
#     a = sin(lam)^2 sin(2 mu) + cos(lam)^2 cos(2 theta) sin(2 phi)
#     E = mp.nstr((1 - d + (d - a) s2) / 2, 50)
# The rows are scan rows (lam, theta, phi, mu) of constrained_scan at
# grid_resolution 9 with 2 restarts, seed 0.  Rows: (alpha, lam, theta,
# phi, mu, E).
ANGLE_ERROR_TABLE = [
    # alpha = 0.785398, E = 0.0: the 10 rows below Q_min at E and
    # every 40th of its 111 rows
    (0.785398, 0.0, 0.0,
     0.7853981633974483, 0.7853981633974483,
     9.373498641635608924649114059975104328501475971478e-34),
    (0.785398, 0.0, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.0679490440337256031997049103967262555867157134314e-13),
    (0.785398, 0.39269908169872414, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     9.1155152751583192169447019090609425966336005200188e-14),
    (0.785398, 0.7853981633974483, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     5.3397452201686283430104866522862575088800266857167e-14),
    (0.785398, 1.1780972450961724, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.5639751651789372775445533972777781742374901884143e-14),
    (0.785398, 1.5707963267948966, 0.7853981633974483,
     2.748893571891069, 0.7853981633974483,
     2.8120495924908829669433851312376125160606687646485e-33),
    (0.785398, 1.5707963267948966, 2.748893571891069,
     0.7853981633974483, 0.7853981633974483,
     1.4864367019020554075163453727836469244962109169297e-33),
    (0.785398, 1.9634954084936207, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.5639751651789363527476109653676305502033758462697e-14),
    (0.785398, 2.356194490192345, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     5.3397452201686270351501082239084647635872164926827e-14),
    (0.785398, 2.748893571891069, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     9.1155152751583182921477594771506817176379451280936e-14),
    (0.785398, 3.141592653589793, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.0679490440337256031997049103967102389164539738424e-13),
    # alpha = 0.785398, E = 1e-14: the 10 rows below Q_min at E and
    # every 40th of its 111 rows
    (0.785398, 0.0, 0.0,
     0.7853980634374201, 0.7853981633974483,
     9.9920072326129057216157027869853074604983714061704e-15),
    (0.785398, 0.0, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.0679490440337256031997049103967262555867157134314e-13),
    (0.785398, 0.39269908169872414, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     9.1155152751583192169447019090609425966336005200188e-14),
    (0.785398, 0.7853981633974483, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     5.3397452201686283430104866522862575088800266857167e-14),
    (0.785398, 1.1780972450961724, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.5639751651789372775445533972777781742374901884143e-14),
    (0.785398, 1.5707963267948966, 0.7853981633974483,
     2.748893571891069, 0.7853980634374201,
     9.9920072326129057234904025153125920709503562833089e-15),
    (0.785398, 1.5707963267948966, 2.748893571891069,
     0.7853981633974483, 0.7853980634374201,
     9.9920072326129057221647896247237645115233165248549e-15),
    (0.785398, 1.9634954084936207, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.5639751651789363527476109653676305502033758462697e-14),
    (0.785398, 2.356194490192345, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     5.3397452201686270351501082239084647635872164926827e-14),
    (0.785398, 2.748893571891069, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     9.1155152751583182921477594771506817176379451280936e-14),
    (0.785398, 3.141592653589793, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.0679490440337256031997049103967102389164539738424e-13),
    # alpha = PI / 4 - 3e-9, E = 0.0: the 10 rows below Q_min at E and
    # every 40th of its 111 rows
    (PI / 4 - 3e-9, 0.0, 0.0,
     0.7853981633974483, 0.7853981633974483,
     9.373498641636609629094508909061235719940281192698e-34),
    (PI / 4 - 3e-9, 0.0, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     3.600000136302429787734872765863141941028778518731e-17),
    (PI / 4 - 3e-9, 0.39269908169872414, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     3.0727923224771866880394511889967321639632327218683e-17),
    (PI / 4 - 3e-9, 0.7853981633974483, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.8000000681512150509531456874347610854355277923894e-17),
    (PI / 4 - 3e-9, 1.1780972450961724, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     5.2720781382524334930250401721702462046845000916075e-18),
    (PI / 4 - 3e-9, 1.5707963267948966, 0.7853981633974483,
     2.748893571891069, 0.7853981633974483,
     2.8120495924909830373879246161671464109139170807712e-33),
    (PI / 4 - 3e-9, 1.5707963267948966, 2.748893571891069,
     0.7853981633974483, 0.7853981633974483,
     1.4864367019021554779608848576922600636400914389418e-33),
    (PI / 4 - 3e-9, 1.9634954084936207, 1.5707963267948966,
     2.356194490192345, 0.7853981559468677,
     5.2653809876833659305223934228499038796610486500097e-17),
    (PI / 4 - 3e-9, 2.356194490192345, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     1.8000000681512146100802813021541932076411518415201e-17),
    (PI / 4 - 3e-9, 2.748893571891069, 1.5707963267948966,
     2.356194490192345, 0.7853981504926641,
     5.5116182950552724863588379924901146468669516044957e-17),
    (PI / 4 - 3e-9, 3.141592653589793, 1.5707963267948966,
     2.356194490192345, 0.7853981633974483,
     3.6000001363024297877348727658630879496745584828342e-17),
    # alpha = PI / 8, E = 0.15: the 0 rows below Q_min at E and
    # every 40th of its 299 rows
    (PI / 8, 0.0, 0.0,
     0.2057584230337439, 0.7853981633974483,
     1.5000000000000004455778380292626970653544854676164e-1),
    (PI / 8, 1.1780972450961724, 0.39269908169872414,
     1.1780972450961724, 0.2239619856886504,
     1.4999999999999999529978487615356501087694605107725e-1),
    (PI / 8, 1.1780972450961724, 1.9634954084936207,
     2.748893571891069, 0.3709813005475403,
     1.4999999999999992616397350861702941958292118491307e-1),
    (PI / 8, 1.5707963267948966, 0.39269908169872414,
     0.7853981633974483, 0.20575842303374395,
     1.500000000000000191193785597882622317998750369033e-1),
    (PI / 8, 1.5707963267948966, 1.9634954084936207,
     2.356194490192345, 0.20575842303374395,
     1.5000000000000001911937855978826355741276562573119e-1),
    (PI / 8, 1.9634954084936207, 0.39269908169872414,
     0.39269908169872414, 0.22396198568865028,
     1.5000000000000003535663653821328936293249740402523e-1),
    (PI / 8, 1.9634954084936207, 1.9634954084936207,
     1.9634954084936207, 0.3709813005475401,
     1.4999999999999996198224571357740364916962960416216e-1),
    (PI / 8, 2.356194490192345, 2.748893571891069,
     0.39269908169872414, 0.3173234576037595,
     1.5000000000000000298661093437404520747050730194516e-1),
    # alpha = 1e-5, E = 1e-10: the 0 rows below Q_min at E and
    # every 40th of its 157 rows
    (1e-5, 0.0, 0.0,
     0.261799363875572, 0.7853981633974483,
     1.0000000827403711637938190569924092539488081235929e-10),
    (1e-5, 1.5707963267948966, 0.0,
     0.7853981633974483, 0.2617993877606594,
     1.0000000000000001626871866650626388809433919095147e-10),
    (1e-5, 1.5707963267948966, 1.5707963267948966,
     2.356194490192345, 0.2617993877606594,
     1.0000000000000001626872241590571904297854334525072e-10),
    (1e-5, 1.9634954084936207, 0.0,
     0.39269908169872414, 0.2415158173729221,
     1.000000000000000151488585946350283959736696689431e-10),
]


class TestErrorRate:
    def test_zero_for_identity(self):
        geom = SignalGeometry(0.11 * PI)
        assert error_rate(ProbeCoefficients(1.0, 1.0, 0.0, 1.0), geom) == 0.0

    def test_inversion_example(self, geom_pi8):
        phi = 0.5 * math.asin(1.0 - 4.0 * 0.1)
        c = coefficients(ProbeParams(lam=0.0, mu=0.0, theta=0.0, phi=phi))
        assert math.isclose(error_rate(c, geom_pi8), 0.1, abs_tol=1e-14)

    def test_worked_example_error(self):
        geom = SignalGeometry(EXAMPLE_ALPHA)
        e = error_rate(coefficients(EXAMPLE_POINT), geom)
        assert abs(e - 0.2) < 5e-5

    def test_matches_probability_ratio(self, geom_pi8):
        rng = np.random.default_rng(23)
        for params in random_params(rng, 300):
            coeffs = coefficients(params)
            probs = detection_probabilities(coeffs, geom_pi8)
            ratio = (probs.p_u_ubar + probs.p_ubar_u) / (
                probs.p_u_ubar
                + probs.p_ubar_u
                + probs.p_uu
                + probs.p_ubar_ubar
            )
            assert abs(error_rate(coeffs, geom_pi8) - ratio) < 1e-12

    @pytest.mark.parametrize("row", ANGLE_ERROR_TABLE)
    def test_angle_form_within_four_ulps(self, row):
        # At 0.785398 E's range is [0, 1.07e-13] and at pi/4 - 3e-9
        # [0, 3.6e-17], while the coefficient form is off by up to
        # 1.4e-17 and 5.8e-17 there; the sum of non-negative terms keeps
        # E to a few ulps.
        alpha, lam, theta, phi, mu, exact = row
        e = probe._angle_error_rate(lam, mu, theta, phi, SignalGeometry(alpha))
        assert abs(e - exact) <= max(1e-22, 4 * math.ulp(exact))


class TestOverlap:
    def test_worked_example_overlap(self):
        geom = SignalGeometry(EXAMPLE_ALPHA)
        q = overlap(coefficients(EXAMPLE_POINT), geom)
        assert abs(q - 0.500003) < 1e-5

    def test_second_example_overlap(self):
        geom = SignalGeometry(PI / 5)
        params = ProbeParams(
            lam=0.7 * PI, mu=0.0711275 * PI, theta=0.7 * PI, phi=0.7 * PI
        )
        assert abs(overlap(coefficients(params), geom) - 0.34828) < 1e-4

    def test_identity_overlap(self):
        geom = SignalGeometry(0.2 * PI)
        assert math.isclose(
            overlap(ProbeCoefficients(1.0, 1.0, 0.0, 1.0), geom), 1.0
        )

    @pytest.mark.parametrize("alpha", [PI / 12, PI / 8, 0.2 * PI])
    def test_two_forms_agree(self, alpha):
        geom = SignalGeometry(alpha)
        rng = np.random.default_rng(31)
        checked = 0
        for params in random_params(rng, 4000):
            coeffs = coefficients(params)
            try:
                q_direct = overlap(coeffs, geom)
            except DegenerateModelError:
                continue
            checked += 1
            assert abs(q_direct - overlap_from_error(coeffs, geom)) < 1e-12
        assert checked > 3500


class TestQValue:
    def test_examples(self):
        assert q_value(ProbeCoefficients(1.0, 1.0, 0.0, 1.0)) == 3.0
        assert math.isclose(
            q_value(ProbeCoefficients(0.6, 0.6, 0.0, 1.0)), 2.2
        )
        # Frozen sum of the worked example's coefficients.
        assert math.isclose(
            q_value(coefficients(EXAMPLE_POINT)),
            1.4000042690,
            abs_tol=1e-9,
        )

    def test_mu_elimination_identity(self, geom_pi8):
        # q = a + b + d equals the mu-free expression once mu is solved
        # from the error-rate constraint.
        rng = np.random.default_rng(47)
        s2 = geom_pi8.sin_sq_two_alpha
        checked = 0
        while checked < 200:
            lam, theta, phi = rng.uniform(0.05 * PI, 0.95 * PI, 3)
            target = rng.uniform(0.01, 0.35)
            try:
                mu = mu_from_constraint(lam, theta, phi, target, geom_pi8)
            except (InfeasibleConstraintError, SingularLambdaError):
                continue
            params = ProbeParams(lam=lam, mu=mu, theta=theta, phi=phi)
            direct = q_value(coefficients(params))
            # The paper's q with mu eliminated: cos^2(lam) {(2 - tan^2 2a)
            # [cot^2 2a - cos 2theta (sin 2phi + cot^2 2a)] + sin 2phi
            # [1 + (1 - tan^2 2a) cos 2theta]} - 4E csc^2(2a) + 3.
            tan_sq = s2 / (1.0 - s2)
            cos_two_theta = math.cos(2 * theta)
            sin_two_phi = math.sin(2 * phi)
            eliminated = (
                math.cos(lam) ** 2
                * (
                    (2.0 - tan_sq)
                    * (1 / tan_sq - cos_two_theta * (sin_two_phi + 1 / tan_sq))
                    + sin_two_phi * (1.0 + (1.0 - tan_sq) * cos_two_theta)
                )
                - 4.0 * target / s2
                + 3.0
            )
            assert abs(direct - eliminated) < 1e-10
            checked += 1


class TestMuFromConstraint:
    def test_cos_lambda_zero_reduction(self, geom_pi8):
        mu = mu_from_constraint(PI / 2, 0.3, 1.1, 0.1, geom_pi8)
        assert math.isclose(math.sin(2 * mu), 0.6, abs_tol=1e-14)

    def test_zero_error_case(self, geom_pi8):
        mu = mu_from_constraint(PI / 2, 0.0, 0.0, 0.0, geom_pi8)
        assert math.isclose(mu, PI / 4, abs_tol=1e-12)

    def test_worked_example_mu(self, geom_pi8):
        mu = mu_from_constraint(
            0.3 * PI, 0.1 * PI, 0.75 * PI, 0.2, geom_pi8
        )
        assert abs(mu / PI - 0.156816) < 1e-5

    def test_default_branch_solves_constraint(self, geom_pi8):
        for target in (0.05, 0.2, 0.3):
            mu = mu_from_constraint(
                0.4 * PI, 0.2 * PI, 0.6 * PI, target, geom_pi8
            )
            assert math.cos(2 * mu) >= -1e-12
            params = ProbeParams(
                lam=0.4 * PI, mu=mu, theta=0.2 * PI, phi=0.6 * PI
            )
            e = error_rate(coefficients(params), geom_pi8)
            assert abs(e - target) < 1e-12

    def test_singular_lambda_refused(self, geom_pi8):
        with pytest.raises(SingularLambdaError):
            mu_from_constraint(0.0, 0.3, 0.3, 0.1, geom_pi8)

    def test_infeasible_target(self):
        geom = SignalGeometry(PI / 12)  # sin^2(2a) = 1/4
        with pytest.raises(InfeasibleConstraintError):
            mu_from_constraint(PI / 2, 0.0, 0.0, 0.4, geom)

    def test_error_rate_domain(self, geom_pi8):
        with pytest.raises(DomainError):
            mu_from_constraint(PI / 2, 0.0, 0.0, 0.5, geom_pi8)

    @pytest.mark.parametrize(
        "alpha",
        [1e-3, PI / 10, PI / 8, 0.7, PI / 4 - 1e-5, 0.785398, PI / 4 - 1e-9,
         math.nextafter(PI / 4, 0.0)],
        ids=repr,
    )
    def test_resolved_mu_meets_e_to_50_digits(self, alpha):
        # The target is the 50-digit E at random float angles; mu is
        # solved again at (lam, theta, phi).  sin^2(pi/4 - mu) =
        # (E - cos^2(lam) P) / (sin^2(2a) sin^2(lam)) keeps E to 1e-14
        # relative (2.4e-15 at worst) up to the float below pi/4; the
        # sin(2 mu) form, whose O(1) terms cancel, missed by up to 1.2e-11
        # at 1e-3, 1.9e-13 at pi/10 and 6.9e-14 below pi/4 on these draws.
        geom = SignalGeometry(alpha)
        rng = np.random.default_rng([19, int(alpha * 1e9)])
        solved = 0
        for lam, mu, theta, phi in rng.uniform(0.0, PI, (300, 4)).tolist():
            target = float(exact_error_rate(lam, mu, theta, phi, alpha))
            if not 0.0 < target < 0.5:
                continue
            # Every E an angle set has is met again: none is refused.
            new_mu = mu_from_constraint(lam, theta, phi, target, geom)
            solved += 1
            assert math.cos(2.0 * new_mu) >= -1e-12
            e = exact_error_rate(lam, new_mu, theta, phi, alpha)
            assert abs(e - target) <= 1e-14 * target
        assert solved >= 100


class TestRenyiInfo:
    def test_examples(self):
        assert renyi_info(1.0) == 0.0
        assert renyi_info(0.0) == 1.0
        assert math.isclose(
            renyi_info(1.0 / 3.0), math.log2(17.0 / 9.0), abs_tol=1e-15
        )
        assert type(renyi_info(0.25)) is float
        # An overlap just past +-1, within tolerance, clamps to no gain.
        assert renyi_info(1.0 + 1e-13) == renyi_info(-1.0 - 1e-13) == 0.0

    def test_monotone_decreasing_in_magnitude(self):
        values = [renyi_info(q) for q in np.linspace(0.0, 1.0, 101)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert renyi_info(-1.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            renyi_info(1.001)

    @pytest.mark.parametrize("bad", [1.001, -1.001, math.nan])
    def test_domain_error_elementwise(self, bad):
        # Over a list of overlaps, the first bad one raises with its value.
        with pytest.raises(DomainError) as info:
            [renyi_info(q) for q in (0.5, bad, 0.0)]
        assert str(info.value) == f"|overlap| must not exceed 1; got {bad!r}"
