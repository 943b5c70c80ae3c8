import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qkdprobe import SignalGeometry, optimum
from qkdprobe import roots as roots_module
from qkdprobe.errors import DomainError
from qkdprobe.optimum import (
    lambda_cubic_coefficients,
    quintic_coefficients,
    sin2phi_cubic_coefficients,
)
from qkdprobe.roots import (
    _newton_polish,
    polynomial_value,
    real_roots_in_interval,
)

PI = math.pi
# The error-rate grid of the possibility-(D) sweep.
D_RATES = [0.025 * k for k in range(1, 19)]


@st.composite
def planted_polynomials(draw):
    """(coeffs, lo, hi, roots): simple roots planted in and around
    [lo, hi], at least 1e-2 apart and 1e-3 from either end, times an
    optional root-free quadratic; roots are the planted ones in [lo, hi].
    """
    lo = draw(st.floats(min_value=-3.0, max_value=1.0))
    hi = lo + draw(st.floats(min_value=0.05, max_value=4.0))
    planted = sorted(
        draw(
            st.lists(
                st.floats(min_value=lo - 0.5, max_value=hi + 0.5),
                min_size=1,
                max_size=4,
            )
        )
    )
    assume(all(b - a >= 1e-2 for a, b in zip(planted, planted[1:])))
    assume(all(abs(r - lo) >= 1e-3 and abs(r - hi) >= 1e-3 for r in planted))
    coeffs = np.poly(planted) * draw(st.sampled_from([1.0, -1.0, 0.01, 250.0]))
    if draw(st.booleans()):
        coeffs = np.polymul(coeffs, [1.0, 0.0, draw(st.floats(0.01, 4.0))])
    inside = [r for r in planted if lo <= r <= hi]
    return coeffs.tolist(), lo, hi, inside


@st.composite
def planted_double_roots(draw):
    """(coeffs, lo, hi, roots): a double root in [lo, hi], at least 1e-3
    from either end, and up to two simple roots in and around [lo, hi],
    all at least 1e-2 apart, times an optional root-free quadratic."""
    lo = draw(st.floats(min_value=-3.0, max_value=1.0))
    hi = lo + draw(st.floats(min_value=0.05, max_value=4.0))
    double = draw(st.floats(min_value=lo + 1e-3, max_value=hi - 1e-3))
    others = draw(
        st.lists(
            st.floats(min_value=lo - 0.5, max_value=hi + 0.5), max_size=2
        )
    )
    points = sorted([double, *others])
    assume(all(b - a >= 1e-2 for a, b in zip(points, points[1:])))
    assume(all(abs(r - lo) >= 1e-3 and abs(r - hi) >= 1e-3 for r in others))
    coeffs = np.poly([double, double, *others]) * draw(
        st.sampled_from([1.0, -1.0, 0.01, 250.0])
    )
    if draw(st.booleans()):
        coeffs = np.polymul(coeffs, [1.0, 0.0, draw(st.floats(0.01, 4.0))])
    inside = [r for r in points if lo <= r <= hi]
    return coeffs.tolist(), lo, hi, inside


def residual_scale(coeffs):
    return max(abs(c) for c in coeffs)


class TestRealRootFinder:
    def test_known_quintic(self):
        # (x^2 - 1/4) x^3: roots -1/2, 0 (triple), 1/2.
        roots = real_roots_in_interval([1, 0, -0.25, 0, 0, 0])
        assert_allclose(roots, [-0.5, 0.0, 0.5], atol=1e-10)

    def test_tangent_root_recovered(self):
        # (x - 0.3123456)^2 (x + 0.7) (x^2 + 1): no sign change at the
        # double root.
        coeffs = np.polymul(
            np.polymul([1, -0.6246912, 0.3123456**2], [1, 0.7]), [1, 0, 1]
        )
        roots = real_roots_in_interval(coeffs)
        assert_allclose(roots, [-0.7, 0.3123456], atol=1e-7)

    # Possibility (D) solves two cubics and a quintic.
    @pytest.mark.parametrize("degree", [5, 3])
    def test_against_companion_matrix_oracle(self, degree):
        rng = np.random.default_rng(29)
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, degree + 1)
            if abs(coeffs[0]) < 0.05:
                coeffs[0] = 0.3
            mine = real_roots_in_interval(coeffs)
            reference = sorted(
                z.real
                for z in np.roots(coeffs)
                if abs(z.imag) < 1e-9 and -1 - 1e-9 <= z.real <= 1 + 1e-9
            )
            assert len(mine) == len(reference)
            for got, want in zip(mine, reference):
                assert abs(got - want) < 1e-7

    @pytest.mark.parametrize("alpha", [PI / 9, PI / 8, PI / 5])
    @pytest.mark.parametrize("target", [0.1, 0.3])
    def test_model_polynomial_residuals(self, alpha, target):
        geom = SignalGeometry(alpha)
        for coeffs in (
            sin2phi_cubic_coefficients(target, geom),
            lambda_cubic_coefficients(target, geom),
            quintic_coefficients(target, geom),
        ):
            scale = residual_scale(coeffs)
            for root in real_roots_in_interval(coeffs, -2.0, 2.0):
                assert abs(polynomial_value(coeffs, root)) < 1e-9 * scale

    def test_degenerate_inputs(self):
        assert real_roots_in_interval([0.0, 0.0, 1.0]) == []
        assert real_roots_in_interval([1.0]) == []
        assert real_roots_in_interval([]) == []

    def test_no_real_roots(self):
        assert real_roots_in_interval([1.0, 0.0, 1.0]) == []

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (0.5, 0.5),
            (1.0, -1.0),
            (math.nan, 1.0),
            # An infinite end has no value to bisect from; taking one
            # would drop roots of x^2 - 1/4.
            (-math.inf, 1.0),
            (-1.0, math.inf),
            (-math.inf, math.inf),
        ],
    )
    def test_rejects_empty_interval(self, lo, hi):
        with pytest.raises(DomainError):
            real_roots_in_interval([1.0, 0.0, -0.25], lo, hi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        with pytest.raises(DomainError):
            real_roots_in_interval([1.0, bad, -0.25])




# possibility_d_feasibility(SignalGeometry(alpha), [E]).min_joint_residual
# where it is finite, from a 60-digit solve of the same float coefficients:
#     mp.dps = 60; the real roots of sin2phi_cubic_coefficients,
#     lambda_cubic_coefficients and quintic_coefficients (floats from
#     qkdprobe, taken exactly as mpf) by mp.polyroots(maxsteps=500,
#     extraprec=400), kept where |imag| < 1e-40 and inside the library's
#     intervals; the Lambda roots mapped through x = (Lambda - c2) / s2
#     with s2, c2 the float sin^2 2a, cos^2 2a; ghosts |c2 + s2 x| <=
#     LAMBDA_GHOST_TOL dropped; then the library's two chains, with
#     x* = 1 - 2E / s2; mp.nstr(min, 30).
# Every other (alpha, E) of PI/10, PI/9, PI/6, PI/5, PI/8 -+ 1e-3 by
# D_RATES has no joint chain: its residual is inf.
D_RESIDUAL_TABLE = {
    (PI / 6, D_RATES[14]): 0.0672151498295697634355844713029,
    (PI / 6, D_RATES[15]): 0.111350090264768806215187120827,
    (PI / 6, D_RATES[16]): 0.231879402649559949887679172602,
    (PI / 6, D_RATES[17]): 0.178247292043063612118068525501,
    (PI / 5, D_RATES[14]): 0.0219457707461291798368489534138,
    (PI / 5, D_RATES[15]): 0.0909034843533111838424731223484,
    (PI / 5, D_RATES[16]): 0.10962600771723698636945770847,
    (PI / 5, D_RATES[17]): 0.101960682000110897565089925869,
    (PI / 8 - 1e-3, D_RATES[14]): 0.0149421163937901715403617115579,
    (PI / 8 - 1e-3, D_RATES[15]): 0.0164025168136743448509317358331,
    (PI / 8 - 1e-3, D_RATES[16]): 0.0264151988245274685475093398751,
    (PI / 8 - 1e-3, D_RATES[17]): 0.0350085700521159786227847964402,
    (PI / 8 + 1e-3, D_RATES[13]): 0.562605706026320396801591461092,
    (PI / 8 + 1e-3, D_RATES[14]): 0.427101927690335462292607359982,
    (PI / 8 + 1e-3, D_RATES[15]): 0.299766105471974590338205834755,
    (PI / 8 + 1e-3, D_RATES[16]): 0.183717813358592367604566550264,
    (PI / 8 + 1e-3, D_RATES[17]): 0.0849342740599957240324914357233,
}


class TestRealRootOracles:
    """Properties of the real roots that no particular algorithm fixes."""

    @given(planted_polynomials())
    @settings(max_examples=300, deadline=None)
    def test_planted_roots(self, case):
        coeffs, lo, hi, planted = case
        roots = real_roots_in_interval(coeffs, lo, hi)
        assert len(roots) == len(planted), (roots, planted)
        for got, want in zip(roots, planted):
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)

    @given(planted_double_roots())
    @settings(max_examples=300, deadline=None)
    def test_planted_double_roots(self, case):
        # Each planted root comes back once, the double one within 1e-7.
        coeffs, lo, hi, planted = case
        roots = real_roots_in_interval(coeffs, lo, hi)
        assert len(roots) == len(planted), (roots, planted)
        for got, want in zip(roots, planted):
            assert math.isclose(got, want, rel_tol=1e-7, abs_tol=1e-7)

    @pytest.mark.parametrize(
        "alpha", [PI / 10, PI / 9, PI / 6, PI / 5, PI / 8 - 1e-3, PI / 8 + 1e-3]
    )
    def test_possibility_d_residual_table(self, alpha):
        geom = SignalGeometry(alpha)
        for target in D_RATES:
            got = optimum.possibility_d_feasibility(
                geom, [target]
            ).min_joint_residual
            want = D_RESIDUAL_TABLE.get((alpha, target), math.inf)
            if math.isinf(want):
                assert got == math.inf, (target, got)
            else:
                assert math.isclose(got, want, rel_tol=1e-10), (target, got)

    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            # 1e308 (x^2 - 1): the ends evaluate to inf and p' overflows.
            ([1e308, 0.0, -1e308], [-1.0, 1.0]),
            # 1e307 (x^5 + x - 1): the one real root of x^5 + x - 1.
            (
                [1e307, 0.0, 0.0, 0.0, 1e307, -1e307],
                [0.75487766624669276005],
            ),
        ],
    )
    def test_overflowing_values(self, coeffs, expected, monkeypatch):
        calls = []

        def counting_polish(*args):
            calls.append(args)
            return _newton_polish(*args)

        monkeypatch.setattr(roots_module, "_newton_polish", counting_polish)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = real_roots_in_interval(coeffs, -2.0, 2.0)
        assert_allclose(roots, expected, rtol=1e-12)
        assert 0 < len(calls) <= 20

    def test_double_root(self):
        # x^2 keeps its sign on both sides of its root: no sign change.
        roots = real_roots_in_interval([1.0, 0.0, 0.0], -1.5, 1.5)
        assert len(roots) == 1 and abs(roots[0]) < 1e-12

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 0.0)])
    def test_double_root_at_an_end(self, lo, hi):
        # The extremum of x^2 is an end of the interval, with no piece of
        # the interval on one side of it.
        roots = real_roots_in_interval([1.0, 0.0, 0.0], lo, hi)
        assert len(roots) == 1 and abs(roots[0]) < 1e-12

    @pytest.mark.parametrize(
        "coeffs,lo,hi,expected",
        [
            ([1.0, 0.0, -1.0], -1.0, 1.0, [-1.0, 1.0]),
            ([1.0, 0.0, -0.25], -0.5, 0.5, [-0.5, 0.5]),
            ([1.0, -0.5], 0.5, 1.0, [0.5]),
        ],
    )
    def test_roots_at_the_ends(self, coeffs, lo, hi, expected):
        # p is 0 at an end, so no piece shows a sign change there; the
        # ends are candidates of their own.
        assert real_roots_in_interval(coeffs, lo, hi) == expected

    def test_extremum_between_close_roots_is_no_root(self):
        # x^2 - 1e-12 is within the acceptance tolerance at its minimum,
        # but changes sign on both sides of it: two roots, not three.
        roots = real_roots_in_interval([1.0, 0.0, -1e-12])
        assert_allclose(roots, [-1e-6, 1e-6], rtol=1e-12)

    def test_shallow_extremum_between_roots_is_no_root(self):
        # p is 1.3e-9 at its maximum between the second and third roots,
        # within the acceptance tolerance of 1.7e-9, but it changes sign on
        # both sides of it.
        planted = [
            0.4173578706579208,
            0.42420525147321914,
            0.4282248291094218,
            0.46196165261357586,
        ]
        roots = real_roots_in_interval(np.poly(planted).tolist())
        assert_allclose(roots, planted, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            # x^2 - (1 + 2e-10): Newton's method from either end runs out
            # of [-1, 1], though |p(+-1)| is within the tolerance.
            ([1.0, 0.0, -(1.0 + 2e-10)], []),
            # (x - (1 + 1e-14)) (x + 5): p(1) = -6e-14.
            (np.poly([1.0 + 1e-14, -5.0]).tolist(), []),
        ],
    )
    def test_root_just_outside_is_not_reported_at_an_end(
        self, coeffs, expected
    ):
        assert real_roots_in_interval(coeffs) == expected

    @pytest.mark.parametrize(
        "double,others,scale,quadratic",
        [
            (0.3123456, [0.33, -0.5], 1.0, None),
            # p rounds to exactly 0 around the double root, and is
            # negative on both sides.
            (-0.40697737783253096, [-1.2489940333313618], -1.0, None),
            # p rounds to below 0 around the double root.
            (
                0.6540389714566077,
                [-0.3012669398626211, -0.019535547551120747],
                0.01,
                None,
            ),
            (
                0.7031681544222563,
                [-0.7635081295494572, 1.1072550703595527],
                250.0,
                None,
            ),
            (-0.5825095089020167, [], -1.0, 0.5),
            (
                -0.8569653946693957,
                [0.2826526343208313, 1.0810104520049886],
                1.0,
                None,
            ),
            (0.95, [0.93], 1.0, 2.0),
            (-0.1, [-0.05, -0.16], 0.01, 0.01),
            (1 / 3, [0.36, -0.9], 250.0, None),
        ],
    )
    def test_double_root_reported_once(self, double, others, scale, quadratic):
        # scale (x - double)^2 prod (x - other) [(x^2 + quadratic)]: the
        # float polynomial is rounding near the double root, where it may
        # change sign twice within ~1e-8.
        coeffs = np.poly([double, double, *others]) * scale
        if quadratic is not None:
            coeffs = np.polymul(coeffs, [1.0, 0.0, quadratic])
        expected = sorted([double, *(x for x in others if -1 <= x <= 1)])
        roots = real_roots_in_interval(coeffs.tolist())
        assert len(roots) == len(expected), roots
        assert_allclose(roots, expected, rtol=0, atol=1e-7)
