import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qkdprobe import SignalGeometry, optimum
from qkdprobe import roots as roots_module
from qkdprobe.errors import DomainError, LeadingZeroError
from qkdprobe.optimum import (
    lambda_cubic_coefficients,
    quintic_coefficients,
    sin2phi_cubic_coefficients,
)
from qkdprobe.roots import (
    _bisect,
    _deflate,
    _newton_polish,
    cardano_roots,
    polynomial_value,
    real_roots_in_interval,
)

PI = math.pi
# The error-rate grid of the possibility-(D) sweep.
D_RATES = [0.025 * k for k in range(1, 19)]


def scalar_real_roots(coeffs, lo=-1.0, hi=1.0, *, samples=2001):
    """real_roots_in_interval with a scalar Horner scan: the test oracle.

    Samples, bisects, polishes, deflates and accepts exactly as the
    library does, one Python value at a time.
    """
    coeffs = [float(c) for c in coeffs]
    while coeffs and coeffs[0] == 0.0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    scale = max(abs(c) for c in coeffs)
    accept_tol = 1e-9 * max(scale, 1e-300)

    def scan(poly):
        found = []
        step = (hi - lo) / (samples - 1)
        xs = [lo + i * step for i in range(samples)]
        values = [polynomial_value(poly, x) for x in xs]
        poly_scale = max(max(abs(v) for v in values), 1e-300)
        for i, (x, v) in enumerate(zip(xs, values)):
            if abs(v) <= 1e-13 * poly_scale:
                found.append(x)
            elif i > 0 and (values[i - 1] < 0.0) != (v < 0.0):
                found.append(_bisect(poly, xs[i - 1], x))
        for i in range(1, samples - 1):
            if abs(values[i]) < abs(values[i - 1]) and abs(values[i]) <= abs(
                values[i + 1]
            ):
                found.append(xs[i])
        return found

    roots = []
    work = coeffs
    for _ in range(len(coeffs)):
        candidates = scan(work)
        fresh = []
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


@st.composite
def planted_polynomials(draw):
    """(coeffs, lo, hi): simple and double roots planted in and around
    [lo, hi], times an optional root-free quadratic."""
    lo = draw(st.floats(min_value=-3.0, max_value=1.0))
    hi = lo + draw(st.floats(min_value=0.05, max_value=4.0))
    root = st.floats(min_value=lo - 0.5, max_value=hi + 0.5)
    planted = draw(
        st.lists(
            st.tuples(root, st.sampled_from([1, 2])), min_size=1, max_size=4
        )
    )
    factors = [r for r, mult in planted for _ in range(mult)][:7]
    coeffs = np.poly(factors) * draw(
        st.sampled_from([1.0, -1.0, 0.01, 250.0])
    )
    if len(factors) <= 5 and draw(st.booleans()):
        coeffs = np.polymul(coeffs, [1.0, 0.0, draw(st.floats(0.01, 4.0))])
    return coeffs.tolist(), lo, hi


def residual_scale(coeffs):
    return max(abs(c) for c in coeffs)


def cubic_residual(coeffs, root):
    value = 0.0 + 0.0j
    for c in coeffs:
        value = value * root + c
    return abs(value)


class TestCardano:
    def test_integer_factorization(self):
        roots = cardano_roots(1.0, -6.0, 11.0, -6.0)
        assert_allclose(
            [z.real for z in roots], [1.0, 2.0, 3.0], atol=1e-12
        )
        assert all(abs(z.imag) < 1e-12 for z in roots)

    def test_cube_roots_of_unity(self):
        roots = cardano_roots(1.0, 0.0, 0.0, -1.0)
        expected = sorted(
            [
                complex(-0.5, -math.sqrt(3) / 2),
                complex(-0.5, math.sqrt(3) / 2),
                complex(1.0, 0.0),
            ],
            key=lambda z: (z.real, z.imag),
        )
        for got, want in zip(roots, expected):
            assert abs(got - want) < 1e-12

    def test_random_residuals(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, 4)
            if abs(coeffs[0]) < 0.05:
                coeffs[0] = 0.3
            roots = cardano_roots(*coeffs)
            scale = residual_scale(coeffs)
            for z in roots:
                assert cubic_residual(coeffs, z) < 1e-9 * scale

    def test_stationarity_cubic_instance(self):
        geom = SignalGeometry(PI / 8)
        coeffs = sin2phi_cubic_coefficients(0.2, geom)
        roots = cardano_roots(*coeffs)
        scale = residual_scale(coeffs)
        for z in roots:
            assert cubic_residual(coeffs, z) < 1e-10 * scale

    def test_leading_zero(self):
        with pytest.raises(LeadingZeroError):
            cardano_roots(0.0, 1.0, 1.0, 1.0)

    def test_deterministic_ordering(self):
        first = cardano_roots(2.0, -3.0, 4.0, -5.0)
        second = cardano_roots(2.0, -3.0, 4.0, -5.0)
        assert first == second
        reals = [z.real for z in first]
        assert reals == sorted(reals)


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

    def test_against_companion_matrix_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, 6)
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

    @pytest.mark.parametrize("samples", [1, 0, -5])
    def test_rejects_too_few_samples(self, samples):
        with pytest.raises(DomainError):
            real_roots_in_interval([1.0, 0.0, -0.25], samples=samples)

    @pytest.mark.parametrize(
        "lo,hi", [(0.5, 0.5), (1.0, -1.0), (math.nan, 1.0)]
    )
    def test_rejects_empty_interval(self, lo, hi):
        with pytest.raises(DomainError):
            real_roots_in_interval([1.0, 0.0, -0.25], lo, hi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        with pytest.raises(DomainError):
            real_roots_in_interval([1.0, bad, -0.25])


class TestScalarScanOracle:
    """The array scan returns exactly the roots of the scalar scan."""

    @pytest.mark.parametrize(
        "alpha", [PI / 10, PI / 9, PI / 8, PI / 6, PI / 5]
    )
    def test_possibility_d_polynomials(self, alpha, monkeypatch):
        solved = []

        def recording(coeffs, lo=-1.0, hi=1.0, **kwargs):
            solved.append((list(coeffs), lo, hi, kwargs))
            return real_roots_in_interval(coeffs, lo, hi, **kwargs)

        # optimum imports the root finder from its module on each call.
        monkeypatch.setattr(
            roots_module, "real_roots_in_interval", recording
        )
        optimum.possibility_d_feasibility(SignalGeometry(alpha), D_RATES)
        assert len(solved) == 3 * len(D_RATES)
        for coeffs, lo, hi, kwargs in solved:
            assert real_roots_in_interval(
                coeffs, lo, hi, **kwargs
            ) == scalar_real_roots(coeffs, lo, hi, **kwargs)

    @pytest.mark.parametrize("half_width,samples", [(1.5, 4), (3.5, 8)])
    def test_tied_samples_at_a_double_root(self, half_width, samples):
        # With a unit step the double root of x^2 sits midway between two
        # samples of exactly equal |p|; the first of the pair is the local
        # minimum that Newton polishes into the root.
        args = ([1.0, 0.0, 0.0], -half_width, half_width)
        roots = real_roots_in_interval(*args, samples=samples)
        assert roots == scalar_real_roots(*args, samples=samples)
        assert len(roots) == 1 and abs(roots[0]) < 1e-12

    @pytest.mark.parametrize(
        "coeffs",
        [[1e308, 0.0, -1e308], [1e307, 0.0, 0.0, 0.0, 1e307, -1e307]],
    )
    def test_overflowing_samples(self, coeffs):
        # Samples that overflow to inf must not warn, as float arithmetic
        # does not.
        assert real_roots_in_interval(
            coeffs, -2.0, 2.0
        ) == scalar_real_roots(coeffs, -2.0, 2.0)

    @pytest.mark.parametrize(
        "coeffs",
        [[1e308, 0.0, -1e308], [1e307, 0.0, 0.0, 0.0, 1e307, -1e307]],
    )
    def test_overflowing_samples_polish_few_candidates(
        self, coeffs, monkeypatch
    ):
        # An inf sample must not make every one of the 2001 samples a
        # zero candidate: the zero threshold comes from the finite ones.
        want = scalar_real_roots(coeffs, -2.0, 2.0)
        calls = []

        def counting_polish(*args):
            calls.append(args)
            return _newton_polish(*args)

        monkeypatch.setattr(roots_module, "_newton_polish", counting_polish)
        assert real_roots_in_interval(coeffs, -2.0, 2.0) == want
        assert 0 < len(calls) <= 20

    @given(planted_polynomials(), st.sampled_from([2, 3, 101, 2001]))
    @settings(max_examples=150, deadline=None)
    def test_planted_roots(self, case, samples):
        coeffs, lo, hi = case
        assert real_roots_in_interval(
            coeffs, lo, hi, samples=samples
        ) == scalar_real_roots(coeffs, lo, hi, samples=samples)
