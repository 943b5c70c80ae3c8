import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from qkdprobe import (
    DistillationConfig,
    SignalGeometry,
    asymptotic_capacity,
    capacity_curve,
    compression_level,
    defense_frontier,
    inverse_erf,
    optimal_overlap,
    pa_empirical_check,
    pa_shannon_bound,
    renyi_information,
    xi,
)
from qkdprobe import distill
from qkdprobe.distill import (
    CapacityPoint,
    FrontierResult,
    _golden_section_max,
    _renyi_envelope,
    binary_entropy,
    erf,
)
from qkdprobe.errors import DomainError, NotNormalizedError, TooLargeError
from qkdprobe.optimum import (
    max_error_rate,
    optimal_renyi_bits,
    peak_error_rate,
)

PI = math.pi
ORACLE_ALPHAS = [PI / 12, PI / 10, PI / 8, PI / 6]
# 24 angles across (0, pi/4), both branches, for the capacity oracle.
GRID_ALPHAS = [PI / 4 * (i + 0.5) / 24 for i in range(24)]

# Pinned on first verified computation (bisection of the capacity formula
# at alpha = pi/8 to 1e-9).
CAPACITY_ZERO_CROSSING = 0.3058921690
# Regression pins of the capacity curve at alpha = pi/8.
CAPACITY_PINS = {
    0.0: 0.5,
    0.02: 0.43561646671478965,
    0.05: 0.3503751107762119,
    0.08: 0.2769701704729772,
    0.11: 0.21390300324497993,
}


class TestRenyiInformation:
    @pytest.mark.parametrize("l_bits", range(13))
    def test_uniform_is_zero(self, l_bits):
        probs = np.full(2**l_bits, 2.0**-l_bits)
        assert renyi_information(probs, l_bits) == 0.0

    @pytest.mark.parametrize("l_bits", range(13))
    def test_point_mass_is_l(self, l_bits):
        probs = np.zeros(2**l_bits)
        probs[0] = 1.0
        assert renyi_information(probs, l_bits) == float(l_bits)

    def test_skewed_single_bit(self):
        expected = 1.0 + math.log2(10.0 / 16.0)
        assert math.isclose(
            renyi_information([0.75, 0.25], 1), expected, abs_tol=1e-15
        )

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            renyi_information([0.5, 0.6], 1)

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            renyi_information([0.5, 0.25, 0.25], 1)

    def test_bounds_over_random_distributions(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            raw = rng.random(16)
            probs = raw / raw.sum()
            info = renyi_information(probs, 4)
            assert -1e-12 <= info <= 4.0


class TestPaShannonBound:
    def test_examples(self):
        assert math.isclose(pa_shannon_bound(3.0, 3.0), 1.0 / math.log(2.0))
        assert math.isclose(
            pa_shannon_bound(0.0, 10.0), 2.0**-10 / math.log(2.0)
        )
        assert math.isclose(
            pa_shannon_bound(0.0, 10.0), 1.409e-3, rel_tol=1e-3
        )
        assert pa_shannon_bound(4.0, 400.0) < 1e-100


class TestPaEmpiricalCheck:
    def test_uniform_source_holds(self):
        probs = np.full(2**8, 2.0**-8)
        result = pa_empirical_check(8, 2, probs, 100, seed=1)
        assert result.holds
        assert result.observed_info <= result.bound + 3 * result.mc_sigma

    def test_point_mass_analytic_comparison(self):
        probs = np.zeros(2**6)
        probs[5] = 1.0
        for s in range(7):
            result = pa_empirical_check(6, s, probs, 10, seed=2)
            # Output is deterministic: observed info is exactly l - s,
            # and the bound 2^(l-s)/ln2 >= l - s always.
            assert math.isclose(result.observed_info, 6 - s, abs_tol=1e-12)
            assert result.holds

    def test_partially_known_source(self):
        # 64 equiprobable outcomes of 10 bits: collision information 4.
        probs = np.zeros(2**10)
        probs[:64] = 1.0 / 64.0
        result = pa_empirical_check(10, 6, probs, 500, seed=42)
        assert math.isclose(
            renyi_information(probs, 10), 4.0, abs_tol=1e-12
        )
        assert result.holds

    def test_size_guard(self):
        probs = np.full(2**15, 2.0**-15)
        with pytest.raises(TooLargeError):
            pa_empirical_check(15, 3, probs, 10, seed=0)

    def test_randomized_configurations_hold(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            l_bits = int(rng.integers(4, 11))
            s = int(rng.integers(1, l_bits))
            raw = rng.random(2**l_bits) ** 3
            probs = raw / raw.sum()
            result = pa_empirical_check(
                l_bits, s, probs, 200, seed=trial
            )
            assert result.holds


class TestErrorFunction:
    def test_matches_stdlib_erf(self):
        for z in np.linspace(-6.0, 6.0, 241):
            assert abs(erf(float(z)) - math.erf(float(z))) < 1e-14

    def test_inverse_examples(self):
        assert inverse_erf(0.0) == 0.0
        assert math.isclose(
            inverse_erf(0.5), 0.4769362762044699, abs_tol=1e-12
        )
        assert math.isclose(
            inverse_erf(0.5),
            float(scipy.special.erfinv(0.5)),
            abs_tol=1e-14,
        )

    @pytest.mark.parametrize(
        "y", [-0.999, -0.9, -0.5, 0.0, 0.5, 0.9, 0.999]
    )
    def test_round_trip(self, y):
        assert abs(erf(inverse_erf(y)) - y) < 1e-12

    def test_domain(self):
        for y in (-1.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                inverse_erf(y)


class TestXi:
    def test_pinned_value(self):
        # inverse_erf(0.99)/100; cross-checked against scipy and an
        # arbitrary-precision evaluation.
        assert math.isclose(
            xi(5000, 0.01), 0.018213863677, abs_tol=1e-10
        )

    def test_limits(self):
        assert xi(5000, 0.999999) < 1e-5
        assert xi(10**9, 0.01) < 1e-4
        assert xi(100, 0.01) > xi(10_000, 0.01)

    def test_domain(self):
        with pytest.raises(DomainError):
            xi(0, 0.5)
        with pytest.raises(DomainError):
            xi(100, 0.0)


def envelope_gain(error_rate, geom):
    """I*(E) one float at a time: the optimal gain at min(E, E_pk)."""
    return optimal_overlap(
        min(error_rate, peak_error_rate(geom)), geom
    ).renyi_bits


def clamped_gain(error_rate, geom):
    """The former frontier's gain: the argument clamped to the domain edge."""
    edge = min(max_error_rate(geom), 0.5 - 1e-12)
    return optimal_overlap(min(error_rate, edge), geom).renyi_bits


def loop_frontier(config, geom, gain=envelope_gain):
    """Reference defense frontier: one scalar Renyi gain per error count."""
    n = config.n
    allowance = xi(n, config.p_fail)
    best = -math.inf
    best_e = 0
    for e in range(config.e_t + 1):
        value = n * (1.0 - e / n) * gain(e / n + allowance, geom) + (
            allowance * n * math.sqrt(1.0 - e / n)
        )
        if value > best:
            best = value
            best_e = e
    return FrontierResult(t_f=best, argmax_e=best_e, xi=allowance)


def inner_gain(error_rate, geom):
    """(1 - E) I*(E) for an array of error rates."""
    peak = peak_error_rate(geom)
    return (1.0 - error_rate) * optimal_renyi_bits(
        np.minimum(error_rate, peak), geom
    )


def grid_capacity(error_rate, geom, step=1e-4):
    """Reference capacity: the inner maximum over a dense grid on [0, E],
    refined by golden section around the best grid point."""

    def gain(e_prime):
        return float(inner_gain(np.array([e_prime]), geom)[0])

    if error_rate == 0.0:
        best_x = 0.0
    else:
        grid = np.linspace(0.0, error_rate, max(2, int(error_rate / step) + 1))
        k = int(np.argmax(inner_gain(grid, geom)))
        lo = float(grid[max(0, k - 1)])
        hi = float(grid[min(len(grid) - 1, k + 1)])
        best_x = _golden_section_max(gain, lo, hi)
        if gain(float(grid[k])) > gain(best_x):
            best_x = float(grid[k])
    return 0.5 * (1.0 - error_rate - gain(best_x))


class TestRenyiEnvelope:
    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_monotone_and_never_below_gain(self, alpha):
        geom = SignalGeometry(alpha)
        peak = peak_error_rate(geom)
        rates = np.linspace(0.0, max_error_rate(geom), 2001)
        envelope = _renyi_envelope(rates, geom)
        gain = optimal_renyi_bits(rates, geom)
        assert np.all(envelope >= gain)
        below = rates <= peak
        assert np.array_equal(envelope[below], gain[below])
        assert np.all(envelope[~below] == 1.0)
        assert np.all(np.diff(envelope) >= 0.0)

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_one_bit_from_peak_to_half(self, alpha):
        geom = SignalGeometry(alpha)
        peak = peak_error_rate(geom)
        for rate in (peak, max_error_rate(geom), 0.5 * (peak + 0.5), 0.4999):
            value = _renyi_envelope(rate, geom)
            assert type(value) is float and value == 1.0


class TestFrontierOracle:
    """The blocked array frontier against the per-count loop, bit for bit."""

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    @pytest.mark.parametrize("fraction", [0.05, 0.7])
    def test_matches_loop(self, alpha, n, fraction):
        # e_t = 0.7 n runs past the peak error rate at every alpha, and at
        # n = 10^5 spans two blocks of FRONTIER_BLOCK = 2^16 counts.
        geom = SignalGeometry(alpha)
        config = DistillationConfig(n=n, e_t=int(fraction * n), p_fail=0.01)
        got = defense_frontier(config, geom)
        assert got == loop_frontier(config, geom)
        assert type(got.t_f) is float and type(got.argmax_e) is int

    @pytest.mark.parametrize("block", [1, 7, 256])
    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_block_size_does_not_change_result(
        self, monkeypatch, block, alpha
    ):
        geom = SignalGeometry(alpha)
        config = DistillationConfig(n=2000, e_t=1400, p_fail=0.1)
        want = loop_frontier(config, geom)
        monkeypatch.setattr(distill, "FRONTIER_BLOCK", block)
        assert config.e_t + 1 > block
        assert defense_frontier(config, geom) == want

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_never_below_clamped_frontier(self, alpha):
        # The former frontier clamped e/n + xi to the domain edge, where
        # the gain is 0.  Below the peak the two agree exactly; at n = 5
        # xi alone passes the peak and the envelope gives more.
        geom = SignalGeometry(alpha)
        peak = peak_error_rate(geom)
        regimes = set()
        for n, p_fail in itertools.product((5, 1000), (0.01, 0.5)):
            for e_t in range(0, n + 1, max(1, n // 20)):
                config = DistillationConfig(n=n, e_t=e_t, p_fail=p_fail)
                got = defense_frontier(config, geom)
                old = loop_frontier(config, geom, gain=clamped_gain)
                assert got.t_f >= old.t_f
                below = e_t / n + got.xi <= peak
                if below:
                    assert got == old
                regimes.add((below, got.t_f > old.t_f))
        assert regimes == {(True, False), (False, False), (False, True)}

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_monotone_across_peak(self, alpha):
        geom = SignalGeometry(alpha)
        peak = peak_error_rate(geom)
        n = 2000
        allowance = xi(n, 0.1)
        # First count whose gain argument reaches the peak; beyond it the
        # envelope is flat, so the frontier's terms fall with e.
        at_peak = math.ceil((peak - allowance) * n)
        assert 0 < at_peak < n
        t_values = []
        for e_t in range(0, n + 1, 25):
            frontier = defense_frontier(
                DistillationConfig(n=n, e_t=e_t, p_fail=0.1), geom
            )
            assert frontier.argmax_e <= at_peak
            t_values.append(frontier.t_f)
        assert all(a <= b for a, b in zip(t_values, t_values[1:]))


class TestCapacityOracle:
    @pytest.mark.parametrize("alpha", GRID_ALPHAS)
    def test_inner_gain_is_unimodal(self, alpha):
        geom = SignalGeometry(alpha)
        rates = np.linspace(0.0, peak_error_rate(geom), 20001)
        steps = np.diff(inner_gain(rates, geom))
        k = int(np.argmax(steps <= 0.0))
        assert 0 < k < len(steps)
        assert np.all(steps[:k] > 0.0) and np.all(steps[k:] < 0.0)

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS + GRID_ALPHAS)
    def test_matches_per_point_grid(self, alpha):
        geom = SignalGeometry(alpha)
        for fraction in (0.0, 0.05, 0.1, 0.3, 0.6, 0.9, 1.0):
            error_rate = fraction * 0.49
            got = asymptotic_capacity(error_rate, geom)
            want = grid_capacity(error_rate, geom)
            assert type(got.capacity) is float
            assert abs(got.capacity - want) <= 1e-12
            assert got.capacity <= want + 1e-15

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_linear_past_inner_argmax(self, alpha):
        geom = SignalGeometry(alpha)
        star = asymptotic_capacity(0.49, geom).inner_argmax
        assert 0.0 < star < peak_error_rate(geom)
        at_star = asymptotic_capacity(star, geom)
        assert at_star.inner_argmax == star
        for error_rate in np.linspace(star, 0.49, 9):
            point = asymptotic_capacity(float(error_rate), geom)
            assert point.inner_argmax == star
            assert math.isclose(
                point.capacity,
                at_star.capacity - (error_rate - star) / 2.0,
                abs_tol=1e-15,
            )

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_equals_boundary_below_inner_argmax(self, alpha):
        # Below E* the inner maximum sits at E itself.
        geom = SignalGeometry(alpha)
        star = asymptotic_capacity(0.49, geom).inner_argmax
        for error_rate in np.linspace(0.0, star, 7)[:-1]:
            point = asymptotic_capacity(float(error_rate), geom)
            assert point.inner_argmax == error_rate
            assert point.capacity == 0.5 * (
                1.0 - error_rate - float(inner_gain(error_rate, geom))
            )


class TestDefenseFrontier:
    def test_zero_errors_small_allowance(self, geom_pi8):
        config = DistillationConfig(n=10**6, e_t=0, p_fail=0.999999)
        frontier = defense_frontier(config, geom_pi8)
        assert frontier.argmax_e == 0
        assert 0.0 <= frontier.t_f / config.n < 1e-4

    def test_zero_error_dominated_by_allowance_term(self, geom_pi8):
        # At e = 0 the frontier is n I(xi) + xi n, slightly above xi n.
        config = DistillationConfig(n=10**4, e_t=0, p_fail=0.01)
        frontier = defense_frontier(config, geom_pi8)
        assert frontier.t_f >= frontier.xi * config.n
        assert frontier.t_f <= 8.0 * frontier.xi * config.n

    def test_monotone_in_error_count(self, geom_pi8):
        values = [
            defense_frontier(
                DistillationConfig(n=10**4, e_t=e_t, p_fail=0.01), geom_pi8
            ).t_f
            for e_t in (0, 100, 500, 1000)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_converges_to_asymptotic_inner_max(self, geom_pi8):
        point = asymptotic_capacity(0.1, geom_pi8)
        inner_max = 1.0 - 0.1 - 2.0 * point.capacity
        gaps = []
        for n in (10**3, 10**5):
            config = DistillationConfig(n=n, e_t=n // 10, p_fail=0.5)
            frontier = defense_frontier(config, geom_pi8)
            gaps.append(abs(frontier.t_f / n - inner_max))
        assert gaps[1] < gaps[0]

    def test_above_family_maximum_holds_one_bit(self):
        # xi alone exceeds the family domain edge E = 1/4 at pi/12: the
        # former clamp put every count at the edge, where the gain is 0.
        geom = SignalGeometry(PI / 12)
        config = DistillationConfig(n=20, e_t=6, p_fail=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frontier = defense_frontier(config, geom)
        assert frontier.xi > max_error_rate(geom)
        assert frontier == loop_frontier(config, geom)
        assert frontier.argmax_e == 0
        assert math.isclose(
            frontier.t_f, config.n * (1.0 + frontier.xi), rel_tol=1e-15
        )
        clamped = loop_frontier(config, geom, clamped_gain)
        assert math.isclose(
            clamped.t_f, config.n * frontier.xi, rel_tol=1e-12
        )

    def test_no_warning_in_domain(self, geom_pi8):
        config = DistillationConfig(n=1000, e_t=50, p_fail=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            defense_frontier(config, geom_pi8)


class TestCompressionLevel:
    def test_additivity_of_integer_leakage(self, geom_pi8):
        base = DistillationConfig(n=10**4, e_t=500, p_fail=0.01)
        with_leak = DistillationConfig(
            n=10**4, e_t=500, p_fail=0.01, q_leak=100.0
        )
        assert compression_level(with_leak, geom_pi8) == compression_level(
            base, geom_pi8
        ) + 100

    def test_matches_frontier(self, geom_pi8):
        config = DistillationConfig(n=10**4, e_t=500, p_fail=0.01)
        frontier = defense_frontier(config, geom_pi8)
        assert compression_level(config, geom_pi8) == math.ceil(frontier.t_f)

    def test_vanishing_allowance_limit(self, geom_pi8):
        # With no errors and the allowance sent to zero the frontier
        # vanishes; the rounded-up compression collapses toward zero
        # (ceil keeps it at one bit for any positive frontier).
        t_values = []
        s_values = []
        for p_fail in (0.9, 0.999, 0.999999):
            config = DistillationConfig(n=10**6, e_t=0, p_fail=p_fail)
            t_values.append(defense_frontier(config, geom_pi8).t_f)
            s_values.append(compression_level(config, geom_pi8))
        assert t_values[0] > t_values[1] > t_values[2]
        assert t_values[2] < 1e-2
        assert s_values[0] > s_values[1] > s_values[2]
        assert s_values[2] <= 1

    def test_validation(self):
        with pytest.raises(DomainError):
            DistillationConfig(n=0, e_t=0, p_fail=0.5)
        with pytest.raises(DomainError):
            DistillationConfig(n=10, e_t=11, p_fail=0.5)
        with pytest.raises(DomainError):
            DistillationConfig(n=10, e_t=1, p_fail=1.0)
        with pytest.raises(DomainError):
            DistillationConfig(n=10, e_t=1, p_fail=0.5, nu=-1.0)


class TestAsymptoticCapacity:
    @pytest.mark.parametrize("alpha", [PI / 12, PI / 9, PI / 8])
    def test_zero_error_capacity_is_half(self, alpha):
        point = asymptotic_capacity(0.0, SignalGeometry(alpha))
        assert point.capacity == 0.5
        assert point.inner_argmax == 0.0

    def test_standard_angle_is_best(self):
        # The standard protocol leaks the least: capacity at fixed E is
        # maximal at alpha = pi/8.
        capacities = {
            alpha: asymptotic_capacity(0.05, SignalGeometry(alpha)).capacity
            for alpha in (PI / 12, PI / 10, PI / 9, PI / 8)
        }
        assert capacities[PI / 8] == max(capacities.values())
        assert (
            capacities[PI / 12]
            < capacities[PI / 10]
            < capacities[PI / 9]
            < capacities[PI / 8]
        )

    def test_regression_pins(self, geom_pi8):
        for target, expected in CAPACITY_PINS.items():
            assert math.isclose(
                asymptotic_capacity(target, geom_pi8).capacity,
                expected,
                abs_tol=1e-12,
            )

    def test_zero_crossing_location(self, geom_pi8):
        lo, hi = 0.25, 0.4
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if asymptotic_capacity(mid, geom_pi8).capacity > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - CAPACITY_ZERO_CROSSING) < 1e-7

    def test_domain(self):
        geom = SignalGeometry(PI / 12)  # family domain edge at E = 1/4
        star = asymptotic_capacity(0.49, geom).inner_argmax
        above = asymptotic_capacity(0.3, geom)
        assert above.inner_argmax == star
        assert math.isclose(
            above.capacity,
            asymptotic_capacity(star, geom).capacity - (0.3 - star) / 2.0,
            abs_tol=1e-15,
        )
        for error_rate in (-1e-12, 0.5, 0.7, math.nan):
            with pytest.raises(DomainError):
                asymptotic_capacity(error_rate, geom)


class TestCapacityCurve:
    def test_single_step(self, geom_pi8):
        curve = capacity_curve(geom_pi8, 0.07, 0.2, 1)
        assert len(curve) == 1
        assert curve[0] == asymptotic_capacity(0.07, geom_pi8)

    def test_monotone_nonincreasing(self, geom_pi8):
        curve = capacity_curve(geom_pi8, 0.0, 0.15, 31)
        caps = [point.capacity for point in curve]
        assert all(a >= b for a, b in zip(caps, caps[1:]))

    def test_endpoints_bit_exact(self, geom_pi8):
        curve = capacity_curve(geom_pi8, 0.01, 0.11, 5)
        assert curve[0] == asymptotic_capacity(0.01, geom_pi8)
        assert curve[-1] == asymptotic_capacity(0.11, geom_pi8)


class TestBinaryEntropy:
    def test_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        assert math.isclose(binary_entropy(0.11), 0.499916, abs_tol=1e-4)
