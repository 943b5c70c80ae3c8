import math
import re
import warnings

import numpy as np
import pytest

from qkdprobe import (
    DistillationConfig,
    FamilyAttack,
    FamilyTag,
    ProbeParams,
    QLeakModel,
    SignalGeometry,
    SimulationConfig,
    asymptotic_capacity,
    coefficients,
    defense_frontier,
    detection_probabilities,
    error_rate,
    optimal_overlap,
)
from qkdprobe import distill
from qkdprobe import run as run_simulation
from qkdprobe import sweep as run_sweep
from qkdprobe.errors import DegenerateRunError, DomainError, OutOfDomainError
from qkdprobe.simulate import _derived_seed, resolve_attack
from qkdprobe.stream import _Generator, _stirling_bound
from qkdprobe import simulate

PI = math.pi


def sifting_sigma(m: int) -> float:
    """Binomial standard deviation of the sifted fraction n/m."""
    return math.sqrt(m * 0.25) / m


def set_e_config(**overrides):
    defaults = dict(
        m=100_000,
        geom=SignalGeometry(PI / 8),
        attack=FamilyAttack(FamilyTag.SET_E, 0.05),
        p_fail=0.01,
        q_model=QLeakModel.zero(),
        seed=4,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestRun:
    def test_deterministic(self):
        config = set_e_config()
        assert run_simulation(config) == run_simulation(config)
        different = run_simulation(set_e_config(seed=5))
        assert different != run_simulation(config)

    def test_noiseless_attack(self):
        config = set_e_config(
            attack=FamilyAttack(FamilyTag.SET_E, 0.0), p_fail=0.5, seed=3
        )
        report = run_simulation(config)
        assert report.e_t == 0
        assert report.empirical_error == 0.0
        # Rate approaches 1/2 from below; the gap is the allowance terms.
        assert 0.47 < report.empirical_rate < 0.5
        assert report.final_key_len == report.n - report.s

    def test_sifting_fraction(self):
        config = set_e_config(m=400_000)
        report = run_simulation(config)
        assert (
            abs(report.n / config.m - 0.5)
            < 3.0 * sifting_sigma(config.m)
        )

    def test_error_rate_concentration(self):
        config = set_e_config(m=400_000)
        report = run_simulation(config)
        sigma = math.sqrt(0.05 * 0.95 / report.n)
        assert abs(report.empirical_error - 0.05) < 4.0 * sigma

    def test_error_rate_concentration_over_twenty_seeds(self):
        for seed in range(20):
            report = run_simulation(set_e_config(m=50_000, seed=seed))
            sigma = math.sqrt(0.05 * 0.95 / report.n)
            assert abs(report.empirical_error - 0.05) < 4.0 * sigma

    def test_rate_near_capacity(self):
        config = set_e_config(m=400_000)
        report = run_simulation(config)
        cap = asymptotic_capacity(0.05, config.geom).capacity
        assert math.isclose(report.analytic_capacity, cap)
        assert abs(report.empirical_rate - cap) < 0.01

    def test_four_state_sampler_consistent(self):
        scalar = run_simulation(
            set_e_config(attack=FamilyAttack(FamilyTag.SET_H, 0.1), seed=5)
        )
        four_state = run_simulation(
            set_e_config(
                attack=FamilyAttack(FamilyTag.SET_H, 0.1),
                seed=5,
                four_state_sampler=True,
            )
        )
        for report in (scalar, four_state):
            sigma = math.sqrt(0.1 * 0.9 / report.n)
            assert abs(report.empirical_error - 0.1) < 4.0 * sigma

    def test_four_state_sampler_memory_independent_of_m(self):
        # Counts are drawn, not bits: per-bit arrays at m = 10^12 would
        # need terabytes.
        params = ProbeParams(lam=0.0, mu=0.0, theta=0.0, phi=PI / 4)
        report = run_simulation(
            set_e_config(attack=params, m=10**12, four_state_sampler=True)
        )
        assert report.e_t == 0
        assert abs(report.n / 10**12 - 0.5) < 5.0 * sifting_sigma(10**12)

    def test_four_state_sampler_skewed_attack(self):
        # c != 0 makes the two sent states' flip probabilities differ
        # (about 0.07 and 0.57 here); errors follow their mean.
        params = ProbeParams(lam=0.0, mu=0.0, theta=PI / 8, phi=0.0)
        geom = SignalGeometry(PI / 8)
        probs = detection_probabilities(coefficients(params), geom)
        assert probs.p_ubar_u - probs.p_u_ubar > 0.4
        mean_flip = 0.5 * (probs.p_u_ubar + probs.p_ubar_u)
        for seed in range(8):
            report = run_simulation(
                set_e_config(
                    attack=params, seed=seed, four_state_sampler=True
                )
            )
            sigma = math.sqrt(mean_flip * (1.0 - mean_flip) / report.n)
            assert abs(report.e_t / report.n - mean_flip) < 5.0 * sigma

    def test_explicit_params_attack(self):
        params = ProbeParams(lam=0.0, mu=0.0, theta=0.0, phi=PI / 4)
        report = run_simulation(set_e_config(attack=params, m=10_000))
        assert report.e_t == 0
        assert report.analytic_capacity == 0.5

    def test_frontier_floor(self):
        # The compression never undercuts the information bound at the
        # observed error rate with the allowance dropped.
        config = set_e_config(m=200_000, p_fail=0.1)
        report = run_simulation(config)
        floor = (report.n - report.e_t) * optimal_overlap(
            report.empirical_error, config.geom
        ).renyi_bits
        frontier = defense_frontier(
            DistillationConfig(
                n=report.n, e_t=report.e_t, p_fail=config.p_fail
            ),
            config.geom,
        )
        assert frontier.t_f >= floor
        assert report.s >= math.floor(floor)

    def test_binary_entropy_leak_model(self):
        base = run_simulation(set_e_config(seed=9))
        leaky = run_simulation(
            set_e_config(seed=9, q_model=QLeakModel.binary_entropy(1.0))
        )
        assert leaky.s > base.s
        assert leaky.empirical_rate < base.empirical_rate

    def test_explicit_attack_above_family_maximum(self):
        # E = 0.3 at pi/6, where the optimum families end at E = 1/4.
        geom = SignalGeometry(PI / 6)
        attack = ProbeParams(PI / 2, 0.10068, 0.0, 0.0)
        analytic = error_rate(coefficients(attack), geom)
        assert 0.2999 < analytic < 0.3001
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_simulation(set_e_config(geom=geom, attack=attack))
        assert (
            report.analytic_capacity
            == asymptotic_capacity(analytic, geom).capacity
        )
        assert report.analytic_capacity < 0.0
        assert report.final_key_len == 0

    def test_attack_at_half_error_fails_before_sifting(self, monkeypatch):
        geom = SignalGeometry(PI / 12)
        attack = ProbeParams(0.0, 0.0, PI / 2, 3 * PI / 4)
        analytic = error_rate(coefficients(attack), geom)
        assert math.isclose(analytic, 0.75)

        def refuse(*args, **kwargs):
            pytest.fail("ran past the error-rate check")

        monkeypatch.setattr(distill, "defense_frontier", refuse)
        monkeypatch.setattr(simulate, "_Generator", refuse)
        with pytest.raises(
            DomainError, match=re.escape(f"error rate E = {analytic!r}")
        ):
            run_simulation(set_e_config(m=10**8, geom=geom, attack=attack))

    def test_degenerate_run(self):
        # With a single raw bit, some seed sifts zero bits.
        for seed in range(30):
            config = set_e_config(m=1, seed=seed, p_fail=0.5)
            try:
                report = run_simulation(config)
            except DegenerateRunError:
                break
            assert report.n == 1
        else:
            pytest.fail("no seed in range produced an empty sifted block")

    def test_family_unavailable_at_angle(self):
        config = set_e_config(
            geom=SignalGeometry(PI / 9),
            attack=FamilyAttack(FamilyTag.SET_PHI_NEG, 0.1),
        )
        with pytest.raises(OutOfDomainError):
            resolve_attack(config)

    def test_validation(self):
        with pytest.raises(DomainError):
            set_e_config(m=0)
        with pytest.raises(DomainError):
            set_e_config(p_fail=0.0)
        with pytest.raises(DomainError, match="seed must be non-negative"):
            set_e_config(seed=-1)
        with pytest.raises(DomainError):
            QLeakModel.binary_entropy(-0.5)

    def test_m_within_int64(self):
        # numpy's binomial takes n as a C int64; the largest is accepted
        # (not run: the frontier at n ~ 2**62 takes ~10**12 counts).
        assert set_e_config(m=2**63 - 1).m == 2**63 - 1
        for m in (2**63, np.uint64(2**63), 10**30):
            with pytest.raises(
                DomainError, match=re.escape("m must be at most 2**63 - 1")
            ):
                set_e_config(m=m)

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf])
    def test_leakage_fraction_must_be_finite(self, fraction):
        # A NaN fraction used to pass and fail later, as a NaN q_leak.
        with pytest.raises(DomainError, match="finite and non-negative"):
            QLeakModel.binary_entropy(fraction)

    @pytest.mark.parametrize(
        "field, value",
        [("m", 1000.5), ("m", 1000.0), ("m", math.nan), ("seed", 1.5)],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            set_e_config(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        # Over many seeds, so some first draws reach BTPE's exact-ratio
        # step (k <= 20 off the triangle), where n + 1 is int64 arithmetic.
        for seed in range(200):
            config = set_e_config(m=np.int64(100_000), seed=np.int32(seed))
            assert run_simulation(config) == run_simulation(
                set_e_config(seed=seed)
            ), seed


# Counts at every branch of numpy's binomial: inversion up to n*p = 30,
# BTPE above it, and 2**63 - 1, where numpy's int64 arithmetic wraps.
STREAM_COUNTS = [0, 1, 29, 30, 31, 61, 10**3, 10**7, 10**12, 2**63 - 1]


def stream_probabilities(n: int) -> list[float]:
    """p at the branch edges for n: n*p = 30 and its neighbours, 1/2 and
    just above it (the reflection), the ends, and seeded random p."""
    rng = np.random.default_rng(n % 1000)
    edges = [0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.5, math.nextafter(0.5, 1.0)]
    if n > 30:
        at_30 = 30 / n
        assert at_30 * n == 30.0
        edges += [at_30, math.nextafter(at_30, 1.0), 1.0 - at_30]
    return edges + [float(p) for p in rng.random(6)]


class TestSeededStream:
    """The generator against numpy's default_rng, the oracle, draw for draw."""

    @pytest.mark.parametrize("n", STREAM_COUNTS)
    def test_binomial_equals_numpy(self, n):
        for p in stream_probabilities(n):
            for seed in range(0, 200, 5):
                ours, oracle = _Generator(seed), np.random.default_rng(seed)
                # Three draws per generator, so the state carries over.
                for _ in range(3):
                    assert ours.binomial(n, p) == oracle.binomial(n, p), (
                        n, p, seed
                    )

    def test_binomial_equals_numpy_at_random_counts(self):
        pick = np.random.default_rng(2024)
        for seed in range(1000):
            ours, oracle = _Generator(seed), np.random.default_rng(seed)
            for _ in range(6):
                n = int(pick.integers(0, 10 ** int(pick.integers(1, 19))))
                scale = [1.0, 1e-3, 40.0 / max(n, 1)][int(pick.integers(3))]
                p = min(float(pick.random()) * scale, 1.0)
                if pick.random() < 0.5:
                    p = 1.0 - p
                assert ours.binomial(n, p) == oracle.binomial(n, p), (
                    n, p, seed
                )

    @pytest.mark.parametrize("count_type", [np.int64, np.uint64])
    def test_binomial_equals_numpy_at_numpy_integer_counts(self, count_type):
        # BTPE and inversion both, with every region of BTPE reached.
        for n, p in [(100_000, 0.5), (10**7, 0.3), (1000, 0.01), (61, 0.7)]:
            for seed in range(300):
                ours, oracle = _Generator(seed), np.random.default_rng(seed)
                for _ in range(3):
                    assert ours.binomial(count_type(n), p) == int(
                        oracle.binomial(count_type(n), p)
                    ), (n, p, seed)

    @pytest.mark.parametrize(
        "seed",
        [0, 4, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 17, 3**90,
         np.int32(4), np.uint32(2**32 - 1), np.int64(2**40 + 3),
         np.uint64(2**64 - 1)],
    )
    def test_seeds_equal_numpy(self, seed):
        # Seeds of one, two and three or more 32-bit words, Python or numpy.
        for index in (0, 1, 2, 2**32 + 5):
            assert _derived_seed(seed, index) == int(
                np.random.SeedSequence([seed, 7, index]).generate_state(1)[0]
            )
        ours, oracle = _Generator(seed), np.random.default_rng(seed)
        for n, p in [(10**6, 0.5), (50, 0.1), (10**12, 0.9)] * 2:
            assert ours.binomial(n, p) == oracle.binomial(n, p)

    @pytest.mark.parametrize(
        "n, p",
        [(-1, 0.5), (-(2**40), 0.5), (10, math.nan), (10, -5e-324),
         (10, math.nextafter(1.0, 2.0)), (10, math.inf), (-1, math.nan)],
    )
    def test_refusals_equal_numpy(self, n, p):
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(0).binomial(n, p)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            _Generator(0).binomial(n, p)

    def test_run_draws_numpy_counts(self):
        # run's counts are numpy's draws in order: sifting, then errors.
        for four_state in (False, True):
            config = set_e_config(
                attack=FamilyAttack(FamilyTag.SET_H, 0.1),
                four_state_sampler=four_state,
            )
            report = run_simulation(config)
            rng = np.random.default_rng(config.seed)
            n = rng.binomial(config.m, 0.5)
            assert report.n == n
            params = resolve_attack(config)
            if four_state:
                probs = detection_probabilities(
                    coefficients(params), config.geom
                )
                sent_u = rng.binomial(n, 0.5)
                e_t = rng.binomial(sent_u, probs.p_u_ubar) + rng.binomial(
                    n - sent_u, probs.p_ubar_u
                )
            else:
                e_t = rng.binomial(
                    n, error_rate(coefficients(params), config.geom)
                )
            assert report.e_t == e_t


    def test_bits_equal_numpy(self):
        # Odd sizes and repeated calls on one generator, so the high half
        # of a 64-bit output, kept for the next 32-bit word, carries from
        # one call to the next; a binomial draw leaves it kept, as in numpy.
        for seed in range(300):
            ours, oracle = _Generator(seed), np.random.default_rng(seed)
            for rows, cols in [(3, 5), (1, 1), (7, 3), (2, 2), (1, 13)]:
                assert ours.bits(rows * cols) == oracle.integers(
                    0, 2, size=(rows, cols)
                ).ravel().tolist(), (seed, rows, cols)
            assert ours.binomial(1000, 0.3) == oracle.binomial(1000, 0.3)
            assert ours.bits(3) == oracle.integers(0, 2, size=3).tolist()

    @pytest.mark.parametrize("count", [0, 1, 7, 3000])
    @pytest.mark.parametrize("stream", [1, 2])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
    def test_uniform_equals_numpy(self, seed, stream, count):
        # The seeding and shape of the scan restarts and penalty starts.
        for high in (PI, 1.0, 0.0):
            assert _Generator(seed, stream).uniform(high, count) == (
                np.random.default_rng([seed, stream])
                .uniform(0.0, high, size=count).tolist()
            ), high

    def test_uniform_keeps_the_kept_half_word(self):
        # A double takes a whole 64-bit output, so the high half kept by
        # an odd number of bits is still the next bit after it.
        for seed in range(50):
            ours, oracle = _Generator(seed), np.random.default_rng(seed)
            for count in (3, 1, 0, 4):
                assert ours.bits(count) == oracle.integers(
                    0, 2, size=count
                ).tolist()
                assert ours.uniform(PI, count) == oracle.uniform(
                    0.0, PI, size=count
                ).tolist()
            assert ours.binomial(1000, 0.3) == oracle.binomial(1000, 0.3)

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_refused_as_numpy(self, seed):
        # Its 32-bit words never run out, so it must be refused up front.
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(seed)
        message = re.escape(str(expected.value))
        with pytest.raises(ValueError, match=message):
            _Generator(seed)
        with pytest.raises(ValueError, match=message):
            _derived_seed(seed, 0)


def stirling_correction(t: float) -> float:
    """lgamma(t) less Stirling's leading terms: the remainder that the
    series 1/(12 t) - 1/(360 t^3) + ... of BTPE step 5.3 approximates."""
    return math.lgamma(t) - (
        (t - 0.5) * math.log(t) - t + 0.5 * math.log(2.0 * math.pi)
    )


class TestStirlingBound:
    """BTPE step 5.3's bound against log f(y) / f(m) from ``math.lgamma``.

    A draw rarely lands where a Stirling term decides it, so the stream
    tests cannot see a wrong constant or a dropped term.  numpy's bound
    departs from the exact log ratio in two ways: it adds the corrections
    of y + 1 and n - y + 1 where the ratio subtracts them, and its
    leading constant is 13680 where 166320 / 12 = 13860.  Taking exactly
    those departures off must leave the exact ratio.
    """

    # n p q from 63 to 480; step 5.3 needs n p q / 2 - 1 > 21.
    CASES = [(300, 0.3), (400, 0.5), (500, 0.5), (1000, 0.1),
             (2000, 0.2), (2000, 0.4), (10_000, 0.05)]

    @pytest.mark.parametrize("n, p", CASES)
    def test_exact_ratio_plus_numpys_departures(self, n, p):
        q = 1.0 - p
        m = math.floor(n * p + p)
        # The counts steps 5.2-5.3 test: 20 < |y - m| < n p q / 2 - 1.
        ys = [y for y in range(n + 1) if 20 < abs(y - m) < n * p * q / 2 - 1]
        assert len(ys) >= 10
        for y in ys:
            exact = (
                math.lgamma(m + 1) + math.lgamma(n - m + 1)
                - math.lgamma(y + 1) - math.lgamma(n - y + 1)
                + (y - m) * math.log(p / q)
            )
            x1, f1, z, w = y + 1, m + 1, n + 1 - m, n - y + 1
            departures = 2.0 * (
                stirling_correction(x1) + stirling_correction(w)
            ) - 180.0 / 166320.0 * (1 / f1 + 1 / z + 1 / x1 + 1 / w)
            bound = _stirling_bound(n, p, q, m, m + 0.5, y)
            assert abs(bound - (exact + departures)) <= 1e-9, (n, p, y)


class TestSweep:
    def test_single_value_matches_derived_seed_run(self):
        config = set_e_config(m=50_000)
        results = run_sweep(config, "error_rate", [0.05])
        assert len(results) == 1
        value, report = results[0]
        assert value == 0.05
        assert report.n > 0

    def test_error_rate_sweep_rate_decreases(self):
        config = set_e_config(m=200_000)
        results = run_sweep(
            config, "error_rate", [0.01, 0.04, 0.08, 0.12]
        )
        rates = [report.empirical_rate for _, report in results]
        # Monotone within Monte Carlo noise: allow a small slack.
        assert all(a > b - 5e-3 for a, b in zip(rates, rates[1:]))
        assert rates[0] > rates[-1]

    def test_alpha_sweep_peaks_at_standard_angle(self):
        config = set_e_config(m=200_000)
        results = run_sweep(config, "alpha", [PI / 12, PI / 9, PI / 8])
        rates = {value: report.empirical_rate for value, report in results}
        assert rates[PI / 8] == max(rates.values())

    def test_sweep_requires_family_for_error_rate(self):
        params = ProbeParams(lam=0.0, mu=0.0, theta=0.0, phi=PI / 4)
        config = set_e_config(attack=params)
        with pytest.raises(DomainError):
            run_sweep(config, "error_rate", [0.05])

    def test_unknown_variable(self):
        with pytest.raises(DomainError):
            run_sweep(set_e_config(), "wavelength", [1.0])
