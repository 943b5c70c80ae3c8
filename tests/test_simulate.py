import math
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
from qkdprobe import run as run_simulation
from qkdprobe import sweep as run_sweep
from qkdprobe.errors import DegenerateRunError, DomainError, OutOfDomainError
from qkdprobe.simulate import resolve_attack

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
        with pytest.raises(DomainError):
            QLeakModel.binary_entropy(-0.5)


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
