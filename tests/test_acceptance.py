"""Acceptance suite: one check per shipped guarantee, one line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line for every criterion.
"""

import math

import numpy as np

from qkdprobe import (
    DistillationConfig,
    FamilyAttack,
    FamilyTag,
    PossibilityStatus,
    ProbeParams,
    QLeakModel,
    SearchConfig,
    SignalGeometry,
    SimulationConfig,
    asymptotic_capacity,
    coefficients,
    constrained_scan,
    csc_branch_overlap,
    defense_frontier,
    enumerate_possibilities,
    error_rate,
    evaluate,
    optimal_overlap,
    optimal_parameter_families,
    overlap,
    pa_empirical_check,
    possibility_d_feasibility,
    refine,
    renyi_information,
    sample_params,
    sec_branch_overlap,
    stationarity_residuals,
    xi,
)
from qkdprobe import run as run_simulation
from qkdprobe.errors import OutOfDomainError
from qkdprobe.optimum import (
    constant_error_overlap,
    lambda_cubic_coefficients,
    phi_neg_lambda_window,
    quintic_coefficients,
    sin2phi_cubic_coefficients,
)
from qkdprobe.roots import real_roots_in_interval
from conftest import draw_constrained_points

PI = math.pi


def check(number: int, description: str, passed: bool) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_01_nonoptimized_counterexample_one():
    geom = SignalGeometry(PI / 8 + 1e-6)
    point = ProbeParams(
        lam=0.3 * PI, mu=0.156816 * PI, theta=0.1 * PI, phi=0.75 * PI
    )
    result = evaluate(point, geom)
    ok = (
        abs(result.error_rate - 0.2) < 5e-5
        and abs(result.overlap - 0.500003) < 1e-5
        and abs(csc_branch_overlap(0.2, geom) - 0.500004) < 1e-6
    )
    check(
        1,
        "counter-example just above pi/8: E=0.2 (5e-5), Q=0.500003 (1e-5), "
        "lower-branch formula 0.500004 (1e-6)",
        ok,
    )


def test_criterion_02_nonoptimized_counterexample_two():
    geom = SignalGeometry(PI / 5)
    point = ProbeParams(
        lam=0.7 * PI, mu=0.0711275 * PI, theta=0.7 * PI, phi=0.7 * PI
    )
    result = evaluate(point, geom)
    ok = (
        abs(result.overlap - 0.34828) < 1e-4
        and abs(csc_branch_overlap(0.3, geom) - 0.909509) < 1e-6
    )
    check(
        2,
        "counter-example at pi/5: Q=0.34828 (1e-4) far below the "
        "lower-branch 0.909509 (1e-6), so no minimum above pi/8",
        ok,
    )


def test_criterion_03_standard_angle_closed_form():
    geom = SignalGeometry(PI / 8)
    ok = all(
        abs(
            optimal_overlap(float(e), geom).overlap
            - (3.0 - 2.0 / (1.0 - float(e)))
        )
        < 1e-12
        for e in np.linspace(0.0, 0.49, 50)
    )
    check(3, "optimum at pi/8 equals 3 - 2/(1-E) to 1e-12 on 50 rates", ok)


def test_criterion_04_zero_violation_brute_force():
    ok = True
    for alpha in (PI / 12, PI / 9, PI / 8):
        geom = SignalGeometry(alpha)
        for target in (0.05, 0.1, 0.2):
            config = SearchConfig(
                geom=geom,
                target_error=target,
                grid_resolution=40,
                random_restarts=50,
                seed=17,
                tolerance=1e-6,
            )
            report = constrained_scan(config)
            analytic = optimal_overlap(target, geom).overlap
            refined_q, _ = refine(report.best_params, config)
            ok &= report.violations == 0
            ok &= abs(report.best_q - analytic) <= 1e-3
            ok &= abs(refined_q - analytic) <= 1e-6
    check(
        4,
        "brute-force scans (3 angles x 3 rates, resolution 40, 50 "
        "restarts): zero violations at 1e-6, best within 1e-3, refine "
        "within 1e-6",
        ok,
    )


def test_criterion_05_family_verification():
    geom = SignalGeometry(PI / 8)
    rng = np.random.default_rng(2025)
    ok = True
    for target in (0.05, 0.2):
        q_ref = optimal_overlap(target, geom).overlap
        for family in optimal_parameter_families(target, geom):
            produced = 0
            while produced < 20:
                if family.tag is FamilyTag.SET_E:
                    choices = {
                        "theta": rng.uniform(0, PI),
                        "phi": rng.uniform(0, PI),
                    }
                elif family.tag is FamilyTag.SET_H:
                    choices = {
                        "lam": rng.uniform(0.15 * PI, 0.85 * PI),
                        "phi": rng.uniform(0, PI),
                    }
                else:
                    lo, hi = phi_neg_lambda_window(target)
                    choices = {"lam": rng.uniform(lo, hi)}
                try:
                    params = sample_params(family, target, geom, choices)
                except OutOfDomainError:
                    continue
                produced += 1
                coeffs = coefficients(params)
                residuals = stationarity_residuals(params, geom)
                ok &= abs(error_rate(coeffs, geom) - target) < 1e-10
                ok &= abs(overlap(coeffs, geom) - q_ref) < 1e-9
                ok &= (
                    max(
                        abs(residuals.r_lambda),
                        abs(residuals.r_theta),
                        abs(residuals.r_phi),
                    )
                    < 1e-9
                )
                ok &= abs(coeffs.c) < 1e-12 and abs(coeffs.d - 1.0) < 1e-12
    check(
        5,
        "all three optimum families at pi/8, 20 draws x 2 rates: "
        "E to 1e-10, Q to 1e-9, residuals < 1e-9, (c, d) = (0, 1)",
        ok,
    )


def test_criterion_06_possibility_classification():
    ok = True
    reports = {
        r.label: r
        for r in enumerate_possibilities(0.2, SignalGeometry(PI / 9))
    }
    ok &= reports["A"].achieved_q in (1.0, -1.0)
    ok &= reports["C"].status is not PossibilityStatus.YIELDS_OPTIMUM
    for alpha in (PI / 6, PI / 9):
        r_j = {
            r.label: r
            for r in enumerate_possibilities(0.1, SignalGeometry(alpha))
        }["J"]
        ok &= r_j.status is PossibilityStatus.INFEASIBLE_NUMERICALLY
    e_grid = [0.05 * k for k in range(1, 10)]
    for alpha in (PI / 9, PI / 8, PI / 5):
        report = possibility_d_feasibility(SignalGeometry(alpha), e_grid)
        ok &= not report.feasible
        ok &= report.min_joint_residual > 1e-6
    check(
        6,
        "possibility classification: A gives Q in {+1, -1}; C excluded; "
        "J infeasible off pi/8; D jointly infeasible at pi/9, pi/8, pi/5 "
        "over the 0.05..0.45 grid",
        ok,
    )


def test_criterion_07_gradient_oracle():
    rng = np.random.default_rng(404)
    step = 1e-5
    ok = True
    for alpha in (PI / 9, PI / 8):
        geom = SignalGeometry(alpha)
        s2 = geom.sin_sq_two_alpha
        for _ in range(50):
            target = rng.uniform(0.02, 0.3)
            (params,) = draw_constrained_points(rng, geom, target, 1)
            residuals = stationarity_residuals(params, geom)
            c = coefficients(params).c
            scale = 2.0 * math.sqrt(
                (1.0 - target) ** 2 - 0.25 * c * c * s2
            )
            lam, theta, phi = params.lam, params.theta, params.phi

            def q_at(a, b, d):
                return constant_error_overlap(a, b, d, target, geom)

            grads = (
                (q_at(lam + step, theta, phi) - q_at(lam - step, theta, phi))
                / (2 * step),
                (q_at(lam, theta + step, phi) - q_at(lam, theta - step, phi))
                / (2 * step),
                (q_at(lam, theta, phi + step) - q_at(lam, theta, phi - step))
                / (2 * step),
            )
            ok &= abs(residuals.r_lambda + scale * grads[0]) < 1e-5
            ok &= abs(residuals.r_theta - scale * grads[1]) < 1e-5
            ok &= abs(residuals.r_phi - scale * grads[2]) < 1e-5
    check(
        7,
        "stationarity residuals match central finite differences of the "
        "constant-error overlap (100 random points, step 1e-5, tol 1e-5)",
        ok,
    )


def test_criterion_08_branch_symmetry():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(100):
        alpha = rng.uniform(0.02 * PI, PI / 8)
        target = rng.uniform(0.0, 0.49)
        low = csc_branch_overlap(target, SignalGeometry(alpha))
        high = sec_branch_overlap(target, SignalGeometry(PI / 4 - alpha))
        ok &= abs(low - high) < 1e-12
    check(
        8,
        "branch symmetry: csc form at alpha equals sec form at "
        "pi/4 - alpha to 1e-12 on 100 pairs",
        ok,
    )


def test_criterion_09_root_solvers():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(200):
        cubic = rng.uniform(-1.0, 1.0, 4)
        if abs(cubic[0]) < 0.05:
            cubic[0] = 0.3
        scale = max(abs(c) for c in cubic)
        for root in real_roots_in_interval(cubic):
            value = 0.0
            for c in cubic:
                value = value * root + c
            ok &= abs(value) < 1e-9 * scale
    for _ in range(200):
        quintic = rng.uniform(-1.0, 1.0, 6)
        if abs(quintic[0]) < 0.05:
            quintic[0] = 0.3
        scale = max(abs(c) for c in quintic)
        for root in real_roots_in_interval(quintic):
            value = 0.0
            for c in quintic:
                value = value * root + c
            ok &= abs(value) < 1e-9 * scale
    for alpha in (PI / 9, PI / 8, PI / 5):
        geom = SignalGeometry(alpha)
        for target in (0.1, 0.3):
            for coeffs in (
                sin2phi_cubic_coefficients(target, geom),
                lambda_cubic_coefficients(target, geom),
                quintic_coefficients(target, geom),
            ):
                scale = max(abs(c) for c in coeffs)
                for root in real_roots_in_interval(coeffs, -2.0, 2.0):
                    value = 0.0
                    for c in coeffs:
                        value = value * root + c
                    ok &= abs(value) < 1e-9 * scale
    check(
        9,
        "root solvers: residuals < 1e-9 (relative) on 200 random cubics, "
        "200 random quintics, and the stationarity-system instances",
        ok,
    )


def test_criterion_10_distillation_identities():
    ok = True
    for l_bits in range(13):
        uniform = np.full(2**l_bits, 2.0**-l_bits)
        point = np.zeros(2**l_bits)
        point[0] = 1.0
        ok &= renyi_information(uniform, l_bits) == 0.0
        ok &= renyi_information(point, l_bits) == float(l_bits)
    for p_fail in (0.5, 1e-2, 1e-10, 1e-18):
        n = 5000
        erfc = math.erfc(xi(n, p_fail) * math.sqrt(2 * n))
        ok &= abs(erfc / p_fail - 1.0) < 1e-13
    for alpha in (PI / 12, PI / 9, PI / 8):
        ok &= asymptotic_capacity(0.0, SignalGeometry(alpha)).capacity == 0.5
    capacities = {
        alpha: asymptotic_capacity(0.05, SignalGeometry(alpha)).capacity
        for alpha in (PI / 12, PI / 10, PI / 9, PI / 8)
    }
    ok &= capacities[PI / 8] == max(capacities.values())
    check(
        10,
        "distillation identities: collision info exact on uniform/point "
        "mass, erfc(xi sqrt(2n)) = p_fail to 1e-13 down to p_fail = 1e-18, "
        "capacity(0) = 1/2, capacity(0.05) maximal at pi/8",
        ok,
    )


def test_criterion_11_frontier_limit():
    geom = SignalGeometry(PI / 8)
    point = asymptotic_capacity(0.1, geom)
    inner_max = 1.0 - 0.1 - 2.0 * point.capacity
    gaps = []
    for n in (10**3, 10**4, 10**5, 10**6):
        config = DistillationConfig(n=n, e_t=n // 10, p_fail=0.5)
        frontier = defense_frontier(config, geom)
        gaps.append(abs(frontier.t_f / n - inner_max))
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 2e-3
    check(
        11,
        "defense frontier per bit converges monotonically to the "
        "asymptotic inner max and is within 2e-3 at n = 1e6",
        ok,
    )


def test_criterion_12_privacy_amplification_toy_theorem():
    rng = np.random.default_rng(1212)
    ok = True
    for trial in range(50):
        l_bits = int(rng.integers(4, 13))
        s = int(rng.integers(1, l_bits + 1))
        raw = rng.random(2**l_bits) ** float(rng.uniform(1.0, 4.0))
        probs = raw / raw.sum()
        result = pa_empirical_check(l_bits, s, probs, 500, seed=trial)
        ok &= result.holds
    check(
        12,
        "privacy-amplification bound holds on 50 randomized toy "
        "configurations (500 random hashes each, 3 sigma allowance)",
        ok,
    )


def test_criterion_13_simulator_convergence():
    geom = SignalGeometry(PI / 8)
    config = SimulationConfig(
        m=400_000,
        geom=geom,
        attack=FamilyAttack(FamilyTag.SET_E, 0.05),
        p_fail=0.01,
        q_model=QLeakModel.zero(),
        seed=4,
    )
    report = run_simulation(config)
    sigma = math.sqrt(0.05 * 0.95 / report.n)
    cap = asymptotic_capacity(0.05, geom).capacity
    ok = (
        abs(report.empirical_error - 0.05) < 4.0 * sigma
        and abs(report.empirical_rate - cap) < 0.01
    )
    check(
        13,
        "seeded 4e5-bit simulation at E = 0.05: empirical error within 4 "
        "binomial sigma, empirical rate within 0.01 of the capacity",
        ok,
    )
