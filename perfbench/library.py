"""Library workloads: the operations one fresh process runs, with checks.

``verify_optimum`` is the paper's two-way check of the optimum: brute
force (scan, simplex polish, penalty scan, the CLI's samples route) and
the stationarity classification.  ``distill_chain`` is the
key-distillation path: compression levels, capacity curves and the
seeded simulator.  Each operation is a ``(kind, run, check)`` triple:
``run()`` calls the program and ``check(result)`` returns the messages of
the checks that failed.  An exception also counts as a failure.

Only names the project intends to keep are called.  The samples CSV goes
through ``cli.main``.
"""

from __future__ import annotations

import json
import math
import os
import random

from qkdprobe import cli, distill, optimum, search, simulate
from qkdprobe.optimum import FamilyTag
from qkdprobe.probe import SignalGeometry

import checks
from checks import (
    CAPACITY_ABS,
    SCAN_TOL,
    Failures,
    ceil_window,
    check_simulated_counts,
    observables,
)
from readme import check_samples, derive_seed

ALPHAS = (math.pi / 10, math.pi / 8, math.pi / 6)
# Target error rates as fractions of min(branch limit, 0.49).
ERROR_FRACTIONS = (0.2, 0.5, 0.8)
JITTER = 0.01
# Error rates of the possibility (D) sweep; (D) is infeasible on all.
D_GRID = tuple(0.025 * k for k in range(1, 19))
# At weight 1e4 about 3 % of penalty scans raise EmptyFeasibleSetError (raw
# finals park over 1e-4 off the target); 1e5 raised none in 900 tries.
PENALTY_WEIGHT = 1e5

SIFTED_SIZES = (10_000, 100_000, 1_000_000, 3_000_000)
SIFTED_SIZES_TINY = (1_000, 10_000)
CAPACITY_STEPS, CAPACITY_STEPS_TINY = 40, 5
SIM_ALPHA, SIM_ERROR, SIM_P_FAIL = math.pi / 8, 0.05, 0.01
SWEEP_VALUES = (0.01, 0.03, 0.05, 0.07, 0.09)


def error_targets(seed: int, tiny: bool) -> list[tuple[float, float]]:
    """(alpha, E) pairs: three E per alpha inside the attainable domain."""
    rng = random.Random(derive_seed(seed, "jitter"))
    fractions = ERROR_FRACTIONS[1:2] if tiny else ERROR_FRACTIONS
    pairs = []
    for alpha in ALPHAS:
        top = min(checks.branch_limit(alpha), 0.49)
        for fraction in fractions:
            jitter = rng.uniform(-JITTER, JITTER)
            pairs.append((alpha, (fraction + jitter) * top))
    return pairs


def _check_point(fails, what, params, q, alpha, target, e_tol):
    """The point meets E within e_tol, has overlap q, and beats no optimum."""
    error, overlap = observables(
        alpha, params.lam, params.mu, params.theta, params.phi
    )
    fails.close(f"{what} E", error, target, abs_tol=e_tol)
    fails.close(f"{what} Q", overlap, q, abs_tol=1e-9)
    if error <= checks.branch_limit(alpha):
        fails.expect(overlap >= checks.optimal_overlap(alpha, error) - SCAN_TOL,
                     f"{what}: Q {overlap!r} beats the optimum at E {error!r}")


def _point_ops(seed, index, alpha, target, sizes, run_dir, reference):
    """Brute force and classification at one (alpha, E)."""
    resolution, restarts, starts, cli_resolution = sizes
    geom = SignalGeometry(alpha)
    analytic = checks.optimal_overlap(alpha, target)
    config = search.SearchConfig(
        geom=geom,
        target_error=target,
        grid_resolution=resolution,
        random_restarts=restarts,
        seed=derive_seed(seed, f"scan{index}"),
    )
    scans = []

    def scan():
        scans.append(search.constrained_scan(config))
        return scans[-1]

    def check_scan(report):
        fails = Failures()
        fails.close("scan analytic_q", report.analytic_q, analytic)
        fails.expect(report.violations == 0,
                     f"scan: {report.violations} violations")
        fails.expect(report.best_q >= analytic - SCAN_TOL,
                     f"scan: best_q {report.best_q!r} beats {analytic!r}")
        _check_point(fails, "scan", report.best_params, report.best_q,
                     alpha, target, 1e-9)
        return fails

    def check_refine(result):
        fails = Failures()
        q, params = result
        fails.expect(q <= scans[-1].best_q, "refine: worse than its start")
        fails.expect(q >= analytic - SCAN_TOL, f"refine: {q!r} beats {analytic!r}")
        _check_point(fails, "refine", params, q, alpha, target, 1e-9)
        return fails

    penalty_config = search.SearchConfig(
        geom=geom,
        target_error=target,
        random_restarts=starts,
        seed=derive_seed(seed, f"penalty{index}"),
    )

    def check_penalty(report):
        # Raw penalty finals may sit up to 1e-4 off the target, where the
        # optimum is lower, so the report's violation count is no error;
        # the best point must still beat no optimum at its own E.
        fails = Failures()
        fails.close("penalty analytic_q", report.analytic_q, analytic)
        _check_point(fails, "penalty", report.best_params, report.best_q,
                     alpha, target, 1e-4)
        return fails

    out = os.path.join(run_dir, "verify.json")
    samples_out = os.path.join(run_dir, "samples.csv")
    argv = [
        "verify", "--alpha", repr(alpha), "--error-rate", repr(target),
        "--resolution", str(cli_resolution), "--restarts", "50",
        "--seed", str(derive_seed(seed, f"cli{index}")),
        "--samples-out", samples_out, "--out", out,
    ]

    def check_cli(code):
        fails = Failures()
        fails.expect(code == 0, f"cli verify: exit code {code}")
        with open(out) as handle:
            results = json.load(handle)["results"]
        fails.close("cli verify analytic_q", results["analytic_q"], analytic)
        fails.expect(results["violations"] == 0, "cli verify violations")
        check_samples(fails, samples_out, target, analytic,
                      results["samples_evaluated"])
        fails.bytes_out = os.path.getsize(out) + os.path.getsize(samples_out)
        return fails

    def check_possibilities(reports):
        fails = Failures()
        want = reference["statuses"][checks.alpha_key(alpha)]
        got = [[r.label, r.status.value] for r in reports]
        fails.expect(got == want, f"possibilities at {alpha!r}: {got}")
        q_ext = checks.csc_overlap(alpha, target)
        for report in reports:
            if report.status.value == "yields_optimum":
                fails.close(f"possibility {report.label} Q",
                            report.achieved_q, q_ext)
        return fails

    return [
        ("scan", scan, check_scan),
        ("refine", lambda: search.refine(scans[-1].best_params, config),
         check_refine),
        ("penalty", lambda: search.penalty_scan(penalty_config, PENALTY_WEIGHT),
         check_penalty),
        ("cli_verify", lambda: cli.main(argv), check_cli),
        ("possibilities", lambda: optimum.enumerate_possibilities(target, geom),
         check_possibilities),
    ]


def _d_sweep_op(alpha, d_grid):
    def check(report):
        fails = Failures()
        fails.expect(not report.feasible, "possibility D reported feasible")
        fails.expect(report.min_joint_residual > 1e-6,
                     f"possibility D residual {report.min_joint_residual!r}")
        fails.expect(report.grid_size == len(d_grid), "D grid size")
        return fails

    geom = SignalGeometry(alpha)
    return ("d_feasibility",
            lambda: optimum.possibility_d_feasibility(geom, list(d_grid)), check)


def verify_optimum(seed: int, tiny: bool, run_dir: str, reference: dict):
    """(kind, run, check) of every operation; check(run()) lists failures."""
    sizes = (12, 50, 2, 8) if tiny else (120, 3000, 4, 40)
    d_grid = D_GRID[::9] if tiny else D_GRID
    ops = []
    for index, (alpha, target) in enumerate(error_targets(seed, tiny)):
        ops += _point_ops(seed, index, alpha, target, sizes, run_dir, reference)
    ops += [_d_sweep_op(alpha, d_grid) for alpha in ALPHAS]
    return ops


def _compression_op(alpha, n, reference):
    geom = SignalGeometry(alpha)
    config = distill.DistillationConfig(n=n, e_t=n // 20, p_fail=SIM_P_FAIL)
    t_f = reference["frontier"][checks.alpha_key(alpha)][str(n)]

    def check(s):
        fails = Failures()
        fails.expect(s in ceil_window(t_f),
                     f"compression at n={n}, alpha {alpha!r}: {s}")
        return fails

    return ("compression", lambda: distill.compression_level(config, geom),
            check)


def _capacity_op(alpha, steps, reference):
    geom = SignalGeometry(alpha)
    top = 0.95 * checks.peak_error(alpha)
    want = reference["capacity"][checks.alpha_key(alpha)][str(steps)]

    def check(points):
        fails = Failures()
        fails.expect(len(points) == len(want), "capacity point count")
        for point, capacity in zip(points, want):
            fails.close(f"capacity at E={point.error_rate!r}",
                        point.capacity, capacity, abs_tol=CAPACITY_ABS)
        return fails

    return ("capacity", lambda: distill.capacity_curve(geom, 0.0, top, steps),
            check)


def _simulation_config(seed, m, four_state, label):
    return simulate.SimulationConfig(
        m=m,
        geom=SignalGeometry(SIM_ALPHA),
        attack=simulate.FamilyAttack(tag=FamilyTag.SET_E,
                                     target_error=SIM_ERROR),
        p_fail=SIM_P_FAIL,
        q_model=simulate.QLeakModel.zero(),
        seed=derive_seed(seed, label),
        four_state_sampler=four_state,
    )


def _check_run(fails, what, m, error, report, reference):
    check_simulated_counts(fails, what, m, error, report.n, report.e_t,
                           report.s, report.final_key_len)
    fails.close(f"{what} analytic_capacity", report.analytic_capacity,
                reference["simulate_capacity"][repr(error)],
                abs_tol=CAPACITY_ABS)


def _simulation_ops(seed, sim_m, sweep_m, reference):
    ops = []
    for four_state in (False, True):
        config = _simulation_config(seed, sim_m, four_state,
                                    f"simulate{four_state:d}")

        def check(report):
            fails = Failures()
            _check_run(fails, "simulate", sim_m, SIM_ERROR, report, reference)
            return fails

        ops.append(("simulate", lambda config=config: simulate.run(config),
                    check))

    sweep_config = _simulation_config(seed, sweep_m, False, "sweep")

    def check_sweep(results):
        fails = Failures()
        fails.expect([v for v, _ in results] == list(SWEEP_VALUES),
                     "sweep values")
        for value, report in results:
            _check_run(fails, f"sweep E={value}", sweep_m, value, report,
                       reference)
        return fails

    ops.append(("sweep",
                lambda: simulate.sweep(sweep_config, "error_rate", SWEEP_VALUES),
                check_sweep))
    return ops


def _pa_op(seed, hashes):
    l_bits, compression = 10, 4
    rng = random.Random(derive_seed(seed, "pa"))
    weights = [rng.random() ** 4 for _ in range(2**l_bits)]
    source = [w / sum(weights) for w in weights]
    renyi = l_bits + math.log2(sum(p * p for p in source))

    def check(result):
        fails = Failures()
        fails.close("pa bound", result.bound,
                    2.0 ** (renyi - compression) / math.log(2.0), rel=1e-9)
        fails.expect(result.holds, "pa check: the hashing bound failed")
        return fails

    return ("pa_check",
            lambda: distill.pa_empirical_check(
                l_bits, compression, source, hashes,
                derive_seed(seed, "pa_hash")),
            check)


def distill_chain(seed: int, tiny: bool, run_dir: str, reference: dict):
    """(kind, run, check) of every operation; check(run()) lists failures."""
    sizes = SIFTED_SIZES_TINY if tiny else SIFTED_SIZES
    steps = CAPACITY_STEPS_TINY if tiny else CAPACITY_STEPS
    sim_m, sweep_m, hashes = (
        (100_000, 10_000, 10) if tiny else (10_000_000, 1_000_000, 200)
    )
    ops = [_compression_op(a, n, reference) for a in ALPHAS for n in sizes]
    ops += [_capacity_op(a, steps, reference) for a in ALPHAS]
    ops += _simulation_ops(seed, sim_m, sweep_m, reference)
    ops.append(_pa_op(seed, hashes))
    return ops


WORKLOADS = {"verify_optimum": verify_optimum, "distill_chain": distill_chain}
