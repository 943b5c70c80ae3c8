import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize

from qkdprobe import (
    FamilyTag,
    ProbeParams,
    SearchConfig,
    SignalGeometry,
    coefficients,
    constrained_scan,
    error_rate,
    evaluate,
    mu_from_constraint,
    optimal_overlap,
    optimal_parameter_families,
    overlap,
    penalty_scan,
    refine,
    sample_params,
)
from qkdprobe.errors import (
    DegenerateModelError,
    DomainError,
    EmptyFeasibleSetError,
    InfeasibleConstraintError,
    SingularLambdaError,
)
from qkdprobe.probe import constrained_observables, fold_mu
from qkdprobe import optimum, probe
from qkdprobe import search as search_module
from qkdprobe.search import (
    _constrained_point,
    _nelder_mead,
    _overlap_and_error,
    _penalty_finals,
    _singular_lambda_points,
)

from conftest import exact_error_rate, exact_face_ends

PI = math.pi


class TestConstrainedScan:
    def test_standard_angle_attains_optimum(self, geom_pi8):
        config = SearchConfig(
            geom=geom_pi8,
            target_error=0.2,
            grid_resolution=21,
            random_restarts=20,
            seed=5,
        )
        report = constrained_scan(config)
        assert report.violations == 0
        assert report.best_q >= 0.5 - 1e-6
        assert report.best_q <= 0.5 + 1e-3
        refined_q, refined_params = refine(report.best_params, config)
        assert abs(refined_q - 0.5) < 1e-6
        assert (
            abs(error_rate(coefficients(refined_params), geom_pi8) - 0.2)
            < 1e-9
        )

    def test_no_violations_near_family_domain_edge(self):
        # E pushed close to the family bound sin^2(2a) still shows no
        # sample below the branch value.
        for alpha in (PI / 12, PI / 9, PI / 8):
            geom = SignalGeometry(alpha)
            edge = min(0.4, geom.sin_sq_two_alpha - 0.01)
            config = SearchConfig(
                geom=geom,
                target_error=edge,
                grid_resolution=40,
                random_restarts=20,
                seed=2,
            )
            report = constrained_scan(config)
            assert report.violations == 0
            assert report.samples_evaluated >= 10_000

    def test_nodes_judged_at_their_own_error_rate(self):
        # At this alpha all of E's range, [0, cos^2(2a) ~ 1.07e-13], lies
        # inside the scan's clamp on sin(2 mu), and Q_min falls from 1 to
        # -1 across it.  Rows below Q_min at the target sit on or above
        # Q_min at the E of their own angles.
        geom = SignalGeometry(0.785398)
        config = SearchConfig(geom, 0.0, grid_resolution=9, random_restarts=2)
        blocks = []
        report = constrained_scan(config, sink=blocks.append)
        rows = np.vstack(blocks)
        below = rows[:, 5] < report.analytic_q - config.tolerance
        assert np.count_nonzero(below) == 10
        assert report.violations == 0
        for lam, theta, phi, mu, _, q in rows[below].tolist():
            e = probe._angle_error_rate(lam, mu, theta, phi, geom)
            assert q >= optimum._q_min(e, geom) - config.tolerance

    def test_planted_violation_counts_at_a_steep_alpha(self, monkeypatch):
        # The ten rows of the test above, each lowered by 1e-2, are true
        # violations.
        geom = SignalGeometry(0.785398)
        config = SearchConfig(geom, 0.0, grid_resolution=9, random_restarts=2)
        planted = plant_low_nodes(
            monkeypatch, config, lambda row: row[5] - 1e-2
        )
        assert planted == 10
        assert constrained_scan(config).violations == 10

    @pytest.mark.parametrize("resolution", [9, 13])
    @pytest.mark.parametrize(
        "alpha",
        [0.785398, PI / 4 - 3e-9, math.nextafter(PI / 4, 0)],
        ids=["0.785398", "pi/4-3e-9", "below-pi/4"],
    )
    def test_planted_violation_just_below_own_optimum_counts(
        self, monkeypatch, alpha, resolution
    ):
        # Q_min falls across E's whole range, [0, cos^2(2a)], at a slope
        # of -2 / cos^2(2a): -1.9e13 at 0.785398, -5.6e16 at pi/4 - 3e-9
        # and -2.5e31 at the float just below pi/4, where E's whole range
        # is 8.0e-32.  A node planted 2e-6 below Q_min at the E of its
        # own angles counts only if that E is right to ~5e-20, ~2e-23 and
        # ~8e-38; a shift of E by 3e-16, the allowance the scan once
        # added, would hide each one.  A node is planted relative to its
        # own Q_min, as some lie more than the tolerance above it.
        geom = SignalGeometry(alpha)
        config = SearchConfig(
            geom, 0.0, grid_resolution=resolution, random_restarts=2
        )
        assert constrained_scan(config).violations == 0

        def just_below(row):
            lam, theta, phi, mu, _, _ = row
            e = probe._angle_error_rate(lam, mu, theta, phi, geom)
            return optimum._q_min(e, geom) - 2e-6

        planted = plant_low_nodes(monkeypatch, config, just_below)
        assert planted >= 10
        assert constrained_scan(config).violations == planted

    def test_deterministic(self, geom_pi8):
        config = SearchConfig(
            geom=geom_pi8,
            target_error=0.1,
            grid_resolution=15,
            random_restarts=30,
            seed=123,
        )
        assert constrained_scan(config) == constrained_scan(config)

    def test_upper_branch_counterexample_region(self):
        # Beyond the upper-branch family domain the scan still finds
        # points far below the lower-branch curve value 0.909509.
        geom = SignalGeometry(PI / 5)
        config = SearchConfig(
            geom=geom, target_error=0.3, grid_resolution=25, seed=9
        )
        report = constrained_scan(config)
        assert report.best_q < 0.909509
        assert report.violations == 0

    def test_empty_feasible_set(self):
        config = SearchConfig(
            geom=SignalGeometry(0.01 * PI),
            target_error=0.3,
            grid_resolution=3,
            seed=0,
        )
        with pytest.raises(EmptyFeasibleSetError):
            constrained_scan(config)

    def test_config_validation(self, geom_pi8):
        with pytest.raises(DomainError):
            SearchConfig(geom=geom_pi8, target_error=0.1, grid_resolution=2)
        with pytest.raises(DomainError):
            SearchConfig(geom=geom_pi8, target_error=0.1, tolerance=0.0)
        with pytest.raises(DomainError):
            SearchConfig(geom=geom_pi8, target_error=0.6)
        with pytest.raises(DomainError, match="seed must be non-negative"):
            SearchConfig(geom=geom_pi8, target_error=0.1, seed=-1)
        for tolerance in (math.nan, math.inf, -math.inf, -1e-6):
            with pytest.raises(DomainError, match="finite and positive"):
                SearchConfig(
                    geom=geom_pi8, target_error=0.1, tolerance=tolerance
                )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_resolution", 7.5),
            ("grid_resolution", math.nan),
            ("grid_resolution", 7.0),
            ("random_restarts", 2.5),
            ("seed", 1.5),
        ],
    )
    def test_counts_must_be_integers(self, geom_pi8, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            SearchConfig(geom=geom_pi8, target_error=0.1, **{field: value})

    def test_numpy_integer_counts_accepted(self, geom_pi8):
        config = SearchConfig(
            geom=geom_pi8,
            target_error=0.1,
            grid_resolution=np.int64(7),
            random_restarts=np.int32(3),
            seed=np.uint8(2),
        )
        assert constrained_scan(config) == constrained_scan(
            SearchConfig(geom_pi8, 0.1, 7, 3, 2)
        )

    def test_vectorized_plane_matches_scalar_route(self, geom_pi8):
        rng = np.random.default_rng(55)
        theta_grid = rng.uniform(0, PI, 6)
        phi_grid = rng.uniform(0, PI, 6)
        lam = 0.37 * PI
        sin_two_mu, e_plane, q_plane, feasible = constrained_observables(
            lam, theta_grid[:, None], phi_grid[None, :], 0.15, geom_pi8
        )
        mu_plane = fold_mu(sin_two_mu)
        assert 0 < feasible.sum() < feasible.size
        for i, theta in enumerate(theta_grid):
            for j, phi in enumerate(phi_grid):
                if not feasible[i, j]:
                    with pytest.raises(InfeasibleConstraintError):
                        mu_from_constraint(lam, theta, phi, 0.15, geom_pi8)
                    assert q_plane[i, j] == math.inf
                    continue
                mu = mu_from_constraint(lam, theta, phi, 0.15, geom_pi8)
                params = ProbeParams(lam=lam, mu=mu, theta=theta, phi=phi)
                coeffs = coefficients(params)
                assert abs(mu_plane[i, j] - mu) < 1e-13
                assert abs(q_plane[i, j] - overlap(coeffs, geom_pi8)) < 1e-13
                e = error_rate(coeffs, geom_pi8)
                assert abs(e_plane[i, j] - e) < 1e-13
                assert abs(e_plane[i, j] - 0.15) < 1e-13

    def test_plane_holds_few_arrays_at_once(self, geom_pi8):
        # The plane body drops each full-plane array once read, so a plane
        # peaks at ~9.2 plane-sized arrays.  At 13.2, when each lived to
        # the end of the body, glibc grew and trimmed the heap on every
        # plane of a scan, and the page faults cost ~25 % of its time.
        grid = np.linspace(0.0, PI, 120)
        plane = grid.size * grid.size * 8
        args = (1.1, grid[:, None], grid[None, :], 0.2, geom_pi8)
        constrained_observables(*args)
        tracemalloc.start()
        try:
            held = constrained_observables(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(held) == 4
        assert peak < 10 * plane

    def test_array_form_masks_singular_lambda(self, geom_pi8):
        lam = np.array([0.0, PI, 0.37 * PI])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sin_two_mu, _, q, feasible = constrained_observables(
                lam, 0.3, 1.1, 0.15, geom_pi8
            )
            mu = fold_mu(sin_two_mu[feasible])
        assert feasible.tolist() == [False, False, True]
        assert q[0] == q[1] == math.inf
        for singular in lam[:2]:
            with pytest.raises(SingularLambdaError):
                mu_from_constraint(singular, 0.3, 1.1, 0.15, geom_pi8)
        assert abs(
            mu[0] - mu_from_constraint(lam[2], 0.3, 1.1, 0.15, geom_pi8)
        ) < 1e-13


def plant_low_nodes(monkeypatch, config, lowered):
    """Make the scan see each node below Q_min at the target at Q =
    lowered(row) instead, row its (lam, theta, phi, mu, E, Q) in an
    unchanged scan; returns how many nodes were planted.

    The scan meets these nodes in the order its sink receives them, so
    the patched kernels hand out the planted values in that order."""
    blocks = []
    report = constrained_scan(config, sink=blocks.append)
    rows = np.vstack(blocks)
    below = report.analytic_q - config.tolerance
    values = [lowered(row) for row in rows[rows[:, 5] < below].tolist()]
    planted = iter(values)
    nodes = probe._constrained_nodes
    points = search_module._singular_lambda_points

    def lowered_nodes(*args):
        sin_two_mu, error, q, feasible = nodes(*args)
        low = q < below
        q[low] = [next(planted) for _ in range(np.count_nonzero(low))]
        return sin_two_mu, error, q, feasible

    def lowered_points(*args):
        return [
            (*row[:5], next(planted)) if row[5] < below else row
            for row in points(*args)
        ]

    monkeypatch.setattr(probe, "_constrained_nodes", lowered_nodes)
    monkeypatch.setattr(
        search_module, "_singular_lambda_points", lowered_points
    )
    return len(values)


def full_plane_observables(lam, theta, phi, target, geom):
    """(mu, E, Q, feasible) on every node, each formula written out in
    full: the array kernel as it was before the scan computed only what
    it reads, kept as the oracle for constrained_scan."""
    s2 = geom.sin_sq_two_alpha
    sin_lam = np.sin(lam)
    sin_sq_lam = sin_lam**2
    cos_sq_lam = np.cos(lam) ** 2
    cos_two_theta = np.cos(2.0 * theta)
    sin_two_phi = np.sin(2.0 * phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = (
            cos_sq_lam * (1.0 - cos_two_theta)
            + s2
            * (
                sin_sq_lam
                + cos_sq_lam * cos_two_theta
                - cos_sq_lam * cos_two_theta * sin_two_phi
            )
            - 2.0 * target
        ) / (s2 * sin_sq_lam)
    feasible = (np.abs(sin_lam) > probe.SINGULAR_SIN_LAMBDA) & (
        np.abs(rhs) <= 1.0 + probe.ARCSINE_CLAMP_TOL
    )
    sin_two_mu = np.clip(rhs, -1.0, 1.0)
    a = sin_sq_lam * sin_two_mu + cos_sq_lam * cos_two_theta * sin_two_phi
    b = sin_sq_lam * sin_two_mu + cos_sq_lam * sin_two_phi
    c = cos_sq_lam * np.sin(2.0 * theta) * np.cos(2.0 * phi)
    d = sin_sq_lam + cos_sq_lam * cos_two_theta
    error = 0.5 * (1.0 - d + (d - a) * s2)
    numerator = 0.5 * (a + b) + 0.5 * (d - a) * s2
    half_sum = 0.5 * (1.0 + d + (a - d) * s2)
    radicand = half_sum * half_sum - 0.25 * c * c * s2
    feasible &= radicand > 0.0
    q = np.where(
        feasible,
        numerator / np.sqrt(np.where(feasible, radicand, 1.0)),
        math.inf,
    )
    half_arc = 0.5 * np.arcsin(sin_two_mu)
    mu = np.where(half_arc >= 0.0, half_arc, half_arc + PI)
    return mu, error, q, feasible


def full_plane_error(lam, mu, theta, phi, geom):
    """E at the angles as a sum of non-negative terms, over arrays:
    probe._angle_error_rate written out in full."""
    quarter, tail = 0.25 * PI, probe._QUARTER_PI_TAIL
    return np.cos(lam) ** 2 * np.sin(theta) ** 2 * geom.cos_sq_two_alpha + (
        np.sin(lam) ** 2 * np.sin(quarter - mu + tail) ** 2
        + np.cos(lam) ** 2
        * (
            np.sin(theta) ** 2 * np.sin(3.0 * quarter - phi + 3.0 * tail) ** 2
            + np.cos(theta) ** 2 * np.sin(quarter - phi + tail) ** 2
        )
    ) * geom.sin_sq_two_alpha


def full_plane_q_min(error, geom):
    """Q_min over arrays of E: the branch formula at min(E, E_max), held
    at -1 from E_max on."""
    e_max = optimum.max_error_rate(geom)
    held = np.minimum(error, e_max)
    return np.maximum(-1.0, (1.0 + (1.0 - 2.0 / e_max) * held) / (1.0 - held))


def full_plane_scan(config, sink, q_min=full_plane_q_min):
    """constrained_scan over full_plane_observables: every column of every
    node computed, the feasible ones copied out before counting, and every
    one judged at the E of its angles."""
    geom, target = config.geom, config.target_error
    grid = np.linspace(0.0, PI, config.grid_resolution)
    analytic_q = float(q_min(target, geom))
    state = {"best_q": math.inf, "best": None, "violations": 0, "samples": 0}

    def take(columns, feasible):
        q = columns[-1]
        q_feasible = q[feasible]
        if not q_feasible.size:
            return
        state["samples"] += q_feasible.size
        # Below Q_min at the target and at the E of the node's angles.
        lam, theta, phi, mu = (
            np.broadcast_to(c, q.shape)[feasible] for c in columns[:4]
        )
        own_error = full_plane_error(lam, mu, theta, phi, geom)
        own_reference = q_min(own_error, geom)
        state["violations"] += int(
            (
                (q_feasible < analytic_q - config.tolerance)
                & (q_feasible < own_reference - config.tolerance)
            ).sum()
        )
        k = int(np.argmin(q))
        if q.flat[k] < state["best_q"]:
            state["best_q"] = float(q.flat[k])
            state["best"] = [
                float(np.broadcast_to(c, q.shape).flat[k]) for c in columns[:4]
            ]
        sink(np.column_stack(
            [np.broadcast_to(c, q.shape)[feasible] for c in columns]
        ))

    theta, phi = grid[:, None], grid[None, :]
    nodes = grid.tolist()
    for lam in nodes:
        if abs(math.sin(lam)) <= probe.SINGULAR_SIN_LAMBDA:
            rows = _singular_lambda_points(lam, nodes, target, geom)
            take(np.array(rows).reshape(-1, 6).T, np.full(len(rows), True))
        else:
            mu, e, q, feasible = full_plane_observables(
                lam, theta, phi, target, geom
            )
            take((lam, theta, phi, mu, e, q), feasible)
    rng = np.random.default_rng([config.seed, search_module._RESTART_STREAM])
    lam, theta, phi = rng.uniform(
        0.0, PI, size=(config.random_restarts, 3)
    ).T
    mu, e, q, feasible = full_plane_observables(lam, theta, phi, target, geom)
    take((lam, theta, phi, mu, e, q), feasible)
    if state["best"] is None:
        raise EmptyFeasibleSetError(
            f"no sampled point satisfies E = {target!r} at "
            f"alpha = {geom.alpha!r}"
        )
    lam, theta, phi, mu = state["best"]
    return search_module.SearchReport(
        best_q=state["best_q"],
        best_params=ProbeParams(lam=lam, mu=mu, theta=theta, phi=phi),
        analytic_q=analytic_q,
        violations=state["violations"],
        samples_evaluated=state["samples"],
    )


# (grid_resolution, random_restarts) of the oracle comparison: the
# smallest grids, odd and even ones, and restart blocks of three sizes.
ORACLE_SIZES = ((3, 0), (7, 0), (13, 50), (40, 50), (41, 300))


@pytest.mark.parametrize("target", [0.0, 0.05, 0.2, 0.3, 0.45, 0.49])
@pytest.mark.parametrize(
    "alpha", [PI / 20, PI / 10, PI / 8, PI / 6, 0.7],
    ids=["pi/20", "pi/10", "pi/8", "pi/6", "0.7"],
)
def test_scan_matches_full_plane_oracle(alpha, target):
    # The oracle runs on the same machine, so numpy's SIMD trig, which
    # differs between CPUs, is the same on both sides; the comparison is
    # exact.
    geom = SignalGeometry(alpha)
    for resolution, restarts in ORACLE_SIZES:
        for seed in (0, 9):
            config = SearchConfig(geom, target, resolution, restarts, seed)
            blocks, oracle_blocks = [], []
            try:
                expected = full_plane_scan(config, oracle_blocks.append)
            except EmptyFeasibleSetError as exc:
                with pytest.raises(EmptyFeasibleSetError) as raised:
                    constrained_scan(config, sink=blocks.append)
                assert str(raised.value) == str(exc)
                assert blocks == oracle_blocks == []
                continue
            report = constrained_scan(config, sink=blocks.append)
            assert report == expected
            assert repr(report) == repr(expected)  # int counts, not numpy
            assert constrained_scan(config) == expected
            assert [b.shape for b in blocks] == [
                b.shape for b in oracle_blocks
            ]
            assert (
                np.vstack(blocks).tobytes()
                == np.vstack(oracle_blocks).tobytes()
            )


def test_scan_violations_match_full_plane_oracle(monkeypatch):
    # Working code gives no violations, so move the reference up to the
    # median and the 90 % quantile of each scan's Q, and count on both
    # routes.
    for alpha, target in ((PI / 10, 0.05), (PI / 8, 0.2), (0.7, 0.3)):
        config = SearchConfig(SignalGeometry(alpha), target, 24, 100, 3)
        blocks = []
        full_plane_scan(config, blocks.append)
        for level in np.quantile(np.vstack(blocks)[:, 5], [0.5, 0.9]):
            monkeypatch.setattr(
                optimum, "_q_min", lambda error, geom: float(level)
            )
            expected = full_plane_scan(
                config, lambda block: None, lambda error, geom: level
            )
            report = constrained_scan(config)
            assert 0 < report.violations < report.samples_evaluated
            assert report == expected


class TestRefine:
    def test_stationary_start_unchanged(self, geom_pi8):
        family = optimal_parameter_families(0.1, geom_pi8)[0]
        start = sample_params(family, 0.1, geom_pi8, {"theta": 0.4, "phi": 2.0})
        config = SearchConfig(
            geom=geom_pi8, target_error=0.1, grid_resolution=5, seed=0
        )
        start_q = overlap(coefficients(start), geom_pi8)
        refined_q, _ = refine(start, config)
        assert refined_q <= start_q
        assert abs(refined_q - start_q) < 1e-9

    def test_attainment_from_every_family(self, geom_pi8):
        for target in (0.05, 0.2):
            analytic = optimal_overlap(target, geom_pi8).overlap
            config = SearchConfig(
                geom=geom_pi8,
                target_error=target,
                grid_resolution=5,
                seed=0,
            )
            for family in optimal_parameter_families(target, geom_pi8):
                start = sample_params(family, target, geom_pi8)
                refined_q, _ = refine(start, config)
                assert abs(refined_q - analytic) < 1e-9

    def test_convergence_rate_from_random_starts(self, geom_pi8):
        # Seeded restart study: the large majority of random feasible
        # starts converge to the optimum within 1e-4.
        from conftest import draw_constrained_points

        rng = np.random.default_rng(77)
        config = SearchConfig(
            geom=geom_pi8, target_error=0.2, grid_resolution=5, seed=0
        )
        starts = draw_constrained_points(rng, geom_pi8, 0.2, 100)
        hits = sum(
            1
            for start in starts
            if abs(refine(start, config)[0] - 0.5) < 1e-4
        )
        assert hits >= 95

    def test_refines_below_nonoptimized_point(self):
        # The worked nonoptimized point on the upper branch is not a
        # minimum; refinement must not end above it.
        geom = SignalGeometry(PI / 5)
        start = ProbeParams(
            lam=0.7 * PI, mu=0.0711275 * PI, theta=0.7 * PI, phi=0.7 * PI
        )
        target = error_rate(coefficients(start), geom)
        config = SearchConfig(
            geom=geom, target_error=target, grid_resolution=5, seed=0
        )
        refined_q, _ = refine(start, config)
        assert refined_q <= 0.34828

    def test_singular_lambda_start(self, geom_pi8):
        # A scan best can sit on the sin(lam) = 0 plane; refine must
        # handle it (phi is pinned by the constraint there).
        config = SearchConfig(
            geom=geom_pi8, target_error=0.2, grid_resolution=5, seed=0
        )
        phi = 0.5 * math.asin(1.0 - 4.0 * 0.2)
        start = ProbeParams(lam=0.0, mu=PI / 4, theta=0.0, phi=phi)
        refined_q, _ = refine(start, config)
        assert abs(refined_q - 0.5) < 1e-9

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("alpha", [PI / 6, PI / 5, 0.7])
    def test_upper_branch_attained(self, alpha, fraction):
        # Above pi/8 the optimum lies on the face sin(2 mu) = 1, which the
        # polish reaches in closed form: refine from the best scan point
        # lands on Q_min, where re-solving mu alone stalled above it.
        geom = SignalGeometry(alpha)
        target = fraction * geom.cos_sq_two_alpha
        config = SearchConfig(
            geom=geom, target_error=target, grid_resolution=40,
            random_restarts=50,
        )
        scan = constrained_scan(config)
        q, params = refine(scan.best_params, config)
        assert abs(q - scan.analytic_q) <= 1e-12
        point = evaluate(params, geom)
        assert point.overlap == q
        assert abs(point.error_rate - target) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.7, PI / 4 - 1e-3])
    def test_upper_branch_stays_on_the_target(self, alpha):
        # A solve that asks for sin(2 mu) just past 1 moves onto the face
        # rather than clip sin(2 mu), which leaves E above the target:
        # kept within 1e-10 of the face, the simplex settled there, 1.7e-9
        # and 1.3e-5 below Q_min.
        geom = SignalGeometry(alpha)
        target = 0.5 * geom.cos_sq_two_alpha
        config = SearchConfig(
            geom=geom, target_error=target, grid_resolution=21,
            random_restarts=20, seed=17,
        )
        scan = constrained_scan(config)
        q, params = refine(scan.best_params, config)
        assert q >= scan.analytic_q - 1e-12
        e = probe._angle_error_rate(
            params.lam, params.mu, params.theta, params.phi, geom
        )
        assert abs(e - target) <= 1e-12 * target

    @pytest.mark.parametrize(
        "alpha,target",
        [
            (PI / 10, 0.38),
            (PI / 10, 0.4227),
            (PI / 10, 0.499),
            (PI / 20, 0.2),
            (PI / 20, 0.4),
        ],
    )
    def test_lower_branch_above_family_maximum_attained(self, alpha, target):
        # Above the family maximum sin^2(2a), Q_min is held at -1, and
        # refine from the best scan point reaches it on the target E.
        geom = SignalGeometry(alpha)
        assert target > optimum.max_error_rate(geom)
        config = SearchConfig(
            geom=geom, target_error=target, grid_resolution=40,
            random_restarts=50, seed=17,
        )
        scan = constrained_scan(config)
        assert scan.analytic_q == -1.0
        q, params = refine(scan.best_params, config)
        assert abs(q + 1.0) <= 1e-12
        point = evaluate(params, geom)
        assert point.overlap == q
        assert abs(point.error_rate - target) <= 1e-12

    @pytest.mark.parametrize(
        "lam,theta,phi",
        [(0.7 * PI, 0.3, 2.2), (0.0, 0.0, 0.5 * math.asin(1.0 - 4.0 * 0.2))],
        ids=["regular", "singular_lambda"],
    )
    def test_returns_a_consistent_pair(self, geom_pi8, lam, theta, phi):
        # The returned overlap is the one the returned parameters produce,
        # and they sit on the target error rate.
        config = SearchConfig(
            geom=geom_pi8, target_error=0.2, grid_resolution=5, seed=0
        )
        mu = PI / 4
        if lam != 0.0:
            mu = mu_from_constraint(lam, theta, phi, 0.2, geom_pi8)
        q, params = refine(ProbeParams(lam, mu, theta, phi), config)
        point = evaluate(params, geom_pi8)
        assert point.overlap == q
        assert abs(point.error_rate - 0.2) < 1e-12


def dataclass_free_point(angles, geom):
    """(Q, E) through ProbeParams, probe.coefficients, overlap and
    error_rate: the oracle for the simplex objectives' float route."""
    coeffs = coefficients(ProbeParams(*angles))
    try:
        q = overlap(coeffs, geom)
    except DegenerateModelError:
        return None
    return q, error_rate(coeffs, geom)


def dataclass_singular_rows(lam, thetas, target, geom):
    """Rows (lam, theta, phi, mu, E, Q) of phi elimination on a
    sin(lam) = 0 plane through ProbeParams, probe.coefficients, overlap
    and error_rate: the oracle for the sin(lam) = 0 planes' float route."""
    s2 = geom.sin_sq_two_alpha
    rows = []
    for theta in thetas:
        cos_two_theta = math.cos(2.0 * theta)
        if abs(cos_two_theta) < 1e-12:
            continue
        two_e_gap = 2.0 * (target - math.sin(theta) ** 2)
        sin_two_phi = 1.0 - two_e_gap / (s2 * cos_two_theta)
        if abs(sin_two_phi) > 1.0 + 1e-10:
            continue
        sin_two_phi = max(-1.0, min(1.0, sin_two_phi))
        half_arc = 0.5 * math.asin(sin_two_phi)
        phi_default = half_arc if half_arc >= 0.0 else half_arc + PI
        for phi in (phi_default, 0.5 * PI - half_arc):
            params = ProbeParams(lam=lam, mu=PI / 4, theta=theta, phi=phi)
            coeffs = coefficients(params)
            try:
                q = overlap(coeffs, geom)
            except DegenerateModelError:
                continue
            rows.append((lam, theta, phi, PI / 4, error_rate(coeffs, geom), q))
    return rows


def dataclass_face(lam, theta, phi, target, geom):
    """mu of the face sin(2 mu) = +-1 a point moves onto, or None where
    some mu meets the target.  E falls as sin(2 mu) rises, so it is the +1
    face where E at mu = pi/4 still lies above the target, and the -1 face
    where E at mu = 3pi/4 lies below it."""
    for mu, side in ((PI / 4, 1.0), (3 * PI / 4, -1.0)):
        params = ProbeParams(lam=lam, mu=mu, theta=theta, phi=phi)
        if side * (error_rate(coefficients(params), geom) - target) > 0.0:
            return mu
    return None


def dataclass_constrained_point(lam, theta, phi, target, geom):
    """(Q, lam, mu, theta, phi) through mu_from_constraint and the
    dataclass route, or phi elimination on a sin(lam) = 0 plane, or None;
    for a point that no face (:func:`dataclass_face`) takes."""
    lam, theta, phi = (float(v) % PI for v in (lam, theta, phi))
    if abs(math.sin(lam)) <= 1e-12:
        rows = dataclass_singular_rows(lam, [theta], target, geom)
        if not rows:
            return None
        lam, theta, phi, mu, _, q = min(rows, key=lambda row: row[5])
        return q, lam, mu, theta, phi
    mu = mu_from_constraint(lam, theta, phi, target, geom)
    params = ProbeParams(lam=lam, mu=mu, theta=theta, phi=phi)
    try:
        return overlap(coefficients(params), geom), lam, mu, theta, phi
    except DegenerateModelError:
        return None


GEOMETRIES = [PI / 10, PI / 8, PI / 5]


class TestFloatObjectives:
    """The simplex objectives' float route is == the dataclass route."""

    @pytest.mark.parametrize("alpha", GEOMETRIES)
    def test_free_point(self, alpha):
        geom = SignalGeometry(alpha)
        rng = np.random.default_rng([11, int(alpha * 1e6)])
        angles = rng.uniform(0.0, PI, (3000, 4)).tolist()
        # E = 1 and a zero radicand at lam = 0, theta = pi/2, phi = pi/4,
        # and on sin(lam) = 0 planes.
        angles += [[0.0, mu, PI / 2, PI / 4] for mu in (0.0, 0.3, 2.0)]
        angles += [[0.0, mu, t, f] for _, mu, t, f in angles[:200]]
        s2 = geom.sin_sq_two_alpha
        results = [_overlap_and_error(x, s2) for x in angles]
        assert results == [dataclass_free_point(x, geom) for x in angles]
        assert None in results
        # Unfolded angles, folded into [0, pi) as the penalty finals fold
        # them.
        for x in rng.uniform(-2.0 * PI, 3.0 * PI, (300, 4)).tolist():
            folded = [v % PI for v in x]
            assert all(0.0 <= v < PI for v in folded)
            assert _overlap_and_error(folded, s2) == dataclass_free_point(
                folded, geom
            )

    @pytest.mark.parametrize("target", [0.05, 0.2, 0.45])
    @pytest.mark.parametrize("alpha", GEOMETRIES)
    def test_constrained_point(self, alpha, target):
        geom = SignalGeometry(alpha)
        rng = np.random.default_rng([12, int(alpha * 1e6), int(target * 1e3)])
        points = rng.uniform(-2.0 * PI, 3.0 * PI, (2000, 3)).tolist()
        # sin(lam) = 0 planes; theta = 0 is feasible there for E <= s2.
        planes = [(0.0, 1.0)] + [(t, f) for _, t, f in points[:25]]
        points += [[lam, t, f] for lam in (0.0, PI, -PI, 2.0 * PI)
                   for t, f in planes]
        results = [_constrained_point(*x, target, geom) for x in points]
        # Off the faces, the twin's point.  On a face, the twin's face
        # and a lam in the half of the lam given that solves the face
        # equation to 4 ulps of its scale, E at the face's ends P and M.
        faces = 0
        for x, result in zip(points, results):
            lam, theta, phi = (v % PI for v in x)
            face = None
            if abs(math.sin(lam)) > 1e-12:
                face = dataclass_face(lam, theta, phi, target, geom)
            if face is None:
                assert result == dataclass_constrained_point(
                    *x, target, geom
                )
                continue
            p, m = exact_face_ends(face, theta, phi, alpha)
            if not min(p, m) <= target <= max(p, m):
                assert result is None
                continue
            faces += 1
            assert result[2:] == (face, theta, phi)
            e = exact_error_rate(*result[1:], alpha)
            assert abs(e - target) <= 4 * math.ulp(1.0) * max(p, m)
            if result[1] != PI / 2:
                assert (result[1] < PI / 2) == (math.cos(lam) > 0.0)
        assert faces > 500
        # Both faces are reached.  Off the sin(lam) = 0 planes a point
        # finds no lam on the -1 face only where E lies above s2, E at
        # lam = pi/2 there.
        mus = [r[2] for r in results if r is not None]
        assert PI / 4 in mus and 3 * PI / 4 in mus
        off_planes = results[:2000]
        assert (None in off_planes) == (target > geom.sin_sq_two_alpha)
        if target <= geom.sin_sq_two_alpha:
            assert any(r is not None and r[1] == 0.0 for r in results)
        # Every point, a face point too, meets the target and has the
        # overlap of its angles.
        for q, *angles in filter(None, results):
            coeffs = coefficients(ProbeParams(*angles))
            assert abs(error_rate(coeffs, geom) - target) <= 1e-12
            assert overlap(coeffs, geom) == q

    def test_face_that_holds_e_fixed(self, geom_pi8):
        # At theta = 0, phi = pi/4 the +1 face has E = 0 at every lam, so
        # no cos^2(lam) solves it; at lam = 1e-5 and E = 0 rounding sends
        # the solve past sin(2 mu) = 1, and the point is dropped.
        s2 = geom_pi8.sin_sq_two_alpha
        rhs, mu = probe._solve_mu(1e-5, math.sin(1e-5), 0.0, PI / 4, 0.0, s2)
        assert rhs > 1.0 + probe.ARCSINE_CLAMP_TOL and mu is None
        face = probe._face_cos_sq_lam(PI / 4, 0.0, PI / 4, 0.0, geom_pi8)
        assert face == math.inf
        assert _constrained_point(1e-5, 0.0, PI / 4, 0.0, geom_pi8) is None

    @pytest.mark.parametrize("target", [0.05, 0.2, 0.45])
    @pytest.mark.parametrize("alpha", GEOMETRIES)
    def test_singular_lambda_rows(self, alpha, target):
        # E = 0.45 lies above sin^2(2 alpha) at pi/10.
        geom = SignalGeometry(alpha)
        rng = np.random.default_rng([13, int(alpha * 1e6), int(target * 1e3)])
        # A scan grid, with cos(2 theta) = 0 at pi/4 and 3pi/4, and random
        # thetas; lam = pi - 1e-13 is a folded lam on the sin(lam) = 0 plane.
        thetas = np.linspace(0.0, PI, 41).tolist()
        thetas += rng.uniform(0.0, PI, 500).tolist()
        for lam in (0.0, PI, -1e-13 % PI):
            rows = _singular_lambda_points(lam, thetas, target, geom)
            assert rows == dataclass_singular_rows(lam, thetas, target, geom)
            # Both phi branches of a theta are kept.
            assert 0 < len({row[1] for row in rows}) < len(rows)
        # At E = 1 and theta = pi/2 both branches give phi = pi/4, whose
        # overlap radicand is zero up to rounding: both routes drop them.
        s2 = geom.sin_sq_two_alpha
        for lam in (0.0, PI):
            point = (lam, PI / 4, PI / 2, PI / 4)
            assert _overlap_and_error(point, s2) is None
            rows = _singular_lambda_points(lam, [PI / 2], 1.0, geom)
            assert rows == dataclass_singular_rows(lam, [PI / 2], 1.0, geom)
            assert rows == []


@pytest.mark.parametrize(
    "alpha,target", [(1e-5, 1e-10), (1e-6, 1e-12), (1e-7, 1e-14)]
)
def test_singular_lambda_rows_hold_a_tiny_error_rate(alpha, target):
    # 1 - sin(2 phi) is solved as 2(E - sin^2 theta) / (s2 cos 2theta), in
    # which no O(1) terms cancel; the form 1 - (2E - 1 + cos 2theta) /
    # (s2 cos 2theta) missed E by 8.3e-8, 2.2e-5 and 8.0e-4 relative here.
    geom = SignalGeometry(alpha)
    thetas = np.linspace(0.0, PI, 9).tolist()
    rows = _singular_lambda_points(0.0, thetas, target, geom)
    assert rows
    for lam, theta, phi, mu, e, _ in rows:
        assert abs(e - target) <= 1e-15 * target
        exact = probe._angle_error_rate(lam, mu, theta, phi, geom)
        assert abs(exact - target) <= 1e-15 * target


# Outputs of refine (from the best point of a 12^3 scan with 20 restarts,
# seed 5) and of penalty_scan (20 starts, weight 1e5), first recorded from
# the scipy-free Nelder-Mead before the simplex objectives moved to floats:
# (alpha, E, refine Q, refine params, penalty Q, penalty params,
# penalty evaluations).  Since the polish reaches the sin(2 mu) = +-1
# faces, refine at pi/6 lands on Q_min, and the penalty rows report
# polished points only, none of them below Q_min; the evaluation counts
# are unchanged.  The pi/6 row, whose polish lands on the sin(2 mu) = 1
# face, moved in its last digits when the face solve moved to
# probe._lam_terms, E's own two terms.
PINNED = [
    (PI / 8, 0.2, 0.4999999999999992,
     (2.284794657156213, 3.106965410606211, 0.0, 0.2963093070999464),
     0.4999999999999996,
     (1.4586305480245838, 0.10246541311491952, 2.558799394591915e-09,
      1.6087420933994947),
     14520),
    (PI / 10, 0.1, 0.5790161797777962,
     (1.4279966607226333, 0.2221466651853085, 0.0, 0.0),
     0.5790161797777963,
     (2.126560192710694, 0.4460476583131298, 3.1415926492493877,
      2.8768220296420752),
     11126),
    (PI / 6, 0.15, -0.05882352941176364,
     (2.45687345058751, 0.7853981633974483, 1.5707963313358357,
      2.356194485795984),
     -0.0588235294117639,
     (0.6847192030022832, 0.7853981633974483, 1.5707963234727327,
      2.3561944928911704),
     31800),
]


@pytest.mark.parametrize(
    "alpha,target,refine_q,refine_params,penalty_q,penalty_params,evals",
    PINNED,
    ids=["pi/8", "pi/10", "pi/6"],
)
def test_simplex_outputs_pinned(
    alpha, target, refine_q, refine_params, penalty_q, penalty_params, evals
):
    config = SearchConfig(
        geom=SignalGeometry(alpha),
        target_error=target,
        grid_resolution=12,
        random_restarts=20,
        seed=5,
    )
    q, params = refine(constrained_scan(config).best_params, config)
    assert (q, params) == (refine_q, ProbeParams(*refine_params))
    report = penalty_scan(config, 1e5)
    assert report.best_q == penalty_q
    assert report.best_params == ProbeParams(*penalty_params)
    assert report.samples_evaluated == evals


def rosenbrock(x):
    """Rosenbrock's function in scalar operations only, so a list and a
    numpy array of the same floats give the same float."""
    total = 0.0
    for a, b in zip(x[:-1], x[1:]):
        total += 100.0 * (b - a * a) * (b - a * a) + (1.0 - a) * (1.0 - a)
    return total


# (xatol, fatol) of refine and of the penalty scan.
REFINE_TOLERANCES = (1e-9, 1e-14)
PENALTY_TOLERANCES = (1e-10, 1e-13)


def nelder_mead_full_sort(func, x0, xatol, fatol, maxfev):
    """search._nelder_mead as it was before it kept its simplex sorted:
    a full stable sort and a max-abs f-spread on every iteration.  The
    oracle for the sorted-insertion loop."""
    evaluations = 0

    def f(x):
        nonlocal evaluations
        if evaluations >= maxfev:
            raise search_module._BudgetSpent
        evaluations += 1
        return func(x)

    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0] + [
        x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:]
        for k, v in enumerate(x0)
    ]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except search_module._BudgetSpent:
        pass
    while True:
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        best, worst, f_best = sim[0], sim[-1], fsim[0]
        if evaluations >= maxfev or (
            max(abs(f_best - v) for v in fsim[1:]) <= fatol
            and max(abs(a - b) for x in sim[1:] for a, b in zip(x, best))
            <= xatol
        ):
            return best, f_best, evaluations
        xbar = best
        for x in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, x)]
        xbar = [a / n for a in xbar]
        try:
            xr = [2.0 * b - w for b, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < f_best:
                xe = [3.0 * b - 2.0 * w for b, w in zip(xbar, worst)]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j, x in enumerate(sim[1:], 1):
                        sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, x)]
                        fsim[j] = f(sim[j])
        except search_module._BudgetSpent:
            pass


def tied(x):
    """Coarse steps in one coordinate: most simplex values tie."""
    return round(x[0] ** 2, 1)


class TestNelderMead:
    """search._nelder_mead against scipy's Nelder-Mead as the oracle."""

    @pytest.fixture
    def scipy_nelder_mead(self, monkeypatch):
        # scipy orders its simplex with np.argsort, whose default sort is
        # not stable on every build, so tied values can reorder vertices
        # there.  With a stable sort scipy walks the path _nelder_mead is
        # specified to walk, ties included.
        monkeypatch.setattr(
            np, "argsort", functools.partial(np.argsort, kind="stable")
        )

        def run(func, x0, xatol, fatol, maxfev):
            result = scipy.optimize.minimize(
                func,
                np.array(x0, dtype=float),
                method="Nelder-Mead",
                options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev},
            )
            return list(result.x), result.fun, result.nfev

        return run

    @pytest.mark.parametrize(
        "tolerances", [REFINE_TOLERANCES, PENALTY_TOLERANCES],
        ids=["refine", "penalty"],
    )
    @pytest.mark.parametrize("dim", [3, 4])
    def test_rosenbrock_equals_scipy(self, scipy_nelder_mead, dim, tolerances):
        rng = np.random.default_rng([dim, 41])
        for k in range(24):
            x0 = [float(v) for v in rng.uniform(-2.0, 2.0, dim)]
            if k % 3 == 0:
                x0[k % dim] = 0.0
            got = _nelder_mead(rosenbrock, x0, *tolerances, maxfev=10_000)
            assert got == scipy_nelder_mead(
                rosenbrock, x0, *tolerances, maxfev=10_000
            ), (dim, k)
            assert got[2] < 10_000

    @pytest.mark.parametrize("maxfev", [1, 3, 4, 5, 10, 57, 200, 10_000])
    @pytest.mark.parametrize("func", [rosenbrock, tied])
    def test_equals_full_sort_loop(self, func, maxfev):
        # Sorted insertion walks the path of a full stable sort on every
        # iteration, ties (the new vertex goes after its equals) and
        # budget stops (mid-shrink included) too.
        tolerances = (REFINE_TOLERANCES, PENALTY_TOLERANCES, (1e-4, 1e-4))
        for dim in (3, 4):
            rng = np.random.default_rng([dim, maxfev, 43])
            for k in range(10):
                x0 = [float(v) for v in rng.uniform(-2.0, 2.0, dim)]
                if k % 3 == 0:
                    x0[k % dim] = 0.0
                for xatol, fatol in tolerances:
                    args = (func, x0, xatol, fatol, maxfev)
                    assert _nelder_mead(*args) == nelder_mead_full_sort(
                        *args
                    ), (dim, k, xatol)

    def test_budget_stop_mid_shrink_returns_the_best_vertex(
        self, scipy_nelder_mead
    ):
        # Scripted values: a 2-D simplex (1, 2, 3), a reflection and an
        # inside contraction both worse than the worst, so it shrinks;
        # the first shrunk vertex (0.5) beats the best, and the budget
        # refuses the second.  The shrunk vertex must be returned.
        def scripted():
            values = iter([1.0, 2.0, 3.0, 5.0, 6.0, 0.5])
            return lambda x: next(values)

        x0 = [0.4, 0.7]
        got = _nelder_mead(scripted(), x0, *PENALTY_TOLERANCES, maxfev=6)
        shrunk = [0.4 + 0.5 * (1.05 * 0.4 - 0.4), 0.7]
        assert got == (shrunk, 0.5, 6)
        assert got == nelder_mead_full_sort(
            scripted(), x0, *PENALTY_TOLERANCES, maxfev=6
        )
        assert got == scipy_nelder_mead(
            scripted(), x0, *PENALTY_TOLERANCES, maxfev=6
        )

    @pytest.mark.parametrize("maxfev", [1, 3, 4, 5, 10, 57])
    def test_budget_on_unbounded_objective(self, scipy_nelder_mead, maxfev):
        # A linear objective has no minimum: every step expands, so only
        # maxfev can stop the search, also inside the initial simplex.
        def downhill(x):
            return -(x[0] + 2.0 * x[1] + 3.0 * x[2])

        x0 = [0.5, 0.0, -1.0]
        x, fun, evaluations = _nelder_mead(
            downhill, x0, *PENALTY_TOLERANCES, maxfev=maxfev
        )
        assert evaluations == maxfev
        assert fun == downhill(x)
        assert (x, fun, evaluations) == scipy_nelder_mead(
            downhill, x0, *PENALTY_TOLERANCES, maxfev=maxfev
        )

    def test_penalty_finals_follow_scipy(self, geom_pi8, scipy_nelder_mead):
        # On the penalty scan's own objective: the same folded finals and
        # evaluation count as the scipy route it replaced.
        config = SearchConfig(
            geom=geom_pi8, target_error=0.2, random_restarts=3, seed=7
        )
        weight = 1e5

        def objective(x):
            point = dataclass_free_point([float(v) % PI for v in x], geom_pi8)
            if point is None:
                return search_module._INFEASIBLE
            return point[0] + weight * (point[1] - 0.2) ** 2

        rng = np.random.default_rng([7, search_module._PENALTY_STREAM])
        finals, evaluations = [], 0
        for x0 in rng.uniform(0.0, PI, size=(3, 4)):
            x, _, spent = scipy_nelder_mead(
                objective, x0, *PENALTY_TOLERANCES, maxfev=10_000
            )
            evaluations += spent
            finals.append([float(v) % PI for v in x])
        assert _penalty_finals(config, weight) == (finals, evaluations)


class TestPenaltyScan:
    def test_standard_angle(self, geom_pi8):
        config = SearchConfig(
            geom=geom_pi8,
            target_error=0.2,
            grid_resolution=10,
            random_restarts=12,
            seed=11,
        )
        report = penalty_scan(config, 1e4)
        assert abs(report.best_q - 0.5) < 1e-3
        assert (
            abs(error_rate(coefficients(report.best_params), geom_pi8) - 0.2)
            < 1e-4
        )

    def test_cross_validates_constrained_scan(self):
        geom = SignalGeometry(PI / 9)
        config = SearchConfig(
            geom=geom,
            target_error=0.05,
            grid_resolution=21,
            random_restarts=12,
            seed=11,
        )
        assert (
            abs(penalty_scan(config, 1e4).best_q - constrained_scan(config).best_q)
            < 2e-3
        )

    def test_weight_tightens_error_mismatch(self, geom_pi8):
        # On a fixed seed the raw penalty finals park the error rate at
        # target + O(1/w); increasing w tightens the gap monotonically.
        config = SearchConfig(
            geom=geom_pi8,
            target_error=0.2,
            grid_resolution=10,
            random_restarts=8,
            seed=11,
        )
        gaps = []
        for weight in (1e2, 1e4, 1e6):
            finals, _ = _penalty_finals(config, weight)
            errors = [
                error_rate(coefficients(ProbeParams(*angles)), geom_pi8)
                for angles in finals
            ]
            gaps.append(np.mean([abs(e - 0.2) for e in errors]))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_polishes_final_on_singular_lambda_plane(
        self, geom_pi8, monkeypatch
    ):
        # A final on sin(lam) = 0, off the target by more than 1e-4, is
        # polished through phi elimination, as refine evaluates it.
        final = [0.0, 0.4, 0.0, 0.3]
        e = error_rate(coefficients(ProbeParams(*final)), geom_pi8)
        assert abs(e - 0.2) > 1e-4
        monkeypatch.setattr(
            search_module,
            "_penalty_finals",
            lambda config, weight: ([final], 7),
        )
        config = SearchConfig(geom=geom_pi8, target_error=0.2, seed=0)
        report = penalty_scan(config, 1e4)
        assert report.best_params.lam == 0.0
        assert report.best_params.theta == 0.0
        point = evaluate(report.best_params, geom_pi8)
        assert point.overlap == report.best_q
        assert abs(point.error_rate - 0.2) < 1e-12
        assert report.samples_evaluated == 7

    def test_weight_validation(self, geom_pi8):
        config = SearchConfig(geom=geom_pi8, target_error=0.1)
        with pytest.raises(DomainError):
            penalty_scan(config, 0.0)

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
    def test_weight_must_be_finite_and_positive(self, geom_pi8, weight):
        # A NaN weight made every start spend the whole 10^4 budget.
        config = SearchConfig(geom=geom_pi8, target_error=0.1)
        with pytest.raises(DomainError, match="finite and positive"):
            penalty_scan(config, weight)

    @pytest.mark.parametrize("seed", range(6))
    def test_no_violations_on_working_code(self, geom_pi8, seed):
        # Raw finals park at E ~ target + 1.6e-5, where the optimum is
        # lower than at the target; only their polished points, at the
        # target, are reported, and none lies below Q_min there.
        config = SearchConfig(
            geom=geom_pi8, target_error=0.2, random_restarts=4, seed=seed
        )
        finals, _ = _penalty_finals(config, 1e5)
        raw = [evaluate(ProbeParams(*angles), geom_pi8) for angles in finals]
        assert any(0.0 < point.error_rate - 0.2 < 1e-4
                   and point.overlap < 0.5 - 1e-6 for point in raw)
        report = penalty_scan(config, 1e5)
        assert report.violations == 0
        assert report.best_q >= report.analytic_q - config.tolerance

    @pytest.mark.parametrize(
        "alpha,target,seed",
        [(PI / 8, 0.2, seed) for seed in range(6)]
        + [(PI / 10, 0.1, 0), (PI / 6, 0.15, 0)],
    )
    def test_report_is_consistent(self, alpha, target, seed):
        # The best point sits on the target, and neither it nor any other
        # reported point lies below Q_min there.
        geom = SignalGeometry(alpha)
        config = SearchConfig(
            geom=geom, target_error=target, random_restarts=4, seed=seed
        )
        report = penalty_scan(config, 1e5)
        point = evaluate(report.best_params, geom)
        assert abs(point.error_rate - target) <= 1e-12
        assert point.overlap == report.best_q
        assert report.violations == 0
        assert report.best_q >= report.analytic_q - config.tolerance

    @pytest.mark.parametrize("target", [0.2, 0.49998])
    def test_planted_candidate_below_its_own_optimum_counts(
        self, geom_pi8, monkeypatch, target
    ):
        # Two polished points: their own E is the target, so both are
        # judged against Q_min there, and only the one below it by more
        # than the tolerance is a violation.  Near E = 1/2 = E_max, Q_min
        # approaches -1.
        analytic = (1.0 - 3.0 * target) / (1.0 - target)
        finals = [[0.1, 0.0, 0.2, 0.3], [0.4, 0.0, 0.5, 0.6]]
        polished = {
            0.1: (analytic - 1e-3, 0.1, PI / 4, 0.2, 0.3),
            0.4: (analytic - 1e-7, 0.4, PI / 4, 0.5, 0.6),
        }
        monkeypatch.setattr(
            search_module,
            "_penalty_finals",
            lambda config, weight: (finals, 9),
        )
        monkeypatch.setattr(
            search_module,
            "_constrained_point",
            lambda lam, theta, phi, target, geom: polished[lam],
        )
        config = SearchConfig(geom=geom_pi8, target_error=target, seed=0)
        report = penalty_scan(config, 1e5)
        assert report.analytic_q == pytest.approx(analytic, abs=1e-15)
        assert report.violations == 1
        assert report.best_q == analytic - 1e-3
        assert report.best_params == ProbeParams(0.1, PI / 4, 0.2, 0.3)
        assert report.samples_evaluated == 9
