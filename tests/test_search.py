import functools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from qkdprobe import optimum, probe
from qkdprobe import search as search_module
from qkdprobe.search import (
    _constrained_point,
    _nelder_mead,
    _penalty_finals,
)

from conftest import exact_error_rate, exact_overlap

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
        # sample below the branch value, and the lower branch's x = 0 end
        # attains it at every node.
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
            assert report.samples_evaluated == 40 * 40 + 20
            assert abs(report.best_q - report.analytic_q) <= 1e-12

    def test_nodes_judged_at_their_own_error_rate(self, monkeypatch):
        # At the float just below pi/4 no float angles meet E = E_max / 2:
        # every row's own angles induce a higher E, where Q_min lies 0.013
        # to 0.68 lower.  Nodes planted halfway between Q_min at their own
        # E and Q_min at the target lie below the latter by far more than
        # the tolerance, and the re-judge, run as it is, forgives each.
        geom = SignalGeometry(math.nextafter(PI / 4, 0))
        target = 0.5 * optimum.max_error_rate(geom)
        config = SearchConfig(geom, target, grid_resolution=9,
                              random_restarts=2)
        rows = []
        report = constrained_scan(config, sink=rows.extend)
        analytic = report.analytic_q
        assert report.violations == 0
        for lam, theta, phi, mu, e, _ in rows:
            assert e == probe._angle_error_rate(lam, mu, theta, phi, geom)
            assert optimum._q_min(e, geom) < analytic - 1e-2

        def halfway(row):
            return 0.5 * (optimum._q_min(row[4], geom) + analytic)

        planted = plant_nodes(monkeypatch, config, halfway)
        report = constrained_scan(config)
        assert planted == report.samples_evaluated == len(rows)
        assert report.best_q < analytic - 1e-2
        assert report.violations == 0

    @pytest.mark.parametrize(
        "alpha", [0.785398, PI / 4 - 3e-9, math.nextafter(PI / 4, 0)],
        ids=["0.785398", "pi/4-3e-9", "below-pi/4"],
    )
    @pytest.mark.parametrize("resolution", [9, 13])
    def test_planted_violation_just_below_own_optimum_counts(
        self, monkeypatch, alpha, resolution
    ):
        # Q_min falls across E's whole range, [0, cos^2(2a)], at a slope
        # of -2 / cos^2(2a): -1.9e13 at 0.785398, -5.6e16 at pi/4 - 3e-9
        # and -2.5e31 at the float just below pi/4, where E's whole range
        # is 8.0e-32.  Every node planted 2e-6 below Q_min at the E of its
        # own angles counts only if that E is right to ~5e-20, ~2e-23 and
        # ~8e-38; a shift of E by 3e-16, the allowance the scan once
        # added, would hide each one.
        geom = SignalGeometry(alpha)
        config = SearchConfig(
            geom, 0.0, grid_resolution=resolution, random_restarts=2
        )
        assert constrained_scan(config).violations == 0

        def just_below(row):
            lam, theta, phi, mu, _, _ = row
            e = probe._angle_error_rate(lam, mu, theta, phi, geom)
            return optimum._q_min(e, geom) - 2e-6

        planted = plant_nodes(monkeypatch, config, just_below)
        report = constrained_scan(config)
        assert report.violations == planted == report.samples_evaluated

    def test_planted_violation_above_own_optimum_is_forgiven(
        self, monkeypatch
    ):
        # A node below Q_min at the target counts only if it lies below
        # Q_min at the E of its own angles as well.  With that E read as
        # 0.2005, Q_min there is 1.56e-3 below Q_min at 0.2: of the nodes
        # planted 1e-3 and 1e-2 below the latter, only the second count.
        geom = SignalGeometry(PI / 8)
        config = SearchConfig(geom, 0.2, grid_resolution=9, random_restarts=2)
        analytic = constrained_scan(config).analytic_q
        depth = iter([1e-3, 1e-2] * 100)
        planted = plant_nodes(
            monkeypatch, config, lambda row: analytic - next(depth)
        )
        monkeypatch.setattr(probe, "_lam_error_rate", lambda *args: 0.2005)
        assert optimum._q_min(0.2005, geom) < analytic - 1.5e-3
        assert constrained_scan(config).violations == planted // 2

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

    @pytest.mark.parametrize("resolution", [3, 4])
    def test_no_real_config_is_infeasible(self, resolution):
        # No valid config leaves the scan without a feasible node.  At
        # E <= sin^2(2a) every node has lam = pi/2, u = E / sin^2(2a).
        # Above it, with E < 1/2 < cos^2(2a), a node with sin^2(theta) >=
        # 1/2 has P >= sin^2(theta) cos^2(2a) + cos^2(theta) sin^2(2a) >=
        # 1/2 > E, so x in [(E - s2) / (P - s2), E / P] meets E; every
        # grid has such a theta: pi/2, or a node within pi/6 of it.  The
        # coarsest grids, without restarts, at E up to just below 1/2:
        for alpha in (1e-3, PI / 20, PI / 10, PI / 8, 0.7, 0.785398):
            geom = SignalGeometry(alpha)
            low = geom.sin_sq_two_alpha
            edge = min(low, 0.49)
            for target in (0.5 * edge, 0.5 * (edge + 0.5),
                           math.nextafter(0.5, 0.0)):
                lines = resolution
                if target > low:
                    lines = sum(
                        math.sin(k * PI / (resolution - 1)) ** 2 >= 0.5
                        for k in range(resolution)
                    )
                nodes = lines * resolution
                config = SearchConfig(geom, target, resolution)
                report = constrained_scan(config)
                assert report.samples_evaluated >= nodes
                assert report.violations == 0
                assert report.best_q >= report.analytic_q - 1e-12

    def test_empty_feasible_set(self, monkeypatch):
        # As no real config is infeasible (above), only a kernel that
        # finds no node anywhere makes the scan raise.
        monkeypatch.setattr(
            probe, "_minima",
            lambda theta_terms, *args: (
                [math.inf] * len(theta_terms), [math.nan] * len(theta_terms)
            ),
        )
        config = SearchConfig(
            geom=SignalGeometry(0.01 * PI),
            target_error=0.3,
            grid_resolution=3,
            random_restarts=2,
        )
        with pytest.raises(EmptyFeasibleSetError, match="E = 0.3 at"):
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


def plant_nodes(monkeypatch, config, lowered):
    """Make the scan see each node at Q = lowered(row) instead, row its
    (lam, theta, phi, mu, E, Q) in an unchanged scan; returns how many
    nodes were planted.

    The scan meets its nodes in the order its sink receives them, so the
    patched kernels hand out the planted values in that order."""
    blocks = []
    constrained_scan(config, sink=blocks.append)
    values = [lowered(row) for block in blocks for row in block]
    planted = iter(values)

    kernel = probe._minima

    def lowered_kernel(*args):
        qs, xs = kernel(*args)
        return [q if q == math.inf else next(planted) for q in qs], xs

    monkeypatch.setattr(probe, "_minima", lowered_kernel)
    return len(values)


def full_plane_observables(lam, theta, phi, target, geom):
    """(mu, E, Q, feasible) on every node of broadcast (lam, theta, phi)
    arrays, mu solved from the constraint and each formula written out in
    full: the scan's array kernel from when it gridded lam too, kept as
    the oracle for probe._node_minimum."""
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


# lam planes of the oracle: lam and pi - lam give the same observables.
ORACLE_PLANES = np.linspace(0.0, PI / 2, 4001)[1:]


def plane_minimum(theta, phi, target, geom):
    """(least Q over the oracle's lam planes, its grid error) at (theta,
    phi), or None with fewer than two feasible planes.  The grid error is
    the largest step of Q between neighbouring feasible planes: the
    feasible planes form one run, as x = cos^2(lam) falls with lam, so an
    end of the feasible interval lies within a step of the nearest
    plane."""
    _, _, q, feasible = full_plane_observables(
        ORACLE_PLANES, theta, phi, target, geom
    )
    q = q[feasible]
    if q.size < 2:
        return None
    return float(q.min()), float(np.abs(np.diff(q)).max())


@pytest.mark.parametrize("target", [0.0, 0.02, 0.1, 0.2, 0.3, 0.45])
@pytest.mark.parametrize(
    "alpha", [1e-3, PI / 20, PI / 10, PI / 8, PI / 6, 0.7, 0.785398],
    ids=["1e-3", "pi/20", "pi/10", "pi/8", "pi/6", "0.7", "0.785398"],
)
def test_kernel_matches_the_lam_plane_oracle(alpha, target):
    # On random (theta, phi) the kernel's closed-form minimum over (lam,
    # mu) is never above the least Q of 4000 lam planes with mu solved on
    # each, and lies below it by no more than the oracle's grid error.
    geom = SignalGeometry(alpha)
    rng = np.random.default_rng([int(alpha * 1e6), int(target * 1e3)])
    compared = 0
    for theta, phi in rng.uniform(0.0, PI, (40, 2)).tolist():
        node = probe._node_minimum(theta, phi, target, geom)
        oracle = plane_minimum(theta, phi, target, geom)
        if oracle is None:
            continue
        compared += 1
        least, step = oracle
        assert node is not None
        assert node[0] <= least + 1e-12
        assert least - node[0] <= step + 1e-12
    # At E = 0 only x P = 0 meets the target, so no two planes do.
    if 0.0 < target <= optimum.max_error_rate(geom):
        assert compared > 20


@pytest.mark.parametrize(
    "alpha,target",
    [(PI / 10, 0.05), (PI / 8, 0.2), (PI / 6, 0.1), (0.7, 0.3)],
)
def test_kernel_point_is_the_overlap_of_its_angles(alpha, target):
    # The kernel's Q is the overlap of the angles _node_point gives: to
    # 1e-12 against a 50-digit evaluation, with E on the target to 1e-12
    # relative.
    geom = SignalGeometry(alpha)
    rng = np.random.default_rng([3, int(alpha * 1e6)])
    for theta, phi in rng.uniform(0.0, PI, (60, 2)).tolist():
        node = probe._node_minimum(theta, phi, target, geom)
        if node is None:
            continue
        lam, mu, _ = probe._node_point(theta, phi, node[1], target, geom)
        assert abs(node[0] - exact_overlap(lam, mu, theta, phi, alpha)) <= 1e-12
        e = exact_error_rate(lam, mu, theta, phi, alpha)
        assert abs(e - target) <= 1e-12 * target


def test_scan_violations_match_a_recount_of_its_rows(monkeypatch):
    # Working code gives no violations, so move the reference up to the
    # median and the 90 % quantile of each scan's Q; every row sits on the
    # target, so the count is that of rows below the reference by more
    # than the tolerance.
    # (On the lower branch below E_max every node attains Q_min at x = 0,
    # so its Q has no spread.)
    for alpha, target in ((PI / 10, 0.4), (PI / 6, 0.1), (0.7, 0.3)):
        config = SearchConfig(SignalGeometry(alpha), target, 24, 100, 3)
        blocks = []
        report = constrained_scan(config, sink=blocks.append)
        rows = [row for block in blocks for row in block]
        assert len(rows) == report.samples_evaluated
        for level in np.quantile([row[5] for row in rows], [0.5, 0.9]):
            monkeypatch.setattr(
                optimum, "_q_min", lambda error, geom: float(level)
            )
            low = sum(1 for row in rows if row[5] < level - config.tolerance)
            moved = constrained_scan(config)
            assert 0 < moved.violations == low < moved.samples_evaluated
            monkeypatch.undo()


def float_angle_floor(lam, mu, theta, phi, geom):
    """How far E moves when lam and mu move by an ulp: the resolution of E
    that float angles allow.  It exceeds 1e-12 E where lam sits near pi/2
    with cos^2(lam) P tiny beside E (the float nearest pi/2 has
    cos^2 = 3.7e-33), or mu near pi/4 with sin^2(pi/4 - mu) tiny."""
    p, m = probe._lam_terms(mu, theta, phi, geom)
    d_lam, d_mu = math.ulp(lam), math.ulp(mu)
    return abs(math.sin(2.0 * lam) * (p - m)) * d_lam + (p + m) * (
        d_lam * d_lam
    ) + geom.sin_sq_two_alpha * math.sin(lam) ** 2 * (
        abs(math.cos(2.0 * mu)) * d_mu + d_mu * d_mu
    )


# The alphas of the CLI edge table, both branches and the seam included.
EDGE_ALPHAS = [
    5.3e-155,
    1e-150,
    math.nextafter(PI / 8, 0.0),
    PI / 8,
    math.nextafter(PI / 8, 1.0),
    0.785398,
    math.nextafter(PI / 4, 0.0),
]


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("alpha", EDGE_ALPHAS, ids=repr)
def test_scan_attains_the_optimum_at_every_edge_alpha(alpha, fraction):
    # A grid with resolution - 1 a multiple of 4 holds the upper branch's
    # optimum (pi/2, 3pi/4), and every grid holds the lower branch's x = 0
    # end: best_q lies within 1e-12 of Q_min with no violation.  Every
    # row meets E at its own angles to 1e-12 relative, up to what an ulp
    # of lam and mu moves E.
    geom = SignalGeometry(alpha)
    target = fraction * optimum.max_error_rate(geom)
    config = SearchConfig(geom, target, grid_resolution=41, random_restarts=9)
    blocks = []
    report = constrained_scan(config, sink=blocks.append)
    assert report.violations == 0
    if alpha == math.nextafter(PI / 4, 0.0):
        # Here E_max = cos^2(2a) = 8.0e-32, while P at the float optimum
        # node carries sin^2(3pi/4 - phi) + cos^2(theta) = 1.2e-32 that no
        # float (theta, phi) removes, so Q_min is out of reach of float
        # angles; the best node is still that one.
        grid = np.linspace(0.0, PI, 41).tolist()
        assert report.best_q == probe._node_minimum(
            grid[20], grid[30], target, geom
        )[0]
        assert report.best_q > report.analytic_q
    else:
        assert abs(report.best_q - report.analytic_q) <= 1e-12
    for lam, theta, phi, mu, e, _ in (row for block in blocks for row in block):
        assert e == probe._angle_error_rate(lam, mu, theta, phi, geom)
        floor = float_angle_floor(lam, mu, theta, phi, geom)
        assert abs(e - target) <= 1e-12 * target + floor


@pytest.mark.parametrize(
    "alpha,target", [(0.7, 0.2), (0.7, 0.49), (PI / 6, 0.3)]
)
def test_upper_branch_above_family_maximum_reaches_minus_one(alpha, target):
    # Above E_max = cos^2(2a) Q_min is held at -1.  The scan reaches it at
    # resolution 41, and refine from a coarse scan's best does too, where
    # the four-angle polish once stalled 3.4e-8 to 1.65e-7 short.  The
    # kernel holds a Q that rounding puts just below -1 at -1, so neither
    # falls below it.
    geom = SignalGeometry(alpha)
    assert target > optimum.max_error_rate(geom)
    for resolution in (41, 12):
        config = SearchConfig(geom, target, resolution, 20, seed=4)
        scan = constrained_scan(config)
        q, params = refine(scan.best_params, config)
        assert abs(scan.analytic_q + 1.0) <= 1e-15
        assert -1.0 <= q <= scan.best_q
        assert scan.best_q >= -1.0
        assert q + 1.0 <= 1e-12
        if resolution == 41:
            assert scan.best_q + 1.0 <= 1e-12
        e = probe._angle_error_rate(
            params.lam, params.mu, params.theta, params.phi, geom
        )
        assert abs(e - target) <= 1e-12 * target


def test_kernel_holds_only_rounding_at_minus_one():
    # Above E_max the least overlap at (pi/2, 3pi/4) is -1.  Terms with
    # sin^2(theta) = 1 + d, as a faulty kernel input might give, push the
    # kernel's Q to -1 - 2.035 d: within IDENTITY_TOL that is held at -1,
    # as renyi_info holds it, and beyond it Q is returned as it is.  NaN
    # input raises instead of reading as -1.
    geom = SignalGeometry(0.7)
    assert probe._node_minimum(PI / 2, 0.75 * PI, 0.3, geom)[0] == -1.0
    assert probe._minima(
        [(1.0 + 1e-13, 0.0)], [(0.0, 1.0)], 0.3, geom
    )[0] == [-1.0]
    for excess in (1e-12, 1e-3):
        (q,), _ = probe._minima(
            [(1.0 + excess, 0.0)], [(0.0, 1.0)], 0.3, geom
        )
        assert -1.0 - 2.1 * excess < q < -1.0 - 2.0 * excess
    with pytest.raises(DegenerateModelError, match="NaN"):
        probe._node_minimum(math.nan, 0.3, 0.3, geom)


def node_minimum_oracle(sin_sq_theta, cos_sq_theta, plus, minus, target,
                        geom):
    """(Q, x) of one node, or None where no (lam, mu) meets the target: the
    kernel as it was written per node, with the (alpha, E) constants and
    the overlap at x = 0 worked out again at each, kept as the oracle for
    probe._minima."""
    s2 = geom.sin_sq_two_alpha
    p = probe._p_term(sin_sq_theta, cos_sq_theta, plus, minus, geom)
    lo, hi = 0.0, 1.0
    if target < p:
        hi = target / p
    if p > s2:
        if target > s2:
            lo = (target - s2) / (p - s2)
            if lo > hi:
                return None
    elif target > s2:
        return None
    elif p < s2:
        edge = (s2 - target) / (s2 - p)
        if edge < hi:
            hi = edge
    r0 = (1.0 - target) * (1.0 - target)
    c = 4.0 * s2 * sin_sq_theta * cos_sq_theta * plus * minus
    candidates = (lo, hi)
    ac = (1.0 + target - 2.0 * target / s2) * c
    if ac > 0.0:
        b = 2.0 * sin_sq_theta * (geom.cos_sq_two_alpha / s2 - minus)
        stationary = -b * r0 / ac
        if lo < stationary < hi:
            candidates = (lo, hi, stationary)
    k = 2.0 * (sin_sq_theta + cos_sq_theta * minus)
    best = None
    for x in candidates:
        radicand = r0 - c * x * x
        if radicand <= 0.0:
            continue
        w = (target - x * p) / s2
        if w < 0.0:
            w = 0.0
        elif w > 1.0 - x:
            w = 1.0 - x
        q = ((1.0 + target) - x * k - 2.0 * w) / math.sqrt(radicand)
        if best is None or q < best[0]:
            best = (q, x)
    if best is None or best[0] >= -1.0:
        return best
    if best[0] >= -1.0 - probe.IDENTITY_TOL:
        return -1.0, best[1]
    if best[0] < -1.0:
        return best
    raise DegenerateModelError("overlap is NaN")


def assert_minima_match_oracle(theta_terms, phi_terms, target, geom):
    """probe._minima on the node lists equals the per-node oracle bit for
    bit, Q = inf where the oracle finds no (lam, mu); returns how many
    nodes were feasible."""
    qs, xs = probe._minima(theta_terms, phi_terms, target, geom)
    assert len(qs) == len(xs) == len(theta_terms)
    feasible = 0
    for t_terms, p_terms, q, x in zip(theta_terms, phi_terms, qs, xs):
        node = node_minimum_oracle(*t_terms, *p_terms, target, geom)
        if node is None:
            assert q == math.inf
        else:
            assert (q.hex(), x.hex()) == (node[0].hex(), node[1].hex())
            feasible += 1
    return feasible


MINIMA_ALPHAS = [1e-3, PI / 10, PI / 8, PI / 6, 0.7, PI / 4 - 1e-5, 0.785398]


@pytest.mark.parametrize("alpha", MINIMA_ALPHAS)
@pytest.mark.parametrize("resolution", [13, 40, 41, 120])
def test_minima_match_the_per_node_kernel(alpha, resolution):
    # Every node of the scan grid, at E from 0 to twice the family
    # maximum (held below 1/2), as the scan calls the kernel: one call
    # per theta line.
    geom = SignalGeometry(alpha)
    top = optimum.max_error_rate(geom)
    grid = probe._linspace(0.0, PI, resolution)
    phi_terms = [probe._phi_terms(phi) for phi in grid]
    for scale in (0.0, 0.1, 0.5, 0.9, 1.0, 1.3, 2.0):
        target = min(scale * top, 0.49)
        feasible = 0
        for theta in grid:
            feasible += assert_minima_match_oracle(
                [probe._theta_terms(theta)] * resolution, phi_terms,
                target, geom,
            )
        assert feasible > 0


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1e-6, PI / 4, exclude_max=True),
    scale=st.floats(0.0, 2.0),
    nodes=st.lists(
        st.tuples(st.floats(0.0, PI), st.floats(0.0, PI)), max_size=40
    ),
)
def test_minima_match_the_per_node_kernel_on_random_nodes(
    alpha, scale, nodes
):
    geom = SignalGeometry(alpha)
    target = min(scale * optimum.max_error_rate(geom), 0.49)
    assert_minima_match_oracle(
        [probe._theta_terms(theta) for theta, _ in nodes],
        [probe._phi_terms(phi) for _, phi in nodes],
        target, geom,
    )


def test_minima_raise_on_nan_terms_where_the_interval_starts_at_zero():
    # At E <= sin^2(2a) every node's interval starts at x = 0, whose
    # overlap the kernel reads once per call, without P; a NaN P still
    # raises there, as the per-node kernel did.  Above sin^2(2a), where
    # the per-node kernel found no interval, the node stays infeasible.
    geom = SignalGeometry(0.7)
    assert 0.3 < geom.sin_sq_two_alpha
    nan_terms = [probe._theta_terms(math.nan)], [probe._phi_terms(0.3)]
    with pytest.raises(DegenerateModelError, match="NaN"):
        probe._minima(*nan_terms, 0.3, geom)
    geom = SignalGeometry(0.1)
    assert 0.3 > geom.sin_sq_two_alpha
    assert probe._minima(*nan_terms, 0.3, geom)[0] == [math.inf]
    assert node_minimum_oracle(
        *nan_terms[0][0], *nan_terms[1][0], 0.3, geom
    ) is None


def test_overlap_below_minus_one_counts_above_family_maximum(monkeypatch):
    # Above E_max Q_min is -1, so a node counts only below -1 - 1e-6: the
    # one planted at -1 - 1e-3 does, and the others, left as they are,
    # do not.
    geom = SignalGeometry(0.7)
    assert 0.3 > optimum.max_error_rate(geom)
    config = SearchConfig(geom, 0.3, grid_resolution=9, random_restarts=2)
    first = iter([True])
    plant_nodes(
        monkeypatch, config,
        lambda row: -1.0 - 1e-3 if next(first, False) else row[5],
    )
    report = constrained_scan(config)
    assert report.best_q == -1.0 - 1e-3
    assert report.violations == 1


@pytest.mark.parametrize(
    "alpha,target", [(1e-5, 1e-10), (1e-6, 1e-12), (1e-7, 1e-14)]
)
def test_rows_hold_a_tiny_error_rate(alpha, target):
    # Every row of a scan at a tiny alpha and E meets E at its own angles
    # to 1e-12 relative (50 digits), and best_q sits on Q_min.
    geom = SignalGeometry(alpha)
    config = SearchConfig(geom, target, grid_resolution=9, random_restarts=2)
    blocks = []
    report = constrained_scan(config, sink=blocks.append)
    assert abs(report.best_q - report.analytic_q) <= 1e-15
    for lam, theta, phi, mu, _, _ in (row for block in blocks for row in block):
        exact = exact_error_rate(lam, mu, theta, phi, alpha)
        assert abs(exact - target) <= 1e-12 * target


class TestRefine:
    def test_stationary_start_unchanged(self, geom_pi8):
        family = optimal_parameter_families(0.1, geom_pi8)[0]
        start = sample_params(family, 0.1, geom_pi8, {"theta": 0.4, "phi": 2.0})
        config = SearchConfig(
            geom=geom_pi8, target_error=0.1, grid_resolution=5, seed=0
        )
        start_q = overlap(coefficients(start), geom_pi8)
        kernel_q = _constrained_point(0.4, 2.0, 0.1, geom_pi8)[0]
        refined_q, _ = refine(start, config)
        assert refined_q <= kernel_q
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
        # Seeded restart study: every random feasible start converges to
        # the optimum within 1e-4.
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
        # A start on the sin(lam) = 0 plane: refine reads only its
        # (theta, phi), where the kernel's x = 1 end is the plane.
        config = SearchConfig(
            geom=geom_pi8, target_error=0.2, grid_resolution=5, seed=0
        )
        phi = 0.5 * math.asin(1.0 - 4.0 * 0.2)
        start = ProbeParams(lam=0.0, mu=PI / 4, theta=0.0, phi=phi)
        refined_q, _ = refine(start, config)
        assert abs(refined_q - 0.5) < 1e-9

    def test_infeasible_start_raises(self):
        # E = 0.4 lies above E_max = 0.3455 at pi/10, and no (lam, mu)
        # meets it at (theta, phi) = (0, 0.5).
        config = SearchConfig(geom=SignalGeometry(PI / 10), target_error=0.4)
        with pytest.raises(InfeasibleConstraintError, match="cannot meet"):
            refine(ProbeParams(0.0, 0.0, 0.0, 0.5), config)

    def test_infeasible_node_is_stepped_over(self, monkeypatch):
        # From (0.15 pi, 49 pi / 60) the simplex meets one (theta, phi)
        # where no (lam, mu) meets E = 0.4, and still ends at Q = -1 on
        # the target.
        infeasible = []

        def counted(*args):
            point = _constrained_point(*args)
            infeasible.append(point is None)
            return point

        monkeypatch.setattr(search_module, "_constrained_point", counted)
        config = SearchConfig(geom=SignalGeometry(PI / 10), target_error=0.4)
        q, params = refine(
            ProbeParams(0.0, 0.0, 0.15 * PI, 49 * PI / 60), config
        )
        assert (len(infeasible), sum(infeasible)) == (172, 1)
        assert abs(q + 1.0) <= 1e-12
        assert_on_target(q, params, 0.4, PI / 10)
        angles = (params.lam, params.mu, params.theta, params.phi)
        assert abs(exact_error_rate(*angles, PI / 10) - 0.4) <= 1.4e-16 * 0.4

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("alpha", [PI / 6, PI / 5, 0.7])
    def test_upper_branch_attained(self, alpha, fraction):
        # Above pi/8 the optimum lies on the face sin(2 mu) = 1, an end of
        # the kernel's x interval: refine from the best point of a scan
        # whose grid misses (pi/2, 3pi/4) lands on Q_min.
        geom = SignalGeometry(alpha)
        target = fraction * geom.cos_sq_two_alpha
        config = SearchConfig(
            geom=geom, target_error=target, grid_resolution=40,
            random_restarts=50,
        )
        scan = constrained_scan(config)
        q, params = refine(scan.best_params, config)
        assert abs(q - scan.analytic_q) <= 1e-12
        assert_on_target(q, params, target, alpha)

    @pytest.mark.parametrize(
        "alpha", [0.7, PI / 4 - 1e-3, PI / 4 - 1e-5, 0.785398]
    )
    def test_upper_branch_stays_on_the_target(self, alpha):
        # Where the polish once took mu from the sin(2 mu) formula, whose
        # O(1) terms cancel near pi/4, refine from this scan missed E by
        # 9.2e-8 relative at pi/4 - 1e-5 and landed on lam = 0, E = E_max,
        # at 0.785398, with Q that far below Q_min.
        geom = SignalGeometry(alpha)
        target = 0.5 * geom.cos_sq_two_alpha
        config = SearchConfig(
            geom=geom, target_error=target, grid_resolution=21,
            random_restarts=20, seed=17,
        )
        scan = constrained_scan(config)
        q, params = refine(scan.best_params, config)
        assert q >= scan.analytic_q - 1e-12
        e = exact_error_rate(
            params.lam, params.mu, params.theta, params.phi, alpha
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
        assert_on_target(q, params, target, alpha)

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
        assert_on_target(q, params, 0.2, PI / 8)

    def test_never_above_the_scan_it_starts_from(self):
        # The scan's best_q and refine's first evaluation are the one
        # kernel at the same (theta, phi), bit for bit.
        for alpha, target in ((PI / 10, 0.1), (PI / 6, 0.1), (0.7, 0.3)):
            config = SearchConfig(SignalGeometry(alpha), target, 13, 5, 2)
            scan = constrained_scan(config)
            start = _constrained_point(
                scan.best_params.theta, scan.best_params.phi, target,
                config.geom,
            )
            assert start[0] == scan.best_q
            assert ProbeParams(*start[1:]) == scan.best_params
            assert refine(scan.best_params, config)[0] <= scan.best_q


def assert_on_target(q, params, target, alpha):
    """q is the overlap of params, and E there is the target: to 1e-12
    against 50-digit evaluations."""
    angles = (params.lam, params.mu, params.theta, params.phi)
    assert abs(q - exact_overlap(*angles, alpha)) <= 1e-12
    assert abs(exact_error_rate(*angles, alpha) - target) <= 1e-12 * target


def dataclass_free_point(angles, geom):
    """(Q, E) through ProbeParams, probe.coefficients, overlap and
    error_rate: the oracle for the simplex objectives' float route."""
    coeffs = coefficients(ProbeParams(*angles))
    try:
        q = overlap(coeffs, geom)
    except DegenerateModelError:
        return None
    return q, error_rate(coeffs, geom)


def free_point(angles, s2):
    """(Q, E) of probe._angle_point at four float angles, as the penalty
    objective calls it, or None where Q is."""
    lam, mu, theta, phi = angles
    q, e = probe._angle_point(lam, math.sin(2.0 * mu), theta, phi, s2)
    return None if q is None else (q, e)


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
        results = [free_point(x, s2) for x in angles]
        assert results == [dataclass_free_point(x, geom) for x in angles]
        assert None in results
        # Unfolded angles, folded into [0, pi) as the penalty finals fold
        # them.
        for x in rng.uniform(-2.0 * PI, 3.0 * PI, (300, 4)).tolist():
            folded = [v % PI for v in x]
            assert all(0.0 <= v < PI for v in folded)
            assert free_point(folded, s2) == dataclass_free_point(
                folded, geom
            )

    @pytest.mark.parametrize("target", [0.05, 0.2, 0.45])
    @pytest.mark.parametrize("alpha", GEOMETRIES)
    def test_constrained_point(self, alpha, target):
        # The polish point: the kernel's minimum at the (theta, phi) given,
        # folded into [0, pi) from outside [0, pi] and kept as given
        # inside, with the lam and mu of its x; on the target and with
        # the overlap of its angles.
        geom = SignalGeometry(alpha)
        rng = np.random.default_rng([12, int(alpha * 1e6), int(target * 1e3)])
        points = rng.uniform(-2.0 * PI, 3.0 * PI, (300, 2)).tolist()
        points += [[0.0, 1.0], [PI, PI / 2], [PI / 2, 3 * PI / 4]]
        for theta, phi in points:
            point = _constrained_point(theta, phi, target, geom)
            folded = [v if 0.0 <= v <= PI else v % PI for v in (theta, phi)]
            node = probe._node_minimum(*folded, target, geom)
            if node is None:
                assert point is None
                continue
            lam, mu, _ = probe._node_point(*folded, node[1], target, geom)
            assert point == (node[0], lam, mu, *folded)
            assert_on_target(
                point[0], ProbeParams(*point[1:]), target, alpha
            )
        if target <= geom.sin_sq_two_alpha:
            # x = 0 meets every E up to sin^2(2a) at every (theta, phi).
            assert all(
                _constrained_point(t, f, target, geom) is not None
                for t, f in points
            )


# Outputs of refine (from the best point of a 12^2 scan with 20 restarts,
# seed 5) and of penalty_scan (20 starts, weight 1e5): (alpha, E, refine
# Q, refine params, penalty Q, penalty params, penalty evaluations).  Both
# polish through the kernel's closed-form minimum over (lam, mu) at
# (theta, phi), so on the lower branch, where x = 0 attains Q_min at every
# node, refine keeps the scan's first node and the penalty points land on
# lam = pi/2.  The evaluation counts are those of the four-angle finals,
# unchanged since the simplex left scipy.
PINNED = [
    (PI / 8, 0.2, 0.4999999999999996,
     (0.6815847006771037, 2.356194490192345, 0.0, 0.8567979964335799),
     0.49999999999999967,
     (0.4315844219322529, 2.561277956384142, 4.376940143657748e-09,
      1.3447082228836484),
     14503),
    (PI / 10, 0.1, 0.5790161797777964,
     (1.5707963267948966, 0.2173369021258429, 0.0, 0.0),
     0.5790161797777963,
     (2.126560192710694, 0.44604765831313, 3.1415926492493877,
      2.8768220296420752),
     11126),
    (PI / 6, 0.15, -0.05882352941176424,
     (0.6847192030022832, 0.7853981633974483, 1.5707963226534545,
      2.356194486409206),
     -0.05882352941176424,
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

    def test_polishes_final_at_its_theta_and_phi(
        self, geom_pi8, monkeypatch
    ):
        # A final off the target by more than 1e-4, on the sin(lam) = 0
        # plane, is polished by the kernel at its (theta, phi), exactly as
        # refine evaluates a point.
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
        q, *angles = _constrained_point(0.0, 0.3, 0.2, geom_pi8)
        assert (report.best_q, report.best_params) == (q, ProbeParams(*angles))
        assert_on_target(report.best_q, report.best_params, 0.2, PI / 8)
        assert report.samples_evaluated == 7

    @pytest.mark.parametrize(
        "alpha,target,reach",
        [(PI / 8, 0.2, 1e-9), (PI / 10, 0.1, 1e-9), (PI / 6, 0.15, 3e-3)],
    )
    def test_polish_does_not_rest_on_the_kernel(
        self, monkeypatch, alpha, target, reach
    ):
        # Each final is also polished at its own lam with mu re-solved,
        # which reads no kernel value: with the kernel overstating every Q
        # by 1e-2 the report still comes within reach of Q_min, from the
        # same finals, and with it understating by 1e-2 the finals near
        # the optimum count.  Above pi/8 the optimum lies on the sin(2 mu)
        # = 1 face, which a re-solve at a final's own lam meets to ~3e-3.
        config = SearchConfig(SignalGeometry(alpha), target, 12, 20, 5)
        honest = penalty_scan(config, 1e5)
        assert honest.violations == 0
        kernel = probe._minima
        for shift in (1e-2, -1e-2):
            monkeypatch.setattr(
                probe, "_minima",
                lambda *args, shift=shift: (
                    lambda qs, xs: ([q + shift for q in qs], xs)
                )(*kernel(*args)),
            )
            report = penalty_scan(config, 1e5)
            assert report.samples_evaluated == honest.samples_evaluated
            assert (report.violations > 0) == (shift < 0)
            if shift > 0:
                assert -1e-12 <= report.best_q - report.analytic_q <= reach
                assert_on_target(
                    report.best_q, report.best_params, target, alpha
                )

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

    def test_no_final_on_the_target_raises(self):
        # Above the family maximum a lone start's final can sit where
        # neither polish meets the target: 31 of 200 one-start scans over
        # seeds 0-39 at five such (alpha, E), seed 9 at (pi/10, 0.4) the
        # first.
        config = SearchConfig(
            geom=SignalGeometry(PI / 10), target_error=0.4,
            random_restarts=1, seed=9,
        )
        with pytest.raises(EmptyFeasibleSetError, match="no penalty-scan"):
            penalty_scan(config, 1e5)

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
        assert_on_target(report.best_q, report.best_params, target, alpha)
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
            0.2: (analytic - 1e-3, 0.1, PI / 4, 0.2, 0.3),
            0.5: (analytic - 1e-7, 0.4, PI / 4, 0.5, 0.6),
        }
        monkeypatch.setattr(
            search_module,
            "_penalty_finals",
            lambda config, weight: (finals, 9),
        )
        monkeypatch.setattr(
            search_module,
            "_constrained_point",
            lambda theta, phi, target, geom: polished[theta],
        )
        config = SearchConfig(geom=geom_pi8, target_error=target, seed=0)
        report = penalty_scan(config, 1e5)
        assert report.analytic_q == pytest.approx(analytic, abs=1e-15)
        assert report.violations == 1
        assert report.best_q == analytic - 1e-3
        assert report.best_params == ProbeParams(0.1, PI / 4, 0.2, 0.3)
        assert report.samples_evaluated == 9
