"""Brute-force verification that the analytic optimum is the true minimum.

Independent of the closed-form analysis, this module scans the probe
parameter space at fixed induced error rate and checks that no sampled
setting produces an overlap below the branch formula.  Two constraint
strategies are provided:

* :func:`constrained_scan` grids (lam, theta, phi) and solves mu exactly
  from the error-rate constraint at every node (switching to the
  phi-elimination route on the sin(lam) = 0 planes, where mu has no
  effect).  Each lam plane is one array pass that computes sin(2 mu), E,
  Q and feasibility; the theta- and phi-only trig is worked out once per
  scan, and the arcsine that turns sin(2 mu) into mu runs only for a new
  best node and for the rows handed to a sink;
* :func:`penalty_scan` releases all four angles and penalizes the squared
  error-rate mismatch, covering the space without any elimination.

:func:`refine` and :func:`penalty_scan` share one polish to the target
error rate: mu is re-solved at (lam, theta, phi), or where none exists
lam is solved in closed form on the face sin(2 mu) = +-1 the solve
points past.  Both run on this module's own Nelder-Mead, a step-for-step
port of scipy's with the standard coefficients, so qkdprobe needs only
numpy at run time, and only :func:`constrained_scan` imports it, when
first called, for its arrays.  Every route (grid planes, sin(lam) = 0
planes, faces, simplex objectives) evaluates on floats or float arrays
through the one body of the probe formulas, in the order the public
scalar functions use, so every value equals what ``mu_from_constraint``,
``coefficients``, ``overlap`` and ``error_rate`` give; a ``ProbeParams``
is built only for a point a search returns.

All randomness derives from the config seed through counter-based
splitting, so identical configs produce bit-identical reports.  The k
restarts are numpy's ``default_rng([seed, 1]).uniform(0, pi, (k, 3))``
and the penalty starts its ``default_rng([seed, 2]).uniform(0, pi,
(max(k, 1), 4))``, drawn by :mod:`qkdprobe.stream`, the package's
plain-Python port of that stream, at ~3 us a restart.  Grid and restart
evaluations are independent and are merged by (min Q, then first in
lexicographic grid order).
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Callable, Sequence

from . import optimum, probe
from .errors import (
    DomainError,
    EmptyFeasibleSetError,
    InfeasibleConstraintError,
)
from .probe import ProbeParams, SignalGeometry, value_type
from .stream import _Generator

if TYPE_CHECKING:
    import numpy as np

# Substream indices for counter-based seed splitting.
_RESTART_STREAM = 1
_PENALTY_STREAM = 2
# Objective value assigned to infeasible points (Q itself lies in [-1, 1]).
_INFEASIBLE = 4.0


@value_type
class SearchConfig:
    """Inputs of a verification scan."""

    geom: SignalGeometry
    target_error: float
    grid_resolution: int = 40
    random_restarts: int = 0
    seed: int = 0
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        probe.check_integers(
            self, "grid_resolution", "random_restarts", "seed"
        )
        if self.grid_resolution < 3:
            raise DomainError("grid_resolution must be at least 3")
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError(
                f"tolerance must be finite and positive; got "
                f"{self.tolerance!r}"
            )
        probe.check_error_rate(self.target_error)
        if self.random_restarts < 0:
            raise DomainError("random_restarts must be non-negative")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")


@value_type
class SearchReport:
    """Outcome of a scan: the best point found versus the analytic value."""

    best_q: float
    best_params: ProbeParams
    analytic_q: float
    violations: int
    samples_evaluated: int


def _singular_lambda_points(
    lam: float,
    thetas: Sequence[float],
    target_error: float,
    geom: SignalGeometry,
) -> list[tuple[float, float, float, float, float, float]]:
    """Feasible samples on a sin(lam) = 0 plane via phi elimination, as
    rows (lam, theta, phi, mu, E, Q).

    With sin(lam) = 0 the error rate pins 1 - sin(2 phi) = 2(E - sin^2
    theta) / (s2 cos 2theta) given theta, a form in which no O(1) terms
    cancel; both cos(2 phi) sign branches are evaluated since they differ
    through the skew coefficient c.  mu is unobservable and reported as
    pi/4.  A point whose overlap radicand is non-positive is dropped.
    """
    s2 = geom.sin_sq_two_alpha
    mu = math.pi / 4
    rows = []
    for theta in thetas:
        cos_two_theta = math.cos(2.0 * theta)
        if abs(cos_two_theta) < 1e-12:
            continue
        two_e_gap = 2.0 * (target_error - math.sin(theta) ** 2)
        sin_two_phi = 1.0 - two_e_gap / (s2 * cos_two_theta)
        for phi in probe._half_arcsine(sin_two_phi) or ():
            point = _overlap_and_error((lam, mu, theta, phi), s2)
            if point is not None:
                rows.append((lam, theta, phi, mu, point[1], point[0]))
    return rows


def constrained_scan(
    config: SearchConfig,
    *,
    sink: Callable[[np.ndarray], None] | None = None,
) -> SearchReport:
    """Grid scan of (lam, theta, phi) at exactly the target error rate.

    Scans a uniform grid over [0, pi]^3 plus ``random_restarts`` uniform
    random points; mu is solved from the constraint everywhere (the
    sin(lam) = 0 planes switch to phi elimination).  Reports the minimum
    overlap found, the matching parameters, and how many samples fell
    below Q_min, held at -1 from the family maximum E on, at their own
    error rate by more than the configured tolerance.  Only a sample
    below Q_min at the target is judged again, at the E of its own
    angles, so a scan with none costs nothing extra.

    ``sink``, if given, receives every evaluated sample as rows
    (lam, theta, phi, mu, E, Q) of a float array, one call per block:
    the lam planes of the grid in lexicographic order, then the random
    restarts.  The rows are exactly the samples counted in
    ``samples_evaluated``.

    Raises EmptyFeasibleSetError if no sampled point can meet the error
    constraint.
    """
    import numpy as np

    geom = config.geom
    target = config.target_error
    grid = np.linspace(0.0, math.pi, config.grid_resolution)
    analytic_q = optimum._q_min(target, geom)
    tolerance = config.tolerance
    below = analytic_q - tolerance

    best_q = math.inf
    best_angles: list[float] | None = None
    violations = 0
    samples = 0

    def take(columns: tuple, feasible: np.ndarray) -> None:
        """Count one block of nodes; the columns (lam, theta, phi,
        sin 2mu, E, Q) broadcast to the shape of Q and feasible, and Q is
        inf off it.  A new best, the sink's rows and low nodes alone read
        the other columns; probe.fold_mu turns their sin 2mu into mu."""
        nonlocal best_q, best_angles, violations, samples
        count = int(np.count_nonzero(feasible))
        if not count:
            return
        q = columns[-1]
        samples += count
        low = q < below
        if low.any():
            # The clamp on sin(2 mu) moves a node's E off the target.
            rows = [np.broadcast_to(c, q.shape)[low] for c in columns]
            rows[3] = probe.fold_mu(rows[3])
            for lam, theta, phi, mu, _, q_node in zip(*rows):
                e = probe._angle_error_rate(lam, mu, theta, phi, geom)
                violations += int(q_node < optimum._q_min(e, geom) - tolerance)
        k = int(np.argmin(q))
        if q.flat[k] < best_q:
            best_q = float(q.flat[k])
            lam, theta, phi, m = (
                np.broadcast_to(c, q.shape).flat[k] for c in columns[:4]
            )
            best_angles = [
                float(v) for v in (lam, theta, phi, probe.fold_mu(m))
            ]
        if sink is not None:
            rows = [np.broadcast_to(c, q.shape)[feasible] for c in columns]
            rows[3] = probe.fold_mu(rows[3])
            sink(np.column_stack(rows))

    s2 = geom.sin_sq_two_alpha
    theta, phi = grid[:, None], grid[None, :]
    theta_trig = probe._double_angle_trig(theta)
    phi_trig = probe._double_angle_trig(phi)
    nodes = grid.tolist()
    for lam in nodes:
        if abs(math.sin(lam)) <= probe.SINGULAR_SIN_LAMBDA:
            rows = _singular_lambda_points(lam, nodes, target, geom)
            columns = np.array(rows).reshape(-1, 6).T
            # Their mu = pi/4 is sin(2 mu) = 1: fold_mu(1.0) is pi/4.
            columns[3] = 1.0
            take(columns, np.full(len(rows), True))
        else:
            sin_two_mu, e, q, feasible = probe._constrained_nodes(
                lam, theta_trig, phi_trig, target, s2
            )
            take((lam, theta, phi, sin_two_mu, e, q), feasible)

    restarts = _Generator(config.seed, _RESTART_STREAM).uniform(
        math.pi, 3 * config.random_restarts
    )
    lam, theta, phi = np.array(restarts).reshape(-1, 3).T
    sin_two_mu, e, q, feasible = probe.constrained_observables(
        lam, theta, phi, target, geom
    )
    take((lam, theta, phi, sin_two_mu, e, q), feasible)

    if best_angles is None:
        raise EmptyFeasibleSetError(
            f"no sampled point satisfies E = {config.target_error!r} at "
            f"alpha = {geom.alpha!r}"
        )
    lam, theta, phi, mu = best_angles
    return SearchReport(
        best_q=best_q,
        best_params=ProbeParams(lam=lam, mu=mu, theta=theta, phi=phi),
        analytic_q=analytic_q,
        violations=violations,
        samples_evaluated=samples,
    )


def _constrained_point(
    lam: float, theta: float, phi: float, target: float, geom: SignalGeometry
) -> tuple[float, float, float, float, float] | None:
    """(Q, lam, mu, theta, phi) at (lam, theta, phi) and the target error,
    or None.

    All observables are pi-periodic in each angle, so the angles are
    folded into [0, pi).  mu is solved from the constraint; on the
    singular sin(lam) = 0 planes the better phi-elimination branch is
    taken instead.  Where no mu exists, lam moves in closed form onto the
    face sin(2 mu) = +-1 the solve points past, mu = pi/4 or 3pi/4, in
    its half of [0, pi).  None: no such lam, or a non-positive radicand.
    """
    lam = float(lam) % math.pi
    theta = float(theta) % math.pi
    phi = float(phi) % math.pi
    sin_lam = math.sin(lam)
    if abs(sin_lam) <= probe.SINGULAR_SIN_LAMBDA:
        rows = _singular_lambda_points(lam, [theta], target, geom)
        if not rows:
            return None
        lam, theta, phi, mu, _, q = min(rows, key=lambda row: row[5])
        return q, lam, mu, theta, phi
    s2 = geom.sin_sq_two_alpha
    rhs, mu = probe._solve_mu(lam, sin_lam, theta, phi, target, s2)
    if mu is None:
        face = math.copysign(1.0, rhs)
        cos_sq_lam = probe._face_cos_sq_lam(
            face, math.cos(2.0 * theta), math.sin(2.0 * phi), target, s2
        )
        if not 0.0 <= cos_sq_lam <= 1.0:
            return None
        lam = math.acos(math.copysign(math.sqrt(cos_sq_lam), math.cos(lam)))
        mu = 0.25 * math.pi if face > 0.0 else 0.75 * math.pi
    point = _overlap_and_error((lam, mu, theta, phi), s2)
    if point is None:
        return None
    return point[0], lam, mu, theta, phi


def _overlap_and_error(
    angles: Sequence[float], s2: float
) -> tuple[float, float] | None:
    """(Q, E) at four float angles, or None where the overlap radicand is
    non-positive; s2 = sin^2(2 alpha)."""
    error, numerator, radicand = probe._observables(
        *probe._angle_quadruple(*angles), s2
    )
    if radicand <= 0.0:
        return None
    return numerator / math.sqrt(radicand), error


class _BudgetSpent(Exception):
    """A Nelder-Mead evaluation was asked for past maxfev."""


def _nelder_mead(
    func: Callable[[list[float]], float],
    x0: Sequence[float],
    xatol: float,
    fatol: float,
    maxfev: int,
) -> tuple[list[float], float, int]:
    """Minimize func from x0; returns (x, func(x), evaluations) of the best
    vertex, with evaluations never above maxfev.

    A step-for-step port of ``scipy.optimize.minimize(method="Nelder-Mead")``
    with the standard coefficients (reflection 1, expansion 2, contraction
    and shrink 1/2; Lagarias, Reeds, Wright & Wright, SIAM J. Optim. 9, 112
    (1998)): the same initial simplex, vertex arithmetic, centroid order and
    stopping test, over float lists.  The simplex is kept in the order a
    stable sort by func gives: sorted in full after the initial simplex
    and after a shrink, and otherwise by inserting the one new vertex
    after its equals.  So only ties in func can lead it off scipy's path.
    func must not return NaN, which has no place in that order.
    """
    evaluations = 0

    def f(x: list[float]) -> float:
        nonlocal evaluations
        if evaluations >= maxfev:
            raise _BudgetSpent
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
    except _BudgetSpent:
        pass
    sim, fsim = _sorted_simplex(sim, fsim)
    while True:
        best, worst, f_best = sim[0], sim[-1], fsim[0]
        # The f-spread is the cheaper test and the one that fails first.
        if evaluations >= maxfev or (
            fsim[-1] - f_best <= fatol
            and max(abs(a - b) for x in sim[1:] for a, b in zip(x, best))
            <= xatol
        ):
            return best, f_best, evaluations
        xbar = best
        for x in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, x)]
        xbar = [a / n for a in xbar]
        # Each point is (1 + t) xbar - t worst for t = 1, 2, 1/2, -1/2,
        # with the coefficients written out; they round the same way.
        x_new = None
        try:
            xr = [2.0 * b - w for b, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < f_best:
                xe = [3.0 * b - 2.0 * w for b, w in zip(xbar, worst)]
                fxe = f(xe)
                x_new, f_new = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                x_new, f_new = xr, fxr
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
                    x_new, f_new = xc, fxc
                else:
                    for j, x in enumerate(sim[1:], 1):
                        sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, x)]
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        if x_new is None:
            # After a shrink, or a step the budget refused (which moved
            # at most the shrink's vertices).
            sim, fsim = _sorted_simplex(sim, fsim)
        else:
            # The worst vertex goes, and the new one goes after its
            # equals: where a stable sort of the list would put it.
            del sim[-1], fsim[-1]
            k = bisect.bisect_right(fsim, f_new)
            sim.insert(k, x_new)
            fsim.insert(k, f_new)


def _sorted_simplex(
    sim: list[list[float]], fsim: list[float]
) -> tuple[list[list[float]], list[float]]:
    """The vertices and their values in a stable sort by value."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    return [sim[i] for i in order], [fsim[i] for i in order]


def refine(
    start: ProbeParams, config: SearchConfig
) -> tuple[float, ProbeParams]:
    """Simplex polish of a feasible starting point at fixed error rate.

    Nelder-Mead over (lam, theta, phi) with mu re-solved per evaluation,
    or lam moved onto a sin(2 mu) = +-1 face where no mu exists, run
    until the simplex diameter falls below 1e-9 or 10^4 evaluations.
    Returns the best (Q, params) evaluated, so the overlap never exceeds
    the starting value.
    """
    best: tuple[float, float, float, float, float] | None = None

    def objective(x: Sequence[float]) -> float:
        nonlocal best
        point = _constrained_point(*x, config.target_error, config.geom)
        if point is None:
            return _INFEASIBLE
        if best is None or point[0] < best[0]:
            best = point
        return point[0]

    x0 = [start.lam, start.theta, start.phi]
    objective(x0)
    if best is None:
        raise InfeasibleConstraintError(
            "refine start point cannot meet the error-rate constraint"
        )
    _nelder_mead(objective, x0, xatol=1e-9, fatol=1e-14, maxfev=10_000)
    return best[0], ProbeParams(*best[1:])


def _penalty_finals(
    config: SearchConfig, penalty_weight: float
) -> tuple[list[list[float]], int]:
    """Raw Nelder-Mead finals of the penalty objective, the four angles
    (lam, mu, theta, phi) folded into [0, pi), and the evaluations spent."""
    s2 = config.geom.sin_sq_two_alpha
    target = config.target_error

    def objective(x: Sequence[float]) -> float:
        point = _overlap_and_error([v % math.pi for v in x], s2)
        if point is None:
            return _INFEASIBLE
        q, e = point
        return q + penalty_weight * (e - target) ** 2

    n_starts = max(1, config.random_restarts)
    starts = _Generator(config.seed, _PENALTY_STREAM).uniform(
        math.pi, 4 * n_starts
    )
    finals: list[list[float]] = []
    evaluations = 0
    for i in range(0, len(starts), 4):
        x, _, spent = _nelder_mead(
            objective, starts[i:i + 4], xatol=1e-10, fatol=1e-13,
            maxfev=10_000,
        )
        evaluations += spent
        finals.append([v % math.pi for v in x])
    return finals, evaluations


def penalty_scan(
    config: SearchConfig, penalty_weight: float
) -> SearchReport:
    """Minimize Q + w (E - target)^2 over all four probe angles.

    A pure penalty minimizer parks the error rate at target + O(1/w), so
    the report covers each Nelder-Mead final polished to the target at
    its (lam, theta, phi), exactly as :func:`refine` evaluates a point;
    one is a violation if its overlap lies below Q_min at the target by
    more than the tolerance.  penalty_weight must be finite and positive.
    """
    if not 0.0 < penalty_weight < math.inf:
        raise DomainError(
            f"penalty_weight must be finite and positive; got "
            f"{penalty_weight!r}"
        )
    finals, evaluations = _penalty_finals(config, penalty_weight)
    polished = [
        _constrained_point(lam, theta, phi, config.target_error, config.geom)
        for lam, _, theta, phi in finals
    ]
    polished = [point for point in polished if point is not None]
    if not polished:
        raise EmptyFeasibleSetError(
            "no penalty-scan final reached the target error rate"
        )
    best_q, *best_angles = min(polished, key=lambda point: point[0])
    analytic_q = optimum._q_min(config.target_error, config.geom)
    below = analytic_q - config.tolerance
    return SearchReport(
        best_q=best_q,
        best_params=ProbeParams(*best_angles),
        analytic_q=analytic_q,
        violations=sum(1 for q, *_ in polished if q < below),
        samples_evaluated=evaluations,
    )
