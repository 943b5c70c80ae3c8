"""Brute-force verification that the analytic optimum is the true minimum.

Independent of the closed-form analysis, this module scans the probe
parameter space at fixed induced error rate and checks that no sampled
setting produces an overlap below the branch formula.  Two constraint
strategies are provided:

* :func:`constrained_scan` grids (theta, phi) and at every node takes the
  least overlap over (lam, mu) on the target error rate in closed form,
  through the one kernel :func:`probe._minima`, called once per theta
  line and once for all restarts: with x = cos^2(lam) and mu eliminated,
  Q is a one-line function of x on an interval whose ends are the faces
  sin(2 mu) = +-1, lam = pi/2 and the sin(lam) = 0 plane, so the minimum
  is an end or one stationary point; a node where no (lam, mu) meets the
  target has Q = inf and is skipped.  Where E <= sin^2(2a) every
  interval starts at x = 0, whose Q the kernel works out once per call.
  The scan is plain Python; lam, mu and the E of those float angles are
  worked out, by the one body :func:`probe._terms_point`, only for the
  best node, a node below Q_min, and the rows handed to a sink;
* :func:`penalty_scan` releases all four angles and penalizes the squared
  error-rate mismatch, covering the space without any elimination.  Each
  final is polished twice onto the target, by mu re-solved at its own
  lam (:func:`probe.mu_from_constraint`) with Q from the coefficients,
  which reads no kernel value, and by the kernel's minimum at its
  (theta, phi); the lower counts.

:func:`refine` is a Nelder-Mead simplex over (theta, phi) on the same
kernel, so the scan's best and refine's start are values of one
function, and refine never ends above its start.  The simplex is this
module's own Nelder-Mead, a
step-for-step port of scipy's with the standard coefficients; the module
imports neither scipy nor numpy.  The four-angle penalty objective and
the own-lam polish read Q and E from :func:`probe._angle_point`, probe's
one body of the observables, in the order the public scalar functions
use, so its values equal what ``coefficients``, ``overlap`` and
``error_rate`` give.  The grid is ``np.linspace(0, pi, grid_resolution)``
node for node, by :func:`probe._linspace`.

All randomness derives from the config seed through counter-based
splitting, so identical configs produce bit-identical reports.  The k
restarts are numpy's ``default_rng([seed, 1]).uniform(0, pi, (k, 2))``,
rows (theta, phi), and the penalty starts its ``default_rng([seed,
2]).uniform(0, pi, (max(k, 1), 4))``, drawn by :mod:`qkdprobe.stream`,
the package's plain-Python port of that stream.  Grid and restart
evaluations are independent and are merged by (min Q, then first in
lexicographic grid order).
"""

from __future__ import annotations

import bisect
import math
from functools import reduce
from operator import add, itemgetter
from typing import Callable, Sequence

from . import optimum, probe
from .errors import (
    DomainError,
    EmptyFeasibleSetError,
    InfeasibleConstraintError,
    SingularLambdaError,
)
from .probe import ProbeParams, SignalGeometry, value_type
from .stream import _Generator

# Substream indices for counter-based seed splitting.
_RESTART_STREAM = 1
_PENALTY_STREAM = 2
# Objective value assigned to infeasible points (Q itself lies in [-1, 1]).
_INFEASIBLE = 4.0

# A row of the scan's sink: (lam, theta, phi, mu, E, Q).
SampleRow = tuple[float, float, float, float, float, float]


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


def constrained_scan(
    config: SearchConfig,
    *,
    sink: Callable[[list[SampleRow]], None] | None = None,
) -> SearchReport:
    """Grid scan of (theta, phi) at exactly the target error rate.

    Scans a uniform grid over [0, pi]^2 plus ``random_restarts`` uniform
    random (theta, phi) points; the kernel :func:`probe._minima`, one
    call per theta line and one for the restarts, gives at each the least
    overlap over (lam, mu) on the target error rate, and a node where no
    (lam, mu) meets it (Q = inf) is skipped.  Reports the minimum overlap
    found, the first in grid order, restarts last, among equals, the
    matching parameters, and how many nodes fell below Q_min, held at -1
    from the family maximum E on, at their own error rate by more than
    the configured tolerance.  Only a node below Q_min at the target is
    judged again, at the E of its own angles (:func:`probe._node_point`),
    so a scan with none costs nothing extra.  The kernel holds an overlap
    that rounding puts below -1 by at most ``probe.IDENTITY_TOL`` at -1,
    so ``best_q`` falls below -1 only if the kernel errs by more, and
    then that node counts as a violation.

    The grid holds the upper branch's optimum point (theta, phi) =
    (pi/2, 3pi/4) exactly when grid_resolution - 1 is a multiple of 4;
    without it a scan above alpha = pi/8 ends above Q_min, and
    :func:`refine` from its best point closes the gap.

    ``sink``, if given, receives every feasible node as rows (lam, theta,
    phi, mu, E, Q) of Python floats, E at the row's own angles, one list
    per block: each theta line of the grid in order, then the random
    restarts.  The rows are exactly the samples counted in
    ``samples_evaluated``.

    Raises EmptyFeasibleSetError if no sampled point can meet the error
    constraint.
    """
    geom = config.geom
    target = config.target_error
    analytic_q = optimum._q_min(target, geom)
    tolerance = config.tolerance
    below = analytic_q - tolerance

    best: tuple[float, float, float, float] | None = None
    violations = 0
    samples = 0

    def take(thetas, phis, theta_terms, phi_terms) -> None:
        """Evaluate and count one block of nodes, parallel lists of (theta,
        phi) and their terms, by one :func:`probe._minima` call."""
        nonlocal best, violations, samples
        qs, xs = probe._minima(theta_terms, phi_terms, target, geom)
        low = min(qs, default=math.inf)
        if low == math.inf:
            return
        samples += len(qs) - qs.count(math.inf)
        if best is None or low < best[2]:
            i = qs.index(low)
            best = thetas[i], phis[i], low, xs[i]
        if low < below:
            for theta, phi, q, x in zip(thetas, phis, qs, xs):
                if q < below:
                    e = probe._node_point(theta, phi, x, target, geom)[2]
                    violations += q < optimum._q_min(e, geom) - tolerance
        if sink is not None:
            rows = []
            for theta, phi, t_terms, p_terms, q, x in zip(
                thetas, phis, theta_terms, phi_terms, qs, xs
            ):
                if q != math.inf:
                    p = probe._p_term(*t_terms, *p_terms, geom)
                    lam, mu, e = probe._terms_point(p, x, target, geom)
                    rows.append((lam, theta, phi, mu, e, q))
            sink(rows)

    r = config.grid_resolution
    grid = probe._linspace(0.0, math.pi, r)
    phi_terms = [probe._phi_terms(phi) for phi in grid]
    for theta in grid:
        take([theta] * r, grid, [probe._theta_terms(theta)] * r, phi_terms)

    restarts = _Generator(config.seed, _RESTART_STREAM).uniform(
        math.pi, 2 * config.random_restarts
    )
    thetas, phis = restarts[::2], restarts[1::2]
    take(
        thetas,
        phis,
        [probe._theta_terms(theta) for theta in thetas],
        [probe._phi_terms(phi) for phi in phis],
    )

    if best is None:
        raise EmptyFeasibleSetError(
            f"no sampled point satisfies E = {config.target_error!r} at "
            f"alpha = {geom.alpha!r}"
        )
    theta, phi, best_q, x = best
    lam, mu, _ = probe._node_point(theta, phi, x, target, geom)
    return SearchReport(
        best_q=best_q,
        best_params=ProbeParams(lam=lam, mu=mu, theta=theta, phi=phi),
        analytic_q=analytic_q,
        violations=violations,
        samples_evaluated=samples,
    )


def _constrained_point(
    theta: float, phi: float, target: float, geom: SignalGeometry
) -> tuple[float, float, float, float, float] | None:
    """(Q, lam, mu, theta, phi) of the kernel's minimum at (theta, phi) on
    the target error rate, or None where no (lam, mu) meets it.

    All observables are pi-periodic in each angle, so an angle outside
    [0, pi] is folded into [0, pi); one inside is kept as it is, so a
    grid node's point is the scan's own.
    """
    theta, phi = _fold(theta), _fold(phi)
    node = probe._node_minimum(theta, phi, target, geom)
    if node is None:
        return None
    q, x = node
    lam, mu, _ = probe._node_point(theta, phi, x, target, geom)
    return q, lam, mu, theta, phi


def _own_lam_point(
    lam: float, theta: float, phi: float, config: SearchConfig
) -> tuple[float, float, float, float, float] | None:
    """(Q, lam, mu, theta, phi) with mu from :func:`probe.mu_from_constraint`
    at float (lam, theta, phi) in [0, pi) and Q from the coefficients;
    None where no mu meets the target or the radicand is non-positive."""
    geom = config.geom
    try:
        mu = probe.mu_from_constraint(
            lam, theta, phi, config.target_error, geom
        )
    except (InfeasibleConstraintError, SingularLambdaError):
        return None
    q, _ = probe._angle_point(
        lam, math.sin(2.0 * mu), theta, phi, geom.sin_sq_two_alpha
    )
    if q is None:
        return None
    return q, lam, mu, theta, phi


def _fold(angle: float) -> float:
    angle = float(angle)
    return angle if 0.0 <= angle <= math.pi else angle % math.pi


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
        # Each coordinate summed in vertex order, as scipy's np.add.reduce
        # does; sum() compensates its additions from Python 3.12 on.
        xbar = [reduce(add, column) / n for column in zip(*sim[:-1])]
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
    """Simplex polish of a starting point at fixed error rate.

    Nelder-Mead over (theta, phi) from the start's (theta, phi), each
    evaluation the kernel's least overlap over (lam, mu) on the target
    error rate (:func:`probe._node_minimum`), run until the simplex
    diameter falls below 1e-9 or 10^4 evaluations.  The start's lam and
    mu are not read.  Returns the best (Q, params) evaluated, so the
    overlap never exceeds the kernel's value at the start, which is a
    scan's ``best_q`` when the start is its ``best_params``.

    Raises InfeasibleConstraintError if no (lam, mu) meets the target at
    the start's (theta, phi).
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

    x0 = [start.theta, start.phi]
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
    pi = math.pi

    def objective(x: Sequence[float]) -> float:
        lam, mu, theta, phi = x
        q, e = probe._angle_point(
            lam % pi, math.sin(2.0 * (mu % pi)), theta % pi, phi % pi, s2
        )
        if q is None:
            return _INFEASIBLE
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
    the report covers each Nelder-Mead final polished to the target: the
    lower of mu re-solved at its own (lam, theta, phi) and the kernel's
    minimum over (lam, mu) at its (theta, phi), as :func:`refine`
    evaluates a point.  The first does not depend on the kernel, so a
    kernel that overstates Q cannot hide a point below Q_min.  A final is
    a violation if its overlap lies below Q_min at the target by more
    than the tolerance.  penalty_weight must be finite and positive.

    Raises EmptyFeasibleSetError if no final polishes onto the target,
    which above the family maximum can happen with few random_restarts.
    """
    if not 0.0 < penalty_weight < math.inf:
        raise DomainError(
            f"penalty_weight must be finite and positive; got "
            f"{penalty_weight!r}"
        )
    finals, evaluations = _penalty_finals(config, penalty_weight)
    polished = []
    for lam, _, theta, phi in finals:
        points = [
            point
            for point in (
                _own_lam_point(lam, theta, phi, config),
                _constrained_point(
                    theta, phi, config.target_error, config.geom
                ),
            )
            if point is not None
        ]
        if points:
            polished.append(min(points, key=itemgetter(0)))
    if not polished:
        raise EmptyFeasibleSetError(
            "no penalty-scan final reached the target error rate"
        )
    best_q, *best_angles = min(polished, key=itemgetter(0))
    analytic_q = optimum._q_min(config.target_error, config.geom)
    below = analytic_q - config.tolerance
    return SearchReport(
        best_q=best_q,
        best_params=ProbeParams(*best_angles),
        analytic_q=analytic_q,
        violations=sum(1 for q, *_ in polished if q < below),
        samples_evaluated=evaluations,
    )
