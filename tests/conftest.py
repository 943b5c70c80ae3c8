import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkdprobe
from qkdprobe import ProbeParams, SignalGeometry, mu_from_constraint
from qkdprobe.errors import InfeasibleConstraintError, SingularLambdaError

PI = math.pi
# The smallest alpha SignalGeometry accepts: the first float whose
# sin^2(2 alpha) exceeds 2 / float max, so that 2 / sin^2(2 alpha) is
# finite (found by bisection over the floats).
SMALLEST_ALPHA = 5.273843307431501e-155


@pytest.fixture
def geom_pi8() -> SignalGeometry:
    return SignalGeometry(PI / 8)


def draw_constrained_points(
    rng: np.ndarray, geom: SignalGeometry, target_error: float, count: int
) -> list[ProbeParams]:
    """Random probe settings that induce exactly the target error rate.

    Draws (lam, theta, phi) uniformly and solves mu from the constraint,
    rejecting infeasible draws, until ``count`` points are collected.
    """
    points: list[ProbeParams] = []
    while len(points) < count:
        lam, theta, phi = rng.uniform(0.05 * PI, 0.95 * PI, 3)
        try:
            mu = mu_from_constraint(lam, theta, phi, target_error, geom)
        except (InfeasibleConstraintError, SingularLambdaError):
            continue
        points.append(ProbeParams(lam=lam, mu=mu, theta=theta, phi=phi))
    return points


def exact_face_ends(mu, theta, phi, alpha):
    """(P, M): E at lam = 0 and at lam = pi/2 to 50 digits, with the angles
    and alpha as their exact binary values, from the coefficients.  E
    runs linearly in cos^2(lam) between them."""
    import mpmath

    with mpmath.workdps(50):
        s2 = mpmath.sin(2 * mpmath.mpf(alpha)) ** 2
        cos_two_theta = mpmath.cos(2 * mpmath.mpf(theta))
        sin_two_mu = mpmath.sin(2 * mpmath.mpf(mu))
        sin_two_phi = mpmath.sin(2 * mpmath.mpf(phi))
        # d = cos 2theta and a = cos 2theta sin 2phi at lam = 0, and d = 1
        # and a = sin 2mu at lam = pi/2; E = (1 - d + (d - a) s2) / 2.
        p = 1 - cos_two_theta + cos_two_theta * (1 - sin_two_phi) * s2
        return p / 2, (1 - sin_two_mu) * s2 / 2


def exact_error_rate(lam, mu, theta, phi, alpha):
    """E at four float angles to 50 digits: M + cos^2(lam) (P - M)."""
    import mpmath

    p, m = exact_face_ends(mu, theta, phi, alpha)
    with mpmath.workdps(50):
        return m + mpmath.cos(mpmath.mpf(lam)) ** 2 * (p - m)


def exact_overlap(lam, mu, theta, phi, alpha):
    """Q at four float angles to 50 digits, from the coefficients, with
    the angles and alpha as their exact binary values."""
    import mpmath

    with mpmath.workdps(50):
        lam, mu, theta, phi, alpha = map(
            mpmath.mpf, (lam, mu, theta, phi, alpha)
        )
        s2 = mpmath.sin(2 * alpha) ** 2
        sin_sq_lam, cos_sq_lam = mpmath.sin(lam) ** 2, mpmath.cos(lam) ** 2
        sin_two_phi = mpmath.sin(2 * phi)
        a = sin_sq_lam * mpmath.sin(2 * mu) + cos_sq_lam * mpmath.cos(
            2 * theta
        ) * sin_two_phi
        b = sin_sq_lam * mpmath.sin(2 * mu) + cos_sq_lam * sin_two_phi
        c = cos_sq_lam * mpmath.sin(2 * theta) * mpmath.cos(2 * phi)
        d = sin_sq_lam + cos_sq_lam * mpmath.cos(2 * theta)
        half_sum = (1 + d + (a - d) * s2) / 2
        numerator = (a + b) / 2 + (d - a) * s2 / 2
        return numerator / mpmath.sqrt(half_sum**2 - c * c * s2 / 4)


def fresh_interpreter(script, *args, cwd, env=None):
    """Run script, a source string or a Path to a file, in a new
    ``python -S`` process that imports qkdprobe from this checkout.

    Without site-packages the child can import the standard library and
    qkdprobe only, as after installing the package with no extras.
    """
    package_root = Path(qkdprobe.__file__).resolve().parents[1]
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    source = [str(script)] if isinstance(script, Path) else ["-c", script]
    return subprocess.run(
        [sys.executable, "-S", *source, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=600,
    )
