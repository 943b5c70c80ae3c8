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


def fresh_interpreter(script, *args, cwd, env=None):
    """Run script with python -c in a new process that imports qkdprobe
    from this checkout."""
    package_root = Path(qkdprobe.__file__).resolve().parents[1]
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=600,
    )
