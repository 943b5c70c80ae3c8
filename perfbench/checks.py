"""Output checks shared by the benchmark's workloads.

The closed forms here are written out again from the paper, not imported
from qkdprobe, so a wrong number in the program cannot also be wrong in
its check.  Tolerances admit the changes a refactor may legitimately
make (last-digit moves of at most 1e-12 relative, solver-level moves of
the capacity, a new random stream of the simulator) and nothing more.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")

# Relative tolerance for closed-form values printed with 17 digits.
REL = 1e-12
# Absolute floor for O(1) quantities that may round to (near) zero.
ABS = 1e-14
# Relative tolerance for values printed with 12 significant digits (CSV).
CSV_REL = 1e-11
# The capacity's inner maximum is found numerically; a different solver
# may move the capacity by its own tolerance.
CAPACITY_ABS = 1e-9
# Scan tolerance: no sample may beat the optimum by more than this.
SCAN_TOL = 1e-6
# Statistical checks on simulated counts allow this many sigma.
SIGMAS = 5.0


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def alpha_key(alpha: float) -> str:
    return f"{alpha / math.pi:.6f}pi"


def close(a: float, b: float, rel: float = REL, abs_tol: float = ABS) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


class Failures(list):
    """Collects the messages of failed checks for one operation."""

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, what: str, got: float, want: float, **tol) -> None:
        self.expect(close(got, want, **tol), f"{what}: got {got!r}, want {want!r}")


def branch_limit(alpha: float) -> float:
    """sin^2 2a below pi/8, cos^2 2a above: the largest attainable E."""
    if alpha <= math.pi / 8:
        return math.sin(2.0 * alpha) ** 2
    return math.cos(2.0 * alpha) ** 2


def optimal_overlap(alpha: float, error: float) -> float:
    """Minimum overlap [1 + (1 - 2/s) E] / (1 - E), s = branch_limit."""
    return (1.0 + (1.0 - 2.0 / branch_limit(alpha)) * error) / (1.0 - error)


def csc_overlap(alpha: float, error: float) -> float:
    """The lower-branch formula, evaluated at any alpha."""
    s = math.sin(2.0 * alpha) ** 2
    return (1.0 + (1.0 - 2.0 / s) * error) / (1.0 - error)


def peak_error(alpha: float) -> float:
    """Error rate s/(2 - s) where the optimum overlap crosses zero."""
    s = branch_limit(alpha)
    return s / (2.0 - s)


def observables(
    alpha: float, lam: float, mu: float, theta: float, phi: float
) -> tuple[float, float]:
    """Error rate E and overlap Q of one probe setting."""
    s2 = math.sin(2.0 * alpha) ** 2
    sl, cl = math.sin(lam) ** 2, math.cos(lam) ** 2
    a = sl * math.sin(2 * mu) + cl * math.cos(2 * theta) * math.sin(2 * phi)
    b = sl * math.sin(2 * mu) + cl * math.sin(2 * phi)
    c = cl * math.sin(2 * theta) * math.cos(2 * phi)
    d = sl + cl * math.cos(2 * theta)
    error = 0.5 * (1.0 - d + (d - a) * s2)
    half_sum = 0.5 * (1.0 + d + (a - d) * s2)
    overlap = (0.5 * (a + b) + 0.5 * (d - a) * s2) / math.sqrt(
        half_sum * half_sum - 0.25 * c * c * s2
    )
    return error, overlap


def check_simulated_counts(
    fails: Failures,
    what: str,
    m: int,
    error: float,
    n: int,
    e_t: int,
    s: int,
    final_key_len: int,
) -> None:
    """Sifting and error counts are plausible; the key length adds up."""
    fails.expect(
        abs(n - 0.5 * m) <= SIGMAS * 0.5 * math.sqrt(m),
        f"{what}: sifted n = {n} is not within {SIGMAS} sigma of m/2",
    )
    sigma = math.sqrt(error * (1.0 - error) / n)
    fails.expect(
        abs(e_t / n - error) <= SIGMAS * sigma,
        f"{what}: e_T/n = {e_t / n!r} is not within {SIGMAS} sigma of "
        f"E = {error!r}",
    )
    fails.expect(
        final_key_len == max(0, n - e_t - s),
        f"{what}: final_key_len {final_key_len} != max(0, n - e_T - s)",
    )


def ceil_window(t_f: float) -> set[int]:
    """Compression levels ceil(t) for t within REL of the reference t_F."""
    return {math.ceil(t_f * (1.0 - REL)), math.ceil(t_f * (1.0 + REL))}
