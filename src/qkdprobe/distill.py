"""Key-distillation mathematics: Renyi information, privacy amplification,
the defense frontier, and the asymptotic secrecy capacity.

From m raw transmitted bits, basis sifting keeps n, error correction
removes e_T, and privacy amplification compresses the remainder by s
bits, where

    s = t_F(n, e_T) + q + nu + g

collects the defense frontier t_F (the bound on eavesdropper Renyi
information), error-correction leakage q, multi-photon leakage nu, and a
safety margin g.  Except with probability p_fail, t_F bounds the probe's
Renyi information on the n - e_T bits that survive error correction, the
bits privacy amplification compresses: (n - e_T) I*(E) at the true error
rate E, not n I*(E) on all n sifted bits (``TestFrontierCoverage`` in
tests/test_distill.py measures both readings).  The defense frontier for
the individual attack is

    t_F(n, e_T) = max_{e <= e_T} { n (1 - e/n) I*(e/n + xi)
                                   + xi sqrt(n^2 (1 - e/n)) }

with xi = erfinv(1 - p) / sqrt(2 n) (the frontier of Slutsky, Rao, Sun &
Fainman, PRA 57, 2383 (1998)).  I is the maximum Renyi gain at a given
error rate; it rises to 1 bit at the peak error rate E_pk
(:func:`qkdprobe.optimum.peak_error_rate`) and falls back beyond it.  A
probe can always add noise, so both bounds use its monotone envelope
I*(E) = I(min(E, E_pk)), which holds the gain at 1 bit past E_pk.  In the
long-key limit (xi -> 0, q = 0) the secrecy capacity per transmitted bit
becomes

    C' = (1 - E - max_{E' <= E} (1 - E') I*(E')) / 2.

Both maxima are found by bisection on one exact sign: whether the
maximand h(x) = (1 - x) I*(x + xi) + xi sqrt(1 - x) rises over a step w
(:func:`_rises`).  Its difference is written without subtracting two
values of h, so the sign holds to rounding of the maximizer itself.  t_F
bisects over the counts (x = e/n, w = 1/n); E* bisects over the floats
of [0, E_pk] with xi = 0, where h is (1 - E) I(E).

Since erfinv(1 - p) = -Phi^-1(p / 2) / sqrt(2), xi is computed from p as
-Phi^-1(p / 2) / (2 sqrt(n)) with the standard library's
``statistics.NormalDist().inv_cdf``, Wichura's algorithm AS241 (Appl.
Stat. 37, 477 (1988)).  Forming 1 - p first would discard the digits of
a small p.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import optimum, probe
from .errors import DomainError, NotNormalizedError, TooLargeError
from .probe import SignalGeometry, value_type

# Normalization tolerance for input probability distributions.
NORMALIZATION_TOL = 1e-9
# Exhaustive-enumeration guard for the empirical hashing check.
MAX_EMPIRICAL_BITS = 14


@value_type
class DistillationConfig:
    """Inputs of one key-distillation round.

    n sifted bits containing e_t errors; p_fail is the acceptable
    probability of a successful eavesdropping strategy; q_leak, nu, and g
    are the error-correction leakage, multi-photon leakage, and safety
    margin in bits (opaque inputs here).
    """

    n: int
    e_t: int
    p_fail: float
    q_leak: float = 0.0
    nu: float = 0.0
    g: float = 0.0

    def __post_init__(self) -> None:
        probe.check_integers(self, "n", "e_t")
        if self.n < 1:
            raise DomainError("n must be a positive integer")
        if not 0 <= self.e_t <= self.n:
            raise DomainError("e_t must lie in [0, n]")
        if not 0.0 < self.p_fail < 1.0:
            raise DomainError("p_fail must lie in (0, 1)")
        for name in ("q_leak", "nu", "g"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise DomainError(f"{name} must be finite and non-negative")
        # t_F is far below the float maximum, so a finite sum keeps
        # ceil(t_F + q + nu + g) finite.
        if not math.isfinite(self.q_leak + self.nu + self.g):
            raise DomainError("q_leak + nu + g must be finite")

    def compression(self, t_f: float) -> int:
        """Privacy-amplification compression s = ceil(t_f + q + nu + g)."""
        return math.ceil(t_f + self.q_leak + self.nu + self.g)


@value_type
class FrontierResult:
    """Defense frontier t_F, the error count attaining it, and xi."""

    t_f: float
    argmax_e: int
    xi: float


@value_type
class CapacityPoint:
    """Asymptotic secrecy capacity at one error rate."""

    error_rate: float
    capacity: float
    inner_argmax: float


@value_type
class PaCheckResult:
    """Empirical check of the privacy-amplification bound."""

    observed_info: float
    bound: float
    mc_sigma: float
    holds: bool


def renyi_information(probabilities: Sequence[float], l_bits: int) -> float:
    """Order-2 (collision) information of a distribution on l-bit strings.

    Returns l + log2(sum p^2); zero for the uniform distribution and l
    for a point mass.  The probabilities must be finite, non-negative and
    sum to 1 within NORMALIZATION_TOL.
    """
    probe.check_integer("l_bits", l_bits)
    if l_bits < 0:
        raise DomainError("bit count must be non-negative")
    probs = [float(p) for p in probabilities]
    if len(probs) != 2**l_bits:
        raise DomainError(
            f"expected 2^{l_bits} probabilities, got {len(probs)}"
        )
    if not all(map(math.isfinite, probs)):
        raise NotNormalizedError("probabilities must be finite")
    total = math.fsum(probs)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalizedError(
            f"probabilities sum to {total!r}, not 1 within "
            f"{NORMALIZATION_TOL}"
        )
    if min(probs) < -NORMALIZATION_TOL:
        raise NotNormalizedError("probabilities must be non-negative")
    return l_bits + math.log2(math.fsum(p * p for p in probs))


def pa_shannon_bound(renyi_bits: float, compression_bits: float) -> float:
    """Bound 2^(r - s) / ln 2 on the averaged post-hash Shannon information."""
    return 2.0 ** (renyi_bits - compression_bits) / math.log(2.0)


def pa_empirical_check(
    l_bits: int,
    compression_bits: int,
    source: Sequence[float],
    hash_count: int,
    seed: int,
) -> PaCheckResult:
    """Monte Carlo check of the privacy-amplification bound on a toy source.

    Hashes an l-bit source (known distribution = the eavesdropper's
    knowledge) through ``hash_count`` random binary matrices down to
    l - s bits and compares the averaged Shannon information on the
    output against 2^(r - s)/ln 2, where r is the source's collision
    information.  ``holds`` allows three Monte Carlo standard errors.

    The matrices are numpy's ``default_rng(seed).integers(0, 2, size=(l -
    s, l))``, one per hash in turn, drawn bit for bit by the package's
    plain-Python port of that stream, :mod:`qkdprobe.stream`, and output
    bit i of outcome x is the parity of x's bits j (bit j of weight 2^j)
    under row i.
    """
    for name, value in (
        ("l_bits", l_bits),
        ("compression_bits", compression_bits),
        ("hash_count", hash_count),
        ("seed", seed),
    ):
        probe.check_integer(name, value)
    if l_bits > MAX_EMPIRICAL_BITS:
        raise TooLargeError(
            f"l = {l_bits} exceeds the exhaustive-enumeration guard "
            f"({MAX_EMPIRICAL_BITS} bits)"
        )
    if not 0 <= compression_bits <= l_bits:
        raise DomainError("compression must lie in [0, l]")
    if hash_count < 1:
        raise DomainError("hash_count must be positive")
    if seed < 0:
        raise DomainError("seed must be non-negative")
    # Imported here: only this check draws from the seeded stream.
    from .stream import _Generator

    probs = [float(p) for p in source]
    renyi = renyi_information(probs, l_bits)
    bound = pa_shannon_bound(renyi, compression_bits)
    out_bits = l_bits - compression_bits

    observed = [0.0] * hash_count
    if out_bits:
        rng = _Generator(seed)
        for k in range(hash_count):
            bits = rng.bits(out_bits * l_bits)
            # The hashed index of every outcome, in outcome order: x maps
            # to the XOR of the columns at its set bits.
            hashed = [0]
            for j in range(l_bits):
                column = sum(
                    bits[i * l_bits + j] << i for i in range(out_bits)
                )
                hashed += [index ^ column for index in hashed]
            p_out = [0.0] * 2**out_bits
            for index, p in zip(hashed, probs):
                p_out[index] += p
            observed[k] = out_bits + math.fsum(
                p * math.log2(p) for p in p_out if p > 0.0
            )
    mean = math.fsum(observed) / hash_count
    sigma = (
        math.sqrt(math.fsum((x - mean) ** 2 for x in observed)
                  / (hash_count - 1)) / math.sqrt(hash_count)
        if hash_count > 1
        else 0.0
    )
    return PaCheckResult(
        observed_info=mean,
        bound=bound,
        mc_sigma=sigma,
        holds=mean <= bound + 3.0 * sigma,
    )


def xi(n: int, p_fail: float) -> float:
    """Statistical allowance erfinv(1 - p) / sqrt(2 n).

    Computed from p itself as -Phi^-1(p / 2) / (2 sqrt(n)), never from
    the rounded 1 - p, so it holds its accuracy for every p in (0, 1)
    whose half is still a positive float.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not 0.0 < p_fail < 1.0:
        raise DomainError("p_fail must lie in (0, 1)")
    half = p_fail / 2.0
    if half == 0.0:
        raise DomainError(f"p_fail = {p_fail!r} underflows when halved")
    # Imported here: only the frontier, simulate and sweep paths need it.
    from statistics import NormalDist

    return -NormalDist().inv_cdf(half) / (2.0 * math.sqrt(n))


def _renyi_envelope(error_rate: float, geom: SignalGeometry) -> float:
    """I*(E) = I(min(E, E_pk)): the optimal Renyi gain, 1 bit past E_pk."""
    return optimum.optimal_renyi_bits(
        min(error_rate, optimum.peak_error_rate(geom)), geom
    )


def _rises(
    x: float, step: float, allowance: float, geom: SignalGeometry
) -> bool:
    """Whether h(x) = (1 - x) I*(x + xi) + xi sqrt(1 - x) rises from x to
    x + w: the sign of (1 - x) [I*(E + w) - I*(E)] - w I*(E + w)
    - xi w / (sqrt(1 - x - w) + sqrt(1 - x)), E = x + xi.  No two values
    of h or of I* are subtracted, so the sign is exact except within
    rounding of the maximizer."""
    kept = 1.0 - x
    rate = x + allowance
    fall = step * _renyi_envelope(rate + step, geom) + allowance * step / (
        math.sqrt(kept - step) + math.sqrt(kept)
    )
    return kept * optimum.renyi_step(rate, step, geom) > fall


def defense_frontier(
    config: DistillationConfig, geom: SignalGeometry
) -> FrontierResult:
    """Upper bound t_F on the eavesdropper's Renyi information.

    Maximizes f(e) = n (1 - e/n) I*(e/n + xi) + xi n sqrt(1 - e/n) over
    the integers e in [0, e_t], with the monotone envelope
    I*(E) = I(min(E, E_pk)): 1 bit at and beyond the peak error rate, so
    every e_t in [0, n] is accepted.  f is concave, so bisection on the
    exact sign of f(e + 1) - f(e) finds its peak in ceil(log2(e_t + 1))
    steps or fewer: the exact maximizer below n = 2^53, within ~n 2^-52
    counts of it above, with t_F to ~1e-15 relative.
    """
    n = config.n
    allowance = xi(n, config.p_fail)
    lo, hi = 0, config.e_t
    while lo < hi:
        mid = (lo + hi) // 2
        if _rises(mid / n, 1.0 / n, allowance, geom):
            lo = mid + 1
        else:
            hi = mid
    kept = 1.0 - lo / n
    t_f = n * kept * _renyi_envelope(lo / n + allowance, geom) + (
        allowance * n * math.sqrt(kept)
    )
    return FrontierResult(t_f=t_f, argmax_e=lo, xi=allowance)


def compression_level(config: DistillationConfig, geom: SignalGeometry) -> int:
    """Privacy-amplification compression s = ceil(t_F + q + nu + g)."""
    return config.compression(defense_frontier(config, geom).t_f)


def _capacity_points(
    error_rates: Sequence[float], geom: SignalGeometry
) -> list[CapacityPoint]:
    """Capacity at each error rate, with one E* solve for all of them."""
    for error_rate in error_rates:
        probe.check_error_rate(error_rate)
    # E* by bisection over floats, with a step below E*'s last place that
    # does not underflow to 0.
    lo, hi = 0.0, optimum.peak_error_rate(geom)
    step = max(hi * 2.0**-70, math.ulp(0.0))
    mid = 0.5 * hi
    while lo < mid < hi:
        lo, hi = (mid, hi) if _rises(mid, step, 0.0, geom) else (lo, mid)
        mid = 0.5 * (lo + hi)
    points = []
    for error_rate in error_rates:
        best_x = min(error_rate, lo)
        gain = (1.0 - best_x) * optimum.optimal_renyi_bits(best_x, geom)
        points.append(CapacityPoint(
            error_rate=error_rate,
            capacity=0.5 * (1.0 - error_rate - gain),
            inner_argmax=best_x,
        ))
    return points


def asymptotic_capacity(
    error_rate: float, geom: SignalGeometry
) -> CapacityPoint:
    """Long-transmission secrecy capacity per transmitted bit.

    C' = (1 - E - max_{E' <= E} (1 - E') I*(E')) / 2 for every E in
    [0, 1/2), also above the family's :func:`optimum.max_error_rate`.
    g(E) = (1 - E) I(E) rises from 0 and peaks once on [0, E_pk], at E*
    (its slope at E_pk is -1), and (1 - E) I*(E) = 1 - E falls beyond
    E_pk, so the inner maximum is g(min(E, E*)).  E* is located by
    bisection on the exact sign of g's rise over a step far below its
    last place, to a few ulps; past it C' falls with slope -1/2.
    """
    return _capacity_points([error_rate], geom)[0]


def capacity_curve(
    geom: SignalGeometry, e_min: float, e_max: float, steps: int
) -> list[CapacityPoint]:
    """Capacity at ``steps`` uniformly spaced error rates in [e_min, e_max].

    E* depends only on alpha, so it is solved once for the whole curve.
    """
    probe.check_error_rate(e_min)
    probe.check_error_rate(e_max)
    probe.check_integer("steps", steps)
    if steps < 1:
        raise DomainError("steps must be positive")
    if e_max < e_min:
        raise DomainError("e_max must not be below e_min")
    return _capacity_points(_linspace(e_min, e_max, steps), geom)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 1 evenly spaced floats from start to stop, bit for bit
    ``np.linspace(start, stop, num)``: the i-th is i * step + start, and
    the last is stop itself."""
    start, stop = float(start), float(stop)
    delta = stop - start
    div = num - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0.0:
        # numpy's branch for a step that underflows: scale i / div instead.
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def binary_entropy(x: float) -> float:
    """h2(x) = -x log2 x - (1 - x) log2(1 - x) with h2(0) = h2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("binary entropy argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
