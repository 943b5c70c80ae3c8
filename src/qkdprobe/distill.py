"""Key-distillation mathematics: Renyi information, privacy amplification,
the defense frontier, and the asymptotic secrecy capacity.

From m raw transmitted bits, basis sifting keeps n, error correction
removes e_T, and privacy amplification compresses the remainder by s
bits, where

    s = t_F(n, e_T) + q + nu + g

collects the defense frontier t_F (the bound on eavesdropper Renyi
information), error-correction leakage q, multi-photon leakage nu, and a
safety margin g.  The defense frontier for the individual attack is

    t_F(n, e_T) = max_{e <= e_T} { n (1 - e/n) I*(e/n + xi)
                                   + xi sqrt(n^2 (1 - e/n)) }

with xi = inverse_erf(1 - p) / sqrt(2 n) (the frontier of Slutsky, Rao,
Sun & Fainman, PRA 57, 2383 (1998)).  I is the maximum Renyi gain at a
given error rate; it rises to 1 bit at the peak error rate E_pk
(:func:`qkdprobe.optimum.peak_error_rate`) and falls back beyond it.  A
probe can always add noise, so both bounds use its monotone envelope
I*(E) = I(min(E, E_pk)), which holds the gain at 1 bit past E_pk.  In the
long-key limit (xi -> 0, q = 0) the secrecy capacity per transmitted bit
becomes

    C' = (1 - E - max_{E' <= E} (1 - E') I*(E')) / 2.

t_F is evaluated as numpy arrays by
:func:`qkdprobe.optimum.optimal_renyi_bits`, one pass per block of
FRONTIER_BLOCK error counts; the capacity's inner maximum sits at one
error rate per alpha, found by a 1-D golden-section solve.

The inverse error function is computed from first principles (Maclaurin
series for small arguments, a continued fraction for the complement at
large arguments, guarded Newton for the inverse) so the toolkit carries
its own special-function route; tests cross-check it against independent
implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import optimum
from .errors import DomainError, NotNormalizedError, TooLargeError
from .probe import SignalGeometry

# Normalization tolerance for input probability distributions.
NORMALIZATION_TOL = 1e-9
# Exhaustive-enumeration guard for the empirical hashing check.
MAX_EMPIRICAL_BITS = 14
# Error counts the defense frontier evaluates per array pass; bounds its
# memory independently of e_t.
FRONTIER_BLOCK = 2**16
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
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

    def compression(self, t_f: float) -> int:
        """Privacy-amplification compression s = ceil(t_f + q + nu + g)."""
        return math.ceil(t_f + self.q_leak + self.nu + self.g)


@dataclass(frozen=True)
class FrontierResult:
    """Defense frontier t_F, the error count attaining it, and xi."""

    t_f: float
    argmax_e: int
    xi: float


@dataclass(frozen=True)
class CapacityPoint:
    """Asymptotic secrecy capacity at one error rate."""

    error_rate: float
    capacity: float
    inner_argmax: float


@dataclass(frozen=True)
class PaCheckResult:
    """Empirical check of the privacy-amplification bound."""

    observed_info: float
    bound: float
    mc_sigma: float
    holds: bool


def renyi_information(probabilities: Sequence[float], l_bits: int) -> float:
    """Order-2 (collision) information of a distribution on l-bit strings.

    Returns l + log2(sum p^2); zero for the uniform distribution and l
    for a point mass.
    """
    probs = np.asarray(probabilities, dtype=float)
    if l_bits < 0:
        raise DomainError("bit count must be non-negative")
    if probs.shape != (2**l_bits,):
        raise DomainError(
            f"expected 2^{l_bits} probabilities, got shape {probs.shape}"
        )
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalizedError(
            f"probabilities sum to {total!r}, not 1 within "
            f"{NORMALIZATION_TOL}"
        )
    if np.any(probs < -NORMALIZATION_TOL):
        raise NotNormalizedError("probabilities must be non-negative")
    return l_bits + math.log2(float(np.square(probs).sum()))


def pa_shannon_bound(renyi_bits: float, compression_bits: float) -> float:
    """Bound 2^(r - s) / ln 2 on the averaged post-hash Shannon information."""
    return 2.0 ** (renyi_bits - compression_bits) / math.log(2.0)


def _shannon_entropy(probs: np.ndarray) -> float:
    positive = probs[probs > 0.0]
    return float(-(positive * np.log2(positive)).sum())


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
    """
    if l_bits > MAX_EMPIRICAL_BITS:
        raise TooLargeError(
            f"l = {l_bits} exceeds the exhaustive-enumeration guard "
            f"({MAX_EMPIRICAL_BITS} bits)"
        )
    if not 0 <= compression_bits <= l_bits:
        raise DomainError("compression must lie in [0, l]")
    if hash_count < 1:
        raise DomainError("hash_count must be positive")
    probs = np.asarray(source, dtype=float)
    renyi = renyi_information(probs, l_bits)
    bound = pa_shannon_bound(renyi, compression_bits)
    out_bits = l_bits - compression_bits

    rng = np.random.default_rng(seed)
    if out_bits == 0:
        observed = np.zeros(hash_count)
    else:
        # Bit matrix of all 2^l source outcomes, one row per outcome.
        outcomes = (
            np.arange(2**l_bits)[:, None] >> np.arange(l_bits)[None, :]
        ) & 1
        weights = 1 << np.arange(out_bits)
        observed = np.empty(hash_count)
        for k in range(hash_count):
            matrix = rng.integers(0, 2, size=(out_bits, l_bits))
            hashed = (outcomes @ matrix.T) & 1
            indices = hashed @ weights
            p_out = np.bincount(
                indices, weights=probs, minlength=2**out_bits
            )
            observed[k] = out_bits - _shannon_entropy(p_out)
    mean = float(observed.mean())
    sigma = (
        float(observed.std(ddof=1)) / math.sqrt(hash_count)
        if hash_count > 1
        else 0.0
    )
    return PaCheckResult(
        observed_info=mean,
        bound=bound,
        mc_sigma=sigma,
        holds=mean <= bound + 3.0 * sigma,
    )


def erf(z: float) -> float:
    """Standard error function (2/sqrt(pi)) * integral_0^z exp(-y^2) dy.

    Maclaurin series below |z| = 2, complementary continued fraction
    above; accurate to roughly 1e-15 over the range needed here.
    """
    if z == 0.0:
        return 0.0
    if z < 0.0:
        return -erf(-z)
    if z < 2.0:
        # erf(z) = (2/sqrt(pi)) sum_k (-1)^k z^(2k+1) / (k! (2k+1))
        term = z
        total = z
        z_sq = z * z
        for k in range(1, 200):
            term *= -z_sq / k
            contribution = term / (2 * k + 1)
            total += contribution
            if abs(contribution) < 1e-18 * abs(total):
                break
        return _TWO_OVER_SQRT_PI * total
    return 1.0 - _erfc_continued_fraction(z)


def _erfc_continued_fraction(z: float) -> float:
    """erfc(z) for z >= 2 via the Laplace continued fraction.

    erfc(z) = exp(-z^2)/sqrt(pi) * 1/(z + (1/2)/(z + 1/(z + (3/2)/(...))))
    evaluated with the modified Lentz algorithm.
    """
    tiny = 1e-300
    f = z if z != 0.0 else tiny
    c = f
    d = 0.0
    for n in range(1, 200):
        a_n = n / 2.0
        d = z + a_n * d
        if d == 0.0:
            d = tiny
        c = z + a_n / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-z * z) / math.sqrt(math.pi) / f


def inverse_erf(y: float) -> float:
    """z with erf(z) = y, for |y| < 1, by bracketed Newton iteration."""
    if not -1.0 < y < 1.0:
        raise DomainError(f"inverse_erf requires |y| < 1; got {y!r}")
    if y == 0.0:
        return 0.0
    if y < 0.0:
        return -inverse_erf(-y)
    lo, hi = 0.0, 7.0  # erf(7) == 1 to double precision
    z = min(max(y, 1e-8), 6.0)
    for _ in range(200):
        residual = erf(z) - y
        if residual > 0.0:
            hi = z
        else:
            lo = z
        derivative = _TWO_OVER_SQRT_PI * math.exp(-z * z)
        step = residual / derivative if derivative > 0.0 else math.inf
        z_next = z - step
        if not lo < z_next < hi:
            z_next = 0.5 * (lo + hi)
        if abs(z_next - z) < 1e-16 * max(1.0, z) or hi - lo < 1e-16:
            z = z_next
            break
        z = z_next
    return z


def xi(n: int, p_fail: float) -> float:
    """Statistical allowance inverse_erf(1 - p) / sqrt(2 n)."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not 0.0 < p_fail < 1.0:
        raise DomainError("p_fail must lie in (0, 1)")
    return inverse_erf(1.0 - p_fail) / math.sqrt(2.0 * n)


def _renyi_envelope(
    error_rate: float | np.ndarray, geom: SignalGeometry
) -> float | np.ndarray:
    """I*(E) = I(min(E, E_pk)): the optimal Renyi gain, 1 bit past E_pk."""
    return optimum.optimal_renyi_bits(
        np.minimum(error_rate, optimum.peak_error_rate(geom)), geom
    )


def defense_frontier(
    config: DistillationConfig, geom: SignalGeometry
) -> FrontierResult:
    """Upper bound t_F on the eavesdropper's Renyi information.

    Maximizes n (1 - e/n) I*(e/n + xi) + xi n sqrt(1 - e/n) exactly over
    the integers e in [0, e_t], with the monotone envelope
    I*(E) = I(min(E, E_pk)): 1 bit at and beyond the peak error rate, so
    every e_t in [0, n] is accepted.  The counts are evaluated as arrays,
    one pass per block of FRONTIER_BLOCK counts, so memory does not grow
    with e_t; the first strict maximum wins, as in a loop over e.  numpy's
    vectorised log2 may differ from the C library's in the last place, so
    t_F is re-evaluated at the maximizing count with a float argument and
    is the float a per-count loop gives.
    """
    n = config.n
    allowance = xi(n, config.p_fail)

    def value(e: int | np.ndarray) -> float | np.ndarray:
        kept = 1.0 - e / n
        return n * kept * _renyi_envelope(e / n + allowance, geom) + (
            allowance * n * np.sqrt(kept)
        )

    best = -math.inf
    best_e = 0
    for start in range(0, config.e_t + 1, FRONTIER_BLOCK):
        values = value(
            np.arange(start, min(start + FRONTIER_BLOCK, config.e_t + 1))
        )
        k = int(values.argmax())
        if values[k] > best:
            best = values[k]
            best_e = start + k
    return FrontierResult(
        t_f=float(value(best_e)), argmax_e=best_e, xi=allowance
    )


def compression_level(config: DistillationConfig, geom: SignalGeometry) -> int:
    """Privacy-amplification compression s = ceil(t_F + q + nu + g)."""
    return config.compression(defense_frontier(config, geom).t_f)


def _golden_section_max(
    fn, lo: float, hi: float, rel_tol: float = 1e-10
) -> float:
    """Maximizer of a unimodal fn on [lo, hi], to rel_tol of the width."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    tol = rel_tol * (hi - lo)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def asymptotic_capacity(
    error_rate: float, geom: SignalGeometry
) -> CapacityPoint:
    """Long-transmission secrecy capacity per transmitted bit.

    C' = (1 - E - max_{E' <= E} (1 - E') I*(E')) / 2 for every E in
    [0, 1/2), also above the family's :func:`optimum.max_error_rate`.
    g(E) = (1 - E) I(E) rises from 0 and peaks once on [0, E_pk], at E*
    (its slope at E_pk is -1), and (1 - E) I*(E) = 1 - E falls beyond
    E_pk, so the inner maximum is g(min(E, E*)).  E* is located by golden
    section on [0, E_pk] to 1e-10 E_pk; past it C' falls with slope -1/2.
    """
    if not 0.0 <= error_rate < 0.5:
        raise DomainError("error rate must lie in [0, 1/2)")

    def gain(e_prime: float) -> float:
        # g on [0, E_pk], where I* = I.
        return (1.0 - e_prime) * optimum.optimal_renyi_bits(e_prime, geom)

    best_x = min(
        error_rate,
        _golden_section_max(gain, 0.0, optimum.peak_error_rate(geom)),
    )
    capacity = 0.5 * (1.0 - error_rate - gain(best_x))
    return CapacityPoint(
        error_rate=error_rate, capacity=capacity, inner_argmax=best_x
    )


def capacity_curve(
    geom: SignalGeometry, e_min: float, e_max: float, steps: int
) -> list[CapacityPoint]:
    """Capacity at ``steps`` uniformly spaced error rates in [e_min, e_max]."""
    if steps < 1:
        raise DomainError("steps must be positive")
    if e_max < e_min:
        raise DomainError("e_max must not be below e_min")
    return [
        asymptotic_capacity(float(e), geom)
        for e in np.linspace(e_min, e_max, steps)
    ]


def binary_entropy(x: float) -> float:
    """h2(x) = -x log2 x - (1 - x) log2(1 - x) with h2(0) = h2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("binary entropy argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
