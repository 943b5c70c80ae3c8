"""Seeded Monte Carlo realization of the four-state protocol under attack.

Each raw transmitted bit survives basis sifting with probability 1/2;
each sifted bit is flipped by the probe with the conditional error
probability of the attack.  Observed counts feed the same distillation
pipeline as the analytic path, so the empirical secret-bit rate
(n - e_T - s)/m converges to the asymptotic secrecy capacity as the
transmission grows.

By default errors are drawn per sifted bit with the scalar error rate
E(params); the full four-state sampler (equiprobable sent states with
per-state conditional flip probabilities, which differ through the skew
coefficient c) is available behind ``four_state_sampler`` and is used by
the tests to verify the scalar reduction.  It draws counts, not bits:
the number of sifted bits sent in state u is Binomial(n, 1/2), and the
errors of each state are one Binomial draw with that state's flip
probability, so memory does not grow with m.  The probe's own measurement
outcomes are not simulated: eavesdropper knowledge enters only through
the compression level.

The counts are numpy's ``default_rng(seed)`` draws, taken from
:mod:`qkdprobe.stream`, the package's plain-Python port of that stream,
which also draws the scan restarts and penalty starts of
:mod:`qkdprobe.search` and the hash bits of
:func:`qkdprobe.distill.pa_empirical_check`; so the simulator runs
without importing numpy.  Its binomial draws are numpy's: inversion for
n*p <= 30, otherwise BTPE, with p > 1/2 drawn as n minus a draw at
1 - p.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal, Union

from . import distill, optimum, probe
from .errors import DegenerateRunError, DomainError, OutOfDomainError
from .optimum import FamilyTag
from .probe import ProbeParams, SignalGeometry, replace, value_type
from .stream import _Generator, _seed_state

_SWEEP_STREAM = 7

# The largest count numpy's binomial takes (its C int64).
_INT64_MAX = 2**63 - 1


@value_type
class QLeakModel:
    """Error-correction leakage model: none, or f * n * h2(E) bits."""

    kind: Literal["zero", "binary_entropy"]
    fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "binary_entropy"):
            raise DomainError(f"unknown leakage kind {self.kind!r}")
        if not 0.0 <= self.fraction < math.inf:
            raise DomainError(
                "leakage fraction must be finite and non-negative"
            )

    @staticmethod
    def zero() -> "QLeakModel":
        return QLeakModel(kind="zero")

    @staticmethod
    def binary_entropy(fraction: float) -> "QLeakModel":
        return QLeakModel(kind="binary_entropy", fraction=fraction)

    def leakage_bits(self, n: int, empirical_error: float) -> float:
        if self.kind == "zero":
            return 0.0
        return self.fraction * n * distill.binary_entropy(empirical_error)


@value_type
class FamilyAttack:
    """Attack specified as an optimum family at a target error rate."""

    tag: FamilyTag
    target_error: float

    def __post_init__(self) -> None:
        if not isinstance(self.tag, FamilyTag):
            raise DomainError(f"tag must be a FamilyTag; got {self.tag!r}")


@value_type
class SimulationConfig:
    """Inputs of one protocol simulation."""

    m: int
    geom: SignalGeometry
    attack: Union[ProbeParams, FamilyAttack]
    p_fail: float
    q_model: QLeakModel
    seed: int
    four_state_sampler: bool = False

    def __post_init__(self) -> None:
        probe.check_integers(self, "m", "seed")
        if self.m < 1:
            raise DomainError("m must be a positive integer")
        if self.m > _INT64_MAX:
            raise DomainError(
                "m must be at most 2**63 - 1, the largest count drawn"
            )
        if not 0.0 < self.p_fail < 1.0:
            raise DomainError("p_fail must lie in (0, 1)")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if not isinstance(self.attack, (ProbeParams, FamilyAttack)):
            raise DomainError("attack must be ProbeParams or a FamilyAttack")


@value_type
class SimulationReport:
    """Counts and rates of one simulated transmission."""

    n: int
    e_t: int
    s: int
    final_key_len: int
    empirical_error: float
    empirical_rate: float
    analytic_capacity: float


def resolve_attack(config: SimulationConfig) -> ProbeParams:
    """Concrete probe parameters for the configured attack."""
    if isinstance(config.attack, ProbeParams):
        return config.attack
    families = optimum.optimal_parameter_families(
        config.attack.target_error, config.geom
    )
    for family in families:
        if family.tag is config.attack.tag:
            return optimum.sample_params(
                family, config.attack.target_error, config.geom
            )
    raise OutOfDomainError(
        f"family {config.attack.tag.value} does not exist at "
        f"alpha = {config.geom.alpha!r}"
    )


def run(config: SimulationConfig) -> SimulationReport:
    """Simulate m raw bits and distill a key; deterministic per seed."""
    params = resolve_attack(config)
    coeffs = probe.coefficients(params)
    analytic_error = min(max(probe.error_rate(coeffs, config.geom), 0.0), 1.0)
    if analytic_error >= 0.5:
        raise DomainError(
            f"the attack induces error rate E = {analytic_error!r}; no key "
            "can be distilled at E >= 1/2"
        )

    rng = _Generator(config.seed)
    n = rng.binomial(config.m, 0.5)
    if n == 0:
        raise DegenerateRunError("no sifted bits survived basis sifting")

    if config.four_state_sampler:
        probs = probe.detection_probabilities(coeffs, config.geom)
        flip_u = min(max(probs.p_u_ubar, 0.0), 1.0)
        flip_ubar = min(max(probs.p_ubar_u, 0.0), 1.0)
        sent_u = rng.binomial(n, 0.5)
        e_t = rng.binomial(sent_u, flip_u) + rng.binomial(
            n - sent_u, flip_ubar
        )
    else:
        e_t = rng.binomial(n, analytic_error)

    empirical_error = e_t / n
    q_leak = config.q_model.leakage_bits(n, empirical_error)
    dist_config = distill.DistillationConfig(
        n=n, e_t=e_t, p_fail=config.p_fail, q_leak=q_leak
    )
    s = distill.compression_level(dist_config, config.geom)
    return SimulationReport(
        n=n,
        e_t=e_t,
        s=s,
        final_key_len=max(0, n - e_t - s),
        empirical_error=empirical_error,
        empirical_rate=(n - e_t - s) / config.m,
        analytic_capacity=distill.asymptotic_capacity(
            analytic_error, config.geom
        ).capacity,
    )


def _derived_seed(seed: int, index: int) -> int:
    """numpy's SeedSequence([seed, 7, index]).generate_state(1)[0]."""
    return _seed_state((seed, _SWEEP_STREAM, index), 1)[0]


def sweep(
    config: SimulationConfig,
    variable: Literal["error_rate", "alpha"],
    values: Iterable[float],
) -> list[tuple[float, SimulationReport]]:
    """Run the simulation once per value with per-value derived seeds.

    ``error_rate`` retargets a family attack; ``alpha`` moves the signal
    geometry (re-resolving a family attack at the new angle).
    """
    results: list[tuple[float, SimulationReport]] = []
    for index, value in enumerate(values):
        value = float(value)
        derived = replace(config, seed=_derived_seed(config.seed, index))
        if variable == "error_rate":
            if not isinstance(config.attack, FamilyAttack):
                raise DomainError(
                    "sweeping the error rate requires a family attack"
                )
            derived = replace(
                derived, attack=replace(config.attack, target_error=value)
            )
        elif variable == "alpha":
            derived = replace(derived, geom=SignalGeometry(value))
        else:
            raise DomainError(f"unknown sweep variable {variable!r}")
        results.append((value, run(derived)))
    return results
