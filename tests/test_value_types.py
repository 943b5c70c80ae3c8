"""The value types against their ``dataclasses`` twins.

Every value type of the package is made by ``probe.value_type``.  Each
test builds the type's twin with ``dataclasses.make_dataclass`` from the
same fields and defaults (validated by the type's own ``__post_init__``)
and checks that the two behave alike on seeded instances.
"""

import dataclasses
import math
import random

import pytest

from qkdprobe import distill, optimum, probe, search, simulate
from qkdprobe.errors import DomainError
from qkdprobe.optimum import Branch, FamilyTag, PossibilityStatus

PI = math.pi
SEEDS = range(5)


def _uniform(rng, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi)


def _geom(rng):
    return probe.SignalGeometry(rng.uniform(0.01, PI / 4 - 0.01))


def _params(rng):
    return probe.ProbeParams(*(rng.uniform(0.0, PI) for _ in range(4)))


def _family_attack(rng):
    return simulate.FamilyAttack(
        rng.choice(list(FamilyTag)), rng.uniform(0.0, 0.3)
    )


# One seeded instance of every value type, by type.
SAMPLERS = {
    probe.SignalGeometry: _geom,
    probe.ProbeParams: _params,
    probe.ProbeCoefficients: lambda rng: probe.ProbeCoefficients(
        *(_uniform(rng) for _ in range(4))
    ),
    probe.DetectionProbabilities: lambda rng: probe.DetectionProbabilities(
        *(_uniform(rng, 0.0) for _ in range(4))
    ),
    probe.AttackEvaluation: lambda rng: probe.AttackEvaluation(
        _uniform(rng, 0.0, 0.5), _uniform(rng), _uniform(rng, 0.0)
    ),
    optimum.BranchedOptimum: lambda rng: optimum.BranchedOptimum(
        _uniform(rng), _uniform(rng, 0.0), rng.choice(list(Branch))
    ),
    optimum.OptimumFamily: lambda rng: optimum.OptimumFamily(
        rng.choice(list(FamilyTag)),
        f"constraint {rng.randrange(100)}",
        tuple(rng.sample(["lam", "mu", "theta", "phi"], rng.randrange(4))),
    ),
    optimum.StationaryResiduals: lambda rng: optimum.StationaryResiduals(
        *(_uniform(rng) for _ in range(6))
    ),
    optimum.PossibilityReport: lambda rng: optimum.PossibilityReport(
        rng.choice("ABCDEFGHIJKL"),
        rng.choice(list(PossibilityStatus)),
        rng.choice((None, _uniform(rng))),
        f"detail {rng.randrange(100)}",
    ),
    optimum.DFeasibilityReport: lambda rng: optimum.DFeasibilityReport(
        _uniform(rng, 0.0), rng.random() < 0.5, rng.randrange(1, 500)
    ),
    distill.DistillationConfig: lambda rng: distill.DistillationConfig(
        n=(n := rng.randrange(1, 10**6)),
        e_t=rng.randrange(n + 1),
        p_fail=_uniform(rng, 1e-9, 0.99),
        **({"q_leak": _uniform(rng, 0.0, 50.0)} if rng.random() < 0.5 else {}),
    ),
    distill.FrontierResult: lambda rng: distill.FrontierResult(
        _uniform(rng, 0.0, 1e4), rng.randrange(1000), _uniform(rng, 0.0)
    ),
    distill.CapacityPoint: lambda rng: distill.CapacityPoint(
        *(_uniform(rng, 0.0, 0.5) for _ in range(3))
    ),
    distill.PaCheckResult: lambda rng: distill.PaCheckResult(
        *(_uniform(rng, 0.0) for _ in range(3)), rng.random() < 0.5
    ),
    search.SearchConfig: lambda rng: search.SearchConfig(
        _geom(rng),
        _uniform(rng, 0.0, 0.5),
        **(
            {"grid_resolution": rng.randrange(3, 50), "seed": rng.randrange(9)}
            if rng.random() < 0.5
            else {}
        ),
    ),
    search.SearchReport: lambda rng: search.SearchReport(
        _uniform(rng), _params(rng), _uniform(rng), rng.randrange(5),
        rng.randrange(10**5),
    ),
    simulate.QLeakModel: lambda rng: (
        simulate.QLeakModel.binary_entropy(_uniform(rng, 0.0, 2.0))
        if rng.random() < 0.5
        else simulate.QLeakModel.zero()
    ),
    simulate.FamilyAttack: _family_attack,
    simulate.SimulationConfig: lambda rng: simulate.SimulationConfig(
        rng.randrange(1, 10**7),
        _geom(rng),
        _params(rng) if rng.random() < 0.5 else _family_attack(rng),
        _uniform(rng, 1e-9, 0.99),
        simulate.QLeakModel.binary_entropy(_uniform(rng, 0.0, 2.0)),
        rng.randrange(10**6),
        **({"four_state_sampler": True} if rng.random() < 0.5 else {}),
    ),
    simulate.SimulationReport: lambda rng: simulate.SimulationReport(
        *(rng.randrange(10**6) for _ in range(4)),
        *(_uniform(rng, 0.0, 0.5) for _ in range(3)),
    ),
}
TYPES = list(SAMPLERS)


def _make_twin(cls):
    fields = []
    for name in cls._field_names:
        if name in cls.__dict__:
            default = dataclasses.field(default=cls.__dict__[name])
            fields.append((name, cls.__annotations__[name], default))
        else:
            fields.append((name, cls.__annotations__[name]))
    namespace = {}
    if "__post_init__" in cls.__dict__:
        # The twin is validated as the value it stands for, so that a
        # check of a nested value type's class accepts that type's twin.
        namespace["__post_init__"] = value_of
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True, namespace=namespace
    )


def value_of(twin):
    """The value a dataclass twin stands for, nested twins turned back
    too; building it runs the value type's ``__post_init__``."""
    if type(twin) not in VALUES:
        return twin
    cls = VALUES[type(twin)]
    return cls(
        **{name: value_of(getattr(twin, name)) for name in cls._field_names}
    )


TWINS = {cls: _make_twin(cls) for cls in TYPES}
VALUES = {twin: cls for cls, twin in TWINS.items()}


def twin_of(value):
    """The dataclass twin of a value, nested value types twinned too."""
    if type(value) not in TWINS:
        return value
    return TWINS[type(value)](
        **{
            name: twin_of(getattr(value, name))
            for name in type(value)._field_names
        }
    )


def samples(cls):
    return [SAMPLERS[cls](random.Random(seed * 31 + 7)) for seed in SEEDS]


def test_every_value_type_is_sampled():
    made = {
        obj
        for module in (probe, optimum, distill, search, simulate)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and "_field_names" in obj.__dict__
        and obj.__module__ == module.__name__
    }
    assert made == set(TYPES)
    assert len(TYPES) == 20


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestDataclassParity:
    def test_fields_are_the_annotations(self, cls):
        twin_names = [f.name for f in dataclasses.fields(TWINS[cls])]
        assert list(cls._field_names) == twin_names
        assert list(cls._field_names) == list(cls.__annotations__)

    def test_repr_hash_and_asdict(self, cls):
        for value in samples(cls):
            twin = twin_of(value)
            assert repr(value) == repr(twin)
            assert hash(value) == hash(twin)
            assert probe.asdict(value) == dataclasses.asdict(twin)

    def test_equality(self, cls):
        values = samples(cls)
        for a in values:
            for b in values + [probe.replace(a)]:
                assert (a == b) == (twin_of(a) == twin_of(b))
                assert (a != b) == (twin_of(a) != twin_of(b))
            copy = probe.replace(a)
            assert copy is not a and copy == a and hash(copy) == hash(a)

    def test_not_equal_to_twin_or_tuple(self, cls):
        for value in samples(cls):
            twin = twin_of(value)
            fields = tuple(getattr(value, n) for n in cls._field_names)
            assert value != twin and twin != value
            assert value != fields and not value == fields
            assert value.__eq__(twin) is NotImplemented
            assert value.__eq__(fields) is NotImplemented

    def test_frozen(self, cls):
        value = samples(cls)[0]
        for name in (*cls._field_names, "unknown"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == samples(cls)[0]

    def test_construction(self, cls):
        value = samples(cls)[0]
        fields = [getattr(value, n) for n in cls._field_names]
        assert cls(*fields) == value
        assert cls(**dict(zip(cls._field_names, fields))) == value
        with pytest.raises(TypeError):
            cls(*fields, 0)
        with pytest.raises(TypeError):
            cls(*fields[:-1], **{cls._field_names[-1]: 0, "unknown": 0})
        with pytest.raises(TypeError):
            cls(*fields, **{cls._field_names[0]: fields[0]})
        with pytest.raises(TypeError):
            probe.replace(value, unknown=0)


def test_class_level_defaults():
    geom = probe.SignalGeometry(PI / 8)
    config = search.SearchConfig(geom, 0.1)
    assert (config.grid_resolution, config.random_restarts) == (40, 0)
    assert (config.seed, config.tolerance) == (0, 1e-6)
    dist = distill.DistillationConfig(10, 1, 0.01)
    assert (dist.q_leak, dist.nu, dist.g) == (0.0, 0.0, 0.0)
    assert simulate.QLeakModel("zero").fraction == 0.0
    sim = simulate.SimulationConfig(
        8, geom, probe.ProbeParams(0, 0, 0, 0), 0.01,
        simulate.QLeakModel.zero(), 3,
    )
    assert sim.four_state_sampler is False
    # The defaults stay class attributes, as with dataclasses.
    assert search.SearchConfig.grid_resolution == 40


def test_cached_properties_survive_freezing():
    geom = probe.SignalGeometry(PI / 10)
    assert geom.sin_sq_two_alpha == math.sin(PI / 5) ** 2
    assert vars(geom)["sin_sq_two_alpha"] == geom.sin_sq_two_alpha
    # The cached values stay out of equality, hash and repr.
    twin = twin_of(geom)
    assert geom == probe.SignalGeometry(PI / 10)
    assert hash(geom) == hash(twin)
    assert repr(geom) == repr(twin) == f"SignalGeometry(alpha={PI / 10!r})"


def _valid_sim_config():
    return simulate.SimulationConfig(
        1000, probe.SignalGeometry(PI / 8),
        simulate.FamilyAttack(FamilyTag.SET_E, 0.1), 0.01,
        simulate.QLeakModel.zero(), 5,
    )


# (type, valid instance, invalid field changes) for each validating type.
INVALID = [
    (probe.SignalGeometry, probe.SignalGeometry(0.3), {"alpha": PI / 4}),
    (probe.SignalGeometry, probe.SignalGeometry(0.3), {"alpha": 0.0}),
    (
        probe.ProbeParams,
        probe.ProbeParams(0.1, 0.2, 0.3, 0.4),
        {"theta": -0.5},
    ),
    (
        search.SearchConfig,
        search.SearchConfig(probe.SignalGeometry(0.3), 0.1),
        {"grid_resolution": 2},
    ),
    (
        search.SearchConfig,
        search.SearchConfig(probe.SignalGeometry(0.3), 0.1),
        {"target_error": 0.5},
    ),
    (
        distill.DistillationConfig,
        distill.DistillationConfig(100, 5, 0.01),
        {"e_t": 101},
    ),
    (
        distill.DistillationConfig,
        distill.DistillationConfig(100, 5, 0.01),
        {"nu": math.inf},
    ),
    (simulate.QLeakModel, simulate.QLeakModel.zero(), {"kind": "bogus"}),
    (
        simulate.QLeakModel,
        simulate.QLeakModel.binary_entropy(0.5),
        {"fraction": -0.5},
    ),
    (
        simulate.QLeakModel,
        simulate.QLeakModel.binary_entropy(0.5),
        {"fraction": math.nan},
    ),
    (
        simulate.FamilyAttack,
        simulate.FamilyAttack(FamilyTag.SET_E, 0.1),
        {"tag": "set_e"},
    ),
    (simulate.SimulationConfig, _valid_sim_config(), {"m": 0}),
    (simulate.SimulationConfig, _valid_sim_config(), {"seed": 1.0}),
    (simulate.SimulationConfig, _valid_sim_config(), {"attack": (0, 0, 0, 0)}),
]


@pytest.mark.parametrize(
    "cls, valid, changes",
    INVALID,
    ids=[f"{c.__name__}-{next(iter(ch))}" for c, _, ch in INVALID],
)
def test_validators_run_on_every_route(cls, valid, changes):
    fields = {n: getattr(valid, n) for n in cls._field_names} | changes
    messages = []
    for build in (
        lambda: cls(**fields),
        lambda: probe.replace(valid, **changes),
        lambda: TWINS[cls](**fields),
        lambda: dataclasses.replace(twin_of(valid), **changes),
    ):
        with pytest.raises(DomainError) as info:
            build()
        messages.append(str(info.value))
    assert len(set(messages)) == 1, messages


def test_validating_types_are_the_seven():
    assert {cls for cls, _, _ in INVALID} == {
        cls for cls in TYPES if "__post_init__" in cls.__dict__
    }
    assert len({cls for cls, _, _ in INVALID}) == 7


def test_sweep_over_an_invalid_value_raises():
    config = _valid_sim_config()
    with pytest.raises(DomainError, match="alpha must lie"):
        simulate.sweep(config, "alpha", [PI / 8, 1.0])
    with pytest.raises(DomainError, match="m must be"):
        probe.replace(config, m=0)
