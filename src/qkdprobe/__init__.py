"""Entangling-probe attack toolkit for four-state quantum key distribution.

Evaluates the closed-form attack observables, constructs and verifies the
optimum probe parameters for arbitrary signal-basis angle, and carries the
key-distillation chain (defense frontier, privacy amplification, secrecy
capacity) plus a seeded protocol simulator.

Importing the package loads none of its submodules.  A public name or a
submodule is imported when it is first read as an attribute (or by
``from qkdprobe import ...``) and then kept in the package namespace:
``qkdprobe.evaluate`` loads ``probe`` and what it imports, not ``search``
or ``simulate``.  ``__all__`` and ``dir()`` list every name as if all
submodules were loaded.
"""

from typing import Any as _Any

__version__ = "0.1.0"

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "distill": (
        "CapacityPoint",
        "DistillationConfig",
        "FrontierResult",
        "PaCheckResult",
        "asymptotic_capacity",
        "capacity_curve",
        "compression_level",
        "defense_frontier",
        "pa_empirical_check",
        "pa_shannon_bound",
        "renyi_information",
        "xi",
    ),
    "errors": ("QkdProbeError",),
    "optimum": (
        "Branch",
        "BranchedOptimum",
        "FamilyTag",
        "OptimumFamily",
        "PossibilityReport",
        "PossibilityStatus",
        "csc_branch_overlap",
        "enumerate_possibilities",
        "optimal_overlap",
        "optimal_parameter_families",
        "possibility_d_feasibility",
        "sample_params",
        "sec_branch_overlap",
        "stationarity_residuals",
    ),
    "probe": (
        "AttackEvaluation",
        "DetectionProbabilities",
        "ProbeCoefficients",
        "ProbeParams",
        "SignalGeometry",
        "coefficients",
        "detection_probabilities",
        "error_rate",
        "evaluate",
        "mu_from_constraint",
        "overlap",
        "q_value",
        "renyi_info",
    ),
    "roots": (),
    "search": (
        "SearchConfig",
        "SearchReport",
        "constrained_scan",
        "penalty_scan",
        "refine",
    ),
    "simulate": (
        "FamilyAttack",
        "QLeakModel",
        "SimulationConfig",
        "SimulationReport",
        "run",
        "sweep",
    ),
    "stream": (),
}

# Name -> the submodule that defines it; a submodule maps to itself.
_ORIGIN = {
    name: module
    for module, names in _EXPORTS.items()
    for name in (module, *names)
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__all__.append("__version__")


def __getattr__(name: str) -> _Any:
    try:
        module_name = _ORIGIN[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    # The import statement's own route (not importlib's), so that
    # ``-X importtime`` reports the load; it binds the submodule here.
    __import__(f"{__name__}.{module_name}")
    module = globals()[module_name]
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # What importing every submodule would list: the dunders, each loaded
    # submodule (cli too, once imported) and every name in the table.
    names = {n for n in globals() if not n.startswith("_") or n[:2] == "__"}
    return sorted(names - {"__getattr__", "__dir__"} | set(_ORIGIN))
