"""The package namespace: lazy submodule loading behind a fixed __all__."""

import importlib
import json
from pathlib import Path

import pytest

import qkdprobe
from conftest import fresh_interpreter

RUNTIME_ROUTES = Path(__file__).with_name("runtime_routes.py")

SUBMODULES = ("distill", "errors", "optimum", "probe", "roots", "search",
              "simulate", "stream")

# The package's public names as they were listed before loading went lazy.
ALL = [
    "AttackEvaluation",
    "Branch",
    "BranchedOptimum",
    "CapacityPoint",
    "DetectionProbabilities",
    "DistillationConfig",
    "FamilyAttack",
    "FamilyTag",
    "FrontierResult",
    "OptimumFamily",
    "PaCheckResult",
    "PossibilityReport",
    "PossibilityStatus",
    "ProbeCoefficients",
    "ProbeParams",
    "QLeakModel",
    "QkdProbeError",
    "SearchConfig",
    "SearchReport",
    "SignalGeometry",
    "SimulationConfig",
    "SimulationReport",
    "asymptotic_capacity",
    "capacity_curve",
    "coefficients",
    "compression_level",
    "constrained_scan",
    "csc_branch_overlap",
    "defense_frontier",
    "detection_probabilities",
    "enumerate_possibilities",
    "error_rate",
    "evaluate",
    "mu_from_constraint",
    "optimal_overlap",
    "optimal_parameter_families",
    "overlap",
    "pa_empirical_check",
    "pa_shannon_bound",
    "penalty_scan",
    "possibility_d_feasibility",
    "q_value",
    "refine",
    "renyi_info",
    "renyi_information",
    "run",
    "sample_params",
    "sec_branch_overlap",
    "stationarity_residuals",
    "sweep",
    "xi",
    "__version__",
]

FRESH_SCRIPT = """
import json, sys

import qkdprobe

report = {
    "on_import": sorted(m for m in sys.modules if m.startswith("qkdprobe.")),
    "dir": dir(qkdprobe),
}
# search first: it is the first access, so __getattr__ imports it.
report["submodules"] = {
    name: getattr(qkdprobe, name) is sys.modules["qkdprobe." + name]
    for name in json.loads(sys.argv[1])
}
namespace = {}
exec("from qkdprobe import *", namespace)
del namespace["__builtins__"]
report["star"] = sorted(namespace)
report["star_is_origin"] = all(
    value is vars(sys.modules[value.__module__])[name]
    for name, value in namespace.items()
    if name != "__version__"
)
print(json.dumps(report))
"""


def test_all_is_unchanged():
    assert qkdprobe.__all__ == ALL


def test_dir_lists_every_public_name_and_submodule():
    assert set(ALL) | set(SUBMODULES) <= set(dir(qkdprobe))
    assert "__getattr__" not in dir(qkdprobe)
    assert not [n for n in dir(qkdprobe) if n.startswith("_")
                and not n.startswith("__")]


@pytest.mark.parametrize("name", ALL[:-1])
def test_name_is_its_submodules_object(name):
    value = getattr(qkdprobe, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.split(".")[:-1] == ["qkdprobe"]
    assert vars(module)[name] is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'search_module'"):
        qkdprobe.search_module
    assert not hasattr(qkdprobe, "cli_main")


def test_fresh_interpreter_loads_on_access(tmp_path):
    child = fresh_interpreter(
        FRESH_SCRIPT, json.dumps(["search", *SUBMODULES]), cwd=tmp_path
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    # Importing the package loads no submodule, yet dir() already lists
    # every name; star-import then binds each to its submodule's object.
    assert report["on_import"] == []
    assert set(ALL) | set(SUBMODULES) <= set(report["dir"])
    assert [n for n in report["dir"] if not n.startswith("__")] == sorted(
        ALL[:-1] + list(SUBMODULES)
    )
    assert report["star"] == sorted(ALL)
    assert report["star_is_origin"] is True
    assert report["submodules"] == dict.fromkeys(SUBMODULES, True)


def test_runtime_routes_run_on_the_standard_library(tmp_path):
    # The script runs without site-packages, where numpy and scipy cannot
    # be imported at all; a failed assertion's message is in stderr.
    child = fresh_interpreter(RUNTIME_ROUTES, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
