"""Every route qkdprobe promises on the standard library alone.

The package declares no runtime dependency.  This script runs the README
calls and the other CLI, distillation, search and optimum routes in one
process, importing only the standard library and qkdprobe, and ends by
asserting that numpy, scipy, dataclasses and inspect never loaded.  Run
it on an interpreter without site-packages,

    PYTHONPATH=src python -S tests/runtime_routes.py

or after ``pip install -e .`` alone as ``python tests/runtime_routes.py``.
A failure raises and names what went wrong.
"""

import hashlib
import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from qkdprobe.cli import main

GOLDEN = Path(__file__).parent / "golden"
README_CALLS = json.loads((GOLDEN / "readme_argv.json").read_text())
SAMPLE_DIGESTS = json.loads((GOLDEN / "samples_sha256.json").read_text())


def answers(argv):
    """The stdout of main(argv), which must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def command(name):
    """The README calls of one subcommand."""
    return [argv for argv in README_CALLS if argv[0] == name]


# The CLI: evaluate first, which loads no module it does not run; then
# every other README call and verify off the README, all without roots.
with tempfile.TemporaryDirectory() as out_dir:
    os.environ["OUTPUT_DIR"] = out_dir
    for argv in command("evaluate"):
        answers(argv)
    unused = {"qkdprobe.search", "qkdprobe.distill", "qkdprobe.simulate",
              "qkdprobe.stream"}
    assert not unused & set(sys.modules), sorted(unused & set(sys.modules))
    for argv in README_CALLS:
        if argv[0] not in ("evaluate", "possibilities"):
            answers(argv)
    for argv in command("capacity"):
        answers([*argv, "--format", "json"])
    json.loads(answers(["verify", "--alpha", "pi/8", "--error-rate", "0.2",
                        "--resolution", "10", "--restarts", "5",
                        "--samples-out", "scan.csv"]))
    above_top = json.loads(answers(["verify", "--alpha", "0.3",
                                    "--error-rate", "0.49",
                                    "--resolution", "9"]))
    assert above_top["results"]["analytic_q"] >= -1, above_top
    # The samples CSV byte for byte, as the tier-1 tests pin it.
    for entry in SAMPLE_DIGESTS:
        answers(entry["argv"])
        data = (Path(out_dir) / "samples.csv").read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        assert digest == entry["sha256"], (entry["argv"], digest)

# The distillation chain and the simulator as a library, with the search
# module imported.
import qkdprobe.search
from qkdprobe import distill, simulate
from qkdprobe.optimum import FamilyTag
from qkdprobe.probe import SignalGeometry

geom = SignalGeometry(math.pi / 8)
distill.compression_level(
    distill.DistillationConfig(n=10**6, e_t=50000, p_fail=0.01), geom)
distill.capacity_curve(geom, 0.0, 0.1, 5)
for four_state in (False, True):
    sim = simulate.SimulationConfig(
        m=10**6, geom=geom,
        attack=simulate.FamilyAttack(FamilyTag.SET_E, 0.05),
        p_fail=0.01, q_model=simulate.QLeakModel.zero(), seed=4,
        four_state_sampler=four_state)
    simulate.run(sim)
simulate.sweep(sim, "error_rate", [0.01, 0.05])
assert distill.pa_empirical_check(8, 3, [2.0**-8] * 256, 20, 5).holds
assert "qkdprobe.roots" not in sys.modules

# possibilities, the one route that loads roots.
for argv in [*command("possibilities"),
             ["possibilities", "--alpha", "pi/8", "--error-rate", "0.2"]]:
    json.loads(answers(argv))

# The star import binds every public name.
import qkdprobe

namespace = {}
exec("from qkdprobe import *", namespace)
missing = [name for name in qkdprobe.__all__ if name not in namespace]
assert not missing, missing

# The simplex searches without scipy, the families and the residuals.
from qkdprobe import ProbeParams, SearchConfig, optimum, probe, search
from qkdprobe.probe import mu_from_constraint

geom = SignalGeometry(math.pi / 8)
config = SearchConfig(geom, 0.2, random_restarts=2, seed=3)
lam, theta, phi = 0.4 * math.pi, 0.2 * math.pi, 0.6 * math.pi
mu = mu_from_constraint(lam, theta, phi, 0.2, geom)
q, _ = search.refine(ProbeParams(lam, mu, theta, phi), config)
report = search.penalty_scan(config, 1e5)
assert abs(q - 0.5) < 1e-6 and report.samples_evaluated > 0, (q, report)
assert report.violations == 0, report
phi = 0.5 * math.asin(1.0 - 4.0 * 0.2)
q, _ = search.refine(ProbeParams(0.0, math.pi / 4, 0.0, phi), config)
assert abs(q - 0.5) < 1e-9, q
blocks = []
scan = search.constrained_scan(
    SearchConfig(geom, 0.2, grid_resolution=9, random_restarts=5),
    sink=blocks.append,
)
assert scan.violations == 0 and abs(scan.best_q - 0.5) < 1e-9, scan
rows = [row for block in blocks for row in block]
assert len(rows) == scan.samples_evaluated, (len(rows), scan)
best = min(rows, key=lambda row: row[5])
assert best[5] == scan.best_q, (best, scan)
assert all(abs(row[4] - 0.2) <= 1e-12 for row in rows)
assert best[3] == scan.best_params.mu, (best, scan)
config = SearchConfig(
    SignalGeometry(math.pi / 6), 0.15, grid_resolution=9, random_restarts=5,
)
scan = search.constrained_scan(config)
q, _ = search.refine(scan.best_params, config)
assert abs(q - scan.analytic_q) < 1e-12, (q, scan)
config = SearchConfig(
    SignalGeometry(math.pi / 10), 0.4227, grid_resolution=9,
    random_restarts=5,
)
scan = search.constrained_scan(config)
q, _ = search.refine(scan.best_params, config)
assert abs(q + 1.0) < 1e-12, (q, scan)

geom = SignalGeometry(0.7)
target = 0.5 * geom.cos_sq_two_alpha
config = SearchConfig(
    geom, target, grid_resolution=21, random_restarts=20, seed=17,
)
scan = search.constrained_scan(config)
q, p = search.refine(scan.best_params, config)
e = probe._angle_error_rate(p.lam, p.mu, p.theta, p.phi, geom)
assert q >= scan.analytic_q - 1e-12, (q, scan)
assert abs(e - target) <= 1e-12 * target, (e, target)
geom = SignalGeometry(math.pi / 4 - 1e-6)
target = 1e-6 * geom.cos_sq_two_alpha
family = optimum.optimal_parameter_families(target, geom)[0]
p = optimum.sample_params(family, target, geom)
e = probe._angle_error_rate(p.lam, p.mu, p.theta, p.phi, geom)
assert abs(e - target) <= 1e-9 * target, (e, target)
geom = SignalGeometry(math.pi / 9)
set_h = [f for f in optimum.optimal_parameter_families(0.1, geom)
         if f.tag is FamilyTag.SET_H][0]
p = optimum.sample_params(set_h, 0.1, geom, {"lam": 1.2, "phi": 0.4})
e = probe._angle_error_rate(p.lam, p.mu, p.theta, p.phi, geom)
assert p.lam == 1.2 and abs(e - 0.1) <= 1e-12, (p, e)
r = optimum.stationarity_residuals(p, geom)
assert max(abs(r.r_lambda), abs(r.r_theta), abs(r.r_phi)) <= 1e-12, r
q = optimum.constant_error_overlap(p.lam, p.theta, p.phi, 0.1, geom)
assert abs(q - probe.overlap(probe.coefficients(p), geom)) <= 1e-13, q

# Every route above ran on floats and integers alone; the value types
# are built without dataclasses, which imports inspect.
loaded = {"numpy", "scipy", "dataclasses", "inspect"} & set(sys.modules)
assert not loaded, sorted(loaded)
