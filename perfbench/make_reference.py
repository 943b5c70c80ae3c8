"""Write reference.json: the stored values the benchmark's checks compare.

Run once from the repository root against a trusted version of the
program:

    PYTHONPATH=src python3 perfbench/make_reference.py

The values are seed-independent closed forms (and the possibility
statuses), so a later version of the program must reproduce them within
the tolerances in checks.py.  Do not regenerate the file to make a failing
check pass: a failing check means the program's output changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from qkdprobe import cli, distill, optimum  # noqa: E402
from qkdprobe.probe import SignalGeometry  # noqa: E402

import checks  # noqa: E402
import library  # noqa: E402
import readme  # noqa: E402


def _cli(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"reference command failed: {argv}")
    return buffer.getvalue()


def cli_reference() -> dict:
    out = {}
    for name, argv in readme.commands(seed=0):
        if name == "verify":
            argv = argv[: argv.index("--samples-out")]
        text = _cli(argv)
        if name in ("capacity", "frontier_csv", "sweep"):
            lines = text.splitlines()
            header = lines[0].split(",")
            skip = 1 if name == "sweep" else 0
            rows = [[float(v) for v in line.split(",")[skip:]]
                    for line in lines[1:]]
        else:
            results = json.loads(text)["results"]
        if name == "evaluate":
            ref = dict(results["coefficients"])
            ref.update(results["detection_probabilities"])
            for key in ("error_rate", "overlap", "renyi_info", "q_value"):
                ref[key] = results[key]
        elif name == "optimal":
            ref = {key: results[key] for key in (
                "overlap", "renyi_info", "branch", "csc_branch_overlap",
                "sec_branch_overlap")}
            ref["family_tags"] = [f["tag"] for f in results["families"]]
        elif name == "verify":
            ref = {"analytic_q": results["analytic_q"]}
        elif name in ("capacity", "frontier_csv"):
            ref = {"header": header, "rows": rows}
        elif name == "frontier":
            ref = {key: results[key] for key in (
                "n", "e_t", "xi", "t_f", "argmax_e", "s")}
        elif name == "simulate":
            ref = {"analytic_capacity": results["analytic_capacity"]}
        elif name == "sweep":
            ref = {"header": header, "capacity": [row[-1] for row in rows]}
        elif name == "possibilities":
            ref = [[r["label"], r["status"], r["achieved_q"]] for r in results]
        out[name] = ref
    return out


def library_reference() -> dict:
    statuses, frontier, capacity = {}, {}, {}
    for alpha in library.ALPHAS:
        geom = SignalGeometry(alpha)
        key = checks.alpha_key(alpha)
        target = 0.5 * min(checks.branch_limit(alpha), 0.49)
        statuses[key] = [
            [r.label, r.status.value]
            for r in optimum.enumerate_possibilities(target, geom)
        ]
        frontier[key] = {}
        for n in sorted(set(library.SIFTED_SIZES + library.SIFTED_SIZES_TINY)):
            config = distill.DistillationConfig(
                n=n, e_t=n // 20, p_fail=library.SIM_P_FAIL
            )
            frontier[key][str(n)] = distill.defense_frontier(config, geom).t_f
        top = 0.95 * checks.peak_error(alpha)
        capacity[key] = {
            str(steps): [
                p.capacity for p in distill.capacity_curve(geom, 0.0, top, steps)
            ]
            for steps in (library.CAPACITY_STEPS, library.CAPACITY_STEPS_TINY)
        }
    sim_geom = SignalGeometry(library.SIM_ALPHA)
    simulate_capacity = {
        repr(e): distill.asymptotic_capacity(e, sim_geom).capacity
        for e in sorted({library.SIM_ERROR, *library.SWEEP_VALUES})
    }
    return {
        "statuses": statuses,
        "frontier": frontier,
        "capacity": capacity,
        "simulate_capacity": simulate_capacity,
    }


def main() -> None:
    reference = {"cli": cli_reference(), **library_reference()}
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
