"""The README's nine ``qkdprobe`` examples and the checks on their output.

Each example runs as a fresh process, exactly as a user would type it;
only the seeds are derived from the workload seed.  This module never
imports qkdprobe: the outputs are parsed as text and compared with the
stored reference values and the closed forms in :mod:`checks`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from checks import (
    ABS,
    CAPACITY_ABS,
    CSV_REL,
    REL,
    Failures,
    ceil_window,
    check_simulated_counts,
    observables,
)

SAMPLES_FILE = "samples.csv"
ALPHA = math.pi / 8


def derive_seed(seed: int, label: str) -> int:
    """A program seed in [0, 2^31) fixed by the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def commands(seed: int, tiny: bool = False) -> list[tuple[str, list[str]]]:
    """(name, argv) of every README example, in README order."""
    resolution = "10" if tiny else "40"
    sim_m, sweep_m = ("40000", "20000") if tiny else ("400000", "200000")
    return [
        ("evaluate", ["evaluate", "--alpha", "pi/8", "--lambda", "0.3pi",
                      "--mu", "0.156816pi", "--theta", "0.1pi",
                      "--phi", "0.75pi"]),
        ("optimal", ["optimal", "--alpha", "pi/8", "--error-rate", "0.2"]),
        ("verify", ["verify", "--alpha", "pi/8", "--error-rate", "0.2",
                    "--resolution", resolution, "--restarts", "50",
                    "--seed", str(derive_seed(seed, "verify")),
                    "--samples-out", SAMPLES_FILE]),
        ("capacity", ["capacity", "--alpha", "pi/8", "--e-max", "0.12",
                      "--steps", "25"]),
        ("frontier", ["frontier", "--alpha", "pi/8", "--n", "10000",
                      "--errors", "500", "--p-fail", "0.01"]),
        ("frontier_csv", ["frontier", "--alpha", "pi/8",
                          "--n", "1000,10000,100000",
                          "--errors", "100,1000,10000", "--p-fail", "0.5",
                          "--format", "csv"]),
        ("simulate", ["simulate", "--m", sim_m, "--alpha", "pi/8",
                      "--family", "set_e", "--error-rate", "0.05",
                      "--p-fail", "0.01",
                      "--seed", str(derive_seed(seed, "simulate"))]),
        ("sweep", ["sweep", "--m", sweep_m, "--alpha", "pi/8",
                   "--family", "set_e", "--error-rate", "0.05",
                   "--p-fail", "0.01",
                   "--seed", str(derive_seed(seed, "sweep")),
                   "--variable", "error-rate",
                   "--values", "0.01,0.05,0.09"]),
        ("possibilities", ["possibilities", "--alpha", "pi/9",
                           "--error-rate", "0.1"]),
    ]


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _param(params: dict, name: str) -> float:
    return params[name]["radians"]


def check_output(
    name: str,
    argv: list[str],
    exit_code: int,
    stdout: str,
    run_dir: str,
    reference: dict,
) -> Failures:
    """Check one example's exit code and output against the reference."""
    fails = Failures()
    ref = reference["cli"][name]
    fails.expect(exit_code == 0, f"{name}: exit code {exit_code}")
    if exit_code != 0:
        return fails
    if name in ("capacity", "frontier_csv", "sweep"):
        header, rows = _csv_rows(stdout)
    else:
        results = json.loads(stdout)["results"]

    if name == "evaluate":
        flat = dict(results["coefficients"])
        flat.update(results["detection_probabilities"])
        for key in ("error_rate", "overlap", "renyi_info", "q_value"):
            flat[key] = results[key]
        for key, want in ref.items():
            fails.close(f"evaluate {key}", flat[key], want)
    elif name == "optimal":
        for key in ("overlap", "renyi_info", "csc_branch_overlap",
                    "sec_branch_overlap"):
            fails.close(f"optimal {key}", results[key], ref[key])
        fails.expect(results["branch"] == ref["branch"], "optimal branch")
        tags = [family["tag"] for family in results["families"]]
        fails.expect(tags == ref["family_tags"], f"optimal families {tags}")
    elif name == "verify":
        _check_verify(fails, argv, results, run_dir, ref)
    elif name == "capacity":
        fails.expect(header == ref["header"], f"capacity header {header}")
        fails.expect(len(rows) == len(ref["rows"]), "capacity row count")
        for i, (row, want) in enumerate(zip(rows, ref["rows"])):
            for j, (cell, value) in enumerate(zip(row, want)):
                fails.close(f"capacity row {i} col {j}", float(cell), value,
                            rel=CSV_REL,
                            abs_tol=CAPACITY_ABS if j == 4 else ABS)
    elif name == "frontier":
        for key in ("xi", "t_f"):
            fails.close(f"frontier {key}", results[key], ref[key])
        for key in ("n", "e_t", "argmax_e"):
            fails.expect(results[key] == ref[key], f"frontier {key}")
        fails.expect(results["s"] in ceil_window(ref["t_f"]), "frontier s")
    elif name == "frontier_csv":
        fails.expect(header == ref["header"], f"frontier header {header}")
        fails.expect(len(rows) == len(ref["rows"]), "frontier row count")
        for i, (row, want) in enumerate(zip(rows, ref["rows"])):
            n, e_t, p, xi, t_f, argmax_e, s = row
            fails.expect([int(n), int(e_t), int(argmax_e)]
                         == [want[0], want[1], want[5]], f"frontier row {i}")
            fails.close(f"frontier row {i} xi", float(xi), want[3],
                        rel=CSV_REL)
            fails.close(f"frontier row {i} t_F", float(t_f), want[4],
                        rel=CSV_REL)
            fails.expect(int(s) in ceil_window(want[4]), f"frontier row {i} s")
    elif name == "simulate":
        m = int(argv[argv.index("--m") + 1])
        check_simulated_counts(
            fails, "simulate", m, 0.05, results["n"], results["e_t"],
            results["s"], results["final_key_len"],
        )
        fails.close("simulate empirical_error", results["empirical_error"],
                    results["e_t"] / results["n"], rel=REL)
        fails.close("simulate analytic_capacity",
                    results["analytic_capacity"], ref["analytic_capacity"],
                    abs_tol=CAPACITY_ABS)
    elif name == "sweep":
        m = int(argv[argv.index("--m") + 1])
        fails.expect(header == ref["header"], f"sweep header {header}")
        fails.expect(len(rows) == len(ref["capacity"]), "sweep row count")
        for row, want in zip(rows, ref["capacity"]):
            value = float(row[1])
            n, e_t, s, key_len = (int(v) for v in row[2:6])
            check_simulated_counts(fails, f"sweep E={value}", m, value,
                                   n, e_t, s, key_len)
            fails.close(f"sweep E={value} capacity", float(row[8]), want,
                        rel=CSV_REL, abs_tol=CAPACITY_ABS)
    elif name == "possibilities":
        got = [[r["label"], r["status"]] for r in results]
        fails.expect(got == [r[:2] for r in ref],
                     f"possibilities statuses {got}")
        for report, want in zip(results, ref):
            if want[2] is not None:
                fails.close(f"possibility {want[0]} Q", report["achieved_q"],
                            want[2])
    return fails


def _check_verify(fails, argv, results, run_dir, ref) -> None:
    target = float(argv[argv.index("--error-rate") + 1])
    analytic = results["analytic_q"]
    fails.close("verify analytic_q", analytic, ref["analytic_q"])
    fails.expect(results["violations"] == 0, "verify violations")
    fails.expect(results["best_q"] >= analytic - 1e-6, "verify best_q")
    params = results["best_params"]
    error, overlap = observables(
        ALPHA, *(_param(params, k) for k in ("lam", "mu", "theta", "phi"))
    )
    fails.close("verify best E", error, target, abs_tol=1e-9)
    fails.close("verify best Q", overlap, results["best_q"], abs_tol=1e-9)
    check_samples(fails, os.path.join(run_dir, SAMPLES_FILE), target,
                  analytic, results["samples_evaluated"])


def check_samples(fails, path, target, analytic, samples_evaluated) -> None:
    """Every sampled row meets the target E and none beats the optimum."""
    with open(path) as handle:
        header = handle.readline().strip()
        fails.expect(header == "lam,theta,phi,mu,E,Q", f"samples header {header}")
        rows = 0
        worst_e = 0.0
        min_q = math.inf
        for line in handle:
            cells = line.split(",")
            worst_e = max(worst_e, abs(float(cells[4]) - target))
            min_q = min(min_q, float(cells[5]))
            rows += 1
    fails.expect(0 < rows <= samples_evaluated,
                 f"samples: {rows} rows for {samples_evaluated} samples")
    fails.expect(worst_e <= 1e-9, f"samples: E off target by {worst_e!r}")
    fails.expect(min_q >= analytic - 1e-6,
                 f"samples: Q = {min_q!r} beats the optimum {analytic!r}")
