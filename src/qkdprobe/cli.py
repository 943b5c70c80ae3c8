"""Command-line surface: every capability as a reproducible subcommand.

Each subcommand emits a JSON envelope (or CSV where noted) echoing all
inputs, including seeds, so replaying the echoed inputs reproduces the
output byte for byte.  Floats serialize with 17 significant digits in
JSON and 12 in CSV.  Exit codes: 0 success, 1 property violation
(verify), 2 usage or domain error.

Angles are accepted as raw radians or as multiples of pi: ``0.3927``,
``0.125pi``, ``pi/8``, ``3pi/4``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__, distill, optimum, probe, search, simulate
from .errors import QkdProbeError
from .optimum import FamilyTag
from .probe import ProbeParams, SignalGeometry

_ANGLE_RE = re.compile(
    r"^\s*([+-]?\d*\.?\d*(?:[eE][+-]?\d+)?)\s*\*?\s*pi\s*(?:/\s*"
    r"(\d*\.?\d+))?\s*$"
)


def parse_angle(text: str) -> float:
    """Parse radians or 'x pi' forms such as '0.125pi', 'pi/8', '3pi/4'."""
    try:
        return float(text)
    except ValueError:
        pass
    match = _ANGLE_RE.match(text.lower())
    if not match:
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r}; use radians or forms like "
            "'0.125pi' or 'pi/8'"
        )
    coef_text, div_text = match.groups()
    coef = float(coef_text) if coef_text not in ("", "+", "-") else (
        -1.0 if coef_text == "-" else 1.0
    )
    divisor = float(div_text) if div_text else 1.0
    return coef * math.pi / divisor


def _fmt_json(value: float) -> str:
    return f"{value:.17g}"


def _fmt_csv(value: float) -> str:
    return f"{value:.12g}"


def _json_render(obj: Any, depth: int, indent: int = 2) -> str:
    pad = " " * (indent * (depth + 1))
    close_pad = " " * (indent * depth)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}"{key}": {_json_render(val, depth + 1, indent)}'
            for key, val in obj.items()
        )
        return "{\n" + items + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(
            f"{pad}{_json_render(val, depth + 1, indent)}" for val in seq
        )
        return "[\n" + items + "\n" + close_pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_json(float(obj))
    if obj is None:
        return "null"
    text = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def render_json(obj: Any) -> str:
    return _json_render(obj, 0) + "\n"


def _angle_echo(value: float) -> dict[str, float]:
    return {"radians": value, "over_pi": value / math.pi}


def _envelope(
    command: str,
    inputs: dict[str, Any],
    results: Any,
    warning_list: Sequence[str],
) -> dict[str, Any]:
    return {
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "warnings": list(warning_list),
    }


def _write_output(text: str, out: str | None) -> None:
    """Print to stdout, or write atomically under OUTPUT_DIR/--out."""
    if out is None:
        sys.stdout.write(text)
        return
    base_dir = os.environ.get("OUTPUT_DIR", "")
    path = out if os.path.isabs(out) else os.path.join(base_dir, out)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                _fmt_csv(v) if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
        )
    return "\n".join(lines) + "\n"


def _params_dict(params: ProbeParams) -> dict[str, Any]:
    return {
        "lam": _angle_echo(params.lam),
        "mu": _angle_echo(params.mu),
        "theta": _angle_echo(params.theta),
        "phi": _angle_echo(params.phi),
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    geom = SignalGeometry(args.alpha)
    params = ProbeParams(
        lam=args.lam, mu=args.mu, theta=args.theta, phi=args.phi
    )
    coeffs = probe.coefficients(params)
    probs = probe.detection_probabilities(coeffs, geom)
    evaluation = probe.evaluate(params, geom)
    results = {
        "coefficients": asdict(coeffs),
        "detection_probabilities": asdict(probs),
        "error_rate": evaluation.error_rate,
        "overlap": evaluation.overlap,
        "renyi_info": evaluation.renyi_info,
        "q_value": probe.q_value(coeffs),
    }
    inputs = {"alpha": _angle_echo(args.alpha), **_params_dict(params)}
    _write_output(
        render_json(_envelope("evaluate", inputs, results, [])), args.out
    )
    return 0


def cmd_optimal(args: argparse.Namespace) -> int:
    geom = SignalGeometry(args.alpha)
    best = optimum.optimal_overlap(args.error_rate, geom)
    families = optimum.optimal_parameter_families(args.error_rate, geom)
    results = {
        "overlap": best.overlap,
        "renyi_info": best.renyi_bits,
        "branch": best.branch.value,
        "csc_branch_overlap": optimum.csc_branch_overlap(
            args.error_rate, geom
        ),
        "sec_branch_overlap": optimum.sec_branch_overlap(
            args.error_rate, geom
        ),
        "families": [
            {
                "tag": family.tag.value,
                "constraint": family.constraint_description,
                "free_parameters": list(family.free_parameters),
            }
            for family in families
        ],
    }
    inputs = {"alpha": _angle_echo(args.alpha), "error_rate": args.error_rate}
    _write_output(
        render_json(_envelope("optimal", inputs, results, [])), args.out
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    geom = SignalGeometry(args.alpha)
    config = search.SearchConfig(
        geom=geom,
        target_error=args.error_rate,
        grid_resolution=args.resolution,
        random_restarts=args.restarts,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    if args.samples_out is None:
        report = search.constrained_scan(config)
    else:
        blocks: list[np.ndarray] = []
        report = search.constrained_scan(config, sink=blocks.append)
        _write_output(
            _csv(
                ("lam", "theta", "phi", "mu", "E", "Q"),
                (row for block in blocks for row in block.tolist()),
            ),
            args.samples_out,
        )
    results = {
        "best_q": report.best_q,
        "best_params": _params_dict(report.best_params),
        "analytic_q": report.analytic_q,
        "violations": report.violations,
        "samples_evaluated": report.samples_evaluated,
    }
    inputs = {
        "alpha": _angle_echo(args.alpha),
        "error_rate": args.error_rate,
        "resolution": args.resolution,
        "restarts": args.restarts,
        "seed": args.seed,
        "tolerance": args.tolerance,
    }
    _write_output(
        render_json(_envelope("verify", inputs, results, [])), args.out
    )
    return 1 if report.violations > 0 else 0


def cmd_capacity(args: argparse.Namespace) -> int:
    geom = SignalGeometry(args.alpha)
    points = distill.capacity_curve(geom, args.e_min, args.e_max, args.steps)
    if args.format == "csv":
        rows = []
        for point in points:
            best = optimum.optimal_overlap(point.error_rate, geom)
            rows.append(
                (
                    args.alpha,
                    point.error_rate,
                    best.overlap,
                    best.renyi_bits,
                    point.capacity,
                )
            )
        _write_output(
            _csv(("alpha", "E", "Q_opt", "I_opt", "capacity"), rows), args.out
        )
        return 0
    results = [
        {
            "error_rate": point.error_rate,
            "capacity": point.capacity,
            "inner_argmax": point.inner_argmax,
        }
        for point in points
    ]
    inputs = {
        "alpha": _angle_echo(args.alpha),
        "e_min": args.e_min,
        "e_max": args.e_max,
        "steps": args.steps,
    }
    _write_output(
        render_json(_envelope("capacity", inputs, results, [])), args.out
    )
    return 0


def _int_list(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise QkdProbeError(f"cannot parse integer list {text!r}") from exc
    if not values:
        raise QkdProbeError(f"empty integer list {text!r}")
    return values


def cmd_frontier(args: argparse.Namespace) -> int:
    geom = SignalGeometry(args.alpha)
    n_values = _int_list(args.n)
    e_values = _int_list(args.errors)
    if len(n_values) == 1:
        n_values *= len(e_values)
    if len(e_values) == 1:
        e_values *= len(n_values)
    if len(n_values) != len(e_values):
        raise QkdProbeError(
            "--n and --errors lists must have equal length (or one be "
            "a single value)"
        )
    rows = []
    for n, e_t in zip(n_values, e_values):
        config = distill.DistillationConfig(
            n=n,
            e_t=e_t,
            p_fail=args.p_fail,
            q_leak=args.q_leak,
            nu=args.nu,
            g=args.g,
        )
        frontier = distill.defense_frontier(config, geom)
        rows.append((n, e_t, args.p_fail, frontier.xi, frontier.t_f,
                     frontier.argmax_e, config.compression(frontier.t_f)))
    if args.format == "csv":
        _write_output(
            _csv(("n", "e_T", "p", "xi", "t_F", "argmax_e", "s"), rows),
            args.out,
        )
        return 0
    results = [
        {
            "n": n,
            "e_t": e_t,
            "xi": xi_value,
            "t_f": t_f,
            "argmax_e": argmax_e,
            "s": s,
        }
        for n, e_t, _, xi_value, t_f, argmax_e, s in rows
    ]
    inputs = {
        "alpha": _angle_echo(args.alpha),
        "n": args.n,
        "errors": args.errors,
        "p_fail": args.p_fail,
        "q_leak": args.q_leak,
        "nu": args.nu,
        "g": args.g,
    }
    payload = results[0] if len(results) == 1 else results
    _write_output(
        render_json(
            _envelope("frontier", inputs, payload, [])
        ),
        args.out,
    )
    return 0


def _attack_from_args(args: argparse.Namespace):
    if args.family is not None:
        if args.error_rate is None:
            raise QkdProbeError("--family requires --error-rate")
        return simulate.FamilyAttack(
            tag=FamilyTag(args.family), target_error=args.error_rate
        )
    angles = (args.lam, args.mu, args.theta, args.phi)
    if any(a is None for a in angles):
        raise QkdProbeError(
            "specify either --family with --error-rate, or all of "
            "--lambda --mu --theta --phi"
        )
    return ProbeParams(*angles)


def _q_model_from_args(args: argparse.Namespace) -> simulate.QLeakModel:
    if args.q_model == "zero":
        return simulate.QLeakModel.zero()
    return simulate.QLeakModel.binary_entropy(args.q_fraction)


def _report_dict(report: simulate.SimulationReport) -> dict[str, Any]:
    return {
        "n": report.n,
        "e_t": report.e_t,
        "s": report.s,
        "final_key_len": report.final_key_len,
        "empirical_error": report.empirical_error,
        "empirical_rate": report.empirical_rate,
        "analytic_capacity": report.analytic_capacity,
    }


def _simulate_inputs(args: argparse.Namespace) -> dict[str, Any]:
    inputs: dict[str, Any] = {
        "m": args.m,
        "alpha": _angle_echo(args.alpha),
        "p_fail": args.p_fail,
        "seed": args.seed,
        "q_model": args.q_model,
        "q_fraction": args.q_fraction,
        "four_state": args.four_state,
    }
    if args.family is not None:
        inputs["family"] = args.family
        inputs["error_rate"] = args.error_rate
    else:
        inputs.update(
            {
                "lam": _angle_echo(args.lam),
                "mu": _angle_echo(args.mu),
                "theta": _angle_echo(args.theta),
                "phi": _angle_echo(args.phi),
            }
        )
    return inputs


def cmd_simulate(args: argparse.Namespace) -> int:
    config = simulate.SimulationConfig(
        m=args.m,
        geom=SignalGeometry(args.alpha),
        attack=_attack_from_args(args),
        p_fail=args.p_fail,
        q_model=_q_model_from_args(args),
        seed=args.seed,
        four_state_sampler=args.four_state,
    )
    report = simulate.run(config)
    _write_output(
        render_json(
            _envelope("simulate", _simulate_inputs(args), _report_dict(report), [])
        ),
        args.out,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = simulate.SimulationConfig(
        m=args.m,
        geom=SignalGeometry(args.alpha),
        attack=_attack_from_args(args),
        p_fail=args.p_fail,
        q_model=_q_model_from_args(args),
        seed=args.seed,
        four_state_sampler=args.four_state,
    )
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise QkdProbeError(
            f"cannot parse sweep values {args.values!r}"
        ) from exc
    variable = args.variable.replace("-", "_")
    results = simulate.sweep(config, variable, values)
    rows = [
        (
            variable,
            value,
            report.n,
            report.e_t,
            report.s,
            report.final_key_len,
            report.empirical_error,
            report.empirical_rate,
            report.analytic_capacity,
        )
        for value, report in results
    ]
    _write_output(
        _csv(
            (
                "variable",
                "value",
                "n",
                "e_T",
                "s",
                "final_key_len",
                "empirical_E",
                "empirical_rate",
                "analytic_capacity",
            ),
            rows,
        ),
        args.out,
    )
    return 0


def cmd_possibilities(args: argparse.Namespace) -> int:
    geom = SignalGeometry(args.alpha)
    reports = optimum.enumerate_possibilities(args.error_rate, geom)
    results = [
        {
            "label": report.label,
            "status": report.status.value,
            "achieved_q": report.achieved_q,
            "detail": report.detail,
        }
        for report in reports
    ]
    inputs = {"alpha": _angle_echo(args.alpha), "error_rate": args.error_rate}
    _write_output(
        render_json(_envelope("possibilities", inputs, results, [])), args.out
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdprobe",
        description=(
            "Entangling-probe attack evaluation, optimization, "
            "verification, and key-distillation toolkit for four-state QKD"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output path (atomic write)")

    p = sub.add_parser("evaluate", help="evaluate one probe setting")
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_angle, required=True)
    p.add_argument("--mu", type=parse_angle, required=True)
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--phi", type=parse_angle, required=True)
    add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimal", help="optimum overlap, info, and families")
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--error-rate", type=float, required=True)
    add_common(p)
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("verify", help="brute-force scan against the optimum")
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--error-rate", type=float, required=True)
    p.add_argument("--resolution", type=int, default=40)
    p.add_argument("--restarts", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument(
        "--samples-out",
        default=None,
        help=(
            "also write as CSV every sample the scan evaluated, as "
            "(lam,theta,phi,mu,E,Q) rows: grid nodes in order, then "
            "restarts, one row per sample counted in samples_evaluated"
        ),
    )
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("capacity", help="asymptotic secrecy capacity curve")
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--e-min", type=float, default=0.0)
    p.add_argument("--e-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("frontier", help="defense frontier and compression")
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--n", required=True, help="sifted bits (or a comma list)")
    p.add_argument(
        "--errors", required=True, help="error count (or a comma list)"
    )
    p.add_argument("--p-fail", type=float, required=True)
    p.add_argument("--q-leak", type=float, default=0.0)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(func=cmd_frontier)

    def add_attack_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--alpha", type=parse_angle, required=True)
        p.add_argument(
            "--family",
            choices=[tag.value for tag in FamilyTag],
            default=None,
        )
        p.add_argument("--error-rate", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=parse_angle, default=None)
        p.add_argument("--mu", type=parse_angle, default=None)
        p.add_argument("--theta", type=parse_angle, default=None)
        p.add_argument("--phi", type=parse_angle, default=None)
        p.add_argument("--p-fail", type=float, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--q-model", choices=("zero", "binary-entropy"), default="zero"
        )
        p.add_argument("--q-fraction", type=float, default=1.0)
        p.add_argument("--four-state", action="store_true")

    p = sub.add_parser("simulate", help="seeded protocol simulation")
    add_attack_args(p)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="simulation sweep over E or alpha")
    add_attack_args(p)
    p.add_argument(
        "--variable", choices=("error-rate", "alpha"), required=True
    )
    p.add_argument(
        "--values", required=True, help="comma-separated sweep values"
    )
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "possibilities", help="classify the twelve stationarity cases"
    )
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--error-rate", type=float, required=True)
    add_common(p)
    p.set_defaults(func=cmd_possibilities)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QkdProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
