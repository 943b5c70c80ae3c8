"""Command-line surface: every capability as a reproducible subcommand.

Each ``cmd_*`` function returns ``(exit_code, results)``, where
``results`` is a JSON payload or, where noted, the finished CSV text.
:func:`main` alone wraps a payload in the JSON envelope and writes every
output.  The envelope's ``inputs`` echo every parsed argument in parser
order, angles as ``{radians, over_pi}``, except those that pick the
command or place its output (``--out``, ``--samples-out``, ``--format``)
and those left unset, so replaying the echoed inputs reproduces the
output byte for byte.  Floats serialize with 17 significant digits in
JSON and 12 in CSV.  Each output has one renderer: :func:`render_json`
the JSON envelope and :func:`_csv` the CSV tables of ``capacity``,
``frontier``, ``sweep`` and ``verify --samples-out``, whose rows
:func:`_csv_rows` writes block by block as the scan hands them over.  Exit codes: 0 success, 1 property
violation (verify), 2 usage or domain error or an unwritable output.

Angles are accepted as raw radians or as multiples of pi: ``0.3927``,
``0.125pi``, ``pi/8``, ``3pi/4``.

Importing this module loads only ``qkdprobe.probe`` and
``qkdprobe.errors``, which is all that parsing, ``--help``, ``--version``
and ``evaluate`` need.  Every other subcommand imports the modules it
runs when it is dispatched: ``optimal`` loads ``optimum``, ``verify``
loads ``search``, ``capacity`` and ``frontier`` load ``distill``, and
``simulate`` and ``sweep`` load ``simulate``; ``search`` and
``simulate`` bring ``stream``, the package's plain-Python port of numpy's
seeded stream.  Only ``possibilities`` loads ``roots``, for its polynomial
roots.  No subcommand imports numpy: ``verify`` scans in plain Python,
``simulate`` and ``sweep`` draw from the seeded stream, and every other
call runs on plain floats.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import stat
import sys
import tempfile
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence, TextIO

from . import __version__, probe
from .errors import OutOfDomainError, QkdProbeError
from .probe import ProbeParams, SignalGeometry, asdict

if TYPE_CHECKING:
    from . import simulate

# The values of optimum.FamilyTag, written out so that parsing the
# arguments does not import optimum.
_FAMILY_TAGS = ("set_e", "set_h", "set_phi_neg")
# Columns of the verify --samples-out CSV, one row per scan node.
SAMPLE_HEADER = ("lam", "theta", "phi", "mu", "E", "Q")

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
    if divisor == 0.0:
        raise argparse.ArgumentTypeError(f"angle {text!r} divides by zero")
    return coef * math.pi / divisor


def _fmt_json(value: float) -> str:
    return f"{value:.17g}"


# A JSON string may hold no raw backslash, quote or U+0000-U+001F.
_JSON_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', **{chr(c): f"\\u{c:04x}" for c in range(32)}}
)


def _json_render(obj: Any, depth: int) -> str:
    pad = "  " * (depth + 1)
    close_pad = "  " * depth
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}"{key}": {_json_render(val, depth + 1)}'
            for key, val in obj.items()
        )
        return "{\n" + items + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(
            f"{pad}{_json_render(val, depth + 1)}" for val in obj
        )
        return "[\n" + items + "\n" + close_pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_json(obj)
    if obj is None:
        return "null"
    return f'"{str(obj).translate(_JSON_ESCAPES)}"'


def render_json(obj: Any) -> str:
    return _json_render(obj, 0) + "\n"


def _angle_echo(value: float) -> dict[str, float]:
    return {"radians": value, "over_pi": value / math.pi}


# The parsed names that pick the command or place its output.
_NOT_INPUTS = frozenset(("subcommand", "func", "out", "samples_out", "format"))
_ANGLES = frozenset(("alpha", "lam", "mu", "theta", "phi"))


def _inputs(args: argparse.Namespace) -> dict[str, Any]:
    """Every argument that was set, in parser order; angles as
    ``{radians, over_pi}``."""
    return {
        name: _angle_echo(value) if name in _ANGLES else value
        for name, value in vars(args).items()
        if name not in _NOT_INPUTS and value is not None
    }


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """A text handle on stdout, or on a temporary file that replaces
    OUTPUT_DIR/--out atomically once the block completes.

    A directory target is refused before the block runs.  If the block
    raises, the temporary file is removed and the target is left as it
    was; an OSError becomes a QkdProbeError that names the target.
    """
    if out is None:
        yield sys.stdout
        return
    base_dir = os.environ.get("OUTPUT_DIR", "")
    path = out if os.path.isabs(out) else os.path.join(base_dir, out)
    directory = os.path.dirname(path) or "."
    tmp_path = None
    try:
        if os.path.isdir(path):
            raise QkdProbeError(f"cannot write {path}: Is a directory")
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            yield handle
        # mkstemp makes the file 0600; give it the mode a shell redirect
        # would leave: the old file's, or 0666 less the umask.
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp_path, mode)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise QkdProbeError(f"cannot write {path}: {exc.strerror}")
        raise


def _csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """One table: the header, then :func:`_csv_rows`."""
    return ",".join(header) + "\n" + _csv_rows(rows)


def _csv_rows(rows: Iterable[Sequence[Any]]) -> str:
    """One line per row, floats as %.12g and anything else as str().

    Each row is written by one %-format, picked by its cell types: a
    float cell takes %.12g and any other %s, so an integer prints in full
    and a column may change type between rows."""
    formats: dict[tuple[type, ...], str] = {}
    lines = []
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        line = formats.get(types)
        if line is None:
            line = formats[types] = ",".join(
                "%.12g" if issubclass(kind, float) else "%s" for kind in types
            ) + "\n"
        lines.append(line % row)
    return "".join(lines)


def cmd_evaluate(args: argparse.Namespace) -> tuple[int, Any]:
    geom = SignalGeometry(args.alpha)
    params = ProbeParams(
        lam=args.lam, mu=args.mu, theta=args.theta, phi=args.phi
    )
    coeffs = probe.coefficients(params)
    probs = probe.detection_probabilities(coeffs, geom)
    evaluation = probe.evaluate(params, geom)
    return 0, {
        "coefficients": asdict(coeffs),
        "detection_probabilities": asdict(probs),
        "error_rate": evaluation.error_rate,
        "overlap": evaluation.overlap,
        "renyi_info": evaluation.renyi_info,
        "q_value": probe.q_value(coeffs),
    }


def cmd_optimal(args: argparse.Namespace) -> tuple[int, Any]:
    from . import optimum

    geom = SignalGeometry(args.alpha)
    best = optimum.optimal_overlap(args.error_rate, geom)
    families = optimum.optimal_parameter_families(args.error_rate, geom)
    return 0, {
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


def cmd_verify(args: argparse.Namespace) -> tuple[int, Any]:
    from . import search

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
        # Each sink block is rendered and written as it arrives.
        with _output(args.samples_out) as handle:
            handle.write(_csv(SAMPLE_HEADER, ()))
            report = search.constrained_scan(
                config, sink=lambda rows: handle.write(_csv_rows(rows))
            )
    return 1 if report.violations > 0 else 0, {
        "best_q": report.best_q,
        "best_params": {
            name: _angle_echo(value)
            for name, value in asdict(report.best_params).items()
        },
        "analytic_q": report.analytic_q,
        "violations": report.violations,
        "samples_evaluated": report.samples_evaluated,
    }


def cmd_capacity(args: argparse.Namespace) -> tuple[int, Any]:
    from . import distill, optimum

    geom = SignalGeometry(args.alpha)
    points = distill.capacity_curve(geom, args.e_min, args.e_max, args.steps)
    if args.format == "json":
        return 0, [asdict(point) for point in points]
    # The optimum exists only up to the family maximum; the capacity is
    # defined beyond it.
    rows = []
    for point in points:
        try:
            best = optimum.optimal_overlap(point.error_rate, geom)
            q_opt, i_opt = best.overlap, best.renyi_bits
        except OutOfDomainError:
            q_opt = i_opt = math.nan
        rows.append(
            (args.alpha, point.error_rate, q_opt, i_opt, point.capacity)
        )
    return 0, _csv(("alpha", "E", "Q_opt", "I_opt", "capacity"), rows)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise QkdProbeError(f"cannot parse integer list {text!r}") from exc
    if not values:
        raise QkdProbeError(f"empty integer list {text!r}")
    return values


def cmd_frontier(args: argparse.Namespace) -> tuple[int, Any]:
    from . import distill

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
        return 0, _csv(("n", "e_T", "p", "xi", "t_F", "argmax_e", "s"), rows)
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
    return 0, results[0] if len(results) == 1 else results


def _simulation_config(args: argparse.Namespace) -> simulate.SimulationConfig:
    from . import simulate
    from .optimum import FamilyTag

    # The echo lists every attack argument given, so one that would not
    # run is refused: the two attack forms do not mix.
    angles = (args.lam, args.mu, args.theta, args.phi)
    attack: simulate.FamilyAttack | ProbeParams
    if args.family is not None and angles == (None,) * 4:
        if args.error_rate is None:
            raise QkdProbeError("--family requires --error-rate")
        attack = simulate.FamilyAttack(
            tag=FamilyTag(args.family), target_error=args.error_rate
        )
    elif (args.family, args.error_rate) == (None, None) and None not in angles:
        attack = ProbeParams(*angles)
    else:
        raise QkdProbeError(
            "specify either --family with --error-rate, or all of "
            "--lambda --mu --theta --phi"
        )
    # Checked under either model: the fraction is echoed under both.
    if not 0.0 <= args.q_fraction < math.inf:
        raise QkdProbeError("--q-fraction must be finite and non-negative")
    if args.q_model == "zero":
        q_model = simulate.QLeakModel.zero()
    else:
        q_model = simulate.QLeakModel.binary_entropy(args.q_fraction)
    return simulate.SimulationConfig(
        m=args.m,
        geom=SignalGeometry(args.alpha),
        attack=attack,
        p_fail=args.p_fail,
        q_model=q_model,
        seed=args.seed,
        four_state_sampler=args.four_state,
    )


def cmd_simulate(args: argparse.Namespace) -> tuple[int, Any]:
    from . import simulate

    return 0, asdict(simulate.run(_simulation_config(args)))


def cmd_sweep(args: argparse.Namespace) -> tuple[int, Any]:
    from . import simulate

    config = _simulation_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise QkdProbeError(
            f"cannot parse sweep values {args.values!r}"
        ) from exc
    if not values:
        raise QkdProbeError(f"empty sweep values {args.values!r}")
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
    return 0, _csv(
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
    )


def cmd_possibilities(args: argparse.Namespace) -> tuple[int, Any]:
    from . import optimum

    geom = SignalGeometry(args.alpha)
    reports = optimum.enumerate_possibilities(args.error_rate, geom)
    return 0, [
        {
            "label": report.label,
            "status": report.status.value,
            "achieved_q": report.achieved_q,
            "detail": report.detail,
        }
        for report in reports
    ]


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads an argument starting with '-' as a
    value, not an option, where it starts like a number or an angle:
    '-1e-3', '-.5', '-inf', '-nan', '-pi/8'.  The value then reaches the
    option's own checks.  Subparsers are built with this class too."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\d|\.\d|inf|nan|pi)", re.IGNORECASE
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            "restarts, one row per sample counted in samples_evaluated. "
            "E is the error rate at the row's printed float angles; it "
            "leaves the target where cos^2(lam) or sin^2(pi/4 - mu) is "
            "below what a float angle resolves (at alpha = 1e-150, E = "
            "2e-300, rows off theta = 0 read E up to 3.7e-33)"
        ),
    )
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("capacity", help="asymptotic secrecy capacity curve")
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--e-min", type=float, default=0.0)
    p.add_argument("--e-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--format", choices=("json", "csv"), default="csv",
        help="csv: Q_opt and I_opt are nan above the family maximum E",
    )
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
        # Declared in the order the envelope echoes them: main lists the
        # inputs in parser order.
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--alpha", type=parse_angle, required=True)
        p.add_argument("--p-fail", type=float, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--q-model", choices=("zero", "binary-entropy"), default="zero"
        )
        p.add_argument("--q-fraction", type=float, default=1.0)
        p.add_argument("--four-state", action="store_true")
        p.add_argument("--family", choices=_FAMILY_TAGS, default=None)
        p.add_argument("--error-rate", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=parse_angle, default=None)
        p.add_argument("--mu", type=parse_angle, default=None)
        p.add_argument("--theta", type=parse_angle, default=None)
        p.add_argument("--phi", type=parse_angle, default=None)

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
    args = build_parser().parse_args(argv)
    try:
        with _output(args.out) as handle:
            code, results = args.func(args)
            if not isinstance(results, str):
                results = render_json(
                    {
                        "tool_version": __version__,
                        "command": args.subcommand,
                        "inputs": _inputs(args),
                        "results": results,
                        "warnings": [],
                    }
                )
            handle.write(results)
    except (QkdProbeError, OSError) as exc:
        if isinstance(exc, OSError):
            # Only writing to stdout gets here: _output names its target.
            exc = f"cannot write stdout: {exc.strerror}"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
