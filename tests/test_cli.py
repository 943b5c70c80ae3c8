import argparse
import contextlib
import csv
import errno
import io
import json
import math
import os
import shlex
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdprobe import (
    DistillationConfig,
    FamilyTag,
    ProbeParams,
    SearchConfig,
    SearchReport,
    SignalGeometry,
    compression_level,
    constrained_scan,
    defense_frontier,
    distill,
    evaluate,
    mu_from_constraint,
    optimum,
    penalty_scan,
    refine,
)
from qkdprobe.cli import (
    _csv,
    _float_rows,
    _output,
    main,
    parse_angle,
    render_json,
)
from qkdprobe import cli as cli_module
from qkdprobe.errors import QkdProbeError, SingularLambdaError
from qkdprobe.search import _singular_lambda_points

from conftest import SMALLEST_ALPHA, fresh_interpreter

PI = math.pi
README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


def fmt_csv(value):
    """The 12-digit CSV float format."""
    return f"{value:.12g}"


def per_value_csv(header, rows):
    """CSV rendered one f-string per value: the oracle for cli._csv."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                fmt_csv(v) if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
        )
    return "\n".join(lines) + "\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.5", 0.5),
            ("0.125pi", PI / 8),
            ("0.125*pi", PI / 8),
            ("pi/8", PI / 8),
            ("3pi/4", 3 * PI / 4),
            ("pi", PI),
            ("-0.5pi", -PI / 2),
        ],
    )
    def test_forms(self, text, expected):
        assert math.isclose(parse_angle(text), expected, abs_tol=1e-15)

    def test_rejects_garbage(self):
        for text in ("two pies", "pi/0", "pi/0.0"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_angle(text)

    def test_zero_divisor_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["optimal", "--alpha", "pi/0", "--error-rate", "0.1"])
        assert exit_info.value.code == 2
        assert "divides by zero" in capsys.readouterr().err


class TestSignedValues:
    """A refused option value exits 2 with an error line that names it.
    One that starts with '-' like a number or an angle reaches the
    option's own check too, instead of stopping in argparse with
    "expected one argument"."""

    CAPACITY = [
        "capacity", "--alpha", "pi/8", "--e-max", "0.1", "--steps", "3",
    ]
    FRONTIER = ["frontier", "--alpha", "pi/8", "--p-fail", "0.01"]
    SIMULATE = ["simulate", "--m", "1000", "--alpha", "pi/8", "--p-fail",
                "0.01"]

    @pytest.mark.parametrize(
        "argv,named",
        [
            ([*CAPACITY, "--e-min", "-inf"], "got -inf"),
            ([*CAPACITY, "--e-min", "-1e-3"], "got -0.001"),
            ([*CAPACITY, "--e-min", "-.5"], "got -0.5"),
            (["optimal", "--alpha", "-pi/8", "--error-rate", "0.1"],
             f"got {-PI / 8!r}"),
            (["optimal", "--alpha", "-0.125PI", "--error-rate", "0.1"],
             f"got {-PI / 8!r}"),
            (["optimal", "--alpha", "pi/8", "--error-rate", "-NaN"],
             "got nan"),
            ([*FRONTIER, "--n", "10,x", "--errors", "1"],
             "cannot parse integer list '10,x'"),
            ([*FRONTIER, "--n", ",", "--errors", "1"],
             "empty integer list ','"),
            ([*FRONTIER, "--n", "10,20", "--errors", "1,2,3"],
             "--n and --errors lists must have equal length"),
            ([*SIMULATE, "--family", "set_e"],
             "--family requires --error-rate"),
            (["sweep", *SIMULATE[1:], "--family", "set_e", "--error-rate",
              "0.05", "--variable", "error-rate", "--values", "0.01,x"],
             "cannot parse sweep values '0.01,x'"),
        ],
    )
    def test_exits_2_naming_the_value(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and named in err

    def test_other_dash_arguments_stay_options(self, capsys):
        # '-x' reads as no number, so it is an unknown option as before,
        # and -h still asks for help.
        with pytest.raises(SystemExit) as exit_info:
            main([*self.CAPACITY, "--e-min", "-x"])
        assert exit_info.value.code == 2
        assert "--e-min: expected one argument" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["optimal", "-h"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qkdprobe optimal")


class TestJsonRendering:
    def test_seventeen_significant_digits(self):
        assert render_json(0.1) == "0.10000000000000001\n"
        assert render_json({"x": 1.0}) == '{\n  "x": 1\n}\n'

    def test_round_trips_through_json(self):
        controls = "".join(map(chr, range(32)))
        payload = {
            "a": [0.1, 2, True, None],
            "b": {"c": "text", "d": f'\\"{controls}\x7f\u00e9'},
        }
        assert json.loads(render_json(payload)) == payload


class TestEvaluate:
    def test_worked_example_prints_six_digits(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evaluate",
            "--alpha",
            repr(PI / 8 + 1e-6),
            "--lambda",
            "0.3pi",
            "--mu",
            "0.156816pi",
            "--theta",
            "0.1pi",
            "--phi",
            "0.75pi",
        )
        assert code == 0
        payload = json.loads(out)
        overlap = payload["results"]["overlap"]
        assert f"{overlap:.6g}" == "0.500003"
        assert abs(payload["results"]["error_rate"] - 0.2) < 5e-5

    def test_identity_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evaluate",
            "--alpha",
            "pi/8",
            "--lambda",
            "0",
            "--mu",
            "0",
            "--theta",
            "0",
            "--phi",
            "pi/4",
        )
        payload = json.loads(out)
        assert payload["results"]["error_rate"] == 0.0
        assert payload["results"]["overlap"] == 1.0
        assert payload["results"]["renyi_info"] == 0.0

    def test_second_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evaluate",
            "--alpha",
            "pi/5",
            "--lambda",
            "0.7pi",
            "--mu",
            "0.0711275pi",
            "--theta",
            "0.7pi",
            "--phi",
            "0.7pi",
        )
        payload = json.loads(out)
        assert f"{payload['results']['overlap']:.5g}" == "0.34828"

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "evaluate",
            "--alpha",
            "0.3pi",
            "--lambda",
            "0",
            "--mu",
            "0",
            "--theta",
            "0",
            "--phi",
            "0",
        )
        assert code == 2
        assert "error" in err


class TestOptimal:
    def test_standard_angle(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimal", "--alpha", "pi/8", "--error-rate", "0.2"
        )
        payload = json.loads(out)
        assert abs(payload["results"]["overlap"] - 0.5) < 1e-12
        assert abs(
            payload["results"]["renyi_info"] - math.log2(1.75)
        ) < 1e-12
        tags = {f["tag"] for f in payload["results"]["families"]}
        assert tags == {"set_e", "set_h", "set_phi_neg"}

    def test_zero_error(self, capsys):
        _, out, _ = run_cli(
            capsys, "optimal", "--alpha", "pi/9", "--error-rate", "0"
        )
        payload = json.loads(out)
        assert payload["results"]["overlap"] == 1.0
        assert payload["results"]["renyi_info"] == 0.0

    def test_narrower_angle_leaks_more(self, capsys):
        _, out9, _ = run_cli(
            capsys, "optimal", "--alpha", "pi/9", "--error-rate", "0.1"
        )
        _, out8, _ = run_cli(
            capsys, "optimal", "--alpha", "pi/8", "--error-rate", "0.1"
        )
        q9 = json.loads(out9)["results"]["overlap"]
        q8 = json.loads(out8)["results"]["overlap"]
        assert q9 < q8

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimal", "--error-rate", "0"],
            ["frontier", "--n", "1000", "--errors", "10", "--p-fail", "0.01"],
            ["capacity", "--e-max", "0.1", "--steps", "3", "--format", "json"],
        ],
        ids=["optimal", "frontier", "capacity"],
    )
    def test_alpha_whose_branch_factor_overflows_exits_2(self, capsys, argv):
        # sin^2(2 alpha) is 0 at 1e-300; 2 / sin^2(2 alpha) overflows at
        # 1e-160 and 1e-170.  1e-150 is accepted.
        for alpha in ("1e-300", "1e-170", "1e-160"):
            code, out, err = run_cli(capsys, *argv, "--alpha", alpha)
            assert code == 2 and out == ""
            assert f"alpha = {float(alpha)!r} " in err
        code, out, _ = run_cli(capsys, *argv, "--alpha", "1e-150")
        assert code == 0 and json.loads(out)


class TestVerify:
    def test_clean_run_and_replay(self, capsys):
        argv = (
            "verify",
            "--alpha",
            "pi/8",
            "--error-rate",
            "0.2",
            "--resolution",
            "13",
            "--restarts",
            "10",
            "--seed",
            "3",
        )
        code_first, out_first, _ = run_cli(capsys, *argv)
        code_second, out_second, _ = run_cli(capsys, *argv)
        assert code_first == code_second == 0
        assert out_first == out_second
        payload = json.loads(out_first)
        assert payload["results"]["violations"] == 0
        assert payload["inputs"]["seed"] == 3

    def test_rows_judged_at_their_own_error_rate(self, capsys):
        # Near pi/4 the attainable E stops at cos^2(2a) ~ 1.07e-13, so the
        # clamp on sin(2 mu) moves rows off E = 0 far enough to reach
        # Q = -1; judged at the target they would be 10 violations.
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "0.785398", "--error-rate", "0",
            "--resolution", "9", "--restarts", "2",
        )
        assert code == 0
        assert json.loads(out)["results"]["violations"] == 0

    def test_small_alpha_rows_sit_on_the_target(self, capsys):
        # At alpha = 1e-5 the scan's best is a sin(lam) = 0 row; its phi
        # elimination must hold E = 1e-10 to the last digits, or best_q
        # lands on Q_min at a different E.
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "1e-5", "--error-rate", "1e-10",
            "--resolution", "9", "--restarts", "2",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert abs(results["best_q"] - results["analytic_q"]) <= 1e-15
        assert results["violations"] == 0

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--alpha", "pi/8", "--error-rate", "0.2",
            "--seed", "-1",
        )
        assert code == 2 and out == ""
        assert "seed must be non-negative" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0"])
    def test_non_finite_or_zero_tolerance_exits_2(self, capsys, tolerance):
        # A NaN tolerance could never report a violation and would echo
        # "tolerance": nan, which is not JSON.
        code, out, err = run_cli(
            capsys, "verify", "--alpha", "pi/8", "--error-rate", "0.2",
            "--resolution", "9", "--tolerance", tolerance,
        )
        assert code == 2 and out == ""
        assert "tolerance must be finite and positive" in err

    def test_violation_exit_code(self, capsys, monkeypatch):
        from qkdprobe import search

        fake = SearchReport(
            best_q=0.4,
            best_params=ProbeParams(1.0, 1.0, 1.0, 1.0),
            analytic_q=0.5,
            violations=3,
            samples_evaluated=10,
        )
        monkeypatch.setattr(search, "constrained_scan", lambda config: fake)
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--alpha",
            "pi/8",
            "--error-rate",
            "0.2",
            "--resolution",
            "5",
        )
        assert code == 1
        assert json.loads(out)["results"]["violations"] == 3

    def test_samples_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--alpha",
            "pi/8",
            "--error-rate",
            "0.2",
            "--resolution",
            "7",
            "--samples-out",
            "samples.csv",
        )
        assert code == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "lam,theta,phi,mu,E,Q"
        assert len(lines) > 10
        row = lines[1].split(",")
        assert abs(float(row[4]) - 0.2) < 1e-9

    @pytest.mark.parametrize("resolution", [7, 40])
    @pytest.mark.parametrize("restarts", [0, 50])
    def test_samples_csv_lists_every_scan_sample(
        self, capsys, tmp_path, monkeypatch, resolution, restarts
    ):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--alpha",
            "pi/8",
            "--error-rate",
            "0.2",
            "--resolution",
            str(resolution),
            "--restarts",
            str(restarts),
            "--seed",
            "17",
            "--samples-out",
            "samples.csv",
        )
        assert code == 0
        results = json.loads(out)["results"]
        text = (tmp_path / "samples.csv").read_text()
        lines = text.splitlines()[1:]
        cells = [line.split(",") for line in lines]
        assert len(cells) == results["samples_evaluated"]
        assert min(cells, key=lambda row: float(row[5]))[5] == fmt_csv(
            results["best_q"]
        )

        # The CSV holds the scan's own rows; re-evaluate them at full
        # precision through the scalar route.
        geom = SignalGeometry(PI / 8)
        config = SearchConfig(
            geom=geom,
            target_error=0.2,
            grid_resolution=resolution,
            random_restarts=restarts,
            seed=17,
        )
        blocks = []
        constrained_scan(config, sink=blocks.append)
        rows = [row for block in blocks for row in block.tolist()]
        header = ("lam", "theta", "phi", "mu", "E", "Q")
        assert text == per_value_csv(header, rows)
        for lam, theta, phi, mu, e, q in rows:
            try:
                scalar_mu = mu_from_constraint(lam, theta, phi, 0.2, geom)
            except SingularLambdaError:
                scalar_mu = mu  # phi elimination; mu is unobservable
            assert abs(scalar_mu - mu) < 1e-12
            scalar = evaluate(ProbeParams(lam, scalar_mu, theta, phi), geom)
            assert abs(scalar.error_rate - e) < 1e-12
            assert abs(scalar.overlap - q) < 1e-12

        # Grid rows come first, in lexicographic order, exactly at the
        # nodes where the scalar route is feasible.
        grid = np.linspace(0.0, PI, resolution)
        nodes = []
        for lam in grid:
            if abs(math.sin(lam)) <= 1e-12:
                rows = _singular_lambda_points(lam, grid.tolist(), 0.2, geom)
                nodes += [row[:3] for row in rows]
                continue
            for theta in grid:
                for phi in grid:
                    try:
                        mu = mu_from_constraint(lam, theta, phi, 0.2, geom)
                        evaluate(ProbeParams(lam, mu, theta, phi), geom)
                    except QkdProbeError:
                        continue
                    nodes.append((lam, theta, phi))
        assert [row[:3] for row in cells[: len(nodes)]] == [
            [fmt_csv(float(v)) for v in node] for node in nodes
        ]
        assert len(cells) - len(nodes) <= restarts


class TestCsvRenderer:
    def test_matches_per_value_rendering(self):
        header = ("int", "bool", "str", "float", "np")
        rows = [
            (3, True, "x", 0.1, np.float64(1.0 / 3.0)),
            (-7, False, "%s,%d", math.inf, np.float64(-math.inf)),
            (0, True, "", math.nan, np.float64(math.nan)),
            (2**40, True, "-0", -0.0, np.float64(-0.0)),
            (10**20, False, "y", 1e-300, np.float64(1e300)),
            (1, 2, 3, 4, 5),  # a column may change type between rows
            [1e-300, 1e300, -1e300, 5e-324, 0.1],
            (1.0, "a", 2, np.float64(2.5e-7), False),
        ]
        assert _csv(header, rows) == per_value_csv(header, rows)
        assert _csv(header, iter(rows)) == per_value_csv(header, rows)
        assert _csv(header, []) == "int,bool,str,float,np\n"

    def test_float_blocks_match_per_value_rendering(self):
        # The scan's sink blocks: float64 arrays, one %-format per block.
        special = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300, 1e300,
                   -1e300, 5e-324, 1.0 / 3.0, -2.5e-7, 123456789012.5]
        rng = np.random.default_rng(8)
        values = np.concatenate([special, rng.standard_normal(60) * 1e3])
        blocks = [
            values.reshape(-1, 6),
            np.array([special[:6]]),  # one-row blocks
            np.array([special[6:]]),
            rng.uniform(0.0, math.pi, (257, 6)),
            np.empty((0, 6)),
        ]
        for block in blocks:
            assert _float_rows(block) == per_value_csv(
                SAMPLE_HEADER, block.tolist()
            ).partition("\n")[2]

    def test_repeated_float_columns_match_per_value_rendering(self):
        # Columns with few distinct values are formatted once per value,
        # told apart by their bits: -0.0 and 0.0, and NaNs with different
        # payloads, keep their own text.
        rng = np.random.default_rng(21)
        other_nan = np.array([0x7FF8000000000123], dtype=np.int64).view(
            np.float64
        )[0]
        pool = [-0.0, 0.0, math.nan, other_nan, math.inf, 5e-324, 0.1,
                np.nextafter(0.1, 1.0), 1.0 / 3.0]
        block = rng.choice(pool, size=(400, 6))
        block[:, 3] = rng.standard_normal(400)  # distinct: formatted per value
        block[:, 5] = block[0, 5]  # one value throughout
        blocks = [
            block,
            block[:3],  # too few rows to share any text
            np.repeat(block[:1], 2, axis=0),
            np.repeat(block[:2], 2, axis=0),  # half distinct: per value
            np.empty((0, 6)),
        ]
        for block in blocks:
            assert _float_rows(block) == per_value_csv(
                SAMPLE_HEADER, block.tolist()
            ).partition("\n")[2]


# pi/10's family maximum E, sin^2(pi/5), one ulp up.
PI10_TOP_UP = repr(
    math.nextafter(optimum.max_error_rate(SignalGeometry(PI / 10)), 1.0)
)


class TestCapacity:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "capacity",
            "--alpha",
            "pi/8",
            "--e-max",
            "0.1",
            "--steps",
            "3",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,E,Q_opt,I_opt,capacity"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == 0.0
        assert float(first[4]) == 0.5

    def test_single_step(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "capacity",
            "--alpha",
            "pi/8",
            "--e-min",
            "0.05",
            "--e-max",
            "0.05",
            "--steps",
            "1",
        )
        lines = out.strip().splitlines()
        assert len(lines) == 2

    def test_json_format(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "capacity",
            "--alpha",
            "pi/8",
            "--e-max",
            "0.1",
            "--steps",
            "2",
            "--format",
            "json",
        )
        payload = json.loads(out)
        assert len(payload["results"]) == 2

    @pytest.mark.parametrize(
        "e_range, nan_rows",
        [
            (("--e-max", "0.4", "--steps", "9"), [False] * 7 + [True] * 2),
            # One ulp past E_max lies within the rounding optimal accepts.
            (("--e-min", PI10_TOP_UP, "--e-max", PI10_TOP_UP, "--steps",
              "1"), [False]),
        ],
        ids=["past_top", "one_ulp_past_top"],
    )
    def test_csv_above_family_maximum(self, capsys, e_range, nan_rows):
        # The optimum exists up to sin^2(pi/5) ~ 0.345 at pi/10, but the
        # capacity is defined on all of [0, 1/2).
        argv = ("capacity", "--alpha", "pi/10", *e_range)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        points = json.loads(json_out)["results"]
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[4] for row in rows] == [
            fmt_csv(point["capacity"]) for point in points
        ]
        assert [row[2:4] == ["nan", "nan"] for row in rows] == nan_rows
        geom = SignalGeometry(PI / 10)
        for point, row, nan in zip(points, rows, nan_rows):
            if not nan:
                best = optimum.optimal_overlap(point["error_rate"], geom)
                assert row[2:4] == [
                    fmt_csv(best.overlap), fmt_csv(best.renyi_bits)
                ]


class TestFrontier:
    def test_fields_and_monotonicity(self, capsys):
        outputs = []
        for errors in ("0", "500"):
            _, out, _ = run_cli(
                capsys,
                "frontier",
                "--alpha",
                "pi/8",
                "--n",
                "10000",
                "--errors",
                errors,
                "--p-fail",
                "0.01",
            )
            outputs.append(json.loads(out))
        assert outputs[0]["results"]["t_f"] <= outputs[1]["results"]["t_f"]
        assert outputs[1]["results"]["s"] == math.ceil(
            outputs[1]["results"]["t_f"]
        )

    def test_csv_sweep_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "frontier",
            "--alpha",
            "pi/8",
            "--n",
            "1000,10000,100000",
            "--errors",
            "100,1000,10000",
            "--p-fail",
            "0.5",
            "--format",
            "csv",
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,e_T,p,xi,t_F,argmax_e,s"
        assert len(lines) == 4
        per_bit = [
            float(line.split(",")[4]) / float(line.split(",")[0])
            for line in lines[1:]
        ]
        assert per_bit[0] > per_bit[1] > per_bit[2]

    def test_above_family_maximum_uses_envelope(self, capsys):
        # e_T/n = 0.3 and xi exceed the family maximum 1/4 at pi/12.
        _, out, err = run_cli(
            capsys,
            "frontier",
            "--alpha",
            "pi/12",
            "--n",
            "20",
            "--errors",
            "6",
            "--p-fail",
            "0.01",
        )
        payload = json.loads(out)
        config = DistillationConfig(n=20, e_t=6, p_fail=0.01)
        frontier = defense_frontier(config, SignalGeometry(PI / 12))
        assert payload["warnings"] == [] and err == ""
        assert payload["results"]["t_f"] == frontier.t_f
        assert payload["results"]["argmax_e"] == frontier.argmax_e == 0
        assert payload["results"]["s"] == math.ceil(frontier.t_f)

    @pytest.mark.parametrize("p_fail", ["1e-18", "1e-300"])
    def test_small_failure_probability(self, capsys, p_fail):
        code, out, _ = run_cli(
            capsys, "frontier", "--alpha", "pi/8", "--n", "10000",
            "--errors", "500", "--p-fail", p_fail,
        )
        assert code == 0
        assert json.loads(out)["results"]["xi"] == distill.xi(
            10000, float(p_fail)
        )

    def test_underflowing_failure_probability_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "frontier", "--alpha", "pi/8", "--n", "10000",
            "--errors", "500", "--p-fail", "5e-324",
        )
        assert code == 2 and out == ""
        assert "underflows" in err

    def test_leakage_sum_overflow_exits_2(self, capsys):
        # Each leakage term is finite; their sum is not.
        code, out, err = run_cli(capsys, *LEAKAGE_OVERFLOW)
        assert code == 2 and out == ""
        assert err == "error: q_leak + nu + g must be finite\n"

    def test_control_character_in_count_is_valid_json(self, capsys):
        # int() strips the tab; the echo keeps --n as given.
        code, out, _ = run_cli(
            capsys, "frontier", "--alpha", "pi/8", "--n", "10000\t",
            "--errors", "500", "--p-fail", "0.01",
        )
        assert code == 0
        assert json.loads(out)["inputs"]["n"] == "10000\t"

    def test_one_frontier_per_row(self, capsys, monkeypatch):
        calls = []

        def counted(config, geom):
            calls.append(config)
            return defense_frontier(config, geom)

        monkeypatch.setattr(distill, "defense_frontier", counted)
        code, out, _ = run_cli(
            capsys,
            "frontier",
            "--alpha",
            "pi/8",
            "--n",
            "1000,10000,100000",
            "--errors",
            "100,1000,10000",
            "--p-fail",
            "0.5",
            "--q-leak",
            "2.5",
            "--format",
            "csv",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert code == 0 and len(calls) == len(rows) == 3
        monkeypatch.undo()
        geom = SignalGeometry(PI / 8)
        for config, row in zip(calls, rows):
            assert int(row[6]) == compression_level(config, geom)


# The edges of the accepted inputs: the extreme alphas, pi/8 and its
# neighbours, and 0.785398, where cos^2(2 alpha) ~ 1e-13.
EDGE_ALPHAS = [
    SMALLEST_ALPHA,
    1e-150,
    math.nextafter(PI / 8, 0.0),
    PI / 8,
    math.nextafter(PI / 8, 1.0),
    0.785398,
    math.nextafter(PI / 4, 0.0),
]
LEAKAGE_OVERFLOW = [
    "frontier", "--alpha", "pi/8", "--n", "10", "--errors", "1",
    "--p-fail", "0.1", "--q-leak", "1e308", "--nu", "1e308",
]


def edge_calls():
    """argv of every call in the CLI edge table."""
    calls = [LEAKAGE_OVERFLOW, ["capacity", "--alpha", "pi/8", "--e-max",
                                "inf", "--steps", "3"]]
    for alpha in EDGE_ALPHAS:
        geom = SignalGeometry(alpha)
        top = optimum.max_error_rate(geom)
        rates = [0.0, top, math.nextafter(top, 0.0),
                 math.nextafter(top, 1.0), top + 1e-13,
                 optimum.peak_error_rate(geom), 0.49,
                 math.nextafter(0.5, 0.0)]
        at = ["--alpha", repr(alpha)]
        for rate in rates:
            given = [*at, "--error-rate", repr(rate)]
            attack = [*given, "--p-fail", "0.01"]
            calls += [
                ["optimal", *given],
                ["possibilities", *given],
                ["verify", *given, "--resolution", "9", "--restarts", "3"],
                ["simulate", "--m", "1000", *attack, "--family", "set_e"],
                ["simulate", "--m", str(2**63 - 1), *attack, "--four-state",
                 "--family", "set_h"],
            ]
        for n in (1, 2**53, 2**63 - 1):
            for e_t in (0, n):
                for p_fail in (1e-323, math.nextafter(1.0, 0.0), 0.5):
                    calls.append(["frontier", *at, "--n", str(n), "--errors",
                                  str(e_t), "--p-fail", repr(p_fail)])
        for e_max in ("0", "1e-300", "0.4999999"):
            for fmt in ("csv", "json"):
                calls.append(["capacity", *at, "--e-max", e_max, "--steps",
                              "5", "--format", fmt])
    return calls


class TestEdgeTable:
    """Each subcommand at the edges of its accepted inputs answers or
    exits 2 with an error line: no traceback, and its JSON parses."""

    @pytest.mark.parametrize("argv", edge_calls(), ids=" ".join)
    def test_answers_or_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        if code == 2:
            assert out == "" and err.startswith("error: ")
            return
        assert code == 0 and err == ""
        if out.startswith("{"):
            results = json.loads(out)["results"]
            # Every overlap is at least -1, also Q_min above E_max.
            if argv[0] == "optimal":
                assert results["overlap"] >= -1.0
            if argv[0] == "verify":
                assert results["analytic_q"] >= -1.0
        else:  # a CSV table: every line has the header's columns
            assert len({line.count(",") for line in out.splitlines()}) == 1


class TestSimulateCommand:
    def test_family_attack_deterministic(self, capsys):
        argv = (
            "simulate",
            "--m",
            "20000",
            "--alpha",
            "pi/8",
            "--family",
            "set_e",
            "--error-rate",
            "0.05",
            "--p-fail",
            "0.01",
            "--seed",
            "4",
        )
        code, out_first, _ = run_cli(capsys, *argv)
        _, out_second, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out_first == out_second
        payload = json.loads(out_first)
        assert payload["results"]["n"] > 9000
        assert payload["results"]["final_key_len"] > 0

    def test_explicit_angles(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--m",
            "10000",
            "--alpha",
            "pi/8",
            "--lambda",
            "0",
            "--mu",
            "0",
            "--theta",
            "0",
            "--phi",
            "pi/4",
            "--p-fail",
            "0.5",
            "--seed",
            "1",
        )
        payload = json.loads(out)
        assert payload["results"]["e_t"] == 0
        angles = {
            name: value
            for name, value in payload["inputs"].items()
            if name in ("lam", "mu", "theta", "phi")
        }
        assert angles == {
            "lam": {"radians": 0.0, "over_pi": 0.0},
            "mu": {"radians": 0.0, "over_pi": 0.0},
            "theta": {"radians": 0.0, "over_pi": 0.0},
            "phi": {"radians": PI / 4, "over_pi": 0.25},
        }
        assert list(angles) == ["lam", "mu", "theta", "phi"]

    def test_attack_at_half_error_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--m",
            "100000000",
            "--alpha",
            "pi/12",
            "--lambda",
            "0",
            "--mu",
            "0",
            "--theta",
            "pi/2",
            "--phi",
            "3pi/4",
            "--p-fail",
            "0.01",
        )
        assert code == 2 and out == ""
        assert "the attack induces error rate E = 0.75" in err
        assert "no key can be distilled at E >= 1/2" in err

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--m", "1000", "--alpha", "pi/8",
            "--family", "set_e", "--error-rate", "0.05", "--p-fail", "0.01",
            "--seed", "-1",
        )
        assert code == 2 and out == ""
        assert "seed must be non-negative" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_m_past_int64_exits_2(self, capsys, command):
        # Counts are drawn as 64-bit integers; one past them used to end
        # in an OverflowError traceback and exit 1.
        code, out, err = run_cli(
            capsys, command, "--m", str(2**63), "--alpha", "pi/8",
            "--family", "set_e", "--error-rate", "0.05", "--p-fail", "0.01",
            *(["--variable", "error-rate", "--values", "0.05"]
              if command == "sweep" else []),
        )
        assert code == 2 and out == ""
        assert "m must be at most 2**63 - 1" in err

    def test_incomplete_attack_arguments(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--m",
            "1000",
            "--alpha",
            "pi/8",
            "--p-fail",
            "0.5",
        )
        assert code == 2
        assert "family" in err

    @pytest.mark.parametrize(
        "mix",
        [
            ["--family", "set_e", "--error-rate", "0.05", "--lambda", "0"],
            ["--error-rate", "0.05", "--lambda", "0", "--mu", "0",
             "--theta", "0", "--phi", "pi/4"],
        ],
        ids=["family-and-lambda", "error-rate-and-angles"],
    )
    def test_mixed_attack_arguments_exit_2(self, capsys, mix):
        # One form would run and the other be echoed as if it had.
        code, out, err = run_cli(
            capsys, "simulate", "--m", "1000", "--alpha", "pi/8",
            "--p-fail", "0.5", *mix,
        )
        assert code == 2 and out == ""
        assert (
            "specify either --family with --error-rate, or all of "
            "--lambda --mu --theta --phi"
        ) in err

    @pytest.mark.parametrize("q_model", ["zero", "binary-entropy"])
    @pytest.mark.parametrize("fraction", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_q_fraction_exits_2(
        self, capsys, q_model, fraction
    ):
        # The fraction is echoed under either model; nan and inf are not
        # JSON.
        code, out, err = run_cli(
            capsys, "simulate", "--m", "1000", "--alpha", "pi/8",
            "--family", "set_e", "--error-rate", "0.05", "--p-fail", "0.01",
            "--q-model", q_model, "--q-fraction", fraction,
        )
        assert code == 2 and out == ""
        assert "--q-fraction must be finite and non-negative" in err


_FAMILIES = [tag.value for tag in FamilyTag]


@st.composite
def simulate_calls(draw):
    """argv of a family-attack simulate call anywhere in its accepted
    domain: alpha at the edges or anywhere in (0, pi/4), E at the family
    edges or anywhere in [0, 1/2), m up to 2**63 - 1, every family, both
    samplers and both leakage models."""
    alpha = draw(st.sampled_from(EDGE_ALPHAS) | st.floats(
        SMALLEST_ALPHA, math.nextafter(PI / 4, 0.0)
    ))
    geom = SignalGeometry(alpha)
    rate = draw(st.sampled_from([
        0.0, optimum.max_error_rate(geom), optimum.peak_error_rate(geom),
        0.49,
    ]) | st.floats(0.0, 0.5, exclude_max=True))
    argv = [
        "simulate",
        "--m", str(draw(st.integers(1, 2**63 - 1))),
        "--alpha", repr(alpha),
        "--p-fail", repr(draw(st.floats(0.0, 1.0, exclude_min=True,
                                        exclude_max=True))),
        "--seed", str(draw(st.integers(0, 2**64 - 1))),
        "--family", draw(st.sampled_from(_FAMILIES)),
        "--error-rate", repr(rate),
    ]
    if draw(st.booleans()):
        argv.append("--four-state")
    if draw(st.booleans()):
        argv += ["--q-model", "binary-entropy", "--q-fraction",
                 repr(draw(st.floats(0.0, 1.0) | st.floats(0.0, 1e308)))]
    return argv


class TestSimulateDomain:
    @settings(max_examples=300, deadline=None)
    @given(simulate_calls())
    def test_answers_or_exits_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            return
        assert code == 0 and err.getvalue() == ""
        results = json.loads(out.getvalue())["results"]
        m = int(argv[argv.index("--m") + 1])
        assert 0 <= results["e_t"] <= results["n"] <= m
        assert results["final_key_len"] == max(
            0, results["n"] - results["e_t"] - results["s"]
        )
        assert 0.0 <= results["empirical_error"] <= 1.0


class TestSweepCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--m",
            "20000",
            "--alpha",
            "pi/8",
            "--family",
            "set_e",
            "--error-rate",
            "0.05",
            "--p-fail",
            "0.01",
            "--seed",
            "0",
            "--variable",
            "error-rate",
            "--values",
            "0.02,0.05,0.08",
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0].startswith("variable,value,n,e_T,s,")
        assert len(lines) == 4

    def test_empty_value_list_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--m", "1000", "--alpha", "pi/8",
            "--family", "set_e", "--error-rate", "0.05", "--p-fail", "0.01",
            "--variable", "error-rate", "--values", ",",
        )
        assert code == 2 and out == ""
        assert "empty sweep values" in err


class TestPossibilitiesCommand:
    def test_classification(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "possibilities",
            "--alpha",
            "pi/9",
            "--error-rate",
            "0.1",
        )
        payload = json.loads(out)
        reports = {entry["label"]: entry for entry in payload["results"]}
        assert len(reports) == 12
        assert reports["A"]["achieved_q"] in (1.0, -1.0)
        assert reports["C"]["status"] == "excluded_analytically"
        assert reports["D"]["status"] == "infeasible_numerically"
        assert reports["J"]["status"] == "infeasible_numerically"
        assert reports["B"]["status"] == "yields_optimum"


class TestOutputFile:
    def test_atomic_write_to_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys,
            "optimal",
            "--alpha",
            "pi/8",
            "--error-rate",
            "0.1",
            "--out",
            "optimal.json",
        )
        assert code == 0
        assert out == ""
        payload = json.loads((tmp_path / "optimal.json").read_text())
        assert payload["command"] == "optimal"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_new_file_mode_is_a_redirects(
        self, capsys, tmp_path, monkeypatch, umask
    ):
        # A new --out or --samples-out file gets 0666 less the umask, as
        # a file a shell redirect creates, not mkstemp's 0600.
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        previous = os.umask(umask)
        try:
            (tmp_path / "redirect").write_text("")
            code, _, _ = run_cli(
                capsys, "verify", "--alpha", "pi/8", "--error-rate", "0.2",
                "--resolution", "5", "--out", "verify.json",
                "--samples-out", "samples.csv",
            )
        finally:
            os.umask(previous)
        assert code == 0
        modes = {
            path.name: path.stat().st_mode & 0o777
            for path in tmp_path.iterdir()
        }
        assert modes == dict.fromkeys(
            ["redirect", "verify.json", "samples.csv"], 0o666 & ~umask
        )

    def test_overwritten_file_keeps_its_mode(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        target = tmp_path / "optimal.json"
        target.write_text("old")
        target.chmod(0o640)
        code, _, _ = run_cli(
            capsys, "optimal", "--alpha", "pi/8", "--error-rate", "0.1",
            "--out", "optimal.json",
        )
        assert code == 0
        assert json.loads(target.read_text())["command"] == "optimal"
        assert target.stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimal", "--alpha", "pi/8", "--error-rate", "0.2", "--out"],
            ["capacity", "--alpha", "pi/8", "--e-max", "0.1", "--steps",
             "3", "--out"],
            ["verify", "--alpha", "pi/8", "--error-rate", "0.2",
             "--resolution", "5", "--samples-out"],
        ],
        ids=["optimal", "capacity", "verify"],
    )
    def test_directory_target_is_a_usage_error(self, capsys, tmp_path, argv):
        # Exit 2 with an error line, not a traceback and exit 1, which
        # verify uses for a property violation.
        target = tmp_path / "dir"
        target.mkdir()
        (target / "kept").write_text("x")
        code, out, err = run_cli(capsys, *argv, str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: Is a directory\n"
        assert [p.name for p in target.iterdir()] == ["kept"]
        assert (target / "kept").read_text() == "x"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]

    @pytest.mark.parametrize(
        "options",
        [["--out"], ["--samples-out"],
         ["--out", "verify.json", "--samples-out"]],
        ids=["out", "samples-out", "both"],
    )
    def test_directory_target_refused_before_the_scan(
        self, capsys, tmp_path, monkeypatch, options
    ):
        # The scan at resolution 200 takes seconds; a target that cannot
        # be written is refused first, and named, also when --out is
        # fine.
        from qkdprobe import search

        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(search, "constrained_scan", no_scan)
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        code, out, err = run_cli(
            capsys, "verify", "--alpha", "pi/8", "--error-rate", "0.2",
            "--resolution", "200", *options, str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, stage):
        # An OSError comes out as a QkdProbeError naming the target.
        target = tmp_path / "samples.csv"
        text, error = "lam\n", QkdProbeError
        message = f"cannot write {target}: Permission denied"
        if stage == "write":
            # A lone surrogate no encoding can write.
            text, error, message = text + "\ud800", UnicodeEncodeError, None
        else:
            def refuse(src, dst):
                raise PermissionError(errno.EACCES, "Permission denied")

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(error) as info:
            with _output(str(target)) as handle:
                handle.write(text)
        assert message in (None, str(info.value))
        assert list(tmp_path.iterdir()) == []


# (alpha, E, seed) of the README verify example and of the nine CLI
# verify calls in one pass of the benchmark's verify_optimum workload
# (workload seed 5), all at resolution 40 with 50 restarts.
SAMPLE_RUNS = [
    ("pi/8", 0.2, 17),
    (0.3141592653589793, 0.07041517925293497, 1456821420),
    (0.3141592653589793, 0.16989789978570669, 283735513),
    (0.3141592653589793, 0.27402759424960593, 1862403660),
    (0.39269908169872414, 0.09793377761125538, 1139662941),
    (0.39269908169872414, 0.24659562145501376, 734047390),
    (0.39269908169872414, 0.3924931084817265, 489822076),
    (0.5235987755982988, 0.0501863377829239, 795892058),
    (0.5235987755982988, 0.12401342957062682, 490242075),
    (0.5235987755982988, 0.19803768541798827, 2125400922),
]
SAMPLE_HEADER = ("lam", "theta", "phi", "mu", "E", "Q")


def verify_samples_argv(alpha, error, seed, resolution=40):
    return [
        "verify", "--alpha", str(alpha), "--error-rate", repr(error),
        "--resolution", str(resolution), "--restarts", "50",
        "--seed", str(seed), "--samples-out", "samples.csv",
    ]


class TestStreamedSamples:
    """verify writes each sink block to the output file as it arrives."""

    @pytest.mark.parametrize("alpha, error, seed", SAMPLE_RUNS)
    def test_bytes_match_the_joined_render(
        self, capsys, tmp_path, monkeypatch, alpha, error, seed
    ):
        # The joined render of every sink block is what verify wrote
        # before it streamed.
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, *verify_samples_argv(alpha, error, seed))
        assert code == 0
        blocks = []
        constrained_scan(
            SearchConfig(
                SignalGeometry(parse_angle(str(alpha))), error, 40, 50, seed
            ),
            sink=blocks.append,
        )
        assert len(blocks) > 1
        expected = "lam,theta,phi,mu,E,Q\n" + "".join(map(_float_rows, blocks))
        assert (tmp_path / "samples.csv").read_bytes() == expected.encode()
        rows = [row for block in blocks for row in block.tolist()]
        assert expected == per_value_csv(SAMPLE_HEADER, rows)

    def test_memory_stays_bounded_by_a_block(
        self, capsys, tmp_path, monkeypatch
    ):
        # Joining the whole CSV peaked at ~19 MiB at resolution 60; one
        # rendered block takes well under 4 MiB.
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        argv = verify_samples_argv("pi/8", 0.2, 3, resolution=60)
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (tmp_path / "samples.csv").stat().st_size > 6 * 2**20
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_mid_stream_leaves_no_file(
        self, capsys, tmp_path, monkeypatch, existing
    ):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        if existing:
            (tmp_path / "samples.csv").write_text("old")
        rendered = []
        render = cli_module._float_rows

        def fail_on_third(block):
            if len(rendered) == 2:
                raise RuntimeError("render failed")
            rendered.append(block)
            return render(block)

        monkeypatch.setattr(cli_module, "_float_rows", fail_on_third)
        with pytest.raises(RuntimeError, match="render failed"):
            main(verify_samples_argv("pi/8", 0.2, 3, resolution=9))
        assert len(rendered) == 2
        left = {path.name: path.read_text() for path in tmp_path.iterdir()}
        assert left == ({"samples.csv": "old"} if existing else {})


def readme_examples():
    """argv of every ``qkdprobe`` example in the README."""
    text = README.read_text().replace("\\\n", " ")
    return [
        shlex.split(line)[1:]
        for line in text.splitlines()
        if line.startswith("qkdprobe ")
    ]


class TestReplay:
    def test_readme_examples_replay_byte_for_byte(
        self, capsys, tmp_path, monkeypatch
    ):
        examples = readme_examples()
        assert len(examples) == 9
        runs = []
        for run in ("first", "second"):
            out_dir = tmp_path / run
            monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
            stdout = []
            for i, argv in enumerate(examples):
                assert main(argv) == 0
                assert main(argv + ["--out", f"example{i}.out"]) == 0
                stdout.append(capsys.readouterr().out)
            files = {
                path.name: path.read_bytes() for path in out_dir.iterdir()
            }
            runs.append((stdout, files))
        assert runs[0] == runs[1]
        stdout, files = runs[0]
        assert sorted(files) == sorted(
            [f"example{i}.out" for i in range(9)] + ["samples.csv"]
        )
        for i, text in enumerate(stdout):
            assert text and files[f"example{i}.out"] == text.encode()


# JSON argv beside the README's, each with the input names it echoes
# today; some give their options out of parser order.
ECHO_RUNS = [
    (["evaluate", "--phi", "0.75pi", "--alpha", "0.3927", "--lambda", "0.94",
      "--mu", "0.49", "--theta", "0.31"],
     ["alpha", "lam", "mu", "theta", "phi"]),
    (["optimal", "--error-rate", "0.15", "--alpha", "pi/10"],
     ["alpha", "error_rate"]),
    (["verify", "--seed", "2", "--tolerance", "1e-4", "--alpha", "pi/8",
      "--error-rate", "0.2", "--resolution", "9", "--restarts", "3",
      "--samples-out", "samples.csv"],
     ["alpha", "error_rate", "resolution", "restarts", "seed", "tolerance"]),
    (["capacity", "--format", "json", "--alpha", "pi/8", "--e-min", "0.02",
      "--e-max", "0.1", "--steps", "4"],
     ["alpha", "e_min", "e_max", "steps"]),
    (["frontier", "--g", "3", "--alpha", "pi/8", "--n", "10000\t",
      "--errors", "500", "--p-fail", "0.01", "--q-leak", "100", "--nu", "5"],
     ["alpha", "n", "errors", "p_fail", "q_leak", "nu", "g"]),
    (["simulate", "--seed", "2", "--family", "set_h", "--m", "20000",
      "--alpha", "pi/8", "--error-rate", "0.05", "--p-fail", "0.01",
      "--four-state", "--q-model", "binary-entropy", "--q-fraction", "1.2"],
     ["m", "alpha", "p_fail", "seed", "q_model", "q_fraction", "four_state",
      "family", "error_rate"]),
    (["simulate", "--phi", "0.75pi", "--m", "20000", "--alpha", "pi/8",
      "--lambda", "0.3pi", "--mu", "0.156816pi", "--theta", "0.1pi",
      "--p-fail", "0.01", "--seed", "3"],
     ["m", "alpha", "p_fail", "seed", "q_model", "q_fraction", "four_state",
      "lam", "mu", "theta", "phi"]),
    (["possibilities", "--error-rate", "0.1", "--alpha", "pi/6"],
     ["alpha", "error_rate"]),
]


def option_flags(command):
    """Each parsed name of a subcommand, mapped to its option string."""
    parser = cli_module.build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        action.dest: action.option_strings[-1]
        for action in subparsers.choices[command]._actions
    }


def argv_from_echo(payload, argv):
    """The argv the envelope's echoed inputs give, with argv's --format."""
    flags = option_flags(payload["command"])
    rebuilt = [payload["command"]]
    for name, value in payload["inputs"].items():
        if isinstance(value, bool):
            rebuilt += [flags[name]] if value else []
        elif isinstance(value, dict):
            rebuilt += [flags[name], repr(value["radians"])]
        else:
            text = value if isinstance(value, str) else repr(value)
            rebuilt += [flags[name], text]
    if "--format" in argv:
        at = argv.index("--format")
        rebuilt += argv[at : at + 2]
    return rebuilt


class TestEcho:
    @pytest.mark.parametrize(
        "argv, names", ECHO_RUNS, ids=[argv[0] for argv, _ in ECHO_RUNS]
    )
    def test_input_names(self, capsys, tmp_path, monkeypatch, argv, names):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert list(json.loads(out)["inputs"]) == names

    def test_replay_from_echo(self, capsys, tmp_path, monkeypatch):
        # Each JSON output, replayed from its echoed inputs alone.
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
        replayed = 0
        for argv in readme_examples() + [argv for argv, _ in ECHO_RUNS]:
            assert main(argv) == 0
            out = capsys.readouterr().out
            if not out.startswith("{"):
                continue
            rebuilt = argv_from_echo(json.loads(out), argv)
            assert main(rebuilt) == 0
            assert capsys.readouterr().out == out, rebuilt
            replayed += 1
        assert replayed == 14


def readme_outputs(out_dir):
    """stdout of every README example, run in-process under ``out_dir``."""
    outputs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("OUTPUT_DIR", str(out_dir))
        for argv in readme_examples():
            buffer = io.StringIO()
            patch.setattr(sys, "stdout", buffer)
            assert main(argv) == 0
            outputs.append(buffer.getvalue())
    return outputs


def golden_name(index, argv, text):
    kind = "json" if text.startswith("{") else "csv"
    return f"{index}-{argv[0]}.{kind}"


def parse_output(name, text):
    """JSON as parsed; CSV as rows of ints, floats and strings."""
    if name.endswith(".json"):
        return json.loads(text)

    def cell(value):
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
        return value

    rows = csv.reader(io.StringIO(text))
    return [[cell(value) for value in row] for row in rows]


def assert_close_structure(got, want, where=""):
    """Equal structure, strings and integers; floats within 1e-12 relative."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=1e-12), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_close_structure(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close_structure(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


class TestReadmeGolden:
    def test_readme_examples_match_golden(self, tmp_path):
        examples = readme_examples()
        assert json.loads((GOLDEN / "readme_argv.json").read_text()) == examples
        outputs = readme_outputs(tmp_path)
        names = [
            golden_name(i, argv, text)
            for i, (argv, text) in enumerate(zip(examples, outputs))
        ]
        assert sorted(p.name for p in GOLDEN.glob("[0-9]*")) == sorted(names)
        for name, text in zip(names, outputs):
            want = (GOLDEN / name).read_text()
            assert_close_structure(
                parse_output(name, text), parse_output(name, want), name
            )


STARTUP_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout

import qkdprobe
from qkdprobe import cli, search

statistics_on_import = "statistics" in sys.modules
examples, start = json.loads(sys.argv[1]), json.loads(sys.argv[2])
config = search.SearchConfig(
    qkdprobe.SignalGeometry(start[0]), start[1], random_restarts=2, seed=3
)
q, params = search.refine(qkdprobe.ProbeParams(*start[2:]), config)
penalty = search.penalty_scan(config, 1e5)
numpy_after_simplex = "numpy" in sys.modules
for argv in examples:
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps({
    "statistics_on_import": statistics_on_import,
    "numpy_after_simplex": numpy_after_simplex,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "refine": [q, params.lam, params.mu, params.theta, params.phi],
    "penalty": [penalty.best_q, penalty.samples_evaluated],
}))
"""

DISTILL_LIBRARY_SCRIPT = """
import json, math, sys

import qkdprobe.search
from qkdprobe import distill, simulate
from qkdprobe.optimum import FamilyTag
from qkdprobe.probe import SignalGeometry

geom = SignalGeometry(math.pi / 8)
config = distill.DistillationConfig(n=10**6, e_t=5 * 10**4, p_fail=0.01)
distill.compression_level(config, geom)
distill.capacity_curve(geom, 0.0, 0.1, 5)
for four_state in (False, True):
    sim = simulate.SimulationConfig(
        m=10**6, geom=geom,
        attack=simulate.FamilyAttack(FamilyTag.SET_E, 0.05),
        p_fail=0.01, q_model=simulate.QLeakModel.zero(), seed=4,
        four_state_sampler=four_state,
    )
    simulate.run(sim)
simulate.sweep(sim, "error_rate", [0.01, 0.05])
pa = distill.pa_empirical_check(8, 3, [2.0**-8] * 256, 20, 5)
print(json.dumps({"pa_holds": pa.holds, "numpy": "numpy" in sys.modules}))
"""


# The qkdprobe modules one CLI call loads, by subcommand.
_CLI_MODULES = {"qkdprobe", "qkdprobe.cli", "qkdprobe.errors", "qkdprobe.probe"}
_OPTIMUM_MODULES = _CLI_MODULES | {"qkdprobe.optimum"}
_DISTILL_MODULES = _OPTIMUM_MODULES | {"qkdprobe.distill"}
_SEEDED_MODULES = {"qkdprobe.simulate", "qkdprobe.stream"}
LOADED_MODULES = {
    "evaluate": _CLI_MODULES,
    "--version": _CLI_MODULES,
    "--help": _CLI_MODULES,
    "optimal": _OPTIMUM_MODULES,
    "possibilities": _OPTIMUM_MODULES | {"qkdprobe.roots"},
    "verify": _OPTIMUM_MODULES | {"qkdprobe.search", "qkdprobe.stream"},
    "capacity": _DISTILL_MODULES,
    "frontier": _DISTILL_MODULES,
    "simulate": _DISTILL_MODULES | _SEEDED_MODULES,
    "sweep": _DISTILL_MODULES | _SEEDED_MODULES,
}
# The call that works on arrays; the rest, the seeded simulator and the
# root finder among them, run on floats and integers and must not import
# numpy.  Even verify draws its restarts from the package's own stream,
# so no call loads numpy.random.
NUMPY_CALLS = {"verify"}

LOADED_SCRIPT = """
import json, sys
from qkdprobe.cli import main

try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "qkdprobe")
print(json.dumps({"code": code, "loaded": loaded,
                  "numpy": "numpy" in sys.modules,
                  "numpy.random": "numpy.random" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "inspect": "inspect" in sys.modules}),
      file=sys.stderr)
"""


class TestStartup:
    @pytest.mark.parametrize(
        "argv",
        json.loads((GOLDEN / "readme_argv.json").read_text())
        + [["--version"], ["--help"]],
        ids=lambda argv: argv[0],
    )
    def test_call_loads_only_its_modules(self, tmp_path, argv):
        # A fresh interpreter per call, as the console script runs: the
        # package and cli import no module a subcommand does not run.
        child = fresh_interpreter(
            LOADED_SCRIPT, *argv, cwd=tmp_path,
            env={"OUTPUT_DIR": str(tmp_path)},
        )
        report = json.loads(child.stderr.splitlines()[-1])
        assert report["code"] == 0, child.stderr
        assert set(report["loaded"]) == LOADED_MODULES[argv[0]]
        assert report["numpy"] == (argv[0] in NUMPY_CALLS)
        assert report["numpy.random"] is False
        # The value types are built without dataclasses, which imports
        # inspect; numpy imports inspect itself, so only the numpy-free
        # calls can go without it.
        assert report["dataclasses"] is False
        if argv[0] not in NUMPY_CALLS:
            assert report["inspect"] is False

    def test_distillation_library_loads_no_numpy(self, tmp_path):
        # The key-distillation chain, the privacy-amplification check
        # included, runs on floats even with the search module imported.
        child = fresh_interpreter(DISTILL_LIBRARY_SCRIPT, cwd=tmp_path)
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        assert report == {"pa_holds": True, "numpy": False}

    def test_family_choices_are_the_family_tags(self):
        # The literal choices cli parses --family with, pinned to the enum.
        assert cli_module._FAMILY_TAGS == tuple(t.value for t in FamilyTag)
        parser = cli_module.build_parser()
        simulate_argv = ["simulate", "--m", "8", "--alpha", "pi/8",
                         "--p-fail", "0.01", "--family"]
        for tag in FamilyTag:
            assert parser.parse_args(simulate_argv + [tag.value]).family == (
                tag.value
            )
        with pytest.raises(SystemExit):
            parser.parse_args(simulate_argv + ["set_x"])

    def test_readme_examples_load_no_scipy(self, tmp_path):
        # A fresh interpreter: pytest itself has loaded scipy here.  Not
        # one scipy module loads, not even for refine and penalty_scan,
        # and those two, run first, load no numpy either.
        examples = (GOLDEN / "readme_argv.json").read_text()
        geom = SignalGeometry(PI / 8)
        lam, theta, phi = 0.4 * PI, 0.2 * PI, 0.6 * PI
        mu = mu_from_constraint(lam, theta, phi, 0.2, geom)
        start = [PI / 8, 0.2, lam, mu, theta, phi]
        child = fresh_interpreter(
            STARTUP_SCRIPT, examples, json.dumps(start), cwd=tmp_path,
            env={"OUTPUT_DIR": str(tmp_path)},
        )
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        assert report["statistics_on_import"] is False
        assert report["numpy_after_simplex"] is False
        assert report["scipy"] == []
        config = SearchConfig(geom, 0.2, random_restarts=2, seed=3)
        q, params = refine(ProbeParams(*start[2:]), config)
        assert report["refine"] == [
            q, params.lam, params.mu, params.theta, params.phi
        ]
        penalty = penalty_scan(config, 1e5)
        assert report["penalty"] == [penalty.best_q, penalty.samples_evaluated]


if __name__ == "__main__":
    # Rewrite the golden files from the current code:
    #     PYTHONPATH=src python tests/test_cli.py
    import tempfile

    examples = readme_examples()
    with tempfile.TemporaryDirectory() as out_dir:
        outputs = readme_outputs(out_dir)
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("[0-9]*"):
        old.unlink()
    argv_file = GOLDEN / "readme_argv.json"
    argv_file.write_text(json.dumps(examples, indent=1) + "\n")
    for i, (argv, text) in enumerate(zip(examples, outputs)):
        (GOLDEN / golden_name(i, argv, text)).write_text(text)
