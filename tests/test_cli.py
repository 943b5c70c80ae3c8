import csv
import io
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from qkdprobe import (
    DistillationConfig,
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
)
from qkdprobe.cli import _fmt_csv, main, parse_angle, render_json
from qkdprobe.errors import QkdProbeError, SingularLambdaError
from qkdprobe.search import _singular_lambda_points

PI = math.pi
README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


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
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("two pies")


class TestJsonRendering:
    def test_seventeen_significant_digits(self):
        assert render_json(0.1) == "0.10000000000000001\n"
        assert render_json({"x": 1.0}) == '{\n  "x": 1\n}\n'

    def test_round_trips_through_json(self):
        payload = {"a": [0.1, 2, True, None], "b": {"c": "text"}}
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

    def test_violation_exit_code(self, capsys, monkeypatch):
        import qkdprobe.cli as cli_module

        fake = SearchReport(
            best_q=0.4,
            best_params=ProbeParams(1.0, 1.0, 1.0, 1.0),
            analytic_q=0.5,
            violations=3,
            samples_evaluated=10,
        )
        monkeypatch.setattr(
            cli_module.search, "constrained_scan", lambda config: fake
        )
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
        lines = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        cells = [line.split(",") for line in lines]
        assert len(cells) == results["samples_evaluated"]
        assert min(cells, key=lambda row: float(row[5]))[5] == _fmt_csv(
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
        assert lines == [",".join(map(_fmt_csv, row)) for row in rows]
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
                points = _singular_lambda_points(lam, grid, 0.2, geom)
                nodes += [(p.lam, p.theta, p.phi) for _, p in points]
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
            [_fmt_csv(float(v)) for v in node] for node in nodes
        ]
        assert len(cells) - len(nodes) <= restarts


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
