"""qkdprobe benchmark: CLI start-up, optimum verification, key distillation.

Run from the repository root:

    python3 perfbench/run.py --workload cli_readme --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): ``cli_readme``, ``verify_optimum``,
``distill_chain``, or ``all`` to run the three in turn.  The benchmark
drives the program from outside, one process and one operation at a time
(closed loop, one client), repeating passes of the workload until
``--seconds`` have elapsed.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  ``--size tiny`` shrinks every workload for a smoke
test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the provenance, ``failed_frac``, sample counts and the failure
messages.  Traces and program outputs go to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import layers  # noqa: E402
import readme  # noqa: E402

WORKLOADS = ("cli_readme", "verify_optimum", "distill_chain")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
# Longest any program process may run before it is killed and failed.
PROCESS_TIMEOUT_S = 150.0
# No pass starts unless the previous pass's length still fits before this.
RUN_LIMIT_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Setup(Exception):
    """The checkout cannot run the benchmark."""


def spawn(cmd, env, cwd, out_path, err_path):
    """Run one process to completion; return wall, exit code, max RSS."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "wall": end - start, "code": proc.returncode,
            "rss_kib": usage.ru_maxrss}


class Bench:
    def __init__(self, args, root: str) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.tiny = args.size == "tiny"
        self.src = os.path.join(root, "src")
        self.run_dir = os.path.join(root, ".perfbench_runs", self.workload)
        self.reference = checks.load_reference()
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=self.src, OUTPUT_DIR=self.run_dir)
        self.env.update({var: str(self.threads) for var in THREAD_VARS})

    # -- processes --------------------------------------------------------

    def _python(self, traced: bool) -> list[str]:
        return [sys.executable] + (["-X", "importtime"] if traced else [])

    def warm_up(self) -> None:
        """Compile caches and check that qkdprobe is imported from src/."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        out = os.path.join(self.run_dir, "warmup.out")
        code = (f"import sys; sys.path.insert(0, {BENCH_DIR!r}); "
                "import library, tracing, qkdprobe; print(qkdprobe.__file__)")
        proc = spawn([sys.executable, "-c", code], self.env, self.run_dir,
                     out, out + ".err")
        with open(out) as handle:
            where = handle.read().strip()
        if proc["code"] != 0 or not where.startswith(self.src + os.sep):
            raise Setup(f"qkdprobe does not import from {self.src}")

    def _process(self, cmd, tag, traced):
        out = os.path.join(self.run_dir, f"{tag}.out")
        proc = spawn(cmd, self.env, self.run_dir, out, out + ".err")
        with open(out, "rb") as handle:
            proc["stdout"] = handle.read()
        if traced:
            with open(out + ".err") as handle:
                proc["imports"] = layers.parse_importtime(handle.read())
        return proc

    def _read_trace(self, path):
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- passes -------------------------------------------------------------

    def cli_pass(self, traced: bool) -> dict:
        record = {"procs": [], "attempted": 0, "failed": 0, "failures": [],
                  "bytes_out": 0, "dumps": []}
        stamp = os.path.join(self.run_dir, "ready")
        for name, argv in readme.commands(self.seed, self.tiny):
            trace = os.path.join(self.run_dir, f"trace-{name}.json")
            for path in (stamp, trace):
                if os.path.exists(path):
                    os.remove(path)
            cmd = self._python(traced) + [
                os.path.join(BENCH_DIR, "child.py"), "cli", stamp,
                trace if traced else "-", *argv]
            proc = self._process(cmd, name, traced)
            record["attempted"] += 1
            try:
                with open(stamp) as handle:
                    ready, done = (float(v) for v in handle.read().split())
                proc["setup"] = ready - proc["start"]
                proc["exit"] = proc["start"] + proc["wall"] - done
                fails = readme.check_output(
                    name, argv, proc["code"], proc["stdout"].decode(),
                    self.run_dir, self.reference)
            except Exception as exc:  # unparsable output fails the call
                fails = [f"{name}: {type(exc).__name__}: {exc}"]
            if fails:
                record["failed"] += 1
                record["failures"].extend(fails[:3])
            record["bytes_out"] += len(proc["stdout"])
            if name == "verify":
                samples = os.path.join(self.run_dir, readme.SAMPLES_FILE)
                if os.path.exists(samples):
                    record["bytes_out"] += os.path.getsize(samples)
            if traced:
                record["dumps"].append(self._read_trace(trace))
            record["procs"].append(proc)
        return record

    def library_pass(self, traced: bool) -> dict:
        result_path = os.path.join(self.run_dir, "result.json")
        trace = os.path.join(self.run_dir, "trace.json")
        for path in (result_path, trace):
            if os.path.exists(path):
                os.remove(path)
        cmd = self._python(traced) + [
            os.path.join(BENCH_DIR, "child.py"), "lib", self.workload,
            str(self.seed), "1" if self.tiny else "0", self.run_dir,
            result_path, trace if traced else "-"]
        proc = self._process(cmd, self.workload, traced)
        try:
            with open(result_path) as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            with open(os.path.join(self.run_dir, f"{self.workload}.out.err")) as handle:
                stderr = handle.read()[-2000:]
            return {"procs": [proc], "attempted": 1, "failed": 1,
                    "failures": [f"process exited {proc['code']}: {stderr}"],
                    "bytes_out": 0, "dumps": [None]}
        proc["setup"] = result["ready"] - proc["start"]
        proc["exit"] = proc["start"] + proc["wall"] - result["done"]
        return {"procs": [proc], "attempted": result["attempted"],
                "failed": result["failed"], "failures": result["failures"],
                "bytes_out": result["bytes_out"],
                "dumps": [self._read_trace(trace)] if traced else []}

    def one_pass(self, traced: bool) -> dict:
        if self.workload == "cli_readme":
            record = self.cli_pass(traced)
        else:
            record = self.library_pass(traced)
        # The user waits for the processes; the benchmark's own checks of
        # their output, made between processes, are not part of the pass.
        record["wall"] = sum(p["wall"] for p in record["procs"])
        record["traced"] = traced
        return record

    def run(self, seconds: float, trace: bool) -> list[dict]:
        """Alternate passes (untraced first) until the time is used."""
        self.warm_up()
        kinds = (False, True) if trace else (False,)
        passes: list[dict] = []
        start = time.monotonic()
        longest = 0.0
        while True:
            pass_start = time.monotonic()
            passes.append(self.one_pass(kinds[len(passes) % len(kinds)]))
            now = time.monotonic()
            longest = max(longest, now - pass_start)
            elapsed = now - start
            if len(passes) >= len(kinds) and (
                elapsed >= seconds or elapsed + longest > RUN_LIMIT_S
            ):
                return passes

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, passes: list[dict]) -> tuple[dict, dict]:
        procs = [p for rec in passes for p in rec["procs"] if "setup" in p]
        calls = sorted(p["wall"] * 1e3 for rec in passes for p in rec["procs"])
        # The highest percentile with at least ten calls beyond it; with
        # fewer than eleven calls, the slowest call.
        tail_index = len(calls) - 11 if len(calls) > 10 else len(calls) - 1
        values = {
            "setup_s": statistics.median(p["setup"] for p in procs) if procs else 0.0,
            "wall_s": statistics.median(rec["wall"] for rec in passes),
            "call_p50_ms": statistics.median(calls),
            "call_tail_ms": calls[tail_index],
            "peak_rss_mib": max(p["rss_kib"] for rec in passes
                                for p in rec["procs"]) / 1024.0,
        }
        info = {
            "calls": len(calls),
            "call_tail_percentile": 100.0 * (tail_index + 1) / len(calls),
            "calls_beyond_tail": len(calls) - 1 - tail_index,
            "passes": len(passes),
            "pass_walls_s": [rec["wall"] for rec in passes],
            "setups_s": [p["setup"] for p in procs],
            "calls_ms": calls,
        }
        return values, info

    def per_layer(self, passes: list[dict]) -> tuple[dict, dict]:
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        per_pass, idle, absent = [], set(), set()
        for rec in traced:
            dumps = [d for d in rec["dumps"] if d is not None]
            merged = layers.merge(dumps)
            setup = sum(p.get("setup", 0.0) for p in rec["procs"])
            exits = sum(p.get("exit", 0.0) for p in rec["procs"])
            imports = [p["imports"] for p in rec["procs"] if "imports" in p]
            values, rec_idle = layers.pass_metrics(
                merged, imports, setup, exits, rec["wall"], rec["bytes_out"])
            per_pass.append(values)
            idle |= rec_idle
            absent |= {name for name, _, _, deps in layers.METRICS
                       if any(dep in merged["absent"] for dep in deps)}
        values = {
            name: statistics.median(v[name] for v in per_pass)
            for name in per_pass[0]
        }
        for name in absent:
            values[name] = 0.0
        untraced_wall = statistics.median(p["wall"] for p in untraced)
        values["trace.overhead_frac"] = (
            statistics.median(p["wall"] for p in traced) / untraced_wall - 1.0
        )
        info = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                "absent": sorted(absent), "not_exercised": sorted(idle - absent)}
        return values, info


def provenance(args, threads: int, root: str) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    src = os.path.join(root, "src", "qkdprobe")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "thread_limit": threads,
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def git_commit(root: str) -> str | None:
    """HEAD of the checkout's own .git, if it has one; no parent lookup."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args, root: str) -> tuple[dict, dict]:
    bench = Bench(args, root)
    passes = bench.run(args.seconds, bool(args.trace))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    e2e, info = bench.end_to_end(untraced)
    if args.trace:
        values, layer_info = bench.per_layer(passes)
        info.update(layer_info)
        units = layers.UNITS
    else:
        values, units = e2e, END_TO_END
    summary = {
        "workload": args.workload,
        "provenance": provenance(args, bench.threads, root),
        "end_to_end": {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in e2e.items()},
        "failed_frac": {"value": failed / attempted, "unit": "1"},
        "samples": info,
        "failures": [m for p in passes for m in p["failures"]][:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    with open(os.path.join(bench.run_dir, "summary.json"), "w") as handle:
        json.dump({"summary": summary, "result": result}, handle, indent=1)
    return summary, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qkdprobe", "__init__.py")):
        print(f"error: no qkdprobe source under {root}/src", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            summary, result = run_workload(
                argparse.Namespace(**{**vars(args), "workload": workload}), root)
            print(json.dumps(summary), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                prefix = f"{workload}." if len(workloads) > 1 else ""
                combined["metrics"][prefix + name] = metric
    except Setup as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
