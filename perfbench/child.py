"""Program process started by the benchmark, one per CLI call or library pass.

    child.py cli STAMP TRACE ARGV...
        Runs ``qkdprobe ARGV`` the way the console script does.
    child.py lib WORKLOAD SEED TINY RUN_DIR RESULT TRACE
        Runs one pass of a library workload and writes RESULT as JSON.

STAMP (or the ``ready`` and ``done`` fields of RESULT) receives the
``time.monotonic()`` readings taken once the imports are done and once
the program has returned; the parent compares them with its own readings
at spawn and at exit.  TRACE is ``-`` for an untraced process, otherwise
the path the tracer writes its spans to when the process ends.
"""

import sys
import time


def run_cli(stamp: str, trace_path: str, argv: list[str]) -> int:
    from qkdprobe.cli import main  # the console script's import

    ready = time.monotonic()
    tracer = None
    if trace_path != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        main = sys.modules["qkdprobe.cli"].main
    try:
        return main(argv)
    finally:
        done = time.monotonic()
        if tracer is not None:
            tracer.dump(trace_path)
        with open(stamp, "w") as handle:
            handle.write(f"{ready!r} {done!r}")


def run_library(workload, seed, tiny, run_dir, result_path, trace_path):
    import json

    import checks
    import library
    from tracing import NullTracer, Tracer

    reference = checks.load_reference()
    ready = time.monotonic()
    tracer = NullTracer() if trace_path == "-" else Tracer()
    if trace_path != "-":
        tracer.install()
    attempted = failed = bytes_out = 0
    failures: list[str] = []
    for kind, run, check in library.WORKLOADS[workload](
        int(seed), tiny == "1", run_dir, reference
    ):
        attempted += 1
        # An operation that raises, or whose output fails a check, failed.
        try:
            with tracer.op(kind):
                value = run()
        except Exception as exc:
            fails = [f"{kind}: {type(exc).__name__}: {exc}"]
        else:
            try:
                with tracer.op("check"):
                    fails = check(value)
            except Exception as exc:
                fails = [f"{kind} check: {type(exc).__name__}: {exc}"]
        bytes_out += getattr(fails, "bytes_out", 0)
        if fails:
            failed += 1
            failures.extend(fails[:3])
    done = time.monotonic()
    tracer.dump(trace_path)
    with open(result_path, "w") as handle:
        json.dump(
            {
                "ready": ready,
                "done": done,
                "attempted": attempted,
                "failed": failed,
                "failures": failures[:20],
                "bytes_out": bytes_out,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(run_cli(rest[0], rest[1], rest[2:]))
    sys.exit(run_library(*rest))
