"""In-memory tracer that wraps qkdprobe's public functions from outside.

Coarse entry points get one span per call: name, start, end, parent span,
operation id, self time and the number of leaf-kernel calls made inside
it.  Scalar leaf kernels are called millions of times, so they get only a
call count, a summed duration, a summed self time and a count of raised
exceptions by class.  Self time is a call's duration minus the time its
wrapped children cover.

A wrapper replaces the original function under every name a qkdprobe
module binds it to, so ``optimum.real_roots_in_interval`` (imported by
name) is traced as well as ``roots.real_roots_in_interval``.  A target
that no longer exists is recorded as absent; it never fails the run.
Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import json
import sys
from time import perf_counter

PACKAGE = "qkdprobe"

# Coarse entry points: one span per call.
SPAN_TARGETS = (
    "cli.main",
    "cli.render_json",
    "search.constrained_scan",
    "search.refine",
    "search.penalty_scan",
    "optimum.enumerate_possibilities",
    "optimum.possibility_d_feasibility",
    "distill.compression_level",
    "distill.defense_frontier",
    "distill.asymptotic_capacity",
    "distill.capacity_curve",
    "distill.pa_empirical_check",
    "simulate.run",
    "simulate.sweep",
)

# Scalar leaf kernels: counted and timed in aggregate.
LEAF_TARGETS = (
    "probe.coefficients",
    "probe.detection_probabilities",
    "probe.error_rate",
    "probe.overlap",
    "probe.mu_from_constraint",
    "probe.renyi_info",
    "probe.evaluate",
    "probe.q_value",
    "optimum.optimal_overlap",
    "optimum.optimal_parameter_families",
    "optimum.sample_params",
    "roots.real_roots_in_interval",
    "distill.inverse_erf",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _scan_counts(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    return {
        "scan.nodes": config.grid_resolution**3 + config.random_restarts,
        "scan.feasible": result.samples_evaluated,
    }


# Work counters read from the public signatures and results of a call.
HOOKS = {
    "search.constrained_scan": _scan_counts,
    "search.penalty_scan": lambda a, k, r: {
        "penalty.evals": r.samples_evaluated
    },
    "optimum.possibility_d_feasibility": lambda a, k, r: {
        "d_feasibility.rates": len(_arg(a, k, 1, "e_grid"))
    },
    "distill.defense_frontier": lambda a, k, r: {
        "frontier.counts": _arg(a, k, 0, "config").e_t + 1
    },
    "distill.pa_empirical_check": lambda a, k, r: {
        "pa_check.hashes": _arg(a, k, 3, "hash_count")
    },
    "simulate.run": lambda a, k, r: {
        "simulate.bits": _arg(a, k, 0, "config").m
    },
}


class Tracer:
    """Collects spans, leaf aggregates and work counters for one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.leaves: dict[str, list] = {}
        self.leaf_errors: dict[str, dict[str, int]] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_failures: list[str] = []
        # Each frame is [child_time, span_index]; the root frame is never
        # popped, so calls made outside every span still have a parent.
        self._stack: list[list] = [[0.0, None]]
        self._op_id = 0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target function at each name bound to it."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for targets, make in (
            (SPAN_TARGETS, self._span_wrapper),
            (LEAF_TARGETS, self._leaf_wrapper),
        ):
            for target in targets:
                module_name, attr = target.split(".", 1)
                module = sys.modules.get(f"{PACKAGE}.{module_name}")
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(target)
                    continue
                wrapper = make(target, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _leaf_snapshot(self) -> dict[str, int]:
        return {name: stat[0] for name, stat in self.leaves.items()}

    def _begin(self, name: str) -> tuple[dict, list]:
        parent = self._stack[-1]
        record = {"name": name, "parent": parent[1], "op": self._op_id}
        frame = [0.0, len(self.spans)]
        self.spans.append(record)
        record["leaf_calls"] = self._leaf_snapshot()
        self._stack.append(frame)
        record["start"] = perf_counter()
        return record, frame

    def _end(self, record: dict, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - record["start"]
        self._stack[-1][0] += duration
        record["end"] = end
        record["self"] = duration - frame[0]
        before = record["leaf_calls"]
        record["leaf_calls"] = {
            leaf: stat[0] - before.get(leaf, 0)
            for leaf, stat in self.leaves.items()
            if stat[0] != before.get(leaf, 0)
        }

    def _span_wrapper(self, name, fn):
        hook = HOOKS.get(name)

        def wrapped(*args, **kwargs):
            record, frame = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record["error"] = type(exc).__name__
                raise
            finally:
                self._end(record, frame)
            if hook is not None:
                try:
                    for key, value in hook(args, kwargs, result).items():
                        self.counters[key] = self.counters.get(key, 0) + value
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.hook_failures.append(name)
            return result

        return wrapped

    def _leaf_wrapper(self, name, fn):
        stack = self._stack
        # calls, summed duration, summed self time
        stat = self.leaves.setdefault(name, [0, 0.0, 0.0])

        def wrapped(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors = self.leaf_errors.setdefault(name, {})
                kind = type(exc).__name__
                errors[kind] = errors.get(kind, 0) + 1
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]

        return wrapped

    # -- operations ----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, kind: str):
        """Span for one benchmark operation; its children share its id."""
        self._op_id += 1
        record, frame = self._begin(f"bench.{kind}")
        try:
            yield
        finally:
            self._end(record, frame)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "leaves": self.leaves,
                    "leaf_errors": self.leaf_errors,
                    "counters": self.counters,
                    "absent": self.absent,
                    "hook_failures": sorted(set(self.hook_failures)),
                },
                handle,
            )


class NullTracer:
    """Stand-in used by untraced runs: operations cost nothing extra."""

    @contextlib.contextmanager
    def op(self, kind: str):
        yield

    def dump(self, path: str) -> None:
        pass
