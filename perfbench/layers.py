"""Per-layer metrics of one traced pass, one group per qkdprobe module.

A pass is summarised from its processes' tracer dumps, their
``-X importtime`` reports and the parent's clock readings.  A metric whose
layer the workload does not exercise (a zero denominator) reads 0 and is
listed as not exercised; one whose wrap target no longer exists reads 0
and is listed as absent.
"""

from __future__ import annotations

MODULES = ("cli", "probe", "search", "roots", "optimum", "distill",
           "simulate", "bench")

# name, unit, better, wrap targets the metric depends on
METRICS = (
    ("import.qkdprobe_ms", "ms", "lower", ()),
    ("import.scipy_ms", "ms", "lower", ()),
    ("import.numpy_ms", "ms", "lower", ()),
    ("cli.main.calls", "count", "lower", ("cli.main",)),
    ("cli.main.self_ms", "ms", "lower", ("cli.main",)),
    ("cli.render_json.ms", "ms", "lower", ("cli.render_json",)),
    ("cli.bytes_out", "bytes", "lower", ("cli.main",)),
    ("probe.calls", "count", "lower", ()),
    ("probe.us_per_call", "us", "lower", ()),
    ("probe.mu_infeasible_frac", "frac", "lower", ("probe.mu_from_constraint",)),
    ("search.scan.ns_per_node", "ns", "lower", ("search.constrained_scan",)),
    ("search.scan.feasible_frac", "frac", "higher", ("search.constrained_scan",)),
    ("search.refine.ms_per_call", "ms", "lower", ("search.refine",)),
    ("search.refine.probe_calls", "count", "lower", ("search.refine",)),
    ("search.penalty.ms_per_call", "ms", "lower", ("search.penalty_scan",)),
    ("search.penalty.evals", "count", "lower", ("search.penalty_scan",)),
    ("roots.real_roots.calls", "count", "lower", ("roots.real_roots_in_interval",)),
    ("roots.real_roots.us_per_call", "us", "lower", ("roots.real_roots_in_interval",)),
    ("optimum.d_feasibility.ms_per_rate", "ms", "lower", ("optimum.possibility_d_feasibility",)),
    ("optimum.enumerate.ms_per_call", "ms", "lower", ("optimum.enumerate_possibilities",)),
    ("optimum.optimal_overlap.calls", "count", "lower", ("optimum.optimal_overlap",)),
    ("optimum.optimal_overlap.us_per_call", "us", "lower", ("optimum.optimal_overlap",)),
    ("distill.frontier.counts", "count", "lower", ("distill.defense_frontier",)),
    ("distill.frontier.us_per_count", "us", "lower", ("distill.defense_frontier",)),
    ("distill.inverse_erf.us_per_call", "us", "lower", ("distill.inverse_erf",)),
    ("distill.capacity.ms_per_point", "ms", "lower", ("distill.asymptotic_capacity",)),
    ("distill.capacity.gain_evals", "count", "lower", ("distill.asymptotic_capacity",)),
    ("distill.pa_check.ms_per_hash", "ms", "lower", ("distill.pa_empirical_check",)),
    ("simulate.run.self_ms", "ms", "lower", ("simulate.run",)),
    ("simulate.run.ns_per_bit", "ns", "lower", ("simulate.run",)),
    *((f"self.{m}_ms", "ms", "lower", ()) for m in ("setup",) + MODULES + ("exit",)),
    ("trace.wall_ms", "ms", "lower", ()),
    ("trace.accounted_frac", "frac", "higher", ()),
    ("trace.overhead_frac", "frac", "lower", ()),
)

UNITS = {name: unit for name, unit, _, _ in METRICS}


def parse_importtime(text: str) -> dict[str, float]:
    """Milliseconds spent importing qkdprobe, scipy and numpy.

    ``-X importtime`` prints each import after its children, indented by
    depth.  A package's time is the summed cumulative time of its
    outermost entries, so a package imported inside another is counted
    once, and qkdprobe's time includes the numpy and scipy imports it
    triggers.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1000.0))
    totals = {"qkdprobe": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in ancestors):
            totals[top] += cumulative
        ancestors.append((depth, name))
    return totals


def merge(dumps: list[dict]) -> dict:
    """Sum the tracer dumps of one pass's processes."""
    spans: dict[str, list] = {}
    inner: dict[str, dict[str, int]] = {}
    leaves: dict[str, list] = {}
    errors: dict[str, dict[str, int]] = {}
    counters: dict[str, float] = {}
    absent: set[str] = set()
    for dump in dumps:
        for span in dump["spans"]:
            stat = spans.setdefault(span["name"], [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += span["end"] - span["start"]
            stat[2] += span["self"]
            calls = inner.setdefault(span["name"], {})
            for leaf, count in span["leaf_calls"].items():
                calls[leaf] = calls.get(leaf, 0) + count
        for name, (calls, total, own) in dump["leaves"].items():
            stat = leaves.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        for name, kinds in dump["leaf_errors"].items():
            for kind, count in kinds.items():
                errors.setdefault(name, {})[kind] = (
                    errors.get(name, {}).get(kind, 0) + count
                )
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
        absent.update(dump["absent"])
        absent.update(dump["hook_failures"])
    return {"spans": spans, "inner": inner, "leaves": leaves,
            "errors": errors, "counters": counters, "absent": absent}


def pass_metrics(merged: dict, imports: list[dict], setup_s: float,
                 exit_s: float, wall_s: float, bytes_out: int) -> tuple[dict, set]:
    """Every per-layer metric but the overhead, and those not exercised."""
    spans, leaves, counters = merged["spans"], merged["leaves"], merged["counters"]
    none = [0, 0.0, 0.0]
    idle: set[str] = set()

    def ratio(name, num, den, scale=1.0):
        if not den:
            idle.add(name)
            return 0.0
        return num / den * scale

    def span(name):
        return spans.get(name, none)

    def leaf(name):
        return leaves.get(name, none)

    def inner_probe(name):
        calls = merged["inner"].get(name, {})
        return sum(c for leaf_name, c in calls.items() if leaf_name.startswith("probe."))

    probe_calls = sum(s[0] for n, s in leaves.items() if n.startswith("probe."))
    probe_self = sum(s[2] for n, s in leaves.items() if n.startswith("probe."))
    mu = leaf("probe.mu_from_constraint")
    infeasible = merged["errors"].get("probe.mu_from_constraint", {}).get(
        "InfeasibleConstraintError", 0)
    nodes = counters.get("scan.nodes", 0)
    capacity = span("distill.asymptotic_capacity")
    n_proc = max(1, len(imports))
    own = {m: 0.0 for m in MODULES}
    for table in (spans, leaves):
        for name, stat in table.items():
            module = name.split(".")[0]
            own[module] = own.get(module, 0.0) + stat[2]

    values = {
        "import.qkdprobe_ms": sum(i["qkdprobe"] for i in imports) / n_proc,
        "import.scipy_ms": sum(i["scipy"] for i in imports) / n_proc,
        "import.numpy_ms": sum(i["numpy"] for i in imports) / n_proc,
        "cli.main.calls": span("cli.main")[0],
        "cli.main.self_ms": span("cli.main")[2] * 1e3,
        "cli.render_json.ms": span("cli.render_json")[1] * 1e3,
        "cli.bytes_out": bytes_out,
        "probe.calls": probe_calls,
        "probe.us_per_call": ratio("probe.us_per_call", probe_self, probe_calls, 1e6),
        "probe.mu_infeasible_frac": ratio("probe.mu_infeasible_frac", infeasible, mu[0]),
        "search.scan.ns_per_node": ratio(
            "search.scan.ns_per_node", span("search.constrained_scan")[1], nodes, 1e9),
        "search.scan.feasible_frac": ratio(
            "search.scan.feasible_frac", counters.get("scan.feasible", 0), nodes),
        "search.refine.ms_per_call": ratio(
            "search.refine.ms_per_call", span("search.refine")[1], span("search.refine")[0], 1e3),
        "search.refine.probe_calls": ratio(
            "search.refine.probe_calls", inner_probe("search.refine"), span("search.refine")[0]),
        "search.penalty.ms_per_call": ratio(
            "search.penalty.ms_per_call", span("search.penalty_scan")[1],
            span("search.penalty_scan")[0], 1e3),
        "search.penalty.evals": ratio(
            "search.penalty.evals", counters.get("penalty.evals", 0),
            span("search.penalty_scan")[0]),
        "roots.real_roots.calls": leaf("roots.real_roots_in_interval")[0],
        "roots.real_roots.us_per_call": ratio(
            "roots.real_roots.us_per_call", leaf("roots.real_roots_in_interval")[1],
            leaf("roots.real_roots_in_interval")[0], 1e6),
        "optimum.d_feasibility.ms_per_rate": ratio(
            "optimum.d_feasibility.ms_per_rate", span("optimum.possibility_d_feasibility")[1],
            counters.get("d_feasibility.rates", 0), 1e3),
        "optimum.enumerate.ms_per_call": ratio(
            "optimum.enumerate.ms_per_call", span("optimum.enumerate_possibilities")[1],
            span("optimum.enumerate_possibilities")[0], 1e3),
        "optimum.optimal_overlap.calls": leaf("optimum.optimal_overlap")[0],
        "optimum.optimal_overlap.us_per_call": ratio(
            "optimum.optimal_overlap.us_per_call", leaf("optimum.optimal_overlap")[1],
            leaf("optimum.optimal_overlap")[0], 1e6),
        "distill.frontier.counts": counters.get("frontier.counts", 0),
        "distill.frontier.us_per_count": ratio(
            "distill.frontier.us_per_count", span("distill.defense_frontier")[1],
            counters.get("frontier.counts", 0), 1e6),
        "distill.inverse_erf.us_per_call": ratio(
            "distill.inverse_erf.us_per_call", leaf("distill.inverse_erf")[1],
            leaf("distill.inverse_erf")[0], 1e6),
        "distill.capacity.ms_per_point": ratio(
            "distill.capacity.ms_per_point", capacity[1], capacity[0], 1e3),
        "distill.capacity.gain_evals": ratio(
            "distill.capacity.gain_evals",
            merged["inner"].get("distill.asymptotic_capacity", {}).get(
                "optimum.optimal_overlap", 0),
            capacity[0]),
        "distill.pa_check.ms_per_hash": ratio(
            "distill.pa_check.ms_per_hash", span("distill.pa_empirical_check")[1],
            counters.get("pa_check.hashes", 0), 1e3),
        "simulate.run.self_ms": span("simulate.run")[2] * 1e3,
        "simulate.run.ns_per_bit": ratio(
            "simulate.run.ns_per_bit", span("simulate.run")[1],
            counters.get("simulate.bits", 0), 1e9),
        "self.setup_ms": setup_s * 1e3,
        **{f"self.{m}_ms": own[m] * 1e3 for m in MODULES},
        "self.exit_ms": exit_s * 1e3,
        "trace.wall_ms": wall_s * 1e3,
        "trace.accounted_frac": (setup_s + sum(own.values()) + exit_s) / wall_s,
    }
    for name, _, _, deps in METRICS:
        if any(dep in merged["absent"] for dep in deps):
            idle.discard(name)
    return values, idle
