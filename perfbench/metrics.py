"""Metric names, units and the statistics the benchmark reports them with.

Nothing here imports qlrc, so the runner can use it before it knows whether
the sources are present.
"""

from __future__ import annotations

import math
import statistics

# End-to-end metrics, reported by every workload with tracing off.
END_TO_END = [
    ("setup_s", "s"),
    ("pass_ref_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-call span metrics: (metric, span name, seconds -> unit factor, unit).
SPAN_METRICS = [
    ("field.init_ms", "field.init", 1e3, "ms"),
    ("field.tables_ms", "field.tables", 1e3, "ms"),
    ("field.sqrt_us", "field.sqrt", 1e6, "us"),
    ("poly.eval_us", "poly.eval", 1e6, "us"),
    ("poly.mul_us", "poly.mul", 1e6, "us"),
    ("poly.annihilator_ms", "poly.annihilator", 1e3, "ms"),
    ("poly.interpolate_us", "poly.interpolate", 1e6, "us"),
    ("poly.compose_us", "poly.compose", 1e6, "us"),
    ("poly.divmod_us", "poly.divmod", 1e6, "us"),
    ("linalg.rank_ms", "linalg.rank", 1e3, "ms"),
    ("linalg.dot_us", "linalg.dot", 1e6, "us"),
    ("agl.orbits_s", "agl.orbits", 1.0, "s"),
    ("agl.good_polynomial_s", "agl.good_polynomial", 1.0, "s"),
    ("agl.theta_subgroup_us", "agl.theta_subgroup", 1e6, "us"),
    ("construct.solve_multipliers_ms", "construct.solve_multipliers", 1e3, "ms"),
    ("construct.build_code_s", "construct.build_code", 1.0, "s"),
    ("construct.verify_instance_s", "construct.verify_instance", 1.0, "s"),
    ("construct.instance_to_dump_ms", "construct.instance_to_dump", 1e3, "ms"),
    ("construct.instance_from_dump_ms", "construct.instance_from_dump", 1e3, "ms"),
    ("construct.encode_us", "construct.encode", 1e6, "us"),
    ("construct.repair_us", "construct.repair", 1e6, "us"),
    ("bounds.distance_bruteforce_s", "bounds.distance_bruteforce", 1.0, "s"),
    ("bounds.weight_bound_audit_s", "bounds.weight_bound_audit", 1.0, "s"),
    ("bounds.schreier_graph_ms", "bounds.schreier_graph", 1e3, "ms"),
    ("bounds.second_eigenvalue_ms", "bounds.second_eigenvalue", 1e3, "ms"),
]

# CLI overhead: self time of the cli span, i.e. the call minus the library calls in it.
CLI_METRICS = [
    ("cli.construct_overhead_ms", "cli.construct"),
    ("cli.verify_overhead_ms", "cli.verify"),
    ("cli.bounds_overhead_ms", "cli.bounds"),
]

# Per-layer metrics, reported by every workload with tracing on: (name, unit, better).
PER_LAYER = (
    [(name, unit, "lower") for name, _, _, unit in SPAN_METRICS]
    + [(name, "ms", "lower") for name, _ in CLI_METRICS]
    + [
        ("field.mul_ns", "ns", "lower"),
        ("field.add_ns", "ns", "lower"),
        ("field.inv_us", "us", "lower"),
        ("field.mul_count", "count", "lower"),
        ("field.add_count", "count", "lower"),
        ("linalg.rank_calls", "count", "lower"),
        ("construct.repair_reads", "count", "lower"),
        ("bounds.scan_words", "count", "lower"),
        ("bounds.scan_words_per_s", "1/s", "higher"),
        ("rng.next_u64_count", "count", "lower"),
        ("bench.trace_overhead_s", "s", "lower"),
    ]
)

PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(samples):
    """(p, value) for the highest listed percentile with at least ten samples beyond it.

    Beyond means the n * (1 - p/100) samples the percentile leaves above it;
    None when even the median leaves fewer than ten.
    """
    n = len(samples)
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:
            return p, percentile(samples, p)
    return None


def fail_ratio(ops) -> float:
    """Share of [kind, label, seconds, problem] records whose check found a problem."""
    return sum(1 for op in ops if op[3]) / len(ops) if ops else 0.0


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
