"""Span and counter recording around qlrc's layer boundaries.

The recorder wraps public functions from outside the package: each name is
replaced where the calling module looks it up (``qlrc.construct.build_code``,
``qlrc.construct.linalg.rank`` through the shared module object, methods on
their classes), so no file under ``src/`` changes.  Element arithmetic gets
counters only, because a span per few-microsecond field operation would
swamp the run.

Spans keep name, start, end, parent and the benchmark operation that caused
them, and stay in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import statistics
import time

from metrics import CLI_METRICS, PER_LAYER, SPAN_METRICS

import qlrc.agl
import qlrc.bounds
import qlrc.cli
import qlrc.construct
import qlrc.field
import qlrc.linalg
import qlrc.poly
import qlrc.rng

# (owner, attribute, span name).  Module-level functions are wrapped in every
# module that imported them by name, because that is where callers look them up.
SPANNED = [
    (qlrc.field.Field, "__init__", "field.init"),
    (qlrc.field.Field, "tables", "field.tables"),
    (qlrc.field.Field, "sqrt", "field.sqrt"),
    (qlrc.poly.Polynomial, "__call__", "poly.eval"),
    (qlrc.poly.Polynomial, "__mul__", "poly.mul"),
    (qlrc.poly.Polynomial, "compose", "poly.compose"),
    (qlrc.poly.Polynomial, "__divmod__", "poly.divmod"),
    (qlrc.agl, "annihilator", "poly.annihilator"),
    (qlrc.construct, "annihilator", "poly.annihilator"),
    (qlrc.construct, "interpolate", "poly.interpolate"),
    (qlrc.linalg, "rank", "linalg.rank"),
    (qlrc.linalg, "dot", "linalg.dot"),
    (qlrc.agl, "orbits", "agl.orbits"),
    (qlrc.construct, "good_polynomial", "agl.good_polynomial"),
    (qlrc.bounds, "theta_subgroup", "agl.theta_subgroup"),
    (qlrc.construct, "solve_multipliers", "construct.solve_multipliers"),
    (qlrc.construct, "build_code", "construct.build_code"),
    (qlrc.construct, "instance_from_spec", "construct.instance_from_spec"),
    (qlrc.construct, "verify_instance", "construct.verify_instance"),
    (qlrc.construct, "instance_to_dump", "construct.instance_to_dump"),
    (qlrc.construct, "instance_from_dump", "construct.instance_from_dump"),
    (qlrc.construct, "encode", "construct.encode"),
    (qlrc.bounds, "css_params", "bounds.css_params"),
    (qlrc.bounds, "sweep_rows", "bounds.sweep_rows"),
    (qlrc.bounds, "weight_bound_audit", "bounds.weight_bound_audit"),
    (qlrc.bounds, "schreier_graph", "bounds.schreier_graph"),
    (qlrc.bounds, "second_eigenvalue", "bounds.second_eigenvalue"),
]

# (owner, attribute, counter name) for element arithmetic and the PRNG.
COUNTED = [
    (qlrc.field.FieldElement, "__mul__", "field.mul"),
    (qlrc.field.FieldElement, "__add__", "field.add"),
    (qlrc.field.FieldElement, "__sub__", "field.add"),
    (qlrc.rng.Xorshift64Star, "next_u64", "rng.next_u64"),
]


class ReadLog(list):
    """List that counts reads of stored (non-erased) symbols."""

    def __init__(self, data):
        super().__init__(data)
        self.reads = 0

    def __getitem__(self, i):
        v = super().__getitem__(i)
        if v is not None:
            self.reads += 1
        return v


class Tracer:
    """In-memory span and counter recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.counts: dict[str, int] = {}
        self.repair_reads: list[tuple[int, int]] = []  # (reads, r) per repair call
        self.scan_words: list[int] = []  # projective words per brute-force call
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def mark(self) -> tuple[int, int, int, dict[str, int]]:
        """Current sizes, to split the spans of one phase from the next."""
        return len(self.names), len(self.repair_reads), len(self.scan_words), dict(self.counts)

    # -- wrapping ----------------------------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _cli_main(self, fn):
        def main(argv=None):
            idx = self.open(f"cli.{argv[0] if argv else '?'}")
            try:
                return fn(argv)
            finally:
                self.close(idx)

        return main

    def _repair(self, fn):
        def repair(inst, received, *args, **kwargs):
            log = ReadLog(received)
            idx = self.open("construct.repair")
            try:
                return fn(inst, log, *args, **kwargs)
            finally:
                self.close(idx)
                self.repair_reads.append((log.reads, inst.r))

        return repair

    def _bruteforce(self, fn):
        def distance_bruteforce(inst, *args, **kwargs):
            q, k = inst.field.q, inst.k
            idx = self.open("bounds.distance_bruteforce")
            try:
                return fn(inst, *args, **kwargs)
            finally:
                self.close(idx)
                self.scan_words.append((q**k - 1) // (q - 1))

        return distance_bruteforce

    def _replace(self, owner, attr, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._replace(owner, attr, lambda fn, name=name: self._spanned(name, fn))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, lambda fn, name=name: self._counted(name, fn))
        self._replace(qlrc.cli, "main", self._cli_main)
        self._replace(qlrc.construct, "repair", self._repair)
        self._replace(qlrc.bounds, "distance_bruteforce", self._bruteforce)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def covered_ns(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(starts, ends, parents) -> list[int]:
    """Duration of each span minus the time its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    return [
        (ends[i] - starts[i]) - covered_ns(children.get(i, ()))
        for i in range(len(starts))
    ]


def net_times_ns(starts, ends, parents, inside) -> tuple[list[float], list[float]]:
    """(duration, self time) of each span, less the foreign time inside(start_s, end_s) within it.

    Foreign time (the speed sampler's) is taken out of a span's duration,
    and out of its self time as far as no direct child covers it.
    """
    durs = [e - s for s, e in zip(starts, ends)]
    selfs = self_times_ns(starts, ends, parents)
    foreign = [inside(s * 1e-9, e * 1e-9) * 1e9 for s, e in zip(starts, ends)]
    in_children = [0.0] * len(foreign)
    for i, p in enumerate(parents):
        if p >= 0:
            in_children[p] += foreign[i]
    return (
        [d - f for d, f in zip(durs, foreign)],
        [s - (f - c) for s, f, c in zip(selfs, foreign, in_children)],
    )


def layer_metrics(tracer: Tracer, probe_mark, inside) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the workload's own spans, else from the probe's.

    probe_mark is tracer.mark() taken when the workload pass ended; inside
    is passed on to net_times_ns().  Returns the metrics and the names that
    had to come from the probe.
    """
    n_pass, reads_pass, words_pass, counts_pass = probe_mark
    dur_ns, selfs = net_times_ns(tracer.starts, tracer.ends, tracer.parents, inside)
    durs = {True: {}, False: {}}  # in_pass -> span name -> [(dur_ns, self_ns)]
    for i, name in enumerate(tracer.names):
        durs[i < n_pass].setdefault(name, []).append((dur_ns[i], selfs[i]))

    from_probe: list[str] = []

    def pick(name):
        if name in durs[True]:
            return durs[True][name]
        return durs[False].get(name, [])

    out: dict[str, float] = {}
    for metric, name, factor, _unit in SPAN_METRICS:
        if name not in durs[True]:
            from_probe.append(metric)
        vals = pick(name)
        out[metric] = statistics.median(d for d, _ in vals) * 1e-9 * factor if vals else 0.0
    for metric, name in CLI_METRICS:
        if name not in durs[True]:
            from_probe.append(metric)
        vals = pick(name)
        out[metric] = statistics.median(s for _, s in vals) * 1e-6 if vals else 0.0

    ranks = pick("linalg.rank")
    out["linalg.rank_calls"] = len(ranks)
    if "linalg.rank" not in durs[True]:
        from_probe.append("linalg.rank_calls")

    words = tracer.scan_words[:words_pass] or tracer.scan_words[words_pass:]
    if not tracer.scan_words[:words_pass]:
        from_probe += ["bounds.scan_words", "bounds.scan_words_per_s"]
    scan_s = sum(d for d, _ in pick("bounds.distance_bruteforce")) * 1e-9
    out["bounds.scan_words"] = sum(words)
    out["bounds.scan_words_per_s"] = sum(words) / scan_s if scan_s else 0.0

    reads = tracer.repair_reads[:reads_pass] or tracer.repair_reads[reads_pass:]
    if not tracer.repair_reads[:reads_pass]:
        from_probe.append("construct.repair_reads")
    out["construct.repair_reads"] = sum(r for r, _ in reads) / len(reads) if reads else 0.0

    out["field.mul_count"] = counts_pass.get("field.mul", 0)
    out["field.add_count"] = counts_pass.get("field.add", 0)
    out["rng.next_u64_count"] = counts_pass.get("rng.next_u64", 0)
    if not out["rng.next_u64_count"]:
        from_probe.append("rng.next_u64_count")
        out["rng.next_u64_count"] = tracer.counts.get("rng.next_u64", 0)
    return out, from_probe


def read_mismatches(tracer: Tracer) -> list[str]:
    """Repair calls that read other than r symbols."""
    return [f"repair read {got} symbols, r = {r}" for got, r in tracer.repair_reads if got != r]


TIME_UNITS = {"s", "ms", "us", "ns"}


def scale_to_reference(layers: dict[str, float], factor: float) -> dict[str, float]:
    """Per-layer times and rates at the reference speed; counts unchanged.

    factor is the sampled speed relative to the reference (below 1 on a
    slowed host): times shrink by it, per-second rates grow by it.
    """
    out = dict(layers)
    for name, unit, _ in PER_LAYER:
        if name not in out:
            continue
        if unit in TIME_UNITS:
            out[name] *= factor
        elif unit == "1/s":
            out[name] /= factor
    return out
