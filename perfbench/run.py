"""qlrc benchmark: one workload, every metric by name with its unit.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 28 --trace 0

Run from the repository root; qlrc is used straight from ``src``.  Each pass
of the workload runs in a fresh process (perfbench/workload.py), the way a
CLI user pays for a cold process on every call, so there is no warm-up pass.
Passes repeat while the next one is expected to end within --seconds; at
least one always runs.  Set-up is timed in every pass process and in extra
set-up-only processes, and reported as the median.

Times are scaled to a fixed reference interpreter speed, sampled inside each
pass process while the work runs (speed.py), because a shared host's speed
drifts by a quarter or more between runs minutes apart.  The report prints
the wall times beside them; compare those too for a change that starts
processes of its own.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, from pairs of an untraced and a
traced pass on identical inputs, whose difference is the tracing overhead.
The lines before it are a readable report: a stamp of the machine state,
per-stage numbers and the fail ratio.  Exit status is 0 when a result was
printed; a missing ``src/qlrc`` or a pass that produced nothing exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, fail_ratio, spread, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ladder", "certify", "repair-stream", "wide-field")
SETUP_SAMPLES = 15
TIME_LIMIT_S = 165.0  # every child is stopped by then, well inside 180 s


class PassFailed(Exception):
    """A pass process exited non-zero, timed out or printed no result."""


def _git(*args):
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def stamp() -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def spawn(self, pass_index: int, trace: int = 0, setup_only: bool = False) -> dict:
        cmd = [
            sys.executable, os.path.join(HERE, "workload.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--pass-index", str(pass_index), "--trace", str(trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        timeout = self.deadline - t0
        if timeout <= 0:
            raise PassFailed("no time left for another pass")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"pass {pass_index} did not finish in {timeout:.0f} s") from None
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise PassFailed(f"pass {pass_index} exited {proc.returncode}: {' | '.join(tail)}")
        res = json.loads(lines[-1])
        res["setup_s"] = (res["ready"] - t0 - res["setup_sampler_s"]) * res["setup_factor"]
        res["setup_wall_s"] = res["ready"] - t0
        res["wall_s"] = wall
        return res

    def loop(self, seconds: float, run_one) -> list:
        """Call run_one(i) while the next call is expected to end within `seconds`."""
        start = time.monotonic()
        out, walls = [], []
        while True:
            t0 = time.monotonic()
            out.append(run_one(len(out)))
            walls.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(walls) > seconds:
                return out


def stage_report(passes: list) -> list[str]:
    """Per-stage numbers of the untraced passes, for the readable report."""
    lines = []

    def per_pass(kinds):
        return [sum(op[2] for op in p["ops"] if op[0] in kinds) for p in passes]

    for name, kinds in (
        ("construct_s", {"construct"}),
        ("verify_s", {"verify"}),
        ("bounds_s", {"bounds", "bruteforce", "sweep"}),
        ("audit_s", {"audit"}),
    ):
        vals = per_pass(kinds)
        if any(vals):
            lines.append(f"{name} {statistics.median(vals):.4f} s (median over {len(vals)} passes)")
    scan = [p["scan_words"] / t for p, t in zip(passes, per_pass({"bruteforce"})) if t]
    if scan:
        lines.append(f"scan_words_per_s {statistics.median(scan):.1f} 1/s ({passes[0]['scan_words']} words a pass)")
    for name, key in (("encode", "encode_us"), ("repair", "repair_us")):
        samples = [x for p in passes for x in p[key]]
        if samples:
            text = f"{name}_p50_us {statistics.median(samples):.1f}"
            tail = tail_percentile(samples)
            if tail and tail[0] > 50:
                text += f", {name}_p{tail[0]:g}_us {tail[1]:.1f}"
            lines.append(f"{text} ({len(samples)} samples)")
    trips = per_pass({"roundtrip"})
    counts = [sum(1 for op in p["ops"] if op[0] == "roundtrip") for p in passes]
    if any(trips):
        lines.append(f"roundtrips_per_s {sum(counts) / sum(trips):.1f} 1/s ({sum(counts)} round trips)")
    return lines


def run_timed(runner: Runner, seconds: float):
    # Set-up samples are taken at both ends of the run as well as in every
    # pass, so that their median does not hinge on one moment's machine load.
    setups = [runner.spawn(i, setup_only=True)["setup_s"] for i in range(SETUP_SAMPLES // 3)]
    passes = runner.loop(seconds, lambda i: runner.spawn(i))
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(len(setups), setup_only=True)["setup_s"])
    walls = [p["pass_s"] for p in passes]
    scaled = [p["pass_ref_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_ref_s": statistics.median(scaled),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024.0,
    }
    report = [
        f"passes {len(passes)}: wall {statistics.median(walls):.4f} s (spread {spread(walls):.3f}), "
        f"at reference speed {metrics['pass_ref_s']:.4f} s (spread {spread(scaled):.3f}, "
        f"{statistics.median(p['speed_samples'] for p in passes)} speed samples a pass)",
        f"setup samples {len(setups)}, setup_s spread {spread(setups):.3f}",
        *stage_report(passes),
    ]
    return passes, metrics, report


def run_traced(runner: Runner, seconds: float):
    def pair(i):
        return runner.spawn(i, trace=0), runner.spawn(i, trace=1)

    pairs = runner.loop(seconds, pair)
    plain = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name, _, _ in PER_LAYER
        if name != "bench.trace_overhead_s"
    }
    # Both passes of a pair run the same inputs; their reference-speed times
    # are compared so that host drift between the two processes drops out.
    untraced_s = statistics.median(u["pass_ref_s"] for u in plain)
    traced_s = statistics.median(t["pass_ref_s"] for t in traced)
    metrics["bench.trace_overhead_s"] = traced_s - untraced_s
    report = [
        f"pairs {len(pairs)}, at reference speed: untraced pass {untraced_s:.4f} s, traced pass "
        f"{traced_s:.4f} s, overhead {traced_s - untraced_s:.4f} s ({(traced_s / untraced_s - 1) * 100:.1f}%); "
        f"per-layer times are scaled to the reference speed too",
        "from the layer probe (the pass did not reach them): " + ", ".join(traced[0]["from_probe"]),
    ]
    for op, spans in traced[0]["op_spans"].items():
        report.append(f"  {op}: " + ", ".join(f"{k} {v:.4f} s" for k, v in spans.items()))
    return plain + traced, metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one qlrc benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (os.path.join(SRC, "qlrc", "__init__.py"), os.path.join(HERE, "goldens.json")):
        if not os.path.isfile(needed):
            print(f"error: {os.path.relpath(needed, ROOT)} not found; run from a qlrc checkout", file=sys.stderr)
            return 1

    start = time.monotonic()
    st = stamp()
    runner = Runner(args.workload, args.seed, start + TIME_LIMIT_S)
    try:
        if args.trace:
            passes, metrics, report = run_traced(runner, args.seconds)
        else:
            passes, metrics, report = run_timed(runner, args.seconds)
    except PassFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    st["loadavg_end"] = _loadavg()

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op[3]]
    units = {name: unit for name, unit, *_ in (PER_LAYER if args.trace else END_TO_END)}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {time.monotonic() - start:.1f} s")
    print("stamp " + json.dumps(st, sort_keys=True))
    for line in report:
        print(line)
    for op in failed[:10]:
        print(f"FAILED {op[0]} {op[1]}: {op[3]}")
    print(f"fail_ratio {fail_ratio(ops):.6f} ({len(failed)} failed of {len(ops)} attempted)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    try:
        os.rmdir(os.path.join(ROOT, ".bench_work"))  # left empty by the pass processes
    except OSError:
        pass
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
