"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/workload.py --workload ladder --seed 1 --pass-index 0 --trace 0

perfbench/run.py starts this once per pass, with ``src`` on PYTHONPATH, and
reads the single JSON object it prints.  The object carries the monotonic
time at which set-up ended (interpreter start, ``import qlrc``, the fields and
the instances the workload loads) with its speed factor, the time of every
operation in the pass, the pass time in wall and at the reference speed
(see speed.py), what each check found, and the process's peak RSS.
With ``--trace 1`` the pass runs with the recorder of spans.py installed,
followed by a probe of every layer function the pass did not reach and by
field micro-timings, and the object also carries the per-layer metrics.

Every input is derived from --seed, --workload and --pass-index; qlrc only
sees the generated messages, erasure positions and seeds.  Outputs are
checked against goldens.json, which does not depend on the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time

from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

LADDER = ("q32_n32_k19", "q64_n64_k40", "q27_n27_k18", "q9x81_n8_k5")
BRUTE_FORCE = ("q16_n8_k6", "q9_n9_k6", "q8_n7_k6", "q8_n8_k5")
FLAGSHIP = "q32_n32_k19"
WIDE = "q65536_n32_k19"
PROBE = "q8_n8_k5"
SWEEP_ARGS = ["--n", "63", "--r", "6", "--q", "64"]
AUDIT_TRIALS = 40
STREAM_ROUNDTRIPS = 1000
WIDE_ROUNDTRIPS = 100
WIDE_VERIFY_TRIALS = 20

# Instances whose dumps each workload loads during set-up (the rest it builds).
LOADED = {
    "ladder": (),
    "certify": BRUTE_FORCE + (FLAGSHIP,),
    "repair-stream": (FLAGSHIP,),
    "wide-field": (),
}
# Fields each workload constructs during set-up, named by the spec they come from.
FIELDS = {
    "ladder": LADDER,
    "certify": BRUTE_FORCE + (FLAGSHIP,),
    "repair-stream": (FLAGSHIP,),
    "wide-field": (WIDE,),
}


def spec_path(name: str) -> str:
    return os.path.join(HERE, "specs", f"{name}.json")


def dump_path(name: str) -> str:
    return os.path.join(HERE, "dumps", f"{name}.json")


def canonical_dump(obj) -> str:
    """The exact text ``qlrc construct --output`` writes for a dump."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens() -> dict:
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pass_rng(seed: int, workload: str, pass_index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{pass_index}")


def roundtrip_inputs(rnd: random.Random, q: int, k: int, n: int, count: int):
    """Seeded (message, erased position) pairs; messages are integer encodings."""
    return [([rnd.randrange(q) for _ in range(k)], rnd.randrange(n)) for _ in range(count)]


# ---------------------------------------------------------------------------
# reference arithmetic for checking encodings, independent of qlrc.field


class Gf2Reference:
    """GF(2^m) log/exp tables built from the modulus alone."""

    def __init__(self, m: int, modulus):
        q = 1 << m
        mod = sum(int(c) << i for i, c in enumerate(modulus))

        def mul(a: int, b: int) -> int:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if (a >> m) & 1:
                    a ^= mod
            return r

        for g in range(2, q):
            exp, x = [1], g
            while x != 1 and len(exp) < q:
                exp.append(x)
                x = mul(x, g)
            if len(exp) == q - 1:
                break
        else:
            exp = [1]  # GF(2): the only nonzero element
        self.exp = exp + exp
        self.log = [0] * q
        for i, v in enumerate(exp):
            self.log[v] = i

    def encode(self, message, rows) -> list[int]:
        exp, log = self.exp, self.log
        out = [0] * len(rows[0])
        for mi, row in zip(message, rows):
            if mi:
                lm = log[mi]
                for j, g in enumerate(row):
                    if g:
                        out[j] ^= exp[lm + log[g]]
        return out


def element_values(rows, p: int):
    """Integer encodings of a dump's coefficient-vector rows."""
    return [[sum(c * p**i for i, c in enumerate(vec)) for vec in row] for row in rows]


def encode_reference(dump: dict):
    """(generator rows as integers, reference arithmetic) for a GF(2^m) dump."""
    fld = dump["field"]
    return element_values(dump["generator_c"], 2), Gf2Reference(fld["m"], fld["modulus"])


# ---------------------------------------------------------------------------
# checks shared by the pass and the self-tests


def check_cli(golden_stdout: str, rc, stdout: str) -> str:
    """Empty when a CLI call exited 0 with exactly the golden output."""
    if rc != 0:
        return f"exit status {rc}"
    if stdout != golden_stdout:
        return "stdout differs from the golden"
    return ""


def check_dump_text(golden_sha: str, text: str) -> str:
    if sha256_text(text) != golden_sha:
        return "dump sha256 differs from the golden"
    return ""


def check_audit(golden: dict, report, trials: int, n: int) -> str:
    """The audit must pass, sample every trial, and stay within [floor, n].

    min_weight depends on the audit seed, so its golden is the certified
    distance floor max(degree_bound, agl_bound_int) that no sample may beat.
    """
    if report.ok is not golden["ok"]:
        return f"audit ok = {report.ok}"
    if len(report.trials) != trials:
        return f"audit ran {len(report.trials)} of {trials} trials"
    if not golden["min_weight_floor"] <= report.min_weight <= n:
        return f"audit min_weight {report.min_weight} outside [{golden['min_weight_floor']}, {n}]"
    return ""


# ---------------------------------------------------------------------------
# the pass


class Pass:
    """Runs and times operations, and records what their checks found."""

    def __init__(self, goldens: dict, work_dir: str, tracer=None):
        import qlrc.bounds
        import qlrc.cli
        import qlrc.construct

        self.cli = qlrc.cli
        self.construct = qlrc.construct
        self.bounds = qlrc.bounds
        self.goldens = goldens
        self.work = work_dir
        self.tracer = tracer
        self.ops: list[list] = []  # [kind, label, seconds, problem]
        self.starts: list[float | None] = []  # perf_counter() at each op's start; None if untimed
        self.encode: list[tuple[float, float]] = []  # (start, seconds) of each encode call
        self.repair: list[tuple[float, float]] = []  # (start, seconds) of each repair call
        self.scan_words = 0  # projective words the brute-force calls enumerate

    def _begin(self):
        if self.tracer is not None:
            self.tracer.op = len(self.ops)

    def record(self, kind: str, label: str, seconds: float, problem: str, start: float | None = None) -> None:
        self.ops.append([kind, label, seconds, problem])
        self.starts.append(start)

    def without_sampler(self, sampler) -> None:
        """Take the speed sampler's handler time out of every timed op and call."""

        def net(start, seconds):
            return seconds - sampler.inside(start, start + seconds)

        for op, start in zip(self.ops, self.starts):
            if start is not None:
                op[2] = net(start, op[2])
        self.encode = [(a, net(a, s)) for a, s in self.encode]
        self.repair = [(a, net(a, s)) for a, s in self.repair]

    def timed_s(self, n_ops: int) -> float:
        """Seconds of the timed ops among the first n_ops."""
        return sum(op[2] for op, start in zip(self.ops[:n_ops], self.starts) if start is not None)

    def cli_call(self, kind: str, label: str, argv: list[str], golden_stdout: str):
        """Call qlrc's CLI in-process with stdout captured; returns the problem found."""
        out, err = io.StringIO(), io.StringIO()
        self._begin()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # noqa: BLE001 - a crash is a failed operation
            rc = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        problem = check_cli(golden_stdout, rc, out.getvalue())
        self.record(kind, label, seconds, problem, t0)
        return problem

    def construct_call(self, kind: str, name: str) -> str:
        """CLI construct of one spec; checks the summary line and the dump bytes."""
        out = os.path.join(self.work, f"{name}.json")
        g = self.goldens
        problem = self.cli_call(
            kind, name, ["construct", "--spec", spec_path(name), "--output", out],
            g["construct_stdout"][name],
        )
        if not problem:
            try:
                with open(out, encoding="utf-8") as fh:
                    problem = check_dump_text(g["dumps"][name], fh.read())
            except OSError as e:
                problem = f"no dump written: {e}"
            self.ops[-1][3] = problem
        return out

    def library_call(self, kind: str, label: str, fn, *args, **kwargs):
        self._begin()
        t0 = time.perf_counter()
        try:
            result, problem = fn(*args, **kwargs), ""
        except Exception as e:  # noqa: BLE001 - a crash is a failed operation
            result, problem = None, f"{type(e).__name__}: {e}"
        self.record(kind, label, time.perf_counter() - t0, problem, t0)
        return result

    def roundtrips(self, label: str, inst, inputs, gen_values, reference) -> None:
        """Closed loop: encode, erase one symbol, repair it; one caller, no threads."""
        construct = self.construct
        words, repaired = [], []
        for msg, z in inputs:
            self._begin()
            t0 = time.perf_counter()
            try:
                word = construct.encode(inst, msg)
                t1 = time.perf_counter()
                received = list(word)
                received[z] = None
                t2 = time.perf_counter()
                sym = construct.repair(inst, received, z)
                t3 = time.perf_counter()
                problem = ""
            except Exception as e:  # noqa: BLE001 - a crash is a failed operation
                t1 = t2 = t3 = time.perf_counter()
                word, sym, problem = None, None, f"{type(e).__name__}: {e}"
            self.encode.append((t0, t1 - t0))
            self.repair.append((t2, t3 - t2))
            self.record("roundtrip", label, t3 - t0, problem, t0)
            words.append(word)
            repaired.append(sym)
        # checks run after the timed loop
        base = len(self.ops) - len(inputs)
        for i, ((msg, z), word, sym) in enumerate(zip(inputs, words, repaired)):
            op = self.ops[base + i]
            if op[3]:
                continue
            if [c.value() for c in word] != reference.encode(msg, gen_values):
                op[3] = "encoding differs from the reference encoding"
            elif sym != word[z]:
                op[3] = f"repaired symbol at {z} differs from the erased one"


def run_ladder(p: Pass, state, rnd) -> None:
    g = p.goldens
    for name in LADDER:
        dump = p.construct_call("construct", name)
        vseed = str(rnd.randrange(1, 1 << 31))
        p.cli_call("verify", name, ["verify", "--instance", dump, "--seed", vseed], g["verify_stdout"][name])
        p.cli_call("bounds", name, ["bounds", "--instance", dump], g["bounds_stdout"][name])


def run_certify(p: Pass, state, rnd) -> None:
    g = p.goldens
    for name in BRUTE_FORCE:
        d = state["raw"][name]
        q = d["field"]["p"] ** d["field"]["m"]
        p.scan_words += (q ** d["k"] - 1) // (q - 1)
        p.cli_call(
            "bruteforce", name, ["bounds", "--instance", dump_path(name), "--brute-force"],
            g["bruteforce_stdout"][name],
        )
    inst = state["instances"][FLAGSHIP]
    aseed = rnd.randrange(1, 1 << 31)
    report = p.library_call("audit", FLAGSHIP, p.bounds.weight_bound_audit, inst, trials=AUDIT_TRIALS, seed=aseed)
    if report is not None:
        p.ops[-1][3] = check_audit(g["audit"][FLAGSHIP], report, AUDIT_TRIALS, inst.n)
    p.cli_call("sweep", "n63_r6_q64", ["bounds", "--sweep-kappa", *SWEEP_ARGS], g["sweep_stdout"])


def run_repair_stream(p: Pass, state, rnd) -> None:
    inst = state["instances"][FLAGSHIP]
    inputs = roundtrip_inputs(rnd, inst.field.q, inst.k, inst.n, STREAM_ROUNDTRIPS)
    p.roundtrips(FLAGSHIP, inst, inputs, *encode_reference(state["raw"][FLAGSHIP]))


def run_wide_field(p: Pass, state, rnd) -> None:
    g = p.goldens
    dump = p.construct_call("construct", WIDE)
    vseed = str(rnd.randrange(1, 1 << 31))
    p.cli_call(
        "verify", WIDE,
        ["verify", "--instance", dump, "--trials", str(WIDE_VERIFY_TRIALS), "--seed", vseed],
        g["verify_stdout"][WIDE],
    )
    inst = p.library_call("load", WIDE, lambda: p.construct.instance_from_dump(_read_json(dump)))
    if inst is None:
        return
    inputs = roundtrip_inputs(rnd, inst.field.q, inst.k, inst.n, WIDE_ROUNDTRIPS)
    p.roundtrips(WIDE, inst, inputs, *encode_reference(_read_json(dump)))


RUNNERS = {
    "ladder": run_ladder,
    "certify": run_certify,
    "repair-stream": run_repair_stream,
    "wide-field": run_wide_field,
}


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up and the probe


def setup(workload: str) -> dict:
    """What the workload needs before its first timed call."""
    import qlrc.construct
    import qlrc.field
    import qlrc.cli  # noqa: F401 - CLI workloads call it; its import is set-up

    fields = {}
    for name in FIELDS[workload]:
        fields[name] = qlrc.field.field_from_descriptor(_read_json(spec_path(name))["field"])
    raw, instances = {}, {}
    for name in LOADED[workload]:
        raw[name] = _read_json(dump_path(name))
        instances[name] = qlrc.construct.instance_from_dump(raw[name])
    return {"fields": fields, "raw": raw, "instances": instances}


def check_inputs(state: dict, goldens: dict) -> list[str]:
    """Shipped dumps must be the golden dumps."""
    return [
        f"shipped dump {name} differs from the golden"
        for name, d in state["raw"].items()
        if check_dump_text(goldens["dumps"][name], canonical_dump(d))
    ]


def run_probe(p: Pass, rnd) -> None:
    """Reach every traced layer function once on the small probe instance."""
    import qlrc.agl
    import qlrc.bounds

    g = p.goldens
    dump = p.construct_call("probe.construct", PROBE)
    vseed = str(rnd.randrange(1, 1 << 31))
    p.cli_call("probe.verify", PROBE, ["verify", "--instance", dump, "--trials", "10", "--seed", vseed],
               g["verify_stdout"][PROBE])
    p.cli_call("probe.bruteforce", PROBE, ["bounds", "--instance", dump_path(PROBE), "--brute-force"],
               g["bruteforce_stdout"][PROBE])
    raw = _read_json(dump_path(PROBE))
    inst = p.construct.instance_from_dump(raw)
    report = p.library_call("probe.audit", PROBE, p.bounds.weight_bound_audit, inst, trials=3,
                            seed=rnd.randrange(1, 1 << 31))
    if report is not None:
        p.ops[-1][3] = check_audit(g["audit"][PROBE], report, 3, inst.n)
    p.roundtrips(PROBE, inst, roundtrip_inputs(rnd, inst.field.q, inst.k, inst.n, 10), *encode_reference(raw))

    sub = inst.eval_set.good.subgroup
    fld = inst.field
    theta = qlrc.agl.subgroup_from_MB(fld, 1, {fld.one()}, {fld.zero(), fld.one()})
    orbit = [inst.eval_set.points[i] for i in inst.eval_set.blocks[0]]

    def spectrum():
        graph = p.bounds.schreier_graph(orbit, sub, theta)
        lam = p.bounds.second_eigenvalue(graph)
        if abs(lam - len(theta)) > 1e-6:
            raise ValueError(f"second eigenvalue {lam} != stabilizer order {len(theta)}")

    p.library_call("probe.spectrum", PROBE, spectrum)


def field_timings(fields, rnd, pairs: int = 2000, inversions: int = 300) -> dict[str, float]:
    """Mean time of one mul, add and inv over seeded nonzero operands, per field, averaged."""
    mul, add, inv = [], [], []
    for fld in fields:
        xs = [fld.from_value(1 + rnd.randrange(fld.q - 1)) for _ in range(2 * pairs)]
        a, b = xs[:pairs], xs[pairs:]
        t0 = time.perf_counter()
        for x, y in zip(a, b):
            x * y
        t1 = time.perf_counter()
        for x, y in zip(a, b):
            x + y
        t2 = time.perf_counter()
        for x in a[:inversions]:
            x.inv()
        t3 = time.perf_counter()
        mul.append((t1 - t0) / pairs)
        add.append((t2 - t1) / pairs)
        inv.append((t3 - t2) / inversions)
    return {
        "field.mul_ns": sum(mul) / len(mul) * 1e9,
        "field.add_ns": sum(add) / len(add) * 1e9,
        "field.inv_us": sum(inv) / len(inv) * 1e6,
    }


# Inclusive span totals printed per operation in the traced report.
REPORTED_SPANS = (
    "construct.build_code", "construct.verify_instance", "agl.good_polynomial",
    "bounds.distance_bruteforce", "bounds.weight_bound_audit",
)


def op_span_totals(tracer, ops, inside, factor: float) -> dict[str, dict[str, float]]:
    """Seconds at the reference speed inside REPORTED_SPANS, per pass operation.

    inside(start, end) is the sampler's handler time within a span, taken out.
    """
    totals: dict[str, dict[str, float]] = {}
    for i, name in enumerate(tracer.names):
        if name in REPORTED_SPANS and 0 <= tracer.op_ids[i] < len(ops):
            kind, label = ops[tracer.op_ids[i]][:2]
            row = totals.setdefault(f"{kind} {label}", {})
            start, end = tracer.starts[i] * 1e-9, tracer.ends[i] * 1e-9
            row[name] = row.get(name, 0.0) + (end - start - inside(start, end)) * factor
    return totals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sampler = SpeedSampler(interval=0.01)
    sampler.start()
    try:
        state = setup(args.workload)
    finally:
        sampler.stop()
    result: dict = {"ready": time.monotonic(), "setup_factor": sampler.factor(), "setup_sampler_s": sampler.total()}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    if not args.trace:
        # Only the traced field micro-timings use these; the timed calls build their own.
        del state["fields"]

    goldens = load_goldens()
    input_problems = check_inputs(state, goldens)
    rnd = pass_rng(args.seed, args.workload, args.pass_index)
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    tracer = None
    try:
        if args.trace:
            from spans import Tracer  # perfbench/spans.py, next to this file

            tracer = Tracer()
            tracer.install()
        p = Pass(goldens, work, tracer)
        sampler = SpeedSampler()
        sampler.start()
        try:
            RUNNERS[args.workload](p, state, rnd)
            n_ops = len(p.ops)
            if tracer is not None:
                mark = tracer.mark()
                run_probe(p, pass_rng(args.seed, "probe", args.pass_index))
                tracer.uninstall()
        finally:
            sampler.stop()
        p.without_sampler(sampler)
        factor = sampler.factor()
        result["pass_s"] = p.timed_s(n_ops)
        result["pass_ref_s"] = result["pass_s"] * factor
        result["speed_samples"] = len(sampler.kernel)
        if tracer is not None:
            from spans import layer_metrics, read_mismatches, scale_to_reference

            layers, from_probe = layer_metrics(tracer, mark, sampler.inside)
            layers.update(field_timings(list(state["fields"].values()), rnd))
            result["layers"] = scale_to_reference(layers, factor)
            result["from_probe"] = from_probe
            result["op_spans"] = op_span_totals(tracer, p.ops[:n_ops], sampler.inside, factor)
            for problem in read_mismatches(tracer):
                p.record("repair-reads", "trace", 0.0, problem)
        for problem in input_problems:
            p.record("input", "dumps", 0.0, problem)
        result["ops"] = p.ops
        result["encode_us"] = [s * 1e6 for _, s in p.encode]
        result["repair_us"] = [s * 1e6 for _, s in p.repair]
        result["scan_words"] = p.scan_words
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
