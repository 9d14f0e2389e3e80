"""Record goldens.json and the input dumps the workloads load.

    PYTHONPATH=src python3 perfbench/record_goldens.py

Goldens are the reference outputs every benchmark run is checked against:
the sha256 of each dump ``qlrc construct`` writes, the exact stdout of each
construct, verify and bounds call, and the audit's ok flag and distance
floor.  None of them depends on a seed.  Record them only from a commit
whose outputs are the reference; re-recording after a change to qlrc would
hide the very differences the goldens exist to catch.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import workload as wl

import qlrc.bounds
import qlrc.cli
import qlrc.construct


def cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = qlrc.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"qlrc {' '.join(argv)} exited {rc}")
    return out.getvalue()


def main() -> int:
    names = sorted(f[:-5] for f in os.listdir(os.path.join(wl.HERE, "specs")) if f.endswith(".json"))
    goldens = {
        "dumps": {}, "construct_stdout": {}, "verify_stdout": {}, "bounds_stdout": {},
        "bruteforce_stdout": {}, "audit": {},
    }
    with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
        for name in names:
            path = os.path.join(tmp, f"{name}.json")
            goldens["construct_stdout"][name] = cli(["construct", "--spec", wl.spec_path(name), "--output", path])
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            goldens["dumps"][name] = wl.sha256_text(text)
            dump = json.loads(text)
            if name in wl.LADDER + (wl.WIDE, wl.PROBE):
                trials = ["--trials", str(wl.WIDE_VERIFY_TRIALS)] if name == wl.WIDE else []
                goldens["verify_stdout"][name] = cli(["verify", "--instance", path, *trials])
            if name in wl.LADDER:
                goldens["bounds_stdout"][name] = cli(["bounds", "--instance", path])
            if name in wl.BRUTE_FORCE:
                goldens["bruteforce_stdout"][name] = cli(["bounds", "--instance", path, "--brute-force"])
            if name in (wl.FLAGSHIP, wl.PROBE):
                inst = qlrc.construct.instance_from_dump(dump)
                params = qlrc.bounds.css_params(inst)
                report = qlrc.bounds.weight_bound_audit(inst, trials=wl.AUDIT_TRIALS)
                goldens["audit"][name] = {
                    "ok": report.ok,
                    "min_weight_floor": max(params.degree_bound, params.agl_bound_int),
                }
            if any(name in names_ for names_ in wl.LOADED.values()):
                with open(wl.dump_path(name), "w", encoding="utf-8") as fh:
                    json.dump(dump, fh, sort_keys=True, separators=(",", ":"))
                    fh.write("\n")
            print(f"recorded {name}", file=sys.stderr)
    goldens["sweep_stdout"] = cli(["bounds", "--sweep-kappa", *wl.SWEEP_ARGS])
    with open(os.path.join(wl.HERE, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
