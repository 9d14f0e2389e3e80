"""Command-line front end: construct, verify, bounds, repair, search.

All randomized paths run off one seeded generator, so identical inputs and
seeds give byte-identical outputs.  JSON goes out with sorted keys; tables
go out as plain CSV.  Exit codes: 0 ok, 2 bad input, 3 construction
failure, 4 verification failure, 5 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import bounds as bounds_mod
from . import construct as construct_mod
from .agl import orbits, subgroup_from_generators, subspace_basis
from .errors import ConstructionError, InputError, ResourceError, VerificationError
from .field import Field
from .rng import Xorshift64Star


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_construct(args) -> int:
    spec = _load_json(args.spec)
    inst = construct_mod.instance_from_spec(spec)
    print(inst.summary())
    if args.output is not None:
        dump = construct_mod.instance_to_dump(inst)
        _emit(json.dumps(dump, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    inst = construct_mod.instance_from_dump(_load_json(args.instance))
    checks = construct_mod.verify_instance(inst, trials=args.trials, seed=args.seed)
    failed = []
    for c in checks:
        if c.ok:
            print(f"{c.name}: PASS")
        else:
            print(f"{c.name}: FAIL ({c.detail})")
            failed.append(c.name)
    if failed:
        raise VerificationError(f"failed checks: {', '.join(failed)}")
    print(f"verified: {len(checks)}/{len(checks)} checks passed")
    return 0


def _prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p**m, or InputError when q is not a prime power."""
    p = bounds_mod.smallest_prime_factor(q)
    m = 0
    qq = q
    while qq % p == 0:
        qq //= p
        m += 1
    if qq != 1:
        raise InputError(f"q = {q} is not a prime power")
    return p, m


def _read_gg_file(path: str) -> dict[int, str]:
    """User-supplied kappa -> bound column, echoed verbatim into the table."""
    table: dict[int, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                head, _, rest = line.partition(",")
                try:
                    table[int(head)] = rest.strip()
                except ValueError:
                    continue  # header row
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    return table


def _cmd_bounds(args) -> int:
    if args.sweep_kappa:
        if args.n is None or args.r is None or args.q is None:
            raise InputError("--sweep-kappa needs --n, --r, and --q")
        n, r, q = args.n, args.r, args.q
        _prime_power(q)
        if n > q:
            raise InputError(f"n = {n} exceeds the field size q = {q}")
        gg = _read_gg_file(args.gg_file) if args.gg_file else None
        lines = ["kappa,degree_bound,agl_bound" + (",gg_bound" if gg is not None else "")]
        for kappa, db, ab in bounds_mod.sweep_rows(n, r):
            row = f"{kappa},{db},{ab}"
            if gg is not None:
                row += "," + gg.get(kappa, "")
            lines.append(row)
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    if args.instance is None:
        raise InputError("bounds needs --instance or --sweep-kappa")
    inst = construct_mod.instance_from_dump(_load_json(args.instance))
    params = bounds_mod.css_params(inst)  # exit 4 unless verify's deterministic checks pass
    if args.brute_force:
        params = replace(params, delta_exact=bounds_mod.exact_distance(inst, cap=args.cap))
    _emit(json.dumps(params.to_json_dict(), sort_keys=True, indent=2) + "\n", args.output)
    return 0


class _ReadLog(list):
    """List that counts how many stored symbols were actually read."""

    def __init__(self, data):
        super().__init__(data)
        self.reads = 0

    def __getitem__(self, i):
        v = super().__getitem__(i)
        if v is not None:
            self.reads += 1
        return v


def _cmd_repair(args) -> int:
    inst = construct_mod.instance_from_dump(_load_json(args.instance))
    fld = inst.field
    rng = Xorshift64Star(args.seed)

    def run_one(z: int) -> tuple[bool, int]:
        msg = [rng.element(fld) for _ in range(inst.k)]
        word = construct_mod.encode(inst, msg)
        received = _ReadLog(word)
        received[z] = None
        got = construct_mod.repair(inst, received, z)
        return got == word[z], received.reads

    lines: list[str] = []
    results: list[tuple[bool, int]] = []
    if args.erase == "all":
        for z in range(inst.n):
            ok, reads = run_one(z)
            results.append((ok, reads))
            lines.append(f"position {z}: {'OK' if ok else 'MISMATCH'}, {reads} reads")
        noun = "positions repaired exactly"
    elif args.erase is not None:
        try:
            z = int(args.erase)
        except ValueError:
            raise InputError(f"--erase takes an index or 'all', not {args.erase!r}") from None
        if not 0 <= z < inst.n:
            raise InputError(f"erase index {z} out of range for n = {inst.n}")
        ok, reads = run_one(z)
        results.append((ok, reads))
        lines.append(f"position {z}: {'OK' if ok else 'MISMATCH'}, {reads} reads")
        noun = "repairs exact"
    else:
        if args.trials < 1:
            raise InputError(f"--trials must be at least 1, got {args.trials}")
        for t in range(args.trials):
            z = rng.below(inst.n)
            ok, reads = run_one(z)
            results.append((ok, reads))
            lines.append(f"trial {t}: erased {z}, {'OK' if ok else 'MISMATCH'}, {reads} reads")
        noun = "repairs exact"

    good = sum(1 for ok, _ in results if ok)
    read_counts = sorted({reads for _, reads in results})
    reads_note = (
        f"{read_counts[0]} reads each"
        if len(read_counts) == 1
        else f"reads varied: {read_counts}"
    )
    for line in lines:
        print(line)
    print(f"{good}/{len(results)} {noun}, {reads_note}")
    if good != len(results):
        raise VerificationError(f"{len(results) - good} repairs returned a wrong symbol")
    return 0


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _cmd_search(args) -> int:
    q = args.q
    p, m = _prime_power(q)
    try:
        modulus = [int(c) for c in args.modulus.split(",")] if args.modulus else None
    except ValueError:
        raise InputError(f"--modulus {args.modulus!r} is not a list of integers") from None
    fld = Field(p, m, modulus)
    everything = range(q)
    prim = fld.primitive_element().v  # 1 in GF(2)

    rows = []
    seen: set[frozenset] = set()
    for d in _divisors(m):
        qd = p**d
        basis = subspace_basis(fld, d, everything)  # canonical K-basis of the field
        k_gen = fld.power(prim, (q - 1) // (qd - 1))  # 1 when qd = 2
        for e in _divisors(qd - 1):
            m_gen = fld.power(k_gen, (qd - 1) // e)
            for s in range(0, m // d + 1):
                order = e * qd**s
                if order < 3 or order > q:
                    continue
                sub = subgroup_from_generators(fld, d, m_gen, basis[:s])
                key = frozenset(sub.maps)
                if key in seen:
                    continue
                seen.add(key)
                n_max = sum(len(o) for o in orbits(sub, everything) if len(o) == order)
                if n_max == 0:
                    continue
                rows.append((order - 1, d, e, qd**s, n_max))
    rows.sort()
    out = [
        "# one canonical K-subspace per dimension; conjugate subgroups are omitted",
        "r,subfield_degree,m_order,b_order,n_max",
    ]
    out.extend(f"{r_},{d},{e},{bo},{nm}" for r_, d, e, bo, nm in rows)
    _emit("\n".join(out) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlrc",
        description="Locally recoverable codes containing their duals, and the "
        "quantum code parameters and distance bounds that follow from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build an instance from a JSON spec")
    c.add_argument("--spec", required=True, help="path to the instance spec JSON")
    c.add_argument("--output", help="where to write the instance dump JSON")

    v = sub.add_parser("verify", help="re-run every structural check on a dump")
    v.add_argument("--instance", required=True, help="path to an instance dump JSON")
    v.add_argument("--trials", type=int, default=100, help="repair trials (default 100)")
    v.add_argument("--seed", type=int, default=None, help="audit seed (default: instance seed)")

    b = sub.add_parser("bounds", help="distance bounds for an instance or a kappa sweep")
    b.add_argument("--instance", help="path to an instance dump JSON")
    b.add_argument(
        "--brute-force",
        action="store_true",
        help="add the exact distance: a witness at the degree bound, else enumeration",
    )
    b.add_argument("--cap", type=int, default=1 << 24, help="cap on q^k when enumeration is needed")
    b.add_argument("--sweep-kappa", action="store_true", help="emit a kappa/bounds CSV")
    b.add_argument("--n", type=int, help="block length for the sweep")
    b.add_argument("--r", type=int, help="locality for the sweep")
    b.add_argument("--q", type=int, help="field size for the sweep")
    b.add_argument("--gg-file", help="CSV kappa,value pairs appended as a gg_bound column")
    b.add_argument("--output", help="write the table/report here instead of stdout")

    rp = sub.add_parser("repair", help="erase coordinates and repair them from blocks")
    rp.add_argument("--instance", required=True, help="path to an instance dump JSON")
    rp.add_argument("--erase", help="coordinate index to erase, or 'all'")
    rp.add_argument("--trials", type=int, default=100, help="random-erasure trials")
    rp.add_argument("--seed", type=int, default=1, help="PRNG seed for messages/positions")

    s = sub.add_parser("search", help="list subgroup choices and achievable (n, r)")
    s.add_argument("--q", type=int, required=True, help="field size to search")
    s.add_argument("--modulus", help="comma-separated ascending modulus coefficients")
    s.add_argument("--output", help="write the CSV here instead of stdout")
    return parser


_DISPATCH = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "repair": _cmd_repair,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConstructionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ResourceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
