"""Command-line front end: construct, verify, bounds, repair, search.

All randomized paths run off one seeded generator, so identical inputs and
seeds give byte-identical outputs.  JSON goes out with sorted keys; tables
go out as plain CSV.  Exit codes: 0 ok, 2 bad input, 3 construction
failure, 4 verification failure, 5 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import construct as construct_mod
from .agl import _k_span
from .errors import ConstructionError, InputError, ResourceError, VerificationError
from .field import Field, json_text, prime_power
from .rng import Xorshift64Star


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except (ValueError, RecursionError) as e:  # bad UTF-8 or syntax, too many digits or levels
        raise InputError(f"{path} is not valid JSON: {e}") from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {output}: {e}") from None


def _cmd_construct(args) -> int:
    inst = construct_mod.instance_from_spec(_load_json(args.spec))
    if args.output is not None:  # written first: an unwritable path prints no summary
        dump = construct_mod.instance_to_dump(inst)
        _emit(json_text(dump) + "\n", args.output)
    print(inst.summary())
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


def _read_gg_file(path: str) -> dict[int, str]:
    """User-supplied kappa -> bound column, echoed verbatim into the table.

    Blank lines and lines starting with # are skipped.  The first other line
    is a header when its first field is not an integer; every data line is
    one integer kappa, a comma and a nonempty value without commas, and no
    kappa may repeat.  Anything else raises InputError naming the line, or
    only the path when the text is not UTF-8 or a kappa has too many digits.
    """
    table: dict[int, str] = {}
    header_allowed = True
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                head, comma, rest = (part.strip() for part in line.partition(","))
                kappa = re.fullmatch(r"[+-]?[0-9]+", head)
                if header_allowed and not kappa:
                    header_allowed = False
                    continue
                header_allowed = False
                if not kappa or not comma or not rest or "," in rest:
                    raise InputError(f"{path} line {lineno}: expected kappa,value, got {line!r}")
                if int(head) in table:
                    raise InputError(f"{path} line {lineno}: kappa {int(head)} given twice")
                table[int(head)] = rest
    except (OSError, ValueError) as e:  # ValueError: bad UTF-8, a kappa of too many digits
        raise InputError(f"cannot read {path}: {e}") from None
    return table


def _cmd_bounds(args) -> int:
    # the only subcommand that reads the bounds layer, so the only one that compiles it
    from . import bounds as bounds_mod

    if args.sweep_kappa:
        if args.n is None or args.r is None or args.q is None:
            raise InputError("--sweep-kappa needs --n, --r, and --q")
        n, r, q = args.n, args.r, args.q
        prime_power(q)
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
    if args.cap < 1:
        raise InputError(f"--cap must be at least 1, got {args.cap}")
    inst = construct_mod.instance_from_dump(_load_json(args.instance))
    params = bounds_mod.css_params(inst)  # exit 4 unless verify's deterministic checks pass
    if args.brute_force:
        params = params._replace(delta_exact=bounds_mod.exact_distance(inst, cap=args.cap))
    _emit(json_text(params.to_json_dict()) + "\n", args.output)
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
    noun = "repairs exact"
    if args.erase is None:
        if args.trials < 1:
            raise InputError(f"--trials must be at least 1, got {args.trials}")
        # a trial draws its erased position before its message
        erasures = (
            (f"trial {t}: erased {z},", z) for t in range(args.trials) for z in [rng.below(inst.n)]
        )
    elif args.erase == "all":
        erasures = ((f"position {z}:", z) for z in range(inst.n))
        noun = "positions repaired exactly"
    else:
        try:
            z = int(args.erase)
        except ValueError:
            raise InputError(f"--erase takes an index or 'all', not {args.erase!r}") from None
        if not 0 <= z < inst.n:
            raise InputError(f"erase index {z} out of range for n = {inst.n}")
        erasures = [(f"position {z}:", z)]
    if not inst.n:
        raise InputError("the instance has n = 0: no position to repair")
    problem = construct_mod.structure_problem(inst)  # verify's deterministic checks, as in bounds
    if problem:
        raise VerificationError(problem)

    lines: list[str] = []
    reads: list[int] = []
    wrong = 0
    for label, z in erasures:
        word = construct_mod.encode(inst, [rng.below(fld.q) for _ in range(inst.k)])
        received = _ReadLog(word)
        received[z] = None
        ok = construct_mod.repair(inst, received, z) == word[z]
        wrong += not ok
        reads.append(received.reads)
        lines.append(f"{label} {'OK' if ok else 'MISMATCH'}, {received.reads} reads")

    read_counts = sorted(set(reads))
    reads_note = (
        f"{read_counts[0]} reads each"
        if len(read_counts) == 1
        else f"reads varied: {read_counts}"
    )
    for line in lines:
        print(line)
    print(f"{len(reads) - wrong}/{len(reads)} {noun}, {reads_note}")
    if wrong:
        raise VerificationError(f"{wrong} repairs returned a wrong symbol")
    r = inst.exps.r  # the locality the dump claims, not inst.r, read off the blocks repaired
    over = sum(count > r for count in reads)
    if over:
        raise VerificationError(f"{over} repairs read more than r = {r} symbols")
    return 0


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _cmd_search(args) -> int:
    """List each H = {a*x + b : a in M, b in B} by its shape (e, B): B one
    of the K-spans that the greedy K-basis of the field grows, K of degree d,
    and M the only subgroup of order e of the cyclic units; the first d to
    reach a shape lists it.  A map a*x + b with a != 1 fixes only b/(1 - a),
    which lies in the K-subspace B, since (1 - a)^-1 lies in K; and
    a*x + (1 - a)*beta fixes each beta in B.  So H fixes exactly B when e > 1
    and no point when e = 1: n_max, the points with a free orbit, is q - |B|
    or q, and never 0, since e > 1 and B the whole field make |H| = e*q > q.
    """
    q = args.q
    p, m = prime_power(q)
    try:
        modulus = None if args.modulus is None else [int(c) for c in args.modulus.split(",")]
    except ValueError:
        raise InputError(f"--modulus {args.modulus!r} is not a list of integers") from None
    fld = Field(p, m, modulus)

    rows = []
    seen: set[tuple[int, frozenset]] = set()
    for d in _divisors(m):
        qd = p**d
        spans = [frozenset({0})]
        spans += (frozenset(span) for _, span in _k_span(fld, fld.subfield_elements(d), range(q)))
        for e in _divisors(qd - 1):
            for B in spans:
                order = e * len(B)
                if order < 3 or order > q or (e, B) in seen:
                    continue
                seen.add((e, B))
                rows.append((order - 1, d, e, len(B), q - len(B) if e > 1 else q))
    rows.sort()
    out = [
        "# one canonical K-subspace per dimension; conjugate subgroups are omitted",
        "r,subfield_degree,m_order,b_order,n_max",
    ]
    out.extend(f"{r_},{d},{e},{bo},{nm}" for r_, d, e, bo, nm in rows)
    _emit("\n".join(out) + "\n", args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qlrc parser, built on the first call and shared after it: a parse
    leaves no state on it, and help text is laid out when it is printed."""
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
    v.add_argument("--seed", type=int, default=None, help="repair-trial seed (default: the dump's)")

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
