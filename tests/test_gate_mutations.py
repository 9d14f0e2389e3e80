"""Seeded single-field mutations of the shipped dumps: `qlrc bounds` certifies
exactly the dumps that `qlrc verify` accepts, `qlrc repair --erase all`
succeeds exactly on them, and none of the three crashes.

Each mutant changes one thing: a list entry is dropped, emptied, swapped or
duplicated, a scalar moves by one, one digit of a field element flips, a bool
is negated, or a descriptor list is reversed.  The seeded generator picks
which entry or digit.  verify and bounds load a dump the same way, so a
mutant either exits 2 in both, or verify exits 4 and bounds exits 4 too, or
verify exits 0 and bounds exits as it does on the unmutated dump.  Only
q8_n8_k5 is under the enumeration cap used here, but the witness search
meets the degree bound on it and on the three other small dumps, so bounds
exits 0 on all four without enumerating.  On the flagship the search leaves
a gap and bounds exits 5 at the cap, which keeps the test to a few seconds;
the gate is what is tested.
"""

import json
from pathlib import Path

import pytest

from qlrc.cli import main
from qlrc.rng import Xorshift64Star

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "dumps").glob("*.json"))
CAP = str(1 << 16)
SEED = 6
ELEMENT_LISTS = (
    ("points",),
    ("u",),
    ("g",),
    ("alpha",),
    ("generator_c",),
    ("generator_d",),
    ("subgroup", "M_generator"),
    ("subgroup", "B_basis"),
)


def _entries(d, path=()):
    """(path, value) for every dict entry, nested descriptors included."""
    for key, value in d.items():
        yield path + (key,), value
        if isinstance(value, dict):
            yield from _entries(value, path + (key,))


def _digits(value, path=()):
    """Paths to the coefficient digits inside a (nested) element list."""
    if isinstance(value, list):
        for i, v in enumerate(value):
            yield from _digits(v, path + (i,))
    elif isinstance(value, int):
        yield path


def _exit_code(argv):
    """What the qlrc command line would exit with; a traceback exits 1."""
    try:
        return main(argv)
    except Exception:  # noqa: BLE001 - a crash is a finding, not a test error
        return 1


def _mutant(dump, path, change):
    out = json.loads(json.dumps(dump))
    *head, last = path
    node = out
    for key in head:
        node = node[key]
    node[last] = change(node[last])
    return out


def _mutants(dump, rng):
    def two(size):
        i = rng.below(size)
        return i, (i + 1 + rng.below(size - 1)) % size

    def swap(i, j):
        def change(v):
            v[i], v[j] = v[j], v[i]
            return v

        return change

    def overwrite(i, j):
        def change(v):
            v[j] = json.loads(json.dumps(v[i]))
            return v

        return change

    for path, value in _entries(dump):
        name = ".".join(path)
        if isinstance(value, list) and value:
            i = rng.below(len(value))
            yield f"{name} drop {i}", _mutant(dump, path, lambda v: v[:i] + v[i + 1 :])
            yield f"{name} empty", _mutant(dump, path, lambda v: [])
            if len(value) > 1:
                i, j = two(len(value))
                yield f"{name} swap {i} {j}", _mutant(dump, path, swap(i, j))
                yield f"{name} duplicate {i} over {j}", _mutant(dump, path, overwrite(i, j))
            if len(path) > 1:
                yield f"{name} reverse", _mutant(dump, path, lambda v: v[::-1])
        elif isinstance(value, bool):
            yield f"{name} negate", _mutant(dump, path, lambda v: not v)
        elif isinstance(value, int):
            yield f"{name} +1", _mutant(dump, path, lambda v: v + 1)
            yield f"{name} -1", _mutant(dump, path, lambda v: v - 1)
    p = dump["field"]["p"]
    for path in ELEMENT_LISTS:
        value = dump
        for key in path:
            value = value[key]
        slots = list(_digits(value))
        if slots:
            slot = slots[rng.below(len(slots))]
            yield f"{'.'.join(path)} flip {list(slot)}", _mutant(
                dump, path + slot, lambda c: (c + 1) % p
            )


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_bounds_certifies_exactly_what_verify_accepts(tmp_path, capsys, path):
    dump = json.loads(path.read_text())
    base = _exit_code(["bounds", "--instance", str(path), "--brute-force", "--cap", CAP])
    assert base in (0, 5)
    target = tmp_path / "mutant.json"
    seen = wrong = 0
    disagreements = []
    for name, mutant in _mutants(dump, Xorshift64Star(SEED)):
        seen += 1
        target.write_text(json.dumps(mutant))
        verify = _exit_code(["verify", "--instance", str(target), "--trials", "5"])
        bounds = _exit_code(["bounds", "--instance", str(target), "--brute-force", "--cap", CAP])
        repair = _exit_code(["repair", "--instance", str(target), "--erase", "all"])
        capsys.readouterr()
        wrong += verify != 0
        expected = base if verify == 0 else verify
        if (
            verify not in (0, 2, 4)
            or bounds != expected
            or repair not in (0, 2, 4)
            or (repair == 0) != (verify == 0)
        ):
            disagreements.append(f"{name}: verify {verify}, bounds {bounds}, repair {repair}")
    assert not disagreements
    assert seen > 50 and wrong > seen // 2
