"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qlrc import (
    Field,
    Xorshift64Star,
    construct,
    encode,
    instance_from_dump,
    instance_to_dump,
    repair,
    subgroup_from_MB,
)
from qlrc import cli
from qlrc.cli import main
from qlrc.errors import InputError
from qlrc.field import prime_power

from conftest import primitive_element

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "perfbench" / "dumps"


@pytest.fixture()
def spec8(tmp_path):
    f8 = Field(2, 3)
    one, a = f8.one(), f8.gen()
    sub = subgroup_from_MB(f8, 1, {one}, {f8.zero(), one, a, a + one})
    spec = {
        "field": {"p": 2, "m": 3},
        "n": 8,
        "r": 3,
        "k": 5,
        "subgroup": sub.descriptor(),
        "seed": 1,
    }
    path = tmp_path / "spec8.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture()
def dump8(tmp_path, spec8):
    out = tmp_path / "dump8.json"
    assert main(["construct", "--spec", str(spec8), "--output", str(out)]) == 0
    return out


@pytest.fixture()
def spec32(tmp_path):
    f32 = Field(2, 5)
    one, a = f32.one(), f32.gen()
    sub = subgroup_from_MB(f32, 1, {one}, {f32.zero(), one, a, a + one})
    spec = {
        "field": {"p": 2, "m": 5},
        "n": 32,
        "r": 3,
        "k": 19,
        "subgroup": sub.descriptor(),
        "seed": 1,
    }
    path = tmp_path / "spec32.json"
    path.write_text(json.dumps(spec))
    return path


def test_construct_summary_and_dump(spec32, tmp_path, capsys, inst32):
    out = tmp_path / "dump32.json"
    rc = main(["construct", "--spec", str(spec32), "--output", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "[32,19]_32 locality 3, dual-containing: OK, qLRC [[32,6]]_32"
    dumped = json.loads(out.read_text())
    assert dumped == instance_to_dump(inst32)


def test_construct_rejects_small_k(tmp_path, spec8, capsys):
    spec = json.loads(spec8.read_text())
    spec["k"] = 4  # k = n/2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    rc = main(["construct", "--spec", str(bad)])
    assert rc == 2
    assert "n/2" in capsys.readouterr().err


def test_construct_missing_file_is_input_error(capsys):
    assert main(["construct", "--spec", "/nonexistent/spec.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [b'{"n": "\xff"}', b'{"n": 1' + b"0" * 5000 + b"}", b"[" * 100000 + b"]" * 100000],
    ids=["invalid-utf8", "integer-past-4300-digits", "nested-past-the-recursion-limit"],
)
@pytest.mark.parametrize(
    "flag", [["construct", "--spec"], ["verify", "--instance"]], ids=["construct", "verify"]
)
def test_undecodable_json_exits_2(tmp_path, capsys, data, flag):
    """The JSON reader raised UnicodeDecodeError, ValueError or RecursionError
    on these, a traceback and exit 1."""
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main([*flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not valid JSON: ")


@pytest.mark.parametrize(
    "data", [b"kappa,gg\n1,\xff\n", b"1" * 5000 + b",9\n"], ids=["invalid-utf8", "huge-kappa"]
)
def test_undecodable_gg_file_exits_2(tmp_path, capsys, data):
    gg = tmp_path / "gg.csv"
    gg.write_bytes(data)
    argv = ["bounds", "--sweep-kappa", "--n", "8", "--r", "3", "--q", "8", "--gg-file", str(gg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {gg}: ")


def test_construct_extended_field_flagged(tmp_path, capsys):
    f9 = Field(3, 2)
    g9 = primitive_element(f9)
    m4 = {g9 ** (2 * i) for i in range(4)}
    sub = subgroup_from_MB(f9, 2, m4, {f9.zero()})
    spec = {
        "field": {"p": 3, "m": 2},
        "n": 8,
        "r": 3,
        "k": 5,
        "subgroup": sub.descriptor(),
        "evaluation_domain": "orbits",
    }
    path = tmp_path / "spec9.json"
    path.write_text(json.dumps(spec))
    assert main(["construct", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(extended field)" in out
    assert "[[8,2]]_81" in out


def test_verify_fresh_instance_passes(dump8, capsys):
    rc = main(["verify", "--instance", str(dump8), "--trials", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified: 7/7 checks passed" in out
    assert out.count("PASS") == 7


def test_verify_tampered_multiplier_exits_4(tmp_path, dump8, capsys):
    d = json.loads(dump8.read_text())
    f8 = Field(2, 3)
    u0 = f8.element(d["u"][0])
    d["u"][0] = (u0 + f8.one()).to_list()
    bad = tmp_path / "bad_dump.json"
    bad.write_text(json.dumps(d))
    rc = main(["verify", "--instance", str(bad), "--trials", "5"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "multiplier-power-sums: FAIL" in captured.out
    assert "multiplier-power-sums" in captured.err


def test_verify_tampered_g_exits_4(tmp_path, dump8, capsys):
    d = json.loads(dump8.read_text())
    width = len(d["g"][0])
    one_vec = [1] + [0] * (width - 1)
    zero_vec = [0] * width
    d["g"] = [zero_vec, zero_vec, zero_vec, zero_vec, one_vec]  # x^4: not block-constant
    bad = tmp_path / "bad_g.json"
    bad.write_text(json.dumps(d))
    rc = main(["verify", "--instance", str(bad), "--trials", "5"])
    assert rc == 4
    assert "block-polynomial-constancy: FAIL" in capsys.readouterr().out


def test_verify_tampered_dual_rows_exit_4(tmp_path, tampered_dual_dumps, capsys):
    for i, (d, check) in enumerate(tampered_dual_dumps):
        bad = tmp_path / f"bad_d{i}.json"
        bad.write_text(json.dumps(d))
        rc = main(["verify", "--instance", str(bad), "--trials", "5"])
        assert rc == 4
        assert f"{check}: FAIL" in capsys.readouterr().out


def test_verify_blocks_that_are_not_orbits_exit_4(tmp_path, dump8, capsys):
    d = json.loads(dump8.read_text())
    assert d["subgroup"]["B_basis"] == [[1, 0, 0], [0, 1, 0]]
    d["subgroup"]["B_basis"] = [[1, 0, 0], [0, 0, 1]]  # {0, 1, a^2, 1 + a^2}
    bad = tmp_path / "bad_orbits.json"
    bad.write_text(json.dumps(d))
    rc = main(["verify", "--instance", str(bad), "--trials", "5"])
    assert rc == 4
    out = capsys.readouterr().out
    assert "block-polynomial-constancy: FAIL (block (0, 1, 2, 3) is not a free orbit" in out
    assert out.count("FAIL") == 1


@pytest.mark.parametrize("which", range(3))
def test_bounds_brute_force_tampered_dual_rows_exit_4(tmp_path, tampered_dual_dumps, capsys, which):
    bad = tmp_path / "bad_d.json"
    bad.write_text(json.dumps(tampered_dual_dumps[which][0]))
    assert main(["bounds", "--instance", str(bad), "--brute-force"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dual generator" in captured.err


def test_bounds_report_json(dump8, capsys):
    rc = main(["bounds", "--instance", str(dump8)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "n": 8,
        "kappa": 2,
        "q": 8,
        "r": 3,
        "ell": 5,
        "p": 2,
        "degree_bound": 3,
        "agl_bound_real": pytest.approx(1.5278640450004204),
        "agl_bound_int": 2,
        "singleton_rhs_at_agl_bound": 4,
        "optimal": True,
        "delta_exact": None,
    }


def test_bounds_rejects_a_stored_ell_that_disagrees(tmp_path, dump8, capsys):
    d = json.loads(dump8.read_text())
    d["ell"] = 1  # would certify degree_bound 4 on a distance-3 code
    bad = tmp_path / "bad_ell.json"
    bad.write_text(json.dumps(d))
    for extra in ([], ["--brute-force"]):
        assert main(["bounds", "--instance", str(bad), *extra]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ell" in captured.err


def test_bounds_blocks_that_are_not_orbits_exit_4(tmp_path, dump8, capsys):
    d = json.loads(dump8.read_text())
    d["subgroup"]["B_basis"] = [[1, 0, 0], [0, 0, 1]]  # blocks are no longer orbits
    bad = tmp_path / "bad_orbits.json"
    bad.write_text(json.dumps(d))
    for extra in ([], ["--brute-force"]):
        assert main(["bounds", "--instance", str(bad), *extra]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "block (0, 1, 2, 3) is not a free orbit of the subgroup" in captured.err


def _edited_dump(tmp_path, stem, **edits):
    d = json.loads((SHIPPED / f"{stem}.json").read_text())
    for key, edit in edits.items():
        d[key] = edit(d[key])
    path = tmp_path / f"{stem}_edited.json"
    path.write_text(json.dumps(d))
    return path


@pytest.mark.parametrize(
    "key, edit",
    [
        ("ell_prime", lambda v: v + 1),
        ("ell_prime", lambda v: v - 1),
        ("s1", lambda v: [v[1], v[0], *v[2:]]),
        ("s2", lambda v: [v[1], v[0], *v[2:]]),
    ],
    ids=["ell_prime+1", "ell_prime-1", "s1-swapped", "s2-swapped"],
)
def test_verify_rejects_stored_exponent_data_that_disagree(tmp_path, capsys, key, edit):
    bad = _edited_dump(tmp_path, "q8_n8_k5", **{key: edit})
    assert main(["verify", "--instance", str(bad), "--trials", "5"]) == 4
    out = capsys.readouterr().out
    assert f"generator-row-consistency: FAIL (stored {key} disagree" in out
    assert out.count("FAIL") == 1


@pytest.mark.parametrize("blocks", [[], [[0, 1, 2, 3], []]], ids=["no-blocks", "empty-block"])
def test_dump_without_blocks_exits_2(tmp_path, capsys, blocks):
    bad = _edited_dump(tmp_path, "q8_n8_k5", blocks=lambda _: blocks)
    for argv in (["verify"], ["bounds", "--brute-force"], ["repair", "--erase", "all"]):
        assert main([*argv, "--instance", str(bad)]) == 2, argv
        assert "block" in capsys.readouterr().err


def test_flipped_extended_flag_exits_4(tmp_path, capsys):
    bad = _edited_dump(tmp_path, "q8_n7_k6", extended=lambda v: not v)
    assert main(["verify", "--instance", str(bad), "--trials", "5"]) == 4
    assert "multiplier-power-sums: FAIL (extended is True" in capsys.readouterr().out
    assert main(["bounds", "--instance", str(bad), "--brute-force"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: multiplier-power-sums: extended is True" in captured.err


@pytest.mark.parametrize("stem", ["q8_n8_k5", "q32_n32_k19", "missing"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_bounds_cap_below_1_exits_2_before_the_dump_is_read(capsys, stem, cap):
    """Without the guard q8_n8_k5 exits 0 and the flagship 5 under --cap -5;
    a missing dump shows that the cap is refused before any file is read."""
    dump = str(SHIPPED / f"{stem}.json")
    assert main(["bounds", "--instance", dump, "--brute-force", "--cap", cap]) == 2
    assert capsys.readouterr() == ("", f"error: --cap must be at least 1, got {cap}\n")


def test_bounds_exits_4_where_exponent_sets_raise(tmp_path, capsys):
    bad = _edited_dump(tmp_path, "q8_n8_k5", k=lambda _: 4)  # outside (n/2, n*r/(r+1)]
    assert main(["bounds", "--instance", str(bad)]) == 4
    assert "error: generator-ranks: big generator is not 4 rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edits",
    [
        {"points": lambda v: [[2, 0, 0], *v[1:]], "u": lambda v: [[3, 0, 0], *v[1:]]},
        {"field": lambda v: {**v, "modulus": [3, 3, 2, 3]}},
    ],
    ids=["point-and-multiplier", "modulus"],
)
def test_digits_outside_the_prime_field_exit_2(tmp_path, capsys, edits):
    """Each digit reduces mod 2 to the shipped dump, which no longer hides it."""
    bad = _edited_dump(tmp_path, "q8_n8_k5", **edits)
    for argv in (["verify"], ["bounds"], ["repair", "--erase", "all"]):
        assert main([*argv, "--instance", str(bad)]) == 2, argv
        assert "outside [0, 2)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edits",
    [
        {"field": lambda v: {**v, "modulus": [v["modulus"][0], 1.9, *v["modulus"][2:]]}},
        {"extended": lambda _: 0},
    ],
    ids=["modulus-digit-float", "extended-int"],
)
def test_dump_entries_of_the_wrong_json_type_exit_2(tmp_path, capsys, edits):
    """int(1.9) and bool(0) once read these mutants back as the shipped dump,
    so they passed verify, bounds and repair."""
    bad = _edited_dump(tmp_path, "q8_n8_k5", **edits)
    for argv in (["verify"], ["bounds", "--brute-force"], ["repair", "--erase", "all"]):
        assert main([*argv, "--instance", str(bad)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


_EXPLICIT_MAPS = [[[1, 0, 0], b] for b in ([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0])]


@pytest.mark.parametrize(
    "edit",
    [
        lambda s: s["subgroup"].update(kind="explicit", maps=_EXPLICIT_MAPS),
        lambda s: s["subgroup"].pop("K"),
        lambda s: s.update(evaluation_domain=7),
        lambda s: s.update(alpha="foo"),
        lambda s: s["subgroup"]["K"].update(m_sub=1.0),
        lambda s: s.update(seed=1.7),
        lambda s: s.update(alpha=[1.9, 0, 0]),
        lambda s: s["field"].update(m=True),
        lambda s: s["field"].update(modulus=[1, 1.9, 0, 1]),
        lambda s: s["subgroup"].update(M_generator=[1, 0]),
        lambda s: s.update(alpha=[0, 0]),
        lambda s: s.update(evaluation_domain=list(range(8))),
    ],
    ids=[
        "maps-as-pairs",
        "MB-without-K",
        "domain-int",
        "alpha-string",
        "m_sub-float",
        "seed-float",
        "alpha-digit-float",
        "m-bool",
        "modulus-digit-float",
        "M-short",
        "alpha-short",
        "domain-int-encodings",
    ],
)
def test_malformed_specs_exit_2(tmp_path, capsys, edit):
    """A spec is read by the dump's rules: JSON integers, elements of exactly
    m digits in [0, p), explicit maps as {"a", "b"} objects."""
    spec = json.loads((SHIPPED.parent / "specs" / "q8_n8_k5.json").read_text())
    edit(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["construct", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


_WHOLE_GF8 = [[a, b, c] for c in (0, 1) for b in (0, 1) for a in (0, 1)]


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"n": 4}, "full_field implies n = 8, got 4"),
        ({"evaluation_domain": "orbits", "n": 6}, "n = 6 is not a multiple of the block size 4"),
        (
            {"evaluation_domain": "orbits", "n": 12},
            "requested 3 blocks but the subgroup has 2 full-size orbits",
        ),
        (
            {"evaluation_domain": "orbits", "n": 0},
            "block length n = 0 must be positive",
        ),
        (
            {"evaluation_domain": "orbits", "n": -4},
            "block length n = -4 must be positive",
        ),
        ({"evaluation_domain": "fibres"}, "unknown evaluation domain 'fibres'"),
        ({"evaluation_domain": _WHOLE_GF8, "n": 4}, "explicit domain size disagrees with n"),
        ({"r": 2}, "subgroup order 4 does not match r + 1 = 3"),
    ],
    ids=[
        "full-field-n",
        "orbits-n-6",
        "orbits-n-12",
        "orbits-n-0",
        "orbits-n-negative",
        "fibres",
        "explicit-n",
        "r-vs-subgroup",
    ],
)
def test_spec_shape_errors_exit_2(tmp_path, capsys, edit, message):
    """Each evaluation domain enforces the spec's n, and the subgroup order
    must be r + 1: a spec that breaks either exits 2 with what is wrong."""
    spec = json.loads((SHIPPED.parent / "specs" / "q8_n8_k5.json").read_text())
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, **edit}))
    assert main(["construct", "--spec", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("m", [20000, 10**8])
def test_huge_field_degree_exits_5(tmp_path, capsys, m):
    """"m": 20000 died with a ValueError traceback (exit 1) while printing
    2^20000 in the FieldTooLarge message; "m": 10^8 first built 2^(10^8)."""
    spec = json.loads((SHIPPED.parent / "specs" / "q8_n8_k5.json").read_text())
    spec["field"]["m"] = m
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["construct", "--spec", str(path)]) == 5
    assert capsys.readouterr() == ("", f"error: GF(2^{m}) has more than 2^20 elements\n")


MERSENNE_61 = 2**61 - 1  # prime: trial division of it does not end


@pytest.mark.parametrize("p", [MERSENNE_61, 3 * MERSENNE_61])
def test_huge_characteristic_exits_5(tmp_path, capsys, p):
    """A p past the cap once went to trial division first: the prime hung
    and the composite exited 2 as not prime."""
    spec = json.loads((SHIPPED.parent / "specs" / "q8_n8_k5.json").read_text())
    spec["field"]["p"] = p
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["construct", "--spec", str(path)]) == 5
    assert capsys.readouterr() == ("", f"error: characteristic {p} alone exceeds 2^20\n")


@pytest.mark.parametrize(
    "argv",
    [["search", "--q"], ["bounds", "--sweep-kappa", "--n", "8", "--r", "3", "--q"]],
    ids=["search", "sweep"],
)
@pytest.mark.parametrize("q", [MERSENNE_61, (1 << 20) + 1])
def test_field_size_past_the_cap_exits_5(capsys, argv, q):
    """q is capped before it is factored: search hung on the prime 2^61 - 1,
    and the sweep never built a field, so it printed rows for any q >= n."""
    assert main([*argv, str(q)]) == 5
    assert capsys.readouterr() == ("", f"error: q = {q} exceeds 2^20\n")


@pytest.mark.parametrize(
    "key, edit",
    [
        ("alpha", lambda _: []),
        ("alpha", lambda v: v[:2]),
        ("points", lambda v: [[*v[0], 0], *v[1:]]),
        ("generator_c", lambda v: [[v[0][0][:1], *v[0][1:]], *v[1:]]),
        ("g", lambda v: [*v[:-1], v[-1][:2]]),
        ("subgroup", lambda v: {**v, "M_generator": v["M_generator"][:1]}),
        ("u", lambda v: [[True, 0, 0], *v[1:]]),
    ],
    ids=["alpha-empty", "alpha-short", "point-long", "entry-short", "g-short", "M-short", "bool"],
)
def test_dumped_elements_are_exactly_m_digits(tmp_path, capsys, key, edit):
    """A short digit list is not padded with zeros: "alpha": [] once loaded
    as the built alpha 0 and passed verify."""
    bad = _edited_dump(tmp_path, "q8_n8_k5", **{key: edit})
    for argv in (["verify"], ["bounds", "--brute-force"], ["repair", "--erase", "all"]):
        assert main([*argv, "--instance", str(bad)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "digits" in captured.err or "outside [0, 2)" in captured.err


@pytest.mark.parametrize(
    "key, edit",
    [
        ("blocks", lambda v: [[0, 1.9, 2, 3], *v[1:]]),
        ("blocks", lambda v: [[0, "1", 2, 3], *v[1:]]),
        ("s1", lambda v: [[1.5, v[0][1]], *v[1:]]),
        ("seed", lambda _: "1"),
        ("n", lambda _: 8.0),
        ("ell_prime", lambda _: True),
    ],
    ids=["block-float", "block-string", "s1-float", "seed-string", "n-float", "ell_prime-bool"],
)
def test_dumped_indices_and_exponents_are_json_integers(tmp_path, capsys, key, edit):
    """int() truncated 1.9 and parsed "1", so these mutants loaded as the
    shipped dump and passed verify, bounds and repair."""
    bad = _edited_dump(tmp_path, "q8_n8_k5", **{key: edit})
    for argv in (["verify"], ["bounds", "--brute-force"], ["repair", "--erase", "all"]):
        assert main([*argv, "--instance", str(bad)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not an integer" in captured.err


@pytest.mark.parametrize("alpha, rc", [([0, 0, 1], 4), ([1, 1, 0], 0), (None, 4)])
def test_dumped_alpha_is_checked(tmp_path, capsys, alpha, rc):
    """Block 0 = {0, 1, a, 1 + a} is the orbit g annihilates; a^2 lies in block 1."""
    bad = _edited_dump(tmp_path, "q8_n8_k5", alpha=lambda _: alpha)
    assert main(["verify", "--instance", str(bad), "--trials", "5"]) == rc
    out = capsys.readouterr().out
    assert ("block-polynomial-constancy: FAIL (" in out) == bool(rc)
    assert main(["bounds", "--instance", str(bad)]) == rc
    capsys.readouterr()


@pytest.mark.parametrize(
    "key, edit, codes",
    [
        ("points", lambda v: [v[1], *v[1:]], {0: 0, 2: 0, 4: 0}),
        ("u", lambda v: [[0, 0, 0], *v[1:]], {0: 4, 1: 4, 4: 0}),
    ],
    ids=["point0-is-point1", "u0-zero"],
)
def test_repair_fails_only_where_the_damage_is_read(tmp_path, capsys, key, edit, codes):
    """qlrc repair certifies the dump first, so every erasure exits 4 on its
    gate with nothing repaired.  The library repair still fails only where
    it reads the damage.  Block 0 is [0, 1, 2, 3], and its repair weights
    are read off u, not the points.  A repeated point is not read, so every
    position still repairs exactly (the Lagrange weights once could not
    solve it).  With u_0 = 0, erasing 0 gets zero weights and erasing a
    mate weights symbol 0 by zero: both repair to a wrong symbol.  The other
    block is untouched."""
    bad = _edited_dump(tmp_path, "q8_n8_k5", **{key: edit})
    for z in codes:
        assert main(["repair", "--instance", str(bad), "--erase", str(z)]) == 4, z
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: multiplier-power-sums: ")
    inst = instance_from_dump(json.loads(bad.read_text()))
    rng = Xorshift64Star(1)  # the message that `--erase z --seed 1` encoded
    word = encode(inst, [rng.below(inst.field.q) for _ in range(inst.k)])
    for z, rc in codes.items():
        received = [*word[:z], None, *word[z + 1 :]]
        assert (repair(inst, received, z) == word[z]) == (rc == 0), z


@pytest.mark.parametrize("argv", [["--trials", "3"], ["--erase", "all"], ["--erase", "0"]])
def test_repair_that_reads_more_than_r_fails(tmp_path, capsys, monkeypatch, argv):
    """One block of all eight points fails the gate: the block polynomial
    has degree 4, not 8.  Without the gate, the dump repairs every symbol
    exactly but reads 7 > r = 3 of them, which the README counts as a
    verification failure."""
    wide = _edited_dump(tmp_path, "q8_n8_k5", blocks=lambda v: [list(range(8))])
    assert main(["repair", "--instance", str(wide), *argv]) == 4
    assert capsys.readouterr() == (
        "",
        "error: block-polynomial-constancy: block polynomial degree 4 != 8\n",
    )
    monkeypatch.setattr(construct, "structure_problem", lambda inst: None)
    assert main(["repair", "--instance", str(wide), *argv]) == 4
    captured = capsys.readouterr()
    assert "MISMATCH" not in captured.out and captured.out.endswith(", 7 reads each\n")
    assert captured.err.startswith("error: ") and "read more than r = 3 symbols" in captured.err


@pytest.mark.parametrize("argv", [["--trials", "3"], ["--erase", "all"], ["--erase", "0"]])
def test_repair_of_an_empty_instance_exits_2(tmp_path, capsys, argv):
    """With n = 0 no repair is tried, which is no evidence: --erase all used
    to print "0/0 positions repaired exactly" and exit 0, and random trials
    crashed drawing a position below 0."""
    empty = _edited_dump(tmp_path, "q8_n8_k5", n=lambda _: 0, points=lambda _: [], u=lambda _: [])
    assert main(["repair", "--instance", str(empty), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_ragged_generator_row_is_named_before_any_arithmetic(tmp_path, capsys):
    """generator_c[3] one element short on the flagship: local-repair names
    the row where it failed with an IndexError.  repair, which died with an
    IndexError traceback and then exited 2 naming the row, now stops at its
    gate with exit 4, as bounds does."""
    bad = _edited_dump(tmp_path, "q32_n32_k19", generator_c=lambda v: [*v[:3], v[3][:-1], *v[4:]])
    detail = "generator_c row 3 has length 31 != n = 32"
    assert main(["verify", "--instance", str(bad), "--trials", "5"]) == 4
    assert f"local-repair: FAIL (LengthMismatch: {detail})" in capsys.readouterr().out
    assert main(["bounds", "--instance", str(bad)]) == 4
    capsys.readouterr()
    for argv in (["--erase", "all"], ["--erase", "0"], ["--trials", "3"]):
        assert main(["repair", "--instance", str(bad), *argv]) == 4
        gate = "generator-ranks: big generator is not 19 rows of length 32"
        assert capsys.readouterr() == ("", f"error: {gate}\n")


def test_bounds_brute_force_adds_exact_distance(dump8, capsys):
    rc = main(["bounds", "--instance", str(dump8), "--brute-force"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delta_exact"] == 3


def test_bounds_past_the_cap_exits_0_when_the_witness_closes_the_gap(dump8, capsys):
    rc = main(["bounds", "--instance", str(dump8), "--brute-force", "--cap", "10"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["delta_exact"] == 3


def test_bounds_past_the_cap_exits_5_when_a_gap_remains(tmp_path, translation_instance, capsys):
    """[9,5]_9 of the translations by GF(3): degree bound 3, distance 4."""
    path = tmp_path / "gf9_n9_k5.json"
    path.write_text(json.dumps(instance_to_dump(translation_instance(3, 2, 5))))
    rc = main(["bounds", "--instance", str(path), "--brute-force", "--cap", "10"])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap" in captured.err
    assert main(["bounds", "--instance", str(path), "--brute-force"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["degree_bound"], report["delta_exact"]) == (3, 4)


def test_bounds_sweep_csv_structure(capsys):
    """The sweep the benchmark runs, byte for byte as its goldens hold it."""
    rc = main(["bounds", "--sweep-kappa", "--n", "63", "--r", "6", "--q", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == json.loads((SHIPPED.parent / "goldens.json").read_text())["sweep_stdout"]
    lines = out.strip().split("\n")
    assert lines[0] == "kappa,degree_bound,agl_bound"
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert len(rows) == 23
    kappas = [r[0] for r in rows]
    assert kappas == list(range(1, 46, 2))
    degs = [r[1] for r in rows]
    agls = [r[2] for r in rows]
    assert all(a >= b for a, b in zip(degs, degs[1:]))
    assert all(a >= b for a, b in zip(agls, agls[1:]))


def test_bounds_sweep_gg_column(tmp_path, capsys):
    gg = tmp_path / "gg.csv"
    gg.write_text("kappa,gg_bound\n1,9\n3,8\n")
    rc = main(
        ["bounds", "--sweep-kappa", "--n", "63", "--r", "6", "--q", "64", "--gg-file", str(gg)]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "kappa,degree_bound,agl_bound,gg_bound"
    assert lines[1].startswith("1,") and lines[1].endswith(",9")
    assert lines[2].endswith(",8")
    assert lines[3].endswith(",")  # kappa 5 has no user value


@pytest.mark.parametrize(
    "text, detail",
    [
        ("kappa,gg\n2,5,6\n", "line 2: expected kappa,value, got '2,5,6'"),
        ("# mine\n\nkappa,gg\n1,9\n4.0,9\n", "line 5: expected kappa,value, got '4.0,9'"),
        ("4.0,9\nkappa,gg\n", "line 2: expected kappa,value, got 'kappa,gg'"),
        ("1,9\n3\n", "line 2: expected kappa,value, got '3'"),
        ("1,9\n3,\n", "line 2: expected kappa,value, got '3,'"),
        ("kappa,gg\n1,9\n3,8\n1,7\n", "line 4: kappa 1 given twice"),
    ],
    ids=["three-columns", "float-kappa", "second-header", "no-value", "empty-value", "repeat"],
)
def test_bounds_sweep_rejects_a_malformed_gg_file(tmp_path, capsys, text, detail):
    gg = tmp_path / "gg.csv"
    gg.write_text(text)
    argv = ["bounds", "--sweep-kappa", "--n", "8", "--r", "3", "--q", "8", "--gg-file", str(gg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {gg} {detail}\n"


def test_bounds_sweep_argument_validation(capsys):
    assert main(["bounds", "--sweep-kappa", "--n", "63", "--r", "6"]) == 2
    assert main(["bounds", "--sweep-kappa", "--n", "63", "--r", "6", "--q", "60"]) == 2
    assert main(["bounds", "--sweep-kappa", "--n", "65", "--r", "6", "--q", "64"]) == 2
    assert main(["bounds"]) == 2
    capsys.readouterr()
    # the shape checks of exponent_sets: r >= 2 and n a positive multiple of r + 1
    for n, r in [("63", "-1"), ("63", "1"), ("0", "6"), ("-4", "6")]:
        assert main(["bounds", "--sweep-kappa", "--n", n, "--r", r, "--q", "64"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")


def test_repair_transcript(dump8, capsys):
    rc = main(["repair", "--instance", str(dump8), "--trials", "100", "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 101
    assert lines[-1] == "100/100 repairs exact, 3 reads each"
    assert all(", 3 reads" in line for line in lines[:-1])


def test_repair_all_positions(dump8, capsys):
    rc = main(["repair", "--instance", str(dump8), "--erase", "all"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "8/8 positions repaired exactly, 3 reads each"
    assert [line.split(":")[0] for line in lines[:-1]] == [f"position {i}" for i in range(8)]


def test_repair_single_position(dump8, capsys):
    rc = main(["repair", "--instance", str(dump8), "--erase", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "position 5: OK, 3 reads" in out
    assert "1/1 repairs exact" in out


def test_repair_erase_validation(dump8, capsys):
    assert main(["repair", "--instance", str(dump8), "--erase", "99"]) == 2
    assert main(["repair", "--instance", str(dump8), "--erase", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_trials_below_one_exit_2(dump8, capsys, trials):
    """No repair tried is no evidence: verify once printed local-repair: PASS
    and repair "0/0 repairs exact" for these."""
    for command in ("verify", "repair"):
        assert main([command, "--instance", str(dump8), "--trials", trials]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "trials" in captured.err


def test_search_listing(capsys):
    rc = main(["search", "--q", "16"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "r,subfield_degree,m_order,b_order,n_max"
    rows = [line.split(",") for line in lines[2:]]
    assert ["3", "1", "1", "4", "16"] in rows  # additive, locality 3
    assert ["11", "2", "3", "4", "12"] in rows  # mixed: M of order 3, B = GF(4)
    assert ["2", "2", "3", "1", "15"] in rows  # multiplicative, order 3
    for row in rows:
        order = int(row[2]) * int(row[3])
        assert order == int(row[0]) + 1
        assert int(row[4]) % order == 0


SEARCH_SHA256 = {
    8: "555e2eea350b68cc284f7f16b14ed97dbe520ed8b454bd09f7bec4e6f6af2d26",
    9: "3ddedf2d5787c5036ae056d93951769a5f58c0565f29264c536818ab862fd396",
    16: "252ab8dfbba9d39561cf3d9ad75a0e3752ef3221a09b26b6c5510b84ce2c8124",
    25: "77bbf57b564e7a3fe68700cd7bd982998fa086042d2eb5167b0143dd789ba950",
    27: "71f0169b2044c48a01ab0d5014f82724e951fcb3c8e7881debf3d114b25582c0",
    32: "8b0e747793f73c7e980e7493aabb425580baa5054bd95e162251cf72c8820af9",
    64: "ca8e645e68f2077e72111970877c0af8faf85e1b24196db534207096080e9192",
    81: "fbbfdce1e1d089bb1abf0a48dbdcb02cd3b3354152033f8d33699e44905abf27",
    256: "7533b8d898f0b92d1f27506ed505fdd49e4a3ba466ddb71a01d881063a32aad7",
    4096: "4373c09f15e662cbbfb6e5d82b862d9b2879bc11bb7d628417e45d07001a3973",
}


@pytest.mark.parametrize("q", sorted(SEARCH_SHA256))
def test_search_listing_is_frozen(capsys, q):
    """sha256 of the search CSV, recorded when (M, B) were still checked by
    exhaustive pair tables."""
    assert main(["search", "--q", str(q)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_SHA256[q]


# the listings of every prime power 3 <= q <= 1024, concatenated in ascending q
SEARCH_UP_TO_1024_SHA256 = "2fe0651cce06e5cfba902cd9ac04d054a520f4d86a4d5ffea3cbfc58bcfd41b2"


def test_search_listings_up_to_1024_are_frozen(capsys):
    """sha256 recorded while n_max was read off each subgroup's maps, over
    197 fields: every one of them, not the ten pinned above."""
    listings = []
    for q in range(3, 1025):
        try:
            prime_power(q)
        except InputError:
            continue
        assert main(["search", "--q", str(q)]) == 0
        listings.append(capsys.readouterr().out)
    assert len(listings) == 197
    digest = hashlib.sha256("".join(listings).encode()).hexdigest()
    assert digest == SEARCH_UP_TO_1024_SHA256


@pytest.mark.parametrize(
    "q,modulus", [(16, "1,0,0,1,1"), (27, "2,0,1,1"), (64, "1,0,0,0,0,1,1"), (81, "2,0,0,1,1")]
)
def test_search_listing_does_not_depend_on_the_modulus(capsys, q, modulus):
    """Each modulus here differs from the default one; the field and its
    subgroups are the same up to isomorphism, and so is the listing."""
    assert Field(*prime_power(q)).modulus != tuple(int(c) for c in modulus.split(","))
    assert main(["search", "--q", str(q), "--modulus", modulus]) == 0
    given = capsys.readouterr().out
    assert main(["search", "--q", str(q)]) == 0
    assert given == capsys.readouterr().out


def test_search_rejects_non_prime_power(capsys):
    assert main(["search", "--q", "12"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "modulus", ["1,1", "a,b", ""], ids=["reducible", "not-integers", "empty"]
)
def test_search_rejects_a_bad_modulus(capsys, modulus):
    assert main(["search", "--q", "4", "--modulus", modulus]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_byte_determinism(tmp_path, spec8, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["construct", "--spec", str(spec8), "--output", str(out1)]) == 0
    assert main(["construct", "--spec", str(spec8), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()

    main(["bounds", "--sweep-kappa", "--n", "24", "--r", "3", "--q", "32"])
    first = capsys.readouterr().out
    main(["bounds", "--sweep-kappa", "--n", "24", "--r", "3", "--q", "32"])
    assert capsys.readouterr().out == first

    main(["search", "--q", "16"])
    s1 = capsys.readouterr().out
    main(["search", "--q", "16"])
    assert capsys.readouterr().out == s1

    main(["repair", "--instance", str(tmp_path / "a.json"), "--trials", "7", "--seed", "3"])
    r1 = capsys.readouterr().out
    main(["repair", "--instance", str(tmp_path / "a.json"), "--trials", "7", "--seed", "3"])
    assert capsys.readouterr().out == r1


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--spec", "{spec}"],
        ["bounds", "--sweep-kappa", "--n", "8", "--r", "3", "--q", "8"],
        ["search", "--q", "8"],
    ],
    ids=["construct", "bounds", "search"],
)
def test_unwritable_output_exits_2(spec8, tmp_path, capsys, argv):
    """An --output path that cannot be opened is bad input, like an
    unreadable input path, not a FileNotFoundError traceback.  Nothing
    reaches stdout: construct once printed its summary before failing."""
    target = tmp_path / "missing" / "out.txt"
    argv = [a.format(spec=spec8) for a in argv] + ["--output", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'\n",
    )
    assert not target.parent.exists()


def test_output_flag_writes_file(dump8, tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main(["bounds", "--instance", str(dump8), "--output", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["n"] == 8


def _fresh_qlrc(*argv, columns=80):
    """(exit code, stdout) of `python -m qlrc.cli argv` in a new process."""
    env = dict(os.environ, COLUMNS=str(columns))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-m", "qlrc.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_parse_error_leaves_the_shared_parser_as_new(capsys):
    """An argparse exit on the shared parser changes nothing that a later
    call sees: verify then prints what it prints in a fresh process."""
    with pytest.raises(SystemExit) as err:
        main(["construct"])  # --spec is required
    assert err.value.code == 2
    assert "--spec" in capsys.readouterr().err
    argv = ["verify", "--instance", str(SHIPPED / "q8_n8_k5.json"), "--trials", "5"]
    assert main(argv) == 0
    assert _fresh_qlrc(*argv) == (0, capsys.readouterr().out)


@pytest.mark.parametrize("columns", [80, 50])
def test_help_text_matches_a_fresh_process(monkeypatch, capsys, columns):
    """The width is read when help is printed, not when the parser is built,
    so the shared parser prints what a parser built for this call prints."""
    cli.build_parser()  # built before the width below is set
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    assert _fresh_qlrc("--help", columns=columns) == (0, capsys.readouterr().out)
