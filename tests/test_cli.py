"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from qlrc import Field, instance_to_dump, subgroup_from_MB
from qlrc.cli import main

SHIPPED = Path(__file__).resolve().parent.parent / "perfbench" / "dumps"


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


def test_construct_extended_field_flagged(tmp_path, capsys):
    f9 = Field(3, 2)
    g9 = f9.primitive_element()
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
        ("points", lambda v: [v[1], *v[1:]], {0: 4, 2: 2, 4: 0}),
        ("u", lambda v: [[0, 0, 0], *v[1:]], {0: 4, 1: 2, 4: 0}),
    ],
    ids=["point0-is-point1", "u0-zero"],
)
def test_repair_fails_only_where_the_damage_is_read(tmp_path, capsys, key, edit, codes):
    """Block 0 is [0, 1, 2, 3].  Erasing 0 repairs through the block's other
    points to the wrong symbol; erasing a mate reads the damage and cannot
    solve; the other block is untouched."""
    bad = _edited_dump(tmp_path, "q8_n8_k5", **{key: edit})
    for z, rc in codes.items():
        assert main(["repair", "--instance", str(bad), "--erase", str(z)]) == rc, z
        captured = capsys.readouterr()
        assert ("MISMATCH" in captured.out) == (rc == 4)


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
    rc = main(["bounds", "--sweep-kappa", "--n", "63", "--r", "6", "--q", "64"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
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


def test_bounds_sweep_argument_validation(capsys):
    assert main(["bounds", "--sweep-kappa", "--n", "63", "--r", "6"]) == 2
    assert main(["bounds", "--sweep-kappa", "--n", "63", "--r", "6", "--q", "60"]) == 2
    assert main(["bounds", "--sweep-kappa", "--n", "65", "--r", "6", "--q", "64"]) == 2
    assert main(["bounds"]) == 2
    capsys.readouterr()


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


def test_search_rejects_non_prime_power(capsys):
    assert main(["search", "--q", "12"]) == 2
    capsys.readouterr()


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


def test_output_flag_writes_file(dump8, tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main(["bounds", "--instance", str(dump8), "--output", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["n"] == 8
