"""Records: read-only NamedTuples, and what importing qlrc costs a process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qlrc
from qlrc import Polynomial, bounds, construct
from qlrc.agl import theta_subgroup

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
BOUNDS_LAYER = {"qlrc.bounds", "qlrc.linalg"}


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps site-packages' .pth files, which may import anything, out of the check
    code = "import sys, qlrc, qlrc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _fresh_process(*args: str) -> tuple[str, set[str]]:
    """stdout of a fresh `python -S -X importtime *args` over src/, and the
    modules it imported, read off importtime's lines on stderr."""
    out = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stderr.splitlines()
    return out.stdout, {ln.rpartition("|")[2].strip() for ln in lines if ln.startswith("import time:")}


def _goldens() -> dict:
    return json.loads((PERFBENCH / "goldens.json").read_text())


CLI = ["-m", "qlrc.cli"]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["-c", "import qlrc.cli"], None),
        (CLI + ["construct", "--spec", "{pb}/specs/q8_n8_k5.json", "--output", "{tmp}/q8.json"],
         "construct_stdout"),
        (CLI + ["verify", "--instance", "{pb}/dumps/q8_n8_k5.json", "--trials", "10"], "verify_stdout"),
        (CLI + ["repair", "--instance", "{pb}/dumps/q8_n8_k5.json", "--erase", "all"], None),
        (CLI + ["search", "--q", "16"], None),
    ],
    ids=["import", "construct", "verify", "repair", "search"],
)
def test_only_bounds_loads_the_bounds_layer(tmp_path, argv, golden):
    """A process that never reads bounds compiles neither qlrc.bounds nor
    qlrc.linalg; in-process tests cannot see this, since their own imports
    have loaded both."""
    argv = [a.format(pb=PERFBENCH, tmp=tmp_path) for a in argv]
    stdout, loaded = _fresh_process(*argv)
    assert "qlrc.construct" in loaded  # importtime's lines were read
    assert not loaded & BOUNDS_LAYER
    if golden is not None:
        assert stdout == _goldens()[golden]["q8_n8_k5"]


def test_bounds_loads_the_bounds_layer_and_prints_its_golden():
    dump = PERFBENCH / "dumps" / "q32_n32_k19.json"
    stdout, loaded = _fresh_process(*CLI, "bounds", "--instance", str(dump))
    assert loaded >= BOUNDS_LAYER
    assert stdout == _goldens()["bounds_stdout"]["q32_n32_k19"]


def test_package_names_resolve_bounds_on_first_use():
    code = (
        "import json, sys, qlrc\n"
        "qlrc.smallest_prime_factor\n"
        "facts = {'dir': sorted(set(qlrc.__all__) - set(dir(qlrc)))}\n"
        "facts['bounds'] = 'qlrc.bounds' in sys.modules\n"
        "try:\n"
        "    qlrc.nope\n"
        "except AttributeError as e:\n"
        "    facts['nope'] = str(e)\n"
        "print(json.dumps(facts))\n"
    )
    stdout, _ = _fresh_process("-c", code)
    assert json.loads(stdout) == {
        "dir": [],
        "bounds": False,
        "nope": "module 'qlrc' has no attribute 'nope'",
    }
    names: dict = {}
    exec("from qlrc import *", names)
    assert set(qlrc.__all__) <= names.keys()
    assert all(names[name] is getattr(qlrc, name) for name in qlrc.__all__)
    assert qlrc.css_params is qlrc.bounds.css_params


@pytest.fixture(scope="module")
def records(inst32):
    es = inst32.eval_set
    sub = es.good.subgroup
    theta = theta_subgroup(sub, Polynomial.monomial(inst32.field, 1, 1))
    report = bounds.weight_bound_audit(inst32, trials=3, seed=1)
    return [
        inst32,
        es,
        es.good,
        inst32.exps,
        construct.solve_multipliers(inst32.field, es.points),
        inst32._structure_results[0],
        bounds.css_params(inst32),
        bounds.agl_bound(inst32.n, inst32.r, inst32.ell),
        bounds.low_weight_witness(inst32),
        bounds.schreier_graph(sub.orbit(es.points[0]), sub, theta),
        report,
        report.trials[0],
    ]


def test_every_record_field_is_read_only(records):
    assert len({type(rec) for rec in records}) == 12
    for rec in records:
        for name in type(rec)._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))


def test_replace_gives_an_instance_with_nothing_cached(inst32):
    assert inst32._structure_results and "_structure_results" in vars(inst32)
    fresh = inst32._replace()
    assert type(fresh) is construct.CodeInstance and fresh == inst32
    assert vars(fresh) == {}
    assert type(inst32.eval_set._replace()) is construct.EvaluationSet
