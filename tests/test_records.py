"""Records: read-only NamedTuples, and what importing qlrc costs a process."""

import subprocess
import sys
from pathlib import Path

import pytest

from qlrc import Polynomial, bounds, construct
from qlrc.agl import theta_subgroup

SRC = Path(__file__).resolve().parents[1] / "src"


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
