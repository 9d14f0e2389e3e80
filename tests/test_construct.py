"""Pipeline behavior: multipliers, exponent sets, code construction, repair,
dumps, and the named verification checks (including mutation failures)."""

import hashlib
import json
from pathlib import Path

import pytest

from qlrc import (
    Field,
    Polynomial,
    Xorshift64Star,
    build_code,
    build_evaluation_set,
    encode,
    exponent_sets,
    instance_from_dump,
    instance_from_spec,
    instance_to_dump,
    orbits,
    repair,
    solve_multipliers,
    subgroup_from_MB,
    verify_instance,
)
from qlrc import bounds, construct, linalg, poly
from qlrc.agl import AglSubgroup, GoodPolynomial
from qlrc.cli import main
from qlrc.construct import (
    BadDimension,
    BlockIncomplete,
    DegenerateSet,
    LengthMismatch,
    LocalityTooSmall,
)
from qlrc.errors import ConstructionError, InputError
from qlrc.field import FieldElement, FieldMismatch

from conftest import primitive_element

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# --- multipliers --------------------------------------------------------------


def _power_sums_vanish(fld, points, u):
    """Whether sum_z u_z^2 * a_z^e is zero for e = 0 .. n - 2, by n - 1 dot
    products: the gate's power-sums premise before it read the Lagrange
    weights, kept here as the reference."""
    n = len(points)
    w, pw = [fld.mul(x, x) for x in u], [1] * n
    for _ in range(n - 1):
        if fld.dot(w, pw):
            return False
        pw = list(map(fld.mul, pw, points))
    return True


def test_multipliers_char2_full_field_all_one():
    for m in (3, 5):
        f = Field(2, m)
        sol = solve_multipliers(f, list(f.elements()))
        assert not sol.extended
        assert all(u == 1 for u in sol.u)
        assert _power_sums_vanish(sol.field, sol.points, sol.u)


def test_multipliers_odd_full_field_all_equal():
    for p, m in [(5, 1), (3, 2), (7, 1)]:
        f = Field(p, m)
        sol = solve_multipliers(f, list(f.elements()))
        assert not sol.extended
        assert len(set(sol.u)) == 1
        assert _power_sums_vanish(sol.field, sol.points, sol.u)


def test_multipliers_residue_set_squares_to_points():
    """On the set of nonzero squares, the squared multipliers are the points."""
    f = Field(7, 1)
    pts = [f.from_value(v) for v in (1, 2, 4)]
    sol = solve_multipliers(f, pts)
    assert not sol.extended
    assert list(sol.u) == [1, 3, 2]
    for u, x in zip(f.from_ints(sol.u), f.from_ints(sol.points)):
        assert u * u == x
    assert _power_sums_vanish(sol.field, sol.points, sol.u)


def test_multipliers_mixed_classes_extend():
    """{0, 1} over GF(3) needs the quadratic extension."""
    f = Field(3, 1)
    sol = solve_multipliers(f, [f.zero(), f.one()])
    assert sol.extended
    assert sol.field.q == 9
    assert _power_sums_vanish(sol.field, sol.points, sol.u)


def test_multipliers_random_subsets_always_satisfy_power_sums():
    rng = Xorshift64Star(77)
    for p, m in [(2, 4), (3, 2), (5, 1)]:
        f = Field(p, m)
        elems = list(f.elements())
        for n in (2, 3, 5):
            chosen = []
            used = set()
            while len(chosen) < n:
                e = elems[rng.below(len(elems))]
                if e.value() not in used:
                    used.add(e.value())
                    chosen.append(e)
            sol = solve_multipliers(f, chosen)
            assert _power_sums_vanish(sol.field, sol.points, sol.u)


def test_multipliers_reject_duplicates():
    f = Field(2, 3)
    with pytest.raises(DegenerateSet):
        solve_multipliers(f, [f.one(), f.one()])


# --- exponent sets -----------------------------------------------------------


def test_exponent_sets_flagship_frozen():
    ex = exponent_sets(32, 19, 3)
    assert set(ex.s1) == {(i, j) for i in (1, 2) for j in range(5)} | {(1, 5)}
    assert ex.s2 == tuple((0, j) for j in range(8))
    assert len(ex.t1) == 5
    assert ex.ell == 21 and ex.ell_prime == 9
    assert ex.ell + ex.ell_prime <= 30
    degrees = [ex.degree(p) for p in ex.s_pairs]
    assert degrees == sorted(degrees)
    assert set(ex.t_pairs) <= set(ex.s_pairs)


def test_exponent_sets_small_frozen():
    ex = exponent_sets(8, 5, 3)
    assert ex.ell == 5 and ex.ell_prime == 1
    ex2 = exponent_sets(8, 6, 3)
    assert ex2.ell == 6 and ex2.ell_prime is None  # t1 empty at the top of the window


def test_exponent_sets_window_enforced():
    with pytest.raises(BadDimension):
        exponent_sets(32, 16, 3)  # k = n/2
    with pytest.raises(BadDimension):
        exponent_sets(32, 25, 3)  # k > nr/(r+1)
    with pytest.raises(BadDimension):
        exponent_sets(10, 6, 3)  # 4 does not divide 10
    with pytest.raises(LocalityTooSmall):
        exponent_sets(8, 5, 1)


def test_exponent_sets_degenerate_boundary_is_fenced():
    with pytest.raises(BadDimension):
        exponent_sets(8, 2, 3)  # k = n/(r+1): no x^i monomials at all


def test_exponent_degrees_all_distinct():
    for n, k, r in [(32, 19, 3), (24, 14, 2), (48, 30, 5), (16, 11, 7)]:
        ex = exponent_sets(n, k, r)
        degs = [ex.degree(p) for p in ex.s_pairs]
        assert len(set(degs)) == len(degs)
        assert max(degs) <= n - 2


# --- evaluation sets and codes -------------------------------------------------


def _block_of(es, z):
    """The first block of es that lists position z."""
    return next(blk for blk in es.blocks if z in blk)


def test_evaluation_set_structure(inst32):
    es = inst32.eval_set
    vals = list(es.points)
    assert vals == sorted(vals)
    assert len(vals) == 32 and len(set(vals)) == 32
    covered = sorted(i for blk in es.blocks for i in blk)
    assert covered == list(range(32))
    for blk in es.blocks:
        assert len(blk) == 4
        for i in blk:
            assert _block_of(es, i) == blk
    assert all(u != 0 for u in es.u)


def test_evaluation_set_orbit_subset():
    f8 = Field(2, 3)
    one = f8.one()
    a = f8.gen()
    sub = subgroup_from_MB(f8, 1, {one}, {f8.zero(), one, a, a + one})
    es = build_evaluation_set(sub, domain="orbits", n=4)
    assert es.n == 4
    assert es.r == 3  # locality = block size - 1
    assert len(es.blocks) == 1


def test_evaluation_set_explicit_domain():
    f8 = Field(2, 3)
    one = f8.one()
    a = f8.gen()
    sub = subgroup_from_MB(f8, 1, {one}, {f8.zero(), one, a, a + one})
    domain = [f8.from_value(v) for v in range(4)]
    es = build_evaluation_set(sub, domain=domain)
    assert es.n == 4
    with pytest.raises(InputError):
        build_evaluation_set(sub, domain=[f8.from_value(v) for v in (0, 1, 2)], n=3)


def test_evaluation_set_n_mismatch():
    f8 = Field(2, 3)
    one = f8.one()
    a = f8.gen()
    sub = subgroup_from_MB(f8, 1, {one}, {f8.zero(), one, a, a + one})
    with pytest.raises(InputError):
        build_evaluation_set(sub, n=12)  # full field has 8 points


def _subgroup_cases():
    """Additive, multiplicative and mixed subgroups, labelled, over
    GF(8), GF(9), GF(16) and GF(27); GF(8) has no proper subfield to mix."""
    cases = []
    for p, m in [(2, 3), (3, 2), (2, 4), (3, 3)]:
        f = Field(p, m)
        one, a, g = f.one(), f.gen(), primitive_element(f)
        prime = set(f.from_ints(f.subfield_elements(1)))
        span = {x + c * a for x in prime for c in prime} if m > 2 else prime
        cases.append((f"GF({f.q}) additive", subgroup_from_MB(f, 1, {one}, span)))
        order = {8: 7, 9: 4, 16: 5, 27: 13}[f.q]
        powers = {g ** ((f.q - 1) // order * i) for i in range(order)}
        cases.append((f"GF({f.q}) multiplicative", subgroup_from_MB(f, m, powers, {f.zero()})))
        if f.q == 16:
            k4 = set(f.subfield_elements(2))
            cases.append(("GF(16) mixed", subgroup_from_MB(f, 2, k4 - {0}, k4)))
        elif p == 3:
            cases.append((f"GF({f.q}) mixed", subgroup_from_MB(f, 1, {one, -one}, prime)))
    return [pytest.param(sub, id=label) for label, sub in cases]


def _eager_selection(es, chosen):
    """Point values and index blocks for the given orbits, in the base field
    or, for an extended set, through the same embedding."""
    base = es.base_field
    pts = sorted(x for orb in chosen for x in orb)
    blocks = sorted(tuple(sorted(pts.index(x) for x in orb)) for orb in chosen)
    emb = base.extend()[1] if es.extended else (lambda x: x)
    return [emb(x) for x in pts], tuple(blocks)


@pytest.mark.parametrize("sub", _subgroup_cases())
def test_lazy_block_selection_matches_eager_orbits(sub):
    """build_evaluation_set picks the same points and blocks as a selection
    from the eagerly enumerated orbits of the whole field."""
    f, size = sub.field, len(sub)
    every = orbits(sub, f.elements())
    full = [orb for orb in every if len(orb) == size]
    assert full

    def check(es, chosen):
        assert (list(es.points), es.blocks) == _eager_selection(es, chosen)

    if len(full) == len(every):
        check(build_evaluation_set(sub), full)
    else:
        with pytest.raises(InputError, match="do not cover the field"):
            build_evaluation_set(sub)
    check(build_evaluation_set(sub, domain="orbits"), full)
    for want in range(1, len(full) + 1):
        check(build_evaluation_set(sub, domain="orbits", n=want * size), full[:want])
    picked = [full[-1], full[0]] if len(full) > 1 else full
    domain = sorted((x for orb in picked for x in orb), reverse=True)
    check(build_evaluation_set(sub, domain=domain + domain[:2]), picked)


def test_orbits_domain_error_names_the_true_orbit_count():
    """GF(27) under x -> +-x + b, b in GF(3): one short orbit, four free ones."""
    f = Field(3, 3)
    sub = subgroup_from_MB(f, 1, {f.one(), -f.one()}, set(f.subfield_elements(1)))
    with pytest.raises(InputError, match="requested 5 blocks but the subgroup has 4 full-size orbits"):
        build_evaluation_set(sub, domain="orbits", n=30)
    with pytest.raises(BadDimension, match="^block length n = 0 must be positive$"):
        build_evaluation_set(sub, domain="orbits", n=0)
    with pytest.raises(BadDimension):
        build_evaluation_set(sub, domain="orbits", n=9)


def test_full_field_rejects_a_fixed_point():
    """x -> c*x fixes 0, so the multiplicative orbits do not cover GF(8), and
    an explicit domain holding 0 is not a union of full-size orbits."""
    f = Field(2, 3)
    sub = subgroup_from_MB(f, 3, set(f.elements()) - {f.zero()}, {f.zero()})
    with pytest.raises(InputError, match="do not cover the field"):
        build_evaluation_set(sub)
    with pytest.raises(InputError, match="not a union of full-size orbits"):
        build_evaluation_set(sub, domain=list(f.elements()))
    assert build_evaluation_set(sub, domain="orbits").n == 7


def test_extended_build_embeds_the_base_field_once(monkeypatch):
    """The multiplier solve and the gate's power-sum check both ask the base
    field for GF(q^2); the pair is built on the first ask, once per Field."""
    made = []

    class Counted(construct.Embedding):
        def __init__(self, src, dst):
            made.append(src)
            super().__init__(src, dst)

    monkeypatch.setattr("qlrc.field.Embedding", Counted)
    f9 = Field(3, 2)
    g = primitive_element(f9)
    sub = subgroup_from_MB(f9, 2, {g ** (2 * i) for i in range(4)}, {f9.zero()})
    inst = build_code(build_evaluation_set(sub, domain="orbits", n=8), 5)
    assert inst.eval_set.extended and made == [f9]
    assert f9.extend() is f9.extend() and made == [f9]


def test_build_runs_the_block_check(monkeypatch):
    """A g that is not constant on the blocks stops the build, on the base
    path (GF(8), additive) and on the extended path (GF(9) -> GF(81)).  The
    degree argument of dual-containment fails first on it; the same instance,
    built past the gate, still fails block-polynomial-constancy."""
    f8, f9 = Field(2, 3), Field(3, 2)
    a, g = f8.gen(), primitive_element(f9)
    additive = subgroup_from_MB(f8, 1, {f8.one()}, {f8.zero(), f8.one(), a, a + f8.one()})
    mult = subgroup_from_MB(f9, 2, {g ** (2 * i) for i in range(4)}, {f9.zero()})
    assert not build_evaluation_set(additive).extended
    assert build_evaluation_set(mult, domain="orbits").extended

    def x4_plus_x(sub, alpha):
        x = Polynomial.x(sub.field)
        return GoodPolynomial(x**4 + x, sub, alpha)

    monkeypatch.setattr(construct, "good_polynomial", x4_plus_x)
    wrong = r"^dual-containment: D inside C-perp not certified: x\^\d+ g\^\d+ has degree"
    for es in (build_evaluation_set(additive), build_evaluation_set(mult, domain="orbits")):
        with pytest.raises(ConstructionError, match=wrong):
            build_code(es, 5)
        with monkeypatch.context() as m:
            m.setattr(construct, "structure_problem", lambda inst: None)
            unchecked = build_code(es, 5)
        checks = {c.name: c for c in verify_instance(unchecked, trials=1)}
        block = checks["block-polynomial-constancy"]
        assert not block.ok and block.detail.endswith("several values of g")


def test_build_runs_the_power_sum_check(monkeypatch, tmp_path, capsys):
    """A multiplier vector with one entry changed stops the build and makes
    qlrc construct exit 3; scaling all of u would keep the power sums."""
    solve = construct.solve_multipliers

    def one_entry_off(fld, points):
        sol = solve(fld, points)
        square = sol.field.mul(sol.u[0], sol.u[0])
        other = next(x for x in range(1, sol.field.q) if sol.field.mul(x, x) != square)
        return sol._replace(u=(other, *sol.u[1:]))

    monkeypatch.setattr(construct, "solve_multipliers", one_entry_off)
    wrong = "multiplier-power-sums: weighted power sums do not vanish up to degree n - 2"
    f8 = Field(2, 3)
    sub = subgroup_from_MB(f8, 1, {f8.one()}, {f8.zero(), f8.one(), f8.gen(), f8.gen() + f8.one()})
    with pytest.raises(ConstructionError) as err:
        build_code(build_evaluation_set(sub), 5)
    assert str(err.value) == wrong
    spec = PERFBENCH / "specs" / "q8_n8_k5.json"
    out = tmp_path / "dump.json"
    assert main(["construct", "--spec", str(spec), "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {wrong}\n")
    assert not out.exists()


def test_structure_checks_run_once_per_instance(monkeypatch):
    """build_code certifies the instance; verify_instance, css_params and
    exact_distance read the same results instead of checking again."""
    calls = []
    checks = construct._structure_checks

    def counted(inst):
        calls.append(inst)
        return checks(inst)

    monkeypatch.setattr(construct, "_structure_checks", counted)
    spec = json.loads((PERFBENCH / "specs" / "q8_n8_k5.json").read_text())
    inst = instance_from_spec(spec)
    assert all(c.ok for c in verify_instance(inst, trials=5))
    assert all(c.ok for c in verify_instance(inst, trials=5, seed=2))
    assert bounds.css_params(inst).n == 8
    assert bounds.exact_distance(inst) == 3
    assert calls == [inst]


def test_wide_field_build_calls_orbit_a_few_times_per_block(monkeypatch):
    """Building the [32,19] spec over GF(2^16) with domain "orbits" computes
    a few orbits per block, not one per field element."""
    spec = json.loads((PERFBENCH / "specs" / "q65536_n32_k19.json").read_text())
    calls = []
    orbit = AglSubgroup.orbit

    def counted(self, alpha):
        calls.append(alpha)
        return orbit(self, alpha)

    monkeypatch.setattr(AglSubgroup, "orbit", counted)
    inst = instance_from_spec(spec)
    blocks = inst.n // (inst.r + 1)
    assert len(inst.eval_set.blocks) == blocks == 8
    assert len(calls) <= 4 * blocks


def test_build_code_shapes_and_ranks(inst32):
    assert len(inst32.matrix_c) == 19
    assert len(inst32.matrix_d) == 32 - 19
    assert all(len(row) == 32 for row in inst32.matrix_c)
    f = inst32.field
    rows_c = [f.from_ints(r) for r in inst32.matrix_c]
    rows_d = [f.from_ints(r) for r in inst32.matrix_d]
    assert linalg.rank(rows_c) == 19
    assert linalg.rank(rows_d) == 13
    assert linalg.rank(rows_c + rows_d) == 19  # dual rows inside the big span


def _horner_rows(es, exps):
    """The former row evaluation, kept as a reference: u_z * h(a_z) with
    h = x^i * g^j expanded, by one Horner per entry."""
    fld, rows = es.field, {}
    for i, j in exps.s_pairs:
        gpow = Polynomial.one(fld)
        for _ in range(j):
            gpow = gpow * es.good.g
        coeffs = [0] * i + list(gpow.coeffs)
        rows[i, j] = tuple(fld.mul(u, fld.horner(coeffs, x)) for u, x in zip(es.u, es.points))
    return rows


def test_pointwise_rows_match_horner_rows(inst32, inst8, inst7, inst4, inst9x):
    """_s_rows agrees with the Horner reference on the fixtures, on three
    perfbench specs (GF(64), GF(9) -> GF(81), GF(2^16)) and on a dump whose
    g is the zero polynomial."""
    insts = [inst32, inst8, inst7, inst4, inst9x]
    for stem in ("q64_n64_k40", "q9x81_n8_k5", "q65536_n32_k19"):
        spec = json.loads((PERFBENCH / "specs" / f"{stem}.json").read_text())
        insts.append(instance_from_spec(spec))
    zero_g = dict(instance_to_dump(inst8), g=[])
    insts.append(instance_from_dump(zero_g))
    assert insts[-1].eval_set.good.g.is_zero()
    for inst in insts:
        want = _horner_rows(inst.eval_set, inst.exps)
        assert construct._s_rows(inst.eval_set, inst.exps) == want
    assert [p for p, row in want.items() if any(row)] == [(i, 0) for i in range(3)]


def test_rows_premise_needs_each_pair_after_the_one_it_is_built_from(inst8):
    """An s1 with a pair listed without (i - 1, j), or with a negative
    exponent, leaves the rows unevaluated: both certificates FAIL on it."""
    dump = instance_to_dump(inst8)
    rows = "s1 + s2 are not 5 pairs each with (i - 1, j) or (0, j - 1)"
    for s1 in ([[2, 0], [1, 0], [3, 1]], [[-1, 0], [1, 0], [1, 1]]):
        inst = instance_from_dump({**dump, "s1": s1})
        checks = {c.name: c.detail for c in verify_instance(inst, trials=1)}
        assert checks["generator-ranks"] == f"rank 5 not certified: {rows}"
        assert checks["dual-containment"] == f"D inside C-perp not certified: {rows}"


def _reference_gate(inst):
    """(rank of G_C by elimination is k and G_D is n - k distinct rows of it,
    every D row has dot product 0 with every C row)."""
    f, n, k = inst.field, inst.n, inst.k
    rows_d = set(inst.matrix_d)
    ranked = len(linalg._rref_ints(f, list(inst.matrix_c))) == k
    inside = len(inst.matrix_d) == len(rows_d) == n - k and rows_d <= set(inst.matrix_c)
    dots = all(f.dot(rd, rc) == 0 for rd in inst.matrix_d for rc in inst.matrix_c)
    return ranked and inside, dots


def _gate(inst):
    """(generator-ranks passes, dual-containment passes)."""
    checks = {c.name: c.ok for c in verify_instance(inst, trials=1)}
    return checks["generator-ranks"], checks["dual-containment"]


def test_degree_certificates_agree_with_elimination_and_dots(inst32, inst8, inst7, inst4, inst9x):
    """On the five fixtures and the nine perfbench specs, generator-ranks and
    dual-containment PASS exactly where elimination gives rank k and every
    D row is orthogonal to every C row; here both hold everywhere."""
    insts = [inst32, inst8, inst7, inst4, inst9x]
    for spec in sorted((PERFBENCH / "specs").glob("*.json")):
        insts.append(instance_from_spec(json.loads(spec.read_text())))
    assert len(insts) == 14
    for inst in insts:
        assert _gate(inst) == _reference_gate(inst) == (True, True)


def test_degree_certificates_are_sound_on_the_gate_mutants():
    """Over the seeded single-field mutants of the shipped dumps, a PASS of
    either certificate implies what elimination or the dot products find."""
    from test_gate_mutations import SEED, SHIPPED, _mutants

    passed = failed = 0
    for path in SHIPPED:
        for name, mutant in _mutants(json.loads(path.read_text()), Xorshift64Star(SEED)):
            try:
                inst = instance_from_dump(mutant)
            except InputError:
                continue
            gate = _gate(inst)
            reference = _reference_gate(inst) if any(gate) else gate
            assert all(r for g, r in zip(gate, reference) if g), name
            passed += sum(gate)
            failed += 2 - sum(gate)
    assert passed > 300 and failed > 100


def test_gate_fails_the_row_mutants_on_its_own(inst32, inst8, inst7, inst4, inst9x):
    """A C row copied over another, a D row replaced by the sum of two D
    rows (where there are two), and one changed multiplier each fail
    generator-ranks and dual-containment, whatever the other checks say."""
    for inst in (inst32, inst8, inst7, inst4, inst9x):
        f, es, rows_d = inst.field, inst.eval_set, inst.matrix_d
        u = (next(x for x in range(1, f.q) if x != es.u[0]), *es.u[1:])
        mutants = [
            inst._replace(matrix_c=(inst.matrix_c[1], *inst.matrix_c[1:])),
            inst._replace(eval_set=es._replace(u=u)),
        ]
        if len(rows_d) > 1:
            summed = tuple(map(f.add, rows_d[0], rows_d[1]))
            mutants.append(inst._replace(matrix_d=(summed, *rows_d[1:])))
        for mutant in mutants:
            assert _gate(mutant) == (False, False)


def test_gate_runs_no_elimination(monkeypatch, inst32, inst8, inst7, inst4, inst9x):
    """build_code, verify_instance and css_params certify fresh instances
    with linalg._rref_ints refusing to run; construct does not import linalg."""

    def refuse(*args):
        raise AssertionError("the gate ran an elimination")

    monkeypatch.setattr(linalg, "_rref_ints", refuse)
    assert not hasattr(construct, "linalg")
    for inst in (inst32, inst8, inst7, inst4, inst9x):
        built = build_code(inst.eval_set, inst.k)
        loaded = instance_from_dump(instance_to_dump(inst))
        assert all(c.ok for c in verify_instance(loaded, trials=5))
        assert bounds.css_params(built) == bounds.css_params(loaded) == bounds.css_params(inst)


def test_dual_rows_orthogonal_to_code_rows(inst32):
    f = inst32.field
    for rd in inst32.matrix_d:
        for rc in inst32.matrix_c:
            assert linalg.dot(f.from_ints(rd), f.from_ints(rc)).is_zero()


def _rref_elementwise(rows):
    """Gauss-Jordan on FieldElement objects, one element operation at a time."""
    mat, pivots, r = [list(row) for row in rows], [], 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                lead = mat[i][c]
                mat[i] = [x - lead * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _random_matrix(rng, f, rows, cols):
    """Random rows, then a few combinations of them and a zero column, so
    that eliminations also meet dependent rows and missing pivots."""
    mat = [[rng.element(f) for _ in range(cols)] for _ in range(rows)]
    for _ in range(2):
        a, b = rng.element(f), rng.element(f)
        i, j = rng.below(rows), rng.below(rows)
        mat.append([a * x + b * y for x, y in zip(mat[i], mat[j])])
    zero_col = rng.below(cols)
    for row in mat:
        row[zero_col] = f.zero()
    return mat


def test_int_kernels_match_elementwise_reference(inst32):
    """linalg._rref_ints / dot and encode, which run on integer encodings, agree
    with element-by-element arithmetic on seeded random data."""
    f27 = Field(3, 3)
    sub27 = subgroup_from_MB(f27, 1, {f27.one()}, {f27.zero(), f27.one(), f27.one() + f27.one()})
    inst27 = build_code(build_evaluation_set(sub27), 18)
    for inst, seed in [(inst32, 5), (inst27, 27)]:
        f, rng = inst.field, Xorshift64Star(seed)
        for shape in [(3, 7), (6, 6), (8, 5), (12, 20)]:
            mat = _random_matrix(rng, f, *shape)
            reduced = [f.ints(row) for row in mat]
            pivots = linalg._rref_ints(f, reduced)
            assert ([f.from_ints(row) for row in reduced], pivots) == _rref_elementwise(mat)
            assert linalg.rank(mat) == len(_rref_elementwise(mat)[1])
            u, v = mat[0], mat[1]
            ref = f.zero()
            for a, b in zip(u, v):
                ref = ref + a * b
            assert linalg.dot(u, v) == ref
        gen = _random_matrix(rng, f, inst.k - 2, inst.n)
        other = inst._replace(matrix_c=tuple(tuple(f.ints(row)) for row in gen))
        for _ in range(10):
            msg = [rng.element(f) for _ in range(inst.k)]
            word = [f.zero()] * inst.n
            for c, row in zip(msg, gen):
                word = [w + c * x for w, x in zip(word, row)]
            assert encode(other, msg) == word


def test_kappa_and_summary(inst32, inst9x):
    assert inst32.kappa == 6
    assert inst32.summary() == "[32,19]_32 locality 3, dual-containing: OK, qLRC [[32,6]]_32"
    assert inst9x.summary().endswith("(extended field)")
    assert inst9x.eval_set.extended
    assert inst9x.field.q == 81 and inst9x.eval_set.base_field.q == 9


def test_encode_linear_and_weight(inst8):
    f = inst8.field
    rng = Xorshift64Star(53)
    zero_msg = [f.zero()] * inst8.k
    assert all(c.is_zero() for c in encode(inst8, zero_msg))
    for _ in range(50):
        m1 = [rng.element(f) for _ in range(inst8.k)]
        m2 = [rng.element(f) for _ in range(inst8.k)]
        w1, w2 = encode(inst8, m1), encode(inst8, m2)
        ws = encode(inst8, [a + b for a, b in zip(m1, m2)])
        assert ws == [a + b for a, b in zip(w1, w2)]


def test_encode_matches_the_axpy_loop(
    inst32, inst8, inst7, inst4, inst9x, translation_instance, axpy_combination, combination_messages
):
    """encode combines the rows as the axpy loop did, on the five fixtures,
    the GF(2^16) spec and the odd-p translation codes over GF(27) and
    GF(25), for int and FieldElement messages alike; its word is elements."""
    spec = json.loads((PERFBENCH / "specs" / "q65536_n32_k19.json").read_text())
    insts = [inst32, inst8, inst7, inst4, inst9x, instance_from_spec(spec)]
    insts += [translation_instance(3, 3, 18), translation_instance(5, 2, 15)]
    for inst in insts:
        f, rng = inst.field, Xorshift64Star(inst.n)
        for msg in combination_messages(f, inst.k, rng):
            want = axpy_combination(f, inst.matrix_c, inst.n, msg)
            word = encode(inst, msg)
            assert all(type(c) is FieldElement for c in word)
            assert [c.value() for c in word] == want
            assert encode(inst, f.from_ints(msg)) == word


def test_encode_and_repair_hand_out_shared_elements(inst32, inst9x, axpy_combination):
    """On the flagship and the GF(9) -> GF(81) code, encode's word equals the
    axpy reference element by element, each symbol is the field's shared
    element for its value, and so is the symbol repair returns."""
    for inst in (inst32, inst9x):
        f, rng = inst.field, Xorshift64Star(inst.n + 1)
        for _ in range(10):
            msg = [rng.below(f.q) for _ in range(inst.k)]
            word = encode(inst, msg)
            want = axpy_combination(f, inst.matrix_c, inst.n, msg)
            assert word == [FieldElement(f, v) for v in want]
            assert all(a is b for a, b in zip(word, f.from_ints(want)))
            z = rng.below(inst.n)
            received = list(word)
            received[z] = None
            assert repair(inst, received, z) is word[z]


def test_encode_rejects_bad_messages(inst8, inst32):
    f, k = inst8.field, inst8.k
    for wrong in (k - 1, k + 1):
        with pytest.raises(LengthMismatch, match=f"message length {wrong} != k = 5"):
            encode(inst8, [0] * wrong)
    for bad in (f.q, -1):
        with pytest.raises(InputError, match="outside"):
            encode(inst8, [1] * (k - 1) + [bad])
    with pytest.raises(FieldMismatch):
        encode(inst8, [1] * (k - 1) + [inst32.field.one()])


def test_encode_names_the_first_ragged_generator_row(inst8):
    """A generator row whose length is not n raises LengthMismatch, naming
    the first such row, before any arithmetic: every message fails alike,
    the zero message too."""
    rows = [list(row) for row in inst8.matrix_c]
    rows[3].pop()
    rows[4].append(0)
    ragged = inst8._replace(matrix_c=tuple(map(tuple, rows)))
    for msg in ([0] * inst8.k, [1] * inst8.k, [0, 0, 0, 0, 1]):
        with pytest.raises(LengthMismatch, match=r"^generator_c row 3 has length 7 != n = 8$"):
            encode(ragged, msg)


def test_nonzero_codewords_respect_degree_bound(inst8):
    """Any nonzero codeword has weight >= n - (largest evaluated degree)."""
    f = inst8.field
    rng = Xorshift64Star(59)
    floor = inst8.n - max(inst8.ell, inst8.n - (inst8.r + 1))
    for _ in range(200):
        msg = [rng.element(f) for _ in range(inst8.k)]
        word = encode(inst8, msg)
        if all(c.is_zero() for c in word):
            continue
        assert sum(1 for c in word if not c.is_zero()) >= floor


def test_repair_reads_only_the_block(inst32):
    f = inst32.field
    rng = Xorshift64Star(61)
    reads = []

    class Logger(list):
        def __getitem__(self, i):
            v = super().__getitem__(i)
            if v is not None:
                reads.append(i)
            return v

    for _ in range(50):
        msg = [rng.element(f) for _ in range(inst32.k)]
        word = encode(inst32, msg)
        z = rng.below(inst32.n)
        rec = Logger(word)
        rec[z] = None
        reads.clear()
        assert repair(inst32, rec, z) == word[z]
        block = set(_block_of(inst32.eval_set, z))
        assert len(reads) == inst32.r
        assert set(reads) == block - {z}


def test_repair_error_paths(inst8):
    f = inst8.field
    word = encode(inst8, [f.one()] * inst8.k)
    rec = list(word)
    with pytest.raises(InputError):
        repair(inst8, rec, 0)  # nothing erased there
    rec[0] = None
    with pytest.raises(InputError):
        repair(inst8, rec, 99)
    rec[1] = None  # same block as 0
    with pytest.raises(BlockIncomplete):
        repair(inst8, rec, 0)


@pytest.mark.parametrize("delta", [-1, 1])
def test_repair_rejects_a_word_of_the_wrong_length(inst8, delta):
    """A short word once raised IndexError and a long one was repaired."""
    rec = list(encode(inst8, [inst8.field.one()] * inst8.k))
    rec[0] = None
    rec = rec[:-1] if delta < 0 else rec + [inst8.field.one()]
    with pytest.raises(LengthMismatch, match=rf"^received word length {8 + delta} != n = 8$"):
        repair(inst8, rec, 0)


def test_repair_on_extended_instance(inst9x):
    f = inst9x.field
    rng = Xorshift64Star(67)
    for _ in range(100):
        msg = [rng.element(f) for _ in range(inst9x.k)]
        word = encode(inst9x, msg)
        z = rng.below(inst9x.n)
        rec = list(word)
        rec[z] = None
        assert repair(inst9x, rec, z) == word[z]


def _interpolated_repair(inst, word, z):
    """u_z * lambda(a_z), lambda interpolating the survivors divided by their
    multipliers: the Lagrange repair, kept here as the reference."""
    es, f = inst.eval_set, inst.field
    points, u = f.from_ints(es.points), f.from_ints(es.u)
    mates = [i for i in _block_of(es, z) if i != z]
    lam = poly.interpolate([(points[i], word[i] / u[i]) for i in mates])
    return u[z] * lam(points[z])


def test_repair_matches_interpolation_at_every_position(inst32, inst8, inst7, inst4, inst9x):
    rng = Xorshift64Star(71)
    for inst in (inst32, inst8, inst7, inst4, inst9x):
        f = inst.field
        for z in range(inst.n):
            word = encode(inst, [rng.element(f) for _ in range(inst.k)])
            rec = list(word)
            rec[z] = None
            got = repair(inst, rec, z)
            assert got == _interpolated_repair(inst, word, z) == word[z]


def test_repair_needs_no_polynomial_arithmetic(inst32, monkeypatch):
    """Every position of a fresh copy repairs exactly with interpolation and
    polynomial products disabled, and again from the weight table with
    field inversion disabled as well."""
    fresh = inst32._replace()

    def boom(*args, **kwargs):
        raise AssertionError("repair must not reach this")

    monkeypatch.setattr(construct, "interpolate", boom)
    monkeypatch.setattr(Polynomial, "__mul__", boom)
    f = fresh.field
    rng = Xorshift64Star(73)
    words = [encode(fresh, [rng.element(f) for _ in range(fresh.k)]) for _ in range(2)]
    for word in words:
        for z in range(fresh.n):
            rec = list(word)
            rec[z] = None
            assert repair(fresh, rec, z) == word[z]
        monkeypatch.setattr(type(f), "inv", boom)
        monkeypatch.setattr(type(f.one()), "inv", boom)


def test_repair_coefficients_are_cached_per_position(inst8):
    """A fresh copy builds its weight table on the first repair and keeps it:
    keys are range(n), z's entry is its block's other positions in block
    order, each weighted -u_i / u_z."""
    f, u = inst8.field, inst8.field.from_ints(inst8.eval_set.u)
    fresh = inst8._replace()
    assert "_repair_weights" not in vars(fresh)
    word = encode(fresh, [f.one()] * fresh.k)
    tables = []
    for z in (5, 0, 5):
        rec = list(word)
        rec[z] = None
        assert repair(fresh, rec, z) == word[z]
        tables.append(vars(fresh)["_repair_weights"])
    assert tables[0] is tables[1] is tables[2]
    assert sorted(tables[0]) == list(range(8))
    mates, weights = tables[0][0]
    assert mates == (1, 2, 3) and len(weights) == 3
    for z, (mates, weights) in tables[0].items():
        assert mates == tuple(i for i in _block_of(inst8.eval_set, z) if i != z)
        assert f.from_ints(weights) == [-u[i] / u[z] for i in mates]


def test_block_of_reads_the_first_block_listing_a_position(inst8):
    """A position's repair reads the first block that lists it.  A block
    naming a position outside range(n) lists none: position 7 then has no
    entry and its repair says so, while block 0, listed in another order,
    still repairs."""
    f = inst8.field
    es = inst8.eval_set._replace(blocks=((2, 0, 3, 1), (3, 4, 5, 6), (7, 8)))
    damaged = inst8._replace(eval_set=es)
    table = damaged._repair_weights
    assert sorted(table) == list(range(7))
    assert table[0][0] == (2, 3, 1) and table[3][0] == (2, 0, 1) and table[6][0] == (3, 4, 5)
    word = encode(damaged, [f.one()] * damaged.k)
    assert repair(damaged, [None, *word[1:]], 0) == word[0]
    with pytest.raises(InputError, match="^position 7 is not covered by any block$"):
        repair(damaged, [*word[:7], None], 7)


def test_multiplied_block_indicators_are_parity_checks(inst32, inst8, inst7, inst4, inst9x):
    """u * 1_B, u on the block B and 0 elsewhere, is orthogonal to every row
    of G_C: the identity repair solves for the erased symbol."""
    for inst in (inst32, inst8, inst7, inst4, inst9x):
        f, u = inst.field, inst.eval_set.u
        for blk in inst.eval_set.blocks:
            check = [u[i] if i in blk else 0 for i in range(inst.n)]
            assert all(f.dot(check, row) == 0 for row in inst.matrix_c), (inst.summary(), blk)


def test_repair_reads_no_point(inst32, monkeypatch):
    """With every point of a copy set to 0 and _lagrange_denominators
    disabled, every position still repairs exactly: the weights come from
    u alone.  The Lagrange repair raised DegenerateSet here."""
    pointless = inst32.eval_set._replace(points=(0,) * inst32.n)
    blind = inst32._replace(eval_set=pointless)

    def boom(*args, **kwargs):
        raise AssertionError("repair must not reach this")

    monkeypatch.setattr(construct, "_lagrange_denominators", boom)
    rng = Xorshift64Star(79)
    word = encode(blind, [rng.below(blind.field.q) for _ in range(blind.k)])
    for z in range(blind.n):
        assert repair(blind, [*word[:z], None, *word[z + 1 :]], z) == word[z]


def _distinct_values(rng, q, size):
    """size distinct encodings below q, in the order rng draws them."""
    out = []
    while len(out) < size:
        v = rng.below(q)
        if v not in out:
            out.append(v)
    return out


def test_lagrange_denominators_serve_the_multiplier_solve():
    """One path for every characteristic, against FieldElement products."""
    rng = Xorshift64Star(83)
    for p, m in [(2, 3), (2, 6), (3, 2), (3, 3), (5, 2)]:
        f = Field(p, m)
        for size in (1, 2, 5, f.q):
            pts = f.from_ints(_distinct_values(rng, f.q, size))
            dens = construct._lagrange_denominators(f, f.ints(pts))
            for x, w in zip(pts, dens):
                prod = f.one()
                for y in pts:
                    if y != x:
                        prod = prod * (x - y)
                assert f.from_value(w) * prod == f.one()
        with pytest.raises(DegenerateSet):
            construct._lagrange_denominators(f, [1, 2, 1])


def _survivor_weights(es, z):
    """c_i = u_z u_i^-1 prod_{j in S - i} (a_z - a_j) / (a_i - a_j) over z's
    block mates S, the Lagrange coefficients on the survivors alone: the
    repair weights before they were read off u, kept here as the
    reference."""
    f, xs, u = es.field, es.points, es.u
    mates = [i for i in _block_of(es, z) if i != z]
    out = []
    for i in mates:
        c = f.mul(u[z], f.inv(u[i]))
        for j in mates:
            if j != i:
                c = f.mul(c, f.mul(f.sub(xs[z], xs[j]), f.inv(f.sub(xs[i], xs[j]))))
        out.append(c)
    return tuple(out)


def test_repair_weights_match_the_survivor_lagrange_form(inst32, inst8, inst7, inst4, inst9x):
    for inst in (inst32, inst8, inst7, inst4, inst9x):
        es = inst.eval_set
        for z in range(inst.n):
            mates, weights = inst._repair_weights[z]
            assert mates == tuple(i for i in _block_of(es, z) if i != z)
            assert weights == _survivor_weights(es, z), (inst.summary(), z)


# --- verification and dumps -----------------------------------------------------


def test_verify_all_checks_pass(inst32, inst8, inst7, inst4, inst9x):
    names = [
        "multiplier-power-sums",
        "generator-ranks",
        "dual-containment",
        "block-polynomial-constancy",
        "generator-row-consistency",
        "quotient-ring-closure",
        "local-repair",
    ]
    for inst in (inst32, inst8, inst7, inst4, inst9x):
        checks = verify_instance(inst, trials=25)
        assert [c.name for c in checks] == names
        bad = [c for c in checks if not c.ok]
        assert not bad, bad


def test_dump_roundtrip_and_determinism(inst32, sub32):
    dump = instance_to_dump(inst32)
    text = json.dumps(dump, sort_keys=True, indent=2)
    again = build_code(build_evaluation_set(sub32), 19)
    assert json.dumps(instance_to_dump(again), sort_keys=True, indent=2) == text

    back = instance_from_dump(json.loads(text))
    assert back == inst32
    assert instance_to_dump(back) == dump
    assert back.summary() == inst32.summary()
    assert all(c.ok for c in verify_instance(back, trials=10))


def test_dump_roundtrip_extended(inst9x):
    dump = instance_to_dump(inst9x)
    back = instance_from_dump(json.loads(json.dumps(dump)))
    assert back == inst9x
    assert back.summary() == inst9x.summary()
    assert all(c.ok for c in verify_instance(back, trials=10))


def test_instances_hold_integer_encodings(inst32, inst9x):
    """Points, multipliers and generator rows are ints on the base build, the
    GF(q^2) extension and a reloaded dump: an element that leaked back in
    would never equal the int tuples that generator-row-consistency and
    dual_positions compare."""
    f8, f3 = Field(2, 3), Field(3, 1)
    solutions = [solve_multipliers(f8, list(f8.elements())), solve_multipliers(f3, [f3.zero(), f3.one()])]
    assert solutions[1].extended
    for sol in solutions:
        assert {type(x) for x in (*sol.points, *sol.u)} == {int}
    for inst in (inst32, inst9x):
        for built in (inst, instance_from_dump(json.loads(json.dumps(instance_to_dump(inst))))):
            es = built.eval_set
            rows = built.matrix_c + built.matrix_d
            assert {type(x) for x in (*es.points, *es.u, *(x for row in rows for x in row))} == {int}
            assert {type(row) for row in rows} == {tuple}


def test_verify_rejects_trials_below_one(inst8):
    for trials in (0, -2):
        with pytest.raises(InputError, match="trials"):
            verify_instance(inst8, trials=trials)


def test_tampered_multiplier_fails_power_sum_check(inst8):
    dump = instance_to_dump(inst8)
    bad = json.loads(json.dumps(dump))
    f = inst8.field
    u0 = f.element(bad["u"][0])
    bad["u"][0] = (u0 + f.one()).to_list()
    inst = instance_from_dump(bad)
    by_name = {c.name: c for c in verify_instance(inst, trials=5)}
    assert not by_name["multiplier-power-sums"].ok


def _premise_holds(fld, points, u):
    """Whether the gate's power-sums premise holds, read off an instance
    that carries these points and multipliers and nothing else."""
    good = GoodPolynomial(Polynomial.one(fld), None, None)
    es = construct.EvaluationSet(fld, tuple(points), (), tuple(u), good, False, fld)
    inst = construct.CodeInstance(es, 5, exponent_sets(8, 5, 3), (), ())
    return "power-sums" not in inst._premises


def _assert_premise_matches_the_loop(fld, points, u, rng):
    """The premise agrees with the power-sum loop on u, on u scaled by a
    nonzero constant, on u with one entry moved, on a random vector and on
    zero; u, its scaling and zero PASS.  Returns how many variants failed."""
    c, z = 1 + rng.below(fld.q - 1), rng.below(len(u))
    scaled, zero = [fld.mul(c, x) for x in u], [0] * len(u)
    moved = [*u[:z], fld.add(u[z], 1 + rng.below(fld.q - 1)), *u[z + 1 :]]
    noise = [rng.below(fld.q) for _ in u]
    assert _premise_holds(fld, points, u)
    assert _premise_holds(fld, points, scaled) and _premise_holds(fld, points, zero)
    verdicts = [_premise_holds(fld, points, v) for v in (u, scaled, zero, moved, noise)]
    assert verdicts == [_power_sums_vanish(fld, points, v) for v in (u, scaled, zero, moved, noise)]
    return verdicts.count(False)


def test_power_sum_premise_matches_the_loop_on_the_fixtures(inst32, inst8, inst7, inst4, inst9x):
    rng = Xorshift64Star(79)
    failed = 0
    for inst in (inst32, inst8, inst7, inst4, inst9x):
        es = inst.eval_set
        failed += _assert_premise_matches_the_loop(es.field, es.points, es.u, rng)
    assert failed >= 5


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2), (5, 2), (3, 3)])
def test_power_sum_premise_matches_the_loop_on_random_points(p, m):
    """Seeded point sets, solved over GF(q) or moved to GF(q^2)."""
    f = Field(p, m)
    rng = Xorshift64Star(200 + 10 * p + m)
    failed = 0
    for size in (2, 3, 4, 6, f.q):
        for _ in range(3):
            sol = solve_multipliers(f, _distinct_values(rng, f.q, size))
            failed += _assert_premise_matches_the_loop(sol.field, sol.points, sol.u, rng)
    assert failed >= 15


def test_repeated_points_leave_the_power_sums_uncertified(inst8):
    dump = instance_to_dump(inst8)
    bad = dict(dump, points=[dump["points"][1], *dump["points"][1:]])
    check = verify_instance(instance_from_dump(bad), trials=1)[0]
    assert check.name == "multiplier-power-sums"
    assert check.detail == "power sums not certified: evaluation points repeat"


def test_tampered_g_fails_constancy(inst8):
    dump = instance_to_dump(inst8)
    bad = json.loads(json.dumps(dump))
    f = inst8.field
    x4 = Polynomial.monomial(f, f.one(), 4)  # not block-constant for this subgroup
    bad["g"] = x4.to_lists()
    inst = instance_from_dump(bad)
    by_name = {c.name: c for c in verify_instance(inst, trials=5)}
    assert not by_name["block-polynomial-constancy"].ok


def test_tampered_generator_row_fails(inst8):
    dump = instance_to_dump(inst8)
    bad = json.loads(json.dumps(dump))
    f = inst8.field
    c00 = f.element(bad["generator_c"][0][0])
    bad["generator_c"][0][0] = (c00 + f.one()).to_list()
    inst = instance_from_dump(bad)
    by_name = {c.name: c for c in verify_instance(inst, trials=5)}
    assert not by_name["generator-row-consistency"].ok


def test_tampered_dual_rows_fail(tampered_dual_dumps):
    for bad, check in tampered_dual_dumps:
        by_name = {c.name: c for c in verify_instance(instance_from_dump(bad), trials=5)}
        assert not by_name[check].ok, check


def test_blocks_that_are_not_orbits_fail_constancy(inst8):
    """Swapping the translation basis {1, a} for {1, a^2} leaves g constant
    on the dumped blocks, but they are no longer orbits of the subgroup.
    Each block is still a whole fibre of g, all that locality needs: the
    fibre half of the check passes and the orbit half names the block."""
    bad = json.loads(json.dumps(instance_to_dump(inst8)))
    bad["subgroup"]["B_basis"] = [[1, 0, 0], [0, 0, 1]]
    inst = instance_from_dump(bad)
    by_name = {c.name: c for c in verify_instance(inst, trials=5)}
    assert [name for name, c in by_name.items() if not c.ok] == ["block-polynomial-constancy"]
    assert "not a free orbit" in by_name["block-polynomial-constancy"].detail
    assert construct._fibre_problem(inst.eval_set) is None
    detail = construct._orbit_problem(inst.eval_set)
    assert detail == "block (0, 1, 2, 3) is not a free orbit of the subgroup"


def test_points_swapped_across_blocks_fail_the_fibre_half_first():
    """Swapping points 0 and 4 of the shipped [8,5]_8 dump puts a point of
    each block into the other: the blocks are neither fibres of g nor
    orbits, and the fibre half, checked first, names the first block."""
    bad = json.loads((PERFBENCH / "dumps" / "q8_n8_k5.json").read_text())
    bad["points"][0], bad["points"][4] = bad["points"][4], bad["points"][0]
    checks = {c.name: c for c in verify_instance(instance_from_dump(bad), trials=5)}
    detail = checks["block-polynomial-constancy"].detail
    assert detail == "block (0, 1, 2, 3) sees several values of g"


def test_g_is_evaluated_once_per_point(monkeypatch):
    """A build, and a load plus verify, evaluate g n + R times: once per
    point for the rows, the fibre check and the ring check together, and
    once per point of alpha's orbit for the annihilator check."""
    calls = []
    horner = Field.horner
    monkeypatch.setattr(Field, "horner", lambda self, c, x: calls.append(x) or horner(self, c, x))
    spec = json.loads((PERFBENCH / "specs" / "q8_n8_k5.json").read_text())
    instance_from_spec(spec)
    assert len(calls) == 8 + 4
    calls.clear()
    dump = json.loads((PERFBENCH / "dumps" / "q8_n8_k5.json").read_text())
    assert all(c.ok for c in verify_instance(instance_from_dump(dump), trials=5))
    assert len(calls) == 8 + 4


def test_blocks_that_do_not_partition_fail_constancy(inst8):
    bad = json.loads(json.dumps(instance_to_dump(inst8)))
    bad["blocks"][1] = bad["blocks"][0]
    check = {c.name: c for c in verify_instance(instance_from_dump(bad), trials=5)}[
        "block-polynomial-constancy"
    ]
    assert not check.ok and "do not partition" in check.detail


@pytest.mark.parametrize(
    "alpha, detail",
    [
        (None, "alpha None does not have a free orbit"),
        ([0, 0, 1], "g is not the monic annihilator of the orbit of alpha"),
    ],
    ids=["null", "other-block"],
)
def test_alpha_whose_orbit_g_does_not_annihilate_fails_constancy(inst8, alpha, detail):
    bad = json.loads(json.dumps(instance_to_dump(inst8)))
    bad["alpha"] = alpha
    checks = verify_instance(instance_from_dump(bad), trials=5)
    assert [c.name for c in checks if not c.ok] == ["block-polynomial-constancy"]
    assert detail in {c.name: c for c in checks}["block-polynomial-constancy"].detail


def test_alpha_anywhere_in_the_orbit_passes(inst8):
    dump = json.loads(json.dumps(instance_to_dump(inst8)))
    assert dump["alpha"] == [0, 0, 0]
    dump["alpha"] = [1, 1, 0]  # 1 + a, in the orbit of 0
    assert all(c.ok for c in verify_instance(instance_from_dump(dump), trials=5))


def test_g_must_be_monic():
    """Over GF(9), 2g is constant on the same blocks and vanishes on the
    orbit of alpha, but it is not what good_polynomial builds."""
    f9 = Field(3, 2)
    sub = subgroup_from_MB(f9, 1, {f9.one()}, {f9.zero(), f9.one(), f9.from_value(2)})
    es = build_evaluation_set(sub)
    two = f9.from_value(2)
    scaled = es.good._replace(g=es.good.g * two)
    bad = es._replace(good=scaled)
    assert construct._fibre_problem(es) is construct._orbit_problem(es) is None
    assert construct._fibre_problem(bad) is None
    assert "not the monic annihilator" in construct._orbit_problem(bad)


def _old_ring_closure_ok(inst) -> bool:
    """The former quotient-ring-closure algorithm, kept here as a reference:
    g^0 .. g^(u-1) mod h, a rank test, then every product g^i * g^j mod h
    solved in their span.  An exception counts as a failure, as in verify."""
    fld, es = inst.field, inst.eval_set
    u_count = len(es.blocks)
    try:
        h = poly.annihilator(fld, es.points)
    except InputError:
        return False
    basis = [Polynomial.one(fld)]
    for _ in range(u_count - 1):
        basis.append(basis[-1] * es.good.g)
    basis = [b % h for b in basis]
    vecs = [[b.coefficient(i) for i in range(inst.n)] for b in basis]
    if linalg.rank(vecs) != u_count:
        return False
    for i in range(u_count):
        for j in range(i, u_count):
            prod = (basis[i] * basis[j]) % h
            if linalg.solve_in_span(vecs, [prod.coefficient(t) for t in range(inst.n)]) is None:
                return False
    return True


def _ring_check(inst):
    return {c.name: c for c in verify_instance(inst, trials=1)}["quotient-ring-closure"]


def _ring_mutants(inst7, inst8, inst32):
    """Dumps on which the ring check has something to decide."""
    out = []
    d = json.loads(json.dumps(instance_to_dump(inst7)))  # u = 1: any g passes
    d["g"] = Polynomial.monomial(inst7.field, inst7.field.one(), 3).to_lists()
    out.append(("inst7 g = x^3", d))
    d = json.loads(json.dumps(instance_to_dump(inst8)))
    d["points"][1] = d["points"][0]
    out.append(("inst8 duplicated point", d))
    d = json.loads(json.dumps(instance_to_dump(inst8)))
    # a degree-4 g takes each value at most 4 times, so on whole blocks it
    # takes at least u values; splitting a block raises u to 3 instead
    d["blocks"] = [[0, 1], [2, 3], [4, 5, 6, 7]]
    out.append(("inst8 fewer values than blocks", d))
    d = json.loads(json.dumps(instance_to_dump(inst8)))
    d["g"] = Polynomial.monomial(inst8.field, inst8.field.one(), 4).to_lists()  # 8 values
    out.append(("inst8 g = x^4", d))
    d = json.loads(json.dumps(instance_to_dump(inst32)))
    g = inst32.eval_set.good.g + Polynomial.one(inst32.field)  # still one value per block
    d["g"] = g.to_lists()
    out.append(("inst32 g + 1", d))
    return out


def test_ring_closure_matches_the_quotient_ring_algorithm(inst32, inst8, inst7, inst4, inst9x):
    fixtures = (inst32, inst8, inst7, inst4, inst9x)
    cases = list(zip(("inst32", "inst8", "inst7", "inst4", "inst9x"), fixtures))
    cases += [(label, instance_from_dump(d)) for label, d in _ring_mutants(inst7, inst8, inst32)]
    verdicts = {}
    for label, inst in cases:
        verdicts[label] = _ring_check(inst).ok
        assert verdicts[label] == _old_ring_closure_ok(inst), label
    assert [label for label, ok in verdicts.items() if not ok] == [
        "inst8 duplicated point",
        "inst8 fewer values than blocks",
        "inst8 g = x^4",
    ]


def test_ring_closure_no_longer_reduces_mod_h(inst32, monkeypatch):
    def refuse(*args):
        raise AssertionError("annihilator called")

    monkeypatch.setattr(construct, "annihilator", refuse)
    monkeypatch.setattr(linalg, "solve_in_span", refuse)
    assert _ring_check(inst32).ok


def test_verify_transcript_keeps_the_ring_draws():
    """q64_n64_k40 has u = 16 blocks, so the former ring check drew 45
    product pairs from the verify generator before local-repair; the draws
    are still made, and the stream is the one recorded before the check
    became exact."""
    spec = json.loads((PERFBENCH / "specs" / "q64_n64_k40.json").read_text())
    inst = instance_from_spec(spec)
    assert len(inst.eval_set.blocks) == 16
    calls = []
    real = Xorshift64Star.next_u64

    def record(self):
        calls.append(real(self))
        return calls[-1]

    Xorshift64Star.next_u64 = record
    try:
        checks = verify_instance(inst, trials=5, seed=7)
    finally:
        Xorshift64Star.next_u64 = real
    assert all(c.ok for c in checks)
    assert len(calls) == 250
    assert calls[-1] == 5733095210688385060


def test_structure_problem_names_the_first_failing_check(inst8, inst32):
    assert construct.structure_problem(inst32) is None
    bad = json.loads(json.dumps(instance_to_dump(inst8)))
    bad["ell_prime"] = 2
    bad["g"] = Polynomial.monomial(inst8.field, inst8.field.one(), 4).to_lists()
    inst = instance_from_dump(bad)
    problem = construct.structure_problem(inst)
    assert problem == (
        "generator-ranks: rank 5 not certified: S row (0, 1) does not match its evaluation"
    )
    block = {c.name: c for c in verify_instance(inst, trials=1)}["block-polynomial-constancy"]
    assert not block.ok and block.detail.endswith("several values of g")
    bad["g"] = instance_to_dump(inst8)["g"]
    problem = construct.structure_problem(instance_from_dump(bad))
    assert problem == (
        "generator-row-consistency: stored ell_prime disagree with exponent_sets(8, 5, 3)"
    )


def test_structure_problem_reports_an_exception(inst8):
    bad = json.loads(json.dumps(instance_to_dump(inst8)))
    bad["k"] = 4  # exponent_sets raises BadDimension inside generator-row-consistency
    inst = instance_from_dump(bad)
    by_name = {c.name: c for c in verify_instance(inst, trials=1)}
    assert by_name["generator-row-consistency"].detail.startswith("BadDimension: ")
    assert construct.structure_problem(inst).startswith("generator-ranks: ")


def test_row_consistency_compares_all_exponent_data(inst8):
    dump = instance_to_dump(inst8)
    edits = [
        ({"r": 4}, "r"),
        ({"ell": 4}, "ell"),
        ({"ell_prime": 2}, "ell_prime"),
        ({"s1": [[2, 0], [1, 0], [1, 1]]}, "s1"),
        ({"s2": [[0, 1], [0, 0]]}, "s2"),
        ({"t1": [[2, 0]]}, "t1"),
        ({"t1": [[2, 0]], "ell_prime": 2}, "t1, ell_prime"),
    ]
    for edit, named in edits:
        checks = verify_instance(instance_from_dump({**dump, **edit}), trials=1)
        check = {c.name: c for c in checks}["generator-row-consistency"]
        assert check.detail == f"stored {named} disagree with exponent_sets(8, 5, 3)", edit


def test_power_sum_check_rejects_a_flipped_extended_flag(inst8, inst9x):
    for inst in (inst8, inst9x):
        bad = dict(instance_to_dump(inst), extended=not inst.eval_set.extended)
        check = verify_instance(instance_from_dump(bad), trials=1)[0]
        assert check.name == "multiplier-power-sums" and not check.ok
        assert "extended" in check.detail


def test_power_sum_check_rejects_a_field_that_is_not_the_extension(inst9x):
    bad = dict(instance_to_dump(inst9x), base_field=Field(3, 3).descriptor())
    check = verify_instance(instance_from_dump(bad), trials=1)[0]
    assert check.detail == "field is not the quadratic extension of base_field"


def test_power_sum_check_rejects_points_outside_the_embedded_base_field():
    """A valid GF(81) instance relabelled as extended from GF(9): every
    other check passes, but its points are not all in the subfield GF(9)."""
    f = Field(3, 4)
    one = f.one()
    sub = subgroup_from_MB(f, 1, {one}, {f.zero(), one, one + one})
    inst = build_code(build_evaluation_set(sub, domain="orbits", n=9), 6)
    dump = instance_to_dump(inst)
    assert not dump["extended"]
    bad = dict(dump, extended=True, base_field=Field(3, 2).descriptor())
    checks = verify_instance(instance_from_dump(bad), trials=3)
    assert [c.name for c in checks if not c.ok] == ["multiplier-power-sums"]
    assert checks[0].detail == "a point lies outside the embedded base field"


def test_dump_without_blocks_is_rejected(inst8):
    dump = instance_to_dump(inst8)
    for blocks in ([], [[0, 1, 2, 3], []]):
        with pytest.raises(InputError, match="block"):
            instance_from_dump(dict(dump, blocks=blocks))


def test_malformed_dump_rejected(inst8):
    dump = instance_to_dump(inst8)
    bad = json.loads(json.dumps(dump))
    del bad["points"]
    with pytest.raises(InputError):
        instance_from_dump(bad)
    bad2 = json.loads(json.dumps(dump))
    bad2["u"] = bad2["u"][:-1]
    with pytest.raises(InputError):
        instance_from_dump(bad2)


def test_instance_from_spec_matches_direct_build(inst32, sub32):
    spec = {
        "field": {"p": 2, "m": 5},
        "n": 32,
        "r": 3,
        "k": 19,
        "subgroup": sub32.descriptor(),
        "alpha": "auto",
        "evaluation_domain": "full_field",
        "seed": 1,
    }
    inst = instance_from_spec(spec)
    assert instance_to_dump(inst) == instance_to_dump(inst32)


def test_instance_from_spec_errors(sub32):
    base = {
        "field": {"p": 2, "m": 5},
        "n": 32,
        "r": 3,
        "k": 19,
        "subgroup": sub32.descriptor(),
    }
    missing = dict(base)
    del missing["subgroup"]
    with pytest.raises(InputError):
        instance_from_spec(missing)
    wrong_r = dict(base, r=4)
    with pytest.raises(InputError):
        instance_from_spec(wrong_r)
    low_k = dict(base, k=16)
    with pytest.raises(BadDimension) as err:
        instance_from_spec(low_k)
    assert "k" in str(err.value)


def test_build_code_seed_recorded(sub32):
    inst = build_code(build_evaluation_set(sub32), 19, seed=7)
    assert inst.seed == 7
    assert instance_to_dump(inst)["seed"] == 7


@pytest.mark.parametrize("path", sorted((PERFBENCH / "specs").glob("*.json")), ids=lambda p: p.stem)
def test_spec_dumps_match_benchmark_goldens(path, tmp_path, capsys):
    """Every benchmark spec still builds, through `qlrc construct --output`,
    to the dump whose sha256 the benchmark's goldens record, and the
    summary, bounds and --brute-force stdout the goldens hold for it are
    unchanged."""
    goldens = json.loads((PERFBENCH / "goldens.json").read_text())
    name, dump = path.stem, tmp_path / "dump.json"
    assert main(["construct", "--spec", str(path), "--output", str(dump)]) == 0
    assert capsys.readouterr().out == goldens["construct_stdout"][name]
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == goldens["dumps"][name]
    for key, extra in (("bounds_stdout", []), ("bruteforce_stdout", ["--brute-force"])):
        if name in goldens[key]:
            assert main(["bounds", "--instance", str(dump), *extra]) == 0
            assert capsys.readouterr().out == goldens[key][name]


def test_dump_entries_share_no_lists(inst32):
    """Equal values dump as equal but separate lists: editing one entry in
    place leaves every other entry as it was."""
    dump = instance_to_dump(inst32)
    before = json.loads(json.dumps(dump))
    dump["u"][0][0] ^= 1
    before["u"][0][0] ^= 1
    assert dump == before
