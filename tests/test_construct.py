"""Pipeline behavior: multipliers, exponent sets, code construction, repair,
dumps, and the named verification checks (including mutation failures)."""

import dataclasses
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
from qlrc import construct, linalg
from qlrc.agl import AglSubgroup, GoodPolynomial
from qlrc.construct import (
    BadDimension,
    BlockIncomplete,
    DegenerateSet,
    LengthMismatch,
    LocalityTooSmall,
)
from qlrc.errors import ConstructionError, InputError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# --- multipliers --------------------------------------------------------------


def _power_sums_vanish(sol):
    n = len(sol.points)
    for j in range(n - 1):
        acc = sol.field.zero()
        for u, x in zip(sol.u, sol.points):
            acc = acc + u * u * x**j
        assert acc.is_zero(), f"power sum at exponent {j}"


def test_multipliers_char2_full_field_all_one():
    for m in (3, 5):
        f = Field(2, m)
        sol = solve_multipliers(list(f.elements()))
        assert not sol.extended
        assert all(u == f.one() for u in sol.u)
        _power_sums_vanish(sol)


def test_multipliers_odd_full_field_all_equal():
    for p, m in [(5, 1), (3, 2), (7, 1)]:
        f = Field(p, m)
        sol = solve_multipliers(list(f.elements()))
        assert not sol.extended
        assert len({u.value() for u in sol.u}) == 1
        _power_sums_vanish(sol)


def test_multipliers_residue_set_squares_to_points():
    """On the set of nonzero squares, the squared multipliers are the points."""
    f = Field(7, 1)
    pts = [f.from_value(v) for v in (1, 2, 4)]
    sol = solve_multipliers(pts)
    assert not sol.extended
    assert [u.value() for u in sol.u] == [1, 3, 2]
    for u, x in zip(sol.u, sol.points):
        assert u * u == x
    _power_sums_vanish(sol)


def test_multipliers_mixed_classes_extend():
    """{0, 1} over GF(3) needs the quadratic extension."""
    f = Field(3, 1)
    sol = solve_multipliers([f.zero(), f.one()])
    assert sol.extended
    assert sol.field.q == 9
    _power_sums_vanish(sol)


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
            _power_sums_vanish(solve_multipliers(chosen))


def test_multipliers_reject_duplicates():
    f = Field(2, 3)
    with pytest.raises(DegenerateSet):
        solve_multipliers([f.one(), f.one()])


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


def test_evaluation_set_structure(inst32):
    es = inst32.eval_set
    vals = [x.value() for x in es.points]
    assert vals == sorted(vals)
    assert len(vals) == 32 and len(set(vals)) == 32
    covered = sorted(i for blk in es.blocks for i in blk)
    assert covered == list(range(32))
    for blk in es.blocks:
        assert len(blk) == 4
        for i in blk:
            assert es.block_of(i) == blk
    assert all(not u.is_zero() for u in es.u)


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
        one, a, g = f.one(), f.gen(), f.primitive_element()
        prime = set(f.subfield_elements(1))
        span = {x + c * a for x in prime for c in prime} if m > 2 else prime
        cases.append((f"GF({f.q}) additive", subgroup_from_MB(f, 1, {one}, span)))
        order = {8: 7, 9: 4, 16: 5, 27: 13}[f.q]
        powers = {g ** ((f.q - 1) // order * i) for i in range(order)}
        cases.append((f"GF({f.q}) multiplicative", subgroup_from_MB(f, m, powers, {f.zero()})))
        if f.q == 16:
            k4 = set(f.subfield_elements(2))
            cases.append(("GF(16) mixed", subgroup_from_MB(f, 2, k4 - {f.zero()}, k4)))
        elif p == 3:
            cases.append((f"GF({f.q}) mixed", subgroup_from_MB(f, 1, {one, -one}, prime)))
    return [pytest.param(sub, id=label) for label, sub in cases]


def _eager_selection(es, chosen):
    """Point values and index blocks for the given orbits, in the base field
    or, for an extended set, through the same embedding."""
    base = es.base_field
    pts = sorted((x for orb in chosen for x in orb), key=lambda e: e.value())
    blocks = sorted(tuple(sorted(pts.index(x) for x in orb)) for orb in chosen)
    emb = base.extend()[1] if es.extended else (lambda x: x)
    return [emb(x).value() for x in pts], tuple(blocks)


@pytest.mark.parametrize("sub", _subgroup_cases())
def test_lazy_block_selection_matches_eager_orbits(sub):
    """build_evaluation_set picks the same points and blocks as a selection
    from the eagerly enumerated orbits of the whole field."""
    f, size = sub.field, len(sub)
    every = orbits(sub, f.elements()).orbits
    full = [orb for orb in every if len(orb) == size]
    assert full

    def check(es, chosen):
        assert ([x.value() for x in es.points], es.blocks) == _eager_selection(es, chosen)

    if len(full) == len(every):
        check(build_evaluation_set(sub), full)
    else:
        with pytest.raises(InputError, match="do not cover the field"):
            build_evaluation_set(sub)
    check(build_evaluation_set(sub, domain="orbits"), full)
    for want in range(1, len(full) + 1):
        check(build_evaluation_set(sub, domain="orbits", n=want * size), full[:want])
    picked = [full[-1], full[0]] if len(full) > 1 else full
    domain = sorted((x for orb in picked for x in orb), key=lambda e: -e.value())
    check(build_evaluation_set(sub, domain=domain + domain[:2]), picked)


def test_orbits_domain_error_names_the_true_orbit_count():
    """GF(27) under x -> +-x + b, b in GF(3): one short orbit, four free ones."""
    f = Field(3, 3)
    sub = subgroup_from_MB(f, 1, {f.one(), -f.one()}, set(f.subfield_elements(1)))
    for n in (30, 0):
        with pytest.raises(InputError, match="the subgroup has 4 full-size orbits"):
            build_evaluation_set(sub, domain="orbits", n=n)
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


def test_build_runs_the_block_check(monkeypatch):
    """A g that is not constant on the blocks stops the build, on the base
    path (GF(8), additive) and on the extended path (GF(9) -> GF(81))."""
    f8, f9 = Field(2, 3), Field(3, 2)
    a, g = f8.gen(), f9.primitive_element()
    additive = subgroup_from_MB(f8, 1, {f8.one()}, {f8.zero(), f8.one(), a, a + f8.one()})
    mult = subgroup_from_MB(f9, 2, {g ** (2 * i) for i in range(4)}, {f9.zero()})
    assert not build_evaluation_set(additive).extended
    assert build_evaluation_set(mult, domain="orbits").extended

    def x4_plus_x(sub, alpha):
        x = Polynomial.x(sub.field)
        return GoodPolynomial(x**4 + x, sub, alpha)

    monkeypatch.setattr(construct, "good_polynomial", x4_plus_x)
    with pytest.raises(ConstructionError, match="several values of g"):
        build_evaluation_set(additive)
    with pytest.raises(ConstructionError, match="several values of g"):
        build_evaluation_set(mult, domain="orbits")


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
    rows_c = [list(r) for r in inst32.matrix_c]
    rows_d = [list(r) for r in inst32.matrix_d]
    assert linalg.rank(rows_c) == 19
    assert linalg.rank(rows_d) == 13
    assert linalg.rank(rows_c + rows_d) == 19  # dual rows inside the big span


def test_dual_rows_orthogonal_to_code_rows(inst32):
    for rd in inst32.matrix_d:
        for rc in inst32.matrix_c:
            assert linalg.dot(list(rd), list(rc)).is_zero()


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
    """linalg.rref / dot and encode, which run on integer encodings, agree
    with element-by-element arithmetic on seeded random data."""
    f27 = Field(3, 3)
    sub27 = subgroup_from_MB(f27, 1, {f27.one()}, {f27.zero(), f27.one(), f27.one() + f27.one()})
    inst27 = build_code(build_evaluation_set(sub27), 18)
    for inst, seed in [(inst32, 5), (inst27, 27)]:
        f, rng = inst.field, Xorshift64Star(seed)
        for shape in [(3, 7), (6, 6), (8, 5), (12, 20)]:
            mat = _random_matrix(rng, f, *shape)
            assert linalg.rref(mat) == _rref_elementwise(mat)
            assert linalg.rank(mat) == len(_rref_elementwise(mat)[1])
            u, v = mat[0], mat[1]
            ref = f.zero()
            for a, b in zip(u, v):
                ref = ref + a * b
            assert linalg.dot(u, v) == ref
        gen = _random_matrix(rng, f, inst.k - 2, inst.n)
        other = dataclasses.replace(inst, matrix_c=tuple(tuple(row) for row in gen))
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
    with pytest.raises(LengthMismatch):
        encode(inst8, zero_msg + [f.zero()])


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
        block = set(inst32.eval_set.block_of(z))
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
    assert instance_to_dump(back) == dump
    assert back.summary() == inst32.summary()
    assert all(c.ok for c in verify_instance(back, trials=10))


def test_dump_roundtrip_extended(inst9x):
    dump = instance_to_dump(inst9x)
    back = instance_from_dump(json.loads(json.dumps(dump)))
    assert back.summary() == inst9x.summary()
    assert all(c.ok for c in verify_instance(back, trials=10))


def test_tampered_multiplier_fails_power_sum_check(inst8):
    dump = instance_to_dump(inst8)
    bad = json.loads(json.dumps(dump))
    f = inst8.field
    u0 = f.element(bad["u"][0])
    bad["u"][0] = (u0 + f.one()).to_list()
    inst = instance_from_dump(bad)
    by_name = {c.name: c for c in verify_instance(inst, trials=5)}
    assert not by_name["multiplier-power-sums"].ok


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
    on the dumped blocks, but they are no longer orbits of the subgroup."""
    bad = json.loads(json.dumps(instance_to_dump(inst8)))
    bad["subgroup"]["B_basis"] = [[1, 0, 0], [0, 0, 1]]
    by_name = {c.name: c for c in verify_instance(instance_from_dump(bad), trials=5)}
    assert [name for name, c in by_name.items() if not c.ok] == ["block-polynomial-constancy"]
    assert "not a free orbit" in by_name["block-polynomial-constancy"].detail


def test_blocks_that_do_not_partition_fail_constancy(inst8):
    bad = json.loads(json.dumps(instance_to_dump(inst8)))
    bad["blocks"][1] = bad["blocks"][0]
    check = {c.name: c for c in verify_instance(instance_from_dump(bad), trials=5)}[
        "block-polynomial-constancy"
    ]
    assert not check.ok and "do not partition" in check.detail


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
def test_spec_dumps_match_benchmark_goldens(path):
    """Every benchmark spec still builds to the dump whose sha256 the
    benchmark's goldens record."""
    golden = json.loads((PERFBENCH / "goldens.json").read_text())["dumps"][path.stem]
    inst = instance_from_spec(json.loads(path.read_text()))
    text = json.dumps(instance_to_dump(inst), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == golden
