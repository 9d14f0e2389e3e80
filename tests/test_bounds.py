"""Distance bounds: closed forms, exact ceilings, enumeration, spectra, audits."""

import functools
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qlrc
import qlrc.field
from qlrc import (
    AffineMap,
    AglSubgroup,
    Field,
    Polynomial,
    Xorshift64Star,
    agl_bound,
    build_code,
    build_evaluation_set,
    css_params,
    degree_bound,
    distance_bruteforce,
    encode,
    exact_distance,
    exponent_sets,
    low_weight_witness,
    quantum_singleton_rhs,
    schreier_graph,
    second_eigenvalue,
    singleton_optimal,
    smallest_prime_factor,
    subgroup_from_MB,
    sweep_rows,
    theta_subgroup,
    weight_bound,
    weight_bound_audit,
)
from qlrc import agl, bounds
from qlrc.bounds import (
    AuditReport,
    AuditTrial,
    BoundValue,
    NotRegular,
    SchreierGraph,
    TooLarge,
    Witness,
    _gamma_terms,
    _words_outside_dual,
)
from qlrc.construct import (
    dual_positions,
    instance_from_dump,
    instance_from_spec,
    instance_to_dump,
    verify_instance,
)
from qlrc.errors import ConstructionError, InputError, VerificationError


def test_smallest_prime_factor():
    assert [smallest_prime_factor(n) for n in (2, 3, 4, 6, 9, 15, 49, 97)] == [
        2, 3, 2, 2, 3, 3, 7, 97,
    ]
    with pytest.raises(InputError):
        smallest_prime_factor(1)
    assert smallest_prime_factor is qlrc.field.smallest_prime_factor  # one trial division


def test_degree_bound_cases():
    assert degree_bound(32, 3, 21) == 4  # block size wins
    assert degree_bound(8, 3, 5) == 3  # largest degree wins
    assert degree_bound(8, 3, None) == 4  # no low-degree monomials at all
    assert degree_bound(7, 6, 3) == 4


def test_weight_bound_flagship_value():
    bv = weight_bound(32, 3, 2, 21)
    assert bv.real == pytest.approx(4.404082057734577, abs=1e-12)
    assert bv.ceiling == 5 and not bv.vacuous
    bv1 = weight_bound(32, 3, 1, 21)
    assert bv1.real == pytest.approx(5.728942548679914, abs=1e-12)
    assert bv1.ceiling == 6
    # smaller stabilizer, stronger bound
    assert bv1.real > bv.real


def test_weight_bound_integer_value_not_bumped():
    """A bound landing exactly on an integer keeps that ceiling."""
    bv = weight_bound(12, 3, 2, 1)
    assert bv.real == 6.0
    assert bv.ceiling == 6


def test_weight_bound_vacuous_clamp():
    bv = weight_bound(8, 3, 4, 5)  # stabilizer = whole group: bound is 0
    assert bv.real == 0.0
    assert bv.ceiling == 1 and bv.vacuous
    bv2 = weight_bound(8, 3, 2, 9)
    assert bv2.ceiling == 1 and bv2.vacuous


def test_weight_bound_monotone_in_theta():
    for n, r, ell in [(32, 3, 21), (24, 5, 13), (16, 7, 9)]:
        vals = [weight_bound(n, r, t, ell).real for t in range(1, r + 2)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_weight_bound_ceiling_certified_exactly():
    """ceiling = smallest integer >= the real value, checked rationally."""
    rng = Xorshift64Star(71)
    for _ in range(300):
        r = 2 + rng.below(6)
        n = (r + 1) * (1 + rng.below(8))
        theta = 1 + rng.below(r + 1)
        ell = 1 + rng.below(max(n - 2, 1))
        bv = weight_bound(n, r, theta, ell)
        assert bv.real <= bv.ceiling + 1e-9
        if not bv.vacuous:
            assert bv.ceiling - 1 < bv.real + 1e-9


def _fraction_weight_bound(n, r, theta, ell):
    """weight_bound in exact rationals, the way it was first written."""
    big_r = r + 1
    a_term = Fraction(n) - Fraction(n * theta, 2 * big_r)
    radicand = Fraction(theta**2, 4 * big_r**2) + Fraction((big_r - theta) * (ell - 1), big_r * n)
    real = float(a_term) - n * math.sqrt(radicand)

    def value_le(t):
        d = a_term - t
        return d <= 0 or d * d <= n * n * radicand

    t = math.ceil(real - 1e-9)
    while not value_le(t):
        t += 1
    while value_le(t - 1):
        t -= 1
    return repr(real), max(t, 1), t < 1


def test_integer_bounds_match_a_fraction_reference():
    """The integer-only weight_bound keeps every bit of real, its ceiling and
    its vacuous flag, and singleton_optimal its ceil(half / r)."""
    for n in [*range(1, 13), 31, 32, 63, 64, 255, 1000, 4096, 65535, 1 << 20]:
        for r in (1, 2, 3, 4, 6, 7, 15):
            ells = sorted({1, 2, max(n // 2, 1), max(n - r - 1, 1), n})
            for theta in range(1, r + 2):
                for ell in ells:
                    bv = weight_bound(n, r, theta, ell)
                    want = _fraction_weight_bound(n, r, theta, ell)
                    assert (repr(bv.real), bv.ceiling, bv.vacuous) == want, (n, r, theta, ell)
    for n in range(1, 30):
        for kappa in range(-n, n + 1, 2):
            half = (n + kappa) // 2
            for r in range(1, 8):
                rhs = r + 2 + half - math.ceil(Fraction(half, r)) * (r + 1)
                for delta in range(0, 8):
                    assert singleton_optimal(n, kappa, delta, r) == (2 <= delta <= rhs)


def test_package_import_leaves_fractions_out():
    """Bound ceilings are plain integer tests: importing the package and its
    CLI loads neither fractions nor decimal."""
    src = str(Path(qlrc.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qlrc, qlrc.cli; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_weight_bound_rejects_bad_arguments():
    with pytest.raises(InputError):
        weight_bound(8, 3, 0, 5)
    with pytest.raises(InputError):
        weight_bound(8, 3, 5, 5)
    with pytest.raises(InputError):
        weight_bound(8, 3, 2, 0)


def test_agl_bound_uses_largest_proper_subgroup():
    assert agl_bound(32, 3, 21).ceiling == 5  # theta = 4 / 2 = 2
    # block size 7 is prime: worst proper stabilizer is trivial
    assert agl_bound(7, 6, 3) == weight_bound(7, 6, 1, 3)
    assert agl_bound(12, 5, 7) == weight_bound(12, 5, 3, 7)


def _alt_singleton_rhs(n, delta, r):
    """Independent transcription of the dimension cap (second evaluator)."""
    inner, _ = divmod(n - (delta - 1), r + 1)
    mid = n - 2 * (delta - 1) - inner
    outer, _ = divmod(mid, r + 1)
    return mid - outer


def test_singleton_rhs_flagship():
    assert quantum_singleton_rhs(32, 5, 3) == 13
    assert quantum_singleton_rhs(8, 3, 3) == 3
    assert quantum_singleton_rhs(4, 2, 3) == 2


def test_singleton_two_evaluator_sweep():
    """Reference and alternative evaluators agree on >= 10^4 points."""
    count = 0
    for n in range(4, 49):
        for r in range(1, 13):
            for delta in range(1, n + 1):
                assert quantum_singleton_rhs(n, delta, r) == _alt_singleton_rhs(n, delta, r)
                count += 1
    assert count >= 10_000


def test_singleton_optimal_cases():
    # the [4, 3] locality-3 instance hits the cap exactly: kappa = 2 = rhs
    assert singleton_optimal(4, 2, 2, 3)
    assert quantum_singleton_rhs(4, 2, 3) == 2
    # the flagship is not optimal at its certified bound
    assert not singleton_optimal(32, 6, 5, 3)
    assert not singleton_optimal(8, 2, 3, 3)
    with pytest.raises(InputError):
        singleton_optimal(9, 2, 3, 3)  # n + kappa odd


def test_css_params_flagship(inst32):
    p = css_params(inst32)
    assert p.to_json_dict() == {
        "n": 32,
        "kappa": 6,
        "q": 32,
        "r": 3,
        "ell": 21,
        "p": 2,
        "degree_bound": 4,
        "agl_bound_real": pytest.approx(4.404082057734577),
        "agl_bound_int": 5,
        "singleton_rhs_at_agl_bound": 13,
        "optimal": False,
        "delta_exact": None,
    }
    p2 = css_params(inst32, delta_exact=5)
    assert p2.delta_exact == 5


def test_css_params_derives_ell_and_rejects_a_stored_one(inst8):
    """A dump whose ell was edited to 1 would give degree_bound 4 > delta 3."""
    dump = instance_to_dump(inst8)
    assert css_params(instance_from_dump(dump)).ell == 5
    for key, value in [("ell", 1), ("ell_prime", None), ("t1", []), ("s2", [[0, 0]])]:
        bad = dict(dump, **{key: value})
        with pytest.raises(VerificationError, match=key):
            css_params(instance_from_dump(bad))


def test_css_params_and_audit_reject_blocks_that_are_not_orbits(inst8):
    """The [8,5]_8 dump with translation basis {1, a^2} in place of {1, a}:
    its blocks are not orbits, so no spectral bound may be certified for it;
    with g edited to x^4 the blocks are orbits but g is not constant on them,
    and the stored rows are no longer its evaluations, which generator-ranks
    finds first."""
    dump = instance_to_dump(inst8)
    moved = json.loads(json.dumps(dump))
    moved["subgroup"]["B_basis"] = [[1, 0, 0], [0, 0, 1]]
    x4 = json.loads(json.dumps(dump))
    x4["g"] = Polynomial.monomial(inst8.field, inst8.field.one(), 4).to_lists()
    first = "^generator-ranks: rank 5 not certified: S row .* does not match its evaluation$"
    for bad, detail in [(moved, "is not a free orbit"), (x4, first)]:
        inst = instance_from_dump(bad)
        with pytest.raises(VerificationError, match=detail):
            css_params(inst)
        with pytest.raises(VerificationError, match=detail):
            weight_bound_audit(inst, trials=3, seed=1)
    checks = {c.name: c for c in verify_instance(instance_from_dump(x4), trials=1)}
    assert checks["block-polynomial-constancy"].detail.endswith("several values of g")


def test_sweep_rows_frozen_and_monotone():
    assert sweep_rows(8, 3) == [(2, 3, 2), (4, 2, 2)]
    assert sweep_rows(16, 3) == [(2, 4, 4), (4, 4, 3), (6, 3, 2), (8, 2, 2)]
    rows = sweep_rows(63, 6)
    kappas = [k for k, _, _ in rows]
    assert kappas == sorted(kappas) and len(rows) >= 20
    degs = [d for _, d, _ in rows]
    agls = [a for _, _, a in rows]
    assert all(x >= y for x, y in zip(degs, degs[1:]))
    assert all(x >= y for x, y in zip(agls, agls[1:]))
    with pytest.raises(InputError):
        sweep_rows(10, 3)


def test_sweep_rows_match_exponent_sets():
    """The sweep reads ell from the closed form; exponent_sets enumerates s1
    and confirms the same value, at every admissible (n, r, k) up to n = 120."""
    for n in range(3, 121):
        for r in range(2, n):
            if n % (r + 1):
                continue
            expected = []
            for k in range(n // 2 + 1, n * r // (r + 1) + 1):
                ell = exponent_sets(n, k, r).ell
                expected.append((2 * k - n, degree_bound(n, r, ell), agl_bound(n, r, ell).ceiling))
            assert sweep_rows(n, r) == expected, (n, r)


# --- exact enumeration ----------------------------------------------------------


def test_distance_bruteforce_frozen(inst8, inst7, inst4):
    assert distance_bruteforce(inst8) == 3
    assert distance_bruteforce(inst7) == 4
    assert distance_bruteforce(inst4) == 2


def test_distance_dominates_bounds(inst8, inst7, inst4):
    for inst in (inst8, inst7, inst4):
        delta = distance_bruteforce(inst)
        assert delta >= degree_bound(inst.n, inst.r, inst.ell)
        assert delta >= agl_bound(inst.n, inst.r, inst.ell).ceiling


def test_distance_cap(inst8):
    with pytest.raises(TooLarge):
        distance_bruteforce(inst8, cap=100)


def test_distance_counts_only_words_outside_dual(inst4):
    """The [4, 3] code over GF(4) has nonzero dual words of weight 4 and
    code words of weight 2; enumeration must skip the dual members while
    still counting every word outside the dual."""
    assert distance_bruteforce(inst4) == 2


def _naive_classes(inst) -> set[tuple[int, ...]]:
    """Every word of C not orthogonal to C, from all q^k messages, scaled so
    that its first nonzero symbol is 1."""
    f = inst.field
    rows = [f.ints(row) for row in inst.matrix_c]
    out = set()
    for msg in itertools.product(range(f.q), repeat=inst.k):
        word = [0] * inst.n
        for c, row in zip(msg, rows):
            if c:
                word = f.axpy(word, c, row)
        if any(f.dot(word, row) for row in rows):
            lead = f.inv(next(x for x in word if x))
            out.add(tuple(f.mul(lead, x) for x in word))
    return out


@pytest.mark.parametrize(
    "case",
    ["inst4", "inst7", "inst8", (5, 1, 3), (7, 1, 5), (3, 2, 5)],
    ids=["inst4", "inst7", "inst8", "gf5_n5_k3", "gf7_n7_k5", "gf9_n9_k5"],
)
def test_distance_bruteforce_matches_naive_reference(case, request, translation_instance):
    """The scan walks one word per scalar class of C outside C-perp, each
    once, and its minimum weight is the naive one.  GF(9) puts two base-3
    Gray digits into every message coefficient."""
    if isinstance(case, str):
        inst = request.getfixturevalue(case)
    else:
        inst = translation_instance(*case)
    f, n = inst.field, inst.n
    naive = _naive_classes(inst)
    assert distance_bruteforce(inst) == min(n - w.count(0) for w in naive)
    walked = [tuple(w) for w in _words_outside_dual(inst)]
    assert len(walked) == len(naive) == (f.q**inst.k - f.q ** (n - inst.k)) // (f.q - 1)
    assert {tuple(f.mul(f.inv(next(x for x in w if x)), x) for x in w) for w in walked} == naive


@pytest.mark.parametrize("which", range(3))
def test_scan_and_audit_reject_tampered_dual_rows(tampered_dual_dumps, which):
    inst = instance_from_dump(tampered_dual_dumps[which][0])
    with pytest.raises(VerificationError):
        distance_bruteforce(inst)
    with pytest.raises(VerificationError):
        exact_distance(inst)
    with pytest.raises(VerificationError):
        weight_bound_audit(inst, trials=3, seed=1)


# --- exact distance from a witness ----------------------------------------------

SHIPPED = Path(__file__).resolve().parent.parent / "perfbench" / "dumps"
DIFFERENTIAL = [
    "inst4",
    "inst7",
    "inst8",
    (5, 1, 3),
    (7, 1, 5),
    (3, 2, 5),
    "q16_n8_k6",
    "q9_n9_k6",
    "q8_n7_k6",
    "q8_n8_k5",
]


def _weight(word) -> int:
    return sum(1 for x in word if x)


def _case_id(case):
    return "gf{}^{}_k{}".format(*case) if isinstance(case, tuple) else case


def _differential_instance(case, request, translation_instance):
    if isinstance(case, tuple):
        return translation_instance(*case)
    if case.startswith("inst"):
        return request.getfixturevalue(case)
    return instance_from_dump(json.loads((SHIPPED / f"{case}.json").read_text()))


@pytest.mark.parametrize("case", DIFFERENTIAL, ids=_case_id)
def test_exact_distance_matches_bruteforce(case, request, translation_instance):
    """GF(9) with k = 5 has degree bound 3 and distance 4, so it takes the
    enumeration fallback; every other case closes at its witness."""
    inst = _differential_instance(case, request, translation_instance)
    delta = distance_bruteforce(inst)
    assert exact_distance(inst) == delta
    closes = _weight(low_weight_witness(inst).word) == degree_bound(inst.n, inst.r, inst.ell)
    assert closes == (case != (3, 2, 5))


@pytest.mark.parametrize("case", DIFFERENTIAL, ids=_case_id)
def test_witness_is_a_word_outside_the_dual(case, request, translation_instance):
    inst = _differential_instance(case, request, translation_instance)
    in_d = dual_positions(inst)
    for seed in (1, 2, 3):
        wit = low_weight_witness(inst, seed)
        assert wit == low_weight_witness(inst, seed)
        assert any(x for i, x in enumerate(wit.message) if i not in in_d)
        assert tuple(encode(inst, wit.message)) == wit.word
        assert _weight(wit.word) >= degree_bound(inst.n, inst.r, inst.ell)


def test_exact_distance_recounts_the_witness(monkeypatch, translation_instance):
    """[9,5]_9 has words of D at weight 3, its degree bound, while the words
    of C outside D weigh 4 or more.  Neither a word of D nor a light word
    that its message does not encode may set the distance."""
    inst = translation_instance(3, 2, 5)
    f, in_d = inst.field, sorted(dual_positions(inst))
    for values in itertools.product(f.from_ints(range(f.q)), repeat=len(in_d)):
        message = [f.zero()] * inst.k
        for i, v in zip(in_d, values):
            message[i] = v
        in_dual = tuple(encode(inst, message))
        if sum(1 for x in in_dual if x) == 3:
            break
    heavy = low_weight_witness(inst)
    kept = [i for i, x in enumerate(heavy.word) if x][:3]
    light = tuple(x if i in kept else f.zero() for i, x in enumerate(heavy.word))
    for forged in (Witness(tuple(message), in_dual), Witness(heavy.message, light)):
        assert _weight(forged.word) == degree_bound(inst.n, inst.r, inst.ell)
        monkeypatch.setattr(bounds, "low_weight_witness", lambda inst, seed, w=forged: w)
        assert exact_distance(inst) == 4


def test_witness_on_the_flagship_leaves_the_gap(inst32):
    """On [32,19]_32 the search ends at weight 8, above the certified 5, so
    exact_distance falls back to the enumeration and its cap."""
    wit = low_weight_witness(inst32, 1)
    assert _weight(wit.word) == 8
    assert tuple(encode(inst32, wit.message)) == wit.word
    with pytest.raises(TooLarge):
        exact_distance(inst32)


# --- spectra ---------------------------------------------------------------------


def test_schreier_graph_trivial_stabilizer(inst32):
    es = inst32.eval_set
    sub = es.good.subgroup
    blk = [es.points[i] for i in es.blocks[0]]
    triv = AglSubgroup(sub.field, [AffineMap(1, 0)])
    g = schreier_graph(blk, sub, triv)
    assert g.mu == 3 and g.theta_order == 1
    for row in g.adjacency:
        assert sum(row) == 3
    assert second_eigenvalue(g) == 1.0  # spectrum {3, -1, -1, -1}


def test_schreier_graph_order_two_stabilizer(inst32):
    es = inst32.eval_set
    sub = es.good.subgroup
    f = sub.field
    blk = [es.points[i] for i in es.blocks[0]]
    gamma = Polynomial(f, [f.zero(), f.one(), f.one()])  # x^2 + x
    th = theta_subgroup(sub, gamma)
    g = schreier_graph(blk, sub, th)
    assert g.mu == 2 and g.theta_order == 2
    assert second_eigenvalue(g) == 2.0  # spectrum {2, 0, 0, -2}


def test_second_eigenvalue_rejects_tampered_adjacency(inst32):
    """Flipping one edge (both directions) breaks the certified spectrum."""
    es = inst32.eval_set
    sub = es.good.subgroup
    f = sub.field
    blk = [es.points[i] for i in es.blocks[0]]
    th = theta_subgroup(sub, Polynomial(f, [f.zero(), f.one(), f.one()]))
    g = schreier_graph(blk, sub, th)
    adj = [list(row) for row in g.adjacency]
    adj[0][1] = adj[1][0] = 1 - adj[0][1]
    bad = SchreierGraph(g.vertices, tuple(map(tuple, adj)), g.mu, g.theta_order)
    with pytest.raises(ConstructionError):
        second_eigenvalue(bad)


@pytest.mark.parametrize(
    "adjacency, theta_order",
    [
        (((0, 2, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), 2),  # not a 0/1 matrix
        (((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)), 2),  # K4: cosets of 1
        (((0, 0, 1, 1), (0, 0, 1), (1, 1, 0, 0), (1, 1, 0, 0)), 2),  # a ragged row
        (((0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0)), 2),  # zeros not cosets
        (((0, 2, 0, 2), (2, 0, 2, 0), (0, 2, 0, 2), (2, 0, 2, 0)), 2),  # twice K_{2,2}
        (((1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0)), 2),  # self-loops
    ],
    ids=["weighted", "K4", "ragged", "directed", "doubled", "loops"],
)
def test_second_eigenvalue_rejects_non_coset_graphs(adjacency, theta_order):
    """Only J minus the cliques on a partition into sets of theta_order is
    certified; the old cubic identity passed the weighted matrix."""
    graph = SchreierGraph((0, 1, 2, 3), adjacency, mu=4 - theta_order, theta_order=theta_order)
    with pytest.raises(ConstructionError):
        second_eigenvalue(graph)


def test_schreier_graph_rejects_partial_orbit(inst32):
    es = inst32.eval_set
    sub = es.good.subgroup
    triv = AglSubgroup(sub.field, [AffineMap(1, 0)])
    blk = [es.points[i] for i in es.blocks[0]]
    with pytest.raises(NotRegular):
        schreier_graph(blk[:3], sub, triv)


def test_schreier_graph_requires_proper_theta(inst32):
    es = inst32.eval_set
    sub = es.good.subgroup
    blk = [es.points[i] for i in es.blocks[0]]
    with pytest.raises(InputError):
        schreier_graph(blk, sub, sub)


def test_expander_mixing_edge_count_complete_graph(inst32):
    """With trivial stabilizer the block graph is complete: e(S, T) is exact."""
    es = inst32.eval_set
    sub = es.good.subgroup
    blk = [es.points[i] for i in es.blocks[0]]
    triv = AglSubgroup(sub.field, [AffineMap(1, 0)])
    g = schreier_graph(blk, sub, triv)
    s_idx, t_idx = [0, 1], [1, 2, 3]
    e = sum(g.adjacency[i][j] for i in s_idx for j in t_idx)
    expected = len(s_idx) * len(t_idx) - len(set(s_idx) & set(t_idx))
    assert e == expected


# --- the per-codeword audit -------------------------------------------------------


def test_weight_bound_audit_clean(inst8):
    rep = weight_bound_audit(inst8, trials=40, seed=5)
    assert rep.ok
    assert rep.monotone_in_theta
    assert len(rep.trials) == 40
    assert rep.min_weight >= agl_bound(inst8.n, inst8.r, inst8.ell).ceiling
    for t in rep.trials:
        assert t.weight >= t.bound_int
        assert t.pair_count <= t.root_count <= max(t.g_degree, 0)
        assert t.g_degree <= t.g_degree_cap


@pytest.mark.parametrize("trials", [0, -3])
def test_weight_bound_audit_rejects_trials_below_one(inst8, trials):
    """An audit of no sample would report ok and min_weight 0."""
    with pytest.raises(InputError, match="trials must be at least 1"):
        weight_bound_audit(inst8, trials=trials)


def test_weight_bound_audit_transcript_frozen(inst8):
    rep = weight_bound_audit(inst8, trials=40, seed=5)
    assert [(t.weight, t.theta_order) for t in rep.trials] == [
        (8, 1), (7, 1), (8, 1), (7, 1), (8, 1), (6, 1), (7, 1), (7, 1), (8, 1), (8, 1),
        (5, 1), (7, 1), (5, 1), (6, 1), (8, 1), (8, 1), (7, 1), (7, 1), (7, 1), (5, 1),
        (8, 1), (6, 1), (8, 1), (8, 1), (8, 2), (7, 1), (7, 1), (7, 1), (6, 1), (8, 1),
        (6, 1), (8, 1), (7, 1), (6, 1), (8, 1), (5, 1), (7, 1), (6, 1), (8, 1), (7, 1),
    ]
    # seed 9 draws the message of a dual word once, and that draw is redone
    rep = weight_bound_audit(inst8, trials=10, seed=9)
    assert [(t.weight, t.theta_order) for t in rep.trials] == [
        (8, 1), (6, 1), (6, 1), (6, 1), (8, 1), (5, 1), (6, 1), (8, 1), (7, 1), (8, 1),
    ]


# Every AuditTrial field of three audits.  Per theta_order: (bound_real,
# bound_int, g_degree_cap); per trial: (weight, theta_order, gamma_degree,
# g_degree, pair_count, root_count).
AUDIT_RECORDS = {
    ("inst8", 40, 5): (
        {1: (2.0, 2, 12), 2: (1.5278640450004204, 2, 8)},
        [
            (8, 1, 5, 12, 0, 0), (7, 1, 5, 12, 0, 4), (8, 1, 5, 12, 0, 4), (7, 1, 5, 12, 0, 0),
            (8, 1, 5, 12, 0, 4), (6, 1, 5, 12, 0, 0), (7, 1, 5, 12, 0, 4), (7, 1, 5, 12, 0, 0),
            (8, 1, 5, 12, 0, 12), (8, 1, 5, 12, 0, 12), (5, 1, 5, 12, 2, 4), (7, 1, 5, 12, 0, 0),
            (5, 1, 5, 12, 2, 4), (6, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 4), (8, 1, 5, 12, 0, 4),
            (7, 1, 5, 12, 0, 12), (7, 1, 5, 12, 0, 4), (7, 1, 5, 12, 0, 4), (5, 1, 5, 12, 2, 4),
            (8, 1, 5, 12, 0, 4), (6, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 8),
            (8, 2, 2, 0, 0, 0), (7, 1, 5, 12, 0, 4), (7, 1, 5, 12, 0, 4), (7, 1, 5, 12, 0, 0),
            (6, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 4), (6, 1, 5, 12, 0, 0), (8, 1, 2, 0, 0, 0),
            (7, 1, 5, 12, 0, 4), (6, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 0), (5, 1, 5, 12, 2, 4),
            (7, 1, 5, 12, 0, 0), (6, 1, 5, 12, 2, 4), (8, 1, 5, 12, 0, 4), (7, 1, 5, 12, 0, 0),
        ],
    ),
    ("inst9x", 15, 3): (
        {1: (2.0, 2, 12)},
        [
            (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 4), (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 0),
            (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 2), (8, 1, 5, 12, 0, 4),
            (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 0),
            (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 0), (8, 1, 5, 12, 0, 0),
        ],
    ),
    ("inst32", 40, 1): (
        {1: (5.728942548679914, 6, 60)},
        [
            (30, 1, 21, 60, 0, 8), (31, 1, 21, 60, 0, 0), (31, 1, 21, 60, 0, 8),
            (30, 1, 21, 60, 0, 0), (29, 1, 21, 60, 0, 0), (30, 1, 21, 60, 0, 0),
            (31, 1, 21, 60, 0, 0), (30, 1, 18, 48, 0, 4), (32, 1, 21, 60, 0, 4),
            (31, 1, 21, 60, 0, 12), (30, 1, 21, 60, 0, 8), (31, 1, 21, 60, 0, 4),
            (31, 1, 21, 60, 0, 0), (30, 1, 21, 60, 0, 4), (32, 1, 21, 60, 0, 8),
            (32, 1, 21, 60, 0, 0), (32, 1, 21, 60, 0, 8), (31, 1, 21, 60, 0, 4),
            (32, 1, 21, 60, 0, 0), (30, 1, 21, 60, 0, 4), (32, 1, 21, 60, 0, 4),
            (32, 1, 21, 60, 0, 4), (30, 1, 21, 60, 0, 0), (31, 1, 21, 60, 0, 0),
            (30, 1, 21, 60, 0, 0), (30, 1, 21, 60, 0, 0), (31, 1, 21, 60, 0, 8),
            (29, 1, 21, 60, 2, 8), (31, 1, 21, 60, 0, 4), (30, 1, 21, 60, 0, 4),
            (31, 1, 21, 60, 0, 0), (32, 1, 21, 60, 0, 4), (31, 1, 21, 60, 0, 0),
            (30, 1, 21, 60, 0, 4), (29, 1, 21, 60, 0, 0), (31, 1, 21, 60, 0, 0),
            (31, 1, 21, 60, 0, 4), (31, 1, 21, 60, 0, 4), (31, 1, 21, 60, 0, 4),
            (30, 1, 21, 60, 0, 4),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(AUDIT_RECORDS), ids=lambda c: f"{c[0]}-seed{c[2]}")
def test_weight_bound_audit_records_frozen(request, case):
    """Every field of every trial is pinned, so a wrong root count or degree
    fails here and not only in a slack inequality."""
    name, trials, seed = case
    by_theta, rows = AUDIT_RECORDS[case]
    rep = weight_bound_audit(request.getfixturevalue(name), trials=trials, seed=seed)
    expected = tuple(
        AuditTrial(
            weight=weight,
            theta_order=theta,
            bound_real=by_theta[theta][0],
            bound_int=by_theta[theta][1],
            gamma_degree=gamma_degree,
            g_degree=g_degree,
            g_degree_cap=by_theta[theta][2],
            pair_count=pairs,
            root_count=roots,
        )
        for weight, theta, gamma_degree, g_degree, pairs, roots in rows
    )
    assert rep == AuditReport(
        trials=expected,
        min_weight=min(row[0] for row in rows),
        failures=(),
        monotone_in_theta=True,
    )


def test_weight_bound_audit_deterministic(inst8):
    a = weight_bound_audit(inst8, trials=10, seed=9)
    b = weight_bound_audit(inst8, trials=10, seed=9)
    assert a == b


def test_weight_bound_audit_extended(inst9x):
    rep = weight_bound_audit(inst9x, trials=15, seed=3)
    assert rep.ok


# --- the audit's stabilizer split, by linearity, against composing gamma -----------

SPECS = Path(__file__).resolve().parent.parent / "perfbench" / "specs"


def _split_problems(inst, combination_messages):
    """Where stabilizer_splitter on the s1 terms disagrees with composing
    gamma itself: per map, the difference against
    gamma.compose(t) - gamma (zero for the maps in Theta), and Theta against
    theta_subgroup.  gamma is summed term by term in Polynomial arithmetic.
    The messages are each s1 term alone at every digit and all-ones, then
    20 seeded ones; the zero gamma has no stabilizer and is skipped."""
    sub = inst.eval_set.good.subgroup
    f = sub.field
    _, terms = _gamma_terms(inst)
    split = agl.stabilizer_splitter(sub, terms)
    problems = []
    for coeffs in combination_messages(f, len(terms), Xorshift64Star(5)):
        gamma = Polynomial.zero(f)
        for c, term in zip(coeffs, terms):
            gamma = gamma + term * Polynomial._from_ints(f, [c])
        if gamma.is_zero():
            continue
        theta, moved = split(coeffs)
        diffs = dict(moved)
        for t in sub:
            want = gamma.compose(sub.polynomial(t)) - gamma
            got = diffs.get(t, Polynomial.zero(f))
            if got != want or (t in theta.maps) == bool(want):
                problems.append((coeffs, t))
        if theta != theta_subgroup(sub, gamma):
            problems.append((coeffs, "theta"))
    return problems


@functools.cache
def _spec_instance(name):
    return instance_from_spec(json.loads((SPECS / f"{name}.json").read_text()))


SPLIT_CASES = ["inst8", "inst9x", "inst32", "q27_n27_k18", "q9x81_n8_k5"]


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_stabilizer_splitter_matches_composition(request, name, combination_messages):
    """Composition is linear in the outer polynomial, so the audit's per-map
    combinations of the s1 terms' differences are gamma's own differences,
    in characteristic 2 (packed combiner), odd p and over GF(q^2)."""
    inst = _spec_instance(name) if name.startswith("q") else request.getfixturevalue(name)
    assert _split_problems(inst, combination_messages) == []


def test_stabilizer_splitter_differential_catches_a_dropped_term(
    inst8, combination_messages, monkeypatch
):
    """A splitter that loses the difference row of one s1 term fails the
    comparison above."""
    differences = agl._term_differences

    def drop_last(subgroup, t, terms, width):
        return differences(subgroup, t, terms, width)[:-1]

    monkeypatch.setattr(agl, "_term_differences", drop_last)
    assert _split_problems(inst8, combination_messages)


# --- the audit's failure paths -----------------------------------------------------


def _patch_split(monkeypatch, change):
    """Make the audit's stabilizer split hand change(field, moved) on as moved."""
    splitter = bounds.stabilizer_splitter

    def patched(subgroup, terms):
        split = splitter(subgroup, terms)

        def changed(coeffs):
            theta, moved = split(coeffs)
            return theta, change(subgroup.field, moved)

        return changed

    monkeypatch.setattr(bounds, "stabilizer_splitter", patched)


def test_audit_fails_on_a_difference_that_t_x_minus_x_does_not_divide(inst9x, monkeypatch):
    """inst9x's maps are x -> a*x with a != 1; a difference plus 1 is 1, not
    0, at the fixed point 0, so the division by x - 0 leaves a remainder."""
    _patch_split(
        monkeypatch, lambda f, moved: [(t, num + Polynomial.one(f)) for t, num in moved]
    )
    rep = weight_bound_audit(inst9x, trials=3, seed=3)
    assert rep.ok is False
    assert "trial 0: difference quotient is not a polynomial" in rep.failures


def test_audit_fails_on_a_zero_quotient(inst8, monkeypatch):
    """A zero quotient makes the product zero: degree -1 and no root."""
    _patch_split(
        monkeypatch, lambda f, moved: [(t, Polynomial.zero(f)) for t, _ in moved[:1]] + moved[1:]
    )
    rep = weight_bound_audit(inst8, trials=3, seed=5)
    assert rep.ok is False
    assert "trial 0: quotient product degree -1 exceeds its cap" in rep.failures
    assert [(t.g_degree, t.root_count) for t in rep.trials] == [(-1, 0)] * 3


def test_audit_fails_on_fewer_roots_than_zero_pairs(inst32, monkeypatch):
    """Zeroing the block of the first point adds its 4 * 3 same-orbit pairs
    to the word's and none to the quotients' roots: trial 0 of seed 1 has 8."""
    sub, points = inst32.eval_set.good.subgroup, inst32.eval_set.points
    block = {sub.apply(t, points[0]) for t in sub}
    encoder = inst32._encoder

    def zero_block(coeffs):
        return [0 if x in block else w for x, w in zip(points, encoder(coeffs))]

    monkeypatch.setattr(inst32, "_encoder", zero_block)
    rep = weight_bound_audit(inst32, trials=3, seed=1)
    assert rep.ok is False
    assert rep.failures[0] == "trial 0: zero pairs 12 vs roots 8 vs degree 60"


def test_audit_fails_on_a_weight_below_the_bound(inst32, monkeypatch):
    def above_n(n, r, theta_order, ell):
        return BoundValue(n + 1.0, n + 1, False)

    monkeypatch.setattr(bounds, "weight_bound", above_n)
    rep = weight_bound_audit(inst32, trials=3, seed=1)
    assert rep.ok is False
    assert rep.failures[0] == "trial 0: weight 30 below bound 33 at stabilizer 1"


# --- the audit's quotients and roots against Polynomial division and product -------


@functools.cache
def _mixed_instance():
    """[12, 9] over GF(16) under H = {a*x + b : a in GF(4)*, b in GF(4)}: the
    only case whose maps have a != 1 and b != 0, so a fixed point c != 0."""
    f = Field(2, 4)
    k4 = f.subfield_elements(2)
    sub = subgroup_from_MB(f, 2, {f.from_int(v) for v in k4 if v}, set(f.from_ints(k4)))
    return build_code(build_evaluation_set(sub, domain="orbits", n=12), 9)


def _reference_tail(f, points, moved):
    """(g_degree, root_count) as the audit once found them: each difference
    divided by t(x) - x with divmod, the quotients multiplied by *, and each
    point's multiplicity in the product by dividing by x - a while Horner's
    value there is zero."""
    product = Polynomial.one(f)
    for t, num in moved:
        quo, rem = divmod(num, Polynomial._from_ints(f, [t.b, f.sub(t.a, 1)]))
        product = product * (quo if rem.is_zero() else num)
    degree, roots = (int(product.degree) if product else -1), 0
    for a in points:
        while product and not f.horner(product.coeffs, a):
            product = divmod(product, Polynomial._from_ints(f, [f.neg(a), 1]))[0]
            roots += 1
    return degree, roots


def _tail_mismatches(monkeypatch, inst, seed, trials=40):
    """The trials whose g_degree or root_count differ from _reference_tail."""
    moves = []

    def record(f, moved):
        moves.append(moved)
        return moved

    _patch_split(monkeypatch, record)
    rep = weight_bound_audit(inst, trials=trials, seed=seed)
    assert len(moves) == len(rep.trials) == trials
    got = [(t.g_degree, t.root_count) for t in rep.trials]
    want = [_reference_tail(inst.field, inst.eval_set.points, moved) for moved in moves]
    return [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]


DIVISION_CASES = SPLIT_CASES + ["q64_n64_k40", "q65536_n32_k19", "mixed"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", DIVISION_CASES)
def test_audit_quotients_match_polynomial_division(request, monkeypatch, name, seed):
    """Synthetic division by the fixed point's x - c and the Vandermonde
    evaluation give the product's degree and root count: over GF(2^m) with
    m <= 8 and m = 16 (the set-bit combiner), odd p, GF(q^2) and a map with
    a != 1 and b != 0."""
    if name == "mixed":
        inst = _mixed_instance()
    else:
        inst = _spec_instance(name) if name.startswith("q") else request.getfixturevalue(name)
    assert _tail_mismatches(monkeypatch, inst, seed) == []
