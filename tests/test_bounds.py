"""Distance bounds: closed forms, exact ceilings, enumeration, spectra, audits."""

import itertools
import json
from pathlib import Path

import pytest

from qlrc import (
    AffineMap,
    AglSubgroup,
    Polynomial,
    Xorshift64Star,
    agl_bound,
    css_params,
    degree_bound,
    distance_bruteforce,
    encode,
    exact_distance,
    low_weight_witness,
    quantum_singleton_rhs,
    schreier_graph,
    second_eigenvalue,
    singleton_optimal,
    smallest_prime_factor,
    sweep_rows,
    theta_subgroup,
    weight_bound,
    weight_bound_audit,
)
from qlrc import bounds
from qlrc.bounds import NotRegular, SchreierGraph, TooLarge, Witness, _words_outside_dual
from qlrc.construct import dual_positions, instance_from_dump, instance_to_dump
from qlrc.errors import ConstructionError, InputError, VerificationError


def test_smallest_prime_factor():
    assert [smallest_prime_factor(n) for n in (2, 3, 4, 6, 9, 15, 49, 97)] == [
        2, 3, 2, 2, 3, 3, 7, 97,
    ]
    with pytest.raises(InputError):
        smallest_prime_factor(1)


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
    with g edited to x^4 the blocks are orbits but g is not constant on them."""
    dump = instance_to_dump(inst8)
    moved = json.loads(json.dumps(dump))
    moved["subgroup"]["B_basis"] = [[1, 0, 0], [0, 0, 1]]
    x4 = json.loads(json.dumps(dump))
    x4["g"] = Polynomial.monomial(inst8.field, inst8.field.one(), 4).to_lists()
    for bad, detail in [(moved, "is not a free orbit"), (x4, "several values of g")]:
        inst = instance_from_dump(bad)
        with pytest.raises(VerificationError, match=detail):
            css_params(inst)
        with pytest.raises(VerificationError, match=detail):
            weight_bound_audit(inst, trials=3, seed=1)


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
    for values in itertools.product(f.elements(), repeat=len(in_d)):
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
    triv = AglSubgroup(sub.field, [AffineMap.identity(sub.field)])
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


def test_schreier_graph_rejects_partial_orbit(inst32):
    es = inst32.eval_set
    sub = es.good.subgroup
    triv = AglSubgroup(sub.field, [AffineMap.identity(sub.field)])
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
    triv = AglSubgroup(sub.field, [AffineMap.identity(sub.field)])
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


def test_weight_bound_audit_deterministic(inst8):
    a = weight_bound_audit(inst8, trials=10, seed=9)
    b = weight_bound_audit(inst8, trials=10, seed=9)
    assert a == b


def test_weight_bound_audit_extended(inst9x):
    rep = weight_bound_audit(inst9x, trials=15, seed=3)
    assert rep.ok
