"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Every test prints a single `criterion N: PASS/FAIL` line (visible with -s or
in the failure report) and enforces a wall-clock budget on its own work.
"""

import itertools
import time

from qlrc import (
    Field,
    Polynomial,
    Xorshift64Star,
    annihilator,
    build_code,
    build_evaluation_set,
    css_params,
    distance_bruteforce,
    encode,
    exponent_sets,
    good_polynomial,
    orbits,
    repair,
    schreier_graph,
    second_eigenvalue,
    subgroup_from_MB,
    theta_subgroup,
    verify_instance,
    weight_bound_audit,
)
from qlrc.cli import main
from qlrc.linalg import dot, rank, solve_in_span

from conftest import primitive_element


def _report(num: int, failures: list, summary: str, elapsed: float, budget: float) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num}: {status} - {summary} [{elapsed:.2f}s, budget {budget:.0f}s]")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures[:8])


def _prefix_subspace(field: Field, size: int):
    """The first `size` elements in canonical order: a coordinate subspace."""
    return set(field.from_ints(range(size)))


def _mult_subgroup(field: Field, e: int):
    """The order-e subgroup of the nonzero elements, as affine maps a*x."""
    g = primitive_element(field)
    gen = g ** ((field.q - 1) // e)
    m = {gen**i for i in range(e)}
    return subgroup_from_MB(field, field.m, m, {field.zero()})


def _mixed_subgroup(field: Field, d: int):
    """All maps a*x + b with a, b drawn from the degree-d subfield (a != 0)."""
    g = primitive_element(field)
    sub_order = field.p**d
    w = g ** ((field.q - 1) // (sub_order - 1))
    k_star = {w**i for i in range(sub_order - 1)}
    k_all = k_star | {field.zero()}
    return subgroup_from_MB(field, d, k_star, k_all)


# ---------------------------------------------------------------------------
# criterion 1: the [32,19] showcase instance is reproduced exactly


def test_criterion_1_flagship_reproduction(inst32):
    budget, start = 5.0, time.perf_counter()
    failures = []

    expected_summary = "[32,19]_32 locality 3, dual-containing: OK, qLRC [[32,6]]_32"
    if inst32.summary() != expected_summary:
        failures.append(f"summary {inst32.summary()!r}")
    exps = inst32.exps
    if (inst32.kappa, exps.ell, exps.ell_prime) != (6, 21, 9):
        failures.append(f"(kappa, ell, ell') = {(inst32.kappa, exps.ell, exps.ell_prime)}")
    want_s1 = {(i, j) for i in (1, 2) for j in range(5)} | {(1, 5)}
    if set(exps.s1) != want_s1:
        failures.append(f"s1 = {sorted(exps.s1)}")
    if len(exps.t1) != 5 or set(exps.t1) != {(i, j) for i in (1, 2) for j in (0, 1)} | {(1, 2)}:
        failures.append(f"t1 = {sorted(exps.t1)}")

    for chk in verify_instance(inst32, trials=50):
        if not chk.ok:
            failures.append(f"check {chk.name}: {chk.detail}")

    params = css_params(inst32).to_json_dict()
    if (params["degree_bound"], params["agl_bound_int"]) != (4, 5):
        failures.append(f"bounds {params}")
    if abs(params["agl_bound_real"] - 4.404082057734577) > 1e-9:
        failures.append(f"agl real {params['agl_bound_real']}")
    if params["singleton_rhs_at_agl_bound"] != 13 or params["optimal"] is not False:
        failures.append(f"singleton fields {params}")

    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s")
    _report(1, failures, "[[32,6]]_32 rebuilt, 7/7 checks, frozen bounds", elapsed, budget)


# ---------------------------------------------------------------------------
# criterion 2: >= 50 configurations across six fields stay dual-containing


def test_criterion_2_dual_containment_sweep():
    budget, start = 60.0, time.perf_counter()
    failures = []
    flavors_seen = set()
    built = 0

    for p, m in ((2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5)):
        fld = Field(p, m)
        q = fld.q
        subs = []
        for j in range(1, m + 1):
            if p**j >= 3:
                subs.append(("additive", subgroup_from_MB(fld, 1, {fld.one()}, _prefix_subspace(fld, p**j))))
        divs = sorted(e for e in range(3, q) if (q - 1) % e == 0)
        for e in sorted({divs[0], divs[len(divs) // 2], divs[-1]} if divs else set()):
            subs.append(("multiplicative", _mult_subgroup(fld, e)))
        for d in range(1, m):
            if m % d == 0 and p**d > 2:
                subs.append(("mixed", _mixed_subgroup(fld, d)))

        for flavor, sub in subs:
            part = orbits(sub, fld.from_ints(range(fld.q)))
            full = [o for o in part if len(o) == len(sub)]
            n, r = len(full) * len(sub), len(sub) - 1
            kmin, kmax = n // 2 + 1, n * r // (r + 1)
            for k in sorted({kmin, kmax}):
                es = build_evaluation_set(sub, domain="orbits", n=n)
                inst = build_code(es, k)
                built += 1
                flavors_seen.add(flavor)
                label = f"q={q} {flavor} r={r} k={k}"
                c_rows = [inst.field.from_ints(row) for row in inst.matrix_c]
                d_rows = [inst.field.from_ints(row) for row in inst.matrix_d]
                if rank(c_rows + d_rows) != k:
                    failures.append(f"{label}: stacked rank != {k}")
                if any(not dot(rs, rt).is_zero() for rs in c_rows for rt in d_rows):
                    failures.append(f"{label}: non-orthogonal row pair")
                if inst.kappa != 2 * k - inst.n:
                    failures.append(f"{label}: kappa {inst.kappa}")

    if built < 50:
        failures.append(f"only {built} configurations")
    if flavors_seen != {"additive", "multiplicative", "mixed"}:
        failures.append(f"flavors {sorted(flavors_seen)}")

    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s")
    _report(2, failures, f"{built} configs over q in {{8,9,16,25,27,32}} all dual-containing", elapsed, budget)


# ---------------------------------------------------------------------------
# criterion 3: closed-form largest degrees match enumeration everywhere


def _largest_degree_enumerated(count: int, r: int):
    """Max of the `count` smallest degrees avoiding residues 0 and r mod r+1."""
    if count == 0:
        return None
    picked = []
    for deg in itertools.count(1):
        if deg % (r + 1) not in (0, r):
            picked.append(deg)
            if len(picked) == count:
                return picked[-1]


def test_criterion_3_degree_closed_form():
    budget, start = 5.0, time.perf_counter()
    failures = []
    checked = 0

    for n in range(3, 49):
        for block in range(3, n + 1):
            if n % block:
                continue
            r, u = block - 1, n // block
            for k in range(n // 2 + 1, n * r // (r + 1) + 1):
                es = exponent_sets(n, k, r)
                checked += 1
                want_ell = _largest_degree_enumerated(k - u, r)
                want_ellp = _largest_degree_enumerated(n - k - u, r)
                if (es.ell, es.ell_prime) != (want_ell, want_ellp):
                    failures.append(f"(n,k,r)=({n},{k},{r}): {(es.ell, es.ell_prime)}")
                if len(es.s1) + len(es.s2) != k or len(es.t1) + len(es.s2) != n - k:
                    failures.append(f"(n,k,r)=({n},{k},{r}): set sizes off")
                if es.ell_prime is not None and es.ell + es.ell_prime > n - 2:
                    failures.append(f"(n,k,r)=({n},{k},{r}): degree budget blown")

    if checked < 1000:
        failures.append(f"only {checked} windows")
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s")
    _report(3, failures, f"{checked} (n,k,r) windows, closed form == enumeration", elapsed, budget)


# ---------------------------------------------------------------------------
# criterion 4: exact minimum weights dominate both lower bounds


def test_criterion_4_exact_distances(inst8, inst7, inst4):
    budget, start = 120.0, time.perf_counter()
    failures = []

    for inst, frozen in ((inst8, 3), (inst7, 4), (inst4, 2)):
        delta = distance_bruteforce(inst)
        params = css_params(inst, delta_exact=delta).to_json_dict()
        label = f"[{inst.n},{inst.k}]_{inst.field.q}"
        if delta != frozen:
            failures.append(f"{label}: delta {delta} != {frozen}")
        if delta < params["degree_bound"]:
            failures.append(f"{label}: delta {delta} < degree bound {params['degree_bound']}")
        if delta < params["agl_bound_int"]:
            failures.append(f"{label}: delta {delta} < agl bound {params['agl_bound_int']}")

    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s")
    _report(4, failures, "enumerated weights 3/4/2 meet both bounds", elapsed, budget)


# ---------------------------------------------------------------------------
# criterion 5: block-graph spectra match the stabilizer order exactly


def test_criterion_5_spectral_gap():
    budget, start = 30.0, time.perf_counter()
    failures = []
    rng = Xorshift64Star(2026)
    pairs = 0

    f8, f9, f16 = Field(2, 3), Field(3, 2), Field(2, 4)
    f25, f27, f32 = Field(5, 2), Field(3, 3), Field(2, 5)
    roster = [
        subgroup_from_MB(f8, 1, {f8.one()}, _prefix_subspace(f8, 4)),
        subgroup_from_MB(f16, 1, {f16.one()}, _prefix_subspace(f16, 4)),
        subgroup_from_MB(f16, 1, {f16.one()}, _prefix_subspace(f16, 8)),
        subgroup_from_MB(f27, 1, {f27.one()}, _prefix_subspace(f27, 9)),
        subgroup_from_MB(f32, 1, {f32.one()}, _prefix_subspace(f32, 4)),
        _mult_subgroup(f8, 7),
        _mult_subgroup(f9, 8),
        _mult_subgroup(f16, 5),
        _mult_subgroup(f25, 12),
        _mixed_subgroup(f9, 1),
        _mixed_subgroup(f16, 2),
    ]

    for sub in roster:
        fld = sub.field
        part = orbits(sub, fld.from_ints(range(fld.q)))
        orbit = next(o for o in part if len(o) == len(sub))

        gammas = []
        for _ in range(10):
            deg = 1 + rng.below(6)
            coeffs = [fld.from_value(rng.below(fld.q)) for _ in range(deg)]
            lead = fld.from_value(rng.below(fld.q))
            while lead.is_zero():
                lead = fld.from_value(rng.below(fld.q))
            gammas.append(Polynomial(fld, coeffs + [lead]))
        if all(not f.b for f in sub):
            e = len(sub)
            gammas += [
                Polynomial.monomial(fld, fld.one(), e2)
                for e2 in range(1, e)
                if e % e2 == 0
            ]
        elif all(f.a == 1 for f in sub):
            inner = subgroup_from_MB(fld, 1, {fld.one()}, _prefix_subspace(fld, fld.p))
            gammas.append(good_polynomial(inner, fld.gen()).g)

        for gamma in gammas:
            theta = theta_subgroup(sub, gamma)
            if len(theta) == len(sub):
                continue
            graph = schreier_graph(orbit, sub, theta)
            pairs += 1
            label = f"GF({fld.q}) |H|={len(sub)} |Theta|={len(theta)}"
            if graph.mu != len(sub) - len(theta) or graph.theta_order != len(theta):
                failures.append(f"{label}: graph degree bookkeeping")
            second = second_eigenvalue(graph)
            if abs(second - len(theta)) > 1e-6:
                failures.append(f"{label}: second eigenvalue {second}")

    if pairs < 100:
        failures.append(f"only {pairs} (subgroup, polynomial) pairs")
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s")
    _report(5, failures, f"{pairs} spectra, second |eigenvalue| == stabilizer order", elapsed, budget)


# ---------------------------------------------------------------------------
# criterion 6: the spectral weight bound holds on 200 sampled codewords


def test_criterion_6_weight_bound_audit(inst32):
    budget, start = 60.0, time.perf_counter()
    failures = []

    report = weight_bound_audit(inst32, trials=200)
    if len(report.trials) != 200:
        failures.append(f"{len(report.trials)} trials")
    failures.extend(report.failures)
    if not report.monotone_in_theta:
        failures.append("bound not monotone in the stabilizer order")
    for t in report.trials:
        if t.weight < t.bound_int:
            failures.append(f"weight {t.weight} < bound {t.bound_int}")
        if not t.pair_count <= t.root_count <= t.g_degree <= t.g_degree_cap:
            failures.append(f"pair/root/degree chain broken: {t}")
    if not report.ok:
        failures.append("report not ok")

    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s")
    _report(6, failures, f"200 audited words, min weight {report.min_weight}", elapsed, budget)


# ---------------------------------------------------------------------------
# criterion 7: local repair is exact and reads exactly r symbols


class _CountingWord(list):
    def __init__(self, data):
        super().__init__(data)
        self.reads = 0

    def __getitem__(self, i):
        v = super().__getitem__(i)
        if v is not None:
            self.reads += 1
        return v


def test_criterion_7_repair_reads(inst32, inst8, inst7, inst4, inst9x):
    budget, start = 10.0, time.perf_counter()
    failures = []
    rng = Xorshift64Star(7)
    total = 0

    for inst in (inst32, inst8, inst7, inst4, inst9x):
        fld, label = inst.field, f"[{inst.n},{inst.k}]"
        for _ in range(500):
            msg = [fld.from_value(rng.below(fld.q)) for _ in range(inst.k)]
            word = encode(inst, msg)
            z = rng.below(inst.n)
            received = _CountingWord(word)
            received[z] = None
            got = repair(inst, received, z)
            total += 1
            if got != word[z]:
                failures.append(f"{label}: wrong symbol at {z}")
            if received.reads != inst.r:
                failures.append(f"{label}: {received.reads} reads != r = {inst.r}")

    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s")
    _report(7, failures, f"{total} erasures repaired exactly, r reads each", elapsed, budget)


# ---------------------------------------------------------------------------
# criterion 8: powers of the block polynomial form a closed quotient ring


def test_criterion_8_ring_closure(inst32, inst8, inst7, inst4, inst9x):
    budget, start = 10.0, time.perf_counter()
    failures = []

    for inst in (inst32, inst8, inst7, inst4, inst9x):
        fld, es, label = inst.field, inst.eval_set, f"[{inst.n},{inst.k}]"
        u_count = len(es.blocks)
        h = annihilator(fld, es.points)
        basis = [Polynomial.one(fld)]
        for _ in range(u_count - 1):
            basis.append(basis[-1] * es.good.g)
        basis = [divmod(bp, h)[1] for bp in basis]
        vecs = [[bp.coefficient(i) for i in range(inst.n)] for bp in basis]
        if rank(vecs) != u_count:
            failures.append(f"{label}: power basis rank {rank(vecs)} != {u_count}")
        for i in range(u_count):
            for j in range(i, u_count):
                prod = divmod(basis[i] * basis[j], h)[1]
                target = [prod.coefficient(t) for t in range(inst.n)]
                if solve_in_span(vecs, target) is None:
                    failures.append(f"{label}: g^{i} * g^{j} escapes the span")

    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s")
    _report(8, failures, "block-constant subring closed under products (5 instances)", elapsed, budget)


# ---------------------------------------------------------------------------
# criterion 9: the bounds sweep is monotone non-increasing in kappa


def test_criterion_9_sweep_monotone(capsys):
    budget, start = 5.0, time.perf_counter()
    failures = []

    rc = main(["bounds", "--sweep-kappa", "--n", "63", "--r", "6", "--q", "64"])
    out = capsys.readouterr().out
    if rc != 0:
        failures.append(f"exit code {rc}")
    lines = out.strip().split("\n")
    if lines[0] != "kappa,degree_bound,agl_bound":
        failures.append(f"header {lines[0]!r}")
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    if [row[0] for row in rows] != list(range(1, 46, 2)):
        failures.append("kappa column wrong")
    for col in (1, 2):
        vals = [row[col] for row in rows]
        if any(a < b for a, b in zip(vals, vals[1:])):
            failures.append(f"column {col} not monotone: {vals}")

    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s")
    _report(9, failures, f"{len(rows)} sweep rows, both bound columns monotone", elapsed, budget)
