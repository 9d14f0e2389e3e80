"""Distance bounds, spectral audits, and the exact distance.

Two lower bounds on the weight of codewords outside the dual span are
computed: a degree bound min(r+1, n-ell) that only uses the largest
evaluated degree, and a spectral bound that exploits how the zeros of a
codeword spread across orbit blocks.  The spectral route goes through the
Schreier graph of a block under the symbol-fixing subgroup of each
codeword, whose second eigenvalue is known exactly, and the expander mixing
lemma.  Everything numeric is guarded by exact rational arithmetic when an
integer threshold is extracted.

Every certified number passes construct.structure_problem, the
deterministic checks of verify_instance, first: css_params calls it, and the
scan and the audit reach it through construct.dual_positions, which also
names the rows of G_C that span D = C-perp.  A word lies in D exactly when
its message is zero on every other row.

The exact distance, the least weight of a word of C outside D, comes from a
witness where one is good enough: an information-set search finds a light
word outside D, and when its weight, recounted from encode, equals the
degree bound, nothing lighter exists.  Only where a gap remains does
exact_distance enumerate C outside D, under a cap on q^k.  The spectral bound
never sets the exact distance, since it rests on the paper's theorem and is
not recomputed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .agl import AglSubgroup, theta_subgroup
from .construct import (
    CodeInstance,
    dual_positions,
    encode,
    exponent_sets,
    g_powers,
    structure_problem,
)
from .errors import ConstructionError, InputError, ResourceError, VerificationError
from .field import FieldElement
from .linalg import _rref_ints
from .poly import Polynomial
from .rng import Xorshift64Star


class TooLarge(ResourceError):
    """q**k exceeds the enumeration cap."""


class NotRegular(InputError):
    """The vertex set is not a single full-size orbit."""


class NotSymmetricGeneratingSet(InputError):
    """The generating set is not closed under inverses."""


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise InputError(f"{n} has no prime factor")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


# ---------------------------------------------------------------------------
# closed-form bounds


def degree_bound(n: int, r: int, ell: int | None) -> int:
    """Weight of any nonzero codeword is >= min(r+1, n-ell).

    Every evaluated polynomial has degree at most max(ell, n-(r+1)), so a
    nonzero codeword has at most that many zero coordinates.  With no x^i
    monomials at all (ell is None) the pure g-powers cap the degree at
    n-(r+1) and the bound is r+1.
    """
    if ell is None:
        return r + 1
    return min(r + 1, n - ell)


@dataclass(frozen=True)
class BoundValue:
    real: float
    ceiling: int
    vacuous: bool


def weight_bound(n: int, r: int, theta_order: int, ell: int) -> BoundValue:
    """Spectral weight bound for a codeword whose stabilizer has the given order.

    real value:  n * (1 - t/(2(r+1)) - sqrt(t^2/(4(r+1)^2) + mu/(r+1) * (ell-1)/n))
    with t = theta_order and mu = r+1-t.  The integer ceiling is certified
    with exact rational arithmetic so that a bound landing on an integer is
    not bumped up by float fuzz.  Non-positive bounds are clamped to 1 and
    flagged vacuous (any nonzero codeword has weight >= 1).
    """
    if ell < 1:
        raise InputError(f"largest degree ell = {ell} must be >= 1")
    big_r = r + 1
    if not 1 <= theta_order <= big_r:
        raise InputError(f"stabilizer order {theta_order} outside [1, {big_r}]")
    mu = big_r - theta_order
    a_term = Fraction(n) - Fraction(n * theta_order, 2 * big_r)
    radicand = Fraction(theta_order**2, 4 * big_r * big_r) + Fraction(mu * (ell - 1), big_r * n)
    real = float(a_term) - n * math.sqrt(radicand)

    def value_le(t: int) -> bool:
        # bound <= t  <=>  a_term - t <= n * sqrt(radicand)
        d = a_term - t
        return d <= 0 or d * d <= n * n * radicand

    t = math.ceil(real - 1e-9)
    while not value_le(t):
        t += 1
    while value_le(t - 1):
        t -= 1
    return BoundValue(real=real, ceiling=max(t, 1), vacuous=t < 1)


def agl_bound(n: int, r: int, ell: int, p: int | None = None) -> BoundValue:
    """Worst-case spectral bound over all codewords of one instance.

    The stabilizer of a nontrivial codeword is a proper subgroup, so its
    order is at most (r+1)/p with p the smallest prime factor of r+1, and
    the bound is worst there.
    """
    if p is None:
        p = smallest_prime_factor(r + 1)
    return weight_bound(n, r, (r + 1) // p, ell)


def quantum_singleton_rhs(n: int, delta: int, r: int) -> int:
    """Largest qLRC dimension allowed at distance delta and locality r."""
    if delta < 1:
        raise InputError("distance must be positive")
    b = (n - (delta - 1)) // (r + 1)
    a = n - 2 * (delta - 1) - b
    return a - a // (r + 1)


def singleton_optimal(n: int, kappa: int, delta: int, r: int) -> bool:
    """Sufficient condition for (n, kappa, delta, r) to sit on the bound."""
    if (n + kappa) % 2:
        raise InputError("n + kappa must be even for a CSS-style instance")
    half = (n + kappa) // 2
    rhs = r + 2 + half - math.ceil(Fraction(half, r)) * (r + 1)
    return 2 <= delta <= rhs


# ---------------------------------------------------------------------------
# instance-level parameters


@dataclass(frozen=True)
class QlrcParams:
    """Parameters of the quantum code cut from a dual-containing instance."""

    n: int
    kappa: int
    q: int
    r: int
    ell: int | None
    p: int
    degree_bound: int
    agl_bound_real: float | None
    agl_bound_int: int | None
    singleton_rhs_at_agl_bound: int | None
    optimal: bool | None
    delta_exact: int | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def css_params(inst: CodeInstance, delta_exact: int | None = None) -> QlrcParams:
    """[[n, 2k-n]] parameters plus every bound this package can certify.

    An instance that fails structure_problem raises VerificationError, so
    every number rests on recomputed data; ell, for one, is read only after
    generator-row-consistency matched it with exponent_sets(n, k, r).
    """
    problem = structure_problem(inst)
    if problem:
        raise VerificationError(problem)
    n, r, ell = inst.n, inst.r, inst.ell
    p = smallest_prime_factor(r + 1)
    bv = agl_bound(n, r, ell, p)
    return QlrcParams(
        n=n,
        kappa=inst.kappa,
        q=inst.field.q,
        r=r,
        ell=ell,
        p=p,
        degree_bound=degree_bound(n, r, ell),
        agl_bound_real=bv.real,
        agl_bound_int=bv.ceiling,
        singleton_rhs_at_agl_bound=quantum_singleton_rhs(n, bv.ceiling, r),
        optimal=singleton_optimal(n, inst.kappa, bv.ceiling, r),
        delta_exact=delta_exact,
    )


def sweep_rows(n: int, r: int):
    """(kappa, degree_bound, agl_bound_int) for every admissible dimension."""
    if n % (r + 1):
        raise InputError(f"block size {r + 1} does not divide n = {n}")
    p = smallest_prime_factor(r + 1)
    rows = []
    for k in range(n // 2 + 1, n * r // (r + 1) + 1):
        exps = exponent_sets(n, k, r)
        rows.append(
            (2 * k - n, degree_bound(n, r, exps.ell), agl_bound(n, r, exps.ell, p).ceiling)
        )
    return rows


# ---------------------------------------------------------------------------
# exact minimum weight outside the dual span: enumeration, and a witness


def _trailing_zeros(c: int, p: int) -> int:
    """The number of trailing zero base-p digits of c > 0."""
    j = 0
    while not c % p:
        c //= p
        j += 1
    return j


def _words_outside_dual(inst: CodeInstance):
    """One word of C outside D = C-perp per scalar class, as integer lists.

    dual_positions certifies D = C-perp and says which rows of G_C span D,
    so a message gives a word of D exactly when it is zero off those rows.
    For each row outside D in turn, its coefficient is fixed to 1 and those
    of the earlier rows outside D to 0, while the later rows outside D and
    the rows of D run through a p-ary modular Gray code over the additive
    GF(p)-basis 1, x, ..., x^(m-1) of GF(q): step c adds basis row j, where
    j is the number of trailing zero base-p digits of c.  The steps for the
    lowest digits, up to 1024 counts, repeat and are read from a table.
    Every word costs one list addition through the add table; there are
    (q^k - q^(n-k))/(q - 1) of them.
    """
    fld, k = inst.field, inst.k
    in_d = dual_positions(inst)
    outside = [i for i in range(k) if i not in in_d]  # k > n - k, so never empty
    add = fld.tables()
    p, rows = fld.p, [fld.ints(row) for row in inst.matrix_c]
    digits = [p**d for d in range(fld.m)]
    for t, lead in enumerate(outside):
        free = outside[t + 1 :] + sorted(in_d)
        # basis row j as the add-table rows of its coordinates
        steps = [[add[fld.mul(b, x)] for x in rows[i]] for i in free for b in digits]
        word = rows[lead]
        yield word
        # count c = hi * p^low + lo steps by row j(lo) when lo > 0, else by low + j(hi)
        low = 0
        while low < len(steps) and p ** (low + 1) <= 1024:
            low += 1
        low_steps = [steps[_trailing_zeros(lo, p)] for lo in range(1, p**low)]
        for hi in range(p ** (len(steps) - low)):
            if hi:
                word = list(map(list.__getitem__, steps[low + _trailing_zeros(hi, p)], word))
                yield word
            for step in low_steps:
                word = list(map(list.__getitem__, step, word))
                yield word


def distance_bruteforce(inst: CodeInstance, cap: int = 1 << 24) -> int:
    """Exact min weight over the codewords of C outside D = C-perp, by enumeration.

    Raises VerificationError when D is not C-perp, and TooLarge when q^k
    exceeds the cap.  See _words_outside_dual for the walk.
    """
    q, k = inst.field.q, inst.k
    if q**k > cap:
        raise TooLarge(f"q^k = {q}^{k} exceeds the cap {cap}")
    return inst.n - max(map(list.count, _words_outside_dual(inst), itertools.repeat(0)))


# Information sets low_weight_witness tries before it gives up (about 4 ms
# each on the [32,19]_32 flagship), and the seed `qlrc bounds` searches with.
WITNESS_SETS = 4
WITNESS_SEED = 1


@dataclass(frozen=True)
class Witness:
    """A message and its word m . G_C, a word of C outside D."""

    message: tuple[FieldElement, ...]
    word: tuple[FieldElement, ...]


def low_weight_witness(inst: CodeInstance, seed: int = WITNESS_SEED) -> Witness:
    """The lightest word of C outside D that a Lee-Brickell search finds.

    Each of WITNESS_SETS rounds draws a column permutation from
    Xorshift64Star(seed) and row-reduces [G_C | I_k] with the permuted code
    columns first.  Every reduced row is then a word with one nonzero among
    the k pivot columns, next to the message that encodes it.  The candidates
    are each row and each combination row_i + c row_j (Lee-Brickell with
    p = 2); a combination's weight is 2 plus its nonzeros off the pivots,
    where the best c for a pair is the one cancelling the most of them.  A
    candidate whose message is zero at every row outside dual_positions(inst)
    lies in D and is skipped.  The search stops early at degree_bound, which
    no word of C outside D undercuts.  Only the chosen word is formed.
    Raises VerificationError, through dual_positions, when the instance
    fails structure_problem.
    """
    in_d = dual_positions(inst)
    fld, n, k = inst.field, inst.n, inst.k
    add, mul, neg = fld.add, fld.mul, fld.neg
    outside = [n + i for i in range(k) if i not in in_d]  # message columns off D
    target = degree_bound(n, inst.r, inst.ell)
    rng = Xorshift64Star(seed)
    best_weight, best = n + 1, None  # (row_i, c, row_j, perm); c = 0 for row_i alone
    for _ in range(WITNESS_SETS):
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        rows = [
            [row[c] for c in perm] + [int(i == j) for j in range(k)]
            for i, row in enumerate(inst._rows_c_ints)
        ]
        pivots = set(_rref_ints(fld, rows))
        support = [{t for t in range(n) if row[t] and t not in pivots} for row in rows]
        for i, row in enumerate(rows):
            if 1 + len(support[i]) < best_weight and any(row[t] for t in outside):
                best_weight, best = 1 + len(support[i]), (row, 0, row, perm)
        if best_weight == target:
            break
        # inverses of each row's entries off the pivots, for the ratios below
        invs = [{t: fld.inv(row[t]) for t in sup} for row, sup in zip(rows, support)]
        for i, j in itertools.combinations(range(k), 2):
            if best_weight == target:
                break
            common = support[i] & support[j]
            # weight of row_i + c row_j before cancellation at common columns
            base = 2 + len(support[i]) + len(support[j]) - len(common)
            if base - len(common) >= best_weight:
                continue
            ri, rj, inv_j = rows[i], rows[j], invs[j]
            counts: dict[int, int] = {}  # ri[t] / rj[t] -> columns; c = -ratio cancels them
            for t in common:
                ratio = mul(ri[t], inv_j[t])
                counts[ratio] = counts.get(ratio, 0) + 1
            for ratio, cancelled in sorted(counts.items(), key=lambda kv: -kv[1]):
                if base - cancelled >= best_weight:
                    break
                c = neg(ratio)
                if any(add(ri[t], mul(c, rj[t])) for t in outside):
                    best_weight, best = base - cancelled, (ri, c, rj, perm)
                    break
        if best_weight == target:
            break
    ri, c, rj, perm = best  # never None: k > n - k, so some reduced row lies outside D
    combined = fld.axpy(ri, c, rj)
    word = [0] * n
    for t, col in enumerate(perm):
        word[col] = combined[t]
    return Witness(message=tuple(fld.from_ints(combined[n:])), word=tuple(fld.from_ints(word)))


def exact_distance(inst: CodeInstance, cap: int = 1 << 24) -> int:
    """Exact min weight over C outside D: a witness at the degree bound, else enumeration.

    The witness of low_weight_witness at WITNESS_SEED counts only after its
    word is recomputed by encode from its message alone, that message is
    nonzero at a row outside D, and the recomputed weight equals
    degree_bound(n, r, ell); then no lighter word of C outside D exists.
    The spectral bound is never used here.  Otherwise distance_bruteforce
    decides, and raises TooLarge when q^k exceeds the cap.
    """
    wit = low_weight_witness(inst, WITNESS_SEED)
    weight = sum(1 for x in encode(inst, wit.message) if x)
    if weight == degree_bound(inst.n, inst.r, inst.ell):
        in_d = dual_positions(inst)
        if any(x for i, x in enumerate(wit.message) if i not in in_d):
            return weight
    return distance_bruteforce(inst, cap)


# ---------------------------------------------------------------------------
# Schreier graphs and their spectra


@dataclass(frozen=True)
class SchreierGraph:
    """Graph on one block: x ~ t(x) for t in the generating set H minus Theta."""

    vertices: tuple[FieldElement, ...]
    adjacency: tuple[tuple[int, ...], ...]
    mu: int
    theta_order: int


def schreier_graph(orbit, subgroup: AglSubgroup, theta: AglSubgroup) -> SchreierGraph:
    """Build the block graph generated by the maps outside the stabilizer.

    The orbit must be a single full-size (free) orbit of the subgroup and
    theta a proper subgroup of it.  The complement generating set is closed
    under inverses, so the graph is undirected; freeness rules out both
    self-loops and repeated edges, and the adjacency matrix is the all-ones
    matrix minus the corresponding stabilizer graph.
    """
    field = subgroup.field
    verts = sorted({field.element(x) for x in orbit}, key=lambda e: e.value())
    if len(verts) != len(subgroup):
        raise NotRegular(f"orbit size {len(verts)} != subgroup order {len(subgroup)}")
    sub_set = set(subgroup.maps)
    theta_set = set(theta.maps)
    if not theta_set < sub_set:
        raise InputError("theta must be a proper subgroup of the acting subgroup")
    gens = [t for t in subgroup if t not in theta_set]
    for t in gens:
        if t.inverse() in theta_set:
            raise NotSymmetricGeneratingSet(f"inverse of {t!r} fell into the stabilizer")
    for x in verts:
        if len({f(x) for f in subgroup}) != len(subgroup):
            raise NotRegular(f"action is not free at {x!r}")

    idx = {x.v: i for i, x in enumerate(verts)}
    size = len(verts)

    def adj_from(maps):
        mat = [[0] * size for _ in range(size)]
        for i, x in enumerate(verts):
            for t in maps:
                y = t(x)
                if y.v not in idx:
                    raise NotRegular("generating set walks out of the orbit")
                mat[i][idx[y.v]] = 1
        return mat

    mat = adj_from(gens)
    stab_mat = adj_from(theta_set)
    for i in range(size):
        for j in range(size):
            if mat[i][j] + stab_mat[i][j] != 1:
                raise ConstructionError("graph plus stabilizer graph is not all-ones")
        if sum(mat[i]) != len(gens):
            raise ConstructionError("graph is not regular of the expected degree")

    return SchreierGraph(
        vertices=tuple(verts),
        adjacency=tuple(tuple(row) for row in mat),
        mu=len(gens),
        theta_order=len(theta_set),
    )


def _matmul(x, y):
    size = len(x)
    return [[sum(x[i][m] * y[m][j] for m in range(size)) for j in range(size)] for i in range(size)]


def second_eigenvalue(graph: SchreierGraph) -> float:
    """Largest |eigenvalue| after removing one copy of the top (degree) one.

    With R vertices and t = |Theta| the adjacency matrix A is J minus the
    cliques on Theta's cosets, so its spectrum is {R - t (simple), -t, 0}.
    This is certified in integer arithmetic: A symmetric and
    A(A + tI)(A - (R - t)I) = 0 put every eigenvalue in {R - t, -t, 0};
    tr A = 0 and tr A^2 = R(R - t) then force R - t to be simple and -t to
    occur.  The answer is t exactly; any failed identity raises.
    """
    a = graph.adjacency
    size, t = len(a), graph.theta_order
    top = size - t
    if any(a[i][j] != a[j][i] for i in range(size) for j in range(i)):
        raise ConstructionError("adjacency matrix is not symmetric")
    a2 = _matmul(a, a)
    p = [[a2[i][j] + t * a[i][j] for j in range(size)] for i in range(size)]
    pa = _matmul(p, a)
    if any(pa[i][j] != top * p[i][j] for i in range(size) for j in range(size)):
        raise ConstructionError(f"A(A + {t}I)(A - {top}I) is not zero")
    if sum(a[i][i] for i in range(size)) != 0:
        raise ConstructionError("adjacency matrix has a nonzero trace")
    if sum(a2[i][i] for i in range(size)) != size * top:
        raise ConstructionError(f"tr A^2 != {size} * {top}")
    return float(t)


# ---------------------------------------------------------------------------
# per-codeword audit of the spectral machinery


@dataclass(frozen=True)
class AuditTrial:
    weight: int
    theta_order: int
    bound_real: float
    bound_int: int
    gamma_degree: int
    g_degree: int
    g_degree_cap: int
    pair_count: int
    root_count: int


@dataclass(frozen=True)
class AuditReport:
    trials: tuple[AuditTrial, ...]
    min_weight: int
    failures: tuple[str, ...]
    monotone_in_theta: bool

    @property
    def ok(self) -> bool:
        return not self.failures and self.monotone_in_theta


def weight_bound_audit(inst: CodeInstance, trials: int = 200, seed: int | None = None) -> AuditReport:
    """Sample codewords outside the dual span and audit the spectral bound.

    A sample is a uniform message, redrawn while it is zero at every row
    outside D (dual_positions certifies D = C-perp first, so those are
    exactly the messages of words in D), and its word is encode(inst, m).
    For each sample: split off the non-block-constant part gamma, compute
    its exact stabilizer, check the weight against the bound at the actual
    stabilizer order, then build the associated quotient-product polynomial
    explicitly and confirm its degree cap and that its root count in the
    evaluation set dominates the count of same-orbit zero pairs.  Raises
    VerificationError, through dual_positions, when the instance fails
    structure_problem.
    """
    in_d = dual_positions(inst)
    es, fld, n, r, ell = inst.eval_set, inst.field, inst.n, inst.r, inst.ell
    sub = es.good.subgroup
    rng = Xorshift64Star(inst.seed if seed is None else seed)
    p = smallest_prime_factor(r + 1)

    thetas = list(range(1, (r + 1) // p + 1))
    vals = [weight_bound(n, r, t, ell).real for t in thetas]
    monotone = all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    s_pairs = inst.exps.s_pairs
    s1set = set(inst.exps.s1)
    gpows = g_powers(es.good.g, max(j for _, j in s_pairs))
    monos = [gpows[j].shift(i) for i, j in s_pairs]
    x_poly = Polynomial.x(fld)
    outside = [i for i in range(inst.k) if i not in in_d]

    out: list[AuditTrial] = []
    failures: list[str] = []
    for trial in range(trials):
        coeffs = [rng.element(fld) for _ in s_pairs]
        while all(coeffs[i].is_zero() for i in outside):
            coeffs = [rng.element(fld) for _ in s_pairs]
        word = encode(inst, coeffs)
        gamma = Polynomial.zero(fld)
        for c, pair, mono in zip(coeffs, s_pairs, monos):
            if pair in s1set and not c.is_zero():
                gamma = gamma + mono * Polynomial.constant(c)
        if gamma.is_zero():
            failures.append(f"trial {trial}: sampled word outside dual has no x^i part")
            continue
        theta = theta_subgroup(sub, gamma)
        t_ord = len(theta)
        mu = len(sub) - t_ord
        bv = weight_bound(n, r, t_ord, ell)
        weight = sum(1 for w in word if not w.is_zero())
        if weight < bv.ceiling:
            failures.append(
                f"trial {trial}: weight {weight} below bound {bv.ceiling} at stabilizer {t_ord}"
            )

        theta_set = set(theta.maps)
        bigg = Polynomial.one(fld)
        for t in sub:
            if t in theta_set:
                continue
            tp = t.as_polynomial()
            num = gamma.compose(tp) - gamma
            den = tp - x_poly
            quo, rem = divmod(num, den)
            if not rem.is_zero():
                failures.append(f"trial {trial}: difference quotient is not a polynomial")
                quo = num  # keep going with something sane
            bigg = bigg * quo
        cap = mu * (ell - 1)
        gdeg = int(bigg.degree) if not bigg.is_zero() else -1
        if bigg.is_zero() or gdeg > min(mu * (int(gamma.degree) - 1), cap):
            failures.append(f"trial {trial}: quotient product degree {gdeg} exceeds its cap")

        zero_idx = [i for i, w in enumerate(word) if w.is_zero()]
        zero_set = {es.points[i].v for i in zero_idx}
        pair_count = 0
        for i in zero_idx:
            x = es.points[i]
            for t in sub:
                if t in theta_set:
                    continue
                if t(x).v in zero_set:
                    pair_count += 1
        root_count = 0
        gg = bigg
        for x in es.points:
            while not gg.is_zero() and gg(x).is_zero():
                gg = gg // Polynomial(fld, (-x, fld.one()))
                root_count += 1
        if not pair_count <= root_count <= max(gdeg, 0):
            failures.append(
                f"trial {trial}: zero pairs {pair_count} vs roots {root_count} vs degree {gdeg}"
            )
        out.append(
            AuditTrial(
                weight=weight,
                theta_order=t_ord,
                bound_real=bv.real,
                bound_int=bv.ceiling,
                gamma_degree=int(gamma.degree),
                g_degree=gdeg,
                g_degree_cap=cap,
                pair_count=pair_count,
                root_count=root_count,
            )
        )
    return AuditReport(
        trials=tuple(out),
        min_weight=min((t.weight for t in out), default=0),
        failures=tuple(failures),
        monotone_in_theta=monotone,
    )
