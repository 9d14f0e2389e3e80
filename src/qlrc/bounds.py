"""Distance bounds, spectral audits, and exact codeword enumeration.

Two lower bounds on the weight of codewords outside the dual span are
computed: a degree bound min(r+1, n-ell) that only uses the largest
evaluated degree, and a spectral bound that exploits how the zeros of a
codeword spread across orbit blocks.  The spectral route goes through the
Schreier graph of a block under the symbol-fixing subgroup of each
codeword, whose second eigenvalue is known exactly, and the expander mixing
lemma.  Everything numeric is guarded by exact rational arithmetic when an
integer threshold is extracted.

The exact scan and the audit decide membership in D = C-perp one way, in
message space: construct.dual_positions certifies D = C-perp and names the
rows of G_C that span D, and a word lies in D exactly when its message is
zero on every other row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .agl import AglSubgroup, theta_subgroup
from .construct import CodeInstance, blocks_problem, dual_positions, encode, exponent_sets
from .errors import ConstructionError, InputError, ResourceError, VerificationError
from .field import FieldElement
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
        return {
            "n": self.n,
            "kappa": self.kappa,
            "q": self.q,
            "r": self.r,
            "ell": self.ell,
            "p": self.p,
            "degree_bound": self.degree_bound,
            "agl_bound_real": self.agl_bound_real,
            "agl_bound_int": self.agl_bound_int,
            "singleton_rhs_at_agl_bound": self.singleton_rhs_at_agl_bound,
            "optimal": self.optimal,
            "delta_exact": self.delta_exact,
        }


_EXPONENT_FIELDS = ("s1", "s2", "t1", "ell", "ell_prime")


def css_params(inst: CodeInstance, delta_exact: int | None = None) -> QlrcParams:
    """[[n, 2k-n]] parameters plus every bound this package can certify.

    ell is derived from exponent_sets(n, k, r), never read from the
    instance.  An instance that fails blocks_problem, or whose stored
    exponent data disagree with that derivation, raises VerificationError.
    """
    problem = blocks_problem(inst.eval_set)
    if problem:
        raise VerificationError(problem)
    exps = exponent_sets(inst.n, inst.k, inst.r)
    wrong = [f for f in _EXPONENT_FIELDS if getattr(inst.exps, f) != getattr(exps, f)]
    if wrong:
        raise VerificationError(
            f"stored {', '.join(wrong)} disagree with the exponent sets of "
            f"n = {inst.n}, k = {inst.k}, r = {inst.r}"
        )
    n, r, ell = inst.n, inst.r, exps.ell
    p = smallest_prime_factor(r + 1)
    if ell is not None:
        bv = agl_bound(n, r, ell, p)
        rhs = quantum_singleton_rhs(n, bv.ceiling, r)
        opt = singleton_optimal(n, inst.kappa, bv.ceiling, r)
        agl_real, agl_int = bv.real, bv.ceiling
    else:
        agl_real = agl_int = rhs = opt = None
    return QlrcParams(
        n=n,
        kappa=inst.kappa,
        q=inst.field.q,
        r=r,
        ell=ell,
        p=p,
        degree_bound=degree_bound(n, r, ell),
        agl_bound_real=agl_real,
        agl_bound_int=agl_int,
        singleton_rhs_at_agl_bound=rhs,
        optimal=opt,
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
# exact minimum weight outside the dual span


def _words_outside_dual(inst: CodeInstance):
    """One word of C outside D = C-perp per scalar class, as integer lists.

    dual_positions certifies D = C-perp and says which rows of G_C span D,
    so a message gives a word of D exactly when it is zero off those rows.
    For each row outside D in turn, its coefficient is fixed to 1 and those
    of the earlier rows outside D to 0, while the later rows outside D and
    the rows of D run through a p-ary modular Gray code over the additive
    GF(p)-basis 1, x, ..., x^(m-1) of GF(q): step c adds basis row j, where
    j is the number of trailing zero base-p digits of c.  Every word costs
    one list addition through the add table; there are
    (q^k - q^(n-k))/(q - 1) of them.
    """
    fld, k = inst.field, inst.k
    in_d = dual_positions(inst)
    outside = [i for i in range(k) if i not in in_d]
    if not outside:
        raise ConstructionError("no codeword found outside the dual span")
    add = fld.tables()
    p, rows = fld.p, [fld.ints(row) for row in inst.matrix_c]
    digits = [p**d for d in range(fld.m)]
    for t, lead in enumerate(outside):
        free = outside[t + 1 :] + sorted(in_d)
        # basis row j as the add-table rows of its coordinates
        steps = [[add[fld.mul(b, x)] for x in rows[i]] for i in free for b in digits]
        word = rows[lead]
        yield word
        for c in range(1, p ** len(steps)):
            j, rest = 0, c
            while not rest % p:
                rest //= p
                j += 1
            word = list(map(list.__getitem__, steps[j], word))
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
    VerificationError when the instance fails blocks_problem.
    """
    es = inst.eval_set
    problem = blocks_problem(es)
    if problem:
        raise VerificationError(problem)
    sub = es.good.subgroup
    if inst.ell is None:
        raise InputError("audit needs a nonempty x^i monomial part")
    fld, n, r, ell = inst.field, inst.n, inst.r, inst.ell
    rng = Xorshift64Star(inst.seed if seed is None else seed)
    p = smallest_prime_factor(r + 1)

    thetas = list(range(1, (r + 1) // p + 1))
    vals = [weight_bound(n, r, t, ell).real for t in thetas]
    monotone = all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    s_pairs = inst.exps.s_pairs
    s1set = set(inst.exps.s1)
    gpows = [Polynomial.one(fld)]
    for _ in range(max(j for _, j in s_pairs)):
        gpows.append(gpows[-1] * es.good.g)
    monos = [gpows[j].shift(i) for i, j in s_pairs]
    x_poly = Polynomial.x(fld)
    in_d = dual_positions(inst)
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
