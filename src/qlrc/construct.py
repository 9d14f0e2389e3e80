"""Dual-containing evaluation codes with locality from the fibres of g.

The pipeline: pick a subgroup H of affine maps of order R, take an
evaluation set A that is a union of full-size orbits (blocks), solve for a
multiplier vector u with sum_i u_i^2 * a_i^j = 0 for all j <= n - 2, and
evaluate two nested spans of monomials x^i * g(x)^j through the weighted
evaluation map f -> (u_1 f(a_1), ..., u_n f(a_n)).  The inner span T is
orthogonal to the outer span S under the weighting, which makes the big
code contain its own dual.  g has degree R and each block is a whole fibre
of g, which alone gives every coordinate a repair group of size r = R - 1;
that blocks are H-orbits matters only to the spectral bound and the audit.
_structure_checks certify an instance once, built or loaded: build_code
raises on the first that fails, verify_instance reports them all, bounds
certifies nothing that structure_problem rejects, and rank k and
D = C-perp follow from the monomials' degrees, not elimination.

An instance holds its points, multipliers and generator rows as integer
encodings over its field (see field.py), and every check and kernel works
on those.  A FieldElement is handed out only by the API: the word of encode
and the symbol of repair, both through Field.from_ints or from_int, so over
a field of at most 256 elements they are the field's shared elements.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import NamedTuple

from .agl import (
    AffineMap,
    AglSubgroup,
    GoodPolynomial,
    good_polynomial,
    iter_orbits,
    subgroup_from_descriptor,
)
from .errors import ConstructionError, InputError, VerificationError
from .field import (
    Embedding,
    Field,
    FieldElement,
    _digits,
    field_from_descriptor,
    json_element,
    json_int,
)
# annihilator and interpolate are unused here, but perfbench/spans.py wraps
# qlrc.construct.annihilator and qlrc.construct.interpolate
from .poly import Polynomial, annihilator, interpolate  # noqa: F401
from .rng import Xorshift64Star


class DegenerateSet(InputError):
    """Evaluation points must be pairwise distinct."""


class BadDimension(InputError):
    """k is outside the window n/2 < k <= n*r/(r+1)."""


class LocalityTooSmall(InputError):
    """Locality r must be at least 2."""


class LengthMismatch(InputError):
    """Message length does not match the code dimension."""


class BlockIncomplete(InputError):
    """A repair block is missing a second symbol."""


# ---------------------------------------------------------------------------
# multipliers


class MultiplierSolution(NamedTuple):
    """Multiplier vector u over `field`, possibly a quadratic extension.

    When `extended` is set the evaluation points were embedded into the
    extension and `embedding` maps the original field into it.
    """

    u: tuple[int, ...]
    field: Field
    points: tuple[int, ...]
    embedding: Embedding | None
    extended: bool


def _lagrange_denominators(fld: Field, xs: list[int]) -> list[int]:
    """The Lagrange weights w_i = prod_{j != i} (x_i - x_j)^-1 of distinct
    nodes, on integer encodings; the only place these products are formed.

    sum_i w_i f(x_i) is the x^(N-1) coefficient of the interpolant of f on
    the N nodes, so it vanishes when deg f <= N - 2, and w spans the kernel
    of the (N - 1) x N Vandermonde.  The multiplier solve takes square roots
    of w over all points and the gate compares u^2 with it.

    Two node sets have closed forms, read off w_i = 1 / A'(x_i) for the
    nodes' annihilator A.  N distinct nodes in a field of N elements are the
    whole field: x_i - x_j runs over F* as j does, and the product of F* is
    -1 (each unit pairs with its inverse, leaving the roots 1 and -1 of
    x^2 = 1), so every w_i = -1.  N = q - 1 distinct nonzero nodes are F*,
    whose annihilator is A = x^(q-1) - 1, so A'(a) = (q - 1) a^(q-2) =
    -1/a and w_a = -a.

    Any other node set takes O(N^2) table reads: each w_i is one exp lookup
    of a sum of logs of x_i - x_j over every j, where j = i adds log[0] =
    2(q - 1), which vanishes mod q - 1.  The differences come from a map:
    XOR in characteristic 2, with no Python call per pair, and Field.add
    of -x_j for odd p.
    Raises DegenerateSet when nodes repeat.
    """
    if len(set(xs)) != len(xs):
        raise DegenerateSet("evaluation points repeat")
    order = fld.q - 1
    if len(xs) == fld.q:
        return [fld.neg(1)] * len(xs)
    if len(xs) == order and 0 not in xs:
        return [fld.neg(x) for x in xs]
    if fld.p == 2:  # x_i - x_j = x_i ^ x_j
        diff, others = operator.xor, xs
    else:
        diff, others = fld.add, [fld.neg(x) for x in xs]
    exp, logs = fld._exp, fld._log.__getitem__
    return [exp[-sum(map(logs, map(diff, itertools.repeat(x), others))) % order] for x in xs]


def solve_multipliers(fld: Field, points) -> MultiplierSolution:
    """A nowhere-zero u with sum u_i^2 * a_i^j = 0 for all j <= n - 2.

    points are elements of fld or their integer encodings.

    The square vector is forced up to scaling: u_i^2 must be proportional to
    v_i = prod_{j != i} (a_i - a_j)^{-1}.  In characteristic 2 every element
    is a square, so the v_i are all residues.  For odd q the v_i are scaled
    by the canonically smallest non-residue when they are uniformly
    non-square; when their residue classes are mixed no scaling works over
    GF(q) and everything moves to GF(q^2), where every base-field element
    is a square.  The result is certified by multiplier-power-sums, one of
    the checks build_code runs.
    """
    points = list(points)
    if len(points) < 2:
        raise InputError("need at least two evaluation points")
    xs = fld.ints(points)
    v = _lagrange_denominators(fld, xs)

    embedding = None
    out_field = fld
    out_points = xs
    flags = [fld.is_quadratic_residue(vi) for vi in v]
    if all(flags):
        u = [fld.sqrt(vi) for vi in v]
    elif not any(flags):
        c = next(x for x in range(1, fld.q) if not fld.is_quadratic_residue(x))
        u = [fld.sqrt(fld.mul(c, vi)) for vi in v]
    else:
        out_field, embedding = fld.extend()
        out_points = [embedding(x) for x in xs]
        u = [out_field.sqrt(embedding(vi)) for vi in v]
    return MultiplierSolution(
        u=tuple(u),
        field=out_field,
        points=tuple(out_points),
        embedding=embedding,
        extended=embedding is not None,
    )


# ---------------------------------------------------------------------------
# exponent sets


def _smallest_pairs(count: int, r: int) -> list[tuple[int, int]]:
    """First `count` pairs (i, j), 1 <= i <= r-1, ordered by i + j*(r+1)."""
    return [(1 + t % (r - 1), t // (r - 1)) for t in range(count)]


def _largest_degree_closed_form(count: int, r: int) -> int | None:
    if count == 0:
        return None
    full, rem = divmod(count, r - 1)
    return (r + 1) * full + (rem or -2)


class ExponentSets(NamedTuple):
    """The monomial exponents (i, j) for x^i * g^j defining S and T.

    s2 contains the pure powers of g shared by both spans; t1 is an initial
    segment of s1.  ell / ell_prime are the largest degrees in s1 / t1
    (None when t1 is empty), computed by enumeration and confirmed against
    the closed form.
    """

    n: int
    k: int
    r: int
    s1: tuple[tuple[int, int], ...]
    s2: tuple[tuple[int, int], ...]
    t1: tuple[tuple[int, int], ...]
    ell: int | None
    ell_prime: int | None

    def degree(self, pair: tuple[int, int]) -> int:
        i, j = pair
        return i + j * (self.r + 1)

    @property
    def s_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.s1 + self.s2, key=self.degree)

    @property
    def t_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.t1 + self.s2, key=self.degree)


def check_shape(n: int, r: int) -> None:
    """Raise unless the locality r is at least 2 and the block size r + 1 divides n > 0."""
    R = r + 1
    if r < 2:
        raise LocalityTooSmall(f"locality {r} < 2")
    if n <= 0:
        raise BadDimension(f"block length n = {n} must be positive")
    if n % R != 0:
        raise BadDimension(f"block size {R} does not divide n = {n}")


def exponent_sets(n: int, k: int, r: int) -> ExponentSets:
    """Exponent sets for an [n, k] code with locality r.

    Requires the block size R = r + 1 to divide n, and n/2 < k <= n*r/R.
    """
    check_shape(n, r)
    R = r + 1
    u_count = n // R
    if not (2 * k > n and k * R <= n * r):
        raise BadDimension(f"k = {k} outside (n/2, n*r/(r+1)] for n = {n}, r = {r}")

    s1 = _smallest_pairs(k - u_count, r)
    ell = max(i + j * R for i, j in s1)
    if ell != _largest_degree_closed_form(k - u_count, r):
        raise ConstructionError("largest-degree closed form disagrees with enumeration")

    t_count = n - k - u_count
    t1 = s1[:t_count]
    ell_prime = max((i + j * R for i, j in t1), default=None)
    if ell_prime != _largest_degree_closed_form(t_count, r):
        raise ConstructionError("largest-degree closed form disagrees with enumeration")
    if ell_prime is not None and ell + ell_prime > n - 2:
        raise ConstructionError("degree budget ell + ell' exceeded n - 2")

    s2 = tuple((0, j) for j in range(u_count))
    return ExponentSets(n, k, r, tuple(s1), s2, tuple(t1), ell, ell_prime)


# ---------------------------------------------------------------------------
# evaluation sets


class _EvaluationSetFields(NamedTuple):
    field: Field
    points: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    u: tuple[int, ...]
    good: GoodPolynomial
    extended: bool
    base_field: Field


class EvaluationSet(_EvaluationSetFields):
    """Ordered evaluation points, their block partition, and multipliers.

    Points and multipliers are integer encodings over `field`.  Points are
    in canonical ascending order of the base field (inherited through the
    embedding when the instance was extended); blocks are index tuples into
    `points`, each a fibre of g and a full-size orbit of `good.subgroup`.
    Fields are read-only; a copy from _replace has nothing cached.
    """

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def block_size(self) -> int:
        """R, read off the first block; _fibre_problem holds deg g and every block to it."""
        return len(self.blocks[0])

    @property
    def r(self) -> int:
        """The locality: a block of R points with local distance 2 repairs from R - 1."""
        return self.block_size - 1

    @cached_property
    def _g_values(self) -> tuple[int, ...]:
        """g at each point, found once for the rows, the fibres and the ring check."""
        fld, coeffs = self.field, self.good.g.coeffs
        return tuple(fld.horner(coeffs, x) for x in self.points)


def _resolve_alpha(subgroup: AglSubgroup, alpha):
    if alpha == "auto":
        fixed = subgroup.fixed_points()
        for x in range(subgroup.field.q):
            if x not in fixed:
                return x
        raise InputError("subgroup has no full-size orbit at all")
    return alpha


def build_evaluation_set(
    subgroup: AglSubgroup,
    alpha="auto",
    domain="full_field",
    n: int | None = None,
) -> EvaluationSet:
    """Pick blocks from the subgroup's full-size orbits and solve multipliers.

    domain selects the evaluation points: "full_field" uses every field
    element (the subgroup must then fix no point), "orbits" takes the first
    n/|H| full-size orbits in canonical order (all when n is None) and
    stops there, and an explicit element list, enumerated over its own
    elements only, must be exactly a union of full-size orbits.

    When the multiplier solve has to move to GF(q^2), every ingredient
    (points, blocks, g, subgroup) is embedded and the returned set lives in
    the extension with `extended` set.  The block structure is certified
    by block-polynomial-constancy, one of the checks build_code runs.
    """
    fld = subgroup.field
    if len(subgroup) < 3:
        raise LocalityTooSmall(f"subgroup order {len(subgroup)} gives locality < 2")
    good = good_polynomial(subgroup, _resolve_alpha(subgroup, alpha))
    size = len(subgroup)

    if isinstance(domain, str) and domain == "full_field":
        if n is not None and n != fld.q:
            raise InputError(f"full_field implies n = {fld.q}, got {n}")
        if subgroup.fixed_points():
            raise InputError("full-size orbits do not cover the field; use domain='orbits'")
        chosen = list(iter_orbits(subgroup))
    elif isinstance(domain, str) and domain == "orbits":
        if n is not None and n <= 0:
            raise BadDimension(f"block length n = {n} must be positive")
        if n is not None and n % size != 0:
            raise BadDimension(f"n = {n} is not a multiple of the block size {size}")
        full = (orb for orb in iter_orbits(subgroup) if len(orb) == size)
        chosen = list(full if n is None else itertools.islice(full, n // size))
        want = len(chosen) if n is None else n // size
        if want < 1 or len(chosen) < want:
            total = (fld.q - len(subgroup.fixed_points())) // size
            raise InputError(
                f"requested {want} blocks but the subgroup has {total} full-size orbits"
            )
    elif isinstance(domain, str):
        raise InputError(f"unknown evaluation domain {domain!r}")
    else:
        chosen = list(iter_orbits(subgroup, domain))
        if any(len(orb) != size for orb in chosen):
            raise InputError("explicit domain is not a union of full-size orbits")
        if n is not None and n != size * len(chosen):
            raise InputError("explicit domain size disagrees with n")

    points = sorted(x for b in chosen for x in b)
    index = {x: i for i, x in enumerate(points)}
    # orbits come sorted inside and listed by smallest member, and so do the blocks
    blocks = tuple(tuple(index[x] for x in b) for b in chosen)

    sol = solve_multipliers(fld, points)
    if sol.extended:
        emb, big, sub = sol.embedding, sol.field, good.subgroup
        # a field embedding maps the group sub onto a group: no proof is needed
        image = [AffineMap(emb(a), emb(b)) for a, b in sub]
        good = GoodPolynomial(
            Polynomial._from_ints(big, [emb(c) for c in good.g.coeffs]),
            AglSubgroup._proven(big, image, sub.subfield_degree),
            emb(good.base_point),
        )
    return EvaluationSet(
        field=sol.field,
        points=sol.points,
        blocks=blocks,
        u=sol.u,
        good=good,
        extended=sol.extended,
        base_field=fld,
    )


def _fibre_problem(es: EvaluationSet) -> str | None:
    """What breaks locality, or None: g has degree R, the block size; the
    blocks partition range(n) into sets of size R; and g is constant on
    each, so a block of distinct points is a whole fibre of g and a codeword
    divided by u is a polynomial of degree at most R - 2 on it, all that
    repair needs (Tamo and Barg).  Read from points, blocks and g alone."""
    n, size, g = es.n, es.block_size, es.good.g
    if g.degree != size:
        return f"block polynomial degree {g.degree} != {size}"
    if sorted(i for blk in es.blocks for i in blk) != list(range(n)) or any(
        len(blk) != size for blk in es.blocks
    ):
        return f"blocks do not partition the {n} positions into blocks of size {size}"
    values = es._g_values
    bad = next((blk for blk in es.blocks if len({values[i] for i in blk}) != 1), None)
    return None if bad is None else f"block {bad} sees several values of g"


def _orbit_problem(es: EvaluationSet) -> str | None:
    """What ties the fibres to the subgroup H, or None: H has order R, every
    block is a free H-orbit, alpha has a free orbit and g is its monic
    annihilator, as good_polynomial builds it.  Only the spectral bound and
    the audit read H; locality does not."""
    size, sub, g = es.block_size, es.good.subgroup, es.good.g
    if len(sub) != size:
        return f"subgroup order {len(sub)} != block size {size}"
    for blk in es.blocks:
        if sub.orbit(es.points[blk[0]]) != sorted(es.points[i] for i in blk):
            return f"block {blk} is not a free orbit of the subgroup"
    alpha = es.good.base_point
    orbit = sub.orbit(alpha) if alpha is not None else []
    shown = None if alpha is None else es.field.show(alpha)
    if len(orbit) != size:
        return f"alpha {shown} does not have a free orbit"
    if g.coeffs[-1] != 1 or any(es.field.horner(g.coeffs, x) for x in orbit):
        return f"g is not the monic annihilator of the orbit of alpha {shown}"
    return None


# ---------------------------------------------------------------------------
# the code itself


class _CodeInstanceFields(NamedTuple):
    eval_set: EvaluationSet
    k: int
    exps: ExponentSets
    matrix_c: tuple[tuple[int, ...], ...]
    matrix_d: tuple[tuple[int, ...], ...]
    seed: int = 1


class CodeInstance(_CodeInstanceFields):
    """An [n, k] evaluation code C with its dual D = C-perp inside it; rows hold int encodings."""

    @property
    def n(self) -> int:
        return self.eval_set.n

    @property
    def r(self) -> int:
        return self.eval_set.r

    @property
    def field(self) -> Field:
        return self.eval_set.field

    @cached_property
    def _structure_results(self) -> tuple[CheckResult, ...]:
        """The CheckResult of every check of _structure_checks, found once:
        the instance is immutable, and build_code, verify_instance,
        css_params, the witness search and the scan all ask for them."""
        return tuple(_check(name, fn) for name, fn in _structure_checks(self))

    @cached_property
    def _premises(self) -> dict[str, str]:
        """Each failing premise of the gate's degree arguments with what is
        wrong, found once from the raw instance.

        The power sums sum_z u_z^2 a_z^e vanish for e <= n - 2 exactly when
        u^2 lies in the kernel of the (n - 1) x n Vandermonde.  On distinct
        points that kernel is spanned by the Lagrange weights w, none zero,
        so the premise holds when u_z^2 / w_z is one value for every z."""
        es, n, pairs, rows = self.eval_set, self.n, self.exps.s_pairs, self.matrix_c
        fld, unmet = es.field, {}
        if len(set(es.points)) != n:
            unmet["distinct"] = "evaluation points repeat"
            unmet["power-sums"] = "power sums not certified: evaluation points repeat"
        else:
            w = _lagrange_denominators(fld, es.points)
            if len({fld.mul(fld.mul(x, x), fld.inv(wz)) for x, wz in zip(es.u, w)}) > 1:
                unmet["power-sums"] = "weighted power sums do not vanish up to degree n - 2"
        if 0 in es.u:
            unmet["nonzero"] = "a multiplier is zero"
        if not es.good.g:
            unmet["g"] = "g is zero"
        have = {(0, 0), *pairs}  # _s_rows builds (i, j) from (i - 1, j) or (0, j - 1)
        built = all(((i - 1, j) if i else (0, j - 1)) in have for i, j in have - {(0, 0)})
        if len(rows) != len(pairs) or not built:
            unmet["rows"] = f"s1 + s2 are not {len(rows)} pairs each with (i - 1, j) or (0, j - 1)"
        else:
            by_pair = _s_rows(es, self.exps)
            bad = next((p for p, row in zip(pairs, rows) if by_pair[p] != row), None)
            if bad is not None:
                unmet["rows"] = f"S row {bad} does not match its evaluation"
        return unmet

    @cached_property
    def _encoder(self):
        """Message encodings -> codeword encodings, the Field.combiner of
        the generator rows, built by encode on its first call.  Raises
        LengthMismatch naming the first row whose length is not n."""
        n = self.n
        bad = next((i for i, row in enumerate(self.matrix_c) if len(row) != n), None)
        if bad is not None:
            length = len(self.matrix_c[bad])
            raise LengthMismatch(f"generator_c row {bad} has length {length} != n = {n}")
        return self.field.combiner(self.matrix_c, n)

    @cached_property
    def _repair_weights(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Position z -> (its block mates i in block order, -u_i * u_z^-1 for
        each), in one pass over the blocks; the first block listing z decides.

        u * 1_B, u on a block B and 0 elsewhere, is a parity check: g is
        constant on each block and takes one value per block (_fibre_problem,
        quotient-ring-closure), so 1_B = P(g) on the points for some P of
        degree below b, the number of blocks, and u * 1_B is a combination of
        the s2 rows u * g^j of T, which spans D = C-perp (generator-ranks,
        dual-containment).  So sum_{i in B} u_i y_i = 0 on every codeword y;
        no point is read.  A zero u_z gives zero weights, and a block naming
        a position outside range(n) covers none: damage stays in its block."""
        fld, u, table = self.field, self.eval_set.u, {}
        for blk in self.eval_set.blocks:
            if not all(0 <= i < len(u) for i in blk):
                continue
            for z in blk:
                if z not in table:
                    scale = fld.neg(fld.inv(u[z])) if u[z] else 0
                    mates = tuple(i for i in blk if i != z)
                    table[z] = mates, tuple(fld.mul(scale, u[i]) for i in mates)
        return table

    @property
    def kappa(self) -> int:
        return 2 * self.k - self.n

    @property
    def ell(self) -> int | None:
        return self.exps.ell

    @property
    def ell_prime(self) -> int | None:
        return self.exps.ell_prime

    def summary(self) -> str:
        tag = " (extended field)" if self.eval_set.extended else ""
        return (
            f"[{self.n},{self.k}]_{self.field.q} locality {self.r}, "
            f"dual-containing: OK, qLRC [[{self.n},{self.kappa}]]_{self.field.q}{tag}"
        )


def g_powers(g: Polynomial, top: int) -> list[Polynomial]:
    """[g^0, g^1, ..., g^top], each one multiplication from the last."""
    out = [Polynomial.one(g.field)]
    for _ in range(top):
        out.append(out[-1] * g)
    return out


def _s_rows(es: EvaluationSet, exps: ExponentSets) -> dict[tuple[int, int], tuple]:
    """The evaluated row u_z * a_z^i * g(a_z)^j of every S exponent pair
    (i, j); T rows are among them.

    Rows are pointwise products: row(i, j) is row(i - 1, j) times a_z, or
    row(0, j - 1) times g(a_z), starting from row(0, 0) = u.  g is evaluated
    once per point, in EvaluationSet._g_values, and every other entry costs
    one multiplication.  Pairs are walked in (j, i) order, and exponent_sets
    lists the pair each one is built from.

    A row's products are taken in the log domain, exp[log[y] + log[a]], as
    C-level maps over the logs of the points or of the g values, read once:
    no Python call per entry.  Zeros need no branch.  log[0] = 2(q - 1),
    and a nonzero log is below q - 1, so a sum with a zero factor lies in
    [2(q - 1), 4(q - 1)], where exp holds zeros, and every other sum lies
    below 2(q - 1), where exp holds the powers twice over.
    """
    exp, log, add = es.field._exp, es.field._log, operator.add
    logs_x, logs_g = (list(map(log.__getitem__, vs)) for vs in (es.points, es._g_values))
    rows: dict[tuple[int, int], tuple] = {(0, 0): es.u}
    for i, j in sorted(exps.s_pairs, key=lambda p: p[::-1]):
        if i:
            prev, logs = rows[i - 1, j], logs_x
        elif j:
            prev, logs = rows[0, j - 1], logs_g
        else:
            continue
        rows[i, j] = tuple(map(exp.__getitem__, map(add, map(log.__getitem__, prev), logs)))
    return rows


def dual_positions(inst: CodeInstance) -> frozenset[int]:
    """Positions of D's rows inside matrix_c, once the instance is certified.

    Raises VerificationError on the first problem structure_problem finds.
    When none is found, generator-ranks and dual-containment make D = C-perp
    the span of rows of the full-rank G_C, so m . G_C lies in D exactly when
    m is zero at every position outside the returned set.
    """
    problem = structure_problem(inst)
    if problem:
        raise VerificationError(problem)
    index = {row: i for i, row in enumerate(inst.matrix_c)}
    return frozenset(index[row] for row in inst.matrix_d)


def build_code(es: EvaluationSet, k: int, seed: int = 1) -> CodeInstance:
    """Generator matrices for the S and T spans, certified by the checks of
    _structure_checks, which run here once for the instance.

    Raises ConstructionError "<check-name>: <detail>" on the first check
    that fails; no valid spec reaches one, so it marks an upstream bug, not
    bad input.
    """
    exps = exponent_sets(es.n, k, es.r)
    by_pair = _s_rows(es, exps)
    inst = CodeInstance(
        eval_set=es,
        k=k,
        exps=exps,
        matrix_c=tuple(by_pair[p] for p in exps.s_pairs),
        matrix_d=tuple(by_pair[p] for p in exps.t_pairs),
        seed=seed,
    )
    problem = structure_problem(inst)
    if problem:
        raise ConstructionError(problem)
    return inst


def encode(inst: CodeInstance, message) -> list[FieldElement]:
    """message . G_C, message coordinates matching S rows in degree order.

    message holds elements or int encodings, coerced as Field.ints does.
    The rows are combined by the instance's Field.combiner, built on the
    first encode: XORs of bit-packed rows in characteristic 2, read from
    product tables when m <= 8; for odd p, sums of byte-digit product
    tables in fields of at most 256 elements (GF(243) and p >= 131 aside)
    and axpy passes elsewhere.  The word comes
    from Field.from_ints.  Raises LengthMismatch when the message length is
    not k or a generator row's length is not n, before any arithmetic.
    """
    if len(message) != inst.k:
        raise LengthMismatch(f"message length {len(message)} != k = {inst.k}")
    fld = inst.field
    return fld.from_ints(inst._encoder(fld.ints(message)))


def repair(inst: CodeInstance, received, z: int) -> FieldElement:
    """Recover the erased coordinate z from the r survivors in its block, by
    the weights of CodeInstance._repair_weights: one lookup, r reads and one
    Field.dot.  The caller guarantees the rest of the word is intact.  Raises
    LengthMismatch, before any read, when the word does not hold n symbols."""
    if len(received) != inst.n:
        raise LengthMismatch(f"received word length {len(received)} != n = {inst.n}")
    if not 0 <= z < inst.n:
        raise InputError(f"position {z} out of range")
    if received[z] is not None:
        raise InputError(f"position {z} holds a symbol; nothing to repair")
    entry = inst._repair_weights.get(z)
    if entry is None:
        raise InputError(f"position {z} is not covered by any block")
    mates, weights = entry
    if not mates:
        raise BlockIncomplete(f"position {z} has no block mates")
    syms = []
    for i in mates:
        sym = received[i]
        if sym is None:
            raise BlockIncomplete(f"position {i} in the repair block is also missing")
        syms.append(sym)
    fld = inst.field
    return fld.from_int(fld.dot(weights, fld.ints(syms)))


# ---------------------------------------------------------------------------
# spec parsing, dumps, verification


def instance_from_spec(spec: dict) -> CodeInstance:
    """Build a CodeInstance from a plain-dict instance description.

    The spec is read by the rules of instance_from_dump: every number by
    json_int and every element by json_element.  alpha is "auto" or an
    element; evaluation_domain is a name or a list of elements.
    """
    try:
        fld = field_from_descriptor(spec["field"])
        element = json_element(fld)
        n, r, k = (json_int(spec[key]) for key in ("n", "r", "k"))
        seed = json_int(spec.get("seed", 1))
        sub_desc = spec["subgroup"]
        alpha = spec.get("alpha", "auto")
        if alpha != "auto":
            alpha = element(alpha)
        domain = spec.get("evaluation_domain", "full_field")
        if domain.__class__ is not str:
            domain = list(map(element, domain))
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed instance spec: {e!r}") from None
    subgroup = subgroup_from_descriptor(fld, sub_desc)
    if len(subgroup) != r + 1:
        raise InputError(f"subgroup order {len(subgroup)} does not match r + 1 = {r + 1}")
    # every domain of build_evaluation_set enforces n
    return build_code(build_evaluation_set(subgroup, alpha=alpha, domain=domain, n=n), k, seed=seed)


def instance_to_dump(inst: CodeInstance) -> dict:
    es = inst.eval_set
    p, m = es.field.p, es.field.m
    known: dict[int, list[int]] = {}  # each distinct value's digits, formed once

    def digits(x: int) -> list[int]:
        if x not in known:
            known[x] = _digits(x, p, m)
        return known[x][:]  # a fresh list per entry: callers edit dumps in place

    return {
        "field": es.field.descriptor(),
        "base_field": es.base_field.descriptor(),
        "extended": es.extended,
        "n": inst.n,
        "k": inst.k,
        "r": inst.r,
        "seed": inst.seed,
        "points": [digits(x) for x in es.points],
        "blocks": [list(b) for b in es.blocks],
        "u": [digits(x) for x in es.u],
        "g": es.good.g.to_lists(),
        "alpha": digits(es.good.base_point),
        "subgroup": es.good.subgroup.descriptor(),
        "s1": [list(p) for p in inst.exps.s1],
        "s2": [list(p) for p in inst.exps.s2],
        "t1": [list(p) for p in inst.exps.t1],
        "ell": inst.exps.ell,
        "ell_prime": inst.exps.ell_prime,
        "generator_c": [[digits(c) for c in row] for row in inst.matrix_c],
        "generator_d": [[digits(c) for c in row] for row in inst.matrix_d],
    }


def instance_from_dump(d: dict) -> CodeInstance:
    """Rebuild an instance from its dump with shape checks only.

    Every field element goes through json_element, every index, exponent
    and count through json_int, and extended must be a JSON bool.  Semantic
    integrity is deliberately not re-derived here; that is what
    verify_instance is for, so that a tampered dump loads and then fails
    the right check.
    """
    try:
        fld = field_from_descriptor(d["field"])
        base = field_from_descriptor(d["base_field"])
        element = json_element(fld)
        points = tuple(map(element, d["points"]))
        blocks = tuple(tuple(map(json_int, b)) for b in d["blocks"])
        u = tuple(map(element, d["u"]))
        g = Polynomial._from_ints(fld, list(map(element, d["g"])))
        subgroup = subgroup_from_descriptor(fld, d["subgroup"])
        alpha = element(d["alpha"]) if d["alpha"] is not None else None
        pairs = {
            key: tuple((json_int(i), json_int(j)) for i, j in d[key])
            for key in ("s1", "s2", "t1")
        }
        n, k, r, ell = (json_int(d[key]) for key in ("n", "k", "r", "ell"))
        ell_prime = None if d["ell_prime"] is None else json_int(d["ell_prime"])
        exps = ExponentSets(n, k, r, **pairs, ell=ell, ell_prime=ell_prime)
        mc = tuple(tuple(map(element, row)) for row in d["generator_c"])
        md = tuple(tuple(map(element, row)) for row in d["generator_d"])
        seed = json_int(d.get("seed", 1))
        extended = d["extended"]
        if extended.__class__ is not bool:
            raise InputError(f"extended {extended!r} is not a JSON bool")
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed instance dump: {e}") from None
    if not blocks or not all(blocks):
        raise InputError("dump has no blocks or an empty block")
    if len(points) != n or len(u) != n:
        raise InputError("dump lengths are inconsistent with n")
    es = EvaluationSet(
        field=fld,
        points=points,
        blocks=blocks,
        u=u,
        good=GoodPolynomial(g, subgroup, alpha),
        extended=extended,
        base_field=base,
    )
    return CodeInstance(eval_set=es, k=k, exps=exps, matrix_c=mc, matrix_d=md, seed=seed)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, fn) -> CheckResult:
    try:
        problem = fn()
    except Exception as e:  # noqa: BLE001 - verification must report, not crash
        return CheckResult(name, False, f"{type(e).__name__}: {e}")
    if problem:
        return CheckResult(name, False, problem)
    return CheckResult(name, True)


def _structure_checks(inst: CodeInstance) -> list:
    """(name, check) for verify_instance's checks but local-repair, in order,
    for verify_instance and structure_problem; a check returns its problem."""
    es, exps, fld, n, k = inst.eval_set, inst.exps, inst.field, inst.n, inst.k

    def unmet(*names):  # what is wrong with the first named premise that fails
        return next(filter(None, map(inst._premises.get, names)), None)

    def chk_power_sums():
        # the multiplier solve decides the extension, so the flag is checked here
        problem = unmet("power-sums", "nonzero")
        if problem:
            return problem
        if es.extended != (fld != es.base_field):
            return f"extended is {es.extended} but field and base_field disagree with that"
        if es.extended:
            big, emb = es.base_field.extend()
            if fld != big:
                return "field is not the quadratic extension of base_field"
            if not set(es.points) <= {emb(x) for x in range(es.base_field.q)}:
                return "a point lies outside the embedded base field"
        return None

    def chk_ranks():
        """G_C is k rows of rank k; G_D is n - k distinct rows of G_C.  Row
        (i, j) of G_C is u * x^i g^j on the points: k distinct degrees
        i + j*deg g below n make the monomials, their values at n distinct
        points and, with no u_z zero, the rows independent."""
        if len(inst.matrix_c) != k or any(len(row) != n for row in inst.matrix_c):
            return f"big generator is not {k} rows of length {n}"
        rows_d = set(inst.matrix_d)
        if not len(inst.matrix_d) == len(rows_d) == n - k or not rows_d <= set(inst.matrix_c):
            return f"dual generator is not {n - k} distinct rows of the big generator"
        problem, d = unmet("distinct", "nonzero", "g", "rows"), es.good.g.degree
        if not problem and len({i + j * d for i, j in exps.s_pairs if i + j * d < n}) != k:
            problem = f"the degrees i + {d}j are not {k} distinct values below {n}"
        return problem and f"rank {k} not certified: {problem}"

    def chk_containment():
        """G_D * G_C^T = 0, so D = C-perp with chk_ranks.  A D row takes the
        pair of the C row it equals; C row (i1, j1) times D row (i2, j2) is
        u^2 * x^I g^J on the points, I = i1 + i2, J = j1 + j2.  g takes v
        values there, so x^I g^J agrees with a polynomial of degree at most
        I + min(J, v - 1)*deg g, and the power sums vanish up to n - 2.  That
        degree grows with i1 and i2, so it is tested at the largest i per j
        on each side, and the pairs are walked only to name a failing one."""
        problem = unmet("power-sums", "g", "rows")
        if problem:
            return f"D inside C-perp not certified: {problem}"
        d, v = es.good.g.degree, len(set(es._g_values))
        pair_of = dict(zip(inst.matrix_c, exps.s_pairs))
        if not set(inst.matrix_d) <= pair_of.keys():
            return "D inside C-perp not certified: a dual row is not a row of the big generator"
        d_pairs = [pair_of[row] for row in inst.matrix_d]
        # the largest i of each j on each side: the last of its j in (j, i) order
        c_top, d_top = (dict(sorted((j, i) for i, j in ps)) for ps in (exps.s_pairs, d_pairs))
        maxima = itertools.product(c_top.items(), d_top.items())
        if all(i1 + i2 + min(j1 + j2, v - 1) * d <= n - 2 for (j1, i1), (j2, i2) in maxima):
            return None
        for (i1, j1), (i2, j2) in itertools.product(exps.s_pairs, d_pairs):
            top = i1 + i2 + min(j1 + j2, v - 1) * d
            if top > n - 2:
                return f"D inside C-perp not certified: x^{i1 + i2} g^{j1 + j2} has degree {top}"
        return None

    def chk_rows_match():
        want = exponent_sets(n, inst.k, inst.r)  # r as the blocks say
        wrong = [name for name in exps._fields if getattr(exps, name) != getattr(want, name)]
        if wrong:
            return f"stored {', '.join(wrong)} disagree with exponent_sets({n}, {inst.k}, {inst.r})"
        problem = unmet("rows")
        if problem or len(inst.matrix_d) != len(exps.t_pairs):
            return problem or "generator row counts do not match the exponent lists"
        by_pair = dict(zip(exps.s_pairs, inst.matrix_c))  # each row its evaluation
        for pair, row in zip(exps.t_pairs, inst.matrix_d):
            if by_pair[pair] != row:
                return f"T row {pair} does not match its evaluation"
        return None

    def chk_ring():
        """g^0 .. g^(u-1) span a subring of F[x]/(h), h = prod (x - a) over the
        points, u the block count: exactly when the points are distinct and
        u = 1 or g takes u values on them.  F[x]/(h) is then the ring of
        functions on the points and g^i is a -> g(a)^i; on v values of g the
        powers span dimension min(u, v) (Vandermonde): v < u is dependent,
        v = u is every function of g(a), a ring, and v > u leaves g^u out.
        u = 1 spans the constants.  Block constancy forces v = u: blocks
        sharing a value c would give g - c twice deg g roots."""
        values = len(set(es._g_values))
        if len(es.blocks) != 1 and values != len(es.blocks):
            return f"g takes {values} values on the points, not one per block ({len(es.blocks)})"
        return unmet("distinct")

    return [
        ("multiplier-power-sums", chk_power_sums),
        ("generator-ranks", chk_ranks),
        ("dual-containment", chk_containment),
        ("block-polynomial-constancy", lambda: _fibre_problem(es) or _orbit_problem(es)),
        ("generator-row-consistency", chk_rows_match),
        ("quotient-ring-closure", chk_ring),
    ]


def structure_problem(inst: CodeInstance) -> str | None:
    """"<check-name>: <detail>" for the first check of _structure_checks that
    fails, or None.  The gate in front of every certified number: bounds
    accepts an instance exactly when verify's deterministic checks do."""
    failed = next((c for c in inst._structure_results if not c.ok), None)
    return failed and f"{failed.name}: {failed.detail}"


def verify_instance(inst: CodeInstance, trials: int = 100, seed: int | None = None):
    """Re-derive every structural property of a (possibly reloaded) instance.

    Returns a list of CheckResult in a fixed order, _structure_checks then
    local-repair; each check re-computes its property, or the premises it
    rests on, from the raw instance data, and a FAIL of generator-ranks or
    dual-containment may mean "not certified".  The deterministic results
    are cached on the instance; local-repair runs on every call.  Raises
    InputError when trials < 1, since local-repair would then pass on none.
    """
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    fld, n, k = inst.field, inst.n, inst.k
    rng = Xorshift64Star(inst.seed if seed is None else seed)

    def chk_repair():
        # encode's combination on integer encodings; a ragged generator row
        # raises encode's LengthMismatch here, before any arithmetic
        encoder = inst._encoder
        for _ in range(trials):
            word = encoder([rng.below(fld.q) for _ in range(k)])
            z = rng.below(n)
            received: list = word[:]
            received[z] = None
            if repair(inst, received, z).v != word[z]:
                return f"repair mismatch at position {z}"
        return None

    results = inst._structure_results
    # transcript contract: quotient-ring-closure once drew 45 of its u(u+1)/2
    # product pairs from rng, so local-repair still sees the stream after them
    u_count = len(inst.eval_set.blocks)
    pairs = u_count * (u_count + 1) // 2
    for _ in range(45 if pairs > 45 else 0):
        rng.below(pairs)
    return [*results, _check("local-repair", chk_repair)]
