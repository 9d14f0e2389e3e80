"""Dual-containing evaluation codes with locality from orbit partitions.

The pipeline: pick a subgroup H of affine maps with |H| = r + 1, take an
evaluation set A that is a union of full-size orbits (blocks), solve for a
multiplier vector u with sum_i u_i^2 * a_i^j = 0 for all j <= n - 2, and
evaluate two nested spans of monomials x^i * g(x)^j through the weighted
evaluation map f -> (u_1 f(a_1), ..., u_n f(a_n)).  The inner span T is
orthogonal to the outer span S under the weighting, which makes the big
code contain its own dual; the block structure of g gives every coordinate
a repair group of size r.  blocks_problem decides that structure for the
build; structure_problem runs every deterministic check of verify_instance,
and bounds certifies nothing it rejects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property

from . import linalg
from .agl import (
    AffineMap,
    AglSubgroup,
    GoodPolynomial,
    MBProvenance,
    good_polynomial,
    iter_orbits,
    subgroup_from_descriptor,
)
from .errors import ConstructionError, InputError, VerificationError
from .field import Embedding, Field, FieldElement, field_from_descriptor
# annihilator and interpolate are unused here, but perfbench/spans.py wraps
# qlrc.construct.annihilator and qlrc.construct.interpolate
from .poly import Polynomial, annihilator, interpolate, poly_from_lists  # noqa: F401
from .rng import Xorshift64Star


class DegenerateSet(InputError):
    """Evaluation points must be pairwise distinct."""


class BadDimension(InputError):
    """k is outside the window n/2 < k <= n*r/(r+1)."""


class LocalityTooSmall(InputError):
    """Locality r must be at least 2."""


class RankDeficient(ConstructionError):
    """A generator matrix came out with too small a rank."""


class OrthogonalityFailure(ConstructionError):
    """Two rows that must be orthogonal are not."""


class LengthMismatch(InputError):
    """Message length does not match the code dimension."""


class BlockIncomplete(InputError):
    """A repair block is missing a second symbol."""


# ---------------------------------------------------------------------------
# multipliers


@dataclass(frozen=True)
class MultiplierSolution:
    """Multiplier vector u over `field`, possibly a quadratic extension.

    When `extended` is set the evaluation points were embedded into the
    extension and `embedding` maps the original field into it.
    """

    u: tuple[FieldElement, ...]
    field: Field
    points: tuple[FieldElement, ...]
    embedding: Embedding | None
    extended: bool


def _power_sum_check(u, points, upto: int) -> bool:
    """sum_i u_i^2 * x_i^j == 0 for 0 <= j <= upto, by direct summation."""
    field = points[0].field
    xs = field.ints(points)
    w = [field.mul(ui, ui) for ui in field.ints(u)]
    pw = [1] * len(xs)
    for _ in range(upto + 1):
        if field.dot(w, pw):
            return False
        pw = [field.mul(p, x) for p, x in zip(pw, xs)]
    return True


def _lagrange_denominators(fld: Field, xs: list[int]) -> list[int]:
    """prod_{j != i} (x_i - x_j)^-1 for every node x_i, on integer encodings.

    These are the Lagrange denominators over the nodes: solve_multipliers
    takes square roots of them over all points, and the repair weights use
    them over a block's survivors.  Raises DegenerateSet when nodes repeat.
    """
    if len(set(xs)) != len(xs):
        raise DegenerateSet("evaluation points repeat")
    mul, sub = fld.mul, fld.sub
    out = []
    for i, xi in enumerate(xs):
        prod = 1
        for j, xj in enumerate(xs):
            if j != i:
                prod = mul(prod, sub(xi, xj))
        out.append(fld.inv(prod))
    return out


def solve_multipliers(points) -> MultiplierSolution:
    """A nowhere-zero u with sum u_i^2 * a_i^j = 0 for all j <= n - 2.

    The square vector is forced up to scaling: u_i^2 must be proportional to
    v_i = prod_{j != i} (a_i - a_j)^{-1}.  In characteristic 2 every element
    is a square.  For odd q the v_i are scaled by the canonically smallest
    non-residue when they are uniformly non-square; when their residue
    classes are mixed no scaling works over GF(q) and everything moves to
    GF(q^2), where every base-field element is a square.
    """
    points = list(points)
    if len(points) < 2:
        raise InputError("need at least two evaluation points")
    fld = points[0].field
    points = [fld.element(x) for x in points]
    v = fld.from_ints(_lagrange_denominators(fld, fld.ints(points)))

    embedding = None
    out_field = fld
    out_points = points
    if fld.p == 2:
        u = [fld.sqrt(vi) for vi in v]
    else:
        flags = [fld.is_quadratic_residue(vi) for vi in v]
        if all(flags):
            u = [fld.sqrt(vi) for vi in v]
        elif not any(flags):
            c = next(
                x for x in fld.elements() if not x.is_zero() and not fld.is_quadratic_residue(x)
            )
            u = [fld.sqrt(c * vi) for vi in v]
        else:
            out_field, embedding = fld.extend()
            out_points = [embedding(x) for x in points]
            u = [out_field.sqrt(embedding(vi)) for vi in v]

    if any(ui is None or ui.is_zero() for ui in u):
        raise ConstructionError("multiplier solve produced a zero entry")
    if not _power_sum_check(u, out_points, len(points) - 2):
        raise ConstructionError("multiplier power-sum identity failed")
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
    pairs: list[tuple[int, int]] = []
    j = 0
    while len(pairs) < count:
        for i in range(1, r):
            pairs.append((i, j))
            if len(pairs) == count:
                break
        j += 1
    return pairs


def _largest_degree_closed_form(count: int, r: int) -> int | None:
    if count == 0:
        return None
    full, rem = divmod(count, r - 1)
    if rem == 0:
        return (r + 1) * full - 2
    return (r + 1) * full + rem


@dataclass(frozen=True)
class ExponentSets:
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


def exponent_sets(n: int, k: int, r: int) -> ExponentSets:
    """Exponent sets for an [n, k] code with locality r.

    Requires (r+1) | n and n/2 < k <= n*r/(r+1).
    """
    if r < 2:
        raise LocalityTooSmall(f"locality {r} < 2")
    if n <= 0 or n % (r + 1) != 0:
        raise BadDimension(f"block size {r + 1} does not divide n = {n}")
    u_count = n // (r + 1)
    if not (2 * k > n and k * (r + 1) <= n * r):
        raise BadDimension(f"k = {k} outside (n/2, n*r/(r+1)] for n = {n}, r = {r}")

    s1 = _smallest_pairs(k - u_count, r)
    ell = max(i + j * (r + 1) for i, j in s1)
    if ell != _largest_degree_closed_form(k - u_count, r):
        raise ConstructionError("largest-degree closed form disagrees with enumeration")

    t_count = n - k - u_count
    t1 = s1[:t_count]
    if t_count:
        ell_prime = max(i + j * (r + 1) for i, j in t1)
    else:
        ell_prime = None
    if ell_prime != _largest_degree_closed_form(t_count, r):
        raise ConstructionError("largest-degree closed form disagrees with enumeration")
    if ell_prime is not None and ell + ell_prime > n - 2:
        raise ConstructionError("degree budget ell + ell' exceeded n - 2")

    s2 = tuple((0, j) for j in range(u_count))
    return ExponentSets(n, k, r, tuple(s1), s2, tuple(t1), ell, ell_prime)


# ---------------------------------------------------------------------------
# evaluation sets


@dataclass(frozen=True)
class EvaluationSet:
    """Ordered evaluation points, their block partition, and multipliers.

    Points are in canonical ascending order of the base field (inherited
    through the embedding when the instance was extended); blocks are index
    tuples into `points`, each a full-size orbit of the subgroup behind
    `good`.
    """

    field: Field
    points: tuple[FieldElement, ...]
    blocks: tuple[tuple[int, ...], ...]
    u: tuple[FieldElement, ...]
    good: GoodPolynomial
    extended: bool
    base_field: Field

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def r(self) -> int:
        return len(self.blocks[0]) - 1

    @cached_property
    def _block_table(self) -> dict[int, tuple[int, ...]]:
        """Position -> the first block that lists it."""
        table: dict[int, tuple[int, ...]] = {}
        for blk in self.blocks:
            for i in blk:
                table.setdefault(i, blk)
        return table

    def block_of(self, z: int) -> tuple[int, ...]:
        blk = self._block_table.get(z)
        if blk is None:
            raise InputError(f"position {z} is not covered by any block")
        return blk


def _resolve_alpha(subgroup: AglSubgroup, alpha):
    if alpha == "auto":
        order = len(subgroup)
        for x in subgroup.field.elements():
            if len(subgroup.orbit(x)) == order:
                return x
        raise InputError("subgroup has no full-size orbit at all")
    return subgroup.field.element(alpha)


def _embed_subgroup(subgroup: AglSubgroup, emb: Embedding, big: Field) -> AglSubgroup:
    prov = subgroup.provenance
    big_prov = None
    if prov is not None:
        big_prov = MBProvenance(
            subfield_degree=prov.subfield_degree,
            M=tuple(emb(a) for a in prov.M),
            B=tuple(emb(b) for b in prov.B),
        )
    maps = [AffineMap(emb(f.a), emb(f.b)) for f in subgroup]
    return AglSubgroup(big, maps, provenance=big_prov)


def build_evaluation_set(
    subgroup: AglSubgroup,
    alpha="auto",
    domain="full_field",
    n: int | None = None,
) -> EvaluationSet:
    """Pick blocks from the subgroup's full-size orbits and solve multipliers.

    domain selects the evaluation points: "full_field" uses every field
    element (all orbits must then have full size), "orbits" takes the first
    n/(r+1) full-size orbits in canonical order (all when n is None) and
    stops there, and an explicit element list, enumerated over its own
    elements only, must be exactly a union of full-size orbits.

    When the multiplier solve has to move to GF(q^2), every ingredient
    (points, blocks, g, subgroup) is embedded and the returned set lives in
    the extension with `extended` set.  blocks_problem runs on the returned
    set either way; a problem raises ConstructionError.
    """
    fld = subgroup.field
    if len(subgroup) < 3:
        raise LocalityTooSmall(f"subgroup order {len(subgroup)} gives locality < 2")
    good = good_polynomial(subgroup, _resolve_alpha(subgroup, alpha))
    size = len(subgroup)

    if isinstance(domain, str) and domain == "full_field":
        if n is not None and n != fld.q:
            raise InputError(f"full_field implies n = {fld.q}, got {n}")
        chosen = list(iter_orbits(subgroup))
        if any(len(orb) != size for orb in chosen):
            raise InputError("full-size orbits do not cover the field; use domain='orbits'")
    elif isinstance(domain, str) and domain == "orbits":
        if n is not None and n % size != 0:
            raise BadDimension(f"n = {n} is not a multiple of the block size {size}")
        full = (orb for orb in iter_orbits(subgroup) if len(orb) == size)
        chosen = list(full if n is None else itertools.islice(full, max(n // size, 0)))
        want = len(chosen) if n is None else n // size
        if want < 1 or len(chosen) < want:
            total = len(chosen) + sum(1 for _ in full)
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

    points = sorted((x for b in chosen for x in b), key=lambda e: e.value())
    index = {x.v: i for i, x in enumerate(points)}
    # orbits come sorted inside and listed by smallest member, and so do the blocks
    blocks = tuple(tuple(index[x.v] for x in b) for b in chosen)

    sol = solve_multipliers(points)
    if sol.extended:
        emb, big = sol.embedding, sol.field
        good = GoodPolynomial(
            Polynomial(big, [emb(c) for c in fld.from_ints(good.g.coeffs)]),
            _embed_subgroup(good.subgroup, emb, big),
            emb(good.base_point),
        )
    es = EvaluationSet(
        field=sol.field,
        points=sol.points,
        blocks=blocks,
        u=sol.u,
        good=good,
        extended=sol.extended,
        base_field=fld,
    )
    problem = blocks_problem(es)
    if problem:
        raise ConstructionError(problem)
    return es


def blocks_problem(es: EvaluationSet) -> str | None:
    """The block structure that locality rests on, or what is wrong with it.

    g has degree r + 1; the blocks partition range(n) into blocks of size
    r + 1; the subgroup H has order r + 1; and every block is a free orbit
    of H on which g is constant.  Last, alpha has a free orbit and g is its
    monic annihilator, which is what good_polynomial builds from alpha.
    Everything is recomputed from the points, blocks, g, H and alpha of the
    set, so a reloaded dump is checked as built.
    """
    n, r = es.n, es.r
    g = es.good.g
    if g.degree != r + 1:
        return f"block polynomial degree {g.degree} != {r + 1}"
    if sorted(i for blk in es.blocks for i in blk) != list(range(n)) or any(
        len(blk) != r + 1 for blk in es.blocks
    ):
        return f"blocks do not partition the {n} positions into blocks of size {r + 1}"
    sub = es.good.subgroup
    if len(sub) != r + 1:
        return f"subgroup order {len(sub)} != block size {r + 1}"
    for blk in es.blocks:
        orbit = sub.orbit(es.points[blk[0]])
        if [x.v for x in orbit] != sorted(es.points[i].v for i in blk):
            return f"block {blk} is not a free orbit of the subgroup"
        if len({g(es.points[i]) for i in blk}) != 1:
            return f"block {blk} sees several values of g"
    alpha = es.good.base_point
    orbit = sub.orbit(alpha) if alpha is not None else []
    if len(orbit) != r + 1:
        return f"alpha {alpha!r} does not have a free orbit"
    if g.coeffs[-1] != 1 or any(g(x) for x in orbit):
        return f"g is not the monic annihilator of the orbit of alpha {alpha!r}"
    return None


# ---------------------------------------------------------------------------
# the code itself


@dataclass(frozen=True)
class CodeInstance:
    """An [n, k] evaluation code C with its dual D = C-perp inside it."""

    eval_set: EvaluationSet
    k: int
    exps: ExponentSets
    matrix_c: tuple[tuple[FieldElement, ...], ...]
    matrix_d: tuple[tuple[FieldElement, ...], ...]
    seed: int = 1

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
    def _rows_c_ints(self) -> tuple[list[int], ...]:
        """The rows of matrix_c as integer encodings, for encode."""
        return tuple(self.field.ints(row) for row in self.matrix_c)

    @cached_property
    def _structure_problem(self) -> str | None:
        """structure_problem's answer, found once: the instance is immutable,
        and css_params, the witness search and the scan all ask for it."""
        for name, fn in _structure_checks(self):
            result = _check(name, fn)
            if not result.ok:
                return f"{name}: {result.detail}"
        return None

    @cached_property
    def _repair_coeffs(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Erased position -> (its block mates, their repair weights), filled
        by repair on each position's first repair."""
        return {}

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


def _monomial_row(es: EvaluationSet, gpow: Polynomial, i: int):
    """u_z * x^i * gpow(x) at every point z, by integer Horner."""
    f = es.field
    coeffs = [0] * i + list(gpow.coeffs)
    vals = [f.mul(u, f.horner(coeffs, x)) for u, x in zip(f.ints(es.u), f.ints(es.points))]
    return tuple(f.from_ints(vals))


def g_powers(g: Polynomial, top: int) -> list[Polynomial]:
    """[g^0, g^1, ..., g^top], each one multiplication from the last."""
    out = [Polynomial.one(g.field)]
    for _ in range(top):
        out.append(out[-1] * g)
    return out


def _s_rows(es: EvaluationSet, exps: ExponentSets) -> dict[tuple[int, int], tuple]:
    """The evaluated row of every S exponent pair; T rows are among them."""
    gpows = g_powers(es.good.g, max(j for _, j in exps.s_pairs))
    return {(i, j): _monomial_row(es, gpows[j], i) for i, j in exps.s_pairs}


def _generator_problem(matrix_c, matrix_d, k: int, n: int) -> str | None:
    """G_C is k independent rows of length n; G_D is n - k distinct rows of G_C.

    Distinct rows of a full-rank G_C are independent, so this gives
    rank(G_D) = n - k and D inside C with a single elimination.
    """
    if len(matrix_c) != k or any(len(row) != n for row in matrix_c):
        return f"big generator is not {k} rows of length {n}"
    if linalg.rank([list(row) for row in matrix_c]) != k:
        return f"big generator rank != {k}"
    rows_d = {tuple(row) for row in matrix_d}
    if len(matrix_d) != n - k or len(rows_d) != n - k:
        return f"dual generator is not {n - k} distinct rows"
    if not rows_d <= {tuple(row) for row in matrix_c}:
        return "a dual generator row is not a row of the big generator"
    return None


def _orthogonality_problem(matrix_c, matrix_d) -> str | None:
    """G_D * G_C^T = 0.  With _generator_problem clean this gives D = C-perp."""
    fld = next((x.field for row in (*matrix_c, *matrix_d) for x in row), None)
    if fld is None:
        return None
    rows_c = [fld.ints(row) for row in matrix_c]
    for j, rd in enumerate(matrix_d):
        rd = fld.ints(rd)
        for i, rc in enumerate(rows_c):
            if len(rd) != len(rc) or fld.dot(rd, rc):
                return f"dual row {j} is not orthogonal to big row {i}"
    return None


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
    index = {tuple(row): i for i, row in enumerate(inst.matrix_c)}
    return frozenset(index[tuple(row)] for row in inst.matrix_d)


def build_code(es: EvaluationSet, k: int, seed: int = 1) -> CodeInstance:
    """Generator matrices for S and T spans, with all structure checks on.

    Raises RankDeficient / OrthogonalityFailure when the evaluation rows do
    not behave; with a correctly solved multiplier vector these indicate an
    upstream bug, not bad input, hence construction errors.
    """
    exps = exponent_sets(es.n, k, es.r)
    by_pair = _s_rows(es, exps)
    rows_s = tuple(by_pair[p] for p in exps.s_pairs)
    rows_t = tuple(by_pair[p] for p in exps.t_pairs)

    problem = _generator_problem(rows_s, rows_t, k, es.n)
    if problem:
        raise RankDeficient(problem)
    problem = _orthogonality_problem(rows_s, rows_t)
    if problem:
        raise OrthogonalityFailure(problem)

    return CodeInstance(
        eval_set=es,
        k=k,
        exps=exps,
        matrix_c=rows_s,
        matrix_d=rows_t,
        seed=seed,
    )


def encode(inst: CodeInstance, message) -> list[FieldElement]:
    """message . G_C, message coordinates matching S rows in degree order."""
    if len(message) != inst.k:
        raise LengthMismatch(f"message length {len(message)} != k = {inst.k}")
    fld = inst.field
    out = [0] * inst.n
    for m, row in zip(fld.ints(message), inst._rows_c_ints):
        if m:
            out = fld.axpy(out, m, row)
    return fld.from_ints(out)


def _repair_coefficients(es: EvaluationSet, z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """z's block mates S and the weights that repair z from them.

    c_i = u_z * u_i^-1 * prod_{j in S - i} (a_z - a_j) / (a_i - a_j), the
    Lagrange coefficient of node a_i at a_z, scaled by the multipliers.
    Raises ZeroInverse on a zero multiplier in S and DegenerateSet when S
    repeats a point, so only the positions whose mates are damaged fail.
    """
    fld = es.field
    mates = tuple(i for i in es.block_of(z) if i != z)
    if not mates:
        raise BlockIncomplete(f"position {z} has no block mates")
    u_inv = [fld.inv(ui) for ui in fld.ints(es.u[i] for i in mates)]
    xs = fld.ints(es.points[i] for i in mates)
    xz, uz = fld.ints((es.points[z], es.u[z]))
    diffs = [fld.sub(xz, x) for x in xs]
    coeffs = []
    for i, (w, ui) in enumerate(zip(_lagrange_denominators(fld, xs), u_inv)):
        c = fld.mul(fld.mul(uz, ui), w)
        for j, d in enumerate(diffs):
            if j != i:
                c = fld.mul(c, d)
        coeffs.append(c)
    return mates, tuple(coeffs)


def repair(inst: CodeInstance, received, z: int) -> FieldElement:
    """Recover the erased coordinate z from the r survivors in its block.

    Divided by its multipliers, the codeword agrees on a block with a
    polynomial of degree at most r - 1, so the erased symbol is a fixed
    linear combination of the r survivors.  Its coefficients are computed on
    z's first repair and cached on the instance per position; a repair then
    reads exactly the r in-block coordinates and does r multiply-adds.  The
    caller guarantees the rest of the word is intact.
    """
    if not 0 <= z < inst.n:
        raise InputError(f"position {z} out of range")
    if received[z] is not None:
        raise InputError(f"position {z} holds a symbol; nothing to repair")
    cache = inst._repair_coeffs
    if z not in cache:
        cache[z] = _repair_coefficients(inst.eval_set, z)
    mates, coeffs = cache[z]
    syms = []
    for i in mates:
        sym = received[i]
        if sym is None:
            raise BlockIncomplete(f"position {i} in the repair block is also missing")
        syms.append(sym)
    fld = inst.field
    return FieldElement(fld, fld.dot(coeffs, fld.ints(syms)))


# ---------------------------------------------------------------------------
# spec parsing, dumps, verification


def instance_from_spec(spec: dict) -> CodeInstance:
    """Build a CodeInstance from a plain-dict instance description."""
    try:
        fld = field_from_descriptor(spec["field"])
        n, r, k = spec["n"], spec["r"], spec["k"]
        sub_desc = spec["subgroup"]
    except (KeyError, TypeError) as e:
        raise InputError(f"instance spec is missing a field: {e}") from None
    subgroup = subgroup_from_descriptor(fld, sub_desc)
    if len(subgroup) != r + 1:
        raise InputError(f"subgroup order {len(subgroup)} does not match r + 1 = {r + 1}")
    alpha = spec.get("alpha", "auto")
    if isinstance(alpha, list):
        alpha = fld.element(alpha)
    domain = spec.get("evaluation_domain", "full_field")
    if isinstance(domain, list):
        domain = [fld.element(x) for x in domain]
    es = build_evaluation_set(subgroup, alpha=alpha, domain=domain, n=n)
    if es.n != n:
        raise InputError(f"evaluation domain produced n = {es.n}, spec says {n}")
    return build_code(es, k, seed=int(spec.get("seed", 1)))


def instance_to_dump(inst: CodeInstance) -> dict:
    es = inst.eval_set
    return {
        "field": es.field.descriptor(),
        "base_field": es.base_field.descriptor(),
        "extended": es.extended,
        "n": inst.n,
        "k": inst.k,
        "r": inst.r,
        "seed": inst.seed,
        "points": [x.to_list() for x in es.points],
        "blocks": [list(b) for b in es.blocks],
        "u": [x.to_list() for x in es.u],
        "g": es.good.g.to_lists(),
        "alpha": es.good.base_point.to_list(),
        "subgroup": es.good.subgroup.descriptor(),
        "s1": [list(p) for p in inst.exps.s1],
        "s2": [list(p) for p in inst.exps.s2],
        "t1": [list(p) for p in inst.exps.t1],
        "ell": inst.exps.ell,
        "ell_prime": inst.exps.ell_prime,
        "generator_c": [[c.to_list() for c in row] for row in inst.matrix_c],
        "generator_d": [[c.to_list() for c in row] for row in inst.matrix_d],
    }


def _dumped_element(fld: Field):
    """Decoder for the field elements of a dump: a list of exactly m int
    digits, each in [0, p), lowest degree first.  Field.element would pad a
    short list with zeros, and so hide a digit cut from the dump."""
    p, m = fld.p, fld.m

    def element(digits) -> FieldElement:
        if digits.__class__ is not list or len(digits) != m:
            raise InputError(f"element {digits!r} is not a list of {m} digits")
        value = 0
        for c in reversed(digits):
            if c.__class__ is not int or not 0 <= c < p:
                raise InputError(f"coefficient {c!r} of {digits} outside [0, {p})")
            value = value * p + c
        return FieldElement(fld, value)

    return element


def instance_from_dump(d: dict) -> CodeInstance:
    """Rebuild an instance from its dump with shape checks only.

    Every field element goes through _dumped_element.  Semantic integrity
    is deliberately not re-derived here; that is what verify_instance is
    for, so that a tampered dump loads and then fails the right check.
    """
    try:
        fld = field_from_descriptor(d["field"])
        base = field_from_descriptor(d["base_field"])
        element = _dumped_element(fld)
        points = tuple(map(element, d["points"]))
        blocks = tuple(tuple(int(i) for i in b) for b in d["blocks"])
        u = tuple(map(element, d["u"]))
        g = poly_from_lists(fld, list(map(element, d["g"])))
        subgroup = subgroup_from_descriptor(fld, d["subgroup"], element)
        alpha = element(d["alpha"]) if d["alpha"] is not None else None
        pairs = {key: tuple((int(i), int(j)) for i, j in d[key]) for key in ("s1", "s2", "t1")}
        exps = ExponentSets(d["n"], d["k"], d["r"], **pairs, ell=d["ell"], ell_prime=d["ell_prime"])
        mc = tuple(tuple(map(element, row)) for row in d["generator_c"])
        md = tuple(tuple(map(element, row)) for row in d["generator_d"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed instance dump: {e}") from None
    if not blocks or not all(blocks):
        raise InputError("dump has no blocks or an empty block")
    if len(points) != d["n"] or len(u) != d["n"]:
        raise InputError("dump lengths are inconsistent with n")
    es = EvaluationSet(
        field=fld,
        points=points,
        blocks=blocks,
        u=u,
        good=GoodPolynomial(g, subgroup, alpha),
        extended=bool(d["extended"]),
        base_field=base,
    )
    return CodeInstance(
        eval_set=es, k=d["k"], exps=exps, matrix_c=mc, matrix_d=md, seed=int(d.get("seed", 1))
    )


@dataclass(frozen=True)
class CheckResult:
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
    es, exps, fld, n = inst.eval_set, inst.exps, inst.field, inst.n

    def chk_power_sums():
        # the multiplier solve decides the extension, so the flag is checked here
        if not _power_sum_check(list(es.u), list(es.points), n - 2):
            return "weighted power sums do not vanish up to degree n - 2"
        if any(ui.is_zero() for ui in es.u):
            return "a multiplier is zero"
        if es.extended != (fld != es.base_field):
            return f"extended is {es.extended} but field and base_field disagree with that"
        if es.extended:
            big, emb = es.base_field.extend()
            if fld != big:
                return "field is not the quadratic extension of base_field"
            if not set(fld.ints(es.points)) <= {emb(x).v for x in es.base_field.elements()}:
                return "a point lies outside the embedded base field"
        return None

    def chk_rows_match():
        want = exponent_sets(n, inst.k, inst.r)  # r as the blocks say
        wrong = [f.name for f in fields(exps) if getattr(exps, f.name) != getattr(want, f.name)]
        if wrong:
            return f"stored {', '.join(wrong)} disagree with exponent_sets({n}, {inst.k}, {inst.r})"
        if len(inst.matrix_c) != len(exps.s_pairs) or len(inst.matrix_d) != len(exps.t_pairs):
            return "generator row counts do not match the exponent lists"
        by_pair = _s_rows(es, exps)
        for pair, row in zip(exps.s_pairs, inst.matrix_c):
            if by_pair[pair] != tuple(row):
                return f"S row {pair} does not match its evaluation"
        for pair, row in zip(exps.t_pairs, inst.matrix_d):
            if by_pair[pair] != tuple(row):
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
        sharing a value c would give g - c 2(r + 1) roots."""
        xs = fld.ints(es.points)
        if len(set(xs)) != n:
            return "evaluation points repeat"
        values = len({fld.horner(es.good.g.coeffs, x) for x in xs})
        if len(es.blocks) != 1 and values != len(es.blocks):
            return f"g takes {values} values on the points, not one per block ({len(es.blocks)})"
        return None

    return [
        ("multiplier-power-sums", chk_power_sums),
        ("generator-ranks", lambda: _generator_problem(inst.matrix_c, inst.matrix_d, inst.k, n)),
        ("dual-containment", lambda: _orthogonality_problem(inst.matrix_c, inst.matrix_d)),
        ("block-polynomial-constancy", lambda: blocks_problem(es)),
        ("generator-row-consistency", chk_rows_match),
        ("quotient-ring-closure", chk_ring),
    ]


def structure_problem(inst: CodeInstance) -> str | None:
    """"<check-name>: <detail>" for the first check of _structure_checks that
    fails, or None.  The gate in front of every certified number: bounds
    accepts an instance exactly when verify's deterministic checks do."""
    return inst._structure_problem


def verify_instance(inst: CodeInstance, trials: int = 100, seed: int | None = None):
    """Re-derive every structural property of a (possibly reloaded) instance.

    Returns a list of CheckResult in a fixed order, _structure_checks then
    local-repair; each check re-computes its property from the raw instance
    data rather than trusting stored derived values.
    """
    fld, n, k = inst.field, inst.n, inst.k
    rng = Xorshift64Star(inst.seed if seed is None else seed)

    def chk_repair():
        for _ in range(trials):
            msg = [rng.element(fld) for _ in range(k)]
            word = encode(inst, msg)
            z = rng.below(n)
            received: list = [c for c in word]
            received[z] = None
            if repair(inst, received, z) != word[z]:
                return f"repair mismatch at position {z}"
        return None

    results = [_check(name, fn) for name, fn in _structure_checks(inst)]
    # transcript contract: quotient-ring-closure once drew 45 of its u(u+1)/2
    # product pairs from rng, so local-repair still sees the stream after them
    u_count = len(inst.eval_set.blocks)
    pairs = u_count * (u_count + 1) // 2
    for _ in range(45 if pairs > 45 else 0):
        rng.below(pairs)
    return [*results, _check("local-repair", chk_repair)]
