"""Subgroups of the affine maps x -> a*x + b over a finite field.

A subgroup H acting on the field partitions it into orbits (iter_orbits lists
them lazily; fixed_points tells which are free without walking any).  The
monic annihilator g of a free orbit, one of size |H|, has
g(h(x)) = a^|H| g(x) = g(x) for every h: x -> a*x + b in H, so g is constant
on every orbit (a "good polynomial" in the locally-recoverable-code sense),
which is what makes these groups useful for block structure.

Subgroups are either given by an explicit closed set of maps or generated
from a pair (M, B): a multiplicative subgroup M of a subfield K and a
K-subspace B of the field, giving {a*x + b : a in M, b in B}.  Each one is
proven a group once, by the argument its origin supplies:

- an explicit map set (AglSubgroup(field, maps), an "explicit" descriptor)
  by its closure under composition alone;
- raw (K, M, B) input (subgroup_from_MB) by its structure: M a subgroup of
  K*, B a K-subspace;
- an "MB" descriptor (subgroup_from_generators) by construction, since
  M = <m_gen> and B = span_K(basis); only m_gen in K* is checked;
- a derived subgroup (the GF(q^2) image that construct.build_evaluation_set
  embeds, and stabilizer_splitter's Theta) not at all: the image of a group
  under a field embedding, and a stabilizer, are groups.

Maps, orbits and base points are integer encodings (see field.py), worked
with the field's integer operations; entry points also take FieldElement
input, through Field.ints.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .errors import InputError
from .field import Field, _digits, _prime_factors, json_element, json_int
from .poly import Polynomial, annihilator


class NotSubgroup(InputError):
    """The supplied multiplicative set is not a subgroup."""


class NotSubspace(InputError):
    """The supplied additive set is not a subspace over K."""


class NotSubfield(InputError):
    """The supplied K descriptor does not name a subfield."""


class NotRegularOrbit(InputError):
    """The base point's orbit is smaller than the group."""


class DomainNotClosed(InputError):
    """The requested orbit domain is not closed under the group action."""


class AffineMap(NamedTuple):
    """x -> a*x + b, a and b integer encodings with a != 0; maps sort by (a, b)."""

    a: int
    b: int


class AglSubgroup:
    """A finite subgroup of the affine maps over one field.

    The constructor coerces each explicit map through Field.ints and proves
    the set a group by its closure under composition (_check_closed): a
    finite, nonempty set closed under composition holds the identity and
    every inverse.  The other origins (see the module docstring) carry their
    own proof and store their maps through _proven, which alone sets
    subfield_degree: the degree of K when the maps are {a*x + b : a in M,
    b in B}, as subgroup_from_MB or an MB descriptor showed, so that the
    descriptor reads M and B back from the maps.  apply and compose take any
    map over the field.
    """

    def __init__(self, field: Field, maps):
        mapset = {AffineMap(*field.ints(t)) for t in maps}
        if any(not t.a for t in mapset):
            raise InputError("affine map needs an invertible linear part")
        if not mapset:
            raise NotSubgroup("a subgroup cannot be empty")
        self._store(field, mapset, None)
        self._check_closed(mapset)

    @classmethod
    def _proven(cls, field: Field, maps, subfield_degree: int | None = None) -> AglSubgroup:
        """The subgroup of the AffineMaps maps, which the caller has proven a group."""
        sub = cls.__new__(cls)
        sub._store(field, maps, subfield_degree)
        return sub

    def _store(self, field: Field, maps, subfield_degree: int | None) -> None:
        self.field = field
        self.maps = tuple(sorted(maps))
        self.subfield_degree = subfield_degree

    def _check_closed(self, mapset: set[AffineMap]) -> None:
        """Raise NotSubgroup unless the maps are closed under composition.

        Generators are picked greedily in map order, each one a map that the
        words in the earlier ones do not reach, and the words grow by
        composing on the right with every generator, each product checked
        against the set.  The words then reach every map and never leave
        the set, so the set is exactly the words in its generators, which
        are closed under composition.  A generator's powers come back to
        the identity, so a set without it fails too.  Every new generator at
        least doubles the words, so this costs at most |H| * log2|H|
        compositions.
        """
        gens: list[AffineMap] = []
        words = {AffineMap(1, 0)}
        for f in self.maps:
            if f in words:
                continue
            gens.append(f)
            # the earlier words are closed under the earlier generators
            todo = [(w, (f,)) for w in words]
            while todo:
                w, by = todo.pop()
                for g in by:
                    wg = self.compose(w, g)
                    if wg not in mapset:
                        fg = f"(x -> {self.polynomial(w)!r}) * (x -> {self.polynomial(g)!r})"
                        raise NotSubgroup(f"composition {fg} escapes the set")
                    if wg not in words:
                        words.add(wg)
                        todo.append((wg, gens))

    def apply(self, t: AffineMap, x: int) -> int:
        """t(x) = a*x + b."""
        return self.field.add(self.field.mul(t.a, x), t.b)

    def compose(self, s: AffineMap, t: AffineMap) -> AffineMap:
        """s after t: x -> s(t(x))."""
        return AffineMap(self.field.mul(s.a, t.a), self.apply(s, t.b))

    def polynomial(self, t: AffineMap) -> Polynomial:
        """a*x + b as a polynomial over the field."""
        return Polynomial._from_ints(self.field, [t.b, t.a])

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __eq__(self, other):
        return (
            isinstance(other, AglSubgroup)
            and self.field == other.field
            and self.maps == other.maps
        )

    def __repr__(self):
        return f"AglSubgroup(order={len(self.maps)}, field={self.field!r})"

    def orbit(self, alpha) -> list[int]:
        """The orbit of alpha (an encoding or an element), ascending."""
        (x,) = self.field.ints((alpha,))
        return sorted({self.apply(t, x) for t in self.maps})

    def fixed_points(self) -> set[int]:
        """{b/(1 - a) : a*x + b in the group, a != 1}, in O(|H|): the only point
        each such map fixes (a translation fixes none).  A point's orbit has
        the full size |H| exactly when the point is not in this set."""
        fld = self.field
        return {fld.mul(b, fld.inv(fld.sub(1, a))) for a, b in self.maps if a != 1}

    def descriptor(self) -> dict:
        digits = partial(_digits, p=self.field.p, m=self.field.m)
        if self.subfield_degree is not None:
            gen = _cyclic_generator(self.field, {f.a for f in self.maps})
            offsets = [f.b for f in self.maps if f.a == 1]
            basis = subspace_basis(self.field, self.subfield_degree, offsets)
            return {
                "kind": "MB",
                "K": {"p": self.field.p, "m_sub": self.subfield_degree},
                "M_generator": digits(gen),
                "B_basis": [digits(b) for b in basis],
            }
        return {
            "kind": "explicit",
            "maps": [{"a": digits(a), "b": digits(b)} for a, b in self.maps],
        }


class GoodPolynomial(NamedTuple):
    """The annihilator g of the free orbit of base_point, constant on every orbit.

    base_point is an integer encoding.  Locality needs only g, constant on
    each block; the subgroup is kept for the orbit half of the block check
    and for the spectral distance bounds.
    """

    g: Polynomial
    subgroup: AglSubgroup
    base_point: int | None


def _cyclic_generator(field: Field, M: set[int]) -> int:
    """The smallest a in the group M with a^(|M|/f) != 1 for each prime f dividing |M|."""
    n, factors = len(M), _prime_factors(len(M))
    return next(a for a in sorted(M) if all(field.power(a, n // f) != 1 for f in factors))


def _subfield(field: Field, k_degree: int) -> list[int]:
    """The subfield K of order p**k_degree, ascending; NotSubfield unless k_degree | m."""
    if k_degree < 1 or field.m % k_degree != 0:
        raise NotSubfield(f"degree {k_degree} does not divide {field.m}")
    return field.subfield_elements(k_degree)


def _k_span(field: Field, K: list[int], vectors):
    """Grow the K-span of the encodings vectors greedily, in the order given:
    yield each vector outside the span so far with the span it extends to."""
    mul, add = field.mul, field.add
    span = {0}
    for v in vectors:
        if v in span:
            continue
        multiples = [mul(k, v) for k in K]
        # span is a K-subspace already, so one extension round suffices
        span = {add(s, kv) for s in span for kv in multiples}
        yield v, span


def subspace_basis(field: Field, k_degree: int, B) -> list[int]:
    """Greedy K-basis of the span of the encodings B, taking them in ascending order."""
    return [v for v, _ in _k_span(field, _subfield(field, k_degree), sorted(B))]


def subgroup_from_MB(field: Field, k_degree: int, M, B) -> AglSubgroup:
    """Build {a*x + b : a in M, b in B} and verify the (K, M, B) premises.

    K is the subfield of order p**k_degree.  M must be a subgroup of K*: it
    holds 1, lies in K*, |M| divides |K*| and a^|M| = 1 on M.  K* is cyclic,
    so exactly |M| of its elements solve x^|M| = 1, and M is all of them.
    B must be a K-subspace: it holds 0 and its K-span, grown greedily over B
    ascending, never leaves B, so the span, which every b joins, is B.  The
    first round leaving B stops the check, within |B| * |K| span elements.
    """
    K = _subfield(field, k_degree)
    M, B = field.ints(M), field.ints(B)
    mset, bset = set(M), set(B)
    if len(mset) != len(M) or len(bset) != len(B):
        raise InputError("M and B must not contain duplicates")
    order, k_units = len(mset), len(K) - 1
    if 1 not in mset:
        raise NotSubgroup("M must contain 1")
    if any(not a or field.power(a, k_units) != 1 for a in mset):  # K* = the roots of x^|K*| - 1
        raise NotSubgroup("M must sit inside the subfield's nonzero elements")
    if k_units % order:
        raise NotSubgroup(f"M is not a subgroup: its order {order} does not divide {k_units}")
    for a in sorted(mset):
        if field.power(a, order) != 1:
            raise NotSubgroup(f"M is not a subgroup: {field.show(a)}^{order} is not 1")
    if 0 not in bset:
        raise NotSubspace("B must contain 0")
    for _, span in _k_span(field, K, sorted(bset)):
        if not span <= bset:
            raise NotSubspace(f"B is not closed: its K-span holds {field.show(min(span - bset))}")
    return AglSubgroup._proven(field, [AffineMap(a, b) for a in mset for b in bset], k_degree)


def subgroup_from_generators(field: Field, k_degree: int, m_gen, basis) -> AglSubgroup:
    """{a*x + b : a in M, b in B} with M the powers of m_gen and B the K-span
    of basis, all given as integer encodings.

    M and B are a group and a K-subspace by construction, so only m_gen is
    checked, before M is walked: nonzero, and in K* (a root of x^|K*| - 1),
    whose subgroup M then is.  The messages are subgroup_from_MB's.
    """
    if not m_gen:
        raise NotSubgroup("M generator must be nonzero")
    K = _subfield(field, k_degree)
    if field.power(m_gen, len(K) - 1) != 1:
        raise NotSubgroup("M must sit inside the subfield's nonzero elements")
    M = {1}
    x = m_gen
    while x not in M:
        M.add(x)
        x = field.mul(x, m_gen)
    B = {0}
    for _, B in _k_span(field, K, basis):
        pass
    return AglSubgroup._proven(field, [AffineMap(a, b) for a in M for b in B], k_degree)


def subgroup_from_descriptor(field: Field, d: dict) -> AglSubgroup:
    """The subgroup a spec or dump descriptor names: {"kind": "MB", "K":
    {"p", "m_sub"}, "M_generator", "B_basis"} or {"kind": "explicit",
    "maps": [{"a", "b"}, ...]}, numbers read by json_int and elements by
    json_element."""
    element = json_element(field)
    try:
        kind = d["kind"]
        if kind == "MB":
            kd = d["K"]
            if "p" in kd and json_int(kd["p"]) != field.p:
                raise InputError("subgroup subfield characteristic differs from the field")
            k_degree = json_int(kd["m_sub"])
            gen = element(d["M_generator"])
            basis = [element(b) for b in d.get("B_basis", [])]
        elif kind == "explicit":
            maps = [(element(fm["a"]), element(fm["b"])) for fm in d["maps"]]
        else:
            raise InputError(f"unknown subgroup kind {kind!r}")
    except (KeyError, TypeError) as e:
        raise InputError(f"bad subgroup descriptor: {e!r}") from None
    if kind == "MB":
        return subgroup_from_generators(field, k_degree, gen, basis)
    return AglSubgroup(field, maps)


def iter_orbits(subgroup: AglSubgroup, domain=None):
    """The orbits of a closed domain, one at a time, listed by smallest member.

    domain None is the whole field, walked in canonical order without
    materialising it; any other domain is read once and enumerated over its
    own elements only.  Raises DomainNotClosed when an orbit leaves it.
    """
    field = subgroup.field
    elset = None if domain is None else set(field.ints(domain))
    seen: set[int] = set()
    for x in range(field.q) if elset is None else sorted(elset):
        if x in seen:
            continue
        orb = subgroup.orbit(x)
        if elset is not None and not elset.issuperset(orb):
            raise DomainNotClosed(f"the orbit of {field.show(x)} leaves the domain")
        seen.update(orb)
        yield tuple(orb)


def orbits(subgroup: AglSubgroup, domain) -> tuple[tuple[int, ...], ...]:
    """Partition a closed domain into orbits of the subgroup, ascending
    inside and listed by smallest member."""
    return tuple(iter_orbits(subgroup, domain))


def good_polynomial(subgroup: AglSubgroup, alpha) -> GoodPolynomial:
    """The monic annihilator of the orbit of alpha, which must be free.

    Raises NotRegularOrbit when the orbit is smaller than the group.  No
    other orbit is enumerated or evaluated here: construct._fibre_problem
    checks that g is constant on the blocks in use.
    """
    field = subgroup.field
    (alpha,) = field.ints((alpha,))
    orb = subgroup.orbit(alpha)
    if len(orb) != len(subgroup):
        raise NotRegularOrbit(
            f"orbit of {field.show(alpha)} has size {len(orb)}, group has order {len(subgroup)}"
        )
    return GoodPolynomial(annihilator(field, orb), subgroup, alpha)


def _term_differences(subgroup: AglSubgroup, t: AffineMap, terms, width: int) -> list[list[int]]:
    """The coefficients of term(t(x)) - term(x) for each term, padded to width.

    A composition with t(x) = a*x + b keeps the degree, so width at least
    the longest term's coefficient count holds every difference.
    """
    inner = subgroup.polynomial(t)
    rows = []
    for term in terms:
        diff = list((term.compose(inner) - term).coeffs)
        rows.append(diff + [0] * (width - len(diff)))
    return rows


def stabilizer_splitter(subgroup: AglSubgroup, terms):
    """The map coeffs -> (Theta, moved) for gamma = sum_i coeffs[i] * terms[i],
    coeffs a list of encodings: Theta = {t : gamma(t(x)) == gamma(x) as
    polynomials}, and moved the pairs (t, gamma(t(x)) - gamma(x)) of every
    other t, in subgroup order, each difference nonzero.

    Composition is linear in the outer polynomial, so gamma(t(x)) - gamma(x)
    is sum_i coeffs[i] * (terms[i](t(x)) - terms[i](x)).  Each term is
    composed with each map but the identity once, here, and each such map
    keeps its term differences as the rows of one Field.combiner; a split
    is then one combination per map.  The identity's differences are all
    zero, so it is kept in Theta at its place without one.  The caller
    rules out a zero gamma.
    """
    field = subgroup.field
    width = max((len(term.coeffs) for term in terms), default=0)

    def combiner(t):
        return field.combiner(_term_differences(subgroup, t, terms, width), width)

    differences = [(t, None if t == (1, 0) else combiner(t)) for t in subgroup]

    def split(coeffs):
        kept, moved = [], []
        for t, combine in differences:
            diff = () if combine is None else combine(coeffs)
            if any(diff):
                moved.append((t, Polynomial._from_ints(field, diff)))
            else:
                kept.append(t)
        # a stabilizer is a group: gamma(s(t(x))) = gamma(t(x)) = gamma(x) for s, t in Theta
        return AglSubgroup._proven(field, kept), moved

    return split


def theta_subgroup(subgroup: AglSubgroup, gamma: Polynomial) -> AglSubgroup:
    """Stabilizer {t : gamma(t(x)) == gamma(x) as polynomials}.

    This is stabilizer_splitter with gamma as its only term: gamma is
    composed with each map once, and t lies in Theta exactly when its
    difference is zero.
    """
    if gamma.is_zero():
        raise InputError("the stabilizer of the zero polynomial is everything")
    return stabilizer_splitter(subgroup, [gamma])([1])[0]
