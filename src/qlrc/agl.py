"""Subgroups of the affine maps x -> a*x + b over a finite field.

A subgroup H acting on the field partitions it into orbits (iter_orbits lists
them lazily).  The monic annihilator g of a free orbit, one of size |H|, has
g(h(x)) = a^|H| g(x) = g(x) for every h: x -> a*x + b in H, so g is constant
on every orbit (a "good polynomial" in the locally-recoverable-code sense),
which is what makes these groups useful for block structure.

Subgroups are either given by an explicit closed set of maps or generated
from a pair (M, B): a multiplicative subgroup M of a subfield K and a
K-subspace B of the field, giving {a*x + b : a in M, b in B}.

Maps, orbits and base points are integer encodings (see field.py), worked
with the field's integer operations; entry points also take FieldElement
input, through Field.ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .errors import InputError
from .field import Field, _digits, json_element, json_int
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

    Construction coerces each map through Field.ints and verifies the group
    axioms exhaustively: identity present, closure under composition,
    closure under inverse.  subfield_degree is set when the maps are
    {a*x + b : a in M, b in B} over the subfield of that degree, as
    subgroup_from_MB checks; the descriptor then reads M and B back from the
    maps.  apply, compose and inverse take any map over the field.
    """

    def __init__(self, field: Field, maps, subfield_degree: int | None = None):
        self.field = field
        mapset = {AffineMap(*field.ints(t)) for t in maps}
        if any(not t.a for t in mapset):
            raise InputError("affine map needs an invertible linear part")
        self.maps = tuple(sorted(mapset))
        self.subfield_degree = subfield_degree
        if not self.maps:
            raise NotSubgroup("a subgroup cannot be empty")
        if (1, 0) not in mapset:
            raise NotSubgroup("identity map missing")
        poly = self.polynomial
        for f in self.maps:
            if self.inverse(f) not in mapset:
                raise NotSubgroup(f"inverse of (x -> {poly(f)!r}) missing")
            for g in self.maps:
                if self.compose(f, g) not in mapset:
                    fg = f"(x -> {poly(f)!r}) * (x -> {poly(g)!r})"
                    raise NotSubgroup(f"composition {fg} escapes the set")

    def apply(self, t: AffineMap, x: int) -> int:
        """t(x) = a*x + b."""
        return self.field.add(self.field.mul(t.a, x), t.b)

    def compose(self, s: AffineMap, t: AffineMap) -> AffineMap:
        """s after t: x -> s(t(x))."""
        return AffineMap(self.field.mul(s.a, t.a), self.apply(s, t.b))

    def inverse(self, t: AffineMap) -> AffineMap:
        fld = self.field
        ai = fld.inv(t.a)
        return AffineMap(ai, fld.neg(fld.mul(ai, t.b)))

    def polynomial(self, t: AffineMap) -> Polynomial:
        """a*x + b as a polynomial over the field."""
        return Polynomial._from_ints(self.field, [t.b, t.a])

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __contains__(self, f):
        return f in set(self.maps)

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


@dataclass(frozen=True)
class GoodPolynomial:
    """The annihilator g of the free orbit of base_point, constant on every orbit.

    base_point is an integer encoding.  The generating subgroup is kept
    around because the block check and the spectral distance bounds need it.
    """

    g: Polynomial
    subgroup: AglSubgroup
    base_point: int | None


def _cyclic_generator(field: Field, M: set[int]) -> int:
    """An element of M whose powers exhaust M."""
    for g in sorted(M):
        seen = {g}
        x = g
        while True:
            x = field.mul(x, g)
            if x in seen:
                break
            seen.add(x)
        if seen == M:
            return g
    raise AssertionError("multiplicative subgroup with no generator")  # unreachable


def subspace_basis(field: Field, k_degree: int, B) -> list[int]:
    """Greedy K-basis of the span of the encodings B, taking them in ascending order."""
    K = field.subfield_elements(k_degree)
    mul, add = field.mul, field.add
    basis: list[int] = []
    spanned = {0}
    for b in sorted(B):
        if b in spanned:
            continue
        basis.append(b)
        # spanned is a K-subspace already, so one extension round suffices
        spanned = {add(s, mul(k, b)) for s in spanned for k in K}
    return basis


def subgroup_from_MB(field: Field, k_degree: int, M, B) -> AglSubgroup:
    """Build {a*x + b : a in M, b in B} and verify the (K, M, B) premises.

    K is the subfield of order p**k_degree.  M must be a multiplicative
    subgroup of K*, B a K-subspace of the field; both checks are exhaustive.
    """
    if k_degree < 1 or field.m % k_degree != 0:
        raise NotSubfield(f"degree {k_degree} does not divide {field.m}")
    K = set(field.subfield_elements(k_degree))
    M, B = field.ints(M), field.ints(B)
    mset, bset = set(M), set(B)
    if len(mset) != len(M) or len(bset) != len(B):
        raise InputError("M and B must not contain duplicates")
    mul, add, show = field.mul, field.add, field.show
    if 1 not in mset:
        raise NotSubgroup("M must contain 1")
    for a in mset:
        if not a or a not in K:
            raise NotSubgroup("M must sit inside the subfield's nonzero elements")
        for b in mset:
            if mul(a, b) not in mset:
                raise NotSubgroup(f"M is not closed: {show(a)} * {show(b)} escapes")
    if 0 not in bset:
        raise NotSubspace("B must contain 0")
    for x in bset:
        for y in bset:
            if add(x, y) not in bset:
                raise NotSubspace(f"B is not closed under addition: {show(x)} + {show(y)}")
        for k in K:
            if mul(k, x) not in bset:
                raise NotSubspace(f"B is not closed under K-scaling: {show(k)} * {show(x)}")
    maps = [AffineMap(a, b) for a in mset for b in bset]
    return AglSubgroup(field, maps, subfield_degree=k_degree)


def subgroup_from_generators(field: Field, k_degree: int, m_gen, basis) -> AglSubgroup:
    """subgroup_from_MB with M the powers of m_gen and B the K-span of basis,
    all given as integer encodings."""
    if not m_gen:
        raise NotSubgroup("M generator must be nonzero")
    mul, add = field.mul, field.add
    M = {1}
    x = m_gen
    while x not in M:
        M.add(x)
        x = mul(x, m_gen)
    K = field.subfield_elements(k_degree) if k_degree > 0 and field.m % k_degree == 0 else []
    B = {0}
    for v in basis:
        B = {add(s, mul(k, v)) for s in B for k in K}
    return subgroup_from_MB(field, k_degree, M, B)


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
    other orbit is enumerated or evaluated here: constancy on the blocks in
    use is checked by construct.blocks_problem.
    """
    field = subgroup.field
    (alpha,) = field.ints((alpha,))
    orb = subgroup.orbit(alpha)
    if len(orb) != len(subgroup):
        raise NotRegularOrbit(
            f"orbit of {field.show(alpha)} has size {len(orb)}, group has order {len(subgroup)}"
        )
    return GoodPolynomial(annihilator(field, orb), subgroup, alpha)


def stabilizer_split(
    subgroup: AglSubgroup, gamma: Polynomial
) -> tuple[AglSubgroup, list[tuple[AffineMap, Polynomial]]]:
    """Theta = {t : gamma(t(x)) == gamma(x) as polynomials}, and the nonzero
    difference gamma(t(x)) - gamma(x) of every other t, in subgroup order.

    gamma is composed with each map once; t lies in Theta exactly when its
    difference is zero.
    """
    if gamma.is_zero():
        raise InputError("the stabilizer of the zero polynomial is everything")
    kept, moved = [], []
    for t in subgroup:
        diff = gamma.compose(subgroup.polynomial(t)) - gamma
        if diff:
            moved.append((t, diff))
        else:
            kept.append(t)
    return AglSubgroup(subgroup.field, kept), moved


def theta_subgroup(subgroup: AglSubgroup, gamma: Polynomial) -> AglSubgroup:
    """Stabilizer {t : gamma(t(x)) == gamma(x) as polynomials}."""
    return stabilizer_split(subgroup, gamma)[0]
