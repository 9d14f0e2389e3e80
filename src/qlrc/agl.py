"""Subgroups of the affine maps x -> a*x + b over a finite field.

A subgroup H acting on the field partitions it into orbits (iter_orbits lists
them lazily).  The monic annihilator g of a free orbit, one of size |H|, has
g(h(x)) = a^|H| g(x) = g(x) for every h: x -> a*x + b in H, so g is constant
on every orbit (a "good polynomial" in the locally-recoverable-code sense),
which is what makes these groups useful for block structure.

Subgroups are either given by an explicit closed set of maps or generated
from a pair (M, B): a multiplicative subgroup M of a subfield K and a
K-subspace B of the field, giving {a*x + b : a in M, b in B}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .field import Field, FieldElement, json_element, json_int
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


@dataclass(frozen=True)
class AffineMap:
    """x -> a*x + b with a != 0."""

    a: FieldElement
    b: FieldElement

    def __post_init__(self):
        if self.a.is_zero():
            raise InputError("affine map needs an invertible linear part")
        if self.a.field != self.b.field:
            raise InputError("affine map coefficients must share a field")

    @classmethod
    def identity(cls, field: Field) -> AffineMap:
        return cls(field.one(), field.zero())

    def __call__(self, x: FieldElement) -> FieldElement:
        return self.a * x + self.b

    def __mul__(self, other: AffineMap) -> AffineMap:
        # composition: self after other
        return AffineMap(self.a * other.a, self.a * other.b + self.b)

    def inverse(self) -> AffineMap:
        ai = self.a.inv()
        return AffineMap(ai, -(ai * self.b))

    def as_polynomial(self) -> Polynomial:
        return Polynomial(self.a.field, (self.b, self.a))

    def sort_key(self):
        return (self.a.value(), self.b.value())

    def __repr__(self):
        return f"(x -> {Polynomial(self.a.field, (self.b, self.a))!r})"


class AglSubgroup:
    """A finite subgroup of the affine maps over one field.

    Construction verifies the group axioms exhaustively: identity present,
    closure under composition, closure under inverse.  subfield_degree is
    set when the maps are {a*x + b : a in M, b in B} over the subfield of
    that degree, as subgroup_from_MB checks; the descriptor then reads M
    and B back from the maps.
    """

    def __init__(self, field: Field, maps, subfield_degree: int | None = None):
        self.field = field
        self.maps = tuple(sorted(set(maps), key=AffineMap.sort_key))
        self.subfield_degree = subfield_degree
        if not self.maps:
            raise NotSubgroup("a subgroup cannot be empty")
        mapset = set(self.maps)
        if AffineMap.identity(field) not in mapset:
            raise NotSubgroup("identity map missing")
        for f in self.maps:
            if f.inverse() not in mapset:
                raise NotSubgroup(f"inverse of {f!r} missing")
            for g in self.maps:
                if f * g not in mapset:
                    raise NotSubgroup(f"composition {f!r} * {g!r} escapes the set")

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

    def orbit(self, alpha: FieldElement) -> list[FieldElement]:
        """The orbit of alpha, sorted canonically."""
        alpha = self.field.element(alpha)
        return sorted({f(alpha) for f in self.maps}, key=lambda e: e.value())

    def descriptor(self) -> dict:
        if self.subfield_degree is not None:
            gen = _cyclic_generator({f.a for f in self.maps})
            offsets = [f.b for f in self.maps if f.a.v == 1]
            basis = subspace_basis(self.field, self.subfield_degree, offsets)
            return {
                "kind": "MB",
                "K": {"p": self.field.p, "m_sub": self.subfield_degree},
                "M_generator": gen.to_list(),
                "B_basis": [b.to_list() for b in basis],
            }
        return {
            "kind": "explicit",
            "maps": [{"a": f.a.to_list(), "b": f.b.to_list()} for f in self.maps],
        }


@dataclass(frozen=True)
class GoodPolynomial:
    """The annihilator g of the free orbit of base_point, constant on every orbit.

    The generating subgroup is kept around because the block check and the
    spectral distance bounds need it.
    """

    g: Polynomial
    subgroup: AglSubgroup
    base_point: FieldElement | None


def _cyclic_generator(M: set[FieldElement]) -> FieldElement:
    """An element of M whose powers exhaust M."""
    for g in sorted(M, key=lambda e: e.value()):
        seen = {g}
        x = g
        while True:
            x = x * g
            if x in seen:
                break
            seen.add(x)
        if seen == M:
            return g
    raise AssertionError("multiplicative subgroup with no generator")  # unreachable


def subspace_basis(field: Field, k_degree: int, B):
    """Greedy K-basis of the span of B, taking elements in ascending order."""
    K = field.subfield_elements(k_degree)
    basis: list[FieldElement] = []
    spanned = {field.zero()}
    for b in sorted(B, key=lambda e: e.value()):
        if b in spanned:
            continue
        basis.append(b)
        # spanned is a K-subspace already, so one extension round suffices
        spanned = {s + k * b for s in spanned for k in K}
    return basis


def subgroup_from_MB(field: Field, k_degree: int, M, B) -> AglSubgroup:
    """Build {a*x + b : a in M, b in B} and verify the (K, M, B) premises.

    K is the subfield of order p**k_degree.  M must be a multiplicative
    subgroup of K*, B a K-subspace of the field; both checks are exhaustive.
    """
    if k_degree < 1 or field.m % k_degree != 0:
        raise NotSubfield(f"degree {k_degree} does not divide {field.m}")
    K = set(field.subfield_elements(k_degree))
    M = [field.element(a) for a in M]
    B = [field.element(b) for b in B]
    mset, bset = set(M), set(B)
    if len(mset) != len(M) or len(bset) != len(B):
        raise InputError("M and B must not contain duplicates")
    if field.one() not in mset:
        raise NotSubgroup("M must contain 1")
    for a in mset:
        if a.is_zero() or a not in K:
            raise NotSubgroup("M must sit inside the subfield's nonzero elements")
        for b in mset:
            if a * b not in mset:
                raise NotSubgroup(f"M is not closed: {a!r} * {b!r} escapes")
    if field.zero() not in bset:
        raise NotSubspace("B must contain 0")
    for x in bset:
        for y in bset:
            if x + y not in bset:
                raise NotSubspace(f"B is not closed under addition: {x!r} + {y!r}")
        for k in K:
            if k * x not in bset:
                raise NotSubspace(f"B is not closed under K-scaling: {k!r} * {x!r}")
    maps = [AffineMap(a, b) for a in mset for b in bset]
    return AglSubgroup(field, maps, subfield_degree=k_degree)


def subgroup_from_generators(field: Field, k_degree: int, m_gen, basis) -> AglSubgroup:
    """subgroup_from_MB with M the powers of m_gen and B the K-span of basis."""
    if m_gen.is_zero():
        raise NotSubgroup("M generator must be nonzero")
    M = {field.one()}
    x = m_gen
    while x not in M:
        M.add(x)
        x = x * m_gen
    K = field.subfield_elements(k_degree) if k_degree > 0 and field.m % k_degree == 0 else []
    B = {field.zero()}
    for v in basis:
        B = {s + k * v for s in B for k in K}
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
        gen = FieldElement(field, gen)
        return subgroup_from_generators(field, k_degree, gen, field.from_ints(basis))
    return AglSubgroup(field, [AffineMap(*field.from_ints(ab)) for ab in maps])


def iter_orbits(subgroup: AglSubgroup, domain=None):
    """The orbits of a closed domain, one at a time, listed by smallest member.

    domain None is the whole field, walked in canonical order without
    materialising it; any other domain is read once and enumerated over its
    own elements only.  Raises DomainNotClosed when an orbit leaves it.
    """
    field = subgroup.field
    elset = None if domain is None else {field.element(x) for x in domain}
    seen: set[FieldElement] = set()
    for x in field.elements() if elset is None else sorted(elset, key=lambda e: e.value()):
        if x in seen:
            continue
        orb = subgroup.orbit(x)
        if elset is not None and not elset.issuperset(orb):
            raise DomainNotClosed(f"the orbit of {x!r} leaves the domain")
        seen.update(orb)
        yield tuple(orb)


def orbits(subgroup: AglSubgroup, domain) -> tuple[tuple[FieldElement, ...], ...]:
    """Partition a closed domain into orbits of the subgroup, canonically
    sorted inside and listed by smallest member."""
    return tuple(iter_orbits(subgroup, domain))


def good_polynomial(subgroup: AglSubgroup, alpha) -> GoodPolynomial:
    """The monic annihilator of the orbit of alpha, which must be free.

    Raises NotRegularOrbit when the orbit is smaller than the group.  No
    other orbit is enumerated or evaluated here: constancy on the blocks in
    use is checked by construct.blocks_problem.
    """
    field = subgroup.field
    alpha = field.element(alpha)
    orb = subgroup.orbit(alpha)
    if len(orb) != len(subgroup):
        raise NotRegularOrbit(
            f"orbit of {alpha!r} has size {len(orb)}, group has order {len(subgroup)}"
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
        diff = gamma.compose(t.as_polynomial()) - gamma
        if diff:
            moved.append((t, diff))
        else:
            kept.append(t)
    return AglSubgroup(subgroup.field, kept), moved


def theta_subgroup(subgroup: AglSubgroup, gamma: Polynomial) -> AglSubgroup:
    """Stabilizer {t : gamma(t(x)) == gamma(x) as polynomials}."""
    return stabilizer_split(subgroup, gamma)[0]
