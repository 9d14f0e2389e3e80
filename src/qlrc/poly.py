"""Dense univariate polynomials over a Field.

Coefficients are stored as integer encodings (see field.py) in ascending
degree with no trailing zeros; the zero polynomial is the empty coefficient
vector.  Its degree is the sentinel float('-inf'), which keeps degree
arithmetic honest (deg(f*g) is the sum of degrees for every pair, including
zero factors) without smuggling -1 into integer formulas.

Ring operations work on the stored integers through the Field's integer
operations.  coefficient(), evaluation, repr() and to_lists() wrap integers
into FieldElement values at the boundary; the constructor coerces and
validates its coefficients the way Field.element does.
"""

from __future__ import annotations

from .errors import InputError
from .field import Field, FieldElement

NEG_INF = float("-inf")


class DivisionByZeroPoly(InputError):
    """Polynomial division by the zero polynomial."""


class DuplicateNode(InputError):
    """Interpolation nodes must be pairwise distinct."""


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = field.ints(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _from_ints(cls, field: Field, values: list[int]) -> Polynomial:
        """From integer encodings already in [0, q); trailing zeros dropped."""
        while values and not values[-1]:
            values.pop()
        poly = cls.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(values)
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> Polynomial:
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> Polynomial:
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field: Field) -> Polynomial:
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def constant(cls, c: FieldElement) -> Polynomial:
        return cls(c.field, (c,))

    @classmethod
    def monomial(cls, field: Field, c, degree: int) -> Polynomial:
        c = field.element(c)
        return cls(field, (field.zero(),) * degree + (c,))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int; float('-inf') for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, i: int) -> FieldElement:
        return FieldElement(self.field, self.coeffs[i] if i < len(self.coeffs) else 0)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def _check(self, other) -> Polynomial:
        if not isinstance(other, Polynomial) or other.field != self.field:
            raise InputError("polynomials over different fields cannot mix")
        return other

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        f = self.field
        a, b = list(self.coeffs), list(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        a[: len(b)] = [f.add(x, y) for x, y in zip(a, b)]
        return Polynomial._from_ints(f, a)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __neg__(self):
        return Polynomial._from_ints(self.field, [self.field.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            other = Polynomial.constant(self.field.element(other))
        other = self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        f = self.field
        a, b = self.coeffs, other.coeffs
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, x in enumerate(a):
            if x:
                out[i : i + nb] = f.axpy(out[i : i + nb], x, b)
        return Polynomial._from_ints(f, out)

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self * other
        return NotImplemented

    def __pow__(self, e: int) -> Polynomial:
        if e < 0:
            raise InputError("polynomial exponent must be non-negative")
        result = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, i: int) -> Polynomial:
        """Multiply by x**i."""
        if self.is_zero():
            return self
        return Polynomial._from_ints(self.field, [0] * i + list(self.coeffs))

    def __divmod__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZeroPoly("division by the zero polynomial")
        if self.degree < other.degree:
            return Polynomial.zero(self.field), self
        f = self.field
        b = other.coeffs
        nb = len(b)
        inv_lead = f.inv(b[-1])
        rem = list(self.coeffs)
        dq = len(rem) - nb
        quo = [0] * (dq + 1)
        for shift in range(dq, -1, -1):
            c = rem[shift + nb - 1]
            if not c:
                continue
            t = f.mul(c, inv_lead)
            quo[shift] = t
            rem[shift : shift + nb] = f.axpy(rem[shift : shift + nb], f.neg(t), b)
        return Polynomial._from_ints(f, quo), Polynomial._from_ints(f, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    # -- evaluation and composition -----------------------------------------

    def __call__(self, point: FieldElement) -> FieldElement:
        f = self.field
        return FieldElement(f, f.horner(self.coeffs, f.element(point).v))

    def compose(self, inner: Polynomial) -> Polynomial:
        """self(inner(x)), by Horner's rule over polynomials."""
        inner = self._check(inner)
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial._from_ints(self.field, [c])
        return acc

    # -- display ----------------------------------------------------------------

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = repr(FieldElement(self.field, c))
            if i == 0:
                parts.append(f"({cs})" if "+" in cs else cs)
                continue
            xs = "x" if i == 1 else f"x^{i}"
            if cs == "1":
                parts.append(xs)
            elif "+" in cs:
                parts.append(f"({cs}){xs}")
            else:
                parts.append(f"{cs}{xs}")
        return " + ".join(parts)

    # -- serialization ------------------------------------------------------

    def to_lists(self) -> list[list[int]]:
        return [c.to_list() for c in self.field.from_ints(self.coeffs)]


def poly_from_lists(field: Field, lists) -> Polynomial:
    return Polynomial(field, lists)


def interpolate(points: list[tuple[FieldElement, FieldElement]]) -> Polynomial:
    """The unique polynomial of degree < len(points) through the points.

    Plain Lagrange; raises DuplicateNode on repeated x-coordinates.
    """
    if not points:
        raise InputError("need at least one interpolation point")
    field = points[0][0].field
    xs = [field.element(x) for x, _ in points]
    if len({x.v for x in xs}) != len(xs):
        raise DuplicateNode("repeated interpolation node")
    total = Polynomial.zero(field)
    for i, (xi, yi) in enumerate(points):
        yi = field.element(yi)
        if yi.is_zero():
            continue
        num = Polynomial.constant(yi)
        den = field.one()
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * Polynomial(field, (-xj, field.one()))
            den = den * (xi - xj)
        total = total + num * Polynomial.constant(den.inv())
    return total


def annihilator(field: Field, elements) -> Polynomial:
    """Monic product of (x - a) over the given distinct elements."""
    els = [field.element(a) for a in elements]
    if len({e.v for e in els}) != len(els):
        raise DuplicateNode("annihilator nodes must be distinct")
    out = Polynomial.one(field)
    for a in els:
        out = out * Polynomial(field, (-a, field.one()))
    return out
