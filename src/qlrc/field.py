"""Exact arithmetic in small finite fields GF(p^m).

Elements are dense coefficient vectors over GF(p) in the polynomial basis of
a fixed monic irreducible modulus, so every operation is exact integer
arithmetic.  Field orders are capped at 2**20 because everything downstream
(orbit enumeration, codeword scans, root counting) iterates over field
elements.

One canonical total order is used everywhere an element has to be "the
smallest" (default moduli, primitive elements, square-root tie-breaks,
evaluation-point ordering): elements compare by their integer encoding
sum(c_i * p**i), i.e. coefficient vectors compared from the highest degree
down.  The same encoding orders polynomials over GF(p) when a default
modulus is selected.
"""

from __future__ import annotations

from .errors import InputError, ResourceError

MAX_FIELD_ORDER = 1 << 20


class NotPrime(InputError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(InputError):
    """The supplied modulus polynomial is not irreducible over GF(p)."""


class FieldTooLarge(ResourceError):
    """p**m exceeds the desk-scale cap of 2**20 elements."""


class ZeroInverse(InputError):
    """Multiplicative inverse of zero was requested."""


class FieldMismatch(InputError):
    """Operands belong to different fields."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# dense int-list polynomials over GF(p), used only for modulus handling


def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic
    r = list(a)
    dm = len(mod) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        shift = len(r) - 1 - dm
        if lead:
            for i, c in enumerate(mod):
                r[shift + i] = (r[shift + i] - lead * c) % p
        _ptrim(r)
    return r


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(mod) - 1
    for d in range(1, deg // 2 + 1):
        for v in range(p**d):
            div, t = [0] * d + [1], v
            for i in range(d):
                div[i] = t % p
                t //= p
            if not _pmod(mod, div, p):
                return False
    return True


def _default_modulus(p: int, m: int) -> list[int]:
    """Smallest (by integer encoding) monic irreducible of degree m."""
    for v in range(p**m):
        cand, t = [0] * m + [1], v
        for i in range(m):
            cand[i] = t % p
            t //= p
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """GF(p**m) presented as GF(p)[x] modulo a monic irreducible polynomial.

    Instances are immutable in use; two Field objects compare equal when
    they have the same (p, m, modulus) descriptor, so elements may flow
    between independently constructed copies of the same field.
    """

    def __init__(self, p: int, m: int, modulus: list[int] | None = None):
        if not isinstance(p, int) or not _is_prime(p):
            raise NotPrime(f"characteristic {p!r} is not prime")
        if not isinstance(m, int) or m < 1:
            raise InputError(f"extension degree {m!r} must be a positive integer")
        q = p**m
        if q > MAX_FIELD_ORDER:
            raise FieldTooLarge(f"GF({p}^{m}) has {q} > 2^20 elements")
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            modulus = _default_modulus(p, m)
        else:
            modulus = [int(c) % p for c in modulus]
            if len(_ptrim(list(modulus))) - 1 != m or modulus[-1] != 1:
                raise InputError(f"modulus must be monic of degree {m}")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus(f"{modulus} is reducible over GF({p})")
        self.modulus = tuple(modulus)
        # reduction table: coefficients of x^t mod modulus for t = m .. 2m-2
        self._xpow: list[tuple[int, ...]] = []
        cur = [(-c) % p for c in modulus[:-1]]  # x^m
        for _ in range(max(m - 1, 0)):
            self._xpow.append(tuple(cur))
            lead = cur[-1]
            nxt = [0] + cur[:-1]
            if lead:
                for i in range(m):
                    nxt[i] = (nxt[i] - lead * modulus[i]) % p
            cur = nxt
        self._prim: FieldElement | None = None
        self._tables: tuple[list[list[int]], list[list[int]]] | None = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"

    # -- element constructors ----------------------------------------------

    def element(self, v) -> FieldElement:
        """Coerce an int encoding, a coefficient list, or an element."""
        if isinstance(v, FieldElement):
            if v.field != self:
                raise FieldMismatch(f"element of {v.field!r} used in {self!r}")
            return v
        if isinstance(v, int):
            return self.from_value(v)
        coeffs = [int(c) % self.p for c in v]
        if len(coeffs) > self.m:
            raise InputError(f"coefficient vector longer than {self.m}")
        coeffs += [0] * (self.m - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def from_value(self, v: int) -> FieldElement:
        if not 0 <= v < self.q:
            raise InputError(f"value {v} outside [0, {self.q})")
        coeffs = []
        for _ in range(self.m):
            coeffs.append(v % self.p)
            v //= self.p
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.m)

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.m - 1))

    def gen(self) -> FieldElement:
        """The polynomial generator x (equals 1 when m == 1)."""
        if self.m == 1:
            return self.one()
        return FieldElement(self, (0, 1) + (0,) * (self.m - 2))

    def elements(self):
        """All field elements in canonical ascending order."""
        for v in range(self.q):
            yield self.from_value(v)

    # -- derived structure ---------------------------------------------------

    def primitive_element(self) -> FieldElement:
        """Canonically smallest element of multiplicative order q-1."""
        if self._prim is not None:
            return self._prim
        n = self.q - 1
        if n == 1:
            self._prim = self.one()
            return self._prim
        factors = []
        t, d = n, 2
        while d * d <= t:
            if t % d == 0:
                factors.append(d)
                while t % d == 0:
                    t //= d
            d += 1
        if t > 1:
            factors.append(t)
        one = self.one()
        for v in range(1, self.q):
            g = self.from_value(v)
            if all(g ** (n // f) != one for f in factors):
                self._prim = g
                return g
        raise AssertionError("multiplicative group has no generator")  # unreachable

    def subfield_elements(self, d: int) -> list[FieldElement]:
        """Elements of the unique subfield of order p**d (requires d | m)."""
        if self.m % d != 0:
            raise InputError(f"GF({self.p}^{d}) is not a subfield of {self!r}")
        if d == self.m:
            return list(self.elements())
        t = (self.q - 1) // (self.p**d - 1)
        g = self.primitive_element() ** t
        els = {self.zero(), self.one()}
        x = g
        while x != self.one():
            els.add(x)
            x = x * g
        return sorted(els, key=lambda e: e.value())

    def extend(self) -> tuple[Field, Embedding]:
        """The quadratic extension GF(q^2) plus the embedding into it.

        The embedding sends the generator of this field to the canonically
        smallest root of this field's modulus inside GF(q^2); it respects
        addition and multiplication.
        """
        big = Field(self.p, 2 * self.m)
        return big, Embedding(self, big)

    # -- square roots --------------------------------------------------------

    def is_quadratic_residue(self, a: FieldElement) -> bool:
        """Whether a is a square in this field.  Zero counts as a square."""
        a = self.element(a)
        if self.p == 2 or a.is_zero():
            return True
        return a ** ((self.q - 1) // 2) == self.one()

    def sqrt(self, a: FieldElement) -> FieldElement | None:
        """A square root of a, or None when a is a non-residue.

        In characteristic 2 squaring is a bijection and the root is unique.
        For odd q the two roots differ by sign; Tonelli-Shanks finds one and
        the canonically smaller one is returned.
        """
        a = self.element(a)
        if a.is_zero():
            return a
        if self.p == 2:
            return a ** (self.q // 2)
        if not self.is_quadratic_residue(a):
            return None
        r = self._sqrt_tonelli(a)
        return min(r, -r, key=lambda e: e.value())

    def _sqrt_tonelli(self, a: FieldElement) -> FieldElement:
        one = self.one()
        s, e = self.q - 1, 0
        while s % 2 == 0:
            s //= 2
            e += 1
        z = next(x for x in self.elements() if not x.is_zero() and not self.is_quadratic_residue(x))
        m_, c, t, r = e, z**s, a**s, a ** ((s + 1) // 2)
        while t != one:
            i, t2 = 0, t
            while t2 != one:
                t2 = t2 * t2
                i += 1
            b = c ** (1 << (m_ - i - 1))
            m_, c = i, b * b
            t, r = t * c, r * b
        return r

    # -- integer-encoded op tables (internal, for codeword scans) -----------

    def tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """(add, mul) tables over integer encodings; built lazily."""
        if self._tables is None:
            els = list(self.elements())
            add = [[(a + b).value() for b in els] for a in els]
            mul = [[(a * b).value() for b in els] for a in els]
            self._tables = (add, mul)
        return self._tables

    # -- serialization -------------------------------------------------------

    def descriptor(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


class Embedding:
    """A ring embedding GF(q) -> GF(q^2).

    Determined by sending the source generator to the canonically smallest
    root of the source modulus inside the target; the root is located by
    scanning the order-q subfield of the target.
    """

    def __init__(self, src: Field, dst: Field):
        if dst.p != src.p or dst.m != 2 * src.m:
            raise InputError("embedding target must be the quadratic extension")
        self.src = src
        self.dst = dst
        roots = []
        for s in dst.subfield_elements(src.m):
            acc = dst.zero()
            for c in reversed(src.modulus):
                acc = acc * s + dst.from_value(c)
            if acc.is_zero():
                roots.append(s)
        if len(roots) != src.m:
            raise AssertionError("modulus does not split in the subfield")  # unreachable
        beta = min(roots, key=lambda e: e.value())
        self._pows = [dst.one()]
        for _ in range(src.m - 1):
            self._pows.append(self._pows[-1] * beta)

    def __call__(self, el: FieldElement) -> FieldElement:
        el = self.src.element(el)
        acc = self.dst.zero()
        for c, pw in zip(el.coeffs, self._pows):
            if c:
                acc = acc + pw * self.dst.from_value(c)
        return acc


def field_from_descriptor(d: dict) -> Field:
    try:
        p, m = d["p"], d["m"]
    except (KeyError, TypeError):
        raise InputError(f"bad field descriptor: {d!r}") from None
    return Field(p, m, d.get("modulus"))


class FieldElement:
    """An element of a Field; immutable dense coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- basics ---------------------------------------------------------------

    def value(self) -> int:
        """Integer encoding sum(c_i * p**i); defines the canonical order."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def _check(self, other) -> FieldElement:
        if not isinstance(other, FieldElement):
            raise FieldMismatch(f"cannot combine field element with {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch(f"mixing elements of {self.field!r} and {other.field!r}")
        return other

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.field.modulus, self.coeffs))

    def __lt__(self, other):
        return self.value() < self._check(other).value()

    def __le__(self, other):
        return self.value() <= self._check(other).value()

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        p, m = f.p, f.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        out = list(prod[:m])
        for t in range(m, 2 * m - 1):
            c = prod[t]
            if c:
                red = f._xpow[t - m]
                for i in range(m):
                    out[i] = (out[i] + c * red[i]) % p
        return FieldElement(f, tuple(out))

    def inv(self) -> FieldElement:
        if self.is_zero():
            raise ZeroInverse(f"zero has no inverse in {self.field!r}")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        return self * self._check(other).inv()

    def __pow__(self, e: int) -> FieldElement:
        if not isinstance(e, int):
            raise InputError("exponent must be an integer")
        if e < 0:
            return self.inv() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- display ------------------------------------------------------------

    def __repr__(self):
        if self.field.m == 1:
            return str(self.coeffs[0])
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.field.m - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms)
