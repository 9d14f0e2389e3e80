"""Exact arithmetic in small finite fields GF(p^m).

An element is stored as its integer encoding sum(c_i * p**i), where c_i are
its coefficients in the polynomial basis of a fixed monic irreducible
modulus.  Multiplication, inversion and powers go through exp/log tables of
a primitive element; addition is XOR in characteristic 2 and goes through a
Zech logarithm table (log(1 + g^i)) for odd p.  The tables are built on the
first arithmetic use of a field, by integer shift-and-reduce, and shared by
every Field with the same (p, m, modulus).  Field orders are capped at 2**20
because everything downstream (orbit enumeration, codeword scans, root
counting) iterates over field elements.

Hot loops elsewhere in the package work on lists of these integers through
the Field's integer operations (add, mul, axpy, dot, horner, ...), and wrap
the results back into FieldElement objects at their boundaries.

One canonical total order is used everywhere an element has to be "the
smallest" (default moduli, primitive elements, square-root tie-breaks,
evaluation-point ordering): elements compare by their integer encoding,
i.e. coefficient vectors compared from the highest degree down.  The same
encoding orders polynomials over GF(p) when a default modulus is selected.
"""

from __future__ import annotations

import itertools
import operator

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


def _prime_factors(n: int) -> list[int]:
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def _digits(v: int, p: int, m: int) -> list[int]:
    """The m base-p digits of v, least significant first."""
    out = []
    for _ in range(m):
        v, c = divmod(v, p)
        out.append(c)
    return out


def _value(digits, p: int) -> int:
    v = 0
    for c in reversed(digits):
        v = v * p + c
    return v


# ---------------------------------------------------------------------------
# dense int-list polynomials over GF(p), for modulus handling and table builds


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
            if not _pmod(mod, _digits(v, p, d) + [1], p):
                return False
    return True


def _default_modulus(p: int, m: int) -> list[int]:
    """Smallest (by integer encoding) monic irreducible of degree m."""
    for v in range(p**m):
        cand = _digits(v, p, m) + [1]
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# exp / log / Zech tables


def _int_mul(p: int, m: int, modulus: tuple[int, ...]):
    """Product of two encodings by schoolbook multiplication and reduction;
    slow, used only to find a generator before the tables exist."""
    mod = list(modulus)

    def mul(a: int, b: int) -> int:
        return _value(_pmod(_pmul(_digits(a, p, m), _digits(b, p, m), p), mod, p), p)

    return mul


def _int_pow(mul, a: int, e: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = mul(r, a)
        a = mul(a, a)
        e >>= 1
    return r


def _times_x_walk(p: int, m: int, modulus: tuple[int, ...], start: int, count: int) -> list[int]:
    """Encodings of start * x^j for 0 <= j < count, by shift-and-reduce."""
    out = [start]
    if p == 2:
        red, top, v = _value(modulus, 2), 1 << m, start
        for _ in range(count - 1):
            v <<= 1
            if v & top:
                v ^= red
            out.append(v)
        return out
    # odd p: shift the digits up and fold the top one back through the modulus
    negmod = [(-a) % p for a in modulus[:-1]]
    place = [p**j for j in range(m)]
    digits = _digits(start, p, m)
    for _ in range(count - 1):
        top = digits[-1]
        digits = [(s + top * r) % p for s, r in zip([0] + digits[:-1], negmod)]
        out.append(sum(map(operator.mul, digits, place)))
    return out


def _build_tables(p: int, m: int, modulus: tuple[int, ...]):
    """(exp, log, zech, g) for GF(p^m) with g the canonically smallest
    primitive element.

    With n = q - 1: exp[i] = g^i for 0 <= i < 2n, followed by 2n + 1 zeros;
    log[0] = 2n, so exp[log[a] + log[b]] is a * b for every pair, zero
    included.  For odd p, zech[i] = log(1 + g^i) (log[0] where that sum is
    zero), stored twice over so that any index in (-2n, 2n) reads it mod n.

    For m > 1 the powers come from shift-and-reduce walks: x generates the
    subgroup of order d = ord(x) and index e = n / d, which also contains
    g^e = x^j0.  The coset g^r <x> (r < e) is walked from g^r by
    multiplying by x, and g^(r + e*k) = g^r * x^(j0*k mod d).  Only the e
    coset leaders and the search for g use full multiplication.
    """
    q = p**m
    n = q - 1
    mul = _int_mul(p, m, modulus)
    factors = _prime_factors(n)
    g = next(
        v for v in range(1, q) if all(_int_pow(mul, v, n // f) != 1 for f in factors)
    )
    if m == 1:
        powers = [1] * n
        for i in range(1, n):
            powers[i] = powers[i - 1] * g % p
    else:
        d = n  # the order of x
        for f in factors:
            while d % f == 0 and _int_pow(mul, p, d // f) == 1:
                d //= f
        e = n // d
        subgroup = _times_x_walk(p, m, modulus, 1, d)
        j0 = subgroup.index(_int_pow(mul, g, e))
        powers = [0] * n
        leader = 1
        for r in range(e):
            walk = subgroup if r == 0 else _times_x_walk(p, m, modulus, leader, d)
            powers[r::e] = walk if j0 == 1 else [walk[j0 * k % d] for k in range(d)]
            leader = mul(leader, g)
    log = [2 * n] * q
    for i, v in enumerate(powers):
        log[v] = i
    exp = powers + powers
    exp.extend(itertools.repeat(0, 2 * n + 1))
    zech = None
    if p != 2:
        # 1 + g^i only changes the lowest digit of g^i
        zech = [log[v + 1 if v % p != p - 1 else v - (p - 1)] for v in powers]
        zech += zech
    return exp, log, zech, g


# (p, m, modulus) -> _build_tables(p, m, modulus), shared by every Field with
# that descriptor; the tables are never written after they are built.
_TABLES: dict[tuple, tuple] = {}
_TABLE_ATTRS = ("_exp", "_log", "_zech", "_g")


class Field:
    """GF(p**m) presented as GF(p)[x] modulo a monic irreducible polynomial.

    Instances are immutable in use; two Field objects compare equal when
    they have the same (p, m, modulus) descriptor, so elements may flow
    between independently constructed copies of the same field.

    Besides the FieldElement API, a Field offers arithmetic directly on
    integer encodings (add, sub, neg, mul, inv and the list kernels axpy,
    dot, horner) for loops that would otherwise allocate an element per
    operation.
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
        self._add_table: list[list[int]] | None = None

    def __getattr__(self, name):
        # Only reached for attributes not set yet: the exp/log tables are
        # fetched (or built) on first arithmetic use, not at construction.
        if name in _TABLE_ATTRS:
            key = (self.p, self.m, self.modulus)
            if key not in _TABLES:
                _TABLES[key] = _build_tables(*key)
            self._exp, self._log, self._zech, self._g = _TABLES[key]
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (
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
            if v.field is not self and v.field != self:
                raise FieldMismatch(f"element of {v.field!r} used in {self!r}")
            return v
        if isinstance(v, int):
            return self.from_value(v)
        coeffs = [int(c) % self.p for c in v]
        if len(coeffs) > self.m:
            raise InputError(f"coefficient vector longer than {self.m}")
        return FieldElement(self, _value(coeffs, self.p))

    def from_value(self, v: int) -> FieldElement:
        if not 0 <= v < self.q:
            raise InputError(f"value {v} outside [0, {self.q})")
        return FieldElement(self, v)

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def gen(self) -> FieldElement:
        """The polynomial generator x (equals 1 when m == 1)."""
        return FieldElement(self, 1 if self.m == 1 else self.p)

    def elements(self):
        """All field elements in canonical ascending order."""
        for v in range(self.q):
            yield FieldElement(self, v)

    def ints(self, els) -> list[int]:
        """Integer encodings of the given values, each coerced as element() does."""
        return [
            e.v if e.__class__ is FieldElement and e.field is self else self.element(e).v
            for e in els
        ]

    def from_ints(self, values) -> list[FieldElement]:
        """Elements for integer encodings already known to lie in [0, q)."""
        return [FieldElement(self, v) for v in values]

    # -- arithmetic on integer encodings -------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def neg(self, a: int) -> int:
        # -1 = g^((q-1)/2) for odd p; log[0] sends zero to zero
        if self.p == 2:
            return a
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroInverse(f"zero has no inverse in {self!r}")
        return self._exp[self.q - 1 - self._log[a]]

    def power(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroInverse(f"zero has no inverse in {self!r}")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def axpy(self, y: list[int], c: int, x: list[int]) -> list[int]:
        """[y_i + c * x_i] over two equally long lists of encodings."""
        exp, log = self._exp, self._log
        lc = log[c]
        if self.p == 2:
            return [yi ^ exp[lc + log[xi]] for yi, xi in zip(y, x)]
        zech, n2 = self._zech, 2 * (self.q - 1)
        out = []
        for yi, xi in zip(y, x):
            t = lc + log[xi]  # log of c * x_i; n2 or more when that is zero
            if not yi:
                out.append(exp[t])
            elif t >= n2:
                out.append(yi)
            else:
                ly = log[yi]
                out.append(exp[ly + zech[t - ly]])
        return out

    def dot(self, u: list[int], v: list[int]) -> int:
        """sum_i u_i * v_i over two equally long lists of encodings."""
        exp, log = self._exp, self._log
        acc = 0
        if self.p == 2:
            for a, b in zip(u, v):
                acc ^= exp[log[a] + log[b]]
            return acc
        add = self.add
        for a, b in zip(u, v):
            acc = add(acc, exp[log[a] + log[b]])
        return acc

    def horner(self, coeffs: list[int], x: int) -> int:
        """The polynomial with ascending coefficients coeffs, evaluated at x."""
        exp, log = self._exp, self._log
        lx = log[x]
        acc = 0
        if self.p == 2:
            for c in reversed(coeffs):
                acc = exp[log[acc] + lx] ^ c
            return acc
        add = self.add
        for c in reversed(coeffs):
            acc = add(exp[log[acc] + lx], c)
        return acc

    # -- derived structure ---------------------------------------------------

    def primitive_element(self) -> FieldElement:
        """Canonically smallest element of multiplicative order q-1."""
        return FieldElement(self, self._g)

    def subfield_elements(self, d: int) -> list[FieldElement]:
        """Elements of the unique subfield of order p**d (requires d | m)."""
        if self.m % d != 0:
            raise InputError(f"GF({self.p}^{d}) is not a subfield of {self!r}")
        t = (self.q - 1) // (self.p**d - 1)
        exp = self._exp
        return self.from_ints(sorted({0} | {exp[t * i] for i in range(self.p**d - 1)}))

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
        return self.p == 2 or a.is_zero() or self._log[a.v] % 2 == 0

    def sqrt(self, a: FieldElement) -> FieldElement | None:
        """A square root of a, or None when a is a non-residue.

        In characteristic 2 squaring is a bijection and the root a^(q/2) is
        unique.  For odd q, a = g^k is a square exactly when k is even; its
        roots are +-g^(k/2) and the canonically smaller one is returned.
        """
        a = self.element(a)
        if a.is_zero():
            return a
        if self.p == 2:
            return FieldElement(self, self.power(a.v, self.q // 2))
        k = self._log[a.v]
        if k % 2:
            return None
        r = self._exp[k // 2]
        return FieldElement(self, min(r, self.neg(r)))

    # -- integer-encoded op tables (internal, for codeword scans) -----------

    def tables(self) -> list[list[int]]:
        """The q x q addition table over integer encodings; built on first use."""
        if self._add_table is None:
            q = self.q
            self._add_table = [[self.add(a, b) for b in range(q)] for a in range(q)]
        return self._add_table

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
        # prime-field coefficients c < p encode as c in either field
        modulus = list(src.modulus)
        roots = [s.v for s in dst.subfield_elements(src.m) if not dst.horner(modulus, s.v)]
        if len(roots) != src.m:
            raise AssertionError("modulus does not split in the subfield")  # unreachable
        beta = min(roots)
        self._pows = [dst.power(beta, i) for i in range(src.m)]

    def __call__(self, el: FieldElement) -> FieldElement:
        el = self.src.element(el)
        return FieldElement(self.dst, self.dst.dot(el.to_list(), self._pows))


def field_from_descriptor(d: dict) -> Field:
    try:
        p, m = d["p"], d["m"]
    except (KeyError, TypeError):
        raise InputError(f"bad field descriptor: {d!r}") from None
    return Field(p, m, d.get("modulus"))


class FieldElement:
    """An element of a Field, held as its integer encoding v in [0, q)."""

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v: int):
        self.field = field
        self.v = v

    # -- basics ---------------------------------------------------------------

    def value(self) -> int:
        """Integer encoding sum(c_i * p**i); defines the canonical order."""
        return self.v

    def to_list(self) -> list[int]:
        """Coefficients c_0 .. c_{m-1} in the polynomial basis."""
        return _digits(self.v, self.field.p, self.field.m)

    def is_zero(self) -> bool:
        return not self.v

    def __bool__(self):
        return bool(self.v)

    def _check(self, other) -> FieldElement:
        if not isinstance(other, FieldElement):
            raise FieldMismatch(f"cannot combine field element with {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"mixing elements of {self.field!r} and {other.field!r}")
        return other

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.v == other.v
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash(self.v)

    def __lt__(self, other):
        return self.v < self._check(other).v

    def __le__(self, other):
        return self.v <= self._check(other).v

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            other = self._check(other)
        if f.p == 2:
            return FieldElement(f, self.v ^ other.v)
        return FieldElement(f, f.add(self.v, other.v))

    def __sub__(self, other):
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            other = self._check(other)
        if f.p == 2:
            return FieldElement(f, self.v ^ other.v)
        return FieldElement(f, f.sub(self.v, other.v))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.v))

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            other = self._check(other)
        log = f._log
        return FieldElement(f, f._exp[log[self.v] + log[other.v]])

    def inv(self) -> FieldElement:
        return FieldElement(self.field, self.field.inv(self.v))

    def __truediv__(self, other):
        return self * self._check(other).inv()

    def __pow__(self, e: int) -> FieldElement:
        if not isinstance(e, int):
            raise InputError("exponent must be an integer")
        return FieldElement(self.field, self.field.power(self.v, e))

    # -- display ------------------------------------------------------------

    def __repr__(self):
        coeffs = self.to_list()
        if self.field.m == 1:
            return str(coeffs[0])
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.field.m - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms)
