"""Exact arithmetic in small finite fields GF(p^m).

An element is stored as its integer encoding sum(c_i * p**i), where c_i are
its coefficients in the polynomial basis of a fixed monic irreducible
modulus.  Multiplication, inversion and powers go through exp/log tables of
a primitive element; addition is XOR in characteristic 2 and goes through a
Zech logarithm table (log(1 + g^i)) for odd p.  The tables are built on the
first arithmetic use of a field and shared by every Field with the same
(p, m, modulus).  In characteristic 2 the powers of the primitive element
are built a block at a time, as big-int words: a vector of encodings is one
int with symbol j in a byte-aligned slot (8, 16 or 32 bits), and the same
packed layout and times-x kernel serve Field.combiner, which for m <= 8
keeps each row's products with every constant; for odd p it keeps them
too, in most fields of at most 256 elements, with one byte per digit.  Odd
p walks cosets of x digit by digit.  Field orders are capped at 2**20
because everything downstream (orbit enumeration, codeword scans, root
counting) iterates over field elements.

Code instances and affine-map subgroups store their elements as these
integers and work on them through the Field's integer operations (add, mul,
sqrt, axpy, dot, horner, ...); FieldElement objects appear only at the
public API, and each of their operators is one call to the integer
operation of the same name after the field check.  from_ints and
from_int, which hand out encode's word and repair's symbol, return a
field's shared elements when q <= 256, one per value and built on first
use; elements are never written after construction, so sharing is safe.
Specs and dumps carry elements as lists of exactly m digits; json_element
and json_int are the one reader of their JSON values, and json_text, which
writes the bytes of json.dumps(sort_keys=True, indent=2), their one writer.

A given modulus, and each candidate for the default one, is proven
irreducible by Ben-Or's criterion (M. Ben-Or, "Probabilistic algorithms in
finite fields", FOCS 1981): a monic f of degree m over GF(p) is irreducible
exactly when gcd(x^(p^i) - x, f) = 1 for i = 1 .. m // 2.  That takes m // 2
Frobenius steps and gcds, where trial division took every monic polynomial
of degree up to m / 2.

One canonical total order is used everywhere an element has to be "the
smallest" (default moduli, primitive elements, square-root tie-breaks,
evaluation-point ordering): elements compare by their integer encoding,
i.e. coefficient vectors compared from the highest degree down.  The same
encoding orders polynomials over GF(p) when a default modulus is selected.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import sys

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


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise InputError(f"{n} has no prime factor")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _prime_factors(n: int) -> list[int]:
    factors = []
    while n > 1:
        factors.append(smallest_prime_factor(n))
        while n % factors[-1] == 0:
            n //= factors[-1]
    return factors


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p**m.  Raises FieldTooLarge for q > 2**20, before q
    is factored, and InputError when q is not a prime power."""
    if q > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"q = {q} exceeds 2^20")
    p = smallest_prime_factor(q)
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise InputError(f"q = {q} is not a prime power")
    return p, m


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


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of two trimmed polynomials, by Euclid's algorithm.  Each divisor
    is made monic first: that leaves the remainder unchanged."""
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, _pmod(a, [c * inv % p for c in b], p)
    return a


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Ben-Or's test: a monic f of degree m over GF(p) is irreducible exactly
    when gcd(x^(p^i) - x mod f, f) = 1 for i = 1 .. m // 2.

    An irreducible factor of degree d divides x^(p^d) - x, and a reducible f
    has one with d <= m / 2; an irreducible f of degree m shares no factor
    with x^(p^i) - x for 0 < i < m.  x^(p^i) comes from x^(p^(i-1)) by one
    p-th power mod f, by square-and-multiply.
    """
    h = [0, 1]  # x^(p^i) mod f, from i = 0
    for _ in range((len(mod) - 1) // 2):
        base, e, h = h, p, [1]
        while e:
            if e & 1:
                h = _pmod(_pmul(h, base, p), mod, p)
            e >>= 1
            if e:
                base = _pmod(_pmul(base, base, p), mod, p)
        diff = h + [0] * (2 - len(h))  # h - x
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(mod, _ptrim(diff), p)) != 1:
            return False
    return True


def _default_modulus(p: int, m: int) -> list[int]:
    """Smallest (by integer encoding) monic irreducible of degree m."""
    for v in range(p**m):
        cand = _digits(v, p, m) + [1]
        if _checked_modulus(p, m, tuple(cand)):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


@functools.cache
def _checked_modulus(p: int, m: int, modulus: tuple[int, ...] | None) -> tuple[int, ...] | None:
    """The modulus of Field(p, m, modulus), None if reducible, found once per process."""
    if modulus is None:
        return tuple(_default_modulus(p, m))
    return modulus if _is_irreducible(list(modulus), p) else None


# ---------------------------------------------------------------------------
# exp / log / Zech tables


def _slot_width(m: int) -> int:
    """Bits per symbol in a packed vector of GF(2^m) encodings: the
    smallest of 8, 16 and 32 that holds m bits (m <= 20 by the cap)."""
    return 8 if m <= 8 else 16 if m <= 16 else 32


_SLOT_FORMAT = {8: "B", 16: "H", 32: "I"}
_LITTLE = sys.byteorder == "little"


def _pack(values, s: int) -> int:
    """The values, each below 2**s, as one int: value j in bits
    [s*j, s*j + s).  One pass over the values, where shifting an
    accumulating int by s per value takes time quadratic in their count."""
    if s == 8:
        return int.from_bytes(bytes(values), "little")
    buf = bytearray(len(values) * s // 8)
    slots = memoryview(buf).cast(_SLOT_FORMAT[s])
    # a big-endian int puts its low bits last, so the slots go in reversed
    for j, x in enumerate(values if _LITTLE else reversed(values)):
        slots[j] = x
    return int.from_bytes(buf, sys.byteorder)


def _unpack(v: int, s: int, count: int) -> list[int]:
    """Slots 0 .. count - 1 of v, s bits each; v must be below 2**(s*count)."""
    slots = memoryview(v.to_bytes(count * s // 8, sys.byteorder)).cast(_SLOT_FORMAT[s])
    return (slots if _LITTLE else slots[::-1]).tolist()


def _slot_tops(s: int, m: int, count: int) -> int:
    """Bit m - 1 of each of count s-bit slots, the top bit of a symbol."""
    return ((1 << s * count) - 1) // ((1 << s) - 1) << (m - 1)


def _digit_codec(p: int, m: int):
    """Field.combiner's byte-digit layout for odd p, with M the smallest of
    1, 2, 4 and 8 that is at least m: digit i of symbol j of a packed
    vector is byte M*j + i of its little-endian bytes.  Returns each
    encoding's M bytes, the map back to encodings from a symbol's M bytes
    read in native byte order (the memoryview cast that decodes, format
    fmt), fmt, and the 256-byte table of b mod p.  Requires m <= 8."""
    size, fmt = 1 << (m - 1).bit_length(), "BHIQ"[(m - 1).bit_length()]
    codes = [bytes(_digits(v, p, m) + [0] * (size - m)) for v in range(p**m)]
    decode = dict(zip(memoryview(b"".join(codes)).cast(fmt), range(p**m)))
    return codes, decode, fmt, bytes(b % p for b in range(256))


def _times_x(v: int, top: int, m: int, red: int) -> int:
    """Every symbol of the packed vector v times x in GF(2^m); top marks
    bit m - 1 of every slot (_slot_tops), red is the modulus without x^m.

    Each slot shifts up by one bit, and those whose top bit was set get red
    folded back in: hi >> (m - 1) has a 1 at the bottom of each such slot,
    and its product with red (below 2**m) places red there without a carry,
    since the slots are at least m bits apart.
    """
    hi = v & top
    return (v ^ hi) << 1 ^ (hi >> (m - 1)) * red


def _int_mul(p: int, m: int, modulus: tuple[int, ...]):
    """Product of two encodings without the tables, used only to find a
    generator before they exist: for p = 2 a carry-less product by
    shift-and-reduce (_times_x on one slot), otherwise schoolbook
    multiplication of digit lists and reduction."""
    mod = list(modulus)
    if p == 2:
        top, red = 1 << (m - 1), _value(mod[:-1], 2)

        def mul(a: int, b: int) -> int:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a = _times_x(a, top, m, red)
            return r

        return mul

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


def _x_multiples(v: int, top: int, m: int, red: int) -> list[int]:
    """[v, v*x, .., v*x^(m-1)] for the packed vector v, each one _times_x
    of the last.  v times a constant c, symbol by symbol, is the XOR of
    these over the set bits of c, since multiplying is GF(2)-linear."""
    out = [v]
    for _ in range(m - 1):
        v = _times_x(v, top, m, red)
        out.append(v)
    return out


def _times_constant(multiples: list[int], c: int) -> int:
    """A packed vector times c, from its _x_multiples."""
    acc = 0
    while c:
        low = c & -c
        acc ^= multiples[low.bit_length() - 1]
        c ^= low
    return acc


# powers per packed tile in _gf2_powers: ints of 4 to 16 KB
_TILE = 4096


def _gf2_powers(m: int, modulus: tuple[int, ...], g: int) -> list[int]:
    """g^0 .. g^(q-2) in GF(2^m), in packed tiles of B = min(q - 1, _TILE)
    powers.

    The first tile is built by doubling: with g^0 .. g^(size-1) in, the
    next size powers are those times g^size.  Each later tile is the first
    one times g^(j*B), from the first one's multiples by x^b, formed once.
    Doubling one int all the way to q - 1 powers was five times slower at
    m = 20, where its ints reach megabytes.
    """
    n = (1 << m) - 1
    s, red, width = _slot_width(m), _value(modulus[:-1], 2), min(n, _TILE)
    top, mul = _slot_tops(s, m, width), _int_mul(2, m, modulus)
    tile, size, g_size = 1, 1, g
    while size < width:
        count = min(size, width - size)
        new = _x_multiples(tile & (1 << s * count) - 1, top, m, red)
        tile |= _times_constant(new, g_size) << s * size
        size += count
        g_size = mul(g_size, g_size)
    powers, multiples, c = _unpack(tile, s, width), _x_multiples(tile, top, m, red), g_size
    while len(powers) < n:  # width is _TILE here, a power of two, so g_size = g^width
        powers += _unpack(_times_constant(multiples, c), s, width)
        c = mul(c, g_size)
    del powers[n:]
    return powers


def _times_x_walk(p: int, m: int, modulus: tuple[int, ...], start: int, count: int) -> list[int]:
    """Encodings of start * x^j for 0 <= j < count in GF(p^m), p odd, by
    shifting the digits up and folding the top one back through the modulus."""
    out = [start]
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

    For p = 2 the powers come from _gf2_powers.  For odd p and m > 1 they
    come from shift-and-reduce walks: x generates the subgroup of order
    d = ord(x) and index e = n / d, which also contains g^e = x^j0.  The
    coset g^r <x> (r < e) is walked from g^r by multiplying by x, and
    g^(r + e*k) = g^r * x^(j0*k mod d).  Only the e coset leaders and the
    search for g use full multiplication.
    """
    q = p**m
    n = q - 1
    mul = _int_mul(p, m, modulus)
    factors = _prime_factors(n)
    g = next(
        v for v in range(1, q) if all(_int_pow(mul, v, n // f) != 1 for f in factors)
    )
    if p == 2:
        powers = _gf2_powers(m, modulus, g)
    elif m == 1:
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
    integer encodings (add, sub, neg, mul, inv, sqrt, subfield_elements and
    the list kernels axpy, dot, horner and combiner) for loops that would
    otherwise allocate an element per operation.  combiner fixes its rows
    and returns a function of the coefficients; it combines whole rows as
    packed integers, by XOR in characteristic 2 and by adding byte digits
    for odd p in fields of at most 256 elements, p >= 131 and GF(243)
    aside.
    """

    def __init__(self, p: int, m: int, modulus: list[int] | None = None):
        p, m = json_int(p), json_int(m)  # no bool or float slips through
        if modulus is not None:
            modulus = [json_int(c) for c in modulus]
        if p > MAX_FIELD_ORDER:  # checked before the trial division of p below
            raise FieldTooLarge(f"characteristic {p} alone exceeds 2^20")
        if p < 2 or smallest_prime_factor(p) != p:
            raise NotPrime(f"characteristic {p!r} is not prime")
        if m < 1:
            raise InputError(f"extension degree {m!r} must be a positive integer")
        # p >= 2, so q >= 2^m: a huge m fails before q = p^m is formed.
        if m > MAX_FIELD_ORDER.bit_length() - 1 or p**m > MAX_FIELD_ORDER:
            raise FieldTooLarge(f"GF({p}^{m}) has more than 2^20 elements")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            modulus = _checked_modulus(p, m, None)
        else:
            if not all(0 <= c < p for c in modulus):
                raise InputError(f"modulus coefficients {modulus} outside [0, {p})")
            if len(_ptrim(list(modulus))) - 1 != m or modulus[-1] != 1:
                raise InputError(f"modulus must be monic of degree {m}")
            if not _checked_modulus(p, m, tuple(modulus)):  # None is cached, not the exception
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
        if name == "_elements":  # from_ints' shared elements, for q <= 256
            self._elements = [FieldElement(self, v) for v in range(self.q)]
            return self._elements
        if name == "_digit_codec":  # combiner's odd-p packing
            self._digit_codec = _digit_codec(self.p, self.m)
            return self._digit_codec
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
        """Coerce an int encoding, a list of digits read by json_element's
        rule, or an element."""
        if isinstance(v, FieldElement):
            if v.field is not self and v.field != self:
                raise FieldMismatch(f"element of {v.field!r} used in {self!r}")
            return v
        if isinstance(v, int):
            return self.from_value(v)
        return FieldElement(self, json_element(self)(v))

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
        q = self.q
        return [
            e if e.__class__ is int and 0 <= e < q
            else e.v if e.__class__ is FieldElement and e.field is self
            else self.element(e).v
            for e in els
        ]

    def from_ints(self, values) -> list[FieldElement]:
        """Elements for integer encodings already known to lie in [0, q).
        When q <= 256 they are this Field's shared elements, one per value."""
        if self.q > 256:
            return [FieldElement(self, v) for v in values]
        return list(map(self._elements.__getitem__, values))

    def from_int(self, v: int) -> FieldElement:
        """from_ints([v])[0], without the list."""
        return FieldElement(self, v) if self.q > 256 else self._elements[v]

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

    def combiner(self, rows, n: int):
        """The map coeffs -> sum_i coeffs[i] * rows[i] over rows of n
        encodings each; coeffs is a list of encodings.

        In characteristic 2, multiplying by a constant is GF(2)-linear, so
        the work moves into set-up: each row is packed once into one int,
        symbol j in the byte-aligned slot [s*j, s*j + m) with s the smallest
        of 8, 16 and 32 that is at least m (_pack), and row * x^b is kept
        for b < m, each one a packed shift-and-reduce (_times_x) of the
        last.  A combination is then the XOR of row * x^b over the set bits
        b of each coefficient, unpacked through its bytes (_unpack).  When
        m <= 8 each row keeps its products with every c < 2^m instead, the
        table for c < 2^(b+1) being the one for c < 2^b followed by it XOR
        row * x^b, so a coefficient costs one lookup and one XOR; the
        tables hold k * 2^m packed rows, about 16 MB at q = 256, n = 256,
        k = 200, so wider fields keep the bit loop.

        For odd p each digit gets a byte of its own, so packed rows add
        digit by digit without carries while no byte passes 255: symbol j
        takes bytes [M*j, M*j + M), M the smallest of 1, 2, 4 and 8 that is
        at least m, and bytes.translate through a 256-byte table of b mod p
        reduces every digit at once (_digit_codec).  Each row keeps its
        products with every c < q: for c = c' + d * p^i with c' < p^i the
        entry is entry c' plus row * d * x^i, the multiples of row * x^i
        reduced as they are formed and the sums not, so an entry's digits
        are at most m * (p - 1).  A combination adds one entry per
        coefficient, reduces before the digit sums could pass a byte, then
        decodes once: translate, cast to M-byte symbols, and a dict from
        those to encodings, built through the same cast so that it holds in
        either byte order.  The tables apply when (m + 1) * (p - 1) <= 255,
        so a reduced sum and an entry fit a byte, and q * M <= 512, so a
        table row is at most twice one of GF(256); of the odd q <= 256 that
        leaves out GF(243) and the prime fields p >= 131, which, like every
        larger field, run one axpy pass per nonzero coefficient.
        """
        p, m, q = self.p, self.m, self.q
        log_width = (m - 1).bit_length()  # bytes per odd-p symbol: 1 << log_width
        if p != 2 and (m + 1) * (p - 1) <= 255 and q << log_width <= 512:
            codes, decode, fmt, modp = self._digit_codec
            size = n << log_width
            exp, log = self._exp, self._log

            def reduce(v: int) -> int:
                return int.from_bytes(v.to_bytes(size, "little").translate(modp), "little")

            tables = []
            for row in rows:
                products = [0]
                for i in range(m):
                    li = log[p**i]
                    x = int.from_bytes(b"".join([codes[exp[log[v] + li]] for v in row]), "little")
                    steps = [x]  # row * d * x^i for d = 1 .. p - 1, reduced
                    for _ in range(p - 2):
                        steps.append(reduce(steps[-1] + x))
                    products += [t + s for s in steps for t in products]
                tables.append(products)
            # an entry's digits are at most m * (p - 1), a reduced sum's p - 1
            first, span = 255 // (m * (p - 1)), (256 - p) // (m * (p - 1))

            def combine(coeffs):
                acc = sum(map(list.__getitem__, tables[:first], coeffs[:first]))
                for j in range(first, len(tables), span):
                    acc = reduce(acc) + sum(
                        map(list.__getitem__, tables[j : j + span], coeffs[j : j + span])
                    )
                digits = acc.to_bytes(size, "little").translate(modp)
                return list(map(decode.__getitem__, memoryview(digits).cast(fmt)))

            return combine
        if p != 2:
            axpy = self.axpy

            def combine(coeffs):
                out = [0] * n
                for c, row in zip(coeffs, rows):
                    if c:
                        out = axpy(out, c, row)
                return out

            return combine
        s = _slot_width(m)
        red, top = _value(self.modulus[:-1], 2), _slot_tops(s, m, n)
        tables = [_x_multiples(_pack(row, s), top, m, red) for row in rows]
        if m <= 8:
            for i, times_x in enumerate(tables):
                products = [0]
                for x in times_x:
                    products += [t ^ x for t in products]
                tables[i] = products

            def combine(coeffs):
                acc = 0
                for c, products in zip(coeffs, tables):
                    acc ^= products[c]
                return _unpack(acc, s, n)

            return combine

        def combine(coeffs):
            acc = 0
            for c, times_x in zip(coeffs, tables):
                # _times_constant inlined: a call per coefficient made a
                # flagship combination about 30% slower
                while c:
                    low = c & -c
                    acc ^= times_x[low.bit_length() - 1]
                    c ^= low
            return _unpack(acc, s, n)

        return combine

    # -- derived structure ---------------------------------------------------

    def subfield_elements(self, d: int) -> list[int]:
        """Encodings of the unique subfield of order p**d (requires d | m), ascending."""
        if self.m % d != 0:
            raise InputError(f"GF({self.p}^{d}) is not a subfield of {self!r}")
        t = (self.q - 1) // (self.p**d - 1)
        exp = self._exp
        return sorted({0} | {exp[t * i] for i in range(self.p**d - 1)})

    def extend(self) -> tuple[Field, Embedding]:
        """The quadratic extension GF(q^2) plus the embedding into it.

        The embedding sends the generator of this field to the canonically
        smallest root of this field's modulus inside GF(q^2); it respects
        addition and multiplication.  The field is immutable, so the pair is
        built on the first call and shared by every later one.
        """
        if "_extension" not in self.__dict__:
            big = Field(self.p, 2 * self.m)
            self._extension = big, Embedding(self, big)
        return self._extension

    # -- square roots --------------------------------------------------------

    def is_quadratic_residue(self, a: int) -> bool:
        """Whether the encoding a is a square in this field.  Zero counts as a square."""
        return self.p == 2 or not a or self._log[a] % 2 == 0

    def sqrt(self, a: int) -> int | None:
        """A square root of the encoding a, or None when a is a non-residue.

        In characteristic 2 squaring is a bijection and the root a^(q/2) is
        unique.  For odd q, a = g^k is a square exactly when k is even; its
        roots are +-g^(k/2) and the canonically smaller one is returned.
        """
        if not a:
            return 0
        if self.p == 2:
            return self.power(a, self.q // 2)
        k = self._log[a]
        if k % 2:
            return None
        r = self._exp[k // 2]
        return min(r, self.neg(r))

    # -- integer-encoded op tables (internal, for codeword scans) -----------

    def tables(self) -> list[list[int]]:
        """The q x q addition table over integer encodings; built on first use."""
        if self._add_table is None:
            q = self.q
            self._add_table = [[self.add(a, b) for b in range(q)] for a in range(q)]
        return self._add_table

    # -- display and serialization -------------------------------------------

    def show(self, v: int) -> str:
        """The encoding v as a polynomial in the generator a, highest degree
        first ("a^2+1"); how a FieldElement prints."""
        coeffs = _digits(v, self.p, self.m)
        if self.m == 1:
            return str(coeffs[0])
        if not v:
            return "0"
        terms = []
        for i in range(self.m - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms)

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
        roots = [s for s in dst.subfield_elements(src.m) if not dst.horner(modulus, s)]
        if len(roots) != src.m:
            raise AssertionError("modulus does not split in the subfield")  # unreachable
        beta = min(roots)
        self._pows = [dst.power(beta, i) for i in range(src.m)]

    def __call__(self, v: int) -> int:
        """The image of the source encoding v, as an encoding of the target."""
        return self.dst.dot(_digits(v, self.src.p, self.src.m), self._pows)


# ---------------------------------------------------------------------------
# the JSON codec of specs and dumps: one set of reading rules for both


def json_int(value) -> int:
    """A count, index, exponent or digit read from JSON: a JSON integer, not
    a bool, a float or a string, which int() would truncate or parse."""
    if value.__class__ is not int:
        raise InputError(f"entry {value!r} is not an integer")
    return value


def json_element(fld: Field):
    """Decoder of JSON field elements of fld to integer encodings: a list of
    exactly m int digits, each in [0, p), lowest degree first.  A short list
    is not padded with zeros, which would hide a digit cut from the input."""
    p, m = fld.p, fld.m

    def element(digits) -> int:
        if digits.__class__ is not list or len(digits) != m:
            raise InputError(f"element {digits!r} is not a list of {m} digits")
        value = 0  # _value's loop, checking each digit as it goes
        for c in reversed(digits):
            if c.__class__ is not int or not 0 <= c < p:
                raise InputError(f"coefficient {c!r} of {digits} outside [0, {p})")
            value = value * p + c
        return value

    return element


def json_text(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2), the one format
    in which specs, dumps and reports are written, for trees of dicts with
    str keys, lists, tuples, str, int, float, bool and None.

    json's indenting encoder is pure Python.  Here a list whose entries are
    all ints, such as an element's digits, is rendered once per distinct
    content and depth and reused; the memo checks the entries' class, since
    True == 1 and 1.0 == 1 would otherwise share a key.  A list whose
    entries are all lists of ints (a generator row, the points, u, blocks,
    s1) is written in one pass: its classes are checked in C, and each
    distinct entry's text, separator included, is rendered once per depth
    and the texts appended by one extend.  No row is joined into a string
    of its own, which would hold a second copy of a large dump's rows.
    Other leaves go through json.dumps itself.
    """
    memo: dict[tuple, str] = {}
    entries: dict[int, dict[tuple, str]] = {}  # depth -> ints -> ",\n" + indent + text
    out: list[str] = []

    def ints(key: tuple, depth: int) -> str:
        text = memo.get((key, depth))
        if text is None:
            inner = "\n" + "  " * (depth + 1)
            text = memo[key, depth] = (
                "[" + inner + ("," + inner).join(map(int.__repr__, key))
                + "\n" + "  " * depth + "]"
                if key
                else "[]"
            )
        return text

    def write(o, depth: int) -> None:
        if isinstance(o, (list, tuple)):
            if not o:
                out.append("[]")
                return
            inner = "\n" + "  " * (depth + 1)
            if all(x.__class__ is int for x in o):
                out.append(ints(tuple(o), depth))
                return
            if set(map(type, o)) == {list} and set(
                map(type, itertools.chain.from_iterable(o))
            ) <= {int}:
                texts, keys = entries.setdefault(depth, {}), list(map(tuple, o))
                for key in set(keys).difference(texts):
                    texts[key] = "," + inner + ints(key, depth + 1)
                out.append("[")
                start = len(out)
                out.extend(map(texts.__getitem__, keys))
                out[start] = out[start][1:]  # the first entry has no comma
                out.append("\n" + "  " * depth + "]")
                return
            out.append("[")
            sep = inner
            for x in o:
                out.append(sep)
                write(x, depth + 1)
                sep = "," + inner
            out.append("\n" + "  " * depth + "]")
        elif isinstance(o, dict):
            if not o:
                out.append("{}")
                return
            inner = "\n" + "  " * (depth + 1)
            out.append("{")
            sep = inner
            for k in sorted(o):
                if k.__class__ is not str:
                    raise TypeError(f"key {k!r} is not a str")
                out.append(sep + json.dumps(k) + ": ")
                write(o[k], depth + 1)
                sep = "," + inner
            out.append("\n" + "  " * depth + "}")
        else:
            out.append(json.dumps(o))

    write(obj, 0)
    return "".join(out)


def field_from_descriptor(d: dict) -> Field:
    """The field of a spec or dump descriptor {p, m, modulus (optional)},
    every number read by json_int."""
    try:
        return Field(d["p"], d["m"], d.get("modulus"))
    except (KeyError, TypeError):
        raise InputError(f"bad field descriptor: {d!r}") from None


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

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.v, self._check(other).v))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.v, self._check(other).v))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.v))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.v, self._check(other).v))

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
        return self.field.show(self.v)
