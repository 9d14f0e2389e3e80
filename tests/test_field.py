"""Field arithmetic against independent oracles.

Prime fields are checked exhaustively against plain modular integers;
extension fields against polynomial identities (Frobenius, Fermat, order
counts) that do not reuse the implementation under test, and, by property
tests, against coefficient-vector arithmetic (schoolbook product reduced by
the modulus) that shares nothing with the exp/log/Zech tables.
"""

import functools
import json
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import Field, Xorshift64Star, field_from_descriptor
from qlrc import field as field_mod
from qlrc.errors import InputError
from qlrc.field import (
    FieldElement,
    FieldMismatch,
    FieldTooLarge,
    NotPrime,
    ReducibleModulus,
    ZeroInverse,
    json_text,
)

from conftest import primitive_element


def test_default_moduli_are_canonical_smallest():
    # frozen: smallest irreducible by ascending integer encoding
    expected = {
        (2, 2): (1, 1, 1),
        (2, 3): (1, 1, 0, 1),
        (2, 4): (1, 1, 0, 0, 1),
        (2, 5): (1, 0, 1, 0, 0, 1),
        (3, 2): (1, 0, 1),
        (3, 3): (1, 2, 0, 1),
        (5, 2): (2, 0, 1),
        (2, 16): (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),  # x^16 + x^5 + x^3 + x + 1
    }
    for (p, m), mod in expected.items():
        assert Field(p, m).modulus == mod


def test_modulus_is_verified_irreducible():
    with pytest.raises(ReducibleModulus):
        Field(2, 4, [1, 0, 0, 0, 1])  # x^4 + 1 = (x + 1)^4
    with pytest.raises(ReducibleModulus):
        Field(3, 2, [1, 2, 1])  # (x + 1)^2
    with pytest.raises(InputError):
        Field(3, 2, [1, 0, 0, 1])  # wrong degree
    Field(2, 5, [1, 0, 0, 1, 0, 1])  # x^5 + x^3 + 1: a valid alternative


def test_ben_or_runs_once_per_modulus(monkeypatch):
    """A process checks each modulus once, the default search's included; a
    reducible one still raises on every construction, named as a list."""
    f = Field(2, 16)
    calls = []
    real = field_mod._is_irreducible
    monkeypatch.setattr(field_mod, "_is_irreducible", lambda mod, p: calls.append(mod) or real(mod, p))
    assert Field(2, 16).modulus == Field(2, 16, list(f.modulus)).modulus == f.modulus
    assert calls == []
    square = [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1]  # (x^8 + x^4 + x^3 + 1)^2
    for _ in range(2):
        with pytest.raises(ReducibleModulus, match=r"^\[1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0"):
            Field(2, 16, square)
    assert len(calls) <= 1


def _monic(v, p, m):
    """The monic polynomial of degree m whose lower digits encode v."""
    return [v // p**i % p for i in range(m)] + [1]


def _divides_none(f, p):
    """Trial division of f by every monic polynomial of degree 1 .. deg f // 2:
    the reference that Ben-Or's test replaced."""
    deg = len(f) - 1
    return all(
        field_mod._pmod(f, _monic(v, p, d), p)
        for d in range(1, deg // 2 + 1)
        for v in range(p**d)
    )


@pytest.mark.parametrize("p,top", [(2, 12), (3, 7), (5, 5), (7, 4), (11, 3)])
def test_ben_or_agrees_with_trial_division(p, top):
    """Every monic polynomial of degree 1 .. top gets trial division's verdict."""
    for m in range(1, top + 1):
        for v in range(p**m):
            f = _monic(v, p, m)
            assert field_mod._is_irreducible(f, p) == _divides_none(f, p), f


def test_default_modulus_is_smallest_irreducible_by_trial_division():
    """For every prime p <= 1024 and every m with p^m <= 2^20 (414 pairs),
    the default modulus is the first monic polynomial, by integer encoding,
    that no monic polynomial of degree 1 .. m // 2 divides."""
    primes = [p for p in range(2, 1025) if field_mod.smallest_prime_factor(p) == p]
    pairs = [(p, m) for p in primes for m in range(1, 21) if p**m <= field_mod.MAX_FIELD_ORDER]
    assert len(pairs) == 414
    for p, m in pairs:
        smallest = next(f for f in (_monic(v, p, m) for v in range(p**m)) if _divides_none(f, p))
        assert field_mod._default_modulus(p, m) == smallest, (p, m)


def test_digits_outside_the_prime_field_are_rejected():
    """A digit is not reduced mod p: [2, 0, 0] is not an encoding of 0 in GF(8)."""
    f = Field(2, 3)
    for digits in ([2, 0, 0], [1, 0, 3], [-1, 0, 0], [0, 0, 2]):
        with pytest.raises(InputError, match=r"outside \[0, 2\)"):
            f.element(digits)
    assert Field(3, 2).element([2, 2]).value() == 8
    with pytest.raises(InputError, match=r"outside \[0, 2\)"):
        Field(2, 3, [3, 3, 2, 3])  # x^3 + x + 1 once reduced mod 2
    with pytest.raises(InputError, match=r"outside \[0, 3\)"):
        Field(3, 2, [-1, 2, 1])


def test_bad_parameters_rejected():
    with pytest.raises(NotPrime):
        Field(6, 1)
    with pytest.raises(NotPrime):
        Field(1, 3)
    for p in (-3, 0, 9, 221):
        with pytest.raises(NotPrime, match=f"^characteristic {p} is not prime$"):
            Field(p, 1)
    for p, m in ((2, 21), (3, 13)):  # m past the cap; m within it but p^m past it
        with pytest.raises(FieldTooLarge):
            Field(p, m)
    # p past the cap fails before its trial division, which for the prime
    # 2^61 - 1 does not end
    for p in ((1 << 20) + 7, 2**61 - 1, 3 * (2**61 - 1)):
        with pytest.raises(FieldTooLarge, match=rf"^characteristic {p} alone exceeds 2\^20$"):
            Field(p, 1)


def test_prime_power():
    assert [field_mod.prime_power(q) for q in (2, 8, 9, 1 << 20, 1021)] == [
        (2, 1), (2, 3), (3, 2), (2, 20), (1021, 1)
    ]
    for q in (1, 12, (1 << 20) - 1):
        with pytest.raises(InputError):
            field_mod.prime_power(q)
    for q in ((1 << 20) + 1, 2**61 - 1, 6 << 20):  # capped before any factoring
        with pytest.raises(FieldTooLarge, match=rf"^q = {q} exceeds 2\^20$"):
            field_mod.prime_power(q)


@pytest.mark.parametrize("m", [21, 20000, 10**9])
def test_huge_degree_is_rejected_before_q_is_formed(m):
    """2^20000 once reached the FieldTooLarge message as a 6021-digit
    number, past Python's integer-to-string limit; m > 20 now fails before
    q = p^m exists, and a composite p still fails as NotPrime first."""
    with pytest.raises(FieldTooLarge, match=rf"^GF\(2\^{m}\) has more than 2\^20 elements$"):
        Field(2, m)
    with pytest.raises(NotPrime):
        Field(4, m)


@pytest.mark.parametrize(
    "args",
    [(2, True), (True, 1), (2.0, 3), (2, 3.0), ("2", 3), (2, 3, [1, True, 0, 1]), (2, 3, [1, 1.0, 0, 1])],
)
def test_field_parameters_are_json_integers(args):
    """p, m and the modulus digits are read by json_int: Field(2, True) is
    not GF(2), and a bool or float digit is not a digit."""
    with pytest.raises(InputError, match="is not an integer"):
        Field(*args)


@pytest.mark.parametrize("digits", [[1], [1, 0], [1.9, 0, 0], [1, 0, 0.0], [True, 0, 0], (1, 0, 0), [1, 0, 0, 0]])
def test_element_reads_digit_lists_strictly(digits):
    """A digit list is exactly m int digits, as json_element reads it: a
    short list is not padded and a float is not truncated."""
    with pytest.raises(InputError):
        Field(2, 3).element(digits)
    assert Field(2, 3).element([1, 0, 1]).value() == 5


JSON_TREES = [
    [],
    {},
    [[]],
    {"a": [], "b": {}, "c": [[], {}]},
    "quote \" backslash \\ newline \n tab \t bell \x07 nul \x00 del \x7f é 中 \U0001f600",
    {"key \"\\\n é": ["\x1f", "/"]},
    [[True, 0], [1, 0], [True, 0]],  # True == 1 and they hash alike
    [[1.0], [1], [1.0]],
    [0.1, -0.0, 1e300, [0.1]],
    [-(10**40), [-(10**40), -1], -1],
    {"a": [3, 4], "b": [[3, 4]], "c": [[[3, 4]]], "d": [3, 4]},  # one int list at three depths
    [None, False, True, 0, "", [None, False]],
    ([1, 2], (1, 2)),
    # lists of lists that the list-of-int-lists pass must reject or render as json does
    [[1, 0], [True, 0]],
    [[1, 0], [1.0, 0]],
    [[1, 0], (1, 0)],
    [[1, 0], []],
    [[], []],
    [[[1, 0]], [1, 0]],
    {"a": [[3, 4], [5, 6]], "b": [[[3, 4], [5, 6]]], "c": [3, 4]},  # one int list at two depths
    [[(i * 7 + j) % 5 for j in range(10)] for i in range(1024)],  # a 1024 x 10 digit matrix
]


@pytest.mark.parametrize("tree", JSON_TREES)
def test_json_text_writes_the_bytes_of_json_dumps(tree):
    """json_text is json.dumps(sort_keys=True, indent=2), at the top level
    and nested, whatever it has rendered before."""
    for obj in (tree, [tree], {"z": [tree, 1], "a": {"k": tree}}, JSON_TREES):
        assert json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_prime_field_matches_int_arithmetic():
    f = Field(7, 1)
    for av in range(7):
        for bv in range(7):
            a, b = f.from_value(av), f.from_value(bv)
            assert (a + b).value() == (av + bv) % 7
            assert (a - b).value() == (av - bv) % 7
            assert (a * b).value() == (av * bv) % 7
            if bv:
                assert (a / b).value() == (av * pow(bv, 5, 7)) % 7


def test_every_nonzero_element_has_inverse():
    for p, m in [(2, 4), (3, 2), (5, 2)]:
        f = Field(p, m)
        one = f.one()
        for e in f.elements():
            if e.is_zero():
                with pytest.raises(ZeroInverse):
                    e.inv()
            else:
                assert e * e.inv() == one
                assert e / e == one


def test_fermat_and_frobenius():
    """a^q = a for all a, and x -> x^p is additive (exhaustive, GF(16), GF(27))."""
    for p, m in [(2, 4), (3, 3)]:
        f = Field(p, m)
        q = p**m
        for a in f.elements():
            assert a**q == a
        for a in f.elements():
            for b in f.elements():
                assert (a + b) ** p == a**p + b**p


def test_pow_negative_exponent():
    f = Field(3, 2)
    a = f.gen()
    assert a**-1 == a.inv()
    assert a**-3 == (a * a * a).inv()
    assert a**0 == f.one()


def test_primitive_element_frozen_and_maximal_order():
    frozen = {(2, 3): 2, (2, 4): 2, (2, 5): 2, (3, 2): 4, (3, 3): 3, (5, 2): 6, (7, 1): 3}
    for (p, m), val in frozen.items():
        f = Field(p, m)
        g = primitive_element(f)
        assert g.value() == val
        q = p**m
        seen = set()
        x = f.one()
        for _ in range(q - 1):
            seen.add(x.value())
            x = x * g
        assert len(seen) == q - 1  # g generates the whole multiplicative group


def test_quadratic_residues_gf7():
    f = Field(7, 1)
    qrs = [v for v in range(1, f.q) if f.is_quadratic_residue(v)]
    assert qrs == [1, 2, 4]


def test_char2_every_element_is_square():
    f = Field(2, 5)
    for v in range(f.q):
        assert f.is_quadratic_residue(v)
        s = f.sqrt(v)
        assert f.mul(s, s) == v


def test_sqrt_odd_field_consistency():
    """sqrt returns the canonically smaller root; squaring round-trips."""
    for p, m in [(3, 2), (5, 2), (3, 3)]:
        f = Field(p, m)
        n_res = 0
        for v in range(f.q):
            if f.is_quadratic_residue(v):
                n_res += 1
                s = f.sqrt(v)
                assert f.mul(s, s) == v
                assert s <= f.neg(s)
            else:
                assert f.sqrt(v) is None
        assert n_res == (p**m - 1) // 2 + 1  # half the units, plus zero


def _sqrt_exhaustive(f, a):
    """Reference root: scan the field for x with x * x == a."""
    for x in f.elements():
        if x * x == a:
            return x
    return None


def test_sqrt_tonelli_agrees_with_exhaustive():
    for p, m in [(5, 2), (3, 3), (13, 1)]:
        f = Field(p, m)
        for e in f.elements():
            ref = _sqrt_exhaustive(f, e)
            if ref is None:
                assert f.sqrt(e.value()) is None
            else:
                assert f.sqrt(e.value()) == min(ref.value(), (-ref).value())


def test_subfield_elements_form_a_field():
    f = Field(2, 4)
    sub = f.subfield_elements(2)
    assert len(sub) == 4
    subset = set(sub)
    for a in sub:
        for b in sub:
            assert f.add(a, b) in subset and f.mul(a, b) in subset
    assert f.subfield_elements(1) == [0, 1]
    with pytest.raises(InputError):
        f.subfield_elements(3)  # 3 does not divide 4


def test_extend_gives_an_embedding():
    f = Field(3, 2)
    big, phi = f.extend()
    assert big.q == 81
    images = set()
    for a in range(f.q):
        for b in range(f.q):
            assert phi(f.add(a, b)) == big.add(phi(a), phi(b))
            assert phi(f.mul(a, b)) == big.mul(phi(a), phi(b))
        images.add(phi(a))
    assert len(images) == 9  # injective
    assert phi(1) == 1
    # every base-field element becomes a square upstairs
    for a in range(f.q):
        assert big.is_quadratic_residue(phi(a))


def test_field_mismatch_guard():
    """Every binary operator checks its operand before the integer kernel
    sees it: an element of another field, or no element at all, raises."""
    a = Field(2, 3).gen()
    same = Field(2, 3).one()  # an equal field built separately mixes freely
    foreign = [Field(3, 2).one(), Field(2, 3, [1, 0, 1, 1]).one(), 1, None]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for other in foreign:
            with pytest.raises(FieldMismatch):
                op(a, other)
        assert op(a, same) == op(a, a.field.one())


def test_element_roundtrips_and_order():
    f = Field(3, 2)
    vals = [e.value() for e in f.elements()]
    assert vals == list(range(9))  # ascending canonical order
    for v in range(9):
        e = f.from_value(v)
        assert f.element(e.to_list()) == e
        assert f.element(e) == e
    assert f.element(5).to_list() == [2, 1]  # 2 + 1*3


def test_descriptor_roundtrip():
    f = Field(2, 5, [1, 0, 0, 1, 0, 1])
    g = field_from_descriptor(f.descriptor())
    assert g.p == f.p and g.m == f.m and g.modulus == f.modulus


def test_repr_is_readable():
    f = Field(2, 5)
    e = f.from_value(7)
    assert repr(e) == "a^2+a+1"
    assert repr(f.zero()) == "0"
    assert repr(f.one()) == "1"


# --- deterministic generator ------------------------------------------------


def _reference_xorshift(seed):
    """Straight transcription of the documented update equations."""
    mask = (1 << 64) - 1
    x = (seed & mask) or 0x9E3779B97F4A7C15
    while True:
        x ^= x >> 12
        x ^= (x << 25) & mask
        x ^= x >> 27
        yield (x * 0x2545F4914F6CDD1D) & mask


def test_rng_matches_reference_equations():
    for seed in (0, 1, 2, 12345, (1 << 64) - 1):
        ref = _reference_xorshift(seed)
        rng = Xorshift64Star(seed)
        for _ in range(200):
            assert rng.next_u64() == next(ref)


def test_rng_first_output_frozen():
    assert Xorshift64Star(1).next_u64() == 0x47E4CE4B896CDD1D


def test_rng_below_and_elements():
    rng = Xorshift64Star(9)
    f = Field(2, 4)
    for _ in range(300):
        assert 0 <= rng.below(7) < 7
    seen = {rng.element(f).value() for _ in range(300)}
    assert seen == set(range(16))  # small field gets fully covered


# --- differential tests against coefficient-vector arithmetic ---------------


class _CoefficientOracle:
    """GF(p^m) on coefficient tuples: schoolbook product, then reduction by
    the stored x^t mod modulus rows.  The representation the package used
    before integer encodings, kept here as a reference only."""

    def __init__(self, p, m, modulus):
        self.p, self.m, self.q = p, m, p**m
        self.xpow = []  # x^t mod modulus for t = m .. 2m - 2
        cur = [(-c) % p for c in modulus[:-1]]
        for _ in range(m - 1):
            self.xpow.append(tuple(cur))
            lead = cur[-1]
            nxt = [0] + cur[:-1]
            if lead:
                for i in range(m):
                    nxt[i] = (nxt[i] - lead * modulus[i]) % p
            cur = nxt
        self.one = (1,) + (0,) * (m - 1)

    def vec(self, v):
        out = []
        for _ in range(self.m):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def value(self, a):
        return sum(c * self.p**i for i, c in enumerate(a))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        out = list(prod[:m])
        for t in range(m, 2 * m - 1):
            if prod[t]:
                for i in range(m):
                    out[i] = (out[i] + prod[t] * self.xpow[t - m][i]) % p
        return tuple(out)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.pow(a, self.q - 2), -e)
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


DIFFERENTIAL_FIELDS = [(2, 5), (3, 5), (5, 2), (2, 16)]
ORACLE_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)
values = st.integers(min_value=0, max_value=(1 << 16) - 1)


@functools.lru_cache(maxsize=None)
def _field_and_oracle(p, m):
    f = Field(p, m)
    return f, _CoefficientOracle(p, m, f.modulus)


def _vec(el):
    return tuple(el.to_list())


@pytest.mark.parametrize("p,m", DIFFERENTIAL_FIELDS)
@ORACLE_SETTINGS
@given(a=values, b=values, e=st.integers(min_value=-70000, max_value=70000))
def test_ring_ops_match_coefficient_oracle(p, m, a, b, e):
    f, ref = _field_and_oracle(p, m)
    a, b = a % f.q, b % f.q
    x, y = f.from_value(a), f.from_value(b)
    rx, ry = ref.vec(a), ref.vec(b)
    assert _vec(x + y) == ref.add(rx, ry)
    assert _vec(x - y) == ref.add(rx, ref.neg(ry))
    assert _vec(-x) == ref.neg(rx)
    assert _vec(x * y) == ref.mul(rx, ry)
    if b:
        assert _vec(y.inv()) == ref.pow(ry, f.q - 2)
        assert _vec(x / y) == ref.mul(rx, ref.pow(ry, f.q - 2))
    else:
        with pytest.raises(ZeroInverse):
            y.inv()
    if a or e >= 0:
        assert _vec(x**e) == ref.pow(rx, e)
    else:
        with pytest.raises(ZeroInverse):
            x**e


@pytest.mark.parametrize("p,m", DIFFERENTIAL_FIELDS)
@ORACLE_SETTINGS
@given(a=values)
def test_sqrt_matches_coefficient_oracle(p, m, a):
    f, ref = _field_and_oracle(p, m)
    a %= f.q
    ra = ref.vec(a)
    root = f.sqrt(a)
    is_square = p == 2 or a == 0 or ref.pow(ra, (f.q - 1) // 2) == ref.one
    assert f.is_quadratic_residue(a) == is_square
    if not is_square:
        assert root is None
        return
    assert ref.mul(ref.vec(root), ref.vec(root)) == ra
    if p != 2:  # the canonically smaller of the two roots
        assert root <= ref.value(ref.neg(ref.vec(root)))


@pytest.mark.parametrize("p,m", DIFFERENTIAL_FIELDS)
@ORACLE_SETTINGS
@given(a=values)
def test_encoding_roundtrips_match_coefficient_oracle(p, m, a):
    f, ref = _field_and_oracle(p, m)
    a %= f.q
    x = f.from_value(a)
    assert x.value() == a
    assert tuple(x.to_list()) == ref.vec(a)
    assert f.element(list(ref.vec(a))) == x
    assert f.element(a) == x
    assert ref.value(ref.vec(a)) == a


@functools.lru_cache(maxsize=None)
def _embedding_and_oracle(p, m):
    f, _ = _field_and_oracle(p, m)
    big, phi = f.extend()
    return phi, _CoefficientOracle(p, 2 * m, big.modulus)


# GF(2^16) is left out: its quadratic extension exceeds the 2^20 cap.
@pytest.mark.parametrize("p,m", DIFFERENTIAL_FIELDS[:3])
@ORACLE_SETTINGS
@given(a=values, b=values)
def test_embedding_matches_coefficient_oracle(p, m, a, b):
    f, _ = _field_and_oracle(p, m)
    phi, big = _embedding_and_oracle(p, m)
    beta = big.vec(phi(f.gen().value()))
    root_check = (0,) * big.m
    for i, c in enumerate(f.modulus):
        root_check = big.add(root_check, big.mul(big.vec(c), big.pow(beta, i)))
    assert root_check == (0,) * big.m  # beta is a root of the source modulus
    a, b = a % f.q, b % f.q
    x, y = f.from_value(a), f.from_value(b)
    image = (0,) * big.m
    for i, c in enumerate(x.to_list()):
        image = big.add(image, big.mul(big.vec(c), big.pow(beta, i)))
    assert big.vec(phi(a)) == image
    assert big.vec(phi((x * y).value())) == big.mul(big.vec(phi(a)), big.vec(phi(b)))
    assert big.vec(phi((x + y).value())) == big.add(big.vec(phi(a)), big.vec(phi(b)))


def test_exp_log_tables_consistent_at_the_cap():
    """GF(2^20): exp and log are inverse bijections between [0, q - 1) and
    the units, exp has period q - 1, and products agree with the oracle."""
    f = Field(2, 20)
    ref = _CoefficientOracle(2, 20, f.modulus)
    try:
        x, y = f.from_value(0x12345), f.from_value(0xABCDE)
        assert _vec(x * y) == ref.mul(ref.vec(0x12345), ref.vec(0xABCDE))  # builds the tables
        exp, log, n = f._exp, f._log, f.q - 1
        assert exp[:n] == exp[n : 2 * n]
        assert not any(exp[2 * n :])
        assert log[0] == 2 * n
        assert all(log[exp[i]] == i for i in range(n))
        assert all(exp[log[v]] == v for v in range(1, f.q))
        g = ref.vec(primitive_element(f).value())
        rng = Xorshift64Star(20)
        for _ in range(200):
            i = rng.below(n)
            assert ref.mul(ref.vec(exp[i]), g) == ref.vec(exp[i + 1])
    finally:
        field_mod._TABLES.pop((f.p, f.m, f.modulus), None)  # about 100 MB


def _primes_dividing(n):
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + ([n] if n > 1 else [])


@pytest.mark.parametrize(
    "m,modulus",
    [(m, None) for m in range(1, 17)]
    + [(4, [1, 1, 1, 1, 1]), (8, [1, 1, 0, 1, 1, 0, 0, 0, 1]), (12, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1])],
)
def test_gf2_tables_match_a_walk_by_g(m, modulus):
    """_build_tables in characteristic 2 entry for entry against a slow
    reference: g is the smallest element none of whose powers (q - 1)/f,
    f a prime factor of q - 1, is one in the coefficient oracle; g^i comes
    from g^(i - 1) by one oracle multiplication, and log inverts the walk.
    The non-default moduli make x non-primitive: of order 5, 51 and 45."""
    f = Field(2, m, modulus)
    ref, n = _CoefficientOracle(2, m, f.modulus), f.q - 1
    primes = _primes_dividing(n)
    want_g = next(
        v for v in range(1, f.q) if all(ref.pow(ref.vec(v), n // d) != ref.one for d in primes)
    )
    walk, x, step = [], ref.one, ref.vec(want_g)
    for _ in range(n):
        walk.append(ref.value(x))
        x = ref.mul(x, step)
    assert x == ref.one and len(set(walk)) == n
    want_log = [2 * n] * f.q
    for i, v in enumerate(walk):
        want_log[v] = i
    exp, log, zech, g = field_mod._build_tables(2, m, f.modulus)
    assert g == want_g
    assert exp == walk + walk + [0] * (2 * n + 1)
    assert log == want_log
    assert zech is None


# --- Field.combiner against the axpy loop it replaces in encode ----------------


# every odd field of at most 256 elements, each GF(p^m) as (p, m)
ODD_FIELDS = [
    (p, m) for p in range(3, 257, 2) if field_mod.smallest_prime_factor(p) == p
    for m in range(1, 9) if p**m <= 256
]


@pytest.mark.parametrize(
    "p,m",
    [(2, 1), (2, 2), (2, 5), (2, 8), (2, 9), (2, 16), (2, 17), (2, 20), (3, 6)] + ODD_FIELDS,
)
def test_combiner_matches_the_axpy_loop(p, m, axpy_combination, combination_messages):
    """On seeded rows holding 0 and q - 1 among random entries; a single
    coefficient x^b gives its row times x^b entry by entry, which is a
    packed table entry of the kernel.  m = 8, 9, 16, 17 and 20 fill an 8-,
    16- or 32-bit slot or leave it partly empty.  Odd p covers every field
    up to 256 elements, on the product tables and, for GF(243), GF(131) and
    the larger primes, on the axpy loop; 300 rows cross the odd-p tables'
    reduction cadence, with the zero, all-(q - 1) and single-digit messages
    and seeded ones."""
    f, rng = Field(p, m), Xorshift64Star(100 * p + m)
    try:
        for k, n in [(1, 1), (4, 7), (9, 33)]:
            rows = [[rng.below(f.q) for _ in range(n)] for _ in range(k)]
            rows[0][0], rows[-1][-1] = 0, f.q - 1
            combine = f.combiner(rows, n)
            for coeffs in combination_messages(f, k, rng):
                assert combine(coeffs) == axpy_combination(f, rows, n, coeffs)
            for b in range(m):
                for i, row in enumerate(rows):
                    single = [0] * i + [p**b] + [0] * (k - 1 - i)
                    assert combine(single) == [f.mul(p**b, x) for x in row]
        if p != 2:
            k, n = 300, 5
            rows = [[rng.below(f.q) for _ in range(n)] for _ in range(k)]
            rows[0][0], rows[-1][-1] = 0, f.q - 1
            combine = f.combiner(rows, n)
            singles = [
                [0] * i + [p**b] + [0] * (k - 1 - i) for i in (0, 150, k - 1) for b in range(m)
            ]
            randoms = [[rng.below(f.q) for _ in range(k)] for _ in range(3)]
            for coeffs in [[0] * k, [f.q - 1] * k] + singles + randoms:
                assert combine(coeffs) == axpy_combination(f, rows, n, coeffs)
            full = [[f.q - 1] * n] * k  # every digit p - 1, the largest digit sums
            for coeffs in ([1] * k, [f.q - 1] * k):
                assert f.combiner(full, n)(coeffs) == axpy_combination(f, full, n, coeffs)
        assert f.combiner([], 3)([]) == [0, 0, 0]
    finally:
        if m > 16:  # about 25 MB of tables at m = 17, 100 MB at m = 20
            field_mod._TABLES.pop((f.p, f.m, f.modulus), None)


@pytest.mark.parametrize("m", range(1, 9))
def test_combiner_product_table_holds_every_multiple(m):
    """Up to m = 8 a one-row combination reads one product-table entry: for
    every c in [0, q) it is the row times c, entry by entry, on a row
    holding 0, q - 1 and seeded values."""
    f, rng = Field(2, m), Xorshift64Star(700 + m)
    row = [0, f.q - 1] + [rng.below(f.q) for _ in range(13)]
    combine = f.combiner([row], len(row))
    for c in range(f.q):
        assert combine([c]) == [f.mul(c, x) for x in row]


@pytest.mark.parametrize(
    "p,m", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 2), (127, 1)]
)
def test_combiner_odd_product_table_holds_every_multiple(p, m, monkeypatch):
    """For odd p the product tables hold every multiple too: a one-row
    combination is the row times c for every c in [0, q), without an axpy
    pass, on a row holding 0, q - 1 and seeded values."""
    f, rng = Field(p, m), Xorshift64Star(900 + 10 * p + m)
    row = [0, f.q - 1] + [rng.below(f.q) for _ in range(13)]
    monkeypatch.setattr(f, "axpy", None)  # the table path never calls it
    combine = f.combiner([row], len(row))
    for c in range(f.q):
        assert combine([c]) == [f.mul(c, x) for x in row]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 5), (2, 8), (3, 2), (3, 5), (5, 3), (2, 9), (3, 6)])
def test_from_ints_shares_one_element_per_value_up_to_256(p, m):
    """Up to q = 256 from_ints and from_int hand out one shared element per
    value, equal to a fresh FieldElement and hashed alike; above that,
    fresh equal ones."""
    f = Field(p, m)
    values = [0, 1, f.q // 2, f.q - 1]
    first, again = f.from_ints(values), f.from_ints(values)
    for v, a, b in zip(values, first, again):
        fresh = FieldElement(f, v)
        assert a == b == fresh and hash(a) == hash(b) == hash(fresh)
        assert a.field is f and a.v == v and f.from_int(v) == a
        assert (a is b) == (f.q <= 256) == (f.from_int(v) is a)
