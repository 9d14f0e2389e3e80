"""Field arithmetic against independent oracles.

Prime fields are checked exhaustively against plain modular integers;
extension fields against polynomial identities (Frobenius, Fermat, order
counts) that do not reuse the implementation under test, and, by property
tests, against coefficient-vector arithmetic (schoolbook product reduced by
the modulus) that shares nothing with the exp/log/Zech tables.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import Field, Xorshift64Star, field_from_descriptor
from qlrc import field as field_mod
from qlrc.errors import InputError
from qlrc.field import (
    FieldMismatch,
    FieldTooLarge,
    NotPrime,
    ReducibleModulus,
    ZeroInverse,
)


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


def test_bad_parameters_rejected():
    with pytest.raises(NotPrime):
        Field(6, 1)
    with pytest.raises(NotPrime):
        Field(1, 3)
    with pytest.raises(FieldTooLarge):
        Field(2, 21)


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
        g = f.primitive_element()
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
    qrs = sorted(e.value() for e in f.elements() if not e.is_zero() and f.is_quadratic_residue(e))
    assert qrs == [1, 2, 4]


def test_char2_every_element_is_square():
    f = Field(2, 5)
    for e in f.elements():
        assert f.is_quadratic_residue(e)
        s = f.sqrt(e)
        assert s * s == e


def test_sqrt_odd_field_consistency():
    """sqrt returns the canonically smaller root; squaring round-trips."""
    for p, m in [(3, 2), (5, 2), (3, 3)]:
        f = Field(p, m)
        n_res = 0
        for e in f.elements():
            if f.is_quadratic_residue(e):
                n_res += 1
                s = f.sqrt(e)
                assert s * s == e
                assert s <= -s or s.is_zero()
            else:
                assert f.sqrt(e) is None
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
                assert f.sqrt(e) is None
            else:
                assert f.sqrt(e) == min(ref, -ref, key=lambda x: x.value())


def test_subfield_elements_form_a_field():
    f = Field(2, 4)
    sub = f.subfield_elements(2)
    assert len(sub) == 4
    subset = set(sub)
    for a in sub:
        for b in sub:
            assert a + b in subset and a * b in subset
    assert f.subfield_elements(1) == [f.zero(), f.one()]
    with pytest.raises(InputError):
        f.subfield_elements(3)  # 3 does not divide 4


def test_extend_gives_an_embedding():
    f = Field(3, 2)
    big, phi = f.extend()
    assert big.q == 81
    images = set()
    for a in f.elements():
        for b in f.elements():
            assert phi(a + b) == phi(a) + phi(b)
            assert phi(a * b) == phi(a) * phi(b)
        images.add(phi(a).value())
    assert len(images) == 9  # injective
    assert phi(f.one()) == big.one()
    # every base-field element becomes a square upstairs
    for a in f.elements():
        assert big.is_quadratic_residue(phi(a))


def test_field_mismatch_guard():
    a = Field(2, 3).one()
    b = Field(3, 2).one()
    with pytest.raises(FieldMismatch):
        a + b


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
    root = f.sqrt(f.from_value(a))
    is_square = p == 2 or a == 0 or ref.pow(ra, (f.q - 1) // 2) == ref.one
    assert f.is_quadratic_residue(f.from_value(a)) == is_square
    if not is_square:
        assert root is None
        return
    assert ref.mul(_vec(root), _vec(root)) == ra
    if p != 2:  # the canonically smaller of the two roots
        assert root.value() <= ref.value(ref.neg(_vec(root)))


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
    beta = _vec(phi(f.gen()))
    root_check = (0,) * big.m
    for i, c in enumerate(f.modulus):
        root_check = big.add(root_check, big.mul(big.vec(c), big.pow(beta, i)))
    assert root_check == (0,) * big.m  # beta is a root of the source modulus
    a, b = a % f.q, b % f.q
    x, y = f.from_value(a), f.from_value(b)
    image = (0,) * big.m
    for i, c in enumerate(x.to_list()):
        image = big.add(image, big.mul(big.vec(c), big.pow(beta, i)))
    assert _vec(phi(x)) == image
    assert _vec(phi(x * y)) == big.mul(_vec(phi(x)), _vec(phi(y)))
    assert _vec(phi(x + y)) == big.add(_vec(phi(x)), _vec(phi(y)))


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
        g = ref.vec(f.primitive_element().value())
        rng = Xorshift64Star(20)
        for _ in range(200):
            i = rng.below(n)
            assert ref.mul(ref.vec(exp[i]), g) == ref.vec(exp[i + 1])
    finally:
        field_mod._TABLES.pop((f.p, f.m, f.modulus), None)  # about 100 MB
