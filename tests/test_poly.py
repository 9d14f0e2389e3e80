"""Polynomial and linear-algebra behavior, with algebraic identities as oracles."""

import itertools

import pytest

from qlrc import Field, Polynomial, Xorshift64Star, annihilator, interpolate
from qlrc import linalg
from qlrc.errors import InputError
from qlrc.poly import NEG_INF, DivisionByZeroPoly, DuplicateNode


def _random_poly(rng, field, max_deg):
    return Polynomial(field, [field.from_value(rng.below(field.q)) for _ in range(max_deg + 1)])


def test_zero_degree_sentinel():
    f = Field(2, 3)
    z = Polynomial.zero(f)
    assert z.degree == NEG_INF
    assert z.is_zero()
    assert Polynomial.one(f).degree == 0
    assert Polynomial(f, [0, 1]).degree == 1
    assert Polynomial.monomial(f, f.one(), 5).degree == 5


def test_trailing_zeros_are_normalized():
    f = Field(3, 1)
    p = Polynomial(f, [f.one(), f.zero(), f.zero()])
    assert p.degree == 0
    assert p == Polynomial.one(f)


def test_ring_identities_randomized():
    f = Field(2, 4)
    rng = Xorshift64Star(11)
    for _ in range(60):
        a = _random_poly(rng, f, 6)
        b = _random_poly(rng, f, 4)
        c = _random_poly(rng, f, 3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero(f)


# --- the integer-list kernels against independent references ------------------

REFERENCE_FIELDS = [(2, 5), (3, 3), (3, 4)]


def _schoolbook(a, b):
    """a * b by the convolution sum, on FieldElements."""
    f = a.field
    out = [f.zero()] * (len(a.coeffs) + len(b.coeffs))
    for i in range(len(a.coeffs)):
        for j in range(len(b.coeffs)):
            out[i + j] = out[i + j] + a.coefficient(i) * b.coefficient(j)
    return Polynomial(f, out)


@pytest.mark.parametrize("p,m", REFERENCE_FIELDS)
def test_mul_matches_schoolbook(p, m):
    f = Field(p, m)
    rng = Xorshift64Star(7 + p + m)
    for _ in range(40):
        # lengths on both sides of each other, zero factors included
        a = _random_poly(rng, f, rng.below(9) - 1)
        b = _random_poly(rng, f, rng.below(9) - 1)
        assert a * b == _schoolbook(a, b)
        assert b * a == _schoolbook(b, a)


def test_divmod_roundtrip_randomized():
    """q * b + r == a with deg r < deg b, the product taken by schoolbook,
    over constant, linear and longer divisors."""
    for p, m in [(2, 3), (3, 2)] + REFERENCE_FIELDS:
        f = Field(p, m)
        rng = Xorshift64Star(23)
        for deg_b in (0, 1, 1, 2, 4):
            for _ in range(16):
                a = _random_poly(rng, f, 8)
                b = _random_poly(rng, f, deg_b)
                if b.is_zero():
                    continue
                q, r = divmod(a, b)
                assert _schoolbook(q, b) + r == a
                assert r.is_zero() or r.degree < b.degree
                if b.degree == 1:  # the remainder by x - c is the value at c
                    assert r == Polynomial(f, [a(-b.coefficient(0) / b.coefficient(1))])


def test_synthetic_division_matches_divmod():
    """Field.synthetic_division by x - c is divmod by that polynomial, at
    c = 0 too, and on the zero and constant polynomials (quotient zero)."""
    for p, m in [(2, 3), (3, 2)] + REFERENCE_FIELDS:
        f = Field(p, m)
        rng = Xorshift64Star(29)
        for deg_a in (-1, 0, 1, 2, 8):
            a = _random_poly(rng, f, deg_a) if deg_a >= 0 else Polynomial.zero(f)
            for c in (0, rng.below(f.q), rng.below(f.q)):
                q, r = divmod(a, Polynomial._from_ints(f, [f.neg(c), 1]))
                want = (list(q.coeffs), r.coefficient(0).v)
                assert f.synthetic_division(list(a.coeffs), c) == want


def test_division_by_zero_poly():
    f = Field(2, 3)
    with pytest.raises(DivisionByZeroPoly):
        divmod(Polynomial(f, [0, 1]), Polynomial.zero(f))


def test_eval_horner_matches_term_sum():
    f = Field(3, 2)
    rng = Xorshift64Star(5)
    for _ in range(40):
        poly = _random_poly(rng, f, 6)
        x = f.from_value(rng.below(f.q))
        direct = f.zero()
        for i in range(7):
            direct = direct + poly.coefficient(i) * x**i
        assert poly(x) == direct


def test_compose_matches_pointwise():
    """deg(outer o inner) < q, so its values on all of GF(q) determine it."""
    for p, m in [(2, 4)] + REFERENCE_FIELDS:
        f = Field(p, m)
        rng = Xorshift64Star(17)
        for _ in range(12):
            outer = _random_poly(rng, f, rng.below(5))
            inner = _random_poly(rng, f, rng.below(4 if f.q == 16 else 6))
            comp = outer.compose(inner)
            if outer.degree >= 1 and inner.degree >= 1:
                assert comp.degree == outer.degree * inner.degree
            else:
                assert comp.degree <= 0
            for x in f.from_ints(range(f.q)):
                assert comp(x) == outer(inner(x))


def test_pow_matches_repeated_product():
    f = Field(2, 3)
    p = Polynomial(f, [f.one(), f.one()])  # x + 1
    acc = Polynomial.one(f)
    for e in range(6):
        assert p**e == acc
        acc = acc * p


def test_shift_is_multiplication_by_x_power():
    f = Field(3, 2)
    rng = Xorshift64Star(2)
    p = _random_poly(rng, f, 3)
    x = Polynomial(f, [0, 1])
    assert p.shift(4) == p * x**4
    assert p.shift(0) == p


def test_interpolate_roundtrip():
    rng = Xorshift64Star(31)
    for f, npts in itertools.product([Field(2, 5), Field(7, 1), Field(3, 2), Field(3, 3)], (1, 2, 5, 9)):
        npts = min(npts, f.q)
        pts = []
        used = set()
        while len(pts) < npts:
            x = f.from_value(rng.below(f.q))
            if x.value() in used:
                continue
            used.add(x.value())
            pts.append((x, f.from_value(rng.below(f.q))))
        lam = interpolate(pts)
        assert lam.is_zero() or lam.degree <= npts - 1
        for x, y in pts:
            assert lam(x) == y


def test_interpolate_rejects_duplicate_nodes():
    f = Field(2, 3)
    a = f.one()
    with pytest.raises(DuplicateNode):
        interpolate([(a, f.zero()), (a, f.one())])


def test_annihilator_of_full_field_is_field_equation():
    """prod (x - a) over all of GF(q) is x^q - x."""
    for p, m in [(2, 3), (3, 2)]:
        f = Field(p, m)
        q = p**m
        ann = annihilator(f, f.from_ints(range(f.q)))
        expected = Polynomial.monomial(f, f.one(), q) - Polynomial(f, [0, 1])
        assert ann == expected


def test_annihilator_vanishes_exactly_on_set():
    f = Field(2, 4)
    pts = [f.from_value(v) for v in (1, 5, 7)]
    ann = annihilator(f, pts)
    assert ann.degree == 3
    for e in f.from_ints(range(f.q)):
        assert ann(e).is_zero() == (e in pts)


def test_pretty_printer():
    f = Field(2, 5)
    g = Polynomial(f, [[0] * 5, [0, 1, 1, 0, 0], [1, 1, 1, 0, 0], [0] * 5, [1, 0, 0, 0, 0]])
    assert repr(g) == "x^4 + (a^2+a+1)x^2 + (a^2+a)x"
    assert repr(Polynomial.zero(f)) == "0"
    assert repr(Polynomial.one(f)) == "1"
    assert repr(Polynomial(f, [0, 1])) == "x"


def test_to_lists_roundtrip():
    f = Field(3, 2)
    rng = Xorshift64Star(41)
    for _ in range(20):
        p = _random_poly(rng, f, 5)
        assert Polynomial(f, p.to_lists()) == p


# --- exact linear algebra ----------------------------------------------------


def test_rank_of_vandermonde_is_full():
    f = Field(2, 4)
    nodes = [f.from_value(v) for v in (1, 2, 3, 7, 9)]
    rows = [[x**i for x in nodes] for i in range(4)]
    assert linalg.rank(rows) == 4


def test_rref_reproduces_row_space():
    f = Field(3, 2)
    rng = Xorshift64Star(13)
    rows = [[f.from_value(rng.below(f.q)) for _ in range(5)] for _ in range(3)]
    reduced = [f.ints(row) for row in rows]
    pivots = linalg._rref_ints(f, reduced)
    assert len(pivots) == linalg.rank(rows)
    for j, pj in enumerate(pivots):
        assert reduced[j][pj] == 1
        for i in range(len(pivots)):
            if i != j:
                assert reduced[i][pj] == 0


def test_solve_in_span_recovers_known_combination():
    f = Field(2, 3)
    rng = Xorshift64Star(3)
    vecs = [[f.from_value(rng.below(f.q)) for _ in range(6)] for _ in range(3)]
    while linalg.rank(vecs) < 3:
        vecs = [[f.from_value(rng.below(f.q)) for _ in range(6)] for _ in range(3)]
    coeffs = [f.from_value(3), f.one(), f.from_value(6)]
    target = [f.zero()] * 6
    for c, v in zip(coeffs, vecs):
        target = [t + c * x for t, x in zip(target, v)]
    got = linalg.solve_in_span(vecs, target)
    assert got == coeffs


def test_solve_in_span_rejects_outside_target():
    f = Field(2, 3)
    vecs = [[f.one(), f.zero(), f.zero()], [f.zero(), f.one(), f.zero()]]
    inside = [f.one(), f.one(), f.zero()]
    outside = [f.zero(), f.zero(), f.one()]
    assert linalg.solve_in_span(vecs, inside) is not None
    assert linalg.solve_in_span(vecs, outside) is None


def test_dot_requires_equal_length():
    f = Field(2, 3)
    with pytest.raises(InputError):
        linalg.dot([f.one()], [f.one(), f.zero()])
