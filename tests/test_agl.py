"""Affine maps, subgroups, orbits, and block-constant polynomials."""

import pytest

from qlrc import (
    Field,
    Polynomial,
    Xorshift64Star,
    good_polynomial,
    orbits,
    subgroup_from_MB,
    subgroup_from_descriptor,
    theta_subgroup,
)
from qlrc.agl import (
    AffineMap,
    AglSubgroup,
    DomainNotClosed,
    NotRegularOrbit,
    NotSubfield,
    NotSubgroup,
    NotSubspace,
)
from qlrc.errors import InputError
from qlrc.poly import poly_from_lists


def _additive32(field):
    a = field.gen()
    one = field.one()
    return subgroup_from_MB(field, 1, {one}, {field.zero(), one, a, a + one})


def test_affine_compose_matches_pointwise():
    f = Field(2, 4)
    rng = Xorshift64Star(19)
    for _ in range(200):
        s = AffineMap(f.from_value(1 + rng.below(f.q - 1)), rng.element(f))
        t = AffineMap(f.from_value(1 + rng.below(f.q - 1)), rng.element(f))
        st = s * t
        x = rng.element(f)
        assert st(x) == s(t(x))


def test_affine_inverse_and_identity():
    f = Field(3, 2)
    rng = Xorshift64Star(29)
    ident = AffineMap.identity(f)
    assert all(ident(x) == x for x in f.elements())
    for _ in range(50):
        t = AffineMap(f.from_value(1 + rng.below(f.q - 1)), rng.element(f))
        assert t * t.inverse() == ident
        assert t.inverse() * t == ident


def test_affine_map_rejects_zero_slope():
    f = Field(2, 3)
    with pytest.raises(InputError):
        AffineMap(f.zero(), f.one())


def test_as_polynomial_evaluates_like_the_map():
    f = Field(2, 3)
    rng = Xorshift64Star(37)
    for _ in range(30):
        t = AffineMap(f.from_value(1 + rng.below(f.q - 1)), rng.element(f))
        p = t.as_polynomial()
        for x in f.elements():
            assert p(x) == t(x)


def test_subgroup_verifies_closure():
    f = Field(2, 3)
    a = f.gen()
    good = [AffineMap(f.one(), b) for b in (f.zero(), f.one())]
    AglSubgroup(f, good)
    bad = [AffineMap(f.one(), b) for b in (f.zero(), f.one(), a)]  # not closed
    with pytest.raises(NotSubgroup):
        AglSubgroup(f, bad)
    with pytest.raises(NotSubgroup):
        AglSubgroup(f, [AffineMap(a, f.zero()), AffineMap(a * a, f.zero())])  # no identity


def test_subgroup_from_MB_validation():
    f = Field(2, 4)
    one = f.one()
    with pytest.raises(NotSubfield):
        subgroup_from_MB(f, 3, {one}, {f.zero()})  # 3 does not divide 4
    with pytest.raises(NotSubgroup):
        subgroup_from_MB(f, 2, {one, f.gen()}, {f.zero()})  # gen outside GF(4)*-closure
    with pytest.raises(NotSubspace):
        subgroup_from_MB(f, 1, {one}, {f.zero(), f.gen(), f.one() + f.gen()})  # not closed
    with pytest.raises(NotSubspace):
        subgroup_from_MB(f, 1, {one}, {f.one()})  # missing zero


def test_subgroup_order_is_product():
    f = Field(2, 4)
    k4 = f.subfield_elements(2)
    m = {x for x in k4 if not x.is_zero()}
    sub = subgroup_from_MB(f, 2, m, set(k4))
    assert len(sub) == 3 * 4


def test_orbits_partition_the_domain():
    f = Field(2, 4)
    k4 = f.subfield_elements(2)
    sub = subgroup_from_MB(f, 2, {x for x in k4 if not x.is_zero()}, set(k4))
    part = orbits(sub, f.elements())
    covered = [x.value() for orb in part.orbits for x in orb]
    assert sorted(covered) == [e.value() for e in f.elements()]
    for orb in part.orbits:
        assert len(sub) % len(orb) == 0  # orbit size divides group order


def test_orbits_reject_unclosed_domain():
    f = Field(2, 3)
    sub = subgroup_from_MB(f, 1, {f.one()}, {f.zero(), f.one()})
    with pytest.raises(DomainNotClosed):
        orbits(sub, [f.zero(), f.gen()])  # orbit of gen leaves the list


def test_flagship_good_polynomial_under_two_moduli():
    """The order-4 additive block polynomial has the same coefficient lists
    under the default modulus and an alternative one."""
    # x^4 + (a^2+a+1)x^2 + (a^2+a)x, coefficients as width-5 vectors
    expected = [
        [0, 0, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [1, 1, 1, 0, 0],
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ]
    for modulus in (None, [1, 0, 0, 1, 0, 1]):
        f = Field(2, 5, modulus)
        sub = _additive32(f)
        gp = good_polynomial(sub, f.zero())
        assert gp.g.to_lists() == expected
        assert repr(gp.g) == "x^4 + (a^2+a+1)x^2 + (a^2+a)x"


def test_good_polynomial_multiplicative_frozen():
    """Orbit annihilator of {1, 2, 4} under M = {1, 2, 4} in GF(7) is x^3 - 1."""
    f = Field(7, 1)
    m = {f.from_value(v) for v in (1, 2, 4)}
    sub = subgroup_from_MB(f, 1, m, {f.zero()})
    gp = good_polynomial(sub, f.one())
    expected = poly_from_lists(f, [[6], [0], [0], [1]])  # x^3 + 6 = x^3 - 1
    assert gp.g == expected


def test_good_polynomial_constant_on_every_block():
    """g is invariant under the subgroup, so it is constant on every orbit of
    the field, the free ones and the short ones alike."""
    cases = []
    f16 = Field(2, 4)
    k4 = f16.subfield_elements(2)
    cases.append(subgroup_from_MB(f16, 2, {x for x in k4 if not x.is_zero()}, set(k4)))
    f9 = Field(3, 2)
    cases.append(subgroup_from_MB(f9, 1, {f9.one(), -f9.one()}, set(f9.subfield_elements(1))))
    for sub in cases:
        alpha = next(
            x for x in sub.field.elements() if len(sub.orbit(x)) == len(sub)
        )
        gp = good_polynomial(sub, alpha)
        for block in orbits(sub, sub.field.elements()).orbits:
            assert len({gp.g(x) for x in block}) == 1


def test_good_polynomial_rejects_short_orbit():
    f = Field(7, 1)
    m = {f.from_value(v) for v in (1, 2, 4)}
    sub = subgroup_from_MB(f, 1, m, {f.zero()})
    with pytest.raises(NotRegularOrbit):
        good_polynomial(sub, f.zero())  # orbit of 0 is {0}, size 1 != 3


def test_theta_subgroup_cases():
    f = Field(2, 5)
    sub = _additive32(f)
    one = f.one()
    # gamma = x: only the identity fixes it
    assert len(theta_subgroup(sub, Polynomial.x(f))) == 1
    # gamma = x^2 + x: fixed exactly by {x, x + 1}
    gamma = Polynomial(f, [f.zero(), one, one])
    th = theta_subgroup(sub, gamma)
    assert len(th) == 2
    assert {t.b.value() for t in th} == {0, 1}
    # the block polynomial itself is fixed by the whole subgroup
    gp = good_polynomial(sub, f.zero())
    assert len(theta_subgroup(sub, gp.g)) == len(sub)


def test_theta_proper_for_low_degree_part():
    """Any nonzero poly built from x^i * g^j with 1 <= i <= r - 1 has a
    proper stabilizer (it cannot be constant on blocks)."""
    f = Field(2, 5)
    sub = _additive32(f)
    gp = good_polynomial(sub, f.zero())
    rng = Xorshift64Star(43)
    x = Polynomial.x(f)
    for _ in range(100):
        gamma = Polynomial.zero(f)
        for i in (1, 2):
            for j in range(3):
                c = rng.element(f)
                if not c.is_zero():
                    gamma = gamma + Polynomial.constant(c) * x**i * gp.g**j
        if gamma.is_zero():
            continue
        assert len(theta_subgroup(sub, gamma)) < len(sub)


def test_theta_rejects_zero_polynomial():
    f = Field(2, 5)
    sub = _additive32(f)
    with pytest.raises(InputError):
        theta_subgroup(sub, Polynomial.zero(f))


def test_descriptor_roundtrip_mb_and_explicit():
    f = Field(2, 4)
    k4 = f.subfield_elements(2)
    sub = subgroup_from_MB(f, 2, {x for x in k4 if not x.is_zero()}, set(k4))
    d = sub.descriptor()
    assert d["kind"] == "MB"
    assert subgroup_from_descriptor(f, d) == sub

    explicit = AglSubgroup(f, sub.maps)
    d2 = explicit.descriptor()
    assert d2["kind"] == "explicit"
    assert subgroup_from_descriptor(f, d2) == sub


def test_orbit_of_fixed_base_point():
    f = Field(2, 5)
    sub = _additive32(f)
    orb = sub.orbit(f.zero())
    assert [x.value() for x in orb] == [0, 1, f.gen().value(), f.gen().value() ^ 1]
