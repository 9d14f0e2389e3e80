"""Affine maps, subgroups, orbits, and block-constant polynomials."""

import json
from pathlib import Path

import pytest

from qlrc import (
    Field,
    Polynomial,
    Xorshift64Star,
    annihilator,
    good_polynomial,
    orbits,
    subgroup_from_MB,
    subgroup_from_descriptor,
    theta_subgroup,
)
from qlrc import agl, bounds, construct
from qlrc.agl import (
    AffineMap,
    AglSubgroup,
    DomainNotClosed,
    NotRegularOrbit,
    NotSubfield,
    NotSubgroup,
    NotSubspace,
    _cyclic_generator,
    subgroup_from_generators,
    subspace_basis,
)
from qlrc.cli import main
from qlrc.errors import InputError
from qlrc.field import field_from_descriptor, prime_power

from conftest import primitive_element

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _additive32(field):
    a = field.gen()
    one = field.one()
    return subgroup_from_MB(field, 1, {one}, {field.zero(), one, a, a + one})


def test_affine_compose_matches_pointwise():
    f = Field(2, 4)
    ambient = AglSubgroup(f, [AffineMap(1, 0)])  # apply and compose read only the field
    rng = Xorshift64Star(19)
    for _ in range(200):
        s = AffineMap(1 + rng.below(f.q - 1), rng.below(f.q))
        t = AffineMap(1 + rng.below(f.q - 1), rng.below(f.q))
        st = ambient.compose(s, t)
        x = rng.below(f.q)
        assert ambient.apply(st, x) == ambient.apply(s, ambient.apply(t, x))


def test_affine_identity():
    f = Field(3, 2)
    ambient = AglSubgroup(f, [AffineMap(1, 0)])
    ident = AffineMap(1, 0)
    assert all(ambient.apply(ident, x) == x for x in range(f.q))


def test_affine_map_rejects_zero_slope():
    f = Field(2, 3)
    with pytest.raises(InputError, match="invertible linear part"):
        AglSubgroup(f, [AffineMap(1, 0), AffineMap(0, 1)])
    with pytest.raises(InputError, match="invertible linear part"):
        AglSubgroup(f, [(f.one(), f.zero()), (f.zero(), f.one())])


def test_as_polynomial_evaluates_like_the_map():
    f = Field(2, 3)
    ambient = AglSubgroup(f, [AffineMap(1, 0)])
    rng = Xorshift64Star(37)
    for _ in range(30):
        t = AffineMap(1 + rng.below(f.q - 1), rng.below(f.q))
        p = ambient.polynomial(t)
        for x in range(f.q):
            assert p(x).value() == ambient.apply(t, x)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 3), (2, 5), (3, 4)])
def test_int_map_kernels_match_element_arithmetic(p, m):
    """apply, compose and orbit on integer encodings agree with the
    same maps worked in FieldElement arithmetic, kept here as the reference;
    a subgroup lists its maps by (a, b) as values, and a stabilizer keeps
    its parent's order."""
    f = Field(p, m)
    el = f.from_value
    rng = Xorshift64Star(100 * p + m)

    def ref_apply(t, x):
        return el(t.a) * el(x) + el(t.b)

    def random_map():
        return AffineMap(1 + rng.below(f.q - 1), rng.below(f.q))

    ambient = AglSubgroup(f, [AffineMap(1, 0)])
    for _ in range(100):
        s, t, x = random_map(), random_map(), rng.below(f.q)
        assert ambient.apply(t, x) == ref_apply(t, x).value()
        ref_st = (el(s.a) * el(t.a), el(s.a) * el(t.b) + el(s.b))
        assert ambient.compose(s, t) == tuple(c.value() for c in ref_st)

    prime = f.subfield_elements(1)
    x = Polynomial(f, [0, 1])
    for _ in range(4):
        m_gen = prime[1 + rng.below(p - 1)]
        basis = [rng.below(f.q) for _ in range(rng.below(m))]
        sub = subgroup_from_generators(f, 1, m_gen, basis)
        assert list(sub.maps) == sorted(sub.maps, key=lambda t: (el(t.a).value(), el(t.b).value()))
        for _ in range(10):
            alpha = rng.below(f.q)
            ref = sorted({ref_apply(t, alpha).value() for t in sub})
            assert sub.orbit(alpha) == sub.orbit(el(alpha)) == ref
        theta = theta_subgroup(sub, x**p - x)  # the translations by GF(p) in sub
        assert list(theta.maps) == [t for t in sub.maps if t in theta]
        assert all(t.a == 1 and t.b in prime for t in theta)


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


def _closed_exhaustively(field, maps) -> bool:
    """The former closure check, kept as a reference: the identity is in the
    set and all |H|^2 compositions stay in it."""
    ambient = AglSubgroup(field, [AffineMap(1, 0)])
    mapset = set(maps)
    return AffineMap(1, 0) in mapset and all(
        ambient.compose(f, g) in mapset for f in mapset for g in mapset
    )


def _accepted(field, maps) -> bool:
    try:
        AglSubgroup(field, maps)
    except NotSubgroup:
        return False
    return True


def _inverse(field, t):
    ai = field.inv(t.a)
    return AffineMap(ai, field.neg(field.mul(ai, t.b)))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _reference_search(q):
    """The former qlrc search loop, kept as a reference: it builds the
    subgroup of every candidate (d, e, s), drops each map set it has seen
    and reads n_max off the fixed points.  Its rows, sorted, and every
    group it built."""
    p, m = prime_power(q)
    fld = Field(p, m)
    prim = primitive_element(fld).v
    rows, built, seen = [], [], set()
    for d in _divisors(m):
        qd = p**d
        basis = subspace_basis(fld, d, range(q))
        for e in _divisors(qd - 1):
            m_gen = fld.power(prim, (q - 1) // e)
            for s in range(m // d + 1):
                order = e * qd**s
                if order < 3 or order > q:
                    continue
                built.append(subgroup_from_generators(fld, d, m_gen, basis[:s]))
                key = frozenset(built[-1].maps)
                if key in seen:
                    continue
                seen.add(key)
                n_max = q - len(built[-1].fixed_points())
                if n_max:
                    rows.append((order - 1, d, e, qd**s, n_max))
    return sorted(rows), built


def _search_groups(q, capsys):
    """The subgroup of each row that qlrc search lists over GF(q), rebuilt
    from the row's (d, e, b_order): M = <prim^((q - 1)/e)> and B the span of
    the first s vectors of the field's greedy K-basis, |B| = (p^d)^s.  None
    of them is proven by closure: they come through AglSubgroup._proven.
    The rows are the reference loop's, one for one, and the groups are the
    ones it built."""
    assert main(["search", "--q", str(q)]) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    rows = [tuple(map(int, line.split(","))) for line in lines]
    ref_rows, ref_built = _reference_search(q)
    assert rows == ref_rows
    p, m = prime_power(q)
    fld = Field(p, m)
    prim = primitive_element(fld).v
    groups = []
    for r, d, e, b_order, n_max in rows:
        s = [p ** (d * i) for i in range(m // d + 1)].index(b_order)
        basis = subspace_basis(fld, d, range(q))[:s]
        sub = subgroup_from_generators(fld, d, fld.power(prim, (q - 1) // e), basis)
        assert len(sub) == r + 1 and q - len(sub.fixed_points()) == n_max
        groups.append(sub)
    assert {sub.maps for sub in groups} == {sub.maps for sub in ref_built}
    return groups


@pytest.mark.parametrize("q", [8, 9, 16])
def test_closure_check_matches_the_exhaustive_check(q, capsys):
    """The groups that qlrc search lists, each of them with one map and its
    inverse removed, with the identity removed, or with one outside map and
    its inverse added, random sets with and without their inverses and with
    and without the identity, and products <s><t> of two cyclic groups get
    the verdict of the exhaustive check from the closure check alone.  A
    product is a set that few generators reach, closed only when its
    factors commute as sets."""
    groups = [(sub.field, set(sub.maps)) for sub in _search_groups(q, capsys)]
    fld = groups[0][0]
    identity = AffineMap(1, 0)
    ambient = AglSubgroup(fld, [identity])
    rng = Xorshift64Star(q)

    def random_map():
        return AffineMap(1 + rng.below(q - 1), rng.below(q))

    def powers(t):
        out, x = {identity}, t
        while x not in out:
            out.add(x)
            x = ambient.compose(x, t)
        return out

    cases = []
    for _, maps in groups:
        h = sorted(maps)[1 + rng.below(len(maps) - 1)]
        t = random_map()
        cases += [maps, maps - {h, _inverse(fld, h)}, maps - {identity}]
        cases.append(maps | {t, _inverse(fld, t)})
    for _ in range(300):
        picked = {random_map() for _ in range(1 + rng.below(6))}
        cases.append({identity} | picked | {_inverse(fld, t) for t in picked})
        cases.append((picked | {_inverse(fld, t) for t in picked}) - {identity})
        cases.append({identity} | {random_map() for _ in range(1 + rng.below(12))})
        cases.append({random_map() for _ in range(1 + rng.below(12))} - {identity})
    for _ in range(60):
        s, t = powers(random_map()), powers(random_map())
        cases.append({ambient.compose(a, b) for a in s for b in t})
    cases = [maps for maps in cases if maps]
    verdicts = [_closed_exhaustively(fld, maps) for maps in cases]
    assert [_accepted(fld, maps) for maps in cases] == verdicts
    assert all(_accepted(fld, maps) for _, maps in groups) and verdicts.count(False) > 1000
    assert sum(identity not in maps for maps in cases) > 600


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
    a = f.gen()  # of order 15
    with pytest.raises(NotSubgroup, match="^M is not a subgroup: its order 2 does not divide 15$"):
        subgroup_from_MB(f, 4, {one, a}, {f.zero()})
    with pytest.raises(NotSubgroup, match=r"^M is not a subgroup: a\^3 is not 1$"):
        subgroup_from_MB(f, 4, {one, a, a * a}, {f.zero()})
    with pytest.raises(NotSubspace, match="^B is not closed: its K-span holds 1$"):
        subgroup_from_MB(f, 1, {one}, {f.zero(), a, one + a})  # a + (1 + a) = 1


def _mb_exhaustive(field, k_degree, M, B):
    """The former (M, B) check, kept as a reference: |M|^2 products, |B|^2
    sums and |B| * |K| products.  The exception class it raises, or None."""
    if k_degree < 1 or field.m % k_degree != 0:
        return NotSubfield
    K = set(field.subfield_elements(k_degree))
    mset, bset = set(M), set(B)
    if len(mset) != len(M) or len(bset) != len(B):
        return InputError
    if 1 not in mset or any(not a or a not in K for a in mset):
        return NotSubgroup
    if any(field.mul(a, b) not in mset for a in mset for b in mset):
        return NotSubgroup
    if 0 not in bset or any(field.add(x, y) not in bset for x in bset for y in bset):
        return NotSubspace
    if any(field.mul(k, x) not in bset for k in K for x in bset):
        return NotSubspace
    return None


def _mb_verdict(field, k_degree, M, B):
    try:
        subgroup_from_MB(field, k_degree, M, B)
    except InputError as e:
        return type(e)
    return None


def _mb_cases(field, rng, count):
    """Seeded (k_degree, M, B) over every subfield degree and one that is
    not one: M a true subgroup of K*, one with an element dropped or added,
    or a random set; B a true K-span of up to three vectors, one with an
    element dropped or added, or a random set; now and then a duplicate."""
    degrees = [d for d in range(1, field.m + 1) if field.m % d == 0]
    mul, add = field.mul, field.add

    def tweak(s, pool):
        s = set(s)
        if len(s) > 1 and rng.below(2):
            s.discard(sorted(s)[1 + rng.below(len(s) - 1)])
        else:
            s.add(pool[rng.below(len(pool))])
        return s

    everything = list(range(field.q))
    for _ in range(count):
        d = field.m + 1 if rng.below(8) == 0 else degrees[rng.below(len(degrees))]
        K = field.subfield_elements(d if d <= field.m else 1)
        units = K[1:]
        g = units[rng.below(len(units))]
        group = {field.power(g, i) for i in range(len(units))}
        kind = rng.below(6)
        if kind < 3:
            M = group
        elif kind < 5:
            M = tweak(group, everything if kind == 4 else units)
        else:
            M = {1} | {a for a in everything if rng.below(4) == 0}
        span = {0}
        for _ in range(rng.below(4)):
            v = rng.below(field.q)
            span = {add(s, mul(k, v)) for s in span for k in K}
        kind = rng.below(6)
        if kind < 3:
            B = span
        elif kind < 5:
            B = tweak(span, everything)
        else:
            B = {b for b in everything if rng.below(3) == 0} | ({0} if rng.below(4) else set())
        M, B = sorted(M), sorted(B)
        if rng.below(20) == 0:
            dup = M if rng.below(2) or not B else B
            dup.append(dup[0])
        yield d, M, B


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_mb_checks_match_the_exhaustive_check(p, m):
    """The order test for M and the early-exit span test for B give every
    seeded (M, B) the verdict and exception class of the pair tables."""
    f = Field(p, m)
    cases = list(_mb_cases(f, Xorshift64Star(1000 * p + m), 400))
    verdicts = [_mb_exhaustive(f, d, M, B) for d, M, B in cases]
    assert [_mb_verdict(f, d, M, B) for d, M, B in cases] == verdicts
    for cls in (None, InputError, NotSubfield, NotSubgroup, NotSubspace):
        assert verdicts.count(cls) >= 5, cls


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4)])
def test_cyclic_generator_matches_the_power_walk(p, m):
    """On every cyclic subgroup of GF(q)*: the smallest element whose powers,
    walked one product at a time, exhaust the group."""
    f = Field(p, m)
    g = primitive_element(f).value()

    def walk(a):
        seen, x = {1}, a
        while x not in seen:
            seen.add(x)
            x = f.mul(x, a)
        return seen

    for e in range(1, f.q):
        if (f.q - 1) % e:
            continue
        group = {f.power(g, (f.q - 1) // e * i) for i in range(e)}
        expected = next(a for a in sorted(group) if walk(a) == group)
        assert _cyclic_generator(f, group) == expected, e


@pytest.mark.parametrize("k_degree", [1, 2])
def test_non_subspace_b_stops_its_span_early(monkeypatch, k_degree):
    """400 random elements of GF(2^18), 0 among them, are no GF(2^d)-subspace;
    the check stops within 2 * |B| * |K| additions and products, where
    growing the whole span would take about 2^19 additions."""
    f = Field(2, 18)
    rng = Xorshift64Star(18)
    B = {0}
    while len(B) < 400:
        B.add(rng.below(f.q))
    calls = {"add": 0, "mul": 0}
    for name in calls:
        op = getattr(Field, name)

        def counted(self, a, b, op=op, name=name):
            calls[name] += 1
            return op(self, a, b)

        monkeypatch.setattr(Field, name, counted)
    with pytest.raises(NotSubspace, match="its K-span holds"):
        subgroup_from_MB(f, k_degree, {1}, B)
    bound = 2 * len(B) * 2**k_degree
    assert 0 < calls["add"] <= bound and calls["mul"] <= bound, calls


def test_subgroup_order_is_product():
    f = Field(2, 4)
    k4 = f.subfield_elements(2)
    m = {x for x in k4 if x}
    sub = subgroup_from_MB(f, 2, m, set(k4))
    assert len(sub) == 3 * 4


def test_orbits_partition_the_domain():
    f = Field(2, 4)
    k4 = f.subfield_elements(2)
    sub = subgroup_from_MB(f, 2, {x for x in k4 if x}, set(k4))
    part = orbits(sub, f.from_ints(range(f.q)))
    covered = [x for orb in part for x in orb]
    assert sorted(covered) == list(range(f.q))
    for orb in part:
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
    expected = Polynomial(f, [[6], [0], [0], [1]])  # x^3 + 6 = x^3 - 1
    assert gp.g == expected


def test_good_polynomial_constant_on_every_block():
    """g is invariant under the subgroup, so it is constant on every orbit of
    the field, the free ones and the short ones alike."""
    cases = []
    f16 = Field(2, 4)
    k4 = f16.subfield_elements(2)
    cases.append(subgroup_from_MB(f16, 2, {x for x in k4 if x}, set(k4)))
    f9 = Field(3, 2)
    cases.append(subgroup_from_MB(f9, 1, {f9.one(), -f9.one()}, set(f9.subfield_elements(1))))
    for sub in cases:
        alpha = next(
            x for x in sub.field.from_ints(range(sub.field.q)) if len(sub.orbit(x)) == len(sub)
        )
        gp = good_polynomial(sub, alpha)
        for block in orbits(sub, sub.field.from_ints(range(sub.field.q))):
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
    assert len(theta_subgroup(sub, Polynomial(f, [0, 1]))) == 1
    # gamma = x^2 + x: fixed exactly by {x, x + 1}
    gamma = Polynomial(f, [f.zero(), one, one])
    th = theta_subgroup(sub, gamma)
    assert len(th) == 2
    assert {t.b for t in th} == {0, 1}
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
    x = Polynomial(f, [0, 1])
    for _ in range(100):
        gamma = Polynomial.zero(f)
        for i in (1, 2):
            for j in range(3):
                c = f.from_value(rng.below(f.q))
                if not c.is_zero():
                    gamma = gamma + Polynomial.constant(c) * x**i * gp.g**j
        if gamma.is_zero():
            continue
        assert len(theta_subgroup(sub, gamma)) < len(sub)


def _oracle_groups():
    """(field, subgroup): additive, multiplicative, and a mixed group in odd
    characteristic, with subgroups of several orders inside each."""
    f16 = Field(2, 4)
    one, a = f16.one(), f16.gen()
    additive = subgroup_from_MB(f16, 1, {one}, {f16.zero(), one, a, a + one})
    units = set(f16.from_ints(range(1, f16.q)))
    multiplicative = subgroup_from_MB(f16, 4, units, {f16.zero()})
    f27 = Field(3, 3)
    gf3 = f27.subfield_elements(1)
    mixed = subgroup_from_MB(f27, 1, {f27.one(), -f27.one()}, set(gf3))
    return {
        "additive": (f16, additive),
        "multiplicative": (f16, multiplicative),
        "odd": (f27, mixed),
    }


@pytest.mark.parametrize("case", ["additive", "multiplicative", "odd"])
def test_theta_subgroup_is_the_pointwise_stabilizer(case):
    """theta_subgroup(H, gamma) == {t : gamma(t(x)) == gamma(x) at every x},
    for deg gamma < q, where agreeing on the field means equal polynomials.
    gamma is a polynomial in the orbit polynomial of H or of a cyclic
    subgroup <s>, plus in some trials a term that breaks the symmetry."""
    f, sub = _oracle_groups()[case]
    q = f.q
    rng = Xorshift64Star(3)
    orders = set()
    for trial in range(24):
        group = set(sub.maps)
        if trial % 4:
            s = sub.maps[rng.below(len(sub))]
            group, power = {AffineMap(1, 0)}, s
            while power not in group:
                group.add(power)
                power = sub.compose(power, s)
        alpha = rng.below(q)
        orbit_poly = annihilator(f, {sub.apply(t, alpha) for t in group})
        gamma = Polynomial.zero(f)
        for e in range(1, (q - 1) // orbit_poly.degree + 1):
            gamma = gamma + orbit_poly**e * Polynomial.constant(f.from_value(rng.below(f.q)))
        if trial % 3 == 0:
            gamma = gamma + Polynomial.monomial(f, f.from_value(rng.below(f.q)), 1 + rng.below(q - 2))
        if gamma.is_zero():
            continue
        assert gamma.degree < q
        pointwise = {t for t in sub if all(gamma(sub.apply(t, x)) == gamma(x) for x in range(q))}
        theta = theta_subgroup(sub, gamma)
        assert set(theta.maps) == pointwise
        orders.add(len(theta))
    assert len(orders) >= 3  # the trivial group, H, and a group between them


def test_theta_rejects_zero_polynomial():
    f = Field(2, 5)
    sub = _additive32(f)
    with pytest.raises(InputError):
        theta_subgroup(sub, Polynomial.zero(f))


def test_descriptor_roundtrip_mb_and_explicit():
    f = Field(2, 4)
    k4 = f.subfield_elements(2)
    sub = subgroup_from_MB(f, 2, {x for x in k4 if x}, set(k4))
    d = sub.descriptor()
    assert d["kind"] == "MB"
    assert subgroup_from_descriptor(f, d) == sub

    explicit = AglSubgroup(f, sub.maps)
    d2 = explicit.descriptor()
    assert d2["kind"] == "explicit"
    assert subgroup_from_descriptor(f, d2) == sub


def _short_orbit_points(sub):
    """The points whose orbit is smaller than the group, by walking each orbit."""
    return {x for x in range(sub.field.q) if len(sub.orbit(x)) < len(sub)}


def test_fixed_points_match_orbit_enumeration_on_search_subgroups(capsys):
    """x is a fixed point of some map of H exactly when its orbit is short,
    on every (M, B) subgroup that `qlrc search` lists."""
    for q in (8, 9, 16, 25, 27, 32, 49, 64, 81):
        groups = _search_groups(q, capsys)
        assert groups, q
        for sub in groups:
            assert sub.fixed_points() == _short_orbit_points(sub), (q, len(sub))


@pytest.mark.parametrize("name", ["inst32", "inst8", "inst7", "inst4", "inst9x"])
def test_fixed_points_match_orbit_enumeration_on_instances(request, name):
    """The instances' subgroups, inst9x's being its image in GF(81)."""
    sub = request.getfixturevalue(name).eval_set.good.subgroup
    assert sub.fixed_points() == _short_orbit_points(sub)


def test_fixed_points_of_a_conjugate():
    """{x -> a(x - c) + c : a in M} fixes c and nothing else; over GF(9),
    c = x is not -c, so b/(a - 1) in place of b/(1 - a) would show."""
    f = Field(3, 2)
    c = f.gen().value()
    m4 = [f.power(primitive_element(f).value(), 2 * i) for i in range(4)]
    sub = AglSubgroup(f, [(a, f.mul(c, f.sub(1, a))) for a in m4])
    assert sub.fixed_points() == _short_orbit_points(sub) == {c}


def test_orbit_of_fixed_base_point():
    f = Field(2, 5)
    sub = _additive32(f)
    orb = sub.orbit(f.zero())
    assert orb == [0, 1, f.gen().value(), f.gen().value() ^ 1]


def test_public_constructor_cannot_label_a_group_as_mb():
    """{x, -x + 1} over GF(9) is a group but no {a*x + b : a in M, b in B}:
    labelled with a subfield degree it would write an MB descriptor that
    reloads as {x, -x}.  The constructor takes no such label, and an
    explicit set writes an explicit descriptor."""
    f = Field(3, 2)
    one = f.one()
    maps = [(one, f.zero()), (-one, one)]
    with pytest.raises(TypeError):
        AglSubgroup(f, maps, subfield_degree=1)
    sub = AglSubgroup(f, maps)
    assert sub.descriptor()["kind"] == "explicit"
    assert subgroup_from_descriptor(f, sub.descriptor()) == sub


def test_mb_descriptor_checks_its_generator_before_walking_m(monkeypatch):
    """subgroup_from_generators raises what subgroup_from_MB raised on the
    same M and B, in the same order, and multiplies nothing when m_gen
    fails: a zero generator, a K degree that does not divide m, or a
    generator outside K*."""
    f = Field(2, 18)
    gen = primitive_element(f).value()
    calls = []
    mul = Field.mul
    monkeypatch.setattr(Field, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    with pytest.raises(NotSubgroup, match="^M generator must be nonzero$"):
        subgroup_from_generators(f, 5, 0, [1])
    with pytest.raises(NotSubfield, match="^degree 5 does not divide 18$"):
        subgroup_from_generators(f, 5, gen, [1])
    with pytest.raises(NotSubgroup, match="^M must sit inside the subfield's nonzero elements$"):
        subgroup_from_generators(f, 6, gen, [1])
    assert not calls
    k64 = f.subfield_elements(6)
    sub = subgroup_from_generators(f, 6, k64[2], [1])
    assert sub == subgroup_from_MB(f, 6, {t.a for t in sub}, set(k64))


def _proofs(monkeypatch):
    """Count the closure proofs (_check_closed) and the structural proofs
    (subgroup_from_MB) that follow."""
    counts = {"closure": 0, "MB": 0}
    closed, from_mb = AglSubgroup._check_closed, agl.subgroup_from_MB

    def closure(self, mapset):
        counts["closure"] += 1
        return closed(self, mapset)

    def structure(*args):
        counts["MB"] += 1
        return from_mb(*args)

    monkeypatch.setattr(AglSubgroup, "_check_closed", closure)
    monkeypatch.setattr(agl, "subgroup_from_MB", structure)
    return counts


def test_each_subgroup_is_proven_once_by_its_origin(monkeypatch):
    """Loading a shipped dump, checking its structure and auditing it prove
    no subgroup again; subgroup_from_MB proves its (M, B) structure once and
    nothing more; an explicit descriptor proves its closure once."""
    counts = _proofs(monkeypatch)
    for path in sorted((PERFBENCH / "dumps").glob("*.json")):
        inst = construct.instance_from_dump(json.loads(path.read_text()))
        assert construct.structure_problem(inst) is None
        assert bounds.weight_bound_audit(inst, trials=5).ok
    assert counts == {"closure": 0, "MB": 0}
    f = Field(2, 4)
    k4 = f.subfield_elements(2)
    sub = agl.subgroup_from_MB(f, 2, set(k4) - {0}, set(k4))
    assert counts == {"closure": 0, "MB": 1}
    explicit = AglSubgroup._proven(f, sub.maps).descriptor()  # no subfield degree, no proof
    assert explicit["kind"] == "explicit" and counts == {"closure": 0, "MB": 1}
    assert subgroup_from_descriptor(f, explicit) == sub
    assert counts == {"closure": 1, "MB": 1}


def _assert_closed(sub):
    sub._check_closed(set(sub.maps))  # raises NotSubgroup unless closed


def test_specs_build_closed_subgroups(monkeypatch):
    """The subgroup of each perfbench spec, and its GF(q^2) image where the
    build extends, are closed under composition, although neither is
    proven when it is built."""
    monkeypatch.setattr(construct, "build_code", lambda es, k, seed: es)
    extended = 0
    for path in sorted((PERFBENCH / "specs").glob("*.json")):
        spec = json.loads(path.read_text())
        sub = subgroup_from_descriptor(field_from_descriptor(spec["field"]), spec["subgroup"])
        es = construct.instance_from_spec(spec)
        for group in (sub, es.good.subgroup):
            _assert_closed(group)
        extended += es.extended
        assert len(es.good.subgroup) == len(sub)
    assert extended == 1


@pytest.mark.parametrize("q", [25, 27, 32, 64])
def test_search_builds_closed_subgroups(q, capsys):
    """Every group that qlrc search lists from an MB pair is closed; for
    q in {8, 9, 16} the closure-check test above proves this already."""
    groups = _search_groups(q, capsys)
    assert groups
    for sub in groups:
        _assert_closed(sub)


def test_stabilizers_are_closed(monkeypatch):
    """Theta of x^p - x is the translations by GF(p) in H, a nontrivial
    proper subgroup, and every Theta of the flagship's 40-trial audit is
    closed; none of them is proven when it is built."""
    orders = []
    for f, sub in _oracle_groups().values():
        x = Polynomial(f, [0, 1])
        theta = theta_subgroup(sub, x**f.p - x)
        _assert_closed(theta)
        prime = set(f.subfield_elements(1))
        assert set(theta.maps) == {t for t in sub if t.a == 1 and t.b in prime}
        orders.append(len(theta))
    assert orders == [2, 1, 3]  # additive, multiplicative, odd
    thetas = []
    splitter = bounds.stabilizer_splitter

    def recording_splitter(subgroup, terms):
        split = splitter(subgroup, terms)

        def record(coeffs):
            out = split(coeffs)
            thetas.append(out[0])
            return out

        return record

    monkeypatch.setattr(bounds, "stabilizer_splitter", recording_splitter)
    dump = json.loads((PERFBENCH / "dumps" / "q32_n32_k19.json").read_text())
    assert bounds.weight_bound_audit(construct.instance_from_dump(dump), trials=40).ok
    assert len(thetas) == 40
    for theta in thetas:
        _assert_closed(theta)
