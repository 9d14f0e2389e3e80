"""Shared fixtures: the flagship GF(32) instance and a few small ones.

Instances are immutable once built, so session scope is safe and keeps the
suite fast.
"""

import functools
import json

import pytest

from qlrc import Field, build_code, build_evaluation_set, instance_to_dump, subgroup_from_MB


@pytest.fixture(scope="session")
def f32():
    return Field(2, 5)


@pytest.fixture(scope="session")
def sub32(f32):
    """Additive subgroup {x + b : b in {0, 1, a, 1 + a}} of order 4."""
    a = f32.gen()
    one = f32.one()
    return subgroup_from_MB(f32, 1, {one}, {f32.zero(), one, a, a + one})


@pytest.fixture(scope="session")
def inst32(sub32):
    """The [32, 19] locality-3 instance over GF(32)."""
    return build_code(build_evaluation_set(sub32), 19)


@pytest.fixture(scope="session")
def inst8():
    """[8, 5] locality-3 additive instance over GF(8); brute-forceable."""
    f8 = Field(2, 3)
    one = f8.one()
    a = f8.gen()
    sub = subgroup_from_MB(f8, 1, {one}, {f8.zero(), one, a, a + one})
    return build_code(build_evaluation_set(sub), 5)


@pytest.fixture(scope="session")
def inst7():
    """[7, 4] locality-6 multiplicative instance over GF(8)."""
    f8 = Field(2, 3)
    m_all = {x for x in f8.elements() if not x.is_zero()}
    sub = subgroup_from_MB(f8, 3, m_all, {f8.zero()})
    return build_code(build_evaluation_set(sub, domain="orbits", n=7), 4)


@pytest.fixture(scope="session")
def inst4():
    """[4, 3] locality-3 additive instance over GF(4); the whole field."""
    f4 = Field(2, 2)
    sub = subgroup_from_MB(f4, 1, {f4.one()}, set(f4.elements()))
    return build_code(build_evaluation_set(sub), 3)


@pytest.fixture(scope="session")
def inst9x():
    """[8, 5] over GF(9) with an order-4 multiplicative subgroup.

    Its multiplier classes are mixed quadratic residues, so the build
    legitimately moves to GF(81); exercises the extended path end to end.
    """
    f9 = Field(3, 2)
    g = f9.primitive_element()
    m4 = {g ** (2 * i) for i in range(4)}
    sub = subgroup_from_MB(f9, 2, m4, {f9.zero()})
    return build_code(build_evaluation_set(sub, domain="orbits", n=8), 5)


@pytest.fixture(scope="session")
def translation_instance():
    """Factory: the [p^m, k] code of the translations by GF(p) acting on
    GF(p^m), all of it evaluated; each shape is built once."""

    @functools.cache
    def make(p, m, k):
        f = Field(p, m)
        sub = subgroup_from_MB(f, 1, {f.one()}, set(f.subfield_elements(1)))
        es = build_evaluation_set(sub)
        assert not es.extended
        return build_code(es, k)

    return make


@pytest.fixture()
def tampered_dual_dumps(inst8):
    """[8,5]_8 dumps whose generator_d is cut short, repeats a row, or holds
    a dual word that is not a row of generator_c, each paired with the
    verify check that must catch it."""
    dump = instance_to_dump(inst8)
    dropped = json.loads(json.dumps(dump))
    del dropped["generator_d"][-1]
    repeated = json.loads(json.dumps(dump))
    repeated["generator_d"][1] = repeated["generator_d"][0]
    summed = json.loads(json.dumps(dump))
    f = inst8.field
    d0, d1 = ([f.element(c) for c in row] for row in summed["generator_d"][:2])
    summed["generator_d"][0] = [(a + b).to_list() for a, b in zip(d0, d1)]
    return [
        (dropped, "generator-row-consistency"),
        (repeated, "generator-ranks"),
        (summed, "generator-ranks"),
    ]
