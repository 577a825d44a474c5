"""Randomized invariants over generated objects and morphisms."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from speccat import (
    ConcreteMorphism,
    Subobject,
    compose,
    cyclic_group,
    enumerate_hom,
    factorize,
    kernel_pair,
    pointed_set,
    pullback,
)
from speccat.catcore import closure, enumerate_monos, subalgebras
from speccat.fractions import NormalizedSpan, fraction_equal
from speccat.limits import preimage
from speccat import registry

LIGHT = settings(max_examples=25, deadline=None)


@LIGHT
@given(m=st.integers(1, 12), n=st.integers(1, 12))
def test_cyclic_hom_count_is_gcd(m, n):
    assert len(enumerate_hom(cyclic_group(m), cyclic_group(n))) == \
        math.gcd(m, n)


@LIGHT
@given(n=st.integers(2, 5), data=st.data())
def test_pset_factorization_recomposes(n, data):
    A = pointed_set(f"P{n}", n)
    B = pointed_set("P4", 4)
    table = (0,) + tuple(
        data.draw(st.integers(0, 3), label=f"t{i}") for i in range(n - 1))
    f = ConcreteMorphism(A, B, table)
    fact = factorize(f)
    assert compose(fact.mono, fact.regular_epi) == f
    assert fact.regular_epi.is_surjective and fact.mono.is_injective
    assert fact.image.size == len(set(table))


@LIGHT
@given(m=st.integers(2, 12), k=st.integers(0, 11))
def test_cyclic_factorization_recomposes(m, k):
    A = cyclic_group(m)
    # multiplication by k is a homomorphism of any cyclic group
    f = ConcreteMorphism(A, A, tuple((k * a) % m for a in range(m)))
    fact = factorize(f)
    assert compose(fact.mono, fact.regular_epi) == f
    assert fact.image.size == m // math.gcd(m, k)
    assert kernel_pair(fact.regular_epi).blocks == kernel_pair(f).blocks


@LIGHT
@given(seed=st.lists(st.integers(0, 23), min_size=0, max_size=3))
def test_closure_is_idempotent_and_monotone(seed):
    G = registry.s4()
    c = closure(G, seed)
    assert closure(G, c) == c
    assert set(seed) <= set(c)
    assert 0 in c


@LIGHT
@given(data=st.data())
def test_pullback_square_commutes_and_is_terminal(data):
    G = registry.s3()
    subs = subalgebras(G)
    f = data.draw(st.sampled_from(subs), label="left").inclusion()
    g = data.draw(st.sampled_from(subs), label="right").inclusion()
    pb = pullback(f, g)
    assert compose(f, pb.proj_left) == compose(g, pb.proj_right)
    W = data.draw(st.sampled_from([o for o in subs if o.size <= 3]),
                  label="probe").object()
    probes = [(p, q) for p in enumerate_hom(W, f.dom)
              for q in enumerate_hom(W, g.dom)
              if compose(f, p) == compose(g, q)]
    for p, q in probes:
        u = pb.mediator(p, q)
        assert compose(pb.proj_left, u) == p
        assert compose(pb.proj_right, u) == q


@LIGHT
@given(data=st.data())
def test_fraction_equality_is_reflexive_and_symmetric(se_family_ab, data):
    z4 = registry.zab(4)
    subs = se_family_ab.m_subobjects(z4)
    s = data.draw(st.sampled_from(subs), label="sub_s")
    t = data.draw(st.sampled_from(subs), label="sub_t")
    fs = data.draw(st.sampled_from(enumerate_hom(s.object(), z4)), label="f")
    ft = data.draw(st.sampled_from(enumerate_hom(t.object(), z4)), label="g")
    a, b = NormalizedSpan(s, fs), NormalizedSpan(t, ft)
    assert fraction_equal(a, a, se_family_ab)[0]
    assert fraction_equal(a, b, se_family_ab)[0] == \
        fraction_equal(b, a, se_family_ab)[0]


@LIGHT
@given(n=st.integers(2, 10))
def test_subobjects_restricted_to_divisors(n):
    A = cyclic_group(n)
    sizes = sorted(len(s.elems) for s in subalgebras(A))
    assert sizes == sorted(d for d in range(1, n + 1) if n % d == 0)
    for s in subalgebras(A):
        assert s.inclusion().is_injective
        assert Subobject(A, s.elems).elems == s.elems


@LIGHT
@given(name=st.sampled_from(["s3-subgroups", "z4-chain", "pointed-le-4"]),
       data=st.data())
def test_preimage_is_the_pullback_of_a_mono(name, data):
    objects = registry.universe(name)
    X, A, W = data.draw(st.sampled_from(
        [(X, A, W) for X in objects for A in objects for W in objects
         if enumerate_monos(X, A)]), label="objects")
    m = data.draw(st.sampled_from(enumerate_monos(X, A)), label="mono")
    x = data.draw(st.sampled_from(enumerate_hom(W, A)), label="along")
    assert preimage(x.table, m.image) == pullback(m, x).proj_right.image
