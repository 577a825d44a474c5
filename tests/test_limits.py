"""Pullbacks, equalizers, kernels, congruences, factorizations, and the
backend-normality property suite."""

import pytest

from speccat import (
    Congruence,
    CospanMismatch,
    InvalidObject,
    check_normal_backend,
    compose,
    congruences,
    cyclic_group,
    enumerate_hom,
    equalizer,
    factorize,
    identity,
    is_normal_epi,
    kernel,
    kernel_pair,
    pointed_set,
    product,
    pullback,
    zero_of,
)
from speccat import registry
from speccat.catcore import AB, GRP, PSET, ConcreteMorphism, zero_morphism
from speccat.limits import (
    cokernel,
    congruence_from_normal_subobject,
    congruence_from_partition,
    has_zero_kernel,
)


# ---------------------------------------------------------------------------
# Pullbacks
# ---------------------------------------------------------------------------

def test_classic_pullback_is_zero(s3, s3_named):
    a3, s2 = s3_named["A3"].inclusion(), s3_named["S2"].inclusion()
    pb = pullback(a3, s2)
    assert pb.apex.size == 1


def test_pullback_along_identity(s3, s3_named):
    a3 = s3_named["A3"].inclusion()
    pb = pullback(a3, identity(s3))
    assert pb.apex.size == a3.dom.size
    assert pb.proj_left.is_bijective


def test_soc_soc_pullback():
    soc = registry.soc_z2_z4()
    pb = pullback(soc, soc)
    assert pb.apex.size == 2
    assert pb.proj_left.is_bijective and pb.proj_right.is_bijective


def test_pullback_pairs_are_lex_sorted(s3, s3_named):
    a3 = s3_named["A3"].inclusion()
    pb = pullback(a3, a3)
    assert list(pb.pairs) == sorted(pb.pairs)
    assert pb.pairs[0] == (0, 0)


def test_pullback_codomain_mismatch():
    soc = registry.soc_z2_z4()
    other = identity(cyclic_group(2, backend=AB))
    with pytest.raises(CospanMismatch):
        pullback(soc, other)


def test_pullback_universal_property(s3_universe):
    """Every commuting probe cone factors uniquely through the mediator."""
    small = [o for o in s3_universe if o.size <= 3]
    cospans = registry.registered_cospans("s3-subgroups")
    for f, g in cospans[:8]:
        pb = pullback(f, g)
        for W in small:
            for p in enumerate_hom(W, f.dom):
                for q in enumerate_hom(W, g.dom):
                    if compose(f, p).table != compose(g, q).table:
                        continue
                    u = pb.mediator(p, q)
                    assert compose(pb.proj_left, u) == p
                    assert compose(pb.proj_right, u) == q
                    others = [h for h in enumerate_hom(W, pb.apex)
                              if compose(pb.proj_left, h) == p
                              and compose(pb.proj_right, h) == q]
                    assert others == [u]


def test_pullback_of_mono_is_mono(s3, s3_universe):
    from speccat.catcore import subalgebras
    for sub in subalgebras(s3):
        m = sub.inclusion()
        for W in s3_universe:
            for x in enumerate_hom(W, s3):
                assert pullback(m, x).proj_right.is_injective


def test_product_sizes():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    apex, pl, pr = product(z2, z3)
    assert apex.size == 6
    assert pl.is_surjective and pr.is_surjective


# ---------------------------------------------------------------------------
# Equalizers and kernels
# ---------------------------------------------------------------------------

def test_equalizer_of_equal_maps_is_full(s3):
    f = enumerate_hom(s3, s3)[1]
    assert equalizer(f, f).size == s3.size


def test_kernel_of_quotient_is_kernel_subgroup(s3, s3_named):
    cong = congruence_from_normal_subobject(s3_named["A3"])
    _, e = cong.quotient()
    k = kernel(e)
    assert k.image == frozenset(s3_named["A3"].elems)


def test_kernel_of_mono_is_zero(s3_named):
    assert kernel(s3_named["S2"].inclusion()).dom.size == 1


def test_kernel_of_zero_map_is_everything(s3):
    z = zero_morphism(s3, s3)
    assert kernel(z).dom.size == s3.size


# ---------------------------------------------------------------------------
# Congruences
# ---------------------------------------------------------------------------

def test_congruence_counts(s3):
    assert len(congruences(s3)) == 3
    assert len(congruences(zero_of(GRP))) == 1
    assert len(congruences(cyclic_group(4, backend=AB))) == 3


def test_pset_congruences_are_all_partitions():
    # Bell number B(3) = 5
    assert len(congruences(pointed_set("P3", 3))) == 5


def test_delta_nabla(s3):
    # the discrete and the full congruence, from their partitions
    delta = congruence_from_partition(s3, [[e] for e in s3.elements])
    nabla = congruence_from_partition(s3, [list(s3.elements)])
    assert delta.is_discrete and len(delta.blocks) > 1
    assert nabla.blocks == (tuple(range(s3.size)),)


def test_quotient_basepoint_block_first(s3, s3_named):
    cong = congruence_from_normal_subobject(s3_named["A3"])
    q, e = cong.quotient()
    assert q.size == 2
    assert all(e.table[a] == 0 for a in s3_named["A3"].elems)


def test_invalid_partition_rejected(s3):
    with pytest.raises(InvalidObject):
        congruence_from_partition(s3, [[0, 1], [2, 3], [4, 5]])


def test_kernel_pair_is_congruence(s3):
    for f in enumerate_hom(s3, s3):
        kp = kernel_pair(f)
        assert isinstance(kp, Congruence)
        # the blocks are the fibres of f: each in one fibre, one per value
        assert all(len({f.table[a] for a in block}) == 1
                   for block in kp.blocks)
        assert len(kp.blocks) == len(set(f.table))


# ---------------------------------------------------------------------------
# Factorization and normality
# ---------------------------------------------------------------------------

def test_factorize_recomposes(s3):
    z6 = cyclic_group(6)
    for f in list(enumerate_hom(s3, s3)) + list(enumerate_hom(z6, s3)):
        fact = factorize(f)
        assert compose(fact.mono, fact.regular_epi) == f
        assert fact.regular_epi.is_surjective and fact.mono.is_injective
        assert kernel_pair(fact.regular_epi).blocks == kernel_pair(f).blocks


def test_factorize_mod2_map():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = ConcreteMorphism(z4, z2, (0, 1, 0, 1))
    fact = factorize(f)
    assert fact.mono.is_bijective
    assert fact.image.size == 2


def test_is_normal_epi_examples(s3, s3_named):
    cong = congruence_from_normal_subobject(s3_named["A3"])
    _, e = cong.quotient()
    assert is_normal_epi(e)
    # pointed sets: collapse two of three points; kernel is zero but the map
    # is not a cokernel
    p3, p2 = pointed_set("P3", 3), pointed_set("P2", 2)
    f = ConcreteMorphism(p3, p2, (0, 1, 1))
    assert f.is_surjective and has_zero_kernel(f)
    assert not is_normal_epi(f)


def test_cokernel_in_groups(s3, s3_named):
    c = cokernel(s3_named["A3"].inclusion())
    assert c.cod.size == 2 and c.is_surjective
    c2 = cokernel(s3_named["S2"].inclusion())
    # normal closure of an order-2 subgroup of the 6-element symmetric group
    # is the whole group
    assert c2.cod.size == 1


def test_check_normal_backend_verdicts():
    assert check_normal_backend(
        registry.subgroup_universe(registry.s3())).passed
    assert check_normal_backend(registry.universe("z4-chain")).passed
    report = check_normal_backend(registry.universe("pointed-le-4"))
    assert report.backend == PSET
    assert not report.passed
    assert any(f["check"] == "regular-epi-is-normal" for f in report.failures)
