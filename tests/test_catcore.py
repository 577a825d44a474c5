"""Objects, morphisms, subalgebras and hom enumeration.

Hom counts are pinned against an independent brute-force oracle that checks
every possible map table.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccat import (
    ConcreteMorphism,
    FiniteObject,
    InvalidMorphism,
    InvalidObject,
    Subobject,
    compose,
    cyclic_group,
    direct_product,
    enumerate_hom,
    enumerate_monos,
    group_from_cayley,
    group_from_permutations,
    identity,
    load_objects,
    object_from_descriptor,
    pointed_set,
    subalgebras,
    zero_object,
)
from speccat import catcore, registry
from speccat.catcore import (
    AB,
    GRP,
    PSET,
    closure,
    element_order,
    inverse,
    is_epi,
    is_iso,
    is_mono,
    normal_subalgebras,
)
from speccat.limits import congruences
from speccat.monoclasses import ALL_MONOS, MonoClassSpec, Verdict


def brute_force_homs(A, B):
    """Oracle: try every basepoint-preserving table and keep homomorphisms."""
    homs = []
    for tail in itertools.product(range(B.size), repeat=A.size - 1):
        table = (0,) + tail
        if A.op is None:
            homs.append(table)
            continue
        if all(table[A.op[a][b]] == B.op[table[a]][table[b]]
               for a in range(A.size) for b in range(A.size)):
            homs.append(table)
    return homs


# ---------------------------------------------------------------------------
# Object construction and validation
# ---------------------------------------------------------------------------

def test_cyclic_group_structure():
    z6 = cyclic_group(6)
    assert z6.size == 6 and z6.op[2][5] == 1 and z6.inv[2] == 4
    assert z6.op[0][3] == 3  # identity at index 0


def test_permutation_group_identity_first(s3):
    assert s3.labels[0] == "(0 1 2)"  # identity permutation
    assert s3.size == 6


def test_invalid_cayley_rejected():
    with pytest.raises(InvalidObject):
        FiniteObject(id="bad", backend=GRP, size=2,
                     op=((0, 1), (1, 1)), inv=(0, 1))


def test_nonassociative_rejected():
    op = ((0, 1, 2), (1, 2, 0), (2, 1, 0))  # not associative
    with pytest.raises(InvalidObject):
        FiniteObject(id="bad", backend=GRP, size=3, op=op, inv=(0, 2, 1))


def test_ab_backend_requires_commutativity(s3):
    with pytest.raises(InvalidObject):
        FiniteObject(id="s3ab", backend=AB, size=6, op=s3.op, inv=s3.inv)


def test_direct_product_sizes():
    p = direct_product(cyclic_group(2), cyclic_group(4))
    assert p.size == 8
    assert element_order(p, p.size - 1) in (2, 4)


def test_not_a_permutation_rejected():
    with pytest.raises(InvalidObject):
        group_from_permutations("bad", 3, [(0, 0, 1)])


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

def test_morphism_validation():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    with pytest.raises(InvalidMorphism):
        ConcreteMorphism(z2, z4, (0, 1))  # 1 has order 4, not a hom target
    with pytest.raises(InvalidMorphism):
        ConcreteMorphism(z2, z4, (1, 0))  # basepoint not preserved
    soc = ConcreteMorphism(z2, z4, (0, 2))
    assert soc.is_injective and not soc.is_surjective


def test_compose_and_identity(s3):
    e = identity(s3)
    for f in enumerate_hom(s3, s3):
        assert compose(f, e) == f == compose(e, f)


def test_iso_and_inverse():
    z4 = cyclic_group(4)
    auto = ConcreteMorphism(z4, z4, (0, 3, 2, 1))
    assert is_iso(auto)
    assert compose(inverse(auto), auto) == identity(z4)


def is_mono_by_cancellation(f: ConcreteMorphism, probes) -> bool:
    """Slow categorical mono test: left cancellation against all probe maps."""
    for X in probes:
        homs = enumerate_hom(X, f.dom)
        for g1, g2 in itertools.combinations(homs, 2):
            if compose(f, g1).table == compose(f, g2).table:
                return False
    return True


def is_epi_by_cancellation(f: ConcreteMorphism, probes) -> bool:
    """Slow categorical epi test: right cancellation against all probe maps."""
    for Y in probes:
        homs = enumerate_hom(f.cod, Y)
        for g1, g2 in itertools.combinations(homs, 2):
            if compose(g1, f).table == compose(g2, f).table:
                return False
    return True


def test_mono_epi_match_cancellation(s3_universe):
    """Injective/surjective coincide with categorical mono/epi on a bounded
    universe of probes."""
    small = [o for o in s3_universe if o.size <= 3]
    for A in small:
        for B in small:
            for f in enumerate_hom(A, B):
                assert is_mono(f) == is_mono_by_cancellation(f, small)
                assert is_epi(f) == is_epi_by_cancellation(f, small)


# ---------------------------------------------------------------------------
# Hom enumeration against the brute-force oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(2, 4), (4, 2), (4, 6), (6, 4), (3, 5)])
def test_cyclic_hom_count_is_gcd(m, n):
    zm, zn = cyclic_group(m), cyclic_group(n)
    homs = enumerate_hom(zm, zn)
    assert len(homs) == math.gcd(m, n)
    assert sorted(h.table for h in homs) == sorted(brute_force_homs(zm, zn))


def test_s3_endomorphisms_oracle(s3):
    homs = enumerate_hom(s3, s3)
    assert len(homs) == 10
    assert sorted(h.table for h in homs) == sorted(brute_force_homs(s3, s3))


def test_pset_homs_are_all_pointed_maps():
    p3, p4 = pointed_set("P3", 3), pointed_set("P4", 4)
    assert len(enumerate_hom(p3, p4)) == 4 ** 2
    assert len(enumerate_monos(p3, p4)) == 3 * 2


def test_hom_cross_object_oracle(s3):
    z6 = cyclic_group(6)
    assert sorted(h.table for h in enumerate_hom(z6, s3)) == \
        sorted(brute_force_homs(z6, s3))
    assert sorted(h.table for h in enumerate_hom(s3, z6)) == \
        sorted(brute_force_homs(s3, z6))


@pytest.fixture
def empty_hom_caches(monkeypatch):
    """Both hom caches emptied for the test and restored after it."""
    monkeypatch.setattr(catcore, "_HOM_CACHE", {})
    monkeypatch.setattr(catcore, "_HOM_TABLES", {})
    return catcore


def _cold_homs(A, B):
    """enumerate_hom(A, B) run with emptied caches, which are then put back."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catcore, "_HOM_CACHE", {})
        mp.setattr(catcore, "_HOM_TABLES", {})
        return enumerate_hom(A, B)


def _assert_homs(homs, A, B):
    assert all(h.dom is A and h.cod is B for h in homs)
    assert [h.table for h in homs] == sorted(brute_force_homs(A, B))
    assert homs == _cold_homs(A, B)


def test_equal_op_tables_share_hom_tables(empty_hom_caches, s3):
    za, zb = cyclic_group(4, "Z4a"), cyclic_group(4, "Z4b")
    for A, B in ((za, s3), (zb, s3), (s3, za), (s3, zb), (za, zb), (zb, za)):
        _assert_homs(enumerate_hom(A, B), A, B)
    # one entry per content pair: Z4 -> S3, S3 -> Z4 and Z4 -> Z4
    assert len(empty_hom_caches._HOM_TABLES) == 3
    assert len(empty_hom_caches._HOM_CACHE) == 6
    left, right = enumerate_hom(za, s3), enumerate_hom(zb, s3)
    assert all(f.table is g.table for f, g in zip(left, right))
    assert left != right
    # the backend is part of the content
    zab = cyclic_group(4, "Z4a", backend=AB)
    _assert_homs(enumerate_hom(zab, zab), zab, zab)
    assert len(empty_hom_caches._HOM_TABLES) == 4


def test_relabelled_table_does_not_share_hom_tables(empty_hom_caches, s3):
    z4 = cyclic_group(4)
    swap = (0, 2, 1, 3)  # a relabelling that keeps 0
    relabelled = group_from_cayley("Z4r", [
        [swap[z4.op[swap[a]][swap[b]]] for b in range(4)] for a in range(4)])
    assert relabelled.op != z4.op
    for A, B in ((z4, s3), (relabelled, s3)):
        _assert_homs(enumerate_hom(A, B), A, B)
    assert len(empty_hom_caches._HOM_TABLES) == 2
    assert [h.table for h in enumerate_hom(z4, s3)] != \
        [h.table for h in enumerate_hom(relabelled, s3)]


def test_pointed_sets_share_hom_tables_by_size(empty_hom_caches):
    p3a, p3b, p2 = pointed_set("P3a", 3), pointed_set("P3b", 3), pointed_set("P2", 2)
    for A, B in ((p3a, p2), (p3b, p2), (p2, p3a), (p2, p3b), (p3a, p3b)):
        _assert_homs(enumerate_hom(A, B), A, B)
    # P3 -> P2, P2 -> P3 and P3 -> P3
    assert len(empty_hom_caches._HOM_TABLES) == 3


# ---------------------------------------------------------------------------
# Subalgebras
# ---------------------------------------------------------------------------

def test_subalgebra_counts():
    assert len(subalgebras(registry.s3())) == 6
    assert len(subalgebras(registry.s4())) == 30
    assert len(subalgebras(cyclic_group(12))) == 6
    assert len(subalgebras(registry.q8())) == 6


def test_a5_has_59_subgroups():
    assert len(subalgebras(registry.a5())) == 59


def test_normal_subalgebras_s3(s3):
    normals = normal_subalgebras(s3)
    assert sorted(len(n.elems) for n in normals) == [1, 3, 6]


def test_closure_is_idempotent(s3):
    for seed in ([1], [3], [1, 3]):
        c = closure(s3, seed)
        assert closure(s3, c) == c
        assert set(seed) <= set(c)


def test_full_subobject_is_ambient(s3):
    full = Subobject(s3, tuple(range(s3.size)))
    assert full.object() is s3
    assert full.inclusion() == identity(s3)


def test_subobject_inclusion_is_mono(s3):
    for sub in subalgebras(s3):
        assert sub.inclusion().is_injective
        assert sub.inclusion().image == frozenset(sub.elems)


@pytest.mark.parametrize("make,field", [
    (lambda: cyclic_group(2), "size"),
    (lambda: identity(cyclic_group(2)), "table"),
    (lambda: Subobject(cyclic_group(2), (0,)), "elems"),
    (lambda: next(iter(congruences(cyclic_group(2)))), "blocks"),
    (lambda: Verdict(True, exact=True), "value"),
    (lambda: MonoClassSpec(ALL_MONOS), "kind"),
])
def test_records_are_frozen(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def reference_closure(A, seed):
    """Oracle: multiply every new element by every element found so far."""
    got = {0} | set(seed)
    if A.op is None:
        return tuple(sorted(got))
    frontier = list(got)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(got):
                for c in (A.op[a][b], A.op[b][a]):
                    if c not in got:
                        got.add(c)
                        nxt.append(c)
            c = A.inv[a]
            if c not in got:
                got.add(c)
                nxt.append(c)
        frontier = nxt
    return tuple(sorted(got))


@functools.cache
def reference_subalgebras(A):
    """Oracle: adjoin every outside element to every subgroup found so far;
    element tuples sorted by (size, elements)."""
    found = {reference_closure(A, ())}
    frontier = list(found)
    while frontier:
        nxt = []
        for sub in frontier:
            for g in A.elements:
                if g not in sub:
                    bigger = reference_closure(A, sub + (g,))
                    if bigger not in found:
                        found.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), s))


def relabelled(A, seed):
    """A copy of A with its non-identity elements permuted from the seed."""
    rest = list(range(1, A.size))
    random.Random(f"{seed}:{A.id}").shuffle(rest)
    p = [0] + rest
    table = [[0] * A.size for _ in A.elements]
    for a in A.elements:
        for b in A.elements:
            table[p[a]][p[b]] = p[A.op[a][b]]
    return group_from_cayley(f"{A.id}~{seed}", table, backend=A.backend)


@functools.cache
def lattice_groups():
    """Every catalog group, A5 and its subgroups, S4, the z4-chain objects
    and seed-relabelled copies of the catalog groups."""
    catalog = registry.group_catalog()
    a5 = registry.a5()
    groups = list(catalog) + [a5, registry.s4()]
    groups += [Subobject(a5, elems).object()
               for elems in reference_subalgebras(a5)]
    groups += registry.universe("z4-chain")
    groups += [relabelled(A, seed) for seed in (1, 2) for A in catalog
               if A.size > 2]
    return tuple(groups)


def test_subalgebras_match_reference():
    for A in lattice_groups():
        assert [s.elems for s in subalgebras(A)] == \
            reference_subalgebras(A), A.id


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_closure_matches_reference(data):
    A = data.draw(st.sampled_from(lattice_groups()), label="A")
    seed = data.draw(st.lists(st.integers(0, A.size - 1), max_size=4),
                     label="seed")
    assert closure(A, seed) == reference_closure(A, seed)


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

def test_descriptor_roundtrip():
    obj = object_from_descriptor({
        "kind": "group", "name": "C3",
        "presentation": {"permutations": [[1, 2, 0]], "degree": 3}})
    assert obj.size == 3 and obj.backend == GRP
    ps = object_from_descriptor({"kind": "pointed_set", "name": "P2",
                                 "size": 2})
    assert ps.backend == PSET


def test_load_objects_list():
    text = ('[{"kind": "pointed_set", "name": "A", "size": 2},'
            ' {"kind": "pointed_set", "name": "B", "size": 3}]')
    objs = load_objects(text)
    assert [o.size for o in objs] == [2, 3]


def test_bad_descriptor_rejected():
    with pytest.raises(InvalidObject):
        object_from_descriptor({"kind": "group", "name": ""})
    with pytest.raises(InvalidObject):
        object_from_descriptor({"kind": "mystery", "name": "x"})


def test_zero_objects():
    for backend in (GRP, AB, PSET):
        z = zero_object(backend)
        assert z.size == 1
