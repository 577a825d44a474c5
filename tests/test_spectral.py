"""The localized category: hom-set materialization, the canonical functor,
limit preservation, uniform objects, and division-monoid endomorphisms."""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccat import (
    ALL_MONOS,
    NORMAL_MONOS,
    ConcreteMorphism,
    ConsistencyError,
    FiniteObject,
    MonoFamily,
    NormalizedSpan,
    PreconditionViolation,
    SpectralCategory,
    Subobject,
    build_spec,
    canonical_functor,
    compose,
    cyclic_group,
    end_spec_division_check,
    enumerate_hom,
    enumerate_monos,
    identity,
    is_uniform,
    minimal_M_subobject,
    poincare_hom,
    pullback,
    stable_essential_family,
    subalgebras,
    verify_limit_preservation,
)
from speccat import catcore, monoclasses, registry, spectral
from speccat.catcore import closure, element_order, hom_tables
from speccat.monoclasses import (ESSENTIAL_FAMILY, EXPLICIT, ISO_FAMILY,
                                 SE_FAMILY)


@pytest.fixture(scope="module")
def spec_ab(z4_universe):
    return build_spec(MonoFamily(ALL_MONOS), z4_universe)


@pytest.fixture(scope="module")
def spec_grp(s3_universe):
    return build_spec(MonoFamily(ALL_MONOS), s3_universe)


# ---------------------------------------------------------------------------
# Minimal M-subobjects
# ---------------------------------------------------------------------------

def test_minimal_subobject_of_z4_is_socle(se_family_ab):
    amin = minimal_M_subobject(registry.zab(4), se_family_ab)
    assert amin.elems == (0, 2)


def test_minimal_subobject_of_s3_is_full(se_family_grp, s3):
    amin = minimal_M_subobject(s3, se_family_grp)
    assert amin.elems == tuple(range(6))


def test_minimal_subobject_of_zero(se_family_ab):
    amin = minimal_M_subobject(registry.ab_zero(), se_family_ab)
    assert amin.size == 1


def test_minimal_subobject_cross_check(z4_universe):
    spec = build_spec(MonoFamily(ALL_MONOS), z4_universe)
    assert spec.amin(registry.zab(4)).elems == (0, 2)


def test_cross_check_fails_on_a_short_span_quotient(monkeypatch, z4_universe):
    """build_spec counts every hom set against poincare_hom: a span
    quotient that loses one class of hom(Z4, Z4) is caught."""
    full, last = spectral.poincare_hom, z4_universe[-1]

    def short(A, B, M):
        classes = full(A, B, M)
        return classes[1:] if A == B == last else classes

    monkeypatch.setattr(spectral, "poincare_hom", short)
    with pytest.raises(ConsistencyError, match="span quotient has"):
        build_spec(MonoFamily(ALL_MONOS), z4_universe)


def _per_object_cross_check(spec, universe):
    """The cross-check of build_spec as it was before it was keyed: the
    span quotient of every ordered pair of objects, counted against the
    spec's hom set.  Raises the same ConsistencyError."""
    for A in universe:
        for B in universe:
            direct = spec.hom(A, B)
            quotient = spectral.poincare_hom(A, B, spec.M)
            if len(quotient) != len(direct):
                raise ConsistencyError(
                    f"hom({A.id},{B.id}): span quotient has "
                    f"{len(quotient)} classes but hom from the minimal "
                    f"M-subobject has {len(direct)} elements")


@pytest.mark.parametrize("name,calls", [("s3-subgroups", 16),
                                        ("s4-subgroups", 169)])
def test_cross_check_builds_one_span_quotient_per_key(monkeypatch, name,
                                                      calls):
    """The span quotient is built once per pair of keys in M: 4 and 13
    content keys, against 36 and 900 ordered pairs of objects."""
    full, built = spectral.poincare_hom, [0]

    def counted(*args):
        built[0] += 1
        return full(*args)

    monkeypatch.setattr(spectral, "poincare_hom", counted)
    build_spec(MonoFamily(ALL_MONOS), registry.universe(name))
    assert built[0] == calls


_GROUP_UNIVERSES = [name for name in registry.UNIVERSES
                    if registry.universe(name)[0].backend != catcore.PSET]


@pytest.mark.parametrize("name", _GROUP_UNIVERSES)
def test_keyed_cross_check_matches_the_per_object_loop(monkeypatch, name):
    """Both checks pass on every named group universe.  With a span
    quotient that loses a class wherever A has the content of the first
    nonzero object and B is the last object, both fail at the same first
    pair, with the same message."""
    universe = registry.universe(name)
    S = MonoFamily(ALL_MONOS)
    _per_object_cross_check(build_spec(S, universe), universe)
    full, first = spectral.poincare_hom, catcore.content_key(universe[1])

    def short(A, B, M):
        classes = full(A, B, M)
        return (classes[1:] if catcore.content_key(A) == first
                and B == universe[-1] else classes)

    monkeypatch.setattr(spectral, "poincare_hom", short)
    with pytest.raises(ConsistencyError) as keyed:
        build_spec(S, universe)
    with pytest.raises(ConsistencyError) as loop:
        # a spec built with no cross-check: the loop must raise its own error
        _per_object_cross_check(SpectralCategory(
            stable_essential_family(S, universe), universe), universe)
    assert str(keyed.value) == str(loop.value)
    assert f"hom({universe[1].id},{universe[-1].id})" in str(keyed.value)


def test_explicit_S_cross_checks_every_object(monkeypatch):
    """An explicit S names objects, so the cross-check is keyed on the
    source object itself: a span quotient short only out of the second of
    the three order-2 subgroups of S3, which share their content, is
    caught there."""
    universe = registry.universe("s3-subgroups")
    second, s3 = universe[2], universe[-1]
    assert catcore.content_key(second) == catcore.content_key(universe[1])
    S = MonoFamily.explicit(
        m for X in universe for Y in universe for m in enumerate_monos(X, Y))
    full = spectral.poincare_hom

    def short(A, B, M):
        classes = full(A, B, M)
        return classes[1:] if A == second and B == s3 else classes

    monkeypatch.setattr(spectral, "poincare_hom", short)
    with pytest.raises(ConsistencyError,
                       match=re.escape(f"hom({second.id},{s3.id})")):
        build_spec(S, universe)


def test_minimal_subobject_is_computed_once_per_key(monkeypatch):
    """The minimal M-subobject depends on an object only through its key
    in M, so the six objects of s3-subgroups, with four contents, ask for
    it four times: once for the first object of each content."""
    universe = registry.universe("s3-subgroups")
    full, calls = spectral.minimal_M_subobject, Counter()

    def counted(A, *args, **kwargs):
        calls[A] += 1
        return full(A, *args, **kwargs)

    monkeypatch.setattr(spectral, "minimal_M_subobject", counted)
    build_spec(MonoFamily(ALL_MONOS), universe).to_json()
    firsts = {}
    for A in universe:
        firsts.setdefault(catcore.content_key(A), A)
    assert calls == Counter(firsts.values()) and sum(calls.values()) == 4


def _with_renamed_copies(universe):
    """The universe and, after it, a copy of each object under a new id:
    the same content, another object."""
    return universe + [catcore.FiniteObject(**{**X._asdict(), "id": X.id + "'"})
                       for X in universe]


def _key_oracle_families(universe):
    return [stable_essential_family(MonoFamily(ALL_MONOS), universe),
            MonoFamily(kind=ISO_FAMILY), MonoFamily(kind=ESSENTIAL_FAMILY),
            MonoFamily(NORMAL_MONOS), MonoFamily(ALL_MONOS)]


@pytest.mark.parametrize("name", sorted(registry.UNIVERSES))
def test_one_key_gives_one_minimal_subobject(name):
    """The rule of MonoFamily.key: two objects with one key in M have the
    same minimal M-subobject, computed per object, or both are refused
    with the same error.  Over every named universe with a renamed copy of
    each object, and M the stable S-essential class of all monos, the
    isos, the essential, the normal and all monos."""
    universe = _with_renamed_copies(registry.universe(name))
    for M in _key_oracle_families(universe):
        answers: dict = {}
        for A in universe:
            try:
                answer = minimal_M_subobject(A, M).elems
            except (PreconditionViolation, ConsistencyError) as err:
                answer = type(err)
            answers.setdefault(M.key(A), set()).add(answer)
        assert all(len(got) == 1 for got in answers.values()), (M.kind, name)
        # the copies share the keys of their originals
        assert len(answers) <= len(universe) // 2


def test_limit_check_on_s4_finds_no_minimal_subobject(monkeypatch):
    """Every pullback apex of the 465 s4-subgroups cospans has the key of a
    registered object, so once the spec is built and exported the limit
    check finds no minimal M-subobject and leaves no entry in the
    subalgebra or subobject-essential refutation caches.  It reads the
    projections out of an apex as tables on amin(apex), so it leaves none
    in the cache of subobject objects either; that cache is cleared first,
    so that no earlier check has filled it with the amins of the apexes.
    Generating sequences are kept per content, so validating the apexes
    adds none either."""
    catcore._subobject_as_object.cache_clear()
    spec = build_spec(MonoFamily(ALL_MONOS),
                      registry.universe("s4-subgroups"))
    spec.to_json()
    full, calls = spectral.minimal_M_subobject, [0]

    def counted(*args):
        calls[0] += 1
        return full(*args)

    monkeypatch.setattr(spectral, "minimal_M_subobject", counted)
    caches = (catcore.subalgebras, monoclasses._se_refutation,
              catcore._subobject_as_object)
    before = [cache.cache_info().currsize for cache in caches]
    sequences = dict(catcore._GENERATING_SEQUENCES)
    reports = verify_limit_preservation(
        spec, registry.registered_cospans("s4-subgroups"))
    assert len(reports) == 465 and all(r.status == "pass" for r in reports)
    assert calls[0] == 0
    assert [cache.cache_info().currsize for cache in caches] == before
    assert catcore._GENERATING_SEQUENCES == sequences


def test_hom_sets_and_export_validate_no_morphism(monkeypatch):
    """A class is a map table out of the minimal M-subobject, read off the
    hom cache, so building every hom set and the export validates no
    morphism.  The objects are freshly named: no earlier call has built a
    morphism out of them."""
    G = catcore.group_from_permutations("S3-unbuilt", 3, [[1, 0, 2], [1, 2, 0]])
    universe = registry.subgroup_universe(G) + [cyclic_group(4, "Z4-unbuilt")]
    spec = SpectralCategory(MonoFamily(kind=SE_FAMILY), universe)
    for A in universe:
        spec.amin(A)
    built = [0]
    validate = ConcreteMorphism.__post_init__

    def counting(self):
        built[0] += 1
        validate(self)

    monkeypatch.setattr(ConcreteMorphism, "__post_init__", counting)
    classes = sum(len(spec.hom(A, B)) for A in universe for B in universe)
    export = spec.to_json()
    assert built[0] == 0
    assert classes == sum(len(h["classes"]) for h in export["homs"]) > 36


# ---------------------------------------------------------------------------
# Hom sets and composition
# ---------------------------------------------------------------------------

def test_z4_chain_hom_counts(spec_ab, z4_universe):
    zero, z2, z4 = z4_universe
    assert len(spec_ab.hom(z4, z4)) == 2
    assert len(spec_ab.hom(z2, z2)) == 2
    assert len(spec_ab.hom(z4, z2)) == 2
    assert len(spec_ab.hom(z2, z4)) == 2
    assert len(spec_ab.hom(zero, zero)) == 1
    assert len(spec_ab.hom(z4, zero)) == 1


def test_hom_counts_match_span_quotient(spec_grp, se_family_grp, s3_universe):
    for A in s3_universe:
        for B in s3_universe:
            assert len(spec_grp.hom(A, B)) == \
                len(poincare_hom(A, B, se_family_grp))


def test_s3_endomorphism_count(spec_grp, s3):
    assert len(spec_grp.hom(s3, s3)) == 10


def test_identity_and_zero_classes(spec_ab):
    z4 = registry.zab(4)
    ida = spec_ab.identity_class(z4)
    zero = spec_ab.zero_class(z4, z4)
    assert ida != zero
    assert zero.is_zero and not ida.is_zero
    assert spec_ab.compose(ida, ida) == ida


def test_zero_class_absorbs(spec_ab, z4_universe):
    for A in z4_universe:
        for B in z4_universe:
            for C in z4_universe:
                z = spec_ab.zero_class(B, C)
                for c in spec_ab.hom(A, B):
                    assert spec_ab.compose(z, c) == spec_ab.zero_class(A, C)


def test_composition_is_associative(spec_ab, z4_universe):
    objs = list(z4_universe)
    for A in objs:
        for B in objs:
            for C in objs:
                for D in objs:
                    for f in spec_ab.hom(A, B):
                        for g in spec_ab.hom(B, C):
                            for h in spec_ab.hom(C, D):
                                assert spec_ab.compose(
                                    h, spec_ab.compose(g, f)) == \
                                    spec_ab.compose(spec_ab.compose(h, g), f)


# ---------------------------------------------------------------------------
# Canonical functor
# ---------------------------------------------------------------------------

def test_functor_sends_identity_to_identity(spec_grp, s3_universe):
    for A in s3_universe:
        assert canonical_functor(identity(A), spec_grp) == \
            spec_grp.identity_class(A)


def test_functor_preserves_composition(spec_grp, s3_universe):
    for A in s3_universe:
        for B in s3_universe:
            for f in enumerate_hom(A, B):
                pf = canonical_functor(f, spec_grp)
                for C in s3_universe:
                    for g in enumerate_hom(B, C):
                        assert canonical_functor(compose(g, f), spec_grp) == \
                            spec_grp.compose(canonical_functor(g, spec_grp),
                                             pf)


@pytest.mark.parametrize("family,name", [("se", "s3-subgroups"),
                                         ("se", "z4-chain"),
                                         (ISO_FAMILY, "pointed-le-4")])
def test_canonical_functor_is_the_class_of_the_identity_fraction(family,
                                                                 name):
    """canonical_functor reads f on amin(dom f).  The route it no longer
    takes, the class of the fraction (all of dom f, f) found by
    class_of_span, gives the same class for every hom f between objects."""
    spec = _spec_over(family, name)
    homs = 0
    for A in spec.objects:
        full = Subobject(A, tuple(A.elements))
        for B in spec.objects:
            for f in enumerate_hom(A, B):
                homs += 1
                assert canonical_functor(f, spec) == \
                    spec.class_of_span(NormalizedSpan(full, f))
    assert homs > len(spec.objects) ** 2


def test_functor_inverts_the_socle(spec_ab):
    c = canonical_functor(registry.soc_z2_z4(), spec_ab)
    assert spec_ab.is_invertible(c)


def test_member_inclusions_become_invertible(spec_grp, se_family_grp,
                                             s3_universe):
    from speccat.catcore import subalgebras
    for A in s3_universe:
        for sub in subalgebras(A):
            m = sub.inclusion()
            if se_family_grp.contains(m):
                assert spec_grp.is_invertible(
                    canonical_functor(m, spec_grp))


def test_class_of_span_rejects_small_domains(spec_ab):
    z4 = registry.zab(4)
    from speccat.catcore import zero_morphism
    trivial = Subobject(z4, (0,))
    only_zero = NormalizedSpan(trivial, zero_morphism(trivial.object(), z4))
    with pytest.raises(ConsistencyError):
        spec_ab.class_of_span(only_zero)


def test_build_spec_refuses_bad_class():
    universe = [cyclic_group(2), registry.v4(), registry.s4()]
    with pytest.raises(PreconditionViolation):
        build_spec(MonoFamily(NORMAL_MONOS), universe)


# ---------------------------------------------------------------------------
# Limit preservation
# ---------------------------------------------------------------------------

def test_limit_preservation_grp(spec_grp):
    reports = verify_limit_preservation(
        spec_grp, registry.registered_cospans("s3-subgroups"))
    assert reports and all(r.status == "pass" for r in reports)


def test_limit_preservation_ab(spec_ab):
    reports = verify_limit_preservation(
        spec_ab, registry.registered_cospans("z4-chain"))
    assert reports and all(r.status == "pass" for r in reports)
    assert all(r.cones_checked > 0 for r in reports)


def _reference_limit_preservation(spec, cospans):
    """The per-pair check: for each commuting cone, scan hom(W, apex) for
    mediators.  Returns (cospan, status, cones_checked, witness) tuples."""
    out = []
    for f, g in cospans:
        pb = pullback(f, g)
        pf, pg = canonical_functor(f, spec), canonical_functor(g, spec)
        pl = canonical_functor(pb.proj_left, spec)
        pr = canonical_functor(pb.proj_right, spec)
        checked, witness = 0, None
        for W in spec.objects:
            for p in spec.hom(W, f.dom):
                for q in spec.hom(W, g.dom):
                    if spec.compose(pf, p) != spec.compose(pg, q):
                        continue
                    checked += 1
                    mediators = [h for h in spec.hom(W, pb.apex)
                                 if spec.compose(pl, h) == p
                                 and spec.compose(pr, h) == q]
                    if len(mediators) != 1:
                        witness = {"probe": W.id, "p": p.to_json(),
                                   "q": q.to_json(),
                                   "mediators": len(mediators)}
                        break
                if witness:
                    break
            if witness:
                break
        out.append(((f"{f.dom.id}->{f.cod.id}", f"{g.dom.id}->{g.cod.id}"),
                    "fail" if witness else "pass", checked, witness))
    return out


def _spec_over(family, name):
    objects = registry.universe(name)
    if family == "se":
        return SpectralCategory(stable_essential_family(
            MonoFamily(ALL_MONOS), objects), objects)
    return SpectralCategory(MonoFamily(kind=family), objects)


@pytest.mark.parametrize("family", ["se", ISO_FAMILY])
@pytest.mark.parametrize("name", ["s3-subgroups", "z4-chain"])
def test_limit_preservation_matches_per_pair_reference(name, family):
    spec = _spec_over(family, name)
    cospans = registry.registered_cospans(name)
    got = [(r.cospan, r.status, r.cones_checked, r.witness)
           for r in verify_limit_preservation(spec, cospans)]
    assert got == _reference_limit_preservation(_spec_over(family, name),
                                                cospans)
    assert all(checked > 0 for _, _, checked, _ in got)


@pytest.mark.parametrize("family", ["se", ISO_FAMILY])
def test_limit_preservation_on_cospans_sharing_ends(family):
    """Cospans of monos into S3 that are not inclusions: several legs share
    their domain and codomain but are different classes, so composites are
    told apart by class, not by hom set."""
    objects = registry.universe("s3-subgroups")
    S3 = objects[-1]
    legs = [m for X in objects[1:] for m in enumerate_monos(X, S3)]
    assert len(legs) > len({(m.dom, m.cod) for m in legs})
    cospans = [(legs[i], legs[j])
               for i in range(len(legs)) for j in range(i, len(legs), 3)]
    got = [(r.cospan, r.status, r.cones_checked, r.witness)
           for r in verify_limit_preservation(
               _spec_over(family, "s3-subgroups"), cospans)]
    assert got == _reference_limit_preservation(
        _spec_over(family, "s3-subgroups"), cospans)


def test_limit_preservation_matches_the_reference_on_s4_cospans():
    """A sample of the 465 registered cospans of s4-subgroups.  Every apex
    has the op table of a universe object, so mediators are counted on hom
    tables the universe has already searched."""
    spec = _spec_over("se", "s4-subgroups")
    cospans = registry.registered_cospans("s4-subgroups")[::40]
    tables = {X.op for X in spec.objects}
    assert all(pullback(f, g).apex.op in tables for f, g in cospans)
    got = [(r.cospan, r.status, r.cones_checked, r.witness)
           for r in verify_limit_preservation(spec, cospans)]
    assert got == _reference_limit_preservation(spec, cospans)
    assert all(status == "pass" and checked > 0
               for _, status, checked, _ in got)


def _restricted_projections(spec, pb):
    """The two projections of a pullback restricted to amin(apex)."""
    amin = spec.amin(pb.apex)
    return (ConcreteMorphism(amin.object(), proj.cod,
                             tuple(proj.table[e] for e in amin.elems))
            for proj in (pb.proj_left, pb.proj_right))


def _full_label_mediator_counts(spec, W, apex, pl, pr):
    """For each pair of classes (p, q), how many homs h: amin(W) -> apex
    have pl.h = p and pr.h = q: every value of h is placed in amin(apex)
    and each composite is looked up by its whole label."""
    apos = {e: i for i, e in enumerate(spec.amin(apex).elems)}
    left, right = ({c.label: c.index for c in spec.hom(W, proj.cod)}
                   for proj in (pl, pr))
    counts = Counter()
    for h in hom_tables(spec.amin(W).object(), apex):
        if any(v not in apos for v in h):
            raise ConsistencyError(f"a value of {h} leaves the minimal "
                                   f"M-subobject of {apex.id}")
        counts[left[tuple(pl.table[apos[v]] for v in h)],
               right[tuple(pr.table[apos[v]] for v in h)]] += 1
    return counts


def _counts_at_generators(spec, W, apex, pl, pr):
    """The mediator count of verify_limit_preservation for the probe W and
    the restricted projections pl, pr out of apex: the hom indices read by
    (probe key, leg key), the readers by (probe key, apex key)."""
    kw = spec._key(W)
    return spectral._mediator_counts(
        W, pl.cod, pr.cod, pl.table, pr.table,
        spec._hom(W, pl.cod, kw, spec._key(pl.cod)).index,
        spec._hom(W, pr.cod, kw, spec._key(pr.cod)).index,
        spec._hom(W, apex, kw, spec._key(apex)).readers)


def _per_probe_limit_preservation(spec, cospans, adjust=None):
    """The cone loop of verify_limit_preservation as it was before probes
    were keyed: every probe W of every cospan is scanned, with the same
    composites, and mediators counted by whole labels.  ``adjust(W,
    counts)``, when given, replaces the counts out of W.  Returns (cospan,
    status, cones_checked, witness) tuples."""
    out = []
    for f, g in cospans:
        pb = pullback(f, g)
        pf, pg = canonical_functor(f, spec), canonical_functor(g, spec)
        pl, pr = _restricted_projections(spec, pb)
        checked, witness = 0, None
        for W in spec.objects:
            pf_p = [spec.compose(pf, p).index for p in spec.hom(W, f.dom)]
            pg_q = [spec.compose(pg, q).index for q in spec.hom(W, g.dom)]
            mediators = _full_label_mediator_counts(spec, W, pb.apex, pl, pr)
            if adjust:
                mediators = adjust(W, mediators)
            for p in spec.hom(W, f.dom):
                for q in spec.hom(W, g.dom):
                    if pf_p[p.index] != pg_q[q.index]:
                        continue
                    checked += 1
                    n = mediators[p.index, q.index]
                    if n != 1:
                        witness = {"probe": W.id, "p": p.to_json(),
                                   "q": q.to_json(), "mediators": n}
                        break
                if witness:
                    break
            if witness:
                break
        out.append(((f"{f.dom.id}->{f.cod.id}", f"{g.dom.id}->{g.cod.id}"),
                    "fail" if witness else "pass", checked, witness))
    return out


@pytest.mark.parametrize("family,name", [("se", "s3-subgroups"),
                                         ("se", "z4-chain"),
                                         (ISO_FAMILY, "pointed-le-4")])
def test_mediator_counts_read_at_generators_match_whole_labels(family, name):
    """For every cospan and every probe, the mediator count read at the
    generators of amin(W) equals the count made with whole labels."""
    spec = _spec_over(family, name)
    cospans = (_small_pointed_hom_cospans() if name == "pointed-le-4"
               else registry.registered_cospans(name))
    for f, g in cospans:
        pb = pullback(f, g)
        pl, pr = _restricted_projections(spec, pb)
        for W in spec.objects:
            assert _counts_at_generators(spec, W, pb.apex, pl, pr) == \
                _full_label_mediator_counts(spec, W, pb.apex, pl, pr)


@pytest.mark.parametrize("family", ["se", ISO_FAMILY])
def test_keyed_probes_match_the_per_probe_loop(family):
    """The three order-2 subgroups of s3-subgroups share one probe key, so
    two of them are counted from the first."""
    spec = _spec_over(family, "s3-subgroups")
    keys = {A: spec._key(A) for A in spec.objects}
    assert len(set(keys.values())) < len(keys)
    cospans = registry.registered_cospans("s3-subgroups")
    got = [(r.cospan, r.status, r.cones_checked, r.witness)
           for r in verify_limit_preservation(spec, cospans)]
    assert got == _per_probe_limit_preservation(
        _spec_over(family, "s3-subgroups"), cospans)
    assert all(status == "pass" for _, status, _, _ in got)


@pytest.mark.parametrize("size", [2, 3])
def test_keyed_probes_fail_where_the_per_probe_loop_fails(monkeypatch, size):
    """A broken mediator count that doubles every count out of a probe of
    the given size, which depends on the probe's key only.  With size 2
    the first failing probe is the first order-2 subgroup, whose key two
    later probes repeat; with size 3 it is A3, after the order-2 subgroups
    that share one key passed.  Each cospan fails at the cone where the
    per-probe loop fails it."""
    counts = spectral._mediator_counts

    def doubled(W, got):
        return Counter({k: 2 * n for k, n in got.items()}) \
            if W.size == size else got

    def miscounted(W, *args):
        return doubled(W, counts(W, *args))

    monkeypatch.setattr(spectral, "_mediator_counts", miscounted)
    cospans = registry.registered_cospans("s3-subgroups")
    got = [(r.cospan, r.status, r.cones_checked, r.witness)
           for r in verify_limit_preservation(
               _spec_over("se", "s3-subgroups"), cospans)]
    assert got == _per_probe_limit_preservation(
        _spec_over("se", "s3-subgroups"), cospans, adjust=doubled)
    probes = {witness["probe"] for _, status, _, witness in got
              if status == "fail"}
    assert probes == {registry.universe("s3-subgroups")[1 if size == 2
                                                         else 4].id}


@pytest.mark.parametrize("name", ["s3-subgroups", "s4-subgroups"])
def test_a_non_commuting_mediator_sends_the_probe_to_its_cones(monkeypatch,
                                                               name):
    """A probe passes uncounted cone by cone only when its mediator count
    has one entry per commuting cone.  A count with one more entry, a
    non-commuting (p, q) counted once, makes every probe that reads it
    scan its cones instead; they all pass, with the counts of the
    per-probe loop.  A count is made once per case and read by every
    probe decision of that case, each of which asks for its length once,
    so the scans are the reads of the counts with an extra entry.  On the
    true counts no probe scans its cones."""
    spec = _spec_over("se", name)
    cospans = registry.registered_cospans(name)[::7]
    scans, full_scan = [0], spectral._first_failure

    def counted_scan(cases):
        scans[0] += 1
        return full_scan(cases)

    monkeypatch.setattr(spectral, "_first_failure", counted_scan)
    want = _per_probe_limit_preservation(_spec_over("se", name), cospans)
    got = [(r.cospan, r.status, r.cones_checked, r.witness)
           for r in verify_limit_preservation(spec, cospans)]
    assert got == want and scans[0] == 0

    counts, extra, reads = spectral._mediator_counts, [0], [0]

    class WithExtra(Counter):
        """A count with an extra entry, which notes each read of its
        length once it is made."""

        made = False

        def __len__(self):
            reads[0] += self.made
            return super().__len__()

    def with_extra(W, L, R, pl, pr, left, right, readers):
        """The true counts, plus the first (p, q) they leave out.  Every
        commuting cone has a mediator, so that pair does not commute.  The
        indices ``left`` and ``right`` hold one entry per class."""
        got = counts(W, L, R, pl, pr, left, right, readers)
        pq = next(((p, q) for p in range(len(left)) for q in range(len(right))
                   if (p, q) not in got), None)
        if pq is not None:
            got = WithExtra(got)
            got[pq] = 1
            got.made = True
            extra[0] += 1
        return got

    monkeypatch.setattr(spectral, "_mediator_counts", with_extra)
    got = [(r.cospan, r.status, r.cones_checked, r.witness)
           for r in verify_limit_preservation(_spec_over("se", name), cospans)]
    assert got == want
    assert all(status == "pass" for _, status, _, _ in got)
    assert scans[0] == reads[0] >= extra[0] > 0


def _five_element_apex_cospans():
    """Four pointed-le-4 hom cospans whose pullback apex has 5 elements, a
    content that no registered object has."""
    cospans = [(f, g) for f, g, size in _pointed_hom_cospans()
               if size == 5][:4]
    assert len(cospans) == 4
    return cospans


def test_limit_check_numbers_each_apex_once_per_cospan(monkeypatch):
    """Once the spec has met every pair of keys, a cospan asks for the key
    of its pullback apex once, for amin(apex) and the probes together,
    however many probe keys it decides."""
    spec = _spec_over("se", "s3-subgroups")
    cospans = registry.registered_cospans("s3-subgroups")
    verify_limit_preservation(spec, cospans)
    apexes = {pullback(f, g).apex for f, g in cospans}
    key, asked = spec.M.key, Counter()

    def counted(A):
        asked[A] += A in apexes
        return key(A)

    monkeypatch.setattr(spec.M, "key", counted)
    assert all(r.status == "pass"
               for r in verify_limit_preservation(spec, cospans))
    assert len({spec._key(W) for W in spec.objects}) == 4
    assert sum(asked.values()) == len(cospans)


def test_mediator_count_checks_hom_values_against_the_apex(monkeypatch):
    """The mediator count refuses a hom into the apex with a value outside
    the minimal M-subobject of the apex.  Dropping the top element from the
    position map of the one key that the 5-element apexes add makes the
    homs that reach it such values; the keys of the registered objects,
    and so the composites of the cones, are left alone."""
    spec = _spec_over(ISO_FAMILY, "pointed-le-4")
    registered, minimal = set(spec._keys.values()), spec._minimal

    def minimal_missing_its_top(A, k):
        found = minimal(A, k)
        if k not in registered:
            found.positions.pop(found.elems[-1], None)
        return found

    monkeypatch.setattr(spec, "_minimal", minimal_missing_its_top)
    with pytest.raises(ConsistencyError, match="leaves the minimal"):
        verify_limit_preservation(spec, _five_element_apex_cospans())


def _objects_held(value, seen=None):
    """Every FiniteObject in value, through dict keys and values, tuples,
    lists and sets."""
    seen = set() if seen is None else seen
    if isinstance(value, FiniteObject):
        seen.add(value)
    elif isinstance(value, dict):
        for k, v in value.items():
            _objects_held(k, seen)
            _objects_held(v, seen)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for v in value:
            _objects_held(v, seen)
    return seen


def _exercise(spec, cospans):
    """The export, the composition rows the writer reads, the limit check,
    every composite and the division checks of every registered object;
    the limit check must pass."""
    spec.to_json()
    for A in spec.objects:
        for B in spec.objects:
            spec.composition_row(A, B)
    assert all(r.status == "pass"
               for r in verify_limit_preservation(spec, cospans))
    for c2, c1 in _composable_pairs(spec):
        spec.compose(c2, c1)
    for A in spec.objects:
        end_spec_division_check(A, spec)


def _assert_state_per_key(spec):
    """The spec keeps its derived state per number: the minimal
    M-subobjects per key number; hom sets and composition rows per
    (domain number, key number); composition tables per (domain number,
    key number, key number).  Key numbers and domain numbers each run from
    0, every domain number is that of a kept minimal M-subobject, and the
    only objects the spec holds, apart from its family M, are its
    registered objects."""
    numbers = set(spec._key_ids.values()) | set(spec._keys.values())
    assert numbers == set(range(len(numbers)))
    domains = set(spec._dom_ids.values())
    assert domains == set(range(len(domains)))
    assert domains == {amin.dom for amin in spec._amins.values()}
    assert set(spec._keys) == set(spec.objects)
    assert spec._amins and set(spec._amins) <= numbers
    for state, keys in ((spec._homs, 1), (spec._rows, 1), (spec._tables, 2)):
        assert state
        for d, *ks in state:
            assert d in domains and len(ks) == keys and set(ks) <= numbers
    held = _objects_held([v for name, v in vars(spec).items() if name != "M"])
    assert held == set(spec.objects)


def test_limit_preservation_keeps_no_apex_state():
    """Once checked, a cospan leaves nothing behind about its pullback apex
    object: every apex of s3-subgroups has the content of a registered
    object, so the check adds no key to the spec.  The three order-2
    subgroups share one key, so the 36 object pairs have 16 hom-index
    entries, one per pair of the four keys."""
    spec = _spec_over("se", "s3-subgroups")
    spec.to_json()
    keys = dict(spec._key_ids)
    _exercise(spec, registry.registered_cospans("s3-subgroups"))
    _assert_state_per_key(spec)
    assert spec._key_ids == keys
    assert len(spec.objects) ** 2 == 36 and len(spec._homs) == 16


def test_limit_check_numbers_no_apex_in_the_spec():
    """Pointed cospans with 5-element apexes, a content no registered object
    has: the four apexes are numbered by their one key, not stored as
    objects, so they add exactly one key number and one minimal
    M-subobject to the spec, and no hom record."""
    spec = _spec_over(ISO_FAMILY, "pointed-le-4")
    spec.to_json()
    keys = len(spec._key_ids)
    _exercise(spec, _five_element_apex_cospans())
    _assert_state_per_key(spec)
    assert len(spec._key_ids) == keys + 1 and len(spec._amins) == keys + 1
    # the readers of hom(W, apex) are kept by the check alone: the spec
    # keeps no hom record into the apexes' key
    registered = set(spec._keys.values())
    assert all(k in registered for _, k in spec._homs)


def test_limit_check_asks_for_no_hom_set_out_of_an_apex(monkeypatch):
    """A projection out of a pullback apex is read by its label, so the
    check asks for no hom set, of classes or of map tables, out of an apex
    or out of a subobject of one (their ids start with ``Pb[``)."""
    domains = []

    def recording(fn, at):
        """fn, noting the id of its argument at position ``at``."""
        def wrapper(*args, **kwargs):
            domains.append(args[at].id)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SpectralCategory, "_hom",
                        recording(SpectralCategory._hom, 1))
    hom_tables_ = recording(catcore.hom_tables, 0)
    for module in (catcore, spectral):
        monkeypatch.setattr(module, "hom_tables", hom_tables_)
    for name in ("s3-subgroups", "pointed-le-4"):
        reports = verify_limit_preservation(
            _spec_over("se", name), registry.registered_cospans(name))
        assert reports and all(r.status == "pass" for r in reports)
    assert domains
    assert not [A for A in domains if A.startswith("Pb[")]


def _pointed_hom_cospans():
    """Every ordered hom cospan A -> C <- B over pointed-le-4, with the size
    of its pullback apex: the pairs (a, b) with f(a) = g(b)."""
    objects = registry.universe("pointed-le-4")
    out = []
    for C in objects:
        homs = [f for A in objects for f in enumerate_hom(A, C)]
        fibres = [Counter(f.table) for f in homs]
        for f, ff in zip(homs, fibres):
            for g, fg in zip(homs, fibres):
                out.append((f, g, sum(n * fg[c] for c, n in ff.items())))
    return out


def test_pointed_hom_cospans_count():
    """The sweep that CI runs: 9,066 cospans, 48 with 12 or more elements in
    their apex."""
    cospans = _pointed_hom_cospans()
    assert len(cospans) == 9066
    assert all(size == pullback(f, g).apex.size
               for f, g, size in cospans[::97])
    assert sum(size >= 12 for _, _, size in cospans) == 48


def _small_pointed_hom_cospans():
    """A sample of the cospans with at most 3 elements in their apex, which
    the per-pair reference checks in about a second."""
    return [(f, g) for f, g, size in _pointed_hom_cospans() if size <= 3][::29]


def test_limit_preservation_matches_the_reference_on_pointed_hom_cospans():
    """Cospans of non-injective legs, where several q share the composite
    g.q: the cone counts match the per-pair reference."""
    cospans = _small_pointed_hom_cospans()
    assert any(not f.is_injective for f, _ in cospans)
    got = [(r.cospan, r.status, r.cones_checked, r.witness)
           for r in verify_limit_preservation(
               _spec_over(ISO_FAMILY, "pointed-le-4"), cospans)]
    assert got == _reference_limit_preservation(
        _spec_over(ISO_FAMILY, "pointed-le-4"), cospans)


def test_cones_are_visited_in_pair_order(monkeypatch):
    """With every mediator count made zero, each cospan fails at its first
    commuting cone in the order W, p, q, as the per-pair scan finds it.  The
    zero object is left out of the probes: its one cone would come first."""
    spec = SpectralCategory(MonoFamily(kind=ISO_FAMILY),
                            registry.universe("pointed-le-4")[1:])
    cospans = _small_pointed_hom_cospans()
    monkeypatch.setattr(spectral, "_mediator_counts",
                        lambda *args: Counter())
    for (f, g), r in zip(cospans, verify_limit_preservation(spec, cospans)):
        pf, pg = canonical_functor(f, spec), canonical_functor(g, spec)
        W, p, q = next((W, p, q) for W in spec.objects
                       for p in spec.hom(W, f.dom) for q in spec.hom(W, g.dom)
                       if spec.compose(pf, p) == spec.compose(pg, q))
        assert (r.status, r.cones_checked) == ("fail", 1)
        assert r.witness == {"probe": W.id, "p": p.to_json(),
                             "q": q.to_json(), "mediators": 0}


_LARGE_APEX_CHECK = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path[:0] = sys.argv[1:]
from test_spectral import _pointed_hom_cospans
from speccat import MonoFamily, SpectralCategory, registry
from speccat import verify_limit_preservation
from speccat.monoclasses import ISO_FAMILY
spec = SpectralCategory(MonoFamily(kind=ISO_FAMILY),
                        registry.universe("pointed-le-4"))
cospans = [(f, g) for f, g, size in _pointed_hom_cospans() if size >= 12]
reports = verify_limit_preservation(spec, cospans)
print(json.dumps([r.status for r in reports]))
"""


def test_limit_check_on_large_pointed_apexes_within_1_gib():
    """The 48 ordered pointed-le-4 hom cospans whose apex has 12 or more
    elements (up to 16) pass under the iso family, in a child process
    capped at 1 GiB of address space.  A projection is read by its label,
    so the 4**(n-1) homs from an apex with n elements into P4 are never
    built."""
    paths = [str(Path(__file__).parent), str(Path(spectral.__file__).parents[1])]
    child = subprocess.run([sys.executable, "-c", _LARGE_APEX_CHECK, *paths],
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    assert json.loads(child.stdout) == ["pass"] * 48


def test_limit_preservation_refuses_an_inconsistent_family():
    """The essential monos of S3 are not pullback stable: a class out of an
    order-2 subgroup leaves the minimal M-subobject A3 of S3, and both the
    fast check and the per-pair reference stop with a ConsistencyError."""
    cospans = registry.registered_cospans("s3-subgroups")
    for check in (verify_limit_preservation, _reference_limit_preservation):
        with pytest.raises(ConsistencyError, match="leaves the minimal"):
            check(_spec_over(ESSENTIAL_FAMILY, "s3-subgroups"), cospans)


def test_registry_lookups_by_universe_name():
    assert registry.registered_cospans("order-le-24") == []
    for lookup in (registry.universe, registry.registered_cospans):
        with pytest.raises(PreconditionViolation):
            lookup("nonsense")


# ---------------------------------------------------------------------------
# Uniform objects and division monoids
# ---------------------------------------------------------------------------

def test_z4_is_uniform(se_family_ab):
    assert bool(is_uniform(registry.zab(4), se_family_ab))


def test_s3_is_not_uniform(se_family_grp, s3):
    rep = is_uniform(s3, se_family_grp)
    assert not rep.uniform and rep.witness is not None


def test_zero_object_not_uniform(se_family_ab):
    rep = is_uniform(registry.ab_zero(), se_family_ab)
    assert not rep.uniform and rep.witness == {"reason": "zero object"}


def test_z4_endos_form_division_monoid(spec_ab):
    rep = end_spec_division_check(registry.zab(4), spec_ab)
    assert rep.verdict and rep.size == 2
    assert rep.invertible == tuple(i for i in range(2) if i != rep.zero_index)


def test_z5_endos_form_division_monoid():
    z5 = registry.zab(5)
    universe = [registry.ab_zero(), z5]
    spec = build_spec(MonoFamily(ALL_MONOS), universe)
    rep = end_spec_division_check(z5, spec)
    assert rep.verdict and rep.size == 5
    assert len(rep.invertible) == 4


def test_s3_endos_not_division_monoid(spec_grp, s3):
    rep = end_spec_division_check(s3, spec_grp)
    assert not rep.verdict and rep.size == 10


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_export_schema_and_determinism(z4_universe):
    a = build_spec(MonoFamily(ALL_MONOS), z4_universe).to_json()
    b = build_spec(MonoFamily(ALL_MONOS), z4_universe).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert set(a) == {"objects", "exact", "homs", "composition"}
    assert a["exact"] is True
    endo = next(h for h in a["homs"]
                if h["dom"] == h["cod"] == z4_universe[-1].id)
    assert len(endo["classes"]) == 2
    for block in a["composition"]:
        n_dom = sum(1 for _ in block["table"])
        assert all(isinstance(i, int) for row in block["table"] for i in row)
        assert n_dom == len(next(
            h for h in a["homs"]
            if h["dom"] == block["dom"] and h["cod"] == block["mid"])["classes"])


def _restriction_compose(spec, c2, c1):
    """The composite of c1: A -> B and c2: B -> C computed for this one
    pair, with no composition table: c2's label read at the positions in
    amin(B) of c1's label, looked up among the classes of hom(A, C)."""
    if c1.dst != c2.src:
        raise PreconditionViolation("classes are not composable")
    bpos = {e: i for i, e in enumerate(spec.amin(c1.dst).elems)}
    for v in c1.label:
        if v not in bpos:
            raise ConsistencyError(f"label value {v} leaves amin")
    return spec.class_of_label(c1.src, c2.dst,
                               tuple(c2.label[bpos[v]] for v in c1.label))


def _composable_pairs(spec):
    objects = spec.objects
    for A in objects:
        for B in objects:
            for C in objects:
                for c1 in spec.hom(A, B):
                    for c2 in spec.hom(B, C):
                        yield c2, c1


def _oracle_mismatches(spec):
    """The composable pairs on which ``spec.compose`` and the per-pair
    oracle disagree, and the number of pairs."""
    bad, pairs = [], 0
    for c2, c1 in _composable_pairs(spec):
        pairs += 1
        if spec.compose(c2, c1) != _restriction_compose(spec, c2, c1):
            bad.append((c2, c1))
    return bad, pairs


# pointed sets carry no op table: their content key rests on the size
@pytest.mark.parametrize("name", ["s3-subgroups", "z4-chain", "pointed-le-4"])
def test_export_composition_tables_match_compose(name):
    spec = _spec_over("se", name)
    by_id = {A.id: A for A in spec.objects}
    entries = 0
    for block in spec.to_json()["composition"]:
        A, B, C = by_id[block["dom"]], by_id[block["mid"]], by_id[block["cod"]]
        assert len(block["table"]) == len(spec.hom(A, B))
        for c1, row in zip(spec.hom(A, B), block["table"]):
            assert row == [_restriction_compose(spec, c2, c1).index
                           for c2 in spec.hom(B, C)]
            entries += len(row)
    assert entries


@pytest.mark.parametrize("name", ["s3-subgroups", "z4-chain", "pointed-le-4"])
def test_compose_and_division_check_match_the_per_pair_oracle(name):
    """Every composable pair, read off the composition tables, against
    the per-pair oracle; and each endomorphism monoid's invertibles
    against the oracle's."""
    spec = _spec_over("se", name)
    bad, pairs = _oracle_mismatches(spec)
    assert pairs and not bad
    for A in spec.objects:
        ida = spec.identity_class(A)
        invertible = tuple(
            c.index for c in spec.hom(A, A)
            if any(_restriction_compose(spec, d, c) == ida
                   and _restriction_compose(spec, c, d) == ida
                   for d in spec.hom(A, A)))
        assert end_spec_division_check(A, spec).invertible == invertible


class _CountingTables(dict):
    """A table cache that counts how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.stored = Counter()

    def __setitem__(self, key, value):
        self.stored[key] += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("name", ["s3-subgroups", "z4-chain", "pointed-le-4"])
def test_each_key_triple_table_is_computed_once(name):
    """The export, every composite, the division checks and the limit
    check all read one table per (domain number of A, key number of B, key
    number of C), computed once; the export's entries and the composition
    rows hold that very list."""
    spec = _spec_over("se", name)
    spec._tables = tables = _CountingTables()
    export = spec.to_json()
    for A in spec.objects:
        end_spec_division_check(A, spec)
    verify_limit_preservation(spec, registry.registered_cospans(name))
    for c2, c1 in _composable_pairs(spec):
        spec.compose(c2, c1)
    assert spec.to_json() == export
    by_id = {A.id: A for A in spec.objects}
    dom = {A.id: spec._dom(A) for A in spec.objects}
    key = {A.id: spec._key(A) for A in spec.objects}
    triples = {(dom[e["dom"]], key[e["mid"]], key[e["cod"]])
               for e in export["composition"]}
    assert set(tables.stored) == triples
    assert set(tables.stored.values()) == {1}
    for e in export["composition"]:
        table = tables[dom[e["dom"]], key[e["mid"]], key[e["cod"]]]
        assert e["table"] is table
        row = spec.composition_row(by_id[e["dom"]], by_id[e["mid"]])
        assert row[spec.objects.index(by_id[e["cod"]])] is table
    # the rows read the tables already made, and make none anew
    assert set(tables.stored.values()) == {1}
    if name == "s3-subgroups":
        # the three order-2 subgroups share one key
        assert len(triples) < len(export["composition"])
    if name == "z4-chain":
        # Z4 and Z2 have one minimal M-subobject, Z2, but not one key
        assert len(set(dom.values())) < len(set(key.values()))


@pytest.mark.parametrize("name", ["s3-subgroups", "z4-chain", "pointed-le-4"])
def test_equal_tables_are_one_list(name):
    """Key triples whose composition tables are equal share one list, so
    the writer renders each distinct table once."""
    spec = _spec_over("se", name)
    spec.to_json()
    tables = list(spec._tables.values())
    distinct = {tuple(map(tuple, t)) for t in tables}
    assert len({id(t) for t in tables}) == len(distinct) < len(tables)


def _amin_content(spec, A):
    return catcore.content_key(spec.amin(A).object())


@pytest.mark.parametrize("name,keys,contents", [("s4-subgroups", 13, 10),
                                                ("order-le-24", 17, 12)])
def test_records_keyed_on_the_minimal_subobject_match_the_oracle(
        name, keys, contents):
    """A fraction out of A is fixed by its restriction to amin(A), so the
    spec keeps hom(A, B) per content of amin(A) and key of B.  For every
    pair, the labels the spec returns are the map tables amin(A) -> B, and
    every composition row is the tables of its triples.  Every table of a
    triple whose first object shares its amin content, but not its key,
    with another object is read cell by cell against the per-pair
    oracle."""
    universe = registry.universe(name)
    spec = build_spec(MonoFamily(ALL_MONOS), universe)
    spec.to_json()
    assert len(set(map(spec._key, universe))) == keys
    assert len({_amin_content(spec, A) for A in universe}) == contents
    for A in universe:
        for B in universe:
            assert spec.hom_labels(A, B) == hom_tables(spec.amin(A).object(),
                                                       B)
            assert spec.composition_row(A, B) == [
                spec.composition_table(A, B, C) for C in universe]
    shared = [A for A in universe
              if any(_amin_content(spec, A) == _amin_content(spec, X)
                     and spec._key(A) != spec._key(X) for X in universe)]
    assert shared
    cells = 0
    for A in shared:
        for B in universe:
            for C in universe:
                table = spec.composition_table(A, B, C)
                for c1, row in zip(spec.hom(A, B), table):
                    assert row == [_restriction_compose(spec, c2, c1).index
                                   for c2 in spec.hom(B, C)]
                    cells += len(row)
    assert cells


def test_s4_keeps_130_hom_records_and_1690_tables():
    """On s4-subgroups, 10 amin contents and 13 keys: once exported, the
    spec keeps 130 hom records and 130 composition rows, rather than 169
    per pair of keys, and 1,690 composition tables, rather than 2,197,
    of which 258 are distinct."""
    spec = build_spec(MonoFamily(ALL_MONOS), registry.universe("s4-subgroups"))
    spec.to_json()
    for A in spec.objects:
        for B in spec.objects:
            spec.composition_row(A, B)
    assert len(spec._homs) == len(spec._rows) == 130
    assert len(spec._tables) == 1690
    assert len({id(t) for t in spec._tables.values()}) == len(
        spec._distinct) == 258


def test_amin_is_kept_and_hom_validates_no_subobject(monkeypatch):
    """amin(A) of a registered object is one Subobject, validated once, so
    asking every hom set again builds no Subobject; an object that is not
    registered gets a new one each time."""
    spec = _spec_over("se", "s3-subgroups")
    objects = spec.objects
    first = [spec.amin(A) for A in objects]
    built = [0]
    validate = Subobject.__post_init__

    def counting(self):
        built[0] += 1
        validate(self)

    monkeypatch.setattr(Subobject, "__post_init__", counting)
    assert all(len(spec.hom(A, B)) for A in objects for B in objects)
    assert [spec.amin(A) for A in objects] == first
    assert all(spec.amin(A) is sub for A, sub in zip(objects, first))
    assert built[0] == 0
    copy = catcore.FiniteObject(**{**objects[-1]._asdict(), "id": "S3'"})
    assert spec.amin(copy) is not spec.amin(copy)
    assert built[0] == 2


def _gens(spec, A):
    """The positions in amin(A) of its generating sequence, at which the
    spec reads the labels of classes out of A."""
    return spec._minimal(A, spec._key(A)).gens


def test_class_lookup_reads_generators_and_checks_the_whole_label():
    """A label that agrees with the identity of S3 at the generators of
    S3, but not at one other element, is refused."""
    spec = _spec_over("se", "s3-subgroups")
    S3 = spec.objects[-1]
    gens = _gens(spec, S3)
    assert spec.amin(S3).elems == tuple(range(6)) and len(gens) == 2
    ident = spec.identity_class(S3)
    other = next(i for i in range(1, 6) if i not in gens)
    label = list(ident.label)
    label[other] = label[next(i for i in range(1, 6) if i != other)]
    assert tuple(label[g] for g in gens) == tuple(ident.label[g] for g in gens)
    with pytest.raises(ConsistencyError, match="carries label"):
        spec.class_of_label(S3, S3, tuple(label))
    with pytest.raises(ConsistencyError, match="carries label"):
        spec.class_of_label(S3, S3, ident.label[:-1])
    assert spec.class_of_label(S3, S3, ident.label) == ident


@pytest.mark.parametrize("name", ["z4-chain", "pointed-le-4"])
def test_zero_object_and_pointed_sets_read_their_generators(name):
    """The zero object's generating sequence is empty, so its classes are
    read at position 0; a pointed set is generated by all its nonzero
    elements, so its classes are read everywhere but at the basepoint.
    Every class is found again from its label."""
    spec = _spec_over("se", name)
    zero = spec.objects[0]
    assert zero.size == 1 and _gens(spec, zero) == (0,)
    for A in spec.objects:
        n = spec.amin(A).size
        if name == "pointed-le-4":
            assert _gens(spec, A) == (tuple(range(1, n)) or (0,))
        for B in spec.objects:
            for c in spec.hom(A, B):
                assert spec.class_of_label(A, B, c.label) == c


def test_swapped_table_cells_fail_the_oracle():
    """Swap two different cells of one composition table: the composites
    read from it no longer match the per-pair oracle."""
    spec = _spec_over("se", "s3-subgroups")
    spec.to_json()
    table = next(t for t in spec._tables.values()
                 if len({x for row in t for x in row}) > 1)
    cells = [(i, j) for i, row in enumerate(table) for j in range(len(row))]
    (i, j), (k, m) = next((a, b) for a in cells for b in cells
                          if table[a[0]][a[1]] != table[b[0]][b[1]])
    table[i][j], table[k][m] = table[k][m], table[i][j]
    bad, _ = _oracle_mismatches(spec)
    assert bad


def test_export_does_not_share_tables_across_minimal_subobjects():
    """Two objects with one op table but different minimal M-subobjects,
    under a family that is not closed under isos: a class of hom(Z2a, Z2b)
    leaves amin(Z2b), and the export must still refuse it, though Z2a and
    Z2b have the same content."""
    za, zb = cyclic_group(2, "Z2a"), cyclic_group(2, "Z2b")
    M = MonoFamily(kind=EXPLICIT,
                   members=frozenset({(za, frozenset({0, 1})),
                                      (zb, frozenset({0, 1})),
                                      (zb, frozenset({0}))}))
    spec = SpectralCategory(M, [za, zb])
    assert spec.amin(za).elems == (0, 1) and spec.amin(zb).elems == (0,)
    with pytest.raises(ConsistencyError, match="leaves the minimal"):
        spec.to_json()


# ---------------------------------------------------------------------------
# The closed form of the minimal M-subobject
# ---------------------------------------------------------------------------

def _omega(A):
    """The minimal M-subobject of A under the SE family, in closed form: for
    a group, Omega(A), the subgroup generated by its elements of prime
    order; a pointed set is its own minimal M-subobject."""
    if A.op is None:
        return tuple(range(A.size))
    orders = [element_order(A, a) for a in range(A.size)]
    return closure(A, [a for a, n in enumerate(orders)
                       if n > 1 and all(n % d for d in range(2, n))])


@pytest.mark.parametrize("name", sorted(registry.UNIVERSES))
def test_minimal_subobject_is_generated_by_the_elements_of_prime_order(name):
    """spec.amin against Omega on every object of the universe and on every
    pullback apex of its registered cospans.  An apex is numbered by its key
    and finds the minimal M-subobject of the registered object with that
    key, so the apexes check that sharing against the closed form."""
    spec = _spec_over("se", name)
    apexes = [pullback(f, g).apex for f, g in registry.registered_cospans(name)]
    for A in list(spec.objects) + apexes:
        assert spec.amin(A).elems == _omega(A), A.id


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_minimal_subobject_of_a_catalog_subgroup_is_omega(data):
    """A subgroup H of a catalog group G, asked of a spec registered on G
    alone: H is numbered by its key and its minimal M-subobject is Omega(H)."""
    G = data.draw(st.sampled_from(registry.group_catalog()), label="G")
    H = data.draw(st.sampled_from(subalgebras(G)), label="H").object()
    spec = SpectralCategory(MonoFamily(kind=SE_FAMILY), [G])
    assert spec.amin(H).elems == _omega(H)
    assert spec.amin(G).elems == _omega(G)
