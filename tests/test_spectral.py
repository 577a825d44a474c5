"""The localized category: hom-set materialization, the canonical functor,
limit preservation, uniform objects, and division-monoid endomorphisms."""

import json

import pytest

from speccat import (
    ALL_MONOS,
    NORMAL_MONOS,
    ConsistencyError,
    MonoClassSpec,
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
    verify_limit_preservation,
)
from speccat import catcore, registry
from speccat.catcore import AB, GRP
from speccat.monoclasses import ESSENTIAL_FAMILY, EXPLICIT_FAMILY, ISO_FAMILY


@pytest.fixture(scope="module")
def spec_ab(z4_universe):
    return build_spec(AB, MonoClassSpec(ALL_MONOS), z4_universe, verify=True)


@pytest.fixture(scope="module")
def spec_grp(s3_universe):
    return build_spec(GRP, MonoClassSpec(ALL_MONOS), s3_universe, verify=True)


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


def test_minimal_subobject_cross_check(se_family_ab, z4_universe):
    amin = minimal_M_subobject(registry.zab(4), se_family_ab,
                               cross_check_targets=list(z4_universe))
    assert amin.elems == (0, 2)


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
        build_spec(GRP, MonoClassSpec(NORMAL_MONOS), universe)


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
    backend = registry.universe_backend(name)
    objects = registry.universe(name)
    if family == "se":
        return build_spec(backend, MonoClassSpec(ALL_MONOS), objects,
                          verify=False)
    return SpectralCategory(backend, MonoFamily(name=family, kind=family),
                            objects)


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


def test_mediator_count_checks_hom_values_against_the_apex(monkeypatch):
    """The mediator count refuses a hom into the apex with a value outside
    the minimal M-subobject of the apex.  Dropping the top element of each
    apex's position map makes the homs that reach it such values; the
    registered objects, and so the composites of the cones, are left
    alone."""
    spec = _spec_over("se", "s3-subgroups")
    registered, amin = set(spec.objects), spec.amin

    def amin_missing_its_top(A):
        sub = amin(A)
        if A not in registered:
            spec._apos[A].pop(sub.elems[-1], None)
        return sub

    monkeypatch.setattr(spec, "amin", amin_missing_its_top)
    with pytest.raises(ConsistencyError, match="leaves the minimal"):
        verify_limit_preservation(spec,
                                  registry.registered_cospans("s3-subgroups"))


def test_limit_preservation_keeps_no_apex_state(monkeypatch):
    """Once checked, a cospan leaves nothing behind about its pullback apex:
    the spec keeps hom sets and minimal M-subobjects of registered objects
    only, and the morphism cache holds no hom set with an apex, or a
    subobject of one, at either end."""
    spec = _spec_over("se", "s3-subgroups")
    monkeypatch.setattr(catcore, "_HOM_CACHE", {})
    cospans = registry.registered_cospans("s3-subgroups")
    assert all(r.status == "pass"
               for r in verify_limit_preservation(spec, cospans))
    objects = set(spec.objects)
    assert spec._homs
    assert all(A in objects and B in objects for A, B in spec._homs)
    assert set(spec._amin) <= objects and set(spec._apos) <= objects
    apexes = tuple(pullback(f, g).apex.id for f, g in cospans)
    assert catcore._HOM_CACHE
    assert not [key for key in catcore._HOM_CACHE
                if any(X.id.startswith(apexes) for X in key)]


def test_limit_preservation_refuses_an_inconsistent_family():
    """The essential monos of S3 are not pullback stable: a class out of an
    order-2 subgroup leaves the minimal M-subobject A3 of S3, and both the
    fast check and the per-pair reference stop with a ConsistencyError."""
    cospans = registry.registered_cospans("s3-subgroups")
    for check in (verify_limit_preservation, _reference_limit_preservation):
        with pytest.raises(ConsistencyError, match="leaves the minimal"):
            check(_spec_over(ESSENTIAL_FAMILY, "s3-subgroups"), cospans)


def test_registry_lookups_by_universe_name():
    assert registry.universe_backend("pointed-le-4") == "pset"
    assert registry.registered_cospans("order-le-24") == []
    for lookup in (registry.universe, registry.universe_backend,
                   registry.registered_cospans):
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
    spec = build_spec(AB, MonoClassSpec(ALL_MONOS), universe)
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
    a = build_spec(AB, MonoClassSpec(ALL_MONOS), z4_universe).to_json()
    b = build_spec(AB, MonoClassSpec(ALL_MONOS), z4_universe).to_json()
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
            assert row == [spec.compose(c2, c1).index
                           for c2 in spec.hom(B, C)]
            entries += len(row)
    assert entries


def test_export_does_not_share_tables_across_minimal_subobjects():
    """Two objects with one op table but different minimal M-subobjects,
    under a family that is not closed under isos: a class of hom(Z2a, Z2b)
    leaves amin(Z2b), and the export must still refuse it, though Z2a and
    Z2b have the same content."""
    za, zb = cyclic_group(2, "Z2a"), cyclic_group(2, "Z2b")
    M = MonoFamily(name="not-iso-closed", kind=EXPLICIT_FAMILY,
                   members=frozenset({(za, frozenset({0, 1})),
                                      (zb, frozenset({0, 1})),
                                      (zb, frozenset({0}))}))
    spec = SpectralCategory(GRP, M, [za, zb])
    assert spec.amin(za).elems == (0, 1) and spec.amin(zb).elems == (0,)
    with pytest.raises(ConsistencyError, match="leaves the minimal"):
        spec.to_json()
