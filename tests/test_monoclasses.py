"""Essential, subobject-essential and pullback stable essential monos, the
closure-law harness, and the hypothesis harness for the designated class S."""

import re
import sys
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccat import (
    ALL_MONOS,
    NORMAL_MONOS,
    BackendMismatch,
    MonoFamily,
    PreconditionViolation,
    Subobject,
    build_spec,
    classify,
    closure_law_suite,
    congruences,
    cyclic_group,
    enumerate_monos,
    essential_four_ways,
    find_weak_left_cancellation_witness,
    identity,
    is_essential,
    is_stable_essential,
    is_subobject_essential,
    s_class_report,
    stabilize,
    stable_essential_family,
)
from speccat import catcore, limits, monoclasses, registry
from speccat.catcore import (
    ConcreteMorphism,
    FiniteObject,
    compose,
    enumerate_hom,
    is_normal_subset,
    pointed_set,
    subalgebras,
)
from speccat.limits import preimage, pullback
from speccat.monoclasses import (
    ESSENTIAL_FAMILY,
    EXPLICIT,
    ISO_FAMILY,
    SE_FAMILY,
    STABILIZED_FAMILY,
    RefutingPullback,
    Verdict,
    monos_between,
)

# the reference loops ask for one hom set many times, and enumerate_hom
# builds its morphisms afresh on each call: memoize them for this module
enumerate_hom = cache(enumerate_hom)


# ---------------------------------------------------------------------------
# Essentiality
# ---------------------------------------------------------------------------

def test_index_two_inclusion_is_essential(s3, s3_named, S_all):
    assert bool(is_essential(s3_named["A3"].inclusion(), S_all))


def test_identity_is_essential(s3, S_all):
    assert bool(is_essential(identity(s3), S_all))


def test_order_two_inclusion_not_essential(s3, s3_named, S_all):
    v = is_essential(s3_named["S2"].inclusion(), S_all)
    assert not v.value and v.exact
    # the refuting quotient identifies nothing in the order-2 subgroup
    assert v.witness is not None


def test_essential_requires_membership(s3, S_all, s3_named):
    from speccat.catcore import zero_morphism
    with pytest.raises(PreconditionViolation):
        is_essential(zero_morphism(s3, s3), S_all)


def test_four_ways_agree_on_s3(s3, S_all):
    for sub in subalgebras(s3):
        four = essential_four_ways(sub.inclusion())
        assert len(set(four.values())) == 1


def test_four_ways_builds_each_quotient_once_per_codomain(monkeypatch):
    """The regular quotients of a codomain are built once, however many
    monos into it are asked about.  The copy of S4 is new, so no earlier
    call has built its quotients."""
    S4 = catcore.FiniteObject(**{**registry.s4()._asdict(), "id": "S4-new"})
    quotient, built = limits.Congruence.quotient, [0]

    def counted(self):
        built[0] += 1
        return quotient(self)

    monkeypatch.setattr(limits.Congruence, "quotient", counted)
    monos = [sub.inclusion() for sub in subalgebras(S4)]
    for m in monos:
        assert len(set(essential_four_ways(m).values())) == 1
    assert built[0] == len(congruences(S4)) == 4 and len(monos) == 30


def test_simple_codomain_makes_nonzero_monos_essential(S_all):
    a5 = registry.a5()
    assert len(congruences(a5)) == 2
    for sub in subalgebras(a5):
        if sub.size > 1:
            assert bool(is_essential(sub.inclusion(), S_all))
            break


# ---------------------------------------------------------------------------
# Subobject-essentiality
# ---------------------------------------------------------------------------

def test_index_two_inclusion_not_subobject_essential(s3_named):
    v = is_subobject_essential(s3_named["A3"].inclusion())
    assert not v.value
    assert v.witness.image == frozenset(s3_named["S2"].elems) or \
        len(v.witness.image) == 2


def test_identity_subobject_essential(s3):
    assert bool(is_subobject_essential(identity(s3)))


def test_socle_subobject_essential():
    assert bool(is_subobject_essential(registry.soc_z2_z4()))


# ---------------------------------------------------------------------------
# Stable essentiality
# ---------------------------------------------------------------------------

def test_index_two_inclusion_not_stable(s3_named, S_all, s3_universe):
    v = is_stable_essential(s3_named["A3"].inclusion(), S_all, s3_universe)
    assert not v.value and v.exact
    assert v.witness is not None
    assert v.witness.pulled.dom.size == 1
    assert v.witness.pulled.cod.size == 2


def test_iso_is_stable(s3, S_all, s3_universe):
    assert bool(is_stable_essential(identity(s3), S_all, s3_universe))


def test_socle_stable_in_ab(S_all, z4_universe):
    assert bool(is_stable_essential(registry.soc_z2_z4(), S_all, z4_universe))


def test_classification_report(s3_named, S_all, s3_universe):
    rep = classify(s3_named["A3"].inclusion(), S_all, s3_universe)
    assert rep.in_S and bool(rep.essential)
    assert not bool(rep.subobject_essential)
    assert not bool(rep.stable_essential)
    j = rep.to_json()
    assert j["essential"]["value"] and j["essential"]["mode"] == "exact"


# ---------------------------------------------------------------------------
# Stabilization
# ---------------------------------------------------------------------------

def test_stabilize_essentials_into_s3(s3, S_all, s3_universe):
    essentials = [sub.inclusion() for sub in subalgebras(s3)
                  if is_essential(sub.inclusion(), S_all).value]
    survivors = stabilize(essentials, s3_universe)
    assert [m.dom.size for m in survivors] == [s3.size]


def test_stabilize_keeps_isos(s3, s3_universe):
    isos = [identity(o) for o in s3_universe]
    assert stabilize(isos, s3_universe) == isos


def test_stabilize_all_monos_in_ab(z4_universe):
    monos = [m for A in z4_universe for B in z4_universe
             for m in enumerate_monos(A, B)]
    assert stabilize(monos, z4_universe) == monos


# ---------------------------------------------------------------------------
# Law harness
# ---------------------------------------------------------------------------

def test_closure_laws_on_s3_universe(s3_universe):
    reports = closure_law_suite(s3_universe)
    assert all(r.status == "pass" for r in reports)
    assert len(reports) == 26
    assert all((r.status, r.checked) == ("pass", 0)
               for r in closure_law_suite([]))


def test_weak_left_cancellation_fails_for_essentials():
    w = find_weak_left_cancellation_witness(registry.universe("a5-chain"))
    assert w is not None
    S = MonoFamily(ALL_MONOS)
    assert bool(is_essential(w.outer, S))
    assert bool(is_essential(w.composite, S))
    assert not bool(is_essential(w.inner, S))


def test_no_weak_left_cancellation_witness_in_small_universe(s3_universe):
    assert find_weak_left_cancellation_witness(s3_universe) is None


# ---------------------------------------------------------------------------
# Designated-class hypotheses
# ---------------------------------------------------------------------------

def test_all_monos_hypotheses_pass(s3_universe):
    reports = s_class_report(MonoFamily(ALL_MONOS), s3_universe)
    assert all(r.status == "pass" for r in reports)


def test_normal_monos_composition_fails_in_grp():
    """Normality is not transitive, so the class of normal monos is not
    closed under composition in the group backend."""
    universe = [cyclic_group(2), registry.v4(), registry.s4()]
    reports = {r.law_id: r for r in
               s_class_report(MonoFamily(NORMAL_MONOS), universe)}
    assert reports["S-composition"].status == "fail"
    assert reports["S-composition"].witness is not None


def test_normal_monos_pass_in_ab(z4_universe):
    reports = s_class_report(MonoFamily(NORMAL_MONOS), z4_universe)
    assert all(r.status == "pass" for r in reports)


def test_stable_essential_family_kinds(S_all, s3_universe):
    fam = stable_essential_family(S_all, s3_universe)
    assert fam.exact
    pset_fam = stable_essential_family(S_all,
                                       registry.universe("pointed-le-4"))
    assert not pset_fam.exact


def _answers(families, cod, image):
    """Ask a fresh copy of each family about (cod, image) in turn, so that
    no family holds a verdict from an earlier call."""
    return [MonoFamily(*fam).contains_image(cod, image) for fam in families]


def test_stabilized_families_differing_in_S_do_not_share_answers():
    # the socle of Z/4 is pullback stable essential for S = all monos, but
    # it is outside S = the isos, so not pullback stable S-essential
    universe = registry.universe("z4-chain")
    isos = MonoFamily.explicit([identity(P) for P in universe])
    by_isos, by_all = (MonoFamily(STABILIZED_FAMILY, S=S,
                                  universe=tuple(universe))
                       for S in (isos, MonoFamily(ALL_MONOS)))
    z4, socle = universe[2], frozenset({0, 2})
    assert _answers([by_isos, by_all], z4, socle) == [False, True]
    assert _answers([by_all, by_isos], z4, socle) == [True, False]


def test_stabilized_families_differing_in_universe_do_not_share_answers():
    # S holds the socle of Z/4 and the identities of 0 and Z/2.  With Z/4 in
    # the probe universe, its identity refutes S-essentiality of the socle
    # (it composes with the socle into S but is not in S); without it
    # nothing does.
    zero, z2, z4 = registry.universe("z4-chain")
    S = MonoFamily.explicit([registry.soc_z2_z4(), identity(zero),
                             identity(z2)])
    wide = stable_essential_family(S, [zero, z2, z4])
    narrow = stable_essential_family(S, [zero, z2])
    socle = frozenset({0, 2})
    assert _answers([wide, narrow], z4, socle) == [False, True]
    assert _answers([narrow, wide], z4, socle) == [True, False]


def test_family_membership_matches_decisions(se_family_grp, S_all,
                                             s3_universe, s3_named):
    a3 = s3_named["A3"].inclusion()
    assert not se_family_grp.contains(a3)
    assert se_family_grp.contains(
        Subobject(registry.s3(), tuple(range(6))).inclusion())
    assert is_subobject_essential(a3).value == se_family_grp.contains(a3)


def test_m_subobjects(se_family_ab):
    z4 = registry.zab(4)
    subs = se_family_ab.m_subobjects(z4)
    assert sorted(s.elems for s in subs) == [(0, 1, 2, 3), (0, 2)]


@pytest.mark.parametrize("kind", [ALL_MONOS, NORMAL_MONOS])
def test_refuting_pullbacks_are_pullbacks(kind, s3_universe):
    S = MonoFamily(kind)
    refuted = 0
    for ms in monos_between(s3_universe).values():
        for m in ms:
            if not S.contains(m):
                continue
            w = is_stable_essential(m, S, s3_universe).witness
            if w is None:
                continue
            refuted += 1
            assert w.pulled == pullback(m, w.along).proj_right
            assert not (S.contains(w.pulled)
                        and is_essential(w.pulled, S, s3_universe).value)
    assert refuted


@pytest.mark.parametrize("kind", ["no-such-kind", EXPLICIT,
                                  monoclasses.STABILIZED_FAMILY])
def test_mono_family_checks_its_kind_at_construction(kind):
    """An unknown kind, an explicit class without members and a stabilized
    class without the S it stabilizes are refused when the class is built,
    not when it is first asked about a mono or a key."""
    with pytest.raises(PreconditionViolation):
        MonoFamily(kind)


def test_no_class_contains_a_non_injective_map(S_all, s3_universe):
    homs = [f for X in s3_universe for Y in s3_universe
            for f in enumerate_hom(X, Y)]
    images = frozenset((f.cod, f.image) for f in homs)
    # each of the seven kinds once
    classes = [MonoFamily(kind) for kind in (
        ALL_MONOS, NORMAL_MONOS, ISO_FAMILY, SE_FAMILY, ESSENTIAL_FAMILY)]
    classes += [MonoFamily(EXPLICIT, members=images),
                MonoFamily(STABILIZED_FAMILY, S=S_all,
                           universe=tuple(s3_universe))]
    non_injective = [f for f in homs if not f.is_injective]
    assert non_injective
    for cls in classes:
        assert not any(cls.contains(f) for f in non_injective), cls


# ---------------------------------------------------------------------------
# Per-(codomain, image) pullback-stability laws against per-mono loops
# ---------------------------------------------------------------------------

def _reference_s_class_report(S, universe):
    """s_class_report as it was before pullback stability was decided once
    per (codomain, image): every mono is pulled back along every hom, and
    the composition laws scan every (Y2, Z) pair behind ``Y2 != Y``."""
    reports = []

    def w(**kw):
        return {k: v.to_json() for k, v in kw.items()}

    monos = monos_between(universe)

    checked, witness = 0, None
    for ms in monos.values():
        for m in ms:
            if m.is_bijective:
                checked += 1
                if not S.contains(m):
                    witness = w(iso=m)
                    break
        if witness:
            break
    reports.append(("S-isos", "fail" if witness else "pass", checked, witness))

    checked, witness = 0, None
    for (X, Y), ms in monos.items():
        for m in ms:
            if not S.contains(m):
                continue
            image = m.image
            for W in universe:
                for x in enumerate_hom(W, Y):
                    checked += 1
                    pre = preimage(x.table, image)
                    if not S.contains_image(W, pre):
                        witness = w(mono=m, along=x,
                                    pulled=Subobject(W, tuple(sorted(pre))).inclusion())
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    reports.append(("S-pullback-stable", "fail" if witness else "pass",
                    checked, witness))

    checked, witness = 0, None
    for (X, Y), inner in monos.items():
        for (Y2, Z), outer in monos.items():
            if Y2 != Y:
                continue
            for mp in inner:
                if not S.contains(mp):
                    continue
                for m in outer:
                    if not S.contains(m):
                        continue
                    checked += 1
                    if not S.contains_image(Z, frozenset(
                            m.table[e] for e in mp.table)):
                        witness = w(inner=mp, outer=m,
                                    composite=compose(m, mp))
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    reports.append(("S-composition", "fail" if witness else "pass",
                    checked, witness))

    checked, witness = 0, None
    for (X, Y), inner in monos.items():
        for (Y2, Z), outer in monos.items():
            if Y2 != Y:
                continue
            for mp in inner:
                for m in outer:
                    if S.contains_image(Z, frozenset(
                            m.table[e] for e in mp.table)):
                        checked += 1
                        if not S.contains(mp):
                            witness = w(inner=mp, outer=m,
                                        composite=compose(m, mp))
                            break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    reports.append(("S-strong-left-cancellation",
                    "fail" if witness else "pass", checked, witness))
    return reports


def _reference_flags(universe, S):
    """Membership of a (codomain, image) key in the essential, the
    subobject-essential and the pullback stable S-essential class: the
    first two asked of the public decision procedures on the built
    inclusion, the last of M from stable_essential_family, which refuses a
    key outside S."""
    M = stable_essential_family(S, universe)
    all_monos = MonoFamily(ALL_MONOS)

    @cache
    def in_e(key):
        return is_essential(_built_inclusion(*key), all_monos).value

    @cache
    def in_se(key):
        return is_subobject_essential(_built_inclusion(*key)).value

    def in_st(key):
        return M.contains_image(*key)

    return in_e, in_se, in_st


def _built_inclusion(cod, image):
    return Subobject(cod, tuple(sorted(image))).inclusion()


def _reference_closure_laws(universe, S):
    """The composition-shaped, pullback-stability and inner-factor laws of
    closure_law_suite as they were before the per-(codomain, image) memo and
    the outer monos indexed by domain.  The inner-factor law builds the
    generic pullback of m.m' along m for every composable pair.

    The stabilization laws ask the pullback stable S-essential class, which
    is the class :func:`stabilize` makes when S holds every iso.  An S
    without an iso between universe objects is refused, naming the first
    such iso."""
    monos = monos_between(universe)

    def w(**kw):
        return {k: v.to_json() for k, v in kw.items()}

    missing = [m for ms in monos.values() for m in ms
               if m.is_bijective and not S.contains(m)]
    if missing:
        raise PreconditionViolation(
            "designated class S violates its hypotheses: "
            f"S-isos ({w(iso=missing[0])})")
    in_e, in_se, in_st = _reference_flags(universe, S)
    reports = []

    comp_laws = [
        ("stabilization-composition", lambda p, m, c: in_st(p) and in_st(m), lambda p, m, c: in_st(c)),
        ("stabilization-right-cancellation", lambda p, m, c: in_st(c) and S.contains_image(*p), lambda p, m, c: in_st(m)),
        ("stabilization-weak-right-cancellation", lambda p, m, c: in_st(c) and in_st(p), lambda p, m, c: in_st(m)),
        ("stabilization-left-cancellation", lambda p, m, c: in_st(c), lambda p, m, c: in_st(p)),
        ("essential-composition", lambda p, m, c: in_e(p) and in_e(m), lambda p, m, c: in_e(c)),
        ("essential-right-cancellation", lambda p, m, c: in_e(c), lambda p, m, c: in_e(m)),
        ("essential-weak-right-cancellation", lambda p, m, c: in_e(c) and in_e(p), lambda p, m, c: in_e(m)),
        ("stable-essential-composition", lambda p, m, c: in_st(p) and in_st(m), lambda p, m, c: in_st(c)),
        ("stable-essential-right-cancellation", lambda p, m, c: in_st(c), lambda p, m, c: in_st(m)),
        ("stable-essential-weak-right-cancellation", lambda p, m, c: in_st(c) and in_st(p), lambda p, m, c: in_st(m)),
        ("stable-essential-left-cancellation", lambda p, m, c: in_st(c), lambda p, m, c: in_st(p)),
        ("subobject-essential-composition", lambda p, m, c: in_se(p) and in_se(m), lambda p, m, c: in_se(c)),
        ("subobject-essential-right-cancellation", lambda p, m, c: in_se(c), lambda p, m, c: in_se(m)),
        ("subobject-essential-weak-right-cancellation", lambda p, m, c: in_se(c) and in_se(p), lambda p, m, c: in_se(m)),
        ("subobject-essential-left-cancellation", lambda p, m, c: in_se(c), lambda p, m, c: in_se(p)),
    ]
    results = {law_id: [0, None] for law_id, _, _ in comp_laws}
    for (X, Y), inner in monos.items():
        for (Y2, Z), outer in monos.items():
            if Y2 != Y:
                continue
            for mp in inner:
                kp = (Y, mp.image)
                for m in outer:
                    km = (Z, m.image)
                    kc = (Z, frozenset(m.table[e] for e in mp.table))
                    for law_id, premise, conclusion in comp_laws:
                        slot = results[law_id]
                        if slot[1] is not None:
                            continue
                        if premise(kp, km, kc):
                            slot[0] += 1
                            if not conclusion(kp, km, kc):
                                slot[1] = w(inner=mp, outer=m,
                                            composite=compose(m, mp))
    for law_id, _, _ in comp_laws:
        checked, witness = results[law_id]
        reports.append((law_id, "fail" if witness else "pass", checked, witness))

    for law_id, member in (("stabilization-pullback-stable", in_st),
                           ("stable-essential-pullback-stable", in_st),
                           ("subobject-essential-pullback-stable", in_se)):
        checked, witness = 0, None
        for (X, Y), ms in monos.items():
            for m in ms:
                if not member((m.cod, m.image)):
                    continue
                image = m.image
                for W in universe:
                    for x in enumerate_hom(W, Y):
                        checked += 1
                        pre = preimage(x.table, image)
                        if not member((W, pre)):
                            witness = w(mono=m, along=x, pulled=Subobject(
                                W, tuple(sorted(pre))).inclusion())
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        reports.append((law_id, "fail" if witness else "pass", checked, witness))

    checked, witness = 0, None
    for (X, Y), inner in monos.items():
        for (Y2, Z), outer in monos.items():
            if Y2 != Y:
                continue
            for mp in inner:
                for m in outer:
                    checked += 1
                    pb = pullback(compose(m, mp), m)
                    if not (pb.apex.size == mp.dom.size
                            and pb.proj_right.image == mp.image):
                        witness = w(inner=mp, outer=m)
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    reports.append(("inner-factor-is-pullback-of-composite",
                    "fail" if witness else "pass", checked, witness))
    return reports


def _isos_plus(universe, *extra):
    """Explicit S: the isomorphisms of the universe plus the monos with the
    given (universe index of the codomain, image) keys."""
    isos = {(m.cod, m.image) for ms in monos_between(universe).values()
            for m in ms if m.is_bijective}
    return MonoFamily(EXPLICIT, frozenset(isos) | {
        (universe[i], frozenset(image)) for i, image in extra})


# Universe orders: s3-subgroups 0, three order-2 subgroups, A3 (S3{0,3,4}),
# S3; z4-chain 0, Z2, Z4; pointed-le-4 P1 .. P4.  Each explicit class fails
# S-pullback-stable.
_S_CLASSES = {
    "s3-subgroups": {
        # fails at A3 -> S3, pulled back to the zero mono into an order-2
        # subgroup, after the isos between the order-2 subgroups repeated a
        # key; S-composition fails on 0 -> A3 -> S3
        "fails-late": lambda U: _isos_plus(U, (4, {0}), (5, {0, 3, 4})),
        # the normal monos plus one order-2 subgroup of S3: the failing key
        # has the codomain S3 of the passing key of 0 -> S3
        "fails-beside-a-passing-key": lambda U: MonoFamily(
            EXPLICIT, frozenset(
                {(m.cod, m.image) for ms in monos_between(U).values()
                 for m in ms if is_normal_subset(m.cod, m.image)}
                | {(U[5], frozenset({0, 1}))})),
        # the zero mono into the first order-2 subgroup, but not into the
        # other two, which have its op table: an explicit S names objects,
        # so its laws are not decided per content key.  S-pullback-stable
        # fails on the second order-2 subgroup as a probe, and
        # S-strong-left-cancellation on 0 -> Z2 -> Z2 into the first
        "one-of-equal-subgroups": lambda U: _isos_plus(U, (1, {0})),
    },
    "z4-chain": {
        "fails-early": lambda U: _isos_plus(U, (2, {0})),
        # S-isos fails at its first case, the identity of 0; S-pullback-stable
        # fails when 0 -> Z2 is pulled back along itself to that identity
        "non-isos": lambda U: MonoFamily(EXPLICIT, frozenset(
            (m.cod, m.image) for ms in monos_between(U).values() for m in ms
            if not m.is_bijective)),
    },
    "pointed-le-4": {
        "fails-late": lambda U: _isos_plus(U, (3, {0, 1, 2})),
        "fails-on-composites": lambda U: _isos_plus(U, (1, {0}), (2, {0, 1})),
    },
}
_LAW_CASES = [(name, kind) for name, explicit in _S_CLASSES.items()
              for kind in ["all", "normal", *explicit]]


def _law_class(universe_name, universe, kind):
    if kind in (ALL_MONOS, NORMAL_MONOS):
        return MonoFamily(kind)
    return _S_CLASSES[universe_name][kind](universe)


@pytest.mark.parametrize("universe_name,kind", _LAW_CASES)
def test_s_class_report_matches_per_mono_loops(universe_name, kind):
    universe = registry.universe(universe_name)
    S = _law_class(universe_name, universe, kind)
    got = [(r.law_id, r.status, r.checked, r.witness)
           for r in s_class_report(S, universe)]
    assert got == _reference_s_class_report(S, universe)
    stable = got[1]
    assert stable[0] == "S-pullback-stable"
    assert (stable[1] == "fail") == (kind not in (ALL_MONOS, NORMAL_MONOS))


def test_explicit_S_is_decided_per_object():
    """The three order-2 subgroups of S3 share their content key, but the
    explicit S of ``one-of-equal-subgroups`` holds a mono into the first
    of them only.  Its laws fail where the per-mono loops fail them: a scan
    per content key would pass both."""
    universe = registry.universe("s3-subgroups")
    S = _law_class("s3-subgroups", universe, "one-of-equal-subgroups")
    z2s = universe[1:4]
    assert len({catcore.content_key(X) for X in z2s}) == 1
    reports = {r.law_id: r for r in s_class_report(S, universe)}
    stable = reports["S-pullback-stable"]
    assert stable.status == "fail"
    assert stable.witness["mono"]["cod"] == z2s[0].id
    assert stable.witness["along"]["dom"] == z2s[1].id
    cancellation = reports["S-strong-left-cancellation"]
    assert cancellation.status == "fail"
    assert cancellation.witness["inner"]["cod"] != z2s[0].id
    assert cancellation.witness["composite"]["cod"] == z2s[0].id


def test_normal_monos_on_s4_match_per_mono_loops():
    """S = the normal monos of s4-subgroups: S-composition fails at a block
    whose content triple comes after blocks with repeated content triples,
    so its count adds the counts of blocks decided once."""
    universe = registry.universe("s4-subgroups")
    S = MonoFamily(NORMAL_MONOS)
    got = [(r.law_id, r.status, r.checked, r.witness)
           for r in s_class_report(S, universe)]
    assert got == _reference_s_class_report(S, universe)
    composition = got[2]
    assert composition[:2] == ("S-composition", "fail")
    witness = composition[3]
    content = {X: catcore.content_key(X) for X in universe}
    seen, repeated = set(), 0
    for inner, outer in monoclasses._composable(monos_between(universe)):
        if (any(mp.to_json() == witness["inner"] for mp in inner)
                and any(m.to_json() == witness["outer"] for m in outer)):
            break
        k = content[inner[0].dom], content[inner[0].cod], content[outer[0].cod]
        repeated += k in seen
        seen.add(k)
    assert repeated > 0


def test_normal_kind_decides_each_key_once(monkeypatch):
    """One family of the normal kind asks is_normal_subset once per
    distinct (codomain, image) key, though its laws ask about most keys
    many times."""
    calls = Counter()
    decide = monoclasses.is_normal_subset

    def counted(A, elems):
        calls[A, frozenset(elems)] += 1
        return decide(A, elems)

    monkeypatch.setattr(monoclasses, "is_normal_subset", counted)
    universe = registry.universe("s3-subgroups")
    S = MonoFamily(NORMAL_MONOS)
    s_class_report(S, universe)
    closure_law_suite(universe, S)
    assert len(calls) > 1 and set(calls.values()) == {1}


def test_failing_key_comes_after_a_repeated_key():
    """On s3-subgroups the failing key of ``fails-late`` comes after a member
    key seen twice, so the per-key memo is used before the witness."""
    universe = registry.universe("s3-subgroups")
    S = _law_class("s3-subgroups", universe, "fails-late")
    witness = s_class_report(S, universe)[1].witness
    seen, repeated = set(), 0
    for m in (m for ms in monos_between(universe).values() for m in ms):
        if m.to_json() == witness["mono"]:
            break
        if S.contains(m):
            repeated += (m.cod, m.image) in seen
            seen.add((m.cod, m.image))
    assert repeated > 0
    assert witness["mono"]["dom"] == "S3{0,3,4}"
    assert len(witness["pulled"]["map"]) == 1


@pytest.mark.parametrize("universe_name,kind", _LAW_CASES)
def test_closure_laws_match_per_mono_loops(universe_name, kind):
    """The laws match the per-mono loops; an S without every iso
    (``non-isos``) is refused by both, at the same first iso."""
    universe = registry.universe(universe_name)
    S = _law_class(universe_name, universe, kind)
    try:
        reference = _reference_closure_laws(universe, S)
    except PreconditionViolation as err:
        with pytest.raises(PreconditionViolation) as refused:
            closure_law_suite(universe, S)
        assert str(refused.value) == str(err)
        return
    got = {r.law_id: (r.law_id, r.status, r.checked, r.witness)
           for r in closure_law_suite(universe, S)}
    assert [got[law[0]] for law in reference] == reference


def test_inner_factor_law_fails_where_the_generic_pullback_fails(
        monkeypatch):
    """With the zero map Z2 -> Z4 slipped in among the monos of z4-chain,
    the pullback of m.m' along it has two pairs per element of dom m': the
    law decided from tables fails at the pair, and with the count, at which
    the generic pullback loop fails."""
    universe = registry.universe("z4-chain")
    _, z2, z4 = universe
    monos = dict(monos_between(universe))
    monos[z2, z4] += (ConcreteMorphism(z2, z4, (0, 0)),)
    for namespace in (monoclasses, sys.modules[__name__]):
        monkeypatch.setattr(namespace, "monos_between", lambda U: monos)
    S = MonoFamily(ALL_MONOS)
    want = _reference_closure_laws(universe, S)[-1]
    assert want[:2] == ("inner-factor-is-pullback-of-composite", "fail")
    got = {r.law_id: (r.law_id, r.status, r.checked, r.witness)
           for r in closure_law_suite(universe, S)}
    assert got[want[0]] == want


def test_keys_outside_S_are_not_stable_essential():
    """The socle Z2 -> Z4 is subobject-essential but not in ``fails-early``,
    so it is not pullback stable S-essential: the stable-essential laws
    agree with is_stable_essential, which refuses it."""
    universe = registry.universe("z4-chain")
    S = _law_class("z4-chain", universe, "fails-early")
    in_st = _reference_flags(universe, S)[2]
    monos = [m for ms in monos_between(universe).values() for m in ms]
    outside = [m for m in monos if not S.contains(m)]
    assert any(m.cod.size == 4 and len(m.image) == 2 for m in outside)
    for m in monos:
        expected = S.contains(m) and is_stable_essential(m, S, universe).value
        assert in_st((m.cod, m.image)) == expected, m
    with pytest.raises(PreconditionViolation):
        is_stable_essential(outside[0], S, universe)


def _z4_with_renamed_copy():
    """z4-chain and, after it, a copy of its Z4 under a new id: the same
    content, another object."""
    universe = registry.universe("z4-chain")
    Z4 = universe[-1]
    return universe + [FiniteObject(**{**Z4._asdict(), "id": Z4.id + "'"})]


def _assert_explicit_S_laws_match(universe, S):
    got = [(r.law_id, r.status, r.checked, r.witness)
           for r in s_class_report(S, universe)]
    assert got == _reference_s_class_report(S, universe)
    reference = _reference_closure_laws(universe, S)
    laws = {r.law_id: (r.law_id, r.status, r.checked, r.witness)
            for r in closure_law_suite(universe, S)}
    assert [laws[law[0]] for law in reference] == reference


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["s3-subgroups", "z4-chain", "z4-chain+copy",
                             "pointed-le-4"]),
       data=st.data())
def test_explicit_S_laws_match_the_reference_loops(name, data):
    """An explicit S, the isos plus a drawn set of monos: s_class_report,
    which asks S itself about each key, and closure_law_suite, whose laws
    are all keyed on the objects an explicit S names, report what the
    per-mono loops report.  ``z4-chain+copy`` adds a renamed copy of Z4,
    which S may tell from Z4."""
    universe = (_z4_with_renamed_copy() if name == "z4-chain+copy"
                else registry.universe(name))
    monos = [m for ms in monos_between(universe).values() for m in ms]
    drawn = data.draw(st.sets(st.sampled_from(monos)), label="members")
    S = MonoFamily.explicit([m for m in monos if m.is_bijective] + list(drawn))
    _assert_explicit_S_laws_match(universe, S)


def test_closure_laws_tell_an_object_from_its_renamed_copy():
    """z4-chain and a renamed copy of Z4, with S every mono but the
    non-isos into the copy, and then every mono but the isos into the copy.

    Under the first S every law reports what the per-mono loops report.
    The second S lacks the isos into the copy, which :func:`stabilize`
    would count as members all the same, so closure_law_suite refuses it,
    as build_spec refuses it by its S-isos law, naming the first iso into
    the copy."""
    universe = _z4_with_renamed_copy()
    copy = universe[-1]
    monos = [m for ms in monos_between(universe).values() for m in ms]
    _assert_explicit_S_laws_match(universe, MonoFamily.explicit(
        [m for m in monos if m.cod != copy or m.is_bijective]))
    S = MonoFamily.explicit(
        [m for m in monos if m.cod != copy or not m.is_bijective])
    first = next(m for m in monos if m.cod == copy and m.is_bijective)
    with pytest.raises(PreconditionViolation) as refused:
        closure_law_suite(universe, S)
    assert str(refused.value) == (
        "designated class S violates its hypotheses: "
        f"S-isos ({ {'iso': first.to_json()} })")
    with pytest.raises(PreconditionViolation, match=re.escape(
            f"S-isos ({ {'iso': first.to_json()} })")):
        build_spec(S, universe)


# ---------------------------------------------------------------------------
# Searches over hom tables against per-morphism loops
# ---------------------------------------------------------------------------

def _reference_is_essential(m, S, universe=None):
    """is_essential with its bounded branch as a loop over built morphisms."""
    if S.kind == ALL_MONOS:
        return is_essential(m, S)
    for B in universe:
        for f in enumerate_hom(m.cod, B):
            pushed = frozenset(f.table[e] for e in m.image)
            if len(pushed) == len(m.image) and S.contains_image(B, pushed) \
                    and not S.contains(f):
                return Verdict(False, exact=False, witness=f)
    return Verdict(True, exact=False)


def _reference_refuting_pullback(m, S, universe):
    """The refutation search as a loop over built morphisms: every hom
    X -> cod(m) from enumerate_hom, each pulled back through its preimage."""
    image = m.image

    def refutation(x):
        return RefutingPullback(along=x, pulled=pullback(m, x).proj_right)

    for sub in subalgebras(m.cod):
        pre = frozenset(i for i, e in enumerate(sub.elems) if e in image)
        if monoclasses._essential_refutation(sub.object(), pre) is not None:
            return refutation(sub.inclusion())
    for X in universe:
        for x in enumerate_hom(X, m.cod):
            pre = preimage(x.table, image)
            if S.kind == ALL_MONOS:
                bad = monoclasses._essential_refutation(X, pre) is not None
            else:
                bad = not (S.contains_image(X, pre) and _reference_is_essential(
                    pullback(m, x).proj_right, S, universe).value)
            if bad:
                return refutation(x)
    return None


def _reference_is_stable_essential(m, S, universe):
    """is_stable_essential on the reference searches above."""
    if m.dom.backend in monoclasses.NORMAL_BACKENDS and S.kind == ALL_MONOS:
        if is_subobject_essential(m).value:
            return Verdict(True, exact=True)
        return Verdict(False, exact=True,
                       witness=_reference_refuting_pullback(m, S, universe))
    if not _reference_is_essential(m, S, universe).value:
        return Verdict(False, exact=False)
    witness = _reference_refuting_pullback(m, S, universe)
    return Verdict(witness is None, exact=False, witness=witness)


def _reference_stabilize(monos, universe):
    """stabilize as a loop over built morphisms."""
    members = {(m.cod, m.image) for m in monos if m.is_injective}

    def stable(m):
        for X in universe:
            for x in enumerate_hom(X, m.cod):
                pre = preimage(x.table, m.image)
                if len(pre) != X.size and (X, pre) not in members:
                    return False
        return True

    return [m for m in monos if stable(m)]


def _zero_and_top_isos(universe):
    """Explicit S: the identity of the zero object and the automorphisms of
    the last object, but no other iso.  A member m is refuted where its
    pullback along a map X -> cod(m) from the universe leaves S, so the
    witness comes from the hom-table scan, not from a subobject of cod(m)."""
    zero, top = universe[0], universe[-1]
    return MonoFamily.explicit(
        [identity(zero), *(m for m in enumerate_monos(top, top))])


_SEARCH_UNIVERSES = ["s3-subgroups", "z4-chain", "pointed-le-4",
                     "pointed-le-5"]
# S = all monos and the zero-and-top class on every universe, the explicit
# classes of _S_CLASSES on the named ones only: on P1 .. P5 they take over a
# minute, as each of the 24 automorphisms of P5 is pulled back along the 781
# maps into P5 and every pullback gets a bounded essentiality scan
_SEARCH_CASES = [(name, kind) for name in _SEARCH_UNIVERSES
                 for kind in ("all", "zero-and-top-isos")]
_SEARCH_CASES += [(name, kind) for name, explicit in _S_CLASSES.items()
                  for kind in explicit]


def _search_case(universe_name, kind):
    universe = ([*registry.psets(), pointed_set("P5", 5)]
                if universe_name == "pointed-le-5"
                else registry.universe(universe_name))
    if kind == "zero-and-top-isos":
        return universe, _zero_and_top_isos(universe)
    return universe, _law_class(universe_name, universe, kind)


@pytest.mark.parametrize("universe_name,kind", _SEARCH_CASES)
def test_table_searches_match_per_morphism_loops(universe_name, kind):
    """is_stable_essential, the bounded is_essential and stabilize give the
    verdicts, modes and witnesses of loops over built morphisms."""
    universe, S = _search_case(universe_name, kind)
    monos = [m for ms in monos_between(universe).values() for m in ms]
    members = [m for m in monos if S.contains(m)]
    assert members
    witnesses = []
    for m in members:
        got = is_stable_essential(m, S, universe)
        want = _reference_is_stable_essential(m, S, universe)
        assert got == want, m
        assert got.to_json() == want.to_json()
        assert is_essential(m, S, universe) == \
            _reference_is_essential(m, S, universe), m
        if got.witness is not None:
            witnesses.append(got.witness.along)
    if kind == "zero-and-top-isos":
        # refuted along maps out of universe objects that are no subobject
        # inclusion of the top object
        assert any(not x.is_injective for x in witnesses)
    essentials = [m for m in members if is_essential(m, S, universe).value]
    for candidates in (monos, essentials):
        assert stabilize(candidates, universe) == \
            _reference_stabilize(candidates, universe)


def test_refutation_search_builds_only_its_witness(monkeypatch, S_all):
    """Over a 6-element pointed set the search decides the one pullback key
    of the identity and builds fewer than 50 morphisms."""
    P6 = pointed_set("P6", 6)
    m = identity(P6)
    built = [0]
    validate = ConcreteMorphism.__post_init__

    def counting(self):
        built[0] += 1
        validate(self)

    monkeypatch.setattr(ConcreteMorphism, "__post_init__", counting)
    verdict = is_stable_essential(m, S_all, [P6])
    assert verdict.value and not verdict.exact
    assert built[0] < 50
    assert len(catcore.hom_tables(P6, P6)) == 7776


# ---------------------------------------------------------------------------
# The refutation search of an iso: one pullback key per probe object
# ---------------------------------------------------------------------------

def _walk_refuting_pullback(m, S, universe):
    """The refutation search walking every hom table X -> cod(m) and
    deciding each pullback from its own preimage, with no shortcut for
    isos.  For S other than all monos the bounded test of a pullback is
    asked once per (X, preimage) key, through the generic ``pullback``."""
    image = m.image
    bounded = {}

    def refutation(x):
        return RefutingPullback(along=x, pulled=pullback(m, x).proj_right)

    for sub in subalgebras(m.cod):
        if monoclasses._essential_refutation(
                sub.object(), preimage(sub.elems, image)) is not None:
            return refutation(sub.inclusion())
    for X in universe:
        for t in catcore.hom_tables(X, m.cod):
            pre = preimage(t, image)
            if S.kind == ALL_MONOS:
                bad = monoclasses._essential_refutation(X, pre) is not None
            else:
                if (X, pre) not in bounded:
                    pulled = pullback(m, ConcreteMorphism(X, m.cod, t))
                    bounded[X, pre] = not (
                        S.contains_image(X, pre) and is_essential(
                            pulled.proj_right, S, universe).value)
                bad = bounded[X, pre]
            if bad:
                return refutation(ConcreteMorphism(X, m.cod, t))
    return None


# P1 .. P6 with the pointed-le-4 classes of _S_CLASSES, then the universes
# that _S_CLASSES names, each with all, normal, zero-and-top and its classes
_ISO_SEARCH_CASES = [("P1..P6", kind) for kind in (
    "all", "normal", "zero-and-top-isos", *_S_CLASSES["pointed-le-4"])]
_ISO_SEARCH_CASES += [(name, kind) for name, explicit in _S_CLASSES.items()
                      for kind in ("all", "normal", "zero-and-top-isos",
                                   *explicit)]


@pytest.mark.parametrize("universe_name,kind", _ISO_SEARCH_CASES)
def test_iso_search_matches_the_table_walk(monkeypatch, universe_name, kind):
    """Every iso in S gets the verdict, mode and witness of the walk over
    all hom tables, refuted or not: the identities of P1 .. P6, and every
    iso between objects of a named universe."""
    if universe_name == "P1..P6":
        universe = [pointed_set(f"P{n}", n) for n in range(1, 7)]
        isos = [identity(X) for X in universe]
        S = (_zero_and_top_isos(universe) if kind == "zero-and-top-isos"
             else _law_class("pointed-le-4", universe, kind))
    else:
        universe, S = _search_case(universe_name, kind)
        isos = [m for ms in monos_between(universe).values() for m in ms
                if m.is_bijective]
    members = [m for m in isos if S.contains(m)]
    got = [is_stable_essential(m, S, universe) for m in members]
    monkeypatch.setattr(monoclasses, "_find_refuting_pullback",
                        _walk_refuting_pullback)
    want = [is_stable_essential(m, S, universe) for m in members]
    assert [v.to_json() for v in got] == [v.to_json() for v in want]
    assert got == want
    if kind == "zero-and-top-isos":
        # the automorphisms of the top object are refuted along the first
        # map out of an object whose identity is not in S
        assert any(v.witness is not None for v in got)


def test_iso_search_searches_no_hom_tables_into_the_iso(monkeypatch, S_all):
    """Every pullback of the identity of an 8-element pointed set has the
    key (P8, P8), decided once: none of its 8**7 = 2,097,152 endomorphism
    tables is searched."""
    P8 = pointed_set("P8", 8)
    monkeypatch.setattr(catcore, "_HOM_TABLES", {})
    verdict = is_stable_essential(identity(P8), S_all, [P8])
    assert verdict.value and not verdict.exact
    assert (catcore.content_key(P8),) * 2 not in catcore._HOM_TABLES


def test_iso_search_refuses_a_universe_object_of_another_backend(S_all):
    P2 = pointed_set("P2", 2)
    with pytest.raises(BackendMismatch):
        is_stable_essential(identity(P2), S_all, [P2, cyclic_group(2)])
