"""Spans, fraction equality, the right-fraction condition suite, and the two
constructions of localized hom sets."""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from speccat import (
    CompositionMismatch,
    ConcreteMorphism,
    ConsistencyError,
    MonoFamily,
    NormalizedSpan,
    PreconditionViolation,
    Span,
    Subobject,
    check_focal,
    compose,
    cyclic_group,
    direct_product,
    enumerate_hom,
    enumerate_monos,
    fraction_equal,
    identity,
    normalize,
    poincare_hom,
    stable_essential_family,
    subalgebras,
)
from speccat import fractions, registry
from speccat.catcore import AB, zero_morphism
from speccat.limits import (congruence_from_normal_subobject, preimage,
                            pullback)
from speccat.monoclasses import (ESSENTIAL_FAMILY, EXPLICIT, ISO_FAMILY,
                                 NORMAL_MONOS, STABILIZED_FAMILY)

# the reference loops ask for one hom set many times, and enumerate_hom
# builds its morphisms afresh on each call: memoize them for this module
enumerate_hom = cache(enumerate_hom)


@pytest.fixture(scope="module")
def ess_family():
    return MonoFamily(kind=ESSENTIAL_FAMILY)


# ---------------------------------------------------------------------------
# Span composition
# ---------------------------------------------------------------------------

def identity_span(A):
    return Span(identity(A), identity(A))


def span_compose(s2, s1):
    """Composite of s1: A -> B and s2: B -> C over the pullback of the middle."""
    if s1.dst != s2.src:
        raise CompositionMismatch("spans do not share the middle object")
    pb = pullback(s1.right, s2.left)
    return Span(compose(s1.left, pb.proj_left), compose(s2.right, pb.proj_right))


def test_compose_with_identity_span(s3, s3_named):
    a3 = s3_named["A3"].inclusion()
    s = Span(a3, identity(a3.dom))
    out = span_compose(identity_span(a3.dom), s)
    assert out.apex.size == a3.dom.size
    assert out.left.image == s.left.image
    assert out.right.is_bijective


def test_socle_span_self_composite():
    soc = registry.soc_z2_z4()
    z2 = soc.dom
    s1 = Span(identity(z2), soc)     # Z2 -> Z4 with identity denominator
    s2 = Span(soc, identity(z2))     # Z4 -> Z2 inverting the socle
    out = span_compose(s2, s1)
    assert out.apex.size == 2
    assert out.left.is_bijective and out.right.is_bijective


def test_quotient_after_inclusion_is_zero(s3, s3_named):
    a3 = s3_named["A3"].inclusion()
    _, q = congruence_from_normal_subobject(s3_named["A3"]).quotient()
    s1 = Span(identity(a3.dom), a3)
    s2 = Span(identity(s3), q)
    out = span_compose(s2, s1)
    assert out.right.is_zero


def test_span_middle_mismatch(s3):
    z2 = registry.zab(2)
    with pytest.raises(CompositionMismatch):
        span_compose(Span(identity(z2), identity(z2)),
                     Span(identity(s3), identity(s3)))


def test_normalize_replaces_left_leg_by_inclusion(s3, s3_named):
    sub = s3_named["A3"]
    # a non-inclusion mono with the same image: compose with an automorphism
    A3 = sub.object()
    auto = next(f for f in enumerate_hom(A3, A3)
                if f.is_bijective and f.table != tuple(A3.elements))
    crooked = compose(sub.inclusion(), auto)
    span = Span(crooked, identity(A3))
    ns = normalize(span)
    assert ns.sub.elems == sub.elems
    # the two spans present the same fraction
    fam = MonoFamily(kind=ESSENTIAL_FAMILY)
    eq, _ = fraction_equal(ns, NormalizedSpan(sub, auto), fam)
    assert eq


# ---------------------------------------------------------------------------
# Fraction equality
# ---------------------------------------------------------------------------

def test_fraction_equal_reflexive(ess_family, s3, s3_named):
    sub = s3_named["A3"]
    for f in enumerate_hom(sub.object(), s3):
        eq, diamond = fraction_equal(NormalizedSpan(sub, f),
                                     NormalizedSpan(sub, f), ess_family)
        assert eq and diamond is not None


def test_fraction_equal_after_restriction(se_family_ab):
    """(f, x) equals (f.w, x.w) for any member w."""
    z4 = registry.zab(4)
    full = Subobject(z4, (0, 1, 2, 3))
    soc = Subobject(z4, (0, 2))
    for f in enumerate_hom(z4, z4):
        restricted = NormalizedSpan(
            soc, compose(f, soc.inclusion()))
        eq, _ = fraction_equal(NormalizedSpan(full, f), restricted,
                               se_family_ab)
        assert eq


def test_distinct_fractions_of_z4(se_family_ab):
    z4 = registry.zab(4)
    soc = Subobject(z4, (0, 2))
    zero_frac = NormalizedSpan(soc, zero_morphism(soc.object(), z4))
    incl_frac = NormalizedSpan(soc, soc.inclusion())
    eq, _ = fraction_equal(zero_frac, incl_frac, se_family_ab)
    assert not eq


@pytest.mark.parametrize("name,family", [("z4-chain", "se_family_ab"),
                                         ("s3-subgroups", "se_family_grp"),
                                         ("s3-subgroups", "ess_family")])
def test_returned_diamonds_commute(name, family, request):
    M = request.getfixturevalue(family)
    objects = registry.universe(name)
    diamonds = 0
    for A in objects:
        for B in objects:
            spans = [NormalizedSpan(sub, f) for sub in M.m_subobjects(A)
                     for f in enumerate_hom(sub.object(), B)]
            for s in spans:
                for t in spans:
                    equal, d = fraction_equal(s, t, M)
                    if not equal:
                        continue
                    diamonds += 1
                    x, xp = s.sub.inclusion(), t.sub.inclusion()
                    assert compose(x, d.u) == compose(xp, d.v)
                    assert compose(s.right, d.u) == compose(t.right, d.v)
                    assert d.through == compose(x, d.u)
                    assert M.contains(d.through)
    assert diamonds


def _reference_fraction_equal(ns, nt, M):
    """Fraction equality through the pullback apex: the pullback of the two
    inclusions, the equalizer of the two composites out of it, then the
    subobjects of the equalizer object, largest first.  Returns the verdict
    and the u, v and x.u tables and the domain's op table of the first hit."""
    A = ns.src
    x, xp = ns.sub.inclusion(), nt.sub.inclusion()
    pb = pullback(x, xp)
    f_p = compose(ns.right, pb.proj_left)
    fp_pp = compose(nt.right, pb.proj_right)
    eq_sub = Subobject(pb.apex, tuple(e for e in pb.apex.elements
                                      if f_p.table[e] == fp_pp.table[e]))
    for ysub in sorted(subalgebras(eq_sub.object()), key=lambda s_: -s_.size):
        apex_elems = tuple(eq_sub.elems[e] for e in ysub.elems)
        u = tuple(pb.proj_left.table[e] for e in apex_elems)
        through = tuple(x.table[e] for e in u)
        if M.contains(ConcreteMorphism(ysub.object(), A, through)):
            v = tuple(pb.proj_right.table[e] for e in apex_elems)
            return True, (u, v, through, ysub.object().op)
    return False, None


def _same_as_reference(s, t, M) -> bool:
    got, d = fraction_equal(s, t, M)
    want, tables = _reference_fraction_equal(s, t, M)
    assert got == want
    if got:
        assert (d.u.table, d.v.table, d.through.table, d.u.dom.op) == tables
        assert d.v.dom == d.through.dom == d.u.dom
    return got


@pytest.mark.parametrize("name,family", [("z4-chain", "se_family_ab"),
                                         ("s3-subgroups", "se_family_grp"),
                                         ("s3-subgroups", "ess_family")])
def test_fraction_equal_matches_pullback_reference(name, family, request):
    """The apex-free diamond search finds the same first diamond as the
    search over the pullback apex, on every span pair poincare_hom forms
    (and on each span paired with itself)."""
    M = request.getfixturevalue(family)
    objects = registry.universe(name)
    pairs = equal = 0
    for A in objects:
        msubs = sorted(M.m_subobjects(A), key=lambda s_: (-s_.size, s_.elems))
        for B in objects:
            spans = [NormalizedSpan(sub, f) for sub in msubs
                     for f in enumerate_hom(sub.object(), B)]
            for i, s in enumerate(spans):
                for t in spans[i:]:
                    pairs += 1
                    equal += _same_as_reference(s, t, M)
    assert 0 < equal < pairs


def test_fraction_equal_takes_the_first_subobject_of_a_size():
    """In Z2^3 with the order-4 subgroups left out of M, two different maps
    to Z2 agree on a Klein four-group outside M that holds three order-2
    members; the search must pick the same one as the pullback reference."""
    z2 = cyclic_group(2, backend=AB)
    A = direct_product(direct_product(z2, z2), z2)
    M = MonoFamily(kind=EXPLICIT,
                   members=frozenset((A, frozenset(sub.elems))
                                     for sub in subalgebras(A)
                                     if sub.size != 4))
    spans = [NormalizedSpan(sub, f) for sub in M.m_subobjects(A)
             for f in enumerate_hom(sub.object(), z2)]
    ties = 0
    for s in spans:
        for t in spans:
            if _same_as_reference(s, t, M):
                ties += s.sub.is_full and t.sub.is_full and s != t
    assert ties


def test_fraction_equal_is_equivalence(se_family_ab):
    z4 = registry.zab(4)
    spans = [NormalizedSpan(sub, f)
             for sub in se_family_ab.m_subobjects(z4)
             for f in enumerate_hom(sub.object(), z4)]
    rel = {(i, j): fraction_equal(spans[i], spans[j], se_family_ab)[0]
           for i in range(len(spans)) for j in range(len(spans))}
    for i in range(len(spans)):
        assert rel[(i, i)]
        for j in range(len(spans)):
            assert rel[(i, j)] == rel[(j, i)]
            for k in range(len(spans)):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def test_fraction_equal_requires_member_legs(ess_family, s3, s3_named):
    s2 = s3_named["S2"]
    bad = NormalizedSpan(s2, s2.inclusion())
    with pytest.raises(PreconditionViolation):
        fraction_equal(bad, bad, ess_family)


def test_compose_respects_fraction_equality(se_family_ab):
    z4 = registry.zab(4)
    full = Subobject(z4, (0, 1, 2, 3))
    soc = Subobject(z4, (0, 2))
    for f in enumerate_hom(z4, z4):
        a = NormalizedSpan(full, f).span()
        b = NormalizedSpan(soc, compose(f, soc.inclusion())).span()
        for g in enumerate_hom(z4, z4):
            c = NormalizedSpan(full, g).span()
            eq, _ = fraction_equal(normalize(span_compose(c, a)),
                                   normalize(span_compose(c, b)),
                                   se_family_ab)
            assert eq


# ---------------------------------------------------------------------------
# Right-fraction condition suite
# ---------------------------------------------------------------------------

def test_iso_family_passes_everything(z4_universe):
    fam = MonoFamily(kind=ISO_FAMILY)
    reports = check_focal(fam, z4_universe)
    assert all(r.status == "pass" for r in reports)
    assert {r.condition for r in reports} == {"F0", "F1", "F2", "F3", "Ore-d"}


def test_subobject_essential_family_passes(se_family_grp, s3_universe):
    reports = check_focal(se_family_grp, s3_universe)
    assert all(r.status == "pass" for r in reports)


@pytest.mark.parametrize("name", ["s3-subgroups", "z4-chain"])
def test_stabilized_family_over_normal_monos_passes(name):
    """M for S = the normal monos is a bounded stabilized class inside S.
    check_focal asks it about every mono, and a mono outside S is simply
    not in M: on s3-subgroups the order-2 subgroups of S3 are outside S."""
    universe = registry.universe(name)
    S = MonoFamily(NORMAL_MONOS)
    M = stable_essential_family(S, universe)
    assert M.kind == STABILIZED_FAMILY
    monos = [m for X in universe for Y in universe
             for m in enumerate_monos(X, Y)]
    assert all(S.contains(m) for m in monos if M.contains(m))
    assert (name == "s3-subgroups") == any(not S.contains(m) for m in monos)
    reports = check_focal(M, universe)
    assert [r.condition for r in reports] == ["F0", "F1", "F2", "F3", "Ore-d"]
    assert all(r.status == "pass" and r.checked > 0 for r in reports)


def test_essential_family_fails_square_completion(ess_family, s3_universe,
                                                  s3_named):
    reports = {r.condition: r for r in check_focal(ess_family, s3_universe)}
    f2 = reports["F2"]
    assert f2.status == "fail" and f2.witness is not None
    assert set(f2.witness["s"]["map"]) == set(s3_named["A3"].elems)
    assert len(set(f2.witness["f"]["map"])) == 2


def _reference_f3(M, universe):
    """The per-hom F3/Ore-d loop that check_focal replaced by hom counts."""
    checked, witness = 0, None
    for X in universe:
        has_incoming = any(M.contains(m) for W in universe
                           for m in enumerate_hom(W, X))
        for Y in universe:
            for f in enumerate_hom(X, Y):
                checked += 1
                if not has_incoming:
                    witness = {"parallel_pair": f.to_json()}
                    break
            if witness:
                break
        if witness:
            break
    return checked, witness


@pytest.mark.parametrize("universe_name,family", [
    ("s3-subgroups", "se"), ("s4-subgroups", "se"),
    ("s3-subgroups", "no-members"), ("s4-subgroups", "no-members"),
    ("s3-subgroups", "identities-but-last"),
    ("s4-subgroups", "identities-but-last"),
])
def test_f3_reports_match_per_hom_loop(universe_name, family, S_all):
    universe = registry.universe(universe_name)
    if family == "se":
        M = stable_essential_family(S_all, universe)
    else:
        # no member reaches the last object (or any object), so F3 fails
        # there after counting the homs out of every earlier object
        keep = universe[:-1] if family == "identities-but-last" else []
        M = MonoFamily(kind=EXPLICIT,
                       members=frozenset((X, frozenset(X.elements))
                                         for X in keep))
    checked, witness = _reference_f3(M, universe)
    reports = {r.condition: r for r in check_focal(M, universe)}
    for cond in ("F3", "Ore-d"):
        r = reports[cond]
        assert (r.checked, r.witness) == (checked, witness)
        assert r.status == ("fail" if witness else "pass")
    assert (witness is None) == (family == "se")


def _reference_f0_f1(M, universe):
    """The F0/F1 loops of check_focal as they were before the member lists
    were built once per call: F1 rebuilt them for every member s1."""
    def family_monos(X, Y):
        return [m for m in enumerate_hom(X, Y) if M.contains(m)]

    def jw(**kw):
        return {k: v.to_json() for k, v in kw.items()}

    checked, witness = 0, None
    for X in universe:
        checked += 1
        if not any(family_monos(W, X) for W in universe):
            witness = {"object": X.id}
            break
    f0 = (checked, witness)

    checked, witness = 0, None
    for X in universe:
        for Y in universe:
            for s1 in family_monos(X, Y):
                for Z in universe:
                    for s0 in family_monos(Y, Z):
                        checked += 1
                        comp = tuple(s0.table[e] for e in s1.table)
                        found = M.contains_image(Z, frozenset(comp))
                        for W in universe if not found else []:
                            for f in enumerate_hom(W, X):
                                if f.is_injective and M.contains_image(
                                        Z, frozenset(comp[e] for e in f.table)):
                                    found = True
                                    break
                            if found:
                                break
                        if not found:
                            witness = jw(s1=s1, s0=s0)
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    return f0, (checked, witness)


def _focal_family(universe, family, S_all):
    if family == "se":
        return stable_essential_family(S_all, universe)
    if family == "essential":
        return MonoFamily(kind=ESSENTIAL_FAMILY)
    if family == "two-step":
        # s1: 0 -> Y and s0: Y -> Z with the composite left out, so F1
        # fails; F0 fails at every object no member reaches
        Y, Z = universe[1], universe[-1]
        members = frozenset({(Y, frozenset({0})),
                             (Z, enumerate_monos(Y, Z)[0].image)})
        return MonoFamily(kind=EXPLICIT, members=members)
    keep = universe[:-1] if family == "identities-but-last" else []
    return MonoFamily(kind=EXPLICIT,
                      members=frozenset((X, frozenset(X.elements))
                                        for X in keep))


@pytest.mark.parametrize("universe_name", ["s3-subgroups", "z4-chain"])
@pytest.mark.parametrize("family", ["se", "essential", "no-members",
                                    "identities-but-last", "two-step"])
def test_f0_f1_reports_match_per_member_loops(universe_name, family, S_all):
    universe = registry.universe(universe_name)
    M = _focal_family(universe, family, S_all)
    f0, f1 = _reference_f0_f1(M, universe)
    reports = {r.condition: r for r in check_focal(M, universe)}
    for cond, (checked, witness) in (("F0", f0), ("F1", f1)):
        r = reports[cond]
        assert (r.checked, r.witness) == (checked, witness)
        assert r.status == ("fail" if witness else "pass")
    assert (f0[1] is None) == (family in ("se", "essential"))
    if family == "two-step":
        assert f1[1] is not None


def _reference_f2(M, universe):
    """The F2 loop of check_focal once per member s, before it was decided
    once per (codomain, image) key: for every f: W -> A, a square with the
    pullback of s along f, or else any V with s' in M and s.f' = f.s'."""
    def square(s, f):
        if M.contains_image(f.dom, preimage(f.table, s.image)):
            return True
        return any(all(s.table[fp.table[e]] == f.table[sp.table[e]]
                       for e in V.elements)
                   for V in universe
                   for sp in enumerate_hom(V, f.dom) if M.contains(sp)
                   for fp in enumerate_hom(V, s.dom))

    checked = 0
    for A in universe:
        for sX in universe:
            for s in enumerate_hom(sX, A):
                if not M.contains(s):
                    continue
                for W in universe:
                    for f in enumerate_hom(W, A):
                        checked += 1
                        if not square(s, f):
                            return checked, {"s": s.to_json(),
                                             "f": f.to_json()}
    return checked, None


@pytest.mark.parametrize("universe_name",
                         ["s3-subgroups", "z4-chain", "s4-subgroups"])
@pytest.mark.parametrize("family", ["se", "essential", "no-members",
                                    "two-step"])
def test_f2_report_matches_per_member_loop(universe_name, family, S_all):
    universe = registry.universe(universe_name)
    M = _focal_family(universe, family, S_all)
    checked, witness = _reference_f2(M, universe)
    r = {r.condition: r for r in check_focal(M, universe)}["F2"]
    assert (r.checked, r.witness) == (checked, witness)
    assert r.status == ("fail" if witness else "pass")
    assert (witness is None) == (family in ("se", "no-members") or (
        family == "essential" and universe_name == "z4-chain"))


def test_f2_fails_after_a_repeated_passing_key(ess_family, s3_universe,
                                               s3_named):
    """On s3-subgroups the essential family fails F2 at A3 -> S3 with the
    classic witness, after members whose (codomain, image) key was already
    decided: each adds the count of its key again."""
    r = {r.condition: r for r in check_focal(ess_family, s3_universe)}["F2"]
    assert (r.checked, r.witness) == _reference_f2(ess_family, s3_universe)
    assert set(r.witness["s"]["map"]) == set(s3_named["A3"].elems)
    seen, repeated = set(), 0
    for A in s3_universe:
        for X in s3_universe:
            for s in enumerate_hom(X, A):
                if s.to_json() == r.witness["s"]:
                    assert repeated > 0 and (A, s.image) not in seen
                    return
                if ess_family.contains(s):
                    repeated += (A, s.image) in seen
                    seen.add((A, s.image))
    pytest.fail("the witness s is no member of the family")


def test_f2_fails_beside_a_passing_key_into_the_same_object():
    """M = every mono of s4-subgroups but two into S4: the zero mono and
    the first order-3 subgroup.  F2 fails at another order-3 subgroup of
    S4, pulled back along an automorphism onto the one left out, after
    members into S4 with other images passed: a key is the pair
    (codomain, image), not the codomain alone."""
    universe = registry.universe("s4-subgroups")
    S4 = universe[-1]
    order_3 = next(sub for sub in subalgebras(S4) if sub.size == 3)
    out = {(S4, frozenset({0})), (S4, frozenset(order_3.elems))}
    M = MonoFamily(kind=EXPLICIT, members=frozenset(
        (m.cod, m.image) for X in universe for Y in universe
        for m in enumerate_monos(X, Y)) - out)
    r = {r.condition: r for r in check_focal(M, universe)}["F2"]
    assert (r.checked, r.witness) == _reference_f2(M, universe)
    s = r.witness["s"]
    assert s["cod"] == S4.id and len(s["map"]) == 3
    assert set(s["map"]) != set(order_3.elems)
    assert len(set(r.witness["f"]["map"])) == S4.size
    assert any(M.contains(m) for X in universe if X.size == 2
               for m in enumerate_monos(X, S4))


# ---------------------------------------------------------------------------
# Localized hom sets
# ---------------------------------------------------------------------------

def poincare_hom_zigzag(A, B, M, apexes):
    """Independent oracle: count connected components of the hom category of
    spans (2-cells are apex maps commuting with both legs), apexes drawn
    from the given object list."""
    spans = [Span(x, f) for X in apexes
             for x in enumerate_hom(X, A) if M.contains(x)
             for f in enumerate_hom(X, B)]
    n = len(spans)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(n):
            if i == j or find(i) == find(j):
                continue
            si, sj = spans[i], spans[j]
            if si.apex.backend != sj.apex.backend:
                continue
            linked = any(
                compose(sj.left, s).table == si.left.table and
                compose(sj.right, s).table == si.right.table
                for s in enumerate_hom(si.apex, sj.apex)
            )
            if linked:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    return len({find(i) for i in range(n)})


def _pairwise_poincare_hom(A, B, M):
    """The span quotient by a diamond search on every pair of spans, as
    poincare_hom built it before the keyed join; returns the class lists."""
    msubs = sorted(M.m_subobjects(A), key=lambda s_: (-s_.size, s_.elems))
    spans = [NormalizedSpan(sub, f) for sub in msubs
             for f in enumerate_hom(sub.object(), B)]
    parent = list(range(len(spans)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            if find(i) == find(j):
                continue
            if fraction_equal(spans[i], spans[j], M)[0]:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i, sp in enumerate(spans):
        groups.setdefault(find(i), []).append(sp)
    reps = sorted(groups.values(), key=lambda g: min(sp.sort_key() for sp in g))
    classes = []
    for idx, g in enumerate(reps):
        members = tuple(sorted(g, key=lambda sp: sp.sort_key()))
        classes.append((idx, members[0], members))
    return classes


def _class_lists(A, B, M):
    return [(c.index, c.rep, c.members) for c in poincare_hom(A, B, M)]


def _universe_family(name, S_all):
    objects = registry.universe(name)
    return objects, stable_essential_family(S_all, objects)


@pytest.mark.parametrize("name", ["s3-subgroups", "z4-chain", "pointed-le-4",
                                  "a5-chain", "s4-subgroups"])
def test_keyed_join_matches_pairwise_quotient(name, S_all):
    objects, M = _universe_family(name, S_all)
    for A in objects:
        for B in objects:
            assert _class_lists(A, B, M) == _pairwise_poincare_hom(A, B, M)


def test_keyed_join_matches_pairwise_quotient_for_essential_family(
        ess_family, s3_universe):
    """The essential monos of S3 are not pullback stable (F2 fails), so no
    minimal M-subobject theorem applies; the join still gives the quotient."""
    merged = 0
    for A in s3_universe:
        for B in s3_universe:
            want = _pairwise_poincare_hom(A, B, ess_family)
            assert _class_lists(A, B, ess_family) == want
            merged += sum(len(members) - 1 for _, _, members in want)
    assert merged


def test_keyed_join_matches_pairwise_quotient_for_meet_free_family(
        s3_universe, s3):
    """M = the three order-2 subgroups of S3, which pairwise meet in 0 only:
    no M-subobject lies in two of them, so spans on different ones are
    never equal, although every one of them agrees on the third subgroup's
    meet with its own domain."""
    order_2 = [sub for sub in subalgebras(s3) if sub.size == 2]
    M = MonoFamily(kind=EXPLICIT,
                   members=frozenset((s3, frozenset(sub.elems))
                                     for sub in order_2))
    for B in s3_universe:
        want = _pairwise_poincare_hom(s3, B, M)
        assert _class_lists(s3, B, M) == want
        assert {members[0].sub for _, _, members in want} == set(order_2)
        assert all(len({sp.sub for sp in members}) == 1
                   for _, _, members in want)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["s3-subgroups", "z4-chain", "pointed-le-4"]),
       data=st.data())
def test_keyed_join_matches_pairwise_quotient_for_any_family(name, data):
    """Over an explicit family holding any nonempty set of subobjects of A,
    the join and the all-pairs diamond search give the same classes."""
    objects = registry.universe(name)
    A = data.draw(st.sampled_from(objects), label="A")
    B = data.draw(st.sampled_from(objects), label="B")
    subs = data.draw(st.sets(st.sampled_from(subalgebras(A)), min_size=1),
                     label="M-subobjects")
    M = MonoFamily(kind=EXPLICIT,
                   members=frozenset((A, frozenset(sub.elems))
                                     for sub in subs))
    assert _class_lists(A, B, M) == _pairwise_poincare_hom(A, B, M)


def test_each_merging_join_is_certified_once(S_all, monkeypatch):
    """On s4-subgroups fraction_equal runs once per merge, spans - classes
    times over all object pairs, and certifies every one."""
    objects, M = _universe_family("s4-subgroups", S_all)
    answers = []

    def counting(s, t, M_):
        answer = fraction_equal(s, t, M_)
        answers.append(answer[0])
        return answer

    monkeypatch.setattr(fractions, "fraction_equal", counting)
    merges = 0
    for A in objects:
        for B in objects:
            classes = poincare_hom(A, B, M)
            merges += sum(len(c.members) - 1 for c in classes)
    assert len(answers) == merges == 333
    assert all(answers)


def test_refused_certificate_raises(se_family_ab, monkeypatch):
    monkeypatch.setattr(fractions, "fraction_equal",
                        lambda s, t, M: (False, None))
    z4 = registry.zab(4)
    with pytest.raises(ConsistencyError):
        poincare_hom(z4, z4, se_family_ab)


def test_hom_from_zero_is_singleton(se_family_ab):
    zero = registry.ab_zero()
    assert len(poincare_hom(zero, registry.zab(4), se_family_ab)) == 1


def test_z4_endo_classes(se_family_ab):
    z4 = registry.zab(4)
    assert len(poincare_hom(z4, z4, se_family_ab)) == 2


def test_s3_endo_classes(se_family_grp, s3):
    classes = poincare_hom(s3, s3, se_family_grp)
    assert len(classes) == 10


def test_zigzag_oracle_agreement(se_family_ab, z4_universe):
    for A in z4_universe:
        for B in z4_universe:
            colimit = len(poincare_hom(A, B, se_family_ab))
            zigzag = poincare_hom_zigzag(A, B, se_family_ab,
                                         list(z4_universe))
            assert colimit == zigzag


def test_class_representatives_are_canonical(se_family_ab):
    z4 = registry.zab(4)
    classes = poincare_hom(z4, z4, se_family_ab)
    for c in classes:
        # representative has the largest denominator, then smallest table
        assert c.rep == min(c.members, key=lambda sp: sp.sort_key())
    assert [c.index for c in classes] == list(range(len(classes)))
