"""End-to-end acceptance suite.

Each test covers one headline capability and prints a single pass/fail line
so the run doubles as a checklist.  Time budgets are generous upper bounds;
every check is exact (no sampling) unless stated otherwise.
"""

import time

from speccat import (
    ALL_MONOS,
    MonoFamily,
    build_spec,
    check_focal,
    check_normal_backend,
    closure_law_suite,
    compose,
    end_spec_division_check,
    essential_four_ways,
    find_weak_left_cancellation_witness,
    is_essential,
    is_stable_essential,
    is_subobject_essential,
    is_uniform,
    poincare_hom,
    pullback,
    stable_essential_family,
    verify_limit_preservation,
)
from speccat import registry
from speccat.catcore import Subobject, closure, subalgebras
from speccat.cli import CHECKS
from speccat.monoclasses import ESSENTIAL_FAMILY


def report(capsys, name, ok, elapsed, budget):
    line = (f"[{'PASS' if ok else 'FAIL'}] {name} "
            f"({elapsed:.2f}s / budget {budget:.0f}s)")
    with capsys.disabled():
        print(line)
    assert ok and elapsed < budget


def test_essential_but_not_stable_example(capsys, s3, s3_named, S_all,
                                          s3_universe):
    """An essential mono that is neither subobject-essential nor pullback
    stable, decided exactly."""
    t0 = time.time()
    a3, s2 = s3_named["A3"].inclusion(), s3_named["S2"].inclusion()
    e = is_essential(a3, S_all)
    se = is_subobject_essential(a3)
    st = is_stable_essential(a3, S_all, s3_universe)
    pb = pullback(a3, s2)
    ok = (e.value and e.exact and not se.value and not st.value and st.exact
          and pb.apex.size == 1 and pb.proj_right.cod.size == 2)
    report(capsys, "essential-but-not-stable example", ok,
           time.time() - t0, 1)


def test_stable_equals_subobject_essential_sweep(capsys, S_all):
    """Over every subgroup of every catalog group up to order 24, the
    bounded pullback-refutation search agrees with the exact
    subobject-essentiality decision."""
    t0 = time.time()
    ok, rep = CHECKS["thm-6.9-sweep"]()
    ok = ok and rep["canonical_monos_checked"] > 400
    report(capsys, "stable = subobject-essential sweep", ok,
           time.time() - t0, 300)


def test_four_equivalent_essentiality_routes(capsys):
    """Essentiality computed via regular quotients, congruences, normal
    subobjects, and kernels agrees on every subgroup inclusion of every
    catalog group."""
    t0 = time.time()
    ok = True
    for G in registry.group_catalog():
        for sub in subalgebras(G):
            four = essential_four_ways(sub.inclusion())
            if len(set(four.values())) != 1:
                ok = False
    report(capsys, "four essentiality routes agree", ok,
           time.time() - t0, 300)


def test_closure_laws_and_cancellation_failure(capsys):
    """All closure laws hold on the order-24 symmetric-group universe and
    the cyclic chain; weak left cancellation genuinely fails for essential
    monos, with the classic subgroup chain as a validated witness."""
    t0 = time.time()
    s4_reports = closure_law_suite(registry.universe("s4-subgroups"))
    z4_reports = closure_law_suite(registry.universe("z4-chain"))
    ok = all(r.status == "pass" for r in s4_reports + z4_reports)

    w = find_weak_left_cancellation_witness(registry.universe("a5-chain"))
    S = MonoFamily(ALL_MONOS)
    ok = ok and w is not None and not bool(is_essential(w.inner, S))

    # the named family: an order-2 subgroup inside an order-6 subgroup of
    # the simple order-60 group
    A = registry.a5()

    def elem(perm):
        return A.labels.index("(" + " ".join(map(str, perm)) + ")")

    m_elems = closure(A, (elem((1, 2, 0, 3, 4)), elem((1, 0, 2, 4, 3))))
    msub = Subobject(A, m_elems)
    m = msub.inclusion()
    mp = Subobject(msub.object(), tuple(sorted(
        (0, m_elems.index(elem((1, 0, 2, 4, 3))))))).inclusion()
    ok = (ok and msub.size == 6
          and bool(is_essential(m, S))
          and bool(is_essential(compose(m, mp), S))
          and not bool(is_essential(mp, S)))
    report(capsys, "closure laws + left-cancellation failure", ok,
           time.time() - t0, 600)


def test_right_fraction_calculus(capsys):
    """The stable class admits a calculus of right fractions over the
    order-24 symmetric-group universe; merely-essential monos fail square
    completion over the order-6 one with the classic cospan as witness."""
    t0 = time.time()
    s4_universe = registry.universe("s4-subgroups")
    fam = stable_essential_family(MonoFamily(ALL_MONOS), s4_universe)
    ok = all(r.status == "pass" for r in check_focal(fam, s4_universe))

    ess = MonoFamily(kind=ESSENTIAL_FAMILY)
    by_id = {r.condition: r
             for r in check_focal(ess, registry.universe("s3-subgroups"))}
    f2 = by_id["F2"]
    a3 = set(registry.s3_named_subobjects()["A3"].elems)
    ok = (ok and f2.status == "fail" and f2.witness is not None
          and set(f2.witness["s"]["map"]) == a3
          and len(set(f2.witness["f"]["map"])) == 2)
    report(capsys, "right-fraction calculus", ok, time.time() - t0, 60)


def test_two_hom_constructions_agree(capsys, se_family_ab, se_family_grp,
                                     z4_universe, s3_universe):
    """The span-quotient hom sets match the minimal-subobject hom sets on
    every object pair of both universes, including the two headline
    endomorphism counts."""
    t0 = time.time()
    ok = True
    for fam, universe in ((se_family_ab, z4_universe),
                          (se_family_grp, s3_universe)):
        spec = build_spec(MonoFamily(ALL_MONOS), list(universe))
        for A in universe:
            for B in universe:
                if len(spec.hom(A, B)) != len(poincare_hom(A, B, fam)):
                    ok = False
    z4 = registry.zab(4)
    s3 = registry.s3()
    ok = (ok and len(poincare_hom(z4, z4, se_family_ab)) == 2
          and len(poincare_hom(s3, s3, se_family_grp)) == 10)
    report(capsys, "hom constructions agree", ok, time.time() - t0, 60)


def test_localization_preserves_pullbacks(capsys):
    """The localization functor preserves registered pullbacks in both the
    symmetric-group and cyclic-chain universes (bounded verification)."""
    t0 = time.time()
    ok = True
    for name in ("s3-subgroups", "z4-chain"):
        spec = build_spec(MonoFamily(ALL_MONOS), registry.universe(name))
        reports = verify_limit_preservation(
            spec, registry.registered_cospans(name))
        ok = ok and bool(reports) and all(r.status == "pass" for r in reports)
    report(capsys, "localization preserves pullbacks", ok,
           time.time() - t0, 300)


def test_uniform_gives_division_monoid(capsys):
    """Uniform objects get division-monoid endomorphisms in the
    localization (orders 4 and 5); the non-uniform order-6 group does not."""
    t0 = time.time()
    S = MonoFamily(ALL_MONOS)
    spec_ab = build_spec(S, registry.universe("z4-chain"))
    z4 = registry.zab(4)
    d4 = end_spec_division_check(z4, spec_ab)
    z5 = registry.z(5)
    spec_z5 = build_spec(S, registry.subgroup_universe(z5))
    d5 = end_spec_division_check(z5, spec_z5)
    s3 = registry.s3()
    spec_s3 = build_spec(S, registry.universe("s3-subgroups"))
    d3 = end_spec_division_check(s3, spec_s3)
    ok = (is_uniform(z4, spec_ab.M).uniform and d4.verdict and d4.size == 2
          and is_uniform(z5, spec_z5.M).uniform and d5.verdict
          and d5.size == 5
          and not is_uniform(s3, spec_s3.M).uniform and not d3.verdict
          and d3.size == 10)
    report(capsys, "uniform gives division monoid", ok, time.time() - t0, 60)


def test_backend_normality_control(capsys):
    """Both group backends satisfy the normality property suite; the pointed
    set backend fails it with an explicit witness, among them a regular epi
    that is not normal."""
    t0 = time.time()
    grp = check_normal_backend(registry.universe("s3-subgroups"))
    ab = check_normal_backend(registry.universe("z4-chain"))
    ps = check_normal_backend(registry.universe("pointed-le-4"))
    ok = (grp.passed and ab.passed and not ps.passed and bool(ps.failures)
          and any(f["check"] == "regular-epi-is-normal"
                  for f in ps.failures))
    report(capsys, "backend normality control", ok, time.time() - t0, 60)
