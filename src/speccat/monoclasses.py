"""Designated classes of monomorphisms and their decision procedures.

The decidable heart of the package: essentiality (decided exactly through
regular quotients, i.e. congruences of the codomain), subobject-essentiality
(decided by subobject enumeration), pullback-stable essentiality (exact in
the group backends, bounded refutation elsewhere), stabilization of a class,
and an exhaustive closure/cancellation law harness.

Every law report counts the cases whose premise holds, up to and including
the first case whose conclusion fails, and that case is the witness: a
passing law counts all its cases, a failing one stops at its first failure.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache, cached_property

from .catcore import (
    NORMAL_BACKENDS,
    ConcreteMorphism,
    FiniteObject,
    Subobject,
    _Validated,
    compose,
    enumerate_monos,
    hom_tables,
    is_normal_subset,
    normal_subalgebras,
    subalgebras,
)
from .errors import BackendMismatch, PreconditionViolation
from .limits import congruences, has_zero_kernel, preimage, pullback

# ---------------------------------------------------------------------------
# The designated class S
# ---------------------------------------------------------------------------

ALL_MONOS = "all"
NORMAL_MONOS = "normal"
EXPLICIT = "explicit"


def canonical_mono(m: ConcreteMorphism) -> tuple[FiniteObject, frozenset[int]]:
    """A mono up to canonical iso: its codomain together with its image."""
    return (m.cod, m.image)


def _inclusion(cod: FiniteObject, image) -> ConcreteMorphism:
    """The canonical mono with the given codomain and image."""
    return Subobject(cod, tuple(sorted(image))).inclusion()


class MonoClassSpec(_Validated, namedtuple("MonoClassSpec", "kind members",
                                           defaults=(None,))):
    """The designated class S of monomorphisms (the class to be essential for).

    Membership depends only on the codomain and image of a mono: that pair
    determines the mono up to canonical iso, and every kind is closed under
    isomorphic copies.  ``contains_image`` decides it from the pair, so an
    inclusion, composite or pullback need not be built to be asked about.

    Fields: ``kind: str``,
    ``members: frozenset[tuple[FiniteObject, frozenset[int]]] | None``.
    """

    __slots__ = ()

    def __post_init__(self):
        if self.kind not in (ALL_MONOS, NORMAL_MONOS, EXPLICIT):
            raise PreconditionViolation(f"unknown mono class kind {self.kind!r}")
        if self.kind == EXPLICIT and self.members is None:
            raise PreconditionViolation("explicit mono class needs members")

    @staticmethod
    def explicit(morphisms) -> "MonoClassSpec":
        pairs = frozenset(canonical_mono(m) for m in morphisms if m.is_injective)
        return MonoClassSpec(EXPLICIT, pairs)

    def contains_image(self, cod: FiniteObject, image: frozenset[int]) -> bool:
        """Does the mono into cod with this image belong to S?"""
        if self.kind == ALL_MONOS:
            return True
        if self.kind == NORMAL_MONOS:
            return is_normal_subset(cod, image)
        return (cod, image) in self.members

    def contains(self, m: ConcreteMorphism) -> bool:
        return m.is_injective and self.contains_image(m.cod, m.image)


# ---------------------------------------------------------------------------
# Verdicts and caches
# ---------------------------------------------------------------------------

def _jsonable(**fields) -> dict:
    """A witness as JSON: each field's ``to_json()``, or the value itself."""
    return {k: (v.to_json() if hasattr(v, "to_json") else v)
            for k, v in fields.items()}


class Verdict(namedtuple("Verdict", "value exact witness",
                         defaults=(None,))):
    """Fields: ``value: bool``, ``exact: bool``, ``witness: object``."""

    __slots__ = ()

    def __bool__(self):
        return self.value

    def to_json(self) -> dict:
        w = self.witness
        if isinstance(w, dict):
            w = _jsonable(**w)
        elif hasattr(w, "to_json"):
            w = w.to_json()
        return {"value": self.value,
                "mode": "exact" if self.exact else "bounded",
                "witness": w}


def _discrete_on(cong, image: frozenset[int]) -> bool:
    ids = cong.block_ids()
    seen: dict[int, int] = {}
    for e in image:
        b = ids[e]
        if b in seen:
            return False
        seen[b] = e
    return True


@cache
def _essential_refutation(cod: FiniteObject, image: frozenset[int]):
    """The first non-discrete congruence on the codomain that identifies no
    two image elements, or None when the mono is essential."""
    for cong in congruences(cod):
        if not cong.is_discrete and _discrete_on(cong, image):
            return cong
    return None


@cache
def _se_refutation(cod: FiniteObject, image: frozenset[int]):
    """The first nonzero subobject of the codomain that meets the image only
    in the basepoint, or None when the mono is subobject-essential."""
    for sub in subalgebras(cod):
        if sub.size > 1 and len(image & set(sub.elems)) == 1:
            return sub
    return None


# ---------------------------------------------------------------------------
# The three decision procedures
# ---------------------------------------------------------------------------

def is_essential(m: ConcreteMorphism, S: MonoClassSpec,
                 universe: list[FiniteObject] | None = None) -> Verdict:
    """Is m an S-essential monomorphism?

    For S = all monos the answer is exact: every morphism out of cod(m)
    factors as a regular quotient followed by a mono, so it is enough to
    quantify over the congruences of cod(m).  For other S the check runs
    over a probe universe and the verdict is flagged as bounded.
    """
    if not S.contains(m):
        raise PreconditionViolation(f"{m!r} is not in the designated class")
    image = m.image
    if S.kind == ALL_MONOS:
        cong = _essential_refutation(m.cod, image)
        if cong is None:
            return Verdict(True, exact=True)
        return Verdict(False, exact=True, witness=cong.quotient()[1])
    if universe is None:
        raise PreconditionViolation(
            "essentiality for a restricted class needs a probe universe")
    for B in universe:
        for t in hom_tables(m.cod, B):
            # f.m is in S when f is injective on the image and S has
            # f(image); f is in S when it is injective and S has its image
            pushed = frozenset(t[e] for e in image)
            if len(pushed) == len(image) and S.contains_image(B, pushed) \
                    and not (len(set(t)) == len(t)
                             and S.contains_image(B, frozenset(t))):
                return Verdict(False, exact=False,
                               witness=ConcreteMorphism(m.cod, B, t))
    return Verdict(True, exact=False)


def is_subobject_essential(m: ConcreteMorphism) -> Verdict:
    """Does every nonzero subobject of cod(m) meet the image of m nontrivially?"""
    if not m.is_injective:
        raise PreconditionViolation(f"{m!r} is not a monomorphism")
    sub = _se_refutation(m.cod, m.image)
    if sub is None:
        return Verdict(True, exact=True)
    return Verdict(False, exact=True, witness=sub.inclusion())


def essential_four_ways(m: ConcreteMorphism) -> dict[str, bool]:
    """Evaluate essentiality of a mono by four independent routes.

    The routes quantify respectively over regular quotients (injectivity
    transfer), congruences (relating two distinct image elements), nonzero
    normal subobjects (meeting the image nontrivially) and kernels of regular
    quotients (zero-kernel transfer).  In the group backends all four must
    agree; any disagreement is a bug in the decision procedures.
    """
    if not m.is_injective:
        raise PreconditionViolation(f"{m!r} is not a monomorphism")
    A, image = m.cod, m.image
    results: dict[str, bool] = {}

    # the regular quotients, read by the first and the last route
    quotients = [cong.quotient()[1] for cong in congruences(A)]

    results["via_regular_quotients"] = not any(
        compose(e, m).is_injective and not e.is_injective for e in quotients)

    results["via_congruences"] = _essential_refutation(A, image) is None

    if A.backend in NORMAL_BACKENDS:
        results["via_normal_subobjects"] = all(
            len(set(sub.elems) & image) > 1
            for sub in normal_subalgebras(A) if sub.size > 1)
    else:
        results["via_normal_subobjects"] = results["via_congruences"]

    results["via_kernels"] = not any(
        has_zero_kernel(compose(e, m)) and not has_zero_kernel(e)
        for e in quotients)
    return results


class RefutingPullback(namedtuple("RefutingPullback", "along pulled")):
    """A pullback of a candidate mono whose projection fails to be essential.

    Fields: ``along: ConcreteMorphism``, ``pulled: ConcreteMorphism``.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"along": self.along.to_json(), "pulled": self.pulled.to_json()}


def _find_refuting_pullback(m: ConcreteMorphism, S: MonoClassSpec,
                            universe: list[FiniteObject]) -> RefutingPullback | None:
    """The first pullback of m that is not S-essential, along a subobject
    inclusion of cod(m) or else along a morphism X -> cod(m) from the
    universe, in the sorted order of ``hom_tables``; None when there is none.

    Each pullback is decided on its (X, preimage) key, the mono up to
    canonical iso, so a morphism is built only for the refuting map.  When
    S is not all monos the key is decided by S-membership and the bounded
    essentiality test of its inclusion.  When m is an iso every pullback
    along a map X -> cod(m) has the key (X, X), so that key is decided once
    per probe object X, and the maps X -> cod(m) are searched only to
    report the first of them as the refuting map.
    """
    cod, image = m.cod, m.image

    def refutation(x):
        return RefutingPullback(along=x, pulled=pullback(m, x).proj_right)

    def refutes(X, pre):
        if S.kind == ALL_MONOS:
            return _essential_refutation(X, pre) is not None
        return not (S.contains_image(X, pre) and is_essential(
            _inclusion(X, pre), S, universe).value)

    # subobject inclusions first: cheap and they carry the textbook witnesses;
    # m pulls back to an iso along a subobject inside its image, and an iso
    # is essential, so such a subobject is skipped
    for sub in subalgebras(cod):
        pre = preimage(sub.elems, image)
        if len(pre) != sub.size and _essential_refutation(
                sub.object(), pre) is not None:
            return refutation(sub.inclusion())
    if len(image) == cod.size:
        for X in universe:
            if X.backend != cod.backend:
                raise BackendMismatch(f"hom({X.id},{cod.id}): backends differ")
            if refutes(X, frozenset(X.elements)) and (
                    tables := hom_tables(X, cod)):
                return refutation(ConcreteMorphism(X, cod, tables[0]))
        return None
    for X in universe:
        for t in hom_tables(X, cod):
            if refutes(X, preimage(t, image)):
                return refutation(ConcreteMorphism(X, cod, t))
    return None


def is_stable_essential(m: ConcreteMorphism, S: MonoClassSpec,
                        universe: list[FiniteObject] | None = None) -> Verdict:
    """Is m a pullback stable S-essential monomorphism?

    In the group backends with S = all monos this is decided exactly via
    subobject-essentiality; otherwise a bounded refutation search pulls m
    back along every morphism from the universe.
    """
    if not S.contains(m):
        raise PreconditionViolation(f"{m!r} is not in the designated class")
    if m.dom.backend in NORMAL_BACKENDS and S.kind == ALL_MONOS:
        if _se_refutation(m.cod, m.image) is None:
            return Verdict(True, exact=True)
        witness = _find_refuting_pullback(m, S, universe or [])
        return Verdict(False, exact=True, witness=witness)
    if universe is None:
        raise PreconditionViolation(
            "bounded stable-essentiality needs a probe universe")
    if not is_essential(m, S, universe if S.kind != ALL_MONOS else None).value:
        return Verdict(False, exact=False, witness=None)
    witness = _find_refuting_pullback(m, S, universe)
    if witness is not None:
        return Verdict(False, exact=False, witness=witness)
    return Verdict(True, exact=False)


def stabilize(monos: list[ConcreteMorphism],
              universe: list[FiniteObject]) -> list[ConcreteMorphism]:
    """Members of the given class all of whose pullbacks stay in the class.

    Membership of a pullback is decided up to canonical iso: the pullback of
    a mono m along x is the inclusion of the x-preimage of the image of m.
    Identity-shaped pullbacks always count as members (every class of
    interest contains the isomorphisms, but a finite member list cannot spell
    out the isos of every possible pullback domain).
    """
    members = {canonical_mono(m) for m in monos if m.is_injective}

    def stable(m):
        image = m.image
        for X in universe:
            for t in hom_tables(X, m.cod):
                pre = preimage(t, image)
                if len(pre) != X.size and (X, pre) not in members:
                    return False
        return True

    return [m for m in monos if stable(m)]


# ---------------------------------------------------------------------------
# Classification reports
# ---------------------------------------------------------------------------

class ClassificationReport(namedtuple(
        "ClassificationReport",
        "morphism in_S essential subobject_essential stable_essential")):
    """Fields: ``morphism: ConcreteMorphism``, ``in_S: bool``, and
    ``essential``, ``subobject_essential``, ``stable_essential``, each a
    ``Verdict | None``."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "morphism": self.morphism.to_json(),
            "in_S": self.in_S,
            "essential": self.essential.to_json() if self.essential else None,
            "subobject_essential": (self.subobject_essential.to_json()
                                    if self.subobject_essential else None),
            "stable_essential": (self.stable_essential.to_json()
                                 if self.stable_essential else None),
        }


def classify(m: ConcreteMorphism, S: MonoClassSpec,
             universe: list[FiniteObject] | None = None) -> ClassificationReport:
    in_s = S.contains(m)
    if not in_s:
        return ClassificationReport(m, False, None, None, None)
    return ClassificationReport(
        morphism=m,
        in_S=True,
        essential=is_essential(m, S, universe),
        subobject_essential=is_subobject_essential(m),
        stable_essential=is_stable_essential(m, S, universe),
    )


# ---------------------------------------------------------------------------
# Closure/cancellation law harness
# ---------------------------------------------------------------------------

class LawReport(namedtuple("LawReport", "law_id status checked witness",
                           defaults=(None,))):
    """Fields: ``law_id: str``, ``status: str`` ("pass" | "fail"),
    ``checked: int``, ``witness: dict | None``."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"law_id": self.law_id, "status": self.status,
                "checked": self.checked, "witness": self.witness}


def _first_failure(cases) -> tuple[int, dict | None]:
    """(checked, witness) of a first-failure check.  ``cases`` yields one
    item per case whose premise holds: None when its conclusion holds too,
    the witness when it does not.  The scan stops at the first witness."""
    checked = 0
    for witness in cases:
        checked += 1
        if witness is not None:
            return checked, witness
    return checked, None


def _report(cls, name: str, result: tuple[int, dict | None]):
    """A law, condition or cone report from a (checked, witness) result."""
    checked, witness = result
    return cls(name, "pass" if witness is None else "fail", checked, witness)


def monos_between(universe: list[FiniteObject]) -> dict[tuple, tuple]:
    """The monos X -> Y between universe objects, keyed by (X, Y) in universe
    order; pairs with no mono are left out."""
    return {(X, Y): ms for X in universe for Y in universe
            if (ms := enumerate_monos(X, Y))}


def _composable(monos: dict[tuple, tuple]):
    """The (inner, outer) mono lists with inner X -> Y and outer Y -> Z, in
    the order of a scan over ``monos`` for the inner list and, for each, a
    second scan for the outer lists out of Y."""
    outer_from: dict[FiniteObject, list[tuple]] = {}
    for (Y, _), outer in monos.items():
        outer_from.setdefault(Y, []).append(outer)
    for (_, Y), inner in monos.items():
        for outer in outer_from.get(Y, ()):
            yield inner, outer


def _first_failure_by_key(items, key, cases) -> tuple[int, dict | None]:
    """(checked, witness) of a first-failure check whose cases come in one
    group per item, where whether a group passes, and its count when it
    does, depend only on ``key(item)``.  ``cases(item)`` yields the group as
    for :func:`_first_failure`.  Each key is scanned once: a key that passed
    adds its count again, and a failing key fails at its first item, so the
    count and witness are those of one scan per item."""
    passed: dict = {}
    checked = 0
    for item in items:
        k = key(item)
        n = passed.get(k)
        if n is None:
            n, witness = _first_failure(cases(item))
            if witness is not None:
                return checked + n, witness
            passed[k] = n
        checked += n
    return checked, None


def _pullback_stable_law(monos: dict[tuple, tuple], universe: list[FiniteObject],
                         member) -> tuple[int, dict | None]:
    """Pull every member mono back along every morphism into its codomain;
    return (checked, witness) for the first pullback that is not a member.

    ``member`` is asked about (codomain, image) keys.  The pullbacks of a
    mono depend only on its key, so each key is decided once."""
    def pullbacks(m):
        Y, image = m.cod, m.image
        for W in universe:
            for t in hom_tables(W, Y):
                pre = preimage(t, image)
                yield None if member((W, pre)) else _jsonable(
                    mono=m, along=ConcreteMorphism(W, Y, t),
                    pulled=_inclusion(W, pre))

    return _first_failure_by_key(
        (m for ms in monos.values() for m in ms if member(canonical_mono(m))),
        canonical_mono, pullbacks)


def _composite_scan(monos: dict[tuple, tuple],
                    laws) -> list[tuple[int, dict | None]]:
    """(checked, witness) of each composition-shaped law over the composable
    pairs m': X -> Y, m: Y -> Z, in ``_composable`` order with m' outer.

    ``laws`` holds (premise, conclusion) pairs asked about the (codomain,
    image) keys of m', m and m.m'.  Those keys depend on m' only through
    its image, so each (inner, outer) block decides every (image of m', m)
    pair once and adds the number of inner monos with that image.  A block
    in which a law fails is rescanned pair by pair for that law, so the
    law's count and witness are those of its first failing pair."""
    def pairs(inner, outer, premise, conclusion):
        for mp in inner:
            for m in outer:
                k = (canonical_mono(mp), canonical_mono(m),
                     (m.cod, frozenset(m.table[e] for e in mp.table)))
                if premise(*k):
                    yield None if conclusion(*k) else _jsonable(
                        inner=mp, outer=m, composite=compose(m, mp))

    results = [(0, None)] * len(laws)
    for inner, outer in _composable(monos):
        Y = inner[0].cod
        images = Counter(mp.image for mp in inner)
        outer_keys = [(m.table, canonical_mono(m)) for m in outer]
        block = [(n, ((Y, image), km,
                      (km[0], frozenset(t[e] for e in image))))
                 for image, n in images.items() for t, km in outer_keys]
        for i, (premise, conclusion) in enumerate(laws):
            checked, witness = results[i]
            if witness is not None:
                continue
            n = 0
            for multiplicity, k in block:
                if premise(*k):
                    if not conclusion(*k):
                        n, witness = _first_failure(
                            pairs(inner, outer, premise, conclusion))
                        break
                    n += multiplicity
            results[i] = (checked + n, witness)
    return results


def _mono_flags(universe, S):
    """Membership tests of the essential, subobject-essential and pullback
    stable S-essential classes, on the (codomain, image) key of a mono.  A
    key outside S is not pullback stable S-essential."""
    M = stable_essential_family(universe[0].backend if universe else None,
                                S, universe)

    def in_e(key):
        return _essential_refutation(*key) is None

    def in_se(key):
        return _se_refutation(*key) is None

    def in_st(key):
        return S.contains_image(*key) and M.contains_image(*key)

    return in_e, in_se, in_st


def closure_law_suite(universe: list[FiniteObject],
                      S: MonoClassSpec | None = None) -> list[LawReport]:
    """Exhaustively check the closure and cancellation laws of the essential,
    subobject-essential and pullback-stable essential classes over a finite
    universe of objects.  Every failed law carries a concrete witness.

    The ``stabilization-*`` laws test the class that :func:`stabilize` makes
    of the S-essential monos between universe objects, a cross-check of the
    ``stable-essential-*`` laws, which use :func:`is_stable_essential`."""
    S = S or MonoClassSpec(ALL_MONOS)
    monos = monos_between(universe)
    in_e, in_se, in_st = _mono_flags(universe, S)
    stabilized = {canonical_mono(m) for m in stabilize(
        [m for ms in monos.values() for m in ms
         if S.contains(m) and is_essential(m, S, universe).value], universe)}
    in_stab = stabilized.__contains__
    isos = [m for ms in monos.values() for m in ms if m.is_bijective]
    reports: list[LawReport] = []

    # -- iso containment -------------------------------------------------
    for law_id, member in (("stabilization-contains-isos", in_stab), ("essential-contains-isos", in_e),
                           ("stable-essential-contains-isos", in_st), ("subobject-essential-contains-isos", in_se)):
        reports.append(_report(LawReport, law_id, _first_failure(
            None if member(canonical_mono(m)) else _jsonable(iso=m)
            for m in isos)))

    # -- composition-shaped laws -----------------------------------------
    comp_laws = [
        # (law id, premise(p, m, c), conclusion(p, m, c)); the arguments are
        # the (codomain, image) keys of m', m and the composite m.m'
        ("stabilization-composition", lambda p, m, c: in_stab(p) and in_stab(m), lambda p, m, c: in_stab(c)),
        ("stabilization-right-cancellation", lambda p, m, c: in_stab(c) and S.contains_image(*p), lambda p, m, c: in_stab(m)),
        ("stabilization-weak-right-cancellation", lambda p, m, c: in_stab(c) and in_stab(p), lambda p, m, c: in_stab(m)),
        ("stabilization-left-cancellation", lambda p, m, c: in_stab(c), lambda p, m, c: in_stab(p)),
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
    reports += [_report(LawReport, law_id, result) for (law_id, _, _), result
                in zip(comp_laws, _composite_scan(
                    monos, [law[1:] for law in comp_laws]))]

    # -- split mono corollaries ------------------------------------------
    def split_monos(member):
        for (X, Y), ms in monos.items():
            retractions = hom_tables(Y, X)
            for m in ms:
                if member(canonical_mono(m)) and any(
                        all(r[v] == x for x, v in enumerate(m.table))
                        for r in retractions):
                    yield None if m.is_bijective else _jsonable(split_mono=m)

    for law_id, member in (("essential-split-mono-is-iso", in_e), ("stable-essential-split-mono-is-iso", in_st),
                           ("subobject-essential-split-mono-is-iso", in_se)):
        reports.append(_report(LawReport, law_id,
                               _first_failure(split_monos(member))))

    # -- pullback stability ----------------------------------------------
    for law_id, member in (("stabilization-pullback-stable", in_stab), ("stable-essential-pullback-stable", in_st), ("subobject-essential-pullback-stable", in_se)):
        reports.append(_report(LawReport, law_id,
                               _pullback_stable_law(monos, universe, member)))

    # -- a second mono factor is a pullback of the composite --------------
    def inner_factors():
        for inner, outer in _composable(monos):
            for mp in inner:
                for m in outer:
                    pb = pullback(compose(m, mp), m)
                    yield (None if pb.apex.size == mp.dom.size
                           and pb.proj_right.image == mp.image
                           else _jsonable(inner=mp, outer=m))

    reports.append(_report(LawReport, "inner-factor-is-pullback-of-composite",
                           _first_failure(inner_factors())))
    return reports


class WeakLeftCancellationWitness(namedtuple(
        "WeakLeftCancellationWitness", "outer inner composite")):
    """A triple showing essential monos lack weak left cancellation:
    m and m.m' essential while m' is not.

    Fields, each a ``ConcreteMorphism``: ``outer`` (m : M -> A, essential),
    ``inner`` (m': M' -> M, not essential) and ``composite``.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"outer": self.outer.to_json(), "inner": self.inner.to_json(),
                "composite": self.composite.to_json()}


def find_weak_left_cancellation_witness(universe: list[FiniteObject]):
    """Search the universe for (m, m') with m and mm' essential but m' not."""
    for A in sorted(universe, key=lambda o: (o.size, o.id)):
        for sub in subalgebras(A):
            if _essential_refutation(A, frozenset(sub.elems)) is not None:
                continue
            M = sub.object()
            for inner_sub in subalgebras(M):
                if _essential_refutation(M, frozenset(inner_sub.elems)) is None:
                    continue
                image = frozenset(sub.elems[e] for e in inner_sub.elems)
                if _essential_refutation(A, image) is None:
                    m, mp = sub.inclusion(), inner_sub.inclusion()
                    return WeakLeftCancellationWitness(m, mp, compose(m, mp))
    return None


# ---------------------------------------------------------------------------
# Hypothesis harness for the designated class S
# ---------------------------------------------------------------------------

def s_class_report(S: MonoClassSpec, universe: list[FiniteObject]) -> list[LawReport]:
    """Bounded verification that S is pullback stable, contains isomorphisms,
    is closed under composition, and has strong left cancellation.

    S-membership is decided once per (codomain, image) key.  The pullback
    law decides each member key once, and the composition and cancellation
    laws decide each (image of the inner mono, outer mono) pair once per
    block of composable pairs (see :func:`_composite_scan`)."""
    monos = monos_between(universe)
    decided: dict[tuple, bool] = {}

    def in_s(key):
        hit = decided.get(key)
        if hit is None:
            hit = decided[key] = S.contains_image(*key)
        return hit

    isos = (None if in_s(canonical_mono(m)) else _jsonable(iso=m)
            for ms in monos.values() for m in ms if m.is_bijective)
    composition, cancellation = _composite_scan(monos, [
        (lambda p, m, c: in_s(p) and in_s(m), lambda p, m, c: in_s(c)),
        (lambda p, m, c: in_s(c), lambda p, m, c: in_s(p))])
    return [
        _report(LawReport, "S-isos", _first_failure(isos)),
        _report(LawReport, "S-pullback-stable",
                _pullback_stable_law(monos, universe, in_s)),
        _report(LawReport, "S-composition", composition),
        _report(LawReport, "S-strong-left-cancellation", cancellation),
    ]


# ---------------------------------------------------------------------------
# Computed mono families (the classes that get inverted)
# ---------------------------------------------------------------------------

SE_FAMILY = "subobject_essential"
ESSENTIAL_FAMILY = "essential"
ALL_FAMILY = "all_monos"
ISO_FAMILY = "isos"
STABILIZED_FAMILY = "stabilized"
EXPLICIT_FAMILY = "explicit"


class MonoFamily(namedtuple("MonoFamily", "kind S universe members",
                            defaults=(None, None, None))):
    """A concrete, testable class of monomorphisms (the class M to invert).

    Membership depends only on the codomain and image of a mono: that pair
    determines the mono up to canonical iso, and every kind is closed under
    isomorphic copies.  ``contains_image`` decides it from the pair, so an
    inclusion, composite or pullback need not be built to be asked about.

    Fields: ``kind: str``, ``S: MonoClassSpec | None``,
    ``universe: tuple[FiniteObject, ...] | None``,
    ``members: frozenset[tuple[FiniteObject, frozenset[int]]] | None``.
    No ``__slots__``: the cached property below needs an instance dict.
    """

    def contains_image(self, cod: FiniteObject, image: frozenset[int]) -> bool:
        """Does the mono into cod with this image belong to the family?"""
        if self.kind == ALL_FAMILY:
            return True
        if self.kind == ISO_FAMILY:
            return len(image) == cod.size
        if self.kind == SE_FAMILY:
            return _se_refutation(cod, image) is None
        if self.kind == ESSENTIAL_FAMILY:
            return _essential_refutation(cod, image) is None
        if self.kind == EXPLICIT_FAMILY:
            return (cod, image) in self.members
        if self.kind == STABILIZED_FAMILY:
            return _stabilized_member(self, cod, image)
        raise PreconditionViolation(f"unknown family kind {self.kind!r}")

    def contains(self, m: ConcreteMorphism) -> bool:
        return m.is_injective and self.contains_image(m.cod, m.image)

    @property
    def exact(self) -> bool:
        """Are membership answers theorems?  Only the stabilized kind
        answers by a bounded search."""
        return self.kind != STABILIZED_FAMILY

    def m_subobjects(self, A: FiniteObject) -> list[Subobject]:
        """Subobjects of A whose inclusion belongs to the family."""
        return [sub for sub in subalgebras(A)
                if self.contains_image(A, frozenset(sub.elems))]

    @cached_property
    def _stabilized_verdicts(self) -> dict:
        """This family's dict in ``_STABILIZED_CACHE``, looked up once: the
        (S, universe) key hashes the whole universe tuple."""
        return _STABILIZED_CACHE.setdefault((self.S, self.universe), {})


#: keyed on what the verdict depends on: the class S and the probe universe,
#: then the (codomain, image) pair
_STABILIZED_CACHE: dict[tuple, dict[tuple, bool]] = {}


def _stabilized_member(family: MonoFamily, cod: FiniteObject,
                       image: frozenset[int]) -> bool:
    verdicts = family._stabilized_verdicts
    hit = verdicts.get((cod, image))
    if hit is None:
        verdict = is_stable_essential(_inclusion(cod, image), family.S,
                                      list(family.universe or ()))
        hit = verdicts[cod, image] = verdict.value
    return hit


def stable_essential_family(backend: str, S: MonoClassSpec,
                            universe: list[FiniteObject]) -> MonoFamily:
    """The class of pullback stable S-essential monos, exact when the backend
    is normal and S is all monos, bounded-stabilized otherwise."""
    if backend in NORMAL_BACKENDS and S.kind == ALL_MONOS:
        return MonoFamily(kind=SE_FAMILY)
    return MonoFamily(kind=STABILIZED_FAMILY, S=S, universe=tuple(universe))
