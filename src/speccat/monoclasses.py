"""Designated classes of monomorphisms and their decision procedures.

The decidable heart of the package: essentiality (decided exactly through
regular quotients, i.e. congruences of the codomain), subobject-essentiality
(decided by subobject enumeration), pullback-stable essentiality (exact in
the group backends, bounded refutation elsewhere), stabilization of a class,
and an exhaustive closure/cancellation law harness.

One record type, :class:`MonoFamily`, holds every class of monos, the
designated class S and the class M that the localization inverts, in seven
kinds with one constant each.

Every law report counts the cases whose premise holds, up to and including
the first case whose conclusion fails, and that case is the witness: a
passing law counts all its cases, a failing one stops at its first failure.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache, cached_property
from itertools import compress, repeat

from .catcore import (
    NORMAL_BACKENDS,
    ConcreteMorphism,
    FiniteObject,
    Subobject,
    _jsonable,
    _Record,
    _Validated,
    compose,
    content_key,
    enumerate_monos,
    hom_tables,
    is_normal_subset,
    normal_subalgebras,
    subalgebras,
)
from .errors import BackendMismatch, PreconditionViolation
from .limits import (congruences, has_zero_kernel, preimage, pullback,
                     regular_quotients)

# ---------------------------------------------------------------------------
# Classes of monos: the kinds of MonoFamily
# ---------------------------------------------------------------------------

ALL_MONOS = "all"
NORMAL_MONOS = "normal"
EXPLICIT = "explicit"
ISO_FAMILY = "isos"
SE_FAMILY = "subobject_essential"
ESSENTIAL_FAMILY = "essential"
STABILIZED_FAMILY = "stabilized"
_KINDS = (ALL_MONOS, NORMAL_MONOS, EXPLICIT, ISO_FAMILY, SE_FAMILY,
          ESSENTIAL_FAMILY, STABILIZED_FAMILY)


def canonical_mono(m: ConcreteMorphism) -> tuple[FiniteObject, frozenset[int]]:
    """A mono up to canonical iso: its codomain together with its image."""
    return (m.cod, m.image)


def _inclusion(cod: FiniteObject, image) -> ConcreteMorphism:
    """The canonical mono with the given codomain and image."""
    return Subobject(cod, tuple(sorted(image))).inclusion()


class MonoFamily(_Validated, namedtuple(
        "MonoFamily", "kind members S universe", defaults=(None, None, None))):
    """A class of monomorphisms: the designated class S, or the class M of
    pullback stable S-essential monos that the localization inverts.

    Membership depends only on the codomain and image of a mono: that pair
    determines the mono up to canonical iso, and every kind is closed under
    isomorphic copies.  ``contains_image`` decides it from the pair, so an
    inclusion, composite or pullback need not be built to be asked about.

    Seven kinds: all, normal, explicit (a member set), isos,
    subobject-essential, essential, and stabilized (pullback stable
    S-essential over a probe universe, decided by a bounded search).

    Fields: ``kind: str``,
    ``members: frozenset[tuple[FiniteObject, frozenset[int]]] | None``
    (the explicit kind), ``S: MonoFamily | None`` and
    ``universe: tuple[FiniteObject, ...] | None`` (the stabilized kind).
    No ``__slots__``: the cached property below needs an instance dict.
    """

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise PreconditionViolation(f"unknown mono class kind {self.kind!r}")
        if self.kind == EXPLICIT and self.members is None:
            raise PreconditionViolation("explicit mono class needs members")
        if self.kind == STABILIZED_FAMILY and self.S is None:
            raise PreconditionViolation("stabilized mono class needs S")

    @staticmethod
    def explicit(morphisms) -> "MonoFamily":
        pairs = frozenset(canonical_mono(m) for m in morphisms if m.is_injective)
        return MonoFamily(EXPLICIT, pairs)

    def contains_image(self, cod: FiniteObject, image: frozenset[int]) -> bool:
        """Does the mono into cod with this image belong to the class?"""
        # the two hot kinds first: S on every CLI path, M in the group backends
        if self.kind == ALL_MONOS:
            return True
        if self.kind == SE_FAMILY:
            return _se_refutation(cod, image) is None
        if self.kind == ISO_FAMILY:
            return len(image) == cod.size
        if self.kind == ESSENTIAL_FAMILY:
            return _essential_refutation(cod, image) is None
        if self.kind == EXPLICIT:
            return (cod, image) in self.members
        return self._decided(cod, image)

    def contains(self, m: ConcreteMorphism) -> bool:
        return m.is_injective and self.contains_image(m.cod, m.image)

    def key(self, A: FiniteObject):
        """What every verdict of the class on a mono into A depends on, and
        so everything built from those verdicts, such as the minimal
        M-subobject of A: the content of A (backend, size, op table), or A
        itself when the class names objects, as an explicit class does and
        a stabilized class built over one."""
        family = self
        while family.kind == STABILIZED_FAMILY:
            family = family.S
        return A if family.kind == EXPLICIT else content_key(A)

    @property
    def exact(self) -> bool:
        """Are membership answers theorems?  Only the stabilized kind
        answers by a bounded search."""
        return self.kind != STABILIZED_FAMILY

    def m_subobjects(self, A: FiniteObject) -> list[Subobject]:
        """Subobjects of A whose inclusion belongs to the class."""
        return [sub for sub in subalgebras(A)
                if self.contains_image(A, frozenset(sub.elems))]

    @cached_property
    def _verdicts(self) -> dict[tuple, bool]:
        """The normal and the stabilized kind's verdicts, by (codomain,
        image), kept on this family alone: a stabilized verdict depends on
        its S and probe universe."""
        return {}

    def _decided(self, cod: FiniteObject, image: frozenset[int]) -> bool:
        """Membership of the normal or the stabilized kind, decided once
        per key.  M is inside S, so a key outside S is not pullback stable
        S-essential, and is not handed to the search, which refuses it."""
        hit = self._verdicts.get((cod, image))
        if hit is None:
            if self.kind == NORMAL_MONOS:
                hit = is_normal_subset(cod, image)
            else:
                hit = self.S.contains_image(cod, image) and is_stable_essential(
                    _inclusion(cod, image), self.S,
                    list(self.universe or ())).value
            self._verdicts[cod, image] = hit
        return hit


# ---------------------------------------------------------------------------
# Verdicts and caches
# ---------------------------------------------------------------------------

class Verdict(namedtuple("Verdict", "value exact witness",
                         defaults=(None,))):
    """Fields: ``value: bool``, ``exact: bool``, ``witness:
    ConcreteMorphism | RefutingPullback | None``."""

    __slots__ = ()

    def __bool__(self):
        return self.value

    def to_json(self) -> dict:
        w = self.witness
        return {"value": self.value,
                "mode": "exact" if self.exact else "bounded",
                "witness": None if w is None else w.to_json()}


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

def is_essential(m: ConcreteMorphism, S: MonoFamily,
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
    quotients = regular_quotients(A)

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


class RefutingPullback(_Record, namedtuple(
        "RefutingPullback", "along pulled")):
    """A pullback of a candidate mono whose projection fails to be essential.

    Fields: ``along: ConcreteMorphism``, ``pulled: ConcreteMorphism``.
    """

    __slots__ = ()


def _find_refuting_pullback(m: ConcreteMorphism, S: MonoFamily,
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


def is_stable_essential(m: ConcreteMorphism, S: MonoFamily,
                        universe: list[FiniteObject] | None = None) -> Verdict:
    """Is m a pullback stable S-essential monomorphism?

    Where :func:`stable_essential_family` is exact (the normal backends
    with S = all monos) this is decided exactly via subobject-essentiality;
    otherwise a bounded refutation search pulls m back along every morphism
    from the universe.  With no universe, the backend of cod(m) decides.
    """
    if not S.contains(m):
        raise PreconditionViolation(f"{m!r} is not in the designated class")
    if stable_essential_family(S, universe or [m.cod]).exact:
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


def classify(m: ConcreteMorphism, S: MonoFamily,
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

class LawReport(_Record, namedtuple(
        "LawReport", "law_id status checked witness", defaults=(None,))):
    """Fields: ``law_id: str``, ``status: str`` ("pass" | "fail"),
    ``checked: int``, ``witness: dict | None``."""

    __slots__ = ()


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


def _first_failure_by_key(items, key, decide) -> tuple[int, dict | None]:
    """(checked, witness) of a first-failure check whose cases come in one
    group per item, where whether a group passes, and its count when it
    does, depend only on ``key(item)``.  ``decide(item)`` returns the
    group's (checked, witness), as :func:`_first_failure` does for it.
    Each key is decided once: a key that passed adds its count again for
    each later item with that key, and a failing key fails at its first
    item, so the count and witness are those of one scan per item."""
    passed: dict = {}
    checked = 0
    for item in items:
        k = key(item)
        n = passed.get(k)
        if n is None:
            n, witness = decide(item)
            if witness is not None:
                return checked + n, witness
            passed[k] = n
        checked += n
    return checked, None


def _object_keys(universe: list[FiniteObject],
                 S: MonoFamily) -> dict[FiniteObject, int]:
    """A number for each universe object, equal for two objects exactly
    when their keys in S (:meth:`MonoFamily.key`) are equal: the verdicts
    of a law scan over S depend on an object only through that key."""
    ids: dict[object, int] = {}
    return {X: ids.setdefault(S.key(X), len(ids)) for X in universe}


def _pullback_stable_law(monos: dict[tuple, tuple], universe: list[FiniteObject],
                         member, key) -> tuple[int, dict | None]:
    """Pull every member mono back along every morphism into its codomain;
    return (checked, witness) for the first pullback that is not a member.

    ``member`` is asked about (codomain, image) keys, and its answer
    depends on an object only through ``key``.  So the pullbacks of a mono
    depend only on its member key (key of the codomain, image), and those
    along the maps out of a probe W only on that and key(W).  A member key
    is decided against every probe the first time it is met, each probe
    key once, and each later mono with that key adds its total.  Against
    one probe, ``member`` is asked once per distinct preimage; when one is
    not a member, the maps are scanned in order.  So the scan runs in the
    order of one scan per (mono, probe), and a failing law fails at its
    first failing pullback, with that pullback as its witness."""

    def pullbacks(m, W):
        Y, image = m.cod, m.image
        for t in hom_tables(W, Y):
            pre = preimage(t, image)
            yield None if member((W, pre)) else _jsonable(
                mono=m, along=ConcreteMorphism(W, Y, t),
                pulled=_inclusion(W, pre))

    def along(m, W):
        tables, image = hom_tables(W, m.cod), m.image
        # which values of each table lie in the image: one preimage is made
        # per distinct mask, into the set that one preimage per table would
        # make, so the members are asked in the same order
        masks = dict.fromkeys(map(tuple, map(map, repeat(image.__contains__),
                                             tables)))
        if all(member((W, pre)) for pre in {
                frozenset(compress(W.elements, mask)) for mask in masks}):
            return len(tables), None
        return _first_failure(pullbacks(m, W))

    def along_every_probe(m):
        return _first_failure_by_key(universe, key, lambda W: along(m, W))

    return _first_failure_by_key(
        (m for ms in monos.values() for m in ms if member(canonical_mono(m))),
        lambda m: (key(m.cod), m.image), along_every_probe)


def _composite_scan(monos: dict[tuple, tuple], laws,
                    key) -> list[tuple[int, dict | None]]:
    """(checked, witness) of each composition-shaped law over the composable
    pairs m': X -> Y, m: Y -> Z, in ``_composable`` order with m' outer.

    ``laws`` holds (premise, conclusion) pairs asked about the (codomain,
    image) keys of m', m and m.m', whose answers depend on an object only
    through ``key``.  The monos of the (inner, outer) block of X -> Y and
    Y -> Z monos depend only on the content of X, Y and Z, so whether a law
    passes on the block, and its count there, depend only on (key(X),
    key(Y), key(Z)): each such triple is decided once, and a later block
    with that triple adds its counts again.  In a block the keys depend on
    m' only through its image, so each (image of m', m) pair is decided
    once and counts the inner monos with that image.  A law fails at the
    first block in which it fails, rescanned pair by pair for that law, so
    its count and witness are those of its first failing pair."""
    results = [(0, None)] * len(laws)
    decided: dict[tuple, list[int | None]] = {}

    def pairs(inner, outer, premise, conclusion):
        for mp in inner:
            for m in outer:
                k = (canonical_mono(mp), canonical_mono(m),
                     (m.cod, frozenset(m.table[e] for e in mp.table)))
                if premise(*k):
                    yield None if conclusion(*k) else _jsonable(
                        inner=mp, outer=m, composite=compose(m, mp))

    def block_counts(inner, outer):
        """Each open law's count on the block; None for a law that fails
        on it or was already decided."""
        Y = inner[0].cod
        images = Counter(mp.image for mp in inner)
        outer_keys = [(m.table, canonical_mono(m)) for m in outer]
        block = [(n, ((Y, image), km,
                      (km[0], frozenset(t[e] for e in image))))
                 for image, n in images.items() for t, km in outer_keys]
        counts = []
        for (premise, conclusion), (_, witness) in zip(laws, results):
            n = None
            if witness is None:
                n = 0
                for multiplicity, k in block:
                    if premise(*k):
                        if not conclusion(*k):
                            n = None
                            break
                        n += multiplicity
            counts.append(n)
        return counts

    for inner, outer in _composable(monos):
        k = key(inner[0].dom), key(inner[0].cod), key(outer[0].cod)
        counts = decided.get(k)
        if counts is None:
            counts = decided[k] = block_counts(inner, outer)
        for i, n in enumerate(counts):
            checked, witness = results[i]
            if witness is None:
                # a law open now was open when its triple was decided, so
                # None here is a failure on this block
                if n is None:
                    n, witness = _first_failure(pairs(inner, outer, *laws[i]))
                results[i] = (checked + n, witness)
    return results


def closure_law_suite(universe: list[FiniteObject],
                      S: MonoFamily | None = None) -> list[LawReport]:
    """Exhaustively check the closure and cancellation laws of the essential,
    subobject-essential and pullback-stable essential classes over a finite
    universe of objects.  Every failed law carries a concrete witness.

    The ``stabilization-*`` laws test the class that :func:`stabilize` makes
    of the S-essential monos between universe objects, a cross-check of the
    ``stable-essential-*`` laws, which use :func:`is_stable_essential`.
    :func:`stabilize` counts an iso-shaped pullback as a member, so the two
    agree only for an S that holds every iso: an S without an iso between
    universe objects is refused, as :func:`build_spec` refuses it."""
    S = S or MonoFamily(ALL_MONOS)
    monos = monos_between(universe)
    isos = [m for ms in monos.values() for m in ms if m.is_bijective]
    missing = next((m for m in isos if not S.contains(m)), None)
    if missing is not None:
        raise PreconditionViolation(
            "designated class S violates its hypotheses: "
            f"S-isos ({_jsonable(iso=missing)})")
    # every law is decided per key of S, which is the content key or, for
    # an explicit S, finer
    key_of = _object_keys(universe, S).__getitem__
    # membership of a (codomain, image) key in the essential, the
    # subobject-essential and the pullback stable S-essential class; a key
    # outside S is not pullback stable S-essential
    in_e, in_se, in_st = (lambda key, F=F: F.contains_image(*key) for F in (
        MonoFamily(ESSENTIAL_FAMILY), MonoFamily(SE_FAMILY),
        stable_essential_family(S, universe)))
    stabilized = {canonical_mono(m) for m in stabilize(
        [m for ms in monos.values() for m in ms
         if S.contains(m) and is_essential(m, S, universe).value], universe)}
    in_stab = stabilized.__contains__
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
                    monos, [law[1:] for law in comp_laws], key_of))]

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
                               _pullback_stable_law(monos, universe, member,
                                                    key_of)))

    # -- a second mono factor is a pullback of the composite --------------
    # the pullback of m.m' along m is the pairs (x, y) with m(m'(x)) = m(y),
    # read off the tables; decided once per key triple of a block, which
    # fixes its monos
    def inner_factors(block):
        inner, outer = block
        fibres = []
        for m in outer:
            fibre: dict[int, list[int]] = {}
            for y, z in enumerate(m.table):
                fibre.setdefault(z, []).append(y)
            fibres.append(fibre)
        for mp in inner:
            for m, fibre in zip(outer, fibres):
                # the y of each pair, one x after another: m'(x) runs over
                # the table of m'
                ys = [y for v in mp.table for y in fibre[m.table[v]]]
                yield (None if len(ys) == mp.dom.size and set(ys) == mp.image
                       else _jsonable(inner=mp, outer=m))

    reports.append(_report(
        LawReport, "inner-factor-is-pullback-of-composite",
        _first_failure_by_key(
            _composable(monos),
            lambda block: (key_of(block[0][0].dom), key_of(block[0][0].cod),
                           key_of(block[1][0].cod)),
            lambda block: _first_failure(inner_factors(block)))))
    return reports


class WeakLeftCancellationWitness(_Record, namedtuple(
        "WeakLeftCancellationWitness", "outer inner composite")):
    """A triple showing essential monos lack weak left cancellation:
    m and m.m' essential while m' is not.

    Fields, each a ``ConcreteMorphism``: ``outer`` (m : M -> A, essential),
    ``inner`` (m': M' -> M, not essential) and ``composite``.
    """

    __slots__ = ()


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

def s_class_report(S: MonoFamily, universe: list[FiniteObject]) -> list[LawReport]:
    """Bounded verification that S is pullback stable, contains isomorphisms,
    is closed under composition, and has strong left cancellation.

    S answers membership itself, by :meth:`MonoFamily.contains_image`,
    which keeps a memo only for the kinds it pays for.  Every other
    decision is made once per content key (backend, size, op table) of the
    objects it involves, or per object for an explicit S, which names
    objects: the pullback law decides each member key (content of the
    codomain, image) once, against each content of a probe once (see
    :func:`_pullback_stable_law`), and the composition and cancellation
    laws decide each block of composable pairs once per content triple
    (see :func:`_composite_scan`).  Counts and witnesses are those of one
    scan per mono."""
    monos = monos_between(universe)
    key_of = _object_keys(universe, S).__getitem__

    def in_s(key):
        return S.contains_image(*key)

    isos = (None if in_s(canonical_mono(m)) else _jsonable(iso=m)
            for ms in monos.values() for m in ms if m.is_bijective)
    composition, cancellation = _composite_scan(monos, [
        (lambda p, m, c: in_s(p) and in_s(m), lambda p, m, c: in_s(c)),
        (lambda p, m, c: in_s(c), lambda p, m, c: in_s(p))], key_of)
    return [
        _report(LawReport, "S-isos", _first_failure(isos)),
        _report(LawReport, "S-pullback-stable",
                _pullback_stable_law(monos, universe, in_s, key_of)),
        _report(LawReport, "S-composition", composition),
        _report(LawReport, "S-strong-left-cancellation", cancellation),
    ]


# ---------------------------------------------------------------------------
# The class M of pullback stable S-essential monos (the class to invert)
# ---------------------------------------------------------------------------

def stable_essential_family(S: MonoFamily,
                            universe: list[FiniteObject]) -> MonoFamily:
    """The class of pullback stable S-essential monos over the universe:
    when S is all monos and every universe object lives in a normal
    backend, it is exactly the subobject-essential class (the paper's
    theorem for normal categories); otherwise it is bounded-stabilized."""
    if S.kind == ALL_MONOS and all(A.backend in NORMAL_BACKENDS
                                   for A in universe):
        return MonoFamily(kind=SE_FAMILY)
    return MonoFamily(kind=STABILIZED_FAMILY, S=S, universe=tuple(universe))
