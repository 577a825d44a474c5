"""Spans, fraction equality, focal conditions, and the connected-component
construction of localized hom sets.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, partial

from .catcore import (
    ConcreteMorphism,
    FiniteObject,
    Subobject,
    _Validated,
    compose,
    enumerate_hom,
    image_subobject,
    inverse,
    subalgebras,
)
from .errors import (CompositionMismatch, ConsistencyError,
                     PreconditionViolation)
from .limits import preimage
from .monoclasses import (MonoFamily, _first_failure, _first_failure_by_key,
                          _jsonable, _report, canonical_mono)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Span(_Validated, namedtuple("Span", "left right")):
    """A pair (f, x) with common domain: x: X -> A backwards, f: X -> B forwards.

    Fields: ``left: ConcreteMorphism`` (x: X -> A),
    ``right: ConcreteMorphism`` (f: X -> B).
    """

    __slots__ = ()

    def __post_init__(self):
        if self.left.dom != self.right.dom:
            raise CompositionMismatch("span legs must share their domain")

    @property
    def src(self) -> FiniteObject:
        return self.left.cod

    @property
    def dst(self) -> FiniteObject:
        return self.right.cod

    @property
    def apex(self) -> FiniteObject:
        return self.left.dom

    def to_json(self) -> dict:
        return {"left": self.left.to_json(), "right": self.right.to_json()}


class NormalizedSpan(_Validated, namedtuple("NormalizedSpan", "sub right")):
    """A span whose left leg is a canonical subobject inclusion.

    Fields: ``sub: Subobject`` (a subobject of the source A),
    ``right: ConcreteMorphism`` (f: sub.object() -> B).
    """

    __slots__ = ()

    def __post_init__(self):
        if self.right.dom != self.sub.object():
            raise CompositionMismatch("right leg must start at the subobject")

    @property
    def src(self) -> FiniteObject:
        return self.sub.ambient

    @property
    def dst(self) -> FiniteObject:
        return self.right.cod

    def span(self) -> Span:
        return Span(self.sub.inclusion(), self.right)

    def sort_key(self):
        return (-self.sub.size, self.sub.elems, self.right.table)

    def to_json(self) -> dict:
        return {"rep_left": self.sub.inclusion().to_json(),
                "rep_right": self.right.to_json()}


def normalize(span: Span) -> NormalizedSpan:
    """Replace a mono left leg by the inclusion of its image (iso conjugation)."""
    if not span.left.is_injective:
        raise PreconditionViolation("only spans with mono left legs normalize")
    sub = image_subobject(span.left)
    pos = {e: i for i, e in enumerate(sub.elems)}
    # iso: sub.object() -> apex, inverse of the corestricted left leg
    iso = inverse(ConcreteMorphism(span.left.dom, sub.object(),
                                   tuple(pos[v] for v in span.left.table)))
    return NormalizedSpan(sub, compose(span.right, iso))


# ---------------------------------------------------------------------------
# Fraction equality (the diamond search)
# ---------------------------------------------------------------------------

class Diamond(namedtuple("Diamond", "u v through")):
    """A commuting diamond witnessing equality of two fractions.

    Fields, each a ``ConcreteMorphism``: ``u``, ``v`` and ``through`` (the
    composite x.u : Y -> A, a member of M).
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"u": self.u.to_json(), "v": self.v.to_json(),
                "through": self.through.to_json()}


def fraction_equal(s: Span | NormalizedSpan, t: Span | NormalizedSpan,
                   M: MonoFamily) -> tuple[bool, Diamond | None]:
    """Decide whether two spans present the same fraction.

    Searches for a diamond (u, v) with x.u = x'.v, f.u = f'.v and x.u in M.
    Any such diamond factors through the equalizer of the two composites out
    of the pullback of the left legs, so the search runs over subobjects of
    that equalizer, largest first.

    Both left legs are subobject inclusions into A, so their pullback is the
    intersection of the two element sets, and the equalizer is the part of
    it on which the right legs agree.  The search therefore runs over the
    subobjects of A inside that set; a hit Y gives u and v as the position
    maps of Y in the two subobjects and x.u as the inclusion of Y.  The
    pullback apex pairs are sorted by the left element, so apex order is the
    order of A and the subobjects of the equalizer correspond to these
    subobjects of A in the same (size, elements) order: the first hit is the
    one found by searching the equalizer object.
    """
    ns = s if isinstance(s, NormalizedSpan) else normalize(s)
    nt = t if isinstance(t, NormalizedSpan) else normalize(t)
    if ns.src != nt.src or ns.dst != nt.dst:
        raise CompositionMismatch("fractions must share both endpoints")
    A = ns.src
    if not (M.contains_image(A, frozenset(ns.sub.elems))
            and M.contains_image(A, frozenset(nt.sub.elems))):
        raise PreconditionViolation("both left legs must belong to M")
    pos_s = {e: i for i, e in enumerate(ns.sub.elems)}
    pos_t = {e: i for i, e in enumerate(nt.sub.elems)}
    f, fp = ns.right.table, nt.right.table
    # both right legs preserve the basepoint, so 0 is always in here
    eq_elems = {e for e, i in pos_s.items()
                if e in pos_t and f[i] == fp[pos_t[e]]}
    for ysub in sorted(subalgebras(A), key=lambda s_: -s_.size):
        if not eq_elems.issuperset(ysub.elems):
            continue
        # x.u is the inclusion of Y, so its membership is that of its image
        if M.contains_image(A, frozenset(ysub.elems)):
            Y = ysub.object()
            return True, Diamond(
                ConcreteMorphism(Y, ns.sub.object(),
                                 tuple(pos_s[e] for e in ysub.elems)),
                ConcreteMorphism(Y, nt.sub.object(),
                                 tuple(pos_t[e] for e in ysub.elems)),
                ConcreteMorphism(Y, A, ysub.elems))
    return False, None


# ---------------------------------------------------------------------------
# Focal conditions
# ---------------------------------------------------------------------------

class ConditionReport(namedtuple("ConditionReport",
                                 "condition status checked witness",
                                 defaults=(None,))):
    """Fields: ``condition: str`` (F0 | F1 | F2 | F3 | Ore-d),
    ``status: str`` ("pass" | "fail"), ``checked: int``,
    ``witness: dict | None``."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"condition": self.condition, "status": self.status,
                "checked": self.checked, "witness": self.witness}


def _family_monos(M: MonoFamily, X: FiniteObject, Y: FiniteObject):
    return [m for m in enumerate_hom(X, Y) if M.contains(m)]


def check_focal(M: MonoFamily, universe: list[FiniteObject]) -> list[ConditionReport]:
    """Exhaustively verify the focal conditions and the right-fraction
    (co)equalizing condition for M over a finite universe.  Each condition
    counts its cases up to and including the first failure, its witness.

    F2 is decided once per (codomain, image) key of a member s: a key that
    passed adds its count, the sum of |hom(W, A)| over the universe, again
    for every later member with that key."""
    # member lists and "some member reaches X", each built once per call
    members = cache(partial(_family_monos, M))

    @cache
    def reached(X):
        return any(members(W, X) for W in universe)

    # F0: every object receives some member of M
    f0 = (None if reached(X) else _jsonable(object=X.id) for X in universe)

    # F1: composable members extend to a member after precomposition
    def f1():
        for X in universe:
            for Y in universe:
                for s1 in members(X, Y):
                    for Z in universe:
                        for s0 in members(Y, Z):
                            comp = tuple(s0.table[e] for e in s1.table)
                            # f = id works whenever M is composition closed;
                            # comp.f is a mono exactly when f is one
                            found = M.contains_image(Z, frozenset(comp)) or any(
                                f.is_injective and M.contains_image(
                                    Z, frozenset(comp[e] for e in f.table))
                                for W in universe for f in enumerate_hom(W, X))
                            yield None if found else _jsonable(s1=s1, s0=s0)

    # F2: every cospan (f, s) with s in M completes to a square with s' in M.
    # If s and s.a have the same image (a an iso), a square for one is a
    # square for the other, so each (A, image of s) key is decided once.
    def squares(s):
        for W in universe:
            for f in enumerate_hom(W, s.cod):
                yield (None if _f2_square_exists(M, members, universe, s, f)
                       else _jsonable(s=s, f=f))

    f2 = _first_failure_by_key(
        (s for A in universe for sX in universe for s in members(sX, A)),
        canonical_mono, squares)

    reports = [_report(ConditionReport, "F0", _first_failure(f0)),
               _report(ConditionReport, "F1", _first_failure(f1())),
               _report(ConditionReport, "F2", f2)]

    # F3 / Ore: pairs coequalized by a member are equalized by a member.
    # All family members are monos, so a coequalizing member forces f = g.
    # Every pair (f, f) out of X counts as checked; the first one fails when
    # no member has codomain X.
    checked, witness = 0, None
    for X in universe:
        # f = g forced by left cancellation: an equalizing member is any
        # member with codomain X
        if not reached(X):
            checked += 1
            witness = _jsonable(parallel_pair=next(
                f for Y in universe for f in enumerate_hom(X, Y)))
            break
        checked += sum(len(enumerate_hom(X, Y)) for Y in universe)
    for cond in ("F3", "Ore-d"):
        reports.append(_report(ConditionReport, cond, (checked, witness)))
    return reports


def _f2_square_exists(M: MonoFamily, members, universe, s: ConcreteMorphism,
                      f: ConcreteMorphism) -> bool:
    W = f.dom
    # fast path: the pullback of s along f
    if M.contains_image(W, preimage(f.table, s.image)):
        return True
    # exhaustive fallback
    for V in universe:
        for sp in members(V, W):
            for fp in enumerate_hom(V, s.dom):
                if all(s.table[fp.table[e]] == f.table[sp.table[e]]
                       for e in V.elements):
                    return True
    return False


# ---------------------------------------------------------------------------
# Localized hom sets as connected components
# ---------------------------------------------------------------------------

class FractionClass(namedtuple("FractionClass",
                               "src dst index rep members")):
    """An equivalence class of spans (a single hom element of the localization).

    Fields: ``src: FiniteObject``, ``dst: FiniteObject``, ``index: int``,
    ``rep: NormalizedSpan``, ``members: tuple[NormalizedSpan, ...]``.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"index": self.index, **self.rep.to_json()}


def poincare_hom(A: FiniteObject, B: FiniteObject,
                 M: MonoFamily) -> list[FractionClass]:
    """Hom set of the localization, built as the union of hom(A', B) over
    M-subobjects A' of A, quotiented by fraction equality.

    Two normalized fractions (A', f) and (A'', g) are equal exactly when
    some M-subobject D inside A' and A'' has f|D = g|D: that D is the apex
    of the diamond ``fraction_equal`` searches for.  So each span gets one
    key (D, f|D) per M-subobject D of A inside its own A', and spans that
    share a key are joined.  This is the diamond relation itself, so its
    union-find closure is the quotient an all-pairs diamond search gives.
    Each join that merges two classes is certified by ``fraction_equal`` on
    the two spans; a refusal raises ``ConsistencyError``.
    """
    msubs = sorted(M.m_subobjects(A), key=lambda s_: (-s_.size, s_.elems))
    if not msubs:
        raise PreconditionViolation(
            f"{A.id} receives no member of M (condition F0 fails)")
    spans: list[NormalizedSpan] = []
    first_with_key: dict[tuple, int] = {}
    parent: list[int] = []

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for sub in msubs:
        inside = set(sub.elems)
        pos = {e: i for i, e in enumerate(sub.elems)}
        # each M-subobject D inside A', with the positions of D in A'
        restrictions = [(D.elems, tuple(pos[e] for e in D.elems))
                        for D in msubs if inside.issuperset(D.elems)]
        for f in enumerate_hom(sub.object(), B):
            j = len(spans)
            spans.append(NormalizedSpan(sub, f))
            parent.append(j)
            for d_elems, d_pos in restrictions:
                i = first_with_key.setdefault(
                    (d_elems, tuple(f.table[p] for p in d_pos)), j)
                ri, rj = find(i), find(j)
                if ri == rj:
                    continue
                if not fraction_equal(spans[i], spans[j], M)[0]:
                    raise ConsistencyError(
                        f"spans {i} and {j} of hom({A.id}, {B.id}) agree on "
                        f"the M-subobject {d_elems} but fraction_equal "
                        f"finds no diamond")
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[NormalizedSpan]] = {}
    for i, sp in enumerate(spans):
        groups.setdefault(find(i), []).append(sp)
    classes = []
    reps = sorted(groups.values(),
                  key=lambda g: min(sp.sort_key() for sp in g))
    for idx, group in enumerate(reps):
        group_sorted = tuple(sorted(group, key=lambda sp: sp.sort_key()))
        classes.append(FractionClass(src=A, dst=B, index=idx,
                                     rep=group_sorted[0], members=group_sorted))
    return classes
