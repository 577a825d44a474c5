"""The localized category obtained by inverting the pullback stable essential
monomorphisms, its canonical functor, limit-preservation checks, uniform
objects, and division-monoid reports.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import partial
from operator import itemgetter

from .catcore import (
    ConcreteMorphism,
    FiniteObject,
    Subobject,
    _jsonable,
    content_key,
    generating_sequence,
    hom_tables,
    subalgebras,
)
from .errors import ConsistencyError, PreconditionViolation
from .limits import PullbackResult, pullback
from .monoclasses import (
    MonoFamily,
    _first_failure,
    _first_failure_by_key,
    _report,
    s_class_report,
    stable_essential_family,
)
from .fractions import NormalizedSpan, poincare_hom


# ---------------------------------------------------------------------------
# Minimal M-subobject
# ---------------------------------------------------------------------------

def minimal_M_subobject(A: FiniteObject, M: MonoFamily) -> Subobject:
    """The intersection of all M-subobjects of A.

    Because M is closed under composition and pullback, the set of
    M-subobjects is intersection-closed, so this is itself an M-subobject —
    asserted, not assumed.  The hom sets of the localization out of A are in
    bijection with plain homs out of this minimum; ``build_spec`` checks
    that bijection by counting against the span quotient.
    """
    msubs = M.m_subobjects(A)
    if not msubs:
        raise PreconditionViolation(f"{A.id} receives no member of M")
    elems = set(A.elements)
    for sub in msubs:
        elems &= set(sub.elems)
    amin = Subobject(A, tuple(sorted(elems)))
    if not M.contains_image(A, frozenset(elems)):
        raise ConsistencyError(
            f"intersection of M-subobjects of {A.id} is not an M-subobject; "
            "the family is not intersection-closed as the theory requires")
    return amin


# ---------------------------------------------------------------------------
# Hom classes of the localization
# ---------------------------------------------------------------------------

class SpecClass(namedtuple("SpecClass", "src dst index sub label")):
    """One hom element of the localization: the class of all fractions that
    agree with ``label`` on the minimal M-subobject of the source.

    Fields: ``src: FiniteObject``, ``dst: FiniteObject``, ``index: int``,
    ``sub: Subobject`` (the minimal M-subobject of src), ``label:
    tuple[int, ...]`` (the map table of the class's morphism sub -> dst).
    The class is written as the fraction (inclusion of sub, label).
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.label)

    def to_json(self) -> dict:
        dom = self.sub.object().id
        return {"index": self.index,
                "rep_left": {"dom": dom, "cod": self.src.id,
                             "map": list(self.sub.elems)},
                "rep_right": {"dom": dom, "cod": self.dst.id,
                              "map": list(self.label)}}


def _no_class_at(A: FiniteObject, B: FiniteObject,
                 values: tuple[int, ...]) -> ConsistencyError:
    return ConsistencyError(
        f"no class of hom({A.id},{B.id}) takes the values {values} at the "
        f"generators of the minimal M-subobject of {A.id}")


# the minimal M-subobject of the objects of one key: its elements, the
# position of each among them, the positions of its generating sequence
# (position 0 when it is zero and the sequence empty), and its domain
# number, the number of its content
_Minimal = namedtuple("_Minimal", "elems positions gens dom")

# hom(A, B) for one (domain number of A, key number of B): the labels, the
# maps amin(A) -> B in hom order; their indices by their values at the
# generators of amin(A); their columns (column j holds every label's value
# at position j); and, per label, the positions in amin(B) of its values at
# those generators
_HomSet = namedtuple("_HomSet", "labels index columns readers")


class SpectralCategory:
    """The category of fractions of a backend at a family M of monos.

    Objects are the registered backend objects.  The classes of hom(A, B)
    are the morphisms amin(A) -> B, one :class:`SpecClass` per map table
    of :func:`hom_tables`, the one hom cache; composition is reduced to
    restriction lookups, made once per composition table.  A morphism is
    fixed by its values on a generating sequence of its domain, so a class
    out of A is looked up by its label's values at the generator positions
    of amin(A), not by the whole label.

    M is closed under isomorphic copies, so amin(A) depends on A only
    through its key in M (:meth:`MonoFamily.key`), numbered by
    :meth:`_key`, and is kept per key number.  A fraction out of A is fixed
    by its restriction to amin(A), so hom(A, B) depends on A only through
    the content of amin(A), numbered as A's domain number
    (:meth:`_minimal`), and on B through its key.  The spec keeps one
    :class:`_HomSet` per (domain number, key number) and one composition
    table per (domain number of A, key number of B, key number of C): on
    ``s4-subgroups`` 13 keys and 10 domain numbers give 130 hom records
    and 1,690 tables, of which 258 are distinct.  The only objects it
    keeps are its registered objects, each with its minimal M-subobject
    once asked for; a class is built when it is asked for.  ``exact`` is
    False when M itself is only a bounded-search approximation.
    """

    def __init__(self, M: MonoFamily, objects: list[FiniteObject]):
        self.M = M
        self.objects = tuple(objects)
        self.exact = M.exact
        # a key in M -> its number; a registered object -> its key number
        self._key_ids: dict[object, int] = {}
        self._keys: dict[FiniteObject, int] = {}
        # key number -> its minimal M-subobject; the content of a minimal
        # M-subobject -> its domain number
        self._amins: dict[int, _Minimal] = {}
        self._dom_ids: dict[tuple, int] = {}
        # registered object -> its minimal M-subobject, once asked for
        self._subs: dict[FiniteObject, Subobject] = {}
        # (domain number, key number) -> its hom set, and the composition
        # row: the table of (A, B, C) for each registered C, in order
        self._homs: dict[tuple[int, int], _HomSet] = {}
        self._rows: dict[tuple[int, int], list[list[list[int]]]] = {}
        # (domain number, key number, key number) -> composition table;
        # each distinct table is one list, kept under its rows
        self._tables: dict[tuple[int, int, int], list[list[int]]] = {}
        self._distinct: dict[tuple, list[list[int]]] = {}
        self._keys = {A: self._key(A) for A in self.objects}

    # -- hom sets ---------------------------------------------------------

    def _key(self, A: FiniteObject) -> int:
        """The number of ``M.key(A)``.  Registered objects are numbered at
        construction; any other object, such as a pullback apex, is
        numbered by its key each time it is asked about, with no entry of
        its own."""
        k = self._keys.get(A)
        if k is None:
            k = self._key_ids.setdefault(self.M.key(A), len(self._key_ids))
        return k

    def _minimal(self, A: FiniteObject, k: int) -> _Minimal:
        """The minimal M-subobject of A, whose key number is k, found once
        per key, and numbered by its content."""
        found = self._amins.get(k)
        if found is None:
            sub = minimal_M_subobject(A, self.M)
            amin = sub.object()
            found = self._amins[k] = _Minimal(
                sub.elems, {e: i for i, e in enumerate(sub.elems)},
                generating_sequence(amin) or (0,),
                self._dom_ids.setdefault(content_key(amin),
                                         len(self._dom_ids)))
        return found

    def _dom(self, A: FiniteObject) -> int:
        """The domain number of A: the number of the content of amin(A),
        which is all that hom sets and tables out of A depend on."""
        return self._minimal(A, self._key(A)).dom

    def amin(self, A: FiniteObject) -> Subobject:
        """The minimal M-subobject of A, found once per key of A and kept
        once per registered object."""
        sub = self._subs.get(A)
        if sub is None:
            sub = Subobject(A, self._minimal(A, self._key(A)).elems)
            if A in self._keys:
                self._subs[A] = sub
        return sub

    def _readers(self, A: FiniteObject, B: FiniteObject, kb: int
                 ) -> tuple[tuple, list[tuple[int, ...]]]:
        """The labels of hom(A, B), whose key number of B is kb, and their
        readers, made in one walk of the map tables.

        A class c2 out of B composes with the class of a label to the class
        whose values at the generators of amin(A) are c2's label read at
        that label's reader.  Closure of M under composition and pullback
        forces every value of a label, not only those at the generators, to
        lie in amin(B): checked here."""
        gens = self._minimal(A, self._key(A)).gens
        bpos = self._minimal(B, kb).positions
        labels = hom_tables(self.amin(A).object(), B)
        readers = []
        for label in labels:
            positions = list(map(bpos.get, label))
            if None in positions:
                raise ConsistencyError(
                    f"class label value {label[positions.index(None)]} "
                    f"of hom({A.id},{B.id}) leaves the minimal "
                    f"M-subobject of {B.id}")
            readers.append(tuple(map(positions.__getitem__, gens)))
        return labels, readers

    def _hom(self, A: FiniteObject, B: FiniteObject, da: int, kb: int
             ) -> _HomSet:
        """hom(A, B), whose domain number of A is da and key number of B
        is kb, kept per pair (da, kb)."""
        hit = self._homs.get((da, kb))
        if hit is None:
            labels, readers = self._readers(A, B, kb)
            gens = self._minimal(A, self._key(A)).gens
            columns = list(zip(*labels))
            hit = self._homs[da, kb] = _HomSet(labels, dict(zip(
                zip(*map(columns.__getitem__, gens)),
                range(len(labels)))), columns, readers)
        return hit

    def hom_labels(self, A: FiniteObject, B: FiniteObject
                   ) -> tuple[tuple[int, ...], ...]:
        """The labels of the classes of hom(A, B), in hom order: the map
        tables amin(A) -> B.  Pairs with one (domain number, key number)
        share one tuple."""
        return self._hom(A, B, self._dom(A), self._key(B)).labels

    def hom(self, A: FiniteObject, B: FiniteObject) -> tuple[SpecClass, ...]:
        amin = self.amin(A)
        return tuple(SpecClass(A, B, i, amin, label)
                     for i, label in enumerate(self.hom_labels(A, B)))

    def class_of_label(self, A: FiniteObject, B: FiniteObject,
                       label: tuple[int, ...]) -> SpecClass:
        """The class with this label, looked up by its values at the
        generators and then compared in full."""
        amin = self._minimal(A, self._key(A))
        homs = self._hom(A, B, amin.dom, self._key(B))
        label = tuple(label)
        if len(label) == len(amin.elems):
            idx = homs.index.get(tuple(map(label.__getitem__, amin.gens)))
            if idx is not None and homs.labels[idx] == label:
                return SpecClass(A, B, idx, self.amin(A), homs.labels[idx])
        raise ConsistencyError(
            f"no class of hom({A.id},{B.id}) carries label {label}")

    def class_of_span(self, span: NormalizedSpan) -> SpecClass:
        """Identify the class of any fraction by restricting it to the
        minimal M-subobject of its source (contained in every M-subobject)."""
        A = span.src
        amin = self.amin(A)
        if not set(amin.elems) <= set(span.sub.elems):
            raise ConsistencyError(
                f"fraction domain {span.sub.elems} misses the minimal "
                f"M-subobject {amin.elems} of {A.id}")
        pos = {e: i for i, e in enumerate(span.sub.elems)}
        label = tuple(span.right.table[pos[e]] for e in amin.elems)
        return self.class_of_label(A, span.dst, label)

    # -- structure --------------------------------------------------------

    def identity_class(self, A: FiniteObject) -> SpecClass:
        return self.class_of_label(A, A, self.amin(A).elems)

    def zero_class(self, A: FiniteObject, B: FiniteObject) -> SpecClass:
        return self.class_of_label(A, B, (0,) * self.amin(A).size)

    def compose(self, c2: SpecClass, c1: SpecClass) -> SpecClass:
        """Composite of c1: A -> B and c2: B -> C, read off the composition
        table of (A, B, C)."""
        if c1.dst != c2.src:
            raise PreconditionViolation("classes are not composable")
        A, B, C = c1.src, c1.dst, c2.dst
        da, kc = self._dom(A), self._key(C)
        idx = self._table(A, B, C, da, self._key(B), kc)[c1.index][c2.index]
        return SpecClass(A, C, idx, c1.sub,
                         self._hom(A, C, da, kc).labels[idx])

    def is_invertible(self, c: SpecClass) -> bool:
        A, B = c.src, c.dst
        ka, kb = self._key(A), self._key(B)
        ida, idb = self.identity_class(A).index, self.identity_class(B).index
        # d.c for each class d of hom(B, A), and the table holding c.d
        after = self._table(A, B, A, self._dom(A), kb, ka)[c.index]
        before = self._table(B, A, B, self._dom(B), ka, kb)
        return any(after[d] == ida and before[d][c.index] == idb
                   for d in range(len(after)))

    def composition_table(self, A: FiniteObject, B: FiniteObject,
                          C: FiniteObject) -> list[list[int]]:
        """The composition table of (A, B, C), as :meth:`compose` reads it:
        row i, column j holds the index in hom(A, C) of class j of
        hom(B, C) after class i of hom(A, B).  Triples whose tables are
        equal share one list, which the caller must not change."""
        return self._table(A, B, C, self._dom(A), self._key(B),
                           self._key(C))

    def composition_row(self, A: FiniteObject, B: FiniteObject
                        ) -> list[list[list[int]]]:
        """The composition tables of (A, B, C) for every registered C, in
        the order of ``objects``.  Pairs with one (domain number of A, key
        number of B) share one list, which the caller must not change."""
        da, kb = self._dom(A), self._key(B)
        row = self._rows.get((da, kb))
        if row is None:
            row = self._rows[da, kb] = [
                self._table(A, B, C, da, kb, self._keys[C])
                for C in self.objects]
        return row

    def _table(self, A: FiniteObject, B: FiniteObject, C: FiniteObject,
               da: int, kb: int, kc: int) -> list[list[int]]:
        """The composition table of (A, B, C), whose domain number of A is
        da and key numbers of B and C are kb and kc: row i, column j holds
        the index in hom(A, C) of class j of hom(B, C) after class i of
        hom(A, B).

        Every label of hom(A, B) maps amin(A) into amin(B), as
        :meth:`_readers` checks, so a composite is a double restriction
        lookup, made at the generators of amin(A) only: row i zips the
        columns of the labels of hom(B, C) at the reader of class i.  The
        table depends on A only through amin(A) and on B and C only
        through their keys, so it is computed once per (da, kb, kc), and
        triples whose tables are equal share one list.  The checks made
        here read only what those numbers fix, so they also hold for every
        triple that shares the table."""
        table = self._tables.get((da, kb, kc))
        if table is None:
            index = self._hom(A, C, da, kc).index
            columns = self._hom(B, C, self._minimal(B, kb).dom, kc).columns
            try:
                rows = tuple(
                    tuple(map(index.__getitem__,
                              zip(*map(columns.__getitem__, positions))))
                    for positions in self._hom(A, B, da, kb).readers)
            except KeyError as err:
                raise _no_class_at(A, C, err.args[0]) from None
            table = self._distinct.get(rows)
            if table is None:
                table = self._distinct[rows] = list(map(list, rows))
            self._tables[da, kb, kc] = table
        return table

    # -- export -----------------------------------------------------------

    def to_json(self) -> dict:
        """The objects, the classes of every hom set and the composition
        table of every triple (A, B, C), in the order of ``objects``.
        Entries whose triples have equal numbers share one table.  The
        ``spec`` command writes the text of this dict from the tables
        themselves, without building it."""
        objects = self.objects
        homs = [{"dom": A.id, "cod": B.id,
                 "classes": [c.to_json() for c in self.hom(A, B)]}
                for A in objects for B in objects]
        comp = [{"dom": A.id, "mid": B.id, "cod": C.id,
                 "table": self.composition_table(A, B, C)}
                for A in objects for B in objects for C in objects]
        return {"objects": [A.id for A in objects], "exact": self.exact,
                "homs": homs, "composition": comp}


def build_spec(S: MonoFamily,
               universe: list[FiniteObject]) -> SpectralCategory:
    """Assemble the localization at the pullback stable S-essential monos.
    The universe objects carry their backend, which decides whether that
    class is exact (:func:`stable_essential_family`).

    Refuses to build when S fails its required hypotheses on the universe
    (pullback stability, isomorphisms, composition, strong left cancellation),
    and counts every hom set of the spec, as ``to_json`` exports it, against
    the independent span-quotient construction.  The span quotient of
    hom(A, B) depends on A and B only through their keys in M
    (:meth:`MonoFamily.key`: the content, or the object itself over an
    explicit S), so it is built once per pair of key numbers,
    :meth:`SpectralCategory._key`, and compared with every hom set of the
    pair, pair by pair in universe order.  It stays keyed on the keys of
    both ends, not on the spec's domain numbers, so it checks, rather than
    assumes, that objects whose minimal M-subobjects share a content share
    their hom sets.
    """
    failures = [r for r in s_class_report(S, universe) if r.status != "pass"]
    if failures:
        raise PreconditionViolation(
            "designated class S violates its hypotheses: "
            + "; ".join(f"{r.law_id} ({r.witness})" for r in failures))
    M = stable_essential_family(S, universe)
    spec = SpectralCategory(M, universe)
    counted: dict[tuple, int] = {}
    for A in universe:
        for B in universe:
            # the spec first: an object with no M-member fails there;
            # hom(A, B) has one class per label
            key = spec._key(A), spec._key(B)
            direct = len(spec.hom_labels(A, B))
            n = counted.get(key)
            if n is None:
                n = counted[key] = len(poincare_hom(A, B, M))
            if n != direct:
                raise ConsistencyError(
                    f"hom({A.id},{B.id}): span quotient has {n} classes "
                    f"but hom from the minimal M-subobject has "
                    f"{direct} elements")
    return spec


def canonical_functor(f: ConcreteMorphism, spec: SpectralCategory) -> SpecClass:
    """The localization functor on morphisms: f goes to the class of the
    fraction with identity denominator, whose label is f restricted to the
    minimal M-subobject of its domain."""
    elems = spec._minimal(f.dom, spec._key(f.dom)).elems
    return spec.class_of_label(f.dom, f.cod,
                               tuple(map(f.table.__getitem__, elems)))


# ---------------------------------------------------------------------------
# Limit preservation
# ---------------------------------------------------------------------------

class ConePreservationReport(namedtuple(
        "ConePreservationReport", "cospan status cones_checked witness",
        defaults=(None,))):
    """Fields: ``cospan: tuple[str, str]``, ``status: str`` ("pass" |
    "fail"), ``cones_checked: int``, ``witness: dict | None``."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"cospan": list(self.cospan), "status": self.status,
                "cones_checked": self.cones_checked, "witness": self.witness,
                "mode": "bounded"}


def _mediator_counts(W: FiniteObject, L: FiniteObject, R: FiniteObject,
                     pl: tuple[int, ...], pr: tuple[int, ...],
                     left: dict[tuple, int], right: dict[tuple, int],
                     readers: list[tuple[int, ...]]) -> Counter:
    """For the tables pl, pr of the projections out of a pullback apex into
    L and R, restricted to amin(apex): how many classes h of hom(W, apex)
    give each (pl.h, pr.h).

    The classes of hom(W, apex) are the homs amin(W) -> apex, so they are
    read off the hom tables with no class or morphism built per h:
    ``readers`` holds, for each hom amin(W) -> apex, the positions in
    amin(apex) of its values at the generators of amin(W), from
    :meth:`SpectralCategory._hom`, and pl.h takes pl at those positions
    there, as in :meth:`SpectralCategory._table`.  ``left`` and ``right``
    index the classes of hom(W, L) and hom(W, R) by their values at those
    generators."""
    at_l, at_r = pl.__getitem__, pr.__getitem__
    counts: Counter = Counter()
    for positions in readers:
        values_l = tuple(map(at_l, positions))
        values_r = tuple(map(at_r, positions))
        p, q = left.get(values_l), right.get(values_r)
        if p is None:
            raise _no_class_at(W, L, values_l)
        if q is None:
            raise _no_class_at(W, R, values_r)
        counts[p, q] += 1
    return counts


def verify_limit_preservation(spec: SpectralCategory,
                              cospans: list[tuple[ConcreteMorphism,
                                                  ConcreteMorphism]]
                              ) -> list[ConePreservationReport]:
    """Check that the localization functor sends each backend pullback to a
    pullback in the localized category: for every object W of the registered
    universe and every commuting cone of classes over the image cospan, a
    mediating class through the image apex exists and is unique.

    A projection out of an apex is read by its label, its table on
    amin(apex), which is a morphism because the projection is one: no hom
    set out of an apex is asked for, and no morphism is built for the
    label.  The spec numbers an apex by its key in M, as it numbers a
    registered object, so amin(apex) is found once per key; an apex with
    the key of a registered object finds none anew.  The mediator readers
    of hom(amin(W), apex) are read from the spec's hom record when the
    apex has the key of a registered object; otherwise they are made once
    per (probe domain, apex key) and kept for this call alone, with no
    labels, index or columns.

    Every hom set, composite column and mediator count out of a probe W
    depends on W only through amin(W), so the probes are numbered once, by
    their domain numbers (:meth:`SpectralCategory._dom`): each cospan
    decides one probe per domain number and counts its cones again for
    every later probe with that number.  A mediator count depends on the
    probe's domain number, the keys of the apex and of the two legs'
    domains, and the two restricted projections.  When the apex has the
    key of a registered object it is counted once per such case over all
    the cospans, so the kept counts are bounded by the hom sets between
    registered keys; an apex of any other content is counted per decision,
    since its counts, which can be as many as its hom sets are large,
    would be kept for the whole call.

    A probe passes without a visit to its cones when the mediator count
    has exactly one entry per commuting cone: every entry commutes, counts
    1, and there are as many entries as commuting cones.  Otherwise its
    cones are scanned in the order (p, q), so a failing cospan fails at its
    first failing cone, in probe order, which is its witness.  Within one
    call the composite columns are kept by integer keys, built once each."""
    reports = []
    probes = [(W, spec._dom(W)) for W in spec.objects]
    registered = set(spec._keys.values())
    # (probe domain, class key) -> the composite column of the class and
    # the count of each value in it
    columns: dict[tuple, tuple[list[int], Counter]] = {}
    # (probe domain, apex key) -> the readers of hom(W, apex), for an apex
    # key that no registered object has
    apex_readers: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    # (probe domain, apex key, left key, right key, pl, pr) -> the
    # mediator count, for an apex key that a registered object has
    kept_counts: dict[tuple, Counter] = {}

    def column(c: SpecClass, kc: tuple, W: FiniteObject, dw: int):
        """Indices of c.p for the classes p of hom(W, c.src), in order: the
        column of c in the composition table of (W, c.src, c.dst); kc is
        (key of c.src, key of c.dst, c.index)."""
        hit = columns.get((dw, kc))
        if hit is None:
            col = [row[c.index]
                   for row in spec._table(W, c.src, c.dst, dw, *kc[:2])]
            hit = columns[dw, kc] = col, Counter(col)
        return hit

    def readers(W: FiniteObject, dw: int, apex: FiniteObject, ka: int):
        """The mediator readers of hom(W, apex), from the spec's record or
        from this call's."""
        if ka in registered:
            return spec._hom(W, apex, dw, ka).readers
        hit = apex_readers.get((dw, ka))
        if hit is None:
            hit = apex_readers[dw, ka] = spec._readers(W, apex, ka)[1]
        return hit

    def cones(pf, pg, pf_p, pg_q, mediators, W):
        """One item per commuting cone (p, q) out of W over the image
        cospan: None when it has exactly one mediator, the witness when it
        does not."""
        # the q with each composite, in hom order: the commuting pairs
        qs_at: dict[int, list[SpecClass]] = {}
        for q in spec.hom(W, pg.src):
            qs_at.setdefault(pg_q[q.index], []).append(q)
        for p in spec.hom(W, pf.src):
            for q in qs_at.get(pf_p[p.index], ()):
                n = mediators[p.index, q.index]
                yield None if n == 1 else _jsonable(
                    probe=W.id, p=p, q=q, mediators=n)

    def decide(pf, kf, pg, kg, apex, ka, pl, pr, probe):
        """(checked, witness) of the cones out of W over the image cospan."""
        W, dw = probe
        pf_p, f_values = column(pf, kf, W, dw)
        pg_q, g_values = column(pg, kg, W, dw)
        # the projections go to the domains of the legs
        case = dw, ka, kf[0], kg[0], pl, pr
        mediators = kept_counts.get(case)
        if mediators is None:
            mediators = _mediator_counts(
                W, pf.src, pg.src, pl, pr,
                spec._hom(W, pf.src, dw, kf[0]).index,
                spec._hom(W, pg.src, dw, kg[0]).index,
                readers(W, dw, apex, ka))
            if ka in registered:
                kept_counts[case] = mediators
        commuting = sum(n * g_values[v] for v, n in f_values.items())
        if (len(mediators) == commuting
                and all(n == 1 for n in mediators.values())
                and all(pf_p[p] == pg_q[q] for p, q in mediators)):
            return commuting, None
        return _first_failure(cones(pf, pg, pf_p, pg_q, mediators, W))

    for f, g in cospans:
        pb: PullbackResult = pullback(f, g)
        pf, pg = canonical_functor(f, spec), canonical_functor(g, spec)
        ka = spec._key(pb.apex)
        elems = spec._minimal(pb.apex, ka).elems
        pl, pr = (tuple(map(proj.table.__getitem__, elems))
                  for proj in (pb.proj_left, pb.proj_right))
        kf = spec._key(f.dom), spec._key(f.cod), pf.index
        kg = spec._key(g.dom), spec._key(g.cod), pg.index
        result = _first_failure_by_key(
            probes, itemgetter(1),
            partial(decide, pf, kf, pg, kg, pb.apex, ka, pl, pr))
        reports.append(_report(
            ConePreservationReport,
            (f"{f.dom.id}->{f.cod.id}", f"{g.dom.id}->{g.cod.id}"), result))
    return reports


# ---------------------------------------------------------------------------
# Uniform objects and division monoids
# ---------------------------------------------------------------------------

class UniformReport(namedtuple("UniformReport", "object_id uniform witness",
                               defaults=(None,))):
    """Fields: ``object_id: str``, ``uniform: bool``,
    ``witness: dict | None``."""

    __slots__ = ()

    def __bool__(self):
        return self.uniform

    def to_json(self) -> dict:
        return {"object": self.object_id, "uniform": self.uniform,
                "witness": self.witness}


def is_uniform(A: FiniteObject, M: MonoFamily) -> UniformReport:
    """A is uniform when it is nonzero and every nonzero subobject inclusion
    belongs to M.

    In these concrete backends every incoming morphism with zero kernel
    factors as an iso onto a subobject, so subobject inclusions exhaust the
    quantifier.  As in module theory, the zero object does not count as
    uniform (its endomorphism monoid in the localization is trivial, hence
    not a division monoid).
    """
    if A.size == 1:
        return UniformReport(A.id, False, {"reason": "zero object"})
    for sub in subalgebras(A):
        if sub.size == 1:
            continue
        if not M.contains_image(A, frozenset(sub.elems)):
            return UniformReport(A.id, False,
                                 {"subobject": sub.inclusion().to_json()})
    return UniformReport(A.id, True)


class DivisionMonoidReport(namedtuple(
        "DivisionMonoidReport", "object_id size zero_index invertible verdict")):
    """Fields: ``object_id: str``, ``size: int``, ``zero_index: int``,
    ``invertible: tuple[int, ...]``, ``verdict: bool``."""

    __slots__ = ()

    def __bool__(self):
        return self.verdict

    def to_json(self) -> dict:
        return {"object": self.object_id, "size": self.size,
                "zero_index": self.zero_index,
                "invertible": list(self.invertible), "verdict": self.verdict}


def end_spec_division_check(A: FiniteObject,
                            spec: SpectralCategory) -> DivisionMonoidReport:
    """Is the endomorphism monoid of A in the localization a division monoid
    (nontrivial, with invertibles exactly the nonzero elements)?"""
    endos = spec.hom(A, A)
    zero = spec.zero_class(A, A)
    invertible = tuple(c.index for c in endos if spec.is_invertible(c))
    nonzero = tuple(c.index for c in endos if c != zero)
    verdict = len(endos) >= 2 and invertible == nonzero
    return DivisionMonoidReport(A.id, len(endos), zero.index,
                                invertible, verdict)
