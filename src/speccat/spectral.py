"""The localized category obtained by inverting the pullback stable essential
monomorphisms, its canonical functor, limit-preservation checks, uniform
objects, and division-monoid reports.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from operator import itemgetter

from .catcore import (
    ConcreteMorphism,
    FiniteObject,
    Subobject,
    content_key,
    enumerate_hom,
    hom_tables,
    subalgebras,
)
from .errors import ConsistencyError, PreconditionViolation
from .limits import PullbackResult, pullback
from .monoclasses import (
    MonoClassSpec,
    MonoFamily,
    _first_failure,
    _jsonable,
    _report,
    s_class_report,
    stable_essential_family,
)
from .fractions import NormalizedSpan, poincare_hom


# ---------------------------------------------------------------------------
# Minimal M-subobject
# ---------------------------------------------------------------------------

def minimal_M_subobject(A: FiniteObject, M: MonoFamily,
                        cross_check_targets: list[FiniteObject] | None = None
                        ) -> Subobject:
    """The intersection of all M-subobjects of A.

    Because M is closed under composition and pullback, the set of
    M-subobjects is intersection-closed, so this is itself an M-subobject —
    asserted, not assumed.  The hom sets of the localization out of A are in
    bijection with plain homs out of this minimum; when cross-check targets
    are supplied, that bijection is verified by counting against the span
    quotient.
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
    for B in cross_check_targets or []:
        quotient = poincare_hom(A, B, M)
        direct = enumerate_hom(amin.object(), B)
        if len(quotient) != len(direct):
            raise ConsistencyError(
                f"hom({A.id},{B.id}): span quotient has {len(quotient)} "
                f"classes but hom from the minimal M-subobject has "
                f"{len(direct)} elements")
    return amin


# ---------------------------------------------------------------------------
# Hom classes of the localization
# ---------------------------------------------------------------------------

class SpecClass(namedtuple("SpecClass", "src dst index rep label")):
    """One hom element of the localization: the class of all fractions that
    agree with ``label`` on the minimal M-subobject of the source.

    Fields: ``src: FiniteObject``, ``dst: FiniteObject``, ``index: int``,
    ``rep: NormalizedSpan``, ``label: tuple[int, ...]`` (rep restricted to
    the minimal M-subobject).
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.label)

    def to_json(self) -> dict:
        return {"index": self.index, **self.rep.to_json()}


def _no_class(A: FiniteObject, B: FiniteObject,
              label: tuple[int, ...]) -> ConsistencyError:
    return ConsistencyError(
        f"no class of hom({A.id},{B.id}) carries label {label}")


def _reader(positions: list[int]):
    """The function reading a label at the given positions, as a tuple."""
    if len(positions) == 1:
        i, = positions
        return lambda label: (label[i],)
    return itemgetter(*positions)


class SpectralCategory:
    """The category of fractions of a backend at a family M of monos.

    Objects are the registered backend objects; hom sets are materialized as
    :class:`SpecClass` lists via the minimal-M-subobject presentation, with
    composition reduced to restriction lookups.  Each hom set is built once
    and kept: the limit check reads a projection out of a pullback apex by
    its label and never asks for a hom set out of an apex.  ``exact`` is
    False when M itself is only a bounded-search approximation.
    """

    def __init__(self, backend: str, M: MonoFamily,
                 objects: list[FiniteObject]):
        self.backend = backend
        self.M = M
        self.objects = tuple(objects)
        self.exact = M.exact
        self._amin: dict[FiniteObject, Subobject] = {}
        self._apos: dict[FiniteObject, dict[int, int]] = {}
        # (A, B) -> (classes of hom(A, B), class index by label)
        self._homs: dict[tuple, tuple[tuple[SpecClass, ...],
                                      dict[tuple, int]]] = {}

    # -- hom sets ---------------------------------------------------------

    def amin(self, A: FiniteObject) -> Subobject:
        sub = self._amin.get(A)
        if sub is None:
            sub = minimal_M_subobject(A, self.M)
            self._amin[A] = sub
            self._apos[A] = {e: i for i, e in enumerate(sub.elems)}
        return sub

    def _forget(self, A: FiniteObject) -> None:
        """Drop the minimal M-subobject of an unregistered object A."""
        self._amin.pop(A, None)
        self._apos.pop(A, None)

    def _restriction(self, A: FiniteObject, B: FiniteObject,
                     label: tuple[int, ...]) -> list[int]:
        """Positions in the minimal M-subobject of B of a label of
        hom(A, B): a class c2 out of B composes with the class of that label
        to the label read off c2's label at these positions."""
        self.amin(B)
        bpos = self._apos[B]
        for v in label:
            if v not in bpos:
                raise ConsistencyError(
                    f"class label value {v} of hom({A.id},{B.id}) "
                    f"leaves the minimal M-subobject of {B.id}")
        return [bpos[v] for v in label]

    def _hom(self, A: FiniteObject, B: FiniteObject
             ) -> tuple[tuple[SpecClass, ...], dict[tuple, int]]:
        """The classes of hom(A, B) and their indices by label."""
        key = (A, B)
        hit = self._homs.get(key)
        if hit is None:
            amin = self.amin(A)
            classes = tuple(
                SpecClass(src=A, dst=B, index=i,
                          rep=NormalizedSpan(amin, f), label=f.table)
                for i, f in enumerate(enumerate_hom(amin.object(), B)))
            hit = self._homs[key] = classes, {c.label: c.index
                                              for c in classes}
        return hit

    def hom(self, A: FiniteObject, B: FiniteObject) -> tuple[SpecClass, ...]:
        return self._hom(A, B)[0]

    def class_of_label(self, A: FiniteObject, B: FiniteObject,
                       label: tuple[int, ...]) -> SpecClass:
        homs, index = self._hom(A, B)
        idx = index.get(label)
        if idx is None:
            raise _no_class(A, B, label)
        return homs[idx]

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
        """Composite of c1: A -> B and c2: B -> C.

        Closure of M under composition and pullback forces every fraction
        out of A to map the minimal M-subobject of A into the minimal
        M-subobject of B, so composition is a double restriction lookup.
        """
        if c1.dst != c2.src:
            raise PreconditionViolation("classes are not composable")
        read = _reader(self._restriction(c1.src, c1.dst, c1.label))
        return self.class_of_label(c1.src, c2.dst, read(c2.label))

    def is_invertible(self, c: SpecClass) -> bool:
        ida, idb = self.identity_class(c.src), self.identity_class(c.dst)
        return any(self.compose(d, c) == ida and self.compose(c, d) == idb
                   for d in self.hom(c.dst, c.src))

    # -- export -----------------------------------------------------------

    def to_json(self) -> dict:
        """The objects, the classes of every hom set and the composition
        table of every triple (A, B, C), in the order of ``objects``.

        A class out of X is a map out of amin(X), so a composition table
        depends on each end only through its content (backend, size, op
        table) and the elements of its minimal M-subobject.  Each table is
        computed once per triple of such keys, with the checks of
        :meth:`compose`, and triples with equal keys share one list.  The
        minimal M-subobject is part of the key so that the checks of one
        triple also hold for every triple that shares its table."""
        homs = []
        comp = []
        pairs = [(A, B) for A in self.objects for B in self.objects]
        for A, B in pairs:
            homs.append({"dom": A.id, "cod": B.id,
                         "classes": [c.to_json() for c in self.hom(A, B)]})
        key_ids: dict[tuple, int] = {}
        key_of = {A: key_ids.setdefault(
                      content_key(A) + (self.amin(A).elems,), len(key_ids))
                  for A in self.objects}
        tables: dict[tuple[int, int, int], list[list[int]]] = {}
        for A, B in pairs:
            readers = None
            for C in self.objects:
                key = key_of[A], key_of[B], key_of[C]
                table = tables.get(key)
                if table is None:
                    if readers is None:
                        readers = [_reader(self._restriction(A, B, c1.label))
                                   for c1 in self.hom(A, B)]
                    index = self._hom(A, C)[1]
                    labels = [c2.label for c2 in self.hom(B, C)]
                    try:
                        table = [[index[read(lab)] for lab in labels]
                                 for read in readers]
                    except KeyError as err:
                        raise _no_class(A, C, err.args[0]) from None
                    tables[key] = table
                comp.append({"dom": A.id, "mid": B.id, "cod": C.id,
                             "table": table})
        return {"objects": [A.id for A in self.objects],
                "exact": self.exact, "homs": homs, "composition": comp}


def build_spec(backend: str, S: MonoClassSpec,
               universe: list[FiniteObject], verify: bool = True
               ) -> SpectralCategory:
    """Assemble the localization at the pullback stable S-essential monos.

    Refuses to build when S fails its required hypotheses on the universe
    (pullback stability, isomorphisms, composition, strong left cancellation);
    with ``verify`` the minimal-subobject hom sets are counted against the
    independent span-quotient construction for every object pair.
    """
    failures = [r for r in s_class_report(S, universe) if r.status != "pass"]
    if failures:
        raise PreconditionViolation(
            "designated class S violates its hypotheses: "
            + "; ".join(f"{r.law_id} ({r.witness})" for r in failures))
    M = stable_essential_family(backend, S, universe)
    spec = SpectralCategory(backend, M, universe)
    if verify:
        for A in universe:
            minimal_M_subobject(A, M, cross_check_targets=list(universe))
    return spec


def canonical_functor(f: ConcreteMorphism, spec: SpectralCategory) -> SpecClass:
    """The localization functor on morphisms: f goes to the class of the
    fraction with identity denominator."""
    full = Subobject(f.dom, tuple(f.dom.elements))
    return spec.class_of_span(NormalizedSpan(full, f))


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


def _mediator_counts(spec: SpectralCategory, W: FiniteObject,
                     apex: FiniteObject, pl: ConcreteMorphism,
                     pr: ConcreteMorphism) -> Counter:
    """For the projections pl, pr out of a pullback apex, restricted to
    amin(apex): how many classes h of hom(W, apex) give each (pl.h, pr.h).

    The classes of hom(W, apex) are the homs amin(W) -> apex, so they are
    read off the content-keyed hom tables with no class or morphism built
    per h: the label of pl.h is pl's table at the positions in amin(apex)
    of h's values, as in :meth:`SpectralCategory.compose`."""
    left, right = spec._hom(W, pl.cod)[1], spec._hom(W, pr.cod)[1]
    counts: Counter = Counter()
    for h in hom_tables(spec.amin(W).object(), apex):
        read = _reader(spec._restriction(W, apex, h))
        label_l, label_r = read(pl.table), read(pr.table)
        p, q = left.get(label_l), right.get(label_r)
        if p is None:
            raise _no_class(W, pl.cod, label_l)
        if q is None:
            raise _no_class(W, pr.cod, label_r)
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
    amin(apex), checked once to be a morphism, so no hom set out of an apex
    is asked for.  Mediators are counted on the hom tables of amin(W) ->
    apex, which the content-keyed search shares with universe objects of
    the same op table.  The apex's minimal M-subobject is dropped when its
    cospan is done."""
    reports = []
    # classes of one hom set are equal exactly when their indices are
    after: dict[tuple, list[int]] = {}

    def composites(c: SpecClass, W: FiniteObject) -> list[int]:
        """Indices of c.p for the classes p of hom(W, c.src), in order;
        computed once per (class, probe), since cospans share legs."""
        key = (c.src, c.dst, c.index, W)
        idx = after.get(key)
        if idx is None:
            idx = after[key] = [spec.compose(c, p).index
                                for p in spec.hom(W, c.src)]
        return idx

    def cones(pf, pg, apex, pl, pr):
        """One item per commuting cone (p, q) over the image cospan: None
        when it has exactly one mediator, the witness when it does not."""
        for W in spec.objects:
            pf_p, pg_q = composites(pf, W), composites(pg, W)
            mediators = _mediator_counts(spec, W, apex, pl, pr)
            # the q with each composite, in hom order: the commuting pairs
            qs_at: dict[int, list[SpecClass]] = {}
            for q in spec.hom(W, pg.src):
                qs_at.setdefault(pg_q[q.index], []).append(q)
            for p in spec.hom(W, pf.src):
                for q in qs_at.get(pf_p[p.index], ()):
                    n = mediators[p.index, q.index]
                    yield None if n == 1 else _jsonable(
                        probe=W.id, p=p, q=q, mediators=n)

    for f, g in cospans:
        pb: PullbackResult = pullback(f, g)
        pf, pg = canonical_functor(f, spec), canonical_functor(g, spec)
        amin = spec.amin(pb.apex)
        pl, pr = (ConcreteMorphism(amin.object(), proj.cod,
                                   tuple(proj.table[e] for e in amin.elems))
                  for proj in (pb.proj_left, pb.proj_right))
        result = _first_failure(cones(pf, pg, pb.apex, pl, pr))
        spec._forget(pb.apex)
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
