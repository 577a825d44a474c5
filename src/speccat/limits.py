"""Finite limits and image machinery: pullbacks, kernels, congruences,
(regular epi, mono) factorizations, cokernels, and backend normality checks.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .catcore import (
    PSET,
    ConcreteMorphism,
    FiniteObject,
    Subobject,
    _short_hash,
    _Record,
    _Validated,
    enumerate_hom,
    image_subobject,
    normal_closure,
    normal_subalgebras,
    zero_object,
)
from .errors import (
    CompositionMismatch,
    CospanMismatch,
    InvalidObject,
)


# ---------------------------------------------------------------------------
# Pullbacks and products
# ---------------------------------------------------------------------------

class PullbackResult(namedtuple("PullbackResult",
                                "apex proj_left proj_right pairs")):
    """Fiber product of a cospan, with projections and a mediator procedure.

    Fields: ``apex: FiniteObject``, ``proj_left: ConcreteMorphism``,
    ``proj_right: ConcreteMorphism``, ``pairs: tuple[tuple[int, int], ...]``.
    """

    __slots__ = ()

    def mediator(self, p: ConcreteMorphism, q: ConcreteMorphism) -> ConcreteMorphism:
        """Unique factorization of a commuting cone (p, q) through the apex."""
        if p.dom != q.dom:
            raise CompositionMismatch("cone legs must share a domain")
        if p.cod != self.proj_left.cod or q.cod != self.proj_right.cod:
            raise CompositionMismatch("cone legs do not match the span feet")
        index = {pair: i for i, pair in enumerate(self.pairs)}
        table = []
        for z in p.dom.elements:
            pair = (p.table[z], q.table[z])
            if pair not in index:
                raise CompositionMismatch("cone does not commute with the cospan")
            table.append(index[pair])
        return ConcreteMorphism(p.dom, self.apex, tuple(table))


def pullback(f: ConcreteMorphism, g: ConcreteMorphism) -> PullbackResult:
    """Canonical fiber product of f: X -> A and g: Y -> A."""
    if f.cod != g.cod:
        raise CospanMismatch(f"pullback of {f!r} and {g!r}: codomains differ")
    X, Y = f.dom, g.dom
    pairs = tuple(sorted(
        (x, y) for x in X.elements for y in Y.elements if f.table[x] == g.table[y]
    ))
    index = {pair: i for i, pair in enumerate(pairs)}
    name = f"Pb[{X.id},{Y.id}]#{_short_hash(f.table, g.table, X.id, Y.id)}"
    if X.backend == PSET:
        apex = FiniteObject(id=name, backend=PSET, size=len(pairs))
    else:
        op = tuple(
            tuple(index[(X.op[a][c], Y.op[b][d])] for (c, d) in pairs)
            for (a, b) in pairs
        )
        inv = tuple(index[(X.inv[a], Y.inv[b])] for (a, b) in pairs)
        apex = FiniteObject(id=name, backend=X.backend, size=len(pairs),
                            op=op, inv=inv)
    proj_left = ConcreteMorphism(apex, X, tuple(p[0] for p in pairs))
    proj_right = ConcreteMorphism(apex, Y, tuple(p[1] for p in pairs))
    return PullbackResult(apex, proj_left, proj_right, pairs)


def preimage(table: tuple[int, ...], image) -> frozenset[int]:
    """The pullback along x: X -> A of a mono with the given image in A, up
    to canonical iso: the x-preimage of the image, as a subobject of X.
    ``table`` is the map table of x, so a search over ``hom_tables`` asks
    this without building x.

    A mono is determined up to canonical iso by its codomain and image, and
    every mono class here decides membership from exactly that pair.  In the
    pullback of a mono m along x the apex pairs each e of X with the unique
    m-preimage of x(e) when x(e) lies in the image of m, so the right
    projection is injective with image this preimage.  Membership of the
    pullback is therefore decided by (X, preimage(x.table, image(m))),
    without building the apex.
    """
    return frozenset(e for e, v in enumerate(table) if v in image)


def product(A: FiniteObject, B: FiniteObject):
    """Binary product with its two projections."""
    zero = zero_of(A.backend)
    res = pullback(ConcreteMorphism(A, zero, (0,) * A.size),
                   ConcreteMorphism(B, zero, (0,) * B.size))
    return res.apex, res.proj_left, res.proj_right


@cache
def zero_of(backend: str) -> FiniteObject:
    """The zero object of the backend, built once."""
    return zero_object(backend)


def equalizer(f: ConcreteMorphism, g: ConcreteMorphism) -> Subobject:
    if f.dom != g.dom or f.cod != g.cod:
        raise CospanMismatch("equalizer needs a parallel pair")
    elems = tuple(e for e in f.dom.elements if f.table[e] == g.table[e])
    return Subobject(f.dom, elems)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def kernel_subobject(f: ConcreteMorphism) -> Subobject:
    return Subobject(f.dom, tuple(e for e in f.dom.elements if f.table[e] == 0))


def kernel(f: ConcreteMorphism) -> ConcreteMorphism:
    """Inclusion of the fiber over the basepoint."""
    return kernel_subobject(f).inclusion()


def has_zero_kernel(f: ConcreteMorphism) -> bool:
    return sum(1 for v in f.table if v == 0) == 1


# ---------------------------------------------------------------------------
# Congruences
# ---------------------------------------------------------------------------

class Congruence(_Validated, namedtuple("Congruence", "on blocks")):
    """An effective equivalence relation, stored as a partition into blocks.

    Fields: ``on: FiniteObject``, ``blocks: tuple[tuple[int, ...], ...]``.
    """

    __slots__ = ()

    def __post_init__(self):
        seen = sorted(e for block in self.blocks for e in block)
        if seen != list(self.on.elements):
            raise InvalidObject("blocks do not partition the elements")
        if self.blocks != tuple(sorted(tuple(sorted(b)) for b in self.blocks)):
            raise InvalidObject("blocks must be in canonical sorted order")
        if self.on.op is not None:
            block_id = self.block_ids()
            op = self.on.op
            for block in self.blocks:
                a0 = block[0]
                for a in block[1:]:
                    for c in self.on.elements:
                        if block_id[op[a0][c]] != block_id[op[a][c]] or \
                           block_id[op[c][a0]] != block_id[op[c][a]]:
                            raise InvalidObject(
                                "partition is not compatible with the operation")

    def block_ids(self) -> tuple[int, ...]:
        ids = [0] * self.on.size
        for i, block in enumerate(self.blocks):
            for e in block:
                ids[e] = i
        return tuple(ids)

    @property
    def is_discrete(self) -> bool:
        return len(self.blocks) == self.on.size

    def quotient(self) -> tuple[FiniteObject, ConcreteMorphism]:
        """Quotient object and the canonical projection."""
        A = self.on
        ids = self.block_ids()
        # reorder blocks so the basepoint block is index 0, then by min element
        order = sorted(range(len(self.blocks)),
                       key=lambda i: min(self.blocks[i]))
        renumber = {old: new for new, old in enumerate(order)}
        table = tuple(renumber[ids[e]] for e in A.elements)
        n = len(self.blocks)
        name = f"{A.id}/~{_short_hash(self.blocks)}"
        if A.backend == PSET:
            Q = FiniteObject(id=name, backend=PSET, size=n)
        else:
            reps = [self.blocks[order[i]][0] for i in range(n)]
            op = tuple(tuple(table[A.op[reps[i]][reps[j]]] for j in range(n))
                       for i in range(n))
            inv = tuple(table[A.inv[reps[i]]] for i in range(n))
            Q = FiniteObject(id=name, backend=A.backend, size=n, op=op, inv=inv)
        return Q, ConcreteMorphism(A, Q, table)


def congruence_from_partition(A: FiniteObject, blocks) -> Congruence:
    canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
    return Congruence(A, canon)


def congruence_from_normal_subobject(N: Subobject) -> Congruence:
    """Coset partition of a normal subalgebra."""
    A = N.ambient
    inside = set(N.elems)
    seen: set[int] = set()
    blocks = []
    for a in A.elements:
        if a in seen:
            continue
        coset = tuple(sorted(A.op[a][n] for n in inside))
        seen.update(coset)
        blocks.append(coset)
    return congruence_from_partition(A, blocks)


def kernel_pair(f: ConcreteMorphism) -> Congruence:
    fibers: dict[int, list[int]] = {}
    for e in f.dom.elements:
        fibers.setdefault(f.table[e], []).append(e)
    return congruence_from_partition(f.dom, fibers.values())


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


@cache
def congruences(A: FiniteObject) -> tuple[Congruence, ...]:
    """All congruences on A, canonically ordered (discrete first, full last)."""
    if A.op is None:
        found = [congruence_from_partition(A, part)
                 for part in _set_partitions(list(A.elements))]
    else:
        found = [congruence_from_normal_subobject(N)
                 for N in normal_subalgebras(A)]
    return tuple(sorted(found, key=lambda c: (-len(c.blocks), c.blocks)))


@cache
def regular_quotients(A: FiniteObject) -> tuple[ConcreteMorphism, ...]:
    """The projection onto the quotient by each congruence on A, in the
    order of :func:`congruences`, built once per object."""
    return tuple(cong.quotient()[1] for cong in congruences(A))


# ---------------------------------------------------------------------------
# Factorizations and cokernels
# ---------------------------------------------------------------------------

class Factorization(namedtuple("Factorization", "regular_epi mono image")):
    """Fields: ``regular_epi: ConcreteMorphism``, ``mono: ConcreteMorphism``,
    ``image: FiniteObject``."""

    __slots__ = ()


def factorize(f: ConcreteMorphism) -> Factorization:
    """(regular epi, mono) factorization through the set-theoretic image."""
    sub = image_subobject(f)
    pos = {e: i for i, e in enumerate(sub.elems)}
    epi = ConcreteMorphism(f.dom, sub.object(), tuple(pos[v] for v in f.table))
    return Factorization(epi, sub.inclusion(), sub.object())


def cokernel(f: ConcreteMorphism) -> ConcreteMorphism:
    """Canonical quotient of cod(f) collapsing the image of f."""
    B = f.cod
    if B.backend == PSET:
        collapsed = tuple(sorted(f.image | {0}))
        blocks = [collapsed] + [[e] for e in B.elements if e not in f.image and e != 0]
        cong = congruence_from_partition(B, blocks)
    else:
        N = Subobject(B, normal_closure(B, f.image))
        cong = congruence_from_normal_subobject(N)
    _, q = cong.quotient()
    return q


def is_normal_epi(f: ConcreteMorphism) -> bool:
    """True iff f coincides, up to canonical iso, with the cokernel of its kernel."""
    if not f.is_surjective:
        return False
    q = cokernel(kernel(f))
    return kernel_pair(f) == kernel_pair(q)


# ---------------------------------------------------------------------------
# Backend normality report
# ---------------------------------------------------------------------------

class NormalBackendReport(_Record, namedtuple(
        "NormalBackendReport", "backend passed checked failures")):
    """Fields: ``backend: str``, ``passed: bool``, ``checked: int``,
    ``failures: list[dict]``."""

    __slots__ = ()


def check_normal_backend(objects: list[FiniteObject]) -> NormalBackendReport:
    """Verify pointedness, pullback-stable regular images, and regular-epi
    normality over all morphisms among the given objects, which live in
    one backend, the one the report names (None for no objects)."""
    failures: list[dict] = []
    checked = 0
    homs = {(A, B): enumerate_hom(A, B) for A in objects for B in objects}
    for A in objects:
        for B in objects:
            for f in homs[A, B]:
                if f.is_surjective:
                    checked += 1
                    if not is_normal_epi(f):
                        failures.append({
                            "check": "regular-epi-is-normal",
                            "morphism": f.to_json(),
                        })
    # pullback stability of the (regular epi, mono) factorization
    for B in objects:
        for A in objects:
            for f in homs[A, B]:
                fact = factorize(f)
                for X in objects:
                    for x in homs[X, B]:
                        checked += 1
                        pulled = pullback(f, x)
                        epi_part = factorize(pulled.proj_right).regular_epi
                        pulled_image = pullback(fact.mono, x)
                        if not epi_part.is_surjective:
                            failures.append({
                                "check": "regular-epi-pullback-stable",
                                "morphism": f.to_json(), "along": x.to_json(),
                            })
                        if frozenset(pulled.proj_right.image) != \
                                frozenset(pulled_image.proj_right.image):
                            failures.append({
                                "check": "image-pullback-stable",
                                "morphism": f.to_json(), "along": x.to_json(),
                            })
    return NormalBackendReport(backend=objects[0].backend if objects else None,
                               passed=not failures,
                               checked=checked, failures=failures)
