"""Finite concrete pointed categories: objects, morphisms, hom enumeration.

Three backends are supported:

* ``grp``  -- finite groups, given by Cayley tables,
* ``ab``   -- finite abelian groups (Cayley table must be commutative),
* ``pset`` -- finite pointed sets (no operation table).

Element ids are 0-based integers and the basepoint (identity, for groups)
is always element 0.  All enumerations are returned in a fixed canonical
order, so every downstream computation is deterministic.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple
from functools import cache
from operator import itemgetter

from .errors import (
    BackendMismatch,
    BoundExceeded,
    CompositionMismatch,
    InvalidMorphism,
    InvalidObject,
)

GRP = "grp"
AB = "ab"
PSET = "pset"
BACKENDS = (GRP, AB, PSET)

#: backends in which monomorphisms are exactly the zero-kernel morphisms
NORMAL_BACKENDS = (GRP, AB)

DEFAULT_SIZE_BOUNDS = {GRP: 60, AB: 64, PSET: 16}


def _short_hash(*parts) -> str:
    # imported here, by its only user: hashlib is about a quarter of the
    # package's import time, and a process that names no pullback or
    # quotient never needs it
    import hashlib
    h = hashlib.blake2b(repr(parts).encode(), digest_size=4)
    return h.hexdigest()


class _Validated:
    """Mixin for an immutable record, a subclass of a ``namedtuple`` base,
    whose ``__post_init__`` checks each new instance.

    The check is looked up on the instance, so a wrapper installed on the
    class (a tracer's timing span) sees every construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self


def _jsonable(**fields) -> dict:
    """Fields as JSON: each value's ``to_json()``, or the value itself."""
    return {k: (v.to_json() if hasattr(v, "to_json") else v)
            for k, v in fields.items()}


class _Record:
    """Mixin for a ``namedtuple`` record whose JSON is its fields, each
    written by :func:`_jsonable`."""

    __slots__ = ()

    def to_json(self) -> dict:
        return _jsonable(**self._asdict())


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------

class FiniteObject(_Validated, namedtuple(
        "FiniteObject", "id backend size op inv labels",
        defaults=(None, None, None))):
    """A finite pointed algebra with elements 0..size-1 and basepoint 0.

    Fields: ``id: str``, ``backend: str``, ``size: int``,
    ``op: tuple[tuple[int, ...], ...] | None``,
    ``inv: tuple[int, ...] | None``, ``labels: tuple[str, ...] | None``.
    """

    __slots__ = ()

    def __post_init__(self):
        _, backend, n, op, inv, _ = self
        if backend not in BACKENDS:
            raise InvalidObject(f"unknown backend {backend!r}")
        if n < 1:
            raise InvalidObject("objects must have at least the basepoint")
        if backend == PSET:
            if op is not None or inv is not None:
                raise InvalidObject("pointed sets carry no operation table")
            return
        if op is None or inv is None:
            raise InvalidObject(f"{backend} objects need op and inv tables")
        if len(op) != n or any(len(row) != n for row in op):
            raise InvalidObject(f"{self.id}: op table is not {n}x{n}")
        rng = range(n)
        if any(v not in rng for row in op for v in row):
            raise InvalidObject(f"{self.id}: op table entry out of range")
        for a in rng:
            if op[0][a] != a or op[a][0] != a:
                raise InvalidObject(f"{self.id}: element 0 is not the identity")
        for a in rng:
            b = inv[a]
            if op[a][b] != 0 or op[b][a] != 0:
                raise InvalidObject(f"{self.id}: inv table is not two-sided")
        gens = generating_sequence(self)
        # Light's test: the g with (x.g).y == x.(g.y) for all x, y are
        # closed under the operation, so they are everything once they hold
        # the generators; row x.g of the table against row x read at row g
        for g in gens:
            row_g = op[g]
            for row_x in op:
                if tuple(op[row_x[g]]) != tuple(map(row_x.__getitem__, row_g)):
                    raise InvalidObject(f"{self.id}: op is not associative")
        if backend == AB:
            # in an associative table the elements that commute with every
            # element are closed under the operation
            for g in gens:
                if tuple(op[g]) != tuple(map(itemgetter(g), op)):
                    raise InvalidObject(f"{self.id}: ab object must be commutative")

    # hash of the id alone (str caches its hash); equal objects have equal
    # ids, so this agrees with the structural equality
    def __hash__(self):  # pragma: no cover - trivial
        return hash(self.id)

    @property
    def elements(self) -> range:
        return range(self.size)

    def label(self, e: int) -> str:
        return self.labels[e] if self.labels else str(e)

    def __repr__(self):
        return f"<{self.backend}:{self.id}|{self.size}>"


def zero_object(backend: str, id: str = "0") -> FiniteObject:
    if backend == PSET:
        return FiniteObject(id=id, backend=backend, size=1)
    return FiniteObject(id=id, backend=backend, size=1, op=((0,),), inv=(0,))


def pointed_set(name: str, size: int) -> FiniteObject:
    return FiniteObject(id=name, backend=PSET, size=size)


def cyclic_group(n: int, name: str | None = None, backend: str = GRP) -> FiniteObject:
    op = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    return FiniteObject(id=name or f"Z{n}", backend=backend, size=n, op=op, inv=inv)


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def group_from_permutations(name: str, degree: int,
                            generators: list[list[int]] | list[tuple[int, ...]],
                            backend: str = GRP,
                            size_bound: int | None = None) -> FiniteObject:
    """Close a set of permutations under composition and build a Cayley table.

    Elements are sorted lexicographically as permutation tuples; the identity
    permutation is lexicographically smallest, so it lands at index 0.
    """
    ident = tuple(range(degree))
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidObject(f"{name}: {g} is not a permutation of 0..{degree-1}")
    elems = {ident}
    frontier = [ident]
    bound = size_bound or DEFAULT_SIZE_BOUNDS[backend]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _perm_mul(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
                    if len(elems) > bound:
                        raise BoundExceeded(
                            f"{name}: generated group exceeds size bound {bound}")
        frontier = nxt
    perms = sorted(elems)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    op = tuple(tuple(index[_perm_mul(perms[i], perms[j])] for j in range(n))
               for i in range(n))
    inv_perm = [tuple(sorted(range(degree), key=lambda k: p[k])) for p in perms]
    inv = tuple(index[p] for p in inv_perm)
    labels = tuple("(" + " ".join(map(str, p)) + ")" for p in perms)
    return FiniteObject(id=name, backend=backend, size=n, op=op, inv=inv,
                        labels=labels)


def _is_int(v) -> bool:
    # JSON true/false decode to bool, which is an int subclass
    return isinstance(v, int) and not isinstance(v, bool)


def group_from_cayley(name: str, table: list[list[int]], backend: str = GRP) -> FiniteObject:
    if not isinstance(table, (list, tuple)) or not table:
        raise InvalidObject(f"{name}: Cayley table must be a non-empty list of rows")
    n = len(table)
    if any(not isinstance(row, (list, tuple)) or len(row) != n for row in table):
        raise InvalidObject(f"{name}: Cayley table is not {n}x{n}")
    if not all(_is_int(v) and 0 <= v < n for row in table for v in row):
        raise InvalidObject(f"{name}: Cayley table entry is not an element 0..{n - 1}")
    op = tuple(tuple(row) for row in table)
    inv = []
    for a in range(n):
        found = [b for b in range(n) if op[a][b] == 0 and op[b][a] == 0]
        if len(found) != 1:
            raise InvalidObject(f"{name}: element {a} has no two-sided inverse")
        inv.append(found[0])
    return FiniteObject(id=name, backend=backend, size=n, op=op, inv=tuple(inv))


def direct_product(A: FiniteObject, B: FiniteObject, name: str | None = None) -> FiniteObject:
    if A.backend != B.backend:
        raise BackendMismatch(f"{A.id} and {B.id} live in different backends")
    pairs = [(a, b) for a in A.elements for b in B.elements]
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    name = name or f"{A.id}x{B.id}"
    if A.backend == PSET:
        return FiniteObject(id=name, backend=PSET, size=n)
    op = tuple(tuple(index[(A.op[a1][a2], B.op[b1][b2])]
                     for (a2, b2) in pairs)
               for (a1, b1) in pairs)
    inv = tuple(index[(A.inv[a], B.inv[b])] for (a, b) in pairs)
    return FiniteObject(id=name, backend=A.backend, size=n, op=op, inv=inv)


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

class ConcreteMorphism(_Validated,
                       namedtuple("ConcreteMorphism", "dom cod table")):
    """A total basepoint-preserving (and operation-preserving) map table.

    Fields: ``dom: FiniteObject``, ``cod: FiniteObject``,
    ``table: tuple[int, ...]``.
    """

    __slots__ = ()

    def __post_init__(self):
        dom, cod, t = self
        if dom.backend != cod.backend:
            raise BackendMismatch(
                f"morphism {dom.id}->{cod.id} crosses backends")
        if len(t) != dom.size:
            raise InvalidMorphism("map table has wrong length")
        elems = cod.elements
        if any(v not in elems for v in t):
            raise InvalidMorphism("map table value out of range")
        if t[0] != 0:
            raise InvalidMorphism("map does not preserve the basepoint")
        op_a = dom.op
        if op_a is not None:
            # both ends are groups, so the g with t(g.x) == t(g).t(x) for
            # every x are closed under the operation: the generators suffice
            op_b, at = cod.op, t.__getitem__
            for g in generating_sequence(dom):
                row = op_b[t[g]]
                if list(map(at, op_a[g])) != list(map(row.__getitem__, t)):
                    raise InvalidMorphism(
                        f"map {dom.id}->{cod.id} is not a homomorphism")

    def __hash__(self):  # pragma: no cover - trivial
        return hash((self.dom.id, self.cod.id, self.table))

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.table)

    @property
    def is_injective(self) -> bool:
        return len(set(self.table)) == self.dom.size

    @property
    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.cod.size

    @property
    def is_bijective(self) -> bool:
        return self.is_injective and self.dom.size == self.cod.size

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.table)

    def __repr__(self):
        return f"{self.dom.id}->{self.cod.id}{list(self.table)}"

    def to_json(self) -> dict:
        return {"dom": self.dom.id, "cod": self.cod.id, "map": list(self.table)}


def identity(A: FiniteObject) -> ConcreteMorphism:
    return ConcreteMorphism(A, A, tuple(A.elements))


def zero_morphism(A: FiniteObject, B: FiniteObject) -> ConcreteMorphism:
    return ConcreteMorphism(A, B, (0,) * A.size)


def compose(g: ConcreteMorphism, f: ConcreteMorphism) -> ConcreteMorphism:
    """g after f."""
    if f.cod != g.dom:
        raise CompositionMismatch(f"cannot compose {g!r} after {f!r}")
    return ConcreteMorphism(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def inverse(f: ConcreteMorphism) -> ConcreteMorphism:
    if not f.is_bijective:
        raise InvalidMorphism("only bijective morphisms are invertible")
    table = [0] * f.cod.size
    for e in f.dom.elements:
        table[f.table[e]] = e
    return ConcreteMorphism(f.cod, f.dom, tuple(table))


# ---------------------------------------------------------------------------
# Subobjects
# ---------------------------------------------------------------------------

class Subobject(_Validated, namedtuple("Subobject", "ambient elems")):
    """A canonical subobject: a sorted element subset closed under the ops.

    Fields: ``ambient: FiniteObject``, ``elems: tuple[int, ...]``.
    """

    __slots__ = ()

    def __post_init__(self):
        if tuple(sorted(set(self.elems))) != self.elems:
            raise InvalidObject("subobject elements must be sorted and distinct")
        if 0 not in self.elems:
            raise InvalidObject("subobject must contain the basepoint")
        if self.elems[0] < 0 or self.elems[-1] >= self.ambient.size:
            raise InvalidObject(
                f"subobject elements must be elements of {self.ambient.id}")

    def __hash__(self):  # pragma: no cover - trivial
        return hash((self.ambient.id, self.elems))

    @property
    def size(self) -> int:
        return len(self.elems)

    @property
    def is_full(self) -> bool:
        return len(self.elems) == self.ambient.size

    def object(self) -> FiniteObject:
        if self.is_full:
            return self.ambient
        return _subobject_as_object(self.ambient, self.elems)

    def inclusion(self) -> ConcreteMorphism:
        return ConcreteMorphism(self.object(), self.ambient, self.elems)


@cache
def _subobject_as_object(ambient: FiniteObject, elems: tuple[int, ...]) -> FiniteObject:
    pos = {e: i for i, e in enumerate(elems)}
    name = f"{ambient.id}{{{','.join(map(str, elems))}}}"
    if ambient.backend == PSET:
        return FiniteObject(id=name, backend=PSET, size=len(elems))
    try:
        op = tuple(tuple(pos[ambient.op[a][b]] for b in elems) for a in elems)
        inv = tuple(pos[ambient.inv[a]] for a in elems)
    except KeyError as err:
        raise InvalidObject(
            f"subobject {elems} of {ambient.id} is not closed: it lacks "
            f"{err.args[0]}") from None
    labels = tuple(ambient.label(a) for a in elems) if ambient.labels else None
    return FiniteObject(id=name, backend=ambient.backend, size=len(elems),
                        op=op, inv=inv, labels=labels)


def closure(A: FiniteObject, seed) -> tuple[int, ...]:
    """Smallest subalgebra of A containing the seed elements.

    For groups this is the set of all products of seed elements: in a finite
    group every element has finite order, so each inverse is a positive
    power and the products already form the generated subgroup.  A
    breadth-first search right-multiplies by the seed elements only, which
    costs O(|H| * |seed|) table lookups for a closure H.
    """
    got = {0} | set(seed)
    if A.op is None:
        return tuple(sorted(got))
    gens = tuple(got - {0})
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            row = A.op[a]
            for g in gens:
                c = row[g]
                if c not in got:
                    got.add(c)
                    nxt.append(c)
        frontier = nxt
    return tuple(sorted(got))


def _cyclic_representatives(A: FiniteObject) -> list[int]:
    """One generator per nontrivial cyclic subgroup of A: the first element,
    in canonical order, that generates it."""
    seen: set[tuple[int, ...]] = set()
    reps = []
    for g in A.elements:
        cyc = closure(A, (g,))
        if len(cyc) > 1 and cyc not in seen:
            seen.add(cyc)
            reps.append(g)
    return reps


@cache
def subalgebras(A: FiniteObject) -> tuple[Subobject, ...]:
    """All subobjects of A, sorted by (size, element tuple).

    Groups use cyclic extension.  Each subgroup is recorded with a
    generating tuple; layer k + 1 adjoins every cyclic representative r
    outside a layer-k subgroup H and closes ``gens(H) + (r,)``.  Complete:
    every subgroup H is generated by the cyclic subgroups inside it, hence
    by the representatives r_1, ..., r_k it contains.  Adjoining them one at
    a time and skipping any already inside gives a strictly growing chain
    from the trivial subgroup to H, and each link is reached from the one
    before, because the recorded generators of a subgroup generate it.
    """
    if A.op is None:
        if A.size > 20:
            raise BoundExceeded(f"{A.id}: too many subsets to enumerate")
        subs = []
        rest = [e for e in A.elements if e != 0]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                subs.append(tuple(sorted((0,) + extra)))
    else:
        reps = _cyclic_representatives(A)
        gens_of: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
        layer = [(0,)]
        while layer:
            nxt = []
            for sub in layer:
                inside = set(sub)
                gens = gens_of[sub]
                for r in reps:
                    if r in inside:
                        continue
                    bigger = closure(A, gens + (r,))
                    if bigger not in gens_of:
                        gens_of[bigger] = gens + (r,)
                        nxt.append(bigger)
            layer = nxt
        subs = list(gens_of)
    return tuple(Subobject(A, s) for s in sorted(subs, key=lambda s: (len(s), s)))


def is_normal_subset(A: FiniteObject, elems) -> bool:
    """Closed under conjugation (groups); in pointed sets every subobject is a kernel."""
    if A.op is None:
        return True
    inside = set(elems)
    for g in A.elements:
        gi = A.inv[g]
        for n in inside:
            if A.op[A.op[g][n]][gi] not in inside:
                return False
    return True


@cache
def normal_subalgebras(A: FiniteObject) -> tuple[Subobject, ...]:
    return tuple(s for s in subalgebras(A) if is_normal_subset(A, s.elems))


def normal_closure(A: FiniteObject, seed) -> tuple[int, ...]:
    """Smallest normal subalgebra of A containing the seed elements."""
    if A.op is None:
        return tuple(sorted({0} | set(seed)))
    elems = closure(A, seed)
    while True:
        extra = set()
        for g in A.elements:
            gi = A.inv[g]
            for n in elems:
                c = A.op[A.op[g][n]][gi]
                if c not in elems and c not in extra:
                    extra.add(c)
        if not extra:
            return elems
        elems = closure(A, tuple(elems) + tuple(extra))


def image_subobject(f: ConcreteMorphism) -> Subobject:
    return Subobject(f.cod, tuple(sorted(f.image)))


# ---------------------------------------------------------------------------
# Hom enumeration
# ---------------------------------------------------------------------------

#: map tables keyed on the content keys of the two ends: the one hom cache
_HOM_TABLES: dict[tuple, tuple[tuple[int, ...], ...]] = {}
#: generating sequences keyed on the content key of the object
_GENERATING_SEQUENCES: dict[tuple, tuple[int, ...]] = {}


def element_order(A: FiniteObject, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x = A.op[x][a]
        k += 1
    return k


def generating_sequence(A: FiniteObject) -> tuple[int, ...]:
    """Greedy minimal generating sequence in canonical element order.

    Every element of A is a left-nested product of the sequence, whatever
    the op table: an element not yet reached is appended.  The
    construction validators rely on this, so it holds before A is known to
    be a group.  The sequence reads only the content of A, so it is kept
    per content key, as the hom tables are: objects of one content, such
    as the pullback apexes with the op table of a universe object, share
    one entry, and the cache holds no object."""
    key = content_key(A)
    gens = _GENERATING_SEQUENCES.get(key)
    if gens is None:
        gens = ()
        have = closure(A, gens)
        for a in A.elements:
            if a not in have:
                gens = gens + (a,)
                have = closure(A, gens)
                if len(have) == A.size:
                    break
        _GENERATING_SEQUENCES[key] = gens
    return gens


def content_key(A: FiniteObject) -> tuple:
    """What every hom search and composition table depends on: backend,
    size and op table, but not the id.  The size is needed because pointed
    sets carry no op table."""
    return (A.backend, A.size, A.op)


def enumerate_hom(A: FiniteObject, B: FiniteObject
                  ) -> tuple[ConcreteMorphism, ...]:
    """All morphisms A -> B, duplicate-free, sorted by map table.

    Each call builds and validates its morphisms afresh from
    :func:`hom_tables`, the one hom cache, and keeps none of them.  A search
    that reads homs only through their tables walks :func:`hom_tables`
    instead and builds a ``ConcreteMorphism`` only for what it returns.
    """
    return tuple(ConcreteMorphism(A, B, t) for t in hom_tables(A, B))


def hom_tables(A: FiniteObject, B: FiniteObject
               ) -> tuple[tuple[int, ...], ...]:
    """The sorted map tables of all morphisms A -> B, checked against the
    homomorphism law by the search.

    This is the one hom cache.  The tables depend only on the content of
    the two ends (backend, sizes, op tables), so they are searched once per
    content pair and shared by objects with other ids, e.g. every pullback
    apex with the op table of a universe object.  Every table is a valid
    morphism A -> B, so a caller neither validates it again nor needs a
    ``ConcreteMorphism`` for it."""
    if A.backend != B.backend:
        raise BackendMismatch(f"hom({A.id},{B.id}): backends differ")
    content = (content_key(A), content_key(B))
    tables = _HOM_TABLES.get(content)
    if tables is None:
        tables = _HOM_TABLES[content] = _search_hom_tables(A, B)
    return tables


def _search_hom_tables(A: FiniteObject, B: FiniteObject
                       ) -> tuple[tuple[int, ...], ...]:
    """The sorted map tables of all morphisms A -> B.

    For groups, each candidate assigns images to a generating sequence of
    A and is extended along a breadth-first spanning tree of the Cayley
    graph of A, t(x.g) = t(x).t(g) on each tree edge.  Every other edge
    (x, g) is a check of the same equation, and the candidate is dropped
    at its first clash.  A map that satisfies t(x.g) = t(x).t(g) for every
    x and every generator g is a homomorphism, since every element is a
    product of generators (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005), so a candidate costs O(|A| * d)
    for d generators."""
    if A.op is None:
        return tuple(sorted(
            (0,) + rest
            for rest in itertools.product(B.elements, repeat=A.size - 1)))
    gens = generating_sequence(A)
    # the edges (x, generator index, x.g) in breadth-first order, each
    # flagged when it reaches x.g first, so that it defines t(x.g)
    edges = []
    reached = [False] * A.size
    reached[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = A.op[x]
            for gi, g in enumerate(gens):
                y = row[g]
                edges.append((x, gi, y, not reached[y]))
                if not reached[y]:
                    reached[y] = True
                    nxt.append(y)
        frontier = nxt
    if not all(reached):
        raise InvalidObject(f"{A.id}: generating sequence does not generate")
    op_b = B.op
    tables = []
    # images of a generator must have order dividing the generator's order
    gen_orders = [element_order(A, g) for g in gens]
    choice_sets = [[b for b in B.elements if n % element_order(B, b) == 0]
                   for n in gen_orders]
    for images in itertools.product(*choice_sets):
        t = [0] * A.size
        for x, gi, y, tree in edges:
            v = op_b[t[x]][images[gi]]
            if tree:
                t[y] = v
            elif t[y] != v:
                break
        else:
            tables.append(tuple(t))
    return tuple(sorted(tables))


def enumerate_monos(A: FiniteObject, B: FiniteObject) -> tuple[ConcreteMorphism, ...]:
    return tuple(ConcreteMorphism(A, B, t) for t in hom_tables(A, B)
                 if len(set(t)) == A.size)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def object_from_descriptor(desc: dict, backend: str | None = None,
                           size_bound: int | None = None) -> FiniteObject:
    """Build an object from a JSON descriptor.  A presentation is closed
    under composition only up to ``size_bound`` elements, by default the
    backend's bound, and a Cayley table of more rows is refused before it
    is read.

    Formats::

        {"kind": "group", "name": "S3",
         "presentation": {"permutations": [[1,0,2],[1,2,0]], "degree": 3}}
        {"kind": "group", "name": "C4", "cayley": [[...], ...]}
        {"kind": "pointed_set", "name": "P3", "size": 3}
    """
    if not isinstance(desc, dict):
        raise InvalidObject(
            f"descriptor must be a JSON object, not {type(desc).__name__}")
    kind = desc.get("kind")
    name = desc.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidObject("descriptor needs a non-empty 'name'")
    if kind == "pointed_set":
        size = desc.get("size")
        if not _is_int(size) or size < 1:
            raise InvalidObject(f"{name}: bad pointed set size {size!r}")
        return pointed_set(name, size)
    if kind == "group":
        target = backend or GRP
        if target not in BACKENDS:
            raise InvalidObject(f"unknown backend {target!r}")
        if "presentation" in desc:
            pres = desc["presentation"]
            if not isinstance(pres, dict):
                pres = {}
            degree, perms = pres.get("degree"), pres.get("permutations")
            if not _is_int(degree) or degree < 1:
                raise InvalidObject(
                    f"{name}: presentation needs a positive integer 'degree'")
            if not isinstance(perms, list) or not all(
                    isinstance(p, list) and len(p) == degree
                    and all(_is_int(v) for v in p) for p in perms):
                raise InvalidObject(
                    f"{name}: presentation needs 'permutations', "
                    f"a list of integer lists of length {degree}")
            return group_from_permutations(name, degree, perms, backend=target,
                                           size_bound=size_bound)
        if "cayley" in desc:
            table = desc["cayley"]
            bound = size_bound or DEFAULT_SIZE_BOUNDS[target]
            if isinstance(table, list) and len(table) > bound:
                raise BoundExceeded(
                    f"object {name} has size {len(table)} > bound {bound}")
            return group_from_cayley(name, table, backend=target)
        raise InvalidObject(f"{name}: group descriptor needs 'presentation' or 'cayley'")
    raise InvalidObject(f"unknown descriptor kind {kind!r}")


def load_objects(text: str, backend: str | None = None,
                 size_bound: int | None = None) -> list[FiniteObject]:
    try:
        data = json.loads(text)
    except RecursionError:
        raise InvalidObject("input JSON nests too deeply to be read") from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise InvalidObject("input must be a descriptor object or a list of them")
    return [object_from_descriptor(d, backend, size_bound) for d in data]
