"""Built-in catalog: standard small groups, abelian groups and pointed sets,
named universes for the command-line tool, and the registered cospans used by
the limit-preservation checks.
"""

from __future__ import annotations

from functools import cache

from .catcore import (
    AB,
    GRP,
    ConcreteMorphism,
    FiniteObject,
    cyclic_group,
    direct_product,
    group_from_permutations,
    pointed_set,
    subalgebras,
    zero_object,
)
from .errors import PreconditionViolation


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------

@cache
def trivial_group() -> FiniteObject:
    return zero_object(GRP, "1")


@cache
def z(n: int) -> FiniteObject:
    return cyclic_group(n)


@cache
def v4() -> FiniteObject:
    return group_from_permutations("V4", 4, [(1, 0, 3, 2), (2, 3, 0, 1)])


@cache
def z2xz4() -> FiniteObject:
    return direct_product(cyclic_group(2), cyclic_group(4), name="Z2xZ4")


@cache
def d4() -> FiniteObject:
    return group_from_permutations("D4", 4, [(1, 2, 3, 0), (0, 3, 2, 1)])


@cache
def d6() -> FiniteObject:
    return group_from_permutations("D6", 6,
                                   [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)])


def _quaternion_table() -> list[list[int]]:
    # elements 1, -1, i, -i, j, -j, k, -k as (sign, axis) with axis 0 = scalar
    reps = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]
    index = {r: i for i, r in enumerate(reps)}
    eps = {(1, 2): 1, (2, 1): -1, (2, 3): 1, (3, 2): -1, (3, 1): 1, (1, 3): -1}

    def mul(a, b):
        (sa, xa), (sb, xb) = a, b
        s = sa * sb
        if xa == 0:
            return (s, xb)
        if xb == 0:
            return (s, xa)
        if xa == xb:
            return (-s, 0)
        return (s * eps[(xa, xb)], ({1, 2, 3} - {xa, xb}).pop())

    return [[index[mul(a, b)] for b in reps] for a in reps]


@cache
def q8() -> FiniteObject:
    from .catcore import group_from_cayley
    return group_from_cayley("Q8", _quaternion_table())


@cache
def s3() -> FiniteObject:
    return group_from_permutations("S3", 3, [(1, 2, 0), (1, 0, 2)])


@cache
def a4() -> FiniteObject:
    return group_from_permutations("A4", 4, [(1, 2, 0, 3), (1, 0, 3, 2)])


@cache
def s4() -> FiniteObject:
    return group_from_permutations("S4", 4, [(1, 2, 3, 0), (1, 0, 2, 3)])


@cache
def a5() -> FiniteObject:
    return group_from_permutations("A5", 5,
                                   [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
                                   size_bound=64)


@cache
def group_catalog() -> tuple[FiniteObject, ...]:
    """All built-in groups of order at most 24, smallest first."""
    groups = [trivial_group(), z(2), z(3), z(4), v4(), z(5), z(6), z(7),
              z(8), z2xz4(), d4(), q8(), s3(), z(12), a4(), d6(), s4()]
    return tuple(sorted(groups, key=lambda G: (G.size, G.id)))


# ---------------------------------------------------------------------------
# Abelian backend and pointed sets
# ---------------------------------------------------------------------------

@cache
def ab_zero() -> FiniteObject:
    return zero_object(AB, "0")


@cache
def zab(n: int) -> FiniteObject:
    return cyclic_group(n, backend=AB)


@cache
def soc_z2_z4() -> ConcreteMorphism:
    """The inclusion of the unique minimal subgroup of Z/4 (1 goes to 2)."""
    return ConcreteMorphism(zab(2), zab(4), (0, 2))


@cache
def psets() -> tuple[FiniteObject, ...]:
    return tuple(pointed_set(f"P{n}", n) for n in range(1, 5))


# ---------------------------------------------------------------------------
# Universes and their registered cospans
# ---------------------------------------------------------------------------

def subgroup_universe(G: FiniteObject) -> list[FiniteObject]:
    """Every subalgebra of G as a standalone object (G itself included), in
    the (size, elements) order of :func:`subalgebras`."""
    return [sub.object() for sub in subalgebras(G)]


def inclusion_cospans(G: FiniteObject) -> list[tuple[ConcreteMorphism,
                                                     ConcreteMorphism]]:
    """All unordered pairs of subalgebra inclusions into G.

    Their pullbacks are intersections, so every apex stays inside the
    subalgebra universe of G.
    """
    incls = [sub.inclusion() for sub in subalgebras(G)]
    return [(incls[i], incls[j])
            for i in range(len(incls)) for j in range(i, len(incls))]


def _pointed_cospans():
    P2, P3 = psets()[1], psets()[2]
    return [(ConcreteMorphism(P2, P3, (0, 1)),
             ConcreteMorphism(P2, P3, (0, 2)))]


#: name -> (objects builder, registered cospans builder); a universe is
#: built only when its name is asked for, and its objects carry their backend
UNIVERSES = {
    "s3-subgroups": (lambda: subgroup_universe(s3()),
                     lambda: inclusion_cospans(s3())),
    "s4-subgroups": (lambda: subgroup_universe(s4()),
                     lambda: inclusion_cospans(s4())),
    "z4-chain": (lambda: [ab_zero(), zab(2), zab(4)],
                 lambda: inclusion_cospans(zab(4))
                 + [(soc_z2_z4(), soc_z2_z4())]),
    "a5-chain": (lambda: [trivial_group(), z(2), s3(), a5()],
                 lambda: inclusion_cospans(s3())),
    "order-le-24": (lambda: list(group_catalog()), lambda: []),
    "pointed-le-4": (lambda: list(psets()), _pointed_cospans),
}


def _entry(name: str):
    if name not in UNIVERSES:
        raise PreconditionViolation(
            f"unknown universe {name!r}; choose from {', '.join(UNIVERSES)}")
    return UNIVERSES[name]


def universe(name: str) -> list[FiniteObject]:
    return _entry(name)[0]()


def registered_cospans(name: str) -> list[tuple[ConcreteMorphism,
                                                ConcreteMorphism]]:
    """The cospans whose pullbacks the limit-preservation check covers; empty
    for a universe with none registered."""
    return _entry(name)[1]()


# ---------------------------------------------------------------------------
# Named morphisms inside S3 (the running counterexample material)
# ---------------------------------------------------------------------------

@cache
def s3_named_subobjects() -> dict[str, "object"]:
    """The alternating subgroup and one order-2 subgroup of S3, by element set."""
    from .catcore import Subobject, element_order
    G = s3()
    a3 = tuple(sorted(e for e in G.elements if element_order(G, e) != 2))
    two = next(e for e in G.elements if element_order(G, e) == 2)
    return {"A3": Subobject(G, a3), "S2": Subobject(G, (0, two))}
