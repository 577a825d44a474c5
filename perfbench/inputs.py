"""Seeded input generator for the benchmark.

The benchmark builds its own Cayley tables (it does not import the program),
then relabels each one from the seed: the non-identity elements are permuted
and the identity stays at element 0.  Relabelled tables present isomorphic
groups, so every label-independent count in the program's output must not
depend on the seed.  The descriptor files written here are the only thing the
program sees of the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path


def _perm_mul(p, q):
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def _table_from_permutations(degree, generators):
    """Cayley table of the group generated by the permutations.

    Elements are sorted as tuples, so the identity lands at element 0.
    """
    ident = tuple(range(degree))
    elems, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = _perm_mul(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    perms = sorted(elems)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[_perm_mul(p, q)] for q in perms] for p in perms]


def _quaternion_table():
    # elements +-1, +-i, +-j, +-k as (sign, axis); axis 0 is the scalar
    reps = [(s, x) for x in range(4) for s in (1, -1)]
    index = {r: i for i, r in enumerate(reps)}
    cross = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
             (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}

    def mul(a, b):
        (sa, xa), (sb, xb) = a, b
        if xa == 0 or xb == 0:
            return (sa * sb, xa or xb)
        if xa == xb:
            return (-sa * sb, 0)
        s, x = cross[(xa, xb)]
        return (sa * sb * s, x)

    return [[index[mul(a, b)] for b in reps] for a in reps]


def _product_table(m, n):
    pairs = [(a, b) for a in range(m) for b in range(n)]
    index = {p: i for i, p in enumerate(pairs)}
    return [[index[((a1 + a2) % m, (b1 + b2) % n)] for (a2, b2) in pairs]
            for (a1, b1) in pairs]


def catalog_tables():
    """The five catalog groups the ``decide`` workload classifies."""
    return {
        "S4": _table_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
        "A4": _table_from_permutations(4, [(1, 2, 0, 3), (1, 0, 3, 2)]),
        "D6": _table_from_permutations(6, [(1, 2, 3, 4, 5, 0),
                                           (0, 5, 4, 3, 2, 1)]),
        "Q8": _quaternion_table(),
        "Z2xZ4": _product_table(2, 4),
    }


def relabel(table, seed, name):
    """Permute the non-identity elements of a Cayley table, keeping 0 fixed."""
    rest = list(range(1, len(table)))
    random.Random(f"{seed}:{name}").shuffle(rest)
    p = [0] + rest
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[p[a]][p[b]] = p[c]
    return out


def write_inputs(seed: int, directory: Path) -> dict[str, list[Path]]:
    """Write the seeded descriptor files; return them grouped by job."""
    directory.mkdir(parents=True, exist_ok=True)
    groups = []
    for name, table in catalog_tables().items():
        path = directory / f"{name}.json"
        desc = {"kind": "group", "name": name,
                "cayley": relabel(table, seed, name)}
        path.write_text(json.dumps(desc), encoding="utf-8")
        groups.append(path)
    # A pointed set has no structure to relabel; the seed names it.
    pset = directory / "pointed7.json"
    pset.write_text(json.dumps({"kind": "pointed_set",
                                "name": f"P7s{seed}", "size": 7}),
                    encoding="utf-8")
    return {"groups": groups, "pset": [pset]}
