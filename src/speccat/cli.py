"""Batch command-line front door.

Three subcommands: ``classify`` reports the mono-class flags of every
subobject inclusion in a universe, ``spec`` materializes and exports the
localized category, and ``reproduce`` runs the built-in counterexample and
theorem checks.  Output is deterministic: canonical orders everywhere and
sorted JSON keys.  JSON is written as it is rendered, in pieces, never
held as one string, and is byte for byte the text of
``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline.  One rule
makes the pieces: the ``spec`` export goes row by row, a dict with str keys
goes key by key, and every other value is written whole by json.dumps,
re-indented.  The export is written straight from the spec's shared
composition rows and hom labels, with no export dict: one piece per (A, B)
row of composition entries and one per A row of hom entries, each distinct
table, table row and label rendered once.  The largest values written
whole are the lists of the s4-subgroups ``summary``, about 200 KB
together.
Peak RSS of ``spec --universe s4-subgroups`` (24 MB of JSON) is about
28 MB on CPython 3.11, x86-64; CI fails it above 40 MB.

Exit codes: 0 success, 1 property failure (witness JSON on stdout),
2 input error, 3 resource bound exceeded, 141 (128 + SIGPIPE) the reader
closed the output pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from . import registry
from .catcore import (
    BACKENDS,
    DEFAULT_SIZE_BOUNDS,
    FiniteObject,
    compose,
    load_objects,
    subalgebras,
)
from .errors import (
    BoundExceeded,
    InvalidObject,
    PreconditionViolation,
    SpeccatError,
)
from .fractions import check_focal
from .limits import pullback
from .monoclasses import (
    ALL_MONOS,
    ESSENTIAL_FAMILY,
    MonoFamily,
    _find_refuting_pullback,
    classify,
    essential_four_ways,
    find_weak_left_cancellation_witness,
    is_essential,
    is_subobject_essential,
    stable_essential_family,
)
from .spectral import (
    SpectralCategory,
    build_spec,
    end_spec_division_check,
    is_uniform,
    verify_limit_preservation,
)

#: exit code for a closed output pipe, as a shell reports death by SIGPIPE
EXIT_PIPE_CLOSED = 128 + 13

# ---------------------------------------------------------------------------
# JSON output: the text of json.dumps(obj, indent=2, sort_keys=True), in
# pieces
# ---------------------------------------------------------------------------

_INDENT = "  "


def _holds_record(o) -> bool:
    """Is a list or tuple subclass, such as a record, anywhere in o?"""
    if isinstance(o, dict):
        return any(map(_holds_record, o.values()))
    return isinstance(o, (list, tuple)) and (
        type(o) not in (list, tuple) or any(map(_holds_record, o)))


def _value_text(o, level: int) -> str:
    """json.dumps's text of o, with its first line at indent ``level``.
    json escapes every newline inside a string, so each newline in a
    container's text starts a line, and the text is indented by following
    each with the indent of ``level``.  json.dumps would write a record as
    an array: the writer refuses it."""
    if not isinstance(o, (dict, list, tuple)):
        return json.dumps(o)
    if _holds_record(o):
        raise TypeError("a list or tuple subclass is not JSON serializable")
    return json.dumps(o, indent=2, sort_keys=True).replace(
        "\n", "\n" + _INDENT * level)


def _ints_text(values, level: int) -> str:
    """The text of a list of exact ints at indent ``level``, joined from
    their reprs."""
    if not values:
        return "[]"
    inner = "\n" + _INDENT * (level + 1)
    return ("[" + inner + ("," + inner).join(map(repr, values)) + "\n"
            + _INDENT * level + "]")


def _json_pieces(o):
    """Yield the text of o in pieces: a spec's export row by row
    (:func:`_export_pieces`), a nonempty dict with str keys key by key, and
    every other value whole, as json.dumps writes it."""
    yield from _pieces(o, 0)


def _pieces(o, level: int):
    if type(o) is SpectralCategory:
        yield from _export_pieces(o, level)
    elif type(o) is dict and o and all(type(k) is str for k in o):
        inner = "\n" + _INDENT * (level + 1)
        sep = "{" + inner
        for k, v in sorted(o.items()):
            yield sep + encode_basestring_ascii(k) + ": "
            yield from _pieces(v, level + 1)
            sep = "," + inner
        yield "\n" + _INDENT * level + "}"
    else:
        yield _value_text(o, level)


def _list_pieces(rows, level: int):
    """The text of a list at indent ``level``, in pieces: each row is the
    text of one or more of its items, joined by the list's separator."""
    inner = "\n" + _INDENT * (level + 1)
    sep = "[" + inner
    for row in rows:
        yield sep
        yield row
        sep = "," + inner
    yield "[]" if sep[0] == "[" else "\n" + _INDENT * level + "]"


def _export_pieces(spec: SpectralCategory, level: int):
    """The text of ``spec.to_json()`` at indent ``level``, written from the
    spec's tables, with no export dict."""
    ids = [encode_basestring_ascii(A.id) for A in spec.objects]
    inner = "\n" + _INDENT * (level + 1)
    yield "{" + inner + '"composition": '
    yield from _list_pieces(_composition_rows(spec, ids, level + 2),
                            level + 1)
    yield ("," + inner + '"exact": ' + _value_text(spec.exact, level + 1)
           + "," + inner + '"homs": ')
    yield from _list_pieces(_hom_rows(spec, ids, level + 2), level + 1)
    yield ("," + inner + '"objects": '
           + _value_text([A.id for A in spec.objects], level + 1)
           + "\n" + _INDENT * level + "}")


def _composition_rows(spec: SpectralCategory, ids: list[str], level: int):
    """The composition entries at indent ``level``, one row per (A, B).

    An entry is the ids of C, A and B and the text of the table of
    (A, B, C).  The table texts of a row are looked up once per
    composition row of the spec, and the text of each table once per
    table, each kept by the identity of the shared list, which the spec
    keeps alive; the text of each distinct table row is rendered once.
    A row's text is then joined from those texts and the ids alone."""
    n = ["\n" + _INDENT * (level + i) for i in range(3)]
    # each entry of a row but the first starts with the separator
    heads = ["{" + n[1] + '"cod": ' + c + "," + n[1] + '"dom": ' for c in ids]
    heads[1:] = ["," + n[0] + head for head in heads[1:]]
    open_table, table_sep = "[" + n[2], "," + n[2]
    close_table = n[1] + "]" + n[0] + "}"
    row_texts: dict[tuple[int, ...], str] = {}
    tables: dict[int, str] = {}
    # a composition row -> the text of each of its tables
    rows: dict[int, list[str]] = {}

    def row_text(cells):
        key = tuple(cells)
        text = row_texts.get(key)
        if text is None:
            text = row_texts[key] = _ints_text(key, level + 2)
        return text

    def table_text(table):
        text = tables.get(id(table))
        if text is None:
            text = tables[id(table)] = (
                open_table + table_sep.join(map(row_text, table))
                + close_table if table else "[]" + n[0] + "}")
        return text

    objects = spec.objects
    for A, a in zip(objects, ids):
        for B, b in zip(objects, ids):
            row = spec.composition_row(A, B)
            texts = rows.get(id(row))
            if texts is None:
                texts = rows[id(row)] = list(map(table_text, row))
            ab = a + "," + n[1] + '"mid": ' + b + "," + n[1] + '"table": '
            yield "".join(chain.from_iterable(zip(heads, repeat(ab), texts)))


def _hom_rows(spec: SpectralCategory, ids: list[str], level: int):
    """The hom entries at indent ``level``, one row per A.

    A class of hom(A, B) is the fraction (inclusion of amin(A), label).
    The text of the classes of a hom set, all but the ids of A, B and
    amin(A) and the map of amin(A), is rendered once per label tuple of
    the spec, kept by the identity of the shared tuple; the text of each
    label is rendered once.  The ids are filled in per hom set."""
    n = ["\n" + _INDENT * (level + i) for i in range(5)]
    labels: dict[tuple[int, ...], str] = {}
    hom_sets: dict[int, list[str]] = {}
    # a class's text up to its index, and from its label to the next
    # class's index
    first = "[" + n[2] + "{" + n[3] + '"index": '
    between = n[3] + "}" + n[2] + "}," + n[2] + "{" + n[3] + '"index": '
    last = n[3] + "}" + n[2] + "}" + n[1] + "]"

    def label_text(label):
        text = labels.get(label)
        if text is None:
            text = labels[label] = _ints_text(label, level + 4)
        return text

    objects = spec.objects
    for A, a in zip(objects, ids):
        amin = spec.amin(A)
        dom = encode_basestring_ascii(amin.object().id)
        # a class out of A after its index: rep_left, and rep_right up to
        # its cod, which is B
        left = ("," + n[3] + '"rep_left": {' + n[4] + '"cod": ' + a + ","
                + n[4] + '"dom": ' + dom + "," + n[4] + '"map": '
                + _ints_text(amin.elems, level + 4) + n[3] + "},"
                + n[3] + '"rep_right": {' + n[4] + '"cod": ')
        entries = []
        for B, b in zip(objects, ids):
            hom = spec.hom_labels(A, B)
            segments = hom_sets.get(id(hom))
            if segments is None:
                # class i's label and the index of class i + 1
                segments = hom_sets[id(hom)] = [
                    label_text(label) + between + repr(i + 1)
                    for i, label in enumerate(hom)]
                if segments:
                    segments[-1] = label_text(hom[-1]) + last
            lr = (left + b + "," + n[4] + '"dom": ' + dom + "," + n[4]
                  + '"map": ')
            classes = first + "0" + lr + lr.join(segments) if hom else "[]"
            entries.append("{" + n[1] + '"classes": ' + classes + ","
                           + n[1] + '"cod": ' + b + "," + n[1]
                           + '"dom": ' + a + n[0] + "}")
        yield ("," + n[0]).join(entries)


def _emit(args: argparse.Namespace, payload: dict,
          text_lines: list[str]) -> None:
    with (open(args.out, "w", encoding="utf-8") if args.out
          else nullcontext(sys.stdout)) as fh:
        if args.format == "json":
            fh.writelines(_json_pieces(payload))
        else:
            fh.write("\n".join(text_lines))
        fh.write("\n")
        fh.flush()


def _resolve_universe(args: argparse.Namespace) -> list[FiniteObject]:
    """The objects of the command, validated once.  They carry their
    backend: every later step reads it from them."""
    if args.bound_size is not None and args.bound_size <= 0:
        raise PreconditionViolation("bounds must be positive")
    if args.universe and args.input:
        raise PreconditionViolation(
            "--universe and --input exclude each other")
    if args.universe:
        objects = registry.universe(args.universe)
        backend = objects[0].backend
        if args.backend and args.backend != backend:
            raise PreconditionViolation(
                f"universe {args.universe!r} lives in backend {backend!r}, "
                f"not {args.backend!r}")
    elif args.input:
        objects = []
        for path in args.input:
            with open(path, encoding="utf-8") as fh:
                try:
                    text = fh.read()
                except UnicodeDecodeError as exc:
                    raise InvalidObject(
                        f"{path} is not UTF-8 text: {exc}") from None
            objects.extend(load_objects(text, args.backend, args.bound_size))
        # a universe lives in one backend (no morphism joins two): refused
        # before any hom search
        backends = sorted({repr(A.backend) for A in objects})
        if len(backends) != 1:
            held = ("backends " + " and ".join(backends) if backends
                    else "no backend")
            raise PreconditionViolation(
                f"input objects live in {held}; one universe takes one "
                f"backend")
    else:
        raise PreconditionViolation("need --universe or --input")
    names = set()
    for A in objects:
        # the export and every witness name an object by its id
        if A.id in names:
            raise InvalidObject(f"object name {A.id!r} is given twice")
        names.add(A.id)
        if args.backend and A.backend != args.backend:
            raise PreconditionViolation(
                f"object {A.id!r} lives in backend {A.backend!r}, "
                f"not {args.backend!r}")
        # an input object is bounded by its own backend, not the default one
        bound = args.bound_size or DEFAULT_SIZE_BOUNDS[A.backend]
        if A.size > bound:
            raise BoundExceeded(
                f"object {A.id} has size {A.size} > bound {bound}")
    return objects


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args: argparse.Namespace) -> int:
    objects = _resolve_universe(args)
    S = MonoFamily(ALL_MONOS)
    reports = []
    for A in objects:
        for sub in subalgebras(A):
            m = sub.inclusion()
            reports.append(classify(m, S, objects))
    payload = {"command": "classify", "seed": args.seed,
               "reports": [r.to_json() for r in reports]}
    lines = []
    for r in reports:
        m = r.morphism
        lines.append(
            f"{m.dom.id} -> {m.cod.id}: in_S={r.in_S} "
            f"essential={bool(r.essential)} "
            f"subobject_essential={bool(r.subobject_essential)} "
            f"stable_essential={bool(r.stable_essential)}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

def cmd_spec(args: argparse.Namespace) -> int:
    objects = _resolve_universe(args)
    spec = build_spec(MonoFamily(ALL_MONOS), objects)
    sizes = [(A.id, B.id, len(spec.hom_labels(A, B)))
             for A in objects for B in objects]
    uniform = [is_uniform(A, spec.M).to_json() for A in objects]
    division = [end_spec_division_check(A, spec).to_json() for A in objects]
    preservation = None
    if args.universe:
        cospans = registry.registered_cospans(args.universe)
        if cospans:
            preservation = [r.to_json()
                            for r in verify_limit_preservation(spec, cospans)]
    # the export is written from the spec's tables as it is streamed
    payload = {"command": "spec", "seed": args.seed, "export": spec,
               "summary": {"hom_sizes": [
                   {"dom": a, "cod": b, "classes": k} for a, b, k in sizes],
                   "uniform": uniform, "division_monoids": division,
                   "limit_preservation": preservation}}
    lines = [f"objects: {', '.join(A.id for A in objects)}"]
    for a, b, k in sizes:
        lines.append(f"hom({a},{b}): {k} classes")
    for u in uniform:
        lines.append(f"uniform({u['object']}): {u['uniform']}")
    for d in division:
        lines.append(f"division_monoid({d['object']}): size={d['size']} "
                     f"verdict={d['verdict']}")
    if preservation is not None:
        ok = all(r["status"] == "pass" for r in preservation)
        lines.append(f"limit_preservation: {'pass' if ok else 'FAIL'} "
                     f"({len(preservation)} cospans)")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# reproduce checks
# ---------------------------------------------------------------------------

def _check_remark_6_8() -> tuple[bool, dict]:
    """The inclusion of the index-2 subgroup of the 6-element symmetric group
    is essential but neither subobject-essential nor pullback stable: pulling
    it back along an order-2 subgroup gives the zero mono into that subgroup.
    """
    G = registry.s3()
    named = registry.s3_named_subobjects()
    a3, s2 = named["A3"].inclusion(), named["S2"].inclusion()
    S = MonoFamily(ALL_MONOS)
    universe = registry.subgroup_universe(G)
    report = classify(a3, S, universe)
    pb = pullback(a3, s2)
    pulled = pb.proj_right
    pulled_essential = is_essential(pulled, S)
    ok = (bool(report.essential)
          and not bool(report.subobject_essential)
          and not bool(report.stable_essential)
          and pb.apex.size == 1
          and pulled.dom.size == 1 and pulled.cod.size == 2
          and not bool(pulled_essential))
    return ok, {"classification": report.to_json(),
                "pullback_apex_size": pb.apex.size,
                "pulled_mono": pulled.to_json(),
                "pulled_essential": pulled_essential.to_json()}


def _check_remark_6_7_search() -> tuple[bool, dict]:
    """Essential monos lack weak left cancellation: search finds a subgroup
    chain M' < M < A with M -> A and M' -> A essential but M' -> M not.  The
    classical family (order-2 subgroup inside a 6-element symmetric subgroup
    of the simple 60-element group) is validated explicitly as well.
    """
    witness = find_weak_left_cancellation_witness(
        registry.universe("a5-chain"))
    A = registry.a5()

    def elem(perm):
        return A.labels.index("(" + " ".join(map(str, perm)) + ")")

    three_cycle = elem((1, 2, 0, 3, 4))
    double_swap = elem((1, 0, 2, 4, 3))
    from .catcore import Subobject, closure
    m_elems = closure(A, (three_cycle, double_swap))
    msub = Subobject(A, m_elems)
    M = msub.object()
    m = msub.inclusion()
    swap_pos = m_elems.index(double_swap)
    mp = Subobject(M, tuple(sorted((0, swap_pos)))).inclusion()
    S = MonoFamily(ALL_MONOS)
    family_ok = (M.size == 6
                 and bool(is_essential(m, S))
                 and bool(is_essential(compose(m, mp), S))
                 and not bool(is_essential(mp, S)))
    ok = witness is not None and family_ok
    return ok, {"search_witness": witness.to_json() if witness else None,
                "named_family_valid": family_ok,
                "named_family": {"outer": m.to_json(), "inner": mp.to_json()}}


def _check_thm_6_9_sweep() -> tuple[bool, dict]:
    """Over every subgroup object of every catalog group of order <= 24 and
    every subobject image: the exact subobject-essentiality decision agrees
    with the bounded pullback-refutation search, and the four essentiality
    routes agree.  Membership in each class depends only on (codomain,
    image), so the sweep covers all monos between registered objects.
    """
    S = MonoFamily(ALL_MONOS)
    checked, mismatches, four_way_mismatches = 0, [], []
    for G in registry.group_catalog():
        for Y in registry.subgroup_universe(G):
            probe = registry.subgroup_universe(Y)
            for sub in subalgebras(Y):
                m = sub.inclusion()
                checked += 1
                se = is_subobject_essential(m)
                refut = _find_refuting_pullback(m, S, probe)
                if se.value != (refut is None):
                    mismatches.append({"cod": Y.id, "image": list(sub.elems)})
                four = essential_four_ways(m)
                if len(set(four.values())) != 1:
                    four_way_mismatches.append(
                        {"cod": Y.id, "image": list(sub.elems), **four})
    ok = not mismatches and not four_way_mismatches
    return ok, {"canonical_monos_checked": checked,
                "stable_vs_subobject_mismatches": mismatches,
                "four_way_mismatches": four_way_mismatches}


def _check_thm_5_2_pullbacks() -> tuple[bool, dict]:
    """The localization functor preserves the pullbacks of every registered
    cospan in the symmetric-group and cyclic-chain universes."""
    results = {}
    for name in ("s3-subgroups", "z4-chain"):
        spec = build_spec(MonoFamily(ALL_MONOS), registry.universe(name))
        reports = verify_limit_preservation(
            spec, registry.registered_cospans(name))
        results[name] = [r.to_json() for r in reports]
    ok = all(r["status"] == "pass"
             for reports in results.values() for r in reports)
    return ok, results


def _check_focal_suite() -> tuple[bool, dict]:
    """The subobject-essential class admits a right-fraction calculus over
    the 24-element symmetric group's subgroup universe (all five conditions
    pass), while the merely-essential class fails the square-completion
    condition over the 6-element one, with the classic cospan as witness."""
    s4_universe = registry.universe("s4-subgroups")
    se_fam = stable_essential_family(MonoFamily(ALL_MONOS), s4_universe)
    se_reports = check_focal(se_fam, s4_universe)
    se_ok = all(r.status == "pass" for r in se_reports)

    s3_universe = registry.universe("s3-subgroups")
    ess_fam = MonoFamily(kind=ESSENTIAL_FAMILY)
    ess_reports = check_focal(ess_fam, s3_universe)
    by_id = {r.condition: r for r in ess_reports}
    f2 = by_id["F2"]
    named = registry.s3_named_subobjects()
    a3_elems = set(named["A3"].elems)
    f2_ok = f2.status == "fail" and f2.witness is not None
    if f2_ok:
        s_table = f2.witness["s"]["map"]
        f_table = f2.witness["f"]["map"]
        f2_ok = set(s_table) == a3_elems and len(set(f_table)) == 2
    ok = se_ok and f2_ok
    return ok, {"subobject_essential_over_s4": [r.to_json()
                                                for r in se_reports],
                "essential_over_s3": [r.to_json() for r in ess_reports],
                "f2_witness_matches_classic_cospan": f2_ok}


def _check_cor_7_3_uniform() -> tuple[bool, dict]:
    """Uniform objects have division-monoid endomorphisms in the localized
    category: true for Z/4 (abelian backend) and Z/5; the 6-element symmetric
    group is not uniform and its endomorphism monoid is not a division monoid.
    """
    S = MonoFamily(ALL_MONOS)
    out, ok = {}, True
    # name, universe, object, whether it is uniform and its End a division
    # monoid, size of that End
    for name, objects, A, uniform, size in (
            ("Z4", registry.universe("z4-chain"), registry.zab(4), True, 2),
            ("Z5", registry.subgroup_universe(registry.z(5)), registry.z(5),
             True, 5),
            ("S3", registry.universe("s3-subgroups"), registry.s3(),
             False, 10)):
        spec = build_spec(S, objects)
        u, d = is_uniform(A, spec.M), end_spec_division_check(A, spec)
        out[name] = {"uniform": u.to_json(), "division": d.to_json()}
        ok = (ok and u.uniform == uniform and d.verdict == uniform
              and d.size == size)
    return ok, out


CHECKS = {
    "remark-6.8": _check_remark_6_8,
    "remark-6.7-search": _check_remark_6_7_search,
    "thm-6.9-sweep": _check_thm_6_9_sweep,
    "thm-5.2-pullbacks": _check_thm_5_2_pullbacks,
    "focal-suite": _check_focal_suite,
    "cor-7.3-uniform": _check_cor_7_3_uniform,
}

REPRODUCE_ITEMS = tuple(CHECKS)


def cmd_reproduce(args: argparse.Namespace) -> int:
    item = args.item
    if item not in CHECKS:
        return _error(2, error=f"unknown item {item!r}", known=sorted(CHECKS))
    ok, report = CHECKS[item]()
    payload = {"command": "reproduce", "item": item, "seed": args.seed,
               "status": "pass" if ok else "fail", "report": report}
    lines = [f"{item}: {'pass' if ok else 'FAIL'}"]
    _emit(args, payload, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speccat",
        description="Finite concrete categories: mono classification and "
                    "the localization at pullback stable essential monos.")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)

    for name, text in (("classify", "flag subobject inclusions"),
                       ("spec", "materialize and export the localized "
                                "category")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--backend", choices=sorted(BACKENDS), default=None)
        p.add_argument("--universe", default=None,
                       help=f"named universe: {', '.join(registry.UNIVERSES)}")
        p.add_argument("--input", action="append", default=[],
                       metavar="FILE", help="JSON object-descriptor file")
        p.add_argument("--bound-size", type=int, default=None)
        output(p)
    rep = sub.add_parser("reproduce", help="run a built-in check")
    rep.add_argument("item", help=f"one of: {', '.join(REPRODUCE_ITEMS)}")
    output(rep)
    return parser


def _error(code: int, **fields) -> int:
    """Write ``fields`` to stderr as one JSON object; return ``code``."""
    print(json.dumps(fields, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "spec":
            return cmd_spec(args)
        return cmd_reproduce(args)
    except json.JSONDecodeError as exc:
        return _error(2, error="malformed JSON", message=str(exc),
                      line=exc.lineno, column=exc.colno, position=exc.pos)
    except BoundExceeded as exc:
        return _error(3, error="bound exceeded", message=str(exc))
    except BrokenPipeError:
        # Python flushes stdout at exit: point it at devnull so that flush
        # cannot fail again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except (OSError, SpeccatError) as exc:
        return _error(2, error=type(exc).__name__, message=str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
