"""Batch command-line front door.

Three subcommands: ``classify`` reports the mono-class flags of every
subobject inclusion in a universe, ``spec`` materializes and exports the
localized category, and ``reproduce`` runs the built-in counterexample and
theorem checks.  Output is deterministic: canonical orders everywhere and
sorted JSON keys.  JSON is written as it is rendered, one piece per entry
of the largest lists (a ``composition`` table, a ``homs`` entry), never held
as one string, and is byte for byte the text of
``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline.  A
composition table that the export shares between entries is rendered at
most twice per indent level.  Peak RSS of ``spec --universe s4-subgroups``
(24 MB of JSON) is about 38 MB on CPython 3.11, x86-64.

Exit codes: 0 success, 1 property failure (witness JSON on stdout),
2 input error, 3 resource bound exceeded, 141 (128 + SIGPIPE) the reader
closed the output pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii

from . import registry
from .catcore import (
    AB,
    BACKENDS,
    DEFAULT_SIZE_BOUNDS,
    GRP,
    FiniteObject,
    compose,
    load_objects,
    subalgebras,
)
from .errors import BoundExceeded, PreconditionViolation, SpeccatError
from .fractions import check_focal
from .limits import pullback
from .monoclasses import (
    ALL_MONOS,
    ESSENTIAL_FAMILY,
    MonoClassSpec,
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
    build_spec,
    end_spec_division_check,
    is_uniform,
    verify_limit_preservation,
)

REPRODUCE_ITEMS = ("remark-6.8", "remark-6.7-search", "thm-6.9-sweep",
                   "thm-5.2-pullbacks", "focal-suite", "cor-7.3-uniform")


class RunConfig(namedtuple(
        "RunConfig",
        "command backend universe inputs bound_size fmt out seed item",
        defaults=(None, None, (), None, "json", None, 0, None))):
    """Fields: ``command: str``, ``backend: str | None``,
    ``universe: str | None``, ``inputs: tuple[str, ...]``,
    ``bound_size: int | None``, ``fmt: str``, ``out: str | None``,
    ``seed: int``, ``item: str | None``."""

    __slots__ = ()


#: exit code for a closed output pipe, as a shell reports death by SIGPIPE
EXIT_PIPE_CLOSED = 128 + 13

# ---------------------------------------------------------------------------
# JSON output: the text of json.dumps(obj, indent=2, sort_keys=True), built
# with str.join instead of the stdlib's pure-Python indenting encoder
# ---------------------------------------------------------------------------

_INDENT = "  "


def _scalar_text(o) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == float("inf"):
            return "Infinity"
        if o == float("-inf"):
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    # bools are ints; none of these texts needs escaping
    if key is None or isinstance(key, (int, float)):
        return '"' + _scalar_text(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_text(o, level: int, memo: dict) -> str:
    """The text of o with its first line at indent ``level``.  The text of
    a list of lists is kept in ``memo`` under (id, level), so a table that
    the payload holds many times is rendered at most twice per indent
    level.  Only an exact list or tuple is an array: a record (a namedtuple
    subclass) is refused like any other object."""
    if type(o) in (list, tuple):
        if not o:
            return "[]"
        nested = type(o) is list and type(o[0]) is list
        if nested:
            key = id(o), level
            text = memo.get(key)
            if text:
                return text
        inner = "\n" + _INDENT * (level + 1)
        # exact ints only (type, not isinstance: a bool is written true, not
        # 1), whose repr is int.__repr__
        if set(map(type, o)) == {int}:
            items = map(repr, o)
        else:
            items = [_json_text(x, level + 1, memo) for x in o]
        text = ("[" + inner + ("," + inner).join(items)
                + "\n" + _INDENT * level + "]")
        if nested:
            # the text is kept from the second time on: a table met once
            # holds no memory past its piece
            memo[key] = text if key in memo else ""
        return text
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = "\n" + _INDENT * (level + 1)
        items = [_key_text(k) + ": " + _json_text(v, level + 1, memo)
                 for k, v in sorted(o.items())]
        return ("{" + inner + ("," + inner).join(items)
                + "\n" + _INDENT * level + "}")
    return _scalar_text(o)


def _json_pieces(o):
    """Yield the text of o in pieces: a dict piece by key, a list of
    containers piece by item, every other value whole.

    A list of lists (a composition table) is rendered at most twice per
    indent level and its text reused wherever the payload holds the same
    list again.  The memo is keyed on ``id`` and made fresh for each call:
    the payload keeps every list it holds alive while it is written, so no
    id is reused inside one call."""
    yield from _pieces(o, 0, {})


def _pieces(o, level: int, memo: dict):
    if isinstance(o, dict) and o:
        inner = "\n" + _INDENT * (level + 1)
        sep = "{" + inner
        for k, v in sorted(o.items()):
            yield sep + _key_text(k) + ": "
            yield from _pieces(v, level + 1, memo)
            sep = "," + inner
        yield "\n" + _INDENT * level + "}"
    elif (type(o) in (list, tuple)
          and any(isinstance(x, (dict, list, tuple)) for x in o)):
        inner = "\n" + _INDENT * (level + 1)
        sep = "[" + inner
        for x in o:
            yield sep + _json_text(x, level + 1, memo)
            sep = "," + inner
        yield "\n" + _INDENT * level + "]"
    else:
        yield _json_text(o, level, memo)


def _emit(config: RunConfig, payload: dict, text_lines: list[str]) -> None:
    with (open(config.out, "w", encoding="utf-8") if config.out
          else nullcontext(sys.stdout)) as fh:
        if config.fmt == "json":
            fh.writelines(_json_pieces(payload))
        else:
            fh.write("\n".join(text_lines))
        fh.write("\n")
        fh.flush()


def _resolve_universe(config: RunConfig) -> tuple[str, list[FiniteObject]]:
    if config.universe:
        backend = registry.universe_backend(config.universe)
        if config.backend and config.backend != backend:
            raise PreconditionViolation(
                f"universe {config.universe!r} lives in backend {backend!r}, "
                f"not {config.backend!r}")
        objects = registry.universe(config.universe)
    elif config.inputs:
        backend = config.backend or GRP
        objects = []
        for path in config.inputs:
            with open(path, encoding="utf-8") as fh:
                objects.extend(load_objects(fh.read(), backend))
    else:
        raise PreconditionViolation("need --universe or --input")
    bound = config.bound_size or DEFAULT_SIZE_BOUNDS[backend]
    for A in objects:
        if A.size > bound:
            raise BoundExceeded(
                f"object {A.id} has size {A.size} > bound {bound}")
    return backend, objects


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(config: RunConfig) -> int:
    _, objects = _resolve_universe(config)
    S = MonoClassSpec(ALL_MONOS)
    reports = []
    for A in objects:
        for sub in subalgebras(A):
            m = sub.inclusion()
            reports.append(classify(m, S, objects))
    payload = {"command": "classify", "seed": config.seed,
               "reports": [r.to_json() for r in reports]}
    lines = []
    for r in reports:
        m = r.morphism
        lines.append(
            f"{m.dom.id} -> {m.cod.id}: in_S={r.in_S} "
            f"essential={bool(r.essential)} "
            f"subobject_essential={bool(r.subobject_essential)} "
            f"stable_essential={bool(r.stable_essential)}")
    _emit(config, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

def cmd_spec(config: RunConfig) -> int:
    backend, objects = _resolve_universe(config)
    spec = build_spec(backend, MonoClassSpec(ALL_MONOS), objects, verify=True)
    export = spec.to_json()
    uniform = [is_uniform(A, spec.M).to_json() for A in objects]
    division = [end_spec_division_check(A, spec).to_json() for A in objects]
    preservation = None
    if config.universe:
        cospans = registry.registered_cospans(config.universe)
        if cospans:
            preservation = [r.to_json()
                            for r in verify_limit_preservation(spec, cospans)]
    payload = {"command": "spec", "seed": config.seed, "export": export,
               "summary": {"hom_sizes": [
                   {"dom": h["dom"], "cod": h["cod"],
                    "classes": len(h["classes"])} for h in export["homs"]],
                   "uniform": uniform, "division_monoids": division,
                   "limit_preservation": preservation}}
    lines = [f"objects: {', '.join(export['objects'])}"]
    for h in export["homs"]:
        lines.append(f"hom({h['dom']},{h['cod']}): {len(h['classes'])} classes")
    for u in uniform:
        lines.append(f"uniform({u['object']}): {u['uniform']}")
    for d in division:
        lines.append(f"division_monoid({d['object']}): size={d['size']} "
                     f"verdict={d['verdict']}")
    if preservation is not None:
        ok = all(r["status"] == "pass" for r in preservation)
        lines.append(f"limit_preservation: {'pass' if ok else 'FAIL'} "
                     f"({len(preservation)} cospans)")
    _emit(config, payload, lines)
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
    S = MonoClassSpec(ALL_MONOS)
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
    S = MonoClassSpec(ALL_MONOS)
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
    S = MonoClassSpec(ALL_MONOS)
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
        backend = registry.universe_backend(name)
        objects = registry.universe(name)
        spec = build_spec(backend, MonoClassSpec(ALL_MONOS), objects,
                          verify=False)
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
    se_fam = stable_essential_family(GRP, MonoClassSpec(ALL_MONOS),
                                     s4_universe)
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
    S = MonoClassSpec(ALL_MONOS)
    out = {}

    z4_objects = registry.universe("z4-chain")
    spec_ab = build_spec(AB, S, z4_objects, verify=True)
    z4 = registry.zab(4)
    u4 = is_uniform(z4, spec_ab.M)
    d4 = end_spec_division_check(z4, spec_ab)
    out["Z4"] = {"uniform": u4.to_json(), "division": d4.to_json()}

    z5 = registry.z(5)
    z5_objects = registry.subgroup_universe(z5)
    spec_z5 = build_spec(GRP, S, z5_objects, verify=True)
    u5 = is_uniform(z5, spec_z5.M)
    d5 = end_spec_division_check(z5, spec_z5)
    out["Z5"] = {"uniform": u5.to_json(), "division": d5.to_json()}

    s3_objects = registry.universe("s3-subgroups")
    spec_s3 = build_spec(GRP, S, s3_objects, verify=True)
    s3 = registry.s3()
    u3 = is_uniform(s3, spec_s3.M)
    d3 = end_spec_division_check(s3, spec_s3)
    out["S3"] = {"uniform": u3.to_json(), "division": d3.to_json()}

    ok = (u4.uniform and d4.verdict and d4.size == 2
          and u5.uniform and d5.verdict and d5.size == 5
          and not u3.uniform and not d3.verdict and d3.size == 10)
    return ok, out


CHECKS = {
    "remark-6.8": _check_remark_6_8,
    "remark-6.7-search": _check_remark_6_7_search,
    "thm-6.9-sweep": _check_thm_6_9_sweep,
    "thm-5.2-pullbacks": _check_thm_5_2_pullbacks,
    "focal-suite": _check_focal_suite,
    "cor-7.3-uniform": _check_cor_7_3_uniform,
}


def cmd_reproduce(config: RunConfig) -> int:
    item = config.item
    if item not in CHECKS:
        print(json.dumps({"error": f"unknown item {item!r}",
                          "known": sorted(CHECKS)}, sort_keys=True),
              file=sys.stderr)
        return 2
    ok, report = CHECKS[item]()
    payload = {"command": "reproduce", "item": item, "seed": config.seed,
               "status": "pass" if ok else "fail", "report": report}
    lines = [f"{item}: {'pass' if ok else 'FAIL'}"]
    _emit(config, payload, lines)
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

    def common(p):
        p.add_argument("--backend", choices=sorted(BACKENDS), default=None)
        p.add_argument("--universe", default=None,
                       help=f"named universe: {', '.join(registry.UNIVERSES)}")
        p.add_argument("--input", action="append", default=[],
                       metavar="FILE", help="JSON object-descriptor file")
        p.add_argument("--bound-size", type=int, default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("classify", help="flag subobject inclusions"))
    common(sub.add_parser("spec", help="materialize and export the "
                                       "localized category"))
    rep = sub.add_parser("reproduce", help="run a built-in check")
    rep.add_argument("item", help=f"one of: {', '.join(REPRODUCE_ITEMS)}")
    common(rep)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, backend=args.backend,
                    universe=args.universe, inputs=tuple(args.input),
                    bound_size=args.bound_size,
                    fmt=args.format, out=args.out, seed=args.seed,
                    item=getattr(args, "item", None))
    if cfg.bound_size is not None and cfg.bound_size <= 0:
        raise PreconditionViolation("bounds must be positive")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.command == "classify":
            return cmd_classify(config)
        if config.command == "spec":
            return cmd_spec(config)
        return cmd_reproduce(config)
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": "malformed JSON", "message": str(exc),
                          "line": exc.lineno, "column": exc.colno,
                          "position": exc.pos}, sort_keys=True),
              file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(json.dumps({"error": "bound exceeded", "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Python flushes stdout at exit: point it at devnull so that flush
        # cannot fail again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except (OSError, SpeccatError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
