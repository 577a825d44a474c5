"""Command-line interface: schemas, determinism, exit codes, output routing."""

import hashlib
import json
import os
import subprocess
import sys
from argparse import Namespace
from collections import Counter, OrderedDict
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import speccat
from speccat import (
    ALL_MONOS,
    MonoFamily,
    SpectralCategory,
    build_spec,
    cli,
    end_spec_division_check,
    is_uniform,
    registry,
    verify_limit_preservation,
)
from speccat.cli import (
    EXIT_PIPE_CLOSED,
    REPRODUCE_ITEMS,
    _emit,
    _json_pieces,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_env() -> dict:
    """The environment of a child ``python -m speccat.cli`` that imports
    this checkout's package."""
    src = str(Path(speccat.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_json_schema(capsys):
    code, out, err = run(capsys, "classify", "--universe", "z4-chain")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["command"] == "classify"
    for r in payload["reports"]:
        assert set(r) >= {"in_S", "essential", "subobject_essential",
                          "stable_essential"}


def test_classify_is_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--universe", "s3-subgroups")
    _, out2, _ = run(capsys, "classify", "--universe", "s3-subgroups")
    assert out1 == out2


def test_classify_text_format(capsys):
    code, out, _ = run(capsys, "classify", "--universe", "z4-chain",
                       "--format", "text")
    assert code == 0
    assert "essential=" in out and '"reports"' not in out


def test_classify_p8_within_192_mib_of_address_space(tmp_path):
    """``classify --backend pset`` on an 8-element pointed set, in a child
    capped at 192 MiB of address space.  The pullbacks of its identity all
    have one key, so none of its 8**7 endomorphism tables is searched; a
    search that walks them peaks at about 284 MB of resident memory."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (192 << 20, 192 << 20))

    desc = tmp_path / "p8.json"
    desc.write_text('{"kind": "pointed_set", "name": "P8", "size": 8}')
    child = subprocess.run(
        [sys.executable, "-m", "speccat.cli", "classify", "--backend", "pset",
         "--input", str(desc)],
        capture_output=True, env=_cli_env(), preexec_fn=cap, timeout=60)
    assert child.returncode == 0, child.stderr[-2000:]
    reports = json.loads(child.stdout)["reports"]
    assert reports and all(r["in_S"] for r in reports)


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

def test_spec_json_schema(capsys):
    code, out, err = run(capsys, "spec", "--universe", "z4-chain")
    assert code == 0 and not err
    payload = json.loads(out)
    export = payload["export"]
    assert set(export) == {"objects", "exact", "homs", "composition"}
    sizes = {(h["dom"], h["cod"]): h["classes"]
             for h in payload["summary"]["hom_sizes"]}
    z4 = export["objects"][-1]
    assert sizes[(z4, z4)] == 2
    assert all(r["status"] == "pass"
               for r in payload["summary"]["limit_preservation"])


def test_spec_text_format(capsys):
    code, out, _ = run(capsys, "spec", "--universe", "s3-subgroups",
                       "--format", "text")
    assert code == 0
    assert "limit_preservation: pass" in out


def test_spec_out_file(tmp_path, capsys):
    dest = tmp_path / "spec.json"
    code, out, _ = run(capsys, "spec", "--universe", "z4-chain",
                       "--out", str(dest))
    assert code == 0 and out == ""
    payload = json.loads(dest.read_text())
    assert payload["command"] == "spec"


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def test_reproduce_first_item_passes(capsys):
    code, out, _ = run(capsys, "reproduce", "remark-6.8")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["report"]["pullback_apex_size"] == 1


def test_reproduce_unknown_item(capsys):
    code, out, err = run(capsys, "reproduce", "nonsense")
    assert code == 2
    assert sorted(REPRODUCE_ITEMS) == json.loads(err)["known"]


def test_reproduce_text_line(capsys):
    code, out, _ = run(capsys, "reproduce", "remark-6.8", "--format", "text")
    assert code == 0 and out.strip() == "remark-6.8: pass"


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_malformed_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"kind": "pointed_set",')
    code, _, err = run(capsys, "classify", "--backend", "pset",
                       "--input", str(bad))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "malformed JSON" and "line" in payload


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "classify", "--input", "/nope/missing.json")
    assert code == 2


def test_no_universe_or_input(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2
    assert "universe" in json.loads(err)["message"]


def test_bound_size_exceeded(capsys):
    code, _, err = run(capsys, "classify", "--universe", "s3-subgroups",
                       "--bound-size", "3")
    assert code == 3
    assert json.loads(err)["error"] == "bound exceeded"


def test_input_object_is_bounded_by_its_own_backend(tmp_path):
    """A pointed-set descriptor given without ``--backend`` gets the
    pointed-set size bound (16), not that of the default group backend
    (60), so a 17-element pointed set is refused at once."""
    desc = tmp_path / "p17.json"
    desc.write_text('{"kind": "pointed_set", "name": "P17", "size": 17}')
    child = subprocess.run(
        [sys.executable, "-m", "speccat.cli", "classify",
         "--input", str(desc)], capture_output=True, env=_cli_env(), timeout=10)
    assert child.returncode == 3
    assert json.loads(child.stderr)["error"] == "bound exceeded"


def test_large_cayley_table_is_refused_before_it_is_read(tmp_path, capsys):
    """A 61-row table over the default group bound (60) is refused by its
    length alone: its rows, which give no element an inverse, are never
    scanned."""
    desc = tmp_path / "t61.json"
    desc.write_text(json.dumps({"kind": "group", "name": "T61",
                                "cayley": [[0] * 61] * 61}))
    code, out, err = run(capsys, "classify", "--input", str(desc))
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "bound exceeded",
                               "message": "object T61 has size 61 > bound 60"}


def _presentation(name, degree):
    """The symmetric group on ``degree`` points, as a permutation
    presentation by an n-cycle and a transposition."""
    return {"kind": "group", "name": name, "presentation": {
        "degree": degree,
        "permutations": [[*range(1, degree), 0],
                         [1, 0, *range(2, degree)]]}}


def test_bound_size_reaches_a_permutation_presentation(tmp_path, capsys):
    """The 120-element S5 given as a presentation is refused under the
    default group bound (60) and classified under ``--bound-size 200``,
    with the verdicts of S5 given as its Cayley table."""
    pres = tmp_path / "s5-pres.json"
    pres.write_text(json.dumps(_presentation("S5", 5)))
    table = tmp_path / "s5-cayley.json"
    table.write_text(json.dumps({"kind": "group", "name": "S5", "cayley": [
        list(row) for row in speccat.load_objects(pres.read_text(), None,
                                                  200)[0].op]}))
    code, out, err = run(capsys, "classify", "--input", str(pres))
    assert code == 3 and out == ""
    assert "exceeds size bound 60" in json.loads(err)["message"]
    verdicts = []
    for desc in (pres, table):
        code, out, err = run(capsys, "classify", "--bound-size", "200",
                             "--input", str(desc))
        assert code == 0 and not err
        verdicts.append([
            {k: r[k] for k in ("in_S", "essential", "subobject_essential",
                               "stable_essential")}
            for r in json.loads(out)["reports"]])
    # S5 has 156 subgroups
    assert len(verdicts[0]) == 156 and verdicts[0] == verdicts[1]


def test_large_presentation_is_refused_at_once(tmp_path, capsys):
    """S9 (362,880 elements) given as a presentation stops at the default
    bound while it is closed, long before it is built."""
    desc = tmp_path / "s9.json"
    desc.write_text(json.dumps(_presentation("S9", 9)))
    start = perf_counter()
    code, out, err = run(capsys, "classify", "--input", str(desc))
    assert perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "bound exceeded"


def test_backend_universe_mismatch(capsys):
    code, _, err = run(capsys, "classify", "--universe", "z4-chain",
                       "--backend", "grp")
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "spec"])
def test_objects_in_two_backends_are_refused_at_once(tmp_path, capsys,
                                                     monkeypatch, command):
    """A group and a pointed set given without --backend: no morphism
    joins the two, so the command exits 2, naming both backends, before it
    enumerates a subobject or builds a spec."""
    group, pset = tmp_path / "g.json", tmp_path / "p.json"
    group.write_text('{"kind": "group", "name": "A", '
                     '"cayley": [[0, 1], [1, 0]]}')
    pset.write_text('{"kind": "pointed_set", "name": "P2", "size": 2}')

    def refuse(*args):
        raise AssertionError("the command began to compute")

    for name in ("subalgebras", "build_spec"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, command, "--input", str(group),
                         "--input", str(pset))
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "PreconditionViolation"
    assert "'grp'" in payload["message"] and "'pset'" in payload["message"]


def test_backend_input_mismatch(tmp_path, capsys):
    """The group-backend theorem must not be applied to a pointed set."""
    desc = tmp_path / "p3.json"
    desc.write_text('{"kind": "pointed_set", "name": "P3", "size": 3}')
    code, out, err = run(capsys, "spec", "--backend", "ab",
                         "--input", str(desc))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "PreconditionViolation"


def test_input_objects_carry_their_backend(tmp_path, capsys):
    """A pointed set given without --backend is spec'd in the pointed-set
    backend its object carries, so the group-backend theorem never reaches
    it: the bytes are those of ``--backend pset``, ``"exact": false``
    included."""
    desc = tmp_path / "p3.json"
    desc.write_text('{"kind": "pointed_set", "name": "P3", "size": 3}')
    outs = []
    for backend in ([], ["--backend", "pset"]):
        code, out, err = run(capsys, "spec", *backend, "--input", str(desc))
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["export"]["exact"] is False


def test_input_with_no_objects_exits_2(tmp_path, capsys):
    """An input that holds no objects lives in no backend: refused as an
    input in two backends is."""
    desc = tmp_path / "empty.json"
    desc.write_text("[]")
    for command in ("classify", "spec"):
        code, out, err = run(capsys, command, "--input", str(desc))
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "PreconditionViolation",
            "message": "input objects live in no backend; one universe "
                       "takes one backend"}


def test_nonpositive_bound_rejected(capsys):
    code, _, err = run(capsys, "classify", "--universe", "z4-chain",
                       "--bound-size", "0")
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "spec"])
def test_nonpositive_bound_is_refused_before_any_input_is_read(capsys,
                                                               command):
    code, out, err = run(capsys, command, "--input", "/nonexistent.json",
                         "--bound-size", "-1")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "PreconditionViolation",
                               "message": "bounds must be positive"}


@pytest.mark.parametrize("command", ["classify", "spec"])
def test_universe_and_input_exclude_each_other(capsys, command):
    """Given both, neither is dropped: the command exits 2 before it reads
    the input file, which need not exist."""
    code, out, err = run(capsys, command, "--universe", "z4-chain",
                         "--input", "/nonexistent.json")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "PreconditionViolation",
        "message": "--universe and --input exclude each other"}


def test_reproduce_takes_no_universe_options(capsys):
    """A reproduce item builds its own objects, so --backend, --universe,
    --input and --bound-size are usage errors there, not ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "remark-6.8", "--universe", "s4-subgroups",
              "--backend", "pset", "--input", "/nonexistent.json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_input_descriptor_roundtrip(tmp_path, capsys):
    objs = tmp_path / "objs.json"
    objs.write_text(json.dumps([
        {"kind": "pointed_set", "name": "A", "size": 2},
        {"kind": "pointed_set", "name": "B", "size": 3},
    ]))
    code, out, _ = run(capsys, "classify", "--backend", "pset",
                       "--input", str(objs))
    assert code == 0
    assert json.loads(out)["reports"]


@pytest.mark.parametrize("backend,descriptors", [
    ("grp", [{"kind": "group", "name": "R", "cayley": [[0, 1], [1]]}]),
    ("grp", [{"kind": "group", "name": "P",
              "presentation": {"degree": 3}}]),
    ("grp", [1]),
    ("pset", [{"kind": "pointed_set", "name": "T", "size": True}]),
    # Z2 and Z3 under one name: the export could not tell them apart
    ("grp", [{"kind": "group", "name": "A", "cayley": [[0, 1], [1, 0]]},
             {"kind": "group", "name": "A",
              "cayley": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}]),
], ids=["ragged-cayley", "presentation-without-permutations",
        "non-object-entry", "boolean-size", "duplicate-name"])
def test_malformed_descriptor_is_an_input_error(tmp_path, capsys, backend,
                                                descriptors):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(descriptors))
    code, out, err = run(capsys, "classify", "--backend", backend,
                         "--input", str(bad))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidObject"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# golden output
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("universe,digest", [
    ("s3-subgroups",
     "d516f36087a9124b113ada425dbbd9a5a8982af98280a8876b7f45631a8bd509"),
    ("z4-chain",
     "a76b3213ccd8e6cfc649e04ed8dccdfc13250f3b0d2d6a31b9080db6caf03da0"),
    # the digest of the same job in perfbench/expected.json
    ("pointed-le-4",
     "c9a2f441296c3f6bc4064bdde7d75a6da949d70bc094e706e7b167d6c8d1c988"),
])
def test_spec_export_is_byte_identical(universe, digest, tmp_path, capsys):
    out = tmp_path / "spec.json"
    assert main(["spec", "--universe", universe, "--format", "json",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert main(["spec", "--universe", universe]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == digest


def _payload_around_to_json(objects, cospans=()):
    """The payload of ``spec`` on ``objects``, built around
    :meth:`SpectralCategory.to_json`, the library's dict export: the oracle
    of the export that ``spec`` writes from the spec's tables."""
    spec = build_spec(MonoFamily(ALL_MONOS), objects)
    export = spec.to_json()
    return {"command": "spec", "seed": 0, "export": export, "summary": {
        "hom_sizes": [{"dom": h["dom"], "cod": h["cod"],
                       "classes": len(h["classes"])} for h in export["homs"]],
        "uniform": [is_uniform(A, spec.M).to_json() for A in objects],
        "division_monoids": [end_spec_division_check(A, spec).to_json()
                             for A in objects],
        "limit_preservation": (
            [r.to_json() for r in verify_limit_preservation(spec, cospans)]
            if cospans else None)}}


def _cayley(name, A):
    return {"kind": "group", "name": name, "cayley": [list(r) for r in A.op]}


def _renamed_z4_copy():
    """z4-chain and a copy of Z4 under another name: the copy has the key
    of Z4, so the two share every composition table."""
    z4_chain = registry.universe("z4-chain")
    return ["--backend", "ab"], [_cayley(A.id, A) for A in z4_chain] + [
        _cayley("Z4 copy", z4_chain[-1])]


def _escaped_names():
    """Objects whose names json escapes: a quote, a backslash, non-ASCII
    characters and a % sign, also in the names of their minimal
    M-subobjects."""
    return [], [_cayley('Z2 "two" \\ \u00e9 %s', registry.z(2)),
                _cayley('Z4 \\"\u2211', registry.z(4))]


@pytest.mark.parametrize("universe", [
    "s3-subgroups", "z4-chain", "a5-chain", "order-le-24", "pointed-le-4"])
def test_streamed_spec_is_the_text_of_to_json(universe, capsys):
    """The export that ``spec`` writes from the key-triple tables is the
    json.dumps text of the payload built around ``to_json()``.  CI checks
    s4-subgroups the same way."""
    assert main(["spec", "--universe", universe]) == 0
    payload = _payload_around_to_json(registry.universe(universe),
                                      registry.registered_cospans(universe))
    assert capsys.readouterr().out == json.dumps(
        payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("inputs", [_renamed_z4_copy, _escaped_names],
                         ids=["renamed-z4-copy", "escaped-names"])
def test_streamed_spec_of_an_input_is_the_text_of_to_json(inputs, tmp_path,
                                                          capsys):
    options, descriptors = inputs()
    desc = tmp_path / "objects.json"
    desc.write_text(json.dumps(descriptors))
    assert main(["spec", *options, "--input", str(desc)]) == 0
    objects = speccat.load_objects(desc.read_text(), *options[1:])
    payload = _payload_around_to_json(objects)
    assert capsys.readouterr().out == json.dumps(
        payload, indent=2, sort_keys=True) + "\n"


def test_export_of_a_spec_with_no_objects_is_the_text_of_to_json():
    spec = SpectralCategory(MonoFamily(ALL_MONOS), [])
    assert "".join(_json_pieces({"export": spec})) == json.dumps(
        {"export": spec.to_json()}, indent=2, sort_keys=True)


def test_spec_builds_no_export_dict(monkeypatch, capsys):
    """``spec`` never calls ``to_json``, and writes its export row by row:
    no piece is longer than the text of the composition entries of one
    (A, B) or of the hom entries out of one A."""
    def refuse(self):
        raise AssertionError("the export dict was built")

    lengths = []

    def recorded(payload):
        for piece in _json_pieces(payload):
            lengths.append(len(piece))
            yield piece

    monkeypatch.setattr(SpectralCategory, "to_json", refuse)
    monkeypatch.setattr(cli, "_json_pieces", recorded)
    assert main(["spec", "--universe", "s3-subgroups"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    # the digest of test_spec_export_is_byte_identical
    assert hashlib.sha256(out).hexdigest() == (
        "d516f36087a9124b113ada425dbbd9a5a8982af98280a8876b7f45631a8bd509")
    monkeypatch.undo()
    export = build_spec(MonoFamily(ALL_MONOS),
                        registry.universe("s3-subgroups")).to_json()
    rows = Counter()
    for key, entries in ((("dom", "mid"), export["composition"]),
                         (("dom",), export["homs"])):
        for e in entries:
            # an entry as it stands in the document, after its separator
            rows[(key, *map(e.get, key))] += len(
                ",\n      " + json.dumps(e, indent=2, sort_keys=True)
                .replace("\n", "\n      "))
    assert len(lengths) > len(rows) == 6 * 6 + 6
    assert max(lengths) <= max(rows.values())


@pytest.mark.parametrize("universe", ["s3-subgroups", "z4-chain"])
def test_spec_asks_each_hom_set_at_most_once(universe, monkeypatch, capsys):
    """The summary's sizes and the writer read the shared labels of each
    hom set, so ``spec`` builds the classes of hom(A, B) at most once per
    pair, for the division checks and the cone scans."""
    asked, hom = Counter(), SpectralCategory.hom

    def counted(self, A, B):
        asked[A.id, B.id] += 1
        return hom(self, A, B)

    monkeypatch.setattr(SpectralCategory, "hom", counted)
    assert main(["spec", "--universe", universe]) == 0
    capsys.readouterr()
    assert asked and max(asked.values()) == 1


# the digests are those of the same jobs in perfbench/expected.json.  The
# subgroup lattice of A5 feeds the first two; the last two pin the checked
# counts of the focal conditions and of the limit-preservation cones.
@pytest.mark.parametrize("argv,digest", [
    (["classify", "--universe", "a5-chain"],
     "732b7d458f6bd9bc04f0d86f9c3a967b455d0d462f8868902efb980090e5c248"),
    (["reproduce", "remark-6.7-search"],
     "ce6ef9e5fa3a513f4b5f48bd39d01e2b88e01b3d188fd5992bbe0768dcc40e47"),
    (["reproduce", "focal-suite"],
     "a22371ec0b24e774685c672ffe5c3b69033772b2263c7f734f7148855f2dd4d5"),
    (["reproduce", "thm-5.2-pullbacks"],
     "ed3d0899bcc071027916408868b1392919769d0229367a391e9ca173bc3053bf"),
], ids=["classify-a5-chain", "reproduce-remark-6.7-search",
        "reproduce-focal-suite", "reproduce-thm-5.2-pullbacks"])
def test_lattice_outputs_are_byte_identical(argv, digest, tmp_path):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (["classify", "--universe", "s3-subgroups"],
     "021e21f69d52a916aa2cbac348b0316405a9d2e039702b742036aa85f19253ce"),
    (["spec", "--universe", "z4-chain"],
     "985ff5aa0edf04e31f8fdc2180012166340d689cc134205ae6c0252d08962d1e"),
    (["reproduce", "remark-6.8"],
     "a87179418d3302b9f01386a64472b7187a309e97672e2caaa08ddf74fdaa51f2"),
], ids=["classify-s3-subgroups", "spec-z4-chain", "reproduce-remark-6.8"])
def test_text_outputs_are_byte_identical(argv, digest, capsys):
    assert main(argv + ["--format", "text"]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == digest


# ---------------------------------------------------------------------------
# streamed output
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("payload", [
    {},
    {"z": [1.5, None, True, "\u00e9", float("nan")], "a": {"y": [], "x": {}}},
    {"rows": [{"n": i, "name": f"r\u00e9{i}", "half": i / 2,
               "odd": bool(i % 2), "none": None} for i in range(8192)]},
], ids=["empty", "mixed", "many-pieces"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_emit_writes_the_json_dumps_text(payload, to_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    _emit(Namespace(format="json", out=str(out) if to_file else None),
          payload, ["unused"])
    written = out.read_bytes() if to_file else capsys.readouterr().out.encode()
    assert written == (json.dumps(payload, indent=2, sort_keys=True)
                       + "\n").encode("utf-8")


def _dumps(obj):
    """json.dumps(obj, indent=2, sort_keys=True), or TypeError if it raises
    one."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True)
    except TypeError:
        return TypeError


def _written(obj):
    try:
        return "".join(_json_pieces(obj))
    except TypeError:
        return TypeError


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
_KEYS = st.one_of(_TEXT, st.integers(), st.floats(), st.booleans(),
                  st.none())
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-2 ** 80, 2 ** 80), st.floats(), _TEXT)
_UNSERIALIZABLE = st.sampled_from([object(), {1}, b"1", 1j])
# keys a JSON string must escape, and %-template look-alikes
_ODD_KEYS = st.sampled_from(["%", "%s", "%%", "%(k)s", '"', "\\", "\u00e9",
                             "\U0001f600", "", "\n"]) | _TEXT
# a list that mixes ints with bools, None and floats
_MIXED = st.lists(st.one_of(st.integers(), st.booleans(), st.none(),
                            st.floats()), max_size=8)


def _rows(keys, inner):
    """Lists of dicts with one key set: in one key order, or, mapped, in
    two orders."""
    rows = st.lists(st.fixed_dictionaries({k: inner for k in keys}),
                    max_size=5)
    return rows | rows.map(lambda ds: [dict(reversed(d.items())) if i % 2
                                       else d for i, d in enumerate(ds)])


def _shared(value):
    """One value held at three indent levels and twice at one."""
    return [{"table": value}, [value, {"t": value}], value]


_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(st.integers() | st.booleans(), max_size=6),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_TEXT, inner, max_size=4),
    st.dictionaries(_KEYS, inner, max_size=3),
    st.lists(inner | _UNSERIALIZABLE, max_size=3),
    st.dictionaries(st.one_of(st.integers(), st.floats()), inner,
                    max_size=3),
    # lists of one shape
    st.lists(_ODD_KEYS, unique=True, max_size=4).flatmap(
        lambda keys: _rows(keys, inner)),
    st.lists(st.fixed_dictionaries({"v": _MIXED | inner}), max_size=4),
    _MIXED,
    st.lists(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=4),
             max_size=4),
    st.lists(st.lists(st.integers(0, 9), max_size=3), min_size=1,
             max_size=3).map(_shared),
    st.lists(st.lists(inner, max_size=3).map(tuple), max_size=3),
    st.lists(st.dictionaries(_TEXT, inner, max_size=3).map(OrderedDict),
             max_size=3),
    st.lists(st.dictionaries(_KEYS, inner, max_size=2), max_size=3),
), max_leaves=12)


_TABLE = [[0, 1], [1, 0]]


def _composition(entries):
    """A composition-shaped export: each of 40 tables is shared by many
    entries, and each class dict holds two maps."""
    objects = [f"X{i}" for i in range(13)]
    tables = [[[(i * r + c) % 7 for c in range(i % 4 + 1)]
               for r in range(i % 3 + 1)] for i in range(40)]
    return {"export": {
        "objects": objects,
        "homs": [{"dom": a, "cod": b, "classes": [
            {"index": i, "rep_left": {"dom": a + "0", "cod": a, "map": [0]},
             "rep_right": {"dom": a + "0", "cod": b, "map": [i, -i]}}
            for i in range(len(a) + len(b))]}
            for a in objects for b in objects[:3]],
        "composition": [{"dom": objects[i % 13], "mid": objects[i // 13 % 13],
                         "cod": objects[i // 169 % 13],
                         "table": tables[i * 7 % 40]}
                        for i in range(entries)]}}


def _deep(depth):
    obj = [1, True]
    for i in range(depth):
        obj = {f"k{i}": obj, f"n{i}": [()]} if i % 2 else [obj, {}]
    return obj


@settings(max_examples=200, deadline=None)
@given(obj=_VALUES)
@example(obj=[1, True, 2, False, -3])
@example(obj=(1, (2, 3), [], {}, ()))
@example(obj=[-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300])
@example(obj=[2 ** 200, -2 ** 200, -1, 0])
@example(obj={"\u00e9\u4e2d\U0001f600": "\x00\x1f\"\\\u2028\ud7ff",
              "\"\t\n": ["\x7f\u00ff"]})
@example(obj={1: "int", 2.5: "float", float("nan"): 0, float("-inf"): 1})
@example(obj={True: 1, None: 2})
@example(obj={False: [], -7: {}, 0.0: [[]]})
@example(obj={"a": 1, 2: "b"})
@example(obj={None: 1, "x": 2})
@example(obj={(1, 2): 3})
@example(obj=[1, {"a": [object()]}])
@example(obj=_deep(40))
# one list of lists held many times, at one indent level and at two: its
# text depends on its level
@example(obj=[{"table": _TABLE}] * 3)
@example(obj=[{"table": _TABLE}, [{"table": _TABLE}]] * 3)
@example(obj=_shared(_TABLE) + [_shared(_TABLE)])
@example(obj=[{"%s": 1, "\"": "%", "\\": [], "\u00e9": None, "": 2.5}] * 3)
@example(obj=[{"a%%": 1, "b": 2}, {"b": 3, "a%%": 4}])
@example(obj=[1, True, None, 2.5, -7, False, 2 ** 100, -2 ** 100])
@example(obj=[[1, 2], (3, 4), []])
@example(obj=_composition(5_000))
# dicts the writer hands whole to json.dumps, holding a shared table
@example(obj=OrderedDict(b=_shared(_TABLE), a=_TABLE))
@example(obj={2: _shared(_TABLE), 1: [{"table": _TABLE}] * 2})
def test_writer_text_is_the_json_dumps_text(obj):
    """Every value the writer streams key by key and every value it hands
    whole to json.dumps gives the text of json.dumps."""
    assert _written(obj) == _dumps(obj)


def test_writer_refuses_a_record():
    """A record is a tuple subclass; json.dumps would write it as a list,
    the writer refuses it like any other object: alone, in a list, and
    nested in lists and dicts."""
    m = speccat.identity(speccat.cyclic_group(2))
    for payload in ({"m": m}, {"m": [m]}, {"m": [{"a": m}, {"a": m}]},
                    {"m": [[m, m]]}, {"m": {1: m}}, {"m": [None, {"a": [m]}]},
                    {"m": OrderedDict(a=m)}, {"m": [True, m]}):
        with pytest.raises(TypeError):
            list(_json_pieces(payload))


@pytest.mark.parametrize("lines", [[], ["one"], ["one", "two"]])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_emit_text_is_one_line_each(lines, to_file, tmp_path, capsys):
    out = tmp_path / "out.txt"
    _emit(Namespace(format="text", out=str(out) if to_file else None),
          {"unused": 1}, lines)
    written = out.read_bytes() if to_file else capsys.readouterr().out.encode()
    assert written == ("\n".join(lines) + "\n").encode("utf-8")


def test_closed_output_pipe_exits_141_quietly():
    """The reader takes 10 bytes and goes.  The export of s3-subgroups
    (about 94 KB) outgrows a 64 KB pipe buffer, so the writer is still
    writing when the pipe closes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "speccat.cli", "spec",
         "--universe", "s3-subgroups"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        env=_cli_env())
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE_CLOSED == 141
    assert err == b""


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Start-up cost: the records are namedtuple subclasses, so importing
    the CLI pulls in neither ``dataclasses`` nor the ``inspect`` it imports.
    The child runs with -S, so no site ``.pth`` file can import them first
    or hide the check."""
    src = str(Path(speccat.__file__).resolve().parents[1])
    code = ("import sys, speccat.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         stdout=subprocess.PIPE, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
