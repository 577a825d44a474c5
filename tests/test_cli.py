"""Command-line interface: schemas, determinism, exit codes, output routing."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import speccat
from speccat.cli import (
    EXIT_PIPE_CLOSED,
    REPRODUCE_ITEMS,
    RunConfig,
    _emit,
    _json_pieces,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    src = str(Path(speccat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    child = subprocess.run(
        [sys.executable, "-m", "speccat.cli", "classify", "--backend", "pset",
         "--input", str(desc)],
        capture_output=True, env=env, preexec_fn=cap, timeout=60)
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


def test_backend_universe_mismatch(capsys):
    code, _, err = run(capsys, "classify", "--universe", "z4-chain",
                       "--backend", "grp")
    assert code == 2


def test_nonpositive_bound_rejected(capsys):
    code, _, err = run(capsys, "classify", "--universe", "z4-chain",
                       "--bound-size", "0")
    assert code == 2


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
], ids=["ragged-cayley", "presentation-without-permutations",
        "non-object-entry", "boolean-size"])
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


# ---------------------------------------------------------------------------
# streamed output
# ---------------------------------------------------------------------------

def _many_pieces():
    payload = {"rows": [{"n": i, "name": f"r\u00e9{i}", "half": i / 2,
                         "odd": bool(i % 2), "none": None}
                        for i in range(8192)]}
    assert sum(1 for _ in _json_pieces(payload)) > 8192
    return payload


@pytest.mark.parametrize("payload", [
    {},
    {"z": [1.5, None, True, "\u00e9", float("nan")], "a": {"y": [], "x": {}}},
    _many_pieces(),
], ids=["empty", "mixed", "many-pieces"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_emit_writes_the_json_dumps_text(payload, to_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    _emit(RunConfig(command="spec", out=str(out) if to_file else None),
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
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(st.integers() | st.booleans(), max_size=6),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_TEXT, inner, max_size=4),
    st.dictionaries(_KEYS, inner, max_size=3),
    st.lists(inner | _UNSERIALIZABLE, max_size=3),
    st.dictionaries(st.one_of(st.integers(), st.floats()), inner,
                    max_size=3),
), max_leaves=12)


_TABLE = [[0, 1], [1, 0]]


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
# one list of lists held many times, at one indent level and at two: the
# writer keeps the text of such a list, which depends on its level
@example(obj=[{"table": _TABLE}] * 3)
@example(obj=[{"table": _TABLE}, [{"table": _TABLE}]] * 3)
def test_writer_text_is_the_json_dumps_text(obj):
    assert _written(obj) == _dumps(obj)


def test_writer_refuses_a_record():
    """A record is a tuple subclass; json.dumps would write it as a list,
    the writer refuses it like any other object, alone or in a list."""
    m = speccat.identity(speccat.cyclic_group(2))
    for payload in ({"m": m}, {"m": [m]}):
        with pytest.raises(TypeError):
            list(_json_pieces(payload))


def test_writer_streams_one_composition_table_per_piece():
    """A composition-shaped export of 10,000 tables is written one table at
    a time: many pieces, none longer than a table's own text."""
    objects = [f"X{i}" for i in range(12)]
    tables = [{"dom": objects[i % 12], "mid": objects[i // 12 % 12],
               "cod": objects[i // 144 % 12],
               "table": [[(i + r * c) % 7 for c in range(i % 5 + 1)]
                         for r in range(i % 3 + 1)]}
              for i in range(10_000)]
    payload = {"command": "spec",
               "export": {"objects": objects, "composition": tables}}
    pieces = list(_json_pieces(payload))
    assert "".join(pieces) == json.dumps(payload, indent=2, sort_keys=True)
    assert len(pieces) > len(tables)
    # a table's text as it stands in the document: indented three levels,
    # after its separator
    in_document = [",\n      " + json.dumps(t, indent=2, sort_keys=True)
                   .replace("\n", "\n      ") for t in tables]
    assert max(map(len, pieces)) <= max(map(len, in_document))
    assert set(in_document[1:]) <= set(pieces)


@pytest.mark.parametrize("lines", [[], ["one"], ["one", "two"]])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_emit_text_is_one_line_each(lines, to_file, tmp_path, capsys):
    out = tmp_path / "out.txt"
    _emit(RunConfig(command="spec", fmt="text",
                    out=str(out) if to_file else None), {"unused": 1}, lines)
    written = out.read_bytes() if to_file else capsys.readouterr().out.encode()
    assert written == ("\n".join(lines) + "\n").encode("utf-8")


def test_closed_output_pipe_exits_141_quietly():
    """The reader takes 10 bytes and goes.  The export of s3-subgroups
    (about 94 KB) outgrows a 64 KB pipe buffer, so the writer is still
    writing when the pipe closes."""
    src = str(Path(speccat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "speccat.cli", "spec",
         "--universe", "s3-subgroups"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
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
