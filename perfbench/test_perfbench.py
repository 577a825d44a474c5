"""Tests of the benchmark itself.

Run from the root of the repository with ``python3 -m pytest perfbench -q``.
They start the real CLI in fresh processes, so they take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from inputs import catalog_tables, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def copy_bench(dest: Path, with_src: bool = True) -> Path:
    """A checkout in ``dest`` holding BENCHMARK.json, perfbench/ and src/."""
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def result_of(lines):
    return json.loads(lines[-1])


def metric_names(kind: str) -> list[str]:
    return [m["name"] for m in BENCHMARK[kind]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc, lines = run_bench("--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == metric_names(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(lines[-2])
    assert detail["seed"] == 7 and detail["fail_ratio"] == 0
    assert {"git_sha", "python", "nproc", "loadavg_at_start"} <= set(
        detail["environment"])


@pytest.mark.parametrize("section, job", [
    ("digests", "spec pointed-le-4"),
    ("flag_counts", "classify pset-7"),
])
def test_corrupted_record_is_a_failure(tmp_path, section, job):
    checkout = copy_bench(tmp_path)
    path = checkout / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    if section == "digests":
        expected[section][job] = "0" * 64
    else:
        expected[section][job]["P7"][1] += 1
    path.write_text(json.dumps(expected))
    proc, lines = run_bench("--workload", "pset", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=checkout)
    assert proc.returncode != 0
    result = result_of(lines)
    assert not result["correct"] and result["failed"] > 0
    assert json.loads(lines[-2])["fail_ratio"] > 0
    assert job in proc.stderr


def test_unknown_span_is_a_failure(tmp_path):
    checkout = copy_bench(tmp_path)
    path = checkout / "BENCHMARK.json"
    benchmark = json.loads(path.read_text())
    benchmark["per_layer"].insert(0, {"name": "catcore.no_such_fn.calls",
                                      "unit": "count", "better": "lower"})
    path.write_text(json.dumps(benchmark))
    proc, lines = run_bench("--workload", "pset", "--seed", "3",
                            "--seconds", "1", "--trace", "1", cwd=checkout)
    assert proc.returncode != 0
    result = result_of(lines)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["fail_ratio"]["value"] > 0
    assert "catcore.no_such_fn.calls" in proc.stderr


def test_traced_call_counts_repeat():
    counts = []
    for _ in range(2):
        proc, lines = run_bench("--workload", "pset", "--seed", "2",
                                "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = result_of(lines)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".homs", "output_bytes"))})
    assert counts[0] == counts[1]
    assert counts[0]["limits.pullback.calls"] > 100_000


def element_orders(table):
    orders = []
    for a in range(len(table)):
        k, x = 1, a
        while x != 0:
            x, k = table[x][a], k + 1
        orders.append(k)
    return sorted(orders)


def test_inputs_depend_only_on_seed(tmp_path):
    a = write_inputs(5, tmp_path / "a")
    b = write_inputs(5, tmp_path / "b")
    c = write_inputs(6, tmp_path / "c")
    for pa, pb, pc in zip(a["groups"], b["groups"], c["groups"]):
        da, dc = json.loads(pa.read_text()), json.loads(pc.read_text())
        assert pa.read_text() == pb.read_text()
        assert da["cayley"] != dc["cayley"]
        # identity stays at 0, and element orders survive the relabelling
        assert da["cayley"][0] == list(range(len(da["cayley"])))
        assert element_orders(da["cayley"]) == element_orders(
            catalog_tables()[da["name"]])


def test_refuses_to_run_without_sources(tmp_path):
    copy_bench(tmp_path, with_src=False)
    proc, lines = run_bench("--workload", "pset", "--seed", "0",
                            "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not lines
