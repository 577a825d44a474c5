"""The speccat benchmark: fresh-process CLI workloads with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is one ``speccat`` CLI process, run one at a time, because the
program's module-global caches make in-process timings depend on order.
Every output is checked (exit code, ``status``, limit preservation, and a
sha256 or label-independent counts recorded in ``expected.json``).

``--trace 0`` repeats the workload's jobs for about ``--seconds``, times the
workload's set-up in fresh processes between the passes, and reports the
end-to-end metrics.  ``--trace 1`` runs the jobs once untraced and once under
``trace_job.py`` and reports the per-layer metrics.  Detail lines, including
the environment and the seed, come first; the last line of standard output is
the result object.

``--record`` reruns every job once and rewrites ``expected.json``; use it
only when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
TRACER = HERE / "trace_job.py"
# the metrics to report, with their units
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 12  # timed set-up processes, at least
SETUP_PER_GAP = 2

UNIVERSES = ("s3-subgroups", "s4-subgroups", "z4-chain", "a5-chain",
             "order-le-24", "pointed-le-4")
REPRODUCE_ITEMS = ("remark-6.8", "remark-6.7-search", "thm-6.9-sweep",
                   "thm-5.2-pullbacks", "focal-suite", "cor-7.3-uniform")
WORKLOADS = ("spec-s4", "decide", "pset")

@dataclass
class Job:
    name: str  # stable key into expected.json
    argv: list[str]
    seeded: bool = False


@dataclass
class Workload:
    jobs: list[Job]
    universes: list[str]  # what set-up builds
    inputs: list[tuple[Path, str]] = field(default_factory=list)


@dataclass
class Outcome:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_bytes: int
    failures: list[str]
    spans: dict | None = None


def build_workload(name: str, seed: int) -> Workload:
    files = write_inputs(seed, WORK / "inputs")
    if name == "spec-s4":
        return Workload([Job("spec s4-subgroups",
                             ["spec", "--universe", "s4-subgroups"])],
                        ["s4-subgroups"])
    if name == "decide":
        jobs = [Job(f"reproduce {item}", ["reproduce", item])
                for item in REPRODUCE_ITEMS]
        jobs += [Job(f"classify {u}", ["classify", "--universe", u])
                 for u in UNIVERSES]
        argv = ["classify"]
        for path in files["groups"]:
            argv += ["--input", str(path)]
        jobs.append(Job("classify catalog-relabelled", argv, seeded=True))
        return Workload(jobs, list(UNIVERSES),
                        [(p, "grp") for p in files["groups"]])
    if name == "pset":
        (p7,) = files["pset"]
        jobs = [Job("classify pset-7", ["classify", "--backend", "pset",
                                        "--input", str(p7)], seeded=True),
                Job("spec pointed-le-4", ["spec", "--universe",
                                          "pointed-le-4"])]
        return Workload(jobs, ["pointed-le-4"], [(p7, "pset")])
    raise SystemExit(f"unknown workload {name!r}; choose from "
                     f"{', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The caller's environment with the Python settings fixed.

    Bytecode is cached, as for an installed package, and hashing is
    deterministic, so call counts repeat exactly.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], deadline: float):
    """Run one process to completion; return (rc, stdout, wall, cpu, rss_mb).

    The child is killed at the deadline.  Resource use is the child's own,
    from ``wait4``, not the running maximum over all children.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        reaped = False
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            reaped = True
        finally:
            timer.cancel()
            proc.stdout.close()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def stderr_tail() -> str:
    return (WORK / "stderr.txt").read_text(errors="replace")[-400:]


def run_job(job: Job, expected: dict, deadline: float,
            traced: bool = False) -> Outcome:
    argv = [sys.executable, "-m", "speccat.cli"] + job.argv
    spans_path = WORK / "spans.json"
    if traced:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(TRACER), str(spans_path)] + job.argv
    rc, out, wall, cpu, rss = spawn(argv, deadline)
    failures = check_output(job, rc, out, expected)
    spans = None
    if traced:
        try:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failures.append(f"no span file: {exc}")
    if failures:
        print(f"FAILED {job.name}: {'; '.join(failures)}\n{stderr_tail()}",
              file=sys.stderr)
    return Outcome(job, wall, cpu, rss, len(out), failures, spans)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def flag_counts(payload: dict) -> dict[str, list[int]]:
    """Per codomain: [inclusions, essential, subobject-essential, stable].

    These do not depend on how the elements are labelled.
    """
    counts: dict[str, list[int]] = {}
    for r in payload["reports"]:
        row = counts.setdefault(r["morphism"]["cod"], [0, 0, 0, 0])
        row[0] += 1
        for i, key in enumerate(("essential", "subobject_essential",
                                 "stable_essential"), start=1):
            row[i] += bool(r[key] and r[key]["value"])
    return dict(sorted(counts.items()))


def seeded_key(job: Job, payload: dict) -> dict:
    counts = flag_counts(payload)
    if job.name == "classify pset-7":
        # the seed only names the pointed set
        counts = {"P7": v for v in counts.values()}
    return counts


def check_output(job: Job, rc: int, out: bytes, expected: dict) -> list[str]:
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    try:
        payload = json.loads(out)
        if job.argv[0] == "reproduce" and payload["status"] != "pass":
            failures.append(f"status {payload['status']!r}")
        if job.argv[0] == "spec":
            checks = payload["summary"]["limit_preservation"] or []
            if not checks or any(c["status"] != "pass" for c in checks):
                failures.append("limit preservation does not pass")
        if job.seeded and (seeded_key(job, payload)
                           != expected["flag_counts"].get(job.name)):
            failures.append("flag counts differ from the recorded ones")
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"unexpected output ({type(exc).__name__}: {exc})")
    if not job.seeded and digest(out) != expected["digests"].get(job.name):
        failures.append("stdout sha256 differs from the recorded one")
    return failures


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

SETUP_CODE = """\
import json, sys
import speccat, speccat.cli
from speccat import registry
from speccat.catcore import load_objects
universes, inputs = json.loads(sys.argv[1])
for name in universes:
    registry.universe(name)
for path, backend in inputs:
    with open(path, encoding="utf-8") as fh:
        load_objects(fh.read(), backend)
print(speccat.__file__)
"""


def measure_setup(w: Workload, repeats: int, deadline: float
                  ) -> tuple[list[float], int]:
    """Time fresh processes that import speccat and build the workload's
    inputs; return the times and the number that failed."""
    arg = json.dumps([w.universes, [[str(p), b] for p, b in w.inputs]])
    times, failed = [], 0
    for _ in range(repeats):
        rc, out, wall, _, _ = spawn([sys.executable, "-c", SETUP_CODE, arg],
                                    deadline)
        where = Path(out.decode().strip() or ".").resolve()
        if rc != 0 or SRC not in where.parents:
            failed += 1
            print(f"FAILED set-up (rc {rc}, speccat at {where})\n"
                  f"{stderr_tail()}", file=sys.stderr)
        else:
            times.append(wall)
    return times, failed


def run_pass(w: Workload, expected: dict, deadline: float,
             traced: bool = False) -> list[Outcome]:
    return [run_job(job, expected, deadline, traced) for job in w.jobs]


def tail_note(n: int) -> str:
    # the highest percentile with at least ten samples beyond it
    if n < 20:
        return f"{n} passes: too few for a tail percentile; median only"
    return f"{n} passes: p{100 * (1 - 10 / n):.0f} is the highest allowed"


def end_to_end(w: Workload, expected: dict, seconds: float,
               deadline: float) -> tuple[dict, int, int, dict]:
    # The first set-up process writes the bytecode cache and is not timed.
    # The timed ones run in pairs before and after every pass, so that they
    # sample the host over the same window as the jobs: its speed changes
    # within seconds, and a block of set-ups at one end would catch one state.
    _, setup_failed = measure_setup(w, 1, deadline)
    setup: list[float] = []
    setup_tried = 1

    def sample_setup(n: int) -> None:
        nonlocal setup_failed, setup_tried
        times, failed = measure_setup(w, n, deadline)
        setup.extend(times)
        setup_failed += failed
        setup_tried += n

    sample_setup(SETUP_PER_GAP)
    start = time.monotonic()
    passes = []
    # Start no pass that would end after --seconds, so that a run measures
    # about --seconds whatever the length of a pass.
    while True:
        passes.append(run_pass(w, expected, deadline))
        sample_setup(SETUP_PER_GAP)
        now = time.monotonic()
        if now + (now - start) / len(passes) > min(start + seconds,
                                                   deadline):
            break
    sample_setup(max(0, SETUP_REPEATS + 1 - setup_tried))
    outcomes = [o for p in passes for o in p]
    walls = [sum(o.wall_s for o in p) for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(o.cpu_s for o in p) for p in passes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "setup_s": statistics.median(setup) if setup else 0.0,
    }
    detail = {"passes": len(passes), "pass_wall_s": walls,
              "tail": tail_note(len(passes)), "setup_runs_s": setup,
              "job_wall_s": {o.job.name: o.wall_s for o in passes[0]}}
    failed = sum(bool(o.failures) for o in outcomes) + setup_failed
    return metrics, len(outcomes) + setup_tried, failed, detail


def per_layer(w: Workload, expected: dict, deadline: float
              ) -> tuple[dict, int, int, dict]:
    plain = run_pass(w, expected, deadline)
    traced = run_pass(w, expected, deadline, traced=True)
    outcomes = plain + traced
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    covered = 0.0
    for o in traced:
        if o.spans is None:
            continue
        covered += o.spans["covered_s"]
        for name, rec in o.spans["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for name, n in o.spans["counts"].items():
            counts[name] = counts.get(name, 0) + n

    missing: set[str] = set()

    def field_of(name: str) -> float:
        # a span the tracer never wrapped is a failure, not a zero
        func, _, kind = name.rpartition(".")
        kinds = ("calls", "self_s", "total_s")
        if func not in spans or kind not in kinds:
            missing.add(name)
            return 0
        return spans[func][kinds.index(kind)]

    fe_calls = field_of("fractions.fraction_equal.calls")
    special = {
        "catcore.enumerate_hom.homs": counts.get("catcore.enumerate_hom.homs",
                                                 0),
        "fractions.fraction_equal.equal_ratio":
            counts.get("fractions.fraction_equal.equal", 0) / fe_calls
            if fe_calls else 0.0,
        "cli.output_bytes": sum(o.out_bytes for o in traced),
        "uncovered_s": sum(o.wall_s for o in traced) - covered,
        "trace_overhead_s": (sum(o.wall_s for o in traced)
                             - sum(o.wall_s for o in plain)),
    }
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    metrics = {name: special[name] if name in special else field_of(name)
               for name in names if name != "fail_ratio"}
    if missing:
        print(f"FAILED: no span recorded for {', '.join(sorted(missing))}",
              file=sys.stderr)
    # the jobs, and the check that every named span was recorded
    attempted = len(outcomes) + 1
    failed = sum(bool(o.failures) for o in outcomes) + bool(missing)
    metrics["fail_ratio"] = failed / attempted
    detail = {"traced_wall_s": sum(o.wall_s for o in traced),
              "untraced_wall_s": sum(o.wall_s for o in plain),
              "spans": dict(sorted(spans.items()))}
    return metrics, attempted, failed, detail


def git_sha() -> str | None:
    """HEAD of the checkout; None when the checkout is not a git repository.

    The ceiling keeps git from taking an enclosing repository for this one.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def record() -> None:
    """Run every job once and write the digests and counts they produced."""
    deadline = time.monotonic() + 3600
    expected: dict = {"digests": {}, "flag_counts": {}}
    for name in WORKLOADS:
        for job in build_workload(name, 0).jobs:
            rc, out, _, _, _ = spawn(
                [sys.executable, "-m", "speccat.cli"] + job.argv, deadline)
            if rc != 0:
                raise SystemExit(f"{job.name}: exit code {rc}\n{stderr_tail()}")
            if job.seeded:
                expected["flag_counts"][job.name] = seeded_key(
                    job, json.loads(out))
            else:
                expected["digests"][job.name] = digest(out)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    # let a terminated run kill its running job on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "speccat" / "cli.py").is_file():
        print(f"no speccat sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    env = environment()
    w = build_workload(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, detail = per_layer(w, expected, deadline)
    else:
        metrics, attempted, failed, detail = end_to_end(
            w, expected, args.seconds, deadline)
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": env, "fail_ratio": failed / attempted,
                      **detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in BENCHMARK[kind]}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
