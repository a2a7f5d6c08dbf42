"""ringcat benchmark: fixed CLI workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the repository root; ringcat is imported from ``src/``.  A run
byte-compiles the package (its build), then:

* ``--trace 0``: times a fresh interpreter importing ``ringcat.cli``
  (``setup_s``, median of several), and runs the workload in a fresh worker
  process in a closed loop -- warm-up, then one invocation after another for
  ``--seconds`` (at least two) -- reporting ``wall_s``, ``rows_per_s``,
  ``cpu_s``, ``peak_rss_mb``, ``setup_s`` and ``correct_frac``.
* ``--trace 1``: one worker alternates untraced and traced invocations, a
  second worker with BLAS pinned to one thread runs one traced invocation,
  and the per-layer metrics of BENCHMARK.json are reported.

Every invocation's CSV is checked against the stored reference.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import COUNT_KEYS, LAYERS
from workloads import (
    KNOWN_DEFECT,
    WORKLOADS,
    CheckResult,
    check_output,
    expected_rows,
    for_invocation,
    load_reference,
    seeded_argv,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: A run must finish in 180 s; leave room for the checks after the workers.
DEADLINE_S = 165.0
#: Fresh interpreters timed per run for setup_s, half before and half after
#: the timed worker, so that one slow spell of the machine does not set it.
SETUP_SAMPLES = 11
ONE_BLAS_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
#: Counts that depend on the last digits of results, and so may differ
#: between BLAS thread counts: compared only between runs of one worker.
ROUNDING_SENSITIVE = {"util.bytes", "hamiltonians.nnz"}


class BenchmarkError(Exception):
    """The benchmark could not produce a trustworthy result."""


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def run_child(argv: list[str], deadline: float, env: dict[str, str]) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a child process")
    try:
        # subprocess.run kills the child and waits for it when the timeout expires.
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child process exceeded the time limit: {argv}") from None


def build(deadline: float) -> None:
    proc = run_child([sys.executable, "-m", "compileall", "-q", str(SRC / "ringcat")], deadline, child_env())
    if proc.returncode != 0:
        raise BenchmarkError(f"byte-compiling ringcat failed:\n{proc.stdout}{proc.stderr}")


def measure_setup(deadline: float, count: int) -> list[float]:
    """Wall times of fresh interpreters that import ringcat.cli."""
    env = child_env()
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = run_child([sys.executable, "-c", "import ringcat.cli"], deadline, env)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"importing ringcat.cli failed:\n{proc.stderr}")
    return samples


def run_worker(plan: dict, work: Path, tag: str, deadline: float, env_extra=None) -> dict:
    plan_path, result_path = work / f"{tag}_plan.json", work / f"{tag}_result.json"
    plan_path.write_text(json.dumps(plan))
    proc = run_child(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)], deadline, child_env(env_extra)
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {tag} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def make_plan(workload, seed: int, work: Path, tag: str, pattern, seconds: float, min_invocations: int) -> dict:
    rng = random.Random(seed)
    out_dir = str(work / tag / "inv{i}")
    warm_dir = work / tag / "warmup"
    warm_dir.mkdir(parents=True)
    return {
        "src": str(SRC),
        "warmup": [seeded_argv(step, rng, str(warm_dir)) for step in workload.warmup],
        "steps": [seeded_argv(step, rng, out_dir) for step in workload.steps],
        "out_dir": out_dir,
        "pattern": pattern,
        "seconds": seconds,
        "min_invocations": min_invocations,
    }


def check_invocations(workload, plan: dict, result: dict, reference: dict) -> tuple[int, CheckResult]:
    """Check the CSV of every invocation; return the failed invocations and the row check."""
    failed, check = 0, CheckResult()
    for index, record in enumerate(result["invocations"]):
        if any(record["codes"]):
            failed += 1
            check.problems.append(f"invocation {index} exit codes {record['codes']}: {' | '.join(record['errors'])[:500]}")
        for (command, _), argv in zip(workload.steps, plan["steps"]):
            out = Path(for_invocation(argv[argv.index("--out") + 1], index))
            step = check_output(command, out, reference)
            step.problems = [f"invocation {index}: {p}" for p in step.problems]
            check.add(step)
    return failed, check


def failed_rows_note(invocations: int, check: CheckResult) -> str:
    failed_rows = check.expected - check.ok
    return (
        f"failed_frac {failed_rows / check.expected:.6f}: {failed_rows // invocations} of"
        f" {check.expected // invocations} rows per invocation, {check.known_defect // invocations}"
        f" of them the known defect, {KNOWN_DEFECT}"
    )


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float, work: Path, deadline: float, reference: dict):
    setup = measure_setup(deadline, SETUP_SAMPLES // 2)
    plan = make_plan(workload, seed, work, "timed", [False], seconds, 2)
    result = run_worker(plan, work, "timed", deadline)
    setup_s = statistics.median(setup + measure_setup(deadline, SETUP_SAMPLES - len(setup)))
    failed, check = check_invocations(workload, plan, result, reference)
    attempted = len(result["invocations"])
    wall_s = statistics.median(r["wall"] for r in result["invocations"])
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "rows_per_s": metric(expected_rows(reference, workload) / wall_s, "1/s"),
        "cpu_s": metric(statistics.median(r["cpu"] for r in result["invocations"]), "s"),
        "peak_rss_mb": metric(result["maxrss_kib"] / 1024.0, "MiB"),
        "setup_s": metric(setup_s, "s"),
        "correct_frac": metric(check.ok / check.expected, "frac"),
    }
    notes = [
        "invocation walls (s): " + " ".join(f"{r['wall']:.3f}" for r in result["invocations"]),
        failed_rows_note(attempted, check),
    ]
    return metrics, attempted, failed, check.problems, notes, result


def check_counts(traces: list[tuple[str, dict]]) -> None:
    """Count-type metrics must repeat exactly across the traced invocations
    of (worker name, trace record); raise if one does not."""
    first_worker, first = traces[0]
    for worker, other in traces[1:]:
        keys = [k for k in COUNT_KEYS if worker == first_worker or k not in ROUNDING_SENSITIVE]
        pairs = [(k, first["counts"][k], other["counts"][k]) for k in keys]
        pairs += [(f"{layer}.calls", first["calls"][layer], other["calls"][layer]) for layer in LAYERS]
        for key, a, b in pairs:
            if a != b:
                raise BenchmarkError(f"count {key} differs: {a} ({first_worker} worker) vs {b} ({worker} worker)")


def per_layer(workload, seed: int, seconds: float, work: Path, deadline: float, reference: dict):
    plan = make_plan(workload, seed, work, "traced", [False, True], seconds, 2)
    result = run_worker(plan, work, "traced", deadline)
    plan_1t = make_plan(workload, seed, work, "traced_1t", [True], 0.0, 1)
    result_1t = run_worker(plan_1t, work, "traced_1t", deadline, ONE_BLAS_THREAD)

    failed, check = check_invocations(workload, plan, result, reference)
    failed_1t, check_1t = check_invocations(workload, plan_1t, result_1t, reference)
    attempted = len(result["invocations"]) + len(result_1t["invocations"])
    failed += failed_1t
    problems = check.problems + check_1t.problems

    traced = [r for r in result["invocations"] if r["traced"]]
    untraced = [r for r in result["invocations"] if not r["traced"]]
    traced_1t = result_1t["invocations"]
    check_counts([("default", r["trace"]) for r in traced] + [("one-thread", r["trace"]) for r in traced_1t])

    def med(values) -> float:
        return statistics.median(list(values))

    trace = traced[0]["trace"]
    counts = trace["counts"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(med(r["trace"]["self_s"][layer] for r in traced), "s")
        metrics[f"{layer}.calls"] = metric(trace["calls"][layer], "count")
    entries, computed = counts["hamiltonians.entries"], counts["solver.pairs_computed"]
    metrics["hamiltonians.entries"] = metric(entries, "count")
    metrics["hamiltonians.nnz_frac"] = metric(counts["hamiltonians.nnz"] / entries if entries else 0.0, "frac")
    metrics["solver.pairs_computed"] = metric(computed, "count")
    metrics["solver.pairs_returned"] = metric(counts["solver.pairs_returned"], "count")
    metrics["solver.useful_frac"] = metric(counts["solver.pairs_returned"] / computed if computed else 0.0, "frac")
    metrics["linalg.dim3_sum"] = metric(counts["linalg.dim3_sum"], "count")
    metrics["linalg.self_s_1t"] = metric(med(r["trace"]["self_s"]["linalg"] for r in traced_1t), "s")
    metrics["effective.lowdin_iterations"] = metric(counts["effective.lowdin_iterations"], "count")
    metrics["effective.paths"] = metric(counts["effective.paths"], "count")
    path_steps = [k for k, (command, _) in enumerate(workload.steps) if command == "paths"]
    paths_wall = med(sum(r["step_walls"][k] for k in path_steps) for r in traced) if path_steps else 0.0
    metrics["effective.paths_per_s"] = metric(counts["effective.paths"] / paths_wall if paths_wall else 0.0, "1/s")
    metrics["util.rows"] = metric(counts["util.rows"], "count")
    metrics["util.bytes"] = metric(counts["util.bytes"], "B")

    traced_wall = med(r["wall"] for r in traced)
    untraced_wall = med(r["wall"] for r in untraced)
    unattributed = [r["wall"] - sum(r["trace"]["self_s"].values()) for r in traced]
    if min(unattributed) < -1e-3:
        raise BenchmarkError(f"layer self times exceed the traced wall time by {-min(unattributed):.6f} s")
    metrics["trace.overhead_frac"] = metric((traced_wall - untraced_wall) / untraced_wall, "frac")
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.unattributed_s"] = metric(med(unattributed), "s")
    notes = [
        f"invocations: {len(untraced)} untraced, {len(traced)} traced, {len(traced_1t)} traced with one BLAS thread",
        f"untraced wall {untraced_wall:.4f} s; traced wall {traced_wall:.4f} s ="
        f" layer self times {traced_wall - med(unattributed):.4f} s + unattributed {med(unattributed):.4f} s",
        failed_rows_note(len(result["invocations"]), check),
    ]
    return metrics, attempted, failed, problems, notes, result


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(result: dict) -> dict:
    return {
        "python": result["python"],
        "numpy": result["numpy"]["version"],
        "blas": result["numpy"]["blas"],
        "blas_version": result["numpy"]["blas_version"],
        "blas_threads": result["blas_threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "git_sha": git_sha(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict):
    deadline = time.monotonic() + DEADLINE_S
    build(deadline)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}_", dir=WORK))
    try:
        measure = per_layer if trace else end_to_end
        return measure(WORKLOADS[name], seed, seconds, work, deadline, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, metrics: dict, notes: list[str], problems: list[str]) -> None:
    print(f"== {name}")
    for key, m in metrics.items():
        print(f"  {key:30s} {m['value']:>16.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    for problem in problems[:20]:
        print(f"  FAILED CHECK: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringcat" / "cli.py").is_file():
        print(f"perfbench: no ringcat sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reference = load_reference()
    combined, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            metrics, a, f, problems, notes, result = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
            report(name, metrics, notes, problems)
            prefix = "" if len(names) == 1 else f"{name}."
            combined.update({prefix + key: m for key, m in metrics.items()})
            attempted, failed = attempted + a, failed + f
            correct = correct and not problems
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(result)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
