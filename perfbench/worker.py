"""Child process of the benchmark: runs ringcat CLI invocations in-process.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the source tree to import ringcat from, warm-up argument
lists, the argument lists of one workload invocation (``{i}`` in them is
replaced by the invocation number), the pattern of untraced/traced
invocations to cycle through, and how long to keep going.  The result holds
per-invocation wall and CPU times, exit codes, tracer records, the process's
peak RSS and the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import for_invocation


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _numpy_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"version": numpy.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}


def _invoke(cli, steps: list[list[str]], index: int) -> dict:
    """One workload invocation: every step in turn, timed together."""
    step_walls, codes, errors = [], [], []
    sink = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for template in steps:
        argv = [for_invocation(arg, index) for arg in template]
        s0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the program under test failed; record it and go on
            code = -1
            errors.append(f"{type(exc).__name__}: {exc}")
        step_walls.append(time.perf_counter() - s0)
        codes.append(code)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if any(codes):
        errors.append(sink.getvalue()[-2000:])
    return {"wall": wall, "cpu": cpu, "step_walls": step_walls, "codes": codes, "errors": errors}


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import ringcat.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"worker: ringcat was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer()
    for argv in plan["warmup"]:
        if cli.main(argv) != 0:
            print(f"worker: warm-up invocation {argv} failed", file=sys.stderr)
            return 1

    invocations = []
    pattern = plan["pattern"]
    start = time.perf_counter()
    while len(invocations) < plan["min_invocations"] or time.perf_counter() - start < plan["seconds"]:
        index = len(invocations)
        traced = pattern[index % len(pattern)]
        Path(for_invocation(plan["out_dir"], index)).mkdir(parents=True, exist_ok=True)
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            record = _invoke(cli, plan["steps"], index)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        record["trace"] = tracer.snapshot() if traced else None
        invocations.append(record)

    result = {
        "invocations": invocations,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": _blas_threads(),
        "python": sys.version.split()[0],
        "numpy": _numpy_record(),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
