"""cardl benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it is
a JSON record of the environment, golden hashes, sample counts and, when
traced, the per-layer table and the span coverage report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR_PARENT = ROOT / ".bench_work"

MIN_JOBS = 5  # the fewest jobs (each after its own set-up) a run times
BLAS_THREADS = "1"  # one BLAS thread: steadier on a shared host, and <= nproc
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import cardl from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import cardl
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import cardl from {SRC}: {exc}")
    if Path(cardl.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"benchmark: cardl was imported from {cardl.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(load_at_start) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(), "threads_requested": BLAS_THREADS},
        "nproc": nproc,
        "loadavg_at_start": load_at_start,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "note": f"shared {nproc}-vCPU host; timed only in process, with perf_counter scaled by "
                "a calibration probe (pace.py) and getrusage, no system-wide tracing",
    }


def measure(workload, seconds: float, clock) -> tuple[list[float], list[dict], object]:
    """Set up afresh before every job, so that no job finds state, files or
    warm results left by an earlier one, until `seconds` have passed and at
    least MIN_JOBS jobs have run.  Every set-up is timed."""
    setup_times, reps, state = [], [], None
    start = time.perf_counter()
    while len(reps) < MIN_JOBS or time.perf_counter() - start < seconds:
        state = None  # release the previous set-up before timing the next
        state, setup_s = clock.call(workload.setup)
        setup_times.append(setup_s)
        reps.append(workload.job(state, clock))
    return setup_times, reps, state


def run(args, workdir: Path, units: dict[str, str]) -> tuple[dict, dict]:
    """Measure, check and (with --trace 1) trace one workload; `units` maps
    the names of the metrics to report to their units."""
    from checks import Ledger
    from pace import PacedClock
    from workloads import WORKLOADS, criterion8_hashes, job_s

    ledger = Ledger()
    workload = WORKLOADS[args.workload](args.seed, workdir, ledger)
    if hasattr(workload, "prepare"):
        workload.prepare()
    clock = PacedClock()
    setup_times, reps, state = measure(workload, args.seconds, clock)
    metrics, detail = workload.summarize(reps)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    untraced_job_s = statistics.median(job_s(rep) for rep in reps)
    detail.update(setup_s_each=setup_times, repetitions=len(reps), job_s=untraced_job_s,
                  host_speed=clock.speed())
    workload.check(state, reps)
    state = reps = None
    golden_dir = workdir / "criterion8"
    golden_dir.mkdir()
    detail["golden_criterion8"] = criterion8_hashes(golden_dir, ledger)
    if args.trace:
        detail.update(traced(workload, untraced_job_s, units))
        metrics = detail.pop("per_layer_values")
    detail.update(attempted=ledger.attempted, failed=ledger.failed,
                  fail_ratio=ledger.failed / max(ledger.attempted, 1),
                  failures=ledger.failures[:20])
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    return result, detail


def traced(workload, untraced_job_s: float, units: dict[str, str]) -> dict:
    """One traced set-up and one traced job; per-layer values and coverage."""
    from layers import LAYER_METRICS, TRACE_OVERHEAD, coverage, layer_values
    from pace import PacedClock
    from spans import Tracer
    from workloads import job_s

    clock = PacedClock()
    tracer = Tracer()
    tracer.install()
    try:
        traced_job_s = job_s(workload.job(workload.setup(), clock))
    finally:
        tracer.uninstall()
    values = layer_values(tracer.spans)
    values[TRACE_OVERHEAD] = traced_job_s - untraced_job_s
    return {
        "per_layer_values": values,
        "per_layer": [
            {"metric": m.name, "value": values[m.name], "unit": units[m.name], "moves": m.moves,
             "applies_to": list(m.expected)}
            for m in LAYER_METRICS
        ],
        "spans_recorded": len(tracer.spans),
        "trace_overhead": {"traced_job_s": traced_job_s, "untraced_job_s": untraced_job_s,
                           "overhead_s": traced_job_s - untraced_job_s},
        "coverage_missing": coverage(tracer.spans, tracer.wrapped, workload.name),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    WORKDIR_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR_PARENT))
    try:
        result, detail = run(args, workdir, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(load_at_start), **detail}
    for line in detail.get("coverage_missing", []):
        print(f"coverage: {line}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
