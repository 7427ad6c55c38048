"""Run one benchmark workload against the rplap sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` next
to this directory, with BLAS pinned to one thread.  The run sets up the
workload's seeded inputs SETUPS times (median reported as ``setup_s``), then
repeats whole passes over the input list until S seconds of passes have run,
checks every result outside the timed sections, and prints one JSON line per
record: the environment first, the result last.  With ``--trace 1`` every
layer is wrapped, the spans are written to perfbench/out/, and the result
holds the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import contextlib
import json
import math
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 5
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's src/ first on the path and import rplap from it."""
    src = ROOT / "src"
    if not (src / "rplap" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no rplap sources under {src}")
    sys.path.insert(0, str(src))
    import rplap

    if Path(rplap.__file__).resolve().parent != src / "rplap":
        raise SystemExit(f"run.py: rplap imported from {rplap.__file__}, not {src}")


def clear_program_caches():
    """Empty every functools cache in rplap so each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rplap" or name.startswith("rplap.")):
            continue
        for value in list(vars(module).values()):
            while value is not None:
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
                value = getattr(value, "__wrapped__", None)


def _openblas_libraries():
    """(library file, version string, thread count) for each loaded OpenBLAS."""
    import ctypes

    found = []
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is None:
                threads = getattr(lib, f"openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"openblas_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode()
                break
        found.append(entry)
    return found


def _git_sha():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def environment():
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "blas_variables": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
    }


_FAILED = object()  # stands in for the result of a verdict that raised


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def run_checks(cases, results):
    """Check each non-failed result; return the problems found."""
    problems = []
    for case, result in zip(cases, results):
        if result is not _FAILED:
            problems += [f"{case.label}: {text}" for text in case.check(result)]
    return problems


def run_pass(cases, tracer):
    """One timed pass: each verdict's wall time, its result (or _FAILED)."""
    times, results, failures = [], [], []
    for case in cases:
        start = time.perf_counter()
        try:
            with _span(tracer, "verdict"):
                result = case.call()
        except Exception:  # a failed verdict is counted and reported, not fatal
            result = _FAILED
            failures.append(f"{case.label} failed:\n{traceback.format_exc()}")
        times.append(time.perf_counter() - start)
        results.append(result)
    return times, results, failures


def main(argv=None):
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np

    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    env = environment()
    if any(lib.get("threads") != 1 for lib in env["openblas"]):
        raise SystemExit(f"run.py: BLAS not pinned to one thread: {env['openblas']}")
    print(json.dumps({"environment": env}), flush=True)

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    try:
        setup_times = []
        for _ in range(SETUPS):
            clear_program_caches()
            start = time.perf_counter()
            with _span(tracer, "setup"):
                cases, warm_up = WORKLOADS[args.workload](np.random.default_rng(args.seed))
                warm_up()
            setup_times.append(time.perf_counter() - start)

        verdict_times, failures, problems = [], [], []
        timed = 0.0
        passes = 0
        while passes == 0 or timed < args.seconds:
            start = time.perf_counter()
            with _span(tracer, "pass"):
                times, results, failed = run_pass(cases, tracer)
            timed += time.perf_counter() - start
            passes += 1
            verdict_times += times
            failures += failed
            problems += run_checks(cases, results)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for line in failures + problems:
        print(line, file=sys.stderr)
    attempted = len(verdict_times)
    run_info = {"setup_times_s": setup_times, "passes": passes, "timed_s": timed}
    verdicts_per_s = (attempted - len(failures)) / timed
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "verdicts_per_s": {"value": verdicts_per_s, "unit": "1/s"},
            "verdict_geomean_s": {
                "value": math.exp(statistics.fmean(math.log(t) for t in verdict_times)),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        per_layer, counters = tracer.per_phase(("setup", "pass"))
        metrics = layers.metrics(per_layer, counters, verdicts_per_s)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        run_info["trace"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"run": run_info}))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
