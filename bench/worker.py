"""One repetition of a workload in a fresh interpreter; started by run.py.

Usage: python3 bench/worker.py [PLAN.json]

``bilap.cli`` is imported first, so the moment that import ends, read on the
system-wide monotonic clock, marks the end of the user's set-up cost.  Without
a plan the worker reports only that moment.  With a plan it runs the plan's
CLI commands one after another and prints one JSON line: the wall and CPU
time of the sequence, the peak resident set, each command's exit code or
exception, the environment and, when the plan asks for it, the layer spans.
"""

import time

import bilap.cli

IMPORTED = time.monotonic()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library mapped into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for i, argv in enumerate(plan["commands"]):
        c0 = time.perf_counter()
        if tracer is not None:
            tracer.command = i
        error = None
        try:
            rc = bilap.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising command is a failed operation; the rest still run
            rc, error = None, "".join(traceback.format_exception_only(exc)).strip()
        results.append({"rc": rc, "error": error, "wall_s": time.perf_counter() - c0})
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "imported": IMPORTED,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "commands": results,
        "env": environment(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        tracer.write(plan["spans"])
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(json.dumps({"imported": IMPORTED}))
        return 0
    with open(argv[0]) as fh:
        plan = json.load(fh)
    if not os.path.abspath(bilap.cli.__file__).startswith(plan["src"] + os.sep):
        print(f"worker: imported {bilap.cli.__file__}, not from {plan['src']}", file=sys.stderr)
        return 2
    print(json.dumps(run(plan)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
