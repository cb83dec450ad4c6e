"""wasnloc benchmark: one workload per run, one JSON result line at the end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {paper,dry} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run, whose spans are also written to
``.perfbench/trace-<workload>-seed<N>.json``. BLAS and OpenMP threads are
pinned to 1 before numpy is imported; a run whose BLAS thread count is not
1 is refused. The package is imported from ``src/`` of the same checkout.
Exit status: 0 with a result, 2 without one (bad arguments, no ``src/``,
unpinned threads).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper", "dry")  # workloads.WORKLOADS, which needs numpy
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> str | None:
    """Pin BLAS/OpenMP pools to one thread; the reason to refuse, if any."""
    if "numpy" in sys.modules:
        return "numpy was imported before the thread count was pinned"
    for var in THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            return f"{var}={value}; the benchmark runs with one BLAS thread"
    return None


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, threads: int | None) -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wasnloc" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'wasnloc'}", file=sys.stderr)
        return 2
    refusal = pin_threads()
    threads = blas_threads() if refusal is None else None
    if refusal is None and threads not in (None, 1):
        refusal = f"OpenBLAS reports {threads} threads"
    if refusal:
        print(f"perfbench: refusing to run: {refusal}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    try:
        result, tracer = workloads.run_workload(args.workload, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed, threads),
        "failed_ratio": result.failed / result.attempted,
        "details": result.details,
        "problems": result.problems[:20],
    }
    if args.trace:
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    for name, (value, unit) in result.metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':44s} {record['failed_ratio']:14.6g} ({result.failed}/{result.attempted})")
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
