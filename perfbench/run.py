"""Repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-serial --seed 1 --seconds 10 --trace 0

Workloads: fit-serial, fit-2workers, serve-store, serve-router (see
perfbench/README.md). ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer ledger instead. The last line of
standard output is the result object; the lines before it describe the
environment and the run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("fit-serial", "fit-2workers", "serve-store", "serve-router")
#: prctl option: the signal a child receives when its parent dies (Linux)
PR_SET_PDEATHSIG = 1


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _prepare() -> None:
    """Point the program's scratch paths into the checkout, import it from
    source and build the compiled sweep before any clock starts."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    os.environ["REPRO_CC_CACHE_DIR"] = str(BUILD / "cc")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.core import _compiled

    available, reason = _compiled.backend_status()
    if not available:
        sys.exit(f"perfbench: the compiled sweep kernel is unavailable: {reason}")


def _environment() -> dict:
    import platform

    import numpy as np

    from repro.core import _compiled

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel": Path(_compiled._build_library_path()).stem,
    }


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Shared memory (the parallel runner's plane) and spawned children (the
    serve clients) start a tracker process that is otherwise left to
    outlive the interpreter. Call this only once every child holding the
    tracker's pipe has been joined.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _tie_children_to_run() -> None:
    """Leave no process behind when the run itself is terminated or killed.

    SIGTERM becomes ``SystemExit``, so every ``finally`` still closes the
    runner, the gateway and the clients and stops the resource tracker.
    Against SIGKILL, each forked child (a runner worker) asks the kernel to
    kill it when this process dies: a forked worker holds a copy of the
    coordinator's end of its own pipe, so it would never read end-of-file.
    """
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    libc = ctypes.CDLL(None, use_errno=True)
    os.register_at_fork(after_in_child=lambda: libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL))


def main() -> int:
    args = _arguments()
    _tie_children_to_run()
    _prepare()
    try:
        return _measure(args)
    finally:
        _stop_resource_tracker()


def _measure(args: argparse.Namespace) -> int:
    from measure import END_TO_END, PER_LAYER

    print(json.dumps({"env": _environment()}))
    started = time.perf_counter()
    if args.workload.startswith("fit"):
        import fit

        outcome = fit.run(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        import serve

        outcome = serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in names:
        if name not in outcome.metrics and not args.trace:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        # a layer the workload bypasses did no work
        value, measured_unit = outcome.metrics.get(name, (0.0, unit))
        if measured_unit != unit:
            raise RuntimeError(f"{name} measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    extra = set(outcome.metrics) - {name for name, _unit in names}
    if extra:
        raise RuntimeError(f"metrics outside the declared set: {sorted(extra)}")
    for note in outcome.notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.4f} {metric['unit']}")
    print(f"run wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
