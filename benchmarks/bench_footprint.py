"""Footprint record: code size and the cost of importing the package.

Two numbers the ROADMAP asks to track next to the speed benchmarks:

* **size** — physical lines of ``src/**/*.py`` and ``tests/**/*.py``;
* **import cost** — wall time and peak resident set of ``import
  repro.core`` (what a fit loads), ``import repro.gateway`` (what a
  server loads) and ``import repro.cli`` (what every command loads), each
  in a fresh interpreter so nothing already imported is counted as free.
  The median of ``RUNS`` interpreters is reported.

Nothing here depends on the benchmark scale, so the tiny-scale smoke run
records the same numbers as a full run. The record is written to
``BENCH_footprint.json`` at the repository root, so ``repro bench-diff``
shows the trend between two commits.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_support import format_table, report

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_footprint.json"
MODULES = ("repro.core", "repro.gateway", "repro.cli")
RUNS = 5

#: runs in the child: time the import, then read the peak resident set.
#: ``VmHWM`` (KiB) is the high-water mark of the child's own address space;
#: ``ru_maxrss`` would also count the parent's resident set at the fork
_PROBE = (
    "import json, sys, time\n"
    "started = time.perf_counter()\n"
    "__import__(sys.argv[1])\n"
    "wall = time.perf_counter() - started\n"
    "with open('/proc/self/status') as status:\n"
    "    rss = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
    "print(json.dumps([wall, rss / 1024.0, len(sys.modules)]))\n"
)


def count_lines(directory: Path) -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted(directory.rglob("*.py"))
    )


def import_cost(module: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    samples = []
    for _ in range(RUNS):
        completed = subprocess.run(
            [sys.executable, "-c", _PROBE, module],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(json.loads(completed.stdout.splitlines()[-1]))
    walls, rss, modules = zip(*samples)
    return {
        "wall_seconds": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "modules_loaded": int(statistics.median(modules)),
    }


def test_footprint(benchmark):
    def _measure():
        return {
            "src_lines": count_lines(ROOT / "src"),
            "tests_lines": count_lines(ROOT / "tests"),
            "imports": {module: import_cost(module) for module in MODULES},
        }

    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    payload = {"runs": RUNS, "python": sys.version.split()[0], **measured}
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    rows = [
        [f"import {module}", cost["wall_seconds"], cost["peak_rss_mb"], cost["modules_loaded"]]
        for module, cost in measured["imports"].items()
    ]
    report(
        "footprint",
        f"src/ {measured['src_lines']} lines, tests/ {measured['tests_lines']} lines\n"
        + format_table(
            f"Import cost, median of {RUNS} fresh interpreters",
            ["statement", "wall seconds", "peak RSS MB", "modules"],
            rows,
        ),
    )
    assert measured["src_lines"] > 0 and measured["tests_lines"] > 0
