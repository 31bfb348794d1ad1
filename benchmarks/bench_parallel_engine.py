"""Thread-parallel E-step: wall clock vs workers (Fig. 10(b) harness).

One full E-step (document sweep + augmentation draws, which the runner
fuses into the workers) serially and at 1/2/4 workers on the twitter
scenario. Both serial and workers run the default ``compiled`` sweep
kernel (the reference fallback when no C toolchain exists) so the
speedup_vs_serial ratio compares like against like. Speedup contracts are
gated on the machine's core count; a single-core container reports honest
numbers (the paper's 4.5-5.7x needs 8 real cores).

Results go to ``benchmarks/results/`` and — as the cross-PR perf
trajectory record — to ``BENCH_parallel.json`` at the repository root.
"""

import json
import os
import time
from pathlib import Path

from bench_support import contract, cpd_config, format_table, get_scenario, report
from repro.core import DiffusionParameters
from repro.core.gibbs import CPDSampler
from repro.parallel import ParallelEStepRunner

N_COMMUNITIES = 6
WORKER_COUNTS = (1, 2, 4)
MEASURE_SWEEPS = 2

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _fresh_sampler(graph, config) -> CPDSampler:
    params = DiffusionParameters.initial(config.n_communities, config.n_topics)
    return CPDSampler(graph, config, params, rng=0)


def _serial_estep_seconds(graph, config) -> float:
    """One full E-step (sweep + PG draws), best of MEASURE_SWEEPS rounds."""
    sampler = _fresh_sampler(graph, config)
    sampler.sweep_documents()  # warm-up: caches, CSR layouts, allocator, .so
    best = float("inf")
    for _ in range(MEASURE_SWEEPS):
        started = time.perf_counter()
        sampler.sweep_documents()
        sampler.sample_lambdas()
        sampler.sample_deltas()
        best = min(best, time.perf_counter() - started)
    return best


def _parallel_estep_seconds(graph, config, n_workers) -> tuple[float, str]:
    """Best E-step seconds at ``n_workers`` and the kernel the workers run.

    The fused runner's ``__call__`` *is* the full E-step: workers draw the
    augmentation variables and partial eta counts inside the sweep.
    """
    with ParallelEStepRunner(graph, config, n_workers=n_workers, rng=0) as runner:
        # worker 0 sweeps on this sampler, so it runs the runner's kernel too
        sampler = _fresh_sampler(graph, runner.config)
        runner(sampler)  # warm-up: caches, helper samplers, threads
        best = float("inf")
        for _ in range(MEASURE_SWEEPS):
            started = time.perf_counter()
            runner(sampler)
            best = min(best, time.perf_counter() - started)
        return best, runner.worker_sweep_kernel


def _measure(graph, config) -> dict:
    serial_seconds = _serial_estep_seconds(graph, config)
    scaling = []
    for n_workers in WORKER_COUNTS:
        seconds, worker_kernel = _parallel_estep_seconds(graph, config, n_workers)
        scaling.append([n_workers, seconds, serial_seconds / seconds])
    return {
        "serial_seconds": serial_seconds,
        "sweep_kernel": config.sweep_kernel,
        "worker_sweep_kernel": worker_kernel,
        "scaling": scaling,
    }


def test_parallel_engine(benchmark):
    graph, _ = get_scenario("twitter")
    config = cpd_config(N_COMMUNITIES)
    measured = benchmark.pedantic(_measure, args=(graph, config), rounds=1, iterations=1)
    cores = os.cpu_count() or 1

    report(
        "parallel_scaling",
        format_table(
            f"Fig. 10(b) E-step wall clock (twitter, machine has {cores} cores, "
            f"{measured['worker_sweep_kernel']} kernel)",
            ["workers", "seconds/E-step", "speedup vs serial"],
            [["serial", measured["serial_seconds"], 1.0]] + measured["scaling"],
        ),
    )

    speedups = {row[0]: row[2] for row in measured["scaling"]}
    payload = {
        "scenario": "twitter_fig10b",
        "cores": cores,
        "n_documents": graph.n_documents,
        "n_friendship_links": graph.n_friendship_links,
        "n_diffusion_links": graph.n_diffusion_links,
        "sweep_kernel": measured["sweep_kernel"],
        "worker_sweep_kernel": measured["worker_sweep_kernel"],
        "serial_estep_seconds": measured["serial_seconds"],
        "parallel_estep_seconds": {
            str(row[0]): row[1] for row in measured["scaling"]
        },
        "speedup_vs_serial": {str(w): s for w, s in speedups.items()},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    if cores >= 2:
        contract(
            max(speedups.values()) > 1.0,
            "with real cores some worker count must beat serial",
        )
    if cores >= 4:
        contract(
            speedups.get(4, 0.0) >= 1.5,
            "ISSUE 4 acceptance: >=1.5x E-step speedup at 4 workers",
        )
