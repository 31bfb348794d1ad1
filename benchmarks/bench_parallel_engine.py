"""Thread-parallel E-step: wall clock vs workers (Fig. 10(b) harness).

One full E-step (document sweep + augmentation draws, which the runner
fuses into the workers) serially and at 1/2/4 workers on the twitter
scenario, timed as the median of interleaved rounds (one E-step per arm
per round). Both serial and workers run the default ``compiled`` sweep
kernel (the reference fallback when no C toolchain exists) so the
speedup_vs_serial ratio compares like against like. Speedup contracts are
gated on the machine's core count; a single-core container reports honest
numbers (the paper's 4.5-5.7x needs 8 real cores).

Results go to ``benchmarks/results/`` and — as the cross-PR perf
trajectory record — to ``BENCH_parallel.json`` at the repository root.
"""

import functools
import os
import statistics
import time

from bench_support import contract, cpd_config, format_table, get_scenario, report, write_record
from repro.core import DiffusionParameters
from repro.core.gibbs import CPDSampler
from repro.parallel import ParallelEStepRunner

N_COMMUNITIES = 6
WORKER_COUNTS = (1, 2, 4)
#: E-steps timed per arm, one per arm per round in turn; an arm's time is
#: the median of its E-steps. An E-step takes ~3-4 ms, so host noise on a
#: best-of-2 swung the ratios by 2x from run to run.
MEASURE_ROUNDS = 24


def _fresh_sampler(graph, config) -> CPDSampler:
    params = DiffusionParameters.initial(config.n_communities, config.n_topics)
    return CPDSampler(graph, config, params, rng=0)


def _serial_estep(sampler: CPDSampler) -> None:
    """One full serial E-step: the sweep, then the PG draws."""
    sampler.sweep_documents()
    sampler.sample_lambdas()
    sampler.sample_deltas()


def _quartiles(values: list[float]) -> list[float]:
    return [float(q) for q in statistics.quantiles(values, n=4)]


def _measure(graph, config) -> dict:
    """Median E-step seconds per arm over interleaved rounds.

    Arms: serial, and one reused runner per worker count (the fused
    runner's ``__call__`` *is* the full E-step: workers draw the
    augmentation variables and partial eta counts inside the sweep).
    Every round runs one E-step of each arm in turn, so a slow stretch of
    the host lands on all arms alike.
    """
    runners = [
        ParallelEStepRunner(graph, config, n_workers=n_workers, rng=0)
        for n_workers in WORKER_COUNTS
    ]
    try:
        serial = _fresh_sampler(graph, config)
        # worker 0 sweeps on the runner's sampler, so it runs the runner's kernel
        arms = [("serial", functools.partial(_serial_estep, serial))] + [
            (n_workers, functools.partial(runner, _fresh_sampler(graph, runner.config)))
            for n_workers, runner in zip(WORKER_COUNTS, runners)
        ]
        for _, step in arms:
            step()  # warm-up: caches, CSR layouts, helper samplers, threads, .so
        seconds = {name: [] for name, _ in arms}
        for _ in range(MEASURE_ROUNDS):
            for name, step in arms:
                started = time.perf_counter()
                step()
                seconds[name].append(time.perf_counter() - started)
        worker_kernel = runners[0].worker_sweep_kernel
    finally:
        for runner in runners:
            runner.close()
    serial_seconds = statistics.median(seconds["serial"])
    scaling = []
    for n_workers in WORKER_COUNTS:
        median = statistics.median(seconds[n_workers])
        scaling.append([n_workers, median, serial_seconds / median])
    return {
        "serial_seconds": serial_seconds,
        "sweep_kernel": config.sweep_kernel,
        "worker_sweep_kernel": worker_kernel,
        "scaling": scaling,
        "quartiles": {str(name): _quartiles(values) for name, values in seconds.items()},
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
        "timing": f"median of {MEASURE_ROUNDS} interleaved E-steps per arm",
        "estep_seconds_quartiles": measured["quartiles"],
    }
    write_record("parallel", payload)

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
