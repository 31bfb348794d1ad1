"""Sweep-kernel hot path: the reference kernel against the compiled one.

Times one full E-step document sweep (Alg. 1 steps 3-6) on the Fig. 10(a)
twitter scenario at full fraction for every value of
``CPDConfig.sweep_kernel`` and reports docs/sec plus the speedup. The
kernels are measured interleaved, a block of compiled sweeps after each
reference sweep, and each kernel's time is the median of its sweeps, with
the quartiles recorded beside it: a compiled sweep takes ~1 ms, so a best
of 8 moved by ±25% between runs on a shared host. The compiled
kernel's warm-up sweep — shared-object build/load plus first ctx marshal —
is timed separately from the steady state, because it is a one-off cost
per process while the steady-state rate is what an EM fit pays per
iteration. Results go to ``benchmarks/results/`` and — as the cross-PR
perf trajectory record — to ``BENCH_sweep.json`` at the repository root.
"""

import statistics
import time

from bench_support import contract, cpd_config, format_table, get_scenario, report, write_record
from repro.core import DiffusionParameters
from repro.core import _compiled
from repro.core.gibbs import CPDSampler

N_COMMUNITIES = 6
#: reference sweeps timed (~0.3 s each), one per round
MEASURE_ROUNDS = 8
#: compiled sweeps timed after each reference sweep
COMPILED_PER_ROUND = 32


def _build_sampler(graph, kernel: str) -> tuple[CPDSampler, float]:
    """``(sampler, warm_up_seconds)`` — the first sweep primes every cache."""
    config = cpd_config(N_COMMUNITIES).with_overrides(sweep_kernel=kernel)
    params = DiffusionParameters.initial(config.n_communities, config.n_topics)
    sampler = CPDSampler(graph, config, params, rng=0)
    started = time.perf_counter()
    sampler.sweep_documents()  # warm-up: caches, CSR layouts, allocator, .so
    return sampler, time.perf_counter() - started


def _timed_sweep(sampler: CPDSampler) -> float:
    started = time.perf_counter()
    sampler.sweep_documents()
    return time.perf_counter() - started


def _measure(graph) -> tuple[dict, dict, dict]:
    """``(median seconds, quartiles, warm-up seconds)`` per kernel."""
    compiled_available, _reason = _compiled.backend_status()
    kernels = ["reference"] + (["compiled"] if compiled_available else [])
    samplers = {}
    warm_up = {}
    for name in kernels:
        samplers[name], warm_up[name] = _build_sampler(graph, name)
    seconds = {name: [] for name in samplers}
    for _ in range(MEASURE_ROUNDS):
        seconds["reference"].append(_timed_sweep(samplers["reference"]))
        if compiled_available:
            for _ in range(COMPILED_PER_ROUND):
                seconds["compiled"].append(_timed_sweep(samplers["compiled"]))
    median = {name: statistics.median(values) for name, values in seconds.items()}
    quartiles = {
        name: [float(q) for q in statistics.quantiles(values, n=4)]
        for name, values in seconds.items()
    }
    return median, quartiles, warm_up


def test_sweep_hotpath_speedup(benchmark):
    graph, _ = get_scenario("twitter")
    median, quartiles, warm_up = benchmark.pedantic(
        _measure, args=(graph,), rounds=1, iterations=1
    )
    compiled_available = "compiled" in median
    payload = {
        "scenario": "twitter_small_full_fraction",
        "n_documents": graph.n_documents,
        "n_friendship_links": graph.n_friendship_links,
        "n_diffusion_links": graph.n_diffusion_links,
        "reference_sweep_seconds": median["reference"],
        "reference_docs_per_second": graph.n_documents / median["reference"],
        "measure_rounds": MEASURE_ROUNDS,
        "timing": (
            f"median of {MEASURE_ROUNDS} reference sweeps, each followed by "
            f"{COMPILED_PER_ROUND} compiled sweeps"
        ),
        "sweep_seconds_quartiles": quartiles,
        "compiled_available": compiled_available,
    }
    rows = [
        [name, median[name], graph.n_documents / median[name]]
        for name in median
    ]
    if compiled_available:
        speedup = median["reference"] / median["compiled"]
        payload.update(
            {
                "compiled_sweep_seconds": median["compiled"],
                "compiled_docs_per_second": graph.n_documents / median["compiled"],
                "compiled_warm_up_seconds": warm_up["compiled"],
                "compiled_speedup_vs_reference": speedup,
            }
        )
        rows.append(["ref/compiled speedup", speedup, float("nan")])
        rows.append(["compiled warm-up", warm_up["compiled"], float("nan")])
    else:
        payload["compiled_unavailable_reason"] = _compiled.backend_status()[1]
    write_record("sweep", payload)

    report(
        "sweep_hotpath",
        format_table(
            "Sweep kernel hot path (twitter, full fraction): E-step sweep seconds",
            ["kernel", "seconds/sweep", "docs/sec"],
            rows,
        ),
    )
    if compiled_available:
        # the compiled kernel measured ~185-210x over reference; the floor is
        # the product of the retired vectorized kernel's two contracts
        # (4x over reference, 5x under compiled)
        contract(speedup >= 20.0, "compiled speedup vs reference >= 20.0")
