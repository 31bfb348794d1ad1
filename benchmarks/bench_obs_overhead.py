"""Telemetry overhead pin — the Fig. 10 sweep scenario with obs off and on.

The telemetry layer (repro.obs) promises that instrumentation is free when
disabled and cheap when enabled. This benchmark holds it to that on the
same workload Fig. 10(a) times — a full serial E-step iteration (document
sweep + both Pólya-Gamma augmentation draws) on the twitter scenario:

* **raw**      — the kernel invoked directly, bypassing the instrumented
  ``sweep_documents`` wrapper: what the sweep cost before ISSUE 8;
* **disabled** — the instrumented wrapper with telemetry off (the default
  state): raw plus one registry read and one ``enabled`` check per sweep;
* **enabled**  — telemetry on: the wrapper records per-sweep histograms
  and counters into the live registry.

A second leg prices the request-scoped layer (ISSUE 10): the same
closed-loop gateway workload with everything off versus access logging,
tail-sampled tracing and the stdlib :class:`~repro.obs.SamplingProfiler`
all on at once.

Contracts (demoted to warnings by ``REPRO_BENCH_SMOKE=1``): the disabled
guard costs at most 1% over raw, the enabled path at most 5%, and the
fully loaded gateway path at most 5% over its baseline. Results are
printed, persisted under ``benchmarks/results/`` and — as the cross-PR
observability trajectory record — written to ``BENCH_obs.json`` at the
repository root.
"""

import time
from http.client import HTTPConnection

from bench_support import (
    SMOKE_MODE,
    contract,
    cpd_config,
    format_table,
    get_fitted,
    get_scenario,
    report,
    write_record,
)
from repro import obs
from repro.core import DiffusionParameters
from repro.core.gibbs import CPDSampler
from repro.gateway import GatewayServer, GatewayThread
from repro.serving import ProfileStore

N_COMMUNITIES = 6
#: timed iterations per round; best-of-rounds tames scheduler jitter
SWEEPS_PER_ROUND = 2
ROUNDS = 5

#: gateway leg shape — one keep-alive closed loop, best-of-rounds rps
GATEWAY_DURATION = 0.5 if SMOKE_MODE else 2.0
GATEWAY_ROUNDS = 3
GATEWAY_QUERIES = 8


def _make_sampler():
    graph, _ = get_scenario("twitter")
    config = cpd_config(N_COMMUNITIES)
    params = DiffusionParameters.initial(config.n_communities, config.n_topics)
    return CPDSampler(graph, config, params, rng=0)


def _best_iteration_seconds(sampler, sweep) -> float:
    """Best-of-rounds mean seconds for one full E-step iteration."""
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(SWEEPS_PER_ROUND):
            sweep()
            sampler.sample_lambdas()
            sampler.sample_deltas()
        best = min(best, (time.perf_counter() - started) / SWEEPS_PER_ROUND)
    return best


def _measure() -> dict:
    sampler = _make_sampler()
    # warm-up: prime caches and any lazily built kernel structures
    sampler.sweep_documents()
    sampler.sample_lambdas()
    sampler.sample_deltas()

    obs.disable_telemetry()
    raw = _best_iteration_seconds(sampler, lambda: sampler.kernel.sweep(None))
    disabled = _best_iteration_seconds(sampler, lambda: sampler.sweep_documents())
    obs.enable_telemetry()
    try:
        enabled = _best_iteration_seconds(sampler, lambda: sampler.sweep_documents())
        snapshot = obs.get_registry().snapshot()
    finally:
        obs.disable_telemetry()

    sweep_histograms = [
        entry for entry in snapshot["histograms"]
        if entry["name"] == "repro_sweep_seconds"
    ]
    return {
        "raw_seconds": raw,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "disabled_overhead": disabled / raw - 1.0,
        "enabled_overhead": enabled / raw - 1.0,
        "kernel": sampler.kernel.name,
        "sweeps_recorded": sum(entry["count"] for entry in sweep_histograms),
        "enabled_sweep_latency": (
            obs.histogram_summary(sweep_histograms[0]) if sweep_histograms else None
        ),
    }


def _closed_loop_rps(gateway, terms) -> float:
    """Best-of-rounds requests/second through one keep-alive client."""
    best = 0.0
    with GatewayThread(gateway):
        connection = HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            for term in terms:  # warm-up: prime caches and the batcher
                connection.request("GET", f"/rank?q={term}")
                connection.getresponse().read()
            for _ in range(GATEWAY_ROUNDS):
                count = 0
                started = time.perf_counter()
                cutoff = started + GATEWAY_DURATION
                while time.perf_counter() < cutoff:
                    term = terms[count % len(terms)]
                    connection.request("GET", f"/rank?q={term}")
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200, response.status
                    count += 1
                best = max(best, count / (time.perf_counter() - started))
        finally:
            connection.close()
    return best


def _measure_gateway() -> dict:
    """Closed-loop gateway rps: bare versus the full request-scoped stack.

    The loaded run turns on everything ISSUE 10 added at once — telemetry
    with tracing, the structured access log, tail sampling and a live
    5 ms sampling profiler — so the contract prices the worst case a
    production deployment would actually run.
    """
    graph, _ = get_scenario("twitter")
    result = get_fitted("twitter", "CPD", N_COMMUNITIES).result
    store = ProfileStore.from_fit(result, graph)
    terms = [q.term for q in store.indexed_queries(GATEWAY_QUERIES)]
    assert terms, "benchmark scenario must index queries"

    obs.disable_telemetry()
    baseline = _closed_loop_rps(
        GatewayServer(store, port=0, access_log_capacity=0), terms
    )

    obs.enable_telemetry()
    profiler = obs.SamplingProfiler(interval=0.005)
    profiler.start()
    try:
        loaded = _closed_loop_rps(GatewayServer(store, port=0), terms)
    finally:
        profiler.stop()
        obs.get_sink().clear()
        obs.disable_telemetry()

    return {
        "baseline_rps": baseline,
        "loaded_rps": loaded,
        "loaded_overhead": baseline / loaded - 1.0 if loaded else float("inf"),
        "duration_seconds": GATEWAY_DURATION,
        "bench_rounds": GATEWAY_ROUNDS,
        "profiler": profiler.stats(),
    }


def test_obs_overhead(benchmark):
    def _both():
        return {**_measure(), "gateway": _measure_gateway()}

    measured = benchmark.pedantic(_both, rounds=1, iterations=1)
    payload = {
        "scenario": "twitter",
        "n_communities": N_COMMUNITIES,
        "rounds": ROUNDS,
        "sweeps_per_round": SWEEPS_PER_ROUND,
        **measured,
    }
    write_record("obs", payload)

    rows = [
        ["raw (kernel direct)", measured["raw_seconds"], 0.0],
        ["telemetry disabled", measured["disabled_seconds"], measured["disabled_overhead"]],
        ["telemetry enabled", measured["enabled_seconds"], measured["enabled_overhead"]],
    ]
    gateway = measured["gateway"]
    gateway_rows = [
        ["gateway bare", gateway["baseline_rps"], 0.0],
        ["gateway fully loaded", gateway["loaded_rps"], gateway["loaded_overhead"]],
    ]
    report(
        "obs_overhead",
        format_table(
            "Telemetry overhead on the Fig. 10 E-step iteration (twitter)",
            ["path", "seconds/iteration", "overhead"],
            rows,
        )
        + "\n"
        + format_table(
            "Request-scoped stack on the closed-loop gateway (rank route)",
            ["path", "requests/second", "overhead"],
            gateway_rows,
        ),
    )
    # every enabled-path sweep must have landed in the registry
    contract(
        measured["sweeps_recorded"] >= ROUNDS * SWEEPS_PER_ROUND,
        'measured["sweeps_recorded"] >= ROUNDS * SWEEPS_PER_ROUND',
    )
    # the headline promises: disabled is free (≤1%), enabled is cheap (≤5%)
    contract(
        measured["disabled_overhead"] <= 0.01,
        f'disabled overhead {measured["disabled_overhead"]:.2%} <= 1%',
    )
    contract(
        measured["enabled_overhead"] <= 0.05,
        f'enabled overhead {measured["enabled_overhead"]:.2%} <= 5%',
    )
    # the profiler must actually have sampled while the loaded leg ran
    contract(
        gateway["profiler"]["samples"] > 0,
        "sampling profiler captured stacks during the loaded gateway leg",
    )
    # access log + tracing + profiler together stay within the 5% budget
    contract(
        gateway["loaded_overhead"] <= 0.05,
        f'gateway loaded overhead {gateway["loaded_overhead"]:.2%} <= 5%',
    )
