"""Streaming ingest path: sustained events/sec, fold-in only vs + refresh.

The streaming subsystem (ISSUE 3, `repro.stream`) must sustain arrival
traffic: fold-in is the latency-critical assignment path, the incremental
refresher the (amortised) model-maintenance path. This benchmark splits
the twitter scenario at half its timeline, fits the base model offline,
and replays the remaining documents/links through a
:class:`repro.stream.MicroBatchIngestor` in two modes:

* **foldin**  — frozen model, batched fold-in only (no refresher);
* **refresh** — fold-in plus warm appends and periodic incremental
  re-sweeps of the dirty region.

Recorded series: sustained events/sec per mode, mean per-batch fold-in
latency, and mean per-refresh latency. Results go to
``benchmarks/results/`` and — as the cross-PR streaming trajectory record
— to ``BENCH_stream.json`` at the repository root.
"""

import time

from bench_support import (
    contract,
    cpd_config,
    format_table,
    get_scenario,
    report,
    write_record,
)
from repro.core import CPDModel
from repro.serving import ProfileStore
from repro.stream import IncrementalRefresher, MicroBatchIngestor, split_for_replay

N_COMMUNITIES = 6
BATCH_SIZE = 64
REFRESH_EVERY = 256
FIT_SEED = 103


def _prepare():
    graph, _ = get_scenario("twitter")
    plan = split_for_replay(graph, warm_fraction=0.5)
    base_fit = CPDModel(cpd_config(N_COMMUNITIES), rng=FIT_SEED).fit(plan.base_graph)
    return plan, base_fit


def _run_mode(plan, base_fit, with_refresh: bool) -> dict:
    store = ProfileStore.from_fit(base_fit, plan.base_graph)
    refresher = (
        IncrementalRefresher(plan.base_graph, base_fit, rng=FIT_SEED + 1)
        if with_refresh
        else None
    )
    ingestor = MicroBatchIngestor(
        store,
        refresher,
        batch_size=BATCH_SIZE,
        refresh_interval=REFRESH_EVERY if with_refresh else None,
        rng=FIT_SEED + 2,
    )
    started = time.perf_counter()
    flushes = ingestor.submit_many(plan.events)
    final = ingestor.flush()
    if final is not None:
        flushes.append(final)
    if with_refresh:
        ingestor.refresh()
    seconds = time.perf_counter() - started

    doc_flushes = [f for f in flushes if f.n_documents]
    foldin_seconds = sum(f.foldin_seconds for f in doc_flushes)
    refresh_seconds = sum(r.seconds for r in ingestor.refresh_reports)
    return {
        "seconds": seconds,
        "events_per_second": len(plan.events) / seconds,
        "foldin_batches": len(doc_flushes),
        "foldin_seconds_total": foldin_seconds,
        "foldin_seconds_per_batch": foldin_seconds / max(len(doc_flushes), 1),
        "refreshes": len(ingestor.refresh_reports),
        "refresh_seconds_total": refresh_seconds,
        "refresh_seconds_each": refresh_seconds / max(len(ingestor.refresh_reports), 1),
        "drift_total": int(ingestor.drift.sum()),
    }


def _measure() -> dict:
    plan, base_fit = _prepare()
    return {
        "n_events": len(plan.events),
        "n_document_events": plan.n_document_events,
        "n_link_events": plan.n_link_events,
        "foldin": _run_mode(plan, base_fit, with_refresh=False),
        "refresh": _run_mode(plan, base_fit, with_refresh=True),
    }


def test_stream_ingest_throughput(benchmark):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    payload = {
        "scenario": "twitter",
        "batch_size": BATCH_SIZE,
        "refresh_every": REFRESH_EVERY,
        **measured,
    }
    write_record("stream", payload)

    foldin, refresh = measured["foldin"], measured["refresh"]
    rows = [
        ["foldin only (frozen model)", foldin["events_per_second"],
         foldin["foldin_seconds_per_batch"] * 1e3, 0.0],
        ["foldin + incremental refresh", refresh["events_per_second"],
         refresh["foldin_seconds_per_batch"] * 1e3,
         refresh["refresh_seconds_each"] * 1e3],
    ]
    report(
        "stream_ingest",
        format_table(
            "Streaming ingest (twitter): sustained throughput and latencies",
            ["mode", "events/sec", "foldin ms/batch", "refresh ms"],
            rows,
        ),
    )
    # the layering contract: fold-in stays the cheap path — adding the
    # refresher costs amortised maintenance time, never a cold refit
    contract(
        foldin["events_per_second"] > refresh["events_per_second"],
        "frozen fold-in must be faster than fold-in plus refresh",
    )
    contract(
        refresh["events_per_second"] > 50,
        "sustained ingest should exceed 50 events/sec even with refreshes",
    )
    contract(refresh["refreshes"] >= 1, "the replay should trigger refreshes")
