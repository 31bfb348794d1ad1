"""Resilience: durability overhead, crash-recovery latency, degraded serving.

The fault-tolerance subsystem (ISSUE 6, ``repro.resilience``) must be cheap
enough to leave on: the WAL + snapshot-generation write path taxes every
micro-batch, recovery replays the WAL tail a crash left behind, and the
degraded scatter-gather path serves through a tripped shard. This benchmark
measures all three on the twitter scenario:

* **durable ingest** — the streaming replay of ``bench_stream_ingest`` run
  twice, plain vs with a write-ahead log and per-refresh snapshot
  generations; the gap is the price of durability;
* **recovery** — ``recover()`` latency from the newest generation (short
  WAL tail) vs from the oldest one (long tail), separating snapshot-open
  cost from tail-replay cost;
* **degraded serving** — scatter-gather throughput over a 4-shard router,
  healthy vs with one shard persistently failing (breaker tripped,
  best-effort merges).

Recorded series go to ``benchmarks/results/`` and — as the cross-PR
resilience trajectory record — to ``BENCH_resilience.json`` at the
repository root. Honors ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_ITERATIONS``
/ ``REPRO_BENCH_SMOKE`` like every other benchmark.
"""

import shutil
import tempfile
import time
from pathlib import Path

from bench_support import (
    contract,
    cpd_config,
    format_table,
    get_scenario,
    report,
    write_record,
)
from repro.core import CPDModel
from repro.resilience import (
    FaultPlan,
    SnapshotCatalog,
    WriteAheadLog,
    inject,
    recover,
)
from repro.resilience.faults import FaultSpec
from repro.serving import GraphSummary, ProfileStore
from repro.shard import ShardRouter, fit_shards
from repro.stream import (
    IncrementalRefresher,
    MicroBatchIngestor,
    Snapshotter,
    split_for_replay,
)

N_COMMUNITIES = 6
BATCH_SIZE = 64
REFRESH_EVERY = 256
FIT_SEED = 103
N_SHARDS = 4
RANK_REPEATS = 3


def _prepare():
    graph, _ = get_scenario("twitter")
    plan = split_for_replay(graph, warm_fraction=0.5)
    base_fit = CPDModel(cpd_config(N_COMMUNITIES), rng=FIT_SEED).fit(plan.base_graph)
    return plan, base_fit


def _run_ingest(plan, base_fit, durable_dir: Path | None) -> dict:
    """One replay to completion; durable mode adds WAL + generations."""
    store = ProfileStore.from_fit(base_fit, plan.base_graph)
    refresher = IncrementalRefresher(plan.base_graph, base_fit, rng=FIT_SEED + 1)
    wal = None
    on_refresh = None
    if durable_dir is not None:
        wal = WriteAheadLog(durable_dir / "events.wal")
        # retain everything so the recovery benchmark can pick its tail
        catalog = SnapshotCatalog(durable_dir / "snaps", retain=10_000)
        snapshotter = Snapshotter(
            refresher,
            vocabulary=plan.base_graph.vocabulary,
            base_summary=GraphSummary.from_graph(plan.base_graph),
        )
        on_refresh = lambda _report: catalog.save(snapshotter)  # noqa: E731
    ingestor = MicroBatchIngestor(
        store,
        refresher,
        batch_size=BATCH_SIZE,
        refresh_interval=REFRESH_EVERY,
        rng=FIT_SEED + 2,
        wal=wal,
        on_refresh=on_refresh,
    )
    started = time.perf_counter()
    ingestor.submit_many(plan.events)
    ingestor.flush()
    ingestor.refresh()
    seconds = time.perf_counter() - started
    if wal is not None:
        wal.close()
    stats = ingestor.stats()
    return {
        "seconds": seconds,
        "events_per_second": len(plan.events) / seconds,
        "refreshes": stats["refreshes"],
        "wal_events": stats.get("wal_events", 0),
    }


def _run_recovery(durable_dir: Path) -> dict:
    """recover() from the newest vs the oldest generation of one run."""
    catalog = SnapshotCatalog(durable_dir / "snaps", retain=10_000)
    generations = catalog.generations()
    wal_path = durable_dir / "events.wal"
    points = {}
    for label, (gen, path) in (
        ("short_tail", generations[-1]),
        ("long_tail", generations[0]),
    ):
        isolated = durable_dir / f"recover-{label}"
        isolated.mkdir()
        shutil.copy(path, isolated / path.name)
        started = time.perf_counter()
        rec = recover(isolated, wal_path=wal_path, rng=FIT_SEED + 3)
        points[label] = {
            "generation": gen,
            "seconds": time.perf_counter() - started,
            "tail_events": rec.events_replayed,
            "documents_replayed": rec.documents_replayed,
        }
        # the recovered store must actually serve
        assert rec.store.rank(rec.store.indexed_queries(1)[0].term)
    return points


def _run_degraded() -> dict:
    graph, _ = get_scenario("twitter")
    fit = fit_shards(
        graph, cpd_config(N_COMMUNITIES), N_SHARDS, strategy="hash", rng=FIT_SEED
    )

    def build():
        return ShardRouter(
            [
                ProfileStore.from_fit(result, part.graph)
                for result, part in zip(fit.results, fit.plan.shards)
            ],
            [part.users for part in fit.plan.shards],
            fit.alignment,
            best_effort=True,
            retries=0,
            backoff=0.0,
            breaker_threshold=1,
        )

    router = build()
    terms = router.indexed_terms()[:64]

    def throughput() -> float:
        started = time.perf_counter()
        for _ in range(RANK_REPEATS):
            for term in terms:
                router.gather(term)
            router.invalidate()  # measure the scatter, not the LRU
        return len(terms) * RANK_REPEATS / (time.perf_counter() - started)

    healthy_qps = throughput()
    healthy_coverage = router.gather(terms[0]).coverage

    router = build()  # fresh breakers and stale caches
    plan = FaultPlan(seed=0)
    plan.arm(FaultSpec(point="shard.query", at=1, times=10**9, match={"shard": 0}))
    with inject(plan):
        degraded_qps = throughput()
        sample = router.gather(terms[-1])
    return {
        "n_shards": N_SHARDS,
        "n_terms": len(terms),
        "healthy_queries_per_second": healthy_qps,
        "healthy_coverage": healthy_coverage,
        "degraded_queries_per_second": degraded_qps,
        "degraded_coverage": sample.coverage,
        "degraded_exact": sample.exact,
        "breaker_trips": router.breakers[0].n_trips,
    }


def _measure() -> dict:
    plan, base_fit = _prepare()
    with tempfile.TemporaryDirectory() as scratch:
        durable_dir = Path(scratch)
        plain = _run_ingest(plan, base_fit, None)
        durable = _run_ingest(plan, base_fit, durable_dir)
        recovery = _run_recovery(durable_dir)
    return {
        "n_events": len(plan.events),
        "plain": plain,
        "durable": durable,
        "recovery": recovery,
        "degraded": _run_degraded(),
    }


def test_resilience_costs(benchmark):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    payload = {
        "scenario": "twitter",
        "batch_size": BATCH_SIZE,
        "refresh_every": REFRESH_EVERY,
        **measured,
    }
    write_record("resilience", payload)

    plain, durable = measured["plain"], measured["durable"]
    short, long_ = measured["recovery"]["short_tail"], measured["recovery"]["long_tail"]
    degraded = measured["degraded"]
    overhead = 1.0 - durable["events_per_second"] / plain["events_per_second"]
    rows = [
        ["ingest plain (ev/s)", plain["events_per_second"]],
        ["ingest durable (ev/s)", durable["events_per_second"]],
        ["durability overhead", overhead],
        [f"recover gen {short['generation']} ({short['tail_events']} tail ev) s",
         short["seconds"]],
        [f"recover gen {long_['generation']} ({long_['tail_events']} tail ev) s",
         long_["seconds"]],
        ["gather healthy (q/s)", degraded["healthy_queries_per_second"]],
        ["gather 1-shard-down (q/s)", degraded["degraded_queries_per_second"]],
        ["degraded coverage", degraded["degraded_coverage"]],
    ]
    report(
        "resilience",
        format_table(
            "Resilience (twitter): durability, recovery, degraded serving",
            ["metric", "value"],
            rows,
        ),
    )
    contract(
        durable["events_per_second"] > 0.2 * plain["events_per_second"],
        "WAL + snapshot generations must not cost more than 5x throughput",
    )
    contract(durable["wal_events"] == measured["n_events"],
             "every replayed event must be durably logged")
    contract(
        long_["tail_events"] >= short["tail_events"],
        "the older generation must imply the longer replay tail",
    )
    contract(
        not degraded["degraded_exact"] and degraded["degraded_coverage"] >= 0.75,
        "one dead shard of four must leave >= 75% coverage",
    )
    contract(
        degraded["degraded_queries_per_second"]
        > 0.2 * degraded["healthy_queries_per_second"],
        "a tripped breaker must keep degraded serving within 5x of healthy",
    )
