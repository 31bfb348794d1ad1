"""Serving read path: cold vs warm ranking-query throughput.

The whole point of the serving layer (ISSUE 2) is that repeated
application queries must not reload the graph or recompute Eq. 19 from
scratch. This benchmark replays the artifact's indexed query workload
through a :class:`repro.serving.ProfileStore` three ways:

* **legacy** — the pre-serving read path: reload graph + artifact and
  build a fresh ranker for every query (what every CLI command used to do);
* **cold**   — open the self-contained artifact once, then first-pass
  queries (cache misses, includes artifact load + index builds);
* **warm**   — repeated queries on the same store (LRU cache hits).

Results go to ``benchmarks/results/`` and — as the cross-PR serving
trajectory record — to ``BENCH_serving.json`` at the repository root.
"""

import json
import time
from pathlib import Path

from bench_support import (
    LatencyTimer,
    contract,
    format_table,
    get_fitted,
    get_scenario,
    report,
    write_record,
)
from repro.apps import CommunityRanker
from repro.core import load_result
from repro.graph import load_graph, save_graph
from repro.serving import ProfileStore

N_COMMUNITIES = 6
MAX_QUERIES = 32
WARM_REPEATS = 200
LEGACY_QUERIES = 8  # the per-query reload path is slow; sample it


def _prepare(tmp_dir: Path):
    graph, _ = get_scenario("twitter")
    result = get_fitted("twitter", "CPD", N_COMMUNITIES).result
    graph_path = tmp_dir / "serving_bench_graph.json.gz"
    artifact_path = tmp_dir / "serving_bench_model.cpd.npz"
    save_graph(graph, graph_path)
    ProfileStore.from_fit(result, graph).save(artifact_path)
    store = ProfileStore.from_artifact(artifact_path)
    terms = [query.term for query in store.indexed_queries(MAX_QUERIES)]
    assert terms, "benchmark scenario must index queries"
    return graph_path, artifact_path, terms


def _measure(graph_path: Path, artifact_path: Path, terms: list[str]) -> dict:
    # legacy: reload everything per query, the pre-serving read path
    started = time.perf_counter()
    for term in terms[:LEGACY_QUERIES]:
        graph = load_graph(graph_path)
        result = load_result(artifact_path)
        CommunityRanker(result, graph).rank(term)
    legacy_seconds = time.perf_counter() - started

    # cold: one artifact open + first pass over the workload; per-query laps
    # feed the histogram timer so the record carries tail latencies too
    cold_timer = LatencyTimer("cold_rank_seconds")
    started = time.perf_counter()
    store = ProfileStore.from_artifact(artifact_path)
    for term in terms:
        with cold_timer.lap():
            store.rank(term)
    cold_seconds = time.perf_counter() - started

    # warm: the same workload served from the LRU cache
    warm_timer = LatencyTimer("warm_rank_seconds")
    started = time.perf_counter()
    for _ in range(WARM_REPEATS):
        for term in terms:
            with warm_timer.lap():
                store.rank(term)
    warm_seconds = time.perf_counter() - started

    return {
        "legacy_seconds": legacy_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "legacy_queries_per_second": LEGACY_QUERIES / legacy_seconds,
        "cold_queries_per_second": len(terms) / cold_seconds,
        "warm_queries_per_second": len(terms) * WARM_REPEATS / warm_seconds,
        "cold_latency": cold_timer.summary(),
        "warm_latency": warm_timer.summary(),
        "cache": store.cache_info(),
    }


def test_serving_throughput(benchmark, tmp_path):
    graph_path, artifact_path, terms = _prepare(tmp_path)
    measured = benchmark.pedantic(
        _measure, args=(graph_path, artifact_path, terms), rounds=1, iterations=1
    )
    payload = {
        "scenario": "twitter_small",
        "n_queries": len(terms),
        "warm_repeats": WARM_REPEATS,
        "legacy_sample_queries": LEGACY_QUERIES,
        **measured,
    }
    write_record("serving", payload)

    rows = [
        ["legacy (reload per query)", measured["legacy_queries_per_second"]],
        ["cold (artifact open + first pass)", measured["cold_queries_per_second"]],
        ["warm (LRU cache hits)", measured["warm_queries_per_second"]],
    ]
    report(
        "serving_throughput",
        format_table(
            "Serving read path (twitter small): ranking queries per second",
            ["path", "queries/sec"],
            rows,
        ),
    )
    latency_rows = [
        [path, stats["p50"], stats["p95"], stats["p99"], stats["max"]]
        for path, stats in (
            ("cold", measured["cold_latency"]),
            ("warm", measured["warm_latency"]),
        )
    ]
    report(
        "serving_latency",
        format_table(
            "Serving rank latency percentiles (seconds/query)",
            ["path", "p50", "p95", "p99", "max"],
            latency_rows,
        ),
    )
    # the caching contract: warm serving must beat the cold first pass, and
    # both must dominate the reload-per-query legacy path by a wide margin
    contract(
        measured["warm_queries_per_second"] > measured["cold_queries_per_second"],
        'measured["warm_queries_per_second"] > measured["cold_queries_per_second"]',
    )
    contract(
        measured["cold_queries_per_second"] > 10 * measured["legacy_queries_per_second"],
        'measured["cold_queries_per_second"] > 10 * measured["legacy_queries_per_second"]',
    )
    contract(
        measured["cache"]["hits"] >= len(terms) * WARM_REPEATS,
        'measured["cache"]["hits"] >= len(terms) * WARM_REPEATS',
    )
