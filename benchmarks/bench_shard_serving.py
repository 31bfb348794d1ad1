"""Sharded pipeline: partitioned fit wall-clock and scatter-gather serving.

The horizontal-scale record (ISSUE 5). One separated-flavour scenario is
fitted monolithically and at 2 and 4 shards; for each shard count the
benchmark records the partitioned fit wall-clock (per-shard fits are
independent, so the *critical path* — the slowest single shard — is what a
multi-machine deployment would pay), the spill fraction the partitioner
left behind, the alignment quality (top-k agreement and NMI against the
monolithic fit, the ISSUE 5 acceptance quantities), and cold/warm
scatter-gather query throughput through a :class:`repro.shard.ShardRouter`
versus the monolithic :class:`repro.serving.ProfileStore`.

Scale knobs from :mod:`bench_support` apply (``REPRO_BENCH_SCALE``,
``REPRO_BENCH_ITERATIONS``, ``REPRO_BENCH_SMOKE``). Scratch artifacts go
to ``benchmarks/results/`` (gitignored); the cross-PR trajectory record
goes to ``BENCH_shard.json`` at the repository root.
"""

import time

from bench_support import (
    BENCH_SCALE,
    N_ITERATIONS,
    contract,
    format_table,
    report,
    write_record,
)
from repro.core import CPDConfig, CPDModel
from repro.datasets import separated_scenario
from repro.evaluation import nmi_matrix
from repro.serving import GraphSummary, ProfileStore
from repro.shard import CommunityAligner, aligned_user_labels, fit_shards

SHARD_COUNTS = (2, 4)
STRATEGY = "community"
SCENARIO_SEED = 5
FIT_SEED = 9
MAX_QUERIES = 32
WARM_REPEATS = 200
AGREE_TOP = 2


#: planted dims per scenario scale (mirrors datasets.separated.SEPARATED_SCALES)
_DIMS = {"tiny": (4, 8), "small": (6, 12), "medium": (8, 16)}


def _throughput(server, terms: list[str]) -> dict:
    started = time.perf_counter()
    for term in terms:
        server.rank(term)
    cold_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(WARM_REPEATS):
        for term in terms:
            server.rank(term)
    warm_seconds = time.perf_counter() - started
    return {
        "cold_queries_per_second": len(terms) / cold_seconds,
        "warm_queries_per_second": len(terms) * WARM_REPEATS / warm_seconds,
        "cache_hits": server.cache_info()["hits"],
    }


def _measure() -> dict:
    n_communities, n_topics = _DIMS.get(BENCH_SCALE, _DIMS["small"])
    graph, _truth = separated_scenario(BENCH_SCALE, rng=SCENARIO_SEED)
    config = CPDConfig(
        n_communities=n_communities,
        n_topics=n_topics,
        n_iterations=N_ITERATIONS,
        rho=0.5,
        alpha=0.5,
    )

    started = time.perf_counter()
    mono = CPDModel(config, rng=1).fit(graph)
    mono_fit_seconds = time.perf_counter() - started
    mono_store = ProfileStore(
        mono, vocabulary=graph.vocabulary, summary=GraphSummary.from_graph(graph)
    )
    terms = [query.term for query in mono_store.indexed_queries(MAX_QUERIES)]
    assert terms, "benchmark scenario must index queries"

    runs = [
        {
            "n_shards": 1,
            "fit_seconds_total": mono_fit_seconds,
            "fit_seconds_critical_path": mono_fit_seconds,
            "spill_fraction": 0.0,
            "agreement": 1.0,
            "nmi_vs_monolithic": 1.0,
            **_throughput(mono_store, terms),
        }
    ]
    aligner = CommunityAligner()
    mono_hard = mono.hard_community_per_user()
    for n_shards in SHARD_COUNTS:
        started = time.perf_counter()
        fit = fit_shards(graph, config, n_shards, strategy=STRATEGY, rng=FIT_SEED)
        total_seconds = time.perf_counter() - started
        router = fit.router()
        mono_map = aligner.map_result(fit.alignment, mono)
        agreements = sum(
            int(int(mono_map[mono_store.top_k(term, 1)[0]]) in router.top_k(term, AGREE_TOP))
            for term in terms
        )
        labels = aligned_user_labels(
            fit.alignment,
            fit.results,
            [part.users for part in fit.plan.shards],
            graph.n_users,
        )
        runs.append(
            {
                "n_shards": n_shards,
                "fit_seconds_total": total_seconds,
                "fit_seconds_critical_path": max(fit.fit_seconds),
                "spill_fraction": fit.plan.spill_fraction(),
                "agreement": agreements / len(terms),
                "nmi_vs_monolithic": float(nmi_matrix(mono_hard, [labels])[0]),
                # a fresh router: the agreement loop above warmed `router`'s
                # caches, so measuring it would misreport the cold pass
                **_throughput(fit.router(), terms),
            }
        )
    return {"n_queries": len(terms), "runs": runs}


def test_shard_serving(benchmark):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    payload = {
        "scenario": f"separated_{BENCH_SCALE}",
        "strategy": STRATEGY,
        "iterations": N_ITERATIONS,
        "warm_repeats": WARM_REPEATS,
        "agree_top": AGREE_TOP,
        **measured,
    }
    write_record("shard", payload)

    rows = [
        [
            run["n_shards"],
            run["fit_seconds_total"],
            run["fit_seconds_critical_path"],
            run["spill_fraction"],
            run["agreement"],
            run["nmi_vs_monolithic"],
            run["cold_queries_per_second"],
            run["warm_queries_per_second"],
        ]
        for run in measured["runs"]
    ]
    report(
        "shard_serving",
        format_table(
            f"Sharded fit + scatter-gather serving (separated {BENCH_SCALE})",
            [
                "shards",
                "fit s",
                "critical s",
                "spill",
                "agree",
                "NMI",
                "cold q/s",
                "warm q/s",
            ],
            rows,
        ),
    )

    by_shards = {run["n_shards"]: run for run in measured["runs"]}
    # the ISSUE 5 acceptance quantities at 2 shards
    contract(
        by_shards[2]["agreement"] >= 0.8,
        'by_shards[2]["agreement"] >= 0.8',
    )
    contract(
        by_shards[2]["nmi_vs_monolithic"] >= 0.7,
        'by_shards[2]["nmi_vs_monolithic"] >= 0.7',
    )
    # independent shard fits: the critical path must beat the monolithic fit
    contract(
        by_shards[2]["fit_seconds_critical_path"]
        < by_shards[1]["fit_seconds_total"],
        'by_shards[2]["fit_seconds_critical_path"] < monolithic fit seconds',
    )
    # warm scatter-gather must still be served from the per-shard LRU caches
    for run in measured["runs"]:
        contract(
            run["warm_queries_per_second"] > run["cold_queries_per_second"],
            f'{run["n_shards"]}-shard warm > cold throughput',
        )
