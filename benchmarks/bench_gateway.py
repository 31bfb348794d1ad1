"""Gateway under load: closed-loop latency, shedding, and chaos legs.

The ISSUE 9 acceptance record. A real :class:`repro.gateway.GatewayServer`
serves on a socket while closed-loop client threads (keep-alive stdlib
HTTP connections, next request issued the moment the last one answers)
hammer ``/rank``. Four legs and one A/B:

* **store** — monolithic :class:`~repro.serving.ProfileStore` backend:
  sustainable throughput and p50/p99 latency, micro-batching active;
* **router** — 2-shard :class:`~repro.shard.ShardRouter` backend (healthy):
  the scatter-gather serving path under the same load;
* **overload** — in-flight limit 2, queue 0, a deliberately slow backend
  and 8x the clients: the flood must shed with 429 (never queue, never
  exceed the limit) while served requests stay fast;
* **chaos** — the router leg with a mid-run injected shard-0 outage and a
  hot swap afterwards: p99 stays bounded, every non-exact answer carries
  the degraded coverage envelope (zero wrong-coverage responses), no 5xx
  storm, and the swap restores exact service before the run ends;
* **batching A/B** — the store leg beside an unbatched store leg (the
  same store with ``rank_many`` hidden, so every request is its own
  executor call) at 1, 8 and 32 clients: the record that decides
  whether :class:`~repro.gateway.RankBatcher` earns its keep.

Scale knobs from :mod:`bench_support` apply; the trajectory record goes to
``BENCH_gateway.json`` at the repository root.
"""

import json
import threading
import time
from http.client import HTTPConnection

from bench_support import (
    BENCH_SCALE,
    N_ITERATIONS,
    SMOKE_MODE,
    LatencyTimer,
    contract,
    format_table,
    report,
    write_record,
)
from repro.core import CPDConfig, CPDModel
from repro.datasets import separated_scenario
from repro.gateway import GatewayServer, GatewayThread
from repro.resilience import FaultPlan, inject
from repro.serving import GraphSummary, ProfileStore
from repro.shard import fit_shards

SCENARIO_SEED = 5
FIT_SEED = 9
MAX_QUERIES = 16

#: closed-loop load shape (smoke: just prove the machinery turns over)
DURATION_SECONDS = 0.8 if SMOKE_MODE else 3.0
N_CLIENTS = 4 if SMOKE_MODE else 8
OVERLOAD_CLIENTS = 4 * N_CLIENTS
AB_CLIENTS = (1, 8, 32)


#: planted dims per scenario scale (mirrors datasets.separated.SEPARATED_SCALES)
_DIMS = {"tiny": (4, 8), "small": (6, 12), "medium": (8, 16)}


class _SlowStore:
    """Store wrapper whose rank holds its admission slot for ``delay``s.

    No ``rank_many``/``gather`` attribute, so the gateway falls back to
    one slot per request — the overload-leg substrate, and (``delay=0``)
    the unbatched side of the batching A/B.
    """

    def __init__(self, store, delay):
        self._store = store
        self._delay = delay

    def rank(self, query):
        time.sleep(self._delay)
        return self._store.rank(query)

    def __getattr__(self, name):
        if name in ("rank_many", "gather"):
            raise AttributeError(name)
        return getattr(self._store, name)


class _ClientRecord:
    """One client thread's observations, merged after the run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.statuses: dict[int, int] = {}
        #: (wall_time, status, exact_header, body_exact) per rank answer
        self.answers: list[tuple[float, int, str, bool]] = []
        self.errors = 0


def _client_loop(host, port, terms, stop, record, deadline_ms=None):
    connection = HTTPConnection(host, port, timeout=30)
    headers = {}
    if deadline_ms is not None:
        headers["X-Deadline-Ms"] = str(deadline_ms)
    index = 0
    try:
        while not stop.is_set():
            term = terms[index % len(terms)]
            index += 1
            started = time.perf_counter()
            try:
                connection.request("GET", f"/rank?q={term}", headers=headers)
                response = connection.getresponse()
                body = response.read()
                status = response.status
            except OSError:
                record.errors += 1
                connection.close()
                connection = HTTPConnection(host, port, timeout=30)
                continue
            elapsed = time.perf_counter() - started
            record.latencies.append(elapsed)
            record.statuses[status] = record.statuses.get(status, 0) + 1
            if status == 200:
                exact_header = response.headers.get("X-Repro-Exact", "")
                body_exact = bool(
                    json.loads(body).get("coverage", {}).get("exact", False)
                )
                record.answers.append(
                    (time.monotonic(), status, exact_header, body_exact)
                )
            if response.headers.get("Connection", "") == "close":
                connection.close()
                connection = HTTPConnection(host, port, timeout=30)
    finally:
        connection.close()


def _run_load(gateway, terms, n_clients, duration, deadline_ms=None,
              mid_run=None):
    """Closed-loop load against a live gateway; returns the merged leg."""
    stop = threading.Event()
    records = [_ClientRecord() for _ in range(n_clients)]
    with GatewayThread(gateway) as handle:
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(gateway.host, gateway.port, terms, stop, record),
                kwargs={"deadline_ms": deadline_ms},
            )
            for record in records
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        try:
            if mid_run is not None:
                mid_run(handle)
                leftover = duration - (time.perf_counter() - started)
                if leftover > 0:
                    time.sleep(leftover)
            else:
                time.sleep(duration)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        wall = time.perf_counter() - started
        stats = gateway.stats()
    timer = LatencyTimer("gateway_request_seconds")
    statuses: dict[int, int] = {}
    answers: list[tuple[float, int, str, bool]] = []
    errors = 0
    for record in records:
        for latency in record.latencies:
            timer.observe(latency)
        for status, count in record.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
        answers.extend(record.answers)
        errors += record.errors
    served = statuses.get(200, 0)
    total = sum(statuses.values())
    # a wrong-coverage response: a 200 whose header and body disagree, or
    # a 200 rank answer with no coverage header at all
    violations = sum(
        1
        for _t, _s, exact_header, body_exact in answers
        if exact_header not in ("0", "1")
        or (exact_header == "1") != body_exact
    )
    degraded = sum(
        1 for _t, _s, exact_header, _b in answers if exact_header == "0"
    )
    return {
        "wall_seconds": round(wall, 3),
        "clients": n_clients,
        "requests": total,
        "served": served,
        "throughput_rps": round(served / wall, 1) if wall else 0.0,
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "shed_429": statuses.get(429, 0),
        "server_5xx": sum(
            v for k, v in statuses.items() if 500 <= k < 600
        ),
        "connection_errors": errors,
        "degraded_responses": degraded,
        "coverage_violations": violations,
        "latency": timer.summary(),
        "admission": {
            "peak_in_flight": stats["peak_in_flight"],
            "peak_queue": stats["peak_queue"],
            "admitted": stats["admitted"],
            "shed": stats["shed"],
        },
        "batches": stats["batches"],
        "batched_queries": stats["batched_queries"],
        "_answers": answers,  # stripped before the JSON record
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
    result = CPDModel(config, rng=1).fit(graph)
    store = ProfileStore(
        result,
        vocabulary=graph.vocabulary,
        summary=GraphSummary.from_graph(graph),
    )
    terms = [query.term for query in store.indexed_queries(MAX_QUERIES)]
    assert terms, "benchmark scenario must index queries"
    sharded = fit_shards(
        graph, config, 2, strategy="community", rng=FIT_SEED
    )

    legs: dict[str, dict] = {}

    # ------------------------------------------------------------- store leg
    legs["store"] = _run_load(
        GatewayServer(store, port=0, max_in_flight=8, max_queue=64),
        terms, N_CLIENTS, DURATION_SECONDS,
    )

    # ---------------------------------------------------------- batching A/B
    ab: dict[str, dict] = {}
    for n_clients in AB_CLIENTS:
        ab[str(n_clients)] = {
            name: _run_load(
                GatewayServer(backend, port=0, max_in_flight=8, max_queue=64),
                terms, n_clients, DURATION_SECONDS,
            )
            for name, backend in (
                ("store", store),
                ("store_unbatched", _SlowStore(store, delay=0)),
            )
        }

    # ------------------------------------------------------------ router leg
    legs["router"] = _run_load(
        GatewayServer(
            sharded.router(best_effort=True),
            port=0, max_in_flight=8, max_queue=64,
        ),
        terms, N_CLIENTS, DURATION_SECONDS,
    )

    # ---------------------------------------------------------- overload leg
    legs["overload"] = _run_load(
        GatewayServer(
            _SlowStore(store, delay=0.02),
            port=0, max_in_flight=2, max_queue=0,
        ),
        terms, OVERLOAD_CLIENTS, DURATION_SECONDS,
    )

    # ------------------------------------------------------------- chaos leg
    chaos_router = sharded.router(
        best_effort=True, retries=0, breaker_threshold=1
    )
    swap_done: dict = {}

    def chaos(handle):
        """One shard-0 outage window mid-run, then a healing hot swap."""
        window = DURATION_SECONDS / 3
        time.sleep(window)
        plan = FaultPlan(seed=0)
        plan.fail_at("shard.query", at=1, times=10**9, shard=0)
        with inject(plan):
            # drop the merged-rank memos: the closed loop has every term
            # cached exact by now, and a cache hit never scatters — the
            # outage must be *visible*, not papered over by the cache
            chaos_router.invalidate()
            time.sleep(window)
        # the breaker is open now; the swap is the recovery action
        chaos_router.hot_swap_shard(0, sharded.results[0])
        swap_done["at"] = time.monotonic()

    legs["chaos"] = _run_load(
        GatewayServer(chaos_router, port=0, max_in_flight=8, max_queue=64),
        terms, N_CLIENTS, DURATION_SECONDS, mid_run=chaos,
    )
    # did the hot swap restore exact service? look at answers after it
    after_swap = [
        exact_header
        for t, _s, exact_header, _b in legs["chaos"].pop("_answers")
        if t > swap_done.get("at", float("inf")) + 0.2
    ]
    legs["chaos"]["healed_exact"] = bool(after_swap) and all(
        h == "1" for h in after_swap[-max(1, len(after_swap) // 2):]
    )
    ab_legs = [leg for cell in ab.values() for leg in cell.values()]
    for leg in [*legs.values(), *ab_legs]:
        leg.pop("_answers", None)

    return {
        "n_queries": len(terms),
        "duration_seconds": DURATION_SECONDS,
        "legs": legs,
        "batching_ab": ab,
    }


def test_gateway_load(benchmark):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    payload = {
        "scenario": f"separated_{BENCH_SCALE}",
        "iterations": N_ITERATIONS,
        "smoke": SMOKE_MODE,
        **measured,
    }
    write_record("gateway", payload)

    legs = measured["legs"]
    rows = [
        [
            name,
            leg["clients"],
            leg["requests"],
            leg["throughput_rps"],
            leg["latency"]["p50"],
            leg["latency"]["p99"],
            leg["shed_429"],
            leg["server_5xx"],
            leg["degraded_responses"],
        ]
        for name, leg in legs.items()
    ]
    report(
        "gateway_load",
        format_table(
            f"Gateway closed-loop load (separated {BENCH_SCALE})",
            [
                "leg", "clients", "reqs", "rps", "p50 s", "p99 s",
                "shed", "5xx", "degraded",
            ],
            rows,
        ),
    )

    ab = measured["batching_ab"]
    report(
        "gateway_batching_ab",
        format_table(
            f"Rank batching A/B, store backend (separated {BENCH_SCALE})",
            ["clients", "leg", "rps", "p50 s", "p99 s", "batches"],
            [
                [
                    clients,
                    name,
                    leg["throughput_rps"],
                    leg["latency"]["p50"],
                    leg["latency"]["p99"],
                    leg["batches"],
                ]
                for clients, cell in ab.items()
                for name, leg in cell.items()
            ],
        ),
    )

    # healthy legs: real throughput, no shedding, no server errors
    for name in ("store", "router"):
        contract(legs[name]["served"] > 0, f"{name} leg served requests")
        contract(legs[name]["server_5xx"] == 0, f"{name} leg has no 5xx")
        contract(legs[name]["shed_429"] == 0, f"{name} leg sheds nothing")
        contract(
            legs[name]["coverage_violations"] == 0,
            f"{name} leg coverage headers are truthful",
        )
    contract(legs["store"]["batches"] >= 1, "micro-batching engaged")
    for clients, cell in ab.items():
        for name, leg in cell.items():
            contract(leg["served"] > 0, f"A/B {name} x{clients} served requests")
            contract(leg["server_5xx"] == 0, f"A/B {name} x{clients} has no 5xx")
            contract(leg["shed_429"] == 0, f"A/B {name} x{clients} sheds nothing")
        contract(cell["store"]["batches"] >= 1, f"A/B x{clients} batches")
        contract(
            cell["store_unbatched"]["batches"] == 0,
            f"A/B x{clients} unbatched leg never batches",
        )

    # overload: the flood sheds with 429 and the limit holds exactly
    contract(legs["overload"]["shed_429"] > 0, "overload leg sheds")
    contract(
        legs["overload"]["admission"]["peak_in_flight"] <= 2,
        "in-flight never exceeds the limit",
    )
    contract(
        legs["overload"]["admission"]["peak_queue"] == 0,
        "max_queue=0: excess sheds instead of queueing",
    )
    contract(legs["overload"]["server_5xx"] == 0, "overload leg has no 5xx")

    # chaos: bounded latency, degraded-not-broken, truthful coverage
    chaos = legs["chaos"]
    contract(chaos["server_5xx"] == 0, "chaos leg has no 5xx storm")
    contract(
        chaos["degraded_responses"] > 0,
        "the injected outage visibly degraded some answers",
    )
    contract(
        chaos["coverage_violations"] == 0,
        "no wrong-coverage response lacks the degraded flag",
    )
    contract(
        chaos["latency"]["p99"] < 10 * max(legs["router"]["latency"]["p99"], 0.01),
        "chaos p99 stays bounded relative to the healthy router leg",
    )
    contract(chaos["healed_exact"], "the hot swap restored exact service")
