"""Serve workloads: closed-loop keep-alive clients against an in-process gateway.

``serve-store`` puts one client in front of a ``ProfileStore`` opened from a
saved artifact, cycling over the 16 most-indexed terms (every request is a
cache hit). ``serve-router`` puts two clients in front of a 2-shard
``community`` router; each query is the text of a reshared post, drawn in
proportion to its reshares, over more posts than the 1024-entry caches
hold.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import client
from ledger import Ledger, install_fit_layers, install_serve_layers
from measure import (
    Outcome, ProbedTimer, latency_note, median, overhead_note, peak_rss_mb, setups_note,
    tail_metrics,
)

from repro.core import CPDConfig, CPDModel
from repro.core.io import save_result
from repro.evaluation.nmi import normalized_mutual_information
from repro.gateway import GatewayServer, GatewayThread
from repro.serving import GraphSummary, ProfileStore
from repro.datasets import separated_scenario, twitter_scenario
from repro.shard import fit_shards
from repro.shard.align import aligned_user_labels

STORE_CONFIG = CPDConfig(
    n_communities=8, n_topics=12, n_iterations=20, rho=0.5, alpha=0.5,
    sweep_kernel="compiled",
)
ROUTER_CONFIG = CPDConfig(
    n_communities=8, n_topics=16, n_iterations=20, rho=0.5, alpha=0.5,
    sweep_kernel="compiled",
)
SETUPS = {"serve-store": 3, "serve-router": 2}
CLIENTS = {"serve-store": 1, "serve-router": 2}
#: the 16 most-indexed single terms (serve-store)
STORE_TERMS = 16
#: serve-router queries: words per query, queries per client stream (more
#: than a client sends in a 60-second run)
TERMS_PER_QUERY = 3
STREAM_LENGTH = 20000
#: one request in this many has its body checked against a direct rank;
#: prime, so the checked requests walk through serve-store's 16-term cycle
SAMPLE_EVERY = 17
NMI_FLOOR = 0.3
#: seconds a client process may take to start or to report after the clock
CLIENT_TIMEOUT = 60.0
#: traced and untraced mean request walls should agree this closely
OVERHEAD_TOLERANCE_PCT = 10.0


@dataclass
class Backend:
    """What one set-up built: the served object, its gateway and inputs."""

    backend: object
    gateway: GatewayServer
    handle: GatewayThread
    streams: list
    fit_walls: list
    nmi: float
    #: keeps the artifact directory alive (serve-store)
    holder: tempfile.TemporaryDirectory | None = None
    #: the served artifact (serve-store)
    path: Path | None = None
    #: the sharded fit and its graph (serve-router)
    sharded: object = None
    graph: object = None

    def reference(self):
        """``query -> ranking`` computed without the served object's caches
        or merge: Eq. 19 scores of a fresh store opened from the same
        artifact, or, behind the router, a brute-force max-combine of a
        fresh router's per-shard scores on one common scale."""
        if self.sharded is None:
            store = ProfileStore.from_artifact(self.path)
            return lambda query: _by_score(enumerate(store.scores(query)))
        router = self.sharded.router()
        mappings = router.alignment.local_to_global

        def rank(query):
            shifts = [store.query_log_shift(query) for store in router.stores]
            best: dict[int, float] = {}
            for store, shift, mapping in zip(router.stores, shifts, mappings):
                scores = store.scores(query) * np.exp(shift - max(shifts))
                for local, score in enumerate(scores):
                    community = int(mapping[local])
                    best[community] = max(best.get(community, score), score)
            return _by_score(best.items())

        return rank

    def close(self) -> None:
        self.handle.__exit__(None, None, None)
        if self.holder is not None:
            self.holder.cleanup()


def _by_score(pairs) -> list[tuple[int, float]]:
    return sorted(((int(c), float(s)) for c, s in pairs), key=lambda pair: -pair[1])


def _gateway(backend):
    gateway = GatewayServer(backend, port=0, max_in_flight=8, max_queue=64)
    handle = GatewayThread(gateway).__enter__()
    return gateway, handle


def _set_up_store(seed: int, timer: ProbedTimer) -> Backend:
    graph, truth = twitter_scenario("medium", rng=seed)
    timer.mark()
    started = time.perf_counter()
    result = CPDModel(STORE_CONFIG, rng=seed).fit(graph)
    fit_wall = time.perf_counter() - started
    timer.mark()
    nmi = normalized_mutual_information(truth.doc_community, result.doc_community)
    holder = tempfile.TemporaryDirectory()  # under TMPDIR, inside the checkout
    path = Path(holder.name) / "store.cpd.npz"
    save_result(
        result, path, vocabulary=graph.vocabulary,
        graph_summary=GraphSummary.from_graph(graph),
    )
    store = ProfileStore.from_artifact(path)
    terms = [query.term for query in store.indexed_queries(STORE_TERMS)]
    if len(terms) < STORE_TERMS:
        raise RuntimeError(f"the artifact indexes only {len(terms)} terms")
    # the gateway's batched miss path fills the cache: every timed request
    # is then a hit
    store.rank_many(terms)
    timer.mark()
    gateway, handle = _gateway(store)
    timer.mark()
    # each client cycles over the terms from its own offset
    streams = [terms[i:] + terms[:i] for i in range(CLIENTS["serve-store"])]
    return Backend(store, gateway, handle, streams, [fit_wall], nmi, holder, path)


def _query_streams(graph, seed: int, n_streams: int) -> list:
    """Seeded query streams in which each query searches for a reshared
    post: a diffusion link is drawn uniformly, and the first three distinct
    words of its source document are the query. A post is therefore
    searched for in proportion to how often the scenario reshared it."""
    sources = np.array([link.source_doc for link in graph.diffusion_links])
    texts = {}
    for doc_id in np.unique(sources):
        words = dict.fromkeys(graph.documents[doc_id].words.tolist())
        texts[doc_id] = " ".join(graph.vocabulary.decode(list(words)[:TERMS_PER_QUERY]))
    streams = []
    for stream in range(n_streams + 1):
        draws = np.random.default_rng([seed, stream]).choice(sources, size=STREAM_LENGTH)
        streams.append([texts[doc_id] for doc_id in draws])
    return streams


def _set_up_router(seed: int, timer: ProbedTimer) -> Backend:
    graph, truth = separated_scenario("medium", rng=seed)
    timer.mark()
    sharded = fit_shards(graph, ROUTER_CONFIG, 2, strategy="community", rng=seed)
    timer.mark()
    doc_labels = np.full(graph.n_documents, -1, dtype=np.int64)
    for shard_id, (part, result) in enumerate(zip(sharded.plan.shards, sharded.results)):
        doc_labels[part.doc_ids] = sharded.alignment.map_communities(
            shard_id, result.doc_community
        )
    nmi = normalized_mutual_information(truth.doc_community, doc_labels)
    router = sharded.router()
    *streams, warm = _query_streams(graph, seed, CLIENTS["serve-router"])
    timer.mark()
    # a stream of its own fills the router LRU before the clock starts
    for query in warm:
        info = router.cache_info()["router"]
        if info["size"] >= info["max_size"]:
            break
        router.rank(query)
    timer.mark()
    gateway, handle = _gateway(router)
    timer.mark()
    return Backend(
        router, gateway, handle, streams, list(sharded.fit_seconds), nmi,
        sharded=sharded, graph=graph,
    )


# ------------------------------------------------------------------ clients


def _load(built: Backend, seconds: float, seed: int, offset: int) -> list:
    """Run one closed-loop client process per stream for ``seconds``.

    The clock starts once every client has connected its handshake pipe,
    so process start-up is not measured.
    """
    context = mp.get_context("spawn")
    pipes, processes = [], []
    try:
        for i, stream in enumerate(built.streams):
            parent, child = context.Pipe()
            process = context.Process(
                target=client.client_main,
                args=(
                    child, built.gateway.host, built.gateway.port, stream,
                    offset, SAMPLE_EVERY, (seed + i) % SAMPLE_EVERY,
                ),
                daemon=True,
            )
            process.start()
            child.close()
            pipes.append(parent)
            processes.append(process)
        for parent in pipes:
            if not parent.poll(CLIENT_TIMEOUT) or parent.recv() != "ready":
                raise RuntimeError("a client process did not start")
        deadline = time.perf_counter() + seconds
        for parent in pipes:
            parent.send(deadline)
        records = []
        for parent in pipes:
            if not parent.poll(seconds + CLIENT_TIMEOUT):
                raise RuntimeError("a client process did not report")
            records.append(parent.recv())
        return records
    finally:
        for process in processes:
            process.join(timeout=CLIENT_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join()
        for parent in pipes:
            parent.close()


def _same_ranking(served: list, direct: list) -> bool:
    """The same communities in the same order, with scores equal up to
    rounding: a batched matmul and a single matvec may differ in the last
    bits."""
    return [int(c) for c, _s in served] == [c for c, _s in direct] and np.allclose(
        [float(s) for _c, s in served], [s for _c, s in direct], rtol=1e-9, atol=0.0,
    )


def _check(built: Backend, records: list) -> tuple[int, list[str]]:
    """Served rankings must equal a reference ranking computed without the
    served caches, so a wrong cached ranking cannot vouch for itself.

    Returns the number of sampled answers that failed and the reasons.
    """
    reference = built.reference()
    failing, problems = 0, []
    for record in records:
        for query, body, exact in record["samples"]:
            faults = []
            if not _same_ranking(json.loads(body)["ranking"], reference(query)):
                faults.append(f"served ranking of {query!r} differs from the reference")
            if exact != "1":
                faults.append(f"{query!r} answered without exact coverage ({exact!r})")
            failing += bool(faults)
            problems += faults
    return failing, problems


def _verdict(built: Backend, records: list, nmis: list) -> tuple[int, int, bool, list[str]]:
    """``(attempted, failed, correct, notes)`` of the requests in ``records``.

    A request fails when it is not a ``200`` or when its sampled answer
    fails a check; a run is correct only when no request failed.
    """
    latencies, statuses, n_samples = _merge(records)
    failing, problems = _check(built, records)
    attempted = len(latencies)
    failed = attempted - statuses.get("200", 0) + failing
    notes = [
        f"{attempted} requests, statuses {dict(sorted(statuses.items()))}",
        f"{n_samples} sampled answers checked against the reference, {failing} failed",
    ] + problems[:5]
    low = [nmi for nmi in nmis if not nmi >= NMI_FLOOR]
    if low:
        notes.append(f"set-up NMI {min(low):.3f} below {NMI_FLOOR}")
    correct = attempted > 0 and failed == 0 and not low
    return attempted, failed, correct, notes


def _merge(records: list) -> tuple[list, dict, int]:
    latencies = [s for r in records for s in r["latencies"]]
    statuses: dict[str, int] = {}
    for record in records:
        for status, count in record["statuses"].items():
            statuses[status] = statuses.get(status, 0) + count
    return latencies, statuses, sum(len(r["samples"]) for r in records)


# ---------------------------------------------------------------------- run


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    ledger = Ledger()
    if trace:
        install_fit_layers(ledger)
    setup_times = []
    fit_walls = []
    nmis = []
    built = None
    try:
        for _ in range(SETUPS[workload]):
            timer = ProbedTimer()
            fresh = (
                _set_up_store(seed, timer)
                if workload == "serve-store"
                else _set_up_router(seed, timer)
            )
            setup_times.append((sum(timer.segments), sum(timer.normalised())))
            fit_walls += fresh.fit_walls
            nmis.append(fresh.nmi)
            if built is not None:
                built.close()
            built = fresh
        setup_snapshot = ledger.snapshot()
        ledger.uninstall()
        if not trace:
            records = _load(built, seconds, seed, 0)
            return _end_to_end(built, records, seconds, setup_times, fit_walls, nmis)
        untraced = _load(built, seconds / 2, seed, 0)
        install_serve_layers(ledger)
        ledger.reset()
        before = _counters(built)
        traced = _load(built, seconds / 2, seed, sum(len(r["latencies"]) for r in untraced))
        ledger.uninstall()
        return _per_layer(
            built, untraced, traced, seconds / 2, ledger.snapshot(), setup_snapshot,
            len(setup_times), before, seed, nmis,
        )
    finally:
        ledger.uninstall()
        if built is not None:
            built.close()


def _end_to_end(built, records, loop_s, setup_times, fit_walls, nmis) -> Outcome:
    latencies, _statuses, _n = _merge(records)
    attempted, failed, correct, checks = _verdict(built, records, nmis)
    metrics = {
        "setup_s": (median([normalised for _raw, normalised in setup_times]), "s"),
        "fit_nmi": (median(nmis), "nmi"),
        "p50_ms": (median(latencies) * 1e3, "ms"),
        "ok_frac": ((attempted - failed) / attempted if attempted else 0.0, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    stats = built.gateway.stats()
    notes = checks + [
        latency_note("requests", latencies, loop_s),
        f"batches {stats['batches']}, batched queries {stats['batched_queries']}, "
        f"peak in-flight {stats['peak_in_flight']}, shed {stats['shed']}",
        f"set-up fit walls (s): {' '.join(f'{s:.3f}' for s in fit_walls)}",
        setups_note(setup_times),
    ]
    return Outcome(correct=correct, attempted=attempted, failed=failed, metrics=metrics, notes=notes)


def _counters(built: Backend) -> dict:
    """``(hits, misses)`` of the store LRUs and, behind a router, its own LRU;
    ``(batched queries, batches)`` of the gateway's batcher."""
    info = built.backend.cache_info()
    stats = built.gateway.stats()
    counters = {
        "store": (info["hits"], info["misses"]),
        "batch": (stats["batched_queries"], stats["batches"]),
    }
    if "router" in info:
        counters["router"] = (info["router"]["hits"], info["router"]["misses"])
    return counters


def _ratio(after: tuple, before: tuple) -> float:
    hits = after[0] - before[0]
    total = hits + after[1] - before[1]
    return hits / total if total else 0.0


def _per_layer(built, untraced, traced, seconds, snapshot, setup_snapshot, n_setups, before, seed, nmis) -> Outcome:
    after = _counters(built)
    self_s, total_s, counts = snapshot["self_s"], snapshot["total_s"], snapshot["counts"]
    n = max(snapshot["calls"].get("gateway.parse", 0), 1)
    traced_lat, _statuses, _n = _merge(traced)
    untraced_lat, _statuses, _n = _merge(untraced)
    traced_ms = statistics.fmean(traced_lat) * 1e3
    untraced_ms = statistics.fmean(untraced_lat) * 1e3
    per_request = {
        "gateway.parse_ms": self_s.get("gateway.parse", 0.0),
        "gateway.admission_wait_ms": total_s.get("gateway.admission_wait", 0.0),
        "gateway.batch_wait_ms": total_s.get("gateway.batch_rank", 0.0)
        - counts.get("gateway.waited_backend_s", 0.0),
        "gateway.render_ms": self_s.get("gateway.render", 0.0),
        "serving.rank_ms": self_s.get("serving.rank", 0.0),
        "shard.gather_ms": self_s.get("shard.gather", 0.0),
        "shard.merge_ms": self_s.get("shard.merge", 0.0),
    }
    metrics = {name: (seconds / n * 1e3, "ms") for name, seconds in per_request.items()}
    metrics["gateway.other_ms"] = (
        traced_ms - sum(value for value, _unit in metrics.values()), "ms",
    )
    waiters, batches = (a - b for a, b in zip(after["batch"], before["batch"]))
    metrics["gateway.batch_size"] = (waiters / batches if batches else 0.0, "count")
    metrics["serving.hit_ratio"] = (_ratio(after["store"], before["store"]), "fraction")
    metrics["shard.router_hit_ratio"] = (
        _ratio(after["router"], before["router"]) if "router" in after else 0.0, "fraction",
    )
    setup_self = setup_snapshot["self_s"]
    shard_fit = sum(built.sharded.fit_seconds) if built.sharded is not None else 0.0
    metrics["shard.partition_s"] = (setup_self.get("shard.partition", 0.0) / n_setups, "s")
    metrics["topics.segmentation_s"] = (setup_self.get("topics.segmentation", 0.0) / n_setups, "s")
    metrics["shard.fit_s"] = (shard_fit, "s")
    metrics["shard.align_s"] = (setup_self.get("shard.align", 0.0) / n_setups, "s")
    metrics["shard.nmi"] = (_shard_nmi(built, seed), "nmi")
    metrics["ledger.wall_ms"] = (traced_ms, "ms")
    metrics["ledger.untraced_wall_ms"] = (untraced_ms, "ms")
    metrics["ledger.overhead_pct"] = ((traced_ms / untraced_ms - 1.0) * 100.0, "%")
    metrics.update(tail_metrics(traced_lat, seconds))
    attempted, failed, correct, checks = _verdict(built, untraced + traced, nmis)
    notes = [
        f"{len(untraced_lat)} untraced + {len(traced_lat)} traced requests",
        overhead_note(traced_ms, untraced_ms, OVERHEAD_TOLERANCE_PCT),
    ] + checks
    if metrics["gateway.other_ms"][0] < -0.01 * traced_ms:
        correct = False
        notes.append("layer times exceed the request wall")
    return Outcome(correct=correct, attempted=attempted, failed=failed, metrics=metrics, notes=notes)


def _shard_nmi(built: Backend, seed: int) -> float:
    """User-label NMI of the aligned shards against a monolithic fit."""
    if built.sharded is None:
        return 0.0
    sharded, graph = built.sharded, built.graph
    monolithic = CPDModel(ROUTER_CONFIG, rng=seed).fit(graph)
    labels = aligned_user_labels(
        sharded.alignment, sharded.results,
        [part.users for part in sharded.plan.shards], graph.n_users,
    )
    return normalized_mutual_information(monolithic.hard_community_per_user(), labels)
