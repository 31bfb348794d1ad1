"""The gateway over a live socket: routes, overload, drain, chaos.

Each test runs a real :class:`GatewayServer` on a background event-loop
thread (:class:`GatewayThread`) and talks plain stdlib HTTP to it — the
same path production traffic takes, keep-alive and all.
"""

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.gateway import GatewayServer, GatewayThread
from repro.resilience import FaultPlan, inject
from repro.serving import ProfileStore
from repro.shard import ShardRouter


@pytest.fixture(scope="module")
def store(fitted_cpd, twitter_tiny):
    graph, _truth = twitter_tiny
    return ProfileStore.from_fit(fitted_cpd, graph)


@pytest.fixture(scope="module")
def term(store):
    return next(iter(store.query_index()))


def _router(fit, **options):
    return ShardRouter(
        [
            ProfileStore.from_fit(result, part.graph)
            for result, part in zip(fit.results, fit.plan.shards)
        ],
        [part.users for part in fit.plan.shards],
        fit.alignment,
        **options,
    )


class SlowBackend:
    """Wrap a store so every rank call holds its slot for ``delay``s.

    Dropping ``rank_many`` disables the batcher, so each request occupies
    one admission slot for the full delay — the overload substrate.
    """

    def __init__(self, store, delay: float):
        self._store = store
        self.delay = delay
        self.calls = 0

    def rank(self, query):
        self.calls += 1
        time.sleep(self.delay)
        return self._store.rank(query)

    def __getattr__(self, name):
        if name in ("rank_many", "gather"):
            raise AttributeError(name)
        return getattr(self._store, name)


class TestRoutes:
    def test_rank_matches_the_store(self, store, term):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, headers, body = handle.get(f"/rank?q={term}")
        assert status == 200
        assert headers["X-Repro-Exact"] == "1"
        assert headers["X-Repro-Coverage"] == "1.0000"
        expected = [[c, pytest.approx(s)] for c, s in store.rank(term)]
        assert body["ranking"] == expected
        assert body["coverage"]["exact"] is True

    def test_rank_k_truncates(self, store, term):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, _headers, body = handle.get(f"/rank?q={term}&k=2")
        assert status == 200
        assert len(body["ranking"]) == 2

    def test_top_k_matches_the_store(self, store, term):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, _headers, body = handle.get(f"/top-k?q={term}&k=3")
        assert status == 200
        assert body["top"] == [c for c, _s in store.rank(term)[:3]]

    def test_community_members_and_labels(self, store):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, _h, members = handle.get("/community-members?k=3&members=1")
            assert status == 200
            status, _h, labels = handle.get("/labels?n=2")
            assert status == 200
        assert len(members["communities"]) == store.n_communities
        expected = store.community_members(3)
        assert [c["size"] for c in members["communities"]] == [
            len(ids) for ids in expected
        ]
        assert [c["members"] for c in members["communities"]] == [
            [int(u) for u in ids] for ids in expected
        ]
        assert labels["labels"] == list(store.labels(2))

    def test_unknown_term_is_404(self, store):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, _headers, body = handle.get("/rank?q=zzz-not-a-word")
        assert status == 404
        assert "vocabulary" in body["error"]

    def test_unknown_route_is_404_and_post_is_405(self, store):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, _h, _b = handle.get("/nope")
            assert status == 404
            connection = http.client.HTTPConnection(
                gateway.host, gateway.port, timeout=10
            )
            try:
                connection.request("POST", "/rank?q=x")
                assert connection.getresponse().status == 405
            finally:
                connection.close()

    def test_missing_query_parameter_is_400(self, store):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, _headers, body = handle.get("/rank")
        assert status == 400
        assert "?q=" in body["error"]

    @pytest.mark.parametrize("value", ["abc", "-1"])
    @pytest.mark.parametrize(
        "route, name",
        [
            ("/rank?q={term}&", "k"),
            ("/top-k?q={term}&", "k"),
            ("/community-members?", "k"),
            ("/labels?", "n"),
        ],
    )
    def test_bad_count_parameter_is_400_not_an_error(
        self, store, term, route, name, value
    ):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, _headers, body = handle.get(
                f"{route.format(term=term)}{name}={value}"
            )
        assert status == 400
        assert f"?{name}=" in body["error"]
        assert gateway.stats()["errors"] == 0
        assert gateway.stats()["batches"] == 0  # parsed before the backend

    def test_health_ready_metrics(self, store):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, _h, health = handle.get("/health")
            assert status == 200
            assert health["status"] == "ok"
            assert health["backend"] == "store"
            status, _h, ready = handle.get("/ready")
            assert status == 200 and ready["ready"] is True
            status, _h, metrics = handle.get("/metrics")
            assert status == 200
            assert isinstance(metrics, str)  # text exposition, not JSON

    def test_keep_alive_serves_many_requests_per_connection(self, store, term):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            connection = http.client.HTTPConnection(
                gateway.host, gateway.port, timeout=10
            )
            try:
                for _ in range(3):
                    connection.request("GET", f"/rank?q={term}")
                    response = connection.getresponse()
                    assert response.status == 200
                    assert response.headers["Connection"] == "keep-alive"
                    response.read()
            finally:
                connection.close()

    def test_garbage_on_the_wire_is_400(self, store):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            with socket.create_connection(
                (gateway.host, gateway.port), timeout=10
            ) as sock:
                sock.sendall(b"NONSENSE\r\n\r\n")
                reply = sock.recv(4096)
        assert b"400 Bad Request" in reply


def _read_response(sock) -> tuple[bytes, bytes]:
    """One ``Content-Length``-framed response off a raw socket: head, body."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _sep, body = data.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        chunk = sock.recv(4096)
        assert chunk, "connection closed mid-body"
        body += chunk
    assert len(body) == length, f"bytes past the response: {body[length:]!r}"
    return head, body


def _read_to_eof(sock) -> bytes:
    data = b""
    while chunk := sock.recv(4096):
        data += chunk
    return data


class TestFraming:
    """Raw-socket framing: versions, keep-alive and request bodies."""

    READY_1_0 = b"GET /ready HTTP/1.0\r\n\r\n"

    @pytest.fixture
    def gateway(self, store):
        # a read timeout far past the socket timeout: a connection left
        # open would fail the test rather than end in a late 408
        gateway = GatewayServer(store, port=0, read_timeout=60.0)
        with GatewayThread(gateway):
            yield gateway

    def _connect(self, gateway):
        return socket.create_connection((gateway.host, gateway.port), timeout=5)

    def test_http_1_0_closes_after_one_response(self, gateway):
        with self._connect(gateway) as sock:
            sock.sendall(self.READY_1_0)
            head, _body = _read_response(sock)
            assert head.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: close" in head
            assert _read_to_eof(sock) == b""
        assert gateway.stats()["read_timeouts"] == 0

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /ready HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            b"GET /ready HTTP/1.1\r\nHost: x\r\n\r\n",
        ],
        ids=["1.0-keep-alive", "1.1"],
    )
    def test_keep_alive_connections_stay_open(self, gateway, request_bytes):
        with self._connect(gateway) as sock:
            for _ in range(2):
                sock.sendall(request_bytes)
                head, _body = _read_response(sock)
                assert head.startswith(b"HTTP/1.1 200 ")
                assert b"Connection: keep-alive" in head

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /ready HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
            b"GET /ready HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
        ],
        ids=["content-length", "chunked"],
    )
    def test_a_request_body_is_one_400_and_a_close(self, gateway, request_bytes):
        with self._connect(gateway) as sock:
            sock.sendall(request_bytes)
            reply = _read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in reply
        assert b"request bodies" in reply
        assert gateway.stats()["read_timeouts"] == 0

    def test_an_empty_body_is_still_served(self, gateway):
        with self._connect(gateway) as sock:
            sock.sendall(b"GET /ready HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            head, _body = _read_response(sock)
        assert head.startswith(b"HTTP/1.1 200 ")


class TestOverload:
    def test_flood_sheds_excess_and_never_exceeds_the_limit(self, store, term):
        """The pinned acceptance test: in-flight limit N, flood 10N
        concurrent requests with max_queue=0 — the excess sheds with 429
        (not queued), and peak_in_flight never exceeds N."""
        limit = 4
        backend = SlowBackend(store, delay=0.15)
        gateway = GatewayServer(
            backend, port=0, max_in_flight=limit, max_queue=0, retry_after=2.0
        )
        with GatewayThread(gateway) as handle:
            with ThreadPoolExecutor(max_workers=10 * limit) as pool:
                futures = [
                    pool.submit(handle.get, f"/rank?q={term}")
                    for _ in range(10 * limit)
                ]
                responses = [f.result() for f in futures]
        statuses = [status for status, _h, _b in responses]
        assert set(statuses) <= {200, 429}
        shed = statuses.count(429)
        served = statuses.count(200)
        assert served >= limit  # the admitted work completed
        assert shed > 0  # the flood genuinely overloaded the gateway
        stats = gateway.stats()
        assert stats["peak_in_flight"] <= limit
        assert stats["shed"] == shed
        assert stats["peak_queue"] == 0  # max_queue=0: shed, never queued
        retry_after = next(
            h["Retry-After"] for s, h, _b in responses if s == 429
        )
        assert retry_after == "2"

    def test_bounded_queue_absorbs_a_small_burst_without_shedding(
        self, store, term
    ):
        backend = SlowBackend(store, delay=0.05)
        gateway = GatewayServer(backend, port=0, max_in_flight=2, max_queue=8)
        with GatewayThread(gateway) as handle:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(handle.get, f"/rank?q={term}")
                    for _ in range(6)
                ]
                statuses = [f.result()[0] for f in futures]
        assert statuses == [200] * 6
        stats = gateway.stats()
        assert stats["shed"] == 0
        assert stats["peak_in_flight"] <= 2

    def test_health_answers_while_saturated(self, store, term):
        """/health bypasses admission: it must answer precisely when the
        gateway is refusing query traffic."""
        backend = SlowBackend(store, delay=0.3)
        gateway = GatewayServer(backend, port=0, max_in_flight=1, max_queue=0)
        with GatewayThread(gateway) as handle:
            with ThreadPoolExecutor(max_workers=1) as pool:
                slow = pool.submit(handle.get, f"/rank?q={term}")
                time.sleep(0.05)  # the slow request now holds the only slot
                status, _h, health = handle.get("/health")
                assert status == 200
                assert health["admission"]["in_flight"] == 1
                assert slow.result()[0] == 200


class TestDrain:
    def test_readiness_flips_while_in_flight_work_completes(self, store, term):
        """SIGTERM semantics: /ready answers 503 the moment the drain
        starts, the in-flight request still completes with 200, and the
        drain barrier only resolves after it finishes."""
        backend = SlowBackend(store, delay=0.4)
        gateway = GatewayServer(backend, port=0, max_in_flight=2)
        with GatewayThread(gateway) as handle:
            # a keep-alive connection opened before the listener closes:
            # drain stops *accepting*, existing connections still serve
            probe = http.client.HTTPConnection(
                gateway.host, gateway.port, timeout=10
            )
            try:
                probe.request("GET", "/ready")
                first = probe.getresponse()
                assert first.status == 200
                first.read()

                with ThreadPoolExecutor(max_workers=1) as pool:
                    slow = pool.submit(handle.get, f"/rank?q={term}")
                    time.sleep(0.1)  # the slow request holds its slot
                    drain_future = handle.submit(gateway.drain())
                    time.sleep(0.05)

                    probe.request("GET", "/ready")
                    second = probe.getresponse()
                    body = json.loads(second.read())
                    assert second.status == 503
                    assert body == {"ready": False, "draining": True}
                    # draining closes the connection after the response
                    assert second.headers["Connection"] == "close"

                    assert not drain_future.done()  # barrier: work in flight
                    assert slow.result()[0] == 200  # finished, not dropped
                    drain_future.result(timeout=10)
            finally:
                probe.close()
        assert gateway.stats()["draining"] is True

    def test_new_connections_are_refused_after_drain(self, store):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            handle.submit(gateway.drain()).result(timeout=10)
            with pytest.raises(OSError):
                socket.create_connection(
                    (gateway.host, gateway.port), timeout=1
                ).close()


class TestHotSwap:
    def test_hot_swap_under_live_load_yields_no_errors(
        self, store, term, fitted_cpd
    ):
        """Zero-downtime requirement: swapping the model while request
        threads hammer /rank must produce only 200/429 — never a 5xx or
        a torn read."""
        gateway = GatewayServer(store, port=0, max_in_flight=4, max_queue=32)
        bad: list[tuple[int, object]] = []
        stop = threading.Event()

        def hammer(handle):
            while not stop.is_set():
                status, _h, body = handle.get(f"/rank?q={term}")
                if status not in (200, 429):
                    bad.append((status, body))

        with GatewayThread(gateway) as handle:
            threads = [
                threading.Thread(target=hammer, args=(handle,))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            try:
                for _ in range(5):
                    time.sleep(0.05)
                    store.hot_swap(fitted_cpd)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
        assert bad == []
        assert store.rank(term)  # the swapped store still answers


class TestFaultPoints:
    def test_accept_fault_resets_the_connection(self, store, term):
        gateway = GatewayServer(store, port=0)
        plan = FaultPlan(seed=0)
        plan.fail_at("gateway.accept", at=1)
        with GatewayThread(gateway) as handle:
            with inject(plan):
                with pytest.raises(
                    (ConnectionError, http.client.BadStatusLine, OSError)
                ):
                    handle.get(f"/rank?q={term}")
            # the very next connection works: the fault fired once
            status, _h, _b = handle.get(f"/rank?q={term}")
        assert status == 200
        assert gateway.stats()["accept_faults"] == 1
        assert plan.fired == [("gateway.accept", {})]

    def test_stalled_read_answers_408_under_the_read_timeout(self, store):
        gateway = GatewayServer(store, port=0, read_timeout=0.1)
        plan = FaultPlan(seed=0)
        plan.timeout_at("gateway.read", delay=30.0, at=1)
        with GatewayThread(gateway) as handle:
            with inject(plan):
                status, _h, body = handle.get("/health")
        assert status == 408
        assert "timed out" in body["error"]
        assert gateway.stats()["read_timeouts"] == 1

    def test_handler_fault_is_a_500_not_a_hang(self, store, term):
        gateway = GatewayServer(store, port=0)
        plan = FaultPlan(seed=0)
        plan.fail_at("gateway.handler", at=1, route="/rank")
        with GatewayThread(gateway) as handle:
            with inject(plan):
                status, _h, body = handle.get(f"/rank?q={term}")
            after, _h, _b = handle.get(f"/rank?q={term}")
        assert status == 500
        assert body["error"] == "injected handler fault"
        assert after == 200
        assert gateway.stats()["handler_faults"] == 1


class TestRouterBackend:
    def test_degraded_answers_carry_the_coverage_envelope(
        self, sharded_parity
    ):
        router = _router(
            sharded_parity, best_effort=True, retries=0, breaker_threshold=1
        )
        term = router.indexed_terms()[0]
        gateway = GatewayServer(router, port=0)
        plan = FaultPlan(seed=0)
        plan.fail_at("shard.query", at=1, times=10_000, shard=0)
        with GatewayThread(gateway) as handle:
            with inject(plan):
                status, headers, body = handle.get(f"/rank?q={term}")
            health_status, _h, health = handle.get("/health")
        assert status == 200  # best-effort: degraded, not failed
        assert headers["X-Repro-Exact"] == "0"
        assert float(headers["X-Repro-Coverage"]) <= 1.0
        assert body["coverage"]["exact"] is False
        assert body["coverage"]["failed"] == [0] or body["coverage"]["stale"] == [0]
        assert health_status == 200
        assert health["status"] == "degraded"
        assert health["shards"][0]["state"] == "open"

    def test_exact_router_answer_matches_rank(self, sharded_parity):
        router = _router(sharded_parity, best_effort=True)
        term = router.indexed_terms()[0]
        gateway = GatewayServer(router, port=0)
        with GatewayThread(gateway) as handle:
            status, headers, body = handle.get(f"/rank?q={term}")
        assert status == 200
        assert headers["X-Repro-Exact"] == "1"
        expected = [[c, pytest.approx(s)] for c, s in router.rank(term)]
        assert body["ranking"] == expected

    def test_router_hot_swap_mid_load_restores_exact_service(
        self, sharded_parity
    ):
        router = _router(
            sharded_parity, best_effort=True, retries=0, breaker_threshold=1
        )
        term = router.indexed_terms()[0]
        gateway = GatewayServer(router, port=0)
        plan = FaultPlan(seed=0)
        plan.fail_at("shard.query", at=1, times=10_000, shard=1)
        with GatewayThread(gateway) as handle:
            with inject(plan):
                degraded, headers, _b = handle.get(f"/rank?q={term}")
                assert degraded == 200
                assert headers["X-Repro-Exact"] == "0"
                router.hot_swap_shard(1, sharded_parity.results[1])
            healed, headers, _b = handle.get(f"/rank?q={term}")
        assert healed == 200
        assert headers["X-Repro-Exact"] == "1"


class TestRouterLruOnTheLoop:
    """Router-LRU hits are answered without a ``gather`` (or an executor
    hop); each request still counts exactly one router hit or miss."""

    @staticmethod
    def _counted(router):
        calls = []
        gather = router.gather

        def counted_gather(query, **options):
            calls.append(query)
            return gather(query, **options)

        router.gather = counted_gather
        return calls

    @staticmethod
    def _counters(router):
        info = router.cache_info()["router"]
        return info["hits"], info["misses"]

    def test_a_miss_then_a_hit_counts_one_of_each(self, sharded_parity):
        router = _router(sharded_parity)
        calls = self._counted(router)
        term = router.indexed_terms()[0]
        gateway = GatewayServer(router, port=0)
        hits, misses = self._counters(router)
        with GatewayThread(gateway) as handle:
            first = handle.get(f"/rank?q={term}")
            assert self._counters(router) == (hits, misses + 1)
            second = handle.get(f"/rank?q={term}")
        assert self._counters(router) == (hits + 1, misses + 1)
        assert calls == [term]  # the hit made no gather call
        assert first[0] == second[0] == 200
        assert second[1]["X-Repro-Exact"] == "1"
        assert first[2] == second[2]

    def test_unknown_term_is_still_a_404(self, sharded_parity):
        router = _router(sharded_parity)
        calls = self._counted(router)
        gateway = GatewayServer(router, port=0)
        counters = self._counters(router)
        with GatewayThread(gateway) as handle:
            status, _h, body = handle.get("/rank?q=zzzznotaword")
        assert status == 404
        assert body == {
            "error": "no query term of 'zzzznotaword' is in the vocabulary"
        }
        assert calls == []
        assert self._counters(router) == counters

    def test_hot_swap_drops_the_cached_merge(self, sharded_parity):
        from test_shard_align import permuted_result

        router = _router(sharded_parity)
        calls = self._counted(router)
        term = router.indexed_terms()[0]
        swapped = sharded_parity.results[1]
        swapped = permuted_result(
            swapped, np.roll(np.arange(swapped.n_communities), 1)
        )
        reference = _router(sharded_parity)
        reference.hot_swap_shard(1, swapped)
        gateway = GatewayServer(router, port=0)
        with GatewayThread(gateway) as handle:
            handle.get(f"/rank?q={term}")
            _s, _h, before = handle.get(f"/rank?q={term}")  # a cached hit
            router.hot_swap_shard(1, swapped)
            status, _h, after = handle.get(f"/rank?q={term}")
        assert status == 200
        assert calls == [term, term]  # the swap forced a fresh gather
        assert after["ranking"] != before["ranking"]
        assert after["ranking"] == [
            [c, pytest.approx(s)] for c, s in reference.rank(term)
        ]


class TestBatching:
    def test_concurrent_rank_requests_coalesce(self, store, term):
        """Deadline-less store-backed rank traffic batches: a concurrent
        burst must complete in fewer backend batches than requests."""
        gateway = GatewayServer(
            store, port=0, max_in_flight=8, max_queue=64
        )
        n = 16
        with GatewayThread(gateway) as handle:
            with ThreadPoolExecutor(max_workers=n) as pool:
                futures = [
                    pool.submit(handle.get, f"/rank?q={term}")
                    for _ in range(n)
                ]
                responses = [f.result() for f in futures]
        assert all(status == 200 for status, _h, _b in responses)
        rankings = {json.dumps(body["ranking"]) for _s, _h, body in responses}
        assert len(rankings) == 1  # identical query, identical answer
        stats = gateway.stats()
        assert stats["batches"] >= 1
        assert stats["batched_queries"] >= stats["batches"]


class TestObservabilityRoutes:
    """The ops surface ISSUE 10 added: /slo, uptime, access-log counters."""

    @pytest.fixture(autouse=True)
    def _clean_telemetry(self):
        from repro import obs

        obs.disable_telemetry()
        yield
        obs.disable_telemetry()

    def test_slo_route_reports_objectives_and_traffic(self, store, term):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            for _ in range(3):
                status, _h, _b = handle.get(f"/rank?q={term}")
                assert status == 200
            handle.get("/rank?q=zzz-not-a-word")  # 404: client error
            status, _h, slo = handle.get("/slo")
        assert status == 200
        assert slo["objectives"]["availability_target"] == 0.999
        availability = slo["routes"]["/rank"]["availability"]
        shortest = f"{float(slo['windows_seconds'][0]):g}"
        assert availability[shortest]["total"] == 4
        assert availability[shortest]["bad"] == 0  # a 404 spends no budget
        assert slo["worst_burn"]["burn_rate"] == 0.0

    def test_ops_probes_mint_no_slo_series(self, store):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            handle.get("/health")
            handle.get("/no-such-route")
            _s, _h, slo = handle.get("/slo")
        assert slo["routes"] == {}

    def test_metrics_exposes_uptime_and_accesslog_drops(self, store, term):
        from repro import obs

        obs.enable_telemetry()
        gateway = GatewayServer(store, port=0, access_log_capacity=2)
        with GatewayThread(gateway) as handle:
            for _ in range(4):  # overflow the 2-slot access-log ring
                handle.get(f"/rank?q={term}")
            status, _h, text = handle.get("/metrics")
        assert status == 200
        parsed = obs.parse_prometheus(text)
        samples = {s["name"]: s["value"] for s in parsed["samples"]}
        assert samples["repro_gateway_uptime_seconds"] > 0.0
        assert samples["repro_gateway_accesslog_dropped_total"] == 2
        assert "repro_slo_burn_rate" in parsed["types"]

    def test_health_reports_the_request_scoped_counters(self, store, term):
        from repro import obs

        obs.enable_telemetry()
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            handle.get(f"/rank?q={term}")
            _s, _h, health = handle.get("/health")
        assert health["access_log"]["logged"] == 1
        assert health["access_log"]["dropped"] == 0
        assert health["tail_sampling"]["observed"] == 1
        assert health["traces"] == {"kept": 1, "dropped": 0}  # warm-up keeps
        assert health["slo_worst_burn"]["burn_rate"] == 0.0

    def test_tail_sampling_idle_while_tracing_is_off(self, store, term):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            handle.get(f"/rank?q={term}")
            _s, _h, health = handle.get("/health")
        assert health["tail_sampling"]["observed"] == 0
        assert health["traces"] == {"kept": 0, "dropped": 0}

    def test_access_log_capacity_zero_disables_logging(self, store, term):
        gateway = GatewayServer(store, port=0, access_log_capacity=0)
        with GatewayThread(gateway) as handle:
            status, _h, _b = handle.get(f"/rank?q={term}")
            assert status == 200
        assert gateway.access_log.export() == []
        assert gateway.access_log.stats()["logged"] == 0

    def test_access_log_file_sink_writes_jsonl(self, store, term, tmp_path):
        path = tmp_path / "access.jsonl"
        gateway = GatewayServer(store, port=0, access_log_path=str(path))
        with GatewayThread(gateway) as handle:
            handle.get(f"/rank?q={term}")
            handle.get("/rank?q=zzz-not-a-word")
        gateway.access_log.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["status"] for r in records] == [200, 404]
        assert records[0]["route"] == "/rank"
        assert records[0]["total"] > 0.0

    def test_shed_request_is_logged_as_shed(self, store, term):
        # saturate the single slot, then observe the overflow's record
        release = threading.Event()

        class Blocking:
            def rank(self, query):
                release.wait(timeout=10)
                return store.rank(query)

            def __getattr__(self, name):
                if name in ("rank_many", "gather"):
                    raise AttributeError(name)
                return getattr(store, name)

        gateway = GatewayServer(
            Blocking(), port=0, max_in_flight=1, max_queue=0
        )
        with GatewayThread(gateway) as handle:
            with ThreadPoolExecutor(max_workers=2) as pool:
                first = pool.submit(handle.get, f"/rank?q={term}")
                time.sleep(0.2)
                status, _h, _b = handle.get(f"/rank?q={term}")
                release.set()
                first.result()
        assert status == 429
        shed = [r for r in gateway.access_log.export() if r["shed"]]
        assert len(shed) == 1
        assert shed[0]["status"] == 429
