"""Request-scoped tracing through the live gateway (DESIGN.md §13).

The acceptance pin for ISSUE 10 lives here: one request through a
*degraded* two-shard gateway must yield a single connected span tree —
gateway root, its phase children, the router gather and both per-shard
calls — retrievable by the trace id echoed in the response header.
"""

import pytest

from repro import obs
from repro.gateway import GatewayServer, GatewayThread, TRACE_HEADER
from repro.gateway.tracing import RequestContext, parse_trace_header
from repro.obs.trace import span_trees
from repro.resilience import FaultPlan, inject
from repro.serving import ProfileStore
from repro.shard import ShardRouter


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_telemetry()
    yield
    obs.disable_telemetry()


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


class TestParseTraceHeader:
    def test_bare_trace_id(self):
        assert parse_trace_header("deadbeef") == ("deadbeef", None)

    def test_trace_and_span(self):
        assert parse_trace_header("deadbeef-cafe") == ("deadbeef", "cafe")

    def test_malformed_is_ignored(self):
        assert parse_trace_header(None) == (None, None)
        assert parse_trace_header("") == (None, None)
        assert parse_trace_header("UPPER") == (None, None)
        assert parse_trace_header("not hex!") == (None, None)
        assert parse_trace_header("a" * 33) == (None, None)

    def test_valid_trace_with_garbage_span_keeps_the_trace(self):
        assert parse_trace_header("deadbeef-XYZ") == ("deadbeef", None)


class TestRequestContext:
    def test_tracing_off_still_echoes_the_client_id(self):
        ctx = RequestContext("deadbeef", tracing=False)
        assert ctx.trace_id == "deadbeef"
        assert ctx.buffer is None
        assert ctx.forced

    def test_tracing_off_without_header_has_no_id(self):
        ctx = RequestContext(None, tracing=False)
        assert ctx.trace_id == ""
        assert not ctx.forced

    def test_tracing_on_mints_an_id_when_the_client_sent_none(self):
        ctx = RequestContext(None, tracing=True)
        assert ctx.trace_id
        assert ctx.buffer is not None
        assert not ctx.forced

    def test_client_span_becomes_the_root_parent(self):
        ctx = RequestContext("deadbeef-cafe", tracing=True)
        ctx.finish_root(route="/rank", method="GET", status=200)
        (root,) = ctx.buffer.records
        assert root["name"] == "gateway.request"
        assert root["trace_id"] == "deadbeef"
        assert root["parent_id"] == "cafe"

    def test_phase_records_parent_to_the_root(self):
        ctx = RequestContext("deadbeef", tracing=True)
        ctx.observe_parse(0.001, 100.0)
        ctx.observe_queue_wait(0.002, 100.0)
        ctx.observe_batch_wait(0.003, 100.0)
        ctx.backend_header()
        ctx.observe_backend(0.004, 100.0)
        ctx.finish_root(route="/rank", method="GET", status=200)
        records = {r["name"]: r for r in ctx.buffer.records}
        assert set(records) == {
            "gateway.parse", "gateway.admission_wait", "gateway.batch_wait",
            "gateway.backend", "gateway.request",
        }
        root = records["gateway.request"]
        for name, record in records.items():
            if name != "gateway.request":
                assert record["parent_id"] == root["span_id"]
        assert ctx.queue_wait == 0.002
        assert ctx.batch_wait == 0.003
        assert ctx.backend_seconds == 0.004

    def test_backend_header_hands_the_span_id_downstream(self):
        ctx = RequestContext("deadbeef", tracing=True)
        header = ctx.backend_header()
        assert header["trace_id"] == "deadbeef"
        ctx.observe_backend(0.001, 100.0)
        (backend,) = ctx.buffer.records
        assert backend["span_id"] == header["span_id"]

    def test_error_status_marks_the_root(self):
        ctx = RequestContext(None, tracing=True)
        ctx.finish_root(route="/rank", method="GET", status=503)
        assert ctx.buffer.records[0]["status"] == "error"


class TestDegradedGatewayTraceTree:
    def test_one_request_yields_one_connected_tree(self, sharded_parity):
        """The ISSUE 10 acceptance pin, end to end."""
        router = _router(
            sharded_parity, best_effort=True, retries=0, breaker_threshold=1
        )
        term = router.indexed_terms()[0]
        obs.enable_telemetry()
        gateway = GatewayServer(router, port=0)
        trace_id = "feedfacefeedface"
        plan = FaultPlan(seed=0)
        plan.fail_at("shard.query", at=1, times=10_000, shard=0)
        with GatewayThread(gateway) as handle:
            with inject(plan):
                status, headers, body = handle.get(
                    f"/rank?q={term}", headers={TRACE_HEADER: trace_id}
                )
            assert status == 200
            assert headers["X-Repro-Exact"] == "0"  # genuinely degraded
            # the response echoes the id the client injected
            assert headers[TRACE_HEADER] == trace_id

            trace_status, _h, payload = handle.get(
                f"/trace?trace_id={trace_id}"
            )
        assert trace_status == 200
        assert payload["tracing"] is True
        spans = payload["spans"]
        assert payload["n_spans"] == len(spans) > 0
        assert all(s["trace_id"] == trace_id for s in spans)

        # ONE connected tree: gateway root -> phases -> router -> shards
        trees = span_trees(spans, trace_id=trace_id)
        assert len(trees) == 1
        root = trees[0]
        assert root["span"]["name"] == "gateway.request"
        assert root["span"]["parent_id"] is None
        phases = {child["span"]["name"] for child in root["children"]}
        assert {"gateway.parse", "gateway.admission_wait",
                "gateway.backend"} <= phases
        assert "gateway.batch_wait" not in phases  # routers never batch
        assert gateway.stats()["batches"] == 0
        (backend,) = [
            c for c in root["children"]
            if c["span"]["name"] == "gateway.backend"
        ]
        (gather,) = backend["children"]
        assert gather["span"]["name"] == "router.gather"
        shard_calls = [
            c for c in gather["children"]
            if c["span"]["name"] == "shard.call"
        ]
        assert {c["span"]["tags"]["shard"] for c in shard_calls} == {0, 1}

        # the access record tells the same story
        (record,) = [
            r for r in gateway.access_log.export() if r["route"] == "/rank"
        ]
        assert record["trace_id"] == trace_id
        assert record["status"] == 200
        assert record["degraded"] is True
        assert record["coverage"] < 1.0
        assert record["trace_kept"] is True

    def test_without_a_client_id_the_gateway_mints_one(
        self, sharded_parity
    ):
        router = _router(sharded_parity, best_effort=True)
        term = router.indexed_terms()[0]
        obs.enable_telemetry()
        gateway = GatewayServer(router, port=0)
        with GatewayThread(gateway) as handle:
            status, headers, _body = handle.get(f"/rank?q={term}")
            assert status == 200
            trace_id = headers[TRACE_HEADER]
            assert trace_id
            _s, _h, payload = handle.get(f"/trace?trace_id={trace_id}")
        trees = span_trees(payload["spans"], trace_id=trace_id)
        assert len(trees) == 1
        assert trees[0]["span"]["name"] == "gateway.request"


class TestCachedRouterTraceTree:
    def test_a_router_lru_hit_is_one_tree_without_a_shard_call(
        self, sharded_parity
    ):
        """A hit is answered on the event loop, yet still traces as
        request -> backend -> gather, and no shard is called."""
        router = _router(sharded_parity)
        term = router.indexed_terms()[0]
        router.rank(term)  # fill the router LRU
        obs.enable_telemetry()
        gateway = GatewayServer(router, port=0)
        trace_id = "cafebabecafebabe"
        with GatewayThread(gateway) as handle:
            status, headers, _body = handle.get(
                f"/rank?q={term}", headers={TRACE_HEADER: trace_id}
            )
            _s, _h, payload = handle.get(f"/trace?trace_id={trace_id}")
        assert status == 200
        assert headers["X-Repro-Exact"] == "1"
        spans = payload["spans"]
        assert "shard.call" not in {s["name"] for s in spans}
        trees = span_trees(spans, trace_id=trace_id)
        assert len(trees) == 1
        root = trees[0]
        assert root["span"]["name"] == "gateway.request"
        (backend,) = [
            c for c in root["children"]
            if c["span"]["name"] == "gateway.backend"
        ]
        assert backend["span"]["tags"]["path"] == "cached"
        (gather,) = backend["children"]
        assert gather["span"]["name"] == "router.gather"
        assert gather["span"]["tags"]["outcome"] == "cached"
        assert gather["children"] == []


class TestGatewayTracePlumbing:
    def test_tracing_disabled_echoes_but_records_nothing(self, store, term):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, headers, _body = handle.get(
                f"/rank?q={term}", headers={TRACE_HEADER: "deadbeef"}
            )
            assert status == 200
            assert headers[TRACE_HEADER] == "deadbeef"
            _s, _h, payload = handle.get("/trace?trace_id=deadbeef")
        assert payload["tracing"] is False
        assert payload["spans"] == []
        assert gateway.stats()["traces_kept"] == 0

    def test_tail_dropped_trace_never_reaches_the_sink(self, store, term):
        obs.enable_telemetry()
        gateway = GatewayServer(store, port=0)

        class DropAll:
            def keep(self, latency, *, error=False, forced=False):
                return False

            def stats(self):
                return {}

        gateway.tail = DropAll()
        with GatewayThread(gateway) as handle:
            status, headers, _body = handle.get(f"/rank?q={term}")
            assert status == 200
            minted = headers[TRACE_HEADER]
            _s, _h, payload = handle.get(f"/trace?trace_id={minted}")
        assert payload["spans"] == []
        stats = gateway.stats()
        assert stats["traces_dropped"] == 1
        assert stats["traces_kept"] == 0
        # the access record still exists and says the trace was dropped
        (record,) = [
            r for r in gateway.access_log.export() if r["route"] == "/rank"
        ]
        assert record["trace_kept"] is False

    def test_deadline_budget_lands_in_the_access_record(self, store, term):
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            status, _h, _body = handle.get(
                f"/rank?q={term}", headers={"X-Deadline-Ms": "5000"}
            )
            assert status == 200
        (record,) = [
            r for r in gateway.access_log.export() if r["route"] == "/rank"
        ]
        assert record["deadline_budget"] == pytest.approx(5.0, abs=0.1)
        assert record["deadline_remaining"] is not None
        assert record["deadline_remaining"] <= record["deadline_budget"]

    def test_batched_store_requests_trace_their_batch_wait(self, store, term):
        obs.enable_telemetry()
        gateway = GatewayServer(store, port=0)
        trace_id = "abadcafeabadcafe"
        with GatewayThread(gateway) as handle:
            status, _h, _body = handle.get(
                f"/rank?q={term}", headers={TRACE_HEADER: trace_id}
            )
            assert status == 200
            _s, _h, payload = handle.get(f"/trace?trace_id={trace_id}")
        names = {s["name"] for s in payload["spans"]}
        assert "gateway.batch_wait" in names
        (backend,) = [
            s for s in payload["spans"] if s["name"] == "gateway.backend"
        ]
        assert backend["tags"]["batched"] >= 1
