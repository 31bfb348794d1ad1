"""GatewayServer: the asyncio HTTP service over a store or shard router.

Request lifecycle (DESIGN.md §12–13)::

    accept -> read (bounded) -> parse -> [fault: gateway.handler]
      -> trace context (X-Repro-Trace accepted or minted, echoed back)
      -> deadline parse (400 on garbage; 504 if already expired)
      -> admission (429 + Retry-After when saturated)
      -> batcher (deadline-less store rank)
         | router-LRU hit on the loop | executor call
      -> response (+ coverage envelope headers on router answers)
      -> access log + SLO record + tail-sampled span tree

Backend calls run on a thread pool sized to the in-flight limit — the
store and router are thread-safe as of this layer (locked memo builds,
internally-locked LRUs), and the event loop never blocks on a matmul.
The one exception is a router-LRU hit: a cached merge is a dict read,
so it is answered on the loop and only a miss hops (DESIGN.md §12).

Each request times its own phases (parse, admission wait, batch wait
for a batched store request, backend) and emits them as one connected
span tree under a per-request
:class:`~repro.gateway.tracing.RequestContext` — the thread-local span
stack cannot be trusted on a shared event loop. Whether the tree reaches
the global sink is decided *after* the response (tail sampling): errors,
the slow percentile and client-followed trace ids survive; the rest is
counted and dropped.

``/health``, ``/ready``, ``/metrics``, ``/slo`` and ``/trace`` bypass
admission: they must keep answering precisely when the service is
saturated or draining, because that is when anyone looks at them.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from .. import obs
from ..obs.accesslog import AccessLog, NullAccessLog, TailSampler
from ..obs.export import render_prometheus
from ..obs.slo import SloTracker
from ..resilience.faults import firing as _fault_firing
from ..shard.router import DegradedError, GatherResult
from .admission import DEADLINE_HEADER, AdmissionController, Deadline, ShedError
from .batcher import RankBatcher
from .http import (
    BadRequest,
    Request,
    Response,
    parse_request,
    read_request_head,
    render_response,
)
from .tracing import TRACE_HEADER, RequestContext

#: response headers carrying the coverage envelope on every query answer
EXACT_HEADER = "X-Repro-Exact"
COVERAGE_HEADER = "X-Repro-Coverage"

#: operational endpoints: no admission, no access log, no trace context —
#: they must stay answerable (and cheap) precisely when the service is not
_OPS_ROUTES = frozenset({"/health", "/ready", "/metrics", "/slo", "/trace"})

#: query routes with SLO objectives (a 404-probe path must not mint a
#: per-route gauge series — label cardinality is a budget too)
_SLO_ROUTES = frozenset({"/rank", "/top-k", "/community-members", "/labels"})


def _coverage_payload(envelope: GatherResult) -> dict:
    return {
        "exact": envelope.exact,
        "coverage": round(envelope.coverage, 4),
        "n_shards": envelope.n_shards,
        "answered": list(envelope.answered),
        "stale": list(envelope.stale),
        "failed": list(envelope.failed),
        "errors": {str(k): v for k, v in envelope.errors.items()},
    }


def _exact_coverage() -> dict:
    """The trivial envelope a monolithic store answer carries."""
    return {
        "exact": True,
        "coverage": 1.0,
        "n_shards": 1,
        "answered": [0],
        "stale": [],
        "failed": [],
        "errors": {},
    }


def _coverage_headers(coverage: dict) -> dict[str, str]:
    return {
        EXACT_HEADER: "1" if coverage["exact"] else "0",
        COVERAGE_HEADER: f"{coverage['coverage']:.4f}",
    }


class GatewayServer:
    """One overload-hardened HTTP server over a ProfileStore or ShardRouter.

    ``backend`` is duck-typed: anything with ``rank`` works for the query
    routes; ``gather`` marks it router-like (coverage envelopes, budget
    propagation), and its ``cached_gather`` answers LRU hits on the event
    loop; ``rank_many`` + ``query_word_ids`` on a store enable
    micro-batching.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 8,
        max_queue: int = 16,
        retry_after: float = 1.0,
        default_deadline: Optional[float] = None,
        read_timeout: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        slo: Optional[SloTracker] = None,
        slo_availability_target: float = 0.999,
        slo_latency_target: float = 0.99,
        slo_latency_threshold: float = 0.25,
        access_log_capacity: int = 2048,
        access_log_path: Optional[str] = None,
        tail_quantile: float = 0.9,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self.default_deadline = default_deadline
        self.read_timeout = read_timeout
        self.clock = clock
        self.is_router = hasattr(backend, "gather")
        self.admission = AdmissionController(
            max_in_flight=max_in_flight,
            max_queue=max_queue,
            retry_after=retry_after,
        )
        # only a store batches: its rank_many is one fused matmul, while a
        # router batch would be a loop of per-query gathers
        self._can_batch = not self.is_router and hasattr(backend, "rank_many")
        self.batcher = RankBatcher(self._run_batch)
        self.slo = slo if slo is not None else SloTracker(
            availability_target=slo_availability_target,
            latency_target=slo_latency_target,
            latency_threshold=slo_latency_threshold,
            clock=clock,
        )
        self.access_log = (
            AccessLog(access_log_capacity, path=access_log_path)
            if access_log_capacity > 0
            else NullAccessLog()
        )
        self.tail = TailSampler(quantile=tail_quantile)
        self._accesslog_dropped_reported = 0
        self._traces_kept = 0
        self._traces_dropped = 0
        self._executor = ThreadPoolExecutor(
            max_workers=max_in_flight, thread_name_prefix="gateway"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        self._draining = False
        self._started_at: Optional[float] = None
        self._counters = {
            "requests": 0,
            "deadline_rejects": 0,
            "read_timeouts": 0,
            "accept_faults": 0,
            "handler_faults": 0,
            "errors": 0,
        }
        self._status_counts: dict[str, int] = {}

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind and start accepting; resolves ``self.port`` when it was 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self.clock()
        registry = obs.get_registry()
        if registry.enabled:
            registry.gauge("repro_gateway_draining").set(0)

    async def drain(self) -> None:
        """Graceful drain: flip readiness, stop accepting, finish in-flight.

        ``/ready`` answers 503 from the first line on — existing
        keep-alive connections are still served until their current
        request finishes (then closed), so a load balancer sees the flip
        *while* the instance completes its work.
        """
        self._draining = True
        registry = obs.get_registry()
        if registry.enabled:
            registry.gauge("repro_gateway_draining").set(1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.batcher.drain()
        await self.admission.wait_idle()

    async def shutdown(self) -> None:
        """Drain, then tear down idle connections and the executor."""
        if not self._draining:
            await self.drain()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._executor.shutdown(wait=False)
        self.access_log.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        await self.shutdown()

    def run(self, out: Callable[[str], None] = print) -> None:
        """Blocking entry point for ``repro serve``: SIGTERM drains."""

        async def main() -> None:
            await self.start()
            out(f"gateway serving on http://{self.host}:{self.port}")
            out(
                f"backend: {'router' if self.is_router else 'store'}, "
                f"max_in_flight={self.admission.max_in_flight}, "
                f"max_queue={self.admission.max_queue}"
            )
            await self.serve_forever()
            out("gateway drained and stopped")

        asyncio.run(main())

    # --------------------------------------------------------------- connection

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            if _fault_firing("gateway.accept") is not None:
                # injected accept fault: the connection dies before a byte
                # is read — clients see a reset, exactly like a crash
                self._counters["accept_faults"] += 1
                return
            while True:
                response_close = await self._serve_one(reader, writer)
                if response_close:
                    return
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_one(self, reader, writer) -> bool:
        """Serve one request off the connection; True = close it now."""
        read_spec = _fault_firing("gateway.read")
        try:
            if read_spec is not None and read_spec.action == "timeout":
                # a stalled client: bytes never arrive; the read deadline
                # is the only thing standing between this and a leak
                await asyncio.wait_for(
                    asyncio.sleep(read_spec.delay), self.read_timeout
                )
                raw = None
            elif read_spec is not None:
                raise BadRequest("injected read fault")
            else:
                raw = await asyncio.wait_for(
                    read_request_head(reader), self.read_timeout
                )
        except asyncio.TimeoutError:
            self._counters["read_timeouts"] += 1
            writer.write(
                render_response(
                    Response(408, {"error": "request read timed out"}),
                    close=True,
                )
            )
            await writer.drain()
            return True
        except BadRequest as exc:
            writer.write(
                render_response(Response(400, {"error": str(exc)}), close=True)
            )
            await writer.drain()
            return True
        if raw is None:
            return True  # clean EOF
        try:
            request = parse_request(raw)
        except BadRequest as exc:
            writer.write(
                render_response(Response(400, {"error": str(exc)}), close=True)
            )
            await writer.drain()
            return True
        response = await self._dispatch(request)
        close = self._draining or request.wants_close
        writer.write(render_response(response, close=close))
        await writer.drain()
        return close

    # ----------------------------------------------------------------- routing

    async def _dispatch(self, request: Request) -> Response:
        started = self.clock()
        route = request.path
        ctx: Optional[RequestContext] = None
        if route not in _OPS_ROUTES:
            ctx = RequestContext(
                request.header(TRACE_HEADER), tracing=obs.tracing_enabled()
            )
            request.trace = ctx
        spec = _fault_firing("gateway.handler", route=route)
        if spec is not None:
            if spec.action == "timeout":
                # a slow handler (drain and latency tests): the request is
                # genuinely in flight for spec.delay seconds
                await asyncio.sleep(spec.delay)
            else:
                self._counters["handler_faults"] += 1
                return self._finish(
                    route,
                    started,
                    Response(500, {"error": "injected handler fault"}),
                    request=request,
                    ctx=ctx,
                )
        try:
            response = await self._route(request)
        except BadRequest as exc:
            response = Response(400, {"error": str(exc)})
        except ShedError as exc:
            registry = obs.get_registry()
            if registry.enabled:
                registry.counter("repro_gateway_shed_total").inc()
            response = Response(
                429,
                {"error": str(exc)},
                headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except KeyError as exc:
            response = Response(404, {"error": str(exc).strip("'\"")})
        except DegradedError as exc:
            response = Response(
                503,
                {
                    "error": "degraded",
                    "detail": str(exc),
                    "failed": {str(k): v for k, v in exc.failed.items()},
                },
            )
        except TimeoutError as exc:
            response = Response(504, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            self._counters["errors"] += 1
            response = Response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        return self._finish(route, started, response, request=request, ctx=ctx)

    def _finish(
        self,
        route: str,
        started: float,
        response: Response,
        request: Optional[Request] = None,
        ctx: Optional[RequestContext] = None,
    ) -> Response:
        total = self.clock() - started
        self._counters["requests"] += 1
        status = str(response.status)
        self._status_counts[status] = self._status_counts.get(status, 0) + 1
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_gateway_requests_total",
                {"route": route, "status": status},
            ).inc()
            registry.histogram(
                "repro_gateway_request_seconds", {"route": route}
            ).observe(total)
            registry.gauge("repro_gateway_in_flight").set(
                self.admission.in_flight
            )
            registry.gauge("repro_gateway_queue_depth").set(
                self.admission.queued
            )
        if ctx is None:
            return response
        if ctx.trace_id:
            response.headers.setdefault(TRACE_HEADER, ctx.trace_id)
        code = response.status
        if route in _SLO_ROUTES:
            self.slo.record(route, code, total)
        kept = False
        if ctx.buffer is not None:
            ctx.finish_root(
                route=route,
                method=request.method if request is not None else "GET",
                status=code,
                query=request.params.get("q") if request is not None else None,
            )
            kept = self.tail.keep(total, error=code >= 500, forced=ctx.forced)
            if kept:
                obs.get_sink().ingest(ctx.buffer.records)
                self._traces_kept += 1
            else:
                self._traces_dropped += 1
                if registry.enabled:
                    registry.counter(
                        "repro_gateway_traces_dropped_total"
                    ).inc()
        exact = response.headers.get(EXACT_HEADER)
        coverage = response.headers.get(COVERAGE_HEADER)
        self.access_log.log({
            "ts": time.time(),
            "method": request.method if request is not None else "GET",
            "route": route,
            "query": request.params.get("q") if request is not None else None,
            "status": code,
            "trace_id": ctx.trace_id,
            "queue_wait": round(ctx.queue_wait, 6),
            "batch_wait": round(ctx.batch_wait, 6),
            "backend": round(ctx.backend_seconds, 6),
            "total": round(total, 6),
            "deadline_budget": ctx.deadline_budget,
            "deadline_remaining": ctx.deadline_remaining,
            "shed": code == 429,
            "degraded": exact == "0" or code == 503,
            "coverage": float(coverage) if coverage is not None else None,
            "trace_kept": kept,
        })
        return response

    async def _route(self, request: Request) -> Response:
        if request.method != "GET":
            return Response(405, {"error": f"{request.method} not supported"})
        path = request.path
        if path == "/health":
            return Response(200, self._health_payload())
        if path == "/ready":
            if self._draining:
                return Response(503, {"ready": False, "draining": True})
            return Response(200, {"ready": True})
        if path == "/metrics":
            registry = obs.get_registry()
            if registry.enabled:
                if self._started_at is not None:
                    registry.gauge("repro_gateway_uptime_seconds").set(
                        self.clock() - self._started_at
                    )
                # scrape-time counter: how many access records the ring (or
                # a failing file sink) has lost since the last report
                counter = registry.counter(
                    "repro_gateway_accesslog_dropped_total"
                )
                dropped = self.access_log.dropped
                delta = dropped - self._accesslog_dropped_reported
                if delta > 0:
                    counter.inc(delta)
                    self._accesslog_dropped_reported = dropped
                self.slo.export_gauges(registry)
            text = render_prometheus(registry.snapshot())
            return Response(
                200, text, content_type="text/plain; version=0.0.4"
            )
        if path == "/slo":
            snapshot = self.slo.snapshot()
            snapshot["worst_burn"] = self.slo.worst_burn(snapshot)
            registry = obs.get_registry()
            if registry.enabled:
                self.slo.export_gauges(registry)
            return Response(200, snapshot)
        if path == "/trace":
            trace_id = request.params.get("trace_id")
            spans = obs.get_sink().export()
            if trace_id:
                spans = [s for s in spans if s.get("trace_id") == trace_id]
            return Response(
                200,
                {
                    "trace_id": trace_id,
                    "tracing": obs.tracing_enabled(),
                    "n_spans": len(spans),
                    "spans": spans,
                },
            )
        if path == "/rank":
            return await self._admitted(request, self._rank_route)
        if path == "/top-k":
            return await self._admitted(request, self._top_k_route)
        if path == "/community-members":
            return await self._admitted(request, self._members_route)
        if path == "/labels":
            return await self._admitted(request, self._labels_route)
        return Response(404, {"error": f"no route {path}"})

    async def _admitted(self, request: Request, worker) -> Response:
        """Deadline parse -> admission -> worker, releasing the slot after.

        The deadline is checked twice: before admission (a pre-expired
        request must cost nothing — it never reaches a backend call) and
        after leaving the wait queue (queueing spends the budget too).
        """
        ctx = request.trace
        parse_wall = time.time()
        parse_perf = time.perf_counter()
        try:
            deadline = Deadline.from_header(
                request.header(DEADLINE_HEADER),
                self.default_deadline,
                clock=self.clock,
            )
        except ValueError:
            return Response(
                400,
                {"error": f"malformed {DEADLINE_HEADER} header (want ms)"},
            )
        if ctx is not None:
            ctx.observe_parse(time.perf_counter() - parse_perf, parse_wall)
            remaining = deadline.remaining()
            if remaining is not None:
                ctx.deadline_budget = round(remaining, 6)
        if deadline.expired:
            return self._deadline_reject("at admission")
        queue_wall = time.time()
        queue_perf = time.perf_counter()
        await self.admission.acquire()  # ShedError -> 429 in _dispatch
        if ctx is not None:
            ctx.observe_queue_wait(
                time.perf_counter() - queue_perf, queue_wall
            )
        try:
            if deadline.expired:
                return self._deadline_reject("while queued")
            response = await worker(request, deadline)
            if ctx is not None and deadline.cutoff is not None:
                remaining = deadline.remaining()
                if remaining is not None:
                    ctx.deadline_remaining = round(remaining, 6)
            return response
        finally:
            self.admission.release()

    def _deadline_reject(self, where: str) -> Response:
        self._counters["deadline_rejects"] += 1
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("repro_gateway_deadline_rejects_total").inc()
        return Response(504, {"error": f"deadline already expired {where}"})

    # ----------------------------------------------------------- query workers

    async def _in_executor(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _backend_call(self, ctx, call, *, tags=None):
        """One backend call on the executor, timed as ``gateway.backend``.

        ``call`` receives the trace header the backend should parent to
        (``None`` when this request records no spans); spans the call opens
        on the executor thread (``router.gather`` → ``shard.call``) are
        captured into the request's buffer, so the whole tree survives —
        or is dropped by — tail sampling together.
        """
        header = ctx.backend_header() if ctx is not None else None
        if ctx is not None and ctx.buffer is not None:
            buffer = ctx.buffer

            def body():
                with obs.capture_spans(buffer):
                    return call(header)
        else:
            def body():
                return call(header)

        wall = time.time()
        started = time.perf_counter()
        status = "ok"
        try:
            return await self._in_executor(body)
        except Exception:
            status = "error"
            raise
        finally:
            if ctx is not None:
                ctx.observe_backend(
                    time.perf_counter() - started, wall,
                    status=status, tags=tags,
                )

    def _cached_gather(self, query: str, ctx) -> Optional[GatherResult]:
        """The router-LRU answer, read on the event loop; None on a miss.

        A hit is a tokenise and a locked dict read, cheaper than the
        executor hop it replaces. It is timed as ``gateway.backend``
        (``path: cached``), and its ``router.gather`` span is captured into
        the request's buffer exactly as :meth:`_backend_call` captures the
        executor's. A miss records nothing: the caller's ``gather`` does.
        """
        header = ctx.backend_header() if ctx is not None else None
        wall = time.time()
        started = time.perf_counter()
        if header is not None:
            with obs.capture_spans(ctx.buffer):
                envelope = self.backend.cached_gather(query, trace=header)
        else:
            envelope = self.backend.cached_gather(query)
        if envelope is not None and ctx is not None:
            ctx.observe_backend(
                time.perf_counter() - started, wall, tags={"path": "cached"}
            )
        return envelope

    def _check_exact(self, envelope: GatherResult) -> None:
        """Strict routers refuse to serve a partial merge."""
        if not envelope.exact and not getattr(
            self.backend, "best_effort", False
        ):
            raise DegradedError(
                envelope.errors
                or {shard: "no answer" for shard in envelope.failed}
            )

    async def _ranked(
        self, query: str, deadline: Deadline, ctx: Optional[RequestContext] = None
    ) -> tuple[list, dict]:
        """``(ranking, coverage)`` for one query under the deadline.

        Deadline-less store requests coalesce in the batcher (one fused
        ``rank_many`` per loop turn). A store request carrying a deadline
        bypasses it. A router request is answered from the router LRU on
        the event loop when it can be; a miss is one ``gather`` on the
        executor whose budget is the deadline's remainder (``None``
        without a deadline). Router answers that are not exact raise
        :class:`DegradedError` unless the router is best-effort (the
        envelope then rides the response instead).
        """
        if self._can_batch and deadline.cutoff is None:
            ranking = await self.batcher.rank(query, trace=ctx)
            return list(ranking), _exact_coverage()
        if self.is_router:
            envelope = self._cached_gather(query, ctx)
            if envelope is not None:
                return list(envelope.ranking), _coverage_payload(envelope)
            budget = deadline.remaining()
            envelope = await self._backend_call(
                ctx,
                lambda header: self.backend.gather(
                    query, budget=budget, trace=header
                ),
                tags={"path": "gather"},
            )
            self._check_exact(envelope)
            return list(envelope.ranking), _coverage_payload(envelope)
        ranking = await self._backend_call(
            ctx,
            lambda _header: self.backend.rank(query),
            tags={"path": "rank"},
        )
        return list(ranking), _exact_coverage()

    @staticmethod
    def _require_query(request: Request) -> str:
        query = request.params.get("q", "").strip()
        if not query:
            raise BadRequest("missing ?q= query parameter")
        return query

    @staticmethod
    def _count_param(
        request: Request, name: str, default: Optional[int]
    ) -> Optional[int]:
        """The non-negative integer ``?name=``, or ``default`` if absent."""
        raw = request.params.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
            if value < 0:
                raise ValueError(raw)
        except ValueError:
            raise BadRequest(
                f"?{name}= must be a non-negative integer"
            ) from None
        return value

    async def _rank_route(self, request: Request, deadline: Deadline) -> Response:
        query = self._require_query(request)
        k = self._count_param(request, "k", None)
        ranking, coverage = await self._ranked(query, deadline, request.trace)
        if k is not None:
            ranking = ranking[:k]
        return Response(
            200,
            {
                "query": query,
                "ranking": [[c, score] for c, score in ranking],
                "coverage": coverage,
            },
            headers=_coverage_headers(coverage),
        )

    async def _top_k_route(self, request: Request, deadline: Deadline) -> Response:
        query = self._require_query(request)
        k = self._count_param(request, "k", 5)
        ranking, coverage = await self._ranked(query, deadline, request.trace)
        return Response(
            200,
            {
                "query": query,
                "k": k,
                "top": [c for c, _score in ranking[:k]],
                "coverage": coverage,
            },
            headers=_coverage_headers(coverage),
        )

    async def _members_route(self, request: Request, _deadline: Deadline) -> Response:
        k = self._count_param(request, "k", 5)
        with_members = request.params.get("members", "0") == "1"
        members = await self._backend_call(
            request.trace,
            lambda _header: self.backend.community_members(k),
            tags={"path": "community_members"},
        )
        communities = []
        for community, ids in enumerate(members):
            entry: dict = {"community": community, "size": int(len(ids))}
            if with_members:
                entry["members"] = [int(u) for u in ids]
            communities.append(entry)
        return Response(200, {"k": k, "communities": communities})

    async def _labels_route(self, request: Request, _deadline: Deadline) -> Response:
        n_words = self._count_param(request, "n", 3)
        labels = await self._backend_call(
            request.trace,
            lambda _header: self.backend.labels(n_words),
            tags={"path": "labels"},
        )
        return Response(200, {"n_words": n_words, "labels": list(labels)})

    # ------------------------------------------------------------------ health

    def _health_payload(self) -> dict:
        payload = {
            "status": "ok",
            "backend": "router" if self.is_router else "store",
            "draining": self._draining,
            "uptime_seconds": (
                round(self.clock() - self._started_at, 3)
                if self._started_at is not None
                else None
            ),
            "n_communities": getattr(self.backend, "n_communities", None),
            "admission": self.admission.stats(),
            "batcher": self.batcher.stats(),
            "counters": dict(self._counters),
            "statuses": dict(self._status_counts),
            "access_log": self.access_log.stats(),
            "tail_sampling": self.tail.stats(),
            "traces": {
                "kept": self._traces_kept,
                "dropped": self._traces_dropped,
            },
            "slo_worst_burn": self.slo.worst_burn(),
        }
        if self.is_router and hasattr(self.backend, "cache_info"):
            health = self.backend.cache_info().get("health", [])
            payload["shards"] = health
            if any(entry.get("state") != "closed" for entry in health):
                payload["status"] = "degraded"
        return payload

    def stats(self) -> dict:
        """Lock-step counters for tests and the benchmark (no telemetry
        needed): admission, batcher and handler counters in one dict."""
        return {
            **self.admission.stats(),
            **self.batcher.stats(),
            **self._counters,
            "statuses": dict(self._status_counts),
            "draining": self._draining,
            "traces_kept": self._traces_kept,
            "traces_dropped": self._traces_dropped,
            "access_log": self.access_log.stats(),
        }

    # ------------------------------------------------------------ micro-batch

    def _rank_batch_sync(self, queries: list[str]) -> list:
        """Executor-side batch body: per-query validation, one fused pass.

        Returns one entry per query — a ranking, or the exception that
        query alone should raise (isolation: one bad term cannot fail its
        batchmates). The fused matmul serves the whole batch at once, so
        per-request span capture does not apply here (the batcher still
        emits each request's ``batch_wait``/``backend`` phases).
        """
        backend = self.backend
        results: list = [None] * len(queries)
        valid: list[tuple[int, str]] = []
        for i, query in enumerate(queries):
            try:
                if not backend.query_word_ids(query):
                    raise KeyError(
                        f"no query term of {query!r} is in the vocabulary"
                    )
            except Exception as exc:  # noqa: BLE001 — per-query isolation
                results[i] = exc
            else:
                valid.append((i, query))
        if valid:
            try:
                rankings = backend.rank_many([q for _i, q in valid])
            except Exception as exc:  # noqa: BLE001 — batch-wide failure
                for i, _query in valid:
                    results[i] = exc
            else:
                for (i, _query), ranking in zip(valid, rankings):
                    results[i] = ranking
        return results

    async def _run_batch(self, queries) -> list:
        registry = obs.get_registry()
        if registry.enabled:
            registry.histogram("repro_gateway_batch_size").observe(
                len(queries)
            )
        return await self._in_executor(self._rank_batch_sync, list(queries))


class GatewayThread:
    """Run a :class:`GatewayServer` on a background event-loop thread.

    The harness behind the tests, the load benchmark and the CI smoke
    job: ``with GatewayThread(gateway) as handle`` serves on a real
    socket; ``handle.get(path)`` issues a plain-stdlib request;
    ``handle.submit(coro)`` runs a coroutine on the gateway's loop (e.g.
    ``gateway.drain()`` mid-test). Exit drains and stops the server.
    """

    def __init__(self, gateway: GatewayServer, startup_timeout: float = 10.0):
        self.gateway = gateway
        self.startup_timeout = startup_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "GatewayThread":
        started = threading.Event()
        failure: list[BaseException] = []

        def body() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.gateway.start())
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=body, name="gateway-thread", daemon=True
        )
        self._thread.start()
        if not started.wait(self.startup_timeout):
            raise RuntimeError("gateway failed to start in time")
        if failure:
            raise failure[0]
        return self

    def __exit__(self, *_exc_info) -> None:
        if self._loop is None:
            return
        with contextlib.suppress(Exception):
            self.submit(self.gateway.shutdown()).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)

    @property
    def base_url(self) -> str:
        return f"http://{self.gateway.host}:{self.gateway.port}"

    def submit(self, coro):
        """Schedule a coroutine on the gateway loop; returns its Future."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def get(self, path: str, headers: Optional[dict] = None, timeout: float = 10.0):
        """One GET against the gateway: ``(status, headers, parsed body)``."""
        import http.client
        import json as _json

        connection = http.client.HTTPConnection(
            self.gateway.host, self.gateway.port, timeout=timeout
        )
        try:
            connection.request("GET", path, headers=headers or {})
            raw = connection.getresponse()
            body = raw.read()
            content_type = raw.headers.get("Content-Type", "")
            parsed = (
                _json.loads(body)
                if content_type.startswith("application/json") and body
                else body.decode("utf-8", "replace")
            )
            return raw.status, dict(raw.headers), parsed
        finally:
            connection.close()
