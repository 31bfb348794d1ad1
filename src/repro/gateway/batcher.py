"""Micro-batching of concurrent rank calls into one vectorized pass.

Under concurrency the gateway sees many independent ``/rank`` requests
land in the same event-loop turn. :class:`RankBatcher` schedules one
flush for the next turn (``loop.call_soon``), so every request that
reaches it before then shares one fused
:meth:`repro.serving.ProfileStore.rank_many` matmul on the executor, with
identical queries deduplicated. There is no window: a lone request waits
no time, and admission runs first, so a batch never holds more than the
gateway's ``max_in_flight`` queries.

The batcher is deadline-neutral by design: requests carrying an explicit
deadline bypass it in the server (their budget must reach the backend
per-request), so only deadline-less store traffic coalesces.

Tracing rides along without changing the runner contract: ``rank`` takes
an optional per-request context (:class:`~repro.gateway.tracing.
RequestContext`), and the batcher — which is the only place that knows
when a request was enqueued and when its batch actually ran — emits each
waiter's ``gateway.batch_wait`` and ``gateway.backend`` phases itself.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Sequence

#: a batch runner maps queries -> one result or exception per query
BatchRunner = Callable[[Sequence[str]], Awaitable[list]]


class RankBatcher:
    """Coalesce the rank calls of one event-loop turn into one runner call.

    ``runner`` receives the deduplicated batch and must return one entry
    per query — a result, or an ``Exception`` instance for per-query
    failures (an unknown term must fail its own request, not the whole
    batch). Lives on the event-loop thread; ``rank`` is the only API.
    """

    def __init__(self, runner: BatchRunner) -> None:
        self.runner = runner
        # query -> [(future, trace_ctx, enqueued_perf, enqueued_wall), ...]
        self._pending: dict[str, list[tuple]] = {}
        self._flush_scheduled = False
        self.batches = 0
        self.batched_queries = 0
        self.largest_batch = 0

    async def rank(self, query: str, trace=None):
        """The ranking for ``query``, served from the next-turn flush."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        waiters = self._pending.setdefault(query, [])
        waiters.append((future, trace, time.perf_counter(), time.time()))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self._start_flush)
        return await future

    def _start_flush(self) -> None:
        self._flush_scheduled = False
        if not self._pending:
            return
        batch = self._pending
        self._pending = {}
        self.batches += 1
        self.batched_queries += sum(len(w) for w in batch.values())
        self.largest_batch = max(self.largest_batch, len(batch))
        asyncio.get_running_loop().create_task(self._run(batch))

    async def _run(self, batch: dict[str, list[tuple]]) -> None:
        queries = list(batch.keys())
        run_wall = time.time()
        run_perf = time.perf_counter()
        for waiters in batch.values():
            for _future, trace, enqueued_perf, enqueued_wall in waiters:
                if trace is not None:
                    trace.observe_batch_wait(
                        max(run_perf - enqueued_perf, 0.0), enqueued_wall
                    )
        try:
            results = await self.runner(queries)
        except Exception as exc:  # noqa: BLE001 — runner died: fail the batch
            results = [exc] * len(queries)
        duration = time.perf_counter() - run_perf
        if len(results) != len(queries):
            mismatch = RuntimeError(
                f"batch runner returned {len(results)} results for "
                f"{len(queries)} queries"
            )
            results = [mismatch] * len(queries)
        for query, result in zip(queries, results):
            failed = isinstance(result, Exception)
            for future, trace, _enqueued_perf, _enqueued_wall in batch[query]:
                if trace is not None:
                    # the batch runs once for every waiter: each request's
                    # backend phase is the shared flush, tagged with the
                    # dedup'd batch size so the sharing is visible
                    trace.observe_backend(
                        duration,
                        run_wall,
                        status="error" if failed else "ok",
                        tags={"batched": len(queries)},
                    )
                if future.done():
                    continue  # the request was cancelled while batched
                if failed:
                    future.set_exception(result)
                else:
                    future.set_result(result)

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "largest_batch": self.largest_batch,
        }

    async def drain(self) -> None:
        """Flush anything still waiting (used on shutdown)."""
        self._start_flush()
        await asyncio.sleep(0)
