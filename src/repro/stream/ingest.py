"""Micro-batch ingestor: buffer events, fold in fast, track staleness.

The serving-facing half of the streaming pipeline. Events are buffered
into micro-batches; each flush runs one *batched* frozen-model fold-in
(:meth:`repro.serving.ProfileStore.fold_in`) for every document in the
batch — the low-latency assignment path — and hands the batch to the
:class:`~repro.stream.refresh.IncrementalRefresher` (when attached) so the
warm model can be re-swept later. Heavy-tailed arrival bursts therefore
cost one vectorized fold-in per batch, never a model update per event.

Because fold-in freezes the model, assignments go stale as the true
profiles drift. The ingestor quantifies that with two per-community
counters:

* **staleness** — documents folded into a community since the model was
  last refreshed (how much the frozen model has been extrapolated);
* **drift** — documents the refresher *moved* into a community when it
  re-swept (how wrong the extrapolation turned out to be).

``refresh_interval`` turns the pipeline into a self-driving loop: after
that many ingested events the ingestor triggers a refresh on its own.

**Durability.** Pass a :class:`repro.resilience.WriteAheadLog` as ``wal``
and every micro-batch is appended to the log *before* it is applied —
write-ahead order, so a crash anywhere in the apply path loses nothing
acknowledged: :func:`repro.resilience.recover` replays the tail past the
last snapshot's cursor. The ``on_refresh`` hook fires after each refresh
(the natural snapshot cadence); wiring it to
:meth:`repro.resilience.SnapshotCatalog.save` keeps the replay tail short.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..sampling.rng import RngLike, ensure_rng
from ..serving.store import ProfileStore
from .events import DocumentArrival, LinkArrival, StreamEvent
from .refresh import IncrementalRefresher, RefreshReport


def _fault_firing(point: str, **context):
    """Consult the active fault plan, if any (lazy import: no cycle)."""
    from ..resilience import faults

    return faults.firing(point, **context)


@dataclass(frozen=True)
class FlushReport:
    """What one micro-batch flush did."""

    n_documents: int
    n_links: int
    #: seconds spent in the batched fold-in (the latency-critical part)
    foldin_seconds: float
    #: seconds spent appending to the warm sampler (zero without refresher)
    append_seconds: float
    #: fold-in MAP communities for the batch documents, shape (n_documents,)
    communities: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


class MicroBatchIngestor:
    """Buffers stream events and applies them in micro-batches."""

    def __init__(
        self,
        store: ProfileStore,
        refresher: IncrementalRefresher | None = None,
        batch_size: int = 64,
        refresh_interval: int | None = None,
        foldin_sweeps: int = 15,
        foldin_burn_in: int = 5,
        rng: RngLike = None,
        wal=None,
        on_refresh=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if refresh_interval is not None and refresh_interval < 1:
            raise ValueError("refresh_interval must be at least 1")
        if refresh_interval is not None and refresher is None:
            raise ValueError("refresh_interval needs a refresher to trigger")
        self.store = store
        self.refresher = refresher
        self.batch_size = batch_size
        self.refresh_interval = refresh_interval
        self.foldin_sweeps = foldin_sweeps
        self.foldin_burn_in = foldin_burn_in
        self.rng = ensure_rng(rng)
        #: duck-typed write-ahead log (``append(events)``/``n_events``);
        #: ``None`` keeps the pre-hardening in-memory-only behaviour
        self.wal = wal
        #: called with each RefreshReport — the snapshot-cadence hook
        self.on_refresh = on_refresh

        self._buffer: list[StreamEvent] = []
        #: wall-clock moment the oldest buffered event arrived (micro-batch
        #: lag = flush time minus this; None while the buffer is empty)
        self._buffer_opened: float | None = None
        self.n_events = 0
        self.n_documents = 0
        self.n_links = 0
        self.n_flushes = 0
        self._events_since_refresh = 0
        n_communities = store.n_communities
        #: fold-in arrivals per community since the last refresh
        self.staleness = np.zeros(n_communities, dtype=np.int64)
        #: refresher reassignments into each community, cumulative
        self.drift = np.zeros(n_communities, dtype=np.int64)
        #: fold-in arrivals per community, cumulative
        self.foldin_counts = np.zeros(n_communities, dtype=np.int64)
        #: without a refresher, fold-in assignments are the system of record
        self.foldin_communities: list[int] = []
        self.foldin_topics: list[int] = []
        self.refresh_reports: list[RefreshReport] = []

    # ----------------------------------------------------------------- intake

    def submit(self, event: StreamEvent) -> FlushReport | None:
        """Buffer one event; flushes automatically at ``batch_size``.

        Returns the :class:`FlushReport` when this submission triggered a
        flush, else ``None``.
        """
        if not isinstance(event, (DocumentArrival, LinkArrival)):
            raise TypeError(f"unknown stream event type {type(event).__name__}")
        if not self._buffer:
            self._buffer_opened = time.perf_counter()
        self._buffer.append(event)
        report = None
        if len(self._buffer) >= self.batch_size:
            report = self.flush()
            if (
                self.refresh_interval is not None
                and self._events_since_refresh >= self.refresh_interval
            ):
                self.refresh()
        return report

    def submit_many(self, events) -> list[FlushReport]:
        """Submit a sequence of events; returns the flush reports produced."""
        reports = []
        for event in events:
            report = self.submit(event)
            if report is not None:
                reports.append(report)
        return reports

    def flush(self) -> FlushReport | None:
        """Apply the buffered micro-batch (fold-in, then warm append)."""
        if not self._buffer:
            return None
        batch = self._buffer
        self._buffer = []
        registry = obs.get_registry()
        if registry.enabled and self._buffer_opened is not None:
            # micro-batch lag: how long the oldest event waited in the buffer
            registry.histogram("repro_ingest_batch_lag_seconds").observe(
                time.perf_counter() - self._buffer_opened
            )
        self._buffer_opened = None
        # write-ahead: the batch must be durable before any of it is applied,
        # so a crash below loses nothing acknowledged (recover() replays it)
        if self.wal is not None:
            self.wal.append(batch)
        spec = _fault_firing("ingest.apply", flush=self.n_flushes + 1)
        if spec is not None:
            from ..resilience.faults import InjectedFault

            raise InjectedFault("ingest.apply", {"flush": self.n_flushes + 1})
        documents = [e for e in batch if isinstance(e, DocumentArrival)]
        links = [e for e in batch if isinstance(e, LinkArrival)]

        foldin_seconds = 0.0
        append_seconds = 0.0
        communities = np.zeros(0, dtype=np.int64)
        if documents:
            started = time.perf_counter()
            fold = self.store.fold_in(
                [event.words for event in documents],
                users=[event.user_id for event in documents],
                n_sweeps=self.foldin_sweeps,
                burn_in=self.foldin_burn_in,
                rng=self.rng,
            )
            foldin_seconds = time.perf_counter() - started
            communities, topics = fold.communities, fold.topics
            np.add.at(self.staleness, communities, 1)
            np.add.at(self.foldin_counts, communities, 1)
            self.foldin_communities.extend(communities.tolist())
            self.foldin_topics.extend(topics.tolist())
            if self.refresher is not None:
                started = time.perf_counter()
                self.refresher.append_documents(
                    [event.words for event in documents],
                    np.asarray([event.user_id for event in documents], dtype=np.int64),
                    np.asarray([event.timestamp for event in documents], dtype=np.int64),
                    communities=communities,
                    topics=topics,
                )
                append_seconds += time.perf_counter() - started
        if links and self.refresher is not None:
            started = time.perf_counter()
            self.refresher.append_links(
                np.asarray([event.source_doc for event in links], dtype=np.int64),
                np.asarray([event.target_doc for event in links], dtype=np.int64),
                np.asarray([event.timestamp for event in links], dtype=np.int64),
            )
            append_seconds += time.perf_counter() - started

        self.n_events += len(batch)
        self.n_documents += len(documents)
        self.n_links += len(links)
        self.n_flushes += 1
        self._events_since_refresh += len(batch)
        if registry.enabled:
            registry.histogram(
                "repro_ingest_batch_size",
                bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096),
            ).observe(len(batch))
            registry.histogram("repro_ingest_foldin_seconds").observe(
                foldin_seconds
            )
            registry.histogram("repro_ingest_append_seconds").observe(
                append_seconds
            )
            registry.counter("repro_ingest_flushes_total").inc()
            registry.counter(
                "repro_ingest_events_total", {"type": "doc"}
            ).inc(len(documents))
            registry.counter(
                "repro_ingest_events_total", {"type": "link"}
            ).inc(len(links))
        return FlushReport(
            n_documents=len(documents),
            n_links=len(links),
            foldin_seconds=foldin_seconds,
            append_seconds=append_seconds,
            communities=communities,
        )

    # ---------------------------------------------------------------- refresh

    def refresh(self) -> RefreshReport | None:
        """Flush, then let the refresher re-sweep the dirty documents."""
        if self.refresher is None:
            return None
        self.flush()
        report = self.refresher.refresh()
        self.refresh_reports.append(report)
        self.drift += report.moved_into
        self.staleness[:] = 0
        self._events_since_refresh = 0
        if self.on_refresh is not None:
            self.on_refresh(report)
        return report

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        """Counters for monitoring and the stream-replay readout."""
        return {
            "events": self.n_events,
            "documents": self.n_documents,
            "links": self.n_links,
            "flushes": self.n_flushes,
            "buffered": len(self._buffer),
            "refreshes": len(self.refresh_reports),
            "staleness_total": int(self.staleness.sum()),
            "drift_total": int(self.drift.sum()),
            "wal_events": int(self.wal.n_events) if self.wal is not None else 0,
        }
