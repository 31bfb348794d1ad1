"""Streaming ingestion: incremental profile maintenance over a live stream.

The offline workflow fits once and serves a frozen artifact; this package
keeps the served profiles *current* as traffic keeps arriving (DESIGN.md
§6). The pipeline has four stages, one module each:

* :mod:`~repro.stream.events` — typed document/link arrival events plus
  replay adapters that turn any dataset into a timestamp-ordered stream;
* :mod:`~repro.stream.ingest` — the micro-batch ingestor: batched
  frozen-model fold-in for low-latency assignment, with per-community
  staleness/drift counters;
* :mod:`~repro.stream.refresh` — the incremental refresher: a warm-started
  Gibbs sampler grown in place, re-sweeping only dirty documents;
* :mod:`~repro.stream.snapshot` — compaction into self-contained v3
  artifacts and hot-swapping of live :class:`~repro.serving.ProfileStore`
  instances.
"""

from .events import (
    DocumentArrival,
    LinkArrival,
    ReplayPlan,
    StreamEvent,
    split_for_replay,
)
from .ingest import FlushReport, MicroBatchIngestor
from .refresh import IncrementalRefresher, RefreshReport
from .snapshot import Snapshotter, StreamCursor, extend_summary

__all__ = [
    "DocumentArrival",
    "FlushReport",
    "IncrementalRefresher",
    "LinkArrival",
    "MicroBatchIngestor",
    "RefreshReport",
    "ReplayPlan",
    "Snapshotter",
    "StreamCursor",
    "StreamEvent",
    "extend_summary",
    "split_for_replay",
]
