"""Structured access log with tail-based trace retention.

Every gateway request produces one :class:`AccessRecord`-shaped dict: the
latency breakdown (queue wait, batch wait, backend, total), the status,
the deadline budget, the degradation flags and the trace id. Records land
in a bounded ring buffer (newest wins) and, optionally, as JSON lines in
a file — the ring serves live introspection, the file serves offline
analysis.

The companion :class:`TailSampler` implements tail-based retention for
span trees: keeping every trace at a few thousand requests/second would
roll the span ring over in seconds, so only the traces that answer a
question survive — errors, requests slower than a trailing latency
quantile, and requests whose trace id the *client* injected (someone is
actively following that request; dropping it would be rude). Everything
else is counted and discarded.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Optional

__all__ = ["ACCESS_FIELDS", "AccessLog", "TailSampler"]

#: the stable field order of one access record (documented in DESIGN §13)
ACCESS_FIELDS = (
    "ts",            # wall-clock seconds of the response
    "method",
    "route",
    "query",         # ?q= parameter, when the route has one
    "status",
    "trace_id",      # empty string when tracing is off
    "queue_wait",    # seconds spent waiting for an admission slot
    "batch_wait",    # seconds spent coalescing in the micro-batcher
    "backend",       # seconds inside the store/router call
    "total",         # seconds from dispatch to response
    "deadline_budget",     # the request's deadline budget, None without one
    "deadline_remaining",  # budget left when the response was built
    "shed",          # True when admission shed the request (429)
    "degraded",      # True when the answer was a partial merge
    "coverage",      # shard coverage fraction of the answer (1.0 = exact)
    "trace_kept",    # True when the span tree survived tail sampling
)


class AccessLog:
    """Bounded ring of access records, optionally mirrored to a JSONL file.

    ``capacity`` bounds the in-memory ring (evictions count as drops, so
    ``/metrics`` can expose how much history the ring is losing);
    ``path`` appends each record as one JSON line. File write failures
    never fail the request — they increment the drop counter and disable
    the file sink after repeated failures, because an access log that can
    take the gateway down is worse than no access log.
    """

    MAX_WRITE_FAILURES = 8

    def __init__(self, capacity: int = 2048, path: Optional[str] = None):
        if capacity < 1:
            raise ValueError("access log capacity must be positive")
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=capacity)
        self.capacity = capacity
        self.path = path
        self.logged = 0
        self.dropped = 0
        self.written = 0
        self.write_failures = 0
        self._file = None
        if path is not None:
            try:
                self._file = open(path, "a", encoding="utf-8")
            except OSError:
                self.write_failures += 1
                self._file = None

    def log(self, record: dict) -> None:
        with self._lock:
            if len(self._records) == self._records.maxlen:
                self.dropped += 1  # the ring is about to evict its oldest
            self._records.append(record)
            self.logged += 1
            if self._file is not None:
                try:
                    self._file.write(json.dumps(record) + "\n")
                    self._file.flush()
                    self.written += 1
                except (OSError, ValueError, TypeError):
                    self.dropped += 1
                    self.write_failures += 1
                    if self.write_failures >= self.MAX_WRITE_FAILURES:
                        try:
                            self._file.close()
                        except OSError:
                            pass
                        self._file = None

    def export(self, limit: Optional[int] = None) -> list[dict]:
        """The newest records, oldest first (``limit`` caps the count)."""
        with self._lock:
            records = list(self._records)
        if limit is not None:
            # records[-0:] would be the whole list, not none of it
            records = records[-limit:] if limit > 0 else []
        return records

    def stats(self) -> dict:
        with self._lock:
            return {
                "records": len(self._records),
                "capacity": self.capacity,
                "logged": self.logged,
                "dropped": self.dropped,
                "written": self.written,
                "write_failures": self.write_failures,
                "path": self.path,
            }

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None

    def __len__(self) -> int:
        return len(self._records)


class NullAccessLog:
    """Access logging off: drops everything (``--access-log-capacity 0``)."""

    capacity = 0
    dropped = 0
    path = None

    def log(self, record: dict) -> None:
        pass

    def export(self, limit=None) -> list[dict]:
        return []

    def stats(self) -> dict:
        return {"records": 0, "capacity": 0, "logged": 0, "dropped": 0,
                "written": 0, "write_failures": 0, "path": None}

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


class TailSampler:
    """Keep the traces that matter: errors, the slow tail, followed requests.

    ``keep(latency, error=..., forced=...)`` answers whether one request's
    span tree should survive. The slow-tail threshold is the ``quantile``
    of the last ``window`` observed latencies, recomputed every
    ``refresh`` observations (sorting 512 floats per request would defeat
    the purpose). During warm-up — fewer than ``min_observations``
    latencies seen — everything is kept, so a freshly started gateway
    still shows its first requests.
    """

    def __init__(
        self,
        quantile: float = 0.9,
        window: int = 512,
        refresh: int = 32,
        min_observations: int = 32,
    ):
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.quantile = quantile
        self.refresh = max(refresh, 1)
        self.min_observations = min_observations
        self._lock = threading.Lock()
        self._latencies: deque = deque(maxlen=window)
        self._since_refresh = 0
        self.threshold: Optional[float] = None
        self.kept = 0
        self.dropped = 0
        self.observed = 0

    def keep(self, latency: float, *, error: bool = False, forced: bool = False) -> bool:
        with self._lock:
            self._latencies.append(latency)
            self.observed += 1
            self._since_refresh += 1
            if self.threshold is None or self._since_refresh >= self.refresh:
                ordered = sorted(self._latencies)
                index = min(
                    int(len(ordered) * self.quantile), len(ordered) - 1
                )
                self.threshold = ordered[index]
                self._since_refresh = 0
            decision = (
                error
                or forced
                or self.observed <= self.min_observations
                or latency >= self.threshold
            )
            if decision:
                self.kept += 1
            else:
                self.dropped += 1
            return decision

    def stats(self) -> dict:
        with self._lock:
            return {
                "kept": self.kept,
                "dropped": self.dropped,
                "observed": self.observed,
                "quantile": self.quantile,
                "threshold": self.threshold,
            }
