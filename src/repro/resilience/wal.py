"""Checksummed append-only write-ahead log for the streaming pipeline.

The durability contract of :mod:`repro.stream` before this module: events
lived only in process memory between snapshots, so a crash lost everything
since the last one. The WAL closes that window. The ingestor appends each
micro-batch *before* applying it (write-ahead), so after a crash the
newest valid snapshot plus the WAL tail reconstructs the stream state
(:func:`repro.resilience.recover`).

**On-disk format.** A fixed magic header, then length-prefixed records:

.. code-block:: text

    b"RWAL1\\n"
    [u32 payload_len][u32 crc32(payload)][payload] ...

Each payload is the JSON encoding of one appended batch:
``{"seq": <first event index>, "events": [...]}`` with events serialised
by :func:`encode_event`. Records are appended with flush+fsync (opt-out
via ``sync=False`` for benchmarks), so an acknowledged append survives
power loss.

**Torn tails are data, not errors.** A crash mid-append leaves a partial
record: a truncated header, a truncated payload, or a payload whose CRC32
does not match. :func:`scan_wal` walks the file record by record and stops
at the first damage, reporting the valid prefix — replay serves exactly
the events that were fully acknowledged, and re-opening the log for
append truncates the torn bytes so the next record starts clean. Damage
*before* the tail (a flipped byte in an old record) cannot be healed and
raises :class:`WalCorruptError` on replay past it — the log is the source
of truth; silently skipping interior records would desynchronise the
event sequence.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .. import obs
from ..stream.events import DocumentArrival, LinkArrival, StreamEvent
from .faults import InjectedFault, firing

PathLike = Union[str, Path]

_MAGIC = b"RWAL1\n"
_HEADER = struct.Struct("<II")  # payload length, payload crc32


class WalCorruptError(ValueError):
    """Interior (non-tail) WAL damage — replay cannot proceed past it."""


def encode_event(event: StreamEvent) -> dict:
    """One stream event as a JSON-serialisable record."""
    if isinstance(event, DocumentArrival):
        return {
            "type": "doc",
            "user": int(event.user_id),
            "words": np.asarray(event.words, dtype=np.int64).tolist(),
            "ts": int(event.timestamp),
        }
    if isinstance(event, LinkArrival):
        return {
            "type": "link",
            "src": int(event.source_doc),
            "tgt": int(event.target_doc),
            "ts": int(event.timestamp),
        }
    raise TypeError(f"unknown stream event type {type(event).__name__}")


def decode_event(record: dict) -> StreamEvent:
    """Revive one event encoded by :func:`encode_event`."""
    kind = record.get("type")
    if kind == "doc":
        return DocumentArrival(
            user_id=int(record["user"]),
            words=np.asarray(record["words"], dtype=np.int64),
            timestamp=int(record["ts"]),
        )
    if kind == "link":
        return LinkArrival(
            source_doc=int(record["src"]),
            target_doc=int(record["tgt"]),
            timestamp=int(record["ts"]),
        )
    raise WalCorruptError(f"unknown WAL event type {kind!r}")


@dataclass
class WalStatus:
    """What a scan of the log found (see :func:`scan_wal`)."""

    path: str
    n_records: int = 0
    n_events: int = 0
    #: bytes of the valid prefix (magic + intact records)
    valid_bytes: int = 0
    #: total file size on disk
    file_bytes: int = 0
    #: a partial/corrupt record follows the valid prefix
    torn: bool = False
    torn_reason: Optional[str] = None
    #: file missing entirely (fresh deployment, or lost volume)
    missing: bool = False
    #: per-record ``(seq, n_events)`` index of the valid prefix
    records: list = field(default_factory=list)


def scan_wal(path: PathLike) -> WalStatus:
    """Walk a log file, validating records until damage or EOF.

    Never raises on damage: a bad magic header, truncated record or CRC
    mismatch just terminates the walk, with the reason recorded — the
    valid prefix before the damage is what replay (and a re-opened
    appender) will use.
    """
    path = Path(path)
    status = WalStatus(path=str(path))
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        status.missing = True
        return status
    status.file_bytes = len(data)
    if not data.startswith(_MAGIC):
        status.torn = True
        status.torn_reason = "bad magic header"
        return status
    offset = len(_MAGIC)
    status.valid_bytes = offset
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            status.torn = True
            status.torn_reason = "truncated record header"
            break
        length, crc = _HEADER.unpack_from(data, offset)
        payload_start = offset + _HEADER.size
        payload_end = payload_start + length
        if payload_end > len(data):
            status.torn = True
            status.torn_reason = "truncated record payload"
            break
        payload = data[payload_start:payload_end]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            status.torn = True
            status.torn_reason = "record checksum mismatch"
            break
        try:
            batch = json.loads(payload.decode("utf-8"))
            events = batch["events"]
            seq = int(batch["seq"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            status.torn = True
            status.torn_reason = "record payload undecodable"
            break
        status.n_records += 1
        status.n_events += len(events)
        status.records.append((seq, len(events)))
        status.valid_bytes = payload_end
        offset = payload_end
    return status


class WriteAheadLog:
    """Appendable, replayable event log (see module docstring).

    Opening an existing log scans it first: the event cursor resumes after
    the valid prefix and any torn tail is truncated away (recorded in
    :attr:`opened_status` for monitoring). One log instance belongs to one
    ingestor; concurrent appenders are not supported.
    """

    def __init__(self, path: PathLike, sync: bool = True) -> None:
        self.path = Path(path)
        self.sync = sync
        self.opened_status = scan_wal(self.path)
        self._n_events = self.opened_status.n_events
        self.n_records = self.opened_status.n_records
        if self.opened_status.missing:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "wb")
            self._handle.write(_MAGIC)
            self._flush()
        else:
            # self-heal: drop the torn tail so the next record starts clean
            self._handle = open(self.path, "r+b")
            self._handle.truncate(self.opened_status.valid_bytes)
            self._handle.seek(self.opened_status.valid_bytes)
            if self.opened_status.valid_bytes < len(_MAGIC):
                # the file never got its magic header (crash between open
                # and the header write) — heal it now, or every record
                # appended below would be invisible to scan/replay and
                # truncated away by the next reopen
                self._handle.truncate(0)
                self._handle.seek(0)
                self._handle.write(_MAGIC)
                self._flush()

    # ------------------------------------------------------------------ write

    @property
    def n_events(self) -> int:
        """Total events durably logged — the stream cursor position."""
        return self._n_events

    def append(self, events: Sequence[StreamEvent]) -> int:
        """Durably log one batch; returns the new event cursor.

        The record is staged in memory, written, flushed and fsynced in
        one go; the cursor only advances after the sync, so a crash
        mid-append can never acknowledge events the file does not hold.
        """
        if self._handle is None:
            raise ValueError("write-ahead log is closed")
        if not events:
            return self._n_events
        payload = json.dumps(
            {"seq": self._n_events, "events": [encode_event(e) for e in events]}
        ).encode("utf-8")
        record = _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload
        spec = firing("wal.append", path=str(self.path), seq=self._n_events)
        if spec is not None:
            # simulate a crash mid-append: half a record hits the disk
            self._handle.write(record[: max(1, len(record) // 2)])
            self._flush()
            raise InjectedFault(
                "wal.append", {"path": str(self.path), "seq": self._n_events}
            )
        registry = obs.get_registry()
        if registry.enabled:
            started = time.perf_counter()
            self._handle.write(record)
            write_done = time.perf_counter()
            self._flush()
            flush_done = time.perf_counter()
            registry.histogram("repro_wal_append_seconds").observe(
                flush_done - started
            )
            registry.histogram("repro_wal_fsync_seconds").observe(
                flush_done - write_done
            )
            registry.counter("repro_wal_bytes_total").inc(len(record))
            registry.counter("repro_wal_records_total").inc()
            registry.counter("repro_wal_events_total").inc(len(events))
        else:
            self._handle.write(record)
            self._flush()
        self._n_events += len(events)
        self.n_records += 1
        return self._n_events

    def _flush(self) -> None:
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------- read

    def replay(self, from_event: int = 0) -> Iterator[StreamEvent]:
        """Yield logged events starting at cursor ``from_event``."""
        return replay_wal(self.path, from_event=from_event)

    def status(self) -> WalStatus:
        """A fresh scan of the file as it stands on disk."""
        if self._handle is not None:
            self._handle.flush()
        return scan_wal(self.path)


def replay_wal(path: PathLike, from_event: int = 0) -> Iterator[StreamEvent]:
    """Yield the events of a log's valid prefix, skipping the first
    ``from_event`` (the recovery cursor from a snapshot).

    A torn tail simply ends the iteration — those events were never
    acknowledged. Interior damage (a record whose ``seq`` does not match
    the running event count) raises :class:`WalCorruptError`: the log
    claims events that cannot be reconstructed.
    """
    status = scan_wal(path)
    if status.missing:
        raise FileNotFoundError(f"no write-ahead log at {path}")
    expected_seq = 0
    emitted = 0
    data = Path(path).read_bytes()
    offset = len(_MAGIC)
    for seq, n_events in status.records:
        if seq != expected_seq:
            raise WalCorruptError(
                f"write-ahead log {path} skips from event {expected_seq} to "
                f"{seq} — interior records are damaged or missing"
            )
        length, _crc = _HEADER.unpack_from(data, offset)
        payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
        offset += _HEADER.size + length
        batch = json.loads(payload.decode("utf-8"))
        for record in batch["events"]:
            if expected_seq >= from_event:
                yield decode_event(record)
                emitted += 1
            expected_seq += 1
    if from_event > expected_seq:
        raise WalCorruptError(
            f"write-ahead log {path} holds {expected_seq} events but replay "
            f"was asked to start at {from_event} — the snapshot is newer "
            "than the log"
        )
