"""Crash recovery: newest valid snapshot generation + WAL tail replay.

The durability story of the streaming pipeline has two halves. The
:class:`~repro.resilience.wal.WriteAheadLog` holds every acknowledged
event; :class:`SnapshotCatalog` holds periodic compactions of the warm
model as numbered artifact *generations*. Recovery composes them:

1. walk the generations newest-first, :func:`~repro.core.io.verify_artifact`
   each, and open the newest one that verifies — corrupt or torn
   generations are *skipped with a record*, never crashed on;
2. read the snapshot's stream cursor (how many events the model had
   folded in when it was taken);
3. replay the WAL tail from that cursor — the events acknowledged after
   the snapshot — folding the tail's documents back into the recovered
   store.

What is and is not restored: ranking queries are served from the model
arrays (``theta``/``phi``/``eta``), so the recovered store answers
exactly as the snapshot's model did; tail documents re-enter through
frozen-model fold-in (the same path the live ingestor used), and tail
*links* are preserved in the report for re-ingestion but do not perturb
``eta`` until the next refresh — a refresh needs the warm sampler state
that died with the process, which is precisely why the snapshot cadence
bounds the staleness window. Nothing acknowledged is ever lost: every
tail event is in the report, replayable into a fresh pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..core.io import ArtifactCheck, load_artifact, verify_artifact
from ..sampling.rng import RngLike
from ..serving.store import ProfileStore
from ..stream.events import DocumentArrival, LinkArrival, StreamEvent
from ..stream.snapshot import StreamCursor
from .wal import WalStatus, replay_wal, scan_wal

PathLike = Union[str, Path]


class RecoveryError(RuntimeError):
    """No valid recovery path exists (every generation damaged, or none)."""


class SnapshotCatalog:
    """Numbered snapshot generations in one directory, with retention.

    Generation files are named ``<prefix>-<gen>.cpd.npz`` with a
    zero-padded, monotonically increasing generation number — the number,
    not the mtime, orders them (mtimes lie after a restore from backup).
    ``retain`` caps how many generations are kept: after each save the
    oldest beyond the cap are deleted. Keep it at least 2 — the whole
    point of generations is surviving a torn newest one.
    """

    def __init__(
        self, directory, prefix: str = "snapshot", retain: int = 3
    ) -> None:
        if retain < 1:
            raise ValueError("retain must be at least 1")
        self.directory = Path(directory)
        self.prefix = prefix
        self.retain = retain

    def path_for(self, generation: int) -> Path:
        return self.directory / f"{self.prefix}-{generation:06d}.cpd.npz"

    def generations(self) -> list[tuple[int, Path]]:
        """``(generation, path)`` pairs on disk, oldest first."""
        found = []
        for path in self.directory.glob(f"{self.prefix}-*.cpd.npz"):
            stem = path.name[len(self.prefix) + 1 : -len(".cpd.npz")]
            try:
                found.append((int(stem), path))
            except ValueError:
                continue  # foreign file matching the glob; not ours
        return sorted(found)

    def next_generation(self) -> int:
        existing = self.generations()
        return existing[-1][0] + 1 if existing else 1

    def save(self, snapshotter) -> Path:
        """Write the next generation via a ``Snapshotter`` and prune.

        Duck-typed on ``snapshotter.save(path)`` so callers can pass a
        :class:`repro.stream.Snapshotter` or anything save-compatible.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(self.next_generation())
        snapshotter.save(path)
        self.prune()
        return path

    def prune(self) -> list[Path]:
        """Delete generations beyond the retention cap; returns the victims."""
        existing = self.generations()
        victims = [path for _gen, path in existing[: -self.retain]]
        for path in victims:
            path.unlink(missing_ok=True)
        return victims

    def newest_valid(
        self,
    ) -> tuple[Optional[tuple[int, Path]], list[tuple[int, Path, str]]]:
        """The newest generation that verifies, plus the damaged ones skipped.

        Returns ``((generation, path) | None, [(generation, path, error), ...])``
        — the skip list is newest-first, mirroring the walk order.
        """
        skipped: list[tuple[int, Path, str]] = []
        for generation, path in reversed(self.generations()):
            check: ArtifactCheck = verify_artifact(path)
            if check.ok:
                return (generation, path), skipped
            skipped.append((generation, path, check.error or "damaged"))
        return None, skipped


@dataclass
class RecoveryReport:
    """Everything :func:`recover` did, for operators and tests."""

    store: ProfileStore
    snapshot_path: str
    generation: int
    cursor: StreamCursor
    #: generations the walk skipped, newest first: ``(gen, path, error)``
    skipped_generations: list = field(default_factory=list)
    wal_status: Optional[WalStatus] = None
    #: the tail events acknowledged after the snapshot, in order
    tail_events: list = field(default_factory=list)
    documents_replayed: int = 0
    links_replayed: int = 0
    #: frozen-model assignments of the tail documents (None when no docs)
    foldin: Optional[object] = None
    seconds: float = 0.0

    @property
    def events_replayed(self) -> int:
        return self.documents_replayed + self.links_replayed


def recover(
    snapshot_dir,
    wal_path=None,
    prefix: str = "snapshot",
    foldin_sweeps: int = 15,
    foldin_burn_in: int = 5,
    rng: RngLike = None,
    retain: int = 3,
) -> RecoveryReport:
    """Rebuild a servable store from the newest valid snapshot + WAL tail.

    ``wal_path=None`` recovers from snapshots alone (an offline-fit
    deployment with no stream). With a WAL, the tail past the snapshot's
    cursor is replayed: documents are folded back in with the same frozen
    -model fold-in the live ingestor used, links are surfaced in the
    report. Raises :class:`RecoveryError`
    when no generation verifies — the skip list rides in the message so
    the operator sees *why* each candidate was rejected.
    """
    started = time.perf_counter()
    catalog = SnapshotCatalog(snapshot_dir, prefix=prefix, retain=retain)
    newest, skipped = catalog.newest_valid()
    if newest is None:
        detail = (
            "; ".join(f"{path.name}: {error}" for _gen, path, error in skipped)
            or "no generations found"
        )
        raise RecoveryError(
            f"no valid snapshot generation under {catalog.directory} ({detail})"
        )
    generation, path = newest
    artifact = load_artifact(path, verify=True)
    store = ProfileStore.from_artifact_bundle(artifact)
    cursor = (
        StreamCursor.from_dict(artifact.stream_cursor)
        if artifact.stream_cursor is not None
        else StreamCursor(0, 0, 0, -1)
    )
    report = RecoveryReport(
        store=store,
        snapshot_path=str(path),
        generation=generation,
        cursor=cursor,
        skipped_generations=skipped,
    )
    if wal_path is not None:
        report.wal_status = scan_wal(wal_path)
        if not report.wal_status.missing:
            tail: list[StreamEvent] = list(
                replay_wal(wal_path, from_event=cursor.events_ingested)
            )
            report.tail_events = tail
            documents = [e for e in tail if isinstance(e, DocumentArrival)]
            report.documents_replayed = len(documents)
            report.links_replayed = sum(
                1 for e in tail if isinstance(e, LinkArrival)
            )
            if documents:
                report.foldin = store.fold_in(
                    [event.words for event in documents],
                    users=[int(event.user_id) for event in documents],
                    n_sweeps=foldin_sweeps,
                    burn_in=foldin_burn_in,
                    rng=rng,
                )
    report.seconds = time.perf_counter() - started
    return report
