"""Serialisation of fitted CPD results.

Community profiling is "done once offline" and then serves several
applications (paper Sect. 1); persisting the five outputs — ``pi``,
``theta``, ``phi``, ``eta`` and the diffusion parameters — is what makes
that workflow real. Arrays go into a compressed ``.npz``; config, trace
and scalars ride along in a JSON sidecar entry inside the same file.

Three artifact format versions exist:

* **v1** — the model outputs alone. Serving a v1 artifact requires
  reloading the original graph for the vocabulary and the per-user
  statistics.
* **v2** — *self-contained*: the archive optionally carries the
  :class:`~repro.graph.vocabulary.Vocabulary` and a graph summary (the
  per-user/per-document statistics plus the query inverted index built by
  :class:`repro.serving.GraphSummary`), so the serving layer
  (:class:`repro.serving.ProfileStore`) never touches the graph again.
* **v3** (current) — v2 plus an optional *stream cursor*: how many
  events/documents/links the streaming pipeline (:mod:`repro.stream`) had
  folded into the model when the snapshot was taken, so an operator can
  tell a stream snapshot from an offline fit and resume replay after it.

The reader accepts all versions; :func:`load_artifact` exposes the extra
payloads, :func:`load_result` keeps the v1-era result-only signature.

**Durability.** Every save path here is crash-safe: archives and manifests
are materialised in memory, written to a same-directory temp file, fsynced
and atomically renamed over the destination (:func:`atomic_write_bytes`) —
a crash leaves either the old file or the new one, never a torn hybrid.
Each archive additionally records a CRC32 per entry in its metadata
(beyond the zip container's own per-member CRC), and manifests carry a
whole-payload CRC32, so :func:`verify_artifact` /
:func:`verify_shard_manifest` can prove integrity without fully reviving
anything — the ``repro doctor`` command and the recovery path
(:mod:`repro.resilience`) are built on them. Corruption is reported as
:class:`ArtifactCorruptError` and version mismatches as
:class:`ArtifactError`; both subclass ``ValueError``, preserving the
pre-hardening error contract.

Beside the per-model archives lives the **shard manifest** (JSON,
conventionally ``*.shards.json``): the index of one federated fit produced
by :mod:`repro.shard`. It records the shard count, the partition strategy,
the per-shard artifact paths (relative to the manifest, so the directory
moves as a unit), the global/local user- and document-id maps, the
cross-shard spill links, and — once the aligner has run — the mapping of
every shard-local community id into the global label space.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..graph.vocabulary import Vocabulary
from .config import CPDConfig
from .parameters import DiffusionParameters
from .result import CPDResult, IterationTrace

PathLike = Union[str, Path]

_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)
_META_NAME = "cpd_meta.json"
_VOCABULARY_NAME = "vocabulary.json"
_SUMMARY_NAME = "graph_summary.json"
#: CPDConfig fields that older artifacts still carry but the model no longer
#: reads, each with the one value the model still implements (None: any);
#: dropped on load. A stored value other than that one was fitted under a
#: different model and fails the load, as does any other unknown field.
_RETIRED_CONFIG_KEYS = {
    "nu_learning_rate": None,
    "pg_terms": None,
    # the Eq. 5 popularity term is the bounded proportion transform
    "popularity_mode": "proportion",
    "popularity_weight": 1.0,
}
#: CPDConfig values older artifacts carry that the model no longer accepts,
#: mapped to their successor on load: the vectorized sweep kernel (the
#: default until it was retired) draws identically to the compiled one
_RETIRED_CONFIG_VALUES = {("sweep_kernel", "vectorized"): "compiled"}


class ArtifactError(ValueError):
    """A persisted artifact/manifest cannot be used (version, structure)."""


class ArtifactCorruptError(ArtifactError):
    """A persisted artifact/manifest failed an integrity check.

    Distinct from :class:`ArtifactError` so recovery code can treat "this
    generation is damaged, skip it" differently from "this format is from
    the future, stop".
    """


def _fault_firing(point: str, **context):
    """Consult the active fault plan, if any (lazy import: no cycle)."""
    from ..resilience import faults

    return faults.firing(point, **context)


def atomic_write_bytes(path: PathLike, data: bytes, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` crash-safely: temp file, fsync, rename.

    The temp file lives in the destination directory (``os.replace`` must
    not cross filesystems), so a crash at any point leaves either the old
    content or the new — never a prefix. The directory entry is fsynced
    too (best effort; not every platform allows opening directories).
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


@dataclass
class CPDArtifact:
    """Everything stored in one ``.cpd.npz`` archive.

    ``vocabulary`` and ``graph_summary`` are ``None`` for v1 artifacts (and
    for v2+ artifacts saved without them); ``graph_summary`` is the raw JSON
    mapping — :class:`repro.serving.GraphSummary` knows how to revive it.
    ``stream_cursor`` is the raw v3 cursor mapping (``None`` for offline
    fits) — :class:`repro.stream.StreamCursor` knows how to revive it.
    """

    result: CPDResult
    vocabulary: Optional[Vocabulary] = None
    graph_summary: Optional[dict] = None
    stream_cursor: Optional[dict] = None
    format_version: int = _FORMAT_VERSION

    @property
    def self_contained(self) -> bool:
        """True when serving needs no graph reload."""
        return self.vocabulary is not None and self.graph_summary is not None


def save_result(
    result: CPDResult,
    path: PathLike,
    vocabulary: Vocabulary | None = None,
    graph_summary: object | None = None,
    stream_cursor: object | None = None,
) -> None:
    """Persist a fitted result to ``path`` (conventionally ``.cpd.npz``).

    Always writes format v3. Pass ``vocabulary`` and ``graph_summary``
    (a mapping, or any object with a ``to_dict()`` — e.g.
    :class:`repro.serving.GraphSummary`) to make the artifact
    self-contained for serving; ``stream_cursor`` (a mapping or an object
    with ``to_dict()``) marks a streaming snapshot.

    The write is atomic (see module docstring) and every entry's CRC32 is
    recorded in the archive metadata for :func:`verify_artifact`.
    """
    path = Path(path)
    if stream_cursor is not None and hasattr(stream_cursor, "to_dict"):
        stream_cursor = stream_cursor.to_dict()
    meta = {
        "format_version": _FORMAT_VERSION,
        "graph_name": result.graph_name,
        "config": asdict(result.config),
        "diffusion": {
            "comm_weight": result.diffusion.comm_weight,
            "pop_weight": result.diffusion.pop_weight,
            "bias": result.diffusion.bias,
        },
        "trace": [asdict(entry) for entry in result.trace],
    }
    if stream_cursor is not None:
        meta["stream_cursor"] = stream_cursor
    arrays = {
        "pi": result.pi,
        "theta": result.theta,
        "phi": result.phi,
        "eta": result.diffusion.eta,
        "nu": result.diffusion.nu,
        "doc_community": result.doc_community,
        "doc_topic": result.doc_topic,
    }
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)

    # payload entries first, so their CRC32s can ride inside the meta entry
    entries: list[tuple[str, bytes]] = [("arrays.npz", buffer.getvalue())]
    if vocabulary is not None:
        entries.append(
            (_VOCABULARY_NAME, json.dumps(vocabulary.to_dict()).encode("utf-8"))
        )
    if graph_summary is not None:
        if hasattr(graph_summary, "to_dict"):
            graph_summary = graph_summary.to_dict()
        entries.append((_SUMMARY_NAME, json.dumps(graph_summary).encode("utf-8")))
    meta["checksums"] = {
        name: zlib.crc32(payload) & 0xFFFFFFFF for name, payload in entries
    }

    archive_buffer = io.BytesIO()
    with zipfile.ZipFile(
        archive_buffer, "w", compression=zipfile.ZIP_DEFLATED
    ) as archive:
        archive.writestr(_META_NAME, json.dumps(meta))
        for name, payload in entries:
            archive.writestr(name, payload)
    data = archive_buffer.getvalue()

    spec = _fault_firing("artifact.torn_write", path=str(path))
    if spec is not None:
        # simulate the pre-hardening failure mode: the process dies mid-way
        # through a non-atomic write, leaving a torn file at the final path
        from ..resilience.faults import InjectedFault

        path.write_bytes(data[: max(1, len(data) // 3)])
        raise InjectedFault("artifact.torn_write", {"path": str(path)})
    atomic_write_bytes(path, data)


def _read_entry(archive: zipfile.ZipFile, name: str, path: Path) -> bytes:
    """One archive member's bytes; container CRC, inflate and missing-member
    failures become ours."""
    try:
        return archive.read(name)
    except (
        zipfile.BadZipFile,
        zlib.error,
        KeyError,
        EOFError,
        NotImplementedError,
        OSError,
    ) as error:
        raise ArtifactCorruptError(
            f"corrupt CPD artifact {path}: entry {name!r} failed the zip "
            f"integrity check ({error})"
        ) from error


def _verify_entries(
    archive: zipfile.ZipFile, meta: dict, path: Path
) -> list[tuple[str, int, int, bool]]:
    """Recorded-vs-actual CRC32 per payload entry, ``(name, want, got, ok)``.

    Artifacts saved before checksums existed record none; they verify
    vacuously (the zip container's own member CRCs still apply on read).
    """
    recorded = meta.get("checksums", {})
    checks = []
    names = set(archive.namelist())
    for name, want in recorded.items():
        if name not in names:
            checks.append((name, int(want), -1, False))
            continue
        got = zlib.crc32(_read_entry(archive, name, path)) & 0xFFFFFFFF
        checks.append((name, int(want), got, got == int(want)))
    return checks


def load_artifact(path: PathLike, verify: bool = False) -> CPDArtifact:
    """Load a full artifact (result + optional serving payloads).

    Accepts format versions 1 through 3; anything else raises
    :class:`ArtifactError` naming the supported versions. Damaged archives
    (unreadable zip, torn entries, recorded-checksum mismatches when
    ``verify=True``) raise :class:`ArtifactCorruptError` instead of
    propagating parser internals.
    """
    path = Path(path)
    spec = _fault_firing("artifact.read", path=str(path))
    if spec is not None:
        raise ArtifactCorruptError(
            f"corrupt CPD artifact {path}: injected fault at artifact.read"
        )
    try:
        archive_cm = zipfile.ZipFile(path, "r")
    except (zipfile.BadZipFile, NotImplementedError, OSError) as error:
        if isinstance(error, FileNotFoundError):
            raise
        raise ArtifactCorruptError(
            f"corrupt CPD artifact {path}: not a readable archive ({error})"
        ) from error
    with archive_cm as archive:
        try:
            meta = json.loads(_read_entry(archive, _META_NAME, path).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ArtifactCorruptError(
                f"corrupt CPD artifact {path}: metadata entry unreadable ({error})"
            ) from error
        version = meta.get("format_version")
        if version not in _SUPPORTED_VERSIONS:
            supported = ", ".join(str(v) for v in _SUPPORTED_VERSIONS)
            raise ArtifactError(
                f"unsupported CPD result format version: {version!r} "
                f"(supported versions: {supported})"
            )
        if verify:
            failed = [
                name for name, _want, _got, ok in _verify_entries(archive, meta, path)
                if not ok
            ]
            if failed:
                raise ArtifactCorruptError(
                    f"corrupt CPD artifact {path}: checksum mismatch in "
                    f"entries: {', '.join(sorted(failed))}"
                )
        try:
            with archive.open("arrays.npz") as handle:
                arrays = np.load(io.BytesIO(handle.read()))
                pi = arrays["pi"]
                theta = arrays["theta"]
                phi = arrays["phi"]
                eta = arrays["eta"]
                nu = arrays["nu"]
                doc_community = arrays["doc_community"]
                doc_topic = arrays["doc_topic"]
        except (KeyError, ValueError, zipfile.BadZipFile, OSError) as error:
            raise ArtifactCorruptError(
                f"corrupt CPD artifact {path}: array payload unreadable ({error})"
            ) from error
        names = set(archive.namelist())
        vocabulary = None
        if _VOCABULARY_NAME in names:
            vocabulary = Vocabulary.from_dict(
                json.loads(_read_entry(archive, _VOCABULARY_NAME, path).decode("utf-8"))
            )
        graph_summary = None
        if _SUMMARY_NAME in names:
            graph_summary = json.loads(
                _read_entry(archive, _SUMMARY_NAME, path).decode("utf-8")
            )

    for key, value in meta["config"].items():
        implemented = _RETIRED_CONFIG_KEYS.get(key)
        if implemented is not None and value != implemented:
            raise ArtifactError(
                f"CPD artifact {path} was fitted with {key}={value!r}; this "
                f"model implements only {key}={implemented!r}"
            )
    config = CPDConfig(
        **{
            key: _RETIRED_CONFIG_VALUES.get((key, value), value)
            for key, value in meta["config"].items()
            if key not in _RETIRED_CONFIG_KEYS
        }
    )
    diffusion = DiffusionParameters(
        eta=eta,
        comm_weight=meta["diffusion"]["comm_weight"],
        pop_weight=meta["diffusion"]["pop_weight"],
        nu=nu,
        bias=meta["diffusion"]["bias"],
    )
    trace = [IterationTrace(**entry) for entry in meta["trace"]]
    result = CPDResult(
        config=config,
        pi=pi,
        theta=theta,
        phi=phi,
        diffusion=diffusion,
        doc_community=doc_community,
        doc_topic=doc_topic,
        trace=trace,
        graph_name=meta.get("graph_name", ""),
    )
    return CPDArtifact(
        result=result,
        vocabulary=vocabulary,
        graph_summary=graph_summary,
        stream_cursor=meta.get("stream_cursor"),
        format_version=int(version),
    )


def load_result(path: PathLike) -> CPDResult:
    """Load just the :class:`CPDResult` written by :func:`save_result`."""
    return load_artifact(path).result


# ----------------------------------------------------------- integrity checks


@dataclass
class EntryCheck:
    """One archive entry's recorded-vs-recomputed CRC32."""

    name: str
    recorded: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.recorded == self.actual


@dataclass
class ArtifactCheck:
    """:func:`verify_artifact`'s report — never raises, always explains."""

    path: str
    ok: bool
    format_version: Optional[int] = None
    entries: list[EntryCheck] = field(default_factory=list)
    stream_cursor: Optional[dict] = None
    error: Optional[str] = None


def verify_artifact(path: PathLike) -> ArtifactCheck:
    """Integrity-check one artifact without reviving its payloads.

    Reads every entry once, comparing the container CRCs and the recorded
    per-entry checksums; reports (rather than raises) version and
    corruption problems so a doctor pass over a directory of generations
    can keep walking.
    """
    path = Path(path)
    try:
        with zipfile.ZipFile(path, "r") as archive:
            meta = json.loads(_read_entry(archive, _META_NAME, path).decode("utf-8"))
            version = meta.get("format_version")
            if version not in _SUPPORTED_VERSIONS:
                supported = ", ".join(str(v) for v in _SUPPORTED_VERSIONS)
                return ArtifactCheck(
                    path=str(path),
                    ok=False,
                    format_version=version if isinstance(version, int) else None,
                    error=(
                        f"unsupported format version {version!r} "
                        f"(supported versions: {supported})"
                    ),
                )
            entries = [
                EntryCheck(name, want, got)
                for name, want, got, _ok in _verify_entries(archive, meta, path)
            ]
            # entries the container holds but the meta does not cover still
            # get their zip CRC exercised by the read above
            for name in archive.namelist():
                if name != _META_NAME and name not in {e.name for e in entries}:
                    _read_entry(archive, name, path)
            bad = [entry.name for entry in entries if not entry.ok]
            return ArtifactCheck(
                path=str(path),
                ok=not bad,
                format_version=int(version),
                entries=entries,
                stream_cursor=meta.get("stream_cursor"),
                error=(
                    f"checksum mismatch in entries: {', '.join(sorted(bad))}"
                    if bad
                    else None
                ),
            )
    except FileNotFoundError:
        return ArtifactCheck(path=str(path), ok=False, error="file not found")
    except (
        ArtifactCorruptError,
        zipfile.BadZipFile,
        json.JSONDecodeError,
        UnicodeDecodeError,
        NotImplementedError,
        OSError,
    ) as error:
        return ArtifactCheck(path=str(path), ok=False, error=str(error))


# --------------------------------------------------------------- shard manifest

_MANIFEST_VERSION = 1
_SUPPORTED_MANIFEST_VERSIONS = (1,)


@dataclass
class ShardEntry:
    """One shard's row in the manifest."""

    shard_id: int
    #: artifact path relative to the manifest file
    path: str
    #: global user ids, sorted; position = local user id
    users: np.ndarray
    #: global document ids, sorted; position = local doc id
    doc_ids: np.ndarray

    @property
    def n_users(self) -> int:
        return int(self.users.shape[0])

    @property
    def n_documents(self) -> int:
        return int(self.doc_ids.shape[0])


@dataclass
class ShardManifest:
    """Index of one federated fit: shard artifacts plus the global id maps."""

    strategy: str
    graph_name: str
    shards: list[ShardEntry]
    #: cross-shard links the partitioner spilled, as raw JSON mappings
    #: (:class:`repro.shard.SpillSet` knows how to revive them)
    spill: Optional[dict] = None
    #: cross-shard community alignment, raw JSON mapping (``None`` until the
    #: aligner has run; :class:`repro.shard.ShardAlignment` revives it)
    alignment: Optional[dict] = None
    manifest_version: int = _MANIFEST_VERSION

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_users(self) -> int:
        return sum(entry.n_users for entry in self.shards)

    @property
    def n_documents(self) -> int:
        return sum(entry.n_documents for entry in self.shards)

    def artifact_paths(self, manifest_path: PathLike) -> list[Path]:
        """Per-shard artifact paths resolved against the manifest location."""
        base = Path(manifest_path).parent
        return [base / entry.path for entry in self.shards]


def _manifest_checksum(payload: dict) -> int:
    """CRC32 over the manifest's canonical JSON, checksum field excluded."""
    body = {key: value for key, value in payload.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def save_shard_manifest(manifest: ShardManifest, path: PathLike) -> None:
    """Write a :class:`ShardManifest` as JSON next to its shard artifacts.

    Atomic like :func:`save_result`, with a whole-payload CRC32 so
    :func:`verify_shard_manifest` can prove the index itself intact before
    touching any shard artifact.
    """
    payload = {
        "manifest_version": _MANIFEST_VERSION,
        "strategy": manifest.strategy,
        "graph_name": manifest.graph_name,
        "shards": [
            {
                "shard_id": entry.shard_id,
                "path": entry.path,
                "users": entry.users.tolist(),
                "doc_ids": entry.doc_ids.tolist(),
            }
            for entry in manifest.shards
        ],
        "spill": manifest.spill,
        "alignment": manifest.alignment,
    }
    payload["checksum"] = _manifest_checksum(payload)
    atomic_write_bytes(
        path, (json.dumps(payload) + "\n").encode("utf-8")
    )


def load_shard_manifest(path: PathLike) -> ShardManifest:
    """Load a manifest written by :func:`save_shard_manifest`.

    Verifies the recorded payload checksum when present (manifests written
    before hardening carry none and load as before); raises
    :class:`ArtifactCorruptError` on damage, :class:`ArtifactError` on an
    unsupported version.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ArtifactCorruptError(
            f"corrupt shard manifest {path}: not parseable JSON ({error})"
        ) from error
    version = payload.get("manifest_version")
    if version not in _SUPPORTED_MANIFEST_VERSIONS:
        supported = ", ".join(str(v) for v in _SUPPORTED_MANIFEST_VERSIONS)
        raise ArtifactError(
            f"unsupported shard manifest version: {version!r} "
            f"(supported versions: {supported})"
        )
    recorded = payload.get("checksum")
    if recorded is not None and int(recorded) != _manifest_checksum(payload):
        raise ArtifactCorruptError(
            f"corrupt shard manifest {path}: payload checksum mismatch "
            f"(recorded {int(recorded)}, recomputed {_manifest_checksum(payload)})"
        )
    try:
        shards = [
            ShardEntry(
                shard_id=int(record["shard_id"]),
                path=record["path"],
                users=np.asarray(record["users"], dtype=np.int64),
                doc_ids=np.asarray(record["doc_ids"], dtype=np.int64),
            )
            for record in payload["shards"]
        ]
    except (KeyError, TypeError) as error:
        raise ArtifactCorruptError(
            f"corrupt shard manifest {path}: shard records unreadable ({error})"
        ) from error
    return ShardManifest(
        strategy=payload["strategy"],
        graph_name=payload.get("graph_name", ""),
        shards=shards,
        spill=payload.get("spill"),
        alignment=payload.get("alignment"),
        manifest_version=int(version),
    )


@dataclass
class ManifestCheck:
    """:func:`verify_shard_manifest`'s report over the index + its shards."""

    path: str
    ok: bool
    n_shards: int = 0
    artifact_checks: list[ArtifactCheck] = field(default_factory=list)
    error: Optional[str] = None


def verify_shard_manifest(
    path: PathLike, check_artifacts: bool = True
) -> ManifestCheck:
    """Integrity-check a manifest and (optionally) every shard artifact."""
    path = Path(path)
    try:
        manifest = load_shard_manifest(path)
    except (ArtifactError, FileNotFoundError, OSError) as error:
        return ManifestCheck(path=str(path), ok=False, error=str(error))
    artifact_checks: list[ArtifactCheck] = []
    if check_artifacts:
        artifact_checks = [
            verify_artifact(artifact_path)
            for artifact_path in manifest.artifact_paths(path)
        ]
    ok = all(check.ok for check in artifact_checks)
    bad = [Path(check.path).name for check in artifact_checks if not check.ok]
    return ManifestCheck(
        path=str(path),
        ok=ok,
        n_shards=manifest.n_shards,
        artifact_checks=artifact_checks,
        error=f"damaged shard artifacts: {', '.join(bad)}" if bad else None,
    )


def is_shard_manifest(path: PathLike) -> bool:
    """Cheap sniff: does ``path`` hold a shard manifest (vs a model archive)?

    Model archives are zip files; manifests are JSON documents written by
    :func:`save_shard_manifest` with ``manifest_version`` as their first
    key, so checking the leading bytes suffices — the (potentially large)
    id maps are never parsed here. Never raises: unreadable, missing or
    foreign files simply answer ``False``. Lets ``repro info`` accept
    either format.
    """
    path = Path(path)
    try:
        if zipfile.is_zipfile(path):
            return False
        with path.open("rb") as handle:
            head = handle.read(4096)
    except OSError:
        return False
    return b'"manifest_version"' in head
