"""Tests for CPD result serialisation (formats v1-v3) and shard manifests."""

import json
import zipfile

import numpy as np
import pytest

from repro.core import (
    ArtifactCorruptError,
    ArtifactError,
    ShardEntry,
    ShardManifest,
    atomic_write_bytes,
    is_shard_manifest,
    load_artifact,
    load_result,
    load_shard_manifest,
    save_result,
    save_shard_manifest,
    verify_artifact,
    verify_shard_manifest,
)
from repro.resilience import FaultPlan, InjectedFault, inject


def _downgrade_to_v1(src_path, dst_path):
    """Rewrite an artifact as the exact v1 layout the old writer produced:
    format_version 1, arrays + meta only, no serving payloads."""
    with zipfile.ZipFile(src_path) as archive:
        meta = json.loads(archive.read("cpd_meta.json"))
        arrays = archive.read("arrays.npz")
    meta["format_version"] = 1
    with zipfile.ZipFile(dst_path, "w") as archive:
        archive.writestr("arrays.npz", arrays)
        archive.writestr("cpd_meta.json", json.dumps(meta))


class TestResultRoundTrip:
    def test_arrays_preserved(self, fitted_cpd, tmp_path):
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        clone = load_result(path)
        np.testing.assert_allclose(clone.pi, fitted_cpd.pi)
        np.testing.assert_allclose(clone.theta, fitted_cpd.theta)
        np.testing.assert_allclose(clone.phi, fitted_cpd.phi)
        np.testing.assert_allclose(clone.eta, fitted_cpd.eta)
        np.testing.assert_array_equal(clone.doc_community, fitted_cpd.doc_community)
        np.testing.assert_array_equal(clone.doc_topic, fitted_cpd.doc_topic)

    def test_parameters_preserved(self, fitted_cpd, tmp_path):
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        clone = load_result(path)
        assert clone.diffusion.comm_weight == pytest.approx(fitted_cpd.diffusion.comm_weight)
        assert clone.diffusion.pop_weight == pytest.approx(fitted_cpd.diffusion.pop_weight)
        assert clone.diffusion.bias == pytest.approx(fitted_cpd.diffusion.bias)
        np.testing.assert_allclose(clone.diffusion.nu, fitted_cpd.diffusion.nu)

    def test_config_preserved(self, fitted_cpd, tmp_path):
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        clone = load_result(path)
        assert clone.config == fitted_cpd.config

    def test_trace_preserved(self, fitted_cpd, tmp_path):
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        clone = load_result(path)
        assert len(clone.trace) == len(fitted_cpd.trace)
        assert clone.trace[0].iteration == fitted_cpd.trace[0].iteration

    def test_graph_name_preserved(self, fitted_cpd, tmp_path):
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        assert load_result(path).graph_name == fitted_cpd.graph_name

    def test_loaded_result_usable_in_apps(self, fitted_cpd, twitter_tiny, tmp_path):
        from repro.apps import DiffusionPredictor

        graph, _ = twitter_tiny
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        clone = load_result(path)
        predictor = DiffusionPredictor(clone, graph)
        assert 0.0 <= predictor.predict(0, 1, 2) <= 1.0

    def test_version_check(self, fitted_cpd, tmp_path):
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        # corrupt the version field
        with zipfile.ZipFile(path) as archive:
            meta = json.loads(archive.read("cpd_meta.json"))
            arrays = archive.read("arrays.npz")
        meta["format_version"] = 999
        bad = tmp_path / "bad.cpd.npz"
        with zipfile.ZipFile(bad, "w") as archive:
            archive.writestr("arrays.npz", arrays)
            archive.writestr("cpd_meta.json", json.dumps(meta))
        with pytest.raises(ValueError, match="supported versions: 1, 2"):
            load_result(bad)


class TestFormatVersions:
    def test_v1_artifacts_still_load(self, fitted_cpd, tmp_path):
        """Backward compatibility: the pre-serving v1 layout must keep working."""
        current = tmp_path / "model.cpd.npz"
        legacy = tmp_path / "legacy.cpd.npz"
        save_result(fitted_cpd, current)
        _downgrade_to_v1(current, legacy)
        clone = load_result(legacy)
        np.testing.assert_allclose(clone.pi, fitted_cpd.pi)
        np.testing.assert_allclose(clone.eta, fitted_cpd.eta)
        assert clone.config == fitted_cpd.config

    def test_v1_artifact_reports_missing_payloads(self, fitted_cpd, tmp_path):
        current = tmp_path / "model.cpd.npz"
        legacy = tmp_path / "legacy.cpd.npz"
        save_result(fitted_cpd, current)
        _downgrade_to_v1(current, legacy)
        artifact = load_artifact(legacy)
        assert artifact.format_version == 1
        assert artifact.vocabulary is None
        assert artifact.graph_summary is None
        assert not artifact.self_contained

    def test_round_trip_with_payloads(self, fitted_cpd, twitter_tiny, tmp_path):
        from repro.serving import GraphSummary

        graph, _ = twitter_tiny
        path = tmp_path / "model.cpd.npz"
        summary = GraphSummary.from_graph(graph)
        save_result(
            fitted_cpd, path, vocabulary=graph.vocabulary, graph_summary=summary
        )
        artifact = load_artifact(path)
        assert artifact.format_version == 3
        assert artifact.self_contained
        assert len(artifact.vocabulary) == len(graph.vocabulary)
        assert artifact.vocabulary.word_of(0) == graph.vocabulary.word_of(0)
        revived = GraphSummary.from_dict(artifact.graph_summary)
        assert revived.stats() == graph.stats()

    def test_without_payloads_round_trips(self, fitted_cpd, tmp_path):
        path = tmp_path / "bare.cpd.npz"
        save_result(fitted_cpd, path)
        artifact = load_artifact(path)
        assert artifact.format_version == 3
        assert artifact.vocabulary is None
        assert artifact.graph_summary is None
        np.testing.assert_allclose(artifact.result.theta, fitted_cpd.theta)

    def test_v2_artifact_still_loads(self, fitted_cpd, tmp_path):
        """The exact v2 layout (no stream cursor key) stays readable."""
        current = tmp_path / "model.cpd.npz"
        legacy = tmp_path / "v2.cpd.npz"
        save_result(fitted_cpd, current)
        with zipfile.ZipFile(current) as archive:
            meta = json.loads(archive.read("cpd_meta.json"))
            arrays = archive.read("arrays.npz")
        meta["format_version"] = 2
        meta.pop("stream_cursor", None)
        with zipfile.ZipFile(legacy, "w") as archive:
            archive.writestr("arrays.npz", arrays)
            archive.writestr("cpd_meta.json", json.dumps(meta))
        artifact = load_artifact(legacy)
        assert artifact.format_version == 2
        assert artifact.stream_cursor is None
        np.testing.assert_allclose(artifact.result.pi, fitted_cpd.pi)

    def test_retired_config_key_is_dropped_on_load(self, fitted_cpd, tmp_path):
        """Format-3 artifacts written while ``CPDConfig`` still had
        ``nu_learning_rate`` keep loading. Shard manifests (each shard's
        artifact) and stream snapshots go through the same
        :func:`load_artifact`, so this covers them too."""
        current = tmp_path / "model.cpd.npz"
        legacy = tmp_path / "legacy.cpd.npz"
        save_result(fitted_cpd, current)
        with zipfile.ZipFile(current) as archive:
            meta = json.loads(archive.read("cpd_meta.json"))
        meta["config"]["nu_learning_rate"] = 0.5
        _tamper_entry(current, legacy, "cpd_meta.json", json.dumps(meta))
        artifact = load_artifact(legacy, verify=True)
        assert artifact.result.config == fitted_cpd.config
        assert load_result(legacy).config == fitted_cpd.config

    def test_retired_pg_terms_is_dropped_on_load(self, fitted_cpd, tmp_path):
        """Artifacts saved while the PG draws were a 64-term series carry
        ``pg_terms``; the exact sampler has no such knob."""
        current = tmp_path / "model.cpd.npz"
        legacy = tmp_path / "series.cpd.npz"
        save_result(fitted_cpd, current)
        with zipfile.ZipFile(current) as archive:
            meta = json.loads(archive.read("cpd_meta.json"))
        assert "pg_terms" not in meta["config"]
        meta["config"]["pg_terms"] = 64
        _tamper_entry(current, legacy, "cpd_meta.json", json.dumps(meta))
        artifact = load_artifact(legacy, verify=True)
        assert artifact.result.config == fitted_cpd.config

    def test_unknown_config_key_still_fails(self, fitted_cpd, tmp_path):
        current = tmp_path / "model.cpd.npz"
        future = tmp_path / "future.cpd.npz"
        save_result(fitted_cpd, current)
        with zipfile.ZipFile(current) as archive:
            meta = json.loads(archive.read("cpd_meta.json"))
        meta["config"]["not_a_config_field"] = 1
        _tamper_entry(current, future, "cpd_meta.json", json.dumps(meta))
        with pytest.raises(TypeError, match="not_a_config_field"):
            load_artifact(future)

    def test_stream_cursor_round_trips(self, fitted_cpd, tmp_path):
        path = tmp_path / "stream.cpd.npz"
        cursor = {
            "documents_appended": 120,
            "links_appended": 40,
            "refreshes": 3,
            "last_timestamp": 17,
        }
        save_result(fitted_cpd, path, stream_cursor=cursor)
        artifact = load_artifact(path)
        assert artifact.stream_cursor == cursor

    def test_stream_cursor_accepts_to_dict_objects(self, fitted_cpd, tmp_path):
        from repro.stream import StreamCursor

        path = tmp_path / "stream.cpd.npz"
        cursor = StreamCursor(
            documents_appended=5, links_appended=2, refreshes=1, last_timestamp=9
        )
        save_result(fitted_cpd, path, stream_cursor=cursor)
        revived = StreamCursor.from_dict(load_artifact(path).stream_cursor)
        assert revived == cursor

    def test_offline_fit_has_no_cursor(self, fitted_cpd, tmp_path):
        path = tmp_path / "offline.cpd.npz"
        save_result(fitted_cpd, path)
        assert load_artifact(path).stream_cursor is None


def _tamper_entry(src_path, dst_path, name, payload):
    """Rebuild an artifact with one entry's bytes replaced but the original
    meta (and its recorded checksums) kept — container CRCs stay valid, so
    only the recorded-checksum layer can catch the swap."""
    with zipfile.ZipFile(src_path) as archive:
        members = {n: archive.read(n) for n in archive.namelist()}
    members[name] = payload
    with zipfile.ZipFile(dst_path, "w") as archive:
        for member_name, data in members.items():
            archive.writestr(member_name, data)


class TestArtifactIntegrity:
    def test_fresh_save_verifies_clean(self, fitted_cpd, twitter_tiny, tmp_path):
        from repro.serving import GraphSummary

        graph, _ = twitter_tiny
        path = tmp_path / "model.cpd.npz"
        save_result(
            fitted_cpd,
            path,
            vocabulary=graph.vocabulary,
            graph_summary=GraphSummary.from_graph(graph),
        )
        check = verify_artifact(path)
        assert check.ok and check.error is None
        assert check.format_version == 3
        assert {entry.name for entry in check.entries} == {
            "arrays.npz",
            "vocabulary.json",
            "graph_summary.json",
        }
        assert all(entry.ok for entry in check.entries)

    def test_recorded_checksum_mismatch_is_reported(self, fitted_cpd, twitter_tiny, tmp_path):
        graph, _ = twitter_tiny
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path, vocabulary=graph.vocabulary)
        bad = tmp_path / "tampered.cpd.npz"
        _tamper_entry(path, bad, "vocabulary.json", b'{"words": [], "frequencies": []}')
        check = verify_artifact(bad)
        assert not check.ok
        assert "checksum mismatch" in check.error
        (failed,) = [entry for entry in check.entries if not entry.ok]
        assert failed.name == "vocabulary.json"
        assert failed.recorded != failed.actual

    def test_load_with_verify_raises_on_mismatch(self, fitted_cpd, twitter_tiny, tmp_path):
        graph, _ = twitter_tiny
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path, vocabulary=graph.vocabulary)
        bad = tmp_path / "tampered.cpd.npz"
        _tamper_entry(path, bad, "vocabulary.json", b'{"words": [], "frequencies": []}')
        with pytest.raises(ArtifactCorruptError, match="checksum mismatch"):
            load_artifact(bad, verify=True)
        # without verify the swap goes unnoticed if the payload still parses
        # (the default trusts the container CRCs) — that is the documented
        # trade-off verify=True exists to close
        assert load_artifact(bad).format_version == 3

    def test_flipped_byte_is_reported_not_raised(self, fitted_cpd, tmp_path):
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        check = verify_artifact(path)
        assert not check.ok and check.error

    def test_flipped_byte_anywhere_is_reported_not_raised(self, fitted_cpd, tmp_path):
        """Wherever a byte flips, the verifier reports and the loader raises
        ArtifactError: a flip can fail inflation (zlib.error), a member
        lookup (KeyError), the zip version check (NotImplementedError) or
        a seek (OSError) before any CRC is compared."""
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        pristine = path.read_bytes()
        detected = 0
        for position in range(0, len(pristine), 7):
            data = bytearray(pristine)
            data[position] ^= 0xFF
            path.write_bytes(bytes(data))
            check = verify_artifact(path)
            # some header bytes (timestamps, attributes) carry no check at all
            assert check.ok or check.error, position
            detected += not check.ok
            try:
                load_artifact(path, verify=True)
            except ArtifactError:
                pass
        assert detected > 0.9 * len(range(0, len(pristine), 7))

    def test_truncated_artifact_is_reported(self, fitted_cpd, tmp_path):
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        path.write_bytes(path.read_bytes()[:100])
        check = verify_artifact(path)
        assert not check.ok and check.error

    def test_missing_file_is_reported(self, tmp_path):
        check = verify_artifact(tmp_path / "never-saved.cpd.npz")
        assert not check.ok
        assert check.error == "file not found"

    def test_stream_cursor_surfaces_without_reviving_payloads(
        self, fitted_cpd, tmp_path
    ):
        path = tmp_path / "stream.cpd.npz"
        cursor = {
            "documents_appended": 9,
            "links_appended": 4,
            "refreshes": 1,
            "last_timestamp": 3,
        }
        save_result(fitted_cpd, path, stream_cursor=cursor)
        assert verify_artifact(path).stream_cursor == cursor


class TestCrashSafety:
    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "state.bin"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new content")
        assert path.read_bytes() == b"new content"
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]

    def test_atomic_write_failure_leaves_nothing_behind(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            atomic_write_bytes(tmp_path / "missing-dir" / "state.bin", b"x")
        assert list(tmp_path.iterdir()) == []

    def test_torn_write_fault_leaves_detectable_damage(self, fitted_cpd, tmp_path):
        """The pre-hardening failure mode, on demand: a save that dies
        mid-write leaves a torn file verify_artifact flags (rather than a
        silently-short artifact a later load trips over)."""
        path = tmp_path / "model.cpd.npz"
        plan = FaultPlan(seed=0)
        plan.fail_at("artifact.torn_write", at=1)
        with inject(plan):
            with pytest.raises(InjectedFault):
                save_result(fitted_cpd, path)
        assert path.exists()
        check = verify_artifact(path)
        assert not check.ok and check.error
        # a clean re-save over the torn file repairs it atomically
        save_result(fitted_cpd, path)
        assert verify_artifact(path).ok

    def test_artifact_read_fault_raises_corrupt_error(self, fitted_cpd, tmp_path):
        path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, path)
        plan = FaultPlan(seed=0)
        plan.fail_at("artifact.read", at=1)
        with inject(plan):
            with pytest.raises(ArtifactCorruptError, match="injected fault"):
                load_artifact(path)
        assert load_artifact(path).result is not None  # plan gone: reads fine


def _sample_manifest() -> ShardManifest:
    return ShardManifest(
        strategy="community",
        graph_name="twitter-tiny",
        shards=[
            ShardEntry(
                shard_id=0,
                path="shard-0.cpd.npz",
                users=np.array([0, 2, 5]),
                doc_ids=np.array([0, 1, 4]),
            ),
            ShardEntry(
                shard_id=1,
                path="shard-1.cpd.npz",
                users=np.array([1, 3, 4]),
                doc_ids=np.array([2, 3]),
            ),
        ],
        spill={"friendship": [[0, 1]], "diffusion": [[0, 2, 7]]},
        alignment={"n_global": 4, "local_to_global": [[0, 1], [1, 0]]},
    )


class TestShardManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "manifest.shards.json"
        manifest = _sample_manifest()
        save_shard_manifest(manifest, path)
        revived = load_shard_manifest(path)
        assert revived.strategy == "community"
        assert revived.graph_name == "twitter-tiny"
        assert revived.n_shards == 2
        assert revived.n_users == 6
        assert revived.n_documents == 5
        for mine, theirs in zip(revived.shards, manifest.shards):
            assert mine.shard_id == theirs.shard_id
            assert mine.path == theirs.path
            np.testing.assert_array_equal(mine.users, theirs.users)
            np.testing.assert_array_equal(mine.doc_ids, theirs.doc_ids)
        assert revived.spill == manifest.spill
        assert revived.alignment == manifest.alignment

    def test_artifact_paths_resolve_against_manifest_dir(self, tmp_path):
        path = tmp_path / "nested" / "manifest.shards.json"
        path.parent.mkdir()
        save_shard_manifest(_sample_manifest(), path)
        revived = load_shard_manifest(path)
        paths = revived.artifact_paths(path)
        assert paths[0] == tmp_path / "nested" / "shard-0.cpd.npz"
        assert paths[1] == tmp_path / "nested" / "shard-1.cpd.npz"

    def test_unsupported_version_names_supported_ones(self, tmp_path):
        path = tmp_path / "manifest.shards.json"
        save_shard_manifest(_sample_manifest(), path)
        payload = json.loads(path.read_text())
        payload["manifest_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="supported versions: 1"):
            load_shard_manifest(path)

    def test_is_shard_manifest_sniffs_correctly(self, fitted_cpd, tmp_path):
        manifest_path = tmp_path / "manifest.shards.json"
        save_shard_manifest(_sample_manifest(), manifest_path)
        artifact_path = tmp_path / "model.cpd.npz"
        save_result(fitted_cpd, artifact_path)
        other_json = tmp_path / "other.json"
        other_json.write_text('{"hello": 1}')
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"\x00\x01\x02")
        assert is_shard_manifest(manifest_path)
        assert not is_shard_manifest(artifact_path)
        assert not is_shard_manifest(other_json)
        assert not is_shard_manifest(garbage)


class TestManifestIntegrity:
    def _saved_federation(self, fitted_cpd, tmp_path):
        """A manifest plus two real shard artifacts next to it."""
        manifest_path = tmp_path / "manifest.shards.json"
        manifest = _sample_manifest()
        save_shard_manifest(manifest, manifest_path)
        for entry in manifest.shards:
            save_result(fitted_cpd, tmp_path / entry.path)
        return manifest_path

    def test_healthy_federation_verifies_clean(self, fitted_cpd, tmp_path):
        manifest_path = self._saved_federation(fitted_cpd, tmp_path)
        check = verify_shard_manifest(manifest_path)
        assert check.ok and check.error is None
        assert check.n_shards == 2
        assert len(check.artifact_checks) == 2
        assert all(shard.ok for shard in check.artifact_checks)

    def test_damaged_shard_artifact_is_named(self, fitted_cpd, tmp_path):
        manifest_path = self._saved_federation(fitted_cpd, tmp_path)
        shard_path = tmp_path / "shard-1.cpd.npz"
        shard_path.write_bytes(shard_path.read_bytes()[:80])
        check = verify_shard_manifest(manifest_path)
        assert not check.ok
        assert "shard-1.cpd.npz" in check.error
        damaged = [s for s in check.artifact_checks if not s.ok]
        assert len(damaged) == 1
        assert damaged[0].path.endswith("shard-1.cpd.npz")

    def test_manifest_tamper_is_caught_by_its_checksum(self, fitted_cpd, tmp_path):
        manifest_path = self._saved_federation(fitted_cpd, tmp_path)
        payload = json.loads(manifest_path.read_text())
        payload["strategy"] = "forged"  # edit without refreshing the checksum
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactCorruptError, match="checksum mismatch"):
            load_shard_manifest(manifest_path)
        check = verify_shard_manifest(manifest_path)
        assert not check.ok and "checksum mismatch" in check.error

    def test_pre_hardening_manifest_without_checksum_loads(
        self, fitted_cpd, tmp_path
    ):
        manifest_path = self._saved_federation(fitted_cpd, tmp_path)
        payload = json.loads(manifest_path.read_text())
        del payload["checksum"]
        manifest_path.write_text(json.dumps(payload))
        assert load_shard_manifest(manifest_path).n_shards == 2
        assert verify_shard_manifest(manifest_path).ok

    def test_index_only_check_skips_the_artifacts(self, fitted_cpd, tmp_path):
        manifest_path = self._saved_federation(fitted_cpd, tmp_path)
        (tmp_path / "shard-0.cpd.npz").write_bytes(b"ruined")
        check = verify_shard_manifest(manifest_path, check_artifacts=False)
        assert check.ok  # the index itself is intact; shards were not read
        assert check.artifact_checks == []
