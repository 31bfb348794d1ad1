"""Tests for the command-line interface (full offline workflow)."""

import io

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generate a graph and fit a model once for all CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    graph_path = root / "graph.json.gz"
    model_path = root / "model.cpd.npz"
    assert main([
        "generate", "--scenario", "twitter", "--scale", "tiny",
        "--seed", "42", "--out", str(graph_path),
    ]) == 0
    assert main([
        "fit", "--graph", str(graph_path), "--communities", "4",
        "--topics", "8", "--iterations", "6", "--seed", "0",
        "--out", str(model_path),
    ]) == 0
    return root, graph_path, model_path


class TestGenerate:
    def test_graph_file_created(self, workspace):
        _root, graph_path, _model = workspace
        assert graph_path.exists()
        from repro.graph import load_graph

        graph = load_graph(graph_path)
        assert graph.n_users > 0

    def test_dblp_scenario(self, tmp_path):
        out = tmp_path / "dblp.json"
        assert main([
            "generate", "--scenario", "dblp", "--scale", "tiny",
            "--seed", "1", "--out", str(out),
        ]) == 0
        assert out.exists()


class TestFit:
    def test_model_file_created(self, workspace):
        _root, _graph, model_path = workspace
        assert model_path.exists()
        from repro.core import load_result

        result = load_result(model_path)
        assert result.n_communities == 4

    def test_parallel_workers(self, workspace, tmp_path, capsys):
        """--workers drives the fit through the thread runner."""
        _root, graph_path, _model = workspace
        out = tmp_path / "parallel.cpd.npz"
        assert main([
            "fit", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "2", "--seed", "0",
            "--workers", "2", "--out", str(out),
        ]) == 0
        assert "parallel E-step: 2 workers" in capsys.readouterr().out
        assert out.exists()

    @pytest.mark.filterwarnings("ignore:compiled sweep kernel unavailable")
    def test_sweep_kernel_flag(self, workspace, tmp_path, capsys):
        """--sweep-kernel selects the backend and the banner names it —
        including the fallback arrow when no C toolchain exists."""
        _root, graph_path, _model = workspace
        out = tmp_path / "compiled.cpd.npz"
        assert main([
            "fit", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "2", "--seed", "0",
            "--sweep-kernel", "compiled", "--out", str(out),
        ]) == 0
        banner = capsys.readouterr().out
        assert (
            "sweep kernel: compiled\n" in banner
            or "sweep kernel: compiled -> reference (" in banner
        )
        assert out.exists()
        # the choice round-trips through the artifact into `repro info`
        assert main(["info", "--model", str(out)]) == 0
        assert "sweep kernel    : compiled" in capsys.readouterr().out

    def test_sweep_kernel_matches_default_results(self, workspace, tmp_path, capsys):
        """An explicit --sweep-kernel reference equals the default
        (compiled) fit draw for draw."""
        _root, graph_path, _model = workspace
        explicit = tmp_path / "explicit.cpd.npz"
        assert main([
            "fit", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "6", "--seed", "0",
            "--sweep-kernel", "reference", "--out", str(explicit),
        ]) == 0
        assert "sweep kernel: reference" in capsys.readouterr().out
        from repro.core import load_result
        import numpy as np

        baseline = load_result(workspace[2])
        result = load_result(explicit)
        np.testing.assert_array_equal(
            baseline.doc_community, result.doc_community
        )

    def test_invalid_sweep_kernel_rejected(self, workspace, capsys):
        _root, graph_path, _model = workspace
        with pytest.raises(SystemExit):
            main([
                "fit", "--graph", str(graph_path), "--communities", "4",
                "--topics", "8", "--sweep-kernel", "turbo", "--out", "/tmp/x.npz",
            ])
        assert "invalid choice" in capsys.readouterr().err


class TestEvaluate:
    def test_prints_metrics(self, workspace, capsys):
        _root, graph_path, model_path = workspace
        assert main([
            "evaluate", "--graph", str(graph_path), "--model", str(model_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "diffusion link AUC" in out
        assert "perplexity" in out


class TestRank:
    def test_known_query(self, workspace, capsys):
        _root, graph_path, model_path = workspace
        from repro.evaluation import select_queries
        from repro.graph import load_graph

        graph = load_graph(graph_path)
        queries = select_queries(graph, min_frequency=1, hashtags_only=True)
        assert main([
            "rank", "--graph", str(graph_path), "--model", str(model_path),
            "--query", queries[0].term, "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "#1" in out

    def test_rank_without_graph(self, workspace, capsys):
        """v2 artifacts are self-contained: rank needs no --graph."""
        _root, _graph, model_path = workspace
        from repro.core import load_artifact
        from repro.serving import ProfileStore

        store = ProfileStore.from_artifact_bundle(load_artifact(model_path))
        term = store.indexed_queries(1)[0].term
        assert main(["rank", "--model", str(model_path), "--query", term]) == 0
        assert "#1" in capsys.readouterr().out

    def test_unknown_query_fails_cleanly(self, workspace):
        _root, graph_path, model_path = workspace
        assert main([
            "rank", "--graph", str(graph_path), "--model", str(model_path),
            "--query", "zz-not-a-term",
        ]) == 1


class TestQuery:
    def test_serves_indexed_queries_by_default(self, workspace, capsys):
        _root, _graph, model_path = workspace
        assert main(["query", "--model", str(model_path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "diffusing docs" in out
        assert "c0" in out

    def test_explicit_terms(self, workspace, capsys):
        _root, _graph, model_path = workspace
        from repro.core import load_artifact
        from repro.serving import ProfileStore

        store = ProfileStore.from_artifact_bundle(load_artifact(model_path))
        term = store.indexed_queries(1)[0].term
        assert main(["query", "--model", str(model_path), "--query", term]) == 0
        assert term in capsys.readouterr().out

    def test_unknown_term_reports_failure(self, workspace, capsys):
        _root, _graph, model_path = workspace
        assert main([
            "query", "--model", str(model_path), "--query", "zz-not-a-term",
        ]) == 1
        assert "not in the fitted vocabulary" in capsys.readouterr().out

    def test_v1_artifact_requires_graph(self, workspace, tmp_path, capsys):
        """A v1 (not self-contained) artifact must fail with guidance."""
        import json
        import zipfile

        _root, _graph, model_path = workspace
        with zipfile.ZipFile(model_path) as archive:
            meta = json.loads(archive.read("cpd_meta.json"))
            arrays = archive.read("arrays.npz")
        meta["format_version"] = 1
        legacy = tmp_path / "legacy.cpd.npz"
        with zipfile.ZipFile(legacy, "w") as archive:
            archive.writestr("arrays.npz", arrays)
            archive.writestr("cpd_meta.json", json.dumps(meta))
        assert main(["query", "--model", str(legacy), "--query", "x"]) == 1
        assert "pass --graph" in capsys.readouterr().out

    def test_partial_v2_artifact_fails_cleanly(self, workspace, tmp_path, capsys):
        """A vocabulary-only v2 artifact (no summary) gets the friendly error."""
        from repro.core import load_artifact, save_result

        _root, _graph, model_path = workspace
        artifact = load_artifact(model_path)
        partial = tmp_path / "partial.cpd.npz"
        save_result(artifact.result, partial, vocabulary=artifact.vocabulary)
        assert main(["query", "--model", str(partial)]) == 1
        assert "pass --graph" in capsys.readouterr().out


class TestReport:
    def test_markdown_written(self, workspace):
        root, graph_path, model_path = workspace
        report_path = root / "report.md"
        assert main([
            "report", "--graph", str(graph_path), "--model", str(model_path),
            "--out", str(report_path),
        ]) == 0
        text = report_path.read_text()
        assert text.startswith("# ")
        assert "## Communities" in text
        assert "openness" in text.lower()

    def test_report_without_graph(self, workspace, tmp_path):
        _root, _graph, model_path = workspace
        report_path = tmp_path / "served_report.md"
        assert main([
            "report", "--model", str(model_path), "--out", str(report_path),
        ]) == 0
        text = report_path.read_text()
        assert "## Communities" in text
        assert "## Query rankings" in text


class TestVisualize:
    def test_ascii_to_stdout(self, workspace, capsys):
        _root, graph_path, model_path = workspace
        assert main([
            "visualize", "--graph", str(graph_path), "--model", str(model_path),
        ]) == 0
        assert "community diffusion" in capsys.readouterr().out

    def test_ascii_without_graph(self, workspace, capsys):
        _root, _graph, model_path = workspace
        assert main(["visualize", "--model", str(model_path)]) == 0
        assert "community diffusion" in capsys.readouterr().out

    def test_dot_to_file(self, workspace):
        root, graph_path, model_path = workspace
        out = root / "view.dot"
        assert main([
            "visualize", "--graph", str(graph_path), "--model", str(model_path),
            "--format", "dot", "--out", str(out),
        ]) == 0
        assert out.read_text().startswith("digraph")

    def test_topic_specific_json(self, workspace):
        root, graph_path, model_path = workspace
        out = root / "view.json"
        assert main([
            "visualize", "--graph", str(graph_path), "--model", str(model_path),
            "--format", "json", "--topic", "0", "--out", str(out),
        ]) == 0
        import json

        payload = json.loads(out.read_text())
        assert payload["topic"] == 0


class TestInfo:
    def test_prints_dims_and_payloads(self, workspace, capsys):
        _root, _graph, model_path = workspace
        assert main(["info", "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "format version  : 3 (self-contained)" in out
        assert "4 communities" in out and "8 topics" in out
        assert "vocabulary      : embedded" in out
        assert "graph summary   : embedded" in out
        assert "stream cursor   : absent (offline fit)" in out

    def test_reports_stream_cursor(self, workspace, capsys):
        root, graph_path, _model = workspace
        snapshot = root / "stream_snapshot.cpd.npz"
        assert main([
            "stream-replay", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "4", "--batch-size", "32",
            "--refresh-every", "64", "--seed", "0", "--out", str(snapshot),
        ]) == 0
        capsys.readouterr()
        assert main(["info", "--model", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "stream cursor   :" in out
        assert "refreshes" in out


class TestStreamReplay:
    def test_replay_writes_a_servable_snapshot(self, workspace, capsys):
        root, graph_path, _model = workspace
        snapshot = root / "replay_snapshot.cpd.npz"
        assert main([
            "stream-replay", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "4", "--batch-size", "32",
            "--refresh-every", "64", "--seed", "1", "--out", str(snapshot),
        ]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "wrote v3 stream snapshot" in out
        from repro.graph import load_graph
        from repro.serving import ProfileStore

        graph = load_graph(graph_path)
        store = ProfileStore.from_artifact(snapshot)
        assert len(store.doc_user()) == graph.n_documents

    def test_parallel_workers_replay(self, workspace, capsys):
        """--workers runs the base fit and refreshes through the runner."""
        _root, graph_path, _model = workspace
        assert main([
            "stream-replay", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "2", "--batch-size", "32",
            "--refresh-every", "64", "--seed", "1", "--workers", "2",
        ]) == 0
        assert "events/sec" in capsys.readouterr().out

    def test_foldin_only_mode_runs_frozen(self, workspace, capsys):
        _root, graph_path, _model = workspace
        assert main([
            "stream-replay", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "4", "--no-refresh",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 refreshes" in out

    def test_no_refresh_with_out_is_rejected(self, workspace, capsys):
        root, graph_path, _model = workspace
        snapshot = root / "never_written.cpd.npz"
        assert main([
            "stream-replay", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "4", "--no-refresh",
            "--out", str(snapshot),
        ]) == 1
        assert "requires refresh mode" in capsys.readouterr().out
        assert not snapshot.exists()


@pytest.fixture(scope="module")
def shard_workspace(tmp_path_factory):
    """A separated-scenario graph, monolithic fit, and 2-shard fit."""
    root = tmp_path_factory.mktemp("shard-cli")
    graph_path = root / "parity.json.gz"
    mono_path = root / "mono.cpd.npz"
    shard_dir = root / "shards"
    assert main([
        "generate", "--scenario", "separated", "--scale", "tiny",
        "--seed", "5", "--out", str(graph_path),
    ]) == 0
    assert main([
        "fit", "--graph", str(graph_path), "--communities", "4",
        "--topics", "8", "--iterations", "12", "--seed", "1",
        "--out", str(mono_path),
    ]) == 0
    assert main([
        "shard-fit", "--graph", str(graph_path), "--shards", "2",
        "--communities", "4", "--topics", "8", "--iterations", "12",
        "--seed", "9", "--out-dir", str(shard_dir),
    ]) == 0
    return root, graph_path, mono_path, shard_dir / "manifest.shards.json"


class TestShardFit:
    def test_writes_artifacts_and_manifest(self, shard_workspace):
        _root, _graph, _mono, manifest_path = shard_workspace
        assert manifest_path.exists()
        assert (manifest_path.parent / "shard-0.cpd.npz").exists()
        assert (manifest_path.parent / "shard-1.cpd.npz").exists()
        from repro.core import load_shard_manifest

        manifest = load_shard_manifest(manifest_path)
        assert manifest.n_shards == 2
        assert manifest.alignment is not None

    def test_shard_artifacts_open_as_plain_stores(self, shard_workspace):
        """A shard artifact is a standard self-contained artifact."""
        _root, _graph, _mono, manifest_path = shard_workspace
        from repro.serving import ProfileStore

        store = ProfileStore.from_artifact(manifest_path.parent / "shard-0.cpd.npz")
        assert store.n_communities == 4


class TestShardQuery:
    def test_serves_union_of_indexed_queries(self, shard_workspace, capsys):
        _root, _graph, _mono, manifest_path = shard_workspace
        assert main(["shard-query", "--manifest", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "queries across 2 shards" in out

    def test_parity_against_monolithic_store(self, shard_workspace, capsys):
        """The CI bar: >=80% top-k agreement with the monolithic fit."""
        _root, _graph, mono_path, manifest_path = shard_workspace
        assert main([
            "shard-query", "--manifest", str(manifest_path),
            "--against", str(mono_path), "--min-agreement", "0.8",
        ]) == 0
        assert "agreement vs" in capsys.readouterr().out

    def test_unreachable_agreement_fails(self, shard_workspace, capsys):
        _root, _graph, mono_path, manifest_path = shard_workspace
        assert main([
            "shard-query", "--manifest", str(manifest_path),
            "--against", str(mono_path), "--min-agreement", "1.01",
        ]) == 1
        assert "below required" in capsys.readouterr().out

    def test_unknown_term_reports_failure(self, shard_workspace, capsys):
        _root, _graph, _mono, manifest_path = shard_workspace
        assert main([
            "shard-query", "--manifest", str(manifest_path),
            "--query", "zzzz-not-a-word",
        ]) == 1
        assert "not in the fitted vocabulary" in capsys.readouterr().out


class TestShardInfo:
    def test_info_on_manifest(self, shard_workspace, capsys):
        _root, _graph, _mono, manifest_path = shard_workspace
        assert main(["info", "--model", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "shard manifest" in out
        assert "2 shards" in out
        assert "spill set" in out
        assert "alignment" in out

    def test_info_reports_fit_trace_and_snapshot(self, workspace, capsys):
        _root, _graph, model_path = workspace
        assert main(["info", "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "fit trace       : 6 EM iterations" in out


@pytest.fixture(scope="module")
def durable_workspace(workspace, tmp_path_factory):
    """One durable stream-replay: WAL plus snapshot generations on disk."""
    _root, graph_path, _model = workspace
    root = tmp_path_factory.mktemp("durable-cli")
    wal_path = root / "events.wal"
    snap_dir = root / "snaps"
    assert main([
        "stream-replay", "--graph", str(graph_path), "--communities", "4",
        "--topics", "8", "--iterations", "4", "--batch-size", "32",
        "--refresh-every", "64", "--seed", "3",
        "--wal", str(wal_path), "--snapshot-dir", str(snap_dir),
    ]) == 0
    return graph_path, wal_path, snap_dir


class TestDurableStreamReplay:
    def test_wal_and_generations_written(self, durable_workspace, capsys):
        _graph, wal_path, snap_dir = durable_workspace
        capsys.readouterr()
        assert wal_path.exists()
        from repro.resilience import SnapshotCatalog, scan_wal

        status = scan_wal(wal_path)
        assert not status.torn and status.n_events > 0
        generations = SnapshotCatalog(snap_dir).generations()
        assert len(generations) >= 1

    def test_recover_serves_from_the_cli_artifacts(self, durable_workspace):
        """What the CLI wrote is exactly what recover() needs."""
        from repro.resilience import recover

        _graph, wal_path, snap_dir = durable_workspace
        report = recover(snap_dir, wal_path=wal_path)
        assert report.generation >= 1
        assert report.store.rank(report.store.indexed_queries(1)[0].term)

    def test_no_refresh_with_snapshot_dir_is_rejected(self, workspace, capsys, tmp_path):
        _root, graph_path, _model = workspace
        assert main([
            "stream-replay", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "4", "--no-refresh",
            "--snapshot-dir", str(tmp_path / "never"),
        ]) == 1
        assert "requires refresh mode" in capsys.readouterr().out
        assert not (tmp_path / "never").exists()


class TestDoctor:
    def test_healthy_artifact_passes(self, workspace, capsys):
        _root, _graph, model_path = workspace
        assert main(["doctor", "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "entries verified" in out
        assert "doctor: all checks passed" in out

    def test_damaged_artifact_fails(self, workspace, capsys, tmp_path):
        _root, _graph, model_path = workspace
        bad = tmp_path / "bad.cpd.npz"
        bad.write_bytes(model_path.read_bytes()[:120])
        assert main(["doctor", "--model", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out
        assert "doctor: PROBLEMS FOUND" in out

    def test_shard_manifest_reports_per_shard(self, shard_workspace, capsys):
        _root, _graph, _mono, manifest_path = shard_workspace
        assert main(["doctor", "--model", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out
        assert "shard artifact shard-0.cpd.npz: ok" in out
        assert "shard artifact shard-1.cpd.npz: ok" in out

    def test_durable_stream_state_checks_out(self, durable_workspace, capsys):
        _graph, wal_path, snap_dir = durable_workspace
        assert main([
            "doctor", "--snapshot-dir", str(snap_dir), "--wal", str(wal_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "ok (recovery candidate)" in out
        assert "recovery cursor:" in out
        assert "replay tail:" in out
        assert "doctor: all checks passed" in out

    def test_unrecoverable_snapshot_dir_fails(self, capsys, tmp_path):
        (tmp_path / "snapshot-000001.cpd.npz").write_bytes(b"garbage")
        assert main(["doctor", "--snapshot-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "NO VALID GENERATION" in out
        assert "doctor: PROBLEMS FOUND" in out

    def test_missing_wal_fails(self, capsys, tmp_path):
        assert main(["doctor", "--wal", str(tmp_path / "none.wal")]) == 1
        assert "missing" in capsys.readouterr().out

    def test_torn_wal_is_described_not_fatal(self, durable_workspace, capsys, tmp_path):
        _graph, wal_path, _snaps = durable_workspace
        torn = tmp_path / "torn.wal"
        torn.write_bytes(wal_path.read_bytes()[:-5])
        assert main(["doctor", "--wal", str(torn)]) == 0
        out = capsys.readouterr().out
        assert "torn tail" in out
        assert "truncated on next open" in out

    def test_nothing_to_examine_is_an_error(self, capsys):
        assert main(["doctor"]) == 1
        assert "nothing to examine" in capsys.readouterr().out


class TestShardQueryBestEffort:
    def test_healthy_shards_serve_exact(self, shard_workspace, capsys):
        _root, _graph, _mono, manifest_path = shard_workspace
        assert main([
            "shard-query", "--manifest", str(manifest_path), "--best-effort",
        ]) == 0
        out = capsys.readouterr().out
        assert "queries across 2 shards" in out
        assert "[degraded:" not in out  # nothing failed: no coverage caveat

    def test_failing_shard_reports_coverage(self, shard_workspace, capsys):
        from repro.resilience import FaultPlan, inject
        from repro.resilience.faults import FaultSpec
        from repro.shard import ShardRouter

        _root, _graph, _mono, manifest_path = shard_workspace
        term = ShardRouter.from_manifest(manifest_path).indexed_terms()[0]
        plan = FaultPlan(seed=0)
        plan.arm(FaultSpec(point="shard.query", at=1, times=10_000, match={"shard": 1}))
        with inject(plan):
            assert main([
                "shard-query", "--manifest", str(manifest_path),
                "--best-effort", "--query", term,
            ]) == 0
        out = capsys.readouterr().out
        assert "[degraded: 1/2 shards live, 0 stale, coverage 50%]" in out

    def test_strict_mode_still_fails_loudly(self, shard_workspace, capsys):
        from repro.resilience import FaultPlan, inject
        from repro.resilience.faults import FaultSpec
        from repro.shard import ShardRouter

        _root, _graph, _mono, manifest_path = shard_workspace
        term = ShardRouter.from_manifest(manifest_path).indexed_terms()[0]
        plan = FaultPlan(seed=0)
        plan.arm(FaultSpec(point="shard.query", at=1, times=10_000, match={"shard": 0}))
        with inject(plan), pytest.raises(Exception, match="best_effort"):
            main([
                "shard-query", "--manifest", str(manifest_path), "--query", term,
            ])


class TestServeAndDoctorUrl:
    """`repro serve` wiring and the doctor's live-gateway probe mode."""

    @pytest.fixture()
    def live_gateway(self, fitted_cpd, twitter_tiny):
        from repro.gateway import GatewayServer, GatewayThread
        from repro.serving import ProfileStore

        graph, _truth = twitter_tiny
        store = ProfileStore.from_fit(fitted_cpd, graph)
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            yield gateway, handle

    def test_serve_parser_accepts_the_full_flag_set(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args([
            "serve", "--model", "m.cpd.npz", "--port", "9000",
            "--max-in-flight", "4", "--max-queue", "0",
            "--default-deadline-ms", "250", "--best-effort",
            "--breaker-half-open-probes", "2", "--stale-max-age", "60",
        ])
        assert args.command == "serve"
        assert args.max_in_flight == 4 and args.max_queue == 0
        assert args.default_deadline_ms == 250
        assert args.best_effort is True

    def test_doctor_probes_a_live_gateway(self, live_gateway, capsys):
        _gateway, handle = live_gateway
        assert main(["doctor", "--url", handle.base_url]) == 0
        out = capsys.readouterr().out
        assert "/health: ok (store backend)" in out
        assert "/ready: ready" in out
        assert "/metrics:" in out
        assert "doctor: all checks passed" in out

    def test_doctor_url_json_report(self, live_gateway, capsys):
        import json as _json

        _gateway, handle = live_gateway
        assert main(["doctor", "--url", handle.base_url, "--json"]) == 0
        report = _json.loads(capsys.readouterr().out)
        gateway_check = report["checks"]["gateway"]
        assert gateway_check["reachable"] is True
        assert gateway_check["ready"] is True
        assert gateway_check["metrics"]["ok"] is True
        assert gateway_check["degraded_shards"] == []

    def test_doctor_fails_when_the_gateway_is_draining(
        self, live_gateway, capsys
    ):
        gateway, handle = live_gateway
        handle.submit(gateway.drain()).result(timeout=10)
        # the listener is closed after drain: the probe sees UNREACHABLE
        assert main(["doctor", "--url", handle.base_url]) == 1
        assert "doctor: PROBLEMS FOUND" in capsys.readouterr().out

    def test_doctor_unreachable_url_fails(self, capsys):
        assert main(["doctor", "--url", "http://127.0.0.1:9"]) == 1
        out = capsys.readouterr().out
        assert "UNREACHABLE" in out
        assert "doctor: PROBLEMS FOUND" in out

    def test_doctor_still_demands_something_to_examine(self, capsys):
        assert main(["doctor"]) == 1
        assert "--url" in capsys.readouterr().out


class TestSloCommand:
    @pytest.fixture()
    def live_gateway(self, fitted_cpd, twitter_tiny):
        from repro.gateway import GatewayServer, GatewayThread
        from repro.serving import ProfileStore

        graph, _truth = twitter_tiny
        store = ProfileStore.from_fit(fitted_cpd, graph)
        gateway = GatewayServer(store, port=0)
        with GatewayThread(gateway) as handle:
            yield gateway, handle

    def test_no_traffic_yet(self, live_gateway, capsys):
        _gateway, handle = live_gateway
        assert main(["slo", "--url", handle.base_url]) == 0
        out = capsys.readouterr().out
        assert "objectives: availability 0.999" in out
        assert "no traffic recorded yet" in out

    def test_burn_table_after_traffic(self, live_gateway, capsys):
        from repro.serving import ProfileStore  # noqa: F401 — fixture dep

        gateway, handle = live_gateway
        term = next(iter(gateway.backend.query_index()))
        for _ in range(3):
            status, _h, _b = handle.get(f"/rank?q={term}")
            assert status == 200
        assert main(["slo", "--url", handle.base_url]) == 0
        out = capsys.readouterr().out
        assert "/rank" in out
        assert "availability" in out and "latency" in out
        assert "burn@" in out

    def test_json_dump(self, live_gateway, capsys):
        import json as _json

        _gateway, handle = live_gateway
        assert main(["slo", "--url", handle.base_url, "--json"]) == 0
        payload = _json.loads(capsys.readouterr().out)
        assert "objectives" in payload and "worst_burn" in payload

    def test_unreachable_gateway_fails(self, capsys):
        assert main(["slo", "--url", "http://127.0.0.1:9"]) == 1
        assert "error: cannot read" in capsys.readouterr().out

    def test_doctor_url_includes_the_slo_probe(self, live_gateway, capsys):
        _gateway, handle = live_gateway
        assert main(["doctor", "--url", handle.base_url]) == 0
        assert "/slo:" in capsys.readouterr().out


class TestTraceUrl:
    def test_live_trace_renders_one_connected_tree(
        self, fitted_cpd, twitter_tiny, capsys
    ):
        from repro import obs
        from repro.gateway import GatewayServer, GatewayThread, TRACE_HEADER
        from repro.serving import ProfileStore

        graph, _truth = twitter_tiny
        store = ProfileStore.from_fit(fitted_cpd, graph)
        obs.enable_telemetry()
        try:
            gateway = GatewayServer(store, port=0)
            trace_id = "deadbeefdeadbeef"
            with GatewayThread(gateway) as handle:
                term = next(iter(store.query_index()))
                status, headers, _b = handle.get(
                    f"/rank?q={term}", headers={TRACE_HEADER: trace_id}
                )
                assert status == 200
                assert headers[TRACE_HEADER] == trace_id
                assert main([
                    "trace", "--url", handle.base_url,
                    "--trace-id", trace_id,
                ]) == 0
        finally:
            obs.disable_telemetry()
        out = capsys.readouterr().out
        assert f"trace {trace_id}:" in out
        assert "gateway.request" in out
        assert "gateway.backend" in out
        assert "1 trace tree(s)" in out

    def test_telemetry_and_url_are_mutually_exclusive(self, capsys):
        assert main([
            "trace", "--telemetry", "x.json", "--url", "http://h",
        ]) == 1
        assert "exactly one of" in capsys.readouterr().out

    def test_neither_source_is_an_error(self, capsys):
        assert main(["trace"]) == 1
        assert "exactly one of" in capsys.readouterr().out

    def test_unreachable_url_fails(self, capsys):
        assert main(["trace", "--url", "http://127.0.0.1:9"]) == 1
        assert "error: cannot read" in capsys.readouterr().out


class TestBenchDiffCommand:
    def _write(self, path, payload):
        import json as _json

        path.write_text(_json.dumps(payload), encoding="utf-8")

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write(old, {"p99": 0.100, "rank_per_second": 1000.0})
        self._write(new, {"p99": 0.101, "rank_per_second": 1010.0})
        assert main(["bench-diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "2 shared metric(s)" in out
        assert "0 regression(s)" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write(old, {"p99": 0.100})
        self._write(new, {"p99": 0.200})
        assert main(["bench-diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out and "p99" in out

    def test_threshold_flag_loosens_the_gate(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write(old, {"p99": 0.100})
        self._write(new, {"p99": 0.200})
        assert main([
            "bench-diff", str(old), str(new), "--threshold", "1.5",
        ]) == 0

    def test_json_report(self, tmp_path, capsys):
        import json as _json

        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write(old, {"p99": 0.1})
        self._write(new, {"p99": 0.1})
        assert main(["bench-diff", str(old), str(new), "--json"]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["compared"] == 1
        assert report["regressions"] == []

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        present = tmp_path / "ok.json"
        self._write(present, {})
        assert main([
            "bench-diff", str(tmp_path / "absent.json"), str(present),
        ]) == 2
        assert "error" in capsys.readouterr().out


class TestProfileFlag:
    def test_fit_profile_writes_folded_stacks(self, workspace, capsys, tmp_path):
        _root, graph_path, _model = workspace
        model_path = tmp_path / "profiled.cpd.npz"
        folded_path = tmp_path / "fit.folded"
        assert main([
            "fit", "--graph", str(graph_path), "--communities", "4",
            "--topics", "8", "--iterations", "6", "--seed", "0",
            "--out", str(model_path), "--profile", str(folded_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "folded stack(s)" in out and str(folded_path) in out
        lines = folded_path.read_text(encoding="utf-8").splitlines()
        assert lines, "a 6-iteration fit must be sampled at least once"
        stack, count = lines[0].rsplit(" ", 1)
        assert int(count) > 0 and ";" in stack

    def test_serve_parser_accepts_the_observability_flags(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args([
            "serve", "--model", "m.cpd.npz",
            "--access-log", "/tmp/a.jsonl", "--access-log-capacity", "512",
            "--tail-quantile", "0.95", "--slo-availability-target", "0.99",
            "--slo-latency-target", "0.95", "--slo-latency-ms", "100",
            "--profile", "/tmp/serve.folded",
        ])
        assert args.access_log == "/tmp/a.jsonl"
        assert args.access_log_capacity == 512
        assert args.tail_quantile == 0.95
        assert args.slo_availability_target == 0.99
        assert args.slo_latency_ms == 100.0
        assert args.profile == "/tmp/serve.folded"
