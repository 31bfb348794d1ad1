"""Crash-recovery tests: snapshot generations, WAL replay, the e2e pin.

The ISSUE 6 acceptance bar lives here: ingest a stream durably (WAL +
snapshot generations), kill the process mid-micro-batch with an injected
fault, ``recover()``, and show the recovered store's top-k answers agree
with an identically-seeded uninterrupted run on >=95% of indexed queries
— with zero acknowledged events lost.
"""

import pytest

from repro.core import CPDModel
from repro.resilience import (
    FaultPlan,
    InjectedFault,
    RecoveryError,
    SnapshotCatalog,
    WriteAheadLog,
    inject,
    recover,
    scan_wal,
)
from repro.serving import GraphSummary, ProfileStore
from repro.stream import (
    DocumentArrival,
    IncrementalRefresher,
    MicroBatchIngestor,
    Snapshotter,
    split_for_replay,
)

BATCH = 32
REFRESH_EVERY = 64


def _pipeline(plan, base_fit, *, wal=None, catalog=None):
    """One streaming pipeline over the plan, identically seeded each call."""
    store = ProfileStore.from_fit(base_fit, plan.base_graph)
    refresher = IncrementalRefresher(
        plan.base_graph, base_fit, rng=5, n_sweeps=3
    )
    snapshotter = Snapshotter(
        refresher,
        vocabulary=plan.base_graph.vocabulary,
        base_summary=GraphSummary.from_graph(plan.base_graph),
    )
    on_refresh = None
    if catalog is not None:
        on_refresh = lambda _report: catalog.save(snapshotter)  # noqa: E731
    ingestor = MicroBatchIngestor(
        store,
        refresher,
        batch_size=BATCH,
        refresh_interval=REFRESH_EVERY,
        rng=7,
        wal=wal,
        on_refresh=on_refresh,
    )
    return store, refresher, snapshotter, ingestor


@pytest.fixture(scope="module")
def crash_run(separated_tiny, parity_config, tmp_path_factory):
    """The killed run, its recovery, and the uninterrupted twin."""
    graph, _truth = separated_tiny
    plan = split_for_replay(graph, warm_fraction=0.5)
    base_fit = CPDModel(parity_config, rng=1).fit(plan.base_graph)

    # the uninterrupted twin: same seeds, no faults, runs to completion
    healthy_store, _, healthy_snap, healthy_ingestor = _pipeline(plan, base_fit)
    healthy_ingestor.submit_many(plan.events)
    healthy_ingestor.refresh()
    healthy_snap.hot_swap(healthy_store)

    # the durable run, killed mid-micro-batch on its final flush
    durable = tmp_path_factory.mktemp("durable")
    wal_path = durable / "events.wal"
    catalog = SnapshotCatalog(durable / "snaps")
    # kill the first post-refresh flush whose batch carries documents, so
    # a snapshot generation exists and the recovery tail exercises both
    # the fold-in path (documents) and the surfaced-links path
    flushes_per_refresh = REFRESH_EVERY // BATCH
    kill_flush = None
    for flush in range(flushes_per_refresh + 1, len(plan.events) // BATCH + 1):
        batch = plan.events[(flush - 1) * BATCH : flush * BATCH]
        follows_refresh = (flush - 1) % flushes_per_refresh == 0
        if follows_refresh and any(
            isinstance(event, DocumentArrival) for event in batch
        ):
            kill_flush = flush
            break
    assert kill_flush is not None
    faults = FaultPlan(seed=0)
    faults.fail_at("ingest.apply", at=kill_flush)
    wal = WriteAheadLog(wal_path)
    store, _, _, ingestor = _pipeline(plan, base_fit, wal=wal, catalog=catalog)
    with inject(faults), pytest.raises(InjectedFault):
        ingestor.submit_many(plan.events)
    wal.close()  # the "crash": no refresh, no snapshot, no clean shutdown

    report = recover(durable / "snaps", wal_path=wal_path, rng=11)
    return {
        "plan": plan,
        "wal_path": wal_path,
        "catalog": catalog,
        "killed_ingestor": ingestor,
        "healthy_store": healthy_store,
        "report": report,
    }


class TestCrashRecoveryEndToEnd:
    def test_the_kill_actually_interrupted_the_stream(self, crash_run):
        ingestor, plan = crash_run["killed_ingestor"], crash_run["plan"]
        assert ingestor.stats()["events"] < len(plan.events)

    def test_no_acknowledged_event_is_lost(self, crash_run):
        """Every event the WAL acknowledged is either in the snapshot's
        cursor or replayed from the tail."""
        report = crash_run["report"]
        status = scan_wal(crash_run["wal_path"])
        assert not status.missing
        assert report.cursor.events_ingested + report.events_replayed == (
            status.n_events
        )
        assert report.events_replayed == len(report.tail_events)

    def test_recovered_from_a_real_generation(self, crash_run):
        report = crash_run["report"]
        assert report.generation >= 1
        assert report.skipped_generations == []
        assert report.documents_replayed > 0 or report.links_replayed > 0

    def test_top_k_agreement_at_least_95_percent(self, crash_run):
        """The e2e pin: recovered answers vs the uninterrupted twin."""
        healthy = crash_run["healthy_store"]
        recovered = crash_run["report"].store
        terms = [query.term for query in healthy.indexed_queries()]
        assert len(terms) >= 50  # a real workload, not a handful
        agreements = sum(
            int(recovered.top_k(term, 1)[0] in healthy.top_k(term, 2))
            for term in terms
        )
        agreement = agreements / len(terms)
        assert agreement >= 0.95, (
            f"recovered vs uninterrupted top-k agreement {agreement:.1%} < 95%"
        )

    def test_recovered_store_folds_in_every_tail_document(self, crash_run):
        report = crash_run["report"]
        assert report.foldin is not None
        assert len(report.foldin) == report.documents_replayed
        assert (report.foldin.communities >= 0).all()

    def test_report_timing_and_paths_are_filled(self, crash_run):
        report = crash_run["report"]
        assert report.seconds > 0
        assert report.snapshot_path.endswith(".cpd.npz")
        assert report.wal_status is not None and not report.wal_status.torn


class TestSnapshotCatalog:
    def _fake_snapshotter(self, payload=b"x"):
        class _Snap:
            def save(self, path):
                path.write_bytes(payload)

        return _Snap()

    def test_generations_are_numbered_and_ordered(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path)
        for _ in range(3):
            catalog.save(self._fake_snapshotter())
        assert [gen for gen, _p in catalog.generations()] == [1, 2, 3]
        assert catalog.next_generation() == 4

    def test_retention_prunes_the_oldest(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path, retain=2)
        for _ in range(5):
            catalog.save(self._fake_snapshotter())
        assert [gen for gen, _p in catalog.generations()] == [4, 5]

    def test_foreign_files_are_ignored(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path)
        catalog.save(self._fake_snapshotter())
        (tmp_path / "snapshot-junk.cpd.npz").write_bytes(b"?")
        assert [gen for gen, _p in catalog.generations()] == [1]

    def test_retain_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="retain"):
            SnapshotCatalog(tmp_path, retain=0)

    def test_newest_valid_skips_damage_with_a_record(
        self, crash_run, tmp_path
    ):
        # copy the crash run's generations, then damage the newest
        import shutil

        source = crash_run["catalog"]
        catalog = SnapshotCatalog(tmp_path)
        for _gen, path in source.generations():
            shutil.copy(path, tmp_path / path.name)
        generations = catalog.generations()
        newest_path = generations[-1][1]
        newest_path.write_bytes(newest_path.read_bytes()[:100])
        chosen, skipped = catalog.newest_valid()
        if len(generations) > 1:
            assert chosen is not None
            assert chosen[0] == generations[-2][0]
        else:
            assert chosen is None
        assert [gen for gen, _p, _e in skipped] == [generations[-1][0]]

    def test_recover_raises_with_detail_when_nothing_is_valid(self, tmp_path):
        (tmp_path / "snapshot-000001.cpd.npz").write_bytes(b"garbage")
        with pytest.raises(RecoveryError, match="snapshot-000001"):
            recover(tmp_path)
        with pytest.raises(RecoveryError, match="no generations found"):
            recover(tmp_path / "empty")


class TestRecoverVariants:
    def test_recover_without_wal_is_snapshot_only(self, crash_run):
        report = recover(crash_run["catalog"].directory)
        assert report.wal_status is None
        assert report.tail_events == []
        assert report.store.rank(
            report.store.indexed_queries(1)[0].term
        )

    def test_recovered_ranks_match_the_snapshot_artifact(self, crash_run):
        """Rank answers derive from the model arrays, so recovery must not
        perturb what the snapshot itself would serve."""
        from repro.core import load_artifact

        report = crash_run["report"]
        frozen = ProfileStore.from_artifact_bundle(
            load_artifact(report.snapshot_path)
        )
        for query in frozen.indexed_queries(5):
            assert report.store.rank(query.term) == frozen.rank(query.term)
