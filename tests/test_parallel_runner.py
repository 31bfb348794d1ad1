"""Tests for the zero-copy process-parallel E-step runner."""

import time

import numpy as np
import pytest

from repro.core import CPDConfig, CPDModel, DiffusionParameters, FitOptions
from repro.core.gibbs import CPDSampler
from repro.datasets import twitter_scenario
from repro.evaluation import normalized_mutual_information
from repro.parallel import ParallelEStepRunner, SerialSweeper
from repro.parallel import runner as runner_module
from repro.parallel.scheduler import WorkloadModel


@pytest.fixture(scope="module")
def runner_setup(twitter_tiny):
    graph, _ = twitter_tiny
    config = CPDConfig(n_communities=4, n_topics=8, n_iterations=4, rho=0.5, alpha=0.5)
    return graph, config


class TestSerialSweeper:
    def test_records_stats(self, runner_setup):
        graph, config = runner_setup
        sweeper = SerialSweeper()
        CPDModel(config, rng=0).fit(graph, FitOptions(document_sweeper=sweeper))
        assert sweeper.stats.iterations == config.n_iterations
        assert sweeper.stats.worker_seconds[0] > 0


class TestParallelRunner:
    def test_parallel_fit_produces_valid_result(self, runner_setup):
        graph, config = runner_setup
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            result = CPDModel(config, rng=0).fit(
                graph, FitOptions(document_sweeper=runner)
            )
        np.testing.assert_allclose(result.pi.sum(axis=1), 1.0, rtol=1e-9)
        assert result.eta.sum() == pytest.approx(1.0)
        assert runner.stats.iterations == config.n_iterations
        assert runner.stats.worker_seconds.sum() > 0

    def test_parallel_matches_serial_quality(self, twitter_tiny):
        """AD-LDA-style merging should not destroy community recovery."""
        graph, truth = twitter_tiny
        config = CPDConfig(n_communities=4, n_topics=8, n_iterations=12, rho=0.5, alpha=0.5)
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            result = CPDModel(config, rng=0).fit(
                graph, FitOptions(document_sweeper=runner)
            )
        nmi = normalized_mutual_information(
            result.hard_community_per_user(), truth.primary_community
        )
        assert nmi > 0.2

    def test_workers_cover_all_documents(self, runner_setup):
        graph, config = runner_setup
        with ParallelEStepRunner(graph, config, n_workers=3, rng=0) as runner:
            docs = np.sort(
                np.concatenate(
                    [runner.schedule.worker_doc_ids(w) for w in range(3)]
                )
            )
            np.testing.assert_array_equal(docs, np.arange(graph.n_documents))

    def test_closed_runner_rejected(self, runner_setup):
        graph, config = runner_setup
        runner = ParallelEStepRunner(graph, config, n_workers=1, rng=0)
        runner.close()
        with pytest.raises(RuntimeError):
            runner(None)

    def test_invalid_worker_count(self, runner_setup):
        graph, config = runner_setup
        with pytest.raises(ValueError):
            ParallelEStepRunner(graph, config, n_workers=0)

    def test_sweep_kernel_override(self, runner_setup):
        graph, config = runner_setup
        with ParallelEStepRunner(
            graph, config, n_workers=1, rng=0, sweep_kernel="reference"
        ) as runner:
            assert runner.config.sweep_kernel == "reference"
            result = CPDModel(runner.config, rng=0).fit(
                graph, FitOptions(document_sweeper=runner)
            )
        np.testing.assert_allclose(result.pi.sum(axis=1), 1.0, rtol=1e-9)

    def test_delta_headers_stay_tiny(self, runner_setup):
        """Per-sweep coordinator->worker IPC is headers, not state."""
        graph, config = runner_setup
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            CPDModel(config, rng=0).fit(graph, FitOptions(document_sweeper=runner))
            per_sweep = runner.stats.payload_bytes_per_sweep()
        assert 0 < per_sweep < 1024  # two ~65-byte pickled headers

    def test_unfused_runner_leaves_augmentation_to_model(self, runner_setup):
        graph, config = runner_setup
        with ParallelEStepRunner(
            graph, config, n_workers=2, rng=0, fuse_augmentation=False
        ) as runner:
            assert not runner.fused_augmentation
            result = CPDModel(config, rng=0).fit(
                graph, FitOptions(document_sweeper=runner)
            )
        np.testing.assert_allclose(result.pi.sum(axis=1), 1.0, rtol=1e-9)
        assert runner.aggregated_eta() is None

    def test_fused_runner_updates_augmentation(self, runner_setup):
        graph, config = runner_setup
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        lambdas_before = sampler.lambdas.copy()
        deltas_before = sampler.deltas.copy()
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            runner(sampler)
            eta = runner.aggregated_eta()
        assert not np.array_equal(sampler.lambdas, lambdas_before)
        assert not np.array_equal(sampler.deltas, deltas_before)
        assert eta is not None
        assert eta.sum() == pytest.approx(1.0)
        assert np.all(eta > 0)  # smoothing keeps every cell alive
        # the workers' partial counts cover every diffusion link exactly once
        raw = eta * (graph.n_diffusion_links + eta.size * config.eta_smoothing)
        assert raw.sum() == pytest.approx(
            graph.n_diffusion_links + eta.size * config.eta_smoothing
        )

    def test_full_sweep_covers_appended_documents(self, runner_setup, rng):
        """doc_ids=None resamples stream-appended overflow docs too."""
        graph, config = runner_setup
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        words = [np.asarray(graph.documents[0].words, dtype=np.int64)] * 3
        new_ids = sampler.append_documents(
            words,
            users=np.array([0, 1, 2]),
            timestamps=np.array([0, 0, 0]),
            communities=np.array([0, 0, 0]),
            topics=np.array([0, 0, 0]),
        )
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            topics_moved = False
            for sweep_seed in range(5):
                runner(sampler)
                state = sampler.state
                topics_moved = topics_moved or bool(
                    np.any(state.doc_topic[new_ids] != 0)
                    or np.any(state.doc_community[new_ids] != 0)
                )
            sampler.state.check_consistency()
        assert topics_moved  # overflow docs were actually resampled

    def test_readoption_hands_first_sampler_back(self, runner_setup):
        """Adopting a second sampler must privatise the first one's arrays."""
        graph, config = runner_setup
        first = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        second = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=2)
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            runner(first)
            snapshot = first.state.doc_community.copy()
            runner(second)
            # first's arrays no longer alias the plane: second's sweep must
            # not have bled into them
            np.testing.assert_array_equal(first.state.doc_community, snapshot)
            first.state.check_consistency()
        first.state.check_consistency()  # and both survive the unmap
        second.state.check_consistency()

    def test_per_call_fuse_override(self, runner_setup):
        graph, config = runner_setup
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            lambdas_before = sampler.lambdas.copy()
            runner(sampler, fuse=False)  # sweep only: no link draws
            np.testing.assert_array_equal(sampler.lambdas, lambdas_before)
            assert runner.aggregated_eta() is None
            runner(sampler, fuse=True)
            assert not np.array_equal(sampler.lambdas, lambdas_before)
            assert runner.aggregated_eta() is not None

    def test_subset_sweep_touches_only_subset(self, runner_setup):
        graph, config = runner_setup
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        subset = np.arange(0, graph.n_documents, 3)
        others = np.setdiff1d(np.arange(graph.n_documents), subset)
        before_c = sampler.state.doc_community.copy()
        before_t = sampler.state.doc_topic.copy()
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            runner(sampler, doc_ids=subset)
        np.testing.assert_array_equal(
            sampler.state.doc_community[others], before_c[others]
        )
        np.testing.assert_array_equal(sampler.state.doc_topic[others], before_t[others])
        sampler.state.check_consistency()


class TestFusedDrawIsolation:
    """A worker that starts its sweep late must read the published PG draws.

    Workers refresh ``lambdas``/``deltas`` from the plane at the start of a
    sweep, and the fused draws of a sibling that finished first must not
    have landed there yet. At tiny scale the race resolves the same way
    every run, so only a forced delay shows it: delaying either worker must
    give the same sweep.
    """

    @staticmethod
    def _sweep_with_late_worker(monkeypatch, runner_setup, late: int):
        graph, config = runner_setup
        worker_main = runner_module._worker_main
        refresh = runner_module._refresh_from_plane

        def late_refresh(*args):
            time.sleep(0.3)
            refresh(*args)

        def patched_main(conn, spec, config, worker, *rest):
            if worker == late:
                # the worker is a fork: this rebinding stays in its process
                runner_module._refresh_from_plane = late_refresh
            worker_main(conn, spec, config, worker, *rest)

        # a timed workload model would let the document split vary run to run
        fixed = WorkloadModel(1e-4, 1e-6, 1e-6)
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        with monkeypatch.context() as patch:
            patch.setattr(
                runner_module, "measure_workload_model", lambda _sampler: fixed
            )
            patch.setattr(runner_module, "_worker_main", patched_main)
            with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
                for _ in range(2):
                    runner(sampler)
        state = sampler.state
        return (
            state.doc_community.copy(),
            state.doc_topic.copy(),
            sampler.lambdas.copy(),
            sampler.deltas.copy(),
        )

    def test_sweep_does_not_depend_on_which_worker_starts_late(
        self, monkeypatch, runner_setup
    ):
        first_late = self._sweep_with_late_worker(monkeypatch, runner_setup, 0)
        second_late = self._sweep_with_late_worker(monkeypatch, runner_setup, 1)
        for one, other in zip(first_late, second_late):
            np.testing.assert_array_equal(one, other)


class TestSerialParallelParity:
    """ISSUE 4 acceptance: parallel and serial fits stay interchangeable.

    Both branches continue the *same* converged chain (warm-started from one
    offline fit on a crisply-planted scenario), one through plain sweeps and
    one through the shared-memory runner; their document assignments must
    agree to NMI >= 0.8 at 2 and 4 workers (observed ~0.9, see DESIGN.md §7
    for why stale reads keep the chains statistically interchangeable).
    """

    @pytest.fixture(scope="class")
    def converged_base(self):
        graph, _ = twitter_scenario(
            "tiny",
            rng=42,
            pi_concentration=0.02,
            pi_primary_boost=12.0,
            community_topic_boost=20.0,
            conforming_fraction=0.95,
            docs_per_user_mean=6.0,
        )
        config = CPDConfig(
            n_communities=4, n_topics=8, n_iterations=25, rho=0.5, alpha=0.5
        )
        base = CPDModel(config, rng=0).fit(graph)
        serial = CPDSampler.warm_start(graph, base, rng=101)
        for _ in range(2):
            serial.sweep_documents()
            serial.sample_lambdas()
            serial.sample_deltas()
        return graph, config, base, serial.state.doc_community.copy()

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_doc_assignment_nmi(self, converged_base, n_workers):
        graph, config, base, serial_communities = converged_base
        with ParallelEStepRunner(graph, config, n_workers=n_workers, rng=202) as runner:
            parallel = CPDSampler.warm_start(graph, base, rng=303)
            for _ in range(2):
                runner(parallel)
        nmi = normalized_mutual_information(
            parallel.state.doc_community, serial_communities
        )
        assert nmi >= 0.8
