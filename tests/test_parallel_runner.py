"""Tests for the thread-parallel E-step runner."""

import copy
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import CPDConfig, CPDModel, DiffusionParameters, FitOptions
from repro.core import _compiled
from repro.core.gibbs import CPDSampler
from repro.core.state import CPDState
from repro.datasets import twitter_scenario
from repro.evaluation import normalized_mutual_information
from repro.parallel import ParallelEStepRunner
from repro.parallel import runner as runner_module
from repro.parallel.scheduler import WorkloadModel


@pytest.fixture(scope="module")
def runner_setup(twitter_tiny):
    graph, _ = twitter_tiny
    config = CPDConfig(n_communities=4, n_topics=8, n_iterations=4, rho=0.5, alpha=0.5)
    return graph, config


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

    def test_helpers_run_the_config_kernel(self, runner_setup):
        graph, config = runner_setup
        config = config.with_overrides(sweep_kernel="reference")
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            assert runner.worker_sweep_kernel == "reference"
            result = CPDModel(runner.config, rng=0).fit(
                graph, FitOptions(document_sweeper=runner)
            )
        np.testing.assert_allclose(result.pi.sum(axis=1), 1.0, rtol=1e-9)

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

    def test_two_samplers_take_turns_without_bleeding(self, runner_setup):
        """The helpers are refreshed from whichever sampler calls."""
        graph, config = runner_setup
        first = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        second = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=2)
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            runner(first)
            snapshot = first.state.doc_community.copy()
            runner(second)
            # second's sweep must not have bled into first's arrays
            np.testing.assert_array_equal(first.state.doc_community, snapshot)
            first.state.check_consistency()
        first.state.check_consistency()
        second.state.check_consistency()

    def test_sampler_survives_runner_close(self, runner_setup):
        graph, config = runner_setup
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            runner(sampler)
        sampler.state.check_consistency()
        sampler.sweep_documents(np.arange(10))
        sampler.state.check_consistency()

    def test_close_stops_the_helper_threads(self, monkeypatch, runner_setup):
        graph, config = runner_setup
        # both helper tasks meet at a barrier, so the pool cannot hand the
        # second task to a thread the first one has already left idle
        helper_sweep = runner_module.ParallelEStepRunner._helper_sweep
        both_running = threading.Barrier(2, timeout=30)

        def meeting(self, *args):
            both_running.wait()
            return helper_sweep(self, *args)

        monkeypatch.setattr(runner_module.ParallelEStepRunner, "_helper_sweep", meeting)

        def helper_threads():
            return {t for t in threading.enumerate() if t.name.startswith("repro-estep")}

        before = helper_threads()
        runner = ParallelEStepRunner(graph, config, n_workers=3, rng=0)
        runner(CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1))
        assert len(helper_threads() - before) == 2
        runner.close()
        runner.close()  # idempotent
        assert helper_threads() == before

    def test_exit_under_exception_closes(self, runner_setup):
        graph, config = runner_setup
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        with pytest.raises(KeyError):
            with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
                runner(sampler)
                raise KeyError("mid-fit failure")
        with pytest.raises(RuntimeError, match="closed"):
            runner(sampler)

    @pytest.mark.parametrize("bad_id", [-1, "n_docs"])
    def test_out_of_range_ids_rejected_before_any_sweep(self, runner_setup, bad_id):
        graph, config = runner_setup
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        bad_id = graph.n_documents if bad_id == "n_docs" else bad_id
        before = sampler.state.doc_community.copy(), sampler.state.doc_topic.copy()
        with ParallelEStepRunner(graph, config, n_workers=2, rng=0) as runner:
            with pytest.raises(ValueError, match="sweep document ids out of range"):
                runner(sampler, np.array([bad_id, 3]))
            assert runner.stats.iterations == 0
        np.testing.assert_array_equal(sampler.state.doc_community, before[0])
        np.testing.assert_array_equal(sampler.state.doc_topic, before[1])

    def test_helper_exception_propagates(self, runner_setup):
        graph, config = runner_setup
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        caller_rng = sampler.rng
        with ParallelEStepRunner(graph, config, n_workers=3, rng=0) as runner:
            kernel = runner._helpers[1].kernel

            def broken_sweep(doc_ids=None):
                raise RuntimeError("helper sweep failed")

            kernel.sweep = broken_sweep
            with pytest.raises(RuntimeError, match="helper sweep failed"):
                runner(sampler)
            assert sampler.rng is caller_rng
            sampler.state.check_consistency()
            del kernel.sweep  # the runner stays usable
            runner(sampler)
            sampler.state.check_consistency()

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


class TestCompiledMerge:
    @pytest.mark.skipif(
        not _compiled.backend_status()[0], reason="no C toolchain on this host"
    )
    def test_compiled_sweep_merges_without_reassign_many(self, monkeypatch, runner_setup):
        """The merge of a compiled 2-worker sweep is one C call: the numpy
        merge ``CPDState.reassign_many`` is never reached."""
        graph, config = runner_setup

        def refuse(*_args, **_kwargs):
            raise AssertionError("CPDState.reassign_many called")

        monkeypatch.setattr(CPDState, "reassign_many", refuse)
        for kernel, merges_in_c in (("reference", False), ("compiled", True)):
            kernel_config = config.with_overrides(sweep_kernel=kernel)
            sampler = CPDSampler(
                graph, kernel_config, DiffusionParameters.initial(4, 8), rng=1
            )
            with ParallelEStepRunner(graph, kernel_config, n_workers=2, rng=0) as runner:
                if merges_in_c:
                    for _ in range(2):
                        runner(sampler)
                    sampler.state.check_consistency()
                else:  # the monkeypatch is live: the reference merge trips it
                    with pytest.raises(AssertionError, match="reassign_many"):
                        runner(sampler)


def _fixed_workload(monkeypatch):
    """A timed workload model would let the document split vary run to run."""
    fixed = WorkloadModel(1e-4, 1e-6, 1e-6)
    monkeypatch.setattr(runner_module, "measure_workload_model", lambda _sampler: fixed)


def _draw_pg(sampler, start, stop, draw):
    return draw(start, stop) if stop > start else None


class TestThreadRunnerSpec:
    """The runner equals its specification draw for draw.

    The specification: every partition is swept on an independent copy of
    the state as it stood when the sweep began, each with its own seed from
    the runner's generator; each copy then draws its own link ranges and
    counts its eta partial; the assignments and draws are merged in worker
    order.
    """

    @staticmethod
    def _reference_sweep(graph, config, runner, sampler, seeds):
        snapshot = sampler.export_snapshot()
        expected = CPDSampler(
            graph, config, sampler.params.copy(), rng=0, initialize_assignments=False
        )
        expected.load_snapshot(snapshot)
        lambdas, deltas, eta_counts = [], [], []
        for worker, seed in enumerate(seeds):
            replica = CPDSampler(
                graph, config, sampler.params.copy(), initialize_assignments=False
            )
            replica.load_snapshot(snapshot)
            replica.rng = np.random.default_rng(seed)
            ids = np.sort(runner.schedule.worker_doc_ids(worker))
            replica.sweep_documents(ids)
            f_start, f_stop = runner._f_ranges[worker]
            e_start, e_stop = runner._e_ranges[worker]
            lambdas.append(_draw_pg(replica, f_start, f_stop, replica.draw_lambda_range))
            deltas.append(_draw_pg(replica, e_start, e_stop, replica.draw_delta_range))
            eta_counts.append(replica.eta_counts_range(e_start, e_stop))
            expected.apply_assignments(
                ids, replica.state.doc_community[ids], replica.state.doc_topic[ids]
            )
        counts = sum(eta_counts) + config.eta_smoothing
        return (
            expected.state.doc_community,
            expected.state.doc_topic,
            np.concatenate([draws for draws in lambdas if draws is not None]),
            np.concatenate([draws for draws in deltas if draws is not None]),
            counts / counts.sum(),
        )

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_runner_equals_the_partitioned_reference(
        self, monkeypatch, runner_setup, n_workers
    ):
        graph, config = runner_setup
        _fixed_workload(monkeypatch)
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        with ParallelEStepRunner(graph, config, n_workers=n_workers, rng=0) as runner:
            for _ in range(2):
                seed_rng = copy.deepcopy(runner.rng)
                seeds = [int(seed_rng.integers(0, 2**63 - 1)) for _ in range(n_workers)]
                expected = self._reference_sweep(graph, config, runner, sampler, seeds)
                runner(sampler)
                actual = (
                    sampler.state.doc_community,
                    sampler.state.doc_topic,
                    sampler.lambdas,
                    sampler.deltas,
                    runner.aggregated_eta(),
                )
                for got, want in zip(actual, expected):
                    np.testing.assert_array_equal(got, want)
                sampler.state.check_consistency()


class TestFusedDrawIsolation:
    """A sweep does not depend on thread timing.

    Helpers sweep private samplers refreshed before any thread starts and
    hand their results back through futures, so holding a helper back at
    the start or at the end of its sweep must give the same sweep.
    """

    @staticmethod
    def _sweep_with_delay(monkeypatch, runner_setup, late_worker=None, at="start"):
        graph, config = runner_setup
        _fixed_workload(monkeypatch)
        helper_sweep = runner_module.ParallelEStepRunner._helper_sweep

        def delayed(self, worker, *args):
            if worker == late_worker and at == "start":
                time.sleep(0.2)
            partition = helper_sweep(self, worker, *args)
            if worker == late_worker and at == "finish":
                time.sleep(0.2)
            return partition

        monkeypatch.setattr(runner_module.ParallelEStepRunner, "_helper_sweep", delayed)
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
        with ParallelEStepRunner(graph, config, n_workers=3, rng=0) as runner:
            for _ in range(2):
                runner(sampler)
            eta = runner.aggregated_eta()
        state = sampler.state
        return (
            state.doc_community.copy(),
            state.doc_topic.copy(),
            sampler.lambdas.copy(),
            sampler.deltas.copy(),
            eta,
        )

    def test_sweep_does_not_depend_on_which_worker_starts(self, monkeypatch, runner_setup):
        undelayed = self._sweep_with_delay(monkeypatch, runner_setup)
        for late in (1, 2):
            delayed = self._sweep_with_delay(monkeypatch, runner_setup, late, "start")
            for one, other in zip(undelayed, delayed):
                np.testing.assert_array_equal(one, other)

    def test_sweep_does_not_depend_on_which_worker_finishes(self, monkeypatch, runner_setup):
        undelayed = self._sweep_with_delay(monkeypatch, runner_setup)
        for late in (1, 2):
            delayed = self._sweep_with_delay(monkeypatch, runner_setup, late, "finish")
            for one, other in zip(undelayed, delayed):
                np.testing.assert_array_equal(one, other)


class TestThreadStress:
    def test_more_workers_than_cores_under_a_short_switch_interval(
        self, monkeypatch, runner_setup
    ):
        """Frequent thread switches change neither the draws nor the counts.

        Four workers share one metrics registry; a lost counter update
        would show in the sweep count.
        """
        graph, config = runner_setup
        _fixed_workload(monkeypatch)

        def run(n_sweeps=3):
            sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=1)
            registry = obs.enable()
            try:
                with ParallelEStepRunner(graph, config, n_workers=4, rng=0) as runner:
                    for _ in range(n_sweeps):
                        runner(sampler)
                sweeps = sum(
                    c["value"] for c in registry.snapshot()["counters"]
                    if c["name"] == "repro_sweeps_total"
                )
            finally:
                obs.disable()
            sampler.state.check_consistency()
            return sampler.state.doc_community.copy(), sampler.lambdas.copy(), sweeps

        calm = run()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = run()
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(stressed[0], calm[0])
        np.testing.assert_array_equal(stressed[1], calm[1])
        assert stressed[2] == calm[2] == 4 * 3


class TestSerialParallelParity:
    """ISSUE 4 acceptance: parallel and serial fits stay interchangeable.

    Both branches continue the *same* converged chain (warm-started from one
    offline fit on a crisply-planted scenario), one through plain sweeps and
    one through the thread runner; their document assignments must
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
