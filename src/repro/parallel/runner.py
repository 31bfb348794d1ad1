"""Thread-parallel E-step (Sect. 4.3).

The paper multithreads the Gibbs E-step in C++. Here a partition's sweep is
one compiled-kernel call and its Pólya-Gamma draws another; both are ctypes
calls that release the GIL, so plain threads run the partitions
concurrently. The algorithmic structure is the paper's (DESIGN.md §7):

1. segment users by dominant LDA topic,
2. estimate per-segment workloads and knapsack-allocate them to workers,
3. every sweep each worker resamples its own documents against the state
   as it stood when the sweep began (the "little inter-dependency"
   approximation the paper relies on) and the coordinator merges the
   results.

Worker 0 is the calling thread: it sweeps its partition in place on the
caller's sampler. Every other worker (a *helper*) owns a private
:class:`~repro.core.gibbs.CPDSampler` over the runner's graph, which the
coordinator refreshes from the caller's sampler before the sweep starts,
and runs on a :class:`~concurrent.futures.ThreadPoolExecutor` thread. Each
worker draws from its own ``default_rng(seed)``, the seeds coming from the
runner's generator, so a sweep does not depend on thread timing.

The per-link Pólya-Gamma draws (``sample_lambdas`` / ``sample_deltas``)
and the eta scatter-adds are **fused into the workers** over disjoint
contiguous link ranges, each worker drawing from its own post-sweep state.
``CPDModel.fit`` and ``IncrementalRefresher.refresh`` detect this through
the ``fused_augmentation`` attribute and skip their serial draws.

Documents or links appended to the caller's sampler *after* construction
(the streaming path) are handled by the coordinator itself: overflow
documents are swept serially after the merge and overflow links drawn
serially, while the helpers keep serving the construction-time corpus.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core import _compiled
from ..core.config import CPDConfig
from ..core.gibbs import CPDSampler, record_sweep
from ..core.parameters import DiffusionParameters
from ..core.state import CPDState
from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike, ensure_rng
from .scheduler import Schedule, build_schedule, measure_workload_model, partition_ranges
from .segmentation import segment_users_by_topic

#: LDA sweeps behind the user segmentation (step 1 above)
_SEGMENTATION_LDA_ITERATIONS = 15


@dataclass
class ParallelStats:
    """Observed per-worker E-step seconds across iterations."""

    worker_seconds: np.ndarray
    iterations: int = 0
    #: bytes shipped to workers per sweep: always 0, the workers share memory
    header_bytes: int = 0
    #: restarted workers: always 0, threads are not restarted
    worker_restarts: int = 0

    def mean_worker_seconds(self) -> np.ndarray:
        if self.iterations == 0:
            return self.worker_seconds
        return self.worker_seconds / self.iterations


@dataclass
class _Partition:
    """One worker's share of a sweep: its assignments and fused draws."""

    doc_ids: np.ndarray
    communities: np.ndarray | None = None
    topics: np.ndarray | None = None
    lambdas: np.ndarray | None = None
    deltas: np.ndarray | None = None
    eta_counts: np.ndarray | None = None
    seconds: float = 0.0


def _refresh_helper(helper: CPDSampler, sampler: CPDSampler, seed: int) -> None:
    """Copy the caller's live state into a helper's private sampler.

    Prefix copies: the caller may have grown past the runner's corpus by
    streaming appends, which the helpers never see. The pi/theta caches
    are copied into the helper's own arrays, so its kernel context keeps
    pointing at them. The augmentation and parameter arrays are fresh
    copies so the helper kernel's identity-keyed caches notice the new
    iteration.
    """
    state, source = helper.state, sampler.state
    for name in CPDState.SHARED_FIELDS:
        target = getattr(state, name)
        np.copyto(target, getattr(source, name)[: len(target)])
    state.n_unassigned = int(np.count_nonzero(state.doc_topic < 0))
    state.copy_caches(source)
    table = helper.popularity
    table.load_counts(sampler.popularity._counts[: len(table._counts)])
    helper.fixed_communities = sampler.fixed_communities
    helper.lambdas = sampler.lambdas[: helper.n_friend_links].copy()
    helper.deltas = sampler.deltas[: helper.n_diff_links].copy()
    params, live = helper.params, sampler.params
    params.eta = live.eta.copy()
    params.nu = live.nu.copy()
    params.comm_weight = float(live.comm_weight)
    params.pop_weight = float(live.pop_weight)
    params.bias = float(live.bias)
    helper.rng = np.random.default_rng(seed)


class ParallelEStepRunner:
    """Drives the document sweep of Alg. 1 across worker threads.

    Usable as the ``document_sweeper`` hook of
    :class:`repro.core.model.FitOptions` (so ``CPDModel.fit`` is unchanged)
    and of :class:`repro.stream.refresh.IncrementalRefresher` (dirty-subset
    sweeps). ``close()`` (or use as a context manager) stops the helper
    threads. Worker 0 sweeps on the caller's sampler, so it runs that
    sampler's kernel; the helpers run ``config.sweep_kernel``. The kernels
    draw identically, so only speed depends on building the caller's
    sampler from ``runner.config``. Users are segmented by their dominant
    topic among ``config.n_topics`` LDA topics.
    """

    #: the workers own the per-link PG draws and the eta scatter-adds
    #: (``CPDModel`` / ``IncrementalRefresher`` then skip their serial ones)
    fused_augmentation = True

    def __init__(
        self,
        graph: SocialGraph,
        config: CPDConfig,
        n_workers: int,
        rng: RngLike = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        #: the kernel the helpers actually run (compiled may fall back)
        self.worker_sweep_kernel = config.sweep_kernel
        if config.sweep_kernel == "compiled" and not _compiled.backend_status()[0]:
            self.worker_sweep_kernel = "reference"
        self.graph = graph
        self.config = config
        self.n_workers = n_workers
        self.rng = ensure_rng(rng)
        self.stats = ParallelStats(worker_seconds=np.zeros(n_workers))
        self._closed = False
        self._fused_eta: np.ndarray | None = None

        self.segments = segment_users_by_topic(
            graph,
            config.n_topics,
            lda_iterations=_SEGMENTATION_LDA_ITERATIONS,
            rng=self.rng,
        )
        calibration_sampler = CPDSampler(
            graph,
            config,
            DiffusionParameters.initial(config.n_communities, config.n_topics),
            rng=self.rng,
        )
        self.workload_model = measure_workload_model(calibration_sampler)
        self.schedule: Schedule = build_schedule(self.segments, self.workload_model, n_workers)
        self._worker_docs = [
            np.sort(self.schedule.worker_doc_ids(worker)) for worker in range(n_workers)
        ]
        self._f_ranges = partition_ranges(calibration_sampler.n_friend_links, n_workers)
        self._e_ranges = partition_ranges(calibration_sampler.n_diff_links, n_workers)
        #: the corpus the workers cover; later appends are overflow
        self.n_docs = calibration_sampler.state.n_docs
        self.n_diff_links = calibration_sampler.n_diff_links

        # the calibration sampler serves as the first helper's private sampler
        self._helpers: list[CPDSampler] = []
        self._pool: ThreadPoolExecutor | None = None
        if n_workers > 1:
            self._helpers = [calibration_sampler] + [
                CPDSampler(
                    graph,
                    config,
                    DiffusionParameters.initial(config.n_communities, config.n_topics),
                    rng=0,
                    initialize_assignments=False,
                )
                for _ in range(n_workers - 2)
            ]
            self._pool = ThreadPoolExecutor(
                max_workers=n_workers - 1, thread_name_prefix="repro-estep"
            )

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Stop the helper threads and drop their samplers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._helpers = []

    def __enter__(self) -> "ParallelEStepRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------- execution

    def aggregated_eta(self) -> np.ndarray | None:
        """Eta re-estimated from the workers' fused partial counts.

        ``None`` until the first fused sweep (callers fall back to the
        serial :meth:`CPDSampler.aggregate_eta`).
        """
        return self._fused_eta

    def __call__(
        self,
        sampler: CPDSampler,
        doc_ids: np.ndarray | None = None,
        fuse: bool | None = None,
    ) -> None:
        """One parallel Gibbs sweep over ``doc_ids`` (default: every document).

        Refreshes the helpers, sweeps every partition concurrently, merges
        the helpers' assignments and the fused draws into ``sampler``, then
        handles overflow documents/links (streaming appends beyond the
        runner's corpus) serially. ``fuse=False`` skips the link draws for
        this sweep only — the streaming refresher passes it for all but its
        final sweep so the O(F + E) link draws run once per refresh, not
        once per sweep.

        With telemetry enabled the sweep opens a ``parallel.sweep`` span
        with one ``parallel.worker_sweep`` child per worker, helper threads
        included, so each sweep stays one connected tree.
        """
        if self._closed:
            raise RuntimeError("runner is closed")
        n_docs = sampler.state.n_docs
        if doc_ids is None:
            shares = self._worker_docs
            overflow = np.arange(self.n_docs, n_docs, dtype=np.int64)
        else:
            doc_ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
            if len(doc_ids) and (doc_ids[0] < 0 or doc_ids[-1] >= n_docs):
                raise ValueError("sweep document ids out of range")
            covered = doc_ids[doc_ids < self.n_docs]
            overflow = doc_ids[doc_ids >= self.n_docs]
            shares = [
                np.intersect1d(share, covered, assume_unique=True)
                for share in self._worker_docs
            ]
        with obs.span("parallel.sweep", tags={"workers": self.n_workers}):
            self._sweep(sampler, shares, overflow, fuse is None or bool(fuse))

    def _sweep(
        self,
        sampler: CPDSampler,
        shares: list[np.ndarray],
        overflow: np.ndarray,
        fused: bool,
    ) -> None:
        seeds = [int(self.rng.integers(0, 2**63 - 1)) for _ in range(self.n_workers)]
        for helper, seed in zip(self._helpers, seeds[1:]):
            _refresh_helper(helper, sampler, seed)
        trace = obs.current_header()
        futures = [
            self._pool.submit(self._helper_sweep, worker, helper, shares[worker], fused, trace)
            for worker, helper in enumerate(self._helpers, start=1)
        ]
        caller_rng = sampler.rng
        sampler.rng = np.random.default_rng(seeds[0])
        try:
            with obs.span("parallel.worker_sweep", tags={"worker": 0}):
                partitions = [self._sweep_partition(0, sampler, shares[0], fused)]
        finally:
            sampler.rng = caller_rng
            wait(futures)
        partitions += [future.result() for future in futures]

        for partition in partitions[1:]:
            if len(partition.doc_ids):
                sampler.apply_assignments(
                    partition.doc_ids, partition.communities, partition.topics
                )
        if len(overflow):
            sampler.sweep_documents(overflow)
        if fused:
            self._merge_fused(sampler, partitions)

        registry = obs.get_registry()
        for worker, partition in enumerate(partitions):
            self.stats.worker_seconds[worker] += partition.seconds
            if registry.enabled:
                registry.histogram(
                    "repro_parallel_worker_seconds", {"worker": str(worker)}
                ).observe(partition.seconds)
        self.stats.iterations += 1
        if registry.enabled:
            registry.counter("repro_parallel_sweeps_total").inc()

    def _helper_sweep(
        self, worker: int, helper: CPDSampler, doc_ids: np.ndarray, fused: bool, trace
    ) -> _Partition:
        """A helper thread's sweep, traced under the coordinator's span."""
        with obs.remote_span("parallel.worker_sweep", trace, tags={"worker": worker}):
            partition = self._sweep_partition(worker, helper, doc_ids, fused)
        state = helper.state
        partition.communities = state.doc_community[doc_ids]
        partition.topics = state.doc_topic[doc_ids]
        return partition

    def _sweep_partition(
        self, worker: int, sampler: CPDSampler, doc_ids: np.ndarray, fused: bool
    ) -> _Partition:
        """Sweep ``doc_ids`` on ``sampler``, then draw the worker's link ranges.

        The sweep calls the kernel, not ``sampler.sweep_documents``: the
        partitions run concurrently inside the ``parallel.sweep`` wall, and
        the layer ledger of ``perfbench`` (which times
        ``CPDSampler.sweep_documents``) would otherwise add each helper
        thread's sweep to the fit as if it ran serially.
        """
        started = time.perf_counter()
        record_sweep(sampler.kernel.sweep(doc_ids))
        partition = _Partition(doc_ids)
        if fused:
            config = self.config
            pg_started = time.perf_counter()
            f_start, f_stop = self._f_ranges[worker]
            e_start, e_stop = self._e_ranges[worker]
            if f_stop > f_start and config.model_friendship:
                partition.lambdas = sampler.draw_lambda_range(f_start, f_stop)
            if e_stop > e_start and config.model_diffusion:
                partition.deltas = sampler.draw_delta_range(e_start, e_stop)
            if sampler.uses_profile_diffusion:
                partition.eta_counts = sampler.eta_counts_range(e_start, e_stop)
            registry = obs.get_registry()
            if registry.enabled:
                registry.histogram(
                    "repro_pg_augmentation_seconds", {"worker": str(worker)}
                ).observe(time.perf_counter() - pg_started)
        partition.seconds = time.perf_counter() - started
        return partition

    def _merge_fused(self, sampler: CPDSampler, partitions: list[_Partition]) -> None:
        """Collect the workers' PG draws and partial eta counts."""
        config = self.config
        n_covered = self.n_diff_links
        if config.model_friendship and sampler.n_friend_links:
            sampler.lambdas = np.concatenate(
                [p.lambdas for p in partitions if p.lambdas is not None]
            )
        if config.model_diffusion and sampler.n_diff_links:
            deltas = [p.deltas for p in partitions if p.deltas is not None]
            if sampler.n_diff_links > n_covered:  # appended links, drawn serially
                deltas.append(sampler.draw_delta_range(n_covered, sampler.n_diff_links))
            sampler.deltas = np.concatenate(deltas)
        if sampler.uses_profile_diffusion and sampler.n_diff_links:
            counts = sum(p.eta_counts for p in partitions) + config.eta_smoothing
            sampler.eta_counts_range(n_covered, sampler.n_diff_links, out=counts)
            self._fused_eta = counts / counts.sum()
