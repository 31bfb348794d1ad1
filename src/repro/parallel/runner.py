"""Process-parallel E-step over a shared-memory state plane (Sect. 4.3).

The paper multithreads the Gibbs E-step in C++; CPython threads cannot run
sampling loops concurrently under the GIL, so this runner uses *processes*
with the same algorithmic structure (documented substitution, DESIGN.md §3,
§7):

1. segment users by dominant LDA topic,
2. estimate per-segment workloads and knapsack-allocate them to workers,
3. every iteration the workers sweep their own segments against the shared
   state (the "little inter-dependency" approximation the paper relies on)
   and the coordinator merges the results.

Unlike the PR-3 runner — which re-pickled the full sampler snapshot once
per worker on every sweep — all bulk data now lives in a
:class:`~repro.parallel.plane.SharedStatePlane`:

* the immutable corpus/CSR layout is posted into shared memory **once** at
  construction; workers are **persistent processes** that attach zero-copy
  and keep a warm :class:`~repro.core.gibbs.CPDSampler` (and its
  vectorized kernel) alive across sweeps;
* per sweep the coordinator publishes the mutable state (a no-op for the
  count matrices, which it *adopts* into the plane) and ships each worker
  only a tiny pickled **delta header** — state version, RNG seed, and the
  dirty-document subset when one is given;
* workers write their results (communities, topics) into per-document
  slots of the plane and answer with a tiny ack, so the per-sweep IPC
  volume is O(workers), not O(corpus);
* the per-link Pólya-Gamma draws (``sample_lambdas`` / ``sample_deltas``)
  and the eta scatter-adds are **fused into the workers** over disjoint
  contiguous link ranges, shrinking the coordinator's serial section to
  the M-step logistic fit. The draws land in output slabs of their own:
  the published ``lambdas``/``deltas`` are the sweep's input, which a
  sibling that starts late is still reading. ``CPDModel.fit`` and
  ``IncrementalRefresher.refresh`` detect this through the
  ``fused_augmentation`` attribute and skip their serial draws.

Documents or links appended to the coordinator's sampler *after* plane
construction (the streaming path) are handled by the coordinator itself:
overflow documents are swept serially after the merge and overflow links
redrawn serially, while workers keep serving the fixed-size plane.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core import _compiled
from ..core.config import CPDConfig
from ..core.gibbs import CPDSampler
from ..core.layout import CorpusLayout
from ..core.parameters import DiffusionParameters
from ..core.state import CPDState
from ..graph.social_graph import SocialGraph
from ..resilience.faults import firing as _fault_firing
from ..sampling.rng import RngLike, ensure_rng
from .plane import PlaneSpec, SharedStatePlane
from .scheduler import Schedule, build_schedule, measure_workload_model, partition_ranges
from .segmentation import segment_users_by_topic

#: worker-construction handshake timeout (seconds)
_READY_TIMEOUT = 120.0


@dataclass
class ParallelStats:
    """Observed per-worker E-step seconds and IPC volume across iterations."""

    worker_seconds: np.ndarray
    iterations: int = 0
    #: pickled coordinator->worker delta-header bytes, cumulative
    header_bytes: int = 0
    #: pickled worker->coordinator ack bytes, cumulative
    ack_bytes: int = 0
    #: dead workers respawned by the self-healing path
    worker_restarts: int = 0
    #: sweeps where at least one partition fell back to the serial path
    degraded_sweeps: int = 0

    def mean_worker_seconds(self) -> np.ndarray:
        if self.iterations == 0:
            return self.worker_seconds
        return self.worker_seconds / self.iterations

    def payload_bytes_per_sweep(self) -> float:
        """Mean coordinator->worker bytes shipped per sweep (headers only —
        all bulk state crosses through the shared-memory plane)."""
        if self.iterations == 0:
            return 0.0
        return self.header_bytes / self.iterations


# --------------------------------------------------------------------- worker


def _refresh_from_plane(
    sampler: CPDSampler, state_arrays: dict[str, np.ndarray], seed: int
) -> None:
    """Synchronise a worker's warm sampler with the published plane state.

    Pure ``memcpy``\\ s into the worker's private mutable arrays; the
    augmentation/parameter arrays are fresh copies so the kernel's
    identity-keyed caches notice the new iteration.
    """
    state = sampler.state
    for name in CPDState.SHARED_FIELDS:
        np.copyto(getattr(state, name), state_arrays[name])
    state.n_unassigned = int(np.count_nonzero(state.doc_topic < 0))
    state._drop_caches()
    sampler.popularity.load_counts(state_arrays["popularity"])
    sampler.lambdas = state_arrays["lambdas"].copy()
    sampler.deltas = state_arrays["deltas"].copy()
    params = sampler.params
    params.eta = state_arrays["eta"].copy()
    params.nu = state_arrays["nu"].copy()
    scalars = state_arrays["scalars"]
    params.comm_weight = float(scalars[0])
    params.pop_weight = float(scalars[1])
    params.bias = float(scalars[2])
    sampler.rng = np.random.default_rng(seed)


def _worker_main(
    conn,
    spec: PlaneSpec,
    config: CPDConfig,
    worker: int,
    doc_ids: np.ndarray,
    f_range: tuple[int, int],
    e_range: tuple[int, int],
) -> None:
    """Persistent worker loop: attach once, then serve delta headers."""
    plane = None
    # a fork inherits the coordinator's live registry/sink contents; start
    # from zero so the per-sweep telemetry shipped back is a true delta
    obs.worker_reset()
    try:
        plane = SharedStatePlane.attach(spec)
        state_arrays = plane.state
        params = DiffusionParameters.initial(
            config.n_communities, config.n_topics, n_features=int(state_arrays["nu"].shape[0])
        )
        sampler = CPDSampler(
            None,
            config,
            params,
            rng=0,
            layout=plane.corpus_layout(),
            initialize_assignments=False,
        )
        conn.send({"status": "ready", "worker": worker})
        f_start, f_stop = f_range
        e_start, e_stop = e_range
        while True:
            header = pickle.loads(conn.recv_bytes())
            if header is None:
                break
            _refresh_from_plane(sampler, state_arrays, header["seed"])
            ids = header["doc_ids"]
            ids = doc_ids if ids is None else np.asarray(ids, dtype=np.int64)
            started = time.perf_counter()
            with obs.remote_span(
                "parallel.worker_sweep",
                header.get("trace"),
                tags={"worker": worker},
            ):
                sampler.sweep_documents(ids)
                doc_state = sampler.state
                state_arrays["result_community"][ids] = doc_state.doc_community[ids]
                state_arrays["result_topic"][ids] = doc_state.doc_topic[ids]
                if header["fused"]:
                    pg_started = time.perf_counter()
                    if f_stop > f_start and config.model_friendship:
                        state_arrays["fused_lambdas"][f_start:f_stop] = (
                            sampler.draw_lambda_range(f_start, f_stop)
                        )
                    if e_stop > e_start and config.model_diffusion:
                        state_arrays["fused_deltas"][e_start:e_stop] = (
                            sampler.draw_delta_range(e_start, e_stop)
                        )
                    if sampler.uses_profile_diffusion:
                        slab = state_arrays["eta_partial"][worker]
                        slab.fill(0.0)
                        sampler.eta_counts_range(e_start, e_stop, out=slab)
                    registry = obs.get_registry()
                    if registry.enabled:
                        registry.histogram(
                            "repro_pg_augmentation_seconds",
                            {"worker": str(worker)},
                        ).observe(time.perf_counter() - pg_started)
            ack = {
                "worker": worker,
                "seconds": time.perf_counter() - started,
                "n_docs": int(len(ids)),
            }
            if obs.telemetry_enabled():
                # drained deltas: the coordinator merges/ingests them, so
                # worker-side sweep metrics and spans land in one registry
                ack["telemetry"] = {
                    "metrics": obs.get_registry().drain(),
                    "spans": obs.get_sink().drain(),
                }
            conn.send(ack)
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        if plane is not None:
            plane.close()
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------- coordinator


class ParallelEStepRunner:
    """Drives the document sweep of Alg. 1 across persistent workers.

    Usable as the ``document_sweeper`` hook of
    :class:`repro.core.model.FitOptions` (so ``CPDModel.fit`` is unchanged)
    and of :class:`repro.stream.refresh.IncrementalRefresher` (dirty-subset
    sweeps). Always ``close()`` (or use as a context manager) to shut the
    workers down and unlink the shared-memory blocks.
    """

    def __init__(
        self,
        graph: SocialGraph,
        config: CPDConfig,
        n_workers: int,
        n_segments: int | None = None,
        rng: RngLike = None,
        segmentation_lda_iterations: int = 15,
        sweep_kernel: str | None = None,
        fuse_augmentation: bool = True,
        self_heal: bool = True,
        worker_timeout: float | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if worker_timeout is not None and worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if sweep_kernel is not None:
            config = config.with_overrides(sweep_kernel=sweep_kernel)
        #: the kernel workers actually run (compiled may fall back)
        self.worker_sweep_kernel = config.sweep_kernel
        if config.sweep_kernel == "compiled":
            # warm the shared-object cache once in the coordinator so forked
            # workers map the cached library instead of racing the compiler
            available, _reason = _compiled.backend_status()
            if not available:
                self.worker_sweep_kernel = "vectorized"
        self.graph = graph
        self.config = config
        self.n_workers = n_workers
        self.rng = ensure_rng(rng)
        self.fuse_augmentation = fuse_augmentation
        #: heal dead workers (serial fallback + respawn) instead of raising
        self.self_heal = self_heal
        #: seconds to wait for a sweep ack before declaring the worker hung
        #: (``None`` waits forever; healthy compute may legitimately be slow)
        self.worker_timeout = worker_timeout
        self.stats = ParallelStats(worker_seconds=np.zeros(n_workers))
        self._closed = False
        self._version = 0
        self._adopted_sampler: CPDSampler | None = None
        self._fused_eta: np.ndarray | None = None
        self.plane: SharedStatePlane | None = None
        self._processes: list = []
        self._conns: list = []

        try:
            n_segments = n_segments or config.n_topics
            self.segments = segment_users_by_topic(
                graph, n_segments, lda_iterations=segmentation_lda_iterations, rng=self.rng
            )
            calibration_sampler = CPDSampler(
                graph,
                config,
                DiffusionParameters.initial(config.n_communities, config.n_topics),
                rng=self.rng,
            )
            self.workload_model = measure_workload_model(calibration_sampler)
            self.schedule: Schedule = build_schedule(
                self.segments, self.workload_model, n_workers
            )
            self._worker_docs = [
                np.sort(self.schedule.worker_doc_ids(worker))
                for worker in range(n_workers)
            ]
            self._f_ranges = partition_ranges(calibration_sampler.n_friend_links, n_workers)
            self._e_ranges = partition_ranges(calibration_sampler.n_diff_links, n_workers)

            layout = CorpusLayout.from_sampler(calibration_sampler)
            self.plane = SharedStatePlane(
                layout,
                config,
                n_workers=n_workers,
                n_time_buckets=calibration_sampler.popularity.n_time_buckets,
                n_features=int(len(calibration_sampler.params.nu)),
            )
            self._spawn_workers()
        except Exception:
            self.close()
            raise

    def _start_worker(self, worker: int):
        """Launch one worker process; returns ``(process, parent_conn)``."""
        methods = mp.get_all_start_methods()
        context = mp.get_context("fork" if "fork" in methods else None)
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.plane.spec,
                self.config,
                worker,
                self._worker_docs[worker],
                self._f_ranges[worker],
                self._e_ranges[worker],
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _await_ready(self, worker: int, conn) -> None:
        """Block until one worker's attach-handshake arrives."""
        deadline = time.monotonic() + _READY_TIMEOUT
        while not conn.poll(0.5):
            if not self._processes[worker].is_alive():
                raise RuntimeError(
                    f"worker {worker} died during start-up (exit code "
                    f"{self._processes[worker].exitcode}); see its stderr"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"worker {worker} did not come up")
        ready = self._recv(worker, conn, "start-up")
        if not (isinstance(ready, dict) and ready.get("status") == "ready"):
            raise RuntimeError(f"worker {worker} failed to initialise: {ready!r}")

    def _spawn_workers(self) -> None:
        """Start the persistent worker processes and await their handshakes."""
        for worker in range(self.n_workers):
            process, conn = self._start_worker(worker)
            self._processes.append(process)
            self._conns.append(conn)
        for worker, conn in enumerate(self._conns):
            self._await_ready(worker, conn)

    def _respawn_worker(self, worker: int) -> None:
        """Replace a dead worker: fresh process, re-attached to the plane.

        The plane's immutable layout block is still mapped, so the
        replacement attaches exactly like the original did at construction
        and is sweep-ready once its handshake lands.
        """
        old = self._processes[worker]
        if old.is_alive():
            old.terminate()
        old.join(timeout=10)
        try:
            self._conns[worker].close()
        except OSError:
            pass
        process, conn = self._start_worker(worker)
        self._processes[worker] = process
        self._conns[worker] = conn
        self._await_ready(worker, conn)
        self.stats.worker_restarts += 1

    def _recv(self, worker: int, conn, stage: str):
        """``conn.recv()`` with a diagnosable error when the worker died."""
        try:
            return conn.recv()
        except EOFError as error:
            exitcode = self._processes[worker].exitcode
            raise RuntimeError(
                f"worker {worker} closed its pipe during {stage} (exit code "
                f"{exitcode}); see the worker's stderr for the traceback"
            ) from error

    # ------------------------------------------------------------ lifecycle

    def _unadopt(self) -> None:
        """Give the adopted sampler private copies of its shared arrays.

        Must run before the plane unmaps: numpy releases buffer exports
        eagerly, so a view into a closed block is a use-after-unmap, not an
        error. After this the sampler is fully self-contained again and
        outlives the runner.
        """
        sampler = self._adopted_sampler
        if sampler is None or self.plane is None or self.plane.closed:
            self._adopted_sampler = None
            return
        state_arrays = self.plane.state
        state = sampler.state
        for name in CPDState.SHARED_FIELDS:
            current = getattr(state, name)
            if state_arrays and current is state_arrays.get(name):
                setattr(state, name, current.copy())
        state._drop_caches()
        table = sampler.popularity
        if state_arrays and table._counts is state_arrays.get("popularity"):
            table.adopt_buffer(np.empty_like(table._counts))  # back to private
        self._adopted_sampler = None

    def close(self) -> None:
        """Shut workers down, release pipes, unlink the shared blocks.

        The adopted sampler (if any) gets private copies of its arrays
        first, so it stays fully usable after the runner is gone.
        """
        if self._closed:
            return
        self._closed = True
        self._unadopt()
        shutdown = pickle.dumps(None)
        for conn in self._conns:
            try:
                conn.send_bytes(shutdown)
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._conns = []
        self._processes = []
        if self.plane is not None:
            self.plane.close()

    def __enter__(self) -> "ParallelEStepRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------- publish

    def _ensure_adopted(self, sampler: CPDSampler) -> None:
        """Adopt the sampler's mutable arrays into the plane (first call).

        After adoption the coordinator's count updates land directly in
        shared memory, so the per-sweep publish degenerates to identity
        checks. Arrays whose shapes no longer match the plane (possible
        when the sampler grew via streaming appends before first use) stay
        private and are prefix-copied by :meth:`_publish` instead.

        A previously adopted sampler is privatised first — its views alias
        the very buffers the new sampler is copied into, so without the
        hand-back its state would silently mutate (and dangle once the
        plane unmaps).
        """
        if sampler is self._adopted_sampler:
            return
        if self._adopted_sampler is not None:
            self._unadopt()
        state_arrays = self.plane.state
        buffers = {}
        for name in CPDState.SHARED_FIELDS:
            shared = state_arrays[name]
            current = getattr(sampler.state, name)
            if current.shape == shared.shape and current.dtype == shared.dtype:
                buffers[name] = shared
        sampler.state.adopt_buffers(buffers)
        table = sampler.popularity
        if table._counts.shape == state_arrays["popularity"].shape:
            table.adopt_buffer(state_arrays["popularity"])
        self._adopted_sampler = sampler

    def _publish(self, sampler: CPDSampler) -> None:
        """Bring the plane's mutable block up to date with the sampler.

        Adopted arrays are already in place (identity check); detached or
        grown arrays are prefix-copied down to plane size. The
        augmentation variables and diffusion parameters are small and
        rebound every iteration, so they are always copied.
        """
        plane = self.plane
        state_arrays = plane.state
        state = sampler.state
        for name in CPDState.SHARED_FIELDS:
            shared = state_arrays[name]
            current = getattr(state, name)
            if current is shared:
                continue
            if current.shape == shared.shape:
                np.copyto(shared, current)
            else:  # grown by streaming appends: publish the plane-sized prefix
                np.copyto(shared, current[: shared.shape[0]])
        counts = sampler.popularity._counts
        shared_popularity = state_arrays["popularity"]
        if counts is not shared_popularity:
            np.copyto(shared_popularity, counts[: shared_popularity.shape[0]])
        np.copyto(state_arrays["lambdas"], sampler.lambdas[: plane.n_friend_links])
        np.copyto(state_arrays["deltas"], sampler.deltas[: plane.n_diff_links])
        params = sampler.params
        np.copyto(state_arrays["eta"], params.eta)
        np.copyto(state_arrays["nu"], params.nu)
        state_arrays["scalars"][:] = (params.comm_weight, params.pop_weight, params.bias)

    # ------------------------------------------------------------- execution

    @property
    def fused_augmentation(self) -> bool:
        """True when the runner's workers own the per-link PG draws and the
        eta scatter-adds (``CPDModel`` / ``IncrementalRefresher`` then skip
        their serial versions)."""
        return self.fuse_augmentation

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

        Publishes state, ships delta headers, merges worker results from
        the plane, then handles overflow documents/links (streaming
        appends beyond the plane) serially on the coordinator. ``fuse``
        overrides the runner-level ``fuse_augmentation`` for this sweep
        only — the streaming refresher passes ``False`` for all but its
        final sweep so the O(F + E) link draws run once per refresh, not
        once per sweep.

        With telemetry enabled the sweep opens a ``parallel.sweep`` span
        whose context rides each delta header; workers answer with their
        own span/metric deltas in the ack, so the coordinator's sink holds
        one connected tree per sweep spanning every process.
        """
        if self._closed:
            raise RuntimeError("runner is closed")
        with obs.span(
            "parallel.sweep", tags={"workers": self.n_workers}
        ) as sweep_span:
            self._sweep(sampler, doc_ids, fuse, sweep_span)

    def _sweep(
        self,
        sampler: CPDSampler,
        doc_ids: np.ndarray | None,
        fuse: bool | None,
        sweep_span,
    ) -> None:
        plane = self.plane
        self._ensure_adopted(sampler)
        self._publish(sampler)
        self._version += 1

        if doc_ids is None:
            # full sweep: workers cover the plane, the coordinator covers
            # any documents appended (streaming) after plane construction
            overflow = np.arange(plane.n_docs, sampler.state.n_docs, dtype=np.int64)
            subsets: list[np.ndarray | None] = [None] * self.n_workers
            merge_ids = self._worker_docs
        else:
            doc_ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
            in_plane = doc_ids[doc_ids < plane.n_docs]
            overflow = doc_ids[doc_ids >= plane.n_docs]
            subsets = [
                np.intersect1d(share, in_plane, assume_unique=True)
                for share in self._worker_docs
            ]
            merge_ids = subsets

        fused = self.fuse_augmentation if fuse is None else (fuse and self.fuse_augmentation)
        registry = obs.get_registry()
        trace_context = obs.current_header()
        lost: list[int] = []
        for worker, conn in enumerate(self._conns):
            spec = _fault_firing("worker.kill", worker=worker)
            if spec is not None:
                # chaos: the worker process dies before (or while) serving
                # this sweep — detected below like any real crash
                self._processes[worker].terminate()
                self._processes[worker].join(timeout=10)
            header = pickle.dumps(
                {
                    "version": self._version,
                    "seed": int(self.rng.integers(0, 2**63 - 1)),
                    "doc_ids": subsets[worker],
                    "fused": fused,
                    "trace": trace_context,
                }
            )
            self.stats.header_bytes += len(header)
            if registry.enabled:
                registry.counter("repro_parallel_header_bytes_total").inc(
                    len(header)
                )
            try:
                conn.send_bytes(header)
            except (BrokenPipeError, OSError):
                self._mark_lost(worker, lost, "dispatch")
        for worker, conn in enumerate(self._conns):
            if worker in lost:
                continue
            ack = self._collect_ack(worker, conn, lost)
            if ack is None:
                continue
            telemetry = ack.pop("telemetry", None)
            if telemetry is not None and obs.telemetry_enabled():
                obs.get_registry().merge(telemetry["metrics"])
                obs.get_sink().ingest(telemetry["spans"])
            ack_bytes = len(pickle.dumps(ack))
            self.stats.ack_bytes += ack_bytes
            self.stats.worker_seconds[ack["worker"]] += ack["seconds"]
            if registry.enabled:
                registry.counter("repro_parallel_ack_bytes_total").inc(ack_bytes)
                registry.histogram(
                    "repro_parallel_worker_seconds",
                    {"worker": str(ack["worker"])},
                ).observe(ack["seconds"])

        state_arrays = plane.state
        for worker in range(self.n_workers):
            if worker in lost:
                continue
            ids = merge_ids[worker]
            if ids is None or len(ids) == 0:
                continue
            sampler.apply_assignments(
                ids,
                state_arrays["result_community"][ids].copy(),
                state_arrays["result_topic"][ids].copy(),
            )
        # serial fallback: the coordinator sweeps what the lost workers
        # owned (one degraded sweep), alongside the streaming overflow
        fallback = [
            merge_ids[worker] if merge_ids[worker] is not None
            else self._worker_docs[worker]
            for worker in lost
        ]
        serial_ids = [ids for ids in ([overflow] + fallback) if len(ids)]
        if serial_ids:
            sampler.sweep_documents(np.unique(np.concatenate(serial_ids)))

        if fused:
            for worker in lost:
                self._redraw_lost_ranges(sampler, worker)
            self._merge_fused(sampler)
        if lost:
            self.stats.degraded_sweeps += 1
            sweep_span.set_tag("degraded", True)
            sweep_span.set_tag("lost_workers", list(lost))
            if registry.enabled:
                registry.counter("repro_parallel_degraded_sweeps_total").inc()
                registry.counter("repro_parallel_worker_restarts_total").inc(
                    len(lost)
                )
            for worker in lost:
                self._respawn_worker(worker)
        self.stats.iterations += 1
        if registry.enabled:
            registry.counter("repro_parallel_sweeps_total").inc()

    def _mark_lost(self, worker: int, lost: list[int], stage: str) -> None:
        """Record a dead worker, or raise when self-healing is off."""
        if not self.self_heal:
            raise RuntimeError(
                f"worker {worker} died during {stage} (exit code "
                f"{self._processes[worker].exitcode}); see its stderr"
            )
        if worker not in lost:
            lost.append(worker)

    def _collect_ack(self, worker: int, conn, lost: list[int]):
        """One worker's sweep ack, or ``None`` after marking it lost.

        A worker is lost when its process died (pipe EOF / liveness check)
        or, with ``worker_timeout`` set, when its ack does not arrive in
        time — a hung worker is terminated before being declared lost, so
        it cannot scribble into the result slots the coordinator is about
        to re-sweep serially.
        """
        deadline = (
            time.monotonic() + self.worker_timeout
            if self.worker_timeout is not None
            else None
        )
        while not conn.poll(1.0):
            if not self._processes[worker].is_alive():
                self._mark_lost(worker, lost, "the sweep")
                return None
            if deadline is not None and time.monotonic() > deadline:
                self._processes[worker].terminate()
                self._processes[worker].join(timeout=10)
                self._mark_lost(worker, lost, "the sweep (timed out)")
                return None
        try:
            return self._recv(worker, conn, "the sweep")
        except RuntimeError:
            if not self.self_heal:
                raise
            self._mark_lost(worker, lost, "the sweep")
            return None

    def _redraw_lost_ranges(self, sampler: CPDSampler, worker: int) -> None:
        """Recompute a lost worker's fused plane slots on the coordinator.

        The dead worker never wrote this sweep's PG draws or partial eta
        counts — its ``fused_lambdas``/``fused_deltas`` ranges and
        ``eta_partial`` slab hold last sweep's values — so before
        :meth:`_merge_fused` sums them, the coordinator redraws the ranges
        serially from its (already healed) sampler state.
        """
        state_arrays = self.plane.state
        config = self.config
        f_start, f_stop = self._f_ranges[worker]
        e_start, e_stop = self._e_ranges[worker]
        if f_stop > f_start and config.model_friendship:
            state_arrays["fused_lambdas"][f_start:f_stop] = sampler.draw_lambda_range(
                f_start, f_stop
            )
        if e_stop > e_start and config.model_diffusion:
            state_arrays["fused_deltas"][e_start:e_stop] = sampler.draw_delta_range(
                e_start, e_stop
            )
        if sampler.uses_profile_diffusion:
            slab = state_arrays["eta_partial"][worker]
            slab.fill(0.0)
            if e_stop > e_start:
                sampler.eta_counts_range(e_start, e_stop, out=slab)

    def _merge_fused(self, sampler: CPDSampler) -> None:
        """Collect the workers' PG draws and partial eta counts."""
        plane = self.plane
        state_arrays = plane.state
        config = self.config
        if config.model_friendship and sampler.n_friend_links:
            sampler.lambdas = state_arrays["fused_lambdas"].copy()
        if config.model_diffusion and sampler.n_diff_links:
            deltas = state_arrays["fused_deltas"].copy()
            if sampler.n_diff_links > plane.n_diff_links:  # appended links
                deltas = np.concatenate(
                    [
                        deltas,
                        sampler.draw_delta_range(plane.n_diff_links, sampler.n_diff_links),
                    ]
                )
            sampler.deltas = deltas
        if sampler.uses_profile_diffusion and sampler.n_diff_links:
            counts = state_arrays["eta_partial"].sum(axis=0) + config.eta_smoothing
            if sampler.n_diff_links > plane.n_diff_links:
                sampler.eta_counts_range(plane.n_diff_links, sampler.n_diff_links, out=counts)
            self._fused_eta = counts / counts.sum()


class SerialSweeper:
    """Drop-in serial counterpart recording the same timing stats."""

    def __init__(self) -> None:
        self.stats = ParallelStats(worker_seconds=np.zeros(1))

    def __call__(self, sampler: CPDSampler, doc_ids: np.ndarray | None = None) -> None:
        started = time.perf_counter()
        sampler.sweep_documents(doc_ids)
        self.stats.worker_seconds[0] += time.perf_counter() - started
        self.stats.iterations += 1
