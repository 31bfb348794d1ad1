"""Outside-in layer ledger: times calls into the program's public functions.

The ledger replaces class or module attributes with thin timing wrappers
and restores the originals on ``uninstall``. It adds nothing to the program
itself. Synchronous calls keep a per-thread stack, so a layer's *self* time
excludes the wrapped layers it calls (``diffusion.negsample`` excludes its
``diffusion.word_index`` child), and the self times of one operation add up
to at most its wall time. Coroutines are timed by wall duration only: they
interleave on one event loop, so a stack would attribute other requests'
work to them.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Ledger:
    """Per-layer self seconds, inclusive seconds, call counts and counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- readout

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.total_s.clear()
            self.calls.clear()
            self.counts.clear()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] += value

    def _record(self, layer: str, elapsed: float, own: float) -> None:
        with self._lock:
            self.total_s[layer] += elapsed
            self.self_s[layer] += own
            self.calls[layer] += 1

    # ------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, layer: str, observe=None, eager=False) -> None:
        """Time ``owner.attr`` as ``layer``.

        ``observe(args, result)`` may return ``{counter: value}`` to add.
        ``eager`` materialises a generator inside the timed call, so its
        work is charged to this layer rather than to whoever consumes it.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        ledger = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = ledger._stack()
            stack.append(0.0)
            started = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                if eager:
                    result = iter(list(result))
                return result
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                ledger._record(layer, elapsed, elapsed - children)
                if observe is not None and result is not None:
                    for counter, value in observe(args, result).items():
                        ledger.add(counter, value)

        self._patch(owner, attr, original, timed)

    def wrap_async(self, owner, attr: str, layer: str, observe=None) -> None:
        """Time the coroutine method ``owner.attr`` by its wall duration."""
        original = owner.__dict__[attr]
        ledger = self

        @functools.wraps(original)
        async def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                ledger._record(layer, elapsed, elapsed)
                if observe is not None:
                    for counter, value in observe(args, elapsed).items():
                        ledger.add(counter, value)

        self._patch(owner, attr, original, timed)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def install_fit_layers(ledger: Ledger) -> None:
    """Wrap the layers a CPD fit passes through (set-up layers included)."""
    from repro.core import model
    from repro.core.gibbs import CPDSampler
    from repro.diffusion import negative_sampling
    from repro.diffusion.logistic import LogisticTrainer
    from repro.parallel import runner
    from repro.shard import partition
    from repro.shard.align import CommunityAligner

    # ``fit`` calls the name bound in repro.core.model, so that binding is
    # the one to wrap; the word index is looked up in its own module
    ledger.wrap(model, "sample_negative_diffusion_pairs", "diffusion.negsample")
    ledger.wrap(negative_sampling, "build_word_document_index", "diffusion.word_index")
    ledger.wrap(
        LogisticTrainer, "fit", "diffusion.logistic",
        observe=lambda _args, fit: {"diffusion.logistic_iters": fit.n_iterations},
    )
    ledger.wrap(CPDSampler, "diffusion_components", "core.components")
    ledger.wrap(CPDSampler, "aggregate_eta", "core.eta")
    ledger.wrap(CPDSampler, "sweep_documents", "core.sweep")
    ledger.wrap(CPDSampler, "sample_lambdas", "sampling.pg")
    ledger.wrap(CPDSampler, "sample_deltas", "sampling.pg")
    ledger.wrap(runner.ParallelEStepRunner, "__call__", "parallel.estep")
    ledger.wrap(runner.ParallelEStepRunner, "__init__", "parallel.spawn")
    ledger.wrap(runner, "segment_users_by_topic", "topics.segmentation")
    ledger.wrap(partition, "segment_users_by_topic", "topics.segmentation")
    ledger.wrap(partition.GraphPartitioner, "partition", "shard.partition")
    ledger.wrap(CommunityAligner, "align", "shard.align")


def install_serve_layers(ledger: Ledger) -> None:
    """Wrap the layers a gateway request passes through."""
    from repro.gateway import server
    from repro.gateway.admission import AdmissionController
    from repro.gateway.batcher import RankBatcher
    from repro.serving.store import ProfileStore
    from repro.shard.router import ShardRouter

    # the server calls the names it imported from repro.gateway.http
    ledger.wrap(server, "parse_request", "gateway.parse")
    ledger.wrap(server, "render_response", "gateway.render")
    ledger.wrap_async(AdmissionController, "acquire", "gateway.admission_wait")
    ledger.wrap_async(RankBatcher, "rank", "gateway.batch_rank")
    # every waiter of a batch waits for the whole backend run
    ledger.wrap_async(
        RankBatcher, "_run", "gateway.batch_run",
        observe=lambda args, elapsed: {
            "gateway.waited_backend_s": elapsed * sum(len(w) for w in args[1].values()),
        },
    )
    ledger.wrap(ProfileStore, "rank", "serving.rank")
    ledger.wrap(ProfileStore, "rank_many", "serving.rank")
    ledger.wrap(ProfileStore, "query_log_shift", "serving.rank")
    ledger.wrap(ShardRouter, "gather", "shard.gather")
    ledger.wrap(ShardRouter, "_merged_rank", "shard.merge", eager=True)
