"""ShardRouter: scatter-gather serving over per-shard ProfileStores.

The federated counterpart of :class:`repro.serving.ProfileStore` — same
query API (``rank`` / ``top_k`` / ``community_members`` / ``labels`` /
``cache_info``), but every call fans out to the per-shard stores and the
answers are gathered into the aligner's global label space
(:mod:`repro.shard.align`). Chen et al.'s community search over profiled
graphs motivates exactly this shape: partitioned indexes answering
interactive queries, not one monolithic store.

Ranking is an **exact heap k-way merge**. Each shard's ``rank`` returns
its communities sorted by Eq. 19 score (served from that shard's own LRU
cache); the router merges the per-shard streams with a max-heap keyed on
score. A global label backed by several shard-local communities takes the
score of its *strongest* backing (max-combining): because the merged
stream is non-increasing, the first time a label surfaces its score is
final — lazy consumption that stops after ``k`` distinct labels is
provably identical to materialising everything (DESIGN.md §8 gives the
argument). Per-shard scores are first
rescaled onto one common per-query scale (each store divides out its own
stability constant — see :meth:`ProfileStore.query_log_shift`). Per-shard
caches are preserved, and a router-level LRU memoises the merged
rankings on top; :meth:`cache_info` aggregates the shard counters and
reports the router's own.

Shard stores stay individually hot-swappable: the streaming pipeline runs
one ingestor/snapshotter per shard and calls :meth:`hot_swap_shard`, which
delegates to that store and drops only the router-level gathered memos.

**Degraded serving.** Scatter calls are guarded: each shard gets a
deadline (checked post-hoc — in-process calls cannot be preempted), a
retry budget with exponential backoff, and a
:class:`~repro.shard.health.CircuitBreaker` so a persistently failing
shard stops being called for a cooldown. :meth:`gather` is the best-effort
entry point: it merges whatever shards answered — live, or from the
per-shard *stale cache* of last-known rankings for tripped shards — and
reports coverage in a :class:`GatherResult` envelope instead of raising.
:meth:`rank` keeps its exact contract (raising :class:`DegradedError`
when any shard is unreachable) unless the router was built with
``best_effort=True``; only exact merges enter the router LRU, so a
degraded answer never outlives the failure that caused it.
"""

from __future__ import annotations

import heapq
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..core.io import (
    PathLike,
    ShardManifest,
    load_artifact,
    load_shard_manifest,
)
from ..core.result import CPDResult
from .. import obs
from ..graph.vocabulary import Vocabulary
from ..resilience.faults import InjectedFault, firing as _fault_firing
from ..serving.cache import LRUCache, merge_cache_infos
from ..serving.store import ProfileStore
from ..serving.summary import GraphSummary
from .align import ShardAlignment
from .health import (
    DEFAULT_HALF_OPEN_PROBES,
    DEFAULT_STALE_MAX_AGE,
    CircuitBreaker,
)

QueryLike = Union[str, Sequence[str]]


class DegradedError(RuntimeError):
    """An exact merge was requested but some shards could not answer."""

    def __init__(self, failed: dict[int, str]) -> None:
        self.failed = dict(failed)
        detail = "; ".join(
            f"shard {shard}: {reason}" for shard, reason in sorted(failed.items())
        )
        super().__init__(
            f"{len(failed)} shard(s) failed to answer ({detail}) — query with "
            "gather()/best_effort for a partial merge"
        )


@dataclass
class GatherResult:
    """One best-effort scatter-gather answer with its coverage accounting.

    ``ranking`` merges the shards in ``answered`` (live) and ``stale``
    (last-known rankings served for tripped/failing shards); ``failed``
    shards contributed nothing. ``exact`` is True only when every shard
    answered live — the only case whose ranking equals :meth:`ShardRouter.rank`.
    """

    ranking: list[tuple[int, float]]
    n_shards: int
    answered: list[int] = field(default_factory=list)
    stale: list[int] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    #: per-failed-shard reason strings, for logs and the doctor
    errors: dict[int, str] = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return len(self.answered) == self.n_shards

    @property
    def coverage(self) -> float:
        """Fraction of shards that contributed (live or stale)."""
        return (len(self.answered) + len(self.stale)) / self.n_shards

    def top_k(self, k: int = 5) -> list[int]:
        return [c for c, _score in self.ranking[:k]]


class ShardRouter:
    """Scatter-gather facade over one federated (sharded) fit."""

    def __init__(
        self,
        stores: list[ProfileStore],
        user_maps: list[np.ndarray],
        alignment: ShardAlignment,
        query_cache_size: int = 1024,
        deadline: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.05,
        best_effort: bool = False,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        breaker_half_open_probes: int = DEFAULT_HALF_OPEN_PROBES,
        stale_max_age: float = DEFAULT_STALE_MAX_AGE,
        clock: Callable[[], float] = _time.monotonic,
    ) -> None:
        if not stores:
            raise ValueError("need at least one shard store")
        if len(stores) != len(user_maps):
            raise ValueError("one user map per shard store required")
        if alignment.n_shards != len(stores):
            raise ValueError(
                f"alignment covers {alignment.n_shards} shards but "
                f"{len(stores)} stores were given"
            )
        for shard_id, (store, mapping) in enumerate(
            zip(stores, alignment.local_to_global)
        ):
            if store.n_communities != mapping.shape[0]:
                raise ValueError(
                    f"shard {shard_id} has {store.n_communities} communities "
                    f"but the alignment maps {mapping.shape[0]}"
                )
        if retries < 0:
            raise ValueError("retries cannot be negative")
        if stale_max_age < 0:
            raise ValueError("stale_max_age cannot be negative")
        self.stores = stores
        self.user_maps = [np.asarray(m, dtype=np.int64) for m in user_maps]
        self.alignment = alignment
        # degraded-serving policy (see module docstring)
        self.deadline = deadline
        self.retries = retries
        self.backoff = backoff
        self.best_effort = best_effort
        self.stale_max_age = stale_max_age
        self.clock = clock
        self.breakers = [
            CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown=breaker_cooldown,
                clock=clock,
                labels={"shard": str(shard_id)},
                half_open_probes=breaker_half_open_probes,
            )
            for shard_id in range(len(stores))
        ]
        #: last-known live ``(ranking, shift, stored_at)`` per
        #: ``(shard, query key)`` — what a tripped shard serves until it is
        #: healed, hot-swapped, or the entry outlives ``stale_max_age``
        self._stale: dict[
            tuple[int, tuple[int, ...]], tuple[list, float, float]
        ] = {}
        self.stale_served = [0 for _ in stores]
        # guards the stale table, the gathered memos and the hot-swap path
        # against the gateway's executor threads; the generation counter
        # lets gather() cache a merge without holding the lock across the
        # scatter — a swap racing the scatter bumps the generation and the
        # outdated merge is simply not cached
        self._lock = threading.RLock()
        self._generation = 0
        # router-level gathered memos (invalidated on shard hot-swaps)
        self._rank_cache: LRUCache[list[tuple[int, float]]] = LRUCache(query_cache_size)
        self._members: dict[int, list[np.ndarray]] = {}
        self._labels: dict[int, list[str]] = {}
        self._representative: np.ndarray | None = None
        self._query_terms: list[str] | None = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_manifest(
        cls, path: PathLike, query_cache_size: int = 1024, **router_options
    ) -> "ShardRouter":
        """Open a federated fit from its shard manifest.

        Loads every per-shard artifact (self-contained v2+), revives the
        persisted alignment, and wires the global/local user maps. Extra
        keyword arguments (``best_effort``, ``deadline``, ``retries``,
        breaker tuning, ...) pass through to the constructor.
        """
        manifest = load_shard_manifest(path)
        if manifest.alignment is None:
            raise ValueError(
                "the manifest carries no community alignment — run the "
                "aligner (repro shard-fit does this automatically)"
            )
        stores = [
            ProfileStore.from_artifact_bundle(
                load_artifact(artifact_path), query_cache_size=query_cache_size
            )
            for artifact_path in manifest.artifact_paths(path)
        ]
        alignment = ShardAlignment.from_dict(manifest.alignment)
        # signatures are derived data the manifest leaves out; replaying the
        # mass-weighted merge restores them (needed by map_result / parity)
        alignment.rebuild_signatures([store.result for store in stores])
        user_maps = [entry.users for entry in manifest.shards]
        return cls(
            stores, user_maps, alignment, query_cache_size=query_cache_size,
            **router_options,
        )

    # ------------------------------------------------------------- dimensions

    @property
    def n_shards(self) -> int:
        return len(self.stores)

    @property
    def n_users(self) -> int:
        return sum(m.shape[0] for m in self.user_maps)

    @property
    def n_communities(self) -> int:
        """Size of the *global* community label space."""
        return self.alignment.n_global

    @property
    def n_topics(self) -> int:
        return self.stores[0].n_topics

    @property
    def n_words(self) -> int:
        return self.stores[0].n_words

    def shard_of_user(self, global_user: int) -> tuple[int, int]:
        """``(shard_id, local_user_id)`` for a global user id."""
        for shard_id, user_map in enumerate(self.user_maps):
            index = int(np.searchsorted(user_map, global_user))
            if index < user_map.shape[0] and user_map[index] == global_user:
                return shard_id, index
        raise KeyError(f"user {global_user} is on no shard")

    # ---------------------------------------------------------------- ranking

    def _call_shard(
        self, shard_id: int, query: QueryLike, deadline: Optional[float] = None
    ) -> tuple[list[tuple[int, float]], float]:
        """One guarded shard call: fault consult, deadline, the real work.

        Returns the shard's ``(ranking, shift)``. ``deadline`` is the
        effective per-call allowance — the router's static per-shard
        deadline, possibly tightened by the remaining per-request budget
        (:meth:`gather`'s ``budget``). An injected ``shard.query`` fault
        with ``action="raise"`` fails the call; ``action="timeout"``
        charges ``spec.delay`` seconds of simulated stall against the
        deadline instead (the deadline is checked post-hoc — an
        in-process call cannot be preempted, so a slow shard is detected
        after the fact and its answer discarded to keep the failure
        semantics uniform; the stall is accounted, not slept, so it works
        under injected fake clocks without burning wall-clock time).
        """
        started = self.clock()
        injected_delay = 0.0
        spec = _fault_firing("shard.query", shard=shard_id)
        if spec is not None:
            if spec.action == "timeout":
                injected_delay = spec.delay
            else:
                raise InjectedFault("shard.query", {"shard": shard_id})
        ranking = self.stores[shard_id].rank(query)
        shift = self.stores[shard_id].query_log_shift(query)
        elapsed = self.clock() - started + injected_delay
        registry = obs.get_registry()
        if registry.enabled:
            registry.histogram(
                "repro_shard_call_seconds", {"shard": str(shard_id)}
            ).observe(elapsed)
        if deadline is not None and elapsed > deadline:
            if registry.enabled:
                registry.counter(
                    "repro_shard_deadline_misses_total", {"shard": str(shard_id)}
                ).inc()
            raise TimeoutError(
                f"shard {shard_id} answered in {elapsed:.3f}s, over its "
                f"{deadline:.3f}s deadline"
            )
        return ranking, shift

    def _effective_deadline(
        self, cutoff: Optional[float]
    ) -> tuple[Optional[float], float]:
        """``(per-call deadline, remaining budget)`` given an absolute cutoff.

        With no request budget the static per-shard deadline applies and
        the remaining budget is unbounded; otherwise the tighter of the
        two governs the call.
        """
        if cutoff is None:
            return self.deadline, float("inf")
        remaining = cutoff - self.clock()
        if self.deadline is None:
            return remaining, remaining
        return min(self.deadline, remaining), remaining

    def _scatter(
        self, query: QueryLike, key: tuple[int, ...], cutoff: Optional[float] = None
    ) -> tuple[list[tuple[int, list, float]], GatherResult]:
        """Fan the query out under the degraded-serving policy.

        Returns the mergeable entries ``(shard_id, ranking, shift)`` plus
        a coverage envelope (its ``ranking`` still empty — the caller
        merges). ``cutoff`` is an absolute per-request deadline on the
        router's clock: once passed, remaining shards are skipped without
        a call (and without penalising their breakers — the shard never
        got a chance), and a retry backoff that would overshoot it is
        abandoned. A ``KeyError`` (query term outside the shared
        vocabulary) propagates: that is a caller error, not a shard
        failure.
        """
        envelope = GatherResult(ranking=[], n_shards=self.n_shards)
        entries: list[tuple[int, list, float]] = []
        registry = obs.get_registry()
        for shard_id, breaker in enumerate(self.breakers):
            error: Optional[str] = None
            shard_failed = False
            with obs.span("shard.call", tags={"shard": shard_id}) as shard_span:
                if cutoff is not None and self.clock() >= cutoff:
                    error = "deadline expired before the shard call"
                    if registry.enabled:
                        registry.counter(
                            "repro_shard_deadline_skips_total",
                            {"shard": str(shard_id)},
                        ).inc()
                elif breaker.allows():
                    for attempt in range(self.retries + 1):
                        call_deadline, remaining = self._effective_deadline(cutoff)
                        if remaining <= 0:
                            error = "deadline expired before the shard call"
                            break
                        try:
                            ranking, shift = self._call_shard(
                                shard_id, query, deadline=call_deadline
                            )
                            breaker.record_success()
                            with self._lock:
                                self._stale[(shard_id, key)] = (
                                    ranking,
                                    shift,
                                    self.clock(),
                                )
                            entries.append((shard_id, ranking, shift))
                            envelope.answered.append(shard_id)
                            error = None
                            break
                        except KeyError:
                            raise
                        except Exception as exc:  # noqa: BLE001 — shard fault
                            shard_failed = True
                            error = f"{type(exc).__name__}: {exc}"
                            if attempt < self.retries:
                                sleep_for = self.backoff * (2**attempt)
                                if (
                                    cutoff is not None
                                    and self.clock() + sleep_for >= cutoff
                                ):
                                    # an 80ms budget must not buy a 500ms
                                    # backoff: abandon the retries instead
                                    error += " (no budget left to retry)"
                                    break
                                if registry.enabled:
                                    registry.counter(
                                        "repro_shard_retries_total",
                                        {"shard": str(shard_id)},
                                    ).inc()
                                _time.sleep(sleep_for)
                    if error is not None and shard_failed:
                        breaker.record_failure()
                else:
                    error = f"circuit breaker {breaker.state}"
                if error is None:
                    outcome = "live"
                else:
                    stale = self._fresh_stale(shard_id, key)
                    if stale is not None:
                        ranking, shift = stale
                        entries.append((shard_id, ranking, shift))
                        envelope.stale.append(shard_id)
                        self.stale_served[shard_id] += 1
                        outcome = "stale"
                    else:
                        envelope.failed.append(shard_id)
                        outcome = "failed"
                    envelope.errors[shard_id] = error
                    shard_span.set_error(error)
                shard_span.set_tag("outcome", outcome)
                if registry.enabled:
                    registry.counter(
                        "repro_shard_gather_total",
                        {"shard": str(shard_id), "outcome": outcome},
                    ).inc()
        return entries, envelope

    def _fresh_stale(
        self, shard_id: int, key: tuple[int, ...]
    ) -> Optional[tuple[list, float]]:
        """The shard's stale ``(ranking, shift)`` if young enough, else None.

        Entries older than ``stale_max_age`` are dropped on sight — a
        ranking from a model that failed half an hour ago misleads more
        than an honest gap in coverage.
        """
        with self._lock:
            stale = self._stale.get((shard_id, key))
            if stale is None:
                return None
            ranking, shift, stored_at = stale
            if self.clock() - stored_at > self.stale_max_age:
                del self._stale[(shard_id, key)]
                return None
            return ranking, shift

    def _merged_rank(self, entries: list[tuple[int, list, float]]):
        """Lazily yield ``(global_community, score)`` in non-increasing score
        order, deduplicated first-wins (= max-combining; see module doc).

        Each store's cached ranking carries a per-store, per-query
        rescaling (``ProfileStore.query_log_shift``: the log-affinity max
        divided out for numerical stability). The shards' constants differ
        — every shard fits its own ``phi`` — so before merging, each
        shard's scores are put back on one common scale by
        ``exp(shift_s - max_shift)``. The correction is monotone per
        shard, so the cached per-shard rankings stay valid; only the
        cross-shard comparison needed it. ``entries`` holds the shards
        that answered — all of them on the exact path, a healthy subset
        on the degraded one.
        """
        if not entries:
            return
        reference = max(shift for _sid, _ranking, shift in entries)
        heap: list[tuple[float, int, int]] = []
        rankings: dict[int, list] = {}
        scales: dict[int, float] = {}
        for shard_id, ranking, shift in entries:
            rankings[shard_id] = ranking
            scales[shard_id] = float(np.exp(shift - reference))
            if ranking:
                heap.append((-ranking[0][1] * scales[shard_id], shard_id, 0))
        heapq.heapify(heap)
        seen: set[int] = set()
        mapping = self.alignment.local_to_global
        while heap:
            negative_score, shard_id, index = heapq.heappop(heap)
            local_community, _raw = rankings[shard_id][index]
            if index + 1 < len(rankings[shard_id]):
                heapq.heappush(
                    heap,
                    (
                        -rankings[shard_id][index + 1][1] * scales[shard_id],
                        shard_id,
                        index + 1,
                    ),
                )
            global_community = int(mapping[shard_id][local_community])
            if global_community in seen:
                continue
            seen.add(global_community)
            yield global_community, -negative_score

    def _query_key(self, query: QueryLike) -> tuple[int, ...]:
        # shard subgraphs share the global vocabulary, so shard 0's word
        # ids key the merged ranking for every shard
        key = self.stores[0].query_word_ids(query)
        if not key:
            raise KeyError(f"no query term of {query!r} is in the vocabulary")
        return key

    @staticmethod
    def _gather_span(trace: Optional[dict]):
        """The ``router.gather`` span: remote under ``trace``, else local."""
        if trace is not None:
            return obs.remote_span("router.gather", trace)
        return obs.span("router.gather")

    def _take_cached(self, key: tuple[int, ...], gather_span) -> Optional[GatherResult]:
        """The router-LRU answer for ``key`` as an exact envelope, else None.

        ``get`` counts the hit (or the miss) and refreshes recency.
        """
        cached = self._rank_cache.get(key)
        if cached is None:
            return None
        gather_span.set_tag("outcome", "cached")
        return GatherResult(
            ranking=list(cached),
            n_shards=self.n_shards,
            answered=list(range(self.n_shards)),
        )

    def cached_gather(
        self, query: QueryLike, trace: Optional[dict] = None
    ) -> Optional[GatherResult]:
        """The router-LRU answer :meth:`gather` would give, or None.

        Touches no shard, so it is cheap enough to run on the gateway's
        event loop. The probe is a :meth:`LRUCache.peek`: an absent key
        counts nothing here, because the :meth:`gather` the caller makes
        next counts the miss — each query counts one hit or one miss (a
        key evicted between the peek and the take counts its miss twice).
        Unknown query terms raise ``KeyError`` exactly as in :meth:`gather`,
        and a hit opens the same ``router.gather`` span (``outcome:
        cached``).
        """
        key = self._query_key(query)
        if self._rank_cache.peek(key) is None:
            return None
        with self._gather_span(trace) as gather_span:
            return self._take_cached(key, gather_span)

    def gather(
        self,
        query: QueryLike,
        *,
        budget: Optional[float] = None,
        trace: Optional[dict] = None,
    ) -> GatherResult:
        """Best-effort scatter-gather: merge what answered, report coverage.

        Never raises on shard failure (unknown query terms still raise
        ``KeyError``): tripped or failing shards fall back to their stale
        cached ranking when one exists and are otherwise simply absent
        from the merge, with the envelope accounting for both. Exact
        answers (every shard live) read through and populate the router
        LRU exactly like :meth:`rank`; degraded answers are never cached,
        so they disappear as soon as the shard heals.

        ``budget`` is the seconds left of the *request's* deadline (the
        gateway propagates it from the client's deadline header): shards
        that would start after the budget is spent are skipped, retry
        backoffs that would overshoot it are abandoned, and each shard
        call's own deadline is tightened to the remaining budget. A
        budget-truncated answer is degraded, so it is never cached.

        ``trace`` is an optional span context (``{"trace_id", "span_id"}``,
        the gateway's ``gateway.backend`` span): when given, the
        ``router.gather`` span — and the ``shard.call`` spans under it —
        chain into that request's tree instead of starting a fresh trace.
        """
        key = self._query_key(query)
        cutoff = None if budget is None else self.clock() + max(budget, 0.0)
        with self._gather_span(trace) as gather_span:
            cached = self._take_cached(key, gather_span)
            if cached is not None:
                return cached
            generation = self._generation
            entries, envelope = self._scatter(query, key, cutoff)
            envelope.ranking = list(self._merged_rank(entries))
            if envelope.exact:
                with self._lock:
                    # a hot swap racing this scatter bumped the generation;
                    # its merge describes the replaced model — drop it
                    if generation == self._generation:
                        self._rank_cache.put(key, list(envelope.ranking))
            gather_span.set_tag(
                "outcome", "exact" if envelope.exact else "degraded"
            )
            gather_span.set_tag("coverage", round(envelope.coverage, 4))
        return envelope

    def rank(
        self, query: QueryLike, *, budget: Optional[float] = None
    ) -> list[tuple[int, float]]:
        """Global communities by best-backing Eq. 19 score, best first.

        Merged rankings sit behind a router-level LRU (on top of the
        per-shard rank caches), so a repeated query pays neither the
        scatter nor the heap merge. When shards cannot answer, a router
        built with ``best_effort=True`` returns the partial merge (use
        :meth:`gather` to see the coverage envelope); the strict default
        raises :class:`DegradedError` instead, since a partial merge is
        not the exact answer this method promises. ``budget`` propagates
        a per-request deadline exactly as in :meth:`gather`.
        """
        envelope = self.gather(query, budget=budget)
        if not envelope.exact and not self.best_effort:
            raise DegradedError(
                envelope.errors
                or {shard: "no answer" for shard in envelope.failed}
            )
        return list(envelope.ranking)

    def top_k(self, query: QueryLike, k: int = 5) -> list[int]:
        """Top-``k`` global community ids, as a prefix of :meth:`rank`.

        Delegates so repeated ``top_k``-only workloads fill and hit the
        router LRU like ``rank`` does. (:meth:`_merged_rank` still yields
        lazily — a huge-``C`` deployment could consume it directly to stop
        after ``k`` labels, which the first-wins/max-combining argument
        makes exact — but at community-sized ``n_global`` the cached full
        merge wins.)
        """
        return [c for c, _score in self.rank(query)[:k]]

    def scores(self, query: QueryLike) -> np.ndarray:
        """Best-backing score per global community, shape ``(n_global,)``.

        Reads through the router LRU like :meth:`rank`/:meth:`top_k`.
        """
        scores = np.zeros(self.alignment.n_global, dtype=np.float64)
        for global_community, score in self.rank(query):
            scores[global_community] = score
        return scores

    def cache_info(self) -> dict:
        """Aggregated per-shard LRU counters, the per-shard breakdown, the
        router-level merged-ranking cache, and per-shard health.

        The top-level keys follow the canonical ``cache_info()`` schema
        (:mod:`repro.serving.cache`), aggregated with
        :func:`~repro.serving.cache.merge_cache_infos` — so a store that
        appears more than once behind the router (re-wrapped or re-listed
        after :meth:`hot_swap_shard`) is counted once, not twice. The
        router's own merged-rank LRU stays under ``"router"``: it sees the
        same logical queries as the shard caches, so folding it into the
        top-level sums would double-count every routed query.

        Works while shards are tripped or unreachable: the store-side LRU
        counters are local reads, no scatter happens here.
        """
        per_shard = [store.cache_info() for store in self.stores]
        return {
            **merge_cache_infos(per_shard),
            "shards": per_shard,
            "router": self._rank_cache.info(),
            "health": [
                {**breaker.info(), "stale_served": served}
                for breaker, served in zip(self.breakers, self.stale_served)
            ],
        }

    # ------------------------------------------------------------ query index

    def indexed_terms(self) -> list[str]:
        """Union of the shards' indexed query terms, by merged frequency."""
        with self._lock:
            if self._query_terms is None:
                frequency: dict[str, int] = {}
                for store in self.stores:
                    for query in store.indexed_queries():
                        frequency[query.term] = (
                            frequency.get(query.term, 0) + query.frequency
                        )
                self._query_terms = [
                    term
                    for term, _count in sorted(
                        frequency.items(), key=lambda item: (-item[1], item[0])
                    )
                ]
            return list(self._query_terms)

    def relevant_users(self, term: str) -> np.ndarray:
        """Global ground-truth user set ``U*_q``: union over the shards."""
        gathered: list[np.ndarray] = []
        for store, user_map in zip(self.stores, self.user_maps):
            query = store.query_index().get(term)
            if query is not None:
                gathered.append(user_map[query.relevant_users])
        if not gathered:
            raise KeyError(f"term {term!r} is indexed on no shard")
        return np.unique(np.concatenate(gathered))

    # ------------------------------------------------------------ memberships

    def community_members(self, k: int = 5) -> list[np.ndarray]:
        """Global member user ids per *global* community (top-``k`` rule)."""
        with self._lock:
            if k not in self._members:
                gathered: list[list[np.ndarray]] = [
                    [] for _ in range(self.alignment.n_global)
                ]
                for shard_id, (store, user_map) in enumerate(
                    zip(self.stores, self.user_maps)
                ):
                    mapping = self.alignment.local_to_global[shard_id]
                    for local_community, members in enumerate(
                        store.community_members(k)
                    ):
                        gathered[int(mapping[local_community])].append(
                            user_map[members]
                        )
                self._members[k] = [
                    np.unique(np.concatenate(parts))
                    if parts
                    else np.zeros(0, dtype=np.int64)
                    for parts in gathered
                ]
            return self._members[k]

    def _representative_shard(self) -> np.ndarray:
        """Per global community: the shard-local backing with the most user
        mass, as ``(shard_id, local_community)`` rows, shape (n_global, 2).

        Global labels backed by several shards take their display label
        from the heaviest backing.
        """
        with self._lock:
            if self._representative is None:
                n_global = self.alignment.n_global
                best_mass = np.full(n_global, -1.0)
                representative = np.zeros((n_global, 2), dtype=np.int64)
                for shard_id, store in enumerate(self.stores):
                    mapping = self.alignment.local_to_global[shard_id]
                    mass = store.result.pi.sum(axis=0)
                    for local_community in range(store.n_communities):
                        g = int(mapping[local_community])
                        if mass[local_community] > best_mass[g]:
                            best_mass[g] = mass[local_community]
                            representative[g] = (shard_id, local_community)
                self._representative = representative
            return self._representative

    # ----------------------------------------------------------------- labels

    def labels(self, n_words: int = 3) -> list[str]:
        """Per-global-community labels, from the heaviest backing shard."""
        with self._lock:
            if n_words not in self._labels:
                representative = self._representative_shard()
                shard_labels = [store.labels(n_words) for store in self.stores]
                self._labels[n_words] = [
                    shard_labels[int(shard_id)][int(local_community)]
                    for shard_id, local_community in representative
                ]
            return self._labels[n_words]

    # --------------------------------------------------------------- hot swap

    def invalidate(self) -> None:
        """Drop every router-level gathered memo (shard caches untouched).

        The merged-rank LRU empties too — a swapped shard changes merged
        answers — but its cumulative hit/miss counters survive for
        monitoring continuity, mirroring :meth:`ProfileStore.invalidate`.
        """
        with self._lock:
            self._generation += 1
            self._rank_cache.clear()
            self._members.clear()
            self._labels.clear()
            self._representative = None
            self._query_terms = None

    def hot_swap_shard(
        self,
        shard_id: int,
        result: CPDResult,
        summary: GraphSummary | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> None:
        """Swap a newer result into one shard's store; the router survives.

        The shard's own :meth:`ProfileStore.hot_swap` validation applies;
        the community count must stay aligned with the stored mapping
        (streaming refreshes keep ``C`` fixed, so this holds by
        construction). Router-level gathered memos are invalidated; the
        other shards' stores and caches are untouched. Swapping also
        *revives* the shard: its circuit breaker force-closes and its
        stale cached rankings are dropped (they describe the replaced
        model), so the next query goes back to exact merges.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"shard {shard_id} out of range")
        expected = self.alignment.local_to_global[shard_id].shape[0]
        if result.n_communities != expected:
            raise ValueError(
                f"shard {shard_id} is aligned over {expected} communities but "
                f"the new result has {result.n_communities} — refit the "
                "alignment instead of hot-swapping"
            )
        with self._lock:
            self.stores[shard_id].hot_swap(
                result, summary=summary, vocabulary=vocabulary
            )
            self.breakers[shard_id].reset()
            for stale_key in [k for k in self._stale if k[0] == shard_id]:
                del self._stale[stale_key]
            self.invalidate()


def build_manifest(
    plan,
    artifact_names: list[str],
    alignment: ShardAlignment | None = None,
) -> ShardManifest:
    """Assemble a :class:`~repro.core.io.ShardManifest` from a shard plan.

    ``artifact_names`` are the per-shard artifact filenames *relative to the
    manifest's directory*.
    """
    from ..core.io import ShardEntry  # local import keeps io.py shard-agnostic

    if len(artifact_names) != plan.n_shards:
        raise ValueError("one artifact name per shard required")
    entries = [
        ShardEntry(
            shard_id=part.shard_id,
            path=artifact_names[part.shard_id],
            users=part.users,
            doc_ids=part.doc_ids,
        )
        for part in plan.shards
    ]
    return ShardManifest(
        strategy=plan.strategy,
        graph_name=plan.graph_name,
        shards=entries,
        spill=plan.spill.to_dict(),
        alignment=alignment.to_dict() if alignment is not None else None,
    )
