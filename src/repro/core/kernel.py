"""Sweep kernels: the Gibbs E-step's per-document resample loop.

``CPDSampler`` delegates each sweep (Alg. 1 steps 3-6: the Eq. 13 topic
draw, then the Eq. 14 community draw, per document) to a kernel object
selected by ``CPDConfig.sweep_kernel``:

* :class:`CompiledKernel` (the default) runs the whole sweep — conditional
  builds, categorical draws, and counting-state updates — inside one C
  function compiled at first use (:mod:`repro.core._compiled`), and the
  rest of the E-step's link work too: the Eq. 15/16 Pólya-Gamma tilts and
  draws and the Eq. 5 components. It keeps the per-link arrays in CSR
  order (link timestamps, feature projections ``nu^T f``, augmentation
  variables, both ``eta`` orientations) so the C code reads contiguous
  slices, and hands C one context struct for the fit's life.
* :class:`ReferenceKernel` loops the sampler's literal per-word / per-link
  conditionals and runs the sampler's numpy link bodies — the executable
  specification of the model, and the fallback when no C toolchain is
  available: ``make_kernel`` then warns once per process and records why
  (DESIGN.md §4, §10).

Both kernels read the same mutable state and consume one uniform per
draw, so they are interchangeable mid-fit and matched seeds draw
identically; the parity tests live in ``tests/test_core_kernel.py``.
"""

from __future__ import annotations

import ctypes
import operator
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..sampling.polya_gamma import sample_pg_array
from . import _compiled
from .layout import split_word_multiplicity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .gibbs import CPDSampler

#: last compiled-backend fallback, for CLI/diagnostics: the reason string,
#: and whether the one-per-process warning has fired already
_FALLBACK_STATE: dict = {"reason": None, "warned": False}


def compiled_fallback_reason() -> str | None:
    """Why the last ``sweep_kernel="compiled"`` request fell back, if it did."""
    return _FALLBACK_STATE["reason"]


def reset_fallback_state() -> None:
    """Forget past fallbacks so the next one warns again (test hook)."""
    _FALLBACK_STATE["reason"] = None
    _FALLBACK_STATE["warned"] = False


def _note_fallback(reason: str) -> None:
    _FALLBACK_STATE["reason"] = reason
    if not _FALLBACK_STATE["warned"]:
        _FALLBACK_STATE["warned"] = True
        warnings.warn(
            f"compiled sweep kernel unavailable ({reason}); "
            "falling back to the reference kernel",
            RuntimeWarning,
            stacklevel=4,
        )


def make_kernel(sampler: "CPDSampler"):
    """Build the sweep kernel selected by ``sampler.config.sweep_kernel``."""
    if sampler.config.sweep_kernel == "reference":
        return ReferenceKernel(sampler)
    try:
        return CompiledKernel(sampler)
    except _compiled.CompiledBackendUnavailable as error:
        _note_fallback(str(error))
        kernel = ReferenceKernel(sampler)
        kernel.fallback_reason = str(error)
        return kernel


@dataclass(frozen=True)
class SweepStats:
    """What one kernel sweep did — every backend returns one.

    For the compiled backend this is the Python face of the C call's
    outputs (documents processed, uniforms consumed); the reference kernel
    fills the same fields so telemetry reads one shape regardless of which
    backend ran.
    """

    kernel: str
    n_docs: int
    draws: int
    seconds: float


def _checked_doc_ids(doc_ids: np.ndarray | None, n_docs: int) -> np.ndarray:
    """The sweep's document ids as a contiguous int64 array, range-checked."""
    if doc_ids is None:
        return np.arange(n_docs, dtype=np.int64)  # includes stream-appended documents
    ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= n_docs):
        raise ValueError("sweep document ids out of range")
    return ids


#: which link set a PG tilt or draw covers (``link_tilts``, ``draw_pg``)
FRIENDSHIP, DIFFUSION = 0, 1


class ReferenceKernel:
    """Per-word / per-link loop implementation (the executable spec).

    The link methods run the sampler's numpy bodies, the spec the compiled
    kernel's C entry points are held to.
    """

    name = "reference"
    #: the nu M-step keeps the numpy Newton loop
    uses_compiled_solver = False

    def __init__(self, sampler: "CPDSampler") -> None:
        self.sampler = sampler

    def link_tilts(self, which: int, start: int, stop: int) -> np.ndarray:
        """PG tilts of links ``[start, stop)`` (Eq. 15 or Eq. 16)."""
        if which == FRIENDSHIP:
            return self.sampler._friendship_tilts(start, stop)
        return self.sampler._diffusion_tilts(start, stop)

    def link_components(
        self, source_docs: np.ndarray, target_docs: np.ndarray, timestamps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 5 community and popularity components of a link batch."""
        return self.sampler._link_components(source_docs, target_docs, timestamps)

    def draw_pg(
        self, which: int, start: int, stop: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fresh PG(1, tilt) draws for links ``[start, stop)`` and the tilts."""
        tilts = self.link_tilts(which, start, stop)
        return sample_pg_array(tilts, rng), tilts

    def append_documents(self, first_new_doc: int) -> None:
        """No-op: the reference loops read the sampler's arrays directly."""

    def rebuild_link_layout(self) -> None:
        """No-op: the reference loops read the sampler's arrays directly."""

    def sweep(self, doc_ids: np.ndarray | None = None) -> SweepStats:
        """One Gibbs sweep (Alg. 1 steps 3-6) over ``doc_ids`` (default: all)."""
        sampler = self.sampler
        started = time.perf_counter()
        ids = _checked_doc_ids(doc_ids, sampler.state.n_docs)
        for doc_id in ids.tolist():
            sampler._resample_document(doc_id)
        draws_per_doc = 1 if sampler.fixed_communities is not None else 2
        return SweepStats(
            kernel=self.name,
            n_docs=len(ids),
            draws=draws_per_doc * len(ids),
            seconds=time.perf_counter() - started,
        )


#: pointer fields of the persistent ctx and the kernel attribute path each
#: one's array is read from; the pi/theta caches are read through their
#: flushing accessors, and the scratch buffers are pointed once
_CTX_SOURCES = (
    ("doc_user", "sampler._doc_user"),
    ("doc_time", "sampler._doc_time"),
    ("doc_community", "state.doc_community"),
    ("doc_topic", "state.doc_topic"),
    ("fixed_communities", "sampler.fixed_communities"),
    ("user_community", "state.user_community"),
    ("user_totals", "state.user_totals"),
    ("community_topic", "state.community_topic"),
    ("community_totals", "state.community_totals"),
    ("topic_word", "state.topic_word"),
    ("topic_totals", "state.topic_totals"),
    ("pop_counts", "sampler.popularity._counts"),
    ("ws_words", "ws_words"),
    ("ws_indptr", "ws_indptr"),
    ("wm_words", "wm_words"),
    ("wm_indptr", "wm_indptr"),
    ("wm_counts", "wm_counts"),
    ("doc_lengths", "_doc_lengths_f64"),
    ("f_indptr", "sampler.f_csr_indptr"),
    ("f_neighbor", "sampler.f_csr_neighbor"),
    ("f_lambdas", "_f_lambdas"),
    ("f_src", "sampler.f_src"),
    ("f_tgt", "sampler.f_tgt"),
    ("e_src", "sampler.e_src"),
    ("e_tgt", "sampler.e_tgt"),
    ("e_time", "sampler.e_time"),
    ("e_feature", "_e_feature"),
    ("d_indptr", "sampler.d_csr_indptr"),
    ("d_other", "_d_other"),
    ("d_other_user", "_d_other_user"),
    ("d_time", "_d_time"),
    ("d_is_source", "_d_orientation"),
    ("d_deltas", "_d_deltas"),
    ("d_feature", "_d_feature"),
    ("dout_indptr", "sampler.dout_csr_indptr"),
    ("dout_target_user", "_dout_target_user"),
    ("dout_time", "_dout_time"),
    ("dout_deltas", "_dout_deltas"),
    ("dout_feature", "_dout_feature"),
    ("eta_oriented", "_eta_oriented"),
    ("eta", "_eta"),
)
#: every pointer field _sync keeps current, in the order it reads them
_CTX_POINTED = tuple(name for name, _ in _CTX_SOURCES) + ("pi_cache", "theta_cache")
_UNBOUND = object()


class CompiledKernel:
    """C implementation of the fused sweep (DESIGN.md §4, §10).

    Computes the Eq. 13 / Eq. 14 conditionals — and, through :meth:`sweep`,
    the entire per-document resample loop including count updates and
    categorical draws — in the runtime-compiled C library, plus the
    Eq. 15/16 augmentation tilts and draws (:meth:`draw_pg`) and the Eq. 5
    components (:meth:`link_components`). The C code mutates the *same*
    arrays ``CPDState`` owns through one ``CpdCtx`` pointer struct kept for
    the kernel's life. Each entry into C (:meth:`_sync`) writes the
    parameter scalars and re-points a field only when the sampler replaced
    its array (an M-step swap, a snapshot load, a popularity rebuild, a
    streaming append, a helper refresh), so those keep working unchanged.

    RNG contract: C reads the bit generator of the sampler's current
    ``Generator`` directly, under its lock (DESIGN.md §10): the sweep one
    uniform per categorical draw, as ``rng.random()`` would give it, so
    matched seeds stay aligned with the reference kernel draw for draw;
    the PG draws read the stream of ``sample_pg_array``'s uniform blocks.

    The C conditionals are exact rewrites of the reference loops: Eq. 13's
    word likelihood as one running product per topic (a ``log`` only when
    it would leave the normal range), Eq. 14's friendship factors from the
    swept user's friendship statistics, which the ctx holds in kernel-owned
    scratch and rebuilds when the user changes. The sweep keeps each
    conditional as linear weights and log scales and draws from them
    without a log per entry; the standalone conditionals return the logs
    (DESIGN.md §4, §10).
    """

    name = "compiled"
    #: the nu M-step runs the compiled Newton solver
    uses_compiled_solver = True

    def __init__(self, sampler: "CPDSampler") -> None:
        # raises CompiledBackendUnavailable before any layout work when the
        # backend cannot load; make_kernel turns that into the fallback
        self._lib = _compiled.load_library()
        self.sampler = sampler
        self.state = sampler.state
        config = sampler.config
        state = sampler.state

        n_topics = config.n_topics
        n_communities = config.n_communities
        self._build_word_layout(sampler)
        self._build_link_layout(sampler)
        # eta as C reads it, rewritten in place by _refresh_caches: its own
        # [k][d][z] layout, and [orientation, z, c, d] (see there)
        self._eta = np.empty((n_communities, n_communities, n_topics))
        self._eta_oriented = np.empty((2, n_topics, n_communities, n_communities))

        # identity-keyed caches over per-iteration arrays (see _refresh_caches)
        self._eta_source: np.ndarray | None = None
        self._nu_source: np.ndarray | None = None
        self._lambdas_source: np.ndarray | None = None
        self._deltas_source: np.ndarray | None = None

        self._scratch = {
            "scratch_z": np.empty(2 * n_topics),
            "scratch_c": np.empty(2 * n_communities),
            "scratch_wu": np.empty(n_communities * n_topics),
            "scratch_folded": np.empty(n_communities * n_topics),
            "scratch_q": np.empty(n_communities),
            "scratch_base": np.empty(n_communities),
            "scratch_cum": np.empty(max(n_topics, n_communities)),
            "scratch_eta": np.empty(n_communities * n_communities * n_topics),
            "scratch_bilinear": np.empty(n_topics),
            "scratch_friend_sum": np.empty(n_communities),
            "scratch_friend_gram": np.empty(n_communities * n_communities),
        }

        # the persistent ctx: config- and prior-derived fields are fixed
        # for the sampler's life; _sync keeps the rest current
        ctx = self._ctx = _compiled.CpdCtx()
        self._ctx_p = ctypes.pointer(ctx)
        for name, value in (
            ("n_users", state.n_users),
            ("n_words", state.n_words),
            ("n_communities", state.n_communities),
            ("n_topics", state.n_topics),
            ("profile_mode", sampler.uses_profile_diffusion),
            ("similarity_mode", sampler.uses_similarity_diffusion),
            ("model_friendship", config.model_friendship),
            ("use_topic_factor", config.use_topic_factor),
            ("use_individual_factor", config.use_individual_factor),
            ("community_uses_content", config.community_uses_content),
        ):
            setattr(ctx, name, int(value))
        for name, value in (
            ("alpha", state.alpha),
            ("rho", state.rho),
            ("beta", state.beta),
            ("words_beta", state.n_words * state.beta),
            ("topics_alpha", n_topics * state.alpha),
            ("comm_denom_offset", 1.0 + n_communities * state.rho),
            ("pi_denom_offset", n_communities * state.rho),
            ("theta_denom_offset", n_topics * state.alpha),
        ):
            setattr(ctx, name, float(value))
        for name, array in self._scratch.items():
            _compiled.set_pointer(ctx, name, array)
        self._read_sources = operator.attrgetter(*(path for _, path in _CTX_SOURCES))
        # the array each pointer field was last pointed at (kept alive here)
        self._bound: list = [_UNBOUND] * len(_CTX_POINTED)

    # ---------------------------------------------------------------- layout

    def _build_word_layout(self, sampler: "CPDSampler") -> None:
        """CSR doc -> (word, count) layout, split by multiplicity.

        Words occurring once in a document (the dominant case in short
        social-media posts) contribute one factor to the Eq. 13 product
        with no inner loop; repeated words one factor per occurrence.
        """
        state = sampler.state
        split = split_word_multiplicity(
            state._unique_words, state._unique_counts, state._unique_indptr
        )
        self.ws_words = split["ws_words"]
        self.wm_words = split["wm_words"]
        self.wm_counts = split["wm_counts"]
        self.ws_indptr = split["ws_indptr"]
        self.wm_indptr = split["wm_indptr"]
        self._doc_lengths_f64 = np.ascontiguousarray(sampler._doc_lengths, dtype=np.float64)

    def _build_link_layout(self, sampler: "CPDSampler") -> None:
        """Static per-link arrays materialised in CSR order.

        Reordering once here turns every per-document access into a
        contiguous slice instead of a gather.
        """
        self._d_other = sampler.d_csr_other
        self._d_orientation = sampler.d_csr_is_source.astype(np.int8)
        self._d_other_user = sampler._doc_user[sampler.d_csr_other]
        self._d_time = sampler.e_time[sampler.d_csr_link]
        self._dout_target_user = sampler._doc_user[sampler.dout_csr_target]
        self._dout_time = sampler.e_time[sampler.dout_csr_link]
        # per-iteration link arrays: _refresh_caches rewrites them in place,
        # so their ctx pointers stay fixed until the next layout rebuild
        self._f_lambdas = np.empty(len(sampler.f_csr_link))
        self._d_deltas = np.empty(len(sampler.d_csr_link))
        self._dout_deltas = np.empty(len(sampler.dout_csr_link))
        self._e_feature = np.empty(len(sampler.e_features))
        self._d_feature = np.empty(len(sampler.d_csr_link))
        self._dout_feature = np.empty(len(sampler.dout_csr_link))

    # ------------------------------------------------------- streaming appends

    def append_documents(self, first_new_doc: int) -> None:
        """Extend the word layout with documents appended to the sampler.

        The streaming update-in-place path: only the new documents'
        (word, count) rows are split and appended — existing layout entries
        are untouched. The new documents have no incident links yet; the
        next entry into C re-points the ctx at the grown arrays.
        """
        sampler = self.sampler
        state = sampler.state
        first = int(state._unique_indptr[first_new_doc])
        split = split_word_multiplicity(
            state._unique_words[first:],
            state._unique_counts[first:],
            state._unique_indptr[first_new_doc:] - first,
        )
        self.ws_words = np.concatenate([self.ws_words, split["ws_words"]])
        self.wm_words = np.concatenate([self.wm_words, split["wm_words"]])
        self.wm_counts = np.concatenate([self.wm_counts, split["wm_counts"]])
        self.ws_indptr = np.concatenate(
            [self.ws_indptr, split["ws_indptr"][1:] + self.ws_indptr[-1]]
        )
        self.wm_indptr = np.concatenate(
            [self.wm_indptr, split["wm_indptr"][1:] + self.wm_indptr[-1]]
        )
        self._doc_lengths_f64 = np.ascontiguousarray(sampler._doc_lengths, dtype=np.float64)

    def rebuild_link_layout(self) -> None:
        """Re-derive the link layout after the sampler appended links.

        The CSR order changes wholesale, so the static per-link arrays and
        the per-iteration buffers are rebuilt and every CSR-ordered
        per-iteration cache is invalidated (their identity keys would
        otherwise miss the reorder).
        """
        self._build_link_layout(self.sampler)
        self._eta_source = None
        self._nu_source = None
        self._lambdas_source = None
        self._deltas_source = None

    def _refresh_caches(self) -> None:
        """Re-derive per-iteration link arrays when their source changes.

        ``eta`` / ``nu`` are replaced by the M-step and ``lambdas`` /
        ``deltas`` by the augmentation draws — all whole-array swaps, so an
        identity check per entry into C is enough to keep CSR-ordered copies
        in sync. The copies are written into kernel-owned buffers, so no
        ctx field is re-pointed between layout rebuilds. In-place mutation
        of a snapshotted source array is not supported; each source is
        frozen (``writeable = False``) so such a mutation raises instead of
        silently serving stale conditionals.
        """
        sampler = self.sampler
        params = sampler.params
        if params.eta is not self._eta_source:
            self._eta_source = params.eta
            params.eta.flags.writeable = False
            np.copyto(self._eta, params.eta)
            # [orientation, z, c, d]: orientation 1 reads eta[c, d, z]
            # (outgoing links), orientation 0 its transpose (incoming)
            np.copyto(self._eta_oriented[0], np.transpose(params.eta, (2, 1, 0)))
            np.copyto(self._eta_oriented[1], np.transpose(params.eta, (2, 0, 1)))
        if params.nu is not self._nu_source:
            self._nu_source = params.nu
            params.nu.flags.writeable = False
            np.matmul(sampler.e_features, params.nu, out=self._e_feature)
            np.take(self._e_feature, sampler.d_csr_link, out=self._d_feature)
            np.take(self._e_feature, sampler.dout_csr_link, out=self._dout_feature)
        if sampler.lambdas is not self._lambdas_source:
            self._lambdas_source = sampler.lambdas
            sampler.lambdas.flags.writeable = False
            np.take(sampler.lambdas, sampler.f_csr_link, out=self._f_lambdas)
        if sampler.deltas is not self._deltas_source:
            self._deltas_source = sampler.deltas
            sampler.deltas.flags.writeable = False
            np.take(sampler.deltas, sampler.d_csr_link, out=self._d_deltas)
            np.take(sampler.deltas, sampler.dout_csr_link, out=self._dout_deltas)

    # ------------------------------------------------------------------- ctx

    def _sync(self):
        """Bring the persistent ctx up to date; returns the pointer to pass C.

        Runs on every entry into C: it writes the scalars that may change
        between calls (the factor weights, the document count, the
        popularity table's shape) and re-points each pointer field whose
        source array is no longer the object it was pointed at. Flushing
        ``pi_hat_view`` / ``theta_hat_view`` here means C always starts
        from fresh caches and keeps the rows it touches fresh itself (same
        ``(count + prior) / (total + offset)`` arithmetic, validated by
        ``check_consistency`` at 1e-12).
        """
        self._refresh_caches()
        sampler = self.sampler
        state = self.state
        params = sampler.params
        popularity = sampler.popularity
        ctx = self._ctx
        ctx.n_docs = state.n_docs
        ctx.has_fixed = sampler.fixed_communities is not None
        ctx.n_time_buckets = popularity.n_time_buckets
        ctx.comm_weight = float(params.comm_weight)
        ctx.pop_weight = float(params.pop_weight)
        ctx.bias = float(params.bias)
        sources = self._read_sources(self) + (state.pi_hat_view(), state.theta_hat_view())
        bound = self._bound
        for index, source in enumerate(sources):
            if source is not bound[index]:
                self._point(index, source)
        return self._ctx_p

    def _point(self, index: int, source: np.ndarray | None) -> None:
        """Point ctx field ``_CTX_POINTED[index]`` at ``source``."""
        name = _CTX_POINTED[index]
        _compiled.set_pointer(self._ctx, name, source)
        self._bound[index] = source

    # ----------------------------------------------------------- conditionals

    def topic_log_weights(self, doc_id: int, community: int) -> np.ndarray:
        """Eq. 13 log-weights computed by the C conditional builder."""
        ctx = self._sync()
        out = np.empty(self.state.n_topics)
        self._lib.cpd_topic_log_weights(
            ctx,
            ctypes.c_int64(int(doc_id)),
            ctypes.c_int64(int(community)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        return out

    def community_log_weights(self, doc_id: int, topic: int) -> np.ndarray:
        """Eq. 14 log-weights computed by the C conditional builder."""
        ctx = self._sync()
        out = np.empty(self.state.n_communities)
        self._lib.cpd_community_log_weights(
            ctx,
            ctypes.c_int64(int(doc_id)),
            ctypes.c_int64(int(topic)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        return out

    # ------------------------------------------------------- links and tilts

    def _link_range(self, which: int, start: int, stop: int) -> int:
        total = self.sampler.n_friend_links if which == FRIENDSHIP else self.sampler.n_diff_links
        if not 0 <= start <= stop <= total:
            raise ValueError(f"link range [{start}, {stop}) outside [0, {total})")
        return stop - start

    def link_tilts(self, which: int, start: int, stop: int) -> np.ndarray:
        """PG tilts of links ``[start, stop)`` (``cpd_link_tilts``).

        ``FRIENDSHIP``: ``pi_hat_u . pi_hat_v`` (``friendship_dots``);
        ``DIFFUSION``: the Eq. 16 tilt of ``draw_delta_range``.
        """
        tilts = np.empty(self._link_range(which, start, stop))
        self._lib.cpd_link_tilts(self._sync(), which, start, stop, tilts.ctypes.data)
        return tilts

    def link_components(
        self, source_docs: np.ndarray, target_docs: np.ndarray, timestamps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 5 community and popularity components of a link batch.

        The C form of ``CPDSampler.diffusion_components``'s numpy spec, for
        any batch (all of E, E with its negatives, a worker's range).
        Raises ``IndexError`` for a document id or, with the topic factor
        on, a timestamp outside the sampler's tables.
        """
        source_docs = np.ascontiguousarray(source_docs, dtype=np.int64)
        target_docs = np.ascontiguousarray(target_docs, dtype=np.int64)
        timestamps = np.ascontiguousarray(timestamps, dtype=np.int64)
        n = len(source_docs)
        if target_docs.shape != (n,) or timestamps.shape != (n,):
            raise ValueError("source, target and timestamp arrays must align")
        community = np.empty(n)
        popularity = np.empty(n)
        status = self._lib.cpd_link_components(
            self._sync(), source_docs.ctypes.data, target_docs.ctypes.data,
            timestamps.ctypes.data, n, community.ctypes.data, popularity.ctypes.data,
        )
        if status < 0:
            raise IndexError("link document id or timestamp out of range")
        return community, popularity

    def draw_pg(
        self, which: int, start: int, stop: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fresh PG(1, tilt) draws for links ``[start, stop)`` and the tilts.

        The C tilts, then ``sample_pg_array``'s compiled rounds: both run
        inside GIL-free ctypes calls, and the Generator is read as by the
        numpy spec. A non-finite tilt raises ``ValueError``.
        """
        tilts = self.link_tilts(which, start, stop)
        return sample_pg_array(tilts, rng, compiled=True), tilts

    # ------------------------------------------------------------------ sweep

    def sweep(self, doc_ids: np.ndarray | None = None) -> SweepStats:
        """Fused sweep: the whole partition resampled in one C call."""
        started = time.perf_counter()
        sampler = self.sampler
        state = self.state
        ids = _checked_doc_ids(doc_ids, state.n_docs)
        n = len(ids)
        if n == 0:
            return SweepStats(kernel=self.name, n_docs=0, draws=0, seconds=0.0)
        if state.n_unassigned and np.any(state.doc_topic[ids] < 0):
            raise ValueError("compiled sweep requires currently-assigned documents")
        ctx = self._sync()
        # the sampler's current Generator: the thread runner swaps it per sweep
        lock, bit_generator = _compiled.bit_generator(sampler.rng)
        with lock:
            consumed = self._lib.cpd_sweep_docs(ctx, ids.ctypes.data, n, bit_generator)
        return SweepStats(
            kernel=self.name,
            n_docs=n,
            draws=int(consumed),
            seconds=time.perf_counter() - started,
        )
