"""Sweep kernels: the Gibbs E-step's per-document resample loop.

``CPDSampler`` delegates each sweep (Alg. 1 steps 3-6: the Eq. 13 topic
draw, then the Eq. 14 community draw, per document) to a kernel object
selected by ``CPDConfig.sweep_kernel``:

* :class:`CompiledKernel` (the default) runs the whole sweep — conditional
  builds, categorical draws, and counting-state updates — inside one C
  function compiled at first use (:mod:`repro.core._compiled`). It keeps
  the per-link arrays in CSR order (link timestamps, feature projections
  ``nu^T f``, augmentation variables, both ``eta`` orientations) so the C
  code reads contiguous slices.
* :class:`ReferenceKernel` loops the sampler's literal per-word / per-link
  conditionals — the executable specification of the model, and the
  fallback when no C toolchain is available: ``make_kernel`` then warns
  once per process and records why (DESIGN.md §4, §10).

Both kernels read the same mutable state and consume one uniform per
draw, so they are interchangeable mid-fit and matched seeds draw
identically; the parity tests live in ``tests/test_core_kernel.py``.
"""

from __future__ import annotations

import ctypes
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

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


class ReferenceKernel:
    """Per-word / per-link loop implementation (the executable spec)."""

    name = "reference"

    def __init__(self, sampler: "CPDSampler") -> None:
        self.sampler = sampler

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


class CompiledKernel:
    """C implementation of the fused sweep (DESIGN.md §4, §10).

    Computes the Eq. 13 / Eq. 14 conditionals — and, through :meth:`sweep`,
    the entire per-document resample loop including count updates and
    categorical draws — in the runtime-compiled C library. The C code
    mutates the *same* arrays ``CPDState`` owns through a pointer struct
    rebuilt on every entry, so M-step array swaps and streaming appends
    keep working unchanged.

    RNG contract: the sweep pre-draws one uniform per categorical draw from
    the sampler's ``Generator`` (``rng.random(k)`` consumes the same bit
    stream as ``k`` scalar draws), so matched seeds stay aligned with the
    reference kernel draw for draw.

    The kernel also owns the count-log tables and the per-topic ``lgamma``
    memo the C topic conditional reads (:meth:`_build_count_tables`); they
    return the same bits as the libm calls they replace.
    """

    name = "compiled"
    #: gibbs hands the augmentation draws to the compiled PG sampler
    uses_compiled_pg = True

    _POP_MODES = {"raw": 0, "proportion": 1, "log": 2}

    def __init__(self, sampler: "CPDSampler") -> None:
        # raises CompiledBackendUnavailable before any layout work when the
        # backend cannot load; make_kernel turns that into the fallback
        self._lib = _compiled.load_library()
        self.sampler = sampler
        self.state = sampler.state
        config = sampler.config

        # config- and prior-derived constants (fixed for the sampler's life)
        self._profile_mode = sampler.uses_profile_diffusion
        self._similarity_mode = sampler.uses_similarity_diffusion
        self._model_friendship = config.model_friendship
        self._use_topic_factor = config.use_topic_factor
        self._use_individual_factor = config.use_individual_factor
        self._community_uses_content = config.community_uses_content
        state = sampler.state
        self._alpha = state.alpha
        self._rho = state.rho
        self._beta = state.beta
        self._words_beta = state.n_words * state.beta
        self._topics_alpha = config.n_topics * state.alpha
        self._denominator_offset = 1.0 + config.n_communities * state.rho

        self._build_word_layout(sampler)
        self._build_link_layout(sampler)

        # identity-keyed caches over per-iteration arrays (see _refresh_caches)
        self._eta_source: np.ndarray | None = None
        self._nu_source: np.ndarray | None = None
        self._lambdas_source: np.ndarray | None = None
        self._deltas_source: np.ndarray | None = None

        n_topics = config.n_topics
        n_communities = config.n_communities
        self._scratch = {
            "scratch_z": np.empty(n_topics),
            "scratch_c": np.empty(n_communities),
            "scratch_wu": np.empty(n_communities * n_topics),
            "scratch_folded": np.empty(n_communities * n_topics),
            "scratch_q": np.empty(n_communities),
            "scratch_base": np.empty(n_communities),
            "scratch_cum": np.empty(max(n_topics, n_communities)),
        }
        # lgamma(topic_totals[z] + W beta) memo, keyed by its exact argument
        # (so it never goes stale); NaN keys match nothing
        self._lgamma_cache = np.full(2 * n_topics, np.nan)
        self._build_count_tables()

    # ---------------------------------------------------------------- layout

    def _build_word_layout(self, sampler: "CPDSampler") -> None:
        """CSR doc -> (word, count) layout, split by multiplicity.

        Words occurring once in a document (the dominant case in short
        social-media posts) take a count-log lookup; repeated words take
        the two-``lgamma`` ascending-factorial form.
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

    # ------------------------------------------------------- streaming appends

    def append_documents(self, first_new_doc: int) -> None:
        """Extend the word layout with documents appended to the sampler.

        The streaming update-in-place path: only the new documents'
        (word, count) rows are split and appended — existing layout entries
        are untouched. The new documents have no incident links yet, and
        the doc-indexed link pointers are read from the sampler per call.
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
        self._build_count_tables()

    def rebuild_link_layout(self) -> None:
        """Re-derive the link layout after the sampler appended links.

        The CSR order changes wholesale, so the static per-link arrays are
        rebuilt and every CSR-ordered per-iteration cache is invalidated
        (their identity keys would otherwise miss the reorder).
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
        in sync. In-place mutation of a snapshotted source array is not
        supported; each source is frozen (``writeable = False``) so such a
        mutation raises instead of silently serving stale conditionals.
        """
        sampler = self.sampler
        params = sampler.params
        if params.eta is not self._eta_source:
            self._eta_source = params.eta
            params.eta.flags.writeable = False
            # [orientation * Z + z, c, d]: orientation 1 reads eta[c, d, z]
            # (outgoing links), orientation 0 its transpose (incoming)
            pair = np.ascontiguousarray(
                np.stack(
                    [np.transpose(params.eta, (2, 1, 0)), np.transpose(params.eta, (2, 0, 1))]
                )
            )
            self._eta_oriented_flat = pair.reshape(2 * params.eta.shape[2], *pair.shape[2:])
        if params.nu is not self._nu_source:
            self._nu_source = params.nu
            params.nu.flags.writeable = False
            projection = (
                sampler.e_features @ params.nu
                if len(sampler.e_features)
                else np.zeros(0)
            )
            self._d_feature = projection[sampler.d_csr_link]
            self._dout_feature = projection[sampler.dout_csr_link]
        if sampler.lambdas is not self._lambdas_source:
            self._lambdas_source = sampler.lambdas
            sampler.lambdas.flags.writeable = False
            self._f_lambdas = sampler.lambdas[sampler.f_csr_link]
        if sampler.deltas is not self._deltas_source:
            self._deltas_source = sampler.deltas
            sampler.deltas.flags.writeable = False
            self._d_deltas = sampler.deltas[sampler.d_csr_link]
            self._dout_deltas = sampler.deltas[sampler.dout_csr_link]

    # ------------------------------------------------------------ count logs

    def _build_count_tables(self) -> None:
        """``log(n + beta)`` / ``log(n + alpha)`` tables for the Eq. 13 counts.

        A ``topic_word`` cell never exceeds the corpus token count and a
        ``community_topic`` cell never exceeds ``n_docs``, so the tables
        cover every count the sweep reads; C fills them with the sweep's own
        libm ``log`` and falls back to it for anything outside (DESIGN.md
        §10, "Count-log tables"). Rebuilt when documents are appended.
        """
        n_tokens = int(self._doc_lengths_f64.sum())
        self._log_beta_table = self._log_table(n_tokens + 1, self._beta)
        self._log_alpha_table = self._log_table(self.state.n_docs + 1, self._alpha)

    def _log_table(self, size: int, offset: float) -> np.ndarray:
        table = np.empty(size)
        self._lib.cpd_log_table(
            table.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            ctypes.c_int64(size),
            ctypes.c_double(offset),
        )
        return table

    # ------------------------------------------------------------------- ctx

    def _ctx_values(self) -> dict:
        """Current pointer-struct contents; rebuilt per entry into C.

        ``pi_hat_view`` / ``theta_hat_view`` flush their dirty rows here, so
        the C code always starts from fresh caches and keeps the rows it
        touches fresh itself (same ``(count + prior) / (total + offset)``
        arithmetic, validated by ``check_consistency`` at 1e-12).
        """
        sampler = self.sampler
        state = self.state
        params = sampler.params
        popularity = sampler.popularity
        fixed = sampler.fixed_communities
        values = {
            "n_docs": state.n_docs,
            "n_users": state.n_users,
            "n_words": state.n_words,
            "n_communities": state.n_communities,
            "n_topics": state.n_topics,
            "profile_mode": int(self._profile_mode),
            "similarity_mode": int(self._similarity_mode),
            "model_friendship": int(self._model_friendship),
            "use_topic_factor": int(self._use_topic_factor),
            "use_individual_factor": int(self._use_individual_factor),
            "community_uses_content": int(self._community_uses_content),
            "has_fixed": int(fixed is not None),
            "pop_mode": self._POP_MODES[popularity.mode],
            "alpha": self._alpha,
            "rho": self._rho,
            "beta": self._beta,
            "words_beta": self._words_beta,
            "topics_alpha": self._topics_alpha,
            "comm_denom_offset": self._denominator_offset,
            "pi_denom_offset": state.n_communities * state.rho,
            "theta_denom_offset": state.n_topics * state.alpha,
            "comm_weight": params.comm_weight,
            "pop_weight": params.pop_weight,
            "bias": params.bias,
            "pop_table_weight": popularity.weight,
            "doc_user": sampler._doc_user,
            "doc_time": sampler._doc_time,
            "doc_community": state.doc_community,
            "doc_topic": state.doc_topic,
            "fixed_communities": fixed,
            "user_community": state.user_community,
            "user_totals": state.user_totals,
            "community_topic": state.community_topic,
            "community_totals": state.community_totals,
            "topic_word": state.topic_word,
            "topic_totals": state.topic_totals,
            "pi_cache": state.pi_hat_view(),
            "theta_cache": state.theta_hat_view(),
            "pop_counts": popularity._counts,
            "ws_words": self.ws_words,
            "ws_indptr": self.ws_indptr,
            "wm_words": self.wm_words,
            "wm_indptr": self.wm_indptr,
            "wm_counts": self.wm_counts,
            "doc_lengths": self._doc_lengths_f64,
            "f_indptr": sampler.f_csr_indptr,
            "f_neighbor": sampler.f_csr_neighbor,
            "f_lambdas": self._f_lambdas,
            "d_indptr": sampler.d_csr_indptr,
            "d_other": self._d_other,
            "d_other_user": self._d_other_user,
            "d_time": self._d_time,
            "d_is_source": self._d_orientation,
            "d_deltas": self._d_deltas,
            "d_feature": self._d_feature,
            "dout_indptr": sampler.dout_csr_indptr,
            "dout_target_user": self._dout_target_user,
            "dout_time": self._dout_time,
            "dout_deltas": self._dout_deltas,
            "dout_feature": self._dout_feature,
            "eta_oriented": self._eta_oriented_flat,
            "log_beta_table": self._log_beta_table,
            "log_beta_size": 0 if self._log_beta_table is None else len(self._log_beta_table),
            "log_alpha_table": self._log_alpha_table,
            "log_alpha_size": 0 if self._log_alpha_table is None else len(self._log_alpha_table),
            "lgamma_cache": self._lgamma_cache,
        }
        values.update(self._scratch)
        return values

    # ----------------------------------------------------------- conditionals

    def topic_log_weights(self, doc_id: int, community: int) -> np.ndarray:
        """Eq. 13 log-weights computed by the C conditional builder."""
        self._refresh_caches()
        ctx, keepalive = _compiled.build_ctx(self._ctx_values())
        out = np.empty(self.state.n_topics)
        self._lib.cpd_topic_log_weights(
            ctypes.byref(ctx),
            ctypes.c_int64(int(doc_id)),
            ctypes.c_int64(int(community)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        del keepalive
        return out

    def community_log_weights(self, doc_id: int, topic: int) -> np.ndarray:
        """Eq. 14 log-weights computed by the C conditional builder."""
        self._refresh_caches()
        ctx, keepalive = _compiled.build_ctx(self._ctx_values())
        out = np.empty(self.state.n_communities)
        self._lib.cpd_community_log_weights(
            ctypes.byref(ctx),
            ctypes.c_int64(int(doc_id)),
            ctypes.c_int64(int(topic)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        del keepalive
        return out

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
        if np.any(state.doc_topic[ids] < 0):
            raise ValueError("compiled sweep requires currently-assigned documents")
        self._refresh_caches()
        draws_per_doc = 1 if sampler.fixed_communities is not None else 2
        uniforms = sampler.rng.random(draws_per_doc * n)
        ctx, keepalive = _compiled.build_ctx(self._ctx_values())
        consumed = self._lib.cpd_sweep_docs(
            ctypes.byref(ctx),
            ids.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            ctypes.c_int64(n),
            uniforms.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        del keepalive
        if consumed != draws_per_doc * n:
            raise RuntimeError(
                f"compiled sweep consumed {consumed} uniforms, "
                f"expected {draws_per_doc * n}"
            )
        return SweepStats(
            kernel=self.name,
            n_docs=n,
            draws=int(consumed),
            seconds=time.perf_counter() - started,
        )
