"""Runtime-compiled C backend for the fused sweep kernel.

``CPDConfig.sweep_kernel = "compiled"`` selects a sweep implementation
(:class:`repro.core.kernel.CompiledKernel`) whose per-document loop — the
Eq. 13 / Eq. 14 conditional builds, the log-categorical draws, and the
counting-state updates between them — runs as a single C function with no
Python dispatch. The prescribed numba ``njit`` backend is not available in
every deployment (and adds a hard JIT dependency); instead this module
carries one small C translation unit, compiles it **at first use** with the
system C toolchain (``$CC``, ``cc`` or ``gcc``), caches the shared object
under a content-hash name, and binds it through :mod:`ctypes`. The net
contract is the same as a numba plan: zero new package dependencies,
graceful fallback to the reference kernel when no toolchain exists, and a
one-time warning on fallback (DESIGN.md §10).

The C code reads and mutates the *same* buffers ``CPDState`` owns — count
matrices, assignment vectors, the ``pi_hat`` / ``theta_hat`` caches and the
popularity table — and reads the kernel's count-log tables
(``cpd_log_table`` fills them with the sweep's own libm ``log``) through a
pointer struct (:data:`_CTX_FIELDS`). ``CompiledKernel`` keeps one struct
per sampler and re-points a field only when the sampler swapped its
array (:func:`set_pointer`). The struct layout is generated from one
field spec for both the C source and the ctypes mirror, so the two can
never drift.

The same struct feeds ``cpd_link_tilts`` and ``cpd_link_components`` (the
Eq. 15/16 Pólya-Gamma tilts and the Eq. 5 components of any link batch).
The translation unit also carries ``cpd_pg1``, one round of exact
Pólya-Gamma draws for the augmentation variables (:func:`pg1_rounds`, behind
``sampling/polya_gamma.py:sample_pg_array``), and ``cpd_lda_sweep``, one
collapsed-Gibbs LDA sweep for the topic segmentation of the parallel
scheduler and the sharder (:func:`lda_sweep`, behind ``topics/lda.py``),
and ``cpd_logistic_newton``, the projected-Newton solve of the ``nu``
M-step (:func:`logistic_newton`, behind ``diffusion/logistic.py``).

Set ``REPRO_COMPILED_DISABLE=1`` to force the fallback path (used by CI to
assert the no-toolchain story); ``REPRO_CC_CACHE_DIR`` overrides the
shared-object cache directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Callable

import numpy as np

#: kill switch simulating an environment without a usable toolchain
DISABLE_ENV = "REPRO_COMPILED_DISABLE"
#: override for the compiled shared-object cache directory
CACHE_ENV = "REPRO_CC_CACHE_DIR"


class CompiledBackendUnavailable(RuntimeError):
    """The compiled sweep backend cannot be built or loaded here."""


# --------------------------------------------------------------------- ctx
# One spec drives both the C struct and the ctypes mirror. Order matters
# (it is the struct layout); every member is 8 bytes on LP64, so the two
# sides agree without padding games.

_CTX_FIELDS: tuple[tuple[str, str], ...] = (
    # dimensions
    ("n_docs", "i64"),
    ("n_users", "i64"),
    ("n_words", "i64"),
    ("n_communities", "i64"),
    ("n_topics", "i64"),
    # model-design flags
    ("profile_mode", "i64"),
    ("similarity_mode", "i64"),
    ("model_friendship", "i64"),
    ("use_topic_factor", "i64"),
    ("use_individual_factor", "i64"),
    ("community_uses_content", "i64"),
    ("has_fixed", "i64"),
    ("pop_mode", "i64"),  # 0 raw, 1 proportion, 2 log
    ("n_time_buckets", "i64"),
    # priors and derived constants
    ("alpha", "f64"),
    ("rho", "f64"),
    ("beta", "f64"),
    ("words_beta", "f64"),
    ("topics_alpha", "f64"),
    ("comm_denom_offset", "f64"),
    ("pi_denom_offset", "f64"),
    ("theta_denom_offset", "f64"),
    # diffusion parameters
    ("comm_weight", "f64"),
    ("pop_weight", "f64"),
    ("bias", "f64"),
    ("pop_table_weight", "f64"),
    # per-document scalars and assignments
    ("doc_user", "p_i64"),
    ("doc_time", "p_i64"),
    ("doc_community", "p_i64"),
    ("doc_topic", "p_i64"),
    ("fixed_communities", "p_i64"),
    # mutable count state (the arrays CPDState owns, possibly shared)
    ("user_community", "p_f64"),
    ("user_totals", "p_f64"),
    ("community_topic", "p_f64"),
    ("community_totals", "p_f64"),
    ("topic_word", "p_f64"),
    ("topic_totals", "p_f64"),
    ("pi_cache", "p_f64"),
    ("theta_cache", "p_f64"),
    ("pop_counts", "p_f64"),
    # multiplicity-split word layout
    ("ws_words", "p_i64"),
    ("ws_indptr", "p_i64"),
    ("wm_words", "p_i64"),
    ("wm_indptr", "p_i64"),
    ("wm_counts", "p_f64"),
    ("doc_lengths", "p_f64"),
    # friendship incidence
    ("f_indptr", "p_i64"),
    ("f_neighbor", "p_i64"),
    ("f_lambdas", "p_f64"),
    # friendship links in link order (Eq. 15 tilts)
    ("f_src", "p_i64"),
    ("f_tgt", "p_i64"),
    # diffusion links in link order (Eq. 16 tilts)
    ("e_src", "p_i64"),
    ("e_tgt", "p_i64"),
    ("e_time", "p_i64"),
    ("e_feature", "p_f64"),   # nu^T f per link
    # diffusion incidence (both endpoints)
    ("d_indptr", "p_i64"),
    ("d_other", "p_i64"),
    ("d_other_user", "p_i64"),
    ("d_time", "p_i64"),
    ("d_is_source", "p_i8"),
    ("d_deltas", "p_f64"),
    ("d_feature", "p_f64"),
    # outgoing diffusion links
    ("dout_indptr", "p_i64"),
    ("dout_target_user", "p_i64"),
    ("dout_time", "p_i64"),
    ("dout_deltas", "p_f64"),
    ("dout_feature", "p_f64"),
    # flat [orientation * Z + z, c, d] eta table
    ("eta_oriented", "p_f64"),
    # caller-allocated scratch
    ("scratch_z", "p_f64"),
    ("scratch_c", "p_f64"),
    ("scratch_wu", "p_f64"),
    ("scratch_folded", "p_f64"),
    ("scratch_q", "p_f64"),
    ("scratch_base", "p_f64"),
    ("scratch_cum", "p_f64"),
    ("scratch_eta", "p_f64"),  # [z][k][d] Eq. 5 fold, C * C * Z
    # kernel-owned count-log tables (NULL -> libm, see count_log)
    ("log_beta_table", "p_f64"),   # [n] = log(n + beta), n < log_beta_size
    ("log_beta_size", "i64"),
    ("log_alpha_table", "p_f64"),  # [n] = log(n + alpha), n < log_alpha_size
    ("log_alpha_size", "i64"),
    ("lgamma_cache", "p_f64"),     # [z] last lgamma argument, [Z + z] its value
)

_C_TYPES = {
    "i64": "int64_t",
    "f64": "double",
    "p_f64": "double *",
    "p_i64": "int64_t *",
    "p_i8": "int8_t *",
}
_CTYPES_TYPES = {
    "i64": ctypes.c_int64,
    "f64": ctypes.c_double,
    "p_f64": ctypes.POINTER(ctypes.c_double),
    "p_i64": ctypes.POINTER(ctypes.c_int64),
    "p_i8": ctypes.POINTER(ctypes.c_int8),
}
_POINTER_DTYPES = {
    "p_f64": np.dtype(np.float64),
    "p_i64": np.dtype(np.int64),
    "p_i8": np.dtype(np.int8),
}


class CpdCtx(ctypes.Structure):
    _fields_ = [(name, _CTYPES_TYPES[kind]) for name, kind in _CTX_FIELDS]


#: pointer fields of :class:`CpdCtx` and their kinds
_POINTER_KINDS = {name: kind for name, kind in _CTX_FIELDS if kind in _POINTER_DTYPES}


def set_pointer(ctx: CpdCtx, name: str, array: np.ndarray | None) -> None:
    """Point ctx field ``name`` at ``array`` (``None`` -> NULL).

    The C code reads and mutates the array through the pointer, so it must
    be C-contiguous with the exact dtype of the spec — a silent copy here
    would divert the kernel's mutations into a throwaway buffer. The
    caller keeps ``array`` alive for as long as the field points at it.
    """
    kind = _POINTER_KINDS[name]
    if array is None:
        setattr(ctx, name, None)
        return
    expected = _POINTER_DTYPES[kind]
    if array.dtype != expected or not array.flags.c_contiguous:
        raise ValueError(
            f"ctx field {name} must be a C-contiguous {expected} array, "
            f"got {array.dtype} (contiguous={array.flags.c_contiguous})"
        )
    setattr(ctx, name, ctypes.cast(array.ctypes.data, _CTYPES_TYPES[kind]))


# ---------------------------------------------------------------- C source

_STRUCT_BODY = "\n".join(
    f"    {_C_TYPES[kind]}{'' if _C_TYPES[kind].endswith('*') else ' '}{name};"
    for name, kind in _CTX_FIELDS
)

# The arithmetic is the reference conditionals' up to reassociation (the
# ascending factorials as lgamma differences, the link factors folded), so
# the compiled conditionals agree to the reference within floating-point
# noise (~1e-10 pinned, DESIGN.md §4), and a matched-seed sweep consumes
# one uniform per draw in the same order.
# Compiled without -ffast-math: IEEE semantics are part of the parity
# contract.
_C_SOURCE = """
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#define CPD_PI 3.14159265358979323846

typedef struct {
__STRUCT_BODY__
} CpdCtx;

static void refresh_pi_row(CpdCtx *c, int64_t user) {
    const int64_t C = c->n_communities;
    const double denom = c->user_totals[user] + c->pi_denom_offset;
    const double *counts = c->user_community + user * C;
    double *row = c->pi_cache + user * C;
    for (int64_t k = 0; k < C; ++k) row[k] = (counts[k] + c->rho) / denom;
}

static void refresh_theta_row(CpdCtx *c, int64_t community) {
    const int64_t Z = c->n_topics;
    const double denom = c->community_totals[community] + c->theta_denom_offset;
    const double *counts = c->community_topic + community * Z;
    double *row = c->theta_cache + community * Z;
    for (int64_t z = 0; z < Z; ++z) row[z] = (counts[z] + c->alpha) / denom;
}

/* popularity transform (diffusion/popularity.py _transform_row):
   raw -> w * n, proportion -> w * n / max(row sum, 1), log -> w * log1p(n) */
static double pop_row_denom(const CpdCtx *c, int64_t t) {
    const int64_t Z = c->n_topics;
    const double *row = c->pop_counts + t * Z;
    double total = 0.0;
    for (int64_t z = 0; z < Z; ++z) total += row[z];
    return total > 1.0 ? total : 1.0;
}

static double pop_cell(const CpdCtx *c, int64_t t, int64_t z, double denom) {
    const double count = c->pop_counts[t * c->n_topics + z];
    if (c->pop_mode == 0) return c->pop_table_weight * count;
    if (c->pop_mode == 1) return c->pop_table_weight * (count / denom);
    return c->pop_table_weight * log1p(count);
}

/* Count-log tables: cpd_log_table fills table[i] = log(i + offset), and
   count_log reads log(count + offset) from it when the count is a
   non-negative integer inside the table. An entry is the same libm call on
   the same double, so both paths agree bit for bit; a NULL table, a count
   past its end or a non-integral count goes to libm. */
void cpd_log_table(double *out, int64_t n, double offset) {
    for (int64_t i = 0; i < n; ++i) out[i] = log((double)i + offset);
}

static inline double count_log(const double *table, int64_t size, double count,
                               double offset) {
    if (table && count >= 0.0 && count < (double)size) {
        const int64_t index = (int64_t)count;
        if ((double)index == count) return table[index];
    }
    return log(count + offset);
}

/* lgamma(total) for topic z's denominator, memoised per topic on the exact
   argument: at most two topic totals move per document. */
static double lgamma_total(CpdCtx *c, int64_t z, double total) {
    double *cache = c->lgamma_cache;
    if (!cache) return lgamma(total);
    if (cache[z] != total) {
        cache[z] = total;
        cache[c->n_topics + z] = lgamma(total);
    }
    return cache[c->n_topics + z];
}

/* Eq. 13 log-weights over all Z topics (kernel.py topic_log_weights). */
void cpd_topic_log_weights(CpdCtx *c, int64_t doc, int64_t community, double *out) {
    const int64_t Z = c->n_topics, C = c->n_communities, W = c->n_words;
    const double beta = c->beta;
    const double *beta_table = c->log_beta_table;
    const int64_t beta_size = c->log_beta_size;

    const double *ct = c->community_topic + community * Z;
    for (int64_t z = 0; z < Z; ++z)
        out[z] = count_log(c->log_alpha_table, c->log_alpha_size, ct[z], c->alpha);

    for (int64_t p = c->ws_indptr[doc]; p < c->ws_indptr[doc + 1]; ++p) {
        const double *col = c->topic_word + c->ws_words[p];
        for (int64_t z = 0; z < Z; ++z)
            out[z] += count_log(beta_table, beta_size, col[z * W], beta);
    }
    for (int64_t p = c->wm_indptr[doc]; p < c->wm_indptr[doc + 1]; ++p) {
        const double *col = c->topic_word + c->wm_words[p];
        const double count = c->wm_counts[p];
        for (int64_t z = 0; z < Z; ++z) {
            const double gathered = col[z * W] + beta;
            out[z] += lgamma(gathered + count) - lgamma(gathered);
        }
    }
    const double length = c->doc_lengths[doc];
    if (length > 0.0) {
        for (int64_t z = 0; z < Z; ++z) {
            const double total = c->topic_totals[z] + c->words_beta;
            out[z] -= lgamma(total + length) - lgamma_total(c, z, total);
        }
    }

    if (!c->profile_mode) return;
    const int64_t start = c->dout_indptr[doc], end = c->dout_indptr[doc + 1];
    if (end <= start) return;

    /* outgoing-link factors: fold the source endpoint once per document,
       then score each link with an O(C) inner product per topic */
    const double *pi_u = c->pi_cache + c->doc_user[doc] * C;
    const double *theta = c->theta_cache;
    double *wu = c->scratch_wu;          /* weighted_u[k, z] */
    /* folded[z, d] = theta[d, z] * sum_k wu[k,z] eta[k,d,z], contiguous in d */
    double *folded = c->scratch_folded;
    for (int64_t k = 0; k < C; ++k)
        for (int64_t z = 0; z < Z; ++z) wu[k * Z + z] = pi_u[k] * theta[k * Z + z];
    for (int64_t z = 0; z < Z; ++z) {
        const double *eta_z = c->eta_oriented + (Z + z) * C * C; /* [z][c][d] */
        double *fz = folded + z * C;
        for (int64_t d = 0; d < C; ++d) fz[d] = 0.0;
        for (int64_t k = 0; k < C; ++k) {
            const double w = wu[k * Z + z];
            const double *eta_row = eta_z + k * C;
            for (int64_t d = 0; d < C; ++d) fz[d] += w * eta_row[d];
        }
        for (int64_t d = 0; d < C; ++d) fz[d] = theta[d * Z + z] * fz[d];
    }
    for (int64_t p = start; p < end; ++p) {
        const double *pi_v = c->pi_cache + c->dout_target_user[p] * C;
        const double delta = c->dout_deltas[p];
        const int64_t t = c->dout_time[p];
        double denom = 1.0;
        if (c->use_topic_factor && c->pop_mode == 1) denom = pop_row_denom(c, t);
        for (int64_t z = 0; z < Z; ++z) {
            const double *fz = folded + z * C;
            double bilinear = 0.0;
            for (int64_t d = 0; d < C; ++d) bilinear += pi_v[d] * fz[d];
            double score = c->comm_weight * bilinear + c->bias;
            if (c->use_topic_factor) score += c->pop_weight * pop_cell(c, t, z, denom);
            if (c->use_individual_factor) score += c->dout_feature[p];
            out[z] += 0.5 * (score - delta * (score * score));
        }
    }
}

/* Eq. 14 log-weights over all C communities (kernel.py community_log_weights). */
void cpd_community_log_weights(CpdCtx *c, int64_t doc, int64_t topic, double *out) {
    const int64_t C = c->n_communities, Z = c->n_topics;
    const int64_t user = c->doc_user[doc];
    double *base = c->scratch_base;
    const double *uc = c->user_community + user * C;
    for (int64_t k = 0; k < C; ++k) base[k] = uc[k] + c->rho;
    const double denom = c->user_totals[user] + c->comm_denom_offset;

    if (c->community_uses_content) {
        for (int64_t k = 0; k < C; ++k)
            out[k] = log(base[k] * (c->community_topic[k * Z + topic] + c->alpha)
                         / (c->community_totals[k] + c->topics_alpha));
    } else {
        for (int64_t k = 0; k < C; ++k) out[k] = log(base[k]);
    }

    if (c->model_friendship) {
        for (int64_t p = c->f_indptr[user]; p < c->f_indptr[user + 1]; ++p) {
            const double *pi_v = c->pi_cache + c->f_neighbor[p] * C;
            const double lambda = c->f_lambdas[p];
            double dot = 0.0;
            for (int64_t k = 0; k < C; ++k) dot += pi_v[k] * base[k];
            for (int64_t k = 0; k < C; ++k) {
                const double w = (dot + pi_v[k]) / denom;
                out[k] += 0.5 * (w - lambda * (w * w));
            }
        }
    }

    const int64_t start = c->d_indptr[doc], end = c->d_indptr[doc + 1];
    if (end <= start) return;
    if (c->profile_mode) {
        const double *theta = c->theta_cache;
        double *q = c->scratch_q;
        for (int64_t p = start; p < end; ++p) {
            const int64_t orientation = (int64_t)c->d_is_source[p];
            const int64_t lz = orientation ? topic : c->doc_topic[c->d_other[p]];
            if (lz < 0) continue; /* other endpoint is mid-resample */
            const double *pi_o = c->pi_cache + c->d_other_user[p] * C;
            const double *eta_m = c->eta_oriented + (orientation * Z + lz) * C * C;
            for (int64_t i = 0; i < C; ++i) {
                const double *eta_row = eta_m + i * C;
                double acc = 0.0;
                for (int64_t j = 0; j < C; ++j)
                    acc += eta_row[j] * (pi_o[j] * theta[j * Z + lz]);
                q[i] = theta[i * Z + lz] * acc;
            }
            double dotq = 0.0;
            for (int64_t i = 0; i < C; ++i) dotq += q[i] * base[i];
            double constant = c->bias;
            if (c->use_topic_factor) {
                const int64_t t = c->d_time[p];
                const double pden = (c->pop_mode == 1) ? pop_row_denom(c, t) : 1.0;
                constant += c->pop_weight * pop_cell(c, t, lz, pden);
            }
            if (c->use_individual_factor) constant += c->d_feature[p];
            const double delta = c->d_deltas[p];
            for (int64_t i = 0; i < C; ++i) {
                const double w = c->comm_weight * ((dotq + q[i]) / denom) + constant;
                out[i] += 0.5 * (w - delta * (w * w));
            }
        }
    } else if (c->similarity_mode) {
        for (int64_t p = start; p < end; ++p) {
            const double *pi_o = c->pi_cache + c->d_other_user[p] * C;
            const double delta = c->d_deltas[p];
            double dot = 0.0;
            for (int64_t k = 0; k < C; ++k) dot += pi_o[k] * base[k];
            for (int64_t k = 0; k < C; ++k) {
                const double w = (dot + pi_o[k]) / denom;
                out[k] += 0.5 * (w - delta * (w * w));
            }
        }
    }
}

/* The trusted log-categorical draw: the C form of sampling/categorical.py
   draw_log_categorical_from_uniform. One uniform per draw; shift by the
   max, sequential exp accumulation, first cumulative bound strictly above
   the scaled uniform, tie walk-back at the end. */
static int64_t draw_cat(const double *log_weights, int64_t n, double uniform,
                        double *cumulative) {
    double shift = log_weights[0];
    for (int64_t i = 1; i < n; ++i)
        if (log_weights[i] > shift) shift = log_weights[i];
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        total += exp(log_weights[i] - shift);
        cumulative[i] = total;
    }
    const double draw = uniform * total;
    for (int64_t i = 0; i < n; ++i)
        if (cumulative[i] > draw) return i;
    int64_t index = n - 1;
    while (index > 0 && cumulative[index] == cumulative[index - 1]) --index;
    return index;
}

int64_t cpd_draw_log_categorical(const double *log_weights, int64_t n,
                                 double uniform, double *cum_scratch) {
    return draw_cat(log_weights, n, uniform, cum_scratch);
}

static void unassign_doc(CpdCtx *c, int64_t doc, int64_t *out_community,
                         int64_t *out_topic) {
    const int64_t C = c->n_communities, Z = c->n_topics, W = c->n_words;
    const int64_t user = c->doc_user[doc];
    const int64_t community = c->doc_community[doc];
    const int64_t topic = c->doc_topic[doc];
    c->user_community[user * C + community] -= 1.0;
    c->user_totals[user] -= 1.0;
    c->community_topic[community * Z + topic] -= 1.0;
    c->community_totals[community] -= 1.0;
    double *tw = c->topic_word + topic * W;
    for (int64_t p = c->ws_indptr[doc]; p < c->ws_indptr[doc + 1]; ++p)
        tw[c->ws_words[p]] -= 1.0;
    for (int64_t p = c->wm_indptr[doc]; p < c->wm_indptr[doc + 1]; ++p)
        tw[c->wm_words[p]] -= c->wm_counts[p];
    c->topic_totals[topic] -= c->doc_lengths[doc];
    c->doc_community[doc] = -1;
    c->doc_topic[doc] = -1;
    c->pop_counts[c->doc_time[doc] * Z + topic] -= 1.0;
    refresh_pi_row(c, user);
    refresh_theta_row(c, community);
    *out_community = community;
    *out_topic = topic;
}

static void assign_doc(CpdCtx *c, int64_t doc, int64_t community, int64_t topic) {
    const int64_t C = c->n_communities, Z = c->n_topics, W = c->n_words;
    const int64_t user = c->doc_user[doc];
    c->doc_community[doc] = community;
    c->doc_topic[doc] = topic;
    c->user_community[user * C + community] += 1.0;
    c->user_totals[user] += 1.0;
    c->community_topic[community * Z + topic] += 1.0;
    c->community_totals[community] += 1.0;
    double *tw = c->topic_word + topic * W;
    for (int64_t p = c->ws_indptr[doc]; p < c->ws_indptr[doc + 1]; ++p)
        tw[c->ws_words[p]] += 1.0;
    for (int64_t p = c->wm_indptr[doc]; p < c->wm_indptr[doc + 1]; ++p)
        tw[c->wm_words[p]] += c->wm_counts[p];
    c->topic_totals[topic] += c->doc_lengths[doc];
    c->pop_counts[c->doc_time[doc] * Z + topic] += 1.0;
    refresh_pi_row(c, user);
    refresh_theta_row(c, community);
}

/* The fused sweep: Alg. 1 steps 3-6 for a whole partition of documents in
   one call. Uniforms are pre-drawn by the caller from the sampler's
   Generator (topic draw first, then — unless communities are fixed — the
   community draw, per document), so the bit-stream consumption matches the
   per-document Python path draw for draw. Returns the number of uniforms
   consumed. */
int64_t cpd_sweep_docs(CpdCtx *c, const int64_t *doc_ids, int64_t n,
                       const double *uniforms) {
    int64_t consumed = 0;
    for (int64_t i = 0; i < n; ++i) {
        const int64_t doc = doc_ids[i];
        int64_t old_community, old_topic;
        unassign_doc(c, doc, &old_community, &old_topic);
        cpd_topic_log_weights(c, doc, old_community, c->scratch_z);
        const int64_t topic = draw_cat(c->scratch_z, c->n_topics,
                                       uniforms[consumed++], c->scratch_cum);
        int64_t community;
        if (c->has_fixed) {
            community = c->fixed_communities[doc];
        } else {
            cpd_community_log_weights(c, doc, topic, c->scratch_c);
            community = draw_cat(c->scratch_c, c->n_communities,
                                 uniforms[consumed++], c->scratch_cum);
        }
        assign_doc(c, doc, community, topic);
    }
    return consumed;
}

/* Exact PG(1, z) draws: Devroye's alternating-series sampler
   (sampling/polya_gamma.py sample_pg1), one round of sample_pg_array's
   refill protocol, operation for operation like its numpy round _pg1_round.
   Link pending[i] reads uniforms[i * slots ...] left to right, one uniform
   per step: the branch (tail if u < tail mass), then the tail exponential
   -log1p(-u), or the body's chi trials (two exponentials, then an accept
   uniform) or inverse-Gaussian trials (Box-Muller chi-square from an
   exponential and a cosine, then a flip uniform), then the series uniform.
   An accepted link writes out[link] = x / 4. A rejected proposal restarts
   at the branch read. A link out of slots abandons its unfinished proposal
   but keeps branch[link] (1 tail, 2 body, 0 none) for the next round.
   Pending links are compacted to the front of pending, order kept; returns
   their count. */
#define PG_T 0.64
#define PG_PI_SQ (CPD_PI * CPD_PI)
#define PG_INV_SQRT2 0.70710678118654752440

/* log Phi(x) (scipy.special.log_ndtr): erfc where it is accurate, the
   asymptotic series below -20 where erfc underflows. */
static double pg_log_ndtr(double x) {
    if (x > 0.0) return log1p(-0.5 * erfc(x * PG_INV_SQRT2));
    if (x > -20.0) return log(0.5 * erfc(-x * PG_INV_SQRT2));
    const double r = 1.0 / (x * x);
    double term = 1.0, sum = 1.0;
    for (int k = 1; k <= 10; ++k) {
        term *= -(2.0 * k - 1.0) * r;
        sum += term;
    }
    return -0.5 * x * x - log(-x) - 0.5 * log(2.0 * CPD_PI) + log(sum);
}

/* _mass_texpon, 1 / (1 + q). Below h = 20 q is summed directly (no term
   over- or underflows there, and it needs half the libm calls); above,
   the two log terms grow like 0.32 h^2, so they are added in log space. */
static double pg_tail_mass(double h) {
    const double fz = PG_PI_SQ / 8.0 + 0.5 * h * h;
    const double right = (PG_T * h - 1.0) / sqrt(PG_T);
    const double left = -(PG_T * h + 1.0) / sqrt(PG_T);
    if (h < 20.0) {
        const double q = 4.0 / CPD_PI * fz * 0.5
                         * (exp(fz * PG_T - h) * erfc(-right * PG_INV_SQRT2)
                            + exp(fz * PG_T + h) * erfc(-left * PG_INV_SQRT2));
        return 1.0 / (1.0 + q);
    }
    const double x0 = log(fz) + fz * PG_T;
    const double lr = x0 - h + pg_log_ndtr(right);
    const double ll = x0 + h + pg_log_ndtr(left);
    const double hi = lr > ll ? lr : ll;
    const double log_q = log(4.0 / CPD_PI) + hi + log1p(exp(-fabs(lr - ll)));
    const double e = exp(-log_q); /* log_q > 100 here */
    return e / (1.0 + e);
}

/* a_n(x); log_body = 1.5 * log(2 / (pi x)), hoisted out of the series */
static double pg_coef(int64_t n, double x, double log_body) {
    const double k = n + 0.5;
    if (x > PG_T) return CPD_PI * k * exp(-k * k * PG_PI_SQ * x / 2.0);
    return CPD_PI * k * exp(log_body - 2.0 * k * k / x);
}

static int pg_series_accepts(double x, double u) {
    const double log_body = 1.5 * log(2.0 / (CPD_PI * x));
    double series = pg_coef(0, x, log_body);
    const double threshold = u * series;
    for (int64_t n = 1;; ++n) {
        if (n % 2 == 1) {
            series -= pg_coef(n, x, log_body);
            if (threshold <= series) return 1;
        } else {
            series += pg_coef(n, x, log_body);
            if (threshold > series) return 0;
        }
    }
}

/* One proposal from branch b starting at u[*s]; 0 when the slots run out. */
static int pg_proposal(int b, double h, double fz, const double *u, int64_t slots,
                       int64_t *s, double *x) {
    int64_t k = *s;
    int ok = 0;
    if (b == 1) {
        if (k < slots) {
            *x = PG_T + -log1p(-u[k++]) / fz;
            ok = 1;
        }
    } else if (h < 1.0 / PG_T) {
        while (!ok) {
            double e1, e2;
            do {
                if (k + 2 > slots) goto done;
                e1 = -log1p(-u[k++]);
                e2 = -log1p(-u[k++]);
            } while (!(e1 * e1 <= 2.0 * e2 / PG_T));
            if (k == slots) goto done;
            const double d = 1.0 + PG_T * e1;
            *x = PG_T / (d * d);
            ok = u[k++] <= exp(-0.5 * h * h * *x);
        }
    } else {
        const double mu = 1.0 / h;
        while (!ok) {
            if (k + 3 > slots) goto done;
            const double e = -log1p(-u[k++]);
            const double c = cos(2.0 * CPD_PI * u[k++]);
            const double a = 0.5 * mu * (2.0 * e * c * c);
            double candidate = mu / (1.0 + a + sqrt(a * a + 2.0 * a));
            if (u[k++] > mu / (mu + candidate)) candidate = mu * mu / candidate;
            if (candidate <= PG_T) {
                *x = candidate;
                ok = 1;
            }
        }
    }
done:
    *s = k;
    return ok;
}

int64_t cpd_pg1(const double *z, int64_t *pending, int64_t n_pending, int8_t *branch,
                const double *uniforms, int64_t slots, double *out) {
    int64_t kept = 0;
    for (int64_t i = 0; i < n_pending; ++i) {
        const int64_t link = pending[i];
        const double *u = uniforms + i * slots;
        const double h = 0.5 * fabs(z[link]);
        const double fz = PG_PI_SQ / 8.0 + 0.5 * h * h;
        int b = branch[link];
        int64_t s = 0;
        for (;;) {
            double x;
            if (b == 0) {
                if (s == slots) break;
                b = u[s++] < pg_tail_mass(h) ? 1 : 2;
            }
            if (!pg_proposal(b, h, fz, u, slots, &s, &x) || s == slots) break;
            if (pg_series_accepts(x, u[s++])) {
                out[link] = 0.25 * x;
                b = -1;
                break;
            }
            b = 0;
        }
        if (b >= 0) {
            branch[link] = (int8_t)b;
            pending[kept++] = link;
        }
    }
    return kept;
}

/* numpy's pairwise summation (the float64 add.reduce inner loop), term for
   term, so the LDA draw's total equals `weights.sum()` bit for bit. */
static double pairwise_sum(const double *a, int64_t n) {
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; ++i) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; ++j) r[j] = a[j];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; ++j) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* One collapsed-Gibbs LDA sweep over a CSR token layout: the C translation
   of topics/lda.py gibbs_sweep, one pre-drawn uniform per token in token
   order. The draw copies sampling/categorical.py sample_categorical: the
   pairwise total, the first sequential cumulative bound strictly above
   uniform * total, clipped to K - 1, zero-weight walk-back. The caller
   guarantees word ids in [0, n_words), assignments in [0, n_topics) and
   positive priors. */
void cpd_lda_sweep(int64_t n_docs, int64_t n_topics, int64_t n_words, double alpha,
                   double beta, const int64_t *words, const int64_t *indptr,
                   int64_t *assignments, double *topic_word, double *doc_topic,
                   double *topic_totals, const double *uniforms, double *weights) {
    const int64_t K = n_topics, W = n_words;
    const double words_beta = (double)n_words * beta;
    for (int64_t d = 0; d < n_docs; ++d) {
        double *dt = doc_topic + d * K;
        for (int64_t p = indptr[d]; p < indptr[d + 1]; ++p) {
            const int64_t word = words[p];
            const int64_t z_old = assignments[p];
            topic_word[z_old * W + word] -= 1.0;
            dt[z_old] -= 1.0;
            topic_totals[z_old] -= 1.0;
            for (int64_t k = 0; k < K; ++k)
                weights[k] = (dt[k] + alpha) * (topic_word[k * W + word] + beta)
                             / (topic_totals[k] + words_beta);
            const double draw = uniforms[p] * pairwise_sum(weights, K);
            int64_t z_new = K - 1;
            double cumulative = 0.0;
            for (int64_t k = 0; k < K; ++k) {
                cumulative += weights[k];
                if (cumulative > draw) { z_new = k; break; }
            }
            while (z_new > 0 && weights[z_new] == 0.0) --z_new;
            assignments[p] = z_new;
            topic_word[z_new * W + word] += 1.0;
            dt[z_new] += 1.0;
            topic_totals[z_new] += 1.0;
        }
    }
}

/* Offset logistic regression by projected Newton: the C twin of
   diffusion/logistic.py LogisticTrainer.fit, step for step (standardise,
   active set with its re-solve, Newton step on the free block, Armijo
   backtracking along the projected arc, the same tolerance and step cap).
   The numpy loop solves the free block with lstsq, which cuts singular
   values below eps * size relative to the largest; here a Cholesky solve
   stands in for it, so a non-positive pivot, or one tiny next to the
   largest, returns -1 and the caller runs the numpy loop instead. Sums
   over examples run in four interleaved partial sums (the numpy loop's
   BLAS calls fix no order either), so steps agree to rounding. */
#define LR_ARMIJO 1e-4
#define LR_MIN_STEP 1e-10
#define LR_PIVOT_RTOL 1e-10

/* sum_i a[i] * b[i] (* c[i] when c is not NULL) */
static double lr_dot(const double *a, const double *b, const double *c, int64_t n) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t i = 0;
    if (c) {
        for (; i + 4 <= n; i += 4) {
            s0 += a[i] * c[i] * b[i];
            s1 += a[i + 1] * c[i + 1] * b[i + 1];
            s2 += a[i + 2] * c[i + 2] * b[i + 2];
            s3 += a[i + 3] * c[i + 3] * b[i + 3];
        }
        for (; i < n; ++i) s0 += a[i] * c[i] * b[i];
    } else {
        for (; i + 4 <= n; i += 4) {
            s0 += a[i] * b[i];
            s1 += a[i + 1] * b[i + 1];
            s2 += a[i + 2] * b[i + 2];
            s3 += a[i + 3] * b[i + 3];
        }
        for (; i < n; ++i) s0 += a[i] * b[i];
    }
    return (s0 + s1) + (s2 + s3);
}

/* logits = design @ params + offsets, design column-major (P columns of n) */
static void lr_logits(const double *design, int64_t n, int64_t P, const double *params,
                      const double *offsets, double *out) {
    for (int64_t i = 0; i < n; ++i) out[i] = offsets ? offsets[i] : 0.0;
    for (int64_t j = 0; j < P; ++j) {
        const double *column = design + j * n;
        for (int64_t i = 0; i < n; ++i) out[i] += column[i] * params[j];
    }
}

/* Mean softplus NLL plus the L2 penalty. With e = exp(-|x|), numpy's
   logaddexp(0, x) is x + log1p(e) above 0 and log1p(e) otherwise; each e
   is kept in exps for the next gradient pass. */
static double lr_loss(const double *logits, const double *labels, int64_t n,
                      const double *params, const double *penalty, int64_t P,
                      double *exps) {
    double nll = 0.0, reg = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        const double x = logits[i], e = exp(-fabs(x));
        exps[i] = e;
        nll += (x > 0.0 ? x : 0.0) + log1p(e) - labels[i] * x;
    }
    for (int64_t j = 0; j < P; ++j) reg += penalty[j] * (params[j] * params[j]);
    return nll / (double)n + 0.5 * reg;
}

/* step[idx] = solve(hessian[idx, idx] + diag(penalty[idx]), -gradient[idx])
   by Cholesky in `factor`; 0, or -1 where lstsq could differ */
static int lr_solve_free(const double *hessian, const double *penalty,
                         const double *gradient, const int64_t *idx, int64_t m,
                         int64_t P, double *factor, double *step) {
    double largest = 0.0, smallest = 0.0;
    for (int64_t a = 0; a < m; ++a) {
        for (int64_t b = 0; b <= a; ++b) {
            double s = hessian[idx[a] * P + idx[b]] + (a == b ? penalty[idx[a]] : 0.0);
            for (int64_t k = 0; k < b; ++k) s -= factor[a * m + k] * factor[b * m + k];
            if (a == b) {
                if (!(s > 0.0)) return -1;
                if (s > largest) largest = s;
                if (a == 0 || s < smallest) smallest = s;
                factor[a * m + a] = sqrt(s);
            } else {
                factor[a * m + b] = s / factor[b * m + b];
            }
        }
    }
    if (smallest < LR_PIVOT_RTOL * largest) return -1;
    for (int64_t a = 0; a < m; ++a) {
        double s = -gradient[idx[a]];
        for (int64_t k = 0; k < a; ++k) s -= factor[a * m + k] * step[idx[k]];
        step[idx[a]] = s / factor[a * m + a];
    }
    for (int64_t a = m - 1; a >= 0; --a) {
        double s = step[idx[a]];
        for (int64_t k = a + 1; k < m; ++k) s -= factor[k * m + a] * step[idx[k]];
        step[idx[a]] = s / factor[a * m + a];
    }
    return 0;
}

/* features (n, p) row-major, labels (n,), offsets (n,) or NULL, clamped
   (p + 1,) flags over the weights then the bias, initial_weights (p,) or
   NULL. Writes the raw weights then the raw bias to out (p + 1,) and the
   loss to *final_loss; returns the Newton steps taken, or -1. */
int64_t cpd_logistic_newton(const double *features, const double *labels,
                            const double *offsets, int64_t n, int64_t p,
                            const int8_t *clamped, int64_t fit_bias, int64_t standardize,
                            double l2_penalty, double tolerance, int64_t max_steps,
                            const double *initial_weights, double initial_bias,
                            double *out, double *final_loss) {
    const int64_t P = p + 1;
    double *work = malloc(sizeof(double) * (size_t)(n * P + 6 * n + 2 * P * P + 8 * P));
    int64_t *idx = malloc(sizeof(int64_t) * (size_t)P);
    char *fixed = malloc((size_t)P);
    int64_t result = -1;
    if (!work || !idx || !fixed) goto cleanup;
    double *design = work, *logits = design + n * P, *cand_logits = logits + n;
    double *exps = cand_logits + n, *cand_exps = exps + n;
    double *residual = cand_exps + n, *curvature = residual + n, *hessian = curvature + n;
    double *factor = hessian + P * P, *params = factor + P * P, *cand = params + P;
    double *gradient = cand + P, *step = gradient + P, *penalty = step + P;
    double *means = penalty + P, *stds = means + P, *spread = stds + P;

    /* z-score columns as numpy's mean/std do (row-sequential sums over axis
       0), then the constant bias column; the design is column-major */
    for (int64_t j = 0; j < p; ++j) { means[j] = 0.0; stds[j] = 1.0; }
    if (standardize) {
        for (int64_t j = 0; j < p; ++j) spread[j] = 0.0;
        for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < p; ++j) means[j] += features[i * p + j];
        for (int64_t j = 0; j < p; ++j) means[j] /= (double)n;
        for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < p; ++j) {
                const double d = features[i * p + j] - means[j];
                spread[j] += d * d;
            }
        for (int64_t j = 0; j < p; ++j) {
            const double sd = sqrt(spread[j] / (double)n);
            stds[j] = sd > 1e-8 ? sd : 1.0;
        }
    }
    for (int64_t j = 0; j < p; ++j)
        for (int64_t i = 0; i < n; ++i)
            design[j * n + i] = (features[i * p + j] - means[j]) / stds[j];
    for (int64_t i = 0; i < n; ++i) design[p * n + i] = 1.0;
    for (int64_t j = 0; j < P; ++j) {
        penalty[j] = j < p ? l2_penalty : 0.0;
        params[j] = 0.0;
    }
    params[p] = initial_bias;
    if (initial_weights) {
        double shift = 0.0;
        for (int64_t j = 0; j < p; ++j) {
            params[j] = initial_weights[j] * stds[j];
            shift += initial_weights[j] * means[j];
        }
        params[p] += shift;
    }
    for (int64_t j = 0; j < P; ++j)
        if (clamped[j] && params[j] < 0.0) params[j] = 0.0;

    lr_logits(design, n, P, params, offsets, logits);
    double loss = lr_loss(logits, labels, n, params, penalty, P, exps);
    int64_t steps = 0;
    while (steps < max_steps) {
        ++steps;
        /* scipy's expit from the kept e = exp(-|x|) */
        for (int64_t i = 0; i < n; ++i) {
            const double e = exps[i];
            const double prob = (logits[i] >= 0.0 ? 1.0 : e) / (1.0 + e);
            residual[i] = prob - labels[i];
            curvature[i] = prob * (1.0 - prob) / (double)n;
        }
        for (int64_t a = 0; a < P; ++a) {
            const double *column = design + a * n;
            gradient[a] = lr_dot(column, residual, NULL, n) / (double)n
                          + penalty[a] * params[a];
            for (int64_t b = 0; b <= a; ++b)
                hessian[a * P + b] = lr_dot(column, design + b * n, curvature, n);
            /* active set: a clamped weight at 0 the gradient pushes further
               down stays put this step */
            fixed[a] = (a == p && !fit_bias)
                       || (clamped[a] && params[a] <= 0.0 && gradient[a] > 0.0);
        }
        for (;;) {
            int64_t m = 0;
            for (int64_t j = 0; j < P; ++j) {
                step[j] = 0.0;
                if (!fixed[j]) idx[m++] = j;
            }
            if (lr_solve_free(hessian, penalty, gradient, idx, m, P, factor, step) < 0)
                goto cleanup;
            /* a clamped weight at 0 the step would push below 0 is held
               too; re-solve without it */
            int blocked = 0;
            for (int64_t j = 0; j < P; ++j)
                if (!fixed[j] && clamped[j] && params[j] <= 0.0 && step[j] < 0.0) {
                    fixed[j] = 1;
                    blocked = 1;
                }
            if (!blocked) break;
        }
        double fraction = 1.0, cand_loss;
        for (;;) {
            double decrease = 0.0;
            for (int64_t j = 0; j < P; ++j) {
                cand[j] = params[j] + fraction * step[j];
                if (clamped[j] && cand[j] < 0.0) cand[j] = 0.0;
            }
            lr_logits(design, n, P, cand, offsets, cand_logits);
            cand_loss = lr_loss(cand_logits, labels, n, cand, penalty, P, cand_exps);
            for (int64_t j = 0; j < P; ++j) decrease += gradient[j] * (cand[j] - params[j]);
            if (cand_loss <= loss + LR_ARMIJO * decrease) break;
            fraction *= 0.5;
            if (fraction < LR_MIN_STEP) {
                for (int64_t j = 0; j < P; ++j) cand[j] = params[j];
                for (int64_t i = 0; i < n; ++i) {
                    cand_logits[i] = logits[i];
                    cand_exps[i] = exps[i];
                }
                cand_loss = loss;
                break;
            }
        }
        const double change = loss - cand_loss;
        double *swap = params; params = cand; cand = swap;
        swap = logits; logits = cand_logits; cand_logits = swap;
        swap = exps; exps = cand_exps; cand_exps = swap;
        loss = cand_loss;
        if (change < tolerance) break;
    }
    /* fold the standardisation back into raw weights and bias */
    double shift = 0.0;
    for (int64_t j = 0; j < p; ++j) {
        out[j] = params[j] / stds[j];
        shift += out[j] * means[j];
    }
    out[p] = params[p] - shift;
    *final_loss = loss;
    result = steps;
cleanup:
    free(work);
    free(idx);
    free(fixed);
    return result;
}
/* Link tilts and Eq. 5 components, read from the context: the C forms of
   gibbs.py friendship_dots / diffusion_components / diffusion_logits, for
   the state the sweep left. They match those numpy specs to rounding (the
   numpy sums run through BLAS and einsum, whose order C does not copy:
   dot products here run in lr_dot's four partial sums). */

/* Per-call tables for a link batch: scratch_eta[z][k][d] = (eta[k,d,z]
   theta[k,z]) theta[d,z], so a link's community term is
   sum_d pi_v[d] sum_k pi_u[k] scratch_eta[z][k][d]; and, returned, each
   time bucket's popularity row total in proportion mode (integer counts,
   so any summation order gives numpy's total). The caller frees it; NULL
   when there is nothing to hold or the allocation failed, and
   pop_row_denom then runs per link. */
static double *link_tables(CpdCtx *c) {
    const int64_t C = c->n_communities, Z = c->n_topics;
    if (!c->similarity_mode) {
        const double *theta = c->theta_cache;
        for (int64_t z = 0; z < Z; ++z) {
            const double *eta_z = c->eta_oriented + (Z + z) * C * C; /* [z][k][d] */
            double *out = c->scratch_eta + z * C * C;
            for (int64_t k = 0; k < C; ++k)
                for (int64_t d = 0; d < C; ++d)
                    out[k * C + d] = (eta_z[k * C + d] * theta[k * Z + z]) * theta[d * Z + z];
        }
    }
    if (!(c->use_topic_factor && c->pop_mode == 1 && c->n_time_buckets > 0)) return NULL;
    double *pop_denom = malloc(sizeof(double) * (size_t)c->n_time_buckets);
    if (pop_denom)
        for (int64_t t = 0; t < c->n_time_buckets; ++t) pop_denom[t] = pop_row_denom(c, t);
    return pop_denom;
}

/* community (profile or similarity mode) and popularity components of one
   (source, target, time) link; an unassigned source reads as topic 0 */
static void link_terms(CpdCtx *c, const double *pop_denom, int64_t src, int64_t tgt,
                       int64_t t, double *community, double *popularity) {
    const int64_t C = c->n_communities;
    const double *pi_u = c->pi_cache + c->doc_user[src] * C;
    const double *pi_v = c->pi_cache + c->doc_user[tgt] * C;
    const int64_t topic = c->doc_topic[src];
    const int64_t z = topic >= 0 ? topic : 0;
    if (c->similarity_mode) {
        *community = lr_dot(pi_u, pi_v, NULL, C);
    } else {
        /* acc[d] = sum_k pi_u[k] folded[k][d]: C independent sums */
        const double *folded = c->scratch_eta + z * C * C;
        double *acc = c->scratch_q;
        for (int64_t d = 0; d < C; ++d) acc[d] = pi_u[0] * folded[d];
        for (int64_t k = 1; k < C; ++k) {
            const double w = pi_u[k];
            const double *row = folded + k * C;
            for (int64_t d = 0; d < C; ++d) acc[d] += w * row[d];
        }
        *community = lr_dot(acc, pi_v, NULL, C);
    }
    *popularity = 0.0;
    if (c->use_topic_factor) {
        double denom = 1.0;
        if (c->pop_mode == 1) denom = pop_denom ? pop_denom[t] : pop_row_denom(c, t);
        *popularity = pop_cell(c, t, z, denom);
    }
}

/* Community and popularity components for any batch of links. Returns -1,
   before writing anything, when an id is out of range. */
int64_t cpd_link_components(CpdCtx *c, const int64_t *src, const int64_t *tgt,
                            const int64_t *time, int64_t n, double *community,
                            double *popularity) {
    for (int64_t i = 0; i < n; ++i) {
        if (src[i] < 0 || src[i] >= c->n_docs || tgt[i] < 0 || tgt[i] >= c->n_docs)
            return -1;
        if (c->use_topic_factor && (time[i] < 0 || time[i] >= c->n_time_buckets))
            return -1;
    }
    double *pop_denom = link_tables(c);
    for (int64_t i = 0; i < n; ++i)
        link_terms(c, pop_denom, src[i], tgt[i], time[i], community + i, popularity + i);
    free(pop_denom);
    return 0;
}

/* PG tilts for links [start, stop): which 0 is the Eq. 15 friendship tilt
   pi_u . pi_v, which 1 the Eq. 16 diffusion tilt (the raw pi_u . pi_v in
   similarity mode, else the Eq. 5 logit summed as DiffusionParameters.logits
   does). */
void cpd_link_tilts(CpdCtx *c, int64_t which, int64_t start, int64_t stop, double *z) {
    const int64_t C = c->n_communities;
    const int64_t n = stop - start;
    if (which == 0) {
        for (int64_t i = 0; i < n; ++i)
            z[i] = lr_dot(c->pi_cache + c->f_src[start + i] * C,
                          c->pi_cache + c->f_tgt[start + i] * C, NULL, C);
    } else {
        double *pop_denom = link_tables(c);
        for (int64_t i = 0; i < n; ++i) {
            const int64_t link = start + i;
            double community, popularity;
            link_terms(c, pop_denom, c->e_src[link], c->e_tgt[link], c->e_time[link],
                       &community, &popularity);
            if (c->similarity_mode) {
                z[i] = community;
                continue;
            }
            double logit = c->comm_weight * community + c->pop_weight * popularity;
            if (c->use_individual_factor) logit += c->e_feature[link];
            z[i] = logit + c->bias;
        }
        free(pop_denom);
    }
}
""".replace("__STRUCT_BODY__", _STRUCT_BODY)


# ---------------------------------------------------------------- building

_LOCK = threading.Lock()
_LIB: ctypes.CDLL | None = None
_LIB_ERROR: str | None = None


def _find_compiler() -> str:
    compiler = os.environ.get("CC")
    if compiler:
        found = shutil.which(compiler)
        if found is None:
            raise CompiledBackendUnavailable(f"$CC={compiler!r} is not executable")
        return found
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found is not None:
            return found
    raise CompiledBackendUnavailable("no C compiler found (tried $CC, cc, gcc, clang)")


def _cache_dir() -> str:
    override = os.environ.get(CACHE_ENV)
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-cc-{uid}")


def _build_library_path() -> str:
    """Compile (or reuse) the shared object; returns its path."""
    compiler = _find_compiler()
    digest = hashlib.sha256(
        (_C_SOURCE + "\x00" + compiler).encode("utf-8")
    ).hexdigest()[:16]
    cache_dir = _cache_dir()
    library = os.path.join(cache_dir, f"cpd_sweep_{digest}.so")
    if os.path.exists(library):
        return library
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as error:
        raise CompiledBackendUnavailable(f"cannot create cache dir: {error}") from error
    source = os.path.join(cache_dir, f"cpd_sweep_{digest}.c")
    scratch = f"{library}.{os.getpid()}.tmp"
    try:
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(_C_SOURCE)
        # no -ffast-math: IEEE arithmetic is part of the parity contract
        command = [
            compiler, "-O3", "-fPIC", "-shared", "-std=c99",
            source, "-o", scratch, "-lm",
        ]
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=120
        )
        if completed.returncode != 0:
            detail = (completed.stderr or completed.stdout or "").strip()
            raise CompiledBackendUnavailable(
                f"C compilation failed ({' '.join(command[:2])}): {detail[:400]}"
            )
        os.replace(scratch, library)  # atomic: concurrent builders race safely
    except (OSError, subprocess.SubprocessError) as error:
        raise CompiledBackendUnavailable(f"C compilation failed: {error}") from error
    finally:
        if os.path.exists(scratch):
            try:
                os.unlink(scratch)
            except OSError:
                pass
    return library


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    ctx_p = ctypes.POINTER(CpdCtx)
    f64_p = ctypes.POINTER(ctypes.c_double)
    i64_p = ctypes.POINTER(ctypes.c_int64)
    library.cpd_topic_log_weights.argtypes = [ctx_p, ctypes.c_int64, ctypes.c_int64, f64_p]
    library.cpd_topic_log_weights.restype = None
    library.cpd_community_log_weights.argtypes = [ctx_p, ctypes.c_int64, ctypes.c_int64, f64_p]
    library.cpd_community_log_weights.restype = None
    library.cpd_sweep_docs.argtypes = [ctx_p, i64_p, ctypes.c_int64, f64_p]
    library.cpd_sweep_docs.restype = ctypes.c_int64
    library.cpd_draw_log_categorical.argtypes = [f64_p, ctypes.c_int64, ctypes.c_double, f64_p]
    library.cpd_draw_log_categorical.restype = ctypes.c_int64
    library.cpd_log_table.argtypes = [f64_p, ctypes.c_int64, ctypes.c_double]
    library.cpd_log_table.restype = None
    # raw addresses: pg1_rounds checks dtypes once per draw, not per round
    void_p = ctypes.c_void_p
    library.cpd_pg1.argtypes = [
        void_p, void_p, ctypes.c_int64, void_p, void_p, ctypes.c_int64, void_p
    ]
    library.cpd_pg1.restype = ctypes.c_int64
    i64 = ctypes.c_int64
    library.cpd_link_components.argtypes = [ctx_p, void_p, void_p, void_p, i64, void_p, void_p]
    library.cpd_link_components.restype = i64
    library.cpd_link_tilts.argtypes = [ctx_p, i64, i64, i64, void_p]
    library.cpd_link_tilts.restype = None
    library.cpd_lda_sweep.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
        i64_p, i64_p, i64_p, f64_p, f64_p, f64_p, f64_p, f64_p,
    ]
    library.cpd_lda_sweep.restype = None
    library.cpd_logistic_newton.argtypes = [
        void_p, void_p, void_p, ctypes.c_int64, ctypes.c_int64, void_p, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_int64, void_p,
        ctypes.c_double, void_p, ctypes.POINTER(ctypes.c_double),
    ]
    library.cpd_logistic_newton.restype = ctypes.c_int64
    return library


def load_library() -> ctypes.CDLL:
    """The compiled sweep library, built on first use and memoized.

    Raises :class:`CompiledBackendUnavailable` — once established, the
    failure is memoized too, so every subsequent kernel construction falls
    back instantly instead of re-running the toolchain probe.
    """
    global _LIB, _LIB_ERROR
    if os.environ.get(DISABLE_ENV, "").strip() not in ("", "0"):
        raise CompiledBackendUnavailable(f"disabled by {DISABLE_ENV}")
    with _LOCK:
        if _LIB is not None:
            return _LIB
        if _LIB_ERROR is not None:
            raise CompiledBackendUnavailable(_LIB_ERROR)
        try:
            _LIB = _bind(ctypes.CDLL(_build_library_path()))
        except CompiledBackendUnavailable as error:
            _LIB_ERROR = str(error)
            raise
        except OSError as error:
            _LIB_ERROR = f"cannot load compiled library: {error}"
            raise CompiledBackendUnavailable(_LIB_ERROR) from error
        return _LIB


def backend_status() -> tuple[bool, str | None]:
    """``(available, reason)`` — reason is ``None`` when the backend loads."""
    try:
        load_library()
    except CompiledBackendUnavailable as error:
        return False, str(error)
    return True, None


def pg1_rounds(
    z: np.ndarray, pending: np.ndarray, branch: np.ndarray, out: np.ndarray
) -> Callable[[np.ndarray], int]:
    """Bind ``cpd_pg1`` to one draw's buffers; returns ``round(uniforms) -> kept``.

    The C twin of ``sampling/polya_gamma.py:_pg1_round``: a round feeds
    row ``i`` of the ``(n_pending, slots)`` block ``uniforms`` to link
    ``pending[i]``, writes accepted draws to ``out``, compacts the links
    still pending to the front of ``pending`` with their branch in
    ``branch``, and returns their count. C reads and writes every array
    through its pointer, so each must be C-contiguous with the kernel's
    dtype; the pointers are taken once here, since ``pending`` only ever
    shrinks in place. Raises :class:`CompiledBackendUnavailable` without a
    backend.
    """
    library = load_library()
    if not (z.ndim == 1 and pending.shape == branch.shape == out.shape == z.shape):
        raise ValueError("PG round arrays must match z in shape")
    for array, kind in ((z, "p_f64"), (pending, "p_i64"), (branch, "p_i8"), (out, "p_f64")):
        if array.dtype != _POINTER_DTYPES[kind] or not array.flags.c_contiguous:
            raise ValueError(
                f"PG round arrays must be C-contiguous {_POINTER_DTYPES[kind]}, "
                f"got {array.dtype} (contiguous={array.flags.c_contiguous})"
            )
    if pending.size and not (0 <= pending.min() and pending.max() < z.shape[0]):
        raise ValueError("pending link ids must index z")
    z_p, pending_p, branch_p, out_p = (
        z.ctypes.data, pending.ctypes.data, branch.ctypes.data, out.ctypes.data
    )

    def draw_round(uniforms: np.ndarray) -> int:
        if not (
            uniforms.ndim == 2
            and uniforms.shape[0] <= pending.shape[0]
            and uniforms.dtype == np.float64
            and uniforms.flags.c_contiguous
        ):
            raise ValueError("PG round needs a C-contiguous float64 row per pending link")
        n_pending, slots = uniforms.shape
        return library.cpd_pg1(
            z_p, pending_p, n_pending, branch_p, uniforms.ctypes.data, slots, out_p
        )

    draw_round.buffers = (z, pending, branch, out)  # C keeps their raw addresses
    return draw_round


def lda_sweep(
    words: np.ndarray,
    indptr: np.ndarray,
    assignments: np.ndarray,
    topic_word: np.ndarray,
    doc_topic: np.ndarray,
    topic_totals: np.ndarray,
    alpha: float,
    beta: float,
    uniforms: np.ndarray,
) -> None:
    """One compiled collapsed-Gibbs LDA sweep (``cpd_lda_sweep``), in place.

    ``words``/``indptr`` are the CSR token layout, ``uniforms`` one draw
    per token. The count arrays and ``assignments`` are mutated through
    their pointers, so each must be C-contiguous with the kernel's dtype
    (a silent copy would divert the updates into a throwaway buffer). The
    caller guarantees word ids in ``[0, n_words)``, assignments in
    ``[0, n_topics)`` and positive priors. Raises
    :class:`CompiledBackendUnavailable` without a backend.
    """
    library = load_library()
    n_topics, n_words = topic_word.shape
    n_docs = indptr.shape[0] - 1
    if (
        doc_topic.shape != (n_docs, n_topics)
        or topic_totals.shape != (n_topics,)
        or assignments.shape != words.shape
        or uniforms.shape != words.shape
        or indptr[-1] != words.shape[0]
    ):
        raise ValueError("inconsistent LDA sweep shapes")
    weights = np.empty(n_topics, dtype=np.float64)  # per-token scratch
    pointers = []
    for array, kind in (
        (words, "p_i64"), (indptr, "p_i64"), (assignments, "p_i64"),
        (topic_word, "p_f64"), (doc_topic, "p_f64"), (topic_totals, "p_f64"),
        (uniforms, "p_f64"), (weights, "p_f64"),
    ):
        if array.dtype != _POINTER_DTYPES[kind] or not array.flags.c_contiguous:
            raise ValueError(
                f"LDA sweep arrays must be C-contiguous {_POINTER_DTYPES[kind]}, "
                f"got {array.dtype} (contiguous={array.flags.c_contiguous})"
            )
        pointers.append(array.ctypes.data_as(_CTYPES_TYPES[kind]))
    library.cpd_lda_sweep(n_docs, n_topics, n_words, float(alpha), float(beta), *pointers)


def logistic_newton(
    features: np.ndarray,
    labels: np.ndarray,
    offsets: np.ndarray | None,
    clamped: np.ndarray,
    initial_weights: np.ndarray | None,
    initial_bias: float,
    *,
    l2_penalty: float,
    fit_bias: bool,
    standardize: bool,
    tolerance: float,
    max_steps: int,
) -> tuple[np.ndarray, float, int, float] | None:
    """One compiled projected-Newton logistic fit (``cpd_logistic_newton``).

    The C twin of ``LogisticTrainer.fit``'s numpy loop over already
    validated float64 arrays; ``clamped`` flags the non-negative entries
    of the weights-then-bias vector. Returns ``(weights, bias, steps,
    final_loss)``, or ``None`` when a Cholesky pivot shows a Hessian block
    the numpy loop's lstsq may treat as singular (the caller then runs
    that loop). Raises :class:`CompiledBackendUnavailable` without a
    backend.
    """
    library = load_library()
    features = np.ascontiguousarray(features, dtype=np.float64)
    n, p = features.shape

    def address(array: np.ndarray | None, shape: tuple, dtype=np.float64):
        if array is None:
            return None, None
        array = np.ascontiguousarray(array, dtype=dtype)
        if array.shape != shape:
            raise ValueError("inconsistent logistic fit shapes")
        return array, array.ctypes.data

    # the arrays are bound to names so they outlive the call
    labels, labels_p = address(labels, (n,))
    offsets, offsets_p = address(offsets, (n,))
    clamped, clamped_p = address(clamped, (p + 1,), np.int8)
    initial_weights, initial_p = address(initial_weights, (p,))
    out = np.empty(p + 1)
    loss = ctypes.c_double()
    steps = library.cpd_logistic_newton(
        features.ctypes.data, labels_p, offsets_p, n, p, clamped_p, int(fit_bias),
        int(standardize), float(l2_penalty), float(tolerance), int(max_steps),
        initial_p, float(initial_bias), out.ctypes.data, ctypes.byref(loss),
    )
    if steps < 0:
        return None
    return out[:p], float(out[p]), int(steps), loss.value
