"""Shared-memory state plane for the zero-copy parallel E-step.

The plane owns two POSIX shared-memory blocks:

* **layout** — the immutable :class:`~repro.core.layout.CorpusLayout`
  arrays (word CSR, unique-word CSR, link lists, link incidence CSRs,
  pair features, kernel word layout), written once at construction;
* **state** — the mutable sampling state: assignment vectors, count
  matrices, the popularity table, augmentation variables, diffusion
  parameters, plus the per-worker result slots, the fused PG-draw output
  slabs and the partial-eta slabs.

The coordinator *adopts* its sampler's count arrays into the state block
(mutations then land in shared memory for free) and workers attach both
blocks zero-copy: their corpus layout is a family of views over the layout
block, and their per-sweep refresh is a handful of ``memcpy``\\ s out of the
state block — no pickling anywhere on the per-sweep path.

Lifetime: the creating process owns the blocks and must :meth:`close` the
plane (unlinking both blocks); workers attach with ``owner=False`` and only
close their mappings. A ``weakref.finalize`` guard unlinks owned blocks
even when ``close()`` is never reached (e.g. an exception unwinds the
runner), so no ``/dev/shm`` segments outlive the process. Unlinking is
done first and tolerates outstanding numpy views: POSIX keeps the pages
alive until the last mapping drops, while the name disappears immediately.
"""

from __future__ import annotations

import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..core.config import CPDConfig
from ..core.layout import CorpusLayout

#: alignment of every array inside a block (cache-line friendly)
_ALIGN = 64


def _pack_specs(
    shapes: dict[str, tuple[tuple[int, ...], np.dtype]],
) -> tuple[int, dict[str, tuple[int, tuple[int, ...], str]]]:
    """Assign aligned offsets; returns (total bytes, name -> (offset, shape, dtype))."""
    offset = 0
    specs: dict[str, tuple[int, tuple[int, ...], str]] = {}
    for name, (shape, dtype) in shapes.items():
        dtype = np.dtype(dtype)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        specs[name] = (offset, tuple(int(s) for s in shape), dtype.str)
        offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return max(offset, 1), specs


def _map_arrays(
    block: shared_memory.SharedMemory,
    specs: dict[str, tuple[int, tuple[int, ...], str]],
) -> dict[str, np.ndarray]:
    """Numpy views over one block, per the offset table."""
    return {
        name: np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf, offset=offset)
        for name, (offset, shape, dtype) in specs.items()
    }


def _unlink_blocks(blocks: list[shared_memory.SharedMemory]) -> None:
    """Unlink without unmapping — the ``weakref.finalize`` safety net.

    Unlinking removes the ``/dev/shm`` name (and the resource-tracker
    registration) immediately; POSIX keeps the pages alive until the last
    mapping drops. The mappings are deliberately *not* closed here: numpy
    releases its buffer exports eagerly, so ``SharedMemory.close()`` can
    unmap while views are still referenced and every later read would be a
    use-after-unmap. Explicit :meth:`SharedStatePlane.close` does unmap,
    after callers have dropped (or privatised, see
    ``ParallelEStepRunner.close``) every view.
    """
    for block in blocks:
        try:
            block.unlink()
        except FileNotFoundError:
            pass


def _close_blocks(blocks: list[shared_memory.SharedMemory], owner: bool) -> None:
    """Unlink (owner only) and unmap; callers guarantee no views remain."""
    if owner:
        _unlink_blocks(blocks)
    for block in blocks:
        try:
            block.close()
        except BufferError:  # pragma: no cover - a view escaped; keep mapped
            pass


@dataclass(frozen=True)
class PlaneSpec:
    """Picklable attach handle: block names, offset tables, dimensions."""

    layout_block: str
    state_block: str
    layout_specs: dict[str, tuple[int, tuple[int, ...], str]]
    state_specs: dict[str, tuple[int, tuple[int, ...], str]]
    n_users: int
    n_docs: int
    n_words: int


class SharedStatePlane:
    """Owner/attachment view over the two shared blocks (see module doc)."""

    #: state arrays mirroring ``CPDState.SHARED_FIELDS`` plus the sampler's
    #: augmentation/parameter arrays and the per-worker communication slots
    def __init__(
        self,
        layout: CorpusLayout,
        config: CPDConfig,
        n_workers: int,
        n_time_buckets: int,
        n_features: int,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        arrays = layout.arrays()
        layout_shapes = {
            name: (array.shape, array.dtype) for name, array in arrays.items()
        }
        layout_bytes, layout_specs = _pack_specs(layout_shapes)

        n_c, n_z = config.n_communities, config.n_topics
        n_u, n_d, n_w = layout.n_users, layout.n_docs, layout.n_words
        n_f, n_e = layout.n_friend_links, layout.n_diff_links
        state_shapes: dict[str, tuple[tuple[int, ...], np.dtype]] = {
            "doc_community": ((n_d,), np.dtype(np.int64)),
            "doc_topic": ((n_d,), np.dtype(np.int64)),
            "user_community": ((n_u, n_c), np.dtype(np.float64)),
            "community_topic": ((n_c, n_z), np.dtype(np.float64)),
            "topic_word": ((n_z, n_w), np.dtype(np.float64)),
            "user_totals": ((n_u,), np.dtype(np.float64)),
            "community_totals": ((n_c,), np.dtype(np.float64)),
            "topic_totals": ((n_z,), np.dtype(np.float64)),
            "popularity": ((n_time_buckets, n_z), np.dtype(np.float64)),
            "lambdas": ((n_f,), np.dtype(np.float64)),
            "deltas": ((n_e,), np.dtype(np.float64)),
            "eta": ((n_c, n_c, n_z), np.dtype(np.float64)),
            "nu": ((n_features,), np.dtype(np.float64)),
            "scalars": ((3,), np.dtype(np.float64)),
            "result_community": ((n_d,), np.dtype(np.int64)),
            "result_topic": ((n_d,), np.dtype(np.int64)),
            # the workers' fused PG draws land here, never in ``lambdas`` /
            # ``deltas``: those are the published input a late-starting
            # sibling may still be reading
            "fused_lambdas": ((n_f,), np.dtype(np.float64)),
            "fused_deltas": ((n_e,), np.dtype(np.float64)),
            "eta_partial": ((n_workers, n_c, n_c, n_z), np.dtype(np.float64)),
        }
        state_bytes, state_specs = _pack_specs(state_shapes)

        token = secrets.token_hex(4)
        self._owner = True
        self._closed = False
        self._blocks: list[shared_memory.SharedMemory] = []
        self._finalizer: weakref.finalize | None = None
        try:
            layout_block = shared_memory.SharedMemory(
                name=f"repro-plane-{token}-layout", create=True, size=layout_bytes
            )
            self._blocks.append(layout_block)
            state_block = shared_memory.SharedMemory(
                name=f"repro-plane-{token}-state", create=True, size=state_bytes
            )
            self._blocks.append(state_block)
        except Exception:
            _close_blocks(self._blocks, owner=True)
            raise
        self._finalizer = weakref.finalize(self, _unlink_blocks, list(self._blocks))

        self.spec = PlaneSpec(
            layout_block=layout_block.name,
            state_block=state_block.name,
            layout_specs=layout_specs,
            state_specs=state_specs,
            n_users=n_u,
            n_docs=n_d,
            n_words=n_w,
        )
        self.layout_arrays = _map_arrays(layout_block, layout_specs)
        for name, source in arrays.items():
            np.copyto(self.layout_arrays[name], source)
        self.state = _map_arrays(state_block, state_specs)
        for array in self.state.values():
            array.fill(0)

    # ------------------------------------------------------------ attachment

    @classmethod
    def attach(cls, spec: PlaneSpec) -> "SharedStatePlane":
        """Worker-side zero-copy attachment (no unlink rights)."""
        plane = cls.__new__(cls)
        plane._owner = False
        plane._closed = False
        plane._blocks = []
        plane._finalizer = None
        layout_block = shared_memory.SharedMemory(name=spec.layout_block)
        plane._blocks.append(layout_block)
        try:
            state_block = shared_memory.SharedMemory(name=spec.state_block)
        except Exception:
            _close_blocks(plane._blocks, owner=False)
            raise
        plane._blocks.append(state_block)
        plane.spec = spec
        plane.layout_arrays = _map_arrays(layout_block, spec.layout_specs)
        plane.state = _map_arrays(state_block, spec.state_specs)
        return plane

    def corpus_layout(self) -> CorpusLayout:
        """The shared immutable arrays as a :class:`CorpusLayout` of views."""
        return CorpusLayout(
            n_users=self.spec.n_users,
            n_docs=self.spec.n_docs,
            n_words=self.spec.n_words,
            **self.layout_arrays,
        )

    # ------------------------------------------------------------ dimensions

    @property
    def n_docs(self) -> int:
        return self.spec.n_docs

    @property
    def n_friend_links(self) -> int:
        return int(self.state["lambdas"].shape[0])

    @property
    def n_diff_links(self) -> int:
        return int(self.state["deltas"].shape[0])

    @property
    def n_time_buckets(self) -> int:
        return int(self.state["popularity"].shape[0])

    @property
    def block_names(self) -> tuple[str, str]:
        return (self.spec.layout_block, self.spec.state_block)

    # -------------------------------------------------------------- lifetime

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release mappings; the owner also unlinks both blocks. Idempotent.

        Callers must have dropped every numpy view over the blocks first
        (the runner privatises its sampler's adopted arrays before closing)
        — numpy's eager buffer-export release means outstanding views
        cannot be detected here.
        """
        if self._closed:
            return
        self._closed = True
        self.layout_arrays = {}
        self.state = {}
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _close_blocks(self._blocks, owner=self._owner)
        self._blocks = []

    def __enter__(self) -> "SharedStatePlane":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
