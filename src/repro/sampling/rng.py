"""Seed normalisation shared by every stochastic component.

All samplers in :mod:`repro` accept either an integer seed, ``None`` or a
:class:`numpy.random.Generator` and normalise it through :func:`ensure_rng`,
so experiments are reproducible end to end from a single seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    ``None`` yields a fresh nondeterministic generator, an ``int`` seeds a new
    generator, and an existing generator is passed through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__!r}")
