"""Random sampling substrate: RNG plumbing, categorical draws, Pólya-Gamma."""

from .categorical import (
    log_normalize,
    normalize,
    sample_categorical,
    sample_log_categorical,
    sample_many_categorical,
    sample_many_log_categorical,
)
from .dirichlet import (
    dirichlet_expected_log,
    log_delta,
    log_delta_ratio,
    smoothed_probability,
)
from .polya_gamma import (
    log_psi,
    pg_mean,
    pg_variance,
    sample_pg,
    sample_pg1,
    sample_pg_array,
    sigmoid,
)
from .rng import RngLike, SeedSequenceFactory, derive_seed, ensure_rng, spawn_rngs

__all__ = [
    "RngLike",
    "SeedSequenceFactory",
    "derive_seed",
    "dirichlet_expected_log",
    "ensure_rng",
    "log_delta",
    "log_delta_ratio",
    "log_normalize",
    "log_psi",
    "normalize",
    "pg_mean",
    "pg_variance",
    "sample_categorical",
    "sample_log_categorical",
    "sample_many_categorical",
    "sample_many_log_categorical",
    "sample_pg",
    "sample_pg1",
    "sample_pg_array",
    "sigmoid",
    "smoothed_probability",
    "spawn_rngs",
]
