"""CPD core: joint community profiling and detection (paper Sects. 3-4)."""

# numpy's np.unique imports numpy.ma on its first call; load it here so
# that import never lands inside a timed fit or set-up (DESIGN.md §14)
import numpy.ma  # noqa: F401

from .config import CPDConfig
from .diagnostics import ConvergenceAssessment, assess_convergence
from .gibbs import CPDSampler
from .io import (
    ArtifactCheck,
    ArtifactCorruptError,
    ArtifactError,
    CPDArtifact,
    ManifestCheck,
    ShardEntry,
    ShardManifest,
    atomic_write_bytes,
    is_shard_manifest,
    load_artifact,
    load_result,
    load_shard_manifest,
    save_result,
    save_shard_manifest,
    verify_artifact,
    verify_shard_manifest,
)
from .model import CPDModel, FitOptions, fit_cpd
from .parameters import DiffusionParameters
from .profiles import (
    CommunityProfile,
    ContentProfile,
    DiffusionProfile,
    all_profiles,
    profile_of,
)
from .result import CPDResult, IterationTrace
from .state import CPDState

__all__ = [
    "CPDConfig",
    "CPDModel",
    "CPDResult",
    "CPDSampler",
    "CPDState",
    "CPDArtifact",
    "ArtifactCheck",
    "ArtifactCorruptError",
    "ArtifactError",
    "ConvergenceAssessment",
    "ManifestCheck",
    "assess_convergence",
    "atomic_write_bytes",
    "verify_artifact",
    "verify_shard_manifest",
    "ShardEntry",
    "ShardManifest",
    "is_shard_manifest",
    "load_artifact",
    "load_result",
    "load_shard_manifest",
    "save_result",
    "save_shard_manifest",
    "CommunityProfile",
    "ContentProfile",
    "DiffusionParameters",
    "DiffusionProfile",
    "FitOptions",
    "IterationTrace",
    "all_profiles",
    "fit_cpd",
    "profile_of",
]
