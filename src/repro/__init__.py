"""repro — reproduction of "From Community Detection to Community Profiling".

Cai, Zheng, Zhu, Chang, Huang. PVLDB 10(6), VLDB 2017 (arXiv:1701.04528).

The package implements the CPD model — joint Community Profiling and
Detection over a social graph ``G = (U, D, F, E)`` — together with every
substrate it needs (Pólya-Gamma augmented Gibbs sampling, LDA, diffusion
factor features, a parallel E-step runtime, a sharded fit/serve layer),
the paper's baselines and ablations, the three community-level
applications, and the full evaluation harness.

Quickstart::

    from repro import fit_cpd, twitter_scenario
    graph, truth = twitter_scenario("small", rng=0)
    result = fit_cpd(graph, n_communities=6, n_topics=12, rng=0,
                     alpha=0.5, rho=0.5)
    print(result.summary(graph.vocabulary))
"""

import importlib

__version__ = "1.0.0"

#: public names by the subpackage that defines them; each subpackage is
#: imported on the first access to one of its names (PEP 562), so
#: ``import repro`` loads no subpackage and ``import repro.core`` loads
#: none of the serving, shard and gateway layers (DESIGN.md §14)
_EXPORTS = {
    "core": (
        "CPDConfig", "CPDModel", "CPDResult", "CommunityProfile", "ContentProfile",
        "DiffusionParameters", "DiffusionProfile", "FitOptions", "all_profiles",
        "fit_cpd", "profile_of",
    ),
    "apps": ("CommunityRanker", "DiffusionPredictor"),
    "serving": ("FoldInResult", "GraphSummary", "ProfileStore", "fold_in_documents"),
    "stream": (
        "DocumentArrival", "IncrementalRefresher", "LinkArrival", "MicroBatchIngestor",
        "Snapshotter", "split_for_replay",
    ),
    "datasets": (
        "GroundTruth", "SyntheticConfig", "dblp_scenario", "generate_synthetic",
        "separated_scenario", "twitter_scenario",
    ),
    "graph": ("SocialGraph", "SocialGraphBuilder", "Vocabulary", "load_graph", "save_graph"),
    "shard": ("CommunityAligner", "GraphPartitioner", "ShardRouter", "fit_shards"),
}
_HOME = {name: package for package, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    package = _HOME.get(name)
    if package is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{package}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
