"""Descriptive network statistics for social graphs.

Extends the paper's Table 3 with the structural measures reviewers ask for
when judging whether a (synthetic) dataset is network-shaped: degree
distributions, reciprocity, clustering, diffusion cascade sizes and the
document/activity skew.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .social_graph import SocialGraph


@dataclass(frozen=True)
class DegreeSummary:
    """Five-number-ish summary of one degree sequence."""

    mean: float
    median: float
    maximum: int
    gini: float

    @classmethod
    def from_degrees(cls, degrees: np.ndarray) -> "DegreeSummary":
        degrees = np.asarray(degrees, dtype=np.float64)
        if degrees.size == 0:
            return cls(mean=0.0, median=0.0, maximum=0, gini=0.0)
        return cls(
            mean=float(degrees.mean()),
            median=float(np.median(degrees)),
            maximum=int(degrees.max()),
            gini=_gini(degrees),
        )


def _gini(values: np.ndarray) -> float:
    """Gini coefficient — 0 for equal activity, ->1 for extreme skew."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    total = values.sum()
    if total <= 0:
        return 0.0
    n = values.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * values).sum() / (n * total)) - (n + 1) / n)


@dataclass(frozen=True)
class GraphStatistics:
    """Structural profile of one social graph."""

    followers: DegreeSummary
    followees: DegreeSummary
    documents_per_user: DegreeSummary
    reciprocity: float
    clustering_coefficient: float
    diffusion_in_degree: DegreeSummary
    largest_cascade: int
    n_cascades: int

    def describe(self) -> str:
        return "\n".join(
            [
                f"followers:  mean {self.followers.mean:.2f}, max {self.followers.maximum}, gini {self.followers.gini:.2f}",
                f"followees:  mean {self.followees.mean:.2f}, max {self.followees.maximum}, gini {self.followees.gini:.2f}",
                f"docs/user:  mean {self.documents_per_user.mean:.2f}, max {self.documents_per_user.maximum}, gini {self.documents_per_user.gini:.2f}",
                f"reciprocity {self.reciprocity:.2f}, clustering {self.clustering_coefficient:.3f}",
                f"diffusion:  {self.n_cascades} cascades, largest {self.largest_cascade}, "
                f"in-degree gini {self.diffusion_in_degree.gini:.2f}",
            ]
        )


def compute_statistics(graph: SocialGraph) -> GraphStatistics:
    """Compute the full structural profile of ``graph``."""
    import networkx as nx  # heavy to import; no fit or request path calls this

    n_users = graph.n_users
    followers = np.asarray([graph.follower_count(u) for u in range(n_users)])
    followees = np.asarray([graph.followee_count(u) for u in range(n_users)])
    docs = np.asarray([len(graph.documents_of(u)) for u in range(n_users)])

    pairs = graph.friendship_pairs()
    if pairs:
        reciprocated = sum(1 for (u, v) in pairs if (v, u) in pairs)
        reciprocity = reciprocated / len(pairs)
    else:
        reciprocity = 0.0

    undirected = nx.Graph()
    undirected.add_nodes_from(range(n_users))
    undirected.add_edges_from((l.source, l.target) for l in graph.friendship_links)
    clustering = float(nx.average_clustering(undirected)) if n_users else 0.0

    diffusion_in = np.zeros(graph.n_documents)
    cascade_graph = nx.Graph()
    for link in graph.diffusion_links:
        diffusion_in[link.target_doc] += 1
        cascade_graph.add_edge(link.source_doc, link.target_doc)
    if cascade_graph.number_of_nodes():
        components = list(nx.connected_components(cascade_graph))
        largest = max(len(c) for c in components)
        n_cascades = len(components)
    else:
        largest = 0
        n_cascades = 0

    return GraphStatistics(
        followers=DegreeSummary.from_degrees(followers),
        followees=DegreeSummary.from_degrees(followees),
        documents_per_user=DegreeSummary.from_degrees(docs),
        reciprocity=reciprocity,
        clustering_coefficient=clustering,
        diffusion_in_degree=DegreeSummary.from_degrees(diffusion_in),
        largest_cascade=largest,
        n_cascades=n_cascades,
    )
