"""Profile-driven community visualization (paper Sect. 5 & Fig. 7).

Builds community-diffusion graphs in the paper's two modes — one topic, or
all topics aggregated — with edges below the average strength pruned
exactly as Fig. 7 does. Since this library is headless, the render targets
are a networkx DiGraph, Graphviz DOT, a JSON payload for the paper's
SocialLens-style interactive frontend, and an ASCII table.

``community_labels`` and ``build_diffusion_graph`` accept either a raw
:class:`CPDResult` (the legacy path) or a
:class:`repro.serving.ProfileStore`, in which case labels and diffusion
tensor slices come from the store's memoised indexes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from ..core.result import CPDResult
from ..graph.vocabulary import Vocabulary
from ..serving import ProfileStore
from ..serving.store import compute_community_labels

if TYPE_CHECKING:
    import networkx as nx


def community_labels(
    source: ProfileStore | CPDResult,
    vocabulary: Vocabulary | None = None,
    n_words: int = 3,
) -> list[str]:
    """Label each community by the top words of its dominant topics."""
    if isinstance(source, ProfileStore):
        return source.labels(n_words)
    if vocabulary is None:
        raise ValueError("community_labels needs a vocabulary with a raw CPDResult")
    return compute_community_labels(source, vocabulary, n_words)


def build_diffusion_graph(
    source: ProfileStore | CPDResult,
    topic: int | None = None,
    prune_below_average: bool = True,
    labels: list[str] | None = None,
) -> nx.DiGraph:
    """The community-diffusion graph of Fig. 7.

    Edge weight is ``eta_cc'z`` for a specific topic, or ``sum_z eta_cc'z``
    under topic aggregation; edges below the average strength are skipped
    "for simpler visualization" (Sect. 6.3.3).
    """
    if isinstance(source, ProfileStore):
        result = source.result
        strengths = (
            source.aggregated_diffusion() if topic is None
            else source.diffusion_slice(topic)
        )
    else:
        result = source
        if topic is None:
            strengths = result.aggregated_diffusion_matrix()
        else:
            if not 0 <= topic < result.n_topics:
                raise ValueError(f"topic {topic} out of range")
            strengths = result.eta[:, :, topic]

    import networkx as nx  # heavy to import; no fit or request path calls this

    graph = nx.DiGraph(topic=topic if topic is not None else "aggregated")
    for community in range(result.n_communities):
        graph.add_node(
            community,
            label=(labels[community] if labels else f"c{community:02d}"),
            openness=result.openness(community),
            self_strength=float(strengths[community, community]),
        )
    threshold = float(strengths.mean()) if prune_below_average else 0.0
    for source in range(result.n_communities):
        for target in range(result.n_communities):
            weight = float(strengths[source, target])
            if weight > threshold:
                graph.add_edge(source, target, weight=weight)
    return graph


def to_dot(graph: nx.DiGraph) -> str:
    """Graphviz DOT rendering with strength-scaled pen widths."""
    weights = [data["weight"] for _, _, data in graph.edges(data=True)]
    max_weight = max(weights) if weights else 1.0
    lines = ["digraph community_diffusion {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for node, data in graph.nodes(data=True):
        label = data.get("label", f"c{node}")
        lines.append(f'  n{node} [label="{label}\\nopen={data.get("openness", 0.0):.2f}"];')
    for source, target, data in graph.edges(data=True):
        width = 0.5 + 4.0 * data["weight"] / max_weight
        lines.append(
            f'  n{source} -> n{target} [penwidth={width:.2f}, label="{data["weight"]:.4f}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def to_json(graph: nx.DiGraph) -> str:
    """JSON payload (nodes + weighted edges) for interactive frontends."""
    payload = {
        "topic": graph.graph.get("topic"),
        "nodes": [
            {
                "id": int(node),
                "label": data.get("label", ""),
                "openness": data.get("openness", 0.0),
                "self_strength": data.get("self_strength", 0.0),
            }
            for node, data in graph.nodes(data=True)
        ],
        "edges": [
            {"source": int(s), "target": int(t), "weight": data["weight"]}
            for s, t, data in graph.edges(data=True)
        ],
    }
    return json.dumps(payload, indent=2)


def ascii_render(graph: nx.DiGraph, max_edges: int = 20) -> str:
    """Edge table sorted by strength — the terminal-friendly Fig. 7."""
    edges = sorted(
        graph.edges(data=True), key=lambda edge: -edge[2]["weight"]
    )[:max_edges]
    weights = [data["weight"] for _, _, data in edges]
    max_weight = max(weights) if weights else 1.0
    lines = [f"community diffusion (topic={graph.graph.get('topic')})"]
    for source, target, data in edges:
        bar = "#" * max(1, int(round(20 * data["weight"] / max_weight)))
        source_label = graph.nodes[source].get("label", f"c{source}")
        target_label = graph.nodes[target].get("label", f"c{target}")
        lines.append(
            f"  {source_label:>18s} -> {target_label:<18s} {data['weight']:.4f} {bar}"
        )
    return "\n".join(lines)


def openness_report(result: CPDResult, labels: list[str] | None = None) -> list[tuple[str, float]]:
    """Communities sorted from most open to most closed (Fig. 7(a) analysis)."""
    entries = []
    for community in range(result.n_communities):
        label = labels[community] if labels else f"c{community:02d}"
        entries.append((label, result.openness(community)))
    entries.sort(key=lambda entry: -entry[1])
    return entries


def topic_generality(result: CPDResult) -> np.ndarray:
    """How many communities diffuse each topic above average (Fig. 7(b) vs (c)).

    General topics are diffused by many community pairs; specialised topics
    by few.
    """
    generality = np.zeros(result.n_topics)
    for topic in range(result.n_topics):
        strengths = result.eta[:, :, topic]
        generality[topic] = float((strengths > strengths.mean()).sum())
    return generality
