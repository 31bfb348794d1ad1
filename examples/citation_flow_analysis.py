"""Citation-flow analysis: profile-driven visualization on DBLP.

Reproduces the paper's Sect. 6.3.3 analysis on the DBLP-flavoured
scenario: which research communities are "open" (diffusing with many
others) vs "closed", how diffusion differs between a general and a
specialised topic, and which communities cite each other on what.

Writes Graphviz DOT and JSON exports into the working directory.

Run:  python examples/citation_flow_analysis.py
"""

from pathlib import Path

import numpy as np

from repro import dblp_scenario, fit_cpd
from repro.apps import (
    ascii_render,
    build_diffusion_graph,
    community_labels,
    openness_report,
    to_dot,
    to_json,
    topic_generality,
)


def main() -> None:
    graph, _truth = dblp_scenario("small", rng=2)
    print(graph)

    result = fit_cpd(
        graph, n_communities=6, n_topics=12, n_iterations=25, rng=2,
        alpha=0.5, rho=0.5,
    )
    labels = community_labels(result, graph.vocabulary, n_words=3)

    # Fig. 7(a): aggregated citation flow between communities
    aggregated = build_diffusion_graph(result, labels=labels)
    print()
    print(ascii_render(aggregated))

    # openness: which communities cite across their own boundary?
    print("\ncommunity openness (most open research communities first):")
    for label, openness in openness_report(result, labels):
        print(f"  {label:<28s} {openness:.3f}")

    # Fig. 7(b)/(c): general vs specialised topics
    generality = topic_generality(result)
    general = int(np.argmax(generality))
    specialised = int(np.argmin(generality))
    print(f"\nmost general topic: T{general} "
          f"({', '.join(w for w, _ in result.top_words(general, 4, graph.vocabulary))})")
    print(ascii_render(build_diffusion_graph(result, topic=general, labels=labels)))
    print(f"\nmost specialised topic: T{specialised} "
          f"({', '.join(w for w, _ in result.top_words(specialised, 4, graph.vocabulary))})")
    print(ascii_render(build_diffusion_graph(result, topic=specialised, labels=labels)))

    # pairwise case study (the paper's Fig. 5(c))
    matrix = result.aggregated_diffusion_matrix()
    off_diagonal = matrix - np.diag(np.diag(matrix))
    a, b = np.unravel_index(np.argmax(off_diagonal), matrix.shape)
    print(f"\nstrongest cross-community flow: c{a} -> c{b}")
    for topic, strength in result.top_diffused_topics(int(a), int(b), 5):
        words = ", ".join(w for w, _ in result.top_words(topic, 3, graph.vocabulary))
        print(f"  T{topic} ({words}): {strength:.5f}")

    # machine-readable exports for external renderers
    Path("citation_flow.dot").write_text(to_dot(aggregated))
    Path("citation_flow.json").write_text(to_json(aggregated))
    print("\nwrote citation_flow.dot and citation_flow.json")


if __name__ == "__main__":
    main()
