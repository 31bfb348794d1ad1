"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure of the paper on the
laptop-scale synthetic scenarios (DESIGN.md §2-3). Heavy artifacts — the
scenario graphs and every model fit — are memoised in module-level caches so
figures that share fits (e.g. Fig. 3 and Fig. 9) pay for them once per
pytest session.

Results are printed *and* written to ``benchmarks/results/`` so the series
survive pytest's stdout capture. The ``BENCH_*.json`` trajectory records go
through :func:`write_record`.

Three environment knobs support the CI smoke job (run every benchmark at
tiny sizes to guard against bit-rot, without enforcing the paper-shaped
relations that only hold at full scale):

* ``REPRO_BENCH_SCALE`` — scenario scale passed to the generators
  (default ``small``; the smoke job sets ``tiny``);
* ``REPRO_BENCH_ITERATIONS`` — EM iterations per fit (default 20);
* ``REPRO_BENCH_SMOKE=1`` — demote :func:`contract` assertions to printed
  warnings, and write trajectory records to ``benchmarks/results/``
  instead of over the committed ones.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.apps import CommunityRanker, DiffusionPredictor
from repro.baselines import (
    COLD,
    COLDAgg,
    CRM,
    CRMAgg,
    PMTLM,
    WTM,
    CPDVariant,
)
from repro.core import CPDConfig
from repro.datasets import dblp_scenario, twitter_scenario
from repro.evaluation import (
    average_conductance,
    content_perplexity,
    diffusion_auc_folds,
    friendship_auc_folds,
)
from repro.obs import Histogram

RESULTS_DIR = Path(__file__).parent / "results"
#: where the committed ``BENCH_*.json`` trajectory records live
REPO_ROOT = Path(__file__).resolve().parent.parent

#: scenario scale for every benchmark graph (see module docstring)
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
#: demote contract() assertions to warnings (CI smoke job)
SMOKE_MODE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: the scaled-down analogue of the paper's |C| in {20, 50, 100, 150}
COMMUNITY_SWEEP = (4, 6, 8)
#: number of topics, matched to the scenarios' planted dimension
N_TOPICS = 12
#: EM iterations for every fit
N_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "20"))
#: scenario seed (one graph per scenario, like the paper's fixed datasets)
SCENARIO_SEED = 3
#: fit/evaluation seed
FIT_SEED = 103

_GRAPH_CACHE: dict = {}
_MODEL_CACHE: dict = {}
_SCORE_CACHE: dict = {}


def get_scenario(name: str):
    """The benchmark graph for ``name`` in {'twitter', 'dblp'} (cached)."""
    if name not in _GRAPH_CACHE:
        maker = {"twitter": twitter_scenario, "dblp": dblp_scenario}[name]
        _GRAPH_CACHE[name] = maker(BENCH_SCALE, rng=SCENARIO_SEED)
    return _GRAPH_CACHE[name]


def cpd_config(n_communities: int) -> CPDConfig:
    """Benchmark CPD config; scale-appropriate priors (DESIGN.md §3)."""
    return CPDConfig(
        n_communities=n_communities,
        n_topics=N_TOPICS,
        n_iterations=N_ITERATIONS,
        rho=0.5,
        alpha=0.5,
    )


def make_method(kind: str, n_communities: int):
    """Instantiate an unfitted method by registry name."""
    config = cpd_config(n_communities)
    registry = {
        "CPD": lambda: CPDVariant(config),
        "no_joint": lambda: CPDVariant(config, "no_joint"),
        "no_heterogeneity": lambda: CPDVariant(config, "no_heterogeneity"),
        "no_topic": lambda: CPDVariant(config, "no_topic"),
        "no_individual_topic": lambda: CPDVariant(config, "no_individual_topic"),
        "PMTLM": lambda: PMTLM(n_communities, lda_iterations=30),
        "WTM": lambda: WTM(),
        "CRM": lambda: CRM(n_communities, n_iterations=30),
        "COLD": lambda: COLD(
            n_communities, N_TOPICS, n_iterations=N_ITERATIONS, rho=0.5, alpha=0.5
        ),
        "CRM+Agg": lambda: CRMAgg(n_communities, N_TOPICS, n_iterations=30),
        "COLD+Agg": lambda: COLDAgg(
            n_communities, N_TOPICS, n_iterations=N_ITERATIONS, rho=0.5, alpha=0.5
        ),
    }
    return registry[kind]()


def get_fitted(scenario: str, kind: str, n_communities: int):
    """A fitted method instance (cached per scenario/kind/|C|)."""
    key = (scenario, kind, n_communities)
    if key not in _MODEL_CACHE:
        graph, _truth = get_scenario(scenario)
        _MODEL_CACHE[key] = make_method(kind, n_communities).fit(graph, rng=FIT_SEED)
    return _MODEL_CACHE[key]


def get_scores(scenario: str, kind: str, n_communities: int) -> dict:
    """Detection + link-prediction scores for one fitted method (cached).

    Returns conductance (top-1 soft assignment, the scaled-down analogue of
    the paper's top-5 of 20-150 communities), friendship AUC and diffusion
    AUC with per-fold vectors.
    """
    key = (scenario, kind, n_communities)
    if key in _SCORE_CACHE:
        return _SCORE_CACHE[key]
    graph, _truth = get_scenario(scenario)
    method = get_fitted(scenario, kind, n_communities)
    scores: dict = {"method": kind, "scenario": scenario, "C": n_communities}

    diffusion = diffusion_auc_folds(graph, method.diffusion_scores, rng=7)
    scores["diffusion_auc"] = diffusion.mean
    scores["diffusion_folds"] = diffusion.fold_scores

    memberships = method.memberships()
    if memberships is not None:
        scores["conductance"] = average_conductance(graph, memberships, top_k=1)
        friendship = friendship_auc_folds(graph, method.friendship_scores, rng=7)
        scores["friendship_auc"] = friendship.mean
        scores["friendship_folds"] = friendship.fold_scores
    else:
        scores["conductance"] = float("nan")
        scores["friendship_auc"] = float("nan")
    _SCORE_CACHE[key] = scores
    return scores


def get_predictor(scenario: str, n_communities: int) -> DiffusionPredictor:
    """Diffusion predictor over the cached full-CPD fit."""
    graph, _ = get_scenario(scenario)
    return DiffusionPredictor(get_fitted(scenario, "CPD", n_communities).result, graph)


def get_ranker(scenario: str, n_communities: int) -> CommunityRanker:
    """Community ranker over the cached full-CPD fit."""
    graph, _ = get_scenario(scenario)
    return CommunityRanker(get_fitted(scenario, "CPD", n_communities).result, graph)


def method_perplexity(scenario: str, kind: str, n_communities: int) -> float:
    """Content-profile perplexity for any method exposing profiles."""
    graph, _ = get_scenario(scenario)
    method = get_fitted(scenario, kind, n_communities)
    profiles = method.profiles()
    memberships = method.memberships()
    if profiles is None or memberships is None:
        return float("nan")
    return content_perplexity(graph, memberships, profiles.theta, profiles.phi)


# -------------------------------------------------------------------- timing


class LatencyTimer:
    """A per-lap stopwatch backed by the telemetry histogram type.

    Benchmarks used to report only aggregate wall seconds; laps recorded
    through :meth:`lap` land in a :class:`repro.obs.Histogram`, so the same
    fixed-bucket estimator that powers ``repro top`` gives the benches
    p50/p95/p99 latency columns for free (and the summary dict drops
    straight into the ``BENCH_*.json`` records).
    """

    def __init__(self, name: str, bounds=None):
        self.histogram = Histogram(name, bounds=bounds)

    @contextmanager
    def lap(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.histogram.observe(time.perf_counter() - started)

    def observe(self, seconds: float) -> None:
        self.histogram.observe(seconds)

    @property
    def total_seconds(self) -> float:
        return self.histogram.sum

    def summary(self) -> dict:
        hist = self.histogram
        return {
            "count": hist.count,
            "total_seconds": hist.sum,
            "mean": hist.mean,
            "p50": hist.percentile(0.50),
            "p95": hist.percentile(0.95),
            "p99": hist.percentile(0.99),
            "max": hist.max if hist.count else 0.0,
        }


# ------------------------------------------------------------------ reporting


def contract(condition: bool, message: str = "") -> None:
    """Assert a paper-shaped relation — demoted to a warning in smoke mode.

    The benchmark contracts (CPD beats baseline X, speedup ≥ Y) only hold
    at the calibrated full scale; the CI smoke job runs every benchmark at
    tiny sizes purely to catch bit-rot, so there they print instead of
    fail.
    """
    if condition:
        return
    if SMOKE_MODE:
        print(f"[smoke] contract skipped: {message or 'condition failed'}")
        return
    raise AssertionError(message or "benchmark contract failed")


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """Fixed-width table matching the paper's row/series layout."""
    widths = [
        max(len(str(headers[i])), *(len(_fmt(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        lines.append("  ".join(_fmt(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


def report(name: str, text: str) -> None:
    """Print a series and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def write_record(name: str, payload: dict) -> Path:
    """Write the ``BENCH_<name>.json`` trajectory record; returns its path.

    A full-scale run writes the committed record at the repository root.
    A smoke run writes to the git-ignored ``benchmarks/results/``, so its
    tiny-scale numbers never overwrite the committed record.
    """
    directory = RESULTS_DIR if SMOKE_MODE else REPO_ROOT
    directory.mkdir(exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
