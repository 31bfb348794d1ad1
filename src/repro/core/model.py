"""CPD model driver: variational EM around the collapsed Gibbs sampler.

Implements Alg. 1 of the paper: each outer iteration runs one E-step
(a Gibbs sweep over all documents, then fresh Pólya-Gamma draws for every
link) followed by an M-step (re-aggregate ``eta`` from the current
assignments, then fit the diffusion factor weights ``nu`` by logistic
regression against sampled negative links).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..diffusion import negative_sampling
from ..diffusion.logistic import LogisticTrainer, LogisticTrainerConfig
from ..diffusion.negative_sampling import sample_negative_diffusion_pairs
from ..graph.social_graph import SocialGraph
from ..sampling.polya_gamma import sigmoid
from ..sampling.rng import RngLike, ensure_rng
from .config import CPDConfig
from .gibbs import CPDSampler
from .parameters import DiffusionParameters
from .result import CPDResult, IterationTrace


@dataclass
class FitOptions:
    """Per-fit options that are not model hyper-parameters."""

    #: freeze per-document community assignments (the profiling phase of the
    #: "no joint modeling" ablation)
    fixed_communities: np.ndarray | None = None
    #: record per-iteration diagnostics (cheap, on by default)
    record_trace: bool = True
    #: replacement for the serial document sweep — a callable taking the
    #: sampler; the parallel runtime (repro.parallel) plugs in here
    document_sweeper: object | None = None


class CPDModel:
    """Joint community profiling and detection (Problem 1 of the paper)."""

    def __init__(self, config: CPDConfig, rng: RngLike = None) -> None:
        self.config = config
        self.rng = ensure_rng(rng)

    def fit(self, graph: SocialGraph, options: FitOptions | None = None) -> CPDResult:
        """Run T1 EM iterations on ``graph`` and return the inferred profiles."""
        options = options or FitOptions()
        config = self.config
        params = DiffusionParameters.initial(config.n_communities, config.n_topics)
        sampler = CPDSampler(
            graph,
            config,
            params,
            rng=self.rng,
            fixed_communities=options.fixed_communities,
        )
        trace: list[IterationTrace] = []
        sweeper = options.document_sweeper
        # the negative sampler's tables depend on the graph alone: one build
        # serves every M-step of the fit
        word_index = None
        if self._fits_factor_weights(graph, sampler):
            word_index = negative_sampling.build_word_document_index(graph)
        previous = None
        with obs.span("fit", tags={"graph": graph.name}):
            for iteration in range(config.n_iterations):
                started = time.perf_counter()
                with obs.span("fit.iteration", tags={"iteration": iteration}):
                    # E-step (Alg. 1 steps 3-10)
                    if sweeper is not None:
                        sweeper(sampler)
                    else:
                        sampler.sweep_documents()
                    e_step_done = time.perf_counter()
                    friendship_dots = None
                    if not getattr(sweeper, "fused_augmentation", False):
                        # a fused sweeper (the thread-parallel runner)
                        # already drew the per-link augmentation variables
                        # inside its workers
                        friendship_dots = sampler.sample_lambdas()
                        sampler.sample_deltas()
                    augmentation_done = time.perf_counter()
                    # M-step (Alg. 1 steps 11-14)
                    positive_rows = self._m_step(graph, sampler, sweeper, word_index)
                    m_step_done = time.perf_counter()
                if options.record_trace or obs.get_registry().enabled:
                    entry = self._trace_entry(
                        iteration,
                        started,
                        sampler,
                        friendship_dots=friendship_dots,
                        positive_rows=positive_rows,
                        e_step_seconds=e_step_done - started,
                        augmentation_seconds=augmentation_done - e_step_done,
                        m_step_seconds=m_step_done - augmentation_done,
                    )
                    if options.record_trace:
                        trace.append(entry)
                    self._record_telemetry(entry, previous)
                    previous = entry
        return self._build_result(graph, sampler, trace)

    # ----------------------------------------------------------------- M-step

    def _fits_factor_weights(self, graph: SocialGraph, sampler: CPDSampler) -> bool:
        """Whether the M-step re-aggregates eta and refits the factor weights."""
        return bool(graph.n_diffusion_links) and sampler.uses_profile_diffusion

    def _m_step(
        self,
        graph: SocialGraph,
        sampler: CPDSampler,
        sweeper: object | None = None,
        word_index: negative_sampling.WordDocumentIndex | None = None,
    ) -> dict[str, np.ndarray] | None:
        """Re-aggregate eta and refit the factor weights; returns the
        positive rows of :meth:`_fit_factor_weights`, if it fitted."""
        if not self._fits_factor_weights(graph, sampler):
            return None
        eta = None
        if getattr(sweeper, "fused_augmentation", False):
            # workers counted their link partitions during the sweep; the
            # coordinator only summed the partial tables
            eta = sweeper.aggregated_eta()
        sampler.params.eta = eta if eta is not None else sampler.aggregate_eta()
        return self._fit_factor_weights(graph, sampler, word_index)

    def _fit_factor_weights(
        self,
        graph: SocialGraph,
        sampler: CPDSampler,
        word_index: negative_sampling.WordDocumentIndex | None = None,
    ) -> dict[str, np.ndarray] | None:
        """Fit (comm_weight, pop_weight, nu, bias) by offset-free logistic
        regression on observed links vs. sampled non-links (Sect. 4.2).

        One :meth:`CPDSampler.diffusion_components` call covers the links
        of E and then the negatives; returns its rows for E (the state the
        fitted weights score), or ``None`` when no negative was drawn.
        """
        config = self.config
        n_negative = int(round(config.negative_ratio * graph.n_diffusion_links))
        negatives = sample_negative_diffusion_pairs(
            graph, n_negative, self.rng, allow_fewer=True, word_index=word_index
        )
        if not len(negatives):
            return None
        n_links = sampler.n_diff_links
        components = sampler.diffusion_components(
            np.concatenate([sampler.e_src, negatives[:, 0]]),
            np.concatenate([sampler.e_tgt, negatives[:, 1]]),
            np.concatenate([sampler.e_time, negatives[:, 2]]),
        )
        design = np.column_stack(
            [components["community"], components["popularity"], components["features"]]
        )
        labels = np.zeros(len(design))
        labels[:n_links] = 1.0
        params = sampler.params
        initial = np.concatenate([[params.comm_weight, params.pop_weight], params.nu])
        trainer = LogisticTrainer(
            LogisticTrainerConfig(
                n_iterations=config.nu_iterations,
                l2_penalty=config.nu_l2_penalty,
                standardize=True,
                nonnegative=(0, 1),  # community and popularity are strengths
            )
        )
        fit = trainer.fit(
            design,
            labels,
            initial_weights=initial,
            initial_bias=params.bias,
            compiled=sampler.kernel.uses_compiled_solver,
        )
        params.comm_weight = float(fit.weights[0])
        params.pop_weight = float(fit.weights[1])
        params.nu = fit.weights[2:].copy()
        params.bias = fit.bias
        return {name: values[:n_links] for name, values in components.items()}

    # ------------------------------------------------------------ diagnostics

    def _trace_entry(
        self,
        iteration: int,
        started: float,
        sampler: CPDSampler,
        friendship_dots: np.ndarray | None = None,
        positive_rows: dict[str, np.ndarray] | None = None,
        e_step_seconds: float = 0.0,
        augmentation_seconds: float = 0.0,
        m_step_seconds: float = 0.0,
    ) -> IterationTrace:
        """Mean link probabilities of the current state. ``friendship_dots``
        (from ``sample_lambdas``) and ``positive_rows`` (from the M-step)
        are reused when given; otherwise they are recomputed."""
        friendship_prob = float("nan")
        diffusion_prob = float("nan")
        if sampler.n_friend_links and self.config.model_friendship:
            if friendship_dots is None:
                friendship_dots = sampler.friendship_dots()
            friendship_prob = float(sigmoid(friendship_dots).mean())
        if sampler.n_diff_links and self.config.model_diffusion:
            if sampler.uses_profile_diffusion:
                logits = (
                    sampler.diffusion_logits()
                    if positive_rows is None
                    else sampler.params.logits(positive_rows)
                )
                diffusion_prob = float(sigmoid(logits).mean())
            else:
                pi = sampler.state.pi_hat()
                dots = np.einsum(
                    "ij,ij->i",
                    pi[sampler._doc_user[sampler.e_src]],
                    pi[sampler._doc_user[sampler.e_tgt]],
                )
                diffusion_prob = float(sigmoid(dots).mean())
        return IterationTrace(
            iteration=iteration,
            seconds=time.perf_counter() - started,
            mean_friendship_probability=friendship_prob,
            mean_diffusion_probability=diffusion_prob,
            e_step_seconds=e_step_seconds,
            augmentation_seconds=augmentation_seconds,
            m_step_seconds=m_step_seconds,
        )

    def _record_telemetry(
        self, entry: IterationTrace, previous: IterationTrace | None
    ) -> None:
        """Phase histograms + convergence gauges for one EM iteration;
        ``previous`` is the iteration before it, if any."""
        registry = obs.get_registry()
        if not registry.enabled:
            return
        for phase, seconds in (
            ("e_step", entry.e_step_seconds),
            ("augmentation", entry.augmentation_seconds),
            ("m_step", entry.m_step_seconds),
        ):
            registry.histogram(
                "repro_fit_phase_seconds", {"phase": phase}
            ).observe(seconds)
        registry.histogram("repro_fit_iteration_seconds").observe(entry.seconds)
        registry.gauge("repro_fit_iteration").set(entry.iteration)
        if entry.mean_friendship_probability == entry.mean_friendship_probability:
            registry.gauge("repro_fit_friendship_probability").set(
                entry.mean_friendship_probability
            )
        if entry.mean_diffusion_probability == entry.mean_diffusion_probability:
            registry.gauge("repro_fit_diffusion_probability").set(
                entry.mean_diffusion_probability
            )
        # Convergence proxies from consecutive iterations: the slope of the
        # mean link-probability series (a log-likelihood stand-in — when it
        # flattens the window test in core/diagnostics.py starts passing) and
        # the drift of the latest step relative to the previous level
        # ("acceptance drift": how far the sampler still moves the chain per
        # iteration).
        if previous is not None:
            for attribute, name in (
                ("mean_diffusion_probability", "repro_fit_diffusion_slope"),
                ("mean_friendship_probability", "repro_fit_friendship_slope"),
            ):
                now = getattr(entry, attribute)
                before = getattr(previous, attribute)
                if now == now and before == before:
                    registry.gauge(name).set(now - before)
                    level = abs(before)
                    if level > 0:
                        registry.gauge(
                            name.replace("_slope", "_drift")
                        ).set(abs(now - before) / level)

    # ----------------------------------------------------------------- result

    def _build_result(
        self, graph: SocialGraph, sampler: CPDSampler, trace: list[IterationTrace]
    ) -> CPDResult:
        state = sampler.state
        return CPDResult(
            config=self.config,
            pi=state.pi_hat(),
            theta=state.theta_hat(),
            phi=state.phi_hat(),
            diffusion=sampler.params.copy(),
            doc_community=state.doc_community.copy(),
            doc_topic=state.doc_topic.copy(),
            trace=trace,
            graph_name=graph.name,
        )


def fit_cpd(
    graph: SocialGraph,
    n_communities: int,
    n_topics: int,
    n_iterations: int = 30,
    rng: RngLike = None,
    **config_overrides,
) -> CPDResult:
    """One-call convenience API: configure, fit, return profiles."""
    config = CPDConfig(
        n_communities=n_communities,
        n_topics=n_topics,
        n_iterations=n_iterations,
        **config_overrides,
    )
    return CPDModel(config, rng=rng).fit(graph)
