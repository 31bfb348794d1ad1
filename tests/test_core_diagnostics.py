"""Tests for convergence assessment and the recorded fit trace."""

import math

import numpy as np

from repro import obs
from repro.core import (
    CPDConfig,
    CPDModel,
    FitOptions,
    assess_convergence,
)
from repro.core.io import load_result, save_result
from repro.core.result import CPDResult, IterationTrace


def _trace(values):
    return [
        IterationTrace(
            iteration=i,
            seconds=0.1,
            mean_friendship_probability=v,
            mean_diffusion_probability=v,
        )
        for i, v in enumerate(values)
    ]


def _result_with_trace(fitted, values):
    return CPDResult(
        config=fitted.config,
        pi=fitted.pi,
        theta=fitted.theta,
        phi=fitted.phi,
        diffusion=fitted.diffusion,
        doc_community=fitted.doc_community,
        doc_topic=fitted.doc_topic,
        trace=_trace(values),
    )


class TestConvergenceAssessment:
    def test_flat_trace_converges(self, fitted_cpd):
        result = _result_with_trace(fitted_cpd, [0.6] * 10)
        assessment = assess_convergence(result, window=4)
        assert assessment.converged
        assert assessment.stable_from == 0

    def test_drifting_trace_does_not(self, fitted_cpd):
        result = _result_with_trace(fitted_cpd, list(np.linspace(0.3, 0.9, 10)))
        assessment = assess_convergence(result, window=4, tolerance=0.02)
        assert not assessment.converged

    def test_stabilising_trace_finds_onset(self, fitted_cpd):
        values = [0.3, 0.45, 0.58, 0.64, 0.65, 0.65, 0.65, 0.65, 0.65, 0.65]
        result = _result_with_trace(fitted_cpd, values)
        assessment = assess_convergence(result, window=4, tolerance=0.02)
        assert assessment.converged
        assert assessment.stable_from >= 3

    def test_trace_that_settles_then_drifts_is_not_converged(self, fitted_cpd):
        # only the last window decides: an early flat stretch does not count
        values = [0.65] * 6 + [0.7, 0.8, 0.9, 0.95]
        result = _result_with_trace(fitted_cpd, values)
        assessment = assess_convergence(result, window=4, tolerance=0.02)
        assert not assessment.converged
        assert assessment.stable_from is None

    def test_short_trace_not_converged(self, fitted_cpd):
        result = _result_with_trace(fitted_cpd, [0.5, 0.5])
        assert not assess_convergence(result, window=5).converged

    def test_real_fit_diagnosable(self, twitter_tiny):
        graph, _ = twitter_tiny
        config = CPDConfig(n_communities=4, n_topics=8, n_iterations=12, rho=0.5, alpha=0.5)
        result = CPDModel(config, rng=0).fit(graph)
        assessment = assess_convergence(result, window=3, tolerance=0.2)
        assert assessment.iterations_run == 12
        assert 0.0 <= assessment.final_diffusion_probability <= 1.0


class TestEmptyAndDisabledTraces:
    """Edge cases: no trace recorded, or none requested."""

    def test_empty_trace_assessment(self, fitted_cpd):
        result = _result_with_trace(fitted_cpd, [])
        assessment = assess_convergence(result)
        assert not assessment.converged
        assert assessment.iterations_run == 0
        assert assessment.stable_from is None
        assert math.isnan(assessment.final_diffusion_probability)
        assert math.isnan(assessment.final_friendship_probability)

    def test_record_trace_false_leaves_trace_empty(self, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        result = CPDModel(tiny_config, rng=0).fit(
            graph, FitOptions(record_trace=False)
        )
        assert result.trace == []
        assert not assess_convergence(result).converged

    def test_record_trace_false_still_feeds_telemetry(
        self, twitter_tiny, tiny_config
    ):
        """Gauges come from the same probe; disabling the trace must not
        disable them (and vice versa: telemetry must not resurrect the
        trace)."""
        graph, _ = twitter_tiny
        registry, _sink = obs.enable_telemetry()
        try:
            result = CPDModel(tiny_config, rng=0).fit(
                graph, FitOptions(record_trace=False)
            )
            gauges = {g["name"]: g["value"] for g in registry.snapshot()["gauges"]}
        finally:
            obs.disable_telemetry()
        assert result.trace == []
        assert 0.0 <= gauges["repro_fit_diffusion_probability"] <= 1.0
        assert gauges["repro_fit_iteration"] == tiny_config.n_iterations - 1


class TestTraceSerialization:
    def test_round_trip_preserves_phase_timings(self, fitted_cpd, tmp_path):
        trace = [
            IterationTrace(
                iteration=i,
                seconds=0.5,
                mean_friendship_probability=0.6,
                mean_diffusion_probability=0.7,
                e_step_seconds=0.3,
                augmentation_seconds=0.15,
                m_step_seconds=0.05,
            )
            for i in range(3)
        ]
        result = CPDResult(
            config=fitted_cpd.config,
            pi=fitted_cpd.pi,
            theta=fitted_cpd.theta,
            phi=fitted_cpd.phi,
            diffusion=fitted_cpd.diffusion,
            doc_community=fitted_cpd.doc_community,
            doc_topic=fitted_cpd.doc_topic,
            trace=trace,
        )
        path = tmp_path / "traced.cpd.npz"
        save_result(result, path)
        clone = load_result(path)
        assert clone.trace == trace

    def test_empty_trace_round_trips(self, fitted_cpd, tmp_path):
        result = _result_with_trace(fitted_cpd, [])
        path = tmp_path / "untraced.cpd.npz"
        save_result(result, path)
        assert load_result(path).trace == []

    def test_legacy_entries_without_phase_fields_load(self):
        entry = {
            "iteration": 0,
            "seconds": 0.2,
            "mean_friendship_probability": 0.5,
            "mean_diffusion_probability": 0.5,
        }
        loaded = IterationTrace(**entry)
        assert loaded.e_step_seconds == 0.0
        assert loaded.augmentation_seconds == 0.0
        assert loaded.m_step_seconds == 0.0
