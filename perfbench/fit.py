"""Fit workloads: back-to-back 20-iteration CPD fits on twitter-medium.

``fit-serial`` runs the compiled sweep on the calling thread;
``fit-2workers`` routes every E-step through one ``ParallelEStepRunner``
with two worker processes, built once in set-up and reused by every fit.
"""

from __future__ import annotations

import gc
import statistics
import time

from ledger import Ledger, install_fit_layers
from measure import (
    PROBE_REFERENCE_S, Outcome, ProbedTimer, fastest_segments, latency_note, median,
    overhead_note, peak_rss_mb, setups_note, tail_metrics,
)

from repro.core import CPDConfig, CPDModel
from repro.core.kernel import CompiledKernel, compiled_fallback_reason
from repro.core.model import FitOptions
from repro.datasets import twitter_scenario
from repro.evaluation.nmi import normalized_mutual_information
from repro.parallel.runner import ParallelEStepRunner

CONFIG = CPDConfig(
    n_communities=8,
    n_topics=12,
    n_iterations=20,
    rho=0.5,
    alpha=0.5,
    sweep_kernel="compiled",
)
#: set-ups per run; setup_s is their median
SETUPS = {"fit-serial": 5, "fit-2workers": 2}
#: a fit scoring below this NMI against the planted truth is wrong
NMI_FLOOR = 0.3
#: traced and untraced mean fit walls should agree this closely; each half
#: holds only a few fits, and host noise alone moves one fit by +-15%
OVERHEAD_TOLERANCE_PCT = 20.0

#: per-fit layers, in ledger order (self time; they add up to the fit)
FIT_LAYERS = (
    "diffusion.negsample",
    "diffusion.word_index",
    "diffusion.logistic",
    "core.components",
    "core.eta",
    "core.sweep",
    "sampling.pg",
    "parallel.estep",
)


class MarkingSweeper:
    """``FitOptions.document_sweeper`` that notes when each E-step starts.

    It delegates to the runner, or to the sampler's own serial sweep, so
    the fit takes the same path it takes without it; the marks give each
    EM iteration's wall time from outside the fit.
    """

    def __init__(self, runner=None) -> None:
        self.runner = runner
        self.timer: ProbedTimer | None = None
        self.e_steps = 0
        self.sampler = None

    @property
    def fused_augmentation(self) -> bool:
        return getattr(self.runner, "fused_augmentation", False)

    def aggregated_eta(self):
        return self.runner.aggregated_eta()

    def __call__(self, sampler, doc_ids=None):
        self.timer.mark()
        self.e_steps += 1
        self.sampler = sampler
        if self.runner is None:
            return sampler.sweep_documents(doc_ids)
        return self.runner(sampler, doc_ids)


def timed_fit(fit, graph, sweeper: MarkingSweeper) -> tuple[object, ProbedTimer]:
    """``fit(graph)`` through ``sweeper``: the result and the timer of the
    fit's segments, first the time before the first E-step, then each EM
    iteration (from one E-step start to the next, the last to the return
    of ``fit``)."""
    sweeper.timer = ProbedTimer()
    result = fit(graph, FitOptions(document_sweeper=sweeper))
    sweeper.timer.mark()
    return result, sweeper.timer


def _set_up(workload: str, seed: int, timer: ProbedTimer):
    graph, truth = twitter_scenario("medium", rng=seed)
    timer.mark()
    runner = None
    if workload == "fit-2workers":
        runner = ParallelEStepRunner(graph, CONFIG, n_workers=2, rng=seed)
        timer.mark()
    return graph, truth, runner


def _fit_once(graph, truth, runner, fit_seed: int) -> dict:
    sweeper = MarkingSweeper(runner)
    restarts = runner.stats.worker_restarts if runner is not None else 0
    result, timer = timed_fit(CPDModel(CONFIG, rng=fit_seed).fit, graph, sweeper)
    kernel = sweeper.sampler.kernel if sweeper.sampler is not None else None
    compiled = (
        isinstance(kernel, CompiledKernel)
        and getattr(kernel, "fallback_reason", None) is None
        and compiled_fallback_reason() is None
        and (runner is None or runner.worker_sweep_kernel == "compiled")
    )
    nmi = normalized_mutual_information(truth.doc_community, result.doc_community)
    problems = []
    if not compiled:
        problems.append("fell back from the compiled kernel")
    if runner is not None and runner.stats.worker_restarts != restarts:
        # a self-healed sweep ran serially on the coordinator, not on the plane
        problems.append(f"{runner.stats.worker_restarts - restarts} worker restarts")
    if sweeper.e_steps != CONFIG.n_iterations:
        problems.append(f"{sweeper.e_steps} E-steps, expected {CONFIG.n_iterations}")
    if not nmi >= NMI_FLOOR:
        problems.append(f"NMI {nmi:.3f} below {NMI_FLOOR}")
    return {
        "wall_s": sum(timer.segments),
        "iterations_s": timer.segments[1:],
        "iterations_norm_s": timer.normalised()[1:],
        "probes_s": timer.probes,
        "nmi": nmi,
        "problems": problems,
    }


def _fit_loop(graph, truth, runner, seed: int, seconds: float, first: int) -> tuple[list, float]:
    """Fits back to back; a fit starts only while the clock still runs.

    Each fit starts on a collected heap. Otherwise the cyclic garbage of
    earlier fits piles up until a full collection, and the peak resident
    set grows with the number of fits, which the host's speed decides.
    """
    fits = []
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        gc.collect()
        fits.append(_fit_once(graph, truth, runner, seed * 1000 + first + len(fits)))
    return fits, time.perf_counter() - started


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    ledger = Ledger()
    if trace:
        install_fit_layers(ledger)
    setup_times = []
    runner = None
    try:
        for _ in range(SETUPS[workload]):
            if runner is not None:
                runner.close()
            timer = ProbedTimer()
            graph, truth, runner = _set_up(workload, seed, timer)
            setup_times.append((sum(timer.segments), sum(timer.normalised())))
        setup_ledger = ledger.snapshot()
        ledger.uninstall()
        if not trace:
            fits, loop_s = _fit_loop(graph, truth, runner, seed, seconds, 0)
            return _end_to_end(fits, loop_s, setup_times)
        untraced, _ = _fit_loop(graph, truth, runner, seed, seconds / 2, 0)
        install_fit_layers(ledger)
        ledger.reset()
        before = _runner_stats(runner)
        traced, traced_s = _fit_loop(graph, truth, runner, seed, seconds / 2, len(untraced))
        ledger.uninstall()
        return _per_layer(
            untraced, traced, traced_s, ledger.snapshot(), setup_ledger,
            len(setup_times), runner, before,
        )
    finally:
        ledger.uninstall()
        if runner is not None:
            runner.close()


def _end_to_end(fits: list, loop_s: float, setup_times: list) -> Outcome:
    walls = [fit["wall_s"] for fit in fits]
    iterations = [s for fit in fits for s in fit["iterations_s"]]
    fastest = fastest_segments([fit["iterations_norm_s"] for fit in fits])
    probes = [p for fit in fits for p in fit["probes_s"]]
    failed = sum(1 for fit in fits if fit["problems"])
    metrics = {
        "setup_s": (median([normalised for _raw, normalised in setup_times]), "s"),
        "fit_nmi": (median([fit["nmi"] for fit in fits]), "nmi"),
        "p50_ms": (median(fastest) * 1e3, "ms"),
        "ok_frac": ((len(fits) - failed) / len(fits), "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"{len(fits)} fits in {loop_s:.2f} s; fit walls (s): "
        + " ".join(f"{w:.3f}" for w in walls)
        + f"; median {median(walls):.3f}",
        latency_note("EM iterations", iterations, loop_s),
        f"probe median {median(probes) * 1e6:.1f} us, min {min(probes) * 1e6:.1f} us "
        f"(reference {PROBE_REFERENCE_S * 1e6:.0f} us)",
        setups_note(setup_times),
    ]
    notes += [f"fit {i}: {'; '.join(fit['problems'])}" for i, fit in enumerate(fits) if fit["problems"]]
    return Outcome(
        correct=failed == 0,
        attempted=len(fits),
        failed=failed,
        metrics=metrics,
        notes=notes,
    )


def _runner_stats(runner):
    if runner is None:
        return None
    return runner.stats.worker_seconds.copy(), runner.stats.header_bytes, runner.stats.iterations


def _per_layer(untraced, traced, traced_s, snapshot, setup_snapshot, n_setups, runner, before) -> Outcome:
    n = len(traced)
    per_fit_ms = {
        layer: snapshot["self_s"].get(layer, 0.0) / n * 1e3 for layer in FIT_LAYERS
    }
    traced_ms = statistics.fmean(fit["wall_s"] for fit in traced) * 1e3
    untraced_ms = statistics.fmean(fit["wall_s"] for fit in untraced) * 1e3
    metrics = {f"{layer}_ms": (value, "ms") for layer, value in per_fit_ms.items()}
    metrics["core.other_ms"] = (traced_ms - sum(per_fit_ms.values()), "ms")
    metrics["diffusion.logistic_iters"] = (
        snapshot["counts"].get("diffusion.logistic_iters", 0.0) / n, "count",
    )
    payload = busy = 0.0
    if runner is not None:
        worker_s, header_bytes, sweeps = before
        stats = runner.stats
        sweeps = stats.iterations - sweeps
        payload = (stats.header_bytes - header_bytes) / max(sweeps, 1)
        estep_s = snapshot["total_s"].get("parallel.estep", 0.0)
        busy = float((stats.worker_seconds - worker_s).sum()) / (runner.n_workers * estep_s) if estep_s else 0.0
    metrics["parallel.payload_bytes"] = (payload, "bytes")
    metrics["parallel.worker_busy_frac"] = (busy, "fraction")
    setup_self = setup_snapshot["self_s"]
    metrics["parallel.spawn_s"] = (setup_self.get("parallel.spawn", 0.0) / n_setups, "s")
    metrics["topics.segmentation_s"] = (setup_self.get("topics.segmentation", 0.0) / n_setups, "s")
    metrics["ledger.wall_ms"] = (traced_ms, "ms")
    metrics["ledger.untraced_wall_ms"] = (untraced_ms, "ms")
    metrics["ledger.overhead_pct"] = ((traced_ms / untraced_ms - 1.0) * 100.0, "%")
    metrics.update(tail_metrics([s for fit in traced for s in fit["iterations_s"]], traced_s))
    fits = untraced + traced
    failed = sum(1 for fit in fits if fit["problems"])
    residual = metrics["core.other_ms"][0]
    notes = [
        f"{len(untraced)} untraced + {n} traced fits",
        overhead_note(traced_ms, untraced_ms, OVERHEAD_TOLERANCE_PCT),
    ]
    correct = failed == 0
    if residual < -0.01 * traced_ms:
        correct = False
        notes.append(f"layer self times exceed the fit wall by {-residual:.1f} ms")
    return Outcome(correct=correct, attempted=len(fits), failed=failed, metrics=metrics, notes=notes)
