"""Metric names, summary statistics and the result record of one run."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

#: end-to-end metrics, printed by every untraced run: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("fit_nmi", "nmi"),
    ("p50_ms", "ms"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)

#: per-layer metrics, printed by every traced run; a layer the workload
#: bypasses reads 0
PER_LAYER = (
    ("diffusion.negsample_ms", "ms"),
    ("diffusion.word_index_ms", "ms"),
    ("diffusion.logistic_ms", "ms"),
    ("diffusion.logistic_iters", "count"),
    ("core.components_ms", "ms"),
    ("core.eta_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("sampling.pg_ms", "ms"),
    ("parallel.estep_ms", "ms"),
    ("parallel.payload_bytes", "bytes"),
    ("parallel.worker_busy_frac", "fraction"),
    ("core.other_ms", "ms"),
    ("parallel.spawn_s", "s"),
    ("topics.segmentation_s", "s"),
    ("shard.partition_s", "s"),
    ("shard.fit_s", "s"),
    ("shard.align_s", "s"),
    ("shard.nmi", "nmi"),
    ("gateway.parse_ms", "ms"),
    ("gateway.admission_wait_ms", "ms"),
    ("gateway.batch_wait_ms", "ms"),
    ("gateway.batch_size", "count"),
    ("gateway.render_ms", "ms"),
    ("serving.rank_ms", "ms"),
    ("serving.hit_ratio", "fraction"),
    ("shard.gather_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.router_hit_ratio", "fraction"),
    ("gateway.other_ms", "ms"),
    ("ledger.wall_ms", "ms"),
    ("ledger.untraced_wall_ms", "ms"),
    ("ledger.overhead_pct", "%"),
    ("ledger.tail_ms", "ms"),
    ("ledger.ops_per_s", "1/s"),
)

#: a tail is reported at the highest of these percentiles that has at
#: least ten samples beyond it
TAIL_PERCENTILES = (99, 90, 75)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit)
    metrics: dict
    #: human-readable lines printed before the result
    notes: list = field(default_factory=list)


def median(values) -> float:
    return float(statistics.median(values))


def fastest_segments(runs) -> list[float]:
    """Each segment at the fastest time it took across repeats of one job.

    ``runs`` holds one list of segment times per repeat of the same job:
    for a fit, each probe-normalised EM iteration. Interference from other
    tenants of the host comes and goes in states lasting from a second to
    about a minute, and slows a whole fit by up to half; the median fit of
    a run moves with it, by more than any bound can hold. Some repeat of
    each 60 ms segment often runs in a fast state, and a slower program
    still raises every segment.
    """
    return [min(times) for times in zip(*runs)]


#: the probe's time on the host the bounds were measured on (2-vCPU KVM
#: guest); it only sets the scale of probe-normalised times
PROBE_REFERENCE_S = 60e-6


def _probe_unit() -> int:
    total = 0
    for i in range(1000):
        total += i * i % 7
    return total


def probe_s() -> float:
    """Median of five timings of a fixed ~60 us pure-Python loop.

    The host's speed flips between a fast and a slow state (about 1.5x)
    for seconds to minutes at a time, and a slow state can cover a whole
    run. The probe, run between a timed job's segments, says which state
    each segment ran in: a segment divided by the probes around it keeps
    the program's cost and drops most of the host's state.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        _probe_unit()
        times.append(time.perf_counter() - started)
    return float(statistics.median(times))


class ProbedTimer:
    """Times the consecutive segments of one job, probing between them.

    The probe runs when the timer starts and at every ``mark()``, between
    the end of one segment and the start of the next, so no probe time
    falls inside a segment and segment ``k`` ran between probes ``k`` and
    ``k + 1``.
    """

    def __init__(self) -> None:
        self.segments: list[float] = []
        self.probes = [probe_s()]
        self._started = time.perf_counter()

    def mark(self) -> None:
        """End the current segment and start the next."""
        self.segments.append(time.perf_counter() - self._started)
        self.probes.append(probe_s())
        self._started = time.perf_counter()

    def normalised(self) -> list[float]:
        """Each segment over the mean of the probes around it, at the
        reference probe time."""
        return [
            segment * 2.0 * PROBE_REFERENCE_S / (before + after)
            for segment, before, after in zip(self.segments, self.probes, self.probes[1:])
        ]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def tail(values) -> tuple[float, int]:
    """``(value, percentile)`` of the highest percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (100 - pct) / 100 >= 10:
            return percentile(values, pct), pct
    return median(values), 50


def tail_metrics(latencies_s, seconds: float) -> dict:
    """Tail latency and completions per second of one operation stream.

    Reported by the traced run only: both spread too widely between runs
    on a shared host to gate a change (perfbench/README.md).
    """
    return {
        "ledger.tail_ms": (tail(latencies_s)[0] * 1e3, "ms"),
        "ledger.ops_per_s": (len(latencies_s) / seconds, "1/s"),
    }


def latency_note(label: str, latencies_s, seconds: float) -> str:
    value, pct = tail(latencies_s)
    return (
        f"{label}: n={len(latencies_s)} p50 {median(latencies_s) * 1e3:.3f} ms, "
        f"p{pct} {value * 1e3:.3f} ms, max {max(latencies_s) * 1e3:.3f} ms, "
        f"{len(latencies_s) / seconds:.2f}/s"
    )


def setups_note(setup_times) -> str:
    """``setup_times`` holds ``(wall, probe-normalised)`` seconds per set-up."""
    return "set-ups (s), wall / probe-normalised: " + " ".join(
        f"{raw:.3f}/{normalised:.3f}" for raw, normalised in setup_times
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_note(traced_ms: float, untraced_ms: float, tolerance_pct: float) -> str:
    """Does the traced wall reconcile with the untraced wall?"""
    overhead = (traced_ms / untraced_ms - 1.0) * 100.0
    verdict = "within" if abs(overhead) <= tolerance_pct else "outside"
    return (
        f"traced wall {traced_ms:.3f} ms vs untraced {untraced_ms:.3f} ms: "
        f"{overhead:+.1f}%, {verdict} the {tolerance_pct:.0f}% tolerance"
    )
