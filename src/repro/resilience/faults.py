"""Deterministic fault injection: a seeded plan of named failure points.

Chaos testing is only useful when a failure can be *replayed*: "the third
micro-batch dies mid-apply" must mean the same thing on every run, or a
flake can never be distinguished from a regression. This module gives the
resilience layers one shared vocabulary of failure:

* a :class:`FaultPlan` holds an ordered list of :class:`FaultSpec` arms,
  each naming an **injection point** (a dotted string such as
  ``"artifact.read"`` or ``"wal.append"``), an optional context match
  (``shard=2``), and a trigger — either a deterministic consultation index
  (``at=3`` fires on the third consult) or a seeded probability;
* production code *consults* the plan at its named points via the
  module-level :func:`firing` / :func:`should_fire` helpers, which no-op
  (and cost one attribute lookup) when no plan is active;
* a plan is activated for a scope with :func:`inject` (a context manager),
  so tests wrap exactly the region they mean to break.

Injection points consulted across the codebase:

========================  ====================================================
``artifact.read``         :func:`repro.core.io.load_artifact` — simulated
                          corruption detected while opening an archive
``artifact.torn_write``   :func:`repro.core.io.save_result` — the process
                          dies mid-write leaving a torn file at the final
                          path (the pre-hardening failure mode)
``wal.append``            :meth:`repro.resilience.wal.WriteAheadLog.append`
                          — crash mid-append leaving a torn tail record
``ingest.apply``          :meth:`repro.stream.MicroBatchIngestor.flush` —
                          crash after the WAL write, before the micro-batch
                          is applied (the recovery-critical window)
``shard.query``           :class:`repro.shard.ShardRouter` scatter calls —
                          ``action="raise"`` fails the shard,
                          ``action="timeout"`` charges a simulated stall
                          against its deadline
``gateway.accept``        :class:`repro.gateway.GatewayServer` — the
                          connection is dropped at accept, before a byte is
                          read (clients see a reset)
``gateway.read``          :class:`repro.gateway.GatewayServer` — with
                          ``action="timeout"``, simulates a slow client /
                          stalled read (the request head never arrives;
                          the gateway's read deadline answers 408);
                          ``action="raise"`` aborts the read as a bad
                          request
``gateway.handler``       :class:`repro.gateway.GatewayServer` request
                          dispatch — ``action="raise"`` fails the request
                          with a 500; ``action="timeout"`` holds the
                          handler for ``delay`` seconds (a slow request
                          that stays legitimately in flight — drain and
                          latency tests)
========================  ====================================================

The registry of points is open: a spec may name any string, and a consult
at an unarmed point is always a no-op — so layers can add points without
touching this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np


class InjectedFault(RuntimeError):
    """Raised (or recorded) when an armed fault fires.

    Carries the point name and the consultation context so chaos-test
    assertions can pin exactly which injection fired.
    """

    def __init__(self, point: str, context: dict | None = None) -> None:
        self.point = point
        self.context = dict(context or {})
        detail = (
            " (" + ", ".join(f"{k}={v}" for k, v in sorted(self.context.items())) + ")"
            if self.context
            else ""
        )
        super().__init__(f"injected fault at {point}{detail}")


@dataclass
class FaultSpec:
    """One armed fault: where it fires, when, and how.

    ``at`` counts *matching consultations* of the point, 1-based; the spec
    fires on consultations ``at .. at + times - 1``. With ``at=None`` the
    spec fires each consult independently with ``probability`` (seeded by
    the owning plan, so still reproducible). ``match`` restricts the spec
    to consults whose context contains every given item (e.g.
    ``match={"shard": 2}`` arms only shard 2's scatter calls).
    """

    point: str
    at: Optional[int] = 1
    times: int = 1
    probability: float = 0.0
    match: dict = field(default_factory=dict)
    #: consumer-interpreted behaviour: "raise" (default), "timeout", ...
    action: str = "raise"
    #: seconds an ``action="timeout"`` consumer should stall
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.at is not None and self.at < 1:
            raise ValueError("at is 1-based: the first consultation is at=1")
        if self.times < 1:
            raise ValueError("times must be at least 1")
        if self.at is None and not 0.0 < self.probability <= 1.0:
            raise ValueError("probabilistic specs need probability in (0, 1]")

    def matches(self, point: str, context: dict) -> bool:
        if point != self.point:
            return False
        return all(context.get(key) == value for key, value in self.match.items())


class FaultPlan:
    """A seeded, replayable collection of armed faults.

    Consultation order is the only clock: given the same seed and the same
    sequence of :meth:`firing` calls, the same faults fire. (This is why
    the specs count consults instead of wall time.) Fired specs are
    recorded in :attr:`fired` for post-hoc assertions.
    """

    def __init__(self, seed: int = 0, specs: list[FaultSpec] | None = None) -> None:
        self.seed = int(seed)
        self.specs: list[FaultSpec] = []
        self._counts: list[int] = []
        self._rngs: list[np.random.Generator] = []
        #: ``(point, context)`` of every firing, in order
        self.fired: list[tuple[str, dict]] = []
        for spec in specs or []:
            self.arm(spec)

    def arm(self, spec: FaultSpec) -> FaultSpec:
        """Add one armed fault; returns the spec for chaining."""
        self.specs.append(spec)
        self._counts.append(0)
        # one independent, deterministically-derived stream per spec
        self._rngs.append(np.random.default_rng((self.seed, len(self.specs))))
        return spec

    def fail_at(self, point: str, at: int = 1, times: int = 1, **match) -> FaultSpec:
        """Shorthand: raise-style fault on the ``at``-th matching consult."""
        return self.arm(FaultSpec(point=point, at=at, times=times, match=match))

    def timeout_at(
        self, point: str, delay: float, at: int = 1, times: int = 1, **match
    ) -> FaultSpec:
        """Shorthand: a stall of ``delay`` seconds on the ``at``-th consult."""
        return self.arm(
            FaultSpec(
                point=point, at=at, times=times, match=match,
                action="timeout", delay=delay,
            )
        )

    def firing(self, point: str, **context) -> Optional[FaultSpec]:
        """The spec firing at this consultation, or ``None``.

        Every matching spec's consult counter advances, whether or not it
        fires — so two specs armed at the same point see the same clock.
        """
        hit: Optional[FaultSpec] = None
        for index, spec in enumerate(self.specs):
            if not spec.matches(point, context):
                continue
            self._counts[index] += 1
            if spec.at is not None:
                fires = spec.at <= self._counts[index] < spec.at + spec.times
            else:
                fires = bool(self._rngs[index].random() < spec.probability)
            if fires and hit is None:
                hit = spec
        if hit is not None:
            self.fired.append((point, dict(context)))
        return hit

    def should_fire(self, point: str, **context) -> bool:
        return self.firing(point, **context) is not None

    def consultations(self, point: str) -> int:
        """Total consult count across specs armed at ``point`` (max)."""
        counts = [
            count
            for spec, count in zip(self.specs, self._counts)
            if spec.point == point
        ]
        return max(counts, default=0)


# ------------------------------------------------------------- active plan

_ACTIVE: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The currently injected plan, or ``None`` (the production default)."""
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the dynamic extent of the ``with`` block.

    Plans do not nest: activating inside an active injection raises, since
    two plans would silently race for the same consults.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault plan is already active; plans do not nest")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None


def firing(point: str, **context) -> Optional[FaultSpec]:
    """Consult the active plan at ``point``; ``None`` when quiescent."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.firing(point, **context)


def should_fire(point: str, **context) -> bool:
    """True when the active plan fires a raise-style fault at ``point``."""
    spec = firing(point, **context)
    return spec is not None
