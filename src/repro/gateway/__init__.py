"""The serving gateway: networked, overload-hardened profile queries.

:class:`~repro.gateway.server.GatewayServer` is the first layer of the
reproduction that takes live traffic: a stdlib-only asyncio HTTP service
fronting one :class:`~repro.serving.ProfileStore` (monolithic fit) or one
:class:`~repro.shard.ShardRouter` (federated fit). It is built around
failure as the default case — see DESIGN.md §12:

* **admission control** — a bounded in-flight limit plus a bounded wait
  queue (:class:`~repro.gateway.admission.AdmissionController`); excess
  load is shed with ``429 Retry-After`` instead of queueing without bound;
* **deadline propagation** — per-request deadlines from the
  ``X-Deadline-Ms`` header (:class:`~repro.gateway.admission.Deadline`)
  are enforced at admission (a pre-expired request never reaches the
  backend) and handed to the router as a remaining budget, so a request
  with 80 ms left cannot buy a 500 ms shard retry;
* **micro-batching** — deadline-less store rank calls that arrive in the
  same event-loop turn coalesce into one vectorized Eq. 19 pass
  (:class:`~repro.gateway.batcher.RankBatcher` over
  :meth:`~repro.serving.ProfileStore.rank_many`), with no wait for a
  lone request; router requests are one gather each;
* **graceful degradation** — router-backed answers carry the
  :class:`~repro.shard.GatherResult` coverage envelope as response
  metadata (``X-Repro-Exact`` / ``X-Repro-Coverage`` headers and a
  ``coverage`` body block) instead of failing closed;
* **graceful drain** — SIGTERM stops accepting, finishes in-flight
  requests and flips ``/ready`` to 503 so a load balancer rotates the
  instance out before it disappears;
* **request-scoped observability** — DESIGN.md §13: trace context rides
  the ``X-Repro-Trace`` header (:class:`~repro.gateway.tracing.
  RequestContext`), every request lands one structured access record with
  its latency breakdown, span trees survive tail sampling (errors, the
  slow percentile, followed requests), and ``/slo`` serves per-route
  multi-window burn rates.

``repro serve`` runs it from the CLI; ``repro doctor --url`` audits a
running instance; ``repro trace --url`` and ``repro slo --url`` read one
request's story and the error-budget burn.
"""

from .admission import AdmissionController, Deadline, ShedError
from .batcher import RankBatcher
from .http import Request, Response
from .server import GatewayServer, GatewayThread
from .tracing import TRACE_HEADER, RequestContext

__all__ = [
    "AdmissionController",
    "Deadline",
    "ShedError",
    "RankBatcher",
    "Request",
    "Response",
    "GatewayServer",
    "GatewayThread",
    "TRACE_HEADER",
    "RequestContext",
]
