"""Command-line interface for the offline-fit → serve workflow.

The paper's workflow is "profile once offline, serve many applications"
(Sect. 1). The CLI mirrors it:

    repro generate   --scenario twitter --scale small --out graph.json.gz
    repro fit        --graph graph.json.gz --communities 6 --topics 12 \\
                     --out model.cpd.npz
    repro evaluate   --graph graph.json.gz --model model.cpd.npz
    repro rank       --model model.cpd.npz --query "#topic3"
    repro query      --model model.cpd.npz --query "#topic3"
    repro report     --model model.cpd.npz --out report.md
    repro visualize  --model model.cpd.npz --format dot
    repro info       --model model.cpd.npz
    repro stream-replay --graph graph.json.gz --communities 6 --topics 12 \\
                     --out snapshot.cpd.npz
    repro shard-fit  --graph graph.json.gz --shards 2 --communities 6 \\
                     --topics 12 --out-dir shards/
    repro shard-query --manifest shards/manifest.shards.json --query "#topic3"
    repro serve      --model model.cpd.npz --port 8323
    repro doctor     --model model.cpd.npz --snapshot-dir snaps/ --wal events.wal
    repro doctor     --url http://127.0.0.1:8323
    repro top        --telemetry run.telemetry.json [--watch]
    repro trace      --telemetry run.telemetry.json [--name shard.call]

``fit`` writes *self-contained* v3 artifacts (model + vocabulary + graph
summary), so every read command after ``evaluate`` serves from the
artifact alone — ``--graph`` is only needed for v1 artifacts or when the
corpus itself must be consulted. ``stream-replay`` exercises the
streaming pipeline (:mod:`repro.stream`): split a graph into a warm base
plus a timestamp-ordered event stream, fold arrivals in, refresh
incrementally and snapshot. The ``shard-*`` commands exercise the
federated pipeline (:mod:`repro.shard`): partition, fit every shard
independently, align community ids into a global label space, and serve
scatter-gather through a :class:`~repro.shard.ShardRouter`. Every command
is also importable (``run_generate`` etc.) for scripting.

``doctor`` is the resilience inspector (:mod:`repro.resilience`): it
verifies artifact/manifest checksums and versions, walks a directory of
snapshot generations, reports the write-ahead log's tail status, and
prints the cursor a :func:`repro.resilience.recover` call would resume
replay from. It exits non-zero when integrity is broken *and* no valid
recovery path remains.

Passing ``--telemetry PATH`` to ``fit``, ``stream-replay`` or ``shard-query``
switches on the :mod:`repro.obs` registry + tracer for that run and writes
one JSON snapshot (metrics + span ring buffer) on exit. ``repro top``
renders the snapshot (table, raw JSON or Prometheus text exposition, with
``--watch`` for live redraws) and ``repro trace`` reassembles and prints
its span trees. ``repro doctor --telemetry`` folds the same snapshot into the
health report, and ``info``/``doctor`` grow ``--json`` for scripting.

Throughput benchmarks are not CLI commands: serving, stream ingest and
sharded serving are measured by ``benchmarks/bench_serving_throughput.py``,
``benchmarks/bench_stream_ingest.py`` and ``benchmarks/bench_shard_serving.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import obs
from .apps import (
    CommunityRanker,
    DiffusionPredictor,
    ascii_render,
    build_diffusion_graph,
    to_dot,
    to_json,
)
from .apps.report import build_report
from .core import (
    CPDConfig,
    CPDModel,
    FitOptions,
    is_shard_manifest,
    load_artifact,
    load_shard_manifest,
    save_result,
)
from .core import _compiled
from .core.config import SWEEP_KERNELS
from .datasets import dblp_scenario, separated_scenario, twitter_scenario
from .evaluation import (
    average_conductance,
    content_perplexity,
    diffusion_auc_folds,
    friendship_auc_folds,
)
from .gateway import GatewayServer
from .graph import load_graph, save_graph
from .parallel import ParallelEStepRunner
from .core.io import verify_artifact, verify_shard_manifest
from .resilience import SnapshotCatalog, WriteAheadLog, scan_wal
from .serving import GraphSummary, ProfileStore
from .shard import CommunityAligner, ShardRouter, fit_shards
from .stream import (
    IncrementalRefresher,
    MicroBatchIngestor,
    Snapshotter,
    StreamCursor,
    split_for_replay,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CPD: joint community profiling and detection (VLDB'17 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def _add_telemetry_arg(sub) -> None:
        sub.add_argument(
            "--telemetry", default=None, metavar="PATH",
            help="enable the telemetry registry + tracer for this run and "
            "write the combined snapshot (metrics + spans) to this JSON "
            "file on exit; inspect it with `repro top` / `repro trace`",
        )

    def _add_profile_arg(sub) -> None:
        sub.add_argument(
            "--profile", default=None, metavar="PATH",
            help="run the stdlib sampling profiler for this command and "
            "write flamegraph-compatible folded stacks to this file on "
            "exit (feed it to flamegraph.pl / speedscope)",
        )

    generate = commands.add_parser("generate", help="generate a synthetic scenario graph")
    generate.add_argument(
        "--scenario", choices=("twitter", "dblp", "separated"), default="twitter"
    )
    generate.add_argument("--scale", choices=("tiny", "small", "medium"), default="small")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output path (.json or .json.gz)")

    fit = commands.add_parser("fit", help="fit CPD on a saved graph")
    fit.add_argument("--graph", required=True)
    fit.add_argument("--communities", type=int, required=True)
    fit.add_argument("--topics", type=int, required=True)
    fit.add_argument("--iterations", type=int, default=25)
    fit.add_argument("--alpha", type=float, default=0.5)
    fit.add_argument("--rho", type=float, default=0.5)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument(
        "--workers", type=int, default=0,
        help="parallel E-step worker threads (0 = serial sweep)",
    )
    fit.add_argument(
        "--sweep-kernel", choices=SWEEP_KERNELS, default="compiled",
        help="E-step sweep implementation (default: 'compiled', which builds "
        "the C kernel at first use and falls back to 'reference' when no "
        "toolchain is available)",
    )
    fit.add_argument("--out", required=True, help="output path (.cpd.npz)")
    _add_telemetry_arg(fit)
    _add_profile_arg(fit)

    evaluate = commands.add_parser("evaluate", help="score a fitted model")
    evaluate.add_argument("--graph", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--seed", type=int, default=0)

    rank = commands.add_parser("rank", help="rank communities for a query")
    rank.add_argument("--graph", default=None, help="only needed for v1 artifacts")
    rank.add_argument("--model", required=True)
    rank.add_argument("--query", required=True)
    rank.add_argument("--top", type=int, default=5)

    query = commands.add_parser(
        "query", help="serve ranking queries from a self-contained artifact"
    )
    query.add_argument("--model", required=True)
    query.add_argument(
        "--query",
        action="append",
        default=None,
        help="query term(s); repeatable. Default: all of the artifact's indexed queries",
    )
    query.add_argument("--top", type=int, default=5, help="communities to print per query")

    report = commands.add_parser("report", help="write a markdown community report")
    report.add_argument("--graph", default=None, help="only needed for v1 artifacts")
    report.add_argument("--model", required=True)
    report.add_argument("--out", required=True)
    report.add_argument("--queries", type=int, default=5, help="number of auto-selected queries")

    visualize = commands.add_parser("visualize", help="export the diffusion graph")
    visualize.add_argument("--graph", default=None, help="only needed for v1 artifacts")
    visualize.add_argument("--model", required=True)
    visualize.add_argument("--topic", type=int, default=None)
    visualize.add_argument("--format", choices=("ascii", "dot", "json"), default="ascii")
    visualize.add_argument("--out", default=None, help="output file (default: stdout)")

    info = commands.add_parser("info", help="inspect an artifact (version, dims, payloads)")
    info.add_argument("--model", required=True)
    info.add_argument(
        "--json", action="store_true",
        help="emit the report as a JSON object instead of text",
    )

    def _add_stream_args(sub) -> None:
        sub.add_argument("--graph", required=True, help="graph to split and replay")
        sub.add_argument("--communities", type=int, required=True)
        sub.add_argument("--topics", type=int, required=True)
        sub.add_argument("--iterations", type=int, default=15, help="base-fit EM iterations")
        sub.add_argument(
            "--warm-fraction", type=float, default=0.5,
            help="fraction of documents the offline base fit warms up on",
        )
        sub.add_argument("--batch-size", type=int, default=64, help="ingest micro-batch size")
        sub.add_argument(
            "--refresh-every", type=int, default=256,
            help="events between incremental refreshes",
        )
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--workers", type=int, default=0,
            help="parallel E-step workers for the base fit and the "
            "incremental refreshes (0 = serial)",
        )

    replay = commands.add_parser(
        "stream-replay",
        help="replay a graph as a stream: fit base, ingest, refresh, snapshot",
    )
    _add_stream_args(replay)
    replay.add_argument("--no-refresh", action="store_true", help="fold-in only, frozen model")
    replay.add_argument("--out", default=None, help="write a v3 snapshot artifact here")
    replay.add_argument(
        "--wal", default=None,
        help="append every micro-batch to this write-ahead log before applying "
        "it (repro.resilience durability)",
    )
    replay.add_argument(
        "--snapshot-dir", default=None,
        help="write a numbered snapshot generation here after every refresh "
        "(requires refresh mode)",
    )
    replay.add_argument(
        "--snapshot-retain", type=int, default=3,
        help="snapshot generations to keep in --snapshot-dir",
    )
    _add_telemetry_arg(replay)

    shard_fit = commands.add_parser(
        "shard-fit",
        help="partition a graph, fit every shard, align, write a shard manifest",
    )
    shard_fit.add_argument("--graph", required=True)
    shard_fit.add_argument("--shards", type=int, required=True, help="number of shards")
    shard_fit.add_argument(
        "--strategy", choices=("community", "hash"), default="community",
        help="user partitioning strategy (community keeps spill links low)",
    )
    shard_fit.add_argument("--communities", type=int, required=True)
    shard_fit.add_argument("--topics", type=int, required=True)
    shard_fit.add_argument("--iterations", type=int, default=25)
    shard_fit.add_argument("--alpha", type=float, default=0.5)
    shard_fit.add_argument("--rho", type=float, default=0.5)
    shard_fit.add_argument("--seed", type=int, default=0)
    shard_fit.add_argument(
        "--align-method", choices=("hungarian", "greedy"), default="hungarian",
        help="cross-shard community matching method",
    )
    shard_fit.add_argument(
        "--out-dir", required=True,
        help="directory for shard-<i>.cpd.npz artifacts + manifest.shards.json",
    )

    shard_query = commands.add_parser(
        "shard-query", help="serve ranking queries scatter-gather from a shard manifest"
    )
    shard_query.add_argument("--manifest", required=True)
    shard_query.add_argument(
        "--query",
        action="append",
        default=None,
        help="query term(s); repeatable. Default: the union of the shards' indexed queries",
    )
    shard_query.add_argument("--top", type=int, default=5, help="communities to print per query")
    shard_query.add_argument(
        "--against", default=None,
        help="monolithic artifact to measure top-k agreement against",
    )
    shard_query.add_argument(
        "--agree-top", type=int, default=2,
        help="agreement = the monolithic best community (mapped into the "
        "global label space) appears in the router's top-K",
    )
    shard_query.add_argument(
        "--min-agreement", type=float, default=None,
        help="exit non-zero when --against agreement falls below this fraction",
    )
    shard_query.add_argument(
        "--best-effort", action="store_true",
        help="serve partial merges with coverage reporting instead of failing "
        "when shards cannot answer",
    )
    _add_telemetry_arg(shard_query)

    serve = commands.add_parser(
        "serve",
        help="run the overload-hardened HTTP gateway over an artifact or "
        "shard manifest (rank / top-k / members / labels / health / metrics)",
    )
    serve.add_argument(
        "--model", required=True,
        help="self-contained artifact (.cpd.npz) or shard manifest "
        "(.shards.json) to serve",
    )
    serve.add_argument(
        "--graph", default=None,
        help="graph file for artifacts without serving payloads",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8323)
    serve.add_argument(
        "--max-in-flight", type=int, default=8,
        help="admission limit: requests executing concurrently",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16,
        help="admission queue depth; arrivals beyond it are shed with 429",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0,
        help="Retry-After seconds advertised on shed (429) responses",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float, default=None,
        help="budget applied to requests without an X-Deadline-Ms header",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=5.0,
        help="seconds a connection may stall before its read answers 408",
    )
    serve.add_argument(
        "--query-cache-size", type=int, default=1024,
        help="per-store LRU size for ranking results",
    )
    observability = serve.add_argument_group("request-scoped observability")
    observability.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="also append each access record as one JSON line to this file "
        "(the in-memory ring is always on)",
    )
    observability.add_argument(
        "--access-log-capacity", type=int, default=2048,
        help="in-memory access record ring size (0 disables access logging)",
    )
    observability.add_argument(
        "--tail-quantile", type=float, default=0.9,
        help="tail-sampling latency quantile: span trees of requests slower "
        "than this trailing percentile are kept (errors and followed "
        "trace ids are always kept)",
    )
    observability.add_argument(
        "--slo-availability-target", type=float, default=0.999,
        help="availability objective (fraction of requests not failing 5xx)",
    )
    observability.add_argument(
        "--slo-latency-target", type=float, default=0.99,
        help="latency objective (fraction of successes within the threshold)",
    )
    observability.add_argument(
        "--slo-latency-ms", type=float, default=250.0,
        help="latency threshold for the latency objective, milliseconds",
    )
    _add_profile_arg(serve)
    router_policy = serve.add_argument_group(
        "router policy (shard manifests only)"
    )
    router_policy.add_argument(
        "--best-effort", action="store_true",
        help="serve partial merges with coverage headers instead of 503 "
        "when shards cannot answer",
    )
    router_policy.add_argument(
        "--shard-deadline", type=float, default=None,
        help="per-shard-call deadline in seconds",
    )
    router_policy.add_argument(
        "--retries", type=int, default=1, help="per-shard retry attempts"
    )
    router_policy.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive failures before a shard's circuit breaker trips",
    )
    router_policy.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        help="seconds a tripped breaker stays open before probing",
    )
    router_policy.add_argument(
        "--breaker-half-open-probes", type=int, default=1,
        help="consecutive probe successes required to re-close a breaker",
    )
    router_policy.add_argument(
        "--stale-max-age", type=float, default=300.0,
        help="seconds a last-known ranking may be served for a failed shard",
    )

    doctor = commands.add_parser(
        "doctor",
        help="verify artifact/manifest integrity, snapshot generations and "
        "the WAL; print the recovery cursor",
    )
    doctor.add_argument(
        "--model", default=None,
        help="artifact (.cpd.npz) or shard manifest (.shards.json) to verify",
    )
    doctor.add_argument(
        "--snapshot-dir", default=None, help="snapshot-generation directory to walk"
    )
    doctor.add_argument(
        "--prefix", default="snapshot", help="snapshot filename prefix in --snapshot-dir"
    )
    doctor.add_argument("--wal", default=None, help="write-ahead log to scan")
    doctor.add_argument(
        "--url", default=None, metavar="URL",
        help="probe a live gateway (from `repro serve`): /health, /ready and "
        "/metrics; exit non-zero when unreachable, unhealthy or not ready",
    )
    doctor.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="telemetry snapshot file (from a --telemetry run) to summarise "
        "alongside the integrity checks",
    )
    doctor.add_argument(
        "--json", action="store_true",
        help="emit the full report as a JSON object instead of text",
    )

    top = commands.add_parser(
        "top", help="render a telemetry snapshot: counters, gauges, latency percentiles"
    )
    top.add_argument(
        "--telemetry", required=True, metavar="PATH",
        help="telemetry JSON file written by a --telemetry run",
    )
    top.add_argument(
        "--format", choices=("table", "json", "prometheus"), default="table",
        help="table (human), json (raw payload) or prometheus (text exposition)",
    )
    top.add_argument(
        "--watch", action="store_true",
        help="re-read and re-render the file until interrupted",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between --watch redraws"
    )

    trace = commands.add_parser(
        "trace",
        help="dump reconstructed span trees from a telemetry snapshot or a "
        "live gateway",
    )
    trace.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="telemetry JSON file written by a --telemetry run",
    )
    trace.add_argument(
        "--url", default=None, metavar="URL",
        help="read spans from a live gateway's /trace endpoint instead "
        "(pair with --trace-id to follow one request by its "
        "X-Repro-Trace response header)",
    )
    trace.add_argument(
        "--trace-id", default=None, help="only render the tree(s) of this trace id"
    )
    trace.add_argument(
        "--name", default=None,
        help="only render trees containing a span whose name has this substring",
    )
    trace.add_argument(
        "--limit", type=int, default=None, help="render at most this many trees (newest last)"
    )

    slo = commands.add_parser(
        "slo",
        help="summarise a live gateway's SLO burn rates (per route, per "
        "objective, per window)",
    )
    slo.add_argument(
        "--url", required=True, metavar="URL",
        help="base URL of a running `repro serve` gateway",
    )
    slo.add_argument(
        "--json", action="store_true",
        help="emit the raw /slo payload instead of the summary table",
    )

    bench_diff = commands.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json files; exit non-zero when a "
        "recognised metric regressed past the threshold",
    )
    bench_diff.add_argument("old", help="baseline benchmark JSON file")
    bench_diff.add_argument("new", help="candidate benchmark JSON file")
    bench_diff.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative change beyond which a directional metric counts as "
        "a regression/improvement (default 5%%)",
    )
    bench_diff.add_argument(
        "--verbose", action="store_true",
        help="also list unchanged and informational metrics",
    )
    bench_diff.add_argument(
        "--json", action="store_true",
        help="emit the full comparison report as JSON",
    )
    return parser


def _parallel_options(graph, config, workers: int, seed: int):
    """``(runner, FitOptions)`` for one fit; runner is ``None`` when serial.

    The single place the CLI builds the thread runner, so every command
    shares one lifecycle convention: callers must ``close()`` the returned
    runner (it stays open across the fit because the streaming commands
    reuse its helper threads and samplers for incremental refreshes).
    """
    if not workers:
        return None, FitOptions()
    runner = ParallelEStepRunner(graph, config, n_workers=workers, rng=seed)
    return runner, FitOptions(document_sweeper=runner)


def _describe_sweep_kernel(requested: str) -> str:
    """One status line naming the E-step kernel a fit will actually run.

    For ``compiled`` the backend is probed up front (building the shared
    object if needed) so the line can report the fallback — and its reason —
    before the fit starts, instead of burying a RuntimeWarning mid-run.
    """
    if requested != "compiled":
        return f"sweep kernel: {requested}"
    available, reason = _compiled.backend_status()
    if available:
        return "sweep kernel: compiled"
    return f"sweep kernel: compiled -> reference ({reason})"


def _telemetry_begin(args) -> str | None:
    """Enable telemetry when the command carries ``--telemetry PATH``.

    Returns the output path (or ``None``), for :func:`_telemetry_end`.
    """
    path = getattr(args, "telemetry", None)
    if path:
        obs.enable_telemetry()
    return path


def _telemetry_end(path: str | None, out) -> None:
    """Write the collected snapshot + spans and restore the no-op state.

    Runs in a ``finally`` so a crashed command still leaves its telemetry
    on disk — often exactly the run one wants to inspect.
    """
    if not path:
        return
    obs.write_telemetry(path, obs.get_registry().snapshot(), obs.get_sink().export())
    obs.disable_telemetry()
    print(f"wrote telemetry to {path}", file=out)


def _profile_begin(args):
    """Start the sampling profiler when the command carries ``--profile``.

    Returns the running profiler (or ``None``), for :func:`_profile_end`.
    """
    path = getattr(args, "profile", None)
    if not path:
        return None
    return obs.SamplingProfiler().start()


def _profile_end(profiler, args, out) -> None:
    """Stop the profiler and write the folded stacks (``finally`` path)."""
    if profiler is None:
        return
    profiler.stop()
    stats = profiler.stats()
    lines = profiler.write(args.profile)
    print(
        f"wrote {lines} folded stack(s) to {args.profile} "
        f"({stats['samples']} samples over "
        f"{stats['duration_seconds']:.1f}s)",
        file=out,
    )


def _metric_key(entry: dict) -> str:
    """``name{k="v",...}`` display key for one snapshot metric entry."""
    labels = entry.get("labels") or {}
    if not labels:
        return entry["name"]
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{entry['name']}{{{body}}}"


def _render_top(payload: dict, source: str) -> str:
    """The ``repro top`` table for one telemetry payload."""
    metrics = payload.get("metrics", {})
    spans = payload.get("spans", [])
    age = max(0.0, time.time() - payload.get("written_at", time.time()))
    lines = [f"telemetry {source}  (written {age:.0f}s ago)"]
    counters = sorted(metrics.get("counters", []), key=_metric_key)
    gauges = sorted(metrics.get("gauges", []), key=_metric_key)
    histograms = sorted(metrics.get("histograms", []), key=_metric_key)
    if counters:
        lines.append("\ncounters:")
        for entry in counters:
            lines.append(f"  {_metric_key(entry):<56} {entry['value']:>14g}")
    if gauges:
        lines.append("\ngauges:")
        for entry in gauges:
            lines.append(f"  {_metric_key(entry):<56} {entry['value']:>14.6g}")
    if histograms:
        lines.append(
            f"\n{'histograms:':<44} {'count':>7} {'mean':>9} {'p50':>9} "
            f"{'p95':>9} {'p99':>9} {'max':>9}"
        )
        for entry in histograms:
            stats = obs.histogram_summary(entry)
            lines.append(
                f"  {_metric_key(entry):<42} {stats['count']:>7d} "
                f"{stats['mean']:>9.4g} {stats['p50']:>9.4g} "
                f"{stats['p95']:>9.4g} {stats['p99']:>9.4g} {stats['max']:>9.4g}"
            )
    if not (counters or gauges or histograms):
        lines.append("\n(no metrics recorded)")
    trace_ids = {record.get("trace_id") for record in spans}
    lines.append(f"\nspans: {len(spans)} recorded across {len(trace_ids)} trace(s)")
    return "\n".join(lines)


def _load_store(
    model_path: str,
    graph_path: str | None,
    out,
    query_cache_size: int = 1024,
) -> ProfileStore | None:
    """A ProfileStore from the artifact, attaching the graph when given.

    Returns ``None`` (after printing the reason) when the artifact is not
    self-contained and no graph was passed.
    """
    artifact = load_artifact(model_path)
    if graph_path is not None:
        graph = load_graph(graph_path)
        return ProfileStore(
            artifact.result,
            vocabulary=artifact.vocabulary or graph.vocabulary,
            summary=(
                GraphSummary.from_dict(artifact.graph_summary)
                if artifact.graph_summary is not None
                else None
            ),
            graph=graph,
            query_cache_size=query_cache_size,
        )
    if not artifact.self_contained:
        print(
            f"error: {model_path} is a v{artifact.format_version} artifact without "
            "serving payloads; re-run `repro fit` to write a self-contained v2 "
            "artifact, or pass --graph",
            file=out,
        )
        return None
    return ProfileStore.from_artifact_bundle(
        artifact, query_cache_size=query_cache_size
    )


def run_generate(args, out=None) -> int:
    out = out or sys.stdout
    maker = {
        "twitter": twitter_scenario,
        "dblp": dblp_scenario,
        "separated": separated_scenario,
    }[args.scenario]
    graph, _truth = maker(args.scale, rng=args.seed)
    save_graph(graph, args.out)
    print(f"wrote {graph!r} to {args.out}", file=out)
    return 0


def run_fit(args, out=None) -> int:
    out = out or sys.stdout
    telemetry = _telemetry_begin(args)
    profiler = _profile_begin(args)
    try:
        return _run_fit(args, out)
    finally:
        _profile_end(profiler, args, out)
        _telemetry_end(telemetry, out)


def _run_fit(args, out) -> int:
    graph = load_graph(args.graph)
    config = CPDConfig(
        n_communities=args.communities,
        n_topics=args.topics,
        n_iterations=args.iterations,
        alpha=args.alpha,
        rho=args.rho,
        sweep_kernel=args.sweep_kernel,
    )
    print(_describe_sweep_kernel(config.sweep_kernel), file=out)
    runner, options = _parallel_options(
        graph, config, getattr(args, "workers", 0), args.seed
    )
    try:
        if runner is not None:
            print(
                f"parallel E-step: {runner.n_workers} workers, "
                f"{len(runner.segments)} segments, "
                f"imbalance {runner.schedule.allocation.imbalance():.2f}",
                file=out,
            )
        result = CPDModel(config, rng=args.seed).fit(graph, options)
    finally:
        if runner is not None:
            runner.close()
    save_result(
        result,
        args.out,
        vocabulary=graph.vocabulary,
        graph_summary=GraphSummary.from_graph(graph),
    )
    print(result.summary(graph.vocabulary), file=out)
    print(f"\nwrote self-contained model artifact to {args.out}", file=out)
    return 0


def run_evaluate(args, out=None) -> int:
    out = out or sys.stdout
    graph = load_graph(args.graph)
    artifact = load_artifact(args.model)
    store = ProfileStore(
        artifact.result,
        vocabulary=artifact.vocabulary or graph.vocabulary,
        graph=graph,
    )
    result = store.result
    predictor = DiffusionPredictor(store)
    pi = result.pi
    diffusion = diffusion_auc_folds(graph, predictor.score_pairs, rng=args.seed)
    friendship = friendship_auc_folds(
        graph, lambda u, v: np.einsum("ij,ij->i", pi[u], pi[v]), rng=args.seed
    )
    perplexity = content_perplexity(graph, result.pi, result.theta, result.phi)
    conductance = average_conductance(graph, result.pi, top_k=1)
    print(f"diffusion link AUC : {diffusion.mean:.4f} +- {diffusion.std:.4f}", file=out)
    print(f"friendship link AUC: {friendship.mean:.4f} +- {friendship.std:.4f}", file=out)
    print(f"content perplexity : {perplexity:.1f}", file=out)
    print(f"conductance (top-1): {conductance:.4f}", file=out)
    return 0


def run_rank(args, out=None) -> int:
    out = out or sys.stdout
    store = _load_store(args.model, args.graph, out)
    if store is None:
        return 1
    ranker = CommunityRanker(store)
    try:
        ranking = ranker.rank(args.query)
    except KeyError:
        print(f"error: no term of query {args.query!r} is in the vocabulary", file=out)
        return 1
    print(f"query {args.query!r} topics: "
          + ", ".join(f"z{z}:{w:.2f}" for z, w in ranker.query_topics(args.query)),
          file=out)
    for rank, (community, score) in enumerate(ranking[: args.top], start=1):
        print(f"  #{rank} c{community:02d}  score={score:.6f}", file=out)
    return 0


def run_query(args, out=None) -> int:
    out = out or sys.stdout
    store = _load_store(args.model, None, out)
    if store is None:
        return 1
    terms = args.query
    if not terms:
        terms = [query.term for query in store.indexed_queries()]
        if not terms:
            print("error: the artifact indexes no queries; pass --query", file=out)
            return 1
    status = 0
    for term in terms:
        try:
            ranking = store.rank(term)[: args.top]
        except KeyError:
            print(f"{term!r}: not in the fitted vocabulary", file=out)
            status = 1
            continue
        ranked = "  ".join(f"c{c:02d}:{score:.6f}" for c, score in ranking)
        indexed = store.query_index().get(term)
        suffix = (
            f"  ({indexed.frequency} diffusing docs, "
            f"{len(indexed.relevant_users)} relevant users)"
            if indexed is not None
            else ""
        )
        print(f"{term!r}: {ranked}{suffix}", file=out)
    return status


def run_report(args, out=None) -> int:
    out = out or sys.stdout
    store = _load_store(args.model, args.graph, out)
    if store is None:
        return 1
    queries = store.indexed_queries(args.queries)
    text = build_report(store, queries=queries)
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote report to {args.out}", file=out)
    return 0


def run_visualize(args, out=None) -> int:
    out = out or sys.stdout
    store = _load_store(args.model, args.graph, out)
    if store is None:
        return 1
    view = build_diffusion_graph(store, topic=args.topic, labels=store.labels())
    if args.format == "dot":
        rendered = to_dot(view)
    elif args.format == "json":
        rendered = to_json(view)
    else:
        rendered = ascii_render(view)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.format} view to {args.out}", file=out)
    else:
        print(rendered, file=out)
    return 0


def _artifact_info_payload(path) -> dict:
    """What ``repro info`` reports about a CPD artifact."""
    artifact = load_artifact(path)
    result = artifact.result
    payload = {
        "kind": "artifact",
        "path": str(path),
        "format_version": artifact.format_version,
        "self_contained": artifact.self_contained,
        "graph": result.graph_name or None,
        "dims": {
            "users": result.n_users,
            "documents": len(result.doc_community),
            "communities": result.n_communities,
            "topics": result.n_topics,
            "words": result.n_words,
        },
        "sweep_kernel": result.config.sweep_kernel,
        "vocabulary_terms": (
            len(artifact.vocabulary) if artifact.vocabulary is not None else None
        ),
        "indexed_queries": (
            len(artifact.graph_summary.get("queries", []))
            if artifact.graph_summary is not None
            else None
        ),
        "stream_cursor": artifact.stream_cursor,
    }
    if result.trace:
        payload["fit_trace"] = {
            "iterations": len(result.trace),
            "seconds": sum(entry.seconds for entry in result.trace),
            "last_diffusion_probability": result.trace[-1].mean_diffusion_probability,
        }
    else:
        payload["fit_trace"] = None
    return payload


def _artifact_info_lines(payload: dict) -> list[str]:
    """The text readout of :func:`_artifact_info_payload`."""
    dims = payload["dims"]
    lines = [
        f"artifact        : {payload['path']}",
        f"format version  : {payload['format_version']}"
        + (" (self-contained)" if payload["self_contained"] else ""),
        f"graph           : {payload['graph'] or 'unnamed'}",
        f"dims            : {dims['users']} users  {dims['documents']} docs  "
        f"{dims['communities']} communities  {dims['topics']} topics  "
        f"{dims['words']} words",
        f"sweep kernel    : {payload['sweep_kernel']}",
    ]
    trace = payload["fit_trace"]
    if trace is not None:
        lines.append(
            f"fit trace       : {trace['iterations']} EM iterations in "
            f"{trace['seconds']:.2f}s (last diffusion prob "
            f"{trace['last_diffusion_probability']:.3f})"
        )
    else:
        lines.append("fit trace       : absent")
    if payload["vocabulary_terms"] is not None:
        lines.append(f"vocabulary      : embedded ({payload['vocabulary_terms']} terms)")
    else:
        lines.append("vocabulary      : absent (pass --graph to serving commands)")
    if payload["indexed_queries"] is not None:
        lines.append(
            f"graph summary   : embedded ({payload['indexed_queries']} queries indexed)"
        )
    else:
        lines.append("graph summary   : absent")
    cursor = payload["stream_cursor"]
    if cursor is not None:
        base_docs = dims["documents"] - cursor.get("documents_appended", 0)
        lines += [
            "stream cursor   : "
            f"{cursor.get('documents_appended', 0)} docs + "
            f"{cursor.get('links_appended', 0)} links appended, "
            f"{cursor.get('refreshes', 0)} refreshes, "
            f"last timestamp {cursor.get('last_timestamp', 0)}",
            f"snapshot        : stream snapshot over a {base_docs}-doc offline base "
            f"(snapshot covers {dims['documents']} docs total)",
        ]
    else:
        lines.append("stream cursor   : absent (offline fit)")
    return lines


def _manifest_info_payload(path) -> dict:
    """What ``repro info`` reports about a shard manifest."""
    manifest = load_shard_manifest(path)
    return {
        "kind": "shard_manifest",
        "path": str(path),
        "manifest_version": manifest.manifest_version,
        "graph": manifest.graph_name or None,
        "n_shards": manifest.n_shards,
        "strategy": manifest.strategy,
        "n_users": manifest.n_users,
        "n_documents": manifest.n_documents,
        "shards": [
            {
                "shard_id": entry.shard_id,
                "path": entry.path,
                "n_users": entry.n_users,
                "n_documents": entry.n_documents,
            }
            for entry in manifest.shards
        ],
        "spill": (
            {
                "friendship": len(manifest.spill.get("friendship", [])),
                "diffusion": len(manifest.spill.get("diffusion", [])),
            }
            if manifest.spill is not None
            else None
        ),
        "alignment": manifest.alignment,
    }


def _manifest_info_lines(payload: dict) -> list[str]:
    """The text readout of :func:`_manifest_info_payload`."""
    lines = [
        f"shard manifest  : {payload['path']} (v{payload['manifest_version']})",
        f"graph           : {payload['graph'] or 'unnamed'}",
        f"partition       : {payload['n_shards']} shards, strategy "
        f"{payload['strategy']!r}, {payload['n_users']} users, "
        f"{payload['n_documents']} documents",
    ]
    for entry in payload["shards"]:
        lines.append(
            f"  shard {entry['shard_id']}       : {entry['path']}  "
            f"({entry['n_users']} users, {entry['n_documents']} docs)"
        )
    spill = payload["spill"]
    if spill is not None:
        lines.append(
            f"spill set       : {spill['friendship']} friendship + "
            f"{spill['diffusion']} diffusion cross-shard links"
        )
    else:
        lines.append("spill set       : absent")
    alignment = payload["alignment"]
    if alignment is not None:
        lines.append(
            f"alignment       : {alignment.get('n_global')} global communities "
            f"({alignment.get('method')} on {alignment.get('feature')} profiles, "
            f"min similarity {alignment.get('min_similarity')})"
        )
    else:
        lines.append("alignment       : absent (router cannot open this manifest)")
    return lines


def run_info(args, out=None) -> int:
    out = out or sys.stdout
    if is_shard_manifest(args.model):
        payload = _manifest_info_payload(args.model)
        lines = _manifest_info_lines
    else:
        payload = _artifact_info_payload(args.model)
        lines = _artifact_info_lines
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print("\n".join(lines(payload)), file=out)
    return 0


def _replay_setup(args):
    """Split the graph, fit the base model, build the streaming pipeline.

    With ``--workers`` the base fit runs over a thread-parallel runner,
    which is returned (still open) so the incremental refreshes can reuse
    its helpers; callers must ``close()`` it.
    """
    graph = load_graph(args.graph)
    plan = split_for_replay(graph, warm_fraction=args.warm_fraction)
    config = CPDConfig(
        n_communities=args.communities,
        n_topics=args.topics,
        n_iterations=args.iterations,
    )
    runner, options = _parallel_options(
        plan.base_graph, config, getattr(args, "workers", 0), args.seed
    )
    try:
        base_fit = CPDModel(config, rng=args.seed).fit(plan.base_graph, options)
        store = ProfileStore.from_fit(base_fit, plan.base_graph)
    except Exception:
        if runner is not None:
            runner.close()
        raise
    return plan, base_fit, store, runner


def _drive_replay(
    plan, base_fit, store, args, with_refresh: bool, runner=None,
    wal=None, on_refresh_factory=None,
):
    """Stream the plan's events through an ingestor; returns it with timing.

    ``on_refresh_factory`` (if given) is called with the freshly built
    refresher and must return the ``on_refresh`` callback — the factory
    indirection exists because callers (snapshot-generation wiring) need a
    handle on the refresher this function creates.
    """
    refresher = (
        IncrementalRefresher(
            plan.base_graph, base_fit, rng=args.seed + 1, document_sweeper=runner
        )
        if with_refresh
        else None
    )
    on_refresh = (
        on_refresh_factory(refresher)
        if on_refresh_factory is not None and refresher is not None
        else None
    )
    ingestor = MicroBatchIngestor(
        store,
        refresher,
        batch_size=args.batch_size,
        refresh_interval=None if refresher is None else args.refresh_every,
        rng=args.seed + 2,
        wal=wal,
        on_refresh=on_refresh,
    )
    started = time.perf_counter()
    ingestor.submit_many(plan.events)
    ingestor.flush()
    if refresher is not None:
        ingestor.refresh()
    return ingestor, refresher, time.perf_counter() - started


def run_stream_replay(args, out=None) -> int:
    out = out or sys.stdout
    telemetry = _telemetry_begin(args)
    try:
        return _run_stream_replay(args, out)
    finally:
        _telemetry_end(telemetry, out)


def _run_stream_replay(args, out) -> int:
    if args.no_refresh and args.out:
        print(
            "error: --out requires refresh mode (a frozen fold-in run maintains "
            "no model state to snapshot); drop --no-refresh",
            file=out,
        )
        return 1
    if args.no_refresh and args.snapshot_dir:
        print(
            "error: --snapshot-dir requires refresh mode (generations are "
            "written at refresh time); drop --no-refresh",
            file=out,
        )
        return 1
    plan, base_fit, store, runner = _replay_setup(args)
    print(
        f"base fit: {plan.base_graph!r}\n"
        f"replaying {len(plan.events)} events "
        f"({plan.n_document_events} documents, {plan.n_link_events} links)",
        file=out,
    )
    wal = WriteAheadLog(args.wal) if args.wal else None
    catalog = (
        SnapshotCatalog(args.snapshot_dir, retain=args.snapshot_retain)
        if args.snapshot_dir
        else None
    )

    def snapshot_factory(refresher):
        # durable mode: each refresh also writes a snapshot generation, so
        # the WAL tail a crash would need to replay stays one interval long
        snapshotter = Snapshotter(
            refresher,
            vocabulary=plan.base_graph.vocabulary,
            base_summary=GraphSummary.from_graph(plan.base_graph),
        )
        return lambda report: catalog.save(snapshotter)

    try:
        ingestor, refresher, seconds = _drive_replay(
            plan, base_fit, store, args,
            with_refresh=not args.no_refresh, runner=runner,
            wal=wal,
            on_refresh_factory=snapshot_factory if catalog is not None else None,
        )
    finally:
        if runner is not None:
            runner.close()
        if wal is not None:
            wal.close()
    stats = ingestor.stats()
    print(
        f"ingested {stats['events']} events in {seconds:.2f}s "
        f"({stats['events'] / seconds:.0f} events/sec, {stats['flushes']} flushes, "
        f"{stats['refreshes']} refreshes)",
        file=out,
    )
    print(
        f"staleness since last refresh: {stats['staleness_total']} docs; "
        f"cumulative refresh drift: {stats['drift_total']} reassignments",
        file=out,
    )
    if wal is not None:
        print(
            f"write-ahead log: {stats['wal_events']} events durably logged "
            f"to {args.wal}",
            file=out,
        )
    if catalog is not None:
        generations = catalog.generations()
        newest = generations[-1][1].name if generations else "none"
        print(
            f"snapshot generations: {len(generations)} retained in "
            f"{args.snapshot_dir} (newest {newest}, retain {args.snapshot_retain})",
            file=out,
        )
    if refresher is not None and args.out:
        snapshotter = Snapshotter(
            refresher,
            vocabulary=plan.base_graph.vocabulary,
            base_summary=GraphSummary.from_graph(plan.base_graph),
        )
        result = snapshotter.save(args.out)
        snapshotter.hot_swap(store)
        print(
            f"wrote v3 stream snapshot ({len(result.doc_community)} docs) "
            f"to {args.out}",
            file=out,
        )
    return 0


def run_shard_fit(args, out=None) -> int:
    out = out or sys.stdout
    graph = load_graph(args.graph)
    config = CPDConfig(
        n_communities=args.communities,
        n_topics=args.topics,
        n_iterations=args.iterations,
        alpha=args.alpha,
        rho=args.rho,
    )
    started = time.perf_counter()
    fit = fit_shards(
        graph,
        config,
        args.shards,
        strategy=args.strategy,
        out_dir=args.out_dir,
        aligner=CommunityAligner(method=args.align_method),
        rng=args.seed,
    )
    seconds = time.perf_counter() - started
    plan = fit.plan
    print(
        f"partitioned {graph.n_users} users into {plan.n_shards} shards "
        f"({plan.strategy}): "
        + "  ".join(
            f"shard{part.shard_id}={part.n_users}u/{part.n_documents}d"
            for part in plan.shards
        ),
        file=out,
    )
    print(
        f"spill set: {plan.spill.n_friendship} friendship + "
        f"{plan.spill.n_diffusion} diffusion cross-shard links "
        f"({plan.spill_fraction():.1%} of all links)",
        file=out,
    )
    print(
        f"fitted {plan.n_shards} shards in {seconds:.2f}s "
        f"(per shard: {'  '.join(f'{s:.2f}s' for s in fit.fit_seconds)})",
        file=out,
    )
    print(
        f"alignment: {fit.alignment.n_global} global communities "
        f"({args.align_method} on {fit.alignment.feature} profiles)",
        file=out,
    )
    print(f"wrote shard artifacts + manifest to {fit.manifest_path}", file=out)
    return 0


def run_shard_query(args, out=None) -> int:
    out = out or sys.stdout
    telemetry = _telemetry_begin(args)
    try:
        return _run_shard_query(args, out)
    finally:
        _telemetry_end(telemetry, out)


def _run_shard_query(args, out) -> int:
    router = ShardRouter.from_manifest(args.manifest, best_effort=args.best_effort)
    terms = args.query
    if not terms:
        terms = router.indexed_terms()
        if not terms:
            print("error: the shards index no queries; pass --query", file=out)
            return 1
    status = 0
    for term in terms:
        try:
            if args.best_effort:
                envelope = router.gather(term)
                ranking = envelope.ranking[: args.top]
            else:
                envelope = None
                ranking = router.rank(term)[: args.top]
        except KeyError:
            print(f"{term!r}: not in the fitted vocabulary", file=out)
            status = 1
            continue
        ranked = "  ".join(f"g{c:02d}:{score:.6f}" for c, score in ranking)
        coverage = ""
        if envelope is not None and not envelope.exact:
            coverage = (
                f"  [degraded: {len(envelope.answered)}/{envelope.n_shards} "
                f"shards live, {len(envelope.stale)} stale, "
                f"coverage {envelope.coverage:.0%}]"
            )
        print(f"{term!r}: {ranked}{coverage}", file=out)
    info = router.cache_info()
    print(
        f"served {len(terms)} queries across {router.n_shards} shards "
        f"({info['hits']} cache hits, {info['misses']} misses)",
        file=out,
    )
    if args.against is not None:
        store = _load_store(args.against, None, out)
        if store is None:
            return 1
        # the monolithic signatures must live in the same feature space the
        # manifest's alignment was built (and rebuilt) in
        aligner = CommunityAligner(
            method=router.alignment.method, feature=router.alignment.feature
        )
        mono_map = aligner.map_result(router.alignment, store.result)
        agreements = 0
        scored = 0
        for term in terms:
            try:
                mono_top = int(mono_map[store.top_k(term, 1)[0]])
                router_top = router.top_k(term, args.agree_top)
            except KeyError:
                continue
            scored += 1
            agreements += int(mono_top in router_top)
        if not scored:
            print("error: no query scorable against the monolithic model", file=out)
            return 1
        agreement = agreements / scored
        print(
            f"agreement vs {args.against}: {agreements}/{scored} = {agreement:.1%} "
            f"(monolithic best community in router top-{args.agree_top})",
            file=out,
        )
        if args.min_agreement is not None and agreement < args.min_agreement:
            print(
                f"error: agreement {agreement:.1%} below required "
                f"{args.min_agreement:.1%}",
                file=out,
            )
            return 1
    return status


def run_serve(args, out=None) -> int:
    """Run the overload-hardened gateway until SIGTERM/SIGINT drains it."""
    out = out or sys.stdout

    def say(message: str) -> None:
        print(message, file=out, flush=True)

    if is_shard_manifest(args.model):
        backend = ShardRouter.from_manifest(
            args.model,
            query_cache_size=args.query_cache_size,
            best_effort=args.best_effort,
            deadline=args.shard_deadline,
            retries=args.retries,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            breaker_half_open_probes=args.breaker_half_open_probes,
            stale_max_age=args.stale_max_age,
        )
        say(
            f"opened shard manifest {args.model}: "
            f"{len(backend.stores)} shard(s), "
            f"best_effort={'on' if args.best_effort else 'off'}"
        )
    else:
        backend = _load_store(
            args.model, args.graph, out, query_cache_size=args.query_cache_size
        )
        if backend is None:
            return 1
        say(f"opened artifact {args.model}: {backend.n_communities} communities")

    # live /metrics needs the real registry, not the null one — and /trace
    # needs the live sink for tail-sampled request trees
    obs.enable_telemetry()
    gateway = GatewayServer(
        backend,
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        retry_after=args.retry_after,
        default_deadline=(
            args.default_deadline_ms / 1000.0
            if args.default_deadline_ms is not None
            else None
        ),
        read_timeout=args.read_timeout,
        slo_availability_target=args.slo_availability_target,
        slo_latency_target=args.slo_latency_target,
        slo_latency_threshold=args.slo_latency_ms / 1000.0,
        access_log_capacity=args.access_log_capacity,
        access_log_path=args.access_log,
        tail_quantile=args.tail_quantile,
    )
    profiler = _profile_begin(args)
    try:
        gateway.run(out=say)
    finally:
        _profile_end(profiler, args, out)
    return 0


def _probe_gateway(url: str, say) -> tuple[dict, int]:
    """Probe a live gateway's /health, /ready and /metrics endpoints.

    Returns ``(report, status)`` — status 1 when the gateway is
    unreachable, reports itself unhealthy, is not ready (draining), or
    serves an unparseable metrics exposition. A degraded-but-serving
    gateway (tripped shard breakers) is reported but still exits 0: the
    whole point of best-effort serving is that degraded is operational.
    """
    import urllib.error
    import urllib.request

    base = url.rstrip("/")
    gateway_report: dict = {"url": base}
    status = 0

    def fetch(path: str) -> tuple[int | None, str, str | None]:
        """``(http_status, body_text, error)`` for one GET."""
        try:
            with urllib.request.urlopen(base + path, timeout=10) as response:
                return response.status, response.read().decode("utf-8"), None
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode("utf-8"), None
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            return None, "", str(error)

    code, body, error = fetch("/health")
    if code is None:
        say(f"gateway   {base}: UNREACHABLE ({error})")
        gateway_report["reachable"] = False
        gateway_report["error"] = error
        return gateway_report, 1
    gateway_report["reachable"] = True
    try:
        health = json.loads(body)
    except json.JSONDecodeError:
        health = {}
    health_status = health.get("status", "unknown")
    gateway_report["health"] = {"http_status": code, "status": health_status}
    degraded_shards = [
        (shard_id, entry)
        for shard_id, entry in enumerate(health.get("shards", []))
        if entry.get("state") != "closed"
    ]
    if code != 200 or health_status not in ("ok", "degraded"):
        say(f"gateway   {base}/health: HTTP {code}, status {health_status!r}")
        status = 1
    else:
        backend = health.get("backend", "?")
        say(f"gateway   {base}/health: {health_status} ({backend} backend)")
    for shard_id, entry in degraded_shards:
        say(
            f"  shard {shard_id}: breaker {entry.get('state', '?')} "
            f"({entry.get('consecutive_failures', '?')} consecutive failures, "
            f"{entry.get('stale_served', 0)} stale answers served)"
        )
    gateway_report["degraded_shards"] = [
        shard_id for shard_id, _entry in degraded_shards
    ]

    code, body, error = fetch("/ready")
    ready = code == 200
    gateway_report["ready"] = ready
    if ready:
        say(f"gateway   {base}/ready: ready")
    else:
        detail = f"HTTP {code}" if code is not None else error
        say(f"gateway   {base}/ready: NOT READY ({detail})")
        status = 1

    code, body, error = fetch("/metrics")
    if code == 200:
        try:
            parsed = obs.parse_prometheus(body)
        except ValueError as parse_error:
            say(f"gateway   {base}/metrics: UNPARSEABLE ({parse_error})")
            gateway_report["metrics"] = {"ok": False, "error": str(parse_error)}
            status = 1
        else:
            totals: dict[str, float] = {}
            for sample in parsed["samples"]:
                totals[sample["name"]] = (
                    totals.get(sample["name"], 0.0) + sample["value"]
                )
            requests = totals.get("repro_gateway_requests_total", 0.0)
            shed = totals.get("repro_gateway_shed_total", 0.0)
            say(
                f"gateway   {base}/metrics: {len(parsed['types'])} families, "
                f"{len(parsed['samples'])} samples "
                f"({requests:.0f} requests, {shed:.0f} shed)"
            )
            gateway_report["metrics"] = {
                "ok": True,
                "families": len(parsed["types"]),
                "samples": len(parsed["samples"]),
                "requests_total": requests,
                "shed_total": shed,
            }
    else:
        detail = f"HTTP {code}" if code is not None else error
        say(f"gateway   {base}/metrics: UNAVAILABLE ({detail})")
        gateway_report["metrics"] = {"ok": False, "error": detail}
        status = 1

    code, body, error = fetch("/slo")
    if code == 200:
        try:
            slo_payload = json.loads(body)
        except json.JSONDecodeError:
            slo_payload = {}
        worst = slo_payload.get("worst_burn") or {}
        if worst.get("route"):
            say(
                f"gateway   {base}/slo: worst burn "
                f"{worst.get('burn_rate', 0.0):.2f}x budget "
                f"({worst.get('route')} {worst.get('objective')}, "
                f"{worst.get('window')}s window)"
            )
        elif slo_payload.get("routes"):
            # traffic exists but no objective is burning budget
            say(
                f"gateway   {base}/slo: "
                f"{len(slo_payload['routes'])} route(s), zero burn"
            )
        else:
            say(f"gateway   {base}/slo: no traffic recorded yet")
        gateway_report["slo"] = {"ok": True, "worst_burn": worst}
    elif code == 404:
        # an older gateway without the SLO endpoint — absent, not broken
        say(f"gateway   {base}/slo: not served by this gateway")
        gateway_report["slo"] = {"ok": True, "available": False}
    else:
        detail = f"HTTP {code}" if code is not None else error
        say(f"gateway   {base}/slo: UNAVAILABLE ({detail})")
        gateway_report["slo"] = {"ok": False, "error": detail}
        status = 1

    return gateway_report, status


def run_doctor(args, out=None) -> int:
    """Integrity + recoverability report; exit 0 iff everything checked is healthy."""
    out = out or sys.stdout
    json_mode = getattr(args, "json", False)
    telemetry_path = getattr(args, "telemetry", None)

    def say(message: str) -> None:
        if not json_mode:
            print(message, file=out)

    url = getattr(args, "url", None)
    if not (args.model or args.snapshot_dir or args.wal or telemetry_path or url):
        print(
            "error: nothing to examine; pass --model, --snapshot-dir, --wal, "
            "--telemetry and/or --url",
            file=out,
        )
        return 1
    status = 0
    cursor = None
    report: dict = {"checks": {}}

    if args.model:
        if is_shard_manifest(args.model):
            check = verify_shard_manifest(args.model)
            verdict = "ok" if check.ok else f"DAMAGED ({check.error})"
            say(f"manifest  {args.model}: {verdict}")
            for artifact_check in check.artifact_checks:
                sub = "ok" if artifact_check.ok else f"DAMAGED ({artifact_check.error})"
                say(f"  shard artifact {Path(artifact_check.path).name}: {sub}")
            report["checks"]["model"] = {
                "kind": "shard_manifest",
                "path": str(args.model),
                "ok": check.ok,
                "error": check.error,
                "artifacts": [
                    {"path": c.path, "ok": c.ok, "error": c.error}
                    for c in check.artifact_checks
                ],
            }
            if not check.ok:
                status = 1
        else:
            check = verify_artifact(args.model)
            if check.ok:
                say(
                    f"artifact  {args.model}: ok "
                    f"(v{check.format_version}, {len(check.entries)} entries verified)"
                )
            else:
                say(f"artifact  {args.model}: DAMAGED ({check.error})")
                status = 1
            report["checks"]["model"] = {
                "kind": "artifact",
                "path": str(args.model),
                "ok": check.ok,
                "error": check.error,
                "format_version": check.format_version,
                "entries_verified": len(check.entries),
            }

    if args.snapshot_dir:
        catalog = SnapshotCatalog(args.snapshot_dir, prefix=args.prefix)
        newest, skipped = catalog.newest_valid()
        damaged = {generation: error for generation, _path, error in skipped}
        generations = []
        for generation, path in catalog.generations():
            if generation in damaged:
                state = f"DAMAGED ({damaged[generation]})"
                say(f"generation {path.name}: {state}")
            elif newest is not None and generation > newest[0]:
                # newer than the chosen one yet not in the skip list cannot
                # happen (the walk is newest-first); guard anyway
                state = "unexamined"
                say(f"generation {path.name}: unexamined")
            elif newest is not None and generation < newest[0]:
                state = "superseded"
                say(f"generation {path.name}: superseded")
            else:
                state = "ok (recovery candidate)"
                say(f"generation {path.name}: ok (recovery candidate)")
            generations.append({"name": path.name, "state": state})
        snapshot_report = {
            "directory": str(args.snapshot_dir),
            "generations": generations,
            "ok": newest is not None,
            "recovery_cursor": None,
        }
        if newest is None:
            say(
                f"snapshots {args.snapshot_dir}: NO VALID GENERATION "
                "— recovery from this directory is impossible"
            )
            status = 1
        else:
            check = verify_artifact(newest[1])
            if check.stream_cursor is not None:
                cursor = StreamCursor.from_dict(check.stream_cursor)
                say(
                    f"recovery cursor: {cursor.events_ingested} events ingested "
                    f"({cursor.documents_appended} docs + {cursor.links_appended} "
                    f"links, {cursor.refreshes} refreshes)"
                )
            else:
                cursor = StreamCursor(0, 0, 0, -1)
                say(
                    "recovery cursor: offline artifact (no stream cursor; "
                    "a recovery would replay the whole WAL)"
                )
            snapshot_report["recovery_cursor"] = {
                "events_ingested": cursor.events_ingested,
                "documents_appended": cursor.documents_appended,
                "links_appended": cursor.links_appended,
                "refreshes": cursor.refreshes,
            }
        report["checks"]["snapshots"] = snapshot_report

    if args.wal:
        wal_status = scan_wal(args.wal)
        wal_report = {
            "path": str(args.wal),
            "missing": wal_status.missing,
            "n_records": wal_status.n_records,
            "n_events": wal_status.n_events,
            "valid_bytes": wal_status.valid_bytes,
            "file_bytes": wal_status.file_bytes,
            "torn": wal_status.torn,
            "torn_reason": wal_status.torn_reason,
        }
        if wal_status.missing:
            say(f"wal       {args.wal}: missing")
            status = 1
        else:
            tail = ""
            if wal_status.torn:
                tail = f"; torn tail ({wal_status.torn_reason}) — truncated on next open"
            say(
                f"wal       {args.wal}: {wal_status.n_records} records, "
                f"{wal_status.n_events} events, {wal_status.valid_bytes}/"
                f"{wal_status.file_bytes} bytes valid{tail}"
            )
            if cursor is not None:
                replay_tail = max(0, wal_status.n_events - cursor.events_ingested)
                wal_report["replay_tail"] = replay_tail
                say(f"replay tail: {replay_tail} events past the snapshot cursor")
        report["checks"]["wal"] = wal_report

    if telemetry_path:
        try:
            payload = obs.load_telemetry(telemetry_path)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            say(f"telemetry {telemetry_path}: UNREADABLE ({error})")
            report["checks"]["telemetry"] = {
                "path": str(telemetry_path), "ok": False, "error": str(error),
            }
            status = 1
        else:
            metrics = payload.get("metrics", {})
            spans = payload.get("spans", [])
            age = max(0.0, time.time() - payload.get("written_at", time.time()))
            say(
                f"telemetry {telemetry_path}: {len(metrics.get('counters', []))} "
                f"counters, {len(metrics.get('gauges', []))} gauges, "
                f"{len(metrics.get('histograms', []))} histograms, "
                f"{len(spans)} spans (written {age:.0f}s ago)"
            )
            report["checks"]["telemetry"] = {
                "path": str(telemetry_path),
                "ok": True,
                "written_at": payload.get("written_at"),
                "n_spans": len(spans),
                "metrics": metrics,
            }

    if url:
        gateway_report, gateway_status = _probe_gateway(url, say)
        report["checks"]["gateway"] = gateway_report
        status = max(status, gateway_status)

    report["status"] = "ok" if status == 0 else "problems"
    if json_mode:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        print(
            "doctor: " + ("all checks passed" if status == 0 else "PROBLEMS FOUND"),
            file=out,
        )
    return status


def run_top(args, out=None) -> int:
    """Render a telemetry snapshot file; ``--watch`` re-reads until ^C."""
    out = out or sys.stdout

    def render_once() -> int:
        try:
            payload = obs.load_telemetry(args.telemetry)
        except FileNotFoundError:
            print(f"error: no telemetry file at {args.telemetry}", file=out)
            return 1
        except (ValueError, json.JSONDecodeError) as error:
            print(f"error: cannot read {args.telemetry}: {error}", file=out)
            return 1
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        elif args.format == "prometheus":
            print(obs.render_prometheus(payload.get("metrics", {})), end="", file=out)
        else:
            print(_render_top(payload, str(args.telemetry)), file=out)
        return 0

    if not args.watch:
        return render_once()
    try:
        while True:
            # ANSI clear-screen + home, so the redraw reads like top(1)
            print("\x1b[2J\x1b[H", end="", file=out)
            status = render_once()
            if status != 0:
                return status
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _fetch_json(url: str) -> tuple[dict | None, str | None]:
    """``(parsed JSON body, error)`` for one GET against a live gateway."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError, ValueError) as error:
        return None, str(error)
    try:
        return json.loads(body), None
    except json.JSONDecodeError as error:
        return None, f"unparseable JSON: {error}"


def run_trace(args, out=None) -> int:
    """Dump reconstructed span trees: from a telemetry snapshot file, or
    from a live gateway's ``/trace`` endpoint (``--url``)."""
    out = out or sys.stdout
    if bool(args.telemetry) == bool(args.url):
        print("error: pass exactly one of --telemetry or --url", file=out)
        return 1
    if args.url:
        base = args.url.rstrip("/")
        source = f"{base}/trace"
        suffix = f"?trace_id={args.trace_id}" if args.trace_id else ""
        payload, error = _fetch_json(source + suffix)
        if error is not None:
            print(f"error: cannot read {source}: {error}", file=out)
            return 1
        spans = payload.get("spans", [])
    else:
        source = str(args.telemetry)
        try:
            payload = obs.load_telemetry(args.telemetry)
        except FileNotFoundError:
            print(f"error: no telemetry file at {args.telemetry}", file=out)
            return 1
        except (ValueError, json.JSONDecodeError) as error:
            print(f"error: cannot read {args.telemetry}: {error}", file=out)
            return 1
        spans = payload.get("spans", [])
    trees = obs.span_trees(spans, trace_id=args.trace_id)
    if args.name:

        def mentions(tree) -> bool:
            return args.name in tree["span"]["name"] or any(
                mentions(child) for child in tree["children"]
            )

        trees = [tree for tree in trees if mentions(tree)]
    if args.limit is not None:
        trees = trees[-args.limit:]
    if not trees:
        print("no matching spans recorded", file=out)
        return 0
    for tree in trees:
        print(f"trace {tree['span']['trace_id']}:", file=out)
        for line in obs.render_tree(tree, indent=1):
            print(line, file=out)
    print(
        f"{len(trees)} trace tree(s), {len(spans)} span(s) in {source}",
        file=out,
    )
    return 0


def run_slo(args, out=None) -> int:
    """Summarise a live gateway's SLO burn rates (``/slo`` endpoint)."""
    out = out or sys.stdout
    base = args.url.rstrip("/")
    payload, error = _fetch_json(base + "/slo")
    if error is not None:
        print(f"error: cannot read {base}/slo: {error}", file=out)
        return 1
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    objectives = payload.get("objectives", {})
    windows = payload.get("windows_seconds", [])
    print(
        f"objectives: availability {objectives.get('availability_target')}, "
        f"latency {objectives.get('latency_target')} within "
        f"{objectives.get('latency_threshold_seconds')}s",
        file=out,
    )
    routes = payload.get("routes", {})
    if not routes:
        print("no traffic recorded yet", file=out)
        return 0
    window_keys = [f"{float(w):g}" for w in windows]
    header = "route                objective     " + "".join(
        f"{'burn@' + key + 's':>14}" for key in window_keys
    )
    print(header, file=out)
    for route, route_objectives in sorted(routes.items()):
        for objective in ("availability", "latency"):
            entries = route_objectives.get(objective, {})
            cells = ""
            for key in window_keys:
                entry = entries.get(key, {})
                burn = entry.get("burn_rate", 0.0)
                total = entry.get("total", 0)
                cells += f"{burn:>12.2f}x " if total else f"{'—':>13} "
            print(f"{route:<20} {objective:<13} {cells}", file=out)
    worst = payload.get("worst_burn") or {}
    if worst.get("route"):
        print(
            f"worst: {worst['burn_rate']:.2f}x budget on {worst['route']} "
            f"({worst['objective']}, {worst['window']}s window)",
            file=out,
        )
    return 0


def run_bench_diff(args, out=None) -> int:
    """Compare two benchmark JSON files; non-zero exit on regression."""
    out = out or sys.stdout
    from . import benchdiff

    try:
        old = benchdiff.load_bench(args.old)
        new = benchdiff.load_bench(args.new)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read benchmark file: {error}", file=out)
        return 2
    report = benchdiff.diff_benchmarks(old, new, threshold=args.threshold)
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        print(f"bench-diff {args.old} -> {args.new}", file=out)
        for line in benchdiff.render_diff(report, verbose=args.verbose):
            print(line, file=out)
    return 1 if report["regressions"] else 0


_RUNNERS = {
    "generate": run_generate,
    "fit": run_fit,
    "evaluate": run_evaluate,
    "rank": run_rank,
    "query": run_query,
    "report": run_report,
    "visualize": run_visualize,
    "info": run_info,
    "stream-replay": run_stream_replay,
    "shard-fit": run_shard_fit,
    "shard-query": run_shard_query,
    "serve": run_serve,
    "doctor": run_doctor,
    "top": run_top,
    "trace": run_trace,
    "slo": run_slo,
    "bench-diff": run_bench_diff,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _RUNNERS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
