"""CLI entry point: ``python -m repro`` / ``repro-broker``.

Subcommands
-----------
``case-study``
    Reproduce the paper's §III option table and Figure 10 summary.
``evaluate FILE``
    Evaluate Eq. 1-4 availability for a topology JSON file.
``simulate FILE``
    Monte Carlo-simulate a topology and compare with the analytic model.
``recommend``
    Run the brokered service over the built-in providers for a
    three-tier request with a given SLA and penalty.
``sweep``
    Sweep the penalty rate for the case study and show where the
    recommendation changes.
``scenario NAME``
    Optimize one of the named example scenarios.
``serve``
    Run the asyncio broker server (v2 envelopes over HTTP) with sharded
    telemetry ingestion, a ``/metrics`` endpoint, and optional
    protocol hardening (``--auth-token``, ``--rate-limit``,
    idempotency replay).
``conform``
    Run the machine-readable v2 protocol conformance suite against a
    live server (``--url``), emitting a JSON report.
``ingest FILE``
    Shard-ingest a JSONL telemetry trace locally, or POST it to a
    running server with ``--url``.
``trace [TRACE_ID]``
    List recent request traces (or render one trace's span tree) from a
    live ``serve --trace`` server via ``--url``, or from an exported
    span JSONL file via ``--file``.
``lint [PATHS]``
    Run the ``repro.analysis`` invariant linter (determinism, lock
    discipline, async hygiene, resource lifecycle, wire round-trip,
    registry parity) over source trees; nonzero exit on findings.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.broker.reports import render_option_table, render_summary
from repro.broker.request import STRATEGIES, three_tier_request

#: Mirrors ``repro.server.ingest.INGEST_BACKENDS`` — inlined so the CLI
#: only imports the server stack for the ``serve``/``ingest`` commands
#: (a drift test in tests/test_cli.py keeps the two in sync).
INGEST_BACKENDS = ("thread", "process")
from repro.optimizer.engine import ENGINE_BACKENDS, ENGINE_MODES
from repro.broker.service import BrokerService
from repro.cli.formatting import render_table
from repro.cloud.providers import all_providers
from repro.errors import ReproError
from repro.optimizer.brute_force import brute_force_optimize
from repro.optimizer.pruned import pruned_optimize
from repro.availability.model import evaluate_availability
from repro.simulation.validation import validate_against_model
from repro.sla.contract import Contract
from repro.topology.serialization import system_from_json
from repro.units import MINUTES_PER_YEAR
from repro.workloads.case_study import AS_IS_OPTION_ID, case_study_problem
from repro.workloads.scenarios import SCENARIOS, scenario


def _env_flag(name: str) -> bool:
    """Boolean environment default: unset/empty/0/false/no mean off."""
    return os.environ.get(name, "").strip().lower() not in (
        "", "0", "false", "no",
    )


def build_parser() -> argparse.ArgumentParser:
    """The complete argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-broker",
        description="Uptime-optimized cloud architecture as a brokered service",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "case-study", help="reproduce the paper's §III case study"
    )

    evaluate = commands.add_parser(
        "evaluate", help="evaluate availability of a topology JSON file"
    )
    evaluate.add_argument("file", type=Path, help="topology JSON path")

    simulate = commands.add_parser(
        "simulate", help="Monte Carlo-simulate a topology JSON file"
    )
    simulate.add_argument("file", type=Path, help="topology JSON path")
    simulate.add_argument(
        "--replications", type=int, default=50, help="number of runs"
    )
    simulate.add_argument(
        "--years", type=float, default=1.0, help="simulated years per run"
    )
    simulate.add_argument("--seed", type=int, default=None, help="RNG seed")

    recommend = commands.add_parser(
        "recommend", help="brokered recommendation across built-in providers"
    )
    recommend.add_argument(
        "--sla", type=float, default=98.0, help="uptime SLA percent"
    )
    recommend.add_argument(
        "--penalty", type=float, default=100.0, help="penalty $/hour"
    )
    recommend.add_argument(
        "--compute-nodes", type=int, default=3, help="active compute nodes"
    )
    recommend.add_argument(
        "--observe-years",
        type=float,
        default=3.0,
        help="synthetic telemetry horizon per provider",
    )
    recommend.add_argument(
        "--extended",
        action="store_true",
        help="include the extended (future-work) HA catalog",
    )
    recommend.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="pruned",
        help="search strategy for the k^n enumeration",
    )
    recommend.add_argument(
        "--engine",
        choices=ENGINE_MODES,
        default="incremental",
        help="candidate evaluation mode: cached per-cluster combination "
        "(default) or full-topology fallback",
    )
    recommend.add_argument(
        "--backend",
        choices=ENGINE_BACKENDS,
        default=None,
        help="evaluation backend for exhaustive sweeps: serial (default), "
        "process (true multi-core) or vector (numpy-vectorized combine; needs the [vector] extra, degrades to "
        "serial without it).  Applies to --strategy brute-force — pruned "
        "and branch-and-bound searches are inherently sequential.  "
        "Defaults honour $REPRO_BACKEND.",
    )
    recommend.add_argument("--seed", type=int, default=None, help="RNG seed")

    sweep = commands.add_parser(
        "sweep", help="sweep penalty rates over the case study"
    )
    sweep.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0],
        help="penalty rates ($/hour) to sweep",
    )

    run_scenario = commands.add_parser(
        "scenario", help="optimize one of the named example scenarios"
    )
    run_scenario.add_argument(
        "name", choices=sorted(SCENARIOS), help="scenario name"
    )

    advise = commands.add_parser(
        "advise", help="single-move upgrade advice from a deployed case-study option"
    )
    advise.add_argument(
        "--current",
        nargs=3,
        metavar=("COMPUTE", "STORAGE", "NETWORK"),
        default=["hypervisor-n+1", "raid-1", "dual-gateway"],
        help="deployed technology per layer ('none' for bare)",
    )
    advise.add_argument(
        "--migration-cost", type=float, default=0.0,
        help="one-off dollars per move",
    )
    advise.add_argument(
        "--amortization-months", type=int, default=12,
        help="months to amortize the migration cost over",
    )

    compliance = commands.add_parser(
        "compliance",
        help="settle simulated months against the case-study contract",
    )
    compliance.add_argument(
        "--option", type=int, default=3, choices=range(1, 9),
        help="case-study option id to settle",
    )
    compliance.add_argument(
        "--years", type=float, default=10.0, help="simulated years to settle"
    )
    compliance.add_argument("--seed", type=int, default=None, help="RNG seed")

    importance = commands.add_parser(
        "importance",
        help="rank a topology's clusters by availability importance",
    )
    importance.add_argument(
        "file", type=Path, nargs="?", default=None,
        help="topology JSON path (defaults to the case-study base system)",
    )

    commands.add_parser(
        "pareto", help="cost/uptime Pareto frontier of the case study"
    )

    batch = commands.add_parser(
        "batch",
        help="serve a JSON-lines file of request envelopes in one session",
    )
    batch.add_argument(
        "file", type=Path,
        help="JSONL path: one recommend-request envelope per line",
    )
    batch.add_argument(
        "--observe-years", type=float, default=3.0,
        help="synthetic telemetry horizon per provider",
    )
    batch.add_argument("--seed", type=int, default=None, help="RNG seed")
    batch.add_argument(
        "--max-workers", type=int, default=4,
        help="session worker-pool width for concurrent requests",
    )
    batch.add_argument(
        "--cache-capacity", type=int, default=16,
        help="engines retained by the cross-request cache (LRU)",
    )
    batch.add_argument(
        "--backend", choices=ENGINE_BACKENDS, default=None,
        help="default evaluation backend for envelopes that do not pin one",
    )
    batch.add_argument(
        "--output", type=Path, default=None,
        help="write report envelopes to this file instead of stdout",
    )

    serve = commands.add_parser(
        "serve",
        help="run the asyncio broker server (v2 envelopes over HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8348,
        help="TCP port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--workers", type=int,
        default=int(os.environ.get("REPRO_WORKERS", "0") or "0"),
        help="worker processes behind a hardened gateway (0 serves "
        "in-process — the default; N >= 1 spawns N workers, each "
        "owning a disjoint partition of the engine cache, with auth / "
        "rate limiting / idempotency replay running once at the "
        "gateway); defaults to $REPRO_WORKERS when set",
    )
    serve.add_argument(
        "--observe-years", type=float, default=3.0,
        help="synthetic telemetry horizon per provider before serving",
    )
    serve.add_argument("--seed", type=int, default=None, help="RNG seed")
    serve.add_argument(
        "--shards", type=int, default=4,
        help="telemetry ingestion shard workers",
    )
    serve.add_argument(
        "--ingest-backend", choices=INGEST_BACKENDS, default="thread",
        help="shard worker backend (process adds parse parallelism)",
    )
    serve.add_argument(
        "--merge-interval", type=float, default=0.5,
        help="seconds between telemetry snapshot merges",
    )
    serve.add_argument(
        "--max-workers", type=int, default=4,
        help="session worker-pool width for concurrent requests",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=16,
        help="engines retained by the cross-request cache (LRU)",
    )
    serve.add_argument(
        "--backend", choices=ENGINE_BACKENDS, default=None,
        help="default evaluation backend for requests that do not pin one",
    )
    serve.add_argument(
        "--finished-job-ttl", type=float, default=3600.0,
        help="seconds before finished (even never-retrieved) jobs are "
        "evicted from the session job table; 0 disables age-based "
        "eviction (the retrieved-jobs count cap still applies)",
    )
    serve.add_argument(
        "--trace", action="store_true",
        default=_env_flag("REPRO_TRACE"),
        help="record per-request span traces (GET /v2/traces, "
        "X-Repro-Trace-Id response headers, span-duration histograms "
        "in /metrics); defaults on when $REPRO_TRACE is set",
    )
    serve.add_argument(
        "--trace-capacity", type=int, default=256,
        help="recent traces retained by the in-memory store (ring "
        "buffer; oldest evicted beyond this)",
    )
    serve.add_argument(
        "--slow-request-threshold", type=float, default=None,
        help="log a structured warning for requests slower than this "
        "many seconds (implies --trace)",
    )
    serve.add_argument(
        "--profile-requests", action="store_true",
        help="run cProfile around each traced recommend and log the "
        "hottest functions (implies --trace; heavy — debugging only)",
    )
    serve.add_argument(
        "--auth-token",
        default=os.environ.get("REPRO_AUTH_TOKEN") or None,
        help="require 'Authorization: Bearer <token>' on every request "
        "(401/403 ErrorEnvelopes otherwise; /healthz and /metrics stay "
        "open); defaults to $REPRO_AUTH_TOKEN when set",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None,
        help="per-client token-bucket rate limit in requests/second "
        "(over-limit requests get 429 + Retry-After; off by default)",
    )
    serve.add_argument(
        "--rate-limit-burst", type=int, default=None,
        help="token-bucket burst capacity (default: max(1, rate))",
    )
    serve.add_argument(
        "--idempotency-capacity", type=int, default=1024,
        help="responses retained by the per-principal idempotency "
        "replay table (LRU)",
    )

    conform = commands.add_parser(
        "conform",
        help="run the v2 protocol conformance suite against a live server",
    )
    conform.add_argument(
        "--url", required=True,
        help="server base URL (e.g. http://127.0.0.1:8348)",
    )
    conform.add_argument(
        "--auth-token",
        default=os.environ.get("REPRO_AUTH_TOKEN") or None,
        help="bearer token for servers running with auth; defaults to "
        "$REPRO_AUTH_TOKEN when set",
    )
    conform.add_argument(
        "--json", type=Path, default=None, dest="json_path",
        help="also write the machine-readable JSON report to this path",
    )
    conform.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request timeout and async-job polling deadline",
    )

    ingest = commands.add_parser(
        "ingest",
        help="shard-ingest a JSONL telemetry trace (local or via --url)",
    )
    ingest.add_argument(
        "file", type=Path,
        help="JSONL path: one telemetry record per line "
        "(exposure/failure/repair/failover)",
    )
    ingest.add_argument(
        "--shards", type=int, default=4, help="shard workers (local mode)"
    )
    ingest.add_argument(
        "--backend", choices=INGEST_BACKENDS, default="thread",
        help="shard worker backend (local mode)",
    )
    ingest.add_argument(
        "--url", default=None,
        help="POST the trace to a running `repro serve` instead "
        "(e.g. http://127.0.0.1:8348)",
    )

    trace = commands.add_parser(
        "trace",
        help="inspect request traces from a serve --trace server or an "
        "exported span JSONL file",
    )
    trace.add_argument(
        "trace_id", nargs="?", default=None,
        help="render this trace's span tree (omit to list traces)",
    )
    trace.add_argument(
        "--url", default=None,
        help="a running `repro serve --trace` server "
        "(e.g. http://127.0.0.1:8348)",
    )
    trace.add_argument(
        "--file", type=Path, default=None,
        help="read spans from an exported JSONL file instead of a server",
    )
    trace.add_argument(
        "--min-duration", type=float, default=0.0,
        help="only list traces whose root span took at least this many "
        "seconds",
    )
    trace.add_argument(
        "--limit", type=int, default=50,
        help="maximum traces to list",
    )

    lint = commands.add_parser(
        "lint",
        help="check source trees against the repo's invariant rules "
        "(REP001-REP008); exits 1 on findings",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--format", dest="output_format", choices=("text", "json"),
        default="text", help="report format",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and their scopes, then exit",
    )

    return parser


def _cmd_case_study() -> int:
    from repro.optimizer.engine import EvaluationEngine

    problem = case_study_problem()
    with EvaluationEngine(problem) as engine:
        result = brute_force_optimize(problem, engine=engine)
        print(render_option_table(result, title="Case study (Figures 3-9):"))
        print()
        print(render_summary(result, result.option(AS_IS_OPTION_ID)))
        print()
        pruned = pruned_optimize(problem, engine=engine)
        skipped = [f"#{i}" for i in range(1, 9) if not any(
            option.option_id == i for option in pruned.options
        )]
        print(
            f"Pruned search: {pruned.evaluations}/{pruned.space_size} "
            f"evaluated, clipped {', '.join(skipped) or 'none'} (§III-C)"
        )
        print(f"Evaluation engine: {engine.stats.describe()}")
    return 0


def _cmd_evaluate(path: Path) -> int:
    system = system_from_json(path.read_text())
    print(evaluate_availability(system).describe())
    return 0


def _cmd_simulate(path: Path, replications: int, years: float, seed: int | None) -> int:
    system = system_from_json(path.read_text())
    report = validate_against_model(
        system,
        replications=replications,
        horizon_minutes=years * MINUTES_PER_YEAR,
        seed=seed,
    )
    print(report.describe())
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    broker = BrokerService(all_providers())
    print(f"Observing providers ({args.observe_years:g} synthetic years each)...")
    events = broker.observe_all(years=args.observe_years, seed=args.seed)
    print(f"  ingested {events} telemetry events")
    request = three_tier_request(
        Contract.linear(args.sla, args.penalty),
        compute_nodes=args.compute_nodes,
        extended_catalog=args.extended,
        strategy=args.strategy,
        engine=args.engine,
        backend=args.backend,
    )
    with broker.session() as session:
        report = session.recommend(request)
    print(report.describe())
    for recommendation in report.recommendations:
        if recommendation.engine_stats is not None:
            print(
                f"  [{recommendation.provider_name}] engine: "
                f"{recommendation.engine_stats.describe()}"
            )
    print()
    best = report.best
    print(render_option_table(
        best.result, title=f"Option table on {best.provider_name}:"
    ))
    return 0


def _cmd_sweep(rates: list[float]) -> int:
    rows = []
    for rate in rates:
        problem = case_study_problem()
        problem = type(problem)(
            base_system=problem.base_system,
            registry=problem.registry,
            contract=Contract.linear(98.0, rate),
            labor_rate=problem.labor_rate,
        )
        result = brute_force_optimize(problem)
        best = result.best
        rows.append(
            (
                f"${rate:,.0f}",
                best.label,
                f"{best.tco.uptime_probability * 100:.4f}%",
                f"${best.tco.total:,.2f}",
            )
        )
    print("Penalty-rate sweep over the case study (SLA fixed at 98%):")
    print(render_table(("S_P/hour", "recommended", "U_s", "TCO/mo"), rows))
    return 0


def _cmd_scenario(name: str) -> int:
    entry = scenario(name)
    print(f"Scenario {entry.name!r}: {entry.summary}")
    result = pruned_optimize(entry.problem)
    print(render_option_table(result, title="Evaluated options:"))
    print()
    print(f"recommended: {result.best.label} "
          f"(TCO ${result.best.tco.total:,.2f}/month)")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.optimizer.advisor import advise_upgrades

    advice = advise_upgrades(
        case_study_problem(),
        tuple(args.current),
        migration_cost=args.migration_cost,
        amortization_months=args.amortization_months,
    )
    print(advice.describe())
    return 0


def _cmd_compliance(args: argparse.Namespace) -> int:
    from repro.sla.measurement import measure_compliance
    from repro.workloads.case_study import case_study_contract

    result = brute_force_optimize(case_study_problem())
    option = result.option(args.option)
    report = measure_compliance(
        option.system, case_study_contract(), years=args.years, seed=args.seed
    )
    print(f"Settling {option.label}:")
    print(report.describe())
    return 0


def _cmd_importance(path: Path | None) -> int:
    from repro.availability.importance import importance_analysis
    from repro.workloads.case_study import case_study_base_system

    if path is None:
        system = case_study_base_system()
    else:
        system = system_from_json(path.read_text())
    report = importance_analysis(system)
    print(report.describe())
    print(
        f"priority: protect {report.most_critical().name!r} first "
        f"(up to {report.most_critical().improvement_potential * 100:.3f}% "
        "uptime recoverable)"
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.broker.envelope import RecommendEnvelope
    from repro.errors import ValidationError

    lines = [
        line for line in args.file.read_text().splitlines() if line.strip()
    ]
    if not lines:
        raise ValidationError(f"batch file {args.file} contains no envelopes")
    envelopes = [RecommendEnvelope.from_json(line) for line in lines]

    broker = BrokerService(all_providers())
    print(
        f"Observing providers ({args.observe_years:g} synthetic years each)...",
        file=sys.stderr,
    )
    broker.observe_all(years=args.observe_years, seed=args.seed)
    with broker.session(
        cache_capacity=args.cache_capacity,
        max_workers=args.max_workers,
        backend=args.backend,
    ) as session:
        job_ids = [session.submit(envelope) for envelope in envelopes]
        reports = [session.result_envelope(job_id) for job_id in job_ids]
        stats = session.engine_cache.stats
    payload = "\n".join(report.to_json() for report in reports)
    if args.output is not None:
        args.output.write_text(payload + "\n")
    else:
        print(payload)
    print(f"[batch] {len(reports)} report(s); {stats.describe()}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server.transport import BrokerServer

    # --slow-request-threshold and --profile-requests are tracing
    # features; asking for either turns tracing on.
    trace = bool(
        args.trace
        or args.slow_request_threshold is not None
        or args.profile_requests
    )
    if trace:
        from repro.obs.logging import configure_json_logging

        configure_json_logging("repro.server")
    if args.workers < 0:
        print(f"error: --workers must be >= 0, got {args.workers}",
              file=sys.stderr)
        return 2
    broker = BrokerService(all_providers())
    print(
        f"Observing providers ({args.observe_years:g} synthetic years each)...",
        file=sys.stderr,
    )
    events = broker.observe_all(years=args.observe_years, seed=args.seed)
    print(f"  ingested {events} telemetry events", file=sys.stderr)
    if args.workers > 0:
        from repro.server.gateway import GatewayServer

        server_class = GatewayServer
        extra = {"workers": args.workers}
    else:
        server_class = BrokerServer
        extra = {}
    server = server_class(
        broker,
        **extra,
        host=args.host,
        port=args.port,
        shards=args.shards,
        ingest_backend=args.ingest_backend,
        merge_interval=args.merge_interval,
        max_workers=args.max_workers,
        cache_capacity=args.cache_capacity,
        eval_backend=args.backend,
        finished_job_ttl=args.finished_job_ttl or None,
        trace=trace,
        trace_capacity=args.trace_capacity,
        slow_request_threshold=args.slow_request_threshold,
        profile_requests=args.profile_requests,
        auth_token=args.auth_token,
        rate_limit=args.rate_limit,
        rate_limit_burst=args.rate_limit_burst,
        idempotency_capacity=args.idempotency_capacity,
    )

    hardening = []
    if args.auth_token is not None:
        hardening.append("auth on")
    if args.rate_limit is not None:
        hardening.append(f"rate limit {args.rate_limit:g}/s")

    mode = (
        f"gateway over {args.workers} worker process(es)"
        if args.workers > 0
        else "in-process"
    )

    async def run() -> None:
        try:
            await server.start()
            print(
                f"serving v2 envelopes on http://{server.host}:{server.port} "
                f"({mode}, {args.shards} ingest shards, "
                f"{args.max_workers} pool workers"
                f"{', tracing on' if trace else ''}"
                f"{''.join(', ' + item for item in hardening)}); "
                "Ctrl-C to stop",
                file=sys.stderr,
            )
            await server.serve_forever()
        finally:
            # Also runs when start() itself fails (e.g. port in use), so
            # the session and ingestion workers never outlive the bind.
            await asyncio.shield(server.stop())

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot serve on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_conform(args: argparse.Namespace) -> int:
    from repro.conformance import run_conformance

    report = run_conformance(
        args.url, auth_token=args.auth_token, timeout=args.timeout
    )
    print(report.to_text())
    if args.json_path is not None:
        args.json_path.write_text(report.to_json(indent=2) + "\n")
        print(f"JSON report written to {args.json_path}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.broker.knowledge_base import KnowledgeBase
    from repro.broker.telemetry import TelemetryStore
    from repro.server.client import ServerClient
    from repro.server.ingest import ShardedIngestor

    text = args.file.read_text()
    if args.url is not None:
        client = ServerClient.from_url(args.url)
        ack = client.ingest_jsonl(text)
        flushed = client.flush()
        print(
            f"routed {ack['routed']} record(s) across {ack['shards']} "
            f"shard(s) on {client.url}; merged {flushed['merged']}"
        )
        return 0
    store = TelemetryStore()
    with ShardedIngestor(
        store, num_shards=args.shards, backend=args.backend
    ) as ingestor:
        routed = ingestor.submit_jsonl(text)
        ingestor.flush()
        per_shard = ", ".join(
            f"shard {index}: {stats.ingested}"
            for index, stats in enumerate(ingestor.shard_stats())
        )
        rejected = sum(stats.rejected for stats in ingestor.shard_stats())
    print(
        f"ingested {routed - rejected}/{routed} record(s) over "
        f"{args.shards} {args.backend} shard(s) ({per_shard}; "
        f"{rejected} rejected)"
    )
    print(KnowledgeBase(store, min_failure_samples=1).describe())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.obs.trace import render_trace, spans_from_jsonl, summarize_traces

    if (args.url is None) == (args.file is None):
        raise ValidationError(
            "repro trace needs exactly one source: --url for a live "
            "serve --trace server, or --file for an exported span JSONL"
        )

    if args.file is not None:
        spans = spans_from_jsonl(args.file.read_text())
        if args.trace_id is not None:
            selected = [s for s in spans if s.trace_id == args.trace_id]
            if not selected:
                raise ValidationError(
                    f"no spans for trace {args.trace_id!r} in {args.file}"
                )
            print(render_trace(selected))
            return 0
        summaries = [
            summary
            for summary in summarize_traces(spans)
            if summary["duration_seconds"] >= args.min_duration
        ][: args.limit]
    else:
        from repro.server.client import ServerClient

        client = ServerClient.from_url(args.url)
        if args.trace_id is not None:
            print(render_trace(client.trace_spans(args.trace_id)))
            return 0
        summaries = client.traces(
            min_duration=args.min_duration, limit=args.limit
        )["traces"]

    if not summaries:
        print("(no traces)")
        return 0
    rows = [
        (
            summary["trace_id"],
            summary["name"],
            f"{summary['duration_seconds'] * 1000.0:.2f}ms",
            str(summary["spans"]),
        )
        for summary in summaries
    ]
    print(render_table(("trace id", "root", "duration", "spans"), rows))
    return 0


def _cmd_pareto() -> int:
    from repro.optimizer.pareto import pareto_frontier

    result = brute_force_optimize(case_study_problem())
    print("Cost/uptime Pareto frontier of the case study:")
    for option in pareto_frontier(result.options):
        print(
            f"  {option.label:<36} C_HA ${option.tco.ha_cost:>9,.2f}/mo  "
            f"U_s {option.tco.uptime_probability * 100:.4f}%"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import RULE_DESCRIPTIONS, LintConfig, run_lint

    if args.list_rules:
        for rule_id, (title, paths) in sorted(RULE_DESCRIPTIONS.items()):
            scope = ", ".join(paths) if paths else "all files"
            print(f"{rule_id}  {title}  [{scope}]")
        return 0
    select = None
    if args.rules:
        select = tuple(
            part.strip() for part in args.rules.split(",") if part.strip()
        )
    report = run_lint(args.paths, config=LintConfig(select=select))
    if args.output_format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "case-study":
            return _cmd_case_study()
        if args.command == "evaluate":
            return _cmd_evaluate(args.file)
        if args.command == "simulate":
            return _cmd_simulate(args.file, args.replications, args.years, args.seed)
        if args.command == "recommend":
            return _cmd_recommend(args)
        if args.command == "sweep":
            return _cmd_sweep(args.rates)
        if args.command == "scenario":
            return _cmd_scenario(args.name)
        if args.command == "advise":
            return _cmd_advise(args)
        if args.command == "compliance":
            return _cmd_compliance(args)
        if args.command == "importance":
            return _cmd_importance(args.file)
        if args.command == "pareto":
            return _cmd_pareto()
        if args.command == "batch":
            return _cmd_batch(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "conform":
            return _cmd_conform(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "lint":
            return _cmd_lint(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
