"""Out-of-process benchmark for the broker service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-hits --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --from-run perfbench/runs/warm-hits-s1-t0
    python3 perfbench/run.py --compare BASE_RUNS [--against perfbench/runs]
    python3 perfbench/run.py --self-check

``--trace 0`` spawns ``repro serve`` and measures it from this process,
which is the only load generator; ``--trace 1`` hosts the layers in this
process and times calls into each (see ``layers.py``).  Each run captures
its mix as ``perfbench/runs/<workload>-s<seed>-t<trace>/mix.json``, writes
``result.json`` beside it, prints every metric by name and unit, and ends
with one JSON line.  A response that differs from the in-process twin
makes the run exit 1.

Times of the untraced run are scaled to a reference host speed, measured
by timing a fixed loop right before and after each timed phase (see
``hostspeed.py``); ``result.json`` keeps the unscaled figures too.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

#: Servers spawned per run: setup_s is the median over them, and
#: ingest_records_per_s the trimmed mean of one burst on each.
SETUPS = 5

#: Each run alternates open and closed loop this many times, so both
#: loops sample the same stretches of the host's speed, which swings by
#: a third over seconds.  Each phase's times are scaled by the host speed
#: probed right before and after it.  Latency percentiles pool the scaled
#: open-loop samples of every round but the one with the slowest tail;
#: throughput is the mean round without the fastest and the slowest.
ROUNDS = 10


def _import_repro() -> None:
    """Make ``src/`` importable, or stop: there is nothing to measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no broker sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value."""
    kept = sorted(values)[1:-1] or list(values)
    return sum(kept) / len(kept)


def _window(schedule, number: int, seconds: float) -> list:
    """Round ``number`` of an open-loop schedule, rebased to start at 0."""
    start = number * seconds
    return [
        (offset - start, op) for offset, op in schedule
        if start <= offset < start + seconds
    ]


def run_untraced(mix, setups: int = SETUPS):
    """Spawn the server, drive it from here, verify every response."""
    import gate
    import hostspeed
    import loadgen as lg
    from report import Outcome, metric, percentile
    from workloads import BURST_BODIES

    workload = mix.workload
    probe = lg.recommend_op(mix.warmup[0], lg.PROBE)
    setups_done, probes, bursts, merged_samples = [], [], [], 0
    failures: dict[int, str] = {}
    speeds = []
    twin = gate.Twin(workload, mix.seed)
    try:
        for attempt in range(setups):
            speeds.append(hostspeed.probe())
            server = lg.ServerProcess(ROOT, workload, mix.seed)
            try:
                client = server.client()
                record = lg.send(client, probe)
                speeds.append(hostspeed.probe())
                # Every spawned server also takes one ingest burst, so
                # the ingest figure spans several processes and moments
                # rather than one.
                burst, ingest_rate = lg.run_ingest_burst(
                    client, mix, BURST_BODIES, 0
                )
                speeds.append(hostspeed.probe())
            except BaseException:
                server.stop()
                raise
            setups_done.append((
                record.done - server.spawned,
                hostspeed.factor(*speeds[-3:-1]),
            ))
            probes.append((record, twin.mismatch(record)))
            bursts.append((ingest_rate, hostspeed.factor(*speeds[-2:])))
            merged_samples += sum(r.op.lines for r in burst)
            if attempt < setups - 1:
                server.stop()
                failures.update(gate.check_lane(burst)[0])
    finally:
        twin.close()

    schedule = lg.open_loop_schedule(mix)
    closed_ops = [
        lg.recommend_op(mix.bodies[index], index)
        for index in range(mix.open_requests, len(mix.bodies))
    ]
    width = lg.nproc()
    rounds, exhausted = [], False
    log = list(burst)
    try:
        log += lg.send_all(
            client,
            [lg.recommend_op(body, lg.WARMUP) for body in mix.warmup],
        )
        speeds.append(hostspeed.probe())
        for number in range(ROUNDS):
            window = mix.open_seconds / ROUNDS
            opened = lg.run_open_loop(
                client, width, _window(schedule, number, window)
            )
            speeds.append(hostspeed.probe())
            closed, deadline, ran_out = lg.run_closed_loop(
                client, width, closed_ops, mix.closed_seconds / ROUNDS
            )
            speeds.append(hostspeed.probe())
            closed_ops = closed_ops[len(closed):]
            exhausted |= ran_out
            rounds.append((
                opened, closed, deadline,
                hostspeed.factor(*speeds[-3:-1]),
                hostspeed.factor(*speeds[-2:]),
            ))
            log += opened + closed
        log += lg.send_all(
            client, [lg.recommend_op(body, lg.FINAL) for body in mix.final]
        )
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    verified, torn = gate.verify(workload, mix.seed, log)
    failures.update(verified)
    failures.update({id(r): why for r, why in probes if why})

    raw_setup = [seconds for seconds, _ in setups_done]
    setup_times = [seconds * scale for seconds, scale in setups_done]
    raw_ingest = [rate for rate, _ in bursts]
    ingest_rates = [rate / scale for rate, scale in bursts]
    latencies, throughput, raw_throughput, lags = [], [], [], []
    raw_p50, raw_p95, scales = [], [], []
    completed_samples = 0
    for opened, closed, deadline, open_scale, closed_scale in rounds:
        raw = [
            r.latency * 1e3 for r in opened
            if r.op.kind == "recommend" and id(r) not in failures
        ] or [0.0]
        raw_p50.append(percentile(raw, 0.50))
        raw_p95.append(percentile(raw, 0.95))
        scales.append((open_scale, closed_scale))
        latencies.append([value * open_scale for value in raw])
        completed = sum(
            1 for r in closed if r.done <= deadline and id(r) not in failures
        )
        raw_throughput.append(completed / (mix.closed_seconds / ROUNDS))
        throughput.append(raw_throughput[-1] / closed_scale)
        completed_samples += completed
        lags += [r.lag * 1e3 for r in opened]
    # One host stall lands in one round and would own the pooled tail, so
    # the round with the slowest tail is left out of both percentiles.
    latencies.remove(max(latencies, key=lambda round_: percentile(round_, 0.95)))
    latencies = [value for round_ in latencies for value in round_]
    metrics = {
        "latency_p50_ms": metric(percentile(latencies, 0.50), "ms"),
        "throughput_rps": metric(_trimmed_mean(throughput), "1/s"),
        "ingest_records_per_s": metric(_trimmed_mean(ingest_rates), "1/s"),
        "server_rss_mb": metric(rss, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }
    samples = {
        "latency_p50_ms": len(latencies),
        "throughput_rps": completed_samples,
        "ingest_records_per_s": merged_samples,
        "setup_s": len(setup_times),
    }
    attempted = len(log) + len(probes) + (setups - 1) * len(burst)
    lag_p95 = percentile(lags, 0.95)
    details = {
        # Printed and kept, but not a bounded metric: host stall periods
        # of minutes move it by half from run to run.
        "latency_p95_ms": percentile(latencies, 0.95),
        "error_ratio": len(failures) / attempted,
        "torn_reads": torn,
        "loadgen_lag_p95_ms": lag_p95,
        # The generator is behind when its sends slip by more than one
        # inter-arrival gap: the offered rate was not the one measured.
        "valid": lag_p95 <= 1e3 / workload.rate and not exhausted,
        "closed_pool_exhausted": exhausted,
        "rounds": ROUNDS,
        "setup_s_each": setup_times,
        "throughput_rps_each": throughput,
        "ingest_records_per_s_each": ingest_rates,
        # Unscaled figures per setup, burst or round, each round's
        # (open, closed) scale, and every probe of the reference loop.
        "raw_setup_s_each": raw_setup,
        "raw_throughput_rps_each": raw_throughput,
        "raw_ingest_records_per_s_each": raw_ingest,
        "raw_latency_p50_ms_each": raw_p50,
        "raw_latency_p95_ms_each": raw_p95,
        "round_scales": scales,
        "host_speed_s": speeds,
        "connections": width,
    }
    return Outcome(metrics, samples, details, attempted, failures, log)


def run(args) -> int:
    import report
    import workloads

    if args.from_run:
        mix = workloads.load_mix(Path(args.from_run) / "mix.json")
    else:
        mix = workloads.build_mix(args.workload, args.seed, args.seconds)
    trace = args.trace
    out = RUNS / f"{mix.workload.name}-s{mix.seed}-t{trace}"
    out.mkdir(parents=True, exist_ok=True)
    workloads.save_mix(mix, out / "mix.json")

    if trace:
        import layers

        outcome = layers.run_traced(mix)
    else:
        outcome = run_untraced(mix)
    metrics, samples, details, attempted, failures, _ = outcome

    correct = not failures
    result = {
        "workload": mix.workload.name,
        "seed": mix.seed,
        "seconds": mix.seconds,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(set(failures.values()))[:20],
        "metrics": metrics,
        "samples": samples,
        "details": details,
        "provenance": report.provenance(ROOT),
    }
    report.write_result(out / "result.json", result)
    print(
        f"{mix.workload.name} seed={mix.seed} seconds={mix.seconds:g} "
        f"trace={trace}: {attempted} ops, {len(failures)} failed"
    )
    report.print_metrics(metrics, samples)
    for name, value in details.items():
        print(f"  {name:<28} {value}")
    if not trace and not details["valid"]:
        print("  INVALID: the generator fell behind; --compare leaves this run out")
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")
    print(f"  wrote {out.relative_to(ROOT) / 'result.json'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("warm-hits", "cold-search", "ingest-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--from-run", metavar="DIR",
        help="replay the mix captured in DIR/mix.json",
    )
    parser.add_argument(
        "--compare", metavar="BASE",
        help="compare end-to-end results under BASE with --against",
    )
    parser.add_argument("--against", metavar="DIR", default=str(RUNS))
    parser.add_argument(
        "--self-check", action="store_true",
        help="run tiny workloads and show the gate catches corrupt bodies",
    )
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so every server it spawned stops.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Started in the background, this process may have inherited SIGINT
    # ignored, and so would every `repro serve` it spawns, which stops
    # gracefully only on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    import procs

    procs.adopt_orphans()
    try:
        return _dispatch(parser, args)
    finally:
        procs.stop_children()


def _dispatch(parser, args) -> int:
    _import_repro()
    if args.compare:
        import report

        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        return report.compare(benchmark, Path(args.compare), Path(args.against))
    if args.self_check:
        import selfcheck

        return selfcheck.main(run_untraced)
    if not args.workload and not args.from_run:
        parser.error("--workload, --from-run, --compare or --self-check is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
