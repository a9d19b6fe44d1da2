"""E10 — BrokerSession warm-cache vs cold-cache request latency.

PR 1's engine removed re-evaluation *within* a request; the v2
:class:`~repro.broker.api.BrokerSession` removes it *across* requests:
engines are cached by (provider, base system, contract, rate card) —
digests of their serializations when E10 was measured, the values
themselves since E19 — so a repeated request skips the n*k per-cluster
precompute and answers every candidate from the result cache.

This bench measures a cold session serving a request for the first time
against a warm session re-serving it, verifies the acceptance criterion
(zero new per-(cluster, technology) term computations on the warm path,
bit-identical reports), and reports the throughput of a batch submitted
as jobs on the session's worker pool.

E18 checks that a warm request's cost does not grow with observed
telemetry history: key derivation reads memoized failover moments, so
the median warm recommend after 20 years stays within 2x of 1 year.
"""

from __future__ import annotations

import statistics
import time

from repro.broker.api import EngineCache
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.sla.contract import Contract


def observed_broker(years: float = 3.0, seed: int = 23) -> BrokerService:
    """A broker with synthetic telemetry over all three providers."""
    broker = BrokerService(all_providers())
    broker.observe_all(years=years, seed=seed)
    return broker


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _submit_all(session, requests):
    """Submit every request as a job, then collect the reports in order."""
    job_ids = [session.submit(request) for request in requests]
    return [session.result(job_id) for job_id in job_ids]


def test_warm_cache_latency_vs_cold(benchmark, emit):
    """Cold vs warm request latency through one session."""
    broker = observed_broker()
    request = three_tier_request(Contract.linear(98.0, 100.0))
    with broker.session() as session:
        cold_report, cold_seconds = _timed(lambda: session.recommend(request))
        terms_after_cold = session.engine_cache.cluster_term_computations()
        warm_report, warm_seconds = _timed(lambda: session.recommend(request))

        # Acceptance: the warm path computes zero new cluster terms and
        # reproduces the cold report bit-for-bit.
        assert (
            session.engine_cache.cluster_term_computations() == terms_after_cold
        )
        assert warm_report.describe() == cold_report.describe()

        benchmark(lambda: session.recommend(request))
    emit(
        "[E10] session request latency (3 providers, pruned search):\n"
        f"  cold (build engines): {cold_seconds * 1e3:8.2f} ms\n"
        f"  warm (cached engines): {warm_seconds * 1e3:8.2f} ms\n"
        f"  speedup: {cold_seconds / warm_seconds:5.1f}x; "
        f"{session.engine_cache.stats.describe()}"
    )


def test_batched_throughput_matches_sequential(emit):
    """Jobs over the worker pool: identical, and amortized."""
    broker = observed_broker()
    requests = [
        three_tier_request(Contract.linear(sla, penalty))
        for sla, penalty in [
            (98.0, 100.0), (98.0, 100.0), (99.0, 100.0), (98.0, 250.0),
            (98.0, 100.0), (99.0, 250.0), (98.0, 500.0), (98.0, 100.0),
        ]
    ]
    with broker.session(max_workers=4) as session:
        batched, batch_seconds = _timed(lambda: _submit_all(session, requests))
        batch_stats = session.engine_cache.stats
    with broker.session() as session:
        sequential, seq_seconds = _timed(
            lambda: tuple(session.recommend(request) for request in requests)
        )
    assert [report.describe() for report in batched] == [
        report.describe() for report in sequential
    ]
    emit(
        f"[E10] batch of {len(requests)} requests:\n"
        f"  sequential session: {seq_seconds * 1e3:8.2f} ms\n"
        f"  submit/result (4 workers): {batch_seconds * 1e3:8.2f} ms\n"
        f"  cache across batch: {batch_stats.describe()}"
    )


#: Warm recommends timed per history length in the flatness leg.
FLATNESS_ROUNDS = 60


def warm_latency_by_history(
    years: tuple[float, ...], rounds: int = FLATNESS_ROUNDS, seed: int = 7
) -> dict[float, float]:
    """Median warm-recommend seconds per observed-history length.

    One warm session per history length; the timed recommends
    interleave across sessions round by round, so host drift lands on
    every length alike.
    """
    request = three_tier_request(Contract.linear(98.0, 100.0))
    sessions = {}
    try:
        for length in years:
            session = observed_broker(years=length, seed=seed).session()
            sessions[length] = session
            session.recommend(request)
        samples: dict[float, list[float]] = {length: [] for length in years}
        for _ in range(rounds):
            for length, session in sessions.items():
                _, seconds = _timed(lambda: session.recommend(request))
                samples[length].append(seconds)
    finally:
        for session in sessions.values():
            session.close()
    return {length: statistics.median(times) for length, times in samples.items()}


def test_warm_latency_is_flat_in_history(emit):
    """E18: warm recommends cost the same after 1, 5 or 20 years."""
    medians = warm_latency_by_history((1.0, 5.0, 20.0))
    assert medians[20.0] <= 2.0 * medians[1.0]
    emit(
        "[E18] warm recommend median by observed history:\n"
        + "\n".join(
            f"  {length:4.0f} y: {seconds * 1e3:6.2f} ms"
            for length, seconds in medians.items()
        )
    )


def _smoke() -> int:
    """Fast CI guard: warm cache reuse + bit-identical batched reports,
    and warm latency flat in observed history (20 y within 2x of 1 y)."""
    broker = observed_broker(years=1.0, seed=7)
    request = three_tier_request(Contract.linear(98.0, 100.0))
    with broker.session() as session:
        cold, cold_seconds = _timed(lambda: session.recommend(request))
        terms = session.engine_cache.cluster_term_computations()
        warm, warm_seconds = _timed(lambda: session.recommend(request))
        assert session.engine_cache.cluster_term_computations() == terms
        assert warm.describe() == cold.describe()
        batched = _submit_all(session, [request] * 4)
        assert all(
            report.describe() == cold.describe() for report in batched
        )
        stats = session.engine_cache.stats
    print(
        f"[smoke] cold {cold_seconds * 1e3:.1f} ms -> warm "
        f"{warm_seconds * 1e3:.1f} ms; {stats.describe()}"
    )
    medians = warm_latency_by_history((1.0, 20.0))
    ratio = medians[20.0] / medians[1.0]
    print(
        f"[smoke] warm median over {FLATNESS_ROUNDS} recommends: "
        f"1 y {medians[1.0] * 1e3:.2f} ms, 20 y {medians[20.0] * 1e3:.2f} ms "
        f"({ratio:.2f}x)"
    )
    assert ratio <= 2.0, f"warm latency grows with history: {ratio:.2f}x"
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the fast correctness smoke instead of pytest-benchmark",
    )
    args = parser.parse_args()
    if not args.smoke:
        parser.error("run via pytest for full benchmarks, or pass --smoke")
    raise SystemExit(_smoke())
