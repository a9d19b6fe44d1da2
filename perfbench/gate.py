"""The correctness gate: every response against an in-process twin.

The twin is a :class:`BrokerSession` over a broker observed with the
server's seed and history.  It ingests the same telemetry bodies through
the same sharded pipeline (same shard count, so merges group float
additions the same way) and flushes where the server was told to flush,
so its answers are the server's answers bit for bit, ``engine_stats``
aside (those audit warm versus cold serving, not the recommendation).

A recommend sent while flushes were in flight may see the store before
or after them; it passes if it matches the twin at any epoch between the
flushes completed before it was sent and the flushes sent before it
completed.  Wrong bytes, error envelopes, timeouts, and ingest or flush
acknowledgements that disagree with what was sent all count as failures.

One exception, counted apart as a torn read: a report for a recommend
that overlapped a flush and matches no single epoch.
``KnowledgeBase.estimate`` reads the store several times, and a flush's
``TelemetryStore.adopt`` can swap the store between those reads, so such
a report mixes two epochs.  That is a server race, not load-generator
noise.  A torn report must still be one the optimizer could have written
(:func:`torn_failure`), and at most :data:`TORN_LIMIT` of them pass per
server.  A stale engine key or a missed invalidation is not hidden by
this: it shows on the recommends with no flush in flight, which are
always checked exactly.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from repro.broker.envelope import RecommendEnvelope
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.server.ingest import ShardedIngestor

from loadgen import OpRecord

#: ``repro serve`` runs this many ingest shards by default.
SERVE_SHARDS = 4

DIFFERS = "report differs from the twin"

#: Torn reads that pass per server; any beyond this count as failures.
TORN_LIMIT = 3

#: Option fields that follow from the option id alone, not the estimates.
_OPTION_FIELDS = ("choice_names", "clustered_components", "ha_cost")


def _strip(report: dict) -> dict:
    """A report without request id or per-request engine audit."""
    report = dict(report)
    report.pop("request_id", None)
    report["providers"] = [
        {k: v for k, v in provider.items() if k != "engine_stats"}
        for provider in report.get("providers", [])
    ]
    return report


class Twin:
    """An in-process broker replaying one server's telemetry history."""

    def __init__(self, workload, seed: int) -> None:
        broker = BrokerService(all_providers())
        broker.observe_all(years=workload.observe_years, seed=seed)
        self.ingestor = ShardedIngestor(broker.telemetry, num_shards=SERVE_SHARDS)
        self.session = broker.session()
        self.epoch = 0
        self._expected: dict[tuple[int, str], dict] = {}

    def close(self) -> None:
        self.session.close()
        self.ingestor.close()

    def expected(self, body: bytes) -> dict:
        """The twin's stripped report for a request at the current epoch."""
        request = json.loads(body)
        request["request_id"] = None
        key = (self.epoch, json.dumps(request, sort_keys=True))
        if key not in self._expected:
            envelope = RecommendEnvelope.from_json(body.decode())
            report = self.session.recommend_envelope(envelope)
            self._expected[key] = _strip(report.to_dict())
        return self._expected[key]

    def mismatch(self, record: OpRecord) -> str | None:
        """Why a recommend response is wrong at this epoch, or None."""
        if record.status != 200:
            return f"status {record.status}: {record.text[:160]}"
        try:
            got = json.loads(record.text)
        except json.JSONDecodeError as exc:
            return f"unparseable body: {exc}"
        sent_id = json.loads(record.op.body)["request_id"]
        if not isinstance(got, dict) or got.get("request_id") != sent_id:
            return f"request_id mismatch (sent {sent_id!r})"
        if _strip(got) != self.expected(record.op.body):
            return DIFFERS
        return None

    def reports(self, body: bytes, low: int, high: int) -> list[dict]:
        """The reports already expected for ``body`` at epochs low..high."""
        request = json.loads(body)
        request["request_id"] = None
        key = json.dumps(request, sort_keys=True)
        return [self._expected[(epoch, key)] for epoch in range(low, high + 1)]

    def apply(self, bodies: Iterable[bytes]) -> int:
        """Ingest bodies and flush; returns the records merged."""
        for body in bodies:
            self.ingestor.submit_jsonl(body.decode())
        merged = self.ingestor.flush()
        self.epoch += 1
        return merged


def _ack_failure(record: OpRecord, lines_since_flush: int) -> str | None:
    """Check an ingest or flush acknowledgement against what was sent."""
    expected_status = 202 if record.op.kind == "ingest" else 200
    if record.status != expected_status:
        return f"{record.op.kind} status {record.status}: {record.text[:160]}"
    try:
        ack = json.loads(record.text)
    except json.JSONDecodeError as exc:
        return f"unparseable {record.op.kind} ack: {exc}"
    if record.op.kind == "ingest" and ack.get("routed") != record.op.lines:
        return f"ingest routed {ack.get('routed')!r} of {record.op.lines} records"
    if record.op.kind == "flush" and ack.get("merged") != lines_since_flush:
        return f"flush merged {ack.get('merged')!r} of {lines_since_flush} records"
    return None


def check_lane(records: list[OpRecord]):
    """Check every ingest and flush acknowledgement of one server.

    Ingest bodies and flushes must come from a single in-order sender,
    which is how this benchmark always sends them.  Returns the
    failures, the flush records, and per flush the bodies it merged and
    their record count.
    """
    failures: dict[int, str] = {}
    lane = sorted(
        (r for r in records if r.op.kind in ("ingest", "flush")),
        key=lambda r: r.sent,
    )
    flushes = [r for r in lane if r.op.kind == "flush"]
    pending: list[bytes] = []
    epochs: list[tuple[list[bytes], int]] = []
    lines = 0
    for record in lane:
        reason = _ack_failure(record, lines)
        if reason:
            failures[id(record)] = reason
        if record.op.kind == "ingest":
            pending.append(record.op.body)
            lines += record.op.lines
        else:
            epochs.append((pending, lines))
            pending, lines = [], 0
    return failures, flushes, epochs


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def torn_failure(record: OpRecord, epochs: list[dict]) -> str | None:
    """Why a report that matches no epoch is not a torn read, or None.

    ``epochs`` are the twin's reports at the epochs the request may have
    seen.  Everything the estimates do not decide must match one of them:
    the request, providers, strategies and search spaces, and each chosen
    option's choices and HA cost.  The numbers the estimates do decide
    must agree with each other: the penalty with the uptime under the
    request's contract, the TCO with HA cost plus penalty, and the total
    with the TCO plus the provider's base cost.
    """
    try:
        return _torn_failure(record, epochs)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed torn report: {type(exc).__name__}: {exc}"


def _torn_failure(record: OpRecord, epochs: list[dict]) -> str | None:
    got = _strip(json.loads(record.text))
    contract = RecommendEnvelope.from_json(record.op.body.decode()).request.contract

    def shape(report: dict) -> tuple:
        return (
            report.get("kind"), report.get("request_name"),
            [
                (p.get("provider_name"), p.get("strategy"), p.get("space_size"),
                 sorted(p), sorted(p.get("best") or {}),
                 sorted(p.get("min_penalty") or {}))
                for p in report.get("providers", [])
            ],
        )

    if all(shape(got) != shape(epoch) for epoch in epochs):
        return "torn report has another shape than every epoch"
    for number, provider in enumerate(got["providers"]):
        seen = [epoch["providers"][number] for epoch in epochs]
        bases = {
            option["total_with_base"] - option["tco_total"]
            for report in seen for option in (report["best"], report["min_penalty"])
            if option
        }
        for role in ("best", "min_penalty"):
            option = provider[role]
            if option is None:
                continue
            name = f"{provider['provider_name']} {role}"
            for known in (r[o] for r in seen for o in ("best", "min_penalty")):
                if known and known["option_id"] == option["option_id"] and any(
                    known[field] != option[field] for field in _OPTION_FIELDS
                ):
                    return f"torn {name}: option {option['option_id']} differs"
            uptime = option["uptime_probability"]
            if not 0.0 <= uptime <= 1.0:
                return f"torn {name}: uptime {uptime!r}"
            if option["meets_sla"] != contract.sla.is_met_by(uptime):
                return f"torn {name}: meets_sla disagrees with uptime"
            if not _close(
                option["expected_penalty"], contract.expected_monthly_penalty(uptime)
            ):
                return f"torn {name}: penalty disagrees with uptime"
            if not _close(
                option["tco_total"], option["ha_cost"] + option["expected_penalty"]
            ):
                return f"torn {name}: TCO is not HA cost plus penalty"
            base = option["total_with_base"] - option["tco_total"]
            if not any(_close(base, known) for known in bases):
                return f"torn {name}: base cost {base!r}"
    return None


def verify(
    workload, seed: int, records: list[OpRecord]
) -> tuple[dict[int, str], int]:
    """Check one server's whole log against a twin.

    ``records`` is everything sent to one server instance.  Returns
    ``{id(record): reason}`` for every failure, and the number of torn
    reads that passed.
    """
    failures, flushes, epochs = check_lane(records)

    recommends = []
    for record in records:
        if record.op.kind != "recommend":
            continue
        low = sum(1 for flush in flushes if flush.done <= record.sent)
        high = sum(1 for flush in flushes if flush.sent <= record.done)
        recommends.append((low, high, record))

    torn = 0
    twin = Twin(workload, seed)
    try:
        unmatched = {id(r): (low, high, r) for low, high, r in recommends}
        for epoch in range(len(flushes) + 1):
            if epoch > 0:
                bodies, lines = epochs[epoch - 1]
                merged = twin.apply(bodies)
                if merged != lines:
                    failures[id(flushes[epoch - 1])] = (
                        f"twin merged {merged} of {lines} records"
                    )
            for key, (low, high, record) in list(unmatched.items()):
                if not low <= epoch <= high:
                    continue
                reason = twin.mismatch(record)
                if reason is None:
                    del unmatched[key]
                elif epoch == high:
                    if reason == DIFFERS and low < high:
                        reason = torn_failure(record, twin.reports(
                            record.op.body, low, high
                        ))
                        if reason is None and torn == TORN_LIMIT:
                            reason = f"more than {TORN_LIMIT} torn reads"
                        torn += reason is None
                    if reason is not None:
                        failures[key] = f"{reason} (epochs {low}..{high})"
                    del unmatched[key]
    finally:
        twin.close()
    return failures, torn
