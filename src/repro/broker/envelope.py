"""The broker's v2 wire protocol: request and report envelopes.

PR 1 left the broker with exactly one entry point — a synchronous
in-process ``recommend(request) -> report`` call.  A brokered *service*
needs a wire shape: customers submit requests as documents, poll jobs,
and read ranked reports back.  This module defines that shape:

- :class:`RecommendEnvelope` wraps a
  :class:`~repro.broker.request.RecommendationRequest` with a request id
  and schema version;
- :class:`ReportEnvelope` is the flattened, JSON-safe answer — the
  per-provider ranking with distilled best / min-penalty option rows
  and engine-cache statistics, *not* the full option table, so huge
  sweeps serialize in O(providers);
- :class:`ProgressEvent` is the streaming unit emitted while a request
  is being served.

All objects round-trip through ``to_dict()`` / ``from_dict()`` (and
``to_json()`` / ``from_json()``), following the versioned, flat,
unknown-key-rejecting idiom of :mod:`repro.topology.serialization`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.broker.request import ClusterRequirement, RecommendationRequest
from repro.errors import ValidationError
from repro.optimizer.result import EvaluatedOption, OptimizationResult
from repro.sla.contract import Contract
from repro.sla.penalty import (
    CappedPenalty,
    LinearPenalty,
    NoPenalty,
    PenaltyClause,
    ServiceCreditPenalty,
    TieredPenalty,
)
from repro.topology.cluster import Layer

#: Version of the broker's request/response wire format.  Version 1 was
#: the (implicit) in-process dataclass API; version 2 is the first
#: serialized protocol.
ENVELOPE_SCHEMA_VERSION = 2


def _check_keys(payload: Mapping[str, Any], allowed: set[str], what: str) -> None:
    """Reject unknown keys so typos fail loudly instead of silently."""
    unknown = set(payload) - allowed
    if unknown:
        raise ValidationError(
            f"unknown {what} keys: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _check_version(payload: Mapping[str, Any], what: str) -> None:
    version = payload.get("schema_version", ENVELOPE_SCHEMA_VERSION)
    if version != ENVELOPE_SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported {what} schema_version {version!r}; "
            f"this library reads version {ENVELOPE_SCHEMA_VERSION}"
        )


# -- contract (de)serialization -------------------------------------------

def penalty_to_dict(clause: PenaltyClause) -> dict[str, Any]:
    """Serialize any built-in penalty clause shape."""
    if isinstance(clause, NoPenalty):
        return {"kind": "none"}
    if isinstance(clause, LinearPenalty):
        return {"kind": "linear", "rate_per_hour": clause.rate_per_hour}
    if isinstance(clause, TieredPenalty):
        return {
            "kind": "tiered",
            "tiers": [list(tier) for tier in clause.tiers],
        }
    if isinstance(clause, CappedPenalty):
        return {
            "kind": "capped",
            "monthly_cap": clause.monthly_cap,
            "inner": penalty_to_dict(clause.inner),
        }
    if isinstance(clause, ServiceCreditPenalty):
        return {
            "kind": "service-credit",
            "monthly_contract_value": clause.monthly_contract_value,
            "schedule": [list(step) for step in clause.schedule],
        }
    raise ValidationError(
        f"cannot serialize penalty clause of type {type(clause).__name__}"
    )


def penalty_from_dict(payload: Mapping[str, Any]) -> PenaltyClause:
    """Deserialize a penalty clause; unknown kinds are rejected."""
    kind = payload.get("kind")
    if kind == "none":
        _check_keys(payload, {"kind"}, "penalty")
        return NoPenalty()
    if kind == "linear":
        _check_keys(payload, {"kind", "rate_per_hour"}, "penalty")
        return LinearPenalty(float(payload["rate_per_hour"]))
    if kind == "tiered":
        _check_keys(payload, {"kind", "tiers"}, "penalty")
        return TieredPenalty(
            tuple((float(width), float(rate)) for width, rate in payload["tiers"])
        )
    if kind == "capped":
        _check_keys(payload, {"kind", "monthly_cap", "inner"}, "penalty")
        return CappedPenalty(
            inner=penalty_from_dict(payload["inner"]),
            monthly_cap=float(payload["monthly_cap"]),
        )
    if kind == "service-credit":
        _check_keys(
            payload, {"kind", "monthly_contract_value", "schedule"}, "penalty"
        )
        return ServiceCreditPenalty(
            monthly_contract_value=float(payload["monthly_contract_value"]),
            schedule=tuple(
                (float(threshold), float(fraction))
                for threshold, fraction in payload["schedule"]
            ),
        )
    raise ValidationError(
        f"unknown penalty kind {kind!r}; valid: "
        "['none', 'linear', 'tiered', 'capped', 'service-credit']"
    )


def contract_to_dict(contract: Contract) -> dict[str, Any]:
    """Serialize a contract (SLA percent plus penalty clause)."""
    return {
        "sla_percent": contract.sla.target_percent,
        "penalty": penalty_to_dict(contract.penalty),
    }


def contract_from_dict(payload: Mapping[str, Any]) -> Contract:
    """Deserialize a contract; unknown keys are rejected."""
    _check_keys(payload, {"sla_percent", "penalty"}, "contract")
    from repro.sla.sla import UptimeSLA

    return Contract(
        sla=UptimeSLA(float(payload["sla_percent"])),
        penalty=penalty_from_dict(payload["penalty"]),
    )


# -- request (de)serialization --------------------------------------------

def _cluster_requirement_to_dict(requirement: ClusterRequirement) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "name": requirement.name,
        "layer": requirement.layer.value,
        "nodes": requirement.nodes,
    }
    if requirement.sku is not None:
        payload["sku"] = requirement.sku
    return payload


def _cluster_requirement_from_dict(payload: Mapping[str, Any]) -> ClusterRequirement:
    _check_keys(payload, {"name", "layer", "nodes", "sku"}, "cluster requirement")
    try:
        layer = Layer(payload["layer"])
    except ValueError as exc:
        raise ValidationError(
            f"unknown layer {payload['layer']!r}; expected one of "
            f"{[member.value for member in Layer]}"
        ) from exc
    return ClusterRequirement(
        name=payload["name"],
        layer=layer,
        nodes=int(payload["nodes"]),
        sku=payload.get("sku"),
    )


def request_to_dict(request: RecommendationRequest) -> dict[str, Any]:
    """Serialize a recommendation request to plain JSON-safe types."""
    return {
        "system_name": request.system_name,
        "clusters": [
            _cluster_requirement_to_dict(requirement)
            for requirement in request.clusters
        ],
        "contract": contract_to_dict(request.contract),
        "providers": list(request.providers) if request.providers else None,
        "strategy": request.strategy,
        "engine": request.engine,
        "backend": request.backend,
        "extended_catalog": request.extended_catalog,
        "metadata": dict(request.metadata),
    }


def request_from_dict(payload: Mapping[str, Any]) -> RecommendationRequest:
    """Deserialize a request; field validation runs in the dataclass."""
    allowed = {
        "system_name",
        "clusters",
        "contract",
        "providers",
        "strategy",
        "engine",
        "backend",
        "extended_catalog",
        "metadata",
    }
    _check_keys(payload, allowed, "request")
    providers = payload.get("providers")
    return RecommendationRequest(
        system_name=payload["system_name"],
        clusters=tuple(
            _cluster_requirement_from_dict(item) for item in payload["clusters"]
        ),
        contract=contract_from_dict(payload["contract"]),
        providers=tuple(providers) if providers else None,
        strategy=payload.get("strategy", "pruned"),
        engine=payload.get("engine", "incremental"),
        backend=payload.get("backend"),
        extended_catalog=bool(payload.get("extended_catalog", False)),
        metadata=dict(payload.get("metadata", {})),
    )


# -- envelopes -------------------------------------------------------------

@dataclass(frozen=True)
class RecommendEnvelope:
    """A versioned, addressable recommendation request document.

    ``trace`` is an optional W3C-traceparent-style string
    (``00-<32 hex>-<16 hex>-01``, see :mod:`repro.obs.trace`): a client
    that stamps it gets the server-side span tree recorded under its
    own trace id.  It is pure observability metadata — it never
    influences the recommendation and is ignored unless the server was
    started with tracing enabled.

    ``idempotency_key`` is an optional client-chosen opaque string
    deduplicating retried submissions: the server replays the original
    response byte-identically for a repeated ``(principal, key)`` pair
    instead of re-executing.  Like ``trace`` it never influences the
    recommendation itself.
    """

    request: RecommendationRequest
    request_id: str | None = None
    trace: str | None = None
    idempotency_key: str | None = None

    def __post_init__(self) -> None:
        if self.trace is not None and not isinstance(self.trace, str):
            raise ValidationError(
                f"trace must be a traceparent string or None, "
                f"got {type(self.trace).__name__}"
            )
        if self.idempotency_key is not None and not isinstance(
            self.idempotency_key, str
        ):
            raise ValidationError(
                f"idempotency_key must be a string or None, "
                f"got {type(self.idempotency_key).__name__}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Serialize, embedding the schema version and document kind."""
        return {
            "schema_version": ENVELOPE_SCHEMA_VERSION,
            "kind": "recommend-request",
            "request_id": self.request_id,
            "request": request_to_dict(self.request),
            "trace": self.trace,
            "idempotency_key": self.idempotency_key,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RecommendEnvelope":
        """Deserialize; validates version, kind and key set."""
        _check_version(payload, "recommend envelope")
        _check_keys(
            payload,
            {
                "schema_version",
                "kind",
                "request_id",
                "request",
                "trace",
                "idempotency_key",
            },
            "recommend envelope",
        )
        kind = payload.get("kind", "recommend-request")
        if kind != "recommend-request":
            raise ValidationError(
                f"expected kind 'recommend-request', got {kind!r}"
            )
        return cls(
            request=request_from_dict(payload["request"]),
            request_id=payload.get("request_id"),
            trace=payload.get("trace"),
            idempotency_key=payload.get("idempotency_key"),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON string (compact by default, for JSONL)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RecommendEnvelope":
        """Deserialize from a JSON string."""
        return cls.from_dict(_loads(text, "recommend envelope"))


@dataclass(frozen=True)
class OptionSummary:
    """The wire form of one evaluated option (a distilled table row)."""

    option_id: int
    choice_names: tuple[str, ...]
    clustered_components: tuple[str, ...]
    uptime_probability: float
    ha_cost: float
    expected_penalty: float
    tco_total: float
    total_with_base: float
    meets_sla: bool

    @classmethod
    def from_option(cls, option: EvaluatedOption) -> "OptionSummary":
        """Distill an evaluated option without forcing its topology."""
        return cls(
            option_id=option.option_id,
            choice_names=tuple(option.choice_names),
            clustered_components=option.clustered_components,
            uptime_probability=option.tco.uptime_probability,
            ha_cost=option.tco.ha_cost,
            expected_penalty=option.tco.expected_penalty,
            tco_total=option.tco.total,
            total_with_base=option.tco.total_with_base,
            meets_sla=option.meets_sla,
        )

    @property
    def label(self) -> str:
        """Short human label, mirroring :attr:`EvaluatedOption.label`."""
        if not self.clustered_components:
            return f"#{self.option_id} no HA"
        return f"#{self.option_id} HA: {'+'.join(self.clustered_components)}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "option_id": self.option_id,
            "choice_names": list(self.choice_names),
            "clustered_components": list(self.clustered_components),
            "uptime_probability": self.uptime_probability,
            "ha_cost": self.ha_cost,
            "expected_penalty": self.expected_penalty,
            "tco_total": self.tco_total,
            "total_with_base": self.total_with_base,
            "meets_sla": self.meets_sla,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OptionSummary":
        allowed = {
            "option_id",
            "choice_names",
            "clustered_components",
            "uptime_probability",
            "ha_cost",
            "expected_penalty",
            "tco_total",
            "total_with_base",
            "meets_sla",
        }
        _check_keys(payload, allowed, "option summary")
        return cls(
            option_id=int(payload["option_id"]),
            choice_names=tuple(payload["choice_names"]),
            clustered_components=tuple(payload["clustered_components"]),
            uptime_probability=float(payload["uptime_probability"]),
            ha_cost=float(payload["ha_cost"]),
            expected_penalty=float(payload["expected_penalty"]),
            tco_total=float(payload["tco_total"]),
            total_with_base=float(payload["total_with_base"]),
            meets_sla=bool(payload["meets_sla"]),
        )


@dataclass(frozen=True)
class ProviderReport:
    """One provider's outcome on the wire: ranking row + search audit."""

    provider_name: str
    strategy: str
    evaluations: int
    pruned: int
    space_size: int
    best: OptionSummary
    min_penalty: OptionSummary
    engine_stats: dict[str, int] | None = None

    @property
    def monthly_total(self) -> float:
        """Best option's Eq. 5 TCO plus the provider's base infra cost."""
        return self.best.total_with_base

    @classmethod
    def from_result(
        cls,
        provider_name: str,
        result: OptimizationResult,
        engine_stats: Mapping[str, int] | None = None,
    ) -> "ProviderReport":
        """Distill one provider's optimization result."""
        return cls(
            provider_name=provider_name,
            strategy=result.strategy,
            evaluations=result.evaluations,
            pruned=result.pruned,
            space_size=result.space_size,
            best=OptionSummary.from_option(result.best),
            min_penalty=OptionSummary.from_option(result.min_penalty_option),
            engine_stats=dict(engine_stats) if engine_stats is not None else None,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "provider_name": self.provider_name,
            "strategy": self.strategy,
            "evaluations": self.evaluations,
            "pruned": self.pruned,
            "space_size": self.space_size,
            "best": self.best.to_dict(),
            "min_penalty": self.min_penalty.to_dict(),
            "engine_stats": self.engine_stats,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProviderReport":
        allowed = {
            "provider_name",
            "strategy",
            "evaluations",
            "pruned",
            "space_size",
            "best",
            "min_penalty",
            "engine_stats",
        }
        _check_keys(payload, allowed, "provider report")
        stats = payload.get("engine_stats")
        return cls(
            provider_name=payload["provider_name"],
            strategy=payload["strategy"],
            evaluations=int(payload["evaluations"]),
            pruned=int(payload["pruned"]),
            space_size=int(payload["space_size"]),
            best=OptionSummary.from_dict(payload["best"]),
            min_penalty=OptionSummary.from_dict(payload["min_penalty"]),
            engine_stats={k: int(v) for k, v in stats.items()} if stats else None,
        )


@dataclass(frozen=True)
class ReportEnvelope:
    """The broker's versioned answer document: providers ranked by cost."""

    request_name: str
    providers: tuple[ProviderReport, ...]
    request_id: str | None = None

    def __post_init__(self) -> None:
        if not self.providers:
            raise ValidationError("report envelope has no providers")

    @property
    def best(self) -> ProviderReport:
        """The cheapest provider placement (including base infra)."""
        return min(self.providers, key=lambda entry: entry.monthly_total)

    def for_provider(self, provider_name: str) -> ProviderReport:
        """Look up one provider's wire report."""
        from repro.errors import UnknownNameError, unknown_name_message

        for entry in self.providers:
            if entry.provider_name == provider_name:
                return entry
        raise UnknownNameError(
            unknown_name_message(
                "provider",
                provider_name,
                [entry.provider_name for entry in self.providers],
                label="have",
            )
        )

    @classmethod
    def from_report(
        cls, report: Any, request_id: str | None = None
    ) -> "ReportEnvelope":
        """Distill an in-process :class:`RecommendationReport`."""
        return cls(
            request_name=report.request_name,
            providers=tuple(
                ProviderReport.from_result(
                    recommendation.provider_name,
                    recommendation.result,
                    engine_stats=(
                        recommendation.engine_stats.to_dict()
                        if recommendation.engine_stats is not None
                        else None
                    ),
                )
                for recommendation in report.recommendations
            ),
            request_id=request_id,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": ENVELOPE_SCHEMA_VERSION,
            "kind": "recommend-report",
            "request_id": self.request_id,
            "request_name": self.request_name,
            "providers": [entry.to_dict() for entry in self.providers],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReportEnvelope":
        _check_version(payload, "report envelope")
        _check_keys(
            payload,
            {"schema_version", "kind", "request_id", "request_name", "providers"},
            "report envelope",
        )
        kind = payload.get("kind", "recommend-report")
        if kind != "recommend-report":
            raise ValidationError(
                f"expected kind 'recommend-report', got {kind!r}"
            )
        return cls(
            request_name=payload["request_name"],
            providers=tuple(
                ProviderReport.from_dict(item) for item in payload["providers"]
            ),
            request_id=payload.get("request_id"),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON string (compact by default, for JSONL)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReportEnvelope":
        """Deserialize from a JSON string."""
        return cls.from_dict(_loads(text, "report envelope"))

    def describe(self) -> str:
        """Ranked one-line-per-provider summary (wire-side describe)."""
        ranked = sorted(self.providers, key=lambda entry: entry.monthly_total)
        lines = [f"Brokered recommendation for {self.request_name!r}:"]
        lines.extend(
            f"  {entry.provider_name:<12} {entry.best.label:<28} "
            f"TCO+base=${entry.monthly_total:,.2f}"
            for entry in ranked
        )
        lines.append(
            f"  => place on {self.best.provider_name} as {self.best.best.label}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class ErrorEnvelope:
    """The wire form of a failed request: structured, versioned, typed.

    Transports must answer *every* failure with one of these (plus a
    non-2xx status) — never a traceback, never a dropped connection.
    ``error`` is a stable machine-readable slug (``validation-error``,
    ``unknown-name``, ...); ``message`` is the human-readable detail.
    """

    status: int
    error: str
    message: str
    request_id: str | None = None

    def __post_init__(self) -> None:
        if not 400 <= self.status <= 599:
            raise ValidationError(
                f"error status must be in 400..599, got {self.status!r}"
            )
        if not self.error:
            raise ValidationError("error slug must be non-empty")

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": ENVELOPE_SCHEMA_VERSION,
            "kind": "error",
            "status": self.status,
            "error": self.error,
            "message": self.message,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ErrorEnvelope":
        _check_version(payload, "error envelope")
        _check_keys(
            payload,
            {"schema_version", "kind", "status", "error", "message", "request_id"},
            "error envelope",
        )
        kind = payload.get("kind", "error")
        if kind != "error":
            raise ValidationError(f"expected kind 'error', got {kind!r}")
        return cls(
            status=int(payload["status"]),
            error=payload["error"],
            message=payload["message"],
            request_id=payload.get("request_id"),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON string (compact by default, for JSONL)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ErrorEnvelope":
        """Deserialize from a JSON string."""
        return cls.from_dict(_loads(text, "error envelope"))


#: Progress event kinds a streaming recommendation may emit, in order.
EVENT_KINDS = (
    "accepted",
    "provider-started",
    "progress",
    "provider-completed",
    "provider-skipped",
    "completed",
    "failed",
)


@dataclass(frozen=True)
class ProgressEvent:
    """One streaming event from a running recommendation."""

    kind: str
    request_id: str | None = None
    provider: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValidationError(
                f"unknown event kind {self.kind!r}; valid: {EVENT_KINDS}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "request_id": self.request_id,
            "provider": self.provider,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProgressEvent":
        _check_keys(
            payload,
            {"kind", "request_id", "provider", "detail"},
            "progress event",
        )
        if "kind" not in payload:
            raise ValidationError("progress event is missing 'kind'")
        detail = payload.get("detail") or {}
        if not isinstance(detail, Mapping):
            raise ValidationError(
                f"progress event detail must be a mapping, got {type(detail).__name__}"
            )
        return cls(
            kind=payload["kind"],
            request_id=payload.get("request_id"),
            provider=payload.get("provider"),
            detail=dict(detail),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON string (compact by default, for SSE/JSONL)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProgressEvent":
        """Deserialize from a JSON string."""
        return cls.from_dict(_loads(text, "progress event"))


def _loads(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid {what} JSON: {exc}") from exc
