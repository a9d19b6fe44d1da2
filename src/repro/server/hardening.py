"""Protocol hardening: idempotency replay, rate limiting, token auth.

PR 5 fixed a real data-corruption bug — a retried ``POST /v2/jobs``
after a lost response duplicated the job — by *forbidding* the client
from retrying non-idempotent requests after a response-phase failure.
That band-aid left every caller holding the bag whenever a keep-alive
connection dropped mid-response.  This module is the production fix,
plus the two other guards the serving layer needs before it can face
untrusted marketplace traffic instead of benchmark fleets:

- :class:`IdempotencyStore` — a bounded-LRU replay table keyed by
  ``(principal, route, key)``.  The first request carrying an
  ``Idempotency-Key`` executes and its response is recorded; any retry
  with the same key replays the recorded response **byte-identically**
  without re-executing the handler.  Concurrent duplicates race to one
  execution: the first writer claims the key, later arrivals await its
  outcome.  With replay in place, the client may retry *every* method
  safely — the PR-5 restriction is lifted in
  :class:`~repro.server.client.ServerClient`.
- :class:`RateLimiter` — per-principal token buckets.  A request that
  finds its bucket empty is answered ``429`` with a ``Retry-After``
  hint by the transport; the bucket refills continuously at ``rate``
  requests/second up to ``burst``.
- :func:`authenticate` — shared-token bearer auth: missing or malformed
  credentials are ``401``, a wrong token is ``403``, both as structured
  :class:`~repro.broker.envelope.ErrorEnvelope` responses.

The store is **event-loop confined**: ``begin``/``commit``/``abandon``
run only on the transport's asyncio loop (waiters are plain
``asyncio.Future``\\ s), so it needs no lock.  The rate limiter and the
authenticator are also called from the loop but keep a lock so tests
and future multi-loop fronts can drive them directly.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.broker.envelope import ErrorEnvelope
from repro.errors import ValidationError
from repro.obs import clock

#: Response header stamped on replayed responses so clients can tell
#: a replay from a re-execution.
REPLAY_HEADER = "Idempotency-Replayed"

#: Request header carrying the client's idempotency key.
IDEMPOTENCY_KEY_HEADER = "Idempotency-Key"

#: Longest accepted idempotency key (a DoS guard: keys are dict keys).
MAX_IDEMPOTENCY_KEY_LENGTH = 256


# -- idempotency ------------------------------------------------------------

@dataclass
class StoredResponse:
    """One recorded response, byte-exact: status + type + body + headers."""

    status: int
    content_type: str
    body: bytes
    headers: dict[str, str] = field(default_factory=dict)


#: A replay-table key: (principal, route, discriminator, key/path).
ReplayKey = tuple[str, str, str, str]


class IdempotencyStore:
    """Bounded-LRU replay table deduplicating keyed requests.

    Entries are either a :class:`StoredResponse` (completed — replay
    it) or an ``asyncio.Future`` (in flight — await the first writer's
    outcome).  Only completed entries count against ``capacity``;
    in-flight claims are never evicted, so a slow leader cannot be
    yanked out from under its waiters.

    Failed executions are *not* recorded: the claim is abandoned and
    waiters re-enter the claim race, so a transient error never pins a
    poisoned response under the client's key.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValidationError(
                f"idempotency capacity must be >= 1, got {capacity!r}"
            )
        self.capacity = capacity
        self._entries: "OrderedDict[ReplayKey, StoredResponse | asyncio.Future]"
        self._entries = OrderedDict()
        self.replays = 0
        self.evictions = 0
        self.stored = 0

    def __len__(self) -> int:
        """Completed (replayable) entries currently held."""
        count = 0
        for entry in self._entries.values():
            if isinstance(entry, StoredResponse):
                count += 1
        return count

    def begin(
        self, key: ReplayKey
    ) -> tuple[str, "StoredResponse | asyncio.Future"]:
        """Open one keyed execution: ``(action, entry)``.

        - ``("replay", stored)`` — a completed response exists; replay
          it (the entry is refreshed to most-recently-used).
        - ``("wait", future)`` — another request holds the key; await
          the future.  A :class:`StoredResponse` result means replay
          it; ``None`` means the leader failed — call :meth:`begin`
          again to race for the claim.
        - ``("claim", future)`` — the caller is now the leader and must
          finish with exactly one of :meth:`commit` or :meth:`abandon`.
        """
        entry = self._entries.get(key)
        if isinstance(entry, StoredResponse):
            self._entries.move_to_end(key)
            self.replays += 1
            return "replay", entry
        if entry is not None:
            return "wait", entry
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._entries[key] = future
        return "claim", future

    def commit(
        self, key: ReplayKey, future: asyncio.Future, stored: StoredResponse
    ) -> None:
        """Record the leader's response and wake every waiter with it."""
        self._entries[key] = stored
        self._entries.move_to_end(key)
        self.stored += 1
        self._evict()
        future.set_result(stored)

    def abandon(self, key: ReplayKey, future: asyncio.Future) -> None:
        """Drop the leader's claim (failed execution); waiters re-race."""
        if self._entries.get(key) is future:
            del self._entries[key]
        future.set_result(None)

    def _evict(self) -> None:
        while len(self) > self.capacity:
            for key, entry in self._entries.items():
                if isinstance(entry, StoredResponse):
                    del self._entries[key]
                    self.evictions += 1
                    break

    def metrics(self) -> dict[str, int]:
        """JSON-safe counters for ``/metrics`` and tests."""
        return {
            "entries": len(self),
            "replays": self.replays,
            "evictions": self.evictions,
            "stored": self.stored,
        }


# -- rate limiting ----------------------------------------------------------

@dataclass
class _Bucket:
    tokens: float
    updated: float


class RateLimiter:
    """Per-principal token buckets: ``rate`` req/s refill, ``burst`` cap.

    :meth:`check` consumes one token and returns ``0.0`` when the
    request may proceed, or the seconds until a token will be available
    (the transport's ``Retry-After`` hint) when the bucket is empty.
    Buckets are held in a bounded LRU so an open server cannot be
    memory-exhausted by principal churn; an evicted principal simply
    starts over with a full bucket.
    """

    def __init__(
        self,
        rate: float,
        burst: int | None = None,
        *,
        max_principals: int = 4096,
        clock_fn: Callable[[], float] = clock.monotonic,
    ) -> None:
        if not math.isfinite(rate) or rate <= 0.0:
            raise ValidationError(
                f"rate must be finite and > 0 req/s, got {rate!r}"
            )
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        if self.burst < 1.0:
            raise ValidationError(f"burst must be >= 1, got {burst!r}")
        self.max_principals = max_principals
        self._clock = clock_fn
        self._buckets: "OrderedDict[str, _Bucket]" = OrderedDict()
        self._lock = threading.Lock()
        self.limited = 0

    def __len__(self) -> int:
        """Distinct principals with live buckets (a /metrics gauge)."""
        with self._lock:
            return len(self._buckets)

    def check(self, principal: str) -> float:
        """Try to take one token; 0.0 = allowed, else retry-after seconds."""
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(principal)
            if bucket is None:
                bucket = _Bucket(tokens=self.burst, updated=now)
                self._buckets[principal] = bucket
                while len(self._buckets) > self.max_principals:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(principal)
                bucket.tokens = min(
                    self.burst,
                    bucket.tokens + (now - bucket.updated) * self.rate,
                )
                bucket.updated = now
            if bucket.tokens >= 1.0:
                bucket.tokens -= 1.0
                return 0.0
            self.limited += 1
            return (1.0 - bucket.tokens) / self.rate


# -- token auth -------------------------------------------------------------

def principal_for(
    headers: Mapping[str, str], peer: str, auth_enabled: bool
) -> str:
    """The rate-limit/replay principal for one request.

    With auth enabled, the presented bearer token (hashed — the
    principal string appears in logs and metrics, the credential must
    not) identifies the client; otherwise the peer address does.
    """
    if auth_enabled:
        token = _bearer_token(headers)
        if token is not None:
            digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
            return f"token:{digest[:16]}"
    return f"addr:{peer or 'unknown'}"


def _bearer_token(headers: Mapping[str, str]) -> str | None:
    header = headers.get("authorization")
    if header is None:
        return None
    scheme, _, credential = header.partition(" ")
    if scheme.lower() != "bearer" or not credential.strip():
        return None
    return credential.strip()


def authenticate(
    expected: str, headers: Mapping[str, str]
) -> ErrorEnvelope | None:
    """Check a request's bearer token against the server's.

    Returns ``None`` on success, a ``401`` envelope when no (or a
    malformed) credential was presented, and a ``403`` envelope when a
    well-formed token does not match.  Comparison is constant-time.
    """
    presented = _bearer_token(headers)
    if presented is None:
        return ErrorEnvelope(
            401,
            "unauthorized",
            "this server requires token auth; send "
            "'Authorization: Bearer <token>'",
        )
    if not hmac.compare_digest(
        presented.encode("utf-8"), expected.encode("utf-8")
    ):
        return ErrorEnvelope(
            403, "forbidden", "the presented bearer token is not valid"
        )
    return None
