"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Sub-types are grouped by
the subsystem that raises them.
"""

from __future__ import annotations

from typing import Iterable


def unknown_name_message(
    kind: str,
    name: object,
    known: Iterable[object],
    *,
    label: str = "known",
) -> str:
    """One consistent message shape for failed name lookups.

    Every "unknown X" error across the library (providers, report
    entries, jobs, SKUs) funnels through here so callers see the same
    ``unknown <kind> <name>; <label>: [...]`` text with the valid names
    listed — and tests can match on one format.
    """
    return f"unknown {kind} {name!r}; {label}: {sorted(known, key=repr)}"


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(ReproError, ValueError):
    """A model object was constructed with invalid parameters.

    Raised eagerly at construction time so that bad inputs fail close to
    their source rather than deep inside the math.
    """


class TopologyError(ValidationError):
    """A system topology is structurally invalid (e.g. no clusters)."""


class CatalogError(ReproError, KeyError):
    """An HA technology lookup failed (unknown name or wrong layer)."""


class OptimizerError(ReproError):
    """The optimizer was asked to solve an ill-posed problem."""


class CloudError(ReproError):
    """A simulated cloud-provider operation failed."""


class ProvisioningError(CloudError):
    """A resource could not be provisioned (capacity, bad flavor, ...)."""


class ResourceNotFoundError(CloudError, KeyError):
    """A resource id does not exist with this provider."""


class BrokerError(ReproError):
    """The brokered service could not fulfil a request."""


class UnknownNameError(BrokerError, KeyError):
    """A lookup by name failed (provider, report entry, job, ...).

    Messages come from :func:`unknown_name_message`; the dedicated type
    lets wire layers map missing ids to a 404 without string matching.
    """

    def __str__(self) -> str:
        # KeyError.__str__ reprs the message (adds quotes); keep it plain.
        return Exception.__str__(self)


class InsufficientTelemetryError(BrokerError):
    """The broker has no observations for a requested component class."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""
