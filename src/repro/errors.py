"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this package derive from
:class:`ReproError` so that callers can catch every library error with a
single ``except`` clause while still being able to distinguish categories.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "EncodingError",
    "ShapeError",
    "NetlistError",
    "SimulationError",
    "TrainingError",
    "DatasetError",
    "InferenceError",
    "ServiceOverloadError",
    "FleetError",
    "ModelNotFoundError",
    "RemoteWorkerError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class EncodingError(ReproError):
    """A value could not be encoded into / decoded from a stochastic stream."""


class ShapeError(ReproError):
    """An array argument has an incompatible shape."""


class NetlistError(ReproError):
    """A gate-level netlist is malformed (cycles, dangling nets, bad fan-in)."""


class SimulationError(ReproError):
    """A hardware simulation could not be carried out."""


class TrainingError(ReproError):
    """Neural-network training failed or was configured inconsistently."""


class DatasetError(ReproError):
    """A dataset could not be generated or loaded."""


class InferenceError(ReproError):
    """A submitted request failed during execution.

    The serving layer's typed per-request failure: when a backend replica
    raises while evaluating a merged batch (and retries are exhausted),
    the affected requests' futures resolve with this error instead of the
    raw backend exception -- and *only* those requests fail; the worker
    thread and every other queued request keep running.  The original
    backend exception is chained as ``__cause__``.
    """


class ServiceOverloadError(ReproError):
    """A request was shed unanswered, before any compute was spent on it.

    Raised in the submitting caller when the service's pending queue is
    at ``max_queue_depth`` (reason ``"queue_full"``), and set as the
    request's future error when its ``deadline_ms`` ran out while it was
    queued (reason ``"deadline"``).  The :attr:`reason` attribute carries
    that shedding category so callers can implement category-specific
    backoff.
    """

    def __init__(self, message: str, reason: str = "queue_full") -> None:
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        # Default exception pickling replays ``args`` -- which holds only
        # the message -- so an unpickled copy would silently reset
        # ``reason`` to "queue_full".  The fleet RPC ships these across
        # process boundaries; category-specific backoff in the caller
        # needs the real reason to survive the trip.
        return (self.__class__, (self.args[0] if self.args else "", self.reason))


class FleetError(ReproError):
    """A router-side fleet serving failure (:mod:`repro.serve.fleet`).

    Raised (or set on a request future) by :class:`FleetRouter` when the
    failure happened in the *router*, not inside a worker's inference
    service: a worker process died with the request in flight and the
    retry budget is spent, no healthy worker exists, the router is
    draining, or the RPC stream itself is corrupt.  Worker-side failures
    keep their own types (:class:`InferenceError`,
    :class:`ServiceOverloadError`) across the RPC boundary.  The
    :attr:`reason` attribute carries the failure category
    (``"worker_lost"``, ``"no_workers"``, ``"draining"``, ``"deadline"``,
    ``"protocol"``) so callers can branch without string matching.
    """

    def __init__(self, message: str, reason: str = "worker_lost") -> None:
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        return (self.__class__, (self.args[0] if self.args else "", self.reason))


class ModelNotFoundError(ReproError):
    """A request named a model the registry does not serve.

    Raised by :class:`repro.serve.registry.ModelRegistry` lookups (and
    therefore surfaced as HTTP 404 by :mod:`repro.serve.http`) when the
    requested model name is not in the catalog -- distinct from
    :class:`ConfigurationError` so the wire layer can map "you asked for
    something that does not exist" separately from "your request is
    malformed".  The :attr:`model` attribute carries the requested name.
    """

    def __init__(self, message: str, model: str = "") -> None:
        super().__init__(message)
        self.model = model

    def __reduce__(self):
        return (self.__class__, (self.args[0] if self.args else "", self.model))


class RemoteWorkerError(ReproError):
    """Stand-in for an exception that originally rose in a worker process.

    Exceptions cross the fleet RPC as structured payloads (type name,
    message, cause chain), not pickled objects -- a worker crash must
    never force the router to unpickle arbitrary classes.  The decoded
    error's ``__cause__`` chain is rebuilt from these stand-ins so
    ``raise ... from`` context survives the process boundary; the
    original type's qualified name is kept in :attr:`remote_type`.
    """

    def __init__(self, message: str, remote_type: str = "Exception") -> None:
        super().__init__(message)
        self.remote_type = remote_type

    def __str__(self) -> str:
        base = self.args[0] if self.args else ""
        return f"[{self.remote_type}] {base}"

    def __reduce__(self):
        return (
            self.__class__,
            (self.args[0] if self.args else "", self.remote_type),
        )
