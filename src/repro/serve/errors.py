"""Typed serving errors.

Every way the serving layer refuses work has its own exception type, so
clients (and tests) can distinguish *shed* load from *misrouted* load
from *shutdown*:

* :class:`UnknownModelError` — the request names a model the registry
  does not host.
* :class:`QueueFullError` — admission control: the model's queue is at
  its bound and the request is shed immediately rather than queued.
* :class:`ServerClosedError` — the runtime has shut down;
  raised both for new submissions after close and for in-flight
  requests rejected by a non-draining shutdown.
* :class:`ModelQuarantinedError` — supervision took one model out of
  service after too many consecutive actor crashes; requests to it are
  refused while every other hosted model keeps serving.
* :class:`CrashError` — not a rejection: what the chaos ``crash``
  fault raises at the supervisor's ``serve.*`` sites.

The four rejections derive from :class:`ServeError`;
``UnknownModelError`` also derives from :class:`KeyError` so registry
lookups behave like a mapping.
"""

from __future__ import annotations


class ServeError(Exception):
    """Base class for all serving-layer failures."""


class UnknownModelError(ServeError, KeyError):
    """A request named a model that is not registered/hosted."""

    def __init__(self, name: str, known: tuple = ()):
        self.name = name
        self.known = tuple(known)
        hint = f"; registered: {', '.join(self.known)}" if self.known else ""
        super().__init__(f"unknown model {name!r}{hint}")

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message
        return self.args[0]


class QueueFullError(ServeError):
    """Admission control shed a request: the model's queue is at bound."""

    def __init__(self, model: str, depth: int, bound: int):
        self.model = model
        self.depth = depth
        self.bound = bound
        super().__init__(
            f"queue for model {model!r} is full ({depth}/{bound}); request shed"
        )


class ServerClosedError(ServeError):
    """The runtime is shut down; the request was not (or will not be) served."""

    def __init__(self, message: str = "server is closed"):
        super().__init__(message)


class ModelQuarantinedError(ServeError):
    """Supervision quarantined one model after repeated actor crashes.

    Raised for new submissions to the quarantined model and used to fail
    its pending futures at the moment of quarantine.  Other hosted
    models are unaffected; a successful
    :meth:`~repro.serve.runtime.ServerRuntime.rollover` reinstates the
    model.
    """

    def __init__(self, model: str, failures: int, last_error: str = ""):
        self.model = model
        self.failures = failures
        self.last_error = last_error
        detail = f" (last error: {last_error})" if last_error else ""
        super().__init__(
            f"model {model!r} is quarantined after {failures} consecutive "
            f"failures{detail}; rollover a fixed version to reinstate it"
        )


class CrashError(RuntimeError):
    """The deterministic injected failure (distinguishable from real bugs)."""
