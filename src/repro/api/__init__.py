"""Public API: versioned model artifacts, sessions, per-request options.

The single entry point for scoring, loading and serving trained SC-AQFP
models -- the train-once / deploy-forever surface the rest of the repo
(serving layer, evaluation reports, examples, the ``python -m repro``
CLI) is built on:

* :class:`ScModel` -- a versioned on-disk artifact (``weights.npz`` +
  ``manifest.json``) whose ``save``/``load`` round-trip reconstructs a
  bit-identical :class:`~repro.nn.sc_layers.ScNetworkMapper` (same RNG
  consumption, identical scores across processes).
* :class:`Session` -- the facade:
  ``Session.from_artifact(path, backend="bit-exact-packed")`` (or
  ``Session.from_network(network)`` for a freshly trained one) then
  ``.predict()`` / ``.evaluate()`` (an :class:`InferenceResult`) /
  ``.serve()``.
* :class:`~repro.config.PredictOptions` -- typed per-request inference
  options (stream length, checkpoint schedule, early exit, deadline,
  workers), validated once and threaded through
  :meth:`~repro.backends.base.Backend.forward_partial` and the serving
  layer (re-exported here from :mod:`repro.config`).

Quickstart::

    from repro.api import Session, PredictOptions

    session = Session.from_artifact("artifacts/snn")
    print(session.predict(images).predictions)
    with session.serve() as service:
        response = service.infer(image, PredictOptions(deadline_ms=5.0))
"""

from repro.api.artifact import FORMAT_NAME, FORMAT_VERSION, ScModel
from repro.api.session import InferenceResult, PredictResult, Session
from repro.config import PredictOptions, ResolvedPredictOptions

__all__ = [
    "ScModel",
    "Session",
    "PredictResult",
    "InferenceResult",
    "PredictOptions",
    "ResolvedPredictOptions",
    "FORMAT_NAME",
    "FORMAT_VERSION",
]
