"""Stochastic-computing deep learning on AQFP superconducting technology.

This package reproduces the system described in "A Stochastic-Computing
based Deep Learning Framework using Adiabatic Quantum-Flux-Parametron
Superconducting Technology" (Cai et al., ISCA 2019).  It contains:

* ``repro.rng`` -- random-bit sources (AQFP true RNG, CMOS LFSR, RNG matrix).
* ``repro.sc`` -- the stochastic-computing substrate (bit streams, SNGs,
  arithmetic, APC, FSM activation, correlation analysis).
* ``repro.sorting`` -- binary bitonic sorting networks.
* ``repro.aqfp`` -- the AQFP technology model (cell library, netlists,
  majority synthesis, buffer/splitter insertion, clocking, energy).
* ``repro.cmos`` -- the 40 nm CMOS baseline cost models.
* ``repro.blocks`` -- the paper's proposed blocks (SNG, sorter-based
  feature extraction, sorter-based pooling, majority-chain categorization)
  plus the prior-work APC baseline.
* ``repro.nn`` -- float reference layers, training, quantization, and the
  SC network mapper for the SNN/DNN architectures of Table 8.
* ``repro.backends`` -- pluggable execution backends (float, fast
  statistical, and the bit-exact legacy and word-packed data planes)
  behind a string-keyed registry.
* ``repro.serve`` -- the serving layer: micro-batching inference service
  with progressive-precision early exit, per-request options, result
  caching and metrics.
* ``repro.api`` -- the public API: versioned model artifacts
  (``ScModel``), the ``Session`` facade that is the one way to score a
  model (``from_artifact(...)`` or ``from_network(...)``, then
  ``.predict() / .evaluate() / .serve()``) and typed per-request
  ``PredictOptions``.
* ``repro.cli`` -- the ``python -m repro`` command line
  (``train`` / ``predict`` / ``evaluate`` / ``serve`` / ``models`` /
  ``trace`` / ``backends``).
* ``repro.datasets`` -- the synthetic MNIST-like digit dataset.
* ``repro.eval`` -- reproduction harness for every table and figure in the
  paper's evaluation.
* ``repro.obs`` -- observability: sampled request tracing, kernel-tier
  counters, Prometheus text exposition and a JSONL structured event log.

The package logs under the stdlib ``repro`` logger hierarchy (replica
restarts, fleet worker deaths, overload sheds, native-tier compile
fallbacks).  Library convention: a ``NullHandler`` is installed so
nothing prints unless the application configures logging.
"""

import logging

from repro.errors import (
    ConfigurationError,
    EncodingError,
    NetlistError,
    ReproError,
    ShapeError,
)

__version__ = "1.0.0"

logging.getLogger("repro").addHandler(logging.NullHandler())

__all__ = [
    "ReproError",
    "ConfigurationError",
    "EncodingError",
    "NetlistError",
    "ShapeError",
    "__version__",
]
