"""Versioned on-disk model artifacts (`ScModel`).

The paper's pipeline is train-once / deploy-forever: the SC-AQFP network
is trained in software, then executed as a fixed superconducting datapath.
:class:`ScModel` makes the trained network that portable artifact -- a
directory holding

* ``manifest.json`` -- format name + ``(major, minor)`` format version,
  the architecture spec (one entry per layer, reconstructible without the
  training code), the SC quantisation/stream configuration
  (``weight_bits``, ``stream_length``, ``seed``), free-form training
  metadata, and a SHA-256 digest of each payload file;
* ``weights.npz`` -- every trainable parameter array, in layer order;
* ``quantized.npz`` (format >= 1.1) -- the integer SNG comparator codes
  of every parameter, i.e. the values the proposed hardware actually
  stores on chip.  ``dequantize_weights(codes)`` reproduces
  ``quantize_weights(weights)`` bit-exactly, so a loaded model hands the
  mapper ready-made quantised parameters instead of re-deriving them
  per entry point; 1.0 artifacts without the file still load (the
  mapper falls back to quantising on the fly).

``save`` / ``load`` round-trip **bit-exactly**: the reconstructed
:class:`~repro.nn.sc_layers.ScNetworkMapper` consumes its RNG identically
to the original (streams depend only on the quantised weights, the stream
configuration and the seed, all of which the artifact pins), so scores
under any bit-exact backend are identical across save/load and across
processes -- asserted by ``tests/test_api.py`` and the CI ``smoke``
job.

Version policy: loading rejects a different *major* version (the layout
changed incompatibly) with a :class:`~repro.errors.ConfigurationError`;
newer *minor* versions load (additive fields are ignored by older
readers).
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import (
    AvgPool2D,
    ClipActivation,
    Conv2D,
    Dense,
    Flatten,
    HardwareActivation,
    Layer,
    LogitScale,
    Network,
)
from repro.nn.quantization import dequantize_weights, quantization_codes
from repro.nn.sc_layers import ScNetworkMapper

__all__ = ["ScModel", "FORMAT_NAME", "FORMAT_VERSION"]

#: Artifact format identifier stored in every manifest.
FORMAT_NAME = "repro.sc-model"

#: ``(major, minor)`` of the artifact layout this build reads and writes.
#: 1.1 added ``quantized.npz`` (native integer comparator codes); 1.0
#: artifacts still load, and 1.0 readers ignore the additive file.
FORMAT_VERSION = (1, 1)

_MANIFEST = "manifest.json"
_WEIGHTS = "weights.npz"
_QUANTIZED = "quantized.npz"


def _layer_to_spec(layer: Layer) -> dict[str, Any]:
    """Serializable description of one layer (weights stored separately)."""
    if isinstance(layer, Conv2D):
        return {
            "kind": "conv2d",
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "kernel_size": layer.kernel_size,
            "stride": layer.stride,
            "padding": layer.padding,
        }
    if isinstance(layer, AvgPool2D):
        return {"kind": "avgpool2d", "pool_size": layer.pool_size}
    if isinstance(layer, Flatten):
        return {"kind": "flatten"}
    if isinstance(layer, Dense):
        return {
            "kind": "dense",
            "in_features": layer.in_features,
            "out_features": layer.out_features,
        }
    if isinstance(layer, HardwareActivation):
        return {
            "kind": "hardware_activation",
            "fan_in": layer.fan_in,
            "stream_length": layer.stream_length,
        }
    if isinstance(layer, ClipActivation):
        return {"kind": "clip_activation"}
    if isinstance(layer, LogitScale):
        return {"kind": "logit_scale", "scale": layer.scale}
    raise ConfigurationError(
        f"cannot serialize layer {type(layer).__name__} into a model artifact"
    )


def _layer_from_spec(spec: dict[str, Any]) -> Layer:
    """Rebuild one layer from its manifest entry (weights loaded later)."""
    try:
        kind = spec["kind"]
        if kind == "conv2d":
            return Conv2D(
                int(spec["in_channels"]),
                int(spec["out_channels"]),
                int(spec["kernel_size"]),
                int(spec["stride"]),
                str(spec["padding"]),
            )
        if kind == "avgpool2d":
            return AvgPool2D(int(spec["pool_size"]))
        if kind == "flatten":
            return Flatten()
        if kind == "dense":
            return Dense(int(spec["in_features"]), int(spec["out_features"]))
        if kind == "hardware_activation":
            stream_length = spec.get("stream_length")
            return HardwareActivation(
                int(spec["fan_in"]),
                stream_length=(
                    None if stream_length is None else int(stream_length)
                ),
            )
        if kind == "clip_activation":
            return ClipActivation()
        if kind == "logit_scale":
            return LogitScale(float(spec["scale"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"corrupted layer spec in model manifest: {spec!r}"
        ) from exc
    raise ConfigurationError(f"unknown layer kind {kind!r} in model manifest")


def _corrupt(path: Path, reason: str) -> ConfigurationError:
    return ConfigurationError(f"corrupted model artifact at {path}: {reason}")


class ScModel:
    """A trained SC network plus everything needed to re-execute it.

    The in-memory counterpart of the on-disk artifact: the float network,
    the SC quantisation / stream configuration, and free-form training
    metadata.  ``ScModel`` is what the :class:`~repro.api.Session` facade,
    the ``python -m repro`` CLI and the serving benchmarks pass around
    instead of retraining networks per entry point.

    Args:
        network: the trained float network (weights inside ``[-1, 1]``).
        weight_bits: stored binary precision used for quantisation.
        stream_length: stochastic stream length ``N``.
        seed: seed for stream generation / noise injection.
        metadata: free-form JSON-serialisable training metadata (dataset
            parameters, epochs, reference accuracies, ...).
        quantized_params: optional pre-quantised parameter arrays (one
            per network parameter, in layer order) as loaded from a
            1.1 artifact's ``quantized.npz``; handed to the mapper so it
            skips per-call quantisation.  ``None`` (the default, and
            what 1.0 artifacts yield) makes the mapper quantise on the
            fly -- bit-identical either way.
    """

    def __init__(
        self,
        network: Network,
        weight_bits: int = 10,
        stream_length: int = 1024,
        seed: int = 2019,
        metadata: dict[str, Any] | None = None,
        quantized_params: list[np.ndarray] | None = None,
    ) -> None:
        if stream_length <= 0:
            raise ConfigurationError("stream_length must be positive")
        if weight_bits <= 0 or weight_bits > 32:
            raise ConfigurationError(
                f"weight_bits must be in [1, 32], got {weight_bits}"
            )
        self.network = network
        self.weight_bits = int(weight_bits)
        self.stream_length = int(stream_length)
        self.seed = int(seed)
        self.metadata: dict[str, Any] = dict(metadata or {})
        self.quantized_params = quantized_params
        self._mapper: ScNetworkMapper | None = None

    def mapper(self) -> ScNetworkMapper:
        """The SC network mapper executing this model (built once).

        Reconstruction is bit-exact: the mapper's stream randomness
        depends only on the quantised weights, ``stream_length``,
        ``weight_bits`` and ``seed``, all of which the artifact pins, so
        a loaded model scores identically to the original under every
        bit-exact backend.
        """
        if self._mapper is None:
            self._mapper = ScNetworkMapper(
                self.network,
                weight_bits=self.weight_bits,
                stream_length=self.stream_length,
                seed=self.seed,
                quantized_params=self.quantized_params,
            )
        return self._mapper

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the artifact directory.

        ``manifest.json`` + ``weights.npz`` + ``quantized.npz``: the
        float parameters are kept (older readers, float-backend
        fidelity) and the integer comparator codes are stored natively
        alongside them -- what the SNG hardware holds on chip, and what
        the mapper consumes without re-quantising.

        Args:
            path: artifact directory; created (parents included) if
                missing, overwritten in place if it already holds an
                artifact.

        Returns:
            The artifact directory path.
        """
        path = Path(path)
        if path.exists() and not path.is_dir():
            raise ConfigurationError(
                f"artifact path {path} exists and is not a directory"
            )
        path.mkdir(parents=True, exist_ok=True)
        params = self.network.parameters()
        arrays = {
            f"param_{i:04d}": np.asarray(p, dtype=np.float64)
            for i, p in enumerate(params)
        }
        with open(path / _WEIGHTS, "wb") as fh:
            np.savez(fh, **arrays)
        weights_sha256 = hashlib.sha256(
            (path / _WEIGHTS).read_bytes()
        ).hexdigest()
        codes = {
            f"qparam_{i:04d}": quantization_codes(p, self.weight_bits)
            for i, p in enumerate(params)
        }
        with open(path / _QUANTIZED, "wb") as fh:
            np.savez(fh, **codes)
        quantized_sha256 = hashlib.sha256(
            (path / _QUANTIZED).read_bytes()
        ).hexdigest()
        manifest = {
            "format": FORMAT_NAME,
            "format_version": list(FORMAT_VERSION),
            "network": {
                "name": self.network.name,
                "layers": [_layer_to_spec(l) for l in self.network.layers],
                "n_parameters": len(params),
            },
            "weight_bits": self.weight_bits,
            "stream_length": self.stream_length,
            "seed": self.seed,
            "metadata": self.metadata,
            "weights_sha256": weights_sha256,
            "quantized_sha256": quantized_sha256,
        }
        (path / _MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
        return path

    @classmethod
    def read_manifest(cls, path: str | Path) -> dict[str, Any]:
        """Parse and version-check an artifact's manifest (weights untouched).

        Cheap enough for catalog listings and reload checks (e.g. the
        model registry comparing manifests) without loading the weight
        arrays.
        """
        path = Path(path)
        manifest_path = path / _MANIFEST
        if not manifest_path.is_file():
            raise ConfigurationError(
                f"no model artifact at {path} (missing {_MANIFEST})"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _corrupt(path, f"manifest is not valid JSON ({exc})") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
            raise _corrupt(
                path,
                f"manifest format is {manifest.get('format')!r}, "
                f"expected {FORMAT_NAME!r}",
            )
        version = manifest.get("format_version")
        if (
            not isinstance(version, list)
            or len(version) != 2
            or not all(isinstance(v, int) for v in version)
        ):
            raise _corrupt(path, f"malformed format_version {version!r}")
        if version[0] != FORMAT_VERSION[0]:
            raise ConfigurationError(
                f"model artifact at {path} has format version "
                f"{version[0]}.{version[1]}; this build reads major version "
                f"{FORMAT_VERSION[0]} (re-export the model with a matching "
                f"release)"
            )
        return manifest

    @classmethod
    def load(cls, path: str | Path) -> "ScModel":
        """Load an artifact directory back into a bit-exact ``ScModel``.

        Raises:
            ConfigurationError: when the artifact is missing, its manifest
                is corrupted or of an incompatible major version, or the
                weights file does not match the manifest (digest, count or
                shape mismatch).
        """
        path = Path(path)
        manifest = cls.read_manifest(path)
        weights_path = path / _WEIGHTS
        if not weights_path.is_file():
            raise _corrupt(path, f"missing {_WEIGHTS}")
        # One read serves both the digest check and the array load (every
        # fleet worker rehydrating from a shared artifact pays this path).
        payload = weights_path.read_bytes()
        recorded = manifest.get("weights_sha256")
        if recorded is not None:
            actual = hashlib.sha256(payload).hexdigest()
            if actual != recorded:
                raise _corrupt(
                    path,
                    f"weights digest mismatch (manifest {recorded[:12]}..., "
                    f"file {actual[:12]}...)",
                )
        try:
            network_spec = manifest["network"]
            layers = [_layer_from_spec(s) for s in network_spec["layers"]]
            network = Network(layers, name=str(network_spec.get("name", "network")))
        except (KeyError, TypeError) as exc:
            raise _corrupt(path, f"malformed network spec ({exc})") from exc
        params = network.parameters()
        try:
            with np.load(io.BytesIO(payload)) as archive:
                stored = {name: archive[name] for name in archive.files}
        except (OSError, ValueError) as exc:
            raise _corrupt(path, f"unreadable weights ({exc})") from exc
        if len(stored) != len(params):
            raise _corrupt(
                path,
                f"{len(stored)} stored parameter arrays for "
                f"{len(params)} network parameters",
            )
        for i, param in enumerate(params):
            key = f"param_{i:04d}"
            if key not in stored:
                raise _corrupt(path, f"missing parameter array {key}")
            value = stored[key]
            if value.shape != param.shape:
                raise _corrupt(
                    path,
                    f"parameter {key} has shape {value.shape}, "
                    f"expected {param.shape}",
                )
            param[...] = value.astype(np.float64, copy=False)
        try:
            weight_bits = int(manifest["weight_bits"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _corrupt(path, f"malformed stream configuration ({exc})") from exc
        quantized_params = cls._load_quantized(path, manifest, params, weight_bits)
        try:
            return cls(
                network,
                weight_bits=weight_bits,
                stream_length=int(manifest["stream_length"]),
                seed=int(manifest["seed"]),
                metadata=manifest.get("metadata") or {},
                quantized_params=quantized_params,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise _corrupt(path, f"malformed stream configuration ({exc})") from exc

    @classmethod
    def _load_quantized(
        cls,
        path: Path,
        manifest: dict[str, Any],
        params: list[np.ndarray],
        weight_bits: int,
    ) -> list[np.ndarray] | None:
        """Load ``quantized.npz`` when the manifest records it (>= 1.1).

        Pre-1.1 artifacts have no ``quantized_sha256`` field and yield
        ``None`` (the mapper quantises on the fly -- bit-identical); a
        manifest that records the file makes it mandatory, digest-checked
        and shape-validated like the float weights.
        """
        recorded = manifest.get("quantized_sha256")
        if recorded is None:
            return None
        quantized_path = path / _QUANTIZED
        if not quantized_path.is_file():
            raise _corrupt(
                path,
                f"manifest records quantized codes but {_QUANTIZED} is missing",
            )
        payload = quantized_path.read_bytes()
        actual = hashlib.sha256(payload).hexdigest()
        if actual != recorded:
            raise _corrupt(
                path,
                f"quantized digest mismatch (manifest {recorded[:12]}..., "
                f"file {actual[:12]}...)",
            )
        try:
            with np.load(io.BytesIO(payload)) as archive:
                stored = {name: archive[name] for name in archive.files}
        except (OSError, ValueError) as exc:
            raise _corrupt(path, f"unreadable quantized codes ({exc})") from exc
        if len(stored) != len(params):
            raise _corrupt(
                path,
                f"{len(stored)} quantized parameter arrays for "
                f"{len(params)} network parameters",
            )
        quantized_params = []
        for i, param in enumerate(params):
            key = f"qparam_{i:04d}"
            if key not in stored:
                raise _corrupt(path, f"missing quantized array {key}")
            codes = stored[key]
            if codes.shape != param.shape:
                raise _corrupt(
                    path,
                    f"quantized array {key} has shape {codes.shape}, "
                    f"expected {param.shape}",
                )
            quantized_params.append(dequantize_weights(codes, weight_bits))
        return quantized_params

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScModel(network={self.network.name!r}, "
            f"weight_bits={self.weight_bits}, "
            f"stream_length={self.stream_length}, seed={self.seed})"
        )
