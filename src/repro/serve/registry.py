"""Hot-reloadable multi-model registry: many artifacts behind one process.

The serving catalog between the versioned on-disk artifacts
(:class:`repro.api.ScModel`) and the network front end
(:mod:`repro.serve.http`): a :class:`ModelRegistry` maps model *names* to
artifact directories and lazily stands up one replica pool per model --
an in-process :class:`~repro.serve.ScInferenceService` by default, or a
multi-process :class:`~repro.serve.FleetRouter` when a
:class:`~repro.config.FleetConfig` is supplied.

Two properties carry the operational story:

* **atomic hot-reload** -- :meth:`ModelRegistry.scan` (or a direct
  :meth:`ModelRegistry.reload`) detects a changed artifact by its
  manifest digest, builds a *fresh* pool from the new weights, swaps it
  in under the registry lock, and retires the old pool in the
  background.  New requests route to the new pool the instant the swap
  lands; requests already submitted keep their futures on the old pool,
  whose graceful ``close()`` drains them to completion -- zero dropped
  in-flight requests, asserted under load in ``tests/test_http.py``.
* **typed lookups** -- an unknown model name raises
  :class:`~repro.errors.ModelNotFoundError` (HTTP 404 on the wire), so
  catalog misses never masquerade as request validation errors.

Registries are cheap to hold open: pools are built on first use, and
:func:`describe_artifact` reads only ``manifest.json``, so listing a
catalog (``python -m repro models``, ``GET /v1/models``) never loads
weights or spawns workers.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import FleetConfig, PredictOptions, ServiceConfig
from repro.errors import ConfigurationError, FleetError, ModelNotFoundError

__all__ = ["ModelInfo", "ModelRegistry", "describe_artifact"]

logger = logging.getLogger("repro.serve.registry")

_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class ModelInfo:
    """Catalog metadata of one registered artifact (manifest only).

    Attributes:
        name: registry name requests address the model by.
        path: artifact directory.
        format_version: artifact format as ``"major.minor"``.
        weight_bits: binary weight precision recorded in the manifest.
        stream_length: full stochastic stream length ``N``.
        seed: SNG seed of the artifact.
        sha256: hex digest of the manifest file -- the hot-reload change
            detector (the manifest embeds the payload digests, so any
            weight change changes this digest too).
        arch: ``metadata["arch"]`` when the artifact recorded one.
        n_parameters: parameter tensors in the artifact.
    """

    name: str
    path: str
    format_version: str
    weight_bits: int
    stream_length: int
    seed: int
    sha256: str
    arch: str | None
    n_parameters: int

    def listing(self) -> dict:
        """The JSON shape served by ``GET /v1/models`` and the CLI."""
        return {
            "name": self.name,
            "path": self.path,
            "format_version": self.format_version,
            "weight_bits": self.weight_bits,
            "stream_length": self.stream_length,
            "seed": self.seed,
            "sha256": self.sha256,
            "arch": self.arch,
            "n_parameters": self.n_parameters,
        }


def describe_artifact(path: str | Path, name: str | None = None) -> ModelInfo:
    """Catalog metadata of an artifact directory without loading weights.

    Version-checks the manifest via
    :meth:`repro.api.ScModel.read_manifest` and hashes the manifest file
    itself -- the digest the registry compares on :meth:`~ModelRegistry.scan`
    to decide whether an artifact changed on disk.

    Raises:
        ConfigurationError: when ``path`` holds no readable artifact.
    """
    from repro.api import ScModel

    path = Path(path)
    manifest = ScModel.read_manifest(path)
    digest = hashlib.sha256((path / _MANIFEST).read_bytes()).hexdigest()
    version = manifest["format_version"]
    metadata = manifest.get("metadata") or {}
    network = manifest.get("network") or {}
    return ModelInfo(
        name=name or path.name,
        path=str(path),
        format_version=f"{version[0]}.{version[1]}",
        weight_bits=int(manifest["weight_bits"]),
        stream_length=int(manifest["stream_length"]),
        seed=int(manifest["seed"]),
        sha256=digest,
        arch=metadata.get("arch"),
        n_parameters=int(network.get("n_parameters", 0)),
    )


class _ModelPool:
    """One generation of one model's replica pool (service or fleet)."""

    def __init__(
        self,
        info: ModelInfo,
        service_config: ServiceConfig,
        fleet_config: FleetConfig | None,
        generation: int,
    ) -> None:
        self.info = info
        self.generation = generation
        self.stream_length = info.stream_length
        if fleet_config is not None:
            from repro.serve.fleet import FleetRouter

            self.kind = "fleet"
            self.service_config = fleet_config.worker_service
            self._session = None
            self._backend = self._router = FleetRouter(info.path, fleet_config)
        else:
            from repro.api import Session

            self.kind = "service"
            self.service_config = service_config
            self._router = None
            self._session = Session.from_artifact(
                info.path, backend=service_config.backend
            )
            self._backend = self._session.serve(service_config)

    def submit(self, images: np.ndarray, options: PredictOptions | None = None):
        """Enqueue a request on this generation's pool (a ``Future``)."""
        return self._backend.submit(images, options)

    def cancel(self, future) -> bool:
        """Best-effort cancellation of a request not yet answered."""
        return self._backend.cancel(future)

    def snapshot(self) -> dict:
        return self._backend.snapshot()

    def close(self) -> None:
        """Graceful drain: finish in-flight requests, then release."""
        self._backend.close()
        if self._session is not None:
            self._session.close()


class _Entry:
    """One registered name: catalog info plus the live pool (if built)."""

    __slots__ = ("info", "pool", "lock")

    def __init__(self, info: ModelInfo) -> None:
        self.info = info
        self.pool: _ModelPool | None = None
        self.lock = threading.Lock()  # serialises pool build / reload


class ModelRegistry:
    """Many named model artifacts behind one process, hot-reloadable.

    Args:
        models: explicit ``{name: artifact_path}`` catalog entries.
        root: directory whose immediate subdirectories holding a
            ``manifest.json`` are auto-registered under their directory
            names (and re-scanned by :meth:`scan`).
        service: per-model :class:`~repro.config.ServiceConfig` for the
            in-process pools (``None`` = service defaults).
        fleet: when set, every model is served by a multi-process
            :class:`~repro.serve.FleetRouter` built from this
            :class:`~repro.config.FleetConfig` instead of an in-process
            service.

    Raises:
        ConfigurationError: when an explicit entry is not a readable
            artifact, or the catalog would be empty-by-construction
            (neither ``models`` nor ``root`` given).
    """

    def __init__(
        self,
        models: dict[str, str | Path] | None = None,
        root: str | Path | None = None,
        service: ServiceConfig | None = None,
        fleet: FleetConfig | None = None,
    ) -> None:
        if not models and root is None:
            raise ConfigurationError(
                "a registry needs explicit models={...} entries or a root "
                "directory to scan"
            )
        self._service_config = service or ServiceConfig()
        self._fleet_config = fleet
        self._root = Path(root) if root is not None else None
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        self._generation = 0
        self._retiring: list[threading.Thread] = []
        self._closed = False
        for name, path in (models or {}).items():
            self.add(name, path)
        if self._root is not None:
            self.scan()

    # -- catalog ---------------------------------------------------------------

    def add(self, name: str, path: str | Path) -> ModelInfo:
        """Register (or re-point) a model name at an artifact directory."""
        if not name or "/" in name:
            raise ConfigurationError(
                f"model names must be non-empty and slash-free, got {name!r}"
            )
        info = describe_artifact(path, name=name)
        with self._lock:
            self._check_open()
            entry = self._entries.get(name)
            if entry is None:
                self._entries[name] = _Entry(info)
            else:
                entry.info = info
        return info

    def remove(self, name: str) -> None:
        """Drop a model from the catalog, retiring its pool gracefully."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is not None and entry.pool is not None:
            self._retire(entry.pool)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def models(self) -> list[dict]:
        """Catalog listing (manifest metadata; pools are not built)."""
        with self._lock:
            entries = [
                (entry.info, entry.pool) for entry in self._entries.values()
            ]
        listing = []
        for info, pool in sorted(entries, key=lambda pair: pair[0].name):
            row = info.listing()
            row["loaded"] = pool is not None
            row["generation"] = pool.generation if pool is not None else None
            row["serving"] = "fleet" if self._fleet_config else "service"
            listing.append(row)
        return listing

    def info(self, name: str) -> ModelInfo:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ModelNotFoundError(
                    f"no model named {name!r} in the registry "
                    f"(serving: {', '.join(sorted(self._entries)) or 'none'})",
                    model=name,
                )
            return entry.info

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- pools -----------------------------------------------------------------

    def pool(self, name: str) -> _ModelPool:
        """The model's live pool, built on first use.

        Raises:
            ModelNotFoundError: when ``name`` is not in the catalog.
        """
        with self._lock:
            self._check_open()
            entry = self._entries.get(name)
        if entry is None:
            raise ModelNotFoundError(
                f"no model named {name!r} in the registry "
                f"(serving: {', '.join(self.names()) or 'none'})",
                model=name,
            )
        pool = entry.pool
        if pool is not None:
            return pool
        with entry.lock:
            if entry.pool is None:
                entry.pool = self._build_pool(entry.info)
            return entry.pool

    def submit(
        self, name: str, images: np.ndarray, options=None
    ) -> tuple[_ModelPool, Future]:
        """Submit to the model's current pool.

        Returns the pool that took the request together with its future,
        which resolves to an :class:`~repro.serve.InferenceResponse`.  A
        hot reload may swap the model's pool while the request is in
        flight, so callers label the answer with this pool's
        ``generation`` and cancel through this pool, never through a
        fresh :meth:`pool` lookup.

        A request can race a hot-reload: the looked-up pool may finish
        draining between the lookup and the submit.  That narrow window
        surfaces as "service is closed" / ``FleetError(reason=
        "draining")`` and is retried once against the freshly swapped
        pool -- callers never see a reload as an error.
        """
        last_error: Exception | None = None
        for attempt in range(2):
            pool = self.pool(name)
            try:
                return pool, pool.submit(images, options)
            except (ConfigurationError, FleetError) as exc:
                with self._lock:
                    entry = self._entries.get(name)
                swapped = entry is not None and entry.pool is not pool
                if attempt == 0 and swapped:
                    last_error = exc
                    continue
                raise
        raise last_error  # pragma: no cover - loop always returns/raises

    # -- hot reload ------------------------------------------------------------

    def reload(self, name: str) -> ModelInfo:
        """Rebuild the model's pool from its artifact and swap atomically.

        The new pool is constructed *outside* the registry lock (weight
        loading is slow), then swapped in under it; the old pool -- with
        every request already submitted to it still in flight -- drains
        in a background retirement thread.
        """
        with self._lock:
            self._check_open()
            entry = self._entries.get(name)
        if entry is None:
            raise ModelNotFoundError(
                f"no model named {name!r} in the registry", model=name
            )
        with entry.lock:
            info = describe_artifact(entry.info.path, name=name)
            new_pool = self._build_pool(info)
            with self._lock:
                old_pool, entry.pool, entry.info = entry.pool, new_pool, info
        if old_pool is not None:
            logger.info(
                "registry: hot-reloaded %r (generation %d -> %d, sha %s)",
                name,
                old_pool.generation,
                new_pool.generation,
                info.sha256[:12],
                extra={
                    "obs_event": {
                        "kind": "model_reload",
                        "model": name,
                        "generation": new_pool.generation,
                        "sha256": info.sha256,
                    }
                },
            )
            self._retire(old_pool)
        return info

    def scan(self) -> dict[str, list[str]]:
        """Reconcile the catalog with the filesystem.

        Re-reads every entry's manifest digest and hot-reloads the
        changed ones; under a ``root`` directory, new artifact
        subdirectories are added and vanished ones removed.

        Returns:
            ``{"added": [...], "removed": [...], "reloaded": [...]}``.
        """
        added: list[str] = []
        removed: list[str] = []
        reloaded: list[str] = []
        if self._root is not None and self._root.is_dir():
            on_disk = {
                child.name: child
                for child in sorted(self._root.iterdir())
                if (child / _MANIFEST).is_file()
            }
            with self._lock:
                known = set(self._entries)
            for name, path in on_disk.items():
                if name not in known:
                    try:
                        self.add(name, path)
                        added.append(name)
                    except ConfigurationError as exc:
                        logger.warning(
                            "registry: skipping unreadable artifact %s: %s",
                            path,
                            exc,
                        )
            for name in known - set(on_disk):
                self.remove(name)
                removed.append(name)
        with self._lock:
            entries = {
                name: entry.info for name, entry in self._entries.items()
            }
        for name, info in entries.items():
            if name in added:
                continue
            try:
                current = describe_artifact(info.path, name=name)
            except ConfigurationError as exc:
                logger.warning(
                    "registry: %r became unreadable, keeping the loaded "
                    "generation: %s",
                    name,
                    exc,
                )
                continue
            if current.sha256 != info.sha256:
                self.reload(name)
                reloaded.append(name)
        return {"added": added, "removed": removed, "reloaded": reloaded}

    # -- observability ---------------------------------------------------------

    def snapshot(self) -> dict[str, dict | None]:
        """Per-model pool snapshots (``None`` for never-used pools)."""
        with self._lock:
            entries = list(self._entries.items())
        out: dict[str, dict | None] = {}
        for name, entry in sorted(entries):
            pool = entry.pool
            if pool is None:
                out[name] = None
                continue
            try:
                snap = pool.snapshot()
            except Exception:  # pragma: no cover - draining race
                out[name] = None
                continue
            out[name] = {
                "kind": pool.kind,
                "generation": pool.generation,
                "snapshot": snap,
            }
        return out

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drain every pool (and every retiring pool) and close up."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._entries.values())
            retiring = list(self._retiring)
        for entry in entries:
            if entry.pool is not None:
                try:
                    entry.pool.close()
                except Exception:  # pragma: no cover - best-effort drain
                    logger.exception("registry: pool close failed")
        for thread in retiring:
            thread.join()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -------------------------------------------------------------

    def _build_pool(self, info: ModelInfo) -> _ModelPool:
        with self._lock:
            self._check_open()
            self._generation += 1
            generation = self._generation
        return _ModelPool(
            info, self._service_config, self._fleet_config, generation
        )

    def _retire(self, pool: _ModelPool) -> None:
        """Drain a replaced pool off the caller's thread.

        ``close()`` blocks until every submitted request resolves -- the
        zero-drop half of the hot-reload contract -- so it must not run
        on the thread that swapped the pool (e.g. an HTTP scan tick).
        """
        thread = threading.Thread(
            target=pool.close,
            name=f"registry-retire-{pool.info.name}-g{pool.generation}",
            daemon=True,
        )
        thread.start()
        with self._lock:
            self._retiring = [
                t for t in self._retiring if t.is_alive()
            ] + [thread]

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("registry is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelRegistry(models={self.names()!r}, "
            f"serving={'fleet' if self._fleet_config else 'service'})"
        )
