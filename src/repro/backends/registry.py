"""String-keyed registry of execution backends.

One table maps each registry name to its backend class.  Consumers look
backends up by name with :func:`backend_class` / :func:`create_backend`
and enumerate them with :func:`backend_names`; a backend is built from
its name and the mapper alone.  Unknown names raise a
:class:`~repro.errors.ConfigurationError` that lists every registered
backend, so a typo in a config file or CLI flag fails with an actionable
message instead of an ``AttributeError`` deep inside the mapper.
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.backends.native import BitExactNativeBackend
from repro.backends.packed import BitExactPackedBackend
from repro.backends.standard import (
    BitExactLegacyBackend,
    FastStatisticalBackend,
    FloatBackend,
)
from repro.errors import ConfigurationError
from repro.nn.sc_layers import ScNetworkMapper

__all__ = [
    "backend_class",
    "backend_names",
    "describe_backends",
    "create_backend",
]

_REGISTRY: dict[str, type[Backend]] = {
    "float": FloatBackend,
    "sc-fast": FastStatisticalBackend,
    "bit-exact-legacy": BitExactLegacyBackend,
    "bit-exact-packed": BitExactPackedBackend,
    "bit-exact-native": BitExactNativeBackend,
}


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def describe_backends() -> str:
    """One line per registered backend: ``name -- description``, sorted.

    Intended for CLI ``--backend`` help text (examples and benchmarks
    build their epilogs from it) so that the flag documentation can never
    drift from the registry contents.
    """
    lines = []
    for name in backend_names():
        cls = _REGISTRY[name]
        description = cls.description or cls.__name__
        note = getattr(cls, "availability_note", None)
        if callable(note):
            # Backends with host-dependent tiers (e.g. the compiled native
            # kernels) report their availability inline, appended to the
            # description so the "name -- description" line format holds.
            try:
                text = note()
            except Exception:  # pragma: no cover - defensive
                text = None
            if text:
                description = f"{description} [{text}]"
        lines.append(f"{name} -- {description}")
    return "\n".join(lines)


def backend_class(name: str) -> type[Backend]:
    """Look up a backend class by registry name.

    Raises:
        ConfigurationError: when ``name`` is not registered; the message
            lists every known backend.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(repr(n) for n in backend_names()) or "<none>"
        raise ConfigurationError(
            f"unknown backend {name!r}; registered backends are: {known}"
        ) from None


def create_backend(name: str, mapper: ScNetworkMapper) -> Backend:
    """Construct a backend by name for the given mapper.

    Args:
        name: registry key (see :func:`backend_names`).
        mapper: the SC network mapper the backend will execute.
    """
    return backend_class(name)(mapper)
