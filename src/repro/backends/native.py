"""``bit-exact-native``: a second registry name for ``bit-exact-packed``,
kept so artifacts, scripts and the CLI that name it keep resolving."""

from __future__ import annotations

from repro.backends.packed import BitExactPackedBackend
from repro.backends.registry import register_backend

# Benchmark tracing wraps the stepper under this module's name too.
from repro.blocks.batched import feature_extraction_recurrence_words  # noqa: F401

__all__ = ["BitExactNativeBackend"]


@register_backend
class BitExactNativeBackend(BitExactPackedBackend):
    """Alias of :class:`~repro.backends.packed.BitExactPackedBackend`."""

    name = "bit-exact-native"
    description = "alias of bit-exact-packed"
