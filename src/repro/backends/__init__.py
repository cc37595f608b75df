"""Pluggable execution backends for SC network inference.

The backend layer separates the *description* of a mapped network
(:class:`~repro.nn.sc_layers.ScNetworkMapper`) from the *simulation
strategy* that evaluates it.  Every strategy implements the
:class:`~repro.backends.base.Backend` protocol and registers itself under
a string key, so engines, reports, examples and benchmarks select an
execution path by name:

========================= ========= =========== =====================
name                      bit-exact progressive what it runs
========================= ========= =========== =====================
``float``                 no        no          trained float network
``sc-fast``               no        yes         fast statistical model
``bit-exact-legacy``      yes       yes         per-image oracle
``bit-exact-packed``      yes       yes         packed data plane
``bit-exact-native``      yes       yes         alias of bit-exact-packed
========================= ========= =========== =====================

All ``bit-exact-*`` backends produce *identical* scores; they only
differ in speed.  ``bit-exact-packed`` runs its hot kernels on the
compiled tier of :mod:`repro.sc.native` whenever it is available
(``use_native=False`` or ``REPRO_NATIVE=0`` force NumPy).
``batch_invariant`` backends guarantee per-image scores
independent of batch composition, which is what lets a ``workers``
option of :class:`~repro.api.Session` shard one batch across threads,
one backend replica per shard, bit-exactly.  ``progressive`` backends
additionally implement
:meth:`~repro.backends.base.Backend.forward_partial` (class scores at
intermediate stream-length checkpoints), the primitive the serving layer
(:mod:`repro.serve`) uses for micro-batched inference with
progressive-precision early exit.  To add a backend, subclass
:class:`~repro.backends.base.Backend`, set ``name`` plus the capability
flags, implement ``forward``, and decorate the class with
:func:`~repro.backends.registry.register_backend`.
"""

from repro.backends.base import Backend
from repro.backends.native import BitExactNativeBackend
from repro.backends.packed import BitExactPackedBackend
from repro.backends.registry import (
    backend_class,
    backend_names,
    create_backend,
    describe_backends,
    register_backend,
)
from repro.backends.standard import (
    BitExactLegacyBackend,
    FastStatisticalBackend,
    FloatBackend,
)

__all__ = [
    "Backend",
    "register_backend",
    "backend_class",
    "backend_names",
    "describe_backends",
    "create_backend",
    "FloatBackend",
    "FastStatisticalBackend",
    "BitExactLegacyBackend",
    "BitExactPackedBackend",
    "BitExactNativeBackend",
]
