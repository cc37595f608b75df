"""Build and load the compiled kernel library.

The native tier is deliberately dependency-light: ``_kernels.c`` is plain
C99 with no Python.h, compiled once per host into a cached shared library
and loaded through :mod:`cffi`'s ABI mode (``ffi.dlopen``).  ABI-mode
calls release the GIL, which is the property thread-sharded execution
(:mod:`repro.backends.parallel`) relies on.  The seam is intentionally small so a Numba or Cython
drop-in can replace this module without touching the wrappers in
:mod:`repro.sc.native`.

Everything here degrades gracefully: any failure (no compiler, no cffi,
big-endian host, ``REPRO_NATIVE=0``) raises :class:`NativeBuildError`
with a human-readable reason, which the package records and surfaces via
``native_error()`` -- callers then fall back to the NumPy kernels.

Environment knobs:

* ``REPRO_NATIVE=0`` (also ``off``/``false``) -- disable the tier.
* ``REPRO_NATIVE_CC`` -- compiler executable (default: ``cc``/``gcc``).
* ``REPRO_NATIVE_CACHE`` -- directory for the compiled library
  (default: ``~/.cache/repro-native``); hosts may share it, since each
  library is keyed by the host's instruction set.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = ["NativeBuildError", "load"]

_SOURCE = Path(__file__).with_name("_kernels.c")

#: ABI declarations matching ``_kernels.c`` exactly.
CDEF = """
void repro_ones_count(
    const uint64_t *words, int64_t rows, int64_t n_words, int64_t *out);

void repro_fused_xnor_counts_u8(
    const uint64_t *a, const uint64_t *b, const uint64_t *extra,
    int64_t d0, int64_t d1, int64_t d2,
    int64_t as0, int64_t as1, int64_t as2,
    int64_t bs0, int64_t bs1, int64_t bs2,
    int64_t es0, int64_t es1, int64_t es2,
    int64_t m, int64_t n_extra,
    int64_t n_words, int64_t length, uint64_t tail,
    uint8_t *out);

void repro_fused_xnor_counts_u16(
    const uint64_t *a, const uint64_t *b, const uint64_t *extra,
    int64_t d0, int64_t d1, int64_t d2,
    int64_t as0, int64_t as1, int64_t as2,
    int64_t bs0, int64_t bs1, int64_t bs2,
    int64_t es0, int64_t es1, int64_t es2,
    int64_t m, int64_t n_extra,
    int64_t n_words, int64_t length, uint64_t tail,
    uint16_t *out);

void repro_fused_xnor_chain(
    const uint64_t *a, const uint64_t *b,
    int64_t d0, int64_t d1, int64_t d2,
    int64_t as0, int64_t as1, int64_t as2,
    int64_t bs0, int64_t bs1, int64_t bs2,
    int64_t k, int64_t n_words, int64_t length, uint64_t tail,
    uint64_t *out);

void repro_fe_recurrence_u8(
    const uint8_t *counts, int64_t rows, int64_t length,
    int64_t half, int64_t low, int64_t high,
    int64_t n_words, uint64_t *out);

void repro_fe_recurrence_u16(
    const uint16_t *counts, int64_t rows, int64_t length,
    int64_t half, int64_t low, int64_t high,
    int64_t n_words, uint64_t *out);

void repro_pack_comparator_f64(
    const double *draws, const double *thresholds,
    int64_t lead, int64_t rows, int64_t length, int64_t n_words,
    uint64_t *out);

void repro_pack_comparator_i64(
    const int64_t *draws, const int64_t *thresholds,
    int64_t lead, int64_t rows, int64_t length, int64_t n_words,
    uint64_t *out);
"""

_BASE_FLAGS = ("-O3", "-std=c99", "-fPIC", "-shared")


class NativeBuildError(RuntimeError):
    """The compiled kernel tier could not be built or loaded."""


def _disabled_by_env() -> bool:
    return os.environ.get("REPRO_NATIVE", "").strip().lower() in (
        "0",
        "off",
        "false",
        "no",
    )


def _compiler() -> str:
    cc = os.environ.get("REPRO_NATIVE_CC")
    if cc:
        return cc
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    raise NativeBuildError("no C compiler found (cc/gcc/clang not on PATH)")


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


def _host_isa() -> str:
    """The instruction set a ``-march=native`` build targets on this host.

    The machine name plus the CPU feature flags the kernel reports
    (``flags`` on x86, ``Features`` on Arm).  Where those cannot be read
    the host name stands in, so such hosts never share a cached library.
    """
    flags: list[str] = []
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith(("flags", "Features")):
                    flags = sorted(line.partition(":")[2].split())
                    break
    except OSError:
        pass
    return " ".join([platform.machine(), *(flags or [platform.node()])])


def _library_path(source: str, cc: str) -> Path:
    # A library built with -march=native on one CPU can hold instructions
    # another lacks (SIGILL, no fallback), so caches shared between hosts
    # are keyed by the instruction set too.
    tag = hashlib.sha256(
        "\x00".join((source, cc, " ".join(_BASE_FLAGS), _host_isa())).encode()
    ).hexdigest()[:16]
    return _cache_dir() / f"repro_kernels_{tag}.so"


def _compile(cc: str, flags: tuple[str, ...], target: Path) -> None:
    """Compile the kernel source to ``target`` atomically."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix=target.stem + ".", dir=target.parent
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *flags, str(_SOURCE), "-o", tmp_name],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"compiler failed (exit {proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
        os.replace(tmp_name, target)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


def load():
    """Compile (if needed) and dlopen the kernel library.

    Returns:
        ``(ffi, lib)`` -- the cffi FFI object and the opened library.

    Raises:
        NativeBuildError: on any failure, with the reason; callers treat
            this as "tier unavailable" and fall back to NumPy.
    """
    if _disabled_by_env():
        raise NativeBuildError("disabled via REPRO_NATIVE environment variable")
    if sys.byteorder != "little":
        raise NativeBuildError(
            "native kernels assume a little-endian host (word layout)"
        )
    try:
        import cffi
    except ImportError as exc:
        raise NativeBuildError(f"cffi is not installed ({exc})") from exc

    try:
        source = _SOURCE.read_text()
    except OSError as exc:
        raise NativeBuildError(f"kernel source unreadable: {exc}") from exc

    cc = _compiler()
    target = _library_path(source, cc)
    if not target.exists():
        try:
            # -march=native unlocks hardware popcount/vector units; retry
            # without it for compilers/targets that reject the flag.
            _compile(cc, _BASE_FLAGS + ("-march=native",), target)
        except NativeBuildError:
            _compile(cc, _BASE_FLAGS, target)

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    try:
        lib = ffi.dlopen(str(target))
    except OSError as exc:
        raise NativeBuildError(f"dlopen failed: {exc}") from exc
    return ffi, lib
