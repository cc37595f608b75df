"""Compiled native kernel tier: bit-identity, fallback, thread sharding.

The contract under test is the one the backend registry advertises:
``bit-exact-packed`` runs the compiled tier whenever it is available and
the NumPy kernels otherwise (``use_native=False`` pins them), with
bit-identical scores on either tier and graceful degradation (never an
error) when the tier is missing; ``bit-exact-native`` is a second name
for it; and ``workers`` shards its batches across threads without
changing a single score.
"""

import ctypes
import io
import logging
import mmap
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from nets import tiny_cnn

from repro.api import PredictOptions, Session
from repro.backends import (
    BitExactNativeBackend,
    BitExactPackedBackend,
    create_backend,
    describe_backends,
)
from repro.blocks.batched import feature_extraction_recurrence_words
from repro.errors import ConfigurationError
from repro.nn.architectures import LayerSpec, build_network
from repro.nn.sc_layers import ScNetworkMapper
from repro.sc import native
from repro.sc.native import _build
from repro.sc.packed import (
    fused_xnor_column_counts,
    fused_xnor_majority_chain,
    pack_bits,
    words_for_length,
)
from repro.workspace import Workspace

needs_native = pytest.mark.skipif(
    not native.available(),
    reason=f"compiled native tier unavailable: {native.native_error()}",
)


@pytest.fixture(scope="module")
def network():
    return tiny_cnn()


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((6, 1, 28, 28))


def _random_words(rng, shape, length):
    bits = (rng.random(shape[:-1] + (length,)) < 0.5).astype(np.uint8)
    return pack_bits(bits)


# -- kernel-level bit-identity -------------------------------------------------


@needs_native
@pytest.mark.parametrize("length", [1, 63, 64, 100, 1000, 8192])
def test_fused_counts_matches_numpy(length):
    rng = np.random.default_rng(length)
    a = _random_words(rng, (3, 5, words_for_length(length)), length)
    b = _random_words(rng, (3, 5, words_for_length(length)), length)
    extra = _random_words(rng, (3, 2, words_for_length(length)), length)
    expected = fused_xnor_column_counts(a, b, length, extra=extra)
    got = native.fused_xnor_column_counts(a, b, length, extra=extra)
    assert got is not None
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@needs_native
def test_fused_counts_broadcast_and_u16():
    # Broadcast leading axes and an m_total past the uint8 count range.
    length = 300
    rng = np.random.default_rng(0)
    w = words_for_length(length)
    a = _random_words(rng, (4, 1, 300, w), length)
    b = _random_words(rng, (1, 2, 300, w), length)
    expected = fused_xnor_column_counts(a, b, length)
    got = native.fused_xnor_column_counts(a, b, length)
    assert got is not None
    assert got.dtype == np.uint16
    np.testing.assert_array_equal(got, expected)


# Every total up to 40 and every level edge (2^k - 1, 2^k, 2^k + 1) up to
# the first uint16 totals, so that all-one products reach each top level
# bit.
_SWEEP_TOTALS = list(range(1, 41)) + [
    63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513,
]
# Every tail of a one- to three-word row, a lone four-word block, one
# eight-word block with a one-bit tail word, a block plus two one-word
# remainders, two blocks with the tail in the second, and 16 blocks.
_SWEEP_LENGTHS = list(range(1, 131)) + [256, 449, 577, 1000, 8192]


def _sweep_cases():
    # Each length with one uint8 and one uint16 total, each total with a
    # lone word, a block plus remainders and a tail inside a block.
    for i, length in enumerate(_SWEEP_LENGTHS):
        yield _SWEEP_TOTALS[i % len(_SWEEP_TOTALS)], length
        yield (257, 513)[i % 2], length
    for total in _SWEEP_TOTALS:
        for length in (64, 577, 1000):
            yield total, length


def _guarded(arr):
    """``arr`` copied into memory that ends where an unreadable page
    begins, so a kernel reading past its last word faults."""
    libc = ctypes.CDLL(None, use_errno=True)
    page = mmap.PAGESIZE
    size = -(-arr.nbytes // page) * page
    region = mmap.mmap(-1, size + page)
    base = ctypes.addressof(ctypes.c_char.from_buffer(region))
    if libc.mprotect(ctypes.c_void_p(base + size), page, 0):  # PROT_NONE
        raise OSError(ctypes.get_errno(), "mprotect failed")
    out = np.frombuffer(region, arr.dtype, arr.size, size - arr.nbytes)
    out = out.reshape(arr.shape)
    out[...] = arr
    return out


def _guarded_rows(rng, k, length, kinds):
    """``(len(kinds), k, words)`` packed streams in guarded memory, each
    row of ``k`` random, all-one or all-zero streams."""
    bits = np.stack([
        rng.random((k, length)) < 0.5 if kind == "random"
        else np.full((k, length), kind == "ones")
        for kind in kinds
    ])
    return _guarded(pack_bits(bits))


def _product_operands(rng, k, length):
    """``(3, 1, k, W)`` against ``(1, 3, k, W)``, as the backend passes
    them: the ``(3, 3)`` products are random, all one and all zero."""
    a = _guarded_rows(rng, k, length, ("random", "ones", "ones"))[:, None]
    b = _guarded_rows(rng, k, length, ("random", "ones", "zeros"))[None]
    return a, b


def _sweep_operands(rng, total, length):
    """Broadcast ``(3, 3)`` rows whose products are random, all one and
    all zero (with extra planes to match), ``total`` planes in all."""
    n_extra = min(total - 1, total % 3)
    a, b = _product_operands(rng, total - n_extra, length)
    extra = (
        _guarded_rows(rng, n_extra, length, ("random", "ones", "zeros"))[:, None]
        if n_extra
        else None
    )
    return a, b, extra


_SENTINEL = np.uint64(0xA5A5A5A5A5A5A5A5)


def _fenced(shape, contiguous):
    """A ``uint64`` output of ``shape`` with sentinel words after it, or,
    as a non-contiguous slice (the wrappers' staging branch), on both
    sides of each row.  Returns it and a check that the sentinels hold."""
    if contiguous:
        size = int(np.prod(shape))
        buf = np.full(size + 8, _SENTINEL, np.uint64)
        return buf[:size].reshape(shape), lambda: (buf[size:] == _SENTINEL).all()
    buf = np.full(shape[:-1] + (shape[-1] + 2,), _SENTINEL, np.uint64)
    return buf[..., 1:-1], lambda: (buf[..., [0, -1]] == _SENTINEL).all()


@needs_native
def test_fused_counts_sweep_matches_numpy():
    """The compiled fused counts equal the NumPy kernel over every total
    and length of a small domain, for both count widths, on zero-stride
    leading axes, without reading past the operands (they end at an
    unreadable page) or writing past the counts."""
    rng = np.random.default_rng(0)
    for total, length in _sweep_cases():
        a, b, extra = _sweep_operands(rng, total, length)
        expected = fused_xnor_column_counts(a, b, length, extra=extra)
        assert expected.dtype == (np.uint8 if total <= 255 else np.uint16)
        buf = np.full(expected.size + 64, 0xA5, expected.dtype)
        out = buf[: expected.size].reshape(expected.shape)
        case = f"total {total}, N {length}"
        got = native.fused_xnor_column_counts(a, b, length, extra=extra, out=out)
        assert got is out, case
        np.testing.assert_array_equal(out, expected, err_msg=case)
        assert (buf[expected.size :] == 0xA5).all(), f"wrote past counts: {case}"


@needs_native
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 16])
def test_fused_chain_matches_numpy(k):
    length = 200
    rng = np.random.default_rng(k)
    w = words_for_length(length)
    a = _random_words(rng, (5, k, w), length)
    b = _random_words(rng, (5, k, w), length)
    np.testing.assert_array_equal(
        native.fused_xnor_majority_chain(a, b, length),
        fused_xnor_majority_chain(a, b, length),
    )


# Every chain length up to 40 and around the 64- and 128-product edges.
_CHAIN_SWEEP_KS = list(range(1, 41)) + [63, 64, 65, 127, 128, 129]


@needs_native
def test_fused_chain_sweep_matches_numpy():
    """The compiled majority chain equals the NumPy kernel over every
    chain length and stream length of a small domain, on operands
    broadcast as the backend passes them (which differ in their leading
    strides) and ending at an unreadable page, into contiguous and
    staged outputs fenced by sentinels."""
    rng = np.random.default_rng(0)
    cases = [
        (_CHAIN_SWEEP_KS[i % len(_CHAIN_SWEEP_KS)], length)
        for i, length in enumerate(_SWEEP_LENGTHS)
    ] + [(k, length) for k in _CHAIN_SWEEP_KS for length in (64, 577, 1000)]
    for i, (k, length) in enumerate(cases):
        a, b = _product_operands(rng, k, length)
        expected = fused_xnor_majority_chain(a, b, length)
        out, fence_holds = _fenced(expected.shape, contiguous=i % 2 == 0)
        case = f"k {k}, N {length}, contiguous {i % 2 == 0}"
        got = native.fused_xnor_majority_chain(
            a, b, length, out=out, workspace=Workspace()
        )
        assert got is out, case
        np.testing.assert_array_equal(out, expected, err_msg=case)
        assert fence_holds(), f"wrote past the output: {case}"


# (count dtype, half, max count): a conv block, uint8 counts at the dtype's
# maximum, an FC block, and uint16 counts at the dtype's maximum -- the
# last two at the edges of the kernel's int16 / int32 lanes.
_FE_CASES = [
    (np.uint8, 4, 10),
    (np.uint8, 127, 255),
    (np.uint16, 196, 393),
    (np.uint16, 32767, 65535),
]


def _fe_counts(rng, dtype, max_count, rows, length):
    counts = rng.integers(0, max_count + 1, size=(rows, length)).astype(dtype)
    counts.flat[::5] = max_count
    return counts


def _assert_fe_stepper_matches(counts, half, low, high):
    got = native.feature_extraction_recurrence_words(counts, half, low, high)
    assert got is not None
    np.testing.assert_array_equal(
        got,
        feature_extraction_recurrence_words(counts, half, low, high),
        err_msg=f"shape {counts.shape}, bounds [{low}, {high}], half {half}",
    )


@needs_native
@pytest.mark.parametrize(
    "dtype, half, max_count",
    _FE_CASES,
    ids=["uint8", "uint8-max", "uint16", "uint16-max"],
)
def test_fe_stepper_matches_numpy(dtype, half, max_count):
    """Partial and full 64-row tiles, tail and full words, signed bounds."""
    rng = np.random.default_rng(7)
    for rows in (1, 63, 64, 65, 129):
        for length in (1, 63, 64, 65, 1000, 8192):
            counts = _fe_counts(rng, dtype, max_count, rows, length)
            _assert_fe_stepper_matches(counts, half, -half, half + 1)


# Every row count of one and two 64-row tiles' edges, every tail of a
# one- to three-word row, and longer rows.
_FE_SWEEP_ROWS = list(range(1, 66)) + [127, 128, 129]
_FE_SWEEP_LENGTHS = list(range(1, 131)) + [256, 1000]


@needs_native
def test_fe_stepper_sweep_matches_numpy():
    """The compiled stepper equals the NumPy stepper over every row count
    and length of a small domain, for each dtype and bound pair at
    random, all-max and all-zero counts, on counts that end at an
    unreadable page."""
    rng = np.random.default_rng(0)
    cases = [
        (_FE_SWEEP_ROWS[i % len(_FE_SWEEP_ROWS)], length)
        for i, length in enumerate(_FE_SWEEP_LENGTHS)
    ] + [(rows, length) for rows in _FE_SWEEP_ROWS for length in (63, 64, 130)]
    for i, (rows, length) in enumerate(cases):
        # Every dtype / bound pair meets every count kind in 12 cases.
        dtype, half, max_count = _FE_CASES[i % len(_FE_CASES)]
        kind = i // len(_FE_CASES) % 3
        if kind == 0:
            counts = _fe_counts(rng, dtype, max_count, rows, length)
        else:
            counts = np.full((rows, length), max_count if kind == 1 else 0, dtype)
        _assert_fe_stepper_matches(_guarded(counts), half, -half, half + 1)


@needs_native
@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from(_FE_CASES),
    rows=st.integers(1, 200),
    length=st.integers(1, 1100),
    signed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fe_stepper_matches_numpy_property(case, rows, length, signed, seed):
    dtype, half, max_count = case
    counts = _fe_counts(np.random.default_rng(seed), dtype, max_count, rows, length)
    low, high = (-half, half + 1) if signed else (0, 2 * half + 1)
    _assert_fe_stepper_matches(counts, half, low, high)


@needs_native
@pytest.mark.parametrize("low, high", [(1, 5), (-4, -6)])
def test_fe_stepper_leaves_rejected_bounds_to_the_reference(low, high):
    """Bounds without 0 in them are a ConfigurationError, never words."""
    counts = np.random.default_rng(3).integers(0, 10, (4, 100)).astype(np.uint8)
    assert native.feature_extraction_recurrence_words(counts, 4, low, high) is None
    with pytest.raises(ConfigurationError):
        feature_extraction_recurrence_words(counts, 4, low, high)


@needs_native
def test_fe_stepper_lane_edge():
    """uint8 counts step in int16 lanes: the widest bounds whose reachable
    values fit run natively; one step wider falls back."""
    counts = _fe_counts(np.random.default_rng(4), np.uint8, 255, 65, 600)
    _assert_fe_stepper_matches(counts, 4, -32763, 32512)
    for low, high in ((-32764, 32512), (-32763, 32513)):
        assert native.feature_extraction_recurrence_words(counts, 4, low, high) is None
    wide = counts.astype(np.uint16)
    assert native.feature_extraction_recurrence_words(wide, 4, -4, 2**31) is None


@needs_native
def test_pack_comparator_floats_matches_numpy():
    """The compiled SNG comparator packs exactly what the mapper's NumPy
    fallback packs: draws shared under a leading batch axis, a tail word,
    and a non-contiguous ``out`` slice staged through the workspace."""
    rng = np.random.default_rng(5)
    rows, length = 40, 1000
    draws = rng.random((rows, length))
    thresholds = rng.random((3, rows))
    expected = pack_bits(draws < thresholds[..., None])
    out = np.empty((3, rows, words_for_length(length)), dtype=np.uint64)
    assert native.pack_comparator_floats(draws, thresholds, out) is out
    np.testing.assert_array_equal(out, expected)
    # A value-chunk slice of the whole stream tensor, as the mapper passes it.
    wide = np.zeros((3, rows + 8, words_for_length(length)), dtype=np.uint64)
    chunk = wide[:, 4 : 4 + rows]
    assert not chunk.flags["C_CONTIGUOUS"]
    got = native.pack_comparator_floats(
        draws, thresholds, chunk, workspace=Workspace()
    )
    assert got is chunk
    np.testing.assert_array_equal(chunk, expected)
    assert not wide[:, :4].any() and not wide[:, 4 + rows :].any()


@needs_native
def test_pack_comparator_sweep_matches_numpy():
    """The compiled comparator equals the NumPy compare-and-pack over
    every length of a small domain, under 0, 1 and 2 leading threshold
    axes, with thresholds of exactly 0.0 and 1.0 and one equal to a draw,
    on draws that end at an unreadable page, into contiguous and staged
    outputs fenced by sentinels."""
    rng = np.random.default_rng(0)
    rows = 5
    leads = [(), (3,), (2, 3)]
    for i, length in enumerate(list(range(1, 131)) + [256, 449, 1000, 8192]):
        draws = rng.random((rows, length))
        draws[0, 0] = 0.0
        thresholds = rng.random(leads[i % 3] + (rows,))
        thresholds[..., 0] = 0.0  # never below, not even the 0.0 draw
        thresholds[..., 1] = 1.0  # always below
        thresholds[..., 2] = draws[2, length // 2]  # a tie reads 0
        expected = pack_bits(draws < thresholds[..., None])
        out, fence_holds = _fenced(expected.shape, contiguous=i % 2 == 0)
        case = f"N {length}, lead {leads[i % 3]}, contiguous {i % 2 == 0}"
        got = native.pack_comparator_floats(
            _guarded(draws), thresholds, out, workspace=Workspace()
        )
        assert got is out, case
        np.testing.assert_array_equal(out, expected, err_msg=case)
        assert fence_holds(), f"wrote past the output: {case}"


# -- backend-level drop-in equivalence ----------------------------------------


@pytest.mark.parametrize("stream_length", [100, 1000, 8192])
def test_native_backend_bit_identical(network, images, stream_length):
    """Both kernel tiers equal the legacy oracle, tail words included."""
    batch = images if stream_length < 8192 else images[:2]
    mapper = ScNetworkMapper(network, stream_length=stream_length, seed=7)
    reference = create_backend("bit-exact-legacy", mapper).forward(batch)
    numpy_tier = BitExactPackedBackend(mapper, use_native=False)
    np.testing.assert_array_equal(numpy_tier.forward(batch), reference)
    scores = create_backend("bit-exact-native", mapper).forward(batch)
    np.testing.assert_array_equal(scores, reference)


def test_native_forward_partial_checkpoints_exact(network, images):
    mapper = ScNetworkMapper(network, stream_length=1000, seed=7)
    points = (100, 250, 500, 1000)
    packed = BitExactPackedBackend(mapper, use_native=False)
    nat = create_backend("bit-exact-native", mapper)
    np.testing.assert_array_equal(
        nat.forward_partial(images, points),
        packed.forward_partial(images, points),
    )
    # The final checkpoint is the full forward pass, exactly.
    np.testing.assert_array_equal(
        nat.forward_partial(images, points)[-1], nat.forward(images)
    )


def test_use_native_false_runs_numpy_kernels(network, images):
    mapper = ScNetworkMapper(network, stream_length=200, seed=7)
    backend = BitExactPackedBackend(mapper, use_native=False)
    assert not backend.native_active
    np.testing.assert_array_equal(
        backend.forward(images),
        create_backend("bit-exact-packed", mapper).forward(images),
    )


def test_default_backend_books_the_compiled_tier(
    monkeypatch, network, images, tmp_path
):
    """The default bit-exact path -- ``create_backend`` and a default
    ``Session.from_artifact`` alike -- runs every hot kernel on the
    compiled tier whenever it is available, and books only NumPy when
    the tier is not."""
    default = {"native"} if native.available() else {"numpy"}
    with Session.from_network(network, stream_length=200, seed=7) as session:
        path = session.save(tmp_path / "model")
    pins = ((native.available, default), (lambda: False, {"numpy"}))
    for available, tiers in pins:
        monkeypatch.setattr(native, "available", available)
        mapper = ScNetworkMapper(network, stream_length=200, seed=7)
        backend = create_backend("bit-exact-packed", mapper)
        backend.forward(images[:2])
        with Session.from_artifact(path) as session:
            session.predict(images[:2])
            booked = session.obs_snapshot()["kernels"]
        for snapshot in (backend.kernel_snapshot(), booked):
            assert set(snapshot) == {
                "fused_counts", "fused_chain", "recurrence_words", "stream_words"
            }
            for kernel, cells in snapshot.items():
                assert set(cells) == tiers, (kernel, cells)


@needs_native
def test_odd_plane_count_layer_counts_on_the_compiled_tier(images):
    """A dense layer of 254 inputs counts 255 planes (products and bias,
    no neutral plane): its ``uint8`` counts run on the compiled tier like
    every other layer's, and the scores equal legacy."""
    specs = [
        LayerSpec(kind="conv", name="C", kernel=3, channels=2),
        LayerSpec(kind="pool", name="P", kernel=4, stride=4),
        LayerSpec(kind="fc", name="F1", units=254),
        LayerSpec(kind="fc", name="F2", units=16),
        LayerSpec(kind="output", name="O", units=10),
    ]
    net = build_network(
        specs, activation="hardware", seed=5, training_stream_length=128
    )
    with Session.from_network(net, stream_length=256, seed=7) as session:
        scores = session.predict(images[:2]).scores
        legacy = session.backend("bit-exact-legacy").forward(images[:2])
        booked = session.obs_snapshot()["kernels"]["fused_counts"]
    np.testing.assert_array_equal(scores, legacy)
    assert set(booked) == {"native"}, booked
    assert booked["native"]["calls"] == 3  # conv, F1, F2


def test_native_name_is_only_an_alias():
    """``bit-exact-native`` is a second registry name, not a second path."""

    class Bare(BitExactPackedBackend):
        """An unregistered subclass that defines nothing."""

    assert BitExactNativeBackend.__bases__ == (BitExactPackedBackend,)
    assert set(vars(BitExactNativeBackend)) - set(vars(Bare)) == {
        "name",
        "description",
    }


@pytest.fixture
def unloaded_tier(monkeypatch):
    """Forget the loaded tier for one test; teardown puts it back."""
    monkeypatch.setattr(native, "_state", native._state)
    native._reset_state()


def test_env_opt_out_logs_info_not_warning(unloaded_tier, monkeypatch, caplog):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    with caplog.at_level(logging.INFO, logger="repro.sc.native"):
        assert not native.available()
    records = [r for r in caplog.records if r.name == "repro.sc.native"]
    assert [r.levelno for r in records] == [logging.INFO]
    assert not hasattr(records[0], "obs_event")


def test_failed_load_logs_warning_with_event(unloaded_tier, monkeypatch, caplog):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setitem(sys.modules, "cffi", None)  # ``import cffi`` fails
    with caplog.at_level(logging.INFO, logger="repro.sc.native"):
        assert not native.available()
    records = [r for r in caplog.records if r.name == "repro.sc.native"]
    assert [r.levelno for r in records] == [logging.WARNING]
    assert records[0].obs_event["kind"] == "native_fallback"
    assert "cffi" in records[0].obs_event["error"]


def test_library_cache_is_keyed_by_the_host_instruction_set(monkeypatch):
    """Hosts sharing a cache directory only load a library built for
    their own instruction set (a ``-march=native`` build can SIGILL
    elsewhere, with no fallback)."""

    def cpuinfo(text):
        def fake_open(path):
            if text is None:
                raise OSError(path)
            return io.StringIO(text)

        return fake_open

    isas = {}
    for host, text in (
        ("avx2", "processor\t: 0\nflags\t\t: sse2 avx2\n"),
        ("sse2", "processor\t: 0\nflags\t\t: sse2\n"),
        ("arm", "Features\t: fp asimd\n"),
        ("unreadable", None),
    ):
        monkeypatch.setattr(_build, "open", cpuinfo(text), raising=False)
        isas[host] = _build._host_isa()
    assert isas["avx2"].split()[1:] == ["avx2", "sse2"]
    assert isas["arm"].split()[1:] == ["asimd", "fp"]
    assert isas["unreadable"].split()[1:] == [platform.node()]
    paths = set()
    for isa in isas.values():
        monkeypatch.setattr(_build, "_host_isa", lambda isa=isa: isa)
        paths.add(_build._library_path("source", "cc"))
    assert len(paths) == len(isas)


def _stream_word_calls(backend) -> int:
    cells = backend.kernel_snapshot().get("stream_words", {})
    return sum(cell["calls"] for cell in cells.values())


def test_warm_forward_compares_against_the_plane(network, images):
    """After the first forward, a forward's only SNG call is the compare of
    the images against the plane's input draws -- on the compiled tier
    when it is active -- and the scores stay equal to legacy."""
    mapper = ScNetworkMapper(network, stream_length=1000, seed=7)
    legacy = create_backend("bit-exact-legacy", mapper).forward(images[:2])
    backend = create_backend("bit-exact-native", mapper)
    np.testing.assert_array_equal(backend.forward(images[:2]), legacy)
    before = _stream_word_calls(backend)
    np.testing.assert_array_equal(backend.forward(images[:2]), legacy)
    assert _stream_word_calls(backend) == before + 1
    tiers = set(backend.kernel_snapshot()["stream_words"])
    assert tiers == ({"native"} if backend.native_active else {"numpy"})


def test_availability_reported_by_registry():
    lines = describe_backends().splitlines()
    native_lines = [l for l in lines if l.startswith("bit-exact-native ")]
    assert len(native_lines) == 1
    assert "native tier:" in native_lines[0]
    # The "name -- description" line format the serving docs rely on.
    assert " -- " in native_lines[0]


def test_env_var_disables_tier_without_breaking_backend(network):
    """REPRO_NATIVE=0 must yield a working (NumPy) backend, not an error."""
    code = (
        "import numpy as np\n"
        "from repro.sc import native\n"
        "assert not native.available()\n"
        "assert 'unavailable' in native.describe()\n"
        "from repro.api import PredictOptions, Session\n"
        "from repro.backends import create_backend\n"
        "from repro.nn.architectures import LayerSpec, build_network\n"
        "from repro.nn.sc_layers import ScNetworkMapper\n"
        "specs = [\n"
        "    LayerSpec(kind='conv', name='C', kernel=3, channels=2),\n"
        "    LayerSpec(kind='pool', name='P', kernel=4, stride=4),\n"
        "    LayerSpec(kind='fc', name='F', units=16),\n"
        "    LayerSpec(kind='output', name='O', units=10),\n"
        "]\n"
        "net = build_network(specs, activation='hardware', seed=5,\n"
        "                    training_stream_length=128)\n"
        "mapper = ScNetworkMapper(net, stream_length=100, seed=7)\n"
        "images = np.random.default_rng(11).random((2, 1, 28, 28))\n"
        "nat = create_backend('bit-exact-native', mapper)\n"
        "assert not nat.native_active\n"
        "ref = create_backend('bit-exact-packed', mapper).forward(images)\n"
        "np.testing.assert_array_equal(nat.forward(images), ref)\n"
        "with Session.from_network(\n"
        "    net, stream_length=100, seed=7, backend='bit-exact-native'\n"
        ") as session:\n"
        "    got = session.predict(images, PredictOptions(workers=2))\n"
        "    np.testing.assert_array_equal(got.scores, ref)\n"
        "    tiers = session.obs_snapshot()['kernels']['fused_counts']\n"
        "    assert set(tiers) == {'numpy'}, tiers\n"
    )
    env = dict(os.environ, REPRO_NATIVE="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH"),
        ) if p
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True, env=env, timeout=300
    )


# -- thread-sharded execution (``workers``) ------------------------------------


@pytest.fixture(scope="module")
def thread_mapper(network):
    return ScNetworkMapper(network, stream_length=200, seed=7)


def _session(network):
    """A session whose ``workers`` calls shard over native replicas."""
    return Session.from_network(
        network, stream_length=200, seed=7, backend="bit-exact-native"
    )


def test_thread_mode_forward_bit_identical(network, thread_mapper, images):
    reference = BitExactPackedBackend(thread_mapper, use_native=False).forward(
        images
    )
    with _session(network) as session:
        result = session.predict(images, PredictOptions(workers=3))
    np.testing.assert_array_equal(result.scores, reference)


def test_thread_mode_forward_partial_bit_identical(
    network, thread_mapper, images
):
    points = (50, 100, 200)
    reference = BitExactPackedBackend(
        thread_mapper, use_native=False
    ).forward_partial(images, points)
    with _session(network) as session:
        result = session.predict(
            images, PredictOptions(checkpoints=points, workers=3)
        )
    np.testing.assert_array_equal(result.checkpoint_scores, reference)


def test_thread_mode_deterministic_under_concurrent_submits(
    network, thread_mapper, images
):
    """Concurrent sharded calls share the session's replicas without
    cross-talk.

    Single-image calls are mixed in: they run on replica 0 like the first
    shard of every sharded call, under the same lock, so they never share
    a workspace arena with a shard.
    """
    reference = create_backend("bit-exact-packed", thread_mapper).forward(images)
    batches = [images if i % 2 else images[i % 6 : i % 6 + 1] for i in range(8)]
    expected = [
        reference if i % 2 else reference[i % 6 : i % 6 + 1] for i in range(8)
    ]
    options = PredictOptions(workers=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the shard threads finely
    try:
        with _session(network) as session:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(
                    pool.map(
                        lambda b: session.predict(b, options).scores, batches
                    )
                )
    finally:
        sys.setswitchinterval(interval)
    for result, want in zip(results, expected):
        np.testing.assert_array_equal(result, want)


def test_thread_shards_share_one_plane(network, images):
    with _session(network) as session:
        scores = session.predict(images, PredictOptions(workers=3)).scores
        booked = session.obs_snapshot()["kernels"]["stream_words"]
        legacy = session.backend("bit-exact-legacy").forward(images)
    # Six weight/bias entries drawn once, one input compare per shard.
    assert sum(cell["calls"] for cell in booked.values()) == 6 + 3
    np.testing.assert_array_equal(scores, legacy)


def test_thread_mode_use_after_close_raises(network, images):
    session = _session(network)
    session.predict(images, PredictOptions(workers=2))
    session.close()
    with pytest.raises(ConfigurationError, match="closed"):
        session.predict(images, PredictOptions(workers=2))


# -- resolution policy ---------------------------------------------------------


def test_resolve_policy_picks_threads_for_native(network, images):
    with _session(network) as session:
        expected = session.predict(images).scores
        result = session.predict(images, PredictOptions(workers=4))
        replicas = sorted(
            (key[0], key[1], type(b)) for key, b in session._backends.items()
        )
    assert replicas == [
        ("bit-exact-native", i, BitExactNativeBackend) for i in range(4)
    ]
    assert result.backend == "bit-exact-native"
    np.testing.assert_array_equal(result.scores, expected)


def test_resolve_policy_single_worker_passthrough(network, images):
    with _session(network) as session:
        for workers in (None, 1):
            session.predict(images, PredictOptions(workers=workers))
        assert [type(b) for b in session._backends.values()] == [
            BitExactNativeBackend
        ]


# -- wide-slab regression (word-blocked per-cycle fallback) --------------------


def test_wide_slab_recurrence_words_regression():
    """A CONV-shaped wide slab must stay bit-exact through the fallback.

    ``n_states * batch`` far above the all-states slab cap forces the
    per-cycle path; since the word-emitting rewrite it assembles packed
    words directly (no ``(N, batch)`` byte-per-bit transients), and must
    agree bit-for-bit with the forced all-states strategy.
    """
    rng = np.random.default_rng(17)
    half, low, high = 4, -4, 5  # 10 states, first-layer CONV geometry
    counts = rng.integers(0, 11, size=(6000, 130)).astype(np.uint8)
    workspace = Workspace()
    auto = feature_extraction_recurrence_words(
        counts, half, low, high, workspace=workspace
    ).copy()
    forced = feature_extraction_recurrence_words(
        counts, half, low, high, strategy="all-states"
    )
    np.testing.assert_array_equal(auto, forced)
    # Odd tail: packed tail bits must stay zero through the direct path.
    tail_counts = rng.integers(0, 11, size=(3000, 67)).astype(np.uint8)
    words = feature_extraction_recurrence_words(tail_counts, half, low, high)
    assert words.shape == (3000, 2)
    assert not np.any(words[:, -1] >> np.uint64(3))
