"""Bit-exact inference on a fully word-packed, fused, allocation-free data plane.

:class:`BitExactPackedBackend` runs the same block simulation as the
legacy oracle -- identical streams, identical counter
recurrences, bit-identical scores -- but keeps the inter-layer feature
maps **word-packed** (64 stream bits per ``uint64``) from the SNG output
all the way to the categorization chain, and executes every layer through
*fused* kernels over a reusable buffer arena:

* Stream generation reads the mapper's **stream plane**
  (:meth:`~repro.nn.sc_layers.ScNetworkMapper.stream_plane`): the input
  comparison draws and every layer's packed weight and bias words depend
  only on the model, its seed, ``N`` and the input shape, so they are
  drawn once per mapper and shape and shared read-only by every backend
  and replica built on it.  A forward's SNG is
  then one compare-and-pack of the images against the cached draws
  (:meth:`~repro.nn.sc_layers.ScNetworkMapper.input_stream_words`).
  Entries past the mapper's byte budget are redrawn word-direct from
  their recorded generator state, in bounded chunks.
* CONV layers gather im2col patches directly over packed words (zero-copy
  sliding windows, the word axis rides along) and reduce the XNOR product
  streams to per-cycle column counts with the **fused streaming
  carry-save kernel** (:func:`repro.sc.packed.fused_xnor_column_counts`):
  each product plane is formed in a recycled buffer and folded into the
  CSA accumulator immediately, so only ``O(log M)`` planes are ever live
  instead of the whole ``(..., M, W)`` product tensor.  The
  feature-extraction recurrence then advances on the word-blocked stepper
  (:func:`repro.blocks.batched.feature_extraction_recurrence_words`),
  whose internal slabs also live in the workspace.
* Pooling walks its windows in chunks of whole window rows holding about
  ``_POOL_CHUNK_BYTES`` (512 KiB) of column counts: per chunk, the ``p x
  p`` planes are regrouped into a chunk-sized buffer, reduced by CSA
  column counts, and run through the exact closed form of the pooling
  counter straight into the layer's packed output.  Dense
  feature-extraction layers run the same fused inner product as CONV,
  and the output layer reduces its products with the fused word-parallel
  majority chain (:func:`repro.sc.packed.fused_xnor_majority_chain`).

All large intermediates -- patch gathers, column counts, CSA planes,
stepper slabs, pooling chunks, layer outputs -- are views over one
per-backend :class:`~repro.workspace.Workspace`, and the chunking budget
admits large position chunks (few recurrence invocations) within one
memory envelope.  A warmed ``forward()`` still allocates per call: the
SNG output words, the categorization words, and each pooling chunk's
counter transients, which are freed before the next chunk (traced peak
3.6 MB for a 32-image forward of the ``perfbench/`` CNN at ``N = 1024``,
2.1 MB for one image).

The fused counts and chain, the stepper and the SNG comparator run on the
compiled GIL-free tier of :mod:`repro.sc.native` when it is loaded and
takes the operands, and on NumPy otherwise (``REPRO_NATIVE=0`` forces
NumPy for the process, ``use_native=False`` for one instance); the scores
are bit-identical either way.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.backends.base import Backend
from repro.blocks.batched import (
    feature_extraction_recurrence_words,
    pooling_recurrence,
)
from repro.blocks.categorization import prefix_chain_scores
from repro.blocks.feature_extraction import (
    SorterFeatureExtractionBlock,
    neutral_column,
)
from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import (
    AvgPool2D,
    ClipActivation,
    Conv2D,
    Dense,
    Flatten,
    HardwareActivation,
    LogitScale,
)
from repro.nn.sc_layers import ScNetworkMapper, StreamPlane
from repro.obs.counters import KernelCounters
from repro.sc import native
from repro.sc.packed import (
    count_dtype,
    fused_xnor_column_counts,
    fused_xnor_majority_chain,
    ones_count,
    pack_bits,
    packed_column_counts,
)
from repro.workspace import Workspace

__all__ = ["BitExactPackedBackend"]

#: Column-count bytes one pooling chunk holds (see
#: ``BitExactPackedBackend._packed_pool``), so that the chunk's regrouped
#: windows, counts and counter transients stay cache-sized at any batch.
#: Swept on a 2-vCPU AVX-512 host over 32 images of the 8-channel 28 x 28
#: conv map of ``perfbench/``'s CNN at N = 1024 (4 x 4 windows, ms per
#: image, traced peak of a warmed call): 128 KiB 0.86 / 0.6 MB, 256 KiB
#: 0.70 / 1.4 MB, 512 KiB 0.67 / 2.6 MB, 1 MiB 0.75 / 5.1 MB, 2 MiB 0.77 /
#: 10.4 MB, 4 MiB 0.84 / 20.9 MB, one batch-wide chunk 1.03 / 64.3 MB.
#: Smaller chunks pay NumPy dispatch per chunk; larger ones spill the
#: cache (the counter's running total is four bytes per count byte).
_POOL_CHUNK_BYTES = 1 << 19


class BitExactPackedBackend(Backend):
    """Bit-exact simulation with fused kernels on a word-packed data plane.

    Args:
        mapper: the SC network mapper.
        use_native: ``False`` forces the NumPy kernels; ``None`` (default)
            uses the compiled tier when it is available and falls back to
            NumPy, never to an error, when it is not.

    A backend instance owns one :class:`~repro.workspace.Workspace` and is
    therefore **not** safe for concurrent ``forward()`` calls from several
    threads; give each thread its own instance, as the replicas of
    :class:`~repro.serve.ScInferenceService` and the per-shard replicas of
    :class:`~repro.api.Session` are.
    """

    name = "bit-exact-packed"
    description = "bit-exact simulation on a word-packed end-to-end data plane"
    bit_exact = True
    progressive = True
    batch_invariant = True

    #: Target size (bytes) of the live per-chunk working set (column
    #: counts + stepper slabs + CSA planes) of a CONV position chunk or an
    #: FC neuron chunk.  Unlike the pre-fusion budget, this accounts for
    #: *everything* the chunk keeps live -- the fused kernels shrank the
    #: per-position footprint by the fan-in factor, so the same envelope
    #: admits much larger chunks (fewer stepper invocations, less Python
    #: dispatch).  CONV chunks are materialised in whole output rows, so
    #: the floor is one row of positions (one neuron for FC).
    _CHUNK_BYTES_BUDGET = 128 * 1024 * 1024

    def __init__(
        self, mapper: ScNetworkMapper, use_native: bool | None = None
    ) -> None:
        super().__init__(mapper)
        self.workspace = Workspace()
        #: Per-kernel, per-tier invocation counters of this instance
        #: (surfaced through :meth:`~repro.backends.base.Backend.kernel_snapshot`
        #: and the serving layer's ``snapshot()["kernels"]``).
        self.counters = KernelCounters()
        wanted = True if use_native is None else bool(use_native)
        #: Whether the compiled tier runs this instance's kernels.
        self.native_active = wanted and native.available()

    @classmethod
    def availability_note(cls) -> str:
        """Registry note: the compiled tier's status."""
        return native.describe()

    # -- kernel seam -----------------------------------------------------------
    #
    # The hottest loops of the packed data plane go through these methods,
    # which run the compiled kernel while the tier is active and takes the
    # operands, and the NumPy kernel otherwise.  Every invocation is
    # folded into the instance's kernel-tier counters under the tier that
    # ran it -- one timestamp pair and one lock acquisition per chunked
    # kernel call, noise next to the kernels themselves.

    def _record_kernel(
        self, kernel: str, tier: str, started: float, nbytes: int
    ) -> None:
        """Fold one seam invocation into the tier counters."""
        self.counters.record(
            kernel, tier, time.perf_counter() - started, nbytes
        )

    def _run_kernel(self, kernel: str, compiled, reference, *args, **kwargs):
        """Run ``compiled`` while the tier is active, else ``reference``.

        A compiled kernel returns ``None`` for operands outside its fast
        path; the NumPy ``reference`` then runs on the same arguments.
        Callers pass both through their module names at call time, so a
        tracer that rebinds those names sees every call.  The result's
        bytes are booked under the tier that produced it.
        """
        started = time.perf_counter()
        result = compiled(*args, **kwargs) if self.native_active else None
        tier = "native"
        if result is None:
            tier = "numpy"
            result = reference(*args, **kwargs)
        self._record_kernel(kernel, tier, started, result.nbytes)
        return result

    def _fused_counts(self, a, b, extra, out, key) -> None:
        """Fused XNOR -> CSA column counts into ``out`` (see
        :func:`repro.sc.packed.fused_xnor_column_counts`)."""
        self._run_kernel(
            "fused_counts",
            native.fused_xnor_column_counts,
            fused_xnor_column_counts,
            a,
            b,
            self.mapper.stream_length,
            extra=extra,
            out=out,
            workspace=self.workspace,
            key=key,
        )

    def _fused_chain(self, a, b, out, key) -> None:
        """Fused XNOR -> majority chain into ``out`` (see
        :func:`repro.sc.packed.fused_xnor_majority_chain`)."""
        self._run_kernel(
            "fused_chain",
            native.fused_xnor_majority_chain,
            fused_xnor_majority_chain,
            a,
            b,
            self.mapper.stream_length,
            out=out,
            workspace=self.workspace,
            key=key,
        )

    def _native_packer(self, draws, thresholds, out):
        return native.pack_comparator_floats(
            draws, thresholds, out, workspace=self.workspace
        )

    def _pack_streams(self, generate, values, rng) -> np.ndarray:
        """SNG words from ``generate`` (a mapper stream method) with the
        compiled comparator while the tier is active."""
        started = time.perf_counter()
        packer = self._native_packer if self.native_active else None
        words = generate(values, rng, packer=packer)
        tier = "native" if self.native_active else "numpy"
        self._record_kernel("stream_words", tier, started, words.nbytes)
        return words

    def _stream_words(self, weights, rng) -> np.ndarray:
        """Packed weight/bias streams through the active comparator."""
        return self._pack_streams(self.mapper.weight_stream_words, weights, rng)

    def output_stream_words(self, images: np.ndarray) -> np.ndarray:
        """Packed categorization-output streams for a batch of images.

        The stream randomness comes from the mapper's stream plane
        (:meth:`~repro.nn.sc_layers.ScNetworkMapper.stream_plane`), drawn
        in exactly the order and shape of the legacy path (one shared
        comparison-draw tensor, then per-layer weight and bias streams),
        so the decoded scores are bit-identical to
        :meth:`~repro.nn.sc_layers.ScNetworkMapper.bit_exact_forward_legacy`.
        The first forward of an input shape on a mapper builds the plane
        through this backend's comparator seam; every forward then
        compares and packs the images against the plane's input draws.
        Keeping the *streams* (rather than only their decoded means)
        available is what the progressive early exit builds on: any prefix
        of these words is exactly the stream the hardware would have
        produced had it stopped that many cycles in.

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]`` (a single ``(channels, height, width)`` image
                is also accepted).

        Returns:
            ``(batch, n_classes, ceil(N / 64))`` packed ``uint64`` output
            words.  The final (categorization) layer's words are freshly
            allocated -- unlike the inter-layer buffers they do not live
            in the workspace, so callers may hold them across calls.
        """
        mapper = self.mapper
        images = self._check_images(images)
        plane = mapper.stream_plane(images.shape[1:], self._stream_words)
        words = self._pack_streams(
            mapper.input_stream_words, images, plane.source(plane.input_draws)
        )
        dense_layers = [l for l in mapper.network.layers if isinstance(l, Dense)]
        dense_seen = 0
        for index, layer in enumerate(mapper.network.layers):
            if isinstance(layer, Conv2D):
                words = self._packed_conv(
                    words, layer, self._layer_words(plane, index, layer), index
                )
            elif isinstance(layer, AvgPool2D):
                words = self._packed_pool(words, layer, index)
            elif isinstance(layer, Flatten):
                words = words.reshape(words.shape[0], -1, words.shape[-1])
            elif isinstance(layer, Dense):
                dense_seen += 1
                is_output = dense_seen == len(dense_layers)
                words = self._packed_dense(
                    words,
                    layer,
                    self._layer_words(plane, index, layer),
                    is_output,
                    index,
                )
            elif isinstance(layer, (HardwareActivation, ClipActivation, LogitScale)):
                continue
            else:  # pragma: no cover - defensive
                raise ConfigurationError(
                    f"cannot map layer {type(layer).__name__} to SC hardware"
                )
        return words

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Decoded class scores: popcount of the full output streams.

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]`` (a single ``(channels, height, width)`` image
                is also accepted).

        Returns:
            ``(batch, n_classes)`` decoded class scores.
        """
        words = self.output_stream_words(images)
        return 2.0 * (ones_count(words) / float(self.mapper.stream_length)) - 1.0

    def forward_partial(self, images: np.ndarray, checkpoints) -> np.ndarray:
        """Class scores at stream prefixes, via prefix popcounts.

        One full simulation produces the packed output streams; every
        checkpoint is then a prefix popcount over the words
        (:func:`repro.blocks.categorization.prefix_chain_scores`), which
        the word layout makes nearly free.  Because every block recurrence
        is causal in the stream axis, checkpoint ``P`` is *exactly* the
        score the hardware would have decoded after streaming ``P``
        cycles, and the final checkpoint (``P = N``) reproduces
        :meth:`forward` bit for bit.
        """
        points = self._check_checkpoints(checkpoints)
        words = self.output_stream_words(images)
        return prefix_chain_scores(words, points, self.mapper.stream_length)

    # -- layer kernels ---------------------------------------------------------

    def _layer_words(
        self, plane: StreamPlane, index: int, layer: Conv2D | Dense
    ) -> tuple[np.ndarray, np.ndarray]:
        """A layer's packed weight and bias words from the stream plane
        (redrawn through the comparator seam when past its budget)."""
        words = []
        for values, entry in zip((layer.weights, layer.bias), plane.params[index]):
            if not isinstance(entry, np.ndarray):
                entry = self._stream_words(values, plane.source(entry))
            words.append(entry)
        return tuple(words)

    def _chunk_bytes_per_position(self, m: int, count_itemsize: int) -> int:
        """Live bytes one output position keeps during a fused chunk.

        Column counts (``count_itemsize`` bytes per cycle), the stepper's
        time-major slab (up to ``int32`` per cycle), and the streaming-CSA
        plane set (two planes per carry-save level plus product/scratch,
        at one byte per eight cycles each).
        """
        n = self.mapper.stream_length
        levels = max(1, math.ceil(math.log2(m + 1)))
        live_planes = 2 * levels + 3
        return (count_itemsize + 4) * n + live_planes * (n // 8 + 8)

    def _auto_chunk(self, bytes_per_item: int) -> int:
        """Positions/neurons per chunk fitting the working-set budget."""
        return max(1, self._CHUNK_BYTES_BUDGET // max(1, bytes_per_item))

    def _extra_planes(self, bias_words: np.ndarray, m: int) -> np.ndarray:
        """The ``(out, K, words)`` planes counted as-is next to the XNOR
        products: each neuron's bias stream, and for an even input count
        ``m`` the alternating neutral stream that pads it to odd."""
        if m % 2:
            return bias_words[:, None, :]
        neutral = pack_bits(neutral_column(self.mapper.stream_length))
        return np.stack(
            (bias_words, np.broadcast_to(neutral, bias_words.shape)), axis=1
        )

    def _recurrence_words(self, counts: np.ndarray, m: int) -> np.ndarray:
        """Column counts -> packed activated streams (workspace-backed).

        The returned words live in the workspace; callers copy them into
        their per-layer output buffer before the next stepper call.
        """
        half = SorterFeatureExtractionBlock(m).threshold
        return self._run_kernel(
            "recurrence_words",
            native.feature_extraction_recurrence_words,
            feature_extraction_recurrence_words,
            counts,
            half,
            -half,
            half + 1,
            workspace=self.workspace,
        )

    def _packed_conv(
        self,
        words: np.ndarray,
        layer: Conv2D,
        layer_words: tuple[np.ndarray, np.ndarray],
        layer_key: int,
    ) -> np.ndarray:
        n = self.mapper.stream_length
        n_words = words.shape[-1]
        batch, channels, height, width, _ = words.shape
        kernel = layer.kernel_size
        stride = layer.stride
        pad = (kernel - 1) // 2 if layer.padding == "same" else 0
        ws = self.workspace
        if pad:
            padded = ws.array(
                (layer_key, "pad"),
                (batch, channels, height + 2 * pad, width + 2 * pad, n_words),
                np.uint64,
            )
            padded[...] = 0
            padded[:, :, pad : pad + height, pad : pad + width] = words
        else:
            padded = words
        out_h, out_w = layer.output_size(height, width)
        # Zero-copy sliding windows over (H, W); the word axis rides along
        # and patches are materialised one position chunk at a time.
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (kernel, kernel), axis=(2, 3)
        )[:, :, ::stride, ::stride]  # (B, C, out_h, out_w, words, k, k)
        weight_words, bias_words = layer_words
        out_ch = layer.out_channels
        fan_in = layer.fan_in
        m = fan_in + 1
        extra = self._extra_planes(bias_words, m)
        dtype = count_dtype(fan_in + extra.shape[1])
        # Per position: the fused working set (scaled by out_ch) plus the
        # im2col patch gather, which carries the fan-in once per position
        # regardless of out_ch.
        chunk = self._auto_chunk(
            batch
            * (
                out_ch * self._chunk_bytes_per_position(m, dtype.itemsize)
                + fan_in * (n // 8 + 8)
            )
        )
        row_chunk = max(1, chunk // out_w)
        output = ws.array(
            (layer_key, "out"), (batch, out_ch, out_h * out_w, n_words), np.uint64
        )
        for row_start in range(0, out_h, row_chunk):
            row_end = min(out_h, row_start + row_chunk)
            rows = row_end - row_start
            pc = rows * out_w
            # (B, C, rows, out_w, W, k, k) -> (B, rows*out_w, fan_in, W),
            # the im2col channel-major (C, kh, kw) patch layout, gathered
            # straight into a recycled buffer.
            patches = ws.array(
                (layer_key, "patches"), (batch, pc, fan_in, n_words), np.uint64
            )
            patches.reshape(
                batch, rows, out_w, channels, kernel, kernel, n_words
            )[...] = windows[:, :, row_start:row_end].transpose(
                0, 2, 3, 1, 5, 6, 4
            )
            counts = ws.array(
                (layer_key, "counts"), (batch, pc, out_ch, n), dtype
            )
            self._fused_counts(
                patches[:, :, None, :, :],
                weight_words[None, None, :, :, :],
                extra[None, None],
                counts,
                (layer_key, "csa"),
            )
            activated = self._recurrence_words(counts, m)
            start = row_start * out_w
            output[:, :, start : start + pc] = activated.transpose(0, 2, 1, 3)
        return output.reshape(batch, out_ch, out_h, out_w, n_words)

    def _packed_pool(
        self, words: np.ndarray, layer: AvgPool2D, layer_key: int
    ) -> np.ndarray:
        """Sorter average pooling on packed words, one cache-sized chunk
        of window rows at a time.

        The windows are walked in chunks of whole window rows -- rows of
        the flattened ``(batch * channels, out_h)`` grid -- holding about
        ``_POOL_CHUNK_BYTES`` of column counts, so the working set is the
        same at any batch size, image size and ``N``.  Per chunk, the
        ``p x p`` planes of its windows are regrouped into a chunk-sized
        workspace buffer, reduced to column counts by
        :func:`~repro.sc.packed.packed_column_counts`, run through the
        closed form of the pooling counter
        (:func:`~repro.blocks.batched.pooling_recurrence`), and packed
        straight into the layer's output buffer.  Rows and columns past
        the last whole window are dropped, as the legacy oracle does.
        """
        n = self.mapper.stream_length
        batch, channels, height, width, n_words = words.shape
        p = layer.pool_size
        m = p * p
        out_h, out_w = height // p, width // p
        if out_h == 0 or out_w == 0:
            raise ShapeError("input smaller than the pooling window")
        planes = batch * channels
        dtype = count_dtype(m)
        # (B * C, out_h, p, out_w, p, words): a view, the trim included.
        windows = words[:, :, : out_h * p, : out_w * p].reshape(
            planes, out_h, p, out_w, p, n_words
        )
        rows = max(1, _POOL_CHUNK_BYTES // (out_w * n * dtype.itemsize))
        plane_step = max(1, rows // out_h)
        row_step = min(rows, out_h)
        ws = self.workspace
        output = ws.array(
            (layer_key, "out"), (planes, out_h, out_w, n_words), np.uint64
        )
        for plane in range(0, planes, plane_step):
            for row in range(0, out_h, row_step):
                chunk = (
                    slice(plane, plane + plane_step),
                    slice(row, row + row_step),
                )
                source = windows[chunk]
                shape = source.shape[:2] + (out_w,)
                grouped = ws.array(
                    (layer_key, "grouped"), shape + (p, p, n_words), np.uint64
                )
                grouped[...] = source.transpose(0, 1, 3, 2, 4, 5)
                counts = ws.array((layer_key, "counts"), shape + (n,), dtype)
                packed_column_counts(
                    grouped.reshape(shape + (m, n_words)), n, out=counts
                )
                output[chunk] = pack_bits(pooling_recurrence(counts, m))
        return output.reshape(batch, channels, out_h, out_w, n_words)

    def _packed_dense(
        self,
        words: np.ndarray,
        layer: Dense,
        layer_words: tuple[np.ndarray, np.ndarray],
        is_output: bool,
        layer_key: int,
    ) -> np.ndarray:
        n = self.mapper.stream_length
        n_words = words.shape[-1]
        batch = words.shape[0]
        if words.shape[1:] != (layer.in_features, n_words):
            raise ShapeError(
                f"dense layer expects (batch, {layer.in_features}, {n_words}) "
                f"packed streams, got {words.shape}"
            )
        in_features = layer.in_features
        weight_words, bias_words = layer_words
        ws = self.workspace
        if is_output:
            # The categorization layer's words are returned to the caller
            # (and may be held across calls by the progressive engine), so
            # they are allocated fresh rather than in the workspace.
            outputs = np.empty(
                (batch, layer.out_features, n_words), dtype=np.uint64
            )
            chunk = self._auto_chunk(batch * 6 * (n // 8 + 8))
            for start in range(0, layer.out_features, chunk):
                w_chunk = weight_words[start : start + chunk]  # (oc, in, W)
                self._fused_chain(
                    words[:, None, :, :],
                    w_chunk[None, :, :, :],
                    outputs[:, start : start + w_chunk.shape[0]],
                    (layer_key, "chain"),
                )
            return outputs
        m = in_features + 1
        extra = self._extra_planes(bias_words, m)
        dtype = count_dtype(in_features + extra.shape[1])
        chunk = self._auto_chunk(
            batch * self._chunk_bytes_per_position(m, dtype.itemsize)
        )
        outputs = ws.array(
            (layer_key, "out"), (batch, layer.out_features, n_words), np.uint64
        )
        for start in range(0, layer.out_features, chunk):
            w_chunk = weight_words[start : start + chunk]  # (oc, in, W)
            oc = w_chunk.shape[0]
            counts = ws.array((layer_key, "counts"), (batch, oc, n), dtype)
            self._fused_counts(
                words[:, None, :, :],
                w_chunk[None, :, :, :],
                extra[None, start : start + oc],
                counts,
                (layer_key, "csa"),
            )
            outputs[:, start : start + oc] = self._recurrence_words(counts, m)
        return outputs
