"""Mapping of trained float networks onto the SC/AQFP blocks.

:class:`ScNetworkMapper` takes a trained :class:`~repro.nn.layers.Network`
and executes it in the stochastic-computing domain in two ways:

* **fast statistical model** -- the forward pass stays in float but uses the
  quantised weights, the hardware transfer curve of the feature-extraction
  block as activation, exact averaging for pooling, and (optionally) the
  stochastic decoding noise of finite streams.  This is the model used to
  evaluate accuracy on the full test set.
* **bit-exact simulation** -- every layer is executed on actual bit streams
  through the block implementations in :mod:`repro.blocks`.  The mapper
  keeps the literal per-image, small-chunk implementation
  (:meth:`ScNetworkMapper.bit_exact_forward_legacy`) as the equivalence
  oracle and the perf baseline of ``benchmarks/bench_perf.py``, plus the
  word-packed stream generation (:meth:`ScNetworkMapper.input_stream_words`,
  :meth:`ScNetworkMapper.weight_stream_words`) the fast backends of
  :mod:`repro.backends` build on, and the **stream plane**
  (:meth:`ScNetworkMapper.stream_plane`): the model-constant part of that
  randomness, drawn once per input shape and shared read-only by every
  backend on the mapper.

The mapper also produces the per-layer block inventory (how many feature
extraction / pooling / categorization / SNG blocks of which size), which the
network-level hardware report (Table 9) consumes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.blocks.categorization import (
    MajorityChainCategorizationBlock,
    chain_output_probability,
)
from repro.blocks.feature_extraction import SorterFeatureExtractionBlock, SorterTransferCurve
from repro.blocks.pooling import SorterAveragePoolingBlock
from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import (
    AvgPool2D,
    ClipActivation,
    Conv2D,
    Dense,
    Flatten,
    HardwareActivation,
    LogitScale,
    Network,
    im2col,
)
from repro.nn.quantization import quantize_weights

__all__ = ["LayerInventory", "ScNetworkMapper", "StreamPlane"]


@dataclass(frozen=True)
class LayerInventory:
    """Block inventory of one mapped layer.

    Attributes:
        name: layer description.
        block_kind: ``"feature_extraction"``, ``"pooling"`` or
            ``"categorization"``.
        block_inputs: input size ``M`` of each block instance.
        block_count: number of parallel block instances (output neurons /
            pooled pixels).
        sng_inputs: number of SNG conversions feeding the layer (weights plus
            bias per block).
    """

    name: str
    block_kind: str
    block_inputs: int
    block_count: int
    sng_inputs: int


@dataclass(frozen=True)
class StreamPlane:
    """The model-constant stream randomness of one input shape.

    A bit-exact forward consumes ``default_rng(seed)`` in one fixed order:
    the input comparison draws (one ``(C*H*W, N)`` tensor shared by every
    image of a batch), then the packed weight and bias streams of each
    ``Conv2D``/``Dense`` layer in network order.  None of it depends on
    the images, so :meth:`ScNetworkMapper.stream_plane` draws it once.

    Every entry is either its cached read-only array or, past the mapper's
    byte budget, the generator state its draws start from;
    :meth:`source` turns such a state into a fresh generator, so the entry
    is redrawn exactly as it would be drawn without a plane.

    Attributes:
        input_draws: ``(C*H*W, N)`` ``float64`` comparison draws (or
            their start state).
        params: ``{layer index: (weight entry, bias entry)}`` for every
            ``Conv2D``/``Dense`` layer; a cached entry holds the packed
            ``uint64`` words, of the parameter's shape plus
            ``(ceil(N / 64),)``.
    """

    input_draws: np.ndarray | dict
    params: dict[int, tuple[np.ndarray | dict, np.ndarray | dict]]

    @staticmethod
    def source(entry: np.ndarray | dict) -> np.ndarray | np.random.Generator:
        """A cached entry as is, or a generator at an uncached one's start."""
        if isinstance(entry, np.ndarray):
            return entry
        bit_generator = getattr(np.random, entry["bit_generator"])()
        bit_generator.state = entry
        return np.random.Generator(bit_generator)


class ScNetworkMapper:
    """Execute a trained float network in the SC domain.

    Args:
        network: trained float network (weights inside ``[-1, 1]``).
        weight_bits: stored binary precision used for quantisation.
        stream_length: stochastic stream length ``N``.
        seed: seed for stream generation / noise injection.
        quantized_params: optional precomputed quantised values, one per
            ``network.parameters()`` entry in order (the dequantised
            comparator codes a model artifact stores natively).  When
            given, :meth:`quantized_weights` serves these instead of
            re-quantising the floats on every call; the values must be
            what ``quantize_weights(param, weight_bits)`` would produce,
            which :func:`repro.nn.quantization.dequantize_weights` of the
            stored codes guarantees exactly.

    The mapper treats the network's parameters as fixed: the stream plane
    of an input shape is drawn from them by the first packed forward of
    that shape and reused afterwards.
    """

    def __init__(
        self,
        network: Network,
        weight_bits: int = 10,
        stream_length: int = 1024,
        seed: int = 2019,
        quantized_params: list[np.ndarray] | None = None,
    ) -> None:
        if stream_length <= 0:
            raise ConfigurationError("stream_length must be positive")
        self.network = network
        self.weight_bits = int(weight_bits)
        self.stream_length = int(stream_length)
        self.seed = int(seed)
        self._quantized_params: list[np.ndarray] | None = None
        if quantized_params is not None:
            params = network.parameters()
            if len(quantized_params) != len(params):
                raise ConfigurationError(
                    f"expected {len(params)} quantized parameter arrays "
                    f"(one per network parameter), got {len(quantized_params)}"
                )
            stored = []
            for param, q in zip(params, quantized_params):
                q = np.asarray(q, dtype=np.float64)
                if q.shape != param.shape:
                    raise ShapeError(
                        f"quantized parameter shape {q.shape} does not match "
                        f"network parameter shape {param.shape}"
                    )
                stored.append(q)
            self._quantized_params = stored
        self._planes: dict[tuple[int, int, int], StreamPlane] = {}
        self._plane_bytes = 0
        self._plane_lock = threading.Lock()

    def quantized_weights(self, weights: np.ndarray) -> np.ndarray:
        """Quantised values of a network parameter array.

        Serves the precomputed values when the model artifact stored its
        comparator codes natively (identity-matched against
        ``network.parameters()``), falling back to
        :func:`~repro.nn.quantization.quantize_weights` for parameters
        without a preload -- the two are bit-identical by construction,
        so every execution backend sees the same quantised network either
        way.
        """
        if self._quantized_params is not None:
            for param, q in zip(self.network.parameters(), self._quantized_params):
                if param is weights:
                    return q
        return quantize_weights(weights, self.weight_bits)

    def check_input_shape(self, shape: tuple[int, int, int]) -> None:
        """Raise :class:`~repro.errors.ShapeError` unless images of
        ``(channels, height, width)`` shape map onto the network.

        The channels must match the first convolution and the flattened
        feature map the first dense layer, through the convolution and
        pooling geometry the bit-exact backends execute.
        """
        channels, height, width = (int(d) for d in shape)
        for layer in self.network.layers:
            if isinstance(layer, Conv2D):
                if channels != layer.in_channels:
                    raise ShapeError(
                        f"images with {channels} channel(s) do not map onto "
                        f"a convolution over {layer.in_channels}"
                    )
                height, width = layer.output_size(height, width)
                channels = layer.out_channels
            elif isinstance(layer, AvgPool2D):
                height, width = height // layer.pool_size, width // layer.pool_size
            elif isinstance(layer, Dense):
                if channels * height * width != layer.in_features:
                    raise ShapeError(
                        f"{tuple(shape)} images flatten to "
                        f"{channels * height * width} features; the first "
                        f"dense layer takes {layer.in_features}"
                    )
                return
            if height < 1 or width < 1:
                raise ShapeError(f"{tuple(shape)} images are too small for the network")

    # -- inventory -------------------------------------------------------------

    def layer_inventories(
        self, input_shape: tuple[int, int, int] = (1, 28, 28)
    ) -> list[LayerInventory]:
        """Per-layer block inventory for the hardware roll-up (Table 9)."""
        inventories: list[LayerInventory] = []
        channels, height, width = input_shape
        dense_seen = 0
        dense_layers = [l for l in self.network.layers if isinstance(l, Dense)]
        for layer in self.network.layers:
            if isinstance(layer, Conv2D):
                out_h, out_w = layer.output_size(height, width)
                count = layer.out_channels * out_h * out_w
                inventories.append(
                    LayerInventory(
                        name=f"conv{layer.kernel_size}x{layer.kernel_size}x{layer.out_channels}",
                        block_kind="feature_extraction",
                        block_inputs=layer.fan_in + 1,
                        block_count=count,
                        sng_inputs=(layer.fan_in + 1) * layer.out_channels,
                    )
                )
                channels, height, width = layer.out_channels, out_h, out_w
            elif isinstance(layer, AvgPool2D):
                out_h, out_w = height // layer.pool_size, width // layer.pool_size
                count = channels * out_h * out_w
                inventories.append(
                    LayerInventory(
                        name=f"avgpool{layer.pool_size}x{layer.pool_size}",
                        block_kind="pooling",
                        block_inputs=layer.pool_size * layer.pool_size,
                        block_count=count,
                        sng_inputs=0,
                    )
                )
                height, width = out_h, out_w
            elif isinstance(layer, Dense):
                dense_seen += 1
                is_output = dense_seen == len(dense_layers)
                kind = "categorization" if is_output else "feature_extraction"
                inventories.append(
                    LayerInventory(
                        name=f"fc{layer.out_features}",
                        block_kind=kind,
                        block_inputs=layer.in_features + (0 if is_output else 1),
                        block_count=layer.out_features,
                        sng_inputs=layer.in_features * layer.out_features,
                    )
                )
        return inventories

    # -- fast statistical model -------------------------------------------------

    def fast_forward(
        self,
        images: np.ndarray,
        inject_noise: bool = True,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Fast SC inference over a batch of images.

        Args:
            images: ``(batch, channels, height, width)`` images in ``[0, 1]``.
            inject_noise: add the stochastic decoding noise of finite streams
                (variance ``(1 - y^2) / N``) after every block.
            rng: noise generator; defaults to a seeded generator.

        Returns:
            ``(batch, n_classes)`` class scores (decoded categorization-block
            outputs).
        """
        rng = rng or np.random.default_rng(self.seed)
        value = np.asarray(images, dtype=np.float64) * 2.0 - 1.0  # bipolar inputs
        value = self._quantize_activations(value)
        dense_layers = [l for l in self.network.layers if isinstance(l, Dense)]
        dense_seen = 0
        for layer in self.network.layers:
            if isinstance(layer, Conv2D):
                w = self.quantized_weights(layer.weights)
                b = self.quantized_weights(layer.bias)
                patches, out_h, out_w = im2col(
                    value, layer.kernel_size, layer.stride,
                    (layer.kernel_size - 1) // 2 if layer.padding == "same" else 0,
                )
                z = patches @ w.T + b
                z = z.transpose(0, 2, 1).reshape(
                    value.shape[0], layer.out_channels, out_h, out_w
                )
                z = self._maybe_inner_product_noise(z, layer.fan_in + 1, inject_noise, rng)
                curve = SorterTransferCurve.cached(layer.fan_in + 1, stream_length=4096)
                value = self._maybe_noise(curve(z), inject_noise, rng)
            elif isinstance(layer, AvgPool2D):
                p = layer.pool_size
                batch, channels, height, width = value.shape
                out_h, out_w = height // p, width // p
                pooled = value[:, :, : out_h * p, : out_w * p].reshape(
                    batch, channels, out_h, p, out_w, p
                ).mean(axis=(3, 5))
                value = self._maybe_noise(pooled, inject_noise, rng)
            elif isinstance(layer, Flatten):
                value = value.reshape(value.shape[0], -1)
            elif isinstance(layer, Dense):
                dense_seen += 1
                w = self.quantized_weights(layer.weights)
                b = self.quantized_weights(layer.bias)
                is_output = dense_seen == len(dense_layers)
                if is_output:
                    # Categorization block: the chain's output value is a
                    # steep monotone function of the mean product value
                    # (bias included as one extra product stream), which is
                    # what preserves the ranking of the inner products.
                    mean_product = (value @ w.T + b) / (layer.in_features + 1)
                    probability = chain_output_probability(
                        (mean_product + 1.0) / 2.0, layer.in_features + 1
                    )
                    scores = 2.0 * probability - 1.0
                    value = self._maybe_noise(scores, inject_noise, rng)
                else:
                    z = value @ w.T + b
                    z = self._maybe_inner_product_noise(
                        z, layer.in_features + 1, inject_noise, rng
                    )
                    curve = SorterTransferCurve.cached(
                        layer.in_features + 1, stream_length=4096
                    )
                    value = self._maybe_noise(curve(z), inject_noise, rng)
            elif isinstance(layer, (HardwareActivation, ClipActivation, LogitScale)):
                continue  # activation/margin scaling is folded into the blocks
            else:  # pragma: no cover - defensive
                raise ConfigurationError(
                    f"cannot map layer {type(layer).__name__} to SC hardware"
                )
        return value

    def _quantize_activations(self, value: np.ndarray) -> np.ndarray:
        """Quantise bipolar values to the SNG comparator levels."""
        return quantize_weights(value, self.weight_bits)

    def _maybe_noise(
        self, value: np.ndarray, inject_noise: bool, rng: np.random.Generator
    ) -> np.ndarray:
        """Stream-decoding noise of a single output stream of length N."""
        if not inject_noise:
            return value
        variance = np.clip(1.0 - value ** 2, 0.0, 1.0) / self.stream_length
        noisy = value + rng.normal(0.0, 1.0, size=value.shape) * np.sqrt(variance)
        return np.clip(noisy, -1.0, 1.0)

    def _maybe_inner_product_noise(
        self,
        z: np.ndarray,
        fan_in: int,
        inject_noise: bool,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Stochastic inner-product noise of a feature-extraction block.

        Summing ``M`` independent bipolar product streams of length ``N``
        carries a variance of at most ``M / N`` on the pre-activation value;
        this is the dominant SC error source for wide layers and the reason
        the SC-aware training pushes pre-activations into saturation.
        """
        if not inject_noise:
            return z
        return z + rng.normal(0.0, np.sqrt(fan_in / self.stream_length), size=z.shape)

    # -- bit-exact simulation ---------------------------------------------------

    #: Target bytes of live SNG comparison draws when streams are packed
    #: directly (the draws are float64 -- eight bytes per stream cycle --
    #: so bounding them is what keeps the packed data plane's stream
    #: generation an order of magnitude below the byte-per-bit oracle).
    _DRAWS_BYTES_BUDGET = 16 * 1024 * 1024

    def _stream_value_chunk(self) -> int:
        """Values whose full-stream draws fit the draw-bytes budget."""
        return max(1, self._DRAWS_BYTES_BUDGET // (8 * self.stream_length))

    def _packed_comparator_streams(
        self, p: np.ndarray, rng: np.random.Generator | np.ndarray, packer=None
    ) -> np.ndarray:
        """Chunked draw -> compare -> pack core of the word-direct paths.

        One comparison-draw row is consumed per value (last axis of
        ``p``), in C order, exactly as the byte-per-bit oracle consumes
        them.  Leading axes of ``p`` share the draws (the batch axis of
        the input SNG).

        Args:
            p: ones-probabilities of shape ``(..., V)``.
            rng: stream-generation random generator, or the ``(V, N)``
                draws it would produce (a stream plane's cached input
                draws), which are then only compared and packed.
            packer: optional word-direct comparator kernel with the
                signature of
                :func:`repro.sc.native.pack_comparator_floats`; the draws
                come from the same RNG stream either way, so the packed
                words are bit-identical.  A packer returning ``None``
                (shape outside its fast path) falls back to the NumPy
                compare-and-pack for that chunk.

        Returns:
            ``uint64`` packed words of shape ``(..., V, ceil(N / 64))``.
        """
        from repro.sc.packed import pack_bits, words_for_length

        n = self.stream_length
        n_values = p.shape[-1]
        drawn = isinstance(rng, np.ndarray)
        if drawn and rng.shape != (n_values, n):
            raise ShapeError(
                f"expected ({n_values}, {n}) comparison draws, got {rng.shape}"
            )
        out = np.empty(
            p.shape + (words_for_length(n),), dtype=np.uint64
        )
        # The comparison and packing transients scale with the leading
        # (draw-sharing) axes, so the chunk shrinks by their size to keep
        # the *total* live transient near the budget, not just the draws.
        lead = max(1, int(np.prod(p.shape[:-1], dtype=np.int64)))
        chunk = max(1, self._stream_value_chunk() // lead)
        for start in range(0, n_values, chunk):
            stop = min(n_values, start + chunk)
            draws = rng[start:stop] if drawn else rng.random((stop - start, n))
            if packer is None or packer(
                draws, p[..., start:stop], out[..., start:stop, :]
            ) is None:
                out[..., start:stop, :] = pack_bits(
                    draws < p[..., start:stop, None]
                )
            # Freed here, not when the next chunk's draws rebind the name,
            # so two chunks of draws are never alive at once.
            del draws
        return out

    def input_stream_words(
        self, images: np.ndarray, rng: np.random.Generator | np.ndarray, packer=None
    ) -> np.ndarray:
        """Word-packed SNG conversion of a batch of images.

        Bit-identical to the input streams of
        :meth:`bit_exact_forward_legacy` -- same quantisation, same RNG
        consumption order (one draw tensor shared across the batch, as
        the legacy path re-seeds per image; values in C order) -- but the
        comparison draws are generated in bounded chunks along the value
        axis and packed immediately, so the full-stream ``float64`` draw
        tensor and the byte-per-bit stream tensor never exist.  This is
        the packed backend's input preamble.

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]`` (a single ``(channels, height, width)`` image
                is also accepted).
            rng: stream-generation random generator, or its
                ``(channels * height * width, N)`` comparison draws (the
                stream plane's ``input_draws``).

        Returns:
            ``uint64`` array of shape ``(batch, channels, height, width,
            ceil(N / 64))``.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4:
            raise ShapeError(
                f"expected (batch, channels, height, width), got {images.shape}"
            )
        value = self._quantize_activations(images * 2.0 - 1.0)
        p = ((value + 1.0) / 2.0).reshape(value.shape[0], -1)
        words = self._packed_comparator_streams(p, rng, packer=packer)
        return words.reshape(value.shape + (words.shape[-1],))

    def weight_stream_words(
        self, weights: np.ndarray, rng: np.random.Generator, packer=None
    ) -> np.ndarray:
        """Word-packed bipolar weight streams (shape + ``(ceil(N/64),)``).

        Bit-identical to ``pack_bits(self.weight_stream_bits(weights,
        rng))`` with identical RNG consumption, generated in bounded
        chunks like :meth:`input_stream_words` -- for a wide FC layer at
        long stream lengths this removes what used to be the single
        largest allocation of a packed forward pass (the ``float64`` draw
        tensor over every weight).
        """
        q = self.quantized_weights(weights)
        words = self._packed_comparator_streams(
            ((q + 1.0) / 2.0).reshape(-1), rng, packer=packer
        )
        return words.reshape(np.shape(q) + (words.shape[-1],))

    #: Bytes of stream planes (over every input shape) the mapper keeps
    #: cached.  Entries are cached in RNG-consumption order while the
    #: total fits; an entry past it is redrawn by every forward instead.
    _PLANE_BYTES_BUDGET = 256 * 1024 * 1024

    def stream_plane(self, shape: tuple[int, int, int], stream_words) -> StreamPlane:
        """The :class:`StreamPlane` of ``(channels, height, width)`` images.

        Built by the first caller of a shape, under a lock, and then
        shared read-only by every backend on this mapper.  The build is
        the one place the RNG-consumption contract of a bit-exact forward
        lives: it replays the legacy path's draws from
        ``default_rng(seed)`` -- input comparison draws first, then the
        weight and bias streams of each ``Conv2D``/``Dense`` layer in
        network order -- and steps an uncached entry's generator past it
        without drawing.

        Args:
            shape: the image shape; checked by :meth:`check_input_shape`
                before anything is drawn.
            stream_words: ``stream_words(values, rng)`` -> packed words,
                the calling backend's comparator seam; the build draws
                every cached weight and bias entry through it.
        """
        shape = tuple(int(d) for d in shape)
        plane = self._planes.get(shape)
        if plane is None:
            with self._plane_lock:
                plane = self._planes.get(shape)
                if plane is None:
                    plane = self._planes[shape] = self._build_plane(
                        shape, stream_words
                    )
        return plane

    def _build_plane(self, shape, stream_words) -> StreamPlane:
        from repro.sc.packed import words_for_length

        self.check_input_shape(shape)
        n = self.stream_length
        rng = np.random.default_rng(self.seed)

        def entry(n_values: int, value_bytes: int, draw):
            nbytes = n_values * value_bytes
            if self._plane_bytes + nbytes > self._PLANE_BYTES_BUDGET:
                state = rng.bit_generator.state
                # Each float64 draw consumes one 64-bit generator output.
                rng.bit_generator.advance(n_values * n)
                return state
            array = draw()
            array.flags.writeable = False
            self._plane_bytes += nbytes
            return array

        n_inputs = int(np.prod(shape))
        input_draws = entry(n_inputs, 8 * n, lambda: rng.random((n_inputs, n)))
        word_bytes = 8 * words_for_length(n)
        params = {
            index: tuple(
                entry(values.size, word_bytes, lambda v=values: stream_words(v, rng))
                for values in (layer.weights, layer.bias)
            )
            for index, layer in enumerate(self.network.layers)
            if isinstance(layer, (Conv2D, Dense))
        }
        return StreamPlane(input_draws, params)

    # -- legacy bit-exact reference ---------------------------------------------

    def bit_exact_forward_legacy(
        self, image: np.ndarray, rng: np.random.Generator | None = None,
        position_chunk: int = 32, return_streams: bool = False,
    ) -> np.ndarray:
        """Per-image, small-chunk bit-exact simulation (legacy reference).

        Kept verbatim as the equivalence oracle of every bit-exact
        backend and as the "legacy" end-to-end baseline timed by
        ``benchmarks/bench_perf.py``.

        Args:
            image: ``(channels, height, width)`` image in ``[0, 1]``.
            rng: stream-generation random generator.
            position_chunk: how many output positions to process at a time.
            return_streams: return the raw ``(n_classes, N)`` output bit
                streams instead of the decoded scores.  Any prefix of
                these streams is exactly what the hardware would have
                produced had it stopped that many cycles in (every block
                is causal in the stream axis).

        Returns:
            ``(n_classes,)`` decoded class scores (or the output streams).
        """
        rng = rng or np.random.default_rng(self.seed)
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 3:
            raise ShapeError(f"expected (channels, height, width), got {image.shape}")
        n = self.stream_length
        value = self._quantize_activations(image * 2.0 - 1.0)
        # Feature map as bit streams: (channels, height, width, N).
        bits = (rng.random(value.shape + (n,)) < ((value + 1.0) / 2.0)[..., None]).astype(
            np.uint8
        )
        dense_layers = [l for l in self.network.layers if isinstance(l, Dense)]
        dense_seen = 0
        for layer in self.network.layers:
            if isinstance(layer, Conv2D):
                bits = self._bit_exact_conv(bits, layer, rng, position_chunk)
            elif isinstance(layer, AvgPool2D):
                bits = self._bit_exact_pool(bits, layer)
            elif isinstance(layer, Flatten):
                bits = bits.reshape(-1, n)
            elif isinstance(layer, Dense):
                dense_seen += 1
                is_output = dense_seen == len(dense_layers)
                bits = self._bit_exact_dense(bits, layer, rng, is_output, position_chunk)
            elif isinstance(layer, (HardwareActivation, ClipActivation, LogitScale)):
                continue
            else:  # pragma: no cover - defensive
                raise ConfigurationError(
                    f"cannot map layer {type(layer).__name__} to SC hardware"
                )
        if return_streams:
            return bits
        return 2.0 * bits.mean(axis=-1) - 1.0

    def weight_stream_bits(
        self, weights: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Bipolar bit streams for quantised weights (shape + ``(N,)``).

        The legacy oracle draws its weight and bias streams through this
        method, in layer order; :meth:`weight_stream_words` consumes the
        RNG identically, so the simulated streams are identical across
        backends.
        """
        q = self.quantized_weights(weights)
        p = (q + 1.0) / 2.0
        return (rng.random(q.shape + (self.stream_length,)) < p[..., None]).astype(np.uint8)

    def _bit_exact_conv(
        self,
        bits: np.ndarray,
        layer: Conv2D,
        rng: np.random.Generator,
        position_chunk: int,
    ) -> np.ndarray:
        n = self.stream_length
        channels, height, width, _ = bits.shape
        pad = (layer.kernel_size - 1) // 2 if layer.padding == "same" else 0
        # im2col over the stream axis: treat N as extra trailing axes by
        # moving it into the batch dimension of im2col's channel layout.
        stacked = bits.transpose(3, 0, 1, 2)  # (N, C, H, W)
        patches, out_h, out_w = im2col(stacked, layer.kernel_size, layer.stride, pad)
        # patches: (N, positions, fan_in) -> (positions, fan_in, N)
        patches = patches.transpose(1, 2, 0).astype(np.uint8)
        weight_bits = self.weight_stream_bits(layer.weights, rng)  # (out_ch, fan_in, N)
        bias_bits = self.weight_stream_bits(layer.bias, rng)  # (out_ch, N)
        block = SorterFeatureExtractionBlock(layer.fan_in + 1)
        n_positions = patches.shape[0]
        output = np.empty((layer.out_channels, n_positions, n), dtype=np.uint8)
        for start in range(0, n_positions, position_chunk):
            chunk = patches[start : start + position_chunk]  # (chunk, fan_in, N)
            products = np.logical_not(
                np.logical_xor(chunk[:, None, :, :], weight_bits[None, :, :, :])
            ).astype(np.uint8)  # (chunk, out_ch, fan_in, N)
            bias = np.broadcast_to(
                bias_bits[None, :, None, :], products.shape[:2] + (1, n)
            )
            products = np.concatenate([products, bias], axis=2)
            activated = block.forward_products(products)  # (chunk, out_ch, N)
            output[:, start : start + chunk.shape[0]] = activated.transpose(1, 0, 2)
        return output.reshape(layer.out_channels, out_h, out_w, n)

    def _bit_exact_pool(self, bits: np.ndarray, layer: AvgPool2D) -> np.ndarray:
        channels, height, width, n = bits.shape
        p = layer.pool_size
        out_h, out_w = height // p, width // p
        trimmed = bits[:, : out_h * p, : out_w * p]
        grouped = trimmed.reshape(channels, out_h, p, out_w, p, n)
        grouped = grouped.transpose(0, 1, 3, 2, 4, 5).reshape(
            channels * out_h * out_w, p * p, n
        )
        block = SorterAveragePoolingBlock(p * p)
        pooled = block.forward_bits_reference(grouped)
        return pooled.reshape(channels, out_h, out_w, n)

    def _bit_exact_dense(
        self,
        bits: np.ndarray,
        layer: Dense,
        rng: np.random.Generator,
        is_output: bool,
        neuron_chunk: int,
    ) -> np.ndarray:
        n = self.stream_length
        if bits.shape != (layer.in_features, n):
            raise ShapeError(
                f"dense layer expects ({layer.in_features}, {n}) streams, got {bits.shape}"
            )
        weight_bits = self.weight_stream_bits(layer.weights, rng)  # (out, in, N)
        bias_bits = self.weight_stream_bits(layer.bias, rng)  # (out, N)
        outputs = np.empty((layer.out_features, n), dtype=np.uint8)
        if is_output:
            block = MajorityChainCategorizationBlock(layer.in_features)
        else:
            block = SorterFeatureExtractionBlock(layer.in_features + 1)
        for start in range(0, layer.out_features, neuron_chunk):
            w_chunk = weight_bits[start : start + neuron_chunk]
            products = np.logical_not(
                np.logical_xor(bits[None, :, :], w_chunk)
            ).astype(np.uint8)  # (chunk, in, N)
            if is_output:
                outputs[start : start + w_chunk.shape[0]] = block.forward_products(products)
            else:
                bias = bias_bits[start : start + w_chunk.shape[0], None, :]
                products = np.concatenate([products, bias], axis=1)
                outputs[start : start + w_chunk.shape[0]] = block.forward_products(products)
        return outputs
