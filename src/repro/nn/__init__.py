"""Neural-network layer of the framework.

``repro.nn`` provides the float reference network (layers with
backpropagation, SC-aware training), the Table 8 architectures (SNN and
DNN), and the SC network mapper that maps every layer onto the proposed
AQFP blocks.  Training happens in float with the hardware transfer curve
as activation and weights constrained to ``[-1, 1]``.  A trained network
is scored through :class:`repro.api.Session`
(``Session.from_network(network).evaluate(images, labels, backend=...)``),
either by the fast statistical SC model (``sc-fast``) or bit-exactly
through the block implementations (``bit-exact-packed``).
"""

from repro.nn.architectures import (
    LayerSpec,
    build_dnn,
    build_network,
    build_snn,
    dnn_layer_specs,
    snn_layer_specs,
)
from repro.nn.layers import (
    AvgPool2D,
    ClipActivation,
    Conv2D,
    Dense,
    Flatten,
    HardwareActivation,
    Network,
    softmax_cross_entropy,
)
from repro.nn.quantization import dequantize_weights, quantize_network, quantize_weights
from repro.nn.sc_layers import ScNetworkMapper
from repro.nn.training import Trainer, TrainingConfig

__all__ = [
    "Conv2D",
    "Dense",
    "AvgPool2D",
    "Flatten",
    "ClipActivation",
    "HardwareActivation",
    "Network",
    "softmax_cross_entropy",
    "quantize_weights",
    "dequantize_weights",
    "quantize_network",
    "Trainer",
    "TrainingConfig",
    "LayerSpec",
    "snn_layer_specs",
    "dnn_layer_specs",
    "build_network",
    "build_snn",
    "build_dnn",
    "ScNetworkMapper",
]
