"""SC-aware training loop.

The paper trains its networks "taking all limitations of AQFP and SC into
consideration": weights are kept inside the bipolar range, activations use
the hardware transfer curve, and pooling is averaging.  The trainer here
implements exactly that -- plain SGD with momentum (or Adam) plus a weight
clip after every step -- on the float reference network, which is then
quantised and scored through :class:`repro.api.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.nn.layers import Network, softmax_cross_entropy

__all__ = ["TrainingConfig", "TrainingHistory", "Trainer"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of a training run.

    Attributes:
        epochs: passes over the training set.
        batch_size: minibatch size.
        learning_rate: optimiser step size (the default suits Adam).
        momentum: SGD momentum (ignored by Adam).
        optimizer: ``"sgd"`` or ``"adam"``.
        weight_limit: post-step clip applied to all parameters (the SC
            representable range); ``None`` disables clipping.
        seed: shuffling seed.
    """

    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.002
    momentum: float = 0.9
    optimizer: str = "adam"
    weight_limit: float | None = 1.0
    seed: int = 2019

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainingError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise TrainingError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainingHistory:
    """Per-epoch metrics collected during training."""

    losses: list[float] = field(default_factory=list)
    train_accuracies: list[float] = field(default_factory=list)
    test_accuracies: list[float] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        """Accuracy on the held-out set after the last epoch."""
        if not self.test_accuracies:
            raise TrainingError("no test accuracy recorded")
        return self.test_accuracies[-1]


class Trainer:
    """Minibatch trainer for :class:`~repro.nn.layers.Network`.

    Args:
        network: the network to train (modified in place).
        config: training hyper-parameters.
    """

    def __init__(self, network: Network, config: TrainingConfig | None = None) -> None:
        self.network = network
        self.config = config or TrainingConfig()
        self._velocity: list[np.ndarray] | None = None
        self._adam_m: list[np.ndarray] | None = None
        self._adam_v: list[np.ndarray] | None = None
        self._adam_t = 0

    def _step(self, learning_rate: float) -> None:
        params = self.network.parameters()
        grads = self.network.gradients()
        if len(params) != len(grads):
            raise TrainingError("parameter/gradient count mismatch")
        if self.config.optimizer == "sgd":
            if self._velocity is None:
                self._velocity = [np.zeros_like(p) for p in params]
            for param, grad, velocity in zip(params, grads, self._velocity):
                velocity *= self.config.momentum
                velocity -= learning_rate * grad
                param += velocity
        else:  # adam
            if self._adam_m is None:
                self._adam_m = [np.zeros_like(p) for p in params]
                self._adam_v = [np.zeros_like(p) for p in params]
            self._adam_t += 1
            beta1, beta2, eps = 0.9, 0.999, 1e-8
            for param, grad, m, v in zip(params, grads, self._adam_m, self._adam_v):
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad * grad
                m_hat = m / (1 - beta1 ** self._adam_t)
                v_hat = v / (1 - beta2 ** self._adam_t)
                param -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        if self.config.weight_limit is not None:
            self.network.clip_parameters(self.config.weight_limit)

    def fit(
        self,
        train_images: np.ndarray,
        train_labels: np.ndarray,
        test_images: np.ndarray | None = None,
        test_labels: np.ndarray | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train the network and return per-epoch metrics.

        Args:
            train_images: ``(n, channels, height, width)`` or ``(n, features)``.
            train_labels: integer class labels.
            test_images / test_labels: optional held-out set evaluated after
                every epoch.
            verbose: print a one-line summary per epoch.
        """
        train_images = np.asarray(train_images, dtype=np.float64)
        train_labels = np.asarray(train_labels)
        if train_images.shape[0] != train_labels.shape[0]:
            raise TrainingError("image/label count mismatch")
        history = TrainingHistory()
        rng = np.random.default_rng(self.config.seed)
        n = train_images.shape[0]
        for epoch in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_losses = []
            correct = 0
            for start in range(0, n, self.config.batch_size):
                batch_idx = order[start : start + self.config.batch_size]
                images = train_images[batch_idx]
                labels = train_labels[batch_idx]
                logits = self.network.forward(images, training=True)
                loss, grad = softmax_cross_entropy(logits, labels)
                self.network.backward(grad)
                self._step(self.config.learning_rate)
                epoch_losses.append(loss)
                correct += int((np.argmax(logits, axis=1) == labels).sum())
            history.losses.append(float(np.mean(epoch_losses)))
            history.train_accuracies.append(correct / n)
            if test_images is not None and test_labels is not None:
                history.test_accuracies.append(
                    self.network.accuracy(np.asarray(test_images, dtype=np.float64), test_labels)
                )
            if verbose:
                test_acc = history.test_accuracies[-1] if history.test_accuracies else float("nan")
                print(
                    f"epoch {epoch + 1}/{self.config.epochs} "
                    f"loss={history.losses[-1]:.4f} "
                    f"train_acc={history.train_accuracies[-1]:.4f} "
                    f"test_acc={test_acc:.4f}"
                )
        return history
