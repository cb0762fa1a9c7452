"""Per-agent differentiable losses and empirical smoothness estimation.

Three families are provided: quadratics (with exact curvature, used as
oracles), multinomial logistic regression, and a two-layer ReLU perceptron
with softmax cross-entropy.  All are bounded below by 0 and expose value()
and gradient() on a flat parameter vector of dimension ``dim``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LipschitzEstimateError

_INIT_STREAM = 301

# Steps shorter than this yield no usable difference quotient.
MIN_PROBE_STEP = 1e-15


class LocalLoss:
    """Evaluation contract for one agent's objective."""

    dim: int

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def smoothness(self) -> float | None:
        """Exact gradient-Lipschitz constant when known in closed form."""
        return None

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected parameter vector of shape ({self.dim},), got {x.shape}")
        return x


class QuadraticLoss(LocalLoss):
    """0.5 (x - a)^T Q (x - a) with positive semidefinite Q.

    Q may be passed as a 1-D diagonal or a full symmetric matrix.
    """

    def __init__(self, q: np.ndarray, a: np.ndarray):
        q = np.asarray(q, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.dim = self.a.shape[0]
        self.diagonal = q.ndim == 1
        if self.diagonal:
            if q.shape != (self.dim,):
                raise ValueError("diagonal Q must match target dimension")
        elif q.shape != (self.dim, self.dim):
            raise ValueError("Q must be (d,) or (d, d)")
        self.q = q

    def value(self, x: np.ndarray) -> float:
        x = self._check(x)
        r = x - self.a
        if self.diagonal:
            return 0.5 * float(r @ (self.q * r))
        return 0.5 * float(r @ (self.q @ r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        r = x - self.a
        return self.q * r if self.diagonal else self.q @ r

    def smoothness(self) -> float:
        if self.diagonal:
            return float(self.q.max())
        return float(np.linalg.eigvalsh(self.q)[-1])


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(labels.shape[0]), labels]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


class LogisticLoss(LocalLoss):
    """Multinomial logistic regression: mean cross-entropy plus optional L2.

    Parameters are the flattened (features, classes) weight matrix; there is
    no separate bias (append a constant feature column if one is wanted).
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, classes: int, l2: float = 0.0):
        self.x_data = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.classes = classes
        self.l2 = l2
        self.n_features = self.x_data.shape[1]
        self.dim = self.n_features * classes

    def _weights(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.n_features, self.classes)

    def value(self, x: np.ndarray) -> float:
        x = self._check(x)
        probs = _softmax(self.x_data @ self._weights(x))
        return _cross_entropy(probs, self.labels) + 0.5 * self.l2 * float(x @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        n = self.x_data.shape[0]
        probs = _softmax(self.x_data @ self._weights(x))
        probs[np.arange(n), self.labels] -= 1.0
        grad = (self.x_data.T @ probs) / n
        return grad.ravel() + self.l2 * x

    def predict(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        logits = np.asarray(features, dtype=float) @ self._weights(self._check(x))
        return logits.argmax(axis=1)


class MlpLoss(LocalLoss):
    """Two fully connected layers with ReLU, softmax cross-entropy, optional L2.

    Flat parameter layout: [W1 (features x hidden), b1, W2 (hidden x classes),
    b2].  Gradients are reverse-mode through the two layers on the agent's
    full data shard.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        hidden: int,
        classes: int,
        l2: float = 0.0,
    ):
        self.x_data = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.hidden = hidden
        self.classes = classes
        self.l2 = l2
        self.n_features = self.x_data.shape[1]
        p, h, k = self.n_features, hidden, classes
        self.dim = p * h + h + h * k + k

    def _unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        p, h, k = self.n_features, self.hidden, self.classes
        o1 = p * h
        o2 = o1 + h
        o3 = o2 + h * k
        return (
            x[:o1].reshape(p, h),
            x[o1:o2],
            x[o2:o3].reshape(h, k),
            x[o3:],
        )

    def _forward(self, x: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w1, b1, w2, b2 = self._unpack(x)
        act = np.maximum(data @ w1 + b1, 0.0)
        return act, act @ w2 + b2

    def value(self, x: np.ndarray) -> float:
        x = self._check(x)
        _, logits = self._forward(x, self.x_data)
        return _cross_entropy(_softmax(logits), self.labels) + 0.5 * self.l2 * float(x @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        w1, b1, w2, b2 = self._unpack(x)
        n = self.x_data.shape[0]
        act, logits = self._forward(x, self.x_data)
        delta = _softmax(logits)
        delta[np.arange(n), self.labels] -= 1.0
        delta /= n
        g_w2 = act.T @ delta
        g_b2 = delta.sum(axis=0)
        back = delta @ w2.T
        back[act <= 0.0] = 0.0
        g_w1 = self.x_data.T @ back
        g_b1 = back.sum(axis=0)
        grad = np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])
        if self.l2:
            grad += self.l2 * x
        return grad

    def init_params(self, seed: int) -> np.ndarray:
        """He-scaled random weights, zero biases."""
        rng = np.random.default_rng([_INIT_STREAM, seed])
        p, h, k = self.n_features, self.hidden, self.classes
        w1 = rng.standard_normal((p, h)) * np.sqrt(2.0 / p)
        w2 = rng.standard_normal((h, k)) * np.sqrt(2.0 / h)
        return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(k)])

    def predict(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        _, logits = self._forward(self._check(x), np.asarray(features, dtype=float))
        return logits.argmax(axis=1)


@dataclass(frozen=True)
class LipschitzEstimate:
    """Result of the smoothness probe.

    ``x_init`` is the final probe iterate, which doubles as the algorithm's
    initialization so estimation and warm-up share the same local training.
    """

    l_hat: float
    x_init: np.ndarray


def estimate_lipschitz(
    loss: LocalLoss,
    x0: np.ndarray,
    warm_epochs: int = 20,
    warm_lr: float = 0.1,
    probe_epochs: int = 10,
    probe_lr: float = 1e-7,
) -> LipschitzEstimate:
    """Empirical gradient-Lipschitz constant from local full-gradient descent.

    Runs ``warm_epochs`` descent steps at ``warm_lr`` from ``x0``, then
    ``probe_epochs`` steps at the tiny ``probe_lr``, and returns the maximum
    difference quotient

        ||grad(x_next) - grad(x)|| / ||x_next - x||

    over consecutive probe iterates.  Probe pairs with step shorter than
    ``MIN_PROBE_STEP`` are skipped; the estimate fails only when every pair
    is skipped.
    """
    if warm_lr <= 0 or probe_lr <= 0:
        raise ValueError("learning rates must be positive")
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(warm_epochs):
        x = x - warm_lr * loss.gradient(x)
    l_hat = 0.0
    used = 0
    grad = loss.gradient(x)
    for _ in range(probe_epochs):
        x_next = x - probe_lr * grad
        grad_next = loss.gradient(x_next)
        step = float(np.linalg.norm(x_next - x))
        if step >= MIN_PROBE_STEP:
            l_hat = max(l_hat, float(np.linalg.norm(grad_next - grad)) / step)
            used += 1
        x, grad = x_next, grad_next
    if used == 0:
        raise LipschitzEstimateError(
            "all probe steps were below the minimum length; decrease warm_epochs or raise probe_lr"
        )
    return LipschitzEstimate(l_hat=l_hat, x_init=x)
