"""Run metrics: the stationarity-plus-consensus residual, relative error,
test accuracy, and dual drift.

Every metric reads the (m, d) models ``x`` and, where it needs them, the
(m, d) duals ``phi``.  V reads the engine's carried (m, d) loss gradients
``grad`` = grad f_i(x_i) and evaluates no loss; the relative errors still
evaluate each agent's gradient.  The residual V is zero exactly at
consensus stationary points: all models equal and the per-agent gradients
summing to zero.
"""

from __future__ import annotations

import numpy as np

from .graphs import Topology
from .losses import LocalLoss, rowdot


def lyapunov_v(x: np.ndarray, phi: np.ndarray, grad: np.ndarray, topology: Topology) -> float:
    """sum_i ||grad f_i(x_i) + phi_i||^2 + (1/4) sum_i sum_{j in N_i} ||x_i - x_j||^2,
    with the loss gradients at the models given as the rows of ``grad``."""
    g = grad + phi
    # A running total in agent order.
    total = float(np.cumsum(rowdot(g, g))[-1])
    # Each undirected edge appears twice in the double sum over neighborhoods.
    total += 0.5 * float(((x[topology.src] - x[topology.dst]) ** 2).sum())
    return total


def _gradient_sum(x: np.ndarray, losses: list[LocalLoss]) -> np.ndarray:
    grad_sum = np.zeros(losses[0].dim)
    for x_i, loss in zip(x, losses):
        grad_sum += loss.gradient(x_i)
    return grad_sum


def relative_error(x: np.ndarray, losses: list[LocalLoss]) -> float:
    """||sum_i grad f_i(x_i)||^2 plus the chain consensus gap
    sum_{i=1}^{m-1} ||x_i - x_{i+1}||^2.

    The consensus term runs over consecutive agent indices, not graph edges,
    so the metric is defined for methods without dual variables as well.
    """
    grad_sum = _gradient_sum(x, losses)
    total = float(grad_sum @ grad_sum)
    for a, b in zip(x, x[1:]):
        diff = a - b
        total += float(diff @ diff)
    return total


def relative_error_graph(
    x: np.ndarray, losses: list[LocalLoss], topology: Topology
) -> float:
    """Variant with the consensus gap summed over graph edges (diagnostic)."""
    grad_sum = _gradient_sum(x, losses)
    total = float(grad_sum @ grad_sum)
    total += float(((x[topology.src] - x[topology.dst]) ** 2).sum())
    return total


def test_accuracy(
    x: np.ndarray,
    losses: list[LocalLoss],
    eval_features: np.ndarray,
    eval_labels: np.ndarray,
) -> float | None:
    """Mean over agents of their local model's accuracy on a shared held-out
    set; None when the loss family has no classifier."""
    if not hasattr(losses[0], "predict"):
        return None
    correct = 0.0
    for x_i, loss in zip(x, losses):
        pred = loss.predict(x_i, eval_features)
        correct += float((pred == eval_labels).mean())
    return correct / len(x)


def phi_drift(phi: np.ndarray) -> float:
    """Norm of sum_i phi_i; zero for all rounds under full participation and
    zero initialization, logged as a diagnostic under partial participation."""
    return float(np.linalg.norm(phi.sum(axis=0)))
