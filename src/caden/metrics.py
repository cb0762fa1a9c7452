"""Run metrics: the stationarity-plus-consensus residual, relative error,
test accuracy, and dual drift.

Every metric reads the (m, d) models ``x`` and, where it needs them, the
(m, d) duals ``phi`` and the run's ``LossStack``.  V reads the engine's
carried (m, d) loss gradients ``grad`` = grad f_i(x_i) and evaluates no
loss; the relative errors still evaluate each agent's gradient one agent at
a time, and test accuracy takes every agent's predictions from one
``predictions`` call of the stack.  The residual V is zero exactly at
consensus stationary points: all models equal and the per-agent gradients
summing to zero.
"""

from __future__ import annotations

import numpy as np

from .graphs import Topology
from .losses import LossStack, rowdot


def lyapunov_v(x: np.ndarray, phi: np.ndarray, grad: np.ndarray, topology: Topology) -> float:
    """sum_i ||grad f_i(x_i) + phi_i||^2 + (1/4) sum_i sum_{j in N_i} ||x_i - x_j||^2,
    with the loss gradients at the models given as the rows of ``grad``."""
    g = grad + phi
    # A running total in agent order.
    total = float(np.cumsum(rowdot(g, g))[-1])
    # Each undirected edge appears twice in the double sum over neighborhoods.
    total += 0.5 * float(((x[topology.src] - x[topology.dst]) ** 2).sum())
    return total


def _gradient_sum(x: np.ndarray, losses: LossStack) -> np.ndarray:
    # Per agent until perfbench counts stacked calls and keeps trajectory digests.
    grad_sum = np.zeros(losses[0].dim)
    for x_i, loss in zip(x, losses):
        grad_sum += loss.gradient(x_i)
    return grad_sum


def relative_error(x: np.ndarray, losses: LossStack) -> float:
    """||sum_i grad f_i(x_i)||^2 plus the chain consensus gap
    sum_{i=1}^{m-1} ||x_i - x_{i+1}||^2.

    The consensus term runs over consecutive agent indices, not graph edges,
    so the metric is defined for methods without dual variables as well.
    """
    grad_sum = _gradient_sum(x, losses)
    diff = x[:-1] - x[1:]
    # A running total in agent order.
    return float(np.cumsum([grad_sum @ grad_sum, *rowdot(diff, diff)])[-1])


def relative_error_graph(
    x: np.ndarray, losses: LossStack, topology: Topology
) -> float:
    """Variant with the consensus gap summed over graph edges (diagnostic)."""
    grad_sum = _gradient_sum(x, losses)
    total = float(grad_sum @ grad_sum)
    total += float(((x[topology.src] - x[topology.dst]) ** 2).sum())
    return total


def test_accuracy(
    x: np.ndarray,
    losses: LossStack,
    eval_features: np.ndarray,
    eval_labels: np.ndarray,
) -> float | None:
    """Mean over agents of their local model's accuracy on a shared held-out
    set; None when the loss family has no classifier."""
    if not hasattr(losses[0], "predict"):
        return None
    pred = losses.predictions(x, eval_features)
    # Each mean is an exact count / n; a running total in agent order.
    return float(np.cumsum((pred == eval_labels).mean(axis=-1))[-1]) / len(x)


def phi_drift(phi: np.ndarray) -> float:
    """Norm of sum_i phi_i; zero for all rounds under full participation and
    zero initialization, logged as a diagnostic under partial participation."""
    return float(np.linalg.norm(phi.sum(axis=0)))
