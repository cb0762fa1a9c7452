"""Run metrics: the stationarity-plus-consensus residual, relative error,
test accuracy, and dual drift.

Every metric reads the (m, d) models ``x`` and, where it needs them, the
(m, d) duals ``phi`` and the run's ``LossStack``.  V reads the engine's
carried (m, d) loss gradients ``grad`` = grad f_i(x_i) and evaluates no
loss.  The relative errors read the sum of the same rows when the caller
passes it (``gradient_sum``), and evaluate no loss then either; without it
(the gradient-tracking baseline) they evaluate each agent's gradient one
agent at a time, with the same sum.  A CADEN row takes V and both
relative errors from ``carried_row``, which computes the gradient sum and
the edge gap (``edge_gap``) once for the three.  Test accuracy takes every
agent's predictions from one ``predictions`` call of the stack.  The residual V is zero exactly at
consensus stationary points: all models equal and the per-agent gradients
summing to zero.
"""

from __future__ import annotations

import numpy as np

from .graphs import Topology
from .losses import LossStack, rowdot


def edge_gap(x: np.ndarray, topology: Topology) -> float:
    """sum over the graph's edges (i, j), each once, of ||x_i - x_j||^2."""
    return float(((x[topology.src] - x[topology.dst]) ** 2).sum())


def lyapunov_v(
    x: np.ndarray, phi: np.ndarray, grad: np.ndarray, topology: Topology, gap: float | None = None
) -> float:
    """sum_i ||grad f_i(x_i) + phi_i||^2 + (1/4) sum_i sum_{j in N_i} ||x_i - x_j||^2,
    with the loss gradients at the models given as the rows of ``grad``;
    ``gap`` is ``edge_gap(x, topology)`` when the caller has it."""
    g = grad + phi
    # A running total in agent order.
    total = float(np.cumsum(rowdot(g, g))[-1])
    # Each undirected edge appears twice in the double sum over neighborhoods.
    total += 0.5 * (edge_gap(x, topology) if gap is None else gap)
    return total


def gradient_sum(x: np.ndarray, losses: LossStack, grad: np.ndarray | None = None) -> np.ndarray:
    """sum_i grad f_i(x_i), added in agent order from zero: of the rows of
    ``grad`` when given, else of each agent's ``gradient``."""
    grad_sum = np.zeros(losses[0].dim)
    if grad is not None:
        for row in grad:
            grad_sum += row
        return grad_sum
    for x_i, loss in zip(x, losses):
        grad_sum += loss.gradient(x_i)
    return grad_sum


def relative_error(
    x: np.ndarray, losses: LossStack, grad_sum: np.ndarray | None = None
) -> float:
    """||sum_i grad f_i(x_i)||^2 plus the chain consensus gap
    sum_{i=1}^{m-1} ||x_i - x_{i+1}||^2.  ``grad_sum`` is
    ``gradient_sum(x, losses, grad)`` when the caller has the (m, d) loss
    gradients ``grad`` at ``x``; then no loss is evaluated.

    The consensus term runs over consecutive agent indices, not graph edges,
    so the metric is defined for methods without dual variables as well.
    """
    if grad_sum is None:
        grad_sum = gradient_sum(x, losses)
    diff = x[:-1] - x[1:]
    # A running total in agent order.
    return float(np.cumsum([grad_sum @ grad_sum, *rowdot(diff, diff)])[-1])


def relative_error_graph(
    x: np.ndarray,
    losses: LossStack,
    topology: Topology,
    grad_sum: np.ndarray | None = None,
    gap: float | None = None,
) -> float:
    """Variant with the consensus gap summed over graph edges (diagnostic),
    reading ``grad_sum`` as ``relative_error`` does and ``gap`` as
    ``lyapunov_v`` does."""
    if grad_sum is None:
        grad_sum = gradient_sum(x, losses)
    total = float(grad_sum @ grad_sum)
    total += edge_gap(x, topology) if gap is None else gap
    return total


def carried_row(
    x: np.ndarray, phi: np.ndarray, grad: np.ndarray, losses: LossStack, topology: Topology
) -> tuple[float, float, float]:
    """V_t, rel_err and rel_err_graph at the models ``x`` and duals ``phi``
    from the carried loss gradients ``grad``: their sum and the edge gap
    are computed once and shared, and each value equals its function's
    own, bit for bit."""
    grad_sum = gradient_sum(x, losses, grad)
    gap = edge_gap(x, topology)
    return (
        lyapunov_v(x, phi, grad, topology, gap),
        relative_error(x, losses, grad_sum),
        relative_error_graph(x, losses, topology, grad_sum, gap),
    )


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
