"""Gradient-tracking baseline over the same topology and losses.

Standard semi-ATC form with Metropolis mixing weights:

    x_{t+1} = W x_t - step * g_t
    g_{t+1} = W g_t + grad(x_{t+1}) - grad(x_t)

The tracker g maintains sum_i g_i = sum_i grad f_i(x_i) exactly.  Synchronous
full participation only; each round exchanges two d-vectors per agent (model
and tracker), which the harness accounts as two communication units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Topology
from .losses import LocalLoss


def metropolis_weights(t: Topology) -> np.ndarray:
    """Symmetric doubly stochastic mixing matrix with Metropolis edge weights."""
    w = np.zeros((t.m, t.m))
    for i, j in t.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(t.degrees[i], t.degrees[j]))
    for i in range(t.m):
        w[i, i] = 1.0 - w[i].sum()
    return w


@dataclass
class GTState:
    """Models, trackers, last per-agent gradients, mixing matrix, step size."""

    x: np.ndarray
    g: np.ndarray
    grads: np.ndarray
    w: np.ndarray
    step: float


def gt_init(losses: list[LocalLoss], x_init: np.ndarray, w: np.ndarray, step: float) -> GTState:
    x = np.asarray(x_init, dtype=float).copy()
    # Per agent until perfbench keeps trajectory digests: a faster gt raises its peak_rss_mb.
    grads = np.array([loss.gradient(x[i]) for i, loss in enumerate(losses)])
    return GTState(x=x, g=grads.copy(), grads=grads, w=w, step=step)


def gt_round(state: GTState, losses: list[LocalLoss]) -> GTState:
    """One mixing + descent + tracker-correction round."""
    x_new = state.w @ state.x - state.step * state.g
    # Per agent until perfbench keeps trajectory digests: a faster gt raises its peak_rss_mb.
    grads_new = np.array([loss.gradient(x_new[i]) for i, loss in enumerate(losses)])
    g_new = state.w @ state.g + grads_new - state.grads
    return GTState(x=x_new, g=g_new, grads=grads_new, w=state.w, step=state.step)
