"""Edge-variable reference iterations with explicit per-edge consensus
variables and per-endpoint duals.

This is the unsimplified form of the method: every edge (i, j) carries a
consensus variable z_ij and two duals, one per endpoint.  It runs full
participation only and serves as the equivalence oracle for the agent-form
engine: with zero dual initialization the two endpoint duals stay
antisymmetric, z collapses to the edge midpoints, and the x-trajectories of
the two forms coincide.  The x-step builds each agent's ``LocalSubproblem``
and solves it through ``engine.solve_local`` with the run's ``CadenConfig``,
so both forms share one config and one solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CadenConfig, solve_local
from .graphs import Topology, edge_midpoints
from .losses import LocalLoss
from .solvers import LocalSubproblem


@dataclass
class EdgeState:
    """Full edge-form state.

    ``y`` has shape (n, 2, d): slot 0 holds the dual of the smaller endpoint
    of each edge, slot 1 the larger.  The duals are stored separately rather
    than assumed antisymmetric; antisymmetry is a property to verify.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray


def init_edge_state(topology: Topology, x_init: np.ndarray) -> EdgeState:
    """Zero duals; z starts at the edge midpoints of the initial models."""
    x = np.asarray(x_init, dtype=float).copy()
    z = edge_midpoints(topology, x)
    y = np.zeros((topology.n, 2, x.shape[1]))
    return EdgeState(x=x, z=z, y=y)


def edge_subproblem(
    agent: int,
    state: EdgeState,
    phi: np.ndarray,
    loss: LocalLoss,
    topology: Topology,
    mu_z: float,
) -> LocalSubproblem:
    """The agent's edge-form x-step objective

        f_i(x) + sum_{edges k at i} [ y_k,i . (x - z_k) + (mu_z/2) ||x - z_k||^2 ]

    as a subproblem with dual ``phi[agent]`` (the per-agent sums of
    ``dual_aggregates``) and one anchor z_k per incident edge; the two differ
    by the constant -sum_k y_k,i . z_k.
    """
    edges = [k for k, _, _ in topology.incident(agent)]
    return LocalSubproblem(loss=loss, phi=phi[agent], anchors=state.z[edges], mu_z=mu_z)


def edge_x_step(
    state: EdgeState,
    losses: list[LocalLoss],
    topology: Topology,
    config: CadenConfig,
    round_index: int,
) -> np.ndarray:
    """Inexactly minimize every agent's edge-form objective, warm-started,
    with the solver and round budget of ``config``."""
    if config.participation < 1.0:
        raise ValueError("the edge form runs full participation only")
    phi = dual_aggregates(state, topology)
    tau = config.tau_schedule.tau(round_index)
    new_x = np.empty_like(state.x)
    for i in range(topology.m):
        problem = edge_subproblem(i, state, phi, losses[i], topology, config.mu_z)
        new_x[i] = solve_local(problem, state.x[i], config, tau).x_out
    return new_x


def edge_z_step(state: EdgeState, topology: Topology, mu_z: float) -> np.ndarray:
    """Closed form: z_k = (x_i + x_j + (y_k,i + y_k,j) / mu_z) / 2."""
    src, dst = topology.edge_arrays()
    return 0.5 * (state.x[src] + state.x[dst] + (state.y[:, 0] + state.y[:, 1]) / mu_z)


def edge_y_step(state: EdgeState, topology: Topology, mu_y: float) -> np.ndarray:
    """Dual ascent per endpoint: y_k,i += mu_y (x_i - z_k)."""
    src, dst = topology.edge_arrays()
    y = state.y.copy()
    y[:, 0] += mu_y * (state.x[src] - state.z)
    y[:, 1] += mu_y * (state.x[dst] - state.z)
    return y


def run_edge_round(
    state: EdgeState,
    losses: list[LocalLoss],
    topology: Topology,
    config: CadenConfig,
    round_index: int,
) -> EdgeState:
    """One synchronous x, z, y sweep; returns the new state."""
    x = edge_x_step(state, losses, topology, config, round_index)
    mid = EdgeState(x=x, z=state.z, y=state.y)
    z = edge_z_step(mid, topology, config.mu_z)
    mid = EdgeState(x=x, z=z, y=state.y)
    y = edge_y_step(mid, topology, config.mu_y)
    return EdgeState(x=x, z=z, y=y)


def dual_aggregates(state: EdgeState, topology: Topology) -> np.ndarray:
    """Per-agent sums of incident endpoint duals (the agent-form dual)."""
    phi = np.zeros_like(state.x)
    for i in range(topology.m):
        for k, _, side in topology.incident(i):
            phi[i] += state.y[k, side]
    return phi


def antisymmetry_gap(state: EdgeState) -> float:
    """Max-abs violation of y_k,i + y_k,j = 0 over all edges."""
    if state.y.shape[0] == 0:
        return 0.0
    return float(np.abs(state.y[:, 0] + state.y[:, 1]).max())
