"""Edge-variable reference iterations with explicit per-edge consensus
variables and per-endpoint duals.

This is the unsimplified form of the method: every edge (i, j) carries a
consensus variable z_ij and two duals, one per endpoint.  It runs full
participation only and serves as the equivalence oracle for the agent-form
engine: with zero dual initialization the two endpoint duals stay
antisymmetric, z collapses to the edge midpoints, and the x-trajectories of
the two forms coincide.  The x-step is the engine's
``solve_subproblems``, passed this form's z where the agent form passes the
edge midpoints, so both forms share one subproblem builder, one config and
one lockstep solver; ``dual_aggregates`` sums the endpoint duals with
``graphs.incident_sums``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CadenConfig, solve_subproblems
from .graphs import Topology, edge_midpoints, incident_sums
from .losses import LossStack


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


def edge_x_step(
    state: EdgeState,
    losses: LossStack,
    topology: Topology,
    config: CadenConfig,
    round_index: int,
) -> np.ndarray:
    """Inexactly minimize every agent's x-step objective

        f_i(x) + sum_{edges k at i} [ y_k,i . (x - z_k) + (mu_z/2) ||x - z_k||^2 ]

    in one lockstep solve, warm-started, with the solver and round budget of
    ``config``.  Each objective is the engine's subproblem with dual
    ``dual_aggregates`` and anchors ``z``, up to the constant
    -sum_k y_k,i . z_k.
    """
    if config.participation < 1.0:
        raise ValueError("the edge form runs full participation only")
    phi = dual_aggregates(state, topology)
    tau = config.tau_schedule.tau(round_index)
    agents = np.arange(topology.m)
    report = solve_subproblems(agents, state.x, None, phi, state.z, losses, topology, config, tau)
    return report.x_out


def edge_z_step(state: EdgeState, topology: Topology, mu_z: float) -> np.ndarray:
    """Closed form: z_k = (x_i + x_j + (y_k,i + y_k,j) / mu_z) / 2."""
    src, dst = topology.src, topology.dst
    return 0.5 * (state.x[src] + state.x[dst] + (state.y[:, 0] + state.y[:, 1]) / mu_z)


def edge_y_step(state: EdgeState, topology: Topology, mu_y: float) -> np.ndarray:
    """Dual ascent per endpoint: y_k,i += mu_y (x_i - z_k)."""
    src, dst = topology.src, topology.dst
    y = state.y.copy()
    y[:, 0] += mu_y * (state.x[src] - state.z)
    y[:, 1] += mu_y * (state.x[dst] - state.z)
    return y


def run_edge_round(
    state: EdgeState,
    losses: LossStack,
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
    """Per-agent sums of incident endpoint duals (the agent-form dual), in
    ascending edge order."""
    return incident_sums(topology, state.y[:, 0], state.y[:, 1])


def antisymmetry_gap(state: EdgeState) -> float:
    """Max-abs violation of y_k,i + y_k,j = 0 over all edges."""
    if state.y.shape[0] == 0:
        return 0.0
    return float(np.abs(state.y[:, 0] + state.y[:, 1]).max())
