"""Agent-form round engine: partial participation, local solves, broadcast,
dual ascent.

The state is two (m, d) arrays: the models ``x`` and the duals ``phi``, one
row per agent, updated in place.  Rounds are synchronous.  Every active agent
minimizes its local subproblem built from round-t snapshots, broadcasts the
new model once, then updates its dual from the post-broadcast models.
Inactive agents are frozen for the round.  An agent's model changes only in
rounds where it broadcasts, so the last model a neighbor received is always
the agent's current row of ``x``, and no per-neighbor copy is kept.

The agent form is the edge form (``caden.edge_form``) with every consensus
variable z_ij held at the edge midpoint (x_i + x_j) / 2, which is why one
broadcast per round suffices.  ``subproblems`` builds the round-t
subproblems of both forms from a dual per agent and a z per edge, and
``solve_subproblems`` solves them in one lockstep L-BFGS or
gradient-descent solve over the run's ``LossStack``.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError
from .graphs import Topology, edge_midpoints
from .losses import LocalLoss, LossStack
from .solvers import (
    DEFAULT_MEMORY,
    LocalSubproblem,
    SolverReport,
    SubproblemBatch,
    solve_exact_quadratic,
    solve_gd_batch,
    solve_lbfgs_batch,
)

# Kept as names for perfbench/tracer.py, which wraps caden.engine.solve_lbfgs/solve_gd.
from .solvers import solve_gd, solve_lbfgs  # noqa: F401

_PARTICIPATION_STREAM = 401

CHECKPOINT_HEADER = struct.Struct("<QQQ")


@dataclass(frozen=True)
class TauSchedule:
    """Local-iteration budget per round.

    ``base`` applies everywhere, optionally dropping to ``reduced`` from
    ``reduce_round`` on (the workload-reduction schedule).
    """

    base: int = 5
    reduce_round: int | None = None
    reduced: int = 1

    def __post_init__(self):
        if self.base < 1 or self.reduced < 1:
            raise ValueError("every local iteration budget must be at least 1")

    def tau(self, round_index: int) -> int:
        if self.reduce_round is not None and round_index >= self.reduce_round:
            return self.reduced
        return self.base


@dataclass
class CadenConfig:
    """Engine parameters for one run."""

    mu_z: float
    mu_y: float
    tau_schedule: TauSchedule = field(default_factory=TauSchedule)
    participation: float = 1.0
    solver: str = "lbfgs"  # lbfgs | gd | exact
    seed: int = 0
    lbfgs_memory: int = DEFAULT_MEMORY
    gd_step: float | None = None
    lipschitz: float | None = None

    def __post_init__(self):
        if self.mu_z <= 0 or self.mu_y <= 0:
            raise ValueError("mu_z and mu_y must be positive")
        if self.solver not in ("lbfgs", "gd", "exact"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if not (0.0 < self.participation <= 1.0):
            raise ValueError("participation probability must be in (0, 1]")


@dataclass(frozen=True)
class RoundSummary:
    active: np.ndarray
    broadcasts: int


def init_states(
    losses: list[LocalLoss],
    topology: Topology,
    x_init: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(m, d) models copied from ``x_init`` and (m, d) zero duals."""
    x = np.array(x_init, dtype=float)
    if x.shape[0] != topology.m:
        raise ValueError(f"x_init has {x.shape[0]} rows for m={topology.m}")
    d = x.shape[1]
    for i, loss in enumerate(losses):
        if loss.dim != d:
            raise ValueError(f"loss {i} has dim {loss.dim}, expected {d}")
    return x, np.zeros_like(x)


def sample_participation(config: CadenConfig, round_index: int, m: int) -> np.ndarray:
    """Independent Bernoulli activity flags.

    Each (agent, round) pair draws from its own counter-derived stream, so the
    flags are a pure function of (seed, round, agent) and independent of any
    execution schedule.
    """
    p = config.participation
    if p >= 1.0:
        return np.ones(m, dtype=bool)
    draws = [
        np.random.default_rng([_PARTICIPATION_STREAM, config.seed, round_index, i]).random()
        for i in range(m)
    ]
    return np.array(draws) < p


def subproblems(
    agents: Sequence[int],
    phi: np.ndarray,
    z: np.ndarray,
    losses: Sequence[LocalLoss],
    topology: Topology,
    mu_z: float,
) -> SubproblemBatch:
    """The round-t subproblems of ``agents`` over the run's ``LossStack``:
    agent i's has dual ``phi[i]`` and one anchor ``z[k]`` per incident edge k,
    in ascending edge (= neighbor) order."""
    stack = LossStack.of(losses)
    problems = [
        LocalSubproblem(stack[i], phi[i], z[topology.incident_edges[i]], mu_z) for i in agents
    ]
    return SubproblemBatch(problems, stack, agents)


def solve_subproblems(
    agents: Sequence[int],
    x: np.ndarray,
    phi: np.ndarray,
    z: np.ndarray,
    losses: Sequence[LocalLoss],
    topology: Topology,
    config: CadenConfig,
    tau: int,
) -> list[SolverReport]:
    """tau iterations of ``config.solver`` on the ``subproblems`` of
    ``agents``, warm-started at their rows of ``x``; one report per agent.

    L-BFGS and gradient descent run the agents in lockstep, the exact solve
    one by one.  Each report equals that of a lone solve, so it does not
    depend on which other agents are solved with it.
    """
    batch = subproblems(agents, phi, z, losses, topology, config.mu_z)
    x_start = x[list(agents)]
    if config.solver == "lbfgs":
        return solve_lbfgs_batch(batch, x_start, tau, config.lbfgs_memory)
    if config.solver == "gd":
        return solve_gd_batch(batch, x_start, tau, step=config.gd_step, lipschitz=config.lipschitz)
    return [solve_exact_quadratic(p) for p in batch.problems]


# Kept as a name for perfbench/tracer.py, which wraps caden.engine.primal_update.
def primal_update(
    agent: int,
    x: np.ndarray,
    phi: np.ndarray,
    losses: Sequence[LocalLoss],
    topology: Topology,
    config: CadenConfig,
    round_index: int,
) -> np.ndarray:
    """One agent's round-t primal step, as ``run_round`` takes it."""
    z = edge_midpoints(topology, x)
    tau = config.tau_schedule.tau(round_index)
    return solve_subproblems([agent], x, phi, z, losses, topology, config, tau)[0].x_out


def broadcast(x: np.ndarray, agents: list[int], models: list[np.ndarray]) -> int:
    """Publish the new ``models`` of ``agents`` by writing their rows of
    ``x``, which is what every neighbor reads.

    Returns the communication units consumed: one per broadcast of a single
    model vector, regardless of neighbor count.
    """
    if agents:
        x[agents] = models
    return len(agents)


def dual_update(
    agent: int, x: np.ndarray, phi: np.ndarray, topology: Topology, config: CadenConfig
) -> np.ndarray:
    """phi_i + (mu_y / 2) sum_j (x_i - x_j) over the neighbors j."""
    neighbors = list(topology.neighbors[agent])
    return phi[agent] + 0.5 * config.mu_y * (x[agent] - x[neighbors]).sum(axis=0)


def run_round(
    x: np.ndarray,
    phi: np.ndarray,
    losses: list[LocalLoss],
    topology: Topology,
    config: CadenConfig,
    round_index: int,
) -> RoundSummary:
    """One synchronous round on the (m, d) models ``x`` and duals ``phi``,
    both updated in place: participation, primal solves, broadcast, dual."""
    flags = sample_participation(config, round_index, topology.m)
    active = np.flatnonzero(flags).tolist()
    z = edge_midpoints(topology, x)
    tau = config.tau_schedule.tau(round_index)
    reports = solve_subproblems(active, x, phi, z, losses, topology, config, tau)
    broadcasts = broadcast(x, active, [report.x_out for report in reports])
    for i in active:
        phi[i] = dual_update(i, x, phi, topology, config)
    return RoundSummary(active=flags, broadcasts=broadcasts)


def save_checkpoint(path: str, x: np.ndarray, phi: np.ndarray, round_index: int) -> None:
    """Binary checkpoint: '<QQQ' header (m, d, round), then the (m, d) models
    and the (m, d) duals as little-endian float64 rows."""
    m, d = x.shape
    with open(path, "wb") as fp:
        fp.write(CHECKPOINT_HEADER.pack(m, d, round_index))
        fp.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
        fp.write(np.ascontiguousarray(phi, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Read a checkpoint back as ((m, d) models, (m, d) duals, round).

    Raises CheckpointError when the file is shorter than its header, or when
    its body is not exactly 2 m d floats.
    """
    with open(path, "rb") as fp:
        raw = fp.read()
    if len(raw) < CHECKPOINT_HEADER.size:
        raise CheckpointError(
            f"checkpoint {path} has {len(raw)} bytes, shorter than its "
            f"{CHECKPOINT_HEADER.size}-byte header"
        )
    m, d, round_index = CHECKPOINT_HEADER.unpack_from(raw)
    body = len(raw) - CHECKPOINT_HEADER.size
    if body != 2 * m * d * 8:
        raise CheckpointError(
            f"checkpoint {path} declares m={m}, d={d} ({2 * m * d * 8} body bytes) "
            f"but has {body} body bytes"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=CHECKPOINT_HEADER.size).astype(float)
    return values[: m * d].reshape(m, d), values[m * d :].reshape(m, d), int(round_index)
