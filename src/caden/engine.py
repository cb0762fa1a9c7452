"""Agent-form round engine: partial participation, local solves, broadcast,
dual ascent.

The state is three (m, d) arrays, one row per agent, updated in place: the
models ``x``, the duals ``phi`` and the loss gradients ``grad`` =
grad f_i(x_i).  Rounds are synchronous.  Every active agent minimizes its
local subproblem built from round-t snapshots, broadcasts the new model
once, then updates its dual from the post-broadcast models.  Inactive
agents are frozen for the round.  An agent's model changes only in
rounds where it broadcasts, so the last model a neighbor received is always
the agent's current row of ``x``, and no per-neighbor copy is kept.

``grad`` is carried, not recomputed: ``init_states`` fills it with one
stacked evaluation, each solve starts from its agents' rows and reports the
(k, d) loss gradients of its own last evaluation, which are at the models
it returns, and ``run_round`` writes those rows.  Inactive rows stay valid
because their models did not move.  The residual V_t
(``metrics.lyapunov_v``) reads it.

The agent form is the edge form (``caden.edge_form``) with every consensus
variable z_ij held at the edge midpoint (x_i + x_j) / 2, which is why one
broadcast per round suffices.  Every function takes the run's losses as
one ``LossStack``.  ``subproblems`` builds the round-t subproblems of both
forms from a dual per agent and a z per edge as one ``SubproblemBatch``,
and ``solve_subproblems`` solves them in one lockstep L-BFGS or
gradient-descent solve (or the exact one), reported as (k, ...) arrays.
The anchors and the dual step follow the incident-edge order of
``graphs.edge_ends``.  ``CadenConfig`` is the one record of a run's engine
parameters, each field named and spelled as its ``caden.*`` key (and
``seed``) and checked as that key with ``config.check_value``;
``CadenConfig.tau_at`` is the per-round budget.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import solvers
from .config import KEYS, check_value
from .errors import CheckpointError
from .graphs import Topology, edge_ends, edge_midpoints, incident_sums
from .losses import LossStack
from .solvers import DEFAULT_MEMORY, SolverReport, SubproblemBatch

# Kept as names for perfbench/tracer.py, which wraps caden.engine.solve_lbfgs/solve_gd
# and reads each result as one agent's report.  A solve reports (k, ...) arrays,
# so ``solve_subproblems`` calls ``solvers.solve_lbfgs``/``solve_gd``, never these.
from .solvers import solve_gd, solve_lbfgs  # noqa: F401

_PARTICIPATION_STREAM = 401

CHECKPOINT_HEADER = struct.Struct("<QQQ")


# The config key each CadenConfig field is named after: caden.<field>, or seed.
_KEYS = {k.name.removeprefix("caden."): k.name for k in KEYS if k.name.startswith("caden.")}
_KEYS["seed"] = "seed"


@dataclass(frozen=True)
class CadenConfig:
    """Engine parameters for one run.  A field named after a config key holds
    it as the config spells it, so ``tau_reduce_round = -1`` never reduces the
    budget, and is checked as it; mu_z and mu_y may not be ``auto``.  Frozen,
    so every instance holds checked values; ``dataclasses.replace`` makes a
    checked variant."""

    mu_z: float
    mu_y: float
    tau: int = 5
    tau_reduce_round: int = -1
    tau_reduced: int = 1
    participation: float = 1.0
    solver: str = "lbfgs"  # lbfgs | gd | exact
    seed: int = 0
    lbfgs_memory: int = DEFAULT_MEMORY
    gd_step: float | None = None
    lipschitz: float | None = None

    def __post_init__(self):
        for f in fields(self):
            if f.name in _KEYS:
                auto = f.name not in ("mu_z", "mu_y")
                check_value(_KEYS[f.name], getattr(self, f.name), auto=auto)
        if self.solver not in ("lbfgs", "gd", "exact"):
            raise ValueError(f"unknown solver {self.solver!r}")

    def tau_at(self, round_index: int) -> int:
        """The local budget of round ``round_index``: ``tau``, or
        ``tau_reduced`` from round ``tau_reduce_round`` on."""
        if 0 <= self.tau_reduce_round <= round_index:
            return self.tau_reduced
        return self.tau


@dataclass(frozen=True)
class RoundSummary:
    active: np.ndarray
    broadcasts: int


def init_states(
    losses: LossStack,
    topology: Topology,
    x_init: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, d) models copied from ``x_init``, (m, d) zero duals and the (m, d)
    loss gradients at the models, from one stacked evaluation."""
    x = np.array(x_init, dtype=float)
    if x.shape != (topology.m, losses.dim):
        raise ValueError(f"x_init has shape {x.shape}, expected {(topology.m, losses.dim)}")
    grad = losses.gradients(x, np.arange(topology.m))
    return x, np.zeros_like(x), grad


def sample_participation(config: CadenConfig, round_index: int, m: int) -> np.ndarray:
    """Independent Bernoulli activity flags.

    Each round draws from its own counter-derived stream, agent i taking
    its i-th uniform, so the flags are a pure function of (seed, round,
    agent): independent of any execution schedule and, for agent i, of m.
    """
    p = config.participation
    if p >= 1.0:
        return np.ones(m, dtype=bool)
    return np.random.default_rng([_PARTICIPATION_STREAM, config.seed, round_index]).random(m) < p


def subproblems(
    agents: Sequence[int],
    phi: np.ndarray,
    z: np.ndarray,
    losses: LossStack,
    topology: Topology,
    mu_z: float,
) -> SubproblemBatch:
    """The round-t subproblems of ``agents`` over the run's ``LossStack``:
    agent i's has dual ``phi[i]`` and one anchor ``z[k]`` per incident edge k,
    in ascending edge (= neighbor) order.  ``z`` is indexed once, for the
    incident edges of ``agents`` only."""
    agents = np.asarray(agents, dtype=np.intp)
    row = np.full(topology.m, -1)
    row[agents] = np.arange(agents.size)
    end_agent, end_edge = edge_ends(topology)
    ends = np.flatnonzero(row[end_agent] >= 0)
    anchors, owner = z[end_edge[ends]], row[end_agent[ends]]
    return SubproblemBatch(losses, agents, phi[agents], mu_z, anchors, owner)


def solve_subproblems(
    agents: Sequence[int],
    x: np.ndarray,
    grad: np.ndarray | None,
    phi: np.ndarray,
    z: np.ndarray,
    losses: LossStack,
    topology: Topology,
    config: CadenConfig,
    tau: int,
) -> SolverReport:
    """tau iterations of ``config.solver`` on the ``subproblems`` of
    ``agents``, warm-started at their rows of ``x``; one report whose row n
    is agent ``agents[n]``'s.  ``grad`` holds the loss gradients at ``x``,
    or is None to have the solver evaluate them.

    L-BFGS and gradient descent run the agents in lockstep, the exact solve
    one by one; both lockstep solvers take ``config.lipschitz``, L-BFGS to
    scale its first trials.  Each row of the report equals a lone solve's,
    so it does not depend on which other agents are solved with it.
    """
    batch = subproblems(agents, phi, z, losses, topology, config.mu_z)
    x_start = x[agents]
    start_grad = None if grad is None else grad[agents]
    if config.solver == "lbfgs":
        return solvers.solve_lbfgs(
            batch, x_start, tau, config.lbfgs_memory, start_grad, config.lipschitz
        )
    if config.solver == "gd":
        return solvers.solve_gd(batch, x_start, tau, config.gd_step, config.lipschitz, start_grad)
    return solvers.solve_exact(batch)


# Kept as a name for perfbench/tracer.py, which wraps caden.engine.primal_update.
def primal_update(
    agent: int,
    x: np.ndarray,
    phi: np.ndarray,
    losses: LossStack,
    topology: Topology,
    config: CadenConfig,
    round_index: int,
) -> np.ndarray:
    """One agent's round-t primal step, as ``run_round`` takes it."""
    z = edge_midpoints(topology, x)
    tau = config.tau_at(round_index)
    return solve_subproblems([agent], x, None, phi, z, losses, topology, config, tau).x_out[0]


def broadcast(x: np.ndarray, agents: np.ndarray, models: np.ndarray) -> int:
    """Publish the (k, d) new ``models`` of the k ``agents`` by writing their
    rows of ``x``, which is what every neighbor reads.

    Returns the communication units consumed: one per broadcast of a single
    model vector, regardless of neighbor count.
    """
    if len(agents):
        x[agents] = models
    return len(agents)


def dual_update(
    agents, x: np.ndarray, phi: np.ndarray, topology: Topology, config: CadenConfig
) -> np.ndarray:
    """phi_i + (mu_y / 2) sum_j (x_i - x_j) over the neighbors j of each of
    ``agents``: one row per agent, or the (d,) row of a single int."""
    diff = x[topology.src] - x[topology.dst]
    pull = incident_sums(topology, diff, -diff)
    return phi[agents] + 0.5 * config.mu_y * pull[agents]


def run_round(
    x: np.ndarray,
    phi: np.ndarray,
    grad: np.ndarray,
    losses: LossStack,
    topology: Topology,
    config: CadenConfig,
    round_index: int,
) -> RoundSummary:
    """One synchronous round on the (m, d) models ``x``, duals ``phi`` and
    loss gradients ``grad``, all updated in place: participation, primal
    solves, broadcast, dual."""
    flags = sample_participation(config, round_index, topology.m)
    active = np.flatnonzero(flags)
    z = edge_midpoints(topology, x)
    tau = config.tau_at(round_index)
    report = solve_subproblems(active, x, grad, phi, z, losses, topology, config, tau)
    broadcasts = broadcast(x, active, report.x_out)
    grad[active] = report.loss_grad_out
    phi[active] = dual_update(active, x, phi, topology, config)
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
