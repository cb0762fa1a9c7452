"""Agent-form round engine: partial participation, local solves, broadcast,
dual ascent.

A run has one ``RunState``, updated in place: three (m, d) arrays and one
(m,) array, one row per agent (the models ``x``, the duals ``phi``, the
loss gradients ``grad`` = grad f_i(x_i) and the loss values ``value`` =
f_i(x_i)), and the run's ``solvers.LbfgsPool``, the buffers of the L-BFGS
curvature pairs, which live for the run while the pairs in them live for
one solve.  Rounds are synchronous.  Every active agent minimizes its
local subproblem built from round-t snapshots, broadcasts the new model
once, then updates its dual from the post-broadcast models.  Inactive
agents are frozen for the round.  An agent's model changes only in
rounds where it broadcasts, so the last model a neighbor received is always
the agent's current row of ``x``, and no per-neighbor copy is kept.

``grad`` and ``value`` are carried, not recomputed: ``init_states`` fills
both with one fused stacked evaluation, each solve (``solve_subproblems``)
starts from its agents' rows of the ``RunState`` and reports the (k, d)
loss gradients and (k,) loss values at the models it returns (those of its
last solver step, each step being one fused evaluation), and ``run_round``
writes those rows.  So a solve makes no loss call at its start, and a
round's only loss calls are its solver steps.  Inactive rows stay valid
because their models did not move.  A caller with models and duals of its
own (the edge form's x-step, the theory probe, ``primal_update``) solves
from ``init_states`` of them.  The residual V_t (``metrics.lyapunov_v``)
and the relative errors (``metrics.relative_error``,
``relative_error_graph``) read ``grad``, summed once per logged row
(``metrics.carried_row``), so a logged row evaluates no loss gradient.  A
checkpoint (``save_checkpoint``) holds the models, the duals and the round
behind a magic number, a format version and a digest of the record of the
problem it was written for; a resumed run refills ``grad`` and ``value``
from the models.

The agent form is the edge form (``caden.edge_form``) with every consensus
variable z_ij held at the edge midpoint (x_i + x_j) / 2, which is why one
broadcast per round suffices.  Every function takes the run's losses as
one ``LossStack``.  ``subproblems`` builds the round-t subproblems of both
forms from a dual per agent and a z per edge as one ``SubproblemBatch``,
and ``solve_subproblems`` solves them in one lockstep L-BFGS or
gradient-descent solve (or the exact one), reported as (k, ...) arrays.
The anchors and the dual step follow the incident-edge order of
``graphs.edge_ends``, resolved once per topology, as is the plan of its
per-agent sums, which the dual step and a batch of every agent share.
``CadenConfig`` is the one record of a run's engine parameters, each
field named and spelled as its ``caden.*`` key (and ``seed``) and checked
as that key with ``config.check_value``; ``CadenConfig.tau_at`` is the
per-round budget.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import solvers
from .config import KEYS, check_value
from .errors import CheckpointError
from .graphs import Topology, edge_midpoints, incident_sums
from .losses import LossStack
from .solvers import DEFAULT_MEMORY, LbfgsPool, SolverReport, SubproblemBatch

# Kept as names for perfbench/tracer.py, which wraps caden.engine.solve_lbfgs/solve_gd
# and reads each result as one agent's report.  A solve reports (k, ...) arrays,
# so ``solve_subproblems`` calls ``solvers.solve_lbfgs``/``solve_gd``, never these.
from .solvers import solve_gd, solve_lbfgs  # noqa: F401

_PARTICIPATION_STREAM = 401

# A checkpoint starts with CHECKPOINT_MAGIC and its format version, then
# (m, d, round), the SHA-256 digest of its problem record and the record's
# length in bytes.
CHECKPOINT_MAGIC = b"CADENCKP"
CHECKPOINT_VERSION = 2
CHECKPOINT_HEADER = struct.Struct("<8sQQQQ32sQ")


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


@dataclass
class RunState:
    """A run's engine state, updated in place by ``run_round``: the (m, d)
    models ``x``, duals ``phi`` and loss gradients ``grad`` at the models,
    the (m,) loss values ``value`` at them, and the run's L-BFGS ``pool``."""

    x: np.ndarray
    phi: np.ndarray
    grad: np.ndarray
    value: np.ndarray
    pool: LbfgsPool


def init_states(
    losses: LossStack,
    topology: Topology,
    x_init: np.ndarray,
    phi_init: np.ndarray | None = None,
) -> RunState:
    """The ``RunState`` at models copied from ``x_init`` and duals copied
    from ``phi_init`` (zero when None), its loss gradients and values from
    one fused stacked evaluation, and an empty pool."""
    x = np.array(x_init, dtype=float)
    if x.shape != (topology.m, losses.dim):
        raise ValueError(f"x_init has shape {x.shape}, expected {(topology.m, losses.dim)}")
    phi = np.zeros_like(x)
    if phi_init is not None:
        phi[:] = phi_init
    value, grad = losses.values_and_gradients(x, np.arange(topology.m))
    return RunState(x, phi, grad, value, LbfgsPool(topology.m, losses.dim))


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
    incident edges of ``agents`` only.  Every agent in order takes the
    topology's own plan of its anchor sums; another subset resolves its
    own."""
    agents = np.asarray(agents, dtype=np.intp)
    incidence = topology.incidence
    if agents.shape == (topology.m,) and (agents == np.arange(topology.m)).all():
        anchors = z[incidence.edge]
        return SubproblemBatch(losses, agents, phi[agents], mu_z, anchors, incidence.sums)
    row = np.full(topology.m, -1)
    row[agents] = np.arange(agents.size)
    ends = np.flatnonzero(row[incidence.agent] >= 0)
    anchors, owner = z[incidence.edge[ends]], row[incidence.agent[ends]]
    return SubproblemBatch(losses, agents, phi[agents], mu_z, anchors, owner)


def solve_subproblems(
    agents: Sequence[int],
    state: RunState,
    z: np.ndarray,
    losses: LossStack,
    topology: Topology,
    config: CadenConfig,
    tau: int,
) -> SolverReport:
    """tau iterations of ``config.solver`` on the ``subproblems`` of
    ``agents`` with the duals of ``state``, started from their rows of it:
    their models, loss values and gradients, and its L-BFGS pool.  One
    report whose row n is agent ``agents[n]``'s; ``state`` is not written.

    L-BFGS and gradient descent run the agents in lockstep, the exact solve
    one by one; both lockstep solvers take ``config.lipschitz``, L-BFGS to
    scale its first trials.  Each row of the report equals a lone solve's,
    so it does not depend on which other agents are solved with it.
    """
    batch = subproblems(agents, state.phi, z, losses, topology, config.mu_z)
    x_start = state.x[agents]
    start = state.value[agents], state.grad[agents]
    if config.solver == "lbfgs":
        return solvers.solve_lbfgs(
            batch, x_start, tau, config.lbfgs_memory, start, config.lipschitz, state.pool
        )
    if config.solver == "gd":
        return solvers.solve_gd(batch, x_start, tau, config.gd_step, config.lipschitz, start)
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
    state = init_states(losses, topology, x, phi)
    return solve_subproblems([agent], state, z, losses, topology, config, tau).x_out[0]


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
    state: RunState,
    losses: LossStack,
    topology: Topology,
    config: CadenConfig,
    round_index: int,
) -> RoundSummary:
    """One synchronous round on the run's ``state``, updated in place:
    participation, primal solves, broadcast, dual."""
    flags = sample_participation(config, round_index, topology.m)
    active = np.flatnonzero(flags)
    z = edge_midpoints(topology, state.x)
    tau = config.tau_at(round_index)
    report = solve_subproblems(active, state, z, losses, topology, config, tau)
    broadcasts = broadcast(state.x, active, report.x_out)
    state.grad[active] = report.loss_grad_out
    state.value[active] = report.loss_value_out
    state.phi[active] = dual_update(active, state.x, state.phi, topology, config)
    return RoundSummary(active=flags, broadcasts=broadcasts)


def _problem_bytes(problem: Mapping[str, str]) -> bytes:
    """The record of ``problem``: one ``key = value`` line per entry."""
    return "".join(f"{key} = {text}\n" for key, text in problem.items()).encode()


def _problem_mismatch(path: str, record: bytes, problem: Mapping[str, str]) -> str:
    """What differs between the checkpoint's problem ``record`` and ``problem``."""
    written = dict(line.split(" = ", 1) for line in record.decode().splitlines())
    differ = [
        f"{key} = {written.get(key, '(unset)')} there, {problem.get(key, '(unset)')} here"
        for key in {**written, **problem}
        if written.get(key) != problem.get(key)
    ]
    return f"checkpoint {path} was written for another problem: {'; '.join(differ)}"


def save_checkpoint(
    path: str,
    x: np.ndarray,
    phi: np.ndarray,
    round_index: int,
    problem: Mapping[str, str] | None = None,
) -> None:
    """Binary checkpoint: a '<8sQQQQ32sQ' header (magic, version, m, d,
    round, SHA-256 digest of the problem record, record length), the
    problem record, then the (m, d) models and the (m, d) duals as
    little-endian float64 rows.  The record holds one ``key = value`` line
    per entry of ``problem``, the values that fix the problem the state
    belongs to; without ``problem`` it is empty."""
    m, d = x.shape
    record = _problem_bytes(problem or {})
    digest = hashlib.sha256(record).digest()
    with open(path, "wb") as fp:
        fp.write(CHECKPOINT_HEADER.pack(
            CHECKPOINT_MAGIC, CHECKPOINT_VERSION, m, d, round_index, digest, len(record)
        ))
        fp.write(record)
        fp.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
        fp.write(np.ascontiguousarray(phi, dtype="<f8").tobytes())


def load_checkpoint(
    path: str, problem: Mapping[str, str] | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Read a checkpoint back as ((m, d) models, (m, d) duals, round).

    Raises CheckpointError naming what is wrong: a file shorter than its
    header, a magic number or format version other than this module's
    (a file written before the format had them fails at its magic), a
    problem record that does not match its digest, a file that holds its
    header and record only, or a body that is not exactly 2 m d floats.
    Given ``problem``, a file whose record differs from it raises too,
    naming each differing key with both values; a file written without a
    record is not checked.
    """
    with open(path, "rb") as fp:
        raw = fp.read()
    # The magic and the version first, so that a file of another layout is
    # named as one even when it is shorter than this version's header.
    if len(raw) >= 8 and raw[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint {path} has magic {raw[:8]!r}, expected {CHECKPOINT_MAGIC!r}: "
            "not a checkpoint, or one written before the format had a magic number"
        )
    if len(raw) >= 16 and (version := int.from_bytes(raw[8:16], "little")) != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}; "
            f"this version reads version {CHECKPOINT_VERSION} only"
        )
    if len(raw) < CHECKPOINT_HEADER.size:
        raise CheckpointError(
            f"checkpoint {path} has {len(raw)} bytes, shorter than its "
            f"{CHECKPOINT_HEADER.size}-byte header"
        )
    _, _, m, d, round_index, digest, size = CHECKPOINT_HEADER.unpack_from(raw)
    start = CHECKPOINT_HEADER.size + size
    record = raw[CHECKPOINT_HEADER.size : start]
    if hashlib.sha256(record).digest() != digest:
        raise CheckpointError(
            f"checkpoint {path}: its {size}-byte problem record does not match its digest"
        )
    body = len(raw) - start
    if body == 0 and m * d:
        raise CheckpointError(
            f"checkpoint {path} holds its header only: its body of {2 * m * d * 8} bytes "
            f"(m={m}, d={d}) is missing"
        )
    if body != 2 * m * d * 8:
        raise CheckpointError(
            f"checkpoint {path} declares m={m}, d={d} ({2 * m * d * 8} body bytes) "
            f"but has {body} body bytes"
        )
    if problem is not None and size and hashlib.sha256(_problem_bytes(problem)).digest() != digest:
        raise CheckpointError(_problem_mismatch(path, record, problem))
    values = np.frombuffer(raw, dtype="<f8", offset=start).astype(float)
    return values[: m * d].reshape(m, d), values[m * d :].reshape(m, d), int(round_index)
