"""Inexact local solvers for the per-agent augmented objective.

The primal step of each round minimizes

    f_i(x) + phi_i . x + (mu_z / 2) * sum_j ||x - anchor_j||^2

for a fixed iteration budget tau.  The primary solver is limited-memory BFGS
(two-loop recursion, Armijo backtracking); a plain gradient-descent variant
and an exact closed-form solve for quadratic losses are also provided.

L-BFGS and gradient descent advance a ``SubproblemBatch`` in lockstep: one
body runs every agent's iterations side by side, and each stage (the start,
each backtracking level, the gradients after accepted steps) makes one
stacked loss call for the agents it concerns.  Each agent's arithmetic is
that of a lone solve, so ``solve_lbfgs``/``solve_gd`` on one subproblem are
the one-agent case of the same body.  ``engine.solve_subproblems`` is the
one place that picks among the solvers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .losses import LocalLoss, LossStack, QuadraticLoss

ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
# Relative slack in the acceptance test; makes accept/reject robust to
# last-ulp noise in objective evaluation.
ARMIJO_SLACK = 1e-12
MAX_BACKTRACKS = 30
CURVATURE_SKIP_TOL = 1e-10
DEFAULT_MEMORY = 10


@dataclass
class LocalSubproblem:
    """One agent's regularized local objective for a single round.

    Attributes:
        loss: the agent's raw loss f_i.
        phi: dual vector added linearly to the objective.
        anchors: (k, d) array of midpoint targets; k is the agent degree.
        mu_z: quadratic penalty coefficient.  When mu_z exceeds the loss
            smoothness the subproblem is strongly convex with a unique
            minimizer.
    """

    loss: LocalLoss
    phi: np.ndarray
    anchors: np.ndarray
    mu_z: float

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.anchors = np.asarray(self.anchors, dtype=float).reshape(-1, self.loss.dim)
        if self.phi.shape != (self.loss.dim,):
            raise ValueError(f"phi shape {self.phi.shape} != ({self.loss.dim},)")
        self.anchor_sum = self.anchors.sum(axis=0)

    @property
    def degree(self) -> int:
        return self.anchors.shape[0]

    def value(self, x: np.ndarray) -> float:
        return self.value_with(x, self.loss.value(x))

    def value_with(self, x: np.ndarray, loss_value: float) -> float:
        """The objective at ``x`` given the loss value there."""
        pen = float(((x - self.anchors) ** 2).sum()) if self.degree else 0.0
        return float(loss_value + float(self.phi @ x) + 0.5 * self.mu_z * pen)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.gradient_with(x, self.loss.gradient(x))

    def gradient_with(self, x: np.ndarray, loss_gradient: np.ndarray) -> np.ndarray:
        """The objective's gradient at ``x`` given the loss gradient there."""
        g = loss_gradient + self.phi
        if self.degree:
            g = g + self.mu_z * (self.degree * x - self.anchor_sum)
        return g


class SubproblemBatch:
    """Several agents' subproblems, evaluated together.

    ``values(x, which)`` and ``gradients(x, which)`` evaluate subproblem
    ``which[n]`` at ``x[n]``.  The loss terms of all rows come from one
    stacked call on ``losses``, where subproblem j is agent ``agents[j]``;
    the dual and penalty terms are added row by row through
    ``LocalSubproblem``, so each row equals that subproblem's own
    ``value``/``gradient``.  Without ``losses`` the batch stacks the
    subproblems' own losses.
    """

    def __init__(
        self,
        problems: Sequence[LocalSubproblem],
        losses: LossStack | None = None,
        agents: Sequence[int] | None = None,
    ):
        self.problems = list(problems)
        if losses is None:
            losses = LossStack([p.loss for p in self.problems])
            agents = range(len(self.problems))
        self._losses = losses
        self._agents = np.asarray(agents, dtype=np.intp)

    def values(self, x: np.ndarray, which: np.ndarray) -> np.ndarray:
        loss_values = self._losses.values(x, self._agents[which])
        return np.array(
            [self.problems[j].value_with(x[n], loss_values[n]) for n, j in enumerate(which)]
        )

    def gradients(self, x: np.ndarray, which: np.ndarray) -> np.ndarray:
        loss_gradients = self._losses.gradients(x, self._agents[which])
        out = np.empty_like(loss_gradients)
        for n, j in enumerate(which):
            out[n] = self.problems[j].gradient_with(x[n], loss_gradients[n])
        return out


@dataclass
class SolverReport:
    """Outcome of one inexact local solve."""

    x_out: np.ndarray
    iterations: int
    grad_norm_in: float
    grad_norm_out: float
    grad_norms: list[float] = field(default_factory=list, repr=False)
    values: list[float] = field(default_factory=list, repr=False)
    line_search_failures: int = 0
    # Rejected Armijo trials; a failed search counts all MAX_BACKTRACKS.
    backtracks: int = 0


def _geometric_rate(grad_norms: Sequence[float]) -> float:
    """Geometric mean of successive gradient-norm ratios; 0 when trivial."""
    log_sum = 0.0
    count = 0
    for prev, cur in zip(grad_norms, grad_norms[1:]):
        if prev <= 0.0:
            break
        if cur <= 0.0:
            return 0.0
        log_sum += np.log(cur / prev)
        count += 1
    if count == 0:
        return 0.0
    return float(np.exp(log_sum / count))


def two_loop_direction(
    s: np.ndarray,
    y: np.ndarray,
    rho: np.ndarray,
    gamma: float,
    grad: np.ndarray,
) -> np.ndarray:
    """Apply the limited-memory inverse-Hessian approximation to ``grad``.

    Args:
        s: (k, d) step differences, oldest first.
        y: (k, d) gradient differences, oldest first.
        rho: (k,) precomputed 1 / (s_i . y_i).
        gamma: initial inverse-Hessian scaling.
        grad: (d,) gradient to precondition.

    Returns:
        H @ grad; the descent direction is its negative.
    """
    k = s.shape[0]
    q = grad.copy()
    alpha = np.empty(k)
    for i in range(k - 1, -1, -1):
        alpha[i] = rho[i] * float(s[i] @ q)
        q -= alpha[i] * y[i]
    r = gamma * q
    for i in range(k):
        beta = rho[i] * float(y[i] @ r)
        r += (alpha[i] - beta) * s[i]
    return r


def _norm(v: np.ndarray) -> float:
    """||v||, rounded as ``np.linalg.norm`` rounds it (sqrt of v . v)."""
    return math.sqrt(float(v @ v))


def solve_lbfgs(
    problem: LocalSubproblem,
    x_start: np.ndarray,
    tau: int,
    memory: int = DEFAULT_MEMORY,
) -> SolverReport:
    """tau iterations of L-BFGS on one subproblem, warm-started: the
    one-agent case of ``solve_lbfgs_batch``."""
    x = np.asarray(x_start, dtype=float)[None]
    return solve_lbfgs_batch(SubproblemBatch([problem]), x, tau, memory)[0]


def solve_lbfgs_batch(
    batch: SubproblemBatch,
    x_start: np.ndarray,
    tau: int,
    memory: int = DEFAULT_MEMORY,
) -> list[SolverReport]:
    """tau iterations of L-BFGS on every subproblem of ``batch`` in
    lockstep, warm-started at the rows of ``x_start``; one report per row.

    Two-loop recursion with Liu-Nocedal initial scaling and Armijo
    backtracking (c1=1e-4, halving, 30 backtracks max).  A failed line search
    takes a zero step for that iteration rather than forcing a move.
    Curvature pairs with s.y <= 1e-10 ||s|| ||y|| are dropped, which keeps the
    implicit inverse-Hessian approximation positive definite.  The memory is
    fresh per call: each round's subproblem is a different function, so no
    stale pairs carry over.  An agent stops once its gradient is exactly 0.

    Every agent still iterating shares each stage: one stacked value call
    per backtracking level for the agents still searching, one stacked
    gradient call for the agents that accepted.  The per-agent arithmetic
    (two-loop, slope check, Armijo test, curvature test) is unchanged, so
    each report equals that of a lone solve.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = np.array(x_start, dtype=float)
    k, d = x.shape
    everyone = np.arange(k)
    g = batch.gradients(x, everyone)
    f = batch.values(x, everyone)
    gnorm = [_norm(row) for row in g]
    norms = [[v] for v in gnorm]
    vals = [[v] for v in f.tolist()]
    # Only accepted steps store pairs, so at most tau slots are ever used.
    s_buf = np.empty((k, min(memory, tau), d))
    y_buf = np.empty_like(s_buf)
    rho_buf = np.empty(s_buf.shape[:2])
    count = [0] * k
    gamma = [1.0] * k
    failures = np.zeros(k, dtype=int)
    performed = np.zeros(k, dtype=int)
    backtracks = np.zeros(k, dtype=int)

    for _ in range(tau):
        moving = np.array([i for i in range(k) if gnorm[i] != 0.0], dtype=np.intp)
        if moving.size == 0:
            break
        performed[moving] += 1
        direction = np.empty((moving.size, d))
        slope = np.empty(moving.size)
        for n, i in enumerate(moving):
            c = count[i]
            # Looked up as a module global on every call, so a wrapper
            # installed on caden.solvers.two_loop_direction sees each one.
            direction[n] = -two_loop_direction(
                s_buf[i, :c], y_buf[i, :c], rho_buf[i, :c], gamma[i], g[i]
            )
            slope[n] = float(g[i] @ direction[n])
            if slope[n] >= 0.0:
                # Numerically broken direction; steepest descent is always safe.
                direction[n] = -g[i]
                slope[n] = -float(g[i] @ g[i])

        # Armijo backtracking, one stacked value call per level for the
        # agents still searching.
        x_now, f_now = x[moving], f[moving]
        step = np.ones(moving.size)
        x_trial = np.empty_like(x_now)
        f_trial = np.empty(moving.size)
        searching = np.arange(moving.size)
        for _ in range(MAX_BACKTRACKS):
            x_trial[searching] = x_now[searching] + step[searching, None] * direction[searching]
            f_trial[searching] = batch.values(x_trial[searching], moving[searching])
            f0, ft = f_now[searching], f_trial[searching]
            slack = ARMIJO_SLACK * (np.abs(f0) + np.abs(ft))
            accept = ft <= f0 + ARMIJO_C1 * step[searching] * slope[searching] + slack
            searching = searching[~accept]
            step[searching] *= ARMIJO_SHRINK
            backtracks[moving[searching]] += 1
            if searching.size == 0:
                break
        # A failed search leaves the agent in place for this iteration.
        failures[moving[searching]] += 1
        for i in moving[searching]:
            norms[i].append(gnorm[i])
            vals[i].append(float(f[i]))
        if searching.size == moving.size:
            continue
        took = np.ones(moving.size, dtype=bool)
        took[searching] = False

        # One stacked gradient call for the agents that accepted.
        rows = moving[took]
        g_new = batch.gradients(x_trial[took], rows)
        s_new = x_trial[took] - x[rows]
        y_new = g_new - g[rows]
        x[rows] = x_trial[took]
        f[rows] = f_trial[took]
        g[rows] = g_new
        for r, i in enumerate(rows):
            s_vec, y_vec = s_new[r], y_new[r]
            sy = float(s_vec @ y_vec)
            if sy > CURVATURE_SKIP_TOL * _norm(s_vec) * _norm(y_vec):
                c = count[i]
                if c == memory:
                    s_buf[i, :-1] = s_buf[i, 1:]
                    y_buf[i, :-1] = y_buf[i, 1:]
                    rho_buf[i, :-1] = rho_buf[i, 1:]
                    c -= 1
                s_buf[i, c] = s_vec
                y_buf[i, c] = y_vec
                rho_buf[i, c] = 1.0 / sy
                count[i] = c + 1
                gamma[i] = sy / float(y_vec @ y_vec)
            gnorm[i] = _norm(g_new[r])
            norms[i].append(gnorm[i])
            vals[i].append(float(f[i]))

    return [
        SolverReport(
            x_out=x[i],
            iterations=int(performed[i]),
            grad_norm_in=norms[i][0],
            grad_norm_out=gnorm[i],
            grad_norms=norms[i],
            values=vals[i],
            line_search_failures=int(failures[i]),
            backtracks=int(backtracks[i]),
        )
        for i in range(k)
    ]


def default_gd_step(problem: LocalSubproblem, lipschitz: float | None = None) -> float:
    """1 / (L + mu_z * degree): the inverse of the subproblem smoothness."""
    if lipschitz is None:
        lipschitz = problem.loss.smoothness()
    if lipschitz is None:
        raise ValueError("no smoothness estimate available; pass an explicit step")
    return 1.0 / (lipschitz + problem.mu_z * problem.degree)


def solve_gd(
    problem: LocalSubproblem,
    x_start: np.ndarray,
    tau: int,
    step: float | None = None,
    lipschitz: float | None = None,
) -> SolverReport:
    """tau fixed-step gradient steps on one subproblem, warm-started: the
    one-agent case of ``solve_gd_batch``."""
    x = np.asarray(x_start, dtype=float)[None]
    return solve_gd_batch(SubproblemBatch([problem]), x, tau, step, lipschitz)[0]


def solve_gd_batch(
    batch: SubproblemBatch,
    x_start: np.ndarray,
    tau: int,
    step: float | None = None,
    lipschitz: float | None = None,
) -> list[SolverReport]:
    """tau fixed-step gradient steps on every subproblem of ``batch`` in
    lockstep, warm-started at the rows of ``x_start``, with the same
    reporting as L-BFGS and one stacked gradient call per step.  Each
    agent's step defaults to the inverse of its subproblem's smoothness;
    an agent stops once its gradient is exactly 0."""
    steps = np.array(
        [step if step is not None else default_gd_step(p, lipschitz) for p in batch.problems]
    )
    if (steps <= 0.0).any():
        raise ValueError("step must be positive")
    x = np.array(x_start, dtype=float)
    g = batch.gradients(x, np.arange(len(x)))
    gnorm = np.array([_norm(row) for row in g])
    norms = [[v] for v in gnorm.tolist()]
    performed = np.zeros(len(x), dtype=int)
    for _ in range(tau):
        moving = np.flatnonzero(gnorm != 0.0)
        if moving.size == 0:
            break
        x[moving] = x[moving] - steps[moving, None] * g[moving]
        g[moving] = batch.gradients(x[moving], moving)
        gnorm[moving] = [_norm(row) for row in g[moving]]
        for i in moving:
            norms[i].append(float(gnorm[i]))
        performed[moving] += 1
    return [
        SolverReport(
            x_out=x[i],
            iterations=int(performed[i]),
            grad_norm_in=norms[i][0],
            grad_norm_out=norms[i][-1],
            grad_norms=norms[i],
        )
        for i in range(len(x))
    ]


def solve_exact_quadratic(problem: LocalSubproblem) -> SolverReport:
    """Closed-form minimizer (Q + mu_z k I)^-1 (Q a - phi + mu_z sum anchors).

    Only valid for quadratic losses; used as the oracle against which the
    iterative solvers are checked and as the engine's "exact" solver mode.
    """
    loss = problem.loss
    if not isinstance(loss, QuadraticLoss):
        raise TypeError("exact solve requires a quadratic loss")
    shift = problem.mu_z * problem.degree
    rhs = -problem.phi + problem.mu_z * problem.anchor_sum
    if loss.diagonal:
        rhs = rhs + loss.q * loss.a
        x = rhs / (loss.q + shift)
    else:
        rhs = rhs + loss.q @ loss.a
        x = np.linalg.solve(loss.q + shift * np.eye(loss.dim), rhs)
    gnorm = float(np.linalg.norm(problem.gradient(x)))
    return SolverReport(
        x_out=x,
        iterations=0,
        grad_norm_in=gnorm,
        grad_norm_out=gnorm,
        grad_norms=[gnorm],
    )


def estimate_contraction(report: SolverReport) -> float:
    """Empirical per-iteration decay factor of the squared gradient norm.

    Returns the geometric mean of the solve's successive squared-gradient-norm
    ratios, clamped to (0, 1] with a warning when the raw estimate exceeds 1.
    A zero starting gradient returns 0 (already solved).  Meaningful only on
    strongly convex subproblems.
    """
    if report.grad_norm_in == 0.0:
        return 0.0
    rate = _geometric_rate(report.grad_norms) ** 2
    if rate > 1.0:
        warnings.warn(f"gradient norms grew during the contraction probe (rate {rate:.3g})")
        rate = 1.0
    return rate
