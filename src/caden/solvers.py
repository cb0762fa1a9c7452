"""Inexact local solvers for the per-agent augmented objective.

The primal step of each round minimizes

    f_i(x) + phi_i . x + (mu_z / 2) * sum_j ||x - anchor_j||^2

for a fixed iteration budget tau.  The primary solver is limited-memory BFGS
(two-loop recursion, Armijo backtracking); a plain gradient-descent variant
and an exact closed-form solve for quadratic losses are also provided.  Each
solver works on a ``LocalSubproblem`` directly, calling its ``value`` and
``gradient``.  ``engine.solve_local`` is the one place that picks among them,
for the agent form, the edge form and the contraction probe alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .losses import LocalLoss, QuadraticLoss

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
        pen = float(((x - self.anchors) ** 2).sum()) if self.degree else 0.0
        return self.loss.value(x) + float(self.phi @ x) + 0.5 * self.mu_z * pen

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = self.loss.gradient(x) + self.phi
        if self.degree:
            g = g + self.mu_z * (self.degree * x - self.anchor_sum)
        return g


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


def solve_lbfgs(
    problem: LocalSubproblem,
    x_start: np.ndarray,
    tau: int,
    memory: int = DEFAULT_MEMORY,
) -> SolverReport:
    """tau iterations of L-BFGS on the local subproblem, warm-started.

    Two-loop recursion with Liu-Nocedal initial scaling and Armijo
    backtracking (c1=1e-4, halving, 30 backtracks max).  A failed line search
    takes a zero step for that iteration rather than forcing a move.
    Curvature pairs with s.y <= 1e-10 ||s|| ||y|| are dropped, which keeps the
    implicit inverse-Hessian approximation positive definite.  The memory is
    fresh per call: each round's subproblem is a different function, so no
    stale pairs carry over.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = np.asarray(x_start, dtype=float).copy()
    d = x.shape[0]
    g = problem.gradient(x)
    f = problem.value(x)
    gnorm = float(np.linalg.norm(g))
    norms = [gnorm]
    vals = [f]
    s_buf = np.empty((memory, d))
    y_buf = np.empty((memory, d))
    rho_buf = np.empty(memory)
    count = 0
    gamma = 1.0
    failures = 0
    performed = 0

    for _ in range(tau):
        if gnorm == 0.0:
            break
        # Looked up as a module global on every call, so a wrapper installed
        # on caden.solvers.two_loop_direction sees each one.
        direction = -two_loop_direction(s_buf[:count], y_buf[:count], rho_buf[:count], gamma, g)
        slope = float(g @ direction)
        if slope >= 0.0:
            # Numerically broken direction; steepest descent is always safe.
            direction = -g
            slope = -float(g @ g)
        step = 1.0
        accepted = False
        f_trial = f
        for _ in range(MAX_BACKTRACKS):
            x_trial = x + step * direction
            f_trial = problem.value(x_trial)
            slack = ARMIJO_SLACK * (abs(f) + abs(f_trial))
            if f_trial <= f + ARMIJO_C1 * step * slope + slack:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        performed += 1
        if not accepted:
            failures += 1
            norms.append(gnorm)
            vals.append(f)
            continue
        g_new = problem.gradient(x_trial)
        s_vec = x_trial - x
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > CURVATURE_SKIP_TOL * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            if count == memory:
                s_buf[:-1] = s_buf[1:]
                y_buf[:-1] = y_buf[1:]
                rho_buf[:-1] = rho_buf[1:]
                count -= 1
            s_buf[count] = s_vec
            y_buf[count] = y_vec
            rho_buf[count] = 1.0 / sy
            count += 1
            gamma = sy / float(y_vec @ y_vec)
        x, f, g = x_trial, f_trial, g_new
        gnorm = float(np.linalg.norm(g))
        norms.append(gnorm)
        vals.append(f)

    return SolverReport(
        x_out=x,
        iterations=performed,
        grad_norm_in=norms[0],
        grad_norm_out=gnorm,
        grad_norms=norms,
        values=vals,
        line_search_failures=failures,
    )


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
    """tau fixed-step gradient steps on the local subproblem, warm-started,
    with the same reporting as L-BFGS; the step defaults to the inverse of the
    subproblem smoothness."""
    if step is None:
        step = default_gd_step(problem, lipschitz)
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x_start, dtype=float).copy()
    g = problem.gradient(x)
    gnorm = float(np.linalg.norm(g))
    norms = [gnorm]
    performed = 0
    for _ in range(tau):
        if gnorm == 0.0:
            break
        x = x - step * g
        g = problem.gradient(x)
        gnorm = float(np.linalg.norm(g))
        norms.append(gnorm)
        performed += 1
    return SolverReport(
        x_out=x,
        iterations=performed,
        grad_norm_in=norms[0],
        grad_norm_out=gnorm,
        grad_norms=norms,
    )


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
