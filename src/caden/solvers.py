"""Inexact local solvers for the per-agent augmented objective.

The primal step of each round minimizes

    f_i(x) + phi_i . x + (mu_z / 2) * sum_j ||x - anchor_j||^2

for a fixed iteration budget tau.  The primary solver is limited-memory BFGS
(two-loop recursion, Armijo backtracking); a plain gradient-descent variant
and an exact closed-form solve for quadratic losses are also provided.

``SubproblemBatch`` is the one subproblem type: k agents' subproblems over
the run's ``LossStack``, one agent being the case k = 1.  ``solve_lbfgs``
and ``solve_gd`` advance a batch in lockstep: one body runs every agent's
iterations side by side as stacked arrays.  Each stage is one call for the
agents it concerns: the two-loop recursion over the (k, M, d) histories,
one stacked loss call at the start, at each backtracking level and for the
gradients after accepted steps, and the dual and penalty terms, slopes,
norms and curvature tests as row-wise arrays (``rowdot``).  A row's penalty
is held as its degree, anchor sum and anchor spread, not as its anchor
matrix.  Each agent's arithmetic is that of a lone solve, bit for bit.

Each solve returns one ``SolverReport`` of row-stacked arrays: the (k, d)
models and loss gradients it ends at, (k,) counts and (k, tau + 1)
histories.  Every solver takes the loss gradients at its start points when
the caller has them; the engine carries them from round to round this way.
``engine.solve_subproblems`` is the one place that picks among the solvers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .losses import LocalLoss, LossStack, QuadraticLoss, rowdot, rownorm

ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
# Relative slack in the acceptance test; makes accept/reject robust to
# last-ulp noise in objective evaluation.
ARMIJO_SLACK = 1e-12
MAX_BACKTRACKS = 30
CURVATURE_SKIP_TOL = 1e-10
DEFAULT_MEMORY = 10


class SubproblemBatch:
    """Several agents' subproblems, evaluated together.

    Row j is agent ``agents[j]``'s subproblem: loss ``losses[agents[j]]``,
    dual ``phi[j]`` and penalty coefficient ``mu_z`` (one, or one per row).
    ``anchors`` is the flat (N, d) list of every row's anchors, ``owner[q]``
    the row of anchor q.  Each row holds its penalty as three numbers: its
    ``degree``, ``anchor_sum`` (its anchors added one at a time in list
    order) and ``spread`` sum_k ||a_k - mean||^2, through the exact identity
    sum_k ||x - a_k||^2 = degree ||x - mean||^2 + spread.  The penalty
    gradient is degree x - anchor_sum.

    ``values(x, which)`` and ``gradients(x, which)`` evaluate row
    ``which[n]`` at ``x[n]``: the loss terms in one call of the
    ``LossStack`` ``losses``, and the dual and penalty terms as stacked
    arrays.
    """

    def __init__(self, losses: LossStack, agents, phi, mu_z, anchors, owner):
        self._losses = losses
        self._agents = np.asarray(agents, dtype=np.intp)
        rows = len(self._agents)
        self.phi = np.asarray(phi, dtype=float)
        self.mu_z = np.broadcast_to(np.asarray(mu_z, dtype=float), (rows,))
        self.degree = np.bincount(owner, minlength=rows)
        self.anchor_sum = np.zeros_like(self.phi)
        np.add.at(self.anchor_sum, owner, anchors)
        self.mean = self.anchor_sum / np.maximum(self.degree, 1)[:, None]
        off = anchors - self.mean[owner]
        self.spread = np.bincount(owner, weights=rowdot(off, off), minlength=rows)

    def loss(self, row: int) -> LocalLoss:
        return self._losses[self._agents[row]]

    def loss_gradients(self, x: np.ndarray, which: np.ndarray) -> np.ndarray:
        """(n, d) loss gradients of rows ``which`` at ``x``."""
        return self._losses.gradients(x, self._agents[which])

    def values(self, x: np.ndarray, which: np.ndarray) -> np.ndarray:
        which = np.asarray(which, dtype=np.intp)
        dual = rowdot(self.phi[which], x)
        off = x - self.mean[which]
        penalty = self.degree[which] * rowdot(off, off) + self.spread[which]
        return self._losses.values(x, self._agents[which]) + dual + 0.5 * self.mu_z[which] * penalty

    def gradients(
        self, x: np.ndarray, which: np.ndarray, loss_gradients: np.ndarray | None = None
    ) -> np.ndarray:
        """(n, d) objective gradients; the loss gradients at ``x`` are
        evaluated unless given."""
        which = np.asarray(which, dtype=np.intp)
        if loss_gradients is None:
            loss_gradients = self.loss_gradients(x, which)
        pull = self.degree[which, None] * x - self.anchor_sum[which]
        return loss_gradients + self.phi[which] + self.mu_z[which, None] * pull


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve of k subproblems, row n for row n of its batch.
    Column c of a (k, tau + 1) history holds a row's entry after c
    iterations, NaN past its ``iterations``.  Gradient descent and the exact
    solve record no values and count no line-search failures or backtracks."""

    x_out: np.ndarray  # (k, d)
    # (k, d) loss gradients at x_out, from the solve's own last evaluation.
    loss_grad_out: np.ndarray = field(repr=False)
    iterations: np.ndarray  # (k,)
    grad_norms: np.ndarray = field(repr=False)  # (k, tau + 1)
    values: np.ndarray | None = field(repr=False)  # (k, tau + 1), L-BFGS only
    line_search_failures: np.ndarray  # (k,)
    # (k,) rejected Armijo trials; a failed search counts all MAX_BACKTRACKS.
    backtracks: np.ndarray

    @property
    def grad_norm_in(self) -> np.ndarray:
        return self.grad_norms[:, 0]

    @property
    def grad_norm_out(self) -> np.ndarray:
        return self.grad_norms[np.arange(len(self.iterations)), self.iterations]


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
    gamma: np.ndarray,
    grad: np.ndarray,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Apply each row's limited-memory inverse-Hessian approximation to its
    gradient.

    Args:
        s: (k, M, d) step differences per row, oldest first.
        y: (k, M, d) gradient differences per row, oldest first.
        rho: (k, M) precomputed 1 / (s_i . y_i).
        gamma: (k,) initial inverse-Hessian scalings.
        grad: (k, d) gradients to precondition.
        counts: (k,) pairs in use per row, its first ``counts[n]`` slots;
            all M when None.

    Returns:
        (k, d) H_n @ grad[n]; the descent directions are their negatives.
    """
    k, memory = rho.shape
    if counts is None:
        counts = np.full(k, memory)
    top = int(counts.max(initial=0))
    # Every row takes part in every pair when the counts agree: plain slices.
    uniform = bool((counts == top).all())
    q = grad.copy()
    alpha = np.empty((k, top))
    for i in range(top - 1, -1, -1):
        rows = slice(None) if uniform else np.flatnonzero(counts > i)
        alpha[rows, i] = rho[rows, i] * rowdot(s[rows, i], q[rows])
        q[rows] -= alpha[rows, i][:, None] * y[rows, i]
    r = gamma[:, None] * q
    for i in range(top):
        rows = slice(None) if uniform else np.flatnonzero(counts > i)
        beta = rho[rows, i] * rowdot(y[rows, i], r[rows])
        r[rows] += (alpha[rows, i] - beta)[:, None] * s[rows, i]
    return r


def _start_loss_gradients(batch: SubproblemBatch, x: np.ndarray, given) -> np.ndarray:
    """A writable copy of the given loss gradients at ``x``, else their
    evaluation."""
    if given is None:
        return batch.loss_gradients(x, np.arange(len(x)))
    return np.array(given, dtype=float)


def solve_lbfgs(
    batch: SubproblemBatch,
    x_start: np.ndarray,
    tau: int,
    memory: int = DEFAULT_MEMORY,
    loss_grad: np.ndarray | None = None,
) -> SolverReport:
    """tau iterations of L-BFGS on every subproblem of ``batch`` in
    lockstep, warm-started at the rows of ``x_start``; one report for all
    rows.  ``loss_grad`` holds the loss gradients at ``x_start`` when the
    caller has them; they are evaluated otherwise.

    Two-loop recursion with Liu-Nocedal initial scaling and Armijo
    backtracking (c1=1e-4, halving, 30 backtracks max).  A failed line search
    takes a zero step for that iteration rather than forcing a move.
    Curvature pairs with s.y <= 1e-10 ||s|| ||y|| are dropped, which keeps the
    implicit inverse-Hessian approximation positive definite.  The memory is
    fresh per call: each round's subproblem is a different function, so no
    stale pairs carry over.  An agent stops once its gradient is exactly 0.

    Every agent still iterating shares each stage: one two-loop call over
    the (k, M, d) histories, one stacked value call per backtracking level
    for the agents still searching, one stacked gradient call for the
    agents that accepted.  The slope, norm and curvature dot products go
    through ``rowdot``.  Each row's arithmetic is that of a lone solve, so
    each row of the report equals its one-row batch's solve bit for bit.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = np.array(x_start, dtype=float)
    k, d = x.shape
    everyone = np.arange(k)
    lg = _start_loss_gradients(batch, x, loss_grad)
    g = batch.gradients(x, everyone, lg)
    f = batch.values(x, everyone)
    gnorm = rownorm(g)
    # Column c of an agent's row holds its gradient norm and value after c
    # iterations.
    norms, vals = np.full((2, k, tau + 1), np.nan)
    norms[:, 0] = gnorm
    vals[:, 0] = f
    # Only accepted steps store pairs, so at most tau slots are ever used.
    slots = min(memory, tau)
    s_buf = np.empty((k, slots, d))
    y_buf = np.empty_like(s_buf)
    rho_buf = np.empty((k, slots))
    count = np.zeros(k, dtype=np.intp)
    gamma = np.ones(k)
    failures, performed, backtracks = np.zeros((3, k), dtype=int)

    for _ in range(tau):
        moving = np.flatnonzero(gnorm != 0.0)
        if moving.size == 0:
            break
        performed[moving] += 1
        hist = slice(None) if moving.size == k else moving
        g_now = g[moving]
        # Looked up as a module global on every call, so a wrapper
        # installed on caden.solvers.two_loop_direction sees each one.
        direction = -two_loop_direction(
            s_buf[hist], y_buf[hist], rho_buf[hist], gamma[moving], g_now, count[moving]
        )
        slope = rowdot(g_now, direction)
        # A numerically broken direction falls back to steepest descent,
        # which is always safe.
        broken = np.flatnonzero(slope >= 0.0)
        if broken.size:
            direction[broken] = -g_now[broken]
            slope[broken] = -rowdot(g_now[broken], g_now[broken])

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
        took = np.ones(moving.size, dtype=bool)
        took[searching] = False
        rows = moving[took]
        if rows.size:
            # One stacked gradient call for the agents that accepted.
            x_new = x_trial[took]
            lg_new = batch.loss_gradients(x_new, rows)
            g_new = batch.gradients(x_new, rows, lg_new)
            s_new = x_new - x[rows]
            y_new = g_new - g[rows]
            x[rows] = x_new
            f[rows] = f_trial[took]
            g[rows] = g_new
            lg[rows] = lg_new
            sy = rowdot(s_new, y_new)
            keep = np.flatnonzero(sy > CURVATURE_SKIP_TOL * rownorm(s_new) * rownorm(y_new))
            if keep.size:
                stored = rows[keep]
                full = stored[count[stored] == slots]
                if full.size:
                    s_buf[full, :-1] = s_buf[full, 1:]
                    y_buf[full, :-1] = y_buf[full, 1:]
                    rho_buf[full, :-1] = rho_buf[full, 1:]
                    count[full] -= 1
                c = count[stored]
                s_buf[stored, c] = s_new[keep]
                y_buf[stored, c] = y_new[keep]
                rho_buf[stored, c] = 1.0 / sy[keep]
                count[stored] = c + 1
                gamma[stored] = sy[keep] / rowdot(y_new[keep], y_new[keep])
            gnorm[rows] = rownorm(g_new)
        norms[moving, performed[moving]] = gnorm[moving]
        vals[moving, performed[moving]] = f[moving]

    return SolverReport(x, lg, performed, norms, vals, failures, backtracks)


def default_gd_step(batch: SubproblemBatch, lipschitz: float | None = None) -> np.ndarray:
    """(k,) steps 1 / (L + mu_z * degree), one per batch row: the inverse of
    each subproblem's smoothness.  L is ``lipschitz``, or each row's own
    loss smoothness when that is None."""
    if lipschitz is None:
        known = [batch.loss(n).smoothness() for n in range(len(batch.mu_z))]
        if any(v is None for v in known):
            raise ValueError("no smoothness estimate available; pass an explicit step")
        lipschitz = np.array(known)
    return 1.0 / (lipschitz + batch.mu_z * batch.degree)


def solve_gd(
    batch: SubproblemBatch,
    x_start: np.ndarray,
    tau: int,
    step: float | None = None,
    lipschitz: float | None = None,
    loss_grad: np.ndarray | None = None,
) -> SolverReport:
    """tau fixed-step gradient steps on every subproblem of ``batch`` in
    lockstep, warm-started at the rows of ``x_start``, with one report for
    all rows and one stacked gradient call per step.  Each agent's step
    defaults to the inverse of its subproblem's smoothness; an agent stops
    once its gradient is exactly 0.  ``loss_grad`` holds
    the loss gradients at ``x_start`` when the caller has them."""
    x = np.array(x_start, dtype=float)
    k = len(x)
    steps = np.full(k, step, dtype=float) if step is not None else default_gd_step(batch, lipschitz)
    if (steps <= 0.0).any():
        raise ValueError("step must be positive")
    lg = _start_loss_gradients(batch, x, loss_grad)
    g = batch.gradients(x, np.arange(k), lg)
    gnorm = rownorm(g)
    norms = np.full((k, tau + 1), np.nan)
    norms[:, 0] = gnorm
    performed = np.zeros(k, dtype=int)
    for _ in range(tau):
        moving = np.flatnonzero(gnorm != 0.0)
        if moving.size == 0:
            break
        x[moving] = x[moving] - steps[moving, None] * g[moving]
        lg[moving] = batch.loss_gradients(x[moving], moving)
        g[moving] = batch.gradients(x[moving], moving, lg[moving])
        gnorm[moving] = rownorm(g[moving])
        performed[moving] += 1
        norms[moving, performed[moving]] = gnorm[moving]
    zeros = np.zeros(k, dtype=int)
    return SolverReport(x, lg, performed, norms, None, zeros, zeros)


def solve_exact(batch: SubproblemBatch) -> SolverReport:
    """Closed-form minimizer (Q + mu_z k I)^-1 (Q a - phi + mu_z sum anchors)
    of every row of ``batch``, one row at a time, then every row's loss
    gradient in one stacked call.  Only valid for quadratic losses; the
    oracle for the iterative solvers and the engine's "exact" solver mode."""
    k = len(batch.phi)
    x = np.empty_like(batch.phi)
    for n in range(k):
        loss = batch.loss(n)
        if not isinstance(loss, QuadraticLoss):
            raise TypeError("exact solve requires a quadratic loss")
        shift = batch.mu_z[n] * batch.degree[n]
        rhs = -batch.phi[n] + batch.mu_z[n] * batch.anchor_sum[n]
        if loss.diagonal:
            x[n] = (rhs + loss.q * loss.a) / (loss.q + shift)
        else:
            x[n] = np.linalg.solve(loss.q + shift * np.eye(loss.dim), rhs + loss.q @ loss.a)
    everyone = np.arange(k)
    lg = batch.loss_gradients(x, everyone)
    norms = rownorm(batch.gradients(x, everyone, lg))[:, None]
    zeros = np.zeros(k, dtype=int)
    return SolverReport(x, lg, zeros, norms, None, zeros, zeros)


def estimate_contraction(report: SolverReport) -> np.ndarray:
    """(k,) empirical per-iteration decay factors of each row's squared
    gradient norm: the geometric mean of the successive squared ratios among
    its first ``iterations[n] + 1`` norms, 0 from a zero start gradient
    (already solved).  Rates above 1 are clamped to 1, with one warning
    naming the largest.  Meaningful only on strongly convex subproblems.
    """
    raw = np.array([
        _geometric_rate(norms[: done + 1].tolist()) ** 2
        for norms, done in zip(report.grad_norms, report.iterations.tolist())
    ])
    grew = raw[raw > 1.0]
    if grew.size:
        warnings.warn(f"gradient norms grew during the contraction probe (rate {grew.max():.3g})")
    return np.minimum(raw, 1.0)
