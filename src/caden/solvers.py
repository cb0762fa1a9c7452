"""Inexact local solvers for the per-agent augmented objective.

The primal step of each round minimizes

    f_i(x) + phi_i . x + (mu_z / 2) * sum_j ||x - anchor_j||^2

for a fixed iteration budget tau.  The primary solver is limited-memory BFGS
(two-loop recursion, Armijo backtracking, a first trial scaled by the
inverse of the subproblem's smoothness when the loss smoothness is known);
a plain gradient-descent variant and an exact closed-form solve for
quadratic losses are also provided.

``SubproblemBatch`` is the one subproblem type: k agents' subproblems over
the run's ``LossStack``, one agent being the case k = 1, evaluated only
through ``SubproblemBatch.evaluate`` (of the batch or of ``take`` of some
rows).  ``solve_lbfgs`` and ``solve_gd`` advance a batch in lockstep: one
body runs every agent's iterations side by side as stacked arrays.  Every
solver step is one fused value-and-gradient call: each backtracking level
of L-BFGS and each gradient-descent step; the start makes one more unless
the caller gives its loss terms, as the engine does from its ``RunState``.
The other stages are one call each for the agents they concern: the
two-loop recursion over the curvature pairs, newest first and each row
zero-padded, in the s and y arrays of an ``LbfgsPool`` that lives for the
run; and the dual and penalty terms, slopes, norms and curvature tests as
row-wise arrays (``rowdot``).  A row's penalty is held as its degree,
anchor sum and anchor spread, not as its anchor matrix.  Each agent's
arithmetic is that of a lone solve, bit for bit.  Every stage marks the
batch rows it concerns with a (k,) boolean mask.  A stage with every row
in play runs on whole arrays and evaluates the batch itself; any other
evaluates ``batch.take`` of its rows, a batch of its own.

Each solve returns one ``SolverReport`` of row-stacked arrays: the (k, d)
models and loss gradients it ends at, (k,) counts and (k, tau + 1)
histories.  Every solver takes the loss values and gradients at its start
points when the caller has them, and reports them at the points it ends
at; the engine carries them from round to round this way.
``engine.solve_subproblems`` is the one place that picks among the solvers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import SumPlan, ordered_sums
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
    ``anchors`` is the flat (N, d) list of every row's anchors and ``sums``
    the ``graphs.SumPlan`` of their rows, resolved once by the caller (the
    engine passes its topology's).  Each row holds its penalty as three
    numbers: its ``degree``, ``anchor_sum`` (its anchors added one at a time
    in list order, by ``graphs.ordered_sums``) and ``spread``
    sum_k ||a_k - mean||^2, through the exact identity
    sum_k ||x - a_k||^2 = degree ||x - mean||^2 + spread.  The penalty
    gradient is degree x - anchor_sum.

    ``evaluate(x)`` is the one way to evaluate a batch: every row n's
    objective value and gradient at ``x[n]``, and its loss value and
    gradient, from one fused call of the ``LossStack`` ``losses`` (or from
    the caller's loss terms, when given), the dual and penalty terms added
    as whole arrays.  The loss call goes through the batch's ``RowPlan``,
    resolved once when the batch is built.  ``take(rows)`` is the batch of
    some of its rows, so a subset of rows is evaluated as a batch of its own.
    """

    def __init__(self, losses: LossStack, agents, phi, mu_z, anchors, sums: SumPlan):
        self._losses = losses
        self._agents = np.asarray(agents, dtype=np.intp)
        self._plan = losses.plan(self._agents)
        rows = len(self._agents)
        self.phi = np.asarray(phi, dtype=float)
        self.mu_z = np.broadcast_to(np.asarray(mu_z, dtype=float), (rows,))
        self.degree = sums.counts
        self.anchor_sum = ordered_sums(sums, np.asarray(anchors, dtype=float), rows)
        self.mean = self.anchor_sum / np.maximum(self.degree, 1)[:, None]
        off = anchors - self.mean[sums.owner]
        self.spread = np.bincount(sums.owner, weights=rowdot(off, off), minlength=rows)

    def loss(self, row: int) -> LocalLoss:
        return self._losses[self._agents[row]]

    def take(self, rows) -> SubproblemBatch:
        """The batch of rows ``rows`` of this one, in that order: their dual
        and penalty terms copied from it, not recomputed, and their
        ``RowPlan`` resolved once."""
        rows = np.asarray(rows, dtype=np.intp)
        sub = object.__new__(SubproblemBatch)
        sub._losses, sub._agents = self._losses, self._agents[rows]
        sub._plan = self._losses.plan(sub._agents)
        for name in ("phi", "mu_z", "degree", "anchor_sum", "mean", "spread"):
            setattr(sub, name, getattr(self, name)[rows])
        return sub

    def _values(self, x: np.ndarray, loss_values: np.ndarray) -> np.ndarray:
        """(k,) objective values from the loss values at ``x``."""
        dual = rowdot(self.phi, x)
        off = x - self.mean
        penalty = self.degree * rowdot(off, off) + self.spread
        return loss_values + dual + 0.5 * self.mu_z * penalty

    def _gradients(self, x: np.ndarray, loss_gradients: np.ndarray) -> np.ndarray:
        """(k, d) objective gradients from the loss gradients at ``x``."""
        # loss_gradients + phi + mu_z * (degree x - anchor_sum), in the same
        # order of operations, into two arrays.
        pull = self.degree[:, None] * x
        pull -= self.anchor_sum
        pull *= self.mu_z[:, None]
        out = loss_gradients + self.phi
        out += pull
        return out

    def evaluate(self, x: np.ndarray, loss_terms=None):
        """(k,) objective values, (k, d) objective gradients, (k,) loss
        values and (k, d) loss gradients at ``x``, from one fused stacked
        loss call, or from a copy of ``loss_terms``, the caller's loss values
        and gradients at ``x``, when given."""
        if loss_terms is None:
            lv, lg = self._losses.values_and_gradients(x, self._plan)
        else:
            lv, lg = (np.array(terms, dtype=float) for terms in loss_terms)
        return self._values(x, lv), self._gradients(x, lg), lv, lg


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve of k subproblems, row n for row n of its batch.
    Column c of a (k, tau + 1) history holds a row's entry after c
    iterations, NaN past its ``iterations``.  Gradient descent and the exact
    solve record no values and count no line-search failures or backtracks."""

    x_out: np.ndarray  # (k, d)
    # (k, d) loss gradients and (k,) loss values at x_out, from the solve's
    # own evaluations (or the caller's, for a row that did not move).
    loss_grad_out: np.ndarray = field(repr=False)
    loss_value_out: np.ndarray = field(repr=False)
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
    s: Sequence[np.ndarray],
    y: Sequence[np.ndarray],
    rho: Sequence[np.ndarray],
    gamma: np.ndarray,
    grad: np.ndarray,
) -> np.ndarray:
    """Apply each row's limited-memory inverse-Hessian approximation to its
    gradient: the two-loop recursion over every slot given.

    The memory is M slots, newest first, each holding one pair per row: a
    list of M (k, d) arrays, or an (M, k, d) array.  Row n holds its pairs
    newest first, zeros after its oldest.  A zero slot (s = y = 0, rho = 0)
    leaves both loops' vectors as they are, so a row with fewer pairs needs
    no count: its recursion is that of its own pairs.

    Args:
        s: M (k, d) step differences, newest first.
        y: M (k, d) gradient differences, newest first.
        rho: M (k,) 1 / (s_i . y_i), 0 in an unused slot.
        gamma: (k,) initial inverse-Hessian scalings.
        grad: (k, d) gradients to precondition.

    Returns:
        (k, d) H_n @ grad[n]; the descent directions are their negatives.
    """
    q = grad.copy()
    alpha = []
    for s_i, y_i, rho_i in zip(s, y, rho):
        alpha.append(rho_i * rowdot(s_i, q))
        q -= alpha[-1][:, None] * y_i
    r = gamma[:, None] * q
    for s_i, y_i, rho_i, alpha_i in reversed(list(zip(s, y, rho, alpha))):
        beta = rho_i * rowdot(y_i, r)
        r += (alpha_i - beta)[:, None] * s_i
    return r


class LbfgsPool:
    """Run-lived storage for the L-BFGS memory's curvature pairs: an s and a
    y array of (slots + 1, ``rows``, ``dim``), made when a solve first needs
    more slots than they hold; ``s`` and ``y`` are their first ``slots``,
    and the last is a spare.  ``slots(depth, k)`` gives the views a solve of
    k rows uses, so a pool that serves every solve of a run is made once,
    with min(M, tau - 1) slots: the last iteration stores no pair.  Only the
    storage lives on: a solve reads only the slots it has put to use, so no
    pair of an earlier solve reaches a later one.
    """

    def __init__(self, rows: int, dim: int):
        self.rows, self.dim = rows, dim
        self._s = self._y = self.s = self.y = np.empty((0, rows, dim))

    def slots(self, depth: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The s and y views of the first ``depth`` slots' first k rows and
        of the spare after them."""
        if depth >= len(self._s):
            self._s, self._y = (np.empty((depth + 1, self.rows, self.dim)) for _ in range(2))
            self.s, self.y = self._s[:depth], self._y[:depth]
        return self._s[: depth + 1, :k], self._y[: depth + 1, :k]


def _store_pairs(mem, held: int, took, x_pair, g_pair, gamma) -> int:
    """Store the curvature pairs s = x_new - x, y = g_new - g of the rows
    where the (k,) mask ``took`` holds, given ``x_pair`` = (x_new, x) and
    ``g_pair`` = (g_new, g) of every row, in the L-BFGS memory ``mem`` =
    (s, y, rho) of S slots and a spare, S = min(M, tau - 1), and set those
    rows' ``gamma``; a pair with s.y <= CURVATURE_SKIP_TOL ||s|| ||y|| is
    dropped.  The first ``held`` slots are in use, oldest first: each row's
    newest pair at slot held - 1, zeros below its oldest.  A pair is
    computed in place at slot ``held``, the next one or, once all S are in
    use, the spare.  Below S that slot is put to use, and the rows that
    store no pair move theirs up one slot over a zero at slot 0; at S the
    storing rows move theirs down one slot, their oldest falling off.
    Returns the slots in use."""
    # When every row took a step (or stores a pair below), whole arrays are
    # indexed by slices, not masks.
    at, where = (slice(None), True) if took.all() else (took, took[:, None])
    for slots, pair in zip(mem, (x_pair, g_pair)):
        np.subtract(*pair, out=slots[held], where=where)
    s_new, y_new = mem[0][held, at], mem[1][held, at]
    sy, yy = rowdot(s_new, y_new), rowdot(y_new, y_new)
    keep = sy > CURVATURE_SKIP_TOL * rownorm(s_new) * np.sqrt(yy)
    if not keep.any():
        return held
    stored = took.copy()
    stored[took] = keep
    every = stored.all()
    rows, pick = (slice(None),) * 2 if every else (stored, keep)
    mem[2][held, rows] = 1.0 / sy[pick]
    gamma[rows] = sy[pick] / yy[pick]
    if held < len(mem[0]) - 1:
        if not every:
            for slots in mem:
                for j in range(held, 0, -1):
                    slots[j, ~stored] = slots[j - 1, ~stored]
                slots[0, ~stored] = 0.0
        return held + 1
    for slots in mem:
        for j in range(held):
            slots[j, rows] = slots[j + 1, rows]
    return held


def solve_lbfgs(
    batch: SubproblemBatch,
    x_start: np.ndarray,
    tau: int,
    memory: int = DEFAULT_MEMORY,
    start: tuple[np.ndarray, np.ndarray] | None = None,
    lipschitz: float | None = None,
    pool: LbfgsPool | None = None,
) -> SolverReport:
    """tau iterations of L-BFGS on every subproblem of ``batch`` in
    lockstep, warm-started at the rows of ``x_start``; one report for all
    rows.  ``start`` holds the (k,) loss values and (k, d) loss gradients
    at ``x_start`` when the caller has them, as the engine has its carried
    rows; then the start makes no loss call, and one fused
    value-and-gradient call otherwise.

    Two-loop recursion with Liu-Nocedal initial scaling and Armijo
    backtracking (c1=1e-4, halving, 30 backtracks max).  Before a row holds
    a curvature pair its inverse-Hessian scaling is the inverse of its
    subproblem's smoothness, ``default_gd_step(batch, lipschitz)`` =
    1 / (lipschitz + mu_z degree), when the loss smoothness ``lipschitz`` is
    known (Nocedal & Wright 2006, sec. 7.2), and 1 otherwise.  A failed
    line search takes a zero step for that iteration rather than forcing a
    move.  Curvature pairs with s.y <= 1e-10 ||s|| ||y|| are dropped, which
    keeps the implicit inverse-Hessian approximation positive definite.  The
    memory's contents are fresh per call: each round's subproblem is a
    different function, so no stale pairs carry over.  Its storage comes
    from ``pool``, an ``LbfgsPool`` of at least k rows that the caller keeps
    for the run (the engine's ``RunState`` holds one), or a fresh pool for
    this call when None.  An agent stops once its gradient is exactly 0.

    The memory is the pool's s and y views of S = min(M, tau - 1) slots of
    k rows and a spare, and a rho of as many (k,) slots, the first ``held``
    slots in use, as many as the most any row has filled: each row's pairs
    oldest first up to its newest at slot held - 1, zeros below its oldest.
    ``_store_pairs`` is the one store path; it computes each new pair in
    place, so when every row stores below S slots it copies no slot.  The
    recursion reads the slots in use newest first, as reversed (held, k, d)
    views.  After the pool's first solve, a solve of no more rows with the
    same S allocates no pair storage.  The last iteration stores no pair,
    since no recursion would read it.

    Every agent still iterating shares each stage: one two-loop call over
    the memory of all k rows, a stopped row getting a zero direction, and
    one fused stacked call (``SubproblemBatch.evaluate``) per backtracking
    level, of the batch when every row searches and of ``batch.take`` of
    the searching rows otherwise.  An accepted trial's value, gradient and
    loss terms come from that call, so the report's loss values and
    gradients are those of the accepted trials, and when every row accepts,
    its trial arrays become the state.  The masks are ``live``,
    ``searching``, ``took`` (the live rows whose search did not fail) and
    ``stored``.  Each row's arithmetic is that of a lone solve, so each row
    of the report equals its one-row batch's solve bit for bit.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = np.array(x_start, dtype=float)
    k = len(x)
    f, g, lv, lg = batch.evaluate(x, start)
    gnorm = rownorm(g)
    # Column c of an agent's row holds its gradient norm and value after c
    # iterations.
    norms, vals = np.full((2, k, tau + 1), np.nan)
    norms[:, 0] = gnorm
    vals[:, 0] = f
    if pool is None:
        pool = LbfgsPool(k, x.shape[1])
    elif pool.rows < k or pool.dim != x.shape[1]:
        raise ValueError(f"a pool of ({pool.rows}, {pool.dim}) buffers cannot hold {x.shape} pairs")
    s_mem, y_mem = pool.slots(max(min(memory, tau - 1), 0), k)
    mem, held = (s_mem, y_mem, np.empty(s_mem.shape[:2])), 0  # s, y and rho
    gamma = np.ones(k) if lipschitz is None else default_gd_step(batch, lipschitz)
    failures, performed, backtracks = np.zeros((3, k), dtype=int)

    for it in range(1, tau + 1):
        # A row stops for good at a zero gradient, so each live row has
        # moved in every earlier iteration and this is its iteration ``it``.
        live = gnorm != 0.0
        if not live.any():
            break
        performed += live
        # Every row's direction, a stopped row's zero, from the slots in use
        # newest first.  Looked up as a module global on every call, so a
        # wrapper installed on caden.solvers.two_loop_direction sees each one.
        direction = -two_loop_direction(*(slots[:held][::-1] for slots in mem), gamma, g)
        slope = rowdot(g, direction)
        # A numerically broken direction falls back to steepest descent,
        # which is always safe.
        broken = slope >= 0.0
        if broken.any():
            direction[broken] = -g[broken]
            slope[broken] = -rowdot(g[broken], g[broken])

        # Armijo backtracking, one fused stacked call per level for the rows
        # still searching: every live row at step 1, then those whose last
        # trial was rejected.  ``trial`` keeps each trial's value, gradient,
        # loss value and loss gradient, so an accepted trial needs no further
        # evaluation: the first level's own arrays when every row is live.
        step = np.ones(k)
        x_trial = x + direction
        trial = None if live.all() else [np.empty_like(a) for a in (f, g, lv, lg)]
        searching, took = live.copy(), live
        for _ in range(MAX_BACKTRACKS):
            if searching.all():
                trial = batch.evaluate(x_trial)
            else:
                subset = batch.take(np.flatnonzero(searching)).evaluate(x_trial[searching])
                for out, got in zip(trial, subset):
                    out[searching] = got
            f0, ft = f[searching], trial[0][searching]
            slack = ARMIJO_SLACK * (np.abs(f0) + np.abs(ft))
            accept = ft <= f0 + ARMIJO_C1 * step[searching] * slope[searching] + slack
            if accept.all():
                break
            searching[searching] = ~accept
            step[searching] *= ARMIJO_SHRINK
            backtracks[searching] += 1
            x_trial[searching] = x[searching] + step[searching, None] * direction[searching]
        else:
            # A failed search leaves the row in place for this iteration.
            failures[searching] += 1
            took = live & ~searching
        if it < tau and took.any():
            held = _store_pairs(mem, held, took, (x_trial, x), (trial[1], g), gamma)
        if took.all():
            # Every row accepted: the trial arrays become the state.  Writing
            # them through ``x[took] = ...`` instead measured 1.015-1.026x the
            # time of an mlp_ring round (2-vCPU host).
            x, (f, g, lv, lg) = x_trial, trial
            gnorm = rownorm(g)
        elif took.any():
            for state, tried in zip((x, f, g, lv, lg), (x_trial, *trial)):
                state[took] = tried[took]
            gnorm[took] = rownorm(g[took])
        np.copyto(norms[:, it], gnorm, where=live)
        np.copyto(vals[:, it], f, where=live)

    return SolverReport(x, lg, lv, performed, norms, vals, failures, backtracks)


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
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> SolverReport:
    """tau fixed-step gradient steps on every subproblem of ``batch`` in
    lockstep, warm-started at the rows of ``x_start``, with one report for
    all rows.  Each step is one fused ``SubproblemBatch.evaluate`` call of
    the rows still moving, so every row's report carries the loss value and
    gradient of its last step.  Each agent's step defaults to the inverse of
    its subproblem's smoothness; an agent stops once its gradient is exactly
    0.  ``start`` holds the loss values and gradients at ``x_start`` when
    the caller has them, as ``solve_lbfgs`` takes them."""
    x = np.array(x_start, dtype=float)
    k = len(x)
    steps = np.full(k, step, dtype=float) if step is not None else default_gd_step(batch, lipschitz)
    if not (steps > 0.0).all():  # also refuses NaN
        raise ValueError("step must be positive")
    _, g, lv, lg = batch.evaluate(x, start)
    gnorm = rownorm(g)
    norms = np.full((k, tau + 1), np.nan)
    norms[:, 0] = gnorm
    performed = np.zeros(k, dtype=int)
    for it in range(1, tau + 1):
        # As in ``solve_lbfgs``: a live row is at its iteration ``it``.
        live = gnorm != 0.0
        if not live.any():
            break
        rows = batch if live.all() else batch.take(np.flatnonzero(live))
        x[live] = x[live] - steps[live, None] * g[live]
        _, g[live], lv[live], lg[live] = rows.evaluate(x[live])
        gnorm[live] = rownorm(g[live])
        performed += live
        np.copyto(norms[:, it], gnorm, where=live)
    zeros = np.zeros(k, dtype=int)
    return SolverReport(x, lg, lv, performed, norms, None, zeros, zeros)


def solve_exact(batch: SubproblemBatch) -> SolverReport:
    """Closed-form minimizer (Q + mu_z k I)^-1 (Q a - phi + mu_z sum anchors)
    of every row of ``batch``, one row at a time, then every row's loss
    value and gradient in one fused stacked call.  Only valid for quadratic
    losses; the oracle for the iterative solvers and the engine's "exact"
    solver mode."""
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
    _, g, lv, lg = batch.evaluate(x)
    zeros = np.zeros(k, dtype=int)
    return SolverReport(x, lg, lv, zeros, rownorm(g)[:, None], None, zeros, zeros)


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
