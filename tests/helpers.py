"""Test oracles and file writers shared by the tests: finite differences,
the incident edges of an agent, dense constraint matrices, random curvature
factories, the midpoint form of the residual V, the edge-form augmented
Lagrangian, the initial augmented-gradient error, the gradient-tracking
identity gap, the corollary scaling sweep, the one-agent quadratic, logistic
and MLP losses, ``AntiGradient``, a quadratic kernel subclass whose searches
all fail, the one-agent smoothness probe, the subproblem ``Row`` the
per-row oracles read and ``batch_of``, which stacks rows into a
``SubproblemBatch``, and the lone L-BFGS loop with its one-row subproblem
terms and two-loop recursion, which the stacked kernels, the lockstep probe
and the lockstep solver must match bit for bit, the ``np.add.at`` sums that
``graphs.ordered_sums`` must match, ``StackCalls``, which counts a
``LossStack``'s stacked calls, rows and resolved row plans, and writers for
the IDX and edge-list formats the package reads."""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from typing import IO, NamedTuple

import numpy as np

from caden import theory
from caden.baselines import GTState
from caden.datasets import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from caden.edge_form import EdgeState
from caden.errors import LipschitzEstimateError, ParameterSelectionError
from caden.graphs import (
    SpectralSummary,
    Topology,
    constraint_residual,
    edge_midpoints,
    sum_plan,
)
from caden.losses import (
    MIN_PROBE_STEP,
    LipschitzEstimate,
    LocalLoss,
    LossStack,
    QuadraticLoss,
    RowPlan,
    rowdot,
)
from caden.solvers import (
    ARMIJO_C1,
    ARMIJO_SHRINK,
    ARMIJO_SLACK,
    CURVATURE_SKIP_TOL,
    DEFAULT_MEMORY,
    MAX_BACKTRACKS,
    SolverReport,
    SubproblemBatch,
)


def central_difference(fn, x: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference gradient oracle, h = 1e-6 (1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def random_psd(dim: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric PSD matrix with spectrum logspace(1, cond)."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    evals = np.logspace(0.0, np.log10(cond), dim)
    return basis @ np.diag(evals) @ basis.T


def neighbors(t: Topology, i: int) -> tuple[int, ...]:
    """Agent i's neighbors, ascending."""
    return tuple(sorted(b if a == i else a for a, b in t.edges if i in (a, b)))


def incident(t: Topology, i: int) -> list[tuple[int, int, int]]:
    """Edges touching agent i as (edge index, neighbor, endpoint side) in
    edge-index order; side 0 means i is the edge's smaller endpoint."""
    return [
        (k, b if a == i else a, int(b == i)) for k, (a, b) in enumerate(t.edges) if i in (a, b)
    ]


def constraint_matrices(t: Topology) -> tuple[np.ndarray, np.ndarray]:
    """The n-by-m edge-endpoint selection matrices (a_src, a_dst): row k has a
    single 1 at the smaller (a_src) or larger (a_dst) endpoint of edge k."""
    a_src = np.zeros((t.n, t.m))
    a_dst = np.zeros((t.n, t.m))
    for k, (i, j) in enumerate(t.edges):
        a_src[k, i] = 1.0
        a_dst[k, j] = 1.0
    return a_src, a_dst


def dense_constraint_residual(t: Topology, x: np.ndarray, z: np.ndarray) -> float:
    """||Ax - Bz||^2 with the lifted matrices fully materialized (oracle)."""
    d = x.shape[1]
    a_src, a_dst = constraint_matrices(t)
    a = np.vstack([np.kron(a_src, np.eye(d)), np.kron(a_dst, np.eye(d))])
    b = np.vstack([np.eye(t.n * d), np.eye(t.n * d)])
    resid = a @ x.ravel() - b @ z.ravel()
    return float(resid @ resid)


def dense_augmented_lagrangian(
    t: Topology, x: np.ndarray, z: np.ndarray, y: np.ndarray, mu_z: float, loss_values: float
) -> float:
    """Augmented objective with materialized matrices; y is (n, 2, d) with the
    same stacking order as [src rows; dst rows]."""
    d = x.shape[1]
    a_src, a_dst = constraint_matrices(t)
    a = np.vstack([np.kron(a_src, np.eye(d)), np.kron(a_dst, np.eye(d))])
    b = np.vstack([np.eye(t.n * d), np.eye(t.n * d)])
    resid = a @ x.ravel() - b @ z.ravel()
    y_stacked = np.concatenate([y[:, 0].ravel(), y[:, 1].ravel()])
    return loss_values + float(y_stacked @ resid) + 0.5 * mu_z * float(resid @ resid)


def lyapunov_v_midpoint_form(x: np.ndarray, phi: np.ndarray, losses, topology: Topology) -> float:
    """The residual V through explicit per-edge midpoints (oracle for
    ``metrics.lyapunov_v``):
    sum_i ||grad f_i + phi_i||^2 + sum_i sum_{j in N_i} ||x_i - z_ij||^2."""
    total = 0.0
    for x_i, phi_i, loss in zip(x, phi, losses):
        g = loss.gradient(x_i) + phi_i
        total += float(g @ g)
    z = edge_midpoints(topology, x)
    for i in range(topology.m):
        for k, _, _ in incident(topology, i):
            diff = x[i] - z[k]
            total += float(diff @ diff)
    return total


def augmented_lagrangian_value(
    state: EdgeState, losses, topology: Topology, mu_z: float
) -> float:
    """F(x) + y . (Ax - Bz) + (mu_z / 2) ||Ax - Bz||^2, evaluated edge-wise."""
    total = sum(loss.value(x) for loss, x in zip(losses, state.x))
    src, dst = topology.src, topology.dst
    total += float((state.y[:, 0] * (state.x[src] - state.z)).sum())
    total += float((state.y[:, 1] * (state.x[dst] - state.z)).sum())
    total += 0.5 * mu_z * constraint_residual(topology, state.x, state.z)
    return total


def augmented_gradient_error(
    x: np.ndarray, phi: np.ndarray, losses, topology: Topology, mu_z: float
) -> float:
    """Squared norm of the stacked local augmented gradients.

    Each block is the gradient, at the agent's own model, of its subproblem
    with dual ``phi[i]`` and one midpoint anchor 0.5 (x_i + x_j) per neighbor
    j.  At the initial models with ``phi = 0`` this is the initial error e0
    of the bound.
    """
    total = 0.0
    for i, loss in enumerate(losses):
        anchors = 0.5 * (x[i] + x[list(neighbors(topology, i))])
        block = reference_gradient(Row(loss, phi[i], anchors, mu_z), x[i])
        total += float(block @ block)
    return total


def tracking_gap(state: GTState, losses) -> float:
    """Max-abs violation of the tracking identity sum g_i = sum grad f_i."""
    fresh = np.array([loss.gradient(state.x[i]) for i, loss in enumerate(losses)])
    return float(np.abs(state.g.sum(axis=0) - fresh.sum(axis=0)).max())


@dataclass(frozen=True)
class ScalingEntry:
    claimed: float
    ratio: float


@dataclass(frozen=True)
class ScalingReport:
    entries: tuple[ScalingEntry, ...]
    ratio_max: float
    spread: float


def corollary_scaling_check(
    points: list[tuple[SpectralSummary, float, float]], rate: float
) -> ScalingReport:
    """c1 against the claimed growth rate d_max^4 L lambda_max /
    (lambda_min^2 p_min) across a sweep of (spectrum, L, p_min) points.

    Each point gets the prescribed parameters for the given rate; the report
    carries the per-point ratio c1 / claimed and the ratio spread.
    """
    entries = []
    for spectral, lip, p_min in points:
        params = theory.select_parameters(lip, spectral, p_min, rate)
        report = theory.compute_constants(lip, spectral, p_min, rate, params)
        if report.constants is None:
            raise ParameterSelectionError(
                f"prescribed parameters violate hypotheses at {spectral}, L={lip}, p={p_min}"
            )
        claimed = (
            spectral.d_max**4 * lip * spectral.lambda_max / (spectral.lambda_min**2 * p_min)
        )
        entries.append(ScalingEntry(claimed=claimed, ratio=report.constants.c1 / claimed))
    ratios = [e.ratio for e in entries]
    return ScalingReport(
        entries=tuple(entries), ratio_max=max(ratios), spread=max(ratios) / min(ratios)
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(labels.shape[0]), labels]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


class ReferenceQuadraticLoss(LocalLoss):
    """0.5 (x - a)^T Q (x - a) with positive semidefinite Q.

    Q may be passed as a 1-D diagonal or a full symmetric matrix.
    """

    def __init__(self, q: np.ndarray, a: np.ndarray):
        q = np.asarray(q, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.dim = self.a.shape[0]
        self.diagonal = q.ndim == 1
        if self.diagonal:
            if q.shape != (self.dim,):
                raise ValueError("diagonal Q must match target dimension")
        elif q.shape != (self.dim, self.dim):
            raise ValueError("Q must be (d,) or (d, d)")
        self.q = q

    def value(self, x: np.ndarray) -> float:
        x = self._check(x)
        r = x - self.a
        if self.diagonal:
            return 0.5 * float(r @ (self.q * r))
        return 0.5 * float(r @ (self.q @ r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        r = x - self.a
        return self.q * r if self.diagonal else self.q @ r

    def smoothness(self) -> float:
        if self.diagonal:
            return float(self.q.max())
        return float(np.linalg.eigvalsh(self.q)[-1])


class ReferenceLogisticLoss(LocalLoss):
    """Multinomial logistic regression: mean cross-entropy plus optional L2.

    Parameters are the flattened (features, classes) weight matrix; there is
    no separate bias (append a constant feature column if one is wanted).
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, classes: int, l2: float = 0.0):
        self.x_data = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.classes = classes
        self.l2 = l2
        self.n_features = self.x_data.shape[1]
        self.dim = self.n_features * classes

    def _weights(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.n_features, self.classes)

    def value(self, x: np.ndarray) -> float:
        x = self._check(x)
        probs = _softmax(self.x_data @ self._weights(x))
        return _cross_entropy(probs, self.labels) + 0.5 * self.l2 * float(x @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        n = self.x_data.shape[0]
        probs = _softmax(self.x_data @ self._weights(x))
        probs[np.arange(n), self.labels] -= 1.0
        grad = (self.x_data.T @ probs) / n
        return grad.ravel() + self.l2 * x

    def predict(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        logits = np.asarray(features, dtype=float) @ self._weights(self._check(x))
        return logits.argmax(axis=1)


class ReferenceMlpLoss(LocalLoss):
    """Two fully connected layers with ReLU, softmax cross-entropy, optional L2.

    Flat parameter layout: [W1 (features x hidden), b1, W2 (hidden x classes),
    b2].  [W1; b1] is read as one (features + 1, hidden) block that
    multiplies the features with a column of ones appended, so layer 1's
    bias and its gradient come from one matmul each.  Gradients are
    reverse-mode through the two layers on the agent's full data shard.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        hidden: int,
        classes: int,
        l2: float = 0.0,
    ):
        self.x_data = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.hidden = hidden
        self.classes = classes
        self.l2 = l2
        self.n_features = self.x_data.shape[1]
        p, h, k = self.n_features, hidden, classes
        self.dim = p * h + h + h * k + k

    def _unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p, h, k = self.n_features, self.hidden, self.classes
        o2 = (p + 1) * h
        o3 = o2 + h * k
        return x[:o2].reshape(p + 1, h), x[o2:o3].reshape(h, k), x[o3:]

    def _forward(self, x: np.ndarray, data: np.ndarray):
        w1b, w2, b2 = self._unpack(x)
        augmented = np.hstack([data, np.ones((len(data), 1))])
        act = np.maximum(augmented @ w1b, 0.0)
        return augmented, act, act @ w2 + b2

    def value(self, x: np.ndarray) -> float:
        x = self._check(x)
        _, _, logits = self._forward(x, self.x_data)
        return _cross_entropy(_softmax(logits), self.labels) + 0.5 * self.l2 * float(x @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        _, w2, _ = self._unpack(x)
        n = self.x_data.shape[0]
        augmented, act, logits = self._forward(x, self.x_data)
        delta = _softmax(logits)
        delta[np.arange(n), self.labels] -= 1.0
        delta /= n
        g_w2 = act.T @ delta
        g_b2 = delta.sum(axis=0)
        back = delta @ w2.T
        back[act <= 0.0] = 0.0
        g_w1b = augmented.T @ back
        grad = np.concatenate([g_w1b.ravel(), g_w2.ravel(), g_b2])
        if self.l2:
            grad += self.l2 * x
        return grad

    def predict(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        _, _, logits = self._forward(self._check(x), np.asarray(features, dtype=float))
        return logits.argmax(axis=1)


class AntiGradient(QuadraticLoss):
    """0.5 ||x||^2 reporting the negated gradient: every search direction
    ascends, so each Armijo search fails after MAX_BACKTRACKS trials, and
    gradient steps ascend."""

    _values_and_gradients = LocalLoss._values_and_gradients

    def __init__(self, dim: int):
        super().__init__(np.ones(dim), np.zeros(dim))

    def _values(self, x, data):
        return 0.5 * rowdot(x, x)

    def _gradients(self, x, data):
        return -x


def reference_estimate_lipschitz(
    loss: LocalLoss,
    x0: np.ndarray,
    warm_epochs: int = 20,
    warm_lr: float = 0.1,
    probe_epochs: int = 10,
    probe_lr: float = 1e-7,
) -> LipschitzEstimate:
    """The one-agent smoothness probe that ``losses.estimate_lipschitz``
    runs for every agent in lockstep: its (d,) ``x_init`` and ``l_hat`` are
    one row and one agent's share of the stacked estimate, bit for bit."""
    if warm_lr <= 0 or probe_lr <= 0:
        raise ValueError("learning rates must be positive")
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(warm_epochs):
        x = x - warm_lr * loss.gradient(x)
    l_hat = 0.0
    used = 0
    grad = loss.gradient(x)
    for _ in range(probe_epochs):
        x_next = x - probe_lr * grad
        grad_next = loss.gradient(x_next)
        step = float(np.linalg.norm(x_next - x))
        if step >= MIN_PROBE_STEP:
            l_hat = max(l_hat, float(np.linalg.norm(grad_next - grad)) / step)
            used += 1
        x, grad = x_next, grad_next
    if used == 0:
        raise LipschitzEstimateError(
            "all probe steps were below the minimum length; decrease warm_epochs or raise probe_lr"
        )
    return LipschitzEstimate(l_hat=l_hat, x_init=x)


def reference_ordered_sums(owner: np.ndarray, terms: np.ndarray, rows: int) -> np.ndarray:
    """(rows, ...) sums of ``terms`` by ``owner`` through ``np.add.at``,
    which adds one term at a time in list order: the oracle for
    ``graphs.ordered_sums``."""
    out = np.zeros((rows, *terms.shape[1:]))
    np.add.at(out, owner, terms)
    return out


class StackCalls:
    """Counts what one ``LossStack`` serves from now on: per method
    (``gradients``, ``values_and_gradients``) its stacked
    ``calls``, how many of them passed a ``RowPlan`` instead of agent rows
    (``planned``), the ``rows`` they evaluate, the rows of each agent
    (``per_agent``) and the calls of each row count (``sizes``), and the
    row ``plans`` it resolves, the all-agents plan of its constructor not
    included.  Installs counting wrappers on that stack instance only."""

    METHODS = ("gradients", "values_and_gradients")

    def __init__(self, stack: LossStack):
        self.calls = dict.fromkeys(self.METHODS, 0)
        self.planned = dict.fromkeys(self.METHODS, 0)
        self.rows = dict.fromkeys(self.METHODS, 0)
        self.per_agent = {name: Counter() for name in self.METHODS}
        self.sizes = {name: Counter() for name in self.METHODS}
        self.plans = 0
        for name in self.METHODS:
            setattr(stack, name, self._counting(name, getattr(stack, name)))
        resolve = stack._resolve

        def counted_resolve(rows):
            self.plans += 1
            return resolve(rows)

        stack._resolve = counted_resolve

    def _counting(self, name, method):
        def counted(x, rows):
            # A RowPlan stands for the agents it holds.
            agents = np.asarray(getattr(rows, "rows", rows)).tolist()
            self.calls[name] += 1
            self.planned[name] += isinstance(rows, RowPlan)
            self.rows[name] += len(agents)
            self.per_agent[name].update(agents)
            self.sizes[name][len(agents)] += 1
            return method(x, rows)

        return counted


class Row(NamedTuple):
    """One agent's subproblem terms, as the per-row oracles read them: its
    loss, dual, (degree, d) anchors and penalty coefficient."""

    loss: LocalLoss
    phi: np.ndarray
    anchors: np.ndarray
    mu_z: float
    degree = property(lambda self: len(self.anchors))


def batch_of(rows, losses=None, agents=None) -> SubproblemBatch:
    """The batch whose row j is ``rows[j]``, with agent ``agents[j]``'s loss
    of the stack ``losses`` when given, else a stack of the rows' own.  With
    a stack given, ``rows`` may be empty."""
    if losses is None:
        losses, agents = LossStack([r.loss for r in rows]), range(len(rows))
    owner = np.repeat(np.arange(len(rows)), [r.degree for r in rows])
    anchors = np.concatenate([np.empty((0, losses.dim)), *(r.anchors for r in rows)])
    phi = np.reshape([r.phi for r in rows], (len(rows), losses.dim))
    sums = sum_plan(owner, len(rows))
    return SubproblemBatch(losses, agents, phi, [r.mu_z for r in rows], anchors, sums)


def _anchor_terms(problem: Row) -> tuple[np.ndarray, np.ndarray, float]:
    """The running total of a subproblem's anchors, their mean (0 without
    anchors) and their spread sum_k ||a_k - mean||^2, one anchor at a time."""
    total = np.zeros(problem.loss.dim)
    for anchor in problem.anchors:
        total = total + anchor
    mean = total / max(problem.degree, 1)
    spread = 0.0
    for anchor in problem.anchors:
        off = anchor - mean
        spread += float(off @ off)
    return total, mean, spread


def reference_value(problem: Row, x: np.ndarray) -> float:
    """One subproblem's objective at ``x``, written out for one row, its
    penalty in the centered form degree ||x - mean||^2 + spread."""
    _, mean, spread = _anchor_terms(problem)
    off = x - mean
    pen = problem.degree * float(off @ off) + spread
    return float(problem.loss.value(x) + float(problem.phi @ x) + 0.5 * problem.mu_z * pen)


def reference_gradient(problem: Row, x: np.ndarray) -> np.ndarray:
    """One subproblem's objective gradient at ``x``, written out for one row."""
    g = problem.loss.gradient(x) + problem.phi
    if problem.degree:
        total, _, _ = _anchor_terms(problem)
        g = g + problem.mu_z * (problem.degree * x - total)
    return g


def reference_two_loop(
    s: np.ndarray, y: np.ndarray, rho: np.ndarray, gamma: float, grad: np.ndarray
) -> np.ndarray:
    """One agent's two-loop recursion H @ grad over its (k, d) history,
    oldest pair first."""
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


def reference_solve_lbfgs(
    problem: Row,
    x_start: np.ndarray,
    tau: int,
    memory: int = DEFAULT_MEMORY,
    lipschitz: float | None = None,
) -> SolverReport:
    """One agent's L-BFGS solve as a lone loop, as a one-row report: the
    oracle that each row of ``solvers.solve_lbfgs`` must match field
    for field.  It counts no backtracks.

    tau iterations of L-BFGS on the local subproblem, warm-started.

    Two-loop recursion with Liu-Nocedal initial scaling and Armijo
    backtracking (c1=1e-4, halving, 30 backtracks max).  Until the first
    curvature pair the scaling is 1 / (lipschitz + mu_z degree) when the
    loss smoothness ``lipschitz`` is given, else 1.  A failed line search
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
    g = reference_gradient(problem, x)
    f = reference_value(problem, x)
    gnorm = float(np.linalg.norm(g))
    norms = [gnorm]
    vals = [f]
    s_buf = np.empty((memory, d))
    y_buf = np.empty((memory, d))
    rho_buf = np.empty(memory)
    count = 0
    gamma = 1.0 if lipschitz is None else 1.0 / (lipschitz + problem.mu_z * problem.degree)
    failures = 0
    performed = 0

    for _ in range(tau):
        if gnorm == 0.0:
            break
        direction = -reference_two_loop(s_buf[:count], y_buf[:count], rho_buf[:count], gamma, g)
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
            f_trial = reference_value(problem, x_trial)
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
        g_new = reference_gradient(problem, x_trial)
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

    # Unreached columns are NaN, as in the lockstep report.
    unreached = [float("nan")] * (tau - performed)
    return SolverReport(
        x_out=x[None],
        loss_grad_out=problem.loss.gradient(x)[None],
        loss_value_out=np.array([problem.loss.value(x)]),
        iterations=np.array([performed]),
        grad_norms=np.array([norms + unreached]),
        values=np.array([vals + unreached]),
        line_search_failures=np.array([failures]),
        backtracks=np.zeros(1, dtype=int),
    )


def write_idx_images(path: str, images: np.ndarray, rows: int, cols: int) -> None:
    """Write float images in [0, 1] as an IDX u8 file."""
    count = images.shape[0]
    u8 = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fp:
        fp.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols))
        fp.write(u8.tobytes())


def write_idx_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "wb") as fp:
        fp.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        fp.write(labels.astype(np.uint8).tobytes())


def write_edge_list(t: Topology, fp: IO[str]) -> None:
    """Serialize as plain text: first line "m n", then 1-indexed "i j" lines."""
    fp.write(f"{t.m} {t.n}\n")
    for i, j in t.edges:
        fp.write(f"{i + 1} {j + 1}\n")
