"""Per-agent differentiable losses, their stacked evaluation, and empirical
smoothness estimation.

Three families are provided: quadratics (with exact curvature, used as
oracles), multinomial logistic regression, and a two-layer ReLU perceptron
with softmax cross-entropy.  All are bounded below by 0 and expose value()
and gradient() on a flat parameter vector of dimension ``dim``.

The math of each family is written once, as kernels over parameters and
data with any leading axes; one agent's ``value``/``gradient``/``predict``
is the one-row case.  A fused ``_values_and_gradients`` kernel gives both
with the bits of the two; the MLP's shares one forward pass between them.
The MLP reads its layer-1 weights and bias as one block, on features with a
constant last column (``MlpShard``), so layer 1 and its gradient are one
matmul each.  ``LossStack`` holds a run's m losses and is the one way to
evaluate many agents: one kernel call per group of one class and equal
data shapes, bit-identical to the one-agent methods.  It is built
once per run; the engine, the solvers, the metrics and the smoothness probe
take it as given, and the probe steps every agent through it in lockstep.
Which kernel reads which shard rows is resolved into a ``RowPlan``: once
with the stack for all agents, once per ``SubproblemBatch`` for its rows,
and per call only for other subsets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import check_value
from .errors import LipschitzEstimateError

_INIT_STREAM = 301

# Steps shorter than this yield no usable difference quotient.
MIN_PROBE_STEP = 1e-15


class LocalLoss:
    """Evaluation contract for one agent's objective.

    A loss is evaluated by its kernels on its ``shard``: ``_values`` and
    ``_gradients``, both at once by ``_values_and_gradients`` (and
    ``_predictions`` for a classifier) take parameters with any leading axes
    and data with the same ones.  ``value``, ``gradient`` and ``predict``
    are the kernels' one-row case.  A subclass overrides the kernels, not
    those three methods: a ``LossStack`` calls only the kernels.  One that
    overrides ``_values`` or ``_gradients`` of a family with its own fused
    kernel overrides that one too.  ``stack_key`` names the group whose
    stacked shards one kernel call evaluates; each family's key starts with
    ``type(self)``, so a subclass forms its own group.  A loss without a key
    cannot join a stack.
    """

    dim: int

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def smoothness(self) -> float | None:
        """Exact gradient-Lipschitz constant when known in closed form."""
        return None

    def stack_key(self):
        """Losses with equal keys evaluate together in a ``LossStack``;
        None (no kernels) keeps a loss out of every stack."""
        return None

    def _values_and_gradients(self, x: np.ndarray, shard):
        """``_values`` and ``_gradients`` at the same points, bit for bit; a
        family whose two kernels share work overrides this to share it."""
        return self._values(x, shard), self._gradients(x, shard)

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected parameter vector of shape ({self.dim},), got {x.shape}")
        return x


class QuadraticLoss(LocalLoss):
    """0.5 (x - a)^T Q (x - a) with positive semidefinite Q.

    Q may be passed as a 1-D diagonal or a full symmetric matrix.
    ``_values``/``_gradients`` take parameters (..., d) and ``QuadraticData``
    with the same leading axes; ``value``/``gradient`` are their one-agent case.
    """

    def __init__(self, q: np.ndarray, a: np.ndarray):
        self.shard = QuadraticData(np.asarray(q, dtype=float), np.asarray(a, dtype=float))
        self.dim = self.a.shape[0]
        self.diagonal = self.q.ndim == 1
        if self.q.shape not in ((self.dim,), (self.dim, self.dim)):
            raise ValueError("Q must be (d,) or (d, d) for a target of dimension d")

    q = property(lambda self: self.shard.q)
    a = property(lambda self: self.shard.a)

    def stack_key(self):
        return (type(self), self.q.shape)

    def _values(self, x: np.ndarray, data: QuadraticData) -> np.ndarray:
        return 0.5 * rowdot(x - data.a, self._gradients(x, data))

    def _gradients(self, x: np.ndarray, data: QuadraticData) -> np.ndarray:
        r = x - data.a
        return data.q * r if self.diagonal else np.matmul(data.q, r[..., None])[..., 0]

    def value(self, x: np.ndarray) -> float:
        return float(self._values(self._check(x), self.shard))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradients(self._check(x), self.shard)

    def smoothness(self) -> float:
        if self.diagonal:
            return float(self.q.max())
        return float(np.linalg.eigvalsh(self.q)[-1])


@dataclass(frozen=True, eq=False)
class QuadraticData:
    """Curvatures q (..., d) or (..., d, d) and targets a (..., d)."""

    q: np.ndarray
    a: np.ndarray

    def __len__(self) -> int:
        return len(self.a)

    @classmethod
    def stack(cls, parts: Sequence[QuadraticData]) -> QuadraticData:
        return cls(np.stack([p.q for p in parts]), np.stack([p.a for p in parts]))

    def take(self, slots) -> QuadraticData:
        return QuadraticData(self.q[slots], self.a[slots])


def _softmax(logits: np.ndarray) -> np.ndarray:
    # The row maximum one class at a time: a maximum is exact, so this has
    # the bits of max(axis=-1), which reduces a short class axis slowly.
    top = logits[..., :1]
    for c in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., c : c + 1])
    shifted = logits - top
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy(probs: np.ndarray, shard: Shard) -> np.ndarray:
    picked = probs[shard.picks]
    return -np.log(np.maximum(picked, 1e-300)).mean(axis=-1)


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis: a scalar for two d-vectors, (k,) for
    the rows of two (k, d) arrays.  Each row keeps the bits of a lone
    ``a[n] @ b[n]`` (both reach BLAS ``ddot``); ``tests/test_solvers.py``
    pins this, and with it the bit-identity of stacked and lone solves."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def rownorm(v: np.ndarray) -> np.ndarray:
    """Row norms sqrt(v[n] . v[n]), rounded as ``np.linalg.norm`` rounds them."""
    return np.sqrt(rowdot(v, v))


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return a.swapaxes(-1, -2)


class Shard:
    """Labelled samples with any leading axes: features (..., n, p) and
    class labels (..., n).  ``picks`` indexes each sample's label entry in
    a (..., n, classes) array."""

    __slots__ = ("features", "labels", "picks")

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.picks = (*np.indices(self.labels.shape, sparse=True), self.labels)

    def __len__(self) -> int:
        return len(self.features)

    @classmethod
    def stack(cls, shards: Sequence[Shard]) -> Shard:
        return cls(np.stack([s.features for s in shards]), np.stack([s.labels for s in shards]))

    def take(self, slots) -> Shard:
        return Shard(self.features[slots], self.labels[slots])


class LogisticLoss(LocalLoss):
    """Multinomial logistic regression: mean cross-entropy plus optional L2.

    Parameters are the flattened (features, classes) weight matrix; there is
    no separate bias (append a constant feature column if one is wanted).
    ``_values``/``_gradients`` take parameters (..., d) and a shard with the
    same leading axes, ``_predictions`` shared (n, p) features instead;
    ``value``/``gradient``/``predict`` are their one-agent case.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, classes: int, l2: float = 0.0):
        self.shard = Shard(features, labels)
        self.classes = classes
        self.l2 = l2
        self.n_features = self.shard.features.shape[1]
        self.dim = self.n_features * classes

    def stack_key(self):
        return (type(self), self.shard.features.shape, self.classes, self.l2)

    def _weights(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(*x.shape[:-1], self.n_features, self.classes)

    def _values(self, x: np.ndarray, shard: Shard) -> np.ndarray:
        probs = _softmax(shard.features @ self._weights(x))
        return _cross_entropy(probs, shard) + 0.5 * self.l2 * rowdot(x, x)

    def _gradients(self, x: np.ndarray, shard: Shard) -> np.ndarray:
        n = shard.features.shape[-2]
        probs = _softmax(shard.features @ self._weights(x))
        probs[shard.picks] -= 1.0
        grad = (_t(shard.features) @ probs) / n
        return grad.reshape(x.shape) + self.l2 * x

    def value(self, x: np.ndarray) -> float:
        return float(self._values(self._check(x), self.shard))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradients(self._check(x), self.shard)

    def _predictions(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        return (features @ self._weights(x)).argmax(axis=-1)

    def predict(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        return self._predictions(self._check(x), np.asarray(features, dtype=float))


def _with_ones(features: np.ndarray) -> np.ndarray:
    """(..., n, p + 1) features with a constant last column of ones."""
    ones = np.ones((*features.shape[:-1], 1))
    return np.concatenate([features, ones], axis=-1)


class MlpShard(Shard):
    """A shard as the MLP kernels read it: ``augmented`` (..., n, p + 1)
    features with a constant last column of ones, so that layer 1's bias is
    one more weight row; ``features``, its view without that column; and
    ``onehot`` (..., n, classes) labels."""

    __slots__ = ("augmented", "onehot")

    def __init__(self, augmented: np.ndarray, labels: np.ndarray, onehot: np.ndarray):
        super().__init__(augmented[..., :-1], labels)
        self.augmented = augmented
        self.onehot = onehot

    @classmethod
    def of(cls, features: np.ndarray, labels: np.ndarray, classes: int) -> MlpShard:
        labels = np.asarray(labels, dtype=np.int64)
        onehot = (labels[..., None] == np.arange(classes)).astype(float)
        return cls(_with_ones(np.asarray(features, dtype=float)), labels, onehot)

    @classmethod
    def stack(cls, shards: Sequence[MlpShard]) -> MlpShard:
        return cls(*(np.stack([getattr(s, name) for s in shards])
                     for name in ("augmented", "labels", "onehot")))

    def take(self, slots) -> MlpShard:
        return MlpShard(self.augmented[slots], self.labels[slots], self.onehot[slots])


class MlpLoss(LocalLoss):
    """Two fully connected layers with ReLU, softmax cross-entropy, optional L2.

    Flat parameter layout: [W1 (features x hidden), b1, W2 (hidden x classes),
    b2].  [W1; b1] is one (features + 1, hidden) block, which the shard's
    augmented features (``MlpShard``) multiply in one matmul, bias included;
    its gradient is one matmul too.  Gradients are reverse-mode through the
    two layers on the agent's full data shard.  ``_values``/``_gradients``
    and the fused ``_values_and_gradients``, which shares one forward pass,
    take parameters (..., d) and a shard with the same leading axes,
    ``_predictions`` shared (n, p) features instead;
    ``value``/``gradient``/``predict`` are their one-agent case.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        hidden: int,
        classes: int,
        l2: float = 0.0,
    ):
        self.shard = MlpShard.of(features, labels, classes)
        self.hidden = hidden
        self.classes = classes
        self.l2 = l2
        self.n_features = self.shard.features.shape[1]
        p, h, k = self.n_features, hidden, classes
        self.dim = p * h + h + h * k + k

    def stack_key(self):
        return (type(self), self.shard.features.shape, self.hidden, self.classes, self.l2)

    def _blocks(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views ([W1; b1], W2, b2) of ``x`` (or of a gradient laid out like
        it) with its leading axes; b2 keeps a length-1 sample axis."""
        lead = x.shape[:-1]
        p, h, k = self.n_features, self.hidden, self.classes
        o2 = (p + 1) * h
        o3 = o2 + h * k
        return (
            x[..., :o2].reshape(*lead, p + 1, h),
            x[..., o2:o3].reshape(*lead, h, k),
            x[..., o3:].reshape(*lead, 1, k),
        )

    def _forward(self, layers, augmented: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and logits of ``augmented`` features through
        the ``_blocks`` ``layers``."""
        w1, w2, b2 = layers
        act = augmented @ w1
        np.maximum(act, 0.0, out=act)
        logits = act @ w2
        logits += b2
        return act, logits

    def _layers(self, x: np.ndarray, shard: MlpShard):
        """The ``_blocks`` of ``x``, and the hidden activations and softmax
        probabilities on the shard."""
        layers = self._blocks(x)
        act, logits = self._forward(layers, shard.augmented)
        return layers, act, _softmax(logits)

    def _objective(self, x: np.ndarray, probs: np.ndarray, shard: MlpShard) -> np.ndarray:
        return _cross_entropy(probs, shard) + 0.5 * self.l2 * rowdot(x, x)

    def _backward(self, x, layers, act: np.ndarray, probs: np.ndarray, shard: MlpShard):
        """Loss gradients from a forward pass; overwrites ``probs``."""
        n = shard.augmented.shape[-2]
        delta = probs
        delta -= shard.onehot
        delta /= n
        grad = np.empty(x.shape)
        g_w1, g_w2, g_b2 = self._blocks(grad)
        np.matmul(_t(act), delta, out=g_w2)
        delta.sum(axis=-2, keepdims=True, out=g_b2)
        back = np.where(act <= 0.0, 0.0, delta @ _t(layers[1]))
        np.matmul(_t(shard.augmented), back, out=g_w1)
        if self.l2:
            grad += self.l2 * x
        return grad

    def _values(self, x: np.ndarray, shard: MlpShard) -> np.ndarray:
        return self._objective(x, self._layers(x, shard)[2], shard)

    def _gradients(self, x: np.ndarray, shard: MlpShard) -> np.ndarray:
        return self._backward(x, *self._layers(x, shard), shard)

    def _values_and_gradients(self, x: np.ndarray, shard: MlpShard):
        # One forward pass for both; the value reads the probabilities
        # before the backward pass overwrites them.
        layers, act, probs = self._layers(x, shard)
        values = self._objective(x, probs, shard)
        return values, self._backward(x, layers, act, probs, shard)

    def value(self, x: np.ndarray) -> float:
        return float(self._values(self._check(x), self.shard))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradients(self._check(x), self.shard)

    def init_params(self, seed: int) -> np.ndarray:
        """He-scaled random weights, zero biases."""
        rng = np.random.default_rng([_INIT_STREAM, seed])
        p, h, k = self.n_features, self.hidden, self.classes
        w1 = rng.standard_normal((p, h)) * np.sqrt(2.0 / p)
        w2 = rng.standard_normal((h, k)) * np.sqrt(2.0 / h)
        return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(k)])

    def _predictions(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        return self._forward(self._blocks(x), _with_ones(features))[1].argmax(axis=-1)

    def predict(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        return self._predictions(self._check(x), np.asarray(features, dtype=float))


class RowPlan(NamedTuple):
    """Where a ``LossStack`` evaluates the agents ``rows``.  ``LossStack.plan``
    resolves one; evaluating through it skips the resolution."""

    rows: np.ndarray
    # (loss, shard rows, output positions) per group the rows touch; the
    # positions are a full slice when the group fills them all.
    parts: list


class LossStack(Sequence):
    """The m agents' losses, evaluated many rows at a time.

    Indexing, ``len`` and iteration give the per-agent losses, so a stack
    stands wherever a list of losses does.  ``values(x, rows)``,
    ``gradients(x, rows)`` and ``values_and_gradients(x, rows)`` (both from
    one kernel call) evaluate agent ``rows[n]``'s loss at ``x[n]``;
    ``predictions(x, features)`` gives every agent's labels of shared
    features.  Every member has the same ``dim`` and a ``stack_key``; the
    constructor refuses a loss of another dim, or one without a key, with
    the agent's index.  Losses with equal keys form one group whose stacked
    data (the (g, d) or (g, d, d) curvatures of quadratics, the (g, n, p)
    shards of logistic and MLP losses) goes through the kernel of the
    group's class in one call; an uneven last shard, or a subclass, gets
    its own group.  Each row's result equals the agent's own
    ``value``/``gradient``/``predict`` bit for bit; each loss's own
    ``shard`` becomes a view of its group's arrays.

    Each call first resolves its rows into a ``RowPlan``.  ``rows`` may be
    a plan from ``plan`` instead, so a caller that evaluates the same rows
    again and again (a ``SubproblemBatch``) resolves them once.  The plan of
    all m agents in order is resolved with the stack and reused by every
    call for them; no other plan is kept.
    """

    def __init__(self, losses: Sequence[LocalLoss]):
        self._losses = list(losses)
        if not self._losses:
            raise ValueError("a loss stack needs at least one loss")
        self.dim = self._losses[0].dim
        members: dict = {}
        for i, loss in enumerate(self._losses):
            if loss.dim != self.dim:
                raise ValueError(f"loss {i} has dim {loss.dim}, but loss 0 has dim {self.dim}")
            key = loss.stack_key()
            if key is None:
                raise TypeError(f"loss {i} ({type(loss).__name__}) has no stack_key")
            members.setdefault(key, []).append(i)
        # Per agent: its group and row in it.
        self._group = np.zeros(len(self._losses), dtype=np.intp)
        self._slot = np.zeros(len(self._losses), dtype=np.intp)
        self._groups: list[tuple[LocalLoss, Shard]] = []
        for agents in members.values():
            self._group[agents] = len(self._groups)
            self._slot[agents] = np.arange(len(agents))
            shards = [self._losses[i].shard for i in agents]
            # A lone member's group is a view of its own data, not a copy.
            shard = shards[0].take(None) if len(shards) == 1 else type(shards[0]).stack(shards)
            self._groups.append((self._losses[agents[0]], shard))
            # Each member reads its rows of the stacked arrays, so the
            # data is held once.
            for slot, i in enumerate(agents):
                self._losses[i].shard = shard.take(slot)
        self._everyone = self._resolve(np.arange(len(self._losses)))

    def __len__(self) -> int:
        return len(self._losses)

    def __getitem__(self, agent):
        return self._losses[agent]

    def __iter__(self):
        return iter(self._losses)

    def plan(self, rows) -> RowPlan:
        """The ``RowPlan`` of agents ``rows``; a plan is returned as is."""
        if isinstance(rows, RowPlan):
            return rows
        rows = np.asarray(rows, dtype=np.intp)
        everyone = self._everyone.rows
        # Resolving every agent anew instead measured 1.018-1.032x the setup
        # time (build_losses + initialize) of mlp_ring and gt_logistic
        # (2-vCPU host).
        if rows.shape == everyone.shape and (rows == everyone).all():
            return self._everyone
        return self._resolve(rows)

    def _resolve(self, rows: np.ndarray) -> RowPlan:
        """Each row's group, shard row and output position."""
        groups = self._group[rows]
        parts = []
        for g, (loss, shard) in enumerate(self._groups):
            pos = np.flatnonzero(groups == g)
            if pos.size == 0:
                continue
            slots = self._slot[rows[pos]]
            if len(slots) != len(shard) or (slots != np.arange(len(slots))).any():
                shard = shard.take(slots)
            parts.append((loss, shard, slice(None) if pos.size == len(rows) else pos))
        return RowPlan(rows, parts)

    def values(self, x: np.ndarray, rows) -> np.ndarray:
        """(k,) loss values of agents ``rows`` at the (k, d) points ``x``."""
        plan = self.plan(rows)
        return self._evaluate(x, plan, np.empty(len(plan.rows)), "_values")

    def gradients(self, x: np.ndarray, rows) -> np.ndarray:
        """(k, d) loss gradients of agents ``rows`` at the (k, d) points ``x``."""
        plan = self.plan(rows)
        out = np.empty((len(plan.rows), self.dim))
        return self._evaluate(x, plan, out, "_gradients")

    def values_and_gradients(self, x: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        """``values(x, rows)`` and ``gradients(x, rows)`` bit for bit, from
        one fused kernel call per group."""
        plan = self.plan(rows)
        values, gradients = np.empty(len(plan.rows)), np.empty((len(plan.rows), self.dim))
        for loss, shard, pos in plan.parts:
            values[pos], gradients[pos] = loss._values_and_gradients(x[pos], shard)
        return values, gradients

    def predictions(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        """(m, n) labels that agent i's classifier at ``x[i]`` gives the
        shared (n, p) ``features``."""
        features = np.asarray(features, dtype=float)
        out = np.empty((len(self), len(features)), dtype=np.intp)
        return self._evaluate(x, self._everyone, out, "_predictions", features)

    @staticmethod
    def _evaluate(x, plan: RowPlan, out, kernel, *shared):
        """Row n of ``out``: agent ``plan.rows[n]``'s group's ``kernel`` at
        ``x[n]`` on the group's shard rows, or on the ``shared`` data when
        given."""
        for loss, shard, pos in plan.parts:
            out[pos] = getattr(loss, kernel)(x[pos], *(shared or (shard,)))
        return out


@dataclass(frozen=True)
class LipschitzEstimate:
    """Result of the smoothness probe.

    ``l_hat`` is the max over agents; row i of the (m, d) ``x_init`` is agent
    i's final probe iterate, which doubles as the algorithm's initialization
    so estimation and warm-up share the same local training.
    """

    l_hat: float
    x_init: np.ndarray


def estimate_lipschitz(
    losses: LossStack,
    x0: np.ndarray,
    warm_epochs: int = 20,
    warm_lr: float = 0.1,
    probe_epochs: int = 10,
    probe_lr: float = 1e-7,
) -> LipschitzEstimate:
    """Empirical gradient-Lipschitz constant from local full-gradient descent.

    Every agent of the ``LossStack`` ``losses`` runs ``warm_epochs`` descent
    steps at ``warm_lr`` from its row of ``x0`` ((d,) or (m, d)),
    then ``probe_epochs`` steps at the tiny ``probe_lr``; its estimate is the
    maximum difference quotient

        ||grad(x_next) - grad(x)|| / ||x_next - x||

    over its consecutive probe iterates.  One stacked gradient call per epoch
    steps every agent, each with a lone probe's arithmetic.  Pairs with step
    shorter than ``MIN_PROBE_STEP`` are skipped; an agent whose every pair
    is skipped fails the estimate; the knobs are checked as ``lipschitz.*`` keys.
    """
    check_value("lipschitz.warm_epochs", warm_epochs)
    check_value("lipschitz.warm_lr", warm_lr)
    check_value("lipschitz.probe_epochs", probe_epochs)
    check_value("lipschitz.probe_lr", probe_lr)
    rows = np.arange(len(losses))
    x = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (len(rows), losses.dim)))
    for _ in range(warm_epochs):
        x = x - warm_lr * losses.gradients(x, rows)
    l_hat, used = np.zeros(len(rows)), np.zeros(len(rows), dtype=int)
    grad = losses.gradients(x, rows)
    for _ in range(probe_epochs):
        x_next = x - probe_lr * grad
        grad_next = losses.gradients(x_next, rows)
        step = rownorm(x_next - x)
        usable = step >= MIN_PROBE_STEP
        # fmax keeps the running maximum when a quotient is NaN.
        quotient = rownorm(grad_next[usable] - grad[usable]) / step[usable]
        l_hat[usable] = np.fmax(l_hat[usable], quotient)
        used += usable
        x, grad = x_next, grad_next
    if not used.all():
        raise LipschitzEstimateError(
            f"agent {int(np.argmin(used))}: all probe steps were below the minimum length; "
            "decrease warm_epochs or raise probe_lr"
        )
    return LipschitzEstimate(l_hat=float(l_hat.max()), x_init=x)
