"""Exact work counts of short runs: how many stacked loss calls an
mlp_ring run makes, of how many rows, how many Armijo trials its local
solves reject, how many two-loop recursions they run, whether the one
L-BFGS pair pool of the run holds every pair they read, how many stacked
predictions its accuracy column takes, and how many one-agent loss calls
(``value``, ``gradient``, ``predict``) a CADEN and a gradient-tracking run
make.  The counts are
deterministic for a (config, seed) pair, so a change that adds or removes
loss work shows here as a changed number."""

import inspect
from collections import Counter

import numpy as np
import pytest

from caden import harness, solvers
from caden.config import ExperimentConfig
from caden.losses import LogisticLoss, MlpLoss, QuadraticLoss

from helpers import StackCalls

# The benchmark's mlp_ring workload: 10-agent ring, two-layer net (d = 503),
# L-BFGS with tau = 5, every agent active, metrics every round.
MLP_RING = dict(
    rounds=20,
    algorithm="caden",
    topology_kind="ring",
    topology_m=10,
    loss_kind="mlp",
    loss_data="blobs",
    loss_features=16,
    loss_hidden=25,
    loss_classes=3,
    loss_samples_per_agent=40,
    loss_eval_samples=150,
    loss_blob_spread=2.0,
    loss_feature_scale_max=8.0,
    loss_l2=1e-4,
    init_strategy="warmstart",
    lipschitz_warm_lr=0.02,
    caden_mu_z=2.0,
    caden_mu_y=1.0,
    caden_tau=5,
    caden_participation=1.0,
    metrics_cadence=1,
)


def test_mlp_ring_work_counts(monkeypatch):
    counted = []
    predictions = Counter()
    build_losses = harness.build_losses

    def counting_build_losses(cfg, topology):
        losses, eval_set = build_losses(cfg, topology)
        counted.append(StackCalls(losses))
        predict = losses.predictions

        def counting_predictions(x, features):
            predictions[len(x)] += 1
            return predict(x, features)

        losses.predictions = counting_predictions
        return losses, eval_set

    reports, pools = [], []
    solve_lbfgs = solvers.solve_lbfgs

    def recording_solve_lbfgs(*args, **kwargs):
        pools.append(inspect.signature(solve_lbfgs).bind(*args, **kwargs).arguments["pool"])
        reports.append(solve_lbfgs(*args, **kwargs))
        return reports[-1]

    two_loops = []
    slots_read = Counter()
    two_loop_direction = solvers.two_loop_direction

    def counting_two_loop_direction(s, y, rho, gamma, grad):
        two_loops.append(len(grad))
        pool = pools[-1]
        for slots, buffers in ((s, pool.s), (y, pool.y)):
            for slot in slots:
                inside = any(np.shares_memory(slot, buffer) for buffer in buffers)
                slots_read["in pool" if inside else "outside"] += 1
        return two_loop_direction(s, y, rho, gamma, grad)

    monkeypatch.setattr(harness, "build_losses", counting_build_losses)
    monkeypatch.setattr(solvers, "solve_lbfgs", recording_solve_lbfgs)
    monkeypatch.setattr(solvers, "two_loop_direction", counting_two_loop_direction)
    harness.run_experiment(ExperimentConfig(**MLP_RING, seed=1), write_outputs=False)
    (calls,) = counted
    # The smoothness probe's 31 gradient calls, the start's one fused call,
    # then per round one fused call per backtracking level: every row at its
    # first trial, then the rows whose trial was rejected.  The solves start
    # from the engine's carried loss values and gradients, so no round makes
    # a value call.
    assert calls.calls == {"values": 0, "gradients": 31, "values_and_gradients": 134}
    assert calls.rows == {"values": 0, "gradients": 310, "values_and_gradients": 1058}
    assert calls.sizes["values"] == {}
    assert calls.sizes["gradients"] == {10: 31}
    assert calls.sizes["values_and_gradients"] == {10: 101, 3: 2, 2: 11, 1: 20}
    assert len(reports) == 20
    assert sum(int(r.backtracks.sum()) for r in reports) == 48
    assert sum(int(r.line_search_failures.sum()) for r in reports) == 0
    # One lockstep two-loop call of all 10 rows per iteration, tau = 5 per
    # round, and one stacked prediction of every agent per logged row.
    assert Counter(two_loops) == {10: 100}
    assert predictions == {10: 21}
    # One L-BFGS pool serves the whole run, and every slot that a recursion
    # reads lies in it: 0 + 1 + 2 + 3 + 4 pairs a round, s and y each, as
    # every row stores a pair in each iteration but the last.  The pool
    # holds at most tau - 1 = 4 pairs.
    (pool,) = {id(p): p for p in pools}.values()
    assert slots_read == {"in pool": 2 * 10 * 20}
    assert len(pool.s) == len(pool.y) <= 4


def test_mlp_ring_half_participation_work_counts(monkeypatch):
    # At p = 0.5 a round solves 3 to 8 active agents, so every solve is a
    # batch of some agents and its backtracking levels are row subsets.
    counted, reports = [], []
    build_losses = harness.build_losses
    solve_lbfgs = solvers.solve_lbfgs

    def counting_build_losses(cfg, topology):
        losses, eval_set = build_losses(cfg, topology)
        counted.append(StackCalls(losses))
        return losses, eval_set

    def recording_solve_lbfgs(*args, **kwargs):
        reports.append(solve_lbfgs(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "build_losses", counting_build_losses)
    monkeypatch.setattr(solvers, "solve_lbfgs", recording_solve_lbfgs)
    config = ExperimentConfig(**{**MLP_RING, "caden_participation": 0.5}, seed=1)
    harness.run_experiment(config, write_outputs=False)
    (calls,) = counted
    # The smoothness probe's 31 gradient calls and the start's fused call of
    # every agent, then per round one fused call per level: 100 first
    # levels of the round's active agents and 23 backtracking levels, 28
    # rows in all.  Each round's batch resolves its plan (20), and so does
    # each backtracking level on a subset of its batch's rows (22; in the
    # other one, every row of its batch was rejected).
    assert calls.calls == {"values": 0, "gradients": 31, "values_and_gradients": 124}
    assert calls.rows == {"values": 0, "gradients": 310, "values_and_gradients": 553}
    assert calls.sizes["values"] == {}
    assert calls.sizes["gradients"] == {10: 31}
    assert calls.sizes["values_and_gradients"] == {
        10: 1, 8: 10, 7: 25, 6: 5, 5: 10, 4: 30, 3: 22, 2: 1, 1: 20}
    assert calls.plans == 42
    assert len(reports) == 20
    assert sum(int(r.backtracks.sum()) for r in reports) == 28


# The benchmark's gt_logistic workload, shortened, at a fixed step.
GT_LOGISTIC = dict(
    rounds=10,
    algorithm="gt",
    topology_kind="random",
    topology_m=20,
    topology_edge_prob=0.2,
    loss_kind="logistic",
    loss_samples_per_agent=100,
    loss_l2=1e-3,
    init_strategy="warmstart",
    gt_step=0.1,
    metrics_cadence=1,
)


@pytest.fixture
def lone_calls(monkeypatch):
    """Counts each family's one-agent ``value``, ``gradient`` and ``predict``
    calls by name, whichever family serves them."""
    calls = Counter()
    for family in (QuadraticLoss, LogisticLoss, MlpLoss):
        for name in ("value", "gradient", "predict"):
            method = getattr(family, name, None)
            if method is None:
                continue

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(family, name, counted)
    return calls


def test_caden_run_calls_no_lone_loss_method(lone_calls):
    # The relative errors read the engine's carried gradients, and the
    # accuracy and the solves go through the stack.
    harness.run_experiment(ExperimentConfig(**MLP_RING, seed=1), write_outputs=False)
    assert lone_calls == {}


def test_gt_run_lone_gradient_calls(lone_calls):
    # gt evaluates every agent one at a time: 20 at the start, 20 per round,
    # and its two relative errors 2 x 20 per logged row (11 rows).
    harness.run_experiment(ExperimentConfig(**GT_LOGISTIC, seed=1), write_outputs=False)
    assert lone_calls == {"gradient": 20 + 10 * 20 + 11 * 2 * 20}
