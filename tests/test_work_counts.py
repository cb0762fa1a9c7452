"""Exact work counts of a short mlp_ring run: how many stacked loss calls
the run makes, of how many rows, and how many Armijo trials its local
solves reject.  The counts are deterministic for a (config, seed) pair, so
a change that adds or removes loss work shows here as a changed number."""

from caden import harness, solvers
from caden.config import ExperimentConfig

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
    build_losses = harness.build_losses

    def counting_build_losses(cfg, topology):
        losses, eval_set = build_losses(cfg, topology)
        counted.append(StackCalls(losses))
        return losses, eval_set

    reports = []
    solve_lbfgs = solvers.solve_lbfgs

    def recording_solve_lbfgs(*args, **kwargs):
        reports.append(solve_lbfgs(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "build_losses", counting_build_losses)
    monkeypatch.setattr(solvers, "solve_lbfgs", recording_solve_lbfgs)
    harness.run_experiment(ExperimentConfig(**MLP_RING, seed=1), write_outputs=False)
    (calls,) = counted
    # The smoothness probe's 31 gradient calls and the start's one, then per
    # round one value call at the solve's start and one fused call per
    # backtracking level: every row at its first trial, then the rows whose
    # trial was rejected.
    assert calls.calls == {"values": 20, "gradients": 32, "values_and_gradients": 133}
    assert calls.rows == {"values": 200, "gradients": 320, "values_and_gradients": 1048}
    assert calls.sizes["values"] == {10: 20}
    assert calls.sizes["gradients"] == {10: 32}
    assert calls.sizes["values_and_gradients"] == {10: 100, 3: 2, 2: 11, 1: 20}
    assert len(reports) == 20
    assert sum(int(r.backtracks.sum()) for r in reports) == 48
    assert sum(int(r.line_search_failures.sum()) for r in reports) == 0
