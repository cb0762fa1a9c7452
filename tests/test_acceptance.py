"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria cover: edge/agent-form equivalence, the spectral sandwich bound,
convex convergence, the O(1/T) residual trend on the non-convex benchmark,
curvature acceleration over the gradient-descent variant, participation
ordering, the analysis constants, metric identities, the gradient-tracking
baseline, and byte-level determinism of emitted CSVs.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from caden import baselines, engine, graphs, metrics
from caden.config import ExperimentConfig
from caden.engine import CadenConfig
from caden.harness import run_experiment, sweep
from caden.losses import LossStack, QuadraticLoss
from caden.solvers import estimate_contraction, solve_gd, solve_lbfgs
from caden.verify import verify_constants, verify_equivalence, verify_sandwich

from helpers import Row, batch_of, lyapunov_v_midpoint_form, random_psd, tracking_gap


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"


def _nonconvex_benchmark(seed: int, **overrides) -> ExperimentConfig:
    """10-agent two-layer net on 3-class blobs, d = 16*25+25+25*3+3 = 503.

    The ring topology and log-spaced feature scales keep the local
    subproblems meaningfully conditioned at the practice-style penalty, which
    is where the curvature of the quasi-Newton solves pays off.
    """
    base = dict(
        seed=seed,
        rounds=1000,
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
        init_strategy="warmstart",
        lipschitz_warm_lr=0.02,
        caden_mu_z=2.0,
        caden_mu_y=1.0,
        caden_tau=5,
        metrics_wall_time=False,
        output_label=f"nonconvex_s{seed}",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _convex_benchmark(seed: int, **overrides) -> ExperimentConfig:
    """10-agent identity quadratics with a conservative dual step."""
    base = dict(
        seed=seed,
        rounds=60,
        algorithm="caden",
        topology_kind="random",
        topology_m=10,
        topology_edge_prob=0.4,
        loss_kind="quadratic",
        quadratic_style="identity",
        loss_dimension=4,
        caden_mu_y=0.5,
        metrics_wall_time=False,
        output_label=f"convex_s{seed}",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_1_edge_agent_equivalence():
    with criterion(1, "edge-form and agent-form trajectories coincide", 5.0):
        result = verify_equivalence(seed=0, rounds=50, tau=5)
        assert result.details["max_trajectory_gap"] <= 1e-10
        assert result.details["max_antisymmetry"] <= 1e-12


def test_criterion_2_sandwich_bound():
    with criterion(2, "neighbor-disagreement sandwich on 100 random instances", 5.0):
        result = verify_sandwich(count=100, seed=0)
        assert result.details["worst_slack"] >= -1e-9


def test_criterion_3_convex_convergence():
    with criterion(3, "two-agent quadratic case reaches the optimum", 2.0):
        topology = graphs.complete_graph(2)
        losses = LossStack([
            QuadraticLoss(q=np.ones(1), a=np.array([0.0])),
            QuadraticLoss(q=np.ones(1), a=np.array([2.0])),
        ])
        config = CadenConfig(mu_z=3.0, mu_y=3.0, tau=5, seed=1)
        state = engine.init_states(losses, topology, np.array([[0.0], [2.0]]))
        x = state.x
        for t in range(500):
            engine.run_round(state, losses, topology, config, t)
            if max(abs(x[0, 0] - 1.0), abs(x[1, 0] - 1.0)) <= 1e-6:
                break
        assert abs(x[0, 0] - 1.0) <= 1e-6
        assert abs(x[1, 0] - 1.0) <= 1e-6


SEEDS = (3, 4, 5, 6, 7)


@pytest.fixture(scope="module")
def nonconvex_runs():
    """Seed-averaged residual traces of the non-convex benchmark, reused by
    the trend and acceleration criteria; carries its own wall time so both
    criteria account for the shared runs."""
    start = time.perf_counter()
    runs = {}
    for solver in ("caden", "caden-gd"):
        for seed in SEEDS:
            cfg = _nonconvex_benchmark(seed, algorithm=solver)
            runs[(solver, seed)] = run_experiment(cfg, write_outputs=False)
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_criterion_4_one_over_t_trend(nonconvex_runs):
    with criterion(4, "running-average residual decays like 1/T", 600.0):
        assert nonconvex_runs["elapsed"] < 600.0 - 10.0
        v_mean = np.zeros(1001)
        for seed in SEEDS:
            rows = nonconvex_runs[("caden", seed)].trace.rows
            v_mean += np.array([r.V_t for r in rows])
        v_mean /= len(SEEDS)
        horizons = np.array([50, 100, 200, 400, 700, 1000])
        running_avg = np.array([v_mean[:T].mean() for T in horizons])
        slope = np.polyfit(np.log(horizons), np.log(running_avg), 1)[0]
        print(f"  log-log slope of the running average: {slope:.3f}")
        assert slope <= -0.8


def test_criterion_5_curvature_acceleration(nonconvex_runs):
    with criterion(5, "quasi-Newton local solves beat gradient descent", 600.0):
        assert nonconvex_runs["elapsed"] < 600.0 - 10.0
        final = {
            solver: np.mean(
                [nonconvex_runs[(solver, s)].summary["totals"]["final_rel_err"]
                 for s in SEEDS]
            )
            for solver in ("caden", "caden-gd")
        }
        print(f"  final rel_err: lbfgs={final['caden']:.3e} gd={final['caden-gd']:.3e}")
        assert final["caden"] <= final["caden-gd"]
        for trial in range(20):
            rng = np.random.default_rng([55, trial])
            d = 20
            loss = QuadraticLoss(q=random_psd(d, 100.0, rng), a=rng.standard_normal(d))
            batch = batch_of([Row(loss=loss, phi=np.zeros(d), anchors=np.zeros((0, d)), mu_z=0.0)])
            x0 = rng.standard_normal((1, d))
            r_lbfgs = estimate_contraction(solve_lbfgs(batch, x0, 20))[0]
            r_gd = estimate_contraction(solve_gd(batch, x0, 20, step=2.0 / 101.0))[0]
            assert r_lbfgs <= r_gd


def test_criterion_6_participation_ordering():
    with criterion(6, "final residual is ordered by participation", 180.0):
        result = sweep(
            _convex_benchmark(10), "caden.participation", [0.3, 0.6, 1.0], n_seeds=5,
            write_outputs=False,
        )
        v = result.final_v
        print(f"  seed-averaged final V: {v}")
        assert v[0.6] <= v[0.3] * 1.05
        assert v[1.0] <= v[0.6] * 1.05
        inversions = sum(1 for a, b in ((0.3, 0.6), (0.6, 1.0)) if v[b] > v[a])
        assert inversions <= 1


def test_criterion_7_theory_constants():
    with criterion(7, "prescribed parameters satisfy the analysis constants", 1.0):
        result = verify_constants(rate=0.5)
        assert result.passed, result.details["failures"]
        assert result.details["grid_points"] == 27


def test_criterion_8_metric_identities():
    with criterion(8, "residual forms agree and characterize stationarity", 1.0):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            topology = graphs.build_random_graph(8, 0.4, seed=seed)
            losses = LossStack([
                QuadraticLoss(q=rng.uniform(0.5, 2.0, 3), a=rng.standard_normal(3))
                for _ in range(8)
            ])
            state = engine.init_states(losses, topology, rng.standard_normal((8, 3)))
            x, phi, grad = state.x, state.phi, state.grad
            for i in range(8):
                phi[i] = rng.standard_normal(3)
            a = metrics.lyapunov_v(x, phi, grad, topology)
            b = lyapunov_v_midpoint_form(x, phi, losses, topology)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        topology = graphs.complete_graph(4)
        losses = LossStack([QuadraticLoss(q=np.ones(2), a=np.full(2, float(i))) for i in range(4)])
        x_star = np.full(2, 1.5)
        state = engine.init_states(losses, topology, np.tile(x_star, (4, 1)))
        x, phi, grad = state.x, state.phi, state.grad
        for i in range(4):
            phi[i] = -losses[i].gradient(x_star)
        assert metrics.lyapunov_v(x, phi, grad, topology) == 0.0
        x[0] = x[0] + 1e-3
        grad_moved = grad.copy()
        grad_moved[0] = losses[0].gradient(x[0])
        assert metrics.lyapunov_v(x, phi, grad_moved, topology) > 0.0
        x[0] = x_star
        phi[2] = phi[2] + 1e-3
        assert metrics.lyapunov_v(x, phi, grad, topology) > 0.0


def test_criterion_9_gradient_tracking_baseline():
    with criterion(9, "gradient tracking converges with its identity intact", 60.0):
        result = run_experiment(
            _convex_benchmark(10, algorithm="gt", rounds=400), write_outputs=False
        )
        assert result.summary["totals"]["final_rel_err"] <= 1e-6
        topology = graphs.build_random_graph(10, 0.4, seed=10)
        rng = np.random.default_rng(0)
        losses = LossStack([QuadraticLoss(q=np.ones(4), a=rng.standard_normal(4))
                            for _ in range(10)])
        w = baselines.metropolis_weights(topology)
        state = baselines.gt_init(losses, rng.standard_normal((10, 4)), w, step=0.1)
        for _ in range(400):
            state = baselines.gt_round(state, losses)
            assert tracking_gap(state, losses) <= 1e-10


def test_criterion_10_deterministic_outputs(tmp_path):
    with criterion(10, "identical seeds reproduce CSVs byte for byte", 120.0):
        for make in (
            lambda: _convex_benchmark(10),
            lambda: _convex_benchmark(10, caden_participation=0.6, output_label="p6"),
            lambda: _convex_benchmark(10, algorithm="gt", output_label="gt"),
            lambda: _nonconvex_benchmark(3, rounds=40, output_label="nc"),
        ):
            first = run_experiment(make(), out_dir=str(tmp_path / "a"))
            second = run_experiment(make(), out_dir=str(tmp_path / "b"))
            assert first.csv_path.read_bytes() == second.csv_path.read_bytes()
