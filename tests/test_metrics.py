"""Residual metrics: form equivalence, zero characterization, accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import engine, graphs, harness, metrics
from caden.config import ExperimentConfig
from caden.datasets import gaussian_blobs
from caden.engine import CadenConfig
from caden.losses import LogisticLoss, LossStack, MlpLoss, QuadraticLoss

from helpers import Row, batch_of, lyapunov_v_midpoint_form


def _random_states(seed, m=8, d=3):
    rng = np.random.default_rng(seed)
    topology = graphs.build_random_graph(m, 0.4, seed=seed)
    losses = LossStack([QuadraticLoss(q=rng.uniform(0.5, 2.0, d), a=rng.standard_normal(d))
                        for _ in range(m)])
    x, phi, grad, value = engine.init_states(losses, topology, rng.standard_normal((m, d)))
    for i in range(m):
        phi[i] = rng.standard_normal(d)
    return topology, losses, x, phi, grad


def _consensus_stationary(m=4, d=2):
    """All models equal with duals cancelling each local gradient."""
    topology = graphs.complete_graph(m)
    rng = np.random.default_rng(0)
    losses = LossStack([QuadraticLoss(q=np.ones(d), a=rng.standard_normal(d)) for _ in range(m)])
    x_star = np.mean([loss.a for loss in losses], axis=0)
    x, phi, grad, value = engine.init_states(losses, topology, np.tile(x_star, (m, 1)))
    for i in range(m):
        phi[i] = -losses[i].gradient(x_star)
    return topology, losses, x, phi, grad


def _gradients_at(x, losses):
    """The loss gradients at models ``x``, one agent at a time."""
    return np.array([loss.gradient(x_i) for x_i, loss in zip(x, losses)])


class TestResidualForms:
    @pytest.mark.parametrize("seed", range(50))
    def test_pair_and_midpoint_forms_agree(self, seed):
        topology, losses, x, phi, grad = _random_states(seed)
        a = metrics.lyapunov_v(x, phi, grad, topology)
        b = lyapunov_v_midpoint_form(x, phi, losses, topology)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_zero_exactly_at_consensus_stationary_state(self):
        topology, losses, x, phi, grad = _consensus_stationary()
        assert metrics.lyapunov_v(x, phi, grad, topology) == 0.0

    def test_positive_when_consensus_perturbed(self):
        topology, losses, x, phi, _ = _consensus_stationary()
        x[0] = x[0] + 1e-3
        assert metrics.lyapunov_v(x, phi, _gradients_at(x, losses), topology) > 0.0

    def test_positive_when_stationarity_perturbed(self):
        topology, losses, x, phi, grad = _consensus_stationary()
        phi += 1e-3  # breaks gradient cancellation, keeps consensus
        assert metrics.lyapunov_v(x, phi, grad, topology) > 0.0


class TestRelativeError:
    def test_zero_at_global_consensus_stationary_point(self):
        # Exactly representable optimum: targets -1 and 1 with mean 0.
        topology = graphs.complete_graph(2)
        losses = LossStack([QuadraticLoss(q=np.ones(1), a=np.array([-1.0])),
                            QuadraticLoss(q=np.ones(1), a=np.array([1.0]))])
        x, _, _, _ = engine.init_states(losses, topology, np.zeros((2, 1)))
        assert metrics.relative_error(x, losses) == 0.0

    def test_two_agent_hand_value(self):
        # Gradients vanish at the local targets; only the chain gap remains.
        topology = graphs.complete_graph(2)
        losses = LossStack([QuadraticLoss(q=np.ones(1), a=np.array([0.0])),
                            QuadraticLoss(q=np.ones(1), a=np.array([2.0]))])
        x, _, _, _ = engine.init_states(losses, topology, np.array([[0.0], [2.0]]))
        assert metrics.relative_error(x, losses) == pytest.approx(4.0)

    def test_zero_iff_chain_consensus_and_zero_gradient_sum(self):
        topology, losses, x, _, _ = _consensus_stationary()
        x[1] = x[1] + 1e-3
        assert metrics.relative_error(x, losses) > 0.0

    def test_graph_variant_counts_edges(self):
        topology = graphs.path_graph(3)
        losses = LossStack([QuadraticLoss(q=np.ones(1), a=np.zeros(1)) for _ in range(3)])
        x, _, _, _ = engine.init_states(losses, topology, np.array([[0.0], [1.0], [2.0]]))
        chain = metrics.relative_error(x, losses)
        graph = metrics.relative_error_graph(x, losses, topology)
        assert chain == pytest.approx(graph)  # path graph: same pair set
        ring = graphs.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert metrics.relative_error_graph(x, losses, ring) > graph


def _engine_run(family, solver, rounds=4, m=6):
    """The (m, d) models and carried gradients, the losses and the topology
    after ``rounds`` engine rounds of ``family`` losses under ``solver``;
    quadratics run at participation 0.5."""
    rng = np.random.default_rng(5)
    topology = graphs.build_random_graph(m, 0.5, seed=5)
    features, labels = gaussian_blobs(10 * m, 3, 3, seed=5)
    shards = [slice(10 * i, 10 * i + 10) for i in range(m)]
    if family == "quadratic":
        d = 4
        members = [QuadraticLoss(q=rng.uniform(0.5, 2.0, d), a=rng.standard_normal(d))
                   for _ in range(m)]
    elif family == "logistic":
        d = 9
        members = [LogisticLoss(features[r], labels[r], 3, 1e-3) for r in shards]
    else:
        members = [MlpLoss(features[r], labels[r], hidden=4, classes=3, l2=1e-3) for r in shards]
        d = members[0].dim
    losses = LossStack(members)
    x, phi, grad, value = engine.init_states(losses, topology, rng.standard_normal((m, d)))
    participation = 0.5 if family == "quadratic" else 1.0
    config = CadenConfig(mu_z=2.0, mu_y=1.0, solver=solver, participation=participation, seed=3,
                         lipschitz=4.0)
    for t in range(rounds):
        engine.run_round(x, phi, grad, value, losses, topology, config, t)
    return x, grad, losses, topology


class TestCarriedGradients:
    # Given the engine's carried gradients, the relative errors evaluate no
    # loss and still equal the per-agent recomputation bit for bit.
    @pytest.mark.parametrize("family, solver", [
        ("quadratic", "lbfgs"), ("quadratic", "gd"), ("quadratic", "exact"),
        ("logistic", "lbfgs"), ("logistic", "gd"), ("mlp", "lbfgs"), ("mlp", "gd"),
    ])
    def test_equal_to_per_agent_recomputation(self, family, solver):
        x, grad, losses, topology = _engine_run(family, solver)
        grad_sum = metrics.gradient_sum(x, losses, grad)
        assert metrics.relative_error(x, losses, grad_sum) == metrics.relative_error(x, losses)
        assert (metrics.relative_error_graph(x, losses, topology, grad_sum)
                == metrics.relative_error_graph(x, losses, topology))

    @pytest.mark.parametrize("family", ["quadratic", "logistic", "mlp"])
    def test_carried_row_equals_the_three_metrics(self, family):
        # A logged CADEN row sums the carried rows and the edge gaps once for
        # V_t and both relative errors; each equals its metric's own call.
        x, grad, losses, topology = _engine_run(family, "lbfgs")
        phi = np.random.default_rng(6).standard_normal(x.shape)
        assert metrics.carried_row(x, phi, grad, losses, topology) == (
            metrics.lyapunov_v(x, phi, grad, topology),
            metrics.relative_error(x, losses),
            metrics.relative_error_graph(x, losses, topology),
        )

    def test_final_rel_err_matches_the_checkpoint(self, tmp_path):
        state = str(tmp_path / "state.bin")
        cfg = ExperimentConfig(
            seed=4, rounds=12, topology_kind="random", topology_m=12, topology_edge_prob=0.4,
            loss_kind="quadratic", quadratic_style="random", loss_dimension=3,
            caden_participation=0.5, metrics_cadence=5, metrics_wall_time=False,
            output_save_state=state,
        )
        result = harness.run_experiment(cfg, write_outputs=False)
        x, _, _ = engine.load_checkpoint(state)
        topology = harness.build_topology(cfg)
        losses, _ = harness.build_losses(cfg, topology)
        assert result.summary["totals"]["final_rel_err"] == metrics.relative_error(x, losses)


class TestAccuracy:
    def _mlp_models(self, params):
        x_data, y_data = gaussian_blobs(60, 5, 10, seed=0)
        topology = graphs.complete_graph(3)
        losses = LossStack([MlpLoss(x_data, y_data, hidden=6, classes=10) for _ in range(3)])
        x, _, _, _ = engine.init_states(losses, topology, np.tile(params(losses[0]), (3, 1)))
        return topology, losses, x

    def test_perfect_classifier_scores_one(self):
        x_eval, y_eval = gaussian_blobs(100, 5, 3, seed=1, spread=0.1)
        topology = graphs.complete_graph(2)
        losses = LossStack([MlpLoss(x_eval, y_eval, hidden=16, classes=3) for _ in range(2)])
        params = losses[0].init_params(0)
        from caden.solvers import solve_lbfgs

        d = losses.dim
        batch = batch_of([Row(loss=losses[0], phi=np.zeros(d), anchors=np.zeros((0, d)), mu_z=0.0)],
                         losses, [0])
        params = solve_lbfgs(batch, params[None], 200).x_out[0]
        x, _, _, _ = engine.init_states(losses, topology, np.tile(params, (2, 1)))
        assert metrics.test_accuracy(x, losses, x_eval, y_eval) == 1.0

    def test_zero_weights_predict_one_class(self):
        x_eval, y_eval = gaussian_blobs(400, 5, 10, seed=2)
        topology, losses, x = self._mlp_models(lambda loss: np.zeros(loss.dim))
        acc = metrics.test_accuracy(x, losses, x_eval, y_eval)
        assert abs(acc - 0.1) <= 0.03

    def test_deterministic(self):
        x_eval, y_eval = gaussian_blobs(50, 5, 10, seed=3)
        topology, losses, x = self._mlp_models(lambda loss: loss.init_params(4))
        a = metrics.test_accuracy(x, losses, x_eval, y_eval)
        b = metrics.test_accuracy(x, losses, x_eval, y_eval)
        assert a == b

    def test_omitted_for_non_classification(self):
        topology, losses, x, _, _ = _consensus_stationary()
        assert metrics.test_accuracy(x, losses, np.zeros((2, 2)), np.zeros(2)) is None


class TestPhiDrift:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 9),
        d=st.integers(1, 5),
        edge_prob=st.floats(0.2, 1.0),
        solver=st.sampled_from(["lbfgs", "gd", "exact"]),
        mu_z=st.floats(0.1, 5.0),
        mu_y_share=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_zero_under_full_participation(
        self, m, d, edge_prob, solver, mu_z, mu_y_share, seed
    ):
        # Each edge adds opposite terms to its endpoints' duals, so their sum
        # stays at zero from zero duals.  mu_y <= mu_z keeps the iterates, and
        # with them the rounding of that sum, bounded.
        topology = graphs.build_random_graph(m, edge_prob, seed=seed)
        rng = np.random.default_rng(seed)
        losses = LossStack([QuadraticLoss(q=rng.uniform(0.5, 2.0, d), a=rng.standard_normal(d))
                            for _ in range(m)])
        x, phi, grad, value = engine.init_states(losses, topology, rng.standard_normal((m, d)))
        config = CadenConfig(mu_z=mu_z, mu_y=mu_y_share * mu_z, solver=solver)
        for t in range(10):
            engine.run_round(x, phi, grad, value, losses, topology, config, t)
        assert metrics.phi_drift(phi) <= 1e-10

    def test_nonzero_reported_under_partial_participation(self):
        topology, losses, x, phi, grad = _random_states(1)
        value = losses.values(x, np.arange(topology.m))
        phi[:] = 0.0
        config = CadenConfig(mu_z=2.0, mu_y=2.0, participation=0.5, seed=7)
        drifts = []
        for t in range(20):
            engine.run_round(x, phi, grad, value, losses, topology, config, t)
            drifts.append(metrics.phi_drift(phi))
        assert max(drifts) > 0.0
